//! Allocation budget of the cluster's shuffle kernel, counted exactly.
//!
//! The pipeline is the one a cluster WordCount job runs, minus sockets and
//! threads, on the benchmark's `cluster_jobs` shape (32 KiB of Zipf word
//! text, 4 KiB blocks, 3 reduces): `execute_map` per block into packed
//! partitions, each partition through a `PartitionData` encode and decode,
//! the partitions of each reduce in map order through `execute_reduce`,
//! and its output through a `ReduceDone` encode and decode. A counting
//! global allocator tallies every allocation and reallocation the test
//! thread makes inside that window. Unlike a timing, the count does not
//! move with the host.

use pnats_core::partition::Partitioner;
use pnats_engine::exec::{execute_map, execute_reduce, split_blocks, MapProgressGauges};
use pnats_engine::WordCountJob;
use pnats_rpc::wire::{Reader, Wire, Writer};
use pnats_rpc::{Msg, Pairs, ReduceDone};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations the window may make. The same pipeline
/// over `Vec<(String, String)>` pairs made 58 158 on this input.
const BUDGET: u64 = 1_500;

const INPUT_BYTES: usize = 32 << 10;
const BLOCK_BYTES: usize = 4 << 10;
const N_REDUCES: usize = 3;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// The system allocator, counting calls made on a thread whose window is
/// open.
struct Counting;

fn tally() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `System`'s guarantees are this allocator's; `tally` touches only an
// atomic and a const-initialised thread-local, and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        // SAFETY: as for `dealloc`, and the caller upholds `realloc`'s
        // contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, with its result.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.store(0, Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed))
}

/// Seeded Zipf(1.1) text over a 1 000-word vocabulary, twelve words a
/// line: the shape of the benchmark's WordCount input.
fn zipf_words(target: usize, mut seed: u64) -> String {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let cdf: Vec<f64> = (1..=1000)
        .scan(0.0, |acc, r| {
            *acc += 1.0 / f64::powf(r as f64, 1.1);
            Some(*acc)
        })
        .collect();
    let mut text = String::new();
    let mut on_line = 0;
    while text.len() < target {
        let u = (next() >> 11) as f64 / (1u64 << 53) as f64 * cdf[cdf.len() - 1];
        let mut rank = cdf.partition_point(|&c| c < u);
        loop {
            text.push((b'a' + (rank % 26) as u8) as char);
            rank /= 26;
            if rank == 0 {
                break;
            }
        }
        on_line += 1;
        text.push(if on_line % 12 == 0 { '\n' } else { ' ' });
    }
    text
}

#[test]
fn shuffle_kernel_allocates_within_budget() {
    let input = zipf_words(INPUT_BYTES, 42);
    let blocks = split_blocks(&input, BLOCK_BYTES);
    assert_eq!(blocks.len(), 8, "the benchmark's 8 maps");

    // The reference, built before the window opens and without the exec
    // primitives: per-partition word counts, partition-major, key-sorted.
    let mut counts: Vec<BTreeMap<&str, u64>> = vec![BTreeMap::new(); N_REDUCES];
    for word in input.split_whitespace() {
        *counts[Partitioner::Hash.of(word, N_REDUCES)].entry(word).or_default() += 1;
    }
    let expected: Vec<(String, String)> = counts
        .iter()
        .flat_map(|c| c.iter().map(|(k, n)| (k.to_string(), n.to_string())))
        .collect();

    let (done, allocs) = counted(|| {
        let mut fetched: Vec<Vec<Pairs>> = (0..N_REDUCES).map(|_| Vec::new()).collect();
        for text in &blocks {
            let gauges = MapProgressGauges::new(N_REDUCES);
            let mut parts = vec![Pairs::new(); N_REDUCES];
            let sink = |p: usize, k: &str, v: &str| parts[p].push(k, v);
            execute_map(&WordCountJob, text, N_REDUCES, Partitioner::Hash, &gauges, || {}, sink);
            for (r, pairs) in parts.into_iter().enumerate() {
                let bytes = Msg::PartitionData { pairs }.encode();
                let Ok(Msg::PartitionData { pairs }) = Msg::decode(&bytes) else {
                    panic!("a PartitionData round-trips");
                };
                fetched[r].push(pairs);
            }
        }
        let mut done = Vec::new();
        for (r, parts) in fetched.iter().enumerate() {
            let mut output = Pairs::new();
            execute_reduce(&WordCountJob, parts.iter().flat_map(Pairs::iter), &mut |k, v| {
                output.push(k, v)
            });
            let sent = ReduceDone { reduce: r as u32, attempt: 0, output, sources: Vec::new() };
            let mut w = Writer::new();
            sent.put(&mut w);
            let bytes = w.into_bytes();
            done.push(ReduceDone::get(&mut Reader::new(&bytes)).expect("a ReduceDone round-trips"));
        }
        done
    });

    let output: Vec<(String, String)> = done.iter().flat_map(|d| d.output.to_vec()).collect();
    assert_eq!(output, expected, "the kernel's output is WordCount's");
    eprintln!("shuffle kernel: {allocs} allocations (budget {BUDGET})");
    assert!(allocs <= BUDGET, "{allocs} allocations exceed the budget of {BUDGET}");
}
