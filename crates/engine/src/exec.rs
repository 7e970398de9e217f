//! Runtime-agnostic task execution.
//!
//! The threaded engine and the TCP cluster runtime must produce
//! *byte-identical* final outputs for the same job, input and seed — that
//! is the parity gate that lets the cluster's distributed control plane be
//! validated against the engine's in-process one. Output bytes are fully
//! determined by three things, all of which live here so the two runtimes
//! cannot drift:
//!
//! * how input text splits into blocks ([`split_blocks`]);
//! * how a mapper's emissions partition across reducers ([`execute_map`],
//!   via [`pnats_core::Partitioner`]);
//! * how a reducer's input is ordered and grouped ([`execute_reduce`]:
//!   pairs are collected in map-index order, then grouped by key in
//!   ascending key order, values within a key in arrival order — what a
//!   stable sort by key yields, so values within a key always arrive in
//!   map-index emission order).
//!
//! Placement decisions, message timing and fault recovery affect *when*
//! work runs and *where* bytes travel — never what they are.
//!
//! The primitives own no storage type: map output leaves through a sink
//! the caller supplies, and reduce input is borrowed `(&str, &str)` pairs.
//! The engine keeps owned `String`s; the cluster keeps the wire's packed
//! batches.

use crate::api::{Emit, Mapper, Reducer};
use pnats_core::partition::Partitioner;
pub use pnats_core::context::slowstart_gate;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Published progress of one running map task — the live counters a
/// heartbeat reports (`d_read` and per-partition `A_jf` in the paper's
/// notation). The engine reads them in-process; a cluster worker snapshots
/// them into its next heartbeat message.
pub struct MapProgressGauges {
    /// Input bytes consumed so far (`d_read`).
    pub d_read: AtomicU64,
    /// Intermediate bytes emitted per reduce partition so far (`A_jf`).
    pub part_bytes: Vec<AtomicU64>,
}

impl MapProgressGauges {
    /// Zeroed gauges for a job with `n_reduces` partitions.
    pub fn new(n_reduces: usize) -> Self {
        Self {
            d_read: AtomicU64::new(0),
            part_bytes: (0..n_reduces).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Reset to zero (a re-executed attempt starts over).
    pub fn reset(&self) {
        self.d_read.store(0, Ordering::Relaxed);
        for b in &self.part_bytes {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// Split text into blocks of roughly `block_bytes` on line boundaries.
/// Every input — even empty — yields at least one block, so every job has
/// at least one map task.
pub fn split_blocks(input: &str, block_bytes: usize) -> Vec<String> {
    let mut blocks = Vec::new();
    let mut cur = String::new();
    for line in input.lines() {
        cur.push_str(line);
        cur.push('\n');
        if cur.len() >= block_bytes {
            blocks.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        blocks.push(cur);
    }
    if blocks.is_empty() {
        blocks.push(String::new());
    }
    blocks
}

/// Run one map attempt over a block: per-line mapper calls, partitioned
/// emission, live gauge updates. `pace` fires roughly every 8 KiB of input
/// consumed — the engine sleeps there to make progress observable between
/// heartbeats; a cluster worker can use it as a cancellation point.
///
/// Each emitted pair goes to `sink` as `(partition, key, value)`, in
/// emission order: the caller owns the storage. Returns the intermediate
/// bytes per partition. What reaches `sink` is a pure function of `(text,
/// mapper, partitioner, n_reduces)` — gauges and pacing affect
/// observability, never output.
pub fn execute_map(
    mapper: &dyn Mapper,
    text: &str,
    n_reduces: usize,
    partitioner: Partitioner,
    gauges: &MapProgressGauges,
    mut pace: impl FnMut(),
    mut sink: impl FnMut(usize, &str, &str),
) -> Vec<u64> {
    let mut bytes = vec![0u64; n_reduces];
    let mut offset = 0u64;
    for line in text.lines() {
        let emit: &mut Emit<'_> = &mut |k: &str, v: &str| {
            let part = partitioner.of(k, n_reduces);
            let sz = (k.len() + v.len()) as u64;
            bytes[part] += sz;
            gauges.part_bytes[part].fetch_add(sz, Ordering::Relaxed);
            sink(part, k, v);
        };
        mapper.map(offset, line, emit);
        offset += line.len() as u64 + 1;
        gauges.d_read.store(offset.min(text.len() as u64), Ordering::Relaxed);
        if offset % 8192 < line.len() as u64 + 1 {
            pace();
        }
    }
    gauges.d_read.store(text.len() as u64, Ordering::Relaxed);
    bytes
}

/// Run one reduce attempt: group by key, reduce each group in ascending key
/// order, each output pair to `emit`. `pairs` must be the task's partition
/// from every map output concatenated in *map-index order*; values reach
/// the reducer in that order within each key, so the output is independent
/// of fetch timing or placement. Keys and values are borrowed from the
/// caller's storage, never copied.
///
/// The groups, their order and the value order within each are exactly
/// what a stable sort of every pair by key would give, but only the
/// distinct keys are sorted (a reduce sees hundreds of keys over thousands
/// of pairs): each key gets an id in first-seen order, the values are
/// scattered into one buffer grouped by id in arrival order, and the ids
/// are sorted by key. Keys are job input, so the map keeps std's
/// flooding-resistant hasher.
pub fn execute_reduce<'a>(
    reducer: &dyn Reducer,
    pairs: impl IntoIterator<Item = (&'a str, &'a str)>,
    emit: &mut Emit<'_>,
) {
    let mut ids: HashMap<&str, usize> = HashMap::new();
    let mut keys: Vec<&str> = Vec::new();
    let mut tagged: Vec<(usize, &str)> = Vec::new();
    for (k, v) in pairs {
        let id = *ids.entry(k).or_insert_with(|| {
            keys.push(k);
            keys.len() - 1
        });
        tagged.push((id, v));
    }
    // `ends[id]` is one past key `id`'s run in `grouped`; filling the runs
    // back to front from there, walking the pairs in reverse, leaves each
    // key's values in arrival order and `starts[id]` at the run's start.
    let mut ends: Vec<usize> = vec![0; keys.len()];
    for &(id, _) in &tagged {
        ends[id] += 1;
    }
    let mut total = 0;
    for end in &mut ends {
        total += *end;
        *end = total;
    }
    let mut grouped = vec![""; tagged.len()];
    let mut starts = ends.clone();
    for &(id, v) in tagged.iter().rev() {
        starts[id] -= 1;
        grouped[starts[id]] = v;
    }
    let mut order: Vec<usize> = (0..keys.len()).collect();
    // Distinct keys: an unstable sort orders them as a stable one would.
    order.sort_unstable_by_key(|&id| keys[id]);
    for id in order {
        reducer.reduce(keys[id], &grouped[starts[id]..ends[id]], emit);
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WordCountJob;

    #[test]
    fn split_blocks_round_trips_and_never_empty() {
        let input = (0..100).map(|i| format!("line-{i}")).collect::<Vec<_>>().join("\n");
        let blocks = split_blocks(&input, 128);
        assert!(blocks.len() > 1);
        assert_eq!(blocks.concat().lines().count(), 100);
        assert_eq!(split_blocks("", 128), vec![String::new()]);
    }

    /// `execute_map` into per-partition owned pairs, as the engine stores
    /// them.
    fn map_to_vecs(
        text: &str,
        gauges: &MapProgressGauges,
        pace: impl FnMut(),
    ) -> (Vec<Vec<(String, String)>>, Vec<u64>) {
        let mut parts: Vec<Vec<(String, String)>> = vec![Vec::new(); 3];
        let bytes = execute_map(&WordCountJob, text, 3, Partitioner::Hash, gauges, pace, |p, k, v| {
            parts[p].push((k.to_string(), v.to_string()))
        });
        (parts, bytes)
    }

    /// `execute_reduce` over owned pairs, its output collected owned.
    fn reduce_to_vec(reducer: &dyn Reducer, pairs: &[(String, String)]) -> Vec<(String, String)> {
        let mut output = Vec::new();
        execute_reduce(reducer, pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())), &mut |k, v| {
            output.push((k.to_string(), v.to_string()))
        });
        output
    }

    #[test]
    fn execute_map_is_deterministic_and_updates_gauges() {
        let text = "apple banana apple\ncherry banana apple\n".repeat(300);
        let gauges = MapProgressGauges::new(3);
        let mut paced = 0u32;
        let (parts, bytes) = map_to_vecs(&text, &gauges, || paced += 1);
        let (parts2, bytes2) = map_to_vecs(&text, &MapProgressGauges::new(3), || {});
        assert_eq!(parts, parts2, "output independent of pacing/gauges");
        assert_eq!(bytes, bytes2);
        for (part, b) in parts.iter().zip(&bytes) {
            assert_eq!(part.iter().map(|(k, v)| (k.len() + v.len()) as u64).sum::<u64>(), *b);
        }
        assert_eq!(gauges.d_read.load(Ordering::Relaxed), text.len() as u64);
        for (p, b) in bytes.iter().enumerate() {
            assert_eq!(gauges.part_bytes[p].load(Ordering::Relaxed), *b);
        }
        assert!(paced > 0, "a {}-byte block crosses 8 KiB boundaries", text.len());
        gauges.reset();
        assert_eq!(gauges.d_read.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn execute_reduce_groups_in_stable_order() {
        // Duplicate keys: values must keep their concatenation order.
        let pairs = vec![
            ("b".to_string(), "1".to_string()),
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "1".to_string()),
            ("a".to_string(), "1".to_string()),
        ];
        let out = reduce_to_vec(&WordCountJob, &pairs);
        assert_eq!(
            out,
            vec![("a".to_string(), "2".to_string()), ("b".to_string(), "2".to_string())]
        );
    }

    /// `execute_reduce` as it was over owned storage: sort a
    /// `Vec<(String, String)>` and hand each group's values over. The
    /// reference the borrowing body must agree with.
    fn execute_reduce_cloning(
        reducer: &dyn Reducer,
        mut pairs: Vec<(String, String)>,
    ) -> Vec<(String, String)> {
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        let mut output = Vec::new();
        let mut i = 0;
        while i < pairs.len() {
            let mut j = i + 1;
            while j < pairs.len() && pairs[j].0 == pairs[i].0 {
                j += 1;
            }
            let values: Vec<&str> = pairs[i..j].iter().map(|(_, v)| v.as_str()).collect();
            reducer.reduce(&pairs[i].0, &values, &mut |k, v| {
                output.push((k.to_string(), v.to_string()))
            });
            i = j;
        }
        output
    }

    /// Joins a key's values in the order they arrive: a value lost,
    /// duplicated or reordered changes its output.
    struct Concat;

    impl Reducer for Concat {
        fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
            emit(key, &values.join(","));
        }
    }

    proptest::proptest! {
        #[test]
        fn moving_values_reduces_like_cloning_them(
            raw in proptest::collection::vec((0u8..6, 0u32..1000), 0..200),
        ) {
            let pairs: Vec<(String, String)> =
                raw.iter().map(|(k, v)| (format!("k{k}"), v.to_string())).collect();
            for reducer in [&WordCountJob as &dyn Reducer, &Concat] {
                proptest::prop_assert_eq!(
                    reduce_to_vec(reducer, &pairs),
                    execute_reduce_cloning(reducer, pairs.clone())
                );
            }
        }
    }

    #[test]
    fn slowstart_gate_bounds() {
        assert_eq!(slowstart_gate(0.25, 8), 2);
        assert_eq!(slowstart_gate(0.25, 1), 1);
        assert_eq!(slowstart_gate(0.0, 8), 0);
        assert_eq!(slowstart_gate(1.0, 8), 8);
        assert_eq!(slowstart_gate(2.0, 8), 8, "clamped to n_maps");
    }
}
