//! Allocation budget of a simulation run, counted exactly.
//!
//! One nominal-engine run in the shape of the benchmark's `scale_nominal`
//! workload, shrunk: 200 nodes in 5 racks, 4 jobs of 96 maps plus 8
//! reduces, the probabilistic placer. A counting global allocator tallies
//! every allocation and reallocation the test thread makes from
//! `Simulation::new` to the end of `run`, and the test holds the count per
//! task to a budget. The simulation is deterministic, so the count is too:
//! unlike a timing, it does not move with the host.
//!
//! The steady state allocates nothing per map offer, per reduce offer, per
//! transfer reap or per shuffle receive; what remains is the run's set-up
//! (job tables, per-map output weights, replica lists, the event heap's
//! growth) and the trace. Putting back the per-offer candidate `Vec` read
//! 18.6 per task, the `Vec` a reap returned 14.6.
//!
//! Debug builds rebuild both demand indices before every free slot (the
//! runner's `audit_demand`), which allocates, so the test counts only in
//! an optimised build: `cargo test --release -p pnats-sim --test
//! alloc_budget`.

use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_sim::{JobInput, SimConfig, Simulation, TopologyKind};
use pnats_workloads::{AppKind, ShuffleModel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations and reallocations per task the run may make: 8 % above the
/// 6.92 (2 878 in all) this run makes. Before offers, reaps and shuffle
/// receives stopped allocating it made 40.9.
const BUDGET_PER_TASK: f64 = 7.5;

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

#[test]
#[cfg_attr(debug_assertions, ignore = "debug audits allocate per free slot; run with --release")]
fn a_nominal_run_allocates_within_budget() {
    let mut cfg = SimConfig::paper_testbed();
    cfg.n_nodes = 200;
    cfg.topology = TopologyKind::MultiRack { racks: 5, per_rack: 40, uplink_bps: 10e9 };
    cfg.network_condition = false;
    cfg.fluid_network = false;
    cfg.map_candidate_window = 8;
    cfg.reduce_candidate_window = 4;
    let inputs: Vec<JobInput> = (0..4)
        .map(|ji| JobInput {
            name: format!("budget{ji}"),
            submit: ji as f64,
            block_sizes: vec![64 << 20; 96],
            n_reduces: 8,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        })
        .collect();
    let tasks: usize = inputs.iter().map(|j| j.block_sizes.len() + j.n_reduces).sum();

    let (report, allocs) = counted(|| {
        Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs)
    });

    assert!(report.all_completed(), "the run finishes every job");
    assert_eq!(report.trace.tasks.len(), tasks, "one record per task");
    let per_task = allocs as f64 / tasks as f64;
    eprintln!(
        "nominal run: {allocs} allocations over {tasks} tasks, {per_task:.2} per task \
         (budget {BUDGET_PER_TASK})"
    );
    assert!(
        per_task <= BUDGET_PER_TASK,
        "{per_task:.2} allocations per task exceed the budget of {BUDGET_PER_TASK}"
    );
}
