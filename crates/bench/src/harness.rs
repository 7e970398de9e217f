//! Shared experiment machinery: standard configs, scheduler zoo, runs.
//!
//! ## The parallel run matrix
//!
//! Every experiment is a matrix of **independent** simulation runs — one
//! per `(scheduler, config, batch)` cell — whose results are only combined
//! at print time. [`parallel_map`] executes such a matrix across cores
//! with plain `std::thread::scope` workers (the `repro` binary's
//! [`Ctx::run_matrix`](crate::repro::Ctx::run_matrix) is the usual
//! caller): each run builds its placer from a [`PlacerSpec`] *inside* its
//! worker and the simulation seeds its own `SmallRng` from `cfg.seed`, so
//! no RNG stream is shared and results are identical to a serial execution
//! regardless of thread interleaving. Results come back in matrix order;
//! `PNATS_THREADS=1` forces the serial path (and any other value pins the
//! worker count).

use pnats_baselines::{
    CouplingPlacer, FairDelayPlacer, FifoGreedyPlacer, LartsPlacer, MinCostPlacer, QuincyPlacer,
    RandomPlacer,
};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::TaskPlacer;
use pnats_core::prob::ProbabilityModel;
use pnats_core::prob_sched::{ProbConfig, ProbabilisticPlacer};
use pnats_obs::InMemorySink;
use pnats_sim::config::background_traffic;
use pnats_sim::{DataLayout, JobInput, SimConfig, SimReport, Simulation};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The headline configuration for the completion-time experiments
/// (Figures 4, 5, 6): the paper's testbed scale (60 nodes, 4 map + 2
/// reduce slots, replication 2, one logical rack over three oversubscribed
/// switches) in the **cloud/NAS data regime** its introduction motivates —
/// each job's replicas confined to a ~20 % ingest subset — plus eight lanes
/// of background traffic standing in for Palmetto's co-tenants.
pub fn cloud_config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.reduce_rate_bps = 60e6;
    c.map_rate_bps = 8e6;
    c.ingest_fraction = 0.2;
    c.data_layout = DataLayout::IngestConfined;
    c.map_candidate_window = 32;
    c.heartbeat_s = 1.0;
    c.max_sim_time = 50_000.0;
    c.seed = seed;
    c.background = background_traffic(8, 8_000.0, c.n_nodes, 999 + seed);
    c
}

/// The stock-HDFS configuration: rack-aware replica placement over the
/// whole cluster, quiet network. Used for the locality experiments
/// (Table III, Figure 7) — matching the paper's statement that "the
/// generated files are stored in slave nodes with the replication factor
/// being set to 2" — and as a sensitivity point for the JCT experiments.
pub fn hdfs_config(seed: u64) -> SimConfig {
    let mut c = cloud_config(seed);
    c.data_layout = DataLayout::HdfsRackAware;
    c.background.clear();
    c
}

/// The schedulers the experiments compare.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SchedulerKind {
    /// The paper's probabilistic network-aware scheduler (`P_min = 0.4`).
    Probabilistic,
    /// Coupling Scheduler (Tan et al.).
    Coupling,
    /// Hadoop Fair Scheduler with delay scheduling.
    Fair,
    /// Deterministic fine-grained min-cost (ablation).
    MinCost,
    /// FIFO / greedy locality.
    Fifo,
    /// LARTS-style reduce-locality scheduler.
    Larts,
    /// Quincy-style global min-cost matching (expensive per decision).
    Quincy,
    /// Uniform random placement (floor).
    Random,
}

/// The paper's three-way comparison.
pub const PAPER_SCHEDULERS: [SchedulerKind; 3] = [
    SchedulerKind::Probabilistic,
    SchedulerKind::Coupling,
    SchedulerKind::Fair,
];

/// Everything, for the extended comparisons.
pub const ALL_SCHEDULERS: [SchedulerKind; 8] = [
    SchedulerKind::Probabilistic,
    SchedulerKind::Coupling,
    SchedulerKind::Fair,
    SchedulerKind::MinCost,
    SchedulerKind::Fifo,
    SchedulerKind::Larts,
    SchedulerKind::Quincy,
    SchedulerKind::Random,
];

impl SchedulerKind {
    /// Display name matching the paper's terminology.
    pub fn label(self) -> &'static str {
        match self {
            SchedulerKind::Probabilistic => "probabilistic",
            SchedulerKind::Coupling => "coupling",
            SchedulerKind::Fair => "fair",
            SchedulerKind::MinCost => "mincost",
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Larts => "larts",
            SchedulerKind::Quincy => "quincy",
            SchedulerKind::Random => "random",
        }
    }
}

/// A scheduler description that can cross threads: `Copy + Send`, turned
/// into a live [`TaskPlacer`] inside the worker that runs it.
#[derive(Clone, Copy, Debug)]
pub enum PlacerSpec {
    /// One of the standard zoo, paper defaults.
    Kind(SchedulerKind),
    /// The probabilistic scheduler with explicit knobs (for sweeps).
    Probabilistic {
        /// `P_min` threshold.
        p_min: f64,
        /// Probability model.
        model: ProbabilityModel,
        /// Intermediate-size estimator.
        estimator: IntermediateEstimator,
    },
}

impl PlacerSpec {
    /// Instantiate the placer (heartbeat-dependent baselines read `cfg`).
    pub fn build(self, cfg: &SimConfig) -> Box<dyn TaskPlacer> {
        match self {
            PlacerSpec::Kind(kind) => make_placer(kind, cfg),
            PlacerSpec::Probabilistic { p_min, model, estimator } => {
                make_probabilistic(p_min, model, estimator)
            }
        }
    }
}

/// One cell of an experiment's run matrix: everything a worker thread
/// needs to execute the simulation from scratch.
#[derive(Clone, Debug)]
pub struct Run {
    /// Which scheduler to instantiate.
    pub placer: PlacerSpec,
    /// Full simulation configuration (carries the run's RNG seed).
    pub cfg: SimConfig,
    /// The job batch to submit.
    pub inputs: Vec<JobInput>,
    /// Record the run's decision trace into an in-memory sink (drained
    /// into [`SimReport::trace_jsonl`]). Counters accumulate either way.
    pub trace: bool,
}

impl Run {
    /// A run of `kind` with its paper-default knobs.
    pub fn new(kind: SchedulerKind, cfg: SimConfig, inputs: Vec<JobInput>) -> Self {
        Self::with_spec(PlacerSpec::Kind(kind), cfg, inputs)
    }

    /// A run with an explicit [`PlacerSpec`] (for sweeps).
    pub fn with_spec(placer: PlacerSpec, cfg: SimConfig, inputs: Vec<JobInput>) -> Self {
        Self { placer, cfg, inputs, trace: false }
    }

    /// Enable decision tracing for this run.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Execute the cell (callable from any thread).
    pub fn execute(self) -> SimReport {
        let placer = self.placer.build(&self.cfg);
        let mut sim = Simulation::new(self.cfg, placer);
        if self.trace {
            sim = sim.with_trace(Box::new(InMemorySink::unbounded()));
        }
        sim.run(&self.inputs)
    }
}

/// Default worker count for a run matrix: `PNATS_THREADS` when set
/// (minimum 1; `1` disables parallelism entirely), otherwise the machine's
/// available parallelism.
pub fn harness_threads() -> usize {
    std::env::var("PNATS_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Order-preserving parallel map over owned items.
///
/// Workers claim items by atomically incrementing a shared index, so there
/// is no per-item locking on the hot path and no work-stealing machinery;
/// results land in their item's slot, preserving input order exactly. With
/// `threads <= 1` (or a single item) this degenerates to a plain serial
/// loop on the calling thread.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("item claimed once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

/// The decision-trace output path requested via the `PNATS_TRACE`
/// environment variable, if any. When set,
/// [`Ctx::run_matrix`](crate::repro::Ctx::run_matrix) traces every run and
/// writes the concatenated JSONL (matrix order, so byte-identical across
/// thread counts) to this path.
pub fn trace_path() -> Option<String> {
    std::env::var("PNATS_TRACE").ok().filter(|s| !s.is_empty())
}

/// Instantiate a fresh placer of the given kind, with heartbeat-dependent
/// baselines matched to `cfg`.
pub fn make_placer(kind: SchedulerKind, cfg: &SimConfig) -> Box<dyn TaskPlacer> {
    match kind {
        SchedulerKind::Probabilistic => Box::new(ProbabilisticPlacer::paper()),
        SchedulerKind::Coupling => Box::new(CouplingPlacer::paper_at(cfg.heartbeat_s)),
        SchedulerKind::Fair => Box::new(FairDelayPlacer::hadoop_defaults()),
        SchedulerKind::MinCost => Box::new(MinCostPlacer::new()),
        SchedulerKind::Fifo => Box::new(FifoGreedyPlacer),
        SchedulerKind::Larts => Box::new(LartsPlacer::default()),
        SchedulerKind::Quincy => Box::new(QuincyPlacer),
        SchedulerKind::Random => Box::new(RandomPlacer),
    }
}

/// A probabilistic placer with a custom configuration (for sweeps).
fn make_probabilistic(p_min: f64, model: ProbabilityModel, est: IntermediateEstimator) -> Box<dyn TaskPlacer> {
    Box::new(ProbabilisticPlacer::new(ProbConfig { p_min, model, estimator: est }))
}

/// Mean job completion time of a report (seconds).
pub fn mean_jct(report: &SimReport) -> f64 {
    let jobs = &report.trace.jobs;
    if jobs.is_empty() {
        return f64::NAN;
    }
    jobs.iter().map(|j| j.jct()).sum::<f64>() / jobs.len() as f64
}

/// Per-job completion times keyed by job name (for paired reductions —
/// Figure 5 compares the *same* job across schedulers).
pub fn jct_by_name(report: &SimReport) -> Vec<(String, f64)> {
    let mut v: Vec<(String, f64)> = report
        .trace
        .jobs
        .iter()
        .map(|j| (j.name.clone(), j.jct()))
        .collect();
    v.sort_by(|a, b| a.0.cmp(&b.0));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_sim::TaskKind;
    use pnats_workloads::AppKind;

    /// A fast, shrunken variant of the cloud config for harness tests.
    fn mini_cloud(seed: u64) -> SimConfig {
        let mut c = cloud_config(seed);
        c.n_nodes = 8;
        c.background = background_traffic(2, 500.0, 8, seed);
        c
    }

    #[test]
    fn standard_configs_are_paper_scale() {
        let c = cloud_config(1);
        assert_eq!(c.n_nodes, 60);
        assert_eq!(c.data_layout, DataLayout::IngestConfined);
        assert!(!c.background.is_empty());
        let h = hdfs_config(1);
        assert_eq!(h.data_layout, DataLayout::HdfsRackAware);
        assert!(h.background.is_empty());
    }

    #[test]
    fn all_schedulers_instantiate_and_label_uniquely() {
        let cfg = cloud_config(1);
        let mut labels: Vec<&str> = ALL_SCHEDULERS
            .iter()
            .map(|k| {
                let p = make_placer(*k, &cfg);
                assert_eq!(p.name(), k.label());
                k.label()
            })
            .collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), ALL_SCHEDULERS.len());
    }

    #[test]
    fn mini_batch_runs_under_every_scheduler() {
        use pnats_workloads::scaled_batch;
        for kind in ALL_SCHEDULERS {
            let cfg = mini_cloud(7);
            let inputs = JobInput::from_batch(&scaled_batch(AppKind::Grep, 2, 20));
            let placer = make_placer(kind, &cfg);
            let r = Simulation::new(cfg, placer).run(&inputs);
            assert!(r.all_completed(), "{kind:?} failed to finish");
            assert!(r.trace.tasks_of(TaskKind::Map).count() > 0);
        }
    }

    #[test]
    fn parallel_map_preserves_order_and_items() {
        let items: Vec<u64> = (0..100).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7, 64] {
            assert_eq!(parallel_map(items.clone(), threads, |x| x * x), expect, "{threads} threads");
        }
        assert_eq!(parallel_map(Vec::<u64>::new(), 4, |x| x), Vec::<u64>::new());
    }

    #[test]
    fn run_matrix_matches_serial_execution() {
        use pnats_workloads::scaled_batch;
        // The same matrix executed serially on the calling thread and via
        // the multi-threaded path must produce identical reports: every
        // run owns its seeded RNG, so interleaving cannot matter.
        let mk_runs = || -> Vec<Run> {
            let mut runs = Vec::new();
            for (i, kind) in [SchedulerKind::Probabilistic, SchedulerKind::Fair].iter().enumerate()
            {
                for (j, app) in [AppKind::Grep, AppKind::Wordcount].iter().enumerate() {
                    runs.push(Run::new(
                        *kind,
                        mini_cloud(10 + (2 * i + j) as u64),
                        JobInput::from_batch(&scaled_batch(*app, 2, 20)),
                    ));
                }
            }
            runs.push(Run::with_spec(
                PlacerSpec::Probabilistic {
                    p_min: 0.2,
                    model: ProbabilityModel::Sigmoid,
                    estimator: IntermediateEstimator::CurrentSize,
                },
                mini_cloud(99),
                JobInput::from_batch(&scaled_batch(AppKind::Terasort, 2, 20)),
            ));
            runs
        };
        let serial: Vec<SimReport> = mk_runs().into_iter().map(Run::execute).collect();
        let parallel = parallel_map(mk_runs(), 4, Run::execute);
        assert_eq!(serial.len(), parallel.len());
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            assert_eq!(s.jobs_completed, p.jobs_completed, "run {i}");
            assert_eq!(mean_jct(s).to_bits(), mean_jct(p).to_bits(), "run {i}: JCTs diverged");
            assert_eq!(s.trace.makespan().to_bits(), p.trace.makespan().to_bits(), "run {i}");
            assert_eq!(jct_by_name(s), jct_by_name(p), "run {i}: per-job times diverged");
        }
    }

    #[test]
    fn harness_threads_is_positive() {
        assert!(harness_threads() >= 1);
    }

    #[test]
    fn jct_by_name_is_sorted_and_complete() {
        use pnats_workloads::scaled_batch;
        let cfg = mini_cloud(3);
        let inputs = JobInput::from_batch(&scaled_batch(AppKind::Wordcount, 3, 20));
        let placer = make_placer(SchedulerKind::Fifo, &cfg);
        let r = Simulation::new(cfg, placer).run(&inputs);
        let v = jct_by_name(&r);
        assert_eq!(v.len(), 3);
        assert!(v.windows(2).all(|w| w[0].0 <= w[1].0));
    }
}
