//! The three simulator workloads: their pinned configurations, their
//! inputs, and the loop that runs and checks them.
//!
//! Every value below is spelled out on top of `SimConfig::paper_testbed()`
//! and uses only the layer crates' public API, so a change to the
//! experiment harness (`pnats_bench::harness`) cannot move this instrument.
//!
//! A workload is a fixed list of *cycles*. A cycle is one generated input
//! run under each of the workload's schedulers (or, for `service_churn`,
//! at each of its arrival rates). The inputs of cycle `i` come from
//! `sub_seed(--seed, i)`, so one `--seed` always gives the same cycles; the
//! timed loop walks them round-robin until `--seconds` is used up, and
//! every cycle is run at least once.

use crate::drivers;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{mean, median, pct, ratio, sub_seed};
use crate::timed::{PlaceLedger, SinkLedger, TimedPlacer, TimedSink};
use crate::{Args, Outcome};
use pnats_baselines::{CouplingPlacer, FairDelayPlacer, FifoGreedyPlacer, RandomPlacer};
use pnats_core::faults::FaultPlan;
use pnats_core::placer::{SkipReason, TaskPlacer};
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_metrics::{jain_index, reduction_pct, Summary};
use pnats_obs::{InMemorySink, TraceSink};
use pnats_sim::config::{background_traffic, TopologyKind};
use pnats_sim::{check_report, DataLayout, JobInput, SimConfig, SimReport, Simulation, TaskKind};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
use pnats_workloads::{multi_tenant_poisson, scaled_batch, AppKind, ShuffleModel, TenantStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How often set-up is repeated in one run; `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// The warm-up run is the same whatever `--seed` says, so that `setup_s`
/// measures the set-up code and not how much work a seed's input is.
const WARMUP_SEED: u64 = 1;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SimKind {
    PaperShuffle,
    ScaleNominal,
    ServiceChurn,
}

/// The task-level schedulers the workloads run, with the knobs the
/// repository's experiments use.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sched {
    Probabilistic,
    Coupling,
    Fair,
    Fifo,
    Random,
}

impl Sched {
    const ALL: [Sched; 5] = [
        Sched::Probabilistic,
        Sched::Coupling,
        Sched::Fair,
        Sched::Fifo,
        Sched::Random,
    ];

    fn build(self, heartbeat_s: f64) -> Box<dyn TaskPlacer> {
        match self {
            Sched::Probabilistic => Box::new(ProbabilisticPlacer::paper()),
            Sched::Coupling => Box::new(CouplingPlacer::new(0.8, 0.4, 3, heartbeat_s)),
            Sched::Fair => Box::new(FairDelayPlacer::hadoop_defaults()),
            Sched::Fifo => Box::new(FifoGreedyPlacer),
            Sched::Random => Box::new(RandomPlacer),
        }
    }

    /// The name used in span and metric names.
    fn label(self) -> &'static str {
        match self {
            Sched::Probabilistic => "probabilistic",
            Sched::Coupling => "coupling",
            Sched::Fair => "fair",
            Sched::Fifo => "fifo",
            Sched::Random => "random",
        }
    }

    /// The layer whose code answers this scheduler's offers.
    fn place_span(self) -> &'static str {
        match self {
            Sched::Probabilistic => "core.place",
            _ => "baselines.place",
        }
    }
}

/// One simulation to run: a scheduler, a configuration and a job list.
pub struct Case {
    sched: Sched,
    cfg: SimConfig,
    inputs: Arc<Vec<JobInput>>,
    /// Route decisions and faults into an `InMemorySink`.
    sink: bool,
    /// Hold the report to `check_report`. The oracle's exactly-once laws
    /// scan every task record once per task, which at `scale_nominal`'s
    /// 60 000 tasks costs several times the run itself; that workload
    /// checks its (smaller) warm-up run and gates the timed runs on
    /// completion and bit-equal repetition instead.
    oracle: bool,
}

impl Case {
    fn tasks(&self) -> usize {
        self.inputs
            .iter()
            .map(|j| j.block_sizes.len() + j.n_reduces)
            .sum()
    }
}

pub struct SimWorkload {
    cycles: Vec<Vec<Case>>,
    /// A small fixed run of the same shape, executed once per set-up so
    /// that lazy initialisation and cache warming are paid before timing.
    warmup: Case,
}

/// The headline 60-node configuration of the completion-time experiments:
/// the paper's testbed in the cloud/NAS data regime (each job's replicas
/// confined to a 20 % ingest subset) with eight lanes of background
/// traffic, congestion-scaled costs, fluid network.
fn cloud_config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.n_nodes = 60;
    c.topology = TopologyKind::PalmettoSlice;
    c.map_slots = 4;
    c.reduce_slots = 2;
    c.replication = 2;
    c.map_rate_bps = 8e6;
    c.reduce_rate_bps = 60e6;
    c.ingest_fraction = 0.2;
    c.data_layout = DataLayout::IngestConfined;
    c.map_candidate_window = 32;
    c.reduce_candidate_window = 16;
    c.heartbeat_s = 1.0;
    c.network_condition = true;
    c.fluid_network = true;
    c.max_sim_time = 50_000.0;
    c.seed = seed;
    c.background = background_traffic(8, 8_000.0, c.n_nodes, seed.wrapping_add(999));
    c
}

/// `paper_shuffle`: the Table II Terasort batch (all ten jobs, task counts
/// and input sizes divided by `divisor`), closed batch, everything at t=0.
fn paper_shuffle(seed: u64, quick: bool) -> SimWorkload {
    let (n_cycles, divisor) = if quick { (1, 40) } else { (4, 8) };
    let inputs = Arc::new(JobInput::from_batch(&scaled_batch(
        AppKind::Terasort,
        10,
        divisor,
    )));
    let cycles = (0..n_cycles)
        .map(|i| {
            [Sched::Probabilistic, Sched::Coupling, Sched::Fair]
                .into_iter()
                .map(|sched| Case {
                    sched,
                    cfg: cloud_config(sub_seed(seed, i)),
                    inputs: inputs.clone(),
                    sink: false,
                    oracle: true,
                })
                .collect()
        })
        .collect();
    let warmup = Case {
        sched: Sched::Probabilistic,
        cfg: cloud_config(WARMUP_SEED),
        inputs: Arc::new(JobInput::from_batch(&scaled_batch(
            AppKind::Terasort,
            10,
            if quick { 80 } else { 16 },
        ))),
        sink: false,
        oracle: true,
    };
    SimWorkload { cycles, warmup }
}

/// The 1000-node throughput configuration: multi-rack, quiet network, raw
/// hop costs, nominal (contention-free) transfers, small candidate windows.
fn scale_config(seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.n_nodes = 1_000;
    c.topology = TopologyKind::MultiRack {
        racks: 25,
        per_rack: 40,
        uplink_bps: 10e9,
    };
    c.network_condition = false;
    c.fluid_network = false;
    c.map_candidate_window = 8;
    c.reduce_candidate_window = 4;
    c.max_sim_time = 1_000_000.0;
    c.seed = seed;
    c
}

/// `n_jobs` identical jobs of 992 maps (64 MiB blocks) + 8 reduces,
/// arriving one per simulated second.
fn scale_inputs(n_jobs: usize) -> Vec<JobInput> {
    (0..n_jobs)
        .map(|ji| JobInput {
            name: format!("scale{ji:04}"),
            submit: ji as f64,
            block_sizes: vec![64 << 20; 992],
            n_reduces: 8,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        })
        .collect()
}

fn scale_nominal(seed: u64, quick: bool) -> SimWorkload {
    let (n_cycles, n_jobs) = if quick { (1, 4) } else { (4, 60) };
    let inputs = Arc::new(scale_inputs(n_jobs));
    let cycles = (0..n_cycles)
        .map(|i| {
            [Sched::Probabilistic, Sched::Fifo, Sched::Random]
                .into_iter()
                .map(|sched| Case {
                    sched,
                    cfg: scale_config(sub_seed(seed, i)),
                    inputs: inputs.clone(),
                    sink: false,
                    oracle: false,
                })
                .collect()
        })
        .collect();
    let warmup = Case {
        sched: Sched::Probabilistic,
        cfg: scale_config(WARMUP_SEED),
        inputs: Arc::new(scale_inputs(if quick { 1 } else { 12 })),
        sink: false,
        oracle: true,
    };
    SimWorkload { cycles, warmup }
}

/// Jobs each tenant submits per run, and the divisor applied to their
/// Table II sizes.
const CHURN_JOBS_PER_TENANT: usize = 12;
const CHURN_DIVISOR: u32 = 16;
/// Mean Poisson gap per tenant stream, seconds: one rate the cluster
/// keeps up with and one at which a backlog builds while jobs arrive.
const CHURN_GAPS_S: [f64; 2] = [30.0, 4.0];

/// One service-mode run: three tenants (weights 3:2:1, gold guaranteed a
/// quarter of the map slots) with DWRR, admission control and preemption
/// on, open-loop Poisson arrivals, four seeded node crashes with recovery,
/// and decision tracing into memory.
///
/// Admission stays on the arrival path but its thresholds sit above what
/// these streams can reach, so no job is refused: the benchmark contract
/// asks for workloads on which no operation fails.
fn churn_case(seed: u64, mean_gap_s: f64, n_jobs: usize, divisor: u32) -> Case {
    let streams = [TenantStream {
        n_jobs,
        mean_gap_s,
        divisor,
    }; 3];
    let mut rng = SmallRng::seed_from_u64(seed ^ ((mean_gap_s as u64) << 8));
    let (batch, tags) = multi_tenant_poisson(&streams, &mut rng);
    let tenants = TenantSet::new(vec![
        TenantSpec::new("gold", 3.0).with_min_share(0.25),
        TenantSpec::new("silver", 2.0),
        TenantSpec::new("bronze", 1.0).with_queue_cap(n_jobs),
    ]);
    let mut tc = TenancyConfig::new(tenants, tags);
    tc.fairness = true;
    tc.admission = true;
    tc.preemption = true;
    tc.saturation_backlog = 64.0;
    tc.preempt_cooldown_s = 5.0;
    let mut cfg = cloud_config(seed);
    cfg.tenancy = Some(tc);
    cfg.faults = FaultPlan::with_random_crashes(4, cfg.n_nodes, (12.0, 100.0), Some(50.0), seed);
    Case {
        sched: Sched::Probabilistic,
        cfg,
        inputs: Arc::new(JobInput::from_batch(&batch)),
        sink: true,
        oracle: true,
    }
}

fn service_churn(seed: u64, quick: bool) -> SimWorkload {
    let (n_cycles, n_jobs, divisor) = if quick {
        (1, 3, 40)
    } else {
        (8, CHURN_JOBS_PER_TENANT, CHURN_DIVISOR)
    };
    let cycles = (0..n_cycles)
        .map(|i| {
            CHURN_GAPS_S
                .into_iter()
                .map(|gap| churn_case(sub_seed(seed, i), gap, n_jobs, divisor))
                .collect()
        })
        .collect();
    let warmup = churn_case(WARMUP_SEED, CHURN_GAPS_S[0], n_jobs, divisor);
    SimWorkload { cycles, warmup }
}

/// What one simulation run produced and cost.
struct CaseOut {
    new_s: f64,
    run_s: f64,
    /// `run_s` minus the time spent in the placer and the sink (traced
    /// runs only; equal to `run_s` otherwise).
    run_self_s: f64,
    oracle_s: f64,
    report: SimReport,
    place: PlaceLedger,
    sink: SinkLedger,
}

fn run_case(case: &Case, rec: &mut Recorder, traced: bool) -> Result<CaseOut, String> {
    let place_out = Arc::new(Mutex::new(PlaceLedger::default()));
    let sink_out = Arc::new(Mutex::new(SinkLedger::default()));
    let (sim, new_t) = rec.span("sim.new", |_| {
        let mut placer = case.sched.build(case.cfg.heartbeat_s);
        if traced {
            placer = Box::new(TimedPlacer::new(placer, place_out.clone()));
        }
        let mut sim = Simulation::new(case.cfg.clone(), placer);
        if case.sink {
            let mut sink: Box<dyn TraceSink> = Box::new(InMemorySink::unbounded());
            if traced {
                sink = Box::new(TimedSink::new(sink, sink_out.clone()));
            }
            sim = sim.with_trace(sink);
        }
        sim
    });
    let run_span = format!("sim.run.{}", case.sched.label());
    let ((report, place, sink), run_t) = rec.span(&run_span, |rec| {
        let report = sim.run(&case.inputs);
        // The run consumed the simulation, which dropped its placer and
        // sink: their tallies are in.
        let place = std::mem::take(&mut *place_out.lock().expect("placer ledger lock"));
        let sink = *sink_out.lock().expect("sink ledger lock");
        rec.fold(
            case.sched.place_span(),
            place.map_calls + place.reduce_calls,
            place.map_busy_ns + place.reduce_busy_ns,
        );
        rec.fold("obs.record", sink.record_calls, sink.record_busy_ns);
        rec.fold("obs.drain", u64::from(sink.drain_ns > 0), sink.drain_ns);
        (report, place, sink)
    });
    let mut oracle_s = 0.0;
    if case.oracle {
        let (verdict, t) = rec.span("sim.oracle_check", |_| check_report(&report, &case.inputs));
        verdict.map_err(|e| format!("oracle violation under {:?}: {e}", case.sched))?;
        oracle_s = t.secs;
    }
    Ok(CaseOut {
        new_s: new_t.secs,
        run_s: run_t.secs,
        run_self_s: run_t.self_secs,
        oracle_s,
        report,
        place,
        sink,
    })
}

/// Per-job finish times of a report, bit for bit, in job order.
fn finish_bits(report: &SimReport) -> Vec<u64> {
    let mut jobs: Vec<(usize, u64)> = report
        .trace
        .jobs
        .iter()
        .map(|j| (j.job, j.finished.to_bits()))
        .collect();
    jobs.sort_unstable();
    jobs.into_iter().map(|(_, bits)| bits).collect()
}

struct CycleOut {
    /// Seconds in `Simulation::new` + `Simulation::run`, summed over cases.
    busy_s: f64,
    /// Wall-clock seconds of the whole cycle, oracle and glue included.
    wall_s: f64,
    cases: Vec<CaseOut>,
}

fn run_cycle(cycle: &[Case], rec: &mut Recorder, traced: bool) -> Result<CycleOut, String> {
    let t = Instant::now();
    let cases = cycle
        .iter()
        .map(|c| run_case(c, rec, traced))
        .collect::<Result<Vec<_>, _>>()?;
    let busy_s = cases.iter().map(|c| c.new_s + c.run_s).sum();
    Ok(CycleOut {
        busy_s,
        wall_s: t.elapsed().as_secs_f64(),
        cases,
    })
}

fn build(kind: SimKind, seed: u64, quick: bool) -> SimWorkload {
    match kind {
        SimKind::PaperShuffle => paper_shuffle(seed, quick),
        SimKind::ScaleNominal => scale_nominal(seed, quick),
        SimKind::ServiceChurn => service_churn(seed, quick),
    }
}

/// Generate the inputs and run the warm-up; returns the workload and the
/// seconds spent in the generators.
fn setup(kind: SimKind, args: &Args, rec: &mut Recorder) -> Result<(SimWorkload, f64), String> {
    let (w, gen_t) = rec.span("workloads.gen", |_| build(kind, args.seed, args.quick));
    let warm = run_case(&w.warmup, rec, false)?;
    if !warm.report.all_completed() {
        return Err("warm-up run left jobs unfinished".to_string());
    }
    Ok((w, gen_t.secs))
}

/// Mean JCT of a report's finished jobs.
fn mean_jct(report: &SimReport) -> f64 {
    mean(
        &report
            .trace
            .jobs
            .iter()
            .map(|j| j.jct())
            .collect::<Vec<_>>(),
    )
}

/// Jain fairness index over weight-normalised map service (slot-seconds
/// per unit weight) of the tenants that received any.
fn service_jain(report: &SimReport, tc: &TenancyConfig) -> Option<f64> {
    let weights = tc.tenants.weights();
    let mut service = vec![0.0f64; weights.len()];
    for t in report.trace.tasks_of(TaskKind::Map) {
        service[tc.tenant_of(t.job)] += t.running_time();
    }
    let normalised: Vec<f64> = service
        .iter()
        .zip(&weights)
        .map(|(s, w)| s / w)
        .filter(|x| *x > 0.0)
        .collect();
    jain_index(&normalised)
}

/// Sums over the traced cycles; every `_s`, count and byte metric of the
/// ledger is reported as the mean per traced cycle.
#[derive(Default)]
struct Totals {
    cycles: u32,
    tasks: u64,
    new_s: f64,
    run_s: [f64; Sched::ALL.len()],
    run_self_s: f64,
    oracle_s: f64,
    offers: u64,
    sim_end_s: Vec<f64>,
    reexecuted_maps: u64,
    node_crashes: u64,
    retries: u64,
    place_busy_ns: [u64; Sched::ALL.len()],
    mean_jct_s: [Vec<f64>; Sched::ALL.len()],
    // The probabilistic placer (`core`).
    map_calls: u64,
    map_busy_ns: u64,
    reduce_calls: u64,
    reduce_busy_ns: u64,
    offer_ns: Vec<u32>,
    core_offers: u64,
    core_assigns: u64,
    cache_hits: u64,
    cache_misses: u64,
    pruned: u64,
    below_p_min: u64,
    // Service mode (`tenancy`, `obs`).
    sched_wall_s: f64,
    tenancy_offers: u64,
    submitted: u64,
    rejected: u64,
    preemptions: u64,
    jain: Vec<f64>,
    sink: SinkLedger,
    // The benchmark itself.
    plain_wall_s: f64,
    traced_wall_s: f64,
    top_level_s: f64,
}

impl Totals {
    fn add_case(&mut self, case: &Case, out: &CaseOut) {
        let s = case.sched as usize;
        let r = &out.report;
        self.tasks += case.tasks() as u64;
        self.new_s += out.new_s;
        self.run_s[s] += out.run_s;
        self.run_self_s += out.run_self_s;
        self.oracle_s += out.oracle_s;
        self.offers += r.counters.offers;
        self.sim_end_s.push(r.sim_end);
        self.reexecuted_maps += r.counters.reexecuted_maps;
        self.node_crashes += r.counters.node_crashes;
        self.retries += r.counters.retries;
        self.place_busy_ns[s] += out.place.map_busy_ns + out.place.reduce_busy_ns;
        self.mean_jct_s[s].push(mean_jct(r));
        if case.sched == Sched::Probabilistic {
            self.map_calls += out.place.map_calls;
            self.map_busy_ns += out.place.map_busy_ns;
            self.reduce_calls += out.place.reduce_calls;
            self.reduce_busy_ns += out.place.reduce_busy_ns;
            self.offer_ns.extend_from_slice(&out.place.offer_ns);
            self.core_offers += r.counters.offers;
            self.core_assigns += r.counters.assigns;
            self.cache_hits += r.counters.cache_hits;
            self.cache_misses += r.counters.cache_misses;
            self.pruned += r.counters.pruned;
            self.below_p_min += r.counters.skips[SkipReason::BelowPMin as usize];
        }
        if let Some(tc) = &case.cfg.tenancy {
            self.sched_wall_s += r.sched_wall_s;
            self.tenancy_offers += r.counters.offers;
            self.submitted += r.jobs_submitted as u64;
            self.rejected += r.jobs_rejected as u64;
            self.preemptions += r.counters.preemptions;
            self.jain.extend(service_jain(r, tc));
        }
        self.sink.record_calls += out.sink.record_calls;
        self.sink.record_busy_ns += out.sink.record_busy_ns;
        self.sink.drain_ns += out.sink.drain_ns;
        self.sink.trace_bytes += out.sink.trace_bytes;
    }

    fn emit(&self, m: &mut Metrics) {
        let n = f64::from(self.cycles.max(1));
        let per_cycle = |x: f64| x / n;
        let secs = |ns: u64| ns as f64 * 1e-9 / n;
        m.set("sim.new_s", per_cycle(self.new_s));
        for sched in Sched::ALL {
            let run_s = per_cycle(self.run_s[sched as usize]);
            m.set(&format!("sim.run_s.{}", sched.label()), run_s);
        }
        m.set("sim.run_self_s", per_cycle(self.run_self_s));
        m.set(
            "sim.self_us_per_task",
            ratio(self.run_self_s * 1e6, self.tasks as f64),
        );
        m.set("sim.offers", per_cycle(self.offers as f64));
        m.set("sim.sim_end_s", mean(&self.sim_end_s));
        m.set(
            "sim.reexecuted_maps",
            per_cycle(self.reexecuted_maps as f64),
        );
        m.set("sim.node_crashes", per_cycle(self.node_crashes as f64));
        m.set("sim.retries", per_cycle(self.retries as f64));
        m.set("sim.oracle_check_s", per_cycle(self.oracle_s));

        m.set("core.place_map_calls", per_cycle(self.map_calls as f64));
        m.set("core.place_map_busy_s", secs(self.map_busy_ns));
        m.set(
            "core.place_reduce_calls",
            per_cycle(self.reduce_calls as f64),
        );
        m.set("core.place_reduce_busy_s", secs(self.reduce_busy_ns));
        let offer_us: Vec<f64> = self
            .offer_ns
            .iter()
            .map(|&ns| f64::from(ns) * 1e-3)
            .collect();
        m.set("core.offer_us_p50", pct(&offer_us, 0.50));
        m.set("core.offer_us_p99", pct(&offer_us, 0.99));
        let core_offers = self.core_offers as f64;
        m.set(
            "core.assign_ratio",
            ratio(self.core_assigns as f64, core_offers),
        );
        m.set(
            "core.cache_hit_ratio",
            ratio(
                self.cache_hits as f64,
                (self.cache_hits + self.cache_misses) as f64,
            ),
        );
        m.set(
            "core.pruned_per_offer",
            ratio(self.pruned as f64, core_offers),
        );
        m.set(
            "core.skip_below_p_min_frac",
            ratio(self.below_p_min as f64, core_offers),
        );
        let jct = |s: Sched| mean(&self.mean_jct_s[s as usize]);
        m.set("core.mean_jct_s", jct(Sched::Probabilistic));
        m.set(
            "core.jct_gain_vs_coupling_pct",
            reduction_pct(jct(Sched::Coupling), jct(Sched::Probabilistic)),
        );
        m.set(
            "core.jct_gain_vs_fair_pct",
            reduction_pct(jct(Sched::Fair), jct(Sched::Probabilistic)),
        );

        for sched in [Sched::Coupling, Sched::Fair, Sched::Fifo, Sched::Random] {
            let busy_s = secs(self.place_busy_ns[sched as usize]);
            m.set(&format!("baselines.{}.place_busy_s", sched.label()), busy_s);
        }
        m.set("baselines.coupling.mean_jct_s", jct(Sched::Coupling));
        m.set("baselines.fair.mean_jct_s", jct(Sched::Fair));

        m.set("tenancy.sched_wall_s", per_cycle(self.sched_wall_s));
        m.set(
            "tenancy.offer_us",
            ratio(self.sched_wall_s * 1e6, self.tenancy_offers as f64),
        );
        m.set(
            "tenancy.rejected_frac",
            ratio(self.rejected as f64, self.submitted as f64),
        );
        m.set("tenancy.preemptions", per_cycle(self.preemptions as f64));
        m.set("tenancy.jain_index", mean(&self.jain));

        m.set("obs.record_calls", per_cycle(self.sink.record_calls as f64));
        m.set("obs.record_busy_s", secs(self.sink.record_busy_ns));
        m.set("obs.drain_s", secs(self.sink.drain_ns));
        m.set("obs.trace_bytes", per_cycle(self.sink.trace_bytes as f64));

        m.set("bench.wall_s", per_cycle(self.plain_wall_s));
        m.set("bench.traced_wall_s", per_cycle(self.traced_wall_s));
        m.set(
            "bench.trace_overhead_frac",
            ratio(self.traced_wall_s - self.plain_wall_s, self.plain_wall_s),
        );
        m.set(
            "bench.span_coverage_frac",
            ratio(self.top_level_s, self.traced_wall_s),
        );
    }
}

/// Run one simulator workload: repeated set-up, the timed loop, the gates.
pub fn run(kind: SimKind, args: &Args, rec: &mut Recorder) -> Result<Outcome, String> {
    let reps = if args.quick { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut workload = None;
    for _ in 0..reps {
        let (res, t) = rec.span("bench.setup", |rec| setup(kind, args, rec));
        let (w, g) = res?;
        setup_s.push(t.secs);
        gen_s.push(g);
        workload = Some(w);
    }
    let w = workload.expect("set-up ran at least once");
    let k = w.cycles.len();

    // Finish times first seen for each (cycle, case): every later run of
    // the same input, traced or not, must reproduce them bit for bit.
    let mut first_bits: Vec<Option<Vec<Vec<u64>>>> = vec![None; k];
    let mut same_as_first = |i: usize, out: &CycleOut| -> Result<(), String> {
        let bits: Vec<Vec<u64>> = out.cases.iter().map(|c| finish_bits(&c.report)).collect();
        match &first_bits[i] {
            None => first_bits[i] = Some(bits),
            Some(first) if *first == bits => {}
            Some(_) => {
                return Err(format!(
                    "cycle {i}: per-job finish times differ between runs"
                ))
            }
        }
        Ok(())
    };

    // The busy seconds of each input's plain runs, and the JCTs of each
    // probabilistic run of the first pass.
    let mut busy_s: Vec<Vec<f64>> = vec![Vec::new(); k];
    let mut jcts: Vec<Vec<f64>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut totals = Totals::default();
    let min_cycles = if args.trace { k.min(2) } else { k };
    let timed = Instant::now();
    let mut done = 0usize;
    while done < min_cycles || timed.elapsed().as_secs_f64() < args.seconds {
        let i = done % k;
        let cycle = &w.cycles[i];
        rec.next_cycle();
        // Alternate which of the pair goes first, so neither pass always
        // runs on the warmer caches.
        let traced_first = args.trace && done % 2 == 1;
        let mut traced_out = None;
        if traced_first {
            traced_out = Some(run_traced_cycle(cycle, rec, &mut totals)?);
        }
        rec.set_enabled(false);
        let plain = run_cycle(cycle, rec, false)?;
        if args.trace && !traced_first {
            traced_out = Some(run_traced_cycle(cycle, rec, &mut totals)?);
        }
        same_as_first(i, &plain)?;
        if let Some(t) = &traced_out {
            same_as_first(i, t)?;
            totals.plain_wall_s += plain.wall_s;
        }
        busy_s[i].push(plain.busy_s);
        if done < k {
            for (case, out) in cycle.iter().zip(&plain.cases) {
                attempted += out.report.jobs_submitted as u64;
                failed += (out.report.jobs_submitted - out.report.jobs_completed) as u64;
                if case.sched == Sched::Probabilistic {
                    jcts.push(out.report.trace.jobs.iter().map(|j| j.jct()).collect());
                }
            }
        }
        done += 1;
    }

    // Inputs differ in how much work they are (the seed decides), so each
    // input counts once: throughput is all inputs' tasks over all inputs'
    // (median) busy time, and a JCT percentile is taken per run and
    // averaged over the runs. Simulated times carry no measurement noise;
    // the averaging is over seeds only.
    let mut m = Metrics::default();
    let (_, summarise_t) = rec.span("metrics.summarise", |_| {
        let over_runs = |p: f64| mean(&jcts.iter().map(|j| pct(j, p)).collect::<Vec<_>>());
        m.set("jct_p50_s", over_runs(0.50));
        m.set("jct_p90_s", over_runs(0.90));
        Summary::of(&jcts.concat())
    });
    let (tasks, busy) = w
        .cycles
        .iter()
        .zip(&busy_s)
        .filter(|(_, b)| !b.is_empty())
        .fold((0usize, 0.0), |(t, s), (cycle, b)| {
            (
                t + cycle.iter().map(Case::tasks).sum::<usize>(),
                s + median(b),
            )
        });
    m.set("setup_s", median(&setup_s));
    m.set("tasks_per_s", tasks as f64 / busy);
    if args.trace {
        totals.emit(&mut m);
        m.set("workloads.gen_s", median(&gen_s));
        m.set("metrics.summarise_s", summarise_t.secs);
        rec.set_enabled(true);
        drivers::sim_layers(
            kind,
            &w.cycles[0][0].cfg,
            &w.cycles[0][0].inputs,
            args,
            rec,
            &mut m,
        );
    }
    eprintln!(
        "{kind:?}: {done} cycles of {k} inputs, {} jobs, {:.1} s timed",
        jcts.concat().len(),
        timed.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: m,
    })
}

/// Run `cycle` with the decorators and the recorder on, and book it.
fn run_traced_cycle(
    cycle: &[Case],
    rec: &mut Recorder,
    totals: &mut Totals,
) -> Result<CycleOut, String> {
    rec.set_enabled(true);
    let top_before = rec.top_level_ns();
    let out = run_cycle(cycle, rec, true)?;
    totals.top_level_s += (rec.top_level_ns() - top_before) as f64 * 1e-9;
    totals.traced_wall_s += out.wall_s;
    totals.cycles += 1;
    for (case, c) in cycle.iter().zip(&out.cases) {
        totals.add_case(case, c);
    }
    rec.set_enabled(false);
    Ok(out)
}
