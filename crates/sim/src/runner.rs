//! The simulation driver: event loop, heartbeat scheduling, task lifecycle.
//!
//! ## How a run unfolds
//!
//! 1. Blocks of every job are placed on nodes by the configured replication
//!    policy (HDFS rack-aware, factor 2 by default).
//! 2. Nodes heartbeat every [`SimConfig::heartbeat_s`] seconds (staggered).
//!    On each heartbeat the JobTracker fills the node's free slots: jobs
//!    are visited in fair-share order (fewest running tasks first — the
//!    paper keeps Hadoop's Fair Scheduler at the job level) and the
//!    pluggable [`TaskPlacer`] answers each slot offer.
//! 3. Placed maps fetch their block (a network flow if remote), compute,
//!    and on completion push shuffle segments toward running reduces.
//!    Placed reduces copy finished map outputs with bounded parallelism,
//!    then merge+reduce once the job's map phase is complete.
//! 4. Completed transfers feed the rate monitor; when
//!    [`SimConfig::network_condition`] is set, the scheduler's cost matrix
//!    is the congestion-scaled variant of §II-B3, refreshed every second.
//!
//! The run ends when every job finishes (or `max_sim_time` passes — the
//! escape hatch that detects `P_min` values so high the cluster starves,
//! which is how the paper's §III selected `P_min = 0.4`).

use crate::config::{JobInput, SimConfig};
use crate::events::{EventKind, EventQueue};
use crate::freeset::FreeSet;
use crate::service::{TenancyState, TenantRunStats};
use crate::state::{JobState, MapPhase, NodeState, ReducePhase, ReduceWindow, SourceFold};
use crate::trace::{JobRecord, TaskKind, TaskRecord, Trace};
use crate::transfers::{Completion, Engine, NominalTransfers, RateSource, TransferTag, Transfers};
use pnats_core::context::{slowstart_gate, MapCandidate, MapSchedContext, ReduceSchedContext};
use pnats_core::costidx::CostClasses;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_core::types::JobId;
use pnats_dfs::{RackAware, ReplicaPlacement};
use pnats_metrics::LocalityClass;
use pnats_obs::{DecisionObserver, FaultKind, FaultRecord, SchedCounters, TraceSink};
use pnats_tenancy::AdmissionDecision;
use pnats_net::{ClassedDistance, ClusterLayout, DistanceMatrix, NodeId, PathCost, RateMonitor};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

/// The §II-B3 network-condition signal: completed transfers feed
/// `monitor`, and once per heartbeat interval `matrix` is rebuilt as `base`
/// scaled by the observed congestion.
struct Congestion {
    monitor: RateMonitor,
    /// Dense hop matrix the snapshots scale.
    base: DistanceMatrix,
    /// The current snapshot: the scheduler's cost metric.
    matrix: DistanceMatrix,
    /// Simulated time `matrix` was taken at.
    taken_t: f64,
}

/// The metric the scheduler costs placements with: the congestion-scaled
/// snapshot when §II-B3 is on, the hop metric otherwise. A free function
/// over the two fields so callers keep disjoint borrows of the rest of
/// [`Simulation`] (`place_map` needs `&mut placer` and `&mut rng`).
fn sched_metric<'a>(
    congestion: &'a Option<Congestion>,
    hops: &'a ClassedDistance,
) -> &'a dyn PathCost {
    match congestion {
        Some(c) => &c.matrix,
        None => hops,
    }
}

/// Half-range of the per-node speed factor: nodes run uniformly within
/// ±15 % of nominal, before `SimConfig::slow_nodes` overrides.
const NODE_SPEED_SPREAD: f64 = 0.15;
/// Half-range of the per-task duration jitter (map compute, backup, merge).
const TASK_JITTER: f64 = 0.10;
/// Concurrent shuffle fetches per reduce task (Hadoop's
/// `mapred.reduce.parallel.copies`).
const PARALLEL_COPIES: usize = 4;
/// Half-range of the per-map partition-weight noise, which makes `I_jf`
/// vary per map as real key distributions do.
const PARTITION_NOISE: f64 = 0.5;

/// A uniform draw from `1 ± half_range`.
fn jitter(rng: &mut SmallRng, half_range: f64) -> f64 {
    1.0 + half_range * (rng.gen::<f64>() * 2.0 - 1.0)
}

/// The jobs that want a slot of one kind, partitioned by tenant in
/// service mode (one partition otherwise).
#[derive(Debug, PartialEq)]
struct DemandIndex {
    /// Per partition, `(running tasks, job)` of every job that wants a
    /// slot: the first key is the partition's head of line.
    heads: Vec<BTreeSet<(usize, usize)>>,
    /// Per partition, running tasks summed over all its jobs.
    held: Vec<usize>,
    /// Each job's last `(running, wants)`.
    of: Vec<(usize, bool)>,
}

impl DemandIndex {
    fn new(partitions: usize, jobs: usize) -> Self {
        Self {
            heads: vec![BTreeSet::new(); partitions],
            held: vec![0; partitions],
            of: vec![(0, false); jobs],
        }
    }

    /// Record job `job` of partition `t` as running `running` tasks and
    /// wanting a slot or not; true iff that emptied the partition.
    fn set(&mut self, t: usize, job: usize, running: usize, wants: bool) -> bool {
        let (was_running, wanted) = std::mem::replace(&mut self.of[job], (running, wants));
        if (was_running, wanted) == (running, wants) {
            return false;
        }
        self.held[t] = self.held[t] + running - was_running;
        let part = &mut self.heads[t];
        if wanted {
            part.remove(&(was_running, job));
        }
        if wants {
            part.insert((running, job));
        }
        wanted && !wants && part.is_empty()
    }
}

/// Buffers the per-offer and per-event paths refill instead of allocating.
/// Of `map_cands`, the first `window.len()` are the offer's candidates; the
/// rest keep their `replicas` for a longer window.
#[derive(Default)]
struct Scratch {
    reduce_window: ReduceWindow,
    window: Vec<usize>,
    map_cands: Vec<MapCandidate>,
    tenants: Vec<usize>,
    reduce_order: Vec<(usize, usize)>,
    reaped: Vec<Completion>,
    fold: SourceFold,
}

/// The outcome of a simulation run.
pub struct SimReport {
    /// Task-level scheduler that produced it.
    pub scheduler: String,
    /// Full execution trace.
    pub trace: Trace,
    /// Simulated time at which the run ended.
    pub sim_end: f64,
    /// Jobs submitted.
    pub jobs_submitted: usize,
    /// Jobs that finished before `max_sim_time`.
    pub jobs_completed: usize,
    /// Jobs aborted because a task exhausted its transient-retry budget.
    pub jobs_failed: usize,
    /// Every fault the run injected or reacted to (crashes, recoveries,
    /// invalidations, retries), in simulation-time order. Empty when
    /// [`SimConfig::faults`] is [`pnats_core::FaultPlan::none`].
    pub faults: Vec<FaultRecord>,
    /// Decision counters for the whole run (offers, assigns, skips by
    /// reason, plus the probabilistic placer's prune tally).
    pub counters: SchedCounters,
    /// The decision trace as JSONL, when the run's sink buffers one in
    /// memory (see [`Simulation::with_trace`]); `None` for the default
    /// [`pnats_obs::NullSink`] and for file-backed sinks.
    pub trace_jsonl: Option<String>,
    /// Jobs turned away by admission control (service mode only; these
    /// are neither completed nor failed). Always 0 without
    /// [`SimConfig::tenancy`].
    pub jobs_rejected: usize,
    /// Per-tenant service tallies, aligned with the tenancy config's
    /// tenant ids. Empty without [`SimConfig::tenancy`].
    pub tenants: Vec<TenantRunStats>,
    /// Wall-clock seconds this process spent inside `schedule_node` —
    /// the scheduler-decision latency the service-mode bench reports.
    /// Only measured for non-passthrough tenancy runs (the timing calls
    /// would otherwise be overhead on the hot batch path); 0.0 elsewhere.
    pub sched_wall_s: f64,
}

impl SimReport {
    /// Whether every job completed.
    pub fn all_completed(&self) -> bool {
        self.jobs_completed == self.jobs_submitted
    }
}

/// A configured simulation, ready to run one batch.
pub struct Simulation {
    cfg: SimConfig,
    layout: ClusterLayout,
    /// Hop distances, `O(classes²)`: the nearest-replica choice of a map
    /// fetch, and the scheduling metric when §II-B3 is off.
    hops: ClassedDistance,
    /// `Some` iff [`SimConfig::network_condition`].
    congestion: Option<Congestion>,
    placer: Box<dyn TaskPlacer>,
    rng: SmallRng,
    now: f64,
    events: EventQueue,
    nodes: Vec<NodeState>,
    jobs: Vec<JobState>,
    arrived: Vec<bool>,
    transfers: Box<Engine<dyn RateSource>>,
    /// The transfer wake-up the event being dispatched owes, as `(engine
    /// version, reserved sequence number)`; filed by `flush_transfer_wake`
    /// once the dispatch returns.
    owed_wake: Option<(u64, u64)>,
    trace: Trace,
    /// Nodes with ≥1 free map slot, maintained incrementally beside
    /// `nodes[..].free_map` (the scan it replaces only tested `free_map >
    /// 0`, so membership is identical).
    map_free: FreeSet,
    /// Nodes with ≥1 free reduce slot.
    reduce_free: FreeSet,
    scratch: Scratch,
    /// The hop metric's class partition, installed in both free sets; `None`
    /// under §II-B3, whose per-pair costs have no classes.
    classes: Option<CostClasses>,
    /// Live jobs with unassigned maps, keyed by running maps.
    map_heads: DemandIndex,
    /// Live jobs past slowstart with unassigned reduces, keyed by running
    /// reduces.
    reduce_heads: DemandIndex,
    jobs_done: usize,
    jobs_failed: usize,
    round: u64,
    /// Live speculative copies, at most one per running map. Empty unless
    /// [`SimConfig::speculation_lag`] is on.
    backups: BTreeMap<(usize, usize), Backup>,
    observer: DecisionObserver,
    /// Fault log for the report (mirrors what the observer's sink sees).
    faults: Vec<FaultRecord>,
    /// Dedicated RNG for fault timing draws, so a plan with
    /// `transient_map_failure_p == 0` consumes nothing and the run stays
    /// byte-identical to a fault-free one.
    fault_rng: SmallRng,
    /// Crash nesting depth per node (overlapping crash windows: a node is
    /// up only when no window covers it).
    down_depth: Vec<u32>,
    /// Currently open link-degradation windows as `(plan index, factor)`.
    active_degr: Vec<(usize, f64)>,
    /// Multi-tenant service-mode runtime; `None` without
    /// [`SimConfig::tenancy`]. A passthrough config (single tenant, all
    /// policies off) keeps every scheduling path byte-identical to
    /// `None` — only arrival/departure counters tick.
    tenancy: Option<TenancyState>,
    /// Jobs rejected by admission control.
    jobs_rejected: usize,
    /// Wall-clock spent in `schedule_node` (non-passthrough tenancy only).
    sched_wall: std::time::Duration,
}

/// A speculative copy of a running map task, keyed by `(job, map)`.
struct Backup {
    node: NodeId,
    started: f64,
    /// Launch number, wrapping at 2^32: a `BackupDone` carrying another id
    /// is stale.
    id: u32,
}

impl Simulation {
    /// Build a simulation over `cfg` with the given task-level placer.
    pub fn new(cfg: SimConfig, placer: Box<dyn TaskPlacer>) -> Self {
        let topo = cfg.build_topology();
        let layout = topo.layout().clone();
        let hops = ClassedDistance::hops(&topo);
        // The congestion-scaled matrix of §II-B3 is inherently dense; only
        // it needs the `n × n` hop matrix.
        let congestion = cfg.network_condition.then(|| {
            let base = DistanceMatrix::hops(&topo);
            Congestion {
                monitor: RateMonitor::new(cfg.n_nodes, cfg.monitor_alpha),
                matrix: base.clone(),
                base,
                taken_t: -1.0,
            }
        });
        let transfers: Box<Engine<dyn RateSource>> = if cfg.fluid_network {
            Box::new(Transfers::new(&topo))
        } else {
            Box::new(NominalTransfers::new(cfg.n_nodes, cfg.nic_bps))
        };
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let mut nodes: Vec<NodeState> = (0..cfg.n_nodes)
            .map(|_| NodeState {
                free_map: cfg.map_slots,
                free_reduce: cfg.reduce_slots,
                speed: jitter(&mut rng, NODE_SPEED_SPREAD),
                alive: true,
            })
            .collect();
        for &(idx, factor) in &cfg.slow_nodes {
            nodes[idx].speed = factor;
        }
        let mut map_free = FreeSet::new(cfg.n_nodes);
        let mut reduce_free = FreeSet::new(cfg.n_nodes);
        for (i, n) in nodes.iter().enumerate() {
            map_free.set(i, n.free_map > 0);
            reduce_free.set(i, n.free_reduce > 0);
        }
        // The metric picks the `C_ave` path: hop counts make the nodes of one
        // leaf switch interchangeable, so the placer sums over classes.
        let classes = congestion.is_none().then(|| {
            let cls = CostClasses::from_class_map(hops.class_of(), &hops);
            map_free.set_classes(cls.class_of(), cls.n_classes());
            reduce_free.set_classes(cls.class_of(), cls.n_classes());
            cls
        });
        let trace = Trace::new(cfg.total_map_slots(), cfg.total_reduce_slots());
        Self {
            congestion,
            transfers,
            owed_wake: None,
            layout,
            hops,
            placer,
            rng,
            now: 0.0,
            events: EventQueue::new(),
            nodes,
            jobs: Vec::new(),
            arrived: Vec::new(),
            trace,
            map_free,
            reduce_free,
            scratch: Scratch::default(),
            classes,
            map_heads: DemandIndex::new(0, 0),
            reduce_heads: DemandIndex::new(0, 0),
            jobs_done: 0,
            jobs_failed: 0,
            round: 0,
            backups: BTreeMap::new(),
            observer: DecisionObserver::disabled(),
            faults: Vec::new(),
            fault_rng: SmallRng::seed_from_u64(cfg.seed ^ 0xfa17_0000_0000_00f2),
            down_depth: vec![0; cfg.n_nodes],
            active_degr: Vec::new(),
            tenancy: None,
            jobs_rejected: 0,
            sched_wall: std::time::Duration::ZERO,
            cfg,
        }
    }

    /// Route per-decision trace records into `sink`. Counters accumulate
    /// whether or not tracing is enabled; with the default
    /// [`pnats_obs::NullSink`] no record is ever built.
    pub fn with_trace(mut self, sink: Box<dyn TraceSink>) -> Self {
        self.observer = DecisionObserver::with_sink(sink);
        self
    }

    /// Run the batch to completion (or `max_sim_time`) and report.
    pub fn run(mut self, inputs: &[JobInput]) -> SimReport {
        self.prime(inputs);
        while let Some((t, kind)) = self.events.pop() {
            if self.jobs_done == self.jobs.len() {
                break;
            }
            if t > self.cfg.max_sim_time {
                break;
            }
            self.step(t, kind);
        }

        if let Some(stats) = self.placer.stats() {
            self.observer.absorb_placer(stats);
        }
        self.observer.flush();
        let trace_jsonl = self.observer.drain_jsonl();
        SimReport {
            scheduler: self.placer.name().to_string(),
            sim_end: self.now,
            jobs_submitted: self.jobs.len(),
            jobs_completed: self.jobs_done - self.jobs_failed - self.jobs_rejected,
            jobs_failed: self.jobs_failed,
            trace: self.trace,
            counters: self.observer.counters().clone(),
            trace_jsonl,
            faults: self.faults,
            jobs_rejected: self.jobs_rejected,
            tenants: self.tenancy.as_ref().map(TenancyState::run_stats).unwrap_or_default(),
            sched_wall_s: self.sched_wall.as_secs_f64(),
        }
    }

    /// Build job state for `inputs` and queue every event known up front.
    fn prime(&mut self, inputs: &[JobInput]) {
        // --- Place blocks and build job state. ---
        // Writers come from each job's "ingest set" — the nodes that loaded
        // the data (HDFS puts the first replica on the writer). A fraction
        // of 1.0 degenerates to uniform writers.
        let policy = RackAware;
        let ingest_size = ((self.cfg.ingest_fraction * self.cfg.n_nodes as f64).ceil()
            as usize)
            .clamp(1, self.cfg.n_nodes);
        for (ji, input) in inputs.iter().enumerate() {
            let mut all_nodes: Vec<u32> = (0..self.cfg.n_nodes as u32).collect();
            for i in (1..all_nodes.len()).rev() {
                let j = self.rng.gen_range(0..=i);
                all_nodes.swap(i, j);
            }
            let ingest = &all_nodes[..ingest_size];
            let replicas: Vec<Vec<NodeId>> = input
                .block_sizes
                .iter()
                .map(|_| match self.cfg.data_layout {
                    crate::config::DataLayout::HdfsRackAware => {
                        let writer = NodeId(ingest[self.rng.gen_range(0..ingest.len())]);
                        policy.place(writer, self.cfg.replication, &self.layout, &mut self.rng)
                    }
                    crate::config::DataLayout::IngestConfined => {
                        // All replicas within the ingest set (NAS/SAN-style).
                        let mut picks: Vec<NodeId> = Vec::new();
                        let want = self.cfg.replication.min(ingest.len());
                        while picks.len() < want {
                            let n = NodeId(ingest[self.rng.gen_range(0..ingest.len())]);
                            if !picks.contains(&n) {
                                picks.push(n);
                            }
                        }
                        picks
                    }
                })
                .collect();
            let job = JobState::new(JobId(ji as u32), input, replicas, &mut self.rng);
            self.events.push(input.submit, EventKind::JobArrival { job: ji });
            self.jobs.push(job);
            self.arrived.push(false);
        }

        // --- Service mode: build the tenancy runtime, tag the decision
        // trace. Passthrough configs skip the tagging so their trace
        // stays byte-identical to a `tenancy: None` run. ---
        let partitions = self.cfg.tenancy.as_ref().map_or(1, |tc| tc.tenants.len());
        self.map_heads = DemandIndex::new(partitions, inputs.len());
        self.reduce_heads = DemandIndex::new(partitions, inputs.len());
        if let Some(tc) = self.cfg.tenancy.clone() {
            let tn = TenancyState::new(tc, inputs.len());
            if !tn.passthrough {
                let tags: Vec<u32> =
                    (0..inputs.len()).map(|j| tn.cfg.tenant_of(j) as u32).collect();
                self.observer.set_tenants(tags);
            }
            self.tenancy = Some(tn);
        }

        // --- Prime heartbeats (staggered) and background flows. ---
        let hb = self.cfg.heartbeat_s;
        for n in 0..self.cfg.n_nodes {
            let offset = hb * (n as f64 + 1.0) / self.cfg.n_nodes as f64;
            self.events.push(offset, EventKind::Heartbeat { node: NodeId(n as u32) });
        }
        for (i, bg) in self.cfg.background.clone().iter().enumerate() {
            self.events.push(bg.start, EventKind::BackgroundStart { idx: i });
            self.events.push(bg.end, EventKind::BackgroundStop { idx: i });
        }

        // --- Prime fault-plan events (nothing scheduled for an empty plan,
        // so `FaultPlan::none()` runs stay byte-identical). ---
        self.cfg
            .faults
            .validate(self.cfg.n_nodes)
            .expect("invalid fault plan");
        for (i, c) in self.cfg.faults.crashes.clone().iter().enumerate() {
            self.events.push(c.at, EventKind::NodeCrash { fault: i });
            if let Some(r) = c.recover_at {
                self.events.push(r, EventKind::NodeRecover { fault: i });
            }
        }
        for (i, d) in self.cfg.faults.link_degradations.clone().iter().enumerate() {
            self.events.push(d.from, EventKind::LinkDegradeStart { idx: i });
            self.events.push(d.until, EventKind::LinkDegradeEnd { idx: i });
        }
    }

    /// Handle one event popped at `t`, then file the transfer wake-up it
    /// owes.
    fn step(&mut self, t: f64, kind: EventKind) {
        debug_assert!(t >= self.now - 1e-9, "event time regression");
        self.now = t;
        self.dispatch(kind);
        self.flush_transfer_wake();
    }

    /// Log one fault to the observer (counters + sink) and the report.
    fn record_fault(&mut self, kind: FaultKind, node: u32, job: Option<u32>, task: Option<u32>) {
        let rec = FaultRecord { t: self.now, kind, node, job, task };
        self.observer.observe_fault(&rec);
        self.faults.push(rec);
    }

    /// Log a fault of task `task` of job `ji` on `node`.
    fn record_task_fault(&mut self, kind: FaultKind, node: NodeId, ji: usize, task: usize) {
        self.record_fault(kind, node.idx() as u32, Some(ji as u32), Some(task as u32));
    }

    /// Whether an alive node's heartbeat is suppressed by a loss window.
    fn heartbeat_lost(&self, node: NodeId) -> bool {
        self.cfg
            .faults
            .heartbeat_losses
            .iter()
            .any(|w| w.node == node.idx() && w.from <= self.now && self.now < w.until)
    }

    fn dispatch(&mut self, kind: EventKind) {
        match kind {
            EventKind::JobArrival { job } => self.on_job_arrival(job),
            EventKind::Heartbeat { node } => {
                // Dead or partitioned nodes stay silent but keep their
                // heartbeat chain alive, so a recovered node resumes
                // scheduling without any re-priming (no deadlock when a
                // whole replica set dies and comes back).
                let alive = self.nodes[node.idx()].alive;
                let lost = alive && self.heartbeat_lost(node);
                if !alive || lost {
                    if lost {
                        self.record_fault(FaultKind::HeartbeatLost, node.idx() as u32, None, None);
                    }
                    self.events
                        .push(self.now + self.cfg.heartbeat_s, EventKind::Heartbeat { node });
                    return;
                }
                self.round += 1;
                self.placer.on_heartbeat_round(self.round);
                self.observer.begin_round(self.round);
                self.refresh_sched_matrix();
                if self.tenancy.as_ref().is_some_and(|tn| !tn.passthrough) {
                    let t0 = std::time::Instant::now();
                    self.schedule_node(node);
                    self.sched_wall += t0.elapsed();
                    self.maybe_preempt();
                } else {
                    self.schedule_node(node);
                }
                self.events
                    .push(self.now + self.cfg.heartbeat_s, EventKind::Heartbeat { node });
            }
            EventKind::TransferWake { version } => {
                if version != self.transfers.version() {
                    return; // stale prediction
                }
                let mut done = std::mem::take(&mut self.scratch.reaped);
                self.transfers.reap_into(self.now, &mut done);
                for c in done.drain(..) {
                    self.handle_completion(c);
                }
                self.scratch.reaped = done;
                self.arm_transfer_wake();
            }
            EventKind::MapDone { job, map, run } => self.on_map_done(job, map, run),
            EventKind::MapFailed { job, map, run } => self.on_map_failed(job, map, run),
            EventKind::BackupDone { job, map, id } => self.on_backup_done(job, map, id),
            EventKind::ReduceDone { job, reduce, run } => self.on_reduce_done(job, reduce, run),
            EventKind::NodeCrash { fault } => self.on_node_crash(fault),
            EventKind::NodeRecover { fault } => self.on_node_recover(fault),
            EventKind::LinkDegradeStart { idx } => self.on_link_degrade(idx, true),
            EventKind::LinkDegradeEnd { idx } => self.on_link_degrade(idx, false),
            EventKind::BackgroundStart { idx } => {
                let bg = self.cfg.background[idx];
                self.transfers.start(
                    self.now,
                    NodeId(bg.src as u32),
                    NodeId(bg.dst as u32),
                    f64::INFINITY,
                    TransferTag::Background { idx },
                );
                self.arm_transfer_wake();
            }
            EventKind::BackgroundStop { idx } => {
                self.transfers.cancel(self.now, TransferTag::Background { idx });
                self.arm_transfer_wake();
            }
        }
    }

    /// A job's submission reaches the tracker. In service mode the
    /// admission gate runs first: a rejected job never arrives — it gets
    /// no tasks, no JobRecord, and counts as neither completed nor
    /// failed (it holds a `JobRejected` fault record instead).
    fn on_job_arrival(&mut self, ji: usize) {
        if self.tenancy.is_some() {
            let check = self.tenancy.as_ref().expect("checked").cfg.admission;
            let backlog = if check { self.backlog_tasks() } else { 0 };
            let total_slots = self.cfg.total_map_slots() + self.cfg.total_reduce_slots();
            let tn = self.tenancy.as_mut().expect("checked");
            let t = tn.cfg.tenant_of(ji);
            let decision = if check {
                pnats_tenancy::admit(
                    tn.cfg.tenants.get(t),
                    tn.in_system[t] as usize,
                    backlog,
                    total_slots,
                    tn.cfg.saturation_backlog,
                )
            } else {
                AdmissionDecision::Admit
            };
            match decision {
                AdmissionDecision::Admit => tn.admit_job(t),
                AdmissionDecision::Reject(reason) => {
                    tn.counters[t].record_reject(reason);
                    // Terminate the job without arriving: `failed` makes
                    // `terminated()` true so no index ever admits it, but
                    // `jobs_failed` stays put — rejection is its own
                    // outcome in the report's accounting.
                    self.jobs[ji].failed = true;
                    self.jobs_done += 1;
                    self.jobs_rejected += 1;
                    self.record_fault(FaultKind::JobRejected, 0, Some(ji as u32), None);
                    return;
                }
            }
        }
        self.arrived[ji] = true;
        self.refresh_demand(ji);
    }

    /// Whether job `ji` has arrived and not terminated.
    fn live(&self, ji: usize) -> bool {
        self.arrived[ji] && !self.jobs[ji].terminated()
    }

    /// Cluster-wide unassigned tasks across admitted, unfinished jobs —
    /// the saturation signal the admission gate thresholds on.
    fn backlog_tasks(&self) -> u64 {
        (0..self.jobs.len())
            .filter(|&j| self.live(j))
            .map(|j| {
                let job = &self.jobs[j];
                (job.unassigned_maps.len() + job.unassigned_reduces.len()) as u64
            })
            .sum()
    }

    /// Min-share enforcement, once per heartbeat after normal scheduling:
    /// if some tenant with a configured minimum map share is starved (has
    /// demand, holds less than its floor, and the cluster has no free map
    /// slot to give it), kill the most recently assigned running map of
    /// the most over-served tenant and requeue it — PR 3's crash-recovery
    /// path, so the exactly-once oracle laws hold unchanged.
    fn maybe_preempt(&mut self) {
        let Some(tn) = self.tenancy.as_ref() else { return };
        if !tn.cfg.preemption {
            return;
        }
        if self.now - tn.last_preempt_t < tn.cfg.preempt_cooldown_s {
            return;
        }
        if self.map_free.total() > 0 {
            return; // a free slot exists — scheduling, not preemption, fixes starvation
        }
        let n = tn.cfg.tenants.len();
        let total = self.cfg.total_map_slots() as f64;
        let total_weight = tn.cfg.tenants.total_weight();
        let running = &self.map_heads.held;
        // Lowest tenant id wins ties: deterministic.
        let Some(starved) = (0..n).find(|&t| {
            let spec = tn.cfg.tenants.get(t);
            spec.min_share > 0.0
                && !self.map_heads.heads[t].is_empty()
                && (running[t] as f64) < (spec.min_share * total).floor()
        }) else {
            return;
        };
        // Victim tenant: most over-served per unit weight, and strictly
        // above its weighted fair share (preempting an under-share tenant
        // would just move the starvation).
        let victim_t = (0..n)
            .filter(|&t| t != starved)
            .filter(|&t| running[t] as f64 > total * tn.cfg.tenants.get(t).weight / total_weight)
            .max_by(|&a, &b| {
                let ka = running[a] as f64 / tn.cfg.tenants.get(a).weight;
                let kb = running[b] as f64 / tn.cfg.tenants.get(b).weight;
                ka.total_cmp(&kb).then(b.cmp(&a))
            });
        let Some(victim_t) = victim_t else { return };
        // Victim attempt: the most recently assigned running map — the
        // cheapest to redo. Ties (same assignment heartbeat) break on the
        // highest (job, map) id, still deterministic.
        let mut best: Option<(f64, usize, usize)> = None;
        for j in (0..self.jobs.len()).filter(|&j| tn.cfg.tenant_of(j) == victim_t) {
            for &m in &self.jobs[j].running_maps {
                let key = (self.jobs[j].maps[m].assigned_t, j, m);
                if best.is_none_or(|b| (key.0, key.1, key.2) > b) {
                    best = Some(key);
                }
            }
        }
        let Some((_, ji, map)) = best else { return };
        // Tear down an in-flight block fetch before the kill (the
        // contract `end_map_attempt` documents).
        let node = self.jobs[ji].maps[map].node().expect("running map has a node");
        self.cancel_fetch(ji, map);
        self.record_task_fault(FaultKind::MapPreempted, node, ji, map);
        self.kill_map_attempt(ji, map);
        let tn = self.tenancy.as_mut().expect("checked");
        tn.counters[victim_t].preempted += 1;
        tn.last_preempt_t = self.now;
    }

    /// Note that the event being dispatched owes a transfer wake-up for the
    /// engine's current state. Nothing is predicted here: one dispatch can
    /// start a fetch for every shuffling reduce of a job, and only the last
    /// state matters — `flush_transfer_wake` predicts once, for that.
    ///
    /// This files the wake-up that predicting and pushing at every arm would
    /// leave queued, with the same time and tie position. The sequence
    /// number is reserved at the first arm of each engine version, and:
    ///
    /// * `now` is constant within a dispatch, and every arm follows an
    ///   engine call that already advanced to `now`; a later call at the
    ///   same version integrates over `dt = 0` and changes nothing.
    /// * Rates are a pure function of capacities and the multiset of routes
    ///   (see `pnats_net::flow`), so predicting at the flush gives the bits
    ///   the first arm at the final version would get.
    /// * Wake-ups of earlier versions are dropped by the queue when a later
    ///   one is filed; repeated arms at one version would file one time
    ///   twice, and the second could only pop as a no-op.
    ///
    /// Hence the engine state and the `(time, insertion)` order of every
    /// event that can still act are the same. The one wake-up not filed is
    /// an earlier version's when the final state predicts nothing: it too
    /// could only pop as a no-op.
    fn arm_transfer_wake(&mut self) {
        let version = self.transfers.version();
        if self.owed_wake.is_none_or(|(owed, _)| owed != version) {
            self.owed_wake = Some((version, self.events.reserve_seq()));
        }
    }

    /// File the wake-up the last dispatch owes (see `arm_transfer_wake`):
    /// one refill and one prediction per event, however many arms it made.
    fn flush_transfer_wake(&mut self) {
        let Some((version, seq)) = self.owed_wake.take() else { return };
        debug_assert_eq!(
            version,
            self.transfers.version(),
            "the transfer engine changed after the dispatch's last arm"
        );
        if let Some((t, v)) = self.transfers.next_wake() {
            self.events
                .push_at(t.max(self.now), EventKind::TransferWake { version: v }, seq);
        }
    }

    /// Refresh the scheduler-facing cost matrix (at most once per
    /// heartbeat interval; it is a full n² snapshot).
    fn refresh_sched_matrix(&mut self) {
        let Some(c) = &mut self.congestion else { return };
        if self.now - c.taken_t < self.cfg.heartbeat_s * 0.999 {
            return;
        }
        let next_version = c.matrix.version() + 1;
        c.matrix = c.monitor.congestion_scaled_matrix(&c.base, self.cfg.nic_bps);
        // `PathCost::version` must move with every change, and each fresh
        // snapshot would otherwise carry the same one.
        c.matrix.set_version(next_version);
        c.taken_t = self.now;
    }

    /// The demand-index partition of job `ji`: its tenant in service mode.
    fn partition_of(&self, ji: usize) -> usize {
        self.tenancy.as_ref().map_or(0, |tn| tn.cfg.tenant_of(ji))
    }

    /// Job `ji`'s `(running, wants a slot)` for maps, then for reduces.
    /// Reduces wait for Hadoop's slowstart: a fraction of maps finished.
    fn demand_of(&self, ji: usize) -> [(usize, bool); 2] {
        let job = &self.jobs[ji];
        let live = self.live(ji);
        let past_gate = job.maps_finished >= slowstart_gate(self.cfg.slowstart, job.maps.len());
        let wants_maps = live && !job.unassigned_maps.is_empty();
        let wants_reduces = live && past_gate && !job.unassigned_reduces.is_empty();
        [
            (job.running_maps.len(), wants_maps),
            (job.reduce_nodes.len(), wants_reduces),
        ]
    }

    /// Sync job `ji`'s entries in both demand indices. Must be called after
    /// every change to what `demand_of` reads.
    fn refresh_demand(&mut self, ji: usize) {
        let t = self.partition_of(ji);
        let [(maps, wants_maps), (reduces, wants_reduces)] = self.demand_of(ji);
        // A tenant whose map queue drained forfeits its banked credit
        // (DWRR's anti-burst rule).
        let drained = self.map_heads.set(t, ji, maps, wants_maps);
        if let Some(tn) = self.tenancy.as_mut().filter(|_| drained) {
            tn.arbiter.reset(t);
        }
        self.reduce_heads.set(t, ji, reduces, wants_reduces);
    }

    /// Both demand indices equal their rebuild from `demand_of`.
    #[cfg(debug_assertions)]
    fn audit_demand(&self) {
        let parts = self.map_heads.heads.len();
        let mut scan = [(); 2].map(|_| DemandIndex::new(parts, self.jobs.len()));
        for j in 0..self.jobs.len() {
            for (index, (running, wants)) in scan.iter_mut().zip(self.demand_of(j)) {
                index.set(self.partition_of(j), j, running, wants);
            }
        }
        assert_eq!(scan[0], self.map_heads, "map demand desync");
        assert_eq!(scan[1], self.reduce_heads, "reduce demand desync");
    }

    /// Mirror `nodes[n].free_map` into the incremental free set. Must be
    /// called after every mutation of the slot counter.
    fn free_map_changed(&mut self, n: NodeId) {
        self.map_free.set(n.idx(), self.nodes[n.idx()].free_map > 0);
    }

    /// Mirror `nodes[n].free_reduce` into the incremental free set.
    fn free_reduce_changed(&mut self, n: NodeId) {
        self.reduce_free.set(n.idx(), self.nodes[n.idx()].free_reduce > 0);
    }

    /// Fill `node`'s free slots.
    fn schedule_node(&mut self, node: NodeId) {
        // Map slots: HEAD-OF-LINE. The fair-share head job gets the offer;
        // if its task-level policy declines (delay scheduling waiting for
        // locality, a probability gate firing low), the slot stays idle
        // until the next heartbeat. This is Hadoop 1.x semantics and the
        // under-utilization mechanism the paper (and Coupling's authors)
        // ascribe to delay scheduling — a declined slot is a real cost.
        loop {
            if self.nodes[node.idx()].free_map == 0 {
                break;
            }
            #[cfg(debug_assertions)]
            self.audit_demand();
            // The head of line is the job with the fewest running maps,
            // lowest id first: Hadoop's Fair Scheduler serves jobs below
            // their fair share before those at or above it, and ordering
            // by running count already does that, since the share is one
            // threshold for every job. Without fairness it is the least
            // first key over all partitions.
            //
            // With weighted fair sharing on, the DWRR arbiter first
            // decides which *tenant* this slot belongs to, among those with
            // a non-empty partition; that partition's first key is the
            // head. The arbiter charges the winner one slot up front —
            // refunded if the task-level placer declines the offer (the
            // slot stays idle, so nobody was served).
            let heads = &self.map_heads.heads;
            let (head, charged) = match self.tenancy.as_mut().filter(|tn| tn.cfg.fairness) {
                Some(tn) => {
                    let demanding = &mut self.scratch.tenants;
                    demanding.clear();
                    demanding.extend((0..heads.len()).filter(|&t| !heads[t].is_empty()));
                    if demanding.is_empty() {
                        break;
                    }
                    let t = tn.arbiter.pick(demanding);
                    (heads[t].first().expect("demanding tenant").1, Some(t))
                }
                None => match heads.iter().filter_map(BTreeSet::first).min() {
                    Some(&(_, j)) => (j, None),
                    None => break,
                },
            };
            match self.offer_map(head, node) {
                Some(map) => self.assign_map(head, map, node),
                None => {
                    if let Some(t) = charged {
                        self.tenancy.as_mut().expect("charged implies tenancy").arbiter.refund(t);
                    }
                    break;
                }
            }
        }
        // Speculative execution: with free map slots, no pending maps in
        // the head job, and a straggling copy, launch one backup.
        if self.cfg.speculation_lag > 0.0 && self.nodes[node.idx()].free_map > 0 {
            self.try_speculate(node);
        }
        // Reduce slots.
        loop {
            if self.nodes[node.idx()].free_reduce == 0 {
                break;
            }
            #[cfg(debug_assertions)]
            self.audit_demand();
            let mut assigned = false;
            let order = self.reduce_order();
            for &(_, ji) in &order {
                if let Some(red) = self.offer_reduce(ji, node) {
                    self.assign_reduce(ji, red, node);
                    assigned = true;
                    break;
                }
            }
            self.scratch.reduce_order = order;
            if !assigned {
                break;
            }
        }
    }

    /// The jobs a free reduce slot is offered to, in turn: fewest running
    /// reduces first, lowest id on ties, below a hard share cap. Running
    /// reduces hold their slot for the job's whole shuffle, so without a
    /// cap the first jobs past slowstart would monopolize the pool (Fair
    /// Scheduler enforces shares per slot type). Under weighted fairness,
    /// tenants go by least held reduces per unit weight, then id. Returns
    /// the scratch buffer as `(running, job)`; the caller puts it back.
    fn reduce_order(&mut self) -> Vec<(usize, usize)> {
        let index = &self.reduce_heads;
        let demand: usize = index.heads.iter().map(BTreeSet::len).sum();
        let share = (self.cfg.total_reduce_slots() as usize).div_ceil(demand.max(1));
        let tenants = &mut self.scratch.tenants;
        tenants.clear();
        tenants.extend(0..index.heads.len());
        let fair = self.tenancy.as_ref().filter(|tn| tn.cfg.fairness);
        if let Some(tn) = fair {
            let key = |t: usize| index.held[t] as f64 / tn.cfg.tenants.get(t).weight;
            tenants.sort_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
        }
        let mut order = std::mem::take(&mut self.scratch.reduce_order);
        order.clear();
        for &t in tenants.iter() {
            order.extend(index.heads[t].range(..(share, 0))); // running < share
        }
        if fair.is_none() {
            order.sort_unstable();
        }
        order
    }

    /// Offer one map slot on `node` for job `ji`; returns the chosen map
    /// task index, if any.
    fn offer_map(&mut self, ji: usize, node: NodeId) -> Option<usize> {
        // Node-local candidates first (Hadoop's per-node task cache), then
        // the head of the pending queue up to the window size.
        let Scratch { window, map_cands, .. } = &mut self.scratch;
        self.jobs[ji].local_unassigned_into(node, 8, window);
        let job = &self.jobs[ji];
        for m in job.unassigned_maps.iter() {
            if window.len() >= self.cfg.map_candidate_window {
                break;
            }
            if !window.contains(&m) {
                window.push(m);
            }
        }
        // Liveness filter (runtime, not placer): a map is schedulable only
        // while at least one replica of its block is on a live node. If the
        // whole window is data-dead, record a NodeDead skip against it so
        // the offer identity (`offers = assigns + skips`) still holds.
        let nodes = &self.nodes;
        let alive = |m: &usize| job.map_cands[*m].replicas.iter().any(|r| nodes[r.idx()].alive);
        let dead = !window.is_empty() && !window.iter().any(alive);
        if !dead {
            window.retain(alive);
        }
        for (i, &m) in window.iter().enumerate() {
            match map_cands.get_mut(i) {
                Some(c) => c.clone_from(&job.map_cands[m]),
                None => map_cands.push(job.map_cands[m].clone()),
            }
        }
        let candidates = &map_cands[..window.len()];
        let cost = sched_metric(&self.congestion, &self.hops);
        self.map_free.ensure_list();
        let free = self.map_free.list();
        let mut ctx = MapSchedContext::new(job.id, candidates, free, cost, &self.layout).at(self.now);
        if dead {
            self.observer
                .observe_map(&ctx, node, Decision::Skip(SkipReason::NodeDead), None);
            return None;
        }
        if let Some(cls) = &self.classes {
            ctx = ctx.with_cost_view(self.map_free.view(cls));
        }
        let decision = self.placer.place_map(&ctx, node, &mut self.rng);
        self.observer
            .observe_map(&ctx, node, decision, self.placer.last_detail());
        match decision {
            Decision::Assign(i) => Some(window[i]),
            Decision::Skip(_) => None,
        }
    }

    /// Offer one reduce slot on `node` for job `ji`.
    fn offer_reduce(&mut self, ji: usize, node: NodeId) -> Option<usize> {
        let job = &self.jobs[ji];
        let window = &mut self.scratch.reduce_window;
        let progress = window.fill(job, self.cfg.reduce_candidate_window, self.now);
        let candidates = window.candidates();
        let cost = sched_metric(&self.congestion, &self.hops);
        self.reduce_free.ensure_list();
        let free = self.reduce_free.list();
        let launched = job.reduces.len() - job.unassigned_reduces.len();
        let mut ctx = ReduceSchedContext::new(job.id, candidates, free, cost, &self.layout)
            .running_on(&job.reduce_nodes)
            .map_phase(progress, job.maps_finished, job.maps.len())
            .reduce_phase(launched, job.reduces.len())
            .at(self.now);
        if let Some(cls) = &self.classes {
            ctx = ctx.with_cost_view(self.reduce_free.view(cls));
        }
        let decision = self.placer.place_reduce(&ctx, node, &mut self.rng);
        self.observer
            .observe_reduce(&ctx, node, decision, self.placer.last_detail());
        match decision {
            Decision::Assign(i) => Some(candidates[i].task.index as usize),
            Decision::Skip(_) => None,
        }
    }

    fn map_locality(&self, ji: usize, map: usize, node: NodeId) -> LocalityClass {
        let cand = &self.jobs[ji].map_cands[map];
        if cand.is_local_to(node) {
            LocalityClass::NodeLocal
        } else if cand.is_rack_local_to(node, &self.layout) {
            LocalityClass::RackLocal
        } else {
            LocalityClass::Remote
        }
    }

    fn assign_map(&mut self, ji: usize, map: usize, node: NodeId) {
        debug_assert!(self.nodes[node.idx()].free_map > 0);
        self.nodes[node.idx()].free_map -= 1;
        self.free_map_changed(node);
        self.trace.map_util.start(self.now);

        let locality = self.map_locality(ji, map, node);
        let job = &mut self.jobs[ji];
        assert!(job.unassigned_maps.remove(map), "assigning an unassigned map");
        job.running_maps.push(map);
        if job.maps[map].weights.is_empty() {
            // First attempt only: re-executions must reproduce the same
            // output (sizes already folded into reducer accounting) and
            // must not perturb the shared RNG stream.
            job.materialize_map_output(map, PARTITION_NOISE, &mut self.rng);
        }
        job.maps[map].assigned_t = self.now;
        job.maps[map].locality = locality;

        // Fetch from the nearest *live* replica (by physical hops), then
        // compute. `offer_map` guarantees at least one replica is alive.
        let (src, dist) = {
            let cand = &job.map_cands[map];
            cand.replicas
                .iter()
                .filter(|r| self.nodes[r.idx()].alive)
                .map(|&r| (r, self.hops.path_cost(node, r)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("offer_map filters to maps with a live replica")
        };
        if dist == 0.0 {
            self.start_map_compute(ji, map, node);
        } else {
            let bytes = self.jobs[ji].maps[map].block as f64;
            self.jobs[ji].maps[map].phase = MapPhase::Fetching { node };
            let done = self.transfers.start(
                self.now,
                src,
                node,
                bytes,
                TransferTag::MapFetch { job: ji, map },
            );
            match done {
                Some(c) => self.handle_completion(c),
                None => self.arm_transfer_wake(),
            }
        }
        self.refresh_demand(ji);
    }

    fn start_map_compute(&mut self, ji: usize, map: usize, node: NodeId) {
        let speed = self.nodes[node.idx()].speed;
        let block = self.jobs[ji].maps[map].block as f64;
        let rate = self.cfg.map_rate_bps * speed * jitter(&mut self.rng, TASK_JITTER);
        let duration = (block / rate).max(1e-6);
        self.jobs[ji].maps[map].phase =
            MapPhase::Computing { node, start: self.now, duration };
        let (run, attempt) = {
            let m = &mut self.jobs[ji].maps[map];
            m.attempts += 1;
            (m.run, m.attempts)
        };
        // Transient-failure draw: keyed on (job, map, attempt) rather than
        // drawn from a stream, so the verdict is independent of execution
        // order (the wall-clock engine shares it). `none()` plans never
        // reach the hash.
        let fails = self.cfg.faults.transient_map_failure_p > 0.0
            && self
                .cfg
                .faults
                .map_attempt_fails(self.cfg.seed, (ji << 20) | map, attempt);
        if fails {
            let frac = 0.05 + 0.9 * self.fault_rng.gen::<f64>();
            self.events.push(
                self.now + duration * frac,
                EventKind::MapFailed { job: ji, map, run },
            );
        } else {
            self.events
                .push(self.now + duration, EventKind::MapDone { job: ji, map, run });
        }
    }

    fn on_map_done(&mut self, ji: usize, map: usize, run: u32) {
        if self.jobs[ji].maps[map].run != run {
            return; // stale: this attempt was killed (crash, retry or lost race)
        }
        let node = self.jobs[ji].maps[map].node().expect("done map has a node");
        debug_assert!(!self.jobs[ji].maps[map].is_done(), "a done map has no live attempt");
        self.release_map_slot(node);
        // Kill any outstanding backup of this task (the primary won).
        self.cancel_backup(ji, map);
        self.finish_map(ji, map, node);
    }

    /// A map attempt died with a retryable failure: end the attempt and
    /// either requeue the task or — once the retry budget is spent — fail
    /// the whole job.
    fn on_map_failed(&mut self, ji: usize, map: usize, run: u32) {
        if self.jobs[ji].maps[map].run != run {
            return; // stale: attempt already killed by a crash or race
        }
        let node = self.end_map_attempt(ji, map);
        self.record_task_fault(FaultKind::TransientFailure, node, ji, map);
        if self.jobs[ji].maps[map].attempts >= self.cfg.faults.max_attempts {
            self.fail_job(ji, node);
        } else {
            self.requeue_map(ji, map);
        }
    }

    /// Put an unassigned map back on the queues (pending list + per-node
    /// locality cache), deduplicating both.
    fn requeue_map(&mut self, ji: usize, map: usize) {
        let job = &mut self.jobs[ji];
        if !job.unassigned_maps.contains(map) {
            job.unassigned_maps.push_back(map);
        }
        let reps: Vec<NodeId> = job.map_cands[map].replicas.clone();
        for r in reps {
            let cache = job.local_maps.entry(r.0).or_default();
            if !cache.contains(&(map as u32)) {
                cache.push(map as u32);
            }
        }
        self.refresh_demand(ji);
    }

    /// Give back one map slot on `node` (unless the node is down: its crash
    /// zeroed its slots) and close one busy span of the map timeline.
    fn release_map_slot(&mut self, node: NodeId) {
        if self.nodes[node.idx()].alive {
            self.nodes[node.idx()].free_map += 1;
            self.free_map_changed(node);
        }
        self.trace.map_util.end(self.now);
    }

    /// Give back one reduce slot on `node`; see `release_map_slot`.
    fn release_reduce_slot(&mut self, node: NodeId) {
        if self.nodes[node.idx()].alive {
            self.nodes[node.idx()].free_reduce += 1;
            self.free_reduce_changed(node);
        }
        self.trace.reduce_util.end(self.now);
    }

    /// Cancel map `map`'s live backup, if any, releasing its slot.
    fn cancel_backup(&mut self, ji: usize, map: usize) {
        if let Some(b) = self.backups.remove(&(ji, map)) {
            self.release_map_slot(b.node);
            self.trace.backups_cancelled += 1;
        }
    }

    /// Tear down map `map`'s block fetch, if its attempt is fetching.
    fn cancel_fetch(&mut self, ji: usize, map: usize) {
        if matches!(self.jobs[ji].maps[map].phase, MapPhase::Fetching { .. }) {
            self.transfers.cancel(self.now, TransferTag::MapFetch { job: ji, map });
            self.arm_transfer_wake();
        }
    }

    /// Common completion path for primaries and winning backups.
    fn finish_map(&mut self, ji: usize, map: usize, node: NodeId) {
        self.jobs[ji].complete_map(map, node, self.now);
        self.refresh_demand(ji);
        // A winning backup may have run elsewhere than the original
        // placement; record the locality of where the work actually ran.
        let locality = self.map_locality(ji, map, node);
        self.jobs[ji].maps[map].locality = locality;

        let m = &self.jobs[ji].maps[map];
        let net_bytes = match m.locality {
            LocalityClass::NodeLocal => 0.0,
            _ => m.block as f64,
        };
        self.trace.tasks.push(TaskRecord {
            job: ji,
            kind: TaskKind::Map,
            index: map,
            node: node.idx(),
            assigned: m.assigned_t,
            finished: self.now,
            locality: m.locality,
            net_bytes,
            epoch: m.epoch,
        });

        // Push this map's output toward every running reduce.
        let n_reduces = self.jobs[ji].reduces.len();
        for f in 0..n_reduces {
            let phase = self.jobs[ji].reduces[f].phase.clone();
            if let ReducePhase::Shuffling { .. } = phase {
                let bytes = self.jobs[ji].maps[map].final_bytes_for(f);
                self.jobs[ji].reduces[f].enqueue(node, bytes);
                self.kick_copiers(ji, f);
                self.try_finish_shuffle(ji, f);
            }
        }
        self.check_job_done(ji);
    }

    /// Launch at most one speculative backup on `node` for the fair-order
    /// head job whose map queue is drained but whose slowest running map
    /// lags the job's mean progress by `speculation_lag`.
    fn try_speculate(&mut self, node: NodeId) {
        let lag = self.cfg.speculation_lag;
        let now = self.now;
        // Only live jobs have running maps.
        for ji in 0..self.jobs.len() {
            let job = &self.jobs[ji];
            if !job.unassigned_maps.is_empty() || job.running_maps.is_empty() {
                continue;
            }
            // Progress fractions of running maps.
            let fracs: Vec<(usize, f64)> = job
                .running_maps
                .iter()
                .map(|&m| {
                    let t = &job.maps[m];
                    (m, t.input_read(now) as f64 / t.block.max(1) as f64)
                })
                .collect();
            let mean = fracs.iter().map(|(_, f)| f).sum::<f64>() / fracs.len() as f64;
            let Some(&(victim, _)) = fracs
                .iter()
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .filter(|(_, f)| mean - f >= lag)
            else {
                continue;
            };
            // One backup per task; never on the straggler's own node.
            if self.backups.contains_key(&(ji, victim)) || job.maps[victim].node() == Some(node) {
                continue;
            }
            // Launch the backup from scratch on this node.
            self.nodes[node.idx()].free_map -= 1;
            self.free_map_changed(node);
            self.trace.map_util.start(now);
            let speed = self.nodes[node.idx()].speed;
            let rate = self.cfg.map_rate_bps * speed * jitter(&mut self.rng, TASK_JITTER);
            let block = self.jobs[ji].maps[victim].block as f64;
            // Backups re-read their input; approximate a remote fetch at
            // nominal NIC rate rather than opening a flow.
            let duration = block / self.cfg.nic_bps + block / rate;
            let id = self.trace.backups_launched as u32;
            self.trace.backups_launched += 1;
            self.backups.insert((ji, victim), Backup { node, started: now, id });
            self.events.push(now + duration, EventKind::BackupDone { job: ji, map: victim, id });
            return;
        }
    }

    /// A speculative copy finished (or fires stale after cancellation).
    fn on_backup_done(&mut self, ji: usize, map: usize, id: u32) {
        let b = match self.backups.entry((ji, map)) {
            Entry::Occupied(e) if e.get().id == id => e.remove(),
            _ => return, // stale: cancelled (its primary ended or its node died)
        };
        self.release_map_slot(b.node);
        debug_assert!(
            !self.jobs[ji].maps[map].is_done() && !self.jobs[ji].terminated(),
            "every end of a primary's attempt cancels its backup"
        );
        // The backup wins: kill the losing primary *now* (free its slot,
        // stale-out its MapDone via the run bump) and credit the completion
        // to the backup's node and start time.
        let pnode = self.jobs[ji].maps[map].node().expect("racing primary is placed");
        self.cancel_fetch(ji, map);
        self.release_map_slot(pnode);
        self.jobs[ji].maps[map].run += 1;
        self.jobs[ji].maps[map].assigned_t = b.started;
        self.trace.backups_won += 1;
        self.finish_map(ji, map, b.node);
    }

    fn assign_reduce(&mut self, ji: usize, f: usize, node: NodeId) {
        debug_assert!(self.nodes[node.idx()].free_reduce > 0);
        self.nodes[node.idx()].free_reduce -= 1;
        self.free_reduce_changed(node);
        self.trace.reduce_util.start(self.now);

        let job = &mut self.jobs[ji];
        assert!(job.unassigned_reduces.remove(f), "assigning an unassigned reduce");
        job.reduce_nodes.push(node);
        job.reduces[f].phase = ReducePhase::Shuffling { node };
        job.reduces[f].assigned_t = self.now;

        // Pull everything already finished.
        job.enqueue_finished_outputs(f);
        self.refresh_demand(ji);
        self.kick_copiers(ji, f);
        self.try_finish_shuffle(ji, f);
    }

    /// Start queued shuffle fetches up to the copier limit.
    fn kick_copiers(&mut self, ji: usize, f: usize) {
        let node = match self.jobs[ji].reduces[f].phase {
            ReducePhase::Shuffling { node } => node,
            _ => return,
        };
        let mut started_remote = false;
        loop {
            let r = &mut self.jobs[ji].reduces[f];
            if r.active_fetches >= PARALLEL_COPIES || r.pending.is_empty() {
                break;
            }
            let (src, bytes) = r.pending.pop_front().expect("checked non-empty");
            if src == node {
                // Local read: no network involvement.
                r.receive(src, bytes);
                continue;
            }
            r.active_fetches += 1;
            let done = self.transfers.start(
                self.now,
                src,
                node,
                bytes,
                TransferTag::Shuffle { job: ji, reduce: f },
            );
            if let Some(c) = done {
                // Tiny transfers complete inline.
                self.jobs[ji].reduces[f].active_fetches -= 1;
                self.jobs[ji].reduces[f].receive(c.src, c.bytes);
            } else {
                started_remote = true;
            }
        }
        if started_remote {
            self.arm_transfer_wake();
        }
    }

    /// If the reduce has everything, enter merge+reduce.
    fn try_finish_shuffle(&mut self, ji: usize, f: usize) {
        let job = &self.jobs[ji];
        let r = &job.reduces[f];
        let node = match r.phase {
            ReducePhase::Shuffling { node } => node,
            _ => return,
        };
        if job.maps_finished < job.maps.len()
            || !r.pending.is_empty()
            || r.active_fetches > 0
        {
            return;
        }
        let speed = self.nodes[node.idx()].speed;
        let rate = self.cfg.reduce_rate_bps * speed * jitter(&mut self.rng, TASK_JITTER);
        let duration = (r.received / rate).max(1e-6);
        let run = self.jobs[ji].reduces[f].run;
        self.jobs[ji].reduces[f].phase = ReducePhase::Merging { node };
        self.events
            .push(self.now + duration, EventKind::ReduceDone { job: ji, reduce: f, run });
    }

    fn on_reduce_done(&mut self, ji: usize, f: usize, run: u32) {
        if self.jobs[ji].reduces[f].run != run {
            return; // stale: the merge was aborted (crash took its inputs)
        }
        let node = self.jobs[ji].reduces[f].node().expect("done reduce has a node");
        {
            let job = &mut self.jobs[ji];
            job.reduces[f].phase = ReducePhase::Done { node, finish: self.now };
            job.reduces_finished += 1;
            if let Some(pos) = job.reduce_nodes.iter().position(|n| *n == node) {
                job.reduce_nodes.swap_remove(pos);
            }
        }
        self.refresh_demand(ji);
        self.release_reduce_slot(node);

        let r = &mut self.jobs[ji].reduces[f];
        let fold = &mut self.scratch.fold;
        // Reduce locality: where did the bulk of its input live?
        let locality = match r.dominant_source(fold) {
            Some(src) if src == node => LocalityClass::NodeLocal,
            Some(src) if self.layout.same_rack(src, node) => LocalityClass::RackLocal,
            Some(_) => LocalityClass::Remote,
            None => LocalityClass::NodeLocal, // no input at all
        };
        let local_bytes: f64 =
            r.per_source(fold).iter().filter(|(n, _)| *n == node).map(|(_, b)| *b).sum();
        self.trace.tasks.push(TaskRecord {
            job: ji,
            kind: TaskKind::Reduce,
            index: f,
            node: node.idx(),
            assigned: r.assigned_t,
            finished: self.now,
            locality,
            net_bytes: r.received - local_bytes,
            epoch: 0,
        });
        r.clear_sources();
        self.check_job_done(ji);
    }

    fn check_job_done(&mut self, ji: usize) {
        let done = {
            let job = &mut self.jobs[ji];
            if !job.terminated() && job.is_done() {
                job.finished_at = Some(self.now);
                self.trace.jobs.push(JobRecord {
                    job: ji,
                    name: job.name.clone(),
                    submit: job.submit,
                    finished: self.now,
                });
                true
            } else {
                false
            }
        };
        if done {
            self.retire_job(ji);
        }
    }

    /// Book a terminated (completed or failed) job's departure.
    fn retire_job(&mut self, ji: usize) {
        self.jobs_done += 1;
        self.refresh_demand(ji);
        if let Some(tn) = &mut self.tenancy {
            tn.job_left(ji);
        }
    }

    /// End a placed (fetching/computing) map attempt: give back its slot,
    /// stale-out its in-flight events, take it off the running list and
    /// cancel its backup; returns the node it ran on. The caller requeues
    /// the task or fails the job, and tears down the attempt's fetch flow
    /// *before* calling this.
    fn end_map_attempt(&mut self, ji: usize, map: usize) -> NodeId {
        let node = self.jobs[ji].maps[map].node().expect("ending a placed map");
        self.release_map_slot(node);
        let job = &mut self.jobs[ji];
        job.maps[map].run += 1;
        job.maps[map].phase = MapPhase::Unassigned;
        if let Some(pos) = job.running_maps.iter().position(|x| *x == map) {
            job.running_maps.swap_remove(pos);
        }
        self.cancel_backup(ji, map);
        node
    }

    /// End a placed (shuffling/merging) reduce attempt: give back its slot,
    /// stale-out its merge and drop all shuffle progress; returns the node
    /// it ran on. The caller tears down its shuffle flows.
    fn end_reduce_attempt(&mut self, ji: usize, f: usize) -> NodeId {
        let node = self.jobs[ji].reduces[f].node().expect("ending a placed reduce");
        self.release_reduce_slot(node);
        let job = &mut self.jobs[ji];
        let r = &mut job.reduces[f];
        r.run += 1;
        r.phase = ReducePhase::Unassigned;
        r.pending.clear();
        r.active_fetches = 0;
        r.clear_sources();
        if let Some(pos) = job.reduce_nodes.iter().position(|x| *x == node) {
            job.reduce_nodes.swap_remove(pos);
        }
        node
    }

    /// Kill a placed map attempt and requeue the task.
    fn kill_map_attempt(&mut self, ji: usize, map: usize) {
        let node = self.end_map_attempt(ji, map);
        self.requeue_map(ji, map);
        self.record_task_fault(FaultKind::TaskRescheduled, node, ji, map);
    }

    /// Kill a placed reduce attempt and requeue the task.
    fn kill_reduce_attempt(&mut self, ji: usize, f: usize) {
        let node = self.end_reduce_attempt(ji, f);
        let job = &mut self.jobs[ji];
        if !job.unassigned_reduces.contains(f) {
            job.unassigned_reduces.push_back(f);
        }
        self.refresh_demand(ji);
        self.record_task_fault(FaultKind::TaskRescheduled, node, ji, f);
    }

    /// A node dies. MapReduce recovery semantics, in order:
    ///
    /// 1. its slots vanish and in-flight transfers touching it are torn
    ///    down (fetches from a dead replica reschedule their map; shuffle
    ///    fetches from it are re-sourced from the re-executed maps);
    /// 2. running tasks *on* the node (and its speculative backups) are
    ///    killed and requeued;
    /// 3. completed map outputs stored on it are invalidated — the maps
    ///    re-execute under a bumped epoch — and reducers drop whatever they
    ///    had copied from it (a merge that had consumed such bytes reverts
    ///    to shuffling).
    ///
    /// Completed *reduce* outputs are durable (DFS-replicated), as are all
    /// outputs of already-finished jobs.
    fn on_node_crash(&mut self, fault: usize) {
        let crash = self.cfg.faults.crashes[fault];
        let n = NodeId(crash.node as u32);
        self.down_depth[n.idx()] += 1;
        if self.down_depth[n.idx()] > 1 {
            return; // overlapping windows: already down
        }
        self.record_fault(FaultKind::NodeCrash, n.idx() as u32, None, None);
        self.nodes[n.idx()].alive = false;
        self.nodes[n.idx()].free_map = 0;
        self.nodes[n.idx()].free_reduce = 0;
        self.free_map_changed(n);
        self.free_reduce_changed(n);

        // 1. Tear down in-flight transfers involving the node.
        let torn = self.transfers.cancel_involving(self.now, n);
        for (tag, _src, dst) in torn {
            match tag {
                TransferTag::MapFetch { job, map } => {
                    // Dead source or dead destination: either way the
                    // fetching attempt cannot finish; kill it (the helper
                    // frees the slot only on live nodes).
                    if !self.jobs[job].terminated() {
                        self.kill_map_attempt(job, map);
                    }
                }
                TransferTag::Shuffle { job, reduce } => {
                    if dst != n && !self.jobs[job].terminated() {
                        // Reducer is alive, its source died mid-copy. The
                        // per-source cleanup below re-sources the bytes.
                        self.jobs[job].reduces[reduce].active_fetches -= 1;
                    }
                }
                TransferTag::Background { .. } => {
                    unreachable!("cancel_involving spares background flows")
                }
            }
        }

        // 2. Kill running tasks hosted on the node, and backups there.
        // Killing requeues but terminates no job, so the live jobs hold
        // still; outputs of finished jobs are durable.
        let active: Vec<usize> = (0..self.jobs.len()).filter(|&j| self.live(j)).collect();
        for &ji in &active {
            let dead_maps: Vec<usize> = self.jobs[ji]
                .running_maps
                .iter()
                .copied()
                .filter(|&m| self.jobs[ji].maps[m].node() == Some(n))
                .collect();
            for m in dead_maps {
                self.kill_map_attempt(ji, m);
            }
            let dead_reduces: Vec<usize> = self.jobs[ji]
                .reduces
                .iter()
                .enumerate()
                .filter(|(_, r)| {
                    matches!(r.phase,
                        ReducePhase::Shuffling { node } | ReducePhase::Merging { node }
                            if node == n)
                })
                .map(|(f, _)| f)
                .collect();
            for f in dead_reduces {
                self.kill_reduce_attempt(ji, f);
            }
        }
        let dead_backups: Vec<(usize, usize)> =
            self.backups.iter().filter(|(_, b)| b.node == n).map(|(&k, _)| k).collect();
        for (ji, map) in dead_backups {
            self.cancel_backup(ji, map);
        }

        // 3. Invalidate completed map outputs on the node; reducers shed
        // what they had fetched from it.
        for ji in active {
            let lost: Vec<usize> = self.jobs[ji]
                .maps
                .iter()
                .enumerate()
                .filter(|(_, m)| matches!(m.phase, MapPhase::Done { node, .. } if node == n))
                .map(|(i, _)| i)
                .collect();
            for m in lost {
                self.jobs[ji].invalidate_map_output(m);
                self.requeue_map(ji, m);
                self.record_task_fault(FaultKind::MapInvalidated, n, ji, m);
            }
            self.jobs[ji].clear_node_output(n);
            for f in 0..self.jobs[ji].reduces.len() {
                let r = &mut self.jobs[ji].reduces[f];
                if !matches!(
                    r.phase,
                    ReducePhase::Shuffling { .. } | ReducePhase::Merging { .. }
                ) {
                    continue;
                }
                let lost_bytes = r.drop_source(n, &mut self.scratch.fold);
                if lost_bytes > 0.0 {
                    if let ReducePhase::Merging { node } = r.phase {
                        // The merge consumed bytes that no longer exist;
                        // back to shuffling to await the re-executed maps.
                        r.run += 1;
                        r.phase = ReducePhase::Shuffling { node };
                    }
                }
            }
        }
        self.arm_transfer_wake();
    }

    /// A crashed node rejoins: empty disks, full free slots. Its heartbeat
    /// chain never stopped, so scheduling resumes on its next beat.
    fn on_node_recover(&mut self, fault: usize) {
        let crash = self.cfg.faults.crashes[fault];
        let n = crash.node;
        debug_assert!(self.down_depth[n] > 0, "recover without a crash");
        self.down_depth[n] = self.down_depth[n].saturating_sub(1);
        if self.down_depth[n] > 0 {
            return; // still inside an overlapping crash window
        }
        self.nodes[n].alive = true;
        self.nodes[n].free_map = self.cfg.map_slots;
        self.nodes[n].free_reduce = self.cfg.reduce_slots;
        self.free_map_changed(NodeId(n as u32));
        self.free_reduce_changed(NodeId(n as u32));
        self.record_fault(FaultKind::NodeRecover, n as u32, None, None);
    }

    /// A link-degradation window opens or closes: rescale the node's NIC
    /// links to the product of all windows currently covering it.
    fn on_link_degrade(&mut self, idx: usize, start: bool) {
        let d = self.cfg.faults.link_degradations[idx];
        if start {
            self.active_degr.push((idx, d.factor));
        } else if let Some(pos) = self.active_degr.iter().position(|(i, _)| *i == idx) {
            self.active_degr.swap_remove(pos);
        }
        let scale: f64 = self
            .active_degr
            .iter()
            .filter(|(i, _)| self.cfg.faults.link_degradations[*i].node == d.node)
            .map(|(_, f)| f)
            .product();
        self.transfers
            .scale_node_links(self.now, NodeId(d.node as u32), scale);
        self.record_fault(
            if start { FaultKind::LinkDegraded } else { FaultKind::LinkRestored },
            d.node as u32,
            None,
            None,
        );
        self.arm_transfer_wake();
    }

    /// Abort a job: a task exhausted its retry budget. All running attempts
    /// are ended, queues drained, transfers torn down; the job produces no
    /// `JobRecord` and counts as failed, not completed.
    fn fail_job(&mut self, ji: usize, node: NodeId) {
        debug_assert!(!self.jobs[ji].terminated());
        // Fetch and shuffle flows die below via `cancel_job`.
        for m in self.jobs[ji].running_maps.clone() {
            self.end_map_attempt(ji, m);
        }
        for f in 0..self.jobs[ji].reduces.len() {
            if matches!(
                self.jobs[ji].reduces[f].phase,
                ReducePhase::Shuffling { .. } | ReducePhase::Merging { .. }
            ) {
                self.end_reduce_attempt(ji, f);
            }
        }
        let job = &mut self.jobs[ji];
        debug_assert!(
            job.running_maps.is_empty() && job.reduce_nodes.is_empty(),
            "every running attempt ended"
        );
        job.unassigned_maps.clear();
        job.unassigned_reduces.clear();
        job.failed = true;
        self.jobs_failed += 1;
        self.retire_job(ji);
        let _ = self.transfers.cancel_job(self.now, ji);
        self.arm_transfer_wake();
        self.record_fault(FaultKind::JobFailed, node.idx() as u32, Some(ji as u32), None);
    }

    /// Route a finished network transfer to its consumer.
    fn handle_completion(&mut self, c: Completion) {
        if let Some(cg) = &mut self.congestion {
            if c.avg_rate.is_finite() {
                cg.monitor.observe(c.src, c.dst, c.avg_rate);
            }
        }
        self.trace.network_bytes += c.bytes;
        match c.tag {
            TransferTag::MapFetch { job, map } => {
                let node = match self.jobs[job].maps[map].phase {
                    MapPhase::Fetching { node } => node,
                    ref p => unreachable!("fetch completion in phase {p:?}"),
                };
                self.start_map_compute(job, map, node);
            }
            TransferTag::Shuffle { job, reduce } => {
                let r = &mut self.jobs[job].reduces[reduce];
                r.active_fetches -= 1;
                r.receive(c.src, c.bytes);
                self.kick_copiers(job, reduce);
                self.try_finish_shuffle(job, reduce);
            }
            TransferTag::Background { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::prob_sched::{ProbConfig, ProbabilisticPlacer};
    use pnats_workloads::{AppKind, ShuffleModel};

    fn tiny_inputs(n_jobs: usize, maps: usize, reduces: usize) -> Vec<JobInput> {
        (0..n_jobs)
            .map(|i| JobInput {
                name: format!("job{i}"),
                submit: 0.0,
                block_sizes: vec![64 << 20; maps],
                n_reduces: reduces,
                shuffle: ShuffleModel::for_app(AppKind::Terasort),
            })
            .collect()
    }

    fn run_tiny(placer: Box<dyn TaskPlacer>, seed: u64) -> SimReport {
        let cfg = SimConfig::tiny(6, seed);
        Simulation::new(cfg, placer).run(&tiny_inputs(2, 8, 3))
    }

    #[test]
    fn probabilistic_run_completes() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 7);
        assert!(r.all_completed(), "finished {}/{}", r.jobs_completed, r.jobs_submitted);
        assert_eq!(r.trace.jobs.len(), 2);
        // 2 jobs × 8 maps + 2 × 3 reduces tasks recorded.
        assert_eq!(r.trace.tasks_of(TaskKind::Map).count(), 16);
        assert_eq!(r.trace.tasks_of(TaskKind::Reduce).count(), 6);
        assert!(r.sim_end > 0.0);
    }

    /// A map completion arms one wake-up per shuffling reduce it starts a
    /// fetch for; the dispatch still refills the flow network once.
    #[test]
    fn a_map_completion_feeding_many_reduces_refills_once() {
        let inputs = tiny_inputs(1, 24, 5);
        let mut sim = Simulation::new(SimConfig::tiny(8, 7), Box::new(ProbabilisticPlacer::paper()));
        sim.prime(&inputs);
        while let Some((t, kind)) = sim.events.pop() {
            if let EventKind::MapDone { job, map, run } = kind {
                let j = &sim.jobs[job];
                let m = &j.maps[map];
                let fed = j
                    .reduces
                    .iter()
                    .filter(|r| {
                        r.active_fetches < PARALLEL_COPIES
                            && matches!(r.phase, ReducePhase::Shuffling { node } if Some(node) != m.node())
                    })
                    .count();
                if m.run == run && fed >= 3 {
                    let (refills, active) = (sim.transfers.refills(), sim.transfers.n_active());
                    sim.step(t, kind);
                    assert!(sim.transfers.n_active() >= active + 3, "{fed} reduces fed");
                    assert_eq!(sim.transfers.refills(), refills + 1);
                    return;
                }
            }
            sim.step(t, kind);
        }
        panic!("no map completion fed three shuffling reduces");
    }

    #[test]
    fn task_times_are_positive_and_ordered() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 8);
        for t in &r.trace.tasks {
            assert!(t.finished > t.assigned, "{t:?}");
        }
        for j in &r.trace.jobs {
            assert!(j.jct() > 0.0);
        }
        // Makespan bounds every completion.
        let mk = r.trace.makespan();
        assert!(r.trace.tasks.iter().all(|t| t.finished <= mk + 1e-9));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = run_tiny(Box::new(ProbabilisticPlacer::paper()), 9);
        let b = run_tiny(Box::new(ProbabilisticPlacer::paper()), 9);
        assert_eq!(a.trace.jobs.len(), b.trace.jobs.len());
        for (x, y) in a.trace.jobs.iter().zip(&b.trace.jobs) {
            assert_eq!(x.finished, y.finished);
            assert_eq!(x.name, y.name);
        }
        assert_eq!(a.trace.network_bytes, b.trace.network_bytes);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run_tiny(Box::new(ProbabilisticPlacer::paper()), 1);
        let b = run_tiny(Box::new(ProbabilisticPlacer::paper()), 2);
        let ja: Vec<f64> = a.trace.jobs.iter().map(|j| j.finished).collect();
        let jb: Vec<f64> = b.trace.jobs.iter().map(|j| j.finished).collect();
        assert_ne!(ja, jb);
    }

    #[test]
    fn impossible_p_min_starves_and_hits_time_cap() {
        let mut cfg = SimConfig::tiny(4, 3);
        cfg.max_sim_time = 500.0;
        // P_min ≈ 1: only zero-cost placements are ever taken, and reduce
        // tasks (whose cost is never exactly zero once maps spread) starve.
        let placer = ProbabilisticPlacer::new(ProbConfig::with_p_min(0.999));
        let r = Simulation::new(cfg, Box::new(placer)).run(&tiny_inputs(1, 6, 3));
        assert!(!r.all_completed(), "starvation expected");
    }

    #[test]
    fn single_map_only_job() {
        let cfg = SimConfig::tiny(3, 5);
        let inputs = vec![JobInput {
            name: "maponly".into(),
            submit: 0.0,
            block_sizes: vec![32 << 20],
            n_reduces: 0,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        }];
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(r.all_completed());
        assert_eq!(r.trace.tasks.len(), 1);
    }

    #[test]
    fn staggered_submission() {
        let cfg = SimConfig::tiny(4, 6);
        let mut inputs = tiny_inputs(2, 4, 2);
        inputs[1].submit = 50.0;
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(r.all_completed());
        let j1 = r.trace.jobs.iter().find(|j| j.name == "job1").unwrap();
        assert!(j1.submit == 50.0 && j1.finished > 50.0);
    }

    #[test]
    fn network_bytes_accounted() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 11);
        // Terasort: shuffle ≈ input; with 6 nodes most shuffle is remote.
        assert!(r.trace.network_bytes > 0.0);
        let total_input: f64 = 2.0 * 8.0 * (64u64 << 20) as f64;
        assert!(
            r.trace.network_bytes < 3.0 * total_input,
            "{} vs {}",
            r.trace.network_bytes,
            total_input
        );
    }

    #[test]
    fn utilization_timelines_consistent() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 12);
        let end = r.trace.makespan();
        let mu = r.trace.map_util.mean_utilization(0.0, end);
        assert!(mu > 0.0 && mu <= 1.0, "{mu}");
        assert!(r.trace.map_util.peak() <= 12, "6 nodes × 2 slots");
    }

    #[test]
    fn counters_satisfy_offer_identity() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 7);
        assert!(r.counters.consistent(), "{:?}", r.counters);
        assert!(r.counters.offers > 0);
        // The probabilistic placer exposes stats; its prune tally was absorbed.
        assert!(r.counters.pruned > 0, "{:?}", r.counters);
        // Default sink: no trace text.
        assert!(r.trace_jsonl.is_none());
    }

    #[test]
    fn trace_is_deterministic_under_seed() {
        let run = || {
            let cfg = SimConfig::tiny(6, 9);
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
                .run(&tiny_inputs(2, 8, 3))
        };
        let a = run();
        let b = run();
        let ta = a.trace_jsonl.expect("tracing enabled");
        let tb = b.trace_jsonl.expect("tracing enabled");
        assert!(!ta.is_empty());
        assert_eq!(ta, tb, "same seed must yield byte-identical traces");
        // One record per slot offer.
        assert_eq!(ta.lines().count() as u64, a.counters.offers);
    }

    #[test]
    fn locality_recorded_for_all_tasks() {
        let r = run_tiny(Box::new(ProbabilisticPlacer::paper()), 13);
        let loc = r.trace.locality_all();
        assert_eq!(loc.total() as usize, r.trace.tasks.len());
        // Single-rack topology: nothing can be remote.
        assert_eq!(loc.remote, 0);
    }

    #[test]
    fn background_flows_slow_things_down() {
        let inputs = tiny_inputs(1, 6, 2);
        let quiet = Simulation::new(SimConfig::tiny(4, 20), Box::new(ProbabilisticPlacer::paper()))
            .run(&inputs);
        let mut cfg = SimConfig::tiny(4, 20);
        // Saturate every NIC with crossing background flows.
        for s in 0..4usize {
            cfg.background.push(crate::config::BackgroundFlow {
                src: s,
                dst: (s + 1) % 4,
                start: 0.0,
                end: 1e6,
            });
        }
        let busy = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(quiet.all_completed() && busy.all_completed());
        assert!(
            busy.trace.makespan() > quiet.trace.makespan(),
            "background traffic must hurt: {} vs {}",
            busy.trace.makespan(),
            quiet.trace.makespan()
        );
    }

    #[test]
    fn reduce_share_cap_prevents_monopoly() {
        // Two jobs, tiny maps so both pass slowstart immediately; each job
        // may hold at most ceil(total_reduce_slots / 2) reduce slots while
        // the other still has pending demand.
        let mut cfg = SimConfig::tiny(6, 31); // 6 nodes × 1 reduce slot
        cfg.slowstart = 0.0;
        let inputs = tiny_inputs(2, 4, 12);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(r.all_completed());
        // Reconstruct concurrent reduce occupancy per job over time.
        let mut events: Vec<(f64, usize, i32)> = Vec::new();
        for t in r.trace.tasks_of(TaskKind::Reduce) {
            events.push((t.assigned, t.job, 1));
            events.push((t.finished, t.job, -1));
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut running = [0i32; 2];
        let share = 6usize.div_ceil(2) as i32;
        for (_, job, d) in events {
            running[job] += d;
            assert!(
                running[job] <= share,
                "job {job} exceeded its reduce share: {}",
                running[job]
            );
        }
    }

    #[test]
    fn ingest_confined_layout_restricts_replicas() {
        // With a confined layout and a small ingest fraction, map locality
        // must be markedly lower than under writer-local HDFS layout.
        let mk = |layout| {
            let mut cfg = SimConfig::tiny(10, 17);
            cfg.ingest_fraction = 0.2;
            cfg.data_layout = layout;
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .run(&tiny_inputs(2, 20, 3))
        };
        let hdfs = mk(crate::config::DataLayout::HdfsRackAware);
        let confined = mk(crate::config::DataLayout::IngestConfined);
        assert!(hdfs.all_completed() && confined.all_completed());
        let l_hdfs = hdfs.trace.locality_of(TaskKind::Map).pct_node_local();
        let l_conf = confined.trace.locality_of(TaskKind::Map).pct_node_local();
        assert!(
            l_conf < l_hdfs,
            "confined layout should depress locality: {l_conf} vs {l_hdfs}"
        );
    }

    #[test]
    fn speculation_rescues_stragglers() {
        // One crippled node (5% speed): without speculation its maps hold
        // the job hostage; with speculation a backup finishes elsewhere.
        // Seed 14 is pinned: the crippled node receives at least one map in
        // the no-speculation run (placement is stochastic; on seeds where
        // node 0 gets no maps, both runs finish fast and the comparison is
        // noise). If the placement stream ever changes, re-pin a seed where
        // `without` launches no backups but leaves work on node 0.
        let inputs = tiny_inputs(1, 10, 2);
        let mk = |lag: f64| {
            let mut cfg = SimConfig::tiny(5, 14);
            cfg.slow_nodes = vec![(0, 0.05)];
            cfg.speculation_lag = lag;
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs)
        };
        let without = mk(0.0);
        let with = mk(0.3);
        assert!(without.all_completed() && with.all_completed());
        assert!(
            with.trace.makespan() < without.trace.makespan(),
            "speculation should shorten the straggler-bound makespan: {} vs {}",
            with.trace.makespan(),
            without.trace.makespan()
        );
        // Counter-based evidence that speculation actually did the work:
        // a lag of 0 disables the mechanism entirely; with it on, a backup
        // won the race. The oracle holds every backup to winning or being
        // cancelled, and every slot, the killed primaries' included, to
        // being given back.
        assert_eq!(without.trace.backups_launched, 0);
        assert!(with.trace.backups_launched > 0, "no backups launched");
        assert!(with.trace.backups_won > 0, "no backup won");
        check_report(&with, &inputs).unwrap();
        // Exactly one record per map task even when backups raced.
        assert_eq!(with.trace.tasks_of(TaskKind::Map).count(), 10);
    }

    // ---- fault injection ----

    #[test]
    fn crash_with_recovery_reexecutes_lost_maps() {
        use pnats_core::faults::{FaultPlan, NodeCrash};
        let mut cfg = SimConfig::tiny(6, 9);
        // Crash a node mid-map-phase (the clean batch finishes in ~29 s);
        // recover it late enough that its lost work must re-run elsewhere.
        cfg.faults = FaultPlan {
            crashes: vec![NodeCrash { node: 2, at: 10.0, recover_at: Some(150.0) }],
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(2, 8, 3);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed(), "finished {}/{}", r.jobs_completed, r.jobs_submitted);
        crate::oracle::check_report(&r, &ins).unwrap();
        assert_eq!(r.counters.node_crashes, 1);
        // Whatever the node had completed re-ran under a bumped epoch.
        let reexec = r.trace.tasks.iter().filter(|t| t.epoch > 0).count() as u64;
        assert_eq!(reexec, r.counters.reexecuted_maps);
        assert!(reexec > 0, "node 2 should have held completed output at t=10");
        // Nothing completed on node 2 during its downtime.
        for t in &r.trace.tasks {
            if t.node == 2 {
                assert!(t.finished <= 10.0 || t.assigned >= 150.0, "{t:?}");
            }
        }
    }

    #[test]
    fn crash_without_recovery_still_completes() {
        use pnats_core::faults::{FaultPlan, NodeCrash};
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            crashes: vec![NodeCrash { node: 0, at: 25.0, recover_at: None }],
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(2, 8, 3);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed(), "survivors must finish the batch");
        crate::oracle::check_report(&r, &ins).unwrap();
        assert!(r.trace.tasks.iter().all(|t| t.node != 0 || t.finished <= 25.0));
    }

    #[test]
    fn faults_degrade_makespan() {
        use pnats_core::faults::{FaultPlan, NodeCrash};
        let ins = tiny_inputs(2, 8, 3);
        let clean = Simulation::new(SimConfig::tiny(6, 9), Box::new(ProbabilisticPlacer::paper()))
            .run(&ins);
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            crashes: vec![NodeCrash { node: 2, at: 10.0, recover_at: Some(150.0) }],
            ..FaultPlan::none()
        };
        let faulty = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(clean.all_completed() && faulty.all_completed());
        assert!(
            faulty.trace.makespan() >= clean.trace.makespan(),
            "losing a node must not speed the batch up: {} vs {}",
            faulty.trace.makespan(),
            clean.trace.makespan()
        );
    }

    #[test]
    fn transient_failures_retry_then_complete() {
        use pnats_core::faults::FaultPlan;
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            transient_map_failure_p: 0.3,
            max_attempts: 20,
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(2, 8, 3);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed());
        crate::oracle::check_report(&r, &ins).unwrap();
        assert!(r.counters.retries > 0, "p=0.3 over 16 maps should retry: {:?}", r.counters);
        assert_eq!(r.jobs_failed, 0);
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_job() {
        use pnats_core::faults::FaultPlan;
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            transient_map_failure_p: 1.0, // every attempt dies
            max_attempts: 2,
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(2, 8, 3);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert_eq!(r.jobs_failed, 2, "both jobs must abort");
        assert_eq!(r.jobs_completed, 0);
        assert!(r.trace.jobs.is_empty(), "failed jobs produce no JobRecord");
        crate::oracle::check_report(&r, &ins).unwrap();
        let job_failures = r
            .faults
            .iter()
            .filter(|f| f.kind == pnats_obs::FaultKind::JobFailed)
            .count();
        assert_eq!(job_failures, 2);
        // The run terminates promptly rather than spinning on dead jobs.
        assert!(r.sim_end < SimConfig::tiny(6, 9).max_sim_time);
    }

    #[test]
    fn heartbeat_loss_suppresses_scheduling() {
        use pnats_core::faults::{FaultPlan, HeartbeatLoss};
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            heartbeat_losses: vec![HeartbeatLoss { node: 1, from: 0.0, until: 60.0 }],
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(2, 8, 3);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed());
        crate::oracle::check_report(&r, &ins).unwrap();
        assert!(r.counters.lost_heartbeats > 0);
        // A partitioned node receives no work while silent.
        assert!(r.trace.tasks.iter().all(|t| t.node != 1 || t.assigned >= 60.0));
    }

    #[test]
    fn link_degradation_slows_the_batch() {
        use pnats_core::faults::{FaultPlan, LinkDegradation};
        let ins = tiny_inputs(2, 8, 3);
        let clean = Simulation::new(SimConfig::tiny(6, 9), Box::new(ProbabilisticPlacer::paper()))
            .run(&ins);
        let mut cfg = SimConfig::tiny(6, 9);
        cfg.faults = FaultPlan {
            link_degradations: vec![LinkDegradation {
                node: 0,
                from: 0.0,
                until: 5_000.0,
                factor: 0.02,
            }],
            ..FaultPlan::none()
        };
        let slow = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(clean.all_completed() && slow.all_completed());
        assert!(
            slow.trace.makespan() > clean.trace.makespan(),
            "a 50x slower NIC must hurt: {} vs {}",
            slow.trace.makespan(),
            clean.trace.makespan()
        );
    }

    #[test]
    fn whole_replica_set_dies_and_recovers_without_deadlock() {
        use pnats_core::faults::{FaultPlan, NodeCrash};
        // Kill EVERY node holding data (replication covers all 4 nodes in a
        // tiny cluster eventually) over a window, then recover them. The
        // scheduler must stall on NodeDead skips, not deadlock, and finish
        // after recovery.
        let mut cfg = SimConfig::tiny(4, 9);
        cfg.faults = FaultPlan {
            crashes: (0..4)
                .map(|n| NodeCrash { node: n, at: 10.0 + n as f64, recover_at: Some(300.0) })
                .collect(),
            ..FaultPlan::none()
        };
        let ins = tiny_inputs(1, 6, 2);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed(), "must finish after the cluster heals");
        crate::oracle::check_report(&r, &ins).unwrap();
        assert_eq!(r.counters.node_crashes, 4);
        // Nothing finished on a node inside its blackout (node n dies at
        // 10 + n and recovers at 300).
        for t in &r.trace.tasks {
            let dies = 10.0 + t.node as f64;
            assert!(t.finished <= dies + 1e-9 || t.finished >= 300.0, "{t:?}");
        }
    }

    #[test]
    fn faulty_runs_are_deterministic() {
        use pnats_core::faults::FaultPlan;
        let run = || {
            let mut cfg = SimConfig::tiny(6, 9);
            cfg.faults = FaultPlan::with_random_crashes(2, 6, (20.0, 200.0), Some(150.0), 77);
            cfg.faults.transient_map_failure_p = 0.15;
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
                .run(&tiny_inputs(2, 8, 3))
        };
        let a = run();
        let b = run();
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
        assert_eq!(a.trace.makespan().to_bits(), b.trace.makespan().to_bits());
        assert_eq!(a.counters.to_kv(), b.counters.to_kv());
        assert_eq!(a.faults, b.faults);
        // The fault stream is interleaved into the same trace: fault lines
        // carry a "fault" key, decision lines don't.
        let jsonl = a.trace_jsonl.unwrap();
        assert!(jsonl.lines().any(|l| l.contains("\"fault\"")));
    }

    #[test]
    fn straggler_node_slows_its_tasks() {
        let mut cfg = SimConfig::tiny(4, 21);
        cfg.slow_nodes = vec![(0, 0.2)];
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
            .run(&tiny_inputs(1, 8, 2));
        assert!(r.all_completed());
        let on_slow: Vec<f64> = r
            .trace
            .tasks_of(TaskKind::Map)
            .filter(|t| t.node == 0)
            .map(|t| t.running_time())
            .collect();
        let on_fast: Vec<f64> = r
            .trace
            .tasks_of(TaskKind::Map)
            .filter(|t| t.node != 0)
            .map(|t| t.running_time())
            .collect();
        if !on_slow.is_empty() && !on_fast.is_empty() {
            let slow_mean: f64 = on_slow.iter().sum::<f64>() / on_slow.len() as f64;
            let fast_mean: f64 = on_fast.iter().sum::<f64>() / on_fast.len() as f64;
            assert!(slow_mean > fast_mean, "{slow_mean} vs {fast_mean}");
        }
    }

    // --- Service mode (pnats-tenancy) ---

    use crate::oracle::check_report;
    use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};

    /// Inputs for `n_jobs` map-only jobs per tenant, tagged round-robin
    /// across `n_tenants`, all submitted at `submit`.
    fn tenant_inputs(
        n_tenants: usize,
        jobs_each: usize,
        maps: usize,
        submit: f64,
    ) -> (Vec<JobInput>, Vec<u32>) {
        let mut inputs = Vec::new();
        let mut tags = Vec::new();
        for j in 0..jobs_each {
            for t in 0..n_tenants {
                inputs.push(JobInput {
                    name: format!("t{t}-job{j}"),
                    submit,
                    block_sizes: vec![64 << 20; maps],
                    n_reduces: 0,
                    shuffle: ShuffleModel::for_app(AppKind::Terasort),
                });
                tags.push(t as u32);
            }
        }
        (inputs, tags)
    }

    #[test]
    fn single_tenant_passthrough_is_byte_identical() {
        let inputs = tiny_inputs(2, 8, 3);
        let run = |tenancy: Option<TenancyConfig>| {
            let mut cfg = SimConfig::tiny(6, 11);
            cfg.tenancy = tenancy;
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
                .run(&inputs)
        };
        let a = run(None);
        let b = run(Some(TenancyConfig::single_tenant(inputs.len())));
        assert_eq!(a.trace_jsonl, b.trace_jsonl, "trace must be byte-identical");
        assert_eq!(a.sim_end.to_bits(), b.sim_end.to_bits());
        assert_eq!(a.counters.to_kv(), b.counters.to_kv());
        assert_eq!(b.jobs_rejected, 0);
        assert_eq!(b.sched_wall_s, 0.0, "passthrough runs skip decision timing");
        // The passthrough run still reports its (trivial) tenant stats.
        assert_eq!(b.tenants.len(), 1);
        assert_eq!(b.tenants[0].counters.admitted, inputs.len() as u64);
        assert_eq!(a.tenants.len(), 0);
    }

    #[test]
    fn weighted_fairness_serves_heavy_tenant_first() {
        let (inputs, tags) = tenant_inputs(2, 4, 12, 0.0);
        let tenants = TenantSet::new(vec![
            TenantSpec::new("gold", 3.0),
            TenantSpec::new("bronze", 1.0),
        ]);
        let mut tc = TenancyConfig::new(tenants, tags.clone());
        tc.fairness = true;
        let mut cfg = SimConfig::tiny(4, 13);
        cfg.tenancy = Some(tc);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(r.all_completed());
        check_report(&r, &inputs).unwrap();
        let mean_jct = |tenant: u32| {
            let jcts: Vec<f64> = r
                .trace
                .jobs
                .iter()
                .filter(|j| tags[j.job] == tenant)
                .map(|j| j.jct())
                .collect();
            jcts.iter().sum::<f64>() / jcts.len() as f64
        };
        let (gold, bronze) = (mean_jct(0), mean_jct(1));
        assert!(
            gold < bronze,
            "3:1 weights must favor the heavy tenant: gold {gold} vs bronze {bronze}"
        );
        assert!(r.sched_wall_s > 0.0, "non-passthrough runs time their decisions");
    }

    #[test]
    fn admission_queue_cap_rejects_excess_jobs() {
        let (inputs, tags) = tenant_inputs(1, 6, 4, 0.0);
        let tenants = TenantSet::new(vec![TenantSpec::new("only", 1.0).with_queue_cap(2)]);
        let mut tc = TenancyConfig::new(tenants, tags);
        tc.admission = true;
        let mut cfg = SimConfig::tiny(4, 17);
        cfg.tenancy = Some(tc);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        check_report(&r, &inputs).unwrap();
        assert_eq!(r.jobs_rejected, 4, "cap 2, six simultaneous arrivals");
        assert_eq!(r.jobs_completed, 2);
        assert_eq!(r.jobs_failed, 0);
        assert_eq!(r.tenants[0].counters.rejected_queue, 4);
        assert_eq!(r.tenants[0].counters.admitted, 2);
        assert_eq!(r.tenants[0].counters.peak_in_system, 2);
        assert_eq!(r.counters.jobs_rejected, 4);
        // Rejected jobs never produced a task.
        assert_eq!(r.trace.tasks_of(TaskKind::Map).count(), 2 * 4);
    }

    #[test]
    fn saturation_backpressure_rejects_when_backlog_high() {
        let (mut inputs, tags) = tenant_inputs(1, 8, 16, 0.0);
        // Stagger arrivals one second apart so backlog builds up first.
        for (i, input) in inputs.iter_mut().enumerate() {
            input.submit = i as f64 * 1.0;
        }
        let tenants = TenantSet::new(vec![TenantSpec::new("only", 1.0)]);
        let mut tc = TenancyConfig::new(tenants, tags);
        tc.admission = true;
        tc.saturation_backlog = 1.0; // reject past one queued task per slot
        let mut cfg = SimConfig::tiny(4, 19);
        cfg.tenancy = Some(tc);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        check_report(&r, &inputs).unwrap();
        assert!(r.jobs_rejected > 0, "saturated cluster must shed load");
        assert_eq!(r.tenants[0].counters.rejected_saturated, r.jobs_rejected as u64);
        assert_eq!(r.jobs_completed + r.jobs_rejected, r.jobs_submitted);
    }

    #[test]
    fn preemption_restores_min_share_and_requeues_victims() {
        // Tenant 0 saturates every map slot with a long job; tenant 1
        // (min-share 0.5) arrives mid-run into a full cluster.
        let mut inputs = vec![JobInput {
            name: "hog".into(),
            submit: 0.0,
            block_sizes: vec![64 << 20; 80],
            n_reduces: 0,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        }];
        inputs.push(JobInput {
            name: "late".into(),
            submit: 60.0,
            block_sizes: vec![64 << 20; 16],
            n_reduces: 0,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        });
        let tenants = TenantSet::new(vec![
            TenantSpec::new("hog", 1.0),
            TenantSpec::new("late", 1.0).with_min_share(0.5),
        ]);
        let mut tc = TenancyConfig::new(tenants, vec![0, 1]);
        tc.fairness = true;
        tc.preemption = true;
        tc.preempt_cooldown_s = 1.0;
        let mut cfg = SimConfig::tiny(4, 23);
        cfg.tenancy = Some(tc);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
        assert!(r.all_completed());
        // check_report verifies every MapPreempted was requeued (law 7)
        // and map exactly-once still holds despite the kills (law 2).
        check_report(&r, &inputs).unwrap();
        assert!(r.tenants[0].counters.preempted > 0, "the hog must get preempted");
        assert_eq!(r.counters.preemptions, r.tenants[0].counters.preempted);
        assert_eq!(r.tenants[1].counters.preempted, 0);
    }

    /// The reduce share cap holds under weighted fairness too. Five jobs
    /// want the four reduce slots, so each may hold one; tenant 0's lone
    /// job heads the weighted order at every tie and would take a second
    /// slot without the cap.
    #[test]
    fn fair_reduce_order_keeps_the_share_cap() {
        let inputs = tiny_inputs(5, 4, 6);
        let tenants = TenantSet::new(vec![TenantSpec::new("a", 1.0), TenantSpec::new("b", 1.0)]);
        let mut tc = TenancyConfig::new(tenants, vec![0, 1, 1, 1, 1]);
        tc.fairness = true;
        let mut cfg = SimConfig::tiny(4, 5);
        cfg.slowstart = 0.0;
        cfg.tenancy = Some(tc);
        let total = cfg.total_reduce_slots() as usize;
        let mut sim = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()));
        sim.prime(&inputs);
        let mut capped_steps = 0;
        while let Some((t, kind)) = sim.events.pop() {
            if sim.jobs_done == sim.jobs.len() {
                break;
            }
            sim.step(t, kind);
            // Every job wants reduces from its arrival and none is ever
            // killed, so demand only falls and the cap only rises.
            let demand: usize = sim.reduce_heads.heads.iter().map(BTreeSet::len).sum();
            let share = total.div_ceil(demand.max(1));
            capped_steps += usize::from(share == 1 && sim.jobs[0].reduce_nodes.len() == 1);
            for (j, job) in sim.jobs.iter().enumerate() {
                assert!(job.reduce_nodes.len() <= share, "job {j} is over its share");
            }
        }
        assert_eq!(sim.jobs_done, inputs.len(), "every job finishes");
        assert!(capped_steps > 0, "the cap of 1 never bound tenant 0's job");
    }

    #[test]
    fn tenancy_runs_are_deterministic() {
        let (inputs, tags) = tenant_inputs(3, 2, 6, 0.0);
        let run = || {
            let tenants = TenantSet::new(vec![
                TenantSpec::new("a", 2.0),
                TenantSpec::new("b", 1.0),
                TenantSpec::new("c", 1.0).with_min_share(0.25),
            ]);
            let mut tc = TenancyConfig::new(tenants, tags.clone());
            tc.fairness = true;
            tc.preemption = true;
            let mut cfg = SimConfig::tiny(5, 29);
            cfg.tenancy = Some(tc);
            Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
                .run(&inputs)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.trace_jsonl, b.trace_jsonl);
        assert_eq!(a.sim_end.to_bits(), b.sim_end.to_bits());
        // Tenant tags ride along in the decision trace.
        let jsonl = a.trace_jsonl.as_deref().unwrap();
        assert!(jsonl.lines().any(|l| l.contains("\"tenant\":")), "tagged trace");
        check_report(&a, &inputs).unwrap();
    }
}
