//! One job book, two drivers.
//!
//! The Hadoop-1.x JobTracker bookkeeping around a placement decision —
//! who holds which map output, attempt tags, run epochs, re-execution —
//! is the same in the threaded engine and in the TCP tracker, so it lives
//! here once. [`Book`] is the clock-free, I/O-free state machine: its only
//! transition function is [`Book::apply`] over [`TaskEvent`]s, which are
//! also what the tracker's journal stores, so replaying a journal *is*
//! running the live code. [`JobScheduler`] wraps a book with everything
//! both drivers derive and do identically: splits and seeded replica
//! placement, the crash/recover round schedule, the offer loop through the
//! unmodified [`TaskPlacer`], completion intake and node loss.
//!
//! A driver keeps what genuinely differs: where progress comes from, how
//! slots free up ([`Slots`]), and what a [`Launch`] does. Every mutation a
//! driver causes goes `log.append(ev)` **then** `book.apply(ev)` inside
//! the scheduler's private `commit`; a driver holds the book read-only, so
//! there is no other way to change it.

use crate::engine::EngineConfig;
use crate::exec::split_blocks;
use pnats_core::context::{
    slowstart_gate, MapCandidate, MapSchedContext, ReduceCandidate, ReduceSchedContext,
    ShuffleSource,
};
use pnats_core::faults::FaultPlan;
use pnats_core::placer::{Decision, TaskPlacer};
use pnats_core::types::{JobId, MapTaskId, ReduceTaskId};
use pnats_dfs::{RackAware, ReplicaPlacement};
use pnats_metrics::{LocalityClass, LocalityCounter};
use pnats_net::{ClusterLayout, DistanceMatrix, NodeId, Topology};
use pnats_obs::{
    DecisionObserver, FaultKind, FaultRecord, SchedCounters, TaskCompletion, TaskKind,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

const JOB: JobId = JobId(0);

/// One task-level transition of the book — the input alphabet of
/// [`Book::apply`] and the task records of the tracker's journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TaskEvent {
    /// A map attempt was handed to a node.
    MapAssigned {
        /// Map task index.
        map: u32,
        /// Attempt tag.
        attempt: u32,
        /// Node the attempt runs on.
        node: u32,
    },
    /// A map attempt completed and was accepted.
    MapCompleted {
        /// Map task index.
        map: u32,
        /// Attempt tag of the accepted completion.
        attempt: u32,
        /// Run epoch the completion belongs to.
        epoch: u32,
        /// Node holding the output.
        node: u32,
        /// Input bytes the attempt consumed.
        d_read: u64,
        /// Intermediate bytes per reduce partition.
        part_bytes: Vec<u64>,
    },
    /// A finished map's output was lost; the map re-runs in a new epoch.
    MapInvalidated {
        /// Map task index.
        map: u32,
        /// Attempt tag the next attempt will carry.
        new_attempt: u32,
        /// The new run epoch.
        new_epoch: u32,
        /// Node banned from re-running it (source-unreachable holder), if
        /// any. A ban sticks until a later invalidation names another.
        banned: Option<u32>,
    },
    /// A running map attempt was abandoned and the task requeued.
    MapRequeued {
        /// Map task index.
        map: u32,
        /// Attempt tag the next attempt will carry.
        new_attempt: u32,
    },
    /// A reduce attempt was handed to a node.
    ReduceAssigned {
        /// Reduce task index.
        reduce: u32,
        /// Attempt tag.
        attempt: u32,
        /// Node the attempt runs on.
        node: u32,
    },
    /// A reduce attempt completed; the book holds its output.
    ReduceCompleted {
        /// Reduce task index.
        reduce: u32,
        /// Attempt tag of the accepted completion.
        attempt: u32,
        /// Final key/value pairs of this partition.
        output: Vec<(String, String)>,
    },
    /// A running reduce attempt was abandoned and the task requeued.
    ReduceRequeued {
        /// Reduce task index.
        reduce: u32,
        /// Attempt tag the next attempt will carry.
        new_attempt: u32,
    },
}

/// Where a task stands. The node rides in the variant, so "running with no
/// holder" is unrepresentable.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Phase {
    /// Waiting in the pending list.
    #[default]
    Unassigned,
    /// An attempt runs on this node.
    Running(u32),
    /// Done; the output lives on (maps) or came from (reduces) this node.
    Finished(u32),
}

impl Phase {
    /// The node running or holding the task, if any.
    pub fn holder(self) -> Option<u32> {
        match self {
            Phase::Unassigned => None,
            Phase::Running(n) | Phase::Finished(n) => Some(n),
        }
    }

    /// An attempt is running somewhere.
    pub fn is_running(self) -> bool {
        matches!(self, Phase::Running(_))
    }

    /// The task is done.
    pub fn is_finished(self) -> bool {
        matches!(self, Phase::Finished(_))
    }
}

/// One map task's row in the book.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MapTask {
    /// Unassigned, running or finished — and where.
    pub phase: Phase,
    /// Current (or next, while unassigned) attempt tag.
    pub attempt: u32,
    /// Attempts ever started: the 1-based key of the transient-failure
    /// draw and the retry budget's meter.
    pub starts: u32,
    /// Run epoch: how many times a finished output was invalidated.
    pub epoch: u32,
    /// Node the map must not be re-placed on.
    pub banned: Option<u32>,
    /// Input bytes consumed — final once finished; while running, the last
    /// reported progress (never journaled, zero after a replay).
    pub d_read: u64,
    /// Intermediate bytes per reduce partition, same lifecycle as `d_read`.
    pub part_bytes: Vec<u64>,
}

/// One reduce task's row in the book.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ReduceTask {
    /// Unassigned, running or finished — and where.
    pub phase: Phase,
    /// Current (or next, while unassigned) attempt tag.
    pub attempt: u32,
    /// Final output pairs once finished.
    pub output: Vec<(String, String)>,
}

/// The single-job scheduling state machine. Everything in it is a fold of
/// the [`TaskEvent`]s applied so far (plus reported progress of running
/// maps), so two books that saw the same events are `==`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Book {
    maps: Vec<MapTask>,
    reduces: Vec<ReduceTask>,
    pending_maps: Vec<usize>,
    pending_reduces: Vec<usize>,
    /// Holders of running reduces, one entry per reduce (Formula 3's
    /// "nodes already running a reduce of this job").
    job_reduce_nodes: Vec<NodeId>,
    maps_finished: usize,
    reduces_finished: usize,
    /// Every accepted completion, in acceptance order — the ledger
    /// [`pnats_obs::check_ledger`] audits.
    completions: Vec<TaskCompletion>,
}

fn row<'a, T>(rows: &'a mut [T], i: u32, what: &str) -> Result<&'a mut T, String> {
    let n = rows.len();
    rows.get_mut(i as usize).ok_or_else(|| format!("{what} {i} out of range {n}"))
}

fn unpend(pending: &mut Vec<usize>, task: u32) {
    let pos = pending
        .iter()
        .position(|&t| t == task as usize)
        .expect("an unassigned task is in its pending list");
    pending.swap_remove(pos);
}

fn forget_reduce_node(nodes: &mut Vec<NodeId>, node: u32) {
    let pos = nodes
        .iter()
        .position(|n| n.0 == node)
        .expect("a running reduce's holder is in job_reduce_nodes");
    nodes.swap_remove(pos);
}

impl Book {
    /// A fresh job: every task unassigned at attempt 0, pending in index
    /// order.
    pub fn new(n_maps: usize, n_reduces: usize) -> Self {
        Self {
            maps: vec![MapTask::default(); n_maps],
            reduces: vec![ReduceTask::default(); n_reduces],
            pending_maps: (0..n_maps).collect(),
            pending_reduces: (0..n_reduces).collect(),
            ..Self::default()
        }
    }

    /// The one transition function. Total: an event that does not follow
    /// from the current state (task or attempt out of range, completion of
    /// a task that is not running there, …) is an `Err` and leaves the
    /// book untouched — never a panic.
    pub fn apply(&mut self, ev: &TaskEvent) -> Result<(), String> {
        let stray = |what: &str, i: u32, phase: Phase, attempt: u32| {
            Err(format!("{what} does not follow task {i} in {phase:?} at attempt {attempt}"))
        };
        match ev {
            TaskEvent::MapAssigned { map, attempt, node } => {
                let t = row(&mut self.maps, *map, "map")?;
                if t.phase != Phase::Unassigned || t.attempt != *attempt {
                    return stray("MapAssigned", *map, t.phase, t.attempt);
                }
                t.phase = Phase::Running(*node);
                t.starts += 1;
                unpend(&mut self.pending_maps, *map);
            }
            TaskEvent::MapCompleted { map, attempt, epoch, node, d_read, part_bytes } => {
                let t = row(&mut self.maps, *map, "map")?;
                if t.phase != Phase::Running(*node) || t.attempt != *attempt || t.epoch != *epoch {
                    return stray("MapCompleted", *map, t.phase, t.attempt);
                }
                t.phase = Phase::Finished(*node);
                t.d_read = *d_read;
                t.part_bytes.clone_from(part_bytes);
                self.maps_finished += 1;
                self.completions.push(TaskCompletion {
                    kind: TaskKind::Map,
                    index: *map,
                    epoch: *epoch,
                });
            }
            TaskEvent::MapInvalidated { map, new_attempt, new_epoch, banned } => {
                let t = row(&mut self.maps, *map, "map")?;
                if !t.phase.is_finished()
                    || t.attempt.checked_add(1) != Some(*new_attempt)
                    || t.epoch.checked_add(1) != Some(*new_epoch)
                {
                    return stray("MapInvalidated", *map, t.phase, t.attempt);
                }
                t.epoch = *new_epoch;
                t.banned = banned.or(t.banned);
                self.maps_finished -= 1;
                Self::requeue_map(t, &mut self.pending_maps, *map, *new_attempt);
            }
            TaskEvent::MapRequeued { map, new_attempt } => {
                let t = row(&mut self.maps, *map, "map")?;
                if !t.phase.is_running() || t.attempt.checked_add(1) != Some(*new_attempt) {
                    return stray("MapRequeued", *map, t.phase, t.attempt);
                }
                Self::requeue_map(t, &mut self.pending_maps, *map, *new_attempt);
            }
            TaskEvent::ReduceAssigned { reduce, attempt, node } => {
                let t = row(&mut self.reduces, *reduce, "reduce")?;
                if t.phase != Phase::Unassigned || t.attempt != *attempt {
                    return stray("ReduceAssigned", *reduce, t.phase, t.attempt);
                }
                t.phase = Phase::Running(*node);
                self.job_reduce_nodes.push(NodeId(*node));
                unpend(&mut self.pending_reduces, *reduce);
            }
            TaskEvent::ReduceCompleted { reduce, attempt, output } => {
                let t = row(&mut self.reduces, *reduce, "reduce")?;
                let node = match t.phase {
                    Phase::Running(node) if t.attempt == *attempt => node,
                    _ => return stray("ReduceCompleted", *reduce, t.phase, t.attempt),
                };
                t.phase = Phase::Finished(node);
                t.output.clone_from(output);
                forget_reduce_node(&mut self.job_reduce_nodes, node);
                self.reduces_finished += 1;
                self.completions.push(TaskCompletion {
                    kind: TaskKind::Reduce,
                    index: *reduce,
                    epoch: 0,
                });
            }
            TaskEvent::ReduceRequeued { reduce, new_attempt } => {
                let t = row(&mut self.reduces, *reduce, "reduce")?;
                let node = match t.phase {
                    Phase::Running(node) if t.attempt.checked_add(1) == Some(*new_attempt) => node,
                    _ => return stray("ReduceRequeued", *reduce, t.phase, t.attempt),
                };
                t.phase = Phase::Unassigned;
                t.attempt = *new_attempt;
                forget_reduce_node(&mut self.job_reduce_nodes, node);
                self.pending_reduces.push(*reduce as usize);
            }
        }
        Ok(())
    }

    fn requeue_map(t: &mut MapTask, pending: &mut Vec<usize>, map: u32, new_attempt: u32) {
        t.phase = Phase::Unassigned;
        t.attempt = new_attempt;
        t.d_read = 0;
        t.part_bytes.clear();
        pending.push(map as usize);
    }

    /// The events a dead node implies, maps then reduces in index order:
    /// its finished map outputs are invalidated into a new epoch, its
    /// running attempts requeued. Finished reduce output is book-held,
    /// hence durable. Nothing is applied — the caller commits each event.
    pub fn node_lost(&self, node: u32) -> Vec<TaskEvent> {
        let maps = self.maps.iter().enumerate().filter_map(|(m, t)| match t.phase {
            Phase::Finished(n) if n == node => Some(TaskEvent::MapInvalidated {
                map: m as u32,
                new_attempt: t.attempt + 1,
                new_epoch: t.epoch + 1,
                banned: None,
            }),
            Phase::Running(n) if n == node => {
                Some(TaskEvent::MapRequeued { map: m as u32, new_attempt: t.attempt + 1 })
            }
            _ => None,
        });
        let running_here = |(_, t): &(usize, &ReduceTask)| t.phase == Phase::Running(node);
        let reduces = self.reduces.iter().enumerate().filter(running_here).map(|(r, t)| {
            TaskEvent::ReduceRequeued { reduce: r as u32, new_attempt: t.attempt + 1 }
        });
        maps.chain(reduces).collect()
    }

    /// Record a running map's reported progress. Ignored unless the map is
    /// running — a late report must not resurrect a requeued attempt's
    /// bytes.
    pub fn note_progress(&mut self, map: u32, d_read: u64, parts: impl Iterator<Item = u64>) {
        if let Some(t) = self.maps.get_mut(map as usize) {
            if t.phase.is_running() {
                t.d_read = d_read;
                t.part_bytes.clear();
                t.part_bytes.extend(parts);
            }
        }
    }

    /// Whether `map`'s attempt `attempt` is the one running on `node`.
    /// Total over wire input: an out-of-range index is simply `false`.
    pub fn map_running_as(&self, map: u32, attempt: u32, node: u32) -> bool {
        self.maps
            .get(map as usize)
            .is_some_and(|t| t.phase == Phase::Running(node) && t.attempt == attempt)
    }

    /// Whether `reduce`'s attempt `attempt` is the one running on `node`.
    fn reduce_running_as(&self, reduce: u32, attempt: u32, node: u32) -> bool {
        self.reduces
            .get(reduce as usize)
            .is_some_and(|t| t.phase == Phase::Running(node) && t.attempt == attempt)
    }

    /// Per-map rows, indexed by map.
    pub fn maps(&self) -> &[MapTask] {
        &self.maps
    }

    /// Per-reduce rows, indexed by reduce.
    pub fn reduces(&self) -> &[ReduceTask] {
        &self.reduces
    }

    /// Unassigned maps, in offer order.
    pub fn pending_maps(&self) -> &[usize] {
        &self.pending_maps
    }

    /// Unassigned reduces, in offer order.
    pub fn pending_reduces(&self) -> &[usize] {
        &self.pending_reduces
    }

    /// Holders of running reduces, one entry per running reduce.
    pub fn job_reduce_nodes(&self) -> &[NodeId] {
        &self.job_reduce_nodes
    }

    /// Maps currently finished.
    pub fn maps_finished(&self) -> usize {
        self.maps_finished
    }

    /// Reduces finished.
    pub fn reduces_finished(&self) -> usize {
        self.reduces_finished
    }

    /// Every task of the job is finished.
    pub fn complete(&self) -> bool {
        self.maps_finished == self.maps.len() && self.reduces_finished == self.reduces.len()
    }

    /// The completion ledger, in acceptance order.
    pub fn completions(&self) -> &[TaskCompletion] {
        &self.completions
    }

    /// Every node id the book mentions (holders and bans) — what a
    /// recovering tracker checks against its fleet size before trusting a
    /// journal.
    pub fn nodes_mentioned(&self) -> impl Iterator<Item = u32> + '_ {
        let maps = self.maps.iter().flat_map(|t| t.phase.holder().into_iter().chain(t.banned));
        maps.chain(self.reduces.iter().filter_map(|t| t.phase.holder()))
    }
}

/// Where committed events go *before* they are applied — the write-ahead
/// hook. The engine has nothing to survive and logs to `()`; the tracker
/// logs to its journal; tests record into a `Vec` and replay it.
pub trait EventLog {
    /// Make `ev` durable. Fail-stop: an implementation that cannot must
    /// panic rather than let the book run ahead of the log.
    fn append(&mut self, ev: &TaskEvent);
}

impl EventLog for () {
    fn append(&mut self, _: &TaskEvent) {}
}

impl EventLog for Vec<TaskEvent> {
    fn append(&mut self, ev: &TaskEvent) {
        self.push(ev.clone());
    }
}

/// Free slots per node, owned by the driver (slots free up on a completion
/// message in the engine, on a heartbeat sync in the tracker). A node that
/// cannot take work — dead, unregistered, scripted down — must read 0.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slots {
    /// Free map slots, indexed by node.
    pub map: Vec<u32>,
    /// Free reduce slots, indexed by node.
    pub reduce: Vec<u32>,
}

impl Slots {
    /// `n_nodes` nodes with `map`/`reduce` free slots each.
    pub fn new(n_nodes: usize, map: u32, reduce: u32) -> Self {
        Self { map: vec![map; n_nodes], reduce: vec![reduce; n_nodes] }
    }

    /// Overwrite one node's free counts.
    pub fn set(&mut self, node: usize, map: u32, reduce: u32) {
        self.map[node] = map;
        self.reduce[node] = reduce;
    }
}

fn free_nodes(free: &[u32]) -> Vec<NodeId> {
    (0..free.len()).filter(|&n| free[n] > 0).map(|n| NodeId(n as u32)).collect()
}

/// One assignment the offer loop made; the driver decides what it *does*
/// (spawn a thread, ride a heartbeat reply).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Launch {
    /// Run a map attempt.
    Map {
        /// Map task index.
        map: u32,
        /// Attempt tag the completion must carry.
        attempt: u32,
        /// Whether the seeded draw dooms this attempt to fail transiently.
        doomed: bool,
    },
    /// Run a reduce attempt.
    Reduce {
        /// Reduce task index.
        reduce: u32,
        /// Attempt tag the completion must carry.
        attempt: u32,
    },
}

/// What [`JobScheduler::map_done`] made of a completion report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// First report of the current attempt: committed.
    Accepted,
    /// The same attempt, already committed (a retried delivery); the held
    /// output is still the valid one.
    Duplicate,
    /// An attempt the book has since abandoned; its bytes are garbage.
    Stale,
}

/// A scripted node fault. [`JobScheduler::begin_round`] returns the ones
/// that fell due, nested crash windows already collapsed to their outer
/// edges. Ordered so that within a round crashes sort before recoveries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum NodeFault {
    /// The node goes down.
    Crash(usize),
    /// The node's last crash window ended.
    Recover(usize),
}

/// What a finished (or aborted) run hands back to its driver's report.
pub struct Outcome {
    /// Final pairs, partition-major.
    pub output: Vec<(String, String)>,
    /// Where each map assignment ran relative to its block.
    pub map_locality: LocalityCounter,
    /// Where each reduce ran relative to its dominant shuffle source.
    pub reduce_locality: LocalityCounter,
    /// Decision and fault counters.
    pub counters: SchedCounters,
    /// The decision trace, when an in-memory sink was attached.
    pub trace_jsonl: Option<String>,
    /// The completion ledger.
    pub completions: Vec<TaskCompletion>,
}

/// A [`Book`] plus everything both drivers derive from `(cfg, input)` and
/// do identically around it. Generic over the write-ahead log only.
pub struct JobScheduler<L> {
    book: Book,
    log: L,
    blocks: Arc<Vec<String>>,
    map_cands: Vec<MapCandidate>,
    bytes_total: u64,
    hops: Arc<DistanceMatrix>,
    layout: ClusterLayout,
    placer: Box<dyn TaskPlacer>,
    observer: DecisionObserver,
    rng: SmallRng,
    seed: u64,
    faults: FaultPlan,
    slowstart: f64,
    /// The fault plan's crash windows as `(round, edge)`, sorted.
    fault_rounds: Vec<(u64, NodeFault)>,
    next_fault: usize,
    down_depth: Vec<u32>,
    now: f64,
    // Per-incarnation tallies: booked by the live paths below, not by
    // `apply`, so a replayed book does not restore them.
    map_locality: LocalityCounter,
    reduce_locality: LocalityCounter,
}

impl<L: EventLog> JobScheduler<L> {
    /// Derive the job: split `input`, place replicas rack-aware from the
    /// seeded RNG (which then keeps feeding the placer), build the map
    /// candidates and the crash/recover round schedule. Same `cfg`, same
    /// input ⇒ the same job in every driver.
    pub fn derive(
        cfg: &EngineConfig,
        input: &str,
        n_reduces: usize,
        placer: Box<dyn TaskPlacer>,
        observer: DecisionObserver,
        log: L,
    ) -> Self {
        cfg.faults.validate(cfg.n_nodes).expect("invalid fault plan");
        let topo = Topology::single_rack(cfg.n_nodes, 1e9);
        let layout = topo.layout().clone();
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        let blocks = split_blocks(input, cfg.block_bytes);
        let map_cands: Vec<MapCandidate> = blocks
            .iter()
            .enumerate()
            .map(|(j, b)| {
                let writer = pnats_dfs::placement::random_writer(&layout, &mut rng);
                MapCandidate {
                    task: MapTaskId { job: JOB, index: j as u32 },
                    block_size: b.len() as u64,
                    replicas: RackAware.place(writer, cfg.replication, &layout, &mut rng),
                }
            })
            .collect();
        let mut fault_rounds: Vec<(u64, NodeFault)> = Vec::new();
        for c in &cfg.faults.crashes {
            fault_rounds.push((c.at as u64, NodeFault::Crash(c.node)));
            if let Some(r) = c.recover_at {
                fault_rounds.push((r as u64, NodeFault::Recover(c.node)));
            }
        }
        fault_rounds.sort_unstable();
        Self {
            book: Book::new(blocks.len(), n_reduces),
            log,
            bytes_total: blocks.iter().map(|b| b.len() as u64).sum(),
            blocks: Arc::new(blocks),
            map_cands,
            hops: Arc::new(DistanceMatrix::hops(&topo)),
            layout,
            placer,
            observer,
            rng,
            seed: cfg.seed,
            faults: cfg.faults.clone(),
            slowstart: cfg.slowstart,
            fault_rounds,
            next_fault: 0,
            down_depth: vec![0; cfg.n_nodes],
            now: 0.0,
            map_locality: LocalityCounter::default(),
            reduce_locality: LocalityCounter::default(),
        }
    }

    /// The book, read-only: drivers change it only by what they report.
    pub fn book(&self) -> &Book {
        &self.book
    }

    /// Replace the book with one folded from a journal (tracker recovery).
    pub fn restore(&mut self, book: Book) {
        self.book = book;
    }

    /// The write-ahead log, for the driver's own non-task records.
    pub fn log_mut(&mut self) -> &mut L {
        &mut self.log
    }

    /// Input blocks, indexed by map.
    pub fn blocks(&self) -> &Arc<Vec<String>> {
        &self.blocks
    }

    /// Nodes holding a replica of `map`'s block.
    pub fn replicas(&self, map: usize) -> &[NodeId] {
        &self.map_cands[map].replicas
    }

    /// Hop-count distances of the (single-rack) cluster.
    pub fn hops(&self) -> &Arc<DistanceMatrix> {
        &self.hops
    }

    /// The observer, for driver-only records (recovery tallies).
    pub fn observer_mut(&mut self) -> &mut DecisionObserver {
        &mut self.observer
    }

    /// Set the clock stamped on decisions and fault records from here on,
    /// in seconds since the driver started. The scheduler never reads a
    /// clock of its own.
    pub fn set_now(&mut self, now: f64) {
        self.now = now;
    }

    /// Book one fault record at the current clock.
    pub fn fault(&mut self, kind: FaultKind, node: u32, task: Option<u32>) {
        let job = (task.is_some() || kind == FaultKind::JobFailed).then_some(0);
        self.observer.observe_fault(&FaultRecord { t: self.now, kind, node, job, task });
    }

    /// The one mutation path: log the event, then apply it. A refusal here
    /// means a decision was made against the book that the book forbids —
    /// a bug in this module or its driver.
    fn commit(&mut self, ev: &TaskEvent) {
        self.log.append(ev);
        self.book.apply(ev).expect("drivers emit only events the book allows");
    }

    /// Commit a requeue or invalidation and book the fault record it
    /// implies against `node`.
    pub fn retract(&mut self, ev: &TaskEvent, node: u32) {
        let (kind, task) = match *ev {
            TaskEvent::MapInvalidated { map, .. } => (FaultKind::MapInvalidated, map),
            TaskEvent::MapRequeued { map, .. } => (FaultKind::TaskRescheduled, map),
            TaskEvent::ReduceRequeued { reduce, .. } => (FaultKind::TaskRescheduled, reduce),
            _ => unreachable!("retract takes requeues and invalidations, got {ev:?}"),
        };
        self.commit(ev);
        self.fault(kind, node, Some(task));
    }

    /// Kill a node's contribution to the job: commit everything
    /// [`Book::node_lost`] implies. Returns the events so the driver can
    /// drop what it held for them.
    pub fn lose_node(&mut self, node: usize) -> Vec<TaskEvent> {
        let events = self.book.node_lost(node as u32);
        for ev in &events {
            self.retract(ev, node as u32);
        }
        events
    }

    /// Start heartbeat round `round`: tick the placer and observer, and
    /// return the scripted crash/recover edges that fell due.
    pub fn begin_round(&mut self, round: u64) -> Vec<NodeFault> {
        self.placer.on_heartbeat_round(round);
        self.observer.begin_round(round);
        let mut due = Vec::new();
        while let Some(&(at, fault)) = self.fault_rounds.get(self.next_fault) {
            if at > round {
                break;
            }
            self.next_fault += 1;
            let edge = match fault {
                NodeFault::Crash(n) => {
                    self.down_depth[n] += 1;
                    self.down_depth[n] == 1
                }
                NodeFault::Recover(n) => {
                    self.down_depth[n] = self.down_depth[n].saturating_sub(1);
                    self.down_depth[n] == 0
                }
            };
            if edge {
                due.push(fault);
            }
        }
        due
    }

    /// Whether `node` is inside a scripted crash window.
    pub fn is_down(&self, node: usize) -> bool {
        self.down_depth[node] > 0
    }

    /// Every node scripted down with no recovery ahead: the remaining work
    /// can never finish.
    pub fn permanent_blackout(&self) -> bool {
        self.down_depth.iter().all(|&d| d > 0)
            && !self.fault_rounds[self.next_fault..]
                .iter()
                .any(|e| matches!(e.1, NodeFault::Recover(_)))
    }

    /// Fill `node`'s free slots through the placer: map offers over the
    /// pending maps not banned on this node, then — past the slowstart
    /// gate — reduce offers with shuffle sources from the book. Each
    /// assignment is committed before the next offer sees the book.
    pub fn offer(&mut self, node: NodeId, slots: &mut Slots) -> Vec<Launch> {
        let n = node.idx();
        let mut out = Vec::new();
        while slots.map[n] > 0 {
            let offerable: Vec<usize> = self
                .book
                .pending_maps
                .iter()
                .copied()
                .filter(|&m| self.book.maps[m].banned != Some(node.0))
                .collect();
            if offerable.is_empty() {
                break;
            }
            let cands: Vec<MapCandidate> =
                offerable.iter().map(|&m| self.map_cands[m].clone()).collect();
            let free = free_nodes(&slots.map);
            let ctx = MapSchedContext::new(JOB, &cands, &free, self.hops.as_ref(), &self.layout)
                .at(self.now);
            let decision = self.placer.place_map(&ctx, node, &mut self.rng);
            self.observer.observe_map(&ctx, node, decision, self.placer.last_detail());
            let Decision::Assign(i) = decision else { break };
            let m = offerable[i];
            let attempt = self.book.maps[m].attempt;
            self.commit(&TaskEvent::MapAssigned { map: m as u32, attempt, node: node.0 });
            slots.map[n] -= 1;
            self.map_locality.record(if cands[i].is_local_to(node) {
                LocalityClass::NodeLocal
            } else if cands[i].is_rack_local_to(node, &self.layout) {
                LocalityClass::RackLocal
            } else {
                LocalityClass::Remote
            });
            // The 1-based start count keys the draw, as in the simulator,
            // so transient-failure verdicts agree across runtimes.
            let doomed = self.faults.transient_map_failure_p > 0.0
                && self.faults.map_attempt_fails(self.seed, m, self.book.maps[m].starts);
            out.push(Launch::Map { map: m as u32, attempt, doomed });
        }

        let (n_maps, n_reduces) = (self.book.maps.len(), self.book.reduces.len());
        if self.book.maps_finished < slowstart_gate(self.slowstart, n_maps) {
            return out;
        }
        while slots.reduce[n] > 0 && !self.book.pending_reduces.is_empty() {
            let cands: Vec<ReduceCandidate> = self
                .book
                .pending_reduces
                .iter()
                .map(|&f| ReduceCandidate {
                    task: ReduceTaskId { job: JOB, index: f as u32 },
                    sources: self.shuffle_sources(f),
                })
                .collect();
            let free = free_nodes(&slots.reduce);
            let read_total: u64 = self.book.maps.iter().map(|t| t.d_read).sum();
            let ctx = ReduceSchedContext::new(JOB, &cands, &free, self.hops.as_ref(), &self.layout)
                .running_on(&self.book.job_reduce_nodes)
                .map_phase(
                    read_total as f64 / self.bytes_total.max(1) as f64,
                    self.book.maps_finished,
                    n_maps,
                )
                .reduce_phase(n_reduces - self.book.pending_reduces.len(), n_reduces)
                .at(self.now);
            let decision = self.placer.place_reduce(&ctx, node, &mut self.rng);
            self.observer.observe_reduce(&ctx, node, decision, self.placer.last_detail());
            let Decision::Assign(i) = decision else { break };
            let reduce = self.book.pending_reduces[i] as u32;
            let attempt = self.book.reduces[reduce as usize].attempt;
            self.commit(&TaskEvent::ReduceAssigned { reduce, attempt, node: node.0 });
            slots.reduce[n] -= 1;
            out.push(Launch::Reduce { reduce, attempt });
        }
        out
    }

    /// One reduce partition's shuffle sources: every placed map (running
    /// or finished), with its progress as the book knows it.
    fn shuffle_sources(&self, partition: usize) -> Vec<ShuffleSource> {
        let placed = self.book.maps.iter().zip(self.map_cands.iter());
        placed
            .filter_map(|(t, cand)| {
                t.phase.holder().map(|h| ShuffleSource {
                    node: NodeId(h),
                    current_bytes: t.part_bytes.get(partition).copied().unwrap_or(0) as f64,
                    input_read: t.d_read,
                    input_total: cand.block_size,
                })
            })
            .collect()
    }

    /// A node reports a map attempt complete with these per-partition
    /// byte sizes.
    pub fn map_done(&mut self, map: u32, attempt: u32, node: u32, part_bytes: &[u64]) -> Verdict {
        match self.book.maps.get(map as usize) {
            Some(t) if t.attempt == attempt && t.phase == Phase::Running(node) => {
                let (epoch, d_read) = (t.epoch, self.map_cands[map as usize].block_size);
                let part_bytes = part_bytes.to_vec();
                self.commit(&TaskEvent::MapCompleted {
                    map,
                    attempt,
                    epoch,
                    node,
                    d_read,
                    part_bytes,
                });
                Verdict::Accepted
            }
            Some(t) if t.attempt == attempt && t.phase == Phase::Finished(node) => {
                Verdict::Duplicate
            }
            _ => Verdict::Stale,
        }
    }

    /// A node reports a transient failure of a map attempt. `None` for a
    /// stale or duplicate report; otherwise the attempt is requeued and
    /// `Some(exhausted)` says whether the map has now burned its whole
    /// retry budget (the job must fail).
    pub fn map_failed(&mut self, map: u32, attempt: u32, node: u32) -> Option<bool> {
        if !self.book.map_running_as(map, attempt, node) {
            return None;
        }
        self.commit(&TaskEvent::MapRequeued { map, new_attempt: attempt + 1 });
        self.fault(FaultKind::TransientFailure, node, Some(map));
        let exhausted = self.book.maps[map as usize].starts >= self.faults.max_attempts;
        if exhausted {
            self.fault(FaultKind::JobFailed, node, Some(map));
        }
        Some(exhausted)
    }

    /// A node reports a reduce attempt complete. Returns whether it was
    /// accepted (stale and duplicate reports are dropped); `sources` are
    /// the shuffle bytes pulled per node, for locality accounting.
    pub fn reduce_done(
        &mut self,
        reduce: u32,
        attempt: u32,
        node: u32,
        output: Vec<(String, String)>,
        sources: &[(u32, u64)],
    ) -> bool {
        if !self.book.reduce_running_as(reduce, attempt, node) {
            return false;
        }
        self.commit(&TaskEvent::ReduceCompleted { reduce, attempt, output });
        let nid = NodeId(node);
        let dominant = sources.iter().max_by_key(|(_, b)| *b).map(|(s, _)| NodeId(*s));
        self.reduce_locality.record(match dominant {
            Some(d) if d == nid => LocalityClass::NodeLocal,
            Some(d) if self.layout.same_rack(d, nid) => LocalityClass::RackLocal,
            Some(_) => LocalityClass::Remote,
            None => LocalityClass::NodeLocal,
        });
        true
    }

    /// Forward a running map's reported progress to the book.
    pub fn note_progress(&mut self, map: u32, d_read: u64, parts: impl Iterator<Item = u64>) {
        self.book.note_progress(map, d_read, parts);
    }

    /// Close the run: fold the placer's tallies into the counters, flush
    /// the trace, and move the output and ledger out of the book.
    pub fn finish(&mut self) -> Outcome {
        if let Some(stats) = self.placer.stats() {
            self.observer.absorb_placer(stats);
        }
        self.observer.flush();
        let trace_jsonl = self.observer.drain_jsonl();
        Outcome {
            output: self.book.reduces.iter_mut().flat_map(|t| t.output.drain(..)).collect(),
            map_locality: self.map_locality,
            reduce_locality: self.reduce_locality,
            counters: self.observer.counters().clone(),
            trace_jsonl,
            completions: std::mem::take(&mut self.book.completions),
        }
    }
}
