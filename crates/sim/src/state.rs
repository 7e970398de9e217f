//! Cluster, job and task state.
//!
//! Tasks are explicit state machines; *time-varying* quantities (map
//! progress `d_read`, current intermediate size `A_jf`) are pure functions
//! of state and the query time, so heartbeat "reports" never need to be
//! stored or synchronized — exactly the information a Hadoop heartbeat
//! would carry, derived on demand.
//!
//! The collections here are sized for 10k-node / 1M-task runs: pending
//! task queues are intrusive [`PendingList`]s (O(1) remove), pending
//! shuffle fetches merge per source node through an index, per-node
//! tables (`done_outputs`, `local_maps`) are sparse instead of
//! `O(n_nodes)` vectors per job, and aggregate map progress is an integer
//! counter instead of an `O(maps)` sweep. Every replacement preserves the
//! iteration order and membership of the structure it replaced, so
//! decision traces are byte-identical. The sparse maps hash their `u32`
//! keys with one multiply ([`IdMap`]), not SipHash. Received shuffle bytes
//! are appended to a per-reduce log, `O(receives)` and dropped when the
//! reduce finishes, and folded per source only when read ([`SourceFold`]):
//! every fetch lands one, and a per-source ledger cost each a hash probe
//! and a scattered write.

use crate::config::JobInput;
use crate::freeset::PendingList;
use pnats_core::context::{MapCandidate, ReduceCandidate, ShuffleSource};
use pnats_core::types::{JobId, MapTaskId, ReduceTaskId};
use pnats_metrics::LocalityClass;
use pnats_net::NodeId;
use pnats_workloads::ShuffleModel;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by a node or task id.
///
/// Its keys are small integers the simulator itself hands out, so the
/// SipHash flooding defence buys nothing, and no reader iterates one of
/// these maps (the order lives in a side list), so the hasher cannot move
/// a result.
pub type IdMap<V> = HashMap<u32, V, BuildHasherDefault<IdHasher>>;

/// Multiply-rotate hashing of integer keys (the Fx hash of rustc).
#[derive(Clone, Copy, Default)]
pub struct IdHasher(u64);

impl IdHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Per-node slot availability.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// Free map slots.
    pub free_map: u32,
    /// Free reduce slots.
    pub free_reduce: u32,
    /// Compute speed factor (1.0 = nominal).
    pub speed: f64,
    /// Whether the node is up. Dead nodes hold no slots, receive no
    /// assignments and their stored map outputs are unreadable.
    pub alive: bool,
}

/// Map task lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum MapPhase {
    /// Not yet placed.
    Unassigned,
    /// Fetching its input block from a remote replica.
    Fetching {
        /// Execution node.
        node: NodeId,
    },
    /// Computing; progress is linear between `start` and `start + duration`.
    Computing {
        /// Execution node.
        node: NodeId,
        /// Compute start time.
        start: f64,
        /// Compute duration.
        duration: f64,
    },
    /// Finished.
    Done {
        /// Execution node.
        node: NodeId,
        /// Completion time.
        finish: f64,
    },
}

/// One map task.
#[derive(Clone, Debug)]
pub struct MapTask {
    /// Lifecycle phase.
    pub phase: MapPhase,
    /// Input block size (`B_j`).
    pub block: u64,
    /// Effective shuffle selectivity (drawn at placement).
    pub selectivity: f64,
    /// Per-reduce partition weights (`w_jf`, sum 1; materialized at
    /// placement).
    pub weights: Vec<f64>,
    /// Time the task was assigned.
    pub assigned_t: f64,
    /// Locality of its placement.
    pub locality: LocalityClass,
    /// Attempt id; bumped whenever the current attempt is killed so
    /// in-flight completion events for it become stale.
    pub run: u32,
    /// Output epoch; bumped when a *completed* output is invalidated by a
    /// node crash and the map must re-execute.
    pub epoch: u32,
    /// Execution attempts started so far (bounds transient-failure
    /// retries).
    pub attempts: u32,
}

impl MapTask {
    /// Execution node, if placed.
    pub fn node(&self) -> Option<NodeId> {
        match self.phase {
            MapPhase::Unassigned => None,
            MapPhase::Fetching { node }
            | MapPhase::Computing { node, .. }
            | MapPhase::Done { node, .. } => Some(node),
        }
    }

    /// `d_read` at time `t`: input bytes consumed so far.
    pub fn input_read(&self, t: f64) -> u64 {
        match self.phase {
            MapPhase::Unassigned | MapPhase::Fetching { .. } => 0,
            MapPhase::Computing { start, duration, .. } => {
                let frac = ((t - start) / duration).clamp(0.0, 1.0);
                (self.block as f64 * frac) as u64
            }
            MapPhase::Done { .. } => self.block,
        }
    }

    /// `I_jf`: final intermediate bytes for partition `f`.
    pub fn final_bytes_for(&self, f: usize) -> f64 {
        self.block as f64 * self.selectivity * self.weights[f]
    }

    /// Whether the task has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, MapPhase::Done { .. })
    }
}

/// Reduce task lifecycle.
#[derive(Clone, Debug, PartialEq)]
pub enum ReducePhase {
    /// Not yet placed.
    Unassigned,
    /// Placed; copying map outputs as they become available.
    Shuffling {
        /// Execution node.
        node: NodeId,
    },
    /// All inputs local; merging + reducing.
    Merging {
        /// Execution node.
        node: NodeId,
    },
    /// Finished.
    Done {
        /// Execution node.
        node: NodeId,
        /// Completion time.
        finish: f64,
    },
}

/// FIFO queue of pending shuffle fetches, aggregated per source node.
///
/// Same observable behaviour as the `VecDeque<(NodeId, f64)>` it replaced —
/// first-enqueue order, merge-on-repeat — but the merge is an O(1) map
/// update instead of a linear scan over the queue.
#[derive(Clone, Debug, Default)]
pub struct SourceQueue {
    order: VecDeque<NodeId>,
    amt: IdMap<f64>,
}

impl SourceQueue {
    /// Queued sources.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Queue `bytes` from `src`, merging into an existing entry (position
    /// unchanged) if one is already queued.
    pub fn push(&mut self, src: NodeId, bytes: f64) {
        match self.amt.entry(src.0) {
            std::collections::hash_map::Entry::Occupied(mut e) => *e.get_mut() += bytes,
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(bytes);
                self.order.push_back(src);
            }
        }
    }

    /// Dequeue the oldest source with its accumulated bytes.
    pub fn pop_front(&mut self) -> Option<(NodeId, f64)> {
        let src = self.order.pop_front()?;
        let bytes = self.amt.remove(&src.0).expect("queue/amount desync");
        Some((src, bytes))
    }

    /// Drop any queued fetch from `src` (node crash).
    fn remove_source(&mut self, src: NodeId) {
        if self.amt.remove(&src.0).is_some() {
            self.order.retain(|s| *s != src);
        }
    }

    /// Drop everything.
    pub fn clear(&mut self) {
        self.order.clear();
        self.amt.clear();
    }

    /// Iterate `(source, bytes)` in queue order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.order.iter().map(|s| (*s, self.amt[&s.0]))
    }
}

/// Folds receive logs into per-source totals ([`ReduceTask::per_source`]).
/// One serves every reduce in turn, so its node index is sized once.
#[derive(Debug, Default)]
pub struct SourceFold {
    /// Node → 1 + its position in `sums`, 0 if absent (non-zero only for
    /// the last fold's sources).
    at: Vec<u32>,
    sums: Vec<(NodeId, f64)>,
}

impl SourceFold {
    fn fold(&mut self, log: &[(NodeId, f64)]) -> &[(NodeId, f64)] {
        for (src, _) in self.sums.drain(..) {
            self.at[src.idx()] = 0;
        }
        for &(src, bytes) in log {
            if src.idx() >= self.at.len() {
                self.at.resize(src.idx() + 1, 0);
            }
            match self.at[src.idx()] {
                0 => {
                    self.sums.push((src, bytes));
                    self.at[src.idx()] = self.sums.len() as u32;
                }
                k => self.sums[k as usize - 1].1 += bytes,
            }
        }
        &self.sums
    }
}

/// One reduce task.
#[derive(Clone, Debug)]
pub struct ReduceTask {
    /// Lifecycle phase.
    pub phase: ReducePhase,
    /// Fetches not yet started, aggregated per source node.
    pub pending: SourceQueue,
    /// Fetch flows currently in the network.
    pub active_fetches: usize,
    /// Shuffle bytes received so far.
    pub received: f64,
    /// Every receive as `(source, bytes)`, in arrival order; folded into
    /// per-source totals only when read.
    log: Vec<(NodeId, f64)>,
    /// Assignment time.
    pub assigned_t: f64,
    /// Attempt id; bumped whenever the current attempt is killed or sent
    /// back to shuffling, so in-flight `ReduceDone` events become stale.
    pub run: u32,
}

impl ReduceTask {
    fn new() -> Self {
        Self {
            phase: ReducePhase::Unassigned,
            pending: SourceQueue::default(),
            active_fetches: 0,
            received: 0.0,
            log: Vec::new(),
            assigned_t: 0.0,
            run: 0,
        }
    }

    /// Execution node, if placed.
    pub fn node(&self) -> Option<NodeId> {
        match self.phase {
            ReducePhase::Unassigned => None,
            ReducePhase::Shuffling { node }
            | ReducePhase::Merging { node }
            | ReducePhase::Done { node, .. } => Some(node),
        }
    }

    /// Queue `bytes` from `src`, merging with an existing pending entry.
    pub fn enqueue(&mut self, src: NodeId, bytes: f64) {
        if bytes <= 0.0 {
            return;
        }
        self.pending.push(src, bytes);
    }

    /// Account received bytes from `src`.
    pub fn receive(&mut self, src: NodeId, bytes: f64) {
        self.received += bytes;
        self.log.push((src, bytes));
    }

    /// Bytes received from each source node, in first-receive order: each
    /// its receives added in arrival order, a per-receive ledger's bits.
    pub fn per_source<'f>(&self, fold: &'f mut SourceFold) -> &'f [(NodeId, f64)] {
        fold.fold(&self.log)
    }

    /// Forget everything `src` contributed — pending fetch and received
    /// bytes — returning the lost byte count (node-crash recovery). The
    /// survivors are re-logged as totals in a ledger's `swap_remove` order.
    pub fn drop_source(&mut self, src: NodeId, fold: &mut SourceFold) -> f64 {
        self.pending.remove_source(src);
        let sums = fold.fold(&self.log);
        let Some(pos) = sums.iter().position(|(n, _)| *n == src) else { return 0.0 };
        self.log = sums.to_vec();
        let (_, bytes) = self.log.swap_remove(pos);
        self.received -= bytes;
        bytes
    }

    /// Reset all shuffle accounting and free the log (attempt killed
    /// outright, or finished and recorded).
    pub fn clear_sources(&mut self) {
        self.received = 0.0;
        self.log = Vec::new();
    }

    /// The source node contributing the most bytes (reduce locality).
    pub fn dominant_source(&self, fold: &mut SourceFold) -> Option<NodeId> {
        self.per_source(fold).iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(n, _)| *n)
    }

    /// Whether the task has completed.
    pub fn is_done(&self) -> bool {
        matches!(self.phase, ReducePhase::Done { .. })
    }
}

/// One job's full scheduling state.
pub struct JobState {
    /// Stable job id (index into the simulation's job table).
    pub id: JobId,
    /// Display name.
    pub name: String,
    /// Submission time.
    pub submit: f64,
    /// Shuffle model.
    pub shuffle: ShuffleModel,
    /// Base partition weights `w_f` (drawn once per job).
    pub base_weights: Vec<f64>,
    /// Precomputed placement candidates (block size + replicas).
    pub map_cands: Vec<MapCandidate>,
    /// Map tasks.
    pub maps: Vec<MapTask>,
    /// Reduce tasks.
    pub reduces: Vec<ReduceTask>,
    /// Unassigned map tasks in offer order (front = next offered).
    pub unassigned_maps: PendingList,
    /// Per-node index of map tasks with a local replica — Hadoop's
    /// node-local task cache. Sparse: only nodes holding a replica have an
    /// entry. Entries are cleaned lazily as tasks assign.
    pub local_maps: IdMap<Vec<u32>>,
    /// Unassigned reduce tasks in offer order.
    pub unassigned_reduces: PendingList,
    /// Every node that has ever held finished map output of this job, in
    /// ascending order, with its aggregate output bytes indexed
    /// `[partition]` (incrementally maintained so reduce contexts build in
    /// O(output nodes + running maps) instead of O(all maps)). A node whose
    /// disks were lost keeps its place with an empty aggregate.
    pub done_outputs: Vec<(u32, Vec<f64>)>,
    /// Indices of currently running (placed, unfinished) map tasks.
    pub running_maps: Vec<usize>,
    /// Total map input bytes (`Σ B_j`), fixed at construction.
    pub input_total: u64,
    /// Input bytes of currently-valid *finished* maps; decremented when a
    /// crash invalidates an output. With the running maps' partial reads
    /// this reproduces the old full-sweep progress sum exactly (`u64`
    /// addition is associative/commutative, so the total is bit-identical).
    pub input_done: u64,
    /// Completed map count.
    pub maps_finished: usize,
    /// Completed reduce count.
    pub reduces_finished: usize,
    /// Nodes currently hosting a reduce of this job.
    pub reduce_nodes: Vec<NodeId>,
    /// Completion time, once done.
    pub finished_at: Option<f64>,
    /// Whether the job was aborted (a task exhausted its retry budget).
    pub failed: bool,
}

impl JobState {
    /// Build job state from its input spec; replica locations are supplied
    /// by the runner (which owns the block store).
    pub fn new(
        id: JobId,
        input: &JobInput,
        replicas_per_block: Vec<Vec<NodeId>>,
        rng: &mut SmallRng,
    ) -> Self {
        assert_eq!(replicas_per_block.len(), input.block_sizes.len());
        let base_weights = input.shuffle.partition_weights(input.n_reduces.max(1), rng);
        let map_cands: Vec<MapCandidate> = input
            .block_sizes
            .iter()
            .zip(&replicas_per_block)
            .enumerate()
            .map(|(j, (size, reps))| MapCandidate {
                task: MapTaskId { job: id, index: j as u32 },
                block_size: *size,
                replicas: reps.clone(),
            })
            .collect();
        let maps: Vec<MapTask> = input
            .block_sizes
            .iter()
            .map(|size| MapTask {
                phase: MapPhase::Unassigned,
                block: *size,
                selectivity: 0.0,
                weights: Vec::new(),
                assigned_t: 0.0,
                locality: LocalityClass::Remote,
                run: 0,
                epoch: 0,
                attempts: 0,
            })
            .collect();
        let reduces = (0..input.n_reduces).map(|_| ReduceTask::new()).collect();
        let mut local_maps: IdMap<Vec<u32>> = IdMap::default();
        for (j, reps) in replicas_per_block.iter().enumerate() {
            for r in reps {
                local_maps.entry(r.idx() as u32).or_default().push(j as u32);
            }
        }
        let input_total = input.block_sizes.iter().sum();
        Self {
            id,
            name: input.name.clone(),
            submit: input.submit,
            shuffle: input.shuffle,
            base_weights,
            map_cands,
            maps,
            reduces,
            unassigned_maps: PendingList::full(input.block_sizes.len()),
            local_maps,
            unassigned_reduces: PendingList::full(input.n_reduces),
            done_outputs: Vec::new(),
            running_maps: Vec::new(),
            input_total,
            input_done: 0,
            maps_finished: 0,
            reduces_finished: 0,
            reduce_nodes: Vec::new(),
            finished_at: None,
            failed: false,
        }
    }

    /// Whether the job is out of the scheduler's hands — finished or
    /// aborted.
    pub fn terminated(&self) -> bool {
        self.finished_at.is_some() || self.failed
    }

    /// Draw a map's effective selectivity and per-partition weights (base
    /// weights perturbed by per-map noise, renormalized).
    pub fn materialize_map_output(&mut self, map: usize, noise: f64, rng: &mut SmallRng) {
        let sel = self.shuffle.sample_selectivity(rng);
        let mut w: Vec<f64> = self
            .base_weights
            .iter()
            .map(|b| b * (1.0 + noise * (rng.gen::<f64>() * 2.0 - 1.0)).max(0.01))
            .collect();
        let total: f64 = w.iter().sum();
        w.iter_mut().for_each(|x| *x /= total);
        let m = &mut self.maps[map];
        m.selectivity = sel;
        m.weights = w;
    }

    /// Fill `out` with up to `limit` unassigned map tasks with a replica on
    /// `node` (compacting the index) — the node-local candidates Hadoop's
    /// per-node task cache would surface.
    pub fn local_unassigned_into(&mut self, node: NodeId, limit: usize, out: &mut Vec<usize>) {
        out.clear();
        let Some(cache) = self.local_maps.get_mut(&(node.idx() as u32)) else { return };
        let maps = &self.maps;
        cache.retain(|&m| matches!(maps[m as usize].phase, MapPhase::Unassigned));
        out.extend(cache.iter().take(limit).map(|&m| m as usize));
    }

    /// Whether every task has finished.
    pub fn is_done(&self) -> bool {
        self.maps_finished == self.maps.len() && self.reduces_finished == self.reduces.len()
    }

    /// Mark map `map` finished on `node` at `finish`: flips its phase,
    /// folds its final output into the per-node aggregates and maintains
    /// the running/finished bookkeeping.
    pub fn complete_map(&mut self, map: usize, node: NodeId, finish: f64) {
        debug_assert!(matches!(
            self.maps[map].phase,
            MapPhase::Computing { .. } | MapPhase::Fetching { .. }
        ));
        self.maps[map].phase = MapPhase::Done { node, finish };
        if let Some(pos) = self.running_maps.iter().position(|m| *m == map) {
            self.running_maps.swap_remove(pos);
        }
        self.maps_finished += 1;
        self.input_done += self.maps[map].block;
        let nid = node.idx() as u32;
        let at = self.done_outputs.binary_search_by_key(&nid, |(n, _)| *n).unwrap_or_else(|pos| {
            self.done_outputs.insert(pos, (nid, Vec::new()));
            pos
        });
        let agg = &mut self.done_outputs[at].1;
        if agg.is_empty() {
            agg.resize(self.reduces.len(), 0.0);
        }
        for (f, slot) in agg.iter_mut().enumerate() {
            *slot += self.maps[map].final_bytes_for(f);
        }
    }

    /// A node crash invalidated map `map`'s completed output: bump epoch
    /// and attempt id, return the task to `Unassigned` and roll back the
    /// finished-work accounting. The caller requeues it.
    pub fn invalidate_map_output(&mut self, map: usize) {
        let t = &mut self.maps[map];
        t.epoch += 1;
        t.run += 1;
        t.phase = MapPhase::Unassigned;
        self.maps_finished -= 1;
        self.input_done -= self.maps[map].block;
    }

    /// Forget all finished output stored on `node` (its disks are gone).
    /// The node stays in `done_outputs`; its empty aggregate is skipped by
    /// every reader, matching the old dense table whose entry was cleared
    /// in place.
    pub fn clear_node_output(&mut self, node: NodeId) {
        let nid = node.idx() as u32;
        if let Ok(at) = self.done_outputs.binary_search_by_key(&nid, |(n, _)| *n) {
            self.done_outputs[at].1.clear();
        }
    }

    /// Queue every already-finished map output of partition `f` onto its
    /// reduce task (called at reduce assignment, before per-completion
    /// feeding takes over). Ascending node order, like the dense sweep it
    /// replaces.
    pub fn enqueue_finished_outputs(&mut self, f: usize) {
        for (nid, agg) in &self.done_outputs {
            match agg.get(f) {
                Some(&bytes) if bytes > 0.0 => self.reduces[f].enqueue(NodeId(*nid), bytes),
                _ => {}
            }
        }
    }
}

/// A running map's progress report at one instant, `(D_p, d_read,
/// d_read / B_j)`, read once per reduce offer and shared by every window
/// candidate.
#[derive(Clone, Copy, Debug)]
struct RunningMap {
    map: usize,
    node: NodeId,
    read: u64,
    /// `d_read / B_j`, the factor taking `I_jf` to `A_jf`.
    frac: f64,
}

/// The candidates of one reduce offer: a job's first unassigned reduces
/// with their shuffle sources, built in buffers the simulation reuses
/// across offers.
#[derive(Debug, Default)]
pub struct ReduceWindow {
    running: Vec<RunningMap>,
    /// Candidate buffers; only the first `len` belong to the current
    /// window, the rest keep their capacity for a longer one.
    cands: Vec<ReduceCandidate>,
    len: usize,
}

impl ReduceWindow {
    /// Rebuild the window from `job`'s first `limit` unassigned reduces at
    /// time `t`, and return the fraction of the job's map *work* (input
    /// bytes) done — the `job_map_progress` Coupling's gate reads.
    ///
    /// Sources are exact per the paper's model: one aggregate entry per
    /// node holding *finished* map output (their extrapolation is exact),
    /// in ascending node order, then one entry per still-running map
    /// (whose progress is what the estimator comparison is about). Each
    /// running map's progress is read once, however wide the window.
    pub fn fill(&mut self, job: &JobState, limit: usize, t: f64) -> f64 {
        self.running.clear();
        let mut read = job.input_done;
        for &map in &job.running_maps {
            let m = &job.maps[map];
            let d = m.input_read(t);
            read += d;
            if let Some(node) = m.node() {
                let frac = d as f64 / m.block.max(1) as f64;
                self.running.push(RunningMap { map, node, read: d, frac });
            }
        }
        self.len = 0;
        for f in job.unassigned_reduces.iter().take(limit) {
            let task = ReduceTaskId { job: job.id, index: f as u32 };
            if self.len == self.cands.len() {
                self.cands.push(ReduceCandidate { task, sources: Vec::new() });
            }
            let c = &mut self.cands[self.len];
            c.task = task;
            c.sources.clear();
            for (nid, agg) in &job.done_outputs {
                match agg.get(f) {
                    Some(&bytes) if bytes > 0.0 => c.sources.push(ShuffleSource {
                        node: NodeId(*nid),
                        current_bytes: bytes,
                        input_read: 1,
                        input_total: 1,
                    }),
                    _ => {}
                }
            }
            c.sources.extend(self.running.iter().map(|r| {
                let m = &job.maps[r.map];
                ShuffleSource {
                    node: r.node,
                    // `MapTask::current_bytes_for` without re-reading `d_read`.
                    current_bytes: m.final_bytes_for(f) * r.frac,
                    input_read: r.read,
                    input_total: m.block,
                }
            }));
            self.len += 1;
        }
        if job.input_total == 0 {
            1.0
        } else {
            read as f64 / job.input_total as f64
        }
    }

    /// The window [`fill`](Self::fill) last built, in offer order.
    pub fn candidates(&self) -> &[ReduceCandidate] {
        &self.cands[..self.len]
    }
}

#[cfg(test)]
impl MapTask {
    /// `A_jf` at time `t`: intermediate bytes produced so far for
    /// partition `f`.
    pub fn current_bytes_for(&self, f: usize, t: f64) -> f64 {
        let frac = self.input_read(t) as f64 / self.block.max(1) as f64;
        self.final_bytes_for(f) * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_workloads::AppKind;
    use rand::SeedableRng;

    fn input() -> JobInput {
        JobInput {
            name: "t".into(),
            submit: 0.0,
            block_sizes: vec![1000, 1000],
            n_reduces: 4,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        }
    }

    fn job() -> JobState {
        let mut rng = SmallRng::seed_from_u64(3);
        JobState::new(
            JobId(0),
            &input(),
            vec![vec![NodeId(0)], vec![NodeId(1)]],
            &mut rng,
        )
    }

    /// The per-candidate source builder `ReduceWindow::fill` replaced,
    /// kept as its parity reference: reads every running map's progress
    /// again for each partition.
    fn reference_sources(j: &JobState, f: usize, t: f64) -> Vec<ShuffleSource> {
        let mut out = Vec::new();
        for (nid, agg) in &j.done_outputs {
            match agg.get(f) {
                Some(&bytes) if bytes > 0.0 => out.push(ShuffleSource {
                    node: NodeId(*nid),
                    current_bytes: bytes,
                    input_read: 1,
                    input_total: 1,
                }),
                _ => {}
            }
        }
        for &mi in &j.running_maps {
            let m = &j.maps[mi];
            if let Some(node) = m.node() {
                out.push(ShuffleSource {
                    node,
                    current_bytes: m.current_bytes_for(f, t),
                    input_read: m.input_read(t),
                    input_total: m.block,
                });
            }
        }
        out
    }

    /// The map-work progress sweep `ReduceWindow::fill` replaced.
    fn reference_progress(j: &JobState, t: f64) -> f64 {
        if j.input_total == 0 {
            return 1.0;
        }
        let mut read = j.input_done;
        for &mi in &j.running_maps {
            read += j.maps[mi].input_read(t);
        }
        read as f64 / j.input_total as f64
    }

    /// Fill `w` from `j` and hold it to the references, bit for bit.
    fn fill_matches_reference(w: &mut ReduceWindow, j: &JobState, limit: usize, t: f64) {
        let progress = w.fill(j, limit, t);
        assert_eq!(progress.to_bits(), reference_progress(j, t).to_bits());
        let want: Vec<usize> = j.unassigned_reduces.iter().take(limit).collect();
        let got = w.candidates();
        assert_eq!(got.len(), want.len());
        for (c, &f) in got.iter().zip(&want) {
            assert_eq!(c.task, ReduceTaskId { job: j.id, index: f as u32 });
            let expect = reference_sources(j, f, t);
            assert_eq!(c.sources.len(), expect.len(), "partition {f}");
            for (a, b) in c.sources.iter().zip(&expect) {
                assert_eq!(a.node, b.node);
                assert_eq!(a.current_bytes.to_bits(), b.current_bytes.to_bits());
                assert_eq!(a.input_read, b.input_read);
                assert_eq!(a.input_total, b.input_total);
            }
        }
    }

    #[test]
    fn construction() {
        let j = job();
        assert_eq!(j.maps.len(), 2);
        assert_eq!(j.reduces.len(), 4);
        assert_eq!(j.unassigned_maps.len(), 2);
        assert_eq!(j.map_cands[1].replicas, vec![NodeId(1)]);
        assert_eq!(j.input_total, 2000);
        assert!(!j.is_done());
    }

    #[test]
    fn map_progress_is_linear() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(0), start: 10.0, duration: 20.0 };
        assert_eq!(j.maps[0].input_read(10.0), 0);
        assert_eq!(j.maps[0].input_read(20.0), 500);
        assert_eq!(j.maps[0].input_read(30.0), 1000);
        assert_eq!(j.maps[0].input_read(99.0), 1000);
        // A_jf scales with progress; I_jf is the full-output value.
        let half = j.maps[0].current_bytes_for(0, 20.0);
        let full = j.maps[0].final_bytes_for(0);
        assert!((half * 2.0 - full).abs() < 1e-9);
    }

    #[test]
    fn map_work_progress_aggregates() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(0), start: 0.0, duration: 1.0 };
        j.complete_map(0, NodeId(0), 5.0);
        assert!((ReduceWindow::default().fill(&j, 4, 0.0) - 0.5).abs() < 1e-9);
        assert_eq!(j.maps_finished, 1);
        assert_eq!(j.input_done, 1000);
    }

    #[test]
    fn complete_map_folds_into_aggregates() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(2), start: 0.0, duration: 1.0 };
        j.running_maps.push(0);
        j.complete_map(0, NodeId(2), 1.0);
        assert!(j.running_maps.is_empty());
        assert_eq!(j.done_outputs.len(), 1);
        assert_eq!(j.done_outputs[0].0, 2);
        let total: f64 = j.done_outputs[0].1.iter().sum();
        let expect = j.maps[0].block as f64 * j.maps[0].selectivity;
        assert!((total - expect).abs() < 1e-6);
    }

    #[test]
    fn invalidation_rolls_back_progress() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(2), start: 0.0, duration: 1.0 };
        j.complete_map(0, NodeId(2), 1.0);
        j.invalidate_map_output(0);
        j.clear_node_output(NodeId(2));
        assert_eq!(j.maps_finished, 0);
        assert_eq!(j.input_done, 0);
        assert_eq!(j.maps[0].epoch, 1);
        assert_eq!(j.maps[0].phase, MapPhase::Unassigned);
        // The cleared node yields no shuffle sources.
        let mut w = ReduceWindow::default();
        w.fill(&j, 4, 2.0);
        assert!(w.candidates().iter().all(|c| c.sources.is_empty()));
    }

    #[test]
    fn materialized_weights_normalized() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.5, &mut rng);
        let s: f64 = j.maps[0].weights.iter().sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!(j.maps[0].selectivity > 0.9); // terasort ≈ 1.0
    }

    #[test]
    fn shuffle_sources_split_done_and_running() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.materialize_map_output(1, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(0), start: 0.0, duration: 1.0 };
        j.complete_map(0, NodeId(0), 1.0);
        j.maps[1].phase = MapPhase::Computing { node: NodeId(1), start: 0.0, duration: 10.0 };
        j.running_maps.push(1);
        let mut w = ReduceWindow::default();
        w.fill(&j, 4, 5.0);
        let out = &w.candidates()[2].sources;
        assert_eq!(out.len(), 2);
        // Finished aggregate reports itself as fully read.
        assert_eq!(out[0].node, NodeId(0));
        assert_eq!(out[0].input_read, out[0].input_total);
        // Running map reports true progress.
        assert_eq!(out[1].node, NodeId(1));
        assert_eq!(out[1].input_read, 500);
        assert_eq!(out[1].input_total, 1000);
    }

    #[test]
    fn window_sources_match_the_per_candidate_reference() {
        // Random jobs: maps unassigned, fetching (`d_read = 0`), computing
        // or done; some zero-weight partitions; some nodes' outputs cleared
        // by a crash; windows that grow and shrink between offers on one
        // reused `ReduceWindow`.
        let mut rng = SmallRng::seed_from_u64(9);
        let mut w = ReduceWindow::default();
        for _ in 0..400 {
            let n_maps = rng.gen_range(1..10);
            let n_reduces = rng.gen_range(1..7);
            let input = JobInput {
                name: "p".into(),
                submit: 0.0,
                block_sizes: (0..n_maps).map(|_| rng.gen_range(0..3) * 500).collect(),
                n_reduces,
                shuffle: ShuffleModel::for_app(AppKind::Terasort),
            };
            let replicas = (0..n_maps).map(|m| vec![NodeId(m as u32 % 4)]).collect();
            let mut j = JobState::new(JobId(1), &input, replicas, &mut rng);
            for m in 0..n_maps {
                j.materialize_map_output(m, 0.3, &mut rng);
                if rng.gen_bool(0.3) {
                    j.maps[m].weights[rng.gen_range(0..n_reduces)] = 0.0;
                }
                let node = NodeId(rng.gen_range(0..4));
                match rng.gen_range(0..4) {
                    0 => continue,
                    1 => j.maps[m].phase = MapPhase::Fetching { node },
                    _ => {
                        let start = rng.gen_range(0.0..4.0);
                        let duration = rng.gen_range(0.5..6.0);
                        j.maps[m].phase = MapPhase::Computing { node, start, duration };
                    }
                }
                j.unassigned_maps.remove(m);
                j.running_maps.push(m);
                if rng.gen_bool(0.4) {
                    j.complete_map(m, node, 1.0);
                }
            }
            if rng.gen_bool(0.3) {
                j.clear_node_output(NodeId(rng.gen_range(0..4)));
            }
            for _ in 0..3 {
                let t = rng.gen_range(0.0..8.0);
                fill_matches_reference(&mut w, &j, rng.gen_range(1..8), t);
                if rng.gen_bool(0.5) {
                    j.unassigned_reduces.remove(rng.gen_range(0..n_reduces));
                }
            }
        }
    }

    #[test]
    fn a_shrinking_window_leaves_nothing_behind() {
        let mut j = job();
        let mut rng = SmallRng::seed_from_u64(4);
        j.materialize_map_output(0, 0.0, &mut rng);
        j.materialize_map_output(1, 0.0, &mut rng);
        j.maps[0].phase = MapPhase::Computing { node: NodeId(0), start: 0.0, duration: 1.0 };
        j.complete_map(0, NodeId(0), 1.0);
        j.maps[1].phase = MapPhase::Computing { node: NodeId(1), start: 0.0, duration: 10.0 };
        j.running_maps.push(1);
        let mut w = ReduceWindow::default();
        fill_matches_reference(&mut w, &j, 4, 5.0);
        assert_eq!(w.candidates().len(), 4);
        // The running map's reduce partitions launch and node 0 loses its
        // disks: two candidates, one source each, where the last fill had
        // four candidates of two.
        j.unassigned_reduces.remove(0);
        j.unassigned_reduces.remove(2);
        j.clear_node_output(NodeId(0));
        fill_matches_reference(&mut w, &j, 4, 6.0);
        let cands = w.candidates();
        assert_eq!(cands.iter().map(|c| c.task.index).collect::<Vec<_>>(), vec![1, 3]);
        assert!(cands.iter().all(|c| c.sources.len() == 1 && c.sources[0].node == NodeId(1)));
        // And an empty window is empty.
        j.unassigned_reduces.remove(1);
        j.unassigned_reduces.remove(3);
        w.fill(&j, 4, 7.0);
        assert!(w.candidates().is_empty());
    }

    #[test]
    fn reduce_enqueue_merges_sources() {
        let mut r = ReduceTask::new();
        r.enqueue(NodeId(1), 10.0);
        r.enqueue(NodeId(2), 5.0);
        r.enqueue(NodeId(1), 7.0);
        r.enqueue(NodeId(3), 0.0); // dropped
        assert_eq!(r.pending.len(), 2);
        let first = r.pending.iter().next().unwrap();
        assert_eq!(first, (NodeId(1), 17.0));
    }

    #[test]
    fn reduce_drop_source_forgets_contribution() {
        let mut r = ReduceTask::new();
        let mut fold = SourceFold::default();
        r.receive(NodeId(1), 10.0);
        r.receive(NodeId(2), 30.0);
        r.enqueue(NodeId(2), 4.0);
        assert_eq!(r.drop_source(NodeId(2), &mut fold), 30.0);
        assert_eq!(r.received, 10.0);
        assert!(r.pending.is_empty());
        // The survivors fold on after the swap_remove.
        r.receive(NodeId(1), 5.0);
        assert_eq!(r.per_source(&mut fold), [(NodeId(1), 15.0)]);
        assert_eq!(r.drop_source(NodeId(9), &mut fold), 0.0);
    }

    /// The eager ledger the receive log replaced, kept as its reference:
    /// per-source totals in first-receive order, updated in place through
    /// an index on every receive, `swap_remove`d on a drop.
    #[derive(Default)]
    struct Ledger {
        per_source: Vec<(NodeId, f64)>,
        idx: HashMap<u32, u32>,
        received: f64,
    }

    impl Ledger {
        fn receive(&mut self, src: NodeId, bytes: f64) {
            self.received += bytes;
            match self.idx.get(&src.0) {
                Some(&i) => self.per_source[i as usize].1 += bytes,
                None => {
                    self.idx.insert(src.0, self.per_source.len() as u32);
                    self.per_source.push((src, bytes));
                }
            }
        }

        fn drop_source(&mut self, src: NodeId) -> f64 {
            let Some(pos) = self.idx.remove(&src.0) else { return 0.0 };
            let (_, bytes) = self.per_source.swap_remove(pos as usize);
            if let Some(moved) = self.per_source.get(pos as usize) {
                self.idx.insert(moved.0 .0, pos);
            }
            self.received -= bytes;
            bytes
        }

        fn clear(&mut self) {
            *self = Self::default();
        }

        fn dominant_source(&self) -> Option<NodeId> {
            self.per_source.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map(|(n, _)| *n)
        }
    }

    /// One step on one of two reduces that share a [`SourceFold`].
    #[derive(Clone, Debug)]
    enum LogOp {
        Receive(usize, u32, f64),
        Drop(usize, u32),
        Clear(usize),
    }

    fn log_op() -> impl proptest::strategy::Strategy<Value = LogOp> {
        use proptest::strategy::Strategy;
        // Byte counts of mixed magnitude, so the totals round differently
        // when their additions are reordered; equal counts make ties.
        let bytes =
            proptest::prop_oneof![0.0f64..1.0, 1e3f64..1e12, proptest::strategy::Just(5e6)];
        proptest::prop_oneof![
            10 => (0..2usize, 0..6u32, bytes).prop_map(|(r, n, b)| LogOp::Receive(r, n, b)),
            3 => (0..2usize, 0..7u32).prop_map(|(r, n)| LogOp::Drop(r, n)),
            1 => (0..2usize).prop_map(LogOp::Clear),
        ]
    }

    proptest::proptest! {
        #[test]
        fn receive_log_folds_like_the_eager_ledger(
            ops in proptest::collection::vec(log_op(), 0..120),
        ) {
            let mut reduces = [ReduceTask::new(), ReduceTask::new()];
            let mut ledgers = [Ledger::default(), Ledger::default()];
            let mut fold = SourceFold::default();
            for op in ops {
                let r = match op {
                    LogOp::Receive(r, n, b) => {
                        reduces[r].receive(NodeId(n), b);
                        ledgers[r].receive(NodeId(n), b);
                        r
                    }
                    LogOp::Drop(r, n) => {
                        let got = reduces[r].drop_source(NodeId(n), &mut fold);
                        let want = ledgers[r].drop_source(NodeId(n));
                        proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
                        r
                    }
                    LogOp::Clear(r) => {
                        reduces[r].clear_sources();
                        ledgers[r].clear();
                        r
                    }
                };
                let (task, want) = (&reduces[r], &ledgers[r]);
                let got: Vec<(NodeId, u64)> =
                    task.per_source(&mut fold).iter().map(|&(n, b)| (n, b.to_bits())).collect();
                let expect: Vec<(NodeId, u64)> =
                    want.per_source.iter().map(|&(n, b)| (n, b.to_bits())).collect();
                proptest::prop_assert_eq!(got, expect);
                proptest::prop_assert_eq!(task.dominant_source(&mut fold), want.dominant_source());
                proptest::prop_assert_eq!(task.received.to_bits(), want.received.to_bits());
            }
        }
    }

    #[test]
    fn reduce_dominant_source() {
        let mut r = ReduceTask::new();
        r.receive(NodeId(1), 10.0);
        r.receive(NodeId(2), 30.0);
        r.receive(NodeId(1), 5.0);
        assert_eq!(r.dominant_source(&mut SourceFold::default()), Some(NodeId(2)));
        assert_eq!(r.received, 45.0);
    }
}
