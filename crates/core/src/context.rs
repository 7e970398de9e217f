//! Scheduling contexts: what a placer sees at a heartbeat.
//!
//! Hadoop's JobTracker makes placement decisions "at the time of receiving a
//! heartbeat from a node indicating slot availability" (paper §II-A). These
//! structs are the snapshot of cluster state the decision is made against.
//! They are *views* borrowed from whichever runtime hosts the placer — the
//! discrete-event simulator, the threaded engine or a test harness.

use crate::costidx::CostView;
use crate::types::{JobId, MapTaskId, ReduceTaskId};
use pnats_net::{ClusterLayout, NodeId, PathCost};

/// A pending map task `M_j` and everything its cost depends on.
#[derive(Debug)]
pub struct MapCandidate {
    /// The task's identity.
    pub task: MapTaskId,
    /// `B_j`: bytes of the input block the task processes.
    pub block_size: u64,
    /// Nodes storing a replica of that block (`{D_l : L_lj = 1}`).
    pub replicas: Vec<NodeId>,
}

// By hand so `clone_from` refills `replicas` in place (the derive's
// allocates): a runtime refreshes its reused candidates without allocating.
impl Clone for MapCandidate {
    fn clone(&self) -> Self {
        Self { replicas: self.replicas.clone(), ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        (self.task, self.block_size) = (source.task, source.block_size);
        self.replicas.clone_from(&source.replicas);
    }
}

/// One placed map task's contribution to a reduce task's shuffle input —
/// the progress report `(d_read^j, A_jf)` of §II-B2 plus the map's location.
#[derive(Clone, Copy, Debug)]
pub struct ShuffleSource {
    /// Node `D_p` the map task was placed on (`x_jp = 1`).
    pub node: NodeId,
    /// `A_jf`: bytes of intermediate data currently produced by map `j`
    /// for this reduce partition `f`.
    pub current_bytes: f64,
    /// `d_read^j`: input bytes the map has read so far.
    pub input_read: u64,
    /// `B_j`: total input bytes the map will read.
    pub input_total: u64,
}

/// A pending reduce task `R_f` and the shuffle sources feeding it.
#[derive(Clone, Debug)]
pub struct ReduceCandidate {
    /// The task's identity; `task.index` is the partition it consumes.
    pub task: ReduceTaskId,
    /// One entry per map task of the job that has been *placed* (running or
    /// finished). Unplaced maps contribute nothing to Formula (2)'s double
    /// sum because their `x_jp` row is all zeros.
    pub sources: Vec<ShuffleSource>,
}

/// Snapshot handed to [`TaskPlacer::place_map`](crate::placer::TaskPlacer::place_map).
///
/// Construct with [`MapSchedContext::new`] plus the chainable setters —
/// the struct is `#[non_exhaustive]` so every runtime and test assembles
/// its snapshot through the same audited constructor path.
#[non_exhaustive]
#[derive(Clone, Copy)]
pub struct MapSchedContext<'a> {
    /// Job whose tasks are being scheduled (chosen by job-level scheduling).
    pub job: JobId,
    /// Unassigned map tasks of that job.
    pub candidates: &'a [MapCandidate],
    /// Nodes currently advertising ≥ 1 free map slot (the `N_m` nodes over
    /// which `C_m_ave` is averaged). Always contains the heartbeating node.
    pub free_map_nodes: &'a [NodeId],
    /// Cost metric (`H` or its §II-B3 network-condition variant).
    pub cost: &'a dyn PathCost,
    /// Rack layout, for baselines that reason in locality classes.
    pub layout: &'a ClusterLayout,
    /// Current time in seconds (drives delay-based baselines).
    pub now: f64,
    /// Incremental cost index over the free set, when the runtime maintains
    /// one (see [`CostView`]). `None` selects the legacy per-node mean.
    pub cost_view: Option<CostView<'a>>,
}

/// Snapshot handed to [`TaskPlacer::place_reduce`](crate::placer::TaskPlacer::place_reduce).
///
/// Construct with [`ReduceSchedContext::new`] plus the chainable setters —
/// the struct is `#[non_exhaustive]` so every runtime and test assembles
/// its snapshot through the same audited constructor path.
#[non_exhaustive]
#[derive(Clone, Copy)]
pub struct ReduceSchedContext<'a> {
    /// Job whose tasks are being scheduled.
    pub job: JobId,
    /// Unassigned reduce tasks of that job.
    pub candidates: &'a [ReduceCandidate],
    /// Nodes currently advertising ≥ 1 free reduce slot (the `N_r` nodes of
    /// Formula 5). Always contains the heartbeating node.
    pub free_reduce_nodes: &'a [NodeId],
    /// Nodes already running a reduce task of this job (Algorithm 2 line 1
    /// refuses to co-locate two reduces of one job).
    pub job_reduce_nodes: &'a [NodeId],
    /// Cost metric.
    pub cost: &'a dyn PathCost,
    /// Rack layout.
    pub layout: &'a ClusterLayout,
    /// Fraction of the job's total map *work* completed, in [0, 1]
    /// (Coupling's launch gate reads this).
    pub job_map_progress: f64,
    /// Completed map tasks of the job.
    pub maps_finished: usize,
    /// Total map tasks of the job.
    pub maps_total: usize,
    /// Reduce tasks of the job already launched.
    pub reduces_launched: usize,
    /// Total reduce tasks of the job.
    pub reduces_total: usize,
    /// Current time in seconds.
    pub now: f64,
    /// Incremental cost index over the free set, when the runtime maintains
    /// one (see [`CostView`]). `None` selects the legacy per-node mean.
    pub cost_view: Option<CostView<'a>>,
}

impl<'a> MapSchedContext<'a> {
    /// A map-scheduling snapshot at time 0. Chain [`at`](Self::at) to set
    /// the clock.
    pub fn new(
        job: JobId,
        candidates: &'a [MapCandidate],
        free_map_nodes: &'a [NodeId],
        cost: &'a dyn PathCost,
        layout: &'a ClusterLayout,
    ) -> Self {
        Self { job, candidates, free_map_nodes, cost, layout, now: 0.0, cost_view: None }
    }

    /// Set the current time in seconds.
    pub fn at(mut self, now: f64) -> Self {
        self.now = now;
        self
    }

    /// Attach an incremental cost index over `free_map_nodes`.
    pub fn with_cost_view(mut self, view: CostView<'a>) -> Self {
        self.cost_view = Some(view);
        self
    }
}

impl<'a> ReduceSchedContext<'a> {
    /// A reduce-scheduling snapshot at time 0 with permissive defaults:
    /// no reduce of the job running anywhere, map phase complete
    /// (`job_map_progress = 1`, `maps_finished = maps_total = 0`), no
    /// reduces launched, `reduces_total = candidates.len()`. Chain the
    /// setters to model mid-job states.
    pub fn new(
        job: JobId,
        candidates: &'a [ReduceCandidate],
        free_reduce_nodes: &'a [NodeId],
        cost: &'a dyn PathCost,
        layout: &'a ClusterLayout,
    ) -> Self {
        Self {
            job,
            candidates,
            free_reduce_nodes,
            job_reduce_nodes: &[],
            cost,
            layout,
            job_map_progress: 1.0,
            maps_finished: 0,
            maps_total: 0,
            reduces_launched: 0,
            reduces_total: candidates.len(),
            now: 0.0,
            cost_view: None,
        }
    }

    /// Attach an incremental cost index over `free_reduce_nodes`.
    pub fn with_cost_view(mut self, view: CostView<'a>) -> Self {
        self.cost_view = Some(view);
        self
    }

    /// Nodes already running a reduce task of this job.
    pub fn running_on(mut self, nodes: &'a [NodeId]) -> Self {
        self.job_reduce_nodes = nodes;
        self
    }

    /// Map-phase state: fraction of map *work* done plus finished/total
    /// task counts.
    pub fn map_phase(mut self, progress: f64, finished: usize, total: usize) -> Self {
        self.job_map_progress = progress;
        self.maps_finished = finished;
        self.maps_total = total;
        self
    }

    /// Reduce-phase launch accounting: tasks launched / total.
    pub fn reduce_phase(mut self, launched: usize, total: usize) -> Self {
        self.reduces_launched = launched;
        self.reduces_total = total;
        self
    }

    /// Set the current time in seconds.
    pub fn at(mut self, now: f64) -> Self {
        self.now = now;
        self
    }
}

impl MapCandidate {
    /// Whether a replica of the task's block lives on `node`.
    pub fn is_local_to(&self, node: NodeId) -> bool {
        self.replicas.contains(&node)
    }

    /// Whether any replica shares a rack with `node`.
    pub fn is_rack_local_to(&self, node: NodeId, layout: &ClusterLayout) -> bool {
        self.replicas.iter().any(|r| layout.same_rack(*r, node))
    }
}

/// Maps that must finish before reduces launch (Hadoop's
/// `mapreduce.job.reduce.slowstart.completedmaps`).
pub fn slowstart_gate(slowstart: f64, n_maps: usize) -> usize {
    ((slowstart * n_maps as f64).ceil() as usize).min(n_maps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_net::Topology;

    #[test]
    fn candidate_locality_classes() {
        let topo = Topology::multi_rack(2, 2, 1.0, 1.0);
        let c = MapCandidate {
            task: MapTaskId { job: JobId(0), index: 0 },
            block_size: 1,
            replicas: vec![NodeId(0)],
        };
        assert!(c.is_local_to(NodeId(0)));
        assert!(!c.is_local_to(NodeId(1)));
        assert!(c.is_rack_local_to(NodeId(1), topo.layout()));
        assert!(!c.is_rack_local_to(NodeId(2), topo.layout()));
    }
}
