//! A LARTS-style placer (Hammoud & Sakr, CloudCom'11 — the paper's \[4\]).
//!
//! LARTS "schedules the reduce tasks as close to their maximum amount of
//! input data as possible": each reduce task has a *sweet spot* — the node
//! hosting the largest share of its (estimated) shuffle input — and the
//! scheduler waits a bounded number of offers for a slot there or in its
//! rack before settling. Map tasks use greedy locality (LARTS is a
//! reduce-side scheduler).

use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_core::types::ReduceTaskId;
use pnats_net::NodeId;
use rand::rngs::SmallRng;
use std::collections::HashMap;

/// Reduce-locality-aware placer.
#[derive(Clone, Debug)]
pub struct LartsPlacer {
    /// Offers a reduce task declines while waiting for its sweet spot.
    pub max_wait: u32,
    waited: HashMap<ReduceTaskId, u32>,
}

impl LartsPlacer {
    /// LARTS waiting up to `max_wait` offers per reduce task.
    pub fn new(max_wait: u32) -> Self {
        Self { max_wait, waited: HashMap::new() }
    }

    /// The node holding the largest estimated share of the candidate's
    /// input, if any source reported bytes.
    fn sweet_spot(c: &pnats_core::context::ReduceCandidate) -> Option<NodeId> {
        let mut per_node: HashMap<NodeId, f64> = HashMap::new();
        for s in &c.sources {
            let est = IntermediateEstimator::ProgressExtrapolated.estimate(s);
            *per_node.entry(s.node).or_insert(0.0) += est;
        }
        per_node
            .into_iter()
            .filter(|(_, v)| *v > 0.0)
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(n, _)| n)
    }
}

impl Default for LartsPlacer {
    fn default() -> Self {
        Self::new(3)
    }
}

impl TaskPlacer for LartsPlacer {
    fn name(&self) -> &'static str {
        "larts"
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        _rng: &mut SmallRng,
    ) -> Decision {
        // Greedy locality, as in the FIFO baseline.
        if let Some(i) = ctx.candidates.iter().position(|c| c.is_local_to(node)) {
            return Decision::Assign(i);
        }
        if let Some(i) = ctx
            .candidates
            .iter()
            .position(|c| c.is_rack_local_to(node, ctx.layout))
        {
            return Decision::Assign(i);
        }
        Decision::Assign(0)
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        _rng: &mut SmallRng,
    ) -> Decision {
        if ctx.job_reduce_nodes.contains(&node) {
            return Decision::Skip(SkipReason::Collocated);
        }
        // First preference: a candidate whose sweet spot IS this node.
        for (i, c) in ctx.candidates.iter().enumerate() {
            if Self::sweet_spot(c) == Some(node) {
                self.waited.remove(&c.task);
                return Decision::Assign(i);
            }
        }
        // Second: a candidate whose sweet spot shares this node's rack.
        for (i, c) in ctx.candidates.iter().enumerate() {
            if let Some(spot) = Self::sweet_spot(c) {
                if ctx.layout.same_rack(spot, node) {
                    self.waited.remove(&c.task);
                    return Decision::Assign(i);
                }
            }
        }
        // Otherwise: head-of-line candidate waits up to max_wait offers.
        let c = &ctx.candidates[0];
        let w = self.waited.entry(c.task).or_insert(0);
        if *w >= self.max_wait || Self::sweet_spot(c).is_none() {
            self.waited.remove(&c.task);
            Decision::Assign(0)
        } else {
            *w += 1;
            Decision::Skip(SkipReason::PostponedReduce)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::context::{ReduceCandidate, ShuffleSource};
    use pnats_core::types::JobId;
    use pnats_net::{DistanceMatrix, Topology};
    use rand::SeedableRng;

    const GB: f64 = 1e9 / 8.0;

    fn cand(i: u32, sources: Vec<(u32, f64)>) -> ReduceCandidate {
        ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: i },
            sources: sources
                .into_iter()
                .map(|(n, b)| ShuffleSource {
                    node: NodeId(n),
                    current_bytes: b,
                    input_read: 1,
                    input_total: 1,
                })
                .collect(),
        }
    }

    #[test]
    fn takes_sweet_spot_node() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![cand(0, vec![(1, 100.0), (2, 10.0)])];
        let free = vec![NodeId(1)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
            .map_phase(1.0, 1, 1);
        let mut p = LartsPlacer::default();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.place_reduce(&ctx, NodeId(1), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn waits_then_settles_far_from_sweet_spot() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        // Sweet spot is node 0 (rack 0); offer slots on node 2 (rack 1).
        let cands = vec![cand(0, vec![(0, 100.0)])];
        let free = vec![NodeId(2)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
            .map_phase(1.0, 1, 1);
        let mut p = LartsPlacer::new(2);
        let mut rng = SmallRng::seed_from_u64(0);
        let wait = Decision::Skip(SkipReason::PostponedReduce);
        assert_eq!(p.place_reduce(&ctx, NodeId(2), &mut rng), wait);
        assert_eq!(p.place_reduce(&ctx, NodeId(2), &mut rng), wait);
        assert_eq!(p.place_reduce(&ctx, NodeId(2), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn sourceless_candidate_assigned_immediately() {
        let topo = Topology::single_rack(2, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![cand(0, vec![])];
        let free = vec![NodeId(0)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
            .map_phase(0.0, 0, 1);
        let mut p = LartsPlacer::default();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut rng), Decision::Assign(0));
    }
}
