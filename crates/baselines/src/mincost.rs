//! Deterministic min-cost placement: the paper's fine-grained cost model
//! *without* the probabilistic relaxation.
//!
//! On each slot offer, the pending task with the lowest transmission cost on
//! the offered node is launched unconditionally. This is the natural greedy
//! strawman the paper argues against implicitly: it maximizes slot
//! utilization and uses the same cost model, but a node that is mediocre for
//! every pending task still gets one, and early jobs monopolize good slots.
//! The `repro ablation_prob_model` experiment compares it against
//! [`ProbabilisticPlacer`] (`crates/bench/src/repro/sweeps.rs`).
//!
//! [`ProbabilisticPlacer`]: pnats_core::prob_sched::ProbabilisticPlacer

use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::cost::{map_cost, reduce_cost};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_net::NodeId;
use rand::rngs::SmallRng;

/// Greedy deterministic min-cost placement.
#[derive(Clone, Copy, Debug)]
pub struct MinCostPlacer {
    /// Estimator for reduce-side intermediate sizes (defaults to the
    /// paper's progress extrapolation, so the only difference from the
    /// probabilistic scheduler is the missing Bernoulli gate).
    pub estimator: IntermediateEstimator,
}

impl MinCostPlacer {
    /// Min-cost with the paper's estimator.
    pub fn new() -> Self {
        Self { estimator: IntermediateEstimator::ProgressExtrapolated }
    }
}

impl Default for MinCostPlacer {
    fn default() -> Self {
        Self::new()
    }
}

impl TaskPlacer for MinCostPlacer {
    fn name(&self) -> &'static str {
        "mincost"
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        _rng: &mut SmallRng,
    ) -> Decision {
        let best = ctx
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, map_cost(c, node, ctx.cost)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((i, _)) => Decision::Assign(i),
            None => Decision::Skip(SkipReason::NoCandidate),
        }
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
        let best = ctx
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, reduce_cost(c, node, ctx.cost, self.estimator)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match best {
            Some((i, _)) => Decision::Assign(i),
            None => Decision::Skip(SkipReason::NoCandidate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::context::{MapCandidate, ReduceCandidate, ShuffleSource};
    use pnats_core::types::{JobId, MapTaskId, ReduceTaskId};
    use pnats_net::DistanceMatrix;
    use rand::SeedableRng;

    #[test]
    fn picks_cheapest_map_task() {
        let h = DistanceMatrix::paper_figure2();
        let layout = pnats_net::ClusterLayout::new(vec![pnats_net::RackId(0); 4]);
        let mk = |i: u32, r: u32| MapCandidate {
            task: MapTaskId { job: JobId(0), index: i },
            block_size: 100,
            replicas: vec![NodeId(r)],
        };
        // From D2: replica D1 costs h=10, replica D0 costs h=2.
        let cands = vec![mk(0, 1), mk(1, 0)];
        let free = vec![NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        let mut p = MinCostPlacer::new();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(1));
    }

    #[test]
    fn always_assigns_even_when_expensive() {
        let h = DistanceMatrix::paper_figure2();
        let layout = pnats_net::ClusterLayout::new(vec![pnats_net::RackId(0); 4]);
        let cands = vec![MapCandidate {
            task: MapTaskId { job: JobId(0), index: 0 },
            block_size: 100,
            replicas: vec![NodeId(1)],
        }];
        // D1 itself is free — the probabilistic scheduler would skip D2;
        // min-cost launches anyway.
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        let mut p = MinCostPlacer::new();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn picks_cheapest_reduce_and_respects_collocation() {
        let h = DistanceMatrix::paper_figure2();
        let layout = pnats_net::ClusterLayout::new(vec![pnats_net::RackId(0); 4]);
        let mk = |i: u32, src_node: u32, bytes: f64| ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: i },
            sources: vec![ShuffleSource {
                node: NodeId(src_node),
                current_bytes: bytes,
                input_read: 1,
                input_total: 1,
            }],
        };
        // On D0: candidate 0 sourced from D1 (h=4, 10 bytes -> 40);
        //        candidate 1 sourced from D2 (h=2, 10 bytes -> 20).
        let cands = vec![mk(0, 1, 10.0), mk(1, 2, 10.0)];
        let free = vec![NodeId(0)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, &layout)
            .map_phase(1.0, 1, 1)
            .reduce_phase(0, 2);
        let mut p = MinCostPlacer::new();
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut rng), Decision::Assign(1));

        let running = vec![NodeId(0)];
        let ctx = ctx.running_on(&running);
        assert_eq!(
            p.place_reduce(&ctx, NodeId(0), &mut rng),
            Decision::Skip(SkipReason::Collocated)
        );
    }
}
