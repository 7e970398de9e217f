//! A Quincy-style placer (Isard et al., SOSP'09 — the paper's related-work
//! \[20\]): placement as **global min-cost matching** between pending tasks
//! and free slots, rather than greedy per-offer decisions.
//!
//! On each offer we build the bipartite graph of (candidate window ×
//! currently-free nodes) with the paper's transmission costs on the edges,
//! solve the assignment with min-cost flow, and launch whichever task the
//! optimum matched to the *offered* node (skipping if the optimum sends
//! every candidate elsewhere — those slots' offers will come).
//!
//! Caveats, faithfully inherited from Quincy's design point: solving a
//! global matching per scheduling event is much more expensive than the
//! paper's O(candidates × nodes) probability pass — one of the
//! probabilistic scheduler's selling points. Use the candidate window to
//! bound the graph.

use crate::mcmf::assignment;
use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::cost::{map_cost, reduce_cost};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_net::NodeId;
use rand::rngs::SmallRng;

/// Global min-cost-matching placement.
#[derive(Clone, Copy, Debug, Default)]
pub struct QuincyPlacer;

/// Fixed-point scale for converting f64 costs to integer flow costs.
const SCALE: f64 = 1e-3; // costs are byte·hops: keep magnitudes in i64

fn to_int(c: f64) -> i64 {
    if c.is_infinite() {
        i64::MAX / 4
    } else {
        (c * SCALE).round() as i64
    }
}

impl TaskPlacer for QuincyPlacer {
    fn name(&self) -> &'static str {
        "quincy"
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        _rng: &mut SmallRng,
    ) -> Decision {
        let slots = ctx.free_map_nodes;
        let costs: Vec<Vec<i64>> = ctx
            .candidates
            .iter()
            .map(|c| slots.iter().map(|&k| to_int(map_cost(c, k, ctx.cost))).collect())
            .collect();
        let caps = vec![1usize; slots.len()];
        let matching = assignment(&costs, &caps);
        let here = slots.iter().position(|&k| k == node).expect("offered node is free");
        match matching.iter().position(|m| *m == Some(here)) {
            Some(task) => Decision::Assign(task),
            // The optimum matched every candidate to some *other* free
            // node: no candidate is chosen for this one.
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
        let est = IntermediateEstimator::ProgressExtrapolated;
        let slots: Vec<NodeId> = ctx
            .free_reduce_nodes
            .iter()
            .copied()
            .filter(|k| !ctx.job_reduce_nodes.contains(k))
            .collect();
        let Some(here) = slots.iter().position(|&k| k == node) else {
            return Decision::Skip(SkipReason::NoCandidate);
        };
        let costs: Vec<Vec<i64>> = ctx
            .candidates
            .iter()
            .map(|c| {
                slots
                    .iter()
                    .map(|&k| to_int(reduce_cost(c, k, ctx.cost, est)))
                    .collect()
            })
            .collect();
        let caps = vec![1usize; slots.len()];
        let matching = assignment(&costs, &caps);
        match matching.iter().position(|m| *m == Some(here)) {
            Some(task) => Decision::Assign(task),
            None => Decision::Skip(SkipReason::NoCandidate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::context::MapCandidate;
    use pnats_core::types::{JobId, MapTaskId};
    use pnats_net::{ClusterLayout, DistanceMatrix, RackId};
    use rand::SeedableRng;

    fn layout4() -> ClusterLayout {
        ClusterLayout::new(vec![RackId(0); 4])
    }

    fn mk(i: u32, replica: u32) -> MapCandidate {
        MapCandidate {
            task: MapTaskId { job: JobId(0), index: i },
            block_size: 100,
            replicas: vec![NodeId(replica)],
        }
    }

    #[test]
    fn globally_optimal_matching_beats_greedy() {
        // Task 0 is local to D0 AND cheap on D2 (2 hops); task 1 is ONLY
        // cheap on D0. Greedy on a D0 offer takes task 0 (cost 0); the
        // global optimum gives D0 to task 1 only if that lowers total
        // cost — here both tasks local-or-2-hops: optimum assigns task 0
        // to D0 (0) and task 1 to its own replica D2? Build it explicitly:
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // task0 replica on D1; task1 replica on D3.
        let cands = vec![mk(0, 1), mk(1, 3)];
        let free = vec![NodeId(1), NodeId(3)];
        let mut q = QuincyPlacer;
        let mut rng = SmallRng::seed_from_u64(0);
        // Offer on D1: optimum matches task0 -> D1 (0 cost), task1 -> D3.
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        assert_eq!(q.place_map(&ctx, NodeId(1), &mut rng), Decision::Assign(0));
        assert_eq!(q.place_map(&ctx, NodeId(3), &mut rng), Decision::Assign(1));
    }

    #[test]
    fn skips_when_optimum_places_elsewhere() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // One task, local to D1; both D1 and D2 free. Offer on D2: the
        // optimum sends the task to D1, so D2's offer is declined.
        let cands = vec![mk(0, 1)];
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        let mut q = QuincyPlacer;
        let mut rng = SmallRng::seed_from_u64(0);
        assert_eq!(
            q.place_map(&ctx, NodeId(2), &mut rng),
            Decision::Skip(SkipReason::NoCandidate)
        );
        assert_eq!(q.place_map(&ctx, NodeId(1), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn resolves_contention_globally() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // Both tasks want D1 (their only replica); only one can have it.
        // The other is matched to the cheapest alternative. From the H
        // matrix, D0 is 4 hops from D1, D2 is 10 — optimum puts the
        // spill-over on D0, never D2.
        let cands = vec![mk(0, 1), mk(1, 1)];
        let free = vec![NodeId(0), NodeId(1), NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        let mut q = QuincyPlacer;
        let mut rng = SmallRng::seed_from_u64(0);
        // D1 gets one of the tasks.
        assert!(matches!(q.place_map(&ctx, NodeId(1), &mut rng), Decision::Assign(_)));
        // D0 gets the other.
        assert!(matches!(q.place_map(&ctx, NodeId(0), &mut rng), Decision::Assign(_)));
        // D2's offer is declined — the optimum never uses the 10-hop node.
        assert_eq!(
            q.place_map(&ctx, NodeId(2), &mut rng),
            Decision::Skip(SkipReason::NoCandidate)
        );
    }
}
