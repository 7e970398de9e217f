//! The Coupling Scheduler (Tan, Meng & Zhang — INFOCOM'13 / HPDC'12), as
//! described in the paper's §I, §III and related work:
//!
//! * **Map side**: "for an available map task slot, a randomly picked map
//!   task is assigned to it with a probability that balances data locality
//!   and resource utilization" — probabilistic like the paper's method, but
//!   on the *coarse* locality classes (node-local / rack-local / remote)
//!   rather than fine-grained transmission cost.
//! * **Reduce side**: "the reduce tasks can be postponed to be launched in
//!   order to be assigned to the data 'centrality' nodes and can wait at
//!   most three rounds of heartbeats before being assigned", where the
//!   centrality node minimizes transmission overhead computed from the
//!   **current** in-progress intermediate sizes (the estimation weakness
//!   §II-B2 fixes). Launches are *gradual*, coupled to map progress.

use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::cost::reduce_cost;
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_core::types::ReduceTaskId;
use pnats_net::{NodeId, RackLadderCost};
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// Coupling Scheduler reimplementation.
#[derive(Clone, Debug)]
pub struct CouplingPlacer {
    /// Launch probability for a rack-local (non node-local) map placement
    /// when no node-local candidate exists.
    pub p_rack: f64,
    /// Launch probability for a remote map placement.
    pub p_remote: f64,
    /// Heartbeat rounds a reduce waits for its centrality node.
    pub max_postpone: u32,
    /// Heartbeat interval in seconds (postponement is measured in rounds of
    /// heartbeats, i.e. wall-clock, not in slot offers).
    pub heartbeat_s: f64,
    /// First time each pending reduce was offered a non-centrality slot.
    first_offer: HashMap<ReduceTaskId, f64>,
}

impl CouplingPlacer {
    /// Coupling with the probabilities used in our experiments. Node-local
    /// placements always launch (probability 1).
    pub fn new(p_rack: f64, p_remote: f64, max_postpone: u32, heartbeat_s: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_rack) && (0.0..=1.0).contains(&p_remote));
        assert!(heartbeat_s > 0.0);
        Self { p_rack, p_remote, max_postpone, heartbeat_s, first_offer: HashMap::new() }
    }

    /// The configuration matching the paper's description — launch
    /// probabilities 0.8 / 0.4, wait at most three rounds — over heartbeats
    /// of `heartbeat_s` seconds. The repository benchmark
    /// (`benchmark/src/simload.rs`) writes the same literals itself.
    pub fn paper_at(heartbeat_s: f64) -> Self {
        Self::new(0.8, 0.4, 3, heartbeat_s)
    }

    /// [`paper_at`](Self::paper_at) with the paper's 1 s heartbeat.
    pub fn paper() -> Self {
        Self::paper_at(1.0)
    }

    /// When the pending reduce `task` was first offered a slot it did not
    /// take, while it is still waiting for its centrality node.
    pub fn postponed_since(&self, task: ReduceTaskId) -> Option<f64> {
        self.first_offer.get(&task).copied()
    }

    /// Reduce launches are *coupled* to map progress: with fraction `f` of
    /// map work done, at most `ceil(f · reduces_total)` reduces may run.
    fn launch_permitted(ctx: &ReduceSchedContext<'_>) -> bool {
        let permitted = (ctx.job_map_progress * ctx.reduces_total as f64).ceil() as usize;
        ctx.reduces_launched < permitted
    }
}

impl Default for CouplingPlacer {
    fn default() -> Self {
        Self::paper()
    }
}

impl TaskPlacer for CouplingPlacer {
    fn name(&self) -> &'static str {
        "coupling"
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        // A node-local candidate always launches — Coupling only relaxes
        // the *remote* launch decision (its contribution over Delay
        // Scheduling is launching remote maps probabilistically instead of
        // idling the slot).
        if let Some(i) = ctx.candidates.iter().position(|c| c.is_local_to(node)) {
            return Decision::Assign(i);
        }
        // No local work: randomly pick a pending task and launch it with a
        // coarse locality-class probability.
        let i = rng.gen_range(0..ctx.candidates.len());
        let c = &ctx.candidates[i];
        let p = if c.is_rack_local_to(node, ctx.layout) {
            self.p_rack
        } else {
            self.p_remote
        };
        if rng.gen::<f64>() < p {
            Decision::Assign(i)
        } else {
            Decision::Skip(SkipReason::DrawFailed)
        }
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        // Same co-location avoidance as the paper's method (their [5, 15]).
        if ctx.job_reduce_nodes.contains(&node) {
            return Decision::Skip(SkipReason::Collocated);
        }
        if !Self::launch_permitted(ctx) {
            return Decision::Skip(SkipReason::PostponedReduce);
        }
        // Pick the pending reduce with the largest current shuffle input
        // (the one whose centrality matters most right now). `max_by` keeps
        // the *last* of equal maxima, so ties — a window of sourceless
        // tasks included — go to the last tied candidate in window order.
        let est = IntermediateEstimator::CurrentSize;
        let (best_idx, _) = ctx
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, pnats_core::cost::reduce_total_input(c, est)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("contexts always carry >= 1 candidate");
        let cand = &ctx.candidates[best_idx];

        // Centrality test on *current* sizes and the COARSE node/rack cost
        // ladder — Coupling cannot see switch structure or congestion; that
        // granularity gap is precisely what the paper's method adds. The
        // node is central iff no free node is cheaper beyond a 0.01 %
        // tolerance, so the first cheaper node settles the test. That is
        // `here <= min_k C(k)·1.0001 + ε` over the free set: `x ↦ x·1.0001
        // + ε` is monotone under rounding, costs are non-negative (the
        // heartbeating node, always free, passes against itself) and never
        // NaN.
        let coarse = RackLadderCost::hadoop(ctx.layout);
        let here = reduce_cost(cand, node, &coarse, est);
        let is_centrality = ctx
            .free_reduce_nodes
            .iter()
            .filter(|&&k| k != node)
            .all(|&k| here <= reduce_cost(cand, k, &coarse, est) * 1.0001 + f64::EPSILON);

        let first = *self.first_offer.entry(cand.task).or_insert(ctx.now);
        let waited_out = ctx.now - first >= self.max_postpone as f64 * self.heartbeat_s;
        if is_centrality || waited_out {
            self.first_offer.remove(&cand.task);
            Decision::Assign(best_idx)
        } else {
            // Postponed: the task waits (at most `max_postpone` rounds of
            // heartbeats) for an offer on its centrality node; afterwards
            // it takes whatever slot comes next ("assigns a reduce task to
            // a random slot if it is postponed for a certain time", §III-C).
            let _ = rng;
            Decision::Skip(SkipReason::PostponedReduce)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::context::{MapCandidate, ReduceCandidate, ShuffleSource};
    use pnats_core::types::{JobId, MapTaskId};
    use pnats_net::{DistanceMatrix, Topology};
    use rand::SeedableRng;

    const GB: f64 = 1e9 / 8.0;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(11)
    }

    #[test]
    fn local_map_always_launches() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![MapCandidate {
            task: MapTaskId { job: JobId(0), index: 0 },
            block_size: 1,
            replicas: vec![NodeId(0)],
        }];
        let free = vec![NodeId(0)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, topo.layout());
        let mut p = CouplingPlacer::paper();
        let mut r = rng();
        for _ in 0..50 {
            assert_eq!(p.place_map(&ctx, NodeId(0), &mut r), Decision::Assign(0));
        }
    }

    #[test]
    fn remote_map_launch_rate_near_p_remote() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![MapCandidate {
            task: MapTaskId { job: JobId(0), index: 0 },
            block_size: 1,
            replicas: vec![NodeId(0)], // rack 0
        }];
        let free = vec![NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, topo.layout());
        let mut p = CouplingPlacer::new(0.8, 0.4, 3, 1.0);
        let mut r = rng();
        let hits = (0..2000)
            .filter(|_| p.place_map(&ctx, NodeId(2), &mut r).assigned().is_some())
            .count();
        let rate = hits as f64 / 2000.0;
        assert!((rate - 0.4).abs() < 0.05, "rate {rate}");
    }

    #[allow(clippy::too_many_arguments)]
    fn reduce_ctx<'a>(
        cands: &'a [ReduceCandidate],
        free: &'a [NodeId],
        cost: &'a DistanceMatrix,
        layout: &'a pnats_net::ClusterLayout,
        progress: f64,
        launched: usize,
        total: usize,
        now: f64,
    ) -> ReduceSchedContext<'a> {
        ReduceSchedContext::new(JobId(0), cands, free, cost, layout)
            .map_phase(progress, 0, 1)
            .reduce_phase(launched, total)
            .at(now)
    }

    #[test]
    fn reduce_launch_coupled_to_map_progress() {
        let topo = Topology::single_rack(3, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: 0 },
            sources: vec![],
        }];
        let free = vec![NodeId(0)];
        let mut p = CouplingPlacer::paper();
        let mut r = rng();
        // 0% map progress, 0 of 4 launched: not permitted.
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 0.0, 0, 4, 0.0);
        assert_eq!(
            p.place_reduce(&ctx, NodeId(0), &mut r),
            Decision::Skip(SkipReason::PostponedReduce)
        );
        // 30% progress permits ceil(1.2)=2 launches; 1 already running.
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 0.3, 1, 4, 0.0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut r), Decision::Assign(0));
        // ... but not a third.
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 0.3, 2, 4, 0.0);
        assert_eq!(
            p.place_reduce(&ctx, NodeId(0), &mut r),
            Decision::Skip(SkipReason::PostponedReduce)
        );
    }

    #[test]
    fn reduce_waits_for_centrality_then_gives_up() {
        // Data centre: all current bytes on node 1; node 0 is offered.
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: 0 },
            sources: vec![ShuffleSource {
                node: NodeId(1),
                current_bytes: 100.0,
                input_read: 50,
                input_total: 100,
            }],
        }];
        // Node 1 is free too: it is the centrality node, node 0 is not.
        let free = vec![NodeId(0), NodeId(1)];
        let mut p = CouplingPlacer::paper();
        let mut r = rng();
        // Offers on non-centrality node 0 within three heartbeat rounds
        // (1 s each) are postponed...
        for now in [0.0, 1.0, 2.0] {
            let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 1.0, 0, 1, now);
            assert_eq!(
                p.place_reduce(&ctx, NodeId(0), &mut r),
                Decision::Skip(SkipReason::PostponedReduce),
                "t={now}"
            );
        }
        // ...after the three-round budget, accepted anywhere.
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 1.0, 0, 1, 3.0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut r), Decision::Assign(0));
    }

    #[test]
    fn reduce_takes_centrality_node_immediately() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: 0 },
            sources: vec![ShuffleSource {
                node: NodeId(1),
                current_bytes: 100.0,
                input_read: 50,
                input_total: 100,
            }],
        }];
        let free = vec![NodeId(0), NodeId(1)];
        let mut p = CouplingPlacer::paper();
        let mut r = rng();
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 1.0, 0, 1, 0.0);
        assert_eq!(p.place_reduce(&ctx, NodeId(1), &mut r), Decision::Assign(0));
    }

    #[test]
    fn reduce_ties_go_to_the_last_candidate() {
        let topo = Topology::single_rack(2, GB);
        let h = DistanceMatrix::hops(&topo);
        let cand = |index, bytes: &[f64]| ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index },
            sources: bytes
                .iter()
                .map(|&b| ShuffleSource {
                    node: NodeId(0),
                    current_bytes: b,
                    input_read: 1,
                    input_total: 2,
                })
                .collect(),
        };
        let free = vec![NodeId(0), NodeId(1)];
        let mut p = CouplingPlacer::paper();
        // All sourceless: the last candidate of the window launches.
        let cands = vec![cand(0, &[]), cand(1, &[]), cand(2, &[])];
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 1.0, 0, 3, 0.0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut rng()), Decision::Assign(2));
        // Equal largest totals: the later of the two tied ones, not the
        // smaller last one.
        let cands = vec![cand(0, &[4.0, 6.0]), cand(1, &[10.0]), cand(2, &[5.0])];
        let ctx = reduce_ctx(&cands, &free, &h, topo.layout(), 1.0, 0, 3, 0.0);
        assert_eq!(p.place_reduce(&ctx, NodeId(0), &mut rng()), Decision::Assign(1));
    }

    #[test]
    fn reduce_collocation_avoided() {
        let topo = Topology::single_rack(2, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![ReduceCandidate {
            task: ReduceTaskId { job: JobId(0), index: 0 },
            sources: vec![],
        }];
        let free = vec![NodeId(0)];
        let running = vec![NodeId(0)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
            .running_on(&running)
            .map_phase(1.0, 1, 1);
        let mut p = CouplingPlacer::paper();
        assert_eq!(
            p.place_reduce(&ctx, NodeId(0), &mut rng()),
            Decision::Skip(SkipReason::Collocated)
        );
    }
}
