//! Coupling's centrality test stops at the first cheaper free node; the
//! rule it replaced priced every free node and compared against the
//! minimum. This property holds the placer to that full-minimum rule,
//! kept here as [`FullMin`], over sequences of reduce offers on random
//! layouts of 1–4 racks: the same [`Decision`] on every offer and the same
//! postponement state (`CouplingPlacer::postponed_since`) after it.
//!
//! The generated offers mix zero-byte sources, several sources on one
//! node, free sets of any size around the offering node, costs within the
//! `·1.0001` tolerance of each other, closed launch gates and co-located
//! reduces, and a clock that advances by 0–1.5 s per offer, so tasks are
//! postponed, re-offered and waited out. The case count honors
//! `PROPTEST_CASES`.

use pnats_baselines::CouplingPlacer;
use pnats_core::context::{ReduceCandidate, ReduceSchedContext, ShuffleSource};
use pnats_core::cost::{reduce_cost, reduce_total_input};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_core::types::{JobId, ReduceTaskId};
use pnats_net::{ClusterLayout, NodeId, RackId, RackLadderCost, UniformCost};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const JOB: JobId = JobId(0);
/// Reduce tasks the windows draw from.
const TASKS: u32 = 5;

/// The centrality rule before the early exit, `here <= min_k C(k)·1.0001 +
/// ε` over the whole free set, with Coupling's gates and postponement
/// around it unchanged.
struct FullMin {
    max_postpone: u32,
    heartbeat_s: f64,
    first_offer: HashMap<ReduceTaskId, f64>,
}

impl FullMin {
    fn paper() -> Self {
        Self { max_postpone: 3, heartbeat_s: 1.0, first_offer: HashMap::new() }
    }

    fn place_reduce(&mut self, ctx: &ReduceSchedContext<'_>, node: NodeId) -> Decision {
        if ctx.job_reduce_nodes.contains(&node) {
            return Decision::Skip(SkipReason::Collocated);
        }
        let permitted = (ctx.job_map_progress * ctx.reduces_total as f64).ceil() as usize;
        if ctx.reduces_launched >= permitted {
            return Decision::Skip(SkipReason::PostponedReduce);
        }
        let est = IntermediateEstimator::CurrentSize;
        let (best_idx, _) = ctx
            .candidates
            .iter()
            .enumerate()
            .map(|(i, c)| (i, reduce_total_input(c, est)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        let cand = &ctx.candidates[best_idx];
        let coarse = RackLadderCost::hadoop(ctx.layout);
        let here = reduce_cost(cand, node, &coarse, est);
        let min_free = ctx
            .free_reduce_nodes
            .iter()
            .map(|&k| reduce_cost(cand, k, &coarse, est))
            .min_by(f64::total_cmp)
            .unwrap_or(0.0);
        let is_centrality = here <= min_free * 1.0001 + f64::EPSILON;
        let first = *self.first_offer.entry(cand.task).or_insert(ctx.now);
        let waited_out = ctx.now - first >= self.max_postpone as f64 * self.heartbeat_s;
        if is_centrality || waited_out {
            self.first_offer.remove(&cand.task);
            Decision::Assign(best_idx)
        } else {
            Decision::Skip(SkipReason::PostponedReduce)
        }
    }
}

/// One reduce offer and the context it is decided against.
#[derive(Debug)]
struct Offer {
    node: NodeId,
    free: Vec<NodeId>,
    running: Vec<NodeId>,
    candidates: Vec<ReduceCandidate>,
    progress: f64,
    now: f64,
}

#[derive(Debug)]
struct Scenario {
    layout: ClusterLayout,
    offers: Vec<Offer>,
}

/// Shuffle bytes: zero, small integers (exact ties on the 0/2/4 ladder),
/// and the same nudged by less and by more than the 0.01 % tolerance.
fn bytes(rng: &mut SmallRng) -> f64 {
    let base = [0.0, 1.0, 2.0, 3.0, 5.0][rng.gen_range(0..5)];
    base * [1.0, 1.0, 1.00003, 1.00008, 1.0003][rng.gen_range(0..5)]
}

fn scenario(racks: u32, n: usize, seed: u64) -> Scenario {
    let mut rng = SmallRng::seed_from_u64(seed);
    let layout = ClusterLayout::new((0..n).map(|_| RackId(rng.gen_range(0..racks))).collect());
    let mut now = 0.0;
    let offers = (0..rng.gen_range(1..40))
        .map(|_| {
            now += [0.0, 0.5, 1.0, 1.5][rng.gen_range(0..4)];
            let node = NodeId(rng.gen_range(0..n as u32));
            let free: Vec<NodeId> = (0..n as u32)
                .map(NodeId)
                .filter(|&k| k == node || rng.gen_bool(0.5))
                .collect();
            let running = (0..n as u32).map(NodeId).filter(|_| rng.gen_bool(0.05)).collect();
            let window: Vec<u32> = (0..TASKS).filter(|_| rng.gen_bool(0.5)).collect();
            let candidates = window
                .into_iter()
                .map(|index| ReduceCandidate {
                    task: ReduceTaskId { job: JOB, index },
                    sources: (0..rng.gen_range(0..5))
                        .map(|_| ShuffleSource {
                            node: NodeId(rng.gen_range(0..n as u32)),
                            current_bytes: bytes(&mut rng),
                            input_read: 1,
                            input_total: 2,
                        })
                        .collect(),
                })
                .collect();
            Offer {
                node,
                free,
                running,
                candidates,
                progress: if rng.gen_bool(0.9) { 1.0 } else { 0.0 },
                now,
            }
        })
        .filter(|o: &Offer| !o.candidates.is_empty())
        .collect();
    Scenario { layout, offers }
}

proptest! {
    #[test]
    fn early_exit_centrality_equals_the_full_minimum(
        racks in 1u32..=4,
        n in 1usize..=12,
        seed in 0u64..u64::MAX,
    ) {
        let sc = scenario(racks, n, seed);
        // The placers read the layout, never the context's metric.
        let metric = UniformCost::new(n, 1.0);
        let mut placer = CouplingPlacer::paper();
        let mut reference = FullMin::paper();
        let mut rng = SmallRng::seed_from_u64(seed);
        for (i, o) in sc.offers.iter().enumerate() {
            let ctx = ReduceSchedContext::new(JOB, &o.candidates, &o.free, &metric, &sc.layout)
                .running_on(&o.running)
                .map_phase(o.progress, 0, 1)
                .reduce_phase(0, TASKS as usize)
                .at(o.now);
            let got = placer.place_reduce(&ctx, o.node, &mut rng);
            let want = reference.place_reduce(&ctx, o.node);
            prop_assert_eq!(got, want, "offer {} on {:?}: {:?}", i, sc.layout, o);
            for index in 0..TASKS {
                let task = ReduceTaskId { job: JOB, index };
                prop_assert_eq!(
                    placer.postponed_since(task),
                    reference.first_offer.get(&task).copied(),
                    "offer {} task {}", i, index
                );
            }
        }
    }
}
