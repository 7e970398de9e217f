//! Property test: the probabilistic placer is history-free.
//!
//! `C_i`, `C_ave` and `P` are pure functions of (candidate, free set, cost
//! matrix), so a placer that has already answered any number of offers must
//! answer the next one exactly as a brand-new placer would: same
//! [`Decision`], bit-equal [`TaskPlacer::last_detail`], same RNG state
//! afterwards. The only state a placer carries between offers is its
//! class tables (`h` per matrix revision, the reduce-side per-class sums
//! per free-set generation); the offer sequences below move the matrix
//! revision, the free set and its generation stamp independently — and
//! switch the [`CostView`] on and off between offers — so a table that
//! outlives its key shows up as a diverging decision.

mod spec;

use pnats_core::context::{MapCandidate, ReduceCandidate, ShuffleSource};
use pnats_core::costidx::recount_free;
use pnats_core::placer::TaskPlacer;
use pnats_core::types::{JobId, MapTaskId, ReduceTaskId};
use pnats_core::{CostView, MapSchedContext, ProbConfig, ProbabilisticPlacer, ReduceSchedContext};
use pnats_net::{ClusterLayout, DistanceMatrix, NodeId, RackId};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

const MAX_NODES: usize = 12;

/// A zero-diagonal, non-negative `n × n` matrix: either a rack hop ladder
/// (nodes of one rack are interchangeable, so the class partition is
/// non-trivial) or unstructured noise (every node its own class). Drawn over
/// the maximum node domain and cut down to `n` (the vendored proptest shim
/// has no `prop_flat_map`).
fn matrix_strategy() -> impl Strategy<Value = DistanceMatrix> {
    (
        2usize..=MAX_NODES,
        proptest::collection::vec(0u32..4, MAX_NODES),
        (1u32..5, 5u32..20),
        (0u8..3).prop_map(|k| k == 0),
        proptest::collection::vec(0.5f64..20.0, MAX_NODES * MAX_NODES),
    )
        .prop_map(|(n, rack_of, (near, far), noisy, noise)| {
            let mut rows = vec![0.0; n * n];
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    rows[a * n + b] = if noisy {
                        noise[a * MAX_NODES + b]
                    } else if rack_of[a] == rack_of[b] {
                        near as f64
                    } else {
                        far as f64
                    };
                }
            }
            DistanceMatrix::from_rows(n, rows)
        })
}

/// Map candidates as `(block size, raw replica nodes)`; nodes are folded
/// onto the drawn cluster size and deduplicated (a block never has two
/// replicas on one node).
fn map_cands_strategy() -> impl Strategy<Value = Vec<(u64, Vec<usize>)>> {
    proptest::collection::vec(
        (1u64..=256, proptest::collection::vec(0..MAX_NODES, 0..=3)),
        1..=6,
    )
}

/// Reduce candidates as raw shuffle sources `(node, bytes so far, % read)`.
fn reduce_cands_strategy() -> impl Strategy<Value = Vec<Vec<(usize, f64, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..MAX_NODES, 0.0f64..100.0, 0u64..=100), 0..=4),
        1..=4,
    )
}

/// One slot offer: which nodes are free, which node heartbeats, whether it
/// is a reduce slot, whether the runtime supplies a [`CostView`], which
/// nodes already run a reduce of the job, and an optional matrix edit
/// `(a, b, value)` applied first (a revision bump).
#[derive(Debug, Clone)]
struct Offer {
    free_mask: u16,
    node: usize,
    reduce: bool,
    with_view: bool,
    running_mask: u16,
    edit: Option<(usize, usize, f64)>,
}

fn offers_strategy() -> impl Strategy<Value = Vec<Offer>> {
    let offer = (
        0u16..(1 << MAX_NODES),
        0..MAX_NODES,
        0u8..4,
        // Mostly nothing running, so reduce offers get past line 1.
        prop_oneof![3 => Just(0u16), 1 => 0u16..(1 << MAX_NODES)],
        prop_oneof![
            3 => Just(None),
            1 => (0..MAX_NODES, 0..MAX_NODES, 0.5f64..20.0).prop_map(Some),
        ],
    )
        .prop_map(|(free_mask, node, flags, running_mask, edit)| Offer {
            free_mask,
            node,
            reduce: flags & 1 == 1,
            with_view: flags & 2 == 2,
            running_mask,
            edit,
        });
    proptest::collection::vec(offer, 1..=12)
}

fn nodes_of(mask: u16, n: usize) -> Vec<NodeId> {
    (0..n).filter(|i| mask >> i & 1 == 1).map(|i| NodeId(i as u32)).collect()
}

/// What one `place_*` call produced, in bit-exact comparable form.
fn outcome(
    decision: pnats_core::Decision,
    placer: &ProbabilisticPlacer,
    rng: &SmallRng,
) -> (pnats_core::Decision, Option<[u64; 3]>, String) {
    let detail = placer
        .last_detail()
        .map(|d| [d.cost.to_bits(), d.cost_avg.to_bits(), d.probability.to_bits()]);
    (decision, detail, format!("{rng:?}"))
}

proptest! {
    #[test]
    fn warm_placer_answers_like_a_fresh_one(
        matrix in matrix_strategy(),
        raw_maps in map_cands_strategy(),
        raw_reduces in reduce_cands_strategy(),
        offers in offers_strategy(),
        p_min in 0.0f64..0.6,
        seed in 0u64..1 << 32,
    ) {
        let mut h = matrix;
        let n = h.n();
        let layout = ClusterLayout::new(vec![RackId(0); n]);
        let job = JobId(0);
        let map_cands: Vec<MapCandidate> = raw_maps
            .iter()
            .enumerate()
            .map(|(i, (block_size, raw))| {
                let mut replicas: Vec<NodeId> =
                    raw.iter().map(|r| NodeId((r % n) as u32)).collect();
                replicas.sort_unstable();
                replicas.dedup();
                MapCandidate {
                    task: MapTaskId { job, index: i as u32 },
                    block_size: *block_size,
                    replicas,
                }
            })
            .collect();
        let reduce_cands: Vec<ReduceCandidate> = raw_reduces
            .iter()
            .enumerate()
            .map(|(i, raw)| ReduceCandidate {
                task: ReduceTaskId { job, index: i as u32 },
                sources: raw
                    .iter()
                    .map(|&(node, current_bytes, input_read)| ShuffleSource {
                        node: NodeId((node % n) as u32),
                        current_bytes,
                        input_read,
                        input_total: 100,
                    })
                    .collect(),
            })
            .collect();

        let config = ProbConfig::with_p_min(p_min);
        let mut warm = ProbabilisticPlacer::new(config);
        let mut warm_rng = SmallRng::seed_from_u64(seed);
        // The free-set stamp moves exactly when membership does, as
        // `CostView::generation` requires — so consecutive offers over one
        // free set let the warm placer reuse its per-class sums.
        let mut generation = 0u64;
        let mut last_free: Vec<NodeId> = Vec::new();
        for (k, offer) in offers.iter().enumerate() {
            if let Some((a, b, v)) = offer.edit {
                if a % n != b % n {
                    h.set(NodeId((a % n) as u32), NodeId((b % n) as u32), v);
                }
            }
            let node = NodeId((offer.node % n) as u32);
            let free = nodes_of(offer.free_mask | 1 << node.idx(), n);
            if free != last_free {
                generation += 1;
                last_free = free.clone();
            }
            let running = nodes_of(offer.running_mask, n);
            let classes = spec::derive_classes(&h);
            let (counts, bits, total_free) = recount_free(&classes, &free);
            let view = CostView {
                classes: &classes,
                free_counts: &counts,
                free_bits: &bits,
                total_free,
                generation,
            };

            let mut fresh = ProbabilisticPlacer::new(config);
            let mut fresh_rng = warm_rng.clone();
            let (got, want) = if offer.reduce {
                let mut ctx = ReduceSchedContext::new(job, &reduce_cands, &free, &h, &layout)
                    .running_on(&running);
                if offer.with_view {
                    ctx = ctx.with_cost_view(view);
                }
                let want = fresh.place_reduce(&ctx, node, &mut fresh_rng);
                (warm.place_reduce(&ctx, node, &mut warm_rng), want)
            } else {
                let mut ctx = MapSchedContext::new(job, &map_cands, &free, &h, &layout);
                if offer.with_view {
                    ctx = ctx.with_cost_view(view);
                }
                let want = fresh.place_map(&ctx, node, &mut fresh_rng);
                (warm.place_map(&ctx, node, &mut warm_rng), want)
            };
            prop_assert_eq!(
                outcome(got, &warm, &warm_rng),
                outcome(want, &fresh, &fresh_rng),
                "offer {k} of {offers:?}"
            );
        }
    }
}
