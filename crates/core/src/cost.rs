//! The transmission cost model (paper §II-B).
//!
//! Cost is `bytes × per-byte path cost`, where the per-byte cost is either a
//! hop count or the §II-B3 inverse-rate metric — both behind
//! [`PathCost`]. Following the cost measurement of the paper's citations
//! [13, 14], a placement's cost is the product of data size and distance.

use crate::context::{MapCandidate, ReduceCandidate};
use crate::costidx::{CostClasses, CostView};
use crate::estimate::IntermediateEstimator;
use pnats_net::{NodeId, PathCost};

/// Formula (1): cost of running map candidate `c` on `node`, reading its
/// block from the nearest replica:
/// `C_m(i,j) = B_j · min_{l : L_lj = 1} h_il`.
///
/// A candidate with no replicas (data lost / not yet placed) costs
/// `+∞` — it can never look attractive.
pub fn map_cost(c: &MapCandidate, node: NodeId, cost: &dyn PathCost) -> f64 {
    let nearest = c
        .replicas
        .iter()
        .map(|&r| cost.path_cost(node, r))
        .min_by(f64::total_cmp);
    match nearest {
        Some(h) => c.block_size as f64 * h,
        None => f64::INFINITY,
    }
}

/// `C_m_ave` (Algorithm 1, line 6): the expected cost of assigning map
/// candidate `c` uniformly over the nodes that currently have free map
/// slots: `Σ_{k=1}^{N_m} C_m(k,j) / N_m`.
pub fn map_cost_avg(c: &MapCandidate, free_nodes: &[NodeId], cost: &dyn PathCost) -> f64 {
    if free_nodes.is_empty() {
        return f64::INFINITY;
    }
    let sum: f64 = free_nodes.iter().map(|&k| map_cost(c, k, cost)).sum();
    sum / free_nodes.len() as f64
}

/// Formula (3): cost of running reduce candidate `c` on `node`, summing the
/// estimated shuffle bytes of every placed map weighted by path cost:
/// `C_r(i,f) = Σ_j Σ_p x_jp · h_pi · Î_jf` with `Î_jf` supplied by `est`.
pub fn reduce_cost(
    c: &ReduceCandidate,
    node: NodeId,
    cost: &dyn PathCost,
    est: IntermediateEstimator,
) -> f64 {
    c.sources
        .iter()
        .map(|s| est.estimate(s) * cost.path_cost(s.node, node))
        .sum()
}

/// `C_r_ave` (Algorithm 2, line 7): expected cost of assigning reduce
/// candidate `c` uniformly over the nodes with free reduce slots:
/// `Σ_{k=1}^{N_r} C_r(k,f) / N_r`.
///
/// Each source's `Î_jf` is estimated once, not once per free node; every
/// product and both summation orders are [`reduce_cost`]'s, so the result
/// is bit-identical to the mean of its per-node values.
pub fn reduce_cost_avg(
    c: &ReduceCandidate,
    free_nodes: &[NodeId],
    cost: &dyn PathCost,
    est: IntermediateEstimator,
) -> f64 {
    if free_nodes.is_empty() {
        return f64::INFINITY;
    }
    let bytes: Vec<f64> = c.sources.iter().map(|s| est.estimate(s)).collect();
    let sum: f64 = free_nodes
        .iter()
        .map(|&k| -> f64 {
            c.sources.iter().zip(&bytes).map(|(s, b)| b * cost.path_cost(s.node, k)).sum()
        })
        .sum();
    sum / free_nodes.len() as f64
}

/// Total estimated shuffle bytes destined for reduce candidate `c`
/// (used by LARTS-style baselines and diagnostics).
pub fn reduce_total_input(c: &ReduceCandidate, est: IntermediateEstimator) -> f64 {
    c.sources.iter().map(|s| est.estimate(s)).sum()
}

/// `C_m_ave` via the class index: mathematically equal to
/// [`map_cost_avg`] for any zero-diagonal, non-negative metric (the only
/// kind [`CostClasses`] is built for), but `O(classes × replicas)`
/// instead of `O(free nodes × replicas)`.
///
/// Free nodes hosting a replica contribute 0 (their nearest replica is
/// local); any other free node in class `q` contributes
/// `min_l h[q][class(l)]`, counted `free(q) − free replicas in q` times.
/// The integer class counts come from `view`, so the result is a
/// deterministic function of `(candidate, h-table, counts)` — the property
/// the differential parity gate relies on.
///
/// `h` must be `classes.h_table(..)` for the same matrix revision the
/// counts describe.
pub fn map_cost_avg_classed(
    c: &MapCandidate,
    classes: &CostClasses,
    h: &[f64],
    view: &CostView<'_>,
) -> f64 {
    if c.replicas.is_empty() || view.total_free == 0 {
        return f64::INFINITY;
    }
    let nc = classes.n_classes();
    let mut sum = 0.0;
    for (q, &cnt) in view.free_counts.iter().enumerate() {
        if cnt == 0 {
            continue;
        }
        let mut free_reps = 0u32;
        let m = c
            .replicas
            .iter()
            .map(|&r| {
                if classes.class(r) as usize == q && view.is_free(r) {
                    free_reps += 1;
                }
                h[q * nc + classes.class(r) as usize]
            })
            .min_by(f64::total_cmp)
            .expect("non-empty replicas");
        let eff = cnt - free_reps;
        if eff > 0 {
            sum += m * eff as f64;
        }
    }
    c.block_size as f64 * sum / view.total_free as f64
}

/// The per-class free-set distance sums feeding
/// [`reduce_cost_avg_classed`]: `base[p] = Σ_q free(q) · h[p][q]`, i.e. the
/// summed distance from a node of class `p` to every free node *other than
/// itself* (the diagonal of `h` is the intra-class pair distance; the
/// self-term correction happens per source). Classes with no free nodes are
/// skipped so an unreachable (`∞`) empty class cannot poison the sum.
///
/// Recomputed only when the free-set generation or matrix revision moves;
/// `out` is overwritten.
pub fn reduce_class_base(classes: &CostClasses, h: &[f64], counts: &[u32], out: &mut Vec<f64>) {
    let nc = classes.n_classes();
    out.clear();
    out.resize(nc, 0.0);
    for (p, slot) in out.iter_mut().enumerate() {
        let mut sum = 0.0;
        for (q, &cnt) in counts.iter().enumerate() {
            if cnt > 0 {
                sum += cnt as f64 * h[p * nc + q];
            }
        }
        *slot = sum;
    }
}

/// `C_r_ave` via the class index: mathematically equal to
/// [`reduce_cost_avg`] (with the per-node and per-source summations
/// interchanged), but `O(sources)` per candidate with the `O(classes²)`
/// part amortised into `base`.
///
/// Each source on node `p` radiates `est(s)` bytes to every free node:
/// summed distance `base[class(p)]`, minus the intra-class pair distance
/// when `p` itself is free (its self-distance is 0, not `intra`).
pub fn reduce_cost_avg_classed(
    c: &ReduceCandidate,
    classes: &CostClasses,
    base: &[f64],
    view: &CostView<'_>,
    est: IntermediateEstimator,
) -> f64 {
    if view.total_free == 0 {
        return f64::INFINITY;
    }
    let mut sum = 0.0;
    for s in &c.sources {
        let p = classes.class(s.node) as usize;
        let w = if view.is_free(s.node) { base[p] - classes.intra()[p] } else { base[p] };
        sum += est.estimate(s) * w;
    }
    sum / view.total_free as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ShuffleSource;
    use crate::types::{JobId, MapTaskId, ReduceTaskId};
    use pnats_net::DistanceMatrix;

    const MB: u64 = 1024 * 1024;

    fn mt(i: u32) -> MapTaskId {
        MapTaskId { job: JobId(0), index: i }
    }

    fn rt(i: u32) -> ReduceTaskId {
        ReduceTaskId { job: JobId(0), index: i }
    }

    /// The paper's Figure 2 example: block of M1 on D1, M1 assigned to D3,
    /// distance h(D3, D1) = 2, B = 128 MB -> cost 128 × 2 = 256 (in MB·hops).
    #[test]
    fn figure2_map_costs() {
        let h = DistanceMatrix::paper_figure2();
        let m1 = MapCandidate { task: mt(0), block_size: 128, replicas: vec![NodeId(0)] };
        let m2 = MapCandidate { task: mt(1), block_size: 128, replicas: vec![NodeId(1)] };
        assert_eq!(map_cost(&m1, NodeId(2), &h), 256.0);
        assert_eq!(map_cost(&m2, NodeId(1), &h), 0.0, "local placement is free");
    }

    #[test]
    fn map_cost_uses_nearest_replica() {
        let h = DistanceMatrix::paper_figure2();
        // Replicas on D1 (h from D2 = 10) and D3 (h from D2 = 6).
        let c = MapCandidate { task: mt(0), block_size: 10, replicas: vec![NodeId(1), NodeId(3)] };
        assert_eq!(map_cost(&c, NodeId(2), &h), 60.0);
    }

    #[test]
    fn map_cost_no_replicas_is_infinite() {
        let h = DistanceMatrix::zero(2);
        let c = MapCandidate { task: mt(0), block_size: 10, replicas: vec![] };
        assert!(map_cost(&c, NodeId(0), &h).is_infinite());
    }

    #[test]
    fn map_cost_avg_is_mean_over_free_nodes() {
        let h = DistanceMatrix::paper_figure2();
        let c = MapCandidate { task: mt(0), block_size: 1, replicas: vec![NodeId(0)] };
        // Costs from D0..D3 to replica D0: 0, 4, 2, 8 -> mean over {D0,D2} = 1.
        let avg = map_cost_avg(&c, &[NodeId(0), NodeId(2)], &h);
        assert_eq!(avg, 1.0);
        assert!(map_cost_avg(&c, &[], &h).is_infinite());
    }

    /// The full reduce-side worked example of Figure 2(b): with M1@D3,
    /// M2@D2, R1@D1, R2@D3 and I = [[10,5],[20,10]] (MB), the link costs
    /// are 10·2, 5·0, 20·4, 10·10 — total 200.
    #[test]
    fn figure2_reduce_costs() {
        let h = DistanceMatrix::paper_figure2();
        // All maps finished: current == final, d_read == B.
        let srcs_r1 = vec![
            ShuffleSource { node: NodeId(2), current_bytes: 10.0, input_read: 128, input_total: 128 },
            ShuffleSource { node: NodeId(1), current_bytes: 20.0, input_read: 128, input_total: 128 },
        ];
        let srcs_r2 = vec![
            ShuffleSource { node: NodeId(2), current_bytes: 5.0, input_read: 128, input_total: 128 },
            ShuffleSource { node: NodeId(1), current_bytes: 10.0, input_read: 128, input_total: 128 },
        ];
        let r1 = ReduceCandidate { task: rt(0), sources: srcs_r1 };
        let r2 = ReduceCandidate { task: rt(1), sources: srcs_r2 };
        let est = IntermediateEstimator::ProgressExtrapolated;
        // R1 on D1 (idx 0): 10·h(D3,D1) + 20·h(D2,D1) = 10·2 + 20·4 = 100.
        assert_eq!(reduce_cost(&r1, NodeId(0), &h, est), 100.0);
        // R2 on D3 (idx 2): 5·h(D3,D3) + 10·h(D2,D3) = 0 + 100 = 100.
        assert_eq!(reduce_cost(&r2, NodeId(2), &h, est), 100.0);
        // Total transmission cost of the assignment = 200, as in Fig. 2(b).
        let total = reduce_cost(&r1, NodeId(0), &h, est) + reduce_cost(&r2, NodeId(2), &h, est);
        assert_eq!(total, 200.0);
    }

    #[test]
    fn reduce_cost_extrapolates_in_progress_maps() {
        let h = DistanceMatrix::paper_figure2();
        // A half-done map on D1 with 3 bytes so far -> estimates 6 bytes.
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![ShuffleSource {
                node: NodeId(1),
                current_bytes: 3.0,
                input_read: 50,
                input_total: 100,
            }],
        };
        let ext = reduce_cost(&c, NodeId(0), &h, IntermediateEstimator::ProgressExtrapolated);
        let cur = reduce_cost(&c, NodeId(0), &h, IntermediateEstimator::CurrentSize);
        assert_eq!(ext, 6.0 * 4.0);
        assert_eq!(cur, 3.0 * 4.0);
    }

    #[test]
    fn reduce_cost_zero_on_sole_source_node() {
        let h = DistanceMatrix::paper_figure2();
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![ShuffleSource {
                node: NodeId(1),
                current_bytes: 9.0,
                input_read: 1,
                input_total: 1,
            }],
        };
        assert_eq!(
            reduce_cost(&c, NodeId(1), &h, IntermediateEstimator::default()),
            0.0
        );
    }

    #[test]
    fn reduce_cost_avg_and_total_input() {
        let h = DistanceMatrix::paper_figure2();
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![ShuffleSource {
                node: NodeId(0),
                current_bytes: 2.0,
                input_read: 1,
                input_total: 1,
            }],
        };
        let est = IntermediateEstimator::default();
        // Costs from D0..D3: 0, 8, 4, 16 -> mean over all four = 7.
        let avg = reduce_cost_avg(
            &c,
            &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)],
            &h,
            est,
        );
        assert_eq!(avg, 7.0);
        assert_eq!(reduce_total_input(&c, est), 2.0);
        assert!(reduce_cost_avg(&c, &[], &h, est).is_infinite());
    }

    /// Build a cost view over `free` for classed-vs-legacy cross-checks.
    fn view_over<'a>(
        classes: &'a CostClasses,
        counts: &'a [u32],
        bits: &'a [u64],
        total: u32,
    ) -> CostView<'a> {
        CostView {
            classes,
            free_counts: counts,
            free_bits: bits,
            total_free: total,
            generation: 0,
        }
    }

    /// 2 racks × 2 nodes, hop ladder 0/2/4 — integer-valued, so legacy and
    /// classed means agree exactly, not just approximately.
    fn two_racks() -> DistanceMatrix {
        #[rustfmt::skip]
        let rows = vec![
            0.0, 2.0, 4.0, 4.0,
            2.0, 0.0, 4.0, 4.0,
            4.0, 4.0, 0.0, 2.0,
            4.0, 4.0, 2.0, 0.0,
        ];
        DistanceMatrix::from_rows(4, rows)
    }

    #[test]
    fn classed_map_avg_matches_legacy() {
        let m = two_racks();
        let classes = CostClasses::from_class_map(&[0, 0, 1, 1], &m);
        let h = classes.h_table(&m);
        // Replica on node 1 (free) and node 2 (not free); free = {0, 1, 3}.
        let c = MapCandidate {
            task: mt(0),
            block_size: 128,
            replicas: vec![NodeId(1), NodeId(2)],
        };
        let free = [NodeId(0), NodeId(1), NodeId(3)];
        let (counts, bits, total) = crate::costidx::recount_free(&classes, &free);
        let view = view_over(&classes, &counts, &bits, total);
        assert_eq!(
            map_cost_avg_classed(&c, &classes, &h, &view),
            map_cost_avg(&c, &free, &m),
        );
        assert!(map_cost_avg_classed(
            &MapCandidate { task: mt(1), block_size: 1, replicas: vec![] },
            &classes,
            &h,
            &view
        )
        .is_infinite());
    }

    #[test]
    fn reduce_cost_avg_is_the_mean_of_reduce_cost_bit_for_bit() {
        let h = DistanceMatrix::paper_figure2();
        let src = |node, current_bytes, input_read| ShuffleSource {
            node: NodeId(node),
            current_bytes,
            input_read,
            input_total: 3,
        };
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![src(1, 0.1, 1), src(3, 0.7, 2), src(1, 1.3, 0), src(2, 0.3, 3)],
        };
        let free = [NodeId(3), NodeId(0), NodeId(2), NodeId(1)];
        for est in [IntermediateEstimator::ProgressExtrapolated, IntermediateEstimator::CurrentSize] {
            let sum: f64 = free.iter().map(|&k| reduce_cost(&c, k, &h, est)).sum();
            let mean = sum / free.len() as f64;
            assert_eq!(reduce_cost_avg(&c, &free, &h, est).to_bits(), mean.to_bits());
        }
    }

    #[test]
    fn classed_reduce_avg_matches_legacy() {
        let m = two_racks();
        let classes = CostClasses::from_class_map(&[0, 0, 1, 1], &m);
        let h = classes.h_table(&m);
        let est = IntermediateEstimator::default();
        // Sources on a free node (1) and a busy node (2); free = {1, 3}.
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![
                ShuffleSource { node: NodeId(1), current_bytes: 8.0, input_read: 1, input_total: 1 },
                ShuffleSource { node: NodeId(2), current_bytes: 3.0, input_read: 1, input_total: 1 },
            ],
        };
        let free = [NodeId(1), NodeId(3)];
        let (counts, bits, total) = crate::costidx::recount_free(&classes, &free);
        let view = view_over(&classes, &counts, &bits, total);
        let mut base = Vec::new();
        reduce_class_base(&classes, &h, &counts, &mut base);
        assert_eq!(
            reduce_cost_avg_classed(&c, &classes, &base, &view, est),
            reduce_cost_avg(&c, &free, &m, est),
        );
    }

    #[test]
    fn classed_reduce_base_skips_empty_classes() {
        // An isolated (unreachable, ∞-distance) node whose class has no
        // free slots must not poison the base sums with ∞ · 0.
        #[rustfmt::skip]
        let rows = vec![
            0.0, 2.0, f64::INFINITY,
            2.0, 0.0, f64::INFINITY,
            f64::INFINITY, f64::INFINITY, 0.0,
        ];
        let m = DistanceMatrix::from_rows(3, rows);
        let classes = CostClasses::from_class_map(&[0, 0, 1], &m);
        let h = classes.h_table(&m);
        let free = [NodeId(0), NodeId(1)];
        let (counts, bits, total) = crate::costidx::recount_free(&classes, &free);
        let view = view_over(&classes, &counts, &bits, total);
        let mut base = Vec::new();
        reduce_class_base(&classes, &h, &counts, &mut base);
        let c = ReduceCandidate {
            task: rt(0),
            sources: vec![ShuffleSource {
                node: NodeId(0),
                current_bytes: 4.0,
                input_read: 1,
                input_total: 1,
            }],
        };
        let got = reduce_cost_avg_classed(&c, &classes, &base, &view, IntermediateEstimator::default());
        assert_eq!(got, reduce_cost_avg(&c, &free, &m, IntermediateEstimator::default()));
        assert!(got.is_finite());
    }

    #[test]
    fn costs_scale_with_block_size() {
        let h = DistanceMatrix::paper_figure2();
        let small = MapCandidate { task: mt(0), block_size: MB, replicas: vec![NodeId(0)] };
        let large = MapCandidate { task: mt(1), block_size: 4 * MB, replicas: vec![NodeId(0)] };
        assert_eq!(
            4.0 * map_cost(&small, NodeId(2), &h),
            map_cost(&large, NodeId(2), &h)
        );
    }
}
