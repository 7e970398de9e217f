//! Path-cost equivalence classes: the incremental `C_ave` index.
//!
//! Averaging a candidate's cost over every free-slot node (Algorithm 1
//! line 6 / Algorithm 2 line 7) is `O(free nodes)` per candidate, and the
//! mean is computed afresh for every candidate of every offer — at 10k
//! nodes the per-node mean dominates the whole simulation. The fix exploits
//! the structure of hop metrics: in any switch hierarchy, all nodes hanging
//! off one leaf switch are *interchangeable* as far as path costs go.
//! Partition the nodes into such equivalence classes and `C_ave` collapses
//! to a sum over classes weighted by **integer** per-class free-slot counts.
//!
//! The runtime maintains the integer counts incrementally (±1 on each
//! free-slot membership flip); debug builds recount them from the free list
//! before every decision ([`audit_view`]). The class sum regroups the
//! per-node sum, so it matches the per-node mean to rounding, not bit for
//! bit. The test-side transcription of the paper (`crates/core/tests/spec`)
//! holds every classed `C_ave` to within 1e-9 of its per-node mean, and
//! every decision to the spec's.
//!
//! A hop metric that knows its classes (`pnats_net::ClassedDistance`)
//! hands them over through [`CostClasses::from_class_map`]. Matrices
//! without that structure are partitioned by [`CostClasses::derive`]; the
//! §II-B3 congestion-scaled matrices quickly make every row distinct and
//! fail its class cap, and the runtime then hands the placer no
//! [`CostView`] at all, so the placer uses the per-node mean.

use pnats_net::{NodeId, PathCost};

/// A partition of the cluster's nodes into path-cost equivalence classes.
///
/// Nodes `i` and `j` are equivalent iff swapping them changes no path cost:
/// `h(i,k) = h(j,k)` and `h(k,i) = h(k,j)` for every third node `k`, and
/// `h(i,j) = h(j,i)`. Classes are numbered in first-seen (ascending node
/// id) order, so the partition — and everything derived from it — is a
/// deterministic function of the matrix alone.
#[derive(Clone, Debug, PartialEq)]
pub struct CostClasses {
    /// Node → class index.
    class_of: Vec<u32>,
    /// Class → representative node (its lowest-id member).
    reps: Vec<NodeId>,
    /// Class → member count.
    sizes: Vec<u32>,
    /// Class → distance between two *distinct* members (0.0 for
    /// singletons, where no such pair exists). Well-defined because the
    /// equivalence relation forces all intra-class pairs to one value.
    intra: Vec<f64>,
    /// The [`PathCost::version`] of the matrix this partition was derived
    /// from; consumers key their derived tables on it.
    version: u64,
}

impl CostClasses {
    /// Derive the partition from a cost matrix, or `None` if it needs more
    /// than `max_classes` classes (an unstructured matrix — congestion
    /// scaling makes rows distinct — where class bookkeeping would cost
    /// more than it saves).
    pub fn derive(cost: &dyn PathCost, max_classes: usize) -> Option<Self> {
        let n = cost.n_nodes();
        let mut class_of = vec![0u32; n];
        let mut reps: Vec<NodeId> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let mut intra: Vec<f64> = Vec::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            let ni = NodeId(i as u32);
            let mut found = None;
            'classes: for (q, &r) in reps.iter().enumerate() {
                let pair = cost.path_cost(ni, r);
                // NaN never matches (both comparisons false), pushing the
                // node into its own class — NaN-poisoned matrices derive as
                // all-singletons or fail the cap, never alias nodes.
                if !(pair == cost.path_cost(r, ni)) {
                    continue;
                }
                if sizes[q] >= 2 && !(pair == intra[q]) {
                    continue;
                }
                for k in 0..n {
                    let nk = NodeId(k as u32);
                    if nk == ni || nk == r {
                        continue;
                    }
                    if !(cost.path_cost(ni, nk) == cost.path_cost(r, nk))
                        || !(cost.path_cost(nk, ni) == cost.path_cost(nk, r))
                    {
                        continue 'classes;
                    }
                }
                found = Some((q, pair));
                break;
            }
            match found {
                Some((q, pair)) => {
                    *slot = q as u32;
                    if sizes[q] == 1 {
                        intra[q] = pair;
                    }
                    sizes[q] += 1;
                }
                None => {
                    if reps.len() >= max_classes {
                        return None;
                    }
                    *slot = reps.len() as u32;
                    reps.push(ni);
                    sizes.push(1);
                    intra.push(0.0);
                }
            }
        }
        Some(Self { class_of, reps, sizes, intra, version: cost.version() })
    }

    /// Build from an explicit node → class map (for cost models that know
    /// their class structure up front, e.g. a switch-grouped hop model,
    /// where an `O(n²)` derivation would defeat the purpose). Class ids are
    /// renumbered into first-seen order so the result is identical to what
    /// [`CostClasses::derive`] would produce on the same partition.
    pub fn from_class_map(raw_class_of: &[u32], cost: &dyn PathCost) -> Self {
        let n = raw_class_of.len();
        assert_eq!(n, cost.n_nodes(), "class map must cover every node");
        let n_raw = raw_class_of.iter().map(|&c| c as usize + 1).max().unwrap_or(0);
        let mut remap = vec![u32::MAX; n_raw];
        let mut class_of = vec![0u32; n];
        let mut reps: Vec<NodeId> = Vec::new();
        let mut sizes: Vec<u32> = Vec::new();
        let mut second: Vec<Option<NodeId>> = Vec::new();
        for (i, &raw) in raw_class_of.iter().enumerate() {
            let q = if remap[raw as usize] == u32::MAX {
                let q = reps.len() as u32;
                remap[raw as usize] = q;
                reps.push(NodeId(i as u32));
                sizes.push(0);
                second.push(None);
                q
            } else {
                remap[raw as usize]
            };
            class_of[i] = q;
            sizes[q as usize] += 1;
            if sizes[q as usize] == 2 {
                second[q as usize] = Some(NodeId(i as u32));
            }
        }
        let intra = reps
            .iter()
            .zip(&second)
            .map(|(&r, s)| match s {
                Some(m) => cost.path_cost(r, *m),
                None => 0.0,
            })
            .collect();
        Self { class_of, reps, sizes, intra, version: cost.version() }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.reps.len()
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.class_of.len()
    }

    /// Node → class index table.
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }

    /// Class of one node.
    #[inline]
    pub fn class(&self, node: NodeId) -> u32 {
        self.class_of[node.idx()]
    }

    /// Class → representative node.
    pub fn reps(&self) -> &[NodeId] {
        &self.reps
    }

    /// Class → member count.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Class → intra-class pair distance (0.0 for singletons).
    pub fn intra(&self) -> &[f64] {
        &self.intra
    }

    /// The matrix revision this partition describes.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The dense class-to-class distance table for `cost` (row-major,
    /// `n_classes × n_classes`): entry `(a, b)` is the distance from a
    /// member of `a` to a *different* node in `b` — the representative
    /// distance off-diagonal, the intra-class pair distance on it.
    ///
    /// `cost` must share the partition's structure but may be a different
    /// view of it (the simulator uses one partition for a matrix and its
    /// transpose, since the equivalence relation is direction-symmetric).
    pub fn h_table(&self, cost: &dyn PathCost) -> Vec<f64> {
        let c = self.reps.len();
        let mut h = vec![0.0; c * c];
        for a in 0..c {
            for b in 0..c {
                h[a * c + b] = if a == b {
                    self.intra[a]
                } else {
                    cost.path_cost(self.reps[a], self.reps[b])
                };
            }
        }
        h
    }
}

/// The incremental cost index a runtime hands to the placer alongside each
/// scheduling context: the class partition plus the *current* per-class
/// free-slot counts, free-node bitset and a generation stamp.
///
/// `generation` must change whenever free-set membership changes (a node
/// gaining its first or losing its last free slot); the placer keys its
/// reduce-side per-class distance sums on `(generation, cost version)`. A
/// runtime whose matrix is unstructured builds no view, and the placer
/// uses the legacy per-node mean (bit-identical to the unindexed code).
#[derive(Clone, Copy, Debug)]
pub struct CostView<'a> {
    /// The partition of the matrix the context's costs come from.
    pub classes: &'a CostClasses,
    /// Per-class free-slot node counts.
    pub free_counts: &'a [u32],
    /// Free-node membership bitset, 64 nodes per word, node id = bit index.
    pub free_bits: &'a [u64],
    /// Total free-slot nodes (must equal the context's free-list length).
    pub total_free: u32,
    /// Free-set revision stamp.
    pub generation: u64,
}

impl<'a> CostView<'a> {
    /// Whether `node` is in the free set.
    #[inline]
    pub fn is_free(&self, node: NodeId) -> bool {
        let i = node.idx();
        (self.free_bits[i / 64] >> (i % 64)) & 1 == 1
    }
}

/// Recount the per-class free counts from an explicit free list — the
/// reference implementation the incremental bookkeeping is audited against.
/// Returns `(per-class counts, membership bits, total)`.
pub fn recount_free(classes: &CostClasses, free: &[NodeId]) -> (Vec<u32>, Vec<u64>, u32) {
    let mut counts = vec![0u32; classes.n_classes()];
    let mut bits = vec![0u64; classes.n_nodes().div_ceil(64)];
    for &f in free {
        counts[classes.class(f) as usize] += 1;
        bits[f.idx() / 64] |= 1 << (f.idx() % 64);
    }
    (counts, bits, free.len() as u32)
}

/// Panic unless `view`'s incremental bookkeeping matches a from-scratch
/// recount over `free` — the audit debug builds run before every decision.
pub fn audit_view(classes: &CostClasses, free: &[NodeId], view: &CostView<'_>, side: &str) {
    let (counts, bits, total) = recount_free(classes, free);
    assert_eq!(
        view.total_free, total,
        "{side}: incremental total_free diverged from the free list"
    );
    assert_eq!(
        view.free_counts, &counts[..],
        "{side}: incremental per-class free counts diverged from recount"
    );
    for (w, (&got, &want)) in view.free_bits.iter().zip(&bits).enumerate() {
        assert_eq!(got, want, "{side}: free bitset word {w} diverged from recount");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_net::DistanceMatrix;

    /// 2 racks × 2 nodes: hop ladder 0/2/4, two classes of two nodes.
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
    fn derive_groups_rack_mates() {
        let c = CostClasses::derive(&two_racks(), 8).expect("structured");
        assert_eq!(c.n_classes(), 2);
        assert_eq!(c.class_of(), &[0, 0, 1, 1]);
        assert_eq!(c.reps(), &[NodeId(0), NodeId(2)]);
        assert_eq!(c.sizes(), &[2, 2]);
        assert_eq!(c.intra(), &[2.0, 2.0]);
    }

    #[test]
    fn derive_single_rack_is_one_class() {
        let m = DistanceMatrix::from_rows(
            3,
            vec![0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0],
        );
        let c = CostClasses::derive(&m, 8).expect("structured");
        assert_eq!(c.n_classes(), 1);
        assert_eq!(c.sizes(), &[3]);
        assert_eq!(c.intra(), &[2.0]);
    }

    #[test]
    fn derive_respects_class_cap() {
        // Figure 2's matrix has four distinct rows — four classes.
        let m = DistanceMatrix::paper_figure2();
        assert!(CostClasses::derive(&m, 3).is_none(), "cap must reject");
        let c = CostClasses::derive(&m, 4).expect("under cap");
        assert_eq!(c.n_classes(), 4);
        assert_eq!(c.sizes(), &[1, 1, 1, 1]);
        assert_eq!(c.intra(), &[0.0; 4]);
    }

    #[test]
    fn derive_rejects_asymmetric_pairs_from_one_class() {
        // h(0,1) ≠ h(1,0): 0 and 1 must not share a class even though
        // their third-party rows agree.
        #[rustfmt::skip]
        let rows = vec![
            0.0, 3.0, 5.0,
            2.0, 0.0, 5.0,
            5.0, 5.0, 0.0,
        ];
        let m = DistanceMatrix::from_rows(3, rows);
        let c = CostClasses::derive(&m, 8).expect("still derivable");
        assert_eq!(c.n_classes(), 3);
    }

    #[test]
    fn h_table_has_intra_diagonal() {
        let m = two_racks();
        let c = CostClasses::derive(&m, 8).unwrap();
        let h = c.h_table(&m);
        assert_eq!(h, vec![2.0, 4.0, 4.0, 2.0]);
    }

    #[test]
    fn from_class_map_matches_derive() {
        let m = two_racks();
        let derived = CostClasses::derive(&m, 8).unwrap();
        // Same partition under scrambled raw ids: renumbered to first-seen.
        let built = CostClasses::from_class_map(&[7, 7, 3, 3], &m);
        assert_eq!(built, derived);
    }

    #[test]
    fn recount_and_view_audit() {
        let m = two_racks();
        let c = CostClasses::derive(&m, 8).unwrap();
        let free = vec![NodeId(1), NodeId(2), NodeId(3)];
        let (counts, bits, total) = recount_free(&c, &free);
        assert_eq!(counts, vec![1, 2]);
        assert_eq!(total, 3);
        assert_eq!(bits, vec![0b1110]);
        let view = CostView {
            classes: &c,
            free_counts: &counts,
            free_bits: &bits,
            total_free: total,
            generation: 0,
        };
        assert!(!view.is_free(NodeId(0)));
        assert!(view.is_free(NodeId(3)));
        audit_view(&c, &free, &view, "test");
    }

    #[test]
    #[should_panic(expected = "per-class free counts diverged")]
    fn audit_catches_stale_counts() {
        let m = two_racks();
        let c = CostClasses::derive(&m, 8).unwrap();
        let free = vec![NodeId(1), NodeId(2)];
        let (_, bits, _) = recount_free(&c, &free);
        let stale = vec![2, 0]; // wrong: node 2 moved class
        let view = CostView {
            classes: &c,
            free_counts: &stale,
            free_bits: &bits,
            total_free: 2,
            generation: 0,
        };
        audit_view(&c, &free, &view, "test");
    }

    #[test]
    fn nan_poisoned_matrix_never_aliases_nodes() {
        struct NanCost;
        impl PathCost for NanCost {
            fn path_cost(&self, _: NodeId, _: NodeId) -> f64 {
                f64::NAN
            }
            fn n_nodes(&self) -> usize {
                3
            }
        }
        let c = CostClasses::derive(&NanCost, 8).expect("all singletons fit");
        assert_eq!(c.n_classes(), 3);
        assert!(CostClasses::derive(&NanCost, 2).is_none());
    }
}
