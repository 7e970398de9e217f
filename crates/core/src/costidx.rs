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
//! The scheduling metric decides whether the index applies. Under hop
//! counts (`pnats_net::ClassedDistance`) the metric knows its classes and
//! hands them over through [`CostClasses::from_class_map`]. The §II-B3
//! congestion-scaled matrix gives every pair its own cost, so it has no
//! classes to hand over: the runtime builds no [`CostView`] for it, and
//! the placer takes the per-node mean.

use pnats_net::{NodeId, PathCost};

/// A partition of the cluster's nodes into path-cost equivalence classes.
///
/// Nodes `i` and `j` are equivalent iff swapping them changes no path cost:
/// `h(i,k) = h(j,k)` and `h(k,i) = h(k,j)` for every third node `k`, and
/// `h(i,j) = h(j,i)`. Classes are numbered in first-seen (ascending node
/// id) order, so the partition — and everything derived from it — does not
/// depend on how the classes were labelled.
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
    /// The [`PathCost::version`] of the matrix this partition was built
    /// for; consumers key their derived tables on it.
    version: u64,
}

impl CostClasses {
    /// Build from an explicit node → class map (for cost models that know
    /// their class structure up front, e.g. a switch-grouped hop model).
    /// Class ids are renumbered into first-seen order, so any labelling of
    /// one partition gives the same result.
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
/// runtime whose metric has no classes builds no view, and the placer uses
/// the per-node mean.
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
    fn two_racks() -> (DistanceMatrix, CostClasses) {
        #[rustfmt::skip]
        let rows = vec![
            0.0, 2.0, 4.0, 4.0,
            2.0, 0.0, 4.0, 4.0,
            4.0, 4.0, 0.0, 2.0,
            4.0, 4.0, 2.0, 0.0,
        ];
        let m = DistanceMatrix::from_rows(4, rows);
        let c = CostClasses::from_class_map(&[0, 0, 1, 1], &m);
        (m, c)
    }

    #[test]
    fn from_class_map_renumbers_first_seen() {
        let (m, c) = two_racks();
        assert_eq!(c.n_classes(), 2);
        assert_eq!(c.class_of(), &[0, 0, 1, 1]);
        assert_eq!(c.reps(), &[NodeId(0), NodeId(2)]);
        assert_eq!(c.sizes(), &[2, 2]);
        assert_eq!(c.intra(), &[2.0, 2.0]);
        // Same partition under scrambled raw ids.
        assert_eq!(CostClasses::from_class_map(&[7, 7, 3, 3], &m), c);
    }

    #[test]
    fn h_table_has_intra_diagonal() {
        let (m, c) = two_racks();
        let h = c.h_table(&m);
        assert_eq!(h, vec![2.0, 4.0, 4.0, 2.0]);
    }

    #[test]
    fn recount_and_view_audit() {
        let (_, c) = two_racks();
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
        let (_, c) = two_racks();
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
}
