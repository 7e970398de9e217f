//! Class partitions: the hop metric's own and the spec's.
//!
//! The simulator takes the class index of its hop metric from the metric
//! itself (`CostClasses::from_class_map` over `ClassedDistance`'s
//! neighbor-set classes). The spec derives a partition from any matrix,
//! straight from the definition (`spec::derive_classes`: two nodes share a
//! class iff swapping them changes no path cost). On every fabric the
//! simulator runs, the two partitions are equal.
//!
//! Where a leaf switch holds a single node they differ: the derived
//! partition merges nodes that are equidistant from everything, while
//! `ClassedDistance` keeps each leaf apart. Both partitions are exact
//! (every member of a class has the same distances); only how `C_ave`'s
//! sum is grouped changes. The second test pins the difference so it cannot
//! spread unseen. The rest hold the derived partition to hand-built
//! matrices.

mod spec;

use pnats_core::CostClasses;
use pnats_net::{ClassedDistance, DistanceMatrix, NodeId, PathCost, Topology};
use spec::derive_classes;

fn partitions(topo: &Topology) -> (CostClasses, CostClasses) {
    let classed = ClassedDistance::hops(topo);
    let from_map = CostClasses::from_class_map(classed.class_of(), &classed);
    (from_map, derive_classes(&DistanceMatrix::hops(topo)))
}

#[test]
fn hop_classes_equal_the_derived_partition_on_simulated_fabrics() {
    for (name, topo) in [
        ("single_rack(60)", Topology::single_rack(60, 1e9)),
        ("palmetto_slice(60)", Topology::palmetto_slice(60, 1e9)),
        ("multi_rack(25, 40)", Topology::multi_rack(25, 40, 1e9, 10e9)),
        ("fat_tree(8)", Topology::fat_tree(8, 1e9)),
    ] {
        let (from_map, derived) = partitions(&topo);
        assert_eq!(from_map, derived, "{name}");
    }
}

#[test]
fn single_node_leaves_split_classes_that_derive_merges() {
    for (name, topo) in [
        ("palmetto_slice(3)", Topology::palmetto_slice(3, 1e9)),
        ("multi_rack(6, 1)", Topology::multi_rack(6, 1, 1e9, 1e9)),
        ("fat_tree(2)", Topology::fat_tree(2, 1e9)),
    ] {
        let (from_map, derived) = partitions(&topo);
        assert!(from_map.n_classes() > derived.n_classes(), "{name}: expected a finer partition");
        // Finer, not different: each hop class lies inside one derived
        // class, and both are exact for the metric.
        let dense = DistanceMatrix::hops(&topo);
        for a in topo.nodes() {
            for b in topo.nodes() {
                if from_map.class(a) == from_map.class(b) {
                    assert_eq!(derived.class(a), derived.class(b), "{name}: {a:?} {b:?}");
                }
                for k in topo.nodes().filter(|&k| k != a && k != b) {
                    if derived.class(a) == derived.class(b) {
                        assert_eq!(dense.path_cost(a, k), dense.path_cost(b, k), "{name}");
                    }
                }
            }
        }
    }
}

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
    let c = derive_classes(&two_racks());
    assert_eq!(c.n_classes(), 2);
    assert_eq!(c.class_of(), &[0, 0, 1, 1]);
    assert_eq!(c.reps(), &[NodeId(0), NodeId(2)]);
    assert_eq!(c.sizes(), &[2, 2]);
    assert_eq!(c.intra(), &[2.0, 2.0]);
}

#[test]
fn derive_single_rack_is_one_class() {
    let m = DistanceMatrix::from_rows(3, vec![0.0, 2.0, 2.0, 2.0, 0.0, 2.0, 2.0, 2.0, 0.0]);
    let c = derive_classes(&m);
    assert_eq!(c.n_classes(), 1);
    assert_eq!(c.sizes(), &[3]);
    assert_eq!(c.intra(), &[2.0]);
}

#[test]
fn derive_rejects_asymmetric_pairs_from_one_class() {
    // h(0,1) ≠ h(1,0): 0 and 1 must not share a class even though their
    // third-party rows agree.
    #[rustfmt::skip]
    let rows = vec![
        0.0, 3.0, 5.0,
        2.0, 0.0, 5.0,
        5.0, 5.0, 0.0,
    ];
    let c = derive_classes(&DistanceMatrix::from_rows(3, rows));
    assert_eq!(c.n_classes(), 3);
}

#[test]
fn from_class_map_matches_the_derived_partition() {
    let m = two_racks();
    // Same partition under scrambled raw ids: renumbered to first-seen.
    assert_eq!(CostClasses::from_class_map(&[7, 7, 3, 3], &m), derive_classes(&m));
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
    assert_eq!(derive_classes(&NanCost).n_classes(), 3);
}
