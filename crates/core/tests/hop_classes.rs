//! The simulator takes the class index of its hop metric from the metric
//! itself (`CostClasses::from_class_map` over `ClassedDistance`'s
//! neighbor-set classes) instead of deriving it from the dense matrix
//! (`CostClasses::derive`). On every fabric the simulator runs the index
//! on, the two partitions are equal, so the class sums — and every
//! decision — are unchanged.
//!
//! Where a leaf switch holds a single node they differ: `derive` merges
//! nodes that are equidistant from everything, while `ClassedDistance`
//! keeps each leaf apart. Both partitions are exact (every member of a
//! class has the same distances); only how `C_ave`'s sum is grouped
//! changes. No golden or benchmark workload runs the index on such a
//! fabric; the last test pins the difference so it cannot spread unseen.

use pnats_core::CostClasses;
use pnats_net::{ClassedDistance, DistanceMatrix, PathCost, Topology};

/// The simulator's class cap for an `n`-node cluster.
fn cap(n: usize) -> usize {
    64.min(4.max(n / 4))
}

fn partitions(topo: &Topology) -> (CostClasses, Option<CostClasses>) {
    let classed = ClassedDistance::hops(topo);
    let from_map = CostClasses::from_class_map(classed.class_of(), &classed);
    let derived = CostClasses::derive(&DistanceMatrix::hops(topo), cap(topo.n_nodes()));
    (from_map, derived)
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
        assert_eq!(Some(from_map), derived, "{name}");
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
        let derived = derived.expect("derives under the cap");
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
