//! Property tests of rack-aware replica placement: distinctness, writer
//! locality and rack spreading hold for arbitrary cluster shapes.

use pnats_dfs::{RackAware, ReplicaPlacement};
use pnats_net::{NodeId, Topology};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn distinct(nodes: &[NodeId]) -> bool {
    let mut v = nodes.to_vec();
    v.sort();
    v.dedup();
    v.len() == nodes.len()
}

proptest! {
    #[test]
    fn rack_aware_invariants(
        racks in 1usize..5,
        per_rack in 1usize..8,
        writer in 0usize..40,
        replication in 0usize..6,
        seed in 0u64..10_000,
    ) {
        let topo = Topology::multi_rack(racks, per_rack, 1e9, 1e9);
        let layout = topo.layout();
        let n = layout.n_nodes();
        let writer = NodeId((writer % n) as u32);
        let mut rng = SmallRng::seed_from_u64(seed);
        let reps = RackAware.place(writer, replication, layout, &mut rng);
        // Count never exceeds request or cluster size.
        prop_assert!(reps.len() <= replication.min(n));
        prop_assert!(reps.len() == replication.min(n) || reps.len() == replication,
            "short only when the cluster is smaller than the factor");
        prop_assert!(distinct(&reps));
        if replication >= 1 {
            prop_assert_eq!(reps[0], writer, "first replica is writer-local");
        }
        // With >= 2 racks, the second replica leaves the writer's rack.
        if replication >= 2 && racks >= 2 {
            prop_assert!(!layout.same_rack(reps[0], reps[1]));
        }
        // The third shares the second's rack whenever that rack has a
        // spare node; otherwise the policy falls back to any free node.
        if reps.len() >= 3 {
            let spare_in_second_rack = (0..n as u32)
                .map(NodeId)
                .any(|c| layout.same_rack(c, reps[1]) && c != reps[1] && c != reps[0]);
            if spare_in_second_rack {
                prop_assert!(layout.same_rack(reps[1], reps[2]));
            }
        }
    }
}
