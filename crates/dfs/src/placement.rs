//! Replica placement.
//!
//! Where replicas land determines the locality opportunities every scheduler
//! competes over. [`RackAware`] is stock HDFS: first replica on the "writer"
//! node, second on a random node in a *different* rack (or a different node
//! of the same rack in single-rack clusters), third on a different node of
//! the second replica's rack, further replicas random. This is what the
//! paper's testbed used (replication factor 2).

use pnats_net::{ClusterLayout, NodeId, RackId};
use rand::rngs::SmallRng;
use rand::Rng;

/// Chooses the set of nodes holding each replica of a block.
pub trait ReplicaPlacement {
    /// Pick `replication` distinct nodes for a block written from `writer`.
    ///
    /// Returns fewer than `replication` nodes only when the cluster itself
    /// is smaller than the replication factor.
    fn place(
        &self,
        writer: NodeId,
        replication: usize,
        layout: &ClusterLayout,
        rng: &mut SmallRng,
    ) -> Vec<NodeId>;
}

/// Stock HDFS rack-aware placement (see module docs).
#[derive(Clone, Copy, Debug, Default)]
pub struct RackAware;

/// The nodes a replica may go to, before exclusions.
#[derive(Clone, Copy)]
enum Pool {
    /// Every node.
    Any,
    /// The nodes of one rack.
    In(RackId),
    /// The nodes outside one rack.
    OutOf(RackId),
}

impl Pool {
    fn admits(self, layout: &ClusterLayout, n: NodeId) -> bool {
        match self {
            Pool::Any => true,
            Pool::In(r) => layout.rack(n) == r,
            Pool::OutOf(r) => layout.rack(n) != r,
        }
    }
}

/// A uniformly random node of `pool` that is not in `exclude` (distinct
/// nodes), or `None` if there is none.
///
/// The draw is the one `choose` makes on the candidates listed in id
/// order — a single `gen_range(0..count)`, nothing when `count` is 0 — but
/// the candidates are never listed: the pick walks one rack's members and
/// `exclude`, not the whole cluster, so placing a block costs O(rack size)
/// and no allocation instead of O(nodes).
fn random_node_excluding(
    layout: &ClusterLayout,
    pool: Pool,
    exclude: &[NodeId],
    rng: &mut SmallRng,
) -> Option<NodeId> {
    let rack = match pool {
        Pool::Any => &[],
        Pool::In(r) | Pool::OutOf(r) => layout.nodes_in_rack(r),
    };
    let size = match pool {
        Pool::In(_) => rack.len(),
        Pool::Any | Pool::OutOf(_) => layout.n_nodes() - rack.len(),
    };
    let count = size - exclude.iter().filter(|&&e| pool.admits(layout, e)).count();
    if count == 0 {
        return None;
    }
    let k = rng.gen_range(0..count);
    if let Pool::In(_) = pool {
        return rack.iter().copied().filter(|n| !exclude.contains(n)).nth(k);
    }
    // The k-th id not skipped, where the skipped ids are the other rack's
    // members and the excluded nodes of the pool: walk them in ascending
    // order, stepping the answer past each one at or below it.
    let mut extra: Vec<NodeId> =
        exclude.iter().copied().filter(|&e| pool.admits(layout, e)).collect();
    extra.sort_unstable();
    let (mut members, mut extra) = (rack.iter().peekable(), extra.iter().peekable());
    let mut id = k as u32;
    while let Some(skip) = match (members.peek(), extra.peek()) {
        (Some(m), Some(e)) if m < e => members.next(),
        (Some(_), None) => members.next(),
        _ => extra.next(),
    } {
        if skip.0 > id {
            break;
        }
        id += 1;
    }
    Some(NodeId(id))
}

impl ReplicaPlacement for RackAware {
    fn place(
        &self,
        writer: NodeId,
        replication: usize,
        layout: &ClusterLayout,
        rng: &mut SmallRng,
    ) -> Vec<NodeId> {
        let mut replicas = Vec::with_capacity(replication);
        if replication == 0 {
            return replicas;
        }
        replicas.push(writer);
        // Second replica: off-rack if any other rack has nodes, else any
        // other node of the writer's rack.
        if replicas.len() < replication {
            let off_rack =
                random_node_excluding(layout, Pool::OutOf(layout.rack(writer)), &replicas, rng);
            let second =
                off_rack.or_else(|| random_node_excluding(layout, Pool::Any, &replicas, rng));
            if let Some(n) = second {
                replicas.push(n);
            }
        }
        // Third replica: same rack as the second, different node.
        if replicas.len() < replication && replicas.len() == 2 {
            let second = replicas[1];
            let pool = Pool::In(layout.rack(second));
            if let Some(n) = random_node_excluding(layout, pool, &replicas, rng) {
                replicas.push(n);
            }
        }
        // Any further replicas: uniform over remaining nodes.
        while replicas.len() < replication {
            match random_node_excluding(layout, Pool::Any, &replicas, rng) {
                Some(n) => replicas.push(n),
                None => break, // cluster smaller than replication factor
            }
        }
        replicas
    }
}

/// Pick a uniformly random writer node, the common case when loading data
/// from outside the cluster.
pub fn random_writer(layout: &ClusterLayout, rng: &mut SmallRng) -> NodeId {
    NodeId(rng.gen_range(0..layout.n_nodes() as u32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_net::Topology;
    use rand::SeedableRng;

    const GB: f64 = 1e9 / 8.0;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    fn layout_multi() -> ClusterLayout {
        Topology::multi_rack(3, 4, GB, GB).layout().clone()
    }

    fn layout_single() -> ClusterLayout {
        Topology::single_rack(6, GB).layout().clone()
    }

    /// The pick as it was first written: list the candidates in id order
    /// and `choose` one.
    fn listed_pick(
        layout: &ClusterLayout,
        pool: Pool,
        exclude: &[NodeId],
        rng: &mut SmallRng,
    ) -> Option<NodeId> {
        use rand::seq::SliceRandom;
        let candidates: Vec<NodeId> = (0..layout.n_nodes() as u32)
            .map(NodeId)
            .filter(|n| !exclude.contains(n) && pool.admits(layout, *n))
            .collect();
        candidates.choose(rng).copied()
    }

    #[test]
    fn pick_draws_what_choose_over_the_listed_candidates_draws() {
        let mut gen = SmallRng::seed_from_u64(11);
        for case in 0..2_000 {
            let n = gen.gen_range(1..40u32);
            let racks = gen.gen_range(1..6u32);
            // Racks of uneven size, interleaved ids, some racks empty.
            let layout =
                ClusterLayout::new((0..n).map(|_| RackId(gen.gen_range(0..racks))).collect());
            let mut exclude = Vec::new();
            for _ in 0..gen.gen_range(0..5) {
                let e = NodeId(gen.gen_range(0..n));
                if !exclude.contains(&e) {
                    exclude.push(e);
                }
            }
            let r = layout.rack(NodeId(gen.gen_range(0..n)));
            for pool in [Pool::Any, Pool::In(r), Pool::OutOf(r)] {
                let seed = gen.gen::<u64>();
                let (mut a, mut b) = (SmallRng::seed_from_u64(seed), SmallRng::seed_from_u64(seed));
                assert_eq!(
                    random_node_excluding(&layout, pool, &exclude, &mut a),
                    listed_pick(&layout, pool, &exclude, &mut b),
                    "case {case}"
                );
                assert_eq!(a.gen::<u64>(), b.gen::<u64>(), "case {case}: draws consumed");
            }
        }
    }

    #[test]
    fn rack_aware_first_is_writer_second_off_rack() {
        let layout = layout_multi();
        let mut rng = rng();
        for _ in 0..50 {
            let r = RackAware.place(NodeId(0), 2, &layout, &mut rng);
            assert_eq!(r.len(), 2);
            assert_eq!(r[0], NodeId(0));
            assert!(!layout.same_rack(r[0], r[1]), "second replica off-rack");
        }
    }

    #[test]
    fn rack_aware_third_shares_second_rack() {
        let layout = layout_multi();
        let mut rng = rng();
        for _ in 0..50 {
            let r = RackAware.place(NodeId(0), 3, &layout, &mut rng);
            assert_eq!(r.len(), 3);
            assert!(layout.same_rack(r[1], r[2]));
            assert_ne!(r[1], r[2]);
        }
    }

    #[test]
    fn rack_aware_single_rack_falls_back_to_distinct_nodes() {
        let layout = layout_single();
        let mut rng = rng();
        let r = RackAware.place(NodeId(2), 2, &layout, &mut rng);
        assert_eq!(r.len(), 2);
        assert_eq!(r[0], NodeId(2));
        assert_ne!(r[0], r[1]);
    }

    #[test]
    fn replication_capped_by_cluster_size() {
        let layout = ClusterLayout::new(vec![RackId(0), RackId(0)]);
        let mut rng = rng();
        let r = RackAware.place(NodeId(0), 5, &layout, &mut rng);
        assert_eq!(r.len(), 2, "only 2 nodes exist");
    }

    #[test]
    fn random_writer_in_range() {
        let layout = layout_single();
        let mut rng = rng();
        for _ in 0..100 {
            let w = random_writer(&layout, &mut rng);
            assert!(w.idx() < layout.n_nodes());
        }
    }
}
