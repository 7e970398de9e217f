//! The block → replica-locations store (the paper's `L` matrix).
//!
//! `L_lj = 1` iff node `D_l` stores the block map task `M_j` requires; the
//! scheduler needs `min_{L_lj=1} h_il` (nearest replica) and membership
//! queries (is this placement node-local? rack-local?). [`BlockStore`] keeps
//! replica lists per block and answers both.

use crate::block::BlockId;
use crate::namespace::Namespace;
use crate::placement::{random_writer, ReplicaPlacement};
use pnats_net::{ClusterLayout, NodeId, PathCost};
use rand::rngs::SmallRng;

/// Replica locations for every block of a [`Namespace`].
#[derive(Clone, Debug, Default)]
pub struct BlockStore {
    /// `replicas[block]` = nodes holding a copy, first entry is the writer.
    replicas: Vec<Vec<NodeId>>,
}

impl BlockStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Place every block of `ns` that does not yet have replicas, using
    /// `policy` with replication factor `replication`. Writers are chosen
    /// uniformly at random per file (data loaded from outside the cluster).
    pub fn populate(
        &mut self,
        ns: &Namespace,
        layout: &ClusterLayout,
        policy: &dyn ReplicaPlacement,
        replication: usize,
        rng: &mut SmallRng,
    ) {
        self.replicas.resize(ns.n_blocks(), Vec::new());
        for b in 0..ns.n_blocks() {
            if self.replicas[b].is_empty() {
                let writer = random_writer(layout, rng);
                self.replicas[b] = policy.place(writer, replication, layout, rng);
            }
        }
    }

    /// Record explicit replica locations for `block` (tests, worked
    /// examples). Panics if any replica repeats.
    pub fn set_replicas(&mut self, block: BlockId, nodes: Vec<NodeId>) {
        let mut sorted = nodes.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), nodes.len(), "duplicate replica nodes");
        if self.replicas.len() <= block.idx() {
            self.replicas.resize(block.idx() + 1, Vec::new());
        }
        self.replicas[block.idx()] = nodes;
    }

    /// Nodes holding a copy of `block`.
    pub fn replicas(&self, block: BlockId) -> &[NodeId] {
        &self.replicas[block.idx()]
    }

    /// Whether `node` holds a copy of `block` (node-locality test).
    pub fn is_local(&self, block: BlockId, node: NodeId) -> bool {
        self.replicas[block.idx()].contains(&node)
    }

    /// Whether any replica of `block` shares a rack with `node`.
    pub fn is_rack_local(&self, block: BlockId, node: NodeId, layout: &ClusterLayout) -> bool {
        self.replicas[block.idx()]
            .iter()
            .any(|r| layout.same_rack(*r, node))
    }

    /// The replica of `block` nearest to `node` under `cost`, with its
    /// path cost — the `min_{L_lj=1} h_il` term of Formula 1.
    ///
    /// Returns `None` for blocks with no replicas.
    pub fn nearest_replica(
        &self,
        block: BlockId,
        node: NodeId,
        cost: &dyn PathCost,
    ) -> Option<(NodeId, f64)> {
        self.replicas[block.idx()]
            .iter()
            .map(|&r| (r, cost.path_cost(node, r)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Number of blocks tracked.
    pub fn n_blocks(&self) -> usize {
        self.replicas.len()
    }

    /// Count of block replicas hosted per node (storage balance metric).
    pub fn replicas_per_node(&self, n_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; n_nodes];
        for rs in &self.replicas {
            for r in rs {
                counts[r.idx()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::split_into;
    use crate::placement::RackAware;
    use pnats_net::{DistanceMatrix, Topology};
    use rand::SeedableRng;

    const GB: f64 = 1e9 / 8.0;

    #[test]
    fn populate_places_every_block() {
        let topo = Topology::multi_rack(2, 5, GB, GB);
        let mut ns = Namespace::new();
        ns.create_file("in", &split_into(1000, 8));
        let mut store = BlockStore::new();
        let mut rng = SmallRng::seed_from_u64(1);
        store.populate(&ns, topo.layout(), &RackAware, 2, &mut rng);
        assert_eq!(store.n_blocks(), 8);
        for b in 0..8 {
            assert_eq!(store.replicas(BlockId(b)).len(), 2);
        }
    }

    #[test]
    fn populate_is_idempotent_for_placed_blocks() {
        let topo = Topology::single_rack(4, GB);
        let mut ns = Namespace::new();
        ns.create_file("in", &[100]);
        let mut store = BlockStore::new();
        let mut rng = SmallRng::seed_from_u64(2);
        store.populate(&ns, topo.layout(), &RackAware, 2, &mut rng);
        let first = store.replicas(BlockId(0)).to_vec();
        store.populate(&ns, topo.layout(), &RackAware, 2, &mut rng);
        assert_eq!(store.replicas(BlockId(0)), first.as_slice());
    }

    #[test]
    fn locality_queries() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let mut store = BlockStore::new();
        store.set_replicas(BlockId(0), vec![NodeId(0), NodeId(2)]);
        assert!(store.is_local(BlockId(0), NodeId(0)));
        assert!(!store.is_local(BlockId(0), NodeId(1)));
        // Node 1 shares rack 0 with replica on node 0.
        assert!(store.is_rack_local(BlockId(0), NodeId(1), topo.layout()));
        // Node 3 shares rack 1 with replica on node 2.
        assert!(store.is_rack_local(BlockId(0), NodeId(3), topo.layout()));
    }

    #[test]
    fn nearest_replica_minimizes_cost() {
        let h = DistanceMatrix::paper_figure2();
        let mut store = BlockStore::new();
        // Replicas of block 0 on D1 (idx 1) and D3 (idx 3).
        store.set_replicas(BlockId(0), vec![NodeId(1), NodeId(3)]);
        // From D2 (idx 2): h(2,1)=10, h(2,3)=6 -> D3 at 6.
        let (n, c) = store.nearest_replica(BlockId(0), NodeId(2), &h).unwrap();
        assert_eq!(n, NodeId(3));
        assert_eq!(c, 6.0);
        // From D1 itself: local, cost 0.
        let (n, c) = store.nearest_replica(BlockId(0), NodeId(1), &h).unwrap();
        assert_eq!(n, NodeId(1));
        assert_eq!(c, 0.0);
    }

    #[test]
    fn nearest_replica_none_when_unplaced() {
        let mut store = BlockStore::new();
        store.set_replicas(BlockId(0), vec![]);
        let h = DistanceMatrix::zero(2);
        assert!(store.nearest_replica(BlockId(0), NodeId(0), &h).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate replica")]
    fn duplicate_replicas_rejected() {
        let mut store = BlockStore::new();
        store.set_replicas(BlockId(0), vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    fn replica_balance_roughly_uniform() {
        let topo = Topology::single_rack(10, GB);
        let mut ns = Namespace::new();
        ns.create_file("in", &vec![1u64; 500]);
        let mut store = BlockStore::new();
        let mut rng = SmallRng::seed_from_u64(3);
        store.populate(&ns, topo.layout(), &RackAware, 2, &mut rng);
        let counts = store.replicas_per_node(10);
        assert_eq!(counts.iter().sum::<usize>(), 1000);
        // With 1000 replicas over 10 nodes, each node should hold 100 ± 50.
        for c in counts {
            assert!((50..=150).contains(&c), "badly skewed: {c}");
        }
    }
}
