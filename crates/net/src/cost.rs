//! The path-cost abstraction consumed by schedulers.
//!
//! The paper computes transmission cost as `bytes × h_ab` (Formula 1/2) and
//! then generalizes `h_ab` from hop counts to inverse path transmission
//! rates (§II-B3). [`PathCost`] is that pluggable `h_ab`: schedulers are
//! written once against it and evaluated under either metric.

use crate::topology::NodeId;

/// Per-byte transfer cost of the path between two data nodes.
///
/// For the hop metric this is the number of hops; for the network-condition
/// metric it is `1 / rate(a→b)` (suitably scaled). The only invariant
/// schedulers rely on is `path_cost(a, a) == 0` — local access is free.
pub trait PathCost: Sync {
    /// Cost per byte of moving data from `a` to `b` (0 when `a == b`).
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64;

    /// Number of nodes the metric is defined over.
    fn n_nodes(&self) -> usize;

    /// Revision tag of the metric. Metrics whose entries change over time
    /// (e.g. the §II-B3 congestion-scaled matrix, refreshed per heartbeat)
    /// must return a different value after every change; schedulers use
    /// this to invalidate cached per-candidate aggregates. Static metrics
    /// keep the default constant 0.
    fn version(&self) -> u64 {
        0
    }
}

impl<T: PathCost + ?Sized> PathCost for &T {
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        (**self).path_cost(a, b)
    }

    fn n_nodes(&self) -> usize {
        (**self).n_nodes()
    }

    fn version(&self) -> u64 {
        (**self).version()
    }
}

/// A uniform metric: every distinct pair costs `c`, local access costs 0.
///
/// Useful in tests and as a degenerate baseline (it collapses the paper's
/// fine-grained model back to "local or not").
#[derive(Clone, Copy, Debug)]
pub struct UniformCost {
    n: usize,
    c: f64,
}

impl UniformCost {
    /// A uniform metric over `n` nodes with off-diagonal cost `c`.
    pub fn new(n: usize, c: f64) -> Self {
        assert!(c >= 0.0);
        Self { n, c }
    }
}

impl PathCost for UniformCost {
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else {
            self.c
        }
    }

    fn n_nodes(&self) -> usize {
        self.n
    }
}

/// The coarse node/rack/off-rack cost ladder prior schedulers reason in:
/// 0 on the same node, `rack_cost` within a rack, `remote_cost` across
/// racks. This is all the network structure Delay Scheduling, Coupling and
/// LARTS can see — the paper's §I criticizes exactly this granularity.
///
/// It borrows the layout: a placer builds one per offer.
#[derive(Clone, Copy, Debug)]
pub struct RackLadderCost<'a> {
    layout: &'a crate::topology::ClusterLayout,
    rack_cost: f64,
    remote_cost: f64,
}

impl<'a> RackLadderCost<'a> {
    /// The classic Hadoop ladder: 0 / 2 / 4.
    pub fn hadoop(layout: &'a crate::topology::ClusterLayout) -> Self {
        Self::new(layout, 2.0, 4.0)
    }

    /// A custom ladder.
    pub fn new(layout: &'a crate::topology::ClusterLayout, rack_cost: f64, remote_cost: f64) -> Self {
        assert!(remote_cost >= rack_cost && rack_cost >= 0.0);
        Self { layout, rack_cost, remote_cost }
    }
}

impl PathCost for RackLadderCost<'_> {
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            0.0
        } else if self.layout.same_rack(a, b) {
            self.rack_cost
        } else {
            self.remote_cost
        }
    }

    fn n_nodes(&self) -> usize {
        self.layout.n_nodes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    #[test]
    fn rack_ladder_matches_hadoop_classes() {
        let topo = Topology::multi_rack(2, 2, 1.0, 1.0);
        let c = RackLadderCost::hadoop(topo.layout());
        assert_eq!(c.path_cost(NodeId(0), NodeId(0)), 0.0);
        assert_eq!(c.path_cost(NodeId(0), NodeId(1)), 2.0);
        assert_eq!(c.path_cost(NodeId(0), NodeId(2)), 4.0);
        assert_eq!(c.n_nodes(), 4);
    }

    #[test]
    fn rack_ladder_is_blind_within_a_rack() {
        // On a single-rack (or single-logical-rack) cluster every distinct
        // pair costs the same — the coarse view the paper improves on.
        let topo = Topology::palmetto_slice(9, 1.0);
        let c = RackLadderCost::hadoop(topo.layout());
        for a in topo.nodes() {
            for b in topo.nodes() {
                if a != b {
                    assert_eq!(c.path_cost(a, b), 2.0);
                }
            }
        }
    }

    #[test]
    fn uniform_cost_diagonal_is_zero() {
        let u = UniformCost::new(3, 5.0);
        assert_eq!(u.path_cost(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(u.path_cost(NodeId(0), NodeId(2)), 5.0);
        assert_eq!(u.n_nodes(), 3);
    }

    #[test]
    fn reference_forwarding() {
        let u = UniformCost::new(2, 1.0);
        let r: &dyn PathCost = &u;
        assert_eq!((&r).path_cost(NodeId(0), NodeId(1)), 1.0);
        assert_eq!((&r).n_nodes(), 2);
    }
}
