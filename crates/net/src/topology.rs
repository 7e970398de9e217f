//! Cluster topology: data nodes, racks, switches and capacity-annotated links.
//!
//! A [`Topology`] is an undirected graph whose vertices are either *data
//! nodes* (machines that hold blocks and run tasks) or *switches* (top-of-rack
//! and core). Every edge is a [`Link`] with a capacity in bytes per second.
//! Scheduler-facing code rarely touches the graph directly; it consumes the
//! hop [`DistanceMatrix`](crate::distance::DistanceMatrix) and the
//! [`ClusterLayout`] (node → rack mapping) derived from it.

use std::fmt;

/// Identifier of a data node (a machine with task slots and disks).
///
/// Node ids are dense indices `0..n_nodes`, which lets downstream code store
/// per-node state in flat vectors.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

/// Identifier of a rack (a failure/locality domain served by one ToR switch).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct RackId(pub u32);

/// Identifier of a switch vertex (ToR or core).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct SwitchId(pub u32);

/// Identifier of an undirected link; dense indices `0..n_links`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct LinkId(pub u32);

impl NodeId {
    /// The node id as a flat vector index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl RackId {
    /// The rack id as a flat vector index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The link id as a flat vector index.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "D{}", self.0)
    }
}

impl fmt::Display for RackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rack{}", self.0)
    }
}

/// A vertex in the topology graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Vertex {
    /// A data node.
    Node(NodeId),
    /// A switch (ToR or core).
    Switch(SwitchId),
}

/// An undirected, capacity-annotated edge of the topology graph.
#[derive(Clone, Copy, Debug)]
pub struct Link {
    /// One endpoint.
    pub a: Vertex,
    /// The other endpoint.
    pub b: Vertex,
    /// Capacity in bytes per second (full duplex is modelled by treating the
    /// link as a single shared-capacity resource; good enough for the fluid
    /// contention effects the paper's evaluation depends on).
    pub capacity_bps: f64,
}

/// Node → rack assignment, the coarse locality structure baselines use.
///
/// The paper's baselines (Fair/Delay, Coupling) classify placements only as
/// *node-local*, *rack-local* or *remote*; this type answers those queries.
#[derive(Clone, Debug)]
pub struct ClusterLayout {
    rack_of: Vec<RackId>,
    n_racks: u32,
    /// Each rack's nodes in id order (the inverse of `rack_of`).
    members: Vec<Vec<NodeId>>,
}

impl ClusterLayout {
    /// Build a layout from an explicit node → rack table.
    pub fn new(rack_of: Vec<RackId>) -> Self {
        let n_racks = rack_of.iter().map(|r| r.0 + 1).max().unwrap_or(0);
        let mut members = vec![Vec::new(); n_racks as usize];
        for (i, r) in rack_of.iter().enumerate() {
            members[r.idx()].push(NodeId(i as u32));
        }
        Self {
            rack_of,
            n_racks,
            members,
        }
    }

    /// Number of data nodes.
    pub fn n_nodes(&self) -> usize {
        self.rack_of.len()
    }

    /// Number of racks.
    pub fn n_racks(&self) -> usize {
        self.n_racks as usize
    }

    /// Rack housing `node`.
    #[inline]
    pub fn rack(&self, node: NodeId) -> RackId {
        self.rack_of[node.idx()]
    }

    /// Whether two nodes share a rack.
    #[inline]
    pub fn same_rack(&self, a: NodeId, b: NodeId) -> bool {
        self.rack_of[a.idx()] == self.rack_of[b.idx()]
    }

    /// All nodes in `rack`, in id order (empty for an unknown rack).
    pub fn nodes_in_rack(&self, rack: RackId) -> &[NodeId] {
        self.members.get(rack.idx()).map_or(&[], Vec::as_slice)
    }
}

/// The cluster topology graph.
///
/// Construct with one of the shape builders ([`Topology::single_rack`],
/// [`Topology::multi_rack`], [`Topology::palmetto_slice`]) or assemble
/// manually via [`TopologyBuilder`].
#[derive(Clone, Debug)]
pub struct Topology {
    n_nodes: u32,
    n_switches: u32,
    links: Vec<Link>,
    layout: ClusterLayout,
    /// adjacency: for each vertex (nodes first, then switches), the incident
    /// links as (link id, neighbour vertex).
    adj: Vec<Vec<(LinkId, Vertex)>>,
}

impl Topology {
    fn vertex_index(&self, v: Vertex) -> usize {
        match v {
            Vertex::Node(n) => n.idx(),
            Vertex::Switch(s) => self.n_nodes as usize + s.0 as usize,
        }
    }

    /// Number of data nodes.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes as usize
    }

    /// Number of switch vertices.
    pub fn n_switches(&self) -> usize {
        self.n_switches as usize
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Capacity of `link` in bytes/second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.links[link.idx()].capacity_bps
    }

    /// Node → rack layout.
    pub fn layout(&self) -> &ClusterLayout {
        &self.layout
    }

    /// All node ids, in order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.n_nodes).map(NodeId)
    }

    /// Links incident to vertex `v` as (link, neighbour) pairs.
    pub fn incident(&self, v: Vertex) -> &[(LinkId, Vertex)] {
        &self.adj[self.vertex_index(v)]
    }

    /// A single-rack star: `n` nodes all attached to one ToR switch.
    ///
    /// This is the shape of the paper's testbed ("the slave nodes we
    /// requested were all assigned to the same rack by Palmetto"): every
    /// node-to-node path is 2 hops and remote tasks are impossible.
    pub fn single_rack(n: usize, nic_bps: f64) -> Self {
        let mut b = TopologyBuilder::new();
        let tor = b.add_switch();
        for _ in 0..n {
            let node = b.add_node(RackId(0));
            b.link(Vertex::Node(node), Vertex::Switch(tor), nic_bps);
        }
        b.build()
    }

    /// A two-level tree: `racks` racks of `per_rack` nodes, each rack's ToR
    /// switch uplinked to a single core switch.
    ///
    /// Node → same node: 0 hops; same rack: 2 hops; cross-rack: 4 hops —
    /// the classic Hadoop distance ladder.
    pub fn multi_rack(racks: usize, per_rack: usize, nic_bps: f64, uplink_bps: f64) -> Self {
        let mut b = TopologyBuilder::new();
        let core = b.add_switch();
        for r in 0..racks {
            let tor = b.add_switch();
            b.link(Vertex::Switch(tor), Vertex::Switch(core), uplink_bps);
            for _ in 0..per_rack {
                let node = b.add_node(RackId(r as u32));
                b.link(Vertex::Node(node), Vertex::Switch(tor), nic_bps);
            }
        }
        b.build()
    }

    /// The evaluation cluster of the paper: 60 nodes in one *physical* rack
    /// but spread across several ToR switches with heterogeneous uplinks
    /// ("most top of rack switches are uplinked to the core switch at
    /// 10 Gbps, and some switches are aggregated to a Z9000 switch that is
    /// uplinked ... at 40 Gbps").
    ///
    /// We model 3 ToR switches of 20 nodes each; two uplink to the core at
    /// `uplink_mult × nic_bps` and one (the Z9000-aggregated switch, 4×
    /// faster in the paper) at `4 × uplink_mult × nic_bps`. All nodes
    /// report rack 0, so locality accounting matches Table III (zero remote
    /// tasks), while hop counts and link contention still differ across
    /// switch boundaries — exactly the regime where the paper argues
    /// fine-grained costs beat the node/rack dichotomy.
    ///
    /// `uplink_mult` encodes ToR oversubscription: with 20 nodes per
    /// switch, `uplink_mult = 4` means a 5:1 oversubscribed uplink — the
    /// Palmetto shape (20 × 10 GbE nodes behind a 10–40 Gbps uplink) is
    /// even harsher.
    pub fn palmetto_slice_oversub(n: usize, nic_bps: f64, uplink_mult: f64) -> Self {
        assert!(uplink_mult > 0.0);
        let mut b = TopologyBuilder::new();
        let core = b.add_switch();
        let n_tors = 3.min(n.max(1));
        let mut tors = Vec::new();
        for t in 0..n_tors {
            let tor = b.add_switch();
            let mult = if t == n_tors - 1 { 4.0 * uplink_mult } else { uplink_mult };
            b.link(Vertex::Switch(tor), Vertex::Switch(core), mult * nic_bps);
            tors.push(tor);
        }
        for i in 0..n {
            let node = b.add_node(RackId(0));
            let tor = tors[i % n_tors];
            b.link(Vertex::Node(node), Vertex::Switch(tor), nic_bps);
        }
        b.build()
    }

    /// [`Topology::palmetto_slice_oversub`] with the default 4× uplink
    /// multiplier (5:1 ToR oversubscription at 20 nodes per switch).
    pub fn palmetto_slice(n: usize, nic_bps: f64) -> Self {
        Self::palmetto_slice_oversub(n, nic_bps, 4.0)
    }

    /// A k-ary fat-tree (k even): `k` pods of `k/2` edge and `k/2`
    /// aggregation switches, `(k/2)²` core switches, `k³/4` nodes. All
    /// links share `link_bps` — the full-bisection data-centre fabric, for
    /// experiments beyond the paper's single-rack testbed.
    ///
    /// Rack = edge switch (`k/2` nodes per rack).
    pub fn fat_tree(k: usize, link_bps: f64) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "fat-tree arity must be even and >= 2");
        let half = k / 2;
        let mut b = TopologyBuilder::new();
        // Core switches.
        let cores: Vec<SwitchId> = (0..half * half).map(|_| b.add_switch()).collect();
        for pod in 0..k {
            let aggs: Vec<SwitchId> = (0..half).map(|_| b.add_switch()).collect();
            let edges: Vec<SwitchId> = (0..half).map(|_| b.add_switch()).collect();
            // Aggregation i of every pod connects to core group i.
            for (i, &agg) in aggs.iter().enumerate() {
                for j in 0..half {
                    b.link(
                        Vertex::Switch(agg),
                        Vertex::Switch(cores[i * half + j]),
                        link_bps,
                    );
                }
                for &edge in &edges {
                    b.link(Vertex::Switch(agg), Vertex::Switch(edge), link_bps);
                }
            }
            for (e, &edge) in edges.iter().enumerate() {
                let rack = RackId((pod * half + e) as u32);
                for _ in 0..half {
                    let node = b.add_node(rack);
                    b.link(Vertex::Node(node), Vertex::Switch(edge), link_bps);
                }
            }
        }
        b.build()
    }

    /// A degenerate topology of `n` isolated nodes and no links, for tests
    /// that supply an explicit distance matrix instead.
    pub fn isolated(n: usize) -> Self {
        let mut b = TopologyBuilder::new();
        for _ in 0..n {
            b.add_node(RackId(0));
        }
        b.build()
    }
}

/// Incremental topology assembly.
#[derive(Default)]
pub struct TopologyBuilder {
    n_nodes: u32,
    n_switches: u32,
    racks: Vec<RackId>,
    links: Vec<Link>,
}

impl TopologyBuilder {
    /// A builder with no vertices.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a data node in `rack`; returns its id.
    pub fn add_node(&mut self, rack: RackId) -> NodeId {
        let id = NodeId(self.n_nodes);
        self.n_nodes += 1;
        self.racks.push(rack);
        id
    }

    /// Add a switch vertex; returns its id.
    pub fn add_switch(&mut self) -> SwitchId {
        let id = SwitchId(self.n_switches);
        self.n_switches += 1;
        id
    }

    /// Add an undirected link of the given capacity; returns its id.
    pub fn link(&mut self, a: Vertex, b: Vertex, capacity_bps: f64) -> LinkId {
        let id = LinkId(self.links.len() as u32);
        check_capacity(id, capacity_bps);
        self.links.push(Link { a, b, capacity_bps });
        id
    }

    /// Finish, computing adjacency lists.
    pub fn build(self) -> Topology {
        let n_vertices = (self.n_nodes + self.n_switches) as usize;
        let mut topo = Topology {
            n_nodes: self.n_nodes,
            n_switches: self.n_switches,
            links: self.links,
            layout: ClusterLayout::new(self.racks),
            adj: vec![Vec::new(); n_vertices],
        };
        for (i, l) in topo.links.clone().into_iter().enumerate() {
            let ai = topo.vertex_index(l.a);
            let bi = topo.vertex_index(l.b);
            topo.adj[ai].push((LinkId(i as u32), l.b));
            topo.adj[bi].push((LinkId(i as u32), l.a));
        }
        topo
    }
}

/// Every place a link capacity enters the crate goes through here. The
/// max-min refill divides residual capacity among flows: zero, negative or
/// NaN starves or poisons it, and an infinite capacity makes every share on
/// the link infinite, leaving the refill no bottleneck to pick.
pub(crate) fn check_capacity(link: LinkId, capacity_bps: f64) {
    assert!(
        capacity_bps.is_finite() && capacity_bps > 0.0,
        "link {}: capacity must be positive and finite, got {capacity_bps}",
        link.0
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9 / 8.0;

    #[test]
    fn single_rack_shape() {
        let t = Topology::single_rack(4, GB);
        assert_eq!(t.n_nodes(), 4);
        assert_eq!(t.n_switches(), 1);
        assert_eq!(t.links().len(), 4);
        assert_eq!(t.layout().n_racks(), 1);
        for n in t.nodes() {
            assert_eq!(t.incident(Vertex::Node(n)).len(), 1);
        }
        // The ToR sees every node.
        assert_eq!(t.incident(Vertex::Switch(SwitchId(0))).len(), 4);
    }

    #[test]
    fn multi_rack_shape() {
        let t = Topology::multi_rack(3, 5, GB, 10.0 * GB);
        assert_eq!(t.n_nodes(), 15);
        assert_eq!(t.n_switches(), 4); // core + 3 ToR
        assert_eq!(t.links().len(), 3 + 15);
        assert_eq!(t.layout().n_racks(), 3);
        assert!(t.layout().same_rack(NodeId(0), NodeId(4)));
        assert!(!t.layout().same_rack(NodeId(0), NodeId(5)));
    }

    #[test]
    fn multi_rack_rack_membership_is_contiguous() {
        let t = Topology::multi_rack(2, 3, GB, GB);
        let r0 = t.layout().nodes_in_rack(RackId(0));
        assert_eq!(r0, [NodeId(0), NodeId(1), NodeId(2)]);
        let r1 = t.layout().nodes_in_rack(RackId(1));
        assert_eq!(r1, [NodeId(3), NodeId(4), NodeId(5)]);
        assert!(t.layout().nodes_in_rack(RackId(2)).is_empty());
    }

    #[test]
    fn palmetto_slice_is_one_logical_rack_three_switches() {
        let t = Topology::palmetto_slice(60, GB);
        assert_eq!(t.n_nodes(), 60);
        assert_eq!(t.n_switches(), 4); // core + 3 ToR
        assert_eq!(t.layout().n_racks(), 1);
        // Uplinks: two at 10 Gbps, one at 40 Gbps.
        let mut uplinks: Vec<f64> = t
            .links()
            .iter()
            .filter(|l| matches!((l.a, l.b), (Vertex::Switch(_), Vertex::Switch(_))))
            .map(|l| l.capacity_bps)
            .collect();
        uplinks.sort_by(f64::total_cmp);
        assert_eq!(uplinks.len(), 3);
        assert!(uplinks[2] > uplinks[0]);
    }

    #[test]
    fn fat_tree_shape() {
        let k = 4;
        let t = Topology::fat_tree(k, GB);
        // k^3/4 nodes, k^2/4 core + k pods × k switches... : 4 core,
        // 4 pods × (2 agg + 2 edge) = 20 switches, 16 nodes.
        assert_eq!(t.n_nodes(), k * k * k / 4);
        assert_eq!(t.n_switches(), k * k / 4 + k * k);
        assert_eq!(t.layout().n_racks(), k * k / 2);
        // Distance ladder: 0 / 2 (same edge) / 4 (same pod) / 6 (cross pod).
        let h = crate::distance::DistanceMatrix::hops(&t);
        assert_eq!(h.get(NodeId(0), NodeId(1)), 2.0); // same edge switch
        assert_eq!(h.get(NodeId(0), NodeId(2)), 4.0); // same pod
        assert_eq!(h.get(NodeId(0), NodeId(15)), 6.0); // cross pod
        assert!(h.is_symmetric());
    }

    #[test]
    #[should_panic(expected = "arity must be even")]
    fn fat_tree_odd_k_rejected() {
        Topology::fat_tree(3, GB);
    }

    #[test]
    fn isolated_has_no_links() {
        let t = Topology::isolated(3);
        assert_eq!(t.n_nodes(), 3);
        assert!(t.links().is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node(RackId(0));
        let c = b.add_node(RackId(0));
        b.link(Vertex::Node(a), Vertex::Node(c), 0.0);
    }

    #[test]
    #[should_panic(expected = "link 0: capacity must be positive and finite, got inf")]
    fn infinite_capacity_link_rejected() {
        let mut b = TopologyBuilder::new();
        let a = b.add_node(RackId(0));
        let c = b.add_node(RackId(0));
        b.link(Vertex::Node(a), Vertex::Node(c), f64::INFINITY);
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(3).to_string(), "D3");
        assert_eq!(RackId(1).to_string(), "rack1");
    }
}
