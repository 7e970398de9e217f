//! Fluid flow model: max-min fair bandwidth sharing over routed paths.
//!
//! The simulator models every in-flight transfer (remote map input fetch,
//! shuffle segment) as a *flow* over the links of its route. Whenever the
//! flow set changes, rates are recomputed with the classic **progressive
//! filling** algorithm, which yields the max-min fair allocation:
//!
//! 1. all flows start unfrozen, every link has its full residual capacity;
//! 2. find the link whose equal share (`residual / unfrozen flows crossing
//!    it`) is smallest — this is the next bottleneck;
//! 3. freeze every unfrozen flow crossing it at that share, subtracting the
//!    share from the residual of every other link on the flow's path;
//! 4. repeat until every flow is frozen.
//!
//! The resulting per-flow rates are also what the paper's §II-B3 "network
//! condition" monitor observes: the measured transmission rate of a path is
//! exactly the rate contention leaves available on it.
//!
//! The simulator refills once per event that changed the flow set, so the
//! refill is kept linear and allocation-free: the per-link lists of step 3
//! are maintained by `add_flow` / `remove_flow` rather than rebuilt, routes
//! sit in one flat arena beside the flow table instead of one `Vec` per
//! flow, and everything else a refill needs lives in scratch buffers the
//! network owns. None of this changes a bit of any rate — see the note on
//! `link_flows`.

use crate::topology::{check_capacity, LinkId, NodeId, Topology};

/// Handle of an active flow. Never reused within one [`FlowNetwork`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct FlowId(pub u64);

#[derive(Clone, Debug)]
struct Flow {
    id: FlowId,
    src: NodeId,
    dst: NodeId,
    /// Route length: the route is the first `hops` links of this flow's row
    /// in `FlowNetwork::routes`.
    hops: u32,
    rate: f64,
}

/// A set of concurrent flows over a capacitated topology, with max-min
/// fair rate assignment.
///
/// Flows sit in one vector that only ever grows by `push`
/// ([`FlowNetwork::add_flow`]) and shrinks by `swap_remove`
/// ([`FlowNetwork::remove_flow`]); [`FlowNetwork::rates`] iterates it in that
/// order. A caller that mirrors the same two moves on a vector of its own
/// can therefore zip the two instead of looking flows up by id.
#[derive(Clone, Debug)]
pub struct FlowNetwork {
    capacities: Vec<f64>,
    flows: Vec<Flow>,
    /// The routes of `flows`: one row of `stride` links per flow, in the same
    /// order and moved by the same `swap_remove`, holding the route followed
    /// by padding. `stride` is the longest route added so far, so there is
    /// no hop cap — a longer route re-lays the arena once — and no
    /// allocation per flow once the arena has grown to the flow count in use.
    routes: Vec<LinkId>,
    stride: usize,
    next_id: u64,
    /// Rates valid only when `clean`; recomputed lazily.
    clean: bool,
    /// Progressive fills run so far.
    refills: u64,
    /// Per link, the indices into `flows` of the flows crossing it (once per
    /// occurrence on the route), kept current by `add_flow` / `remove_flow`
    /// so a refill never rebuilds them.
    ///
    /// Their order follows the history of `swap_remove`s and is free to,
    /// because flow order never reaches a float: a round's bottleneck is
    /// picked by an ascending scan over *link* ids, and every flow frozen in
    /// that round subtracts the same `share` from each link it crosses, so a
    /// link's residual afterwards depends only on how many of its flows
    /// froze. The allocation is a pure function of the capacities and the
    /// multiset of routes.
    link_flows: Vec<Vec<u32>>,
    scratch: Scratch,
}

/// Working memory of [`FlowNetwork::recompute`], kept between calls so a
/// refill allocates nothing once these have grown to the link and flow
/// counts in use. Every buffer is reset on entry; nothing carries over.
#[derive(Clone, Debug, Default)]
struct Scratch {
    /// Capacity not yet handed to a frozen flow, per link.
    residual: Vec<f64>,
    /// Flows crossing the link that are not frozen yet, per link.
    unfrozen_count: Vec<u32>,
    /// Whether the flow's rate is final, per flow.
    frozen: Vec<bool>,
    /// Ascending ids of the links that still carry an unfrozen flow.
    loaded: Vec<u32>,
}

impl FlowNetwork {
    /// An empty flow set over the links of `topo`.
    pub fn new(topo: &Topology) -> Self {
        Self::with_capacities(topo.links().iter().map(|l| l.capacity_bps).collect())
    }

    /// An empty flow set over explicit link capacities (for tests).
    fn with_capacities(capacities: Vec<f64>) -> Self {
        for (i, &c) in capacities.iter().enumerate() {
            check_capacity(LinkId(i as u32), c);
        }
        let link_flows = vec![Vec::new(); capacities.len()];
        Self {
            capacities,
            flows: Vec::new(),
            routes: Vec::new(),
            stride: 0,
            next_id: 0,
            clean: true,
            refills: 0,
            link_flows,
            scratch: Scratch::default(),
        }
    }

    /// Number of active flows.
    pub fn n_active(&self) -> usize {
        self.flows.len()
    }

    /// Progressive fills run since construction: one per rate query that
    /// found the flow set or a capacity changed since the last one.
    pub fn refills(&self) -> u64 {
        self.refills
    }

    /// Start a flow from `src` to `dst` along `route`. An empty route means
    /// a node-local transfer; such flows get an infinite rate and never
    /// bottleneck anything.
    pub fn add_flow(&mut self, src: NodeId, dst: NodeId, route: &[LinkId]) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        if route.len() > self.stride {
            self.restride(route.len());
        }
        let fi = self.flows.len();
        for l in route {
            self.link_flows[l.idx()].push(fi as u32);
        }
        self.routes.extend_from_slice(route);
        self.routes.resize((fi + 1) * self.stride, LinkId(0));
        self.flows.push(Flow { id, src, dst, hops: route.len() as u32, rate: f64::INFINITY });
        self.clean = false;
        id
    }

    /// Remove a finished or cancelled flow. Panics on unknown id.
    pub fn remove_flow(&mut self, id: FlowId) {
        let pos = self
            .flows
            .iter()
            .position(|f| f.id == id)
            .expect("remove_flow: unknown flow id");
        let last = self.flows.len() - 1;
        for l in route_of(&self.routes, self.stride, &self.flows, pos) {
            let on_link = &mut self.link_flows[l.idx()];
            let at = listed_at(on_link, pos);
            on_link.swap_remove(at);
        }
        // The `swap_remove`s below move the last flow and its row to `pos`:
        // rename it on its links.
        let stride = self.stride;
        if pos != last {
            for l in route_of(&self.routes, self.stride, &self.flows, last) {
                let on_link = &mut self.link_flows[l.idx()];
                let at = listed_at(on_link, last);
                on_link[at] = pos as u32;
            }
            self.routes.copy_within(last * stride..(last + 1) * stride, pos * stride);
        }
        self.routes.truncate(last * stride);
        self.flows.swap_remove(pos);
        self.clean = false;
    }

    /// Widen every row of the route arena to `stride` links.
    fn restride(&mut self, stride: usize) {
        let mut routes = Vec::with_capacity(self.flows.len() * stride);
        for fi in 0..self.flows.len() {
            routes.extend_from_slice(route_of(&self.routes, self.stride, &self.flows, fi));
            routes.resize((fi + 1) * stride, LinkId(0));
        }
        self.routes = routes;
        self.stride = stride;
    }

    /// Current max-min fair rate of `id` in bytes/second, recomputing if the
    /// flow set changed. Panics on unknown id.
    pub fn rate(&mut self, id: FlowId) -> f64 {
        self.ensure_rates();
        self.flows
            .iter()
            .find(|f| f.id == id)
            .expect("rate: unknown flow id")
            .rate
    }

    /// Recompute (if needed) and iterate all `(id, src, dst, rate)` tuples.
    pub fn rates(&mut self) -> impl Iterator<Item = (FlowId, NodeId, NodeId, f64)> + '_ {
        self.ensure_rates();
        self.flows.iter().map(|f| (f.id, f.src, f.dst, f.rate))
    }

    /// Force recomputation now (no-op if rates are current).
    pub fn ensure_rates(&mut self) {
        if self.clean {
            return;
        }
        self.recompute();
        self.refills += 1;
        self.clean = true;
    }

    /// Progressive filling. O(L·B + F·P) where L = links carrying flows,
    /// B = bottleneck iterations (≤ L), F = flows, P = path length.
    fn recompute(&mut self) {
        let Scratch { residual, unfrozen_count, frozen, loaded } = &mut self.scratch;
        residual.clear();
        residual.extend_from_slice(&self.capacities);
        unfrozen_count.clear();
        unfrozen_count.extend(self.link_flows.iter().map(|on_link| on_link.len() as u32));
        frozen.clear();
        frozen.resize(self.flows.len(), false);

        // Only links carrying ≥ 1 flow can ever be the bottleneck; scan that
        // (usually tiny) ascending subset instead of all links. Ascending
        // order preserves the exact first-strict-minimum selection of the
        // full scan, so allocations — and simulation traces — are unchanged.
        loaded.clear();
        loaded.extend((0..unfrozen_count.len() as u32).filter(|&l| unfrozen_count[l as usize] > 0));
        // Node-local flows (empty route) sit on no link and keep the infinite
        // rate they were added with; every other flow is frozen below.
        while !loaded.is_empty() {
            // Find the bottleneck link: the smallest equal share. Capacities
            // are finite (checked where they enter), so one always exists.
            let mut best_link = usize::MAX;
            let mut best_share = f64::INFINITY;
            for &l in loaded.iter() {
                let l = l as usize;
                let share = residual[l] / unfrozen_count[l] as f64;
                if share < best_share {
                    best_share = share;
                    best_link = l;
                }
            }
            debug_assert!(best_link != usize::MAX, "loaded links but no finite share");
            let share = best_share.max(0.0);
            // Freeze every unfrozen flow crossing the bottleneck.
            for &fi in &self.link_flows[best_link] {
                let fi = fi as usize;
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                self.flows[fi].rate = share;
                for l in route_of(&self.routes, self.stride, &self.flows, fi) {
                    let li = l.idx();
                    residual[li] = (residual[li] - share).max(0.0);
                    unfrozen_count[li] -= 1;
                }
            }
            loaded.retain(|&l| unfrozen_count[l as usize] > 0);
        }
    }

    /// Override the capacity of one link (fault injection: link-rate
    /// degradation windows scale a node's NIC down and back up). Rates are
    /// lazily recomputed on the next query. Panics on unknown link.
    pub fn set_capacity(&mut self, link: LinkId, capacity_bps: f64) {
        check_capacity(link, capacity_bps);
        self.capacities[link.idx()] = capacity_bps;
        self.clean = false;
    }

    /// Current configured capacity of `link` in bytes/second.
    pub fn capacity(&self, link: LinkId) -> f64 {
        self.capacities[link.idx()]
    }

    /// Sum of current rates crossing `link` (diagnostics / tests).
    pub fn link_load(&mut self, link: LinkId) -> f64 {
        self.ensure_rates();
        (0..self.flows.len())
            .filter(|&fi| route_of(&self.routes, self.stride, &self.flows, fi).contains(&link))
            .map(|fi| self.flows[fi].rate)
            .sum()
    }
}

/// The route of flow `fi`: the used prefix of its arena row. Free of `self`
/// so a caller can read a route while it writes other fields.
fn route_of<'a>(routes: &'a [LinkId], stride: usize, flows: &[Flow], fi: usize) -> &'a [LinkId] {
    &routes[fi * stride..][..flows[fi].hops as usize]
}

/// Where flow index `fi` sits in a link's list.
fn listed_at(on_link: &[u32], fi: usize) -> usize {
    on_link
        .iter()
        .position(|&listed| listed as usize == fi)
        .expect("a flow is listed on every link of its route")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    const GB: f64 = 1e9 / 8.0; // 1 Gbps in bytes/sec

    fn star(n: usize) -> (Topology, RoutingTable) {
        let t = Topology::single_rack(n, GB);
        let rt = RoutingTable::new(&t);
        (t, rt)
    }

    #[test]
    fn single_flow_gets_full_path_capacity() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(0), NodeId(1), rt.route(NodeId(0), NodeId(1)));
        assert!((fx.rate(f) - GB).abs() < 1e-6);
    }

    #[test]
    fn local_flow_is_unconstrained() {
        let (t, rt) = star(2);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(0), NodeId(0), rt.route(NodeId(0), NodeId(0)));
        assert!(fx.rate(f).is_infinite());
    }

    #[test]
    fn two_flows_share_a_nic_evenly() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        // Both flows terminate at node 0: its NIC is the bottleneck.
        let f1 = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        let f2 = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        assert!((fx.rate(f1) - GB / 2.0).abs() < 1e-6);
        assert!((fx.rate(f2) - GB / 2.0).abs() < 1e-6);
    }

    #[test]
    fn removal_restores_capacity() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f1 = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        let f2 = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        assert!((fx.rate(f1) - GB / 2.0).abs() < 1e-6);
        fx.remove_flow(f2);
        assert!((fx.rate(f1) - GB).abs() < 1e-6);
        assert_eq!(fx.n_active(), 1);
    }

    #[test]
    fn max_min_is_not_merely_proportional() {
        // Two racks, thin uplink: cross-rack flows bottleneck on the uplink,
        // and the in-rack flow picks up the slack on its NIC — the defining
        // max-min behaviour.
        let t = Topology::multi_rack(2, 2, GB, GB / 2.0);
        let rt = RoutingTable::new(&t);
        let mut fx = FlowNetwork::new(&t);
        // Cross-rack: node2 -> node0 (shares node0's NIC with f_local).
        let f_cross = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        // In-rack: node1 -> node0.
        let f_local = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        // Uplink capacity GB/2 carries only f_cross -> f_cross = GB/2;
        // node0 NIC splits GB between both, equal share GB/2 each, so NIC is
        // not the binding constraint and f_local takes GB - GB/2 = GB/2...
        // with equal split both get GB/2: check uplink share first.
        let rc = fx.rate(f_cross);
        let rl = fx.rate(f_local);
        assert!((rc + rl - GB).abs() < 1e-6, "dst NIC saturated");
        assert!(rc <= GB / 2.0 + 1e-6, "cross-rack flow capped by uplink");
        assert!(rl >= rc - 1e-6, "in-rack flow never below cross-rack flow");
    }

    #[test]
    fn asymmetric_bottlenecks() {
        // 3 flows into node0, one flow between node1 and node2. The NIC of
        // node0 is shared 3 ways; the 1<->2 flow only shares the switch, so
        // it gets its full NIC rate.
        let (t, rt) = star(4);
        let mut fx = FlowNetwork::new(&t);
        let into0: Vec<_> = (1..4)
            .map(|s| fx.add_flow(NodeId(s), NodeId(0), rt.route(NodeId(s), NodeId(0))))
            .collect();
        for f in &into0 {
            assert!((fx.rate(*f) - GB / 3.0).abs() < 1e-5);
        }
        // Node 3 -> node 2: node3's NIC carries the into0 flow (GB/3) plus
        // this one; max-min gives it the residual 2/3 GB.
        let side = fx.add_flow(NodeId(3), NodeId(2), rt.route(NodeId(3), NodeId(2)));
        let r = fx.rate(side);
        assert!((r - 2.0 * GB / 3.0).abs() < 1e-5, "got {r}");
    }

    #[test]
    fn rates_iterator_reports_all_flows() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        let v: Vec<_> = fx.rates().collect();
        assert_eq!(v.len(), 2);
        assert!(v.iter().all(|(_, _, dst, r)| *dst == NodeId(0) && *r > 0.0));
    }

    #[test]
    fn link_load_never_exceeds_capacity() {
        let (t, rt) = star(5);
        let mut fx = FlowNetwork::new(&t);
        for s in 1..5 {
            fx.add_flow(NodeId(s), NodeId(0), rt.route(NodeId(s), NodeId(0)));
            fx.add_flow(NodeId(0), NodeId(s), rt.route(NodeId(0), NodeId(s)));
        }
        for (i, l) in t.links().iter().enumerate() {
            let load = fx.link_load(LinkId(i as u32));
            assert!(load <= l.capacity_bps + 1e-6, "link {i} overloaded: {load}");
        }
    }

    #[test]
    fn degrading_a_link_rescales_active_flows() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        assert!((fx.rate(f) - GB).abs() < 1e-6);
        // Node 0's NIC is the first link in a single-rack topology's
        // incident list; find it through the topology rather than guessing.
        let nic = t.incident(crate::topology::Vertex::Node(NodeId(0)))[0].0;
        fx.set_capacity(nic, GB / 10.0);
        assert!((fx.rate(f) - GB / 10.0).abs() < 1e-6, "flow follows the degraded link");
        fx.set_capacity(nic, GB);
        assert!((fx.rate(f) - GB).abs() < 1e-6, "restore brings the rate back");
        assert!((fx.capacity(nic) - GB).abs() < 1e-9);
    }

    #[test]
    fn refills_count_fills_not_queries() {
        let (t, rt) = star(3);
        let mut fx = FlowNetwork::new(&t);
        let f1 = fx.add_flow(NodeId(1), NodeId(0), rt.route(NodeId(1), NodeId(0)));
        let f2 = fx.add_flow(NodeId(2), NodeId(0), rt.route(NodeId(2), NodeId(0)));
        assert_eq!(fx.refills(), 0, "adding flows fills nothing");
        fx.rate(f1);
        fx.rate(f2);
        fx.ensure_rates();
        assert_eq!(fx.refills(), 1, "one fill serves every query until a change");
        fx.remove_flow(f2);
        fx.set_capacity(LinkId(0), GB / 2.0);
        fx.rates().count();
        assert_eq!(fx.refills(), 2);
    }

    /// Routes live in a flat arena whose row width grows to the longest
    /// route seen: a route longer than any built-in topology's still works,
    /// including after it is moved by the removal of an earlier flow.
    #[test]
    fn routes_longer_than_any_built_in_one_have_no_hop_cap() {
        use crate::topology::{RackId, TopologyBuilder, Vertex};
        // node 0 — s0 — s1 — … — s9 — node 1: 11 hops (a fat tree's
        // longest is 6), with a thin link in the middle.
        let mut b = TopologyBuilder::new();
        let (a, z) = (b.add_node(RackId(0)), b.add_node(RackId(1)));
        let sw: Vec<_> = (0..10).map(|_| b.add_switch()).collect();
        b.link(Vertex::Node(a), Vertex::Switch(sw[0]), GB);
        for (i, w) in sw.windows(2).enumerate() {
            let cap = if i == 4 { GB / 4.0 } else { GB };
            b.link(Vertex::Switch(w[0]), Vertex::Switch(w[1]), cap);
        }
        b.link(Vertex::Switch(sw[9]), Vertex::Node(z), GB);
        let t = b.build();
        let rt = RoutingTable::new(&t);
        let long = rt.route(a, z);
        assert_eq!(long.len(), 11);
        let thin = LinkId(5);
        assert!(long.contains(&thin));

        let mut fx = FlowNetwork::new(&t);
        // A one-hop flow first, so the arena widens under a live flow.
        let short = fx.add_flow(a, z, &[thin]);
        assert!((fx.rate(short) - GB / 4.0).abs() < 1e-6);
        let f = fx.add_flow(a, z, long);
        let back = fx.add_flow(z, a, rt.route(z, a));
        for id in [short, f, back] {
            assert!((fx.rate(id) - GB / 12.0).abs() < 1e-6, "three flows share the thin link");
        }
        // Removing the first flow moves the last one's row into its place.
        fx.remove_flow(short);
        assert!((fx.rate(f) - GB / 8.0).abs() < 1e-6);
        assert!((fx.link_load(long[0]) - GB / 4.0).abs() < 1e-6);
        assert!((fx.link_load(long[10]) - GB / 4.0).abs() < 1e-6);
        fx.remove_flow(f);
        assert!((fx.rate(back) - GB / 4.0).abs() < 1e-6);
        assert!((fx.link_load(long[0]) - GB / 4.0).abs() < 1e-6);
        fx.remove_flow(back);
        assert_eq!(fx.link_load(thin), 0.0);
        assert_eq!(fx.n_active(), 0);
    }

    #[test]
    #[should_panic(expected = "link 1: capacity must be positive and finite, got inf")]
    fn infinite_capacity_rejected_at_construction() {
        FlowNetwork::with_capacities(vec![GB, f64::INFINITY]);
    }

    #[test]
    #[should_panic(expected = "link 0: capacity must be positive and finite, got inf")]
    fn infinite_capacity_rejected_by_set_capacity() {
        let (t, _) = star(2);
        FlowNetwork::new(&t).set_capacity(LinkId(0), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "unknown flow id")]
    fn removing_unknown_flow_panics() {
        let (t, _) = star(2);
        let mut fx = FlowNetwork::new(&t);
        fx.remove_flow(FlowId(42));
    }
}
