//! Property tests of the max-min fair flow allocator: for arbitrary flow
//! sets on single-rack, multi-rack, Palmetto-slice and fat-tree topologies,
//! the allocation must be feasible (no link over capacity), positive, and
//! max-min fair in the bottleneck sense (no flow can be raised without
//! lowering a smaller-or-equal flow).
//!
//! The second block is differential: [`FlowNetwork`] keeps its per-link flow
//! lists and its flat route arena up to date across `add_flow` /
//! `remove_flow` and refills out of reused scratch, and must give, bit for
//! bit, the rates of [`reference_rates`] — textbook progressive filling
//! that rebuilds everything from the capacities and routes on every call.
//! Its case count honors `PROPTEST_CASES`.

use pnats_net::{FlowId, FlowNetwork, LinkId, NodeId, RoutingTable, Topology};
use proptest::prelude::*;

fn topo_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        (2usize..20).prop_map(|n| Topology::single_rack(n, 1e8)),
        ((2usize..4), (2usize..6)).prop_map(|(r, p)| Topology::multi_rack(r, p, 1e8, 2e8)),
        (3usize..30).prop_map(|n| Topology::palmetto_slice(n, 1e8)),
        // Cross-pod routes are 6 hops, the longest of any built-in fabric.
        (1usize..4).prop_map(|h| Topology::fat_tree(2 * h, 1e8)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn allocation_is_feasible_and_positive(
        topo in topo_strategy(),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..40),
    ) {
        let routes = RoutingTable::new(&topo);
        let n = topo.n_nodes();
        let mut fx = FlowNetwork::new(&topo);
        let mut ids = Vec::new();
        for (a, b) in pairs {
            let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            if src != dst {
                ids.push(fx.add_flow(src, dst, routes.route(src, dst)));
            }
        }
        prop_assume!(!ids.is_empty());
        // Every flow gets a strictly positive, finite rate.
        for id in &ids {
            let r = fx.rate(*id);
            prop_assert!(r.is_finite() && r > 0.0, "rate {r}");
        }
        // No link is over capacity.
        for (i, link) in topo.links().iter().enumerate() {
            let load = fx.link_load(LinkId(i as u32));
            prop_assert!(
                load <= link.capacity_bps * (1.0 + 1e-9),
                "link {i}: {load} > {}",
                link.capacity_bps
            );
        }
    }

    #[test]
    fn single_flow_gets_path_min_capacity(topo in topo_strategy(), a in 0usize..64, b in 0usize..64) {
        let n = topo.n_nodes();
        let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
        prop_assume!(src != dst);
        let routes = RoutingTable::new(&topo);
        let mut fx = FlowNetwork::new(&topo);
        let id = fx.add_flow(src, dst, routes.route(src, dst));
        let min_cap = routes
            .route(src, dst)
            .iter()
            .map(|l| topo.capacity(*l))
            .fold(f64::INFINITY, f64::min);
        let r = fx.rate(id);
        prop_assert!((r - min_cap).abs() < 1e-6 * min_cap, "{r} vs {min_cap}");
    }

    /// The defining property of a max-min fair allocation: every flow has a
    /// *bottleneck* link — a saturated link on its path where no other flow
    /// receives a strictly higher rate.
    #[test]
    fn every_flow_has_a_bottleneck(
        topo in topo_strategy(),
        pairs in proptest::collection::vec((0usize..64, 0usize..64), 1..25),
    ) {
        let routes = RoutingTable::new(&topo);
        let n = topo.n_nodes();
        let mut fx = FlowNetwork::new(&topo);
        let mut flows = Vec::new(); // (id, src, dst)
        for (a, b) in pairs {
            let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
            if src != dst {
                flows.push((fx.add_flow(src, dst, routes.route(src, dst)), src, dst));
            }
        }
        prop_assume!(!flows.is_empty());
        let rates: Vec<f64> = flows.iter().map(|(id, _, _)| fx.rate(*id)).collect();
        for (i, (_, src, dst)) in flows.iter().enumerate() {
            let path = routes.route(*src, *dst);
            let has_bottleneck = path.iter().any(|&link| {
                let load = fx.link_load(link);
                let saturated = load >= topo.capacity(link) * (1.0 - 1e-9);
                let max_on_link = flows
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, s, d))| routes.route(*s, *d).contains(&link))
                    .map(|(j, _)| rates[j])
                    .fold(0.0, f64::max);
                saturated && rates[i] >= max_on_link * (1.0 - 1e-9)
            });
            prop_assert!(
                has_bottleneck,
                "flow {i} (rate {}) has no bottleneck link",
                rates[i]
            );
        }
    }
}

/// Progressive filling from nothing but capacities and routes, with no
/// state kept between calls: the reference `FlowNetwork`'s incremental
/// refill must match. Returns one rate per route, in order.
fn reference_rates(capacities: &[f64], routes: &[Vec<LinkId>]) -> Vec<f64> {
    let n_links = capacities.len();
    let mut rates = vec![f64::INFINITY; routes.len()];
    // Per-link state: residual capacity + unfrozen flow count.
    let mut residual = capacities.to_vec();
    let mut unfrozen_count = vec![0u32; n_links];
    let mut link_flows: Vec<Vec<u32>> = vec![Vec::new(); n_links];
    let mut frozen = vec![false; routes.len()];

    for (fi, route) in routes.iter().enumerate() {
        if route.is_empty() {
            // Node-local transfer: unconstrained.
            rates[fi] = f64::INFINITY;
            frozen[fi] = true;
        } else {
            for l in route {
                unfrozen_count[l.idx()] += 1;
                link_flows[l.idx()].push(fi as u32);
            }
        }
    }

    let mut loaded: Vec<u32> = (0..n_links as u32)
        .filter(|&l| unfrozen_count[l as usize] > 0)
        .collect();
    let mut remaining = frozen.iter().filter(|f| !**f).count();
    while remaining > 0 {
        // Find the bottleneck link: the smallest equal share.
        let mut best_link = usize::MAX;
        let mut best_share = f64::INFINITY;
        loaded.retain(|&l| unfrozen_count[l as usize] > 0);
        for &l in &loaded {
            let l = l as usize;
            let share = residual[l] / unfrozen_count[l] as f64;
            if share < best_share {
                best_share = share;
                best_link = l;
            }
        }
        assert!(best_link != usize::MAX, "unfrozen flows but no loaded link");
        let share = best_share.max(0.0);
        // Freeze every unfrozen flow crossing the bottleneck.
        for &fi in &link_flows[best_link] {
            let fi = fi as usize;
            if frozen[fi] {
                continue;
            }
            frozen[fi] = true;
            remaining -= 1;
            rates[fi] = share;
            for l in &routes[fi] {
                let li = l.idx();
                residual[li] = (residual[li] - share).max(0.0);
                unfrozen_count[li] -= 1;
            }
        }
    }
    rates
}

#[derive(Clone, Debug)]
enum Op {
    /// Start a flow between two nodes (indices taken modulo the node count;
    /// equal endpoints give a node-local flow with an empty route).
    Add(usize, usize),
    /// Remove the i-th oldest live flow.
    Remove(usize),
    /// Scale a link to this multiple of its nominal capacity.
    SetCapacity(usize, f64),
    /// Ask for rates now, so the network goes clean in mid-sequence.
    Query,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0usize..64, 0usize..64).prop_map(|(a, b)| Op::Add(a, b)),
        2 => (0usize..64).prop_map(Op::Remove),
        1 => (0usize..64, 0.05f64..4.0).prop_map(|(l, scale)| Op::SetCapacity(l, scale)),
        2 => Just(Op::Query),
    ]
}

/// Every live flow's rate, bit for bit, against the reference. `live` is in
/// insertion order, which after any removal is not the network's own order.
fn check_against_reference(
    fx: &mut FlowNetwork,
    capacities: &[f64],
    live: &[(FlowId, Vec<LinkId>)],
) -> Result<(), TestCaseError> {
    let routes: Vec<Vec<LinkId>> = live.iter().map(|(_, route)| route.clone()).collect();
    let want = reference_rates(capacities, &routes);
    for ((id, route), want) in live.iter().zip(want) {
        let got = fx.rate(*id);
        prop_assert!(
            got.to_bits() == want.to_bits(),
            "flow {id:?} over {route:?}: rate {got:e}, reference {want:e}"
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn refill_matches_the_reference_under_churn(
        topo in topo_strategy(),
        ops in proptest::collection::vec(op_strategy(), 1..80),
    ) {
        let routing = RoutingTable::new(&topo);
        let n = topo.n_nodes();
        let mut capacities: Vec<f64> = topo.links().iter().map(|l| l.capacity_bps).collect();
        let mut fx = FlowNetwork::new(&topo);
        let mut live: Vec<(FlowId, Vec<LinkId>)> = Vec::new();
        for op in ops {
            match op {
                Op::Add(a, b) => {
                    let (src, dst) = (NodeId((a % n) as u32), NodeId((b % n) as u32));
                    let route = routing.route(src, dst);
                    live.push((fx.add_flow(src, dst, route), route.to_vec()));
                }
                Op::Remove(i) if !live.is_empty() => {
                    let (id, _) = live.remove(i % live.len());
                    fx.remove_flow(id);
                }
                Op::Remove(_) => {}
                Op::SetCapacity(l, scale) => {
                    let l = l % capacities.len();
                    capacities[l] = topo.links()[l].capacity_bps * scale;
                    fx.set_capacity(LinkId(l as u32), capacities[l]);
                }
                Op::Query => check_against_reference(&mut fx, &capacities, &live)?,
            }
        }
        check_against_reference(&mut fx, &capacities, &live)?;
        prop_assert_eq!(fx.n_active(), live.len());
    }

    /// The allocation is a function of the *multiset* of routes: the order
    /// flows were added in — hence the order of the per-link lists and of
    /// freezing within a round — never reaches a float.
    #[test]
    fn rates_do_not_depend_on_insertion_order(
        topo in topo_strategy(),
        flows in proptest::collection::vec((0usize..64, 0usize..64, 0u32..1000), 1..40),
    ) {
        let routing = RoutingTable::new(&topo);
        let n = topo.n_nodes();
        let endpoints = |&(a, b, _): &(usize, usize, u32)| (NodeId((a % n) as u32), NodeId((b % n) as u32));
        // Second order: by the generated key (ties keep the first order).
        let mut reordered: Vec<usize> = (0..flows.len()).collect();
        reordered.sort_by_key(|&i| flows[i].2);

        let in_order: Vec<usize> = (0..flows.len()).collect();

        let mut rates_by_flow = Vec::new();
        for order in [&in_order, &reordered] {
            let mut fx = FlowNetwork::new(&topo);
            let mut ids = vec![FlowId(u64::MAX); flows.len()];
            for &i in order {
                let (src, dst) = endpoints(&flows[i]);
                ids[i] = fx.add_flow(src, dst, routing.route(src, dst));
            }
            rates_by_flow.push(ids.iter().map(|id| fx.rate(*id).to_bits()).collect::<Vec<u64>>());
        }
        prop_assert_eq!(&rates_by_flow[0], &rates_by_flow[1]);
    }
}
