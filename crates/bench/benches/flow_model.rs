//! Max-min fair flow allocation throughput: the progressive-filling pass
//! that runs on every transfer arrival/departure in the simulator.
//!
//! `progressive_filling` times the first refill of a freshly built network:
//! its scratch buffers grow from empty inside the timed call, while the
//! per-link flow lists were built by `add_flow` in the untimed set-up. What
//! the simulator pays is the warm case, so `steady_state` and `transfers_cycle`
//! replay the scripts behind the benchmark ledger's `net.flow.recompute_us_*`
//! and `sim.transfers.cycle_us_p50` rows (`benchmark/src/drivers.rs`): hold a
//! fixed number of flows on the 60-node cloud topology and time one
//! departure + arrival + refill. 488 is what `paper_shuffle` peaks at (60
//! nodes × 2 reduce slots × 4 parallel copies + 8 background lanes).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use pnats_net::{FlowNetwork, NodeId, RoutingTable, Topology};
use pnats_sim::transfers::{TransferTag, Transfers};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

const NODES: usize = 60;
const HELD: [usize; 2] = [200, 488];
const BACKGROUND: usize = 8;

fn bench_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow_model");
    for &(nodes, flows) in &[(20usize, 50usize), (60, 200), (60, 600)] {
        let topo = Topology::palmetto_slice(nodes, 125e6);
        let routes = RoutingTable::new(&topo);
        group.bench_with_input(
            BenchmarkId::new("progressive_filling", format!("{nodes}n_{flows}f")),
            &flows,
            |b, &nf| {
                b.iter_batched(
                    || {
                        let mut fx = FlowNetwork::new(&topo);
                        for i in 0..nf {
                            let src = NodeId((i % nodes) as u32);
                            let dst = NodeId(((i * 13 + 1) % nodes) as u32);
                            if src != dst {
                                fx.add_flow(src, dst, routes.route(src, dst));
                            }
                        }
                        fx
                    },
                    |mut fx| {
                        fx.ensure_rates();
                        black_box(fx.n_active())
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn random_pair(rng: &mut SmallRng) -> (NodeId, NodeId) {
    let src = rng.gen_range(0..NODES);
    let mut dst = rng.gen_range(0..NODES);
    if dst == src {
        dst = (dst + 1) % NODES;
    }
    (NodeId(src as u32), NodeId(dst as u32))
}

fn bench_steady_state(c: &mut Criterion) {
    let topo = Topology::palmetto_slice(NODES, 125e6);
    let routes = RoutingTable::new(&topo);
    let mut group = c.benchmark_group("flow_model");
    for held in HELD {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut fx = FlowNetwork::new(&topo);
        let mut live: VecDeque<_> = (0..held)
            .map(|_| {
                let (s, d) = random_pair(&mut rng);
                fx.add_flow(s, d, routes.route(s, d))
            })
            .collect();
        fx.ensure_rates();
        group.bench_function(BenchmarkId::new("steady_state", format!("{NODES}n_{held}f")), |b| {
            b.iter(|| {
                let (s, d) = random_pair(&mut rng);
                fx.remove_flow(live.pop_front().expect("flows stay in flight"));
                live.push_back(fx.add_flow(s, d, routes.route(s, d)));
                fx.ensure_rates();
            })
        });
    }
    group.finish();
}

fn bench_transfers_cycle(c: &mut Criterion) {
    let topo = Topology::palmetto_slice(NODES, 125e6);
    let mut group = c.benchmark_group("transfers_cycle");
    for held in HELD {
        let mut rng = SmallRng::seed_from_u64(42);
        let mut tr = Transfers::new(&topo);
        let mut now = 0.0;
        for idx in 0..BACKGROUND {
            let (s, d) = random_pair(&mut rng);
            tr.start(now, s, d, f64::INFINITY, TransferTag::Background { idx });
        }
        let mut next_reduce = 0usize;
        let mut launch = |tr: &mut Transfers, now: f64, rng: &mut SmallRng| {
            let (s, d) = random_pair(rng);
            let bytes = rng.gen_range(8.0..64.0) * (1u64 << 20) as f64;
            next_reduce += 1;
            tr.start(now, s, d, bytes, TransferTag::Shuffle { job: 0, reduce: next_reduce });
        };
        for _ in 0..held - BACKGROUND {
            launch(&mut tr, now, &mut rng);
        }
        group.bench_function(BenchmarkId::new("wake_reap_restart", format!("{NODES}n_{held}f")), |b| {
            b.iter(|| {
                (now, _) = tr.next_wake().expect("bounded transfers stay in flight");
                for _ in tr.reap(now) {
                    launch(&mut tr, now, &mut rng);
                }
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fill, bench_steady_state, bench_transfers_cycle);
criterion_main!(benches);
