//! Micro-drivers: short loops over one layer's public entry points, run
//! only in the traced pass. They give the ledger a number for the pieces a
//! span around `Simulation::run` or `run_cluster` cannot see into, at the
//! sizes the workload itself reaches (488 concurrent flows = 60 nodes × 2
//! reduce slots × 4 parallel copies + 8 background lanes).

use crate::metrics::Metrics;
use crate::simload::SimKind;
use crate::spans::Recorder;
use crate::stats::{median, pct, ratio};
use crate::Args;
use pnats_cluster::{read_journal, FsyncPolicy, Journal, JournalRecord, JournalState};
use pnats_dfs::{RackAware, ReplicaPlacement};
use pnats_net::{ClassedDistance, DistanceMatrix, FlowNetwork, NodeId, RateMonitor, RoutingTable};
use pnats_rpc::{Handler, Msg, RetryPolicy, RpcClient, RpcServer};
use pnats_sim::transfers::{Completion, NominalTransfers, TransferTag, Transfers};
use pnats_sim::{JobInput, SimConfig};
use pnats_tenancy::DwrrArbiter;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Flows (or transfers) the network drivers hold in flight.
const IN_FLIGHT: usize = 488;
const BACKGROUND: usize = 8;

/// Time `f` once, in microseconds.
fn timed_us(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e6
}

fn random_pair(rng: &mut SmallRng, n: usize) -> (NodeId, NodeId) {
    let src = rng.gen_range(0..n);
    let mut dst = rng.gen_range(0..n);
    if dst == src {
        dst = (dst + 1) % n;
    }
    (NodeId(src as u32), NodeId(dst as u32))
}

/// The drivers of the layers a simulator workload runs on.
pub fn sim_layers(
    kind: SimKind,
    cfg: &SimConfig,
    inputs: &[JobInput],
    args: &Args,
    rec: &mut Recorder,
    m: &mut Metrics,
) {
    let steps = if args.quick { 100 } else { 2_000 };
    let n = cfg.n_nodes;
    let mut rng = SmallRng::seed_from_u64(args.seed);

    // What `Simulation::new` builds from the `net` crate for this config.
    let ((topo, hops), build_t) = rec.span("driver.net.build", |_| {
        let topo = cfg.build_topology();
        let hops = DistanceMatrix::hops(&topo);
        black_box(ClassedDistance::hops(&topo));
        if cfg.fluid_network {
            black_box(RoutingTable::new(&topo));
        }
        (topo, hops)
    });
    m.set("net.build_s", build_t.secs);

    rec.span("driver.dfs.place", |_| {
        let blocks: usize = inputs.iter().map(|j| j.block_sizes.len()).sum();
        let layout = topo.layout();
        let us = timed_us(|| {
            for _ in 0..blocks {
                let writer = NodeId(rng.gen_range(0..n) as u32);
                black_box(RackAware.place(writer, cfg.replication, layout, &mut rng));
            }
        });
        m.set("dfs.place_us_per_block", ratio(us, blocks as f64));
    });

    if cfg.fluid_network {
        rec.span("driver.net.flow", |_| {
            let routes = RoutingTable::new(&topo);
            let mut fx = FlowNetwork::new(&topo);
            let mut live: VecDeque<_> = (0..IN_FLIGHT)
                .map(|_| {
                    let (s, d) = random_pair(&mut rng, n);
                    fx.add_flow(s, d, routes.route(s, d))
                })
                .collect();
            fx.ensure_rates();
            let us: Vec<f64> = (0..steps)
                .map(|_| {
                    let (s, d) = random_pair(&mut rng, n);
                    timed_us(|| {
                        fx.remove_flow(live.pop_front().expect("flows stay in flight"));
                        live.push_back(fx.add_flow(s, d, routes.route(s, d)));
                        fx.ensure_rates();
                    })
                })
                .collect();
            m.set("net.flow.recompute_us_p50", pct(&us, 0.50));
            m.set("net.flow.recompute_us_p99", pct(&us, 0.99));
        });

        rec.span("driver.net.monitor", |_| {
            let mut monitor = RateMonitor::new(n, cfg.monitor_alpha);
            for _ in 0..4 * n {
                let (s, d) = random_pair(&mut rng, n);
                monitor.observe(s, d, rng.gen_range(0.05..1.0) * cfg.nic_bps);
            }
            let us: Vec<f64> = (0..steps / 10)
                .map(|_| {
                    timed_us(|| {
                        drop(black_box(
                            monitor.congestion_scaled_matrix(&hops, cfg.nic_bps),
                        ))
                    })
                })
                .collect();
            m.set("net.monitor.snapshot_us_p50", median(&us));
        });

        rec.span("driver.sim.transfers", |_| {
            let us = transfer_cycles(&mut Transfers::new(&topo), steps, &mut rng, n);
            m.set("sim.transfers.cycle_us_p50", median(&us));
        });
    } else {
        rec.span("driver.sim.nominal_transfers", |_| {
            let us = transfer_cycles(
                &mut NominalTransfers::new(n, cfg.nic_bps),
                steps,
                &mut rng,
                n,
            );
            m.set("sim.transfers.nominal_cycle_us_p50", median(&us));
        });
    }

    if kind == SimKind::ServiceChurn {
        rec.span("driver.tenancy.arbiter", |_| {
            let mut arb = DwrrArbiter::new(&[3.0, 2.0, 1.0]);
            let demanding = [0usize, 1, 2];
            let picks = 100 * steps;
            let t = Instant::now();
            for i in 0..picks {
                let winner = arb.pick(black_box(&demanding));
                // Every fourth offer is declined by the placer and refunded.
                if i % 4 == 0 {
                    arb.refund(winner);
                }
            }
            m.set(
                "tenancy.arbiter.pick_ns",
                t.elapsed().as_secs_f64() * 1e9 / picks as f64,
            );
        });
    }
}

/// The three calls the simulator's event loop makes on a transfer engine.
trait TransferEngine {
    fn start(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64, tag: TransferTag);
    fn next_wake(&mut self) -> Option<f64>;
    fn reap(&mut self, now: f64) -> Vec<Completion>;
}

impl TransferEngine for Transfers {
    fn start(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64, tag: TransferTag) {
        Transfers::start(self, now, src, dst, bytes, tag);
    }
    fn next_wake(&mut self) -> Option<f64> {
        Transfers::next_wake(self).map(|(t, _)| t)
    }
    fn reap(&mut self, now: f64) -> Vec<Completion> {
        Transfers::reap(self, now)
    }
}

impl TransferEngine for NominalTransfers {
    fn start(&mut self, now: f64, src: NodeId, dst: NodeId, bytes: f64, tag: TransferTag) {
        NominalTransfers::start(self, now, src, dst, bytes, tag);
    }
    fn next_wake(&mut self) -> Option<f64> {
        NominalTransfers::next_wake(self).map(|(t, _)| t)
    }
    fn reap(&mut self, now: f64) -> Vec<Completion> {
        NominalTransfers::reap(self, now)
    }
}

/// One script for both transfer engines: hold [`IN_FLIGHT`] transfers (of
/// which [`BACKGROUND`] never finish), then repeatedly jump to the next
/// predicted completion, reap it and start a replacement. Returns the
/// microseconds each `next_wake` → `reap` → `start` cycle took.
fn transfer_cycles(
    tr: &mut impl TransferEngine,
    steps: usize,
    rng: &mut SmallRng,
    n: usize,
) -> Vec<f64> {
    let mut now = 0.0;
    for idx in 0..BACKGROUND {
        let (s, d) = random_pair(rng, n);
        tr.start(now, s, d, f64::INFINITY, TransferTag::Background { idx });
    }
    let mut next_reduce = 0usize;
    let mut launch = |tr: &mut dyn TransferEngine, now: f64, rng: &mut SmallRng| {
        let (s, d) = random_pair(rng, n);
        let bytes = rng.gen_range(8.0..64.0) * (1u64 << 20) as f64;
        next_reduce += 1;
        tr.start(
            now,
            s,
            d,
            bytes,
            TransferTag::Shuffle {
                job: 0,
                reduce: next_reduce,
            },
        );
    };
    for _ in 0..IN_FLIGHT - BACKGROUND {
        launch(tr, now, rng);
    }
    let mut us = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t = Instant::now();
        let Some(wake) = tr.next_wake() else { break };
        now = wake;
        for _ in tr.reap(now) {
            launch(tr, now, rng);
        }
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    us
}

/// An idle-shaped heartbeat, the message a worker sends every round.
fn heartbeat() -> Msg {
    Msg::Heartbeat {
        node: 0,
        epoch: 0,
        free_map_slots: 2,
        free_reduce_slots: 1,
        progress: vec![],
        map_done: vec![],
        map_failed: vec![],
        reduce_done: vec![],
        running_reduces: vec![],
        rpc_retries: 0,
        breaker_trips: 0,
        breaker_closes: 0,
        alt_fetches: 0,
        corrupt_frames: 0,
    }
}

/// The `rpc` layer alone: heartbeat round trips against a loopback echo
/// server (framing + TCP, no scheduling), and the codec on its own.
pub fn rpc_layer(args: &Args, rec: &mut Recorder, m: &mut Metrics) -> Result<(), String> {
    let calls = if args.quick { 100 } else { 2_000 };
    let hb = heartbeat();
    rec.span("driver.rpc.echo", |rec| -> Result<(), String> {
        let echo: Handler = Arc::new(|msg| msg);
        let server = RpcServer::bind("127.0.0.1:0", echo, Duration::from_millis(200))
            .map_err(|e| format!("bind echo server: {e}"))?;
        let mut client = RpcClient::connect(
            server.addr(),
            RetryPolicy::default(),
            Duration::from_secs(2),
        )
        .map_err(|e| format!("connect echo server: {e}"))?;
        for _ in 0..16 {
            client.call(&hb).map_err(|e| format!("echo warm-up: {e}"))?;
        }
        let mut us = Vec::with_capacity(calls);
        for _ in 0..calls {
            let t = Instant::now();
            client.call(&hb).map_err(|e| format!("echo call: {e}"))?;
            us.push(t.elapsed().as_secs_f64() * 1e6);
        }
        rec.fold(
            "rpc.call",
            calls as u64,
            (us.iter().sum::<f64>() * 1e3) as u64,
        );
        m.set("rpc.hb_rtt_us_p50", pct(&us, 0.50));
        m.set("rpc.hb_rtt_us_p99", pct(&us, 0.99));
        Ok(())
    })
    .0?;
    rec.span("driver.rpc.codec", |_| {
        let rounds = 10 * calls;
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(black_box(&hb).encode());
        }
        m.set(
            "rpc.hb_encode_ns",
            t.elapsed().as_secs_f64() * 1e9 / rounds as f64,
        );
        let bytes = hb.encode();
        let t = Instant::now();
        for _ in 0..rounds {
            black_box(Msg::decode(black_box(&bytes)).expect("heartbeat decodes"));
        }
        m.set(
            "rpc.hb_decode_ns",
            t.elapsed().as_secs_f64() * 1e9 / rounds as f64,
        );
    });
    Ok(())
}

/// The journal alone, fed the records one job wrote: append latency under
/// both fsync policies (so the cost of durability is on the ledger without
/// an fsync in the timed loop), and replay of the finished file.
pub fn journal_layer(
    records: &[JournalRecord],
    dir: &Path,
    args: &Args,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let io = |what: &str, e: std::io::Error| format!("journal driver, {what}: {e}");
    let mut append_p50 = |policy: FsyncPolicy, appends: usize| {
        rec.span(
            "driver.cluster.journal_append",
            |rec| -> Result<f64, String> {
                let path = dir.join("driver.journal");
                let mut journal = Journal::create(&path, policy).map_err(|e| io("create", e))?;
                let mut us = Vec::with_capacity(appends);
                for record in records.iter().cycle().take(appends) {
                    let t = Instant::now();
                    journal.append(record).map_err(|e| io("append", e))?;
                    us.push(t.elapsed().as_secs_f64() * 1e6);
                }
                rec.fold(
                    "cluster.journal.append",
                    appends as u64,
                    (us.iter().sum::<f64>() * 1e3) as u64,
                );
                Ok(pct(&us, 0.50))
            },
        )
        .0
    };
    let (never, always) = if args.quick { (200, 20) } else { (4_000, 200) };
    m.set(
        "cluster.journal.append_us_p50.never",
        append_p50(FsyncPolicy::Never, never)?,
    );
    m.set(
        "cluster.journal.append_us_p50.always",
        append_p50(FsyncPolicy::Always, always)?,
    );

    rec.span("driver.cluster.journal_replay", |_| -> Result<(), String> {
        let path = dir.join("driver.journal");
        let mut journal =
            Journal::create(&path, FsyncPolicy::Never).map_err(|e| io("create", e))?;
        for record in records {
            journal.append(record).map_err(|e| io("append", e))?;
        }
        drop(journal);
        let mut ms = Vec::new();
        for _ in 0..if args.quick { 5 } else { 50 } {
            let t = Instant::now();
            let replayed = read_journal(&path).map_err(|e| io("read", e))?;
            black_box(JournalState::from_records(&replayed)?);
            ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
        m.set("cluster.journal.replay_ms", median(&ms));
        Ok(())
    })
    .0
}
