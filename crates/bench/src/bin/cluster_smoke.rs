//! CI smoke for the cluster runtime: a real TCP JobTracker plus three
//! TaskTracker workers run WordCount, and the output must be
//! byte-identical to an in-process engine run of the same job on the same
//! seed. Also measures the framed heartbeat round-trip over loopback TCP —
//! the per-heartbeat overhead the cluster runtime pays versus the engine's
//! in-process calls — for the EXPERIMENTS.md parity methodology section.
//!
//! It is also the regression gate on the runtime's event-driven wake-ups:
//! the cluster run may cost at most [`MAX_OVER_ENGINE`] times the engine
//! run measured beside it. Both are timed on the same host in the same
//! process, so its speed cancels out of the ratio; a fixed nap back on the
//! job's critical path does not (the 20-heartbeat shutdown grace alone put
//! the ratio past 9). And the last worker must hear `shutdown` less than
//! half a heartbeat after the verdict: a structural check that the goodbye
//! waits for no timed beat.

use pnats_bench::usage_on_help;
use pnats_cluster::{check_cluster_report, placer_by_name, run_cluster, ClusterConfig, JobSpec};
use pnats_engine::MapReduceEngine;
use pnats_rpc::{Handler, Msg, RetryPolicy, RpcClient, RpcServer};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ceiling on `cluster_ms / engine_ms`. Event-driven, the ratio reads
/// 0.9–1.6 over 30 runs on the two-CPU container this was written on.
const MAX_OVER_ENGINE: f64 = 3.0;

/// Deterministic prose-ish input, independent of the seed so the smoke
/// exercises the same job shape every run.
fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "smoke", "tracker", "worker", "heartbeat", "frame", "assign", "block", "replica",
        "shuffle", "partition",
    ];
    let mut s = String::new();
    let mut x = 0x853C_49E6_748F_EA9Bu64;
    while s.len() < kib * 1024 {
        for _ in 0..9 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(WORDS[(x >> 33) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// Mean and p99 round-trip (µs) of an idle-shaped heartbeat against a
/// loopback echo server: pure framing + TCP cost, no scheduling work.
fn heartbeat_rtt_us(rounds: usize) -> (f64, f64) {
    let echo: Handler = Arc::new(|m| m);
    let server =
        RpcServer::bind("127.0.0.1:0", echo, Duration::from_millis(200)).expect("bind echo");
    let mut client =
        RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(2))
            .expect("connect echo");
    let hb = Msg::Heartbeat {
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
    };
    for _ in 0..16 {
        client.call(&hb).expect("warmup call");
    }
    let mut us: Vec<f64> = (0..rounds)
        .map(|_| {
            let t = Instant::now();
            client.call(&hb).expect("rtt call");
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    us.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    let p99 = us[(us.len() * 99 / 100).min(us.len() - 1)];
    (mean, p99)
}

fn main() -> ExitCode {
    usage_on_help("[seed]");
    pnats_cluster::pregrow_descriptor_table();
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(42);
    let wall = Instant::now();

    let cfg = ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        seed,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;
    let input = words_input(32);

    let engine = MapReduceEngine::new(cfg.engine_config());
    let t = Instant::now();
    let expected = engine.run(
        &JobSpec::WordCount.job(n_reduces),
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;
    if expected.failed {
        eprintln!("cluster_smoke: engine reference run failed");
        return ExitCode::FAILURE;
    }

    let t = Instant::now();
    let report = run_cluster(
        &cfg,
        &JobSpec::WordCount,
        n_reduces,
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    let cluster_ms = t.elapsed().as_secs_f64() * 1e3;

    if report.failed {
        eprintln!("cluster_smoke: cluster run failed");
        return ExitCode::FAILURE;
    }
    if let Err(e) = check_cluster_report(&report) {
        eprintln!("cluster_smoke: oracle violation: {e}");
        return ExitCode::FAILURE;
    }
    if report.output != expected.output {
        eprintln!("cluster_smoke: PARITY FAILURE — cluster output diverged from engine output");
        return ExitCode::FAILURE;
    }
    if cluster_ms > MAX_OVER_ENGINE * engine_ms {
        eprintln!(
            "cluster_smoke: cluster run took {cluster_ms:.1} ms, over {MAX_OVER_ENGINE}x the \
             engine's {engine_ms:.1} ms — is something napping? stages: {}",
            report.stages.to_kv()
        );
        return ExitCode::FAILURE;
    }
    // Idle workers' heartbeats are held until the verdict, so the last
    // goodbye follows it at once; half a period means a timed beat again.
    let st = &report.stages;
    let goodbye_ms = st.workers_told.zip(st.job_done).map(|(told, done)| told - done);
    let half_beat_ms = cfg.heartbeat.as_secs_f64() * 1e3 / 2.0;
    if goodbye_ms.is_none_or(|ms| ms >= half_beat_ms) {
        eprintln!(
            "cluster_smoke: workers were told shutdown {goodbye_ms:?} ms after the verdict, \
             half a heartbeat is {half_beat_ms:.1} ms — is an idle beat timed again? stages: {}",
            st.to_kv()
        );
        return ExitCode::FAILURE;
    }

    let (rtt_mean, rtt_p99) = heartbeat_rtt_us(256);
    println!("cluster_smoke stages {}", report.stages.to_kv());
    println!(
        "cluster_smoke ok seed={seed} nodes={} n_maps={} n_reduces={} \
         engine_ms={engine_ms:.1} cluster_ms={cluster_ms:.1} \
         hb_rtt_mean_us={rtt_mean:.1} hb_rtt_p99_us={rtt_p99:.1} total_s={:.2}",
        cfg.n_nodes,
        report.n_maps,
        report.n_reduces,
        wall.elapsed().as_secs_f64()
    );

    // The machine-readable trail CI diffs across commits, mirroring
    // repro_all's BENCH_harness.json.
    let stages: String = report
        .stages
        .named()
        .iter()
        .map(|(name, at)| {
            let ms = at.map_or("null".to_string(), |ms| format!("{ms:.1}"));
            format!("  \"stage_{name}_ms\": {ms},\n")
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"cluster_smoke\",\n  \"seed\": {seed},\n  \"n_nodes\": {},\n  \
         \"n_maps\": {},\n  \"n_reduces\": {},\n  \"engine_ms\": {engine_ms:.1},\n  \
         \"cluster_ms\": {cluster_ms:.1},\n{stages}  \"rounds\": {},\n  \
         \"hb_rtt_mean_us\": {rtt_mean:.1},\n  \"hb_rtt_p99_us\": {rtt_p99:.1}\n}}\n",
        cfg.n_nodes, report.n_maps, report.n_reduces, report.stages.rounds
    );
    if let Err(e) = pnats_obs::json::validate_json(&json) {
        eprintln!("cluster_smoke: malformed BENCH_cluster.json: {e}");
        return ExitCode::FAILURE;
    }
    std::fs::write("BENCH_cluster.json", &json).expect("write BENCH_cluster.json");
    println!("Heartbeat RTT written to BENCH_cluster.json");
    ExitCode::SUCCESS
}
