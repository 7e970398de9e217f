//! Tracker-failover bench: SIGKILL a real `pnats-cluster tracker` OS
//! process mid-job at escalating offsets (first map wave, wave boundary,
//! then compound tracker+worker kills mid and late reduce), restart it on
//! the *same address* over its journal, and gate the recovered run on the
//! full oracle stack (see [`pnats_bench::failover::run_kill_trial`]):
//!
//! * the job completes with output byte-identical to a fault-free engine
//!   run of the same seed,
//! * every surviving worker process is still alive at restart time —
//!   orphaned, not dead — and re-attaches instead of re-registering,
//! * the journal replays cleanly and deterministically,
//! * exactly one restart and one replay are booked.
//!
//! Also measures **failover latency** — tracker kill → first
//! post-recovery assignment — and merges mean/p99 into
//! `BENCH_cluster.json` (run `cluster_smoke` first to seed the file).
//!
//! Usage: `tracker_failover [seed] [--smoke]`. `--smoke` runs two kill
//! points instead of four.

use pnats_bench::failover::{cluster_bin, run_kill_trial, KillTrial};
use pnats_bench::usage_on_help;
use pnats_cluster::{placer_by_name, ClusterConfig, JobSpec};
use pnats_engine::MapReduceEngine;
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "failover", "journal", "replay", "reattach", "orphan", "epoch", "ledger", "tracker",
        "recover", "assign",
    ];
    let mut s = String::new();
    let mut x = 0xA076_1D64_78BD_642Fu64;
    while s.len() < kib * 1024 {
        for _ in 0..10 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(WORDS[(x >> 33) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

const NODES: usize = 4;
const REDUCES: usize = 3;
const HEARTBEAT_MS: u64 = 3;
const BLOCK_BYTES: usize = 32 << 10;
const CPU_US_PER_KIB: u64 = 10_000;
const INPUT_KIB: usize = 384; // 12 maps of 32 KiB, ~320ms of pacing each

fn trial(seed: u64, label: &str, kill_ms: u64, kill_worker: bool) -> KillTrial {
    KillTrial {
        seed,
        label: label.to_string(),
        kill_after: Duration::from_millis(kill_ms),
        kill_worker,
        nodes: NODES,
        reduces: REDUCES,
        heartbeat_ms: HEARTBEAT_MS,
        block_bytes: BLOCK_BYTES,
        cpu_us_per_kib: CPU_US_PER_KIB,
    }
}

/// Merge `failover_ms_mean`/`failover_ms_p99` into `BENCH_cluster.json`
/// (written by `cluster_smoke`), creating a minimal file if absent.
fn merge_bench_json(mean: f64, p99: f64, trials: usize) -> Result<(), String> {
    let path = "BENCH_cluster.json";
    let fields = format!(
        "  \"failover_trials\": {trials},\n  \"failover_ms_mean\": {mean:.1},\n  \
         \"failover_ms_p99\": {p99:.1}\n}}\n"
    );
    let json = match std::fs::read_to_string(path) {
        Ok(existing) => {
            let trimmed = existing.trim_end();
            let body: String = trimmed
                .strip_suffix('}')
                .ok_or("BENCH_cluster.json does not end in '}'")?
                .lines()
                .filter(|l| !l.contains("\"failover_")) // idempotent re-merge
                .collect::<Vec<_>>()
                .join("\n");
            let body = body.trim_end().trim_end_matches(',');
            format!("{body},\n{fields}")
        }
        Err(_) => format!("{{\n  \"bench\": \"tracker_failover\",\n{fields}"),
    };
    pnats_obs::json::validate_json(&json).map_err(|e| format!("malformed merged json: {e}"))?;
    std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    Ok(())
}

fn main() -> ExitCode {
    usage_on_help("[seed] [--smoke]");
    pnats_cluster::pregrow_descriptor_table();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 =
        args.iter().find(|a| !a.starts_with("--")).and_then(|s| s.parse().ok()).unwrap_or(42);
    let wall = Instant::now();

    let bin = match cluster_bin() {
        Ok(b) => b,
        Err(e) => {
            eprintln!("tracker_failover: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Fault-free engine reference for the byte-parity gate.
    let cfg = ClusterConfig {
        n_nodes: NODES,
        heartbeat: Duration::from_millis(HEARTBEAT_MS),
        block_bytes: BLOCK_BYTES,
        cpu_us_per_kib: CPU_US_PER_KIB,
        seed,
        ..ClusterConfig::default()
    };
    let input = words_input(INPUT_KIB);
    let expected = MapReduceEngine::new(cfg.engine_config()).run(
        &JobSpec::WordCount.job(REDUCES),
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    if expected.failed {
        eprintln!("tracker_failover: engine reference run failed");
        return ExitCode::FAILURE;
    }

    // The kill ladder: tracker-only kills in the first map wave and at
    // the wave boundary, then compound tracker+worker kills mid and late
    // reduce (the worker loss forces the recovered tracker to expire the
    // never-reattaching peer and place fresh re-executions, so the later
    // points still produce a failover-latency sample). `--smoke` keeps
    // the two most telling points.
    let full: &[(&str, u64, bool)] = &[
        ("mid-map", 200, false),
        ("wave-boundary", 350, false),
        ("mid-reduce+worker-loss", 450, true),
        ("late-reduce+worker-loss", 600, true),
    ];
    let points: &[(&str, u64, bool)] = if smoke {
        &[("mid-map", 200, false), ("mid-reduce+worker-loss", 450, true)]
    } else {
        full
    };

    let scratch = std::env::temp_dir().join(format!("pnats-failover-{}", std::process::id()));
    let mut latencies = Vec::new();
    for (label, kill_ms, kill_worker) in points {
        let dir = scratch.join(label);
        let t = trial(seed, label, *kill_ms, *kill_worker);
        match run_kill_trial(&bin, &dir, &t, &input, &expected.output) {
            Ok(Some(ms)) => {
                println!("tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms={ms:.1}");
                latencies.push(ms);
            }
            Ok(None) => {
                // Every live assignment was inherited at re-attach; the
                // recovery gates all passed but there is no fresh-assignment
                // instant to measure.
                println!("tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms=n/a");
            }
            Err(e) => {
                eprintln!("tracker_failover: trial {label}: {e}");
                let _ = std::fs::remove_dir_all(&scratch);
                return ExitCode::FAILURE;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if latencies.is_empty() {
        eprintln!(
            "tracker_failover: no trial produced a fresh post-recovery assignment; \
             nothing to merge into BENCH_cluster.json"
        );
        return ExitCode::FAILURE;
    }
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    if let Err(e) = merge_bench_json(mean, p99, latencies.len()) {
        eprintln!("tracker_failover: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "tracker_failover ok seed={seed} smoke={smoke} trials={} failover_ms_mean={mean:.1} \
         failover_ms_p99={p99:.1} total_s={:.2}",
        latencies.len(),
        wall.elapsed().as_secs_f64()
    );
    println!("Failover latency merged into BENCH_cluster.json");
    ExitCode::SUCCESS
}
