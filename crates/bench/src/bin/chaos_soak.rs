//! Chaos soak: the cluster runtime under an escalating ladder of wire
//! faults, every stage gated by the full oracle stack. Each stage runs
//! WordCount through [`run_cluster_chaos`] with a seeded [`ChaosPlan`]
//! and must (1) complete, (2) produce output byte-identical to a
//! fault-free engine run of the same seed, (3) pass the report oracle
//! ([`check_cluster_report`]), and (4) pass the simulator's
//! completion-ledger oracle ([`pnats_sim::check_cluster_run`]). Any gate
//! failure is fatal — this is the robustness regression CI leans on.
//!
//! Determinism artifact: live chaos traffic is timing-shaped (how many
//! frames a connection carries depends on scheduling), so the replayable
//! record is [`ChaosPlan::simulate`] — the plan expanded over a fixed
//! traffic envelope. The soak expands it twice, requires byte-identical
//! JSONL, and writes it to `chaos_soak_trace.jsonl` for CI to diff.
//!
//! The final rung leaves the in-process harness entirely: a real
//! `pnats-cluster tracker` OS process is SIGKILLed mid-job and restarted
//! over its journal (see [`pnats_bench::failover`]), with the same fatal
//! engine byte-parity gate as every other stage.
//!
//! A rung that injected nothing proves nothing, so every rung but the
//! control must leave chaos events behind (and `dirty` a retry or checksum
//! trail) or the soak fails. Per-frame faults only fire if enough frames
//! flow: the seeded draws hit a connection's first few frames rarely, and
//! a job too small to get past them — 4 maps was, at `p` = 0.03 — passes
//! its rung untouched.
//!
//! Usage: `chaos_soak [seed] [--smoke]`. `--smoke` shrinks the input so
//! the whole ladder fits in a CI smoke budget — to 8 maps, no further: the
//! wire rungs need the frames, and the partition rung needs a first map
//! wave wider than the other two workers' slots so that worker 0 holds
//! output someone has to fetch.

use pnats_bench::failover::{cluster_bin, run_kill_trial, KillTrial};
use pnats_bench::usage_on_help;
use pnats_cluster::{
    check_cluster_report, placer_by_name, run_cluster_chaos, ChaosFault, ClusterConfig, JobSpec,
    LinkRule,
};
use pnats_engine::MapReduceEngine;
use pnats_rpc::{BreakerPolicy, ChaosPlan, RetryPolicy};
use std::process::ExitCode;
use std::time::{Duration, Instant};

fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "soak", "ladder", "escalate", "corrupt", "truncate", "reset", "partition", "breaker",
        "degrade", "recover",
    ];
    let mut s = String::new();
    let mut x = 0x9E6C_63D0_7698_5FFDu64;
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

/// The escalation ladder: stage index, label, plan. Later stages subsume
/// harsher faults; stage 0 is the control (transparent proxies).
fn ladder(seed: u64) -> Vec<(&'static str, ChaosPlan)> {
    vec![
        ("clean", ChaosPlan::none()),
        (
            "shaped",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::Delay(Duration::from_millis(1))))
                .with_rule(LinkRule::on(
                    "data:w1",
                    ChaosFault::Throttle { chunk_bytes: 64, pause: Duration::from_micros(200) },
                )),
        ),
        (
            "dirty",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::CorruptFrames { p: 0.03 }))
                .with_rule(LinkRule::on("data:w2", ChaosFault::TruncateFrames { p: 0.02 })),
        ),
        (
            "lossy",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::DropFrames { p: 0.03 }))
                .with_rule(LinkRule::on("ctl:w1", ChaosFault::ResetAfterFrames(40)).conns(0, Some(1))),
        ),
        (
            "partitioned",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::on("data:w0", ChaosFault::PartitionFromUpstream)),
        ),
    ]
}

fn main() -> ExitCode {
    usage_on_help("[seed] [--smoke]");
    pnats_cluster::pregrow_descriptor_table();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed: u64 =
        args.iter().find(|a| !a.starts_with("--")).and_then(|s| s.parse().ok()).unwrap_or(42);
    let wall = Instant::now();

    let cfg = ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        io_timeout: Duration::from_millis(100),
        retry: RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(25),
            seed,
        },
        breaker: BreakerPolicy { threshold: 2, cooldown: 2 },
        max_wall: Duration::from_secs(60),
        seed,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;
    let input = words_input(if smoke { 32 } else { 64 });

    // Fault-free engine reference: every stage must reproduce these bytes.
    let engine = MapReduceEngine::new(cfg.engine_config());
    let expected = engine.run(
        &JobSpec::WordCount.job(n_reduces),
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    if expected.failed {
        eprintln!("chaos_soak: engine reference run failed");
        return ExitCode::FAILURE;
    }

    // Determinism gate on the replayable artifact: the same plan expanded
    // twice over the same envelope must be byte-identical JSONL.
    let links = ["ctl:w0", "ctl:w1", "ctl:w2", "data:w0", "data:w1", "data:w2"];
    let mut artifact = String::new();
    for (name, plan) in ladder(seed) {
        let a = plan.simulate(&links, 4, 64);
        let b = plan.simulate(&links, 4, 64);
        if a != b {
            eprintln!("chaos_soak: stage {name}: simulate() is not deterministic");
            return ExitCode::FAILURE;
        }
        artifact.push_str(&a);
    }
    std::fs::write("chaos_soak_trace.jsonl", &artifact).expect("write chaos_soak_trace.jsonl");

    for (stage, (name, plan)) in ladder(seed).into_iter().enumerate() {
        let t = Instant::now();
        let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
        let (report, net) =
            run_cluster_chaos(&cfg, &JobSpec::WordCount, n_reduces, &input, placer, plan);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if report.failed {
            eprintln!("chaos_soak: stage {stage} ({name}): job failed");
            return ExitCode::FAILURE;
        }
        if let Err(e) = check_cluster_report(&report) {
            eprintln!("chaos_soak: stage {stage} ({name}): report oracle: {e}");
            return ExitCode::FAILURE;
        }
        if let Err(e) = pnats_sim::check_cluster_run(
            &report.counters,
            &report.completions,
            report.n_maps,
            report.n_reduces,
            report.failed,
        ) {
            eprintln!("chaos_soak: stage {stage} ({name}): completion-ledger oracle: {e}");
            return ExitCode::FAILURE;
        }
        if report.output != expected.output {
            eprintln!("chaos_soak: stage {stage} ({name}): OUTPUT DIVERGED from engine");
            return ExitCode::FAILURE;
        }
        let c = &report.counters;
        let events = net.events().len();
        if name != "clean" && events == 0 {
            eprintln!("chaos_soak: stage {stage} ({name}): the plan injected nothing");
            return ExitCode::FAILURE;
        }
        if name == "dirty" && c.corrupt_frames + c.rpc_retries == 0 {
            eprintln!(
                "chaos_soak: stage {stage} ({name}): {events} damaged frames left no retry or \
                 checksum trail: {c:?}"
            );
            return ExitCode::FAILURE;
        }
        if name == "partitioned" && (c.breaker_trips == 0 || c.reexecuted_maps == 0) {
            eprintln!(
                "chaos_soak: stage {stage} ({name}): partition left no breaker/re-execution \
                 trail: {c:?}"
            );
            return ExitCode::FAILURE;
        }
        println!(
            "chaos_soak stage={stage} name={name} ok wall_ms={ms:.0} events={events} retries={} \
             corrupt={} trips={} closes={} alt={} reexec={}",
            c.rpc_retries,
            c.corrupt_frames,
            c.breaker_trips,
            c.breaker_closes,
            c.alt_source_fetches,
            c.reexecuted_maps,
        );
    }

    // Final rung: the tracker itself dies. A real OS-process tracker is
    // SIGKILLed mid-job and restarted on the same address over its
    // journal; byte parity with the engine stays fatal.
    let t = Instant::now();
    match tracker_kill_stage(seed) {
        Ok(()) => println!(
            "chaos_soak stage=5 name=tracker-kill ok wall_ms={:.0}",
            t.elapsed().as_secs_f64() * 1e3
        ),
        Err(e) => {
            eprintln!("chaos_soak: stage 5 (tracker-kill): {e}");
            return ExitCode::FAILURE;
        }
    }

    println!(
        "chaos_soak ok seed={seed} smoke={smoke} stages=6 artifact=chaos_soak_trace.jsonl \
         total_s={:.2}",
        wall.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

/// SIGKILL a journaled OS-process tracker mid-map-wave and gate recovery
/// on the engine reference. Pacing knobs differ from the wire stages —
/// the kill must land mid-job, so maps are slowed to ~320ms each.
fn tracker_kill_stage(seed: u64) -> Result<(), String> {
    let bin = cluster_bin()?;
    let trial = KillTrial {
        seed,
        label: "tracker-kill".to_string(),
        kill_after: Duration::from_millis(200),
        kill_worker: false,
        nodes: 4,
        reduces: 3,
        heartbeat_ms: 3,
        block_bytes: 32 << 10,
        cpu_us_per_kib: 10_000,
    };
    let cfg = ClusterConfig {
        n_nodes: trial.nodes,
        heartbeat: Duration::from_millis(trial.heartbeat_ms),
        block_bytes: trial.block_bytes,
        cpu_us_per_kib: trial.cpu_us_per_kib,
        seed,
        ..ClusterConfig::default()
    };
    let input = words_input(384); // 12 maps of 32 KiB
    let expected = MapReduceEngine::new(cfg.engine_config()).run(
        &JobSpec::WordCount.job(trial.reduces),
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    if expected.failed {
        return Err("engine reference run failed".into());
    }
    let dir = std::env::temp_dir().join(format!("pnats-soak-kill-{}", std::process::id()));
    let result = run_kill_trial(&bin, &dir, &trial, &input, &expected.output);
    let _ = std::fs::remove_dir_all(&dir);
    result.map(|_| ())
}
