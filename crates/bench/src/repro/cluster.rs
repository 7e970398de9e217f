//! The cluster runtime's gates: a TCP smoke job, the OS-process tracker
//! failover ladder, and the wire-chaos soak. Each runs real loopback TCP
//! (and, for the kill rungs, real `pnats-cluster` processes), so each
//! pre-grows the descriptor table first.

use super::{Ctx, Outcome};
use crate::failover::{cluster_bin, run_kill_trial, KillTrial};
use pnats_cluster::{
    check_cluster_report, placer_by_name, pregrow_descriptor_table, run_cluster, run_cluster_chaos,
    ChaosFault, ClusterConfig, JobSpec, LinkRule,
};
use pnats_engine::MapReduceEngine;
use pnats_obs::json::{set_member, validate_json};
use pnats_rpc::{BreakerPolicy, ChaosPlan, Handler, Msg, RetryPolicy, RpcClient, RpcServer};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Deterministic prose-ish input of at least `kib` KiB: lines of
/// `per_line` words drawn from `words` by an LCG started at `x`,
/// independent of the run's seed so every run exercises the same job.
fn words_input(words: &[&str], mut x: u64, per_line: usize, kib: usize) -> String {
    let mut s = String::new();
    while s.len() < kib * 1024 {
        for _ in 0..per_line {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(words[(x >> 33) as usize % words.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// The WordCount output of a fault-free in-process engine run: the bytes
/// every cluster run of the same job and seed must reproduce.
fn engine_reference(
    cfg: &ClusterConfig,
    reduces: usize,
    input: &str,
) -> Result<Vec<(String, String)>, String> {
    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).expect("known placer");
    let expected = MapReduceEngine::new(cfg.engine_config()).run(
        &JobSpec::WordCount.job(reduces),
        input,
        placer,
    );
    if expected.failed {
        return Err("engine reference run failed".into());
    }
    Ok(expected.output)
}

/// Ceiling on `cluster_ms / engine_ms` in `cluster_smoke`. Event-driven,
/// the ratio reads 0.9–1.6 over 30 runs on the two-CPU container this was
/// written on.
const MAX_OVER_ENGINE: f64 = 3.0;

/// Mean and p99 round-trip (µs) of an idle-shaped heartbeat against a
/// loopback echo server: pure framing + TCP cost, no scheduling work.
fn heartbeat_rtt_us(rounds: usize) -> Result<(f64, f64), String> {
    let echo: Handler = Arc::new(|m| m);
    let server = RpcServer::bind("127.0.0.1:0", echo, Duration::from_millis(200))
        .map_err(|e| format!("bind echo: {e}"))?;
    let mut client =
        RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(2))
            .map_err(|e| format!("connect echo: {e}"))?;
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
        client.call(&hb).map_err(|e| format!("warmup call: {e}"))?;
    }
    let mut us = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t = Instant::now();
        client.call(&hb).map_err(|e| format!("rtt call: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    us.sort_by(f64::total_cmp);
    let mean = us.iter().sum::<f64>() / us.len() as f64;
    let p99 = us[(us.len() * 99 / 100).min(us.len() - 1)];
    Ok((mean, p99))
}

/// CI smoke for the cluster runtime: a real TCP JobTracker plus three
/// TaskTracker workers run WordCount, and the output must be
/// byte-identical to an in-process engine run of the same job on the same
/// seed. Also measures the framed heartbeat round-trip over loopback TCP —
/// the per-heartbeat overhead the cluster runtime pays versus the engine's
/// in-process calls — and writes `BENCH_cluster.json`.
///
/// It is also the regression gate on the runtime's event-driven wake-ups:
/// the cluster run may cost at most [`MAX_OVER_ENGINE`] times the engine
/// run measured beside it. Both are timed on the same host in the same
/// process, so its speed cancels out of the ratio; a fixed nap back on the
/// job's critical path does not (the 20-heartbeat shutdown grace alone put
/// the ratio past 9). And the last worker must hear `shutdown` less than
/// half a heartbeat after the verdict: a structural check that the goodbye
/// waits for no timed beat.
pub fn cluster_smoke(ctx: &Ctx, out: &mut String) -> Outcome {
    pregrow_descriptor_table();
    let seed = ctx.seed;
    let wall = Instant::now();
    let cfg = ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        seed,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;
    const WORDS: &[&str] = &[
        "smoke",
        "tracker",
        "worker",
        "heartbeat",
        "frame",
        "assign",
        "block",
        "replica",
        "shuffle",
        "partition",
    ];
    let input = words_input(WORDS, 0x853C_49E6_748F_EA9B, 9, 32);

    let t = Instant::now();
    let expected = engine_reference(&cfg, n_reduces, &input)?;
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;

    let t = Instant::now();
    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).expect("known placer");
    let report = run_cluster(&cfg, &JobSpec::WordCount, n_reduces, &input, placer);
    let cluster_ms = t.elapsed().as_secs_f64() * 1e3;

    if report.failed {
        return Err("cluster run failed".into());
    }
    check_cluster_report(&report).map_err(|e| format!("oracle violation: {e}"))?;
    if report.output != expected {
        return Err("PARITY FAILURE — cluster output diverged from engine output".into());
    }
    let st = &report.stages;
    if cluster_ms > MAX_OVER_ENGINE * engine_ms {
        return Err(format!(
            "cluster run took {cluster_ms:.1} ms, over {MAX_OVER_ENGINE}x the engine's \
             {engine_ms:.1} ms — is something napping? stages: {}",
            st.to_kv()
        )
        .into());
    }
    // Idle workers' heartbeats are held until the verdict, so the last
    // goodbye follows it at once; half a period means a timed beat again.
    let goodbye_ms = st.workers_told.zip(st.job_done).map(|(told, done)| told - done);
    let half_beat_ms = cfg.heartbeat.as_secs_f64() * 1e3 / 2.0;
    if goodbye_ms.is_none_or(|ms| ms >= half_beat_ms) {
        return Err(format!(
            "workers were told shutdown {goodbye_ms:?} ms after the verdict, half a heartbeat \
             is {half_beat_ms:.1} ms — is an idle beat timed again? stages: {}",
            st.to_kv()
        )
        .into());
    }

    let (rtt_mean, rtt_p99) = heartbeat_rtt_us(256)?;
    writeln!(out, "cluster_smoke stages {}", st.to_kv())?;
    writeln!(
        out,
        "cluster_smoke ok seed={seed} nodes={} n_maps={} n_reduces={} \
         engine_ms={engine_ms:.1} cluster_ms={cluster_ms:.1} \
         hb_rtt_mean_us={rtt_mean:.1} hb_rtt_p99_us={rtt_p99:.1} total_s={:.2}",
        cfg.n_nodes,
        report.n_maps,
        report.n_reduces,
        wall.elapsed().as_secs_f64()
    )?;

    // The machine-readable trail CI diffs across commits, mirroring
    // `repro all`'s BENCH_harness.json.
    let stages: String = st
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
        cfg.n_nodes, report.n_maps, report.n_reduces, st.rounds
    );
    validate_json(&json).map_err(|e| format!("malformed BENCH_cluster.json: {e}"))?;
    std::fs::write("BENCH_cluster.json", &json)
        .map_err(|e| format!("write BENCH_cluster.json: {e}"))?;
    writeln!(out, "Heartbeat RTT written to BENCH_cluster.json")?;
    Ok(())
}

/// Reduces of a tracker-kill trial's job.
const KILL_REDUCES: usize = 3;

/// The tracker-kill trials' cluster: four workers and 32 KiB splits, each
/// map paced to ~320 ms (a 384 KiB input makes 12) so a kill lands
/// mid-job.
fn kill_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        n_nodes: 4,
        heartbeat: Duration::from_millis(3),
        block_bytes: 32 << 10,
        cpu_us_per_kib: 10_000,
        seed,
        ..ClusterConfig::default()
    }
}

/// A kill of [`kill_config`]'s tracker `kill_ms` into the job, and of its
/// last worker too when `kill_worker`.
fn kill_trial(cfg: &ClusterConfig, label: &str, kill_ms: u64, kill_worker: bool) -> KillTrial {
    KillTrial {
        seed: cfg.seed,
        label: label.to_string(),
        kill_after: Duration::from_millis(kill_ms),
        kill_worker,
        nodes: cfg.n_nodes,
        reduces: KILL_REDUCES,
        heartbeat_ms: cfg.heartbeat.as_millis() as u64,
        block_bytes: cfg.block_bytes,
        cpu_us_per_kib: cfg.cpu_us_per_kib,
    }
}

/// Tracker-failover bench: SIGKILL a real `pnats-cluster tracker` OS
/// process mid-job at escalating offsets (first map wave, wave boundary,
/// then compound tracker+worker kills mid and late reduce), restart it on
/// the *same address* over its journal, and gate the recovered run on the
/// full oracle stack (see [`run_kill_trial`]):
///
/// * the job completes with output byte-identical to a fault-free engine
///   run of the same seed,
/// * every surviving worker process is still alive at restart time —
///   orphaned, not dead — and re-attaches instead of re-registering,
/// * the journal replays cleanly and deterministically,
/// * exactly one restart and one replay are booked.
///
/// Also measures **failover latency** — tracker kill → first
/// post-recovery assignment — and sets mean/p99 in `BENCH_cluster.json`
/// (`cluster_smoke` writes the rest of that file). `--smoke` runs two kill
/// points instead of four.
pub fn tracker_failover(ctx: &Ctx, out: &mut String) -> Outcome {
    pregrow_descriptor_table();
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    let wall = Instant::now();
    let bin = cluster_bin()?;
    const WORDS: &[&str] = &[
        "failover", "journal", "replay", "reattach", "orphan", "epoch", "ledger", "tracker",
        "recover", "assign",
    ];
    let input = words_input(WORDS, 0xA076_1D64_78BD_642F, 10, 384);
    let cfg = kill_config(seed);
    let expected = engine_reference(&cfg, KILL_REDUCES, &input)?;

    // The kill ladder: tracker-only kills in the first map wave and at
    // the wave boundary, then compound tracker+worker kills mid and late
    // reduce (the worker loss forces the recovered tracker to expire the
    // never-reattaching peer and place fresh re-executions, so the later
    // points still produce a failover-latency sample). `--smoke` keeps
    // the two most telling points.
    let points: &[(&str, u64, bool)] = if smoke {
        &[("mid-map", 200, false), ("mid-reduce+worker-loss", 450, true)]
    } else {
        &[
            ("mid-map", 200, false),
            ("wave-boundary", 350, false),
            ("mid-reduce+worker-loss", 450, true),
            ("late-reduce+worker-loss", 600, true),
        ]
    };

    let scratch = std::env::temp_dir().join(format!("pnats-failover-{}", std::process::id()));
    let mut latencies = Vec::new();
    for &(label, kill_ms, kill_worker) in points {
        let trial = kill_trial(&cfg, label, kill_ms, kill_worker);
        let result = run_kill_trial(&bin, &scratch.join(label), &trial, &input, &expected);
        match result {
            Ok(Some(ms)) => {
                writeln!(
                    out,
                    "tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms={ms:.1}"
                )?;
                latencies.push(ms);
            }
            // Every live assignment was inherited at re-attach; the
            // recovery gates all passed but there is no fresh-assignment
            // instant to measure.
            Ok(None) => writeln!(
                out,
                "tracker_failover trial={label} kill_at_ms={kill_ms} failover_ms=n/a"
            )?,
            Err(e) => {
                let _ = std::fs::remove_dir_all(&scratch);
                return Err(format!("trial {label}: {e}").into());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);

    latencies.sort_by(f64::total_cmp);
    if latencies.is_empty() {
        return Err("no trial produced a fresh post-recovery assignment; nothing to merge into \
                    BENCH_cluster.json"
            .into());
    }
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let p99 = latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)];
    let path = Path::new("BENCH_cluster.json");
    set_member(path, "failover_trials", &latencies.len().to_string())?;
    set_member(path, "failover_ms_mean", &format!("{mean:.1}"))?;
    set_member(path, "failover_ms_p99", &format!("{p99:.1}"))?;
    writeln!(
        out,
        "tracker_failover ok seed={seed} smoke={smoke} trials={} failover_ms_mean={mean:.1} \
         failover_ms_p99={p99:.1} total_s={:.2}",
        latencies.len(),
        wall.elapsed().as_secs_f64()
    )?;
    writeln!(out, "Failover latency merged into BENCH_cluster.json")?;
    Ok(())
}

/// The chaos soak's escalation ladder: label and plan. Later stages
/// subsume harsher faults; stage 0 is the control (transparent proxies).
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
                .with_rule(
                    LinkRule::on("ctl:w1", ChaosFault::ResetAfterFrames(40)).conns(0, Some(1)),
                ),
        ),
        (
            "partitioned",
            ChaosPlan::new(seed)
                .with_rule(LinkRule::on("data:w0", ChaosFault::PartitionFromUpstream)),
        ),
    ]
}

/// Chaos soak: the cluster runtime under an escalating ladder of wire
/// faults, every stage gated by the full oracle stack. Each stage runs
/// WordCount through [`run_cluster_chaos`] with a seeded [`ChaosPlan`]
/// and must (1) complete, (2) produce output byte-identical to a
/// fault-free engine run of the same seed, and (3) pass the cluster oracle
/// ([`check_cluster_report`]), completion-ledger law included. Any gate
/// failure is fatal — this is the robustness regression CI leans on.
///
/// Determinism artifact: live chaos traffic is timing-shaped (how many
/// frames a connection carries depends on scheduling), so the replayable
/// record is [`ChaosPlan::simulate`] — the plan expanded over a fixed
/// traffic envelope. The soak expands it twice, requires byte-identical
/// JSONL, and writes it to `chaos_soak_trace.jsonl` for CI to diff.
///
/// The final rung leaves the in-process harness entirely: a real
/// `pnats-cluster tracker` OS process is SIGKILLed mid-job and restarted
/// over its journal (see [`crate::failover`]), with the same fatal engine
/// byte-parity gate as every other stage.
///
/// A rung that injected nothing proves nothing, so every rung but the
/// control must leave chaos events behind (and `dirty` a retry or checksum
/// trail) or the soak fails. Per-frame faults only fire if enough frames
/// flow: the seeded draws hit a connection's first few frames rarely, and
/// a job too small to get past them — 4 maps was, at `p` = 0.03 — passes
/// its rung untouched.
///
/// `--smoke` shrinks the input so the whole ladder fits in a CI smoke
/// budget — to 8 maps, no further: the wire rungs need the frames, and the
/// partition rung needs a first map wave wider than the other two workers'
/// slots so that worker 0 holds output someone has to fetch.
pub fn chaos_soak(ctx: &Ctx, out: &mut String) -> Outcome {
    pregrow_descriptor_table();
    let (seed, smoke) = (ctx.seed, ctx.smoke);
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
    const WORDS: &[&str] = &[
        "soak",
        "ladder",
        "escalate",
        "corrupt",
        "truncate",
        "reset",
        "partition",
        "breaker",
        "degrade",
        "recover",
    ];
    let words = |kib| words_input(WORDS, 0x9E6C_63D0_7698_5FFD, 10, kib);
    let input = words(if smoke { 32 } else { 64 });
    // Fault-free engine reference: every stage must reproduce these bytes.
    let expected = engine_reference(&cfg, n_reduces, &input)?;

    // Determinism gate on the replayable artifact: the same plan expanded
    // twice over the same envelope must be byte-identical JSONL.
    let links = ["ctl:w0", "ctl:w1", "ctl:w2", "data:w0", "data:w1", "data:w2"];
    let mut artifact = String::new();
    for (name, plan) in ladder(seed) {
        let a = plan.simulate(&links, 4, 64);
        if a != plan.simulate(&links, 4, 64) {
            return Err(format!("stage {name}: simulate() is not deterministic").into());
        }
        artifact.push_str(&a);
    }
    std::fs::write("chaos_soak_trace.jsonl", &artifact)
        .map_err(|e| format!("write chaos_soak_trace.jsonl: {e}"))?;

    for (stage, (name, plan)) in ladder(seed).into_iter().enumerate() {
        let t = Instant::now();
        let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).expect("known placer");
        let (report, net) =
            run_cluster_chaos(&cfg, &JobSpec::WordCount, n_reduces, &input, placer, plan);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let fail =
            |what: String| -> Outcome { Err(format!("stage {stage} ({name}): {what}").into()) };
        if report.failed {
            return fail("job failed".into());
        }
        if let Err(e) = check_cluster_report(&report) {
            return fail(format!("report oracle: {e}"));
        }
        if report.output != expected {
            return fail("OUTPUT DIVERGED from engine".into());
        }
        let c = &report.counters;
        let events = net.events().len();
        if name != "clean" && events == 0 {
            return fail("the plan injected nothing".into());
        }
        if name == "dirty" && c.corrupt_frames + c.rpc_retries == 0 {
            return fail(format!("{events} damaged frames left no retry or checksum trail: {c:?}"));
        }
        if name == "partitioned" && (c.breaker_trips == 0 || c.reexecuted_maps == 0) {
            return fail(format!("partition left no breaker/re-execution trail: {c:?}"));
        }
        writeln!(
            out,
            "chaos_soak stage={stage} name={name} ok wall_ms={ms:.0} events={events} retries={} \
             corrupt={} trips={} closes={} alt={} reexec={}",
            c.rpc_retries,
            c.corrupt_frames,
            c.breaker_trips,
            c.breaker_closes,
            c.alt_source_fetches,
            c.reexecuted_maps,
        )?;
    }

    // Final rung: the tracker itself dies. A real OS-process tracker is
    // SIGKILLed mid-map-wave and restarted on the same address over its
    // journal; byte parity with the engine stays fatal. Its maps are paced
    // to ~320 ms each, unlike the wire stages, so the kill lands mid-job.
    let t = Instant::now();
    let kill_cfg = kill_config(seed);
    let trial = kill_trial(&kill_cfg, "tracker-kill", 200, false);
    let input = words(384);
    let dir = std::env::temp_dir().join(format!("pnats-soak-kill-{}", std::process::id()));
    let result = engine_reference(&kill_cfg, KILL_REDUCES, &input)
        .and_then(|expected| run_kill_trial(&cluster_bin()?, &dir, &trial, &input, &expected));
    let _ = std::fs::remove_dir_all(&dir);
    result.map_err(|e| format!("stage 5 (tracker-kill): {e}"))?;
    writeln!(
        out,
        "chaos_soak stage=5 name=tracker-kill ok wall_ms={:.0}",
        t.elapsed().as_secs_f64() * 1e3
    )?;

    writeln!(
        out,
        "chaos_soak ok seed={seed} smoke={smoke} stages=6 artifact=chaos_soak_trace.jsonl \
         total_s={:.2}",
        wall.elapsed().as_secs_f64()
    )?;
    Ok(())
}
