//! Fault-plan driven cluster tests: heartbeat-loss windows long enough to
//! expire a worker, scripted crash/recovery windows, and seeded transient
//! map failures — all must end in a correct (engine-identical) output
//! with oracle-consistent counters, and a completion ledger that keeps
//! the exactly-once-per-epoch law.

use pnats_cluster::{
    check_cluster_report, placer_by_name, run_cluster, ClusterConfig, ClusterReport, JobSpec,
};
use pnats_core::faults::{FaultPlan, HeartbeatLoss, NodeCrash};
use pnats_engine::MapReduceEngine;
use std::time::Duration;

/// The cluster oracle: the report-level accounting identities plus the
/// ledger law over the tracker's accepted completions.
fn assert_oracles(report: &ClusterReport) {
    check_cluster_report(report).expect("report oracle");
}

fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf", "hotel", "india",
        "juliett", "kilo", "lima",
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

/// Engine output for the same job/seed — the correctness reference. The
/// engine run uses *no* faults: recovery must not change the output.
fn reference_output(cfg: &ClusterConfig, spec: &JobSpec, n_reduces: usize, input: &str) -> Vec<(String, String)> {
    let mut ecfg = cfg.engine_config();
    ecfg.faults = FaultPlan::none();
    let engine = MapReduceEngine::new(ecfg);
    let report = engine.run(
        &spec.job(n_reduces),
        input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    assert!(!report.failed);
    report.output
}

/// Satellite: a heartbeat-loss window longer than `expire_after` rounds
/// must expire the worker (peers_expired + node_crashes), invalidate its
/// finished maps, and still let the worker re-register once the window
/// passes — the job completes with the exact no-fault output.
#[test]
fn heartbeat_loss_window_expires_and_recovers() {
    pnats_cluster::pregrow_descriptor_table();
    let mut cfg = ClusterConfig {
        heartbeat: Duration::from_millis(4),
        expire_after: 5,
        // Slow the maps down so the loss window reliably lands mid-job:
        // 16 KiB blocks cross the 8 KiB pacing boundary twice, so each map
        // sleeps ~32 ms regardless of build profile.
        cpu_us_per_kib: 2_000,
        block_bytes: 16 << 10,
        ..ClusterConfig::default()
    };
    cfg.faults.heartbeat_losses = vec![HeartbeatLoss { node: 1, from: 4.0, until: 60.0 }];
    let input = words_input(128);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer);

    assert!(!report.failed, "job must survive the loss window");
    assert_oracles(&report);
    assert_eq!(report.output, expected, "recovery changed the output");
    assert!(report.counters.lost_heartbeats >= 1, "window produced no lost heartbeats");
    assert!(report.counters.peers_expired >= 1, "silent worker was never expired");
    assert!(
        report.counters.node_crashes >= report.counters.peers_expired,
        "every expiry is recorded as a crash"
    );
}

/// A scripted crash window (dead for rounds 6..40) kills the worker's
/// outputs; its re-registration after recovery must not corrupt the job.
#[test]
fn scripted_crash_window_reexecutes_lost_maps() {
    pnats_cluster::pregrow_descriptor_table();
    let mut cfg = ClusterConfig {
        heartbeat: Duration::from_millis(4),
        // Paced maps (~32 ms each, see above) keep the job alive well past
        // the scripted crash round in both debug and release builds.
        cpu_us_per_kib: 2_000,
        block_bytes: 16 << 10,
        ..ClusterConfig::default()
    };
    cfg.faults.crashes = vec![NodeCrash { node: 2, at: 6.0, recover_at: Some(40.0) }];
    let input = words_input(128);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer);

    assert!(!report.failed, "job must survive one crashed worker");
    assert_oracles(&report);
    assert_eq!(report.output, expected, "crash recovery changed the output");
    assert_eq!(report.counters.node_crashes, 1, "exactly the scripted crash");
    assert_eq!(report.counters.peers_expired, 0, "scripted crash, not expiry");
}

/// Safe-mode: with `safe_mode_below` above any reachable fraction the
/// tracker is permanently degraded, so the same heartbeat-loss window
/// that normally expires a worker must instead be waited out — no expiry,
/// no invalidation, one `degraded_mode` record, identical output.
#[test]
fn safe_mode_holds_expiry_during_mass_silence() {
    pnats_cluster::pregrow_descriptor_table();
    let mut cfg = ClusterConfig {
        heartbeat: Duration::from_millis(4),
        expire_after: 5,
        cpu_us_per_kib: 2_000,
        block_bytes: 16 << 10,
        safe_mode_below: 2.0, // unreachable threshold: always in safe-mode
        ..ClusterConfig::default()
    };
    cfg.faults.heartbeat_losses = vec![HeartbeatLoss { node: 1, from: 4.0, until: 60.0 }];
    let input = words_input(128);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer);

    assert!(!report.failed, "job must survive the loss window");
    assert_oracles(&report);
    assert_eq!(report.output, expected, "safe-mode changed the output");
    assert!(report.counters.lost_heartbeats >= 1, "window produced no lost heartbeats");
    assert_eq!(report.counters.peers_expired, 0, "safe-mode must hold all expiry");
    assert!(report.counters.degraded_entries >= 1, "degraded entry never recorded");
}

/// Seeded transient failures: the doomed-attempt verdicts are the same
/// per-(map, attempt) draw the engine and simulator use, so the retry
/// count is exactly reproducible and the output is unchanged.
#[test]
fn transient_failures_retry_to_the_same_output() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = ClusterConfig {
        heartbeat: Duration::from_millis(3),
        faults: FaultPlan { transient_map_failure_p: 0.35, ..FaultPlan::none() },
        ..ClusterConfig::default()
    };
    let input = words_input(12);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer);

    assert!(!report.failed);
    assert_oracles(&report);
    assert_eq!(report.output, expected);
    // Reproduce the exact retry count from the seeded draw: attempt k of
    // map m fails iff map_attempt_fails(seed, m, k), k counted from 1.
    let expected_retries: u64 = (0..report.n_maps)
        .map(|m| (1..).take_while(|&k| cfg.faults.map_attempt_fails(cfg.seed, m, k)).count() as u64)
        .sum();
    assert_eq!(
        report.counters.retries, expected_retries,
        "seeded doomed-attempt draw must be exactly reproduced"
    );
}
