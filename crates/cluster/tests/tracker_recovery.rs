//! The crash-recovery gate: a tracker killed mid-job (server torn down
//! with no goodbyes, exactly what SIGKILL leaves behind) and restarted
//! over its journal must finish the job with output byte-identical to the
//! engine, zero duplicate completions per crash epoch, and every worker
//! surviving the outage as an orphan rather than exiting.

use pnats_cluster::{
    check_cluster_report, check_journal_recovery, placer_by_name, read_journal, run_worker,
    ClusterConfig, JobSpec, JobTracker, JournalState,
};
use pnats_engine::MapReduceEngine;
use pnats_obs::DecisionObserver;
use std::path::PathBuf;
use std::time::Duration;

/// Deterministic prose-ish input, same generator as the parity gate.
fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "map", "reduce", "shuffle", "block", "replica", "rack", "probabilistic", "placement",
        "locality", "heartbeat", "tracker", "slot", "skew", "partition", "network",
    ];
    let mut s = String::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    while s.len() < kib * 1024 {
        for _ in 0..8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(WORDS[(x >> 33) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

fn scratch_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("pnats-recovery-{}-{tag}.journal", std::process::id()))
}

fn cfg(journal: PathBuf) -> ClusterConfig {
    ClusterConfig {
        heartbeat: Duration::from_millis(3),
        // Map pacing sleeps fire per 8 KiB consumed, so blocks must span
        // several pacing points for cpu cost to bite: 32 KiB blocks at
        // 10ms/KiB ≈ 320ms per map, slow enough that a fixed-offset
        // crash reliably lands mid-job instead of after the finish line.
        block_bytes: 32 << 10,
        cpu_us_per_kib: 10_000,
        journal: Some(journal),
        // Orphans must comfortably outlast the crash→restart gap.
        orphan_grace: Duration::from_secs(20),
        max_wall: Duration::from_secs(60),
        ..ClusterConfig::default()
    }
}

fn spawn_workers(cfg: &ClusterConfig, addr: &str) -> Vec<std::thread::JoinHandle<()>> {
    (0..cfg.n_nodes)
        .map(|i| {
            let wc = cfg.worker(i as u32, addr);
            std::thread::spawn(move || {
                let _ = run_worker(wc);
            })
        })
        .collect()
}

/// Start a job, hard-crash the tracker after `crash_after`, restart it on
/// the *same address* over the same journal, and check every recovery law.
fn crash_and_recover(tag: &str, crash_after: Duration) {
    let journal = scratch_journal(tag);
    let _ = std::fs::remove_file(&journal);
    let cfg = cfg(journal.clone());
    let spec = JobSpec::WordCount;
    let n_reduces = 3;
    let input = words_input(384); // 12 maps of 32 KiB

    let engine_report =
        MapReduceEngine::new(cfg.engine_config()).run(&spec.job(n_reduces), &input, {
            placer_by_name("paper", cfg.engine_config().heartbeat.as_secs_f64()).unwrap()
        });
    assert!(!engine_report.failed, "engine reference run failed");

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let tracker = JobTracker::start(
        "127.0.0.1:0",
        cfg.clone(),
        spec.clone(),
        n_reduces,
        &input,
        placer,
        DecisionObserver::disabled(),
    )
    .expect("bind first incarnation");
    let addr = tracker.addr().to_string();
    let workers = spawn_workers(&cfg, &addr);

    std::thread::sleep(crash_after);
    tracker.crash(); // listener gone, zero goodbye replies — SIGKILL's shape

    // Restart on the SAME port: workers re-dial the address they know.
    let mut restarted = None;
    for _ in 0..50 {
        match JobTracker::start(
            &addr,
            cfg.clone(),
            spec.clone(),
            n_reduces,
            &input,
            placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
            DecisionObserver::disabled(),
        ) {
            Ok(t) => {
                restarted = Some(t);
                break;
            }
            Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("restart on {addr}: {e}"),
        }
    }
    let tracker = restarted.expect("rebind the tracker address");
    let report = tracker.wait();
    for w in workers {
        let _ = w.join();
    }

    let c = &report.counters;
    assert!(!report.failed, "recovered job failed (crash_after={crash_after:?})");
    assert_eq!(c.tracker_restarts, 1, "exactly one restart");
    assert_eq!(c.journal_replays, 1, "exactly one replay");
    assert!(
        c.worker_reattaches > 0,
        "workers must re-attach, not re-register: {c:?}"
    );
    // The tentpole acceptance line: byte-identical output after a kill.
    assert_eq!(
        report.output, engine_report.output,
        "recovered output diverged from engine output"
    );
    // Includes exactly-once per crash epoch over the whole job's ledger.
    check_cluster_report(&report).expect("cluster oracle");

    // The journal itself must replay to a fully-resolved final state.
    let records = read_journal(&journal).expect("read journal");
    check_journal_recovery(&records).expect("journal recovery law");

    let _ = std::fs::remove_file(&journal);
}

#[test]
fn tracker_killed_mid_map_recovers_to_engine_parity() {
    pnats_cluster::pregrow_descriptor_table();
    // First map wave (~320ms/map) is still running: the journal holds
    // assignments but few or no completions.
    crash_and_recover("mid-map", Duration::from_millis(200));
}

#[test]
fn tracker_killed_mid_reduce_recovers_to_engine_parity() {
    pnats_cluster::pregrow_descriptor_table();
    // Slowstart has launched the reduces while the second map wave runs:
    // the outage orphans running reduces mid-shuffle.
    crash_and_recover("mid-reduce", Duration::from_millis(450));
}

/// Replaying the same journal twice must fold to byte-identical state —
/// recovery is a pure function of the record sequence.
#[test]
fn journal_replay_is_deterministic() {
    pnats_cluster::pregrow_descriptor_table();
    let journal = scratch_journal("determinism");
    let _ = std::fs::remove_file(&journal);
    let cfg = cfg(journal.clone());
    let spec = JobSpec::WordCount;
    let input = words_input(16);

    let tracker = JobTracker::start(
        "127.0.0.1:0",
        cfg.clone(),
        spec,
        2,
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
        DecisionObserver::disabled(),
    )
    .expect("bind tracker");
    let addr = tracker.addr().to_string();
    let workers = spawn_workers(&cfg, &addr);
    let report = tracker.wait();
    for w in workers {
        let _ = w.join();
    }
    assert!(!report.failed);

    let records = read_journal(&journal).expect("read journal");
    let a = JournalState::from_records(&records).expect("first replay");
    let b = JournalState::from_records(&records).expect("second replay");
    assert_eq!(a.dump(), b.dump(), "replay must be deterministic");
    assert!(a.dump().contains("finished=Some(false)"), "journal records the finish");
    check_journal_recovery(&records).expect("journal recovery law");

    let _ = std::fs::remove_file(&journal);
}
