//! Thread budget of a cluster job. Every runtime thread — accept loops,
//! connections, map and reduce tasks, in-process workers, the tracker's
//! clock — starts from the process-wide pool (`pnats_rpc::pool`), which
//! reuses idle threads across jobs. Spawning each afresh, a job of the
//! benchmark's `cluster_jobs` shape started ~34 OS threads; through a warm
//! pool it starts ~2, as retired threads are replaced.
//!
//! This binary holds one test, so no other test shares the pool's
//! process-wide counters.

use pnats_cluster::{
    check_cluster_report, placer_by_name, pregrow_descriptor_table, run_cluster, ClusterConfig,
    FsyncPolicy, JobSpec,
};
use pnats_rpc::pool;
use std::time::Duration;

const WARMUP_JOBS: usize = 3;
const JOBS: u64 = 20;
/// OS threads the pool may start over `JOBS` warm jobs: 4 a job.
const BUDGET: u64 = 80;

/// `cluster_jobs`' shape: tracker + 3 workers, 4 ms heartbeat, 4 KiB
/// splits of 32 KiB of text (8 maps), 3 reduces, journal on without fsync.
fn cfg(journal: std::path::PathBuf) -> ClusterConfig {
    ClusterConfig {
        n_nodes: 3,
        map_slots: 2,
        reduce_slots: 1,
        block_bytes: 4 << 10,
        replication: 2,
        heartbeat: Duration::from_millis(4),
        cpu_us_per_kib: 30,
        slowstart: 0.25,
        seed: 42,
        expire_after: 8,
        io_timeout: Duration::from_secs(2),
        max_wall: Duration::from_secs(30),
        journal: Some(journal),
        journal_fsync: FsyncPolicy::Never,
        reattach_grace: 40,
        orphan_grace: Duration::from_secs(8),
        ..ClusterConfig::default()
    }
}

/// 32 KiB of seeded words, twelve to a line.
fn input() -> String {
    let mut text = String::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut on_line = 0;
    while text.len() < 32 << 10 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        text.push_str(&format!("w{}", (x >> 33) % 1000));
        on_line += 1;
        text.push(if on_line % 12 == 0 { '\n' } else { ' ' });
    }
    text
}

#[test]
fn warm_cluster_jobs_start_few_threads() {
    pregrow_descriptor_table();
    let journal =
        std::env::temp_dir().join(format!("pnats-thread-budget-{}.journal", std::process::id()));
    let cfg = cfg(journal.clone());
    let input = input();
    let job = || {
        // A fresh job needs a fresh journal: the tracker recovers from a
        // non-empty one.
        let _ = std::fs::remove_file(&journal);
        let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).expect("paper placer");
        let report = run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer);
        assert!(!report.failed, "the job finished");
        check_cluster_report(&report).expect("oracle clean");
    };
    for _ in 0..WARMUP_JOBS {
        job();
    }
    let before = pool::stats();
    for _ in 0..JOBS {
        job();
    }
    let after = pool::stats();
    let _ = std::fs::remove_file(&journal);
    let (threads, jobs) =
        (after.threads_started - before.threads_started, after.jobs_run - before.jobs_run);
    let per_job = |n: u64| n as f64 / JOBS as f64;
    eprintln!(
        "{JOBS} cluster jobs: {threads} OS threads started ({:.1}/job, budget {BUDGET}), \
         {jobs} pool jobs ({:.1}/job)",
        per_job(threads),
        per_job(jobs),
    );
    assert!(jobs >= 20 * JOBS, "every runtime thread is a pool job: {jobs} over {JOBS} jobs");
    assert!(threads <= BUDGET, "{threads} OS threads started over {JOBS} jobs (budget {BUDGET})");
}
