//! OS-process cluster test: a tracker process, four worker processes,
//! one worker SIGKILLed mid-job. The tracker must expire the dead peer,
//! invalidate and re-execute its map outputs, and finish with output
//! byte-identical to an in-process engine run — the acceptance gate for
//! the runtime's liveness machinery.

use pnats_cluster::{placer_by_name, ClusterConfig, JobSpec, ReportSummary};
use pnats_engine::MapReduceEngine;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "node", "rack", "block", "task", "slot", "probe", "place", "spill", "merge", "fetch",
    ];
    let mut s = String::new();
    let mut x = 0xD1B5_4A32_D192_ED03u64;
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

/// Kill every child on drop so a failing assert never leaks processes.
struct Reaper(Vec<Child>);
impl Drop for Reaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

#[test]
fn sigkilled_worker_is_survived() {
    pnats_cluster::pregrow_descriptor_table();
    let dir = std::env::temp_dir().join(format!("pnats-kill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let input_path = dir.join("input.txt");
    let report_path = dir.join("report.txt");

    // Sized so the job takes long enough (~paced maps over 2 waves) for
    // the kill + expiry to land mid-flight.
    let input = words_input(256);
    std::fs::write(&input_path, &input).expect("write input");

    let cfg = ClusterConfig {
        n_nodes: 4,
        block_bytes: 16 << 10,
        heartbeat: Duration::from_millis(5),
        expire_after: 6,
        cpu_us_per_kib: 12_000,
        ..ClusterConfig::default()
    };
    let n_reduces = 3;

    // Reference: in-process engine, same seed, no faults.
    let engine = MapReduceEngine::new(cfg.engine_config());
    let expected = engine.run(
        &JobSpec::WordCount.job(n_reduces),
        &input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    assert!(!expected.failed);

    let bin = env!("CARGO_BIN_EXE_pnats-cluster");
    let mut tracker = Command::new(bin)
        .args([
            "tracker",
            "--listen", "127.0.0.1:0",
            "--job", "wordcount",
            "--input", input_path.to_str().unwrap(),
            "--nodes", "4",
            "--reduces", "3",
            "--block-bytes", "16384",
            "--heartbeat-ms", "5",
            "--expire-after", "6",
            "--cpu-us-per-kib", "12000",
            "--max-wall-s", "60",
            "--report", report_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn tracker");

    // The tracker prints its ephemeral address on the first stdout line.
    let addr = {
        let out = tracker.stdout.take().expect("tracker stdout");
        let mut line = String::new();
        BufReader::new(out).read_line(&mut line).expect("read addr line");
        line.trim().rsplit(' ').next().expect("addr token").to_string()
    };

    let mut reaper = Reaper(vec![tracker]);
    for node in 0..4u32 {
        let worker = Command::new(bin)
            .args([
                "worker",
                "--node", &node.to_string(),
                "--tracker", &addr,
                "--heartbeat-ms", "5",
            ])
            .spawn()
            .expect("spawn worker");
        reaper.0.push(worker);
    }

    // Let the job get rolling, then SIGKILL worker 1 (reaper index 2).
    std::thread::sleep(Duration::from_millis(150));
    reaper.0[2].kill().expect("SIGKILL worker");
    let _ = reaper.0[2].wait();

    // Wait for the tracker to finish and write its report.
    let deadline = Instant::now() + Duration::from_secs(90);
    let status = loop {
        if let Some(st) = reaper.0[0].try_wait().expect("tracker poll") {
            break st;
        }
        assert!(Instant::now() < deadline, "tracker did not finish in time");
        std::thread::sleep(Duration::from_millis(50));
    };
    assert!(status.success(), "tracker exited with failure: {status:?}");

    let text = std::fs::read_to_string(&report_path).expect("read report");
    let summary = ReportSummary::parse(&text).expect("parse report");
    assert!(!summary.failed, "job must complete despite the kill");
    assert_eq!(
        summary.output, expected.output,
        "post-kill output diverged from the engine reference"
    );
    assert!(summary.counters.consistent(), "offer conservation");
    assert!(
        summary.counters.peers_expired >= 1,
        "the SIGKILLed worker was never expired (counters: {})",
        summary.counters.to_kv()
    );
    assert!(summary.counters.node_crashes >= 1);
    // Assignment conservation with re-execution accounted.
    assert_eq!(
        summary.counters.assigns,
        (summary.n_maps + summary.n_reduces) as u64
            + summary.counters.retries
            + summary.counters.reexecuted_maps,
        "assignment conservation after kill (counters: {})",
        summary.counters.to_kv()
    );

    drop(reaper); // reap remaining workers (they exit as the tracker stops)
    let _ = std::fs::remove_dir_all(&dir);
}
