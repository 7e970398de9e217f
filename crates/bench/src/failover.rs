//! Shared OS-process tracker-kill harness: spawn a real `pnats-cluster`
//! tracker (journaled) plus a worker fleet, SIGKILL the tracker mid-job
//! (optionally one worker with it), restart it on the same address over
//! the same journal, and gate the recovered run on every recovery law.
//! Used by the `tracker_failover` bench and the `chaos_soak` ladder's
//! tracker-kill stage.

use pnats_cluster::{check_journal_recovery, read_journal, JournalState, ReportSummary};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kill every child on drop so a failing trial never leaks processes.
pub struct Reaper(pub Vec<Child>);
impl Drop for Reaper {
    fn drop(&mut self) {
        for c in &mut self.0 {
            let _ = c.kill();
            let _ = c.wait();
        }
    }
}

/// The `pnats-cluster` binary lives next to the bench binaries in the
/// target dir.
pub fn cluster_bin() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = me.parent().ok_or("bench binary has no parent dir")?;
    let bin = dir.join("pnats-cluster");
    if bin.exists() {
        Ok(bin)
    } else {
        Err(format!("{} not built (build the pnats-cluster package first)", bin.display()))
    }
}

/// Everything one tracker-kill trial needs. Pacing fields must make the
/// job outlast `kill_after` — map pacing sleeps fire per 8 KiB consumed,
/// so `block_bytes` should span several pacing points.
pub struct KillTrial {
    /// Job seed (must match the engine reference the caller ran).
    pub seed: u64,
    /// Trial label for error messages.
    pub label: String,
    /// Tracker SIGKILL offset from job start.
    pub kill_after: Duration,
    /// Also SIGKILL the last worker with the tracker: the recovered
    /// incarnation must expire the never-reattaching peer after the
    /// reattach grace and re-execute its work.
    pub kill_worker: bool,
    /// Worker count.
    pub nodes: usize,
    /// Reduce count.
    pub reduces: usize,
    /// Heartbeat period in ms.
    pub heartbeat_ms: u64,
    /// Input split size.
    pub block_bytes: usize,
    /// Map pacing cost.
    pub cpu_us_per_kib: u64,
}

fn spawn_tracker(
    bin: &Path,
    listen: &str,
    t: &KillTrial,
    input: &Path,
    journal: &Path,
    report: &Path,
) -> std::io::Result<Child> {
    Command::new(bin)
        .args([
            "tracker",
            "--listen", listen,
            "--job", "wordcount",
            "--input", input.to_str().unwrap(),
            "--nodes", &t.nodes.to_string(),
            "--reduces", &t.reduces.to_string(),
            "--block-bytes", &t.block_bytes.to_string(),
            "--heartbeat-ms", &t.heartbeat_ms.to_string(),
            "--cpu-us-per-kib", &t.cpu_us_per_kib.to_string(),
            "--seed", &t.seed.to_string(),
            "--max-wall-s", "60",
            "--journal", journal.to_str().unwrap(),
            "--report", report.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
}

/// Read the `tracker listening on ADDR` line; `None` means the process
/// died before announcing (e.g. the old port still draining on a rebind).
fn scrape_addr(tracker: &mut Child) -> Option<String> {
    let out = tracker.stdout.take()?;
    let mut line = String::new();
    if BufReader::new(out).read_line(&mut line).ok()? == 0 {
        return None;
    }
    Some(line.trim().rsplit(' ').next()?.to_string())
}

/// Run one kill-and-recover trial under `dir` (created; caller cleans up).
/// `input` is written to disk here; `expected` is the engine reference
/// output the recovered job must reproduce byte-for-byte. Returns the
/// measured kill→first-post-recovery-assignment latency, or `None` when
/// the recovered incarnation inherited every live assignment and never
/// had to place fresh work.
pub fn run_kill_trial(
    bin: &Path,
    dir: &Path,
    trial: &KillTrial,
    input: &str,
    expected: &[(String, String)],
) -> Result<Option<f64>, String> {
    let label = &trial.label;
    let input_path = dir.join("input.txt");
    let journal = dir.join("job.journal");
    let report_path = dir.join("report.txt");
    std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
    std::fs::write(&input_path, input).map_err(|e| format!("write input: {e}"))?;
    let _ = std::fs::remove_file(&journal);

    let mut tracker = spawn_tracker(bin, "127.0.0.1:0", trial, &input_path, &journal, &report_path)
        .map_err(|e| format!("spawn tracker: {e}"))?;
    let addr = match scrape_addr(&mut tracker) {
        Some(a) => a,
        None => return Err("first tracker died before announcing its address".into()),
    };
    let mut reaper = Reaper(vec![tracker]);
    for node in 0..trial.nodes as u32 {
        let w = Command::new(bin)
            .args([
                "worker",
                "--node", &node.to_string(),
                "--tracker", &addr,
                "--heartbeat-ms", &trial.heartbeat_ms.to_string(),
                // Orphans must outlast the harness's kill→restart gap by a
                // wide margin.
                "--orphan-grace-ms", "30000",
            ])
            .spawn()
            .map_err(|e| format!("spawn worker {node}: {e}"))?;
        reaper.0.push(w);
    }

    std::thread::sleep(trial.kill_after);
    reaper.0[0].kill().map_err(|e| format!("SIGKILL tracker: {e}"))?;
    let _ = reaper.0[0].wait();
    let t_kill = Instant::now();
    let dead_worker = if trial.kill_worker {
        let last = reaper.0.len() - 1;
        reaper.0[last].kill().map_err(|e| format!("SIGKILL worker: {e}"))?;
        let _ = reaper.0[last].wait();
        Some(last - 1) // node id of the worker that died with the tracker
    } else {
        None
    };

    // The surviving workers must ride out the outage as orphans, not exit.
    for (i, w) in reaper.0[1..].iter_mut().enumerate() {
        if Some(i) == dead_worker {
            continue;
        }
        if let Some(st) = w.try_wait().map_err(|e| format!("poll worker {i}: {e}"))? {
            return Err(format!("{label}: worker {i} exited during the outage ({st:?})"));
        }
    }

    // Restart on the SAME address; TIME_WAIT may make the first rebind
    // attempts lose the port, so retry until the announcement line lands.
    let mut restarted = None;
    for _ in 0..100 {
        let mut t = spawn_tracker(bin, &addr, trial, &input_path, &journal, &report_path)
            .map_err(|e| format!("respawn tracker: {e}"))?;
        match scrape_addr(&mut t) {
            Some(_) => {
                restarted = Some(t);
                break;
            }
            None => {
                let _ = t.wait();
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
    let restarted = restarted.ok_or(format!("{label}: could not rebind {addr}"))?;
    let spawn_to_kill_ms = t_kill.elapsed().as_secs_f64() * 1e3;
    reaper.0[0] = restarted;

    let deadline = Instant::now() + Duration::from_secs(90);
    let status = loop {
        if let Some(st) = reaper.0[0].try_wait().map_err(|e| format!("poll tracker: {e}"))? {
            break st;
        }
        if Instant::now() >= deadline {
            return Err(format!("{label}: recovered tracker did not finish in time"));
        }
        std::thread::sleep(Duration::from_millis(25));
    };
    if !status.success() {
        return Err(format!("{label}: recovered tracker exited with {status:?}"));
    }

    let text = std::fs::read_to_string(&report_path).map_err(|e| format!("read report: {e}"))?;
    let summary = ReportSummary::parse(&text).ok_or("malformed report")?;
    let c = &summary.counters;
    if summary.failed {
        return Err(format!("{label}: recovered job reported failure"));
    }
    if summary.output != expected {
        return Err(format!("{label}: OUTPUT DIVERGED from the engine reference"));
    }
    if c.tracker_restarts != 1 || c.journal_replays != 1 {
        return Err(format!(
            "{label}: expected exactly one restart+replay, got {} and {}",
            c.tracker_restarts, c.journal_replays
        ));
    }
    if c.worker_reattaches == 0 {
        return Err(format!("{label}: no worker re-attached ({})", c.to_kv()));
    }

    // The journal is the recovery record: it must replay cleanly, resolve
    // every pre-crash assignment, and fold deterministically.
    let records = read_journal(&journal).map_err(|e| format!("read journal: {e}"))?;
    check_journal_recovery(&records).map_err(|e| format!("{label}: journal law: {e}"))?;
    let a = JournalState::from_records(&records).map_err(|e| format!("{label}: replay: {e}"))?;
    let b = JournalState::from_records(&records).unwrap();
    if a.dump() != b.dump() {
        return Err(format!("{label}: journal replay is not deterministic"));
    }

    Ok(summary.stages.first_assign.map(|ms| spawn_to_kill_ms + ms))
}
