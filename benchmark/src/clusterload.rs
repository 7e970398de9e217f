//! `cluster_jobs`: the real loopback-TCP runtime. One client submits
//! WordCount jobs one after another (closed loop) to a JobTracker plus
//! three TaskTracker workers; each job starts its own tracker and workers,
//! journals to a fresh file, and must reproduce the in-process engine's
//! output byte for byte. None of the simulator runs here.

use crate::drivers;
use crate::metrics::Metrics;
use crate::spans::Recorder;
use crate::stats::{median, pct, ratio};
use crate::{Args, Outcome};
use pnats_cluster::{
    check_cluster_report, placer_by_name, read_journal, run_cluster, ClusterConfig, ClusterReport,
    FsyncPolicy, JobSpec, JournalRecord,
};
use pnats_core::faults::FaultPlan;
use pnats_core::partition::Partitioner;
use pnats_engine::MapReduceEngine;
use pnats_workloads::datagen::zipf_text;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SETUP_REPS: usize = 5;
/// Jobs per cycle; `tasks_per_s` is the median over cycles.
const JOBS_PER_CYCLE: usize = 10;
const WARMUP_JOBS: usize = 3;
const N_REDUCES: usize = 3;
const INPUT_BYTES: usize = 32 << 10;
const PLACER: &str = "paper";

/// A directory that is removed, with what it holds, when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn create(parent: &Path) -> Result<Self, String> {
        let path = parent.join(format!("tmp-{}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(Self(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Tracker + 3 workers on loopback, 4 ms heartbeat, 4 KiB splits (8 maps
/// for the 32 KiB input), journal on without fsync. Every field is pinned
/// except the RPC retry and circuit-breaker policies, which keep their
/// defaults.
fn cluster_config(seed: u64) -> ClusterConfig {
    ClusterConfig {
        n_nodes: 3,
        map_slots: 2,
        reduce_slots: 1,
        block_bytes: 4 << 10,
        replication: 2,
        heartbeat: Duration::from_millis(4),
        cpu_us_per_kib: 30,
        slowstart: 0.25,
        partitioner: Partitioner::Hash,
        seed,
        faults: FaultPlan::none(),
        expire_after: 8,
        io_timeout: Duration::from_secs(2),
        max_wall: Duration::from_secs(30),
        safe_mode_below: 0.0,
        journal: None,
        journal_fsync: FsyncPolicy::Never,
        reattach_grace: 40,
        orphan_grace: Duration::from_secs(8),
        ..ClusterConfig::default()
    }
}

fn placer(cfg: &ClusterConfig) -> Box<dyn pnats_core::placer::TaskPlacer> {
    placer_by_name(PLACER, cfg.heartbeat.as_secs_f64()).expect("the paper placer exists")
}

struct Prepared {
    cfg: ClusterConfig,
    input: String,
    expected: Vec<(String, String)>,
    /// Wall time of the engine reference run, milliseconds.
    engine_ms: f64,
}

/// What one checked cluster job cost.
struct JobOut {
    secs: f64,
    report: ClusterReport,
}

/// Run one job with a fresh journal under `dir`, and hold it to the gates:
/// not failed, oracle clean, output equal to the engine's.
fn run_job(p: &Prepared, dir: &Path, rec: &mut Recorder) -> Result<JobOut, String> {
    let mut cfg = p.cfg.clone();
    let journal = dir.join("job.journal");
    // The tracker recovers from a non-empty journal; a fresh job needs a
    // fresh file.
    let _ = std::fs::remove_file(&journal);
    cfg.journal = Some(journal);
    let (report, t) = rec.span("cluster.run_cluster", |_| {
        run_cluster(&cfg, &JobSpec::WordCount, N_REDUCES, &p.input, placer(&cfg))
    });
    if report.failed {
        return Err("cluster job failed".to_string());
    }
    check_cluster_report(&report).map_err(|e| format!("cluster oracle violation: {e}"))?;
    if report.output != p.expected {
        return Err("cluster output differs from the engine reference".to_string());
    }
    Ok(JobOut {
        secs: t.secs,
        report,
    })
}

fn setup(args: &Args, dir: &Path, rec: &mut Recorder) -> Result<(Prepared, f64), String> {
    let cfg = cluster_config(args.seed);
    let (input, gen_t) = rec.span("workloads.gen", |_| {
        zipf_text(
            INPUT_BYTES,
            1_000,
            1.1,
            &mut SmallRng::seed_from_u64(args.seed),
        )
    });
    let (reference, engine_t) = rec.span("engine.run", |_| {
        MapReduceEngine::new(cfg.engine_config()).run(
            &JobSpec::WordCount.job(N_REDUCES),
            &input,
            placer(&cfg),
        )
    });
    if reference.failed {
        return Err("engine reference run failed".to_string());
    }
    let p = Prepared {
        cfg,
        input,
        expected: reference.output,
        engine_ms: engine_t.secs * 1e3,
    };
    for _ in 0..if args.quick { 1 } else { WARMUP_JOBS } {
        run_job(&p, dir, rec)?;
    }
    Ok((p, gen_t.secs))
}

pub fn run(args: &Args, out_dir: &Path, rec: &mut Recorder) -> Result<Outcome, String> {
    let tmp = TempDir::create(out_dir)?;
    let dir = tmp.0.as_path();

    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut prepared = None;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        let (res, t) = rec.span("bench.setup", |rec| setup(args, dir, rec));
        let (p, g) = res?;
        setup_s.push(t.secs);
        gen_s.push(g);
        prepared = Some(p);
    }
    let p = prepared.expect("set-up ran at least once");
    let tasks_per_job = (p.input.len().div_ceil(p.cfg.block_bytes) + N_REDUCES) as f64;

    let mut job_s = Vec::new();
    let mut tasks_per_s = Vec::new();
    // Traced cycles only: the ledger's samples.
    let mut traced_reports: Vec<JobOut> = Vec::new();
    let (mut plain_wall_s, mut traced_wall_s, mut top_level_s) = (0.0, 0.0, 0.0);
    let timed = Instant::now();
    let mut cycles = 0usize;
    // In a traced run, cycles alternate between recorder off and on, and
    // the loop ends on a whole pair.
    while cycles == 0
        || (args.trace && cycles % 2 == 1)
        || timed.elapsed().as_secs_f64() < args.seconds
    {
        let traced = args.trace && cycles % 2 == 1;
        rec.next_cycle();
        rec.set_enabled(traced);
        let top_before = rec.top_level_ns();
        let t = Instant::now();
        let mut cycle_s = 0.0;
        for _ in 0..JOBS_PER_CYCLE {
            let job = run_job(&p, dir, rec)?;
            cycle_s += job.secs;
            job_s.push(job.secs);
            if traced {
                traced_reports.push(job);
            }
        }
        let wall = t.elapsed().as_secs_f64();
        if traced {
            traced_wall_s += wall;
            top_level_s += (rec.top_level_ns() - top_before) as f64 * 1e-9;
        } else {
            plain_wall_s += wall;
        }
        tasks_per_s.push(tasks_per_job * JOBS_PER_CYCLE as f64 / cycle_s);
        cycles += 1;
    }
    rec.set_enabled(args.trace);

    let mut m = Metrics::default();
    m.set("setup_s", median(&setup_s));
    m.set("tasks_per_s", median(&tasks_per_s));
    m.set("jct_p50_s", pct(&job_s, 0.50));
    m.set("jct_p90_s", pct(&job_s, 0.90));
    if args.trace {
        let pairs = (cycles / 2).max(1) as f64;
        m.set("bench.wall_s", plain_wall_s / pairs);
        m.set("bench.traced_wall_s", traced_wall_s / pairs);
        m.set(
            "bench.trace_overhead_frac",
            ratio(traced_wall_s - plain_wall_s, plain_wall_s),
        );
        m.set(
            "bench.span_coverage_frac",
            ratio(top_level_s, traced_wall_s),
        );
        m.set("workloads.gen_s", median(&gen_s));
        cluster_ledger(&p, &traced_reports, dir, args, rec, &mut m)?;
    }
    eprintln!(
        "cluster_jobs: {} jobs in {cycles} cycles, {:.1} s timed",
        job_s.len(),
        timed.elapsed().as_secs_f64()
    );
    Ok(Outcome {
        attempted: job_s.len() as u64,
        failed: 0,
        metrics: m,
    })
}

/// The per-layer numbers of the cluster workload: what the traced jobs'
/// reports say, then the engine, rpc and journal drivers.
fn cluster_ledger(
    p: &Prepared,
    jobs: &[JobOut],
    dir: &Path,
    args: &Args,
    rec: &mut Recorder,
    m: &mut Metrics,
) -> Result<(), String> {
    let n = jobs.len().max(1) as f64;
    let job_ms: Vec<f64> = jobs.iter().map(|j| j.secs * 1e3).collect();
    let first_assign_ms: Vec<f64> = jobs
        .iter()
        .filter_map(|j| j.report.first_assign_ms)
        .map(|ms| ms as f64)
        .collect();
    let offers: u64 = jobs.iter().map(|j| j.report.counters.offers).sum();
    let assigns: u64 = jobs.iter().map(|j| j.report.counters.assigns).sum();
    let retries: u64 = jobs.iter().map(|j| j.report.counters.rpc_retries).sum();
    m.set("cluster.job_ms_p50", pct(&job_ms, 0.50));
    m.set("cluster.first_assign_ms_p50", pct(&first_assign_ms, 0.50));
    m.set("cluster.offers_per_job", offers as f64 / n);
    m.set("cluster.assign_ratio", ratio(assigns as f64, offers as f64));
    m.set("rpc.retries", retries as f64 / n);

    // The same job in process: the denominator of `over_engine_x`.
    let engine = MapReduceEngine::new(p.cfg.engine_config());
    let job = JobSpec::WordCount.job(N_REDUCES);
    let mut engine_ms = vec![p.engine_ms];
    for _ in 0..if args.quick { 3 } else { 60 } {
        let (report, t) = rec.span("engine.run", |_| engine.run(&job, &p.input, placer(&p.cfg)));
        if report.failed || report.output != p.expected {
            return Err("engine run diverged from its own reference".to_string());
        }
        engine_ms.push(t.secs * 1e3);
    }
    m.set("engine.job_ms_p50", pct(&engine_ms, 0.50));
    m.set("engine.job_ms_p90", pct(&engine_ms, 0.90));
    m.set(
        "cluster.over_engine_x",
        ratio(pct(&job_ms, 0.50), pct(&engine_ms, 0.50)),
    );

    drivers::rpc_layer(args, rec, m)?;

    // The last job's journal is still on disk: the records one job writes.
    let journal = dir.join("job.journal");
    let records: Vec<JournalRecord> =
        read_journal(&journal).map_err(|e| format!("read the job's journal: {e}"))?;
    let bytes = std::fs::metadata(&journal)
        .map_err(|e| format!("stat the journal: {e}"))?
        .len();
    m.set("cluster.journal.bytes_per_job", bytes as f64);
    drivers::journal_layer(&records, dir, args, rec, m)
}
