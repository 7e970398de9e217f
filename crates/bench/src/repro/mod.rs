//! The `repro` binary: one subcommand per table, figure, ablation and CI
//! gate, all run in one process.
//!
//! `repro <subcommand> [seed] [--smoke]` runs one experiment with the
//! given seed (default 42); `--smoke`, where a subcommand has it, selects
//! its CI-sized variant. Every experiment writes its report into the
//! `String` it is handed. That text is the subcommand's stdout and depends
//! on the seed only, so it is byte-identical at any worker count;
//! wall-clock accounting goes to stderr and the `BENCH_*.json` files.
//!
//! `repro all [seed]` first runs Figure 4 serially and at full width and
//! requires the two reports to match byte for byte, then chains the
//! sixteen paper and extension experiments over one [`Ctx`] and sets its
//! members of `BENCH_harness.json`: per-experiment wall time and matrix
//! runs, and the scheduler and tenant counters folded from every
//! [`Ctx::run_matrix`] report.

mod cluster;
mod gates;
mod paper;
mod sweeps;

use crate::harness::{
    cloud_config, harness_threads, hdfs_config, parallel_map, trace_path, Run, PAPER_SCHEDULERS,
};
use pnats_obs::json::set_member;
use pnats_obs::SchedCounters;
use pnats_sim::{JobInput, SimConfig, SimReport};
use pnats_tenancy::TenantCounters;
use pnats_workloads::{table2_batch, AppKind};
use std::cell::{OnceCell, RefCell};
use std::error::Error;
use std::path::Path;
use std::time::Instant;

/// Where `repro all`, `scale_sweep` and `tenant_service` set their
/// members, in the working directory.
const BENCH_HARNESS: &str = "BENCH_harness.json";

/// What an experiment returns. An `Err` fails the subcommand (exit 1)
/// after the report written so far is printed.
pub type Outcome = Result<(), Box<dyn Error>>;

/// An experiment: runs against the context and writes its report into the
/// `String` it is handed.
pub type Experiment = fn(&Ctx, &mut String) -> Outcome;

/// One subcommand.
struct Sub {
    name: &'static str,
    /// Whether it has a `--smoke` variant.
    smoke: bool,
    run: Experiment,
}

const fn sub(name: &'static str, smoke: bool, run: Experiment) -> Sub {
    Sub { name, smoke, run }
}

/// The experiments `repro all` chains, in report order.
const EXPERIMENTS: [Sub; 16] = [
    sub("table2", false, paper::table2),
    sub("fig3_data_size", false, paper::fig3_data_size),
    sub("fig4_jct_cdf", false, paper::fig4_jct_cdf),
    sub("fig5_reduction", false, paper::fig5_reduction),
    sub("fig6_task_times", false, paper::fig6_task_times),
    sub("table3_locality", false, paper::table3_locality),
    sub("fig7_locality_vs_size", false, paper::fig7_locality_vs_size),
    sub("pmin_sweep", false, sweeps::pmin_sweep),
    sub("ablation_estimation", false, sweeps::ablation_estimation),
    sub("ablation_netcond", false, sweeps::ablation_netcond),
    sub("ablation_prob_model", false, sweeps::ablation_prob_model),
    sub("ablation_replication", false, sweeps::ablation_replication),
    sub("ablation_speculation", false, sweeps::ablation_speculation),
    sub("fault_sweep", true, sweeps::fault_sweep),
    sub("extended_comparison", false, sweeps::extended_comparison),
    sub("continuous_arrivals", false, sweeps::continuous_arrivals),
];

/// The gates, which run only on their own.
const GATES: [Sub; 6] = [
    sub("scale_sweep", true, gates::scale_sweep),
    sub("tenant_service", true, gates::tenant_service),
    sub("trace_check", false, gates::trace_check),
    sub("cluster_smoke", false, cluster::cluster_smoke),
    sub("tracker_failover", true, cluster::tracker_failover),
    sub("chaos_soak", true, cluster::chaos_soak),
];

/// Counters folded from every [`Ctx::run_matrix`] report, schedulers and
/// tenants each in first-appearance order.
#[derive(Default)]
struct Tally {
    /// Runs executed by every matrix, whatever its runner.
    matrix_runs: usize,
    schedulers: Vec<(String, SchedCounters)>,
    tenants: Vec<(String, TenantCounters)>,
}

/// Fold `c` into `name`'s entry of `agg`, appending the entry on first
/// appearance.
fn merge_into<C: Clone>(agg: &mut Vec<(String, C)>, name: &str, c: &C, merge: fn(&mut C, &C)) {
    match agg.iter_mut().find(|(n, _)| n == name) {
        Some((_, total)) => merge(total, c),
        None => agg.push((name.to_string(), c.clone())),
    }
}

/// What one invocation shares between its experiments: the arguments, the
/// worker count, the two paper matrices (each run at most once), and the
/// counter tally.
pub struct Ctx {
    /// Seed for every simulation and workload draw.
    pub seed: u64,
    /// `--smoke`: run the CI-sized variant.
    pub smoke: bool,
    threads: usize,
    cloud_cfg: SimConfig,
    hdfs_cfg: SimConfig,
    /// The [Wordcount, Terasort, Grep] batches of the paper matrices.
    batches: Vec<Vec<JobInput>>,
    cloud: OnceCell<Vec<SimReport>>,
    hdfs: OnceCell<Vec<SimReport>>,
    tally: RefCell<Tally>,
}

impl Ctx {
    /// A context whose matrices run on `threads` workers.
    pub fn new(seed: u64, smoke: bool, threads: usize) -> Self {
        Self {
            seed,
            smoke,
            threads,
            cloud_cfg: cloud_config(seed),
            hdfs_cfg: hdfs_config(seed),
            batches: AppKind::ALL
                .iter()
                .map(|&app| JobInput::from_batch(&table2_batch(app)))
                .collect(),
            cloud: OnceCell::new(),
            hdfs: OnceCell::new(),
            tally: RefCell::default(),
        }
    }

    /// The cloud paper matrix (Figures 4–6): the paper's three schedulers
    /// × three batches on [`cloud_config`], scheduler-major.
    pub fn cloud(&self) -> &[SimReport] {
        self.cloud.get_or_init(|| self.paper_matrix(&self.cloud_cfg))
    }

    /// The HDFS paper matrix (Table III, Figure 7): as [`Ctx::cloud`] on
    /// [`hdfs_config`].
    pub fn hdfs(&self) -> &[SimReport] {
        self.hdfs.get_or_init(|| self.paper_matrix(&self.hdfs_cfg))
    }

    fn paper_matrix(&self, cfg: &SimConfig) -> Vec<SimReport> {
        let runs = PAPER_SCHEDULERS
            .iter()
            .flat_map(|&kind| {
                self.batches.iter().map(move |b| Run::new(kind, cfg.clone(), b.clone()))
            })
            .collect();
        self.run_matrix(runs)
    }

    /// Execute a run matrix, returning reports in matrix order, and fold
    /// their scheduler and tenant counters into the tally. With
    /// `PNATS_TRACE=<path>` set, every run records its decision trace and
    /// the concatenation (in matrix order) is written to `<path>`.
    pub fn run_matrix(&self, runs: Vec<Run>) -> Vec<SimReport> {
        let trace_to = trace_path();
        let runs = match trace_to {
            Some(_) => runs.into_iter().map(Run::traced).collect(),
            None => runs,
        };
        let reports = self.run_matrix_with(runs, Run::execute);
        let mut tally = self.tally.borrow_mut();
        for r in &reports {
            merge_into(&mut tally.schedulers, &r.scheduler, &r.counters, SchedCounters::merge);
            for ts in &r.tenants {
                merge_into(&mut tally.tenants, &ts.name, &ts.counters, TenantCounters::merge);
            }
        }
        if let Some(path) = trace_to {
            let text: String = reports.iter().filter_map(|r| r.trace_jsonl.as_deref()).collect();
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("PNATS_TRACE: failed to write {path}: {e}");
            }
        }
        reports
    }

    /// Execute a run matrix through `f` on the context's workers, without
    /// touching the counter tally — for experiments that derive extra
    /// per-run data (e.g. per-run wall-clock) inside the worker. Results
    /// are identical to a serial execution: every cell owns its config
    /// (and so its RNG seed) and builds its placer privately. Prints one
    /// `HARNESS runs=… wall_s=…` line on stderr.
    pub fn run_matrix_with<R: Send>(&self, runs: Vec<Run>, f: impl Fn(Run) -> R + Sync) -> Vec<R> {
        let n = runs.len();
        let wall = Instant::now();
        let results = parallel_map(runs, self.threads, f);
        let wall_s = wall.elapsed().as_secs_f64();
        eprintln!(
            "HARNESS runs={n} threads={} wall_s={wall_s:.3} runs_per_s={:.3}",
            self.threads,
            n as f64 / wall_s.max(1e-9)
        );
        self.tally.borrow_mut().matrix_runs += n;
        results
    }
}

/// A subcommand's arguments.
#[derive(Debug, PartialEq)]
struct Args {
    seed: u64,
    smoke: bool,
}

/// Parse `[seed] [--smoke]`, in any order; `Ok(None)` asks for help.
fn parse_args(args: &[String], has_smoke: bool) -> Result<Option<Args>, String> {
    let (mut seed, mut smoke) = (None, false);
    for arg in args {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--smoke" if has_smoke => smoke = true,
            "--smoke" => return Err("this subcommand has no --smoke variant".into()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            s if seed.is_none() => {
                seed =
                    Some(s.parse().map_err(|_| format!("seed `{s}` is not an unsigned integer"))?)
            }
            extra => return Err(format!("unexpected argument `{extra}`")),
        }
    }
    Ok(Some(Args { seed: seed.unwrap_or(42), smoke }))
}

fn synopsis(has_smoke: bool) -> &'static str {
    if has_smoke {
        "[seed] [--smoke]"
    } else {
        "[seed]"
    }
}

fn usage() -> String {
    let mut s = String::from("usage: repro <subcommand> [seed] [--smoke]\n\n  all [seed]\n");
    for sub in EXPERIMENTS.iter().chain(&GATES) {
        s += &format!("  {} {}\n", sub.name, synopsis(sub.smoke));
    }
    s
}

/// Run `repro` on its arguments (program name excluded). Returns the exit
/// code: 0 on success, 1 when an experiment or gate fails, 2 on a usage
/// error.
pub fn run(args: &[String]) -> u8 {
    let Some((name, rest)) = args.split_first() else {
        eprint!("{}", usage());
        return 2;
    };
    if name == "--help" || name == "-h" {
        print!("{}", usage());
        return 0;
    }
    let sub = EXPERIMENTS.iter().chain(&GATES).find(|s| s.name == name);
    if sub.is_none() && name != "all" {
        eprint!("repro: unknown subcommand `{name}`\n\n{}", usage());
        return 2;
    }
    let has_smoke = sub.is_some_and(|s| s.smoke);
    let args = match parse_args(rest, has_smoke) {
        Ok(Some(args)) => args,
        Ok(None) => {
            println!("usage: repro {name} {}", synopsis(has_smoke));
            return 0;
        }
        Err(e) => {
            eprintln!("repro {name}: {e}\nusage: repro {name} {}", synopsis(has_smoke));
            return 2;
        }
    };
    let outcome = match sub {
        None => run_all(args.seed),
        Some(sub) => {
            let (outcome, report) =
                timed(sub.run, &Ctx::new(args.seed, args.smoke, harness_threads()));
            print!("{}", report.stdout);
            outcome
        }
    };
    match outcome {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("{name}: {e}");
            1
        }
    }
}

/// One experiment's report and wall time.
struct Timed {
    stdout: String,
    wall_s: f64,
}

fn timed(run: Experiment, ctx: &Ctx) -> (Outcome, Timed) {
    let mut stdout = String::new();
    let wall = Instant::now();
    let outcome = run(ctx, &mut stdout);
    (outcome, Timed { stdout, wall_s: wall.elapsed().as_secs_f64() })
}

/// The experiment whose serial/parallel pair calibrates the speedup: a
/// 9-run matrix with fully deterministic stdout.
const CALIBRATION: &str = "fig4_jct_cdf";

/// What the calibration pair measured.
struct Calibration {
    serial_wall_s: f64,
    parallel_wall_s: f64,
    stdout_identical: bool,
}

impl Calibration {
    fn speedup(&self) -> f64 {
        self.serial_wall_s / self.parallel_wall_s.max(1e-9)
    }
}

/// Run the calibration experiment through `run` serially (`Some(1)`) and,
/// when there is more than one worker, again at full width (`None`). With
/// one worker both runs would be serial — their ratio is noise, and a byte
/// compare of a run against a rerun of itself proves nothing about the
/// parallel harness — so the single serial run stands for both.
fn calibrate(threads: usize, mut run: impl FnMut(Option<usize>) -> Timed) -> Calibration {
    let serial = run(Some(1));
    let (parallel_wall_s, stdout_identical) = if threads == 1 {
        (serial.wall_s, true)
    } else {
        let parallel = run(None);
        (parallel.wall_s, serial.stdout == parallel.stdout)
    };
    Calibration { serial_wall_s: serial.wall_s, parallel_wall_s, stdout_identical }
}

/// `{ "name": object, … }` as the value of a top-level member.
fn json_map(rows: impl Iterator<Item = (String, String)>) -> String {
    let rows: Vec<String> = rows.map(|(name, obj)| format!("    \"{name}\": {obj}")).collect();
    format!("{{\n{}\n  }}", rows.join(",\n"))
}

/// `repro all`: calibrate, run [`EXPERIMENTS`] in order over one context
/// printing each report, then set this run's members of
/// `BENCH_harness.json` (other members, such as `scale_sweep`'s, stay).
fn run_all(seed: u64) -> Outcome {
    let threads = harness_threads();
    println!("######## calibration: {CALIBRATION} serial vs {threads} threads ########");
    // A fresh context per run: the calibration neither reads nor fills the
    // sweep's shared matrices, and its counters are not the sweep's.
    let cal = calibrate(threads, |width| {
        let ctx = Ctx::new(seed, false, width.unwrap_or(threads));
        let (outcome, report) = timed(paper::fig4_jct_cdf, &ctx);
        outcome.expect("fig4_jct_cdf fails only on a formatting error");
        report
    });
    if threads == 1 {
        println!(
            "one worker: ran once ({:.2}s); speedup 1.00x by definition, nothing to byte-compare",
            cal.serial_wall_s
        );
    } else {
        println!(
            "serial {:.2}s  parallel {:.2}s  speedup {:.2}x  stdout_identical={}",
            cal.serial_wall_s,
            cal.parallel_wall_s,
            cal.speedup(),
            cal.stdout_identical
        );
    }
    if !cal.stdout_identical {
        return Err("parallel stdout differs from serial stdout — determinism broken".into());
    }

    let ctx = Ctx::new(seed, false, threads);
    let total = Instant::now();
    let mut experiments = Vec::new();
    for sub in &EXPERIMENTS {
        println!("\n############ {} ############", sub.name);
        let before = ctx.tally.borrow().matrix_runs;
        let (outcome, report) = timed(sub.run, &ctx);
        print!("{}", report.stdout);
        outcome.map_err(|e| format!("{}: {e}", sub.name))?;
        let runs = ctx.tally.borrow().matrix_runs - before;
        experiments.push(format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"matrix_runs\": {runs}, \"runs_per_s\": {:.3}}}",
            sub.name,
            report.wall_s,
            runs as f64 / report.wall_s.max(1e-9)
        ));
    }
    let total_wall_s = total.elapsed().as_secs_f64();

    // Decision accounting must balance: every slot offer became exactly
    // one assign or one reason-tagged skip.
    let tally = ctx.tally.into_inner();
    if let Some((name, c)) = tally.schedulers.iter().find(|(_, c)| !c.consistent()) {
        return Err(format!("{name} counters violate offers = assigns + skips: {c:?}").into());
    }
    let calibration = format!(
        "{{\n    \"experiment\": \"{CALIBRATION}\",\n    \"serial_wall_s\": {:.3},\n    \
         \"parallel_wall_s\": {:.3},\n    \"speedup\": {:.3},\n    \"stdout_identical\": {}\n  }}",
        cal.serial_wall_s,
        cal.parallel_wall_s,
        cal.speedup(),
        cal.stdout_identical
    );
    let members = [
        ("threads", threads.to_string()),
        ("seed", format!("\"{seed}\"")),
        ("calibration", calibration),
        ("experiments", format!("[\n{}\n  ]", experiments.join(",\n"))),
        (
            "scheduler_counters",
            json_map(tally.schedulers.iter().map(|(n, c)| (n.clone(), c.to_json_object("    ")))),
        ),
        (
            "tenant_counters",
            json_map(tally.tenants.iter().map(|(n, c)| (n.clone(), c.to_json_object()))),
        ),
        ("total_wall_s", format!("{total_wall_s:.3}")),
    ];
    for (key, value) in members {
        set_member(Path::new(BENCH_HARNESS), key, &value)?;
    }

    println!("\nAll experiments completed in {total_wall_s:.1}s ({threads} threads).");
    println!("Wall-clock accounting written to {BENCH_HARNESS}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_sim::config::background_traffic;
    use pnats_workloads::scaled_batch;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn seed_and_smoke_parse_in_either_order() {
        let parse = |args: &[&str], has_smoke| parse_args(&strings(args), has_smoke);
        assert_eq!(parse(&[], false), Ok(Some(Args { seed: 42, smoke: false })));
        assert_eq!(parse(&["7"], false), Ok(Some(Args { seed: 7, smoke: false })));
        for args in [&["7", "--smoke"], &["--smoke", "7"]] {
            assert_eq!(parse(args, true), Ok(Some(Args { seed: 7, smoke: true })), "{args:?}");
        }
        assert_eq!(parse(&["--smoke"], true), Ok(Some(Args { seed: 42, smoke: true })));
        assert_eq!(parse(&["7", "--help"], true), Ok(None));
        assert_eq!(parse(&["-h"], false), Ok(None));
    }

    #[test]
    fn bad_arguments_are_usage_errors() {
        let parse = |args: &[&str], has_smoke| parse_args(&strings(args), has_smoke);
        // A typo is no longer a full run, a bad seed no longer seed 42.
        assert!(parse(&["42", "--smok"], true).is_err());
        assert!(parse(&["4x2"], false).is_err());
        assert!(parse(&["-1"], false).is_err());
        assert!(parse(&["42", "7"], false).is_err(), "a second seed is not ignored");
        assert!(parse(&["--smoke"], false).is_err(), "--smoke where there never was one");

        let run_args = |args: &[&str]| run(&strings(args));
        assert_eq!(run_args(&["fault_sweep", "--smok"]), 2);
        assert_eq!(run_args(&["scale_sweep", "forty-two"]), 2);
        assert_eq!(run_args(&["fig4_jct_cdf", "--smoke"]), 2);
        assert_eq!(run_args(&["all", "--smoke"]), 2);
        assert_eq!(run_args(&["fig8_missing"]), 2);
        assert_eq!(run_args(&[]), 2);
        assert_eq!(run_args(&["table2", "--help"]), 0);
        assert_eq!(run_args(&["--help"]), 0);
    }

    /// A fake experiment run: records the widths it was launched at and
    /// takes `walls[i]` seconds on its i-th launch.
    fn fake<'a>(
        launched: &'a mut Vec<Option<usize>>,
        walls: &'a [f64],
    ) -> impl FnMut(Option<usize>) -> Timed + 'a {
        move |threads| {
            launched.push(threads);
            Timed { stdout: "same bytes".to_string(), wall_s: walls[launched.len() - 1] }
        }
    }

    #[test]
    fn one_worker_calibrates_with_a_single_run() {
        let mut launched = Vec::new();
        let cal = calibrate(1, fake(&mut launched, &[31.7]));
        assert_eq!(launched, vec![Some(1)], "a second serial run is ~30 s of noise");
        assert_eq!(format!("{:.3}", cal.speedup()), "1.000");
        assert!(cal.stdout_identical);
    }

    #[test]
    fn several_workers_run_the_serial_parallel_pair() {
        let mut launched = Vec::new();
        let cal = calibrate(4, fake(&mut launched, &[30.0, 10.0]));
        assert_eq!(launched, vec![Some(1), None]);
        assert_eq!(format!("{:.3}", cal.speedup()), "3.000");
        assert!(cal.stdout_identical);
    }

    /// The paper matrices shrunk to 8 nodes and two scaled jobs per batch.
    fn mini_ctx() -> Ctx {
        let mut ctx = Ctx::new(3, false, 2);
        ctx.cloud_cfg.n_nodes = 8;
        ctx.cloud_cfg.background = background_traffic(2, 500.0, 8, 3);
        ctx.hdfs_cfg.n_nodes = 8;
        ctx.batches = AppKind::ALL
            .iter()
            .map(|&app| JobInput::from_batch(&scaled_batch(app, 2, 20)))
            .collect();
        ctx
    }

    #[test]
    fn figures_render_the_same_from_one_shared_matrix() {
        let cloud: [Experiment; 3] =
            [paper::fig4_jct_cdf, paper::fig5_reduction, paper::fig6_task_times];
        let hdfs: [Experiment; 2] = [paper::table3_locality, paper::fig7_locality_vs_size];
        for figures in [&cloud[..], &hdfs[..]] {
            let shared = mini_ctx();
            for (i, figure) in figures.iter().enumerate() {
                let (mut from_shared, mut from_fresh) = (String::new(), String::new());
                figure(&shared, &mut from_shared).unwrap();
                figure(&mini_ctx(), &mut from_fresh).unwrap();
                assert!(!from_shared.is_empty());
                assert_eq!(from_shared, from_fresh, "figure {i} of {}", figures.len());
            }
            let tally = shared.tally.borrow();
            assert_eq!(tally.matrix_runs, 9, "one 3 × 3 matrix for all figures");
            assert_eq!(tally.schedulers.len(), 3);
        }
    }
}
