//! Run every table/figure reproduction in sequence, printing one
//! EXPERIMENTS.md-ready report, and write `BENCH_harness.json` with
//! machine-readable wall-clock accounting per experiment.
//!
//! Experiments execute their run matrices across all cores (see
//! `harness::run_matrix`; `PNATS_THREADS` pins the worker count). Before
//! the sweep, one calibration experiment is executed twice — serially
//! (`PNATS_THREADS=1`) and at full width — to record the measured speedup
//! and to verify the parallel harness is byte-identical to the serial one
//! on stdout. With a single worker there is no second width to compare, so
//! it runs once and reports a speedup of 1.
//!
//! Usage: `cargo run --release -p pnats-bench --bin repro_all [seed]`

use pnats_bench::harness::harness_threads;
use pnats_obs::SchedCounters;
use pnats_tenancy::TenantCounters;
use std::io::Write as _;
use std::process::Command;
use std::time::Instant;

/// The experiment whose serial/parallel pair calibrates the speedup: a
/// 9-run matrix with fully deterministic stdout.
const CALIBRATION_BIN: &str = "fig4_jct_cdf";

struct ExperimentRecord {
    name: String,
    wall_s: f64,
    matrix_runs: usize,
}

/// Stdout/stderr of one child plus repro_all's own wall measurement.
struct ChildRun {
    stdout: Vec<u8>,
    stderr: String,
    wall_s: f64,
}

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

/// Run the calibration experiment through `run` serially and, when there
/// is more than one worker, again at full width. With one worker both
/// children would be serial — their ratio is process noise, and a byte
/// compare of a run against a rerun of itself proves nothing about the
/// parallel harness — so the single serial run stands for both.
fn calibrate(threads: usize, mut run: impl FnMut(Option<usize>) -> ChildRun) -> Calibration {
    let serial = run(Some(1));
    let (parallel_wall_s, stdout_identical) = if threads == 1 {
        (serial.wall_s, true)
    } else {
        let parallel = run(None);
        (parallel.wall_s, serial.stdout == parallel.stdout)
    };
    Calibration { serial_wall_s: serial.wall_s, parallel_wall_s, stdout_identical }
}

fn run_child(dir: &std::path::Path, bin: &str, seed: &str, threads: Option<usize>) -> ChildRun {
    let mut cmd = Command::new(dir.join(bin));
    cmd.arg(seed);
    if let Some(t) = threads {
        cmd.env("PNATS_THREADS", t.to_string());
    }
    let wall = Instant::now();
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    let wall_s = wall.elapsed().as_secs_f64();
    if !out.status.success() {
        std::io::stdout().write_all(&out.stdout).ok();
        eprintln!("{}", String::from_utf8_lossy(&out.stderr));
        eprintln!("{bin} exited with {}", out.status);
        std::process::exit(1);
    }
    ChildRun {
        stdout: out.stdout,
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        wall_s,
    }
}

/// Fold a child's `COUNTERS scheduler=<name> <kv…>` stderr lines into the
/// cross-experiment per-scheduler aggregate (first-appearance order).
fn merge_counters(stderr: &str, agg: &mut Vec<(String, SchedCounters)>) {
    for line in stderr.lines().filter(|l| l.starts_with("COUNTERS ")) {
        let mut tokens = line.split_whitespace().skip(1);
        let Some(name) = tokens.next().and_then(|t| t.strip_prefix("scheduler=")) else {
            continue;
        };
        let c = SchedCounters::from_kv(tokens);
        match agg.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => total.merge(&c),
            None => agg.push((name.to_string(), c)),
        }
    }
}

/// Fold a child's `TENANTS tenant=<name> <kv…>` stderr lines into the
/// cross-experiment per-tenant aggregate (first-appearance order). Only
/// service-mode experiments emit them.
fn merge_tenant_counters(stderr: &str, agg: &mut Vec<(String, TenantCounters)>) {
    for line in stderr.lines().filter(|l| l.starts_with("TENANTS ")) {
        let mut tokens = line.split_whitespace().skip(1);
        let Some(name) = tokens.next().and_then(|t| t.strip_prefix("tenant=")) else {
            continue;
        };
        let c = TenantCounters::from_kv(tokens);
        match agg.iter_mut().find(|(n, _)| n == name) {
            Some((_, total)) => total.merge(&c),
            None => agg.push((name.to_string(), c)),
        }
    }
}

/// Lines of an existing `BENCH_harness.json` written by section-patching
/// binaries (`scale_sweep`, `tenant_service`) rather than by `repro_all`
/// itself. Preserved verbatim across the rewrite so re-running `repro_all`
/// does not clobber their results.
fn preserved_sections() -> Vec<String> {
    let Ok(existing) = std::fs::read_to_string("BENCH_harness.json") else {
        return Vec::new();
    };
    existing
        .lines()
        .filter(|l| {
            let t = l.trim_start();
            t.starts_with("\"scale_sweep\":") || t.starts_with("\"tenant_service\":")
        })
        .map(|l| l.to_string())
        .collect()
}

/// Total matrix runs reported by a child's `HARNESS runs=…` stderr lines.
fn total_matrix_runs(stderr: &str) -> usize {
    stderr
        .lines()
        .filter(|l| l.starts_with("HARNESS "))
        .filter_map(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix("runs="))
                .and_then(|v| v.parse::<usize>().ok())
        })
        .sum()
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    pnats_bench::usage_on_help("[seed]");
    let seed = std::env::args().nth(1).unwrap_or_else(|| "42".to_string());
    let bins = [
        "table2",
        "fig3_data_size",
        "fig4_jct_cdf",
        "fig5_reduction",
        "fig6_task_times",
        "table3_locality",
        "fig7_locality_vs_size",
        "pmin_sweep",
        "ablation_estimation",
        "ablation_netcond",
        "ablation_prob_model",
        "ablation_replication",
        "ablation_speculation",
        "fault_sweep",
        "extended_comparison",
        "continuous_arrivals",
    ];
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();
    let threads = harness_threads();

    // Calibration: the same experiment serially and at full width. The
    // simulations seed their own RNGs, so stdout must match byte for byte.
    println!("######## calibration: {CALIBRATION_BIN} serial vs {threads} threads ########");
    let cal = calibrate(threads, |t| run_child(&dir, CALIBRATION_BIN, &seed, t));
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
        eprintln!("FATAL: parallel stdout differs from serial stdout — determinism broken");
        std::process::exit(1);
    }

    let total = Instant::now();
    let mut records = Vec::new();
    let mut counters: Vec<(String, SchedCounters)> = Vec::new();
    let mut tenant_counters: Vec<(String, TenantCounters)> = Vec::new();
    for bin in bins {
        println!("\n############ {bin} ############");
        let child = run_child(&dir, bin, &seed, None);
        std::io::stdout().write_all(&child.stdout).expect("stdout");
        merge_counters(&child.stderr, &mut counters);
        merge_tenant_counters(&child.stderr, &mut tenant_counters);
        records.push(ExperimentRecord {
            name: bin.to_string(),
            wall_s: child.wall_s,
            matrix_runs: total_matrix_runs(&child.stderr),
        });
    }
    let total_wall_s = total.elapsed().as_secs_f64();

    // Decision accounting must balance: every slot offer became exactly
    // one assign or one reason-tagged skip.
    for (name, c) in &counters {
        if !c.consistent() {
            eprintln!("FATAL: {name} counters violate offers = assigns + skips: {c:?}");
            std::process::exit(1);
        }
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str(&format!("  \"threads\": {threads},\n"));
    json.push_str(&format!("  \"seed\": \"{}\",\n", json_escape(&seed)));
    json.push_str("  \"calibration\": {\n");
    json.push_str(&format!("    \"experiment\": \"{CALIBRATION_BIN}\",\n"));
    json.push_str(&format!("    \"serial_wall_s\": {:.3},\n", cal.serial_wall_s));
    json.push_str(&format!("    \"parallel_wall_s\": {:.3},\n", cal.parallel_wall_s));
    json.push_str(&format!("    \"speedup\": {:.3},\n", cal.speedup()));
    json.push_str(&format!("    \"stdout_identical\": {}\n", cal.stdout_identical));
    json.push_str("  },\n");
    json.push_str("  \"experiments\": [\n");
    for (i, rec) in records.iter().enumerate() {
        // Always a number: 0-matrix-run bins (pure data tables like table2)
        // report 0.000 rather than null, so downstream diffing can parse the
        // column uniformly.
        let runs_per_s = format!("{:.3}", rec.matrix_runs as f64 / rec.wall_s.max(1e-9));
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"matrix_runs\": {}, \"runs_per_s\": {}}}{}\n",
            json_escape(&rec.name),
            rec.wall_s,
            rec.matrix_runs,
            runs_per_s,
            if i + 1 < records.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"scheduler_counters\": {\n");
    for (i, (name, c)) in counters.iter().enumerate() {
        json.push_str(&format!(
            "    \"{}\": {}{}\n",
            json_escape(name),
            c.to_json_object("    "),
            if i + 1 < counters.len() { "," } else { "" }
        ));
    }
    json.push_str("  },\n");
    if !tenant_counters.is_empty() {
        json.push_str("  \"tenant_counters\": {\n");
        for (i, (name, c)) in tenant_counters.iter().enumerate() {
            json.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(name),
                c.to_json_object(),
                if i + 1 < tenant_counters.len() { "," } else { "" }
            ));
        }
        json.push_str("  },\n");
    }
    // Keep sections owned by the patching binaries (read before the
    // rewrite below replaces the file).
    for line in preserved_sections() {
        let line = line.trim_end().trim_end_matches(',');
        json.push_str(&format!("{line},\n"));
    }
    json.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3}\n"));
    json.push_str("}\n");
    std::fs::write("BENCH_harness.json", &json).expect("write BENCH_harness.json");

    println!("\nAll experiments completed in {total_wall_s:.1}s ({threads} threads).");
    println!("Wall-clock accounting written to BENCH_harness.json");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake child: records the widths it was launched at and takes
    /// `walls[i]` seconds on its i-th launch.
    fn fake<'a>(
        launched: &'a mut Vec<Option<usize>>,
        walls: &'a [f64],
    ) -> impl FnMut(Option<usize>) -> ChildRun + 'a {
        move |threads| {
            launched.push(threads);
            ChildRun {
                stdout: b"same bytes".to_vec(),
                stderr: String::new(),
                wall_s: walls[launched.len() - 1],
            }
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
}
