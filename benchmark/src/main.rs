//! The repository's one performance benchmark.
//!
//! `benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process on one driver thread, checks what the
//! program produced, and prints — as the last line of standard output — one
//! JSON object with every metric by name and unit: the end-to-end metrics
//! with `--trace 0` (span recording off), the per-layer ledger with
//! `--trace 1`. `BENCHMARK.json` at the repository root lists the
//! workloads, metrics, directions and regression bounds; README.md beside
//! this package explains each of them.
//!
//! The inputs come from `--seed` alone; the program under test receives
//! only the generated inputs. Nothing is written outside the build's
//! target directory.

mod clusterload;
mod drivers;
mod metrics;
mod simload;
mod spans;
mod stats;
mod timed;

use metrics::{Metrics, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use simload::SimKind;
use spans::Recorder;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: benchmark --workload <paper_shuffle|scale_nominal|service_churn|cluster_jobs> \
[--seed <n>] [--seconds <s>] [--trace <0|1>] [--quick]\n       benchmark --print-manifest";

/// One run's command line.
pub struct Args {
    pub workload: String,
    /// Drives every generated input: background traffic, arrivals, the
    /// fault plan, the simulator's RNG, the cluster's input text.
    pub seed: u64,
    /// How long the timed loop measures, at least.
    pub seconds: f64,
    /// Report the per-layer ledger (decorators and span recording on)
    /// instead of the end-to-end metrics.
    pub trace: bool,
    /// Shrunken inputs and a single pass: a smoke test, not a measurement.
    pub quick: bool,
}

/// What a workload hands back: jobs attempted and failed, and its metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

enum Command {
    Run(Args),
    PrintManifest,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: f64::from(RUN_SECONDS),
        trace: false,
        quick: false,
    };
    let mut argv = argv.into_iter();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--print-manifest" => return Ok(Command::PrintManifest),
            "--quick" => args.quick = true,
            "--workload" => args.workload = value()?,
            "--seed" => {
                args.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(0.0..=600.0).contains(&args.seconds) {
                    return Err("--seconds must lie in 0..=600".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                };
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.iter().any(|w| w.name == args.workload) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.quick {
        args.seconds = 0.0;
    }
    Ok(Command::Run(args))
}

/// Where run-time files go: `benchmark-out/` inside the target directory
/// the executable was built into.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate the executable: {e}"))?;
    let target = exe.parent().and_then(|profile| profile.parent());
    Ok(target
        .ok_or("the executable is not inside a target directory")?
        .join("benchmark-out"))
}

/// Run the workload and build the result line; `Ok((line, correct))`.
fn run(args: &Args) -> Result<(String, bool), String> {
    let out_dir = out_dir()?;
    let mut rec = Recorder::new(args.trace);
    let outcome = match args.workload.as_str() {
        "paper_shuffle" => simload::run(SimKind::PaperShuffle, args, &mut rec),
        "scale_nominal" => simload::run(SimKind::ScaleNominal, args, &mut rec),
        "service_churn" => simload::run(SimKind::ServiceChurn, args, &mut rec),
        "cluster_jobs" => clusterload::run(args, &out_dir, &mut rec),
        other => unreachable!("parse() admitted workload {other}"),
    }?;
    let Outcome {
        attempted,
        failed,
        metrics: mut m,
    } = outcome;
    let defs = if args.trace {
        m.set("bench.spans", rec.spans().len() as f64);
        std::fs::create_dir_all(&out_dir)
            .map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let path = out_dir.join(format!("{}.spans.jsonl", args.workload));
        std::fs::write(&path, rec.to_jsonl())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        PER_LAYER
    } else {
        m.set("peak_rss_mb", stats::peak_rss_mib());
        for d in END_TO_END {
            if m.get(d.name).is_none_or(|v| v <= 0.0) {
                return Err(format!("end-to-end metric {} was not measured", d.name));
            }
        }
        END_TO_END
    };
    let correct = failed == 0;
    Ok((
        metrics::result_json(correct, attempted, failed, defs, &m),
        correct,
    ))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Command::Run(args)) => args,
        Ok(Command::PrintManifest) => {
            print!("{}", metrics::manifest_json());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((line, correct)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("benchmark: {} left jobs unfinished", args.workload);
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("benchmark: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(workload: &str, trace: bool) -> Args {
        Args {
            workload: workload.to_string(),
            seed: 42,
            seconds: 0.0,
            trace,
            quick: true,
        }
    }

    /// `--quick` smoke of every workload in both passes: the gates hold,
    /// the result line is valid JSON, and it names exactly the metrics
    /// `BENCHMARK.json` lists for that pass.
    #[test]
    fn every_workload_reports_every_metric_of_its_pass() {
        for w in WORKLOADS {
            for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
                let (line, correct) = run(&quick(w.name, trace))
                    .unwrap_or_else(|e| panic!("{} trace={trace}: {e}", w.name));
                assert!(correct, "{} trace={trace}: jobs failed", w.name);
                pnats_obs::json::validate_json(&line).expect("result line is valid JSON");
                for d in defs {
                    assert!(
                        line.contains(&format!("\"{}\": {{", d.name)),
                        "{}: {} missing",
                        w.name,
                        d.name
                    );
                }
                assert_eq!(
                    line.matches("\"unit\"").count(),
                    defs.len(),
                    "{}: extra metrics",
                    w.name
                );
            }
        }
    }

    #[test]
    fn command_line_follows_the_contract() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let Ok(Command::Run(a)) = parse(argv(
            "--workload scale_nominal --seed 7 --seconds 3 --trace 1",
        )) else {
            panic!("a full command line parses")
        };
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace, a.quick),
            ("scale_nominal", 7, 3.0, true, false)
        );
        let Ok(Command::Run(a)) = parse(argv("--workload cluster_jobs")) else {
            panic!("defaults apply")
        };
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (42, f64::from(RUN_SECONDS), false)
        );
        assert!(matches!(
            parse(argv("--print-manifest")),
            Ok(Command::PrintManifest)
        ));
        for bad in [
            "",
            "--workload nope",
            "--workload cluster_jobs --trace 2",
            "--workload cluster_jobs --seed x",
            "--seed",
        ] {
            assert!(parse(argv(bad)).is_err(), "{bad:?} must be refused");
        }
    }
}
