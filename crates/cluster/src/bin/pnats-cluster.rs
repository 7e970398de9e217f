//! Cluster runtime entry point: run a JobTracker daemon or a TaskTracker
//! worker as a real OS process.
//!
//! ```text
//! pnats-cluster tracker --listen 127.0.0.1:7070 --job wordcount \
//!     --input in.txt --nodes 4 --reduces 3 --scheduler paper \
//!     --report report.txt
//! pnats-cluster worker --node 0 --tracker 127.0.0.1:7070
//! ```
//!
//! The tracker prints (or writes with `--report`) the flat report form of
//! [`pnats_cluster::ReportSummary`] and exits non-zero on a failed job.

use pnats_cluster::{check_cluster_report, ClusterConfig, JobSpec, JobTracker};
use pnats_obs::DecisionObserver;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str = "usage: pnats-cluster tracker --listen ADDR --job wordcount|grep:<needle>|terasort --input FILE \
[--nodes N] [--reduces R] [--map-slots M] [--reduce-slots S] [--block-bytes B] [--heartbeat-ms T] \
[--expire-after K] [--cpu-us-per-kib C] [--seed S] [--scheduler NAME] [--max-wall-s W] [--report FILE] [--trace FILE] \
[--journal FILE] [--fsync never|always] [--reattach-grace K]\n\
       pnats-cluster worker --node I --tracker ADDR [--map-slots M] [--reduce-slots S] [--heartbeat-ms T] [--orphan-grace-ms T]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match args[0].as_str() {
        "tracker" => run_tracker(&args[1..]),
        "worker" => run_worker_cmd(&args[1..]),
        other => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` pairs into a lookup; returns `None` on a dangling key.
fn parse_flags(args: &[String]) -> Option<Vec<(String, String)>> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(k) = it.next() {
        let k = k.strip_prefix("--")?;
        let v = it.next()?;
        out.push((k.to_string(), v.clone()));
    }
    Some(out)
}

fn get<'a>(flags: &'a [(String, String)], key: &str) -> Option<&'a str> {
    flags.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
}

fn run_tracker(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let listen = get(&flags, "listen").unwrap_or("127.0.0.1:0");
    let Some(spec) = get(&flags, "job").and_then(JobSpec::from_wire) else {
        eprintln!("tracker needs --job wordcount|grep:<needle>|terasort");
        return ExitCode::FAILURE;
    };
    let Some(input_path) = get(&flags, "input") else {
        eprintln!("tracker needs --input FILE");
        return ExitCode::FAILURE;
    };
    let input = match std::fs::read_to_string(input_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {input_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut cfg = ClusterConfig::default();
    let parse = |s: &str| s.parse::<u64>().ok();
    if let Some(n) = get(&flags, "nodes").and_then(parse) {
        cfg.n_nodes = n as usize;
    }
    if let Some(n) = get(&flags, "map-slots").and_then(parse) {
        cfg.map_slots = n as u32;
    }
    if let Some(n) = get(&flags, "reduce-slots").and_then(parse) {
        cfg.reduce_slots = n as u32;
    }
    if let Some(n) = get(&flags, "block-bytes").and_then(parse) {
        cfg.block_bytes = n as usize;
    }
    if let Some(n) = get(&flags, "heartbeat-ms").and_then(parse) {
        cfg.heartbeat = Duration::from_millis(n);
    }
    if let Some(n) = get(&flags, "expire-after").and_then(parse) {
        cfg.expire_after = n;
    }
    if let Some(n) = get(&flags, "cpu-us-per-kib").and_then(parse) {
        cfg.cpu_us_per_kib = n;
    }
    if let Some(n) = get(&flags, "seed").and_then(parse) {
        cfg.seed = n;
    }
    if let Some(n) = get(&flags, "max-wall-s").and_then(parse) {
        cfg.max_wall = Duration::from_secs(n);
    }
    if let Some(path) = get(&flags, "journal") {
        cfg.journal = Some(path.into());
    }
    if let Some(policy) = get(&flags, "fsync") {
        let Some(p) = pnats_cluster::FsyncPolicy::parse(policy) else {
            eprintln!("--fsync takes `never` or `always`, not `{policy}`");
            return ExitCode::FAILURE;
        };
        cfg.journal_fsync = p;
    }
    if let Some(n) = get(&flags, "reattach-grace").and_then(parse) {
        cfg.reattach_grace = n;
    }
    let n_reduces = get(&flags, "reduces").and_then(parse).unwrap_or(3) as usize;
    let sched = get(&flags, "scheduler").unwrap_or("paper");
    let Some(placer) = pnats_cluster::placer_by_name(sched, cfg.heartbeat.as_secs_f64()) else {
        eprintln!("unknown scheduler `{sched}`");
        return ExitCode::FAILURE;
    };
    let observer = match get(&flags, "trace") {
        Some(path) => match pnats_obs::JsonlFileSink::create(path) {
            Ok(sink) => DecisionObserver::with_sink(Box::new(sink)),
            Err(e) => {
                eprintln!("cannot create trace file {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => DecisionObserver::disabled(),
    };
    let tracker =
        match JobTracker::start(listen, cfg, spec, n_reduces, &input, placer, observer) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot bind {listen}: {e}");
                return ExitCode::FAILURE;
            }
        };
    // Parents scrape this line to learn the ephemeral port.
    println!("tracker listening on {}", tracker.addr());
    let report = tracker.wait();
    if let Err(e) = check_cluster_report(&report) {
        eprintln!("oracle violation: {e}");
        return ExitCode::FAILURE;
    }
    let text = report.to_text();
    match get(&flags, "report") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &text) {
                eprintln!("cannot write report {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => print!("{text}"),
    }
    if report.failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn run_worker_cmd(args: &[String]) -> ExitCode {
    let Some(flags) = parse_flags(args) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let Some(node) = get(&flags, "node").and_then(|s| s.parse::<u32>().ok()) else {
        eprintln!("worker needs --node I");
        return ExitCode::FAILURE;
    };
    let Some(tracker_addr) = get(&flags, "tracker") else {
        eprintln!("worker needs --tracker ADDR");
        return ExitCode::FAILURE;
    };
    let defaults = ClusterConfig::default();
    let fleet = ClusterConfig {
        map_slots: get(&flags, "map-slots")
            .and_then(|s| s.parse().ok())
            .unwrap_or(defaults.map_slots),
        reduce_slots: get(&flags, "reduce-slots")
            .and_then(|s| s.parse().ok())
            .unwrap_or(defaults.reduce_slots),
        heartbeat: get(&flags, "heartbeat-ms")
            .and_then(|s| s.parse().ok())
            .map(Duration::from_millis)
            .unwrap_or(defaults.heartbeat),
        orphan_grace: get(&flags, "orphan-grace-ms")
            .and_then(|s| s.parse().ok())
            .map(Duration::from_millis)
            .unwrap_or(defaults.orphan_grace),
        ..defaults
    };
    let cfg = fleet.worker(node, tracker_addr);
    match pnats_cluster::run_worker(cfg) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("worker {node}: {e}");
            ExitCode::FAILURE
        }
    }
}
