#![warn(missing_docs)]
//! # pnats-cluster — a real TCP JobTracker/TaskTracker runtime
//!
//! The third runtime behind the paper's scheduling contract, after the
//! discrete-event simulator and the threaded engine: a JobTracker daemon
//! and TaskTracker workers exchanging [`pnats_rpc`] frames over real
//! `std::net` sockets. Workers can be threads in one process (tests,
//! [`run_cluster`]) or separate OS processes (the `pnats-cluster` binary)
//! — the protocol is identical.
//!
//! The tracker runs the *unmodified* [`pnats_core::placer::TaskPlacer`]
//! implementations, and it schedules from the *same* job book as the
//! engine: [`pnats_engine::book::JobScheduler`] owns job derivation, the
//! offer loop and every per-task transition, the tracker is one of its two
//! drivers, and a restarted tracker rebuilds its book by folding the
//! journal through the book's own `apply` — replay is the live transition
//! function, not a re-implementation of it. Because both runtimes execute
//! tasks through
//! [`pnats_engine::exec`]'s pure primitives, split blocks the same way,
//! and collect reduce inputs in map-index order, a cluster run's output is
//! **byte-identical** to an engine run with the same seed — placement and
//! timing shape who computes where, never what comes out. The parity
//! tests in this crate hold that line.
//!
//! Liveness is real here: a worker silent for more than `expire_after`
//! heartbeat rounds (lost heartbeats, a SIGKILLed process) is declared
//! dead, its completed map outputs are invalidated and re-executed under
//! crash-epoch semantics, and the worker — if it is actually alive —
//! wipes and re-registers under a bumped epoch when it learns of its
//! demise.

pub mod config;
pub mod jobspec;
pub mod journal;
pub mod report;
pub mod tracker;
pub mod worker;

pub use config::ClusterConfig;
pub use jobspec::JobSpec;
pub use journal::{
    check_journal_recovery, read_journal, FsyncPolicy, Journal, JournalRecord, JournalState,
};
pub use report::{check_cluster_report, ClusterReport, ReportSummary, Stages};
pub use tracker::JobTracker;
pub use worker::{run_worker, WorkerConfig};
pub use pnats_rpc::{BreakerPolicy, ChaosFault, LinkRule};

use pnats_core::placer::TaskPlacer;
use pnats_obs::DecisionObserver;
use pnats_rpc::{ChaosNet, ChaosPlan};
use std::sync::Arc;

/// Scheduler selection by name for the `pnats-cluster` binary and the
/// smoke tests: the paper's probabilistic placer plus the baseline suite.
pub fn placer_by_name(name: &str, heartbeat_s: f64) -> Option<Box<dyn TaskPlacer>> {
    use pnats_baselines::{
        CouplingPlacer, FairDelayPlacer, FifoGreedyPlacer, LartsPlacer, MinCostPlacer,
        QuincyPlacer, RandomPlacer,
    };
    use pnats_core::prob_sched::ProbabilisticPlacer;
    Some(match name {
        "paper" | "probabilistic" => Box::new(ProbabilisticPlacer::paper()),
        "fifo" => Box::new(FifoGreedyPlacer),
        "random" => Box::new(RandomPlacer),
        "fair" => Box::new(FairDelayPlacer::hadoop_defaults()),
        "mincost" => Box::new(MinCostPlacer::new()),
        "larts" => Box::new(LartsPlacer::default()),
        "quincy" => Box::new(QuincyPlacer),
        "coupling" => Box::new(CouplingPlacer::paper_at(heartbeat_s)),
        _ => return None,
    })
}

/// Grow this process's descriptor table past the sizes a cluster run
/// reaches, once. Linux doubles the table when a process crosses 64, 128
/// or 256 open descriptors, and every thread opening a socket meanwhile
/// waits out an RCU grace period (10–26 ms measured) — long enough to fail
/// a timing-shaped test. The kernel never shrinks the table, so opening
/// about 300 handles and dropping them keeps every later socket clear of a
/// resize. Test harnesses and the cluster `repro` gates call this first;
/// calls after the first do nothing.
pub fn pregrow_descriptor_table() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let held: Vec<_> =
            (0..300).map_while(|_| std::fs::File::open("/dev/null").ok()).collect();
        drop(held);
    });
}

/// Run one job on an in-process cluster: a tracker plus `cfg.n_nodes`
/// worker threads, all speaking real TCP over loopback. Blocks until the
/// job completes (or `cfg.max_wall` fires) and returns the report.
pub fn run_cluster(
    cfg: &ClusterConfig,
    spec: &JobSpec,
    n_reduces: usize,
    input: &str,
    placer: Box<dyn TaskPlacer>,
) -> ClusterReport {
    run_fleet(cfg, spec, n_reduces, input, placer, None)
}

/// Like [`run_cluster`], but with every wire the job depends on routed
/// through seeded chaos proxies on `plan`: each worker's control plane
/// (heartbeats, registrations, resolver and reducer calls) crosses link
/// `ctl:w<i>` and its advertised data plane (peer block/partition fetches)
/// crosses link `data:w<i>`. With [`ChaosPlan::none`] every proxy is transparent
/// and the run is behaviorally identical to [`run_cluster`].
///
/// Returns the report plus the [`ChaosNet`] so callers can audit the
/// injected-fault event log.
pub fn run_cluster_chaos(
    cfg: &ClusterConfig,
    spec: &JobSpec,
    n_reduces: usize,
    input: &str,
    placer: Box<dyn TaskPlacer>,
    plan: ChaosPlan,
) -> (ClusterReport, Arc<ChaosNet>) {
    let net = ChaosNet::new(plan);
    (run_fleet(cfg, spec, n_reduces, input, placer, Some(&net)), net)
}

/// The body of [`run_cluster`] and [`run_cluster_chaos`]: start the
/// tracker, run one worker per node on a pooled thread (behind a
/// `ctl:w<i>` proxy on `chaos`, when given), and wait for the report.
fn run_fleet(
    cfg: &ClusterConfig,
    spec: &JobSpec,
    n_reduces: usize,
    input: &str,
    placer: Box<dyn TaskPlacer>,
    chaos: Option<&Arc<ChaosNet>>,
) -> ClusterReport {
    let tracker = JobTracker::start(
        "127.0.0.1:0",
        cfg.clone(),
        spec.clone(),
        n_reduces,
        input,
        placer,
        DecisionObserver::disabled(),
    )
    .expect("bind tracker on loopback");
    let addr = tracker.addr().to_string();
    // The proxies must outlive the workers that dial through them.
    let mut ctl_proxies = Vec::new();
    let workers: Vec<_> = (0..cfg.n_nodes)
        .map(|i| {
            let mut wc = cfg.worker(i as u32, &addr);
            if let Some(net) = chaos {
                let ctl =
                    net.proxy(&format!("ctl:w{i}"), &addr).expect("bind chaos proxy on loopback");
                wc.tracker_addr = ctl.addr().to_string();
                wc.chaos = Some(Arc::clone(net));
                ctl_proxies.push(ctl);
            }
            pnats_rpc::pool::spawn(move || {
                let _ = run_worker(wc);
            })
        })
        .collect();
    let report = tracker.wait();
    for w in workers {
        let _ = w.join();
    }
    report
}

#[cfg(test)]
mod tests {
    /// The pre-grow leaves the table past its 256-slot doubling, where the
    /// kernel reports it (`FDSize`, the table's capacity, not its use).
    #[test]
    #[cfg(target_os = "linux")]
    fn the_descriptor_table_is_pregrown_past_256() {
        super::pregrow_descriptor_table();
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let size = status.lines().find_map(|l| l.strip_prefix("FDSize:")).unwrap();
        assert!(size.trim().parse::<usize>().unwrap() > 256, "FDSize {size}");
    }
}
