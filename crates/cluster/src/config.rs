//! Cluster runtime configuration — the distributed twin of
//! [`pnats_engine::EngineConfig`], plus the knobs only a real network
//! needs: liveness expiry, IO deadlines, RPC retry budgets.

use crate::journal::FsyncPolicy;
use crate::worker::WorkerConfig;
use pnats_core::faults::FaultPlan;
use pnats_core::partition::Partitioner;
use pnats_engine::EngineConfig;
use pnats_rpc::{BreakerPolicy, RetryPolicy};
use std::path::PathBuf;
use std::time::Duration;

/// Configuration for a tracker + worker fleet. Fields shared with
/// [`EngineConfig`] carry identical semantics so a cluster run and an
/// engine run over the same seed are comparable task-for-task; the extras
/// (`expire_after`, `io_timeout`, `retry`, `max_wall`) govern the real
/// TCP plane the engine does not have.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Worker (TaskTracker) count. Node ids are `0..n_nodes`.
    pub n_nodes: usize,
    /// Map slots per worker.
    pub map_slots: u32,
    /// Reduce slots per worker.
    pub reduce_slots: u32,
    /// Input split size in bytes.
    pub block_bytes: usize,
    /// Replication factor for input blocks.
    pub replication: usize,
    /// Heartbeat period (worker send interval and tracker round length).
    pub heartbeat: Duration,
    /// Simulated map compute cost: microseconds per KiB of input. Drives
    /// the pacing sleeps inside map attempts, exactly as in the engine.
    pub cpu_us_per_kib: u64,
    /// Fraction of maps that must finish before reduces launch.
    pub slowstart: f64,
    /// Shuffle-partition choice.
    pub partitioner: Partitioner,
    /// Seed for replica placement and placer randomness.
    pub seed: u64,
    /// Deterministic fault plan, keyed by heartbeat round like the
    /// engine's: crashes at `at as u64`, heartbeat-loss windows over
    /// `[from as u64, until as u64)` rounds. Loss windows are *honored*
    /// here (the engine ignores them): an in-window heartbeat is observed
    /// as lost and not applied.
    pub faults: FaultPlan,
    /// Liveness threshold `k`: a registered worker silent for more than
    /// `k` rounds is declared dead, its map outputs invalidated.
    pub expire_after: u64,
    /// Read/write deadline on every TCP stream (tracker and workers).
    pub io_timeout: Duration,
    /// Retry budget + backoff for worker→tracker and worker→worker calls.
    pub retry: RetryPolicy,
    /// Hard wall-clock cap on a job; exceeded means a failed report
    /// instead of a hung test run.
    pub max_wall: Duration,
    /// Per-peer circuit breaker for worker partition fetches: after
    /// `threshold` consecutive failures the peer is skipped for `cooldown`
    /// checks, and a breaker that stays tripped escalates to the tracker
    /// as a `SourceUnreachable` report (re-executing the map elsewhere).
    pub breaker: BreakerPolicy,
    /// Tracker safe-mode threshold: when the fraction of workers still
    /// heartbeating falls *below* this value, the tracker stops expiring
    /// the silent ones (a mass silence is more likely the tracker's own
    /// partition than a simultaneous fleet death) and emits a
    /// `degraded_mode` fault record. `0.0` disables safe-mode entirely —
    /// the default, so fault-plan parity with the engine is untouched.
    pub safe_mode_below: f64,
    /// Durable write-ahead job journal path. `None` (the default) keeps
    /// the tracker in-memory-only, exactly as before; `Some(path)` makes
    /// every scheduler mutation journaled *before* it is applied, and a
    /// tracker started over a non-empty journal recovers from it instead
    /// of starting the job fresh.
    pub journal: Option<PathBuf>,
    /// When journal appends reach stable storage. [`FsyncPolicy::Never`]
    /// (default) survives tracker SIGKILL; [`FsyncPolicy::Always`] also
    /// survives OS crashes.
    pub journal_fsync: FsyncPolicy,
    /// Rounds a recovered tracker waits for journal-known workers to
    /// re-attach before treating them as expired. Must comfortably exceed
    /// `expire_after` — an orphaned worker's reconnect backoff can span
    /// several normal expiry windows.
    pub reattach_grace: u64,
    /// How long an orphaned worker keeps re-dialing a dead tracker before
    /// giving up and exiting. The hold state: tasks keep running, outputs
    /// are kept, heartbeats are swapped for `Reattach` probes.
    pub orphan_grace: Duration,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_nodes: 4,
            map_slots: 2,
            reduce_slots: 1,
            block_bytes: 4 << 10,
            replication: 2,
            heartbeat: Duration::from_millis(5),
            cpu_us_per_kib: 30,
            slowstart: 0.25,
            partitioner: Partitioner::Hash,
            seed: 42,
            faults: FaultPlan::none(),
            expire_after: 8,
            io_timeout: Duration::from_secs(2),
            retry: RetryPolicy::default(),
            max_wall: Duration::from_secs(120),
            breaker: BreakerPolicy::default(),
            safe_mode_below: 0.0,
            journal: None,
            journal_fsync: FsyncPolicy::Never,
            reattach_grace: 40,
            orphan_grace: Duration::from_secs(8),
        }
    }
}

impl ClusterConfig {
    /// The engine configuration that produces the *same job* — identical
    /// splits, replicas, partitions and fault verdicts — for parity
    /// comparisons. Network/compute pacing fields only shape timing, never
    /// output, so the engine defaults are kept there.
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            n_nodes: self.n_nodes,
            map_slots: self.map_slots,
            reduce_slots: self.reduce_slots,
            block_bytes: self.block_bytes,
            replication: self.replication,
            cpu_us_per_kib: self.cpu_us_per_kib,
            slowstart: self.slowstart,
            partitioner: self.partitioner,
            seed: self.seed,
            faults: self.faults.clone(),
            ..EngineConfig::default()
        }
    }

    /// The configuration of this fleet's worker `node`, reaching the
    /// tracker at `tracker_addr`, with no chaos proxy on its data plane.
    pub fn worker(&self, node: u32, tracker_addr: &str) -> WorkerConfig {
        WorkerConfig {
            node,
            tracker_addr: tracker_addr.to_string(),
            map_slots: self.map_slots,
            reduce_slots: self.reduce_slots,
            heartbeat: self.heartbeat,
            io_timeout: self.io_timeout,
            retry: self.retry.clone(),
            breaker: self.breaker,
            chaos: None,
            orphan_grace: self.orphan_grace,
        }
    }
}
