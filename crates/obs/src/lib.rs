#![warn(missing_docs)]
//! # pnats-obs — decision tracing and scheduler counters
//!
//! The paper's contribution lives in per-heartbeat decisions (Algorithms
//! 1–2: cost `C_i`, mean `C_ave`, probability `P`, the `P_min` gate, the
//! Bernoulli draw), yet a scheduler run normally throws those
//! intermediates away. This crate is the observability pipeline both
//! runtimes (the discrete-event simulator and the threaded engine) feed:
//!
//! * [`record`] — [`DecisionRecord`], one structured line per
//!   `place_map`/`place_reduce` call: sim time, heartbeat round, node,
//!   candidate-set size, the winner's `C_i`/`C_ave`/`P`, draw outcome or
//!   [`SkipReason`]. Fault injection adds [`FaultRecord`] lines (crashes,
//!   recoveries, invalidated map outputs, retries) interleaved in the same
//!   stream.
//! * [`sink`] — the [`TraceSink`] trait records flow into: [`NullSink`]
//!   (zero-cost default), [`InMemorySink`] (ring-buffered),
//!   [`JsonlFileSink`] (streaming JSONL file).
//! * [`counters`] — [`SchedCounters`], monotonic per-scheduler counters
//!   (offers, assigns, skips by reason, the prune tally) with the invariant
//!   `offers = assigns + Σ skips`.
//! * [`observer`] — [`DecisionObserver`], the single instrumented choke
//!   point runtimes call after each placement decision.
//! * [`ledger`] — [`check_ledger`], the exactly-once-per-epoch law every
//!   runtime's completion ledger ([`TaskCompletion`]s, trace records) keeps.
//! * [`json`] — a dependency-free JSON syntax validator for CI checks of
//!   emitted trace lines, and [`json::set_member`], which sets one member
//!   of a `BENCH_*.json` file.
//!
//! With the default [`NullSink`] the per-decision cost is a handful of
//! counter increments; no record is built unless the sink reports itself
//! enabled.
//!
//! [`SkipReason`]: pnats_core::placer::SkipReason

pub mod counters;
pub mod json;
pub mod ledger;
pub mod observer;
pub mod record;
pub mod sink;

pub use counters::SchedCounters;
pub use ledger::{check_ledger, JobLedger, LedgerKey};
pub use observer::DecisionObserver;
pub use record::{DecisionRecord, FaultKind, FaultRecord, Phase, TaskCompletion, TaskKind};
pub use sink::{InMemorySink, JsonlFileSink, NullSink, TraceSink};
