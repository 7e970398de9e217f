//! Timing decorators for the two traits a simulation run calls back into:
//! [`TaskPlacer`] (the `core` and `baselines` layers) and [`TraceSink`]
//! (the `obs` layer). Both forward every method unchanged, so a decorated
//! run makes the same decisions and writes the same trace as a plain one —
//! the benchmark checks that on every traced cycle.
//!
//! A decorator keeps its tallies to itself while the run is in progress and
//! hands them over when the simulation drops it, so the hot path pays two
//! clock reads per call and no lock.

use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::placer::{Decision, DecisionDetail, PlacerStats, TaskPlacer};
use pnats_net::NodeId;
use pnats_obs::{DecisionRecord, FaultRecord, TraceSink};
use rand::rngs::SmallRng;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a [`TimedPlacer`] measured over one run.
#[derive(Clone, Debug, Default)]
pub struct PlaceLedger {
    pub map_calls: u64,
    pub map_busy_ns: u64,
    pub reduce_calls: u64,
    pub reduce_busy_ns: u64,
    /// Latency of every offer (map and reduce), nanoseconds.
    pub offer_ns: Vec<u32>,
}

/// A [`TaskPlacer`] that times `place_map` / `place_reduce`.
pub struct TimedPlacer {
    inner: Box<dyn TaskPlacer>,
    ledger: PlaceLedger,
    out: Arc<Mutex<PlaceLedger>>,
}

impl TimedPlacer {
    /// Wrap `inner`; the tallies land in `out` when the placer is dropped.
    pub fn new(inner: Box<dyn TaskPlacer>, out: Arc<Mutex<PlaceLedger>>) -> Self {
        Self {
            inner,
            ledger: PlaceLedger::default(),
            out,
        }
    }
}

impl TaskPlacer for TimedPlacer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let t = Instant::now();
        let d = self.inner.place_map(ctx, node, rng);
        let ns = t.elapsed().as_nanos() as u64;
        self.ledger.map_calls += 1;
        self.ledger.map_busy_ns += ns;
        self.ledger.offer_ns.push(ns.min(u32::MAX as u64) as u32);
        d
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let t = Instant::now();
        let d = self.inner.place_reduce(ctx, node, rng);
        let ns = t.elapsed().as_nanos() as u64;
        self.ledger.reduce_calls += 1;
        self.ledger.reduce_busy_ns += ns;
        self.ledger.offer_ns.push(ns.min(u32::MAX as u64) as u32);
        d
    }

    fn on_heartbeat_round(&mut self, round: u64) {
        self.inner.on_heartbeat_round(round);
    }

    fn stats(&self) -> Option<&PlacerStats> {
        self.inner.stats()
    }

    fn last_detail(&self) -> Option<DecisionDetail> {
        self.inner.last_detail()
    }
}

impl Drop for TimedPlacer {
    fn drop(&mut self) {
        // A poisoned lock means the benchmark is already failing; the
        // tallies are of no use then.
        if let Ok(mut out) = self.out.lock() {
            *out = std::mem::take(&mut self.ledger);
        }
    }
}

/// What a [`TimedSink`] measured over one run.
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkLedger {
    pub record_calls: u64,
    pub record_busy_ns: u64,
    pub drain_ns: u64,
    pub trace_bytes: u64,
}

/// A [`TraceSink`] that times `record`, `record_fault` and `drain_jsonl`.
pub struct TimedSink {
    inner: Box<dyn TraceSink>,
    ledger: SinkLedger,
    out: Arc<Mutex<SinkLedger>>,
}

impl TimedSink {
    /// Wrap `inner`; the tallies land in `out` when the sink is dropped.
    pub fn new(inner: Box<dyn TraceSink>, out: Arc<Mutex<SinkLedger>>) -> Self {
        Self {
            inner,
            ledger: SinkLedger::default(),
            out,
        }
    }
}

impl TraceSink for TimedSink {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, rec: &DecisionRecord) {
        let t = Instant::now();
        self.inner.record(rec);
        self.ledger.record_busy_ns += t.elapsed().as_nanos() as u64;
        self.ledger.record_calls += 1;
    }

    fn record_fault(&mut self, rec: &FaultRecord) {
        let t = Instant::now();
        self.inner.record_fault(rec);
        self.ledger.record_busy_ns += t.elapsed().as_nanos() as u64;
        self.ledger.record_calls += 1;
    }

    fn drain_jsonl(&mut self) -> Option<String> {
        let t = Instant::now();
        let out = self.inner.drain_jsonl();
        self.ledger.drain_ns += t.elapsed().as_nanos() as u64;
        self.ledger.trace_bytes += out.as_ref().map_or(0, |s| s.len() as u64);
        out
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

impl Drop for TimedSink {
    fn drop(&mut self) {
        if let Ok(mut out) = self.out.lock() {
            *out = self.ledger;
        }
    }
}
