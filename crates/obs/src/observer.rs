//! The instrumented choke point: one observer per run, called after every
//! placement decision.

use crate::counters::SchedCounters;
use crate::record::{DecisionRecord, FaultRecord, Phase};
use crate::sink::{NullSink, TraceSink};
use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::placer::{Decision, DecisionDetail, PlacerStats};
use pnats_net::NodeId;

/// Owns the run's [`TraceSink`] and [`SchedCounters`] and turns each
/// decision into a record (when tracing is enabled) plus counter
/// increments (always).
///
/// Both runtimes call [`observe_map`](Self::observe_map) /
/// [`observe_reduce`](Self::observe_reduce) immediately after the placer
/// returns, passing the same context snapshot the placer saw — that is
/// what makes the observer a single audited choke point instead of a
/// per-runtime reimplementation.
pub struct DecisionObserver {
    sink: Box<dyn TraceSink>,
    counters: SchedCounters,
    round: u64,
    /// Tenant id per job index; `None` outside multi-tenant service mode,
    /// which keeps single-pool trace bytes unchanged.
    job_tenant: Option<Vec<u32>>,
}

impl Default for DecisionObserver {
    fn default() -> Self {
        Self::disabled()
    }
}

impl std::fmt::Debug for DecisionObserver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DecisionObserver")
            .field("tracing", &self.sink.enabled())
            .field("counters", &self.counters)
            .field("round", &self.round)
            .finish()
    }
}

impl DecisionObserver {
    /// Counters only; records are dropped ([`NullSink`]).
    pub fn disabled() -> Self {
        Self::with_sink(Box::new(NullSink))
    }

    /// Counters plus records delivered to `sink`.
    pub fn with_sink(sink: Box<dyn TraceSink>) -> Self {
        Self { sink, counters: SchedCounters::default(), round: 0, job_tenant: None }
    }

    /// Tag subsequent records with each job's tenant (multi-tenant
    /// service mode only — tagged records serialize an extra `tenant`
    /// field, so single-pool runs must not call this).
    pub fn set_tenants(&mut self, job_tenant: Vec<u32>) {
        self.job_tenant = Some(job_tenant);
    }

    /// The tenant tag for `job`, if tenant tagging is active.
    fn tenant_of(&self, job: u32) -> Option<u32> {
        let tags = self.job_tenant.as_ref()?;
        Some(tags.get(job as usize).copied().unwrap_or(0))
    }

    /// Whether records are being built at all.
    pub fn tracing(&self) -> bool {
        self.sink.enabled()
    }

    /// Set the heartbeat round stamped on subsequent records.
    pub fn begin_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Book a map-placement decision.
    pub fn observe_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        decision: Decision,
        detail: Option<DecisionDetail>,
    ) {
        self.counters.record(decision);
        if self.sink.enabled() {
            let rec = DecisionRecord {
                t: ctx.now,
                round: self.round,
                phase: Phase::Map,
                job: ctx.job.0,
                tenant: self.tenant_of(ctx.job.0),
                node: node.0,
                candidates: ctx.candidates.len(),
                free_nodes: ctx.free_map_nodes.len(),
                decision,
                detail,
            };
            self.sink.record(&rec);
        }
    }

    /// Book a reduce-placement decision.
    pub fn observe_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        decision: Decision,
        detail: Option<DecisionDetail>,
    ) {
        self.counters.record(decision);
        if self.sink.enabled() {
            let rec = DecisionRecord {
                t: ctx.now,
                round: self.round,
                phase: Phase::Reduce,
                job: ctx.job.0,
                tenant: self.tenant_of(ctx.job.0),
                node: node.0,
                candidates: ctx.candidates.len(),
                free_nodes: ctx.free_reduce_nodes.len(),
                decision,
                detail,
            };
            self.sink.record(&rec);
        }
    }

    /// Book one fault-injection/recovery action: counter increments always,
    /// a trace line when the sink is enabled.
    pub fn observe_fault(&mut self, rec: &FaultRecord) {
        self.counters.record_fault(rec.kind);
        if self.sink.enabled() {
            self.sink.record_fault(rec);
        }
    }

    /// Fold the placer's internal prune tally into the counters.
    /// Call once, at end of run.
    pub fn absorb_placer(&mut self, stats: &PlacerStats) {
        self.counters.absorb_placer(stats);
    }

    /// Book the derived recovery tallies a journal replay computed: how
    /// much finished/assigned state this tracker incarnation inherited
    /// instead of scheduling itself. Called at most once, right after
    /// replay — these fields balance the cross-incarnation conservation
    /// laws (`pnats_cluster::check_cluster_report`).
    pub fn absorb_recovery(
        &mut self,
        recovered_maps: u64,
        recovered_reduces: u64,
        inherited_assignments: u64,
        recovered_reexec: u64,
    ) {
        self.counters.recovered_maps += recovered_maps;
        self.counters.recovered_reduces += recovered_reduces;
        self.counters.inherited_assignments += inherited_assignments;
        self.counters.recovered_reexec += recovered_reexec;
    }

    /// The counters accumulated so far.
    pub fn counters(&self) -> &SchedCounters {
        &self.counters
    }

    /// Take the buffered trace as JSONL, if the sink keeps one in memory.
    pub fn drain_jsonl(&mut self) -> Option<String> {
        self.sink.drain_jsonl()
    }

    /// Flush file-backed sinks.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::InMemorySink;
    use pnats_core::context::MapCandidate;
    use pnats_core::placer::SkipReason;
    use pnats_core::types::{JobId, MapTaskId};
    use pnats_net::{ClusterLayout, DistanceMatrix, RackId};

    fn with_ctx(f: impl FnOnce(&MapSchedContext<'_>)) {
        let h = DistanceMatrix::zero(2);
        let layout = ClusterLayout::new(vec![RackId(0); 2]);
        let cands = vec![MapCandidate {
            task: MapTaskId { job: JobId(3), index: 0 },
            block_size: 1,
            replicas: vec![NodeId(0)],
        }];
        let free = vec![NodeId(0), NodeId(1)];
        let ctx = MapSchedContext::new(JobId(3), &cands, &free, &h, &layout).at(2.5);
        f(&ctx);
    }

    #[test]
    fn disabled_observer_still_counts() {
        with_ctx(|ctx| {
            let mut obs = DecisionObserver::disabled();
            assert!(!obs.tracing());
            obs.observe_map(ctx, NodeId(0), Decision::Assign(0), None);
            obs.observe_map(ctx, NodeId(1), Decision::Skip(SkipReason::DrawFailed), None);
            assert_eq!(obs.counters().offers, 2);
            assert_eq!(obs.counters().assigns, 1);
            assert!(obs.counters().consistent());
            assert!(obs.drain_jsonl().is_none());
        });
    }

    #[test]
    fn tracing_observer_stamps_round_and_context() {
        with_ctx(|ctx| {
            let mut obs = DecisionObserver::with_sink(Box::new(InMemorySink::unbounded()));
            obs.begin_round(7);
            obs.observe_map(ctx, NodeId(1), Decision::Assign(0), None);
            let text = obs.drain_jsonl().expect("in-memory trace");
            let line = text.lines().next().expect("one record");
            assert!(line.contains("\"round\":7"), "{line}");
            assert!(line.contains("\"t\":2.5"), "{line}");
            assert!(line.contains("\"job\":3"), "{line}");
            assert!(line.contains("\"node\":1"), "{line}");
            assert!(line.contains("\"candidates\":1"), "{line}");
            assert!(line.contains("\"free\":2"), "{line}");
        });
    }

    #[test]
    fn tenant_tagging_is_opt_in() {
        with_ctx(|ctx| {
            // Untagged: historical byte layout.
            let mut obs = DecisionObserver::with_sink(Box::new(InMemorySink::unbounded()));
            obs.observe_map(ctx, NodeId(0), Decision::Assign(0), None);
            assert!(!obs.drain_jsonl().unwrap().contains("tenant"));
            // Tagged: job 3 belongs to tenant 1.
            let mut obs = DecisionObserver::with_sink(Box::new(InMemorySink::unbounded()));
            obs.set_tenants(vec![0, 0, 0, 1]);
            obs.observe_map(ctx, NodeId(0), Decision::Assign(0), None);
            let text = obs.drain_jsonl().unwrap();
            assert!(text.contains("\"job\":3,\"tenant\":1"), "{text}");
        });
    }

    #[test]
    fn fault_observation_counts_and_traces() {
        use crate::record::FaultKind;
        let mut obs = DecisionObserver::with_sink(Box::new(InMemorySink::unbounded()));
        obs.observe_fault(&FaultRecord {
            t: 9.0,
            kind: FaultKind::NodeCrash,
            node: 4,
            job: None,
            task: None,
        });
        obs.observe_fault(&FaultRecord {
            t: 9.0,
            kind: FaultKind::TaskRescheduled,
            node: 4,
            job: Some(0),
            task: Some(2),
        });
        assert_eq!(obs.counters().node_crashes, 1);
        assert_eq!(obs.counters().retries, 1);
        assert_eq!(obs.counters().offers, 0, "faults are not offers");
        assert!(obs.counters().consistent());
        let text = obs.drain_jsonl().expect("in-memory trace");
        assert_eq!(text.lines().count(), 2);
        assert!(text.contains("\"fault\":\"task_rescheduled\""), "{text}");
    }

    #[test]
    fn absorbs_placer_extras() {
        let mut obs = DecisionObserver::disabled();
        let stats = PlacerStats { pruned: 4, ..PlacerStats::default() };
        obs.absorb_placer(&stats);
        assert_eq!(obs.counters().pruned, 4);
    }
}
