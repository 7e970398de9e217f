//! Monotonic per-scheduler decision counters.
//!
//! The accounting identity every run must satisfy — checked by tests and
//! by the CI `trace_check` bin — is
//! `offers == assigns + Σ_reason skips[reason]`: each heartbeat slot offer
//! produces exactly one decision.

use crate::record::FaultKind;
use pnats_core::placer::{Decision, PlacerStats, SkipReason};

/// Declares [`SchedCounters`] from the one table of its scalar counters,
/// listed in serialization order with `[skips]` marking where the
/// per-[`SkipReason`] array goes. The struct, `merge` and the key ↔ field
/// mapping that `to_kv`, `from_kv` and `to_json_object` walk are all
/// generated from this list, so a new counter is one entry here.
macro_rules! sched_counters {
    ($($(#[$hdoc:meta])* $head:ident,)* [skips] $($(#[$tdoc:meta])* $tail:ident,)*) => {
        /// Counters over every placement decision a run made, plus the
        /// probabilistic placer's prune tally and the fault/recovery ledger.
        #[derive(Clone, Debug, Default, PartialEq, Eq)]
        pub struct SchedCounters {
            $($(#[$hdoc])* pub $head: u64,)*
            /// Offers skipped, by [`SkipReason`] (indexed by `reason as usize`).
            pub skips: [u64; SkipReason::COUNT],
            $($(#[$tdoc])* pub $tail: u64,)*
        }

        impl SchedCounters {
            /// Add another run's counters into this aggregate.
            pub fn merge(&mut self, other: &SchedCounters) {
                $(self.$head += other.$head;)*
                for (a, b) in self.skips.iter_mut().zip(other.skips.iter()) {
                    *a += b;
                }
                $(self.$tail += other.$tail;)*
            }

            /// Visit every counter as `(key, value)` in serialization order.
            fn for_each(&self, mut f: impl FnMut(&str, u64)) {
                $(f(stringify!($head), self.$head);)*
                for r in SkipReason::ALL {
                    f(&format!("skip_{}", r.label()), self.skipped(r));
                }
                $(f(stringify!($tail), self.$tail);)*
            }

            /// The counter serialized under `key`, if there is one.
            fn slot(&mut self, key: &str) -> Option<&mut u64> {
                match key {
                    $(stringify!($head) => Some(&mut self.$head),)*
                    $(stringify!($tail) => Some(&mut self.$tail),)*
                    _ => {
                        let label = key.strip_prefix("skip_")?;
                        let r = SkipReason::ALL.iter().find(|r| r.label() == label)?;
                        Some(&mut self.skips[*r as usize])
                    }
                }
            }
        }
    };
}

sched_counters! {
    /// Slot offers made (`place_map` + `place_reduce` calls).
    offers,
    /// Offers that assigned a task.
    assigns,
    [skips]
    /// Candidates cost-ceiling-pruned inside the probabilistic placer.
    pruned,
    /// Always 0: the placer no longer memoizes `C_ave`. Kept, with
    /// `cache_misses`, because `benchmark/src/simload.rs` reads both and
    /// the benchmark is frozen across PRs; a benchmark PR drops them
    /// together with its `core.cache_hit_ratio` row.
    cache_hits,
    /// Always 0; see `cache_hits`.
    cache_misses,
    /// Node crashes injected by the run's fault plan.
    node_crashes,
    /// Task attempts killed and put back in the queue (crash reschedules +
    /// transient failures).
    retries,
    /// Completed maps whose output died with its node and had to re-run in a
    /// fresh epoch.
    reexecuted_maps,
    /// Heartbeats dropped by loss windows (node alive, master deaf).
    lost_heartbeats,
    /// RPC calls that failed and were retried (cluster runtime only).
    rpc_retries,
    /// Peers the tracker expired after `k` missed heartbeats (cluster
    /// runtime's crash detections).
    peers_expired,
    /// Per-peer circuit breakers tripped open.
    breaker_trips,
    /// Circuit breakers closed again after a successful probe.
    breaker_closes,
    /// Map outputs fetched from an alternate source after the primary
    /// holder was unreachable.
    alt_source_fetches,
    /// Frames rejected for a checksum mismatch (connection poisoned).
    corrupt_frames,
    /// Links observed partitioned/black-holed/reset by the chaos layer.
    link_partitions,
    /// Times the tracker entered degraded (safe) mode.
    degraded_entries,
    /// Arriving jobs shed by service-mode admission control.
    jobs_rejected,
    /// Running map attempts killed by the service-mode preemption policy
    /// (each also books one retry when the attempt is requeued).
    preemptions,
    /// Tracker incarnations that recovered from a crash (cluster runtime:
    /// journal replay at startup).
    tracker_restarts,
    /// Durable job journals replayed into a fresh tracker.
    journal_replays,
    /// Surviving workers that re-attached to a restarted tracker via
    /// `Msg::Reattach` without wiping state.
    worker_reattaches,
    /// Journal-inherited attempts confirmed live by a re-attaching worker
    /// and adopted instead of re-issued.
    attempts_reconciled,
    /// Map completions restored from the journal at recovery (finished
    /// before the crash; no new assignment was needed this incarnation).
    recovered_maps,
    /// Reduce completions restored from the journal at recovery.
    recovered_reduces,
    /// Assignments restored from the journal still unfinished at recovery
    /// (this incarnation inherits them without booking an `assigns`).
    inherited_assignments,
    /// Sum of map crash epochs restored from the journal at recovery —
    /// re-executions booked by *previous* incarnations, needed to balance
    /// the cross-incarnation completion-ledger law.
    recovered_reexec,
}

impl SchedCounters {
    /// Book one decision.
    pub fn record(&mut self, decision: Decision) {
        self.offers += 1;
        match decision {
            Decision::Assign(_) => self.assigns += 1,
            Decision::Skip(r) => self.skips[r as usize] += 1,
        }
    }

    /// Book one fault/recovery action. Kinds that are pure annotations
    /// (recoveries, link windows, job failures) leave the counters alone.
    pub fn record_fault(&mut self, kind: FaultKind) {
        match kind {
            FaultKind::NodeCrash => self.node_crashes += 1,
            FaultKind::HeartbeatLost => self.lost_heartbeats += 1,
            FaultKind::MapInvalidated => self.reexecuted_maps += 1,
            FaultKind::TaskRescheduled | FaultKind::TransientFailure => self.retries += 1,
            FaultKind::RpcRetry => self.rpc_retries += 1,
            FaultKind::PeerExpired => self.peers_expired += 1,
            FaultKind::CircuitOpen => self.breaker_trips += 1,
            FaultKind::CircuitClose => self.breaker_closes += 1,
            FaultKind::AltSourceFetch => self.alt_source_fetches += 1,
            FaultKind::FrameCorrupted => self.corrupt_frames += 1,
            FaultKind::LinkPartitioned => self.link_partitions += 1,
            FaultKind::DegradedMode => self.degraded_entries += 1,
            FaultKind::JobRejected => self.jobs_rejected += 1,
            FaultKind::MapPreempted => self.preemptions += 1,
            FaultKind::TrackerRestart => self.tracker_restarts += 1,
            FaultKind::JournalReplayed => self.journal_replays += 1,
            FaultKind::WorkerReattached => self.worker_reattaches += 1,
            FaultKind::AttemptReconciled => self.attempts_reconciled += 1,
            FaultKind::NodeRecover
            | FaultKind::JobFailed
            | FaultKind::LinkDegraded
            | FaultKind::LinkRestored => {}
        }
    }

    /// Copy the placer-internal prune tally out of a [`PlacerStats`]. Call
    /// once at end of run — placer stats are cumulative.
    pub fn absorb_placer(&mut self, stats: &PlacerStats) {
        self.pruned += stats.pruned;
    }

    /// Skip count for one reason.
    pub fn skipped(&self, reason: SkipReason) -> u64 {
        self.skips[reason as usize]
    }

    /// Total skips across all reasons.
    pub fn total_skips(&self) -> u64 {
        self.skips.iter().sum()
    }

    /// The accounting identity: every offer became exactly one decision.
    pub fn consistent(&self) -> bool {
        self.offers == self.assigns + self.total_skips()
    }

    /// [`consistent`](Self::consistent) as an oracle verdict: the `Err`
    /// names the three tallies.
    pub fn check_offer_identity(&self) -> Result<(), String> {
        if self.consistent() {
            return Ok(());
        }
        Err(format!(
            "offer identity violated: offers={} assigns={} skips={}",
            self.offers,
            self.assigns,
            self.total_skips()
        ))
    }

    /// Serialize as space-separated `key=value` pairs (the cluster report's
    /// `counters` line, `repro trace_check`'s per-scheduler lines).
    pub fn to_kv(&self) -> String {
        let mut pairs = Vec::new();
        self.for_each(|key, v| pairs.push(format!("{key}={v}")));
        pairs.join(" ")
    }

    /// Parse the `key=value` fields of [`to_kv`](Self::to_kv) back out of a
    /// token stream (unknown keys are ignored, so the format can grow).
    pub fn from_kv<'a>(tokens: impl Iterator<Item = &'a str>) -> SchedCounters {
        let mut c = SchedCounters::default();
        for (key, value) in tokens.filter_map(|tok| tok.split_once('=')) {
            if let (Some(slot), Ok(v)) = (c.slot(key), value.parse()) {
                *slot = v;
            }
        }
        c
    }

    /// Serialize as a JSON object (hand-rolled; the repo vendors no serde)
    /// for `BENCH_harness.json`.
    pub fn to_json_object(&self, indent: &str) -> String {
        let mut rows = Vec::new();
        self.for_each(|key, v| rows.push(format!("{indent}  \"{key}\": {v}")));
        format!("{{\n{}\n{indent}}}", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_preserves_offer_identity() {
        let mut c = SchedCounters::default();
        c.record(Decision::Assign(0));
        c.record(Decision::Skip(SkipReason::DrawFailed));
        c.record(Decision::Skip(SkipReason::Collocated));
        assert_eq!(c.offers, 3);
        assert_eq!(c.assigns, 1);
        assert_eq!(c.skipped(SkipReason::DrawFailed), 1);
        assert_eq!(c.total_skips(), 2);
        assert!(c.consistent());
    }

    /// Every counter set to its 1-based position in the serialization
    /// order (`offers` = 1 … `recovered_reexec` = 35), driven by the table.
    fn distinct_per_field() -> SchedCounters {
        let mut keys = Vec::new();
        SchedCounters::default().for_each(|key, _| keys.push(key.to_string()));
        let mut c = SchedCounters::default();
        for (i, key) in keys.iter().enumerate() {
            *c.slot(key).expect("every serialized key has a slot") = i as u64 + 1;
        }
        c
    }

    #[test]
    fn kv_roundtrip() {
        let c = distinct_per_field();
        // The table's keys are the public field names.
        assert_eq!((c.offers, c.assigns, c.skips), (1, 2, [3, 4, 5, 6, 7, 8, 9, 10]));
        assert_eq!((c.pruned, c.node_crashes, c.recovered_reexec), (11, 14, 35));
        let kv = c.to_kv();
        let back = SchedCounters::from_kv(kv.split_whitespace());
        assert_eq!(back, c);
        let mut doubled = c.clone();
        doubled.merge(&c);
        doubled.for_each(|key, v| assert_eq!(v % 2, 0, "{key} not merged"));
        assert_eq!(doubled.recovered_reexec, 70);
    }

    #[test]
    fn record_fault_books_each_kind() {
        let mut c = SchedCounters::default();
        for kind in [
            FaultKind::NodeCrash,
            FaultKind::MapInvalidated,
            FaultKind::TaskRescheduled,
            FaultKind::TransientFailure,
            FaultKind::HeartbeatLost,
            FaultKind::NodeRecover,
            FaultKind::RpcRetry,
            FaultKind::RpcRetry,
            FaultKind::PeerExpired,
            FaultKind::CircuitOpen,
            FaultKind::CircuitOpen,
            FaultKind::CircuitClose,
            FaultKind::AltSourceFetch,
            FaultKind::FrameCorrupted,
            FaultKind::LinkPartitioned,
            FaultKind::DegradedMode,
            FaultKind::JobRejected,
            FaultKind::MapPreempted,
            FaultKind::MapPreempted,
            FaultKind::TrackerRestart,
            FaultKind::JournalReplayed,
            FaultKind::WorkerReattached,
            FaultKind::WorkerReattached,
            FaultKind::AttemptReconciled,
        ] {
            c.record_fault(kind);
        }
        assert_eq!((c.tracker_restarts, c.journal_replays), (1, 1));
        assert_eq!((c.worker_reattaches, c.attempts_reconciled), (2, 1));
        assert_eq!((c.jobs_rejected, c.preemptions), (1, 2));
        assert_eq!((c.node_crashes, c.retries, c.reexecuted_maps, c.lost_heartbeats), (1, 2, 1, 1));
        assert_eq!((c.rpc_retries, c.peers_expired), (2, 1));
        assert_eq!((c.breaker_trips, c.breaker_closes, c.alt_source_fetches), (2, 1, 1));
        assert_eq!((c.corrupt_frames, c.link_partitions, c.degraded_entries), (1, 1, 1));
    }

    /// Captured from the hand-listed serializers this table replaced: the
    /// kv tokens, JSON keys and their order are a file format
    /// (`BENCH_harness.json`, the cluster report's `counters` line) and
    /// must not move.
    #[test]
    fn serialization_matches_golden_strings() {
        let c = distinct_per_field();
        assert_eq!(
            c.to_kv(),
            "offers=1 assigns=2 skip_no_candidate=3 skip_delay_bound=4 skip_below_p_min=5 \
             skip_draw_failed=6 skip_postponed_reduce=7 skip_non_finite_cost=8 \
             skip_collocated=9 skip_node_dead=10 pruned=11 cache_hits=12 cache_misses=13 \
             node_crashes=14 retries=15 reexecuted_maps=16 lost_heartbeats=17 rpc_retries=18 \
             peers_expired=19 breaker_trips=20 breaker_closes=21 alt_source_fetches=22 \
             corrupt_frames=23 link_partitions=24 degraded_entries=25 jobs_rejected=26 \
             preemptions=27 tracker_restarts=28 journal_replays=29 worker_reattaches=30 \
             attempts_reconciled=31 recovered_maps=32 recovered_reduces=33 \
             inherited_assignments=34 recovered_reexec=35"
        );
        let json = "{
      \"offers\": 1,
      \"assigns\": 2,
      \"skip_no_candidate\": 3,
      \"skip_delay_bound\": 4,
      \"skip_below_p_min\": 5,
      \"skip_draw_failed\": 6,
      \"skip_postponed_reduce\": 7,
      \"skip_non_finite_cost\": 8,
      \"skip_collocated\": 9,
      \"skip_node_dead\": 10,
      \"pruned\": 11,
      \"cache_hits\": 12,
      \"cache_misses\": 13,
      \"node_crashes\": 14,
      \"retries\": 15,
      \"reexecuted_maps\": 16,
      \"lost_heartbeats\": 17,
      \"rpc_retries\": 18,
      \"peers_expired\": 19,
      \"breaker_trips\": 20,
      \"breaker_closes\": 21,
      \"alt_source_fetches\": 22,
      \"corrupt_frames\": 23,
      \"link_partitions\": 24,
      \"degraded_entries\": 25,
      \"jobs_rejected\": 26,
      \"preemptions\": 27,
      \"tracker_restarts\": 28,
      \"journal_replays\": 29,
      \"worker_reattaches\": 30,
      \"attempts_reconciled\": 31,
      \"recovered_maps\": 32,
      \"recovered_reduces\": 33,
      \"inherited_assignments\": 34,
      \"recovered_reexec\": 35
    }";
        assert_eq!(c.to_json_object("    "), json);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = SchedCounters::default();
        a.record(Decision::Assign(0));
        let mut b = SchedCounters::default();
        b.record(Decision::Skip(SkipReason::DelayBound));
        b.record(Decision::Skip(SkipReason::DelayBound));
        a.merge(&b);
        assert_eq!(a.offers, 3);
        assert_eq!(a.assigns, 1);
        assert_eq!(a.skipped(SkipReason::DelayBound), 2);
        assert!(a.consistent());
    }

    #[test]
    fn json_object_is_valid_json() {
        let mut c = SchedCounters::default();
        c.record(Decision::Skip(SkipReason::PostponedReduce));
        let json = c.to_json_object("  ");
        crate::json::validate_json(&json).unwrap_or_else(|e| panic!("{e}\n{json}"));
        assert!(json.contains("\"skip_postponed_reduce\": 1"), "{json}");
    }
}
