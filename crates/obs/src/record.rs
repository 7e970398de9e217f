//! One structured record per placement decision, with deterministic JSONL
//! serialization.
//!
//! Records are written as one JSON object per line. Serialization is
//! hand-rolled (the build environment vendors no serde) and fully
//! deterministic: field order is fixed, floats print via Rust's
//! shortest-roundtrip formatter, and non-finite floats become `null`
//! (JSON has no NaN/∞).

use pnats_core::placer::{Decision, DecisionDetail};

/// Which of the two placement algorithms produced a record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// `place_map` (Algorithm 1).
    Map,
    /// `place_reduce` (Algorithm 2).
    Reduce,
}

impl Phase {
    /// Stable label used in the JSONL `phase` field.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Map => "map",
            Phase::Reduce => "reduce",
        }
    }
}

/// Everything known about one `place_map`/`place_reduce` call.
#[derive(Clone, Debug, PartialEq)]
pub struct DecisionRecord {
    /// Simulation time (seconds) the heartbeat was processed at.
    pub t: f64,
    /// Heartbeat round counter of the run.
    pub round: u64,
    /// Map or reduce placement.
    pub phase: Phase,
    /// Job whose tasks were offered the slot.
    pub job: u32,
    /// Tenant the job belongs to, when the run uses a multi-tenant
    /// service configuration (`None` in single-pool runs, keeping their
    /// trace bytes unchanged).
    pub tenant: Option<u32>,
    /// Node whose free slot was offered.
    pub node: u32,
    /// Size of the candidate set the placer chose from.
    pub candidates: usize,
    /// Nodes with free slots of this phase (the `C_ave` denominator).
    pub free_nodes: usize,
    /// The placer's verdict (assigned candidate index or skip reason).
    pub decision: Decision,
    /// The winner's Algorithm-1/2 intermediates, when the placer computes
    /// them (`C_i`, `C_ave`, `P`); `None` for baselines without a gate.
    pub detail: Option<DecisionDetail>,
}

/// Append `v` as a JSON number, or `null` if non-finite.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        // Shortest-roundtrip float formatting: deterministic and parseable
        // as a JSON number (Rust never emits `inf`/`NaN` on this path).
        let s = format!("{v}");
        out.push_str(&s);
        // `1e20` style output is not valid JSON without a fraction; Rust
        // formats f64 without exponents for typical magnitudes, but guard
        // anyway: an `e` without `.` is still valid JSON grammar, so
        // nothing to fix — only ensure integral floats keep a marker.
        if !s.contains('.') && !s.contains('e') {
            out.push_str(".0");
        }
    } else {
        out.push_str("null");
    }
}

impl DecisionRecord {
    /// Append this record to `out` as one JSON line (including `\n`).
    ///
    /// Field order and formatting are fixed, so identical decisions always
    /// serialize to identical bytes — the golden-trace determinism tests
    /// rely on this.
    pub fn to_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        push_f64(out, self.t);
        out.push_str(",\"round\":");
        out.push_str(&self.round.to_string());
        out.push_str(",\"phase\":\"");
        out.push_str(self.phase.label());
        out.push_str("\",\"job\":");
        out.push_str(&self.job.to_string());
        if let Some(tn) = self.tenant {
            out.push_str(",\"tenant\":");
            out.push_str(&tn.to_string());
        }
        out.push_str(",\"node\":");
        out.push_str(&self.node.to_string());
        out.push_str(",\"candidates\":");
        out.push_str(&self.candidates.to_string());
        out.push_str(",\"free\":");
        out.push_str(&self.free_nodes.to_string());
        match self.decision {
            Decision::Assign(i) => {
                out.push_str(",\"decision\":\"assign\",\"task\":");
                out.push_str(&i.to_string());
            }
            Decision::Skip(r) => {
                out.push_str(",\"decision\":\"skip\",\"reason\":\"");
                out.push_str(r.label());
                out.push('"');
            }
        }
        if let Some(d) = self.detail {
            out.push_str(",\"cost\":");
            push_f64(out, d.cost);
            out.push_str(",\"cost_avg\":");
            push_f64(out, d.cost_avg);
            out.push_str(",\"p\":");
            push_f64(out, d.probability);
        }
        out.push_str("}\n");
    }

    /// This record as a standalone JSON line.
    pub fn jsonl(&self) -> String {
        let mut s = String::with_capacity(160);
        self.to_jsonl(&mut s);
        s
    }
}

/// What kind of fault or recovery action a [`FaultRecord`] describes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// A node died; its slots, running tasks, and stored map outputs are gone.
    NodeCrash,
    /// A previously crashed node rejoined with empty disks.
    NodeRecover,
    /// An alive node's heartbeat was dropped (loss window) — no work offered.
    HeartbeatLost,
    /// A completed map's output was lost with its node; the map re-runs in a
    /// new epoch.
    MapInvalidated,
    /// A running task was killed (node crash) and put back in the queue.
    TaskRescheduled,
    /// A map attempt failed transiently and will be retried.
    TransientFailure,
    /// A map burned its attempt budget; the whole job is failed.
    JobFailed,
    /// A node's access link dropped to a fraction of its nominal rate.
    LinkDegraded,
    /// A link-degradation window ended; nominal rate restored.
    LinkRestored,
    /// An RPC call failed and was retried (cluster runtime: connection
    /// refused/reset, deadline hit).
    RpcRetry,
    /// A registered peer missed `k` consecutive heartbeats and was expired
    /// by the tracker — the cluster runtime's crash *detection*, as opposed
    /// to [`NodeCrash`](FaultKind::NodeCrash) which records the crash itself.
    PeerExpired,
    /// A wire link stopped carrying traffic (chaos partition, black hole,
    /// reset, or sustained frame loss).
    LinkPartitioned,
    /// A frame arrived with a bad checksum and was rejected — the
    /// connection was poisoned, the process was not.
    FrameCorrupted,
    /// A per-peer circuit breaker tripped open after consecutive failures.
    CircuitOpen,
    /// A previously open circuit breaker closed again (probe succeeded).
    CircuitClose,
    /// The tracker entered safe mode: too many workers unreachable, so it
    /// stopped expiring peers and queued work instead of cascading
    /// invalidations.
    DegradedMode,
    /// A map output was fetched from an alternate source after its primary
    /// holder was unreachable.
    AltSourceFetch,
    /// An arriving job was turned away by service-mode admission control
    /// (per-tenant queue bound or cluster-saturation backpressure).
    JobRejected,
    /// A running map attempt was killed by the service-mode preemption
    /// policy to restore a starved tenant's minimum share; always followed
    /// by a [`TaskRescheduled`](Self::TaskRescheduled) requeue of the same
    /// task at the same instant.
    MapPreempted,
    /// The tracker came back from a crash and is rebuilding scheduler
    /// state (journal replay + worker re-attach). Recorded once per
    /// recovery, at the start of the new tracker incarnation.
    TrackerRestart,
    /// The durable job journal was replayed into a fresh tracker; the
    /// record's `task` field carries the number of journal records
    /// applied.
    JournalReplayed,
    /// A surviving worker re-attached to a restarted tracker via
    /// `Msg::Reattach`, keeping its local attempt state.
    WorkerReattached,
    /// A journal-inherited attempt was reconciled against worker truth at
    /// re-attach: the worker confirmed it live (or finished) and the
    /// tracker adopted it instead of re-issuing.
    AttemptReconciled,
}

impl FaultKind {
    /// Stable snake_case label used in the JSONL `fault` field.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::NodeCrash => "node_crash",
            FaultKind::NodeRecover => "node_recover",
            FaultKind::HeartbeatLost => "heartbeat_lost",
            FaultKind::MapInvalidated => "map_invalidated",
            FaultKind::TaskRescheduled => "task_rescheduled",
            FaultKind::TransientFailure => "transient_failure",
            FaultKind::JobFailed => "job_failed",
            FaultKind::LinkDegraded => "link_degraded",
            FaultKind::LinkRestored => "link_restored",
            FaultKind::RpcRetry => "rpc_retry",
            FaultKind::PeerExpired => "peer_expired",
            FaultKind::LinkPartitioned => "link_partitioned",
            FaultKind::FrameCorrupted => "frame_corrupted",
            FaultKind::CircuitOpen => "circuit_open",
            FaultKind::CircuitClose => "circuit_close",
            FaultKind::DegradedMode => "degraded_mode",
            FaultKind::AltSourceFetch => "alt_source_fetch",
            FaultKind::JobRejected => "job_rejected",
            FaultKind::MapPreempted => "map_preempted",
            FaultKind::TrackerRestart => "tracker_restart",
            FaultKind::JournalReplayed => "journal_replayed",
            FaultKind::WorkerReattached => "worker_reattached",
            FaultKind::AttemptReconciled => "attempt_reconciled",
        }
    }
}

/// One fault-injection or recovery action, interleaved chronologically with
/// [`DecisionRecord`]s in a trace. Distinguished from decision lines by the
/// `"fault"` key (decision lines carry `"phase"`/`"decision"` instead).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultRecord {
    /// Time the action happened (simulated seconds, or engine round number).
    pub t: f64,
    /// What happened.
    pub kind: FaultKind,
    /// The node involved (victim, recovered node, or task host).
    pub node: u32,
    /// The affected job, when the action is task-scoped.
    pub job: Option<u32>,
    /// The affected task index within the job, when task-scoped.
    pub task: Option<u32>,
}

impl FaultRecord {
    /// Append this record to `out` as one JSON line (including `\n`),
    /// with the same fixed-field-order determinism as [`DecisionRecord`].
    pub fn to_jsonl(&self, out: &mut String) {
        out.push_str("{\"t\":");
        push_f64(out, self.t);
        out.push_str(",\"fault\":\"");
        out.push_str(self.kind.label());
        out.push_str("\",\"node\":");
        out.push_str(&self.node.to_string());
        if let Some(j) = self.job {
            out.push_str(",\"job\":");
            out.push_str(&j.to_string());
        }
        if let Some(x) = self.task {
            out.push_str(",\"task\":");
            out.push_str(&x.to_string());
        }
        out.push_str("}\n");
    }

    /// This record as a standalone JSON line.
    pub fn jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        self.to_jsonl(&mut s);
        s
    }
}

/// Which task family a [`TaskCompletion`] or a simulator trace record
/// belongs to. Maps order before reduces.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TaskKind {
    /// A map task.
    Map,
    /// A reduce task.
    Reduce,
}

/// One accepted task completion — the ledger entry the exactly-once law
/// ([`check_ledger`](crate::check_ledger)) audits. Both
/// runtimes (engine and cluster) record one of these per completion the
/// scheduler *accepted* (duplicates and stale attempts excluded), tagged
/// with the run epoch the completion belongs to: epoch `e` of a map is the
/// state after `e` invalidations of that map's output.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TaskCompletion {
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within its family.
    pub index: u32,
    /// Run epoch the completion was accepted in (0 = never invalidated).
    pub epoch: u32,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::placer::SkipReason;

    fn record() -> DecisionRecord {
        DecisionRecord {
            t: 12.5,
            round: 3,
            phase: Phase::Map,
            job: 1,
            node: 7,
            tenant: None,
            candidates: 4,
            free_nodes: 12,
            decision: Decision::Assign(2),
            detail: Some(DecisionDetail { cost: 256.0, cost_avg: 128.0, probability: 0.75 }),
        }
    }

    #[test]
    fn assign_record_serializes_with_detail() {
        assert_eq!(
            record().jsonl(),
            "{\"t\":12.5,\"round\":3,\"phase\":\"map\",\"job\":1,\"node\":7,\
             \"candidates\":4,\"free\":12,\"decision\":\"assign\",\"task\":2,\
             \"cost\":256.0,\"cost_avg\":128.0,\"p\":0.75}\n"
        );
    }

    #[test]
    fn skip_record_names_the_reason() {
        let rec = DecisionRecord {
            decision: Decision::Skip(SkipReason::BelowPMin),
            detail: None,
            phase: Phase::Reduce,
            ..record()
        };
        let line = rec.jsonl();
        assert!(line.contains("\"decision\":\"skip\""), "{line}");
        assert!(line.contains("\"reason\":\"below_p_min\""), "{line}");
        assert!(line.contains("\"phase\":\"reduce\""), "{line}");
        assert!(!line.contains("cost"), "{line}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let rec = DecisionRecord {
            detail: Some(DecisionDetail {
                cost: f64::INFINITY,
                cost_avg: f64::NAN,
                probability: 0.5,
            }),
            ..record()
        };
        let line = rec.jsonl();
        assert!(line.contains("\"cost\":null,\"cost_avg\":null,\"p\":0.5"), "{line}");
    }

    #[test]
    fn tenant_tag_serializes_after_job() {
        let rec = DecisionRecord { tenant: Some(2), ..record() };
        assert!(
            rec.jsonl().contains("\"job\":1,\"tenant\":2,\"node\":7"),
            "{}",
            rec.jsonl()
        );
        crate::json::validate_json(rec.jsonl().trim_end()).unwrap();
        // Untagged records keep their historical byte layout.
        assert!(!record().jsonl().contains("tenant"));
    }

    #[test]
    fn integral_floats_keep_a_fraction_marker() {
        let rec = DecisionRecord { t: 3.0, ..record() };
        assert!(rec.jsonl().starts_with("{\"t\":3.0,"), "{}", rec.jsonl());
    }

    #[test]
    fn fault_record_serializes_deterministically() {
        let rec = FaultRecord {
            t: 40.0,
            kind: FaultKind::MapInvalidated,
            node: 3,
            job: Some(1),
            task: Some(6),
        };
        assert_eq!(rec.jsonl(), "{\"t\":40.0,\"fault\":\"map_invalidated\",\"node\":3,\"job\":1,\"task\":6}\n");
        let bare = FaultRecord { t: 2.5, kind: FaultKind::NodeCrash, node: 0, job: None, task: None };
        assert_eq!(bare.jsonl(), "{\"t\":2.5,\"fault\":\"node_crash\",\"node\":0}\n");
        for kind in [
            FaultKind::NodeCrash,
            FaultKind::NodeRecover,
            FaultKind::HeartbeatLost,
            FaultKind::MapInvalidated,
            FaultKind::TaskRescheduled,
            FaultKind::TransientFailure,
            FaultKind::JobFailed,
            FaultKind::LinkDegraded,
            FaultKind::LinkRestored,
            FaultKind::RpcRetry,
            FaultKind::PeerExpired,
            FaultKind::LinkPartitioned,
            FaultKind::FrameCorrupted,
            FaultKind::CircuitOpen,
            FaultKind::CircuitClose,
            FaultKind::DegradedMode,
            FaultKind::AltSourceFetch,
            FaultKind::JobRejected,
            FaultKind::MapPreempted,
            FaultKind::TrackerRestart,
            FaultKind::JournalReplayed,
            FaultKind::WorkerReattached,
            FaultKind::AttemptReconciled,
        ] {
            let line = FaultRecord { kind, ..rec }.jsonl();
            crate::json::validate_json(line.trim_end())
                .unwrap_or_else(|e| panic!("invalid JSON {line:?}: {e}"));
        }
    }

    #[test]
    fn every_line_is_valid_json() {
        for decision in [
            Decision::Assign(0),
            Decision::Skip(SkipReason::NoCandidate),
            Decision::Skip(SkipReason::DrawFailed),
        ] {
            for detail in [
                None,
                Some(DecisionDetail { cost: 1.5, cost_avg: f64::NAN, probability: 1.0 }),
            ] {
                let rec = DecisionRecord { decision, detail, ..record() };
                let line = rec.jsonl();
                crate::json::validate_json(line.trim_end()).unwrap_or_else(|e| {
                    panic!("invalid JSON {line:?}: {e}");
                });
            }
        }
    }
}
