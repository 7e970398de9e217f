//! Admission control and per-tenant service counters.
//!
//! Open-loop arrival streams have no intrinsic back-off: past the
//! cluster's saturation point, queues only grow. Service mode therefore
//! sheds load at *arrival* — per-tenant bounded queues first (a noisy
//! tenant cannot monopolize the backlog), then a cluster-wide saturation
//! check (no tenant benefits from joining a hopeless backlog). Every
//! rejection carries a typed reason so the experiment harness can report
//! *why* load was shed, not just how much.

use crate::spec::TenantSpec;

/// Why an arriving job was turned away.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RejectReason {
    /// The tenant already has `queue_cap` jobs in system.
    QueueFull,
    /// The cluster-wide unassigned-task backlog exceeds the configured
    /// per-slot threshold.
    ClusterSaturated,
}

impl RejectReason {
    /// Stable label for counters and trace records.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::QueueFull => "queue_full",
            RejectReason::ClusterSaturated => "cluster_saturated",
        }
    }
}

/// The outcome of an admission check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Let the job in.
    Admit,
    /// Shed it, with the reason.
    Reject(RejectReason),
}

/// Decide whether a job arriving for `spec`'s tenant is admitted.
///
/// * `in_system` — the tenant's jobs already admitted and not finished.
/// * `backlog_tasks` — cluster-wide unassigned tasks across admitted,
///   unfinished jobs.
/// * `total_slots` — total task slots in the cluster.
/// * `saturation_backlog` — reject when `backlog_tasks` exceeds this
///   many tasks per slot (`f64::INFINITY` disables).
///
/// The per-tenant bound is checked first: a tenant over its own cap is
/// rejected with [`RejectReason::QueueFull`] even if the cluster is
/// otherwise idle.
pub fn admit(
    spec: &TenantSpec,
    in_system: usize,
    backlog_tasks: u64,
    total_slots: u64,
    saturation_backlog: f64,
) -> AdmissionDecision {
    if in_system >= spec.queue_cap {
        return AdmissionDecision::Reject(RejectReason::QueueFull);
    }
    if (backlog_tasks as f64) > saturation_backlog * total_slots as f64 {
        return AdmissionDecision::Reject(RejectReason::ClusterSaturated);
    }
    AdmissionDecision::Admit
}

/// Per-tenant service tallies accumulated over a run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TenantCounters {
    /// Jobs admitted into the system.
    pub admitted: u64,
    /// Jobs rejected because the tenant's queue was full.
    pub rejected_queue: u64,
    /// Jobs rejected by cluster-saturation backpressure.
    pub rejected_saturated: u64,
    /// Map attempts of this tenant killed by the preemption policy.
    pub preempted: u64,
    /// Peak number of this tenant's jobs simultaneously in system.
    pub peak_in_system: u64,
}

impl TenantCounters {
    /// Total rejections, either reason.
    pub fn rejected(&self) -> u64 {
        self.rejected_queue + self.rejected_saturated
    }

    /// Record a rejection under its typed reason.
    pub fn record_reject(&mut self, reason: RejectReason) {
        match reason {
            RejectReason::QueueFull => self.rejected_queue += 1,
            RejectReason::ClusterSaturated => self.rejected_saturated += 1,
        }
    }

    /// Every tally under its serialized key, in serialization order — the
    /// one list `merge` and `to_json_object` walk.
    fn slots(&mut self) -> [(&'static str, &mut u64); 5] {
        [
            ("admitted", &mut self.admitted),
            ("rejected_queue", &mut self.rejected_queue),
            ("rejected_saturated", &mut self.rejected_saturated),
            ("preempted", &mut self.preempted),
            ("peak_in_system", &mut self.peak_in_system),
        ]
    }

    /// Fold another tally into this one (peak takes the max).
    pub fn merge(&mut self, other: &TenantCounters) {
        for ((key, a), (_, b)) in self.slots().into_iter().zip(other.clone().slots()) {
            *a = if key == "peak_in_system" { (*a).max(*b) } else { *a + *b };
        }
    }

    /// The tally as a compact JSON object (for `BENCH_harness.json`).
    pub fn to_json_object(&self) -> String {
        let rows = self.clone().slots().map(|(key, v)| format!("\"{key}\": {v}"));
        format!("{{{}}}", rows.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TenantSpec;

    #[test]
    fn admits_under_both_bounds() {
        let s = TenantSpec::new("t", 1.0).with_queue_cap(3);
        assert_eq!(admit(&s, 2, 10, 100, 4.0), AdmissionDecision::Admit);
    }

    #[test]
    fn queue_cap_rejects_first() {
        let s = TenantSpec::new("t", 1.0).with_queue_cap(3);
        assert_eq!(
            admit(&s, 3, 0, 100, f64::INFINITY),
            AdmissionDecision::Reject(RejectReason::QueueFull)
        );
        // Queue bound wins even when the cluster is also saturated.
        assert_eq!(
            admit(&s, 3, 10_000, 100, 1.0),
            AdmissionDecision::Reject(RejectReason::QueueFull)
        );
    }

    #[test]
    fn saturation_backpressure() {
        let s = TenantSpec::new("t", 1.0);
        // 100 slots × 2.0 backlog factor = 200-task threshold.
        assert_eq!(admit(&s, 0, 200, 100, 2.0), AdmissionDecision::Admit);
        assert_eq!(
            admit(&s, 0, 201, 100, 2.0),
            AdmissionDecision::Reject(RejectReason::ClusterSaturated)
        );
        // Infinite threshold disables the check entirely.
        assert_eq!(admit(&s, 0, u64::MAX / 2, 100, f64::INFINITY), AdmissionDecision::Admit);
    }

    #[test]
    fn unbounded_queue_by_default() {
        let s = TenantSpec::new("t", 1.0);
        assert_eq!(admit(&s, 1_000_000, 0, 100, f64::INFINITY), AdmissionDecision::Admit);
    }

    #[test]
    fn reject_reason_labels() {
        assert_eq!(RejectReason::QueueFull.label(), "queue_full");
        assert_eq!(RejectReason::ClusterSaturated.label(), "cluster_saturated");
    }

    #[test]
    fn counters_record_and_merge() {
        let mut a = TenantCounters { admitted: 5, ..Default::default() };
        a.record_reject(RejectReason::QueueFull);
        a.record_reject(RejectReason::ClusterSaturated);
        a.record_reject(RejectReason::ClusterSaturated);
        a.peak_in_system = 4;
        assert_eq!(a.rejected(), 3);

        let mut b = TenantCounters { admitted: 2, preempted: 1, peak_in_system: 7, ..Default::default() };
        b.merge(&a);
        assert_eq!(b.admitted, 7);
        assert_eq!(b.rejected_queue, 1);
        assert_eq!(b.rejected_saturated, 2);
        assert_eq!(b.preempted, 1);
        assert_eq!(b.peak_in_system, 7, "peak merges by max");
        assert_eq!(
            b.to_json_object(),
            "{\"admitted\": 7, \"rejected_queue\": 1, \"rejected_saturated\": 2, \"preempted\": 1, \"peak_in_system\": 7}"
        );
    }

    #[test]
    fn json_object_lists_every_tally() {
        let c = TenantCounters {
            admitted: 9,
            rejected_queue: 2,
            rejected_saturated: 1,
            preempted: 3,
            peak_in_system: 6,
        };
        assert_eq!(
            c.to_json_object(),
            "{\"admitted\": 9, \"rejected_queue\": 2, \"rejected_saturated\": 1, \"preempted\": 3, \"peak_in_system\": 6}"
        );
    }
}
