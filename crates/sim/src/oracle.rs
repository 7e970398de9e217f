//! Invariant oracle: conservation laws any simulation report must satisfy.
//!
//! Fault injection multiplies the ways a scheduler can silently go wrong —
//! a map counted done twice after an invalidation, a slot leaked by a
//! crash, a completion credited to a dead node. The oracle replays a
//! finished [`SimReport`] against the laws that hold for *every* correct
//! MapReduce execution, faulty or not:
//!
//! 1. **Offer conservation** — `offers = assigns + Σ skips`
//!    ([`SchedCounters::check_offer_identity`](pnats_obs::SchedCounters::check_offer_identity)).
//! 2. **Map exactly-once per valid epoch** — for every completed job, each
//!    map index has exactly one completion record per epoch `0..=E`, with
//!    epochs contiguous from zero (an epoch is born only by invalidating
//!    the previous completion).
//! 3. **Reduce exactly-once** — each reduce of a completed job completes
//!    exactly once (reduce output is durable; crashes re-run the attempt,
//!    never the completion).
//! 4. **Liveness of execution spans** — no completion's `[assigned,
//!    finished]` span overlaps a down interval of its node: a crash would
//!    have killed the attempt instead of letting it complete.
//! 5. **Re-execution accounting** — when every job completed, the number
//!    of `epoch > 0` map records equals `counters.reexecuted_maps`.
//! 6. **Rejection accounting** (service mode) — every admission rejection
//!    left a `JobRejected` fault, the counters booked it, and the
//!    rejected job never ran a task or completed.
//! 7. **Preemption requeue** (service mode) — every `MapPreempted` fault
//!    is followed by a `TaskRescheduled` for the same task at the same
//!    instant; preemption kills attempts, it never loses tasks.
//! 8. **Slot-capacity conservation** — peak concurrent running tasks
//!    never exceed configured slots of either type.
//! 9. **Slots close** — once every submitted job terminated (completed,
//!    failed or rejected), both utilization timelines end at 0 busy: every
//!    slot an attempt or a backup took was given back.
//! 10. **Speculation accounting** — once every job terminated, each
//!     launched backup either won or was cancelled.
//!
//! Laws 2, 3 and 5 are [`pnats_obs::check_ledger`], the completion-ledger
//! law the cluster runtime and its journal keep too; it also holds every
//! record of a job that did not complete to its task counts and to "no
//! duplicate". Each law is one pass (or one sort) over the report.
//!
//! A separate helper, [`check_makespan_monotone`], checks the macro
//! property the `fault_sweep` bench leans on: for a fixed seed and nested
//! fault plans, more crashes should not make the batch *faster* (within a
//! slack for scheduling noise).

use crate::config::JobInput;
use crate::runner::SimReport;
use pnats_obs::{check_ledger, FaultKind, JobLedger};
use std::collections::{HashMap, HashSet};

/// Per-node down intervals reconstructed from the fault log.
fn down_intervals(report: &SimReport) -> HashMap<usize, Vec<(f64, f64)>> {
    let mut down: HashMap<usize, Vec<(f64, f64)>> = HashMap::new();
    let mut open: HashMap<usize, f64> = HashMap::new();
    for f in &report.faults {
        let n = f.node as usize;
        match f.kind {
            FaultKind::NodeCrash => {
                open.entry(n).or_insert(f.t);
            }
            FaultKind::NodeRecover => {
                if let Some(start) = open.remove(&n) {
                    down.entry(n).or_default().push((start, f.t));
                }
            }
            _ => {}
        }
    }
    for (n, start) in open {
        down.entry(n).or_default().push((start, f64::INFINITY));
    }
    down
}

/// Check every conservation law against a finished report. Returns the
/// first violation as a human-readable message.
pub fn check_report(report: &SimReport, inputs: &[JobInput]) -> Result<(), String> {
    report.counters.check_offer_identity()?;
    if report.jobs_completed + report.jobs_failed + report.jobs_rejected > report.jobs_submitted {
        return Err(format!(
            "job accounting: {} completed + {} failed + {} rejected > {} submitted",
            report.jobs_completed,
            report.jobs_failed,
            report.jobs_rejected,
            report.jobs_submitted
        ));
    }

    // Law 6 (service mode): rejection accounting. Every rejection left a
    // fault record, the counters booked it, and a rejected job never ran
    // — no task spans, no completion record.
    let rejected: Vec<usize> = report
        .faults
        .iter()
        .filter(|f| f.kind == FaultKind::JobRejected)
        .filter_map(|f| f.job.map(|j| j as usize))
        .collect();
    if rejected.len() != report.jobs_rejected
        || report.counters.jobs_rejected != report.jobs_rejected as u64
    {
        return Err(format!(
            "rejection accounting: {} JobRejected faults, counters say {}, report says {}",
            rejected.len(),
            report.counters.jobs_rejected,
            report.jobs_rejected
        ));
    }
    let rejected: HashSet<usize> = rejected.into_iter().collect();
    if let Some(t) = report.trace.tasks.iter().find(|t| rejected.contains(&t.job)) {
        return Err(format!("rejected job {} has task records", t.job));
    }
    if let Some(jr) = report.trace.jobs.iter().find(|jr| rejected.contains(&jr.job)) {
        return Err(format!("rejected job {} has a completion record", jr.job));
    }

    // Law 7 (service mode): every preemption requeued its victim — a
    // MapPreempted fault is followed by a TaskRescheduled for the same
    // (job, task) at the same instant, and the counters agree. Walking the
    // log backwards, the requeues seen so far are exactly the later ones.
    let preempts = report.faults.iter().filter(|f| f.kind == FaultKind::MapPreempted).count();
    if preempts as u64 != report.counters.preemptions {
        return Err(format!(
            "preemption accounting: {} MapPreempted faults vs counters.preemptions={}",
            preempts, report.counters.preemptions
        ));
    }
    let mut requeued = HashSet::new();
    for f in report.faults.iter().rev() {
        let key = (f.job, f.task, f.t.to_bits());
        match f.kind {
            FaultKind::TaskRescheduled => {
                requeued.insert(key);
            }
            FaultKind::MapPreempted if !requeued.contains(&key) => {
                return Err(format!(
                    "preempted map not requeued: job {:?} task {:?} at t={}",
                    f.job, f.task, f.t
                ));
            }
            _ => {}
        }
    }

    // Law 8: slot-capacity conservation — concurrent running tasks never
    // exceeded configured slots (preemption/fairness must reuse slots,
    // not mint them). Law 9: once nothing is left to run, every slot taken
    // was given back.
    let terminated = report.jobs_completed + report.jobs_failed + report.jobs_rejected
        == report.jobs_submitted;
    for (kind, util) in [("map", &report.trace.map_util), ("reduce", &report.trace.reduce_util)] {
        let steps = util.steps();
        let peak = steps.iter().map(|&(_, busy)| busy).max().unwrap_or(0);
        if peak > util.capacity() {
            return Err(format!(
                "{kind} slot capacity exceeded: peak {peak} > capacity {}",
                util.capacity()
            ));
        }
        let busy = steps.last().map_or(0, |&(_, busy)| busy);
        if terminated && busy != 0 {
            return Err(format!("{kind} slots leaked: {busy} busy after every job terminated"));
        }
    }

    // Law 10: speculation accounting — a backup ends by winning or by
    // being cancelled.
    let t = &report.trace;
    if terminated && t.backups_launched != t.backups_won + t.backups_cancelled {
        return Err(format!(
            "speculation accounting: {} launched != {} won + {} cancelled",
            t.backups_launched, t.backups_won, t.backups_cancelled
        ));
    }

    // Law 4: completion spans never overlap their node's down time.
    let down = down_intervals(report);
    for t in &report.trace.tasks {
        if t.finished < t.assigned {
            return Err(format!("task finished before assignment: {t:?}"));
        }
        for &(from, until) in down.get(&t.node).into_iter().flatten() {
            if t.assigned < until && from < t.finished {
                return Err(format!(
                    "task span [{}, {}] overlaps node {} downtime [{from}, {until}]: {t:?}",
                    t.assigned, t.finished, t.node
                ));
            }
        }
    }

    // Laws 2 + 3: the completion-ledger law, owed in full by completed jobs.
    let mut jobs: Vec<JobLedger> = inputs
        .iter()
        .map(|i| JobLedger {
            maps: i.block_sizes.len() as u32,
            reduces: i.n_reduces as u32,
            complete: false,
        })
        .collect();
    for jr in &report.trace.jobs {
        let n = jobs.len();
        jobs.get_mut(jr.job)
            .ok_or_else(|| format!("job record {} has no matching input (inputs len {n})", jr.job))?
            .complete = true;
    }
    let keys = report.trace.tasks.iter().map(|t| (t.job as u32, t.kind, t.index as u32, t.epoch));
    let reexec = check_ledger(keys.collect(), &jobs)?;

    // Law 5: global re-execution accounting when nothing was cut short.
    if report.all_completed() && reexec != report.counters.reexecuted_maps {
        return Err(format!(
            "re-execution mismatch: {} epoch>0 records vs reexecuted_maps={}",
            reexec, report.counters.reexecuted_maps
        ));
    }
    Ok(())
}

/// Check a makespan series is monotone non-decreasing up to a relative
/// `slack` (each value must reach `(1 - slack)` of the running maximum).
/// The `fault_sweep` bench feeds this the makespans of nested fault plans.
pub fn check_makespan_monotone(makespans: &[f64], slack: f64) -> Result<(), String> {
    let mut peak = f64::NEG_INFINITY;
    for (i, &m) in makespans.iter().enumerate() {
        if m < peak * (1.0 - slack) {
            return Err(format!(
                "makespan not monotone in fault count: step {i} fell to {m} (peak {peak}, slack {slack})"
            ));
        }
        peak = peak.max(m);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TaskKind;
    use pnats_core::prob_sched::ProbabilisticPlacer;
    use pnats_obs::FaultRecord;
    use pnats_workloads::{AppKind, ShuffleModel};

    fn inputs() -> Vec<JobInput> {
        (0..2)
            .map(|i| JobInput {
                name: format!("job{i}"),
                submit: 0.0,
                block_sizes: vec![64 << 20; 8],
                n_reduces: 3,
                shuffle: ShuffleModel::for_app(AppKind::Terasort),
            })
            .collect()
    }

    /// A clean, fault-free run of [`inputs`] and those inputs.
    fn clean() -> (SimReport, Vec<JobInput>) {
        let cfg = crate::SimConfig::tiny(6, 9);
        let ins = inputs();
        (crate::Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins), ins)
    }

    fn first(r: &SimReport, kind: TaskKind) -> crate::trace::TaskRecord {
        r.trace.tasks.iter().find(|t| t.kind == kind).unwrap().clone()
    }

    fn fault(t: f64, kind: FaultKind, job: u32, task: u32) -> FaultRecord {
        FaultRecord { t, kind, node: 0, job: Some(job), task: Some(task) }
    }

    #[test]
    fn clean_run_passes() {
        let cfg = crate::SimConfig::tiny(6, 9);
        let ins = inputs();
        let r = crate::Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        assert!(r.all_completed());
        check_report(&r, &ins).unwrap();
    }

    #[test]
    fn duplicate_map_completion_detected() {
        let cfg = crate::SimConfig::tiny(6, 9);
        let ins = inputs();
        let mut r = crate::Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        let dup = r.trace.tasks.iter().find(|t| t.kind == TaskKind::Map).unwrap().clone();
        r.trace.tasks.push(dup);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("not exactly-once"), "{err}");
    }

    #[test]
    fn completion_on_downed_node_detected() {
        let cfg = crate::SimConfig::tiny(6, 9);
        let ins = inputs();
        let mut r = crate::Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        // Forge a crash window covering some task's whole span.
        let t = r.trace.tasks[0].clone();
        r.faults.push(pnats_obs::FaultRecord {
            t: t.assigned,
            kind: FaultKind::NodeCrash,
            node: t.node as u32,
            job: None,
            task: None,
        });
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("downtime"), "{err}");
    }

    #[test]
    fn duplicate_reduce_completion_detected() {
        let (mut r, ins) = clean();
        let dup = first(&r, TaskKind::Reduce);
        r.trace.tasks.push(dup);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("completions (want 1)"), "{err}");
    }

    #[test]
    fn reexecution_mismatch_detected() {
        let (mut r, ins) = clean();
        r.counters.reexecuted_maps += 1;
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("re-execution mismatch"), "{err}");
    }

    #[test]
    fn rejected_job_that_ran_detected() {
        let (mut r, ins) = clean();
        r.faults.push(fault(0.0, FaultKind::JobRejected, 1, 0));
        (r.jobs_submitted, r.jobs_rejected, r.counters.jobs_rejected) = (3, 1, 1);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("rejected job 1 has task records"), "{err}");
        // The fault log, the counters and the report must agree first.
        r.counters.jobs_rejected = 0;
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("rejection accounting"), "{err}");
    }

    #[test]
    fn unrequeued_preemption_detected() {
        let (mut r, ins) = clean();
        r.faults.push(fault(5.0, FaultKind::TaskRescheduled, 0, 2));
        r.faults.push(fault(5.0, FaultKind::MapPreempted, 0, 2));
        r.counters.preemptions = 1;
        // A requeue *before* the preemption does not count.
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("preempted map not requeued"), "{err}");
        r.faults.push(fault(5.0, FaultKind::TaskRescheduled, 0, 2));
        check_report(&r, &ins).unwrap();
        r.counters.preemptions = 2;
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("preemption accounting"), "{err}");
    }

    #[test]
    fn slot_overcommit_detected() {
        let (mut r, ins) = clean();
        for _ in 0..=r.trace.reduce_util.capacity() {
            r.trace.reduce_util.start(0.0);
        }
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("reduce slot capacity exceeded"), "{err}");
    }

    #[test]
    fn unreleased_slot_detected() {
        let (mut r, ins) = clean();
        r.trace.map_util.start(r.sim_end);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("map slots leaked"), "{err}");
        // A run cut short may end with slots still busy.
        r.jobs_completed -= 1;
        check_report(&r, &ins).unwrap();
    }

    #[test]
    fn unended_backup_detected() {
        let (mut r, ins) = clean();
        (r.trace.backups_launched, r.trace.backups_won) = (2, 1);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("speculation accounting"), "{err}");
        r.trace.backups_cancelled = 1;
        check_report(&r, &ins).unwrap();
    }

    #[test]
    fn stray_index_in_completed_job_detected() {
        let (mut r, ins) = clean();
        let mut stray = first(&r, TaskKind::Map);
        stray.index = ins[stray.job].block_sizes.len();
        r.trace.tasks.push(stray);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("outside the job's 8 tasks"), "{err}");
    }

    #[test]
    fn duplicate_in_unfinished_job_detected() {
        // Job 1 did not complete: it owes no completeness, but its records
        // may still not repeat.
        let (mut r, ins) = clean();
        r.trace.jobs.retain(|jr| jr.job != 1);
        r.jobs_completed -= 1;
        check_report(&r, &ins).unwrap();
        let dup = r.trace.tasks.iter().find(|t| t.job == 1).unwrap().clone();
        r.trace.tasks.push(dup);
        let err = check_report(&r, &ins).unwrap_err();
        assert!(err.contains("duplicate completion"), "{err}");
    }

    #[test]
    fn monotone_with_slack() {
        check_makespan_monotone(&[100.0, 99.5, 120.0, 180.0], 0.02).unwrap();
        let err = check_makespan_monotone(&[100.0, 80.0], 0.05).unwrap_err();
        assert!(err.contains("not monotone"), "{err}");
    }
}
