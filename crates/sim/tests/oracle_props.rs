//! Differential property test of the invariant oracle. [`reference_check`]
//! is the oracle as it stood before the completion-ledger law: every law
//! written out by hand, laws 2 + 3 rescanning the trace once per task
//! (O(tasks²)). [`check_report`] sorts the ledger once and walks it once,
//! and must reach the same verdict on every generated report — generated
//! the way `fault_props` (seeded fault plans) and `tenancy_props` (service
//! mode with admission and preemption) generate theirs — with at most one
//! random forgery applied: drop, duplicate, re-epoch, re-index or re-kind
//! a task record, or drop a `TaskRescheduled` fault.
//!
//! The one carve-out is what the ledger law tightens on purpose: a record
//! whose index falls outside its job's task counts, or a duplicate record
//! of a job that did not complete. The reference let both pass; the oracle
//! must refuse them. The case count honors `PROPTEST_CASES`.

use pnats_core::faults::{FaultPlan, HeartbeatLoss, NodeCrash};
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_obs::FaultKind;
use pnats_sim::{check_report, JobInput, SimConfig, SimReport, Simulation, TaskKind};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
use pnats_workloads::{AppKind, ShuffleModel};
use proptest::prelude::*;
use std::collections::HashSet;

/// Per-node down intervals reconstructed from the fault log.
fn down_intervals(report: &SimReport, n_nodes: usize) -> Vec<Vec<(f64, f64)>> {
    let mut down: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_nodes];
    let mut open: Vec<Option<f64>> = vec![None; n_nodes];
    for f in &report.faults {
        let n = f.node as usize;
        match f.kind {
            FaultKind::NodeCrash if n < n_nodes && open[n].is_none() => {
                open[n] = Some(f.t);
            }
            FaultKind::NodeRecover if n < n_nodes => {
                if let Some(start) = open[n].take() {
                    down[n].push((start, f.t));
                }
            }
            _ => {}
        }
    }
    for (n, o) in open.into_iter().enumerate() {
        if let Some(start) = o {
            down[n].push((start, f64::INFINITY));
        }
    }
    down
}

/// The oracle before the ledger law, kept as the differential reference.
fn reference_check(report: &SimReport, inputs: &[JobInput]) -> Result<(), String> {
    if !report.counters.consistent() {
        return Err(format!(
            "offer identity violated: offers={} assigns={} skips={}",
            report.counters.offers,
            report.counters.assigns,
            report.counters.total_skips()
        ));
    }
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
    for ji in &rejected {
        if report.trace.tasks.iter().any(|t| t.job == *ji) {
            return Err(format!("rejected job {ji} has task records"));
        }
        if report.trace.jobs.iter().any(|jr| jr.job == *ji) {
            return Err(format!("rejected job {ji} has a completion record"));
        }
    }

    // Law 7 (service mode): every preemption requeued its victim — a
    // MapPreempted fault is immediately followed by a TaskRescheduled for
    // the same (job, task) at the same instant, and the counters agree.
    let preempts = report.faults.iter().filter(|f| f.kind == FaultKind::MapPreempted).count();
    if preempts as u64 != report.counters.preemptions {
        return Err(format!(
            "preemption accounting: {} MapPreempted faults vs counters.preemptions={}",
            preempts, report.counters.preemptions
        ));
    }
    for (i, f) in report.faults.iter().enumerate() {
        if f.kind != FaultKind::MapPreempted {
            continue;
        }
        let requeued = report.faults[i + 1..].iter().any(|g| {
            g.kind == FaultKind::TaskRescheduled && g.job == f.job && g.task == f.task && g.t == f.t
        });
        if !requeued {
            return Err(format!(
                "preempted map not requeued: job {:?} task {:?} at t={}",
                f.job, f.task, f.t
            ));
        }
    }

    // Law 8: slot-capacity conservation — concurrent running tasks never
    // exceeded configured slots (preemption/fairness must reuse slots,
    // not mint them).
    if report.trace.map_util.peak() > report.trace.map_util.capacity() {
        return Err(format!(
            "map slot capacity exceeded: peak {} > capacity {}",
            report.trace.map_util.peak(),
            report.trace.map_util.capacity()
        ));
    }
    if report.trace.reduce_util.peak() > report.trace.reduce_util.capacity() {
        return Err(format!(
            "reduce slot capacity exceeded: peak {} > capacity {}",
            report.trace.reduce_util.peak(),
            report.trace.reduce_util.capacity()
        ));
    }

    let n_nodes = report
        .trace
        .tasks
        .iter()
        .map(|t| t.node + 1)
        .chain(report.faults.iter().map(|f| f.node as usize + 1))
        .max()
        .unwrap_or(0);
    let down = down_intervals(report, n_nodes);

    // Law 4: completion spans never overlap their node's down time.
    for t in &report.trace.tasks {
        if t.finished < t.assigned {
            return Err(format!("task finished before assignment: {t:?}"));
        }
        for &(from, until) in &down[t.node] {
            if t.assigned < until && from < t.finished {
                return Err(format!(
                    "task span [{}, {}] overlaps node {} downtime [{from}, {until}]: {t:?}",
                    t.assigned, t.finished, t.node
                ));
            }
        }
    }

    // Laws 2 + 3: exactly-once per valid epoch, for completed jobs.
    for jr in &report.trace.jobs {
        let ji = jr.job;
        let input = inputs.get(ji).ok_or_else(|| {
            format!("job record {ji} has no matching input (inputs len {})", inputs.len())
        })?;
        for mi in 0..input.block_sizes.len() {
            let mut epochs: Vec<u32> = report
                .trace
                .tasks
                .iter()
                .filter(|t| t.kind == TaskKind::Map && t.job == ji && t.index == mi)
                .map(|t| t.epoch)
                .collect();
            epochs.sort_unstable();
            if epochs.is_empty() {
                return Err(format!("completed job {ji} has no record for map {mi}"));
            }
            for (want, got) in epochs.iter().enumerate() {
                if *got != want as u32 {
                    return Err(format!(
                        "job {ji} map {mi}: epochs {epochs:?} not exactly-once-contiguous"
                    ));
                }
            }
        }
        for ri in 0..input.n_reduces {
            let n = report
                .trace
                .tasks
                .iter()
                .filter(|t| t.kind == TaskKind::Reduce && t.job == ji && t.index == ri)
                .count();
            if n != 1 {
                return Err(format!("job {ji} reduce {ri}: {n} completions (want 1)"));
            }
        }
    }

    // Law 5: global re-execution accounting when nothing was cut short.
    if report.all_completed() {
        let reexec = report
            .trace
            .tasks
            .iter()
            .filter(|t| t.kind == TaskKind::Map && t.epoch > 0)
            .count() as u64;
        if reexec != report.counters.reexecuted_maps {
            return Err(format!(
                "re-execution mismatch: {} epoch>0 records vs reexecuted_maps={}",
                reexec, report.counters.reexecuted_maps
            ));
        }
    }
    Ok(())
}

/// At most one forgery: `(op, pick, value)`. Op 0 leaves the report alone.
type Mutation = (u32, usize, usize);

fn mutation_strategy() -> impl Strategy<Value = Mutation> {
    (0u32..7, 0usize..1 << 20, 0usize..10)
}

/// Apply `m`; returns a description of what was forged.
fn mutate(r: &mut SimReport, (op, pick, value): Mutation) -> String {
    let tasks = &mut r.trace.tasks;
    if tasks.is_empty() || op == 0 {
        return "none".into();
    }
    let i = pick % tasks.len();
    let what = format!("{:?}", tasks[i]);
    match op {
        1 => {
            tasks.remove(i);
        }
        2 => tasks.push(tasks[i].clone()),
        3 => tasks[i].epoch = value as u32 % 4,
        4 => tasks[i].index = value,
        5 => {
            tasks[i].kind = match tasks[i].kind {
                TaskKind::Map => TaskKind::Reduce,
                TaskKind::Reduce => TaskKind::Map,
            }
        }
        _ => {
            let requeues: Vec<usize> = (0..r.faults.len())
                .filter(|&f| r.faults[f].kind == FaultKind::TaskRescheduled)
                .collect();
            if requeues.is_empty() {
                return "none".into();
            }
            return format!("drop {:?}", r.faults.remove(requeues[pick % requeues.len()]));
        }
    }
    format!("op {op} value {value} on {what}")
}

/// Whether the report holds what the ledger law refuses and the reference
/// let pass: a record outside its job's task counts, or a duplicate record
/// of a job that did not complete.
fn tightened(r: &SimReport, inputs: &[JobInput]) -> bool {
    let completed: HashSet<usize> = r.trace.jobs.iter().map(|jr| jr.job).collect();
    let mut seen = HashSet::new();
    r.trace.tasks.iter().any(|t| {
        let count = match t.kind {
            TaskKind::Map => inputs[t.job].block_sizes.len(),
            TaskKind::Reduce => inputs[t.job].n_reduces,
        };
        let key = (t.job, t.kind == TaskKind::Map, t.index, t.epoch);
        t.index >= count || (!seen.insert(key) && !completed.contains(&t.job))
    })
}

/// The oracle and the reference agree on the (possibly forged) report.
fn agree(mut r: SimReport, inputs: &[JobInput], m: Mutation) -> Result<(), TestCaseError> {
    prop_assert!(check_report(&r, inputs).is_ok(), "unforged: {:?}", check_report(&r, inputs));
    let forged = mutate(&mut r, m);
    let (got, want) = (check_report(&r, inputs), reference_check(&r, inputs));
    if tightened(&r, inputs) {
        prop_assert!(got.is_err(), "{forged}: tightened input passed; reference {want:?}");
    } else {
        prop_assert_eq!(
            got.is_ok(),
            want.is_ok(),
            "{forged}: oracle {got:?} vs reference {want:?}"
        );
    }
    Ok(())
}

const N_NODES: usize = 5;

fn plan_strategy() -> impl Strategy<Value = FaultPlan> {
    let crash = (0usize..N_NODES, 1.0f64..120.0, -50.0f64..200.0).prop_map(|(node, at, rec)| {
        NodeCrash { node, at, recover_at: (rec >= 0.0).then_some(at + 5.0 + rec) }
    });
    let loss = (0usize..N_NODES, 0.0f64..100.0, 1.0f64..100.0)
        .prop_map(|(node, from, dur)| HeartbeatLoss { node, from, until: from + dur });
    let (crashes, losses) =
        (proptest::collection::vec(crash, 0..4), proptest::collection::vec(loss, 0..2));
    (crashes, 0.0f64..0.4, 3u32..8, losses).prop_map(|(crashes, p, max_attempts, losses)| {
        FaultPlan {
            crashes,
            transient_map_failure_p: p,
            max_attempts,
            heartbeat_losses: losses,
            ..FaultPlan::none()
        }
    })
}

fn job(i: usize, maps: usize, reduces: usize, submit: f64) -> JobInput {
    JobInput {
        name: format!("job{i}"),
        submit,
        block_sizes: vec![48 << 20; maps],
        n_reduces: reduces,
        shuffle: ShuffleModel::for_app(AppKind::Terasort),
    }
}

proptest! {
    #[test]
    fn oracle_agrees_with_reference_under_faults(
        plan in plan_strategy(),
        seed in 0u64..1_000,
        m in mutation_strategy(),
    ) {
        let mut cfg = SimConfig::tiny(N_NODES, seed);
        cfg.max_sim_time = 3_000.0;
        cfg.faults = plan;
        let ins = vec![job(0, 6, 2, 0.0), job(1, 4, 1, 20.0)];
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        agree(r, &ins, m)?;
    }

    #[test]
    fn oracle_agrees_with_reference_in_service_mode(
        n_nodes in 3usize..7,
        // One job is `(maps, reduces, submit, tenant)`.
        raw in proptest::collection::vec((1..8usize, 0..3usize, 0.0f64..90.0, 0..3usize), 2..9),
        seed in 0u64..1_000_000,
        m in mutation_strategy(),
    ) {
        let ins: Vec<JobInput> =
            raw.iter().enumerate().map(|(i, &(mp, rd, at, _))| job(i, mp, rd, at)).collect();
        let specs = vec![
            TenantSpec::new("gold", 3.0).with_min_share(0.3),
            TenantSpec::new("silver", 2.0).with_min_share(0.2),
            TenantSpec::new("bronze", 1.0).with_queue_cap(1),
        ];
        let tags = raw.iter().map(|&(.., t)| t as u32).collect();
        let mut tc = TenancyConfig::new(TenantSet::new(specs), tags);
        (tc.fairness, tc.admission, tc.preemption) = (true, true, true);
        tc.saturation_backlog = 1.5;
        tc.preempt_cooldown_s = 2.0;
        let mut cfg = SimConfig::tiny(n_nodes, seed);
        cfg.max_sim_time = 20_000.0;
        cfg.tenancy = Some(tc);
        let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&ins);
        agree(r, &ins, m)?;
    }
}
