//! Beyond the paper's figures: the `P_min` selection experiment, the
//! ablations, and the robustness and sensitivity extensions.

use super::{Ctx, Outcome};
use crate::harness::{
    cloud_config, hdfs_config, mean_jct, PlacerSpec, Run, SchedulerKind, ALL_SCHEDULERS,
    PAPER_SCHEDULERS,
};
use pnats_core::estimate::IntermediateEstimator;
use pnats_core::faults::FaultPlan;
use pnats_core::prob::ProbabilityModel;
use pnats_metrics::render_table;
use pnats_sim::config::background_traffic;
use pnats_sim::{check_makespan_monotone, check_report, JobInput, TaskKind};
use pnats_tenancy::TenancyConfig;
use pnats_workloads::{poisson_mixed_batch, scaled_batch, table2_batch, AppKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

/// The paper's `P_min` selection experiment (§III): "we ran 10 Wordcount
/// jobs together several times with different `P_min` values and picked
/// the highest `P_min` value at the time when the all jobs finished
/// successfully. Accordingly, we set `P_min` to 0.4."
///
/// We sweep `P_min`, reporting completion, mean JCT, locality and skipped
/// offers. High `P_min` starves the cluster (tasks whose best probability
/// stays below the threshold never launch) — the "finished successfully"
/// cliff the paper used to pick 0.4.
pub fn pmin_sweep(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Wordcount));
    const P_MINS: [f64; 5] = [0.0, 0.2, 0.4, 0.6, 0.8];
    let runs = P_MINS
        .iter()
        .map(|&p_min| {
            let mut cfg = cloud_config(ctx.seed);
            cfg.max_sim_time = 1_500.0;
            Run::with_spec(
                PlacerSpec::Probabilistic {
                    p_min,
                    model: ProbabilityModel::Exponential,
                    estimator: IntermediateEstimator::ProgressExtrapolated,
                },
                cfg,
                inputs.clone(),
            )
        })
        .collect();
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for (p_min, r) in P_MINS.iter().zip(&reports) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            format!("{p_min:.1}"),
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            if r.all_completed() { format!("{:.0}", mean_jct(r)) } else { "-".into() },
            format!("{:.1}", maps.pct_node_local()),
            format!("{}", r.counters.total_skips()),
        ]);
    }
    out.push_str(&render_table(
        "P_min sweep — 10 Wordcount jobs (paper picks 0.4)",
        &["P_min", "jobs finished", "mean JCT (s)", "% local maps", "skipped offers"],
        &rows,
    ));
    Ok(())
}

/// Ablation: the paper's intermediate-size estimator (§II-B2). Same
/// scheduler, two estimators: the paper's progress-extrapolated
/// `Î = A · B / d_read` vs Coupling's raw current size `A`. The paper
/// credits its estimator as the third reason for its gains; the effect
/// concentrates on shuffle-heavy batches whose reduces are placed while
/// many maps are still running.
pub fn ablation_estimation(ctx: &Ctx, out: &mut String) -> Outcome {
    // 3 batches × 2 estimators, app-major to match the table rows.
    let mut runs = Vec::new();
    for app in AppKind::ALL {
        let inputs = JobInput::from_batch(&table2_batch(app));
        for est in [IntermediateEstimator::ProgressExtrapolated, IntermediateEstimator::CurrentSize]
        {
            runs.push(Run::with_spec(
                PlacerSpec::Probabilistic {
                    p_min: 0.4,
                    model: ProbabilityModel::Exponential,
                    estimator: est,
                },
                cloud_config(ctx.seed),
                inputs.clone(),
            ));
        }
    }
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for (app, pair) in AppKind::ALL.into_iter().zip(reports.chunks(2)) {
        let mut cells = vec![app.to_string()];
        cells.extend(pair.iter().map(|r| format!("{:.0}", mean_jct(r))));
        rows.push(cells);
    }
    out.push_str(&render_table(
        "Estimator ablation — mean JCT (s) per batch",
        &["batch", "progress-extrapolated (paper)", "current-size (coupling's)"],
        &rows,
    ));
    Ok(())
}

/// Ablation: §II-B3's network-condition cost (inverse measured rate) vs
/// plain hop counts, across background-traffic intensities. The paper's §V
/// names "different network conditions (e.g., bandwidth utilization)" as
/// the evaluation this feature deserves.
pub fn ablation_netcond(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Terasort));
    const LANES: [usize; 4] = [0, 4, 8, 16];
    let mut runs = Vec::new();
    for lanes in LANES {
        for netcond in [true, false] {
            let mut cfg = cloud_config(ctx.seed);
            cfg.network_condition = netcond;
            cfg.background = background_traffic(lanes, 8_000.0, cfg.n_nodes, 999 + ctx.seed);
            runs.push(Run::with_spec(
                PlacerSpec::Probabilistic {
                    p_min: 0.4,
                    model: ProbabilityModel::Exponential,
                    estimator: IntermediateEstimator::ProgressExtrapolated,
                },
                cfg,
                inputs.clone(),
            ));
        }
    }
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for (lanes, pair) in LANES.into_iter().zip(reports.chunks(2)) {
        let mut cells = vec![lanes.to_string()];
        cells.extend(pair.iter().map(|r| format!("{:.0}", mean_jct(r))));
        rows.push(cells);
    }
    out.push_str(&render_table(
        "Network-condition ablation — Terasort batch mean JCT (s)",
        &["background lanes", "inverse-rate cost (§II-B3)", "hop cost"],
        &rows,
    ));
    Ok(())
}

/// Ablation: alternative probability models (§V future work: "we will
/// further explore various probabilistic computation models for the
/// probability determination") — exponential (the paper's Formula 4/5),
/// reciprocal, linear and sigmoid — plus the fully deterministic greedy
/// min-cost placer (the probabilistic relaxation removed entirely).
pub fn ablation_prob_model(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Wordcount));
    let mut runs: Vec<Run> = ProbabilityModel::ALL
        .iter()
        .map(|&model| {
            Run::with_spec(
                PlacerSpec::Probabilistic {
                    p_min: 0.4,
                    model,
                    estimator: IntermediateEstimator::ProgressExtrapolated,
                },
                cloud_config(ctx.seed),
                inputs.clone(),
            )
        })
        .collect();
    runs.push(Run::new(SchedulerKind::MinCost, cloud_config(ctx.seed), inputs));
    let reports = ctx.run_matrix(runs);

    let labels = ProbabilityModel::ALL
        .iter()
        .map(|m| m.label().to_string())
        .chain(std::iter::once("deterministic-mincost".to_string()));
    let mut rows = Vec::new();
    for (label, r) in labels.zip(&reports) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            label,
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
        ]);
    }
    out.push_str(&render_table(
        "Probability-model ablation — Wordcount batch",
        &["model", "finished", "mean JCT (s)", "% local maps"],
        &rows,
    ));
    Ok(())
}

/// Ablation: HDFS replication factor (the paper fixes 2; we sweep 1–3).
/// More replicas mean more nodes can host any map locally, raising
/// locality and shrinking the placement problem; replication 1 is the
/// stress case where every placement decision is all-or-nothing.
pub fn ablation_replication(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Wordcount));
    let cells: Vec<(usize, SchedulerKind)> = [1usize, 2, 3]
        .into_iter()
        .flat_map(|replication| PAPER_SCHEDULERS.into_iter().map(move |kind| (replication, kind)))
        .collect();
    let runs = cells
        .iter()
        .map(|&(replication, kind)| {
            let mut cfg = hdfs_config(ctx.seed);
            cfg.replication = replication;
            Run::new(kind, cfg, inputs.clone())
        })
        .collect();
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for ((replication, kind), r) in cells.iter().zip(&reports) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            replication.to_string(),
            kind.label().to_string(),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
        ]);
    }
    out.push_str(&render_table(
        "Replication-factor sweep — Wordcount batch (HDFS layout)",
        &["replication", "scheduler", "mean JCT (s)", "% local maps"],
        &rows,
    ));
    Ok(())
}

/// Robustness extension: speculative execution under injected stragglers.
/// The paper's related work leans on Mantri ("reining in the outliers");
/// our simulator injects slow nodes and optionally launches Hadoop-style
/// backup copies. This sweep shows (a) stragglers hurt every scheduler and
/// (b) speculation claws the tail back, orthogonally to placement policy.
/// Every report is held to the invariant oracle ([`check_report`]), whose
/// speculation-accounting law this is the only paper-scale run of.
pub fn ablation_speculation(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&table2_batch(AppKind::Grep));
    // (label, slow nodes as (index, speed factor), speculation lag)
    type Condition = (&'static str, Vec<(usize, f64)>, f64);
    let conditions: [Condition; 3] = [
        ("healthy", vec![], 0.0),
        ("3 stragglers", vec![(5usize, 0.15), (23, 0.2), (47, 0.1)], 0.0),
        ("3 stragglers + speculation", vec![(5, 0.15), (23, 0.2), (47, 0.1)], 0.25),
    ];
    let runs = conditions
        .iter()
        .map(|(_, slow, spec)| {
            let mut cfg = hdfs_config(ctx.seed);
            cfg.slow_nodes = slow.clone();
            cfg.speculation_lag = *spec;
            Run::new(SchedulerKind::Probabilistic, cfg, inputs.clone())
        })
        .collect();
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for ((label, _, _), r) in conditions.iter().zip(&reports) {
        check_report(r, &inputs).map_err(|e| format!("oracle violation under {label}: {e}"))?;
        let maps = r.trace.task_time_cdf(TaskKind::Map);
        rows.push(vec![
            label.to_string(),
            format!("{:.0}", mean_jct(r)),
            format!("{:.0}", r.trace.makespan()),
            format!("{:.1}", maps.quantile(0.99)),
        ]);
    }
    out.push_str(&render_table(
        "Speculation ablation — Grep batch, probabilistic scheduler",
        &["condition", "mean JCT (s)", "makespan (s)", "map p99 (s)"],
        &rows,
    ));
    Ok(())
}

/// Crashed nodes stay down for this long (the sweep models fail-recover,
/// not permanent loss, so every batch still completes).
const MTTR_S: f64 = 400.0;
/// Crashes land in this window of simulated time — strictly inside the
/// batch's active period under every scheduler (the fault-free Terasort
/// makespan is ~690 s at its shortest), so every planned crash fires.
const CRASH_WINDOW: (f64, f64) = (100.0, 600.0);
/// Tolerated relative makespan *decrease* per added crash: a crash can
/// accidentally improve placement (killing work off a congested node), so
/// monotonicity only holds up to scheduling noise.
const MONOTONE_SLACK: f64 = 0.25;

/// Robustness extension: makespan degradation under injected node crashes.
///
/// A nested sweep of seeded [`FaultPlan`]s — plan *k* contains the first
/// *k* crashes of one master schedule, so each step strictly adds faults —
/// run under the paper's three-way scheduler comparison. Every report is
/// replayed through the invariant oracle ([`check_report`]): any violated
/// conservation law (duplicate map completion, completion on a dead node,
/// leaked offer) fails the run. Per scheduler, the makespan series must be
/// monotone in the crash count up to a slack for scheduling noise
/// ([`check_makespan_monotone`]). `--smoke` shrinks the sweep to two crash
/// counts on a reduced batch (the CI configuration).
pub fn fault_sweep(ctx: &Ctx, out: &mut String) -> Outcome {
    let crash_counts: &[usize] = if ctx.smoke { &[0, 2] } else { &[0, 1, 2, 4, 8] };
    // The smoke batch finishes in ~30 simulated seconds, so its crash
    // window (and repair time) shrink to match.
    let (inputs, window, mttr) = if ctx.smoke {
        (JobInput::from_batch(&scaled_batch(AppKind::Terasort, 2, 20)), (5.0, 20.0), 15.0)
    } else {
        (JobInput::from_batch(&table2_batch(AppKind::Terasort)), CRASH_WINDOW, MTTR_S)
    };
    let n_nodes = hdfs_config(ctx.seed).n_nodes;
    // One master schedule; plan k keeps its first k crashes, so the sweep
    // is nested and the monotonicity check is meaningful.
    let most = *crash_counts.last().expect("non-empty sweep");
    let master = FaultPlan::with_random_crashes(most, n_nodes, window, Some(mttr), ctx.seed);

    let mut runs = Vec::new();
    for kind in PAPER_SCHEDULERS {
        for &k in crash_counts {
            let mut cfg = hdfs_config(ctx.seed);
            cfg.faults = FaultPlan { crashes: master.crashes[..k].to_vec(), ..FaultPlan::none() };
            runs.push(Run::new(kind, cfg, inputs.clone()));
        }
    }
    let reports = ctx.run_matrix(runs);

    // Every report must satisfy the conservation laws; with recovering
    // crashes every batch must still complete, and — the window sitting
    // strictly inside the active period — every planned crash must fire.
    for (i, r) in reports.iter().enumerate() {
        check_report(r, &inputs)
            .map_err(|e| format!("oracle violation under {}: {e}", r.scheduler))?;
        if !r.all_completed() {
            return Err(format!(
                "{} completed only {}/{} jobs (crashes all recover; none may fail)",
                r.scheduler, r.jobs_completed, r.jobs_submitted
            )
            .into());
        }
        let k = crash_counts[i % crash_counts.len()] as u64;
        if r.counters.node_crashes != k {
            return Err(format!(
                "{} injected {} crashes but planned {k} — window outside the run?",
                r.scheduler, r.counters.node_crashes
            )
            .into());
        }
    }

    let mut rows = Vec::new();
    for (kind, slice) in PAPER_SCHEDULERS.iter().zip(reports.chunks(crash_counts.len())) {
        let makespans: Vec<f64> = slice.iter().map(|r| r.trace.makespan()).collect();
        check_makespan_monotone(&makespans, MONOTONE_SLACK)
            .map_err(|e| format!("{} {e}", kind.label()))?;
        let base = makespans[0];
        for ((&k, r), makespan) in crash_counts.iter().zip(slice).zip(&makespans) {
            rows.push(vec![
                kind.label().to_string(),
                k.to_string(),
                format!("{:.0}", makespan),
                format!("{:+.1}%", 100.0 * (makespan - base) / base),
                format!("{:.0}", mean_jct(r)),
                r.counters.reexecuted_maps.to_string(),
                r.counters.retries.to_string(),
            ]);
        }
    }
    out.push_str(&render_table(
        "Fault sweep — Terasort batch, makespan vs injected node crashes",
        &[
            "scheduler",
            "crashes",
            "makespan (s)",
            "vs 0 crashes",
            "mean JCT (s)",
            "reexec maps",
            "retries",
        ],
        &rows,
    ));
    Ok(())
}

/// Beyond the paper's three-way comparison: all implemented schedulers —
/// including the Quincy-style global min-cost matcher, LARTS, FIFO,
/// deterministic min-cost and the random floor — on one scaled workload.
/// Scaled (jobs ÷4) because the Quincy placer solves a min-cost flow per
/// slot offer, which is exactly the scheduling-overhead contrast the paper
/// draws against flow-based schedulers.
pub fn extended_comparison(ctx: &Ctx, out: &mut String) -> Outcome {
    let inputs = JobInput::from_batch(&scaled_batch(AppKind::Wordcount, 10, 4));
    let runs = ALL_SCHEDULERS
        .iter()
        .map(|&kind| {
            let mut cfg = cloud_config(ctx.seed);
            cfg.map_candidate_window = 16; // bound Quincy's per-offer graph
            cfg.reduce_candidate_window = 8;
            Run::new(kind, cfg, inputs.clone())
        })
        .collect();
    // Per-run wall-clock is measured inside the worker; under parallel
    // execution it still reflects each solver's own compute (modulo cache
    // contention), which is the contrast this column exists to draw.
    let results = ctx.run_matrix_with(runs, |run| {
        let wall = Instant::now();
        let r = run.execute();
        (r, wall.elapsed().as_secs_f64())
    });

    let mut rows = Vec::new();
    for (kind, (r, wall_s)) in ALL_SCHEDULERS.into_iter().zip(&results) {
        let maps = r.trace.locality_of(TaskKind::Map);
        rows.push(vec![
            kind.label().to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.1}", maps.pct_node_local()),
            format!("{:.0}", r.trace.network_bytes / 1e9),
            format!("{:.1}", wall_s),
        ]);
    }
    out.push_str(&render_table(
        "Extended comparison — scaled Wordcount batch (cloud layout)",
        &["scheduler", "done", "mean JCT (s)", "% local maps", "net GB", "solver wall (s)"],
        &rows,
    ));
    Ok(())
}

/// Sensitivity: Poisson job arrivals instead of the paper's all-at-once
/// batches — the shared-cluster steady state the conclusion targets.
/// Sweeps offered load (mean inter-arrival gap) for the three schedulers.
///
/// Runs through the tenancy layer as its single-tenant special case: the
/// passthrough config exercises the service-mode arrival path while
/// producing byte-identical traces to a tenancy-free run (pinned by
/// `tests/tenancy_parity.rs`).
pub fn continuous_arrivals(ctx: &Ctx, out: &mut String) -> Outcome {
    // Arrival sequences are drawn up front (one seeded stream per load
    // level), so the matrix cells stay independent of execution order.
    let mut cells = Vec::new();
    let mut runs = Vec::new();
    for gap_s in [120.0, 60.0, 30.0] {
        let mut rng = SmallRng::seed_from_u64(ctx.seed);
        let inputs = JobInput::from_batch(&poisson_mixed_batch(15, gap_s, &mut rng));
        for kind in PAPER_SCHEDULERS {
            cells.push((gap_s, kind));
            let mut cfg = cloud_config(ctx.seed);
            cfg.tenancy = Some(TenancyConfig::single_tenant(inputs.len()));
            runs.push(Run::new(kind, cfg, inputs.clone()));
        }
    }
    let reports = ctx.run_matrix(runs);

    let mut rows = Vec::new();
    for ((gap_s, kind), r) in cells.iter().zip(&reports) {
        rows.push(vec![
            format!("{gap_s:.0}"),
            kind.label().to_string(),
            format!("{}/{}", r.jobs_completed, r.jobs_submitted),
            format!("{:.0}", mean_jct(r)),
            format!("{:.0}", r.trace.makespan()),
        ]);
    }
    out.push_str(&render_table(
        "Continuous Poisson arrivals — 15 mixed Table II jobs",
        &["mean gap (s)", "scheduler", "done", "mean JCT (s)", "makespan (s)"],
        &rows,
    ));
    Ok(())
}
