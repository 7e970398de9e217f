//! The simulator's CI gates: tick-loop throughput at scale, multi-tenant
//! service mode, and the decision-trace pipeline. Each asserts its own
//! invariants and fails the subcommand on a violation.

use super::{merge_into, Ctx, Outcome, BENCH_HARNESS};
use crate::harness::{cloud_config, parallel_map, Run, SchedulerKind};
use pnats_metrics::{jain_index, percentile, render_table};
use pnats_obs::json::{set_member, validate_json};
use pnats_obs::SchedCounters;
use pnats_sim::config::{background_traffic, TopologyKind};
use pnats_sim::{check_report, JobInput, SimConfig, SimReport, TaskKind};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
use pnats_workloads::{multi_tenant_poisson, scaled_batch, AppKind, ShuffleModel, TenantStream};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Wall-clock budget for `scale_sweep --smoke` (1k nodes / 100k tasks × 3
/// schedulers). Generous for slow CI runners; the pre-optimization loop
/// blew through it by more than an order of magnitude.
const SCALE_SMOKE_BUDGET_S: f64 = 300.0;

/// Maps per job; with [`REDUCES_PER_JOB`] this makes each job exactly 1000
/// tasks, so the task count is job count × 1000.
const MAPS_PER_JOB: usize = 992;
const REDUCES_PER_JOB: usize = 8;
const BLOCK: u64 = 64 << 20;

/// The benchmark cluster: multi-rack, quiet network, nominal transfer
/// engine, small candidate windows (large windows measure candidate
/// cloning, not the tick loop).
fn scale_config(n_nodes: usize, seed: u64) -> SimConfig {
    let mut c = SimConfig::paper_testbed();
    c.n_nodes = n_nodes;
    c.topology = match n_nodes {
        1_000 => TopologyKind::MultiRack { racks: 25, per_rack: 40, uplink_bps: 10e9 },
        10_000 => TopologyKind::MultiRack { racks: 50, per_rack: 200, uplink_bps: 40e9 },
        n => {
            assert!(n % 40 == 0, "scale_sweep grid expects 1k/10k-style node counts");
            TopologyKind::MultiRack { racks: n / 40, per_rack: 40, uplink_bps: 10e9 }
        }
    };
    c.network_condition = false; // raw hops: the class-compressed metric
    c.fluid_network = false; // nominal engine: no global rate recomputation
    c.map_candidate_window = 8;
    c.reduce_candidate_window = 4;
    c.max_sim_time = 1_000_000.0;
    c.seed = seed;
    c
}

/// `n_tasks / 1000` identical jobs (992 maps + 8 reduces each, 64 MB
/// blocks), arrivals staggered over 300 simulated seconds.
fn scale_inputs(n_tasks: usize) -> Vec<JobInput> {
    assert_eq!(n_tasks % (MAPS_PER_JOB + REDUCES_PER_JOB), 0);
    let n_jobs = n_tasks / (MAPS_PER_JOB + REDUCES_PER_JOB);
    (0..n_jobs)
        .map(|ji| JobInput {
            name: format!("scale{ji:04}"),
            submit: 300.0 * ji as f64 / n_jobs as f64,
            block_sizes: vec![BLOCK; MAPS_PER_JOB],
            n_reduces: REDUCES_PER_JOB,
            shuffle: ShuffleModel::for_app(AppKind::Grep),
        })
        .collect()
}

/// Scale sweep: throughput of the incremental tick loop at 1k/10k nodes
/// and 100k/1M tasks, far beyond the paper's 60-node testbed.
///
/// This is a *throughput benchmark*, not an experiment: it runs with the
/// nominal (contention-free) transfer engine (`fluid_network = false`) and
/// raw-hop costs (`network_condition = false`), the regime the incremental
/// cost index and flat task tables were built for. Decision semantics are
/// unchanged — the scheduler sees exactly the costs and candidate windows
/// it would see on a dense run (the differential gate in
/// `tests/scale_parity.rs` and the proptests in
/// `crates/sim/tests/cost_parity_props.rs` pin that), only the bookkeeping
/// is incremental.
///
/// Grid: {1k, 10k} nodes × {100k, 1M} tasks × {probabilistic, fifo,
/// random}. Each cell reports simulated makespan, wall-clock and
/// tasks-placed-per-wall-second; results are folded into
/// `BENCH_harness.json` under a top-level `"scale_sweep"` member. Every
/// report is held to the invariant oracle ([`check_report`]), whose wall
/// is printed per cell on stderr.
/// `--smoke` runs only the 1k-node / 100k-task column and enforces a
/// wall-clock budget — the CI guard against accidentally regressing the
/// tick loop back to quadratic scans.
pub fn scale_sweep(ctx: &Ctx, out: &mut String) -> Outcome {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    let schedulers = [SchedulerKind::Probabilistic, SchedulerKind::Fifo, SchedulerKind::Random];
    let grid: Vec<(usize, usize)> = if smoke {
        vec![(1_000, 100_000)]
    } else {
        vec![(1_000, 100_000), (1_000, 1_000_000), (10_000, 100_000), (10_000, 1_000_000)]
    };

    let mut runs = Vec::new();
    let mut shapes = Vec::new();
    for &(n_nodes, n_tasks) in &grid {
        for kind in schedulers {
            runs.push(Run::new(kind, scale_config(n_nodes, seed), scale_inputs(n_tasks)));
            shapes.push((n_nodes, n_tasks, kind));
        }
    }

    let total = Instant::now();
    let results = ctx.run_matrix_with(runs, |r| {
        let (inputs, wall) = (r.inputs.clone(), Instant::now());
        let report = r.execute();
        let wall_s = wall.elapsed().as_secs_f64();
        let oracle = Instant::now();
        let verdict = check_report(&report, &inputs);
        (report, wall_s, verdict, oracle.elapsed().as_secs_f64())
    });
    let total_wall_s = total.elapsed().as_secs_f64();
    let cells: Vec<_> = shapes.into_iter().zip(results).collect();

    // Stdout carries only seed-determined columns (byte-identical at any
    // thread count); wall-clock accounting goes to stderr and the JSON.
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|((n_nodes, n_tasks, kind), (report, ..))| {
            vec![
                n_nodes.to_string(),
                n_tasks.to_string(),
                kind.label().to_string(),
                format!("{}/{}", report.jobs_completed, report.jobs_submitted),
                format!("{:.1}", report.sim_end),
            ]
        })
        .collect();
    out.push_str(&render_table(
        &format!("Scale sweep (seed {seed}) — incremental tick loop"),
        &["Nodes", "Tasks", "Scheduler", "Jobs done", "Sim end (s)"],
        &rows,
    ));
    let mut cell_json = Vec::new();
    for ((n_nodes, n_tasks, kind), (report, wall_s, verdict, oracle_s)) in &cells {
        let (label, tasks_per_s) = (kind.label(), *n_tasks as f64 / wall_s.max(1e-9));
        eprintln!(
            "SWEEP nodes={n_nodes} tasks={n_tasks} scheduler={label} wall_s={wall_s:.3} \
             tasks_per_s={tasks_per_s:.0} oracle_s={oracle_s:.3}"
        );
        if !report.all_completed() {
            return Err(format!(
                "{label} @ {n_nodes} nodes / {n_tasks} tasks left jobs unfinished"
            )
            .into());
        }
        if let Err(e) = verdict {
            return Err(format!("{label} @ {n_nodes} nodes / {n_tasks} tasks: oracle: {e}").into());
        }
        cell_json.push(format!(
            "{{\"nodes\": {n_nodes}, \"tasks\": {n_tasks}, \"scheduler\": \"{label}\", \
             \"sim_end_s\": {:.1}, \"wall_s\": {wall_s:.3}, \"tasks_per_s\": {tasks_per_s:.0}}}",
            report.sim_end
        ));
    }
    let section = format!(
        "{{\"seed\": \"{seed}\", \"smoke\": {smoke}, \"total_wall_s\": {total_wall_s:.3}, \"cells\": [{}]}}",
        cell_json.join(", ")
    );
    set_member(Path::new(BENCH_HARNESS), "scale_sweep", &section)?;
    eprintln!("Scale sweep completed in {total_wall_s:.1}s; results folded into {BENCH_HARNESS}");

    if smoke {
        if total_wall_s > SCALE_SMOKE_BUDGET_S {
            return Err(format!(
                "smoke sweep took {total_wall_s:.1}s, budget {SCALE_SMOKE_BUDGET_S}s — tick loop regressed"
            )
            .into());
        }
        eprintln!("SMOKE OK ({total_wall_s:.1}s <= {SCALE_SMOKE_BUDGET_S}s budget)");
    }
    Ok(())
}

/// Wall-clock budget for `tenant_service --smoke` (two rates on divisor-20
/// jobs).
const SERVICE_SMOKE_BUDGET_S: f64 = 120.0;

/// The three tenants: gold pays for 3× weight and a guaranteed quarter of
/// the map slots, silver for 2× weight, bronze rides along at weight 1
/// behind a short admission queue.
fn tenant_set() -> TenantSet {
    TenantSet::new(vec![
        TenantSpec::new("gold", 3.0).with_min_share(0.25),
        TenantSpec::new("silver", 2.0),
        TenantSpec::new("bronze", 1.0).with_queue_cap(4),
    ])
}

/// One sweep level: every tenant submits `n_jobs` Poisson arrivals with
/// the same mean gap (the offered load), sized down by `divisor`.
fn level_workload(
    mean_gap_s: f64,
    n_jobs: usize,
    divisor: u32,
    seed: u64,
) -> (Vec<JobInput>, Vec<u32>) {
    let streams = [TenantStream { n_jobs, mean_gap_s, divisor }; 3];
    // One seeded stream per load level, so levels are independent cells.
    let mut rng = SmallRng::seed_from_u64(seed ^ ((mean_gap_s as u64) << 8));
    let (batch, tags) = multi_tenant_poisson(&streams, &mut rng);
    (JobInput::from_batch(&batch), tags)
}

/// Jain fairness index over weight-normalized map service (slot-seconds
/// per unit weight), counting only tenants that received any service.
fn service_jain(r: &SimReport, tags: &[u32], weights: &[f64]) -> Option<f64> {
    let mut service = vec![0.0f64; weights.len()];
    for t in r.trace.tasks_of(TaskKind::Map) {
        service[tags[t.job] as usize] += t.running_time();
    }
    let normalized: Vec<f64> =
        service.iter().zip(weights).map(|(s, w)| s / w).filter(|x| *x > 0.0).collect();
    jain_index(&normalized)
}

/// Completed-job JCTs of tenant `t`, sorted.
fn tenant_jcts(r: &SimReport, tags: &[u32], t: usize) -> Vec<f64> {
    let mut jcts: Vec<f64> =
        r.trace.jobs.iter().filter(|j| tags[j.job] as usize == t).map(|j| j.jct()).collect();
    jcts.sort_by(f64::total_cmp);
    jcts
}

fn fmt_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "-".to_string(), |v| format!("{v:.0}"))
}

fn json_opt(x: Option<f64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| format!("{v:.3}"))
}

/// Multi-tenant service mode: three weighted tenant streams submitting
/// Poisson job arrivals against one shared cluster, swept from light load
/// past the admission-control saturation point.
///
/// Every run enables all three tenancy policies — DWRR weighted fair
/// sharing, admission control (per-tenant queue caps plus cluster
/// saturation backpressure), and min-share map preemption — under the
/// paper's probabilistic scheduler on the headline cloud configuration.
/// Reported per (arrival rate × tenant): jobs admitted/rejected/preempted,
/// completed-job JCT p50/p99, and a per-rate Jain fairness index over
/// weight-normalized map service (slot-seconds / weight: exactly 1.0 means
/// service split in weight proportion). Scheduling wall-clock (total and
/// per offer) is measured per run and reported on **stderr** and in the
/// `"tenant_service"` member of `BENCH_harness.json` only. Every run must
/// pass the trace oracle (`check_report`), which includes the
/// rejection-accounting, preemption-requeue and slot-capacity laws.
/// `--smoke` runs the lightest and heaviest rates on shrunken jobs and
/// enforces a wall-clock budget.
pub fn tenant_service(ctx: &Ctx, out: &mut String) -> Outcome {
    let (seed, smoke) = (ctx.seed, ctx.smoke);
    // Offered-load sweep: mean Poisson gap per tenant stream, from a
    // comfortably subcritical trickle down to a gap well past the point
    // where backlog-per-slot exceeds the saturation threshold and
    // admission control starts shedding arrivals.
    let (gaps, n_jobs, divisor): (Vec<f64>, usize, u32) =
        if smoke { (vec![120.0, 10.0], 6, 20) } else { (vec![240.0, 120.0, 60.0, 15.0], 12, 4) };
    let tenants = tenant_set();
    let weights = tenants.weights();

    let mut runs = Vec::new();
    let mut cells = Vec::new();
    for &gap in &gaps {
        let (inputs, tags) = level_workload(gap, n_jobs, divisor, seed);
        let mut tc = TenancyConfig::new(tenants.clone(), tags.clone());
        tc.fairness = true;
        tc.admission = true;
        tc.preemption = true;
        tc.saturation_backlog = 2.0;
        tc.preempt_cooldown_s = 5.0;
        let mut cfg = cloud_config(seed);
        cfg.tenancy = Some(tc);
        runs.push(Run::new(SchedulerKind::Probabilistic, cfg, inputs.clone()));
        cells.push((gap, inputs, tags));
    }

    let total = Instant::now();
    let reports = ctx.run_matrix(runs);
    let total_wall_s = total.elapsed().as_secs_f64();

    for ((gap, inputs, _), r) in cells.iter().zip(&reports) {
        check_report(r, inputs).map_err(|e| format!("oracle violation at gap {gap}: {e}"))?;
    }

    let mut rows = Vec::new();
    let mut level_json = Vec::new();
    for ((gap, _, tags), r) in cells.iter().zip(&reports) {
        let jain = service_jain(r, tags, &weights);
        let mut tenant_json = Vec::new();
        for (t, ts) in r.tenants.iter().enumerate() {
            let c = &ts.counters;
            let jcts = tenant_jcts(r, tags, t);
            let (p50, p99) = (percentile(&jcts, 0.50), percentile(&jcts, 0.99));
            rows.push(vec![
                format!("{gap:.0}"),
                ts.name.clone(),
                format!("{:.0}", weights[t]),
                c.admitted.to_string(),
                c.rejected().to_string(),
                c.preempted.to_string(),
                jcts.len().to_string(),
                fmt_opt(p50),
                fmt_opt(p99),
                if t == 0 { fmt_opt(jain.map(|j| j * 100.0)) } else { String::new() },
            ]);
            tenant_json.push(format!(
                "{{\"name\": \"{}\", \"weight\": {}, \"admitted\": {}, \"rejected_queue\": {}, \
                 \"rejected_saturated\": {}, \"preempted\": {}, \"jobs_done\": {}, \
                 \"jct_p50_s\": {}, \"jct_p99_s\": {}}}",
                ts.name,
                weights[t],
                c.admitted,
                c.rejected_queue,
                c.rejected_saturated,
                c.preempted,
                jcts.len(),
                json_opt(p50),
                json_opt(p99),
            ));
        }
        // Wall-clock accounting stays off stdout (byte-identity invariant).
        let offers = r.counters.offers.max(1);
        let offer_us = r.sched_wall_s * 1e6 / offers as f64;
        eprintln!(
            "SERVICE gap_s={gap:.0} sched_wall_s={:.3} offers={} offer_latency_us={offer_us:.2}",
            r.sched_wall_s, r.counters.offers
        );
        level_json.push(format!(
            "{{\"mean_gap_s\": {gap:.0}, \"jain_index\": {}, \"jobs_rejected\": {}, \
             \"sched_wall_s\": {:.3}, \"offer_latency_us\": {offer_us:.2}, \"tenants\": [{}]}}",
            json_opt(jain),
            r.jobs_rejected,
            r.sched_wall_s,
            tenant_json.join(", ")
        ));
    }

    out.push_str(&render_table(
        &format!("Tenant service mode (seed {seed}) — 3 tenants, Poisson arrivals"),
        &[
            "gap (s)", "tenant", "w", "admit", "reject", "preempt", "done", "p50 JCT", "p99 JCT",
            "Jain %",
        ],
        &rows,
    ));

    // The sweep must actually cross the saturation point: the heaviest
    // rate has to shed load through admission control.
    let heaviest = reports.last().expect("at least one level");
    if heaviest.jobs_rejected == 0 {
        return Err(format!(
            "heaviest rate (gap {}s) rejected nothing — sweep no longer reaches saturation",
            gaps.last().expect("at least one level")
        )
        .into());
    }

    let section = format!(
        "{{\"seed\": \"{seed}\", \"smoke\": {smoke}, \"total_wall_s\": {total_wall_s:.3}, \"levels\": [{}]}}",
        level_json.join(", ")
    );
    set_member(Path::new(BENCH_HARNESS), "tenant_service", &section)?;
    eprintln!(
        "Tenant service sweep completed in {total_wall_s:.1}s; results folded into {BENCH_HARNESS}"
    );

    if smoke {
        if total_wall_s > SERVICE_SMOKE_BUDGET_S {
            return Err(format!(
                "smoke sweep took {total_wall_s:.1}s, budget {SERVICE_SMOKE_BUDGET_S}s — service mode regressed"
            )
            .into());
        }
        eprintln!("SMOKE OK ({total_wall_s:.1}s <= {SERVICE_SMOKE_BUDGET_S}s budget)");
    }
    Ok(())
}

/// Concatenated trace + merged per-scheduler counters of a traced matrix.
fn trace_and_counters(
    reports: &[SimReport],
) -> Result<(String, Vec<(String, SchedCounters)>), String> {
    let mut text = String::new();
    let mut agg = Vec::new();
    for r in reports {
        let trace = r.trace_jsonl.as_ref();
        text.push_str(
            trace.ok_or_else(|| format!("{}: traced run produced no trace", r.scheduler))?,
        );
        merge_into(&mut agg, &r.scheduler, &r.counters, SchedCounters::merge);
    }
    Ok((text, agg))
}

/// CI gate for the decision-tracing pipeline: run a small traced matrix
/// and verify, end to end, that
///
/// 1. every emitted trace line is well-formed JSON,
/// 2. the counter identity holds (`offers = assigns + Σ skips`, and one
///    record per offer),
/// 3. the fixed-seed trace is byte-identical across reruns and across
///    serial vs. parallel matrix execution.
pub fn trace_check(ctx: &Ctx, out: &mut String) -> Outcome {
    let seed = ctx.seed;
    // A small but non-trivial matrix: three schedulers, two apps, on a
    // shrunken cloud config with background traffic so skips actually
    // occur (delay scheduling, probability gates, co-location refusals).
    let mk_runs = || -> Vec<Run> {
        let mut runs = Vec::new();
        for kind in [SchedulerKind::Probabilistic, SchedulerKind::Fair, SchedulerKind::Coupling] {
            for (i, app) in [AppKind::Grep, AppKind::Terasort].iter().enumerate() {
                let mut cfg = cloud_config(seed + i as u64);
                cfg.n_nodes = 10;
                cfg.background = background_traffic(2, 1_000.0, cfg.n_nodes, seed);
                let inputs = JobInput::from_batch(&scaled_batch(*app, 2, 24));
                runs.push(Run::new(kind, cfg, inputs).traced());
            }
        }
        runs
    };

    let (trace, counters) = trace_and_counters(&parallel_map(mk_runs(), 1, Run::execute))?;
    let (trace_rerun, _) = trace_and_counters(&parallel_map(mk_runs(), 1, Run::execute))?;
    let (trace_wide, _) = trace_and_counters(&parallel_map(mk_runs(), 4, Run::execute))?;

    // (3) Determinism: byte-identical across reruns and thread counts.
    if trace != trace_rerun {
        return Err("trace differs between two serial executions of the same seed".into());
    }
    if trace != trace_wide {
        return Err("trace differs between serial and parallel matrix execution".into());
    }

    // (1) Every line parses as JSON.
    let mut lines = 0u64;
    for line in trace.lines() {
        lines += 1;
        validate_json(line).map_err(|e| format!("invalid JSON trace line: {e}\n{line}"))?;
    }
    if lines == 0 {
        return Err("traced matrix emitted no records".into());
    }

    // (2) Counter identity, per scheduler and in total.
    let mut offers_total = 0u64;
    for (name, c) in &counters {
        if !c.consistent() {
            return Err(format!("{name}: offers != assigns + skips: {c:?}").into());
        }
        if c.offers == 0 {
            return Err(format!("{name}: no slot offers recorded").into());
        }
        offers_total += c.offers;
    }
    if lines != offers_total {
        return Err(
            format!("trace has {lines} records but counters saw {offers_total} offers").into()
        );
    }

    writeln!(
        out,
        "TRACE_CHECK ok: {lines} records, {} schedulers, deterministic across reruns and thread counts",
        counters.len()
    )?;
    for (name, c) in &counters {
        writeln!(out, "  {name}: {}", c.to_kv())?;
    }
    Ok(())
}
