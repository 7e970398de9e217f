//! Property tests of the incremental cost maintenance: for *arbitrary*
//! small clusters (≤12 nodes), job shapes (≤64 tasks) and seeded
//! [`FaultPlan`]s, every decision the placer makes must be the paper's,
//! after every event.
//!
//! The metric picks the `C_ave` path: a hop-metric shape runs the class
//! index on every offer, a §II-B3 shape the per-node mean on every offer.
//! Each generated scenario runs once plain and once under `SpecChecked`
//! (`crates/core/tests/spec/checked.rs`). On every offer the checker audits
//! the free-set view, holds every classed `C_ave` to within 1e-9 of the
//! spec's per-node mean, and holds the decision and the RNG state to the
//! spec's (bar a `P` within 1e-9 of a boundary). Byte equality of the two
//! runs' artifacts pins that the checker is transparent. Together they pin
//! that the incremental bookkeeping never drifted, across crashes,
//! recoveries, heartbeat loss and link degradation. The case count honors
//! `PROPTEST_CASES`.

#[path = "../../core/tests/spec/mod.rs"]
mod spec;

use pnats_core::faults::{FaultPlan, NodeCrash};
use pnats_core::placer::{SkipReason, TaskPlacer};
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_obs::InMemorySink;
use pnats_sim::{check_report, JobInput, SimConfig, SimReport, Simulation};
use pnats_workloads::{AppKind, ShuffleModel};
use proptest::prelude::*;
use spec::checked::SpecChecked;

const MAX_NODES: usize = 12;

/// Raw crash ingredients over the *maximum* node domain; [`build_plan`]
/// folds the node index onto whatever cluster size the shape drew (the
/// vendored proptest shim has no `prop_flat_map` for dependent
/// strategies).
type RawCrash = (usize, f64, f64);

fn crash_strategy() -> impl Strategy<Value = RawCrash> {
    (0..MAX_NODES, 1.0f64..120.0, -50.0f64..200.0)
}

fn plan_parts_strategy() -> impl Strategy<Value = (Vec<RawCrash>, f64, u32)> {
    (proptest::collection::vec(crash_strategy(), 0..3), 0.0f64..0.3, 3u32..6)
}

fn build_plan(parts: &(Vec<RawCrash>, f64, u32), n_nodes: usize) -> FaultPlan {
    let (raw, p, max_attempts) = parts;
    FaultPlan {
        crashes: raw
            .iter()
            .map(|&(node, at, rec)| NodeCrash {
                node: node % n_nodes,
                at,
                recover_at: (rec >= 0.0).then_some(at + 5.0 + rec),
            })
            .collect(),
        transient_map_failure_p: *p,
        max_attempts: *max_attempts,
        ..FaultPlan::none()
    }
}

/// Cluster + workload shapes: 3–12 nodes, 1–2 jobs, ≤64 tasks total.
#[derive(Debug, Clone)]
struct Shape {
    n_nodes: usize,
    jobs: Vec<(usize, usize)>, // (maps, reduces)
    network_condition: bool,
    fluid: bool,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    (
        3usize..=MAX_NODES,
        proptest::collection::vec((1usize..=28, 1usize..=4), 1..=2),
        (0u8..2).prop_map(|b| b == 1),
        (0u8..2).prop_map(|b| b == 1),
    )
        .prop_map(|(n_nodes, jobs, network_condition, fluid)| Shape {
            n_nodes,
            jobs,
            network_condition,
            fluid,
        })
}

fn build(shape: &Shape, plan: &FaultPlan, seed: u64) -> (SimConfig, Vec<JobInput>) {
    let mut cfg = SimConfig::tiny(shape.n_nodes, seed);
    cfg.max_sim_time = 5_000.0;
    cfg.network_condition = shape.network_condition;
    cfg.fluid_network = shape.fluid;
    cfg.faults = plan.clone();
    let inputs = shape
        .jobs
        .iter()
        .enumerate()
        .map(|(ji, &(maps, reduces))| JobInput {
            name: format!("prop{ji}"),
            submit: 4.0 * ji as f64,
            block_sizes: vec![48 << 20; maps],
            n_reduces: reduces,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        })
        .collect();
    (cfg, inputs)
}

/// One traced run of the paper's placer, plain.
fn run_plain(cfg: &SimConfig, inputs: &[JobInput]) -> SimReport {
    run(cfg, inputs, Box::new(ProbabilisticPlacer::paper()))
}

/// The same run with every offer held to the spec; panics on a
/// disagreement the spec does not tolerate.
fn run_checked(cfg: &SimConfig, inputs: &[JobInput]) -> SimReport {
    let checked = SpecChecked::new(ProbabilisticPlacer::paper());
    let tally = checked.tally();
    let report = run(cfg, inputs, Box::new(checked));
    let c = &report.counters;
    let placed = c.offers - c.skips[SkipReason::NodeDead as usize];
    assert_eq!(tally.offers(), placed, "the checker saw every placer call");
    let indexed = if cfg.network_condition { 0 } else { placed };
    assert_eq!(tally.viewed(), indexed, "the metric picks the C_ave path");
    report
}

fn run(cfg: &SimConfig, inputs: &[JobInput], placer: Box<dyn TaskPlacer>) -> SimReport {
    Simulation::new(cfg.clone(), placer)
        .with_trace(Box::new(InMemorySink::unbounded()))
        .run(inputs)
}

/// Every externally visible byte of a run.
fn artifacts(r: &SimReport) -> (String, String, String, u64) {
    (
        r.trace_jsonl.clone().expect("traced run yields JSONL"),
        r.trace.tasks_csv(),
        r.trace.jobs_csv(),
        r.sim_end.to_bits(),
    )
}

proptest! {
    #[test]
    fn incremental_cost_maintenance_equals_full_recompute(
        shape in shape_strategy(),
        seed in 0u64..1_000,
    ) {
        let (cfg, inputs) = build(&shape, &FaultPlan::none(), seed);
        let inc = run_plain(&cfg, &inputs);
        let full = run_checked(&cfg, &inputs);
        prop_assert_eq!(artifacts(&inc), artifacts(&full), "the spec checker is not transparent");
        prop_assert_eq!(&inc.counters, &full.counters);
        prop_assert!(check_report(&inc, &inputs).is_ok(), "{:?}", check_report(&inc, &inputs));
    }

    #[test]
    fn incremental_cost_maintenance_survives_arbitrary_faults(
        shape in shape_strategy(),
        plan_parts in plan_parts_strategy(),
        seed in 0u64..1_000,
    ) {
        let plan = build_plan(&plan_parts, shape.n_nodes);
        plan.validate(shape.n_nodes).expect("strategy builds valid plans");
        let (cfg, inputs) = build(&shape, &plan, seed);
        let inc = run_plain(&cfg, &inputs);
        let full = run_checked(&cfg, &inputs);
        prop_assert_eq!(artifacts(&inc), artifacts(&full), "the spec checker is not transparent");
        prop_assert_eq!(&inc.counters, &full.counters);
        prop_assert!(check_report(&inc, &inputs).is_ok(), "{:?}", check_report(&inc, &inputs));
    }
}
