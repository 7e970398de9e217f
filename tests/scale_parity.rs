//! Differential golden gate for the incremental-cost tick loop.
//!
//! The scaled simulator replaces per-offer full recomputation of `C_ave`
//! and the free-node scan with incrementally maintained structures
//! (`pnats_core::costidx`, `pnats_sim::freeset`). Every optimization is
//! admissible only if it is *invisible* in the decision stream. This suite
//! runs the paper's 60-node experiment configurations through both cost
//! paths of the probabilistic placer —
//!
//! * [`CostPath::Incremental`] — the production path (class-compressed
//!   cost tables over incrementally maintained free-set class counts), and
//! * [`CostPath::Reference`] — the full-recompute path, kept alive
//!   permanently as the reference implementation (recounts the class
//!   counts and checks every classed `C_ave` against the per-node mean;
//!   debug builds run the recount audit on the production path too),
//!
//! and asserts byte-identical decision-trace JSONL and reports. A third
//! axis pins that installing the cost index itself (`cost_index =
//! Some(true)`, which the 60-node auto-gate would normally leave off)
//! changes nothing either: the index is bookkeeping, never policy.

use pnats_bench::harness::{cloud_config, hdfs_config};
use pnats_core::{CostPath, ProbabilisticPlacer};
use pnats_obs::InMemorySink;
use pnats_sim::{JobInput, SimConfig, SimReport, Simulation};
use pnats_workloads::{scaled_batch, AppKind};

/// The fig/table experiment configurations, trimmed to test-sized batches:
/// the shared-cloud setup behind Figures 4–6 and the stock-HDFS setup
/// behind Table III / Figure 7, each across the paper's three
/// applications.
fn experiment_cells(seed: u64) -> Vec<(String, SimConfig, Vec<JobInput>)> {
    let apps = [AppKind::Wordcount, AppKind::Terasort, AppKind::Grep];
    let mut cells = Vec::new();
    for app in apps {
        let inputs = JobInput::from_batch(&scaled_batch(app, 2, 20));
        cells.push((format!("cloud/{app}"), cloud_config(seed), inputs.clone()));
        cells.push((format!("hdfs/{app}"), hdfs_config(seed), inputs));
    }
    cells
}

/// One traced probabilistic run with an explicit [`CostPath`] and cost
/// index setting.
fn run_path(
    cfg: &SimConfig,
    inputs: &[JobInput],
    path: CostPath,
    cost_index: Option<bool>,
) -> SimReport {
    let mut cfg = cfg.clone();
    cfg.cost_index = cost_index;
    let placer = Box::new(ProbabilisticPlacer::paper().with_cost_path(path));
    Simulation::new(cfg, placer)
        .with_trace(Box::new(InMemorySink::unbounded()))
        .run(inputs)
}

/// Everything a run externalizes, in byte-comparable form.
fn artifacts(r: &SimReport) -> (String, String, String, u64) {
    (
        r.trace_jsonl.clone().expect("traced run yields JSONL"),
        r.trace.tasks_csv(),
        r.trace.jobs_csv(),
        r.sim_end.to_bits(),
    )
}

#[test]
fn incremental_path_matches_reference_on_every_experiment_config() {
    for (name, cfg, inputs) in experiment_cells(42) {
        // Force the cost index on (the 60-node auto-gate would leave it
        // off) so the classed machinery is actually exercised.
        let inc = run_path(&cfg, &inputs, CostPath::Incremental, Some(true));
        let refr = run_path(&cfg, &inputs, CostPath::Reference, Some(true));
        assert!(inc.counters.offers > 0, "{name}: run made no offers");
        assert_eq!(
            artifacts(&inc),
            artifacts(&refr),
            "{name}: incremental path diverged from the reference recompute"
        );
        assert_eq!(inc.counters, refr.counters, "{name}: counter drift");
    }
}

#[test]
fn auto_gate_keeps_the_index_off_at_testbed_scale() {
    // What protects the published 60-node goldens is the `cost_index`
    // auto-gate: `None` must behave exactly like `Some(false)` below the
    // activation threshold. (Forcing the index *on* is allowed to move
    // low-order float bits of `C_ave` — class-bucketed summation vs. the
    // per-node sum — which can flip a Bernoulli draw; that regime is
    // covered bit-exactly against its own reference path above, not
    // against the index-off stream.)
    for (name, cfg, inputs) in experiment_cells(7) {
        let auto = run_path(&cfg, &inputs, CostPath::Incremental, None);
        let off = run_path(&cfg, &inputs, CostPath::Incremental, Some(false));
        assert_eq!(
            artifacts(&auto),
            artifacts(&off),
            "{name}: auto gate engaged the cost index at 60 nodes"
        );
        assert_eq!(auto.counters, off.counters, "{name}: counter drift");
    }
}

#[test]
fn reference_path_stays_deterministic() {
    // The reference implementation is itself part of the gate — pin that
    // it replays exactly, so a diff against it is always meaningful.
    let (name, cfg, inputs) = experiment_cells(1301).remove(0);
    let a = run_path(&cfg, &inputs, CostPath::Reference, Some(true));
    let b = run_path(&cfg, &inputs, CostPath::Reference, Some(true));
    assert_eq!(artifacts(&a), artifacts(&b), "{name}: reference path not deterministic");
}
