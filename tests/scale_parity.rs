//! Differential golden gate for the incremental-cost tick loop.
//!
//! The scaled simulator replaces per-offer full recomputation of `C_ave`
//! and the free-node scan with incrementally maintained structures
//! (`pnats_core::costidx`, `pnats_sim::freeset`). Every optimization is
//! admissible only if it is *invisible* in the decision stream. This suite
//! runs the paper's 60-node experiment configurations on both metrics,
//! once plain and once under `SpecChecked`
//! (`crates/core/tests/spec/checked.rs`), which holds every offer to the
//! paper's literal per-node transcription: the free-set view is audited,
//! every classed `C_ave` is within 1e-9 of the spec's mean, and the
//! decision and RNG state are the spec's. It asserts byte-identical
//! decision-trace JSONL and reports between the two runs.
//!
//! The metric picks the `C_ave` path. The §II-B3 cells (the experiments as
//! published) take the per-node mean on every offer, and no offer may need
//! the spec's boundary tolerance. Their hop-metric variants take the class
//! index on every offer; there the class sum can round a `P` right at a
//! boundary the other way, which the spec tolerates and counts.

#[path = "../crates/core/tests/spec/mod.rs"]
mod spec;

use pnats_bench::harness::{cloud_config, hdfs_config};
use pnats_core::{ProbabilisticPlacer, SkipReason, TaskPlacer};
use pnats_obs::InMemorySink;
use pnats_sim::{JobInput, SimConfig, SimReport, Simulation};
use pnats_workloads::{scaled_batch, AppKind};
use spec::checked::SpecChecked;

/// The fig/table experiment configurations, trimmed to test-sized batches:
/// the shared-cloud setup behind Figures 4–6 and the stock-HDFS setup
/// behind Table III / Figure 7, each across the paper's three
/// applications, each on the §II-B3 metric and on plain hops.
fn experiment_cells(seed: u64) -> Vec<(String, SimConfig, Vec<JobInput>)> {
    let apps = [AppKind::Wordcount, AppKind::Terasort, AppKind::Grep];
    let mut cells = Vec::new();
    for app in apps {
        let inputs = JobInput::from_batch(&scaled_batch(app, 2, 20));
        for (setup, cfg) in [("cloud", cloud_config(seed)), ("hdfs", hdfs_config(seed))] {
            assert!(cfg.network_condition, "{setup}: the experiments schedule on §II-B3");
            let hops = SimConfig { network_condition: false, ..cfg.clone() };
            cells.push((format!("{setup}/{app}"), cfg, inputs.clone()));
            cells.push((format!("{setup}/{app}/hops"), hops, inputs.clone()));
        }
    }
    cells
}

/// One traced run of `placer`.
fn run_with(cfg: &SimConfig, inputs: &[JobInput], placer: Box<dyn TaskPlacer>) -> SimReport {
    Simulation::new(cfg.clone(), placer)
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
    for seed in [42, 7] {
        for (name, cfg, inputs) in experiment_cells(seed) {
            let plain = run_with(&cfg, &inputs, Box::new(ProbabilisticPlacer::paper()));
            let checked = SpecChecked::new(ProbabilisticPlacer::paper());
            let tally = checked.tally();
            let held = run_with(&cfg, &inputs, Box::new(checked));
            let name = format!("{name} seed {seed}");
            assert!(plain.counters.offers > 0, "{name}: run made no offers");
            assert_eq!(artifacts(&plain), artifacts(&held), "{name}: the spec checker changed the run");
            assert_eq!(plain.counters, held.counters, "{name}: counter drift");
            let c = &held.counters;
            let placed = c.offers - c.skips[SkipReason::NodeDead as usize];
            assert_eq!(tally.offers(), placed, "{name}");
            if cfg.network_condition {
                assert_eq!(tally.viewed(), 0, "{name}: §II-B3 costs have no classes");
                assert_eq!(tally.tolerated(), 0, "{name}: offers decided by rounding");
            } else {
                assert_eq!(tally.viewed(), placed, "{name}: an offer missed the hop classes");
                eprintln!("{name}: {} of {placed} offers tolerated", tally.tolerated());
            }
        }
    }
}
