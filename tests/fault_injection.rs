//! Cross-crate fault-injection guarantees.
//!
//! Three layers of defence around the fault subsystem:
//!
//! 1. **Differential golden run** — a [`FaultPlan::none()`] simulation must
//!    be *byte-identical* (decision trace, task fingerprint, makespan bits,
//!    network-byte bits, offer count) to the run captured on the exact same
//!    configuration before the fault subsystem existed. An empty plan costs
//!    nothing: no extra events, no extra randomness.
//! 2. **Oracle over the zoo** — every scheduler, run under one nonzero
//!    fault plan exercising all four fault classes, must produce a report
//!    the invariant oracle accepts.
//! 3. **Faulty determinism** — same seed + same plan ⇒ byte-identical
//!    decision traces across reruns *and* across harness thread counts.
//! 4. **Both transfer engines pinned** — fluid and nominal runs under the
//!    stress plan and background traffic replay captured bytes.

use pnats_bench::harness::{parallel_map, Run, SchedulerKind, ALL_SCHEDULERS};
use pnats_core::faults::{FaultPlan, HeartbeatLoss, LinkDegradation};
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_sim::{background_traffic, check_report, JobInput, SimConfig, SimReport, Simulation};
use pnats_workloads::{AppKind, ShuffleModel};

fn tiny_inputs(n_jobs: usize, maps: usize, reduces: usize) -> Vec<JobInput> {
    (0..n_jobs)
        .map(|j| JobInput {
            name: format!("job{j}"),
            submit: 0.0,
            block_sizes: vec![64 << 20; maps],
            n_reduces: reduces,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        })
        .collect()
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Task-trace fingerprint in the *pre-fault-subsystem* row format (no
/// epoch column — the captured hash predates it; a `none()` run has only
/// epoch-0 records, so the old format loses nothing).
fn report_fingerprint(r: &SimReport) -> String {
    let mut fp = String::new();
    for t in &r.trace.tasks {
        fp.push_str(&format!(
            "{},{:?},{},{},{},{},{:?},{}\n",
            t.job,
            t.kind,
            t.index,
            t.node,
            t.assigned.to_bits(),
            t.finished.to_bits(),
            t.locality,
            t.net_bytes
        ));
    }
    fp
}

/// A plan exercising all four fault classes at tiny-cluster scale.
fn stress_plan(seed: u64) -> FaultPlan {
    // The tiny batch runs ~30 simulated seconds, so crashes land in (5, 25)
    // — strictly inside the active period, guaranteeing they fire.
    let mut plan = FaultPlan::with_random_crashes(2, 6, (5.0, 25.0), Some(30.0), seed);
    plan.transient_map_failure_p = 0.1;
    plan.max_attempts = 8;
    plan.heartbeat_losses = vec![HeartbeatLoss { node: 3, from: 5.0, until: 20.0 }];
    plan.link_degradations =
        vec![LinkDegradation { node: 1, from: 10.0, until: 40.0, factor: 0.3 }];
    plan
}

/// The fault-free golden run: captured on this exact configuration before
/// the fault subsystem was introduced. `FaultPlan::none()` must replay it
/// byte for byte — the fault machinery may consume no randomness and push
/// no events unless a plan asks for them.
#[test]
fn empty_fault_plan_is_byte_identical_to_the_pre_fault_golden_run() {
    let cfg = SimConfig::tiny(6, 9);
    assert!(cfg.faults.is_none(), "tiny() defaults to an empty plan");
    let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
        .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
        .run(&tiny_inputs(2, 8, 3));
    let trace = r.trace_jsonl.clone().expect("traced run drains JSONL");
    assert_eq!(trace.lines().count(), 30, "decision-trace line count");
    assert_eq!(fnv64(trace.as_bytes()), 0x5617_8380_8e9f_3047, "decision-trace bytes");
    assert_eq!(
        fnv64(report_fingerprint(&r).as_bytes()),
        0x1d6d_de7b_d0a8_3f4c,
        "task-trace fingerprint"
    );
    assert_eq!(r.trace.makespan().to_bits(), 0x403d_3b80_59ec_62b8, "makespan bits");
    assert_eq!(r.trace.network_bytes.to_bits(), 0x41ce_42cd_ec50_5b54, "network-byte bits");
    assert_eq!(r.counters.offers, 30);
    assert!(r.faults.is_empty() && r.jobs_failed == 0);
}

/// Every scheduler in the zoo must ride out the full stress plan with a
/// report the conservation-law oracle accepts.
#[test]
fn oracle_accepts_every_scheduler_under_a_nonzero_fault_plan() {
    let inputs = tiny_inputs(2, 8, 3);
    for kind in ALL_SCHEDULERS {
        let mut cfg = SimConfig::tiny(6, 21);
        cfg.faults = stress_plan(21);
        let r = Run::new(kind, cfg, inputs.clone()).execute();
        check_report(&r, &inputs).unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        assert!(r.all_completed(), "{kind:?} completed {}/{}", r.jobs_completed, r.jobs_submitted);
        assert!(r.counters.node_crashes > 0, "{kind:?}: plan's crashes must fire");
    }
}

/// Same seed + same fault plan ⇒ byte-identical decision traces (fault
/// records included) across reruns and across harness thread counts.
#[test]
fn faulty_runs_replay_byte_identically_across_reruns_and_thread_counts() {
    let mk_runs = || -> Vec<Run> {
        [SchedulerKind::Probabilistic, SchedulerKind::Fair, SchedulerKind::Coupling]
            .iter()
            .map(|&kind| {
                let mut cfg = SimConfig::tiny(6, 33);
                cfg.faults = stress_plan(33);
                Run::new(kind, cfg, tiny_inputs(2, 8, 3)).traced()
            })
            .collect()
    };
    let serial: Vec<SimReport> = mk_runs().into_iter().map(Run::execute).collect();
    let rerun: Vec<SimReport> = mk_runs().into_iter().map(Run::execute).collect();
    let threaded = parallel_map(mk_runs(), 4, Run::execute);
    for ((a, b), c) in serial.iter().zip(&rerun).zip(&threaded) {
        let ta = a.trace_jsonl.as_deref().expect("traced");
        assert_eq!(ta, b.trace_jsonl.as_deref().unwrap(), "{}: rerun diverged", a.scheduler);
        assert_eq!(ta, c.trace_jsonl.as_deref().unwrap(), "{}: threads diverged", a.scheduler);
        assert!(ta.contains("\"fault\""), "{}: fault records must be in the trace", a.scheduler);
        assert_eq!(a.trace.makespan().to_bits(), c.trace.makespan().to_bits());
        assert_eq!(a.faults.len(), c.faults.len());
    }
}

/// Both transfer engines (`fluid_network` true and false), each under the
/// full stress plan plus two lanes of background traffic, with three jobs
/// arriving 2 s apart, replay bytes captured before the engines shared one
/// implementation: decision trace, task fingerprint and makespan bits.
#[test]
fn both_transfer_engines_replay_pinned_bytes_under_faults_and_background() {
    // (fluid_network, seed, decision-trace FNV, fingerprint FNV, makespan bits)
    const PINS: [(bool, u64, u64, u64, u64); 4] = [
        (true, 21, 0x1ecf_2b42_a38f_e4e4, 0x3167_a629_6e4f_6a56, 0x404e_153d_d3d4_05fb),
        (true, 7, 0x5a18_2326_ad75_30da, 0x6ca0_0ad6_16b7_2bdc, 0x404b_9906_09c0_9404),
        (false, 21, 0xa80e_264f_1cfb_253e, 0xd4f4_28fb_177e_5799, 0x404c_d6fa_946a_832f),
        (false, 7, 0xcb57_7d63_321c_b773, 0x8658_3214_b58c_9e47, 0x4047_d7d9_d063_5cc6),
    ];
    let got: Vec<_> = PINS
        .iter()
        .map(|&(fluid, seed, ..)| {
            let mut cfg = SimConfig::tiny(6, seed);
            cfg.fluid_network = fluid;
            cfg.faults = stress_plan(seed);
            cfg.background = background_traffic(2, 60.0, 6, seed);
            let mut inputs = tiny_inputs(3, 8, 3);
            for (j, job) in inputs.iter_mut().enumerate() {
                job.submit = 2.0 * j as f64;
            }
            let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper()))
                .with_trace(Box::new(pnats_obs::InMemorySink::unbounded()))
                .run(&inputs);
            check_report(&r, &inputs).unwrap_or_else(|e| panic!("fluid={fluid} seed={seed}: {e}"));
            assert!(r.counters.node_crashes > 0, "fluid={fluid} seed={seed}: crashes must fire");
            let trace = r.trace_jsonl.as_deref().expect("traced run drains JSONL");
            (
                fluid,
                seed,
                fnv64(trace.as_bytes()),
                fnv64(report_fingerprint(&r).as_bytes()),
                r.trace.makespan().to_bits(),
            )
        })
        .collect();
    assert_eq!(got, PINS);
}
