//! Cross-crate fault-injection guarantees.
//!
//! Five layers of defence around the fault subsystem:
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
//! 5. **Teardown paths pinned** — speculation, retry exhaustion and
//!    preemption beside a crash replay captured bytes under the paper's
//!    three schedulers on both engines.

use pnats_bench::harness::{parallel_map, Run, SchedulerKind, ALL_SCHEDULERS};
use pnats_core::faults::{FaultPlan, HeartbeatLoss, LinkDegradation, NodeCrash};
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_sim::{background_traffic, check_report, JobInput, SimConfig, SimReport, Simulation};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
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

/// The task fingerprint of [`report_fingerprint`] plus each record's epoch.
fn epoch_fingerprint(r: &SimReport) -> String {
    let mut fp = report_fingerprint(r);
    for t in &r.trace.tasks {
        fp.push_str(&format!("{}\n", t.epoch));
    }
    fp
}

/// One teardown scenario on `SimConfig::tiny`: `(config, inputs)`.
fn teardown_case(scenario: usize, fluid: bool, seed: u64) -> (SimConfig, Vec<JobInput>) {
    let mut cfg = SimConfig::tiny(6, seed);
    cfg.fluid_network = fluid;
    let mut inputs = tiny_inputs(2, 8, 3);
    match scenario {
        // Speculation under crashes, transient failures, heartbeat loss
        // and link degradation: backups win, lose and die with their node.
        0 => {
            cfg.slow_nodes = vec![(0, 0.1), (4, 0.2)];
            cfg.speculation_lag = 0.2;
            cfg.faults = stress_plan(seed);
        }
        // Retry exhaustion: jobs fail while their reduces shuffle and
        // backups of their maps run.
        1 => {
            cfg.slow_nodes = vec![(0, 0.1), (4, 0.2)];
            cfg.speculation_lag = 0.2;
            cfg.slowstart = 0.0;
            cfg.faults.transient_map_failure_p = 0.35;
            cfg.faults.max_attempts = 2;
        }
        // Min-share preemption beside one crash.
        _ => {
            inputs = tiny_inputs(1, 40, 3);
            inputs.extend(tiny_inputs(1, 12, 2).into_iter().map(|mut j| {
                j.name = "late".into();
                j.submit = 20.0;
                j
            }));
            let tenants = TenantSet::new(vec![
                TenantSpec::new("hog", 1.0),
                TenantSpec::new("late", 1.0).with_min_share(0.5),
            ]);
            let mut tc = TenancyConfig::new(tenants, vec![0, 1]);
            tc.fairness = true;
            tc.preemption = true;
            tc.preempt_cooldown_s = 1.0;
            cfg.tenancy = Some(tc);
            cfg.faults.crashes = vec![NodeCrash { node: 2, at: 30.0, recover_at: Some(60.0) }];
        }
    }
    (cfg, inputs)
}

/// The ways a task attempt ends besides completing — a backup winning or
/// being cancelled, a job failing with attempts in flight, a preemption, a
/// crash — replay pinned bytes under the paper's three schedulers on both
/// transfer engines: decision trace, task fingerprint with epochs, fault
/// log and both slot-utilization timelines. Every report is held to the
/// oracle, whose slot and speculation laws catch a leaked release.
#[test]
fn teardown_paths_replay_pinned_bytes() {
    const SCHEDULERS: [SchedulerKind; 3] =
        [SchedulerKind::Probabilistic, SchedulerKind::Fair, SchedulerKind::Coupling];
    // (decision trace, task fingerprint, fault log, utilization steps) FNVs,
    // scenario-major, then scheduler, then fluid before nominal.
    const PINS: [[u64; 4]; 18] = [
        [0x54cc_0774_a7d7_9a3e, 0x8094_479e_e1c0_19db, 0xda82_7624_fa98_820d, 0x6017_f696_dfc7_6885],
        [0x0f88_3b30_f715_4741, 0x315c_97e9_a271_9069, 0xf1ac_dfbc_3099_6341, 0xdeea_1c79_1a82_9fde],
        [0x442c_5b4b_9ca5_721c, 0x0dd1_4f16_478b_ba8b, 0x84aa_3bff_eabf_23da, 0xa3ea_67a7_9968_479e],
        [0x442c_5b4b_9ca5_721c, 0xa678_2ad9_8b56_f47f, 0x84aa_3bff_eabf_23da, 0xdd0f_20c1_2926_142c],
        [0xf44c_3cbd_07a7_103a, 0xe285_bd07_5d4c_b992, 0x1515_d7db_e9ca_e2ba, 0x38bd_7496_9442_6d7e],
        [0x327f_54b7_2da8_ba90, 0x77af_7be2_9bef_7679, 0x1515_d7db_e9ca_e2ba, 0xbd6f_2aca_ef32_18f5],
        [0x881a_0d5b_4323_3dd5, 0xbfd6_ec2f_e53b_b14f, 0x0ff4_7692_bee6_c2a1, 0x7113_5e46_a315_0406],
        [0x8670_7b51_53f1_61fc, 0x947b_068d_fddd_ad8e, 0x0ff4_7692_bee6_c2a1, 0xc5d2_4ae0_6d81_b770],
        [0x8896_b9b8_3951_c58b, 0x0b98_8d69_c531_b312, 0xadff_2587_1f0f_bc7c, 0x17ae_32e1_fd83_9431],
        [0x8896_b9b8_3951_c58b, 0x80ab_7b09_e05e_2f94, 0xadff_2587_1f0f_bc7c, 0xba2d_148f_b7e7_f57d],
        [0x8522_c52c_1f35_95cb, 0x1642_ebbd_22ad_dd42, 0xc0ea_1639_fd70_d04c, 0xbf43_3fc6_110a_2bb4],
        [0x62de_3006_f429_bf9a, 0x3f1c_98c5_ff21_01f8, 0xca3f_db84_e2d5_7045, 0xeb0e_6073_8028_16bd],
        [0xff79_6ef6_1058_d183, 0x658a_24e0_d6dd_3462, 0xab6b_9b64_dde6_b125, 0xa025_18ff_a0c2_87da],
        [0x1a2f_7116_354f_1c5a, 0xa6e7_80ab_c8fd_1956, 0xab6b_9b64_dde6_b125, 0xfaaf_32a1_18fb_2e3c],
        [0xb0f4_0947_b002_4113, 0x1bb6_15dc_f02f_090a, 0x7898_cf24_c5c3_0dbe, 0xb0b8_407d_9e37_432a],
        [0xb0f4_0947_b002_4113, 0x9921_3220_15ee_17c5, 0x7898_cf24_c5c3_0dbe, 0x794c_796b_8927_54df],
        [0xa47a_ce1b_76a4_aef0, 0x76b0_8a82_eecd_9ef7, 0x3b0e_d9f5_d6c0_2310, 0xdb9f_f14c_ec57_4951],
        [0x4c5c_35d3_1bbc_4b6c, 0x6ffd_ae3c_ed18_c6f8, 0x3b0e_d9f5_d6c0_2310, 0xd2f5_55fe_4c4d_fab1],
    ];
    let mut got = Vec::new();
    // Per scenario: backups launched / won / cancelled, jobs failed,
    // preemptions, crashes.
    let mut seen = [[0u64; 6]; 3];
    for (scenario, tally) in seen.iter_mut().enumerate() {
        for kind in SCHEDULERS {
            for fluid in [true, false] {
                let (cfg, inputs) = teardown_case(scenario, fluid, 19);
                let r = Run::new(kind, cfg, inputs.clone()).traced().execute();
                check_report(&r, &inputs)
                    .unwrap_or_else(|e| panic!("scenario {scenario} {kind:?} fluid={fluid}: {e}"));
                let t = &r.trace;
                for (s, v) in tally.iter_mut().zip([
                    t.backups_launched,
                    t.backups_won,
                    t.backups_cancelled,
                    r.jobs_failed as u64,
                    r.counters.preemptions,
                    r.counters.node_crashes,
                ]) {
                    *s += v;
                }
                let steps = format!("{:?}{:?}", t.map_util.steps(), t.reduce_util.steps());
                got.push([
                    fnv64(r.trace_jsonl.as_deref().expect("traced").as_bytes()),
                    fnv64(epoch_fingerprint(&r).as_bytes()),
                    fnv64(format!("{:?}", r.faults).as_bytes()),
                    fnv64(steps.as_bytes()),
                ]);
            }
        }
    }
    // Each scenario reached the paths it is named for.
    let [spec, retry, preempt] = seen;
    assert!(spec[1] > 0 && spec[2] > 0 && spec[5] > 0, "speculation: {spec:?}");
    assert!(retry[1] > 0 && retry[2] > 0, "retry exhaustion: {retry:?}");
    assert!(retry[3] > 0 && retry[3] < 12, "some jobs fail, some complete: {retry:?}");
    assert!(preempt[4] > 0 && preempt[5] > 0, "preemption: {preempt:?}");
    assert_eq!(got, PINS);
}
