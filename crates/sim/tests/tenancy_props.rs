//! Property tests of the multi-tenant service layer: for *arbitrary*
//! small clusters, tenant sets (weights, queue caps, minimum shares) and
//! staggered job streams with all three tenancy policies enabled, every
//! run must satisfy the trace oracle — which pins the three service-mode
//! laws on top of the classic conservation laws:
//!
//! * **slot capacity** — the DWRR arbiter never assigns more concurrent
//!   tasks than the cluster has slots (oracle law 8);
//! * **admission bounds** — no tenant ever holds more in-system jobs
//!   than its queue cap (checked directly against `peak_in_system`), and
//!   rejected jobs leave no trace records (oracle law 6);
//! * **preemption requeue** — every `MapPreempted` fault is followed by
//!   a `TaskRescheduled` for the same attempt at the same instant
//!   (oracle law 7).
//!
//! Per-tenant arrival accounting (`admitted + rejected` equals the
//! tenant's submissions) and seed-determinism of the full service path
//! are asserted alongside. The case count honors `PROPTEST_CASES`.
//!
//! `service_mode_replays_pinned_bytes` pins the decisions themselves: 120
//! seeded service-mode scenarios under three schedulers replay captured
//! bytes, so a change to how the simulator orders jobs within and across
//! tenants (the DWRR drain reset, the per-tenant head of line) shows as
//! moved fingerprints.

use pnats_baselines::{FairDelayPlacer, FifoGreedyPlacer};
use pnats_core::faults::NodeCrash;
use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_core::TaskPlacer;
use pnats_obs::InMemorySink;
use pnats_sim::{check_report, JobInput, SimConfig, SimReport, Simulation};
use pnats_tenancy::{TenancyConfig, TenantSet, TenantSpec};
use pnats_workloads::{AppKind, ShuffleModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const MAX_TENANTS: usize = 4;

/// One generated job: `(maps, reduces, submit, tenant)` over the maximum
/// tenant domain; the scenario builder folds the tenant index onto the
/// drawn tenant count (the vendored proptest shim has no dependent
/// strategies).
type RawJob = (usize, usize, f64, usize);

fn job_strategy() -> impl Strategy<Value = RawJob> {
    (1..8usize, 0..3usize, 0.0f64..90.0, 0..MAX_TENANTS)
}

/// One generated tenant: `(weight, queue cap, raw min-share)`. A cap of 6
/// means unbounded; the raw min-share is scaled down by the tenant count
/// so the combined guarantee never exceeds the cluster.
type RawTenant = (f64, usize, f64);

fn tenant_strategy() -> impl Strategy<Value = RawTenant> {
    (0.5f64..4.0, 1..7usize, 0.0f64..0.6)
}

#[derive(Debug, Clone)]
struct Scenario {
    n_nodes: usize,
    tenants: Vec<RawTenant>,
    jobs: Vec<RawJob>,
    saturation_backlog: f64,
    cooldown_s: f64,
    seed: u64,
}

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        (3..8usize, proptest::collection::vec(tenant_strategy(), 1..=MAX_TENANTS)),
        proptest::collection::vec(job_strategy(), 2..10),
        (0.5f64..4.0, 1.0f64..10.0, 0..1_000_000u64),
    )
        .prop_map(|((n_nodes, tenants), jobs, (sat, cool, seed))| Scenario {
            n_nodes,
            tenants,
            jobs,
            saturation_backlog: sat,
            cooldown_s: cool,
            seed,
        })
}

fn build(sc: &Scenario) -> (SimConfig, Vec<JobInput>, TenancyConfig) {
    let n_tenants = sc.tenants.len();
    let specs: Vec<TenantSpec> = sc
        .tenants
        .iter()
        .enumerate()
        .map(|(t, &(w, cap, raw_share))| {
            let mut s = TenantSpec::new(&format!("t{t}"), w)
                .with_min_share(raw_share / n_tenants as f64);
            if cap < 6 {
                s = s.with_queue_cap(cap);
            }
            s
        })
        .collect();
    let inputs: Vec<JobInput> = sc
        .jobs
        .iter()
        .enumerate()
        .map(|(i, &(maps, reduces, submit, _))| JobInput {
            name: format!("job{i}"),
            submit,
            block_sizes: vec![64 << 20; maps],
            n_reduces: reduces,
            shuffle: ShuffleModel::for_app(AppKind::Terasort),
        })
        .collect();
    let tags: Vec<u32> = sc.jobs.iter().map(|&(_, _, _, t)| (t % n_tenants) as u32).collect();
    let mut tc = TenancyConfig::new(TenantSet::new(specs), tags);
    tc.fairness = true;
    tc.admission = true;
    tc.preemption = true;
    tc.saturation_backlog = sc.saturation_backlog;
    tc.preempt_cooldown_s = sc.cooldown_s;
    let mut cfg = SimConfig::tiny(sc.n_nodes, sc.seed);
    cfg.max_sim_time = 20_000.0;
    (cfg, inputs, tc)
}

fn run(sc: &Scenario) -> (SimReport, Vec<JobInput>, TenancyConfig) {
    let (mut cfg, inputs, tc) = build(sc);
    cfg.tenancy = Some(tc.clone());
    let r = Simulation::new(cfg, Box::new(ProbabilisticPlacer::paper())).run(&inputs);
    (r, inputs, tc)
}

proptest! {
    #[test]
    /// The oracle holds on every generated service-mode run: offer
    /// conservation, task/job accounting for admitted jobs, rejection
    /// accounting, preemption requeue, and the slot-capacity bound.
    fn oracle_holds_under_all_policies(sc in scenario_strategy()) {
        let (r, inputs, _) = run(&sc);
        check_report(&r, &inputs).unwrap_or_else(|e| panic!("{sc:?}: {e}"));
    }

    #[test]
    /// Admission control never lets a tenant's in-system job count exceed
    /// its queue cap, and every submission is accounted exactly once as
    /// admitted or rejected.
    fn queue_caps_bound_in_system_jobs(sc in scenario_strategy()) {
        let (r, _, tc) = run(&sc);
        for (t, ts) in r.tenants.iter().enumerate() {
            let cap = tc.tenants.get(t).queue_cap as u64;
            assert!(
                ts.counters.peak_in_system <= cap,
                "{sc:?}: tenant {t} peaked at {} jobs, cap {cap}",
                ts.counters.peak_in_system
            );
            let submitted = tc.job_tenant.iter().filter(|&&x| x as usize == t).count() as u64;
            assert_eq!(
                ts.counters.admitted + ts.counters.rejected(),
                submitted,
                "{sc:?}: tenant {t} arrival accounting leaked"
            );
        }
    }

    #[test]
    /// The full service path is deterministic: identical scenario, seed
    /// and policies produce bit-identical outcomes and counters.
    fn service_mode_is_deterministic(sc in scenario_strategy()) {
        let (a, _, _) = run(&sc);
        let (b, _, _) = run(&sc);
        assert_eq!(a.sim_end.to_bits(), b.sim_end.to_bits(), "{sc:?}");
        assert_eq!(a.counters.to_kv(), b.counters.to_kv(), "{sc:?}");
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.counters, y.counters, "{sc:?}");
        }
    }
}

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every task record, floats as bits, epoch included.
fn task_fingerprint(r: &SimReport) -> String {
    let mut fp = String::new();
    for t in &r.trace.tasks {
        fp.push_str(&format!(
            "{},{:?},{},{},{},{},{:?},{},{}\n",
            t.job,
            t.kind,
            t.index,
            t.node,
            t.assigned.to_bits(),
            t.finished.to_bits(),
            t.locality,
            t.net_bytes.to_bits(),
            t.epoch
        ));
    }
    fp
}

/// `(fairness, admission, preemption)` of the pinned scenarios.
const POLICY_MIXES: [(bool, bool, bool); 6] = [
    (false, false, false),
    (true, false, false),
    (false, true, false),
    (false, false, true),
    (true, false, true),
    (true, true, true),
];

/// Pinned scenario `case`: 3–8 nodes, 1–4 tenants with random weights,
/// queue caps and minimum shares, 2–13 staggered jobs, one of the six
/// policy mixes; the fluid engine on even cases, the nominal one on odd
/// cases, and a node crash in every third case.
fn pinned_case(case: usize) -> (SimConfig, Vec<JobInput>) {
    let mut rng = SmallRng::seed_from_u64(0x7e4a_0000 + case as u64);
    let n_nodes = rng.gen_range(3..=8usize);
    let n_tenants = rng.gen_range(1..=MAX_TENANTS);
    let specs: Vec<TenantSpec> = (0..n_tenants)
        .map(|t| {
            let mut s = TenantSpec::new(&format!("t{t}"), rng.gen_range(0.5..4.0))
                .with_min_share(rng.gen_range(0.0..0.6) / n_tenants as f64);
            if rng.gen_bool(0.5) {
                s = s.with_queue_cap(rng.gen_range(1..=4usize));
            }
            s
        })
        .collect();
    let n_jobs = rng.gen_range(2..=13usize);
    let mut tags = Vec::with_capacity(n_jobs);
    let inputs: Vec<JobInput> = (0..n_jobs)
        .map(|i| {
            tags.push(rng.gen_range(0..n_tenants) as u32);
            JobInput {
                name: format!("job{i}"),
                submit: rng.gen_range(0.0..60.0),
                block_sizes: vec![64 << 20; rng.gen_range(1..10usize)],
                n_reduces: rng.gen_range(0..3usize),
                shuffle: ShuffleModel::for_app(AppKind::Terasort),
            }
        })
        .collect();
    let (fairness, admission, preemption) = POLICY_MIXES[(case / 6) % POLICY_MIXES.len()];
    let mut tc = TenancyConfig::new(TenantSet::new(specs), tags);
    tc.fairness = fairness;
    tc.admission = admission;
    tc.preemption = preemption;
    tc.saturation_backlog = rng.gen_range(0.5..4.0);
    tc.preempt_cooldown_s = rng.gen_range(1.0..10.0);
    let mut cfg = SimConfig::tiny(n_nodes, case as u64);
    cfg.max_sim_time = 20_000.0;
    cfg.fluid_network = case.is_multiple_of(2);
    if case.is_multiple_of(3) {
        let at = rng.gen_range(5.0..60.0);
        let recover_at = rng.gen_bool(0.5).then(|| at + rng.gen_range(10.0..40.0));
        cfg.faults.crashes = vec![NodeCrash { node: rng.gen_range(0..n_nodes), at, recover_at }];
    }
    cfg.tenancy = Some(tc);
    (cfg, inputs)
}

/// Service-mode decisions replay captured bytes: 120 seeded scenarios
/// (six policy mixes, both transfer engines, crashes) under the
/// probabilistic, fair and FIFO schedulers, traced. Each pin is the FNV of
/// the decision trace, the fault log, the task fingerprint, the tenant
/// counters, the scheduler counters and the makespan bits; every report is
/// held to the oracle.
#[test]
fn service_mode_replays_pinned_bytes() {
    let placers: [fn() -> Box<dyn TaskPlacer>; 3] = [
        || Box::new(ProbabilisticPlacer::paper()),
        || Box::new(FairDelayPlacer::hadoop_defaults()),
        || Box::new(FifoGreedyPlacer),
    ];
    let mut got = Vec::new();
    // Rejections, preemptions, crashes, and runs where some tenant had
    // more than one job in the system at once.
    let mut seen = [0u64; 4];
    for case in 0..120 {
        let (cfg, inputs) = pinned_case(case);
        for placer in placers {
            let sim = Simulation::new(cfg.clone(), placer());
            let r = sim.with_trace(Box::new(InMemorySink::unbounded())).run(&inputs);
            check_report(&r, &inputs).unwrap_or_else(|e| panic!("case {case} {}: {e}", r.scheduler));
            seen[0] += r.jobs_rejected as u64;
            seen[1] += r.counters.preemptions;
            seen[2] += r.counters.node_crashes;
            seen[3] += r.tenants.iter().any(|t| t.counters.peak_in_system > 1) as u64;
            let tenants: Vec<_> = r.tenants.iter().map(|t| &t.counters).collect();
            let parts = [
                fnv64(r.trace_jsonl.as_deref().expect("traced").as_bytes()),
                fnv64(format!("{:?}", r.faults).as_bytes()),
                fnv64(task_fingerprint(&r).as_bytes()),
                fnv64(format!("{tenants:?}").as_bytes()),
                fnv64(r.counters.to_kv().as_bytes()),
                r.sim_end.to_bits(),
            ];
            got.push(fnv64(format!("{parts:?}").as_bytes()));
        }
    }
    assert!(seen.iter().all(|&s| s > 0), "every service path reached: {seen:?}");
    let moved: Vec<usize> = (0..PINS.len()).filter(|&i| got[i] != PINS[i]).collect();
    assert!(
        moved.is_empty(),
        "{} of {} runs moved (index = case * 3 + scheduler): {moved:?}",
        moved.len(),
        PINS.len()
    );
}

/// Pins of `service_mode_replays_pinned_bytes`, case-major, then
/// probabilistic, fair, FIFO.
#[rustfmt::skip]
const PINS: [u64; 360] = [
    0x810e_8cb3_58cd_cc52, 0x72f2_61ab_1408_7a01, 0x187b_83fa_86ca_f916, 0x2a80_2346_ead7_d88f,
    0x6b6d_1d77_38ab_f5c9, 0xc57f_ea5b_b6fa_f52e, 0xadd6_d2ea_a5b9_7de3, 0x8341_9848_072c_b6df,
    0x89b6_c908_937f_ccdb, 0xadbc_6ba9_a6ea_39b0, 0x181e_5ed4_f17f_4759, 0x24ac_ac40_f1d4_80e7,
    0x635c_37d4_2003_83b2, 0x34df_ee6b_1a8f_b5ff, 0x9399_a91d_abc0_8db9, 0x7eb8_0f04_4c10_45f9,
    0xb79f_b49e_e6f1_5d98, 0x867a_268f_97f4_dee0, 0x3167_8e3b_9cd4_bda6, 0x9c4d_03c4_cf73_c2df,
    0x814f_3a63_44b3_addf, 0x13b0_7842_00da_969f, 0x6edf_2c42_af3f_dc1f, 0x4e69_64f8_30ec_6f8d,
    0xfe63_6c7b_40eb_2114, 0x0d3f_5053_fb51_182c, 0xab4c_a8e3_126a_8e1d, 0x5a0d_c18e_f9ea_ec10,
    0xc266_d539_fff3_9bb0, 0x7ca5_c7d4_447b_5939, 0xfe50_1ff1_2741_7ff9, 0x8aae_6390_73b6_091c,
    0x365e_0681_758f_61c9, 0xfe73_0d30_692e_0d91, 0x88a3_79df_33f8_6cec, 0xb018_2d43_6e22_0132,
    0x5d54_6c9d_34c4_ab7e, 0xafb0_5a1f_92b9_ce21, 0xc9da_0e79_c47e_1df3, 0xfb6e_f75c_4e67_7969,
    0x2e3e_40a8_204c_f84f, 0xb465_505c_c807_b30c, 0xb68f_acc2_70e8_ec55, 0x678d_f497_ef0d_bebf,
    0xcd9a_aa89_e128_3da1, 0x73ff_19de_ff4f_7239, 0x017e_eedd_cae3_c48b, 0x73cc_d4b9_433d_4ec9,
    0x3595_fbfa_a0ae_51dc, 0x6bb9_c71c_75bb_3dd2, 0xf0a6_7147_9676_3195, 0x880c_31df_919a_618b,
    0x3419_759f_7729_50ae, 0x091a_35a4_2a93_e39e, 0xd15c_90dc_1641_3156, 0xdaff_158b_e025_6e1f,
    0xa76d_eaf2_0ea1_9525, 0xdf95_0316_2e5c_25f3, 0x619a_23dd_4c6e_4c69, 0x01a9_c268_5879_304d,
    0x1a10_6c2f_5417_4ae9, 0x0e93_6d8a_d8e5_2e81, 0xe406_fc5c_b9bf_9f42, 0xc62d_397a_85f2_8561,
    0xcd23_76e3_1f80_550e, 0xa702_51a6_e24d_35b7, 0x2012_78e2_969c_58a2, 0xcd4e_ef3e_5dc2_c5eb,
    0x1b98_e885_63e8_12e2, 0xcfc6_9433_a3c5_213d, 0x9c69_de8c_9109_4a84, 0x3969_3af8_7f41_02e4,
    0xca99_533d_932f_1816, 0xf153_23ac_a5e1_0fa5, 0x444c_2b8c_8088_6a2a, 0xf8e8_e6cb_fd9b_2e52,
    0xcd59_c682_da48_1597, 0x5e2d_325d_ddfc_5a08, 0x4eb8_1337_427d_c2da, 0x3739_4fcf_6f2d_893b,
    0x8d70_847f_63a1_7c86, 0xb260_5b49_c2b0_2ed8, 0x69fa_869d_8271_e561, 0x5d24_0d87_8d93_106f,
    0xe32a_39e9_37ec_fe6c, 0xfda1_072b_e8f7_e1ea, 0x8efb_be50_33b9_1cd4, 0x9ecb_e53c_2490_81c9,
    0x59bb_753a_888e_b19e, 0x1643_72c8_f691_f48a, 0x6f7c_eb8a_a177_00db, 0xfacc_5fe5_7781_275f,
    0xaebb_efc4_dc2f_332c, 0x91b0_3c81_72cd_dd33, 0xe55c_57e8_b721_b751, 0x3a08_9385_bf30_3a55,
    0xf5aa_a2a0_c946_8218, 0xc372_9293_4302_0d1d, 0x2083_586d_36d8_b398, 0x1edf_fa9b_7537_de49,
    0x8207_f203_9251_9aeb, 0xa4fa_c4b9_55f9_7708, 0x4ebd_aa5a_20a6_e578, 0x2c98_9417_3a59_61ba,
    0xc82a_0e88_e84f_62b5, 0x411c_707d_d4e4_4f27, 0xbdef_b1e8_594f_3a22, 0x05e1_2981_ee67_7291,
    0x4a25_cf79_ec56_0199, 0x87f0_5426_9029_3339, 0x6a0b_fe61_eb35_4276, 0x7f0e_7453_b2a7_9088,
    0xbdce_634f_aee8_8f3a, 0xf446_caf7_1116_87e8, 0x32eb_e072_a17e_b543, 0x1897_1607_961e_4695,
    0x62e2_d947_2ef1_d5f9, 0x4d78_4d72_1399_5306, 0xf1f3_fc9c_488b_dd3f, 0x228b_aa20_86e0_0fb9,
    0xc3d5_a501_24da_06e9, 0xb8c4_4065_e7b1_9e7a, 0x9a2a_9359_c53d_3860, 0x0f56_b8e3_30f8_69cc,
    0x7f71_3df6_4d35_1f3a, 0xcbf0_82f6_63e7_6f84, 0x317f_e2e9_8c64_961d, 0xbaaa_a2c1_370a_826e,
    0xdc66_d544_238c_b4cf, 0xe7f6_4e30_c1b9_53a8, 0x3b27_4467_c0a2_f956, 0xaf8c_2db9_12e5_2966,
    0x89a1_9ab8_c5c8_75ee, 0x6f68_121a_f6ad_c634, 0xf4a6_d4ac_6718_1646, 0xce61_b0cd_57bb_be7d,
    0xd103_fdb8_ff01_34c2, 0x481d_0d5e_f370_fc7a, 0xbe10_de82_ee8a_cc8d, 0x4a31_4444_12b7_d5e0,
    0xf97c_ba47_4b11_8afc, 0xa2d9_859c_6017_5188, 0x8590_56cc_b11d_558a, 0xe652_aad0_f4e3_2930,
    0x524a_8f5f_678c_5a43, 0x87b9_f3af_cc72_cd31, 0x4cb7_dccb_aa25_d021, 0x683a_a859_ae8f_e33e,
    0x848f_5deb_b5b5_5ad8, 0x82a9_2b52_68b1_9d9e, 0xb257_f8a2_abaf_9a58, 0xfe4f_b5c6_d89c_6003,
    0x91b1_d352_5765_2f26, 0x565e_eea0_ac70_2220, 0x058c_0d84_bb94_1d75, 0x4c08_03d1_1621_4770,
    0xfcc9_f39c_6b68_1bae, 0xb634_264f_58ea_7a35, 0x5be2_ccae_9346_e954, 0x7a9d_cfc2_7163_83eb,
    0x538e_eed5_c931_b422, 0x0850_118d_6dd3_19dc, 0xf4a2_cf1d_4f41_c159, 0xdb9e_0077_cbb6_64ef,
    0xb33f_7978_226a_f19b, 0xa761_b411_ed71_b3c8, 0xd8c8_8bd9_bb08_e0f6, 0x8d8e_589e_6d2f_ec97,
    0x3c8c_6330_0e18_9577, 0xc548_8572_6f89_c4d5, 0x0962_f687_0cda_8271, 0xd634_e6eb_823a_82c3,
    0xf3b7_2c73_3643_1f6d, 0xe0ce_884d_b092_4f08, 0xe815_5676_2f39_9043, 0xd989_7cad_0da3_4742,
    0x3c85_d4f1_c99c_2555, 0xa459_9633_8280_0023, 0x4eea_2d3b_e83f_c9dc, 0xa74a_5bab_5d38_cb16,
    0x04d6_fde3_4d1a_4eba, 0xcd57_20d4_ecb6_add6, 0x183d_6d02_146e_0736, 0x35a3_2319_dd9d_35bb,
    0xe893_47bc_ec54_299d, 0x3e9b_6289_ff01_5f7c, 0x6173_e382_f103_7d65, 0x3246_ad3e_7a00_06d2,
    0xb6b9_f682_cfc4_7e14, 0xc55b_6e0f_5179_98ab, 0x39fe_1d2c_87c0_50f0, 0xd61b_a606_9ff7_c741,
    0xd358_7828_1774_663e, 0x6933_5240_ee9c_2814, 0x1908_9130_bae7_535f, 0xb096_1eb9_33f4_24e4,
    0x690f_a327_a7ff_c731, 0xdee1_f0cb_45e3_0911, 0x4b6f_67f1_2748_7230, 0xed6b_09f7_e779_933e,
    0x196c_009f_778d_7eb1, 0x61f9_bee1_adb9_7653, 0x1316_558a_a3ac_8204, 0x5827_adb6_15f6_82f2,
    0x1a26_437a_aca7_e6f4, 0x79e7_83a0_5178_666c, 0xc856_1043_8e32_57a4, 0x1251_d360_96f9_82c6,
    0xe3ff_1ec3_c504_2dec, 0x3873_064a_8fb0_96d9, 0x010f_4821_d4f4_3616, 0xb26f_757b_789b_d3da,
    0xfbdc_8fc0_703e_fada, 0x2da1_88f9_fe0a_147c, 0x7e2e_a545_d1d2_082d, 0x78a2_e804_56d9_0ecd,
    0xdf5a_85b6_7a24_6f22, 0x41c2_e236_98c1_9fae, 0x1e7c_d5ca_fe0d_2022, 0xa6e7_5286_f718_a32c,
    0xc0ca_8fc3_4d7b_0ab9, 0x47a3_3898_dba4_0b08, 0xe45b_2a85_953e_ddff, 0x7244_c2b8_a814_fc40,
    0x268c_6887_7734_134f, 0x4234_dd9b_64a2_2409, 0x749c_07f0_9e98_a09c, 0x13f2_27f2_2935_6bff,
    0x84b1_c955_705c_8662, 0xcc9b_6b86_2401_cde6, 0x7640_eb78_df1a_4d0f, 0x6eba_3c00_acda_afdf,
    0x4eb1_c22e_7df8_fb99, 0x4ef2_50d1_6e86_062d, 0x2cbe_6b00_929e_d484, 0x16dd_ba0b_7969_2c85,
    0x981f_3026_1718_e72e, 0xe723_247f_ccf1_2160, 0x0d88_ed1d_30c2_36e8, 0x9dd3_1f49_4647_8f1b,
    0xa73f_85bb_b108_8a34, 0x8a40_21ae_8ad8_a52b, 0xe430_f48e_ece7_75ca, 0x1daa_da7a_c0bd_4607,
    0xd74d_3bbd_8f2c_a74b, 0xf4d7_882f_221d_d51f, 0xc491_13c7_92a1_7712, 0x536a_7579_0945_235e,
    0x37e5_fab3_c122_20e3, 0x2b9a_bcb5_cd96_9ffa, 0xaab4_df8a_c018_3211, 0x06c2_6eaa_5750_b209,
    0xbc46_1753_0375_6da4, 0xab9b_3f79_26e1_9381, 0xd3ef_fed2_3e9d_36ad, 0x183f_42ab_2836_9871,
    0xe11d_ba09_2368_6093, 0x0b87_9472_ff89_743a, 0x62a0_d159_1623_22ad, 0x1293_d9f7_7721_bef9,
    0x4b9c_a6eb_6997_14a1, 0x9fe4_8fed_56cf_42a0, 0x5e18_34e9_2622_a3f9, 0xeac3_ce09_8aa1_5902,
    0xfb28_40c1_10e6_7da3, 0x7e9e_b385_d0eb_499b, 0x8c2a_b259_b845_d247, 0xda23_959e_bee2_1146,
    0x51b4_fb2d_5fb4_0a8d, 0xb37c_4bce_821d_74b9, 0xc2ac_3ac8_8908_e454, 0xbffd_868b_4bbf_06bf,
    0x3618_3375_fbcd_e23d, 0xca54_ae80_80c6_956d, 0x7036_32b4_244c_00c0, 0xf717_bf31_c9c4_971b,
    0x90be_435d_17b8_cfba, 0x6b37_2518_800c_0d22, 0x95b1_a69f_b8f8_7324, 0xe7fc_4846_6b89_aa36,
    0x0bea_2f0c_08f8_033a, 0x3562_e7d1_f79e_e25a, 0x9d14_e357_3a63_2424, 0xf52d_d489_d7b3_e9fe,
    0xe286_f313_4a9e_7a9a, 0xb76b_e398_744e_fad5, 0x81f9_323f_550e_b219, 0xf951_3d0b_7b05_5194,
    0x649c_fa1f_c61e_5301, 0xd4fa_ec96_6fb2_5d89, 0x7013_c056_2580_e917, 0xfc23_29cf_5023_7e0f,
    0x2806_9d49_bf55_a329, 0xa194_5dbb_b080_e3cc, 0x5ce6_38b7_9c93_7b80, 0xc21f_2fce_a69a_8a06,
    0xfba4_f53e_4b57_f2b7, 0x0e7a_ee2b_2178_1fe9, 0xe2e9_4463_0fd4_4f1f, 0xacbc_c1f0_8e94_7a56,
    0x821b_0e9b_371a_5df7, 0x5d1d_2be1_b2c3_aa5f, 0x6172_c9dc_c091_bf19, 0x120c_6aae_d37b_c872,
    0xbe7b_304e_fa69_a4c6, 0x88e9_0a3d_d661_fb67, 0xce42_3b84_a207_c46c, 0x6013_e30f_a6aa_b9e0,
    0x6502_6e7f_4816_cae1, 0x1df5_8458_3e4a_2042, 0x80eb_1a75_e541_8702, 0x2ed7_1962_41fc_1e7c,
    0xaf43_1c57_3ca2_7641, 0x3b50_f66f_ea8e_3b3e, 0xa74a_e8af_87b5_100d, 0x4c1b_f849_190a_93d0,
    0x9536_65f0_f4f7_4fd7, 0x0ac6_dca9_1eb4_ab5b, 0x320b_1e64_4111_1e75, 0xf360_9936_ad71_23de,
    0x1574_10aa_e30b_bbd7, 0x926e_0bbb_a3e7_7576, 0x0426_fe6a_1f47_ac7a, 0xbd47_25bc_51fb_b637,
    0xc99e_ce0a_377d_0ebc, 0xb193_d443_8f19_91cc, 0x94cf_bab6_f72b_c48c, 0xe636_3ca8_f96a_09ae,
    0x177c_aec0_5a9f_c23b, 0xf18c_14e1_19f0_8160, 0xb201_d804_4ce2_671b, 0xe677_b47b_7e34_b10c,
    0x5d89_da90_f6b7_84d2, 0xa542_3c04_4928_3498, 0x1719_e248_c998_04a3, 0xc75b_3465_6e0a_0e15,
    0x9a8b_176b_69c8_af85, 0x82dc_6fe7_4149_6c03, 0xcfaa_d828_6e10_30a9, 0x8557_e1e9_8b06_8b13,
    0xd2ce_cebc_d519_0f86, 0x22a6_9250_b64a_31a4, 0x4c3d_6564_e3bc_f701, 0x6180_6620_ea8d_f5b8,
    0xe88f_cdb4_ba2b_7b9c, 0x1440_84d9_01a4_4b41, 0xd443_6155_d9a7_37c5, 0x038d_fd83_953d_6e71,
    0xe010_f576_ca4a_d8ec, 0x19c8_3af4_2f04_bb3c, 0xcf1c_b43c_f55e_e5a5, 0xb4d2_c652_80f5_2173,
    0x80ea_b0ce_95ce_7a3b, 0x7d55_d44c_b338_8dc6, 0xd37f_96a4_14ed_4fa5, 0x15eb_6be7_75da_f06d,
    0xa0bc_2244_7db3_3e87, 0x3db4_24a0_afa4_71f0, 0xa85d_a8f3_095e_a019, 0xf6f8_ad54_7536_99ce,
];
