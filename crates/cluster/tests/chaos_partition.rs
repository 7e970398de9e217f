//! Wire-chaos acceptance tests for the cluster runtime: a transparent
//! chaos net must leave engine parity untouched, and a one-way partition
//! of a map-output source must be survived by circuit breaking the dead
//! holder, escalating `SourceUnreachable`, and re-executing the map on a
//! reachable node — with every trip and alternate fetch accounted for.

use pnats_cluster::{
    check_cluster_report, placer_by_name, run_cluster_chaos, ChaosFault, ClusterConfig, JobSpec,
    LinkRule,
};
use pnats_core::faults::FaultPlan;
use pnats_engine::MapReduceEngine;
use pnats_rpc::{BreakerPolicy, ChaosPlan, RetryPolicy};
use std::time::Duration;

fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "partition", "breaker", "escalate", "requeue", "holder", "fetch", "epoch", "ledger",
        "invalidate", "reroute",
    ];
    let mut s = String::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    while s.len() < kib * 1024 {
        for _ in 0..10 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(WORDS[(x >> 33) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

fn chaos_cfg() -> ClusterConfig {
    ClusterConfig {
        n_nodes: 3,
        heartbeat: Duration::from_millis(4),
        // Tight deadlines and budgets so black-holed fetches fail in
        // milliseconds, not the 2 s production default.
        io_timeout: Duration::from_millis(100),
        retry: RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(2),
            cap: Duration::from_millis(20),
            seed: 7,
        },
        breaker: BreakerPolicy { threshold: 2, cooldown: 2 },
        max_wall: Duration::from_secs(60),
        ..ClusterConfig::default()
    }
}

fn reference_output(
    cfg: &ClusterConfig,
    spec: &JobSpec,
    n_reduces: usize,
    input: &str,
) -> Vec<(String, String)> {
    let mut ecfg = cfg.engine_config();
    ecfg.faults = FaultPlan::none();
    let engine = MapReduceEngine::new(ecfg);
    let report = engine.run(
        &spec.job(n_reduces),
        input,
        placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap(),
    );
    assert!(!report.failed);
    report.output
}

/// With an empty plan every proxy is a transparent relay: the run must be
/// indistinguishable from `run_cluster` — engine-identical output, no
/// injected events, no breaker activity.
#[test]
fn transparent_chaos_net_preserves_engine_parity() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = chaos_cfg();
    let input = words_input(16);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let (report, net) =
        run_cluster_chaos(&cfg, &JobSpec::WordCount, 3, &input, placer, ChaosPlan::none());

    assert!(!report.failed, "transparent proxies must not perturb the job");
    check_cluster_report(&report).expect("report oracle");
    assert_eq!(report.output, expected, "chaos-net parity failure");
    assert!(net.events().is_empty(), "empty plan injected events: {:?}", net.events());
    assert_eq!(report.counters.breaker_trips, 0);
    assert_eq!(report.counters.reexecuted_maps, 0);
}

/// The tentpole acceptance scenario: worker 0's data plane answers no one
/// (requests arrive, replies vanish — a one-way partition). Reducers on
/// the other nodes must trip their breaker on the dead holder, escalate
/// `SourceUnreachable`, and the tracker must re-execute those maps on a
/// reachable node so the job still completes with the engine's exact
/// output — with `circuit_open`/`link_partitioned` records and breaker
/// counters accounting for the trips.
#[test]
fn one_way_partition_recovers_via_reexecution() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = chaos_cfg();
    let input = words_input(32);
    let expected = reference_output(&cfg, &JobSpec::WordCount, 3, &input);

    let plan = ChaosPlan::new(cfg.seed)
        .with_rule(LinkRule::on("data:w0", ChaosFault::PartitionFromUpstream));
    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let (report, net) = run_cluster_chaos(&cfg, &JobSpec::WordCount, 3, &input, placer, plan);

    assert!(!report.failed, "job must route around the partitioned holder");
    check_cluster_report(&report).expect("report oracle");
    assert_eq!(report.output, expected, "partition recovery changed the output");

    let c = &report.counters;
    assert!(c.breaker_trips >= 1, "no breaker ever tripped: {c:?}");
    assert!(c.link_partitions >= 1, "no SourceUnreachable escalation was recorded: {c:?}");
    assert!(
        c.reexecuted_maps >= c.link_partitions,
        "every escalation re-executes its map: {c:?}"
    );
    assert!(c.alt_source_fetches >= 1, "recovered partition was never fetched: {c:?}");
    // The ledger must show the re-executed maps completing in epoch > 0.
    let reexec_entries = report
        .completions
        .iter()
        .filter(|t| t.kind == pnats_obs::TaskKind::Map && t.epoch > 0)
        .count() as u64;
    assert_eq!(reexec_entries, c.reexecuted_maps);
    // And the chaos net actually severed connections on the named link.
    assert!(
        net.events().iter().any(|e| e.link == "data:w0" && e.action.severs_link()),
        "no partition event recorded: {:?}",
        net.events()
    );
}
