//! The parity gate: a cluster run (real TCP tracker + worker threads)
//! must produce output byte-identical to an engine run of the same job,
//! same input, same seed — for the paper's scheduler and for baselines.
//! Placement and timing may differ wildly between the runtimes; the
//! output may not.

use pnats_cluster::{check_cluster_report, placer_by_name, run_cluster, ClusterConfig, JobSpec};
use pnats_engine::{EngineJob, MapReduceEngine};
use std::time::Duration;

/// Deterministic prose-ish input: seeded words, fixed line lengths.
fn words_input(kib: usize) -> String {
    const WORDS: &[&str] = &[
        "map", "reduce", "shuffle", "block", "replica", "rack", "probabilistic", "placement",
        "locality", "heartbeat", "tracker", "slot", "skew", "partition", "network",
    ];
    let mut s = String::new();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    while s.len() < kib * 1024 {
        for _ in 0..8 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(WORDS[(x >> 33) as usize % WORDS.len()]);
            s.push(' ');
        }
        s.push('\n');
    }
    s
}

/// Deterministic terasort-style input: 10-byte zero-padded keys + payload.
fn tera_input(records: usize) -> String {
    let mut s = String::new();
    let mut x = 0x9E37_79B9u64;
    for i in 0..records {
        x = x.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
        s.push_str(&format!("{:010}payload-{i}\n", x % 10_000_000_000));
    }
    s
}

fn cfg() -> ClusterConfig {
    ClusterConfig {
        heartbeat: Duration::from_millis(3),
        ..ClusterConfig::default()
    }
}

fn engine_for(cfg: &ClusterConfig) -> MapReduceEngine {
    MapReduceEngine::new(cfg.engine_config())
}

fn assert_parity(spec: &JobSpec, n_reduces: usize, input: &str, scheduler: &str) {
    let cfg = cfg();
    let job: EngineJob = spec.job(n_reduces);
    let hb = cfg.engine_config().heartbeat.as_secs_f64();
    let engine_placer = placer_by_name(scheduler, hb).expect("known scheduler");
    let engine_report = engine_for(&cfg).run(&job, input, engine_placer);
    assert!(!engine_report.failed, "engine run failed");

    let cluster_placer = placer_by_name(scheduler, cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, spec, n_reduces, input, cluster_placer);
    assert!(!report.failed, "cluster run failed ({scheduler})");
    check_cluster_report(&report).expect("cluster oracle");

    assert_eq!(report.n_maps, engine_report.n_maps, "{scheduler}: map count");
    assert_eq!(report.n_reduces, engine_report.n_reduces, "{scheduler}: reduce count");
    assert_eq!(
        report.output, engine_report.output,
        "{scheduler}: cluster output diverged from engine output"
    );
    // Fault-free: every task assigned exactly once (modulo lost-reply
    // requeues, which count as retries and are already conserved).
    assert_eq!(
        report.counters.assigns,
        (report.n_maps + report.n_reduces) as u64 + report.counters.retries,
        "{scheduler}: assignment conservation"
    );
    assert_eq!(report.counters.node_crashes, 0, "{scheduler}: phantom crashes");
}

#[test]
fn wordcount_parity_across_schedulers() {
    pnats_cluster::pregrow_descriptor_table();
    let input = words_input(24);
    for scheduler in ["paper", "fifo", "random"] {
        assert_parity(&JobSpec::WordCount, 3, &input, scheduler);
    }
}

#[test]
fn grep_parity_across_schedulers() {
    pnats_cluster::pregrow_descriptor_table();
    let input = words_input(20);
    for scheduler in ["paper", "fifo", "random"] {
        assert_parity(&JobSpec::Grep("rack".to_string()), 2, &input, scheduler);
    }
}

#[test]
fn terasort_parity_across_schedulers() {
    pnats_cluster::pregrow_descriptor_table();
    let input = tera_input(900);
    for scheduler in ["paper", "fifo", "random"] {
        assert_parity(&JobSpec::TeraSort, 4, &input, scheduler);
    }
}

#[test]
fn empty_input_still_completes() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = cfg();
    let placer = placer_by_name("paper", cfg.heartbeat.as_secs_f64()).unwrap();
    let report = run_cluster(&cfg, &JobSpec::WordCount, 2, "", placer);
    assert!(!report.failed);
    check_cluster_report(&report).expect("oracle");
    assert_eq!(report.n_maps, 1, "empty input still yields one map");
    assert!(report.output.is_empty());
}

/// Nothing on a job's critical path waits out a fixed period any more: at
/// a 100 ms heartbeat — long enough that only naps, not work, could fill
/// it — a whole WordCount takes a handful of periods (the fixed shutdown
/// grace alone used to take twenty). And the beats that bought that are
/// out-of-band: the round clock, which every liveness window counts in,
/// still ticks once per period of wall time and no faster.
#[test]
fn a_job_takes_heartbeats_not_naps_and_the_round_clock_stays_a_timer() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = ClusterConfig { heartbeat: Duration::from_millis(100), ..ClusterConfig::default() };
    let input = words_input(24);
    let job = JobSpec::WordCount.job(3);
    let hb = cfg.heartbeat.as_secs_f64();
    let expected = engine_for(&cfg).run(&job, &input, placer_by_name("paper", hb).unwrap());

    let t = std::time::Instant::now();
    let report =
        run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer_by_name("paper", hb).unwrap());
    let periods = t.elapsed().as_secs_f64() / hb;

    assert!(!report.failed);
    check_cluster_report(&report).expect("cluster oracle");
    assert_eq!(report.output, expected.output, "cluster output diverged from engine output");
    assert!(periods < 12.0, "the job took {periods:.1} heartbeat periods: {:?}", report.stages);
    assert!(
        report.stages.rounds as f64 <= report.wall.as_secs_f64() / hb + 1.0,
        "{} rounds in {:?}: something other than the timer ticked the clock",
        report.stages.rounds,
        report.wall
    );
}

/// The goodbye rides on the verdict. At a 100 ms heartbeat every worker
/// has been told `shutdown` within a quarter period of it: idle workers'
/// heartbeats were being held for the verdict, where a timed beat could
/// have been up to a whole period away. Output still matches the engine,
/// and the round clock still ticks only with the timer.
#[test]
fn workers_hear_the_verdict_without_waiting_for_a_beat() {
    pnats_cluster::pregrow_descriptor_table();
    let cfg = ClusterConfig { heartbeat: Duration::from_millis(100), ..ClusterConfig::default() };
    let input = words_input(24);
    let hb = cfg.heartbeat.as_secs_f64();
    let expected =
        engine_for(&cfg).run(&JobSpec::WordCount.job(3), &input, placer_by_name("paper", hb).unwrap());

    let report =
        run_cluster(&cfg, &JobSpec::WordCount, 3, &input, placer_by_name("paper", hb).unwrap());

    assert!(!report.failed);
    check_cluster_report(&report).expect("cluster oracle");
    assert_eq!(report.output, expected.output, "cluster output diverged from engine output");
    let st = &report.stages;
    let goodbye_ms = st.workers_told.expect("every worker told") - st.job_done.unwrap();
    assert!(goodbye_ms < 0.25 * hb * 1e3, "told {goodbye_ms:.1} ms after the verdict: {st:?}");
    assert!(
        st.rounds as f64 <= report.wall.as_secs_f64() / hb + 1.0,
        "{} rounds in {:?}: something other than the timer ticked the clock",
        st.rounds,
        report.wall
    );
}
