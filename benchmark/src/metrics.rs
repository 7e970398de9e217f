//! The benchmark's vocabulary: workloads, metric names, units, directions
//! and regression bounds. `BENCHMARK.json` at the repository root is
//! printed from these tables (`benchmark --print-manifest`), and a unit
//! test holds the file and the tables together.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How long one run measures, seconds (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 12;

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadDef] = &[
    WorkloadDef {
        name: "paper_shuffle",
        why: "Terasort batch on the 60-node cloud config under probabilistic/coupling/fair: the fluid network and Transfers are ~all of host time, placers almost none",
    },
    WorkloadDef {
        name: "scale_nominal",
        why: "1000 nodes, nominal transfers, 60k tasks under probabilistic/fifo/random: bypasses the flow network; runner bookkeeping and core placement/cost caches dominate",
    },
    WorkloadDef {
        name: "service_churn",
        why: "3 weighted tenants, open-loop Poisson arrivals at two rates, seeded node crashes, decision tracing: flows cancelled and maps re-run under churn; only user of tenancy and obs",
    },
    WorkloadDef {
        name: "cluster_jobs",
        why: "Closed loop, 1 client: WordCount jobs on a loopback TCP tracker + 3 workers with the journal on; no simulator code runs, rpc/cluster/engine/journal do all the work",
    },
];

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only; 0 for per-layer metrics).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("tasks_per_s", "1/s", "higher", 0.2),
    e2e("jct_p50_s", "s", "lower", 0.15),
    e2e("jct_p90_s", "s", "lower", 0.15),
    e2e("peak_rss_mb", "MiB", "lower", 0.25),
];

/// The per-layer ledger; the prefix is the crate the number belongs to.
/// A workload that does not exercise a layer reports 0 for its metrics.
pub const PER_LAYER: &[MetricDef] = &[
    layer("net.flow.recompute_us_p50", "us", "lower"),
    layer("net.flow.recompute_us_p99", "us", "lower"),
    layer("net.monitor.snapshot_us_p50", "us", "lower"),
    layer("net.build_s", "s", "lower"),
    layer("sim.new_s", "s", "lower"),
    layer("sim.run_s.probabilistic", "s", "lower"),
    layer("sim.run_s.coupling", "s", "lower"),
    layer("sim.run_s.fair", "s", "lower"),
    layer("sim.run_s.fifo", "s", "lower"),
    layer("sim.run_s.random", "s", "lower"),
    layer("sim.run_self_s", "s", "lower"),
    layer("sim.self_us_per_task", "us", "lower"),
    layer("sim.offers", "count", "lower"),
    layer("sim.sim_end_s", "s", "lower"),
    layer("sim.reexecuted_maps", "count", "lower"),
    layer("sim.node_crashes", "count", "lower"),
    layer("sim.retries", "count", "lower"),
    layer("sim.oracle_check_s", "s", "lower"),
    layer("sim.transfers.cycle_us_p50", "us", "lower"),
    layer("sim.transfers.nominal_cycle_us_p50", "us", "lower"),
    layer("core.place_map_calls", "count", "lower"),
    layer("core.place_map_busy_s", "s", "lower"),
    layer("core.place_reduce_calls", "count", "lower"),
    layer("core.place_reduce_busy_s", "s", "lower"),
    layer("core.offer_us_p50", "us", "lower"),
    layer("core.offer_us_p99", "us", "lower"),
    layer("core.assign_ratio", "ratio", "higher"),
    layer("core.cache_hit_ratio", "ratio", "higher"),
    layer("core.pruned_per_offer", "ratio", "higher"),
    layer("core.skip_below_p_min_frac", "ratio", "lower"),
    layer("core.mean_jct_s", "s", "lower"),
    layer("core.jct_gain_vs_coupling_pct", "%", "higher"),
    layer("core.jct_gain_vs_fair_pct", "%", "higher"),
    layer("baselines.coupling.place_busy_s", "s", "lower"),
    layer("baselines.fair.place_busy_s", "s", "lower"),
    layer("baselines.fifo.place_busy_s", "s", "lower"),
    layer("baselines.random.place_busy_s", "s", "lower"),
    layer("baselines.coupling.mean_jct_s", "s", "lower"),
    layer("baselines.fair.mean_jct_s", "s", "lower"),
    layer("tenancy.sched_wall_s", "s", "lower"),
    layer("tenancy.offer_us", "us", "lower"),
    layer("tenancy.rejected_frac", "ratio", "lower"),
    layer("tenancy.preemptions", "count", "lower"),
    layer("tenancy.jain_index", "ratio", "higher"),
    layer("tenancy.arbiter.pick_ns", "ns", "lower"),
    layer("obs.record_calls", "count", "lower"),
    layer("obs.record_busy_s", "s", "lower"),
    layer("obs.drain_s", "s", "lower"),
    layer("obs.trace_bytes", "bytes", "lower"),
    layer("dfs.place_us_per_block", "us", "lower"),
    layer("workloads.gen_s", "s", "lower"),
    layer("metrics.summarise_s", "s", "lower"),
    layer("engine.job_ms_p50", "ms", "lower"),
    layer("engine.job_ms_p90", "ms", "lower"),
    layer("rpc.hb_rtt_us_p50", "us", "lower"),
    layer("rpc.hb_rtt_us_p99", "us", "lower"),
    layer("rpc.hb_encode_ns", "ns", "lower"),
    layer("rpc.hb_decode_ns", "ns", "lower"),
    layer("rpc.retries", "count", "lower"),
    layer("cluster.job_ms_p50", "ms", "lower"),
    layer("cluster.first_assign_ms_p50", "ms", "lower"),
    layer("cluster.over_engine_x", "ratio", "lower"),
    layer("cluster.offers_per_job", "count", "lower"),
    layer("cluster.assign_ratio", "ratio", "higher"),
    layer("cluster.journal.append_us_p50.never", "us", "lower"),
    layer("cluster.journal.append_us_p50.always", "us", "lower"),
    layer("cluster.journal.replay_ms", "ms", "lower"),
    layer("cluster.journal.bytes_per_job", "bytes", "lower"),
    layer("bench.wall_s", "s", "lower"),
    layer("bench.traced_wall_s", "s", "lower"),
    layer("bench.trace_overhead_frac", "ratio", "lower"),
    layer("bench.span_coverage_frac", "ratio", "higher"),
    layer("bench.spans", "count", "lower"),
];

/// Metric values of one run, by name. Names must come from the tables
/// above; per-layer metrics a workload leaves unset print as 0.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let def = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the benchmark's tables"));
        self.0.insert(def.name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The result line the driver reads: every metric of `defs`, in table order.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &Metrics,
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in defs.iter().enumerate() {
        let v = values.get(m.name).unwrap_or(0.0);
        assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest_json() -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"benchmark/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_file_is_what_the_tables_print() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            on_disk,
            manifest_json(),
            "BENCHMARK.json is stale: regenerate it with `benchmark --print-manifest`"
        );
    }

    #[test]
    fn manifest_keeps_the_contract_limits() {
        let text = manifest_json();
        pnats_obs::json::validate_json(&text).expect("manifest is valid JSON");
        assert!(text.len() <= 64 << 10);
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let name_ok = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        assert!(
            names.iter().all(|n| name_ok(n)),
            "a name breaks the naming rule"
        );
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why too long",
                w.name
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: bad unit",
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in END_TO_END {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{}: bound out of range",
                m.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_is_valid_json_with_every_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("tasks_per_s", 1234.5678);
        let line = result_json(true, 10, 0, END_TO_END, &m);
        pnats_obs::json::validate_json(&line).expect("result line is valid JSON");
        for d in END_TO_END {
            assert!(
                line.contains(&format!("\"{}\": {{\"value\": ", d.name)),
                "{} missing",
                d.name
            );
        }
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, "));
    }

    #[test]
    #[should_panic(expected = "not in the benchmark's tables")]
    fn unknown_metric_names_are_refused() {
        Metrics::default().set("made.up", 1.0);
    }
}
