//! Quickstart: run a real WordCount job on an 8-node virtual cluster under
//! the paper's probabilistic network-aware scheduler.
//!
//! ```sh
//! cargo run --release -p pnats-bench --example quickstart
//! ```
//!
//! This uses the *threaded engine* (`pnats-engine`): actual map and reduce
//! functions over generated Zipf text, with placement decided per heartbeat
//! by Algorithm 1/2 of Shen et al. (CLUSTER 2016).

use pnats_core::prob_sched::ProbabilisticPlacer;
use pnats_engine::{EngineConfig, EngineJob, MapReduceEngine, WordCountJob};
use pnats_workloads::datagen::zipf_text;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    // ~400 KB of Wikipedia-like (Zipf-distributed) text.
    let mut rng = SmallRng::seed_from_u64(7);
    let input = zipf_text(400 << 10, 2_000, 1.0, &mut rng);

    let engine = MapReduceEngine::new(EngineConfig::default());
    let job = EngineJob::new("wordcount", Arc::new(WordCountJob), Arc::new(WordCountJob), 4);

    println!("running {:?} over {} KiB of text ...", job.name, input.len() >> 10);
    let report = engine.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));

    let mut counts: Vec<(String, u64)> = report
        .output
        .iter()
        .map(|(k, v)| (k.clone(), v.parse().unwrap()))
        .collect();
    counts.sort_by_key(|c| std::cmp::Reverse(c.1));

    println!(
        "done in {:?}: {} map tasks, {} reduce tasks, {} distinct words",
        report.wall,
        report.n_maps,
        report.n_reduces,
        counts.len()
    );
    println!(
        "placement: {:.0}% of maps ran data-local ({} scheduler declines)",
        report.map_locality.pct_node_local(),
        report.counters.total_skips()
    );
    println!("top 10 words:");
    for (word, count) in counts.iter().take(10) {
        println!("  {word:>8}  {count}");
    }
}
