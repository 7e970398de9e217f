//! The engine runtime: virtual nodes, slots, heartbeat-driven placement,
//! threaded task execution. Job bookkeeping and the offer loop are the
//! shared [`JobScheduler`]'s; this file is the wall-clock, thread-spawning
//! driver around it.

use crate::api::EngineJob;
use crate::book::{JobScheduler, Launch, NodeFault, Slots, TaskEvent, Verdict};
use crate::exec::{execute_map, execute_reduce, MapProgressGauges};
use pnats_core::faults::FaultPlan;
/// Re-exported from [`pnats_core::partition`] — one definition shared by
/// every runtime (engine, simulator shuffle model, cluster).
pub use pnats_core::partition::Partitioner;
use pnats_core::placer::TaskPlacer;
use pnats_metrics::LocalityCounter;
use pnats_net::{DistanceMatrix, NodeId};
use pnats_obs::{DecisionObserver, FaultKind, SchedCounters};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::Scope;
use std::time::{Duration, Instant};

/// Engine configuration. The defaults make examples finish in seconds while
/// keeping remote reads visibly slower than local ones.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// Virtual nodes.
    pub n_nodes: usize,
    /// Map slots per node.
    pub map_slots: u32,
    /// Reduce slots per node.
    pub reduce_slots: u32,
    /// Input split size in bytes.
    pub block_bytes: usize,
    /// Replication factor for input blocks.
    pub replication: usize,
    /// Driver heartbeat period.
    pub heartbeat: Duration,
    /// Simulated network cost: microseconds per KiB per hop. Local access
    /// is free; a 2-hop 64 KiB read at 20 µs/KiB·hop costs ~2.6 ms.
    pub net_us_per_kib_hop: u64,
    /// Simulated map compute cost: microseconds per KiB of input.
    pub cpu_us_per_kib: u64,
    /// Fraction of maps that must finish before reduces launch.
    pub slowstart: f64,
    /// Shuffle-partition choice.
    pub partitioner: Partitioner,
    /// Seed for replica placement and placer randomness.
    pub seed: u64,
    /// Deterministic fault plan. Crash and recovery times are keyed by
    /// heartbeat *round* (`at as u64` / `recover_at as u64`), since the
    /// engine runs on wall-clock heartbeats rather than simulated seconds;
    /// transient map failures reuse the simulator's seeded per-attempt
    /// draw ([`FaultPlan::map_attempt_fails`]), so retry verdicts match
    /// across runtimes. Heartbeat-loss windows and link degradations are
    /// simulator-only and ignored here — the engine's data plane is
    /// sleep-based, with no links to degrade.
    pub faults: FaultPlan,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            n_nodes: 8,
            map_slots: 2,
            reduce_slots: 1,
            block_bytes: 64 << 10,
            replication: 2,
            heartbeat: Duration::from_millis(4),
            net_us_per_kib_hop: 20,
            cpu_us_per_kib: 30,
            slowstart: 0.25,
            partitioner: Partitioner::Hash,
            seed: 42,
            faults: FaultPlan::none(),
        }
    }
}

/// What a run produces.
pub struct EngineReport {
    /// Final key/value pairs, partition-major (within a partition, sorted
    /// by key — so with a range partitioner the whole output is sorted).
    pub output: Vec<(String, String)>,
    /// Where each map ran relative to its block.
    pub map_locality: LocalityCounter,
    /// Where each reduce ran relative to its dominant input source.
    pub reduce_locality: LocalityCounter,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Map task count.
    pub n_maps: usize,
    /// Reduce task count.
    pub n_reduces: usize,
    /// Decision counters for the run (offers, assigns, skips by reason,
    /// plus the probabilistic placer's prune/cache tallies).
    pub counters: SchedCounters,
    /// The decision trace as JSONL, when the run's decision observer had
    /// an in-memory sink; `None` otherwise (every public entry point).
    pub trace_jsonl: Option<String>,
    /// True when the job was aborted: a map exhausted its transient-failure
    /// retry budget, or every node died with no recovery scheduled. The
    /// output is then partial (whatever reduces had already completed).
    pub failed: bool,
}

/// A finished map's output: the node holding it, per-partition pairs, and
/// their byte sizes.
type MapOutput = (u32, Vec<Vec<(String, String)>>, Vec<u64>);
/// Shared store of finished map outputs, filled by the driver. A reduce
/// thread takes an `Arc` of each output under the lock (holder and bytes
/// can never disagree) and reads its partition in place.
type OutputStore = Arc<Mutex<Vec<Option<Arc<MapOutput>>>>>;

enum DoneMsg {
    Map {
        map: u32,
        node: u32,
        /// Attempt tag: a message whose tag no longer matches the book's
        /// current attempt belongs to a crash-killed attempt and is ignored.
        attempt: u32,
        /// Per-partition intermediate pairs and their byte sizes.
        partitions: Vec<Vec<(String, String)>>,
        bytes: Vec<u64>,
    },
    MapFailed {
        map: u32,
        node: u32,
        attempt: u32,
    },
    Reduce {
        reduce: u32,
        node: u32,
        attempt: u32,
        output: Vec<(String, String)>,
        sources: Vec<(u32, u64)>,
    },
}

/// What the driver shares with the task threads of one run.
struct Shared<'a> {
    cfg: &'a EngineConfig,
    job: &'a EngineJob,
    blocks: Arc<Vec<String>>,
    hops: Arc<DistanceMatrix>,
    progress: Arc<Vec<MapProgressGauges>>,
    outputs: OutputStore,
    all_maps_done: Arc<AtomicBool>,
    abort: Arc<AtomicBool>,
    tx: Sender<DoneMsg>,
}

/// The engine: a virtual cluster ready to run jobs.
pub struct MapReduceEngine {
    cfg: EngineConfig,
}

impl MapReduceEngine {
    /// A cluster per `cfg`, on a single-rack star topology (the engine's
    /// network realism lives in hop-proportional read delays, not in link
    /// contention — that is the simulator's job).
    pub fn new(cfg: EngineConfig) -> Self {
        Self { cfg }
    }

    /// Access the engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// Run `job` over `input` with the given task placer. Returns the full
    /// output and placement statistics.
    pub fn run(
        &self,
        job: &EngineJob,
        input: &str,
        placer: Box<dyn TaskPlacer>,
    ) -> EngineReport {
        self.run_observed(job, input, placer, DecisionObserver::disabled())
    }

    /// The engine as a driver of the shared [`JobScheduler`]: it owns the
    /// wall clock, the slot counts (freed by completion messages) and the
    /// task threads; every scheduling decision and every piece of job
    /// bookkeeping is the scheduler's.
    fn run_observed(
        &self,
        job: &EngineJob,
        input: &str,
        placer: Box<dyn TaskPlacer>,
        observer: DecisionObserver,
    ) -> EngineReport {
        let start = Instant::now();
        let cfg = &self.cfg;
        let mut sched = JobScheduler::derive(cfg, input, job.n_reduces, placer, observer, ());
        let (n_maps, n_reduces) = (sched.book().maps().len(), job.n_reduces);
        let mut slots = Slots::new(cfg.n_nodes, cfg.map_slots, cfg.reduce_slots);
        let mut failed = false;

        // Threads cannot be killed, so a crash-killed attempt's eventual
        // message must go stale instead: the book's attempt tags do that.
        let (tx, rx): (Sender<DoneMsg>, Receiver<DoneMsg>) = channel();
        let shared = Shared {
            cfg,
            job,
            blocks: sched.blocks().clone(),
            hops: sched.hops().clone(),
            progress: Arc::new((0..n_maps).map(|_| MapProgressGauges::new(n_reduces)).collect()),
            outputs: Arc::new(Mutex::new((0..n_maps).map(|_| None).collect())),
            all_maps_done: Arc::new(AtomicBool::new(false)),
            abort: Arc::new(AtomicBool::new(false)),
            tx,
        };

        let mut round = 0u64;
        std::thread::scope(|scope| {
            let mut last_hb = Instant::now() - cfg.heartbeat;
            loop {
                sched.set_now(start.elapsed().as_secs_f64());
                // Drain completions.
                while let Ok(msg) = rx.try_recv() {
                    match msg {
                        DoneMsg::Map { map, node, attempt, partitions, bytes } => {
                            if sched.map_done(map, attempt, node, &bytes) != Verdict::Accepted {
                                continue; // crash-killed attempt; output discarded
                            }
                            shared.outputs.lock().unwrap()[map as usize] =
                                Some(Arc::new((node, partitions, bytes)));
                            slots.map[node as usize] += 1;
                            if sched.book().maps_finished() == n_maps {
                                shared.all_maps_done.store(true, Ordering::SeqCst);
                            }
                        }
                        DoneMsg::MapFailed { map, node, attempt } => {
                            if let Some(exhausted) = sched.map_failed(map, attempt, node) {
                                slots.map[node as usize] += 1;
                                failed |= exhausted;
                            }
                        }
                        DoneMsg::Reduce { reduce, node, attempt, output, sources } => {
                            if sched.reduce_done(reduce, attempt, node, output, &sources) {
                                slots.reduce[node as usize] += 1;
                            }
                        }
                    }
                }
                if failed || sched.book().complete() {
                    break;
                }

                if last_hb.elapsed() < cfg.heartbeat {
                    std::thread::sleep(Duration::from_micros(300));
                    continue;
                }
                last_hb = Instant::now();
                round += 1;

                for fault in sched.begin_round(round) {
                    match fault {
                        NodeFault::Crash(n) => {
                            sched.fault(FaultKind::NodeCrash, n as u32, None);
                            // No slot survives: recovery resets the counts
                            // wholesale, and until then the node hosts
                            // nothing.
                            slots.set(n, 0, 0);
                            for ev in sched.lose_node(n) {
                                // Completed output lived on the dead node:
                                // re-executed, exactly as Hadoop re-runs
                                // lost map outputs.
                                if let TaskEvent::MapInvalidated { map, .. } = ev {
                                    shared.outputs.lock().unwrap()[map as usize] = None;
                                    shared.all_maps_done.store(false, Ordering::SeqCst);
                                }
                            }
                        }
                        NodeFault::Recover(n) => {
                            slots.set(n, cfg.map_slots, cfg.reduce_slots);
                            sched.fault(FaultKind::NodeRecover, n as u32, None);
                        }
                    }
                }
                // A whole-cluster permanent blackout can never finish the
                // remaining work — fail the job instead of spinning forever.
                if sched.permanent_blackout() {
                    failed = true;
                    sched.fault(FaultKind::JobFailed, 0, None);
                    break;
                }

                // Publish the running maps' gauges, then heartbeat every
                // node (dead ones have no free slot to fill).
                for (m, g) in shared.progress.iter().enumerate() {
                    let parts = g.part_bytes.iter().map(|b| b.load(Ordering::Relaxed));
                    sched.note_progress(m as u32, g.d_read.load(Ordering::Relaxed), parts);
                }
                for n in 0..cfg.n_nodes {
                    let node = NodeId(n as u32);
                    for launch in sched.offer(node, &mut slots) {
                        match launch {
                            Launch::Map { map, attempt, doomed } => {
                                let replicas = sched.replicas(map as usize);
                                shared.spawn_map(scope, node, map, attempt, doomed, replicas)
                            }
                            Launch::Reduce { reduce, attempt } => {
                                shared.spawn_reduce(scope, node, reduce, attempt)
                            }
                        }
                    }
                }
            }
            // Task threads wind down on their own once the job is failed.
            shared.abort.store(failed, Ordering::SeqCst);
        });

        let o = sched.finish();
        EngineReport {
            output: o.output,
            map_locality: o.map_locality,
            reduce_locality: o.reduce_locality,
            wall: start.elapsed(),
            n_maps,
            n_reduces,
            counters: o.counters,
            trace_jsonl: o.trace_jsonl,
            failed,
        }
    }
}

impl Shared<'_> {
    fn net_delay(&self, bytes: u64, hops: f64) -> Duration {
        Duration::from_micros((bytes / 1024).max(1) * self.cfg.net_us_per_kib_hop * hops as u64)
    }

    fn spawn_map<'s>(
        &self,
        scope: &'s Scope<'s, '_>,
        node: NodeId,
        map: u32,
        attempt: u32,
        doomed: bool,
        replicas: &[NodeId],
    ) {
        let mapper = self.job.mapper.clone();
        let partitioner = self.cfg.partitioner;
        let n_reduces = self.job.n_reduces;
        let blocks = self.blocks.clone();
        let progress = self.progress.clone();
        let tx = self.tx.clone();
        let hops_to = replicas.iter().map(|&r| self.hops.get(node, r));
        let nearest = hops_to.fold(f64::INFINITY, f64::min);
        let fetch_delay = self.net_delay(blocks[map as usize].len() as u64, nearest);
        let cpu_us = self.cfg.cpu_us_per_kib;
        let node = node.0;
        scope.spawn(move || {
            std::thread::sleep(fetch_delay);
            if doomed {
                // A transient failure (the seeded draw doomed this attempt):
                // burn a little compute, then report the failure. Progress
                // gauges are left untouched.
                std::thread::sleep(Duration::from_micros(cpu_us * 4));
                let _ = tx.send(DoneMsg::MapFailed { map, node, attempt });
                return;
            }
            // Pace the task at 8 KiB boundaries so progress is observable
            // by the scheduler between heartbeats.
            let mut partitions: Vec<Vec<(String, String)>> = vec![Vec::new(); n_reduces];
            let bytes = execute_map(
                mapper.as_ref(),
                &blocks[map as usize],
                n_reduces,
                partitioner,
                &progress[map as usize],
                || std::thread::sleep(Duration::from_micros(cpu_us * 8)),
                |p, k, v| partitions[p].push((k.to_owned(), v.to_owned())),
            );
            let _ = tx.send(DoneMsg::Map { map, node, attempt, partitions, bytes });
        });
    }

    fn spawn_reduce<'s>(&self, scope: &'s Scope<'s, '_>, node: NodeId, reduce: u32, attempt: u32) {
        let reducer = self.job.reducer.clone();
        let outputs = self.outputs.clone();
        let all_maps_done = self.all_maps_done.clone();
        let abort = self.abort.clone();
        let hops = self.hops.clone();
        let tx = self.tx.clone();
        let net_us = self.cfg.net_us_per_kib_hop;
        let n_maps = self.blocks.len();
        scope.spawn(move || {
            // Shuffle: wait for the map phase, then pull this partition
            // from every map output (network delay per remote source).
            while !all_maps_done.load(Ordering::SeqCst) {
                if abort.load(Ordering::SeqCst) {
                    return; // the job failed; unblock the driver's join
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            let r = reduce as usize;
            let mut held: Vec<Arc<MapOutput>> = Vec::with_capacity(n_maps);
            let mut per_source: Vec<(u32, u64)> = Vec::new();
            for m in 0..n_maps {
                // Per-map wait: a crash can invalidate an output even after
                // the map phase once looked complete — re-fetch from the
                // re-executed attempt.
                let out = loop {
                    if abort.load(Ordering::SeqCst) {
                        return;
                    }
                    if let Some(out) = outputs.lock().unwrap()[m].clone() {
                        break out;
                    }
                    std::thread::sleep(Duration::from_micros(500));
                };
                let (src, sz) = (out.0, out.2[r]);
                let h = hops.get(NodeId(src), node);
                if h > 0.0 && sz > 0 {
                    std::thread::sleep(Duration::from_micros(
                        (sz / 1024).max(1) * net_us * h as u64,
                    ));
                }
                if sz > 0 {
                    match per_source.iter_mut().find(|(n, _)| *n == src) {
                        Some(e) => e.1 += sz,
                        None => per_source.push((src, sz)),
                    }
                }
                held.push(out);
            }
            let mut output = Vec::new();
            execute_reduce(
                reducer.as_ref(),
                held.iter().flat_map(|out| out.1[r].iter().map(|(k, v)| (k.as_str(), v.as_str()))),
                &mut |k, v| output.push((k.to_owned(), v.to_owned())),
            );
            let _ = tx.send(DoneMsg::Reduce {
                reduce,
                node: node.0,
                attempt,
                output,
                sources: per_source,
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::WordCountJob;
    use pnats_core::prob_sched::ProbabilisticPlacer;
    use std::collections::HashMap;

    impl MapReduceEngine {
        /// Split text the way a run would (the driver itself splits inside
        /// `JobScheduler::derive`).
        fn split_blocks(&self, input: &str) -> Vec<String> {
            crate::exec::split_blocks(input, self.cfg.block_bytes)
        }

        /// Like [`run`](Self::run), but routes every placement decision
        /// into `sink` as a [`pnats_obs::DecisionRecord`]. The engine runs
        /// on wall-clock heartbeats, so traces are *not* byte-reproducible
        /// across runs the way the simulator's are.
        fn run_traced(
            &self,
            job: &EngineJob,
            input: &str,
            placer: Box<dyn TaskPlacer>,
            sink: Box<dyn pnats_obs::TraceSink>,
        ) -> EngineReport {
            self.run_observed(job, input, placer, DecisionObserver::with_sink(sink))
        }
    }

    fn tiny_engine() -> MapReduceEngine {
        MapReduceEngine::new(EngineConfig {
            n_nodes: 4,
            block_bytes: 512,
            heartbeat: Duration::from_millis(1),
            net_us_per_kib_hop: 5,
            cpu_us_per_kib: 5,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn wordcount_counts_correctly() {
        let eng = tiny_engine();
        let input = "apple banana apple\ncherry banana apple\n".repeat(40);
        let job = EngineJob::new(
            "wc",
            Arc::new(WordCountJob),
            Arc::new(WordCountJob),
            3,
        );
        let report = eng.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));
        let counts: HashMap<String, u64> = report
            .output
            .iter()
            .map(|(k, v)| (k.clone(), v.parse().unwrap()))
            .collect();
        assert_eq!(counts["apple"], 120);
        assert_eq!(counts["banana"], 80);
        assert_eq!(counts["cherry"], 40);
        assert!(report.n_maps > 1, "input should split into several blocks");
        assert_eq!(report.map_locality.total() as usize, report.n_maps);
        assert_eq!(report.reduce_locality.total() as usize, report.n_reduces);
    }

    #[test]
    fn block_splitting_respects_lines() {
        let eng = tiny_engine();
        let input = (0..100).map(|i| format!("line-{i}")).collect::<Vec<_>>().join("\n");
        let blocks = eng.split_blocks(&input);
        assert!(blocks.len() > 1);
        let rejoined: String = blocks.concat();
        assert_eq!(rejoined.lines().count(), 100);
        for b in &blocks {
            assert!(b.ends_with('\n') || b == blocks.last().unwrap());
        }
    }

    #[test]
    fn empty_input_still_completes() {
        let eng = tiny_engine();
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 2);
        let report = eng.run(&job, "", Box::new(ProbabilisticPlacer::paper()));
        assert!(report.output.is_empty());
    }

    #[test]
    fn counters_cover_every_offer() {
        let eng = tiny_engine();
        let input = "alpha beta gamma\n".repeat(60);
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 2);
        let report = eng.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));
        assert!(report.counters.consistent(), "{:?}", report.counters);
        // Every task launched exactly once.
        assert_eq!(
            report.counters.assigns as usize,
            report.n_maps + report.n_reduces
        );
        assert!(report.trace_jsonl.is_none(), "default run does not trace");
    }

    #[test]
    fn transient_failures_retry_to_completion() {
        let mut cfg = EngineConfig {
            n_nodes: 4,
            block_bytes: 512,
            heartbeat: Duration::from_millis(1),
            net_us_per_kib_hop: 5,
            cpu_us_per_kib: 5,
            ..EngineConfig::default()
        };
        cfg.faults.transient_map_failure_p = 0.5;
        cfg.faults.max_attempts = 16;
        let seed = cfg.seed;
        let plan = cfg.faults.clone();
        let eng = MapReduceEngine::new(cfg);
        let input = "apple banana apple\ncherry banana apple\n".repeat(40);
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 3);
        let report = eng.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));
        assert!(!report.failed);
        let counts: HashMap<String, u64> = report
            .output
            .iter()
            .map(|(k, v)| (k.clone(), v.parse().unwrap()))
            .collect();
        assert_eq!(counts["apple"], 120);
        assert_eq!(counts["banana"], 80);
        assert_eq!(counts["cherry"], 40);
        assert!(report.counters.consistent(), "{:?}", report.counters);
        // No crashes, so each map's attempts run strictly in sequence and
        // the retry count is exactly recomputable from the seeded draw.
        let expected: u64 = (0..report.n_maps)
            .map(|m| {
                (1..).take_while(|&a| plan.map_attempt_fails(seed, m, a)).count() as u64
            })
            .sum();
        assert!(expected > 0, "p=0.5 over several maps should doom some attempt");
        assert_eq!(report.counters.retries, expected);
    }

    #[test]
    fn retry_budget_exhaustion_fails_the_engine_job() {
        let mut cfg = EngineConfig {
            n_nodes: 4,
            block_bytes: 512,
            heartbeat: Duration::from_millis(1),
            net_us_per_kib_hop: 5,
            cpu_us_per_kib: 5,
            ..EngineConfig::default()
        };
        cfg.faults.transient_map_failure_p = 1.0;
        cfg.faults.max_attempts = 2;
        let eng = MapReduceEngine::new(cfg);
        let input = "alpha beta gamma\n".repeat(60);
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 2);
        let report = eng.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));
        assert!(report.failed, "p=1.0 must exhaust every retry budget");
        assert!(report.output.is_empty(), "no reduce can have run");
        assert!(report.counters.retries >= 2, "{:?}", report.counters);
        assert!(report.counters.consistent(), "{:?}", report.counters);
    }

    #[test]
    fn crash_and_recovery_preserves_output_correctness() {
        use pnats_core::faults::NodeCrash;
        let mut cfg = EngineConfig {
            n_nodes: 4,
            // Blocks past the 8 KiB pacing boundary with slow compute: each
            // map sleeps ~12 ms mid-task, so the driver loop is still
            // heart-beating when rounds 5 and 8 fire — the crashes land
            // mid-run, whatever the thread timing.
            block_bytes: 8192,
            heartbeat: Duration::from_millis(1),
            net_us_per_kib_hop: 5,
            cpu_us_per_kib: 1500,
            ..EngineConfig::default()
        };
        cfg.faults.crashes = vec![
            NodeCrash { node: 1, at: 5.0, recover_at: Some(60.0) },
            NodeCrash { node: 2, at: 8.0, recover_at: None },
        ];
        let eng = MapReduceEngine::new(cfg);
        let input = "apple banana apple\ncherry banana apple\n".repeat(1000);
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 3);
        let report = eng.run(&job, &input, Box::new(ProbabilisticPlacer::paper()));
        assert!(!report.failed);
        let counts: HashMap<String, u64> = report
            .output
            .iter()
            .map(|(k, v)| (k.clone(), v.parse().unwrap()))
            .collect();
        assert_eq!(counts["apple"], 3000);
        assert_eq!(counts["banana"], 2000);
        assert_eq!(counts["cherry"], 1000);
        assert_eq!(report.counters.node_crashes, 2, "{:?}", report.counters);
        assert!(report.counters.consistent(), "{:?}", report.counters);
    }

    #[test]
    fn traced_run_emits_one_record_per_offer() {
        let eng = tiny_engine();
        let input = "alpha beta gamma\n".repeat(60);
        let job = EngineJob::new("wc", Arc::new(WordCountJob), Arc::new(WordCountJob), 2);
        let report = eng.run_traced(
            &job,
            &input,
            Box::new(ProbabilisticPlacer::paper()),
            Box::new(pnats_obs::InMemorySink::unbounded()),
        );
        let trace = report.trace_jsonl.expect("in-memory sink drains");
        assert_eq!(trace.lines().count() as u64, report.counters.offers);
        assert!(trace.lines().all(|l| l.starts_with("{\"t\":")), "JSONL shape");
    }
}
