//! The TaskTracker: one worker process/thread owning a dfs shard, a data
//! server for peers, and map/reduce slots. It heartbeats the tracker over
//! TCP, executes assignments on task threads via the engine's shared
//! execution primitives ([`execute_map`]/[`execute_reduce`] — so output
//! bytes are identical to the engine's), and serves its finished map
//! partitions to reducers.
//!
//! **When it beats.** The heartbeat loop sleeps on the channel its task
//! threads report to until one period `T` after its last *send*. A worker
//! whose task just finished or failed beats *at once* — an **out-of-band
//! heartbeat**, as a Hadoop 1.x TaskTracker sends when a slot frees —
//! carrying the status and getting the freed slot refilled in the reply
//! instead of a period later. An idle worker's beat is held by the tracker
//! until the verdict (at most a period), and because the period runs from
//! send to send, that hold is its wait: it still beats every `T`, and it
//! hears `shutdown` the moment the job is over. To the tracker it is an
//! ordinary heartbeat; its round clock, which all liveness windows count
//! in, is a timer and does not see it.
//!
//! **Where a reducer asks.** Each reduce task opens a tracker connection
//! of its own for `WhereIs` and `SourceUnreachable`. The tracker holds a
//! `WhereIs` until the map lands, so the reducer fetches the moment the
//! output exists instead of a poll period later, again waiting out only
//! the rest of its period after a reply. The shared resolver that map
//! tasks use for block fallback is never held: a held call on it would
//! stall every block fetch of this worker behind it. Every client a
//! worker opens — control, resolver, reducers', peers' — reports its
//! retries and damaged frames in the heartbeat tallies.
//!
//! The sleeps that remain in this file either model work (map pacing, the
//! doomed attempt's burn) or back off a call the peer refused: `NotReady`
//! at registration and the re-attach probe's jitter.
//!
//! Crash-epoch semantics: when the tracker answers a heartbeat with
//! `dead`, the worker wipes all held state (its map outputs are gone from
//! the cluster's perspective), bumps its epoch, and re-registers from
//! scratch. Task threads from the wiped epoch keep running — threads
//! cannot be killed — but their channel went away with the epoch, so
//! their completions evaporate instead of corrupting the next epoch.

use crate::jobspec::JobSpec;
use pnats_core::partition::Partitioner;
use pnats_engine::exec::{execute_map, execute_reduce, MapProgressGauges};
use pnats_engine::EngineJob;
use pnats_rpc::{
    Assignment, BreakerPolicy, ChaosNet, CircuitBreaker, MapDone, MapFailed, Msg, Pairs,
    ProgressReport, ReduceDone, RetryPolicy, RpcClient, RpcError, RpcServer,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a worker needs to join a cluster.
#[derive(Clone)]
pub struct WorkerConfig {
    /// This worker's node id (`0..n_nodes` of the tracker's config).
    pub node: u32,
    /// The tracker's RPC address.
    pub tracker_addr: String,
    /// Map slots to offer.
    pub map_slots: u32,
    /// Reduce slots to offer.
    pub reduce_slots: u32,
    /// Heartbeat period.
    pub heartbeat: Duration,
    /// Read/write deadline on every TCP stream.
    pub io_timeout: Duration,
    /// Retry budget + backoff for tracker and peer calls.
    pub retry: RetryPolicy,
    /// Per-peer circuit breaker policy for partition fetches.
    pub breaker: BreakerPolicy,
    /// When set, the worker routes its *advertised* data plane through a
    /// chaos proxy on this net (link `data:w<node>`): peers reach its map
    /// outputs only through whatever faults the plan injects, while local
    /// reads bypass the network exactly as a real co-located read would.
    pub chaos: Option<Arc<ChaosNet>>,
    /// How long to keep re-dialing a silent tracker (full-jitter backoff,
    /// `Reattach` probes) before giving up and exiting. During the hold
    /// the worker stays *orphaned*, not dead: tasks keep running, outputs
    /// stay served, pending statuses stay pending.
    pub orphan_grace: Duration,
}

impl std::fmt::Debug for WorkerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerConfig")
            .field("node", &self.node)
            .field("tracker_addr", &self.tracker_addr)
            .field("map_slots", &self.map_slots)
            .field("reduce_slots", &self.reduce_slots)
            .field("heartbeat", &self.heartbeat)
            .field("io_timeout", &self.io_timeout)
            .field("retry", &self.retry)
            .field("breaker", &self.breaker)
            .field("chaos", &self.chaos.as_ref().map(|n| n.plan().seed))
            .field("orphan_grace", &self.orphan_grace)
            .finish()
    }
}

/// Network tallies shared between task threads and the heartbeat loop,
/// which reports them to the tracker as deltas: breaker and alt-fetch
/// counts, and the retry and damaged-frame counters of every RPC client
/// this worker opens.
#[derive(Default)]
struct NetHealth {
    breaker_trips: AtomicU64,
    breaker_closes: AtomicU64,
    alt_fetches: AtomicU64,
    /// `(retries, corrupt frames)` of each client opened so far.
    clients: Mutex<Vec<(Arc<AtomicU64>, Arc<AtomicU64>)>>,
}

impl NetHealth {
    /// Count `client`'s retries and damaged frames in the tallies.
    fn track(&self, client: RpcClient) -> RpcClient {
        self.clients.lock().unwrap().push((client.retry_counter(), client.corrupt_counter()));
        client
    }

    /// Cumulative tallies in heartbeat order: RPC retries, breaker trips,
    /// breaker closes, alternate-source fetches, corrupt frames.
    fn totals(&self) -> [u64; 5] {
        let (mut retries, mut corrupt) = (0, 0);
        for (r, c) in self.clients.lock().unwrap().iter() {
            retries += r.load(Ordering::Relaxed);
            corrupt += c.load(Ordering::Relaxed);
        }
        [
            retries,
            self.breaker_trips.load(Ordering::Relaxed),
            self.breaker_closes.load(Ordering::Relaxed),
            self.alt_fetches.load(Ordering::Relaxed),
            corrupt,
        ]
    }
}

/// One finished map output: the attempt that produced it plus one packed
/// pair list per reduce partition, held as the bytes a fetch sends.
type MapOutput = (u32, Vec<Pairs>);

/// Shard + finished map outputs, shared between the heartbeat loop, task
/// threads, and the data server.
#[derive(Default)]
struct DataState {
    /// Input blocks this worker holds replicas of.
    blocks: HashMap<u32, String>,
    /// Finished map outputs keyed by map index.
    outputs: HashMap<u32, MapOutput>,
}

enum TaskEvent {
    MapDone(MapDone),
    MapFailed(MapFailed),
    ReduceDone(ReduceDone),
}

enum EpochEnd {
    /// The tracker said shutdown (or went away): exit the worker.
    Shutdown,
    /// The tracker declared us dead: wipe and re-register under a new epoch.
    Wiped,
}

/// Run a worker until the tracker shuts it down. Each `dead` verdict from
/// the tracker starts a fresh epoch (wiped state, re-registration).
pub fn run_worker(cfg: WorkerConfig) -> Result<(), RpcError> {
    let mut epoch = 0u32;
    loop {
        match run_epoch(&cfg, epoch)? {
            EpochEnd::Shutdown => return Ok(()),
            EpochEnd::Wiped => epoch += 1,
        }
    }
}

fn run_epoch(cfg: &WorkerConfig, epoch: u32) -> Result<EpochEnd, RpcError> {
    let data: Arc<Mutex<DataState>> = Arc::new(Mutex::new(DataState::default()));

    // Data plane: serve blocks and finished partitions to peers.
    let data_handler: pnats_rpc::Handler = {
        let data = data.clone();
        Arc::new(move |msg| {
            let d = data.lock().unwrap();
            match msg {
                Msg::FetchBlock { block } => match d.blocks.get(&block) {
                    Some(b) => Msg::BlockData { block, data: b.clone() },
                    None => Msg::NotHere,
                },
                Msg::FetchPartition { map, attempt, reduce } => match d.outputs.get(&map) {
                    Some((a, parts)) if *a == attempt => match parts.get(reduce as usize) {
                        Some(p) => Msg::PartitionData { pairs: p.clone() },
                        None => Msg::NotHere,
                    },
                    _ => Msg::NotHere,
                },
                _ => Msg::NotHere,
            }
        })
    };
    let _data_server = RpcServer::bind("127.0.0.1:0", data_handler, Duration::from_millis(50))
        .map_err(|e| RpcError::Frame(e.into()))?;
    // Under chaos, peers get the proxy's address; the real server stays
    // reachable only to ourselves (the local-read shortcut).
    let _data_proxy = match &cfg.chaos {
        Some(net) => Some(
            net.proxy(&format!("data:w{}", cfg.node), _data_server.addr())
                .map_err(|e| RpcError::Frame(e.into()))?,
        ),
        None => None,
    };
    let data_addr = _data_proxy
        .as_ref()
        .map(|p| p.addr().to_string())
        .unwrap_or_else(|| _data_server.addr().to_string());

    // Control plane: register (politely waiting out scripted-down windows).
    let health = Arc::new(NetHealth::default());
    let mut control = health.track(RpcClient::connect(
        &cfg.tracker_addr,
        cfg.retry.clone(),
        cfg.io_timeout,
    )?);
    let ack = loop {
        match control.call(&Msg::Register {
            node: cfg.node,
            epoch,
            data_addr: data_addr.clone(),
        })? {
            ack @ Msg::RegisterAck { .. } => break ack,
            Msg::Shutdown => return Ok(EpochEnd::Shutdown),
            _ => std::thread::sleep(cfg.heartbeat), // NotReady: down window
        }
    };
    let Msg::RegisterAck { job, n_reduces, partitioner, cpu_us_per_kib, blocks, .. } = ack else {
        unreachable!("loop breaks on RegisterAck only")
    };
    let n_reduces = n_reduces as usize;
    let partitioner = Partitioner::from_tag(partitioner).unwrap_or(Partitioner::Hash);
    let spec = match JobSpec::from_wire(&job) {
        Some(s) => s,
        None => return Ok(EpochEnd::Shutdown), // tracker speaks a job we don't know
    };
    let engine_job = Arc::new(spec.job(n_reduces));
    data.lock().unwrap().blocks = blocks.into_iter().collect();

    // Shared resolver client for map tasks: block fallback, never held.
    let resolver = Arc::new(Mutex::new(health.track(RpcClient::connect(
        &cfg.tracker_addr,
        cfg.retry.clone(),
        cfg.io_timeout,
    )?)));

    let cancel = Arc::new(AtomicBool::new(false));
    let (tx, rx) = channel::<TaskEvent>();
    let mut free_map = cfg.map_slots;
    let mut free_reduce = cfg.reduce_slots;
    let mut running_maps: HashMap<u32, (u32, Arc<MapProgressGauges>)> = HashMap::new();
    let mut running_reduces: Vec<(u32, u32)> = Vec::new();
    let mut pend_done: Vec<MapDone> = Vec::new();
    let mut pend_failed: Vec<MapFailed> = Vec::new();
    let mut pend_reduce: Vec<ReduceDone> = Vec::new();
    let mut reported = [0u64; 5];

    // What woke the loop, if it was a task ending and not the period.
    let mut woken_by: Option<TaskEvent> = None;
    loop {
        while let Some(ev) = woken_by.take().or_else(|| rx.try_recv().ok()) {
            match ev {
                TaskEvent::MapDone(d) => {
                    running_maps.remove(&d.map);
                    free_map += 1;
                    pend_done.push(d);
                }
                TaskEvent::MapFailed(f) => {
                    running_maps.remove(&f.map);
                    free_map += 1;
                    pend_failed.push(f);
                }
                TaskEvent::ReduceDone(r) => {
                    running_reduces.retain(|(id, _)| *id != r.reduce);
                    free_reduce += 1;
                    pend_reduce.push(r);
                }
            }
        }
        let progress: Vec<ProgressReport> = running_maps
            .iter()
            .map(|(m, (a, g))| ProgressReport {
                map: *m,
                attempt: *a,
                d_read: g.d_read.load(Ordering::Relaxed),
                part_bytes: g.part_bytes.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            })
            .collect();
        let totals = health.totals();
        let delta = |i: usize| totals[i] - reported[i];
        let hb = Msg::Heartbeat {
            node: cfg.node,
            epoch,
            free_map_slots: free_map,
            free_reduce_slots: free_reduce,
            progress,
            map_done: std::mem::take(&mut pend_done),
            map_failed: std::mem::take(&mut pend_failed),
            reduce_done: std::mem::take(&mut pend_reduce),
            running_reduces: running_reduces.clone(),
            rpc_retries: delta(0),
            breaker_trips: delta(1),
            breaker_closes: delta(2),
            alt_fetches: delta(3),
            corrupt_frames: delta(4),
        };
        let sent = Instant::now();
        let reply = control.call(&hb);
        // The beat carried the pending statuses away; until a reply has
        // applied them, they are still ours to report.
        let applied =
            matches!(reply, Ok(Msg::HeartbeatReply { ignored: false, reattach: false, .. }));
        if let (false, Msg::Heartbeat { map_done, map_failed, reduce_done, .. }) = (applied, hb) {
            (pend_done, pend_failed, pend_reduce) = (map_done, map_failed, reduce_done);
        }
        let reply = match reply {
            Ok(r) => r,
            // Retry budget exhausted: the tracker went silent mid-job.
            // Don't die — hold everything and probe for a (possibly
            // recovered) incarnation on the same address.
            Err(_) => match reattach_until_adopted(
                cfg,
                epoch,
                &mut control,
                &data,
                &data_addr,
                &running_maps,
                &running_reduces,
                &pend_reduce,
            ) {
                Some(ack) => ack,
                None => {
                    // Orphan grace exhausted: the tracker is gone for good,
                    // and with it the job.
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Shutdown);
                }
            },
        };
        // A live tracker that restarted answers heartbeats with `reattach`
        // instead of assignments: switch to the same probe loop, keeping
        // all local state.
        let reply = match reply {
            Msg::HeartbeatReply { reattach: true, .. } => match reattach_until_adopted(
                cfg,
                epoch,
                &mut control,
                &data,
                &data_addr,
                &running_maps,
                &running_reduces,
                &pend_reduce,
            ) {
                Some(ack) => ack,
                None => {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Shutdown);
                }
            },
            other => other,
        };
        match reply {
            Msg::ReattachAck { invalidate, dead, shutdown } => {
                if dead {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Wiped);
                }
                if shutdown {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Shutdown);
                }
                // Adopted: drop outputs the new incarnation disowned and
                // resume heartbeating — pending statuses stay pending, so
                // completions from the outage land with the next beat.
                let mut d = data.lock().unwrap();
                for m in &invalidate {
                    d.outputs.remove(m);
                }
            }
            Msg::HeartbeatReply { assignments, invalidate, ignored, dead, shutdown, .. } => {
                if dead {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Wiped);
                }
                if !ignored {
                    reported = totals;
                    let mut d = data.lock().unwrap();
                    for m in &invalidate {
                        d.outputs.remove(m);
                    }
                }
                if shutdown {
                    cancel.store(true, Ordering::SeqCst);
                    return Ok(EpochEnd::Shutdown);
                }
                for a in assignments {
                    match a {
                        Assignment::Map { map, attempt, doomed, sources } => {
                            free_map = free_map.saturating_sub(1);
                            let gauges = Arc::new(MapProgressGauges::new(n_reduces));
                            running_maps.insert(map, (attempt, gauges.clone()));
                            spawn_map_task(MapTask {
                                map,
                                attempt,
                                doomed,
                                sources,
                                gauges,
                                data: data.clone(),
                                resolver: resolver.clone(),
                                job: engine_job.clone(),
                                partitioner,
                                cpu_us_per_kib,
                                cancel: cancel.clone(),
                                tx: tx.clone(),
                                io_timeout: cfg.io_timeout,
                                health: health.clone(),
                            });
                        }
                        Assignment::Reduce { reduce, attempt, n_maps } => {
                            free_reduce = free_reduce.saturating_sub(1);
                            running_reduces.push((reduce, attempt));
                            spawn_reduce_task(ReduceTask {
                                reduce,
                                attempt,
                                n_maps,
                                data: data.clone(),
                                tracker_addr: cfg.tracker_addr.clone(),
                                my_addr: data_addr.clone(),
                                job: engine_job.clone(),
                                cancel: cancel.clone(),
                                tx: tx.clone(),
                                heartbeat: cfg.heartbeat,
                                io_timeout: cfg.io_timeout,
                                retry: cfg.retry.clone(),
                                breaker: cfg.breaker,
                                health: health.clone(),
                            });
                        }
                    }
                }
            }
            _ => {} // protocol noise; try again next round
        }
        // Beat again when the period is up — or at once when a task ends:
        // an out-of-band heartbeat that reports it and gets the freed slot
        // refilled without waiting out the timer. The period runs from send
        // to send, so a call the tracker held counts as the wait. `tx`
        // lives in this frame, so the channel cannot disconnect.
        woken_by = rx.recv_timeout(cfg.heartbeat.saturating_sub(sent.elapsed())).ok();
    }
}

/// The orphaned-worker hold loop: probe the tracker address with
/// [`Msg::Reattach`] under seeded full-jitter backoff until some tracker
/// incarnation adopts us (`ReattachAck`), or `cfg.orphan_grace` runs out
/// (`None`). Local state is untouched throughout — task threads keep
/// running, finished outputs stay served to peers, pending statuses stay
/// pending.
#[allow(clippy::too_many_arguments)]
fn reattach_until_adopted(
    cfg: &WorkerConfig,
    epoch: u32,
    control: &mut RpcClient,
    data: &Arc<Mutex<DataState>>,
    data_addr: &str,
    running_maps: &HashMap<u32, (u32, Arc<MapProgressGauges>)>,
    running_reduces: &[(u32, u32)],
    pend_reduce: &[ReduceDone],
) -> Option<Msg> {
    let deadline = Instant::now() + cfg.orphan_grace;
    // Seeded per node so a fleet of orphans fans its probes out instead of
    // stampeding the recovering tracker in lockstep.
    let mut jitter = cfg.retry.seed ^ ((u64::from(cfg.node) + 1) << 32);
    let mut attempt = 0u32;
    loop {
        let finished_maps: Vec<(u32, u32)> =
            data.lock().unwrap().outputs.iter().map(|(m, (a, _))| (*m, *a)).collect();
        // A reduce that finished *during* the outage is still ours: keep
        // it claimed so the completion in the next heartbeat lands fresh
        // instead of being requeued out from under us.
        let mut running_r = running_reduces.to_vec();
        running_r.extend(pend_reduce.iter().map(|r| (r.reduce, r.attempt)));
        let probe = Msg::Reattach {
            node: cfg.node,
            epoch,
            data_addr: data_addr.to_string(),
            finished_maps,
            running_maps: running_maps.iter().map(|(m, (a, _))| (*m, *a)).collect(),
            running_reduces: running_r,
        };
        match control.call(&probe) {
            Ok(ack @ Msg::ReattachAck { .. }) => return Some(ack),
            Ok(Msg::Shutdown) => {
                return Some(Msg::ReattachAck {
                    invalidate: Vec::new(),
                    dead: false,
                    shutdown: true,
                })
            }
            Ok(_) | Err(_) => {}
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(cfg.retry.full_jitter_delay(attempt, &mut jitter).max(cfg.heartbeat));
        attempt += 1;
    }
}

struct MapTask {
    map: u32,
    attempt: u32,
    doomed: bool,
    sources: Vec<String>,
    gauges: Arc<MapProgressGauges>,
    data: Arc<Mutex<DataState>>,
    resolver: Arc<Mutex<RpcClient>>,
    job: Arc<EngineJob>,
    partitioner: Partitioner,
    cpu_us_per_kib: u64,
    cancel: Arc<AtomicBool>,
    tx: Sender<TaskEvent>,
    io_timeout: Duration,
    health: Arc<NetHealth>,
}

fn spawn_map_task(t: MapTask) {
    std::thread::spawn(move || {
        let Some(text) = fetch_block_text(&t) else {
            // No replica holder nor the tracker could produce the block:
            // report a failure so the attempt is retried elsewhere.
            let _ = t.tx.send(TaskEvent::MapFailed(MapFailed { map: t.map, attempt: t.attempt }));
            return;
        };
        if t.doomed {
            // The seeded fault draw doomed this attempt: burn a little
            // compute, then report the transient failure.
            std::thread::sleep(Duration::from_micros(t.cpu_us_per_kib * 4));
            let _ = t.tx.send(TaskEvent::MapFailed(MapFailed { map: t.map, attempt: t.attempt }));
            return;
        }
        let pace_us = t.cpu_us_per_kib * 8;
        let cancel = t.cancel.clone();
        let mut partitions = vec![Pairs::new(); t.job.n_reduces];
        let bytes = execute_map(
            t.job.mapper.as_ref(),
            &text,
            t.job.n_reduces,
            t.partitioner,
            &t.gauges,
            || {
                if !cancel.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_micros(pace_us));
                }
            },
            |p, k, v| partitions[p].push(k, v),
        );
        if t.cancel.load(Ordering::SeqCst) {
            return;
        }
        t.data.lock().unwrap().outputs.insert(t.map, (t.attempt, partitions));
        let _ = t.tx.send(TaskEvent::MapDone(MapDone { map: t.map, attempt: t.attempt, bytes }));
    });
}

/// Local shard first, then the replica holders the tracker suggested, then
/// the tracker itself (which holds every block) as the fallback of last
/// resort.
fn fetch_block_text(t: &MapTask) -> Option<String> {
    if let Some(b) = t.data.lock().unwrap().blocks.get(&t.map) {
        return Some(b.clone());
    }
    for addr in &t.sources {
        let Ok(peer) = RpcClient::connect(
            addr.clone(),
            RetryPolicy { max_attempts: 1, ..RetryPolicy::default() },
            t.io_timeout,
        ) else {
            continue;
        };
        let mut peer = t.health.track(peer);
        if let Ok(Msg::BlockData { data, .. }) = peer.call(&Msg::FetchBlock { block: t.map }) {
            return Some(data);
        }
    }
    match t.resolver.lock().unwrap().call(&Msg::FetchBlock { block: t.map }) {
        Ok(Msg::BlockData { data, .. }) => Some(data),
        _ => None,
    }
}

struct ReduceTask {
    reduce: u32,
    attempt: u32,
    n_maps: u32,
    data: Arc<Mutex<DataState>>,
    tracker_addr: String,
    my_addr: String,
    job: Arc<EngineJob>,
    cancel: Arc<AtomicBool>,
    tx: Sender<TaskEvent>,
    heartbeat: Duration,
    io_timeout: Duration,
    retry: RetryPolicy,
    breaker: BreakerPolicy,
    health: Arc<NetHealth>,
}

fn spawn_reduce_task(t: ReduceTask) {
    std::thread::spawn(move || {
        let mut parts: Vec<Pairs> = Vec::with_capacity(t.n_maps as usize);
        let mut per_source: Vec<(u32, u64)> = Vec::new();
        let mut peers: HashMap<String, RpcClient> = HashMap::new();
        // Per-holder circuit breakers over the fetch path, plus the last
        // address each map's fetch failed at — a later success from a
        // *different* address is an alternate-source fetch worth counting.
        let mut breakers: HashMap<String, CircuitBreaker> = HashMap::new();
        let mut failed_at: HashMap<u32, String> = HashMap::new();
        // This task's own tracker connection, dialed on first use: the
        // tracker holds a `WhereIs` until the map lands.
        let mut tracker: Option<RpcClient> = None;
        // Fetch every map's partition *in map-index order* — together with
        // the stable sort inside execute_reduce this pins the value order,
        // making output independent of placement and timing.
        for m in 0..t.n_maps {
            let fetched = loop {
                if t.cancel.load(Ordering::SeqCst) {
                    return;
                }
                let sent = Instant::now();
                match call_tracker(&t, &mut tracker, &Msg::WhereIs { map: m }) {
                    Ok(Msg::MapAt { node, addr, attempt }) => {
                        let br = breakers
                            .entry(addr.clone())
                            .or_insert_with(|| CircuitBreaker::new(t.breaker));
                        if br.check() {
                            match fetch_partition(&t, &mut peers, m, attempt, &addr) {
                                Some(p) => {
                                    if br.record_success() {
                                        t.health.breaker_closes.fetch_add(1, Ordering::Relaxed);
                                    }
                                    if failed_at.get(&m).is_some_and(|a| *a != addr) {
                                        t.health.alt_fetches.fetch_add(1, Ordering::Relaxed);
                                    }
                                    break (node, p);
                                }
                                // Holder went away between resolve and
                                // fetch (or invalidation raced us):
                                // re-resolve next round, breaker noted.
                                None => {
                                    failed_at.insert(m, addr.clone());
                                    if br.record_failure() {
                                        t.health.breaker_trips.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                            }
                        }
                        if br.is_open() && br.trips_since_success() >= 2 {
                            // The breaker tripped, cooled down, and its
                            // probe failed again: this holder is gone for
                            // practical purposes. Escalate so the tracker
                            // re-executes the map somewhere reachable;
                            // stale attempts make duplicates no-ops.
                            let unreachable = Msg::SourceUnreachable { map: m, attempt };
                            let _ = call_tracker(&t, &mut tracker, &unreachable);
                        }
                    }
                    Ok(Msg::Shutdown) => return,
                    // A silent tracker is an *outage*, not a shutdown: hold
                    // and re-resolve. The heartbeat thread's orphan loop
                    // sets `cancel` if the outage outlives `orphan_grace`,
                    // which bounds this retry.
                    Err(_) => {}
                    _ => {} // NotReady: map not finished (or re-executing)
                }
                // Send to send: a held `WhereIs` already was the wait.
                std::thread::sleep(t.heartbeat.saturating_sub(sent.elapsed()));
            };
            let (src, part) = fetched;
            let sz = part.data_bytes();
            if sz > 0 {
                match per_source.iter_mut().find(|(n, _)| *n == src) {
                    Some(e) => e.1 += sz,
                    None => per_source.push((src, sz)),
                }
            }
            parts.push(part);
        }
        let mut output = Pairs::new();
        execute_reduce(
            t.job.reducer.as_ref(),
            parts.iter().flat_map(Pairs::iter),
            &mut |k, v| output.push(k, v),
        );
        if t.cancel.load(Ordering::SeqCst) {
            return;
        }
        let _ = t.tx.send(TaskEvent::ReduceDone(ReduceDone {
            reduce: t.reduce,
            attempt: t.attempt,
            output,
            sources: per_source,
        }));
    });
}

/// One call on a reduce task's own tracker connection, dialing it first
/// when there is none yet (or the last dial failed).
fn call_tracker(
    t: &ReduceTask,
    conn: &mut Option<RpcClient>,
    msg: &Msg,
) -> Result<Msg, RpcError> {
    if conn.is_none() {
        let client = RpcClient::connect(t.tracker_addr.clone(), t.retry.clone(), t.io_timeout)?;
        *conn = Some(t.health.track(client));
    }
    conn.as_mut().expect("dialed above").call(msg)
}

/// One partition fetch: straight out of our own store when we are the
/// holder, over a (cached) peer connection otherwise. `None` means the
/// holder could not produce the attempt — the caller re-resolves.
fn fetch_partition(
    t: &ReduceTask,
    peers: &mut HashMap<String, RpcClient>,
    map: u32,
    attempt: u32,
    addr: &str,
) -> Option<Pairs> {
    if addr == t.my_addr {
        let d = t.data.lock().unwrap();
        return d
            .outputs
            .get(&map)
            .filter(|(a, _)| *a == attempt)
            .map(|(_, parts)| parts[t.reduce as usize].clone());
    }
    if !peers.contains_key(addr) {
        let client = RpcClient::connect(addr.to_string(), t.retry.clone(), t.io_timeout).ok()?;
        peers.insert(addr.to_string(), t.health.track(client));
    }
    let peer = peers.get_mut(addr).expect("just inserted");
    match peer.call(&Msg::FetchPartition { map, attempt, reduce: t.reduce }) {
        Ok(Msg::PartitionData { pairs }) => Some(pairs),
        _ => {
            peers.remove(addr); // dead or confused peer: drop the connection
            None
        }
    }
}
