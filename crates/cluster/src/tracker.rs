//! The JobTracker: one RPC server, one shared state mutex, one tick
//! thread — the TCP driver of the shared [`JobScheduler`]. Every
//! scheduling decision runs through the *unmodified* [`TaskPlacer`] the
//! simulator and engine use, and every piece of job bookkeeping (holders,
//! attempt tags, run epochs, pending lists, the offer loop, node loss) is
//! the scheduler's [`pnats_engine::book::Book`], the same one the engine
//! drives in-process.
//!
//! What lives here is what only a real network needs. A worker's
//! heartbeat syncs its free slots and reports progress and completed work;
//! the handlers turn that into *decisions that emit events*, and each
//! event is journaled and then applied inside the scheduler's one commit
//! path — write-ahead by construction, since the tracker holds the book
//! read-only. Liveness is the tracker's own problem (the engine *knows* when a
//! virtual node dies): a registered worker silent for more than
//! `expire_after` rounds is declared dead, which is the same
//! [`JobScheduler::lose_node`] a scripted crash runs. Stale completions and
//! duplicate deliveries (the client retries calls) are deduplicated by
//! `(task, attempt, holder)`. Safe mode, re-attach reconciliation after a
//! tracker restart, and the lost-reply ack grace complete the
//! tracker-only plane; recovery itself is a fold of the journal through
//! the book's live transition function.
//!
//! **What wakes whom.** Nothing here sleeps a fixed period waiting for
//! something another thread does. RPC threads run the handlers; one
//! [`Condvar`] beside the state mutex is notified when the verdict is
//! reached, when the job is abandoned, when a worker is answered
//! `shutdown` and when a map lands, and that is what [`JobTracker::wait`],
//! the tick thread and held calls sleep on. The **round clock is the only
//! timer**: the tick thread lets one heartbeat period run out, ticks one
//! round, and repeats, so `expire_after`, `ASSIGNMENT_ACK_GRACE`,
//! `reattach_grace` and the fault plan's heartbeat-loss windows all still
//! count wall time in periods. A worker's out-of-band heartbeat (sent the
//! moment a task ends, see [`crate::worker`]) is one more
//! [`Msg::Heartbeat`]: it is scheduled on like any other and never
//! advances `round`.
//!
//! **Held calls.** Two replies would only send their caller straight back
//! to ask again, so the RPC handler (`serve`) holds them on the condvar
//! instead. An idle worker's heartbeat — nothing running, nothing to hand
//! it — waits for the verdict and comes back `shutdown` the moment it is
//! in; a reducer's `WhereIs` (on the reduce task's own connection) waits
//! for its map to land and comes back `MapAt`, or `Shutdown` if the
//! verdict comes first. A crash releases both without a `shutdown`. Both
//! callers measure their period from send to send, so a held call *is*
//! the caller's wait: an idle worker still beats once a period. The hold
//! ends after `min(heartbeat, io_timeout / 2)` at the latest: a period
//! keeps the polling cadence, and staying under half the caller's read
//! deadline keeps a held call from being taken for a dead tracker and
//! retried.
//!
//! **Fleet assembly.** The price of out-of-band refills is that the first
//! workers to connect can finish a short job before the last one has its
//! first heartbeat through — connection set-up on a busy host takes
//! milliseconds, and once took 25 here. So while a configured worker has
//! not been offered anything yet, `schedule` leaves a first wave of the
//! pending maps for it; the hold ends when everyone has been offered work
//! or the liveness window (`expire_after` rounds) is over, and a recovery
//! incarnation, whose fleet assembled under its predecessor, never holds.
//!
//! **Teardown is a join.** After the verdict the tracker keeps serving
//! until every worker it has heard from (or its journal names) has been
//! answered `shutdown` — in a heartbeat reply, a `Register` →
//! [`Msg::Shutdown`], or a `ReattachAck` — and stops the moment the last
//! one has, because a worker that is still owed its answer and finds the
//! server gone re-dials it for its whole `orphan_grace`. The wait has a
//! ceiling, `SHUTDOWN_ACK_CEILING` periods, for the one worker that can
//! never be told: a killed process the round clock had not expired yet.

use crate::config::ClusterConfig;
use crate::jobspec::JobSpec;
use crate::journal::{read_journal, Journal, JournalRecord, JournalState, Wal};
use crate::report::{ClusterReport, Stages};
use pnats_core::placer::TaskPlacer;
use pnats_engine::book::{JobScheduler, Launch, NodeFault, Phase, Slots, TaskEvent, Verdict};
use pnats_net::NodeId;
use pnats_obs::{DecisionObserver, FaultKind, TaskKind};
use pnats_rpc::pool::{self, Task};
use pnats_rpc::{Assignment, Msg, RpcServer};
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// How many heartbeat periods [`JobTracker::wait`] keeps serving after the
/// verdict for workers that have not been answered `shutdown` yet. Reached
/// only when some worker never calls again (a SIGKILLed process the round
/// clock had not expired): every live worker beats at least once a period,
/// and one that found the server gone would sit out its whole
/// `orphan_grace` re-dialing it.
const SHUTDOWN_ACK_CEILING: u32 = 20;

/// How many rounds an assignment may stay unacknowledged (absent from the
/// owner's reported running/completed work) before the tracker concludes
/// the reply carrying it was lost and requeues the task. Covers the
/// at-least-once gap: a heartbeat the tracker applied whose reply never
/// reached the worker.
const ASSIGNMENT_ACK_GRACE: u64 = 3;

#[derive(Clone, Default)]
struct NodeState {
    registered: bool,
    epoch: u32,
    data_addr: String,
    last_heard: u64,
    /// The journal knows this worker but the current incarnation has not
    /// heard from it yet: heartbeats are answered `reattach` instead of
    /// `dead`, and expiry is held for `reattach_grace` rounds.
    awaiting_reattach: bool,
}

struct TrackerState {
    cfg: ClusterConfig,
    spec: JobSpec,
    /// The job: book, derived placement inputs, placer, observer, and the
    /// write-ahead log every book mutation passes through first.
    sched: JobScheduler<Wal>,
    /// Free slots as last synced by each worker's heartbeat; zero for any
    /// node that is not a placement target.
    slots: Slots,
    start: Instant,
    round: u64,
    nodes: Vec<NodeState>,
    /// Round each running attempt was assigned (or re-confirmed) in — the
    /// ack-grace clock.
    map_assigned_round: Vec<u64>,
    reduce_assigned_round: Vec<u64>,
    /// Journal-inherited running attempts `(kind, index, attempt)` not yet
    /// confirmed by their worker. Confirmation at re-attach books an
    /// `attempt_reconciled` fault + journal record; an entry whose attempt
    /// was since abandoned can never match again.
    inherited: Vec<(TaskKind, u32, u32)>,
    /// When this incarnation passed each stage of the job's life (ms since
    /// `start`). `first_assign` doubles as the recovery-latency probe the
    /// failover bench reads.
    stages: Stages,
    /// Workers this incarnation has heard from (or its journal names) and
    /// not yet answered `shutdown`: the ones that will call again. A worker
    /// still owed its answer that finds the server gone re-dials it for its
    /// whole `orphan_grace`.
    owed: Vec<bool>,
    /// Configured workers that have not been offered work yet — the fleet
    /// `schedule` is still holding a first wave for. All `false` on a
    /// recovery incarnation: its fleet assembled under its predecessor.
    unoffered: Vec<bool>,
    /// Whether any worker ever registered; safe-mode cannot trigger on a
    /// fleet that has not shown up yet.
    ever_registered: bool,
    /// Currently in safe-mode (too few reachable workers to trust expiry).
    degraded: bool,
    failed: bool,
    /// The verdict is in (journaled, or replayed from the journal).
    done: bool,
    /// Crashed or dropped without a verdict: the tick thread and every
    /// held call let go, and nobody is told `shutdown`.
    abandoned: bool,
    /// Paired with the mutex this state lives in; notified whenever
    /// something a sleeper waits on changes — `done`, `abandoned`, the last
    /// goodbye going out, or a map landing.
    wake: Arc<Condvar>,
}

impl TrackerState {
    /// Milliseconds since this incarnation started — the stage clock.
    fn ms(&self) -> f64 {
        self.start.elapsed().as_secs_f64() * 1e3
    }

    /// Transition to `done`, journaling the verdict first. Idempotent.
    fn finish(&mut self, failed: bool) {
        if self.done {
            return;
        }
        self.sched.log_mut().record(&JournalRecord::JobFinished { failed });
        self.failed = failed;
        self.done = true;
        self.stages.job_done = Some(self.ms());
        self.note_told();
    }

    /// Every call from worker `n` starts here. While the job runs, it
    /// marks the worker as owed a `shutdown` answer; once the job is done,
    /// this call is where it gets one — `true` tells the handler to reply
    /// `shutdown` and nothing else.
    fn leaving(&mut self, n: usize) -> bool {
        self.owed[n] = !self.done;
        if self.done {
            self.note_told();
        }
        self.done
    }

    /// A worker registered or re-attached: stamp the moment the fleet is
    /// whole for the first time.
    fn note_registered(&mut self) {
        if self.stages.all_registered.is_none() && self.nodes.iter().all(|s| s.registered) {
            self.stages.all_registered = Some(self.ms());
        }
    }

    /// Stamp `workers_told` once the job is done and nobody is owed a
    /// goodbye any more, and wake `wait` and the tick thread to look.
    fn note_told(&mut self) {
        if self.done && self.stages.workers_told.is_none() && !self.owed.contains(&true) {
            self.stages.workers_told = Some(self.ms());
        }
        self.wake.notify_all();
    }

    /// Abandon the job without a verdict (crash, drop): stops the tick
    /// thread and releases held calls, journals nothing.
    fn abandon(&mut self) {
        self.abandoned = true;
        self.wake.notify_all();
    }

    /// The longest a call is held: one period, so a held worker beats as
    /// often as a polling one, and never past half the callers' read
    /// deadline, so a held call is never mistaken for a dead tracker.
    fn hold(&self) -> Duration {
        self.cfg.heartbeat.min(self.cfg.io_timeout / 2)
    }

    /// A node is a placement target when it is registered and not
    /// scripted down (death — scripted or detected — clears `registered`).
    fn alive(&self, n: usize) -> bool {
        self.nodes[n].registered && !self.sched.is_down(n)
    }

    /// Kill a node's contribution to the job: its completed map outputs
    /// died with its data server, its running work is requeued under
    /// bumped attempt tags, and it offers no slots until it registers
    /// again.
    fn invalidate_node(&mut self, n: usize) {
        self.nodes[n].registered = false;
        self.slots.set(n, 0, 0);
        self.sched.lose_node(n);
    }

    /// A worker the tracker gave up waiting for is as dead as a scripted
    /// crash — same invalidation, plus the expiry marker that
    /// distinguishes detection from script.
    fn expire(&mut self, n: usize) {
        self.sched.fault(FaultKind::PeerExpired, n as u32, None);
        self.sched.fault(FaultKind::NodeCrash, n as u32, None);
        self.invalidate_node(n);
    }

    /// One heartbeat round: fault-plan events, liveness expiry, the
    /// whole-fleet-blackout check. Runs on the tick thread.
    fn tick(&mut self) {
        self.sched.set_now(self.start.elapsed().as_secs_f64());
        self.round += 1;
        let round = self.round;
        for fault in self.sched.begin_round(round) {
            match fault {
                NodeFault::Crash(n) => {
                    self.sched.fault(FaultKind::NodeCrash, n as u32, None);
                    self.invalidate_node(n);
                }
                // The worker re-registers on its own (its heartbeats were
                // answered `dead`); slots refill at registration.
                NodeFault::Recover(n) => self.sched.fault(FaultKind::NodeRecover, n as u32, None),
            }
        }

        // Safe-mode: when too few workers are still reachable, silence is
        // more plausibly *our* partition than a simultaneous fleet death.
        // Expiring (and invalidating) everyone would throw away work that
        // is still materializing on the far side; instead hold all expiry,
        // keep queued work queued, and record the degradation.
        let expire_after = self.cfg.expire_after;
        let silent = |s: &NodeState| round.saturating_sub(s.last_heard) > expire_after;
        let reachable = self.nodes.iter().filter(|s| s.registered && !silent(s)).count();
        let degraded = self.cfg.safe_mode_below > 0.0
            && self.ever_registered
            && (reachable as f64) < self.cfg.safe_mode_below * self.cfg.n_nodes as f64;
        if degraded && !self.degraded {
            self.sched.fault(FaultKind::DegradedMode, reachable as u32, None);
        }
        self.degraded = degraded;

        // Liveness expiry, and the recovery grace: a journal-known worker
        // that never re-attached within `reattach_grace` rounds of this
        // incarnation is as dead as a silent one — its inherited work
        // (finished outputs included) is invalidated and re-executed.
        for n in 0..self.cfg.n_nodes {
            let s = &self.nodes[n];
            if !degraded && s.registered && !self.sched.is_down(n) && silent(s) {
                self.expire(n);
            }
            if round > self.cfg.reattach_grace && self.nodes[n].awaiting_reattach {
                self.nodes[n].awaiting_reattach = false;
                self.expire(n);
            }
        }

        // A whole-fleet scripted blackout with no recovery ahead cannot
        // finish the job. (Expired-but-live workers re-register on their
        // own, so expiry alone never triggers this; the wall-clock cap in
        // `wait` bounds every other stall.)
        if !self.done && self.sched.permanent_blackout() {
            self.finish(true);
            self.sched.fault(FaultKind::JobFailed, 0, None);
        }
    }

    /// Dispatch one decoded request. The single entry point of the RPC
    /// plane (and of handler-level tests).
    fn handle(&mut self, msg: Msg) -> Msg {
        self.sched.set_now(self.start.elapsed().as_secs_f64());
        match msg {
            Msg::Register { node, epoch, data_addr } => self.on_register(node, epoch, data_addr),
            Msg::Heartbeat { .. } => self.on_heartbeat(&msg),
            Msg::SourceUnreachable { map, attempt } => self.on_source_unreachable(map, attempt),
            Msg::Reattach { .. } => self.on_reattach(&msg),
            Msg::WhereIs { map } => self.on_where_is(map),
            Msg::FetchBlock { block } => match self.sched.blocks().get(block as usize) {
                Some(b) => Msg::BlockData { block, data: b.clone() },
                None => Msg::NotHere,
            },
            Msg::Shutdown => {
                // External stop: whatever is incomplete stays incomplete.
                self.finish(!self.sched.book().complete());
                Msg::Ack
            }
            _ => Msg::Ack,
        }
    }

    fn on_register(&mut self, node: u32, epoch: u32, data_addr: String) -> Msg {
        let n = node as usize;
        if n >= self.cfg.n_nodes {
            return Msg::Shutdown;
        }
        if self.leaving(n) {
            return Msg::Shutdown;
        }
        if self.sched.is_down(n) {
            return Msg::NotReady; // scripted-down: hold the worker off
        }
        if self.nodes[n].awaiting_reattach {
            // The worker came back *fresh* (wiped) instead of re-attaching:
            // whatever the journal says it held died with its old life.
            self.nodes[n].awaiting_reattach = false;
            self.invalidate_node(n);
        }
        self.sched.log_mut().record(&JournalRecord::WorkerRegistered { node, epoch });
        self.ever_registered = true;
        self.nodes[n] = NodeState {
            registered: true,
            epoch,
            data_addr,
            last_heard: self.round,
            awaiting_reattach: false,
        };
        self.note_registered();
        self.slots.set(n, self.cfg.map_slots, self.cfg.reduce_slots);
        let blocks = self.sched.blocks();
        let shard: Vec<(u32, String)> = (0..blocks.len())
            .filter(|&b| self.sched.replicas(b).contains(&NodeId(node)))
            .map(|b| (b as u32, blocks[b].clone()))
            .collect();
        Msg::RegisterAck {
            node,
            job: self.spec.to_wire(),
            n_reduces: self.sched.book().reduces().len() as u32,
            partitioner: self.cfg.partitioner.tag(),
            cpu_us_per_kib: self.cfg.cpu_us_per_kib,
            blocks: shard,
        }
    }

    fn on_heartbeat(&mut self, hb: &Msg) -> Msg {
        let Msg::Heartbeat {
            node,
            epoch,
            free_map_slots,
            free_reduce_slots,
            progress,
            map_done,
            map_failed,
            reduce_done,
            rpc_retries,
            breaker_trips,
            breaker_closes,
            alt_fetches,
            corrupt_frames,
            ..
        } = hb
        else {
            return Msg::Ack;
        };
        let (node, n) = (*node, *node as usize);
        let reply = |assignments, invalidate, ignored, dead, shutdown| Msg::HeartbeatReply {
            assignments,
            invalidate,
            ignored,
            dead,
            shutdown,
            reattach: false,
        };
        if n >= self.cfg.n_nodes {
            return reply(Vec::new(), Vec::new(), false, true, false);
        }
        if self.leaving(n) {
            return reply(Vec::new(), Vec::new(), false, false, true);
        }
        let known_epoch = self.nodes[n].epoch == *epoch && !self.sched.is_down(n);
        if self.nodes[n].awaiting_reattach && known_epoch {
            // A recovered tracker hearing from a journal-known worker that
            // never noticed the restart: tell it to re-attach *keeping* its
            // state (unlike `dead`, which would wipe finished outputs the
            // journal still counts on).
            return Msg::HeartbeatReply {
                assignments: Vec::new(),
                invalidate: Vec::new(),
                ignored: true,
                dead: false,
                shutdown: false,
                reattach: true,
            };
        }
        if !self.nodes[n].registered || !known_epoch {
            // Unknown epoch or declared-dead worker: make it wipe and
            // re-register so both sides agree on a fresh attempt space.
            return reply(Vec::new(), Vec::new(), false, true, false);
        }
        let round = self.round;
        let lost = |h: &pnats_core::faults::HeartbeatLoss| {
            h.node == n && (h.from as u64) <= round && round < h.until as u64
        };
        if self.cfg.faults.heartbeat_losses.iter().any(lost) {
            // The fault plan eats this heartbeat: nothing is applied, the
            // worker keeps its pending statuses, `last_heard` stays stale
            // so a long enough window expires the node.
            self.sched.fault(FaultKind::HeartbeatLost, node, None);
            return reply(Vec::new(), Vec::new(), true, false, false);
        }
        self.nodes[n].last_heard = round;
        // A worker cannot have more free slots than it has slots: an
        // unclamped claim would be handed every pending task in one reply.
        self.slots.set(
            n,
            (*free_map_slots).min(self.cfg.map_slots),
            (*free_reduce_slots).min(self.cfg.reduce_slots),
        );
        for (count, kind) in [
            (rpc_retries, FaultKind::RpcRetry),
            (breaker_trips, FaultKind::CircuitOpen),
            (breaker_closes, FaultKind::CircuitClose),
            (alt_fetches, FaultKind::AltSourceFetch),
            (corrupt_frames, FaultKind::FrameCorrupted),
        ] {
            for _ in 0..(*count).min(10_000) {
                self.sched.fault(kind, node, None);
            }
        }

        for p in progress {
            if self.sched.book().map_running_as(p.map, p.attempt, node) {
                self.sched.note_progress(p.map, p.d_read, p.part_bytes.iter().copied());
            }
        }
        // Stale attempts (invalidated or rescheduled since): the worker
        // must drop the bytes it is holding for them. A duplicate delivery
        // of an applied completion is accepted silently.
        let mut invalidate: Vec<u32> = Vec::new();
        let mut landed = false;
        for d in map_done.iter() {
            match self.sched.map_done(d.map, d.attempt, node, &d.bytes) {
                Verdict::Accepted => landed = true,
                Verdict::Stale => invalidate.push(d.map),
                Verdict::Duplicate => {}
            }
        }
        if landed {
            self.wake.notify_all(); // held `WhereIs` calls look again
        }
        let book = self.sched.book();
        if self.stages.maps_done.is_none()
            && !map_done.is_empty()
            && book.maps_finished() == book.maps().len()
        {
            self.stages.maps_done = Some(self.ms());
        }
        for f in map_failed {
            self.failed |= self.sched.map_failed(f.map, f.attempt, node) == Some(true);
        }
        for r in reduce_done {
            // The one place a packed output becomes the book's owned pairs.
            self.sched.reduce_done(r.reduce, r.attempt, node, r.output.to_vec(), &r.sources);
        }
        self.requeue_unacked(hb);

        if self.failed || self.sched.book().complete() {
            self.owed[n] = false; // the verdict and this worker's goodbye in one reply
            self.finish(self.failed);
            return reply(Vec::new(), invalidate, false, false, true);
        }
        reply(self.schedule(NodeId(node)), invalidate, false, false, false)
    }

    /// Detect assignments this worker never heard about (the reply that
    /// carried them was lost after the tracker applied the heartbeat) and
    /// requeue them. A task the tracker booked on the node that appears in
    /// none of the worker's reported running or completed work past the
    /// ack grace is unknown to the worker and will never run there.
    fn requeue_unacked(&mut self, hb: &Msg) {
        let Msg::Heartbeat {
            node, progress, map_done, map_failed, reduce_done, running_reduces, ..
        } = hb
        else {
            return;
        };
        let overdue = |assigned: u64| self.round >= assigned + ASSIGNMENT_ACK_GRACE;
        let book = self.sched.book();
        let mut lost: Vec<TaskEvent> = Vec::new();
        for (m, t) in book.maps().iter().enumerate() {
            let id = m as u32;
            let known = progress.iter().any(|p| p.map == id)
                || map_done.iter().any(|d| d.map == id)
                || map_failed.iter().any(|f| f.map == id);
            if t.phase == Phase::Running(*node) && overdue(self.map_assigned_round[m]) && !known {
                lost.push(TaskEvent::MapRequeued { map: id, new_attempt: t.attempt + 1 });
            }
        }
        for (r, t) in book.reduces().iter().enumerate() {
            let id = r as u32;
            let known = running_reduces.iter().any(|(red, _)| *red == id)
                || reduce_done.iter().any(|d| d.reduce == id);
            if t.phase == Phase::Running(*node) && overdue(self.reduce_assigned_round[r]) && !known
            {
                lost.push(TaskEvent::ReduceRequeued { reduce: id, new_attempt: t.attempt + 1 });
            }
        }
        for ev in &lost {
            self.sched.retract(ev, *node);
        }
    }

    /// A worker's partition-fetch breaker for `map`'s holder stayed open
    /// past its budget: the finished output exists but the cluster cannot
    /// read it, which is as fatal as the holder crashing. Un-finish the
    /// map under a bumped attempt and epoch, ban the unreachable holder
    /// from the re-execution, and requeue. Stale escalations (a newer
    /// attempt, or a crash invalidated the output first) are ignored — the
    /// attempt tag makes the message idempotent across duplicate senders.
    fn on_source_unreachable(&mut self, map: u32, attempt: u32) -> Msg {
        let Some(t) = self.sched.book().maps().get(map as usize) else {
            return Msg::Ack;
        };
        let (Phase::Finished(holder), epoch) = (t.phase, t.epoch) else {
            return Msg::Ack;
        };
        if self.done || t.attempt != attempt {
            return Msg::Ack;
        }
        self.sched.fault(FaultKind::LinkPartitioned, holder, Some(map));
        let ev = TaskEvent::MapInvalidated {
            map,
            new_attempt: attempt + 1,
            new_epoch: epoch + 1,
            banned: Some(holder),
        };
        self.sched.retract(&ev, holder);
        Msg::Ack
    }

    /// Fill `node`'s free slots through the scheduler's offer loop and
    /// dress each launch as a wire assignment.
    fn schedule(&mut self, node: NodeId) -> Vec<Assignment> {
        // Fleet assembly. A worker comes back for more the moment a map
        // ends, so the first arrivals can drain a short job in the
        // milliseconds the rest of the fleet still needs to connect and get
        // a first heartbeat through. While configured workers have not had
        // an offer yet, leave each of them a first wave of what is pending
        // (its slots, or its even share of a job smaller than the fleet);
        // the hold lapses with the liveness window, after which a worker
        // that never dialed in is as absent as a silent one.
        self.unoffered[node.idx()] = false;
        let waiting = self.unoffered.iter().filter(|u| **u).count();
        if waiting > 0 && self.round <= self.cfg.expire_after {
            let book = self.sched.book();
            let wave = (book.maps().len() / self.cfg.n_nodes).min(self.cfg.map_slots as usize);
            let spare = book.pending_maps().len().saturating_sub(waiting * wave);
            let free = &mut self.slots.map[node.idx()];
            *free = (*free).min(spare as u32);
        }
        let launches = self.sched.offer(node, &mut self.slots);
        if !launches.is_empty() && self.stages.first_assign.is_none() {
            self.stages.first_assign = Some(self.ms());
        }
        let mut out = Vec::with_capacity(launches.len());
        for launch in launches {
            out.push(match launch {
                Launch::Map { map, attempt, doomed } => {
                    self.map_assigned_round[map as usize] = self.round;
                    let replicas = self.sched.replicas(map as usize).iter();
                    let sources = replicas
                        .filter(|r| **r != node && self.alive(r.idx()))
                        .map(|r| self.nodes[r.idx()].data_addr.clone())
                        .collect();
                    Assignment::Map { map, attempt, doomed, sources }
                }
                Launch::Reduce { reduce, attempt } => {
                    self.reduce_assigned_round[reduce as usize] = self.round;
                    let n_maps = self.sched.book().maps().len() as u32;
                    Assignment::Reduce { reduce, attempt, n_maps }
                }
            });
        }
        out
    }

    fn on_where_is(&self, map: u32) -> Msg {
        match self.sched.book().maps().get(map as usize) {
            Some(t) => match t.phase {
                Phase::Finished(h) if self.alive(h as usize) => Msg::MapAt {
                    node: h,
                    addr: self.nodes[h as usize].data_addr.clone(),
                    attempt: t.attempt,
                },
                _ => Msg::NotReady,
            },
            None => Msg::NotReady,
        }
    }

    /// An orphaned worker presenting its local truth to a (possibly fresh)
    /// tracker incarnation. The tracker reconciles the journal's book
    /// against what the worker actually holds, exactly once per item:
    /// confirmed inherited attempts are adopted (`attempt_reconciled`),
    /// journaled outputs the worker no longer has are invalidated into a
    /// new crash epoch, booked-running work the worker lost is requeued,
    /// and stale bytes on the worker are sent back in `invalidate`.
    /// Idempotent — a duplicate `Reattach` (retried call, lost ack) finds
    /// nothing left to reconcile.
    fn on_reattach(&mut self, msg: &Msg) -> Msg {
        let Msg::Reattach { node, epoch, data_addr, finished_maps, running_maps, running_reduces } =
            msg
        else {
            return Msg::Ack;
        };
        let (node, n) = (*node, *node as usize);
        let dead = Msg::ReattachAck { invalidate: Vec::new(), dead: true, shutdown: false };
        if n >= self.cfg.n_nodes {
            return dead;
        }
        if self.leaving(n) {
            return Msg::ReattachAck { invalidate: Vec::new(), dead: false, shutdown: true };
        }
        let was_awaiting = self.nodes[n].awaiting_reattach;
        if self.nodes[n].epoch != *epoch
            || self.sched.is_down(n)
            || !(was_awaiting || self.nodes[n].registered)
        {
            // Unknown node, stale epoch, or one already declared dead and
            // invalidated: only a wipe + fresh registration realigns us.
            return dead;
        }
        self.ever_registered = true;
        self.nodes[n] = NodeState {
            registered: true,
            epoch: *epoch,
            data_addr: data_addr.clone(),
            last_heard: self.round,
            awaiting_reattach: false,
        };
        self.note_registered();
        // Slots sync on the next heartbeat; claim nothing until then.
        self.slots.set(n, 0, 0);
        if was_awaiting {
            self.sched.fault(FaultKind::WorkerReattached, node, None);
        }

        // Decide against the book first, then act: what the worker still
        // runs is adopted, everything else the book placed there is
        // retracted. The worker is the ground truth for its own disk.
        let book = self.sched.book();
        let mut adopted: Vec<(TaskKind, u32, u32)> = Vec::new();
        let mut retracted: Vec<TaskEvent> = Vec::new();
        for (m, t) in book.maps().iter().enumerate() {
            let held = (m as u32, t.attempt);
            match t.phase {
                Phase::Finished(h) if h == node && !finished_maps.contains(&held) => {
                    retracted.push(TaskEvent::MapInvalidated {
                        map: held.0,
                        new_attempt: t.attempt + 1,
                        new_epoch: t.epoch + 1,
                        banned: None,
                    });
                }
                // Still live there, or finished during the outage — that
                // completion arrives with the next heartbeat.
                Phase::Running(h) if h == node => {
                    if running_maps.contains(&held) || finished_maps.contains(&held) {
                        adopted.push((TaskKind::Map, held.0, held.1));
                    } else {
                        retracted
                            .push(TaskEvent::MapRequeued { map: held.0, new_attempt: held.1 + 1 });
                    }
                }
                _ => {}
            }
        }
        for (r, t) in book.reduces().iter().enumerate() {
            let held = (r as u32, t.attempt);
            if t.phase != Phase::Running(node) {
                continue;
            }
            if running_reduces.contains(&held) {
                adopted.push((TaskKind::Reduce, held.0, held.1));
            } else {
                retracted
                    .push(TaskEvent::ReduceRequeued { reduce: held.0, new_attempt: held.1 + 1 });
            }
        }
        for ev in &retracted {
            self.sched.retract(ev, node);
        }
        for entry @ (kind, index, attempt) in adopted {
            match kind {
                TaskKind::Map => self.map_assigned_round[index as usize] = self.round,
                TaskKind::Reduce => self.reduce_assigned_round[index as usize] = self.round,
            }
            if let Some(pos) = self.inherited.iter().position(|e| *e == entry) {
                self.inherited.swap_remove(pos);
                let rec = JournalRecord::AttemptReconciled { kind, index, attempt, node };
                self.sched.log_mut().record(&rec);
                self.sched.fault(FaultKind::AttemptReconciled, node, Some(index));
            }
        }

        // Bytes the worker holds for attempts the book no longer wants.
        let book = self.sched.book();
        let wanted = |&(i, a): &(u32, u32)| {
            let row = book.maps().get(i as usize);
            row.is_some_and(|t| t.phase.holder() == Some(node) && t.attempt == a)
        };
        let invalidate = finished_maps.iter().filter(|held| !wanted(held)).map(|h| h.0).collect();
        Msg::ReattachAck { invalidate, dead: false, shutdown: false }
    }

    /// Adopt a journal-replayed book — the recovery half of crash
    /// tolerance, run once before the server starts answering. Placement
    /// inputs (splits, replicas, candidates) were re-derived from `(seed,
    /// cfg, input)`; everything scheduling *decided* is the folded book,
    /// installed as is. What remains is tracker-plane: what was running is
    /// inherited until its worker confirms it, and journal-known workers
    /// are awaited.
    fn apply_recovery(&mut self, st: JournalState) {
        let (rm, rr, inherited, reexec) = st.recovery_tallies();
        let maps = (0u32..).zip(st.book.maps()).filter(|(_, t)| t.phase.is_running());
        let reduces = (0u32..).zip(st.book.reduces()).filter(|(_, t)| t.phase.is_running());
        self.inherited = maps
            .map(|(m, t)| (TaskKind::Map, m, t.attempt))
            .chain(reduces.map(|(r, t)| (TaskKind::Reduce, r, t.attempt)))
            .collect();
        for (&node, &epoch) in &st.node_epochs {
            if let Some(s) = self.nodes.get_mut(node as usize) {
                s.epoch = epoch;
                s.awaiting_reattach = true;
                self.owed[node as usize] = true;
            }
        }
        self.ever_registered = !st.node_epochs.is_empty();
        self.unoffered.fill(false);
        self.sched.fault(FaultKind::TrackerRestart, 0, None);
        self.sched.fault(FaultKind::JournalReplayed, 0, Some(st.records_applied as u32));
        self.sched.observer_mut().absorb_recovery(rm, rr, inherited, reexec);
        if let Some(failed) = st.finished {
            // The verdict (and all reduce output) is already in the
            // journal: nothing left to run.
            self.failed = failed;
            self.done = true;
            self.stages.job_done = Some(self.ms());
        }
        self.sched.restore(st.book);
    }
}

/// A running JobTracker: RPC server + tick thread around shared state.
/// Dropping without [`wait`](Self::wait) aborts the job and tears the
/// threads down.
pub struct JobTracker {
    server: Option<RpcServer>,
    state: Arc<Mutex<TrackerState>>,
    wake: Arc<Condvar>,
    tick: Option<Task<()>>,
}

/// Sleep on `wake` until `ready(state)` or `until`, whichever is first;
/// `true` when it was `ready`.
fn sleep_until<'a>(
    wake: &Condvar,
    mut s: MutexGuard<'a, TrackerState>,
    until: Instant,
    ready: impl Fn(&TrackerState) -> bool,
) -> (MutexGuard<'a, TrackerState>, bool) {
    loop {
        if ready(&s) {
            return (s, true);
        }
        let left = until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return (s, false);
        }
        s = wake.wait_timeout(s, left).unwrap().0;
    }
}

/// The RPC plane: [`TrackerState::handle`], then a hold for a reply that
/// would only send its caller straight back to ask again. A reducer's
/// `WhereIs` for a map that has not landed waits for it; an idle worker's
/// heartbeat — nothing running, nothing to hand it — waits for the verdict
/// and comes back `shutdown` the moment it is in, instead of the worker
/// hearing it on its next timed beat. Both holds end after
/// [`TrackerState::hold`] at the latest. They are here, not in `handle`,
/// so handler-level tests drive the state machine without waiting.
fn serve(state: &Mutex<TrackerState>, wake: &Condvar, msg: Msg) -> Msg {
    let mut s = state.lock().unwrap();
    let idle = match &msg {
        Msg::Heartbeat { node, progress, running_reduces, .. }
            if progress.is_empty() && running_reduces.is_empty() =>
        {
            Some(*node as usize)
        }
        _ => None,
    };
    let where_is = match msg {
        Msg::WhereIs { map } => Some(map),
        _ => None,
    };
    let mut reply = s.handle(msg);
    if let Some(map) = where_is.filter(|_| reply == Msg::NotReady) {
        let until = Instant::now() + s.hold();
        let landed = |s: &TrackerState| s.on_where_is(map) != Msg::NotReady;
        (s, _) = sleep_until(wake, s, until, |s| s.done || s.abandoned || landed(s));
        return if s.done { Msg::Shutdown } else { s.on_where_is(map) };
    }
    let empty = matches!(
        &reply,
        Msg::HeartbeatReply {
            assignments,
            invalidate,
            ignored: false,
            dead: false,
            shutdown: false,
            reattach: false,
        } if assignments.is_empty() && invalidate.is_empty()
    );
    let Some(n) = idle.filter(|_| empty) else { return reply };
    let until = Instant::now() + s.hold();
    (s, _) = sleep_until(wake, s, until, |s| s.done || s.abandoned);
    // Only a verdict says goodbye: an abandoned tracker never does.
    if let (true, Msg::HeartbeatReply { shutdown, .. }) = (s.done, &mut reply) {
        *shutdown = s.leaving(n);
    }
    reply
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl JobTracker {
    /// Bind `listen` (port 0 for an ephemeral port), derive the job (split
    /// `input` into blocks, place replicas with the same seeded sequence
    /// as the engine), and start serving registrations. The job begins as
    /// workers join.
    pub fn start(
        listen: &str,
        cfg: ClusterConfig,
        spec: JobSpec,
        n_reduces: usize,
        input: &str,
        placer: Box<dyn TaskPlacer>,
        observer: DecisionObserver,
    ) -> io::Result<JobTracker> {
        assert!(n_reduces > 0, "jobs need at least one reduce partition");
        // Journal triage, before any state exists: a non-empty journal at
        // `cfg.journal` means this process is a recovery incarnation.
        let mut recovered: Option<JournalState> = None;
        let mut journal: Option<Journal> = None;
        if let Some(path) = cfg.journal.clone() {
            let existing =
                std::fs::metadata(&path).map(|meta| meta.len() > 0).unwrap_or(false);
            if existing {
                let records = read_journal(&path)?;
                let st = JournalState::from_records(&records).map_err(invalid)?;
                if st.seed != cfg.seed || st.spec != spec.to_wire() {
                    return Err(invalid(format!(
                        "journal belongs to a different job: seed={} spec={} vs cfg seed={} \
                         spec={}",
                        st.seed,
                        st.spec,
                        cfg.seed,
                        spec.to_wire()
                    )));
                }
                let mut j = Journal::open_append(&path, cfg.journal_fsync)?;
                j.append(&JournalRecord::TrackerStarted { crash_epoch: st.crash_epochs + 1 })?;
                journal = Some(j);
                recovered = Some(st);
            } else {
                journal = Some(Journal::create(&path, cfg.journal_fsync)?);
            }
        }
        let mut sched = JobScheduler::derive(
            &cfg.engine_config(),
            input,
            n_reduces,
            placer,
            observer,
            Wal(journal),
        );
        let n_maps = sched.book().maps().len();
        match &recovered {
            Some(st) => {
                if st.n_maps as usize != n_maps || st.n_reduces as usize != n_reduces {
                    return Err(invalid(format!(
                        "journal task shape {}x{} disagrees with derived {}x{}",
                        st.n_maps, st.n_reduces, n_maps, n_reduces
                    )));
                }
                // Holders and bans index the node table from here on.
                if let Some(n) = st.book.nodes_mentioned().find(|&n| n as usize >= cfg.n_nodes) {
                    return Err(invalid(format!("journal names node {n} of {}", cfg.n_nodes)));
                }
            }
            None => {
                sched.log_mut().try_record(&JournalRecord::JobSubmitted {
                    seed: cfg.seed,
                    n_maps: n_maps as u32,
                    n_reduces: n_reduces as u32,
                    spec: spec.to_wire(),
                })?;
            }
        }
        let heartbeat = cfg.heartbeat;
        let wake = Arc::new(Condvar::new());
        let mut state = TrackerState {
            spec,
            sched,
            slots: Slots::new(cfg.n_nodes, 0, 0),
            start: Instant::now(),
            round: 0,
            nodes: vec![NodeState::default(); cfg.n_nodes],
            map_assigned_round: vec![0; n_maps],
            reduce_assigned_round: vec![0; n_reduces],
            inherited: Vec::new(),
            stages: Stages::default(),
            owed: vec![false; cfg.n_nodes],
            unoffered: vec![true; cfg.n_nodes],
            ever_registered: false,
            degraded: false,
            failed: false,
            done: false,
            abandoned: false,
            wake: wake.clone(),
            cfg,
        };
        if let Some(st) = recovered {
            state.apply_recovery(st);
        }
        let state = Arc::new(Mutex::new(state));

        let (handler_state, handler_wake) = (state.clone(), wake.clone());
        let handler: pnats_rpc::Handler =
            Arc::new(move |msg| serve(&handler_state, &handler_wake, msg));
        let server = RpcServer::bind(listen, handler, Duration::from_millis(50))?;
        // The round clock: the one timer in the tracker. A period is slept
        // on the condvar so the verdict ends the thread at once, but only
        // the period running out ticks a round.
        let (tick_state, tick_wake) = (state.clone(), wake.clone());
        let tick = pool::spawn(move || {
            let mut s = tick_state.lock().unwrap();
            loop {
                let over;
                let until = Instant::now() + heartbeat;
                (s, over) = sleep_until(&tick_wake, s, until, |s| s.done || s.abandoned);
                if over {
                    break;
                }
                s.tick();
            }
        });
        Ok(JobTracker { server: Some(server), state, wake, tick: Some(tick) })
    }

    /// The tracker's bound address.
    pub fn addr(&self) -> &str {
        self.server.as_ref().expect("server runs until wait()").addr()
    }

    /// Block until the job completes (or the config's `max_wall` fires, in
    /// which case the report is marked failed), keep serving until every
    /// worker has been answered `shutdown` in its next call (or
    /// `SHUTDOWN_ACK_CEILING` periods pass), then tear down and assemble
    /// the report.
    pub fn wait(mut self) -> ClusterReport {
        let state = self.state.clone();
        let mut s = state.lock().unwrap();
        let deadline = s.start + s.cfg.max_wall;
        let done;
        (s, done) = sleep_until(&self.wake, s, deadline, |s| s.done);
        if !done {
            s.finish(true);
        }
        let ceiling = Instant::now() + s.cfg.heartbeat * SHUTDOWN_ACK_CEILING;
        (s, _) = sleep_until(&self.wake, s, ceiling, |s| !s.owed.contains(&true));
        drop(s);
        self.teardown();
        let mut s = state.lock().unwrap();
        s.stages.torn_down = Some(s.ms());
        s.stages.rounds = s.round;
        let (n_maps, n_reduces) = (s.sched.book().maps().len(), s.sched.book().reduces().len());
        let o = s.sched.finish();
        ClusterReport {
            output: o.output,
            map_locality: o.map_locality,
            reduce_locality: o.reduce_locality,
            wall: s.start.elapsed(),
            n_maps,
            n_reduces,
            counters: o.counters,
            trace_jsonl: o.trace_jsonl,
            completions: o.completions,
            first_assign_ms: s.stages.first_assign,
            stages: s.stages,
            failed: s.failed,
        }
    }

    /// Die the way a SIGKILL would, minus the process exit: abandon the job
    /// (held calls let go with the reply they had, no worker hears a
    /// polite `shutdown`), stop the RPC server and the tick thread, journal
    /// **nothing**. The journal on disk ends exactly where the crash
    /// landed; workers are left orphaned mid-heartbeat. Test hook for
    /// in-process crash/recovery runs — OS-process harnesses use a real
    /// SIGKILL instead.
    pub fn crash(mut self) {
        self.state.lock().unwrap().abandon();
        self.teardown();
    }

    fn teardown(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.stop();
        }
        if let Some(t) = self.tick.take() {
            let _ = t.join();
        }
    }
}

impl Drop for JobTracker {
    fn drop(&mut self) {
        // Not `unwrap`: this also runs while a panic that poisoned the
        // mutex unwinds, and a second panic there aborts the process.
        if let Ok(mut s) = self.state.lock() {
            s.abandon();
        }
        self.teardown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_engine::book::EventLog;
    use pnats_rpc::{MapDone, MapFailed, Pairs, ReduceDone, RetryPolicy, RpcClient};
    use std::path::PathBuf;
    use std::thread::JoinHandle;

    /// A handful of two-line blocks on two workers, fifo placement (it never
    /// declines an offer, so assignment counts are exact), and a tick
    /// thread that can expire nobody.
    fn cfg(journal: Option<PathBuf>) -> ClusterConfig {
        ClusterConfig {
            n_nodes: 2,
            block_bytes: 64,
            expire_after: u64::MAX / 4,
            reattach_grace: u64::MAX / 4,
            journal,
            ..ClusterConfig::default()
        }
    }

    fn input() -> String {
        "alpha bravo charlie delta echo foxtrot golf hotel india\n".repeat(9)
    }

    fn start(cfg: &ClusterConfig) -> io::Result<JobTracker> {
        let input = input();
        let placer = crate::placer_by_name("fifo", cfg.heartbeat.as_secs_f64()).unwrap();
        JobTracker::start(
            "127.0.0.1:0",
            cfg.clone(),
            JobSpec::WordCount,
            2,
            &input,
            placer,
            DecisionObserver::disabled(),
        )
    }

    /// How many maps `start`'s input splits into under `cfg`.
    fn n_maps(cfg: &ClusterConfig) -> usize {
        pnats_engine::exec::split_blocks(&input(), cfg.block_bytes).len()
    }

    fn call(t: &JobTracker, msg: Msg) -> Msg {
        t.state.lock().unwrap().handle(msg)
    }

    fn register(t: &JobTracker, node: u32) {
        let reply = call(t, Msg::Register { node, epoch: 0, data_addr: format!("w{node}") });
        assert!(matches!(reply, Msg::RegisterAck { .. }), "{reply:?}");
    }

    fn heartbeat(
        node: u32,
        free: (u32, u32),
        map_done: Vec<MapDone>,
        map_failed: Vec<MapFailed>,
        reduce_done: Vec<ReduceDone>,
    ) -> Msg {
        Msg::Heartbeat {
            node,
            epoch: 0,
            free_map_slots: free.0,
            free_reduce_slots: free.1,
            progress: Vec::new(),
            map_done,
            map_failed,
            reduce_done,
            running_reduces: Vec::new(),
            rpc_retries: 0,
            breaker_trips: 0,
            breaker_closes: 0,
            alt_fetches: 0,
            corrupt_frames: 0,
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let path = std::env::temp_dir()
            .join(format!("pnats-tracker-unit-{}-{tag}.journal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        path
    }

    /// A well-formed heartbeat claiming `u32::MAX` free slots gets at most
    /// the worker's configured slots filled — the slot-capacity law (sim
    /// oracle law 8) holds against the wire, not just against honest
    /// workers.
    #[test]
    fn reported_free_slots_are_clamped_to_the_configured_slots() {
        let cfg = cfg(None);
        let t = start(&cfg).unwrap();
        register(&t, 0);
        let reply = call(&t, heartbeat(0, (u32::MAX, u32::MAX), vec![], vec![], vec![]));
        let Msg::HeartbeatReply { assignments, .. } = reply else { panic!("{reply:?}") };
        let maps = assignments.iter().filter(|a| matches!(a, Assignment::Map { .. })).count();
        assert_eq!(maps as u32, cfg.map_slots, "{assignments:?}");
        assert!((assignments.len() - maps) as u32 <= cfg.reduce_slots);
        let s = t.state.lock().unwrap();
        assert!(s.sched.book().pending_maps().len() > 1, "the pending list must not be drained");
    }

    /// A journal whose records name a node outside the fleet is refused at
    /// start instead of indexing the node table out of bounds later (a
    /// `WhereIs` for that map used to).
    #[test]
    fn recovery_refuses_a_journal_naming_an_unknown_node() {
        let path = scratch("unknown-node");
        let cfg = cfg(Some(path.clone()));
        let n_maps = n_maps(&cfg) as u32;
        let mut wal = Wal(Some(Journal::create(&path, cfg.journal_fsync).unwrap()));
        wal.record(&JournalRecord::JobSubmitted {
            seed: cfg.seed,
            n_maps,
            n_reduces: 2,
            spec: JobSpec::WordCount.to_wire(),
        });
        wal.append(&TaskEvent::MapAssigned { map: 0, attempt: 0, node: 99 });
        drop(wal);
        let err = start(&cfg).err().expect("a holder outside the fleet must be refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// Play a whole job through bare handler calls: every assignment ends
    /// in the heartbeat after the one that carried it — `MapFailed` when
    /// the tracker doomed it, done otherwise. With `restart`, the tracker
    /// is crashed right after the first wave of assignments and a second
    /// incarnation recovers from the journal; the workers re-attach with
    /// that wave still running. Returns the tracker as the first worker is
    /// answered `shutdown`, that worker's id, and the transient failures
    /// reported over the whole job.
    fn play(cfg: &ClusterConfig, restart: bool) -> (JobTracker, usize, u64) {
        let mut t = start(cfg).unwrap();
        let mut held: Vec<Vec<Assignment>> = vec![Vec::new(); cfg.n_nodes];
        let mut failures = 0u64;
        (0..cfg.n_nodes as u32).for_each(|n| register(&t, n));
        for beat in 0..400 {
            if restart && beat == 1 {
                t.crash();
                t = start(cfg).unwrap();
                for (n, work) in held.iter().enumerate() {
                    let running = |want_map: bool| -> Vec<(u32, u32)> {
                        let ids = work.iter().filter_map(|a| match *a {
                            Assignment::Map { map, attempt, .. } if want_map => {
                                Some((map, attempt))
                            }
                            Assignment::Reduce { reduce, attempt, .. } if !want_map => {
                                Some((reduce, attempt))
                            }
                            _ => None,
                        });
                        ids.collect()
                    };
                    let reply = call(
                        &t,
                        Msg::Reattach {
                            node: n as u32,
                            epoch: 0,
                            data_addr: format!("w{n}"),
                            finished_maps: Vec::new(),
                            running_maps: running(true),
                            running_reduces: running(false),
                        },
                    );
                    assert!(
                        matches!(reply, Msg::ReattachAck { dead: false, shutdown: false, .. }),
                        "{reply:?}"
                    );
                }
            }
            for (n, work) in held.iter_mut().enumerate() {
                let (mut done, mut failed, mut reduced) = (Vec::new(), Vec::new(), Vec::new());
                for a in work.drain(..) {
                    match a {
                        Assignment::Map { map, attempt, doomed: true, .. } => {
                            failed.push(MapFailed { map, attempt })
                        }
                        Assignment::Map { map, attempt, .. } => {
                            done.push(MapDone { map, attempt, bytes: vec![7, 9] })
                        }
                        Assignment::Reduce { reduce, attempt, .. } => reduced.push(ReduceDone {
                            reduce,
                            attempt,
                            output: Pairs::new(),
                            sources: Vec::new(),
                        }),
                    }
                }
                failures += failed.len() as u64;
                let free = (cfg.map_slots, cfg.reduce_slots);
                let reply = call(&t, heartbeat(n as u32, free, done, failed, reduced));
                let Msg::HeartbeatReply { assignments, invalidate, dead, shutdown, .. } = reply
                else {
                    panic!("{reply:?}")
                };
                assert!(!dead && invalidate.is_empty(), "nothing here goes stale");
                if shutdown {
                    assert!(!t.state.lock().unwrap().failed, "the budget is ample");
                    return (t, n, failures);
                }
                *work = assignments;
            }
        }
        panic!("job did not finish");
    }

    /// The retry budget and the seeded failure draw survive a tracker
    /// restart exactly: the journal fold counts one start per
    /// `MapAssigned`, so the recovered tracker neither re-draws a start
    /// index its predecessor already used nor grants an extra attempt.
    #[test]
    fn transient_retries_match_the_uninterrupted_run_across_a_restart() {
        let path = scratch("retry-budget");
        let mut cfg = cfg(Some(path.clone()));
        cfg.faults.transient_map_failure_p = 0.6;
        cfg.faults.max_attempts = 64;
        let expected: u64 = (0..n_maps(&cfg))
            .map(|m| {
                let doomed = |k: &u32| cfg.faults.map_attempt_fails(cfg.seed, m, *k);
                (1u32..).take_while(doomed).count() as u64
            })
            .sum();
        assert!(expected > 2, "the seed should doom several attempts");
        assert_eq!(play(&cfg, false).2, expected, "uninterrupted run");
        let _ = std::fs::remove_file(&path);
        assert_eq!(play(&cfg, true).2, expected, "run with a tracker restart after wave 1");
        let _ = std::fs::remove_file(&path);
    }

    /// Worker `node` beats `beats` times, each beat reporting the maps the
    /// last one handed it as done and asking to have its map slots refilled
    /// — a worker coming back out-of-band the moment its maps end. Returns
    /// how many maps it was given in all.
    fn drain(t: &JobTracker, cfg: &ClusterConfig, node: u32, beats: usize) -> usize {
        let (mut held, mut taken) = (Vec::new(), 0);
        for _ in 0..beats {
            let done = held
                .drain(..)
                .map(|a| match a {
                    Assignment::Map { map, attempt, .. } => {
                        MapDone { map, attempt, bytes: vec![7, 9] }
                    }
                    other => panic!("no reduce slot was offered: {other:?}"),
                })
                .collect();
            let reply = call(t, heartbeat(node, (cfg.map_slots, 0), done, vec![], vec![]));
            let Msg::HeartbeatReply { assignments, .. } = reply else { panic!("{reply:?}") };
            taken += assignments.len();
            held = assignments;
        }
        taken
    }

    /// Fleet assembly: a worker that comes back for more the moment its
    /// maps end cannot drain the job while a configured worker has yet to
    /// be offered anything — a first wave is left pending for it — and the
    /// hold lapses once the liveness window has passed.
    #[test]
    fn first_arrivals_leave_a_first_wave_for_workers_still_to_come() {
        // A period no test outlasts: only the test moves the round clock.
        let hour = Duration::from_secs(3600);
        let cfg = ClusterConfig { expire_after: 2, heartbeat: hour, ..cfg(None) };
        let (n_maps, wave) = (n_maps(&cfg), cfg.map_slots as usize);
        assert!(n_maps > 2 * wave, "the job must outsize one worker's slots");

        let t = start(&cfg).unwrap();
        register(&t, 0);
        assert_eq!(drain(&t, &cfg, 0, n_maps), n_maps - wave, "worker 0 took the held wave");
        assert_eq!(t.state.lock().unwrap().sched.book().pending_maps().len(), wave);
        register(&t, 1);
        assert_eq!(drain(&t, &cfg, 1, 1), wave, "the late worker finds its first wave");
        assert_eq!(drain(&t, &cfg, 0, 1), 0, "nothing is left");

        // The same lone worker once the window is over: the job is its own.
        let t = start(&cfg).unwrap();
        register(&t, 0);
        t.state.lock().unwrap().round = cfg.expire_after + 1;
        assert_eq!(drain(&t, &cfg, 0, n_maps), n_maps);
    }

    /// Teardown is a join on the goodbyes, not a nap: once every worker's
    /// next heartbeat has been answered `shutdown`, `wait` returns — well
    /// inside two periods, where the fixed grace it replaced took twenty.
    #[test]
    fn wait_returns_once_every_worker_has_been_told() {
        let cfg = ClusterConfig { heartbeat: Duration::from_millis(100), ..cfg(None) };
        let (t, told, _) = play(&cfg, false);
        for n in (0..cfg.n_nodes).filter(|n| *n != told) {
            let reply = call(&t, heartbeat(n as u32, (0, 0), vec![], vec![], vec![]));
            assert!(matches!(reply, Msg::HeartbeatReply { shutdown: true, .. }), "{reply:?}");
        }
        let st = t.wait().stages;
        let (done, told, down) = (st.job_done.unwrap(), st.workers_told.unwrap(), st.torn_down);
        assert!(done <= told, "{st:?}");
        let teardown = down.unwrap() - done;
        assert!(teardown < 2.0 * cfg.heartbeat.as_secs_f64() * 1e3, "took {teardown} ms: {st:?}");
    }

    /// The ceiling stays: a registered worker that never calls again (a
    /// SIGKILLed process the round clock has not expired yet) is waited for
    /// — tearing down under a live one would strand it in its orphan hold
    /// — but only for `SHUTDOWN_ACK_CEILING` periods.
    #[test]
    fn wait_gives_up_on_a_silent_worker_at_the_ceiling() {
        let cfg = ClusterConfig { heartbeat: Duration::from_millis(20), ..cfg(None) };
        let (t, _, _) = play(&cfg, false);
        let st = t.wait().stages;
        assert_eq!(st.workers_told, None, "one worker never heard: {st:?}");
        let ceiling = f64::from(SHUTDOWN_ACK_CEILING) * cfg.heartbeat.as_secs_f64() * 1e3;
        let teardown = st.torn_down.unwrap() - st.job_done.unwrap();
        assert!(teardown >= ceiling, "left before the ceiling: {teardown} ms");
        assert!(teardown < 1.5 * ceiling, "overstayed the ceiling: {teardown} ms");
    }

    // Held calls, driven over a real connection against a tracker whose
    // period is long enough that only a hold, never work, could fill it.
    const PERIOD: Duration = Duration::from_millis(200);

    fn held_cfg() -> ClusterConfig {
        ClusterConfig { heartbeat: PERIOD, ..cfg(None) }
    }

    /// Send `msg` to `t` over a connection of its own from another thread,
    /// and — one period after the last send, as a worker would — again
    /// while `again` accepts the reply: the last reply, when the call that
    /// got it was sent (after the thread started, dialed and shook hands),
    /// and when it arrived.
    fn over_wire(
        t: &JobTracker,
        msg: Msg,
        again: fn(&Msg) -> bool,
    ) -> JoinHandle<(Msg, Instant, Instant)> {
        let addr = t.addr().to_string();
        std::thread::spawn(move || {
            let mut c = RpcClient::connect(addr, RetryPolicy::default(), Duration::from_secs(5))
                .expect("connect");
            loop {
                let sent = Instant::now();
                let reply = c.call(&msg).expect("call");
                if !again(&reply) {
                    return (reply, sent, Instant::now());
                }
                std::thread::sleep(PERIOD.saturating_sub(sent.elapsed()));
            }
        })
    }

    /// Until `node`'s first heartbeat has been through `handle`. Its reply
    /// is decided under the same lock the hold then sleeps on, so an idle
    /// beat seen here is already held.
    fn wait_heard(t: &JobTracker, node: usize) {
        while t.state.lock().unwrap().unoffered[node] {
            std::thread::yield_now();
        }
    }

    /// Worker `node` runs the job alone through bare handler calls, each
    /// beat reporting everything the last one handed it as done. Returns
    /// when it is told `shutdown`, with the moment the beat that carried
    /// the verdict was sent.
    fn work_off(t: &JobTracker, cfg: &ClusterConfig, node: u32) -> Instant {
        let mut held: Vec<Assignment> = Vec::new();
        for _ in 0..400 {
            let (mut done, mut reduced) = (Vec::new(), Vec::new());
            for a in held.drain(..) {
                match a {
                    Assignment::Map { map, attempt, .. } => {
                        done.push(MapDone { map, attempt, bytes: vec![7, 9] })
                    }
                    Assignment::Reduce { reduce, attempt, .. } => reduced.push(ReduceDone {
                        reduce,
                        attempt,
                        output: Pairs::new(),
                        sources: Vec::new(),
                    }),
                }
            }
            let free = (cfg.map_slots, cfg.reduce_slots);
            let sent = Instant::now();
            let reply = call(t, heartbeat(node, free, done, vec![], reduced));
            let Msg::HeartbeatReply { assignments, shutdown, .. } = reply else {
                panic!("{reply:?}")
            };
            if shutdown {
                return sent;
            }
            held = assignments;
        }
        panic!("job did not finish");
    }

    fn told(reply: &Msg) -> bool {
        matches!(reply, Msg::HeartbeatReply { shutdown: true, .. })
    }

    /// An idle worker's beat is held until the verdict and comes back
    /// `shutdown` at once — not on the worker's next timed beat.
    #[test]
    fn an_idle_beat_is_held_until_the_verdict_and_told_shutdown() {
        let cfg = held_cfg();
        let t = start(&cfg).unwrap();
        register(&t, 0);
        register(&t, 1);
        let idle = over_wire(&t, heartbeat(1, (0, 0), vec![], vec![], vec![]), |r| !told(r));
        wait_heard(&t, 1);
        let verdict = work_off(&t, &cfg, 0);
        let (reply, _, at) = idle.join().unwrap();
        assert!(told(&reply), "{reply:?}");
        let late = at.duration_since(verdict);
        assert!(late < PERIOD / 4, "told {late:?} after the verdict");
        assert!(!t.state.lock().unwrap().owed.contains(&true), "both workers were told");
    }

    /// A beat from a worker with work running is answered at once, even
    /// when there is nothing to hand it.
    #[test]
    fn a_busy_beat_is_answered_at_once() {
        let t = start(&held_cfg()).unwrap();
        register(&t, 0);
        let mut busy = heartbeat(0, (0, 0), vec![], vec![], vec![]);
        if let Msg::Heartbeat { running_reduces, .. } = &mut busy {
            running_reduces.push((0, 0));
        }
        let (reply, sent, at) = over_wire(&t, busy, |_| false).join().unwrap();
        assert!(
            matches!(&reply, Msg::HeartbeatReply { assignments, shutdown: false, .. }
                if assignments.is_empty()),
            "{reply:?}"
        );
        let took = at.duration_since(sent);
        assert!(took < PERIOD / 4, "answered after {took:?}");
    }

    /// A reducer's `WhereIs` for a map still running is held and answered
    /// `MapAt` the moment the map lands, not on the reducer's next poll.
    #[test]
    fn a_where_is_is_held_until_its_map_lands() {
        let cfg = held_cfg();
        let t = start(&cfg).unwrap();
        register(&t, 0);
        let reply = call(&t, heartbeat(0, (1, 0), vec![], vec![], vec![]));
        let Msg::HeartbeatReply { assignments, .. } = reply else { panic!("{reply:?}") };
        let [Assignment::Map { map, attempt, .. }] = assignments[..] else {
            panic!("{assignments:?}")
        };
        let asked = over_wire(&t, Msg::WhereIs { map }, |_| false);
        // Long enough for the call to be in, well short of the hold. A call
        // not in yet would be answered `MapAt` at once: the test would
        // prove less, but could not fail. Only a call answered before the
        // map landed fails it — with `NotReady`.
        std::thread::sleep(PERIOD / 4);
        let landed = Instant::now();
        let done = vec![MapDone { map, attempt, bytes: vec![7, 9] }];
        call(&t, heartbeat(0, (0, 0), done, vec![], vec![]));
        let (reply, _, at) = asked.join().unwrap();
        assert!(matches!(reply, Msg::MapAt { node: 0, .. }), "{reply:?}");
        let late = at.duration_since(landed);
        assert!(late < PERIOD / 4, "answered {late:?} after the map landed");
    }

    /// With nothing landing, a held `WhereIs` is answered `NotReady` at
    /// the bound — one period here — and not before.
    #[test]
    fn a_where_is_for_a_map_that_never_lands_is_answered_at_the_bound() {
        let t = start(&held_cfg()).unwrap();
        register(&t, 0);
        let sent = Instant::now();
        let (reply, _, at) = over_wire(&t, Msg::WhereIs { map: 0 }, |_| false).join().unwrap();
        assert_eq!(reply, Msg::NotReady);
        let took = at.duration_since(sent);
        assert!(took >= PERIOD && took < 2 * PERIOD, "answered after {took:?}");
    }

    /// A crash lets a held beat go with the reply it had: an abandoned
    /// tracker never says `shutdown`.
    #[test]
    fn a_crash_releases_a_held_beat_without_shutdown() {
        let t = start(&held_cfg()).unwrap();
        register(&t, 0);
        let idle = over_wire(&t, heartbeat(0, (0, 0), vec![], vec![], vec![]), |_| false);
        wait_heard(&t, 0);
        let crashed = Instant::now();
        t.crash();
        let (reply, _, at) = idle.join().unwrap();
        assert!(matches!(reply, Msg::HeartbeatReply { shutdown: false, .. }), "{reply:?}");
        let took = at.duration_since(crashed);
        assert!(took < PERIOD / 4, "released {took:?} after the crash");
    }
}
