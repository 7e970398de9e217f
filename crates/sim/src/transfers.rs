//! The transfer engine: byte-accurate tracking of in-flight transfers.
//!
//! One [`Engine`] owns what both transfer models share — the version, inline
//! completion of local and tiny transfers, the `cancel*` predicates and the
//! [`Completion`] record — over a [`RateSource`] that says how fast each
//! transfer moves: [`Fluid`] max-min shares ([`Transfers`], the paper's
//! fidelity) or [`Nominal`] contention-free NIC rates ([`NominalTransfers`],
//! for scale). Every mutation bumps the version. After each event that
//! mutated the engine, the runner makes one [`Engine::next_wake`]
//! prediction and schedules a wake-up for it, tagged with the version; a
//! later mutation turns that wake-up into a no-op.
//!
//! **One owed wake-up per event.** Handling one event can start or finish
//! many transfers — a map completion starts a fetch for every shuffling
//! reduce of its job. Each of those only marks a wake-up as owed (the
//! runner's `arm_transfer_wake`); the prediction, and with it the max-min
//! refill, runs once, after the event. That is exact because simulated
//! time stands still within an event and rates depend only on the final
//! flow set; the runner's `arm_transfer_wake` spells out the argument.
//!
//! [`FlowNetwork`] answers "what rate does each flow get *right now*";
//! [`Fluid`] integrates those rates over time. Every mutation (start/finish
//! of any flow) first *advances* all in-flight transfers by the elapsed
//! interval under the rates that held since the last one. The new rates are
//! computed lazily, by the next prediction.
//!
//! **Lock-step invariant.** `active[i]` is the transfer carried by the
//! network's `i`-th flow, always: `Fluid::add` pushes onto both, and every
//! removal goes through `Fluid::remove_if`, which `swap_remove`s position
//! `i` here while the network `swap_remove`s the same flow there.
//! Integration and wake prediction therefore read rates with one zip over
//! [`FlowNetwork::rates`] (`Fluid::rated`) — no lookup by id, no temporary
//! vector — and `debug_assert` that the ids agree.
//!
//! **Integration stays eager.** Each transfer's `remaining` is decremented
//! at every mutation instant, not lazily when its own rate changes. That is
//! one multiply-subtract per transfer — far below the cost of the refill the
//! same mutation triggers — and it keeps the sequence of float operations,
//! hence every simulated time, bit-identical to what the golden traces
//! record. Lazy integration would round differently for no measurable gain.

use std::{cmp::Reverse, collections::BinaryHeap};

use pnats_net::topology::Vertex;
use pnats_net::{FlowId, FlowNetwork, LinkId, NodeId, RoutingTable, Topology};

/// What a transfer was carrying (returned to the runner on completion).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferTag {
    /// A remote map-input fetch.
    MapFetch {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
    },
    /// A shuffle segment feeding a reduce task.
    Shuffle {
        /// Job index.
        job: usize,
        /// Reduce index within the job.
        reduce: usize,
    },
    /// Configured background traffic (never completes on its own).
    Background {
        /// Index into the config's background list.
        idx: usize,
    },
}

/// An in-flight transfer as the [`Engine`] sees it, whatever moves it.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// What it carries.
    pub tag: TransferTag,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes to move (infinite for background flows).
    pub bytes: f64,
    /// Start time.
    pub started: f64,
}

/// A completed transfer, as reported to the runner.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// What finished.
    pub tag: TransferTag,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Bytes moved.
    pub bytes: f64,
    /// Average achieved rate (bytes/sec) — fed to the rate monitor.
    pub avg_rate: f64,
}

/// Transfers at or below this many remaining bytes count as complete
/// (absorbs float drift; real transfers are MBs to GBs).
const DONE_EPSILON: f64 = 1.0;

/// How fast in-flight transfers move, and so when each finishes. A method
/// given `now` may first bring the source's own state up to `now`; the
/// [`Engine`] above it owns versions, inline completion and the records it
/// returns.
pub trait RateSource: Send {
    /// Number of in-flight transfers (including background).
    fn count(&self) -> usize;

    /// Carry `t` from `t.started` on.
    fn add(&mut self, t: Transfer);

    /// Remove every transfer `gone` selects, visiting them in the source's
    /// own order, and return them in that order.
    fn remove_where(&mut self, now: f64, gone: &mut dyn FnMut(&Transfer) -> bool) -> Vec<Transfer>;

    /// Remove every transfer that has finished by `now`, appending each to
    /// `done` in the source's own order.
    fn finished_into(&mut self, now: f64, done: &mut Vec<Transfer>);

    /// Predicted absolute time of the next finish under current rates;
    /// `None` when nothing bounded is in flight.
    fn next_finish(&mut self) -> Option<f64>;

    /// Scale `node`'s access link(s) to `scale` × nominal from `now` on.
    fn scale_node(&mut self, now: f64, node: NodeId, scale: f64);

    /// Current rate of the transfer with `tag`.
    fn rate_of(&mut self, tag: TransferTag) -> Option<f64>;

    /// Max-min refills run so far (0 for a source without a flow network).
    fn refills(&self) -> u64;
}

/// The transfer engine the runner drives, over any [`RateSource`].
/// `Box<Engine<Fluid>>` and `Box<Engine<Nominal>>` both coerce to the
/// `Box<Engine<dyn RateSource>>` the runner holds.
pub struct Engine<R: ?Sized> {
    version: u64,
    /// Scratch for [`Engine::reap_into`], kept for its capacity.
    reaped: Vec<Transfer>,
    source: R,
}

/// Byte-tracked fluid transfers over a routed topology.
pub type Transfers = Engine<Fluid>;

/// Contention-free transfers at nominal NIC rates (see [`Nominal`]).
pub type NominalTransfers = Engine<Nominal>;

impl Transfers {
    /// A manager over `topo`'s links.
    pub fn new(topo: &Topology) -> Self {
        let node_links = topo
            .nodes()
            .map(|n| topo.incident(Vertex::Node(n)).iter().map(|(l, _)| *l).collect())
            .collect();
        let source = Fluid {
            fx: FlowNetwork::new(topo),
            routes: RoutingTable::new(topo),
            active: Vec::new(),
            last_advance: 0.0,
            node_links,
            base_caps: topo.links().iter().map(|l| l.capacity_bps).collect(),
        };
        Self { version: 0, reaped: Vec::new(), source }
    }
}

impl NominalTransfers {
    /// An engine over `n_nodes` nodes with `nic_bps` nominal NICs.
    pub fn new(n_nodes: usize, nic_bps: f64) -> Self {
        assert!(nic_bps > 0.0);
        let source = Nominal {
            nic_bps,
            node_scale: vec![1.0; n_nodes],
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            stamp: 0,
        };
        Self { version: 0, reaped: Vec::new(), source }
    }
}

impl<R: RateSource + ?Sized> Engine<R> {
    /// Current version; wake-ups carrying an older version are stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of in-flight transfers (including background).
    pub fn n_active(&self) -> usize {
        self.source.count()
    }

    /// Remove every transfer `gone` selects; any removal bumps the version.
    fn remove_where(&mut self, now: f64, mut gone: impl FnMut(&Transfer) -> bool) -> Vec<Transfer> {
        let removed = self.source.remove_where(now, &mut gone);
        self.version += u64::from(!removed.is_empty());
        removed
    }

    /// Start a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Local transfers (`src == dst`) and tiny ones complete immediately and
    /// are returned as `Some(completion)`; remote ones return `None` and
    /// will surface through [`Engine::reap_into`].
    pub fn start(
        &mut self,
        now: f64,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: TransferTag,
    ) -> Option<Completion> {
        assert!(bytes >= 0.0);
        if src == dst || bytes <= DONE_EPSILON {
            return Some(Completion { tag, src, dst, bytes, avg_rate: f64::INFINITY });
        }
        self.source.add(Transfer { tag, src, dst, bytes, started: now });
        self.version += 1;
        None
    }

    /// Remove the (unique) active transfer with `tag`, without completing
    /// it. Used to stop background flows. No-op if absent.
    pub fn cancel(&mut self, now: f64, tag: TransferTag) {
        // The first match takes `tag`, so at most one transfer goes.
        let mut tag = Some(tag);
        self.remove_where(now, |t| tag.take_if(|g| *g == t.tag).is_some());
    }

    /// Cancel every non-background transfer that touches `node` (as source
    /// or destination) — the node just crashed, so in-flight fetches and
    /// shuffle segments die with it. Returns the `(tag, src, dst)` of each
    /// cancelled transfer so the runner can fix task state. Background flows
    /// are left alone: they model co-tenant traffic, not this node's work.
    pub fn cancel_involving(&mut self, now: f64, node: NodeId) -> Vec<(TransferTag, NodeId, NodeId)> {
        self.remove_where(now, |t| {
            (t.src == node || t.dst == node) && !matches!(t.tag, TransferTag::Background { .. })
        })
        .into_iter()
        .map(|t| (t.tag, t.src, t.dst))
        .collect()
    }

    /// Cancel every transfer belonging to job `job` (the job failed; its
    /// fetches and shuffles stop consuming bandwidth). Returns the cancelled
    /// tags.
    pub fn cancel_job(&mut self, now: f64, job: usize) -> Vec<TransferTag> {
        self.remove_where(now, |t| match t.tag {
            TransferTag::MapFetch { job: j, .. } | TransferTag::Shuffle { job: j, .. } => j == job,
            TransferTag::Background { .. } => false,
        })
        .into_iter()
        .map(|t| t.tag)
        .collect()
    }

    /// Scale `node`'s access link(s) to `scale` × nominal capacity
    /// (link-degradation fault windows; `1.0` restores). [`Fluid`] flows
    /// re-share bandwidth from `now` on; [`Nominal`] ones keep the rate frozen
    /// at their start (an accepted approximation for benchmarking).
    pub fn scale_node_links(&mut self, now: f64, node: NodeId, scale: f64) {
        assert!(scale > 0.0, "link scale must stay positive");
        self.source.scale_node(now, node, scale);
        self.version += 1;
    }

    /// Advance to `now` and remove every transfer that has finished,
    /// appending their completions to `done` (possibly none — wake-ups may
    /// race).
    pub fn reap_into(&mut self, now: f64, done: &mut Vec<Completion>) {
        self.source.finished_into(now, &mut self.reaped);
        self.version += u64::from(!self.reaped.is_empty());
        done.extend(self.reaped.drain(..).map(|t| Completion {
            tag: t.tag,
            src: t.src,
            dst: t.dst,
            bytes: t.bytes,
            avg_rate: t.bytes / (now - t.started).max(1e-9),
        }));
    }

    /// [`Engine::reap_into`] a fresh `Vec`.
    pub fn reap(&mut self, now: f64) -> Vec<Completion> {
        let mut done = Vec::new();
        self.reap_into(now, &mut done);
        done
    }

    /// Predicted absolute time of the next completion under current rates,
    /// with the version to stamp on the wake-up event. `None` when nothing
    /// is in flight (or only unbounded background flows are).
    pub fn next_wake(&mut self) -> Option<(f64, u64)> {
        self.source.next_finish().map(|t| (t, self.version))
    }

    /// Current rate of the transfer with `tag` (diagnostics/tests).
    pub fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        self.source.rate_of(tag)
    }

    /// Max-min refills run so far ([`FlowNetwork::refills`]; always 0 for
    /// [`Nominal`], which has no flow network).
    pub fn refills(&self) -> u64 {
        self.source.refills()
    }
}

struct Active {
    t: Transfer,
    flow: FlowId,
    remaining: f64,
}

/// Max-min fair-share rates over a routed topology (see the module header).
pub struct Fluid {
    fx: FlowNetwork,
    routes: RoutingTable,
    active: Vec<Active>,
    last_advance: f64,
    /// Per-node access links (for fault-injected NIC degradation).
    node_links: Vec<Vec<LinkId>>,
    /// Nominal capacity of every link, to restore after degradation.
    base_caps: Vec<f64>,
}

impl Fluid {
    /// Every in-flight transfer beside its flow's current rate (recomputed
    /// if the flow set changed): one zip, by the lock-step invariant.
    fn rated(&mut self) -> impl Iterator<Item = (&mut Active, f64)> + '_ {
        debug_assert_eq!(self.active.len(), self.fx.n_active());
        self.active.iter_mut().zip(self.fx.rates()).map(|(a, (flow, _, _, rate))| {
            debug_assert_eq!(a.flow, flow, "active and the network's flows out of lock-step");
            (a, rate)
        })
    }

    /// Integrate all in-flight transfers up to `now` under the rates that
    /// held since the last mutation.
    fn advance(&mut self, now: f64) {
        let dt = now - self.last_advance;
        debug_assert!(dt >= -1e-9, "time went backwards: {dt}");
        if dt > 0.0 {
            for (a, r) in self.rated() {
                if r.is_finite() {
                    a.remaining -= r * dt;
                }
                // Infinite-rate (local) transfers are completed at start and
                // never reach here.
            }
        }
        self.last_advance = now;
    }

    /// Advance to `now` and move every transfer `gone` selects onto
    /// `removed`, dropping its flow. The one place either vector shrinks:
    /// both `swap_remove` the same position, which is the lock-step
    /// invariant of the module header.
    fn remove_if(
        &mut self,
        now: f64,
        mut gone: impl FnMut(&Active) -> bool,
        removed: &mut Vec<Transfer>,
    ) {
        self.advance(now);
        let mut i = 0;
        while i < self.active.len() {
            if gone(&self.active[i]) {
                let a = self.active.swap_remove(i);
                self.fx.remove_flow(a.flow);
                removed.push(a.t);
            } else {
                i += 1;
            }
        }
    }
}

impl RateSource for Fluid {
    fn count(&self) -> usize {
        self.active.len()
    }

    fn add(&mut self, t: Transfer) {
        self.advance(t.started);
        let flow = self.fx.add_flow(t.src, t.dst, self.routes.route(t.src, t.dst));
        self.active.push(Active { t, flow, remaining: t.bytes });
    }

    fn remove_where(&mut self, now: f64, gone: &mut dyn FnMut(&Transfer) -> bool) -> Vec<Transfer> {
        let mut removed = Vec::new();
        self.remove_if(now, |a| gone(&a.t), &mut removed);
        removed
    }

    fn finished_into(&mut self, now: f64, done: &mut Vec<Transfer>) {
        self.remove_if(now, |a| a.remaining <= DONE_EPSILON, done);
    }

    fn next_finish(&mut self) -> Option<f64> {
        let dt = self
            .rated()
            // Background flows never complete; a stalled flow has no finish.
            .filter(|(a, r)| a.remaining.is_finite() && *r > 0.0)
            .map(|(a, r)| (a.remaining / r).max(0.0))
            .filter(|dt| dt.is_finite())
            .reduce(f64::min)?;
        Some(self.last_advance + dt.max(1e-9))
    }

    fn scale_node(&mut self, now: f64, node: NodeId, scale: f64) {
        self.advance(now);
        for &l in &self.node_links[node.idx()] {
            self.fx.set_capacity(l, self.base_caps[l.idx()] * scale);
        }
    }

    fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        self.rated().find(|(a, _)| a.t.tag == tag).map(|(_, r)| r)
    }

    fn refills(&self) -> u64 {
        self.fx.refills()
    }
}

struct NomActive {
    t: Transfer,
    rate: f64,
    stamp: u64,
}

/// Nominal-rate transfers: every transfer moves at the NIC's nominal rate
/// (scaled by any active degradation on its endpoints, frozen at start),
/// with **no contention** between flows.
///
/// Starting or finishing a transfer is O(log active) heap work instead of
/// the fluid model's global max-min recomputation — the difference between
/// simulating 1M tasks in seconds and in hours. The price is fidelity:
/// concurrent transfers no longer slow each other down, so this source is
/// for scale/throughput benchmarking ([`crate::SimConfig::fluid_network`]
/// `= false`), never for the paper's experiments. It builds no
/// [`FlowNetwork`] or [`RoutingTable`].
pub struct Nominal {
    nic_bps: f64,
    /// Per-node NIC scale (link-degradation windows), applied to transfers
    /// *started* while in effect.
    node_scale: Vec<f64>,
    slots: Vec<Option<NomActive>>,
    free: Vec<usize>,
    /// Min-heap of `(finish bits, stamp, slot)` for every bounded transfer.
    /// Every finish time is > 0, and positive floats order as their bits
    /// do, so this orders by (finish, stamp). An entry whose slot no longer
    /// holds its stamp is stale and skipped.
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    stamp: u64,
}

impl Nominal {
    fn release(&mut self, slot: usize) -> Transfer {
        let a = self.slots[slot].take().expect("slot already free");
        self.free.push(slot);
        a.t
    }

    /// The earliest live heap entry as `(finish, slot)`, popping the stale
    /// entries above it.
    fn top(&mut self) -> Option<(f64, usize)> {
        while let Some(&Reverse((finish, stamp, slot))) = self.heap.peek() {
            if self.slots[slot].as_ref().is_some_and(|a| a.stamp == stamp) {
                return Some((f64::from_bits(finish), slot));
            }
            self.heap.pop();
        }
        None
    }
}

impl RateSource for Nominal {
    fn count(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    fn add(&mut self, t: Transfer) {
        let rate = self.nic_bps * self.node_scale[t.src.idx()].min(self.node_scale[t.dst.idx()]);
        let finish = t.started + t.bytes / rate;
        self.stamp += 1;
        let slot = self.free.pop().unwrap_or_else(|| {
            self.slots.push(None);
            self.slots.len() - 1
        });
        self.slots[slot] = Some(NomActive { t, rate, stamp: self.stamp });
        if finish.is_finite() {
            debug_assert!(finish > 0.0, "bit-ordered heap key needs a positive finish");
            self.heap.push(Reverse((finish.to_bits(), self.stamp, slot)));
        }
    }

    fn remove_where(&mut self, _now: f64, gone: &mut dyn FnMut(&Transfer) -> bool) -> Vec<Transfer> {
        let mut removed = Vec::new();
        for slot in 0..self.slots.len() {
            if self.slots[slot].as_ref().is_some_and(|a| gone(&a.t)) {
                removed.push(self.release(slot));
            }
        }
        removed
    }

    fn finished_into(&mut self, now: f64, done: &mut Vec<Transfer>) {
        while let Some((_, slot)) = self.top().filter(|&(finish, _)| finish <= now) {
            self.heap.pop();
            done.push(self.release(slot));
        }
    }

    fn next_finish(&mut self) -> Option<f64> {
        self.top().map(|(finish, _)| finish)
    }

    fn scale_node(&mut self, _now: f64, node: NodeId, scale: f64) {
        self.node_scale[node.idx()] = scale;
    }

    fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        self.slots.iter().flatten().find(|a| a.t.tag == tag).map(|a| a.rate)
    }

    fn refills(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GB: f64 = 1e9 / 8.0; // 1 Gbps in bytes/sec

    fn topo3() -> Topology {
        Topology::single_rack(3, GB)
    }

    const TAG_A: TransferTag = TransferTag::MapFetch { job: 0, map: 0 };
    const TAG_B: TransferTag = TransferTag::MapFetch { job: 0, map: 1 };

    /// Both engines over the same three nodes, for the laws they share.
    fn both_engines() -> [(&'static str, Box<Engine<dyn RateSource>>); 2] {
        [("fluid", Box::new(Transfers::new(&topo3()))), ("nominal", Box::new(NominalTransfers::new(3, GB)))]
    }

    #[test]
    fn local_transfer_completes_inline() {
        for (name, mut tr) in both_engines() {
            assert!(tr.start(0.0, NodeId(1), NodeId(1), 1e9, TAG_A).is_some(), "{name}: local");
            assert!(tr.start(0.0, NodeId(0), NodeId(1), 0.5, TAG_B).is_some(), "{name}: tiny");
            assert_eq!((tr.n_active(), tr.version()), (0, 0), "{name}");
        }
    }

    #[test]
    fn zero_byte_transfer_completes_inline() {
        for (name, mut tr) in both_engines() {
            assert!(tr.start(0.0, NodeId(0), NodeId(1), 0.0, TAG_A).is_some(), "{name}");
            assert_eq!((tr.n_active(), tr.version()), (0, 0), "{name}");
        }
    }

    #[test]
    fn single_transfer_finishes_at_bytes_over_rate() {
        let mut tr = Transfers::new(&topo3());
        assert!(tr.start(0.0, NodeId(0), NodeId(1), GB, TAG_A).is_none());
        let (t, v) = tr.next_wake().unwrap();
        assert!((t - 1.0).abs() < 1e-6, "1 GB over 1 Gbps NIC path = 1 s, got {t}");
        let done = tr.reap(t);
        assert_eq!(done.len(), 1);
        assert!((done[0].avg_rate - GB).abs() < 1.0);
        assert_eq!(v, tr.version() - 1, "reap bumps version");
    }

    #[test]
    fn contention_slows_completion() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.start(0.0, NodeId(2), NodeId(0), GB, TAG_B);
        // Sharing node 0's NIC: each gets GB/2, finishing at t = 2.
        let (t, _) = tr.next_wake().unwrap();
        assert!((t - 2.0).abs() < 1e-6, "{t}");
        let done = tr.reap(t);
        assert_eq!(done.len(), 2, "both finish simultaneously");
    }

    #[test]
    fn departure_speeds_up_survivor() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A); // 1 GB
        tr.start(0.0, NodeId(2), NodeId(0), GB / 4.0, TAG_B); // 0.25 GB
        // Shared at GB/2 each: B finishes at 0.5 with A at 0.75 GB left;
        // A then runs at full GB: done at 0.5 + 0.75 = 1.25.
        let (t1, _) = tr.next_wake().unwrap();
        assert!((t1 - 0.5).abs() < 1e-6, "{t1}");
        let d1 = tr.reap(t1);
        assert_eq!(d1.len(), 1);
        assert_eq!(d1[0].tag, TAG_B);
        let (t2, _) = tr.next_wake().unwrap();
        assert!((t2 - 1.25).abs() < 1e-6, "{t2}");
        assert_eq!(tr.reap(t2).len(), 1);
        assert_eq!(tr.n_active(), 0);
    }

    #[test]
    fn stale_wake_reaps_nothing() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        let (_, v1) = tr.next_wake().unwrap();
        // A new flow arrives before the wake fires: version moves on.
        tr.start(0.1, NodeId(2), NodeId(0), GB, TAG_B);
        assert!(tr.version() > v1);
        // Reaping at the (now wrong) old completion time finds nothing done.
        assert!(tr.reap(1.0).is_empty());
        assert_eq!(tr.n_active(), 2);
    }

    #[test]
    fn background_flows_never_wake() {
        // The rate a task flow gets beside a background flow on node 1's
        // NIC: half under fluid sharing, all of it under nominal rates.
        for ((name, mut tr), shared) in both_engines().into_iter().zip([GB / 2.0, GB]) {
            let bg = TransferTag::Background { idx: 0 };
            tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
            assert_eq!(tr.n_active(), 1, "{name}");
            assert!(tr.next_wake().is_none(), "{name}");
            tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
            let r = tr.rate_of(TAG_A).unwrap();
            assert!((r - shared).abs() < 1e-6, "{name}: beside background: {r}");
            tr.cancel(0.5, bg);
            assert_eq!(tr.n_active(), 1, "{name}");
            assert!(tr.rate_of(bg).is_none(), "{name}");
            let r = tr.rate_of(TAG_A).unwrap();
            assert!((r - GB).abs() < 1e-6, "{name}: full rate after cancel: {r}");
        }
    }

    #[test]
    fn cancel_involving_removes_only_the_dead_nodes_transfers() {
        for (name, mut tr) in both_engines() {
            tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
            tr.start(0.0, NodeId(2), NodeId(1), GB, TAG_B);
            let bg = TransferTag::Background { idx: 0 };
            tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
            let gone = tr.cancel_involving(0.1, NodeId(1));
            // Both task transfers touch node 1; the background flow survives.
            assert_eq!(gone.len(), 2, "{name}");
            assert!(gone.iter().all(|(t, _, _)| *t == TAG_A || *t == TAG_B), "{name}");
            assert_eq!(tr.n_active(), 1, "{name}");
            assert!(tr.rate_of(bg).is_some(), "{name}");
            // No wake for the cancelled transfers may resurface.
            assert!(tr.next_wake().is_none(), "{name}");
            assert!(tr.reap(5.0).is_empty(), "{name}");
        }
    }

    #[test]
    fn cancel_job_drops_that_jobs_transfers() {
        for (name, mut tr) in both_engines() {
            tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A); // job 0
            let other = TransferTag::Shuffle { job: 1, reduce: 0 };
            tr.start(0.0, NodeId(2), NodeId(0), GB, other);
            tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, TransferTag::Background { idx: 0 });
            let gone = tr.cancel_job(0.1, 0);
            assert_eq!(gone, vec![TAG_A], "{name}");
            assert_eq!(tr.n_active(), 2, "{name}");
        }
    }

    #[test]
    fn nic_degradation_slows_and_restore_recovers() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.scale_node_links(0.0, NodeId(0), 0.25);
        let r = tr.rate_of(TAG_A).unwrap();
        assert!((r - GB / 4.0).abs() < 1e-6, "degraded dst NIC caps the flow: {r}");
        tr.scale_node_links(0.5, NodeId(0), 1.0);
        let r = tr.rate_of(TAG_A).unwrap();
        assert!((r - GB).abs() < 1e-6, "restored: {r}");
    }

    fn job_of(tag: TransferTag) -> Option<usize> {
        match tag {
            TransferTag::MapFetch { job, .. } | TransferTag::Shuffle { job, .. } => Some(job),
            TransferTag::Background { .. } => None,
        }
    }

    // ---- differential: the lock-step zip against lookup by id ----

    /// A `Transfers` that does not rely on lock-step: a flow network of its
    /// own, every rate looked up by `FlowNetwork::rate(id)`.
    struct Naive {
        fx: FlowNetwork,
        active: Vec<Active>,
        last_advance: f64,
        version: u64,
    }

    impl Naive {
        fn advance(&mut self, now: f64) {
            let dt = now - self.last_advance;
            if dt > 0.0 {
                for a in &mut self.active {
                    let r = self.fx.rate(a.flow);
                    if r.is_finite() {
                        a.remaining -= r * dt;
                    }
                }
            }
            self.last_advance = now;
        }

        fn start(&mut self, t: Transfer, route: &[LinkId]) {
            self.advance(t.started);
            let flow = self.fx.add_flow(t.src, t.dst, route);
            self.active.push(Active { t, flow, remaining: t.bytes });
            self.version += 1;
        }

        /// One removal loop for every removal site; `at_most_one` is `cancel`.
        fn remove(&mut self, now: f64, at_most_one: bool, gone: impl Fn(&Active) -> bool) -> Vec<Active> {
            self.advance(now);
            let mut removed = Vec::new();
            let mut i = 0;
            while i < self.active.len() && (removed.is_empty() || !at_most_one) {
                if gone(&self.active[i]) {
                    let a = self.active.swap_remove(i);
                    self.fx.remove_flow(a.flow);
                    removed.push(a);
                } else {
                    i += 1;
                }
            }
            self.version += u64::from(!removed.is_empty());
            removed
        }

        fn next_wake(&mut self) -> Option<(f64, u64)> {
            let mut best: Option<f64> = None;
            for a in self.active.iter().filter(|a| a.remaining.is_finite()) {
                let r = self.fx.rate(a.flow);
                let dt = if r > 0.0 { (a.remaining / r).max(0.0) } else { f64::INFINITY };
                if dt.is_finite() {
                    best = Some(best.map_or(dt, |b: f64| b.min(dt)));
                }
            }
            best.map(|dt| (self.last_advance + dt.max(1e-9), self.version))
        }
    }

    /// `active[i]` is the transfer on the network's `i`-th flow. Looks at a
    /// clone so the network under test stays as dirty as it was.
    fn assert_lock_step(tr: &Transfers) {
        let flows: Vec<FlowId> = tr.source.fx.clone().rates().map(|(id, ..)| id).collect();
        let active: Vec<FlowId> = tr.source.active.iter().map(|a| a.flow).collect();
        assert_eq!(active, flows);
    }

    #[test]
    fn lock_step_zip_matches_lookup_by_id() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const N: u32 = 9;
        let topo = Topology::palmetto_slice(N as usize, GB);
        let mut tr = Transfers::new(&topo);
        let mut naive = Naive { fx: FlowNetwork::new(&topo), active: Vec::new(), last_advance: 0.0, version: 0 };
        let mut rng = SmallRng::seed_from_u64(17);
        let mut now = 0.0;
        let (mut completed, mut cancelled) = (0, 0);

        for step in 0..2_000 {
            // Mutations often share an instant, as they do inside one event.
            if rng.gen_bool(0.5) {
                now += rng.gen_range(0.0..0.05);
            }
            let node = NodeId(rng.gen_range(0..N));
            // Twelve tags for hundreds of transfers: most tags carry several.
            let shuffle = TransferTag::Shuffle { job: rng.gen_range(0..3), reduce: rng.gen_range(0..4) };
            let background = TransferTag::Background { idx: rng.gen_range(0..2) };
            match rng.gen_range(0..100) {
                0..=44 => {
                    let (src, dst) = (node, NodeId(rng.gen_range(0..N)));
                    let (tag, bytes) = match rng.gen_range(0..10) {
                        0 => (background, f64::INFINITY),
                        1 => (shuffle, 0.5), // tiny: completes inline
                        _ => (shuffle, rng.gen_range(1e6..5e7)),
                    };
                    // `src == dst` now and then: local, completes inline.
                    match tr.start(now, src, dst, bytes, tag) {
                        Some(c) => assert!(c.avg_rate.is_infinite() && (src == dst || bytes <= DONE_EPSILON)),
                        None => naive.start(Transfer { tag, src, dst, bytes, started: now }, tr.source.routes.route(src, dst)),
                    }
                }
                45..=49 => {
                    let tag = if rng.gen_bool(0.5) { background } else { shuffle };
                    tr.cancel(now, tag);
                    cancelled += naive.remove(now, true, |a| a.t.tag == tag).len();
                }
                50..=52 => {
                    let got = tr.cancel_involving(now, node);
                    let want = naive.remove(now, false, |a| {
                        (a.t.src == node || a.t.dst == node) && job_of(a.t.tag).is_some()
                    });
                    assert_eq!(got, want.iter().map(|a| (a.t.tag, a.t.src, a.t.dst)).collect::<Vec<_>>());
                    cancelled += want.len();
                }
                53..=54 => {
                    let job = rng.gen_range(0..3);
                    let got = tr.cancel_job(now, job);
                    let want = naive.remove(now, false, |a| job_of(a.t.tag) == Some(job));
                    assert_eq!(got, want.iter().map(|a| a.t.tag).collect::<Vec<_>>());
                    cancelled += want.len();
                }
                55..=59 => {
                    let scale = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
                    tr.scale_node_links(now, node, scale);
                    naive.advance(now);
                    for &l in &tr.source.node_links[node.idx()] {
                        naive.fx.set_capacity(l, tr.source.base_caps[l.idx()] * scale);
                    }
                    naive.version += 1;
                }
                _ => {
                    let wake = tr.next_wake();
                    let want = naive.next_wake();
                    assert_eq!(wake.map(|(t, v)| (t.to_bits(), v)), want.map(|(t, v)| (t.to_bits(), v)), "step {step}");
                    if let Some((t, _)) = wake {
                        // One wake in four fires early, as a stale one would.
                        now = if rng.gen_bool(0.25) { now + 0.5 * (t - now) } else { t };
                        let got = tr.reap(now);
                        let want = naive.remove(now, false, |a| a.remaining <= DONE_EPSILON);
                        assert_eq!(got.len(), want.len(), "step {step}");
                        for (c, a) in got.iter().zip(&want) {
                            let avg_rate = a.t.bytes / (now - a.t.started).max(1e-9);
                            assert_eq!(
                                (c.tag, c.src, c.dst, c.bytes.to_bits(), c.avg_rate.to_bits()),
                                (a.t.tag, a.t.src, a.t.dst, a.t.bytes.to_bits(), avg_rate.to_bits()),
                                "step {step}"
                            );
                        }
                        completed += got.len();
                    }
                }
            }
            assert_eq!(tr.version(), naive.version, "step {step}");
            assert_eq!(tr.n_active(), naive.active.len(), "step {step}");
            assert_lock_step(&tr);
        }
        // The script must have exercised what it claims to.
        assert!(completed > 200 && cancelled > 50, "{completed} completed, {cancelled} cancelled");
    }

    // ---- nominal engine ----

    #[test]
    fn nominal_finishes_at_bytes_over_nic_rate() {
        let mut tr = NominalTransfers::new(3, GB);
        assert!(tr.start(0.0, NodeId(0), NodeId(1), GB, TAG_A).is_none());
        let (t, v) = tr.next_wake().unwrap();
        assert!((t - 1.0).abs() < 1e-9, "{t}");
        let done = tr.reap(t);
        assert_eq!(done.len(), 1);
        assert!((done[0].bytes - GB).abs() < 1.0);
        assert_eq!(v, tr.version() - 1, "reap bumps version");
        assert_eq!(tr.n_active(), 0);
    }

    #[test]
    fn nominal_has_no_contention() {
        // Two fetches into the same node both finish at t = 1 — that's the
        // point of the benchmark engine.
        let mut tr = NominalTransfers::new(3, GB);
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.start(0.0, NodeId(2), NodeId(0), GB, TAG_B);
        let (t, _) = tr.next_wake().unwrap();
        assert!((t - 1.0).abs() < 1e-9, "{t}");
        assert_eq!(tr.reap(t).len(), 2);
    }

    #[test]
    fn nominal_local_and_tiny_complete_inline() {
        let mut tr = NominalTransfers::new(3, GB);
        assert!(tr.start(0.0, NodeId(1), NodeId(1), 1e9, TAG_A).is_some());
        assert!(tr.start(0.0, NodeId(0), NodeId(1), 0.5, TAG_B).is_some());
        assert_eq!(tr.n_active(), 0);
    }

    #[test]
    fn nominal_background_never_wakes_and_cancel_works() {
        let mut tr = NominalTransfers::new(3, GB);
        let bg = TransferTag::Background { idx: 0 };
        tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
        assert_eq!(tr.n_active(), 1);
        assert!(tr.next_wake().is_none());
        tr.cancel(0.5, bg);
        assert_eq!(tr.n_active(), 0);
    }

    #[test]
    fn nominal_cancel_involving_spares_background_and_invalidates_heap() {
        let mut tr = NominalTransfers::new(3, GB);
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.start(0.0, NodeId(2), NodeId(1), GB, TAG_B);
        let bg = TransferTag::Background { idx: 0 };
        tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
        let gone = tr.cancel_involving(0.1, NodeId(1));
        assert_eq!(gone.len(), 2);
        assert_eq!(tr.n_active(), 1);
        // Stale heap entries for the cancelled transfers must not resurface.
        assert!(tr.next_wake().is_none());
        assert!(tr.reap(5.0).is_empty());
    }

    #[test]
    fn nominal_degradation_scales_new_transfers() {
        let mut tr = NominalTransfers::new(3, GB);
        tr.scale_node_links(0.0, NodeId(0), 0.25);
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        assert!((tr.rate_of(TAG_A).unwrap() - GB / 4.0).abs() < 1e-6);
        let (t, _) = tr.next_wake().unwrap();
        assert!((t - 4.0).abs() < 1e-9, "{t}");
    }

    #[test]
    fn nominal_slot_reuse_keeps_stamps_distinct() {
        let mut tr = NominalTransfers::new(3, GB);
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.cancel(0.1, TAG_A);
        // Reuses the freed slot; the old heap entry must not reap it.
        tr.start(0.2, NodeId(2), NodeId(0), GB, TAG_B);
        let done = tr.reap(1.0); // old finish time of TAG_A
        assert!(done.is_empty(), "{done:?}");
        let done = tr.reap(1.2);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].tag, TAG_B);
    }

    // ---- differential: the nominal heap against a naive finish-time list ----

    /// One transfer of the naive nominal model: it finishes at
    /// `started + bytes / rate_at_start`, found by scanning every transfer.
    struct NaiveNominal {
        seq: u64,
        t: Transfer,
        finish: f64,
    }

    /// Equal as sets: every element is distinct in the script below.
    fn assert_same_set<T: PartialEq + std::fmt::Debug>(got: &[T], want: &[T], step: usize) {
        assert_eq!(got.len(), want.len(), "step {step}: {got:?} vs {want:?}");
        assert!(got.iter().all(|g| want.contains(g)), "step {step}: {got:?} vs {want:?}");
    }

    #[test]
    fn nominal_heap_matches_a_naive_finish_time_list() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};

        const N: u32 = 9;
        let mut tr = NominalTransfers::new(N as usize, GB);
        let mut scale = [1.0_f64; N as usize];
        let mut naive: Vec<NaiveNominal> = Vec::new();
        let (mut version, mut seq) = (0u64, 0u64);
        let mut rng = SmallRng::seed_from_u64(29);
        let mut now = 0.0;
        let (mut completed, mut cancelled, mut widest_reap) = (0, 0, 0);

        for step in 0..2_000 {
            if rng.gen_bool(0.5) {
                now += rng.gen_range(0.0..0.05);
            }
            let node = NodeId(rng.gen_range(0..N));
            match rng.gen_range(0..100) {
                0..=44 => {
                    let (src, dst) = (node, NodeId(rng.gen_range(0..N)));
                    // Every tag is unique, so `cancel` names one transfer.
                    let shuffle = TransferTag::Shuffle { job: rng.gen_range(0..3), reduce: step };
                    let (tag, bytes) = match rng.gen_range(0..10) {
                        0 => (TransferTag::Background { idx: step }, f64::INFINITY),
                        1 => (shuffle, 0.5), // tiny: completes inline
                        _ => (shuffle, rng.gen_range(1e6..5e7)),
                    };
                    // `src == dst` now and then: local, completes inline.
                    match tr.start(now, src, dst, bytes, tag) {
                        Some(c) => assert!(c.avg_rate.is_infinite() && (src == dst || bytes <= DONE_EPSILON)),
                        None => {
                            let rate = GB * scale[src.idx()].min(scale[dst.idx()]);
                            seq += 1;
                            let t = Transfer { tag, src, dst, bytes, started: now };
                            naive.push(NaiveNominal { seq, t, finish: now + bytes / rate });
                            version += 1;
                        }
                    }
                }
                45..=49 => {
                    // A live transfer, or now and then one long gone.
                    let tag = match naive.len() {
                        n if n > 0 && rng.gen_bool(0.9) => naive[rng.gen_range(0..n)].t.tag,
                        _ => TransferTag::Shuffle { job: 0, reduce: usize::MAX },
                    };
                    tr.cancel(now, tag);
                    if let Some(i) = naive.iter().position(|a| a.t.tag == tag) {
                        naive.remove(i);
                        version += 1;
                        cancelled += 1;
                    }
                }
                50..=52 => {
                    let got = tr.cancel_involving(now, node);
                    let want: Vec<_> = naive
                        .extract_if(.., |a| (a.t.src == node || a.t.dst == node) && job_of(a.t.tag).is_some())
                        .map(|a| (a.t.tag, a.t.src, a.t.dst))
                        .collect();
                    assert_same_set(&got, &want, step);
                    version += u64::from(!want.is_empty());
                    cancelled += want.len();
                }
                53..=54 => {
                    let job = rng.gen_range(0..3);
                    let got = tr.cancel_job(now, job);
                    let want: Vec<_> =
                        naive.extract_if(.., |a| job_of(a.t.tag) == Some(job)).map(|a| a.t.tag).collect();
                    assert_same_set(&got, &want, step);
                    version += u64::from(!want.is_empty());
                    cancelled += want.len();
                }
                55..=59 => {
                    let s = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
                    tr.scale_node_links(now, node, s);
                    scale[node.idx()] = s;
                    version += 1;
                }
                _ => {
                    if let Some((t, _)) = tr.next_wake() {
                        // A wake fires early (as a stale one would), on time,
                        // or late enough to reap a batch at once.
                        let t = t.max(now);
                        now = match rng.gen_range(0..4) {
                            0 => now + 0.5 * (t - now),
                            1 => t + rng.gen_range(0.0..0.5),
                            _ => t,
                        };
                        let got = tr.reap(now);
                        let mut want: Vec<_> = naive.extract_if(.., |a| a.finish <= now).collect();
                        want.sort_by(|a, b| a.finish.total_cmp(&b.finish).then(a.seq.cmp(&b.seq)));
                        assert_eq!(got.len(), want.len(), "step {step}");
                        for (c, a) in got.iter().zip(&want) {
                            let avg_rate = a.t.bytes / (now - a.t.started).max(1e-9);
                            assert_eq!(
                                (c.tag, c.src, c.dst, c.bytes.to_bits(), c.avg_rate.to_bits()),
                                (a.t.tag, a.t.src, a.t.dst, a.t.bytes.to_bits(), avg_rate.to_bits()),
                                "step {step}"
                            );
                        }
                        version += u64::from(!want.is_empty());
                        completed += got.len();
                        widest_reap = widest_reap.max(got.len());
                    }
                }
            }
            assert_eq!(tr.version(), version, "step {step}");
            assert_eq!(tr.n_active(), naive.len(), "step {step}");
            let want = naive.iter().map(|a| a.finish).filter(|f| f.is_finite()).min_by(f64::total_cmp);
            let wake = tr.next_wake();
            assert_eq!(wake.map(|(t, v)| (t.to_bits(), v)), want.map(|t| (t.to_bits(), version)), "step {step}");
        }
        // The script must have exercised what it claims to.
        assert!(
            completed > 200 && cancelled > 50 && widest_reap > 2,
            "{completed} completed, {cancelled} cancelled, widest reap {widest_reap}"
        );
    }
}
