//! The transfer manager: byte-accurate tracking of fluid flows.
//!
//! [`pnats_net::FlowNetwork`] answers "what rate does each flow get *right
//! now*"; this layer integrates those rates over time. Every mutation
//! (start/finish of any flow) first *advances* all in-flight transfers by
//! the elapsed interval under the old rates, then recomputes rates and
//! predicts the next completion. The runner schedules a wake-up event for
//! that prediction, tagged with a version number — any later mutation bumps
//! the version, turning stale wake-ups into no-ops.
//!
//! **Lock-step invariant.** `active[i]` is the transfer carried by the
//! network's `i`-th flow, always: [`Transfers::start`] pushes onto both, and
//! every removal goes through `Transfers::remove_at`, which `swap_remove`s
//! position `i` here while the network `swap_remove`s the same flow there.
//! Integration and wake prediction therefore read rates with one zip over
//! [`FlowNetwork::rates`] (`Transfers::rated`) — no lookup by id, no
//! temporary vector — and `debug_assert` that the ids agree.
//!
//! **Integration stays eager.** Each transfer's `remaining` is decremented
//! at every mutation instant, not lazily when its own rate changes. That is
//! one multiply-subtract per transfer — far below the cost of the refill the
//! same mutation triggers — and it keeps the sequence of float operations,
//! hence every simulated time, bit-identical to what the golden traces
//! record. Lazy integration would round differently for no measurable gain.

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

#[derive(Clone, Debug)]
struct Active {
    flow: FlowId,
    tag: TransferTag,
    src: NodeId,
    dst: NodeId,
    remaining: f64,
    total: f64,
    started: f64,
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

/// Byte-tracked fluid transfers over a routed topology.
pub struct Transfers {
    fx: FlowNetwork,
    routes: RoutingTable,
    active: Vec<Active>,
    last_advance: f64,
    version: u64,
    /// Per-node access links (for fault-injected NIC degradation).
    node_links: Vec<Vec<LinkId>>,
    /// Nominal capacity of every link, to restore after degradation.
    base_caps: Vec<f64>,
}

/// Transfers at or below this many remaining bytes count as complete
/// (absorbs float drift; real transfers are MBs to GBs).
const DONE_EPSILON: f64 = 1.0;

impl Transfers {
    /// A manager over `topo`'s links.
    pub fn new(topo: &Topology) -> Self {
        let node_links = topo
            .nodes()
            .map(|n| topo.incident(Vertex::Node(n)).iter().map(|(l, _)| *l).collect())
            .collect();
        Self {
            fx: FlowNetwork::new(topo),
            routes: RoutingTable::new(topo),
            active: Vec::new(),
            last_advance: 0.0,
            version: 0,
            node_links,
            base_caps: topo.links().iter().map(|l| l.capacity_bps).collect(),
        }
    }

    /// Current version; wake-ups carrying an older version are stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of in-flight transfers (including background).
    pub fn n_active(&self) -> usize {
        self.active.len()
    }

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

    /// Remove `active[i]` and its flow. The one place either vector shrinks:
    /// both `swap_remove` the same position, which is the lock-step
    /// invariant of the module header.
    fn remove_at(&mut self, i: usize) -> Active {
        let a = self.active.swap_remove(i);
        self.fx.remove_flow(a.flow);
        a
    }

    /// Advance to `now`, remove every transfer `gone` selects and return
    /// what `out` makes of each, bumping the version if any went.
    fn remove_where<T>(
        &mut self,
        now: f64,
        gone: impl Fn(&Active) -> bool,
        out: impl Fn(Active) -> T,
    ) -> Vec<T> {
        self.advance(now);
        let mut removed = Vec::new();
        let mut i = 0;
        while i < self.active.len() {
            if gone(&self.active[i]) {
                removed.push(out(self.remove_at(i)));
            } else {
                i += 1;
            }
        }
        if !removed.is_empty() {
            self.version += 1;
        }
        removed
    }

    /// Start a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Local transfers (`src == dst`) complete immediately and are returned
    /// as `Some(completion)`; remote ones return `None` and will surface
    /// through [`Transfers::reap`].
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
        self.advance(now);
        let flow = self.fx.add_flow(src, dst, self.routes.route(src, dst));
        self.active.push(Active { flow, tag, src, dst, remaining: bytes, total: bytes, started: now });
        self.version += 1;
        None
    }

    /// Remove the (unique) active transfer with `tag`, without completing
    /// it. Used to stop background flows. No-op if absent.
    pub fn cancel(&mut self, now: f64, tag: TransferTag) {
        self.advance(now);
        if let Some(pos) = self.active.iter().position(|a| a.tag == tag) {
            self.remove_at(pos);
            self.version += 1;
        }
    }

    /// Cancel every non-background transfer that touches `node` (as source
    /// or destination) — the node just crashed, so in-flight fetches and
    /// shuffle segments die with it. Returns the `(tag, src, dst)` of each
    /// cancelled transfer so the runner can fix task state. Background flows
    /// are left alone: they model co-tenant traffic, not this node's work.
    pub fn cancel_involving(&mut self, now: f64, node: NodeId) -> Vec<(TransferTag, NodeId, NodeId)> {
        self.remove_where(
            now,
            |a| {
                (a.src == node || a.dst == node)
                    && !matches!(a.tag, TransferTag::Background { .. })
            },
            |a| (a.tag, a.src, a.dst),
        )
    }

    /// Cancel every transfer belonging to job `job` (the job failed; its
    /// fetches and shuffles stop consuming bandwidth). Returns the cancelled
    /// tags.
    pub fn cancel_job(&mut self, now: f64, job: usize) -> Vec<TransferTag> {
        self.remove_where(
            now,
            |a| match a.tag {
                TransferTag::MapFetch { job: j, .. } | TransferTag::Shuffle { job: j, .. } => {
                    j == job
                }
                TransferTag::Background { .. } => false,
            },
            |a| a.tag,
        )
    }

    /// Scale `node`'s access link(s) to `scale` × nominal capacity
    /// (link-degradation fault windows; `1.0` restores). Active flows
    /// re-share bandwidth from `now` on.
    pub fn scale_node_links(&mut self, now: f64, node: NodeId, scale: f64) {
        assert!(scale > 0.0, "link scale must stay positive");
        self.advance(now);
        for &l in &self.node_links[node.idx()] {
            self.fx.set_capacity(l, self.base_caps[l.idx()] * scale);
        }
        self.version += 1;
    }

    /// Advance to `now` and remove every transfer that has finished,
    /// returning their completions (possibly empty — wake-ups may race).
    pub fn reap(&mut self, now: f64) -> Vec<Completion> {
        self.remove_where(
            now,
            |a| a.remaining <= DONE_EPSILON,
            |a| Completion {
                tag: a.tag,
                src: a.src,
                dst: a.dst,
                bytes: a.total,
                avg_rate: a.total / (now - a.started).max(1e-9),
            },
        )
    }

    /// Predicted absolute time of the next completion under current rates,
    /// with the version to stamp on the wake-up event. `None` when nothing
    /// is in flight (or only unbounded background flows are).
    pub fn next_wake(&mut self) -> Option<(f64, u64)> {
        let mut best: Option<f64> = None;
        for (a, r) in self.rated() {
            if !a.remaining.is_finite() {
                continue; // background flows never complete
            }
            let dt = if r > 0.0 { (a.remaining / r).max(0.0) } else { f64::INFINITY };
            if dt.is_finite() {
                best = Some(best.map_or(dt, |b: f64| b.min(dt)));
            }
        }
        best.map(|dt| (self.last_advance + dt.max(1e-9), self.version))
    }

    /// Current rate of the transfer with `tag` (diagnostics/tests).
    pub fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        self.rated().find(|(a, _)| a.tag == tag).map(|(_, r)| r)
    }
}

#[derive(Clone, Debug)]
struct NomActive {
    tag: TransferTag,
    src: NodeId,
    dst: NodeId,
    bytes: f64,
    rate: f64,
    started: f64,
    stamp: u64,
}

#[derive(Clone, Copy, Debug)]
struct NomEntry {
    finish: f64,
    stamp: u64,
    slot: usize,
}

impl PartialEq for NomEntry {
    fn eq(&self, other: &Self) -> bool {
        self.finish == other.finish && self.stamp == other.stamp
    }
}
impl Eq for NomEntry {}
impl Ord for NomEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: min-heap on (finish, stamp).
        other
            .finish
            .total_cmp(&self.finish)
            .then_with(|| other.stamp.cmp(&self.stamp))
    }
}
impl PartialOrd for NomEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Nominal-rate transfer engine: every transfer moves at the NIC's nominal
/// rate (scaled by any active degradation on its endpoints, frozen at
/// start), with **no contention** between flows.
///
/// Starting or finishing a transfer is O(log active) heap work instead of
/// the fluid model's global max-min recomputation — the difference between
/// simulating 1M tasks in seconds and in hours. The price is fidelity:
/// concurrent transfers no longer slow each other down, so this engine is
/// for scale/throughput benchmarking ([`crate::SimConfig::fluid_network`]
/// `= false`), never for the paper's experiments.
///
/// The wake protocol (versions, stale wake-ups, [`NominalTransfers::reap`])
/// is identical to [`Transfers`], so the runner drives both through one
/// code path.
pub struct NominalTransfers {
    nic_bps: f64,
    /// Per-node NIC scale (link-degradation windows), applied to transfers
    /// *started* while in effect.
    node_scale: Vec<f64>,
    slots: Vec<Option<NomActive>>,
    free: Vec<usize>,
    heap: std::collections::BinaryHeap<NomEntry>,
    n_active: usize,
    stamp: u64,
    version: u64,
}

impl NominalTransfers {
    /// An engine over `n_nodes` nodes with `nic_bps` nominal NICs.
    pub fn new(n_nodes: usize, nic_bps: f64) -> Self {
        assert!(nic_bps > 0.0);
        Self {
            nic_bps,
            node_scale: vec![1.0; n_nodes],
            slots: Vec::new(),
            free: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            n_active: 0,
            stamp: 0,
            version: 0,
        }
    }

    /// Current version; wake-ups carrying an older version are stale.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of in-flight transfers (including background).
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Start a transfer; local/tiny transfers complete inline exactly like
    /// the fluid engine.
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
        let scale = self.node_scale[src.idx()].min(self.node_scale[dst.idx()]);
        let rate = self.nic_bps * scale;
        let finish = if bytes.is_finite() { now + bytes / rate } else { f64::INFINITY };
        self.stamp += 1;
        let a = NomActive { tag, src, dst, bytes, rate, started: now, stamp: self.stamp };
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(a);
                s
            }
            None => {
                self.slots.push(Some(a));
                self.slots.len() - 1
            }
        };
        if finish.is_finite() {
            self.heap.push(NomEntry { finish, stamp: self.stamp, slot });
        }
        self.n_active += 1;
        self.version += 1;
        None
    }

    fn release(&mut self, slot: usize) -> NomActive {
        let a = self.slots[slot].take().expect("slot already free");
        self.free.push(slot);
        self.n_active -= 1;
        a
    }

    /// Remove the (unique) active transfer with `tag` without completing it.
    pub fn cancel(&mut self, _now: f64, tag: TransferTag) {
        let found = self
            .slots
            .iter()
            .position(|s| s.as_ref().is_some_and(|a| a.tag == tag));
        if let Some(slot) = found {
            self.release(slot);
            self.version += 1;
        }
    }

    /// Cancel every non-background transfer touching `node`; returns their
    /// `(tag, src, dst)`.
    pub fn cancel_involving(
        &mut self,
        _now: f64,
        node: NodeId,
    ) -> Vec<(TransferTag, NodeId, NodeId)> {
        let mut cancelled = Vec::new();
        for slot in 0..self.slots.len() {
            let hit = self.slots[slot].as_ref().is_some_and(|a| {
                (a.src == node || a.dst == node)
                    && !matches!(a.tag, TransferTag::Background { .. })
            });
            if hit {
                let a = self.release(slot);
                cancelled.push((a.tag, a.src, a.dst));
            }
        }
        if !cancelled.is_empty() {
            self.version += 1;
        }
        cancelled
    }

    /// Cancel every transfer belonging to `job`; returns the cancelled tags.
    pub fn cancel_job(&mut self, _now: f64, job: usize) -> Vec<TransferTag> {
        let mut cancelled = Vec::new();
        for slot in 0..self.slots.len() {
            let hit = self.slots[slot].as_ref().is_some_and(|a| match a.tag {
                TransferTag::MapFetch { job: j, .. } | TransferTag::Shuffle { job: j, .. } => {
                    j == job
                }
                TransferTag::Background { .. } => false,
            });
            if hit {
                cancelled.push(self.release(slot).tag);
            }
        }
        if !cancelled.is_empty() {
            self.version += 1;
        }
        cancelled
    }

    /// Record a NIC-degradation scale for `node`. Applies to transfers
    /// started from now on; in-flight transfers keep their frozen rate (an
    /// accepted approximation of this benchmark-only engine).
    pub fn scale_node_links(&mut self, _now: f64, node: NodeId, scale: f64) {
        assert!(scale > 0.0, "link scale must stay positive");
        self.node_scale[node.idx()] = scale;
        self.version += 1;
    }

    /// Remove every transfer whose predicted finish has passed, returning
    /// their completions.
    pub fn reap(&mut self, now: f64) -> Vec<Completion> {
        let mut done = Vec::new();
        while let Some(top) = self.heap.peek() {
            let live = self.slots[top.slot]
                .as_ref()
                .is_some_and(|a| a.stamp == top.stamp);
            if !live {
                self.heap.pop();
                continue;
            }
            if top.finish > now {
                break;
            }
            let slot = top.slot;
            self.heap.pop();
            let a = self.release(slot);
            let dt = (now - a.started).max(1e-9);
            done.push(Completion {
                tag: a.tag,
                src: a.src,
                dst: a.dst,
                bytes: a.bytes,
                avg_rate: a.bytes / dt,
            });
        }
        if !done.is_empty() {
            self.version += 1;
        }
        done
    }

    /// Predicted absolute time of the next completion plus the version to
    /// stamp on the wake-up. `None` when nothing bounded is in flight.
    pub fn next_wake(&mut self) -> Option<(f64, u64)> {
        while let Some(top) = self.heap.peek() {
            let live = self.slots[top.slot]
                .as_ref()
                .is_some_and(|a| a.stamp == top.stamp);
            if live {
                return Some((top.finish, self.version));
            }
            self.heap.pop();
        }
        None
    }

    /// Current rate of the transfer with `tag` (diagnostics/tests).
    pub fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        self.slots
            .iter()
            .flatten()
            .find(|a| a.tag == tag)
            .map(|a| a.rate)
    }
}

/// The transfer engine the runner drives: fluid (contention-accurate) or
/// nominal (contention-free, for scale benchmarking). One enum instead of a
/// trait object so the hot calls stay statically dispatched.
pub enum TransferEngine {
    /// Max-min fair fluid flows ([`Transfers`]).
    Fluid(Transfers),
    /// Fixed nominal rates ([`NominalTransfers`]).
    Nominal(NominalTransfers),
}

impl TransferEngine {
    /// Current version; wake-ups carrying an older version are stale.
    pub fn version(&self) -> u64 {
        match self {
            Self::Fluid(t) => t.version(),
            Self::Nominal(t) => t.version(),
        }
    }

    /// Number of in-flight transfers (including background).
    pub fn n_active(&self) -> usize {
        match self {
            Self::Fluid(t) => t.n_active(),
            Self::Nominal(t) => t.n_active(),
        }
    }

    /// Start a transfer. See [`Transfers::start`].
    pub fn start(
        &mut self,
        now: f64,
        src: NodeId,
        dst: NodeId,
        bytes: f64,
        tag: TransferTag,
    ) -> Option<Completion> {
        match self {
            Self::Fluid(t) => t.start(now, src, dst, bytes, tag),
            Self::Nominal(t) => t.start(now, src, dst, bytes, tag),
        }
    }

    /// Cancel by tag. See [`Transfers::cancel`].
    pub fn cancel(&mut self, now: f64, tag: TransferTag) {
        match self {
            Self::Fluid(t) => t.cancel(now, tag),
            Self::Nominal(t) => t.cancel(now, tag),
        }
    }

    /// Cancel everything touching a crashed node. See
    /// [`Transfers::cancel_involving`].
    pub fn cancel_involving(
        &mut self,
        now: f64,
        node: NodeId,
    ) -> Vec<(TransferTag, NodeId, NodeId)> {
        match self {
            Self::Fluid(t) => t.cancel_involving(now, node),
            Self::Nominal(t) => t.cancel_involving(now, node),
        }
    }

    /// Cancel a failed job's transfers. See [`Transfers::cancel_job`].
    pub fn cancel_job(&mut self, now: f64, job: usize) -> Vec<TransferTag> {
        match self {
            Self::Fluid(t) => t.cancel_job(now, job),
            Self::Nominal(t) => t.cancel_job(now, job),
        }
    }

    /// Scale a node's access links. See [`Transfers::scale_node_links`].
    pub fn scale_node_links(&mut self, now: f64, node: NodeId, scale: f64) {
        match self {
            Self::Fluid(t) => t.scale_node_links(now, node, scale),
            Self::Nominal(t) => t.scale_node_links(now, node, scale),
        }
    }

    /// Collect finished transfers. See [`Transfers::reap`].
    pub fn reap(&mut self, now: f64) -> Vec<Completion> {
        match self {
            Self::Fluid(t) => t.reap(now),
            Self::Nominal(t) => t.reap(now),
        }
    }

    /// Next predicted completion. See [`Transfers::next_wake`].
    pub fn next_wake(&mut self) -> Option<(f64, u64)> {
        match self {
            Self::Fluid(t) => t.next_wake(),
            Self::Nominal(t) => t.next_wake(),
        }
    }

    /// Current rate of a transfer. See [`Transfers::rate_of`].
    pub fn rate_of(&mut self, tag: TransferTag) -> Option<f64> {
        match self {
            Self::Fluid(t) => t.rate_of(tag),
            Self::Nominal(t) => t.rate_of(tag),
        }
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

    #[test]
    fn local_transfer_completes_inline() {
        let mut tr = Transfers::new(&topo3());
        let c = tr.start(0.0, NodeId(1), NodeId(1), 1e9, TAG_A);
        assert!(c.is_some());
        assert_eq!(tr.n_active(), 0);
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
        let mut tr = Transfers::new(&topo3());
        let bg = TransferTag::Background { idx: 0 };
        tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
        assert_eq!(tr.n_active(), 1);
        assert!(tr.next_wake().is_none());
        // But they do consume bandwidth.
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        let r = tr.rate_of(TAG_A).unwrap();
        assert!((r - GB / 2.0).abs() < 1e-6, "shares node1 NIC with background: {r}");
        tr.cancel(0.5, bg);
        let r = tr.rate_of(TAG_A).unwrap();
        assert!((r - GB).abs() < 1e-6, "full rate after cancel: {r}");
    }

    #[test]
    fn cancel_involving_removes_only_the_dead_nodes_transfers() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A);
        tr.start(0.0, NodeId(2), NodeId(1), GB, TAG_B);
        let bg = TransferTag::Background { idx: 0 };
        tr.start(0.0, NodeId(1), NodeId(2), f64::INFINITY, bg);
        let gone = tr.cancel_involving(0.1, NodeId(1));
        // Both task transfers touch node 1; the background flow survives.
        assert_eq!(gone.len(), 2);
        assert!(gone.iter().all(|(t, _, _)| *t == TAG_A || *t == TAG_B));
        assert_eq!(tr.n_active(), 1);
        assert!(tr.rate_of(bg).is_some());
    }

    #[test]
    fn cancel_job_drops_that_jobs_transfers() {
        let mut tr = Transfers::new(&topo3());
        tr.start(0.0, NodeId(1), NodeId(0), GB, TAG_A); // job 0
        let other = TransferTag::Shuffle { job: 1, reduce: 0 };
        tr.start(0.0, NodeId(2), NodeId(0), GB, other);
        let gone = tr.cancel_job(0.1, 0);
        assert_eq!(gone, vec![TAG_A]);
        assert_eq!(tr.n_active(), 1);
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

    #[test]
    fn zero_byte_transfer_completes_inline() {
        let mut tr = Transfers::new(&topo3());
        let c = tr.start(0.0, NodeId(0), NodeId(1), 0.0, TAG_A);
        assert!(c.is_some());
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

        fn start(&mut self, now: f64, tag: TransferTag, src: NodeId, dst: NodeId, bytes: f64, route: &[LinkId]) {
            self.advance(now);
            let flow = self.fx.add_flow(src, dst, route);
            self.active.push(Active { flow, tag, src, dst, remaining: bytes, total: bytes, started: now });
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
        let flows: Vec<FlowId> = tr.fx.clone().rates().map(|(id, ..)| id).collect();
        let active: Vec<FlowId> = tr.active.iter().map(|a| a.flow).collect();
        assert_eq!(active, flows);
    }

    fn job_of(tag: TransferTag) -> Option<usize> {
        match tag {
            TransferTag::MapFetch { job, .. } | TransferTag::Shuffle { job, .. } => Some(job),
            TransferTag::Background { .. } => None,
        }
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
                        None => naive.start(now, tag, src, dst, bytes, tr.routes.route(src, dst)),
                    }
                }
                45..=49 => {
                    let tag = if rng.gen_bool(0.5) { background } else { shuffle };
                    tr.cancel(now, tag);
                    cancelled += naive.remove(now, true, |a| a.tag == tag).len();
                }
                50..=52 => {
                    let got = tr.cancel_involving(now, node);
                    let want = naive.remove(now, false, |a| {
                        (a.src == node || a.dst == node) && job_of(a.tag).is_some()
                    });
                    assert_eq!(got, want.iter().map(|a| (a.tag, a.src, a.dst)).collect::<Vec<_>>());
                    cancelled += want.len();
                }
                53..=54 => {
                    let job = rng.gen_range(0..3);
                    let got = tr.cancel_job(now, job);
                    let want = naive.remove(now, false, |a| job_of(a.tag) == Some(job));
                    assert_eq!(got, want.iter().map(|a| a.tag).collect::<Vec<_>>());
                    cancelled += want.len();
                }
                55..=59 => {
                    let scale = [0.25, 0.5, 1.0][rng.gen_range(0..3)];
                    tr.scale_node_links(now, node, scale);
                    naive.advance(now);
                    for &l in &tr.node_links[node.idx()] {
                        naive.fx.set_capacity(l, tr.base_caps[l.idx()] * scale);
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
                            let avg_rate = a.total / (now - a.started).max(1e-9);
                            assert_eq!(
                                (c.tag, c.src, c.dst, c.bytes.to_bits(), c.avg_rate.to_bits()),
                                (a.tag, a.src, a.dst, a.total.to_bits(), avg_rate.to_bits()),
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
}
