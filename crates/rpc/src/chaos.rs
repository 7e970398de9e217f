//! Deterministic wire-level chaos: a seeded fault-injecting TCP proxy.
//!
//! A [`ChaosNet`] sits between RPC peers as a per-link proxy
//! ([`ChaosNet::proxy`]) and damages traffic according to a [`ChaosPlan`]
//! — the wire-level analogue of `pnats_core::faults::FaultPlan`. Faults
//! come in two granularities:
//!
//! * **connection-level**: refuse, black hole (half-open socket: bytes go
//!   in, nothing comes out), one-way partitions in either direction, and
//!   reset-after-N-frames (an abrupt mid-call teardown). The first matching
//!   rule decides a connection's fate when it is accepted.
//! * **frame-level**: per-frame delay, throttled writes, and seeded
//!   probabilistic corruption / truncation / drop. Every matching rule
//!   applies, each with its own independent draw.
//!
//! Every probabilistic decision is a pure function of
//! `(seed, link, connection index, direction, frame index, rule index)` —
//! the same hash-the-coordinates scheme `FaultPlan::map_attempt_fails`
//! uses — so a plan replays identically from its seed regardless of
//! thread interleaving. Live traffic shapes (how many frames actually
//! flow) are timing-dependent, so the byte-stable artifact for CI diffing
//! is [`ChaosPlan::simulate`]: a deterministic expansion of the plan over
//! a fixed traffic envelope.
//!
//! The proxy understands the frame format just enough to damage it
//! honestly: corruption flips payload bytes under the original header, so
//! the receiver's checksum (see [`crate::frame`]) catches it; truncation
//! forwards a partial payload then closes, so the receiver sees a short
//! read, not a forged short frame.

use crate::frame::write_parts;
use crate::server::AcceptLoop;
use crate::wire::MAX_FRAME;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One way a link can misbehave.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosFault {
    /// Accept then immediately close — the service is not serving.
    Refuse,
    /// Accept and swallow everything, answer nothing: a half-open socket.
    /// The peer's read deadline is the only way out.
    BlackHole,
    /// One-way partition: client→upstream bytes vanish, replies flow.
    PartitionToUpstream,
    /// One-way partition: requests arrive and are processed, replies
    /// vanish — the classic "it heard me but I can't hear it".
    PartitionFromUpstream,
    /// Forward this many client→upstream frames, then tear both streams
    /// down abruptly (an approximated RST mid-call). No reply to the last
    /// of them gets through.
    ResetAfterFrames(u64),
    /// Hold every frame this long before forwarding.
    Delay(Duration),
    /// Dribble each frame out in `chunk_bytes` pieces with `pause`
    /// between them — a slow link without clock-dependent decisions.
    Throttle {
        /// Bytes written per chunk.
        chunk_bytes: usize,
        /// Pause between chunks.
        pause: Duration,
    },
    /// Flip payload bytes of a frame with probability `p` (header kept,
    /// so the receiver's checksum catches it).
    CorruptFrames {
        /// Per-frame corruption probability.
        p: f64,
    },
    /// With probability `p`, forward only half the payload then close.
    TruncateFrames {
        /// Per-frame truncation probability.
        p: f64,
    },
    /// With probability `p`, swallow a frame whole (stream stays up).
    DropFrames {
        /// Per-frame drop probability.
        p: f64,
    },
}

impl ChaosFault {
    /// Connection-granularity faults decide a connection's fate once, at
    /// accept time; the rest apply per frame.
    fn is_conn_level(&self) -> bool {
        matches!(
            self,
            ChaosFault::Refuse
                | ChaosFault::BlackHole
                | ChaosFault::PartitionToUpstream
                | ChaosFault::PartitionFromUpstream
                | ChaosFault::ResetAfterFrames(_)
        )
    }
}

/// One scheduled fault: which link, which connections, what happens.
#[derive(Clone, Debug)]
pub struct LinkRule {
    /// Link name the rule applies to; `None` matches every link.
    pub link: Option<String>,
    /// First per-link connection index (0-based) the rule covers.
    pub conns_from: u64,
    /// One past the last covered connection index; `None` = unbounded.
    pub conns_until: Option<u64>,
    /// The fault to inject.
    pub fault: ChaosFault,
}

impl LinkRule {
    /// A rule covering every connection of every link.
    pub fn always(fault: ChaosFault) -> Self {
        Self { link: None, conns_from: 0, conns_until: None, fault }
    }

    /// A rule covering every connection of one named link.
    pub fn on(link: impl Into<String>, fault: ChaosFault) -> Self {
        Self { link: Some(link.into()), conns_from: 0, conns_until: None, fault }
    }

    /// Restrict the rule to connections `[from, until)` of its link.
    pub fn conns(mut self, from: u64, until: Option<u64>) -> Self {
        self.conns_from = from;
        self.conns_until = until;
        self
    }

    fn matches(&self, link: &str, conn: u64) -> bool {
        self.link.as_deref().is_none_or(|l| l == link)
            && conn >= self.conns_from
            && self.conns_until.is_none_or(|u| conn < u)
    }
}

/// A seeded schedule of wire faults — `FaultPlan`'s wire-level sibling.
#[derive(Clone, Debug, Default)]
pub struct ChaosPlan {
    /// Seed for every probabilistic draw.
    pub seed: u64,
    /// The fault schedule. Connection-level: first match wins.
    /// Frame-level: all matches apply.
    pub rules: Vec<LinkRule>,
}

/// Pure splitmix64 finalizer step (not the streaming variant in
/// `client.rs` — chaos draws hash fixed coordinates, they do not walk a
/// sequence).
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl ChaosPlan {
    /// The empty plan: every proxy relays transparently.
    pub fn none() -> Self {
        Self::default()
    }

    /// An empty plan carrying `seed`, ready for [`with_rule`](Self::with_rule).
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Append one rule (builder-style).
    pub fn with_rule(mut self, rule: LinkRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// True when the plan injects nothing.
    pub fn is_none(&self) -> bool {
        self.rules.is_empty()
    }

    /// The connection-level fault governing `(link, conn)`, if any.
    /// First matching rule wins.
    fn conn_fault(&self, link: &str, conn: u64) -> Option<&ChaosFault> {
        self.rules
            .iter()
            .find(|r| r.fault.is_conn_level() && r.matches(link, conn))
            .map(|r| &r.fault)
    }

    /// The frame-level rules applying to `(link, conn)`, with their rule
    /// indices (the index salts each rule's independent draw).
    fn frame_rules(&self, link: &str, conn: u64) -> Vec<(usize, &ChaosFault)> {
        self.rules
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.fault.is_conn_level() && r.matches(link, conn))
            .map(|(i, r)| (i, &r.fault))
            .collect()
    }

    /// Deterministic `[0, 1)` draw for one frame under one rule — a pure
    /// function of the coordinates, independent of evaluation order.
    pub fn draw(&self, link: &str, conn: u64, dir: u8, frame: u64, rule: usize) -> f64 {
        let mut h = mix(self.seed ^ 0x43_48_41_4F_53); // "CHAOS"
        for &b in link.as_bytes() {
            h = mix(h ^ u64::from(b));
        }
        h = mix(h ^ conn);
        h = mix(h ^ (u64::from(dir) << 32) ^ (rule as u64));
        h = mix(h ^ frame);
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Deterministic expansion of the plan over a fixed traffic envelope:
    /// for each link in `links`, `conns_per_link` connections of
    /// `frames_per_conn` frames per direction, emit the chaos events the
    /// plan would fire, as JSONL. Same plan + same envelope ⇒ identical
    /// bytes — this is the replayable artifact `chaos_soak` writes and CI
    /// diffs (live traffic shapes are timing-dependent; the plan is not).
    pub fn simulate(&self, links: &[&str], conns_per_link: u64, frames_per_conn: u64) -> String {
        let mut out = String::new();
        for link in links {
            for conn in 0..conns_per_link {
                if let Some(fault) = self.conn_fault(link, conn) {
                    let action = match fault {
                        ChaosFault::Refuse => ChaosAction::Refused,
                        ChaosFault::BlackHole => ChaosAction::BlackHoled,
                        ChaosFault::PartitionToUpstream => ChaosAction::PartitionedToUpstream,
                        ChaosFault::PartitionFromUpstream => ChaosAction::PartitionedFromUpstream,
                        ChaosFault::ResetAfterFrames(_) => ChaosAction::Reset,
                        _ => unreachable!("conn_fault returns conn-level faults only"),
                    };
                    out.push_str(
                        &ChaosEvent { link: link.to_string(), conn, dir: 0, frame: 0, action }
                            .to_json(),
                    );
                    out.push('\n');
                    continue; // the connection never carries frames
                }
                for dir in 0..2u8 {
                    for frame in 0..frames_per_conn {
                        for (rule, fault) in self.frame_rules(link, conn) {
                            let action = match fault {
                                ChaosFault::Delay(_) => Some(ChaosAction::Delayed),
                                ChaosFault::Throttle { .. } => Some(ChaosAction::Throttled),
                                ChaosFault::CorruptFrames { p } => {
                                    (self.draw(link, conn, dir, frame, rule) < *p)
                                        .then_some(ChaosAction::Corrupted)
                                }
                                ChaosFault::TruncateFrames { p } => {
                                    (self.draw(link, conn, dir, frame, rule) < *p)
                                        .then_some(ChaosAction::Truncated)
                                }
                                ChaosFault::DropFrames { p } => {
                                    (self.draw(link, conn, dir, frame, rule) < *p)
                                        .then_some(ChaosAction::Dropped)
                                }
                                _ => None,
                            };
                            if let Some(action) = action {
                                out.push_str(
                                    &ChaosEvent {
                                        link: link.to_string(),
                                        conn,
                                        dir,
                                        frame,
                                        action,
                                    }
                                    .to_json(),
                                );
                                out.push('\n');
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// What the chaos layer did to one connection or frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Connection accepted then immediately closed.
    Refused,
    /// Connection black-holed (swallowed, never answered).
    BlackHoled,
    /// Client→upstream direction severed.
    PartitionedToUpstream,
    /// Upstream→client direction severed.
    PartitionedFromUpstream,
    /// Both streams torn down mid-call.
    Reset,
    /// Frame held before forwarding.
    Delayed,
    /// Frame dribbled out in chunks.
    Throttled,
    /// Frame payload bytes flipped.
    Corrupted,
    /// Frame cut short then the stream closed.
    Truncated,
    /// Frame swallowed whole.
    Dropped,
}

impl ChaosAction {
    /// Stable snake_case label (JSONL field value).
    pub fn label(&self) -> &'static str {
        match self {
            ChaosAction::Refused => "refused",
            ChaosAction::BlackHoled => "black_holed",
            ChaosAction::PartitionedToUpstream => "partitioned_to_upstream",
            ChaosAction::PartitionedFromUpstream => "partitioned_from_upstream",
            ChaosAction::Reset => "reset",
            ChaosAction::Delayed => "delayed",
            ChaosAction::Throttled => "throttled",
            ChaosAction::Corrupted => "corrupted",
            ChaosAction::Truncated => "truncated",
            ChaosAction::Dropped => "dropped",
        }
    }

    /// Did this action make the link unusable (vs merely slow)? Maps to
    /// the `link_partitioned` fault record downstream; `Corrupted` maps to
    /// `frame_corrupted`; delay/throttle are annotations only.
    pub fn severs_link(&self) -> bool {
        matches!(
            self,
            ChaosAction::Refused
                | ChaosAction::BlackHoled
                | ChaosAction::PartitionedToUpstream
                | ChaosAction::PartitionedFromUpstream
                | ChaosAction::Reset
                | ChaosAction::Truncated
                | ChaosAction::Dropped
        )
    }
}

/// One injected fault, with enough coordinates to replay it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Link name.
    pub link: String,
    /// Per-link connection index.
    pub conn: u64,
    /// Direction: 0 = client→upstream, 1 = upstream→client.
    pub dir: u8,
    /// Frame index within the connection's direction (0 for
    /// connection-level events).
    pub frame: u64,
    /// What happened.
    pub action: ChaosAction,
}

impl ChaosEvent {
    /// Deterministic one-line JSON (fixed key order, no whitespace).
    fn to_json(&self) -> String {
        format!(
            "{{\"link\":\"{}\",\"conn\":{},\"dir\":{},\"frame\":{},\"action\":\"{}\"}}",
            self.link,
            self.conn,
            self.dir,
            self.frame,
            self.action.label()
        )
    }
}

/// The chaos fabric: one plan, shared connection counters and an event
/// log, handing out per-link proxies.
pub struct ChaosNet {
    plan: ChaosPlan,
    conns: Mutex<HashMap<String, u64>>,
    events: Mutex<Vec<ChaosEvent>>,
}

impl ChaosNet {
    /// A fabric executing `plan`.
    pub fn new(plan: ChaosPlan) -> Arc<Self> {
        Arc::new(Self { plan, conns: Mutex::new(HashMap::new()), events: Mutex::new(Vec::new()) })
    }

    /// The plan this fabric executes.
    pub fn plan(&self) -> &ChaosPlan {
        &self.plan
    }

    fn next_conn(&self, link: &str) -> u64 {
        let mut conns = self.conns.lock().unwrap();
        let c = conns.entry(link.to_string()).or_insert(0);
        let idx = *c;
        *c += 1;
        idx
    }

    fn log(&self, ev: ChaosEvent) {
        self.events.lock().unwrap().push(ev);
    }

    /// Snapshot of every event injected so far. Ordering between
    /// connections is timing-dependent; use [`ChaosPlan::simulate`] for a
    /// byte-stable artifact.
    pub fn events(&self) -> Vec<ChaosEvent> {
        self.events.lock().unwrap().clone()
    }

    /// Start a proxy for `link`: connections to the returned proxy's
    /// [`addr`](ChaosProxy::addr) are relayed to `upstream` through the
    /// plan's faults. An empty plan relays transparently.
    pub fn proxy(self: &Arc<Self>, link: &str, upstream: &str) -> io::Result<ChaosProxy> {
        let net = self.clone();
        let link = link.to_string();
        let upstream = upstream.to_string();
        AcceptLoop::spawn("127.0.0.1:0", move |stream, stop| {
            // Numbered on the accept thread: a link's connection indices
            // follow accept order, whatever the relay threads do.
            let conn = net.next_conn(&link);
            let (net, link, upstream) = (net.clone(), link.clone(), upstream.clone());
            move || handle_conn(&stream, &upstream, &net, &link, conn, &stop)
        })
        .map(ChaosProxy)
    }
}

/// One running per-link proxy. Dropping it (or [`stop`](Self::stop)) tears
/// the accept loop and every relay down.
pub struct ChaosProxy(AcceptLoop);

impl ChaosProxy {
    /// The proxy's bound address — hand this out instead of the upstream's.
    pub fn addr(&self) -> &str {
        self.0.addr()
    }

    /// Stop accepting and join every relay thread.
    pub fn stop(&mut self) {
        self.0.stop();
    }
}

/// Swallow everything `from` sends until EOF or stop — the receiving half
/// of a black hole or one-way partition.
fn discard(mut from: &TcpStream, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let mut buf = [0u8; 4096];
    loop {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        match from.read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

/// Fill `buf` from `from`, polling `stop` across read deadlines. `false`
/// on EOF, hard error, or stop.
fn read_full(mut from: &TcpStream, buf: &mut [u8], stop: &AtomicBool) -> bool {
    let mut filled = 0;
    while filled < buf.len() {
        match from.read(&mut buf[filled..]) {
            Ok(0) => return false,
            Ok(n) => filled += n,
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if stop.load(Ordering::SeqCst) {
                    return false;
                }
            }
            Err(_) => return false,
        }
    }
    true
}

struct RelayCtx {
    net: Arc<ChaosNet>,
    link: String,
    conn: u64,
    dir: u8,
    /// `Some((budget, tripped))` under `ResetAfterFrames`. The forward
    /// relay sets `tripped` *before* it writes its last frame upstream and
    /// the reverse relay forwards nothing once it is set, so the reply to
    /// that frame is never relayed — by causality, not by a race with the
    /// reset.
    reset: Option<(u64, Arc<AtomicBool>)>,
}

/// Relay frames `from` → `to`, injecting the plan's frame faults. A frame
/// leaves in one write, as its sender wrote it; only `Throttle` splits it.
/// Closing either stream (ours or the peer relay's) ends both directions.
fn relay_frames(from: &TcpStream, mut to: &TcpStream, ctx: RelayCtx, stop: &AtomicBool) {
    let _ = from.set_read_timeout(Some(Duration::from_millis(50)));
    let plan = ctx.net.plan.clone();
    let rules = plan.frame_rules(&ctx.link, ctx.conn);
    let mut frame: u64 = 0;
    let mut forwarded: u64 = 0;
    loop {
        let mut header = [0u8; 8];
        if !read_full(from, &mut header, stop) {
            break;
        }
        let len = u32::from_be_bytes(header[..4].try_into().unwrap()) as usize;
        if len > MAX_FRAME {
            break; // not our protocol; refuse to relay it
        }
        let mut payload = vec![0u8; len];
        if !read_full(from, &mut payload, stop) {
            break;
        }
        if ctx.dir == 1 && ctx.reset.as_ref().is_some_and(|(_, t)| t.load(Ordering::SeqCst)) {
            break; // the reset is due: this reply must not get through
        }
        let idx = frame;
        frame += 1;

        let mut drop_frame = false;
        let mut truncate = false;
        let mut corrupt = false;
        let mut throttle: Option<(usize, Duration)> = None;
        for (rule, fault) in &rules {
            match fault {
                ChaosFault::Delay(d) => {
                    ctx.log(idx, ChaosAction::Delayed);
                    std::thread::sleep(*d);
                }
                ChaosFault::Throttle { chunk_bytes, pause } => {
                    ctx.log(idx, ChaosAction::Throttled);
                    throttle = Some(((*chunk_bytes).max(1), *pause));
                }
                ChaosFault::CorruptFrames { p }
                    if plan.draw(&ctx.link, ctx.conn, ctx.dir, idx, *rule) < *p =>
                {
                    corrupt = true;
                }
                ChaosFault::TruncateFrames { p }
                    if plan.draw(&ctx.link, ctx.conn, ctx.dir, idx, *rule) < *p =>
                {
                    truncate = true;
                }
                ChaosFault::DropFrames { p }
                    if plan.draw(&ctx.link, ctx.conn, ctx.dir, idx, *rule) < *p =>
                {
                    drop_frame = true;
                }
                _ => {}
            }
        }

        if drop_frame {
            ctx.log(idx, ChaosAction::Dropped);
            continue; // stream stays framed: whole frames vanish cleanly
        }
        if truncate {
            ctx.log(idx, ChaosAction::Truncated);
            let cut = len / 2;
            let _ = write_parts(&mut to, &header, &payload[..cut]);
            break; // a spliced stream cannot be trusted; cut it
        }
        if corrupt {
            ctx.log(idx, ChaosAction::Corrupted);
            if payload.is_empty() {
                header[4] ^= 0xFF; // no payload to damage: damage the checksum
            } else {
                let pos = (plan.draw(&ctx.link, ctx.conn, ctx.dir, idx, usize::MAX) * len as f64)
                    as usize;
                payload[pos.min(len - 1)] ^= 0xFF;
            }
        }
        let last = match &ctx.reset {
            Some((budget, tripped)) if ctx.dir == 0 && forwarded + 1 >= *budget => {
                tripped.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        };
        let ok = match throttle {
            None => write_parts(&mut to, &header, &payload).is_ok(),
            Some((chunk, pause)) => {
                let mut all = header.to_vec();
                all.extend_from_slice(&payload);
                let mut ok = true;
                for piece in all.chunks(chunk) {
                    if to.write_all(piece).is_err() {
                        ok = false;
                        break;
                    }
                    let _ = to.flush();
                    std::thread::sleep(pause);
                }
                ok
            }
        };
        if !ok {
            break;
        }
        forwarded += 1;
        if last {
            ctx.log(idx, ChaosAction::Reset);
            break; // the shutdown below is the RST
        }
    }
    // Either direction ending poisons the pair: kill both streams so the
    // sibling relay unblocks instead of half-opening.
    let _ = from.shutdown(Shutdown::Both);
    let _ = to.shutdown(Shutdown::Both);
}

impl RelayCtx {
    fn log(&self, frame: u64, action: ChaosAction) {
        self.net.log(ChaosEvent {
            link: self.link.clone(),
            conn: self.conn,
            dir: self.dir,
            frame,
            action,
        });
    }
}

fn handle_conn(
    client: &TcpStream,
    upstream: &str,
    net: &Arc<ChaosNet>,
    link: &str,
    conn: u64,
    stop: &AtomicBool,
) {
    let fault = net.plan.conn_fault(link, conn).cloned();
    let log_conn = |action: ChaosAction| {
        net.log(ChaosEvent { link: link.to_string(), conn, dir: 0, frame: 0, action });
    };
    match fault {
        Some(ChaosFault::Refuse) => {
            log_conn(ChaosAction::Refused);
            let _ = client.shutdown(Shutdown::Both);
            return;
        }
        Some(ChaosFault::BlackHole) => {
            log_conn(ChaosAction::BlackHoled);
            discard(client, stop); // never dialed upstream at all
            return;
        }
        _ => {}
    }
    let Ok(up) = TcpStream::connect(upstream) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let up = &up;
    let _ = client.set_nodelay(true);
    let _ = up.set_nodelay(true);
    let ctx = |dir: u8, reset: Option<(u64, Arc<AtomicBool>)>| RelayCtx {
        net: net.clone(),
        link: link.to_string(),
        conn,
        dir,
        reset,
    };
    match fault {
        Some(ChaosFault::PartitionToUpstream) => {
            log_conn(ChaosAction::PartitionedToUpstream);
            // Client→upstream vanishes; upstream→client still relays.
            std::thread::scope(|s| {
                s.spawn(|| discard(client, stop));
                relay_frames(up, client, ctx(1, None), stop);
            });
        }
        Some(ChaosFault::PartitionFromUpstream) => {
            log_conn(ChaosAction::PartitionedFromUpstream);
            std::thread::scope(|s| {
                s.spawn(|| discard(up, stop));
                relay_frames(client, up, ctx(0, None), stop);
            });
        }
        Some(ChaosFault::ResetAfterFrames(k)) => {
            let tripped = Arc::new(AtomicBool::new(false));
            let fwd = ctx(0, Some((k, tripped.clone())));
            let rev = ctx(1, Some((k, tripped)));
            std::thread::scope(|s| {
                s.spawn(|| relay_frames(up, client, rev, stop));
                relay_frames(client, up, fwd, stop);
            });
        }
        _ => {
            std::thread::scope(|s| {
                s.spawn(|| relay_frames(up, client, ctx(1, None), stop));
                relay_frames(client, up, ctx(0, None), stop);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{RetryPolicy, RpcClient, RpcError};
    use crate::frame::FrameError;
    use crate::msg::Msg;
    use crate::server::RpcServer;

    fn echo_server() -> RpcServer {
        RpcServer::bind("127.0.0.1:0", Arc::new(|msg| msg), Duration::from_millis(20))
            .expect("bind")
    }

    fn fast_policy(seed: u64) -> RetryPolicy {
        RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed,
        }
    }

    #[test]
    fn draws_are_deterministic_and_in_range() {
        let plan = ChaosPlan::new(7);
        let other = ChaosPlan::new(8);
        let mut distinct = false;
        for frame in 0..64 {
            let d = plan.draw("a", 0, 0, frame, 0);
            assert!((0.0..1.0).contains(&d));
            assert_eq!(d, plan.draw("a", 0, 0, frame, 0), "pure function of coordinates");
            if d != other.draw("a", 0, 0, frame, 0) {
                distinct = true;
            }
        }
        assert!(distinct, "different seeds draw differently");
    }

    #[test]
    fn rule_windows_select_connections() {
        let plan = ChaosPlan::new(1)
            .with_rule(LinkRule::on("data:w0", ChaosFault::BlackHole).conns(2, Some(4)));
        assert!(plan.conn_fault("data:w0", 1).is_none());
        assert!(plan.conn_fault("data:w0", 2).is_some());
        assert!(plan.conn_fault("data:w0", 3).is_some());
        assert!(plan.conn_fault("data:w0", 4).is_none());
        assert!(plan.conn_fault("ctl:w0", 2).is_none(), "other links untouched");
    }

    #[test]
    fn simulate_is_byte_identical_and_seed_sensitive() {
        let mk = |seed| {
            ChaosPlan::new(seed)
                .with_rule(LinkRule::always(ChaosFault::CorruptFrames { p: 0.3 }))
                .with_rule(LinkRule::on("data:w1", ChaosFault::DropFrames { p: 0.2 }))
        };
        let a = mk(42).simulate(&["data:w0", "data:w1"], 3, 16);
        let b = mk(42).simulate(&["data:w0", "data:w1"], 3, 16);
        assert_eq!(a, b, "same seed, same artifact");
        assert!(!a.is_empty());
        assert_ne!(a, mk(43).simulate(&["data:w0", "data:w1"], 3, 16));
        for line in a.lines() {
            assert!(line.starts_with("{\"link\":"), "jsonl shape: {line}");
        }
    }

    #[test]
    fn transparent_proxy_relays_calls() {
        let server = echo_server();
        let net = ChaosNet::new(ChaosPlan::none());
        let proxy = net.proxy("ctl", server.addr()).expect("proxy");
        let mut client =
            RpcClient::connect(proxy.addr(), RetryPolicy::default(), Duration::from_secs(2))
                .expect("connect through proxy");
        for map in 0..4 {
            assert_eq!(client.call(&Msg::WhereIs { map }).expect("call"), Msg::WhereIs { map });
        }
        assert!(net.events().is_empty(), "empty plan injects nothing");
    }

    #[test]
    fn corruption_poisons_connections_not_processes() {
        let server = echo_server();
        let net = ChaosNet::new(
            ChaosPlan::new(3).with_rule(LinkRule::always(ChaosFault::CorruptFrames { p: 1.0 })),
        );
        let proxy = net.proxy("ctl", server.addr()).expect("proxy");
        // Every frame is corrupted, so every call (and handshake reply)
        // fails its checksum; the client exhausts its budget with a typed
        // error instead of decoding garbage.
        let res = RpcClient::connect(proxy.addr(), fast_policy(5), Duration::from_millis(200))
            .and_then(|mut c| c.call(&Msg::Ack));
        assert!(res.is_err(), "all-corrupted link cannot carry a call");
        assert!(net.events().iter().any(|e| e.action == ChaosAction::Corrupted));
        // The server survived the garbage: a clean direct connection works.
        let mut direct =
            RpcClient::connect(server.addr(), RetryPolicy::default(), Duration::from_secs(2))
                .expect("server still alive");
        assert_eq!(direct.call(&Msg::Ack).expect("clean call"), Msg::Ack);
    }

    #[test]
    fn black_hole_times_out_instead_of_hanging() {
        let server = echo_server();
        let net =
            ChaosNet::new(ChaosPlan::new(9).with_rule(LinkRule::always(ChaosFault::BlackHole)));
        let proxy = net.proxy("data", server.addr()).expect("proxy");
        let err = RpcClient::connect(proxy.addr(), fast_policy(1), Duration::from_millis(100))
            .err()
            .expect("handshake swallowed by the black hole");
        assert!(matches!(err, RpcError::Frame(FrameError::Io(_))), "{err}");
        assert!(net.events().iter().any(|e| e.action == ChaosAction::BlackHoled));
    }

    #[test]
    fn one_way_partition_from_upstream_starves_replies() {
        let server = echo_server();
        let net = ChaosNet::new(
            ChaosPlan::new(2).with_rule(LinkRule::always(ChaosFault::PartitionFromUpstream)),
        );
        let proxy = net.proxy("data", server.addr()).expect("proxy");
        // Requests reach the server; replies vanish. The handshake's
        // HelloAck is a reply, so connect itself starves.
        let err = RpcClient::connect(proxy.addr(), fast_policy(2), Duration::from_millis(100))
            .err()
            .expect("replies are severed");
        assert!(matches!(err, RpcError::Frame(FrameError::Io(_))), "{err}");
        assert!(
            net.events().iter().any(|e| e.action == ChaosAction::PartitionedFromUpstream)
        );
    }

    #[test]
    fn reset_mid_call_is_retried_on_a_fresh_connection() {
        let server = echo_server();
        // First connection dies after 2 forwarded frames (handshake + one
        // call); later connections are untouched, so the retry succeeds.
        let net = ChaosNet::new(ChaosPlan::new(4).with_rule(
            LinkRule::on("ctl", ChaosFault::ResetAfterFrames(2)).conns(0, Some(1)),
        ));
        let proxy = net.proxy("ctl", server.addr()).expect("proxy");
        let mut client =
            RpcClient::connect(proxy.addr(), RetryPolicy::default(), Duration::from_millis(300))
                .expect("handshake fits the frame budget");
        assert_eq!(client.call(&Msg::Ack).expect("retried past the reset"), Msg::Ack);
        assert!(client.retry_counter().load(Ordering::Relaxed) >= 1);
        assert!(net.events().iter().any(|e| e.action == ChaosAction::Reset));
    }

    #[test]
    fn dropped_frames_are_absorbed_by_retry() {
        let server = echo_server();
        // Drop the first request frame of connection 0 only (dir 0, the
        // handshake Hello): the client's reconnect lands on conn 1, clean.
        let net = ChaosNet::new(ChaosPlan::new(6).with_rule(
            LinkRule::on("ctl", ChaosFault::DropFrames { p: 1.0 }).conns(0, Some(1)),
        ));
        let proxy = net.proxy("ctl", server.addr()).expect("proxy");
        let mut client = RpcClient::connect(
            proxy.addr(),
            RetryPolicy { max_attempts: 3, ..fast_policy(8) },
            Duration::from_millis(100),
        )
        .expect("second connection is clean");
        assert_eq!(client.call(&Msg::Ack).expect("call"), Msg::Ack);
        assert!(net.events().iter().any(|e| e.action == ChaosAction::Dropped));
    }
}
