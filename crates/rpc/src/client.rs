//! The RPC client: one persistent connection, versioned handshake,
//! deadline-bounded calls, bounded reconnect with seeded backoff + jitter.

use crate::frame::{read_frame, write_frame, FrameError};
use crate::msg::{Msg, MAGIC, PROTOCOL_VERSION};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Why a call (or connect) ultimately failed.
#[derive(Debug)]
pub enum RpcError {
    /// Transport or framing failure after the retry budget was exhausted.
    Frame(FrameError),
    /// The peer rejected the handshake (version skew) — not retried, a
    /// mismatched peer stays mismatched.
    HandshakeRejected {
        /// Version the peer speaks.
        expected: u32,
        /// Version we declared.
        got: u32,
    },
    /// The peer answered the handshake with something other than
    /// `HelloAck`/`HelloReject`.
    BadHandshake,
}

impl std::fmt::Display for RpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RpcError::Frame(e) => write!(f, "{e}"),
            RpcError::HandshakeRejected { expected, got } => {
                write!(f, "handshake rejected: peer speaks v{expected}, we sent v{got}")
            }
            RpcError::BadHandshake => write!(f, "peer broke the handshake protocol"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<FrameError> for RpcError {
    fn from(e: FrameError) -> Self {
        RpcError::Frame(e)
    }
}

/// Bounded exponential backoff with deterministic (seeded) jitter.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Total attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per retry.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
    /// Jitter seed — same seed, same jitter sequence.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 42,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry `n` (0-based): `min(cap, base·2ⁿ)` plus up to
    /// 50 % deterministic jitter, so a herd of retrying workers de-syncs
    /// reproducibly.
    pub fn delay(&self, n: u32, jitter_state: &mut u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << n.min(16)).min(self.cap);
        let jitter_frac = (splitmix64(jitter_state) >> 11) as f64 / (1u64 << 53) as f64;
        exp + exp.mul_f64(0.5 * jitter_frac)
    }

    /// Full-jitter delay before retry `n` (0-based):
    /// `uniform(0, min(cap, base·2ⁿ))`, the AWS "full jitter" scheme. The
    /// draw is seeded and deterministic (same `jitter_state` sequence,
    /// same delays). Orphaned workers polling a dead tracker use this —
    /// full jitter spreads an entire fleet's re-attach storm across the
    /// whole backoff window instead of synchronizing it at the cap.
    pub fn full_jitter_delay(&self, n: u32, jitter_state: &mut u64) -> Duration {
        let exp = self.base.saturating_mul(1u32 << n.min(16)).min(self.cap);
        let jitter_frac = (splitmix64(jitter_state) >> 11) as f64 / (1u64 << 53) as f64;
        exp.mul_f64(jitter_frac)
    }
}

/// SplitMix64 step — tiny seeded PRNG so this crate stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A persistent connection to one RPC server, re-established transparently
/// (within the retry budget) when a call fails mid-flight.
pub struct RpcClient {
    addr: String,
    policy: RetryPolicy,
    timeout: Duration,
    conn: Option<TcpStream>,
    jitter_state: u64,
    retries: Arc<AtomicU64>,
    corrupt: Arc<AtomicU64>,
}

impl RpcClient {
    /// Connect to `addr` and perform the versioned handshake. `timeout`
    /// bounds every read and write on the connection (a hung peer fails
    /// the call instead of hanging the worker).
    pub fn connect(
        addr: impl Into<String>,
        policy: RetryPolicy,
        timeout: Duration,
    ) -> Result<Self, RpcError> {
        let mut c = Self {
            addr: addr.into(),
            jitter_state: policy.seed,
            policy,
            timeout,
            conn: None,
            retries: Arc::new(AtomicU64::new(0)),
            corrupt: Arc::new(AtomicU64::new(0)),
        };
        c.ensure_connected()?;
        Ok(c)
    }

    /// Cumulative reconnect/retry count (shared handle — clone it into a
    /// heartbeat loop to report retries without borrowing the client).
    pub fn retry_counter(&self) -> Arc<AtomicU64> {
        self.retries.clone()
    }

    /// Cumulative count of frames this client rejected for a checksum
    /// mismatch (the link damaged bytes in flight). Each one poisoned a
    /// connection; same shared-handle shape as [`retry_counter`](Self::retry_counter).
    pub fn corrupt_counter(&self) -> Arc<AtomicU64> {
        self.corrupt.clone()
    }

    /// The address this client dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn dial(&self) -> Result<TcpStream, RpcError> {
        let stream = TcpStream::connect(&self.addr).map_err(FrameError::Io)?;
        stream.set_nodelay(true).map_err(FrameError::Io)?;
        stream.set_read_timeout(Some(self.timeout)).map_err(FrameError::Io)?;
        stream.set_write_timeout(Some(self.timeout)).map_err(FrameError::Io)?;
        let mut stream = stream;
        write_frame(
            &mut stream,
            &Msg::Hello { magic: MAGIC, version: PROTOCOL_VERSION }.encode(),
        )?;
        let reply = Msg::decode(&read_frame(&mut stream)?).map_err(FrameError::Wire)?;
        match reply {
            Msg::HelloAck { .. } => Ok(stream),
            Msg::HelloReject { expected, got } => {
                Err(RpcError::HandshakeRejected { expected, got })
            }
            _ => Err(RpcError::BadHandshake),
        }
    }

    fn ensure_connected(&mut self) -> Result<(), RpcError> {
        if self.conn.is_some() {
            return Ok(());
        }
        let mut last: Option<RpcError> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let d = self.policy.delay(attempt - 1, &mut self.jitter_state);
                std::thread::sleep(d);
            }
            match self.dial() {
                Ok(s) => {
                    self.conn = Some(s);
                    return Ok(());
                }
                // Version skew is permanent: retrying cannot fix it.
                Err(e @ RpcError::HandshakeRejected { .. }) => return Err(e),
                Err(e) => last = Some(e),
            }
        }
        Err(last.unwrap_or(RpcError::BadHandshake))
    }

    /// One request/response exchange. A transport failure — or a frame
    /// whose checksum fails, meaning the *connection* is damaging bytes —
    /// drops the connection and retries the whole call (fresh dial +
    /// handshake) within the retry budget; other wire errors from the peer
    /// are not retried — a peer that frames garbage will frame garbage
    /// again.
    pub fn call(&mut self, msg: &Msg) -> Result<Msg, RpcError> {
        let payload = msg.encode();
        let mut last: Option<RpcError> = None;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                let d = self.policy.delay(attempt - 1, &mut self.jitter_state);
                std::thread::sleep(d);
            }
            if let Err(e) = self.ensure_connected() {
                match e {
                    RpcError::HandshakeRejected { .. } => return Err(e),
                    e => {
                        last = Some(e);
                        continue;
                    }
                }
            }
            let stream = self.conn.as_mut().expect("just connected");
            let result = write_frame(stream, &payload)
                .and_then(|()| read_frame(stream))
                .map_err(RpcError::from)
                .and_then(|bytes| {
                    Msg::decode(&bytes).map_err(|e| RpcError::Frame(FrameError::Wire(e)))
                });
            match result {
                Ok(reply) => return Ok(reply),
                Err(
                    e @ RpcError::Frame(FrameError::Wire(
                        crate::wire::WireError::ChecksumMismatch { .. },
                    )),
                ) => {
                    // The link damaged a frame in flight: the connection is
                    // poisoned — count it, reconnect, retry.
                    self.corrupt.fetch_add(1, Ordering::Relaxed);
                    self.conn = None;
                    last = Some(e);
                }
                Err(e @ RpcError::Frame(FrameError::Io(_))) => {
                    // Transport broke mid-call: reconnect and retry.
                    self.conn = None;
                    last = Some(e);
                }
                Err(e) => return Err(e),
            }
        }
        Err(last.unwrap_or(RpcError::BadHandshake))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_to_cap_and_jitter_is_deterministic() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(100),
            seed: 7,
        };
        let mut s1 = p.seed;
        let mut s2 = p.seed;
        let mut prev = Duration::ZERO;
        for n in 0..6 {
            let d1 = p.delay(n, &mut s1);
            let d2 = p.delay(n, &mut s2);
            assert_eq!(d1, d2, "same seed, same jitter");
            let exp = (p.base * (1 << n)).min(p.cap);
            assert!(d1 >= exp && d1 <= exp + exp.mul_f64(0.5), "attempt {n}: {d1:?}");
            if exp < p.cap {
                assert!(d1 > prev, "backoff grows until capped");
            }
            prev = d1;
        }
    }

    #[test]
    fn backoff_cap_is_respected_at_any_attempt() {
        let p = RetryPolicy {
            max_attempts: 64,
            base: Duration::from_millis(3),
            cap: Duration::from_millis(50),
            seed: 11,
        };
        let mut s = p.seed;
        let ceiling = p.cap + p.cap.mul_f64(0.5); // cap + full jitter bound
        for n in 0..64 {
            let d = p.delay(n, &mut s);
            assert!(d <= ceiling, "attempt {n}: {d:?} exceeds {ceiling:?}");
            assert!(d >= p.base, "attempt {n}: {d:?} below base");
        }
        // Far past the doubling range the exponential part sits exactly on
        // the cap, so only jitter varies.
        let mut s = p.seed;
        for n in 20..40 {
            let d = p.delay(n, &mut s);
            assert!(d >= p.cap, "attempt {n}: exponential part must be capped, got {d:?}");
        }
    }

    #[test]
    fn jitter_stays_within_the_documented_half_bound() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(8),
            cap: Duration::from_millis(512),
            seed: 99,
        };
        let mut s = p.seed;
        for n in 0..200u32 {
            let exp = p.base.saturating_mul(1 << n.min(6)).min(p.cap);
            let d = p.delay(n.min(6), &mut s);
            let jitter = d - exp;
            assert!(
                jitter <= exp.mul_f64(0.5),
                "attempt {n}: jitter {jitter:?} above 50% of {exp:?}"
            );
        }
    }

    /// Pins the exact full-jitter draw sequence for a fixed seed. The
    /// orphaned-worker re-attach loop schedules sleeps off this sequence;
    /// a silent PRNG or rounding change would shift every failover trace,
    /// so the values are asserted verbatim (in microseconds).
    #[test]
    fn full_jitter_draw_sequence_is_pinned() {
        let p = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(400),
            seed: 0xC0FFEE,
        };
        let mut s = p.seed;
        let draws: Vec<u128> = (0..10).map(|n| p.full_jitter_delay(n, &mut s).as_micros()).collect();
        assert_eq!(
            draws,
            vec![7910, 18507, 21210, 28263, 122045, 285614, 13737, 349440, 41091, 254812]
        );
        // Full jitter is bounded by the exponential envelope and hits the
        // cap region without ever exceeding it.
        let mut s = p.seed;
        for n in 0..64u32 {
            let d = p.full_jitter_delay(n, &mut s);
            let exp = p.base.saturating_mul(1 << n.min(16)).min(p.cap);
            assert!(d <= exp, "attempt {n}: {d:?} above envelope {exp:?}");
            assert!(d <= p.cap, "attempt {n}: {d:?} above cap");
        }
        // Determinism: same seed replays the same sequence.
        let (mut s1, mut s2) = (p.seed, p.seed);
        for n in 0..32 {
            assert_eq!(p.full_jitter_delay(n, &mut s1), p.full_jitter_delay(n, &mut s2));
        }
    }

    #[test]
    fn different_seeds_desync_the_herd() {
        let mk = |seed| RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(400),
            seed,
        };
        let (a, b) = (mk(1), mk(2));
        let (mut sa, mut sb) = (a.seed, b.seed);
        let distinct = (0..16).filter(|&n| a.delay(n % 5, &mut sa) != b.delay(n % 5, &mut sb));
        assert!(
            distinct.count() >= 12,
            "two clients with different seeds must not retry in lockstep"
        );
    }

    /// A peer that hands back one damaged reply frame poisons only that
    /// connection: the call succeeds on the reconnect, and the damage is
    /// tallied on the corrupt counter (the heartbeat reports it upstream).
    #[test]
    fn corrupt_reply_is_counted_and_survived_by_reconnect() {
        use crate::frame::{read_frame, write_frame};
        use crate::wire::fnv1a32;
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            for (i, conn) in listener.incoming().take(2).enumerate() {
                let mut s = conn.expect("accept");
                let _hello = read_frame(&mut s).expect("hello");
                write_frame(&mut s, &Msg::HelloAck { version: PROTOCOL_VERSION }.encode())
                    .expect("ack");
                let _req = read_frame(&mut s).expect("request");
                let payload = Msg::Ack.encode();
                if i == 0 {
                    // First connection: frame the reply with a wrong
                    // checksum, as a damaging link would.
                    let mut bytes = (payload.len() as u32).to_be_bytes().to_vec();
                    bytes.extend((fnv1a32(&payload) ^ 1).to_be_bytes());
                    bytes.extend(&payload);
                    std::io::Write::write_all(&mut s, &bytes).expect("bad frame");
                } else {
                    write_frame(&mut s, &payload).expect("good frame");
                }
            }
        });
        let policy = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 5,
        };
        let mut client =
            RpcClient::connect(&addr, policy, Duration::from_millis(500)).expect("connect");
        let corrupt = client.corrupt_counter();
        assert_eq!(client.call(&Msg::Ack).expect("retried call"), Msg::Ack);
        assert_eq!(corrupt.load(Ordering::Relaxed), 1, "one damaged frame, one tally");
    }

    #[test]
    fn connect_to_nothing_exhausts_retries() {
        // Port 1 is essentially never listening; tiny budget keeps it fast.
        let policy = RetryPolicy {
            max_attempts: 2,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(2),
            seed: 1,
        };
        let err = RpcClient::connect("127.0.0.1:1", policy, Duration::from_millis(100))
            .err()
            .expect("nothing listens on port 1");
        assert!(matches!(err, RpcError::Frame(FrameError::Io(_))), "{err}");
    }
}
