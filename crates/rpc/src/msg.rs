//! The cluster control- and data-plane message set.
//!
//! One tag byte selects the message, then fixed-order fields. The
//! definitions below *are* the format: each is wrapped in [`wire!`], which
//! generates the encoder, the decoder and every element-count bound from
//! the same field list (`Variant = tag { field: Type, … }`). Reordering a
//! field, changing a type or reusing a tag changes the bytes, so it is a
//! [`PROTOCOL_VERSION`] bump; `encoded_bytes_are_pinned` below catches one
//! made by accident.
//!
//! Decoding is total (see [`crate::wire`](mod@crate::wire)).
//! `tests/decode_total.rs` feeds the decoder arbitrary byte strings and
//! asserts it never panics, and that whatever it accepts re-encodes to the
//! same bytes.

use crate::wire;
use crate::wire::{Pairs, Reader, Wire, WireError, Writer};

/// Handshake magic: `"PNAT"` as a big-endian u32. A peer that opens with
/// anything else is not speaking this protocol at all.
pub const MAGIC: u32 = 0x504E_4154;

/// Protocol version. Bump on any wire-format change — including a change
/// to the partition function (see `pnats_core::partition`), since peers on
/// different partitionings would silently corrupt the shuffle.
///
/// v2: frames carry an FNV-1a payload checksum, heartbeats carry circuit
/// breaker deltas, and `SourceUnreachable` joined the message set.
///
/// v3: tracker crash-recovery — `Reattach`/`ReattachAck` joined the
/// message set and `HeartbeatReply` grew a `reattach` flag (a restarted
/// tracker asks a surviving worker to re-attach instead of wiping it).
pub const PROTOCOL_VERSION: u32 = 3;

wire! {
    /// Live progress of one running map attempt (`d_read` and per-partition
    /// `A_jf` — the counters the paper's Î_jf estimator consumes).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ProgressReport {
        /// Map task index.
        pub map: u32,
        /// Attempt tag of the running attempt.
        pub attempt: u32,
        /// Input bytes consumed so far.
        pub d_read: u64,
        /// Intermediate bytes emitted per reduce partition so far.
        pub part_bytes: Vec<u64>,
    }
}

wire! {
    /// A map attempt completed; the worker holds its partitioned output and
    /// reports only the per-partition byte sizes.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct MapDone {
        /// Map task index.
        pub map: u32,
        /// Attempt tag of the completed attempt.
        pub attempt: u32,
        /// Intermediate bytes per reduce partition.
        pub bytes: Vec<u64>,
    }
}

wire! {
    /// A map attempt failed transiently and its slot is free again.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct MapFailed {
        /// Map task index.
        pub map: u32,
        /// Attempt tag of the failed attempt.
        pub attempt: u32,
    }
}

wire! {
    /// A reduce attempt completed; final output rides the heartbeat (the
    /// driver-held reduce output is durable, exactly as in the engine).
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct ReduceDone {
        /// Reduce task index.
        pub reduce: u32,
        /// Attempt tag of the completed attempt.
        pub attempt: u32,
        /// Final key/value pairs of this partition.
        pub output: Pairs,
        /// Shuffle bytes pulled per source node (for locality accounting).
        pub sources: Vec<(u32, u64)>,
    }
}

wire! {
    /// One task assignment in a heartbeat reply.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Assignment {
        /// Run a map attempt over `block`.
        Map = 0 {
            /// Map task index (== block index).
            map: u32,
            /// Attempt tag the completion must carry.
            attempt: u32,
            /// Whether the seeded fault draw dooms this attempt to fail
            /// transiently (the tracker rolls the dice; workers just obey, so
            /// verdicts match the engine's exactly).
            doomed: bool,
            /// Data-server addresses of replica holders to fetch the block
            /// from when it is not in the local shard (empty ⇒ local).
            sources: Vec<String>,
        },
        /// Run a reduce attempt.
        Reduce = 1 {
            /// Reduce task index.
            reduce: u32,
            /// Attempt tag the completion must carry.
            attempt: u32,
            /// Total map count — the attempt must fetch this many partitions.
            n_maps: u32,
        },
    }
}

wire! {
    /// Everything that travels between tracker, workers and peers.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub enum Msg {
        /// Connection opener, both directions of any pnats-rpc connection.
        Hello = 1 {
            /// Must equal [`MAGIC`].
            magic: u32,
            /// Sender's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Handshake accepted.
        HelloAck = 2 {
            /// Responder's [`PROTOCOL_VERSION`].
            version: u32,
        },
        /// Handshake rejected: version skew. The connection closes after this.
        HelloReject = 3 {
            /// Version the responder speaks.
            expected: u32,
            /// Version the peer declared.
            got: u32,
        },
        /// Worker → tracker: join the cluster (or rejoin after a crash).
        Register = 4 {
            /// The worker's node id.
            node: u32,
            /// Crash epoch: 0 at first boot, +1 per wipe-and-rejoin.
            epoch: u32,
            /// Address of the worker's data server (peers fetch blocks and
            /// map partitions from it).
            data_addr: String,
        },
        /// Tracker → worker: registration accepted, here is the job and your
        /// DFS shard.
        RegisterAck = 5 {
            /// Echoed node id.
            node: u32,
            /// Job spec string (`wordcount`, `grep:<needle>`, `terasort`).
            job: String,
            /// Reduce partition count.
            n_reduces: u32,
            /// `pnats_core::Partitioner` wire tag.
            partitioner: u8,
            /// Simulated map compute cost (µs per KiB), for execution pacing.
            cpu_us_per_kib: u64,
            /// This node's block shard: `(block id, block text)`.
            blocks: Vec<(u32, String)>,
        },
        /// Worker → tracker, every `T` ms: status + free slots, implicitly
        /// requesting work.
        Heartbeat = 6 {
            /// Sender's node id.
            node: u32,
            /// Sender's crash epoch.
            epoch: u32,
            /// Free map slots right now.
            free_map_slots: u32,
            /// Free reduce slots right now.
            free_reduce_slots: u32,
            /// Live progress of running map attempts.
            progress: Vec<ProgressReport>,
            /// Map attempts completed since the last accepted heartbeat.
            map_done: Vec<MapDone>,
            /// Map attempts failed since the last accepted heartbeat.
            map_failed: Vec<MapFailed>,
            /// Reduce attempts completed since the last accepted heartbeat.
            reduce_done: Vec<ReduceDone>,
            /// Reduce attempts currently running, as `(reduce, attempt)`. With
            /// at-least-once heartbeat delivery a reply carrying assignments can
            /// be lost after the tracker applied it; the tracker compares this
            /// list (and `progress`) against its own book to requeue
            /// assignments the worker never heard about.
            running_reduces: Vec<(u32, u32)>,
            /// RPC retries the worker performed since the last heartbeat.
            rpc_retries: u64,
            /// Per-peer circuit breakers tripped open since the last heartbeat.
            breaker_trips: u64,
            /// Circuit breakers closed again (probe succeeded) since the last
            /// heartbeat.
            breaker_closes: u64,
            /// Map outputs fetched from an alternate source after the primary
            /// failed, since the last heartbeat.
            alt_fetches: u64,
            /// Control-plane frames the worker rejected for a checksum
            /// mismatch since the last heartbeat (each one poisoned a
            /// connection).
            corrupt_frames: u64,
        },
        /// Tracker → worker: the scheduling answer.
        HeartbeatReply = 7 {
            /// New work for the worker's free slots.
            assignments: Vec<Assignment>,
            /// Map indexes whose outputs the worker must drop (invalidated by
            /// a crash elsewhere — a reduce re-fetch would be stale).
            invalidate: Vec<u32>,
            /// The heartbeat fell in a loss window: the tracker acted as if it
            /// never arrived, and the worker must re-report its statuses.
            ignored: bool,
            /// The tracker considers this worker dead (expired or in a crash
            /// window). The worker must wipe all state, bump its epoch, and
            /// re-register when the tracker stops saying `dead`.
            dead: bool,
            /// The job is over; the worker should exit its loops.
            shutdown: bool,
            /// The tracker restarted and does not recognize this live worker
            /// yet: the worker must send [`Msg::Reattach`] (keeping all local
            /// state) instead of heartbeating. Unlike `dead`, nothing is
            /// wiped — the tracker wants the worker's attempt book back.
            reattach: bool,
        },
        /// Peer/tracker data plane: fetch an input block.
        FetchBlock = 8 {
            /// Block id.
            block: u32,
        },
        /// Reply to [`Msg::FetchBlock`].
        BlockData = 9 {
            /// Echoed block id.
            block: u32,
            /// Block text.
            data: String,
        },
        /// Peer data plane: fetch one reduce partition of a completed map.
        FetchPartition = 10 {
            /// Map task index.
            map: u32,
            /// Attempt tag the fetcher believes is current.
            attempt: u32,
            /// Reduce partition index.
            reduce: u32,
        },
        /// Reply to [`Msg::FetchPartition`]: the partition's pairs.
        PartitionData = 11 {
            /// Intermediate pairs, in map emission order.
            pairs: Pairs,
        },
        /// The addressee does not hold what was asked for (block not in shard,
        /// map output wiped or attempt-stale). The fetcher re-resolves via the
        /// tracker.
        NotHere = 12,
        /// Worker → tracker: where is map `map`'s output?
        WhereIs = 13 {
            /// Map task index.
            map: u32,
        },
        /// Reply to [`Msg::WhereIs`]: fetch from this data server.
        MapAt = 14 {
            /// Node id of the worker holding the output (for locality
            /// accounting in the fetcher's `ReduceDone` report).
            node: u32,
            /// Data-server address of the worker holding the output.
            addr: String,
            /// Current attempt tag (stale fetches are refused).
            attempt: u32,
        },
        /// Reply to [`Msg::WhereIs`]: the output does not currently exist
        /// (running, invalidated, or rescheduled) — retry later.
        NotReady = 15,
        /// Graceful stop (tracker → worker out-of-band, or test → daemon).
        Shutdown = 16,
        /// Generic acknowledgement.
        Ack = 17,
        /// Worker → tracker: a map-output source is unreachable past the
        /// circuit-breaker budget and no alternate source exists — the tracker
        /// should re-execute the map elsewhere. `attempt` is the attempt tag
        /// the fetcher believed current, so a report that races a re-execution
        /// already underway is recognized as stale and ignored.
        SourceUnreachable = 18 {
            /// Map task index whose output cannot be fetched.
            map: u32,
            /// Attempt tag the fetcher was trying to fetch.
            attempt: u32,
        },
        /// Worker → tracker: re-attach to a restarted tracker without wiping
        /// local state. Carries the worker's complete attempt book so the
        /// tracker can reconcile its journal-replayed view against worker
        /// truth — adopting live attempts, invalidating stale ones, and
        /// re-issuing work the worker never heard about.
        Reattach = 19 {
            /// The worker's node id.
            node: u32,
            /// The worker's current crash epoch (must match the tracker's
            /// journaled epoch for this node, else the worker is told `dead`).
            epoch: u32,
            /// Address of the worker's data server.
            data_addr: String,
            /// Finished map attempts still held locally, as `(map, attempt)`.
            finished_maps: Vec<(u32, u32)>,
            /// Running map attempts, as `(map, attempt)`.
            running_maps: Vec<(u32, u32)>,
            /// Running reduce attempts, as `(reduce, attempt)`.
            running_reduces: Vec<(u32, u32)>,
        },
        /// Tracker → worker: reply to [`Msg::Reattach`].
        ReattachAck = 20 {
            /// Map indexes whose locally held outputs are stale and must be
            /// dropped (superseded by a newer crash epoch).
            invalidate: Vec<u32>,
            /// The tracker does not recognize this node/epoch: wipe all state,
            /// bump the crash epoch, and re-register from scratch.
            dead: bool,
            /// The job is over; the worker should exit its loops.
            shutdown: bool,
        },
    }
}

impl Msg {
    /// Encode into a payload (the frame layer adds the length prefix).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.into_bytes()
    }

    /// Decode a full payload. Total: every byte string yields `Ok` or a
    /// typed [`WireError`]. Trailing bytes after a valid message are an
    /// error (a frame holds exactly one message).
    pub fn decode(bytes: &[u8]) -> Result<Msg, WireError> {
        let mut r = Reader::new(bytes);
        let msg = Self::get(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Hello { magic: MAGIC, version: PROTOCOL_VERSION },
            Msg::HelloAck { version: 1 },
            Msg::HelloReject { expected: 1, got: 9 },
            Msg::Register { node: 3, epoch: 2, data_addr: "127.0.0.1:9001".into() },
            Msg::RegisterAck {
                node: 3,
                job: "grep:needle".into(),
                n_reduces: 4,
                partitioner: 1,
                cpu_us_per_kib: 30,
                blocks: vec![(0, "line one\n".into()), (7, String::new())],
            },
            Msg::Heartbeat {
                node: 1,
                epoch: 0,
                free_map_slots: 2,
                free_reduce_slots: 1,
                progress: vec![ProgressReport {
                    map: 5,
                    attempt: 1,
                    d_read: 4096,
                    part_bytes: vec![10, 0, 99],
                }],
                map_done: vec![MapDone { map: 4, attempt: 0, bytes: vec![1, 2] }],
                map_failed: vec![MapFailed { map: 9, attempt: 2 }],
                reduce_done: vec![ReduceDone {
                    reduce: 0,
                    attempt: 0,
                    output: Pairs::from_iter([("k", "v")]),
                    sources: vec![(2, 4096)],
                }],
                running_reduces: vec![(2, 0), (3, 1)],
                rpc_retries: 3,
                breaker_trips: 1,
                breaker_closes: 1,
                alt_fetches: 2,
                corrupt_frames: 1,
            },
            Msg::HeartbeatReply {
                assignments: vec![
                    Assignment::Map {
                        map: 1,
                        attempt: 0,
                        doomed: true,
                        sources: vec!["127.0.0.1:9002".into()],
                    },
                    Assignment::Reduce { reduce: 2, attempt: 1, n_maps: 8 },
                ],
                invalidate: vec![1, 4],
                ignored: false,
                dead: true,
                shutdown: false,
                reattach: false,
            },
            Msg::FetchBlock { block: 12 },
            Msg::BlockData { block: 12, data: "text\n".into() },
            Msg::FetchPartition { map: 1, attempt: 0, reduce: 2 },
            Msg::PartitionData { pairs: Pairs::from_iter([("a", "1")]) },
            Msg::NotHere,
            Msg::WhereIs { map: 6 },
            Msg::MapAt { node: 4, addr: "127.0.0.1:9003".into(), attempt: 2 },
            Msg::NotReady,
            Msg::Shutdown,
            Msg::Ack,
            Msg::SourceUnreachable { map: 3, attempt: 1 },
            Msg::Reattach {
                node: 2,
                epoch: 1,
                data_addr: "127.0.0.1:9004".into(),
                finished_maps: vec![(0, 0), (3, 1)],
                running_maps: vec![(5, 2)],
                running_reduces: vec![(1, 0)],
            },
            Msg::ReattachAck { invalidate: vec![3], dead: false, shutdown: false },
        ]
    }

    /// Every `samples()` encoding, concatenated: peers that share a
    /// `PROTOCOL_VERSION` must agree on these bytes exactly.
    #[test]
    fn encoded_bytes_are_pinned() {
        let bytes: Vec<u8> = samples().iter().flat_map(Msg::encode).collect();
        assert_eq!((bytes.len(), crate::wire::fnv1a32(&bytes)), (563, 0x6e81_37cc));
    }

    /// Each derived element bound equals the literal the hand-written
    /// decoder passed to `Reader::count` for the same collection.
    #[test]
    fn derived_count_bounds_match_the_field_sizes() {
        let bounds = [
            ("ProgressReport", ProgressReport::MIN_BYTES, 20),
            ("MapDone", MapDone::MIN_BYTES, 12),
            ("MapFailed", MapFailed::MIN_BYTES, 8),
            ("ReduceDone", ReduceDone::MIN_BYTES, 16),
            ("(u32, u32)", <(u32, u32)>::MIN_BYTES, 8),
            ("(String, String)", <(String, String)>::MIN_BYTES, 8),
            ("(u32, String)", <(u32, String)>::MIN_BYTES, 8),
            ("u64", u64::MIN_BYTES, 8),
            ("(u32, u64)", <(u32, u64)>::MIN_BYTES, 12),
            ("u32", u32::MIN_BYTES, 4),
            ("String", String::MIN_BYTES, 4),
            ("Assignment", Assignment::MIN_BYTES, 1),
        ];
        for (ty, derived, literal) in bounds {
            assert_eq!(derived, literal, "{ty}");
        }
    }

    #[test]
    fn every_message_round_trips() {
        for msg in samples() {
            let bytes = msg.encode();
            let back = Msg::decode(&bytes).unwrap_or_else(|e| panic!("{msg:?}: {e}"));
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for msg in samples() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                match Msg::decode(&bytes[..cut]) {
                    Err(_) => {}
                    // A prefix of one message can decode as a complete
                    // smaller message only if it consumes every byte —
                    // decode() rejects trailing bytes, so prefixes of the
                    // *same* message must error.
                    Ok(m) => panic!("{msg:?} cut at {cut} decoded as {m:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = Msg::Ack.encode();
        bytes.push(0);
        assert_eq!(Msg::decode(&bytes), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_tag_is_typed() {
        assert_eq!(Msg::decode(&[0xEE]), Err(WireError::UnknownTag(0xEE)));
        assert_eq!(Msg::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn encoding_is_deterministic() {
        for msg in samples() {
            assert_eq!(msg.encode(), msg.encode());
        }
    }
}
