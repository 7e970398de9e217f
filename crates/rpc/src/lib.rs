#![warn(missing_docs)]
//! # pnats-rpc — the cluster runtime's wire protocol
//!
//! A dependency-free, length-prefixed binary protocol over
//! `std::net::TcpStream`, built for the `pnats-cluster`
//! JobTracker/TaskTracker runtime:
//!
//! * [`wire`](mod@wire) — big-endian encode/decode with *total*
//!   decoding: arbitrary bytes produce a value or a typed [`WireError`],
//!   never a panic, and declared lengths are validated against the
//!   remaining input before any allocation. Its [`wire!`] macro turns one
//!   declared field list into both directions of a layout.
//! * [`msg`] — the message set (handshake, register, heartbeat, assign,
//!   data-plane fetches, shutdown), each a fixed field order behind one
//!   tag byte, so identical messages encode to identical bytes.
//! * [`frame`] — 4-byte big-endian length prefix + payload, with a 64 MiB
//!   [`MAX_FRAME`] guard enforced on both send and receive.
//! * [`client`] — a persistent connection with read/write deadlines,
//!   bounded reconnect-and-retry under exponential backoff with seeded
//!   jitter, and a versioned handshake ([`MAGIC`] + [`PROTOCOL_VERSION`])
//!   that refuses mismatched peers permanently (no retry can fix skew).
//! * [`server`] — a listener thread + thread per connection, dispatching
//!   each decoded message through a handler closure.
//! * [`chaos`] — a seeded fault-injecting proxy ([`ChaosNet`]) driven by a
//!   [`ChaosPlan`]: per-link partitions, black holes, resets, corruption,
//!   truncation, drops, delay and throttling, every probabilistic decision
//!   a pure function of the seed.
//! * [`breaker`] — per-peer circuit breakers ([`CircuitBreaker`]) with a
//!   check-counted cooldown and half-open probes, for callers that must
//!   fail fast against a partitioned peer.

pub mod breaker;
pub mod chaos;
pub mod client;
pub mod frame;
pub mod msg;
pub mod server;
pub mod wire;

pub use breaker::{BreakerPolicy, CircuitBreaker};
pub use chaos::{ChaosAction, ChaosEvent, ChaosFault, ChaosNet, ChaosPlan, ChaosProxy, LinkRule};
pub use client::{RetryPolicy, RpcClient, RpcError};
pub use frame::{read_frame, write_frame, FrameError};
pub use msg::{
    Assignment, MapDone, MapFailed, Msg, ProgressReport, ReduceDone, MAGIC, PROTOCOL_VERSION,
};
pub use server::{Handler, RpcServer};
pub use wire::{fnv1a32, Pairs, Reader, WireError, Writer, MAX_FRAME};
