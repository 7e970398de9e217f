#![warn(missing_docs)]
//! # pnats-sim — discrete-event MapReduce cluster simulator
//!
//! The paper evaluates on 60 nodes of Clemson's Palmetto cluster running
//! Hadoop 1.2.1. This crate is the stand-in testbed: a discrete-event
//! simulator of a slot-based MapReduce cluster with an explicit network.
//! What it models, and why each piece exists:
//!
//! * **Slots & heartbeats** ([`state`], [`runner`]) — each node has `m` map
//!   and `r` reduce slots and heartbeats the JobTracker every second; all
//!   placement decisions happen at heartbeats through the
//!   [`pnats_core::placer::TaskPlacer`] trait, exactly the surface the
//!   paper's Algorithms 1/2 and both baselines plug into.
//! * **Fluid network** ([`transfers`] over [`pnats_net::flow`]) — every
//!   remote map-input fetch and every shuffle segment is a flow receiving
//!   its max-min fair share; transfer times therefore respond to placement
//!   the way the paper's testbed did (bad placement ⇒ shared bottlenecks ⇒
//!   stragglers).
//! * **Map/reduce lifecycle** ([`state`]) — maps fetch (if remote), then
//!   compute at a per-node rate; their intermediate output per reduce
//!   partition follows the workload's shuffle model with per-map jitter.
//!   Reduces shuffle from every finished map (bounded parallel copiers),
//!   then merge+reduce. Progress reports (`d_read`, `A_jf`) are derived
//!   from task state, feeding the paper's estimator.
//! * **Job-level fair scheduling** ([`runner`]) — the paper keeps Hadoop's
//!   Fair Scheduler at the job level and varies only task-level placement;
//!   so do we.
//! * **Network-condition monitoring** — completed transfers feed a
//!   [`pnats_net::RateMonitor`]; with
//!   [`SimConfig::network_condition`](config::SimConfig) enabled the
//!   scheduler sees congestion-scaled costs (§II-B3).
//! * **Fault knobs** ([`config`]) — per-node slowdown factors, background
//!   traffic and a seeded [`pnats_core::FaultPlan`] (node crashes with
//!   MapReduce recovery semantics, transient map failures with bounded
//!   retries, heartbeat loss, link degradation), for the
//!   robustness/ablation experiments. The [`oracle`] module checks any
//!   finished report against the conservation laws faulty runs must keep.
//!
//! Determinism: one seed drives every stochastic choice; identical config +
//! seed ⇒ identical traces.

pub mod config;
pub mod events;
pub mod freeset;
pub mod oracle;
pub mod runner;
pub mod service;
pub mod state;
pub mod trace;
pub mod transfers;

pub use config::{background_traffic, BackgroundFlow, DataLayout, JobInput, SimConfig, TopologyKind};
pub use oracle::{check_makespan_monotone, check_report};
pub use runner::{SimReport, Simulation};
pub use service::TenantRunStats;
pub use trace::{JobRecord, TaskKind, TaskRecord, Trace};
