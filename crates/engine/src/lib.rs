#![warn(missing_docs)]
//! # pnats-engine — a threaded, in-memory MapReduce framework
//!
//! The discrete-event simulator (`pnats-sim`) answers the paper's
//! *performance* questions at testbed scale; this crate answers the
//! *integration* question: the schedulers really do drive a working
//! MapReduce execution, end to end, on real data.
//!
//! It is a deliberately small Hadoop-1.x-shaped runtime:
//!
//! * input blocks holding real bytes, split by the engine itself and
//!   replicated by [`pnats_dfs`]'s rack-aware placement across virtual
//!   nodes of a [`pnats_net::Topology`];
//! * per-node **map/reduce slots** served by OS threads;
//! * a driver thread playing JobTracker: it heartbeats every few
//!   milliseconds and fills free slots through the *same*
//!   [`pnats_core::placer::TaskPlacer`] trait the simulator uses — the
//!   paper's scheduler and every baseline plug in unmodified;
//! * real [`api::Mapper`]/[`api::Reducer`] user code with a hash
//!   partitioner and an in-memory shuffle; remote reads cost a simulated
//!   network delay proportional to `bytes × hops`, so placement quality is
//!   observable in wall-clock time;
//! * live progress counters (`d_read`, per-partition `A_jf`) published by
//!   running map tasks — the heartbeat report the paper's intermediate-size
//!   estimator consumes.
//!
//! Built-in jobs ([`jobs`]): WordCount, Grep and TeraSort — the paper's
//! three applications.

pub mod api;
pub mod book;
pub mod engine;
pub mod exec;
pub mod jobs;

pub use api::{EngineJob, Mapper, Reducer};
pub use book::{Book, EventLog, JobScheduler, TaskEvent};
pub use engine::{EngineConfig, EngineReport, MapReduceEngine};
pub use jobs::{GrepJob, TeraSortJob, WordCountJob};
