//! # pnats-bench — the experiment harness
//!
//! One `repro` binary (`src/bin/repro.rs`) runs every table and figure of
//! the paper, the ablations and the CI gates as subcommands of
//! [`repro`], all built on this crate's [`harness`]: standard cluster
//! configurations, scheduler constructors and the parallel run matrix.
//! `repro all` chains every experiment in one process and prints an
//! EXPERIMENTS.md-ready report.
//!
//! ## Standard configurations
//!
//! * [`harness::cloud_config`] — the **headline** configuration for the
//!   completion-time experiments (Figures 4–6): the paper's 60-node
//!   testbed shape with the cloud/NAS data layout of its §I motivation
//!   (replicas confined to each job's ingest subset) and shared-cluster
//!   background traffic. This is the regime where fine-grained
//!   network-aware placement has room to act.
//! * [`harness::hdfs_config`] — stock HDFS rack-aware layout on a quiet
//!   cluster; used for the locality experiments (Table III, Figure 7) and
//!   as a sensitivity point for the JCT experiments.
//!
//! Both are documented, deterministic and seed-parameterized.

pub mod failover;
pub mod harness;
pub mod repro;

pub use harness::{
    cloud_config, harness_threads, hdfs_config, make_placer, mean_jct, parallel_map, trace_path,
    PlacerSpec, Run, SchedulerKind, ALL_SCHEDULERS, PAPER_SCHEDULERS,
};
