#![warn(missing_docs)]
//! # pnats-dfs — HDFS-like block substrate
//!
//! The paper's map-task cost model (Formula 1) is driven entirely by *where
//! block replicas live*: `C_m(i,j) = B_j · min_{l : L_lj = 1} h_il`, the
//! block size times the distance to the nearest replica. This crate provides
//! that `L` matrix: a block namespace ([`namespace`]), HDFS rack-aware
//! replica placement ([`placement`]) and the replica lookup
//! structure schedulers query ([`store`]).
//!
//! The paper's experiments store generated input "in slave nodes with the
//! replication factor being set to 2" under stock HDFS placement; the
//! [`placement::RackAware`] policy reproduces that distribution.

pub mod block;
pub mod namespace;
pub mod placement;
pub mod store;

pub use block::{Block, BlockId};
pub use namespace::{FileId, Namespace};
pub use placement::{RackAware, ReplicaPlacement};
pub use store::BlockStore;
