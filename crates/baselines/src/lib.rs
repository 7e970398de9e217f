#![warn(missing_docs)]
//! # pnats-baselines — the schedulers the paper compares against
//!
//! Every baseline implements [`pnats_core::placer::TaskPlacer`], so the
//! simulator and the threaded engine can swap policies freely:
//!
//! * [`fair::FairDelayPlacer`] — Hadoop 1.2.1's Fair Scheduler behaviour at
//!   the task level: **delay scheduling** for map tasks (wait a bounded
//!   number of scheduling opportunities for a node-local, then rack-local
//!   slot) and **random** reduce placement. One of the paper's two
//!   evaluated baselines.
//! * [`coupling::CouplingPlacer`] — Tan et al.'s Coupling Scheduler
//!   (INFOCOM'13): probabilistic map placement on *coarse* locality classes,
//!   reduce launches coupled to map progress, placement at the data
//!   "centrality" node computed from **current** intermediate sizes, and at
//!   most three heartbeat postponements. The paper's other baseline.
//! * [`fifo::FifoGreedyPlacer`] — locality-greedy instant assignment, the
//!   stock FIFO scheduler's task-level behaviour.
//! * [`mincost::MinCostPlacer`] — *deterministic* fine-grained min-cost
//!   placement: the paper's cost model without the probabilistic
//!   relaxation. Ablation: isolates what the Bernoulli gate buys.
//! * [`random::RandomPlacer`] — uniform random placement; the floor.
//! * [`larts::LartsPlacer`] — a LARTS-style reduce placer (Hammoud &
//!   Sakr, CloudCom'11) from the related-work section: schedule each
//!   reduce as close to the bulk of its input as possible.
//! * [`quincy::QuincyPlacer`] — a Quincy-style global min-cost-matching
//!   scheduler (Isard et al., SOSP'09, the paper's \[20\]), built on this
//!   crate's own min-cost max-flow solver ([`mcmf`]).

pub mod coupling;
pub mod mcmf;
pub mod fair;
pub mod fifo;
pub mod larts;
pub mod mincost;
pub mod quincy;
pub mod random;

pub use coupling::CouplingPlacer;
pub use quincy::QuincyPlacer;
pub use fair::FairDelayPlacer;
pub use fifo::FifoGreedyPlacer;
pub use larts::LartsPlacer;
pub use mincost::MinCostPlacer;
pub use random::RandomPlacer;
