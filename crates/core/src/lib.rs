#![warn(missing_docs)]
//! # pnats-core — probabilistic network-aware task placement
//!
//! The primary contribution of Shen, Sarker, Yu & Deng, *"Probabilistic
//! Network-Aware Task Placement for MapReduce Scheduling"* (IEEE CLUSTER
//! 2016), as a reusable library:
//!
//! * [`cost`] — the transmission cost model. Formula (1) for map tasks
//!   (`C_m(i,j) = B_j · min_{L_lj=1} h_il`), Formulas (2)/(3) for reduce
//!   tasks (`C_r(i,f) = Σ_j Σ_p x_jp · h_pi · Î_jf`), both generic over a
//!   [`pnats_net::PathCost`] so hop counts and the §II-B3 inverse-rate
//!   metric plug in interchangeably.
//! * [`estimate`] — intermediate-data-size estimation. The paper's
//!   progress-extrapolated estimator `Î_jf = A_jf · B_j / d_read_j`
//!   alongside the Coupling Scheduler's current-size estimator it improves
//!   upon, so the ablation of §II-B2's motivating example is one enum away.
//! * [`prob`] — the placement probability `P = 1 − e^{−C_ave/C}` (Formulas
//!   4/5) plus the alternative probability models the paper's §V names as
//!   future work.
//! * [`context`] — the cluster-state snapshot a placer sees at a heartbeat
//!   (candidates, free slots, progress reports, cost metric).
//! * [`placer`] — the [`TaskPlacer`] trait that the
//!   simulator, the threaded engine and every baseline implement.
//! * [`prob_sched`] — Algorithms 1 and 2: the probabilistic network-aware
//!   map/reduce placement algorithms themselves.
//! * [`analysis`] — closed-form expected-cost / acceptance / fairness
//!   analysis of the probabilistic policy (§V's "theoretical analysis"
//!   future work).
//!
//! ## Quick taste
//!
//! ```
//! use pnats_core::context::{MapCandidate, MapSchedContext};
//! use pnats_core::placer::{Decision, TaskPlacer};
//! use pnats_core::prob_sched::{ProbConfig, ProbabilisticPlacer};
//! use pnats_core::types::{JobId, MapTaskId};
//! use pnats_net::{DistanceMatrix, NodeId, Topology};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let topo = Topology::single_rack(4, 1e9 / 8.0);
//! let hops = DistanceMatrix::hops(&topo);
//! let job = JobId(0);
//! // One pending map task whose block lives on D0.
//! let cands = vec![MapCandidate {
//!     task: MapTaskId { job, index: 0 },
//!     block_size: 128 << 20,
//!     replicas: vec![NodeId(0)],
//! }];
//! let free = vec![NodeId(0), NodeId(1)];
//! let ctx = MapSchedContext::new(job, &cands, &free, &hops, topo.layout());
//! let mut placer = ProbabilisticPlacer::new(ProbConfig::default());
//! let mut rng = SmallRng::seed_from_u64(42);
//! // Offering the slot on the data-local node always assigns (P = 1).
//! assert_eq!(placer.place_map(&ctx, NodeId(0), &mut rng), Decision::Assign(0));
//! ```

pub mod analysis;
pub mod context;
pub mod cost;
pub mod costidx;
pub mod estimate;
pub mod faults;
pub mod partition;
pub mod placer;
pub mod prob;
pub mod prob_sched;
pub mod types;

pub use context::{
    MapCandidate, MapSchedContext, ReduceCandidate, ReduceSchedContext, ShuffleSource,
};
pub use costidx::{CostClasses, CostView};
pub use estimate::IntermediateEstimator;
pub use faults::{FaultPlan, HeartbeatLoss, LinkDegradation, NodeCrash};
pub use partition::{partition_of, Partitioner};
pub use placer::{Decision, DecisionDetail, PlacerStats, SkipReason, TaskPlacer};
pub use prob::ProbabilityModel;
pub use prob_sched::{ProbConfig, ProbabilisticPlacer};
pub use types::{JobId, MapTaskId, ReduceTaskId};
