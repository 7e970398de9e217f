#![warn(missing_docs)]
//! # pnats-net — cluster network substrate
//!
//! Network model underpinning the probabilistic network-aware scheduler of
//! Shen et al. (CLUSTER 2016). The paper's cost model needs three things
//! from the network layer:
//!
//! 1. a **distance matrix** `H` whose entry `h_ab` is the number of hops on
//!    the path between data nodes `D_a` and `D_b` (paper §II-B1);
//! 2. optionally, a **measured-rate matrix** that replaces `h_ab` with the
//!    inverse of the observed transmission rate of the path (paper §II-B3,
//!    "Considering Network Condition");
//! 3. for the simulator, an actual **capacity-constrained network** on which
//!    transfers contend — we provide a fluid max-min fair-share flow model.
//!
//! The module split mirrors those needs:
//!
//! * [`topology`] — nodes, racks, switches, links and standard cluster
//!   shapes (single rack, multi-rack tree, the paper's Palmetto slice).
//! * [`distance`] — the hop matrix `H`, computed by BFS or given verbatim
//!   (e.g. the worked example of the paper's Figure 2).
//! * [`routing`] — shortest link-level paths used by the flow model.
//! * [`flow`] — progressive-filling max-min fair bandwidth allocation.
//! * [`monitor`] — EWMA path-rate monitor and the inverse-rate cost matrix.
//! * [`cost`] — the [`PathCost`] abstraction consumed by the scheduler
//!   crates.

pub mod classed;
pub mod cost;
pub mod distance;
pub mod flow;
pub mod monitor;
pub mod routing;
pub mod topology;

pub use classed::ClassedDistance;
pub use cost::{PathCost, RackLadderCost, UniformCost};
pub use distance::DistanceMatrix;
pub use flow::{FlowId, FlowNetwork};
pub use monitor::RateMonitor;
pub use routing::RoutingTable;
pub use topology::{ClusterLayout, LinkId, NodeId, RackId, SwitchId, Topology};
