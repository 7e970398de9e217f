//! Simulator configuration.

use pnats_core::faults::FaultPlan;
use pnats_net::Topology;
use pnats_workloads::{Batch, ShuffleModel};

/// Cluster topology to simulate.
#[derive(Clone, Debug)]
pub enum TopologyKind {
    /// `n` nodes under one ToR switch (every remote path is 2 hops) —
    /// degenerate but useful for unit tests.
    SingleRack,
    /// The paper's testbed shape: one logical rack, three ToR switches
    /// with heterogeneous uplinks (see
    /// [`Topology::palmetto_slice`]).
    PalmettoSlice,
    /// `racks × per_rack` nodes in a two-level tree; `n_nodes` must equal
    /// `racks * per_rack`.
    MultiRack {
        /// Number of racks.
        racks: usize,
        /// Nodes per rack.
        per_rack: usize,
        /// ToR → core uplink capacity in bytes/sec.
        uplink_bps: f64,
    },
}

/// Where block replicas live.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DataLayout {
    /// Stock HDFS: the first replica on the (ingest-set) writer, further
    /// replicas spread rack-aware over the whole cluster. Locality is
    /// plentiful — every node ends up holding some blocks.
    HdfsRackAware,
    /// Cloud/NAS regime (paper §I: replicas "stored in NAS or SAN devices
    /// located in a subset of the nodes"): *all* replicas confined to the
    /// job's ingest set. Most nodes never hold local data, so schedulers
    /// must reason about remote placement cost — the paper's target case.
    IngestConfined,
}

/// A constant-rate background transfer occupying the network during
/// `[start, end)` — the "shared cluster with varied and dynamic bandwidth
/// utilization of links" regime of the paper's conclusion.
#[derive(Clone, Copy, Debug)]
pub struct BackgroundFlow {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Start time (seconds).
    pub start: f64,
    /// End time (seconds).
    pub end: f64,
}

/// Full simulator configuration. Defaults reproduce the paper's testbed:
/// 60 nodes, 4 map + 2 reduce slots each, replication 2, 1 Gbps NICs on a
/// Palmetto-like switch fabric.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Data nodes in the cluster.
    pub n_nodes: usize,
    /// Map slots per node.
    pub map_slots: u32,
    /// Reduce slots per node.
    pub reduce_slots: u32,
    /// Topology shape.
    pub topology: TopologyKind,
    /// Node NIC capacity, bytes/sec.
    pub nic_bps: f64,
    /// HDFS replication factor.
    pub replication: usize,
    /// Heartbeat interval, seconds.
    pub heartbeat_s: f64,
    /// Map compute throughput, input bytes/sec (per slot, nominal node).
    pub map_rate_bps: f64,
    /// Reduce merge+reduce throughput, shuffle bytes/sec.
    pub reduce_rate_bps: f64,
    /// Fraction of a job's maps that must *finish* before its reduces may
    /// launch (Hadoop's slowstart).
    pub slowstart: f64,
    /// Pending map tasks offered to the placer per decision (head of the
    /// unassigned queue, Hadoop-style scan window).
    pub map_candidate_window: usize,
    /// Pending reduce tasks offered per decision.
    pub reduce_candidate_window: usize,
    /// How block replicas are distributed (see [`DataLayout`]).
    pub data_layout: DataLayout,
    /// Fraction of the cluster acting as each job's *ingest set*: the nodes
    /// that wrote the job's input (and therefore hold its first replicas,
    /// HDFS writer-locality). 1.0 = uniform writers. Real deployments load
    /// data through a subset of nodes, which skews replica placement — the
    /// regime the paper's §I motivates (replicas concentrated on "a subset
    /// of the nodes"), and the one where placement quality matters.
    pub ingest_fraction: f64,
    /// Schedule with congestion-scaled costs (§II-B3) instead of raw hops.
    /// The metric also picks how the placer averages `C_ave`: per node
    /// under §II-B3, whose every pair has its own cost, and over the hop
    /// metric's leaf-switch classes otherwise (`pnats_core::costidx`).
    pub network_condition: bool,
    /// EWMA factor of the path-rate monitor.
    pub monitor_alpha: f64,
    /// Per-node speed overrides (node index, factor); factors < 1 are
    /// stragglers. Applied after the random spread.
    pub slow_nodes: Vec<(usize, f64)>,
    /// Hadoop-style speculative execution: when a job's map queue is empty
    /// and a slot is free, launch a backup copy of its slowest running map
    /// if that map's progress lags the job's mean by this *fraction*
    /// (0 disables). First copy to finish wins; the loser is killed.
    pub speculation_lag: f64,
    /// Background transfers.
    pub background: Vec<BackgroundFlow>,
    /// Deterministic fault schedule (node crashes/recoveries, transient map
    /// failures, heartbeat-loss windows, link degradation).
    /// [`FaultPlan::none`] — the default — injects nothing and leaves the
    /// run byte-identical to a fault-free build.
    pub faults: FaultPlan,
    /// The transfer engine's rate source: the fluid max-min fair-share flow
    /// network ([`Fluid`](crate::transfers::Fluid); `true`, the default and
    /// the fidelity the paper's experiments use) or fixed nominal NIC rates
    /// ([`Nominal`](crate::transfers::Nominal); `false`). The nominal source
    /// skips global rate recomputation entirely — transfers no longer
    /// contend — which is what makes 10k-node / 1M-task sweeps tractable; it
    /// is a throughput benchmark mode, not an experiment mode.
    pub fluid_network: bool,
    /// Master seed for all randomness.
    pub seed: u64,
    /// Hard wall on simulated time; runs exceeding it report unfinished
    /// jobs (the paper's `P_min` sweep "picked the highest P_min value at
    /// the time when the all jobs finished successfully" — this is how a
    /// too-high `P_min` manifests).
    pub max_sim_time: f64,
    /// Multi-tenant service mode (`pnats-tenancy`): tenant tags plus the
    /// weighted-fair-share / admission / preemption policy switches.
    /// `None` — the default — runs the classic single-pool batch mode; a
    /// passthrough config (one tenant, all policies off) is required to
    /// stay byte-identical to `None`.
    pub tenancy: Option<pnats_tenancy::TenancyConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_testbed()
    }
}

impl SimConfig {
    /// The paper's evaluation cluster: 60 nodes, 4 map + 2 reduce slots,
    /// replication 2, single logical rack across three switches.
    pub fn paper_testbed() -> Self {
        Self {
            n_nodes: 60,
            map_slots: 4,
            reduce_slots: 2,
            topology: TopologyKind::PalmettoSlice,
            nic_bps: 125e6, // 1 Gbps
            replication: 2,
            heartbeat_s: 1.0,
            map_rate_bps: 8e6,
            reduce_rate_bps: 20e6,
            slowstart: 0.05,
            map_candidate_window: 64,
            reduce_candidate_window: 16,
            data_layout: DataLayout::HdfsRackAware,
            ingest_fraction: 0.35,
            network_condition: true,
            monitor_alpha: 0.3,
            slow_nodes: Vec::new(),
            speculation_lag: 0.0,
            background: Vec::new(),
            faults: FaultPlan::none(),
            fluid_network: true,
            seed: 42,
            max_sim_time: 200_000.0,
            tenancy: None,
        }
    }

    /// A small, fast configuration for unit/integration tests.
    pub fn tiny(n_nodes: usize, seed: u64) -> Self {
        Self {
            n_nodes,
            map_slots: 2,
            reduce_slots: 1,
            topology: TopologyKind::SingleRack,
            seed,
            ..Self::paper_testbed()
        }
    }

    /// Build the configured topology.
    pub fn build_topology(&self) -> Topology {
        match self.topology {
            TopologyKind::SingleRack => Topology::single_rack(self.n_nodes, self.nic_bps),
            TopologyKind::PalmettoSlice => {
                Topology::palmetto_slice(self.n_nodes, self.nic_bps)
            }
            TopologyKind::MultiRack { racks, per_rack, uplink_bps } => {
                assert_eq!(
                    racks * per_rack,
                    self.n_nodes,
                    "MultiRack shape must match n_nodes"
                );
                Topology::multi_rack(racks, per_rack, self.nic_bps, uplink_bps)
            }
        }
    }

    /// Total map slots in the cluster.
    pub fn total_map_slots(&self) -> u64 {
        self.n_nodes as u64 * self.map_slots as u64
    }

    /// Total reduce slots in the cluster.
    pub fn total_reduce_slots(&self) -> u64 {
        self.n_nodes as u64 * self.reduce_slots as u64
    }
}

/// Generate a deterministic shared-cluster background-traffic profile:
/// `lanes` independent lanes, each an endless back-to-back sequence of
/// bulk transfers between random node pairs lasting 30–120 s, covering
/// `[0, horizon)`. At any instant exactly `lanes` background flows are
/// active, saturating their paths — the "shared cluster with varied and
/// dynamic bandwidth utilization of links" the paper's conclusion names as
/// the regime its fine-grained, condition-aware cost model targets.
pub fn background_traffic(lanes: usize, horizon: f64, n_nodes: usize, seed: u64) -> Vec<BackgroundFlow> {
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    assert!(n_nodes >= 2);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xbac4_6000);
    let mut flows = Vec::new();
    for _ in 0..lanes {
        let mut t = 0.0;
        while t < horizon {
            let dur = rng.gen_range(30.0..120.0);
            let src = rng.gen_range(0..n_nodes);
            let mut dst = rng.gen_range(0..n_nodes);
            if dst == src {
                dst = (dst + 1) % n_nodes;
            }
            flows.push(BackgroundFlow { src, dst, start: t, end: (t + dur).min(horizon) });
            t += dur;
        }
    }
    flows
}

/// One job as fed to the simulator: block layout, reduce count, shuffle
/// behaviour and arrival time.
#[derive(Clone, Debug)]
pub struct JobInput {
    /// Display name.
    pub name: String,
    /// Submission time, seconds.
    pub submit: f64,
    /// Per-map input block sizes (one map task per block).
    pub block_sizes: Vec<u64>,
    /// Number of reduce tasks / shuffle partitions.
    pub n_reduces: usize,
    /// Shuffle behaviour.
    pub shuffle: ShuffleModel,
}

impl JobInput {
    /// Build the inputs for a [`Batch`]'s jobs.
    pub fn from_batch(batch: &Batch) -> Vec<JobInput> {
        batch
            .jobs
            .iter()
            .map(|(spec, submit)| JobInput {
                name: spec.name(),
                submit: *submit,
                block_sizes: spec.block_sizes(),
                n_reduces: spec.reduces as usize,
                shuffle: ShuffleModel::for_app(spec.app),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_workloads::{table2_batch, AppKind};

    #[test]
    fn paper_testbed_matches_section_3() {
        let c = SimConfig::paper_testbed();
        assert_eq!(c.n_nodes, 60);
        assert_eq!(c.map_slots, 4);
        assert_eq!(c.reduce_slots, 2);
        assert_eq!(c.replication, 2);
        assert_eq!(c.total_map_slots(), 240);
        assert_eq!(c.total_reduce_slots(), 120);
        let t = c.build_topology();
        assert_eq!(t.n_nodes(), 60);
        assert_eq!(t.layout().n_racks(), 1);
    }

    #[test]
    fn multi_rack_shape_validated() {
        let mut c = SimConfig::tiny(6, 0);
        c.topology = TopologyKind::MultiRack { racks: 2, per_rack: 3, uplink_bps: 1e9 };
        assert_eq!(c.build_topology().layout().n_racks(), 2);
    }

    #[test]
    #[should_panic(expected = "must match n_nodes")]
    fn multi_rack_shape_mismatch_panics() {
        let mut c = SimConfig::tiny(7, 0);
        c.topology = TopologyKind::MultiRack { racks: 2, per_rack: 3, uplink_bps: 1e9 };
        c.build_topology();
    }

    #[test]
    fn background_traffic_is_deterministic_and_covers_horizon() {
        let a = background_traffic(3, 1000.0, 10, 7);
        let b = background_traffic(3, 1000.0, 10, 7);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.src, x.dst, x.start.to_bits()), (y.src, y.dst, y.start.to_bits()));
        }
        // Different seeds differ.
        let c = background_traffic(3, 1000.0, 10, 8);
        assert_ne!(
            a.iter().map(|f| (f.src, f.dst)).collect::<Vec<_>>(),
            c.iter().map(|f| (f.src, f.dst)).collect::<Vec<_>>()
        );
        // Valid endpoints, bounded times, full horizon coverage per lane.
        for f in &a {
            assert!(f.src < 10 && f.dst < 10 && f.src != f.dst);
            assert!(f.start < f.end && f.end <= 1000.0);
        }
        let latest_end = a.iter().map(|f| f.end).fold(0.0, f64::max);
        assert_eq!(latest_end, 1000.0, "lanes run back-to-back to the horizon");
    }

    #[test]
    fn data_layout_flag_roundtrips() {
        let mut c = SimConfig::paper_testbed();
        assert_eq!(c.data_layout, DataLayout::HdfsRackAware);
        c.data_layout = DataLayout::IngestConfined;
        assert_eq!(c.data_layout, DataLayout::IngestConfined);
    }

    #[test]
    fn job_inputs_from_batch() {
        let b = table2_batch(AppKind::Wordcount);
        let inputs = JobInput::from_batch(&b);
        assert_eq!(inputs.len(), 10);
        assert_eq!(inputs[0].name, "Wordcount_10GB");
        assert_eq!(inputs[0].block_sizes.len(), 88);
        assert_eq!(inputs[0].n_reduces, 157);
    }
}
