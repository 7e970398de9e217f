//! Hadoop Fair Scheduler task-level behaviour: delay scheduling for maps,
//! random reduce placement.
//!
//! Delay scheduling (Zaharia et al., EuroSys'10, the paper's \[3\]): when the
//! job at the head of the fair-share order cannot launch a node-local task
//! on the offered node, *skip* the slot and remember the skip; only after
//! `node_delay` skipped opportunities may the job launch rack-local tasks,
//! and after `rack_delay` skips, arbitrary remote tasks. Locality improves,
//! but slots sit idle while waiting — the under-utilization the paper's §I
//! (and Coupling's authors) criticize.
//!
//! Reduce side: Hadoop 1.2.1's Fair Scheduler performs no reduce locality
//! reasoning — "the fair scheduling method ... randomly selects a reduce
//! task to be assigned to an available reduce slot" (paper §III).

use pnats_core::context::{MapSchedContext, ReduceSchedContext};
use pnats_core::placer::{Decision, SkipReason, TaskPlacer};
use pnats_core::types::JobId;
use pnats_net::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::HashMap;

/// Fair Scheduler with delay scheduling.
#[derive(Clone, Debug)]
pub struct FairDelayPlacer {
    /// Skipped scheduling opportunities before accepting rack-local maps.
    pub node_delay: u32,
    /// Skipped opportunities before accepting arbitrary remote maps.
    pub rack_delay: u32,
    skips: HashMap<JobId, u32>,
}

impl FairDelayPlacer {
    /// Delay thresholds in *scheduling opportunities* (slot offers). The
    /// defaults correspond to waiting roughly one heartbeat round of a
    /// mid-sized cluster for node locality and three for rack locality.
    pub fn new(node_delay: u32, rack_delay: u32) -> Self {
        assert!(rack_delay >= node_delay);
        Self { node_delay, rack_delay, skips: HashMap::new() }
    }

    /// Defaults tuned for a ~60 node cluster (one round ≈ 60 offers).
    pub fn hadoop_defaults() -> Self {
        Self::new(60, 180)
    }

    /// Current skip counter of a job (diagnostics).
    pub fn skips(&self, job: JobId) -> u32 {
        self.skips.get(&job).copied().unwrap_or(0)
    }
}

impl Default for FairDelayPlacer {
    fn default() -> Self {
        Self::hadoop_defaults()
    }
}

impl TaskPlacer for FairDelayPlacer {
    fn name(&self) -> &'static str {
        "fair"
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        _rng: &mut SmallRng,
    ) -> Decision {
        // Node-local launch always allowed; resets the job's wait.
        if let Some(i) = ctx.candidates.iter().position(|c| c.is_local_to(node)) {
            self.skips.insert(ctx.job, 0);
            return Decision::Assign(i);
        }
        let skips = self.skips.entry(ctx.job).or_insert(0);
        if *skips >= self.node_delay {
            if let Some(i) = ctx
                .candidates
                .iter()
                .position(|c| c.is_rack_local_to(node, ctx.layout))
            {
                *skips = 0;
                return Decision::Assign(i);
            }
        }
        if *skips >= self.rack_delay {
            *skips = 0;
            return Decision::Assign(0); // any task, FIFO order within the job
        }
        *skips += 1;
        Decision::Skip(SkipReason::DelayBound)
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        _node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        // Uniform random choice among pending reduce tasks, assigned
        // unconditionally.
        Decision::Assign(rng.gen_range(0..ctx.candidates.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_core::context::{MapCandidate, ReduceCandidate};
    use pnats_core::types::{MapTaskId, ReduceTaskId};
    use pnats_net::{DistanceMatrix, Topology};
    use rand::SeedableRng;

    const GB: f64 = 1e9 / 8.0;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(5)
    }

    fn mcand(i: u32, replicas: Vec<NodeId>) -> MapCandidate {
        MapCandidate {
            task: MapTaskId { job: JobId(0), index: i },
            block_size: 100,
            replicas,
        }
    }

    #[test]
    fn local_task_launches_immediately() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands = vec![mcand(0, vec![NodeId(3)]), mcand(1, vec![NodeId(0)])];
        let free = vec![NodeId(0)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, topo.layout());
        let mut p = FairDelayPlacer::new(2, 4);
        assert_eq!(p.place_map(&ctx, NodeId(0), &mut rng()), Decision::Assign(1));
        assert_eq!(p.skips(JobId(0)), 0);
    }

    #[test]
    fn delays_then_accepts_rack_then_remote() {
        let topo = Topology::multi_rack(2, 2, GB, GB);
        let h = DistanceMatrix::hops(&topo);
        // Data on node 1 (rack 0). Offer slots on node 0 (same rack) and
        // node 2 (other rack).
        let cands = vec![mcand(0, vec![NodeId(1)])];
        let free = vec![NodeId(0), NodeId(2)];
        let layout = topo.layout();
        let ctx0 = MapSchedContext::new(JobId(0), &cands, &free, &h, layout);
        let mut p = FairDelayPlacer::new(2, 4);
        let mut r = rng();
        //

        // Offers on the off-rack node: skip until rack_delay reached.
        let wait = Decision::Skip(SkipReason::DelayBound);
        assert_eq!(p.place_map(&ctx0, NodeId(2), &mut r), wait); // skips=1
        assert_eq!(p.place_map(&ctx0, NodeId(2), &mut r), wait); // skips=2
        // Now node_delay (2) reached: rack-local allowed — node 0 qualifies.
        assert_eq!(p.place_map(&ctx0, NodeId(0), &mut r), Decision::Assign(0));
        assert_eq!(p.skips(JobId(0)), 0, "assignment resets the wait");

        // Off-rack node only: needs rack_delay (4) skips.
        let mut p = FairDelayPlacer::new(2, 4);
        for _ in 0..4 {
            assert_eq!(p.place_map(&ctx0, NodeId(2), &mut r), Decision::Skip(SkipReason::DelayBound));
        }
        assert_eq!(p.place_map(&ctx0, NodeId(2), &mut r), Decision::Assign(0));
    }

    #[test]
    fn reduce_choice_is_uniform_random() {
        let topo = Topology::single_rack(3, GB);
        let h = DistanceMatrix::hops(&topo);
        let cands: Vec<ReduceCandidate> = (0..3)
            .map(|i| ReduceCandidate {
                task: ReduceTaskId { job: JobId(0), index: i },
                sources: vec![],
            })
            .collect();
        let free = vec![NodeId(0)];
        let ctx = ReduceSchedContext::new(JobId(0), &cands, &free, &h, topo.layout())
            .map_phase(0.0, 0, 1)
            .reduce_phase(0, 3);
        let mut p = FairDelayPlacer::default();
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..600 {
            match p.place_reduce(&ctx, NodeId(0), &mut r) {
                Decision::Assign(i) => counts[i] += 1,
                Decision::Skip(_) => panic!("fair never skips reduces"),
            }
        }
        for c in counts {
            assert!((120..=280).contains(&c), "not uniform: {counts:?}");
        }
    }

    #[test]
    #[should_panic]
    fn inverted_delays_rejected() {
        FairDelayPlacer::new(10, 5);
    }
}
