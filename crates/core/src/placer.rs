//! The task-placement interface every scheduler implements.
//!
//! The runtime (simulator or threaded engine) owns cluster state and job
//! bookkeeping; a [`TaskPlacer`] only answers the question Hadoop's
//! task-level scheduling asks on each heartbeat: *given this node's free
//! slot and these pending tasks, which task (if any) should run here?*

use crate::context::{MapSchedContext, ReduceSchedContext};
use pnats_net::NodeId;
use rand::rngs::SmallRng;

/// Why a placer declined a slot offer.
///
/// Every [`Decision::Skip`] carries one of these so runtimes, traces and
/// counters all agree on the cause; [`PlacerStats`] tallies them per
/// variant instead of keeping parallel hand-maintained counters.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
#[repr(usize)]
pub enum SkipReason {
    /// No candidate task was eligible for this node — the candidate list
    /// was empty, or every candidate was filtered out before scoring.
    NoCandidate,
    /// A delay-scheduling bound held the task back waiting for locality
    /// (fair scheduler's wait levels).
    DelayBound,
    /// The winning candidate's placement probability fell below `P_min`
    /// (Algorithm 1 line 8 / Algorithm 2 line 8).
    BelowPMin,
    /// The Bernoulli draw on the placement probability failed
    /// (Algorithm 1 line 9 / Algorithm 2 line 9).
    DrawFailed,
    /// A reduce launch was deliberately postponed — coupling's launch gate
    /// or LARTS's sweet-spot wait, not a per-node refusal.
    PostponedReduce,
    /// Cost evaluation produced a non-finite value (NaN/∞ path costs), so
    /// no candidate could be scored.
    NonFiniteCost,
    /// The node already runs a reduce of this job (Algorithm 2 line 1
    /// refuses to co-locate two reduces of one job).
    Collocated,
    /// Every candidate's input data lives only on crashed nodes, so nothing
    /// could be offered — the work waits for a replica holder to recover.
    /// Produced by the runtime's liveness filter, never by a placer.
    NodeDead,
}

impl SkipReason {
    /// All variants, in counter order (index = `as usize`).
    pub const ALL: [SkipReason; 8] = [
        SkipReason::NoCandidate,
        SkipReason::DelayBound,
        SkipReason::BelowPMin,
        SkipReason::DrawFailed,
        SkipReason::PostponedReduce,
        SkipReason::NonFiniteCost,
        SkipReason::Collocated,
        SkipReason::NodeDead,
    ];

    /// Number of variants (length of [`PlacerStats::skips`]).
    pub const COUNT: usize = Self::ALL.len();

    /// Stable snake_case label used in JSONL traces and counter reports.
    pub fn label(self) -> &'static str {
        match self {
            SkipReason::NoCandidate => "no_candidate",
            SkipReason::DelayBound => "delay_bound",
            SkipReason::BelowPMin => "below_p_min",
            SkipReason::DrawFailed => "draw_failed",
            SkipReason::PostponedReduce => "postponed_reduce",
            SkipReason::NonFiniteCost => "non_finite_cost",
            SkipReason::Collocated => "collocated",
            SkipReason::NodeDead => "node_dead",
        }
    }
}

/// Outcome of a placement query.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Decision {
    /// Launch `candidates[i]` on the offered node.
    Assign(usize),
    /// Leave the slot empty this heartbeat, for the stated reason.
    Skip(SkipReason),
}

impl Decision {
    /// The assigned candidate index, if any.
    pub fn assigned(self) -> Option<usize> {
        match self {
            Decision::Assign(i) => Some(i),
            Decision::Skip(_) => None,
        }
    }
}

/// Per-decision intermediates of the paper's Algorithms 1–2, exposed for
/// tracing: the winning candidate's cost `C_i`, the mean `C_ave` over
/// free-slot nodes, and the placement probability `P = 1 − e^{−C_ave/C_i}`.
///
/// Placers that don't compute these (most baselines) return `None` from
/// [`TaskPlacer::last_detail`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DecisionDetail {
    /// `C_i`: the winning candidate's cost on the offered node.
    pub cost: f64,
    /// `C_ave`: mean best-case cost of the candidate over free-slot nodes.
    pub cost_avg: f64,
    /// `P`: the placement probability the gate evaluated.
    pub probability: f64,
}

/// Decision tallies keyed by outcome: assignments plus one counter per
/// [`SkipReason`] variant, with the probabilistic placer's prune tally
/// alongside.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PlacerStats {
    /// Tasks assigned (`Decision::Assign` returned).
    pub assigned: u64,
    /// Skips per [`SkipReason`] variant, indexed by `reason as usize`.
    pub skips: [u64; SkipReason::COUNT],
    /// Candidates cost-ceiling-pruned before the probability evaluation.
    pub pruned: u64,
}

impl PlacerStats {
    /// Tally one decision outcome.
    pub fn record(&mut self, decision: Decision) {
        match decision {
            Decision::Assign(_) => self.assigned += 1,
            Decision::Skip(r) => self.skips[r as usize] += 1,
        }
    }

    /// Skip count for one reason.
    pub fn skipped(&self, reason: SkipReason) -> u64 {
        self.skips[reason as usize]
    }

    /// Total skips across all reasons.
    pub fn total_skips(&self) -> u64 {
        self.skips.iter().sum()
    }

    /// Total decisions recorded (assigns + skips).
    pub fn total_decisions(&self) -> u64 {
        self.assigned + self.total_skips()
    }
}

/// A task-level scheduling policy.
///
/// Implementations must be deterministic given the context and the provided
/// RNG — all randomness flows through `rng` so experiments are replayable.
pub trait TaskPlacer: Send {
    /// Human-readable policy name (used in experiment reports).
    fn name(&self) -> &'static str;

    /// Offer a free **map** slot on `node`. The context always lists `node`
    /// in `free_map_nodes` and has at least one candidate.
    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision;

    /// Offer a free **reduce** slot on `node`. The context always lists
    /// `node` in `free_reduce_nodes` and has at least one candidate.
    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision;

    /// Notification that a new heartbeat round begins (baselines with
    /// delay/postponement counters hook this; default no-op).
    fn on_heartbeat_round(&mut self, _round: u64) {}

    /// Decision tallies, if this placer keeps them (default: `None`).
    /// Lets harness code read counters without downcasting.
    fn stats(&self) -> Option<&PlacerStats> {
        None
    }

    /// Algorithm intermediates (`C_i`, `C_ave`, `P`) of the most recent
    /// `place_map`/`place_reduce` call, if this placer computes them
    /// (default: `None`). Read by the tracing layer right after a decision.
    fn last_detail(&self) -> Option<DecisionDetail> {
        None
    }
}

#[cfg(test)]
impl Decision {
    /// The skip reason, if the slot was declined.
    pub fn skip_reason(self) -> Option<SkipReason> {
        match self {
            Decision::Assign(_) => None,
            Decision::Skip(r) => Some(r),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessor() {
        assert_eq!(Decision::Assign(3).assigned(), Some(3));
        assert_eq!(Decision::Skip(SkipReason::NoCandidate).assigned(), None);
        assert_eq!(Decision::Assign(3).skip_reason(), None);
        assert_eq!(
            Decision::Skip(SkipReason::DrawFailed).skip_reason(),
            Some(SkipReason::DrawFailed)
        );
    }

    #[test]
    fn skip_reason_indices_match_all_order() {
        for (i, r) in SkipReason::ALL.iter().enumerate() {
            assert_eq!(*r as usize, i, "ALL order must match discriminants");
        }
    }

    #[test]
    fn skip_reason_labels_unique() {
        let mut labels: Vec<&str> = SkipReason::ALL.iter().map(|r| r.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), SkipReason::COUNT);
    }

    #[test]
    fn stats_record_keyed_by_reason() {
        let mut s = PlacerStats::default();
        s.record(Decision::Assign(0));
        s.record(Decision::Skip(SkipReason::BelowPMin));
        s.record(Decision::Skip(SkipReason::BelowPMin));
        s.record(Decision::Skip(SkipReason::Collocated));
        assert_eq!(s.assigned, 1);
        assert_eq!(s.skipped(SkipReason::BelowPMin), 2);
        assert_eq!(s.skipped(SkipReason::Collocated), 1);
        assert_eq!(s.total_skips(), 3);
        assert_eq!(s.total_decisions(), 4);
    }
}
