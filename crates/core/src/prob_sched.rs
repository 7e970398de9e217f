//! Algorithms 1 and 2: probabilistic network-aware map / reduce placement.
//!
//! Both algorithms run when a heartbeat advertises a free slot on node
//! `D_i`:
//!
//! 1. for every unassigned task, compute its cost `C` on `D_i` (Formula 1
//!    for maps, Formula 3 for reduces) and the expected cost `C_ave` of
//!    placing it uniformly on the currently-free-slot nodes;
//! 2. convert to a probability `P = 1 − e^{−C_ave/C}` (Formulas 4/5);
//! 3. take the task with the **largest** `P` — i.e. the task this node is
//!    most unusually good for;
//! 4. if `P < P_min`, leave the slot idle (some other node will be a much
//!    better home for every pending task);
//! 5. otherwise assign with probability `P` (a Bernoulli draw) — the
//!    probabilistic relaxation that trades a little locality for immediate
//!    resource use and fair access to good slots.
//!
//! Algorithm 2 additionally refuses to run two reduce tasks of one job on
//! the same node (I/O contention and downlink congestion; paper §II-D).
//!
//! `C`, `C_ave` and `P` are pure functions of (candidate, free set, cost
//! matrix) and are computed afresh for every candidate of every offer: the
//! placer keeps no per-candidate state, so a decision never depends on the
//! offers that came before it. With a [`CostView`] the mean is the
//! `O(classes)` class-compressed sum (`crate::costidx`); without one it is
//! the per-node mean. The paper's literal per-node transcription lives in
//! the tests (`crates/core/tests/spec`), and this placer must decide as it
//! does.
//!
//! Every decision is booked into a [`PlacerStats`] keyed by
//! [`SkipReason`], and the intermediates of the last decision (`C_i`,
//! `C_ave`, `P`) are exposed through
//! [`TaskPlacer::last_detail`] for the tracing layer.

use crate::context::{MapSchedContext, ReduceSchedContext};
use crate::cost::{
    map_cost, map_cost_avg, map_cost_avg_classed, reduce_class_base, reduce_cost,
    reduce_cost_avg, reduce_cost_avg_classed,
};
use crate::costidx::{audit_view, CostClasses, CostView};
use crate::estimate::IntermediateEstimator;
use crate::placer::{Decision, DecisionDetail, PlacerStats, SkipReason, TaskPlacer};
use crate::prob::ProbabilityModel;
use pnats_net::{NodeId, PathCost};
use rand::rngs::SmallRng;
use rand::Rng;

/// Tunables of the probabilistic network-aware scheduler.
#[derive(Clone, Copy, Debug)]
pub struct ProbConfig {
    /// `P_min`: below this best-candidate probability the slot is skipped.
    /// The paper selects 0.4 empirically (§III).
    pub p_min: f64,
    /// The probability model (paper default: exponential, Formula 4/5).
    pub model: ProbabilityModel,
    /// How reduce-side intermediate sizes are estimated (paper default:
    /// progress extrapolation, §II-B2).
    pub estimator: IntermediateEstimator,
}

impl Default for ProbConfig {
    fn default() -> Self {
        Self {
            p_min: 0.4,
            model: ProbabilityModel::Exponential,
            estimator: IntermediateEstimator::ProgressExtrapolated,
        }
    }
}

impl ProbConfig {
    /// Paper configuration with a different `P_min` (for the sweep that
    /// reproduces the paper's threshold selection).
    pub fn with_p_min(p_min: f64) -> Self {
        assert!((0.0..1.0).contains(&p_min), "P_min must be in [0,1)");
        Self { p_min, ..Self::default() }
    }
}

/// The paper's scheduler: Algorithm 1 for maps, Algorithm 2 for reduces.
#[derive(Clone, Debug)]
pub struct ProbabilisticPlacer {
    config: ProbConfig,
    /// `cost_ceiling(1, p_min)`: the ceiling is linear in `C_ave`, so a
    /// candidate satisfies `P ≥ P_min` iff `C ≤ C_ave · ceiling_factor`.
    /// Precomputed once; `+∞` when no finite cost can miss the threshold.
    ceiling_factor: f64,
    /// Class-index tables, shared by both algorithms: every runtime hands
    /// map and reduce contexts the same matrix.
    tables: ClassTables,
    /// Intermediates of the most recent gate evaluation.
    last_detail: Option<DecisionDetail>,
    /// Decision statistics (diagnostics; not used for scheduling).
    pub stats: PlacerStats,
}

/// Dense class-to-class tables derived from a [`CostClasses`] partition:
/// the `h` distance table (rebuilt per matrix revision) and the reduce-side
/// per-class free-set distance sums (rebuilt per free-set generation).
#[derive(Clone, Debug, Default)]
struct ClassTables {
    /// `(classes.version, n_classes)` the `h` table was built for.
    h_for: Option<(u64, usize)>,
    h: Vec<f64>,
    /// `(classes.version, free-set generation)` `base` was built for.
    base_for: Option<(u64, u64)>,
    base: Vec<f64>,
}

impl ClassTables {
    /// Validate an incoming [`CostView`] against `free` (debug builds only)
    /// and bring the class distance table up to the matrix revision.
    fn admit(&mut self, view: &CostView<'_>, free: &[NodeId], cost: &dyn PathCost, side: &str) {
        debug_assert_eq!(
            view.classes.version(),
            cost.version(),
            "{side}: class partition is for another matrix revision"
        );
        if cfg!(debug_assertions) {
            audit_view(view.classes, free, view, side);
        }
        self.ensure_h(view.classes, cost);
    }

    /// Rebuild the class distance table if the matrix revision moved.
    fn ensure_h(&mut self, classes: &CostClasses, cost: &dyn PathCost) {
        let key = (classes.version(), classes.n_classes());
        if self.h_for != Some(key) {
            self.h = classes.h_table(cost);
            self.h_for = Some(key);
            self.base_for = None;
        }
    }

    /// Rebuild the reduce base sums if the free-set generation moved.
    fn ensure_base(&mut self, classes: &CostClasses, counts: &[u32], generation: u64) {
        let key = (classes.version(), generation);
        if self.base_for != Some(key) {
            reduce_class_base(classes, &self.h, counts, &mut self.base);
            self.base_for = Some(key);
        }
    }
}

/// The prune must never reject a candidate the exact probability
/// computation would accept: compare against the ceiling inflated by one
/// part in 10¹², so boundary candidates fall through to the full formula.
const PRUNE_SLACK: f64 = 1.0 + 1e-12;

/// One offer's scoring pass over the candidates (Algorithm 1 line 7 /
/// Algorithm 2 line 8), plus what it observed besides the probabilities —
/// which decides the [`SkipReason`] when no candidate survives.
struct Scan<'a> {
    model: ProbabilityModel,
    /// `ceiling_factor · PRUNE_SLACK`.
    prune: f64,
    /// [`PlacerStats::pruned`].
    pruned: &'a mut u64,
    /// Some candidate was pruned by the `P_min` cost ceiling.
    below_threshold: bool,
    /// Some candidate's probability evaluated to NaN (non-finite costs).
    non_finite: bool,
}

impl<'a> Scan<'a> {
    fn new(model: ProbabilityModel, ceiling_factor: f64, pruned: &'a mut u64) -> Self {
        let prune = ceiling_factor * PRUNE_SLACK;
        Self { model, prune, pruned, below_threshold: false, non_finite: false }
    }

    /// The candidate's placement probability, or NaN — invisible to
    /// [`argmax_probability`] — when it cannot be scored or need not be.
    fn probability(&mut self, c_here: f64, c_ave: f64) -> f64 {
        // A NaN cost (poisoned metric) can be neither pruned nor
        // scored — flag it so the skip is reported as NonFiniteCost.
        // (±∞ is fine: the probability model maps it to 0 or 1.)
        if c_here.is_nan() || c_ave.is_nan() {
            self.non_finite = true;
            return f64::NAN;
        }
        // Cost-ceiling prune: `C > C_ave · ceiling` already implies
        // `P < P_min`, so skip the probability computation. All pruned
        // candidates are tallied as one below-`P_min` skip after the
        // argmax, exactly as the unpruned computation would decide.
        if c_here > c_ave * self.prune {
            self.below_threshold = true;
            *self.pruned += 1;
            return f64::NAN;
        }
        self.model.probability(c_ave, c_here)
    }

    /// The reason to report when `argmax_probability` found nothing.
    fn empty_scan_reason(&self) -> SkipReason {
        if self.below_threshold {
            // All candidates over the cost ceiling: exactly the decision the
            // unpruned computation would book as a below-`P_min` skip.
            SkipReason::BelowPMin
        } else if self.non_finite {
            SkipReason::NonFiniteCost
        } else {
            SkipReason::NoCandidate
        }
    }
}

impl ProbabilisticPlacer {
    /// A placer with the given configuration.
    pub fn new(config: ProbConfig) -> Self {
        Self {
            ceiling_factor: config.model.cost_ceiling(1.0, config.p_min),
            config,
            tables: ClassTables::default(),
            last_detail: None,
            stats: PlacerStats::default(),
        }
    }

    /// A placer with the paper's published configuration
    /// (`P_min = 0.4`, exponential model, progress extrapolation).
    pub fn paper() -> Self {
        Self::new(ProbConfig::default())
    }

    /// The active configuration.
    pub fn config(&self) -> ProbConfig {
        self.config
    }

    /// Shared tail of both algorithms: threshold gate + Bernoulli draw on
    /// the winning candidate. Does not touch `stats` — the `place_*`
    /// wrappers book the final decision exactly once.
    fn gate(&mut self, idx: usize, p: f64, rng: &mut SmallRng) -> Decision {
        // `argmax_probability` never yields NaN, but guard anyway: a NaN
        // must not burn an RNG draw or be miscounted as a failed draw
        // (both comparisons below are false for NaN).
        if p.is_nan() {
            return Decision::Skip(SkipReason::NonFiniteCost);
        }
        if p < self.config.p_min {
            return Decision::Skip(SkipReason::BelowPMin);
        }
        if rng.gen::<f64>() < p {
            Decision::Assign(idx)
        } else {
            Decision::Skip(SkipReason::DrawFailed)
        }
    }

    /// Algorithm 1 body; the trait wrapper books the decision.
    fn decide_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        if let Some(v) = &ctx.cost_view {
            self.tables.admit(v, ctx.free_map_nodes, ctx.cost, "map");
        }
        let tables = &self.tables;
        let mut scan = Scan::new(self.config.model, self.ceiling_factor, &mut self.stats.pruned);
        let best = argmax_probability(ctx.candidates.iter().map(|c| {
            let c_here = map_cost(c, node, ctx.cost); // line 4
            let c_ave = match &ctx.cost_view {
                Some(v) => map_cost_avg_classed(c, v.classes, &tables.h, v), // line 6
                None => map_cost_avg(c, ctx.free_map_nodes, ctx.cost),       // line 6
            };
            (scan.probability(c_here, c_ave), (c_here, c_ave)) // line 7
        }));
        let Some((idx, p, (cost, cost_avg))) = best else {
            return Decision::Skip(scan.empty_scan_reason());
        };
        self.last_detail = Some(DecisionDetail { cost, cost_avg, probability: p });
        self.gate(idx, p, rng) // lines 9-16
    }

    /// Algorithm 2 body; the trait wrapper books the decision.
    fn decide_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        // Line 1: refuse a second reduce task of this job on the node.
        if ctx.job_reduce_nodes.contains(&node) {
            return Decision::Skip(SkipReason::Collocated);
        }
        if let Some(v) = &ctx.cost_view {
            self.tables.admit(v, ctx.free_reduce_nodes, ctx.cost, "reduce");
            self.tables.ensure_base(v.classes, v.free_counts, v.generation);
        }
        let est = self.config.estimator;
        let tables = &self.tables;
        let mut scan = Scan::new(self.config.model, self.ceiling_factor, &mut self.stats.pruned);
        let best = argmax_probability(ctx.candidates.iter().map(|c| {
            let c_here = reduce_cost(c, node, ctx.cost, est); // line 5
            let c_ave = match &ctx.cost_view {
                Some(v) => reduce_cost_avg_classed(c, v.classes, &tables.base, v, est), // line 7
                None => reduce_cost_avg(c, ctx.free_reduce_nodes, ctx.cost, est),       // line 7
            };
            (scan.probability(c_here, c_ave), (c_here, c_ave)) // line 8
        }));
        let Some((idx, p, (cost, cost_avg))) = best else {
            return Decision::Skip(scan.empty_scan_reason());
        };
        self.last_detail = Some(DecisionDetail { cost, cost_avg, probability: p });
        self.gate(idx, p, rng) // lines 10-17
    }
}

/// Select the candidate with the largest probability, together with
/// whatever the scan carried alongside it; ties broken toward the lower
/// index (stable, deterministic). NaN probabilities are never selected: a
/// NaN arriving first would otherwise survive as "best" because `p > bp` is
/// false both ways against NaN.
fn argmax_probability<T>(scored: impl Iterator<Item = (f64, T)>) -> Option<(usize, f64, T)> {
    let mut best: Option<(usize, f64, T)> = None;
    for (i, (p, carried)) in scored.enumerate() {
        if p.is_nan() {
            continue;
        }
        if best.as_ref().is_none_or(|(_, bp, _)| p > *bp) {
            best = Some((i, p, carried));
        }
    }
    best
}

impl TaskPlacer for ProbabilisticPlacer {
    fn name(&self) -> &'static str {
        "probabilistic"
    }

    /// Algorithm 1.
    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        self.last_detail = None;
        let decision = self.decide_map(ctx, node, rng);
        self.stats.record(decision);
        decision
    }

    /// Algorithm 2.
    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        self.last_detail = None;
        let decision = self.decide_reduce(ctx, node, rng);
        self.stats.record(decision);
        decision
    }

    fn stats(&self) -> Option<&PlacerStats> {
        Some(&self.stats)
    }

    fn last_detail(&self) -> Option<DecisionDetail> {
        self.last_detail
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{MapCandidate, ReduceCandidate, ShuffleSource};
    use crate::types::{JobId, MapTaskId, ReduceTaskId};
    use pnats_net::{ClusterLayout, DistanceMatrix, RackId};
    use rand::SeedableRng;

    fn layout4() -> ClusterLayout {
        ClusterLayout::new(vec![RackId(0); 4])
    }

    fn mcand(i: u32, size: u64, replicas: Vec<NodeId>) -> MapCandidate {
        MapCandidate {
            task: MapTaskId { job: JobId(0), index: i },
            block_size: size,
            replicas,
        }
    }

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(99)
    }

    fn map_ctx<'a>(
        cands: &'a [MapCandidate],
        free: &'a [NodeId],
        cost: &'a DistanceMatrix,
        layout: &'a ClusterLayout,
    ) -> MapSchedContext<'a> {
        MapSchedContext::new(JobId(0), cands, free, cost, layout)
    }

    #[test]
    fn local_task_always_assigned() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![mcand(0, 128, vec![NodeId(2)])];
        let free = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        // P = 1 on the data node: assignment is certain regardless of seed.
        for seed in 0..20 {
            let mut rng = SmallRng::seed_from_u64(seed);
            assert_eq!(p.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(0));
        }
        assert_eq!(p.stats.assigned, 20);
        // The winner's intermediates are exposed for tracing.
        let d = p.last_detail().expect("detail after an assign");
        assert_eq!(d.cost, 0.0);
        assert_eq!(d.probability, 1.0);
    }

    #[test]
    fn prefers_task_this_node_is_best_for() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // Task 0's data is far from D2; task 1's data is on D2.
        let cands = vec![mcand(0, 128, vec![NodeId(1)]), mcand(1, 128, vec![NodeId(2)])];
        let free = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(p.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(1));
    }

    #[test]
    fn below_p_min_skips() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // Only task's data on D1. Offer the slot on D2: h(D2,D1) = 10,
        // while D1 itself is free (cost 0) — the average is dragged down so
        // the ratio (and probability) on D2 is small.
        let cands = vec![mcand(0, 128, vec![NodeId(1)])];
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        // C on D2 = 1280; C_ave = (0 + 1280)/2 = 640; ratio 0.5 ->
        // P = 1 - e^-0.5 ≈ 0.393 < 0.4.
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(
            p.place_map(&ctx, NodeId(2), &mut rng),
            Decision::Skip(SkipReason::BelowPMin)
        );
        assert_eq!(p.stats.skipped(SkipReason::BelowPMin), 1);
    }

    #[test]
    fn p_min_zero_still_draws_bernoulli() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![mcand(0, 128, vec![NodeId(1)])];
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::new(ProbConfig::with_p_min(0.0));
        // P ≈ 0.393: over many draws, both outcomes must occur.
        let mut rng = rng();
        let mut assigned = 0;
        let mut skipped = 0;
        for _ in 0..500 {
            match p.place_map(&ctx, NodeId(2), &mut rng) {
                Decision::Assign(_) => assigned += 1,
                Decision::Skip(r) => {
                    assert_eq!(r, SkipReason::DrawFailed);
                    skipped += 1;
                }
            }
        }
        assert!(assigned > 100, "assigned {assigned}");
        assert!(skipped > 100, "skipped {skipped}");
        assert_eq!(p.stats.skipped(SkipReason::DrawFailed), skipped);
        // Empirical rate close to 0.393.
        let rate = assigned as f64 / 500.0;
        assert!((rate - 0.393).abs() < 0.08, "rate {rate}");
    }

    #[test]
    fn assignment_rate_matches_formula_probability() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // C on D0 (replica at D2, h=2, B=128) = 256;
        // free = {D0, D2}: C_ave = (256 + 0)/2 = 128; ratio 0.5 — gate it
        // through p_min=0 and measure.
        let cands = vec![mcand(0, 128, vec![NodeId(2)])];
        let free = vec![NodeId(0), NodeId(2)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let expect = 1.0 - (-0.5f64).exp();
        let mut p = ProbabilisticPlacer::new(ProbConfig::with_p_min(0.0));
        let mut rng = rng();
        let n = 4000;
        let mut hits = 0;
        for _ in 0..n {
            if p.place_map(&ctx, NodeId(0), &mut rng).assigned().is_some() {
                hits += 1;
            }
        }
        let rate = hits as f64 / n as f64;
        assert!((rate - expect).abs() < 0.03, "rate {rate} vs {expect}");
    }

    fn rcand(i: u32, sources: Vec<ShuffleSource>) -> ReduceCandidate {
        ReduceCandidate { task: ReduceTaskId { job: JobId(0), index: i }, sources }
    }

    fn reduce_ctx<'a>(
        cands: &'a [ReduceCandidate],
        free: &'a [NodeId],
        running: &'a [NodeId],
        cost: &'a DistanceMatrix,
        layout: &'a ClusterLayout,
    ) -> ReduceSchedContext<'a> {
        ReduceSchedContext::new(JobId(0), cands, free, cost, layout)
            .running_on(running)
            .map_phase(0.5, 1, 2)
            .reduce_phase(0, 1)
    }

    #[test]
    fn reduce_collocation_constraint() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![rcand(
            0,
            vec![ShuffleSource { node: NodeId(0), current_bytes: 10.0, input_read: 1, input_total: 1 }],
        )];
        let free = vec![NodeId(0), NodeId(1)];
        let running = vec![NodeId(0)];
        let ctx = reduce_ctx(&cands, &free, &running, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        // D0 would be free and perfect (cost 0) but already runs a reduce
        // of this job.
        assert_eq!(
            p.place_reduce(&ctx, NodeId(0), &mut rng),
            Decision::Skip(SkipReason::Collocated)
        );
        assert_eq!(p.stats.skipped(SkipReason::Collocated), 1);
    }

    #[test]
    fn reduce_on_source_node_is_certain() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![rcand(
            0,
            vec![ShuffleSource { node: NodeId(3), current_bytes: 10.0, input_read: 1, input_total: 1 }],
        )];
        let free = vec![NodeId(1), NodeId(3)];
        let ctx = reduce_ctx(&cands, &free, &[], &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(p.place_reduce(&ctx, NodeId(3), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn reduce_with_no_map_output_is_free_everywhere() {
        // Before any map produces output, all costs are 0 => P = 1: the
        // scheduler launches reduces eagerly (slow-start gating is the
        // runtime's job, not the placer's).
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![rcand(0, vec![])];
        let free = vec![NodeId(0), NodeId(1)];
        let ctx = reduce_ctx(&cands, &free, &[], &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(p.place_reduce(&ctx, NodeId(1), &mut rng), Decision::Assign(0));
    }

    #[test]
    fn estimator_changes_reduce_choice() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        // Recreate §II-B2's example: R could join M1@D0 (90% done, 5MB) or
        // M2@D3 (10% done, 1MB now, 10MB final). Candidate reduce tasks are
        // per-partition; here one task, two sources. The *placement node*
        // choice is what differs: offer slot on D3.
        let sources = vec![
            ShuffleSource { node: NodeId(0), current_bytes: 5.0, input_read: 90, input_total: 100 },
            ShuffleSource { node: NodeId(3), current_bytes: 1.0, input_read: 10, input_total: 100 },
        ];
        let cands = vec![rcand(0, sources)];
        let free = vec![NodeId(0), NodeId(3)];
        let ctx = reduce_ctx(&cands, &free, &[], &h, &layout);

        // Extrapolated: on D3 cost = Î(M1)·h(0,3) = 5.56·8 ≈ 44.4;
        //               on D0 cost = Î(M2)·h(3,0) = 10·8 = 80.
        // So D3 is below-average -> high probability there.
        let mut ext = ProbabilisticPlacer::new(ProbConfig {
            p_min: 0.5,
            ..ProbConfig::default()
        });
        let mut rng = rng();
        assert_eq!(ext.place_reduce(&ctx, NodeId(3), &mut rng), Decision::Assign(0));

        // Current-size: on D3 cost = 5·8 = 40; on D0 cost = 1·8 = 8.
        // Now D3 looks *worse* than average ((40+8)/2=24; ratio 0.6,
        // P ≈ 0.45 < 0.5) -> skipped.
        let mut cur = ProbabilisticPlacer::new(ProbConfig {
            p_min: 0.5,
            estimator: IntermediateEstimator::CurrentSize,
            ..ProbConfig::default()
        });
        assert_eq!(
            cur.place_reduce(&ctx, NodeId(3), &mut rng),
            Decision::Skip(SkipReason::BelowPMin)
        );
    }

    #[test]
    #[should_panic(expected = "P_min must be in [0,1)")]
    fn bad_p_min_rejected() {
        ProbConfig::with_p_min(1.5);
    }

    #[test]
    fn argmax_never_selects_nan() {
        // NaN first: must not survive as "best".
        let argmax = |ps: &[f64]| argmax_probability(ps.iter().map(|&p| (p, ())));
        assert_eq!(argmax(&[f64::NAN, 0.3, 0.7]), Some((2, 0.7, ())));
        // NaN after a real value: must not displace it.
        assert_eq!(argmax(&[0.9, f64::NAN]), Some((0, 0.9, ())));
        // All NaN: no candidate at all.
        assert_eq!(argmax(&[f64::NAN, f64::NAN]), None);
        assert_eq!(argmax(&[]), None);
    }

    #[test]
    fn gate_skips_nan_without_stats_or_rng_draw() {
        let mut p = ProbabilisticPlacer::paper();
        let mut gated = rng();
        assert_eq!(
            p.gate(0, f64::NAN, &mut gated),
            Decision::Skip(SkipReason::NonFiniteCost)
        );
        // `gate` itself never books stats (the `place_*` wrappers do).
        assert_eq!(p.stats.total_decisions(), 0);
        // The RNG stream must be untouched by the NaN path.
        let mut fresh = rng();
        assert_eq!(gated.gen::<f64>(), fresh.gen::<f64>());
    }

    /// A poisoned metric: every path cost is NaN.
    struct NanCost(usize);

    impl pnats_net::PathCost for NanCost {
        fn path_cost(&self, _: NodeId, _: NodeId) -> f64 {
            f64::NAN
        }

        fn n_nodes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn non_finite_costs_reported_as_such() {
        // Poison every path cost: no candidate can be scored, so the skip
        // must be booked as NonFiniteCost, not BelowPMin.
        let h = NanCost(4);
        let layout = layout4();
        let cands = vec![mcand(0, 128, vec![NodeId(1)])];
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = MapSchedContext::new(JobId(0), &cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(
            p.place_map(&ctx, NodeId(2), &mut rng),
            Decision::Skip(SkipReason::NonFiniteCost)
        );
        assert_eq!(p.stats.skipped(SkipReason::NonFiniteCost), 1);
    }

    #[test]
    fn detail_cost_avg_is_the_winners_mean() {
        // Without a `CostView`, the traced `C_ave` is exactly the per-node
        // mean of the *winning* candidate, bit for bit — carried out of the
        // scoring scan, not looked up or recomputed afterwards.
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let free = vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3)];
        let cands = vec![mcand(0, 128, vec![NodeId(1)]), mcand(1, 64, vec![NodeId(2)])];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(p.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(1));
        let d = p.last_detail().expect("detail after an assign");
        assert_eq!(d.cost.to_bits(), map_cost(&cands[1], NodeId(2), &h).to_bits());
        assert_eq!(d.cost_avg.to_bits(), map_cost_avg(&cands[1], &free, &h).to_bits());

        let est = IntermediateEstimator::ProgressExtrapolated;
        let src = |node, bytes| ShuffleSource {
            node: NodeId(node),
            current_bytes: bytes,
            input_read: 30,
            input_total: 70,
        };
        let rcands = vec![
            rcand(0, vec![src(0, 5.0), src(1, 7.0)]),
            rcand(1, vec![src(3, 9.0), src(2, 0.3)]),
        ];
        let ctx = reduce_ctx(&rcands, &free, &[], &h, &layout);
        assert_eq!(p.place_reduce(&ctx, NodeId(3), &mut rng), Decision::Assign(1));
        let d = p.last_detail().expect("detail after an assign");
        assert_eq!(d.cost.to_bits(), reduce_cost(&rcands[1], NodeId(3), &h, est).to_bits());
        assert_eq!(d.cost_avg.to_bits(), reduce_cost_avg(&rcands[1], &free, &h, est).to_bits());
    }

    #[test]
    fn prune_preserves_below_p_min_accounting() {
        // Same scenario as `below_p_min_skips`: the only candidate is over
        // the cost ceiling, so it is pruned without a probability
        // computation — yet the skip must still be booked as below-P_min.
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![mcand(0, 128, vec![NodeId(1)])];
        let free = vec![NodeId(1), NodeId(2)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(
            p.place_map(&ctx, NodeId(2), &mut rng),
            Decision::Skip(SkipReason::BelowPMin)
        );
        assert_eq!(p.stats.skipped(SkipReason::BelowPMin), 1);
        assert_eq!(p.stats.pruned, 1, "the 1280 > 640·1.96 candidate should be pruned");
    }

    #[test]
    fn stats_accessible_through_trait_object() {
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let cands = vec![mcand(0, 128, vec![NodeId(2)])];
        let free = vec![NodeId(2)];
        let ctx = map_ctx(&cands, &free, &h, &layout);
        let mut boxed: Box<dyn TaskPlacer> = Box::new(ProbabilisticPlacer::paper());
        let mut rng = rng();
        assert_eq!(boxed.place_map(&ctx, NodeId(2), &mut rng), Decision::Assign(0));
        let stats = boxed.stats().expect("probabilistic placer keeps stats");
        assert_eq!(stats.assigned, 1);
        assert_eq!(stats.total_decisions(), 1);
    }

    #[test]
    fn zero_progress_source_keeps_reduce_placeable() {
        // Regression: a just-started map (output bytes visible before its
        // read counter) used to extrapolate to ∞/NaN and poison the whole
        // candidate. The cost must stay finite and the probability valid.
        let h = DistanceMatrix::paper_figure2();
        let layout = layout4();
        let sources = vec![
            ShuffleSource { node: NodeId(0), current_bytes: 3.0, input_read: 0, input_total: 100 },
            ShuffleSource { node: NodeId(3), current_bytes: 10.0, input_read: 50, input_total: 100 },
        ];
        let est = IntermediateEstimator::ProgressExtrapolated;
        let cands = vec![rcand(0, sources)];
        let free = vec![NodeId(0), NodeId(3)];
        let ctx = reduce_ctx(&cands, &free, &[], &h, &layout);

        let c_here = reduce_cost(&cands[0], NodeId(0), &h, est);
        assert!(c_here.is_finite(), "cost poisoned: {c_here}");
        let c_ave = reduce_cost_avg(&cands[0], &free, &h, est);
        assert!(c_ave.is_finite(), "avg cost poisoned: {c_ave}");
        let prob = ProbabilityModel::Exponential.probability(c_ave, c_here);
        assert!(!prob.is_nan(), "probability NaN");
        assert!((0.0..=1.0).contains(&prob), "probability out of range: {prob}");

        // The zero-progress source is on D0; the real data is on D3, so the
        // D3 offer must still be accepted (its cost is below average).
        let mut p = ProbabilisticPlacer::paper();
        let mut rng = rng();
        assert_eq!(p.place_reduce(&ctx, NodeId(3), &mut rng), Decision::Assign(0));
    }
}
