//! [`SpecChecked`]: a production placer held to the spec on every offer.
//!
//! The wrapper is transparent — it forwards every call and draws from the
//! run's RNG only through the placer it wraps — so a run under it yields
//! the same bytes as a plain run. On every offer it asserts:
//!
//! * the incoming [`CostView`](pnats_core::CostView) passes
//!   [`audit_view`] (its counts, bits and total are a recount of the free
//!   list);
//! * every candidate's classed `C_ave` is within [`REL_EPS`] of the spec's
//!   per-node mean, and the winner's traced `C_i` / `C_ave` are the spec's
//!   — which is where a stale class table (a free-set change whose
//!   generation bump went missing) shows;
//! * the [`Decision`] and the RNG state afterwards are the spec's, except
//!   where the winner's `P` lies within [`P_EPS`] of `P_min`, of the
//!   runner-up or of the draw. Those offers are counted in
//!   [`Tally::tolerated`], not failed.
//!
//! [`Tally::viewed`] counts the offers that carried a
//! [`CostView`](pnats_core::CostView), so a run can pin which `C_ave` path
//! its metric took.

use super::{place_map, place_reduce, Verdict};
use pnats_core::cost::{map_cost_avg_classed, reduce_class_base, reduce_cost_avg_classed};
use pnats_core::costidx::audit_view;
use pnats_core::placer::PlacerStats;
use pnats_core::{
    Decision, DecisionDetail, IntermediateEstimator, MapSchedContext, ProbabilisticPlacer,
    ProbabilityModel, ReduceSchedContext, TaskPlacer,
};
use pnats_net::NodeId;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Relative tolerance between a classed `C_ave` and the per-node mean:
/// the two sum in different orders.
pub const REL_EPS: f64 = 1e-9;

/// How close two probabilities must be for rounding to decide between
/// them.
pub const P_EPS: f64 = 1e-9;

/// What a [`SpecChecked`] run saw, readable after the simulation has taken
/// the placer.
#[derive(Debug, Default)]
pub struct Tally {
    /// Offers checked.
    pub offers: AtomicU64,
    /// Offers where production and spec disagreed within [`P_EPS`] of a
    /// boundary.
    pub tolerated: AtomicU64,
    /// Offers that carried a class index.
    pub viewed: AtomicU64,
}

impl Tally {
    pub fn offers(&self) -> u64 {
        self.offers.load(Ordering::Relaxed)
    }

    pub fn tolerated(&self) -> u64 {
        self.tolerated.load(Ordering::Relaxed)
    }

    pub fn viewed(&self) -> u64 {
        self.viewed.load(Ordering::Relaxed)
    }
}

/// A placer whose every decision is checked against the spec.
pub struct SpecChecked<P> {
    inner: P,
    p_min: f64,
    tally: Arc<Tally>,
}

impl SpecChecked<ProbabilisticPlacer> {
    /// Hold `inner` to the spec; it must run the paper's configuration
    /// (the only one the spec transcribes).
    pub fn new(inner: ProbabilisticPlacer) -> Self {
        let config = inner.config();
        assert_eq!(config.model, ProbabilityModel::Exponential);
        assert_eq!(config.estimator, IntermediateEstimator::ProgressExtrapolated);
        Self::wrap(inner, config.p_min)
    }
}

impl<P: TaskPlacer> SpecChecked<P> {
    /// Hold any placer to the spec at threshold `p_min`.
    pub fn wrap(inner: P, p_min: f64) -> Self {
        Self { inner, p_min, tally: Arc::default() }
    }

    /// The shared tally, to read after the run.
    pub fn tally(&self) -> Arc<Tally> {
        Arc::clone(&self.tally)
    }

    /// Compare one production decision with the spec's.
    fn judge(
        &self,
        side: &str,
        want: &Verdict,
        spec_rng: &SmallRng,
        got: Decision,
        rng: &SmallRng,
    ) {
        self.tally.offers.fetch_add(1, Ordering::Relaxed);
        let near = want.near_boundary(self.p_min, P_EPS);
        let same_rng = spec_rng.clone().gen::<u64>() == rng.clone().gen::<u64>();
        if got == want.decision && same_rng {
            if let (Some(b), Some(d), false) = (want.best, self.inner.last_detail(), near) {
                assert_close(side, "winner C_i", d.cost, want.c_i[b]);
                assert_close(side, "winner C_ave", d.cost_avg, want.c_ave[b]);
            }
            return;
        }
        let p = want.best.map(|b| want.p[b]);
        assert!(
            near,
            "{side}: production decided {got:?} (RNG moved alike: {same_rng}), the spec \
             {:?}; spec P {p:?}, |P − P_min| = {:?}, draw {:?}",
            want.decision,
            p.map(|p| (p - self.p_min).abs()),
            want.draw,
        );
        self.tally.tolerated.fetch_add(1, Ordering::Relaxed);
    }
}

/// `a` within [`REL_EPS`] of `b` (infinities must match exactly).
fn assert_close(side: &str, what: &str, a: f64, b: f64) {
    let ok = if a.is_infinite() || b.is_infinite() {
        a == b
    } else {
        (a - b).abs() <= REL_EPS * b.abs().max(1.0)
    };
    assert!(ok, "{side}: production {what} {a} diverged from the spec's {b}");
}

impl<P: TaskPlacer> TaskPlacer for SpecChecked<P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn place_map(
        &mut self,
        ctx: &MapSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let mut spec_rng = rng.clone();
        let want = place_map(ctx, node, self.p_min, &mut spec_rng);
        if let Some(v) = &ctx.cost_view {
            self.tally.viewed.fetch_add(1, Ordering::Relaxed);
            audit_view(v.classes, ctx.free_map_nodes, v, "map");
            let h = v.classes.h_table(ctx.cost);
            for (c, &mean) in ctx.candidates.iter().zip(&want.c_ave) {
                assert_close(
                    "map",
                    "classed C_ave",
                    map_cost_avg_classed(c, v.classes, &h, v),
                    mean,
                );
            }
        }
        let got = self.inner.place_map(ctx, node, rng);
        self.judge("map", &want, &spec_rng, got, rng);
        got
    }

    fn place_reduce(
        &mut self,
        ctx: &ReduceSchedContext<'_>,
        node: NodeId,
        rng: &mut SmallRng,
    ) -> Decision {
        let mut spec_rng = rng.clone();
        let want = place_reduce(ctx, node, self.p_min, &mut spec_rng);
        if let Some(v) = &ctx.cost_view {
            self.tally.viewed.fetch_add(1, Ordering::Relaxed);
            audit_view(v.classes, ctx.free_reduce_nodes, v, "reduce");
            let h = v.classes.h_table(ctx.cost);
            let mut base = Vec::new();
            reduce_class_base(v.classes, &h, v.free_counts, &mut base);
            let est = IntermediateEstimator::ProgressExtrapolated;
            for (c, &mean) in ctx.candidates.iter().zip(&want.c_ave) {
                let ave = reduce_cost_avg_classed(c, v.classes, &base, v, est);
                assert_close("reduce", "classed C_ave", ave, mean);
            }
        }
        let got = self.inner.place_reduce(ctx, node, rng);
        self.judge("reduce", &want, &spec_rng, got, rng);
        got
    }

    fn on_heartbeat_round(&mut self, round: u64) {
        self.inner.on_heartbeat_round(round);
    }

    fn stats(&self) -> Option<&PlacerStats> {
        self.inner.stats()
    }

    fn last_detail(&self) -> Option<DecisionDetail> {
        self.inner.last_detail()
    }
}
