//! The paper as an executable specification.
//!
//! Formulas 1–3, the mean `C_ave` over the free-slot nodes, Formulas 4/5,
//! the argmax, the `P_min` skip, one Bernoulli draw and Algorithm 2's
//! one-reduce-per-node-per-job rule — each written as the per-node loop
//! the paper states, with no classes, candidate windows, caches or
//! pruning. Only the paper's configuration is transcribed: the exponential
//! model and progress extrapolation.
//!
//! The production placer (`pnats_core::ProbabilisticPlacer`) must decide
//! as this does; where the two are allowed to differ (float rounding of a
//! probability right at a boundary) is [`Verdict::near_boundary`]. Test
//! crates include this file with `#[path]`; [`checked`] wraps a production
//! placer so that every offer of a whole simulation is held to the spec.
//! [`derive_classes`] partitions any matrix for the class index, straight
//! from the definition of a class.
#![allow(dead_code)]

pub mod checked;

use pnats_core::{
    CostClasses, Decision, MapCandidate, MapSchedContext, ReduceCandidate, ReduceSchedContext, ShuffleSource,
    SkipReason,
};
use pnats_net::{NodeId, PathCost};
use rand::rngs::SmallRng;
use rand::Rng;

/// Formula 1: `C_m(i,j) = B_j · min_{l : L_lj = 1} h_il`.
pub fn map_cost(c: &MapCandidate, i: NodeId, h: &dyn PathCost) -> f64 {
    let mut nearest = f64::INFINITY;
    for &l in &c.replicas {
        nearest = nearest.min(h.path_cost(i, l));
    }
    c.block_size as f64 * nearest
}

/// Formula 2: `Î_jf = A_jf · B_j / d_read^j`. A map that has read nothing
/// yet gives nothing to extrapolate from, and counts 0.
pub fn intermediate(s: &ShuffleSource) -> f64 {
    if s.input_read == 0 {
        return 0.0;
    }
    s.current_bytes * (s.input_total as f64 / s.input_read as f64)
}

/// Formula 3: `C_r(i,f) = Σ_j Σ_p x_jp · h_pi · Î_jf`, one term per placed
/// map (`x_jp = 1` for the node `p` it was placed on).
pub fn reduce_cost(c: &ReduceCandidate, i: NodeId, h: &dyn PathCost) -> f64 {
    let mut sum = 0.0;
    for s in &c.sources {
        sum += intermediate(s) * h.path_cost(s.node, i);
    }
    sum
}

/// Algorithm 1 line 6 / Algorithm 2 line 7: `C_ave = Σ_{k=1}^{N} C(k) / N`
/// over the `N` nodes with a free slot.
pub fn mean_over(free: &[NodeId], cost_on: impl Fn(NodeId) -> f64) -> f64 {
    let mut sum = 0.0;
    for &k in free {
        sum += cost_on(k);
    }
    sum / free.len() as f64
}

/// Formulas 4/5: `P = 1 − e^{−C_ave/C_i}`, and `P = 1` at `C_i = 0`.
pub fn probability(c_ave: f64, c_i: f64) -> f64 {
    if c_i == 0.0 {
        return 1.0;
    }
    1.0 - (-(c_ave / c_i)).exp()
}

/// One offer as the spec decides it, with what it saw on the way.
#[derive(Clone, Debug)]
pub struct Verdict {
    pub decision: Decision,
    /// Per candidate: `C_i` on the offered node.
    pub c_i: Vec<f64>,
    /// Per candidate: `C_ave` over the free-slot nodes.
    pub c_ave: Vec<f64>,
    /// Per candidate: `P`.
    pub p: Vec<f64>,
    /// The argmax of `P` (ties to the lower index).
    pub best: Option<usize>,
    /// The Bernoulli draw, when one was made.
    pub draw: Option<f64>,
}

impl Verdict {
    /// Whether the winner's `P` lies within `eps` of `P_min`, of a
    /// runner-up's `P` or of the draw — where rounding may decide.
    pub fn near_boundary(&self, p_min: f64, eps: f64) -> bool {
        let Some(b) = self.best else { return false };
        let p = self.p[b];
        let near = |x: f64| (p - x).abs() <= eps;
        near(p_min)
            || self.p.iter().enumerate().any(|(k, &q)| k != b && near(q))
            || self.draw.is_some_and(near)
    }
}

/// Algorithms 1/2 from the scoring line on, given every candidate's
/// `(C_i, C_ave)`: argmax, `P_min` skip, one Bernoulli draw.
fn decide(costs: impl Iterator<Item = (f64, f64)>, p_min: f64, rng: &mut SmallRng) -> Verdict {
    let (mut c_i, mut c_ave, mut p) = (Vec::new(), Vec::new(), Vec::new());
    let mut best: Option<usize> = None;
    for (k, (here, ave)) in costs.enumerate() {
        let pk = probability(ave, here);
        if best.is_none_or(|b| pk > p[b]) {
            best = Some(k);
        }
        c_i.push(here);
        c_ave.push(ave);
        p.push(pk);
    }
    let mut draw = None;
    let decision = match best {
        None => Decision::Skip(SkipReason::NoCandidate),
        Some(b) if p[b] < p_min => Decision::Skip(SkipReason::BelowPMin),
        Some(b) => {
            let u = rng.gen::<f64>();
            draw = Some(u);
            if u < p[b] {
                Decision::Assign(b)
            } else {
                Decision::Skip(SkipReason::DrawFailed)
            }
        }
    };
    Verdict { decision, c_i, c_ave, p, best, draw }
}

/// Algorithm 1: offer a free map slot on node `i`.
pub fn place_map(ctx: &MapSchedContext<'_>, i: NodeId, p_min: f64, rng: &mut SmallRng) -> Verdict {
    let (h, free) = (ctx.cost, ctx.free_map_nodes);
    let costs =
        ctx.candidates.iter().map(|c| (map_cost(c, i, h), mean_over(free, |k| map_cost(c, k, h))));
    decide(costs, p_min, rng)
}

/// Algorithm 2: offer a free reduce slot on node `i`. Line 1 refuses a
/// second reduce of the job on one node before anything is scored.
pub fn place_reduce(
    ctx: &ReduceSchedContext<'_>,
    i: NodeId,
    p_min: f64,
    rng: &mut SmallRng,
) -> Verdict {
    if ctx.job_reduce_nodes.contains(&i) {
        let mut nothing_scored = decide(std::iter::empty(), p_min, rng);
        nothing_scored.decision = Decision::Skip(SkipReason::Collocated);
        return nothing_scored;
    }
    let (h, free) = (ctx.cost, ctx.free_reduce_nodes);
    let costs = ctx
        .candidates
        .iter()
        .map(|c| (reduce_cost(c, i, h), mean_over(free, |k| reduce_cost(c, k, h))));
    decide(costs, p_min, rng)
}

/// The path-cost equivalence partition the class index sums over: nodes
/// `i` and `j` share a class iff swapping them changes no path cost — that
/// is, `h(i,j) = h(j,i)`, `h(i,i) = h(j,j)`, and `h(i,k) = h(j,k)` and
/// `h(k,i) = h(k,j)` for every other node `k`. Swaps compose, so this is an
/// equivalence, and each node need only be tried against the lowest-id
/// member of each class so far. A NaN entry equals nothing, so a
/// NaN-poisoned row never aliases two nodes.
pub fn derive_classes(h: &dyn PathCost) -> CostClasses {
    let n = h.n_nodes();
    let at = |a: usize, b: usize| h.path_cost(NodeId(a as u32), NodeId(b as u32));
    let swappable = |i: usize, j: usize| {
        at(i, j) == at(j, i)
            && at(i, i) == at(j, j)
            && (0..n)
                .filter(|&k| k != i && k != j)
                .all(|k| at(i, k) == at(j, k) && at(k, i) == at(k, j))
    };
    let mut lowest: Vec<usize> = Vec::new();
    let mut class_of: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let label = match lowest.iter().find(|&&r| swappable(i, r)) {
            Some(&r) => class_of[r],
            None => {
                lowest.push(i);
                i as u32
            }
        };
        class_of.push(label);
    }
    CostClasses::from_class_map(&class_of, h)
}
