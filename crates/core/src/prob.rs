//! Placement probability models (paper Formulas 4/5 and §V future work).
//!
//! Given a candidate's cost `C` on the offered node and the expected cost
//! `C_ave` of assigning it uniformly over the free-slot nodes, the paper
//! maps the ratio to an assignment probability
//!
//! ```text
//! P = 1 − e^{−C_ave / C}        (P = 1 when C = 0)
//! ```
//!
//! so cheap-relative-to-average placements are taken eagerly and expensive
//! ones are usually declined, leaving the slot to a later, better-suited
//! task. The paper's §V explicitly flags "various probabilistic computation
//! models" as future work, so the model is pluggable: all variants here are
//! monotone non-decreasing in the ratio `C_ave / C`, equal 1 at `C = 0`,
//! and fall toward 0 as the candidate gets pricier than average.

/// A map from the cost ratio to an assignment probability.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ProbabilityModel {
    /// The paper's model: `P = 1 − e^{−ratio}`. Ratio 1 (candidate exactly
    /// average) gives P ≈ 0.632.
    #[default]
    Exponential,
    /// `P = ratio / (1 + ratio)`; heavier-tailed, ratio 1 gives 0.5.
    Reciprocal,
    /// `P = min(1, ratio / 2)`; linear ramp saturating at twice-better-than-
    /// average, ratio 1 gives 0.5.
    Linear,
    /// Logistic in `ln(ratio)`: `P = ratio / (ratio + e^{−ratio}) …`
    /// concretely `P = 1 / (1 + e^{1 − ratio})`; sharper switch around
    /// ratio 1 than the exponential.
    Sigmoid,
}

impl ProbabilityModel {
    /// Probability of assigning a candidate of cost `cost` when the uniform
    /// expected cost is `cost_avg`.
    ///
    /// Conventions shared by all models (matching Algorithm 1's handling):
    /// * `cost == 0` (data-local placement) → probability 1;
    /// * `cost == +∞` → probability 0;
    /// * `cost_avg == +∞` with finite `cost` → probability 1 (every
    ///   alternative is unreachable; this node is strictly better).
    pub fn probability(self, cost_avg: f64, cost: f64) -> f64 {
        debug_assert!(cost >= 0.0 && cost_avg >= 0.0);
        if cost == 0.0 {
            return 1.0;
        }
        if cost.is_infinite() {
            return 0.0;
        }
        if cost_avg.is_infinite() {
            return 1.0;
        }
        let ratio = cost_avg / cost;
        let p = match self {
            ProbabilityModel::Exponential => 1.0 - (-ratio).exp(),
            ProbabilityModel::Reciprocal => ratio / (1.0 + ratio),
            ProbabilityModel::Linear => (ratio / 2.0).min(1.0),
            ProbabilityModel::Sigmoid => 1.0 / (1.0 + (1.0 - ratio).exp()),
        };
        p.clamp(0.0, 1.0)
    }

    /// The cost ceiling implied by a probability threshold: a candidate is
    /// assignable (`P ≥ p_min`) iff `cost ≤ ceiling(cost_avg, p_min)`.
    ///
    /// For the exponential model the paper derives
    /// `C ≤ C_ave / (−ln(1 − P_min))`.
    pub fn cost_ceiling(self, cost_avg: f64, p_min: f64) -> f64 {
        assert!((0.0..1.0).contains(&p_min));
        if p_min == 0.0 {
            return f64::INFINITY;
        }
        match self {
            ProbabilityModel::Exponential => cost_avg / -(1.0 - p_min).ln(),
            ProbabilityModel::Reciprocal => cost_avg * (1.0 - p_min) / p_min,
            ProbabilityModel::Linear => cost_avg / (2.0 * p_min),
            ProbabilityModel::Sigmoid => {
                // P = 1/(1+e^{1-r})  =>  r = 1 - ln(1/P - 1)
                let r = 1.0 - (1.0 / p_min - 1.0).ln();
                if r <= 0.0 {
                    // Even a zero ratio gives P = 1/(1+e) >= p_min: every
                    // finite cost passes, so there is no ceiling.
                    f64::INFINITY
                } else {
                    cost_avg / r
                }
            }
        }
    }

    /// All models, for sweeps.
    pub const ALL: [ProbabilityModel; 4] = [
        ProbabilityModel::Exponential,
        ProbabilityModel::Reciprocal,
        ProbabilityModel::Linear,
        ProbabilityModel::Sigmoid,
    ];

    /// Short machine-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ProbabilityModel::Exponential => "exponential",
            ProbabilityModel::Reciprocal => "reciprocal",
            ProbabilityModel::Linear => "linear",
            ProbabilityModel::Sigmoid => "sigmoid",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_cost_is_certain_for_all_models() {
        for m in ProbabilityModel::ALL {
            assert_eq!(m.probability(5.0, 0.0), 1.0, "{m:?}");
            assert_eq!(m.probability(0.0, 0.0), 1.0, "{m:?}");
        }
    }

    #[test]
    fn infinite_cost_is_never_assigned() {
        for m in ProbabilityModel::ALL {
            assert_eq!(m.probability(5.0, f64::INFINITY), 0.0, "{m:?}");
        }
    }

    #[test]
    fn infinite_average_is_certain() {
        for m in ProbabilityModel::ALL {
            assert_eq!(m.probability(f64::INFINITY, 5.0), 1.0, "{m:?}");
        }
    }

    #[test]
    fn exponential_matches_formula_4() {
        let m = ProbabilityModel::Exponential;
        // ratio 1
        assert!((m.probability(10.0, 10.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // ratio 2
        assert!((m.probability(20.0, 10.0) - (1.0 - (-2.0f64).exp())).abs() < 1e-12);
    }

    #[test]
    fn all_models_monotone_in_ratio() {
        for m in ProbabilityModel::ALL {
            let mut last = 0.0;
            for r in [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 50.0] {
                let p = m.probability(r, 1.0);
                assert!(p >= last - 1e-12, "{m:?} not monotone at ratio {r}");
                assert!((0.0..=1.0).contains(&p));
                last = p;
            }
        }
    }

    #[test]
    fn models_scale_invariant() {
        // Probability depends only on the ratio.
        for m in ProbabilityModel::ALL {
            let p1 = m.probability(3.0, 7.0);
            let p2 = m.probability(300.0, 700.0);
            assert!((p1 - p2).abs() < 1e-12, "{m:?}");
        }
    }

    #[test]
    fn exponential_cost_ceiling_matches_paper_inequality() {
        // Paper: P >= P_min  <=>  C <= C_ave / (−ln(1 − P_min)).
        let m = ProbabilityModel::Exponential;
        let c_ave = 100.0;
        let p_min = 0.4;
        let ceiling = m.cost_ceiling(c_ave, p_min);
        assert!(m.probability(c_ave, ceiling) - p_min < 1e-9);
        assert!(m.probability(c_ave, ceiling * 0.99) > p_min);
        assert!(m.probability(c_ave, ceiling * 1.01) < p_min);
    }

    #[test]
    fn ceilings_consistent_with_probability_for_all_models() {
        for m in ProbabilityModel::ALL {
            for p_min in [0.1, 0.4, 0.7] {
                let c = m.cost_ceiling(50.0, p_min);
                if c.is_finite() {
                    assert!(
                        (m.probability(50.0, c) - p_min).abs() < 1e-9,
                        "{m:?} pmin={p_min}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_p_min_allows_everything() {
        for m in ProbabilityModel::ALL {
            assert!(m.cost_ceiling(10.0, 0.0).is_infinite());
        }
    }

    #[test]
    fn labels_unique() {
        let mut labels: Vec<_> = ProbabilityModel::ALL.iter().map(|m| m.label()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 4);
    }
}
