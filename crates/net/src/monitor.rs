//! Path transmission-rate monitoring (paper §II-B3, "Considering Network
//! Condition").
//!
//! The paper proposes replacing each hop count `h_ab` in the distance matrix
//! with "the inverse of the transmission rate of the path from node `D_a` to
//! `D_b`", observed via link status monitoring or active path measurement
//! (their citation \[16\], Choreo). [`RateMonitor`] is that observer: it keeps
//! an EWMA of per-path achieved rates, fed either by the simulator's fluid
//! flow model or by the threaded engine's transfer timings.
//!
//! Two cost views are derived from it:
//!
//! * [`RateMonitor::inverse_rate_matrix`] — the literal §II-B3 matrix,
//!   `nominal_rate / rate(a→b)` (dimensionless; 1.0 on an uncongested
//!   path), hops as fallback for never-observed paths;
//! * [`RateMonitor::congestion_scaled_matrix`] — `h_ab · nominal/rate`,
//!   which keeps the hop structure and multiplies it by observed slowdown.
//!   This is the default the experiments use, since it degrades gracefully
//!   to the plain hop metric on an idle network.

use crate::distance::DistanceMatrix;
use crate::topology::NodeId;

/// EWMA observer of per-path transmission rates.
#[derive(Clone, Debug)]
pub struct RateMonitor {
    n: usize,
    alpha: f64,
    /// Row-major EWMA rates in bytes/sec; 0.0 = never observed.
    ewma: Vec<f64>,
}

impl RateMonitor {
    /// A monitor over `n` nodes with smoothing factor `alpha` in (0, 1];
    /// larger `alpha` weights recent observations more.
    pub fn new(n: usize, alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0,1]");
        Self { n, alpha, ewma: vec![0.0; n * n] }
    }

    /// Record that a transfer from `a` to `b` achieved `rate_bps`.
    /// Self-observations (`a == b`) are ignored — local access is free.
    pub fn observe(&mut self, a: NodeId, b: NodeId, rate_bps: f64) {
        if a == b || !rate_bps.is_finite() || rate_bps <= 0.0 {
            return;
        }
        let e = &mut self.ewma[a.idx() * self.n + b.idx()];
        if *e == 0.0 {
            *e = rate_bps;
        } else {
            *e = self.alpha * rate_bps + (1.0 - self.alpha) * *e;
        }
    }

    /// Smoothed rate of path `a → b`, if ever observed.
    pub fn rate(&self, a: NodeId, b: NodeId) -> Option<f64> {
        let e = self.ewma[a.idx() * self.n + b.idx()];
        (e > 0.0).then_some(e)
    }

    /// §II-B3 verbatim: entry = `nominal_rate / rate(a→b)`, falling back to
    /// `hops.get(a,b)` where no observation exists. Diagonal stays 0.
    pub fn inverse_rate_matrix(&self, hops: &DistanceMatrix, nominal_rate: f64) -> DistanceMatrix {
        assert_eq!(hops.n(), self.n);
        assert!(nominal_rate > 0.0);
        let mut m = DistanceMatrix::zero(self.n);
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let v = match self.rate(na, nb) {
                    Some(r) => nominal_rate / r,
                    None => hops.get(na, nb),
                };
                m.set(na, nb, v);
            }
        }
        m
    }

    /// Hop counts scaled by observed congestion: entry =
    /// `h_ab · max(1, nominal_rate / rate(a→b))`; plain `h_ab` where no
    /// observation exists. Degrades to the hop metric on an idle network.
    pub fn congestion_scaled_matrix(
        &self,
        hops: &DistanceMatrix,
        nominal_rate: f64,
    ) -> DistanceMatrix {
        assert_eq!(hops.n(), self.n);
        assert!(nominal_rate > 0.0);
        let mut m = DistanceMatrix::zero(self.n);
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let h = hops.get(na, nb);
                let v = match self.rate(na, nb) {
                    Some(r) => h * (nominal_rate / r).max(1.0),
                    None => h,
                };
                m.set(na, nb, v);
            }
        }
        m
    }
}

#[cfg(test)]
impl RateMonitor {
    /// Paths holding an accepted observation.
    pub fn observations(&self) -> u64 {
        self.ewma.iter().filter(|&&e| e != 0.0).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;

    const GB: f64 = 1e9 / 8.0;

    fn hops4() -> DistanceMatrix {
        DistanceMatrix::hops(&Topology::single_rack(4, GB))
    }

    #[test]
    fn unobserved_paths_fall_back_to_hops() {
        let m = RateMonitor::new(4, 0.5);
        let h = hops4();
        let c = m.congestion_scaled_matrix(&h, GB);
        assert_eq!(c, h);
    }

    #[test]
    fn ewma_converges_to_constant_observation() {
        let mut m = RateMonitor::new(2, 0.5);
        for _ in 0..20 {
            m.observe(NodeId(0), NodeId(1), GB / 4.0);
        }
        let r = m.rate(NodeId(0), NodeId(1)).unwrap();
        assert!((r - GB / 4.0).abs() < 1.0);
    }

    #[test]
    fn ewma_tracks_changes_gradually() {
        let mut m = RateMonitor::new(2, 0.5);
        m.observe(NodeId(0), NodeId(1), 100.0);
        m.observe(NodeId(0), NodeId(1), 200.0);
        // 0.5*200 + 0.5*100 = 150
        assert_eq!(m.rate(NodeId(0), NodeId(1)), Some(150.0));
    }

    #[test]
    fn self_and_garbage_observations_ignored() {
        let mut m = RateMonitor::new(2, 0.5);
        m.observe(NodeId(0), NodeId(0), GB);
        m.observe(NodeId(0), NodeId(1), -5.0);
        m.observe(NodeId(0), NodeId(1), f64::INFINITY);
        m.observe(NodeId(0), NodeId(1), 0.0);
        assert_eq!(m.observations(), 0);
        assert_eq!(m.rate(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn congested_path_costs_more() {
        let mut m = RateMonitor::new(4, 1.0);
        m.observe(NodeId(0), NodeId(1), GB / 5.0); // heavily congested
        m.observe(NodeId(0), NodeId(2), GB); // idle
        let h = hops4();
        let c = m.congestion_scaled_matrix(&h, GB);
        assert_eq!(c.get(NodeId(0), NodeId(1)), 10.0); // 2 hops × 5x slowdown
        assert_eq!(c.get(NodeId(0), NodeId(2)), 2.0); // 2 hops × 1
        assert_eq!(c.get(NodeId(0), NodeId(3)), 2.0); // fallback
    }

    #[test]
    fn faster_than_nominal_never_cheaper_than_hops() {
        let mut m = RateMonitor::new(4, 1.0);
        m.observe(NodeId(0), NodeId(1), 4.0 * GB);
        let c = m.congestion_scaled_matrix(&hops4(), GB);
        assert_eq!(c.get(NodeId(0), NodeId(1)), 2.0);
    }

    #[test]
    fn inverse_rate_matrix_is_literal_inverse() {
        let mut m = RateMonitor::new(4, 1.0);
        m.observe(NodeId(0), NodeId(1), GB / 3.0);
        let c = m.inverse_rate_matrix(&hops4(), GB);
        assert!((c.get(NodeId(0), NodeId(1)) - 3.0).abs() < 1e-12);
        assert_eq!(c.get(NodeId(1), NodeId(0)), 2.0, "unobserved direction falls back");
    }

    #[test]
    fn live_cost_view_updates_with_observations() {
        let mut m = RateMonitor::new(4, 1.0);
        let c = m.congestion_scaled_matrix(&hops4(), GB);
        assert_eq!(c.get(NodeId(0), NodeId(1)), 2.0);
        m.observe(NodeId(0), NodeId(1), GB / 2.0);
        let c = m.congestion_scaled_matrix(&hops4(), GB);
        assert_eq!(c.get(NodeId(0), NodeId(1)), 4.0);
        assert_eq!(c.get(NodeId(1), NodeId(1)), 0.0);
        assert_eq!(c.n(), 4);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0,1]")]
    fn bad_alpha_rejected() {
        RateMonitor::new(2, 0.0);
    }
}
