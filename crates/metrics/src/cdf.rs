//! Empirical cumulative distribution functions.

/// An empirical CDF over `f64` samples.
///
/// Samples are sorted once at construction; queries are `O(log n)`.
#[derive(Clone, Debug)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Build from raw samples. Non-finite samples are rejected.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "CDF samples must be finite"
        );
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the CDF has no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `F(x)`: fraction of samples `≤ x`. 0 for an empty CDF.
    pub fn fraction_at(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|s| *s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// `F⁻¹(q)`: smallest sample with at least fraction `q` of mass at or
    /// below it, `q ∈ (0, 1]`. Panics on an empty CDF.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q) && q > 0.0, "quantile must be in (0,1]");
        assert!(!self.sorted.is_empty(), "quantile of empty CDF");
        let idx = ((q * self.sorted.len() as f64).ceil() as usize).max(1) - 1;
        self.sorted[idx.min(self.sorted.len() - 1)]
    }

    /// Minimum sample.
    pub fn min(&self) -> Option<f64> {
        self.sorted.first().copied()
    }

    /// Maximum sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            None
        } else {
            Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
        }
    }

    /// The full step function as `(x, F(x))` pairs, one per distinct sample.
    pub fn steps(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len() as f64;
        let mut out: Vec<(f64, f64)> = Vec::new();
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = (i + 1) as f64 / n;
            match out.last_mut() {
                Some(last) if last.0 == x => last.1 = f,
                _ => out.push((x, f)),
            }
        }
        out
    }

    /// Downsample the CDF to `points` evenly spaced x positions spanning
    /// [min, max] — the series the figure experiments print.
    pub fn series(&self, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2);
        let (Some(lo), Some(hi)) = (self.min(), self.max()) else {
            return Vec::new();
        };
        (0..points)
            .map(|i| {
                // Pin the endpoint exactly: floating-point interpolation can
                // land infinitesimally below `hi`, dropping the last sample.
                let x = if i == points - 1 {
                    hi
                } else {
                    lo + (hi - lo) * i as f64 / (points - 1) as f64
                };
                (x, self.fraction_at(x))
            })
            .collect()
    }

    /// Sorted view of the samples.
    pub fn samples(&self) -> &[f64] {
        &self.sorted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_and_quantiles() {
        let c = Cdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(c.fraction_at(0.5), 0.0);
        assert_eq!(c.fraction_at(1.0), 0.25);
        assert_eq!(c.fraction_at(2.5), 0.5);
        assert_eq!(c.fraction_at(100.0), 1.0);
        assert_eq!(c.quantile(0.25), 1.0);
        assert_eq!(c.quantile(0.5), 2.0);
        assert_eq!(c.quantile(1.0), 4.0);
    }

    #[test]
    fn mean_min_max() {
        let c = Cdf::new(vec![2.0, 4.0, 6.0]);
        assert_eq!(c.mean(), Some(4.0));
        assert_eq!(c.min(), Some(2.0));
        assert_eq!(c.max(), Some(6.0));
    }

    #[test]
    fn empty_cdf() {
        let c = Cdf::new(vec![]);
        assert!(c.is_empty());
        assert_eq!(c.fraction_at(1.0), 0.0);
        assert_eq!(c.mean(), None);
        assert!(c.series(5).is_empty());
    }

    #[test]
    fn steps_deduplicate() {
        let c = Cdf::new(vec![1.0, 1.0, 2.0]);
        assert_eq!(c.steps(), vec![(1.0, 2.0 / 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn series_spans_range_monotonically() {
        let c = Cdf::new((1..=100).map(|i| i as f64).collect());
        let s = c.series(11);
        assert_eq!(s.len(), 11);
        assert_eq!(s[0].0, 1.0);
        assert_eq!(s[10].0, 100.0);
        assert_eq!(s[10].1, 1.0);
        for w in s.windows(2) {
            assert!(w[1].1 >= w[0].1);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn nan_samples_rejected() {
        Cdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn quantile_interpolation_edges() {
        let c = Cdf::new(vec![10.0]);
        assert_eq!(c.quantile(0.0001), 10.0);
        assert_eq!(c.quantile(1.0), 10.0);
    }
}
