//! Per-application shuffle models.
//!
//! The simulator needs, for every map task, the intermediate bytes it will
//! emit for every reduce partition (`I_jf`). Figure 3 of the paper
//! characterizes the aggregate: "about 60 percent of jobs have more than
//! 50 GB shuffle data ... about 20 percent of jobs \[have\] less than 10 GB"
//! — the former are the shuffle-intensive Wordcount/TeraSort jobs, the
//! latter the map-intensive Grep jobs. The model:
//!
//! * **selectivity** — shuffle bytes per input byte, per application, with
//!   per-map lognormal-ish jitter (real wordcount output varies block to
//!   block; sort's does not);
//! * **partition skew** — how one map's output splits across the job's
//!   reduce partitions: uniform, or Zipf-weighted with a per-job random
//!   permutation (hot keys make hot partitions, the same partitions for
//!   every map of the job).

use crate::table2::AppKind;
use rand::rngs::SmallRng;
use rand::Rng;

/// How a map's output distributes over reduce partitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PartitionSkew {
    /// Every partition receives an equal share.
    Uniform,
    /// Partition weights follow a Zipf law with the given exponent
    /// (0 = uniform; 1 ≈ classic word-frequency skew), permuted per job.
    Zipf(f64),
}

/// The shuffle model of one application.
#[derive(Clone, Copy, Debug)]
pub struct ShuffleModel {
    /// Mean shuffle bytes per input byte.
    pub selectivity: f64,
    /// Multiplicative jitter half-range on selectivity per map task
    /// (0.2 ⇒ each map's selectivity uniform in ±20 % of the mean).
    pub jitter: f64,
    /// Partition skew.
    pub skew: PartitionSkew,
    /// Final-output bytes per *shuffle* byte (reduce-side write volume).
    pub output_ratio: f64,
}

impl ShuffleModel {
    /// The calibrated model of an application (see module docs).
    pub fn for_app(app: AppKind) -> Self {
        match app {
            // Wordcount: (word, 1) pairs inflate text slightly; combiner
            // effects vary block to block. Hot words make hot partitions.
            AppKind::Wordcount => ShuffleModel {
                selectivity: 1.3,
                jitter: 0.25,
                skew: PartitionSkew::Zipf(0.6),
                output_ratio: 0.05,
            },
            // TeraSort moves every byte exactly once; range partitioning is
            // engineered to be uniform.
            AppKind::Terasort => ShuffleModel {
                selectivity: 1.0,
                jitter: 0.02,
                skew: PartitionSkew::Uniform,
                output_ratio: 1.0,
            },
            // Grep emits only matches: tiny, highly variable.
            AppKind::Grep => ShuffleModel {
                selectivity: 0.03,
                jitter: 0.8,
                skew: PartitionSkew::Zipf(0.8),
                output_ratio: 1.0,
            },
        }
    }

    /// Draw one map task's effective selectivity.
    pub fn sample_selectivity(&self, rng: &mut SmallRng) -> f64 {
        if self.jitter == 0.0 {
            return self.selectivity;
        }
        let f = 1.0 + self.jitter * (rng.gen::<f64>() * 2.0 - 1.0);
        (self.selectivity * f).max(0.0)
    }

    /// Partition weights for a job with `n_reduces` partitions; sums to 1.
    /// The permutation (which partitions are hot) is drawn from `rng`, so
    /// it is fixed per job but varies across jobs.
    pub fn partition_weights(&self, n_reduces: usize, rng: &mut SmallRng) -> Vec<f64> {
        assert!(n_reduces > 0);
        let mut w: Vec<f64> = match self.skew {
            PartitionSkew::Uniform => vec![1.0; n_reduces],
            PartitionSkew::Zipf(s) => (1..=n_reduces)
                .map(|r| 1.0 / (r as f64).powf(s))
                .collect(),
        };
        // Random permutation so "partition 0" is not always hottest.
        for i in (1..w.len()).rev() {
            let j = rng.gen_range(0..=i);
            w.swap(i, j);
        }
        let total: f64 = w.iter().sum();
        w.iter_mut().for_each(|x| *x /= total);
        w
    }

    /// Expected total shuffle bytes for `input_bytes` of input.
    pub fn expected_shuffle_bytes(&self, input_bytes: u64) -> f64 {
        input_bytes as f64 * self.selectivity
    }
}

/// Empirical partition weights from a concrete key sample, using the *same*
/// [`pnats_core::Partitioner`] the execution runtimes (threaded engine, TCP
/// cluster) hash with. Where [`ShuffleModel::partition_weights`] draws a
/// synthetic skew, this measures the real one — calibrating the simulator's
/// `I_jf` split against actual intermediate keys. Weights are proportional
/// to the sampled key+value bytes landing in each partition and sum to 1;
/// an empty sample degenerates to uniform.
pub fn empirical_partition_weights<'a>(
    keys: impl IntoIterator<Item = &'a str>,
    n_reduces: usize,
    partitioner: pnats_core::Partitioner,
) -> Vec<f64> {
    assert!(n_reduces > 0);
    let mut bytes = vec![0u64; n_reduces];
    for key in keys {
        bytes[partitioner.of(key, n_reduces)] += key.len() as u64 + 1;
    }
    let total: u64 = bytes.iter().sum();
    if total == 0 {
        return vec![1.0 / n_reduces as f64; n_reduces];
    }
    bytes.iter().map(|b| *b as f64 / total as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table2::TABLE2;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(1234)
    }

    #[test]
    fn weights_sum_to_one() {
        let mut r = rng();
        for app in AppKind::ALL {
            let m = ShuffleModel::for_app(app);
            let w = m.partition_weights(157, &mut r);
            assert_eq!(w.len(), 157);
            let s: f64 = w.iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "{app}: {s}");
            assert!(w.iter().all(|x| *x > 0.0));
        }
    }

    #[test]
    fn zipf_weights_are_skewed_uniform_are_not() {
        let mut r = rng();
        let zipf = ShuffleModel::for_app(AppKind::Wordcount).partition_weights(100, &mut r);
        let max = zipf.iter().cloned().fold(0.0, f64::max);
        let min = zipf.iter().cloned().fold(1.0, f64::min);
        assert!(max / min > 5.0, "zipf skew too weak: {max}/{min}");

        let uni = ShuffleModel::for_app(AppKind::Terasort).partition_weights(100, &mut r);
        let max = uni.iter().cloned().fold(0.0, f64::max);
        let min = uni.iter().cloned().fold(1.0, f64::min);
        assert!((max / min - 1.0).abs() < 1e-9);
    }

    #[test]
    fn selectivity_jitter_bounded() {
        let mut r = rng();
        let m = ShuffleModel::for_app(AppKind::Wordcount);
        for _ in 0..1000 {
            let s = m.sample_selectivity(&mut r);
            assert!(s >= m.selectivity * (1.0 - m.jitter) - 1e-9);
            assert!(s <= m.selectivity * (1.0 + m.jitter) + 1e-9);
        }
    }

    /// Figure 3's shape: the majority of jobs are shuffle-heavy (> 50 GB)
    /// and roughly a fifth are map-intensive (< 10 GB shuffle).
    #[test]
    fn figure3_shuffle_size_shape() {
        let shuffles: Vec<f64> = TABLE2
            .iter()
            .map(|j| {
                ShuffleModel::for_app(j.app).expected_shuffle_bytes(j.input_bytes())
                    / (1u64 << 30) as f64
            })
            .collect();
        let over_50 = shuffles.iter().filter(|s| **s > 50.0).count();
        let over_100 = shuffles.iter().filter(|s| **s > 100.0).count();
        let under_10 = shuffles.iter().filter(|s| **s < 10.0).count();
        // Paper: ~60% > 50 GB, ~20% > 100 GB, ~20% < 10 GB.
        assert!((10..=20).contains(&over_50), "jobs > 50GB shuffle: {over_50}");
        assert!((3..=9).contains(&over_100), "jobs > 100GB shuffle: {over_100}");
        assert!((5..=10).contains(&under_10), "jobs < 10GB shuffle: {under_10}");
    }

    #[test]
    fn empirical_weights_match_runtime_hash() {
        use pnats_core::{partition_of, Partitioner};
        let keys = ["the", "quick", "brown", "fox", "the", "the"];
        let n = 4;
        let w = empirical_partition_weights(keys, n, Partitioner::Hash);
        assert_eq!(w.len(), n);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The weight mass lands exactly where the runtimes hash the keys.
        let mut expect = vec![0u64; n];
        for k in keys {
            expect[partition_of(k, n)] += k.len() as u64 + 1;
        }
        let total: u64 = expect.iter().sum();
        for (i, e) in expect.iter().enumerate() {
            assert!((w[i] - *e as f64 / total as f64).abs() < 1e-12, "partition {i}");
        }
        // Empty sample degenerates to uniform.
        let uni = empirical_partition_weights([], 3, Partitioner::Hash);
        assert_eq!(uni, vec![1.0 / 3.0; 3]);
    }

    #[test]
    fn grep_is_map_intensive() {
        let g = ShuffleModel::for_app(AppKind::Grep);
        let gb100 = g.expected_shuffle_bytes(100 << 30) / (1u64 << 30) as f64;
        assert!(gb100 < 10.0, "grep 100GB shuffle should be tiny, got {gb100}");
    }
}
