//! Small numeric helpers shared by the workloads.

use pnats_metrics::percentile;

/// Nearest-rank percentile (`pnats_metrics::percentile`); 0 when empty.
pub fn pct(samples: &[f64], p: f64) -> f64 {
    percentile(samples, p).unwrap_or(0.0)
}

/// Median with the two middle samples averaged; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// `num / den`, 0 when the denominator is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The `i`-th input seed derived from the run's `--seed` (splitmix64
/// finaliser, so neighbouring seeds give unrelated inputs).
pub fn sub_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        // Nearest rank: p50 of 1..=10 is the 5th sample, p90 the 9th.
        assert_eq!(pct(&v, 0.5), 5.0);
        assert_eq!(pct(&v, 0.9), 9.0);
        assert_eq!(pct(&v, 0.99), 10.0);
        assert_eq!(pct(&[], 0.5), 0.0);
        assert_eq!(mean(&v), 5.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }

    #[test]
    fn sub_seeds_are_stable_and_distinct() {
        assert_eq!(sub_seed(42, 0), sub_seed(42, 0));
        let mut seen: Vec<u64> = (0..4)
            .flat_map(|s| (0..8).map(move |i| sub_seed(s, i)))
            .collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn peak_rss_reads_positive() {
        assert!(peak_rss_mib() > 0.0);
    }
}
