//! Synthetic input data generators for the threaded engine.
//!
//! The paper generates Wordcount/Grep input "by BigDataBench based on the
//! Wikipedia datasets" and TeraSort input with Teragen. Neither corpus is
//! available here, so we substitute generators with the statistical
//! properties the workloads depend on: Zipf-distributed word frequencies
//! (Wikipedia text is famously Zipfian, which is what makes wordcount's
//! partitions skewed) and Teragen's uniform random fixed-width records.

use rand::rngs::SmallRng;
use rand::Rng;

/// A Zipf sampler over ranks `1..=n` with exponent `s`, using inverse-CDF
/// lookup on a precomputed cumulative table.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A Zipf distribution over `n` items with exponent `s ≥ 0`.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0 && s >= 0.0);
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        let total = *cdf.last().expect("n > 0");
        cdf.iter_mut().for_each(|c| *c /= total);
        Self { cdf }
    }

    /// Sample a 0-based rank.
    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1)
    }

    /// Number of items.
    pub fn n(&self) -> usize {
        self.cdf.len()
    }
}

/// Deterministic pseudo-word for a vocabulary rank: short words for hot
/// ranks (like natural language).
fn vocab_word(rank: usize) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let mut w = String::new();
    let mut r = rank + 1;
    while r > 0 {
        w.push(ALPHA[(r - 1) % 26] as char);
        r = (r - 1) / 26;
    }
    w
}

/// Generate roughly `target_bytes` of Zipf-distributed text: words drawn
/// from a `vocab`-sized vocabulary with exponent `s`, newline every ~12
/// words. Always ends with a newline; never empty for `target_bytes > 0`.
pub fn zipf_text(target_bytes: usize, vocab: usize, s: f64, rng: &mut SmallRng) -> String {
    let zipf = Zipf::new(vocab, s);
    let mut out = String::with_capacity(target_bytes + 16);
    let mut words_on_line = 0;
    while out.len() < target_bytes {
        if words_on_line > 0 {
            out.push(' ');
        }
        out.push_str(&vocab_word(zipf.sample(rng)));
        words_on_line += 1;
        if words_on_line == 12 {
            out.push('\n');
            words_on_line = 0;
        }
    }
    if !out.ends_with('\n') {
        out.push('\n');
    }
    out
}

/// Width of one Teragen-style record in bytes (10-byte key, 88-byte
/// payload, newline — mirroring Teragen's 100-byte records).
pub const TERAGEN_RECORD_BYTES: usize = 99;

/// Generate `n` Teragen-style records: a 10-char uniform random key, a
/// deterministic payload, one record per line.
pub fn teragen_records(n: usize, rng: &mut SmallRng) -> String {
    const KEYSPACE: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut out = String::with_capacity(n * TERAGEN_RECORD_BYTES);
    for i in 0..n {
        for _ in 0..10 {
            out.push(KEYSPACE[rng.gen_range(0..KEYSPACE.len())] as char);
        }
        out.push_str(&format!("{:088}", i));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(77)
    }

    #[test]
    fn zipf_rank0_is_hottest() {
        let z = Zipf::new(100, 1.0);
        let mut r = rng();
        let mut counts = vec![0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10], "{} vs {}", counts[0], counts[10]);
        assert!(counts[0] > counts[50] * 5);
    }

    #[test]
    fn zipf_exponent_zero_is_uniform() {
        let z = Zipf::new(10, 0.0);
        let mut r = rng();
        let mut counts = vec![0usize; 10];
        for _ in 0..10_000 {
            counts[z.sample(&mut r)] += 1;
        }
        for c in counts {
            assert!((700..=1300).contains(&c), "{c}");
        }
    }

    #[test]
    fn vocab_words_unique_and_short_for_hot_ranks() {
        let words: Vec<String> = (0..1000).map(vocab_word).collect();
        let mut dedup = words.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 1000);
        assert_eq!(words[0], "a");
        assert!(words[0].len() <= words[999].len());
    }

    #[test]
    fn zipf_text_hits_target_and_is_words() {
        let t = zipf_text(10_000, 500, 1.0, &mut rng());
        assert!(t.len() >= 10_000 && t.len() < 10_100);
        assert!(t.ends_with('\n'));
        let freq: HashMap<&str, usize> =
            t.split_whitespace().fold(HashMap::new(), |mut m, w| {
                *m.entry(w).or_insert(0) += 1;
                m
            });
        // The single-letter hot word dominates.
        let max = freq.values().max().unwrap();
        assert_eq!(freq.get("a"), Some(max));
    }

    #[test]
    fn teragen_records_are_fixed_width() {
        let t = teragen_records(50, &mut rng());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 50);
        for l in &lines {
            assert_eq!(l.len(), TERAGEN_RECORD_BYTES - 1);
        }
        // Keys are (very likely) not sorted as generated.
        let keys: Vec<&str> = lines.iter().map(|l| &l[..10]).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_ne!(keys, sorted);
    }
}
