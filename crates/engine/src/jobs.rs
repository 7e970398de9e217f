//! The paper's three applications as engine jobs.

use crate::api::{Emit, Mapper, Reducer};

/// WordCount: emit `(word, 1)` per word, sum per word.
pub struct WordCountJob;

impl Mapper for WordCountJob {
    fn map(&self, _offset: u64, line: &str, emit: &mut Emit<'_>) {
        for word in line.split_whitespace() {
            emit(word, "1");
        }
    }
}

impl Reducer for WordCountJob {
    fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
        let sum: u64 = values.iter().map(|v| v.parse::<u64>().unwrap_or(0)).sum();
        emit(key, &sum.to_string());
    }
}

/// Grep: emit matching lines keyed by the needle; the reducer counts them.
pub struct GrepJob {
    /// Substring to search for.
    pub needle: String,
}

impl Mapper for GrepJob {
    fn map(&self, offset: u64, line: &str, emit: &mut Emit<'_>) {
        if line.contains(&self.needle) {
            emit(&self.needle, &format!("{offset}:{line}"));
        }
    }
}

impl Reducer for GrepJob {
    fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
        emit(key, &values.len().to_string());
    }
}

/// TeraSort: identity map keyed by the record's 10-char key; the engine's
/// sort-by-key shuffle/merge performs the sort, the reducer re-emits
/// records in order.
pub struct TeraSortJob;

impl Mapper for TeraSortJob {
    fn map(&self, _offset: u64, line: &str, emit: &mut Emit<'_>) {
        if line.len() >= 10 {
            emit(&line[..10], &line[10..]);
        }
    }
}

impl Reducer for TeraSortJob {
    fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
        for v in values {
            emit(key, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_map(m: &dyn Mapper, line: &str) -> Vec<(String, String)> {
        let mut out = Vec::new();
        m.map(0, line, &mut |k, v| out.push((k.to_string(), v.to_string())));
        out
    }

    #[test]
    fn wordcount_map_and_reduce() {
        let kv = run_map(&WordCountJob, "a b a");
        assert_eq!(kv.len(), 3);
        let mut out = Vec::new();
        let mut emit = |k: &str, v: &str| out.push((k.to_string(), v.to_string()));
        WordCountJob.reduce("a", &["1", "1"], &mut emit);
        assert_eq!(out, vec![("a".to_string(), "2".to_string())]);
    }

    #[test]
    fn grep_matches_only() {
        let g = GrepJob { needle: "foo".into() };
        assert_eq!(run_map(&g, "has foo inside").len(), 1);
        assert!(run_map(&g, "nothing here").is_empty());
    }

    #[test]
    fn terasort_splits_key_payload() {
        let kv = run_map(&TeraSortJob, "ABCDEFGHIJrest-of-record");
        assert_eq!(kv, vec![("ABCDEFGHIJ".into(), "rest-of-record".into())]);
        assert!(run_map(&TeraSortJob, "short").is_empty());
    }
}
