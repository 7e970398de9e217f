//! The reduce-kernel law: `execute_reduce` groups by key without sorting
//! every pair, and must emit exactly what a stable sort of every pair by
//! key, then one reducer call per run of equal keys, emits — for any
//! input and any reducer. The reference below is that stable sort.
//!
//! Soak: `PROPTEST_CASES=5000 cargo test --release -q -p pnats-engine
//! --test reduce_law`.

use pnats_engine::api::{Emit, Reducer};
use pnats_engine::exec::execute_reduce;
use pnats_engine::{TeraSortJob, WordCountJob};
use proptest::prelude::*;

/// The stable-sort reduce: sort every pair by key, keeping arrival order
/// among equal keys, and reduce each run.
fn stable_sort_reduce(reducer: &dyn Reducer, pairs: &[(String, String)]) -> Vec<(String, String)> {
    let mut sorted: Vec<(&str, &str)> =
        pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    sorted.sort_by(|a, b| a.0.cmp(b.0));
    let mut output = Vec::new();
    for run in sorted.chunk_by(|a, b| a.0 == b.0) {
        let values: Vec<&str> = run.iter().map(|&(_, v)| v).collect();
        reducer.reduce(run[0].0, &values, &mut |k, v| output.push((k.to_string(), v.to_string())));
    }
    output
}

fn grouped_reduce(reducer: &dyn Reducer, pairs: &[(String, String)]) -> Vec<(String, String)> {
    let mut output = Vec::new();
    execute_reduce(reducer, pairs.iter().map(|(k, v)| (k.as_str(), v.as_str())), &mut |k, v| {
        output.push((k.to_string(), v.to_string()))
    });
    output
}

/// Joins a key's values in the order they arrive, with the key's run
/// length: a value lost, duplicated or reordered changes its output.
struct Concat;

impl Reducer for Concat {
    fn reduce(&self, key: &str, values: &[&str], emit: &mut Emit<'_>) {
        emit(key, &format!("{}:{}", values.len(), values.join("|")));
    }
}

/// Strings from a small alphabet, so keys repeat and prefix one another,
/// with the empty string and multibyte UTF-8 (two-, three- and four-byte
/// characters) among them.
fn text() -> impl Strategy<Value = String> {
    const PIECES: [&str; 8] = ["a", "b", "ab", "é", "中", "🦀", " ", "0"];
    proptest::collection::vec(0..PIECES.len(), 0..4)
        .prop_map(|ps| ps.into_iter().map(|i| PIECES[i]).collect())
}

fn pair_lists() -> impl Strategy<Value = Vec<(String, String)>> {
    proptest::collection::vec((text(), text()), 0..300)
}

proptest! {
    #[test]
    fn grouped_reduce_emits_what_the_stable_sort_emits(pairs in pair_lists()) {
        for reducer in [&WordCountJob as &dyn Reducer, &TeraSortJob, &Concat] {
            prop_assert_eq!(grouped_reduce(reducer, &pairs), stable_sort_reduce(reducer, &pairs));
        }
    }
}

/// The cases a generator can miss, pinned by hand: an empty input, the
/// empty key beside keys it prefixes, and values whose order within a key
/// is the only thing that tells two orders apart.
#[test]
fn the_edge_cases_agree_with_the_stable_sort() {
    let owned = |v: &[(&str, &str)]| -> Vec<(String, String)> {
        v.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect()
    };
    let cases = [
        owned(&[]),
        owned(&[("", ""), ("a", "1"), ("", "2"), ("ab", ""), ("a", "3")]),
        owned(&[("中", "x"), ("é", "y"), ("中", "z"), ("🦀", ""), ("é", "w")]),
        owned(&[("b", "3"), ("b", "1"), ("a", "2"), ("b", "2")]),
    ];
    for pairs in &cases {
        for reducer in [&WordCountJob as &dyn Reducer, &TeraSortJob, &Concat] {
            assert_eq!(grouped_reduce(reducer, pairs), stable_sort_reduce(reducer, pairs));
        }
    }
    assert_eq!(
        grouped_reduce(&Concat, &cases[3]),
        owned(&[("a", "1:2"), ("b", "3:3|1|2")]),
        "keys ascend, values keep their arrival order"
    );
}
