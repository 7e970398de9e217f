//! The production placer against the paper, transcribed (`spec/mod.rs`).
//!
//! * A differential property over random clusters of at most 12 nodes —
//!   hop or inverse-rate matrices, replicas, free sets, `d_read` and
//!   `A_jf`: the production [`ProbabilisticPlacer`], with the class index
//!   ([`CostView`]) on and off, gives the spec's [`Decision`] and leaves
//!   the RNG where the spec leaves it. A disagreement is allowed only where
//!   the winner's `P` lies within 1e-9 of `P_min`, of the runner-up or of
//!   the draw, and it is reported with `|P − P_min|`.
//! * The paper's maths as properties, run on the spec and on both
//!   production arms: `P` is monotone in `C_i`; scaling every cost by 2^k
//!   moves no decision; permuting the candidates moves no decision except
//!   between exact ties.
//! * The paper's numeric edges: §II-B3 matrices over any measured rate
//!   from 1e-3 to 1e12 B/s stay finite and never undercut their hop
//!   counts, and the placer scores every candidate on them; progress
//!   extrapolation of a source whose `A_jf` grows with `d_read` returns the
//!   final `I_jf` from the first byte read, and 0 before it.
//! * The worked example of §II-B (Figure 2), on the spec.
//!
//! `SpecChecked` (`spec/checked.rs`) carries the same check through whole
//! simulations (`crates/sim/tests/cost_parity_props.rs`,
//! `tests/scale_parity.rs`).

mod spec;

use pnats_core::costidx::recount_free;
use pnats_core::{
    CostView, Decision, IntermediateEstimator, JobId, MapCandidate, MapSchedContext, MapTaskId,
    ProbConfig, ProbabilisticPlacer, ProbabilityModel, ReduceCandidate, ReduceSchedContext,
    ReduceTaskId, ShuffleSource, SkipReason, TaskPlacer,
};
use pnats_net::{ClusterLayout, DistanceMatrix, NodeId, PathCost, RackId, RateMonitor};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use spec::checked::{SpecChecked, P_EPS};
use spec::Verdict;

const MAX_NODES: usize = 12;
const JOB: JobId = JobId(0);

/// One slot offer on a small cluster, with everything it is decided from.
#[derive(Clone, Debug)]
struct Case {
    h: DistanceMatrix,
    maps: Vec<MapCandidate>,
    reduces: Vec<ReduceCandidate>,
    node: NodeId,
    free: Vec<NodeId>,
    running: Vec<NodeId>,
    p_min: f64,
    seed: u64,
}

/// A zero-diagonal `n × n` metric: a rack hop ladder (integer hops, so
/// nodes of one rack are interchangeable and ties are common) or the
/// §II-B3 inverse-rate metric over random rates (every node its own class).
fn matrix_strategy() -> impl Strategy<Value = DistanceMatrix> {
    (
        2usize..=MAX_NODES,
        proptest::collection::vec(0u32..4, MAX_NODES),
        (1u32..4, 4u32..10),
        (0u8..2).prop_map(|k| k == 1),
        proptest::collection::vec(0.05f64..4.0, MAX_NODES * MAX_NODES),
    )
        .prop_map(|(n, rack_of, (near, far), by_rate, rates)| {
            let mut rows = vec![0.0; n * n];
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    rows[a * n + b] = if by_rate {
                        1.0 / rates[a * MAX_NODES + b]
                    } else if rack_of[a] == rack_of[b] {
                        near as f64
                    } else {
                        far as f64
                    };
                }
            }
            DistanceMatrix::from_rows(n, rows)
        })
}

/// Map candidates as `(B_j, raw replica nodes)`: at least one replica.
fn maps_strategy() -> impl Strategy<Value = Vec<(u64, Vec<usize>)>> {
    proptest::collection::vec((1u64..=256, proptest::collection::vec(0..MAX_NODES, 1..=3)), 1..=6)
}

/// Reduce candidates as raw shuffle sources `(node, A_jf, d_read, B_j)`;
/// `d_read` is folded onto `0..=B_j`.
fn reduces_strategy() -> impl Strategy<Value = Vec<Vec<(usize, f64, u64, u64)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0..MAX_NODES, 0.0f64..100.0, 0u64..=256, 1u64..=256), 0..=4),
        1..=4,
    )
}

/// The offer: `(node, free mask, running mask, node runs a reduce of the
/// job)`.
fn offer_strategy() -> impl Strategy<Value = (usize, u16, u16, bool)> {
    (
        0..MAX_NODES,
        0u16..(1 << MAX_NODES),
        prop_oneof![3 => Just(0u16), 1 => 0u16..(1 << MAX_NODES)],
        (0u8..4).prop_map(|k| k == 0),
    )
}

fn nodes_of(mask: u16, n: usize) -> Vec<NodeId> {
    (0..n).filter(|i| mask >> i & 1 == 1).map(|i| NodeId(i as u32)).collect()
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        matrix_strategy(),
        maps_strategy(),
        reduces_strategy(),
        offer_strategy(),
        0.0f64..0.9,
        0u64..1 << 32,
    )
        .prop_map(
            |(h, raw_maps, raw_reduces, (node, free, running, collocated), p_min, seed)| {
                let n = h.n();
                let fold = |r: usize| NodeId((r % n) as u32);
                let maps = raw_maps
                    .into_iter()
                    .enumerate()
                    .map(|(i, (block_size, raw))| {
                        let mut replicas: Vec<NodeId> = raw.into_iter().map(fold).collect();
                        replicas.sort_unstable();
                        replicas.dedup();
                        MapCandidate {
                            task: MapTaskId { job: JOB, index: i as u32 },
                            block_size,
                            replicas,
                        }
                    })
                    .collect();
                let reduces = raw_reduces
                    .into_iter()
                    .enumerate()
                    .map(|(i, raw)| ReduceCandidate {
                        task: ReduceTaskId { job: JOB, index: i as u32 },
                        sources: raw
                            .into_iter()
                            .map(|(node, current_bytes, read, input_total)| ShuffleSource {
                                node: fold(node),
                                current_bytes,
                                input_read: read % (input_total + 1),
                                input_total,
                            })
                            .collect(),
                    })
                    .collect();
                let node = fold(node);
                let running = nodes_of(running | u16::from(collocated) << node.idx(), n);
                let free = nodes_of(free | 1 << node.idx(), n);
                Case { h, maps, reduces, node, free, running, p_min, seed }
            },
        )
}

/// Who decides an offer: the spec, or production without / with the class
/// index.
#[derive(Clone, Copy, Debug)]
enum Arm {
    Spec,
    Plain,
    Indexed,
}

const ARMS: [Arm; 3] = [Arm::Spec, Arm::Plain, Arm::Indexed];

/// What an arm made of an offer: the decision, the winner's `P`, and the
/// RNG's next draw afterwards (`SmallRng` is not `PartialEq`).
#[derive(Clone, Copy, Debug, PartialEq)]
struct Outcome {
    decision: Decision,
    p: Option<f64>,
    next: u64,
}

/// Decide the case's map (or reduce) offer under `arm`; the spec's
/// [`Verdict`] comes along for the spec arm.
fn decide(case: &Case, arm: Arm, reduce: bool) -> (Outcome, Option<Verdict>) {
    let layout = ClusterLayout::new(vec![RackId(0); case.h.n()]);
    let classes = spec::derive_classes(&case.h);
    let (counts, bits, total_free) = recount_free(&classes, &case.free);
    let view = CostView {
        classes: &classes,
        free_counts: &counts,
        free_bits: &bits,
        total_free,
        generation: 0,
    };
    let mut map_ctx = MapSchedContext::new(JOB, &case.maps, &case.free, &case.h, &layout);
    let mut reduce_ctx = ReduceSchedContext::new(JOB, &case.reduces, &case.free, &case.h, &layout)
        .running_on(&case.running);
    if let Arm::Indexed = arm {
        map_ctx = map_ctx.with_cost_view(view);
        reduce_ctx = reduce_ctx.with_cost_view(view);
    }
    let mut rng = SmallRng::seed_from_u64(case.seed);
    let (decision, p, verdict) = match arm {
        Arm::Spec => {
            let v = if reduce {
                spec::place_reduce(&reduce_ctx, case.node, case.p_min, &mut rng)
            } else {
                spec::place_map(&map_ctx, case.node, case.p_min, &mut rng)
            };
            (v.decision, v.best.map(|b| v.p[b]), Some(v))
        }
        Arm::Plain | Arm::Indexed => {
            let mut placer = ProbabilisticPlacer::new(ProbConfig::with_p_min(case.p_min));
            let d = if reduce {
                placer.place_reduce(&reduce_ctx, case.node, &mut rng)
            } else {
                placer.place_map(&map_ctx, case.node, &mut rng)
            };
            (d, placer.last_detail().map(|d| d.probability), None)
        }
    };
    (Outcome { decision, p, next: rng.gen() }, verdict)
}

/// The case with every path cost multiplied by `2^k`.
fn scaled(case: &Case, k: i32) -> Case {
    let n = case.h.n();
    let f = 2f64.powi(k);
    let mut rows = Vec::with_capacity(n * n);
    for a in 0..n {
        for b in 0..n {
            rows.push(case.h.path_cost(NodeId(a as u32), NodeId(b as u32)) * f);
        }
    }
    Case { h: DistanceMatrix::from_rows(n, rows), ..case.clone() }
}

/// A permutation of `0..len` drawn from sort keys: `perm[k]` is the
/// original index of the `k`-th candidate after permuting.
fn permutation(keys: &[u32], len: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..len).collect();
    perm.sort_by_key(|&i| (keys[i], i));
    perm
}

/// Every candidate's `P` as `arm` computes it: production's, one
/// candidate at a time at `P_min = 0` (nothing pruned), since `P` depends
/// on no other candidate.
fn candidate_ps(case: &Case, arm: Arm, reduce: bool) -> Vec<f64> {
    let len = if reduce { case.reduces.len() } else { case.maps.len() };
    (0..len)
        .map(|k| {
            let mut alone = Case { running: Vec::new(), p_min: 0.0, ..case.clone() };
            if reduce {
                alone.reduces = vec![case.reduces[k].clone()];
            } else {
                alone.maps = vec![case.maps[k].clone()];
            }
            decide(&alone, arm, reduce).0.p.expect("a lone candidate is scored")
        })
        .collect()
}

fn permute<T: Clone>(xs: &[T], perm: &[usize]) -> Vec<T> {
    perm.iter().map(|&i| xs[i].clone()).collect()
}

proptest! {
    #[test]
    fn production_decides_as_the_spec(case in case_strategy()) {
        for reduce in [false, true] {
            let (want, verdict) = decide(&case, Arm::Spec, reduce);
            let verdict = verdict.expect("spec arm");
            for arm in [Arm::Plain, Arm::Indexed] {
                let (got, _) = decide(&case, arm, reduce);
                if (got.decision, got.next) != (want.decision, want.next) {
                    let gap = want.p.map(|p| (p - case.p_min).abs());
                    prop_assert!(
                        verdict.near_boundary(case.p_min, P_EPS),
                        "{arm:?} (reduce: {reduce}) decided {:?}, the spec {:?}; \
                         |P − P_min| = {gap:?}; spec {verdict:?}; {case:?}",
                        got.decision,
                        want.decision,
                    );
                }
            }
        }
    }

    #[test]
    fn scaling_every_cost_by_a_power_of_two_moves_no_decision(
        case in case_strategy(),
        k in -30i32..=30,
    ) {
        let big = scaled(&case, k);
        for reduce in [false, true] {
            for arm in ARMS {
                prop_assert_eq!(
                    decide(&case, arm, reduce).0,
                    decide(&big, arm, reduce).0,
                    "{:?} (reduce: {}) moved under 2^{}", arm, reduce, k
                );
            }
        }
    }

    #[test]
    fn permuting_candidates_moves_no_decision_but_between_exact_ties(
        case in case_strategy(),
        keys in proptest::collection::vec(0u32..1000, 6),
    ) {
        for reduce in [false, true] {
            let len = if reduce { case.reduces.len() } else { case.maps.len() };
            let perm = permutation(&keys, len);
            let shuffled = Case {
                maps: if reduce { case.maps.clone() } else { permute(&case.maps, &perm) },
                reduces: if reduce { permute(&case.reduces, &perm) } else { case.reduces.clone() },
                ..case.clone()
            };
            for arm in ARMS {
                let ps = candidate_ps(&case, arm, reduce);
                let (before, after) = (decide(&case, arm, reduce).0, decide(&shuffled, arm, reduce).0);
                prop_assert_eq!((before.p, before.next), (after.p, after.next), "{:?}", arm);
                let moved = match (before.decision, after.decision) {
                    (Decision::Assign(i), Decision::Assign(j)) => i != perm[j],
                    (a, b) => a != b,
                };
                let tie = match (before.decision, after.decision) {
                    (Decision::Assign(i), Decision::Assign(j)) => ps[i] == ps[perm[j]],
                    _ => false,
                };
                prop_assert!(!moved || tie, "{:?} (reduce: {}): {:?} became {:?} under {:?}",
                    arm, reduce, before.decision, after.decision, perm);
            }
        }
    }

    #[test]
    fn probability_is_monotone_in_c_i(
        c_ave in prop_oneof![1 => Just(0.0), 4 => 0.0f64..1e6],
        a in prop_oneof![1 => Just(0.0), 4 => 0.0f64..1e6],
        b in 0.0f64..1e6,
    ) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(spec::probability(c_ave, lo) >= spec::probability(c_ave, hi));
        for model in ProbabilityModel::ALL {
            prop_assert!(
                model.probability(c_ave, lo) >= model.probability(c_ave, hi),
                "{:?}: P({}, {}) < P({}, {})", model, c_ave, lo, c_ave, hi
            );
        }
    }
}

// The paper's numeric edges.

/// The measured rates the properties range over, as powers of ten: from
/// 1 mB/s (a transfer that crawls) to 1 TB/s (faster than any NIC).
const RATE_EXP: std::ops::Range<f64> = -3.0..12.0;

/// `case.h` as the §II-B3 base, scaled by a monitor fed `observed` —
/// `(from, to, log10 rate)` folded onto the case's nodes — at NIC rate
/// `nominal`.
fn congested(case: &Case, observed: &[(usize, usize, f64)], nominal: f64) -> DistanceMatrix {
    let n = case.h.n();
    let mut monitor = RateMonitor::new(n, 0.3);
    for &(a, b, exp) in observed {
        monitor.observe(NodeId((a % n) as u32), NodeId((b % n) as u32), 10f64.powf(exp));
    }
    monitor.congestion_scaled_matrix(&case.h, nominal)
}

proptest! {
    #[test]
    fn congested_costs_stay_finite_and_at_least_their_hops(
        case in case_strategy(),
        observed in proptest::collection::vec((0..MAX_NODES, 0..MAX_NODES, RATE_EXP), 0..40),
        nominal_exp in 6.0f64..11.0,
    ) {
        let h = congested(&case, &observed, 10f64.powf(nominal_exp));
        for a in 0..h.n() {
            for b in 0..h.n() {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                let (got, hop) = (h.path_cost(na, nb), case.h.path_cost(na, nb));
                prop_assert!(got.is_finite() && got >= hop, "h({a},{b}) = {got} under hop {hop}");
            }
        }
        let case = Case { h, ..case };
        for reduce in [false, true] {
            for arm in [Arm::Plain, Arm::Indexed] {
                let (got, _) = decide(&case, arm, reduce);
                let booked = got.decision;
                prop_assert!(booked != Decision::Skip(SkipReason::NonFiniteCost), "{:?}", arm);
            }
        }
    }

    #[test]
    fn extrapolation_recovers_proportional_growth_from_the_first_byte(
        final_bytes in prop_oneof![1 => Just(0.0), 4 => 1.0f64..1e12],
        input_total in 1u64..1 << 40,
        read in 0u64..1 << 40,
        nodes in proptest::collection::vec(0..MAX_NODES, 1..=4),
        seed in 0u64..1 << 32,
    ) {
        let d_read = read % (input_total + 1);
        let current_bytes = final_bytes * d_read as f64 / input_total as f64;
        let source = |node: usize| ShuffleSource {
            node: NodeId(node as u32),
            current_bytes,
            input_read: d_read,
            input_total,
        };
        let est = IntermediateEstimator::ProgressExtrapolated.estimate(&source(0));
        prop_assert_eq!(est, spec::intermediate(&source(0)));
        if d_read == 0 {
            prop_assert_eq!(est, 0.0);
        } else {
            let gap = (est - final_bytes).abs();
            prop_assert!(gap <= 1e-9 * final_bytes, "{} vs {}", est, final_bytes);
        }
        // Sources spread over a hop ladder: the reduce is scored, and on
        // the one node already holding all its input it is placed.
        let n = MAX_NODES;
        let rows = (0..n * n).map(|k| if k / n == k % n { 0.0 } else { 1.0 + (k / n % 3) as f64 });
        let h = DistanceMatrix::from_rows(n, rows.collect());
        let layout = ClusterLayout::new(vec![RackId(0); n]);
        let free: Vec<NodeId> = (0..n as u32).map(NodeId).collect();
        let spread = [ReduceCandidate {
            task: ReduceTaskId { job: JOB, index: 0 },
            sources: nodes.iter().map(|&k| source(k)).collect(),
        }];
        let home = [ReduceCandidate {
            task: ReduceTaskId { job: JOB, index: 1 },
            sources: nodes.iter().map(|_| source(nodes[0])).collect(),
        }];
        let mut placer = ProbabilisticPlacer::new(ProbConfig::with_p_min(0.0));
        let mut rng = SmallRng::seed_from_u64(seed);
        for offered in free.iter().copied() {
            let ctx = ReduceSchedContext::new(JOB, &spread, &free, &h, &layout);
            let d = placer.place_reduce(&ctx, offered, &mut rng);
            let scored = matches!(d, Decision::Assign(0) | Decision::Skip(SkipReason::DrawFailed));
            prop_assert!(scored, "{:?}", d);
            let detail = placer.last_detail().expect("the candidate was scored");
            prop_assert!(detail.cost.is_finite() && detail.cost_avg.is_finite(), "{:?}", detail);
        }
        let ctx = ReduceSchedContext::new(JOB, &home, &free, &h, &layout);
        let at_home = placer.place_reduce(&ctx, NodeId(nodes[0] as u32), &mut rng);
        prop_assert_eq!(at_home, Decision::Assign(0));
    }
}

/// The one edge the range above leaves out: a rate below
/// `nominal / f64::MAX` overflows `nominal / rate`, and the entry turns
/// into ∞. No simulated transfer measures such a rate (at 1 Gbps it is
/// under 1e-300 B/s).
#[test]
fn a_rate_below_nominal_over_f64_max_makes_the_entry_infinite() {
    let nominal = 125e6;
    let mut monitor = RateMonitor::new(2, 0.3);
    monitor.observe(D1, D2, nominal / f64::MAX / 4.0);
    let base = DistanceMatrix::from_rows(2, vec![0.0, 2.0, 2.0, 0.0]);
    let h = monitor.congestion_scaled_matrix(&base, nominal);
    assert_eq!(h.path_cost(D1, D2), f64::INFINITY);
    assert_eq!(h.path_cost(D2, D1), 2.0);
}

// The worked example of §II-B (Figure 2), on the spec: the same numbers
// `tests/paper_worked_example.rs` holds the production cost functions to.

const D1: NodeId = NodeId(0);
const D2: NodeId = NodeId(1);
const D3: NodeId = NodeId(2);
const D4: NodeId = NodeId(3);

fn figure2_maps() -> Vec<MapCandidate> {
    let m = |index, replica| MapCandidate {
        task: MapTaskId { job: JOB, index },
        block_size: 128,
        replicas: vec![replica],
    };
    vec![m(0, D1), m(1, D2)]
}

#[test]
fn worked_example_map_costs_on_the_spec() {
    let h = DistanceMatrix::paper_figure2();
    let [m1, m2] = &figure2_maps()[..] else { unreachable!() };
    // "the transmission cost for M1 is 128 × 2 = 256 and the cost for M2
    // is 128 × 0 = 0"
    assert_eq!(spec::map_cost(m1, D3, &h), 256.0);
    assert_eq!(spec::map_cost(m2, D2, &h), 0.0);
}

#[test]
fn worked_example_reduce_costs_on_the_spec() {
    let h = DistanceMatrix::paper_figure2();
    let done = |node, bytes| ShuffleSource {
        node,
        current_bytes: bytes,
        input_read: 128,
        input_total: 128,
    };
    let r = |index, sources| ReduceCandidate { task: ReduceTaskId { job: JOB, index }, sources };
    let r1 = r(0, vec![done(D3, 10.0), done(D2, 20.0)]);
    let r2 = r(1, vec![done(D3, 5.0), done(D2, 10.0)]);
    // Figure 2(b): 10·2 + 20·4 for R1 on D1, 5·0 + 10·10 for R2 on D3.
    assert_eq!(spec::reduce_cost(&r1, D1, &h), 100.0);
    assert_eq!(spec::reduce_cost(&r2, D3, &h), 100.0);
}

#[test]
fn worked_example_estimation_on_the_spec() {
    // §II-B2: M2 at 10 % with 1 MB extrapolates to 10 MB, past M1 at 90 %
    // with 5 MB (~5.6 MB).
    let m1 = ShuffleSource { node: D1, current_bytes: 5.0, input_read: 90, input_total: 100 };
    let m2 = ShuffleSource { node: D2, current_bytes: 1.0, input_read: 10, input_total: 100 };
    assert!(spec::intermediate(&m2) > spec::intermediate(&m1));
    assert!((spec::intermediate(&m2) - 10.0).abs() < 1e-12);
}

#[test]
fn worked_example_p_min_inequality_on_the_spec() {
    // A task passes P_min iff its cost is at most C_ave / (−ln(1 − P_min)).
    let (c_ave, p_min) = (256.0, 0.4);
    let ceiling = c_ave / -(1.0f64 - p_min).ln();
    assert!(spec::probability(c_ave, ceiling * 0.999) >= p_min);
    assert!(spec::probability(c_ave, ceiling * 1.001) < p_min);
}

#[test]
fn worked_example_offer_on_the_spec() {
    // D2's slot, every node free: M2's block is on D2 (P = 1), so the spec
    // assigns M2 whatever the draw — and production agrees.
    let h = DistanceMatrix::paper_figure2();
    let layout = ClusterLayout::new(vec![RackId(0); 4]);
    let maps = figure2_maps();
    let free = [D1, D2, D3, D4];
    let ctx = MapSchedContext::new(JOB, &maps, &free, &h, &layout);
    let mut rng = SmallRng::seed_from_u64(1);
    let v = spec::place_map(&ctx, D2, 0.4, &mut rng);
    assert_eq!(v.decision, Decision::Assign(1));
    assert_eq!(v.p[1], 1.0);
    let mut checked = SpecChecked::new(ProbabilisticPlacer::paper());
    assert_eq!(checked.place_map(&ctx, D2, &mut SmallRng::seed_from_u64(1)), Decision::Assign(1));
    assert_eq!(checked.tally().offers(), 1);
}

/// A placer that takes the first candidate everywhere.
struct AlwaysFirst;

impl TaskPlacer for AlwaysFirst {
    fn name(&self) -> &'static str {
        "always-first"
    }

    fn place_map(&mut self, _: &MapSchedContext<'_>, _: NodeId, _: &mut SmallRng) -> Decision {
        Decision::Assign(0)
    }

    fn place_reduce(
        &mut self,
        _: &ReduceSchedContext<'_>,
        _: NodeId,
        _: &mut SmallRng,
    ) -> Decision {
        Decision::Assign(0)
    }
}

#[test]
#[should_panic(expected = "production decided Assign(0)")]
fn spec_checked_catches_a_second_reduce_on_one_node() {
    let h = DistanceMatrix::paper_figure2();
    let layout = ClusterLayout::new(vec![RackId(0); 4]);
    let reduces = [ReduceCandidate { task: ReduceTaskId { job: JOB, index: 0 }, sources: vec![] }];
    let free = [D1, D2];
    let ctx = ReduceSchedContext::new(JOB, &reduces, &free, &h, &layout).running_on(&free[..1]);
    let v = spec::place_reduce(&ctx, D1, 0.4, &mut SmallRng::seed_from_u64(1));
    assert_eq!(v.decision, Decision::Skip(SkipReason::Collocated));
    SpecChecked::wrap(AlwaysFirst, 0.4).place_reduce(&ctx, D1, &mut SmallRng::seed_from_u64(1));
}
