//! Properties of the job book — the state machine both the engine and the
//! TCP tracker schedule from, and the fold a recovering tracker replays
//! its journal through.
//!
//! * **Totality**: any sequence of well-formed events — out-of-range task
//!   ids, stale attempts, completions of tasks that never ran — makes
//!   `apply` answer `Ok` or `Err`; it never panics, and an `Err` leaves the
//!   book exactly as it was.
//! * **Invariants** after every accepted event.
//! * **Live ≡ replay**: a scheduler driven through random offers,
//!   completions, failures and node losses logs the events it commits;
//!   folding that log into a fresh book reproduces the live book exactly.
//!   This is the by-construction replacement for diffing a live tracker
//!   against a second, hand-written replay implementation.
//! * **No completion on a down node**: once a node is lost, every report
//!   from an attempt that was running or finished there bounces off and
//!   logs nothing, even after the node is back and runs the same tasks.

use pnats_baselines::RandomPlacer;
use pnats_engine::book::{Book, JobScheduler, Launch, Phase, Slots, TaskEvent, Verdict};
use pnats_engine::EngineConfig;
use pnats_net::NodeId;
use pnats_obs::{DecisionObserver, TaskKind};
use proptest::prelude::*;

const N_MAPS: usize = 4;
const N_REDUCES: usize = 3;

/// Every structural law the book promises, checked from outside through
/// its read-only surface.
fn check_invariants(book: &Book) -> Result<(), String> {
    let pending = |list: &[usize], i: usize| list.iter().filter(|&&t| t == i).count();
    for (m, t) in book.maps().iter().enumerate() {
        let want = usize::from(t.phase == Phase::Unassigned);
        if pending(book.pending_maps(), m) != want {
            return Err(format!("map {m} in {:?} pending {:?}", t.phase, book.pending_maps()));
        }
    }
    for (r, t) in book.reduces().iter().enumerate() {
        let want = usize::from(t.phase == Phase::Unassigned);
        if pending(book.pending_reduces(), r) != want {
            let pending = book.pending_reduces();
            return Err(format!("reduce {r} in {:?} pending {pending:?}", t.phase));
        }
    }
    if book.maps_finished() != book.maps().iter().filter(|t| t.phase.is_finished()).count() {
        return Err(format!("maps_finished {} disagrees with the rows", book.maps_finished()));
    }
    if book.reduces_finished() != book.reduces().iter().filter(|t| t.phase.is_finished()).count() {
        return Err(format!("reduces_finished {} disagrees with the rows", book.reduces_finished()));
    }
    let mut booked: Vec<u32> = book.job_reduce_nodes().iter().map(|n| n.0).collect();
    let mut running: Vec<u32> = book
        .reduces()
        .iter()
        .filter_map(|t| if let Phase::Running(n) = t.phase { Some(n) } else { None })
        .collect();
    booked.sort_unstable();
    running.sort_unstable();
    if booked != running {
        return Err(format!("job_reduce_nodes {booked:?} != running reduce holders {running:?}"));
    }
    let mut seen = std::collections::HashSet::new();
    for c in book.completions() {
        let key = (c.kind == TaskKind::Map, c.index, c.epoch);
        if !seen.insert(key) {
            return Err(format!("completion {key:?} accepted twice"));
        }
    }
    Ok(())
}

/// Any decodable task event over a deliberately too-wide id space: tasks
/// `0..5` against a 4×3 job, attempts and epochs `0..2` whatever the book
/// says, nodes `0..3` (narrow enough that runs of legal events happen).
fn event_strategy() -> impl Strategy<Value = TaskEvent> {
    let fields = (0u8..7, 0u32..5, 0u32..2, 0u32..2, 0u32..3, 0u8..2);
    fields.prop_map(|(tag, i, a, e, n, ban)| match tag {
        0 => TaskEvent::MapAssigned { map: i, attempt: a, node: n },
        1 => TaskEvent::MapCompleted {
            map: i,
            attempt: a,
            epoch: e,
            node: n,
            d_read: 64,
            part_bytes: vec![1, 2, 3],
        },
        2 => TaskEvent::MapInvalidated {
            map: i,
            new_attempt: a + 1,
            new_epoch: e + 1,
            banned: (ban == 1).then_some(n),
        },
        3 => TaskEvent::MapRequeued { map: i, new_attempt: a + 1 },
        4 => TaskEvent::ReduceAssigned { reduce: i, attempt: a, node: n },
        5 => TaskEvent::ReduceCompleted {
            reduce: i,
            attempt: a,
            output: vec![("k".into(), "v".into())],
        },
        _ => TaskEvent::ReduceRequeued { reduce: i, new_attempt: a + 1 },
    })
}

/// One step of a scripted driver: the choices are indices into whatever is
/// currently possible, so every generated script is meaningful.
#[derive(Clone, Copy, Debug)]
enum Op {
    Offer(u32),
    MapDone(usize),
    MapFailed(usize),
    ReduceDone(usize),
    StaleReports(u32),
    LoseNode(u32),
}

fn op_strategy(n_nodes: u32) -> impl Strategy<Value = Op> {
    (0u8..9, 0u32..n_nodes, 0usize..8).prop_map(|(tag, n, k)| match tag {
        0..=2 => Op::Offer(n),
        3 | 4 => Op::MapDone(k),
        5 => Op::MapFailed(k),
        6 => Op::ReduceDone(k),
        7 => Op::StaleReports(n),
        _ => Op::LoseNode(n),
    })
}

fn running(phases: impl Iterator<Item = (Phase, u32)>) -> Vec<(u32, u32, u32)> {
    let rows = phases.enumerate();
    rows.filter_map(|(i, (p, a))| match p {
        Phase::Running(n) => Some((i as u32, a, n)),
        _ => None,
    })
    .collect()
}

/// `(index, attempt)` of every row running or finished on `node`.
fn held_on(phases: impl Iterator<Item = (Phase, u32)>, node: u32) -> Vec<(u32, u32)> {
    let rows = phases.enumerate();
    rows.filter(|(_, (p, _))| p.holder() == Some(node)).map(|(i, (_, a))| (i as u32, a)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn apply_is_total_and_keeps_the_invariants(
        events in proptest::collection::vec(event_strategy(), 0..120),
    ) {
        let mut book = Book::new(N_MAPS, N_REDUCES);
        for ev in &events {
            let before = book.clone();
            match book.apply(ev) {
                Ok(()) => {
                    if let Err(e) = check_invariants(&book) {
                        prop_assert!(false, "after {ev:?}: {e}");
                    }
                }
                Err(_) => prop_assert_eq!(&book, &before, "a refused event changed the book"),
            }
        }
    }

    #[test]
    fn a_replayed_log_reproduces_the_live_book(
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(4), 1..200),
    ) {
        let cfg = EngineConfig { n_nodes: 4, block_bytes: 64, seed, ..EngineConfig::default() };
        let input = "alpha beta gamma delta epsilon\n".repeat(12);
        let mut sched = JobScheduler::derive(
            &cfg,
            &input,
            N_REDUCES,
            Box::new(RandomPlacer),
            DecisionObserver::disabled(),
            Vec::<TaskEvent>::new(),
        );
        let n_maps = sched.book().maps().len();
        prop_assert!(n_maps > 1);
        let mut slots = Slots::new(cfg.n_nodes, cfg.map_slots, cfg.reduce_slots);
        for (step, op) in ops.iter().enumerate() {
            sched.set_now(step as f64);
            let maps = running(sched.book().maps().iter().map(|t| (t.phase, t.attempt)));
            let reduces = running(sched.book().reduces().iter().map(|t| (t.phase, t.attempt)));
            match *op {
                Op::Offer(n) => {
                    let before = (slots.map[n as usize], slots.reduce[n as usize]);
                    let launches = sched.offer(NodeId(n), &mut slots);
                    let maps = launches.iter().filter(|l| matches!(l, Launch::Map { .. })).count();
                    // Slot-capacity law: never more launches than free slots.
                    prop_assert!(maps as u32 <= before.0);
                    prop_assert!((launches.len() - maps) as u32 <= before.1);
                }
                Op::MapDone(k) if !maps.is_empty() => {
                    let (m, a, n) = maps[k % maps.len()];
                    sched.map_done(m, a, n, &[5, 6, 7]);
                    slots.map[n as usize] += 1;
                }
                Op::MapFailed(k) if !maps.is_empty() => {
                    let (m, a, n) = maps[k % maps.len()];
                    prop_assert!(sched.map_failed(m, a, n).is_some());
                    slots.map[n as usize] += 1;
                }
                Op::ReduceDone(k) if !reduces.is_empty() => {
                    let (r, a, n) = reduces[k % reduces.len()];
                    let output = vec![("k".into(), "1".into())];
                    prop_assert!(sched.reduce_done(r, a, n, output, &[(n, 9)]));
                    slots.reduce[n as usize] += 1;
                }
                // Reports for attempts the book never made (or abandoned)
                // and out-of-range tasks: all must bounce off.
                Op::StaleReports(n) => {
                    let log_len = sched.log_mut().len();
                    sched.map_done(n_maps as u32 + n, 0, n, &[1]);
                    sched.map_done(n % n_maps as u32, 99, n, &[1]);
                    prop_assert!(sched.map_failed(n, 99, n).is_none());
                    prop_assert!(!sched.reduce_done(n, 99, n, Vec::new(), &[]));
                    prop_assert_eq!(sched.log_mut().len(), log_len);
                }
                Op::LoseNode(n) => {
                    let book = sched.book();
                    let late_maps = held_on(book.maps().iter().map(|t| (t.phase, t.attempt)), n);
                    let late_reduces =
                        held_on(book.reduces().iter().map(|t| (t.phase, t.attempt)), n);
                    sched.lose_node(n as usize);
                    // The node comes straight back, empty, and is offered
                    // work at once.
                    slots.set(n as usize, cfg.map_slots, cfg.reduce_slots);
                    sched.offer(NodeId(n), &mut slots);
                    // No completion on a down node: reports from the
                    // attempts the loss ended bounce off, even where the
                    // task already runs on `n` again.
                    let log_len = sched.log_mut().len();
                    for &(m, a) in &late_maps {
                        prop_assert_eq!(sched.map_done(m, a, n, &[1]), Verdict::Stale);
                        prop_assert!(sched.map_failed(m, a, n).is_none());
                    }
                    for &(r, a) in &late_reduces {
                        prop_assert!(!sched.reduce_done(r, a, n, Vec::new(), &[]));
                    }
                    prop_assert_eq!(sched.log_mut().len(), log_len);
                }
                _ => {}
            }
            if let Err(e) = check_invariants(sched.book()) {
                prop_assert!(false, "after {op:?}: {e}");
            }
        }
        let mut replayed = Book::new(n_maps, N_REDUCES);
        for ev in sched.log_mut().iter() {
            if let Err(e) = replayed.apply(ev) {
                prop_assert!(false, "the live log does not replay: {e}");
            }
        }
        prop_assert_eq!(&replayed, sched.book());
    }
}

/// The retry budget's meter is the number of starts, and the fold counts
/// it: `Assigned, Requeued, Assigned` is two starts at attempt tag 1.
#[test]
fn starts_count_assignments_not_attempt_tags() {
    let mut book = Book::new(1, 1);
    for ev in [
        TaskEvent::MapAssigned { map: 0, attempt: 0, node: 2 },
        TaskEvent::MapRequeued { map: 0, new_attempt: 1 },
        TaskEvent::MapAssigned { map: 0, attempt: 1, node: 3 },
    ] {
        book.apply(&ev).unwrap();
    }
    let m = &book.maps()[0];
    assert_eq!((m.starts, m.attempt, m.phase), (2, 1, Phase::Running(3)));
}

/// A ban set by a source-unreachable invalidation survives a later crash
/// invalidation that names no node.
#[test]
fn a_ban_sticks_until_replaced() {
    let mut book = Book::new(1, 1);
    let done = |attempt, epoch, node| TaskEvent::MapCompleted {
        map: 0,
        attempt,
        epoch,
        node,
        d_read: 1,
        part_bytes: vec![1],
    };
    for ev in [
        TaskEvent::MapAssigned { map: 0, attempt: 0, node: 1 },
        done(0, 0, 1),
        TaskEvent::MapInvalidated { map: 0, new_attempt: 1, new_epoch: 1, banned: Some(1) },
        TaskEvent::MapAssigned { map: 0, attempt: 1, node: 2 },
        done(1, 1, 2),
        TaskEvent::MapInvalidated { map: 0, new_attempt: 2, new_epoch: 2, banned: None },
    ] {
        book.apply(&ev).unwrap();
    }
    assert_eq!(book.maps()[0].banned, Some(1));
    assert_eq!(book.node_lost(2), Vec::new(), "nothing left on node 2");
}
