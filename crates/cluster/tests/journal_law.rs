//! The journal recovery law, held to the law as first written.
//!
//! `reference_law` is `check_journal_recovery` in its original form: the
//! replay, "a finished-ok book is complete", the cross-incarnation
//! completion ledger, and a record walk demanding that every assignment
//! outstanding at a `TrackerStarted` boundary is later completed,
//! requeued, invalidated or reconciled. Seeded journals must get the same
//! verdict from both. A journal is what a `JobScheduler` under
//! `RandomPlacer` logs through random offers, map completions and
//! failures, reduce completions and node losses, with `TrackerStarted` and
//! `AttemptReconciled` records between steps and no, a failed or an ok
//! `JobFinished` at the end; one in three is forged by duplicating or
//! dropping one record.
//!
//! `PROPTEST_CASES` sets the journal count (default 256):
//! `PROPTEST_CASES=5000 cargo test --release -q -p pnats-cluster --test journal_law`.

use pnats_baselines::RandomPlacer;
use pnats_cluster::{check_journal_recovery, JournalRecord, JournalState};
use pnats_engine::book::{JobScheduler, Phase, Slots, TaskEvent};
use pnats_engine::EngineConfig;
use pnats_net::NodeId;
use pnats_obs::{check_ledger, DecisionObserver, JobLedger, TaskKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const N_NODES: usize = 4;
const N_REDUCES: usize = 3;

/// The law before its reduction, clause by clause; an `Err` names the
/// clause that refused.
fn reference_law(records: &[JournalRecord]) -> Result<(), &'static str> {
    let st = JournalState::from_records(records).map_err(|_| "replay")?;
    if st.finished == Some(false) && !st.book.complete() {
        return Err("finished ok but incomplete");
    }
    let job = JobLedger { maps: st.n_maps, reduces: st.n_reduces, complete: false };
    let keys = st.book.completions().iter().map(|c| (0, c.kind, c.index, c.epoch));
    check_ledger(keys.collect(), &[job]).map_err(|_| "ledger")?;
    let mut running_maps: BTreeMap<u32, u32> = BTreeMap::new();
    let mut running_reduces: BTreeMap<u32, u32> = BTreeMap::new();
    let mut pending: Vec<(u32, TaskKind, u32, u32)> = Vec::new();
    for rec in records {
        match rec {
            JournalRecord::Task(TaskEvent::MapAssigned { map, attempt, .. }) => {
                running_maps.insert(*map, *attempt);
            }
            JournalRecord::Task(
                TaskEvent::MapCompleted { map, .. }
                | TaskEvent::MapInvalidated { map, .. }
                | TaskEvent::MapRequeued { map, .. },
            ) => {
                running_maps.remove(map);
                pending.retain(|(_, k, i, _)| !(*k == TaskKind::Map && i == map));
            }
            JournalRecord::Task(TaskEvent::ReduceAssigned { reduce, attempt, .. }) => {
                running_reduces.insert(*reduce, *attempt);
            }
            JournalRecord::Task(
                TaskEvent::ReduceCompleted { reduce, .. }
                | TaskEvent::ReduceRequeued { reduce, .. },
            ) => {
                running_reduces.remove(reduce);
                pending.retain(|(_, k, i, _)| !(*k == TaskKind::Reduce && i == reduce));
            }
            JournalRecord::AttemptReconciled { kind, index, .. } => {
                pending.retain(|(_, k, i, _)| !(k == kind && i == index));
            }
            JournalRecord::TrackerStarted { crash_epoch } => {
                for (m, a) in &running_maps {
                    pending.push((*crash_epoch, TaskKind::Map, *m, *a));
                }
                for (r, a) in &running_reduces {
                    pending.push((*crash_epoch, TaskKind::Reduce, *r, *a));
                }
            }
            _ => {}
        }
    }
    if st.finished == Some(false) && !pending.is_empty() {
        return Err("walk");
    }
    Ok(())
}

/// `(index, attempt, node)` of every running row.
fn running(phases: impl Iterator<Item = (Phase, u32)>) -> Vec<(u32, u32, u32)> {
    let rows = phases.enumerate();
    rows.filter_map(|(i, (p, a))| match p {
        Phase::Running(n) => Some((i as u32, a, n)),
        _ => None,
    })
    .collect()
}

/// One seeded journal (see the module doc).
fn journal(rng: &mut SmallRng) -> Vec<JournalRecord> {
    let cfg =
        EngineConfig { n_nodes: N_NODES, block_bytes: 64, seed: rng.gen(), ..Default::default() };
    let input = "alpha beta gamma delta epsilon\n".repeat(12);
    let mut sched = JobScheduler::derive(
        &cfg,
        &input,
        N_REDUCES,
        Box::new(RandomPlacer),
        DecisionObserver::disabled(),
        Vec::<TaskEvent>::new(),
    );
    let mut records = vec![JournalRecord::JobSubmitted {
        seed: cfg.seed,
        n_maps: sched.book().maps().len() as u32,
        n_reduces: N_REDUCES as u32,
        spec: "wordcount".into(),
    }];
    let nodes = 0..N_NODES as u32;
    records.extend(nodes.map(|node| JournalRecord::WorkerRegistered { node, epoch: 0 }));
    let mut slots = Slots::new(N_NODES, cfg.map_slots, cfg.reduce_slots);
    let mut crash_epoch = 0;
    for step in 0..rng.gen_range(1..160) {
        sched.set_now(step as f64);
        let maps = running(sched.book().maps().iter().map(|t| (t.phase, t.attempt)));
        let reduces = running(sched.book().reduces().iter().map(|t| (t.phase, t.attempt)));
        let n = rng.gen_range(0..N_NODES as u32);
        match rng.gen_range(0..8) {
            0..=2 => {
                sched.offer(NodeId(n), &mut slots);
            }
            3 | 4 if !maps.is_empty() => {
                let (m, a, n) = maps[rng.gen_range(0..maps.len())];
                sched.map_done(m, a, n, &[5, 6, 7]);
                slots.map[n as usize] += 1;
            }
            5 if !maps.is_empty() => {
                let (m, a, n) = maps[rng.gen_range(0..maps.len())];
                sched.map_failed(m, a, n);
                slots.map[n as usize] += 1;
            }
            6 if !reduces.is_empty() => {
                let (r, a, n) = reduces[rng.gen_range(0..reduces.len())];
                sched.reduce_done(r, a, n, vec![("k".into(), "1".into())], &[(n, 9)]);
                slots.reduce[n as usize] += 1;
            }
            7 => {
                sched.lose_node(n as usize);
                slots.set(n as usize, cfg.map_slots, cfg.reduce_slots);
            }
            _ => {}
        }
        records.extend(sched.log_mut().drain(..).map(JournalRecord::Task));
        match rng.gen_range(0..10) {
            0 => {
                crash_epoch += 1;
                records.push(JournalRecord::TrackerStarted { crash_epoch });
            }
            1 => {
                let (kind, rows) = if rng.gen_bool(0.5) {
                    (TaskKind::Map, &maps)
                } else {
                    (TaskKind::Reduce, &reduces)
                };
                if let Some(&(index, attempt, node)) = rows.first() {
                    records.push(JournalRecord::AttemptReconciled { kind, index, attempt, node });
                }
            }
            _ => {}
        }
    }
    match rng.gen_range(0..3) {
        0 => {}
        1 => records.push(JournalRecord::JobFinished { failed: true }),
        _ => records.push(JournalRecord::JobFinished { failed: false }),
    }
    if rng.gen_range(0..3) == 0 {
        let i = rng.gen_range(0..records.len());
        if rng.gen_bool(0.5) {
            records.insert(i, records[i].clone());
        } else {
            records.remove(i);
        }
    }
    records
}

#[test]
fn recovery_law_agrees_with_the_original_law() {
    let cases: u64 =
        std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(256);
    let mut refused: BTreeMap<&str, u64> = BTreeMap::new();
    for case in 0..cases {
        let records = journal(&mut SmallRng::seed_from_u64(case));
        let want = reference_law(&records);
        let got = check_journal_recovery(&records);
        assert_eq!(got.is_ok(), want.is_ok(), "case {case}: {got:?} vs {want:?}\n{records:#?}");
        *refused.entry(want.err().unwrap_or("none")).or_default() += 1;
    }
    eprintln!("journal_law: {cases} journals, refused by clause {refused:?}");
    assert!(refused.get("none").is_some_and(|&n| n > 0), "no journal passed: {refused:?}");
    assert!(refused.len() > 1, "no journal was refused: {refused:?}");
}
