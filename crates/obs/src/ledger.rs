//! The completion-ledger law, written once for every runtime.
//!
//! The recovery model is Hadoop's: a lost node's finished maps run again,
//! and every task's output counts exactly once per run epoch. Epoch `e` of
//! a map exists only because epoch `e − 1`'s output was invalidated, so a
//! map's ledger holds one entry per epoch `0..=E`, contiguous from zero; a
//! reduce's output is durable, so it completes exactly once. The
//! simulator's trace, the cluster tracker's accepted completions and the
//! replayed journal all feed [`check_ledger`], which sorts the keys once
//! and walks them once.

use crate::record::TaskKind;

/// One ledger entry: `(job, kind, index, epoch)`.
pub type LedgerKey = (u32, TaskKind, u32, u32);

/// What one job owes the ledger.
#[derive(Clone, Copy, Debug)]
pub struct JobLedger {
    /// Map tasks in the job.
    pub maps: u32,
    /// Reduce tasks in the job.
    pub reduces: u32,
    /// The job completed, so it owes every task; otherwise it only owes
    /// "no duplicate key".
    pub complete: bool,
}

/// Check the ledger law over `keys` for the jobs `jobs` describes (a key's
/// job indexes `jobs`). Every key must fall inside its job's task counts
/// and none may repeat; a complete job's maps each have epochs `0..=E`
/// and its reduces each complete exactly once. Returns the number of map
/// entries with `epoch > 0`, which each caller holds to its own
/// re-execution counters.
pub fn check_ledger(mut keys: Vec<LedgerKey>, jobs: &[JobLedger]) -> Result<u64, String> {
    keys.sort_unstable();
    let (mut at, mut reexec) = (0, 0);
    for (j, job) in (0u32..).zip(jobs) {
        for (kind, count) in [(TaskKind::Map, job.maps), (TaskKind::Reduce, job.reduces)] {
            let start = at;
            while keys.get(at).is_some_and(|k| (k.0, k.1) == (j, kind)) {
                at += 1;
            }
            let mut owed = 0; // the next index a complete job must show
            for task in keys[start..at].chunk_by(|a, b| a.2 == b.2) {
                let i = task[0].2;
                if i >= count {
                    return Err(format!("job {j} {kind:?} {i}: outside the job's {count} tasks"));
                }
                if job.complete && i != owed {
                    return Err(format!("job {j} {kind:?} {owed}: no completion"));
                }
                owed = i + 1;
                let epochs = || task.iter().map(|k| k.3);
                if kind == TaskKind::Map {
                    reexec += epochs().filter(|&e| e > 0).count() as u64;
                }
                if !job.complete {
                    if let Some(w) = task.windows(2).find(|w| w[0] == w[1]) {
                        return Err(format!("duplicate completion: {:?}", w[0]));
                    }
                } else if kind == TaskKind::Reduce && task.len() != 1 {
                    return Err(format!("job {j} reduce {i}: {} completions (want 1)", task.len()));
                } else if kind == TaskKind::Map && !epochs().eq(0..task.len() as u32) {
                    let epochs: Vec<u32> = epochs().collect();
                    return Err(format!(
                        "job {j} map {i}: epochs {epochs:?} not exactly-once-contiguous"
                    ));
                }
            }
            if job.complete && owed < count {
                return Err(format!("job {j} {kind:?} {owed}: no completion"));
            }
        }
    }
    match keys.get(at) {
        Some(k) => Err(format!("ledger entry {k:?}: job out of range (only {})", jobs.len())),
        None => Ok(reexec),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SchedCounters, TaskCompletion, TaskKind as K};

    /// The cluster's ledger (one job) as law keys.
    fn keys(ledger: &[TaskCompletion]) -> Vec<LedgerKey> {
        ledger.iter().map(|c| (0, c.kind, c.index, c.epoch)).collect()
    }

    fn job(maps: u32, reduces: u32, complete: bool) -> [JobLedger; 1] {
        [JobLedger { maps, reduces, complete }]
    }

    #[test]
    fn runtime_ledger_laws() {
        let c = |kind, index, epoch| TaskCompletion { kind, index, epoch };
        // Clean: 2 maps (one re-executed), 1 reduce.
        let ledger = vec![c(K::Map, 0, 0), c(K::Map, 1, 0), c(K::Map, 1, 1), c(K::Reduce, 0, 0)];
        assert_eq!(check_ledger(keys(&ledger), &job(2, 1, true)), Ok(1));
        // Missing epoch 0 for map 1 → non-contiguous.
        let gap = vec![c(K::Map, 0, 0), c(K::Map, 1, 1), c(K::Reduce, 0, 0)];
        let err = check_ledger(keys(&gap), &job(2, 1, true)).unwrap_err();
        assert!(err.contains("not exactly-once-contiguous"), "{err}");
        // Duplicate reduce.
        let dup = vec![c(K::Map, 0, 0), c(K::Reduce, 0, 0), c(K::Reduce, 0, 0)];
        let err = check_ledger(keys(&dup), &job(1, 1, true)).unwrap_err();
        assert!(err.contains("completions (want 1)"), "{err}");
        // A failed run owes no completeness...
        check_ledger(keys(&gap[..1]), &job(2, 1, false)).unwrap();
        // ...but never a duplicate.
        let err = check_ledger(keys(&dup), &job(1, 1, false)).unwrap_err();
        assert!(err.contains("duplicate completion"), "{err}");
        // Offer conservation is one helper for every oracle.
        let mut counters = SchedCounters { offers: 4, assigns: 4, ..SchedCounters::default() };
        counters.check_offer_identity().unwrap();
        counters.offers = 5;
        let err = counters.check_offer_identity().unwrap_err();
        assert!(err.contains("offer identity"), "{err}");
    }

    #[test]
    fn stray_entries_are_refused() {
        let c = |kind, index| (0, kind, index, 0);
        // An index beyond the job's maps, complete or not.
        for complete in [true, false] {
            let stray = vec![c(K::Map, 0), c(K::Map, 7), c(K::Reduce, 0)];
            let err = check_ledger(stray, &job(1, 1, complete)).unwrap_err();
            assert!(err.contains("outside the job's 1 tasks"), "{err}");
        }
        // A job the caller never described.
        let err = check_ledger(vec![(3, K::Map, 0, 0)], &job(1, 1, false)).unwrap_err();
        assert!(err.contains("job out of range (only 1)"), "{err}");
        // A complete job owes every task, the last ones included.
        let err = check_ledger(vec![c(K::Map, 0)], &job(2, 0, true)).unwrap_err();
        assert!(err.contains("Map 1: no completion"), "{err}");
        let err = check_ledger(vec![c(K::Map, 0)], &job(1, 1, true)).unwrap_err();
        assert!(err.contains("Reduce 0: no completion"), "{err}");
        // ... and an empty job owes nothing.
        assert_eq!(check_ledger(Vec::new(), &job(0, 0, true)), Ok(0));
    }

    #[test]
    fn keys_are_walked_per_job() {
        let jobs = [
            JobLedger { maps: 1, reduces: 0, complete: true },
            JobLedger { maps: 2, reduces: 1, complete: false },
        ];
        // Job 1 is unfinished: its map 1 may be missing, epochs may skip.
        let keys =
            vec![(1, K::Map, 0, 2), (0, K::Map, 0, 1), (0, K::Map, 0, 0), (1, K::Reduce, 0, 0)];
        assert_eq!(check_ledger(keys, &jobs), Ok(2));
        // Job 0 is complete: its map needs epoch 0.
        let err = check_ledger(vec![(0, K::Map, 0, 1)], &jobs).unwrap_err();
        assert!(err.contains("job 0 map 0: epochs [1]"), "{err}");
    }
}
