//! The discrete-event queue.
//!
//! A binary min-heap keyed on `(time, sequence)` — the sequence number makes
//! ordering total and deterministic for simultaneous events.
//!
//! # Tie ordering
//!
//! Events scheduled for the **same timestamp** pop in **insertion (FIFO)
//! order**, whatever their [`EventKind`]: the queue stamps every push with a
//! monotonically increasing sequence number and compares `(t, seq)`,
//! nothing else. Two consequences the simulator relies on:
//!
//! * the pop order of any event set is a pure function of the push order —
//!   never of heap internals, payload contents or kind discriminants, so a
//!   run's event interleaving is reproducible bit-for-bit;
//! * a cause always pops before its same-timestamp effect (the cause was
//!   necessarily pushed first), e.g. a `MapDone` that schedules an
//!   immediate `Heartbeat` at the same instant.
//!
//! The regression tests below pin both properties by shuffling insertion
//! orders and asserting pop order follows `(time, insertion)` exactly.
//!
//! # Lanes beside the heap
//!
//! Two kinds make up most of a large run's events and never need the heap,
//! so they queue beside it; every event still pops in `(time, insertion)`
//! order with all the others.
//!
//! * **Heartbeats** are pushed one period after the beat that scheduled
//!   them, so they arrive in time order and a FIFO holds them sorted. One
//!   that would break the order goes to the heap.
//! * **Superseded wake-ups are dropped.** A [`EventKind::TransferWake`] is
//!   valid only while its `version` is the transfer engine's, and versions
//!   only grow, so a wake-up is dead once a later one carries a higher
//!   version: it could only pop as a no-op. The runner arms a wake-up after
//!   nearly every transfer start and finish, so most of them die unpopped.

use pnats_net::NodeId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

/// Event payloads.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum EventKind {
    /// A job becomes known to the JobTracker.
    JobArrival {
        /// Index into the simulation's job table.
        job: usize,
    },
    /// A node reports in with its slot state.
    Heartbeat {
        /// Reporting node.
        node: NodeId,
    },
    /// The earliest in-flight transfer may have finished. Valid only if
    /// `version` still matches the transfer manager's version.
    TransferWake {
        /// Transfer-manager version this prediction was made against.
        version: u64,
    },
    /// A map task finishes its compute phase. Stale (and ignored) if the
    /// attempt was killed meanwhile — `run` no longer matches the task's
    /// current attempt id.
    MapDone {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
        /// Attempt id this completion belongs to.
        run: u32,
    },
    /// A map attempt dies with a transient (retryable) failure mid-compute.
    /// Stale if `run` no longer matches.
    MapFailed {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
        /// Attempt id this failure belongs to.
        run: u32,
    },
    /// A speculative map backup finishes (may be stale if cancelled).
    BackupDone {
        /// Index into the simulation's backup table.
        idx: usize,
    },
    /// A reduce task finishes its merge+reduce phase. Stale if `run` no
    /// longer matches (the reduce was killed or sent back to shuffling).
    ReduceDone {
        /// Job index.
        job: usize,
        /// Reduce index within the job.
        reduce: usize,
        /// Attempt id this completion belongs to.
        run: u32,
    },
    /// A node dies per the fault plan: slots vanish, running tasks are
    /// rescheduled, completed map outputs stored there are invalidated.
    NodeCrash {
        /// Index into `FaultPlan::crashes`.
        fault: usize,
    },
    /// A crashed node rejoins with empty disks and full free slots.
    NodeRecover {
        /// Index into `FaultPlan::crashes`.
        fault: usize,
    },
    /// A link-degradation window opens (node NIC scaled down).
    LinkDegradeStart {
        /// Index into `FaultPlan::link_degradations`.
        idx: usize,
    },
    /// A link-degradation window closes (node NIC restored).
    LinkDegradeEnd {
        /// Index into `FaultPlan::link_degradations`.
        idx: usize,
    },
    /// Start a configured background flow.
    BackgroundStart {
        /// Index into `SimConfig::background`.
        idx: usize,
    },
    /// Stop a configured background flow.
    BackgroundStop {
        /// Index into `SimConfig::background`.
        idx: usize,
    },
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    t: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.t == other.t && self.seq == other.seq
    }
}
impl Eq for Entry {}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        other
            .t
            .total_cmp(&self.t)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Deterministic min-heap event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Heartbeats in `(time, insertion)` order (see the module docs).
    beats: VecDeque<Entry>,
    /// Transfer wake-ups not yet superseded.
    wakes: Vec<Entry>,
    seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `t`. A transfer wake-up drops every
    /// queued one with a lower version (see the module docs).
    pub fn push(&mut self, t: f64, kind: EventKind) {
        assert!(t.is_finite() && t >= 0.0, "event time must be finite: {t}");
        let entry = Entry {
            t,
            seq: self.seq,
            kind,
        };
        self.seq += 1;
        match kind {
            EventKind::TransferWake { version } => {
                self.wakes.retain(
                    |w| matches!(w.kind, EventKind::TransferWake { version: v } if v >= version),
                );
                self.wakes.push(entry);
            }
            EventKind::Heartbeat { .. }
                if self.beats.back().is_none_or(|b| b.t.total_cmp(&t).is_le()) =>
            {
                self.beats.push_back(entry)
            }
            _ => self.heap.push(entry),
        }
    }

    /// Pop the earliest event as `(time, kind)`.
    pub fn pop(&mut self) -> Option<(f64, EventKind)> {
        // `Entry` orders reversed: the greatest is the earliest, and any
        // entry beats `None`.
        let wake = (0..self.wakes.len()).max_by_key(|&i| self.wakes[i]);
        let heads = [
            self.heap.peek(),
            self.beats.front(),
            wake.map(|i| &self.wakes[i]),
        ];
        let lane = (0..heads.len())
            .max_by_key(|&l| heads[l])
            .filter(|&l| heads[l].is_some())?;
        let entry = match lane {
            0 => self.heap.pop(),
            1 => self.beats.pop_front(),
            _ => wake.map(|i| self.wakes.swap_remove(i)),
        }?;
        Some((entry.t, entry.kind))
    }

    /// Events still queued.
    pub fn len(&self) -> usize {
        self.heap.len() + self.beats.len() + self.wakes.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::Heartbeat { node: NodeId(0) });
        q.push(1.0, EventKind::Heartbeat { node: NodeId(1) });
        q.push(3.0, EventKind::Heartbeat { node: NodeId(2) });
        let order: Vec<f64> = std::iter::from_fn(|| q.pop()).map(|(t, _)| t).collect();
        assert_eq!(order, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(1.0, EventKind::MapDone { job: 0, map: 0, run: 0 });
        q.push(1.0, EventKind::MapDone { job: 0, map: 1, run: 0 });
        q.push(1.0, EventKind::MapDone { job: 0, map: 2, run: 0 });
        let maps: Vec<usize> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::MapDone { map, .. } => map,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(maps, vec![0, 1, 2]);
    }

    /// A mixed-kind event set with distinct timestamps must pop in pure
    /// time order no matter how insertion is shuffled — the heap must not
    /// leak its internal layout into the pop order.
    #[test]
    fn shuffled_insertion_pops_identical_time_order() {
        use rand::seq::SliceRandom;
        use rand::SeedableRng;
        let events: Vec<(f64, EventKind)> = vec![
            (5.0, EventKind::JobArrival { job: 0 }),
            (1.0, EventKind::Heartbeat { node: NodeId(3) }),
            (4.0, EventKind::MapDone { job: 0, map: 2, run: 1 }),
            (2.0, EventKind::TransferWake { version: 7 }),
            (8.0, EventKind::ReduceDone { job: 1, reduce: 0, run: 0 }),
            (3.0, EventKind::NodeCrash { fault: 0 }),
            (7.0, EventKind::BackgroundStart { idx: 2 }),
            (6.0, EventKind::MapFailed { job: 2, map: 9, run: 3 }),
        ];
        let mut sorted = events.clone();
        sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0xE7E27);
        for round in 0..32 {
            let mut order = events.clone();
            order.shuffle(&mut rng);
            let mut q = EventQueue::new();
            for &(t, kind) in &order {
                q.push(t, kind);
            }
            let popped: Vec<(f64, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, sorted, "round {round}: pop order depends on insertion order");
        }
    }

    /// Same-timestamp events of *different kinds* must pop in insertion
    /// order — for every permutation, not just the natural one. The kind
    /// discriminant must have no influence.
    #[test]
    fn tie_order_is_insertion_fifo_for_any_kind_permutation() {
        let kinds = [
            EventKind::Heartbeat { node: NodeId(1) },
            EventKind::MapDone { job: 0, map: 0, run: 0 },
            EventKind::NodeCrash { fault: 0 },
        ];
        // All 6 permutations of three simultaneous events.
        for perm in [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let mut q = EventQueue::new();
            for &i in &perm {
                q.push(4.25, kinds[i]);
            }
            let popped: Vec<EventKind> =
                std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
            let expect: Vec<EventKind> = perm.iter().map(|&i| kinds[i]).collect();
            assert_eq!(popped, expect, "perm {perm:?}: ties must pop FIFO");
        }
    }

    /// Heartbeats and wake-ups pop in `(time, insertion)` order among the
    /// other events, except the wake-ups a later, higher-versioned one
    /// superseded.
    #[test]
    fn lanes_keep_time_then_fifo_order_and_drop_superseded_wakes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3A4E);
        for round in 0..200 {
            let mut q = EventQueue::new();
            let mut pushed: Vec<(f64, EventKind)> = Vec::new();
            let mut version = 0;
            for i in 0..rng.gen_range(1..40) {
                // Few distinct times, so ties are common.
                let t = f64::from(rng.gen_range(0..6u32));
                let kind = match rng.gen_range(0..3) {
                    0 => {
                        version += rng.gen_range(0..2u64);
                        EventKind::TransferWake { version }
                    }
                    // At random times: some extend the lane, the rest go
                    // to the heap.
                    1 => EventKind::Heartbeat { node: NodeId(i as u32) },
                    _ => EventKind::MapDone { job: 0, map: i, run: 0 },
                };
                q.push(t, kind);
                pushed.push((t, kind));
            }
            let mut want: Vec<(f64, EventKind)> = pushed
                .iter()
                .enumerate()
                .filter(|&(i, (_, k))| match k {
                    EventKind::TransferWake { version: v } => pushed[i..]
                        .iter()
                        .all(|(_, l)| !matches!(l, EventKind::TransferWake { version: w } if w > v)),
                    _ => true,
                })
                .map(|(_, e)| *e)
                .collect();
            // A stable sort keeps insertion order among equal times.
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert_eq!(q.len(), want.len(), "round {round}");
            let popped: Vec<(f64, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, want, "round {round}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn len_tracks() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(0.0, EventKind::JobArrival { job: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, EventKind::JobArrival { job: 0 });
    }
}
