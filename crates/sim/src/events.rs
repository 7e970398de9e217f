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
//!   version: it could only pop as a no-op. The runner files at most one
//!   wake-up per dispatched event.
//!
//! # Reserved sequence numbers
//!
//! The runner learns *that* it owes a wake-up as soon as a transfer starts
//! or finishes, but computes *when* only once the whole event has been
//! handled. [`EventQueue::reserve_seq`] takes the sequence number at the
//! first moment, and [`EventQueue::push_at`] files the event under it at
//! the second, so the wake-up keeps the tie position it would have had if
//! it had been pushed right away.

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
    /// A speculative map backup finishes. Stale if `id` no longer matches
    /// the map's live backup (it was cancelled, maybe replaced).
    BackupDone {
        /// Job index.
        job: usize,
        /// Map index within the job.
        map: usize,
        /// Launch number of the backup this completion belongs to (`u32`
        /// keeps the event as small as `MapDone`).
        id: u32,
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
        let seq = self.reserve_seq();
        self.push_at(t, kind, seq);
    }

    /// Take the next sequence number without pushing anything: an event
    /// later filed under it with [`EventQueue::push_at`] ties as if pushed
    /// now.
    pub fn reserve_seq(&mut self) -> u64 {
        self.seq += 1;
        self.seq - 1
    }

    /// Schedule `kind` at absolute time `t` under a sequence number from
    /// [`EventQueue::reserve_seq`], each used at most once.
    pub fn push_at(&mut self, t: f64, kind: EventKind, seq: u64) {
        assert!(t.is_finite() && t >= 0.0, "event time must be finite: {t}");
        debug_assert!(seq < self.seq, "sequence number {seq} was never reserved");
        let entry = Entry { t, seq, kind };
        match kind {
            EventKind::TransferWake { version } => {
                self.wakes.retain(
                    |w| matches!(w.kind, EventKind::TransferWake { version: v } if v >= version),
                );
                self.wakes.push(entry);
            }
            // `Entry` orders reversed: `>=` means "pops no later than".
            EventKind::Heartbeat { .. } if self.beats.back().is_none_or(|b| *b >= entry) => {
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
        use rand::{Rng, SeedableRng};
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
            // Some events only reserve their number on the way in and are
            // filed after all the others, as the runner files wake-ups.
            let mut q = EventQueue::new();
            let mut deferred = Vec::new();
            for &(t, kind) in &order {
                if rng.gen_bool(0.3) {
                    deferred.push((t, kind, q.reserve_seq()));
                } else {
                    q.push(t, kind);
                }
            }
            for (t, kind, seq) in deferred {
                q.push_at(t, kind, seq);
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
    /// superseded. A wake-up filed late under a reserved number counts as
    /// inserted when it was reserved, and supersedes when it is filed.
    #[test]
    fn lanes_keep_time_then_fifo_order_and_drop_superseded_wakes() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0x3A4E);
        for round in 0..200 {
            let mut q = EventQueue::new();
            // Every event by its sequence number, and the order they were
            // filed in.
            let mut pushed: Vec<(f64, EventKind)> = Vec::new();
            let mut filed: Vec<usize> = Vec::new();
            // A reserved wake-up not filed yet: (index, seq, time).
            let mut owed: Option<(usize, u64, f64)> = None;
            let mut version = 0;
            let mut wake = |rng: &mut rand::rngs::SmallRng| {
                version += rng.gen_range(0..2u64);
                EventKind::TransferWake { version }
            };
            for i in 0..rng.gen_range(1..40) {
                // Few distinct times, so ties are common.
                let t = f64::from(rng.gen_range(0..6u32));
                match rng.gen_range(0..4) {
                    0 => {
                        let kind = wake(&mut rng);
                        q.push(t, kind);
                        filed.push(pushed.len());
                        pushed.push((t, kind));
                    }
                    1 if owed.is_none() => {
                        owed = Some((pushed.len(), q.reserve_seq(), t));
                        pushed.push((t, EventKind::TransferWake { version: u64::MAX }));
                    }
                    // At random times: some extend the lane, the rest go
                    // to the heap.
                    1 | 2 => {
                        let kind = EventKind::Heartbeat { node: NodeId(i as u32) };
                        q.push(t, kind);
                        filed.push(pushed.len());
                        pushed.push((t, kind));
                    }
                    _ => {
                        let kind = EventKind::MapDone { job: 0, map: i, run: 0 };
                        q.push(t, kind);
                        filed.push(pushed.len());
                        pushed.push((t, kind));
                    }
                }
                if rng.gen_bool(0.3) {
                    if let Some((at, seq, t)) = owed.take() {
                        let kind = wake(&mut rng);
                        q.push_at(t, kind, seq);
                        filed.push(at);
                        pushed[at].1 = kind;
                    }
                }
            }
            if let Some((at, seq, t)) = owed.take() {
                let kind = wake(&mut rng);
                q.push_at(t, kind, seq);
                filed.push(at);
                pushed[at].1 = kind;
            }
            let version_of = |i: usize| match pushed[i].1 {
                EventKind::TransferWake { version } => Some(version),
                _ => None,
            };
            let mut want: Vec<(f64, EventKind)> = (0..pushed.len())
                .filter(|&i| {
                    let Some(v) = version_of(i) else { return true };
                    let when = filed.iter().position(|&f| f == i).unwrap();
                    filed[when..].iter().all(|&f| version_of(f).is_none_or(|w| w <= v))
                })
                .map(|i| pushed[i])
                .collect();
            // A stable sort keeps sequence order among equal times.
            want.sort_by(|a, b| a.0.total_cmp(&b.0));
            assert_eq!(q.len(), want.len(), "round {round}");
            let popped: Vec<(f64, EventKind)> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, want, "round {round}");
            assert!(q.is_empty());
        }
    }

    /// The runner reserves a wake-up's number when a transfer starts and
    /// files it after the rest of the event: it still pops before what the
    /// same event pushed at the same time in between.
    #[test]
    fn reserved_wake_pops_before_a_later_same_time_push() {
        let mut q = EventQueue::new();
        q.push(2.0, EventKind::Heartbeat { node: NodeId(0) });
        let seq = q.reserve_seq();
        q.push(2.0, EventKind::MapDone { job: 0, map: 0, run: 0 });
        q.push(2.0, EventKind::Heartbeat { node: NodeId(1) });
        q.push_at(2.0, EventKind::TransferWake { version: 3 }, seq);
        let popped: Vec<EventKind> = std::iter::from_fn(|| q.pop()).map(|(_, k)| k).collect();
        assert_eq!(
            popped,
            vec![
                EventKind::Heartbeat { node: NodeId(0) },
                EventKind::TransferWake { version: 3 },
                EventKind::MapDone { job: 0, map: 0, run: 0 },
                EventKind::Heartbeat { node: NodeId(1) },
            ]
        );
    }

    /// A heartbeat filed under an old number must not join the lane behind
    /// a same-time beat with a newer one: the lane would pop it late.
    #[test]
    fn reserved_heartbeat_keeps_its_tie_position() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.push(1.0, EventKind::Heartbeat { node: NodeId(1) });
        q.push_at(1.0, EventKind::Heartbeat { node: NodeId(0) }, seq);
        let nodes: Vec<NodeId> = std::iter::from_fn(|| q.pop())
            .map(|(_, k)| match k {
                EventKind::Heartbeat { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![NodeId(0), NodeId(1)]);
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
