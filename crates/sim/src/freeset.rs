//! Flat slot-availability and pending-task bookkeeping for the incremental
//! tick loop.
//!
//! Two tiny data structures carry the scaled simulator's hot paths:
//!
//! * [`FreeSet`] — the set of nodes with a free map (or reduce) slot,
//!   maintained as a bitset plus a lazily rebuilt ascending node list and,
//!   when a cost-class partition is installed, per-class free counts. The
//!   list replaces the per-offer `O(n)` scan that rebuilt the free-node
//!   vector from scratch, and the counts back the scheduler's
//!   class-compressed `C_ave` (`pnats_core::costidx`). A `generation` stamp
//!   bumps only on real 0↔1 membership flips, so the placer's per-class
//!   distance sums keyed on it are rebuilt exactly when the free set
//!   changes.
//! * [`PendingList`] — an intrusive doubly-linked list over task indices
//!   with O(1) push/remove/contains, replacing `VecDeque` pending queues
//!   whose mid-queue `remove` was `O(len)`. Iteration order is identical
//!   to the `VecDeque` it replaces under the same operation sequence
//!   (FIFO, with mid-removals preserving relative order).
//!
//! Both structures are pure bookkeeping: they never make decisions, so the
//! simulator's decision stream is byte-identical to the scan-based code as
//! long as membership and iteration order match — which the tests below pin.

use pnats_core::costidx::{CostClasses, CostView};
use pnats_net::NodeId;

/// Set of nodes with at least one free slot of one kind.
#[derive(Clone, Debug)]
pub struct FreeSet {
    /// Membership bitset, bit `i` = node `i` free.
    words: Vec<u64>,
    /// Ascending free-node list; valid only when `!dirty`.
    list: Vec<NodeId>,
    dirty: bool,
    total: u32,
    /// Node → cost class; empty when no class partition is installed.
    class_of: Vec<u32>,
    /// Free-node count per cost class (parallel to the installed partition).
    counts: Vec<u32>,
    generation: u64,
}

impl FreeSet {
    /// An empty set over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
            list: Vec::with_capacity(n),
            dirty: false,
            total: 0,
            class_of: Vec::new(),
            counts: Vec::new(),
            generation: 0,
        }
    }

    /// Set node membership. No-ops (and keeps `generation`) unless the
    /// bit actually flips.
    pub fn set(&mut self, node: usize, free: bool) {
        let (w, b) = (node / 64, node % 64);
        let cur = (self.words[w] >> b) & 1 == 1;
        if cur == free {
            return;
        }
        self.words[w] ^= 1 << b;
        if free {
            self.total += 1;
        } else {
            self.total -= 1;
        }
        if !self.class_of.is_empty() {
            let q = self.class_of[node] as usize;
            if free {
                self.counts[q] += 1;
            } else {
                self.counts[q] -= 1;
            }
        }
        self.generation += 1;
        self.dirty = true;
    }

    /// Whether `node` is in the set.
    pub fn is_free(&self, node: usize) -> bool {
        (self.words[node / 64] >> (node % 64)) & 1 == 1
    }

    /// Number of free nodes.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Stamp that advances exactly when membership changes.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Per-class free counts (empty when no partition is installed).
    pub fn counts(&self) -> &[u32] {
        &self.counts
    }

    /// The incremental cost index over this set, for a placer context.
    /// `classes` must be the partition last given to
    /// [`FreeSet::set_classes`].
    pub fn view<'a>(&'a self, classes: &'a CostClasses) -> CostView<'a> {
        debug_assert_eq!(classes.n_classes(), self.counts.len(), "partition not installed");
        CostView {
            classes,
            free_counts: &self.counts,
            free_bits: &self.words,
            total_free: self.total,
            generation: self.generation,
        }
    }

    /// Install a node → class partition and recount per-class totals.
    pub fn set_classes(&mut self, class_of: &[u32], n_classes: usize) {
        assert_eq!(class_of.len().div_ceil(64), self.words.len(), "partition size mismatch");
        self.class_of = class_of.to_vec();
        self.counts = vec![0; n_classes];
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.counts[self.class_of[i] as usize] += 1;
                bits &= bits - 1;
            }
        }
        self.generation += 1;
    }

    /// Rebuild the ascending free-node list if membership changed since the
    /// last rebuild. Call before [`FreeSet::list`]; split from it so the
    /// `&mut` rebuild doesn't fight the shared borrows a decision context
    /// holds on the list.
    pub fn ensure_list(&mut self) {
        if !self.dirty {
            return;
        }
        self.list.clear();
        for (w, &word) in self.words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                self.list.push(NodeId(i as u32));
                bits &= bits - 1;
            }
        }
        self.dirty = false;
    }

    /// The ascending free-node list. [`FreeSet::ensure_list`] must have run
    /// since the last mutation.
    pub fn list(&self) -> &[NodeId] {
        debug_assert!(!self.dirty, "FreeSet::ensure_list not called after mutation");
        &self.list
    }
}

const NIL: u32 = u32::MAX;

/// Intrusive FIFO list over task indices `0..n` with O(1) push-back,
/// mid-list remove and membership test.
#[derive(Clone, Debug)]
pub struct PendingList {
    next: Vec<u32>,
    prev: Vec<u32>,
    present: Vec<bool>,
    head: u32,
    tail: u32,
    len: usize,
}

impl PendingList {
    /// An empty list able to hold indices `0..n`.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            next: vec![NIL; n],
            prev: vec![NIL; n],
            present: vec![false; n],
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// A list pre-filled with `0, 1, …, n-1` in order.
    pub fn full(n: usize) -> Self {
        let mut l = Self::with_capacity(n);
        for i in 0..n {
            l.push_back(i);
        }
        l
    }

    /// Entries currently in the list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `i` is currently in the list.
    pub fn contains(&self, i: usize) -> bool {
        self.present[i]
    }

    /// Append `i` at the tail. Panics if already present.
    pub fn push_back(&mut self, i: usize) {
        assert!(!self.present[i], "index {i} already pending");
        let iu = i as u32;
        self.present[i] = true;
        self.next[i] = NIL;
        self.prev[i] = self.tail;
        if self.tail == NIL {
            self.head = iu;
        } else {
            self.next[self.tail as usize] = iu;
        }
        self.tail = iu;
        self.len += 1;
    }

    /// Unlink `i`; returns whether it was present. Relative order of the
    /// remaining entries is unchanged.
    pub fn remove(&mut self, i: usize) -> bool {
        if !self.present[i] {
            return false;
        }
        let (p, n) = (self.prev[i], self.next[i]);
        if p == NIL {
            self.head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.present[i] = false;
        self.next[i] = NIL;
        self.prev[i] = NIL;
        self.len -= 1;
        true
    }

    /// Remove everything.
    pub fn clear(&mut self) {
        let mut cur = self.head;
        while cur != NIL {
            let nx = self.next[cur as usize];
            self.present[cur as usize] = false;
            self.next[cur as usize] = NIL;
            self.prev[cur as usize] = NIL;
            cur = nx;
        }
        self.head = NIL;
        self.tail = NIL;
        self.len = 0;
    }

    /// First entry, if any.
    pub fn front(&self) -> Option<usize> {
        (self.head != NIL).then_some(self.head as usize)
    }

    /// Iterate entries head → tail.
    pub fn iter(&self) -> PendingIter<'_> {
        PendingIter { list: self, cur: self.head }
    }
}

/// Iterator over a [`PendingList`] in FIFO order.
pub struct PendingIter<'a> {
    list: &'a PendingList,
    cur: u32,
}

impl Iterator for PendingIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        if self.cur == NIL {
            return None;
        }
        let i = self.cur as usize;
        self.cur = self.list.next[i];
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn freeset_tracks_membership_and_total() {
        let mut f = FreeSet::new(130);
        assert_eq!(f.total(), 0);
        f.set(0, true);
        f.set(64, true);
        f.set(129, true);
        assert_eq!(f.total(), 3);
        assert!(f.is_free(64) && !f.is_free(63));
        let g = f.generation();
        f.set(64, true); // no flip — generation must not move
        assert_eq!(f.generation(), g);
        f.set(64, false);
        assert_eq!(f.generation(), g + 1);
        f.ensure_list();
        assert_eq!(f.list(), &[NodeId(0), NodeId(129)]);
    }

    #[test]
    fn freeset_list_is_ascending_and_lazy() {
        let mut f = FreeSet::new(200);
        for i in [150usize, 3, 77, 63, 64, 199] {
            f.set(i, true);
        }
        f.ensure_list();
        let ids: Vec<usize> = f.list().iter().map(|n| n.idx()).collect();
        assert_eq!(ids, vec![3, 63, 64, 77, 150, 199]);
        // Unchanged membership keeps the same slice without a rebuild.
        let ptr = f.list().as_ptr();
        f.ensure_list();
        assert_eq!(f.list().as_ptr(), ptr);
    }

    #[test]
    fn freeset_class_counts_follow_flips() {
        let mut f = FreeSet::new(8);
        f.set(1, true);
        f.set(5, true);
        // Classes: nodes 0–3 → class 0, 4–7 → class 1.
        f.set_classes(&[0, 0, 0, 0, 1, 1, 1, 1], 2);
        assert_eq!(f.counts(), &[1, 1]);
        f.set(2, true);
        f.set(5, false);
        assert_eq!(f.counts(), &[2, 0]);
    }

    #[test]
    fn pending_list_matches_vecdeque_semantics() {
        // Drive a PendingList and a VecDeque through the same op sequence;
        // iteration order must agree at every step.
        let mut pl = PendingList::full(10);
        let mut vd: VecDeque<usize> = (0..10).collect();
        let check = |pl: &PendingList, vd: &VecDeque<usize>| {
            assert_eq!(pl.iter().collect::<Vec<_>>(), vd.iter().copied().collect::<Vec<_>>());
            assert_eq!(pl.len(), vd.len());
        };
        check(&pl, &vd);
        for &kill in &[4usize, 0, 9] {
            assert!(pl.remove(kill));
            let pos = vd.iter().position(|&x| x == kill).unwrap();
            vd.remove(pos);
            check(&pl, &vd);
        }
        // Requeue with dedup, like the recovery path does.
        for &back in &[4usize, 4, 0] {
            if !pl.contains(back) {
                pl.push_back(back);
            }
            if !vd.contains(&back) {
                vd.push_back(back);
            }
            check(&pl, &vd);
        }
        assert!(pl.remove(7));
        assert!(!pl.remove(7)); // second remove is a no-op
        pl.clear();
        assert!(pl.is_empty());
        assert_eq!(pl.iter().count(), 0);
        pl.push_back(3);
        assert_eq!(pl.front(), Some(3));
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn double_push_panics() {
        let mut pl = PendingList::with_capacity(4);
        pl.push_back(2);
        pl.push_back(2);
    }
}
