//! Class-compressed hop matrix: `O(classes²)` memory instead of `O(n²)`.
//!
//! A dense [`DistanceMatrix`](crate::DistanceMatrix) costs `n² × 8` bytes —
//! 800 MB at 10k nodes — and `O(n · (V + E))` BFS time to build, both of
//! which wall off large-cluster simulation. But in a switch hierarchy hop
//! distances only depend on *where in the hierarchy* the endpoints sit:
//! nodes with identical neighbor sets (same leaf switch) are
//! interchangeable. [`ClassedDistance`] stores one `class-of-node` byte
//! table plus a tiny class-to-class hop table and answers
//! [`PathCost::path_cost`] with two lookups.
//!
//! Equal neighbor sets make two nodes provably equidistant from every third
//! vertex (any shortest path enters through a shared neighbor), so the
//! compressed answers are *exactly* the BFS hop counts, not an
//! approximation — verified against
//! [`DistanceMatrix::hops`](crate::DistanceMatrix::hops) in the tests.

use crate::cost::PathCost;
use crate::topology::{NodeId, Topology, Vertex};
use std::collections::{HashMap, VecDeque};

/// Hop distances compressed over neighbor-set equivalence classes.
#[derive(Clone, Debug)]
pub struct ClassedDistance {
    n: usize,
    /// Number of classes (the stride of `h`).
    c: usize,
    /// Node → class, classes numbered in first-seen (ascending id) order.
    class_of: Vec<u32>,
    /// Class-to-class hop table, row-major `c × c`. Off-diagonal entries
    /// are representative distances; the diagonal holds the *intra-class
    /// pair* distance (two distinct same-class nodes), because the a == b
    /// case short-circuits to 0 before the lookup.
    h: Vec<f64>,
    version: u64,
}

impl ClassedDistance {
    /// BFS hop distances for `topo`, grouped by neighbor-set classes.
    pub fn hops(topo: &Topology) -> Self {
        let n = topo.n_nodes();
        let n_vertices = n + topo.n_switches();
        // Class = exact multiset of neighboring vertices. Our builders
        // attach each node to exactly one switch, so this collapses to
        // "same leaf switch", but the definition stays sound for any graph.
        let mut key_to_class: HashMap<Vec<usize>, u32> = HashMap::new();
        let mut class_of = vec![0u32; n];
        let mut members: Vec<Vec<NodeId>> = Vec::new();
        for (i, slot) in class_of.iter_mut().enumerate() {
            let mut key: Vec<usize> = topo
                .incident(Vertex::Node(NodeId(i as u32)))
                .iter()
                .map(|&(_, v)| match v {
                    Vertex::Node(nd) => nd.idx(),
                    Vertex::Switch(s) => n + s.0 as usize,
                })
                .collect();
            key.sort_unstable();
            let next = members.len() as u32;
            let q = *key_to_class.entry(key).or_insert(next);
            if q == next {
                members.push(Vec::new());
            }
            *slot = q;
            members[q as usize].push(NodeId(i as u32));
        }
        let c = members.len();
        // One BFS per class representative — O(c · (V + E)) total.
        let mut h = vec![f64::INFINITY; c * c];
        let mut dist = vec![u32::MAX; n_vertices];
        let mut queue = VecDeque::new();
        for (a, m) in members.iter().enumerate() {
            dist.iter_mut().for_each(|d| *d = u32::MAX);
            queue.clear();
            let src = m[0];
            dist[src.idx()] = 0;
            queue.push_back(Vertex::Node(src));
            while let Some(v) = queue.pop_front() {
                let vi = match v {
                    Vertex::Node(nd) => nd.idx(),
                    Vertex::Switch(s) => n + s.0 as usize,
                };
                let d = dist[vi];
                for &(_, next) in topo.incident(v) {
                    let ni = match next {
                        Vertex::Node(nd) => nd.idx(),
                        Vertex::Switch(s) => n + s.0 as usize,
                    };
                    if dist[ni] == u32::MAX {
                        dist[ni] = d + 1;
                        queue.push_back(next);
                    }
                }
            }
            for (b, mb) in members.iter().enumerate() {
                // Distance to a *different* node of class b: for b == a
                // that is the second member (singleton classes keep the
                // unreachable-∞ marker only if truly isolated; a singleton
                // diagonal is never read — path_cost(a, a) returns 0).
                let target = if b == a {
                    match mb.get(1) {
                        Some(&t) => t,
                        None => {
                            h[a * c + b] = 0.0;
                            continue;
                        }
                    }
                } else {
                    mb[0]
                };
                if dist[target.idx()] != u32::MAX {
                    h[a * c + b] = dist[target.idx()] as f64;
                }
            }
        }
        Self { n, c, class_of, h, version: 0 }
    }

    /// Number of equivalence classes.
    pub fn n_classes(&self) -> usize {
        self.c
    }

    /// Node → class table (first-seen numbering).
    pub fn class_of(&self) -> &[u32] {
        &self.class_of
    }
}

impl PathCost for ClassedDistance {
    #[inline]
    fn path_cost(&self, a: NodeId, b: NodeId) -> f64 {
        if a == b {
            return 0.0;
        }
        let (ca, cb) = (self.class_of[a.idx()] as usize, self.class_of[b.idx()] as usize);
        self.h[ca * self.c + cb]
    }

    fn n_nodes(&self) -> usize {
        self.n
    }

    fn version(&self) -> u64 {
        self.version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance::DistanceMatrix;

    fn assert_matches_dense(topo: &Topology) {
        let dense = DistanceMatrix::hops(topo);
        let classed = ClassedDistance::hops(topo);
        let n = topo.n_nodes();
        for a in 0..n {
            for b in 0..n {
                let (na, nb) = (NodeId(a as u32), NodeId(b as u32));
                assert_eq!(
                    classed.path_cost(na, nb),
                    dense.path_cost(na, nb),
                    "hops({a}, {b})"
                );
            }
        }
    }

    #[test]
    fn matches_dense_on_single_rack() {
        assert_matches_dense(&Topology::single_rack(5, 1e9));
    }

    #[test]
    fn matches_dense_on_multi_rack() {
        let topo = Topology::multi_rack(3, 4, 1e9, 1e9);
        let classed = ClassedDistance::hops(&topo);
        assert_eq!(classed.n_classes(), 3, "one class per rack");
        assert_matches_dense(&topo);
    }

    #[test]
    fn matches_dense_on_palmetto_slice() {
        assert_matches_dense(&Topology::palmetto_slice(60, 1e9));
    }

    #[test]
    fn matches_dense_on_fat_tree() {
        assert_matches_dense(&Topology::fat_tree(4, 1e9));
    }

    /// Two more shapes the simulator runs hop-metric cells on: the
    /// oversubscribed cloud slice and `scale_sweep`'s 1 000-node fabric.
    #[test]
    fn matches_dense_on_the_simulated_fabrics() {
        assert_matches_dense(&Topology::palmetto_slice_oversub(60, 1e9, 2.0));
        assert_matches_dense(&Topology::multi_rack(25, 40, 1e9, 10e9));
    }

    #[test]
    fn isolated_nodes_are_mutually_unreachable() {
        let topo = Topology::isolated(3);
        let classed = ClassedDistance::hops(&topo);
        assert_eq!(classed.n_classes(), 1, "identical (empty) neighbor sets");
        assert_eq!(classed.path_cost(NodeId(0), NodeId(0)), 0.0);
        assert!(classed.path_cost(NodeId(0), NodeId(1)).is_infinite());
        assert_matches_dense(&topo);
    }
}
