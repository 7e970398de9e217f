//! A small min-cost max-flow solver (successive shortest paths with
//! Bellman-Ford/SPFA), the substrate for the Quincy-style scheduler.
//!
//! Quincy (Isard et al., SOSP'09 — the paper's related work \[20\]) phrases
//! cluster scheduling as min-cost flow: tasks are sources of one unit,
//! machines sinks, edge costs encode data movement. The graphs here are
//! small (a candidate window × cluster nodes), so the classic O(V·E) per
//! augmentation algorithm is plenty.

/// A directed flow network with costs. Node ids are dense `usize`.
#[derive(Clone, Debug, Default)]
pub struct MinCostFlow {
    /// Forward+backward arcs, interleaved (arc `i^1` is `i`'s reverse).
    to: Vec<usize>,
    cap: Vec<i64>,
    cost: Vec<i64>,
    /// Per-node adjacency (arc indices).
    adj: Vec<Vec<usize>>,
}

impl MinCostFlow {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { to: Vec::new(), cap: Vec::new(), cost: Vec::new(), adj: vec![Vec::new(); n] }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Add an arc `u → v` with capacity `cap` and per-unit cost `cost`.
    /// Returns the arc id (use with [`MinCostFlow::flow_on`]).
    fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: i64) -> usize {
        assert!(u < self.adj.len() && v < self.adj.len(), "node out of range");
        assert!(cap >= 0);
        let id = self.to.len();
        self.to.push(v);
        self.cap.push(cap);
        self.cost.push(cost);
        self.adj[u].push(id);
        self.to.push(u);
        self.cap.push(0);
        self.cost.push(-cost);
        self.adj[v].push(id + 1);
        id
    }

    /// Flow currently on arc `id` (residual of the reverse arc).
    fn flow_on(&self, id: usize) -> i64 {
        self.cap[id ^ 1]
    }

    /// Send up to `limit` units from `s` to `t` at minimum total cost.
    /// Returns `(flow, cost)`. Handles negative arc costs (no negative
    /// cycles may exist in the input).
    pub fn run(&mut self, s: usize, t: usize, limit: i64) -> (i64, i64) {
        assert!(s < self.n_nodes() && t < self.n_nodes());
        let n = self.n_nodes();
        let mut flow = 0i64;
        let mut total_cost = 0i64;
        while flow < limit {
            // SPFA shortest path by cost in the residual graph.
            let mut dist = vec![i64::MAX; n];
            let mut in_queue = vec![false; n];
            let mut prev_arc = vec![usize::MAX; n];
            dist[s] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(s);
            in_queue[s] = true;
            while let Some(u) = queue.pop_front() {
                in_queue[u] = false;
                for &a in &self.adj[u] {
                    if self.cap[a] > 0 && dist[u] != i64::MAX {
                        let v = self.to[a];
                        let nd = dist[u] + self.cost[a];
                        if nd < dist[v] {
                            dist[v] = nd;
                            prev_arc[v] = a;
                            if !in_queue[v] {
                                queue.push_back(v);
                                in_queue[v] = true;
                            }
                        }
                    }
                }
            }
            if dist[t] == i64::MAX {
                break; // no augmenting path
            }
            // Bottleneck along the path.
            let mut push = limit - flow;
            let mut v = t;
            while v != s {
                let a = prev_arc[v];
                push = push.min(self.cap[a]);
                v = self.to[a ^ 1];
            }
            // Apply.
            let mut v = t;
            while v != s {
                let a = prev_arc[v];
                self.cap[a] -= push;
                self.cap[a ^ 1] += push;
                v = self.to[a ^ 1];
            }
            flow += push;
            total_cost += push * dist[t];
        }
        (flow, total_cost)
    }
}

/// Solve a (possibly rectangular) assignment problem: `costs[i][j]` is the
/// cost of giving row task `i` to column slot `j`; `col_caps[j]` how many
/// tasks slot `j` accepts. Returns for each row the assigned column (or
/// `None` if more rows than capacity) minimizing total cost.
pub fn assignment(costs: &[Vec<i64>], col_caps: &[usize]) -> Vec<Option<usize>> {
    let rows = costs.len();
    let cols = col_caps.len();
    if rows == 0 {
        return Vec::new();
    }
    for r in costs {
        assert_eq!(r.len(), cols, "cost matrix must be rectangular");
    }
    // Nodes: 0 = source, 1..=rows = tasks, rows+1..=rows+cols = slots,
    // rows+cols+1 = sink.
    let s = 0;
    let t = rows + cols + 1;
    let mut g = MinCostFlow::new(t + 1);
    let mut task_arcs = vec![Vec::with_capacity(cols); rows];
    for (i, row) in costs.iter().enumerate() {
        g.add_edge(s, 1 + i, 1, 0);
        for (j, &cost) in row.iter().enumerate() {
            task_arcs[i].push(g.add_edge(1 + i, 1 + rows + j, 1, cost));
        }
    }
    for (j, &cap) in col_caps.iter().enumerate() {
        g.add_edge(1 + rows + j, t, cap as i64, 0);
    }
    g.run(s, t, rows as i64);
    (0..rows)
        .map(|i| (0..cols).find(|&j| g.flow_on(task_arcs[i][j]) > 0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_path() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 5, 2);
        g.add_edge(1, 2, 3, 1);
        let (f, c) = g.run(0, 2, 10);
        assert_eq!(f, 3);
        assert_eq!(c, 9);
    }

    #[test]
    fn chooses_cheaper_parallel_path_first() {
        let mut g = MinCostFlow::new(4);
        g.add_edge(0, 1, 1, 10); // expensive
        g.add_edge(0, 2, 1, 1); // cheap
        g.add_edge(1, 3, 1, 0);
        g.add_edge(2, 3, 1, 0);
        let (f, c) = g.run(0, 3, 1);
        assert_eq!((f, c), (1, 1), "takes the cheap path");
        let (f2, c2) = g.run(0, 3, 1);
        assert_eq!((f2, c2), (1, 10), "then the expensive one");
    }

    #[test]
    fn respects_limit() {
        let mut g = MinCostFlow::new(2);
        g.add_edge(0, 1, 100, 1);
        let (f, c) = g.run(0, 1, 7);
        assert_eq!((f, c), (7, 7));
    }

    #[test]
    fn disconnected_returns_zero() {
        let mut g = MinCostFlow::new(3);
        g.add_edge(0, 1, 1, 1);
        let (f, c) = g.run(0, 2, 5);
        assert_eq!((f, c), (0, 0));
    }

    #[test]
    fn assignment_picks_global_optimum() {
        // Greedy would give task 0 slot 0 (cost 1) forcing task 1 to cost
        // 10 (total 11); the optimum is 2 + 2 = 4.
        let costs = vec![vec![1, 2], vec![2, 10]];
        let a = assignment(&costs, &[1, 1]);
        assert_eq!(a, vec![Some(1), Some(0)]);
    }

    #[test]
    fn assignment_respects_capacity() {
        // One slot, capacity 1, two tasks: cheaper task wins.
        let costs = vec![vec![5], vec![3]];
        let a = assignment(&costs, &[1]);
        assert_eq!(a, vec![None, Some(0)]);
    }

    #[test]
    fn assignment_multi_capacity_slot() {
        let costs = vec![vec![1], vec![1], vec![1]];
        let a = assignment(&costs, &[2]);
        assert_eq!(a.iter().filter(|x| x.is_some()).count(), 2);
    }

    #[test]
    fn assignment_empty() {
        assert!(assignment(&[], &[1, 2]).is_empty());
    }
}
