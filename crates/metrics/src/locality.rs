//! Locality accounting (paper §III-C, Table III and Figure 7).
//!
//! "A map or reduce task that is assigned to a machine with data for that
//! task is referred to as a *local task*. A \[task\] assigned to a machine
//! without local data but in the rack having the machine with local data is
//! a *local rack task*, and other \[tasks\] are *remote tasks*."

use std::fmt;
use std::ops::AddAssign;

/// Where a task ran relative to its data.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum LocalityClass {
    /// Data on the execution node.
    NodeLocal,
    /// Data in the execution node's rack (but not on the node).
    RackLocal,
    /// Data entirely outside the rack.
    Remote,
}

impl fmt::Display for LocalityClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            LocalityClass::NodeLocal => "local",
            LocalityClass::RackLocal => "rack-local",
            LocalityClass::Remote => "remote",
        })
    }
}

/// Tallies of tasks per locality class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LocalityCounter {
    /// Node-local task count.
    pub node_local: u64,
    /// Rack-local task count.
    pub rack_local: u64,
    /// Remote task count.
    pub remote: u64,
}

impl LocalityCounter {
    /// Record one task of the given class.
    pub fn record(&mut self, class: LocalityClass) {
        match class {
            LocalityClass::NodeLocal => self.node_local += 1,
            LocalityClass::RackLocal => self.rack_local += 1,
            LocalityClass::Remote => self.remote += 1,
        }
    }

    /// Total tasks recorded.
    pub fn total(&self) -> u64 {
        self.node_local + self.rack_local + self.remote
    }

    /// Percentage of node-local tasks (0 when empty).
    pub fn pct_node_local(&self) -> f64 {
        self.pct(self.node_local)
    }

    /// Percentage of rack-local tasks.
    pub fn pct_rack_local(&self) -> f64 {
        self.pct(self.rack_local)
    }

    /// Percentage of remote tasks.
    pub fn pct_remote(&self) -> f64 {
        self.pct(self.remote)
    }

    fn pct(&self, part: u64) -> f64 {
        let t = self.total();
        if t == 0 {
            0.0
        } else {
            part as f64 / t as f64 * 100.0
        }
    }
}

impl AddAssign for LocalityCounter {
    fn add_assign(&mut self, rhs: Self) {
        self.node_local += rhs.node_local;
        self.rack_local += rhs.rack_local;
        self.remote += rhs.remote;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentages_sum_to_100() {
        let mut c = LocalityCounter::default();
        for _ in 0..9 {
            c.record(LocalityClass::NodeLocal);
        }
        c.record(LocalityClass::RackLocal);
        assert_eq!(c.total(), 10);
        assert_eq!(c.pct_node_local(), 90.0);
        assert_eq!(c.pct_rack_local(), 10.0);
        assert_eq!(c.pct_remote(), 0.0);
        let sum = c.pct_node_local() + c.pct_rack_local() + c.pct_remote();
        assert!((sum - 100.0).abs() < 1e-9);
    }

    #[test]
    fn empty_counter_is_all_zero() {
        let c = LocalityCounter::default();
        assert_eq!(c.total(), 0);
        assert_eq!(c.pct_node_local(), 0.0);
    }

    #[test]
    fn add_assign_merges() {
        let mut a = LocalityCounter { node_local: 1, rack_local: 2, remote: 3 };
        a += LocalityCounter { node_local: 10, rack_local: 20, remote: 30 };
        assert_eq!(a, LocalityCounter { node_local: 11, rack_local: 22, remote: 33 });
    }

    #[test]
    fn display_names() {
        assert_eq!(LocalityClass::NodeLocal.to_string(), "local");
        assert_eq!(LocalityClass::RackLocal.to_string(), "rack-local");
        assert_eq!(LocalityClass::Remote.to_string(), "remote");
    }
}
