//! Execution traces and derived metrics.

use pnats_metrics::{Cdf, LocalityClass, LocalityCounter, UtilizationTimeline};
pub use pnats_obs::TaskKind;

/// One completed task.
#[derive(Clone, Debug)]
pub struct TaskRecord {
    /// Job index within the run.
    pub job: usize,
    /// Map or reduce.
    pub kind: TaskKind,
    /// Task index within the job.
    pub index: usize,
    /// Execution node index.
    pub node: usize,
    /// Assignment time.
    pub assigned: f64,
    /// Completion time.
    pub finished: f64,
    /// Locality class of the placement.
    pub locality: LocalityClass,
    /// Bytes moved over the network on this task's behalf (input fetch for
    /// maps, shuffle for reduces).
    pub net_bytes: f64,
    /// Output epoch of the completion (maps only; 0 unless a node crash
    /// invalidated an earlier completed output and forced a re-execution).
    pub epoch: u32,
}

impl TaskRecord {
    /// Running time (assignment to completion) — the quantity of the
    /// paper's Figure 6.
    pub fn running_time(&self) -> f64 {
        self.finished - self.assigned
    }
}

/// One completed job.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Job index within the run (stable key for trace joins; names can
    /// repeat across jobs).
    pub job: usize,
    /// Job name (e.g. `Wordcount_10GB`).
    pub name: String,
    /// Submission time.
    pub submit: f64,
    /// Completion time.
    pub finished: f64,
}

impl JobRecord {
    /// Job completion time — the quantity of Figures 4/5.
    pub fn jct(&self) -> f64 {
        self.finished - self.submit
    }
}

/// Everything a simulation run records.
pub struct Trace {
    /// Completed tasks, in completion order.
    pub tasks: Vec<TaskRecord>,
    /// Completed jobs, in completion order.
    pub jobs: Vec<JobRecord>,
    /// Map-slot busy timeline.
    pub map_util: UtilizationTimeline,
    /// Reduce-slot busy timeline.
    pub reduce_util: UtilizationTimeline,
    /// Total bytes moved over the network.
    pub network_bytes: f64,
    /// Speculative map backups launched.
    pub backups_launched: u64,
    /// Backups that finished before their primary (and killed it).
    pub backups_won: u64,
    /// Backups cancelled because the primary finished (or died) first.
    pub backups_cancelled: u64,
}

impl Trace {
    /// An empty trace for a cluster of the given slot capacities.
    pub fn new(map_slot_capacity: u64, reduce_slot_capacity: u64) -> Self {
        Self {
            tasks: Vec::new(),
            jobs: Vec::new(),
            map_util: UtilizationTimeline::new(map_slot_capacity),
            reduce_util: UtilizationTimeline::new(reduce_slot_capacity),
            network_bytes: 0.0,
            backups_launched: 0,
            backups_won: 0,
            backups_cancelled: 0,
        }
    }

    /// Task records of one kind.
    pub fn tasks_of(&self, kind: TaskKind) -> impl Iterator<Item = &TaskRecord> {
        self.tasks.iter().filter(move |t| t.kind == kind)
    }

    /// CDF of running times for one kind of task (Figure 6).
    pub fn task_time_cdf(&self, kind: TaskKind) -> Cdf {
        Cdf::new(self.tasks_of(kind).map(|t| t.running_time()).collect())
    }

    /// CDF of job completion times (Figure 4).
    pub fn jct_cdf(&self) -> Cdf {
        Cdf::new(self.jobs.iter().map(|j| j.jct()).collect())
    }

    /// Locality tallies for one kind of task (Table III / Figure 7).
    pub fn locality_of(&self, kind: TaskKind) -> LocalityCounter {
        let mut c = LocalityCounter::default();
        for t in self.tasks_of(kind) {
            c.record(t.locality);
        }
        c
    }

    /// Combined map+reduce locality (Table III counts both).
    pub fn locality_all(&self) -> LocalityCounter {
        let mut c = self.locality_of(TaskKind::Map);
        c += self.locality_of(TaskKind::Reduce);
        c
    }

    /// Makespan: last job completion time.
    pub fn makespan(&self) -> f64 {
        self.jobs.iter().map(|j| j.finished).fold(0.0, f64::max)
    }

    /// The task trace as CSV (header + one row per task), for external
    /// analysis/plotting.
    pub fn tasks_csv(&self) -> String {
        let mut out = String::from(
            "job,kind,index,node,assigned_s,finished_s,running_s,locality,net_bytes,epoch\n",
        );
        for t in &self.tasks {
            out.push_str(&format!(
                "{},{},{},{},{:.3},{:.3},{:.3},{},{:.0},{}\n",
                t.job,
                match t.kind {
                    TaskKind::Map => "map",
                    TaskKind::Reduce => "reduce",
                },
                t.index,
                t.node,
                t.assigned,
                t.finished,
                t.running_time(),
                t.locality,
                t.net_bytes,
                t.epoch,
            ));
        }
        out
    }

    /// The job trace as CSV.
    pub fn jobs_csv(&self) -> String {
        let mut out = String::from("name,submit_s,finished_s,jct_s\n");
        for j in &self.jobs {
            out.push_str(&format!(
                "{},{:.3},{:.3},{:.3}\n",
                j.name, j.submit, j.finished,
                j.jct()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(kind: TaskKind, assigned: f64, finished: f64, loc: LocalityClass) -> TaskRecord {
        TaskRecord { job: 0, kind, index: 0, node: 0, assigned, finished, locality: loc, net_bytes: 0.0, epoch: 0 }
    }

    #[test]
    fn cdfs_split_by_kind() {
        let mut t = Trace::new(4, 2);
        t.tasks.push(rec(TaskKind::Map, 0.0, 10.0, LocalityClass::NodeLocal));
        t.tasks.push(rec(TaskKind::Map, 0.0, 20.0, LocalityClass::RackLocal));
        t.tasks.push(rec(TaskKind::Reduce, 5.0, 10.0, LocalityClass::Remote));
        assert_eq!(t.task_time_cdf(TaskKind::Map).len(), 2);
        assert_eq!(t.task_time_cdf(TaskKind::Reduce).len(), 1);
        assert_eq!(t.task_time_cdf(TaskKind::Map).max(), Some(20.0));
    }

    #[test]
    fn locality_tallies() {
        let mut t = Trace::new(4, 2);
        t.tasks.push(rec(TaskKind::Map, 0.0, 1.0, LocalityClass::NodeLocal));
        t.tasks.push(rec(TaskKind::Reduce, 0.0, 1.0, LocalityClass::NodeLocal));
        t.tasks.push(rec(TaskKind::Reduce, 0.0, 1.0, LocalityClass::RackLocal));
        assert_eq!(t.locality_of(TaskKind::Map).node_local, 1);
        assert_eq!(t.locality_all().total(), 3);
        assert_eq!(t.locality_all().rack_local, 1);
    }

    #[test]
    fn csv_exports() {
        let mut t = Trace::new(1, 1);
        t.tasks.push(rec(TaskKind::Map, 0.0, 2.0, LocalityClass::NodeLocal));
        t.jobs.push(JobRecord { job: 0, name: "wc".into(), submit: 0.0, finished: 9.0 });
        let csv = t.tasks_csv();
        assert!(csv.starts_with("job,kind"));
        assert!(csv.contains("0,map,0,0,0.000,2.000,2.000,local,0"));
        assert_eq!(csv.lines().count(), 2);
        let jcsv = t.jobs_csv();
        assert!(jcsv.contains("wc,0.000,9.000,9.000"));
    }

    #[test]
    fn jct_and_makespan() {
        let mut t = Trace::new(1, 1);
        t.jobs.push(JobRecord { job: 0, name: "a".into(), submit: 0.0, finished: 100.0 });
        t.jobs.push(JobRecord { job: 1, name: "b".into(), submit: 50.0, finished: 80.0 });
        assert_eq!(t.jct_cdf().max(), Some(100.0));
        assert_eq!(t.makespan(), 100.0);
        assert_eq!(t.jobs[1].jct(), 30.0);
    }
}
