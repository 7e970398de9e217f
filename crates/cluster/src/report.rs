//! What a cluster run produces, the oracle that validates it, and a flat
//! text serialization so the `pnats-cluster` binary can hand results to a
//! parent process (the smoke test, the kill test, CI).

use pnats_metrics::LocalityCounter;
use pnats_obs::{check_ledger, JobLedger, SchedCounters, TaskCompletion};
use std::time::Duration;

/// Where one run's wall time went: the moment (ms since tracker start) the
/// tracker passed each transition of a job's life, plus how far its round
/// clock ticked. A stage is `None` when the run never reached it — a failed
/// job may never finish its maps, a recovery incarnation that inherited
/// every finished map never sees the last one land, a fleet with a dead
/// member never has everyone registered.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Stages {
    /// The last of the `n_nodes` workers registered.
    pub all_registered: Option<f64>,
    /// The first assignment was handed out (the instant behind
    /// [`ClusterReport::first_assign_ms`]).
    pub first_assign: Option<f64>,
    /// A map completion made every map finished for the first time.
    pub maps_done: Option<f64>,
    /// The verdict was reached (complete, failed, or stopped).
    pub job_done: Option<f64>,
    /// Every worker this incarnation ever heard from (or its journal
    /// names) had been answered `shutdown`. `None` when the shutdown-ack
    /// ceiling ran out first — some worker never called again.
    pub workers_told: Option<f64>,
    /// RPC server and tick thread stopped and joined.
    pub torn_down: Option<f64>,
    /// Rounds the tracker's clock ticked. Only the timer advances it —
    /// heartbeats, in-band or out-of-band, never do.
    pub rounds: u64,
}

impl Stages {
    /// Each stage's slot under its report name, in timeline order: the one
    /// list [`named`](Self::named) and [`from_kv`](Self::from_kv) walk.
    fn slots(&mut self) -> [(&'static str, &mut Option<f64>); 6] {
        [
            ("all_registered", &mut self.all_registered),
            ("first_assign", &mut self.first_assign),
            ("maps_done", &mut self.maps_done),
            ("job_done", &mut self.job_done),
            ("workers_told", &mut self.workers_told),
            ("torn_down", &mut self.torn_down),
        ]
    }

    /// The six stages in timeline order, each under its report name.
    pub fn named(&self) -> [(&'static str, Option<f64>); 6] {
        let mut st = *self;
        st.slots().map(|(name, at)| (name, *at))
    }

    /// `name=ms` for every reached stage, in timeline order, then
    /// `rounds=n` — the `stages` line of [`ClusterReport::to_text`].
    pub fn to_kv(&self) -> String {
        let mut s = String::new();
        for (name, at) in self.named() {
            if let Some(ms) = at {
                s.push_str(&format!("{name}={ms:.3} "));
            }
        }
        s.push_str(&format!("rounds={}", self.rounds));
        s
    }

    /// Inverse of [`to_kv`](Self::to_kv); unknown or malformed tokens are
    /// skipped, absent stages stay `None`.
    pub fn from_kv<'a>(tokens: impl Iterator<Item = &'a str>) -> Self {
        let mut st = Self::default();
        for (k, v) in tokens.filter_map(|t| t.split_once('=')) {
            if k == "rounds" {
                st.rounds = v.parse().unwrap_or(0);
            } else if let Some((_, slot)) = st.slots().into_iter().find(|(name, _)| *name == k) {
                *slot = v.parse().ok();
            }
        }
        st
    }

    /// The orderings that hold by construction, over the stages that were
    /// reached: registration, the first assignment and the last map all
    /// precede the verdict, which precedes the goodbyes, which precede
    /// teardown; and an incarnation that started the job itself (`fresh`)
    /// assigned a map before the last one finished. Registration and the
    /// first assignment are *not* ordered — the first worker to register
    /// is offered work while the others are still dialing.
    pub fn check(&self, fresh: bool) -> Result<(), String> {
        let ordered = |chain: &[(&str, Option<f64>)]| {
            let mut prev: Option<(&str, f64)> = None;
            for (name, ms) in chain.iter().filter_map(|(n, at)| at.map(|ms| (*n, ms))) {
                if let Some((before, t)) = prev.filter(|(_, t)| ms < *t) {
                    return Err(format!(
                        "stage timeline not monotone: {name} at {ms:.3} ms precedes {before} \
                         at {t:.3} ms"
                    ));
                }
                prev = Some((name, ms));
            }
            Ok(())
        };
        let [registered, assigned, maps, done, told, down] = self.named();
        ordered(&[registered, done, told, down])?;
        ordered(&[assigned, done])?;
        ordered(&[maps, done])?;
        if fresh {
            ordered(&[assigned, maps])?;
        }
        Ok(())
    }
}

/// Result of one cluster job — the distributed twin of
/// [`pnats_engine::EngineReport`].
pub struct ClusterReport {
    /// Final key/value pairs, partition-major (within a partition, sorted
    /// by key). Byte-identical to the engine's output for the same seed.
    pub output: Vec<(String, String)>,
    /// Where each map assignment ran relative to its block replicas.
    pub map_locality: LocalityCounter,
    /// Where each reduce ran relative to its dominant shuffle source.
    pub reduce_locality: LocalityCounter,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Map task count.
    pub n_maps: usize,
    /// Reduce task count.
    pub n_reduces: usize,
    /// Decision + fault counters for the run.
    pub counters: SchedCounters,
    /// The decision trace as JSONL when an in-memory sink was attached.
    pub trace_jsonl: Option<String>,
    /// Every completion the tracker accepted, in acceptance order — the
    /// exactly-once ledger [`check_cluster_report`] audits. Not
    /// carried by the flat text form ([`to_text`](Self::to_text)); the
    /// oracle runs in-process where the full report is available, and
    /// process-based harnesses rebuild the ledger from the journal.
    pub completions: Vec<TaskCompletion>,
    /// Wall ms from tracker start to its first assignment decision
    /// (`stages.first_assign`, kept for readers of the report).
    /// On a recovery incarnation this is the failover latency probe: the
    /// time from restart to the first post-recovery assignment.
    pub first_assign_ms: Option<f64>,
    /// The run's stage timeline and final round count.
    pub stages: Stages,
    /// True when the job was aborted (retry budget exhausted, the whole
    /// fleet permanently down, or the `max_wall` deadline fired).
    pub failed: bool,
}

/// The cluster oracle. Checks the accounting identities that must hold for
/// any run, completed or failed:
///
/// * every offer became exactly one decision (`counters.consistent`),
/// * the stage timeline is monotone ([`Stages::check`]),
/// * the completion ledger keeps [`check_ledger`]'s law — in full for a
///   completed run, "no duplicate entry" for a failed one,
///
/// and for completed runs additionally:
///
/// * re-execution accounting — the ledger's epoch>0 map entries equal
///   `reexecuted_maps` (booked by this incarnation) + `recovered_reexec`
///   (booked by earlier ones, carried over by journal replay),
/// * assignment conservation — every map and reduce was assigned exactly
///   once, plus once more per retry/re-execution, *minus* work a recovery
///   incarnation inherited from the journal instead of assigning itself:
///   `assigns == n_maps + n_reduces + retries + reexecuted_maps
///   − recovered_maps − recovered_reduces − inherited_assignments`,
/// * every non-recovered reduce completion recorded a locality class,
/// * every map this incarnation had to place was assigned at least once,
/// * recovery counters are structurally coherent (reconciliations imply a
///   re-attach, inherited state implies a restart, one journal replay per
///   restart).
pub fn check_cluster_report(r: &ClusterReport) -> Result<(), String> {
    let c = &r.counters;
    if c.attempts_reconciled > 0 && c.worker_reattaches == 0 {
        return Err(format!(
            "{} attempts reconciled without any worker re-attach",
            c.attempts_reconciled
        ));
    }
    if c.journal_replays != c.tracker_restarts {
        return Err(format!(
            "journal replays ({}) != tracker restarts ({})",
            c.journal_replays, c.tracker_restarts
        ));
    }
    let inherited_any =
        c.recovered_maps + c.recovered_reduces + c.inherited_assignments + c.recovered_reexec;
    if inherited_any > 0 && c.tracker_restarts == 0 {
        return Err(format!(
            "recovery tallies ({inherited_any}) booked without a tracker restart"
        ));
    }
    c.check_offer_identity()?;
    if r.counters.peers_expired > r.counters.node_crashes {
        return Err(format!(
            "expiries ({}) exceed recorded crashes ({})",
            r.counters.peers_expired, r.counters.node_crashes
        ));
    }
    r.stages.check(c.tracker_restarts == 0)?;
    let job = JobLedger { maps: r.n_maps as u32, reduces: r.n_reduces as u32, complete: !r.failed };
    let keys = r.completions.iter().map(|e| (0, e.kind, e.index, e.epoch));
    let reexec = check_ledger(keys.collect(), &[job])?;
    if r.failed {
        return Ok(()); // partial runs only owe the identities above
    }
    if reexec != c.recovered_reexec + c.reexecuted_maps {
        return Err(format!(
            "re-execution mismatch: {reexec} epoch>0 ledger entries vs recovered_reexec={} + \
             reexecuted_maps={}",
            c.recovered_reexec, c.reexecuted_maps
        ));
    }
    let expected = (r.n_maps + r.n_reduces) as i128 + c.retries as i128
        + c.reexecuted_maps as i128
        - c.recovered_maps as i128
        - c.recovered_reduces as i128
        - c.inherited_assignments as i128;
    if c.assigns as i128 != expected {
        return Err(format!(
            "assignment conservation violated: assigns={} expected {} \
             (n_maps={} n_reduces={} retries={} reexecuted={} recovered={}+{} inherited={})",
            c.assigns,
            expected,
            r.n_maps,
            r.n_reduces,
            c.retries,
            c.reexecuted_maps,
            c.recovered_maps,
            c.recovered_reduces,
            c.inherited_assignments
        ));
    }
    let owed_reduces = (r.n_reduces as u64).saturating_sub(c.recovered_reduces);
    if r.reduce_locality.total() != owed_reduces {
        return Err(format!(
            "reduce locality total {} != n_reduces {} - recovered {}",
            r.reduce_locality.total(),
            r.n_reduces,
            c.recovered_reduces
        ));
    }
    // Inherited running assignments may cover maps as well as reduces, so
    // the map floor only subtracts them conservatively.
    let owed_maps = (r.n_maps as u64)
        .saturating_sub(c.recovered_maps)
        .saturating_sub(c.inherited_assignments);
    if r.map_locality.total() < owed_maps {
        return Err(format!(
            "map locality total {} < owed maps {} (n_maps={} recovered={} inherited={})",
            r.map_locality.total(),
            owed_maps,
            r.n_maps,
            c.recovered_maps,
            c.inherited_assignments
        ));
    }
    Ok(())
}

impl ClusterReport {
    /// Flat text form: a `status` line, a `counters` line (the
    /// [`SchedCounters::to_kv`] form), a `stages` line ([`Stages::to_kv`]),
    /// then one tab-separated line per output pair. Keys/values containing
    /// tabs or newlines are not representable — the built-in jobs never
    /// emit them.
    pub fn to_text(&self) -> String {
        let mut s = format!(
            "status failed={} n_maps={} n_reduces={} wall_ms={}",
            u8::from(self.failed),
            self.n_maps,
            self.n_reduces,
            self.wall.as_millis()
        );
        s.push('\n');
        s.push_str(&format!("counters {}\n", self.counters.to_kv()));
        s.push_str(&format!("stages {}\n", self.stages.to_kv()));
        for (k, v) in &self.output {
            s.push_str(k);
            s.push('\t');
            s.push_str(v);
            s.push('\n');
        }
        s
    }
}

/// A [`ClusterReport`] read back from its [`to_text`](ClusterReport::to_text)
/// form — what a parent process learns from a tracker it spawned.
pub struct ReportSummary {
    /// Whether the run failed.
    pub failed: bool,
    /// Map task count.
    pub n_maps: usize,
    /// Reduce task count.
    pub n_reduces: usize,
    /// Counter block.
    pub counters: SchedCounters,
    /// Output pairs in partition-major order.
    pub output: Vec<(String, String)>,
    /// Stage timeline; all-`None` when read from a report that predates it.
    pub stages: Stages,
}

impl ReportSummary {
    /// Parse the flat text form. Returns `None` on a malformed header.
    pub fn parse(text: &str) -> Option<Self> {
        let mut lines = text.lines();
        let status = lines.next()?.strip_prefix("status ")?;
        let mut failed = false;
        let mut n_maps = 0usize;
        let mut n_reduces = 0usize;
        for tok in status.split_whitespace() {
            let (k, v) = tok.split_once('=')?;
            match k {
                "failed" => failed = v == "1",
                "n_maps" => n_maps = v.parse().ok()?,
                "n_reduces" => n_reduces = v.parse().ok()?,
                _ => {}
            }
        }
        let counters_line = lines.next()?.strip_prefix("counters ")?;
        let counters = SchedCounters::from_kv(counters_line.split_whitespace());
        // Output lines carry a tab, the stages line never does.
        let mut lines = lines.peekable();
        let stages = lines
            .next_if(|l| l.starts_with("stages ") && !l.contains('\t'))
            .map(|l| Stages::from_kv(l.split_whitespace().skip(1)))
            .unwrap_or_default();
        let output = lines
            .filter_map(|l| l.split_once('\t').map(|(k, v)| (k.to_string(), v.to_string())))
            .collect();
        Some(Self {
            failed,
            n_maps,
            n_reduces,
            counters,
            output,
            stages,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pnats_obs::TaskKind;

    fn sample() -> ClusterReport {
        let mut counters = SchedCounters { offers: 7, assigns: 5, ..SchedCounters::default() };
        counters.skips[0] = 2;
        ClusterReport {
            output: vec![("a".into(), "1".into()), ("b".into(), "2".into())],
            map_locality: LocalityCounter { node_local: 3, rack_local: 0, remote: 0 },
            reduce_locality: LocalityCounter { node_local: 2, rack_local: 0, remote: 0 },
            wall: Duration::from_millis(12),
            n_maps: 3,
            n_reduces: 2,
            counters,
            trace_jsonl: None,
            completions: [(TaskKind::Map, 3), (TaskKind::Reduce, 2)]
                .into_iter()
                .flat_map(|(kind, n)| (0..n).map(move |index| TaskCompletion { kind, index, epoch: 0 }))
                .collect(),
            first_assign_ms: Some(4.25),
            stages: Stages {
                all_registered: Some(2.5),
                first_assign: Some(4.25),
                maps_done: Some(7.0),
                job_done: Some(9.5),
                workers_told: None,
                torn_down: Some(11.125),
                rounds: 3,
            },
            failed: false,
        }
    }

    #[test]
    fn oracle_accepts_conserved_report() {
        assert!(check_cluster_report(&sample()).is_ok());
    }

    #[test]
    fn oracle_rejects_assignment_leak() {
        let mut r = sample();
        r.counters.assigns = 6;
        r.counters.offers = 8; // keep offer conservation so the leak is the finding
        assert!(check_cluster_report(&r).unwrap_err().contains("assignment conservation"));
    }

    #[test]
    fn oracle_tiles_reexecution_across_incarnations() {
        let mut r = sample();
        r.completions.push(TaskCompletion { kind: TaskKind::Map, index: 1, epoch: 1 });
        let c = &mut r.counters;
        // This incarnation re-executed map 1 itself ...
        (c.assigns, c.offers, c.reexecuted_maps) = (6, 8, 1);
        check_cluster_report(&r).unwrap();
        // ... or a recovery incarnation books the same epoch>0 entry as
        // inherited; the split still tiles the ledger.
        let c = &mut r.counters;
        (c.assigns, c.offers, c.reexecuted_maps, c.recovered_reexec) = (5, 7, 0, 1);
        (c.tracker_restarts, c.journal_replays) = (1, 1);
        check_cluster_report(&r).unwrap();
        // Booked re-executions must match epoch>0 entries.
        r.counters.recovered_reexec = 0;
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("re-execution mismatch"), "{err}");
        // The ledger law runs over the report: in full for a completed run,
        r.completions.remove(1);
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("not exactly-once-contiguous"), "{err}");
        // ... as "no duplicate" for a failed one.
        r.failed = true;
        check_cluster_report(&r).unwrap();
        r.completions.push(r.completions[0]);
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("duplicate completion"), "{err}");
        // Offer conservation is checked either way.
        r.counters.offers += 1;
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("offer identity"), "{err}");
    }

    #[test]
    fn text_round_trip() {
        let r = sample();
        let s = ReportSummary::parse(&r.to_text()).expect("parses");
        assert_eq!(s.failed, r.failed);
        assert_eq!(s.n_maps, r.n_maps);
        assert_eq!(s.n_reduces, r.n_reduces);
        assert_eq!(s.counters, r.counters);
        assert_eq!(s.output, r.output);
        assert_eq!(s.stages, r.stages);
        // A report written before the timeline existed still parses.
        let text = r.to_text();
        let old: String =
            text.lines().filter(|l| !l.starts_with("stages ")).map(|l| format!("{l}\n")).collect();
        let s = ReportSummary::parse(&old).expect("parses");
        assert_eq!(s.stages, Stages::default());
        assert_eq!(s.output, r.output);
    }

    #[test]
    fn oracle_rejects_a_timeline_that_runs_backwards() {
        let mut r = sample();
        r.stages.torn_down = Some(9.0); // before job_done at 9.5
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("torn_down") && err.contains("job_done"), "{err}");
        // Registration and the first assignment are unordered ...
        let mut r = sample();
        r.stages.all_registered = Some(5.0);
        check_cluster_report(&r).unwrap();
        // ... and a recovery incarnation may inherit the running maps, see
        // the last one land, and only then place its first assignment.
        r.stages.first_assign = Some(8.0);
        assert!(check_cluster_report(&r).unwrap_err().contains("maps_done"));
        r.counters.tracker_restarts = 1;
        r.counters.journal_replays = 1;
        check_cluster_report(&r).unwrap();
    }

    #[test]
    fn oracle_balances_recovered_work() {
        // A recovery incarnation: 1 of 3 maps and 1 of 2 reduces inherited
        // finished, 1 map assignment inherited running — so it only placed
        // 2 assignments itself, and only 1 reduce completion owed a
        // locality class.
        let mut r = sample();
        r.counters.assigns = 2;
        r.counters.offers = 4;
        r.counters.tracker_restarts = 1;
        r.counters.journal_replays = 1;
        r.counters.recovered_maps = 1;
        r.counters.recovered_reduces = 1;
        r.counters.inherited_assignments = 1;
        r.map_locality = LocalityCounter { node_local: 1, rack_local: 0, remote: 0 };
        r.reduce_locality = LocalityCounter { node_local: 1, rack_local: 0, remote: 0 };
        check_cluster_report(&r).unwrap();
        // Reconciliation without a re-attach is structurally impossible.
        r.counters.attempts_reconciled = 1;
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("without any worker re-attach"), "{err}");
        r.counters.worker_reattaches = 1;
        check_cluster_report(&r).unwrap();
        // Recovery tallies without a restart are too.
        r.counters.tracker_restarts = 0;
        r.counters.journal_replays = 0;
        let err = check_cluster_report(&r).unwrap_err();
        assert!(err.contains("without a tracker restart"), "{err}");
    }
}
