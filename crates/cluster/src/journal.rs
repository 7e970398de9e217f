//! The durable write-ahead job journal.
//!
//! The tracker appends one record per scheduler-visible mutation —
//! *before* applying it or replying to the worker that caused it — so a
//! SIGKILLed tracker can be restarted and reconstruct its book by
//! replaying the file. Records are encoded with the `pnats-rpc` wire
//! primitives and framed by the same length-prefix + FNV-1a checksum
//! machinery the TCP protocol uses ([`write_frame`]/[`read_frame`]): a
//! torn final record (the crash landed mid-append) fails its checksum or
//! length and is dropped, classic WAL semantics. Everything before the
//! first damaged record is trusted; everything after it is discarded.
//!
//! Durability model: `File::write` hands bytes to the kernel on the spot
//! (no user-space buffering), so a journal survives SIGKILL of the
//! tracker *process* even with [`FsyncPolicy::Never`] — fsync only buys
//! protection against OS/machine crashes, which is why `Never` is the
//! default and `Always` is a config knob rather than hardcoded.
//!
//! What is journaled: job identity (seed + spec, validated on replay),
//! worker registrations with crash epochs, every [`TaskEvent`] the tracker
//! commits to its [`Book`] — assignment, completion (reduce completions
//! carry their full output: the tracker holds reduce output, so it would
//! otherwise die with the process), invalidation and requeue — re-attach
//! reconciliations, one `TrackerStarted` per recovery, and the final job
//! verdict. Replay is not a second interpretation of those records:
//! [`JournalState::from_records`] feeds them to [`Book::apply`], the same
//! transition function the live tracker mutates through.
//!
//! The byte layout is two [`wire!`] tables, one row per variant, which
//! generate both directions. They use the macro's names-only form: the
//! orphan rule forbids implementing `pnats-rpc`'s `Wire` for `TaskEvent`
//! (pnats-engine) or, through its `TaskKind` field, for `JournalRecord`
//! here, so the tables emit `put_*` / `get_*` functions instead. `Task(ev)`
//! shares the record tag space (a task event's tag *is* its record tag),
//! and `AttemptReconciled` is the one hand-written arm. Changing a row
//! changes the on-disk format, which `encoded_bytes_are_pinned` guards.

use pnats_engine::book::{Book, EventLog, Phase, TaskEvent};
use pnats_obs::TaskKind;
use pnats_rpc::frame::{read_frame, write_frame, FrameError};
use pnats_rpc::wire;
use pnats_rpc::wire::{Reader, Wire, WireError, Writer};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};

/// When the journal file is flushed to stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Never fsync. Survives tracker SIGKILL (writes reach the kernel
    /// synchronously); does not survive an OS crash. The default.
    Never,
    /// fsync after every appended record. Survives OS crashes at the cost
    /// of one disk barrier per scheduler mutation.
    Always,
}

impl FsyncPolicy {
    /// Parse a CLI/config spelling (`never` | `always`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "never" => Some(FsyncPolicy::Never),
            "always" => Some(FsyncPolicy::Always),
            _ => None,
        }
    }
}

/// One scheduler-visible mutation, as journaled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JournalRecord {
    /// Journal header: the job this file belongs to. Always the first
    /// record; replay refuses a journal whose identity disagrees with the
    /// recovering tracker's config.
    JobSubmitted {
        /// Cluster seed (drives placement, fault draws, replica layout).
        seed: u64,
        /// Map task count.
        n_maps: u32,
        /// Reduce task count.
        n_reduces: u32,
        /// Job spec wire string (`wordcount`, `grep:<needle>`, …).
        spec: String,
    },
    /// A tracker incarnation started from this journal (appended once per
    /// recovery, never by the first incarnation).
    TrackerStarted {
        /// 1 for the first recovery, 2 for the second, …
        crash_epoch: u32,
    },
    /// A worker registered (or re-registered after being declared dead).
    WorkerRegistered {
        /// Node id.
        node: u32,
        /// The worker's crash epoch at registration.
        epoch: u32,
    },
    /// A task-level transition of the job book.
    Task(TaskEvent),
    /// A journal-inherited attempt was confirmed live by a re-attaching
    /// worker and adopted by the new incarnation.
    AttemptReconciled {
        /// Map or reduce.
        kind: TaskKind,
        /// Task index within its family.
        index: u32,
        /// Attempt tag confirmed.
        attempt: u32,
        /// Node that confirmed it.
        node: u32,
    },
    /// The job ended.
    JobFinished {
        /// Whether the job failed (attempt budget burned / blackout).
        failed: bool,
    },
}

wire! {
    /// The journal's [`TaskEvent`] rows, tags 4–10: the bytes of
    /// `JournalRecord::Task(ev)`. Written by reference, so the write-ahead
    /// path never clones an event.
    fn put_task, get_task for TaskEvent {
        MapAssigned = 4 { map, attempt, node },
        MapCompleted = 5 { map, attempt, epoch, node, d_read, part_bytes },
        MapInvalidated = 6 { map, new_attempt, new_epoch, banned },
        MapRequeued = 7 { map, new_attempt },
        ReduceAssigned = 8 { reduce, attempt, node },
        ReduceCompleted = 9 { reduce, attempt, output },
        ReduceRequeued = 10 { reduce, new_attempt },
    }
}

wire! {
    /// [`JournalRecord`]'s own rows. Tag 11, `AttemptReconciled`, is the
    /// hand-written arm of [`JournalRecord::encode`] / `decode`.
    fn put_record, get_record for JournalRecord {
        JobSubmitted = 1 { seed, n_maps, n_reduces, spec },
        TrackerStarted = 2 { crash_epoch },
        WorkerRegistered = 3 { node, epoch },
        JobFinished = 12 { failed },
    }
}

/// Encode one task event into a frame payload (the bytes of
/// `JournalRecord::Task(ev)`, without needing an owned record).
fn encode_task(ev: &TaskEvent) -> Vec<u8> {
    let mut w = Writer::new();
    put_task(ev, &mut w);
    w.into_bytes()
}

impl JournalRecord {
    /// Encode into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            JournalRecord::Task(ev) => put_task(ev, &mut w),
            // Tag 11; `kind` is one byte, 0 for a map and 1 for a reduce.
            JournalRecord::AttemptReconciled { kind, index, attempt, node } => {
                11u8.put(&mut w);
                (*kind as u8).put(&mut w);
                for x in [index, attempt, node] {
                    x.put(&mut w);
                }
            }
            rec => put_record(rec, &mut w),
        }
        w.into_bytes()
    }

    /// Decode one frame payload. Total: typed errors, no panics, trailing
    /// bytes rejected.
    pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let tag = u8::get(&mut r)?;
        let rec = if let Some(rec) = get_record(tag, &mut r)? {
            rec
        } else if let Some(ev) = get_task(tag, &mut r)? {
            JournalRecord::Task(ev)
        } else if tag == 11 {
            JournalRecord::AttemptReconciled {
                kind: match u8::get(&mut r)? {
                    0 => TaskKind::Map,
                    1 => TaskKind::Reduce,
                    t => return Err(WireError::UnknownTag(t)),
                },
                index: u32::get(&mut r)?,
                attempt: u32::get(&mut r)?,
                node: u32::get(&mut r)?,
            }
        } else {
            return Err(WireError::UnknownTag(tag));
        };
        r.finish()?;
        Ok(rec)
    }
}

/// The append side: an open journal file plus its fsync policy.
pub struct Journal {
    path: PathBuf,
    file: File,
    policy: FsyncPolicy,
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("policy", &self.policy)
            .finish()
    }
}

impl Journal {
    /// Create (truncating any previous file) — a fresh job.
    pub fn create(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<Self> {
        let path = path.into();
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let file = OpenOptions::new().write(true).create(true).truncate(true).open(&path)?;
        Ok(Self { path, file, policy })
    }

    /// Open for appending — a recovering tracker continuing an existing
    /// journal. The caller replays first, then appends from the tail.
    pub fn open_append(path: impl Into<PathBuf>, policy: FsyncPolicy) -> io::Result<Self> {
        let path = path.into();
        let file = OpenOptions::new().append(true).open(&path)?;
        Ok(Self { path, file, policy })
    }

    /// The journal file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Append one record (write-ahead: call *before* applying the
    /// mutation it describes).
    pub fn append(&mut self, rec: &JournalRecord) -> io::Result<()> {
        self.append_payload(&rec.encode())
    }

    fn append_payload(&mut self, payload: &[u8]) -> io::Result<()> {
        write_frame(&mut self.file, payload).map_err(|e| match e {
            FrameError::Io(e) => e,
            FrameError::Wire(e) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        })?;
        if self.policy == FsyncPolicy::Always {
            self.file.sync_data()?;
        }
        Ok(())
    }
}

/// The tracker's write-ahead log: the journal when one is configured,
/// nothing otherwise. Fail-stop on IO error — a tracker that cannot
/// journal must not keep mutating state it has promised to make durable.
#[derive(Debug)]
pub(crate) struct Wal(pub(crate) Option<Journal>);

impl Wal {
    /// Append one non-task record, *before* the mutation it describes.
    pub(crate) fn record(&mut self, rec: &JournalRecord) {
        self.try_record(rec).expect("journal append");
    }

    /// [`record`](Self::record) for callers that can still return the
    /// error (tracker start-up, before any state exists).
    pub(crate) fn try_record(&mut self, rec: &JournalRecord) -> io::Result<()> {
        self.0.as_mut().map_or(Ok(()), |j| j.append(rec))
    }
}

impl EventLog for Wal {
    fn append(&mut self, ev: &TaskEvent) {
        if let Some(j) = self.0.as_mut() {
            j.append_payload(&encode_task(ev)).expect("journal append");
        }
    }
}

/// Read a journal back, tolerating a torn tail: the first record that is
/// truncated or fails its checksum ends the replay, and everything before
/// it is returned. A corrupt *first* record (or a header that is not
/// `JobSubmitted`) is an error — there is no trusted prefix to recover.
pub fn read_journal(path: impl AsRef<Path>) -> io::Result<Vec<JournalRecord>> {
    let mut r = BufReader::new(File::open(path.as_ref())?);
    let mut records = Vec::new();
    // Torn tail (crash mid-append) or damaged bytes: any frame or decode
    // error stops the replay at the last trusted record.
    while let Ok(payload) = read_frame(&mut r) {
        match JournalRecord::decode(&payload) {
            Ok(rec) => records.push(rec),
            Err(_) => break,
        }
    }
    match records.first() {
        Some(JournalRecord::JobSubmitted { .. }) => Ok(records),
        Some(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "journal does not start with JobSubmitted",
        )),
        None => Err(io::Error::new(io::ErrorKind::InvalidData, "journal holds no intact record")),
    }
}

/// Scheduler-visible state folded out of a journal — everything a fresh
/// tracker incarnation needs that cannot be re-derived from (seed, cfg,
/// input).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalState {
    /// Header: cluster seed.
    pub seed: u64,
    /// Header: map count.
    pub n_maps: u32,
    /// Header: reduce count.
    pub n_reduces: u32,
    /// Header: job spec wire string.
    pub spec: String,
    /// Recoveries already performed (count of `TrackerStarted` records).
    pub crash_epochs: u32,
    /// The job book as of the last record — the very type the live
    /// tracker schedules from, completion ledger included.
    pub book: Book,
    /// Last journaled crash epoch per node (BTreeMap keeps `dump`
    /// deterministic).
    pub node_epochs: BTreeMap<u32, u32>,
    /// `Some(failed)` when the journal holds a `JobFinished`.
    pub finished: Option<bool>,
    /// Records folded in.
    pub records_applied: u64,
}

impl JournalState {
    /// Fold a record stream into scheduler state. Pure and deterministic:
    /// same records, same state ([`dump`](Self::dump) is byte-identical).
    /// Task records go through [`Book::apply`], so a stream the live
    /// tracker could not have produced is an error here.
    pub fn from_records(records: &[JournalRecord]) -> Result<Self, String> {
        let mut st = JournalState::default();
        for (i, rec) in records.iter().enumerate() {
            st.records_applied += 1;
            match rec {
                JournalRecord::JobSubmitted { seed, n_maps, n_reduces, spec } => {
                    if i != 0 {
                        return Err(format!("JobSubmitted at record {i}, not 0"));
                    }
                    st.seed = *seed;
                    st.n_maps = *n_maps;
                    st.n_reduces = *n_reduces;
                    st.spec = spec.clone();
                    st.book = Book::new(*n_maps as usize, *n_reduces as usize);
                }
                JournalRecord::TrackerStarted { crash_epoch } => {
                    if *crash_epoch != st.crash_epochs + 1 {
                        return Err(format!(
                            "record {i}: crash epoch {crash_epoch} after {}",
                            st.crash_epochs
                        ));
                    }
                    st.crash_epochs = *crash_epoch;
                }
                JournalRecord::WorkerRegistered { node, epoch } => {
                    st.node_epochs.insert(*node, *epoch);
                }
                JournalRecord::Task(ev) => {
                    st.book.apply(ev).map_err(|e| format!("record {i}: {e}"))?
                }
                // Reconciliation is an audit record: the assignment it
                // confirms is already in the book.
                JournalRecord::AttemptReconciled { .. } => {}
                JournalRecord::JobFinished { failed } => st.finished = Some(*failed),
            }
        }
        if st.records_applied == 0 {
            return Err("empty journal".into());
        }
        Ok(st)
    }

    /// Derived recovery tallies for the counter conservation laws:
    /// `(recovered_maps, recovered_reduces, inherited_assignments,
    /// recovered_reexec)`.
    pub fn recovery_tallies(&self) -> (u64, u64, u64, u64) {
        let (maps, reduces) = (self.book.maps(), self.book.reduces());
        let inherited = maps.iter().filter(|m| m.phase.is_running()).count()
            + reduces.iter().filter(|r| r.phase.is_running()).count();
        let reexec: u64 = maps.iter().map(|m| m.epoch as u64).sum();
        (
            self.book.maps_finished() as u64,
            self.book.reduces_finished() as u64,
            inherited as u64,
            reexec,
        )
    }

    /// Canonical text dump — deterministic byte-for-byte, the artifact
    /// the replay-determinism gate compares.
    pub fn dump(&self) -> String {
        let mut s = format!(
            "journal seed={} n_maps={} n_reduces={} spec={} crash_epochs={} records={} \
             finished={:?}\n",
            self.seed,
            self.n_maps,
            self.n_reduces,
            self.spec,
            self.crash_epochs,
            self.records_applied,
            self.finished,
        );
        for (i, m) in self.book.maps().iter().enumerate() {
            let (finished, running) = (m.phase.is_finished(), m.phase.is_running());
            s.push_str(&format!(
                "map {i} attempt={} epoch={} finished={finished} running={running} holder={:?} \
                 banned={:?} d_read={} parts={:?}\n",
                m.attempt,
                m.epoch,
                m.phase.holder(),
                m.banned,
                m.d_read,
                m.part_bytes,
            ));
        }
        for (i, r) in self.book.reduces().iter().enumerate() {
            let (finished, running) = (r.phase.is_finished(), r.phase.is_running());
            s.push_str(&format!(
                "reduce {i} attempt={} finished={finished} running={running} holder={:?} \
                 pairs={}\n",
                r.attempt,
                r.phase.holder(),
                r.output.len(),
            ));
        }
        for (node, epoch) in &self.node_epochs {
            s.push_str(&format!("node {node} epoch={epoch}\n"));
        }
        for c in self.book.completions() {
            let k = match c.kind {
                TaskKind::Map => 'm',
                TaskKind::Reduce => 'r',
            };
            s.push_str(&format!("completion {k} {} {}\n", c.index, c.epoch));
        }
        s
    }
}

/// The journal-level recovery law, checked by `tracker_failover` over the
/// finished journal: the records replay, and a job that finished ok left a
/// complete book.
///
/// Nothing else can fail once the replay is accepted. [`Book::apply`]
/// refuses a second completion of a `(task, epoch)` and any transition
/// that does not follow from the task's state, so the completion ledger
/// holds no duplicate across incarnations. An attempt running at a
/// `TrackerStarted` boundary leaves `Running` only by a completion or a
/// requeue, so a task that ends `Finished` resolved every attempt it had
/// outstanding at a crash.
pub fn check_journal_recovery(records: &[JournalRecord]) -> Result<(), String> {
    let st = JournalState::from_records(records)?;
    if st.finished == Some(false) && !st.book.complete() {
        // Only a successful job promises full resolution.
        fn open(phases: impl Iterator<Item = Phase>) -> Vec<usize> {
            phases.enumerate().filter(|(_, p)| !p.is_finished()).map(|(i, _)| i).collect()
        }
        return Err(format!(
            "job finished ok but maps {:?} / reduces {:?} never resolved",
            open(st.book.maps().iter().map(|m| m.phase)),
            open(st.book.reduces().iter().map(|r| r.phase)),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::JobSubmitted {
                seed: 42,
                n_maps: 3,
                n_reduces: 2,
                spec: "wordcount".into(),
            },
            JournalRecord::WorkerRegistered { node: 0, epoch: 0 },
            JournalRecord::WorkerRegistered { node: 1, epoch: 0 },
            JournalRecord::Task(TaskEvent::MapAssigned { map: 0, attempt: 0, node: 0 }),
            JournalRecord::Task(TaskEvent::MapAssigned { map: 1, attempt: 0, node: 1 }),
            JournalRecord::Task(TaskEvent::MapCompleted {
                map: 0,
                attempt: 0,
                epoch: 0,
                node: 0,
                d_read: 4096,
                part_bytes: vec![10, 20],
            }),
            JournalRecord::Task(TaskEvent::MapInvalidated {
                map: 0,
                new_attempt: 1,
                new_epoch: 1,
                banned: None,
            }),
            JournalRecord::Task(TaskEvent::MapRequeued { map: 1, new_attempt: 1 }),
            JournalRecord::Task(TaskEvent::ReduceAssigned { reduce: 0, attempt: 0, node: 1 }),
            JournalRecord::Task(TaskEvent::ReduceCompleted {
                reduce: 0,
                attempt: 0,
                output: vec![("k".into(), "3".into())],
            }),
            JournalRecord::Task(TaskEvent::ReduceAssigned { reduce: 1, attempt: 0, node: 0 }),
            JournalRecord::Task(TaskEvent::ReduceRequeued { reduce: 1, new_attempt: 1 }),
            JournalRecord::TrackerStarted { crash_epoch: 1 },
            JournalRecord::AttemptReconciled {
                kind: TaskKind::Map,
                index: 2,
                attempt: 0,
                node: 1,
            },
            JournalRecord::JobFinished { failed: true },
        ]
    }

    /// The on-disk format is a compatibility surface: journals written by
    /// earlier builds must replay, and `cluster.journal.bytes_per_job`
    /// must not move. The constants were captured by encoding this same
    /// fixture with the pre-`Task(..)` flat `JournalRecord` encoder.
    #[test]
    fn encoded_bytes_are_pinned() {
        let mut bytes = Vec::new();
        for rec in sample_records() {
            write_frame(&mut bytes, &rec.encode()).unwrap();
        }
        assert_eq!((bytes.len(), pnats_rpc::fnv1a32(&bytes)), (341, 0xbf77_c3f0));
        // The write-ahead path encodes task events without wrapping them;
        // it must produce the same payload.
        for rec in sample_records() {
            if let JournalRecord::Task(ev) = &rec {
                assert_eq!(encode_task(ev), rec.encode());
            }
        }
    }

    /// Starts are counted by the fold itself (one per `MapAssigned`), so a
    /// recovered tracker resumes the transient-failure draw and the retry
    /// budget exactly where the dead one stopped.
    #[test]
    fn replay_counts_starts_not_attempt_tags() {
        let st = JournalState::from_records(&[
            JournalRecord::JobSubmitted {
                seed: 1,
                n_maps: 1,
                n_reduces: 1,
                spec: "wordcount".into(),
            },
            JournalRecord::Task(TaskEvent::MapAssigned { map: 0, attempt: 0, node: 0 }),
            JournalRecord::Task(TaskEvent::MapRequeued { map: 0, new_attempt: 1 }),
            JournalRecord::Task(TaskEvent::MapAssigned { map: 0, attempt: 1, node: 1 }),
        ])
        .unwrap();
        let m = &st.book.maps()[0];
        assert_eq!((m.starts, m.attempt, m.phase), (2, 1, Phase::Running(1)));
    }

    #[test]
    fn every_record_round_trips() {
        for rec in sample_records() {
            let bytes = rec.encode();
            let back = JournalRecord::decode(&bytes).unwrap_or_else(|e| panic!("{rec:?}: {e}"));
            assert_eq!(back, rec);
            assert_eq!(rec.encode(), bytes, "deterministic encoding");
        }
        // Truncations are typed errors, never panics.
        for rec in sample_records() {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                assert!(JournalRecord::decode(&bytes[..cut]).is_err(), "{rec:?} cut {cut}");
            }
        }
    }

    /// The canonical-decoding law over damaged records: whenever `decode`
    /// accepts a byte string, that string is exactly the encoding of the
    /// record it decoded to — a decoder cannot quietly accept more than
    /// the encoder writes.
    #[test]
    fn decode_accepts_only_canonical_bytes() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let payloads: Vec<Vec<u8>> = sample_records().iter().map(JournalRecord::encode).collect();
        let mut rng = SmallRng::seed_from_u64(42);
        let mut accepted = 0;
        for _ in 0..20_000 {
            let mut bytes = payloads[rng.gen_range(0..payloads.len())].clone();
            for _ in 0..2 {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen();
            }
            let cut = if rng.gen_bool(0.25) { rng.gen_range(0..bytes.len()) } else { bytes.len() };
            if let Ok(rec) = JournalRecord::decode(&bytes[..cut]) {
                assert_eq!(rec.encode(), &bytes[..cut], "{rec:?}");
                accepted += 1;
            }
        }
        assert!(accepted > 1_000, "only {accepted} mutants decoded: the law went untested");
    }

    #[test]
    fn journal_file_round_trips_and_replays_deterministically() {
        let dir = std::env::temp_dir().join(format!("pnats-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.journal");
        let mut j = Journal::create(&path, FsyncPolicy::Always).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let back = read_journal(&path).unwrap();
        assert_eq!(back, sample_records());
        let s1 = JournalState::from_records(&back).unwrap();
        let s2 = JournalState::from_records(&read_journal(&path).unwrap()).unwrap();
        assert_eq!(s1.dump(), s2.dump(), "replay must be byte-identical");
        // Appending after reopen continues the same stream.
        let mut j = Journal::open_append(&path, FsyncPolicy::Never).unwrap();
        j.append(&JournalRecord::TrackerStarted { crash_epoch: 2 }).unwrap();
        drop(j);
        assert_eq!(read_journal(&path).unwrap().len(), sample_records().len() + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let dir = std::env::temp_dir().join(format!("pnats-journal-torn-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("torn.journal");
        let mut j = Journal::create(&path, FsyncPolicy::Never).unwrap();
        for rec in sample_records() {
            j.append(&rec).unwrap();
        }
        drop(j);
        let full = std::fs::read(&path).unwrap();
        // Tear the file at every byte boundary inside the last record: the
        // intact prefix must replay; the torn record must vanish.
        let intact = sample_records().len();
        let last_len = JournalRecord::encode(sample_records().last().unwrap()).len() + 8;
        for cut in (full.len() - last_len + 1)..full.len() {
            std::fs::write(&path, &full[..cut]).unwrap();
            let recs = read_journal(&path).unwrap();
            assert_eq!(recs.len(), intact - 1, "cut at {cut}");
        }
        // Damaged bytes mid-tail: same WAL drop semantics.
        let mut damaged = full.clone();
        let n = damaged.len();
        damaged[n - 3] ^= 0x10;
        std::fs::write(&path, &damaged).unwrap();
        assert_eq!(read_journal(&path).unwrap().len(), intact - 1);
        // A journal with no intact record is an error, not an empty Ok.
        std::fs::write(&path, b"xx").unwrap();
        assert!(read_journal(&path).is_err());
        // A journal that does not open with JobSubmitted is rejected.
        let mut f = std::fs::File::create(&path).unwrap();
        pnats_rpc::frame::write_frame(
            &mut f,
            &JournalRecord::TrackerStarted { crash_epoch: 1 }.encode(),
        )
        .unwrap();
        f.flush().unwrap();
        drop(f);
        assert!(read_journal(&path).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn state_fold_reconstructs_the_book() {
        let st = JournalState::from_records(&sample_records()).unwrap();
        assert_eq!((st.seed, st.n_maps, st.n_reduces), (42, 3, 2));
        assert_eq!(st.crash_epochs, 1);
        assert_eq!(st.finished, Some(true));
        let (maps, reduces) = (st.book.maps(), st.book.reduces());
        // Map 0: completed then invalidated.
        assert_eq!(maps[0].phase, Phase::Unassigned);
        assert_eq!((maps[0].attempt, maps[0].epoch), (1, 1));
        // Map 1: assigned then requeued.
        assert_eq!(maps[1].phase, Phase::Unassigned);
        assert_eq!(maps[1].attempt, 1);
        // Reduce 0 finished with output; reduce 1 requeued.
        assert_eq!(reduces[0].phase, Phase::Finished(1));
        assert_eq!(reduces[0].output, vec![("k".into(), "3".into())]);
        assert_eq!(reduces[1].phase, Phase::Unassigned);
        assert_eq!(st.node_epochs.get(&1), Some(&0));
        assert_eq!(st.book.completions().len(), 2);
        let (rm, rr, inh, reexec) = st.recovery_tallies();
        assert_eq!((rm, rr, inh, reexec), (0, 1, 0, 1));
    }

    #[test]
    fn recovery_law_catches_duplicates_and_orphans() {
        // A clean recovered run passes.
        let mut ok = vec![
            JournalRecord::JobSubmitted {
                seed: 1,
                n_maps: 1,
                n_reduces: 1,
                spec: "wordcount".into(),
            },
            JournalRecord::Task(TaskEvent::MapAssigned { map: 0, attempt: 0, node: 0 }),
            JournalRecord::TrackerStarted { crash_epoch: 1 },
            JournalRecord::AttemptReconciled {
                kind: TaskKind::Map,
                index: 0,
                attempt: 0,
                node: 0,
            },
            JournalRecord::Task(TaskEvent::MapCompleted {
                map: 0,
                attempt: 0,
                epoch: 0,
                node: 0,
                d_read: 1,
                part_bytes: vec![1],
            }),
            JournalRecord::Task(TaskEvent::ReduceAssigned { reduce: 0, attempt: 0, node: 0 }),
            JournalRecord::Task(TaskEvent::ReduceCompleted {
                reduce: 0,
                attempt: 0,
                output: vec![],
            }),
            JournalRecord::JobFinished { failed: false },
        ];
        check_journal_recovery(&ok).unwrap();
        // Duplicate (map, epoch) completion across the restart is fatal.
        ok.insert(
            5,
            JournalRecord::Task(TaskEvent::MapCompleted {
                map: 0,
                attempt: 0,
                epoch: 0,
                node: 0,
                d_read: 1,
                part_bytes: vec![1],
            }),
        );
        assert!(check_journal_recovery(&ok).is_err());
        // An assignment outstanding at the boundary that nothing ever
        // resolves is fatal on a successful job.
        let orphan = vec![
            JournalRecord::JobSubmitted {
                seed: 1,
                n_maps: 2,
                n_reduces: 0,
                spec: "wordcount".into(),
            },
            JournalRecord::Task(TaskEvent::MapAssigned { map: 1, attempt: 0, node: 0 }),
            JournalRecord::TrackerStarted { crash_epoch: 1 },
            JournalRecord::Task(TaskEvent::MapAssigned { map: 0, attempt: 0, node: 0 }),
            JournalRecord::Task(TaskEvent::MapCompleted {
                map: 0,
                attempt: 0,
                epoch: 0,
                node: 0,
                d_read: 1,
                part_bytes: vec![],
            }),
            JournalRecord::JobFinished { failed: false },
        ];
        assert!(check_journal_recovery(&orphan).is_err());
    }
}
