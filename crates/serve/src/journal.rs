//! The submission journal: crash-safe serving state, one `/2` frame per
//! record.
//!
//! The journal is the durability half of the serving determinism contract.
//! Every accepted [`JobSpec`], every periodic job snapshot (the same
//! checkpoint frame the migration path ships between shards), every
//! migration, and every completed outcome is appended as one CRC-guarded
//! frame of [`marsit_simnet::wire`]; after a `kill -9`, replaying the
//! journal yields a [`ResumePlan`] from which the server reproduces every
//! job's report and telemetry log byte-for-byte.
//!
//! ```text
//! header (magic, version 2, kind 0x30–0x33, body length, CRC-32)
//! seq: u64          strictly increasing record index
//! submit   0x30     spec: str      the canonical `JobSpec::to_line` text
//! snapshot 0x31     name: str, shard: u32, migrations: u32, round: u64,
//!                   tel_seq: u64, snapshot: bytes, log: str
//! migrate  0x32     name: str, from: u32, to: u32
//! outcome  0x33     name: str, migrations: u32, path: count + u32 each,
//!                   report: str, log: str
//! ```
//!
//! Strings and byte fields are length-prefixed, so a telemetry log or a
//! megabyte checkpoint goes in as it is — nothing to escape, nothing to
//! re-encode. The spec stays its queue-line text: that format is the human
//! surface, like telemetry JSONL. Torn-write detection is the frame's:
//! replay stops at the first record that is truncated, fails its CRC, or
//! breaks the sequence, and reports the byte offset the valid prefix ends at
//! so the writer can truncate and resume appending.
//!
//! The controller and its process shards exchange these same records (see
//! [`crate::supervisor`]), decoded by this module's decoder.
//!
//! A checkpoint is the bulk of a journal, so its bytes are touched as few
//! times as the format allows, and held no longer than they are needed:
//! [`encode_record`] copies it into the record's frame (one copy, one CRC
//! pass). A replay is a stream: the [`Scanner`] reads one frame at a time
//! into a recycled buffer and gives a snapshot record a [`SharedBytes`] view
//! of its frame's buffer, and the fold ([`ReplayState`]) takes records by
//! value as they arrive, keeps each job's newest snapshot and hands every
//! superseded one's buffer back for the next frame. A recovery holds about
//! one frame buffer per job, however long the journal ([`replay_file`],
//! [`replay_bytes`]); planning a resume and redelivering a job share a
//! checkpoint's buffer instead of copying it.
//!
//! Durability batching: [`JournalWriter::append`] enqueues the encoded
//! record to a dedicated writer thread; [`JournalWriter::commit`] requests a
//! group commit (write + `fsync`) without blocking the serving thread —
//! consecutive commit requests that pile up behind a large write coalesce
//! into one `fsync`. The controller commits after the records it files, the
//! server handle after each accepted submission. Dropping the writer drains
//! the queue and syncs, so a clean shutdown is always fully durable; after
//! a crash, whatever suffix had not reached the disk is exactly the torn
//! tail the replay path truncates — recovery re-derives those rounds
//! byte-identically from the last durable snapshot (or from the spec).

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek as _, SeekFrom, Write as _};
use std::path::Path;

use marsit_simnet::wire::{read_frame_bytes, sole_frame, Reader, SharedBytes, WireError, Writer};

use crate::scheduler::{report_fingerprint, run_solo};
use crate::spec::JobSpec;

const KIND_SUBMIT: u8 = 0x30;
const KIND_SNAPSHOT: u8 = 0x31;
const KIND_MIGRATE: u8 = 0x32;
const KIND_OUTCOME: u8 = 0x33;

/// A periodic (or pre-migration) durability point for one in-flight job:
/// everything a fresh process needs to resume it bit-exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotRecord {
    /// Job name.
    pub name: String,
    /// Shard hosting the job when the snapshot was taken.
    pub shard: usize,
    /// Migrations survived so far.
    pub migrations: u32,
    /// Rounds completed (mirrors the snapshot JSON's own `round`).
    pub round: u64,
    /// The job's telemetry sequence floor at the snapshot: hop events
    /// carry absolute sequence numbers, so a resumed job's fresh sink
    /// must continue numbering here for byte-identical logs.
    pub tel_seq: u64,
    /// The checkpoint frame (`TrainSnapshot::to_json`), as a view: a scanned
    /// record's is a range of its frame's buffer, and cloning the record
    /// shares it. The name is historical — `/1` carried JSON — and
    /// `benchmark/` spells it.
    pub snapshot_json: SharedBytes,
    /// The full telemetry log accumulated up to (and flushed at) the
    /// snapshot point.
    pub log: String,
}

/// A journaled final outcome: the report's exact `Debug` rendering (which
/// is the bit-exactness fingerprint) plus the complete telemetry log.
/// [`marsit_trainsim::TrainReport`] itself cannot cross a process or crash
/// boundary, so this is the durable — and wire — form of a finished job.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeRecord {
    /// Job name.
    pub name: String,
    /// Migrations survived.
    pub migrations: u32,
    /// Every shard that hosted the job, in order.
    pub shard_path: Vec<usize>,
    /// `format!("{report:?}")` of the final [`marsit_trainsim::TrainReport`].
    pub report_debug: String,
    /// Concatenated JSONL telemetry log.
    pub log: String,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalRecord {
    /// A job was accepted into the server (durable before it runs).
    Submit {
        /// The accepted spec.
        spec: JobSpec,
    },
    /// A periodic durability snapshot of an in-flight job.
    Snapshot(SnapshotRecord),
    /// A job moved between shards (audit trail; resume state comes from
    /// the snapshot records that bracket it).
    Migrate {
        /// Job name.
        name: String,
        /// Source shard.
        from: usize,
        /// Destination shard.
        to: usize,
    },
    /// A job finished.
    Outcome(OutcomeRecord),
}

/// Typed journal failures. Decoding and replay never panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// The record's frame is truncated, foreign, damaged or of an unknown
    /// kind, or a field inside it is malformed.
    Wire(WireError),
    /// A well-formed record carries the wrong sequence number (a record
    /// lost or repeated wholesale).
    OutOfSequence {
        /// The sequence number the position calls for.
        expected: u64,
        /// The one the record carries.
        found: u64,
    },
    /// A record cannot be rendered (a spec [`JobSpec::to_line`] refuses, a
    /// shard index beyond `u32`).
    Unrepresentable {
        /// Why.
        reason: String,
    },
    /// The backing file failed on the writer thread; the journal is
    /// unusable from here on.
    Io {
        /// The latched I/O error message.
        message: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Wire(e) => write!(f, "bad journal record: {e}"),
            Self::OutOfSequence { expected, found } => {
                write!(f, "sequence break: expected {expected}, found {found}")
            }
            Self::Unrepresentable { reason } => {
                write!(f, "unrepresentable journal record: {reason}")
            }
            Self::Io { message } => write!(f, "journal I/O failure: {message}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<WireError> for JournalError {
    fn from(e: WireError) -> Self {
        Self::Wire(e)
    }
}

fn index_u32(what: &str, value: usize) -> Result<u32, JournalError> {
    u32::try_from(value).map_err(|_| JournalError::Unrepresentable {
        reason: format!("{what} {value} does not fit u32"),
    })
}

/// Encodes one record as its frame.
///
/// # Errors
///
/// [`JournalError::Unrepresentable`] when a submit record's spec cannot be
/// rendered as a queue line (see [`JobSpec::to_line`]) or a shard index
/// does not fit the format.
pub fn encode_record(seq: u64, record: &JournalRecord) -> Result<Vec<u8>, JournalError> {
    let (kind, large_fields) = match record {
        JournalRecord::Submit { .. } => (KIND_SUBMIT, 0),
        JournalRecord::Snapshot(s) => (KIND_SNAPSHOT, s.snapshot_json.len() + s.log.len()),
        JournalRecord::Migrate { .. } => (KIND_MIGRATE, 0),
        JournalRecord::Outcome(o) => (KIND_OUTCOME, o.report_debug.len() + o.log.len()),
    };
    // Spec lines, names, paths and the fixed-width fields fit the slack.
    let mut w = Writer::new(kind, 512 + large_fields);
    w.u64(seq);
    match record {
        JournalRecord::Submit { spec } => {
            let line = spec
                .to_line()
                .map_err(|reason| JournalError::Unrepresentable { reason })?;
            w.str(&line);
        }
        JournalRecord::Snapshot(s) => {
            w.str(&s.name);
            w.u32(index_u32("shard", s.shard)?);
            w.u32(s.migrations);
            w.u64(s.round);
            w.u64(s.tel_seq);
            w.bytes(&s.snapshot_json);
            w.str(&s.log);
        }
        JournalRecord::Migrate { name, from, to } => {
            w.str(name);
            w.u32(index_u32("shard", *from)?);
            w.u32(index_u32("shard", *to)?);
        }
        JournalRecord::Outcome(o) => {
            w.str(&o.name);
            w.u32(o.migrations);
            w.count(o.shard_path.len());
            for &shard in &o.shard_path {
                w.u32(index_u32("shard", shard)?);
            }
            w.str(&o.report_debug);
            w.str(&o.log);
        }
    }
    Ok(w.finish())
}

/// Decodes the body of a frame of `kind` into `(seq, record)`. `frame` is a
/// shared view that ends where the bytes `r` reads end (the frame, or its
/// body): a checkpoint payload comes back as a range of it, located by the
/// reader's offsets, not copied out.
fn decode_record(
    kind: u8,
    mut r: Reader<'_>,
    frame: &SharedBytes,
) -> Result<(u64, JournalRecord), WireError> {
    fn index(r: &mut Reader<'_>) -> Result<usize, WireError> {
        r.u32().map(|v| v as usize)
    }
    fn shared_bytes(r: &mut Reader<'_>, frame: &SharedBytes) -> Result<SharedBytes, WireError> {
        let len = r.bytes()?.len();
        let end = frame.len() - r.remaining();
        Ok(frame.slice(end - len..end))
    }
    let seq = r.u64()?;
    let record = match kind {
        KIND_SUBMIT => JournalRecord::Submit {
            spec: JobSpec::parse_line(r.str()?)
                .map_err(|reason| WireError::BadPayload { reason })?,
        },
        KIND_SNAPSHOT => JournalRecord::Snapshot(SnapshotRecord {
            name: r.str()?.to_string(),
            shard: index(&mut r)?,
            migrations: r.u32()?,
            round: r.u64()?,
            tel_seq: r.u64()?,
            snapshot_json: shared_bytes(&mut r, frame)?,
            log: r.str()?.to_string(),
        }),
        KIND_MIGRATE => JournalRecord::Migrate {
            name: r.str()?.to_string(),
            from: index(&mut r)?,
            to: index(&mut r)?,
        },
        KIND_OUTCOME => JournalRecord::Outcome(OutcomeRecord {
            name: r.str()?.to_string(),
            migrations: r.u32()?,
            shard_path: (0..r.count(4)?)
                .map(|_| index(&mut r))
                .collect::<Result<_, _>>()?,
            report_debug: r.str()?.to_string(),
            log: r.str()?.to_string(),
        }),
        found => return Err(WireError::UnknownKind { found }),
    };
    r.finish()?;
    Ok((seq, record))
}

/// Bytes a file scan reads ahead of the frame it decodes: small records
/// (submits, migrations) come out of this buffer, a checkpoint's bulk is read
/// past it straight into its frame buffer.
const READ_AHEAD: usize = 32 << 10;

/// Turns a byte source — a journal file, a byte slice, the payload of a
/// serving frame — into verified `(seq, record)`s, one frame at a time. Each
/// frame is read into a recycled buffer, CRC-checked once and decoded; a
/// snapshot record's checkpoint is a [`SharedBytes`] view of its frame's
/// buffer, every other field is copied out and the buffer goes straight back
/// for the next frame. A holder done with a checkpoint hands its buffer back
/// through [`Scanner::reclaim`], so a scan followed by the fold
/// ([`ReplayState::apply`]) holds one buffer per live checkpoint plus the
/// frame in flight, however long the journal.
///
/// Iteration stops at the first record that is truncated, fails its CRC, or
/// breaks the sequence; [`Scanner::torn`] says which, [`Scanner::valid_len`]
/// where the valid prefix ends. A journal truncated at *any* byte yields its
/// longest valid prefix.
#[derive(Debug)]
pub struct Scanner<R> {
    source: R,
    /// Bytes the source holds past the frames read so far.
    room: usize,
    pool: FramePool,
    valid_len: usize,
    next_seq: u64,
    torn: Option<JournalError>,
    /// An I/O failure of the source (never of a byte slice).
    failed: Option<std::io::Error>,
    done: bool,
}

/// A scanner's free frame buffers.
#[derive(Debug, Default)]
struct FramePool {
    free: Vec<Vec<u8>>,
    /// The largest frame a buffer was allocated for.
    largest: usize,
}

impl FramePool {
    /// A buffer for a frame that claims `need` bytes of a source holding
    /// `room` more: a free one that already fits, else a fresh one with room
    /// for twice the largest frame yet — frames of one job grow by their log,
    /// and jobs of different shapes interleave — but never for more than the
    /// source holds, so a length claim buys nothing the bytes do not back. A
    /// free buffer too small for the frame is dropped, not kept beside the
    /// new one.
    fn take(&mut self, need: usize, room: usize) -> Vec<u8> {
        if let Some(i) = self.free.iter().position(|b| b.capacity() >= need) {
            return self.free.swap_remove(i);
        }
        self.free.pop();
        self.largest = self.largest.max(need.min(room));
        Vec::with_capacity(self.largest.saturating_mul(2).min(room))
    }
}

impl<'a> Scanner<&'a [u8]> {
    /// Scans journal bytes held in memory.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self::over(bytes, bytes.len())
    }
}

impl Scanner<BufReader<File>> {
    /// Scans a journal file through a read-ahead buffer no larger than the
    /// file.
    fn open(path: &Path) -> std::io::Result<Self> {
        let file = File::open(path)?;
        let len = usize::try_from(file.metadata()?.len()).unwrap_or(usize::MAX);
        Ok(Self::over(
            BufReader::with_capacity(READ_AHEAD.min(len), file),
            len,
        ))
    }
}

impl<R: Read> Scanner<R> {
    fn over(source: R, room: usize) -> Self {
        Self {
            source,
            room,
            pool: FramePool::default(),
            valid_len: 0,
            next_seq: 0,
            torn: None,
            failed: None,
            done: false,
        }
    }

    /// Byte length of the valid prefix scanned so far — a resuming writer
    /// truncates the file here before appending.
    #[must_use]
    pub fn valid_len(&self) -> usize {
        self.valid_len
    }

    /// The sequence number the next record must carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Why scanning stopped before the end of the input, once it has (a
    /// torn tail is expected after a crash, not an error).
    #[must_use]
    pub fn torn(&self) -> Option<&JournalError> {
        self.torn.as_ref()
    }

    /// Hands a checkpoint back once its holder is done with it: when no
    /// other view shares its buffer, a later frame is read into it.
    pub fn reclaim(&mut self, payload: SharedBytes) {
        if let Some(buf) = payload.reclaim() {
            self.pool.free.push(buf);
        }
    }

    fn stop(&mut self, torn: Option<JournalError>) -> Option<(u64, JournalRecord)> {
        self.torn = torn;
        self.done = true;
        None
    }
}

impl<R: Read> Iterator for Scanner<R> {
    type Item = (u64, JournalRecord);

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let room = self.room;
        let pool = &mut self.pool;
        let frame = match read_frame_bytes(&mut self.source, |need| pool.take(need, room)) {
            Ok(Some(frame)) => SharedBytes::from(frame),
            Ok(None) => return self.stop(None),
            Err(e) => {
                let wire = e.get_ref().and_then(|e| e.downcast_ref::<WireError>());
                if let Some(wire) = wire {
                    return self.stop(Some(wire.clone().into()));
                }
                self.failed = Some(e);
                return self.stop(None);
            }
        };
        let len = frame.len();
        let decoded = sole_frame(&frame).and_then(|(kind, r)| decode_record(kind, r, &frame));
        // Back to the pool unless the record kept a view of it.
        self.reclaim(frame);
        match decoded {
            Ok((seq, record)) if seq == self.next_seq => {
                self.valid_len += len;
                self.room = self.room.saturating_sub(len);
                self.next_seq += 1;
                Some((seq, record))
            }
            Ok((found, _)) => self.stop(Some(JournalError::OutOfSequence {
                expected: self.next_seq,
                found,
            })),
            Err(e) => self.stop(Some(e.into())),
        }
    }
}

/// A scanned journal, folded: the resume state of its valid prefix.
#[derive(Debug)]
pub struct Replay {
    /// The fold over every record in the valid prefix; `state.plan()` is
    /// the [`ResumePlan`].
    pub state: ReplayState,
    /// Byte length of the valid prefix — a resuming writer truncates the
    /// file here before appending.
    pub valid_len: usize,
    /// The sequence number the next appended record must carry.
    pub next_seq: u64,
    /// Why scanning stopped before the end of the input, if it did (a
    /// torn tail is expected after a crash, not an error).
    pub torn: Option<JournalError>,
}

/// Scans and folds as the records arrive: the fold takes each record by
/// value and hands every checkpoint it lets go of back to the scanner.
fn replay<R: Read>(mut records: Scanner<R>) -> std::io::Result<Replay> {
    let mut state = ReplayState::new();
    while let Some((_, record)) = records.next() {
        if let Some(payload) = state.apply(record) {
            records.reclaim(payload);
        }
    }
    match records.failed {
        Some(e) => Err(e),
        None => Ok(Replay {
            state,
            valid_len: records.valid_len,
            next_seq: records.next_seq,
            torn: records.torn,
        }),
    }
}

/// Replays journal bytes held in memory. Never fails: a journal truncated at
/// *any* byte yields the longest valid prefix (replay of which is a valid
/// resume state).
#[must_use]
pub fn replay_bytes(bytes: &[u8]) -> Replay {
    replay(Scanner::new(bytes)).expect("reading a byte slice cannot fail")
}

/// Replays a journal file as a stream (see [`Scanner`]): the process holds
/// about one frame buffer per job, however long the file.
///
/// # Errors
///
/// Only on I/O failure opening or reading the file; torn tails are
/// reported inside the [`Replay`], not as errors.
pub fn replay_file(path: &Path) -> std::io::Result<Replay> {
    replay(Scanner::open(path)?)
}

/// A finished job recovered from the journal (or received over the
/// process link): everything [`verify_recovered`] needs to prove the
/// crash changed no output bit.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredOutcome {
    /// The spec the job ran under.
    pub spec: JobSpec,
    /// `Debug` fingerprint of the final report.
    pub report_debug: String,
    /// Full telemetry log.
    pub log: String,
    /// Migrations survived.
    pub migrations: u32,
    /// Shards that hosted the job (empty when unknown).
    pub shard_path: Vec<usize>,
}

/// An in-flight job recovered from its last journaled snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeJob {
    /// The spec the job runs under.
    pub spec: JobSpec,
    /// Checkpoint frame to restore from (named like
    /// [`SnapshotRecord::snapshot_json`], and the same view of the same
    /// buffer as the record it was planned from).
    pub snapshot_json: SharedBytes,
    /// Telemetry log accumulated up to the snapshot.
    pub log: String,
    /// Telemetry sequence floor at the snapshot (see
    /// [`marsit_telemetry::Telemetry::restore_seq_floor`]).
    pub tel_seq: u64,
    /// Migrations survived before the snapshot.
    pub migrations: u32,
}

/// What a restarted server does with each journaled job.
#[derive(Debug, Default)]
pub struct ResumePlan {
    /// Jobs whose outcome record landed: nothing to re-run.
    pub completed: Vec<RecoveredOutcome>,
    /// Jobs with a snapshot but no outcome: restore and finish.
    pub resumes: Vec<ResumeJob>,
    /// Jobs submitted but never snapshotted: run from scratch.
    pub fresh: Vec<JobSpec>,
    /// Names of snap/migrate/outcome records whose submit record is
    /// missing (possible only with a corrupted head; surfaced, not
    /// silently dropped).
    pub orphaned: Vec<String>,
}

/// Replay state: a pure, idempotent fold over journal records. Applying
/// the same journal twice yields the same [`ResumePlan`] as applying it
/// once — the property the recovery proptests pin.
#[derive(Debug, Default)]
pub struct ReplayState {
    jobs: BTreeMap<String, JobReplay>,
    orphaned: Vec<String>,
}

#[derive(Debug, Default)]
struct JobReplay {
    spec: Option<JobSpec>,
    snap: Option<SnapshotRecord>,
    outcome: Option<OutcomeRecord>,
}

impl ReplayState {
    /// Empty state (no journal yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one record in, by value. Idempotent: re-applying a record the
    /// state already reflects changes nothing. Returns the checkpoint the
    /// state let go of, if any — the one a later snapshot superseded, a
    /// finished job's, or the record's own when it is not kept — for the
    /// scanner to reuse its buffer ([`Scanner::reclaim`]).
    pub fn apply(&mut self, record: JournalRecord) -> Option<SharedBytes> {
        match record {
            JournalRecord::Submit { spec } => {
                let job = self.jobs.entry(spec.name.clone()).or_default();
                if job.spec.is_none() {
                    job.spec = Some(spec);
                }
                None
            }
            JournalRecord::Snapshot(s) => {
                let Some(job) = self.jobs.get_mut(&s.name) else {
                    self.note_orphan(&s.name);
                    return Some(s.snapshot_json);
                };
                // A finished job resumes from nothing. Later snapshots
                // supersede earlier ones; an equal round is the same
                // snapshot re-applied (idempotence).
                if job.outcome.is_some() || job.snap.as_ref().is_some_and(|cur| s.round < cur.round)
                {
                    return Some(s.snapshot_json);
                }
                job.snap.replace(s).map(|old| old.snapshot_json)
            }
            JournalRecord::Migrate { name, .. } => {
                // Audit trail only: resume state comes from snapshots, so
                // replaying a migrate record twice is trivially idempotent.
                if !self.jobs.contains_key(&name) {
                    self.note_orphan(&name);
                }
                None
            }
            JournalRecord::Outcome(o) => {
                let Some(job) = self.jobs.get_mut(&o.name) else {
                    self.note_orphan(&o.name);
                    return None;
                };
                if job.outcome.is_some() {
                    return None;
                }
                job.outcome = Some(o);
                job.snap.take().map(|s| s.snapshot_json)
            }
        }
    }

    fn note_orphan(&mut self, name: &str) {
        if !self.orphaned.iter().any(|n| n == name) {
            self.orphaned.push(name.to_string());
        }
    }

    /// The resume plan for the current state, jobs sorted by name.
    #[must_use]
    pub fn plan(&self) -> ResumePlan {
        let mut plan = ResumePlan {
            orphaned: self.orphaned.clone(),
            ..ResumePlan::default()
        };
        for (name, job) in &self.jobs {
            let Some(spec) = &job.spec else {
                plan.orphaned.push(name.clone());
                continue;
            };
            if let Some(outcome) = &job.outcome {
                plan.completed.push(RecoveredOutcome {
                    spec: spec.clone(),
                    report_debug: outcome.report_debug.clone(),
                    log: outcome.log.clone(),
                    migrations: outcome.migrations,
                    shard_path: outcome.shard_path.clone(),
                });
            } else if let Some(snap) = &job.snap {
                plan.resumes.push(ResumeJob {
                    spec: spec.clone(),
                    snapshot_json: snap.snapshot_json.clone(),
                    log: snap.log.clone(),
                    tel_seq: snap.tel_seq,
                    migrations: snap.migrations,
                });
            } else {
                plan.fresh.push(spec.clone());
            }
        }
        plan
    }
}

impl FromIterator<JournalRecord> for ReplayState {
    /// Folds records in order (see [`ReplayState::apply`]).
    fn from_iter<I: IntoIterator<Item = JournalRecord>>(records: I) -> Self {
        let mut state = Self::new();
        for record in records {
            state.apply(record);
        }
        state
    }
}

/// `replay.state.plan()`, under the name `benchmark/` calls.
#[must_use]
pub fn plan_from_replay(replay: &Replay) -> ResumePlan {
    replay.state.plan()
}

/// Checks a recovered outcome against a fresh solo run of its spec — the
/// cross-crash bit-exactness guarantee: the report fingerprint and the
/// full telemetry byte stream of a job that survived a `kill -9` (or came
/// back from a shard subprocess) must match a run that never crashed.
///
/// # Errors
///
/// Returns which artifact diverged.
pub fn verify_recovered(outcome: &RecoveredOutcome) -> Result<(), String> {
    let solo = run_solo(&outcome.spec);
    if outcome.report_debug != report_fingerprint(&solo.report) {
        return Err(format!(
            "job {}: recovered report diverged from solo run\n  recovered: {}\n  solo:      {:?}",
            outcome.spec.name, outcome.report_debug, solo.report
        ));
    }
    if outcome.log != solo.log {
        return Err(format!(
            "job {}: recovered telemetry log diverged from solo run \
             ({} vs {} bytes)",
            outcome.spec.name,
            outcome.log.len(),
            solo.log.len()
        ));
    }
    Ok(())
}

/// Append-only journal writer with group commit (write + `fsync`)
/// batching on a dedicated writer thread. `append` enqueues an encoded
/// record; `commit` requests an `fsync` without blocking (consecutive
/// requests coalesce). Dropping the writer drains the queue and syncs, so
/// a clean shutdown is always fully durable; a crash loses at most the
/// not-yet-synced suffix, which replay truncates as a torn tail.
#[derive(Debug)]
pub struct JournalWriter {
    tx: Option<std::sync::mpsc::SyncSender<WriterMsg>>,
    thread: Option<std::thread::JoinHandle<()>>,
    shared: std::sync::Arc<WriterShared>,
    next_seq: u64,
    records_appended: u64,
}

enum WriterMsg {
    /// One encoded record to append.
    Record(Vec<u8>),
    /// Group-commit request: `fsync` everything appended so far.
    Commit,
}

/// Counters and error state shared with the writer thread.
#[derive(Debug)]
struct WriterShared {
    commits: std::sync::atomic::AtomicU64,
    bytes_committed: std::sync::atomic::AtomicU64,
    error: std::sync::Mutex<Option<String>>,
}

/// How many encoded records may queue between the serving threads and the
/// writer thread before appends block (bounded memory under bursts; disk
/// backpressure instead of unbounded buffering).
const WRITER_QUEUE_DEPTH: usize = 64;

/// Minimum spacing between `fsync`s. The controller requests a commit after
/// every batch of records it files; honoring each request individually
/// makes the writer thread fsync-latency-bound (one barrier per tick).
/// Group commit instead: requests landing inside the window coalesce into
/// the next sync, so the durability window is bounded by this interval
/// (plus write time) while the fsync rate stays bandwidth-bound. A crash
/// inside the window loses only the unsynced suffix, which replay
/// truncates as a torn tail and recovery re-derives byte-identically.
const MIN_SYNC_INTERVAL: std::time::Duration = std::time::Duration::from_millis(20);

fn writer_thread(mut file: File, rx: &std::sync::mpsc::Receiver<WriterMsg>, shared: &WriterShared) {
    use std::sync::atomic::Ordering;
    use std::sync::mpsc::RecvTimeoutError;
    let mut dirty = false;
    let mut failed = false;
    let mut commit_requested = false;
    let mut last_sync = std::time::Instant::now();
    let latch = |e: std::io::Error, failed: &mut bool| {
        *shared.error.lock().expect("journal error lock") = Some(e.to_string());
        *failed = true;
    };
    let apply = |msg: WriterMsg,
                 file: &mut File,
                 dirty: &mut bool,
                 failed: &mut bool,
                 commit_requested: &mut bool| {
        // Past the first failure, drain and discard so senders never
        // wedge on a full queue; the latched error surfaces on the
        // serving side at the next append or commit.
        if *failed {
            return;
        }
        match msg {
            WriterMsg::Record(record) => {
                if let Err(e) = file.write_all(&record) {
                    latch(e, failed);
                    return;
                }
                shared
                    .bytes_committed
                    .fetch_add(record.len() as u64, Ordering::Relaxed);
                *dirty = true;
            }
            WriterMsg::Commit => *commit_requested = *dirty,
        }
    };
    loop {
        // With a commit pending, wait only until the sync window opens;
        // otherwise block until there is work.
        let received = if commit_requested {
            let wait = MIN_SYNC_INTERVAL.saturating_sub(last_sync.elapsed());
            match rx.recv_timeout(wait) {
                Ok(msg) => Some(Some(msg)),
                Err(RecvTimeoutError::Timeout) => Some(None),
                Err(RecvTimeoutError::Disconnected) => None,
            }
        } else {
            rx.recv().ok().map(Some)
        };
        let Some(received) = received else { break };
        if let Some(msg) = received {
            apply(
                msg,
                &mut file,
                &mut dirty,
                &mut failed,
                &mut commit_requested,
            );
            // Batch everything already queued before considering a sync.
            while let Ok(next) = rx.try_recv() {
                apply(
                    next,
                    &mut file,
                    &mut dirty,
                    &mut failed,
                    &mut commit_requested,
                );
            }
        }
        if commit_requested && !failed && last_sync.elapsed() >= MIN_SYNC_INTERVAL {
            match file.sync_data() {
                Ok(()) => {
                    dirty = false;
                    commit_requested = false;
                    last_sync = std::time::Instant::now();
                    shared.commits.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => latch(e, &mut failed),
            }
        }
    }
    // Channel closed (writer dropped): final sync so a clean shutdown is
    // always fully durable.
    if dirty && !failed {
        if let Err(e) = file.sync_data() {
            latch(e, &mut failed);
        } else {
            shared.commits.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl JournalWriter {
    fn start(file: File, next_seq: u64) -> Self {
        let shared = std::sync::Arc::new(WriterShared {
            commits: std::sync::atomic::AtomicU64::new(0),
            bytes_committed: std::sync::atomic::AtomicU64::new(0),
            error: std::sync::Mutex::new(None),
        });
        let (tx, rx) = std::sync::mpsc::sync_channel(WRITER_QUEUE_DEPTH);
        let thread_shared = std::sync::Arc::clone(&shared);
        // Return once the writer thread runs, not merely once it is spawned,
        // so the threads started next (a server's shards) make their first
        // allocation after this one has. Under glibc a new thread inherits
        // the malloc arena an exited one left, in that order; this thread
        // frees record buffers but allocates none, and were a shard to take
        // its small arena and leave it a shard's, the free memory in that
        // one would never be trimmed again: +25 MB resident for the life of
        // a process that serves journal after journal.
        let (up_tx, up_rx) = std::sync::mpsc::channel();
        let thread = std::thread::Builder::new()
            .name("marsit-journal".to_string())
            .spawn(move || {
                up_tx.send(()).ok();
                writer_thread(file, &rx, &thread_shared);
            })
            .expect("spawn journal writer thread");
        up_rx.recv().ok();
        Self {
            tx: Some(tx),
            thread: Some(thread),
            shared,
            next_seq,
            records_appended: 0,
        }
    }

    /// Creates (truncating) a fresh journal at `path`.
    ///
    /// # Errors
    ///
    /// I/O failure creating the file.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(Self::start(file, 0))
    }

    /// Reopens a journal after [`replay_file`]: truncates the torn tail
    /// (everything past `replay.valid_len`) and resumes appending with
    /// `replay.next_seq`.
    ///
    /// A torn tail is truncated; a foreign head is not a torn tail. When
    /// not even the first record is valid because the file starts with
    /// other magic or another format version — an older journal, or not a
    /// journal at all — the file is left byte-for-byte intact. (A first
    /// record merely cut short by a crash is truncated and resumed.)
    ///
    /// # Errors
    ///
    /// `InvalidData` naming the file and what it starts with for a foreign
    /// head; otherwise I/O failure opening, truncating, or seeking.
    pub fn resume(path: &Path, replay: &Replay) -> std::io::Result<Self> {
        if let (0, Some(found)) = (replay.valid_len, &replay.torn) {
            if let JournalError::Wire(
                WireError::BadMagic { .. } | WireError::UnsupportedVersion { .. },
            ) = found
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("{}: {found}; not truncating it", path.display()),
                ));
            }
        }
        let mut file = OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(replay.valid_len as u64)?;
        file.seek(SeekFrom::End(0))?;
        file.sync_data()?;
        Ok(Self::start(file, replay.next_seq))
    }

    fn latched_error(&self) -> Option<String> {
        self.shared
            .error
            .lock()
            .expect("journal error lock")
            .clone()
    }

    /// Encodes one record and hands it to the writer thread. Blocks only
    /// when the writer queue is full (64 records; disk backpressure).
    ///
    /// # Errors
    ///
    /// [`JournalError::Unrepresentable`] for specs that cannot round-trip
    /// the queue-line format (rejected at admission, so this is defensive), or
    /// [`JournalError::Io`] once the writer thread has latched a failure.
    pub fn append(&mut self, record: &JournalRecord) -> Result<(), JournalError> {
        if let Some(message) = self.latched_error() {
            return Err(JournalError::Io { message });
        }
        let encoded = encode_record(self.next_seq, record)?;
        let tx = self.tx.as_ref().expect("writer thread alive");
        if tx.send(WriterMsg::Record(encoded)).is_err() {
            return Err(JournalError::Io {
                message: self
                    .latched_error()
                    .unwrap_or_else(|| "journal writer thread exited".to_string()),
            });
        }
        self.next_seq += 1;
        self.records_appended += 1;
        Ok(())
    }

    /// Requests a group commit: the writer thread writes and `fsync`s
    /// everything appended so far. Non-blocking — consecutive requests
    /// queued behind one large write coalesce into a single `fsync`. A
    /// no-op when nothing is pending, so callers commit unconditionally
    /// at tick boundaries.
    ///
    /// # Errors
    ///
    /// A latched writer-thread I/O failure (from any earlier write or
    /// sync).
    pub fn commit(&mut self) -> std::io::Result<()> {
        if let Some(message) = self.latched_error() {
            return Err(std::io::Error::other(message));
        }
        let tx = self.tx.as_ref().expect("writer thread alive");
        if tx.send(WriterMsg::Commit).is_err() {
            return Err(std::io::Error::other(
                self.latched_error()
                    .unwrap_or_else(|| "journal writer thread exited".to_string()),
            ));
        }
        Ok(())
    }

    /// `(records appended, fsyncs performed, bytes written)` counters.
    /// The latter two race the writer thread; they are exact only after
    /// drop (or for a single-threaded test that pauses).
    #[must_use]
    pub fn stats(&self) -> (u64, u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.records_appended,
            self.shared.commits.load(Ordering::Relaxed),
            self.shared.bytes_committed.load(Ordering::Relaxed),
        )
    }
}

impl Drop for JournalWriter {
    /// Drains the queue and syncs: a clean shutdown is fully durable.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_models::Workload;
    use marsit_simnet::Topology;
    use std::path::PathBuf;

    fn spec(name: &str) -> JobSpec {
        let mut s = JobSpec::new(name, Workload::AlexNetMnist, Topology::ring(4));
        s.rounds = 6;
        s.seed = 11;
        s.train_examples = 128;
        s.test_examples = 32;
        s
    }

    /// Decodes input that must be exactly one record.
    fn decode_one(bytes: &[u8]) -> Result<(u64, JournalRecord), WireError> {
        let (kind, r) = marsit_simnet::wire::sole_frame(bytes)?;
        let body = SharedBytes::from(bytes[bytes.len() - r.remaining()..].to_vec());
        decode_record(kind, r, &body)
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn golden_fixture_submit_record() {
        // Pinned journal bytes (recorded for format /2): header, seq 7, then
        // the length-prefixed queue line.
        let record = JournalRecord::Submit { spec: spec("g0") };
        let bytes = encode_record(7, &record).expect("representable");
        let line = "name=g0 workload=alexnet_mnist topo=ring:4 k=20 seed=11 rounds=6 \
                    examples=128 test=32 batch=16 lr=0.01 glr=0.002";
        assert_eq!(
            hex(&bytes[..26]),
            concat!(
                "4d525354",         // magic
                "02",               // format version
                "30",               // kind: submit
                "7c000000",         // body length
                "233b7d93",         // CRC-32
                "0700000000000000", // seq
                "70000000",         // spec length
            )
        );
        assert_eq!(&bytes[26..], line.as_bytes());
        assert_eq!(decode_one(&bytes).expect("golden decodes"), (7, record));
    }

    #[test]
    fn golden_fixture_migrate_record() {
        let record = JournalRecord::Migrate {
            name: "g0".to_string(),
            from: 2,
            to: 0,
        };
        let bytes = encode_record(0, &record).expect("representable");
        assert_eq!(
            hex(&bytes),
            concat!(
                "4d525354",         // magic
                "02",               // format version
                "32",               // kind: migrate
                "16000000",         // body length
                "0c03320e",         // CRC-32
                "0000000000000000", // seq
                "020000006730",     // name: length, "g0"
                "02000000",         // from
                "00000000",         // to
            )
        );
        assert_eq!(decode_one(&bytes).expect("decodes"), (0, record));
    }

    fn four_kinds() -> [JournalRecord; 4] {
        [
            JournalRecord::Submit { spec: spec("a") },
            JournalRecord::Snapshot(SnapshotRecord {
                name: "a".to_string(),
                shard: 1,
                migrations: 2,
                round: 4,
                tel_seq: 0xDEAD_BEEF,
                snapshot_json: vec![0, 0xFF, b'\n', b'\\', 0x80].into(),
                log: "{\"ev\":\"x\"}\n{\"ev\":\"y\"}\n".to_string(),
            }),
            JournalRecord::Migrate {
                name: "a".to_string(),
                from: 1,
                to: 0,
            },
            JournalRecord::Outcome(OutcomeRecord {
                name: "a".to_string(),
                migrations: 3,
                shard_path: vec![1, 0],
                report_debug: "TrainReport { rounds: 6 }".to_string(),
                log: "line1\nline2\n".to_string(),
            }),
        ]
    }

    #[test]
    fn records_round_trip() {
        for (i, record) in four_kinds().iter().enumerate() {
            let bytes = encode_record(i as u64, record).expect("representable");
            assert_eq!(
                decode_one(&bytes).expect("round trip"),
                (i as u64, record.clone()),
                "record {i}"
            );
        }
    }

    /// What a supervisor delivers to a shard is a tiny journal: `Submit` +
    /// `Snapshot` folds to the `ResumeJob` whole-server recovery builds from
    /// the same two records, a lone `Submit` to a fresh spec.
    #[test]
    fn a_delivery_folds_like_a_recovered_journal() {
        let [submit, snapshot, ..] = four_kinds();
        let JournalRecord::Snapshot(snap) = &snapshot else {
            unreachable!("second of the four kinds");
        };
        let mut payload = encode_record(0, &submit).unwrap();
        let fresh = replay_bytes(&payload).state.plan();
        assert_eq!(fresh.fresh, vec![spec("a")]);
        assert!(fresh.resumes.is_empty() && fresh.completed.is_empty());

        payload.extend_from_slice(&encode_record(1, &snapshot).unwrap());
        let replay = replay_bytes(&payload);
        assert!(replay.torn.is_none());
        let delivered = replay.state.plan();
        let mut recovered = ReplayState::new();
        recovered.apply(submit);
        recovered.apply(snapshot.clone());
        assert_eq!(delivered.resumes, recovered.plan().resumes);
        assert_eq!(
            delivered.resumes,
            vec![ResumeJob {
                spec: spec("a"),
                snapshot_json: snap.snapshot_json.clone(),
                log: snap.log.clone(),
                tel_seq: snap.tel_seq,
                migrations: snap.migrations,
            }]
        );
        assert!(delivered.fresh.is_empty() && delivered.orphaned.is_empty());
    }

    /// The fold hands back every checkpoint it lets go of and the scan
    /// reads later frames into those buffers: a job snapshotted ten times
    /// is read through two frame buffers, not ten.
    #[test]
    fn a_scan_reads_into_the_buffers_the_fold_lets_go_of() {
        let snap = |round: u64| {
            JournalRecord::Snapshot(SnapshotRecord {
                name: "a".to_string(),
                shard: 0,
                migrations: 0,
                round,
                tel_seq: round,
                snapshot_json: vec![round as u8; 4096].into(),
                log: "l\n".to_string(),
            })
        };
        let [_, _, _, outcome] = four_kinds();
        let mut records = vec![JournalRecord::Submit { spec: spec("a") }];
        records.extend((1..=10).map(snap));
        records.push(outcome);
        let bytes: Vec<u8> = records
            .iter()
            .enumerate()
            .flat_map(|(seq, record)| encode_record(seq as u64, record).unwrap())
            .collect();

        let mut scanner = Scanner::new(&bytes);
        let mut state = ReplayState::new();
        let (mut buffers, mut released) = (Vec::new(), 0);
        while let Some((_, record)) = scanner.next() {
            if let JournalRecord::Snapshot(s) = &record {
                assert_eq!(s.snapshot_json[0], s.round as u8);
                buffers.push(s.snapshot_json.as_ptr());
            }
            if let Some(payload) = state.apply(record) {
                released += 1;
                scanner.reclaim(payload);
            }
        }
        assert!(scanner.torn().is_none());
        assert_eq!(scanner.valid_len(), bytes.len());
        assert_eq!(
            released, 10,
            "nine superseded, the last let go by the outcome"
        );
        buffers.sort_unstable();
        buffers.dedup();
        assert_eq!(buffers.len(), 2);
        let plan = state.plan();
        assert_eq!((plan.completed.len(), plan.resumes.len()), (1, 0));
    }

    #[test]
    fn corrupt_body_fails_crc() {
        let mut bytes = encode_record(0, &JournalRecord::Submit { spec: spec("c") }).unwrap();
        let n = bytes.len() - 3;
        bytes[n] ^= 1;
        assert!(matches!(decode_one(&bytes), Err(WireError::BadCrc { .. })));
    }

    #[test]
    fn replay_stops_at_torn_tail_and_sequence_breaks() {
        let first = encode_record(0, &JournalRecord::Submit { spec: spec("a") }).unwrap();
        let mut bytes = first.clone();
        bytes.extend_from_slice(
            &encode_record(1, &JournalRecord::Submit { spec: spec("b") }).unwrap(),
        );
        // Torn mid-record: only the first record survives.
        let replay = replay_bytes(&bytes[..bytes.len() - 10]);
        assert_eq!(replay.next_seq, 1);
        assert_eq!(replay.torn, Some(JournalError::Wire(WireError::Truncated)));
        assert_eq!(replay.valid_len, first.len());
        // Sequence break (a record skipped wholesale) also stops replay.
        let mut skipped = first;
        skipped.extend_from_slice(
            &encode_record(5, &JournalRecord::Submit { spec: spec("b") }).unwrap(),
        );
        let replay = replay_bytes(&skipped);
        assert_eq!(replay.next_seq, 1);
        assert_eq!(
            replay.torn,
            Some(JournalError::OutOfSequence {
                expected: 1,
                found: 5
            })
        );
    }

    /// A frame of the shared format that is not a journal record (here a
    /// checkpoint-kind frame) ends the valid prefix like any damage.
    #[test]
    fn foreign_kind_ends_the_valid_prefix() {
        let stray = marsit_simnet::wire::Writer::new(0x20, 0).finish();
        let replay = replay_bytes(&stray);
        assert_eq!((replay.next_seq, replay.valid_len), (0, 0));
        assert_eq!(
            replay.torn,
            Some(JournalError::Wire(WireError::Truncated)),
            "an empty body has no seq"
        );
    }

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("marsit-journal-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn writer_commit_then_replay_round_trips() {
        let dir = scratch_dir("roundtrip");
        let path = dir.join("j.log");
        {
            let mut writer = JournalWriter::create(&path).unwrap();
            writer
                .append(&JournalRecord::Submit { spec: spec("w") })
                .unwrap();
            writer.commit().unwrap();
            // Drop drains the writer thread's queue and syncs.
        }
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.next_seq, 1);
        assert!(replay.torn.is_none());

        // Simulate a torn tail, then resume: the tail is truncated and the
        // next record continues the sequence.
        {
            let next = encode_record(1, &JournalRecord::Submit { spec: spec("x") }).unwrap();
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&next[..next.len() / 2]).unwrap();
        }
        let replay = replay_file(&path).unwrap();
        assert!(replay.torn.is_some());
        {
            let mut writer = JournalWriter::resume(&path, &replay).unwrap();
            writer
                .append(&JournalRecord::Migrate {
                    name: "w".to_string(),
                    from: 0,
                    to: 1,
                })
                .unwrap();
            writer.commit().unwrap();
        }
        let replay = replay_file(&path).unwrap();
        assert!(replay.torn.is_none());
        assert_eq!(replay.next_seq, 2);
        assert_eq!(
            replay.valid_len as u64,
            std::fs::metadata(&path).unwrap().len()
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A torn tail is truncated; a foreign head is not a torn tail. A file
    /// that starts with other magic (a `marsit-journal/1` text journal, a
    /// stray text file) or another format version is refused and left
    /// byte-for-byte intact; a first record cut short by a crash resumes.
    #[test]
    fn resume_refuses_a_file_it_does_not_recognise() {
        let dir = scratch_dir("foreign");
        let record = encode_record(0, &JournalRecord::Submit { spec: spec("f") }).unwrap();
        let mut other_version = record.clone();
        other_version[4] = 3;
        let foreign: [(&str, &[u8]); 3] = [
            (
                "old.journal",
                b"marsit-journal/1 0000000000000000 migrate e11b232f tname=g0 from=2 to=0\n",
            ),
            ("notes.txt", b"these are\nnot records\n"),
            ("future.journal", &other_version),
        ];
        for (name, contents) in foreign {
            let path = dir.join(name);
            std::fs::write(&path, contents).unwrap();
            let replay = replay_file(&path).unwrap();
            assert_eq!((replay.next_seq, replay.valid_len), (0, 0));
            let err = JournalWriter::resume(&path, &replay).expect_err("must refuse");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert!(err.to_string().contains(name), "names the file: {err}");
            assert_eq!(
                std::fs::read(&path).unwrap(),
                contents,
                "{name} was touched"
            );
        }

        let path = dir.join("cut.journal");
        std::fs::write(&path, &record[..record.len() - 1]).unwrap();
        let replay = replay_file(&path).unwrap();
        assert_eq!(replay.torn, Some(JournalError::Wire(WireError::Truncated)));
        drop(JournalWriter::resume(&path, &replay).expect("a cut first record resumes"));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_plan_classifies_jobs() {
        let mut state = ReplayState::new();
        state.apply(JournalRecord::Submit { spec: spec("done") });
        state.apply(JournalRecord::Submit {
            spec: spec("midway"),
        });
        state.apply(JournalRecord::Submit {
            spec: spec("queued"),
        });
        state.apply(JournalRecord::Snapshot(SnapshotRecord {
            name: "midway".to_string(),
            shard: 0,
            migrations: 0,
            round: 2,
            tel_seq: 40,
            snapshot_json: b"{}".to_vec().into(),
            log: "l".to_string(),
        }));
        // A later snapshot supersedes; an earlier replayed one does not.
        state.apply(JournalRecord::Snapshot(SnapshotRecord {
            name: "midway".to_string(),
            shard: 1,
            migrations: 1,
            round: 4,
            tel_seq: 80,
            snapshot_json: b"{later}".to_vec().into(),
            log: "ll".to_string(),
        }));
        state.apply(JournalRecord::Outcome(OutcomeRecord {
            name: "done".to_string(),
            migrations: 0,
            shard_path: vec![0],
            report_debug: "r".to_string(),
            log: "g".to_string(),
        }));
        state.apply(JournalRecord::Outcome(OutcomeRecord {
            name: "ghost".to_string(),
            migrations: 0,
            shard_path: vec![],
            report_debug: "r".to_string(),
            log: "g".to_string(),
        }));
        let plan = state.plan();
        assert_eq!(plan.completed.len(), 1);
        assert_eq!(plan.completed[0].spec.name, "done");
        assert_eq!(plan.resumes.len(), 1);
        assert_eq!(plan.resumes[0].tel_seq, 80);
        assert_eq!(&plan.resumes[0].snapshot_json[..], b"{later}");
        assert_eq!(plan.fresh.len(), 1);
        assert_eq!(plan.fresh[0].name, "queued");
        assert_eq!(plan.orphaned, vec!["ghost".to_string()]);
    }
}
