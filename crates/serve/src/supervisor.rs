//! Process-per-shard serving: a supervisor, shard subprocesses, and the
//! serving protocol between them — journal records inside transport frames.
//!
//! The thread scheduler ([`crate::scheduler`]) dies with its process. This
//! module splits the shards out: a [`SupervisorHandle`] spawns one shard
//! *subprocess* per shard (the `marsit_serve` binary in its hidden
//! `--shard-worker` mode), speaks [`Frame`]s over localhost TCP, and
//! supervises. A serving frame's payload is one or more records of
//! [`crate::journal`], encoded by the journal's own codec and read by its
//! [`Scanner`], so a shard lands a delivered job through the same replay
//! fold ([`ReplayState`]) and the same `admit` / `land_restore` as a
//! restarted thread server:
//!
//! - **Submission** — a `submit` frame carries a fresh job's `Submit`
//!   record, followed by a `Snapshot` record (checkpoint + telemetry
//!   sequence floor) for a job resuming from a durability point.
//! - **Durability** — shards push `snapshot` frames at the configured tick
//!   cadence; each carries one `Snapshot` record whose `log` is the
//!   telemetry **delta** since the last push. The supervisor splices deltas
//!   in order, so its log-at-snapshot is exactly the job's log at that
//!   round — the rollback point — and journals every snapshot when a
//!   journal is attached.
//! - **Liveness** — a shard death is detected as the end of its connection
//!   (EOF, a torn frame or a foreign `from`: the reader of
//!   [`marsit_simnet::fabric`], the same one the process hub runs). The
//!   supervisor restarts the shard with bounded exponential backoff and
//!   re-delivers its in-flight jobs from their last snapshots; a job with
//!   no snapshot yet simply restarts from scratch. Telemetry the dead
//!   shard never pushed is discarded *by construction* (deltas ride only
//!   on snapshot/outcome frames), so the resumed job's concatenated log is
//!   byte-identical to an uninterrupted run.
//! - **Migration** — the supervisor sends a `Migrate` record to ask a shard
//!   to evict a job; the shard hands it back at the next tick boundary as
//!   `Migrate` + a final `Snapshot` and drops it; the supervisor restores
//!   it on another shard.
//! - **Completion** — an `outcome` frame carries one `Outcome` record (its
//!   `log` again the delta).
//!
//! The supervisor's sockets and children are the fabric's: its door admits
//! a connection only with a `hello` from a shard that exists and that no
//! live connection holds, a connection speaks only for that shard (any
//! other `from` drops it), and a shard is started as
//! `<worker_bin> --shard-worker --addr <hub> --shard N --tick T
//! --snapshot-every S`. A shard subprocess that loses its supervisor (EOF
//! on its socket) exits immediately, so a `kill -9` of the supervisor
//! leaves no orphans.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::net::{Shutdown, TcpStream};
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use marsit_simnet::fabric::{connect_as, spawn_child, ArgError, ChildArgs, Fabric, Queue};
use marsit_simnet::wire::{read_frame, write_frame, Frame, FrameKind, Payload, DRIVER};
use marsit_simnet::{HubEvent, TransportError};
use marsit_tensor::rng::FastRng;

use crate::journal::{
    encode_record, JournalRecord, JournalWriter, OutcomeRecord, RecoveredOutcome, ReplayState,
    ResumeJob, Scanner, SnapshotRecord,
};
use crate::pool::WorkspacePool;
use crate::scheduler::{
    admit, land_restore, report_fingerprint, snapshot_record, ActiveJob, MigrationPolicy,
};
use crate::spec::JobSpec;

/// The mode flag that makes `marsit_serve` a shard subprocess.
pub const SHARD_WORKER_MODE: &str = "--shard-worker";

/// Supervisor configuration.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Number of shard subprocesses.
    pub shards: usize,
    /// Rounds per preemption tick inside each shard.
    pub tick_rounds: usize,
    /// Shard pushes a durability snapshot for each job every this many of
    /// its ticks (0 = only eviction snapshots).
    pub snapshot_every_ticks: usize,
    /// Migration policy, evaluated supervisor-side on periodic snapshot
    /// arrivals (the supervisor owns placement; shards just evict on
    /// request).
    pub migration: MigrationPolicy,
    /// Shard-worker executable (`None` = the current executable).
    pub worker_bin: Option<PathBuf>,
    /// Restart budget per shard before its jobs are reassigned for good.
    pub max_restarts_per_shard: u32,
    /// First restart delay; doubles per consecutive restart of the same
    /// shard up to [`Self::backoff_cap_ms`].
    pub backoff_base_ms: u64,
    /// Restart delay cap.
    pub backoff_cap_ms: u64,
}

impl SupervisorConfig {
    /// Defaults: `shards` subprocesses, 4-round ticks, snapshot every 2
    /// ticks, no migration, 50 ms → 2 s restart backoff, 5 restarts per
    /// shard.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            tick_rounds: 4,
            snapshot_every_ticks: 2,
            migration: MigrationPolicy::None,
            worker_bin: None,
            max_restarts_per_shard: 5,
            backoff_base_ms: 50,
            backoff_cap_ms: 2_000,
        }
    }
}

/// Aggregate result of a supervised serve session.
#[derive(Debug)]
pub struct SupervisorReport {
    /// Every finished job, sorted by name. Reports cross the process
    /// boundary as fingerprints, so outcomes are [`RecoveredOutcome`]s —
    /// verify with [`crate::verify_recovered`].
    pub outcomes: Vec<RecoveredOutcome>,
    /// Shard subprocess deaths observed (EOF before Stop).
    pub shard_deaths: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Supervisor-driven migrations completed.
    pub migrations: u64,
}

/// Typed supervisor failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SupervisorError {
    /// Socket/listener I/O failed.
    Io(String),
    /// A shard subprocess could not be spawned.
    Spawn(String),
    /// A shard exhausted its restart budget and no other shard is
    /// available to take its jobs.
    ShardUnrecoverable {
        /// The shard.
        shard: usize,
        /// Restarts attempted.
        restarts: u32,
    },
    /// A shard sent a frame the protocol does not allow.
    Protocol(String),
}

impl fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "supervisor I/O error: {e}"),
            Self::Spawn(e) => write!(f, "cannot spawn shard worker: {e}"),
            Self::ShardUnrecoverable { shard, restarts } => write!(
                f,
                "shard {shard} unrecoverable after {restarts} restarts \
                 and no peer can absorb its jobs"
            ),
            Self::Protocol(e) => write!(f, "serving protocol violation: {e}"),
        }
    }
}

impl std::error::Error for SupervisorError {}

impl From<std::io::Error> for SupervisorError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

impl From<TransportError> for SupervisorError {
    fn from(e: TransportError) -> Self {
        Self::Io(e.to_string())
    }
}

type Journal = Arc<Mutex<JournalWriter>>;

enum CtlMsg {
    Submit(JobSpec),
    Resume(ResumeJob),
    Finish,
}

/// A running supervised server.
pub struct SupervisorHandle {
    ctl: Sender<CtlMsg>,
    thread: std::thread::JoinHandle<Result<SupervisorReport, SupervisorError>>,
    /// Shard `i`'s current subprocess pid, 0 while down.
    pids: Arc<Vec<AtomicU32>>,
    submitted: usize,
    completed: Arc<AtomicUsize>,
}

impl SupervisorHandle {
    /// Starts the listener, spawns the shard subprocesses, and returns
    /// the handle. `journal` (optional) receives submit/snapshot/migrate/
    /// outcome records exactly like the thread scheduler's journal.
    ///
    /// # Errors
    ///
    /// [`SupervisorError::Io`] if the localhost listener cannot bind or
    /// the supervisor's threads cannot start.
    pub fn start(cfg: SupervisorConfig, journal: Option<Journal>) -> Result<Self, SupervisorError> {
        let fabric = Fabric::new(cfg.shards, Queue)?;
        let addr = fabric.addr()?.to_string();
        fabric.open()?;
        let (ctl_tx, ctl_rx) = std::sync::mpsc::channel();
        let pids: Arc<Vec<AtomicU32>> =
            Arc::new((0..cfg.shards).map(|_| AtomicU32::new(0)).collect());
        let completed = Arc::new(AtomicUsize::new(0));
        let loop_pids = Arc::clone(&pids);
        let loop_completed = Arc::clone(&completed);
        let thread = std::thread::Builder::new()
            .name("marsit-supervisor".to_string())
            .spawn(move || {
                supervisor_main(
                    &cfg,
                    &fabric,
                    &addr,
                    &ctl_rx,
                    &loop_pids,
                    &loop_completed,
                    journal,
                )
            })?;
        Ok(Self {
            ctl: ctl_tx,
            thread,
            pids,
            submitted: 0,
            completed,
        })
    }

    /// Submits a fresh job. A supervisor that has stopped takes no more;
    /// [`Self::finish`] returns the error it stopped with.
    pub fn submit(&mut self, spec: JobSpec) {
        self.submitted += 1;
        let _ = self.ctl.send(CtlMsg::Submit(spec));
    }

    /// Re-submits a crash-recovered job from its journaled snapshot.
    pub fn submit_resume(&mut self, resume: ResumeJob) {
        self.submitted += 1;
        let _ = self.ctl.send(CtlMsg::Resume(resume));
    }

    /// Jobs finished so far.
    #[must_use]
    pub fn completed(&self) -> usize {
        self.completed.load(Ordering::Relaxed)
    }

    /// OS pid of shard `i`'s current subprocess (None while down) — lets
    /// the recovery tests SIGKILL one shard mid-storm.
    #[must_use]
    pub fn shard_pid(&self, shard: usize) -> Option<u32> {
        let pid = self.pids.get(shard)?.load(Ordering::Relaxed);
        (pid != 0).then_some(pid)
    }

    /// Waits for every submitted job to finish, stops the shards, and
    /// returns the report.
    ///
    /// # Errors
    ///
    /// The [`SupervisorError`] the event loop died with, if it did.
    pub fn finish(self) -> Result<SupervisorReport, SupervisorError> {
        let _ = self.ctl.send(CtlMsg::Finish);
        self.thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}

/// A serving frame: `records` encoded back to back, numbered from 0, as a
/// bytes payload.
fn serving_frame(
    kind: FrameKind,
    from: u32,
    to: u32,
    records: &[JournalRecord],
) -> Result<Frame, SupervisorError> {
    let mut payload = Vec::new();
    for (seq, record) in records.iter().enumerate() {
        let encoded = encode_record(seq as u64, record)
            .map_err(|e| SupervisorError::Protocol(e.to_string()))?;
        payload.extend_from_slice(&encoded);
    }
    Ok(Frame::bytes(kind, from, to, payload))
}

/// The records of a serving frame, in order, as the journal's scanner reads
/// them: all of them decode, or it is a protocol error.
fn serving_records(frame: &Frame) -> Result<Vec<JournalRecord>, SupervisorError> {
    let Payload::Bytes(bytes) = &frame.payload else {
        return Err(SupervisorError::Protocol(format!(
            "expected a bytes payload, got {:?}",
            frame.payload
        )));
    };
    let mut scanner = Scanner::new(bytes);
    let records = scanner.by_ref().map(|(_, record)| record).collect();
    match scanner.torn() {
        None => Ok(records),
        Some(e) => Err(SupervisorError::Protocol(e.to_string())),
    }
}

/// A shard's view from the supervisor.
struct Shard {
    child: Option<Child>,
    /// Its `hello` reached the event loop and its connection has not ended.
    connected: bool,
    restarts: u32,
    respawn_at: Option<Instant>,
    /// Permanently abandoned (restart budget exhausted).
    dead: bool,
}

/// One supervised job.
struct SupJob {
    spec: JobSpec,
    assigned: usize,
    delivered: bool,
    done: bool,
    /// Set while an evict request is outstanding (no double-eviction, no
    /// redelivery race).
    evicting: bool,
    migrations: u32,
    shard_path: Vec<usize>,
    /// Accumulated telemetry (deltas arrive in-order on snapshot/outcome
    /// frames, so this is exact at every snapshot point).
    log: String,
    /// Last durability point, as the record that redelivers it (its `log`
    /// stays empty: the shard needs none of the history kept here).
    last_snap: Option<SnapshotRecord>,
}

impl SupJob {
    /// A fresh job, not yet delivered to `assigned`.
    fn new(spec: JobSpec, assigned: usize) -> Self {
        Self {
            spec,
            assigned,
            delivered: false,
            done: false,
            evicting: false,
            migrations: 0,
            shard_path: vec![assigned],
            log: String::new(),
            last_snap: None,
        }
    }
}

fn enroll(job: SupJob, order: &mut Vec<String>, jobs: &mut HashMap<String, SupJob>) {
    order.push(job.spec.name.clone());
    jobs.insert(job.spec.name.clone(), job);
}

#[allow(clippy::too_many_lines)]
fn supervisor_main(
    cfg: &SupervisorConfig,
    fabric: &Fabric,
    addr: &str,
    ctl: &Receiver<CtlMsg>,
    pids: &[AtomicU32],
    completed: &AtomicUsize,
    journal: Option<Journal>,
) -> Result<SupervisorReport, SupervisorError> {
    let mut shards: Vec<Shard> = (0..cfg.shards)
        .map(|_| Shard {
            child: None,
            connected: false,
            restarts: 0,
            respawn_at: Some(Instant::now()),
            dead: false,
        })
        .collect();
    let mut jobs: HashMap<String, SupJob> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    let mut draining = false;
    let mut report = SupervisorReport {
        outcomes: Vec::new(),
        shard_deaths: 0,
        restarts: 0,
        migrations: 0,
    };
    let mut rng = match cfg.migration {
        MigrationPolicy::Seeded { seed, .. } => FastRng::new(seed, u64::from(DRIVER)),
        _ => FastRng::new(0, 0),
    };

    loop {
        // Respawn any shard whose backoff elapsed.
        for (i, shard) in shards.iter_mut().enumerate() {
            if shard.dead || shard.child.is_some() {
                continue;
            }
            if shard.respawn_at.is_some_and(|t| t <= Instant::now()) {
                shard.respawn_at = None;
                let child = spawn_worker(cfg, addr, i)?;
                pids[i].store(child.id(), Ordering::Relaxed);
                shard.child = Some(child);
            }
        }

        // Control-plane intake.
        loop {
            match ctl.try_recv() {
                Ok(CtlMsg::Submit(spec)) => {
                    journal_append(
                        journal.as_ref(),
                        &JournalRecord::Submit { spec: spec.clone() },
                    )?;
                    journal_commit(journal.as_ref())?;
                    let job = SupJob::new(spec, least_loaded(&shards, &jobs));
                    enroll(job, &mut order, &mut jobs);
                }
                // Journaled as submitted before the crash: no new record.
                Ok(CtlMsg::Resume(resume)) => {
                    let mut job = SupJob::new(resume.spec, least_loaded(&shards, &jobs));
                    job.migrations = resume.migrations;
                    job.log = resume.log;
                    job.last_snap = Some(SnapshotRecord {
                        name: job.spec.name.clone(),
                        shard: job.assigned,
                        migrations: resume.migrations,
                        round: 0,
                        tel_seq: resume.tel_seq,
                        snapshot_json: resume.snapshot_json,
                        log: String::new(),
                    });
                    enroll(job, &mut order, &mut jobs);
                }
                Ok(CtlMsg::Finish) => draining = true,
                Err(_) => break,
            }
        }

        // Deliver undelivered jobs whose shard is up.
        for name in &order {
            let Some(job) = jobs.get_mut(name) else {
                continue;
            };
            if job.done || job.delivered || job.evicting || !shards[job.assigned].connected {
                continue;
            }
            // A failed write surfaces as Disconnected from the reader; the
            // job stays undelivered and is retried after restart.
            job.delivered = fabric.send_to(job.assigned, &deliver_frame(job)?).is_ok();
        }

        if draining && jobs.values().all(|j| j.done) {
            break;
        }

        // Data plane: shard frames and deaths. The fabric's reader vouches
        // for every frame's `from`.
        match fabric.next_event_timeout(Duration::from_millis(5)) {
            Some(HubEvent::Frame(frame)) if frame.kind == FrameKind::Hello => {
                let shard = &mut shards[frame.from as usize];
                shard.connected = true;
                shard.restarts = 0;
            }
            Some(HubEvent::Frame(frame)) => {
                let shard = frame.from as usize;
                let reply = handle_shard_frame(
                    cfg,
                    frame,
                    &mut shards,
                    &mut jobs,
                    &mut report,
                    &mut rng,
                    journal.as_ref(),
                    completed,
                )?;
                if let Some(reply) = reply {
                    fabric.send_to(shard, &reply).ok();
                }
            }
            Some(HubEvent::Disconnected(shard)) => {
                on_shard_death(cfg, shard, &mut shards, &mut jobs, &mut report, pids)?;
            }
            None => {}
        }
        journal_commit(journal.as_ref())?;
    }

    // Orderly shutdown: stop frames, then reap.
    for i in 0..shards.len() {
        fabric
            .send_to(i, &Frame::control(FrameKind::Stop, DRIVER, i as u32))
            .ok();
    }
    for (shard, pid) in shards.iter_mut().zip(pids) {
        if let Some(mut child) = shard.child.take() {
            child.wait().ok();
        }
        pid.store(0, Ordering::Relaxed);
    }
    journal_commit(journal.as_ref())?;
    report
        .outcomes
        .sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
    Ok(report)
}

fn least_loaded(shards: &[Shard], jobs: &HashMap<String, SupJob>) -> usize {
    (0..shards.len())
        .filter(|&i| !shards[i].dead)
        .min_by_key(|&i| jobs_len(jobs, i))
        .unwrap_or(0)
}

/// The submit frame (re)delivering `job` to its assigned shard: its
/// `Submit` record, then its last `Snapshot` when a durability point exists
/// — the two records whole-server recovery would find in a journal.
fn deliver_frame(job: &SupJob) -> Result<Frame, SupervisorError> {
    let mut records = vec![JournalRecord::Submit {
        spec: job.spec.clone(),
    }];
    if let Some(snap) = &job.last_snap {
        records.push(JournalRecord::Snapshot(SnapshotRecord {
            shard: job.assigned,
            migrations: job.migrations,
            ..snap.clone()
        }));
    }
    serving_frame(FrameKind::Submit, DRIVER, job.assigned as u32, &records)
}

/// Files one frame from shard `frame.from`; returns the eviction request
/// to send it, if the migration policy asks for one.
#[allow(clippy::too_many_arguments)]
fn handle_shard_frame(
    cfg: &SupervisorConfig,
    frame: Frame,
    shards: &mut [Shard],
    jobs: &mut HashMap<String, SupJob>,
    report: &mut SupervisorReport,
    rng: &mut FastRng,
    journal: Option<&Journal>,
    completed: &AtomicUsize,
) -> Result<Option<Frame>, SupervisorError> {
    let shard = frame.from as usize;
    match frame.kind {
        FrameKind::Snapshot => {
            // One `Snapshot` record; a `Migrate` before it marks a hand-back.
            let mut records = serving_records(&frame)?;
            let Some(JournalRecord::Snapshot(push)) = records.pop() else {
                return Err(SupervisorError::Protocol(
                    "a snapshot frame ends in a snapshot record".to_string(),
                ));
            };
            let evicted = matches!(records.pop(), Some(JournalRecord::Migrate { .. }));
            let name = push.name.clone();
            let Some(job) = jobs
                .get_mut(&name)
                .filter(|job| !job.done && job.assigned == shard)
            else {
                return Ok(None); // stale frame from a job already reassigned
            };
            job.log.push_str(&push.log);
            job.migrations = push.migrations;
            if journal.is_some() {
                let spliced = JournalRecord::Snapshot(SnapshotRecord {
                    name: name.clone(),
                    shard,
                    migrations: push.migrations,
                    round: push.round,
                    tel_seq: push.tel_seq,
                    snapshot_json: push.snapshot_json.clone(),
                    log: job.log.clone(),
                });
                journal_append(journal, &spliced)?;
            }
            job.last_snap = Some(SnapshotRecord {
                log: String::new(),
                ..push
            });
            if evicted {
                // The shard dropped the job; restore it elsewhere (or back
                // on `shard` when it is the only one left alive).
                report.migrations += 1;
                let target = pick_other_shard(shards, shard);
                if let Some(to) = target {
                    let moved = JournalRecord::Migrate {
                        name,
                        from: shard,
                        to,
                    };
                    journal_append(journal, &moved)?;
                }
                job.evicting = false;
                job.delivered = false;
                job.migrations += 1;
                if let Some(target) = target {
                    job.assigned = target;
                    job.shard_path.push(target);
                }
                return Ok(None);
            }
            if job.evicting || !wants_eviction(cfg, shards, jobs, shard, rng) {
                return Ok(None);
            }
            if let Some(job) = jobs.get_mut(&name) {
                job.evicting = true;
            }
            // The target is picked at the hand-back, so the request's `to`
            // says nothing yet.
            let request = serving_frame(
                FrameKind::Snapshot,
                DRIVER,
                shard as u32,
                &[JournalRecord::Migrate {
                    name,
                    from: shard,
                    to: shard,
                }],
            )?;
            Ok(Some(request))
        }
        FrameKind::Outcome => {
            let mut records = serving_records(&frame)?;
            let Some(JournalRecord::Outcome(done)) = records.pop().filter(|_| records.is_empty())
            else {
                return Err(SupervisorError::Protocol(
                    "an outcome frame carries exactly one outcome record".to_string(),
                ));
            };
            let Some(job) = jobs
                .get_mut(&done.name)
                .filter(|job| !job.done && job.assigned == shard)
            else {
                return Ok(None);
            };
            job.log.push_str(&done.log);
            job.done = true;
            job.migrations = done.migrations;
            let outcome = RecoveredOutcome {
                spec: job.spec.clone(),
                report_debug: done.report_debug,
                log: job.log.clone(),
                migrations: job.migrations,
                shard_path: job.shard_path.clone(),
            };
            if journal.is_some() {
                let spliced = JournalRecord::Outcome(OutcomeRecord {
                    name: done.name,
                    migrations: outcome.migrations,
                    shard_path: outcome.shard_path.clone(),
                    report_debug: outcome.report_debug.clone(),
                    log: outcome.log.clone(),
                });
                journal_append(journal, &spliced)?;
            }
            report.outcomes.push(outcome);
            completed.fetch_add(1, Ordering::Relaxed);
            Ok(None)
        }
        FrameKind::Hello | FrameKind::Telem => Ok(None),
        other => Err(SupervisorError::Protocol(format!(
            "unexpected {other:?} frame from shard {shard}"
        ))),
    }
}

fn jobs_len(jobs: &HashMap<String, SupJob>, shard: usize) -> usize {
    jobs.values()
        .filter(|j| !j.done && j.assigned == shard)
        .count()
}

fn pick_other_shard(shards: &[Shard], not: usize) -> Option<usize> {
    (0..shards.len()).find(|&i| i != not && !shards[i].dead)
}

/// Supervisor-side migration policy: should the job whose periodic
/// snapshot just landed on `shard` be evicted? Evaluated only at
/// snapshot arrivals — the one moment a job is known to have a fresh
/// durability point, which is exactly what the eviction hand-off ships.
fn wants_eviction(
    cfg: &SupervisorConfig,
    shards: &[Shard],
    jobs: &HashMap<String, SupJob>,
    shard: usize,
    rng: &mut FastRng,
) -> bool {
    if shards.iter().filter(|s| !s.dead).count() < 2 {
        return false;
    }
    match cfg.migration {
        MigrationPolicy::None => false,
        MigrationPolicy::LoadBalance { skew } => {
            let min_other = (0..shards.len())
                .filter(|&i| i != shard && !shards[i].dead)
                .map(|i| jobs_len(jobs, i))
                .min()
                .unwrap_or(0);
            jobs_len(jobs, shard) >= min_other + skew.max(1)
        }
        MigrationPolicy::Seeded { per_mille, .. } => rng.next_range(1000) < u64::from(per_mille),
    }
}

fn on_shard_death(
    cfg: &SupervisorConfig,
    shard: usize,
    shards: &mut [Shard],
    jobs: &mut HashMap<String, SupJob>,
    report: &mut SupervisorReport,
    pids: &[AtomicU32],
) -> Result<(), SupervisorError> {
    let s = &mut shards[shard];
    if !s.connected && s.child.is_none() {
        return Ok(()); // duplicate signal
    }
    s.connected = false;
    if let Some(mut child) = s.child.take() {
        child.kill().ok();
        child.wait().ok();
    }
    pids[shard].store(0, Ordering::Relaxed);
    report.shard_deaths += 1;

    // Roll every resident job back to its last pushed snapshot. Deltas
    // ride only on snapshot/outcome frames, so the accumulated log is
    // already exactly the log at that snapshot — nothing to unwind.
    for job in jobs.values_mut() {
        if !job.done && job.assigned == shard {
            job.delivered = false;
            job.evicting = false;
        }
    }

    if shards[shard].restarts >= cfg.max_restarts_per_shard {
        shards[shard].dead = true;
        let Some(target) = pick_other_shard(shards, shard) else {
            return Err(SupervisorError::ShardUnrecoverable {
                shard,
                restarts: shards[shard].restarts,
            });
        };
        for job in jobs.values_mut() {
            if !job.done && job.assigned == shard {
                job.assigned = target;
                job.shard_path.push(target);
            }
        }
        return Ok(());
    }
    let exp = shards[shard].restarts.min(16);
    let delay = cfg
        .backoff_base_ms
        .saturating_mul(1u64 << exp)
        .min(cfg.backoff_cap_ms);
    shards[shard].restarts += 1;
    report.restarts += 1;
    shards[shard].respawn_at = Some(Instant::now() + Duration::from_millis(delay));
    Ok(())
}

fn spawn_worker(
    cfg: &SupervisorConfig,
    addr: &str,
    shard: usize,
) -> Result<Child, SupervisorError> {
    let bin = cfg
        .worker_bin
        .clone()
        .or_else(|| std::env::current_exe().ok())
        .ok_or_else(|| SupervisorError::Spawn("no worker binary".to_string()))?;
    let args = [
        ("shard", shard.to_string()),
        ("tick", cfg.tick_rounds.to_string()),
        ("snapshot-every", cfg.snapshot_every_ticks.to_string()),
    ];
    spawn_child(&bin, SHARD_WORKER_MODE, addr, &args)
        .map_err(|e| SupervisorError::Spawn(format!("{}: {e}", bin.display())))
}

fn journal_append(
    journal: Option<&Journal>,
    record: &JournalRecord,
) -> Result<(), SupervisorError> {
    match journal {
        Some(journal) => lock(journal)?
            .append(record)
            .map_err(|e| SupervisorError::Io(e.to_string())),
        None => Ok(()),
    }
}

fn journal_commit(journal: Option<&Journal>) -> Result<(), SupervisorError> {
    match journal {
        Some(journal) => Ok(lock(journal)?.commit()?),
        None => Ok(()),
    }
}

/// A journal whose writer panicked mid-append may hold half a record: the
/// supervisor stops rather than write after it.
fn lock(journal: &Journal) -> Result<MutexGuard<'_, JournalWriter>, SupervisorError> {
    journal
        .lock()
        .map_err(|_| SupervisorError::Io("a journal writer panicked".to_string()))
}

// ---------------------------------------------------------------------------
// The shard-worker side (runs inside the subprocess).
// ---------------------------------------------------------------------------

/// The shard-worker entry point: the body of `marsit_serve --shard-worker`,
/// handed the argv after that flag. Refuses a missing or malformed
/// `--shard`, `--tick` or `--snapshot-every` before it connects; then
/// connects to the supervisor, runs submitted jobs tick-by-tick, pushes
/// periodic snapshot frames and final outcomes, and exits the moment the
/// supervisor socket reaches EOF (no orphans after a supervisor
/// `kill -9`). Returns the process exit code.
///
/// # Errors
///
/// The [`ArgError`] naming the flag it refused.
pub fn shard_worker_main(argv: &[String]) -> Result<i32, ArgError> {
    let args = ChildArgs::parse(argv)?;
    let shard = args.get("shard")?;
    let tick_rounds: usize = args.get("tick")?;
    let snapshot_every_ticks = args.get("snapshot-every")?;
    let Ok((mut reader, mut stream)) = connect_as(args.addr(), shard) else {
        return Ok(1);
    };
    // Blocking reads on a thread of their own; the channel closing (EOF, a
    // torn or foreign frame) is "supervisor gone".
    let (tx, rx) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        while let Ok(Some((frame, _))) = read_frame(&mut reader) {
            if tx.send(frame).is_err() {
                return;
            }
        }
    });
    let code = shard_worker_loop(
        &mut stream,
        &rx,
        shard,
        tick_rounds.max(1),
        snapshot_every_ticks,
    );
    // Unblocks the reader's pending read so the join cannot hang.
    stream.shutdown(Shutdown::Both).ok();
    reader.join().ok();
    Ok(code)
}

fn shard_worker_loop(
    stream: &mut TcpStream,
    frames: &Receiver<Frame>,
    shard: usize,
    tick_rounds: usize,
    snapshot_every_ticks: usize,
) -> i32 {
    let mut jobs: VecDeque<ActiveJob> = VecDeque::new();
    let mut evict_requests: Vec<String> = Vec::new();
    // Workspaces die with their job here: nothing is ever checked in.
    let mut pool = WorkspacePool::new(0);
    let mut push = |kind: FrameKind, records: &[JournalRecord]| {
        serving_frame(kind, shard as u32, DRIVER, records)
            .is_ok_and(|frame| write_frame(stream, &frame).is_ok())
    };

    loop {
        // Frame intake: everything that has arrived; with nothing to run,
        // wait for the next one.
        loop {
            let frame = if jobs.is_empty() {
                match frames.recv() {
                    Ok(frame) => frame,
                    Err(_) => return 0, // supervisor gone: exit immediately
                }
            } else {
                match frames.try_recv() {
                    Ok(frame) => frame,
                    Err(TryRecvError::Empty) => break,
                    Err(TryRecvError::Disconnected) => return 0,
                }
            };
            match frame.kind {
                FrameKind::Stop => return 0,
                // A delivered job is a one- or two-record journal: fold it
                // and land it exactly as whole-server recovery would.
                FrameKind::Submit => {
                    let Ok(records) = serving_records(&frame) else {
                        return 1;
                    };
                    let plan = records.into_iter().collect::<ReplayState>().plan();
                    for spec in plan.fresh {
                        jobs.push_back(admit(spec, shard, &mut pool));
                    }
                    for resume in plan.resumes {
                        jobs.push_back(land_restore(resume, shard, &mut pool));
                    }
                }
                FrameKind::Snapshot => {
                    let Ok(records) = serving_records(&frame) else {
                        return 1;
                    };
                    for record in records {
                        if let JournalRecord::Migrate { name, .. } = record {
                            evict_requests.push(name);
                        }
                    }
                }
                _ => {}
            }
        }
        let Some(mut job) = jobs.pop_front() else {
            continue;
        };

        // Eviction requested: snapshot at this tick boundary and hand the
        // job back instead of running it further. Telemetry deltas ride
        // only on the records pushed here and below — see the module docs.
        if let Some(pos) = evict_requests.iter().position(|n| *n == job.spec.name) {
            evict_requests.remove(pos);
            let migrate = JournalRecord::Migrate {
                name: job.spec.name.clone(),
                from: shard,
                to: shard,
            };
            let log = std::mem::take(&mut job.log);
            let snapshot = snapshot_record(&mut job, shard, log);
            if !push(FrameKind::Snapshot, &[migrate, snapshot]) {
                return 0;
            }
            continue; // job dropped: it now lives in the snapshot
        }

        // One tick.
        let mut ran = 0;
        while ran < tick_rounds && !job.state.is_done() {
            job.state.step();
            ran += 1;
        }
        job.tel.drain_events_jsonl_into(&mut job.log);
        job.ticks_since_snap += 1;

        if job.state.is_done() {
            let report = job.state.finish();
            job.tel.drain_events_jsonl_into(&mut job.log);
            let outcome = JournalRecord::Outcome(OutcomeRecord {
                name: job.spec.name,
                migrations: job.migrations,
                shard_path: Vec::new(), // the supervisor's to know
                report_debug: report_fingerprint(&report),
                log: job.log,
            });
            if !push(FrameKind::Outcome, &[outcome]) {
                return 0;
            }
            continue;
        }
        if snapshot_every_ticks > 0 && job.ticks_since_snap >= snapshot_every_ticks {
            let log = std::mem::take(&mut job.log);
            let snapshot = snapshot_record(&mut job, shard, log);
            if !push(FrameKind::Snapshot, &[snapshot]) {
                return 0;
            }
        }
        jobs.push_back(job);
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use marsit_models::Workload;
    use marsit_simnet::Topology;
    use std::io::Read as _;
    use std::os::unix::fs::PermissionsExt as _;

    /// Connects the way a shard worker does and says hello as `shard`.
    fn connect_as(addr: &str, shard: u32) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect to the supervisor");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set timeout");
        write_frame(
            &mut stream,
            &Frame::control(FrameKind::Hello, shard, DRIVER),
        )
        .expect("hello");
        stream
    }

    fn outcome_frame(from: u32, name: &str, report_debug: &str) -> Frame {
        let record = JournalRecord::Outcome(OutcomeRecord {
            name: name.to_string(),
            migrations: 0,
            shard_path: Vec::new(),
            report_debug: report_debug.to_string(),
            log: "log\n".to_string(),
        });
        serving_frame(FrameKind::Outcome, from, DRIVER, &[record]).expect("encodes")
    }

    /// The supervisor indexes per-shard state by the shard a connection
    /// speaks for. A `hello` from a shard that does not exist used to reach
    /// `on_shard_death` through the reader's `Disconnected` and panic the
    /// event loop (`index out of bounds: the len is 1 but the index is 9`);
    /// now it is dropped at the door, as is a connection whose later frames
    /// claim another `from`. The test plays the shard worker itself: the
    /// configured worker binary is a script whose only act is to record the
    /// address the supervisor listens on.
    #[test]
    fn a_connection_speaks_only_for_the_shard_its_hello_may_name() {
        let dir = std::env::temp_dir().join(format!("marsit-sup-hello-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let script = dir.join("worker.sh");
        std::fs::write(&script, "#!/bin/sh\nprintf '%s\\n' \"$3\" > \"$0.addr\"\n")
            .expect("script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let mut cfg = SupervisorConfig::new(1);
        cfg.worker_bin = Some(script);
        let mut handle = SupervisorHandle::start(cfg, None).expect("start supervisor");
        // A pending job keeps the event loop running through everything
        // below.
        let spec = JobSpec::new("held", Workload::AlexNetMnist, Topology::ring(4));
        handle.submit(spec.clone());
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(dir.join("worker.sh.addr")) {
                Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
                _ => {
                    assert!(Instant::now() < deadline, "worker script never ran");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };

        // A hello from shard 9 of 1. EOF on our side means its reader is
        // done with it — and has queued whatever it was going to queue.
        let mut rogue = connect_as(&addr, 9);
        rogue.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(rogue.read(&mut [0u8; 1]).expect("dropped"), 0);

        // Shard 0's connection forging a frame from shard 9: the frame is
        // not believed and the connection is dropped like a dead shard's
        // (EOF once the supervisor has let go of its half).
        let mut liar = connect_as(&addr, 0);
        let (delivery, _) = read_frame(&mut liar).expect("readable").expect("the job");
        assert_eq!(delivery.kind, FrameKind::Submit);
        write_frame(&mut liar, &outcome_frame(9, "held", "forged")).expect("write");
        assert_eq!(liar.read(&mut [0u8; 1]).expect("dropped"), 0);

        // The event loop survived both: an honest shard 0 gets the job
        // redelivered — a one-record journal that folds to the fresh spec
        // — and its outcome is the one that counts.
        let mut honest = connect_as(&addr, 0);
        let (delivery, _) = read_frame(&mut honest).expect("readable").expect("the job");
        let plan = serving_records(&delivery)
            .expect("journal records")
            .into_iter()
            .collect::<ReplayState>()
            .plan();
        assert_eq!(plan.fresh, vec![spec]);
        write_frame(&mut honest, &outcome_frame(0, "held", "honest")).expect("write");
        let report = handle.finish().expect("supervisor survives");
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].report_debug, "honest");
        assert_eq!(report.outcomes[0].log, "log\n");
        assert_eq!(
            report.shard_deaths, 1,
            "the lying connection counted as a death"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A second `hello` for a live shard is refused at the door and the
    /// connection that holds the shard is untouched: the newcomer is
    /// dropped without a delivery, the next job still goes to the first
    /// connection, and no death is counted.
    #[test]
    fn a_second_hello_for_a_live_shard_is_refused() {
        let dir = std::env::temp_dir().join(format!("marsit-sup-dup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let script = dir.join("worker.sh");
        std::fs::write(&script, "#!/bin/sh\nprintf '%s\\n' \"$3\" > \"$0.addr\"\n")
            .expect("script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let mut cfg = SupervisorConfig::new(1);
        cfg.worker_bin = Some(script);
        let mut handle = SupervisorHandle::start(cfg, None).expect("start supervisor");
        let first_spec = JobSpec::new("first", Workload::AlexNetMnist, Topology::ring(4));
        handle.submit(first_spec);
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            match std::fs::read_to_string(dir.join("worker.sh.addr")) {
                Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
                _ => {
                    assert!(Instant::now() < deadline, "worker script never ran");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };

        let mut holder = connect_as(&addr, 0);
        let (delivery, _) = read_frame(&mut holder).expect("readable").expect("a job");
        assert_eq!(delivery.kind, FrameKind::Submit);
        let mut newcomer = connect_as(&addr, 0);
        assert_eq!(
            newcomer.read(&mut [0u8; 1]).expect("dropped"),
            0,
            "the second hello for shard 0 was admitted"
        );
        drop(newcomer);

        let second_spec = JobSpec::new("second", Workload::AlexNetMnist, Topology::ring(4));
        handle.submit(second_spec.clone());
        let (delivery, _) = read_frame(&mut holder).expect("readable").expect("a job");
        let plan = serving_records(&delivery)
            .expect("journal records")
            .into_iter()
            .collect::<ReplayState>()
            .plan();
        assert_eq!(plan.fresh, vec![second_spec]);
        for name in ["first", "second"] {
            write_frame(&mut holder, &outcome_frame(0, name, "held")).expect("write");
        }
        let report = handle.finish().expect("supervisor survives");
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(
            report.shard_deaths, 0,
            "the refused connection counted as a death"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
