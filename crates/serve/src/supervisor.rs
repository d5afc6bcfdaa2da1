//! The serving control plane: one controller, one shard loop, two links.
//!
//! - **The controller** (`controller_main`, one thread per server) places,
//!   evicts, journals and restarts. It owns every job's placement, its log
//!   and, for a job that may need redelivering, its last durability point,
//!   and it is the only writer of `Snapshot`, `Migrate` and `Outcome`
//!   journal records (the server handle appends each `Submit` before
//!   `submit` returns). At every tick boundary a shard reports, it evaluates
//!   the [`MigrationPolicy`]; an evicted job is handed back at its next tick
//!   boundary and lands on the target.
//! - **The shard loop** (`shard_loop`) is the only shard body. It runs its
//!   jobs a tick at a time in rotation, blocks on its link when it has none,
//!   and reports every tick boundary: a plain tick, a snapshot (periodic,
//!   only when a journal or process shards need durability points, or a
//!   hand-back), or the outcome. A delivered job is a one- or two-record
//!   journal (`Submit`, then its last `Snapshot`), folded with the same
//!   [`ReplayState`] as whole-server recovery. Telemetry travels only as
//!   deltas on snapshots and outcomes, so the controller's concatenation is
//!   exactly the job's log at its last durability point, and a shard death
//!   discards what the shard never pushed.
//! - **A link** connects them. A thread shard is the loop on a thread, with
//!   a channel pair that passes messages by value, the final [`TrainReport`]
//!   included; its death is a panic and stops the server. A process shard
//!   is the same loop in a subprocess behind the fabric's localhost TCP
//!   frames, restarted with bounded exponential backoff. Only that link
//!   encodes — journal records, with the journal's codec ([`encode_record`],
//!   read back by its [`Scanner`]) — and it carries a report as its
//!   fingerprint. Its door admits a connection only with a `hello` from a
//!   shard that exists and that no live connection holds, and a connection
//!   speaks only for that shard. A shard is started as `<worker_bin>
//!   --shard-worker --addr <hub> --shard N --tick T --snapshot-every S
//!   --pool-cap P` and exits the moment its socket reaches EOF, so a
//!   `kill -9` of the server leaves no orphans.

use std::collections::{BTreeMap, VecDeque};
use std::net::Shutdown;
use std::path::PathBuf;
use std::process::Child;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use marsit_simnet::fabric::{connect_as, spawn_child, ArgError, ChildArgs, Fabric, Relay, Slots};
use marsit_simnet::wire::{read_frame, write_frame, Frame, FrameKind, Payload, DRIVER};
use marsit_simnet::{HubEvent, TransportError};
use marsit_telemetry::Telemetry;
use marsit_tensor::rng::FastRng;
use marsit_trainsim::{TrainReport, TrainSnapshot, TrainerState};

use crate::journal::{
    encode_record, JournalError, JournalRecord, OutcomeRecord, RecoveredOutcome, ReplayState,
    ResumeJob, Scanner, SnapshotRecord,
};
use crate::pool::{WorkspaceKey, WorkspacePool};
use crate::scheduler::{
    lock, report_fingerprint, JobOutcome, Journal, MigrationPolicy, MigrationSample, ProcessShards,
    ServeConfig, ServeError, ServeReport, ShardSummary,
};
use crate::spec::JobSpec;

/// The mode flag that makes `marsit_serve` a shard subprocess.
pub const SHARD_WORKER_MODE: &str = "--shard-worker";

/// Longest restart delay of a process shard.
const BACKOFF_CAP_MS: u64 = 2_000;

/// Everything the controller waits for, on one queue.
pub(crate) enum Event {
    /// The handle accepted (and journaled) a job: a fresh one, or one that
    /// resumes from its last journaled snapshot (no new record).
    Submit(JobSpec, Option<SnapshotRecord>),
    /// No more submissions: stop once every job has finished.
    Finish,
    /// A shard is up: its thread started, or its `hello` passed the door.
    Joined(usize),
    /// A shard's thread or connection ended.
    Left(usize),
    /// A shard reported.
    Up(usize, Up),
    /// A process shard sent a frame that is not a report.
    Broken(usize, String),
}

/// The controller's queue: bounded for thread shards, so one that gets
/// ahead of a controller waiting on the journal waits too; unbounded for
/// the process link's fabric readers, which hold the fabric's lock.
#[derive(Clone)]
pub(crate) enum Events {
    Bounded(SyncSender<Event>),
    Unbounded(Sender<Event>),
}

impl Events {
    /// The queue for `cfg`'s link, and its receiving end.
    pub(crate) fn new(cfg: &ServeConfig) -> (Self, Receiver<Event>) {
        if cfg.processes.is_some() {
            let (tx, rx) = std::sync::mpsc::channel();
            (Self::Unbounded(tx), rx)
        } else {
            let (tx, rx) = std::sync::mpsc::sync_channel(4 * cfg.shards);
            (Self::Bounded(tx), rx)
        }
    }

    /// Queues `event`; `false` once the controller is gone.
    pub(crate) fn send(&self, event: Event) -> bool {
        match self {
            Self::Bounded(tx) => tx.send(event).is_ok(),
            Self::Unbounded(tx) => tx.send(event).is_ok(),
        }
    }
}

/// Shard → controller, at a tick boundary of the named job.
pub(crate) enum Up {
    /// The job ran a tick and stays.
    Tick(String),
    /// A snapshot (`log` = the delta since the last push): a periodic
    /// durability point, or — with how long taking it took, 0 over TCP — a
    /// hand-back on request.
    Snapshot(SnapshotRecord, Option<u64>),
    /// The job finished. The report travels by value on the in-process link
    /// and only as the record's fingerprint over TCP.
    Done(OutcomeRecord, Option<Box<TrainReport>>),
}

/// Controller → shard.
pub(crate) enum Down {
    /// Run a job: its `Submit` record, then its last `Snapshot` when it
    /// resumes — and, in process, the source's snapshot time when that is a
    /// migration landing.
    Deliver(Vec<JournalRecord>, Option<u64>),
    /// Hand the named job back at its next tick boundary.
    Evict(String),
    /// Stop.
    Stop,
}

/// The controller's side of its shards: how one is started, reached,
/// reaped after it died, and stopped. Reports come back on the controller's
/// event queue. A test can stand in a fake.
trait Link {
    /// Starts `shard`; returns its process id, if it is a process.
    fn start(&mut self, shard: usize) -> Result<Option<u32>, ServeError>;
    /// Sends `msg` to `shard`; `false` if it is not reachable.
    fn send(&mut self, shard: usize, msg: Down) -> Result<bool, ServeError>;
    /// Releases what is left of `shard` after it died.
    fn reap(&mut self, shard: usize);
    /// Stops every shard; returns the summaries that came back.
    fn stop(&mut self) -> Vec<ShardSummary>;
}

/// What a shard loop is told when it starts.
#[derive(Debug, Clone, Copy)]
struct ShardParams {
    tick_rounds: usize,
    /// Periodic snapshot cadence in ticks (0 = none).
    snapshot_every: usize,
    pool_cap: usize,
}

/// Thread shards: the loop on a thread, messages by value.
struct Threads {
    params: ShardParams,
    events: Events,
    shards: Vec<Option<(Sender<Down>, JoinHandle<ShardSummary>)>>,
}

/// Announces the end of a thread shard — a panic included — when dropped.
struct Farewell(Events, usize);

impl Drop for Farewell {
    fn drop(&mut self) {
        self.0.send(Event::Left(self.1));
    }
}

impl Link for Threads {
    fn start(&mut self, shard: usize) -> Result<Option<u32>, ServeError> {
        let (tx, inbox) = std::sync::mpsc::channel();
        let events = self.events.clone();
        let params = self.params;
        let thread = std::thread::Builder::new()
            .name(format!("marsit-shard-{shard}"))
            .spawn(move || {
                let _farewell = Farewell(events.clone(), shard);
                events.send(Event::Joined(shard));
                let mut up = |up| events.send(Event::Up(shard, up));
                shard_loop(&inbox, &mut up, shard, params)
            })
            .map_err(|e| ServeError::Spawn(e.to_string()))?;
        self.shards[shard] = Some((tx, thread));
        Ok(None)
    }

    fn send(&mut self, shard: usize, msg: Down) -> Result<bool, ServeError> {
        Ok(self.shards[shard]
            .as_ref()
            .is_some_and(|(inbox, _)| inbox.send(msg).is_ok()))
    }

    fn reap(&mut self, shard: usize) {
        if let Some((_, thread)) = self.shards[shard].take() {
            let _ = thread.join();
        }
    }

    fn stop(&mut self) -> Vec<ShardSummary> {
        for shard in 0..self.shards.len() {
            let _ = self.send(shard, Down::Stop);
        }
        let threads = self.shards.iter_mut().filter_map(Option::take);
        threads.filter_map(|(_, t)| t.join().ok()).collect()
    }
}

/// Process shards: the loop in a subprocess, frames over localhost TCP.
struct Processes {
    fabric: Fabric<Forward>,
    addr: String,
    bin: PathBuf,
    params: ShardParams,
    children: Vec<Option<Child>>,
}

/// The fabric relay of the process link: decodes each verified frame on its
/// reader thread and queues the report — and each connection's start and
/// end — for the controller.
struct Forward(Events);

impl Relay for Forward {
    fn frame(&self, _: &mut Slots, rank: usize, frame: Frame, _: usize) -> Option<HubEvent> {
        let event = match up_of(&frame) {
            Ok(up) => Event::Up(rank, up),
            Err(e) => Event::Broken(rank, e),
        };
        self.0.send(event);
        None
    }

    fn joined(&self, _: &mut Slots, rank: usize) {
        self.0.send(Event::Joined(rank));
    }

    fn left(&self, _: &mut Slots, rank: usize) {
        self.0.send(Event::Left(rank));
    }
}

impl Processes {
    fn open(
        shards: usize,
        params: ShardParams,
        spec: &ProcessShards,
        events: Events,
    ) -> Result<Box<dyn Link>, ServeError> {
        let bin = spec
            .worker_bin
            .clone()
            .or_else(|| std::env::current_exe().ok())
            .ok_or_else(|| ServeError::Spawn("no worker binary".to_string()))?;
        let io = |e: TransportError| ServeError::Io(e.to_string());
        let fabric = Fabric::new(shards, Forward(events)).map_err(io)?;
        let addr = fabric.addr().map_err(io)?.to_string();
        fabric.open().map_err(io)?;
        let children = (0..shards).map(|_| None).collect();
        Ok(Box::new(Self {
            fabric,
            addr,
            bin,
            params,
            children,
        }))
    }
}

impl Link for Processes {
    fn start(&mut self, shard: usize) -> Result<Option<u32>, ServeError> {
        let p = self.params;
        let args = [
            ("shard", shard.to_string()),
            ("tick", p.tick_rounds.to_string()),
            ("snapshot-every", p.snapshot_every.to_string()),
            ("pool-cap", p.pool_cap.to_string()),
        ];
        let child = spawn_child(&self.bin, SHARD_WORKER_MODE, &self.addr, &args)
            .map_err(|e| ServeError::Spawn(format!("{}: {e}", self.bin.display())))?;
        let pid = child.id();
        self.children[shard] = Some(child);
        Ok(Some(pid))
    }

    fn send(&mut self, shard: usize, msg: Down) -> Result<bool, ServeError> {
        let frame = down_frame(shard, msg).map_err(|e| ServeError::Protocol(e.to_string()))?;
        Ok(self.fabric.send_to(shard, &frame).is_ok())
    }

    fn reap(&mut self, shard: usize) {
        if let Some(mut child) = self.children[shard].take() {
            child.kill().ok();
            child.wait().ok();
        }
    }

    fn stop(&mut self) -> Vec<ShardSummary> {
        for shard in 0..self.children.len() {
            let _ = self.send(shard, Down::Stop);
        }
        for mut child in self.children.iter_mut().filter_map(Option::take) {
            child.wait().ok();
        }
        Vec::new()
    }
}

/// A shard's view from the controller.
#[derive(Default)]
struct Shard {
    /// Up (joined, not yet left).
    connected: bool,
    restarts: u32,
    /// When to start it next; `None` while it runs or once it is dead.
    respawn_at: Option<Instant>,
    /// Given up for good.
    dead: bool,
}

/// One job in flight.
struct Job {
    spec: JobSpec,
    assigned: usize,
    delivered: bool,
    /// The target of an outstanding eviction request.
    evicting: Option<usize>,
    migrations: u32,
    shard_path: Vec<usize>,
    /// The job's log up to the last report that carried telemetry.
    log: String,
    /// The durability point a delivery resumes from, its `log` left empty:
    /// a hand-back until it lands, and a process shard's last snapshot.
    last_snap: Option<SnapshotRecord>,
    /// The hand-back's snapshot time, until the job lands again.
    handoff_ns: Option<u64>,
}

/// The journal, as the controller files records in it.
struct Filer {
    journal: Option<Journal>,
    /// Records appended since the last commit.
    dirty: bool,
}

impl Filer {
    fn file(&mut self, record: &JournalRecord) -> Result<(), ServeError> {
        if let Some(journal) = &self.journal {
            lock(journal)?
                .append(record)
                .map_err(|e| ServeError::Io(e.to_string()))?;
            self.dirty = true;
        }
        Ok(())
    }

    fn commit(&mut self) -> Result<(), ServeError> {
        match &self.journal {
            Some(journal) if std::mem::take(&mut self.dirty) => Ok(lock(journal)?.commit()?),
            _ => Ok(()),
        }
    }
}

struct Controller {
    policy: MigrationPolicy,
    process: Option<ProcessShards>,
    shards: Vec<Shard>,
    jobs: BTreeMap<String, Job>,
    filer: Filer,
    /// Some job may be waiting for delivery.
    pending: bool,
    draining: bool,
    rng: FastRng,
    /// Outcomes, in-flight peak and shard counters so far.
    report: ServeReport,
}

/// The body of a server's controller thread: starts the shards on the link
/// `cfg` names, serves until the handle finishes and every job is done (or
/// a failure stops it), then stops the shards.
pub(crate) fn controller_main(
    cfg: ServeConfig,
    events: Events,
    inbox: Receiver<Event>,
    journal: Option<Journal>,
    tenants: &Sender<String>,
    pids: &[AtomicU32],
) -> ServeReport {
    let params = ShardParams {
        tick_rounds: cfg.tick_rounds.max(1),
        snapshot_every: if journal.is_some() || cfg.processes.is_some() {
            cfg.snapshot_every_ticks
        } else {
            0
        },
        pool_cap: cfg.pool_cap_per_key,
    };
    let link: Result<Box<dyn Link>, ServeError> = match &cfg.processes {
        None => Ok(Box::new(Threads {
            params,
            events,
            shards: (0..cfg.shards).map(|_| None).collect(),
        })),
        Some(spec) => Processes::open(cfg.shards, params, spec, events),
    };
    let mut link = match link {
        Ok(link) => link,
        Err(e) => {
            return ServeReport {
                failure: Some(e),
                ..ServeReport::default()
            }
        }
    };
    let seed = match cfg.migration {
        MigrationPolicy::Seeded { seed, .. } => seed,
        _ => 0,
    };
    let mut controller = Controller {
        policy: cfg.migration,
        process: cfg.processes,
        shards: (0..cfg.shards)
            .map(|_| Shard {
                respawn_at: Some(Instant::now()),
                ..Shard::default()
            })
            .collect(),
        jobs: BTreeMap::new(),
        filer: Filer {
            journal,
            dirty: false,
        },
        pending: false,
        draining: false,
        rng: FastRng::new(seed, 0),
        report: ServeReport::default(),
    };
    let failure = controller
        .serve(&mut *link, &inbox, tenants, pids)
        .and_then(|()| controller.filer.commit())
        .err();
    // A shard blocked on a full queue must see it close to stop.
    drop(inbox);
    let mut report = controller.report;
    report.shards = link.stop();
    for pid in pids {
        pid.store(0, Ordering::Relaxed);
    }
    report.outcomes.sort_by_cached_key(|o| o.spec.name.clone());
    report
        .remote_outcomes
        .sort_by_cached_key(|o| o.spec.name.clone());
    report.failure = failure;
    report
}

impl Controller {
    fn serve(
        &mut self,
        link: &mut dyn Link,
        inbox: &Receiver<Event>,
        tenants: &Sender<String>,
        pids: &[AtomicU32],
    ) -> Result<(), ServeError> {
        loop {
            let now = Instant::now();
            for (shard, state) in self.shards.iter_mut().enumerate() {
                if state.respawn_at.is_some_and(|at| at <= now) {
                    state.respawn_at = None;
                    pids[shard].store(link.start(shard)?.unwrap_or(0), Ordering::Relaxed);
                }
            }
            self.deliver(link)?;
            if self.draining && self.jobs.is_empty() {
                return Ok(());
            }
            // Block until something happens; wake early only for a restart.
            let mut next = match self.shards.iter().filter_map(|s| s.respawn_at).min() {
                Some(at) => match inbox.recv_timeout(at.saturating_duration_since(now)) {
                    Err(RecvTimeoutError::Disconnected) => break,
                    received => received.ok(),
                },
                None => Some(inbox.recv().map_err(|_| closed())?),
            };
            while let Some(event) = next {
                self.on_event(event, link, tenants, pids)?;
                next = inbox.try_recv().ok();
            }
            self.filer.commit()?;
        }
        Err(closed())
    }

    fn on_event(
        &mut self,
        event: Event,
        link: &mut dyn Link,
        tenants: &Sender<String>,
        pids: &[AtomicU32],
    ) -> Result<(), ServeError> {
        match event {
            Event::Submit(spec, snap) => self.enroll(spec, snap),
            Event::Finish => self.draining = true,
            Event::Joined(shard) => {
                self.shards[shard].connected = true;
                self.shards[shard].restarts = 0;
                self.pending = true;
            }
            Event::Left(shard) => self.on_death(shard, link, pids)?,
            Event::Broken(shard, e) => {
                return Err(ServeError::Protocol(format!("shard {shard}: {e}")));
            }
            Event::Up(shard, up) => self.on_report(shard, up, link, tenants)?,
        }
        Ok(())
    }

    /// Jobs placed on (or moving to) `shard`.
    fn load(&self, shard: usize) -> usize {
        let dest = |job: &&Job| job.evicting.unwrap_or(job.assigned) == shard;
        self.jobs.values().filter(dest).count()
    }

    fn enroll(&mut self, spec: JobSpec, mut last_snap: Option<SnapshotRecord>) {
        let assigned = (0..self.shards.len())
            .filter(|&i| !self.shards[i].dead)
            .min_by_key(|&i| self.load(i))
            .unwrap_or(0);
        let log = last_snap.as_mut().map(|s| std::mem::take(&mut s.log));
        let job = Job {
            migrations: last_snap.as_ref().map_or(0, |s| s.migrations),
            spec,
            assigned,
            delivered: false,
            evicting: None,
            shard_path: vec![assigned],
            log: log.unwrap_or_default(),
            last_snap,
            handoff_ns: None,
        };
        self.jobs.insert(job.spec.name.clone(), job);
        self.report.peak_in_flight = self.report.peak_in_flight.max(self.jobs.len());
        self.pending = true;
    }

    /// Sends every undelivered job whose shard is up: its `Submit`, then its
    /// last `Snapshot` when it has a durability point — the records
    /// whole-server recovery would find in a journal. Only a process shard
    /// can be redelivered a job, so only its deliveries keep the snapshot.
    fn deliver(&mut self, link: &mut dyn Link) -> Result<(), ServeError> {
        if !std::mem::take(&mut self.pending) {
            return Ok(());
        }
        let keep = self.process.is_some();
        for job in self.jobs.values_mut() {
            if job.delivered || !self.shards[job.assigned].connected {
                continue;
            }
            let mut records = vec![JournalRecord::Submit {
                spec: job.spec.clone(),
            }];
            let snap = if keep {
                job.last_snap.clone()
            } else {
                job.last_snap.take()
            };
            if let Some(snap) = snap {
                let (shard, migrations) = (job.assigned, job.migrations);
                records.push(JournalRecord::Snapshot(SnapshotRecord {
                    shard,
                    migrations,
                    ..snap
                }));
            }
            // A failed send is followed by the shard's death, which
            // redelivers.
            job.delivered = link.send(job.assigned, Down::Deliver(records, job.handoff_ns))?;
            if job.delivered {
                job.handoff_ns = None;
            }
        }
        Ok(())
    }

    /// Files one report from `shard`. Reports about a job the shard no
    /// longer hosts are stale and dropped.
    fn on_report(
        &mut self,
        shard: usize,
        up: Up,
        link: &mut dyn Link,
        tenants: &Sender<String>,
    ) -> Result<(), ServeError> {
        let name = match &up {
            Up::Tick(name) => name,
            Up::Snapshot(s, _) => &s.name,
            Up::Done(o, _) => &o.name,
        }
        .clone();
        let Some(job) = self.jobs.get_mut(&name) else {
            return Ok(());
        };
        if job.assigned != shard || !job.delivered {
            return Ok(());
        }
        let (push, handoff_ns) = match up {
            Up::Tick(_) => (None, None),
            Up::Snapshot(push, handoff_ns) => (Some(push), handoff_ns),
            Up::Done(done, report) => return self.complete(&name, done, report, tenants),
        };
        if let Some(mut push) = push {
            // The pushed delta extends the job's log; the checkpoint is
            // journaled with the whole log so far, the rollback point.
            job.log.push_str(&push.log);
            push.log = std::mem::take(&mut job.log);
            let migrations = job.migrations;
            let record = JournalRecord::Snapshot(SnapshotRecord {
                shard,
                migrations,
                ..push
            });
            self.filer.file(&record)?;
            if let JournalRecord::Snapshot(mut snap) = record {
                job.log = std::mem::take(&mut snap.log);
                if handoff_ns.is_some() || self.process.is_some() {
                    job.last_snap = Some(snap);
                }
            }
        }
        if let Some(snapshot_ns) = handoff_ns {
            // Handed back: land it on the target — elsewhere, or back here
            // when no other shard is alive.
            let live = |i: &usize| !self.shards[*i].dead;
            let to = (job.evicting.take().filter(live))
                .or_else(|| (0..self.shards.len()).filter(live).find(|&i| i != shard))
                .unwrap_or(shard);
            let (from, name) = (shard, name.clone());
            self.filer
                .file(&JournalRecord::Migrate { name, from, to })?;
            job.migrations += 1;
            job.assigned = to;
            job.shard_path.push(to);
            job.delivered = false;
            job.handoff_ns = Some(snapshot_ns);
            self.pending = true;
            return Ok(());
        }
        // A tick boundary of a job that stays put: the one place migration
        // is decided.
        if job.evicting.is_some() {
            return Ok(());
        }
        if let Some(to) = self.migration_target(shard) {
            if let Some(job) = self.jobs.get_mut(&name) {
                job.evicting = Some(to);
            }
            link.send(shard, Down::Evict(name))?;
        }
        Ok(())
    }

    fn complete(
        &mut self,
        name: &str,
        done: OutcomeRecord,
        report: Option<Box<TrainReport>>,
        tenants: &Sender<String>,
    ) -> Result<(), ServeError> {
        let Some(mut job) = self.jobs.remove(name) else {
            return Ok(());
        };
        job.log.push_str(&done.log);
        let record = JournalRecord::Outcome(OutcomeRecord {
            migrations: job.migrations,
            shard_path: job.shard_path,
            log: job.log,
            ..done
        });
        self.filer.file(&record)?;
        let _ = tenants.send(job.spec.tenant.clone());
        let JournalRecord::Outcome(done) = record else {
            return Ok(());
        };
        match report {
            Some(report) => self.report.outcomes.push(JobOutcome {
                spec: job.spec,
                report: *report,
                log: done.log,
                shard_path: done.shard_path,
                migrations: done.migrations,
            }),
            None => self.report.remote_outcomes.push(RecoveredOutcome {
                spec: job.spec,
                report_debug: done.report_debug,
                log: done.log,
                migrations: done.migrations,
                shard_path: done.shard_path,
            }),
        }
        Ok(())
    }

    /// Where the [`MigrationPolicy`] moves a job that just ended a tick on
    /// `from`, if anywhere.
    fn migration_target(&mut self, from: usize) -> Option<usize> {
        let shards = &self.shards;
        let others = || (0..shards.len()).filter(move |&i| i != from && !shards[i].dead);
        match self.policy {
            MigrationPolicy::None => None,
            MigrationPolicy::LoadBalance { skew } => {
                let (to, min_load) = others()
                    .map(|i| (i, self.load(i)))
                    .min_by_key(|&(_, l)| l)?;
                (self.load(from) >= min_load + skew.max(1)).then_some(to)
            }
            MigrationPolicy::Seeded { per_mille, .. } => {
                let count = others().count() as u64;
                if count == 0 || self.rng.next_range(1000) >= u64::from(per_mille) {
                    return None;
                }
                let pick = self.rng.next_range(count) as usize;
                others().nth(pick)
            }
        }
    }

    /// A thread shard's death is a panic — a bug no redelivery can fix —
    /// and stops the server. A process shard is restarted with backoff, or
    /// once out of restarts given up, its jobs going to a live peer; either
    /// way they are redelivered from their last snapshots, whose logs are
    /// the logs at those points.
    fn on_death(
        &mut self,
        shard: usize,
        link: &mut dyn Link,
        pids: &[AtomicU32],
    ) -> Result<(), ServeError> {
        if !self.shards[shard].connected {
            return Ok(());
        }
        self.shards[shard].connected = false;
        link.reap(shard);
        pids[shard].store(0, Ordering::Relaxed);
        self.report.shard_deaths += 1;
        let restarts = self.shards[shard].restarts;
        let Some(process) = &self.process else {
            return Err(ServeError::ShardUnrecoverable { shard, restarts });
        };
        for job in self.jobs.values_mut().filter(|job| job.assigned == shard) {
            job.delivered = false;
            job.evicting = None;
        }
        self.pending = true;
        if restarts < process.max_restarts_per_shard {
            let delay = process
                .backoff_base_ms
                .saturating_mul(1 << restarts.min(16));
            let delay = Duration::from_millis(delay.min(BACKOFF_CAP_MS));
            self.shards[shard].restarts += 1;
            self.shards[shard].respawn_at = Some(Instant::now() + delay);
            self.report.restarts += 1;
            return Ok(());
        }
        self.shards[shard].dead = true;
        let target = (0..self.shards.len())
            .find(|&i| !self.shards[i].dead)
            .ok_or(ServeError::ShardUnrecoverable { shard, restarts })?;
        for job in self.jobs.values_mut().filter(|job| job.assigned == shard) {
            job.assigned = target;
            job.shard_path.push(target);
        }
        Ok(())
    }
}

fn closed() -> ServeError {
    ServeError::Io("the controller's event queue closed".to_string())
}

/// A job resident on a shard.
struct ActiveJob {
    spec: JobSpec,
    state: TrainerState,
    tel: Telemetry,
    /// Telemetry drained since the last report that carried any.
    log: String,
    migrations: u32,
    /// Ticks since the last snapshot (periodic-snapshot cadence).
    ticks_since_snap: usize,
    /// The controller asked for it back.
    evict: bool,
}

/// The one shard body: takes messages from `inbox` (blocking when it has
/// nothing to run), runs its jobs one tick each in rotation, and reports
/// every tick boundary through `up`. Returns when told to stop, when the
/// controller is gone (`inbox` closed, or `up` failing), or when a
/// delivered snapshot does not parse — the controller then treats the shard
/// as dead — with the shard's accounting.
fn shard_loop(
    inbox: &Receiver<Down>,
    up: &mut dyn FnMut(Up) -> bool,
    shard: usize,
    p: ShardParams,
) -> ShardSummary {
    let mut pool = WorkspacePool::new(p.pool_cap);
    let mut jobs: VecDeque<ActiveJob> = VecDeque::new();
    let mut summary = ShardSummary {
        shard,
        ..ShardSummary::default()
    };
    'serve: loop {
        // Everything that has arrived; with nothing to run, wait for more.
        loop {
            let msg = if jobs.is_empty() {
                inbox.recv().ok()
            } else {
                match inbox.try_recv() {
                    Err(TryRecvError::Empty) => break,
                    received => received.ok(),
                }
            };
            match msg {
                None | Some(Down::Stop) => break 'serve,
                // A delivered job is a one- or two-record journal: fold it
                // and land it exactly as whole-server recovery would.
                Some(Down::Deliver(records, handoff_ns)) => {
                    let plan = records.into_iter().collect::<ReplayState>().plan();
                    let landings = (plan.fresh.into_iter().map(|spec| (spec, None)))
                        .chain(plan.resumes.into_iter().map(|r| (r.spec.clone(), Some(r))));
                    for (spec, resume) in landings {
                        let t0 = Instant::now();
                        let bytes = resume.as_ref().map(|r| r.snapshot_json.len());
                        let Some(job) = land(spec, resume, &mut pool) else {
                            break 'serve;
                        };
                        jobs.push_back(job);
                        if let (Some(snapshot_ns), Some(snapshot_bytes)) = (handoff_ns, bytes) {
                            let restore_ns = t0.elapsed().as_nanos() as u64;
                            summary.migrations_in.push(MigrationSample {
                                snapshot_ns,
                                restore_ns,
                                snapshot_bytes,
                            });
                        }
                    }
                }
                Some(Down::Evict(name)) => {
                    if let Some(job) = jobs.iter_mut().find(|job| job.spec.name == name) {
                        job.evict = true;
                    }
                }
            }
            summary.idle_wakeups += u64::from(jobs.is_empty());
        }
        let Some(mut job) = jobs.pop_front() else {
            continue;
        };
        let key = WorkspaceKey::new(job.state.model_dim(), job.spec.topology);

        // Eviction requested: snapshot at this tick boundary and hand the
        // job back instead of running it further. The workspace stays in
        // this shard's pool; the snapshot carries all live state.
        if job.evict {
            if let Some(handle) = job.state.release_workspace() {
                pool.checkin(key, handle);
            }
            let t0 = Instant::now();
            let log = std::mem::take(&mut job.log);
            let record = snapshot_record(&mut job, shard, log);
            if !up(Up::Snapshot(record, Some(t0.elapsed().as_nanos() as u64))) {
                break;
            }
            continue;
        }

        // One tick: a burst of rounds, preemptible only at its end.
        let mut ran = 0;
        while ran < p.tick_rounds && !job.state.is_done() {
            let t0 = Instant::now();
            job.state.step();
            summary.round_ns.push(t0.elapsed().as_nanos() as u64);
            ran += 1;
        }
        summary.ticks += 1;
        // Batched telemetry: one sink flush per tick, not per round.
        job.tel.drain_events_jsonl_into(&mut job.log);
        job.ticks_since_snap += 1;

        let report = if job.state.is_done() {
            if let Some(handle) = job.state.release_workspace() {
                pool.checkin(key, handle);
            }
            let report = job.state.finish();
            job.tel.drain_events_jsonl_into(&mut job.log);
            let outcome = OutcomeRecord {
                name: job.spec.name,
                migrations: job.migrations,
                shard_path: Vec::new(), // the controller's to know
                report_debug: report_fingerprint(&report),
                log: job.log,
            };
            if !up(Up::Done(outcome, Some(Box::new(report)))) {
                break;
            }
            continue;
        } else if p.snapshot_every > 0 && job.ticks_since_snap >= p.snapshot_every {
            // Snapshotting mid-run is bit-invisible (`TrainerState::snapshot`
            // materializes pending state exactly as the next step would).
            let log = std::mem::take(&mut job.log);
            Up::Snapshot(snapshot_record(&mut job, shard, log), None)
        } else {
            Up::Tick(job.spec.name.clone())
        };
        jobs.push_back(job);
        if !up(report) {
            break;
        }
    }
    summary.pool = pool.stats();
    summary
}

/// Captures `job` at this tick boundary as the record that resumes it
/// bit-exactly anywhere, carrying `log`, what it logged since its last
/// report that carried telemetry.
fn snapshot_record(job: &mut ActiveJob, shard: usize, log: String) -> SnapshotRecord {
    let snapshot = job.state.snapshot();
    job.ticks_since_snap = 0;
    SnapshotRecord {
        name: job.spec.name.clone(),
        shard,
        migrations: job.migrations,
        round: snapshot.round,
        tel_seq: job.tel.seq_floor(),
        snapshot_json: snapshot.to_json(),
        log,
    }
}

/// Builds a job — fresh, or from a snapshot: a migration landing, a
/// redelivery after a shard death, or crash recovery — adopting a pooled
/// workspace when one fits. A restored job records on a fresh telemetry
/// sink with the snapshot's sequence floor, so the hop events of its
/// resumed rounds continue the absolute numbering and the concatenated log
/// stays byte-identical to an uninterrupted run. `None` when the snapshot
/// does not parse.
fn land(spec: JobSpec, resume: Option<ResumeJob>, pool: &mut WorkspacePool) -> Option<ActiveJob> {
    let tel = Telemetry::recording();
    if let Some(resume) = &resume {
        tel.restore_seq_floor(resume.tel_seq);
    }
    let cfg = spec.to_train_config(tel.clone());
    let (mut state, log, migrations) = match resume {
        None => (TrainerState::new(&cfg), String::new(), 0),
        Some(resume) => {
            let snapshot = TrainSnapshot::from_json(&resume.snapshot_json).ok()?;
            let state = TrainerState::restore(&cfg, &snapshot);
            (state, resume.log, resume.migrations)
        }
    };
    if let Some(handle) = pool.checkout(WorkspaceKey::new(state.model_dim(), spec.topology)) {
        state.adopt_workspace(handle);
    }
    Some(ActiveJob {
        spec,
        state,
        tel,
        log,
        migrations,
        ticks_since_snap: 0,
        evict: false,
    })
}

/// The shard-worker entry point: the body of `marsit_serve --shard-worker`,
/// handed the argv after that flag. Refuses a missing or malformed
/// `--shard`, `--tick`, `--snapshot-every` or `--pool-cap` before it
/// connects; then runs the shard loop behind the TCP link and exits the
/// moment the controller's socket reaches EOF (no orphans after a server
/// `kill -9`). Returns the process exit code: 1 when the controller sent a
/// frame the protocol does not allow.
///
/// # Errors
///
/// The [`ArgError`] naming the flag it refused.
pub fn shard_worker_main(argv: &[String]) -> Result<i32, ArgError> {
    let args = ChildArgs::parse(argv)?;
    let shard = args.get("shard")?;
    let params = ShardParams {
        tick_rounds: args.get::<usize>("tick")?.max(1),
        snapshot_every: args.get("snapshot-every")?,
        pool_cap: args.get("pool-cap")?,
    };
    let Ok((mut reader, mut stream)) = connect_as(args.addr(), shard) else {
        return Ok(1);
    };
    // Blocking reads on a thread of their own; the inbox closing (EOF, a
    // torn or foreign frame) is "controller gone".
    let (tx, inbox) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        while let Ok(Some((frame, _))) = read_frame(&mut reader) {
            let Ok(msg) = down_of(&frame) else {
                return false;
            };
            if tx.send(msg).is_err() {
                break;
            }
        }
        true
    });
    let mut up = |up| up_frame(shard, up).is_ok_and(|f| write_frame(&mut stream, &f).is_ok());
    shard_loop(&inbox, &mut up, shard, params);
    // Unblocks the reader's pending read so the join cannot hang.
    stream.shutdown(Shutdown::Both).ok();
    Ok(if reader.join().unwrap_or(false) { 0 } else { 1 })
}

/// A serving frame of the TCP link: `records` encoded back to back, numbered from 0, as a
/// bytes payload.
fn serving_frame(
    kind: FrameKind,
    from: u32,
    to: u32,
    records: &[JournalRecord],
) -> Result<Frame, JournalError> {
    let mut payload = Vec::new();
    for (seq, record) in records.iter().enumerate() {
        payload.extend_from_slice(&encode_record(seq as u64, record)?);
    }
    Ok(Frame::bytes(kind, from, to, payload))
}

/// The records of a serving frame, in order, as the journal's scanner reads
/// them: all of them decode, or it is a protocol error.
fn serving_records(frame: &Frame) -> Result<Vec<JournalRecord>, String> {
    let Payload::Bytes(bytes) = &frame.payload else {
        return Err(format!("expected a bytes payload, got {:?}", frame.payload));
    };
    let mut scanner = Scanner::new(bytes);
    let records = scanner.by_ref().map(|(_, record)| record).collect();
    match scanner.torn() {
        None => Ok(records),
        Some(e) => Err(e.to_string()),
    }
}

/// A move of `name` from `shard` to itself: on the wire, a tick report
/// (shard → controller) or an eviction request (controller → shard).
fn stay(name: String, shard: usize) -> JournalRecord {
    let (from, to) = (shard, shard);
    JournalRecord::Migrate { name, from, to }
}

/// A report as a frame: a `snapshot` frame of `[stay]` (tick), `[Snapshot]`
/// (durability point) or `[stay, Snapshot]` (hand-back), or an `outcome`
/// frame of one `Outcome` record.
fn up_frame(shard: usize, up: Up) -> Result<Frame, JournalError> {
    let (kind, records) = match up {
        Up::Tick(name) => (FrameKind::Snapshot, vec![stay(name, shard)]),
        Up::Snapshot(s, None) => (FrameKind::Snapshot, vec![JournalRecord::Snapshot(s)]),
        Up::Snapshot(s, Some(_)) => (
            FrameKind::Snapshot,
            vec![stay(s.name.clone(), shard), JournalRecord::Snapshot(s)],
        ),
        Up::Done(o, _) => (FrameKind::Outcome, vec![JournalRecord::Outcome(o)]),
    };
    serving_frame(kind, shard as u32, DRIVER, &records)
}

fn up_of(frame: &Frame) -> Result<Up, String> {
    use JournalRecord::{Migrate, Outcome, Snapshot};
    let mut records = serving_records(frame)?;
    let (last, first) = (records.pop(), records.pop());
    Ok(match (frame.kind, first, last, records.is_empty()) {
        (FrameKind::Snapshot, None, Some(Migrate { name, .. }), _) => Up::Tick(name),
        (FrameKind::Snapshot, None, Some(Snapshot(s)), _) => Up::Snapshot(s, None),
        (FrameKind::Snapshot, Some(Migrate { .. }), Some(Snapshot(s)), true) => {
            Up::Snapshot(s, Some(0))
        }
        (FrameKind::Outcome, None, Some(Outcome(o)), _) => Up::Done(o, None),
        (kind, ..) => return Err(format!("a {kind:?} frame that is not a shard report")),
    })
}

/// A controller message as a frame: `submit` (the delivered records),
/// `snapshot` of `[stay]` (eviction request) or `stop`.
fn down_frame(shard: usize, msg: Down) -> Result<Frame, JournalError> {
    let to = shard as u32;
    match msg {
        Down::Deliver(records, _) => serving_frame(FrameKind::Submit, DRIVER, to, &records),
        Down::Evict(name) => serving_frame(FrameKind::Snapshot, DRIVER, to, &[stay(name, shard)]),
        Down::Stop => Ok(Frame::control(FrameKind::Stop, DRIVER, to)),
    }
}

fn down_of(frame: &Frame) -> Result<Down, String> {
    match frame.kind {
        FrameKind::Stop => Ok(Down::Stop),
        FrameKind::Submit => Ok(Down::Deliver(serving_records(frame)?, None)),
        FrameKind::Snapshot => match serving_records(frame)?.as_mut_slice() {
            [JournalRecord::Migrate { name, .. }] => Ok(Down::Evict(std::mem::take(name))),
            _ => Err("an eviction request is one migrate record".to_string()),
        },
        kind => Err(format!("a {kind:?} frame is not a controller message")),
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use crate::scheduler::JobServer;
    use marsit_models::Workload;
    use marsit_simnet::Topology;
    use std::io::Read as _;
    use std::net::TcpStream;
    use std::os::unix::fs::PermissionsExt as _;

    /// Connects the way a shard worker does and says hello as `shard`.
    fn connect_as(addr: &str, shard: u32) -> TcpStream {
        let mut stream = TcpStream::connect(addr).expect("connect to the controller");
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

    /// A one-process-shard server whose worker binary is a script whose
    /// only act is to record the address the controller listens on; returns
    /// the config and the file the address lands in.
    fn scripted_server(tag: &str) -> (ServeConfig, PathBuf) {
        let dir = std::env::temp_dir().join(format!("marsit-sup-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        let script = dir.join("worker.sh");
        std::fs::write(&script, "#!/bin/sh\nprintf '%s\\n' \"$3\" > \"$0.addr\"\n")
            .expect("script");
        std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
        let mut cfg = ServeConfig::new(1);
        cfg.processes = Some(ProcessShards {
            worker_bin: Some(script),
            ..ProcessShards::default()
        });
        (cfg, dir)
    }

    fn await_addr(dir: &std::path::Path) -> String {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match std::fs::read_to_string(dir.join("worker.sh.addr")) {
                Ok(text) if text.ends_with('\n') => return text.trim().to_string(),
                _ => {
                    assert!(Instant::now() < deadline, "worker script never ran");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    }

    /// The controller indexes per-shard state by the shard a connection
    /// speaks for, so a `hello` from a shard that does not exist must never
    /// reach it: it is dropped at the door, and a connection whose later
    /// frames claim another `from` is dropped like a dead shard's. The test
    /// plays the shard worker itself.
    #[test]
    fn a_connection_speaks_only_for_the_shard_its_hello_may_name() {
        let (cfg, dir) = scripted_server("hello");
        let mut handle = JobServer::start(cfg);
        // A pending job keeps the event loop running through everything
        // below.
        let spec = JobSpec::new("held", Workload::AlexNetMnist, Topology::ring(4));
        handle.submit(spec.clone());
        let addr = await_addr(&dir);

        // A hello from shard 9 of 1. EOF on our side means its reader is
        // done with it — and has queued whatever it was going to queue.
        let mut rogue = connect_as(&addr, 9);
        rogue.shutdown(Shutdown::Write).expect("half-close");
        assert_eq!(rogue.read(&mut [0u8; 1]).expect("dropped"), 0);

        // Shard 0's connection forging a frame from shard 9: the frame is
        // not believed and the connection is dropped like a dead shard's
        // (EOF once the controller has let go of its half).
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
        let report = handle.finish();
        assert_eq!(report.failure, None, "the controller survives");
        assert_eq!(report.remote_outcomes.len(), 1);
        assert_eq!(report.remote_outcomes[0].report_debug, "honest");
        assert_eq!(report.remote_outcomes[0].log, "log\n");
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
        let (cfg, dir) = scripted_server("dup");
        let mut handle = JobServer::start(cfg);
        let first_spec = JobSpec::new("first", Workload::AlexNetMnist, Topology::ring(4));
        handle.submit(first_spec);
        let addr = await_addr(&dir);

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
        let report = handle.finish();
        assert_eq!(report.failure, None, "the controller survives");
        assert_eq!(report.remote_outcomes.len(), 2);
        assert_eq!(
            report.shard_deaths, 0,
            "the refused connection counted as a death"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
