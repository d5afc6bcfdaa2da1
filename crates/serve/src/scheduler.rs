//! The sharded multi-job scheduler.
//!
//! A [`JobServer`] owns a fixed pool of shard threads. Each shard owns the
//! jobs currently assigned to it and drives them round-by-round through the
//! [`TrainerState`] step API, so any job can be preempted — and migrated —
//! at a round boundary. Three serving-side mechanisms keep heavy traffic
//! cheap without touching a single output bit:
//!
//! 1. **Workspace pools** ([`crate::WorkspacePool`]): a finishing or
//!    migrating job releases its warm [`marsit_core::WorkspaceHandle`] into
//!    the shard's pool; the next job of the same shape adopts it.
//! 2. **Batched telemetry**: each job records into its own in-memory
//!    [`Telemetry`] sink, and the shard flushes it with one
//!    `drain_events_jsonl_into` call per *tick* (a burst of rounds), not per
//!    round. The drained bytes are identical whatever the flush cadence.
//! 3. **Snapshot migration**: a job moves between shards as a
//!    [`TrainSnapshot`] serialized to its checkpoint frame. Restore is
//!    bit-exact and emits no fresh `run_meta`, so the concatenated telemetry
//!    log of a migrated job is byte-identical to an unmigrated run.
//!
//! The determinism contract — the reason a scheduler decision can never
//! perturb a job — is that every cross-job mechanism above is either pure
//! capacity reuse (pools), pure buffering (batched flush), or the bit-exact
//! snapshot path already proven by the trainsim round-trip tests. The
//! property is asserted end-to-end by [`verify_outcome`] and the proptest
//! suite in `tests/service.rs`.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marsit_simnet::SharedBytes;
use marsit_telemetry::Telemetry;
use marsit_tensor::rng::FastRng;
use marsit_trainsim::{TrainReport, TrainSnapshot, TrainerState};

use crate::admission::{AdmissionController, AdmissionError};
use crate::journal::{JournalRecord, JournalWriter, OutcomeRecord, ResumeJob, SnapshotRecord};
use crate::pool::{PoolStats, WorkspaceKey, WorkspacePool};
use crate::spec::JobSpec;

/// Shared handle to the submission journal: the handle side commits
/// accepted submissions, the shard side commits snapshots and outcomes at
/// tick boundaries.
type Journal = Arc<Mutex<JournalWriter>>;

/// How the scheduler decides to move a running job to another shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Never migrate.
    None,
    /// After each tick, move the job off any shard hosting at least `skew`
    /// more jobs than the least-loaded shard.
    LoadBalance {
        /// Minimum load imbalance (in jobs) that triggers a migration.
        skew: usize,
    },
    /// After each tick, migrate with probability `per_mille`/1000 to a
    /// seeded-random other shard. Exists to let tests and the bench drive
    /// the migration path hard under a reproducible schedule.
    Seeded {
        /// Seed for the per-shard migration RNG stream.
        seed: u64,
        /// Migration probability per tick, in thousandths.
        per_mille: u32,
    },
}

/// Server configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of shard threads.
    pub shards: usize,
    /// Rounds a shard runs on one job before rotating to the next
    /// (the preemption quantum).
    pub tick_rounds: usize,
    /// Workspace-pool capacity per shape key, per shard.
    pub pool_cap_per_key: usize,
    /// Migration policy.
    pub migration: MigrationPolicy,
    /// Shortest idle wait (milliseconds) when a shard has nothing to run.
    pub idle_wait_min_ms: u64,
    /// Longest idle wait: consecutive empty waits double the timeout from
    /// `idle_wait_min_ms` up to this cap (reset the moment work arrives),
    /// so an idle shard makes ~1/16th the wakeups of a fixed 1 ms poll.
    /// Set equal to `idle_wait_min_ms` to disable the backoff.
    pub idle_wait_max_ms: u64,
    /// When journaling, snapshot each in-flight job every this many of its
    /// ticks (0 = only the pre-migration snapshots are journaled). Smaller
    /// values bound replayed work after a crash at the cost of more
    /// journal bytes per job.
    pub snapshot_every_ticks: usize,
}

impl ServeConfig {
    /// A server with `shards` shard threads and serving defaults
    /// (4-round ticks, pool capacity 4, no migration, 1→16 ms idle
    /// backoff, a journal snapshot every 4 ticks when journaling).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            tick_rounds: 4,
            pool_cap_per_key: 4,
            migration: MigrationPolicy::None,
            idle_wait_min_ms: 1,
            idle_wait_max_ms: 16,
            snapshot_every_ticks: 4,
        }
    }
}

/// Timing of one completed migration (snapshot on the source shard,
/// restore on the target shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationSample {
    /// Nanoseconds to snapshot + serialize on the source shard.
    pub snapshot_ns: u64,
    /// Nanoseconds to deserialize + restore on the target shard.
    pub restore_ns: u64,
    /// Size of the serialized snapshot in bytes.
    pub snapshot_bytes: usize,
}

/// A finished job: its final report plus the telemetry log accumulated
/// across every shard it ran on.
#[derive(Debug)]
pub struct JobOutcome {
    /// The spec the job ran under.
    pub spec: JobSpec,
    /// Final training report.
    pub report: TrainReport,
    /// Concatenated JSONL telemetry log (batched shard-tick flushes).
    pub log: String,
    /// Every shard that hosted the job, in order (first = admission shard).
    pub shard_path: Vec<usize>,
    /// Number of migrations the job survived.
    pub migrations: u32,
}

/// Per-shard accounting returned when the server finishes.
#[derive(Debug)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Jobs this shard ran to completion.
    pub jobs_completed: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Wall-clock nanoseconds of every round stepped on this shard.
    pub round_ns: Vec<u64>,
    /// Workspace-pool counters.
    pub pool: PoolStats,
    /// Workspaces still pooled when the shard drained.
    pub pooled_at_exit: usize,
    /// Jobs migrated away from this shard.
    pub migrations_out: u64,
    /// Migrations that landed on this shard (timed end-to-end).
    pub migrations_in: Vec<MigrationSample>,
    /// Times the shard woke from an idle wait with nothing to do — the
    /// busy-wait cost the exponential idle backoff exists to bound.
    pub idle_wakeups: u64,
}

/// The aggregate result of a serve session.
#[derive(Debug)]
pub struct ServeReport {
    /// All finished jobs, sorted by name.
    pub outcomes: Vec<JobOutcome>,
    /// Per-shard accounting.
    pub shards: Vec<ShardSummary>,
    /// Peak number of jobs in flight at once.
    pub peak_in_flight: usize,
    /// Median in-flight count observed at job-completion instants — the
    /// concurrency the server actually sustained.
    pub sustained_in_flight: usize,
}

impl ServeReport {
    /// All per-round latencies across shards, sorted ascending.
    #[must_use]
    pub fn round_latencies_sorted(&self) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .shards
            .iter()
            .flat_map(|s| s.round_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// All migration samples across shards.
    #[must_use]
    pub fn migration_samples(&self) -> Vec<MigrationSample> {
        self.shards
            .iter()
            .flat_map(|s| s.migrations_in.iter().copied())
            .collect()
    }

    /// Pool counters summed across shards.
    #[must_use]
    pub fn pool_stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            total.merge(&s.pool);
        }
        total
    }

    /// The outcome of the job named `name`, if it finished.
    #[must_use]
    pub fn outcome(&self, name: &str) -> Option<&JobOutcome> {
        self.outcomes.iter().find(|o| o.spec.name == name)
    }
}

/// A quantile (by nearest-rank) of a sorted latency slice, in nanoseconds.
#[must_use]
pub fn quantile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A job resident on a shard (a scheduler thread, or a supervised shard
/// subprocess — see [`crate::supervisor`]).
pub(crate) struct ActiveJob {
    pub(crate) spec: JobSpec,
    pub(crate) state: TrainerState,
    pub(crate) tel: Telemetry,
    /// Telemetry drained so far (in a shard subprocess: since the last
    /// record it shipped).
    pub(crate) log: String,
    shard_path: Vec<usize>,
    pub(crate) migrations: u32,
    /// Ticks since the last snapshot record (periodic-snapshot cadence).
    pub(crate) ticks_since_snap: usize,
}

/// A job in transit between shards: the spec plus the serialized snapshot
/// and everything accumulated so far.
struct MigratingJob {
    spec: JobSpec,
    snapshot_json: SharedBytes,
    tel: Telemetry,
    log: String,
    shard_path: Vec<usize>,
    migrations: u32,
    snapshot_ns: u64,
}

enum ShardMsg {
    Admit(Box<JobSpec>),
    MigrateIn(Box<MigratingJob>),
    /// Crash recovery: resume a job from its last journaled snapshot on a
    /// fresh telemetry sink (sequence floor restored from the journal).
    Restore(Box<ResumeJob>),
    /// No more submissions: finish resident jobs, refuse new migrations,
    /// then exit.
    Drain,
    /// Nothing to do but look again: the last job in flight just finished
    /// on the sender, so a draining peer's exit condition now holds and it
    /// need not sleep out its idle backoff to find out.
    Wake,
}

/// Shared in-flight accounting: job counts per shard (for load balancing
/// and migration targeting) plus concurrency high-water marks.
#[derive(Debug)]
struct Flight {
    per_shard: Vec<usize>,
    current: usize,
    peak: usize,
    at_completion: Vec<usize>,
}

impl Flight {
    fn new(shards: usize) -> Self {
        Self {
            per_shard: vec![0; shards],
            current: 0,
            peak: 0,
            at_completion: Vec::new(),
        }
    }
}

struct ShardCtx {
    shard: usize,
    cfg: ServeConfig,
    rx: Receiver<ShardMsg>,
    peers: Vec<Sender<ShardMsg>>,
    results: Sender<JobOutcome>,
    flight: Arc<Mutex<Flight>>,
    journal: Option<Journal>,
}

/// A running job server. Dropping the handle without calling
/// [`ServerHandle::finish`] aborts the shard threads' channels; always
/// finish to collect outcomes and summaries.
pub struct ServerHandle {
    txs: Vec<Sender<ShardMsg>>,
    threads: Vec<std::thread::JoinHandle<ShardSummary>>,
    results: Receiver<JobOutcome>,
    flight: Arc<Mutex<Flight>>,
    outcomes: Vec<JobOutcome>,
    submitted: usize,
    journal: Option<Journal>,
    admission: Option<AdmissionController>,
    /// Outcomes whose admission job slot has been released already.
    slots_released: usize,
}

/// The job server entry point.
pub struct JobServer;

impl JobServer {
    /// Starts the shard threads and returns a handle for submissions.
    #[must_use]
    pub fn start(cfg: ServeConfig) -> ServerHandle {
        Self::start_inner(cfg, None)
    }

    /// Starts the shard threads with a submission journal: every accepted
    /// spec is committed (written + fsynced) before it is dispatched,
    /// shards journal periodic and pre-migration snapshots plus final
    /// outcomes, and commits are batched at shard-tick boundaries. A
    /// `kill -9` at any instant leaves a journal whose replay resumes
    /// every job bit-exactly (see [`crate::journal`]).
    #[must_use]
    pub fn start_journaled(cfg: ServeConfig, journal: Journal) -> ServerHandle {
        Self::start_inner(cfg, Some(journal))
    }

    fn start_inner(cfg: ServeConfig, journal: Option<Journal>) -> ServerHandle {
        let shards = cfg.shards;
        let flight = Arc::new(Mutex::new(Flight::new(shards)));
        let (results_tx, results_rx) = std::sync::mpsc::channel();
        let mut txs = Vec::with_capacity(shards);
        let mut rxs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = std::sync::mpsc::channel();
            txs.push(tx);
            rxs.push(rx);
        }
        let mut threads = Vec::with_capacity(shards);
        for (shard, rx) in rxs.into_iter().enumerate() {
            let ctx = ShardCtx {
                shard,
                cfg,
                rx,
                peers: txs.clone(),
                results: results_tx.clone(),
                flight: Arc::clone(&flight),
                journal: journal.clone(),
            };
            threads.push(
                std::thread::Builder::new()
                    .name(format!("marsit-shard-{shard}"))
                    .spawn(move || shard_main(ctx))
                    .expect("spawn shard thread"),
            );
        }
        ServerHandle {
            txs,
            threads,
            results: results_rx,
            flight,
            outcomes: Vec::new(),
            submitted: 0,
            journal,
            admission: None,
            slots_released: 0,
        }
    }
}

impl ServerHandle {
    /// Installs an admission controller: subsequent [`Self::try_submit`]
    /// calls are quota-checked, and completed jobs release their tenant's
    /// job slot.
    pub fn set_admission(&mut self, admission: AdmissionController) {
        self.admission = Some(admission);
    }

    /// Submits a job to the least-loaded shard, bypassing admission
    /// control. With a journal, the submission is durable before this
    /// returns.
    pub fn submit(&mut self, spec: JobSpec) {
        if let Some(journal) = &self.journal {
            let mut journal = journal.lock().expect("journal lock");
            journal
                .append(&JournalRecord::Submit { spec: spec.clone() })
                .expect("journal-representable spec (parse_line round-trip)");
            journal.commit().expect("journal commit");
        }
        self.dispatch(ShardMsg::Admit(Box::new(spec)));
    }

    /// Quota-checked submission: consults the installed
    /// [`AdmissionController`] (releasing slots of jobs that finished
    /// since the last call first), then submits. Without a controller
    /// this is plain [`Self::submit`].
    ///
    /// # Errors
    ///
    /// The typed [`AdmissionError`] for over-quota or backpressured
    /// submissions; the job is not accepted and nothing is journaled.
    pub fn try_submit(&mut self, spec: JobSpec, now_ms: u64) -> Result<(), AdmissionError> {
        self.release_completed_slots();
        if let Some(admission) = &mut self.admission {
            admission.admit(&spec, now_ms)?;
        }
        self.submit(spec);
        Ok(())
    }

    /// Resumes a crash-recovered job from its journaled snapshot on the
    /// least-loaded shard. The job was journaled as submitted before the
    /// crash, so no new submit record is written.
    pub fn submit_resume(&mut self, resume: ResumeJob) {
        self.dispatch(ShardMsg::Restore(Box::new(resume)));
    }

    fn dispatch(&mut self, msg: ShardMsg) {
        let target = {
            let mut flight = self.flight.lock().expect("flight lock");
            let target = flight
                .per_shard
                .iter()
                .enumerate()
                .min_by_key(|(_, &n)| n)
                .map_or(0, |(i, _)| i);
            flight.per_shard[target] += 1;
            flight.current += 1;
            flight.peak = flight.peak.max(flight.current);
            target
        };
        self.submitted += 1;
        self.txs[target].send(msg).expect("shard alive");
    }

    fn release_completed_slots(&mut self) {
        while let Ok(outcome) = self.results.try_recv() {
            self.outcomes.push(outcome);
        }
        if let Some(admission) = &mut self.admission {
            for outcome in &self.outcomes[self.slots_released..] {
                admission.on_complete(&outcome.spec.tenant);
            }
        }
        self.slots_released = self.outcomes.len();
    }

    /// Jobs finished so far (drains the results channel without blocking).
    pub fn completed(&mut self) -> usize {
        self.release_completed_slots();
        self.outcomes.len()
    }

    /// Drains the server: waits for every submitted job to finish, stops
    /// the shard threads, and returns the aggregate report.
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        for tx in &self.txs {
            tx.send(ShardMsg::Drain).expect("shard alive");
        }
        // Shards may still bounce migrations between each other, so keep
        // the submission senders alive until every thread has exited.
        while let Ok(outcome) = self.results.recv() {
            self.outcomes.push(outcome);
            if self.outcomes.len() == self.submitted {
                break;
            }
        }
        drop(self.txs);
        drop(self.results);
        let mut shards: Vec<ShardSummary> = self
            .threads
            .into_iter()
            .map(|t| t.join().expect("shard thread panicked"))
            .collect();
        shards.sort_by_key(|s| s.shard);
        assert_eq!(
            self.outcomes.len(),
            self.submitted,
            "every submitted job must produce an outcome"
        );
        self.outcomes.sort_by(|a, b| a.spec.name.cmp(&b.spec.name));
        let (peak, sustained) = {
            let mut flight = self.flight.lock().expect("flight lock");
            flight.at_completion.sort_unstable();
            let sustained = if flight.at_completion.is_empty() {
                0
            } else {
                flight.at_completion[flight.at_completion.len() / 2]
            };
            (flight.peak, sustained)
        };
        ServeReport {
            outcomes: self.outcomes,
            shards,
            peak_in_flight: peak,
            sustained_in_flight: sustained,
        }
    }
}

fn shard_main(ctx: ShardCtx) -> ShardSummary {
    let mut pool = WorkspacePool::new(ctx.cfg.pool_cap_per_key);
    let mut active: VecDeque<ActiveJob> = VecDeque::new();
    let mut summary = ShardSummary {
        shard: ctx.shard,
        jobs_completed: 0,
        ticks: 0,
        round_ns: Vec::new(),
        pool: PoolStats::default(),
        pooled_at_exit: 0,
        migrations_out: 0,
        migrations_in: Vec::new(),
        idle_wakeups: 0,
    };
    let mut draining = false;
    let idle_min = Duration::from_millis(ctx.cfg.idle_wait_min_ms.max(1));
    let idle_max = Duration::from_millis(
        ctx.cfg
            .idle_wait_max_ms
            .max(ctx.cfg.idle_wait_min_ms)
            .max(1),
    );
    let mut idle_wait = idle_min;
    let mut rng = match ctx.cfg.migration {
        MigrationPolicy::Seeded { seed, .. } => FastRng::new(seed, ctx.shard as u64),
        _ => FastRng::new(0, ctx.shard as u64),
    };

    loop {
        // Ingest every pending message without blocking.
        loop {
            match ctx.rx.try_recv() {
                Ok(msg) => handle_msg(
                    msg,
                    &ctx,
                    &mut active,
                    &mut pool,
                    &mut summary,
                    &mut draining,
                ),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    draining = true;
                    break;
                }
            }
        }

        let Some(mut job) = active.pop_front() else {
            // Idle. A draining shard must stay alive until every job in
            // the whole server has finished: a peer that has not yet
            // processed its own Drain may still migrate a job here, and
            // exiting early would strand it in a dead channel.
            if draining && ctx.flight.lock().expect("flight lock").current == 0 {
                break;
            }
            match ctx.rx.recv_timeout(idle_wait) {
                Ok(msg) => {
                    idle_wait = idle_min;
                    handle_msg(
                        msg,
                        &ctx,
                        &mut active,
                        &mut pool,
                        &mut summary,
                        &mut draining,
                    );
                }
                Err(RecvTimeoutError::Timeout) => {
                    summary.idle_wakeups += 1;
                    idle_wait = (idle_wait * 2).min(idle_max);
                }
                Err(RecvTimeoutError::Disconnected) => draining = true,
            }
            continue;
        };
        idle_wait = idle_min;

        // One tick: a burst of rounds, preemptible only at its end.
        let mut ran = 0;
        while ran < ctx.cfg.tick_rounds && !job.state.is_done() {
            let t0 = Instant::now();
            job.state.step();
            summary.round_ns.push(t0.elapsed().as_nanos() as u64);
            ran += 1;
        }
        summary.ticks += 1;
        // Batched telemetry: one sink flush per shard tick, not per round.
        job.tel.drain_events_jsonl_into(&mut job.log);
        job.ticks_since_snap += 1;

        if job.state.is_done() {
            complete(job, &ctx, &mut pool);
            summary.jobs_completed += 1;
        } else if let Some(target) = migration_target(&ctx, active.len(), &mut rng) {
            migrate_out(job, target, &ctx, &mut pool, &mut summary);
        } else {
            // Periodic durability point: snapshot at the configured tick
            // cadence and commit at this tick boundary. Snapshotting
            // mid-run is bit-invisible (`TrainerState::snapshot`
            // materializes pending state exactly as the next step would).
            if ctx.journal.is_some()
                && ctx.cfg.snapshot_every_ticks > 0
                && job.ticks_since_snap >= ctx.cfg.snapshot_every_ticks
            {
                journal_snapshot(&mut job, &ctx);
            }
            active.push_back(job);
        }
        journal_commit(&ctx);
    }

    summary.pool = pool.stats();
    summary.pooled_at_exit = pool.pooled();
    summary
}

fn handle_msg(
    msg: ShardMsg,
    ctx: &ShardCtx,
    active: &mut VecDeque<ActiveJob>,
    pool: &mut WorkspacePool,
    summary: &mut ShardSummary,
    draining: &mut bool,
) {
    match msg {
        ShardMsg::Admit(spec) => {
            let job = admit(*spec, ctx.shard, pool);
            active.push_back(job);
        }
        ShardMsg::MigrateIn(mj) => {
            let job = land_migration(*mj, ctx.shard, pool, summary);
            active.push_back(job);
        }
        ShardMsg::Restore(resume) => {
            let job = land_restore(*resume, ctx.shard, pool);
            active.push_back(job);
        }
        ShardMsg::Drain => *draining = true,
        ShardMsg::Wake => {}
    }
}

/// Captures `job` at this round boundary as the record that resumes it
/// bit-exactly in a fresh process, carrying `log`.
pub(crate) fn snapshot_record(job: &mut ActiveJob, shard: usize, log: String) -> JournalRecord {
    let snapshot = job.state.snapshot();
    job.ticks_since_snap = 0;
    JournalRecord::Snapshot(SnapshotRecord {
        name: job.spec.name.clone(),
        shard,
        migrations: job.migrations,
        round: snapshot.round,
        tel_seq: job.tel.seq_floor(),
        snapshot_json: snapshot.to_json(),
        log,
    })
}

/// Appends a snapshot record for `job` to the shard's journal.
fn journal_snapshot(job: &mut ActiveJob, ctx: &ShardCtx) {
    let Some(journal) = &ctx.journal else { return };
    // The trainer's clone and the checkpoint frame (`snapshot`, `to_json`)
    // are built outside the journal lock the shards share; `append` encodes
    // and seals the record under it, because the record's `seq` — the next
    // one the writer hands out — is inside the CRC'd body.
    let log = job.log.clone();
    let record = snapshot_record(job, ctx.shard, log);
    journal
        .lock()
        .expect("journal lock")
        .append(&record)
        .expect("journal-representable snapshot");
}

/// Commits (writes + fsyncs) everything shards appended this tick.
fn journal_commit(ctx: &ShardCtx) {
    if let Some(journal) = &ctx.journal {
        journal
            .lock()
            .expect("journal lock")
            .commit()
            .expect("journal commit");
    }
}

/// Builds a fresh job, adopting a pooled workspace when one fits.
pub(crate) fn admit(spec: JobSpec, shard: usize, pool: &mut WorkspacePool) -> ActiveJob {
    let tel = Telemetry::recording();
    let cfg = spec.to_train_config(tel.clone());
    let mut state = TrainerState::new(&cfg);
    let key = WorkspaceKey::new(state.model_dim(), spec.topology);
    if let Some(handle) = pool.checkout(key) {
        state.adopt_workspace(handle);
    }
    ActiveJob {
        spec,
        state,
        tel,
        log: String::new(),
        shard_path: vec![shard],
        migrations: 0,
        ticks_since_snap: 0,
    }
}

/// Rebuilds a crash-recovered job from its journaled snapshot: a fresh
/// telemetry sink with the journaled sequence floor restored, so the hop
/// events of the resumed rounds continue the dead process's absolute
/// numbering and the concatenated log stays byte-identical to an
/// uninterrupted run.
pub(crate) fn land_restore(resume: ResumeJob, shard: usize, pool: &mut WorkspacePool) -> ActiveJob {
    let tel = Telemetry::recording();
    tel.restore_seq_floor(resume.tel_seq);
    let cfg = resume.spec.to_train_config(tel.clone());
    let snapshot = TrainSnapshot::from_json(&resume.snapshot_json)
        .expect("journaled snapshot is CRC-guarded and must parse");
    let mut state = TrainerState::restore(&cfg, &snapshot);
    let key = WorkspaceKey::new(state.model_dim(), resume.spec.topology);
    if let Some(handle) = pool.checkout(key) {
        state.adopt_workspace(handle);
    }
    ActiveJob {
        spec: resume.spec,
        state,
        tel,
        log: resume.log,
        shard_path: vec![shard],
        migrations: resume.migrations,
        ticks_since_snap: 0,
    }
}

/// Restores a migrated-in job from its snapshot, timing the restore side.
fn land_migration(
    mj: MigratingJob,
    shard: usize,
    pool: &mut WorkspacePool,
    summary: &mut ShardSummary,
) -> ActiveJob {
    let cfg = mj.spec.to_train_config(mj.tel.clone());
    let t0 = Instant::now();
    let snapshot = TrainSnapshot::from_json(&mj.snapshot_json).expect("valid migration snapshot");
    let mut state = TrainerState::restore(&cfg, &snapshot);
    let restore_ns = t0.elapsed().as_nanos() as u64;
    let key = WorkspaceKey::new(state.model_dim(), mj.spec.topology);
    if let Some(handle) = pool.checkout(key) {
        state.adopt_workspace(handle);
    }
    summary.migrations_in.push(MigrationSample {
        snapshot_ns: mj.snapshot_ns,
        restore_ns,
        snapshot_bytes: mj.snapshot_json.len(),
    });
    let mut shard_path = mj.shard_path;
    shard_path.push(shard);
    ActiveJob {
        spec: mj.spec,
        state,
        tel: mj.tel,
        log: mj.log,
        shard_path,
        migrations: mj.migrations + 1,
        ticks_since_snap: 0,
    }
}

/// Finishes a job: returns its workspace to the pool, emits the outcome,
/// and updates the shared in-flight accounting.
fn complete(mut job: ActiveJob, ctx: &ShardCtx, pool: &mut WorkspacePool) {
    let key = WorkspaceKey::new(job.state.model_dim(), job.spec.topology);
    if let Some(handle) = job.state.release_workspace() {
        pool.checkin(key, handle);
    }
    let report = job.state.finish();
    job.tel.drain_events_jsonl_into(&mut job.log);
    if let Some(journal) = &ctx.journal {
        journal
            .lock()
            .expect("journal lock")
            .append(&JournalRecord::Outcome(OutcomeRecord {
                name: job.spec.name.clone(),
                migrations: job.migrations,
                shard_path: job.shard_path.clone(),
                report_debug: report_fingerprint(&report),
                log: job.log.clone(),
            }))
            .expect("journal-representable outcome");
    }
    let last_in_flight = {
        let mut flight = ctx.flight.lock().expect("flight lock");
        let current = flight.current;
        flight.at_completion.push(current);
        flight.current -= 1;
        flight.per_shard[ctx.shard] -= 1;
        flight.current == 0
    };
    ctx.results
        .send(JobOutcome {
            spec: job.spec,
            report,
            log: job.log,
            shard_path: job.shard_path,
            migrations: job.migrations,
        })
        .expect("results receiver alive");
    if last_in_flight {
        // Idle peers learn of an empty server by waking up, and the handle
        // dropping its senders disconnects nobody while peers hold clones.
        // (`peers` includes this shard, which drops its own wake unread or
        // as a no-op; a peer that already exited needs none.)
        for peer in &ctx.peers {
            peer.send(ShardMsg::Wake).ok();
        }
    }
}

/// Decides whether (and where) to migrate the job just preempted.
/// Migration stays enabled while draining — shards outlive every in-flight
/// job, so a migrating job always finds a live receiver (and the send-error
/// fallback recovers locally if not).
fn migration_target(ctx: &ShardCtx, resident_after: usize, rng: &mut FastRng) -> Option<usize> {
    if ctx.cfg.shards < 2 {
        return None;
    }
    match ctx.cfg.migration {
        MigrationPolicy::None => None,
        MigrationPolicy::LoadBalance { skew } => {
            let flight = ctx.flight.lock().expect("flight lock");
            let (target, &min_load) = flight
                .per_shard
                .iter()
                .enumerate()
                .min_by_key(|(_, &n)| n)?;
            // `resident_after` excludes the preempted job itself.
            if target != ctx.shard && resident_after + 1 >= min_load + skew.max(1) {
                Some(target)
            } else {
                None
            }
        }
        MigrationPolicy::Seeded { per_mille, .. } => {
            if rng.next_range(1000) < u64::from(per_mille) {
                let pick = rng.next_range(ctx.cfg.shards as u64 - 1) as usize;
                let target = if pick >= ctx.shard { pick + 1 } else { pick };
                Some(target)
            } else {
                None
            }
        }
    }
}

/// Snapshots a job and ships it to `target`. The workspace stays in this
/// shard's pool (capacity is shard-local); the snapshot carries all live
/// state. If the target already drained, the job is restored locally —
/// the same code path as crash recovery from a written snapshot.
fn migrate_out(
    mut job: ActiveJob,
    target: usize,
    ctx: &ShardCtx,
    pool: &mut WorkspacePool,
    summary: &mut ShardSummary,
) {
    let key = WorkspaceKey::new(job.state.model_dim(), job.spec.topology);
    if let Some(handle) = job.state.release_workspace() {
        pool.checkin(key, handle);
    }
    let t0 = Instant::now();
    let snapshot = job.state.snapshot();
    let snapshot_json = snapshot.to_json();
    let snapshot_ns = t0.elapsed().as_nanos() as u64;
    // The migration hand-off doubles as a durability point: the snapshot
    // and the move are journaled before the job leaves this shard, so a
    // crash mid-migration resumes from exactly these bytes.
    if let Some(journal) = &ctx.journal {
        let mut journal = journal.lock().expect("journal lock");
        journal
            .append(&JournalRecord::Snapshot(SnapshotRecord {
                name: job.spec.name.clone(),
                shard: ctx.shard,
                migrations: job.migrations,
                round: snapshot.round,
                tel_seq: job.tel.seq_floor(),
                snapshot_json: snapshot_json.clone(),
                log: job.log.clone(),
            }))
            .expect("journal-representable snapshot");
        journal
            .append(&JournalRecord::Migrate {
                name: job.spec.name.clone(),
                from: ctx.shard,
                to: target,
            })
            .expect("journal-representable migration");
    }
    drop(job.state);
    {
        let mut flight = ctx.flight.lock().expect("flight lock");
        flight.per_shard[ctx.shard] -= 1;
        flight.per_shard[target] += 1;
    }
    let mj = Box::new(MigratingJob {
        spec: job.spec,
        snapshot_json,
        tel: job.tel,
        log: job.log,
        shard_path: job.shard_path,
        migrations: job.migrations,
        snapshot_ns,
    });
    summary.migrations_out += 1;
    if let Err(std::sync::mpsc::SendError(msg)) = ctx.peers[target].send(ShardMsg::MigrateIn(mj)) {
        // Target shard already exited: recover from the written snapshot
        // locally. This is exactly the crash-mid-migration path.
        let ShardMsg::MigrateIn(mj) = msg else {
            unreachable!("we sent a MigrateIn")
        };
        {
            let mut flight = ctx.flight.lock().expect("flight lock");
            flight.per_shard[target] -= 1;
            flight.per_shard[ctx.shard] += 1;
        }
        let job = land_migration(*mj, ctx.shard, pool, summary);
        finish_locally(job, ctx, pool, summary);
    }
}

/// Runs a locally-recovered job to completion. Recovery only happens when
/// the target shard has already drained, so interleaving is over anyway.
fn finish_locally(
    mut job: ActiveJob,
    ctx: &ShardCtx,
    pool: &mut WorkspacePool,
    summary: &mut ShardSummary,
) {
    while !job.state.is_done() {
        let t0 = Instant::now();
        job.state.step();
        summary.round_ns.push(t0.elapsed().as_nanos() as u64);
    }
    job.tel.drain_events_jsonl_into(&mut job.log);
    complete(job, ctx, pool);
    summary.jobs_completed += 1;
}

/// Runs `spec` alone — no scheduler, no pooling, no migration — and
/// returns the reference outcome scheduled runs must match bit-for-bit.
#[must_use]
pub fn run_solo(spec: &JobSpec) -> JobOutcome {
    let tel = Telemetry::recording();
    let cfg = spec.to_train_config(tel.clone());
    let mut state = TrainerState::new(&cfg);
    while !state.is_done() {
        state.step();
    }
    let report = state.finish();
    let mut log = String::new();
    tel.drain_events_jsonl_into(&mut log);
    JobOutcome {
        spec: spec.clone(),
        report,
        log,
        shard_path: Vec::new(),
        migrations: 0,
    }
}

/// A stable fingerprint of a training report (full `Debug` rendering, which
/// covers every field bit-for-bit via exact float formatting).
#[must_use]
pub fn report_fingerprint(report: &TrainReport) -> String {
    format!("{report:?}")
}

/// Checks a scheduled outcome against a fresh solo run of the same spec.
///
/// Passing means the scheduler provably did not perturb this job: the final
/// report and the full telemetry byte stream are identical to a run that
/// never shared a thread, never adopted a pooled workspace, and never
/// migrated.
///
/// # Errors
///
/// Returns which artifact diverged (report or telemetry log).
pub fn verify_outcome(outcome: &JobOutcome) -> Result<(), String> {
    let solo = run_solo(&outcome.spec);
    if report_fingerprint(&outcome.report) != report_fingerprint(&solo.report) {
        return Err(format!(
            "job {}: scheduled report diverged from solo run\n  scheduled: {:?}\n  solo:      {:?}",
            outcome.spec.name, outcome.report, solo.report
        ));
    }
    if outcome.log != solo.log {
        let (a, b) = first_log_divergence(&outcome.log, &solo.log);
        return Err(format!(
            "job {}: scheduled telemetry log diverged from solo run at line {a}:\n  {b}",
            outcome.spec.name
        ));
    }
    Ok(())
}

fn first_log_divergence(scheduled: &str, solo: &str) -> (usize, String) {
    for (i, (a, b)) in scheduled.lines().zip(solo.lines()).enumerate() {
        if a != b {
            return (i + 1, format!("scheduled: {a}\n  solo:      {b}"));
        }
    }
    let (n_sched, n_solo) = (scheduled.lines().count(), solo.lines().count());
    (
        n_sched.min(n_solo) + 1,
        format!("line counts differ: scheduled {n_sched} vs solo {n_solo}"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use marsit_models::Workload;
    use marsit_simnet::Topology;

    fn tiny(name: &str, seed: u64) -> JobSpec {
        let mut spec = JobSpec::new(name, Workload::AlexNetMnist, Topology::ring(4));
        spec.rounds = 8;
        spec.seed = seed;
        spec.train_examples = 128;
        spec.test_examples = 32;
        spec
    }

    #[test]
    fn single_job_matches_solo_run() {
        let mut handle = JobServer::start(ServeConfig::new(1));
        handle.submit(tiny("only", 3));
        let report = handle.finish();
        assert_eq!(report.outcomes.len(), 1);
        verify_outcome(&report.outcomes[0]).expect("bit-exact");
    }

    #[test]
    fn many_jobs_on_few_shards_all_match_solo() {
        let mut cfg = ServeConfig::new(2);
        cfg.tick_rounds = 3;
        let mut handle = JobServer::start(cfg);
        for i in 0..5 {
            handle.submit(tiny(&format!("j{i}"), 10 + i));
        }
        let report = handle.finish();
        assert_eq!(report.outcomes.len(), 5);
        assert!(report.peak_in_flight >= 2);
        for outcome in &report.outcomes {
            verify_outcome(outcome).expect("bit-exact");
        }
        // Every finishing job returns its workspace to the shard pool.
        assert!(
            report.pool_stats().returns >= 1,
            "{:?}",
            report.pool_stats()
        );
    }

    #[test]
    fn later_submission_adopts_pooled_workspace() {
        let mut handle = JobServer::start(ServeConfig::new(1));
        handle.submit(tiny("first", 5));
        while handle.completed() < 1 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        handle.submit(tiny("second", 6));
        let report = handle.finish();
        let stats = report.pool_stats();
        assert!(
            stats.hits >= 1,
            "second job should adopt warm workspace: {stats:?}"
        );
        for outcome in &report.outcomes {
            verify_outcome(outcome).expect("bit-exact with warm adoption");
        }
    }

    #[test]
    fn seeded_migration_preserves_bit_exactness() {
        let mut cfg = ServeConfig::new(3);
        cfg.tick_rounds = 2;
        cfg.migration = MigrationPolicy::Seeded {
            seed: 7,
            per_mille: 700,
        };
        let mut handle = JobServer::start(cfg);
        for i in 0..4 {
            let mut spec = tiny(&format!("m{i}"), 20 + i);
            spec.rounds = 10;
            handle.submit(spec);
        }
        let report = handle.finish();
        let migrations: u32 = report.outcomes.iter().map(|o| o.migrations).sum();
        assert!(migrations >= 1, "seeded policy at 70% should migrate");
        assert!(!report.migration_samples().is_empty());
        for outcome in &report.outcomes {
            verify_outcome(outcome).expect("bit-exact across migration");
        }
    }

    #[test]
    fn load_balance_policy_moves_work_off_hot_shards() {
        let mut cfg = ServeConfig::new(2);
        cfg.tick_rounds = 2;
        cfg.migration = MigrationPolicy::LoadBalance { skew: 1 };
        let mut handle = JobServer::start(cfg);
        for i in 0..6 {
            let mut spec = tiny(&format!("lb{i}"), 40 + i);
            spec.rounds = 12;
            handle.submit(spec);
        }
        let report = handle.finish();
        for outcome in &report.outcomes {
            verify_outcome(outcome).expect("bit-exact under load balancing");
        }
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let sorted = vec![10, 20, 30, 40];
        assert_eq!(quantile_ns(&sorted, 0.5), 20);
        assert_eq!(quantile_ns(&sorted, 0.99), 40);
        assert_eq!(quantile_ns(&[], 0.5), 0);
    }
}
