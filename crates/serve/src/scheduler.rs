//! The job server's public face: its configuration, the handle clients
//! submit through, and the report it returns. A [`JobServer`] is one
//! controller thread and a fixed set of shards that drive their jobs
//! round-by-round through the [`TrainerState`] step API (see
//! [`crate::supervisor`]); [`verify_outcome`] checks that serving changed
//! no byte of a job's report or telemetry log.

use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use marsit_telemetry::Telemetry;
use marsit_trainsim::{TrainReport, TrainerState};

use crate::admission::{AdmissionController, AdmissionError};
use crate::journal::{JournalRecord, JournalWriter, RecoveredOutcome, ResumeJob, SnapshotRecord};
use crate::pool::PoolStats;
use crate::spec::JobSpec;
use crate::supervisor::{controller_main, Event, Events};

/// Shared handle to the submission journal: the server handle appends each
/// accepted submission, the controller everything else.
pub(crate) type Journal = Arc<Mutex<JournalWriter>>;

/// How the controller decides to move a running job to another shard. It
/// is evaluated at every tick boundary a shard reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationPolicy {
    /// Never migrate.
    None,
    /// After each tick, move the job off any shard hosting at least `skew`
    /// more jobs than the least-loaded other shard.
    LoadBalance {
        /// Minimum load imbalance (in jobs) that triggers a migration.
        skew: usize,
    },
    /// After each tick, migrate with probability `per_mille`/1000 to a
    /// seeded-random other shard. Exists to let tests and the bench drive
    /// the migration path hard under a reproducible schedule.
    Seeded {
        /// Seed for the controller's migration RNG stream.
        seed: u64,
        /// Migration probability per tick, in thousandths.
        per_mille: u32,
    },
}

/// Server configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeConfig {
    /// Number of shards.
    pub shards: usize,
    /// Rounds a shard runs on one job before rotating to the next
    /// (the preemption quantum).
    pub tick_rounds: usize,
    /// Workspace-pool capacity per shape key, per shard.
    pub pool_cap_per_key: usize,
    /// Migration policy.
    pub migration: MigrationPolicy,
    /// Each in-flight job pushes a durability snapshot every this many of
    /// its ticks (0 = never) when anything needs one: a journal, or process
    /// shards. An unjournaled server of thread shards takes none.
    pub snapshot_every_ticks: usize,
    /// `Some`: every shard is a subprocess behind a localhost TCP link,
    /// restarted when it dies. `None`: every shard is a thread.
    pub processes: Option<ProcessShards>,
}

impl ServeConfig {
    /// A server with `shards` thread shards and serving defaults
    /// (4-round ticks, pool capacity 4, no migration, a snapshot every 4
    /// ticks when anything needs one).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: shards.max(1),
            tick_rounds: 4,
            pool_cap_per_key: 4,
            migration: MigrationPolicy::None,
            snapshot_every_ticks: 4,
            processes: None,
        }
    }
}

/// The settings only process shards have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessShards {
    /// Shard-worker executable (`None` = the current executable), started
    /// as `<bin> --shard-worker --addr <hub> --shard N …`.
    pub worker_bin: Option<PathBuf>,
    /// Restart budget per shard before its jobs are reassigned for good.
    pub max_restarts_per_shard: u32,
    /// First restart delay; doubles per consecutive restart of the same
    /// shard, up to 2 s.
    pub backoff_base_ms: u64,
}

impl Default for ProcessShards {
    /// The current executable, 5 restarts per shard, 50 ms → 2 s backoff.
    fn default() -> Self {
        Self {
            worker_bin: None,
            max_restarts_per_shard: 5,
            backoff_base_ms: 50,
        }
    }
}

/// Typed serving failures: why a server stopped before every job finished.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// A socket, thread or journal operation failed.
    Io(String),
    /// A shard could not be started.
    Spawn(String),
    /// A shard died for good: a thread shard (a panic), or a process shard
    /// out of restarts with no live peer to take its jobs.
    ShardUnrecoverable {
        /// The shard.
        shard: usize,
        /// Restarts attempted.
        restarts: u32,
    },
    /// A shard sent a message the protocol does not allow.
    Protocol(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "serving I/O error: {e}"),
            Self::Spawn(e) => write!(f, "cannot start shard: {e}"),
            Self::ShardUnrecoverable { shard, restarts } => {
                write!(f, "shard {shard} died for good after {restarts} restarts")
            }
            Self::Protocol(e) => write!(f, "serving protocol violation: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e.to_string())
    }
}

/// Locks the journal. A writer that panicked mid-append may hold half a
/// record: serving stops rather than write after it.
pub(crate) fn lock(journal: &Journal) -> Result<MutexGuard<'_, JournalWriter>, ServeError> {
    journal
        .lock()
        .map_err(|_| ServeError::Io("a journal writer panicked".to_string()))
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

/// Per-shard accounting, produced by the shard loop.
#[derive(Debug, Default)]
pub struct ShardSummary {
    /// Shard index.
    pub shard: usize,
    /// Ticks executed.
    pub ticks: u64,
    /// Wall-clock nanoseconds of every round stepped on this shard.
    pub round_ns: Vec<u64>,
    /// Workspace-pool counters.
    pub pool: PoolStats,
    /// Migrations that landed on this shard (timed end-to-end).
    pub migrations_in: Vec<MigrationSample>,
    /// Times the shard woke from its blocking wait to a message that
    /// brought no work (an eviction request for a job already finished).
    pub idle_wakeups: u64,
}

/// The aggregate result of a serve session.
#[derive(Debug, Default)]
pub struct ServeReport {
    /// Jobs finished on thread shards, sorted by name.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs finished on process shards, sorted by name, reports as
    /// fingerprints (verify with [`crate::verify_recovered`]).
    pub remote_outcomes: Vec<RecoveredOutcome>,
    /// Per-shard accounting of thread shards (a process shard's stays in
    /// its process).
    pub shards: Vec<ShardSummary>,
    /// Peak number of jobs in flight at once.
    pub peak_in_flight: usize,
    /// Shard deaths observed (a connection or thread that ended unasked).
    pub shard_deaths: u64,
    /// Shard restarts performed.
    pub restarts: u64,
    /// Why the server stopped early, if it did; jobs it had not finished
    /// have no outcome.
    pub failure: Option<ServeError>,
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

/// A running job server. Dropping the handle without calling
/// [`ServerHandle::finish`] lets the server finish its jobs and stop on its
/// own; finish to collect outcomes and summaries.
pub struct ServerHandle {
    events: Events,
    /// The tenant of each job that finished, in completion order.
    done: Receiver<String>,
    controller: Option<JoinHandle<ServeReport>>,
    journal: Option<Journal>,
    admission: Option<AdmissionController>,
    pids: Arc<[AtomicU32]>,
    completed: usize,
    /// The first failure seen on this side: the controller thread would
    /// not start, or the journal refused a submission.
    failure: Option<ServeError>,
}

/// The job server entry point.
pub struct JobServer;

impl JobServer {
    /// Starts the controller and its shards and returns a handle for
    /// submissions.
    #[must_use]
    pub fn start(cfg: ServeConfig) -> ServerHandle {
        Self::start_inner(cfg, None)
    }

    /// Starts the server with a submission journal: every accepted spec is
    /// committed (written + fsynced) before it is dispatched, and the
    /// controller journals periodic and pre-migration snapshots plus final
    /// outcomes, committing as it files them. A `kill -9` at any instant
    /// leaves a journal whose replay resumes every job bit-exactly (see
    /// [`crate::journal`]).
    #[must_use]
    pub fn start_journaled(cfg: ServeConfig, journal: Journal) -> ServerHandle {
        Self::start_inner(cfg, Some(journal))
    }

    fn start_inner(cfg: ServeConfig, journal: Option<Journal>) -> ServerHandle {
        let (events, inbox) = Events::new(&cfg);
        let (done_tx, done) = std::sync::mpsc::channel();
        let pids: Arc<[AtomicU32]> = (0..cfg.shards).map(|_| AtomicU32::new(0)).collect();
        let spawned = {
            let (events, journal, pids) = (events.clone(), journal.clone(), Arc::clone(&pids));
            std::thread::Builder::new()
                .name("marsit-controller".to_string())
                .spawn(move || controller_main(cfg, events, inbox, journal, &done_tx, &pids))
        };
        let failure = spawned
            .as_ref()
            .err()
            .map(|e| ServeError::Io(e.to_string()));
        let controller = spawned.ok();
        ServerHandle {
            events,
            done,
            controller,
            journal,
            admission: None,
            pids,
            completed: 0,
            failure,
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
    /// returns; a submission the journal refuses is not served, and
    /// [`Self::finish`] reports why. Names must be unique among jobs in
    /// flight: the journal and the controller key jobs by name.
    pub fn submit(&mut self, spec: JobSpec) {
        if let Some(journal) = &self.journal {
            let durable = lock(journal).and_then(|mut journal| {
                journal
                    .append(&JournalRecord::Submit { spec: spec.clone() })
                    .map_err(|e| ServeError::Io(e.to_string()))?;
                Ok(journal.commit()?)
            });
            if let Err(e) = durable {
                self.failure.get_or_insert(e);
                return;
            }
        }
        // A controller that has stopped takes no more; `finish` says why.
        self.events.send(Event::Submit(spec, None));
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
        self.completed();
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
        let snap = SnapshotRecord {
            name: resume.spec.name.clone(),
            shard: 0,
            migrations: resume.migrations,
            round: 0,
            tel_seq: resume.tel_seq,
            snapshot_json: resume.snapshot_json,
            log: resume.log,
        };
        self.events.send(Event::Submit(resume.spec, Some(snap)));
    }

    /// Jobs finished so far. Releases the admission slots of jobs that
    /// finished since the last call; never blocks.
    pub fn completed(&mut self) -> usize {
        while let Ok(tenant) = self.done.try_recv() {
            if let Some(admission) = &mut self.admission {
                admission.on_complete(&tenant);
            }
            self.completed += 1;
        }
        self.completed
    }

    /// OS pid of process shard `shard`'s current subprocess (`None` while
    /// it is down, and always for thread shards) — lets the recovery tests
    /// SIGKILL one shard mid-storm.
    #[must_use]
    pub fn shard_pid(&self, shard: usize) -> Option<u32> {
        let pid = self.pids.get(shard)?.load(Ordering::Relaxed);
        (pid != 0).then_some(pid)
    }

    /// Drains the server: waits for every submitted job to finish, stops
    /// the shards, and returns the aggregate report.
    #[must_use]
    pub fn finish(mut self) -> ServeReport {
        self.events.send(Event::Finish);
        let mut report = match self.controller.take().map(JoinHandle::join) {
            Some(Ok(report)) => report,
            Some(Err(panic)) => std::panic::resume_unwind(panic),
            None => ServeReport::default(),
        };
        if let Some(failure) = self.failure.take() {
            report.failure.get_or_insert(failure);
        }
        report
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.events.send(Event::Finish);
    }
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
