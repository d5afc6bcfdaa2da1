//! Marsit-as-a-service: a sharded multi-job scheduler.
//!
//! This crate turns the single-run training simulator into a job server.
//! Clients submit [`JobSpec`]s (model proxy, topology, full-precision
//! period `K`, fault plan, seed, round budget); the [`JobServer`] shards
//! them across a fixed pool of worker threads, each of which owns its jobs
//! and drives them round-by-round through the step API so any job can be
//! preempted — or migrated to another shard — at a round boundary.
//!
//! Serving throughput comes from three mechanisms, none of which is allowed
//! to change a single output bit:
//!
//! - **Workspace pools** ([`WorkspacePool`]): round workspaces released by
//!   finishing jobs are adopted by the next job of the same shape
//!   (keyed by model dimension, worker count, and topology class).
//! - **Batched telemetry**: one sink flush per shard tick, not per
//!   job-round; drained bytes are cadence-independent.
//! - **Snapshot migration**: jobs move between shards as serialized
//!   deterministic snapshots; restore is bit-exact and adds no log events.
//!
//! The hard guarantee — asserted by [`verify_outcome`], the scheduler unit
//! tests, the `tests/service.rs` proptests and `tests/service_recovery.rs` — is
//! that every job's final report and telemetry log are byte-identical to a
//! solo run of the same spec on a dedicated thread.

pub mod admission;
pub mod journal;
pub mod pool;
pub mod scheduler;
pub mod spec;
pub mod supervisor;

pub use admission::{AdmissionController, AdmissionError, TenantQuota};
pub use journal::{
    encode_record, plan_from_replay, replay_bytes, replay_file, verify_recovered, JournalError,
    JournalRecord, JournalWriter, OutcomeRecord, RecoveredOutcome, Replay, ReplayState, ResumeJob,
    ResumePlan, Scanner, SnapshotRecord,
};
pub use pool::{PoolStats, TopologyClass, WorkspaceKey, WorkspacePool};
pub use scheduler::{
    quantile_ns, report_fingerprint, run_solo, verify_outcome, JobOutcome, JobServer,
    MigrationPolicy, MigrationSample, ServeConfig, ServeReport, ServerHandle, ShardSummary,
};
pub use spec::{parse_queue, JobSpec, QueueDiagnostic, DEFAULT_TENANT};
pub use supervisor::{
    shard_worker_main, SupervisorConfig, SupervisorError, SupervisorHandle, SupervisorReport,
    SHARD_WORKER_MODE,
};
