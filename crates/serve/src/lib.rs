//! Marsit-as-a-service: a sharded multi-job server.
//!
//! Clients submit [`JobSpec`]s (model proxy, topology, full-precision
//! period `K`, fault plan, seed, round budget); a [`JobServer`]'s controller
//! places them on shards — threads, or subprocesses behind localhost TCP —
//! that drive them round-by-round, so any job can be preempted or migrated
//! at a tick boundary. Workspace pools ([`WorkspacePool`]), one telemetry
//! flush per tick and bit-exact snapshot migration keep traffic cheap
//! without changing a single output bit: every job's final report and
//! telemetry log are byte-identical to a solo run of the same spec
//! ([`verify_outcome`], the `tests/service.rs` proptests and
//! `tests/service_recovery.rs`), across crashes too ([`journal`]).

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
    MigrationPolicy, MigrationSample, ProcessShards, ServeConfig, ServeError, ServeReport,
    ServerHandle, ShardSummary,
};
pub use spec::{parse_queue, JobSpec, QueueDiagnostic, DEFAULT_TENANT};
pub use supervisor::{shard_worker_main, SHARD_WORKER_MODE};
