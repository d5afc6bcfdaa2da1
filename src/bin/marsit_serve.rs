//! Marsit-as-a-service front end.
//!
//! Reads a submission queue of job-spec lines (one `key=value` line per
//! job — see `JobSpec::parse_line`) from a file or stdin, serves them
//! through the job server (one controller, one shard loop per shard), and
//! prints one summary row per finished job plus server-level throughput,
//! pool, migration and shard-death counters.
//!
//! ```text
//! cargo run --release --bin marsit_serve -- jobs.txt \
//!     [--shards N] [--tick ROUNDS] [--migrate none|balance|seeded:SEED:PERMILLE] \
//!     [--journal PATH] [--snapshot-every TICKS] \
//!     [--quota TENANT:JOBS:BUDGET:PER_SEC]... [--max-in-flight N] \
//!     [--supervise] [--verify] [--out PATH]
//! ```
//!
//! `--journal PATH` makes serving crash-safe: every accepted submission,
//! periodic job snapshot, migration, and outcome is appended to a durable
//! journal of binary records (fsynced as the controller files them). If PATH
//! already holds a journal — say, because the previous server was
//! `kill -9`ed mid-storm — the server replays it first, reports finished
//! jobs without re-running them, resumes in-flight jobs from their last
//! snapshots, and restarts never-snapshotted jobs from scratch. A PATH
//! that holds anything else (another format version, not a journal) is
//! refused with exit code 1 and left untouched.
//!
//! `--supervise` only picks the link: each shard runs the same loop in a
//! subprocess behind localhost TCP (restarted with backoff if it dies)
//! instead of on a thread. Everything else — admission, journal,
//! migration, verification — is one path.
//!
//! `--verify` re-runs every job solo after serving and hard-fails unless
//! the served report and telemetry log are byte-identical — the bit-
//! exactness guarantee, checked end to end, including across crashes.
//!
//! Exit codes: 0 success; 2 malformed queue (one diagnostic per bad line
//! on stderr); 3 jobs permanently rejected by admission control; 4 bit-
//! exactness violation under `--verify`; 1 anything else.

use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use marsit::serve::{
    parse_queue, quantile_ns, replay_file, shard_worker_main, verify_outcome, verify_recovered,
    AdmissionController, AdmissionError, JobServer, JobSpec, JournalWriter, MigrationPolicy,
    ProcessShards, RecoveredOutcome, ServeConfig, TenantQuota, SHARD_WORKER_MODE,
};

const EXIT_OK: i32 = 0;
const EXIT_FAIL: i32 = 1;
const EXIT_BAD_QUEUE: i32 = 2;
const EXIT_REJECTED: i32 = 3;
const EXIT_VIOLATION: i32 = 4;

/// Everything that can end the run early, with its exit code.
struct CliError {
    message: String,
    code: i32,
}

impl CliError {
    fn fail(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            code: EXIT_FAIL,
        }
    }
}

fn parse_migration(value: &str) -> Result<MigrationPolicy, String> {
    if value == "none" {
        return Ok(MigrationPolicy::None);
    }
    if value == "balance" {
        return Ok(MigrationPolicy::LoadBalance { skew: 2 });
    }
    if let Some(rest) = value.strip_prefix("seeded:") {
        let (seed, per_mille) = rest
            .split_once(':')
            .ok_or_else(|| format!("bad --migrate (expected seeded:SEED:PERMILLE): {value}"))?;
        let seed = seed.parse().map_err(|_| format!("bad seed: {seed}"))?;
        let per_mille = per_mille
            .parse()
            .map_err(|_| format!("bad per-mille: {per_mille}"))?;
        return Ok(MigrationPolicy::Seeded { seed, per_mille });
    }
    Err(format!(
        "unknown --migrate policy (none|balance|seeded:SEED:PERMILLE): {value}"
    ))
}

/// `TENANT:JOBS:BUDGET:PER_SEC` — e.g. `team-a:4:200:10` caps tenant
/// `team-a` at 4 concurrent jobs, a 200-round token bucket refilled at
/// 10 rounds/s.
fn parse_quota(value: &str) -> Result<(String, TenantQuota), String> {
    let parts: Vec<&str> = value.split(':').collect();
    let [tenant, jobs, budget, per_sec] = parts[..] else {
        return Err(format!(
            "bad --quota (expected TENANT:JOBS:BUDGET:PER_SEC): {value}"
        ));
    };
    if tenant.is_empty() {
        return Err(format!("bad --quota (empty tenant): {value}"));
    }
    let max_in_flight = jobs
        .parse()
        .map_err(|_| format!("bad --quota job cap: {jobs}"))?;
    let round_budget = budget
        .parse()
        .map_err(|_| format!("bad --quota round budget: {budget}"))?;
    let rounds_per_sec = per_sec
        .parse()
        .map_err(|_| format!("bad --quota refill rate: {per_sec}"))?;
    Ok((
        tenant.to_string(),
        TenantQuota {
            max_in_flight,
            round_budget,
            rounds_per_sec,
        },
    ))
}

struct Options {
    input: Option<String>,
    shards: usize,
    tick: usize,
    migration: MigrationPolicy,
    verify: bool,
    out_path: Option<String>,
    journal_path: Option<PathBuf>,
    snapshot_every: usize,
    quotas: Vec<(String, TenantQuota)>,
    max_in_flight: Option<usize>,
    supervise: bool,
}

#[allow(clippy::too_many_lines)]
fn parse_options(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options {
        input: None,
        shards: 4,
        tick: 4,
        migration: MigrationPolicy::None,
        verify: false,
        out_path: None,
        journal_path: None,
        snapshot_every: 4,
        quotas: Vec::new(),
        max_in_flight: None,
        supervise: false,
    };
    let mut i = 0;
    let value = |args: &[String], i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError::fail(format!("{flag} needs a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--shards" => {
                let v = value(args, &mut i, "--shards")?;
                opts.shards = v
                    .parse()
                    .map_err(|_| CliError::fail(format!("bad --shards: {v}")))?;
            }
            "--tick" => {
                let v = value(args, &mut i, "--tick")?;
                opts.tick = v
                    .parse()
                    .map_err(|_| CliError::fail(format!("bad --tick: {v}")))?;
            }
            "--migrate" => {
                let v = value(args, &mut i, "--migrate")?;
                opts.migration = parse_migration(&v).map_err(CliError::fail)?;
            }
            "--journal" => {
                let v = value(args, &mut i, "--journal")?;
                opts.journal_path = Some(PathBuf::from(v));
            }
            "--snapshot-every" => {
                let v = value(args, &mut i, "--snapshot-every")?;
                opts.snapshot_every = v
                    .parse()
                    .map_err(|_| CliError::fail(format!("bad --snapshot-every: {v}")))?;
            }
            "--quota" => {
                let v = value(args, &mut i, "--quota")?;
                opts.quotas.push(parse_quota(&v).map_err(CliError::fail)?);
            }
            "--max-in-flight" => {
                let v = value(args, &mut i, "--max-in-flight")?;
                opts.max_in_flight = Some(
                    v.parse()
                        .map_err(|_| CliError::fail(format!("bad --max-in-flight: {v}")))?,
                );
            }
            "--supervise" => opts.supervise = true,
            "--verify" => opts.verify = true,
            "--out" => opts.out_path = Some(value(args, &mut i, "--out")?),
            flag if flag.starts_with("--") => {
                return Err(CliError::fail(format!("unknown flag: {flag}")));
            }
            path => opts.input = Some(path.to_string()),
        }
        i += 1;
    }
    Ok(opts)
}

fn read_queue(input: Option<&str>) -> Result<String, CliError> {
    match input {
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| CliError::fail(format!("cannot read job queue {path}: {e}"))),
        None => {
            let mut text = String::new();
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| CliError::fail(format!("cannot read job queue from stdin: {e}")))?;
            Ok(text)
        }
    }
}

fn admission_from(opts: &Options) -> Option<AdmissionController> {
    if opts.quotas.is_empty() && opts.max_in_flight.is_none() {
        return None;
    }
    let mut admission = AdmissionController::new();
    if let Some(cap) = opts.max_in_flight {
        admission.set_queue_cap(cap);
    }
    for (tenant, quota) in &opts.quotas {
        admission.set_quota(tenant.clone(), *quota);
    }
    Some(admission)
}

/// Milliseconds since this process's own epoch — monotonic, which is all
/// the token buckets need.
fn now_ms(epoch: Instant) -> u64 {
    u64::try_from(epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
}

struct Recovery {
    writer: JournalWriter,
    completed: Vec<RecoveredOutcome>,
    resumes: Vec<marsit::serve::ResumeJob>,
    fresh: Vec<JobSpec>,
}

/// Opens the journal: replaying an existing file into a resume plan, or
/// creating a fresh one.
fn open_journal(path: &Path) -> Result<Recovery, CliError> {
    let exists = std::fs::metadata(path)
        .map(|m| m.len() > 0)
        .unwrap_or(false);
    if !exists {
        let writer = JournalWriter::create(path).map_err(|e| {
            CliError::fail(format!("cannot create journal {}: {e}", path.display()))
        })?;
        return Ok(Recovery {
            writer,
            completed: Vec::new(),
            resumes: Vec::new(),
            fresh: Vec::new(),
        });
    }
    let replay = replay_file(path)
        .map_err(|e| CliError::fail(format!("cannot read journal {}: {e}", path.display())))?;
    // Before anything is reported as recovered: a file that is not a
    // journal of this format is refused here, untouched.
    let writer = JournalWriter::resume(path, &replay)
        .map_err(|e| CliError::fail(format!("cannot resume journal {}: {e}", path.display())))?;
    if let Some(reason) = &replay.torn {
        eprintln!(
            "marsit_serve: journal tail torn ({reason}); resuming from {} valid records",
            replay.next_seq
        );
    }
    let plan = replay.state.plan();
    for name in &plan.orphaned {
        eprintln!("marsit_serve: journal records for {name} have no submit record; dropped");
    }
    eprintln!(
        "marsit_serve: recovered: {} completed, {} resumable, {} fresh",
        plan.completed.len(),
        plan.resumes.len(),
        plan.fresh.len()
    );
    Ok(Recovery {
        writer,
        completed: plan.completed,
        resumes: plan.resumes,
        fresh: plan.fresh,
    })
}

/// A finished job as the summary table wants it, whichever engine ran it.
struct Row {
    name: String,
    rounds: usize,
    shard_path: Vec<usize>,
    migrations: u32,
    detail: String,
}

fn render_rows(rows: &[Row], tail: &str) -> String {
    let mut lines = String::new();
    lines.push_str("name          rounds  shards(path)      migr  detail\n");
    for row in rows {
        let path: Vec<String> = row.shard_path.iter().map(usize::to_string).collect();
        lines.push_str(&format!(
            "{:<13} {:>6}  {:<17} {:>4}  {}\n",
            row.name,
            row.rounds,
            path.join("->"),
            row.migrations,
            row.detail
        ));
    }
    lines.push_str(tail);
    lines
}

/// Runs one admission-gated submission attempt per loop iteration,
/// honouring `RetryAfter` backpressure hints for a bounded window before
/// declaring the job rejected. The closure performs the actual submit and
/// returns the typed admission verdict.
fn submit_with_retry(
    name: &str,
    epoch: Instant,
    rejected: &mut Vec<String>,
    mut attempt: impl FnMut(u64) -> Result<(), AdmissionError>,
) {
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    loop {
        match attempt(now_ms(epoch)) {
            Ok(()) => return,
            Err(e) => {
                let hint = e.retry_after_ms();
                if hint == u64::MAX || Instant::now() >= deadline {
                    eprintln!("marsit_serve: job {name} rejected: {e}");
                    rejected.push(name.to_string());
                    return;
                }
                eprintln!("marsit_serve: job {name} deferred: {e}");
                std::thread::sleep(std::time::Duration::from_millis(hint.clamp(1, 1000)));
            }
        }
    }
}

#[allow(clippy::too_many_lines)]
fn real_main() -> Result<i32, CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // The hidden shard mode: this process is a shard subprocess spawned by
    // a supervisor. Never reached by user-driven invocations.
    if args.first().map(String::as_str) == Some(SHARD_WORKER_MODE) {
        return shard_worker_main(&args[1..])
            .map_err(|e| CliError::fail(format!("{SHARD_WORKER_MODE}: {e}")));
    }
    let opts = parse_options(&args)?;

    let queue = read_queue(opts.input.as_deref())?;
    let (mut specs, diagnostics) = parse_queue(&queue);
    if !diagnostics.is_empty() {
        for diag in &diagnostics {
            eprintln!("marsit_serve: {diag}");
        }
        return Err(CliError {
            message: format!(
                "{} malformed line(s) in the job queue; nothing submitted",
                diagnostics.len()
            ),
            code: EXIT_BAD_QUEUE,
        });
    }

    // Crash recovery: jobs the journal already knows about take their
    // journaled role; queue lines only introduce genuinely new jobs.
    let mut recovery = match &opts.journal_path {
        Some(path) => Some(open_journal(path)?),
        None => None,
    };
    if let Some(rec) = &recovery {
        let known: std::collections::HashSet<&str> = rec
            .completed
            .iter()
            .map(|o| o.spec.name.as_str())
            .chain(rec.resumes.iter().map(|r| r.spec.name.as_str()))
            .chain(rec.fresh.iter().map(|s| s.name.as_str()))
            .collect();
        specs.retain(|s| !known.contains(s.name.as_str()));
    }
    let recovered_done = recovery.as_ref().map_or(0, |r| r.completed.len());
    let total_jobs = specs.len()
        + recovery
            .as_ref()
            .map_or(0, |r| r.completed.len() + r.resumes.len() + r.fresh.len());
    if total_jobs == 0 {
        return Err(CliError {
            message: "job queue is empty".to_string(),
            code: EXIT_BAD_QUEUE,
        });
    }

    eprintln!(
        "marsit_serve: {} jobs over {} shards (tick {} rounds, migration {:?}{}{})",
        total_jobs,
        opts.shards,
        opts.tick.max(1),
        opts.migration,
        if opts.journal_path.is_some() {
            ", journaled"
        } else {
            ""
        },
        if opts.supervise {
            ", process-per-shard"
        } else {
            ""
        },
    );

    let epoch = Instant::now();
    let (journal, completed_before, resumes, fresh) = match recovery.take() {
        Some(rec) => (
            Some(Arc::new(Mutex::new(rec.writer))),
            rec.completed,
            rec.resumes,
            rec.fresh,
        ),
        None => (None, Vec::new(), Vec::new(), Vec::new()),
    };

    let mut cfg = ServeConfig::new(opts.shards);
    cfg.tick_rounds = opts.tick.max(1);
    cfg.migration = opts.migration;
    cfg.snapshot_every_ticks = opts.snapshot_every;
    if opts.supervise {
        cfg.processes = Some(ProcessShards::default());
    }
    let wall = Instant::now();
    let mut handle = match journal {
        Some(journal) => JobServer::start_journaled(cfg, journal),
        None => JobServer::start(cfg),
    };
    if let Some(admission) = admission_from(&opts) {
        handle.set_admission(admission);
    }
    for resume in resumes {
        handle.submit_resume(resume);
    }
    let mut rejected: Vec<String> = Vec::new();
    for spec in fresh.into_iter().chain(specs) {
        let name = spec.name.clone();
        submit_with_retry(&name, epoch, &mut rejected, |now| {
            handle.try_submit(spec.clone(), now)
        });
    }
    let report = handle.finish();
    let wall_s = wall.elapsed().as_secs_f64();
    if let Some(e) = &report.failure {
        return Err(CliError::fail(format!("server failed: {e}")));
    }

    // Reports of jobs the journal or a process shard handed back are
    // fingerprints; a thread shard's is the report itself.
    let row = |o: &RecoveredOutcome, detail: String| Row {
        name: o.spec.name.clone(),
        rounds: o.spec.rounds,
        shard_path: o.shard_path.clone(),
        migrations: o.migrations,
        detail,
    };
    let mut rows: Vec<Row> = completed_before
        .iter()
        .map(|o| row(o, "(recovered)".to_string()))
        .chain(
            report
                .remote_outcomes
                .iter()
                .map(|o| row(o, o.report_debug.chars().take(24).collect())),
        )
        .collect();
    for o in &report.outcomes {
        let loss = o.report.records.last().map_or(f64::NAN, |r| r.train_loss);
        rows.push(Row {
            name: o.spec.name.clone(),
            rounds: o.spec.rounds,
            shard_path: o.shard_path.clone(),
            migrations: o.migrations,
            detail: format!("{loss:.6}"),
        });
    }
    let mut verify_failures = Vec::new();
    if opts.verify {
        eprintln!("marsit_serve: verifying bit-exactness against solo runs...");
        let fingerprinted = completed_before.iter().chain(&report.remote_outcomes);
        let verdicts = fingerprinted
            .map(verify_recovered)
            .chain(report.outcomes.iter().map(verify_outcome));
        for verdict in verdicts {
            if let Err(e) = verdict {
                verify_failures.push(format!("BIT-EXACTNESS VIOLATION: {e}"));
            }
        }
    }
    let served = rows.len() - recovered_done;
    let lat = report.round_latencies_sorted();
    let pool = report.pool_stats();
    let tail = format!(
        "served {} jobs in {:.2}s ({:.1} jobs/s) | {} recovered | peak {} in flight | \
         round p50/p99 {:.1}/{:.1} us | pool hits {}/{} | migrations {} | \
         shard deaths {} | restarts {}\n",
        rows.len(),
        wall_s,
        served as f64 / wall_s.max(1e-9),
        recovered_done,
        report.peak_in_flight,
        quantile_ns(&lat, 0.5) as f64 / 1e3,
        quantile_ns(&lat, 0.99) as f64 / 1e3,
        pool.hits,
        pool.hits + pool.misses,
        rows.iter().map(|r| u64::from(r.migrations)).sum::<u64>(),
        report.shard_deaths,
        report.restarts,
    );

    rows.sort_by(|a, b| a.name.cmp(&b.name));
    let lines = render_rows(&rows, &tail);
    print!("{lines}");
    if let Some(path) = &opts.out_path {
        std::fs::write(path, &lines)
            .map_err(|e| CliError::fail(format!("cannot write {path}: {e}")))?;
    }

    if !verify_failures.is_empty() {
        for failure in &verify_failures {
            eprintln!("marsit_serve: {failure}");
        }
        return Err(CliError {
            message: format!("{} bit-exactness violation(s)", verify_failures.len()),
            code: EXIT_VIOLATION,
        });
    }
    if opts.verify {
        eprintln!(
            "marsit_serve: all {} jobs byte-identical to solo runs",
            rows.len()
        );
    }
    if !rejected.is_empty() {
        return Err(CliError {
            message: format!(
                "{} job(s) rejected by admission control: {}",
                rejected.len(),
                rejected.join(", ")
            ),
            code: EXIT_REJECTED,
        });
    }
    Ok(EXIT_OK)
}

fn main() {
    match real_main() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("marsit_serve: error: {e}", e = e.message);
            std::process::exit(e.code);
        }
    }
}
