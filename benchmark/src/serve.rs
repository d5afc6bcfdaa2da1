//! The two `serve_*` workloads: the job server under a closed-loop storm
//! (write side of the journal and codec) and crash recovery from a torn
//! journal (read side of the same formats).

use std::fs::File;
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marsit::prelude::*;
use marsit::serve::{
    plan_from_replay, replay_file, verify_outcome, verify_recovered, AdmissionController,
    JobServer, JobSpec, JournalWriter, MigrationPolicy, RecoveredOutcome, ServeConfig, ServeReport,
    TenantQuota,
};
use marsit::tensor::rng::split_seed;

use crate::harness::{
    cpu_seconds, peak_rss_mb, repeated_setup, scratch_file, Checks, Failure, Recorder, Seeds,
    Window,
};

/// Closed-loop client count: jobs in flight at every instant of a storm.
pub const CLIENTS: usize = 8;
/// Rounds per job.
pub const JOB_ROUNDS: usize = 24;
/// Jobs served (and discarded) by each `serve_storm` set-up.
const WARMUP_JOBS: usize = 24;
/// Jobs per epoch of `serve_storm`: each epoch is a fresh server, so the
/// outcomes a `ServerHandle` retains until `finish` — and with them the peak
/// resident set — do not grow with how many jobs a faster build completes.
pub const EPOCH_JOBS: usize = 48;
/// Jobs in the journal `serve_recover` tears and replays.
pub const RECOVER_JOBS: usize = 8;
/// Outcomes re-run solo and byte-compared after a storm.
pub const VERIFY_SAMPLE: usize = 16;
const TENANTS: usize = 3;

/// The `bench_service` three-shape mix: two ring widths and a torus, every
/// fourth job fault-injected, every job with its own seed and one of three
/// tenants.
pub fn job_mix(i: usize, seeds: Seeds) -> JobSpec {
    let (workload, topology) = match i % 3 {
        0 => (Workload::AlexNetMnist, Topology::ring(4)),
        1 => (Workload::ResNet20Cifar10, Topology::torus(2, 2)),
        _ => (Workload::AlexNetMnist, Topology::ring(8)),
    };
    let mut spec = JobSpec::new(format!("job{i:05}"), workload, topology);
    spec.tenant = format!("tenant{}", i % TENANTS);
    spec.rounds = JOB_ROUNDS;
    spec.seed = split_seed(seeds.jobs(), i as u64);
    spec.k = i.is_multiple_of(2).then_some(5);
    if i % 4 == 3 {
        spec.fault_plan =
            FaultPlan::seeded(split_seed(seeds.faults(), i as u64)).with_link_drop(0.05);
    }
    spec
}

/// Two shards and a seeded 10%-per-tick migration schedule.
pub fn storm_config(seeds: Seeds) -> ServeConfig {
    let mut cfg = ServeConfig::new(2);
    cfg.migration = MigrationPolicy::Seeded {
        seed: seeds.migration(),
        per_mille: 100,
    };
    cfg
}

/// Maximum snapshot density, so a tear anywhere lands between snapshots.
pub fn recover_config() -> ServeConfig {
    let mut cfg = ServeConfig::new(2);
    cfg.tick_rounds = 2;
    cfg.snapshot_every_ticks = 1;
    cfg
}

/// Three tenants whose (finite) quotas admit every job of a storm, so the
/// slot and token-bucket arithmetic runs without ever rejecting.
fn admission() -> AdmissionController {
    let mut admission = AdmissionController::new();
    for t in 0..TENANTS {
        admission.set_quota(
            format!("tenant{t}"),
            TenantQuota {
                max_in_flight: CLIENTS,
                round_budget: 1e12,
                rounds_per_sec: 1e12,
            },
        );
    }
    admission
}

/// What one storm measured.
pub struct Storm {
    /// Jobs submitted (and, unless a check fails, completed).
    pub jobs: u64,
    /// Submissions the admission controller refused (always 0 by design).
    pub rejected: u64,
    /// First submit → last outcome seen.
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Wall nanoseconds of every `try_submit` call.
    pub submit_ns: Vec<u64>,
    pub report: ServeReport,
    /// Size of the journal once the writer drained (0 when not journaled).
    pub journal_bytes: u64,
}

impl Storm {
    pub fn rounds(&self) -> u64 {
        self.report
            .shards
            .iter()
            .map(|s| s.round_ns.len() as u64)
            .sum()
    }
    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.wall_s
    }
}

fn span<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.span(name, "serve", id, |_| f()),
        None => f(),
    }
}

/// One closed-loop storm on a fresh server: `clients` jobs in flight, each
/// completion submits the next of the mix's jobs `jobs`, until all of them
/// have an outcome. With `journal`, every state change goes through a real
/// file with real `fsync`s.
pub fn storm(
    seeds: Seeds,
    cfg: ServeConfig,
    clients: usize,
    jobs: Range<usize>,
    journal: Option<&Path>,
    mut rec: Option<&mut Recorder>,
) -> Storm {
    let writer = journal.map(|path| {
        Arc::new(Mutex::new(
            JournalWriter::create(path).expect("create journal in benchmark/out"),
        ))
    });
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let mut handle = match &writer {
        Some(writer) => JobServer::start_journaled(cfg, Arc::clone(writer)),
        None => JobServer::start(cfg),
    };
    handle.set_admission(admission());

    let mut submitted = 0usize;
    let mut rejected = 0u64;
    let mut submit_ns = Vec::with_capacity(4096);
    // Submits the next job of the mix; `false` when admission refused it.
    let mut submit_next = |handle: &mut marsit::serve::ServerHandle,
                           rec: &mut Option<&mut Recorder>,
                           index: usize| {
        let spec = job_mix(jobs.start + index, seeds);
        let now_ms = start.elapsed().as_millis() as u64;
        let t = Instant::now();
        let admitted = span(rec, "try_submit", index as u64, || {
            handle.try_submit(spec, now_ms)
        });
        submit_ns.push(t.elapsed().as_nanos() as u64);
        admitted
            .map_err(|e| eprintln!("admission refused a job the quotas should admit: {e:?}"))
            .is_ok()
    };

    // A refusal ends the submissions (and fails the run): the loop below
    // still drains whatever is in flight.
    let mut open = true;
    let mut seen = 0usize;
    let mut polls = 0u64;
    loop {
        let done = if submitted == 0 {
            0
        } else {
            polls += 1;
            span(&mut rec, "completed", polls, || handle.completed())
        };
        seen = seen.max(done);
        while open && submitted - seen < clients && submitted < jobs.len() {
            if submit_next(&mut handle, &mut rec, submitted) {
                submitted += 1;
            } else {
                rejected += 1;
                open = false;
            }
        }
        if seen == submitted {
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    let report = span(&mut rec, "finish", 0, || handle.finish());
    // The shards and the handle are gone: ours is the last reference, and
    // dropping it drains the writer queue and syncs.
    drop(writer);
    let journal_bytes = journal.map_or(0, |path| {
        std::fs::metadata(path).expect("stat journal").len()
    });
    Storm {
        jobs: submitted as u64,
        rejected,
        wall_s,
        cpu_s,
        submit_ns,
        report,
        journal_bytes,
    }
}

fn window_of(setup_s: f64, rounds: u64, wall_s: f64, cpu_s: f64, round_ns: Vec<u64>) -> Window {
    Window {
        setup_s,
        rounds,
        wall_s,
        cpu_s,
        round_ns,
        peak_rss_mb: peak_rss_mb(),
    }
}

/// Epochs of `serve_storm`, back to back, until `seconds` have elapsed.
pub struct Epochs {
    pub jobs: u64,
    pub rounds: u64,
    /// Σ over epochs of (first submit → last outcome seen).
    pub wall_s: f64,
    pub cpu_s: f64,
    /// The servers' per-round wall times, ascending.
    pub round_ns: Vec<u64>,
}

/// Runs journaled `EPOCH_JOBS`-job storms until `seconds` have elapsed,
/// checking each; the last epoch's outcomes are sampled for `verify_outcome`.
pub fn storm_epochs(
    seeds: Seeds,
    seconds: f64,
    path: &Path,
    mut rec: Option<&mut Recorder>,
    checks: &mut Checks,
) -> Epochs {
    let mut total = Epochs {
        jobs: 0,
        rounds: 0,
        wall_s: 0.0,
        cpu_s: 0.0,
        round_ns: Vec::new(),
    };
    let start = Instant::now();
    let mut epoch = 0;
    loop {
        let jobs = epoch * EPOCH_JOBS..(epoch + 1) * EPOCH_JOBS;
        epoch += 1;
        let result = storm(
            seeds,
            storm_config(seeds),
            CLIENTS,
            jobs,
            Some(path),
            rec.as_deref_mut(),
        );
        total.jobs += result.jobs;
        total.rounds += result.rounds();
        total.wall_s += result.wall_s;
        total.cpu_s += result.cpu_s;
        for shard in &result.report.shards {
            total.round_ns.extend_from_slice(&shard.round_ns);
        }
        let last = start.elapsed().as_secs_f64() >= seconds;
        check_storm(&result, seeds, if last { VERIFY_SAMPLE } else { 0 }, checks);
        if last {
            break;
        }
    }
    total.round_ns.sort_unstable();
    total
}

/// `serve_storm`: the journaled server under the closed-loop mix for
/// `seconds`.
pub fn run_storm(seeds: Seeds, seconds: f64, checks: &mut Checks) -> Window {
    let path = scratch_file("serve_storm");
    let ((), setup_s) = repeated_setup(|| {
        storm(
            seeds,
            storm_config(seeds),
            CLIENTS,
            0..WARMUP_JOBS,
            Some(&path),
            None,
        );
    });
    // The output checks of an epoch run between the timed intervals, so the
    // resident-set peak is read after them here.
    let epochs = storm_epochs(seeds, seconds, &path, None, checks);
    std::fs::remove_file(&path).ok();
    println!(
        "{} jobs in {} epochs of {EPOCH_JOBS}",
        epochs.jobs,
        epochs.jobs as usize / EPOCH_JOBS
    );
    window_of(
        setup_s,
        epochs.rounds,
        epochs.wall_s,
        epochs.cpu_s,
        epochs.round_ns,
    )
}

/// Every job accounted for; a seeded sample of `verify` outcomes
/// byte-identical to solo runs.
pub fn check_storm(result: &Storm, seeds: Seeds, verify: usize, checks: &mut Checks) {
    checks.ops(result.jobs);
    checks.check(Failure::Accounting, result.rejected == 0, || {
        format!(
            "admission refused {} jobs the quotas admit",
            result.rejected
        )
    });
    let outcomes = &result.report.outcomes;
    checks.check(
        Failure::Accounting,
        outcomes.len() as u64 == result.jobs,
        || {
            format!(
                "{} jobs submitted, {} outcomes",
                result.jobs,
                outcomes.len()
            )
        },
    );
    let mut pick = FastRng::new(seeds.sample(), 0);
    for _ in 0..verify.min(outcomes.len()) {
        let outcome = &outcomes[pick.next_range(outcomes.len() as u64) as usize];
        let verdict = verify_outcome(outcome);
        checks.check(Failure::Served, verdict.is_ok(), || {
            format!("served job differs from its solo run: {verdict:?}")
        });
    }
}

/// The torn journal `serve_recover` replays: the first 60% of the bytes a
/// snapshot-every-tick serve of `RECOVER_JOBS` jobs wrote. The jobs are
/// submitted in one burst, so all of them are in the journal when it tears.
pub fn torn_journal(seeds: Seeds, path: &Path) -> Vec<u8> {
    let served = storm(
        seeds,
        recover_config(),
        RECOVER_JOBS,
        0..RECOVER_JOBS,
        Some(path),
        None,
    );
    assert_eq!(served.jobs as usize, RECOVER_JOBS);
    let mut bytes = std::fs::read(path).expect("read journal");
    bytes.truncate(bytes.len() * 6 / 10);
    bytes
}

/// What one recovery measured.
pub struct Recovery {
    /// `replay_file` start → last `submit_resume` returned.
    pub recover_s: f64,
    /// `replay_file` start → server drained and journal synced.
    pub wall_s: f64,
    /// Process CPU seconds over the same interval.
    pub cpu_s: f64,
    pub completed: Vec<RecoveredOutcome>,
    pub report: ServeReport,
}

/// One crash recovery: the torn prefix goes back to disk (the harness's own
/// write, untimed and synced before the clock starts, so the `sync_data` of
/// `JournalWriter::resume` pays for its truncation and not for our bytes),
/// then it is replayed and folded into a plan, the writer resumes past the
/// valid prefix, a fresh server takes every in-flight job, and the drain runs
/// to completion.
pub fn recover(torn: &[u8], path: &Path, id: u64, mut rec: Option<&mut Recorder>) -> Recovery {
    let mut file = File::create(path).expect("create torn journal");
    file.write_all(torn).expect("write torn journal");
    file.sync_all().expect("sync torn journal");
    drop(file);
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let replay = span(&mut rec, "replay_file", id, || {
        replay_file(path).expect("replay torn journal")
    });
    let plan = span(&mut rec, "plan_from_replay", id, || {
        plan_from_replay(&replay)
    });
    let writer = span(&mut rec, "journal_resume", id, || {
        JournalWriter::resume(path, &replay).expect("resume journal")
    });
    let writer = Arc::new(Mutex::new(writer));
    let mut handle = JobServer::start_journaled(recover_config(), Arc::clone(&writer));
    span(&mut rec, "submit_resume", id, || {
        for resume in plan.resumes {
            handle.submit_resume(resume);
        }
        for spec in plan.fresh {
            handle.submit(spec);
        }
    });
    let recover_s = t.elapsed().as_secs_f64();
    let report = span(&mut rec, "finish", id, || handle.finish());
    drop(writer);
    Recovery {
        recover_s,
        wall_s: t.elapsed().as_secs_f64(),
        cpu_s: cpu_seconds() - cpu0,
        completed: plan.completed,
        report,
    }
}

/// `serve_recover`: recoveries of the same torn journal, back to back, for
/// `seconds`.
///
/// A "round" of this workload's `rounds_per_s` and `cpu_ms_per_round` is a
/// job-round *made whole* by a recovery — reported from the journal,
/// resumed from a snapshot, or executed again — so every recovery counts
/// `RECOVER_JOBS × JOB_ROUNDS` of them whatever the tear happened to leave
/// unfinished. `round_ms_*` are the server's own wall times of the rounds it
/// did execute.
pub fn run_recover(seeds: Seeds, seconds: f64, checks: &mut Checks) -> Window {
    let path = scratch_file("serve_recover");
    let (torn, setup_s) = repeated_setup(|| torn_journal(seeds, &path));

    let mut round_ns = Vec::new();
    let mut recover_s = Vec::new();
    let (mut wall_s, mut cpu_s) = (0.0, 0.0);
    let start = Instant::now();
    let last = loop {
        let recovery = recover(&torn, &path, recover_s.len() as u64, None);
        recover_s.push(recovery.recover_s);
        wall_s += recovery.wall_s;
        cpu_s += recovery.cpu_s;
        for shard in &recovery.report.shards {
            round_ns.extend_from_slice(&shard.round_ns);
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break recovery;
        }
    };
    std::fs::remove_file(&path).ok();
    let cycles = recover_s.len() as u64;
    println!(
        "{cycles} recoveries of a {:.1} MB torn journal: {} rounds executed again, \
         replay-to-resumed median {:.1} ms",
        torn.len() as f64 / 1e6,
        round_ns.len(),
        crate::harness::median(recover_s) * 1e3
    );
    round_ns.sort_unstable();
    let rounds = cycles * (RECOVER_JOBS * JOB_ROUNDS) as u64;
    let window = window_of(setup_s, rounds, wall_s, cpu_s, round_ns);
    checks.ops(cycles);
    check_recovery(&last, checks);
    window
}

/// Every job accounted for across the crash; replayed-complete jobs and the
/// resumed ones byte-identical to solo runs.
pub fn check_recovery(recovery: &Recovery, checks: &mut Checks) {
    let accounted = recovery.completed.len() + recovery.report.outcomes.len();
    checks.check(Failure::Accounting, accounted == RECOVER_JOBS, || {
        format!("{accounted} of {RECOVER_JOBS} jobs accounted for after recovery")
    });
    checks.check(
        Failure::NothingToResume,
        !recovery.report.outcomes.is_empty(),
        || "the torn journal left nothing to resume".to_string(),
    );
    for outcome in &recovery.completed {
        let verdict = verify_recovered(outcome);
        checks.check(Failure::Replayed, verdict.is_ok(), || {
            format!("replayed-complete job differs from its solo run: {verdict:?}")
        });
    }
    for outcome in recovery.report.outcomes.iter().take(4) {
        let verdict = verify_outcome(outcome);
        checks.check(Failure::Served, verdict.is_ok(), || {
            format!("resumed job differs from its solo run: {verdict:?}")
        });
    }
}
