//! **Serving trajectory point**: the sharded job server under a seeded
//! arrival storm.
//!
//! Emits `BENCH_service.json` (override with `--out <path>`) with:
//!
//! - `throughput` — jobs/sec over the storm, plus the peak and sustained
//!   (median-at-completion) number of jobs in flight;
//! - `latency` — p50/p95/p99 per-round wall latency across every shard,
//!   measured while jobs time-share shard threads;
//! - `migration` — median snapshot-serialize and restore cost of the
//!   seeded migration schedule, and the serialized snapshot size;
//! - `pool` — workspace-pool hit/miss/return/eviction counters;
//! - `exactness` — every served job is re-run solo and byte-compared
//!   (report and telemetry log); **any violation aborts the benchmark**,
//!   so a committed JSON is itself proof the scheduler never perturbed a
//!   single output bit;
//! - `recovery` — the crash-safety trajectory point: the same burst is
//!   served once plain and once with a durable journal
//!   (their wall ratio is the journal overhead, asserted ≤ 1.25× in full
//!   mode), then the journal is torn at ~60% of its bytes and replayed
//!   (records/s), one resumable job is restored and stepped
//!   (time-to-first-resumed-round), and the recovered serve is
//!   re-verified bit-exact;
//! - `meta` — run provenance.
//!
//! The storm is a seeded Poisson process: an initial burst saturates the
//! shards, then the remaining jobs arrive with exponential gaps. Every
//! schedule decision downstream of the seed is deterministic; only the
//! wall-clock numbers vary between hosts.
//!
//! ```text
//! cargo run --release -p marsit-bench --bin bench_service [-- --fast] [-- --out PATH]
//! ```
//!
//! `--fast` shrinks the job count and round budgets for CI smoke runs; the
//! JSON schema is identical in both modes (`"mode"` records which ran).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use marsit_models::Workload;
use marsit_serve::{
    plan_from_replay, quantile_ns, replay_bytes, verify_outcome, verify_recovered, JobServer,
    JobSpec, JournalWriter, MigrationPolicy, ServeConfig,
};
use marsit_simnet::{FaultPlan, Topology};
use marsit_telemetry::Telemetry;
use marsit_tensor::rng::FastRng;
use marsit_trainsim::{TrainSnapshot, TrainerState};

struct Sizes {
    mode: &'static str,
    jobs: usize,
    burst: usize,
    rounds: usize,
    shards: usize,
    arrival_mean_ms: f64,
}

const FULL: Sizes = Sizes {
    mode: "full",
    jobs: 24,
    burst: 10,
    rounds: 24,
    shards: 4,
    arrival_mean_ms: 30.0,
};

const FAST: Sizes = Sizes {
    mode: "fast",
    jobs: 10,
    burst: 8,
    rounds: 8,
    shards: 3,
    arrival_mean_ms: 10.0,
};

const ARRIVAL_SEED: u64 = 0x5EED_5709;
const MIGRATION_SEED: u64 = 0xA11_0CA7E;
const MIGRATION_PER_MILLE: u32 = 250;

/// `git describe` of the tree this binary runs in (see `bench_round`).
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The deterministic job mix: three shapes (two ring widths and a torus)
/// cycled across the storm, every fourth job fault-injected, every job
/// with its own seed so no two are byte-identical to each other.
fn job_mix(i: usize, rounds: usize) -> JobSpec {
    let (workload, topology) = match i % 3 {
        0 => (Workload::AlexNetMnist, Topology::ring(4)),
        1 => (Workload::ResNet20Cifar10, Topology::torus(2, 2)),
        _ => (Workload::AlexNetMnist, Topology::ring(8)),
    };
    let mut spec = JobSpec::new(format!("job{i:03}"), workload, topology);
    spec.rounds = rounds;
    spec.seed = 100 + i as u64;
    spec.k = if i.is_multiple_of(2) { Some(5) } else { None };
    if i % 4 == 3 {
        spec.fault_plan = FaultPlan::seeded(i as u64).with_link_drop(0.05);
    }
    spec
}

fn median(sorted: &[u64]) -> u64 {
    if sorted.is_empty() {
        0
    } else {
        sorted[sorted.len() / 2]
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = if args.iter().any(|a| a == "--fast") {
        FAST
    } else {
        FULL
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_service.json", String::as_str);

    let mut cfg = ServeConfig::new(sizes.shards);
    cfg.tick_rounds = 2;
    cfg.migration = MigrationPolicy::Seeded {
        seed: MIGRATION_SEED,
        per_mille: MIGRATION_PER_MILLE,
    };
    println!(
        "bench_service ({}): {} jobs over {} shards, burst {}, mean gap {:.0}ms, \
         seeded migration {}/1000 per tick",
        sizes.mode, sizes.jobs, cfg.shards, sizes.burst, sizes.arrival_mean_ms, MIGRATION_PER_MILLE
    );

    // --- The storm: burst, then seeded Poisson arrivals. ---
    let specs: Vec<JobSpec> = (0..sizes.jobs).map(|i| job_mix(i, sizes.rounds)).collect();
    let mut arrivals = FastRng::new(ARRIVAL_SEED, 0);
    let wall = Instant::now();
    let mut handle = JobServer::start(cfg);
    for (i, spec) in specs.iter().enumerate() {
        if i >= sizes.burst {
            let u = arrivals.next_f64().clamp(1e-9, 1.0 - 1e-9);
            let gap_ms = -sizes.arrival_mean_ms * (1.0 - u).ln();
            std::thread::sleep(std::time::Duration::from_micros((gap_ms * 1e3) as u64));
        }
        handle.submit(spec.clone());
    }
    let report = handle.finish();
    let wall_s = wall.elapsed().as_secs_f64();
    assert_eq!(report.outcomes.len(), sizes.jobs);

    let jobs_per_sec = sizes.jobs as f64 / wall_s;
    let lat = report.round_latencies_sorted();
    let (p50, p95, p99) = (
        quantile_ns(&lat, 0.5),
        quantile_ns(&lat, 0.95),
        quantile_ns(&lat, 0.99),
    );
    println!(
        "served {} jobs in {wall_s:.2}s ({jobs_per_sec:.1} jobs/s) | \
         in flight peak {} sustained {} | round p50/p95/p99 {:.1}/{:.1}/{:.1} us",
        sizes.jobs,
        report.peak_in_flight,
        report.sustained_in_flight,
        p50 as f64 / 1e3,
        p95 as f64 / 1e3,
        p99 as f64 / 1e3,
    );
    assert!(
        report.sustained_in_flight >= 4,
        "the storm must sustain at least 4 concurrent jobs (got {})",
        report.sustained_in_flight
    );

    let samples = report.migration_samples();
    let mut snap_ns: Vec<u64> = samples.iter().map(|s| s.snapshot_ns).collect();
    let mut restore_ns: Vec<u64> = samples.iter().map(|s| s.restore_ns).collect();
    let mut snap_bytes: Vec<u64> = samples.iter().map(|s| s.snapshot_bytes as u64).collect();
    snap_ns.sort_unstable();
    restore_ns.sort_unstable();
    snap_bytes.sort_unstable();
    let migrations: u32 = report.outcomes.iter().map(|o| o.migrations).sum();
    println!(
        "migrations: {migrations} | snapshot p50 {:.1} us, restore p50 {:.1} us, \
         {} bytes median",
        median(&snap_ns) as f64 / 1e3,
        median(&restore_ns) as f64 / 1e3,
        median(&snap_bytes),
    );

    let pool = report.pool_stats();
    println!(
        "pool: {} hits / {} checkouts ({:.0}%), {} returns, {} evictions",
        pool.hits,
        pool.hits + pool.misses,
        pool.hit_rate() * 100.0,
        pool.returns,
        pool.evictions
    );

    // --- Bit-exactness: every served job vs a fresh solo run. ---
    //
    // This is the hard guarantee the whole server stands on. A violation
    // panics (no JSON is written), so the committed artifact doubles as a
    // certificate.
    let verify_wall = Instant::now();
    let mut violations = 0usize;
    for outcome in &report.outcomes {
        if let Err(e) = verify_outcome(outcome) {
            violations += 1;
            eprintln!("BIT-EXACTNESS VIOLATION: {e}");
        }
    }
    assert_eq!(
        violations, 0,
        "scheduler perturbed {violations} job(s); refusing to write {out_path}"
    );
    println!(
        "exactness: {}/{} jobs byte-identical to solo runs (verified in {:.2}s)",
        sizes.jobs,
        sizes.jobs,
        verify_wall.elapsed().as_secs_f64()
    );

    // --- Recovery: journal overhead, torn-tail replay, resume latency. ---
    //
    // Arrival sleeps would drown the journal cost, so both overhead runs
    // burst-submit everything and measure pure serving wall time. The
    // overhead pair runs the untouched default serving config (steady
    // state: 4-round ticks, a snapshot every 4 ticks), interleaved and
    // median-of-5 (3 in fast mode) because this box may be a single noisy
    // core whose baseline wanders between repetitions; a separate
    // snapshot-every-tick run then produces the snapshot-rich journal the
    // tear/replay measurements need.
    let burst_serve = |journal: Option<Arc<Mutex<JournalWriter>>>, cfg: ServeConfig| {
        let wall = Instant::now();
        let mut handle = match journal {
            Some(journal) => JobServer::start_journaled(cfg, journal),
            None => JobServer::start(cfg),
        };
        for spec in &specs {
            handle.submit(spec.clone());
        }
        let report = handle.finish();
        assert_eq!(report.outcomes.len(), sizes.jobs);
        wall.elapsed().as_secs_f64()
    };
    let journal_dir = std::env::temp_dir().join(format!("marsit-bench-{}", std::process::id()));
    std::fs::create_dir_all(&journal_dir).expect("create journal scratch dir");
    let journal_path = journal_dir.join("service.journal");
    let mut plain_walls = Vec::new();
    let mut journaled_walls = Vec::new();
    let overhead_reps = if sizes.mode == "full" { 5 } else { 3 };
    for _ in 0..overhead_reps {
        plain_walls.push(burst_serve(None, ServeConfig::new(sizes.shards)));
        let writer = JournalWriter::create(&journal_path).expect("create journal");
        journaled_walls.push(burst_serve(
            Some(Arc::new(Mutex::new(writer))),
            ServeConfig::new(sizes.shards),
        ));
    }
    let median_wall = |walls: &mut Vec<f64>| {
        walls.sort_by(f64::total_cmp);
        walls[walls.len() / 2]
    };
    let plain_wall_s = median_wall(&mut plain_walls);
    let journaled_wall_s = median_wall(&mut journaled_walls);
    let journal_overhead = journaled_wall_s / plain_wall_s.max(1e-9);
    let journal_bytes_full = std::fs::metadata(&journal_path)
        .expect("stat journal")
        .len();
    println!(
        "recovery: journal overhead {journal_overhead:.3}x at the default serving config \
         ({journaled_wall_s:.3}s journaled vs {plain_wall_s:.3}s plain, {journal_bytes_full} bytes)"
    );
    let overhead_cap = if sizes.mode == "full" { 1.25 } else { 3.0 };
    assert!(
        journal_overhead <= overhead_cap,
        "journal overhead {journal_overhead:.3}x exceeds the {overhead_cap}x budget"
    );

    // A snapshot-every-tick journal for the crash-replay measurements:
    // maximum snapshot density so a tear anywhere lands between snapshots.
    let rich_path = journal_dir.join("service-rich.journal");
    let writer = JournalWriter::create(&rich_path).expect("create rich journal");
    let mut rich_cfg = ServeConfig::new(sizes.shards);
    rich_cfg.tick_rounds = 2;
    rich_cfg.snapshot_every_ticks = 1;
    burst_serve(Some(Arc::new(Mutex::new(writer))), rich_cfg);
    let journal_path = rich_path;

    // Tear the journal at ~60% of its bytes — a mid-storm kill — and
    // replay the valid prefix.
    let bytes = std::fs::read(&journal_path).expect("read journal");
    let cut = bytes.len() * 6 / 10;
    let replay_wall = Instant::now();
    let replay = replay_bytes(&bytes[..cut]);
    let replay_s = replay_wall.elapsed().as_secs_f64();
    let replay_records = replay.records.len();
    let replay_records_per_sec = replay_records as f64 / replay_s.max(1e-9);
    let plan = plan_from_replay(&replay);
    println!(
        "recovery: torn at byte {cut}/{}: {replay_records} records replayed in {:.2}ms \
         ({replay_records_per_sec:.0} records/s) -> {} completed, {} resumable, {} fresh",
        bytes.len(),
        replay_s * 1e3,
        plan.completed.len(),
        plan.resumes.len(),
        plan.fresh.len(),
    );
    assert!(
        !plan.resumes.is_empty(),
        "a 60% tear of a snapshot-every-tick journal must leave resumable jobs"
    );

    // Time-to-first-resumed-round: parse the snapshot, rebuild trainer
    // state, and step one round — the latency floor of crash recovery.
    let resume = &plan.resumes[0];
    let resume_wall = Instant::now();
    let tel = Telemetry::recording();
    tel.restore_seq_floor(resume.tel_seq);
    let train_cfg = resume.spec.to_train_config(tel);
    let snapshot = TrainSnapshot::from_json(&resume.snapshot_json).expect("journaled snapshot");
    let mut state = TrainerState::restore(&train_cfg, &snapshot);
    state.step();
    let first_round_ms = resume_wall.elapsed().as_secs_f64() * 1e3;
    println!(
        "recovery: time to first resumed round {first_round_ms:.2}ms (job {})",
        resume.spec.name
    );

    // Finish the recovery end-to-end and re-verify every byte.
    std::fs::write(&journal_path, &bytes[..cut]).expect("truncate journal");
    let torn = replay_bytes(&std::fs::read(&journal_path).expect("reread journal"));
    let writer = JournalWriter::resume(&journal_path, &torn).expect("resume journal");
    let mut cfg = ServeConfig::new(sizes.shards);
    cfg.tick_rounds = 2;
    cfg.snapshot_every_ticks = 1;
    let mut handle = JobServer::start_journaled(cfg, Arc::new(Mutex::new(writer)));
    let resumed_jobs = plan.resumes.len();
    for resume in plan.resumes {
        handle.submit_resume(resume);
    }
    for spec in plan.fresh {
        handle.submit(spec);
    }
    let recovered = handle.finish();
    let mut recovered_violations = 0usize;
    for outcome in &plan.completed {
        if let Err(e) = verify_recovered(outcome) {
            recovered_violations += 1;
            eprintln!("RECOVERY BIT-EXACTNESS VIOLATION: {e}");
        }
    }
    for outcome in &recovered.outcomes {
        if let Err(e) = verify_outcome(outcome) {
            recovered_violations += 1;
            eprintln!("RECOVERY BIT-EXACTNESS VIOLATION: {e}");
        }
    }
    assert_eq!(
        plan.completed.len() + recovered.outcomes.len(),
        sizes.jobs,
        "every job must be accounted for across the simulated crash"
    );
    assert_eq!(
        recovered_violations, 0,
        "crash recovery perturbed {recovered_violations} job(s); refusing to write {out_path}"
    );
    println!(
        "recovery: {}/{} jobs byte-identical after the torn-journal restart",
        sizes.jobs, sizes.jobs
    );
    std::fs::remove_dir_all(&journal_dir).ok();

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let git_stamp = git_describe();
    if git_stamp.ends_with("-dirty") {
        eprintln!("=================================================================");
        eprintln!("WARNING: bench_service is running in a DIRTY tree ({git_stamp}).");
        eprintln!("Do NOT commit numbers measured from uncommitted code.");
        eprintln!("=================================================================");
    }
    let json = format!(
        r#"{{
  "bench": "service",
  "mode": "{mode}",
  "config": {{
    "jobs": {jobs},
    "shards": {shards},
    "tick_rounds": {tick_rounds},
    "burst": {burst},
    "arrival_seed": {arrival_seed},
    "arrival_mean_ms": {arrival_mean_ms:.1},
    "rounds_per_job": {rounds},
    "migration_seed": {migration_seed},
    "migration_per_mille": {migration_per_mille}
  }},
  "throughput": {{
    "wall_s": {wall_s:.4},
    "jobs_per_sec": {jobs_per_sec:.2},
    "peak_in_flight": {peak},
    "sustained_in_flight": {sustained}
  }},
  "latency": {{
    "rounds_measured": {rounds_measured},
    "round_p50_ns": {p50},
    "round_p95_ns": {p95},
    "round_p99_ns": {p99}
  }},
  "migration": {{
    "count": {migrations},
    "snapshot_p50_ns": {snap_p50},
    "restore_p50_ns": {restore_p50},
    "snapshot_bytes_median": {snap_bytes_median}
  }},
  "pool": {{
    "hits": {pool_hits},
    "misses": {pool_misses},
    "returns": {pool_returns},
    "evictions": {pool_evictions},
    "hit_rate": {pool_hit_rate:.3}
  }},
  "exactness": {{
    "jobs_verified": {jobs},
    "violations": 0
  }},
  "recovery": {{
    "journal_overhead_ratio": {journal_overhead:.3},
    "journal_bytes": {journal_bytes_full},
    "replay_records": {replay_records},
    "replay_records_per_sec": {replay_records_per_sec:.0},
    "time_to_first_resumed_round_ms": {first_round_ms:.3},
    "resumed_jobs": {resumed_jobs},
    "recovered_violations": 0
  }},
  "meta": {{
    "host_cores": {cores},
    "git_describe": "{git_describe}"
  }}
}}
"#,
        mode = sizes.mode,
        jobs = sizes.jobs,
        shards = sizes.shards,
        tick_rounds = 2,
        burst = sizes.burst,
        arrival_seed = ARRIVAL_SEED,
        arrival_mean_ms = sizes.arrival_mean_ms,
        rounds = sizes.rounds,
        migration_seed = MIGRATION_SEED,
        migration_per_mille = MIGRATION_PER_MILLE,
        peak = report.peak_in_flight,
        sustained = report.sustained_in_flight,
        rounds_measured = lat.len(),
        snap_p50 = median(&snap_ns),
        restore_p50 = median(&restore_ns),
        snap_bytes_median = median(&snap_bytes),
        pool_hits = pool.hits,
        pool_misses = pool.misses,
        pool_returns = pool.returns,
        pool_evictions = pool.evictions,
        pool_hit_rate = pool.hit_rate(),
        git_describe = git_stamp,
    );
    std::fs::write(out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
