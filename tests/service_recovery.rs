//! Crash-safety of the serving stack, attacked from every angle.
//!
//! The journal's contract: a journal file truncated at *any* byte — the
//! torn tail a `kill -9` leaves behind — replays to a valid
//! resume state, replay is idempotent, and a server restarted from that
//! state finishes every job **byte-identical** to an uninterrupted run.
//! These tests pin that contract at three levels: pure journal replay
//! (proptest over truncation points), in-process crash-mid-migration
//! recovery, and real SIGKILL of both the whole server binary and a
//! single shard subprocess under the supervisor.

use std::io::Read as _;
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use marsit::models::Workload;
use marsit::serve::{
    encode_record, replay_bytes, replay_file, verify_outcome, verify_recovered, JobServer, JobSpec,
    JournalError, JournalRecord, JournalWriter, MigrationPolicy, ProcessShards, ReplayState,
    ResumePlan, Scanner, ServeConfig, SnapshotRecord,
};
use marsit::simnet::{Topology, WireError};
use proptest::prelude::*;

/// A fast job for recovery tests: a few rounds on tiny data.
fn tiny_spec(name: &str, seed: u64, rounds: usize) -> JobSpec {
    let mut spec = JobSpec::new(name, Workload::AlexNetMnist, Topology::ring(4));
    spec.rounds = rounds;
    spec.seed = seed;
    spec.train_examples = 128;
    spec.test_examples = 32;
    spec.k = Some(3);
    spec
}

/// A unique scratch directory per test (std-only; no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("marsit-recovery-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A deterministic synthetic journal: submits, snapshots, a migration,
/// and outcomes, in a realistic interleaving.
fn sample_journal_bytes() -> Vec<u8> {
    sample_journal_records().concat()
}

/// The same journal, one encoded record per element.
fn sample_journal_records() -> Vec<Vec<u8>> {
    journal_records(0)
}

/// The sample journal with every checkpoint padded to at least
/// `payload_len` bytes.
fn journal_records(payload_len: usize) -> Vec<Vec<u8>> {
    let snap = |name: &str, shard: usize, round: u64| {
        JournalRecord::Snapshot(SnapshotRecord {
            name: name.to_string(),
            shard,
            migrations: 0,
            round,
            tel_seq: round * 7,
            snapshot_json: format!("{{\"round\":{round}}}{:payload_len$}", "")
                .into_bytes()
                .into(),
            log: format!("{name} log up to round {round}\n"),
        })
    };
    let records = [
        JournalRecord::Submit {
            spec: tiny_spec("j0", 3, 6),
        },
        JournalRecord::Submit {
            spec: tiny_spec("j1", 4, 6),
        },
        snap("j0", 0, 2),
        JournalRecord::Migrate {
            name: "j0".to_string(),
            from: 0,
            to: 1,
        },
        snap("j1", 1, 3),
        JournalRecord::Outcome(marsit::serve::OutcomeRecord {
            name: "j1".to_string(),
            migrations: 0,
            shard_path: vec![1],
            report_debug: "TrainReport { .. }".to_string(),
            log: "j1 full log\n".to_string(),
        }),
        snap("j0", 1, 4),
    ];
    records
        .iter()
        .enumerate()
        .map(|(seq, record)| encode_record(seq as u64, record).expect("representable"))
        .collect()
}

/// Byte offset each record of the sample journal ends at.
fn record_boundaries() -> Vec<usize> {
    sample_journal_records()
        .iter()
        .scan(0, |end, record| {
            *end += record.len();
            Some(*end)
        })
        .collect()
}

fn plan_names(plan: &ResumePlan) -> Vec<String> {
    plan.completed
        .iter()
        .map(|o| o.spec.name.clone())
        .chain(plan.resumes.iter().map(|r| r.spec.name.clone()))
        .chain(plan.fresh.iter().map(|s| s.name.clone()))
        .collect()
}

proptest! {
    /// A journal truncated at ANY byte replays to a valid resume state:
    /// the decoded records are a prefix of the untruncated journal, the
    /// valid length never exceeds the cut, and the resume plan puts every
    /// submitted job in exactly one bucket with nothing orphaned.
    #[test]
    fn journal_torn_at_any_byte_yields_valid_resume_state(cut_scale in 0u64..=10_000) {
        let bytes = sample_journal_bytes();
        let mut whole_scan = Scanner::new(&bytes);
        let full: Vec<_> = whole_scan.by_ref().collect();
        prop_assert!(whole_scan.torn().is_none());
        let cut = usize::try_from(bytes.len() as u64 * cut_scale / 10_000).expect("fits");
        let mut scanner = Scanner::new(&bytes[..cut]);
        let records: Vec<_> = scanner.by_ref().collect();

        prop_assert!(scanner.valid_len() <= cut);
        // The valid prefix ends on a record boundary: exactly the whole
        // records the cut left.
        let whole = record_boundaries().into_iter().rfind(|&end| end <= cut);
        prop_assert_eq!(scanner.valid_len(), whole.unwrap_or(0));
        prop_assert_eq!(scanner.next_seq(), records.len() as u64);
        prop_assert_eq!(&records[..], &full[..records.len()]);
        if cut < bytes.len() && scanner.valid_len() < cut {
            prop_assert!(scanner.torn().is_some());
        }

        let torn = replay_bytes(&bytes[..cut]);
        prop_assert_eq!(
            (torn.valid_len, torn.next_seq, torn.torn.as_ref()),
            (scanner.valid_len(), scanner.next_seq(), scanner.torn())
        );
        let plan = torn.state.plan();
        let names = plan_names(&plan);
        let mut deduped = names.clone();
        deduped.sort();
        deduped.dedup();
        prop_assert_eq!(deduped.len(), names.len(), "job in two buckets");
        for name in &names {
            prop_assert!(name == "j0" || name == "j1");
        }
        prop_assert!(plan.orphaned.is_empty());
        // Every resume carries the snapshot it will restore from.
        for resume in &plan.resumes {
            prop_assert!(!resume.snapshot_json.is_empty());
        }
    }

    /// Replaying a journal twice yields the same plan as replaying it
    /// once: the fold over records is idempotent.
    #[test]
    fn journal_replay_is_idempotent(cut_scale in 0u64..=10_000) {
        let bytes = sample_journal_bytes();
        let cut = usize::try_from(bytes.len() as u64 * cut_scale / 10_000).expect("fits");
        let records: Vec<_> = Scanner::new(&bytes[..cut]).map(|(_, record)| record).collect();

        let once: ReplayState = records.iter().cloned().collect();
        let twice: ReplayState = records.iter().chain(&records).cloned().collect();
        let (p1, p2) = (once.plan(), twice.plan());
        prop_assert_eq!(p1.completed, p2.completed);
        prop_assert_eq!(p1.resumes, p2.resumes);
        prop_assert_eq!(p1.fresh, p2.fresh);
        prop_assert_eq!(p1.orphaned, p2.orphaned);
    }

    /// Arbitrary bytes never panic replay — bare, or appended to a valid
    /// journal — and are never mistaken for records.
    #[test]
    fn garbage_journals_never_panic(garbage in proptest::collection::vec(any::<u8>(), 1..200)) {
        let mut bare = Scanner::new(&garbage);
        prop_assert_eq!((bare.by_ref().count(), bare.valid_len()), (0, 0));
        prop_assert!(bare.torn().is_some());
        let mut bytes = sample_journal_bytes();
        let valid = bytes.len();
        bytes.extend_from_slice(&garbage);
        let mut scanner = Scanner::new(&bytes);
        prop_assert_eq!(scanner.by_ref().count(), record_boundaries().len());
        prop_assert_eq!(scanner.valid_len(), valid);
        prop_assert!(scanner.torn().is_some());
    }

    /// The file path is the in-memory path: a journal torn at any byte, or
    /// with any single bit flipped, replays from a file exactly as from its
    /// bytes — valid prefix, sequence, verdict, and every field of the
    /// resume plan down to the checkpoint bytes. Checkpoints of 48 KiB take
    /// frames past the file scan's read-ahead buffer.
    #[test]
    fn replay_file_equals_replay_bytes(
        bulky in any::<bool>(),
        cut_scale in 0u64..=10_000,
        flip in any::<bool>(),
        bit in any::<usize>(),
    ) {
        let mut bytes = journal_records(if bulky { 48 << 10 } else { 0 }).concat();
        bytes.truncate(usize::try_from(bytes.len() as u64 * cut_scale / 10_000).expect("fits"));
        if flip && !bytes.is_empty() {
            let bit = bit % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        let dir = scratch("file-equals-bytes");
        let path = dir.join("journal.log");
        std::fs::write(&path, &bytes).expect("write journal");
        let from_file = replay_file(&path).expect("read journal");
        std::fs::remove_dir_all(&dir).ok();
        let from_bytes = replay_bytes(&bytes);
        prop_assert_eq!(
            (from_file.valid_len, from_file.next_seq, &from_file.torn),
            (from_bytes.valid_len, from_bytes.next_seq, &from_bytes.torn)
        );
        let (file_plan, bytes_plan) = (from_file.state.plan(), from_bytes.state.plan());
        prop_assert_eq!(file_plan.completed, bytes_plan.completed);
        prop_assert_eq!(file_plan.resumes, bytes_plan.resumes);
        prop_assert_eq!(file_plan.fresh, bytes_plan.fresh);
        prop_assert_eq!(file_plan.orphaned, bytes_plan.orphaned);
    }
}

/// Never accept damage: a single flipped bit anywhere in the journal ends
/// the valid prefix at the record it hit (the records before it replay
/// unchanged; the damaged one is never replaced by a different record, and
/// nothing after it is believed). Exhaustive over every bit.
#[test]
fn journal_bit_flip_ends_the_valid_prefix_at_the_flipped_record() {
    let bytes = sample_journal_bytes();
    let full: Vec<_> = Scanner::new(&bytes).collect();
    let boundaries = record_boundaries();
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let hit = boundaries.iter().filter(|&&end| end <= bit / 8).count();
        let mut scanner = Scanner::new(&flipped);
        let records: Vec<_> = scanner.by_ref().collect();
        assert_eq!(records.len(), hit, "bit {bit} is in record {hit}");
        assert_eq!(&records[..], &full[..hit]);
        let prefix = if hit == 0 { 0 } else { boundaries[hit - 1] };
        assert_eq!(scanner.valid_len(), prefix, "bit {bit}");
        assert!(scanner.torn().is_some(), "bit {bit}");
    }
}

/// A record whose header claims more body than the file holds — 4 GiB of it
/// — is a torn tail like any other: typed, not allocated for.
#[test]
fn overlong_record_length_is_a_torn_tail() {
    let mut bytes = sample_journal_bytes();
    let boundaries = record_boundaries();
    let last = boundaries[boundaries.len() - 2];
    bytes[last + 6..last + 10].copy_from_slice(&u32::MAX.to_le_bytes());
    let mut scanner = Scanner::new(&bytes);
    assert_eq!(scanner.by_ref().count(), boundaries.len() - 1);
    assert_eq!(scanner.valid_len(), last);
    assert_eq!(
        scanner.torn(),
        Some(&JournalError::Wire(WireError::Truncated))
    );
}

/// FNV-1a over a durable artifact's bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The byte contract of everything durable, recorded on the commit before
/// the CRC kernel and the shared payload views existed (`01dae69`): one
/// journaled single-shard serve of one job — so the record order is
/// deterministic — writes exactly these journal bytes, and the job's
/// checkpoint after round 2 is exactly this frame. A faster checksum or a
/// cheaper way to carry a payload must move neither. (Both fingerprints were
/// re-recorded twice with the codec untouched: when stream contract v2 moved
/// what the job's one-bit rounds draw — DESIGN §9 — and when GEMM contract v2
/// moved the low bits of every product — DESIGN §17. The frame kept its
/// length both times; the second time the journal grew 14 bytes, all of them
/// digits of the shortest round-trip renderings of the JSONL `loss` /
/// `comp_norm_sq` values and the report's `Debug` floats.)
#[test]
fn journal_bytes_are_pinned() {
    let dir = scratch("pinned");
    let path = dir.join("journal.log");
    let journal = Arc::new(Mutex::new(
        JournalWriter::create(&path).expect("create journal"),
    ));
    let mut cfg = ServeConfig::new(1);
    cfg.tick_rounds = 2;
    cfg.snapshot_every_ticks = 1;
    let spec = tiny_spec("pin", 31, 8);
    let mut handle = JobServer::start_journaled(cfg, Arc::clone(&journal));
    handle.submit(spec.clone());
    let _ = handle.finish();
    drop(journal);
    let bytes = std::fs::read(&path).expect("read journal");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (1_957_820, 11_243_699_332_997_479_069),
        "journal file bytes moved"
    );

    // Submit, a snapshot after rounds 2, 4 and 6, the outcome.
    let mut scanner = Scanner::new(&bytes);
    let records: Vec<_> = scanner.by_ref().collect();
    assert!(scanner.torn().is_none());
    assert_eq!(records.len(), 5);
    let JournalRecord::Snapshot(first) = &records[1].1 else {
        panic!("record 1 is the round-2 snapshot");
    };
    assert_eq!(first.round, 2);

    let train_cfg = spec.to_train_config(marsit::telemetry::Telemetry::disabled());
    let mut state = marsit::trainsim::TrainerState::new(&train_cfg);
    state.step();
    state.step();
    let checkpoint = state.snapshot().to_json();
    assert_eq!(
        (checkpoint.len(), fnv1a(&checkpoint)),
        (620_592, 7_436_621_712_310_962_882),
        "checkpoint frame bytes moved"
    );
    // Served equals solo, down to the journaled payload.
    assert_eq!(&first.snapshot_json[..], &checkpoint[..]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Crash-mid-migration: the journal holds the job's pre-migration
/// snapshot and the migrate record, but the crash ate the outcome. The
/// restarted server must resume from the snapshot and finish the job
/// byte-identical to a solo run.
#[test]
fn crash_mid_migration_resumes_byte_identically() {
    let dir = scratch("midmig");
    let path = dir.join("journal.log");
    let journal = Arc::new(Mutex::new(
        JournalWriter::create(&path).expect("create journal"),
    ));
    let mut cfg = ServeConfig::new(2);
    cfg.tick_rounds = 1;
    cfg.snapshot_every_ticks = 1;
    cfg.migration = MigrationPolicy::Seeded {
        seed: 11,
        per_mille: 800,
    };
    let mut handle = JobServer::start_journaled(cfg, Arc::clone(&journal));
    handle.submit(tiny_spec("m0", 21, 8));
    handle.submit(tiny_spec("m1", 22, 8));
    let _ = handle.finish();
    // The writer thread may still be writing queued lines; dropping the last
    // handle drains and syncs it, so the file read below is the whole journal.
    drop(journal);

    // "Crash" immediately after the first migrate record: truncate the
    // journal there, dropping that job's outcome.
    let bytes = std::fs::read(&path).expect("read journal");
    let mut scanner = Scanner::new(&bytes);
    let records: Vec<_> = scanner.by_ref().collect();
    assert!(scanner.torn().is_none());
    let mut offset = 0usize;
    let mut cut = None;
    for (seq, record) in &records {
        offset += encode_record(*seq, record).expect("representable").len();
        if let JournalRecord::Migrate { name, .. } = record {
            cut = Some((offset, name.clone()));
            break;
        }
    }
    let (cut, migrated) = cut.expect("seeded policy at 800 per-mille migrated at least once");
    std::fs::write(&path, &bytes[..cut]).expect("truncate journal");

    let torn = replay_file(&path).expect("reread journal");
    let plan = torn.state.plan();
    assert!(
        plan.resumes.iter().any(|r| r.spec.name == migrated),
        "mid-migration job must be resumable from its journaled snapshot"
    );
    assert!(
        !plan.completed.iter().any(|o| o.spec.name == migrated),
        "the crash ate the outcome; it must not replay as completed"
    );

    // Restart, resume, and verify every job against its solo run.
    let writer = JournalWriter::resume(&path, &torn).expect("resume journal");
    let mut cfg = ServeConfig::new(2);
    cfg.tick_rounds = 1;
    cfg.snapshot_every_ticks = 1;
    let mut handle = JobServer::start_journaled(cfg, Arc::new(Mutex::new(writer)));
    let mut expected = plan.completed.len();
    for resume in plan.resumes {
        expected += 1;
        handle.submit_resume(resume);
    }
    for spec in plan.fresh {
        expected += 1;
        handle.submit(spec);
    }
    assert_eq!(expected, 2, "both jobs accounted for across the crash");
    let report = handle.finish();
    for outcome in &plan.completed {
        verify_recovered(outcome).expect("recovered outcome byte-identical");
    }
    for outcome in &report.outcomes {
        verify_outcome(outcome).expect("resumed outcome byte-identical");
    }
    assert!(
        report.outcomes.iter().any(|o| o.spec.name == migrated),
        "the mid-migration job finished in the restarted server"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Real `kill -9` of the whole serving binary mid-storm: a restarted
/// server replays the journal and finishes all jobs, `--verify` proving
/// every byte survived the crash.
#[test]
fn sigkilled_server_recovers_and_verifies_all_jobs() {
    let dir = scratch("sigkill");
    let queue = dir.join("queue.txt");
    let journal = dir.join("journal.log");
    let mut lines = String::new();
    for i in 0..6 {
        lines.push_str(&format!(
            "name=k{i} workload=alexnet_mnist topo=ring:4 k=3 seed={} rounds=25 \
             examples=128 test=32\n",
            i + 40
        ));
    }
    std::fs::write(&queue, lines).expect("write queue");

    let bin = env!("CARGO_BIN_EXE_marsit_serve");
    let mut child = Command::new(bin)
        .args([
            queue.to_str().expect("utf8 path"),
            "--shards",
            "2",
            "--tick",
            "2",
            "--snapshot-every",
            "1",
            "--journal",
            journal.to_str().expect("utf8 path"),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server");
    std::thread::sleep(Duration::from_millis(700));
    child.kill().expect("SIGKILL server"); // kill() is SIGKILL on unix
    child.wait().expect("reap server");

    let output = Command::new(bin)
        .args([
            queue.to_str().expect("utf8 path"),
            "--shards",
            "2",
            "--tick",
            "2",
            "--snapshot-every",
            "1",
            "--journal",
            journal.to_str().expect("utf8 path"),
            "--verify",
        ])
        .output()
        .expect("restart server");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "restarted server failed: {stderr}");
    assert!(
        stderr.contains("all 6 jobs byte-identical to solo runs"),
        "verify must cover all 6 jobs: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `kill -9` one shard subprocess under the controller: the shard is
/// restarted with backoff and its jobs resume from their last pushed
/// snapshots, byte-identical.
#[test]
fn supervisor_survives_shard_sigkill() {
    let mut cfg = ServeConfig::new(2);
    cfg.tick_rounds = 2;
    cfg.snapshot_every_ticks = 1;
    cfg.processes = Some(ProcessShards {
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_marsit_serve"))),
        ..ProcessShards::default()
    });
    let mut handle = JobServer::start(cfg);
    // Long enough that the kill below, 300 ms after shard 0 is up, lands
    // mid-job even on a fast idle host: there, 240-round jobs could all
    // finish before it, while 1 200 rounds keep each shard busy for over a
    // second (the whole test takes ≈ 2.5 s on a 2-core host).
    for i in 0..4 {
        handle.submit(tiny_spec(&format!("p{i}"), 60 + i, 1200));
    }

    // Wait for shard 0 to be up and working, then SIGKILL it.
    let mut pid = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(20));
        if let Some(p) = handle.shard_pid(0) {
            pid = Some(p);
            break;
        }
    }
    let pid = pid.expect("shard 0 came up");
    std::thread::sleep(Duration::from_millis(300));
    assert!(handle.completed() < 4, "the kill must land mid-job");
    let killed = Command::new("kill")
        .args(["-9", &pid.to_string()])
        .status()
        .expect("run kill")
        .success();
    assert!(killed, "kill -9 {pid} failed");
    // `finish` must not race the death signal: once the jobs are done an
    // idle shard's EOF and the finish message arrive in either order.
    for _ in 0..100 {
        if handle.shard_pid(0) != Some(pid) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    let report = handle.finish();
    assert_eq!(report.failure, None, "supervised serve completes");
    assert_eq!(report.remote_outcomes.len(), 4, "every job finished");
    assert!(
        report.shard_deaths >= 1,
        "the killed shard must be detected as dead"
    );
    for outcome in &report.remote_outcomes {
        verify_recovered(outcome).expect("outcome byte-identical across shard death");
    }
}

/// An idle server must not busy-wait: an idle shard blocks on its link, so
/// 8 idle shards make no idle wakeup at all over ~600 ms (1 ms polling
/// would have made about 4 800).
#[test]
fn idle_shards_back_off_instead_of_busy_waiting() {
    let cfg = ServeConfig::new(8);
    let idle_for = Duration::from_millis(600);
    let handle = JobServer::start(cfg);
    std::thread::sleep(idle_for);
    let report = handle.finish();

    assert_eq!(report.shards.len(), 8, "every shard reported");
    let total_wakeups: u64 = report.shards.iter().map(|s| s.idle_wakeups).sum();
    assert_eq!(total_wakeups, 0, "idle shards woke with nothing to do");
}

/// A shard with nothing to do leaves when the last job finishes elsewhere,
/// not when some wait next runs out: the controller stops every shard the
/// moment its last job is done.
#[test]
fn idle_draining_shard_leaves_when_the_last_job_finishes() {
    let mut handle = JobServer::start(ServeConfig::new(2));
    handle.submit(tiny_spec("short", 5, 2));
    let t = std::time::Instant::now();
    let report = handle.finish();
    let drained = t.elapsed();
    assert_eq!(report.outcomes.len(), 1);
    assert!(
        drained < Duration::from_millis(250),
        "finish() took {drained:?}: the idle shard slept out its wait"
    );
}

/// Admission slots are released the same way whichever link the shards
/// use: with `--max-in-flight 1`, three tiny jobs are each deferred until
/// the previous one finishes, then served — in well under one 30 s retry
/// deadline, with threads and with `--supervise`.
#[test]
fn max_in_flight_releases_slots_with_threads_and_processes() {
    let dir = scratch("max-in-flight");
    let queue = dir.join("queue.txt");
    let lines: String = (0..3)
        .map(|i| {
            format!(
                "name=q{i} workload=alexnet_mnist topo=ring:4 rounds=4 seed={i} \
                 examples=128 test=32\n"
            )
        })
        .collect();
    std::fs::write(&queue, lines).expect("write queue");
    for supervise in [false, true] {
        let mut args = vec![queue.to_str().expect("utf8 path"), "--shards", "2"];
        args.extend(["--max-in-flight", "1"]);
        if supervise {
            args.push("--supervise");
        }
        let t = Instant::now();
        let output = Command::new(env!("CARGO_BIN_EXE_marsit_serve"))
            .args(&args)
            .output()
            .expect("run server");
        let took = t.elapsed();
        let stderr = String::from_utf8_lossy(&output.stderr);
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(output.status.success(), "{args:?}: {stderr}");
        let rows = stdout.lines().filter(|l| l.starts_with('q')).count();
        assert_eq!(rows, 3, "{args:?}: {stdout}");
        assert!(took < Duration::from_secs(15), "{args:?} took {took:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A malformed queue is a typed, per-line diagnostic and exit code 2 —
/// never a panic, and nothing is submitted.
#[test]
fn malformed_queue_exits_with_per_line_diagnostics() {
    let dir = scratch("badqueue");
    let queue = dir.join("queue.txt");
    std::fs::write(
        &queue,
        "name=ok0 workload=alexnet_mnist topo=ring:4 k=3 seed=1 rounds=4\n\
         name=bad workload=not_a_model topo=ring:4 rounds=4\n\
         # comment\n\
         name=ok0 workload=alexnet_mnist topo=ring:4 k=3 seed=2 rounds=4\n\
         rounds=nonsense\n",
    )
    .expect("write queue");

    let output = Command::new(env!("CARGO_BIN_EXE_marsit_serve"))
        .arg(queue.to_str().expect("utf8 path"))
        .output()
        .expect("run server");
    assert_eq!(output.status.code(), Some(2), "malformed queue exits 2");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("line 2"),
        "diagnoses the bad workload: {stderr}"
    );
    assert!(
        stderr.contains("line 4"),
        "diagnoses the duplicate name: {stderr}"
    );
    assert!(
        stderr.contains("line 5"),
        "diagnoses the missing name: {stderr}"
    );
    assert!(stderr.contains("nothing submitted"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--journal` on a file the server does not recognise — here a journal in
/// the superseded text format — must refuse, not "recover" by truncating:
/// exit 1, the file named on stderr, every byte still there.
#[test]
fn foreign_journal_is_refused_not_truncated() {
    let dir = scratch("foreign");
    let queue = dir.join("queue.txt");
    let journal = dir.join("old.journal");
    std::fs::write(
        &queue,
        "name=f0 workload=alexnet_mnist topo=ring:4 k=3 seed=1 rounds=2 examples=128 test=32\n",
    )
    .expect("write queue");
    let old = b"marsit-journal/1 0000000000000000 migrate e11b232f tname=g0 from=2 to=0\n";
    std::fs::write(&journal, old).expect("write old journal");

    let output = Command::new(env!("CARGO_BIN_EXE_marsit_serve"))
        .args([
            queue.to_str().expect("utf8 path"),
            "--shards",
            "1",
            "--journal",
            journal.to_str().expect("utf8 path"),
        ])
        .output()
        .expect("run server");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "refusal exits 1: {stderr}");
    assert!(stderr.contains("old.journal"), "names the file: {stderr}");
    assert!(
        stderr.contains("marsit-journal/1"),
        "says what it found: {stderr}"
    );
    assert_eq!(
        std::fs::read(&journal).expect("reread"),
        old,
        "the foreign journal was modified"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A shard worker refuses a value it cannot read before it connects: it
/// used to take a malformed or missing `--shard` for shard 0 and `--tick` /
/// `--snapshot-every` for their defaults, and say hello to whatever
/// listened at `--addr`.
#[test]
fn shard_worker_refuses_malformed_arguments_before_connecting() {
    for (args, flag) in [
        (
            &["--shard", "nine", "--tick", "2", "--snapshot-every", "2"][..],
            "--shard",
        ),
        (&["--tick", "2", "--snapshot-every", "2"][..], "--shard"),
        (
            &["--shard", "0", "--tick", "x", "--snapshot-every", "2"][..],
            "--tick",
        ),
        (&["--shard", "0", "--tick", "2"][..], "--snapshot-every"),
    ] {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut worker = Command::new(env!("CARGO_BIN_EXE_marsit_serve"))
            .args(["--shard-worker", "--addr", &addr])
            .args(args)
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn the shard worker");
        let deadline = Instant::now() + Duration::from_secs(30);
        let status = loop {
            if listener.accept().is_ok() {
                worker.kill().ok();
                worker.wait().ok();
                panic!("{args:?}: the worker connected");
            }
            if let Some(status) = worker.try_wait().expect("poll the worker") {
                break status;
            }
            assert!(
                Instant::now() < deadline,
                "{args:?}: the worker never exited"
            );
            std::thread::sleep(Duration::from_millis(10));
        };
        assert!(listener.accept().is_err(), "{args:?}: the worker connected");
        let mut stderr = String::new();
        worker
            .stderr
            .take()
            .expect("piped stderr")
            .read_to_string(&mut stderr)
            .expect("read stderr");
        assert!(!status.success(), "{args:?}: exited {status}");
        assert!(stderr.contains(flag), "{args:?}: {stderr}");
    }
}
