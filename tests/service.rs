//! The job server's bit-exactness guarantee, attacked from every angle.
//!
//! The scheduler's contract is absolute: no matter how jobs are mixed onto
//! shards, how often they are preempted, how many times they migrate, or
//! whose recycled workspace they adopt, every job's final report and
//! telemetry log must be **byte-identical** to a solo run of the same spec
//! on a dedicated thread. These tests drive random job mixes, shard counts,
//! and seeded preemption/migration schedules through the server and verify
//! exactly that — plus the crash-mid-migration path, where a written
//! snapshot is restored on a different OS thread after the source state is
//! gone.

use marsit::models::Workload;
use marsit::serve::{
    parse_queue, run_solo, JobServer, JobSpec, MigrationPolicy, ServeConfig, WorkspaceKey,
    WorkspacePool,
};
use marsit::simnet::{FaultPlan, Topology};
use marsit::telemetry::report::{parse_jsonl, strip_wall_clock};
use marsit::telemetry::{Event, Telemetry};
use marsit::tensor::rng::FastRng;
use marsit::trainsim::{TrainSnapshot, TrainerState};
use proptest::prelude::*;

/// A property-scale job: a few rounds on tiny data so each case stays fast.
fn tiny_spec(name: &str, case: u64, shape: u64) -> JobSpec {
    let (workload, topology) = match shape % 3 {
        0 => (Workload::AlexNetMnist, Topology::ring(4)),
        1 => (Workload::ResNet20Cifar10, Topology::torus(2, 2)),
        _ => (Workload::AlexNetMnist, Topology::ring(8)),
    };
    let mut spec = JobSpec::new(name, workload, topology);
    spec.rounds = 5;
    spec.seed = case.wrapping_mul(0x9E37_79B9) ^ shape;
    spec.train_examples = 128;
    spec.test_examples = 32;
    spec.k = if shape.is_multiple_of(2) {
        Some(3)
    } else {
        None
    };
    if shape % 4 == 3 {
        spec.fault_plan = FaultPlan::seeded(case ^ 0xFA_17).with_link_drop(0.05);
    }
    spec
}

proptest! {
    /// Random (job mix × shard count × seeded preemption/migration
    /// schedule): every job's report and telemetry log are byte-identical
    /// to its solo run.
    #[test]
    fn served_jobs_are_byte_identical_to_solo_runs(
        case in any::<u64>(),
        jobs in 2usize..5,
        shards in 1usize..4,
        tick in 1usize..4,
    ) {
        let mut cfg = ServeConfig::new(shards);
        cfg.tick_rounds = tick;
        cfg.pool_cap_per_key = 2;
        // An aggressive seeded schedule: roughly every other tick tries to
        // move the job to a random other shard.
        cfg.migration = MigrationPolicy::Seeded { seed: case, per_mille: 500 };
        let mut handle = JobServer::start(cfg);
        for i in 0..jobs {
            handle.submit(tiny_spec(&format!("p{i}"), case, case >> 8 | i as u64));
        }
        let report = handle.finish();
        prop_assert_eq!(report.outcomes.len(), jobs);
        for outcome in &report.outcomes {
            let solo = run_solo(&outcome.spec);
            prop_assert_eq!(
                format!("{:?}", outcome.report),
                format!("{:?}", solo.report),
                "report diverged for {} (migrations: {}, path {:?})",
                outcome.spec.name, outcome.migrations, outcome.shard_path
            );
            prop_assert_eq!(
                &outcome.log, &solo.log,
                "telemetry bytes diverged for {}", outcome.spec.name
            );
            // Belt and braces: the stripped event streams (wall-clock
            // fields zeroed) must also parse and compare equal.
            let mut served = parse_jsonl(&outcome.log).expect("served log parses");
            let mut solo_ev = parse_jsonl(&solo.log).expect("solo log parses");
            strip_wall_clock(&mut served);
            strip_wall_clock(&mut solo_ev);
            prop_assert_eq!(served, solo_ev);
        }
    }
}

/// Crash mid-migration: the snapshot was written (the migration wire
/// format — serialized snapshot JSON plus the job's telemetry handle and
/// flushed log), and the shard that owned the live state died before the
/// hand-off completed. A fresh OS thread — a stand-in for the surviving
/// shard that picks the job back up, exactly the scheduler's send-failure
/// recovery path — restores from the written bytes alone, adopts a dirty
/// pooled workspace from a completely different job, and finishes the run.
/// Report and concatenated log must match an uninterrupted solo run
/// exactly.
#[test]
fn crash_mid_migration_restores_on_another_shard() {
    let spec = {
        let mut s = JobSpec::new("crashed", Workload::AlexNetMnist, Topology::ring(4));
        s.rounds = 10;
        s.seed = 77;
        s.train_examples = 256;
        s.test_examples = 64;
        s.k = Some(4);
        s
    };
    let solo = run_solo(&spec);

    // Source shard: run 6 rounds, flush telemetry, write the snapshot.
    let tel = Telemetry::recording();
    let cfg = spec.to_train_config(tel.clone());
    let mut state = TrainerState::new(&cfg);
    for _ in 0..6 {
        state.step();
    }
    let snapshot_json = state.snapshot().to_json();
    let mut log = String::new();
    tel.drain_events_jsonl_into(&mut log);
    drop(state); // the crash: live trainer state and workspace are gone
    drop(cfg);

    // A dirty workspace from an unrelated job, waiting in the target
    // shard's pool.
    let mut pool = WorkspacePool::new(2);
    {
        let donor = {
            let mut s = JobSpec::new("donor", Workload::AlexNetMnist, Topology::ring(4));
            s.rounds = 3;
            s.seed = 991;
            s.train_examples = 128;
            s.test_examples = 32;
            s
        };
        let donor_cfg = donor.to_train_config(Telemetry::disabled());
        let mut donor_state = TrainerState::new(&donor_cfg);
        while !donor_state.is_done() {
            donor_state.step();
        }
        let key = WorkspaceKey::new(donor_state.model_dim(), donor.topology);
        let handle = donor_state.release_workspace().expect("marsit releases");
        pool.checkin(key, handle);
    }

    // Target shard: restore on a different OS thread from the written
    // bytes, adopt the dirty workspace, run to completion.
    let spec2 = spec.clone();
    let (report, log) = std::thread::spawn(move || {
        let cfg = spec2.to_train_config(tel.clone());
        let snapshot = TrainSnapshot::from_json(&snapshot_json).expect("snapshot parses");
        let mut state = TrainerState::restore(&cfg, &snapshot);
        let key = WorkspaceKey::new(state.model_dim(), spec2.topology);
        let handle = pool.checkout(key).expect("donor workspace pooled");
        state.adopt_workspace(handle);
        let mut log = log;
        while !state.is_done() {
            state.step();
        }
        let report = state.finish();
        tel.drain_events_jsonl_into(&mut log);
        (report, log)
    })
    .join()
    .expect("target shard thread");

    assert_eq!(
        format!("{report:?}"),
        format!("{:?}", solo.report),
        "crash-recovered report must match the uninterrupted run"
    );
    assert_eq!(
        log, solo.log,
        "concatenated telemetry across the crash must be byte-identical"
    );
}

/// Adopting a workspace dirtied by a different shape (same d, different
/// worker count / topology class is a different key, so same-key here) and
/// by a job with different data never changes an output bit.
#[test]
fn adopted_dirty_workspace_is_bit_invisible() {
    let mk = |name: &str, seed: u64| {
        let mut s = JobSpec::new(name, Workload::AlexNetMnist, Topology::ring(4));
        s.rounds = 6;
        s.seed = seed;
        s.train_examples = 128;
        s.test_examples = 32;
        s
    };
    // Reference: job B from a cold workspace.
    let reference = run_solo(&mk("b", 5));

    // Job A runs first and donates its workspace; B adopts it mid-pool.
    let a_cfg = mk("a", 1).to_train_config(Telemetry::disabled());
    let mut a = TrainerState::new(&a_cfg);
    while !a.is_done() {
        a.step();
    }
    let handle = a.release_workspace().expect("marsit releases");

    let spec_b = mk("b", 5);
    let tel = Telemetry::recording();
    let b_cfg = spec_b.to_train_config(tel.clone());
    let mut b = TrainerState::new(&b_cfg);
    b.adopt_workspace(handle);
    while !b.is_done() {
        b.step();
    }
    let report = b.finish();
    let mut log = String::new();
    tel.drain_events_jsonl_into(&mut log);

    assert_eq!(format!("{report:?}"), format!("{:?}", reference.report));
    assert_eq!(log, reference.log);
}

/// The batched (per-tick) telemetry flush produces the same bytes as any
/// other flush cadence — here, per-round flushing vs one final drain.
#[test]
fn flush_cadence_never_changes_the_bytes() {
    let spec = {
        let mut s = JobSpec::new("cadence", Workload::AlexNetMnist, Topology::ring(4));
        s.rounds = 6;
        s.seed = 13;
        s.train_examples = 128;
        s.test_examples = 32;
        s
    };
    // Per-round flushes, concatenated.
    let tel = Telemetry::recording();
    let cfg = spec.to_train_config(tel.clone());
    let mut state = TrainerState::new(&cfg);
    let mut per_round = String::new();
    while !state.is_done() {
        state.step();
        tel.drain_events_jsonl_into(&mut per_round);
    }
    let _ = state.finish();
    tel.drain_events_jsonl_into(&mut per_round);

    let one_drain = run_solo(&spec).log;
    assert_eq!(per_round, one_drain);
}

/// Valid queue lines the near misses below are made from: every key of the
/// grammar appears in one of them.
const QUEUE_LINES: [&str; 3] = [
    "name=j0 workload=alexnet_mnist topo=ring:4 k=20 seed=7 rounds=40",
    "name=t-1 tenant=team-a workload=resnet20_cifar10 topo=torus:2x2 k=never seed=3 \
     rounds=6 examples=128 test=32 batch=8 lr=0.05 glr=0.001 fault=9:50",
    "name=x workload=distilbert_imdb topo=ring:8 lr=1e-3 fault=5:0",
];

/// Pieces of text that reach the grammar's branches and edges: keys,
/// separators, numbers at and past their limits, float spellings,
/// whitespace, comments and non-ASCII.
const PIECES: [&str; 40] = [
    "name",
    "tenant",
    "workload",
    "topo",
    "k",
    "seed",
    "rounds",
    "examples",
    "lr",
    "glr",
    "fault",
    "ring:",
    "torus:",
    "never",
    "alexnet_mnist",
    "=",
    ":",
    "x",
    " ",
    "\t",
    "0",
    "1",
    "2",
    "9",
    "1000",
    "1001",
    "-",
    "+",
    ".",
    "e",
    "NaN",
    "-inf",
    "#",
    "é",
    "\u{0}",
    "\n",
    "18446744073709551616",
    "4294967296",
    "-0",
    "1e39",
];

/// Numbers at and past the limits the grammar's values have.
const EDGES: [&str; 14] = [
    "0",
    "1",
    "2",
    "3",
    "999",
    "1000",
    "1001",
    "4294967295",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "+7",
    "0.5",
];

/// A string of up to `max` random pieces.
fn pieces(rng: &mut FastRng, max: u64) -> String {
    (0..rng.next_range(max + 1))
        .map(|_| PIECES[rng.next_range(PIECES.len() as u64) as usize])
        .collect()
}

/// A near miss of `line`: one to three edits — a token's value (or the
/// part after its last separator) replaced, a token dropped, doubled or cut
/// short, or text inserted.
fn near_miss(rng: &mut FastRng, line: &str) -> String {
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    for _ in 0..=rng.next_range(2) {
        let at = rng.next_range(tokens.len() as u64) as usize;
        match rng.next_range(5) {
            0 => {
                // Keep the key and any value prefix (`ring:`, `torus:2x`,
                // `fault=9:`), so the edit lands on a number: an edge value
                // of the integer types, or pieces.
                let keep = tokens[at].rfind([':', 'x', '=']).map_or(0, |i| i + 1);
                let value = match rng.next_range(2) {
                    0 => EDGES[rng.next_range(EDGES.len() as u64) as usize].to_string(),
                    _ => pieces(rng, 3),
                };
                tokens[at].truncate(keep);
                tokens[at].push_str(&value);
            }
            1 if tokens.len() > 1 => {
                tokens.remove(at);
            }
            2 => tokens.insert(at, tokens[at].clone()),
            3 => {
                let cut = rng.next_range(tokens[at].len() as u64 + 1) as usize;
                let cut = (0..=cut)
                    .rev()
                    .find(|&c| tokens[at].is_char_boundary(c))
                    .unwrap_or(0);
                tokens[at].truncate(cut);
            }
            _ => {
                let extra = pieces(rng, 4);
                tokens.insert(at, extra);
            }
        }
    }
    tokens.join(" ")
}

/// Field for field, floats by their bits.
fn same_spec(a: &JobSpec, b: &JobSpec) -> bool {
    a.name == b.name
        && a.tenant == b.tenant
        && a.workload == b.workload
        && a.topology == b.topology
        && a.k == b.k
        && a.seed == b.seed
        && a.rounds == b.rounds
        && a.fault_plan == b.fault_plan
        && a.train_examples == b.train_examples
        && a.test_examples == b.test_examples
        && a.batch_per_worker == b.batch_per_worker
        && a.local_lr.to_bits() == b.local_lr.to_bits()
        && a.global_lr.to_bits() == b.global_lr.to_bits()
}

proptest! {
    /// The queue-line decoder returns a spec or a typed error on arbitrary
    /// text and on near misses of valid lines — never a panic — and every
    /// spec it accepts that `to_line` can write comes back from that line
    /// field for field: the round trip a journaled `Submit` depends on.
    #[test]
    fn job_spec_lines_never_panic_and_round_trip(seed in any::<u64>()) {
        let mut rng = FastRng::new(seed, 0);
        for i in 0..64 {
            let text = if i % 4 == 0 {
                pieces(&mut rng, 12)
            } else {
                let line = QUEUE_LINES[rng.next_range(QUEUE_LINES.len() as u64) as usize];
                near_miss(&mut rng, line)
            };
            let Ok(spec) = JobSpec::parse_line(&text) else { continue };
            let Ok(line) = spec.to_line() else { continue };
            let back = JobSpec::parse_line(&line);
            prop_assert!(
                back.as_ref().is_ok_and(|back| same_spec(&spec, back)),
                "{text:?} -> {line:?} -> {back:?}"
            );
        }
    }

    /// A whole queue of such lines, with comments and blank lines between
    /// them, parses without a panic: each line is a spec or one diagnostic
    /// naming it, and the specs are the lines `parse_line` accepts.
    #[test]
    fn queues_never_panic(seed in any::<u64>()) {
        let mut rng = FastRng::new(seed, 1);
        let mut lines = Vec::new();
        for _ in 0..1 + rng.next_range(12) {
            let line = QUEUE_LINES[rng.next_range(QUEUE_LINES.len() as u64) as usize];
            lines.push(match rng.next_range(4) {
                0 => line.to_string(),
                1 => format!("# {line}"),
                2 => String::new(),
                _ => near_miss(&mut rng, line),
            });
        }
        let text = lines.join("\n");
        let (specs, diagnostics) = parse_queue(&text);
        let counted = text
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim().starts_with('#'))
            .count();
        prop_assert_eq!(specs.len() + diagnostics.len(), counted);
        for diag in &diagnostics {
            prop_assert!(diag.line_no >= 1 && diag.line_no <= text.lines().count());
        }
    }

    /// The JSONL event decoder returns an event or a typed error on
    /// arbitrary text and on near misses of real event lines.
    #[test]
    fn event_lines_never_panic(seed in any::<u64>()) {
        const EVENTS: [&str; 2] = [
            r#"{"t":0.000125,"ev":"hop","round":3,"step":1,"from":2,"to":3,"bytes":128,"ok":true}"#,
            r#"{"t":1,"ev":"run_meta","topology":"ring(4)","d":17226,"loss":2.5e-3,"tag":"a\"b\u00e9"}"#,
        ];
        const JSON: [&str; 16] = [
            "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "00e9", "1e999", "-", "true", "null",
            "é", " ",
        ];
        let mut rng = FastRng::new(seed, 2);
        for _ in 0..64 {
            let mut text = EVENTS[rng.next_range(2) as usize].to_string();
            for _ in 0..=rng.next_range(3) {
                let at = (0..=rng.next_range(text.len() as u64 + 1) as usize)
                    .rev()
                    .find(|&c| text.is_char_boundary(c))
                    .unwrap_or(0);
                match rng.next_range(3) {
                    0 => text.insert_str(at, JSON[rng.next_range(16) as usize]),
                    1 => text.truncate(at),
                    _ => {
                        let piece = JSON[rng.next_range(16) as usize];
                        text = format!("{}{piece}{}", &text[..at], text[at..].trim_start_matches(|c| c != ','));
                    }
                }
            }
            let _ = Event::parse_jsonl(&text);
        }
    }
}

/// A line nested far deeper than any event is a typed error, not a stack
/// overflow: the decoder recurses once per level.
#[test]
fn deeply_nested_event_lines_are_refused() {
    for open in ["[", "{\"a\":"] {
        let text = format!(r#"{{"t":0,"ev":"x","f":{}"#, open.repeat(100_000));
        assert!(Event::parse_jsonl(&text).is_err());
    }
}
