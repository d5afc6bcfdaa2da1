//! Allocation pins for the training step and the one-bit round.
//!
//! The forward/backward pass writes every intermediate into a caller-owned
//! [`MlpWorkspace`] and `TrainerState` owns every model-sized buffer a round
//! needs, so the steady state of a training round does not go back to the
//! allocator for them. A counting global allocator makes that a test
//! instead of a claim. Counters are per thread, so the tests of this
//! binary can run side by side.
//!
//! The same allocator pins journal replay: the file is read frame by frame
//! into recycled buffers and every checkpoint payload is a view of its
//! frame's, so recovery requests about one frame buffer per job — however
//! many checkpoints the journal holds — and never allocates for a length
//! before its bytes are there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marsit::collectives::torus::torus_allreduce_sum;
use marsit::collectives::{compile_plan, PlanTopology};
use marsit::core::SyncOutcome;
use marsit::models::MlpWorkspace;
use marsit::prelude::*;
use marsit::serve::{
    encode_record, replay_file, JobSpec, JournalError, JournalRecord, SnapshotRecord,
};
use marsit::telemetry::scoped;

thread_local! {
    /// Allocator calls made by this thread.
    static CALLS: Cell<u64> = const { Cell::new(0) };
    /// The largest single request this thread made, in bytes.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
    /// Bytes this thread requested, summed over its calls.
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

fn record(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
    let _ = BYTES.try_with(|b| b.set(b.get() + size as u64));
}

// SAFETY: defers to the system allocator; the bookkeeping touches only
// const-initialized thread-locals and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size());
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        record(new_size);
        // SAFETY: forwarded contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `(allocator calls, largest request in bytes)` this thread made in `f`.
fn measure(f: impl FnOnce()) -> (u64, usize) {
    let before = CALLS.with(Cell::get);
    LARGEST.with(|l| l.set(0));
    f();
    (CALLS.with(Cell::get) - before, LARGEST.with(Cell::get))
}

/// Bytes this thread requested from the allocator in `f` (a `realloc` counts
/// its whole new size).
fn requested_bytes(f: impl FnOnce()) -> u64 {
    let before = BYTES.with(Cell::get);
    f();
    BYTES.with(Cell::get) - before
}

/// A warm workspace makes `Mlp::loss_and_grad_in` allocation-free — on the
/// `train_torus` shape and on a serving-mix shape, and again after the
/// workspace has served a different model in between.
#[test]
fn warm_mlp_pass_allocates_nothing() {
    let (imagenet, _) = imagenet_like().generate_split(96, 8, 1);
    let (mnist, _) = mnist_like().generate_split(16, 8, 2);
    let big = Mlp::new(Workload::ResNet50ImageNet.proxy_spec(), 3);
    let small = Mlp::new(Workload::AlexNetMnist.proxy_spec(), 4);
    let mut big_grad = vec![0.0f32; big.num_params()];
    let mut small_grad = vec![0.0f32; small.num_params()];
    let mut ws = MlpWorkspace::default();

    let cold = big.loss_and_grad_in(&imagenet, &mut big_grad, &mut ws);
    let cold_grad = big_grad.clone();
    small.loss_and_grad_in(&mnist, &mut small_grad, &mut ws);
    for _ in 0..3 {
        let mut loss = 0.0;
        let (calls, _) = measure(|| loss = big.loss_and_grad_in(&imagenet, &mut big_grad, &mut ws));
        assert_eq!(calls, 0, "warm ResNet-50 proxy pass allocated");
        // Reuse is invisible: a warm, previously shared workspace gives the
        // bits of the cold one.
        assert_eq!(loss.to_bits(), cold.to_bits());
        assert!(big_grad
            .iter()
            .zip(&cold_grad)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
        let (calls, _) = measure(|| {
            small.loss_and_grad_in(&mnist, &mut small_grad, &mut ws);
        });
        assert_eq!(calls, 0, "warm AlexNet/MNIST proxy pass allocated");
    }
}

/// A steady-state sequential `TrainerState::step` allocates no model-sized
/// buffer: minibatches, gradients, updates, the f64 gradient mean, the sign
/// vectors of the matching rate, the synchronizer's outcome and the
/// parameter update all live in state the trainer owns. A warm one-bit step
/// makes no allocator call at all; a full-precision step still makes a few
/// small ones.
#[test]
fn sequential_step_allocates_no_model_sized_buffer() {
    let mut cfg = TrainConfig::new(
        Workload::ResNet50ImageNet,
        Topology::torus(2, 4),
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.rounds = 40;
    cfg.train_examples = 1024;
    cfg.test_examples = 64;
    cfg.batch_per_worker = 96;
    cfg.eval_every = 0;
    cfg.parallel_workers = false;
    let mut state = TrainerState::new(&cfg);
    let model_bytes = state.model_dim() * std::mem::size_of::<f32>();
    // Warm-up covers both kinds of round: 0 and 10 are full precision.
    for _ in 0..12 {
        state.step();
    }
    // Rounds 12..34: one-bit rounds and the full-precision rounds 20 and 30.
    for t in 12..34 {
        let (calls, largest) = measure(|| state.step());
        assert!(
            largest < model_bytes,
            "round {t} allocated {largest} bytes at once; the model is {model_bytes}"
        );
        if t % 10 != 0 {
            assert_eq!(calls, 0, "one-bit round {t} went to the allocator");
        }
    }
}

/// The steady-state one-bit round allocates nothing: `synchronize_into`
/// recycles one caller-owned outcome, so eight warm rounds on ring(8) and on
/// torus(2,4) make no allocator call — with no plan, and with a plan that
/// only slows one worker (it fires nothing, so it allocates nothing either).
///
/// Recording costs no allocation either: with no plan, inside a warm
/// recording sink drained into a reused buffer after every round, eight
/// rounds make no allocator call. Hops land in the sink's preallocated
/// batch, a torus column's recorder maps worker ids arithmetically instead
/// of cloning a map, and the `marsit_sync` fields arrive as an array.
/// (Before that, the recording round allocated 1 time on ring(8) — the
/// field vector — and 10 times on torus(2,4).)
///
/// Lanes change none of it: the same holds on a model of three and a bit
/// prologue blocks cut into 2 and 3 lanes. Nor does a materialized
/// residual: flushing a pending one (`Marsit::compensation`) and the round
/// after it, whose prologue reads the stored compensation, allocate
/// nothing.
#[test]
fn onebit_round_allocates_nothing() {
    const LANED_D: usize = 3 * marsit::tensor::PROLOGUE_BLOCK + 37;
    for (d, lanes) in [(8192, 1), (LANED_D, 2), (LANED_D, 3)] {
        for topology in [Topology::ring(8), Topology::torus(2, 4)] {
            onebit_rounds_allocate_nothing(topology, d, lanes);
        }
    }
}

fn onebit_rounds_allocate_nothing(topology: Topology, d: usize, lanes: usize) {
    let m = topology.workers();
    let updates: Vec<Vec<f32>> = (0..m)
        .map(|w| {
            (0..d)
                .map(|x| ((x * 31 + w * 7) % 211) as f32 * 1e-4 - 0.01)
                .collect()
        })
        .collect();
    let shape = format!("{topology:?}, d={d}, {lanes} lanes");
    for (label, plan) in [
        ("no plan", FaultPlan::none()),
        ("a straggler", FaultPlan::seeded(7).with_straggler(1, 2.0)),
    ] {
        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 7)
            .with_fault_plan(plan)
            .with_lanes(lanes);
        let mut sync = Marsit::new(cfg, m, d);
        let mut out = SyncOutcome::default();
        sync.synchronize_into(&updates, topology, &mut out);
        let (calls, _) = measure(|| {
            for _ in 0..8 {
                sync.synchronize_into(&updates, topology, &mut out);
            }
        });
        assert_eq!(calls, 0, "{shape}, {label}: warm one-bit rounds allocated");
        for _ in 0..2 {
            let (calls, _) = measure(|| {
                let _ = sync.compensation(0);
            });
            assert_eq!(calls, 0, "{shape}, {label}: the residual flush allocated");
            let (calls, _) = measure(|| sync.synchronize_into(&updates, topology, &mut out));
            assert_eq!(
                calls, 0,
                "{shape}, {label}: a round without a pending residual allocated"
            );
        }
    }

    let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 7).with_lanes(lanes);
    let mut sync = Marsit::new(cfg, m, d);
    let mut out = SyncOutcome::default();
    let tel = Telemetry::recording();
    let mut jsonl = String::new();
    let mut round = || {
        scoped(&tel, || sync.synchronize_into(&updates, topology, &mut out));
        jsonl.clear();
        tel.drain_events_jsonl_into(&mut jsonl);
    };
    for _ in 0..8 {
        round();
    }
    let (calls, _) = measure(|| {
        for _ in 0..8 {
            round();
        }
    });
    assert_eq!(calls, 0, "{shape}: warm recorded one-bit rounds allocated");
    assert!(
        jsonl.contains("\"ev\":\"marsit_sync\""),
        "the sink recorded"
    );
}

/// A warm full-precision round allocates nothing either: the walk records
/// its folds into the workspace's `SumReplay` and its trace into the
/// outcome's recycled step slots, and the prologue sweep replays the folds
/// in place. With a full-precision round every other round (`K = 2`), eight
/// warm rounds on ring(8) and torus(2,4), at 1 and 2 lanes, plain and
/// recorded, make no allocator call on a clean fabric. Under drops and
/// corruption a round whose retries outgrow every trace slot so far still
/// grows one, at `K = 2` as at `K = never`: a full-precision round walks the
/// same hops with the same fates as a one-bit round, so the two runs make
/// exactly as many calls. (Before, each full-precision round copied every
/// update into buffers of its own and replaced the outcome's trace, 41 to
/// 46 calls, and the faulty one-bit round after it regrew the slots.)
#[test]
fn full_precision_round_allocates_nothing() {
    const D: usize = 3 * marsit::tensor::PROLOGUE_BLOCK + 37;
    let faulty = FaultPlan::seeded(5)
        .with_link_drop(0.05)
        .with_link_corruption(0.02);
    for topology in [Topology::ring(8), Topology::torus(2, 4)] {
        for lanes in [1, 2] {
            for (label, plan) in [("no plan", FaultPlan::none()), ("drops", faulty.clone())] {
                for recorded in [false, true] {
                    let calls = |schedule| {
                        let cfg = MarsitConfig::new(schedule, 0.01, 7)
                            .with_fault_plan(plan.clone())
                            .with_lanes(lanes);
                        warm_round_calls(cfg, topology, D, recorded)
                    };
                    let (k2, never) = (calls(SyncSchedule::every(2)), calls(SyncSchedule::never()));
                    let shape =
                        format!("{topology:?}, {lanes} lanes, {label}, recorded {recorded}");
                    assert_eq!(k2, never, "{shape}: K = 2 against K = never");
                    if plan.is_none() {
                        assert_eq!(k2, 0, "{shape}: warm rounds at K = 2 allocated");
                    }
                }
            }
        }
    }
}

/// Allocator calls of eight rounds after sixteen warm ones, each round
/// drained from a recording sink into a reused buffer if `recorded`.
fn warm_round_calls(cfg: MarsitConfig, topology: Topology, d: usize, recorded: bool) -> u64 {
    let m = topology.workers();
    let updates: Vec<Vec<f32>> = (0..m)
        .map(|w| {
            (0..d)
                .map(|x| ((x * 13 + w * 5) % 97) as f32 * 1e-4 - 0.005)
                .collect()
        })
        .collect();
    let mut sync = Marsit::new(cfg, m, d);
    let mut out = SyncOutcome::default();
    let tel = Telemetry::recording();
    let mut jsonl = String::new();
    let mut round = || {
        if recorded {
            scoped(&tel, || sync.synchronize_into(&updates, topology, &mut out));
            jsonl.clear();
            tel.drain_events_jsonl_into(&mut jsonl);
        } else {
            sync.synchronize_into(&updates, topology, &mut out);
        }
    };
    for _ in 0..16 {
        round();
    }
    measure(|| {
        for _ in 0..8 {
            round();
        }
    })
    .0
}

/// Compiling a plan is the bookkeeping half of the schedule walk and touches
/// no payload: for the `sync_large` shape — seven ranks, 1 048 583
/// coordinates, 128 KiB per packed sign vector — no single request reaches
/// 64 KiB, so nobody implements it as a walk over `world` zeroed inputs.
#[test]
fn compiling_a_plan_allocates_no_payload() {
    let mut transfers = 0;
    let (_, largest) = measure(|| {
        let plan = compile_plan(PlanTopology::Ring, 7, 1_048_583, None).expect("valid shape");
        transfers = plan.transfers.len();
    });
    assert_eq!(transfers, 2 * 6 * 7);
    assert!(
        largest < 64 << 10,
        "compile_plan requested {largest} bytes at once"
    );
}

/// The `f32` torus sum works in place on its callers' buffers — the column
/// phase addresses them through the walk's frame instead of copying chunks
/// out and back, and no hop clones what it sends: at the `train_torus` shape
/// (torus(2,4), 170 674 parameters, 167 KiB per chunk) no single request
/// reaches 64 KiB.
#[test]
fn torus_sum_allocates_no_payload() {
    let mut data: Vec<Vec<f32>> = (0..8)
        .map(|w| {
            (0..170_674)
                .map(|x| ((x + w) % 251) as f32 - 125.0)
                .collect()
        })
        .collect();
    let mut steps = 0;
    let (_, largest) = measure(|| steps = torus_allreduce_sum(&mut data, 2, 4).num_steps());
    assert_eq!(steps, 2 * 3 + 2);
    assert!(data.iter().all(|w| w == &data[0]));
    assert!(
        largest < 64 << 10,
        "torus_allreduce_sum requested {largest} bytes at once"
    );
}

/// A journal of `jobs` jobs with `snapshots` snapshots each, the jobs
/// interleaved: `(bytes, summed log bytes, largest frame)`. Job `j`'s
/// snapshot `s` carries [`payload`]`(j, s)` and a log that grows with `s`.
fn snapshot_journal(jobs: usize, snapshots: usize) -> (Vec<u8>, usize, usize) {
    let mut records: Vec<JournalRecord> = (0..jobs)
        .map(|job| JournalRecord::Submit {
            spec: JobSpec::new(job_name(job), Workload::AlexNetMnist, Topology::ring(4)),
        })
        .collect();
    let mut log_bytes = 0;
    for snap in 0..snapshots {
        for job in 0..jobs {
            let log = "{\"ev\":\"hop\"}\n".repeat(64 * (snap + 1));
            log_bytes += log.len();
            records.push(JournalRecord::Snapshot(SnapshotRecord {
                name: job_name(job),
                shard: job % 2,
                migrations: 0,
                round: 2 * (snap as u64 + 1),
                tel_seq: 100 * snap as u64,
                snapshot_json: payload(job, snap).into(),
                log,
            }));
        }
    }
    let frames: Vec<Vec<u8>> = records
        .iter()
        .enumerate()
        .map(|(seq, record)| encode_record(seq as u64, record).expect("representable"))
        .collect();
    let largest = frames.iter().map(Vec::len).max().unwrap_or(0);
    (frames.concat(), log_bytes, largest)
}

/// Checkpoint bytes of job `job`'s snapshot `snap`.
fn payload(job: usize, snap: usize) -> Vec<u8> {
    (0..PAYLOAD)
        .map(|i| (i * 31 + job * 7 + snap) as u8)
        .collect()
}

fn job_name(job: usize) -> String {
    format!("job{job}")
}

const PAYLOAD: usize = 256 << 10;

/// A unique scratch file per test.
fn scratch_file(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("marsit-replay-{tag}-{}", std::process::id()))
}

/// Replaying a journal streams it: each frame is read into a recycled
/// buffer, and the fold hands a superseded checkpoint's buffer back for a
/// later frame. So `replay_file` + `plan` request about one frame buffer
/// per job — twice the largest frame each, room to grow — plus the
/// telemetry logs, which are copied out of every record, and a read-ahead
/// buffer: a bound with no term for the checkpoints the journal holds. The
/// same bound holds for four times the snapshots. Each job resumes from its
/// last snapshot's bytes, planning twice shares them, and cloning a resume
/// shares its payload.
#[test]
fn replay_memory_does_not_grow_with_the_journal() {
    const JOBS: usize = 3;
    for snapshots in [6, 24] {
        let (journal, log_bytes, largest_frame) = snapshot_journal(JOBS, snapshots);
        let path = scratch_file(&format!("stream-{snapshots}"));
        std::fs::write(&path, &journal).expect("write journal");

        let mut recovered = None;
        let requested = requested_bytes(|| {
            let replay = replay_file(&path).expect("replay journal");
            let plan = replay.state.plan();
            recovered = Some((replay, plan));
        });
        std::fs::remove_file(&path).ok();
        let (replay, plan) = recovered.expect("replayed");
        assert!(replay.torn.is_none());
        assert_eq!(replay.next_seq as usize, JOBS * (snapshots + 1));
        assert_eq!(replay.valid_len, journal.len());
        let budget = (JOBS + 2) * 2 * largest_frame + 3 * log_bytes + (64 << 10);
        assert!(
            requested <= budget as u64,
            "replaying a {}-byte journal of {snapshots} snapshots per job requested \
             {requested} bytes (budget {budget})",
            journal.len()
        );

        assert_eq!(plan.resumes.len(), JOBS);
        let again = replay.state.plan();
        for (job, (resume, twin)) in plan.resumes.iter().zip(&again.resumes).enumerate() {
            assert_eq!(resume.spec.name, job_name(job));
            assert_eq!(&resume.snapshot_json[..], &payload(job, snapshots - 1)[..]);
            // The same memory, not an equal copy of it.
            assert!(std::ptr::eq(
                resume.snapshot_json.as_ptr(),
                twin.snapshot_json.as_ptr()
            ));
        }
        let (_, largest) = measure(|| drop(std::hint::black_box(plan.resumes[0].clone())));
        assert!(
            largest < PAYLOAD / 8,
            "cloning a resume requested {largest} bytes at once"
        );
    }
}

/// A header that claims a `u32::MAX`-byte body on a short file is a torn
/// tail, `Truncated`, and no single allocation of the replay exceeds the
/// file's size: nothing is allocated for a length before its bytes are
/// there.
#[test]
fn hostile_record_length_allocates_nothing_the_file_lacks() {
    let (mut journal, _, _) = snapshot_journal(1, 1);
    let valid = journal.len();
    let mut hostile = encode_record(
        2,
        &JournalRecord::Migrate {
            name: job_name(0),
            from: 0,
            to: 1,
        },
    )
    .expect("representable");
    hostile[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    journal.extend_from_slice(&hostile);
    let path = scratch_file("hostile");
    std::fs::write(&path, &journal).expect("write journal");

    let mut replayed = None;
    let (_, largest) = measure(|| replayed = Some(replay_file(&path).expect("replay journal")));
    std::fs::remove_file(&path).ok();
    let replay = replayed.expect("replayed");
    assert_eq!((replay.valid_len, replay.next_seq), (valid, 2));
    assert_eq!(
        replay.torn,
        Some(JournalError::Wire(marsit::simnet::WireError::Truncated))
    );
    assert!(
        largest <= journal.len(),
        "a {}-byte journal requested {largest} bytes at once",
        journal.len()
    );
}
