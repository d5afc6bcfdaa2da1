//! Allocation pins for the training step and the one-bit round.
//!
//! The forward/backward pass writes every intermediate into a caller-owned
//! [`MlpWorkspace`] and `TrainerState` owns every model-sized buffer a round
//! needs, so the steady state of a training round does not go back to the
//! allocator for them. A counting global allocator makes that a test
//! instead of a claim. Counters are per thread, so the tests of this
//! binary can run side by side.
//!
//! The same allocator pins journal replay: the file is read into one buffer
//! and every checkpoint payload is a view of it, so recovery requests the
//! journal's bytes once, not once per holder of each record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use marsit::collectives::torus::torus_allreduce_sum;
use marsit::collectives::{compile_plan, PlanTopology};
use marsit::core::SyncOutcome;
use marsit::models::MlpWorkspace;
use marsit::prelude::*;
use marsit::serve::{
    encode_record, plan_from_replay, replay_file, JobSpec, JournalRecord, SnapshotRecord,
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
#[test]
fn onebit_round_allocates_nothing() {
    const D: usize = 8192;
    for topology in [Topology::ring(8), Topology::torus(2, 4)] {
        let m = topology.workers();
        let updates: Vec<Vec<f32>> = (0..m)
            .map(|w| {
                (0..D)
                    .map(|x| ((x * 31 + w * 7) % 211) as f32 * 1e-4 - 0.01)
                    .collect()
            })
            .collect();
        for (label, plan) in [
            ("no plan", FaultPlan::none()),
            ("a straggler", FaultPlan::seeded(7).with_straggler(1, 2.0)),
        ] {
            let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 7).with_fault_plan(plan);
            let mut sync = Marsit::new(cfg, m, D);
            let mut out = SyncOutcome::default();
            sync.synchronize_into(&updates, topology, &mut out);
            let (calls, _) = measure(|| {
                for _ in 0..8 {
                    sync.synchronize_into(&updates, topology, &mut out);
                }
            });
            assert_eq!(
                calls, 0,
                "{topology:?}, {label}: warm one-bit rounds allocated"
            );
        }

        let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 7);
        let mut sync = Marsit::new(cfg, m, D);
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
        assert_eq!(
            calls, 0,
            "{topology:?}: warm recorded one-bit rounds allocated"
        );
        assert!(
            jsonl.contains("\"ev\":\"marsit_sync\""),
            "the sink recorded"
        );
    }
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

/// Replaying a journal reads it into one buffer and hands every snapshot
/// record a view of that buffer: `replay_file` + `plan_from_replay` request
/// the file's bytes once (plus the telemetry logs, which are still copied per
/// holder), each job resumes from the very bytes of its last record, and
/// cloning a record shares its payload. Three jobs, six snapshots each.
#[test]
fn replay_shares_one_buffer_instead_of_copying_payloads() {
    const JOBS: usize = 3;
    const SNAPSHOTS: usize = 6;
    const PAYLOAD: usize = 256 << 10;
    let payload = |job: usize, snap: usize| -> Vec<u8> {
        (0..PAYLOAD)
            .map(|i| (i * 31 + job * 7 + snap) as u8)
            .collect()
    };
    let name = |job: usize| format!("job{job}");
    let mut records: Vec<JournalRecord> = (0..JOBS)
        .map(|job| JournalRecord::Submit {
            spec: JobSpec::new(name(job), Workload::AlexNetMnist, Topology::ring(4)),
        })
        .collect();
    let mut log_bytes = 0;
    for snap in 0..SNAPSHOTS {
        for job in 0..JOBS {
            let log = "{\"ev\":\"hop\"}\n".repeat(64 * (snap + 1));
            log_bytes += log.len();
            records.push(JournalRecord::Snapshot(SnapshotRecord {
                name: name(job),
                shard: job % 2,
                migrations: 0,
                round: 2 * (snap as u64 + 1),
                tel_seq: 100 * snap as u64,
                snapshot_json: payload(job, snap).into(),
                log,
            }));
        }
    }
    let journal: Vec<u8> = records
        .iter()
        .enumerate()
        .flat_map(|(seq, record)| encode_record(seq as u64, record).expect("representable"))
        .collect();
    let path = std::env::temp_dir().join(format!("marsit-replay-alloc-{}", std::process::id()));
    std::fs::write(&path, &journal).expect("write journal");

    let mut recovered = None;
    let requested = requested_bytes(|| {
        let replay = replay_file(&path).expect("replay journal");
        let plan = plan_from_replay(&replay);
        recovered = Some((replay, plan));
    });
    std::fs::remove_file(&path).ok();
    let (replay, plan) = recovered.expect("replayed");
    assert!(replay.torn.is_none());
    assert_eq!(replay.records.len(), records.len());
    let budget = journal.len() + journal.len() / 4 + 3 * log_bytes + (64 << 10);
    assert!(
        requested <= budget as u64,
        "replaying a {}-byte journal requested {requested} bytes (budget {budget})",
        journal.len()
    );

    assert_eq!(plan.resumes.len(), JOBS);
    for (job, resume) in plan.resumes.iter().enumerate() {
        let last = replay
            .records
            .iter()
            .rev()
            .find_map(|(_, record)| match record {
                JournalRecord::Snapshot(s) if s.name == resume.spec.name => Some(s),
                _ => None,
            })
            .expect("every job has snapshots");
        assert_eq!(resume.spec.name, name(job));
        assert_eq!(&resume.snapshot_json[..], &payload(job, SNAPSHOTS - 1)[..]);
        // The same memory, not an equal copy of it.
        assert!(std::ptr::eq(
            resume.snapshot_json.as_ptr(),
            last.snapshot_json.as_ptr()
        ));
    }
    // Every payload lies within one journal-sized span: the buffer read.
    let spans = replay
        .records
        .iter()
        .filter_map(|(_, record)| match record {
            JournalRecord::Snapshot(s) => Some(s.snapshot_json.as_ptr_range()),
            _ => None,
        });
    let (lo, hi) = spans.fold((usize::MAX, 0), |(lo, hi), span| {
        (lo.min(span.start as usize), hi.max(span.end as usize))
    });
    assert!(hi - lo <= journal.len(), "payloads span {} bytes", hi - lo);

    let (_, snapshot) = &replay.records[records.len() - 1];
    let (_, largest) = measure(|| drop(std::hint::black_box(snapshot.clone())));
    assert!(
        largest < PAYLOAD / 8,
        "cloning a snapshot record requested {largest} bytes at once"
    );
}
