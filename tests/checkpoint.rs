//! Deterministic checkpoint/restore acceptance tests.
//!
//! A run interrupted at any round, snapshotted, serialized through the
//! `/2` checkpoint frame, and restored into a fresh
//! [`TrainerState`] must be **byte-identical** to the run that never
//! stopped: same `TrainReport` (every word of every record), same RNG draw
//! counts, and the same telemetry JSONL — the restored half appends to the
//! prefix with no fresh `run_meta`, so the concatenation equals the
//! uninterrupted log. Property-tested across topology (ring(8), torus(2,4)),
//! strategy state (Marsit with and without the K-periodic schedule, SSDM),
//! fault plans (clean and crash/rejoin/drop storms), and split points.

use marsit::prelude::*;
use marsit::simnet::wire::Writer;
use marsit::simnet::WireError;
use proptest::prelude::*;

fn base_cfg(topology: Topology, strategy: StrategyKind) -> TrainConfig {
    let mut cfg = TrainConfig::new(Workload::AlexNetMnist, topology, strategy);
    cfg.rounds = 10;
    cfg.train_examples = 512;
    cfg.test_examples = 128;
    cfg.eval_every = 4;
    cfg.local_lr = 0.1;
    cfg.marsit_global_lr = 0.01;
    cfg.optimizer = OptimizerKind::Momentum(0.9);
    cfg
}

/// The oracle: run uninterrupted; then run to `split`, snapshot, round-trip
/// the snapshot through JSON, restore into a fresh state sharing the same
/// telemetry handle, and finish. Reports and event logs must match exactly.
fn assert_resume_bit_identical(cfg: &TrainConfig, split: usize) {
    let tel_full = Telemetry::recording();
    let mut cfg_full = cfg.clone();
    cfg_full.telemetry = tel_full.clone();
    let full = train(&cfg_full);

    let tel_split = Telemetry::recording();
    let mut cfg_split = cfg.clone();
    cfg_split.telemetry = tel_split.clone();
    let mut state = TrainerState::new(&cfg_split);
    for _ in 0..split {
        state.step();
    }
    let snap = state.snapshot();
    let json = snap.to_json();
    let parsed = TrainSnapshot::from_json(&json).expect("snapshot JSON parses");
    assert_eq!(snap, parsed, "JSON round-trip must be lossless");
    assert_eq!(
        json,
        parsed.to_json(),
        "serialization must be deterministic"
    );
    drop(state);

    let mut resumed = TrainerState::restore(&cfg_split, &parsed);
    assert_eq!(resumed.round(), split);
    while !resumed.is_done() {
        resumed.step();
    }
    let report = resumed.finish();
    assert_eq!(full, report, "resumed report diverged (split at {split})");
    assert_eq!(
        tel_full.events_jsonl(),
        tel_split.events_jsonl(),
        "prefix + resumed telemetry must equal the uninterrupted log"
    );
}

#[test]
fn resume_is_bit_identical_ring_clean_and_faulty() {
    let clean = base_cfg(Topology::ring(8), StrategyKind::Marsit { k: Some(4) });
    assert_resume_bit_identical(&clean, 5);

    let mut faulty = clean.clone();
    faulty.fault_plan = FaultPlan::seeded(31)
        .with_link_drop(0.05)
        .with_straggler(2, 3.0)
        .with_crash_event(3, 2)
        .with_rejoin(3, 6);
    // Split before, at, and after the membership events.
    for split in [1, 4, 7] {
        assert_resume_bit_identical(&faulty, split);
    }

    // A generated storm on ring(6) over lossy, corrupting links with a
    // straggler: crashes at rounds 2 and 5, a rejoin at 4. Split before,
    // inside and after it.
    let schedule = MembershipSchedule::storm(104_729, 6, clean.rounds as u64, 2, 1);
    let event_rounds: Vec<u64> = schedule.events.iter().map(|e| e.round()).collect();
    assert_eq!(event_rounds, [2, 4, 5]);
    let mut storm = base_cfg(Topology::ring(6), StrategyKind::Marsit { k: Some(4) });
    storm.fault_plan = FaultPlan::seeded(104_729)
        .with_link_drop(0.02)
        .with_link_corruption(0.01)
        .with_straggler(5, 2.5)
        .with_membership(schedule);
    for split in [2, 4, 7] {
        assert_resume_bit_identical(&storm, split);
    }
}

#[test]
fn resume_is_bit_identical_torus_clean_and_faulty() {
    let clean = base_cfg(Topology::torus(2, 4), StrategyKind::Marsit { k: None });
    assert_resume_bit_identical(&clean, 3);

    let mut faulty = clean.clone();
    faulty.fault_plan = FaultPlan::seeded(47)
        .with_link_drop(0.05)
        .with_crash_event(5, 3)
        .with_rejoin(5, 7);
    assert_resume_bit_identical(&faulty, 5);
}

/// Shrinks a config to property-test scale: the 64 deterministic cases per
/// property each run ~2.5 short trainings, so keep rounds and data tiny.
fn prop_cfg(topology: Topology, strategy: StrategyKind, seed: u64) -> TrainConfig {
    let mut cfg = base_cfg(topology, strategy);
    cfg.rounds = 6;
    cfg.train_examples = 256;
    cfg.test_examples = 64;
    cfg.eval_every = 3;
    cfg.seed = seed;
    cfg
}

proptest! {
    /// Checkpoint/resume is lossless for random split points across
    /// topologies, Marsit schedules, and clean/faulty plans.
    #[test]
    fn resume_roundtrip_holds_for_random_configs(
        case in any::<u64>(),
        split in 1usize..6,
    ) {
        let torus = case.is_multiple_of(2);
        let with_k = case % 4 < 2;
        let faulty = case % 8 < 4;
        let topology = if torus {
            Topology::torus(2, 2)
        } else {
            Topology::ring(4)
        };
        let k = if with_k { Some(3) } else { None };
        let mut cfg = prop_cfg(topology, StrategyKind::Marsit { k }, case);
        if faulty {
            cfg.fault_plan = FaultPlan::seeded(case ^ 0xC0FFEE)
                .with_link_drop(0.05)
                .with_crash_event(1, 2)
                .with_rejoin(1, 4);
        }
        assert_resume_bit_identical(&cfg, split);
    }

    /// SSDM's velocity buffer checkpoints losslessly too (the non-Marsit
    /// stateful strategy).
    #[test]
    fn ssdm_resume_roundtrip_holds(seed in any::<u64>(), split in 1usize..6) {
        let cfg = prop_cfg(Topology::ring(4), StrategyKind::Ssdm, seed);
        assert_resume_bit_identical(&cfg, split);
    }
}

/// Restoring from a snapshot and continuing does not perturb the state that
/// produced the snapshot: the donor run keeps producing the same rounds.
#[test]
fn snapshot_is_side_effect_free() {
    let cfg = base_cfg(Topology::ring(4), StrategyKind::Marsit { k: Some(4) });
    let baseline = train(&cfg);
    let mut state = TrainerState::new(&cfg);
    for i in 0..cfg.rounds {
        if i == 3 || i == 7 {
            let _ = state.snapshot(); // mid-run captures must be harmless
        }
        state.step();
    }
    assert_eq!(baseline, state.finish());
}

/// A diverging run keeps going. At `η_l = 1e30` PSGD's parameters overflow
/// to `±∞` and then to NaN within a few rounds; the run still finishes its
/// 64 rounds flagged `diverged`, and its NaN snapshot round-trips byte for
/// byte.
#[test]
fn diverged_run_finishes_and_snapshots() {
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        Topology::ring(4),
        StrategyKind::Psgd,
    );
    cfg.rounds = 64;
    cfg.local_lr = 1e30;
    cfg.train_examples = 2048;
    cfg.test_examples = 128;
    let mut state = TrainerState::new(&cfg);
    while !state.is_done() {
        state.step();
    }
    let snap = state.snapshot();
    assert!(snap.params.iter().any(|p| p.is_nan()), "the run diverged");
    let bytes = snap.to_json();
    let parsed = TrainSnapshot::from_json(&bytes).expect("snapshot parses");
    assert_eq!(parsed.to_json(), bytes, "round-trip must be lossless");
    let mut restored = TrainerState::restore(&cfg, &parsed);
    assert_eq!(restored.snapshot().to_json(), bytes);
    let report = state.finish();
    assert!(report.diverged);
    assert_eq!(report.records.len(), 64);
}

/// The hand-built snapshot the format tests share.
fn small_snapshot() -> TrainSnapshot {
    use marsit::models::OptimizerState;
    use marsit::trainsim::{SynchronizerSnapshot, SynchronizerState};

    TrainSnapshot {
        round: 2,
        lr: 0.5,
        params: vec![1.0, -2.0],
        optimizers: vec![
            OptimizerState::Sgd,
            OptimizerState::Momentum {
                velocity: vec![0.5],
            },
        ],
        worker_rngs: vec![(1, 2), (0xABCD, 3)],
        sync: SynchronizerSnapshot {
            round: 2,
            state: SynchronizerState::Marsit(MarsitSnapshot {
                round: 2,
                compensations: vec![vec![0.25], vec![-0.25]],
            }),
        },
        records: vec![],
        total_time: PhaseBreakdown {
            compute_s: 1.0,
            compression_s: 0.0,
            communication_s: 2.0,
        },
        total_bytes: 4096,
        cumulative_bits_per_worker: 16384.0,
        total_elements: 1024,
        diverged: false,
        run_faults: FaultStats::default(),
    }
}

/// Golden fixture pinning the `/2` checkpoint bytes: the hand-built snapshot
/// serializes to exactly this hex dump. Any change here is a format break
/// and needs a version bump.
#[test]
fn snapshot_format_golden() {
    let snap = small_snapshot();
    let expected = concat!(
        "4d525354",                 // magic
        "02",                       // format version
        "20",                       // kind: checkpoint
        "04010000",                 // body length
        "3e2f4bf0",                 // CRC-32
        "0200000000000000",         // round
        "0000003f",                 // lr
        "020000000000803f000000c0", // params: count, 1.0, -2.0
        "02000000",                 // optimizers
        "00",                       //   sgd
        "01010000000000003f",       //   momentum: count, 0.5
        "02000000",                 // worker_rngs
        "01000000000000000200000000000000",
        "cdab0000000000000300000000000000",
        "0200000000000000", // sync: round
        "02",               //   marsit
        "0200000000000000", //   marsit round
        "02000000",         //   compensations
        "010000000000803e", //     count, 0.25
        "01000000000080be", //     count, -0.25
        "00000000",         // records
        "000000000000f03f", // total_time: compute 1.0
        "0000000000000000", //   compression 0.0
        "0000000000000040", //   communication 2.0
        "0010000000000000", // total_bytes
        "000000000000d040", // cumulative_bits_per_worker
        "0004000000000000", // total_elements
        "00",               // diverged
        // run_faults: 7 counters, 2 times, 3 health counters, all zero
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
        "0000000000000000000000000000000000000000000000000000000000000000",
    );
    let hex: String = snap.to_json().iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, expected);
    let bytes: Vec<u8> = (0..expected.len() / 2)
        .map(|i| u8::from_str_radix(&expected[2 * i..2 * i + 2], 16).expect("hex"))
        .collect();
    assert_eq!(
        TrainSnapshot::from_json(&bytes).expect("golden parses"),
        snap
    );
}

/// Size contract: a checkpoint is its floats and counters plus a small
/// constant, not a text rendering of them. For a ResNet-20-proxy job on
/// torus(2,2) the frame stays within 1 % (+1 KiB) of 4 bytes per `f32` and
/// 8 per 64-bit scalar.
#[test]
fn snapshot_size_is_its_payload() {
    use marsit::models::OptimizerState;
    use marsit::trainsim::SynchronizerState;

    let mut cfg = base_cfg(Topology::torus(2, 2), StrategyKind::Marsit { k: Some(4) });
    cfg.workload = Workload::ResNet20Cifar10;
    cfg.rounds = 3;
    let mut state = TrainerState::new(&cfg);
    for _ in 0..3 {
        state.step();
    }
    let snap = state.snapshot();
    let optimizer_f32s: usize = snap
        .optimizers
        .iter()
        .map(|o| match o {
            OptimizerState::Sgd => 0,
            OptimizerState::Momentum { velocity } => velocity.len(),
            OptimizerState::Adam { m, v, .. } => m.len() + v.len(),
        })
        .sum();
    let sync_f32s: usize = match &snap.sync.state {
        SynchronizerState::Stateless => 0,
        SynchronizerState::Ssdm { velocity } => velocity.len(),
        SynchronizerState::Marsit(m) => m.compensations.iter().map(Vec::len).sum(),
    };
    let f32s = 1 + snap.params.len() + optimizer_f32s + sync_f32s;
    // round, two per worker RNG, the synchronizer's two rounds, per record
    // its round + 8 f64 (+2 with an evaluation), 3 + 3 run accumulators,
    // 12 fault counters.
    let evals = snap.records.iter().filter(|r| r.eval.is_some()).count();
    let scalars = 1 + 2 * snap.worker_rngs.len() + 2 + 9 * snap.records.len() + 2 * evals + 18;
    assert!(f32s > 100_000, "a model-sized snapshot: {f32s} floats");
    let budget = (4 * f32s + 8 * scalars) as f64 * 1.01 + 1024.0;
    let encoded = snap.to_json().len();
    assert!(
        encoded as f64 <= budget,
        "{encoded} bytes for {f32s} f32 + {scalars} 64-bit scalars (budget {budget:.0})"
    );
}

/// Never panic, never accept damage: every strict prefix of a checkpoint is
/// a typed error, and so is every single-bit flip.
#[test]
fn damaged_checkpoints_are_typed_errors() {
    let bytes = small_snapshot().to_json().to_vec();
    for cut in 0..bytes.len() {
        assert_eq!(
            TrainSnapshot::from_json(&bytes[..cut]),
            Err(WireError::Truncated),
            "cut at {cut}"
        );
    }
    for bit in 0..bytes.len() * 8 {
        let mut flipped = bytes.clone();
        flipped[bit / 8] ^= 1 << (bit % 8);
        assert!(
            TrainSnapshot::from_json(&flipped).is_err(),
            "bit {bit} flipped and the checkpoint still parsed"
        );
    }
}

/// A count that promises more than the frame holds is `Truncated` before
/// anything is allocated for it — in the header's length field and in a
/// CRC-valid body alike.
#[test]
fn overlong_length_claims_are_truncated_not_allocated() {
    let mut header_lies = small_snapshot().to_json().to_vec();
    header_lies[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
    assert_eq!(
        TrainSnapshot::from_json(&header_lies),
        Err(WireError::Truncated)
    );

    let mut body_lies = Writer::new(0x20, 0);
    body_lies.u64(2); // round
    body_lies.f32(0.5); // lr
    body_lies.u32(u32::MAX); // params: 4 Gi floats, none of them present
    assert_eq!(
        TrainSnapshot::from_json(&body_lies.finish()),
        Err(WireError::Truncated)
    );
}

proptest! {
    /// Arbitrary bytes never panic the checkpoint decoder — bare, or sealed
    /// into a frame of the checkpoint kind so they reach the field reader.
    #[test]
    fn garbage_checkpoints_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        prop_assert!(TrainSnapshot::from_json(&bytes).is_err());
        let mut framed = Writer::new(0x20, bytes.len());
        for &b in &bytes {
            framed.u8(b);
        }
        let _ = TrainSnapshot::from_json(&framed.finish());
    }
}
