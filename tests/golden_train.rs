//! Golden-value pins for everything that sits on the dense products.
//!
//! `Tensor::matmul` / `matmul_tn` / `matmul_nt` carry every forward and
//! backward pass, so a change to how they compute must not move one bit of a
//! training run. These constants were recorded on the commit *before* the
//! three loop nests became one blocked kernel (the naive ikj loops and the
//! scalar sequential dot) and pin, round by round, the training loss and a
//! fingerprint of replica 0's parameters on the `train_torus` shape and the
//! two serving-mix shapes — plus one `PowerSgd` round trip, the other
//! caller of the products. If any of them moves, the accumulation-order
//! contract of the kernel (DESIGN §17) is broken.
//!
//! The three training tables were re-recorded once, constants only, for
//! stream contract v2 (DESIGN §9), which moves the consensus of every
//! one-bit round; the kernel-only pin (`PowerSgd`) did not move.

use marsit::compress::powersgd::PowerSgd;
use marsit::prelude::*;

/// FNV-1a over the little-endian bytes of every value's bit pattern.
fn fnv1a(values: &[f32]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for byte in v.to_bits().to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

const ROUNDS: usize = 12;

/// Steps a sequential trainer for [`ROUNDS`] rounds and returns, per round,
/// `(train_loss.to_bits(), fnv1a(replica 0's parameters))`.
fn run(mut cfg: TrainConfig) -> Vec<(u64, u64)> {
    cfg.rounds = ROUNDS;
    cfg.eval_every = 0;
    cfg.parallel_workers = false;
    let mut state = TrainerState::new(&cfg);
    (0..ROUNDS)
        .map(|t| {
            state.step();
            let loss = state.records()[t].train_loss;
            (loss.to_bits(), fnv1a(&state.snapshot().params))
        })
        .collect()
}

/// Compares against the recorded table; a mismatch prints the whole actual
/// table as a Rust literal, which is how the constants were recorded.
fn assert_golden(label: &str, got: &[(u64, u64)], want: &[(u64, u64)]) {
    let literal: String = got
        .iter()
        .map(|(loss, params)| format!("    (0x{loss:016x}, 0x{params:016x}),\n"))
        .collect();
    assert_eq!(got, want, "{label} moved; actual table:\n{literal}");
}

/// The `train_torus` benchmark shape: ResNet-50 proxy (512→256→128→50,
/// d = 170 674), torus(2,4), K = 10, batch 96.
#[test]
fn golden_resnet50_torus2x4_batch96() {
    let mut cfg = TrainConfig::new(
        Workload::ResNet50ImageNet,
        Topology::torus(2, 4),
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.seed = 20_220_710;
    cfg.train_examples = 4096;
    cfg.test_examples = 256;
    cfg.batch_per_worker = 96;
    let want: &[(u64, u64)] = &[
        (0x40131c0c465aaaab, 0x7e3adba96bb61efd),
        (0x4013100c233c0000, 0x98c5091a21d0b266),
        (0x4011a967f90aaaaa, 0x81552a19694584d9),
        (0x4012df3733755555, 0xed01742edb641207),
        (0x401188380cf00000, 0xf6b4b62533896904),
        (0x40127a33d4deaaab, 0x301362bc72684da5),
        (0x40115de0ef1aaaab, 0x22e39d1b965cd576),
        (0x4011802fd7980000, 0xd28f428de05efed3),
        (0x40115270f7eaaaaa, 0x4e582be63b2b69fe),
        (0x40114ab91d4aaaab, 0x44f030379b1cac32),
        (0x4010f58ae2755556, 0xfcc3adbd7ec46d41),
        (0x4010b18cf9cd5556, 0x3b756fcca131e5bb),
    ];
    assert_golden("resnet50 torus(2,4)", &run(cfg), want);
}

/// A serving-mix job as `JobSpec::to_train_config` builds it.
fn serving_cfg(workload: Workload, topology: Topology, k: Option<u32>, seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::new(workload, topology, StrategyKind::Marsit { k });
    cfg.seed = seed;
    cfg.train_examples = 512;
    cfg.test_examples = 64;
    cfg.batch_per_worker = 16;
    cfg
}

/// Serving-mix shape 0: AlexNet/MNIST proxy (64→128→64→10), ring(4).
#[test]
fn golden_alexnet_mnist_ring4_batch16() {
    let cfg = serving_cfg(Workload::AlexNetMnist, Topology::ring(4), Some(5), 11);
    let want: &[(u64, u64)] = &[
        (0x4007df04fcd00000, 0xc52bd42528700e8d),
        (0x400924baa6a00000, 0x0f874604db12c895),
        (0x4006576ddce00000, 0x43fecbb121942fc8),
        (0x400735d9ec300000, 0xa8cffbf35e72269d),
        (0x4004728192200000, 0xd887ec31087f9e00),
        (0x4005d3ac01900000, 0x61bbecedf049e087),
        (0x4002e9116dc00000, 0x2f45fb5e231aab94),
        (0x40001ca507c00000, 0x124285bd5f2970f0),
        (0x4001cf805dd00000, 0x49e040aa5c6e4e33),
        (0x3ffe1fec85c00000, 0xa6ba5f186ed9664e),
        (0x3ffbf37aaac00000, 0x722684197b5c8358),
        (0x3ff9617f84100000, 0x84e0b8303a15ded7),
    ];
    assert_golden("alexnet/mnist ring(4)", &run(cfg), want);
}

/// Serving-mix shape 1: ResNet-20 proxy (256→48→10), torus(2,2), never
/// full precision after round 0.
#[test]
fn golden_resnet20_torus2x2_batch16() {
    let cfg = serving_cfg(Workload::ResNet20Cifar10, Topology::torus(2, 2), None, 13);
    let want: &[(u64, u64)] = &[
        (0x400b3418d9000000, 0x625447e76b4c3daa),
        (0x40082cd589f80000, 0x9f8cdf2a753b88d9),
        (0x4008956dcd700000, 0x669e6af1aa52c475),
        (0x400a12ac11000000, 0x709c4626250bf646),
        (0x40074a7f60800000, 0xd883a1834b65b46a),
        (0x4008e5cbd9400000, 0xb09917db7936a1bf),
        (0x40073d58d6100000, 0xd5be47f7306bdf41),
        (0x4005e8194fa00000, 0x3aa6a8a7a822f340),
        (0x4003b5bb6d600000, 0x46d40ceb2b15abe4),
        (0x4005c4457eb00000, 0x613fab888365ba8e),
        (0x4005870d8e500000, 0x43b2a9d855435e3b),
        (0x4005fdeff7400000, 0x091f0a330ce9e293),
    ];
    assert_golden("resnet20 torus(2,2)", &run(cfg), want);
}

/// `PowerSgd::compress` → `decode`, two rounds so the warm-started `Q` and
/// the error memory (both products of the first round) feed the second.
#[test]
fn golden_powersgd_round_trip() {
    let d = 3_000;
    let mut rng = FastRng::new(77, 0);
    let grad: Vec<f32> = (0..d).map(|_| rng.next_f64() as f32 - 0.5).collect();
    let mut psgd = PowerSgd::new(d, 4, 9);
    let mut decoded = Vec::new();
    for _ in 0..2 {
        let factors = psgd.compress(&grad);
        decoded = psgd.decode(&factors);
    }
    assert_eq!(
        (fnv1a(&decoded), fnv1a(psgd.error())),
        (0xca9d_b41c_693e_7aab, 0xd273_1f10_cafe_44e7),
        "powersgd round trip moved: (0x{:016x}, 0x{:016x})",
        fnv1a(&decoded),
        fnv1a(psgd.error())
    );
}
