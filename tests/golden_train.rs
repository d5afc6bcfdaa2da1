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
//! Two on-purpose re-records since, constants only:
//!
//! 1. the three training tables, for stream contract v2 (DESIGN §9), which
//!    moves the consensus of every one-bit round; the kernel-only pin
//!    (`PowerSgd`) did not move;
//! 2. all four pins, for GEMM accumulation contract v2 (DESIGN §17), which
//!    fuses each term's multiply and add into one correctly rounded FMA and
//!    so moves the low bits of every product.

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
        (0x40131c0c4582aaab, 0xc7f20884f07a8f2c),
        (0x4013100c216d5555, 0xe35c6609588fcbbb),
        (0x4011a967fb100000, 0x216873e00f3d6e2b),
        (0x4012df3732315556, 0xebfadb1959e673f5),
        (0x401188380d42aaac, 0x9b766974a7662e8d),
        (0x40127a33d4240001, 0x433d6444fb8d37ab),
        (0x40115de0ee555556, 0x1fa57dde049a7aea),
        (0x4011802fd8400000, 0xde37b924f417393b),
        (0x40115270f7f00000, 0xb93a6f1edb2fdc8b),
        (0x40114ab91c780000, 0x8da1e83f1aadd382),
        (0x4010f58ae47aaaaa, 0x9bc7ffcc809dd351),
        (0x4010b18cfad55555, 0xbce60acc7d940b84),
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
        (0x4007df04f6b00000, 0x0f775d39b8a42187),
        (0x400924ba9ec00000, 0xcdeef84064f5dfaa),
        (0x4006576de7300000, 0xf10e6360494cd625),
        (0x400735d9e0e00000, 0x40314ef924c85c8c),
        (0x400472818fb00000, 0x0b7fabe0bffe0cb8),
        (0x4005d3ac05100000, 0x404048e058303148),
        (0x4002e91175e00000, 0x71ab94a279f31221),
        (0x40001ca509400000, 0x4194a25414ba0269),
        (0x4001cf8054d00000, 0xf87146aa085c623b),
        (0x3ffe1fec7d700000, 0x19fe2ba428cbfb6e),
        (0x3ffbf37a9ec00000, 0xbba1948d4b0c6fcd),
        (0x3ff9617f8c400000, 0x3cab2616620b0716),
    ];
    assert_golden("alexnet/mnist ring(4)", &run(cfg), want);
}

/// Serving-mix shape 1: ResNet-20 proxy (256→48→10), torus(2,2), never
/// full precision after round 0.
#[test]
fn golden_resnet20_torus2x2_batch16() {
    let cfg = serving_cfg(Workload::ResNet20Cifar10, Topology::torus(2, 2), None, 13);
    let want: &[(u64, u64)] = &[
        (0x400b3418de800000, 0x625447e76b4c3daa),
        (0x40082cd587380000, 0x9f8cdf2a753b88d9),
        (0x4008956dc7e00000, 0x669e6af1aa52c475),
        (0x400a12ac0c800000, 0x709c4626250bf646),
        (0x40074a7f5b300000, 0xd883a1834b65b46a),
        (0x4008e5cbd7400000, 0xb09917db7936a1bf),
        (0x40073d58ca300000, 0xd5be47f7306bdf41),
        (0x4005e8194e800000, 0x3aa6a8a7a822f340),
        (0x4003b5bb70a00000, 0x46d40ceb2b15abe4),
        (0x4005c4457ba00000, 0x613fab888365ba8e),
        (0x4005870d98400000, 0x43b2a9d855435e3b),
        (0x4005fdeff7b00000, 0x091f0a330ce9e293),
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
        (0xa51c_ec0d_7a81_6bc4, 0x7090_1c9d_e1e5_0854),
        "powersgd round trip moved: (0x{:016x}, 0x{:016x})",
        fnv1a(&decoded),
        fnv1a(psgd.error())
    );
}
