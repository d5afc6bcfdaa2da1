//! Golden-value pins for everything that sits on the dense products.
//!
//! `Tensor::matmul` / `matmul_tn` / `matmul_nt` carry every forward and
//! backward pass, so a change to how they compute must not move one bit of a
//! training run. These constants were recorded on the commit *before* the
//! three loop nests became one blocked kernel (the naive ikj loops and the
//! scalar sequential dot) and pin, round by round, the training loss and a
//! fingerprint of replica 0's parameters on the `train_torus` shape and the
//! two serving-mix shapes — plus one `ConvNet` gradient and one `PowerSgd`
//! round trip, the other callers of the products. If any of them moves, the
//! accumulation-order contract of the kernel (DESIGN §17) is broken.

use marsit::compress::powersgd::PowerSgd;
use marsit::models::{ConvNet, ConvNetSpec};
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
        (0x4013100c233c0000, 0xad29a82ea0729957),
        (0x4011ac0cac200000, 0x6ad44a7b2b416872),
        (0x4012dee791000000, 0x7671e2359f8bbbc0),
        (0x401187accd2aaaab, 0x229ec826563b79fc),
        (0x4012772ee8995556, 0xa6ebb3170efaea2d),
        (0x40115cd7455aaaab, 0xfc669db54f2b673e),
        (0x4011808dec72aaab, 0x27b2c5d09c2db98f),
        (0x40115805c232aaaa, 0xd1d2f28145522a3a),
        (0x4011479796c00000, 0xd74b59149288324a),
        (0x4010f852cc080000, 0xf6fecf03a7b74d7d),
        (0x4010b158e1200000, 0xcea646cd1324d44a),
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
        (0x400924baa6a00000, 0xd75001dfb4314a8b),
        (0x40065c5894000000, 0xe86a4ac1ed15efdf),
        (0x40071cebc8400000, 0x225bc587074f3a14),
        (0x400477133f700000, 0xf95ab32eb6b9585e),
        (0x4005ba187ed00000, 0xb0cfeecd4f01aba1),
        (0x4002e72d73200000, 0x5e65e767c6a50c7a),
        (0x4000154d7a300000, 0xcf4db6339fafc23c),
        (0x4001cb7b2b000000, 0xcd6d1703cd1ebd6d),
        (0x3ffe0511c5c00000, 0xaee6fba316603e62),
        (0x3ffbb4af95a00000, 0x13df79b810b010e0),
        (0x3ff94e780d900000, 0x100c07f735788702),
    ];
    assert_golden("alexnet/mnist ring(4)", &run(cfg), want);
}

/// Serving-mix shape 1: ResNet-20 proxy (256→48→10), torus(2,2), never
/// full precision after round 0.
#[test]
fn golden_resnet20_torus2x2_batch16() {
    let cfg = serving_cfg(Workload::ResNet20Cifar10, Topology::torus(2, 2), None, 13);
    let want: &[(u64, u64)] = &[
        (0x400b3418d9000000, 0x4cb91f8254472fd5),
        (0x4008199cea100000, 0xd0a4ada712acfbf4),
        (0x4008932f88800000, 0x51a9f017f95f42eb),
        (0x400a0702a0200000, 0xb30f1a449e952ae6),
        (0x4007596f65d00000, 0x35cfbd8b79fb2d8d),
        (0x4008e89426400000, 0x5d09a834dcb3cf69),
        (0x40072af80fc00000, 0xb37fb860e3fac672),
        (0x4005e81e25e80000, 0x833a7f92888db91e),
        (0x4003afe244000000, 0xc92f0b3140c0a5bb),
        (0x4005aeb7d9f00000, 0xe47e2a1d0610d059),
        (0x40056f341ff00000, 0xf50f38b3fbff7a93),
        (0x4005ae5220500000, 0xce6684f88e7af4d1),
    ];
    assert_golden("resnet20 torus(2,2)", &run(cfg), want);
}

/// `ConvNet::loss_and_grad`: two `matmul`, two `matmul_tn`, two `matmul_nt`
/// with a ReLU-sparse left operand.
#[test]
fn golden_convnet_gradient() {
    let (train, _) = mnist_like().generate_split(48, 8, 5);
    let model = ConvNet::new(ConvNetSpec::square(8, 4, 3, 24, 10), 3);
    let mut grad = vec![0.0f32; model.num_params()];
    let loss = model.loss_and_grad(&train, &mut grad);
    assert_eq!(
        (loss.to_bits(), fnv1a(&grad)),
        (0x400a_5c7c_acea_aaab, 0xfb37_cfbe_efd1_4caf),
        "convnet gradient moved: (0x{:016x}, 0x{:016x})",
        loss.to_bits(),
        fnv1a(&grad)
    );
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
