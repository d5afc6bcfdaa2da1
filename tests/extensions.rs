//! Integration tests for the extension surface: the paradigms the paper
//! names (tree / segmented-ring), the gossip baseline it rules out, the
//! related-work PowerSGD compressor, and the non-IID probe.

use marsit::collectives::gossip::{consensus_error, gossip_ring_step};
use marsit::collectives::segring::segring_allreduce_onebit;
use marsit::collectives::tree::tree_allreduce_onebit;
use marsit::compress::powersgd::PowerSgd;
use marsit::core::ominus::combine_weighted_assign;
use marsit::prelude::*;
use marsit::tensor::stats::binomial_ci_halfwidth;
use marsit::trainsim::train_gossip;

/// Marsit's ⊙ composes over the tree and segmented-ring paradigms with the
/// same unbiasedness it has on the ring (the Section 5 extension claim).
#[test]
fn onebit_unbiased_over_tree_and_segring() {
    let m = 6;
    let d = 32;
    let mut seed_rng = FastRng::new(2, 0);
    let signs: Vec<SignVec> = (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut seed_rng))
        .collect();
    let trials = 12_000u64;
    for paradigm in ["tree", "segring"] {
        let mut ones = vec![0u32; d];
        for trial in 0..trials {
            let mut rng = FastRng::new(10_000 + trial, 0);
            let mut combine =
                |r: &SignVec, l: &mut SignVec, ctx: marsit::collectives::CombineCtx| {
                    combine_weighted_assign(r, ctx.received_count, l, ctx.local_count, &mut rng);
                };
            let (out, trace) = if paradigm == "tree" {
                tree_allreduce_onebit(&signs, &mut combine)
            } else {
                segring_allreduce_onebit(&signs, 3, &mut combine)
            };
            assert!(trace.total_bytes() > 0);
            for (j, o) in ones.iter_mut().enumerate() {
                *o += u32::from(out.get(j));
            }
        }
        for (j, &o) in ones.iter().enumerate() {
            let measured = f64::from(o) / trials as f64;
            let expected = signs.iter().filter(|v| v.get(j)).count() as f64 / m as f64;
            // 5σ binomial interval: per-comparison false-positive ≈ 5.7e-7.
            let hw = binomial_ci_halfwidth(expected, trials);
            assert!(
                (measured - expected).abs() <= hw + 1e-12,
                "{paradigm} coord {j}: {measured} vs {expected} (±{hw})"
            );
        }
    }
}

/// Gossip mixes toward — but never reaches — consensus, and slows with M.
#[test]
fn gossip_consensus_gap_shrinks_geometrically() {
    let mut rng = FastRng::new(4, 0);
    let mut data: Vec<Vec<f32>> = (0..6)
        .map(|_| (0..16).map(|_| rng.next_f64() as f32).collect())
        .collect();
    let e0 = consensus_error(&data).unwrap();
    for _ in 0..5 {
        gossip_ring_step(&mut data).unwrap();
    }
    let e5 = consensus_error(&data).unwrap();
    assert!(e5 < e0 * 0.5);
    assert!(e5 > 0.0);
}

/// The gossip training loop runs end to end through the facade.
#[test]
fn gossip_training_end_to_end() {
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        Topology::ring(4),
        StrategyKind::Psgd, // ignored
    );
    cfg.rounds = 30;
    cfg.train_examples = 1024;
    cfg.test_examples = 256;
    cfg.batch_per_worker = 16;
    cfg.local_lr = 0.05;
    cfg.optimizer = OptimizerKind::Sgd;
    cfg.eval_every = 0;
    let report = train_gossip(&cfg);
    assert_eq!(report.records.len(), 30);
    assert!(report.final_eval.accuracy > 0.3);
}

/// Non-IID shards hurt the sign methods more than exact averaging.
#[test]
fn non_iid_shards_stress_sign_methods() {
    let run = |strategy: StrategyKind, skew: Option<f64>| {
        let mut cfg = TrainConfig::new(Workload::AlexNetMnist, Topology::ring(4), strategy);
        cfg.rounds = 120;
        cfg.train_examples = 4096;
        cfg.test_examples = 1024;
        cfg.batch_per_worker = 32;
        cfg.local_lr = if matches!(strategy, StrategyKind::Psgd) {
            0.1
        } else {
            0.01
        };
        cfg.eval_every = 0;
        cfg.data_skew = skew;
        train(&cfg).final_eval.accuracy
    };
    let psgd_iid = run(StrategyKind::Psgd, None);
    let psgd_skew = run(StrategyKind::Psgd, Some(0.1));
    assert!(
        psgd_iid - psgd_skew < 0.15,
        "PSGD should tolerate skew: {psgd_iid} vs {psgd_skew}"
    );
    let sign_iid = run(StrategyKind::SignMajority, None);
    let sign_skew = run(StrategyKind::SignMajority, Some(0.1));
    // The sign method must degrade at least as much as exact averaging
    // (its majority vote has no way to weight minority-class gradients).
    assert!(
        sign_iid - sign_skew >= psgd_iid - psgd_skew - 0.05,
        "sign degradation ({sign_iid} -> {sign_skew}) should be at least PSGD's \
         ({psgd_iid} -> {psgd_skew})"
    );
}

/// PowerSGD compresses hard and reconstructs low-rank structure.
#[test]
fn powersgd_end_to_end() {
    let d = 400;
    let mut comp = PowerSgd::new(d, 2, 3);
    let grad = vec![0.05f32; d];
    let factors = comp.compress(&grad);
    assert!(factors.wire_bits() < 32 * d / 3);
    let decoded = comp.decode(&factors);
    assert_eq!(decoded.len(), d);
    // A constant gradient is rank-1: round one finds its single direction
    // exactly, and the rank-2 factor's dependent column must contribute
    // nothing (not a second copy of that direction).
    let err: f32 = decoded
        .iter()
        .zip(&grad)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f32::max);
    assert!(err < 1e-6, "max reconstruction error {err}");
}
