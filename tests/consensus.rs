//! Cross-crate integration tests for consensus training runs.
//!
//! Every worker applies the same all-reduce aggregate, so the in-process
//! trainer holds one consensus model and its workers cannot disagree. The
//! one place per-rank agreement can still fail is the executed process
//! backend; `drive_round` asserts there that every rank's consensus words
//! equal rank 0's, across `transport_conformance`'s scenario matrix.

use marsit::prelude::*;

fn base_cfg(strategy: StrategyKind, topology: Topology) -> TrainConfig {
    let mut cfg = TrainConfig::new(Workload::AlexNetMnist, topology, strategy);
    cfg.rounds = 24;
    cfg.train_examples = 1024;
    cfg.test_examples = 256;
    cfg.batch_per_worker = 16;
    cfg.eval_every = 0;
    cfg
}

/// Every strategy runs on ring(4).
const RING_STRATEGIES: [StrategyKind; 8] = [
    StrategyKind::Psgd,
    StrategyKind::SignMajority,
    StrategyKind::EfSign,
    StrategyKind::Ssdm,
    StrategyKind::Cascading,
    StrategyKind::Marsit { k: Some(8) },
    StrategyKind::Marsit { k: None },
    StrategyKind::PowerSgd { rank: 2 },
];

/// The five strategies whose collectives run on a 2D torus.
const TORUS_STRATEGIES: [StrategyKind; 5] = [
    StrategyKind::Psgd,
    StrategyKind::SignMajority,
    StrategyKind::EfSign,
    StrategyKind::Ssdm,
    StrategyKind::Marsit { k: Some(8) },
];

/// Trains `strategy` on `topology` and checks the consensus model survived
/// every round: all rounds recorded, every loss finite, traffic moved.
fn assert_reaches_consensus(strategy: StrategyKind, topology: Topology) {
    let report = train(&base_cfg(strategy, topology));
    let label = format!("{strategy} on {topology:?}");
    assert_eq!(report.records.len(), 24, "{label}");
    assert!(!report.diverged, "{label}");
    assert!(
        report.records.iter().all(|r| r.train_loss.is_finite()),
        "{label}"
    );
    assert!(report.total_bytes > 0, "{label}");
}

#[test]
fn all_strategies_reach_consensus_on_ring() {
    for strategy in RING_STRATEGIES {
        assert_reaches_consensus(strategy, Topology::ring(4));
    }
}

#[test]
fn all_strategies_reach_consensus_on_torus() {
    for strategy in TORUS_STRATEGIES {
        assert_reaches_consensus(strategy, Topology::torus(2, 3));
    }
}

/// Every strategy on ring(4) and the five torus-capable ones on torus(2,3)
/// replay bit for bit: two runs of one configuration give the same records,
/// record by record, the same bytes and the same final evaluation.
#[test]
fn runs_are_bit_reproducible() {
    let ring = RING_STRATEGIES.map(|strategy| (strategy, Topology::ring(4)));
    let torus = TORUS_STRATEGIES.map(|strategy| (strategy, Topology::torus(2, 3)));
    for (strategy, topology) in ring.into_iter().chain(torus) {
        let cfg = base_cfg(strategy, topology);
        let a = train(&cfg);
        let b = train(&cfg);
        let label = format!("{strategy} on {topology:?}");
        assert_eq!(a.final_eval, b.final_eval, "{label}");
        assert_eq!(a.total_bytes, b.total_bytes, "{label}");
        assert_eq!((a.records.len(), b.records.len()), (24, 24), "{label}");
        for (ra, rb) in a.records.iter().zip(&b.records) {
            assert_eq!(ra, rb, "{label}");
        }
    }
}

#[test]
fn different_seeds_differ() {
    let mut cfg = base_cfg(StrategyKind::Marsit { k: None }, Topology::ring(4));
    let a = train(&cfg);
    cfg.seed = 43;
    let b = train(&cfg);
    assert_ne!(a.final_eval, b.final_eval);
}

#[test]
fn marsit_core_consensus_is_identical_across_workers() {
    // Direct API check: the synchronizer returns ONE update; feeding
    // different per-worker updates still yields a single consensus vector
    // (the one update the trainer applies to its one model), and repeated
    // synchronization with the same instance advances rounds.
    use marsit::core::{Marsit, MarsitConfig, SyncSchedule};
    let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.01, 5);
    let mut sync = Marsit::new(cfg, 4, 64);
    let mut rng = FastRng::new(1, 0);
    for t in 0..9u64 {
        let updates: Vec<Vec<f32>> = (0..4)
            .map(|_| (0..64).map(|_| rng.next_f64() as f32 - 0.5).collect())
            .collect();
        let out = sync.synchronize(&updates, Topology::ring(4));
        assert_eq!(out.round, t);
        assert_eq!(out.full_precision, t % 3 == 0);
    }
}
