//! Decentralized (gossip) training — the paradigm the paper's introduction
//! rules out before building on multi-hop all-reduce.
//!
//! In gossip SGD each worker takes a local step and then averages its
//! *parameters* with its ring neighbours; no round ever reaches consensus,
//! and on a ring the mixing rate degrades as `O(1/M²)`. [`train_gossip`]
//! runs that loop so experiments can reproduce the introduction's claim
//! that "the performance of gossip in terms of convergence rate is much
//! slower than MAR, especially under sparse connections such as ring
//! topology".

use marsit_collectives::gossip::{consensus_error, gossip_ring_step};
use marsit_models::{Evaluation, Mlp, MlpWorkspace, Optimizer};
use marsit_simnet::PhaseBreakdown;
use marsit_tensor::rng::{split_seed, FastRng};

use crate::timing::TimingModel;
use crate::trainer::TrainConfig;

/// Per-round record of a gossip run.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipRound {
    /// Round index.
    pub round: usize,
    /// Mean training loss across workers.
    pub train_loss: f64,
    /// Mean squared parameter disagreement across workers.
    pub consensus_error: f64,
    /// Simulated phase times (one gossip exchange per round).
    pub time: PhaseBreakdown,
    /// Evaluation of the *averaged* model, when scheduled.
    pub eval: Option<Evaluation>,
}

/// Result of a gossip training run.
#[derive(Debug, Clone)]
pub struct GossipReport {
    /// Per-round records.
    pub records: Vec<GossipRound>,
    /// Final evaluation of the averaged model.
    pub final_eval: Evaluation,
    /// Final consensus error.
    pub final_consensus_error: f64,
    /// Total simulated time.
    pub total_time: PhaseBreakdown,
}

/// Runs decentralized gossip SGD with the ring stencil.
///
/// Reuses [`TrainConfig`] for the workload, sizes, learning rate, optimizer
/// and seed; the `strategy`, `marsit_global_lr` and consistency fields are
/// ignored. Each round: one local minibatch step per worker, then one
/// gossip averaging exchange.
///
/// # Panics
///
/// Panics if the topology has fewer than 3 workers (the ring stencil needs
/// two distinct neighbours).
#[must_use]
pub fn train_gossip(cfg: &TrainConfig) -> GossipReport {
    run_gossip(cfg).0
}

/// [`train_gossip`], also returning every worker's final parameters.
fn run_gossip(cfg: &TrainConfig) -> (GossipReport, Vec<Vec<f32>>) {
    let m = cfg.topology.workers();
    assert!(m >= 3, "ring gossip needs at least 3 workers");
    let (train_set, test_set) = cfg.datasets();
    let shards = train_set.shard_iid(m, split_seed(cfg.seed, 0x5A4D));
    let spec = cfg.workload.proxy_spec();
    let d = spec.num_params();
    let reference = Mlp::new(spec.clone(), split_seed(cfg.seed, 0x30DE));
    let mut params: Vec<Vec<f32>> = vec![reference.params_vec(); m];
    let mut optimizers: Vec<Box<dyn Optimizer>> = (0..m).map(|_| cfg.optimizer.build()).collect();
    let mut rngs: Vec<FastRng> = (0..m)
        .map(|w| FastRng::new(split_seed(cfg.seed, 0xB000 + w as u64), 1))
        .collect();
    let timing = TimingModel {
        rates: cfg.rates,
        logical_d: cfg.workload.logical_params(),
        topology: cfg.topology,
        flops_per_sample: cfg.workload.flops_per_sample(),
        batch_per_worker: cfg.batch_per_worker,
        overlap: true,
    };
    // One gossip exchange: full-precision vectors to both neighbours, links
    // in parallel → one α plus the payload.
    let comm = timing.rates.link.transfer_time(d * 4) * 2.0;
    let round_time = PhaseBreakdown::new(timing.compute_time(), 0.0, comm);

    let mut scratch = reference;
    let mut ws = MlpWorkspace::default();
    let mut batch = shards[0].select(&[]);
    let mut grad = vec![0.0f32; d];
    let mut update = vec![0.0f32; d];
    let mut records = Vec::with_capacity(cfg.rounds);
    let mut total_time = PhaseBreakdown::zero();
    for t in 0..cfg.rounds {
        let mut loss_sum = 0.0;
        for w in 0..m {
            scratch.write_params(&params[w]);
            shards[w].sample_batch_into(cfg.batch_per_worker, &mut rngs[w], &mut batch);
            loss_sum += scratch.loss_and_grad_in(&batch, &mut grad, &mut ws);
            optimizers[w].direction_into(&grad, cfg.local_lr, &mut update);
            for (x, &u) in params[w].iter_mut().zip(&update) {
                *x -= u;
            }
        }
        let _ = gossip_ring_step(&mut params).expect("harness builds a valid ring");
        total_time += round_time;
        let eval = if (cfg.eval_every > 0 && (t + 1) % cfg.eval_every == 0) || t + 1 == cfg.rounds {
            Some(evaluate_mean(&mut scratch, &params, &test_set))
        } else {
            None
        };
        records.push(GossipRound {
            round: t,
            train_loss: loss_sum / m as f64,
            consensus_error: consensus_error(&params).expect("harness builds a valid ring"),
            time: round_time,
            eval,
        });
    }
    let final_eval = evaluate_mean(&mut scratch, &params, &test_set);
    let report = GossipReport {
        final_consensus_error: consensus_error(&params).expect("harness builds a valid ring"),
        final_eval,
        total_time,
        records,
    };
    (report, params)
}

/// Evaluates the parameter-averaged model.
fn evaluate_mean(
    scratch: &mut Mlp,
    params: &[Vec<f32>],
    test: &marsit_datagen::Dataset,
) -> Evaluation {
    let m = params.len() as f32;
    let d = params[0].len();
    let mut mean = vec![0.0f32; d];
    for p in params {
        for (a, &x) in mean.iter_mut().zip(p) {
            *a += x / m;
        }
    }
    scratch.write_params(&mean);
    scratch.evaluate(test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::StrategyKind;
    use marsit_models::{OptimizerKind, Workload};
    use marsit_simnet::Topology;

    fn cfg(m: usize, rounds: usize) -> TrainConfig {
        let mut cfg = TrainConfig::new(
            Workload::AlexNetMnist,
            Topology::ring(m),
            StrategyKind::Psgd, // ignored by gossip
        );
        cfg.rounds = rounds;
        cfg.train_examples = 2048;
        cfg.test_examples = 512;
        cfg.batch_per_worker = 32;
        cfg.local_lr = 0.05;
        cfg.optimizer = OptimizerKind::Sgd;
        cfg.eval_every = 0;
        cfg
    }

    #[test]
    fn gossip_learns_but_keeps_disagreement() {
        let report = train_gossip(&cfg(4, 80));
        assert!(
            report.final_eval.accuracy > 0.6,
            "acc {}",
            report.final_eval.accuracy
        );
        assert!(
            report.final_consensus_error > 0.0,
            "gossip never fully agrees"
        );
    }

    #[test]
    fn gossip_slower_than_allreduce_at_same_budget() {
        // The intro's comparison: with the same rounds and stepsize, exact
        // averaging (PSGD over MAR) beats neighbourhood averaging.
        let gossip = train_gossip(&cfg(8, 80));
        let mut psgd_cfg = cfg(8, 80);
        psgd_cfg.strategy = StrategyKind::Psgd;
        let psgd = crate::trainer::train(&psgd_cfg);
        assert!(
            psgd.final_eval.accuracy >= gossip.final_eval.accuracy - 0.01,
            "PSGD {} vs gossip {}",
            psgd.final_eval.accuracy,
            gossip.final_eval.accuracy
        );
    }

    #[test]
    fn gossip_is_deterministic() {
        let a = train_gossip(&cfg(4, 20));
        let b = train_gossip(&cfg(4, 20));
        assert_eq!(a.final_eval, b.final_eval);
        assert_eq!(a.final_consensus_error, b.final_consensus_error);
    }

    /// FNV-1a over the little-endian bytes of each value.
    fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for v in values {
            for byte in v.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        hash
    }

    /// Pins `cfg(4, 20)` bit for bit, with plain SGD and with momentum: a
    /// fingerprint of every round's loss and consensus error, and one of
    /// every worker's final parameters. Recorded while each step still drew
    /// a fresh workspace and minibatch and scaled the optimizer's direction
    /// in a pass of its own; re-recorded once, constants only, for GEMM
    /// accumulation contract v2 (DESIGN §17).
    #[test]
    fn gossip_golden() {
        for (optimizer, want) in [
            (
                OptimizerKind::Sgd,
                (0x25b6_d7d3_0068_b781, 0x266b_a454_b85d_515f),
            ),
            (
                OptimizerKind::Momentum(0.9),
                (0x4121_2ab3_0335_24e3, 0xe018_ca23_498c_238d),
            ),
        ] {
            let mut cfg = cfg(4, 20);
            cfg.optimizer = optimizer;
            let (report, params) = run_gossip(&cfg);
            let losses = fnv1a(
                report
                    .records
                    .iter()
                    .flat_map(|r| [r.train_loss.to_bits(), r.consensus_error.to_bits()]),
            );
            let params = fnv1a(params.iter().flatten().map(|p| u64::from(p.to_bits())));
            assert_eq!(
                (losses, params),
                want,
                "{optimizer:?} moved: (0x{losses:016x}, 0x{params:016x})"
            );
        }
    }

    #[test]
    fn records_track_rounds() {
        let report = train_gossip(&cfg(3, 10));
        assert_eq!(report.records.len(), 10);
        assert!(report.records.iter().all(|r| r.consensus_error >= 0.0));
    }
}
