//! **Theorems 1–3**: empirical verification of the paper's analysis, plus
//! the `⊙`-weighting ablation called out in `DESIGN.md`.
//!
//! 1. Theorem 2 vs Theorem 3: the deviation of SSDM under PS stays bounded
//!    (`O(DG²)`) while cascading compression explodes with the chain length
//!    (`O((2D)^M G²/M)`).
//! 2. Theorem 1: Marsit's `min ‖∇F‖²` shrinks as workers are added at a
//!    fixed round budget (linear-speedup direction), tracking the
//!    `O(1/√(MT))` reference.
//! 3. Ablation: replacing Eq. (2)'s weighted transient vector with a plain
//!    coin flip biases the aggregate toward late-chain workers and costs
//!    real accuracy.
//!
//! ```text
//! cargo run --release -p marsit-bench --bin theory
//! ```

use marsit_bench::hr;
use marsit_core::ominus::{combine_unweighted_assign, combine_weighted_assign};
use marsit_core::theory::{cascading_deviation_bound, estimate_deviations, ps_deviation_bound};
use marsit_core::SyncSchedule;
use marsit_models::{OptimizerKind, Workload};
use marsit_simnet::Topology;
use marsit_tensor::rng::FastRng;
use marsit_tensor::SignVec;
use marsit_trainsim::{train, StrategyKind, TrainConfig};

fn main() {
    deviations();
    linear_speedup();
    combine_ablation();
}

/// Theorem 2 vs Theorem 3.
fn deviations() {
    let d = 64;
    let g = (d as f64).sqrt(); // E‖g‖² = d for standard normal gradients
    println!("== Theorems 2 & 3: aggregate deviation vs worker count (D = {d}) ==\n");
    println!(
        "{:<4} {:>14} {:>14} {:>16} {:>18}",
        "M", "PS measured", "PS bound", "cascade measured", "cascade bound"
    );
    hr(72);
    for m in [2usize, 3, 4, 6, 8, 10] {
        let est = estimate_deviations(d, m, 200, 11);
        println!(
            "{:<4} {:>14.1} {:>14.1} {:>16.3e} {:>18.3e}",
            m,
            est.ps,
            ps_deviation_bound(d, g),
            est.cascading,
            cascading_deviation_bound(d, m, g),
        );
    }
    println!(
        "\nShape: the PS column is flat/shrinking; the cascade column grows by\n\
         orders of magnitude with every added worker, exactly as Theorem 3 warns.\n"
    );
}

/// Theorem 1's linear-speedup direction.
fn linear_speedup() {
    let t = 250;
    println!("== Theorem 1: min ‖∇F‖² vs workers at fixed T = {t} (Marsit, K = ∞) ==\n");
    println!(
        "{:<4} {:>16} {:>18} {:>12}",
        "M", "min ‖∇F‖²", "1/√(MT) reference", "final acc(%)"
    );
    hr(56);
    for m in [2usize, 4, 8, 16] {
        let mut cfg = TrainConfig::new(
            Workload::AlexNetMnist,
            Topology::ring(m),
            StrategyKind::Marsit { k: None },
        );
        cfg.rounds = t;
        cfg.train_examples = 8192;
        cfg.test_examples = 1024;
        cfg.batch_per_worker = 32;
        cfg.local_lr = 0.01;
        cfg.marsit_global_lr = 0.002;
        cfg.optimizer = OptimizerKind::Sgd;
        cfg.eval_every = 0;
        let report = train(&cfg);
        println!(
            "{:<4} {:>16.5} {:>18.5} {:>12.2}",
            m,
            report.min_grad_norm_sq(),
            SyncSchedule::never().theorem1_bound(m as u64, t as u64),
            report.final_eval.accuracy * 100.0,
        );
    }
    println!("\nShape: both columns shrink as M grows — more workers, faster descent.\n");
}

/// The Eq. (2) weighting ablation.
fn combine_ablation() {
    println!("== Ablation: weighted ⊙ (Eq. 2) vs naive coin-flip combine ==\n");

    // (a) Bias of the chained estimate: worker 0 disagrees with everyone.
    let m = 6;
    let n = 50_000;
    let mut inputs = vec![SignVec::zeros(n); m];
    inputs[0] = SignVec::ones(n);
    let truth = 1.0 / m as f64;
    let mut rng = FastRng::new(5, 0);
    let chain = |weighted: bool, rng: &mut FastRng| -> f64 {
        let mut acc = 0.0;
        let trials = 60;
        for _ in 0..trials {
            let mut agg = inputs[0].clone();
            for (i, input) in inputs.iter().enumerate().skip(1) {
                let mut next = input.clone();
                if weighted {
                    combine_weighted_assign(&agg, i, &mut next, 1, rng);
                } else {
                    combine_unweighted_assign(&agg, &mut next, rng);
                }
                agg = next;
            }
            acc += agg.count_ones() as f64 / n as f64;
        }
        acc / 60.0
    };
    let w = chain(true, &mut rng);
    let u = chain(false, &mut rng);
    println!("E[bit] when worker 1 of {m} says '+' and the rest say '−' (truth = {truth:.4}):");
    println!("  weighted ⊙ : {w:.4}   (bias {:+.4})", w - truth);
    println!("  coin flip  : {u:.4}   (bias {:+.4})", u - truth);

    // (b) End-to-end accuracy cost on the MNIST proxy.
    println!("\nEnd-to-end accuracy with each combine (hand-rolled Marsit, K = ∞):");
    for (label, unweighted) in [("weighted ⊙", false), ("coin flip", true)] {
        let acc = train_with_combine(unweighted);
        println!("  {label:<11}: {:.2}%", acc * 100.0);
    }
    println!(
        "\nShape: the coin flip underweights early-chain workers (2^-(M-1) instead\n\
         of 1/M), so its estimate is biased and training lands lower."
    );
}

/// Minimal Marsit training loop with a selectable combine operator.
fn train_with_combine(unweighted: bool) -> f64 {
    use marsit_core::{Marsit, MarsitConfig};
    use marsit_datagen::synthetic::mnist_like;
    use marsit_models::Mlp;

    let m = 8;
    let (train_set, test_set) = mnist_like().generate_split(8192, 1024, 3);
    let shards = train_set.shard_iid(m, 4);
    let spec = Workload::AlexNetMnist.proxy_spec();
    let mut model = Mlp::new(spec, 5);
    let d = model.num_params();
    let mut cfg = MarsitConfig::new(SyncSchedule::never(), 0.002, 17);
    if unweighted {
        cfg = cfg.with_unweighted_combine();
    }
    let mut sync = Marsit::new(cfg, m, d);
    let mut rng = FastRng::new(6, 0);
    let mut grad = vec![0.0f32; d];
    for _ in 0..250 {
        let updates: Vec<Vec<f32>> = (0..m)
            .map(|w| {
                let batch = shards[w].sample_batch(32, &mut rng);
                model.loss_and_grad(&batch, &mut grad);
                grad.iter().map(|&g| 0.01 * g).collect()
            })
            .collect();
        let out = sync.synchronize(&updates, Topology::ring(m));
        model.apply_update(&out.global_update);
    }
    model.evaluate(&test_set).accuracy
}
