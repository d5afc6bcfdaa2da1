//! `train_torus`: the plain single-trainer baseline. Forward, backward and
//! the optimizer do most of the work; synchronization is a small share, so a
//! sync-layer change can move this workload by at most that share.

use marsit::prelude::*;

use crate::harness::{repeated_setup, Checks, Failure, Recorder, Seeds, Window};
use crate::sync::{timed_rounds, Timed};

/// Rounds run (and discarded) during set-up.
const WARMUP_ROUNDS: usize = 10;
/// Round budget handed to the trainer; the timed window ends long before.
pub const ROUND_BUDGET: usize = 4096;

/// ResNet-50/ImageNet proxy (d = 170 674) on torus(2,4), Marsit with K = 10,
/// sequential workers, telemetry disabled, no periodic evaluation.
pub fn config(seeds: Seeds) -> TrainConfig {
    let mut cfg = TrainConfig::new(
        Workload::ResNet50ImageNet,
        Topology::torus(2, 4),
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.rounds = ROUND_BUDGET;
    cfg.seed = seeds.program();
    cfg.train_examples = 4096;
    cfg.test_examples = 256;
    cfg.batch_per_worker = 96;
    cfg.eval_every = 0;
    cfg.parallel_workers = false;
    cfg
}

/// Set-up: datasets from the seed, trainer construction, the warm-up rounds.
pub fn warmed(seeds: Seeds) -> TrainerState {
    let mut state = TrainerState::new(&config(seeds));
    for _ in 0..WARMUP_ROUNDS {
        state.step();
    }
    state
}

/// The untraced run.
pub fn run(seeds: Seeds, seconds: f64, checks: &mut Checks) -> Window {
    let (mut state, setup_s) = repeated_setup(|| warmed(seeds));
    let timed = timed_rounds(seconds, |_| {
        state.step();
        !state.is_done()
    });
    let window = timed.into_window(setup_s);
    checks.ops(window.rounds);
    check_outputs(&state, checks);
    window
}

/// The traced window: a root span per round, a child span around `step`.
pub fn run_traced(state: &mut TrainerState, seconds: f64, rec: &mut Recorder) -> Timed {
    timed_rounds(seconds, |r| {
        rec.span("round", "harness", r, |rec| {
            rec.span("step", "trainsim", r, |_| state.step());
        });
        !state.is_done()
    })
}

fn mean_loss(records: &[marsit::trainsim::RoundRecord]) -> f64 {
    records.iter().map(|r| r.train_loss).sum::<f64>() / records.len() as f64
}

/// Replicas still in consensus; training still learning (the loss of the
/// last ten rounds is below that of rounds 15..25, i.e. "round 20" with the
/// minibatch noise averaged out).
fn check_outputs(state: &TrainerState, checks: &mut Checks) {
    checks.check(Failure::Output, state.replicas_consistent(), || {
        "replicas diverged from consensus".to_string()
    });
    let records = state.records();
    checks.check(
        Failure::Output,
        records.iter().all(|r| r.train_loss.is_finite()),
        || "non-finite training loss".to_string(),
    );
    if records.len() >= 40 {
        let early = mean_loss(&records[15..25]);
        let late = mean_loss(&records[records.len() - 10..]);
        checks.check(Failure::Output, late < early, || {
            format!("final loss {late:.4} not below the round-20 loss {early:.4}")
        });
    }
}
