//! Acceptance tests for the fault-injection & graceful-degradation layer:
//! a seeded fault plan (1% link drops, one 4× straggler, one mid-run
//! crash) must leave Marsit training convergent and consensus-consistent
//! on both ring and torus topologies, the fault counters must surface in
//! the report, `FaultPlan::none()` must be byte-identical to a run without
//! the fault layer, and everything must replay exactly under a fixed seed.

use marsit::collectives::ring::{segment_ranges, SumWire};
use marsit::collectives::{allreduce_onebit, allreduce_signsum, allreduce_sum, PlanTopology};
use marsit::core::ominus::combine_weighted_assign;
use marsit::core::SyncOutcome;
use marsit::prelude::*;
use marsit::tensor::stats::binomial_ci_halfwidth;

fn faulty_cfg(topology: Topology) -> TrainConfig {
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        topology,
        StrategyKind::Marsit { k: Some(10) },
    );
    cfg.rounds = 30;
    cfg.train_examples = 2048;
    cfg.test_examples = 512;
    cfg.eval_every = 0;
    cfg.local_lr = 0.1;
    cfg.marsit_global_lr = 0.01;
    cfg.optimizer = OptimizerKind::Sgd;
    // check_consistency stays on (the default): train() itself asserts
    // that every replica — including the crashed one, which keeps applying
    // the survivors' consensus update — stays bitwise identical.
    cfg.fault_plan = FaultPlan::seeded(0xFA17)
        .with_link_drop(0.01)
        .with_straggler(1, 4.0)
        .with_crash(3, 15);
    cfg
}

/// The issue's headline scenario on an 8-worker ring: drops are retried,
/// the straggler stretches compute, the crash repairs to a 7-worker ring,
/// and training still converges with all counters visible in the report.
#[test]
fn ring8_survives_drops_straggler_and_crash() {
    let report = train(&faulty_cfg(Topology::ring(8)));
    assert!(!report.diverged);
    assert!(
        report.final_eval.accuracy > 0.6,
        "accuracy {}",
        report.final_eval.accuracy
    );
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
    assert_eq!(report.faults.repairs, 1, "{:?}", report.faults);
    assert_eq!(report.faults.crashed_workers, 1);
    assert!(report.faults.retry_extra_s > 0.0);

    // Faults are strictly additive on the simulated clock.
    let mut clean = faulty_cfg(Topology::ring(8));
    clean.fault_plan = FaultPlan::none();
    let clean_report = train(&clean);
    assert!(clean_report.faults.is_clean());
    assert!(report.total_time.total() > clean_report.total_time.total());
}

/// The same plan on a 2×4 torus: the crash degrades the torus schedule to
/// a ring over the 7 survivors and the run still reaches consensus.
#[test]
fn torus2x4_survives_drops_straggler_and_crash() {
    let report = train(&faulty_cfg(Topology::torus(2, 4)));
    assert!(!report.diverged);
    assert!(
        report.final_eval.accuracy > 0.6,
        "accuracy {}",
        report.final_eval.accuracy
    );
    assert!(report.faults.retransmits > 0, "{:?}", report.faults);
    assert_eq!(report.faults.repairs, 1);
    assert_eq!(report.faults.crashed_workers, 1);
}

/// `FaultPlan::none()` is free: the report is byte-identical to one from a
/// config that never mentions the fault layer.
#[test]
fn none_plan_report_is_byte_identical() {
    let mut cfg = faulty_cfg(Topology::ring(4));
    cfg.fault_plan = FaultPlan::none();
    let explicit = train(&cfg);
    let default_cfg = {
        let mut c = faulty_cfg(Topology::ring(4));
        c.fault_plan = FaultPlan::default();
        c
    };
    let default_report = train(&default_cfg);
    assert_eq!(explicit, default_report);
    assert!(explicit.faults.is_clean());
}

/// Two runs under the same fault-plan seed replay every drop, retry, and
/// repair exactly.
#[test]
fn faulty_runs_replay_deterministically() {
    let cfg = faulty_cfg(Topology::ring(8));
    let a = train(&cfg);
    let b = train(&cfg);
    assert_eq!(a, b);
}

/// Unbiasedness survives the fault layer: with a retry budget deep enough
/// that no transfer is permanently omitted, `E[consensus bit]` through the
/// *faulty* ring pipeline over the 7 crash survivors still equals the
/// survivors' mean sign, within a 5σ binomial interval.
#[test]
fn survivor_unbiasedness_under_retried_drops() {
    let survivors = 7;
    let d = 16;
    let mut seed_rng = FastRng::new(21, 0);
    let signs: Vec<SignVec> = (0..survivors)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut seed_rng))
        .collect();
    // Drop 10% of transfers but allow 8 retries: the chance of exhausting
    // the budget (an omission, which *would* bias the estimate toward the
    // workers that got through) is 1e-9 per transfer — negligible over
    // this experiment.
    let plan = FaultPlan::seeded(33)
        .with_link_drop(0.1)
        .with_retry_policy(8, 1e-4);
    let trials: u64 = 6_000;
    let mut ones = vec![0u32; d];
    let mut retransmits = 0u64;
    for trial in 0..trials {
        let mut inj = plan.injector(trial);
        let mut rng = FastRng::new(90_000 + trial, 0);
        let (out, _) = allreduce_onebit(PlanTopology::Ring, &signs, &mut inj, |r, l, ctx| {
            combine_weighted_assign(r, ctx.received_count, l, ctx.local_count, &mut rng);
        })
        .expect("valid inputs");
        retransmits += inj.stats().retransmits;
        for (j, o) in ones.iter_mut().enumerate() {
            *o += u32::from(out.get(j));
        }
    }
    assert!(
        retransmits > 0,
        "the drop rate must actually exercise retries"
    );
    for (j, &o) in ones.iter().enumerate() {
        let measured = f64::from(o) / trials as f64;
        let expected = signs.iter().filter(|v| v.get(j)).count() as f64 / survivors as f64;
        let hw = binomial_ci_halfwidth(expected, trials);
        assert!(
            (measured - expected).abs() <= hw + 1e-12,
            "coord {j}: {measured} vs {expected} (±{hw})"
        );
    }
}

/// The baselines' payloads ride the same fault-aware walk: under 25 % drops
/// with one retry an `f32` torus sum and a ring sign-sum omit reduce
/// transfers for good, yet gather reliably (every worker ends identical),
/// keep exact counts (with all-`+1` inputs a coordinate's sum *is* the
/// number of workers its segment folded, and the total's count is the
/// largest of them), show retransmits as extra steps, and replay exactly
/// under the same seed — trace and injector end state included.
#[test]
fn baseline_payloads_degrade_gracefully_under_drops() {
    let plan = FaultPlan::seeded(0xD20)
        .with_link_drop(0.25)
        .with_retry_policy(1, 1e-4);

    let torus = PlanTopology::Torus { rows: 2, cols: 4 };
    let sum = || {
        let mut data = vec![vec![1.0f32; 257]; 8];
        let mut inj = plan.injector(0);
        let trace = allreduce_sum(torus, &mut data, &mut inj).expect("valid inputs");
        (data, trace, format!("{inj:?}"), inj.stats())
    };
    let (data, trace, inj_end, stats) = sum();
    assert!(stats.dropped_transfers > 0 && stats.retransmits > 0);
    assert!(trace.num_steps() > 2 * 3 + 2, "retransmits add steps");
    assert!(data.iter().all(|w| w == &data[0]), "gather is reliable");
    assert!(
        data[0].iter().all(|&x| (1.0..=8.0).contains(&x)) && data[0].contains(&8.0),
        "partial sums of what arrived"
    );
    assert!(data[0].iter().any(|&x| x < 8.0), "an omission shows");
    let again = sum();
    assert_eq!((data, trace, inj_end), (again.0, again.1, again.2));

    let (m, d) = (7, 257);
    let signs = vec![SignVec::ones(d); m];
    let signsum = || {
        let mut inj = plan.injector(1);
        let (total, trace) =
            allreduce_signsum(PlanTopology::Ring, &signs, SumWire::Elias, &mut inj)
                .expect("valid inputs");
        (total, trace, format!("{inj:?}"), inj.stats())
    };
    let (total, trace, inj_end, stats) = signsum();
    assert!(stats.dropped_transfers > 0 && stats.retransmits > 0);
    assert!(trace.num_steps() > 2 * (m - 1), "retransmits add steps");
    let folded: Vec<i32> = segment_ranges(d, m)
        .into_iter()
        .map(|seg| {
            let sums = &total.sums()[seg];
            assert!(sums.iter().all(|&s| s == sums[0]), "one count per segment");
            sums[0]
        })
        .collect();
    assert!(folded.iter().all(|&c| (1..=m as i32).contains(&c)));
    assert!(folded.iter().any(|&c| c < m as i32), "an omission shows");
    assert_eq!(
        i64::from(total.count()),
        i64::from(folded.iter().copied().max().unwrap())
    );
    let again = signsum();
    assert_eq!((total, trace, inj_end), (again.0, again.1, again.2));
}

/// Per-round, per-worker updates, distinct every round.
fn round_updates(m: usize, d: usize, t: u64) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(1_000 + t, w as u64);
            (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect()
        })
        .collect()
}

fn compensation_bits(sync: &mut Marsit, m: usize) -> Vec<Vec<u32>> {
    (0..m)
        .map(|w| {
            let c = sync.compensation(w).vector();
            c.iter().map(|x| x.to_bits()).collect()
        })
        .collect()
}

/// "All delivered ≡ clean": a plan that only names a straggler injects
/// nothing into the collectives — every transfer is delivered first try and
/// every worker stays live — so its rounds must be the clean rounds, bit for
/// bit: outcomes (global update, compensated mean, trace, zero fault stats)
/// and the compensation state behind them. A torus with a finite `K` is left
/// out: under a plan its full-precision rounds resync over a ring.
#[test]
fn straggler_only_plan_equals_no_plan() {
    let m = 8;
    for d in [129usize, 4_099] {
        for (topology, schedule) in [
            (Topology::ring(m), SyncSchedule::never()),
            (Topology::ring(m), SyncSchedule::every(5)),
            (Topology::torus(2, 4), SyncSchedule::never()),
        ] {
            let cfg = MarsitConfig::new(schedule, 0.01, 77);
            let plan = FaultPlan::seeded(5).with_straggler(1, 2.5);
            let mut clean = Marsit::new(cfg.clone(), m, d);
            let mut delivered = Marsit::new(cfg.with_fault_plan(plan), m, d);
            for t in 0..20u64 {
                let ups = round_updates(m, d, t);
                let a = clean.synchronize(&ups, topology);
                let b = delivered.synchronize(&ups, topology);
                assert_eq!(a, b, "{topology:?} {schedule:?} d={d} round {t}");
                // Reading the compensation materializes any deferred
                // residual; every third round keeps chains of one, two and
                // three deferred rounds on the path.
                if t % 3 == 2 || t == 19 {
                    assert_eq!(
                        compensation_bits(&mut clean, m),
                        compensation_bits(&mut delivered, m),
                        "{topology:?} {schedule:?} d={d} round {t}: compensation"
                    );
                }
            }
        }
    }
}

/// Swapping the fault plan mid-run (none → chaos with a crash and a rejoin →
/// none) never depends on whether a residual happened to be deferred: an
/// instance whose compensation is read (and so materialized) after every
/// round reports the same outcomes as one left alone.
#[test]
fn plan_swaps_agree_with_a_flushed_instance() {
    let (m, d) = (8usize, 4_099usize);
    let chaos = FaultPlan::seeded(41)
        .with_link_drop(0.05)
        .with_link_corruption(0.02)
        .with_retry_policy(1, 2e-4)
        .with_straggler(2, 3.0)
        .with_crash_event(6, 8)
        .with_rejoin(6, 11);
    for topology in [Topology::ring(m), Topology::torus(2, 4)] {
        let cfg = MarsitConfig::new(SyncSchedule::every(7), 0.01, 13);
        let mut lazy = Marsit::new(cfg.clone(), m, d);
        let mut flushed = Marsit::new(cfg, m, d);
        let mut out = SyncOutcome::default();
        for t in 0..20u64 {
            if t == 5 {
                lazy.set_fault_plan(chaos.clone());
                flushed.set_fault_plan(chaos.clone());
            } else if t == 15 {
                lazy.set_fault_plan(FaultPlan::none());
                flushed.set_fault_plan(FaultPlan::none());
            }
            let ups = round_updates(m, d, t);
            lazy.synchronize_into(&ups, topology, &mut out);
            let reference = flushed.synchronize(&ups, topology);
            let _ = flushed.compensation(0);
            assert_eq!(out, reference, "{topology:?} round {t}");
        }
        assert_eq!(
            compensation_bits(&mut lazy, m),
            compensation_bits(&mut flushed, m),
            "{topology:?}: final compensation"
        );
    }
}
