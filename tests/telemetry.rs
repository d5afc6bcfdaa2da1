//! Telemetry acceptance tests: the observability layer must be invisible
//! when disabled and *exact* when enabled.
//!
//! - The no-op sink records zero events and leaves results byte-identical
//!   to a run without any telemetry plumbing.
//! - Two runs with the same seed produce byte-identical JSONL event logs.
//! - Replaying the per-hop events of an instrumented collective rebuilds
//!   its `Trace` exactly — same step structure, same total bytes, and a
//!   bit-for-bit identical α–β schedule time — for every payload (`f32`
//!   sums, one-bit signs, sign-sums, majority votes) on ring(8) and
//!   torus(2,4), `f32` and sign-sums on a tree and a segmented ring, on both
//!   the clean and the fault-injected paths.

use marsit::collectives::ring::{
    ring_allreduce_majority, ring_allreduce_onebit, ring_allreduce_signsum, ring_allreduce_sum,
    SumWire,
};
use marsit::collectives::segring::segring_allreduce_sum;
use marsit::collectives::torus::{
    torus_allreduce_majority, torus_allreduce_onebit, torus_allreduce_signsum, torus_allreduce_sum,
};
use marsit::collectives::tree::{tree_allreduce_signsum, tree_allreduce_sum};
use marsit::collectives::{allreduce_onebit, allreduce_sum, CombineCtx, PlanTopology, Trace};
use marsit::prelude::*;
use marsit::telemetry::report::{analyze, parse_jsonl, schedule_time, validate};
use marsit::telemetry::{active, scoped, Telemetry, Value};
use proptest::prelude::*;

fn random_data(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    let mut rng = FastRng::new(seed, 0);
    (0..m)
        .map(|_| (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect())
        .collect()
}

fn random_signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
    let mut rng = FastRng::new(seed, 1);
    (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
        .collect()
}

/// A deterministic stand-in combine: keep the received aggregate.
fn keep_received(recv: &SignVec, local: &mut SignVec, _ctx: CombineCtx) {
    local.copy_from(recv);
}

/// Replays the recorded hop events and asserts they rebuild `trace` exactly:
/// step structure, total bytes, and bit-identical schedule time.
fn assert_reconstructs(tel: &Telemetry, trace: &Trace) {
    let analysis = analyze(&tel.snapshot_events()).expect("hop events analyze cleanly");
    assert_eq!(
        analysis.steps.as_slice(),
        trace.steps(),
        "rebuilt step structure differs from the collective's trace"
    );
    assert_eq!(analysis.total_bytes() as usize, trace.total_bytes());
    let link = LinkModel::new(25e-6, 1.25e9);
    let rebuilt = schedule_time(25e-6, 1.25e9, &analysis.steps);
    assert_eq!(
        rebuilt.to_bits(),
        trace.time(link).to_bits(),
        "rebuilt schedule time must match Trace::time bit-for-bit"
    );
}

/// Runs `collective` in a recording scope of its own and asserts that its
/// hop events rebuild the trace it returns.
fn assert_run_reconstructs(label: &str, collective: impl FnOnce() -> Trace) {
    println!("reconstructing {label}");
    let tel = Telemetry::recording();
    let trace = scoped(&tel, collective);
    assert!(trace.num_steps() > 0, "{label}: empty trace");
    assert_reconstructs(&tel, &trace);
}

/// The `f32` ring, and what rides the same walk: the ring's integer
/// payloads under both encodings, and `f32` and sign-sums over a tree and a
/// segmented ring.
#[test]
fn ring_sum_reconstructs_exactly() {
    let signs = random_signs(8, 1000, 2);
    assert_run_reconstructs("ring f32", || {
        ring_allreduce_sum(&mut random_data(8, 1000, 1))
    });
    for wire in [SumWire::Elias, SumWire::FixedWidth] {
        assert_run_reconstructs("ring sign-sum", || ring_allreduce_signsum(&signs, wire).1);
        assert_run_reconstructs("ring majority", || ring_allreduce_majority(&signs, wire).1);
    }
    assert_run_reconstructs("tree f32", || {
        tree_allreduce_sum(&mut random_data(6, 1000, 1))
    });
    assert_run_reconstructs("tree sign-sum", || tree_allreduce_signsum(&signs[..6]).1);
    assert_run_reconstructs("segring f32", || {
        segring_allreduce_sum(&mut random_data(4, 1000, 1), 3)
    });
}

#[test]
fn ring_onebit_reconstructs_exactly() {
    let tel = Telemetry::recording();
    let signs = random_signs(8, 1000, 2);
    let (_, trace) = scoped(&tel, || ring_allreduce_onebit(&signs, keep_received));
    assert_reconstructs(&tel, &trace);
}

/// The `f32` torus and its integer payloads.
#[test]
fn torus_sum_reconstructs_exactly() {
    let signs = random_signs(8, 1000, 4);
    assert_run_reconstructs("torus f32", || {
        torus_allreduce_sum(&mut random_data(8, 1000, 3), 2, 4)
    });
    for wire in [SumWire::Elias, SumWire::FixedWidth] {
        assert_run_reconstructs("torus sign-sum", || {
            torus_allreduce_signsum(&signs, 2, 4, wire).1
        });
        assert_run_reconstructs("torus majority", || {
            torus_allreduce_majority(&signs, 2, 4, wire).1
        });
    }
}

#[test]
fn torus_onebit_reconstructs_exactly() {
    let tel = Telemetry::recording();
    let signs = random_signs(8, 1000, 4);
    let (_, trace) = scoped(&tel, || torus_allreduce_onebit(&signs, 2, 4, keep_received));
    assert_reconstructs(&tel, &trace);
}

#[test]
fn faulty_ring_sum_reconstructs_with_retries() {
    let plan = FaultPlan::seeded(9)
        .with_link_drop(0.2)
        .with_retry_policy(4, 1e-4);
    let tel = Telemetry::recording();
    let mut data = random_data(8, 1000, 5);
    let mut inj = plan.injector(0);
    let trace = scoped(&tel, || {
        allreduce_sum(PlanTopology::Ring, &mut data, &mut inj).expect("valid inputs")
    });
    assert!(
        trace.num_steps() > 2 * 7,
        "want retries in this scenario so the expanded-step path is exercised"
    );
    assert_reconstructs(&tel, &trace);

    // The torus takes the same injector: 5 % drops, retried.
    let plan = FaultPlan::seeded(9)
        .with_link_drop(0.05)
        .with_retry_policy(4, 1e-4);
    let mut inj = plan.injector(0);
    let torus = PlanTopology::Torus { rows: 2, cols: 4 };
    assert_run_reconstructs("faulty torus f32", || {
        let trace = allreduce_sum(torus, &mut data, &mut inj).expect("valid inputs");
        assert!(trace.num_steps() > 2 * 3 + 2, "want retries here too");
        trace
    });
}

#[test]
fn faulty_ring_onebit_reconstructs_with_retries() {
    let plan = FaultPlan::seeded(11)
        .with_link_drop(0.2)
        .with_retry_policy(4, 1e-4);
    let tel = Telemetry::recording();
    let signs = random_signs(8, 1000, 6);
    let mut inj = plan.injector(0);
    let (_, trace) = scoped(&tel, || {
        allreduce_onebit(PlanTopology::Ring, &signs, &mut inj, keep_received).expect("valid inputs")
    });
    assert_reconstructs(&tel, &trace);
}

#[test]
fn faulty_torus_onebit_reconstructs_with_retries() {
    let plan = FaultPlan::seeded(13)
        .with_link_drop(0.2)
        .with_retry_policy(4, 1e-4);
    let tel = Telemetry::recording();
    let signs = random_signs(8, 1000, 7);
    let mut inj = plan.injector(0);
    let torus = PlanTopology::Torus { rows: 2, cols: 4 };
    let (_, trace) = scoped(&tel, || {
        allreduce_onebit(torus, &signs, &mut inj, keep_received).expect("valid inputs")
    });
    assert_reconstructs(&tel, &trace);
}

/// Consecutive collectives in one scope share the global `seq` counter, so
/// the concatenated rebuild equals the concatenated traces.
#[test]
fn consecutive_collectives_concatenate() {
    let tel = Telemetry::recording();
    let (mut combined, second) = scoped(&tel, || {
        let mut data = random_data(8, 500, 8);
        let first = ring_allreduce_sum(&mut data);
        let signs = random_signs(8, 500, 9);
        let (_, second) = torus_allreduce_onebit(&signs, 2, 4, keep_received);
        (first, second)
    });
    combined.extend(second);
    assert_reconstructs(&tel, &combined);
}

fn short_train_cfg() -> TrainConfig {
    let mut cfg = TrainConfig::new(
        Workload::AlexNetMnist,
        Topology::ring(4),
        StrategyKind::Marsit { k: Some(5) },
    );
    cfg.rounds = 8;
    cfg.train_examples = 512;
    cfg.test_examples = 128;
    cfg.eval_every = 0;
    cfg.local_lr = 0.1;
    cfg.marsit_global_lr = 0.01;
    cfg.optimizer = OptimizerKind::Sgd;
    cfg
}

/// The no-op sink records nothing, and threading it through a training run
/// changes no result bit.
#[test]
fn disabled_sink_is_invisible() {
    let baseline = train(&short_train_cfg());
    let disabled = Telemetry::disabled();
    let mut cfg = short_train_cfg();
    cfg.telemetry = disabled.clone();
    let with_disabled = train(&cfg);
    assert_eq!(
        disabled.event_count(),
        0,
        "no-op sink must emit zero events"
    );
    assert_eq!(disabled.events_jsonl(), "");
    assert_eq!(baseline, with_disabled);
}

/// Recording telemetry observes a run without perturbing it, and the full
/// event log is byte-stable across same-seed runs — including under fault
/// injection.
#[test]
fn same_seed_runs_are_byte_identical() {
    let run = || {
        let tel = Telemetry::recording();
        let mut cfg = short_train_cfg();
        cfg.fault_plan = FaultPlan::seeded(7)
            .with_link_drop(0.05)
            .with_straggler(1, 2.0);
        cfg.telemetry = tel.clone();
        let report = train(&cfg);
        (report, tel.events_jsonl(), tel.summary_json())
    };
    let (report_a, jsonl_a, summary_a) = run();
    let (report_b, jsonl_b, summary_b) = run();
    assert_eq!(report_a, report_b);
    assert!(!jsonl_a.is_empty());
    assert_eq!(jsonl_a, jsonl_b, "event logs must be byte-identical");
    assert_eq!(summary_a, summary_b, "summaries must be byte-identical");

    // The recorded run is also unperturbed relative to a silent one.
    let mut silent_cfg = short_train_cfg();
    silent_cfg.fault_plan = FaultPlan::seeded(7)
        .with_link_drop(0.05)
        .with_straggler(1, 2.0);
    let silent = train(&silent_cfg);
    assert_eq!(silent, report_a);
}

/// A full training run's log round-trips through JSONL, passes schema
/// validation, and its hop events account for every byte the report counted.
#[test]
fn train_log_roundtrips_validates_and_accounts_bytes() {
    // Marsit on a ring, and a baseline on a torus: its integer payloads
    // emit hops like everything else that rides the schedule walk.
    let mut majority = short_train_cfg();
    majority.topology = Topology::torus(2, 2);
    majority.strategy = StrategyKind::SignMajority;
    for mut cfg in [short_train_cfg(), majority] {
        let tel = Telemetry::recording();
        cfg.telemetry = tel.clone();
        let report = train(&cfg);

        let jsonl = tel.events_jsonl();
        let events = parse_jsonl(&jsonl).expect("log parses");
        assert_eq!(events.len(), tel.event_count());
        assert_eq!(validate(&events), Vec::<String>::new());

        let analysis = analyze(&events).expect("log analyzes");
        assert_eq!(analysis.total_bytes() as usize, report.total_bytes);
        assert_eq!(analysis.phases.rounds as usize, cfg.rounds);
        assert!((analysis.phases.total_s() - report.total_time.total()).abs() < 1e-9);
    }
}

proptest! {
    /// Arbitrary interleavings of nested telemetry scopes never reorder
    /// events: each sink receives exactly the events emitted while it was
    /// the innermost scope, in global emission order, and its batched JSONL
    /// rendering preserves that order byte-for-byte.
    #[test]
    fn interleaved_scopes_never_reorder_events(
        ops in proptest::collection::vec(any::<u8>(), 1..48),
    ) {
        let outer = Telemetry::recording();
        let inner = Telemetry::recording();
        let mut expect_outer = Vec::new();
        let mut expect_inner = Vec::new();
        let mut next = 0u64;
        scoped(&outer, || {
            for &op in &ops {
                let emit_here = |expect: &mut Vec<u64>, next: &mut u64| {
                    let t = active().expect("a scope is installed");
                    t.emit("e", vec![("i", Value::U64(*next))]);
                    expect.push(*next);
                    *next += 1;
                };
                match op % 4 {
                    // A nested scope swallows a burst of events, then pops.
                    0 => scoped(&inner, || {
                        for _ in 0..=(op / 64) {
                            emit_here(&mut expect_inner, &mut next);
                        }
                    }),
                    // Re-entering the *same* sink nests fine too.
                    1 => scoped(&outer, || emit_here(&mut expect_outer, &mut next)),
                    _ => emit_here(&mut expect_outer, &mut next),
                }
            }
        });
        let ids = |t: &Telemetry| -> Vec<u64> {
            t.snapshot_events()
                .iter()
                .map(|e| e.u64_field("i").expect("payload field"))
                .collect()
        };
        prop_assert_eq!(ids(&outer), expect_outer);
        prop_assert_eq!(ids(&inner), expect_inner);
        // The batch renders in the same order it recorded.
        for t in [&outer, &inner] {
            let mut per_event = String::new();
            t.for_each_event(|ev| {
                ev.write_jsonl(&mut per_event);
                per_event.push('\n');
            });
            prop_assert_eq!(t.events_jsonl(), per_event);
        }
    }
}
