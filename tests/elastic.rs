//! Elastic-membership acceptance tests: training runs survive multiple
//! crashes and rejoins, degrade topologies gracefully (torus → survivor
//! ring → lone survivor), price rejoin catch-up transfers on the simulated
//! clock, and force last-resort deliveries under a 100% drop rate — all
//! while keeping per-round replica consensus and deterministic replay.

use marsit::prelude::*;

fn elastic_cfg(topology: Topology, k: Option<u32>) -> TrainConfig {
    let mut cfg = TrainConfig::new(Workload::AlexNetMnist, topology, StrategyKind::Marsit { k });
    cfg.rounds = 30;
    cfg.train_examples = 1024;
    cfg.test_examples = 256;
    cfg.eval_every = 10;
    cfg.local_lr = 0.1;
    cfg.marsit_global_lr = 0.01;
    cfg.optimizer = OptimizerKind::Sgd;
    cfg
}

/// Two crashes plus a rejoin in one run: the ring shrinks twice, re-expands
/// once, the rejoin is priced as a catch-up transfer, and the whole thing
/// replays deterministically.
#[test]
fn multi_crash_and_rejoin_training_run() {
    let mut cfg = elastic_cfg(Topology::ring(5), Some(10));
    cfg.fault_plan = FaultPlan::seeded(21)
        .with_crash_event(1, 5)
        .with_crash_event(3, 8)
        .with_rejoin(1, 12);
    let report = train(&cfg);
    assert!(!report.diverged);
    assert_eq!(report.records.len(), 30);
    assert_eq!(report.faults.rejoins, 1);
    assert_eq!(
        report.faults.crashed_workers, 2,
        "peak concurrent crashes (rounds 8..12)"
    );
    assert!(
        report.faults.repairs >= 3,
        "two crashes + one rejoin each re-form the ring: {:?}",
        report.faults
    );
    assert!(
        report.faults.catchup_extra_s > 0.0,
        "the rejoin must pay a catch-up transfer on the clock"
    );
    // Deterministic replay under the same plan.
    let again = train(&cfg);
    assert_eq!(report, again);
}

/// A torus cluster degrades to a survivor ring when a worker crashes and
/// re-forms the torus when it rejoins; training converges through it.
#[test]
fn torus_degrades_and_recovers_through_training() {
    let mut cfg = elastic_cfg(Topology::torus(2, 3), None);
    cfg.fault_plan = FaultPlan::seeded(5)
        .with_crash_event(4, 3)
        .with_rejoin(4, 7);
    let report = train(&cfg);
    assert!(!report.diverged);
    assert_eq!(report.faults.rejoins, 1);
    assert_eq!(report.faults.crashed_workers, 1);
    assert!(report.faults.repairs >= 2, "{:?}", report.faults);
    assert!(report.final_eval.accuracy > 0.5);
}

/// With 2 workers and one crash the run ends in lone-survivor mode: rounds
/// keep a defined (local-only) outcome, nothing panics, and the consensus
/// invariant still holds because every replica applies the same update.
#[test]
fn lone_survivor_training_is_defined() {
    let mut cfg = elastic_cfg(Topology::ring(2), Some(10));
    cfg.fault_plan = FaultPlan::seeded(9).with_crash_event(1, 4);
    let report = train(&cfg);
    assert_eq!(report.records.len(), 30);
    assert!(!report.diverged);
    assert_eq!(report.faults.crashed_workers, 1);
    assert!(report.final_eval.loss.is_finite());
}

/// A seeded storm (3 crashes, 2 rejoins) generated by
/// [`MembershipSchedule::storm`] keeps at least two workers live, completes
/// every round, and replays deterministically.
#[test]
fn membership_storm_training_completes() {
    let mut cfg = elastic_cfg(Topology::ring(6), Some(8));
    cfg.rounds = 40;
    let schedule = MembershipSchedule::storm(77, 6, 40, 3, 2);
    assert!(
        schedule.events.len() >= 4,
        "storm under-generated: {:?}",
        schedule.events
    );
    cfg.fault_plan = FaultPlan::seeded(77).with_membership(schedule);
    let report = train(&cfg);
    assert!(!report.diverged);
    assert_eq!(report.records.len(), 40);
    assert!(report.faults.repairs >= 2);
    let again = train(&cfg);
    assert_eq!(report, again);
}

/// Satellite: a 100% drop rate on every link exhausts the retry budget on
/// the distribution phases, so the fabric's forced-delivery escalation kicks
/// in — the run records nonzero `forced_deliveries`, surfaces them through
/// the telemetry counter, and consensus is *unchanged* (the run replays
/// byte-identically).
#[test]
fn certain_drop_forces_deliveries_and_keeps_consensus() {
    let tel = Telemetry::recording();
    let mut cfg = elastic_cfg(Topology::ring(4), Some(5));
    cfg.rounds = 8;
    cfg.fault_plan = FaultPlan::seeded(13)
        .with_link_drop(1.0)
        .with_retry_policy(2, 1e-4);
    cfg.telemetry = tel.clone();
    let report = train(&cfg);
    assert!(
        report.faults.forced_deliveries > 0,
        "broadcast under certain drop must force deliveries: {:?}",
        report.faults
    );
    assert!(report.faults.dropped_transfers > 0);
    assert!(report.final_eval.loss.is_finite());
    assert!(
        tel.summary_json().contains("marsit.forced_deliveries"),
        "forced deliveries must surface as a telemetry counter"
    );
    // Determinism: forced deliveries do not introduce any nondeterminism.
    let mut cfg2 = cfg.clone();
    cfg2.telemetry = Telemetry::disabled();
    let a = train(&cfg2);
    let b = train(&cfg2);
    assert_eq!(a, b);
    assert_eq!(a.faults, report.faults);
}
