//! Cross-rank trace merge and straggler-detection integration tests.
//!
//! These drive the *real* multi-process backend: one OS process per rank
//! over localhost TCP, wall-clock tracing on, telemetry batches streamed to
//! the hub's collector at each round's flush point. The pinned contracts:
//!
//! - merging the per-rank logs is deterministic — two same-seed runs yield
//!   byte-identical causally-ordered traces once wall-clock fields are
//!   stripped, and the merge itself never consults file order;
//! - the online detector flags exactly the rank whose compute we slowed
//!   down, with zero false positives on a clean run;
//! - with the collector disabled, the tracing side channel puts exactly
//!   zero bytes on the wire.

use marsit::collectives::PlanTopology;
use marsit::core::transport::{Scenario, TraceRunConfig, TracedRun};
use marsit::core::CombineKind;
use marsit::telemetry::health::HealthEvent;
use marsit::telemetry::report::{merge_logs, strip_wall_clock, validate};

fn worker_exe() -> &'static str {
    env!("CARGO_BIN_EXE_transport_worker")
}

fn ring4() -> Scenario {
    Scenario {
        topo: PlanTopology::Ring,
        world: 4,
        d: 1024,
        seed: 0x7ACE,
        round: 0,
        // Clean schedule: every planned transfer delivers, so all ranks
        // trace the same seq set every round.
        drop_p: None,
        combine: CombineKind::Weighted,
    }
}

fn run(cfg: TraceRunConfig) -> TracedRun {
    ring4()
        .run_process_traced(worker_exe(), cfg)
        .expect("traced process run")
}

fn stripped_jsonl(run: &TracedRun) -> String {
    let mut events = run.merged.clone();
    strip_wall_clock(&mut events);
    let mut out = String::new();
    for ev in &events {
        ev.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

#[test]
fn same_seed_runs_merge_to_byte_identical_traces() {
    let cfg = TraceRunConfig {
        rounds: 3,
        compute_ns: 2_000_000,
        straggler: None,
        collect: true,
    };
    let a = run(cfg);
    let b = run(cfg);
    // Wall clocks differ between the two runs; the causal trace must not.
    let sa = stripped_jsonl(&a);
    assert_eq!(sa, stripped_jsonl(&b), "merged traces diverged across runs");
    assert!(!sa.is_empty());

    // The merged log is a valid telemetry stream in its own right.
    assert_eq!(validate(&a.merged), Vec::<String>::new());

    // Causal order: run_meta first (deduplicated to one), then hops by
    // absolute expanded-step seq, non-decreasing.
    assert_eq!(a.merged[0].name, "run_meta");
    assert_eq!(
        a.merged.iter().filter(|e| e.name == "run_meta").count(),
        1,
        "identical per-rank run_meta events must collapse to one"
    );
    let seqs: Vec<u64> = a
        .merged
        .iter()
        .filter(|e| e.name == "hop")
        .map(|e| e.u64_field("seq").expect("hop has seq"))
        .collect();
    assert!(seqs.windows(2).all(|w| w[0] <= w[1]), "seqs not sorted");
    // Ring(4) on a clean schedule: 6 steps/round, 4 transfers each, and the
    // per-round seq windows are aligned across ranks (3 rounds × 6 steps).
    assert_eq!(seqs.len(), 3 * 6 * 4);
    assert_eq!(seqs.last(), Some(&17));

    // Every hop is tagged with the transport that produced it and carries
    // propagated context.
    for ev in a.merged.iter().filter(|e| e.name == "hop") {
        assert_eq!(ev.str_field("backend"), Some("process"));
        assert_eq!(ev.str_field("clock"), Some("real"));
        assert!(ev.u64_field("round").is_some(), "hop missing round");
    }

    // The merge is file-order-invariant: feeding the merged events back in
    // as differently-ordered shards reproduces the same sequence.
    let shards: Vec<Vec<marsit::telemetry::Event>> = a
        .merged
        .chunks(5)
        .rev()
        .map(<[marsit::telemetry::Event]>::to_vec)
        .collect();
    let remerged = merge_logs(&shards);
    let mut lines = String::new();
    for ev in &remerged {
        ev.write_jsonl(&mut lines);
        lines.push('\n');
    }
    let mut expect = String::new();
    for ev in &a.merged {
        ev.write_jsonl(&mut expect);
        expect.push('\n');
    }
    assert_eq!(lines, expect, "merge depends on shard order");
}

#[test]
fn detector_flags_exactly_the_injected_straggler() {
    let slow_rank = 2;
    let out = run(TraceRunConfig {
        rounds: 6,
        compute_ns: 20_000_000,
        straggler: Some((slow_rank, 2.5)),
        collect: true,
    });
    let stragglers: Vec<&HealthEvent> = out
        .health
        .iter()
        .filter(|e| matches!(e, HealthEvent::StragglerSuspected { .. }))
        .collect();
    assert!(!stragglers.is_empty(), "injected straggler went undetected");
    for ev in &out.health {
        match ev {
            HealthEvent::StragglerSuspected { rank, .. } => {
                assert_eq!(*rank, slow_rank, "wrong rank suspected: {ev:?}");
            }
            // Localhost transit is microseconds; nothing else may fire.
            other => panic!("false positive: {other:?}"),
        }
    }
    assert_eq!(
        out.fault_stats.stragglers_suspected,
        stragglers.len() as u64
    );
    assert_eq!(out.fault_stats.links_degraded, 0);
    assert_eq!(out.fault_stats.ranks_silent, 0);
}

#[test]
fn clean_run_raises_no_health_events() {
    let out = run(TraceRunConfig {
        rounds: 4,
        compute_ns: 5_000_000,
        straggler: None,
        collect: true,
    });
    assert_eq!(out.health, Vec::new(), "false positives on a clean run");
    assert_eq!(out.fault_stats.stragglers_suspected, 0);
    assert!(out.side_channel_bytes > 0, "collector saw no traffic");
}

#[test]
fn disabled_collector_puts_zero_bytes_on_the_wire() {
    let out = run(TraceRunConfig {
        rounds: 2,
        compute_ns: 0,
        straggler: None,
        collect: false,
    });
    assert_eq!(out.side_channel_bytes, 0, "tracing leaked onto the wire");
    assert!(out.merged.is_empty());
    assert!(out.health.is_empty());
}
