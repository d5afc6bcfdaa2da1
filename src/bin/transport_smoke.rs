//! CI smoke for the multi-process transport backend.
//!
//! Launches a short ring(4) one-bit all-reduce with one OS process per rank
//! (re-execs of this binary exchanging binary frames over localhost TCP),
//! asserts the consensus words and `⊙`/RNG-draw counters match the
//! deterministic simulator bit-for-bit, and writes the run's telemetry
//! JSONL — hop events tagged `backend:"process"` — for schema validation by
//! `telemetry_report --validate`.
//!
//! Then exercises the distributed-tracing stack end to end:
//!
//! - a collector-enabled run whose per-rank trace batches merge into one
//!   causally-ordered log (schema-validated here and written to
//!   `--trace-out` for `telemetry_report --validate` / `marsit_top` in CI),
//!   with zero health events on the clean schedule;
//! - a run with rank 2 slowed 2.5× that must raise `StragglerSuspected`
//!   for exactly that rank;
//! - a collector-disabled run that must put exactly zero side-channel
//!   bytes on the wire (hard failure otherwise).
//!
//! ```text
//! cargo run --release --bin transport_smoke [-- --out PATH] [--trace-out PATH]
//! ```

use marsit::collectives::PlanTopology;
use marsit::core::transport::{process_worker_main, Scenario, TraceRunConfig, WORKER_MODE};
use marsit::core::CombineKind;
use marsit::telemetry::health::HealthEvent;
use marsit::telemetry::report::validate;
use marsit::telemetry::{scoped, Telemetry};

fn main() {
    // A copy of this binary doubles as one rank of the process backend; the
    // worker mode flag routes it there.
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(WORKER_MODE) {
        std::process::exit(process_worker_main(&args[1..]));
    }
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("transport_smoke.jsonl", String::as_str);
    let trace_out_path = args
        .iter()
        .position(|a| a == "--trace-out")
        .and_then(|i| args.get(i + 1))
        .map_or("transport_smoke.trace.jsonl", String::as_str);

    let exe = std::env::current_exe().expect("current exe");
    let sc = Scenario {
        topo: PlanTopology::Ring,
        world: 4,
        d: 2048,
        seed: 0x0051_10BE,
        round: 1,
        drop_p: Some(0.1),
        combine: CombineKind::Weighted,
    };
    let reference = sc.run_simulator().expect("simulator reference");

    let tel = Telemetry::recording();
    tel.set_time(0.0);
    tel.emit(
        "run_meta",
        vec![
            ("schema", "marsit-telemetry/1".into()),
            ("seed", sc.seed.into()),
            ("strategy", "transport_smoke".into()),
            ("topology", sc.topo.encode().into()),
            ("workers", sc.world.into()),
            ("d", sc.d.into()),
            ("rounds", 1usize.into()),
        ],
    );
    let process = scoped(&tel, || {
        sc.run_process(exe.to_str().expect("utf-8 exe path"))
            .expect("process round")
    });

    assert_eq!(
        reference.consensus_words(),
        process.consensus_words(),
        "process consensus diverged from the simulator"
    );
    assert_eq!(reference.combines, process.combines, "combine count");
    assert_eq!(reference.rng_draws, process.rng_draws, "rng draws");
    let jsonl = tel.events_jsonl();
    assert!(
        jsonl.contains("\"backend\":\"process\""),
        "hop events must carry the process transport tag"
    );

    std::fs::write(out_path, jsonl).expect("write telemetry");
    println!(
        "process ring({}) matched the simulator bit-for-bit ({} consensus words, {} combines); \
         {} events -> {out_path}",
        sc.world,
        process.consensus_words().len(),
        process.combines,
        tel.event_count(),
    );

    // --- Distributed tracing: collector-enabled clean run. ---
    //
    // The traced scenario drops nothing: a clean schedule keeps every rank's
    // per-round seq windows identical, which the merge and the detector's
    // first-step attribution both rely on.
    let traced_sc = Scenario { drop_p: None, ..sc };
    let exe_str = exe.to_str().expect("utf-8 exe path");
    let clean = traced_sc
        .run_process_traced(
            exe_str,
            TraceRunConfig {
                rounds: 3,
                compute_ns: 5_000_000,
                straggler: None,
                collect: true,
            },
        )
        .expect("traced clean run");
    assert!(
        clean.side_channel_bytes > 0,
        "collector enabled but saw no side-channel traffic"
    );
    assert_eq!(
        validate(&clean.merged),
        Vec::<String>::new(),
        "merged trace violates the telemetry schema"
    );
    assert_eq!(
        clean.merged[0].name, "run_meta",
        "merge must lead with run_meta"
    );
    let hop_seqs: Vec<u64> = clean
        .merged
        .iter()
        .filter(|e| e.name == "hop")
        .map(|e| e.u64_field("seq").expect("hop has seq"))
        .collect();
    assert!(
        hop_seqs.windows(2).all(|w| w[0] <= w[1]),
        "merged hops out of causal order"
    );
    assert!(
        clean.health.is_empty(),
        "false health positives on a clean run: {:?}",
        clean.health
    );
    let mut trace_jsonl = String::new();
    for ev in &clean.merged {
        ev.write_jsonl(&mut trace_jsonl);
        trace_jsonl.push('\n');
    }
    std::fs::write(trace_out_path, trace_jsonl).expect("write merged trace");
    println!(
        "traced ring({}) x3 rounds: {} merged events, {} hops causally ordered, \
         {} side-channel bytes, 0 health events -> {trace_out_path}",
        traced_sc.world,
        clean.merged.len(),
        hop_seqs.len(),
        clean.side_channel_bytes,
    );

    // --- Straggler injection: rank 2 computes 2.5x slower. ---
    let slow_rank = 2;
    let straggled = traced_sc
        .run_process_traced(
            exe_str,
            TraceRunConfig {
                rounds: 6,
                compute_ns: 20_000_000,
                straggler: Some((slow_rank, 2.5)),
                collect: true,
            },
        )
        .expect("traced straggler run");
    let mut suspected = 0u64;
    for ev in &straggled.health {
        match ev {
            HealthEvent::StragglerSuspected { rank, .. } => {
                assert_eq!(*rank, slow_rank, "wrong rank suspected: {ev:?}");
                suspected += 1;
            }
            other => panic!("unexpected health event on localhost: {other:?}"),
        }
    }
    assert!(suspected > 0, "injected 2.5x straggler went undetected");
    assert_eq!(straggled.fault_stats.stragglers_suspected, suspected);
    println!(
        "straggler ring({}) x6 rounds: rank {slow_rank} at 2.5x flagged {suspected} time(s), \
         no false positives",
        traced_sc.world,
    );

    // --- Collector disabled: the side channel must be silent. ---
    let disabled = traced_sc
        .run_process_traced(
            exe_str,
            TraceRunConfig {
                rounds: 2,
                compute_ns: 0,
                straggler: None,
                collect: false,
            },
        )
        .expect("collector-disabled run");
    assert_eq!(
        disabled.side_channel_bytes, 0,
        "tracing disabled but {} bytes leaked onto the wire",
        disabled.side_channel_bytes
    );
    assert!(
        disabled.merged.is_empty(),
        "disabled collector produced a trace"
    );
    println!(
        "collector off: 0 side-channel bytes across {} rounds (hard-checked)",
        2
    );
}
