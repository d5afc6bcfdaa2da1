//! **Perf trajectory point**: machine-readable benchmark of the one-bit hot
//! path and a full Marsit synchronization round.
//!
//! Emits `BENCH_round.json` (override with `--out <path>`) with four
//! sections:
//!
//! - `transient` — word-parallel vs scalar Bernoulli transient-vector
//!   generation (the inner loop of every `⊙` combine), for a dyadic and a
//!   worst-case non-dyadic probability;
//! - `pack` — sign extraction (`SignVec::from_signs`) throughput;
//! - `large` — the same transient/pack kernels at `d = 2^24` (beyond every
//!   cache level), plus a STREAM-triad-style measurement of the host's
//!   memory-bandwidth ceiling and the fraction of it the pack kernel
//!   achieves (`memory_bandwidth_fraction`);
//! - `round` — end-to-end Marsit rounds/sec on a ring, one-bit and
//!   full-precision, their ratio, the realized wire bits per transmitted
//!   element, steady-state heap allocations per round (via a counting
//!   global allocator), and a non-dyadic-weight ring (`m = 7`) whose
//!   transient masks need worst-case RNG draws;
//! - `trainsim` — wall-clock speedup of the thread-per-worker compute phase
//!   over the sequential one, with a bit-identity check of the reports;
//! - `meta` — run provenance (seed, topology, workers, `git describe` of the
//!   tree the binary was built from);
//! - `faults` — aggregate fault-layer stats of a short fault-injected run,
//!   plus what merely *having* a fault plan costs a round (time ratio
//!   against the same round without one, and allocations);
//! - `telemetry` — proof that the disabled sink records zero events on the
//!   hot path (hard-asserted), plus the measured overhead ratio of a
//!   recording sink (informational — never asserted, timing is noisy).
//!
//! Set `MARSIT_TELEMETRY=path` to also capture the fault-injected run's
//! event log (and `<path>.summary.json`) for `telemetry_report`.
//!
//! ```text
//! cargo run --release -p marsit-bench --bin bench_round [-- --fast] [-- --out PATH]
//! ```
//!
//! `--fast` shrinks problem sizes and sample counts for CI smoke runs; the
//! JSON schema is identical in both modes (`"mode"` records which ran).

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use marsit_core::{Marsit, MarsitConfig, SyncOutcome, SyncSchedule};
use marsit_models::{OptimizerKind, Workload};
use marsit_simnet::{FaultPlan, Topology};
use marsit_telemetry::{scoped, Telemetry};
use marsit_tensor::rng::FastRng;
use marsit_tensor::SignVec;
use marsit_trainsim::{elements_per_round, train, StrategyKind, TrainConfig};

/// Heap-allocation counter wrapped around the system allocator: the
/// steady-state `round` section reports allocations per synchronize call,
/// making the workspace-reuse claim measurable instead of anecdotal.
/// Counts `alloc`/`realloc` events only — frees are irrelevant to the
/// "does the hot path still hit the allocator" question.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocator calls per invocation of `f`, averaged over `n` calls.
fn allocs_per_call(n: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up: let every reusable buffer reach steady-state capacity
    let before = ALLOC_CALLS.load(Ordering::Relaxed);
    for _ in 0..n.max(1) {
        f();
    }
    let after = ALLOC_CALLS.load(Ordering::Relaxed);
    (after - before) as f64 / n.max(1) as f64
}

struct Sizes {
    mode: &'static str,
    transient_d: usize,
    large_d: usize,
    round_d: usize,
    samples: usize,
    train_rounds: usize,
}

const FULL: Sizes = Sizes {
    mode: "full",
    transient_d: 1 << 20,
    large_d: 1 << 24,
    round_d: 1 << 16,
    samples: 15,
    train_rounds: 40,
};

const FAST: Sizes = Sizes {
    mode: "fast",
    transient_d: 1 << 16,
    large_d: 1 << 20,
    round_d: 1 << 13,
    samples: 5,
    train_rounds: 6,
};

/// Median wall time of one call to `f` over `samples` timed runs (after one
/// warm-up call), in seconds.
fn median_secs(samples: usize, mut f: impl FnMut()) -> f64 {
    f();
    let mut times: Vec<f64> = (0..samples.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[times.len() / 2]
}

fn ns_per_elem(secs: f64, elems: usize) -> f64 {
    secs * 1e9 / elems as f64
}

/// STREAM-triad-style host memory-bandwidth ceiling, in bytes/s.
///
/// Runs `a[i] = b[i] + s·c[i]` over three arrays far larger than any cache
/// level and counts three streamed floats per element (two reads, one
/// write; write-allocate traffic is ignored, as STREAM does). The `large`
/// section reports kernel throughput as a fraction of this ceiling so a
/// regression report can distinguish "kernel got slower" from "host has
/// slower memory".
fn stream_triad_bytes_per_sec(n: usize, samples: usize) -> f64 {
    let b: Vec<f32> = (0..n).map(|i| (i % 1021) as f32 * 0.5).collect();
    let c: Vec<f32> = (0..n).map(|i| (i % 4093) as f32 * 0.25).collect();
    let mut a = vec![0.0f32; n];
    let s = 3.0f32;
    let secs = median_secs(samples, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + s * *ci;
        }
        black_box(&mut a);
    });
    (n * 3 * std::mem::size_of::<f32>()) as f64 / secs
}

/// `git describe` of the tree this binary *runs* in, falling back to the
/// build-time stamp when the binary runs outside the checkout. The runtime
/// probe exists because a compile-time `-dirty` suffix goes stale the moment
/// the worktree is edited (or cleaned) without this crate rebuilding.
fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| env!("MARSIT_GIT_DESCRIBE").to_string())
}

/// Process CPU seconds (user + system) from `/proc/self/stat`, so the
/// trainsim section can report wall *and* CPU time — on a one-core host the
/// threaded path cannot beat wall clock, and the CPU column makes that
/// honest instead of mysterious. `None` off Linux or on a parse failure.
fn cpu_time_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // `comm` (field 2) may contain spaces; everything after the closing
    // paren is whitespace-delimited, starting at field 3 (`state`).
    let rest = stat.rsplit(')').next()?;
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: f64 = fields.next()?.parse().ok()?; // field 15
                                                   // Linux fixes USER_HZ at 100 for these fields regardless of kernel HZ.
    Some((utime + stime) / 100.0)
}

/// CPU seconds consumed by `f`, or `-1.0` when `/proc` is unavailable.
fn cpu_secs_of(f: impl FnOnce()) -> f64 {
    let before = cpu_time_s();
    f();
    cpu_time_s()
        .zip(before)
        .map_or(-1.0, |(after, before)| after - before)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes = if args.iter().any(|a| a == "--fast") {
        FAST
    } else {
        FULL
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map_or("BENCH_round.json", String::as_str);

    // --- Transient-vector generation: the per-hop cost of `⊙`. ---
    let d = sizes.transient_d;
    let p_dyadic = 0.25;
    let p_nondyadic = 1.0 / 3.0;
    let mut rng = FastRng::new(1, 0);
    let scalar_s = median_secs(sizes.samples, || {
        black_box(SignVec::bernoulli_uniform_scalar(d, p_dyadic, &mut rng));
    });
    let word_s = median_secs(sizes.samples, || {
        black_box(SignVec::bernoulli_uniform(d, p_dyadic, &mut rng));
    });
    let word_nd_s = median_secs(sizes.samples, || {
        black_box(SignVec::bernoulli_uniform(d, p_nondyadic, &mut rng));
    });
    let speedup_dyadic = scalar_s / word_s;
    let speedup_nondyadic = scalar_s / word_nd_s;
    println!(
        "transient d={d}: scalar {:.2} ns/elem, word-parallel {:.3} ns/elem \
         ({speedup_dyadic:.1}x at p={p_dyadic}, {speedup_nondyadic:.1}x at p=1/3)",
        ns_per_elem(scalar_s, d),
        ns_per_elem(word_s, d),
    );

    // --- Sign packing. ---
    let grad: Vec<f32> = {
        let mut g = FastRng::new(2, 0);
        (0..d).map(|_| (g.next_f64() as f32) - 0.5).collect()
    };
    let pack_s = median_secs(sizes.samples, || {
        black_box(SignVec::from_signs(black_box(&grad)));
    });
    println!(
        "pack d={d}: from_signs {:.3} ns/elem",
        ns_per_elem(pack_s, d)
    );

    // --- Beyond-cache kernels at d = 2^24 against the bandwidth ceiling. ---
    //
    // The small-d sections above measure kernels from cache; a serving host
    // packs models whose gradients never fit there. Re-measure the two
    // streaming kernels at `large_d` and report the pack kernel's achieved
    // bytes/s as a fraction of a measured STREAM-triad ceiling.
    let ld = sizes.large_d;
    let large_samples = sizes.samples.min(7);
    let large_word_s = median_secs(large_samples, || {
        black_box(SignVec::bernoulli_uniform(ld, p_dyadic, &mut rng));
    });
    let grad_large: Vec<f32> = {
        let mut g = FastRng::new(5, 0);
        (0..ld).map(|_| (g.next_f64() as f32) - 0.5).collect()
    };
    let pack_large_s = median_secs(large_samples, || {
        black_box(SignVec::from_signs(black_box(&grad_large)));
    });
    let triad_bytes_per_s = stream_triad_bytes_per_sec(ld, large_samples);
    // from_signs streams d f32 reads and d/8 packed-sign bytes of writes.
    let pack_bytes = ld * std::mem::size_of::<f32>() + ld / 8;
    let pack_achieved_bytes_per_s = pack_bytes as f64 / pack_large_s;
    let memory_bandwidth_fraction = pack_achieved_bytes_per_s / triad_bytes_per_s;
    println!(
        "large d={ld}: transient {:.3} ns/elem, pack {:.3} ns/elem \
         ({:.2} GB/s, {:.0}% of {:.2} GB/s triad ceiling)",
        ns_per_elem(large_word_s, ld),
        ns_per_elem(pack_large_s, ld),
        pack_achieved_bytes_per_s / 1e9,
        memory_bandwidth_fraction * 100.0,
        triad_bytes_per_s / 1e9,
    );
    drop(grad_large);

    // --- Full Marsit round on a ring of 8. ---
    let m = 8;
    let rd = sizes.round_d;
    let updates: Vec<Vec<f32>> = {
        let mut g = FastRng::new(3, 0);
        (0..m)
            .map(|_| {
                (0..rd)
                    .map(|_| 0.01 * (g.next_f64() as f32 - 0.5))
                    .collect()
            })
            .collect()
    };
    let mut onebit = Marsit::new(MarsitConfig::new(SyncSchedule::never(), 0.01, 7), m, rd);
    // One outcome reused across rounds: `synchronize_into` recycles its
    // buffers, which is the steady-state calling convention of the trainer
    // and of the job server's shard loop.
    let mut round_out = SyncOutcome::default();
    let wire_bits_per_element = {
        onebit.synchronize_into(&updates, Topology::ring(m), &mut round_out);
        round_out.trace.total_bytes() as f64 * 8.0
            / elements_per_round(Topology::ring(m), rd) as f64
    };
    let onebit_s = median_secs(sizes.samples, || {
        onebit.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
        black_box(&mut round_out);
    });
    let mut fp = Marsit::new(MarsitConfig::new(SyncSchedule::every(1), 0.01, 7), m, rd);
    let mut fp_out = SyncOutcome::default();
    let fp_s = median_secs(sizes.samples, || {
        fp.synchronize_into(black_box(&updates), Topology::ring(m), &mut fp_out);
        black_box(&mut fp_out);
    });
    let onebit_vs_full_ratio = fp_s / onebit_s;

    // Steady-state allocator traffic of the reused-workspace path. The
    // recycled-outcome convention keeps even the escaping vectors
    // (`global_update`, `compensated_mean`, the trace's step slots) out of
    // the allocator: the clean ring one-bit round must be allocation-free.
    let alloc_iters = sizes.samples.max(10);
    let onebit_allocs = allocs_per_call(alloc_iters, || {
        onebit.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
        black_box(&mut round_out);
    });
    let fp_allocs = allocs_per_call(alloc_iters, || {
        fp.synchronize_into(black_box(&updates), Topology::ring(m), &mut fp_out);
        black_box(&mut fp_out);
    });
    println!(
        "round m={m} d={rd}: one-bit {:.1} rounds/s (wire {:.3} bits/elem, {onebit_allocs:.0} allocs), \
         full-precision {:.1} rounds/s ({fp_allocs:.0} allocs), ratio {onebit_vs_full_ratio:.2}x",
        1.0 / onebit_s,
        wire_bits_per_element,
        1.0 / fp_s,
    );

    // The price of *having* a fault plan: the same shape and inputs under a
    // plan that injects nothing into the collectives (a straggler only —
    // every worker live, every transfer delivered first try) ÷ no plan at
    // all. One round body serves both, so the ratio sits near 1; it read
    // ≈ 3.1 while a plan forked into its own copy of the round. A ratio of
    // timed regions, each a batch of rounds long enough to gate on.
    let plan_cfg =
        |plan: FaultPlan| MarsitConfig::new(SyncSchedule::never(), 0.01, 7).with_fault_plan(plan);
    let mut batch_secs = |plan: FaultPlan| {
        let mut sync = Marsit::new(plan_cfg(plan), m, rd);
        median_secs(sizes.samples.max(9), || {
            for _ in 0..16 {
                sync.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
            }
            black_box(&mut round_out);
        })
    };
    let all_delivered = || FaultPlan::seeded(7).with_straggler(1, 2.0);
    let faulty_vs_clean_round_ratio = batch_secs(all_delivered()) / batch_secs(FaultPlan::none());
    let mut delivered = Marsit::new(plan_cfg(all_delivered()), m, rd);
    let faulty_allocs = allocs_per_call(alloc_iters, || {
        delivered.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
        black_box(&mut round_out);
    });
    println!(
        "round under an all-delivered fault plan: {faulty_vs_clean_round_ratio:.2}x the clean \
         round, {faulty_allocs:.0} allocs"
    );

    // Non-dyadic weights: a 7-worker ring drives the weighted ⊙ through
    // keep-probabilities like 2/3, 4/5, 5/6, 6/7 whose fixed-point q has a
    // full 32-bit tail, so every transient word costs the worst-case number
    // of RNG draws. This is the fused kernel's hardest steady-state case.
    let m_nd = 7;
    let updates_nd: Vec<Vec<f32>> = {
        let mut g = FastRng::new(4, 0);
        (0..m_nd)
            .map(|_| {
                (0..rd)
                    .map(|_| 0.01 * (g.next_f64() as f32 - 0.5))
                    .collect()
            })
            .collect()
    };
    let mut onebit_nd = Marsit::new(MarsitConfig::new(SyncSchedule::never(), 0.01, 7), m_nd, rd);
    let mut nd_out = SyncOutcome::default();
    let onebit_nd_s = median_secs(sizes.samples, || {
        onebit_nd.synchronize_into(black_box(&updates_nd), Topology::ring(m_nd), &mut nd_out);
        black_box(&mut nd_out);
    });
    println!(
        "round m={m_nd} d={rd} (non-dyadic weights): one-bit {:.1} rounds/s",
        1.0 / onebit_nd_s,
    );

    // --- Parallel vs sequential worker simulation. ---
    //
    // The wall-clock speedup scales with `available_parallelism` (recorded
    // in the JSON): on a single-core host the threaded path can only tie or
    // lose slightly to the sequential one. The invariant being benchmarked
    // is bit-identity; the speedup is the trajectory metric.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut cfg = TrainConfig::new(
        Workload::AlexNetCifar10,
        Topology::ring(4),
        StrategyKind::Marsit { k: Some(20) },
    );
    cfg.rounds = sizes.train_rounds;
    cfg.train_examples = 2048;
    cfg.test_examples = 256;
    cfg.batch_per_worker = 128;
    cfg.eval_every = 0;
    cfg.optimizer = OptimizerKind::Momentum(0.9);
    cfg.parallel_workers = false;
    let mut sequential = None;
    let t = Instant::now();
    let seq_cpu_s = cpu_secs_of(|| sequential = Some(train(&cfg)));
    let seq_s = t.elapsed().as_secs_f64();
    cfg.parallel_workers = true;
    let mut parallel = None;
    let t = Instant::now();
    let par_cpu_s = cpu_secs_of(|| parallel = Some(train(&cfg)));
    let par_s = t.elapsed().as_secs_f64();
    let bit_identical = sequential == parallel;
    println!(
        "trainsim M=4 rounds={} on {cores} core(s): sequential {seq_s:.2}s wall \
         ({seq_cpu_s:.2}s cpu), parallel {par_s:.2}s wall ({par_cpu_s:.2}s cpu) \
         ({:.2}x, bit-identical: {bit_identical})",
        sizes.train_rounds,
        seq_s / par_s,
    );
    assert!(
        bit_identical,
        "parallel worker simulation diverged from the sequential path"
    );

    // --- Telemetry overhead: the disabled sink must record nothing. ---
    //
    // The zero-event claim is deterministic, so it is hard-asserted here;
    // the overhead ratio of a recording sink is reported but never asserted
    // (wall-clock ratios are too noisy for CI).
    let disabled = Telemetry::disabled();
    let tel_off_s = median_secs(sizes.samples, || {
        scoped(&disabled, || {
            onebit.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
            black_box(&mut round_out);
        });
    });
    assert_eq!(
        disabled.event_count(),
        0,
        "disabled telemetry recorded events on the hot path"
    );
    let recording = Telemetry::recording();
    let tel_on_s = median_secs(sizes.samples, || {
        scoped(&recording, || {
            onebit.synchronize_into(black_box(&updates), Topology::ring(m), &mut round_out);
            black_box(&mut round_out);
        });
    });
    let events_enabled = recording.event_count();
    let overhead_ratio = tel_on_s / tel_off_s;
    println!(
        "telemetry: disabled 0 events ({:.1} rounds/s), recording {events_enabled} events \
         ({:.1} rounds/s, {overhead_ratio:.2}x)",
        1.0 / tel_off_s,
        1.0 / tel_on_s,
    );

    // --- Aggregate fault stats of a short fault-injected run. ---
    let mut fault_cfg = cfg.clone();
    fault_cfg.rounds = sizes.train_rounds;
    fault_cfg.parallel_workers = true;
    fault_cfg.fault_plan = FaultPlan::seeded(7)
        .with_link_drop(0.05)
        .with_straggler(1, 2.0);
    fault_cfg.telemetry = Telemetry::from_env();
    let faulty = train(&fault_cfg);
    if let Some(path) = fault_cfg
        .telemetry
        .flush_env()
        .expect("write telemetry log")
    {
        println!("wrote telemetry to {}", path.display());
    }
    let fstats = faulty.faults;
    println!(
        "faults (drop 5%, straggler 2x, {} rounds): {} retransmits, {} dropped, {:.4}s retry time",
        sizes.train_rounds, fstats.retransmits, fstats.dropped_transfers, fstats.retry_extra_s
    );

    let git_stamp = git_describe();
    if git_stamp.ends_with("-dirty") {
        eprintln!("=================================================================");
        eprintln!("WARNING: bench_round is running in a DIRTY tree ({git_stamp}).");
        eprintln!("The emitted JSON stamps this provenance; do NOT commit numbers");
        eprintln!("measured from uncommitted code. Commit (or stash) and re-run.");
        eprintln!("=================================================================");
    }
    let json = format!(
        r#"{{
  "bench": "round",
  "mode": "{mode}",
  "transient": {{
    "d": {d},
    "p_dyadic": {p_dyadic},
    "scalar_ns_per_elem": {scalar_ns:.4},
    "word_parallel_ns_per_elem": {word_ns:.4},
    "speedup_dyadic": {speedup_dyadic:.2},
    "p_nondyadic": {p_nondyadic:.6},
    "word_parallel_nondyadic_ns_per_elem": {word_nd_ns:.4},
    "speedup_nondyadic": {speedup_nondyadic:.2}
  }},
  "pack": {{
    "d": {d},
    "from_signs_ns_per_elem": {pack_ns:.4}
  }},
  "large": {{
    "d": {ld},
    "transient_word_ns_per_elem": {large_word_ns:.4},
    "pack_ns_per_elem": {pack_large_ns:.4},
    "pack_achieved_gb_per_s": {pack_achieved_gbs:.3},
    "stream_triad_gb_per_s": {triad_gbs:.3},
    "memory_bandwidth_fraction": {memory_bandwidth_fraction:.4}
  }},
  "round": {{
    "m": {m},
    "d": {rd},
    "topology": "ring",
    "onebit_rounds_per_sec": {onebit_rps:.2},
    "full_precision_rounds_per_sec": {fp_rps:.2},
    "onebit_vs_full_ratio": {onebit_vs_full_ratio:.3},
    "wire_bits_per_element": {wire_bits_per_element:.4},
    "allocations_per_round_onebit": {onebit_allocs:.1},
    "allocations_per_round_full_precision": {fp_allocs:.1},
    "nondyadic_m": {m_nd},
    "onebit_nondyadic_rounds_per_sec": {onebit_nd_rps:.2}
  }},
  "trainsim": {{
    "workers": 4,
    "host_cores": {cores},
    "rounds": {train_rounds},
    "sequential_s": {seq_s:.4},
    "parallel_s": {par_s:.4},
    "sequential_cpu_s": {seq_cpu_s:.4},
    "parallel_cpu_s": {par_cpu_s:.4},
    "speedup": {train_speedup:.2},
    "parallel_comparison_valid": {parallel_comparison_valid},
    "bit_identical": {bit_identical}
  }},
  "meta": {{
    "seed": {seed},
    "topology": "ring",
    "workers": 4,
    "git_describe": "{git_describe}"
  }},
  "faults": {{
    "rounds": {train_rounds},
    "retransmits": {f_retransmits},
    "dropped_transfers": {f_dropped},
    "corrupted_transfers": {f_corrupted},
    "repairs": {f_repairs},
    "crashed_workers": {f_crashed},
    "retry_extra_s": {f_retry_s:.6},
    "faulty_vs_clean_round_ratio": {faulty_vs_clean_round_ratio:.3},
    "allocations_per_round": {faulty_allocs:.1}
  }},
  "telemetry": {{
    "events_disabled": 0,
    "events_enabled": {events_enabled},
    "overhead_ratio": {overhead_ratio:.3}
  }}
}}
"#,
        mode = sizes.mode,
        seed = fault_cfg.seed,
        git_describe = git_stamp,
        f_retransmits = fstats.retransmits,
        f_dropped = fstats.dropped_transfers,
        f_corrupted = fstats.corrupted_transfers,
        f_repairs = fstats.repairs,
        f_crashed = fstats.crashed_workers,
        f_retry_s = fstats.retry_extra_s,
        scalar_ns = ns_per_elem(scalar_s, d),
        word_ns = ns_per_elem(word_s, d),
        word_nd_ns = ns_per_elem(word_nd_s, d),
        pack_ns = ns_per_elem(pack_s, d),
        large_word_ns = ns_per_elem(large_word_s, ld),
        pack_large_ns = ns_per_elem(pack_large_s, ld),
        pack_achieved_gbs = pack_achieved_bytes_per_s / 1e9,
        triad_gbs = triad_bytes_per_s / 1e9,
        onebit_rps = 1.0 / onebit_s,
        fp_rps = 1.0 / fp_s,
        onebit_nd_rps = 1.0 / onebit_nd_s,
        train_rounds = sizes.train_rounds,
        train_speedup = seq_s / par_s,
        // A threaded-vs-sequential wall-clock comparison is only meaningful
        // with real parallelism available; on a one-core host the speedup
        // number is noise and consumers (CI) must not gate on it.
        parallel_comparison_valid = cores > 1,
    );
    std::fs::write(out_path, json).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
