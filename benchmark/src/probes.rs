//! The traced run (`--trace 1`): the workload again with a span per round or
//! harness-side call, then every per-layer probe, each a span tagged with its
//! layer, on inputs shaped like the workload's own. Everything here calls the
//! program from outside, through `pub` items; nothing is recorded inside it.
//!
//! `benchmark/README.md` maps every metric printed here to the public
//! function it times.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use marsit::collectives::ring::{
    ring_allreduce_majority, ring_allreduce_onebit_weighted, CombineCtx, SumWire,
};
use marsit::collectives::torus::torus_allreduce_onebit;
use marsit::collectives::{compile_plan, run_lockstep, EnginePlan, PlanTopology};
use marsit::core::ominus::combine_weighted_assign;
use marsit::core::{Compensation, WorkspaceHandle};
use marsit::prelude::*;
use marsit::serve::journal::{JournalRecord, SnapshotRecord};
use marsit::serve::{
    plan_from_replay, replay_bytes, AdmissionController, JobSpec, JournalWriter, WorkspaceKey,
    WorkspacePool,
};
use marsit::simnet::wire::{Frame, FrameKind};
use marsit::telemetry::{scoped, Event};
use marsit::tensor::{fill_bernoulli_masks_indexed, ScaledSignLut};
use marsit::trainsim::elements_per_round;

use crate::harness::{
    alloc_calls, median, probe_reps, quantile, scratch_file, Checks, Failure, Metric, Recorder,
    Seeds,
};
use crate::serve;
use crate::sync::{self, timed_rounds, SyncRig, SyncShape};
use crate::{train, Workload};

/// Rounds whose counters make up the per-round counts: a fixed block on a
/// fresh instance, so the counts of the single-threaded workloads repeat
/// exactly from run to run.
const COUNT_ROUNDS: usize = 8;
/// Calls per span for probes of sub-microsecond operations, so the clock
/// reads do not dominate.
const BATCH: usize = 1024;

/// Metrics collected so far plus the recorder every probe writes into.
struct Layers {
    rec: Recorder,
    out: Vec<Metric>,
}

impl Layers {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.out.push(Metric { name, value, unit });
    }

    /// Median seconds of `f` ([`Recorder::probe`]) with the repetition count
    /// chosen from one call.
    fn time_auto(&mut self, name: &'static str, layer: &'static str, mut f: impl FnMut()) -> f64 {
        let t = Instant::now();
        f();
        let reps = probe_reps(t.elapsed().as_secs_f64());
        self.rec.probe(name, layer, reps, f)
    }
}

/// Runs the traced workload and every probe; returns the per-layer metrics.
pub fn run(workload: Workload, seeds: Seeds, seconds: f64, checks: &mut Checks) -> Vec<Metric> {
    let mut l = Layers {
        rec: Recorder::new(),
        out: Vec::new(),
    };
    // Half of the window goes to an untraced and a traced pass of the
    // workload (their rate ratio is the tracing overhead); the probes take
    // about as long again.
    let pass_s = seconds * 0.25;
    let rate = |rounds: u64, wall_s: f64| rounds as f64 / wall_s;
    let (untraced, traced, shape, sets, train_cfg) = match workload {
        Workload::SyncSmall | Workload::SyncLarge | Workload::SyncChaos => {
            let shape = match workload {
                Workload::SyncSmall => sync::SMALL,
                Workload::SyncLarge => sync::LARGE,
                _ => sync::CHAOS,
            };
            let mut rig = SyncRig::warmed(shape, seeds);
            let plain = timed_rounds(pass_s, |_| {
                rig.round();
                true
            });
            let spanned = sync::run_traced(&mut rig, pass_s, &mut l.rec);
            checks.ops(plain.rounds + spanned.rounds);
            (
                rate(plain.rounds, plain.wall_s),
                rate(spanned.rounds, spanned.wall_s),
                shape,
                Rc::clone(&rig.sets),
                train::config(seeds),
            )
        }
        Workload::TrainTorus => {
            let mut state = train::warmed(seeds);
            let plain = timed_rounds(pass_s, |_| {
                state.step();
                !state.is_done()
            });
            let spanned = train::run_traced(&mut state, pass_s, &mut l.rec);
            checks.ops(plain.rounds + spanned.rounds);
            let cfg = train::config(seeds);
            let shape = trainer_shape(&cfg, state.model_dim());
            (
                rate(plain.rounds, plain.wall_s),
                rate(spanned.rounds, spanned.wall_s),
                shape,
                sync::update_sets(&shape, seeds),
                cfg,
            )
        }
        Workload::ServeStorm => {
            let path = scratch_file("serve_storm");
            let mut pass = |rec: Option<&mut Recorder>| {
                let epochs = serve::storm_epochs(seeds, pass_s, &path, rec, checks);
                rate(epochs.rounds, epochs.wall_s)
            };
            let plain = pass(None);
            let spanned = pass(Some(&mut l.rec));
            std::fs::remove_file(&path).ok();
            let (shape, cfg) = job_shape(seeds);
            (plain, spanned, shape, sync::update_sets(&shape, seeds), cfg)
        }
        Workload::ServeRecover => {
            let path = scratch_file("serve_recover");
            let torn = serve::torn_journal(seeds, &path);
            let mut pass = |mut rec: Option<&mut Recorder>| {
                let (mut cycles, mut wall_s) = (0u64, 0.0);
                let start = Instant::now();
                let last = loop {
                    let recovery = serve::recover(&torn, &path, cycles, rec.as_deref_mut());
                    cycles += 1;
                    wall_s += recovery.wall_s;
                    if start.elapsed().as_secs_f64() >= pass_s {
                        break recovery;
                    }
                };
                checks.ops(cycles);
                serve::check_recovery(&last, checks);
                cycles as f64 / wall_s
            };
            let plain = pass(None);
            let spanned = pass(Some(&mut l.rec));
            std::fs::remove_file(&path).ok();
            let (shape, cfg) = job_shape(seeds);
            (plain, spanned, shape, sync::update_sets(&shape, seeds), cfg)
        }
    };
    l.put("trace_overhead_ratio", untraced / traced, "ratio");

    sync_layers(shape, seeds, &sets, &mut l);
    drop(sets);
    train_layers(&train_cfg, seeds, &mut l);
    serve_layers(seeds, &mut l, checks);

    match l.rec.write(workload.name()) {
        Ok(path) => println!("spans written to {}", path.display()),
        Err(e) => checks.check(Failure::SpanFile, false, || {
            format!("could not write the span file: {e}")
        }),
    }
    l.out
}

/// The synchronization shape a trainer configuration implies.
fn trainer_shape(cfg: &TrainConfig, d: usize) -> SyncShape {
    let k = match cfg.strategy {
        StrategyKind::Marsit { k } => k,
        _ => None,
    };
    SyncShape {
        topology: cfg.topology,
        d,
        k,
        chaos: false,
        warmup_rounds: 0,
    }
}

/// Shape and trainer configuration of the serving mix's ring(8) job: what
/// the `serve_*` workloads synchronize and snapshot.
fn job_shape(seeds: Seeds) -> (SyncShape, TrainConfig) {
    let cfg = serve::job_mix(2, seeds).to_train_config(Telemetry::disabled());
    let d = cfg.workload.proxy_spec().num_params();
    (trainer_shape(&cfg, d), cfg)
}

fn plan_topology(topology: Topology) -> PlanTopology {
    match topology {
        Topology::Ring { .. } => PlanTopology::Ring,
        Topology::Torus { rows, cols } => PlanTopology::Torus { rows, cols },
        Topology::Star { .. } => unreachable!("no workload runs on a star"),
    }
}

/// One combine of the shape's schedule: segment, weights, keep-probability.
struct Hop {
    step: usize,
    len: usize,
    received: usize,
    local: usize,
}

impl Hop {
    fn keep_p(&self) -> f64 {
        self.received as f64 / (self.received + self.local) as f64
    }
    fn words(&self) -> usize {
        self.len.div_ceil(64)
    }
}

fn combine_hops(plan: &EnginePlan) -> Vec<Hop> {
    plan.transfers
        .iter()
        .filter_map(|t| {
            t.combine.map(|ctx: CombineCtx| Hop {
                step: t.step,
                len: t.len,
                received: ctx.received_count,
                local: ctx.local_count,
            })
        })
        .collect()
}

/// STREAM-triad host ceiling in bytes/s (`a[i] = b[i] + s·c[i]` over arrays
/// far beyond cache; two reads and one write per element, as STREAM counts).
fn triad_bytes_per_s(l: &mut Layers) -> f64 {
    const N: usize = 1 << 22;
    let b: Vec<f32> = (0..N).map(|i| (i % 1021) as f32 * 0.5).collect();
    let c: Vec<f32> = (0..N).map(|i| (i % 4093) as f32 * 0.25).collect();
    let mut a = vec![0.0f32; N];
    let secs = l.rec.probe("tensor.triad", "tensor", 9, || {
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = *bi + 3.0 * *ci;
        }
        black_box(&mut a);
    });
    (N * 3 * std::mem::size_of::<f32>()) as f64 / secs
}

/// One schedule walk with a combine that only copies: schedule plus
/// slice/splice cost alone.
fn schedule_walk(signs: &[SignVec], topology: Topology) {
    let copy = |recv: &SignVec, local: &mut SignVec, _: CombineCtx| local.copy_from(recv);
    let (consensus, trace) = match topology {
        Topology::Ring { .. } => ring_allreduce_onebit_weighted(signs, 1, copy),
        Topology::Torus { rows, cols } => torus_allreduce_onebit(signs, rows, cols, copy),
        Topology::Star { .. } => unreachable!("no workload runs on a star"),
    };
    black_box((consensus, trace));
}

/// `tensor.*`, `core.*`, `collectives.*`, `simnet.*` and `telemetry.*`.
fn sync_layers(shape: SyncShape, seeds: Seeds, sets: &Rc<Vec<Vec<Vec<f32>>>>, l: &mut Layers) {
    let (m, d) = (shape.workers(), shape.d);
    let link = RateProfile::public_cloud().link;
    let update = &sets[0][0];
    let plan = compile_plan(plan_topology(shape.topology), m, d, None).expect("clean plan");
    let hops = combine_hops(&plan);
    let combine_elems: usize = hops.iter().map(|h| h.len).sum();
    let ns_per = |secs: f64, elems: usize| secs * 1e9 / elems as f64;

    // --- tensor ---
    let mut packed = SignVec::zeros(0);
    let pack_s = l.time_auto("tensor.pack", "tensor", || {
        packed.assign_from_signs(black_box(update));
    });
    l.put("tensor.pack_ns_per_elem", ns_per(pack_s, d), "ns/elem");
    let lut = ScaledSignLut::new(0.01);
    let mut unpacked = vec![0.0f32; d];
    let unpack_s = l.time_auto("tensor.unpack", "tensor", || {
        packed.write_scaled_signs_lut(&lut, black_box(&mut unpacked));
    });
    l.put("tensor.unpack_ns_per_elem", ns_per(unpack_s, d), "ns/elem");
    let mut rng = FastRng::new(seeds.program(), 1);
    let bernoulli_s = l.time_auto("tensor.bernoulli", "tensor", || {
        for h in &hops {
            black_box(SignVec::bernoulli_uniform(h.len, h.keep_p(), &mut rng));
        }
    });
    l.put(
        "tensor.bernoulli_ns_per_elem",
        ns_per(bernoulli_s, combine_elems),
        "ns/elem",
    );
    // One batched fill per (step, keep-probability) group, as the round's
    // mask planner issues them.
    // (step, keep-probability, (offset, words) windows into `flat`)
    type MaskGroup = (usize, f64, Vec<(usize, usize)>);
    let mut groups: Vec<MaskGroup> = Vec::new();
    let mut flat_words = 0usize;
    for h in &hops {
        let window = (flat_words, h.words());
        flat_words += h.words();
        match groups.last_mut() {
            Some((step, p, windows)) if *step == h.step && *p == h.keep_p() => {
                windows.push(window);
            }
            _ => groups.push((h.step, h.keep_p(), vec![window])),
        }
    }
    let mut flat = vec![0u64; flat_words];
    let mut lanes: Vec<FastRng> = (0..hops.len())
        .map(|i| FastRng::new(seeds.program(), 2 + i as u64))
        .collect();
    let mask_s = l.time_auto("tensor.mask_fill", "tensor", || {
        let mut lane = 0;
        for (_, p, windows) in &groups {
            let rngs = &mut lanes[lane..lane + windows.len()];
            fill_bernoulli_masks_indexed(*p, rngs, &mut flat, windows);
            lane += windows.len();
        }
        black_box(&mut flat);
    });
    l.put(
        "tensor.mask_fill_ns_per_elem",
        ns_per(mask_s, combine_elems),
        "ns/elem",
    );
    let draws: u64 = hops
        .iter()
        .map(|h| u64::from(SignVec::bernoulli_word_draws(h.keep_p())) * h.words() as u64)
        .sum();
    l.put(
        "tensor.bernoulli_draws_per_word",
        draws as f64 / flat_words as f64,
        "draws/word",
    );
    let norm_s = l.time_auto("tensor.residual_norm", "tensor", || {
        black_box(packed.residual_norm_sq_striped(black_box(update), &lut));
    });
    l.put(
        "tensor.residual_norm_ns_per_elem",
        ns_per(norm_s, d),
        "ns/elem",
    );
    let mut full = packed.clone();
    let mut segment = SignVec::zeros(0);
    let moved: usize = plan.transfers.iter().map(|t| t.len).sum();
    let splice_s = l.time_auto("tensor.slice_splice", "tensor", || {
        for t in &plan.transfers {
            segment.assign_slice_of(&full, t.start, t.len);
            full.splice(t.start, &segment);
        }
        black_box(&mut full);
    });
    l.put(
        "tensor.slice_splice_ns_per_elem",
        ns_per(splice_s, moved),
        "ns/elem",
    );
    let triad = triad_bytes_per_s(l);
    l.put("tensor.triad_gb_per_s", triad / 1e9, "GB/s");
    let pack_bytes = (d * std::mem::size_of::<f32>() + d / 8) as f64;
    l.put(
        "tensor.pack_triad_fraction",
        pack_bytes / pack_s / triad,
        "ratio",
    );

    // --- core: kernels ---
    let mut operands: Vec<(SignVec, SignVec)> = hops
        .iter()
        .map(|h| {
            (
                SignVec::bernoulli_uniform(h.len, 0.5, &mut rng),
                SignVec::bernoulli_uniform(h.len, 0.5, &mut rng),
            )
        })
        .collect();
    let combine_s = l.time_auto("core.combine", "core", || {
        for (h, (recv, local)) in hops.iter().zip(operands.iter_mut()) {
            combine_weighted_assign(recv, h.received, local, h.local, &mut rng);
        }
        black_box(&mut operands);
    });
    l.put(
        "core.combine_ns_per_elem",
        ns_per(combine_s, combine_elems),
        "ns/elem",
    );
    drop(operands);
    let mut compensation = Compensation::new(d);
    let mut compensated = Vec::new();
    let compensate_s = l.time_auto("core.compensate", "core", || {
        compensation.apply_into(black_box(update), &mut compensated);
        compensation.absorb_residual(&compensated, &unpacked);
    });
    l.put(
        "core.compensate_ns_per_elem",
        ns_per(compensate_s, d),
        "ns/elem",
    );

    // --- counts: a fixed block of rounds on a fresh, recording instance ---
    let mut counted = SyncRig::fresh(shape, shape.schedule(), seeds, Rc::clone(sets), true);
    let (mut steps, mut transfers, mut retransmits, mut bytes) = (0usize, 0usize, 0u64, 0usize);
    let (mut events, mut jsonl_bytes, mut sim_s) = (0usize, 0usize, 0.0f64);
    let mut matching = Vec::new();
    let mut one_round_jsonl = String::new();
    for _ in 0..COUNT_ROUNDS {
        counted.round();
        let out = &counted.out;
        steps += out.trace.num_steps();
        transfers += out.trace.steps().iter().map(Vec::len).sum::<usize>();
        retransmits += out.faults.retransmits;
        bytes += out.trace.total_bytes();
        sim_s += out.trace.time(link);
        events += counted.jsonl.lines().count();
        jsonl_bytes += counted.jsonl.len();
        if !out.full_precision {
            matching.push(
                SignVec::from_signs(&out.global_update)
                    .matching_rate(&SignVec::from_signs(&out.compensated_mean)),
            );
            one_round_jsonl.clone_from(&counted.jsonl);
        }
    }
    let per_round = |x: f64| x / COUNT_ROUNDS as f64;
    let tel = counted.tel.as_ref().expect("recording rig");
    l.put(
        "core.combines_per_round",
        per_round(tel.counter("marsit.combines") as f64),
        "count",
    );
    l.put(
        "core.rng_draws_per_round",
        per_round(tel.counter("marsit.rng_draws") as f64),
        "count",
    );
    l.put(
        "core.matching_rate",
        matching.iter().sum::<f64>() / matching.len() as f64,
        "ratio",
    );
    l.put(
        "collectives.steps_per_round",
        per_round(steps as f64),
        "count",
    );
    l.put(
        "collectives.transfers_per_round",
        per_round(transfers as f64),
        "count",
    );
    l.put(
        "collectives.retransmits_per_round",
        per_round(retransmits as f64),
        "count",
    );
    l.put(
        "simnet.wire_bits_per_elem",
        bytes as f64 * 8.0 / (COUNT_ROUNDS * elements_per_round(shape.topology, d)) as f64,
        "bits/elem",
    );
    l.put("simnet.sim_ms_per_round", per_round(sim_s * 1e3), "ms");
    l.put(
        "telemetry.events_per_round",
        per_round(events as f64),
        "count",
    );
    l.put(
        "telemetry.jsonl_bytes_per_round",
        per_round(jsonl_bytes as f64),
        "bytes",
    );

    // --- telemetry: render and parse one round's events ---
    let mut rendered = String::new();
    let mut render_s = Vec::new();
    for i in 0..10 {
        let set = &sets[i as usize % sets.len()];
        scoped(tel, || {
            counted
                .marsit
                .synchronize_into(set, shape.topology, &mut counted.out);
        });
        rendered.clear();
        l.rec.span("telemetry.render", "telemetry", i, |_| {
            tel.drain_events_jsonl_into(&mut rendered);
        });
        render_s.push(rendered.len() as f64);
    }
    let render_secs = l.rec.median_self_secs("telemetry.render");
    l.put(
        "telemetry.render_mb_per_s",
        median(render_s) / 1e6 / render_secs,
        "MB/s",
    );
    let parse_s = l.time_auto("telemetry.parse", "telemetry", || {
        for line in one_round_jsonl.lines() {
            black_box(Event::parse_jsonl(line).expect("the sink's own JSONL parses"));
        }
    });
    l.put(
        "telemetry.parse_mb_per_s",
        one_round_jsonl.len() as f64 / 1e6 / parse_s,
        "MB/s",
    );
    let trace_price_s = l.rec.probe("simnet.trace_price", "simnet", 30, || {
        for _ in 0..BATCH {
            black_box(black_box(&counted.out.trace).time(link));
        }
    });
    l.put(
        "simnet.trace_price_us",
        trace_price_s * 1e6 / BATCH as f64,
        "us",
    );
    drop(counted);

    // --- core: round spans, one-bit vs full precision, recording vs not ---
    let round_ms = |name: &'static str, schedule: SyncSchedule, recording: bool, l: &mut Layers| {
        let mut rig = SyncRig::fresh(shape, schedule, seeds, Rc::clone(sets), recording);
        rig.round();
        let secs = l.time_auto(name, "core", || rig.round());
        (secs * 1e3, rig)
    };
    let (onebit_ms, mut onebit_rig) =
        round_ms("core.onebit_round", SyncSchedule::never(), shape.chaos, l);
    l.put("core.onebit_round_ms", onebit_ms, "ms");
    let allocs_before = alloc_calls();
    for _ in 0..COUNT_ROUNDS {
        onebit_rig.round();
    }
    l.put(
        "core.allocs_per_round",
        per_round((alloc_calls() - allocs_before) as f64),
        "count",
    );
    let snapshot_s = l.time_auto("core.snapshot", "core", || {
        black_box(onebit_rig.marsit.snapshot());
    });
    l.put("core.snapshot_ms", snapshot_s * 1e3, "ms");
    let snapshot = onebit_rig.marsit.snapshot();
    let restore_s = l.time_auto("core.restore", "core", || {
        onebit_rig.marsit.restore(black_box(&snapshot));
    });
    l.put("core.restore_ms", restore_s * 1e3, "ms");
    drop((snapshot, onebit_rig));
    let (fullprec_ms, _) = round_ms(
        "core.fullprec_round",
        SyncSchedule::every(1),
        shape.chaos,
        l,
    );
    l.put("core.fullprec_round_ms", fullprec_ms, "ms");
    let (recording_ms, _) = round_ms("telemetry.recording_round", shape.schedule(), true, l);
    let (disabled_ms, _) = round_ms("telemetry.disabled_round", shape.schedule(), false, l);
    l.put(
        "telemetry.record_overhead_ratio",
        recording_ms / disabled_ms,
        "ratio",
    );

    // The same work per worker-element on the friendliest shape: ring(8)
    // with word-aligned segments. 1.0 = no penalty for this shape.
    let aligned = SyncShape {
        topology: Topology::ring(8),
        d: (d - d % 512).max(512),
        k: None,
        chaos: false,
        warmup_rounds: 0,
    };
    let aligned_sets = sync::update_sets(&aligned, seeds);
    let mut aligned_rig = SyncRig::fresh(aligned, aligned.schedule(), seeds, aligned_sets, false);
    aligned_rig.round();
    let aligned_s = l.time_auto("core.aligned_round", "core", || aligned_rig.round());
    drop(aligned_rig);
    l.put(
        "core.nondyadic_cliff_ratio",
        (onebit_ms / 1e3 / (m * d) as f64) / (aligned_s / (8 * aligned.d) as f64),
        "ratio",
    );

    // --- collectives ---
    let plan_s = l.time_auto("collectives.plan_compile", "collectives", || {
        black_box(compile_plan(plan_topology(shape.topology), m, d, None).expect("clean plan"));
    });
    l.put("collectives.plan_compile_us", plan_s * 1e6, "us");
    let signs: Vec<SignVec> = sets[0].iter().map(|u| SignVec::from_signs(u)).collect();
    let walk_s = l.time_auto("collectives.schedule_walk", "collectives", || {
        schedule_walk(&signs, shape.topology);
    });
    l.put("collectives.schedule_walk_ms", walk_s * 1e3, "ms");
    let lockstep_s = l.time_auto("collectives.engine_lockstep", "collectives", || {
        black_box(
            run_lockstep(&plan, &signs, link, |recv, local, _| local.copy_from(recv))
                .expect("clean lockstep run"),
        );
    });
    l.put("collectives.engine_lockstep_ms", lockstep_s * 1e3, "ms");
    let majority_s = l.time_auto("collectives.majority_ring", "collectives", || {
        black_box(ring_allreduce_majority(&signs, SumWire::Elias));
    });
    l.put("collectives.majority_ring_ms", majority_s * 1e3, "ms");

    // --- simnet ---
    let fault_plan = if shape.chaos {
        shape.fault_plan(seeds)
    } else {
        sync::chaos_plan(seeds)
    };
    let mut injector = fault_plan.injector(0);
    let decide_s = l.rec.probe("simnet.fault_decide", "simnet", 30, || {
        for _ in 0..BATCH {
            black_box(injector.transfer());
        }
    });
    l.put(
        "simnet.fault_decide_ns",
        decide_s * 1e9 / BATCH as f64,
        "ns",
    );
    let segment_words = plan
        .transfers
        .iter()
        .map(|t| t.len)
        .max()
        .unwrap_or(64)
        .div_ceil(64);
    let frame = Frame::words(
        FrameKind::Data,
        0,
        1,
        packed.as_words()[..segment_words].to_vec(),
    );
    let payload_mb = (segment_words * 8) as f64 / 1e6;
    let encode_s = l.time_auto("simnet.wire_encode", "simnet", || {
        black_box(frame.encode());
    });
    l.put("simnet.wire_encode_mb_per_s", payload_mb / encode_s, "MB/s");
    let line = frame.encode();
    let decode_s = l.time_auto("simnet.wire_decode", "simnet", || {
        black_box(Frame::decode(black_box(&line)).expect("own frame decodes"));
    });
    l.put("simnet.wire_decode_mb_per_s", payload_mb / decode_s, "MB/s");

    // Σ of the isolated probes that make up one one-bit round ÷ the round
    // itself. Reported, not gated: the probes run cold and unfused, the
    // round runs them fused and cache-hot.
    let mut layer_sum_s =
        (m * d) as f64 * (pack_s + compensate_s) / d as f64 + walk_s + combine_s + unpack_s;
    if shape.chaos {
        layer_sum_s += m as f64 * norm_s + render_secs;
    }
    l.put(
        "core.layer_sum_ratio",
        layer_sum_s / (onebit_ms / 1e3),
        "ratio",
    );
}

/// `models.*` and `trainsim.*`, on the workload's trainer configuration.
fn train_layers(cfg: &TrainConfig, seeds: Seeds, l: &mut Layers) {
    // A job's own round budget (24) is fewer steps than the probes take.
    let cfg = &TrainConfig {
        rounds: train::ROUND_BUDGET,
        ..cfg.clone()
    };
    let dataset_s = l.rec.probe("models.dataset_build", "models", 5, || {
        black_box(cfg.datasets());
    });
    l.put("models.dataset_build_ms", dataset_s * 1e3, "ms");
    let mut state = TrainerState::new(cfg);
    state.step();
    let step_s = l.time_auto("trainsim.step", "trainsim", || state.step());
    l.put("trainsim.step_ms", step_s * 1e3, "ms");

    // A solo synchronization on the same M and d: what the step spends
    // outside forward/backward/optimizer.
    let shape = trainer_shape(cfg, state.model_dim());
    let sets = sync::update_sets(&shape, seeds);
    let mut solo = SyncRig::fresh(shape, shape.schedule(), seeds, sets, false);
    solo.round();
    let sync_s = l.time_auto("trainsim.solo_sync", "core", || solo.round());
    l.put("trainsim.sync_share", sync_s / step_s, "ratio");
    l.put("models.compute_ms_per_round", (step_s - sync_s) * 1e3, "ms");

    let snapshot_s = l.time_auto("trainsim.snapshot", "trainsim", || {
        black_box(state.snapshot());
    });
    l.put("trainsim.snapshot_ms", snapshot_s * 1e3, "ms");
    let snapshot = state.snapshot();
    let to_json_s = l.time_auto("trainsim.to_json", "trainsim", || {
        black_box(snapshot.to_json());
    });
    l.put("trainsim.to_json_ms", to_json_s * 1e3, "ms");
    let json = snapshot.to_json();
    let from_json_s = l.time_auto("trainsim.from_json", "trainsim", || {
        black_box(TrainSnapshot::from_json(black_box(&json)).expect("own snapshot parses"));
    });
    l.put("trainsim.from_json_ms", from_json_s * 1e3, "ms");
    let restore_s = l.time_auto("trainsim.restore", "trainsim", || {
        black_box(TrainerState::restore(cfg, &snapshot));
    });
    l.put("trainsim.restore_ms", restore_s * 1e3, "ms");
    l.put("trainsim.snapshot_mb", json.len() as f64 / 1e6, "MB");
}

/// `serve.*`: short storms of the serving mix (plain and journaled,
/// interleaved), a recovery of a torn journal, and the serving-side kernels.
/// Counts depend on thread timing and are medians over the storms.
fn serve_layers(seeds: Seeds, l: &mut Layers, checks: &mut Checks) {
    const STORM_JOBS: usize = 16;
    const PAIRS: usize = 2;
    let path = scratch_file("serve_probe");

    let spec = serve::job_mix(3, seeds);
    let line = spec.to_line().expect("mix specs are line-representable");
    let parse_s = l.rec.probe("serve.spec_parse", "serve", 30, || {
        for _ in 0..BATCH {
            black_box(JobSpec::parse_line(black_box(&line)).expect("own line parses"));
        }
    });
    l.put("serve.spec_parse_us", parse_s * 1e6 / BATCH as f64, "us");
    let mut admission = AdmissionController::new();
    let admit_s = l.rec.probe("serve.admit", "serve", 30, || {
        for now_ms in 0..BATCH as u64 {
            black_box(admission.admit(&spec, now_ms)).expect("unlimited quota admits");
            admission.on_complete(&spec.tenant);
        }
    });
    l.put("serve.admit_us", admit_s * 1e6 / BATCH as f64, "us");
    let mut pool = WorkspacePool::new(4);
    let key = WorkspaceKey::new(17_226, Topology::ring(8));
    pool.checkin(key, WorkspaceHandle::new());
    let checkout_s = l.rec.probe("serve.pool_checkout", "serve", 30, || {
        for _ in 0..BATCH {
            let handle = pool.checkout(key).expect("pooled workspace");
            pool.checkin(key, handle);
        }
    });
    l.put(
        "serve.pool_checkout_ns",
        checkout_s * 1e9 / BATCH as f64,
        "ns",
    );

    // Interleaved storms: plain, journaled, plain, journaled.
    let mut plain_rate = Vec::new();
    let mut journaled = Vec::new();
    for _ in 0..PAIRS {
        for journal in [None, Some(path.as_path())] {
            let storm = l.rec.span("serve.storm", "serve", 0, |rec| {
                serve::storm(
                    seeds,
                    serve::storm_config(seeds),
                    serve::CLIENTS,
                    0..STORM_JOBS,
                    journal,
                    Some(rec),
                )
            });
            serve::check_storm(&storm, seeds, 0, checks);
            match journal {
                None => plain_rate.push(storm.jobs_per_s()),
                Some(_) => journaled.push(storm),
            }
        }
    }
    let med = |f: &dyn Fn(&serve::Storm) -> f64| median(journaled.iter().map(f).collect());
    let jobs_per_s = med(&|s| s.jobs_per_s());
    l.put("serve.jobs_per_s", jobs_per_s, "jobs/s");
    l.put(
        "serve.journal_overhead_ratio",
        median(plain_rate) / jobs_per_s,
        "ratio",
    );
    l.put(
        "serve.journal_mb_per_job",
        med(&|s| s.journal_bytes as f64 / 1e6 / s.jobs as f64),
        "MB",
    );
    let mut submit_ns: Vec<u64> = journaled
        .iter()
        .flat_map(|s| s.submit_ns.iter().copied())
        .collect();
    submit_ns.sort_unstable();
    l.put(
        "serve.submit_us",
        quantile(&submit_ns, 0.5) as f64 / 1e3,
        "us",
    );
    l.put(
        "serve.pool_hit_rate",
        med(&|s| s.report.pool_stats().hit_rate()),
        "ratio",
    );
    l.put(
        "serve.migrations",
        med(&|s| {
            s.report
                .outcomes
                .iter()
                .map(|o| f64::from(o.migrations))
                .sum()
        }),
        "count",
    );
    let migration_p50 = |pick: &dyn Fn(&marsit::serve::MigrationSample) -> u64| {
        let mut ns: Vec<u64> = journaled
            .iter()
            .flat_map(|s| s.report.migration_samples())
            .map(|sample| pick(&sample))
            .collect();
        ns.sort_unstable();
        // A storm that happened to migrate nothing has no sample to report.
        if ns.is_empty() {
            f64::NAN
        } else {
            quantile(&ns, 0.5) as f64 / 1e6
        }
    };
    l.put(
        "serve.migrate_snapshot_ms_p50",
        migration_p50(&|s| s.snapshot_ns),
        "ms",
    );
    l.put(
        "serve.migrate_restore_ms_p50",
        migration_p50(&|s| s.restore_ns),
        "ms",
    );
    l.put(
        "serve.ticks",
        med(&|s| s.report.shards.iter().map(|sh| sh.ticks as f64).sum()),
        "count",
    );
    l.put(
        "serve.idle_wakeups",
        med(&|s| {
            s.report
                .shards
                .iter()
                .map(|sh| sh.idle_wakeups as f64)
                .sum()
        }),
        "count",
    );
    drop(journaled);

    // Journal kernels on a real snapshot record.
    let cfg = spec.to_train_config(Telemetry::disabled());
    let mut state = TrainerState::new(&cfg);
    state.step();
    let record = JournalRecord::Snapshot(SnapshotRecord {
        name: spec.name.clone(),
        shard: 0,
        migrations: 0,
        round: 1,
        tel_seq: 0,
        snapshot_json: state.snapshot().to_json(),
        log: String::new(),
    });
    let record_mb = marsit::serve::encode_record(0, &record)
        .expect("snapshot record encodes")
        .len() as f64
        / 1e6;
    let mut writer = JournalWriter::create(&path).expect("create journal in benchmark/out");
    let append_s = l.rec.probe("serve.journal_append", "serve", 30, || {
        writer.append(&record).expect("append");
    });
    l.put(
        "serve.journal_append_mb_per_s",
        record_mb / append_s,
        "MB/s",
    );
    // Group commit: request → the writer thread's fsync counter moves.
    let commit_s = l.rec.probe("serve.journal_commit", "serve", 5, || {
        writer.append(&record).expect("append");
        let synced = writer.stats().1;
        writer.commit().expect("commit");
        while writer.stats().1 == synced {
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
    });
    l.put("serve.journal_commit_ms", commit_s * 1e3, "ms");
    drop(writer);

    // Read side: replay, plan, and whole recoveries of a torn journal.
    let torn = serve::torn_journal(seeds, &path);
    let replay_s = l.rec.probe("serve.replay", "serve", 5, || {
        black_box(replay_bytes(black_box(&torn)));
    });
    l.put(
        "serve.replay_mb_per_s",
        torn.len() as f64 / 1e6 / replay_s,
        "MB/s",
    );
    let replay = replay_bytes(&torn);
    let plan_s = l.rec.probe("serve.plan", "serve", 5, || {
        black_box(plan_from_replay(&replay));
    });
    l.put("serve.plan_ms", plan_s * 1e3, "ms");
    drop(replay);
    let mut recover_s = Vec::new();
    for i in 0..3 {
        let recovery = l.rec.span("serve.recover", "serve", i, |rec| {
            serve::recover(&torn, &path, i, Some(rec))
        });
        recover_s.push(recovery.recover_s);
        if i == 0 {
            serve::check_recovery(&recovery, checks);
        }
    }
    l.put("serve.recover_ms_p50", median(recover_s) * 1e3, "ms");
    std::fs::remove_file(&path).ok();
}
