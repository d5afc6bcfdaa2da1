//! Golden-value pins for the one-bit hot path.
//!
//! The fused ⊙ kernel and the reusable round workspace are pure
//! performance work: no consensus bit, RNG draw, or telemetry byte may
//! change. These constants were dumped from the pre-fusion implementation
//! (the composed `keep_mask` → `transient` → `and/or/xor` pipeline with
//! per-round allocations) and pin both `Marsit::synchronize` outcomes and
//! raw collective reductions word-for-word. If any of them moves, the
//! "bit-identical" contract of the fused path is broken.

use marsit::collectives::ring::ring_allreduce_onebit;
use marsit::collectives::segring::segring_allreduce_onebit;
use marsit::collectives::torus::torus_allreduce_onebit;
use marsit::collectives::tree::tree_allreduce_onebit;
use marsit::collectives::{allreduce_onebit, CombineCtx, PlanTopology, Trace};
use marsit::core::ominus::combine_weighted_assign;
use marsit::prelude::*;
use marsit::telemetry::scoped;

/// Deterministic per-worker updates, one RNG stream per worker.
fn updates(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(seed, w as u64);
            (0..d).map(|_| (rng.next_f64() as f32) - 0.5).collect()
        })
        .collect()
}

/// Runs `rounds` synchronizations and returns, per round, the packed words
/// of the consensus sign vector plus the full-precision flag.
fn run_rounds(
    cfg: MarsitConfig,
    m: usize,
    d: usize,
    seed: u64,
    topology: Topology,
    rounds: usize,
) -> Vec<(Vec<u64>, bool)> {
    let ups = updates(m, d, seed);
    let mut marsit = Marsit::new(cfg, m, d);
    (0..rounds)
        .map(|_| {
            let out = marsit.synchronize(&ups, topology);
            (
                SignVec::from_signs(&out.global_update).as_words().to_vec(),
                out.full_precision,
            )
        })
        .collect()
}

fn assert_rounds(got: &[(Vec<u64>, bool)], want: &[(&[u64], bool)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: round count");
    for (t, ((got_words, got_fp), (want_words, want_fp))) in got.iter().zip(want).enumerate() {
        assert_eq!(
            got_fp, want_fp,
            "{label} t={t}: full_precision flag changed"
        );
        assert_eq!(
            got_words.as_slice(),
            *want_words,
            "{label} t={t}: consensus words changed"
        );
    }
}

#[test]
fn golden_ring8_d300() {
    let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.01, 42);
    let got = run_rounds(cfg, 8, 300, 5, Topology::ring(8), 4);
    let want: &[(&[u64], bool)] = &[
        (
            &[
                0xeae8cf560cf7cbc6,
                0xbd3b0f78593cab2d,
                0x634820547ede4c6f,
                0xbbca702a994bd7ad,
                0x000007ded4ab4c07,
            ],
            true,
        ),
        (
            &[
                0x50734f16ecfcd7a7,
                0xe1ff53f8467c69b4,
                0x401c17650ce6e4e6,
                0x2bdcbd48b4575351,
                0x000002dc45bb5cdf,
            ],
            false,
        ),
        (
            &[
                0x92a947079ad1d444,
                0x17ef55fbd82e8a64,
                0x770f51f626fbeccc,
                0xd3c8102f1d4e09be,
                0x000009c6968f545b,
            ],
            false,
        ),
        (
            &[
                0xeae8cf560cf7cbc6,
                0xbd3b0f78593cab2d,
                0x634820547e5e4c6f,
                0xbbca702a994bd7ad,
                0x000007ded4ab4c05,
            ],
            true,
        ),
    ];
    assert_rounds(&got, want, "ring8_d300");
}

#[test]
fn golden_torus2x4_d257() {
    let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.01, 42);
    let got = run_rounds(cfg, 8, 257, 5, Topology::torus(2, 4), 4);
    let want: &[(&[u64], bool)] = &[
        (
            &[
                0xeae8cf560cf7cbc6,
                0xbd3b0f78593cab2d,
                0x634820547ede4c6f,
                0xbbca702a994bd7ad,
                0x0000000000000001,
            ],
            true,
        ),
        (
            &[
                0x6c7b2d176cf1c88c,
                0x1e33287b8428aa51,
                0xdc7823434e885efd,
                0x934aea63197cd761,
                0x0000000000000001,
            ],
            false,
        ),
        (
            &[
                0x996a5c065dd1c444,
                0x991d03f0182de33f,
                0xa44d463427e77f0f,
                0x1b6c189a19488f35,
                0x0000000000000000,
            ],
            false,
        ),
        (
            &[
                0xeae0cf560ef7cbc6,
                0xbd3b0f78593ea92d,
                0x630820d47e5e4c6f,
                0xabca702a994bd7ad,
                0x0000000000000001,
            ],
            true,
        ),
    ];
    assert_rounds(&got, want, "torus2x4_d257");
}

#[test]
fn golden_faulty_ring8_d129() {
    let plan = FaultPlan::seeded(99)
        .with_link_drop(0.05)
        .with_straggler(1, 3.0)
        .with_crash(2, 3);
    let cfg = MarsitConfig::new(SyncSchedule::every(5), 0.01, 7).with_fault_plan(plan);
    let got = run_rounds(cfg, 8, 129, 8, Topology::ring(8), 6);
    let want: &[(&[u64], bool)] = &[
        (
            &[0x280fd520e9508957, 0xacc5b8c090c5a05a, 0x0000000000000000],
            true,
        ),
        (
            &[0x5a0ed1286546964f, 0x236f903432517c9c, 0x0000000000000000],
            false,
        ),
        (
            &[0x2b67edc87481c822, 0x276856064c034675, 0x0000000000000001],
            false,
        ),
        (
            &[0x681fcd034d6ea97f, 0xb153b8e2f951a604, 0x0000000000000000],
            false,
        ),
        (
            &[0x2225e50cad64c76f, 0xeada2a0325439c36, 0x0000000000000001],
            false,
        ),
        (
            &[0x280fdd200d408957, 0xaed11a409041a25e, 0x0000000000000000],
            true,
        ),
    ];
    assert_rounds(&got, want, "faulty_ring8_d129");
}

/// The unaligned ring: d = 1031 over 7 workers cuts at bits 148, 296, 443,
/// 590, 737 and 884 — no cut but the first is a word boundary, so every
/// segment copy of the round takes the shifted bit-range moves. Recorded
/// before those moves went word-parallel; it pins the consensus words, the
/// `⊙` and RNG-draw counts and the wire bytes of four one-bit rounds.
#[test]
fn golden_ring7_d1031() {
    let cfg = MarsitConfig::new(SyncSchedule::never(), 0.01, 42);
    let ups = updates(7, 1031, 5);
    let mut marsit = Marsit::new(cfg, 7, 1031);
    let tel = Telemetry::recording();
    let got: Vec<(Vec<u64>, bool)> = (0..4)
        .map(|t| {
            let out = scoped(&tel, || marsit.synchronize(&ups, Topology::ring(7)));
            assert_eq!(out.trace.num_steps(), 12, "ring7_d1031 t={t}: steps");
            assert_eq!(out.trace.total_bytes(), 1596, "ring7_d1031 t={t}: bytes");
            (
                SignVec::from_signs(&out.global_update).as_words().to_vec(),
                out.full_precision,
            )
        })
        .collect();
    let want: &[(&[u64], bool)] = &[
        (
            &[
                0x07e58e770c37c1c5,
                0x89f92b5dd97d126d,
                0x4d88ec45165cfcfd,
                0x1bcb5a0464835b3c,
                0xf059dbfc969ffd35,
                0x2b0036153f92cc30,
                0x37a353eddc6fd4fa,
                0xa3dc15511bad3a72,
                0xd9362fbe7587a209,
                0x91798475d4318349,
                0x233d4d74eb4006f4,
                0xb4d188a77ca279ee,
                0x77100e4cd4551a0d,
                0xbfeb8aa93ae035ae,
                0xcd0bbe5bb2807055,
                0xe1b42dcc74439730,
                0x000000000000006c,
            ],
            false,
        ),
        (
            &[
                0xf85b2956acfcd7a7,
                0xb1fb2374c2536a71,
                0x510aa13755984e33,
                0x89e75928b9ea1c65,
                0x2b315d2ef73bdd75,
                0x6ca770b4f7078661,
                0x0fab54ddd9a4736d,
                0x4b3b0eb7fb0954a5,
                0xf11bb0612f168a2c,
                0x8be4face93e759b1,
                0x41fd307659720e7d,
                0x080b983dd4bce584,
                0x134ddc6ddda8e987,
                0x42a48239083c97c4,
                0x2b7c293bb2c6517d,
                0xeb2a7b2f0e434a10,
                0x0000000000000072,
            ],
            false,
        ),
        (
            &[
                0x8bfa9f079af1d464,
                0x39a28258f02ed17d,
                0x645d01810a762445,
                0x5360d12df11ed77f,
                0x1d71498ed43154cc,
                0x658d524cd7074432,
                0x5218590ed102b2e4,
                0xd26aa874f30d304e,
                0xe15c990843e6eb0f,
                0xad6878bdd3a8e5bd,
                0x2ad116ecb16336fc,
                0x1530901d6e9de9c5,
                0x29ce08c8f109ce8b,
                0x91f1ee7e6b37531a,
                0xa16c1d2042081a8c,
                0x90bf384b04434fdd,
                0x0000000000000058,
            ],
            false,
        ),
        (
            &[
                0xa233659e3b6fc1b4,
                0xabf64341da3e8145,
                0xeb9e40c31e544a7e,
                0x9f4b742bad7c5775,
                0x903adbcec60f86d5,
                0x0e353207a14785fc,
                0x54c4626f977ec0f2,
                0xc36378fe8aa17a86,
                0xc176f2106f9ff3cc,
                0xc8d58a25c374db39,
                0x2a7d35cc5366d60d,
                0x178fc842fe6c5dc7,
                0x1b444c69d890df43,
                0x99c3bc1d2900b8c9,
                0xa22d2956c5dcda4d,
                0xd52b9af87601a35b,
                0x000000000000004f,
            ],
            false,
        ),
    ];
    assert_rounds(&got, want, "ring7_d1031");
    assert_eq!(tel.counter("marsit.combines"), 168, "⊙ count changed");
    assert_eq!(tel.counter("marsit.rng_draws"), 11004, "draw count changed");
    assert_eq!(tel.counter("hop.bytes"), 6384, "traced hop bytes changed");
}

/// The raw collectives under the weighted ⊙, with the per-hop RNG stream
/// derivation the trainer uses: each combine call draws from a fresh
/// `FastRng` keyed by (receiver, segment, step). This pins the fused
/// kernel's word-draw order independently of the Marsit driver.
fn goldens_signs() -> Vec<SignVec> {
    let mut rng = FastRng::new(17, 0);
    (0..6)
        .map(|_| SignVec::bernoulli_uniform(200, 0.5, &mut rng))
        .collect()
}

fn weighted_stream_combine(recv: &SignVec, local: &mut SignVec, ctx: CombineCtx) {
    let stream = ((ctx.receiver as u64) << 40) | ((ctx.segment as u64) << 20) | ctx.step as u64;
    let mut rng = FastRng::new(1234, stream);
    combine_weighted_assign(recv, ctx.received_count, local, ctx.local_count, &mut rng);
}

#[test]
fn golden_collective_ring6_d200() {
    let signs = goldens_signs();
    let (out, _) = ring_allreduce_onebit(&signs, weighted_stream_combine);
    assert_eq!(
        out.as_words(),
        &[
            0x6060cd446634f8ca,
            0xf5e54dffae3b7093,
            0x84cfe36e09c39d14,
            0x0000000000000046,
        ],
        "ring(6) d=200 consensus words changed"
    );
}

/// What a trace pins beyond its consensus: wire bytes, wall-clock steps and
/// how many transfers ride each step.
fn trace_shape(trace: &Trace) -> (usize, usize, Vec<usize>) {
    (
        trace.total_bytes(),
        trace.num_steps(),
        trace.steps().iter().map(Vec::len).collect(),
    )
}

/// The drop plan of the faulty tree / segring goldens (and of
/// `tests/golden_plan.rs`): 25 % drops, one retry, so some reduce transfers
/// are omitted for good.
fn lossy_injector(round: u64) -> marsit::simnet::FaultInjector {
    FaultPlan::seeded(0x601d)
        .with_link_drop(0.25)
        .with_retry_policy(1, 1e-4)
        .injector(round)
}

#[test]
fn golden_collective_tree4_d200() {
    let signs = goldens_signs();
    let mut combine = weighted_stream_combine;
    let (out, trace) = tree_allreduce_onebit(&signs[..4], &mut combine);
    assert_eq!(
        out.as_words(),
        &[
            0xc0f2c0690e9b658c,
            0xda412d5f3d5cf202,
            0x70cd754d99ad681d,
            0x0000000000000077,
        ],
        "tree(4) d=200 consensus words changed"
    );
    assert_eq!(
        trace_shape(&trace),
        (150, 4, vec![2, 1, 1, 2]),
        "tree(4) d=200 trace"
    );
}

#[test]
fn golden_collective_segring6x3_d200() {
    let signs = goldens_signs();
    let mut combine = weighted_stream_combine;
    let (out, trace) = segring_allreduce_onebit(&signs, 3, &mut combine);
    assert_eq!(
        out.as_words(),
        &[
            0xa06f0957ccdca8ca,
            0x7fa1e70ea52d3c3a,
            0xb27af96d8123ca05,
            0x00000000000000c3,
        ],
        "segring(6, S=3) d=200 consensus words changed"
    );
    assert_eq!(
        trace_shape(&trace),
        (360, 12, vec![6, 12, 18, 18, 18, 18, 18, 18, 18, 18, 12, 6]),
        "segring(6, S=3) d=200 trace"
    );
}

/// The tree and the segmented ring under drops. Their clean entry points are
/// the fault-aware bodies on a fabric that never faults, so these two and the
/// two above are what keeps "clean equals faulty-on-inert" checked against
/// recorded values: consensus, trace shape and what the injector counted.
#[test]
fn golden_faulty_collective_tree6_d200() {
    let signs = goldens_signs();
    let mut inj = lossy_injector(6);
    let (out, trace) = allreduce_onebit(
        PlanTopology::Tree,
        &signs,
        &mut inj,
        weighted_stream_combine,
    )
    .unwrap();
    assert_eq!(
        out.as_words(),
        &[
            0x8474cd691f1ee48d,
            0x55247c4fa9dc660b,
            0x4e86b0e9b8a6ea1c,
            0x0000000000000093,
        ],
        "faulty tree(6) d=200 consensus"
    );
    assert_eq!(
        trace_shape(&trace),
        (375, 10, vec![3, 1, 1, 1, 1, 1, 1, 1, 3, 2]),
        "faulty tree(6) trace"
    );
    let stats = inj.take_stats();
    assert_eq!(
        (
            stats.retransmits,
            stats.dropped_transfers,
            stats.forced_deliveries
        ),
        (5, 2, 3),
        "faulty tree(6) injector"
    );
}

#[test]
fn golden_faulty_collective_segring6x3_d200() {
    let signs = goldens_signs();
    let mut inj = lossy_injector(2);
    let segring = PlanTopology::SegRing { macro_segments: 3 };
    let (out, trace) =
        allreduce_onebit(segring, &signs, &mut inj, weighted_stream_combine).unwrap();
    assert_eq!(
        out.as_words(),
        &[
            0xa06f0957ccdca8ca,
            0x7fa1e705992d3c3a,
            0xb278962c90ee9eb5,
            0x00000000000000c3,
        ],
        "faulty segring(6, S=3) d=200 consensus"
    );
    assert_eq!(
        trace_shape(&trace),
        (
            428,
            21,
            vec![6, 8, 13, 16, 13, 9, 13, 8, 18, 9, 15, 8, 13, 18, 9, 14, 3, 12, 2, 6, 1]
        ),
        "faulty segring(6, S=3) trace"
    );
    let stats = inj.take_stats();
    assert_eq!(
        (
            stats.retransmits,
            stats.dropped_transfers,
            stats.forced_deliveries
        ),
        (34, 6, 15),
        "faulty segring(6, S=3) injector"
    );
}

/// Torus is covered through `golden_torus2x4_d257` above; this smoke keeps
/// the raw torus collective on the same stream-derived combine exercised
/// so a regression there cannot hide behind the Marsit driver.
#[test]
fn torus_collective_is_deterministic_under_stream_combine() {
    let signs = goldens_signs();
    let (a, _) = torus_allreduce_onebit(&signs, 2, 3, weighted_stream_combine);
    let (b, _) = torus_allreduce_onebit(&signs, 2, 3, weighted_stream_combine);
    assert_eq!(a, b, "torus(2x3) must replay exactly");
}

/// A 64-bit fingerprint (multiply–xorshift fold) for vectors too long to
/// pin word by word.
fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, w| {
        let h = (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        h ^ (h >> 29)
    })
}

fn fingerprint_f32(values: &[f32]) -> u64 {
    fingerprint(values.iter().map(|x| u64::from(x.to_bits())))
}

/// The multi-block ragged ring: d = 40 007 over 7 workers is more than two
/// 16 384-element prologue blocks and divides by neither 7 nor 64, and
/// `every(3)` puts every form of the round prologue on the path — rounds 0,
/// 3 and 6 are full-precision (no sign pack; a materialized residual, then
/// deferred ones), rounds 1, 4 and 7 fold a materialized compensation and
/// rounds 2 and 5 a deferred one. Recorded before the prologue went
/// block-major; it pins the global update, the compensated mean and the
/// final compensation vectors bit for bit, plus the `⊙`, RNG-draw and
/// wire-byte counts.
#[test]
fn golden_ring7_d40007_multiblock() {
    let (m, d) = (7, 40_007);
    let cfg = MarsitConfig::new(SyncSchedule::every(3), 0.01, 42);
    let mut marsit = Marsit::new(cfg, m, d);
    let tel = Telemetry::recording();
    let got: Vec<(u64, u64, bool)> = (0..8)
        .map(|t| {
            let ups = updates(m, d, 5 + t);
            let out = scoped(&tel, || marsit.synchronize(&ups, Topology::ring(m)));
            (
                fingerprint_f32(&out.global_update),
                fingerprint_f32(&out.compensated_mean),
                out.full_precision,
            )
        })
        .collect();
    let want: &[(u64, u64, bool)] = &[
        (0x22157091fa7bc868, 0x35145fc80cfa2e69, true),
        (0x74c303a3d976d28a, 0x63d8300ef59d409f, false),
        (0x53b49b00a8fc62c9, 0x9978943d45290311, false),
        (0x0c5cc739e79363b5, 0x1417a0876e3e1e78, true),
        (0x928aac5495e9ff0e, 0x005cebab76c79266, false),
        (0xe5f2073b2458578b, 0x7254f709130ff70e, false),
        (0x9a02d2776becfab3, 0x2ccbdb8d9196aa2d, true),
        (0x9958c00d095684bb, 0xca7c61b1e95dcf03, false),
    ];
    let residuals: Vec<u64> = (0..m)
        .map(|w| fingerprint_f32(marsit.compensation(w).vector()))
        .collect();
    assert_eq!(got, want, "ring7_d40007: (global, mean, full_precision)");
    assert_eq!(
        residuals,
        [
            0xf03caf6a0d9f6ea8,
            0x37c7e0e7d57661f9,
            0x32a65c631498663a,
            0xa863e93cbdab98dc,
            0xd129b8893bdf9b14,
            0x022239e196798e23,
            0xc57e983e956c414f,
        ],
        "ring7_d40007: compensation vectors"
    );
    assert_eq!(tel.counter("marsit.combines"), 210, "⊙ count changed");
    assert_eq!(
        tel.counter("marsit.rng_draws"),
        412_650,
        "draw count changed"
    );
    assert_eq!(
        tel.counter("hop.bytes"),
        6_061_308,
        "traced hop bytes changed"
    );
}

/// FNV-1a over the bytes of a drained telemetry log.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `rounds` fault-injected rounds (fresh updates every round, one
/// recycled outcome, a recording sink drained per round) and renders one line
/// per round holding everything the round reports: fingerprints of
/// `global_update` and `compensated_mean` (plus the consensus words when
/// `words` is set), the full-precision flag, the degraded mode, wire bytes and
/// steps, every `FaultStats` field, the round's `⊙` and RNG-draw counts and
/// an FNV fingerprint of its telemetry JSONL. Also returns the fingerprint of
/// each worker's final compensation vector.
fn faulty_round_lines(
    cfg: MarsitConfig,
    topology: Topology,
    d: usize,
    rounds: u64,
    words: bool,
) -> (Vec<String>, Vec<u64>) {
    let m = topology.workers();
    let mut marsit = Marsit::new(cfg, m, d);
    let tel = Telemetry::recording();
    let mut out = marsit::core::SyncOutcome::default();
    let (mut combines, mut draws) = (0, 0);
    let lines = (0..rounds)
        .map(|t| {
            let ups = updates(m, d, 5 + t);
            scoped(&tel, || marsit.synchronize_into(&ups, topology, &mut out));
            assert_eq!(out.round, t);
            let FaultStats {
                retransmits,
                dropped_transfers,
                corrupted_transfers,
                repairs,
                crashed_workers,
                forced_deliveries,
                rejoins,
                retry_extra_s,
                catchup_extra_s,
                stragglers_suspected,
                links_degraded,
                ranks_silent,
            } = out.faults;
            let (c0, d0) = (combines, draws);
            combines = tel.counter("marsit.combines");
            draws = tel.counter("marsit.rng_draws");
            let mut line = format!(
                "{:016x} {:016x} fp={} {:?} bytes={} steps={} \
                 faults={retransmits}/{dropped_transfers}/{corrupted_transfers}/{repairs}/\
                 {crashed_workers}/{forced_deliveries}/{rejoins}/{retry_extra_s:?}/\
                 {catchup_extra_s:?}/{stragglers_suspected}/{links_degraded}/{ranks_silent} \
                 combines={} draws={} jsonl={:016x}",
                fingerprint_f32(&out.global_update),
                fingerprint_f32(&out.compensated_mean),
                out.full_precision,
                out.degraded,
                out.trace.total_bytes(),
                out.trace.num_steps(),
                combines - c0,
                draws - d0,
                fnv1a(tel.drain_events_jsonl().as_bytes()),
            );
            if words {
                let consensus = SignVec::from_signs(&out.global_update);
                for w in consensus.as_words() {
                    line.push_str(&format!(" {w:016x}"));
                }
            }
            line
        })
        .collect();
    let residuals = (0..m)
        .map(|w| fingerprint_f32(marsit.compensation(w).vector()))
        .collect();
    (lines, residuals)
}

fn assert_lines(got: &[String], want: &[&str], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: round count");
    for (t, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{label} t={t}");
    }
}

/// A fault-injected torus through every membership state: drops, corruption
/// and a straggler throughout, one retry per transfer so that some reduce hops
/// are omitted for good and the per-cell aggregation counts matter; worker 5
/// crashes at round 3 (the torus degrades to a 7-survivor ring, full-precision
/// round 4 included) and rejoins at round 6 with reset compensation;
/// `every(4)` puts full-precision rounds at 0, 4 and 8. Recorded on the parent
/// commit, before the faulty round was folded into the clean round's body.
#[test]
fn golden_faulty_torus2x4_d257() {
    let plan = FaultPlan::seeded(99)
        .with_link_drop(0.05)
        .with_link_corruption(0.02)
        .with_retry_policy(1, 2e-4)
        .with_straggler(1, 3.0)
        .with_crash_event(5, 3)
        .with_rejoin(5, 6);
    let cfg = MarsitConfig::new(SyncSchedule::every(4), 0.01, 7).with_fault_plan(plan);
    let (lines, residuals) = faulty_round_lines(cfg, Topology::torus(2, 4), 257, 12, true);
    assert_lines(
        &lines,
        &[
            "cff3d69ff0f7b3cb ca4d416feae6d6ee fp=true None bytes=15552 steps=21 \
             faults=9/1/3/0/0/2/0/0.0018000000000000004/0.0/0/0/0 \
             combines=0 draws=0 jsonl=384b4bd2da8ac5fb \
             eae8cf560cf7cbc6 bd3b0f78593cab2d 634820547ede4c6f bbca702ab92bd1ad 0000000000000001",
            "f9cb02e782133a5c aad62a878a319d27 fp=false None bytes=499 steps=13 \
             faults=5/0/3/0/0/3/0/0.001/0.0/0/0/0 \
             combines=32 draws=358 jsonl=884ebb82415ea407 \
             528c4d402b6efc7b 59ccda289b0dc871 ab6f789ac7f007ad 3c9f5487dbdb08e2 0000000000000000",
            "6e86fb66e07148a5 50f279e558732886 fp=false None bytes=507 steps=14 \
             faults=6/0/2/0/0/2/0/0.0012000000000000001/0.0/0/0/0 \
             combines=32 draws=358 jsonl=b966a5e9b52d1eb3 \
             54695d83c4ec423c db0a2a6a433fb701 95ab4c975de708a7 01287354870d7183 0000000000000001",
            "1ee318c7bfb561c3 6310b736f419c3e1 fp=false TorusToRing { live: 7 } bytes=450 steps=17 \
             faults=6/0/1/1/1/3/0/0.0012000000000000001/0.0/0/0/0 \
             combines=42 draws=917 jsonl=6dd0b8cb954e1072 \
             c3cbf4f1c6320a31 a4d34ef3dbc352ce dd51530f5490b534 11fb58dea7506218 0000000000000000",
            "0f1108cfd92b7b33 8deff7b2957e3614 fp=true TorusToRing { live: 7 } bytes=12920 steps=16 \
             faults=4/0/3/0/1/3/0/0.0008/0.0/0/0/0 \
             combines=0 draws=0 jsonl=b7dd30ece6190efe \
             2a48c500b86b88ff a916b8981bc2e87a f40b2761d62af4b4 899e78abafdad978 0000000000000000",
            "80897cceb5f221ac 3f4e712f2f4dd86b fp=false TorusToRing { live: 7 } bytes=430 steps=14 \
             faults=2/0/2/0/1/1/0/0.0004/0.0/0/0/0 \
             combines=42 draws=917 jsonl=b895169bd1a82462 \
             1cffb9d084e11e32 52b18482af16efd2 49c6f446c1b02927 a13fd4c3fb623e59 0000000000000000",
            "10c09f402ff46fe0 d94c7108d2cfea3b fp=false None bytes=513 steps=13 \
             faults=7/1/1/1/0/2/1/0.0014000000000000002/0.0/0/0/0 \
             combines=31 draws=354 jsonl=2d3ad6db06e92e37 \
             fefce08e9ede8f9d c0b4c9292f85eaf7 7d2a856861849a9f 8d7c485ba155644b 0000000000000001",
            "684b555fb0b73ae3 b445ed2f08009647 fp=false None bytes=490 steps=11 \
             faults=4/1/1/0/0/3/0/0.0008/0.0/0/0/0 \
             combines=31 draws=418 jsonl=43d62d11fb735163 \
             53a5e600f95d884d 2ec5e91387eb37f0 0946518d5ed6b63b 6f221b985ad2535d 0000000000000000",
            "33ea79708e4ceb32 d56b500465673663 fp=true None bytes=14780 steps=17 \
             faults=3/0/0/0/0/2/0/0.0006000000000000001/0.0/0/0/0 \
             combines=0 draws=0 jsonl=7ef50a682d6e9df2 \
             52a89c0e483f1e01 6d99d131803263d1 2ee85d515533b24e 2fc249caa04b77b2 0000000000000000",
            "5ca5d93c4912fd10 bfdc664945975199 fp=false None bytes=495 steps=12 \
             faults=4/0/0/0/0/3/0/0.0008/0.0/0/0/0 \
             combines=32 draws=358 jsonl=248f95d30624281b \
             e1352a80e5b10a02 88b6407d15a26ca3 3960543353e98fb0 796f2103d89b9cd9 0000000000000000",
            "f6dfd92c7e44f1f4 e8fa5cb6a961ecc0 fp=false None bytes=474 steps=10 \
             faults=2/1/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=31 draws=357 jsonl=17b657565d7f69bc \
             9f2eb7a74b51699a 23d4880ed7d3a83c 33143d3004bea976 5667747dbacddfe3 0000000000000000",
            "2aebc1cde25c1aac adba4d67f546bf9f fp=false None bytes=478 steps=10 \
             faults=2/0/1/0/0/1/0/0.0004/0.0/0/0/0 \
             combines=32 draws=358 jsonl=6219718e8af44b42 \
             afbfe57f33374b2f eb7de182f3b7f7a5 51357691dcb8814f a673789acad5ca60 0000000000000000",
        ],
        "faulty_torus2x4_d257",
    );
    assert_eq!(
        residuals,
        [
            0xb52ca523bcf63efc,
            0x47e6a8d011072a85,
            0x2590c08f9abc2f8d,
            0xf276ad772ae29fd3,
            0x07275a343fa0406b,
            0x70241e30a59f3ccf,
            0x2a249825a39fcad7,
            0xf1209feb27039d6a,
        ],
        "faulty_torus2x4_d257: compensation"
    );
}

/// The `sync_chaos` benchmark shape: torus(2,4), d = 65 536, K = 8, 2 % drops,
/// 1 % corruption, a straggler, no membership change. Fingerprints only.
/// Recorded on the parent commit, like the golden above.
#[test]
fn golden_chaos_torus2x4_d65536() {
    let plan = FaultPlan::seeded(0x5eed_c4a0)
        .with_link_drop(0.02)
        .with_link_corruption(0.01)
        .with_straggler(3, 2.5);
    let cfg = MarsitConfig::new(SyncSchedule::every(8), 0.01, 20_220_710).with_fault_plan(plan);
    let (lines, residuals) = faulty_round_lines(cfg, Topology::torus(2, 4), 65_536, 10, false);
    assert_lines(
        &lines,
        &[
            "55f5463996bb2de7 218739e819f97d77 fp=true None bytes=3833856 steps=19 \
             faults=5/0/1/0/0/0/0/0.001/0.0/0/0/0 \
             combines=0 draws=0 jsonl=6063429ad74af5dc",
            "883a25392a082e48 85fe649c861ded12 fp=false None bytes=115712 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=99fa8a565688989f",
            "213259beec226bd3 88633ebe45980b6d fp=false None bytes=116736 steps=9 \
             faults=2/0/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=0a18748514541266",
            "659700e05cb3c0ed a9a718c2aa4cf625 fp=false None bytes=116736 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=fe5f687a1eb5bb43",
            "8e9e17a4df9e3b8d 29446b27bf057bf0 fp=false None bytes=117760 steps=10 \
             faults=2/0/0/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=e411ccd5ff6a098b",
            "b56d9789ffebcf96 1e4541a75524a69b fp=false None bytes=118784 steps=10 \
             faults=2/0/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=8311585bad6972ed",
            "4ae1bfc4ae5e63f0 dd90e3dfa8078965 fp=false None bytes=114688 steps=8 \
             faults=0/0/0/0/0/0/0/0.0/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=f79acda0347130b6",
            "c8cb2b4ff57a8834 19d092a23223859d fp=false None bytes=124928 steps=13 \
             faults=5/0/0/0/0/0/0/0.001/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=e90fa49c49e9eb39",
            "e4c7c8f95babe7a6 85380f95edbba406 fp=true None bytes=3833856 steps=19 \
             faults=5/0/1/0/0/0/0/0.001/0.0/0/0/0 \
             combines=0 draws=0 jsonl=b76bb7d661d10adb",
            "3e729be233e0681b f4c3b09cf7001be2 fp=false None bytes=116736 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=72704 jsonl=864b3222af5039df",
        ],
        "chaos_torus2x4_d65536",
    );
    assert_eq!(
        residuals,
        [
            0x9fdbf60c296968a9,
            0x9c203966225c8d12,
            0xb455262a6fc34548,
            0x93ebb783a4b1a40a,
            0xf19adaea4f622bc6,
            0xe063b5379f209c7f,
            0xe2be1b56d1e8d37d,
            0x59f137d68092624d,
        ],
        "chaos_torus2x4_d65536: compensation"
    );
}
