//! Golden-value pins for the one-bit hot path.
//!
//! The fused ⊙ kernel and the reusable round workspace are pure
//! performance work: no consensus bit, RNG draw, or telemetry byte may
//! change. These constants were dumped from the pre-fusion implementation
//! (the composed `keep_mask` → `transient` → `and/or/xor` pipeline with
//! per-round allocations) and pin both `Marsit::synchronize` outcomes and
//! raw collective reductions word-for-word. If any of them moves, the
//! "bit-identical" contract of the fused path is broken.
//!
//! Everything that runs through `Marsit::synchronize` was re-recorded once,
//! constants only, for stream contract v2 (DESIGN §9: one winner draw per
//! reduce chain; a torus under a fault plan resyncs over the torus). The raw
//! collectives under `weighted_stream_combine` draw the per-hop fallback
//! stream, which v2 left alone, and still hold their first recording.

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
                0xb7cedc868bf9bdd4,
                0x119faeec6868f866,
                0x6c6a521e1d83fc47,
                0xad83960e904b873d,
                0x000006c6c09fcfe1,
            ],
            false,
        ),
        (
            &[
                0x6805fcd6a4938fe0,
                0x6dc1afde9926097d,
                0xa1cba481eebea93f,
                0x1b4a69405710c7e1,
                0x00000747b00e4415,
            ],
            false,
        ),
        (
            &[
                0xeae8cf560cf7cbc6,
                0xbd3b0f78593cab2d,
                0x630820747e5e4c6f,
                0xbbca702a994bd7ad,
                0x000007ded4ab4c07,
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
                0x2ae8bd162a6ff5f0,
                0x8c188ff69578a0bf,
                0x709b9272c4074c69,
                0x894cfc38d84df99d,
                0x0000000000000000,
            ],
            false,
        ),
        (
            &[
                0xcb60ce97b5968ae4,
                0x9d170078487fbd3f,
                0x05256036e5cdf535,
                0x5143e5af99a08b31,
                0x0000000000000001,
            ],
            false,
        ),
        (
            &[
                0xeae8cf560cf7cbc6,
                0xbd3b0f78593cab2d,
                0x634820d47ede4c6f,
                0xbbca502a994bd7ad,
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
            &[0x0313cbe52fa28c57, 0xe447b411c09d969f, 0x0000000000000000],
            false,
        ),
        (
            &[0x713ad7262c7c4df7, 0x7c47ba60eea4ca72, 0x0000000000000000],
            false,
        ),
        (
            &[0x287de50a6126892b, 0x2fd518c0b9dbac10, 0x0000000000000000],
            false,
        ),
        (
            &[0x2c0a85c5edd48987, 0x56ce9822a0f8ad13, 0x0000000000000001],
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
                0x5e13da763441e126,
                0x19b36975d8366df6,
                0x215c43115ef67d2b,
                0xa3c35202384f5b4c,
                0x837edde65a2f456f,
                0x415432c7e81518a2,
                0x5ab84dcc9521c170,
                0x61965037af9a92c4,
                0xd0eaab4532e33f2c,
                0xc5b5752d43f4cd3c,
                0xab43253b13675ea4,
                0xb826ad056abe28f3,
                0x23501568b3419bc3,
                0xdd050439ac889912,
                0xe4788876872a7db5,
                0x90a47ebc02417774,
                0x000000000000005f,
            ],
            false,
        ),
        (
            &[
                0xa26c7d0699f93df4,
                0x11feadfabc3c9c55,
                0xad2930114b04688f,
                0x9745746ff0f88974,
                0xf9b5d6c5e48d0d44,
                0xe855617f97668465,
                0x3aa3190d96ec1eb2,
                0xa3b628ddd09d3866,
                0xdddcaf88491a8ba2,
                0xa7ba9cc557246dcf,
                0x280c376c1054b8d5,
                0xd8ef6d407e8c6d40,
                0x01281ee9f2894f0b,
                0xcac78afe3a1c5912,
                0x6c6daf3b87c6165d,
                0xa9fe2bdf66c06a3d,
                0x000000000000004c,
            ],
            false,
        ),
        (
            &[
                0xf1722e56a4938fe4,
                0xf96bcd7ccc3ca275,
                0x80ff6067ce9ad6e3,
                0xefc23725385cd3b8,
                0x0cbfb8ee6335c516,
                0xe04f064997e686f0,
                0x679815c5d331e491,
                0xe76c77bedfd4723c,
                0xe16a181c8717ee22,
                0x82c55bdcb3c5d51a,
                0x293d08e5dfe02695,
                0x13538b85f0aeedc2,
                0x23561c79b30ec02a,
                0xd8a4dcbc01e79388,
                0xa04ace5de650f456,
                0xbb26750d06232f00,
                0x0000000000000045,
            ],
            false,
        ),
        (
            &[
                0xf8f1fdff25d0e94c,
                0xa13f0939d734ad28,
                0xe65951573e77c433,
                0xb7435c2f387a4f07,
                0xc5970fcc85393554,
                0x2bc81609c252c8a8,
                0x12bd571fe237ceda,
                0x814a727dd71d3b34,
                0x976c2f59c9d40902,
                0xc5a5128e83554faa,
                0xc8df1c1cc27206c5,
                0x35bfacfdae2de9c2,
                0x03088279d1289e3a,
                0x82ffb037ae52690b,
                0x02092f549580f565,
                0xc7ae20ff5621a79c,
                0x0000000000000070,
            ],
            false,
        ),
    ];
    assert_rounds(&got, want, "ring7_d1031");
    assert_eq!(tel.counter("marsit.combines"), 168, "⊙ count changed");
    assert_eq!(tel.counter("marsit.rng_draws"), 672, "draw count changed");
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
        (0x0058c27eecbbae2d, 0x63d8300ef59d409f, false),
        (0x8fb4c7557d1fa721, 0x5603b72fd4e0c3aa, false),
        (0x87eefa3de2e87a5f, 0xfb95ad260cfa1cb3, true),
        (0x0e9da26018ba8b5a, 0x005cebab76c79266, false),
        (0xf448b8da532cbc18, 0x2e59a0d98ef1385b, false),
        (0x701de28ccd1e6ea1, 0x2d4b04924d0e3f6f, true),
        (0x29c311cd97597713, 0xca7c61b1e95dcf03, false),
    ];
    let residuals: Vec<u64> = (0..m)
        .map(|w| fingerprint_f32(marsit.compensation(w).vector()))
        .collect();
    assert_eq!(got, want, "ring7_d40007: (global, mean, full_precision)");
    assert_eq!(
        residuals,
        [
            0xdf85ae79ab2cf067,
            0x6ded3a21b3e891cd,
            0x07b1fba8c6d28297,
            0x5d243782c51fb7ee,
            0x55190b8e9e524e41,
            0x7416a11cfc12ab37,
            0x9632ec706258bcec,
        ],
        "ring7_d40007: compensation vectors"
    );
    assert_eq!(tel.counter("marsit.combines"), 210, "⊙ count changed");
    assert_eq!(
        tel.counter("marsit.rng_draws"),
        26_175,
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
            "844836d1194fcb47 ca4d416feae6d6ee fp=true None bytes=15936 steps=12 \
             faults=7/1/3/0/0/2/0/0.0014000000000000002/0.0/0/0/0 \
             combines=0 draws=0 jsonl=9cb0bc7246d558b5 \
             eae8cf560cf7cbc6 bd3b0f78593cab2d 63482047464e446f bbca702a994bd7ad 0000000000000001",
            "17b06d42dde9385a aad62a878a319d27 fp=false None bytes=499 steps=13 \
             faults=5/0/3/0/0/3/0/0.001/0.0/0/0/0 \
             combines=32 draws=28 jsonl=2b1a71819e33f592 \
             30666a10b0c80e66 64063b984fcdd0fa e64ae4d9caa212b5 fb8c5adfe316dd2a 0000000000000000",
            "36a6ee67e49702dd fa94be288e40b5a6 fp=false None bytes=507 steps=14 \
             faults=6/0/2/0/0/2/0/0.0012000000000000001/0.0/0/0/0 \
             combines=32 draws=28 jsonl=90d4ea39a7f7c643 \
             a8c665000226ca95 26fe9a7c1f46672d a50d16d3d4fbba6d 01ab5d369b4e6119 0000000000000000",
            "8a5516ad8c33cbf9 092f39f413c07274 fp=false TorusToRing { live: 7 } bytes=450 steps=17 \
             faults=6/0/1/1/1/3/0/0.0012000000000000001/0.0/0/0/0 \
             combines=42 draws=57 jsonl=fe3a9c774279fa6e \
             ce8c952ca60fb925 8a7749e981e8d96a 1518c142001a87b5 1d941ff32e13092a 0000000000000001",
            "0399ef14c14c64a9 280f1306b1afd588 fp=true TorusToRing { live: 7 } bytes=12920 steps=16 \
             faults=4/0/3/0/1/3/0/0.0008/0.0/0/0/0 \
             combines=0 draws=0 jsonl=bac994dc5e9a8e44 \
             0a48c500986a887f a992b8985bc2e87a f40b6761d622f4b4 891e788bafdaf878 0000000000000000",
            "0610c9240469ee7b 3f4e712f2f4dd86b fp=false TorusToRing { live: 7 } bytes=430 steps=14 \
             faults=2/0/2/0/1/1/0/0.0004/0.0/0/0/0 \
             combines=42 draws=69 jsonl=ca9f0c98141455fd \
             562f5fc6287182ea 5903f180c0876c66 2a9b7d17d7ad2df7 63ff683ba2eaf578 0000000000000001",
            "b56a45abec11a1c6 37b3e096f7eb4920 fp=false None bytes=513 steps=13 \
             faults=7/1/1/1/0/2/1/0.0014000000000000002/0.0/0/0/0 \
             combines=31 draws=92 jsonl=a385c66cd3cb485c \
             9afe9c043a9f8f2f f197301f43d64c94 dddccb6117b9fc4b 76f7733902d34e3e 0000000000000000",
            "d83f1f0695804c65 9b8d1de1a2ae5f00 fp=false None bytes=490 steps=11 \
             faults=4/1/1/0/0/3/0/0.0008/0.0/0/0/0 \
             combines=31 draws=90 jsonl=dc468628e685f40e \
             51a8a655ac3cc40a 4920d9fdd7742bdb 6bd34c6d558f23bf 69220c5a524c4651 0000000000000000",
            "37a3b92058815f9e b6a0c40d024763c8 fp=true None bytes=14648 steps=9 \
             faults=1/0/0/0/0/1/0/0.0002/0.0/0/0/0 \
             combines=0 draws=0 jsonl=df5c5062bc9b540d \
             52a89c0e583f1e01 6d9dd131883263d1 2fe85d515133b24e afc249caa05b77f3 0000000000000000",
            "a3054b2cb65da77d bfdc664945975199 fp=false None bytes=495 steps=12 \
             faults=4/0/0/0/0/3/0/0.0008/0.0/0/0/0 \
             combines=32 draws=28 jsonl=202067a06f6c54e4 \
             0d1c930e15d538cf 9fed56e79e80da61 9f639e9604b30f7e fa2fb979ffeafc2b 0000000000000001",
            "b165161e3f6a98d4 b078308d295e9091 fp=false None bytes=474 steps=10 \
             faults=2/1/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=31 draws=27 jsonl=515502575b0686da \
             0bb2218b5a64acbb 9f557d0fc242b488 6f6dbdb852bb8b2a 59cf67faface8f18 0000000000000000",
            "0ffd7225a2636448 0aee0e551b29bfb8 fp=false None bytes=478 steps=10 \
             faults=2/0/1/0/0/1/0/0.0004/0.0/0/0/0 \
             combines=32 draws=28 jsonl=b8ddf95ccff5540c \
             bb7fff4bf313b508 a461d1cfe9a9e491 fe10cff3e6b78823 3eea6593d720c925 0000000000000000",
        ],
        "faulty_torus2x4_d257",
    );
    assert_eq!(
        residuals,
        [
            0x3c6ad5f74e6adc95,
            0x5827109eb38ffbbe,
            0x1452572a36202dcc,
            0x148040cf67fab35e,
            0xe23a51818dce6d5d,
            0x2fe72d060069e449,
            0x7491013420f3da33,
            0x45f3a9338ed90fa3,
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
            "026504d515a22729 218739e819f97d77 fp=true None bytes=3899392 steps=12 \
             faults=4/0/1/0/0/0/0/0.0008/0.0/0/0/0 \
             combines=0 draws=0 jsonl=f9e1ac885267d3bf",
            "67f02f3a6e3ec630 85fe649c861ded12 fp=false None bytes=115712 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=8cb958471a99d2d0",
            "e1fc3859f1640119 69a973c6f98aaa6c fp=false None bytes=116736 steps=9 \
             faults=2/0/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=5b0d0234d880d9b4",
            "4013c58f4f2ee72c 91665dcb0398eee4 fp=false None bytes=116736 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=729de181b5adb79e",
            "303e7834df03eb13 fe6744402580bacb fp=false None bytes=117760 steps=10 \
             faults=2/0/0/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=af45d073f8e866b9",
            "f6180edd65aec0ef 8801e789e489598f fp=false None bytes=118784 steps=10 \
             faults=2/0/1/0/0/0/0/0.0004/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=9ba4175e716581cc",
            "e5ec314608237e2f 5e242b3137db84df fp=false None bytes=114688 steps=8 \
             faults=0/0/0/0/0/0/0/0.0/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=f6a899b5bc6e25d2",
            "007cd1ffe55d6dd8 ea26ba5a222b4f02 fp=false None bytes=124928 steps=13 \
             faults=5/0/0/0/0/0/0/0.001/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=3313fbbbf0b2c422",
            "330118b01eb8a78e 2148d3b3674b9f83 fp=true None bytes=3833856 steps=11 \
             faults=3/0/0/0/0/0/0/0.0006000000000000001/0.0/0/0/0 \
             combines=0 draws=0 jsonl=76fc695dedf4881b",
            "9b61ea08d162ec45 f4c3b09cf7001be2 fp=false None bytes=116736 steps=9 \
             faults=1/0/0/0/0/0/0/0.0002/0.0/0/0/0 \
             combines=32 draws=5120 jsonl=99de177afc339472",
        ],
        "chaos_torus2x4_d65536",
    );
    assert_eq!(
        residuals,
        [
            0x6d2f26f326106ac6,
            0x4dfb21e95ad652df,
            0xdeac8ad211a7fbfd,
            0x6adae6e67ea89c09,
            0xdf7454c167331232,
            0x009bbbfc2466c671,
            0x6ed559218421e626,
            0xf893cd442477715e,
        ],
        "chaos_torus2x4_d65536: compensation"
    );
}
