//! Golden-value pins for `compile_plan`.
//!
//! A compiled plan is what the thread and TCP transports execute: every
//! transfer's engine step, endpoints, coordinate range, combine context and
//! fate, in injector-consumption order. These fingerprints were recorded on
//! the commit where `compile_plan` still spelled ring, torus, tree and
//! segmented ring by hand, next to the in-process walkers; they pin that a
//! plan recorded *from* a walk is field for field the plan that was written
//! out beside it, and that compiling consumes the injector exactly as before
//! (its statistics and its next draws).

use marsit::collectives::{compile_plan, PlanTopology};
use marsit::prelude::*;
use marsit::simnet::FaultInjector;

const DIMS: [usize; 4] = [1, 63, 64, 257];

/// FNV-1a over a stream of integers, eight little-endian bytes each.
#[derive(Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// 25 % drops with a single retry: about one best-effort transfer in
/// sixteen is omitted for good, so aggregation counts diverge from the clean
/// schedule's.
fn lossy(d: usize) -> FaultInjector {
    FaultPlan::seeded(0x601d)
        .with_link_drop(0.25)
        .with_retry_policy(1, 1e-4)
        .injector(d as u64)
}

/// Compiles `(topology, world, d)` clean or lossy; returns the fingerprint
/// of everything the compile produced or touched, and how many transfers
/// were omitted.
fn fingerprint(topology: PlanTopology, world: usize, d: usize, faulty: bool) -> (u64, usize) {
    let mut inj = faulty.then(|| lossy(d));
    let plan = compile_plan(topology, world, d, inj.as_mut()).expect("valid shape");
    assert_eq!((plan.world, plan.d), (world, d));
    let mut h = Fnv::new();
    h.put(plan.num_steps as u64);
    for t in &plan.transfers {
        for v in [t.step, t.sender, t.receiver, t.start, t.len] {
            h.put(v as u64);
        }
        match t.combine {
            None => h.put(u64::MAX),
            Some(c) => {
                for v in [
                    c.step,
                    c.receiver,
                    c.segment,
                    c.received_count,
                    c.local_count,
                ] {
                    h.put(v as u64);
                }
            }
        }
        h.put(u64::from(t.delivered));
    }
    if let Some(inj) = &mut inj {
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
        } = inj.take_stats();
        for v in [
            retransmits,
            dropped_transfers,
            corrupted_transfers,
            repairs,
            crashed_workers,
            forced_deliveries,
            rejoins,
            retry_extra_s.to_bits(),
            catchup_extra_s.to_bits(),
            stragglers_suspected,
            links_degraded,
            ranks_silent,
        ] {
            h.put(v);
        }
        // Where the compile left the injector's RNG: its next sixteen fates.
        for _ in 0..16 {
            let fate = inj.transfer();
            h.put(u64::from(fate.attempts) << 1 | u64::from(fate.delivered));
        }
    }
    let omitted = plan.transfers.iter().filter(|t| !t.delivered).count();
    (h.0, omitted)
}

/// A shape's eight fingerprints — `DIMS` × {clean, lossy}, clean first —
/// and how many transfers its lossy plans omitted.
fn shape(topology_at: impl Fn(usize) -> PlanTopology, world: usize) -> ([u64; 8], usize) {
    let mut got = [0u64; 8];
    let mut omitted = 0;
    for (i, &d) in DIMS.iter().enumerate() {
        for faulty in [false, true] {
            let (h, o) = fingerprint(topology_at(d), world, d, faulty);
            got[2 * i + usize::from(faulty)] = h;
            omitted += o;
            assert!(faulty || o == 0, "d={d}: a clean plan omitted a transfer");
        }
    }
    (got, omitted)
}

/// One row per shape: label, topology (as a function of `d`), world, and
/// the recorded fingerprints.
type Row<'a> = (&'a str, &'a dyn Fn(usize) -> PlanTopology, usize, [u64; 8]);

fn assert_shapes(rows: &[Row<'_>]) {
    let mut omitted = 0;
    for &(label, topology_at, world, want) in rows {
        let (got, o) = shape(topology_at, world);
        omitted += o;
        assert_eq!(
            got.map(|h| format!("{h:#018x}")),
            want.map(|h| format!("{h:#018x}")),
            "{label}: plan fingerprints over d = {DIMS:?} x (clean, lossy)"
        );
    }
    assert!(omitted > 0, "the lossy plans never omitted a transfer");
}

#[test]
fn golden_ring_plans() {
    let ring = |_| PlanTopology::Ring;
    assert_shapes(&[
        (
            "ring(2)",
            &ring,
            2,
            [
                0x4390_5dd2_1c20_e357,
                0x5893_a677_4fda_eef0,
                0x36a7_e162_0fe9_b3a7,
                0xb72c_2361_420f_f121,
                0xe4d8_39a2_0730_35d7,
                0x704a_bd66_e4f9_dd50,
                0xfc2f_d710_dd0b_0357,
                0xab3e_066e_baa8_b116,
            ],
        ),
        (
            "ring(3)",
            &ring,
            3,
            [
                0xd22b_ffd2_45df_5153,
                0x5e2e_3940_251b_7c3e,
                0x0b3f_567e_e560_4083,
                0x31ce_75cd_5ac7_2a0f,
                0x4ddc_808a_9dc8_c5c3,
                0x684c_1055_b0d2_863e,
                0xd4af_5254_e890_9e63,
                0x48b9_34a8_cee5_c9bc,
            ],
        ),
        (
            "ring(7)",
            &ring,
            7,
            [
                0xcfd1_5d85_b3cb_735f,
                0x39bb_e93b_0397_de5b,
                0xdd48_3bdd_a9ce_d53f,
                0x17a8_d4f2_d7e2_0df4,
                0xf8b7_bca6_cf1e_1dbf,
                0xdf44_0bb8_03e2_4de3,
                0x62a7_d0c6_8f8a_041f,
                0xeea6_8a54_f08a_04d2,
            ],
        ),
        (
            "ring(8)",
            &ring,
            8,
            [
                0x85de_b559_c80d_0f4b,
                0xbf41_cfa6_de0b_381d,
                0x78b0_e4fe_578c_0c1b,
                0x051d_62dd_45f8_5484,
                0x1eca_0df5_9ee0_e60b,
                0xbf33_5734_6e23_db53,
                0x2653_efb8_9ada_8e8b,
                0xeb35_206c_6cc3_5fc5,
            ],
        ),
    ]);
}

#[test]
fn golden_torus_plans() {
    assert_shapes(&[
        (
            "torus(2x2)",
            &|_| PlanTopology::Torus { rows: 2, cols: 2 },
            4,
            [
                0x1f30_24bc_ff49_4303,
                0x0c3f_069d_9124_d20d,
                0x31c1_ee46_5694_5773,
                0xd8e6_472d_d5df_d659,
                0x526d_6c85_f16c_ab03,
                0x069b_dd82_1560_392e,
                0xf845_9616_ff99_b803,
                0x566f_a836_b057_3a8f,
            ],
        ),
        (
            "torus(2x4)",
            &|_| PlanTopology::Torus { rows: 2, cols: 4 },
            8,
            [
                0x1aaf_6406_6c41_c62b,
                0xafc1_4b63_2733_50d3,
                0x5334_004b_6bc0_863b,
                0x6006_be51_2bdf_7776,
                0x5649_bf7a_70a7_844b,
                0xf126_6022_432f_ee7b,
                0x35d2_d950_4821_7d6b,
                0xdb3f_b0fd_f088_28d4,
            ],
        ),
        (
            "torus(3x3)",
            &|_| PlanTopology::Torus { rows: 3, cols: 3 },
            9,
            [
                0x3633_4753_ede6_e273,
                0x22c2_f934_d49d_502d,
                0x9a8b_0ef6_212d_d053,
                0x6888_2511_ccf8_2c4c,
                0x9370_cb81_a49f_bcf3,
                0x0381_13a1_0041_d672,
                0x6d73_44c3_2ea5_58e3,
                0xee06_060e_5ac1_571e,
            ],
        ),
    ]);
}

#[test]
fn golden_tree_plans() {
    let tree = |_| PlanTopology::Tree;
    assert_shapes(&[
        (
            "tree(2)",
            &tree,
            2,
            [
                0xd4d5_a27f_288e_003e,
                0x0e32_0d47_e4f6_e35f,
                0x4a22_412e_ceb1_e6be,
                0xdafe_f117_be96_0918,
                0xacf4_c3cc_fab0_4e5e,
                0x396b_c152_5af5_4d59,
                0x5926_9b9d_986c_581e,
                0xeb7b_0f69_859b_a45f,
            ],
        ),
        (
            "tree(5)",
            &tree,
            5,
            [
                0x5794_02b7_5889_6803,
                0x79d8_2b4a_ef76_1c8a,
                0x7996_4794_cadd_6fa3,
                0x2771_538c_79d3_1728,
                0xb0db_a08a_bcc5_1883,
                0xbfa5_2a40_380f_d8fd,
                0x8f13_3bc1_6aaa_bea3,
                0x7081_9b58_592e_5663,
            ],
        ),
        (
            "tree(6)",
            &tree,
            6,
            [
                0x9484_3d3f_cbce_ff39,
                0x21ad_d27e_1a62_183a,
                0x9f6d_f21f_ae1b_3959,
                0xa5ba_0f72_9ade_d391,
                0xb2d9_a9c8_e241_8b59,
                0xeec6_8a61_624d_e560,
                0x0eca_1c98_a771_3b3d,
                0x3509_f909_8fa5_d5f8,
            ],
        ),
        (
            "tree(8)",
            &tree,
            8,
            [
                0x3b6a_1a1a_ff6b_8d6c,
                0xcdc3_a789_13c9_29a5,
                0x0dae_9081_fabe_f59c,
                0x25d7_5338_c05b_2163,
                0xc315_dc5c_b4a3_95cc,
                0x1e66_7c8a_bbba_4e8b,
                0x699c_1ef6_ca56_8820,
                0x6aee_e191_ebe4_cdaf,
            ],
        ),
    ]);
}

/// Segmented ring over four workers with one macro-segment (a plain ring),
/// three, and more macro-segments than coordinates (`S = d + 2`; the empty
/// tail is skipped).
#[test]
fn golden_segring_plans() {
    let segring = |macro_segments| PlanTopology::SegRing { macro_segments };
    assert_shapes(&[
        (
            "segring(4, S=1)",
            &|_| segring(1),
            4,
            [
                0xe7ac_40f3_16d2_b1a3,
                0x62ab_84be_87d5_baf8,
                0x2003_db7e_ab1b_0353,
                0x7e38_dcc8_0e1f_4814,
                0xc488_638a_d132_1683,
                0x2af6_5158_f772_783b,
                0x826b_414b_d2ac_4fa3,
                0x8056_0eeb_4609_7a83,
            ],
        ),
        (
            "segring(4, S=3)",
            &|_| segring(3),
            4,
            [
                0xe7ac_40f3_16d2_b1a3,
                0x62ab_84be_87d5_baf8,
                0x40b5_cd97_a6c8_7e57,
                0xda97_9f1f_6fcc_739f,
                0x2a0a_2f69_7124_b337,
                0xa8a2_84ab_ec23_98a9,
                0xa8c3_bd33_a92f_6997,
                0xa236_152f_8fbf_8438,
            ],
        ),
        (
            "segring(4, S=d+2)",
            &|d| segring(d + 2),
            4,
            [
                0xe7ac_40f3_16d2_b1a3,
                0x62ab_84be_87d5_baf8,
                0x560d_2ef6_bc5b_6b8c,
                0x71dd_d68a_8865_6e0a,
                0xe71c_8714_ef29_596e,
                0xa01c_3f32_d4f9_c1f9,
                0x2173_14d6_7a11_7865,
                0x7107_810b_eb79_8de5,
            ],
        ),
    ]);
}

/// Impossible shapes keep the typed errors of the in-process collectives.
#[test]
fn impossible_shapes_are_typed_errors() {
    let compile = |topology, world| compile_plan(topology, world, 64, None).unwrap_err();
    for topology in [
        PlanTopology::Ring,
        PlanTopology::Tree,
        PlanTopology::SegRing { macro_segments: 0 },
    ] {
        assert_eq!(
            compile(topology, 1),
            SyncError::TooFewWorkers { needed: 2, got: 1 },
            "{topology:?}"
        );
    }
    assert_eq!(
        compile(PlanTopology::SegRing { macro_segments: 0 }, 4),
        SyncError::ZeroSegments
    );
    for (rows, cols, world) in [(1, 4, 4), (4, 1, 4), (2, 4, 7)] {
        assert_eq!(
            compile(PlanTopology::Torus { rows, cols }, world),
            SyncError::BadShape {
                rows,
                cols,
                workers: world
            }
        );
    }
}
