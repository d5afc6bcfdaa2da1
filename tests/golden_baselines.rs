//! Golden-value pins for the baselines' schedules: the `f32` sums, growing
//! integer sign-sums and majority votes PSGD, signSGD, EF-signSGD, SSDM and
//! the K-periodic full-precision round ride.
//!
//! These fingerprints were recorded on the commit where every one of those
//! schedules was still a hand-rolled loop beside the one-bit enumerators
//! (`12bb5d8`). They pin what must not move when the loops go: every worker's
//! result bit for bit (inputs carry ±0 and subnormals, so a reassociated or
//! re-seeded sum shows), every byte list of the trace in order, and — under
//! drops — the injector's statistics and where its RNG was left.
//!
//! The torus integer schedules are pinned on their results and their
//! *reduce-phase* byte lists only: on that commit they traced `rows − 1`
//! gather steps no schedule sends, which is a bug, not a contract.

use marsit::collectives::ring::{
    ring_allreduce_majority, ring_allreduce_signsum, ring_allreduce_signsum_parts,
    ring_allreduce_sum, SumWire,
};
use marsit::collectives::segring::segring_allreduce_sum;
use marsit::collectives::torus::{
    torus_allreduce_majority, torus_allreduce_signsum, torus_allreduce_sum,
};
use marsit::collectives::tree::{tree_allreduce_signsum, tree_allreduce_sum};
use marsit::collectives::{allreduce_sum, PlanTopology, Trace};
use marsit::compress::SignSumVec;
use marsit::prelude::*;
use marsit::simnet::FaultInjector;

const DIMS: [usize; 5] = [1, 63, 64, 257, 1031];
const WIRES: [SumWire; 2] = [SumWire::Elias, SumWire::FixedWidth];

/// FNV-1a over a stream of integers, eight little-endian bytes each.
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

    /// The first `steps` byte lists of `trace`, each with its length.
    fn put_steps(&mut self, trace: &Trace, steps: usize) {
        self.put(steps as u64);
        for step in &trace.steps()[..steps] {
            self.put(step.len() as u64);
            for &bytes in step {
                self.put(bytes as u64);
            }
        }
    }

    fn put_trace(&mut self, trace: &Trace) {
        self.put_steps(trace, trace.num_steps());
    }

    fn put_sums(&mut self, total: &SignSumVec) {
        self.put(u64::from(total.count()));
        for &s in total.sums() {
            self.put(i64::from(s) as u64);
        }
    }

    fn put_signs(&mut self, vote: &SignVec) {
        self.put(vote.len() as u64);
        for &word in vote.as_words() {
            self.put(word);
        }
    }
}

/// Seeded per-worker payloads. By coordinate (so a column of the sum sees the
/// same kind at every worker): `+0`, `−0` everywhere (stays `−0` only under
/// `dst += src`), `±0` by worker parity, subnormals, values whose sum lands
/// in the subnormal range, and ordinary values.
fn payloads(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
    (0..m)
        .map(|w| {
            let mut rng = FastRng::new(seed, w as u64);
            (0..d)
                .map(|x| {
                    let v = (rng.next_f64() as f32) - 0.5;
                    let bits = rng.next_u64() as u32;
                    match x % 13 {
                        3 => 0.0,
                        5 => -0.0,
                        9 if w % 2 == 0 => 0.0,
                        9 => -0.0,
                        7 => f32::from_bits(bits & 0x807f_ffff),
                        11 => v * 1e-38,
                        _ => v,
                    }
                })
                .collect()
        })
        .collect()
}

fn signs(m: usize, d: usize, seed: u64) -> Vec<SignVec> {
    let mut rng = FastRng::new(seed, 0x51);
    (0..m)
        .map(|_| SignVec::bernoulli_uniform(d, 0.5, &mut rng))
        .collect()
}

/// 25 % drops with a single retry: about one best-effort transfer in sixteen
/// is omitted for good.
fn lossy(d: usize) -> FaultInjector {
    FaultPlan::seeded(0x5eed)
        .with_link_drop(0.25)
        .with_retry_policy(1, 1e-4)
        .injector(d as u64)
}

/// One fingerprint per `d` in `DIMS`.
type Prints = [u64; DIMS.len()];

/// Checks every row's fingerprints and reports all the rows that moved at
/// once, as they would have to be written down.
fn assert_rows(rows: Vec<(String, Prints, Prints)>) {
    let moved: Vec<String> = rows
        .iter()
        .filter(|(_, got, want)| got != want)
        .map(|(label, got, _)| format!("{label}: {:#018x?}", got))
        .collect();
    assert!(
        moved.is_empty(),
        "fingerprints over d = {DIMS:?} moved:\n{}",
        moved.join("\n")
    );
}

/// Every worker's result and the whole trace of an `f32` sum.
fn sum_prints(m: usize, run: &dyn Fn(&mut [Vec<f32>]) -> Trace) -> Prints {
    DIMS.map(|d| {
        let mut data = payloads(m, d, 0xba5e + d as u64);
        let trace = run(&mut data);
        let mut h = Fnv::new();
        for worker in &data {
            for x in worker {
                h.put(u64::from(x.to_bits()));
            }
        }
        h.put_trace(&trace);
        h.0
    })
}

#[test]
fn golden_f32_sums() {
    type Run<'a> = &'a dyn Fn(&mut [Vec<f32>]) -> Trace;
    let ring: Run<'_> = &|data| ring_allreduce_sum(data);
    let tree: Run<'_> = &|data| tree_allreduce_sum(data);
    let rows: [(&str, usize, Run<'_>, Prints); 13] = [
        ("ring(2)", 2, ring, RING_SUM[0]),
        ("ring(3)", 3, ring, RING_SUM[1]),
        ("ring(7)", 7, ring, RING_SUM[2]),
        ("ring(8)", 8, ring, RING_SUM[3]),
        (
            "torus(2,2)",
            4,
            &|data| torus_allreduce_sum(data, 2, 2),
            TORUS_SUM[0],
        ),
        (
            "torus(2,4)",
            8,
            &|data| torus_allreduce_sum(data, 2, 4),
            TORUS_SUM[1],
        ),
        (
            "torus(3,3)",
            9,
            &|data| torus_allreduce_sum(data, 3, 3),
            TORUS_SUM[2],
        ),
        ("tree(2)", 2, tree, TREE_SUM[0]),
        ("tree(5)", 5, tree, TREE_SUM[1]),
        ("tree(6)", 6, tree, TREE_SUM[2]),
        ("tree(8)", 8, tree, TREE_SUM[3]),
        (
            "segring(4, S=1)",
            4,
            &|data| segring_allreduce_sum(data, 1),
            SEGRING_SUM[0],
        ),
        (
            "segring(4, S=3)",
            4,
            &|data| segring_allreduce_sum(data, 3),
            SEGRING_SUM[1],
        ),
    ];
    assert_rows(
        rows.into_iter()
            .map(|(label, m, run, want)| (label.to_owned(), sum_prints(m, run), want))
            .collect(),
    );
}

#[test]
fn golden_f32_ring_under_drops() {
    let mut dropped = 0;
    let rows = [2usize, 3, 7, 8]
        .into_iter()
        .zip(RING_SUM_LOSSY)
        .map(|(m, want)| {
            let got = DIMS.map(|d| {
                let mut data = payloads(m, d, 0x10557 + d as u64);
                let mut inj = lossy(d);
                let trace =
                    allreduce_sum(PlanTopology::Ring, &mut data, &mut inj).expect("valid inputs");
                let mut h = Fnv::new();
                for worker in &data {
                    assert_eq!(worker, &data[0], "ring({m}) d={d}: gather is reliable");
                    for x in worker {
                        h.put(u64::from(x.to_bits()));
                    }
                }
                h.put_trace(&trace);
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
                dropped += dropped_transfers;
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
                // Where the collective left the injector's RNG: its next
                // sixteen fates.
                for _ in 0..16 {
                    let fate = inj.transfer();
                    h.put(u64::from(fate.attempts) << 1 | u64::from(fate.delivered));
                }
                h.0
            });
            (format!("ring({m}) lossy"), got, want)
        })
        .collect();
    assert_rows(rows);
    assert!(dropped > 0, "the lossy rings never omitted a transfer");
}

type SignSum<'a> = &'a dyn Fn(&[SignVec], SumWire) -> (SignSumVec, Trace);
type Majority<'a> = &'a dyn Fn(&[SignVec], SumWire) -> (SignVec, Trace);

/// Sign-sum and majority vote of one schedule under one encoding: sums,
/// count and vote words, and the first `steps(trace)` byte lists of each.
fn integer_prints(
    m: usize,
    wire: SumWire,
    signsum: SignSum<'_>,
    majority: Option<Majority<'_>>,
    steps: &dyn Fn(&Trace) -> usize,
) -> Prints {
    DIMS.map(|d| {
        let signs = signs(m, d, 0x51f5 + d as u64);
        let mut h = Fnv::new();
        let (total, trace) = signsum(&signs, wire);
        h.put_sums(&total);
        h.put_steps(&trace, steps(&trace));
        if let Some(majority) = majority {
            let (vote, trace) = majority(&signs, wire);
            assert_eq!(vote, total.majority_sign(), "d={d}: vote is the sums' sign");
            h.put_signs(&vote);
            h.put_steps(&trace, steps(&trace));
        }
        h.0
    })
}

#[test]
fn golden_integer_ring_and_tree() {
    let mut rows = Vec::new();
    for (m, want) in [2usize, 3, 7, 8].into_iter().zip(RING_INTEGER) {
        for (wire, want) in WIRES.into_iter().zip(want) {
            let got = integer_prints(
                m,
                wire,
                &|s, w| ring_allreduce_signsum(s, w),
                Some(&|s, w| ring_allreduce_majority(s, w)),
                &Trace::num_steps,
            );
            rows.push((format!("ring({m}) {wire:?}"), got, want));
        }
    }
    for (m, want) in [2usize, 5, 6, 8].into_iter().zip(TREE_SIGNSUM) {
        let got = integer_prints(
            m,
            SumWire::Elias,
            &|s, _| tree_allreduce_signsum(s),
            None,
            &Trace::num_steps,
        );
        rows.push((format!("tree({m}) Elias"), got, want));
    }
    // Partial sums as inputs: three ring workers that already aggregate
    // 2, 1 and 3 workers each (what a torus column feeds its vertical ring).
    for (wire, want) in WIRES.into_iter().zip(RING_PARTS) {
        let got = DIMS.map(|d| {
            let signs = signs(6, d, 0x9a27 + d as u64);
            let mut parts = Vec::new();
            let mut next = signs.iter();
            for count in [2, 1, 3] {
                let mut part = SignSumVec::from_signs(next.next().expect("six inputs"));
                for _ in 1..count {
                    part.add_signs(next.next().expect("six inputs"));
                }
                parts.push(part);
            }
            let (total, trace) = ring_allreduce_signsum_parts(&parts, wire);
            let mut h = Fnv::new();
            h.put_sums(&total);
            h.put_trace(&trace);
            h.0
        });
        rows.push((format!("ring(3) parts {wire:?}"), got, want));
    }
    assert_rows(rows);
}

#[test]
fn golden_integer_torus_reduce_phases() {
    let mut rows = Vec::new();
    for ((r, c), want) in [(2usize, 2usize), (2, 4), (3, 3)]
        .into_iter()
        .zip(TORUS_INTEGER)
    {
        for (wire, want) in WIRES.into_iter().zip(want) {
            let got = integer_prints(
                r * c,
                wire,
                &|s, w| torus_allreduce_signsum(s, r, c, w),
                Some(&|s, w| torus_allreduce_majority(s, r, c, w)),
                &|_| (c - 1) + (r - 1),
            );
            rows.push((format!("torus({r},{c}) {wire:?}"), got, want));
        }
    }
    assert_rows(rows);
}

const RING_SUM: [Prints; 4] = [
    [
        0x80a1e57fb8f94b07,
        0x123497c6b0e6c4ab,
        0xc2328002c79daf53,
        0x356a921c19222cb7,
        0x1da29fddb0ea865b,
    ],
    [
        0xb44d80fbe0c9cd24,
        0x5ad50ab87152600b,
        0x928de5b83641a192,
        0xc63bfe532663b407,
        0x256d58923b987685,
    ],
    [
        0xa284c787ad8e77cc,
        0xd3da8d4aa4f9328a,
        0xd83f5351ffc76132,
        0x42f65f270963de45,
        0xe657ed2504eca007,
    ],
    [
        0xf9279b446f6c70cb,
        0x88187e789552dc5b,
        0x166017c312823bab,
        0xfb0c0330400e613b,
        0xc6512645d383011b,
    ],
];
const TORUS_SUM: [Prints; 3] = [
    [
        0xb87e4253ff7346f1,
        0x6f480dbc9a7fcda9,
        0x17236144ed5304b1,
        0x086ebdf137bb4141,
        0xd2b261d8431fc819,
    ],
    [
        0xd1889bc00a1903fd,
        0xa3f9d6c1eff1598d,
        0x2ddf74bfd3fdbd6d,
        0xebcb479311eceecd,
        0x59fc7158bc47b91d,
    ],
    [
        0x4daef29b04703aeb,
        0x631de326ee25dac1,
        0x7cc306145117862d,
        0xdd977042628a10ac,
        0xb45e84c8b7da2eef,
    ],
];
const TREE_SUM: [Prints; 4] = [
    [
        0xfc84c7c91b2256c7,
        0x37e9ee6b2f2cdf2b,
        0xf1f89b825dbf1c07,
        0x99f1f436d55a886f,
        0x7a87103a5605a36b,
    ],
    [
        0xf8cc58e6d434fd02,
        0xda283c8859a314e5,
        0x3409661008d63cde,
        0xd76fab6f489f3eb7,
        0x51e1dc45d488d6a3,
    ],
    [
        0xa3bb616f51f30f23,
        0xf456269a9c392b83,
        0xdfb96bfeb26a2fef,
        0xf13e97cc9610c0bb,
        0x1b85bb22662ba723,
    ],
    [
        0xd4f68ab48ac32db3,
        0x4e1f664a63280ab3,
        0x070357fd3dd0d1bf,
        0xec62c7183d77cec3,
        0x741c3d3a719b9003,
    ],
];
const SEGRING_SUM: [Prints; 2] = [
    [
        0x347e556416032273,
        0xb1cdc26954860e0b,
        0x659d31b291793473,
        0xa3e78025d7b688b3,
        0x512c8745b8e20803,
    ],
    [
        0x347e556416032273,
        0x79949c9007d8b8b5,
        0x91ced7c0bda0806d,
        0xde95dbe8a37fab8d,
        0x882b6670dd2df90d,
    ],
];
const RING_SUM_LOSSY: [Prints; 4] = [
    [
        0xd7851ece7c06e6f1,
        0xe3c68c501b7074ba,
        0x1a42da7c3c299127,
        0x65b4d6dd350695fb,
        0x15cc131013e70948,
    ],
    [
        0xb8721abe08c48948,
        0x46e34ffd7b2bff0e,
        0x99ba95cd11df3d02,
        0x92b7625795af1185,
        0x0930fbf537631bf8,
    ],
    [
        0x5b8d709f6cf7e4b7,
        0xad25679a2539509c,
        0x7d8441cbd6f9e8ec,
        0x3c124d5f7aeb1740,
        0x859e968fc3a14bb9,
    ],
    [
        0x29305698f36998fc,
        0x2559bd76c4bfa220,
        0x4de165f3e67449c6,
        0x027569f7ae97e606,
        0xca9af10ce6d0d4c9,
    ],
];
const RING_INTEGER: [[Prints; 2]; 4] = [
    [
        [
            0xef368c7cc6bafdfe,
            0xe0b0528d364828bf,
            0x98b4c64c2b0f181b,
            0xeb910ef769f0a627,
            0x67aaaab4d8795c88,
        ],
        [
            0xef368c7cc6bafdfe,
            0x9a3b615a3a4048b3,
            0x56dac272fab65ddb,
            0xc3e9e71a37707929,
            0x82f829386c5f7c4b,
        ],
    ],
    [
        [
            0x2d7ab203a5f864bf,
            0x83ecfc63b301152c,
            0xe165286f46d10c71,
            0xe446b2493ebeef40,
            0xd3381127ecc6dcd7,
        ],
        [
            0x2d7ab203a5f864bf,
            0xba7b6d7f712f5ddc,
            0x35836918e434c6bd,
            0xf48a574b237925b0,
            0x42375e47f00b7f0f,
        ],
    ],
    [
        [
            0x62a2b0c0491dc679,
            0x8c70c7054d1f34c0,
            0x1f29734d997f8633,
            0xc54fc602c16062b6,
            0xbaffe52eb04e9f16,
        ],
        [
            0x62a2b0c0491dc679,
            0x079ab48c2e030974,
            0x248107a5e6d9ca97,
            0xe52d33d2242be8a6,
            0xefe2001d4ca48f8a,
        ],
    ],
    [
        [
            0x49c7629f4566f486,
            0xe652f6ba31d0c79e,
            0x5644ebd4e507e4fe,
            0xeabd85cab4fac66c,
            0xb2b26a6b6fd0c5bd,
        ],
        [
            0x49c7629f4566f486,
            0x03f7bda881f73f5e,
            0xd6ab738a01a8392b,
            0x8a3eee07af6330d1,
            0x9c0c07c30e7d286c,
        ],
    ],
];
const TREE_SIGNSUM: [Prints; 4] = [
    [
        0xfca961e67c4decfc,
        0xb8ec3421fb205c9f,
        0x6f81e63822c4f140,
        0xc6c18cfea88faf38,
        0x0b274885c55ad95a,
    ],
    [
        0xcb019c9a39f301dc,
        0x8fbf15e1466b9c76,
        0xa29da2fbfcb28b02,
        0xd5eb54b85d634c71,
        0x3999ad2142da6866,
    ],
    [
        0x04d8b120b71857be,
        0x4ba7d57e170e1aeb,
        0x0c302d8793ae1eeb,
        0xf21fbe731fb496b7,
        0xf390cbf2f57b3722,
    ],
    [
        0x0e122fe6ac4e3340,
        0xaa5a73c00efb163a,
        0x16eb7864dcccb15f,
        0xff7f3d874276babe,
        0x0dadb03765457fea,
    ],
];
const RING_PARTS: [Prints; 2] = [
    [
        0x68d5447a2d9ee023,
        0x0747da9fec120005,
        0xdf4664e3a985abfd,
        0x1ed146b86ed9dea4,
        0x33db30a52292e278,
    ],
    [
        0x68d5447a2d9ee023,
        0xdee9dfddc9037027,
        0x22212074d3eaf177,
        0x62ed09b17005a5aa,
        0x9918967619e4a529,
    ],
];
const TORUS_INTEGER: [[Prints; 2]; 3] = [
    [
        [
            0x7c4b39b23f54daf9,
            0x6fcc8fefc7bba07f,
            0xd00e96c58ea45aa5,
            0x8fa741f3869ad536,
            0xacfca7a785577ba7,
        ],
        [
            0x7c4b39b23f54daf9,
            0xe39ef0594e958cb3,
            0x2f63ffe6c6452cc5,
            0x41913cbca3d0272e,
            0x2aadd39cce73c623,
        ],
    ],
    [
        [
            0xea93ea024bfd4607,
            0xa01f259b0936d06a,
            0x78b4b9ab5bbd4453,
            0x53d447f5f18e6681,
            0xb5f9ff2e6592bd00,
        ],
        [
            0xea93ea024bfd4607,
            0x23b9943cd99a3a3e,
            0x9dc594a876309db7,
            0x597fbdd4727a75ed,
            0x3b2495960f2692cc,
        ],
    ],
    [
        [
            0xc16da4f9e6a37501,
            0x690945ba8b36a07d,
            0x72e2c472627d13f4,
            0x74d31ce86b1e38f7,
            0x9db48f3eea96983b,
        ],
        [
            0xc16da4f9e6a37501,
            0x5512a6c0fb177b6d,
            0xc1cf4bdb5d545674,
            0x1576de73d144ccb7,
            0xc3a9728086316eeb,
        ],
    ],
];
