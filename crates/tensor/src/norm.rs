//! The one striped squared-norm kernel, for any number of vectors at once.
//!
//! Element `j` of a vector squares into f64 lane `j % 8`, the eight lanes
//! are summed left to right, and the vectors' norms are summed in order:
//! the frozen fold order of [`crate::stats::norm_l2_sq_striped`]. What is
//! squared is either the vector itself (the materialized residual `c`) or
//! `h − g`, with `g` the `±scale` expansion of shared sign words (the
//! deferred residual of [`crate::SignVec::residual_norm_sq_striped`]).
//!
//! A single vector's norm is one f64 add chain per lane group, so it runs
//! at the add latency, not at memory bandwidth. The kernel therefore walks
//! a group of vectors chunk by chunk with one accumulator chain per vector:
//! the chains are independent, one sign-row load serves every vector, and
//! per vector the lanes still add in ascending element order — so a group
//! of any size gives the bits of one vector at a time. The scalar, AVX2
//! and AVX-512 builds run the identical f32 subtract, widen, multiply and
//! separate add per lane (never fused), so CPU dispatch changes no bit
//! either.
//!
//! The lanes are state, not only temporaries: [`advance_striped_norms`]
//! continues them over one range of elements, so a vector cut at word
//! boundaries and walked range by range, in ascending order, folds to the
//! same bits — which lets the lane executor split the sweep by columns.

use crate::signvec::ScaledSignLut;

const WORD_BITS: usize = 64;

/// What the kernel subtracts before squaring: the sign words and expansion
/// table of a deferred residual, or `None` for vectors that are residuals
/// already.
pub(crate) type Signs<'a> = Option<(&'a [u64], &'a ScaledSignLut)>;

/// What a materialized vector "subtracts": `x − (+0.0)` is `x` bit for bit,
/// `−0.0` and subnormals included, so both forms share one loop.
const ZERO_ROW: [f32; 8] = [0.0; 8];

/// The eight values subtracted from group `k` of 64-element chunk `c`.
#[inline(always)]
fn row<'a>(signs: Signs<'a>, c: usize, k: usize) -> &'a [f32; 8] {
    match signs {
        Some((words, lut)) => lut.row((words[c] >> (8 * k)) as u8),
        None => &ZERO_ROW,
    }
}

/// Adds each vector's partial last chunk (chunk `full`, if any) into its
/// lanes after every full chunk: the scalar ending every build shares.
#[inline(always)]
fn finish<const G: usize>(
    lanes: &mut [[f64; 8]; G],
    hs: &[&[f32]; G],
    signs: Signs<'_>,
    full: usize,
) {
    for (acc, h) in lanes.iter_mut().zip(hs) {
        for (k, group) in h[full * WORD_BITS..].chunks(8).enumerate() {
            let row = row(signs, full, k);
            for (i, &x) in group.iter().enumerate() {
                let c = f64::from(x - row[i]);
                acc[i] += c * c;
            }
        }
    }
}

/// Portable build of one group: the reference the SIMD builds match.
#[inline(always)]
fn norms_scalar<const G: usize>(lanes: &mut [[f64; 8]; G], hs: &[&[f32]; G], signs: Signs<'_>) {
    let full = hs[0].len() / WORD_BITS;
    for c in 0..full {
        for k in 0..8 {
            let row = row(signs, c, k);
            let at = c * WORD_BITS + 8 * k;
            for (acc, h) in lanes.iter_mut().zip(hs) {
                for i in 0..8 {
                    let x = f64::from(h[at + i] - row[i]);
                    acc[i] += x * x;
                }
            }
        }
    }
    finish(lanes, hs, signs, full);
}

/// AVX2 build: a vector's eight lanes are two `__m256d` chains (lanes 0–3 /
/// 4–7); per 8-element group one f32 subtract, two widens, two multiplies,
/// two adds — the scalar sequence per lane.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime, and every slice of
/// `hs` must be as long as the first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn norms_avx2<const G: usize>(
    lanes: &mut [[f64; 8]; G],
    hs: &[&[f32]; G],
    signs: Signs<'_>,
) {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_castps256_ps128, _mm256_cvtps_pd, _mm256_extractf128_ps,
        _mm256_loadu_pd, _mm256_loadu_ps, _mm256_mul_pd, _mm256_storeu_pd, _mm256_sub_ps,
    };
    let full = hs[0].len() / WORD_BITS;
    // SAFETY: each lane array holds exactly 2 × 4 f64.
    let mut lo = lanes.map(|acc| unsafe { _mm256_loadu_pd(acc.as_ptr()) });
    // SAFETY: as above.
    let mut hi = lanes.map(|acc| unsafe { _mm256_loadu_pd(acc.as_ptr().add(4)) });
    for c in 0..full {
        for k in 0..8 {
            // SAFETY: a row is 8 floats.
            let row = unsafe { _mm256_loadu_ps(row(signs, c, k).as_ptr()) };
            let at = c * WORD_BITS + 8 * k;
            for g in 0..G {
                // SAFETY: `at + 8 <= full * 64`, and every slice is as long
                // as the first (the caller's contract).
                let h8 = unsafe { _mm256_loadu_ps(hs[g].as_ptr().add(at)) };
                let diff = _mm256_sub_ps(h8, row);
                let l = _mm256_cvtps_pd(_mm256_castps256_ps128(diff));
                let h = _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(diff));
                lo[g] = _mm256_add_pd(lo[g], _mm256_mul_pd(l, l));
                hi[g] = _mm256_add_pd(hi[g], _mm256_mul_pd(h, h));
            }
        }
    }
    for (acc, (l, h)) in lanes.iter_mut().zip(lo.iter().zip(&hi)) {
        // SAFETY: `acc` holds exactly 2 × 4 f64.
        unsafe {
            _mm256_storeu_pd(acc.as_mut_ptr(), *l);
            _mm256_storeu_pd(acc.as_mut_ptr().add(4), *h);
        }
    }
    finish(lanes, hs, signs, full);
}

/// AVX-512 build: a vector's eight lanes are one `__m512d` chain; per
/// 8-element group one f32 subtract, one widen, one multiply, one add.
///
/// # Safety
///
/// Caller must have verified AVX-512 F + DQ support at runtime, and every
/// slice of `hs` must be as long as the first.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn norms_avx512<const G: usize>(
    lanes: &mut [[f64; 8]; G],
    hs: &[&[f32]; G],
    signs: Signs<'_>,
) {
    use std::arch::x86_64::{
        _mm256_loadu_ps, _mm256_sub_ps, _mm512_add_pd, _mm512_cvtps_pd, _mm512_loadu_pd,
        _mm512_mul_pd, _mm512_storeu_pd,
    };
    let full = hs[0].len() / WORD_BITS;
    // SAFETY: each lane array holds exactly 8 f64.
    let mut acc = lanes.map(|lanes| unsafe { _mm512_loadu_pd(lanes.as_ptr()) });
    for c in 0..full {
        for k in 0..8 {
            // SAFETY: a row is 8 floats.
            let row = unsafe { _mm256_loadu_ps(row(signs, c, k).as_ptr()) };
            let at = c * WORD_BITS + 8 * k;
            for g in 0..G {
                // SAFETY: `at + 8 <= full * 64`, and every slice is as long
                // as the first (the caller's contract).
                let h8 = unsafe { _mm256_loadu_ps(hs[g].as_ptr().add(at)) };
                let wide = _mm512_cvtps_pd(_mm256_sub_ps(h8, row));
                acc[g] = _mm512_add_pd(acc[g], _mm512_mul_pd(wide, wide));
            }
        }
    }
    for (out, a) in lanes.iter_mut().zip(&acc) {
        // SAFETY: `out` holds exactly 8 f64.
        unsafe { _mm512_storeu_pd(out.as_mut_ptr(), *a) };
    }
    finish(lanes, hs, signs, full);
}

/// A build of the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Build {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Avx2,
    #[cfg(target_arch = "x86_64")]
    Avx512,
}

#[cfg(target_arch = "x86_64")]
fn has_avx512() -> bool {
    is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
}

impl Build {
    /// The widest build this CPU runs.
    pub(crate) fn detect() -> Self {
        #[cfg(target_arch = "x86_64")]
        {
            if has_avx512() {
                return Build::Avx512;
            }
            if is_x86_feature_detected!("avx2") {
                return Build::Avx2;
            }
        }
        Build::Scalar
    }

    /// Most vectors one pass carries: a `zmm` chain each on AVX-512 (8 of
    /// its 32 registers), two `ymm` chains each on AVX2 (8 of 16).
    fn group_cap(self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => 8,
            _ => 4,
        }
    }

    /// Continues the lanes of one group of equally long vectors over them.
    fn advance_group<const G: usize>(
        self,
        lanes: &mut [[f64; 8]; G],
        hs: &[&[f32]; G],
        signs: Signs<'_>,
    ) {
        // The SIMD builds read every vector as far as the first one reaches.
        assert!(
            hs.iter().all(|h| h.len() == hs[0].len()),
            "striped norm: vector lengths differ"
        );
        match self {
            Build::Scalar => norms_scalar(lanes, hs, signs),
            #[cfg(target_arch = "x86_64")]
            Build::Avx2 => {
                assert!(is_x86_feature_detected!("avx2"), "AVX2 build without AVX2");
                // SAFETY: feature presence and lengths checked above.
                unsafe { norms_avx2(lanes, hs, signs) }
            }
            #[cfg(target_arch = "x86_64")]
            Build::Avx512 => {
                assert!(has_avx512(), "AVX-512 build without AVX-512 F + DQ");
                // SAFETY: as above.
                unsafe { norms_avx512(lanes, hs, signs) }
            }
        }
    }

    /// Continues `lanes[w]` over `hs[w]` for every vector, in groups of 8,
    /// 4, 2 and 1 vectors, each one pass over the sign words.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length, `lanes` and `hs` differ in
    /// count, or `signs` holds fewer words than the vectors need.
    pub(crate) fn advance<V: AsRef<[f32]>>(
        self,
        lanes: &mut [[f64; 8]],
        hs: &[V],
        signs: Signs<'_>,
    ) {
        assert_eq!(
            lanes.len(),
            hs.len(),
            "striped norm: one lane set per vector"
        );
        let n = hs.first().map_or(0, |h| h.as_ref().len());
        assert!(
            hs.iter().all(|h| h.as_ref().len() == n),
            "striped norm: vector lengths differ"
        );
        if let Some((words, _)) = signs {
            assert!(
                words.len() >= n.div_ceil(WORD_BITS),
                "striped norm: too few sign words"
            );
        }
        let cap = self.group_cap();
        let mut at = 0;
        while at < hs.len() {
            at += match (hs.len() - at).min(cap) {
                8.. => self.advance_at::<8, V>(&mut lanes[at..], &hs[at..], signs),
                4..=7 => self.advance_at::<4, V>(&mut lanes[at..], &hs[at..], signs),
                2 | 3 => self.advance_at::<2, V>(&mut lanes[at..], &hs[at..], signs),
                _ => self.advance_at::<1, V>(&mut lanes[at..], &hs[at..], signs),
            };
        }
    }

    /// Continues the lanes of `hs[..G]`; returns `G`.
    fn advance_at<const G: usize, V: AsRef<[f32]>>(
        self,
        lanes: &mut [[f64; 8]],
        hs: &[V],
        signs: Signs<'_>,
    ) -> usize {
        let group: [&[f32]; G] = std::array::from_fn(|i| hs[i].as_ref());
        let mut acc: [[f64; 8]; G] = std::array::from_fn(|i| lanes[i]);
        self.advance_group(&mut acc, &group, signs);
        lanes[..G].copy_from_slice(&acc);
        G
    }

    /// `Σ_w ‖hs[w] − g‖²` (or `‖hs[w]‖²` with `signs == None`), each norm
    /// striped, summed in the order of `hs`.
    ///
    /// # Panics
    ///
    /// As [`Build::advance`].
    pub(crate) fn sum<V: AsRef<[f32]>>(self, hs: &[V], signs: Signs<'_>) -> f64 {
        // Start where `Iterator::sum` starts, so the result has its bits for
        // any input, an empty one included.
        let mut total = -0.0;
        for group in hs.chunks(8) {
            let mut lanes = [[0.0f64; 8]; 8];
            let lanes = &mut lanes[..group.len()];
            self.advance(lanes, group, signs);
            for acc in &*lanes {
                total += fold_striped_norm(acc);
            }
        }
        total
    }
}

/// The eight striped-norm lanes of one vector: lane `i` holds the sum of
/// the squares of the elements `j ≡ i (mod 8)` seen so far, in ascending
/// order. They carry a vector's norm from one element range to the next.
pub type NormLanes = [f64; 8];

/// Continues each vector's striped squared norm over one range of its
/// elements: `lanes[w]` has seen every element of vector `w` before `start`
/// and `hs[w]` is its elements `start..start + n`. With `signs`, what is
/// squared is the deferred residual `h − g`, `g` the `±scale` expansion of
/// the sign vector's bits at the same positions.
///
/// Ranges walked in ascending order and then folded by
/// [`fold_striped_norm`] give the bits of the one-pass norm
/// ([`crate::stats::sum_norms_l2_sq_striped`],
/// [`crate::SignVec::sum_residual_norms_sq_striped`]), however the vector
/// is cut, as long as every range but a vector's last covers whole 64-value
/// chunks.
///
/// # Panics
///
/// Panics if `start` is not a multiple of 64, the vectors differ in length,
/// `lanes` and `hs` differ in count, or the range runs past the sign
/// vector.
pub fn advance_striped_norms<V: AsRef<[f32]>>(
    lanes: &mut [NormLanes],
    hs: &[V],
    start: usize,
    signs: Option<(&crate::SignVec, &ScaledSignLut)>,
) {
    assert_eq!(
        start % WORD_BITS,
        0,
        "norm range must start at a word boundary"
    );
    let n = hs.first().map_or(0, |h| h.as_ref().len());
    let signs = signs.map(|(v, lut)| {
        assert!(start + n <= v.len(), "norm range runs past the sign vector");
        (&v.as_words()[start / WORD_BITS..], lut)
    });
    Build::detect().advance(lanes, hs, signs);
}

/// A vector's striped squared norm from lanes that have seen all of it:
/// the eight lanes summed left to right.
#[must_use]
pub fn fold_striped_norm(lanes: &NormLanes) -> f64 {
    lanes.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::FastRng;
    use crate::SignVec;

    /// Every build this CPU can run.
    fn builds() -> Vec<Build> {
        let mut builds = vec![Build::Scalar];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                builds.push(Build::Avx2);
            }
            if has_avx512() {
                builds.push(Build::Avx512);
            }
        }
        builds
    }

    const SPECIALS: [u32; 6] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x0040_0000, // a mid subnormal
        0x0080_0000, // smallest normal
    ];

    /// `m` vectors of `d` values in `[-0.5, 0.5)`, every third element of
    /// each a special value, rotated through every lane position and vector.
    fn vectors(m: usize, d: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = FastRng::new(seed, (m * 10_000 + d) as u64);
        (0..m)
            .map(|w| {
                (0..d)
                    .map(|j| {
                        if (j + w) % 3 == 0 {
                            f32::from_bits(SPECIALS[(j / 3 + w) % SPECIALS.len()])
                        } else {
                            rng.next_f64() as f32 - 0.5
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// The contract one vector at a time: materialize `g`, square each
    /// difference (or the value itself) into lane `j % 8`, fold the lanes,
    /// then sum the vectors' norms with `Iterator::sum`.
    fn reference(hs: &[Vec<f32>], g: Option<&[f32]>) -> f64 {
        hs.iter()
            .map(|h| {
                let mut lanes = [0.0f64; 8];
                for (j, &x) in h.iter().enumerate() {
                    let c = f64::from(g.map_or(x, |g| x - g[j]));
                    lanes[j % 8] += c * c;
                }
                lanes.iter().sum::<f64>()
            })
            .sum()
    }

    /// Every build, in the deferred and the materialized form, equals the
    /// summed one-vector reference bit for bit, for every group remainder
    /// (0–9 vectors) and every awkward length; so do the public entries.
    #[test]
    fn striped_norm_builds_match_summed_reference() {
        let scale = 0.0123f32;
        let lut = ScaledSignLut::new(scale);
        for d in [1, 63, 64, 65, 257, 8_209] {
            let mut rng = FastRng::new(7, d as u64);
            let consensus = SignVec::bernoulli_uniform(d, 0.5, &mut rng);
            let mut g = vec![0.0f32; d];
            consensus.write_scaled_signs(scale, &mut g);
            for m in 0..=9 {
                let hs = vectors(m, d, 404);
                let want_deferred = reference(&hs, Some(&g));
                let want_materialized = reference(&hs, None);
                for build in builds() {
                    let label = format!("{build:?} d={d} m={m}");
                    let deferred = build.sum(&hs, Some((consensus.as_words(), &lut)));
                    assert_eq!(
                        deferred.to_bits(),
                        want_deferred.to_bits(),
                        "{label}: deferred"
                    );
                    let materialized = build.sum(&hs, None);
                    assert_eq!(
                        materialized.to_bits(),
                        want_materialized.to_bits(),
                        "{label}: materialized"
                    );
                }
                let public = consensus.sum_residual_norms_sq_striped(&hs, &lut);
                assert_eq!(public.to_bits(), want_deferred.to_bits(), "d={d} m={m}");
                let public = crate::stats::sum_norms_l2_sq_striped(&hs);
                assert_eq!(public.to_bits(), want_materialized.to_bits(), "d={d} m={m}");
            }
            let h = &vectors(1, d, 405)[0];
            assert_eq!(
                consensus.residual_norm_sq_striped(h, &lut).to_bits(),
                reference(std::slice::from_ref(h), Some(&g)).to_bits()
            );
            assert_eq!(
                crate::stats::norm_l2_sq_striped(h).to_bits(),
                reference(std::slice::from_ref(h), None).to_bits()
            );
        }
    }

    /// Lanes carried across any cut of the vectors at word boundaries, in
    /// ascending order, fold to the one-pass bits, deferred and
    /// materialized: what lets the norm sweep be cut into lanes.
    #[test]
    fn striped_norm_lanes_carried_across_cuts_match_one_pass() {
        let lut = ScaledSignLut::new(0.0123);
        for (d, cuts) in [
            (1, vec![]),
            (63, vec![]),
            (130, vec![64]),
            (8_209, vec![64, 4_096, 8_192]),
            (8_209, vec![8_192]),
        ] {
            let mut rng = FastRng::new(8, d as u64);
            let consensus = SignVec::bernoulli_uniform(d, 0.5, &mut rng);
            for m in [1, 3, 8, 9] {
                let hs = vectors(m, d, 406);
                for signs in [Some((&consensus, &lut)), None] {
                    let mut lanes = vec![[0.0f64; 8]; m];
                    let bounds: Vec<usize> = std::iter::once(0)
                        .chain(cuts.iter().copied())
                        .chain(std::iter::once(d))
                        .collect();
                    for range in bounds.windows(2) {
                        let part: Vec<&[f32]> = hs.iter().map(|h| &h[range[0]..range[1]]).collect();
                        advance_striped_norms(&mut lanes, &part, range[0], signs);
                    }
                    let total = lanes.iter().fold(-0.0, |t, l| t + fold_striped_norm(l));
                    let want = match signs {
                        Some((v, lut)) => v.sum_residual_norms_sq_striped(&hs, lut),
                        None => crate::stats::sum_norms_l2_sq_striped(&hs),
                    };
                    assert_eq!(
                        total.to_bits(),
                        want.to_bits(),
                        "d={d} cuts={cuts:?} m={m} deferred={}",
                        signs.is_some()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "lengths differ")]
    fn striped_norm_rejects_ragged_groups() {
        let _ = Build::detect().sum(&[vec![1.0f32; 3], vec![1.0; 4]], None);
    }
}
