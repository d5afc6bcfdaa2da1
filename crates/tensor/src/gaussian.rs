//! The Box–Muller Gaussian sampler behind [`FastRng::fill_gaussian`].
//!
//! # The contract
//!
//! The bits are those of the libm Box–Muller loop this module replaced
//! (DESIGN §13), kept verbatim as [`FastRng::fill_gaussian_reference`]: per
//! pair of outputs, `u1 = next_f64().max(1e-300)` then `u2 = next_f64()`,
//! `r = sqrt(−2·ln u1)`, `θ = 2π·u2`, and the pair is
//! `((r·cos θ) as f32 · std, (r·sin θ) as f32 · std)`. An odd `n` drops the
//! sine half of the last pair but still draws both words, so the draw count
//! is `2·⌈n/2⌉` and `n = 0` draws nothing.
//!
//! # How the fast path stays exact
//!
//! [`FastRng::fill_gaussian`] evaluates `ln`, `sqrt` and `sincos` as
//! branch-free `f64` polynomials over blocks of [`BLOCK`] pairs, so the loop
//! vectorizes; it then rounds each lane to `f32` through a guard. Write `y`
//! for the exact `r·cos θ` (or `r·sin θ`) of the `f64` inputs, `x_P` for the
//! polynomial's `f64` value and `x_L` for libm's. Assume both are within a
//! relative `ε` of `y`. Then
//!
//! `|x_L − x_P| ≤ 2ε·|y| ≤ 2ε/(1 − ε)·|x_P|`.
//!
//! The guard computes `a = x_P·(1 − δ)` and `b = x_P·(1 + δ)` in `f64` (each
//! product rounded once, so the interval between them still covers
//! `x_P·(1 ± (δ − 2⁻⁵²))`) and accepts the lane only when `a` and `b` round to
//! the same `f32`. Rounding to nearest is monotone, so every real between `a`
//! and `b` rounds to that `f32` too. Whenever `2ε/(1 − ε) ≤ δ − 2⁻⁵²`, `x_L`
//! is such a real, and the accepted `f32` is exactly `x_L as f32`, bit for
//! bit — whatever the polynomial's exact `f64` value. A pair with a rejected
//! lane is recomputed with the libm expression itself.
//!
//! With [`DELTA`] `= 2⁻⁴⁰` the condition holds for any `ε ≤ 2⁻⁴¹`. That is
//! the single accuracy assumption on libm: its `ln`, `sin` and `cos` on these
//! arguments (`u1 ∈ [1e−300, 1)`, `θ ∈ [0, 2π)`) are each within a few ulp,
//! so that the composed `x_L` is within `2⁻⁵¹` of `y` — 2¹⁰ times inside the
//! bound. The polynomial path is as accurate: its largest relative distance
//! from libm over 2·10⁶ values is `2⁻⁵⁰·⁵`, and
//! `polynomial_error_is_far_inside_the_guard` pins it below `2⁻⁴⁸`. The price
//! is the fallback rate: a lane fails when an `f32` rounding boundary lies
//! within `δ·|x|` of `x`, a chance of `2δ·|x| / ulp_f32(x) ∈ [2⁻¹⁶, 2⁻¹⁵]`
//! per value; `fill_gaussian_matches_libm_reference` measures 4.5·10⁻⁵ of
//! pairs (681 of 1.5·10⁷).
//!
//! # The polynomials
//!
//! - `ln u1`: `u1 = 2^k·z` with `z ∈ [√2/2, √2)` (exponent and mantissa split
//!   with integer operations only), then `ln z = 2·atanh(f/(2 + f))`,
//!   `f = z − 1`, by the fdlibm `__ieee754_log` rational form and the split
//!   `ln 2 = ln2_hi + ln2_lo`.
//! - `sincos θ`: `q = round(θ·2/π)` by the `1.5·2⁵²` shifter, a 3-part
//!   Cody–Waite reduction `y = θ − q·(P1 + P2 + P3)` (`q·P1` and `q·P2` exact,
//!   so `|y|` keeps its relative accuracy down to the double adjacent to
//!   `qπ/2`), the fdlibm `__kernel_sin` / `__kernel_cos` polynomials on
//!   `|y| ≤ π/4`, and a quadrant swap and sign flip selected by `q`.
//!
//! Every float operation is a separately rounded IEEE operation (no
//! `mul_add`), so the baseline, AVX2 and AVX-512 builds of [`fill_body`]
//! compute the same `f64` values; the guard would make their outputs agree
//! even if they did not.

use std::f64::consts::{FRAC_2_PI, TAU};

use crate::rng::FastRng;

/// Pairs per block: the draws of one block are made, then its lanes are
/// evaluated together, then written out (with any fallback pairs).
const BLOCK: usize = 64;

/// Relative half-width of the rounding guard (see the module docs).
const DELTA: f64 = 1.0 / (1u64 << 40) as f64;

impl FastRng {
    /// Fills `out` with i.i.d. normal values of standard deviation `std`.
    ///
    /// Bit-identical to [`FastRng::fill_gaussian_reference`] — the libm
    /// Box–Muller loop — in its outputs, its draw count (`2·⌈n/2⌉`) and the
    /// generator state it leaves. The fast path evaluates polynomials and
    /// rounds each value through a guard that hands any value near an `f32`
    /// rounding boundary back to libm; `gaussian.rs` derives why that is exact.
    ///
    /// # Examples
    ///
    /// ```
    /// use marsit_tensor::rng::FastRng;
    ///
    /// let mut fast = FastRng::new(3, 0);
    /// let mut libm = fast.clone();
    /// let (mut a, mut b) = ([0.0f32; 5], [0.0f32; 5]);
    /// fast.fill_gaussian(&mut a, 0.5);
    /// libm.fill_gaussian_reference(&mut b, 0.5);
    /// assert_eq!(a, b);
    /// assert_eq!((fast.draws(), fast), (6, libm));
    /// ```
    pub fn fill_gaussian(&mut self, out: &mut [f32], std: f32) {
        let mut draw = || self.next_f64();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: feature presence just checked.
                unsafe { fill_avx512(&mut draw, out, std) };
                return;
            }
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: feature presence just checked.
                unsafe { fill_avx2(&mut draw, out, std) };
                return;
            }
        }
        fill_body(&mut draw, out, std);
    }

    /// The libm Box–Muller loop that defines [`FastRng::fill_gaussian`]'s
    /// bits: its per-pair fallback and its differential reference.
    #[doc(hidden)]
    pub fn fill_gaussian_reference(&mut self, out: &mut [f32], std: f32) {
        for pair in out.chunks_mut(2) {
            let u1 = self.next_f64().max(1e-300);
            let u2 = self.next_f64();
            let (c, s) = box_muller_libm(u1, u2);
            pair[0] = c * std;
            if let Some(x) = pair.get_mut(1) {
                *x = s * std;
            }
        }
    }
}

/// One Box–Muller pair by libm, before the `std` scaling. Kept out of line:
/// the kernel calls it for about one pair in 20 000.
#[inline(never)]
fn box_muller_libm(u1: f64, u2: f64) -> (f32, f32) {
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    ((r * theta.cos()) as f32, (r * theta.sin()) as f32)
}

/// The kernel every build compiles: fills `out` from `draw` (which yields
/// the uniforms in stream order) and returns how many pairs fell back to
/// libm.
#[inline(always)]
fn fill_body<F: FnMut() -> f64 + ?Sized>(draw: &mut F, out: &mut [f32], std: f32) -> usize {
    let mut u1 = [0.5f64; BLOCK];
    let mut u2 = [0.0f64; BLOCK];
    let mut c = [0.0f32; BLOCK];
    let mut s = [0.0f32; BLOCK];
    let mut fail = [false; BLOCK];
    let mut fallbacks = 0;
    for chunk in out.chunks_mut(2 * BLOCK) {
        let pairs = chunk.len().div_ceil(2);
        for (a, b) in u1[..pairs].iter_mut().zip(&mut u2[..pairs]) {
            *a = draw().max(1e-300);
            *b = draw();
        }
        // Lanes past `pairs` hold stale draws; they are evaluated and ignored.
        if block(&u1, &u2, &mut c, &mut s, &mut fail) {
            for i in (0..pairs).filter(|&i| fail[i]) {
                (c[i], s[i]) = box_muller_libm(u1[i], u2[i]);
                fallbacks += 1;
            }
        }
        let mut values = chunk.chunks_exact_mut(2);
        for ((pair, &cv), &sv) in (&mut values).zip(&c).zip(&s) {
            pair[0] = cv * std;
            pair[1] = sv * std;
        }
        if let [last] = values.into_remainder() {
            *last = c[pairs - 1] * std;
        }
    }
    fallbacks
}

/// Evaluates every lane of one block: `c[i]` / `s[i]` get the guarded `f32`
/// of `r·cos θ` / `r·sin θ`, `fail[i]` whether either guard rejected it.
/// Returns whether any lane failed.
#[inline(always)]
fn block(
    u1: &[f64; BLOCK],
    u2: &[f64; BLOCK],
    c: &mut [f32; BLOCK],
    s: &mut [f32; BLOCK],
    fail: &mut [bool; BLOCK],
) -> bool {
    let mut any = false;
    for i in 0..BLOCK {
        let (x_cos, x_sin) = box_muller_poly(u1[i], u2[i]);
        let (cv, c_ok) = guarded(x_cos);
        let (sv, s_ok) = guarded(x_sin);
        c[i] = cv;
        s[i] = sv;
        fail[i] = !(c_ok & s_ok);
        any |= fail[i];
    }
    any
}

/// `x as f32`, and whether `x·(1 − δ)` and `x·(1 + δ)` round to it alike.
#[inline(always)]
fn guarded(x: f64) -> (f32, bool) {
    let a = (x * (1.0 - DELTA)) as f32;
    let b = (x * (1.0 + DELTA)) as f32;
    (a, a.to_bits() == b.to_bits())
}

/// `(r·cos θ, r·sin θ)` by polynomials, `r = sqrt(−2·ln u1)`, `θ = 2π·u2`.
#[inline(always)]
fn box_muller_poly(u1: f64, u2: f64) -> (f64, f64) {
    let r = (-2.0 * ln_poly(u1)).sqrt();
    let (sin, cos) = sincos_poly(TAU * u2);
    (r * cos, r * sin)
}

/// Position of the `f64` exponent field, and the mantissa below it.
const EXP_SHIFT: u32 = 52;
const MANT_MASK: u64 = (1 << EXP_SHIFT) - 1;
/// Mantissa bits of `√2`: a mantissa at or above it is reduced into
/// `[√2/2, 1)`, one below it into `[1, √2)`.
const SQRT2_MANT: u64 = 0x6_a09e_667f_3bcd;
/// `1.5·2⁵²`: adding it to a value in `[0, 2⁵¹)` rounds the value to the
/// nearest integer and leaves that integer in the sum's low mantissa bits.
const SHIFTER: f64 = 6_755_399_441_055_744.0;

const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000); // 0.6931471803691238
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76); // 1.9082149292705877e-10
const LG1: f64 = f64::from_bits(0x3fe5_5555_5555_5593); // 0.6666666666666735
const LG2: f64 = f64::from_bits(0x3fd9_9999_9997_fa04); // 0.3999999999940942
const LG3: f64 = f64::from_bits(0x3fd2_4924_9422_9359); // 0.2857142874366239
const LG4: f64 = f64::from_bits(0x3fcc_71c5_1d8e_78af); // 0.22222198432149784
const LG5: f64 = f64::from_bits(0x3fc7_4664_96cb_03de); // 0.1818357216161805
const LG6: f64 = f64::from_bits(0x3fc3_9a09_d078_c69f); // 0.15313837699209373
const LG7: f64 = f64::from_bits(0x3fc2_f112_df3e_5244); // 0.14798198605116586

/// `ln x` for a positive normal `x`, within a couple of ulp.
#[inline(always)]
fn ln_poly(x: f64) -> f64 {
    let bits = x.to_bits();
    let mant = bits & MANT_MASK;
    // 1 when the mantissa is at or above √2's: halve z, bump the exponent.
    let up = (mant + ((1 << EXP_SHIFT) - SQRT2_MANT)) >> EXP_SHIFT;
    let z = f64::from_bits(mant | ((1023 - up) << EXP_SHIFT));
    // k = biased exponent + up − 1023, converted exactly via the shifter.
    let k = f64::from_bits(SHIFTER.to_bits() + (bits >> EXP_SHIFT) + up) - (SHIFTER + 1023.0);
    let f = z - 1.0;
    let s = f / (2.0 + f);
    let z2 = s * s;
    let w = z2 * z2;
    let t1 = w * (LG2 + w * (LG4 + w * LG6));
    let t2 = z2 * (LG1 + w * (LG3 + w * (LG5 + w * LG7)));
    let hfsq = 0.5 * f * f;
    k * LN2_HI - ((hfsq - (s * (hfsq + (t1 + t2)) + k * LN2_LO)) - f)
}

/// `π/2 = P1 + P2 + P3` to ~2⁻¹²⁰; `P1` and `P2` have 33 significant bits,
/// so `q·P1` and `q·P2` are exact for the `q ≤ 4` met here.
const P1: f64 = f64::from_bits(0x3ff9_21fb_5440_0000); // 1.5707963267341256
const P2: f64 = f64::from_bits(0x3dd0_b461_1a60_0000); // 6.077100506303966e-11
const P3: f64 = f64::from_bits(0x3ba3_198a_2e03_7073); // 2.0222662487959506e-21

const S1: f64 = f64::from_bits(0xbfc5_5555_5555_5549); // -0.16666666666666632
const S2: f64 = f64::from_bits(0x3f81_1111_1110_f8a6); // 0.00833333333332249
const S3: f64 = f64::from_bits(0xbf2a_01a0_19c1_61d5); // -0.0001984126982985795
const S4: f64 = f64::from_bits(0x3ec7_1de3_57b1_fe7d); // 2.7557313707070068e-06
const S5: f64 = f64::from_bits(0xbe5a_e5e6_8a2b_9ceb); // -2.5050760253406863e-08
const S6: f64 = f64::from_bits(0x3de5_d93a_5acf_d57c); // 1.58969099521155e-10
const C1: f64 = f64::from_bits(0x3fa5_5555_5555_554c); // 0.0416666666666666
const C2: f64 = f64::from_bits(0xbf56_c16c_16c1_5177); // -0.001388888888887411
const C3: f64 = f64::from_bits(0x3efa_01a0_19cb_1590); // 2.480158728947673e-05
const C4: f64 = f64::from_bits(0xbe92_7e4f_809c_52ad); // -2.7557314351390663e-07
const C5: f64 = f64::from_bits(0x3e21_ee9e_bdb4_b1c4); // 2.087572321298175e-09
const C6: f64 = f64::from_bits(0xbda8_fae9_be88_38d4); // -1.1359647557788195e-11

/// `(sin θ, cos θ)` for `θ ∈ [0, 2π)`, each within a couple of ulp.
#[inline(always)]
fn sincos_poly(theta: f64) -> (f64, f64) {
    let shifted = theta * FRAC_2_PI + SHIFTER;
    let q = shifted.to_bits();
    let qf = shifted - SHIFTER;
    let y = ((theta - qf * P1) - qf * P2) - qf * P3;
    let z = y * y;
    let sin_y = y + (z * y) * (S1 + z * (S2 + z * (S3 + z * (S4 + z * (S5 + z * S6)))));
    let cr = z * (C1 + z * (C2 + z * (C3 + z * (C4 + z * (C5 + z * C6)))));
    let hz = 0.5 * z;
    let w = 1.0 - hz;
    let cos_y = w + (((1.0 - w) - hz) + z * cr);
    // Odd quadrants swap the kernels; bit 1 of q (of q + 1) negates sin (cos).
    let odd = q & 1 == 1;
    let (sin_k, cos_k) = if odd { (cos_y, sin_y) } else { (sin_y, cos_y) };
    let sin = f64::from_bits(sin_k.to_bits() ^ ((q & 2) << 62));
    let cos = f64::from_bits(cos_k.to_bits() ^ ((q.wrapping_add(1) & 2) << 62));
    (sin, cos)
}

/// [`fill_body`] compiled for AVX2 + FMA (four `f64` lanes). The body
/// issues no `mul_add` and rustc never contracts, so enabling FMA changes
/// no value.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fill_avx2<F: FnMut() -> f64 + ?Sized>(draw: &mut F, out: &mut [f32], std: f32) -> usize {
    fill_body(draw, out, std)
}

/// [`fill_body`] compiled for AVX-512F + DQ (eight `f64` lanes).
///
/// # Safety
///
/// Caller must have verified AVX-512F and AVX-512DQ support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_avx512<F: FnMut() -> f64 + ?Sized>(
    draw: &mut F,
    out: &mut [f32],
    std: f32,
) -> usize {
    fill_body(draw, out, std)
}

#[cfg(test)]
mod tests {
    use super::*;

    type Build = fn(&mut dyn FnMut() -> f64, &mut [f32], f32) -> usize;

    /// Every build of the kernel this CPU can run, called directly (not only
    /// through the dispatcher) — so the scalar body is exercised on AVX hosts.
    fn builds() -> Vec<(&'static str, Build)> {
        let mut builds: Vec<(&'static str, Build)> = vec![("scalar", |d, o, s| fill_body(d, o, s))];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                // SAFETY: listed only when the CPU supports the build.
                builds.push(("avx2", |d, o, s| unsafe { fill_avx2(d, o, s) }));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                // SAFETY: listed only when the CPU supports the build.
                builds.push(("avx512", |d, o, s| unsafe { fill_avx512(d, o, s) }));
            }
        }
        builds
    }

    /// Runs `build` on `draws` (consumed in order) and returns its outputs
    /// and fallback count; panics unless it used exactly `2·⌈n/2⌉` draws.
    fn run_draws(build: Build, draws: &[f64], n: usize, std: f32) -> (Vec<f32>, usize) {
        let mut it = draws.iter().copied();
        let mut out = vec![f32::NAN; n];
        let mut draw = || it.next().expect("kernel drew past the crafted draws");
        let fallbacks = build(&mut draw, &mut out, std);
        assert_eq!(it.len(), draws.len() - 2 * n.div_ceil(2), "draw count");
        (out, fallbacks)
    }

    /// The libm reference on the same crafted draws.
    fn libm_draws(draws: &[f64], n: usize, std: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(n);
        for pair in draws.chunks_exact(2).take(n.div_ceil(2)) {
            let (c, s) = box_muller_libm(pair[0].max(1e-300), pair[1]);
            out.push(c * std);
            out.push(s * std);
        }
        out.truncate(n);
        out
    }

    fn assert_same_bits(got: &[f32], want: &[f32], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: length");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{label}: value {i}: {g} vs {w}");
        }
    }

    /// The noise std of the cluster datasets and the He stds of fan-in 64
    /// and 512, as `Mlp::new` computes them.
    fn stds() -> [f32; 3] {
        [1.0, (2.0 / 64.0f32).sqrt(), (2.0 / 512.0f32).sqrt()]
    }

    #[test]
    fn fill_gaussian_matches_libm_reference() {
        let lens = [0usize, 1, 2, 63, 64, 65, 129, 1000, 4097, 100_001];
        let mut values = 0usize;
        let mut fallbacks = 0usize;
        for (name, build) in builds() {
            let mut seed = 0u64;
            let mut build_values = 0usize;
            while build_values < 10_000_000 {
                for &n in &lens {
                    for std in stds() {
                        let mut fast = FastRng::new(seed, 0x6A55);
                        let mut libm = fast.clone();
                        let mut got = vec![f32::NAN; n];
                        let mut want = vec![f32::NAN; n];
                        let mut draw = || fast.next_f64();
                        fallbacks += build(&mut draw, &mut got, std);
                        libm.fill_gaussian_reference(&mut want, std);
                        assert_same_bits(&got, &want, &format!("{name} seed {seed} n {n}"));
                        assert_eq!(fast.snapshot(), libm.snapshot(), "{name}: rng state");
                        assert_eq!(fast.draws(), 2 * n.div_ceil(2) as u64, "{name}: draws");
                        build_values += n;
                        seed += 1;
                    }
                }
            }
            values += build_values;
        }
        // The public dispatcher, too.
        for &n in &lens {
            let mut fast = FastRng::new(n as u64, 1);
            let mut libm = fast.clone();
            let (mut got, mut want) = (vec![0.0; n], vec![0.0; n]);
            fast.fill_gaussian(&mut got, 1.0);
            libm.fill_gaussian_reference(&mut want, 1.0);
            assert_same_bits(&got, &want, &format!("dispatch n {n}"));
            assert_eq!((fast.draws(), &fast), (libm.draws(), &libm));
        }
        // ~5·10⁻⁵ per pair is expected (module docs); a guard that never
        // fires, or one that fires everywhere, is a broken guard.
        let rate = fallbacks as f64 / (values as f64 / 2.0);
        assert!((1e-5..2e-4).contains(&rate), "fallback rate {rate}");
    }

    /// `u1 = 0` (the clamp), `u1` just below 1, `u1` on both sides of the
    /// mantissa boundary of the `ln` reduction (`z` just below √2 or at
    /// √2/2) at √2/2, √2/4, √2·2⁻¹⁶ and √2·2⁻⁵³, and `u2` sweeping
    /// across each `θ = kπ/2`, k = 0..=4.
    #[test]
    fn gaussian_edge_draws_match_libm() {
        let mut u1s = vec![
            0.0,
            1e-300,
            f64::EPSILON / 2.0,
            0.5,
            0.25,
            1.0 - f64::EPSILON / 2.0,
        ];
        for exp in [0x3fe_u64, 0x3fd, 0x3f0, 0x3cb] {
            for d in -3i64..=3 {
                let bits = (exp << EXP_SHIFT) | SQRT2_MANT.wrapping_add_signed(d);
                u1s.push(f64::from_bits(bits));
            }
        }
        let mut u2s = Vec::new();
        for k in 0..=4u64 {
            let center = k << 51; // u2 = k/4, θ = kπ/2
            for j in center.saturating_sub(6)..(center + 6).min(1 << 53) {
                u2s.push(j as f64 / (1u64 << 53) as f64);
            }
        }
        // The sweep reaches the θ nearest each kπ/2 a draw can make.
        for k in 1..=3 {
            let target = f64::from(k) * std::f64::consts::FRAC_PI_2;
            let nearest = u2s
                .iter()
                .map(|&u| (TAU * u - target).abs())
                .fold(1.0, f64::min);
            assert!(
                nearest < TAU / (1u64 << 53) as f64,
                "k {k}: nearest θ {nearest}"
            );
        }
        let mut draws = Vec::new();
        for &u1 in &u1s {
            for &u2 in &u2s {
                draws.extend([u1, u2]);
            }
        }
        let n = draws.len();
        for std in stds() {
            let want = libm_draws(&draws, n, std);
            for (name, build) in builds() {
                let (got, _) = run_draws(build, &draws, n, std);
                assert_same_bits(&got, &want, name);
            }
        }
    }

    /// Draws whose value lies within `δ` of an `f32` rounding boundary. Each
    /// `u1 = j·2⁻⁵³` is the draw nearest `exp(−m²/2)` for the midpoint `m`
    /// just above an `f32` (0.3, 0.75, 1.0, 1.7, 2.9, 4.2), so
    /// `r = sqrt(−2·ln u1)` is `m` to within 2⁻⁵⁰; `u2 = 0, ¼, ½` put `r`
    /// (or `−r`) in the cosine, sine and cosine lane.
    #[test]
    fn gaussian_fallback_is_exercised() {
        const U1_WORDS: [u64; 6] = [
            8_610_859_736_612_982,
            6_798_990_548_515_088,
            5_463_142_180_512_526,
            2_123_411_497_772_564,
            134_394_409_531_484,
            1_330_798_653_650,
        ];
        let mut draws = Vec::new();
        for &j in &U1_WORDS {
            let u1 = j as f64 / (1u64 << 53) as f64;
            let r = (-2.0 * u1.ln()).sqrt();
            let f = r as f32;
            let gap = [f.to_bits() - 1, f.to_bits() + 1]
                .map(|b| (r - (f64::from(f) + f64::from(f32::from_bits(b))) / 2.0).abs());
            assert!(
                gap[0].min(gap[1]) < DELTA / 2.0 * r,
                "u1 {u1}: r {r} is not near a midpoint"
            );
            for u2 in [0.0, 0.25, 0.5] {
                draws.extend([u1, u2]);
                // A draw far from any boundary between the crafted ones.
                draws.extend([0.5, 0.1]);
            }
        }
        let n = draws.len();
        for std in stds() {
            let want = libm_draws(&draws, n, std);
            for (name, build) in builds() {
                let (got, fallbacks) = run_draws(build, &draws, n, std);
                assert_eq!(fallbacks, 3 * U1_WORDS.len(), "{name}: fallbacks");
                assert_same_bits(&got, &want, name);
            }
        }
    }

    #[test]
    fn polynomial_error_is_far_inside_the_guard() {
        let mut rng = FastRng::new(77, 0);
        let mut worst = 0.0f64;
        for _ in 0..1_000_000 {
            let u1 = rng.next_f64().max(1e-300);
            let u2 = rng.next_f64();
            let (pc, ps) = box_muller_poly(u1, u2);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            for (p, l) in [(pc, r * theta.cos()), (ps, r * theta.sin())] {
                if l != 0.0 {
                    worst = worst.max(((p - l) / l).abs());
                }
            }
        }
        assert!(worst < DELTA / 256.0, "worst relative error {worst:e}");
    }
}
