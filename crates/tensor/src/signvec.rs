//! Bit-packed sign vectors.
//!
//! A [`SignVec`] stores one bit per gradient coordinate: `1` encodes a
//! non-negative sign (`+1`) and `0` a negative sign (`−1`). This is the wire
//! format of every one-bit message in the workspace — Marsit's `⊙` operator
//! (word-parallel `AND`/`OR`/`XOR`), signSGD's majority vote, and the bit
//! accounting used by the experiment harness all operate on it.
//!
//! Bits are packed little-endian into `u64` words; unused high bits of the
//! last word are kept at zero as an invariant so that word-level operations
//! and popcounts need no masking on reads.

use std::fmt;

use crate::rng::FastRng;

const WORD_BITS: usize = 64;

/// Fixed-point resolution of the word-parallel Bernoulli sampler: the
/// probability `p` is rounded to the nearest multiple of `2⁻³²` before
/// sampling, so any `p` is realized with absolute bias at most `2⁻³³`
/// (exactly zero for dyadic `p = a/2^k` with `k ≤ 32`, which covers the
/// `a/(a+b)` combine weights whenever `a + b` is a power of two).
const BERNOULLI_FIXED_BITS: u32 = 32;

/// Rounds `p` to the fixed-point grid: returns `q ∈ [0, 2³²]` with
/// `q/2³² ≈ p`. Values outside `[0, 1]` clamp to the endpoints.
#[inline]
fn bernoulli_fixed_point(p: f64) -> u64 {
    if p <= 0.0 {
        0
    } else if p >= 1.0 {
        1 << BERNOULLI_FIXED_BITS
    } else {
        // p ∈ (0, 1): the product is ≤ 2³² and rounds exactly for dyadic p.
        (p * (1u64 << BERNOULLI_FIXED_BITS) as f64).round() as u64
    }
}

/// Generates one 64-lane word of i.i.d. Bernoulli(`q/2³²`) bits from
/// `32 − trailing_zeros(q)` calls to [`FastRng::next_u64`].
///
/// Each lane `j` decides `U_j < p` where `U_j` is the uniform number whose
/// binary digits are bit `j` of successive random words. The comparison is
/// evaluated for all 64 lanes at once by scanning the fixed-point digits of
/// `p` from least to most significant: prepending digit `p_i` as the new
/// most-significant digit updates the partial verdict `r` as
/// `r ← r | !u` when `p_i = 1` (a zero uniform digit decides "less than"
/// outright) and `r ← r & !u` when `p_i = 0` (a one uniform digit decides
/// "not less than"). Digits below the lowest set bit of `q` leave `r = 0`
/// unchanged and consume no randomness.
#[inline]
fn bernoulli_word(q: u64, rng: &mut FastRng) -> u64 {
    debug_assert!(q > 0 && q < 1 << BERNOULLI_FIXED_BITS);
    let mut r = 0u64;
    for i in q.trailing_zeros()..BERNOULLI_FIXED_BITS {
        let u = rng.next_u64();
        r = if (q >> i) & 1 == 1 { r | !u } else { r & !u };
    }
    r
}

/// Packs one ≤64-value chunk into a sign word (bit = 1 iff `value >= 0`).
#[inline]
fn pack_sign_word(chunk: &[f32]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if chunk.len() == WORD_BITS {
        // SAFETY: SSE2 is part of the x86_64 baseline and the chunk holds
        // exactly 64 values.
        return unsafe { pack_sign_word_sse2(chunk) };
    }
    pack_sign_word_scalar(chunk)
}

/// Portable packing path: also the reference the SIMD path is tested
/// against, and the tail path for chunks shorter than a word.
#[inline]
fn pack_sign_word_scalar(chunk: &[f32]) -> u64 {
    let mut w = 0u64;
    for (j, &x) in chunk.iter().enumerate() {
        let bits = x.to_bits();
        // Clear sign bit ⇒ non-negative; -0.0 carries a set sign
        // bit but still compares `>= 0`, so it stays positive.
        let positive = (bits >> 31 == 0) | (bits == 0x8000_0000);
        w |= u64::from(positive) << j;
    }
    w
}

/// SSE2 packing of one full 64-value chunk: 4 lanes per compare, sign bits
/// gathered with `movmskps`. "Positive" is `bits ≤ 0x8000_0000` (every
/// clear-sign pattern plus `-0.0`), evaluated as the signed comparison
/// `(bits ^ 0x8000_0000) < 1` so a single SSE2 `pcmpgtd` decides all lanes.
///
/// # Safety
///
/// `chunk` must hold exactly 64 values. SSE2 is unconditionally available
/// on `x86_64`, so there is no runtime feature requirement.
#[cfg(target_arch = "x86_64")]
#[inline]
unsafe fn pack_sign_word_sse2(chunk: &[f32]) -> u64 {
    use std::arch::x86_64::{
        __m128i, _mm_castsi128_ps, _mm_cmplt_epi32, _mm_loadu_si128, _mm_movemask_ps,
        _mm_set1_epi32, _mm_xor_si128,
    };
    debug_assert_eq!(chunk.len(), WORD_BITS);
    let flip = _mm_set1_epi32(i32::MIN);
    let one = _mm_set1_epi32(1);
    let mut w = 0u64;
    for (i, quad) in chunk.chunks_exact(4).enumerate() {
        // SAFETY: `quad` points at 4 f32s = 16 readable bytes; loadu has no
        // alignment requirement.
        let v = unsafe { _mm_loadu_si128(quad.as_ptr().cast::<__m128i>()) };
        let positive = _mm_cmplt_epi32(_mm_xor_si128(v, flip), one);
        let mask = _mm_movemask_ps(_mm_castsi128_ps(positive)) as u64;
        w |= mask << (4 * i);
    }
    w
}

/// Chains interleaved per register batch: enough to hide the xorshift
/// dependency latency on superscalar cores, small enough that states and
/// accumulators stay in registers, and exactly one AVX-512 register (or two
/// AVX2 registers) of `u64` lanes for the vectorized digit loop.
const MASK_BATCH_LANES: usize = 8;

/// Minimum buffer size (in words) for the leapfrogged single-stream sampler;
/// below this the `A^k` lane-seeding jumps cost more than interleaving saves
/// and the sequential scan wins.
const JUMP_MIN_WORDS: usize = 4 * MASK_BATCH_LANES;

/// One digit-scan word for up to [`MASK_BATCH_LANES`] independent chains:
/// advances `st[..n]` by `32 − tz` draws each and returns the Bernoulli
/// words they produce. Per chain this is bit-identical to `bernoulli_word`
/// (the branchless select `(a & v) | (m & (a | v))` equals `a | v` under
/// `m = !0` and `a & v` under `m = 0`, with `v = !u`); only the cross-chain
/// interleaving differs, which is what converts the 32-draw latency chain
/// into 8 throughput-bound lanes.
#[inline(always)]
fn digit_word_lanes_body(
    q: u64,
    tz: u32,
    st: &mut [u64; MASK_BATCH_LANES],
    n: usize,
) -> [u64; MASK_BATCH_LANES] {
    // Work on a local copy so the states live in registers for the whole
    // scan instead of round-tripping through `st`'s memory every digit.
    let mut s = *st;
    let mut acc = [0u64; MASK_BATCH_LANES];
    for i in tz..BERNOULLI_FIXED_BITS {
        let m = 0u64.wrapping_sub((q >> i) & 1);
        for (a, s) in acc[..n].iter_mut().zip(&mut s[..n]) {
            let v = !FastRng::step_raw(s);
            *a = (*a & v) | (m & (*a | v));
        }
    }
    *st = s;
    acc
}

/// Full-width monomorphization compiled for AVX2: the fixed 8-lane inner
/// loop vectorizes to `u64x4` shifts/xors plus the `pmuludq`-decomposed
/// 64-bit multiply.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn digit_word_lanes_avx2(
    q: u64,
    tz: u32,
    st: &mut [u64; MASK_BATCH_LANES],
) -> [u64; MASK_BATCH_LANES] {
    digit_word_lanes_body(q, tz, st, MASK_BATCH_LANES)
}

/// Full-width monomorphization compiled for AVX-512 (`vpmullq` does the
/// 64-bit output multiply natively).
///
/// # Safety
///
/// Caller must have verified AVX-512 F + DQ support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn digit_word_lanes_avx512(
    q: u64,
    tz: u32,
    st: &mut [u64; MASK_BATCH_LANES],
) -> [u64; MASK_BATCH_LANES] {
    digit_word_lanes_body(q, tz, st, MASK_BATCH_LANES)
}

/// Dispatches one digit-scan word to the widest available SIMD build of the
/// lane body. All builds run the identical instruction-order recurrence per
/// lane, so the selected ISA never changes a single output bit.
///
/// The SIMD builds are full-width only; a ragged group of `2 ≤ n < 8` chains
/// (a ring of 7 has 7 equal-`p` hops per step) runs them too, padded with
/// dead lanes: `st[n..]` and the returned `acc[n..]` are then scratch the
/// caller ignores, and the live lanes never see them. A lone chain stays on
/// the scalar body, where one chain beats eight lanes of which seven are
/// dead.
#[inline]
fn digit_word_lanes(
    q: u64,
    tz: u32,
    st: &mut [u64; MASK_BATCH_LANES],
    n: usize,
) -> [u64; MASK_BATCH_LANES] {
    #[cfg(target_arch = "x86_64")]
    if n >= 2 {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: feature presence just checked.
            return unsafe { digit_word_lanes_avx512(q, tz, st) };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe { digit_word_lanes_avx2(q, tz, st) };
        }
    }
    digit_word_lanes_body(q, tz, st, n)
}

/// Fills `out` with the exact word stream `for w in out { *w =
/// bernoulli_word(q, rng) }` would produce — same words, same final state,
/// same draw count — but leapfrogged across [`MASK_BATCH_LANES`] virtual
/// lanes of the *single* stream so the digit scan runs throughput-bound.
///
/// Lane `j` of block `b` starts at the serial state after `(8b + j)·k`
/// draws (`k` = draws per word): lanes are seeded by `A^k` jumps and hop
/// `A^{7k}` between their output words via [`crate::rng::JumpTables`], so
/// every word is computed from exactly the draws the sequential scan would
/// have given it. Small buffers skip the lane setup and scan sequentially.
fn fill_bernoulli_words(q: u64, rng: &mut FastRng, out: &mut [u64]) {
    debug_assert!(q > 0 && q < 1 << BERNOULLI_FIXED_BITS);
    let tz = q.trailing_zeros();
    let k = BERNOULLI_FIXED_BITS - tz;
    if out.len() < JUMP_MIN_WORDS {
        for w in out.iter_mut() {
            *w = bernoulli_word(q, rng);
        }
        return;
    }
    let jump = crate::rng::jump_pair(k);
    let blocks = out.len() / MASK_BATCH_LANES;
    let mut st = [0u64; MASK_BATCH_LANES];
    st[0] = rng.raw_state();
    for j in 1..MASK_BATCH_LANES {
        st[j] = jump.step_k.apply(st[j - 1]);
    }
    let mut first = true;
    for chunk in out[..blocks * MASK_BATCH_LANES].chunks_exact_mut(MASK_BATCH_LANES) {
        if !first {
            for s in &mut st {
                *s = jump.step_7k.apply(*s);
            }
        }
        first = false;
        let acc = digit_word_lanes(q, tz, &mut st, MASK_BATCH_LANES);
        chunk.copy_from_slice(&acc);
    }
    // Lane 7's post-block state is the serial state after all 8B words
    // (no trailing jump), so write-back plus the sequential tail leaves the
    // generator indistinguishable from a sequential scan.
    rng.set_raw_state(st[MASK_BATCH_LANES - 1]);
    rng.add_draws(blocks as u64 * MASK_BATCH_LANES as u64 * u64::from(k));
    for w in &mut out[blocks * MASK_BATCH_LANES..] {
        *w = bernoulli_word(q, rng);
    }
}

/// Fills several mask streams at once: lane `i` draws Bernoulli(`p`) mask
/// words from `rngs[i]` into the window
/// `flat[windows[i].0 ..][.. windows[i].1]` of one flat buffer (64 Bernoulli
/// lanes per word; tail bits beyond a vector's length are arbitrary, as in
/// [`SignVec::transient_combine_assign`]). Callers that plan many mask streams
/// per step (the round mask planner) describe a whole step with plain
/// `(offset, len)` pairs and never materialize a `Vec` of borrows.
///
/// Per lane this is *bit-identical* to the sequential scan
/// `for w in window { *w = bernoulli_word(q, rng) }` — the same words land in
/// the window and the generator finishes in the same state with the same
/// draw count. Only the inter-lane execution order differs: up to
/// 8 independent xorshift chains advance round-robin per fixed-point digit,
/// which breaks the single-chain latency serialization that dominates
/// non-dyadic sampling (32 dependent draws per word). Windows may overlap or
/// alias freely — later lanes simply overwrite earlier ones — though in
/// practice planners pass disjoint windows.
///
/// # Panics
///
/// Panics if `rngs` and `windows` disagree in length, if any window exceeds
/// `flat`, or if `p` rounds to a degenerate fixed-point probability (0 or
/// 1); degenerate combines draw nothing and must be handled by the caller,
/// as in [`SignVec::transient_combine_assign`].
pub fn fill_bernoulli_masks_indexed(
    p: f64,
    rngs: &mut [FastRng],
    flat: &mut [u64],
    windows: &[(usize, usize)],
) {
    assert_eq!(rngs.len(), windows.len(), "one RNG stream per window");
    let q = bernoulli_fixed_point(p);
    assert!(
        q > 0 && q < 1 << BERNOULLI_FIXED_BITS,
        "degenerate probability draws nothing; handle it before batching"
    );
    let tz = q.trailing_zeros();
    let draws_per_word = u64::from(BERNOULLI_FIXED_BITS - tz);
    for (group, wins) in rngs
        .chunks_mut(MASK_BATCH_LANES)
        .zip(windows.chunks(MASK_BATCH_LANES))
    {
        let n = group.len();
        // Hoist the states into a register-resident array; the lanes below
        // `common` words advance together, stragglers finish sequentially.
        let mut st = [0u64; MASK_BATCH_LANES];
        for (s, rng) in st.iter_mut().zip(group.iter()) {
            *s = rng.raw_state();
        }
        let common = wins.iter().map(|&(_, len)| len).min().unwrap_or(0);
        for w in 0..common {
            // Same digit recurrence as `bernoulli_word`, applied to all
            // lanes before the next (dependent) digit of any lane.
            let acc = digit_word_lanes(q, tz, &mut st, n);
            for (&(start, _), &a) in wins.iter().zip(&acc[..n]) {
                flat[start + w] = a;
            }
        }
        for (rng, &s) in group.iter_mut().zip(&st[..n]) {
            rng.set_raw_state(s);
            rng.add_draws(common as u64 * draws_per_word);
        }
        // Ragged tails (segment word counts can differ by one) fall back to
        // the sequential sampler on the written-back states.
        for (rng, &(start, len)) in group.iter_mut().zip(wins) {
            for w in common..len {
                flat[start + w] = bernoulli_word(q, rng);
            }
        }
    }
}

/// Bit planes per 64 coordinates of a winner index on `0..g`: `⌈log₂ g⌉`
/// (0 for `g ≤ 1`, where the winner is known).
#[must_use]
pub fn winner_plane_count(g: usize) -> usize {
    (usize::BITS - g.saturating_sub(1).leading_zeros()) as usize
}

/// One word of winner planes — the sequential definition of the stream
/// every batched fill reproduces. Returns the `b = ⌈log₂ g⌉` planes of 64
/// coordinates, least significant first: bit `c` of plane `j` is bit `j` of
/// coordinate `c`'s winner index `W_c`, and the `W_c` are i.i.d. *exactly*
/// uniform on `0..g`.
///
/// A round draws `b` words, plane 0 first, into every coordinate still
/// pending and accepts those whose `b`-bit value is below `g` (the
/// `bernoulli_word` comparison recurrence, against `g` itself); rejected
/// coordinates stay pending and are overwritten by the next round. A power
/// of two accepts everything in its first round, so it costs exactly `b`
/// draws per word; otherwise the number of rounds is data-dependent
/// (≈ 2.8 for `g = 7`) but a pure function of the stream.
#[inline]
fn winner_word(g: u64, b: usize, rng: &mut FastRng) -> [u64; u64::BITS as usize] {
    let every = if g.is_power_of_two() { !0u64 } else { 0 };
    let mut planes = [0u64; u64::BITS as usize];
    let mut pending = !0u64;
    while pending != 0 {
        let mut below = 0u64;
        for (j, plane) in planes[..b].iter_mut().enumerate() {
            let u = rng.next_u64();
            *plane = (*plane & !pending) | (u & pending);
            below = if (g >> j) & 1 == 1 {
                below | !u
            } else {
                below & !u
            };
        }
        pending &= !(below | every);
    }
    planes
}

/// Most planes per word the interleaved winner sampler keeps in registers:
/// chains of up to `2⁸` contributors. Longer ones fill sequentially.
const WINNER_BATCH_PLANES: usize = 8;

/// The first `common` words of every window of one batch, `g` not a power
/// of two: [`winner_word`] for up to [`MASK_BATCH_LANES`] independent streams
/// at once. Lane `i` advances `st[i]` and scatters its planes into
/// `wins[i]`'s window of `flat`; returns each lane's draw count. Per lane
/// the draws, the planes and the final state are the sequential ones — a
/// lane that has accepted all 64 coordinates of a word stops advancing while
/// the others finish theirs (its `live` select keeps its state where it
/// was), so only the inter-lane interleaving differs. The compute loops run
/// over `lanes ≥ wins.len()` lanes; the extra ones are dead — nothing is
/// ever pending in them — and touch nothing.
#[inline(always)]
fn winner_lanes_fill_body(
    g: u64,
    b: usize,
    st: &mut [u64; MASK_BATCH_LANES],
    wins: &[(usize, usize)],
    common: usize,
    flat: &mut [u64],
    lanes: usize,
) -> [u64; MASK_BATCH_LANES] {
    debug_assert!(!g.is_power_of_two() && b <= WINNER_BATCH_PLANES);
    let mut s = *st;
    let mut rounds = [0u64; MASK_BATCH_LANES];
    let mut acc = [[0u64; MASK_BATCH_LANES]; WINNER_BATCH_PLANES];
    let mut every_lane = [0u64; MASK_BATCH_LANES];
    every_lane[..wins.len()].fill(!0);
    for w in 0..common {
        let mut pending = every_lane;
        while pending[..lanes].iter().fold(0, |any, &p| any | p) != 0 {
            let mut live = [0u64; MASK_BATCH_LANES];
            for i in 0..lanes {
                live[i] = 0u64.wrapping_sub(u64::from(pending[i] != 0));
            }
            let mut below = [0u64; MASK_BATCH_LANES];
            for (j, plane) in acc[..b].iter_mut().enumerate() {
                let gj = 0u64.wrapping_sub((g >> j) & 1);
                for i in 0..lanes {
                    let mut x = s[i];
                    let u = FastRng::step_raw(&mut x);
                    s[i] = (x & live[i]) | (s[i] & !live[i]);
                    plane[i] = (plane[i] & !pending[i]) | (u & pending[i]);
                    below[i] = (below[i] & !u) | (gj & (below[i] | !u));
                }
            }
            for i in 0..lanes {
                rounds[i] += 1 & live[i];
                pending[i] &= !below[i];
            }
        }
        for (i, &(start, len)) in wins.iter().enumerate() {
            for (j, plane) in acc[..b].iter().enumerate() {
                flat[start + j * len + w] = plane[i];
            }
        }
    }
    *st = s;
    rounds.map(|r| r * b as u64)
}

/// Full-width monomorphization of the winner lane body compiled for AVX2.
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn winner_lanes_fill_avx2(
    g: u64,
    b: usize,
    st: &mut [u64; MASK_BATCH_LANES],
    wins: &[(usize, usize)],
    common: usize,
    flat: &mut [u64],
) -> [u64; MASK_BATCH_LANES] {
    winner_lanes_fill_body(g, b, st, wins, common, flat, MASK_BATCH_LANES)
}

/// Dispatches one batch to the AVX2 build of the winner lane body where
/// there is one, as [`digit_word_lanes`] does: both builds run the identical
/// recurrence per lane, dead lanes are inert, and a lone chain stays on the
/// scalar body. (An AVX-512 build measured no faster than the AVX2 one.)
fn winner_lanes_fill(
    g: u64,
    b: usize,
    st: &mut [u64; MASK_BATCH_LANES],
    wins: &[(usize, usize)],
    common: usize,
    flat: &mut [u64],
) -> [u64; MASK_BATCH_LANES] {
    #[cfg(target_arch = "x86_64")]
    if wins.len() >= 2 && is_x86_feature_detected!("avx2") {
        // SAFETY: feature presence just checked.
        return unsafe { winner_lanes_fill_avx2(g, b, st, wins, common, flat) };
    }
    winner_lanes_fill_body(g, b, st, wins, common, flat, wins.len())
}

/// Draws the winner planes of several reduce chains at once: lane `i` fills
/// the `b = `[`winner_plane_count`]`(g)` planes of `windows[i].1` words —
/// plane-major, least significant plane first, `b · windows[i].1` words in
/// all — into `flat[windows[i].0..]` from `rngs[i]`. Coordinate `c` of a
/// lane's word `w` then carries a winner index `W` exactly uniform on `0..g`:
/// bit `j` of `W` is bit `c` of `flat[start + j·words + w]`. There is no
/// fixed-point rounding at any `g`: `b` draws per word when `g` is a power of
/// two (the planes are the stream itself) and exact rejection otherwise.
///
/// Per lane this is *bit-identical* to the sequential scan of the stream
/// (one `winner_word` per word): same planes, same final generator
/// state, same draw count. Up to 8 streams advance interleaved, as in
/// [`fill_bernoulli_masks_indexed`]; ragged tails finish sequentially.
/// Windows must not overlap.
///
/// # Panics
///
/// Panics if `g < 2`, if `rngs` and `windows` disagree in length, or if a
/// window exceeds `flat`.
pub fn fill_winner_planes_indexed(
    g: usize,
    rngs: &mut [FastRng],
    flat: &mut [u64],
    windows: &[(usize, usize)],
) {
    assert!(g >= 2, "a winner needs at least two contributors");
    assert_eq!(rngs.len(), windows.len(), "one RNG stream per window");
    let b = winner_plane_count(g);
    let g = g as u64;
    for (group, wins) in rngs
        .chunks_mut(MASK_BATCH_LANES)
        .zip(windows.chunks(MASK_BATCH_LANES))
    {
        let mut st = [0u64; MASK_BATCH_LANES];
        for (s, rng) in st.iter_mut().zip(group.iter()) {
            *s = rng.raw_state();
        }
        let mut draws = [0u64; MASK_BATCH_LANES];
        let mut common = wins.iter().map(|&(_, len)| len).min().unwrap_or(0);
        if g.is_power_of_two() {
            for w in 0..common {
                for j in 0..b {
                    for (s, &(start, len)) in st.iter_mut().zip(wins) {
                        flat[start + j * len + w] = FastRng::step_raw(s);
                    }
                }
            }
            draws = [(common * b) as u64; MASK_BATCH_LANES];
        } else if b <= WINNER_BATCH_PLANES {
            draws = winner_lanes_fill(g, b, &mut st, wins, common, flat);
        } else {
            common = 0;
        }
        for ((rng, &s), &drawn) in group.iter_mut().zip(&st).zip(&draws) {
            rng.set_raw_state(s);
            rng.add_draws(drawn);
        }
        for (rng, &(start, len)) in group.iter_mut().zip(wins) {
            for w in common..len {
                let planes = winner_word(g, b, rng);
                for (j, &plane) in planes[..b].iter().enumerate() {
                    flat[start + j * len + w] = plane;
                }
            }
        }
    }
}

/// Width of one explicit SIMD group in the masked `⊙` kernel: four `u64`
/// words = one AVX2 register (half an AVX-512 register), small enough that
/// the scalar tail stays trivial.
const COMBINE_LANES: usize = 4;

/// Word-level masked `⊙` kernel: `l[w] ← (r & l) | ((r ^ l) & (l ^ keep))`
/// for every word, in explicit `u64x4` groups so the three-operand merge
/// vectorizes regardless of surrounding loop shape. Grouping only reorders
/// *which word is computed when*; each word's value is untouched, so the
/// kernel is bit-identical to the straight zip it replaces.
#[inline]
pub(crate) fn combine_words_masked(l: &mut [u64], r: &[u64], keep: &[u64]) {
    let mut lc = l.chunks_exact_mut(COMBINE_LANES);
    let mut rc = r.chunks_exact(COMBINE_LANES);
    let mut kc = keep.chunks_exact(COMBINE_LANES);
    for ((lg, rg), kg) in (&mut lc).zip(&mut rc).zip(&mut kc) {
        for j in 0..COMBINE_LANES {
            let a = lg[j];
            let b = rg[j];
            lg[j] = (b & a) | ((b ^ a) & (a ^ kg[j]));
        }
    }
    for ((a, &b), &k) in lc
        .into_remainder()
        .iter_mut()
        .zip(rc.remainder())
        .zip(kc.remainder())
    {
        *a = (b & *a) | ((b ^ *a) & (*a ^ k));
    }
}

/// The low `n` bits (`1 ≤ n < 64`) of `words` read from bit `pos`.
#[inline]
fn read_bits(words: &[u64], pos: usize, n: usize) -> u64 {
    let (k, sh) = (pos / WORD_BITS, pos % WORD_BITS);
    let mut v = words[k] >> sh;
    if sh + n > WORD_BITS {
        v |= words[k + 1] << (WORD_BITS - sh);
    }
    v & ((1u64 << n) - 1)
}

/// Overwrites the `n` bits (`1 ≤ n < 64`) of `words` from bit `pos`, all
/// within one word, with the low `n` bits of `bits` (higher bits of `bits`
/// must be zero); the word's other bits keep their value.
#[inline]
fn merge_bits(words: &mut [u64], pos: usize, n: usize, bits: u64) {
    let off = pos % WORD_BITS;
    let mask = ((1u64 << n) - 1) << off;
    let word = &mut words[pos / WORD_BITS];
    *word = (*word & !mask) | (bits << off);
}

/// The bit-range move behind [`SignVec::slice`],
/// [`SignVec::assign_slice_of`] and [`SignVec::splice`]: copies `count`
/// bits of `src` starting at bit `src_start` onto `dst` starting at bit
/// `dst_start`, a destination word at a time.
///
/// The partial first and last destination words are merged under a mask, so
/// **destination bits outside `[dst_start, dst_start + count)` keep their
/// value**. Every whole destination word in between is one funnel shift of
/// two neighbouring source words, `src[k] >> sh | src[k + 1] << (64 − sh)`,
/// with one `sh` for the whole move; `sh == 0` is a plain word copy.
///
/// # Panics
///
/// Panics if either range runs past its slice.
fn copy_bit_range(src: &[u64], src_start: usize, dst: &mut [u64], dst_start: usize, count: usize) {
    // Bits up to the first destination word boundary.
    let head = (dst_start.next_multiple_of(WORD_BITS) - dst_start).min(count);
    if head > 0 {
        merge_bits(dst, dst_start, head, read_bits(src, src_start, head));
    }
    let (from, to) = (src_start + head, dst_start + head);
    let whole = (count - head) / WORD_BITS;
    let (k, sh) = (from / WORD_BITS, from % WORD_BITS);
    let body = &mut dst[to / WORD_BITS..][..whole];
    if sh == 0 {
        body.copy_from_slice(&src[k..][..whole]);
    } else {
        let (lo, hi) = (&src[k..][..whole], &src[k + 1..][..whole]);
        for ((d, &l), &h) in body.iter_mut().zip(lo).zip(hi) {
            *d = (l >> sh) | (h << (WORD_BITS - sh));
        }
    }
    let tail = (count - head) % WORD_BITS;
    if tail > 0 {
        let done = whole * WORD_BITS;
        merge_bits(dst, to + done, tail, read_bits(src, from + done, tail));
    }
}

/// Per-byte `±scale` expansion table for the one-bit sign rebuild.
///
/// Row `b` holds the eight `f32` values the bits of `b` select: `+scale`
/// verbatim for a set bit, `−scale` by IEEE sign-bit flip for a clear one —
/// exactly the floats the branchless per-lane rebuild produces, so LUT and
/// branchless paths are interchangeable bit for bit. Expanding a packed
/// word through the table is eight 32-byte row copies with no per-lane bit
/// tests, which is what lets the ±η rebuild run at copy bandwidth.
///
/// The table is 8 KiB; build it once per scale (e.g. once per round, since
/// the Marsit scale `η/K` is fixed within a round) and reuse it across
/// workers and calls.
pub struct ScaledSignLut {
    rows: [[f32; 8]; 256],
}

impl ScaledSignLut {
    /// Builds the expansion table for `scale`.
    #[must_use]
    pub fn new(scale: f32) -> Self {
        let scale_bits = scale.to_bits();
        let pos = f32::from_bits(scale_bits);
        let neg = f32::from_bits(scale_bits ^ (1 << 31));
        let mut rows = [[0.0f32; 8]; 256];
        for (b, row) in rows.iter_mut().enumerate() {
            for (i, e) in row.iter_mut().enumerate() {
                *e = if (b >> i) & 1 == 1 { pos } else { neg };
            }
        }
        Self { rows }
    }

    /// The eight `±scale` values selected by `byte`'s bits.
    #[inline]
    #[must_use]
    pub fn row(&self, byte: u8) -> &[f32; 8] {
        &self.rows[usize::from(byte)]
    }

    /// The bit pattern of the (positive-bit) scale the table was built for.
    #[inline]
    fn scale_bits(&self) -> u32 {
        self.rows[0xFF][0].to_bits()
    }
}

/// Elements per block of the block-major round prologue: callers walk a
/// model in blocks of this many elements and run [`compensate_block`] for
/// every worker on one block before moving to the next, so the block of the
/// mean accumulator (64 KiB) stays cache-resident across the workers. A
/// multiple of 64, so blocks cut at sign-word boundaries. Any block length
/// produces the same bits; the measured sweep time (ring of 7, 2²⁰
/// elements) is flat from 1 Ki to 64 Ki elements per block and about a
/// third longer from 256 Ki up, which is the unblocked walk.
pub const PROLOGUE_BLOCK: usize = 16_384;

/// Where [`compensate_block`] finds the residual `c` it folds into a
/// worker's local update (Algorithm 1, line 1).
#[derive(Clone, Copy)]
pub enum Residual<'a> {
    /// Deferred form, `c = h − g`: `h` still holds the previous round's
    /// compensated update, and `g` is rebuilt in registers as the `±scale`
    /// expansion of that round's `consensus` bits (`lut` is the expansion
    /// table for the scale, built once per round).
    Deferred {
        /// Consensus sign bits of the whole model.
        consensus: &'a SignVec,
        /// `±scale` expansion table.
        lut: &'a ScaledSignLut,
    },
    /// Materialized form: the block's slice of a stored `c`; `h`'s old
    /// contents are ignored and overwritten.
    Materialized(&'a [f32]),
}

/// The `j`-th `±scale` value of a consensus word, exactly as
/// [`SignVec::write_scaled_signs`] rebuilds it: bit 1 ⇒ `+scale`, bit 0 ⇒
/// `−scale` via IEEE sign-bit injection.
#[inline]
fn scaled_sign(scale_bits: u32, word: u64, j: usize) -> f32 {
    let flip = (((word >> j) & 1) ^ 1) as u32;
    f32::from_bits(scale_bits ^ (flip << 31))
}

/// Portable body of [`compensate_block`] and the reference its SIMD builds
/// are tested against: per (possibly partial, only at the very end) 64-value
/// chunk, (a) `h ← u + (h − g)` or `h ← u + c`, (b) `mean_acc += h` while
/// the chunk is hot, (c) the chunk's sign word. `first` is the word index of
/// the block's first chunk in `consensus`; `sign_words` is already the
/// block's window.
///
/// `g` comes through the per-byte expansion table: row `b` holds the eight
/// values the bits of `b` select, which keeps the apply loop free of
/// per-lane bit tests (they defeat auto-vectorization) while producing the
/// same floats as [`scaled_sign`].
#[inline(always)]
fn compensate_chunks(
    first: usize,
    update: &[f32],
    h: &mut [f32],
    residual: Residual<'_>,
    mean_acc: &mut [f32],
    mut sign_words: Option<&mut [u64]>,
) {
    let chunks = h
        .chunks_mut(WORD_BITS)
        .zip(update.chunks(WORD_BITS))
        .zip(mean_acc.chunks_mut(WORD_BITS));
    for (i, ((hc, uc), mc)) in chunks.enumerate() {
        match residual {
            Residual::Deferred { consensus, lut } => {
                let w = consensus.words[first + i];
                if hc.len() == WORD_BITS {
                    for k in 0..8 {
                        let row = lut.row((w >> (8 * k)) as u8);
                        let h8 = &mut hc[k * 8..k * 8 + 8];
                        let u8 = &uc[k * 8..k * 8 + 8];
                        for j in 0..8 {
                            h8[j] = u8[j] + (h8[j] - row[j]);
                        }
                    }
                } else {
                    let scale_bits = lut.scale_bits();
                    for (j, (hj, &uj)) in hc.iter_mut().zip(uc).enumerate() {
                        *hj = uj + (*hj - scaled_sign(scale_bits, w, j));
                    }
                }
            }
            Residual::Materialized(c) => {
                let cc = &c[i * WORD_BITS..][..hc.len()];
                for ((hj, &uj), &cj) in hc.iter_mut().zip(uc).zip(cc) {
                    *hj = uj + cj;
                }
            }
        }
        for (a, &x) in mc.iter_mut().zip(&*hc) {
            *a += x;
        }
        if let Some(words) = sign_words.as_deref_mut() {
            // A partial chunk packs zeros above its length, which is the
            // tail invariant of the vector the word belongs to.
            words[i] = pack_sign_word(hc);
        }
    }
}

/// [`compensate_chunks`] compiled for AVX2: the 8-value groups of the body
/// are exactly one `ymm` register (a LUT row is one 32-byte load).
///
/// # Safety
///
/// Caller must have verified AVX2 support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn compensate_chunks_avx2(
    first: usize,
    update: &[f32],
    h: &mut [f32],
    residual: Residual<'_>,
    mean_acc: &mut [f32],
    sign_words: Option<&mut [u64]>,
) {
    compensate_chunks(first, update, h, residual, mean_acc, sign_words);
}

/// AVX-512 build of [`compensate_chunks`]: four 16-lane groups per chunk and
/// no table — the consensus bits are the blend mask that selects `+scale` or
/// `−scale` per lane, and the sign word is assembled from compare masks
/// (`!sign | bits == 0x8000_0000`, the `-0.0`-is-positive rule of
/// [`pack_sign_word_scalar`]). Per element the float operations are those of
/// the body, in the same order, never fused; the partial last chunk runs the
/// body itself.
///
/// # Safety
///
/// Caller must have verified AVX-512 F + DQ support at runtime, and the
/// slices must satisfy the length checks of [`compensate_block`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f", enable = "avx512dq")]
unsafe fn compensate_chunks_avx512(
    first: usize,
    update: &[f32],
    h: &mut [f32],
    residual: Residual<'_>,
    mean_acc: &mut [f32],
    mut sign_words: Option<&mut [u64]>,
) {
    use std::arch::x86_64::{
        _mm512_add_ps, _mm512_castps_si512, _mm512_cmpeq_epi32_mask, _mm512_loadu_ps,
        _mm512_mask_blend_ps, _mm512_movepi32_mask, _mm512_set1_epi32, _mm512_set1_ps,
        _mm512_storeu_ps, _mm512_sub_ps,
    };
    const GROUP: usize = 16;
    let n = h.len();
    let full = n / WORD_BITS;
    let minus_zero = _mm512_set1_epi32(i32::MIN);
    // `±scale`, the two values a consensus bit selects (unused when the
    // residual is materialized).
    let scale_bits = match residual {
        Residual::Deferred { lut, .. } => lut.scale_bits(),
        Residual::Materialized(_) => 0,
    };
    let pos = _mm512_set1_ps(f32::from_bits(scale_bits));
    let neg = _mm512_set1_ps(f32::from_bits(scale_bits ^ (1 << 31)));
    for i in 0..full {
        let base = i * WORD_BITS;
        let mut word = 0u64;
        for k in 0..WORD_BITS / GROUP {
            let at = base + k * GROUP;
            // SAFETY: `at + 16 <= full * 64 <= n`, and `update`, `h`,
            // `mean_acc` and a materialized `c` all hold `n` values (checked
            // by `compensate_block`); the loads and stores are unaligned.
            unsafe {
                let u = _mm512_loadu_ps(update.as_ptr().add(at));
                let c = match residual {
                    Residual::Deferred { consensus, .. } => {
                        let bits = (consensus.words[first + i] >> (k * GROUP)) as u16;
                        let g = _mm512_mask_blend_ps(bits, neg, pos);
                        _mm512_sub_ps(_mm512_loadu_ps(h.as_ptr().add(at)), g)
                    }
                    Residual::Materialized(c) => _mm512_loadu_ps(c.as_ptr().add(at)),
                };
                let r = _mm512_add_ps(u, c);
                _mm512_storeu_ps(h.as_mut_ptr().add(at), r);
                let mean = mean_acc.as_mut_ptr().add(at);
                _mm512_storeu_ps(mean, _mm512_add_ps(_mm512_loadu_ps(mean), r));
                if sign_words.is_some() {
                    let ri = _mm512_castps_si512(r);
                    let positive =
                        !_mm512_movepi32_mask(ri) | _mm512_cmpeq_epi32_mask(ri, minus_zero);
                    word |= u64::from(positive) << (k * GROUP);
                }
            }
        }
        if let Some(words) = sign_words.as_deref_mut() {
            words[i] = word;
        }
    }
    if n > full * WORD_BITS {
        let at = full * WORD_BITS;
        let residual = match residual {
            Residual::Materialized(c) => Residual::Materialized(&c[at..]),
            deferred => deferred,
        };
        compensate_chunks(
            first + full,
            &update[at..],
            &mut h[at..],
            residual,
            &mut mean_acc[at..],
            sign_words.map(|words| &mut words[full..]),
        );
    }
}

/// The fused round prologue over one worker's slice of one block: in a
/// single sweep it (a) folds the residual into the local update —
/// `h ← update + (h − g)` or `h ← update + c`, see [`Residual`] — (b) adds
/// the still-hot result into `mean_acc`, the numerator of the compensated
/// mean, and (c) with `sign_out`, packs the result's sign words straight into
/// that vector's word buffer (bit = 1 iff the value is `>= 0`, as
/// [`SignVec::from_signs`]).
///
/// `update`, `h`, `mean_acc` and a materialized `c` are the block's slices,
/// all of one length; `start` is the block's element offset in the model, a
/// multiple of 64, which locates the block's words in `consensus` and
/// `sign_out`. A block whose length is not a multiple of 64 must be the last
/// one of those vectors. `sign_out` must already have the model's length
/// ([`SignVec::resize_for_overwrite`]); words outside the block keep their
/// value.
///
/// Every float operation is elementwise and unfused, so the scalar, AVX2 and
/// AVX-512 builds (picked by CPU detection) and any walk order over blocks
/// produce the same bits: `h` equals the two-pass form (`c = h − g` stored,
/// `update + c` next round) and one element of `mean_acc` sees the workers
/// in the order the caller runs them.
///
/// # Panics
///
/// Panics if the slice lengths differ, `start` is not a multiple of 64, the
/// block runs past `consensus` / `sign_out`, or a partial last chunk is not
/// at their end.
pub fn compensate_block(
    start: usize,
    update: &[f32],
    h: &mut [f32],
    residual: Residual<'_>,
    mean_acc: &mut [f32],
    sign_out: Option<&mut SignVec>,
) {
    let n = h.len();
    let first = start / WORD_BITS;
    let sign_words = sign_out.map(|v| {
        assert!(covers(v, start, n), "block does not fit the sign vector");
        &mut v.words[first..first + n.div_ceil(WORD_BITS)]
    });
    compensate_block_words(start, update, h, residual, mean_acc, sign_words);
}

/// Whether the `n` elements from `start` (a multiple of 64) are a run of
/// whole words of `v` or its tail.
fn covers(v: &SignVec, start: usize, n: usize) -> bool {
    start + n == v.len || (n.is_multiple_of(WORD_BITS) && start + n <= v.len)
}

/// [`compensate_block`] packing into the block's own sign words:
/// `sign_words` holds exactly the `⌈n/64⌉` words of the block (for example
/// a lane's window of [`SignVec::words_mut`]). A block that ends inside a
/// word must end its vector, since its last word is packed with zero tail
/// bits.
///
/// # Panics
///
/// As [`compensate_block`], and if `sign_words` is not `⌈n/64⌉` words long.
pub fn compensate_block_words(
    start: usize,
    update: &[f32],
    h: &mut [f32],
    residual: Residual<'_>,
    mean_acc: &mut [f32],
    sign_words: Option<&mut [u64]>,
) {
    let n = h.len();
    assert_eq!(start % WORD_BITS, 0, "block must start at a word boundary");
    assert_eq!(update.len(), n, "update length mismatch");
    assert_eq!(mean_acc.len(), n, "mean accumulator length mismatch");
    match residual {
        Residual::Deferred { consensus, .. } => {
            assert!(
                covers(consensus, start, n),
                "block does not fit the consensus bits"
            );
        }
        Residual::Materialized(c) => assert_eq!(c.len(), n, "residual length mismatch"),
    }
    if let Some(words) = &sign_words {
        assert_eq!(
            words.len(),
            n.div_ceil(WORD_BITS),
            "sign window does not fit the block"
        );
    }
    let first = start / WORD_BITS;
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
            // SAFETY: feature presence just checked, lengths checked above.
            return unsafe {
                compensate_chunks_avx512(first, update, h, residual, mean_acc, sign_words)
            };
        }
        if is_x86_feature_detected!("avx2") {
            // SAFETY: feature presence just checked.
            return unsafe {
                compensate_chunks_avx2(first, update, h, residual, mean_acc, sign_words)
            };
        }
    }
    compensate_chunks(first, update, h, residual, mean_acc, sign_words);
}

/// A fixed-length, bit-packed vector of signs.
///
/// # Examples
///
/// ```
/// use marsit_tensor::SignVec;
///
/// let v = SignVec::from_signs(&[1.5, -0.2, 0.0, -7.0]);
/// assert_eq!(v.to_signs(), vec![1.0, -1.0, 1.0, -1.0]);
/// assert_eq!(v.count_ones(), 2);
/// ```
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct SignVec {
    len: usize,
    words: Vec<u64>,
}

impl SignVec {
    /// Creates a vector of `len` bits, all zero (all-negative signs).
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a vector of `len` bits, all one (all-positive signs).
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            len,
            words: vec![u64::MAX; len.div_ceil(WORD_BITS)],
        };
        v.mask_tail();
        v
    }

    /// Packs the signs of `values`: bit = 1 iff `value >= 0`.
    ///
    /// Zero (including `-0.0`) is treated as positive, matching `sgn`
    /// conventions in signSGD implementations (a zero gradient coordinate
    /// transmits `+1`). NaN packs by its IEEE sign bit.
    ///
    /// Sign extraction is word-parallel: each 64-value chunk is reduced to
    /// one packed word via `f32::to_bits() >> 31`, with no per-bit
    /// read-modify-write of the destination.
    #[must_use]
    pub fn from_signs(values: &[f32]) -> Self {
        let mut v = Self {
            len: 0,
            words: Vec::with_capacity(values.len().div_ceil(WORD_BITS)),
        };
        v.assign_from_signs(values);
        v
    }

    /// Re-packs `values` into this vector in place, reusing the word buffer
    /// (same packing rules as [`SignVec::from_signs`]). The vector takes the
    /// length of `values`.
    pub fn assign_from_signs(&mut self, values: &[f32]) {
        self.len = values.len();
        self.words.clear();
        self.words
            .extend(values.chunks(WORD_BITS).map(pack_sign_word));
    }

    /// Sets the length to `len` bits, reusing the word buffer whatever it
    /// held before, for a caller that goes on to overwrite every bit (the
    /// block-major [`compensate_block`] sweep). Nothing is cleared: bit
    /// values are unspecified until overwritten, but unused tail bits are
    /// zero as always.
    pub fn resize_for_overwrite(&mut self, len: usize) {
        self.len = len;
        self.words.resize(len.div_ceil(WORD_BITS), 0);
        self.mask_tail();
    }

    /// The packed words, writable, for kernels that write whole words in
    /// place (such as [`compensate_block_words`] on a lane's window). Bits
    /// at or above [`SignVec::len`] must stay zero.
    pub fn words_mut(&mut self) -> &mut [u64] {
        &mut self.words
    }

    /// Replaces this vector with `len` bits taken from packed `words`,
    /// reusing the word buffer. Bits of the final word at or above `len`
    /// are cleared to keep the tail invariant.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != ⌈len/64⌉`.
    pub fn assign_from_words(&mut self, len: usize, words: &[u64]) {
        assert_eq!(words.len(), len.div_ceil(WORD_BITS), "word count mismatch");
        self.len = len;
        self.words.clear();
        self.words.extend_from_slice(words);
        self.mask_tail();
    }

    /// Creates a vector whose bit `j` is drawn Bernoulli(`probs[j]`).
    ///
    /// This is the *transient vector* generator of Marsit Eq. (2) in its most
    /// general form; [`SignVec::bernoulli_uniform`] covers the common case of
    /// one shared probability.
    #[must_use]
    pub fn bernoulli(probs: &[f64], rng: &mut FastRng) -> Self {
        let mut v = Self::zeros(probs.len());
        for (i, &p) in probs.iter().enumerate() {
            if rng.bernoulli(p) {
                v.set(i, true);
            }
        }
        v
    }

    /// Creates a vector of `len` i.i.d. Bernoulli(`p`) bits.
    ///
    /// Word-parallel: 64 bits are drawn at once by binary expansion of `p`
    /// in 32-bit fixed point (see `bernoulli_word`), costing
    /// [`SignVec::bernoulli_word_draws`]`(p)` ≤ 32 RNG words per 64 lanes
    /// instead of 64 sequential floating-point draws. `p` is realized
    /// exactly when it is dyadic with denominator ≤ 2³² (e.g. the `a/(a+b)`
    /// combine weights with power-of-two aggregate counts); otherwise the
    /// per-bit bias is at most 2⁻³³ from rounding to the fixed-point grid.
    ///
    /// **Draw accounting is word-exact:** the number of `next_u64` calls is
    /// `bernoulli_word_draws(p) · ⌈len/64⌉`, a function of the *word* count
    /// only — so payload lengths within the same word (e.g. 63 vs 64) leave
    /// a shared RNG in the same state, and generating a vector in
    /// word-aligned segments draws the exact same stream as generating it
    /// in one call. Large buffers run the digit scan leapfrogged across
    /// 8 jump-ahead lanes of the same stream (see `fill_bernoulli_words`),
    /// which changes no output bit, state, or draw count — only the wall
    /// clock, by breaking the 32-draw-per-word latency chain of non-dyadic
    /// probabilities.
    #[must_use]
    pub fn bernoulli_uniform(len: usize, p: f64, rng: &mut FastRng) -> Self {
        let q = bernoulli_fixed_point(p);
        if q == 0 {
            return Self::zeros(len);
        }
        if q == 1 << BERNOULLI_FIXED_BITS {
            return Self::ones(len);
        }
        let mut v = Self::zeros(len);
        fill_bernoulli_words(q, rng, &mut v.words);
        v.mask_tail();
        v
    }

    /// RNG words consumed per 64 lanes by [`SignVec::bernoulli_uniform`]:
    /// `32 − trailing_zeros(round(p·2³²))`, or 0 for degenerate `p`.
    #[must_use]
    pub fn bernoulli_word_draws(p: f64) -> u32 {
        let q = bernoulli_fixed_point(p);
        if q == 0 || q == 1 << BERNOULLI_FIXED_BITS {
            0
        } else {
            BERNOULLI_FIXED_BITS - q.trailing_zeros()
        }
    }

    /// Reference implementation of [`SignVec::bernoulli_uniform`]: one
    /// scalar `f64` draw per bit.
    ///
    /// Kept as the baseline the word-parallel generator is benchmarked and
    /// statistically cross-checked against; it consumes a different RNG
    /// stream (64 draws per word) and is not bit-compatible with the
    /// word-parallel path.
    #[must_use]
    pub fn bernoulli_uniform_scalar(len: usize, p: f64, rng: &mut FastRng) -> Self {
        let mut v = Self::zeros(len);
        for word in &mut v.words {
            let mut w = 0u64;
            for b in 0..WORD_BITS {
                if rng.bernoulli(p) {
                    w |= 1 << b;
                }
            }
            *word = w;
        }
        v.mask_tail();
        v
    }

    /// Number of bits in the vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector has zero bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Sets bit `i` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[inline]
    pub fn set(&mut self, i: usize, value: bool) {
        assert!(
            i < self.len,
            "bit index {i} out of bounds (len {})",
            self.len
        );
        let mask = 1u64 << (i % WORD_BITS);
        if value {
            self.words[i / WORD_BITS] |= mask;
        } else {
            self.words[i / WORD_BITS] &= !mask;
        }
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Expands back to a `±1.0` vector.
    #[must_use]
    pub fn to_signs(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len];
        self.write_scaled_signs(1.0, &mut out);
        out
    }

    /// Writes `±scale` into `out[j]` for each bit `j`.
    ///
    /// Word-parallel: expands one packed word into 64 output lanes per
    /// iteration without per-bit bounds checks.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn write_scaled_signs(&self, scale: f32, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "output length mismatch");
        // Branchless sign injection: bit 1 keeps `scale`, bit 0 flips its
        // IEEE sign bit — exact for any `scale`, and vectorizable.
        let scale_bits = scale.to_bits();
        for (chunk, &w) in out.chunks_mut(WORD_BITS).zip(&self.words) {
            for (j, o) in chunk.iter_mut().enumerate() {
                let flip = (((w >> j) & 1) ^ 1) as u32;
                *o = f32::from_bits(scale_bits ^ (flip << 31));
            }
        }
    }

    /// [`SignVec::write_scaled_signs`] through a prebuilt [`ScaledSignLut`]:
    /// full 64-lane chunks expand as eight 32-byte row copies, the ragged
    /// tail falls back to the branchless per-lane form. Bit-identical to
    /// `write_scaled_signs(scale, out)` when `lut` was built for `scale`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.len()`.
    pub fn write_scaled_signs_lut(&self, lut: &ScaledSignLut, out: &mut [f32]) {
        assert_eq!(out.len(), self.len, "output length mismatch");
        self.write_scaled_signs_lut_at(lut, 0, out);
    }

    /// [`SignVec::write_scaled_signs_lut`] of the bits `start..start +
    /// out.len()` only: a range of whole words, or the vector's tail.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a multiple of 64 or the range is neither
    /// whole words of this vector nor its tail.
    pub fn write_scaled_signs_lut_at(&self, lut: &ScaledSignLut, start: usize, out: &mut [f32]) {
        assert_eq!(start % WORD_BITS, 0, "range must start at a word boundary");
        assert!(
            covers(self, start, out.len()),
            "range does not fit the bits"
        );
        let words = &self.words[start / WORD_BITS..];
        for (chunk, &w) in out.chunks_mut(WORD_BITS).zip(words) {
            if chunk.len() == WORD_BITS {
                for (k, group) in chunk.chunks_exact_mut(8).enumerate() {
                    group.copy_from_slice(lut.row((w >> (8 * k)) as u8));
                }
            } else {
                let scale_bits = lut.scale_bits();
                for (j, o) in chunk.iter_mut().enumerate() {
                    *o = scaled_sign(scale_bits, w, j);
                }
            }
        }
    }

    /// The deferred residual made material over a range: `out[j] = h[j] −
    /// g[start + j]`, `g` the `±scale` expansion of these bits through
    /// `lut` — the floats [`SignVec::write_scaled_signs`] and an elementwise
    /// subtract give, with nothing allocated.
    ///
    /// # Panics
    ///
    /// As [`SignVec::write_scaled_signs_lut_at`], and if `h` and `out`
    /// differ in length.
    pub fn write_residual_lut_at(
        &self,
        lut: &ScaledSignLut,
        start: usize,
        h: &[f32],
        out: &mut [f32],
    ) {
        assert_eq!(h.len(), out.len(), "residual length mismatch");
        assert_eq!(start % WORD_BITS, 0, "range must start at a word boundary");
        assert!(
            covers(self, start, out.len()),
            "range does not fit the bits"
        );
        let words = &self.words[start / WORD_BITS..];
        let chunks = out.chunks_mut(WORD_BITS).zip(h.chunks(WORD_BITS));
        for ((oc, hc), &w) in chunks.zip(words) {
            if oc.len() == WORD_BITS {
                for k in 0..8 {
                    let row = lut.row((w >> (8 * k)) as u8);
                    let (o8, h8) = (&mut oc[8 * k..8 * k + 8], &hc[8 * k..8 * k + 8]);
                    for j in 0..8 {
                        o8[j] = h8[j] - row[j];
                    }
                }
            } else {
                let scale_bits = lut.scale_bits();
                for (j, (o, &x)) in oc.iter_mut().zip(hc).enumerate() {
                    *o = x - scaled_sign(scale_bits, w, j);
                }
            }
        }
    }

    /// Striped squared norm of the residual `h − g`, where `g` is the
    /// `±scale` expansion of this vector's bits, without materializing `g`
    /// or the difference: the diagnostic norm of the deferred-compensation
    /// hot path, fused so it reads `h` exactly once.
    ///
    /// Bit-identical to
    /// `stats::norm_l2_sq_striped(&materialized_difference)` — element `j`'s
    /// f32 difference squares into f64 lane `j % 8` (word chunks start at
    /// multiples of 64, so the in-chunk lane is the global `j % 8`), with
    /// the same dispatch guarantee: every ISA build runs the identical
    /// subtract/widen/multiply/add sequence, no FMA contraction anywhere.
    ///
    /// # Panics
    ///
    /// Panics if `h.len() != self.len()`.
    #[must_use]
    pub fn residual_norm_sq_striped(&self, h: &[f32], lut: &ScaledSignLut) -> f64 {
        self.sum_residual_norms_sq_striped(&[h], lut)
    }

    /// [`SignVec::residual_norm_sq_striped`] of every vector of `hs` against
    /// these bits, summed in the order of `hs` — bit-identical to summing
    /// the one-vector calls with [`Iterator::sum`], but one pass over the
    /// bits per group of up to eight vectors, with one independent
    /// accumulator chain each, so the sweep runs at cache bandwidth instead
    /// of add latency.
    ///
    /// # Panics
    ///
    /// Panics if any vector's length differs from `self.len()`.
    #[must_use]
    pub fn sum_residual_norms_sq_striped<V: AsRef<[f32]>>(
        &self,
        hs: &[V],
        lut: &ScaledSignLut,
    ) -> f64 {
        assert!(
            hs.iter().all(|h| h.as_ref().len() == self.len),
            "residual length mismatch"
        );
        crate::norm::Build::detect().sum(hs, Some((&self.words, lut)))
    }

    /// Word-parallel bitwise AND.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn and(&self, other: &SignVec) -> SignVec {
        self.zip_words(other, |a, b| a & b)
    }

    /// Word-parallel bitwise OR.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn or(&self, other: &SignVec) -> SignVec {
        self.zip_words(other, |a, b| a | b)
    }

    /// Word-parallel bitwise XOR.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn xor(&self, other: &SignVec) -> SignVec {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise NOT (within the vector length).
    #[must_use]
    pub fn not(&self) -> SignVec {
        let mut out = SignVec {
            len: self.len,
            words: self.words.iter().map(|w| !w).collect(),
        };
        out.mask_tail();
        out
    }

    /// In-place bitwise AND: `self &= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &SignVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place bitwise OR: `self |= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn or_assign(&mut self, other: &SignVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place bitwise XOR: `self ^= other`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn xor_assign(&mut self, other: &SignVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a ^= b;
        }
    }

    /// In-place bitwise NOT (within the vector length).
    pub fn not_assign(&mut self) {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_tail();
    }

    /// Overwrites `self` with `other`'s bits without reallocating.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    pub fn copy_from(&mut self, other: &SignVec) {
        assert_eq!(self.len, other.len, "length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// Fused Marsit `⊙` kernel, in place: folds `received` into `local`,
    /// which becomes `(r AND l) OR ((r XOR l) AND v)` in one pass over the
    /// packed words, where the transient vector is `v = l XOR keep`
    /// (identical to `(l AND NOT keep) OR (NOT l AND keep)`) and `keep` is a
    /// word-parallel Bernoulli(`p_keep_received`) mask — no intermediate
    /// vectors are materialized.
    ///
    /// **RNG stream compatibility** (a frozen contract — since stream
    /// contract v2 the per-hop fallback's, DESIGN §9): the keep-mask words
    /// are drawn in the same word-major order and with the same per-word
    /// draw count as [`SignVec::bernoulli_uniform`], and degenerate
    /// probabilities draw nothing (`p ≤ 0` yields `local`, `p ≥ 1` yields
    /// `received` — the algebraic limits of the composed form). A shared RNG
    /// therefore ends in exactly the state the composed implementation
    /// leaves it in, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the operands' lengths differ.
    pub fn transient_combine_assign(
        received: &SignVec,
        local: &mut SignVec,
        p_keep_received: f64,
        rng: &mut FastRng,
    ) {
        assert_eq!(received.len, local.len, "length mismatch");
        let q = bernoulli_fixed_point(p_keep_received);
        if q == 0 {
            return; // keep local; the composed form draws nothing either
        }
        if q == 1 << BERNOULLI_FIXED_BITS {
            local.words.copy_from_slice(&received.words);
            return;
        }
        for (l, &r) in local.words.iter_mut().zip(&received.words) {
            let keep = bernoulli_word(q, rng);
            // Tail bits of r and l are zero, so the output tail is zero
            // without masking even though `keep`'s tail lanes are arbitrary.
            *l = (r & *l) | ((r ^ *l) & (*l ^ keep));
        }
    }

    /// [`SignVec::transient_combine_assign`] with a precomputed keep mask:
    /// applies `⊙` word-parallel using `keep_words[w]` where the in-place
    /// form would have drawn `bernoulli_word` for word `w`. With masks from
    /// [`fill_bernoulli_masks_indexed`] on the combine's RNG stream, the result
    /// is bit-identical to the drawing form; the split lets several
    /// independent streams be sampled interleaved before their combines run.
    ///
    /// # Panics
    ///
    /// Panics if the operands' lengths differ or the mask has fewer words
    /// than the operands.
    pub fn transient_combine_assign_masked(
        received: &SignVec,
        local: &mut SignVec,
        keep_words: &[u64],
    ) {
        assert_eq!(received.len, local.len, "length mismatch");
        assert!(
            keep_words.len() >= local.words.len(),
            "keep mask shorter than operands"
        );
        combine_words_masked(&mut local.words, &received.words, keep_words);
    }

    /// One hop of a reduce chain resolved from the chain's shared winner
    /// draw: `local` keeps its own bit at the coordinates whose winner index
    /// `W` equals `pos` (this hop's place in the chain) and takes the
    /// received bit everywhere else. Applied at positions `1..g` of a chain
    /// whose contributor 0 starts it, the last aggregate is contributor `W`'s
    /// bit at every coordinate — the distribution of the Eq. 2 chain when
    /// `W` is uniform on `0..g`. `planes` are the chain's winner planes as
    /// [`fill_winner_planes_indexed`] lays them out for this segment.
    ///
    /// # Panics
    ///
    /// Panics if the operands' lengths differ or `planes` is not
    /// [`winner_plane_count`]`(g)` planes of one word per operand word.
    pub fn winner_combine_assign(
        received: &SignVec,
        local: &mut SignVec,
        planes: &[u64],
        g: usize,
        pos: usize,
    ) {
        /// Words per block: a block's selector stays in L1 while the planes
        /// stream through it, and every inner loop is long enough to
        /// vectorize.
        const BLOCK: usize = 64;
        assert_eq!(received.len, local.len, "length mismatch");
        let words = local.words.len();
        let b = winner_plane_count(g);
        assert_eq!(planes.len(), b * words, "winner planes of another shape");
        if words == 0 {
            return;
        }
        // `plane ^ flip[j]` has bit c set ⇔ bit j of W_c equals bit j of pos.
        let mut flip = [0u64; usize::BITS as usize];
        for (j, f) in flip[..b].iter_mut().enumerate() {
            *f = ((pos >> j) as u64 & 1).wrapping_sub(1);
        }
        let blocks = local
            .words
            .chunks_mut(BLOCK)
            .zip(received.words.chunks(BLOCK));
        for (k, (lc, rc)) in blocks.enumerate() {
            let mut mine = [!0u64; BLOCK];
            for (plane, &f) in planes.chunks_exact(words).zip(&flip) {
                for (m, &p) in mine.iter_mut().zip(&plane[k * BLOCK..]) {
                    *m &= p ^ f;
                }
            }
            // Tail bits of l and r are zero, so the output tail is too,
            // whatever the planes hold there.
            for ((l, &r), &m) in lc.iter_mut().zip(rc).zip(&mine) {
                *l = r ^ ((*l ^ r) & m);
            }
        }
    }

    /// Number of positions where `self` and `other` agree.
    ///
    /// Used for the *matching rate* metric of Fig 1b.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch.
    #[must_use]
    pub fn matching_count(&self, other: &SignVec) -> usize {
        assert_eq!(self.len, other.len, "length mismatch");
        let differing: usize = self
            .words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum();
        self.len - differing
    }

    /// Fraction of positions where `self` and `other` agree, in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics on length mismatch or empty vectors.
    #[must_use]
    pub fn matching_rate(&self, other: &SignVec) -> f64 {
        assert!(self.len > 0, "matching rate of empty vector");
        self.matching_count(other) as f64 / self.len as f64
    }

    /// Extracts bits `[start, start + count)` into a new vector.
    ///
    /// Word-parallel at any `start` (one shifted word move per 64 bits,
    /// see DESIGN.md §7), so the segmented collectives pay the same for a
    /// ragged `d/m` as for one that cuts at 64-bit boundaries.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    #[must_use]
    pub fn slice(&self, start: usize, count: usize) -> SignVec {
        let mut out = SignVec::zeros(0);
        out.assign_slice_of(self, start, count);
        out
    }

    /// Allocation-free [`SignVec::slice`]: replaces `self` with bits
    /// `[start, start + count)` of `src`, reusing `self`'s word buffer
    /// whatever it held before. Same result bits.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds `src`'s length.
    pub fn assign_slice_of(&mut self, src: &SignVec, start: usize, count: usize) {
        assert!(start + count <= src.len, "slice out of bounds");
        self.len = count;
        // No clear: every word is overwritten, except the bits of the last
        // one at or above `count`, which `mask_tail` zeroes.
        self.words.resize(count.div_ceil(WORD_BITS), 0);
        copy_bit_range(&src.words, start, &mut self.words, 0, count);
        self.mask_tail();
    }

    /// Overwrites bits `[start, start + other.len())` with `other`; every
    /// other bit of `self` keeps its value. Word-parallel at any `start`,
    /// like [`SignVec::slice`].
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the vector length.
    pub fn splice(&mut self, start: usize, other: &SignVec) {
        assert!(start + other.len <= self.len, "splice out of bounds");
        copy_bit_range(&other.words, 0, &mut self.words, start, other.len);
    }

    /// Size of the packed payload in bytes (the wire size of this message).
    #[must_use]
    pub fn packed_bytes(&self) -> usize {
        self.len.div_ceil(8)
    }

    /// Serializes to packed little-endian bytes.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.packed_bytes());
        for w in &self.words {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.truncate(self.packed_bytes());
        out
    }

    /// Deserializes from packed little-endian bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is shorter than `len.div_ceil(8)`.
    #[must_use]
    pub fn from_bytes(len: usize, bytes: &[u8]) -> Self {
        assert!(bytes.len() >= len.div_ceil(8), "byte buffer too short");
        let mut v = Self::zeros(len);
        for (i, chunk) in bytes.chunks(8).enumerate().take(v.words.len()) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            v.words[i] = u64::from_le_bytes(buf);
        }
        v.mask_tail();
        v
    }

    /// Iterator over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.get(i))
    }

    /// Raw word view (low-level; unused tail bits are guaranteed zero).
    #[must_use]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    fn zip_words(&self, other: &SignVec, f: impl Fn(u64, u64) -> u64) -> SignVec {
        assert_eq!(self.len, other.len, "length mismatch");
        SignVec {
            len: self.len,
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for SignVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SignVec(len={}, ones={})", self.len, self.count_ones())
    }
}

impl fmt::Display for SignVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for i in 0..self.len.min(64) {
            write!(f, "{}", if self.get(i) { '+' } else { '-' })?;
        }
        if self.len > 64 {
            write!(f, "… ({} bits)", self.len)?;
        }
        Ok(())
    }
}

impl FromIterator<bool> for SignVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        let mut v = SignVec::zeros(bits.len());
        for (i, b) in bits.into_iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_counts() {
        assert_eq!(SignVec::zeros(100).count_ones(), 0);
        assert_eq!(SignVec::ones(100).count_ones(), 100);
        // Tail bits beyond len must not be counted.
        assert_eq!(SignVec::ones(65).count_ones(), 65);
    }

    #[test]
    fn from_signs_zero_is_positive() {
        let v = SignVec::from_signs(&[0.0, -0.0, -1.0]);
        assert!(v.get(0));
        assert!(v.get(1)); // -0.0 >= 0.0 in IEEE comparison
        assert!(!v.get(2));
    }

    #[test]
    fn round_trip_signs() {
        let xs = [3.0, -2.0, 0.5, -0.5, 9.0];
        let v = SignVec::from_signs(&xs);
        assert_eq!(v.to_signs(), vec![1.0, -1.0, 1.0, -1.0, 1.0]);
    }

    #[test]
    fn bitwise_ops_match_scalar() {
        let a: SignVec = [true, false, true, false].into_iter().collect();
        let b: SignVec = [true, true, false, false].into_iter().collect();
        let and = a.and(&b);
        let or = a.or(&b);
        let xor = a.xor(&b);
        assert_eq!(
            and.iter().collect::<Vec<_>>(),
            vec![true, false, false, false]
        );
        assert_eq!(or.iter().collect::<Vec<_>>(), vec![true, true, true, false]);
        assert_eq!(
            xor.iter().collect::<Vec<_>>(),
            vec![false, true, true, false]
        );
    }

    #[test]
    fn not_masks_tail() {
        let v = SignVec::zeros(70);
        let n = v.not();
        assert_eq!(n.count_ones(), 70);
        // If tail masking failed, count would be 128.
    }

    #[test]
    fn matching_rate_self_is_one() {
        let v = SignVec::from_signs(&[1.0, -1.0, 1.0]);
        assert_eq!(v.matching_rate(&v), 1.0);
        assert_eq!(v.matching_rate(&v.not()), 0.0);
    }

    #[test]
    fn slice_and_splice_round_trip() {
        let mut rng = FastRng::new(7, 0);
        let v = SignVec::bernoulli_uniform(200, 0.4, &mut rng);
        let s = v.slice(37, 100);
        let mut w = SignVec::zeros(200);
        w.splice(37, &s);
        for i in 0..100 {
            assert_eq!(w.get(37 + i), v.get(37 + i));
        }
        assert_eq!(w.slice(0, 37).count_ones(), 0);
    }

    #[test]
    fn bytes_round_trip() {
        let mut rng = FastRng::new(8, 0);
        for len in [1usize, 7, 8, 63, 64, 65, 1000] {
            let v = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
            let bytes = v.to_bytes();
            assert_eq!(bytes.len(), len.div_ceil(8));
            assert_eq!(SignVec::from_bytes(len, &bytes), v);
        }
    }

    #[test]
    fn bernoulli_rate_is_respected() {
        let mut rng = FastRng::new(9, 0);
        let v = SignVec::bernoulli_uniform(100_000, 0.25, &mut rng);
        let rate = v.count_ones() as f64 / v.len() as f64;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn bernoulli_per_coordinate_probs() {
        let mut rng = FastRng::new(10, 0);
        let probs: Vec<f64> = (0..10_000)
            .map(|i| if i % 2 == 0 { 0.0 } else { 1.0 })
            .collect();
        let v = SignVec::bernoulli(&probs, &mut rng);
        for i in 0..10_000 {
            assert_eq!(v.get(i), i % 2 == 1);
        }
    }

    #[test]
    fn write_scaled_signs_values() {
        let v = SignVec::from_signs(&[1.0, -1.0]);
        let mut out = [0.0f32; 2];
        v.write_scaled_signs(0.5, &mut out);
        assert_eq!(out, [0.5, -0.5]);
    }

    #[test]
    fn packed_bytes_size() {
        assert_eq!(SignVec::zeros(0).packed_bytes(), 0);
        assert_eq!(SignVec::zeros(1).packed_bytes(), 1);
        assert_eq!(SignVec::zeros(8).packed_bytes(), 1);
        assert_eq!(SignVec::zeros(9).packed_bytes(), 2);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let v = SignVec::zeros(4);
        let _ = v.get(4);
    }

    #[test]
    fn word_parallel_bernoulli_rate_within_ci() {
        // Dyadic probabilities are realized exactly; non-dyadic ones are
        // rounded to the 2⁻³² grid. Either way the empirical rate must sit
        // within a 5σ binomial interval.
        let n = 1 << 20;
        for (stream, p) in [0.5, 0.25, 63.0 / 64.0, 1.0 / 3.0, 0.2, 0.9]
            .into_iter()
            .enumerate()
        {
            let mut rng = FastRng::new(77, stream as u64);
            let v = SignVec::bernoulli_uniform(n, p, &mut rng);
            let rate = v.count_ones() as f64 / n as f64;
            let hw = crate::stats::binomial_ci_halfwidth(p, n as u64);
            assert!((rate - p).abs() <= hw, "p={p}: rate {rate} (±{hw})");
        }
    }

    #[test]
    fn word_parallel_matches_scalar_baseline_statistically() {
        // Different streams, same distribution: both rates inside the CI.
        let n = 1 << 20;
        let p = 0.375;
        let mut r1 = FastRng::new(5, 1);
        let mut r2 = FastRng::new(5, 2);
        let fast = SignVec::bernoulli_uniform(n, p, &mut r1);
        let slow = SignVec::bernoulli_uniform_scalar(n, p, &mut r2);
        let hw = crate::stats::binomial_ci_halfwidth(p, n as u64);
        for (label, v) in [("word-parallel", &fast), ("scalar", &slow)] {
            let rate = v.count_ones() as f64 / n as f64;
            assert!((rate - p).abs() <= hw, "{label}: rate {rate} (±{hw})");
        }
    }

    #[test]
    fn bernoulli_degenerate_probabilities_are_exact_and_draw_nothing() {
        let mut rng = FastRng::new(31, 0);
        let before = rng.clone();
        assert_eq!(
            SignVec::bernoulli_uniform(70, 0.0, &mut rng).count_ones(),
            0
        );
        assert_eq!(
            SignVec::bernoulli_uniform(70, 1.0, &mut rng).count_ones(),
            70
        );
        // Degenerate p consumes no entropy at all.
        assert_eq!(rng, before);
        assert_eq!(SignVec::bernoulli_word_draws(0.0), 0);
        assert_eq!(SignVec::bernoulli_word_draws(1.0), 0);
    }

    #[test]
    fn bernoulli_word_draws_formula() {
        // Dyadic p consumes one word per significant fractional digit:
        // 0.5 = 0.1₂ → 1, 0.25 = 0.01₂ → 2, 0.75 = 0.11₂ → 2, 63/64 → 6.
        assert_eq!(SignVec::bernoulli_word_draws(0.5), 1);
        assert_eq!(SignVec::bernoulli_word_draws(0.25), 2);
        assert_eq!(SignVec::bernoulli_word_draws(0.75), 2);
        assert_eq!(SignVec::bernoulli_word_draws(63.0 / 64.0), 6);
        // Non-dyadic p uses the full 32-bit expansion (up to rounding).
        assert!(SignVec::bernoulli_word_draws(1.0 / 3.0) > 16);
    }

    /// The masked combine applied with masks from the combine's own stream
    /// is bit-identical to the drawing combine, RNG state included.
    #[test]
    fn indexed_mask_combine_matches_drawing_combine() {
        let mut seed_rng = FastRng::new(3, 3);
        for len in [1usize, 64, 100, 192, 300] {
            for p in [0.5, 2.0 / 3.0, 0.9] {
                let recv = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
                let local0 = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
                let mut drawn = local0.clone();
                let mut draw_rng = FastRng::new(55, len as u64);
                SignVec::transient_combine_assign(&recv, &mut drawn, p, &mut draw_rng);
                let mut mask_rng = [FastRng::new(55, len as u64)];
                let mut masks = vec![0u64; len.div_ceil(64)];
                let window = [(0, masks.len())];
                fill_bernoulli_masks_indexed(p, &mut mask_rng, &mut masks, &window);
                let mut masked = local0.clone();
                SignVec::transient_combine_assign_masked(&recv, &mut masked, &masks);
                assert_eq!(masked, drawn, "len={len} p={p}: outputs differ");
                assert_eq!(mask_rng[0], draw_rng, "len={len} p={p}: RNG state differs");
                assert_eq!(mask_rng[0].draws(), draw_rng.draws());
            }
        }
    }

    #[test]
    #[should_panic(expected = "degenerate probability")]
    fn indexed_mask_degenerate_probability_panics() {
        let mut rngs = [FastRng::new(0, 0)];
        let mut flat = [0u64; 1];
        fill_bernoulli_masks_indexed(1.0, &mut rngs, &mut flat, &[(0, 1)]);
    }

    /// Regression for the tail-entropy bug: payload lengths that pack into
    /// the same number of words must leave a shared RNG in the same state,
    /// so downstream draws do not depend on whether a message was 63 or 64
    /// bits wide.
    #[test]
    fn draw_accounting_is_word_exact_across_tail_lengths() {
        let p = 0.375;
        let mut r63 = FastRng::new(123, 9);
        let mut r64 = FastRng::new(123, 9);
        let _ = SignVec::bernoulli_uniform(63, p, &mut r63);
        let _ = SignVec::bernoulli_uniform(64, p, &mut r64);
        assert_eq!(
            r63.next_u64(),
            r64.next_u64(),
            "63- and 64-bit payloads must consume identical entropy"
        );
    }

    /// Word-aligned segmentation invariance: generating a vector in two
    /// 64-aligned segments from one RNG draws the exact same bits as one
    /// full-length call — segmented collectives stay stream-compatible.
    #[test]
    fn word_aligned_segments_match_single_call() {
        let p = 0.71;
        let mut whole_rng = FastRng::new(9, 4);
        let whole = SignVec::bernoulli_uniform(192, p, &mut whole_rng);
        let mut seg_rng = FastRng::new(9, 4);
        let head = SignVec::bernoulli_uniform(64, p, &mut seg_rng);
        let tail = SignVec::bernoulli_uniform(128, p, &mut seg_rng);
        let mut joined = SignVec::zeros(192);
        joined.splice(0, &head);
        joined.splice(64, &tail);
        assert_eq!(joined, whole);
        assert_eq!(whole_rng, seg_rng);
    }

    #[test]
    fn assign_ops_match_functional_ops() {
        let mut rng = FastRng::new(61, 0);
        for len in [1usize, 63, 64, 65, 200] {
            let a = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
            let b = SignVec::bernoulli_uniform(len, 0.3, &mut rng);
            let mut x = a.clone();
            x.and_assign(&b);
            assert_eq!(x, a.and(&b), "and len {len}");
            let mut x = a.clone();
            x.or_assign(&b);
            assert_eq!(x, a.or(&b), "or len {len}");
            let mut x = a.clone();
            x.xor_assign(&b);
            assert_eq!(x, a.xor(&b), "xor len {len}");
            let mut x = a.clone();
            x.not_assign();
            assert_eq!(x, a.not(), "not len {len}");
            let mut x = SignVec::zeros(len);
            x.copy_from(&b);
            assert_eq!(x, b, "copy len {len}");
        }
    }

    #[test]
    fn assign_from_signs_reuses_buffer_and_matches_from_signs() {
        let mut rng = FastRng::new(62, 0);
        let mut v = SignVec::zeros(0);
        for len in [200usize, 64, 65, 1, 130] {
            let values: Vec<f32> = (0..len).map(|_| (rng.next_f64() as f32) - 0.5).collect();
            v.assign_from_signs(&values);
            assert_eq!(v, SignVec::from_signs(&values), "len {len}");
        }
    }

    #[test]
    fn slice_splice_match_per_bit_moves() {
        let mut rng = FastRng::new(63, 0);
        let v = SignVec::bernoulli_uniform(300, 0.5, &mut rng);
        for (start, count) in [
            (0usize, 300usize),
            (64, 100),
            (128, 172),
            (64, 64),
            (192, 1),
            (1, 299),
            (37, 200),
            (63, 65),
            (130, 20),
            (300, 0),
        ] {
            let fast = v.slice(start, count);
            let mut slow = SignVec::zeros(count);
            for i in 0..count {
                slow.set(i, v.get(start + i));
            }
            assert_eq!(fast, slow, "slice start={start} count={count}");

            let patch = SignVec::bernoulli_uniform(count, 0.4, &mut rng);
            let mut fast_dst = v.clone();
            fast_dst.splice(start, &patch);
            let mut slow_dst = v.clone();
            for i in 0..count {
                slow_dst.set(start + i, patch.get(i));
            }
            assert_eq!(fast_dst, slow_dst, "splice start={start} count={count}");
        }
    }

    #[test]
    fn fused_transient_combine_matches_composed_form() {
        let mut seed_rng = FastRng::new(64, 0);
        for len in [1usize, 63, 64, 65, 200, 300] {
            for p in [0.5, 0.25, 2.0 / 3.0, 0.0, 1.0, 7.0 / 8.0] {
                let r = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
                let l = SignVec::bernoulli_uniform(len, 0.5, &mut seed_rng);
                // Composed reference with its own RNG clone.
                let mut ref_rng = FastRng::new(99, len as u64);
                let keep = SignVec::bernoulli_uniform(len, p, &mut ref_rng);
                let v = l.and(&keep.not()).or(&l.not().and(&keep));
                let composed = r.and(&l).or(&r.xor(&l).and(&v));
                // Fused in-place form.
                let mut local = l.clone();
                let mut assign_rng = FastRng::new(99, len as u64);
                SignVec::transient_combine_assign(&r, &mut local, p, &mut assign_rng);
                assert_eq!(local, composed, "assign len {len} p {p}");
                assert_eq!(assign_rng, ref_rng, "assign rng len {len} p {p}");
            }
        }
    }

    #[test]
    fn simd_pack_matches_scalar_reference() {
        let mut rng = FastRng::new(77, 0);
        for trial in 0..200 {
            let chunk: Vec<f32> = (0..WORD_BITS)
                .map(|_| (rng.next_f64() as f32) - 0.5)
                .collect();
            assert_eq!(
                pack_sign_word(&chunk),
                pack_sign_word_scalar(&chunk),
                "trial {trial}"
            );
        }
        // Special values in every lane position.
        let specials = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
        ];
        for (rot, _) in specials.iter().enumerate() {
            let chunk: Vec<f32> = (0..WORD_BITS)
                .map(|j| specials[(j + rot) % specials.len()])
                .collect();
            assert_eq!(
                pack_sign_word(&chunk),
                pack_sign_word_scalar(&chunk),
                "rotation {rot}"
            );
        }
    }

    #[test]
    fn from_signs_matches_per_bit_reference() {
        let mut rng = FastRng::new(55, 0);
        for len in [1usize, 7, 63, 64, 65, 127, 130, 1000] {
            let values: Vec<f32> = (0..len).map(|_| (rng.next_f64() as f32) - 0.5).collect();
            let fast = SignVec::from_signs(&values);
            let mut slow = SignVec::zeros(len);
            for (i, &x) in values.iter().enumerate() {
                if x >= 0.0 {
                    slow.set(i, true);
                }
            }
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    fn from_signs_special_values() {
        let v = SignVec::from_signs(&[
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::NAN,
            -f32::NAN,
        ]);
        assert!(v.get(0));
        assert!(!v.get(1));
        assert!(v.get(2));
        assert!(!v.get(3));
        // NaN packs by its sign bit.
        assert!(v.get(4));
        assert!(!v.get(5));
    }

    /// The range forms — `g` through the table, and `h − g` — equal
    /// [`SignVec::write_scaled_signs`] and an elementwise subtract bit for
    /// bit, on whole words and on the ragged tail, and write nothing outside
    /// their range.
    #[test]
    fn range_expansions_match_write_scaled_signs_bitwise() {
        let mut rng = FastRng::new(91, 0);
        for len in [1usize, 63, 64, 65, 200, 300] {
            let v = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
            let h: Vec<f32> = (0..len).map(|_| rng.next_f64() as f32 - 0.5).collect();
            for scale in [0.01f32, -2.5, 0.0] {
                let lut = ScaledSignLut::new(scale);
                let mut g = vec![7.0f32; len];
                v.write_scaled_signs(scale, &mut g);
                for start in (0..len).step_by(WORD_BITS) {
                    for end in [(start + WORD_BITS).min(len), len] {
                        let label = format!("len {len} scale {scale} {start}..{end}");
                        let mut out = vec![7.0f32; len];
                        v.write_scaled_signs_lut_at(&lut, start, &mut out[start..end]);
                        let mut want = vec![7.0f32; len];
                        want[start..end].copy_from_slice(&g[start..end]);
                        assert_eq!(bits(&out), bits(&want), "{label}: g");
                        let mut out = vec![7.0f32; len];
                        v.write_residual_lut_at(&lut, start, &h[start..end], &mut out[start..end]);
                        for j in start..end {
                            want[j] = h[j] - g[j];
                        }
                        assert_eq!(bits(&out), bits(&want), "{label}: h - g");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "range does not fit the bits")]
    fn range_expansion_rejects_a_partial_word_inside_the_vector() {
        let v = SignVec::zeros(200);
        v.write_scaled_signs_lut_at(&ScaledSignLut::new(1.0), 64, &mut [0.0; 65]);
    }

    #[test]
    fn to_signs_and_write_scaled_match_per_bit_across_word_boundaries() {
        let mut rng = FastRng::new(21, 3);
        for len in [1usize, 63, 64, 65, 200] {
            let v = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
            let signs = v.to_signs();
            let mut scaled = vec![0.0f32; len];
            v.write_scaled_signs(2.5, &mut scaled);
            for i in 0..len {
                let expect = if v.get(i) { 1.0 } else { -1.0 };
                assert_eq!(signs[i], expect, "len {len} bit {i}");
                assert_eq!(scaled[i], 2.5 * expect, "len {len} bit {i}");
            }
        }
    }

    /// The leapfrogged single-stream sampler is bit-identical to the
    /// sequential digit scan: same words, same final RNG state, same draw
    /// count — across dyadic and non-dyadic probabilities and across
    /// buffer sizes spanning the sequential/leapfrog threshold and ragged
    /// block tails.
    #[test]
    fn leapfrog_fill_matches_sequential_scan() {
        for p in [0.5, 0.25, 1.0 / 3.0, 2.0 / 3.0, 0.123] {
            let q = bernoulli_fixed_point(p);
            for words in [1usize, 31, 32, 33, 40, 64, 71, 256] {
                let mut seq_rng = FastRng::new(4242, words as u64);
                let expected: Vec<u64> = (0..words)
                    .map(|_| bernoulli_word(q, &mut seq_rng))
                    .collect();
                let mut rng = FastRng::new(4242, words as u64);
                let mut out = vec![0u64; words];
                fill_bernoulli_words(q, &mut rng, &mut out);
                assert_eq!(out, expected, "p={p} words={words}: words differ");
                assert_eq!(rng, seq_rng, "p={p} words={words}: RNG state differs");
                assert_eq!(
                    rng.draws(),
                    seq_rng.draws(),
                    "p={p} words={words}: draw count differs"
                );
            }
        }
    }

    /// Interleaved batch sampling is a pure scheduling change: every lane's
    /// window, final RNG state and draw count must equal sequential
    /// `bernoulli_word` calls on that lane's stream — for every lane count
    /// around the 8-lane batch (a lone scalar chain, ragged groups padded
    /// with dead lanes onto the SIMD builds, a full batch, a full batch plus
    /// a ragged one) and for equal, staggered and empty window lengths.
    #[test]
    fn indexed_mask_fill_matches_sequential_scan() {
        let shapes: [fn(usize) -> usize; 4] =
            [|_| 6, |i| 5 + i % 3, |i| i % 4, |i| 1 + 7 * (i % 2)];
        for p in [0.5, 0.25, 1.0 / 3.0, 2.0 / 3.0, 7.0 / 8.0, 0.123] {
            let q = bernoulli_fixed_point(p);
            for lane_count in (1usize..=9).chain([11, 17]) {
                for (shape, words_of) in shapes.iter().enumerate() {
                    let label = format!("p={p} lanes={lane_count} shape={shape}");
                    // One flat buffer with a guard word around every window
                    // to catch out-of-window writes.
                    let mut windows = Vec::new();
                    let mut cursor = 1usize;
                    for i in 0..lane_count {
                        windows.push((cursor, words_of(i)));
                        cursor += words_of(i) + 1;
                    }
                    let mut flat = vec![u64::MAX; cursor];
                    let mut rngs: Vec<FastRng> = (0..lane_count)
                        .map(|i| FastRng::new(777, i as u64))
                        .collect();
                    fill_bernoulli_masks_indexed(p, &mut rngs, &mut flat, &windows);
                    for (i, &(start, len)) in windows.iter().enumerate() {
                        let mut seq_rng = FastRng::new(777, i as u64);
                        let expected: Vec<u64> =
                            (0..len).map(|_| bernoulli_word(q, &mut seq_rng)).collect();
                        assert_eq!(&flat[start..start + len], expected, "{label} lane {i}");
                        assert_eq!(rngs[i], seq_rng, "{label} lane {i}: RNG state");
                        assert_eq!(rngs[i].draws(), seq_rng.draws(), "{label} lane {i}: draws");
                        assert_eq!(flat[start - 1], u64::MAX, "{label}: guard before lane {i}");
                    }
                    assert_eq!(flat[cursor - 1], u64::MAX, "{label}: trailing guard");
                }
            }
        }
    }

    /// The batched winner-plane fill is the sequential per-stream definition
    /// under another schedule: every lane's planes, final RNG state and draw
    /// count equal one `winner_word` per word on that lane's stream — for
    /// every chain size around the powers of two (exact `b` draws per word
    /// there, rejection rounds in between, and one too long for the lane
    /// body), every lane count around the 8-lane batch and equal, staggered,
    /// empty and ragged window lengths.
    #[test]
    fn winner_plane_fill_matches_sequential_definition() {
        let shapes: [fn(usize) -> usize; 4] =
            [|_| 6, |i| 5 + i % 3, |i| i % 4, |i| 1 + 7 * (i % 2)];
        // 300 contributors need nine planes: past what the lane body batches.
        for g in (2usize..=9).chain([300]) {
            let b = winner_plane_count(g);
            assert!(1usize << b >= g && (1usize << b) / 2 < g, "g={g}: b={b}");
            for lane_count in (1usize..=9).chain([11, 17]) {
                for (shape, words_of) in shapes.iter().enumerate() {
                    let label = format!("g={g} lanes={lane_count} shape={shape}");
                    let mut windows = Vec::new();
                    let mut cursor = 1usize;
                    for i in 0..lane_count {
                        windows.push((cursor, words_of(i)));
                        cursor += words_of(i) * b + 1;
                    }
                    let mut flat = vec![u64::MAX; cursor];
                    let mut rngs: Vec<FastRng> = (0..lane_count)
                        .map(|i| FastRng::new(778, i as u64))
                        .collect();
                    fill_winner_planes_indexed(g, &mut rngs, &mut flat, &windows);
                    for (i, &(start, len)) in windows.iter().enumerate() {
                        let mut seq_rng = FastRng::new(778, i as u64);
                        let mut expected = vec![0u64; len * b];
                        for w in 0..len {
                            let planes = winner_word(g as u64, b, &mut seq_rng);
                            for (j, &plane) in planes[..b].iter().enumerate() {
                                expected[j * len + w] = plane;
                            }
                        }
                        assert_eq!(&flat[start..start + len * b], expected, "{label} lane {i}");
                        assert_eq!(rngs[i], seq_rng, "{label} lane {i}: RNG state");
                        assert_eq!(rngs[i].draws(), seq_rng.draws(), "{label} lane {i}: draws");
                        if g.is_power_of_two() {
                            assert_eq!(seq_rng.draws(), (len * b) as u64, "{label} lane {i}");
                        }
                        assert_eq!(flat[start - 1], u64::MAX, "{label}: guard before lane {i}");
                    }
                    assert_eq!(flat[cursor - 1], u64::MAX, "{label}: trailing guard");
                }
            }
        }
    }

    /// Every coordinate's winner index lands in `0..g`, each value with
    /// frequency `1/g` inside the 5σ binomial band, and a chain of
    /// `winner_combine_assign` hops ends on the winner's bit.
    #[test]
    fn winner_index_is_uniform_and_the_chain_follows_it() {
        let words = 2_048usize;
        let total = (words * WORD_BITS) as u64;
        for g in 2usize..=9 {
            let b = winner_plane_count(g);
            let mut rngs = [FastRng::new(0x51, g as u64)];
            let mut planes = vec![0u64; words * b];
            fill_winner_planes_indexed(g, &mut rngs, &mut planes, &[(0, words)]);
            let winner_at = |c: usize| -> usize {
                (0..b)
                    .map(|j| {
                        ((planes[j * words + c / WORD_BITS] >> (c % WORD_BITS)) as usize & 1) << j
                    })
                    .sum()
            };
            let mut seen = vec![0u64; g];
            for c in 0..words * WORD_BITS {
                seen[winner_at(c)] += 1; // out of range: a panic
            }
            let hw = crate::stats::binomial_ci_halfwidth(1.0 / g as f64, total);
            for (k, &n) in seen.iter().enumerate() {
                let rate = n as f64 / total as f64;
                assert!(
                    (rate - 1.0 / g as f64).abs() <= hw,
                    "g={g}: winner {k} at rate {rate} (±{hw})"
                );
            }
            // Contributor k alone says 1: the chain ends on 1 exactly where
            // k wins.
            let len = words * WORD_BITS - 7;
            for k in 0..g {
                let input = |w: usize| {
                    if w == k {
                        SignVec::ones(len)
                    } else {
                        SignVec::zeros(len)
                    }
                };
                let mut agg = input(0);
                for pos in 1..g {
                    let mut local = input(pos);
                    SignVec::winner_combine_assign(&agg, &mut local, &planes, g, pos);
                    agg = local;
                }
                for c in (0..len).step_by(61) {
                    assert_eq!(agg.get(c), winner_at(c) == k, "g={g} k={k} coord {c}");
                }
                assert_eq!(
                    agg.words[words - 1] >> (WORD_BITS - 7),
                    0,
                    "tail stays zero"
                );
            }
        }
    }

    #[test]
    fn assign_slice_of_matches_slice() {
        let mut rng = FastRng::new(17, 5);
        let v = SignVec::bernoulli_uniform(300, 0.4, &mut rng);
        let mut scratch = SignVec::zeros(1);
        for (start, count) in [(0usize, 300usize), (64, 128), (64, 100), (37, 99), (299, 1)] {
            scratch.assign_slice_of(&v, start, count);
            assert_eq!(
                scratch,
                v.slice(start, count),
                "start={start} count={count}"
            );
        }
    }

    #[test]
    fn scaled_sign_lut_matches_branchless_rebuild() {
        let mut rng = FastRng::new(23, 9);
        for len in [1usize, 63, 64, 65, 200] {
            let v = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
            for scale in [1.0f32, 0.01, 2.5] {
                let lut = ScaledSignLut::new(scale);
                let mut branchless = vec![0.0f32; len];
                let mut via_lut = vec![0.0f32; len];
                v.write_scaled_signs(scale, &mut branchless);
                v.write_scaled_signs_lut(&lut, &mut via_lut);
                for (a, b) in branchless.iter().zip(&via_lut) {
                    assert_eq!(a.to_bits(), b.to_bits(), "len {len} scale {scale}");
                }
            }
        }
    }

    /// Every build of the prologue kernel this CPU can run, called directly
    /// (not only through the dispatcher of [`compensate_block`]).
    type CompensateBuild =
        unsafe fn(usize, &[f32], &mut [f32], Residual<'_>, &mut [f32], Option<&mut [u64]>);

    fn compensate_builds() -> Vec<(&'static str, CompensateBuild)> {
        let mut builds: Vec<(&'static str, CompensateBuild)> = vec![("scalar", compensate_chunks)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                builds.push(("avx2", compensate_chunks_avx2));
            }
            if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                builds.push(("avx512", compensate_chunks_avx512));
            }
        }
        builds
    }

    const SPECIALS: [u32; 10] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x0080_0000, // smallest normal
        0x8080_0000,
        0x7fc0_0000, // +NaN
        0xffc0_0000, // -NaN
    ];

    /// Inputs of one kernel call over `len` elements: ordinary values in
    /// `[-0.5, 0.5)` with the special values rotated through every lane
    /// position. Element classes (`i % 8`): 1 — special `update`; 3 —
    /// special `h` and `c`; 5 — special mean accumulator; 7 — non-NaN
    /// specials in `update`, `h` and `c` at once (`inf − inf` and friends).
    /// No element meets two NaNs: which payload survives `NaN + NaN` is the
    /// instruction's operand order, which no build promises.
    struct PrologueCase {
        update: Vec<f32>,
        h: Vec<f32>,
        c: Vec<f32>,
        mean: Vec<f32>,
        consensus: SignVec,
    }

    fn prologue_case(len: usize, seed: u64) -> PrologueCase {
        let mut rng = FastRng::new(seed, len as u64);
        let mut plain =
            |n: usize| -> Vec<f32> { (0..n).map(|_| (rng.next_f64() as f32) - 0.5).collect() };
        let (mut update, mut h, mut c, mut mean) = (plain(len), plain(len), plain(len), plain(len));
        let special = |k: usize, count: usize| f32::from_bits(SPECIALS[k % count]);
        for i in 0..len {
            let k = i / 8;
            match i % 8 {
                1 => update[i] = special(k, 10),
                3 => {
                    h[i] = special(k, 10);
                    c[i] = special(k + 3, 10);
                }
                5 => mean[i] = special(k, 10),
                7 => {
                    update[i] = special(k, 8);
                    h[i] = special(k / 8, 8);
                    c[i] = special(k / 8 + 1, 8);
                }
                _ => {}
            }
        }
        let consensus = SignVec::bernoulli_uniform(len, 0.5, &mut rng);
        PrologueCase {
            update,
            h,
            c,
            mean,
            consensus,
        }
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|x| x.to_bits()).collect()
    }

    /// The kernel's contract spelled out one pass at a time over
    /// `[start, start + n)`: materialize `g`, then `c = h − g`, then
    /// `h = u + c`, then the mean, then a separate sign pack.
    fn prologue_reference(
        case: &PrologueCase,
        deferred: bool,
        scale: f32,
        start: usize,
        n: usize,
    ) -> (Vec<f32>, Vec<f32>, SignVec) {
        let mut g = vec![0.0f32; case.consensus.len()];
        case.consensus.write_scaled_signs(scale, &mut g);
        let mut h = case.h.clone();
        let mut mean = case.mean.clone();
        for i in start..start + n {
            let c = if deferred { h[i] - g[i] } else { case.c[i] };
            h[i] = case.update[i] + c;
            mean[i] += h[i];
        }
        let signs = SignVec::from_signs(&h[start..start + n]);
        (h, mean, signs)
    }

    /// Runs one build over `[start, start + n)` of `case` and checks `h`,
    /// the mean accumulator and the sign words against the reference by bit
    /// pattern — inside the range, and untouched outside it.
    fn check_compensate_build(
        name: &str,
        build: CompensateBuild,
        case: &PrologueCase,
        deferred: bool,
        pack: bool,
        start: usize,
        n: usize,
    ) {
        let len = case.update.len();
        let label = format!("{name} len={len} range={start}+{n} deferred={deferred} pack={pack}");
        let scale = 0.0123f32;
        let lut = ScaledSignLut::new(scale);
        let (want_h, want_mean, want_signs) = prologue_reference(case, deferred, scale, start, n);
        let residual = if deferred {
            Residual::Deferred {
                consensus: &case.consensus,
                lut: &lut,
            }
        } else {
            Residual::Materialized(&case.c[start..start + n])
        };
        let mut h = case.h.clone();
        let mut mean = case.mean.clone();
        // A dirty, longer buffer cut down to size: stale ones everywhere.
        let mut signs = SignVec::ones(len + 100);
        signs.resize_for_overwrite(len);
        let stale = signs.clone();
        let first = start / WORD_BITS;
        let sign_words = pack.then(|| &mut signs.words[first..first + n.div_ceil(WORD_BITS)]);
        // SAFETY: `compensate_builds` lists only builds whose CPU features
        // were detected, and every slice holds exactly `n` values.
        unsafe {
            build(
                first,
                &case.update[start..start + n],
                &mut h[start..start + n],
                residual,
                &mut mean[start..start + n],
                sign_words,
            );
        }
        assert_eq!(bits(&h), bits(&want_h), "{label}: h");
        assert_eq!(bits(&mean), bits(&want_mean), "{label}: mean accumulator");
        if pack {
            let mut want = stale;
            want.splice(start, &want_signs);
            assert_eq!(signs, want, "{label}: sign words");
            let last = *signs.words.last().expect("non-empty");
            assert!(
                len.is_multiple_of(WORD_BITS) || last >> (len % WORD_BITS) == 0,
                "{label}: tail invariant"
            );
        } else {
            assert_eq!(signs, stale, "{label}: sign words written without pack");
        }
    }

    /// Every build of the round-prologue kernel agrees with the pass-by-pass
    /// reference, bit for bit, on whole vectors of every awkward length.
    #[test]
    fn compensate_block_builds_match_reference() {
        let lengths = [
            1,
            63,
            64,
            65,
            4_095,
            4_096,
            4_097,
            PROLOGUE_BLOCK - 1,
            PROLOGUE_BLOCK,
            PROLOGUE_BLOCK + 1,
            3 * PROLOGUE_BLOCK + 37,
        ];
        for (name, build) in compensate_builds() {
            for len in lengths {
                let case = prologue_case(len, 404);
                for deferred in [true, false] {
                    for pack in [true, false] {
                        check_compensate_build(name, build, &case, deferred, pack, 0, len);
                    }
                }
            }
        }
    }

    /// Called on an interior block, or on the ragged last one, a build
    /// writes exactly its range: neighbouring floats and sign words keep
    /// their values.
    #[test]
    fn compensate_block_builds_leave_neighbours_untouched() {
        for (name, build) in compensate_builds() {
            for (len, start, n) in [
                (448, 128, 192),
                (448, 0, 64),
                (450, 384, 66),
                (450, 448, 2),
                (3 * PROLOGUE_BLOCK + 37, PROLOGUE_BLOCK, PROLOGUE_BLOCK),
                (3 * PROLOGUE_BLOCK + 37, 3 * PROLOGUE_BLOCK, 37),
            ] {
                let case = prologue_case(len, 505);
                for deferred in [true, false] {
                    for pack in [true, false] {
                        check_compensate_build(name, build, &case, deferred, pack, start, n);
                    }
                }
            }
        }
    }

    /// The public entry point, driven block-major the way the round prologue
    /// drives it (several workers per block, the mean scaled in the same
    /// visit), equals the worker-major whole-vector form it replaced.
    #[test]
    fn compensate_block_major_walk_matches_worker_major() {
        let (m, len, scale) = (3usize, 2 * PROLOGUE_BLOCK + 131, 0.02f32);
        let cases: Vec<PrologueCase> = (0..m).map(|w| prologue_case(len, 600 + w as u64)).collect();
        let consensus = &cases[0].consensus;
        let lut = ScaledSignLut::new(scale);
        let inv_m = 1.0 / m as f32;
        for deferred in [true, false] {
            // Worker-major reference: whole vectors, one worker at a time.
            let mut want_mean = vec![0.0f32; len];
            let mut want_h = Vec::new();
            for case in &cases {
                let mut g = vec![0.0f32; len];
                consensus.write_scaled_signs(scale, &mut g);
                let h: Vec<f32> = (0..len)
                    .map(|i| {
                        let c = if deferred {
                            case.h[i] - g[i]
                        } else {
                            case.c[i]
                        };
                        case.update[i] + c
                    })
                    .collect();
                for (a, &x) in want_mean.iter_mut().zip(&h) {
                    *a += x;
                }
                want_h.push(h);
            }
            for a in &mut want_mean {
                *a *= inv_m;
            }
            // Block-major walk through the dispatcher.
            let mut hs: Vec<Vec<f32>> = cases.iter().map(|c| c.h.clone()).collect();
            let mut signs = vec![SignVec::ones(7); m];
            for sv in &mut signs {
                sv.resize_for_overwrite(len);
            }
            let mut mean = vec![f32::NAN; len];
            for lo in (0..len).step_by(PROLOGUE_BLOCK) {
                let hi = (lo + PROLOGUE_BLOCK).min(len);
                mean[lo..hi].fill(0.0);
                for (w, case) in cases.iter().enumerate() {
                    let residual = if deferred {
                        Residual::Deferred {
                            consensus,
                            lut: &lut,
                        }
                    } else {
                        Residual::Materialized(&case.c[lo..hi])
                    };
                    compensate_block(
                        lo,
                        &case.update[lo..hi],
                        &mut hs[w][lo..hi],
                        residual,
                        &mut mean[lo..hi],
                        Some(&mut signs[w]),
                    );
                }
                for a in &mut mean[lo..hi] {
                    *a *= inv_m;
                }
            }
            assert_eq!(bits(&mean), bits(&want_mean), "deferred={deferred}: mean");
            for w in 0..m {
                assert_eq!(
                    bits(&hs[w]),
                    bits(&want_h[w]),
                    "deferred={deferred} w={w}: h"
                );
                assert_eq!(
                    signs[w],
                    SignVec::from_signs(&want_h[w]),
                    "deferred={deferred} w={w}: signs"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "block does not fit the sign vector")]
    fn compensate_block_rejects_a_partial_chunk_inside_the_vector() {
        let mut signs = SignVec::zeros(200);
        let (u, c) = ([0.0f32; 65], [0.0f32; 65]);
        let (mut h, mut mean) = ([0.0f32; 65], [0.0f32; 65]);
        let residual = Residual::Materialized(&c);
        compensate_block(0, &u, &mut h, residual, &mut mean, Some(&mut signs));
    }
}
