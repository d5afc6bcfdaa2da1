//! The one dense-product kernel behind [`Tensor::matmul`],
//! [`Tensor::matmul_tn`] and [`Tensor::matmul_nt`].
//!
//! [`gemm`] computes `out[i][j] = init + Σ_k a(i,k) · b[k][j]` for a strided
//! left operand and a k-major (row-major `k × n`) right operand. Its
//! accumulation order is a **frozen contract**, v2 (DESIGN §17, the fourth
//! SIMD lane rule): every output element starts from `init` and takes one
//! correctly rounded fused multiply-add per term, `acc = fma(a(i,k), b[k][j],
//! acc)`, in ascending `k`, with no term skipped; vector lanes run only across
//! `j`. An output element is therefore a fixed expression of its own row of
//! `a` and column of `b`, so neither the lane width nor the register-tile
//! shape nor the cache blocking can change a bit: the scalar body
//! ([`f32::mul_add`], correctly rounded on every host), its AVX2+FMA
//! compilation and the AVX-512 intrinsic build agree by `to_bits`, and all of
//! them equal the naive skip-free `mul_add` loops of the differential tests —
//! whatever the operands hold, `±0`, subnormals, `±∞` and NaN included.
//!
//! No term is skipped because under FMA a skip is observable even with finite
//! operands: a subnormal times a negative value, fused into `+0.0`, rounds to
//! `−0.0`, and a later `0 · b` term with `b > 0` turns that back into `+0.0`.
//! And IEEE `0 · ∞ = NaN` reaches the output of every product alike.
//!
//! [`Tensor::matmul`]: crate::Tensor::matmul
//! [`Tensor::matmul_tn`]: crate::Tensor::matmul_tn
//! [`Tensor::matmul_nt`]: crate::Tensor::matmul_nt

/// Rows of the AVX-512 register tile.
const MR: usize = 12;
/// Lanes of one `zmm` register.
const LANES: usize = 16;
/// Columns of the AVX-512 register tile: two `zmm` per row, so a full tile
/// holds `12 × 2 = 24` accumulators across the whole `k` loop, beside the two
/// `b` vectors and the broadcast `a` value of one step — 27 of the 32 `zmm`,
/// enough independent FMA chains to cover the instruction's latency on both
/// ports (one `zmm` per row once 16 or fewer columns remain).
const NR: usize = 2 * LANES;
/// Columns per cache block (a multiple of both tile widths). Within a block
/// the row tiles are the outer loop, so the block's `k × NC` slab of `b` is
/// what every row tile re-reads: 128 KiB at `k = 512`, inside L2 beside the
/// rows of `a` in flight. The kernel is compute-bound at the layer widths
/// trained here (blocks of 32 to 2048 columns measure alike); the block is
/// what keeps a wider layer from streaming all of `b` once per row tile.
const NC: usize = 2 * NR;

/// Rows of the scalar body's tile.
const MR_BODY: usize = 4;
/// Columns of the scalar body's tile: two `ymm` per row when compiled for
/// AVX2, four `xmm` at the SSE2 baseline.
const NR_BODY: usize = 16;

/// What every tile of one [`gemm`] call shares: the depth `k`, the row stride
/// `n` of `b` and `out`, the strides of `a`, and the accumulators' start.
#[derive(Clone, Copy)]
struct Call {
    n: usize,
    k: usize,
    a_row_stride: usize,
    a_k_stride: usize,
    init: f32,
}

/// `out[i·n + j] = init + Σ_{k ascending} a[i·a_row_stride + k·a_k_stride] ·
/// b_kmajor[k·n + j]`, one fused multiply-add per term (see the module docs
/// for the contract). `out` is overwritten; what it held is irrelevant.
///
/// `init` is the value the accumulation starts from: `+0.0` for the products
/// that replaced a `+=` loop over a zeroed output, `−0.0` for the one that
/// replaced `Iterator::sum::<f32>`.
///
/// # Panics
///
/// Panics if `b_kmajor.len() != k·n`, `out.len() != m·n`, or `a` is too short
/// for the strides.
#[allow(clippy::too_many_arguments)]
pub fn gemm(
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    a_row_stride: usize,
    a_k_stride: usize,
    b_kmajor: &[f32],
    init: f32,
    out: &mut [f32],
) {
    assert_eq!(b_kmajor.len(), k * n, "gemm: b must be k x n");
    assert_eq!(out.len(), m * n, "gemm: out must be m x n");
    assert!(
        m == 0 || k == 0 || (m - 1) * a_row_stride + (k - 1) * a_k_stride < a.len(),
        "gemm: a is too short for its strides"
    );
    if k == 0 {
        return out.fill(init);
    }
    let call = Call {
        n,
        k,
        a_row_stride,
        a_k_stride,
        init,
    };
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked; the lengths the kernel
            // relies on are asserted above.
            return unsafe { gemm_avx512(m, call, a, b_kmajor, out) };
        }
        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
            // SAFETY: feature presence just checked.
            return unsafe { gemm_avx2(m, call, a, b_kmajor, out) };
        }
    }
    gemm_body(m, call, a, b_kmajor, out);
}

/// The scalar body of [`gemm`]: the same blocking as the AVX-512 build with a
/// `4 × 16` tile of plain `f32` accumulators, written so that the per-row
/// column loop vectorizes at whatever width it is compiled for. Without FMA
/// hardware each [`f32::mul_add`] is a correctly rounded library call: slow,
/// but the same bits.
#[inline(always)]
fn gemm_body(m: usize, call: Call, a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = call.n;
    for jc in (0..n).step_by(NC) {
        let j_end = (jc + NC).min(n);
        for i0 in (0..m).step_by(MR_BODY) {
            for j0 in (jc..j_end).step_by(NR_BODY) {
                let nr = NR_BODY.min(j_end - j0);
                let a_tile = &a[i0 * call.a_row_stride..];
                let b_tile = &b[j0..];
                let out_tile = &mut out[i0 * n + j0..];
                match m - i0 {
                    1 => tile_body::<1>(call, a_tile, b_tile, nr, out_tile),
                    2 => tile_body::<2>(call, a_tile, b_tile, nr, out_tile),
                    3 => tile_body::<3>(call, a_tile, b_tile, nr, out_tile),
                    _ => tile_body::<4>(call, a_tile, b_tile, nr, out_tile),
                }
            }
        }
    }
}

/// One `ROWS × nr` tile of [`gemm_body`]: `a`, `b` and `out` start at the
/// tile's first row / first column.
#[inline(always)]
fn tile_body<const ROWS: usize>(call: Call, a: &[f32], b: &[f32], nr: usize, out: &mut [f32]) {
    let Call {
        n,
        k,
        a_row_stride,
        a_k_stride,
        init,
    } = call;
    let mut acc = [[init; NR_BODY]; ROWS];
    if nr == NR_BODY {
        // The fixed trip count is what lets the column loop vectorize with
        // the accumulators in registers.
        for kk in 0..k {
            let b_row: &[f32; NR_BODY] = b[kk * n..kk * n + NR_BODY]
                .try_into()
                .expect("slice of NR_BODY values");
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = a[r * a_row_stride + kk * a_k_stride];
                for (c, &bv) in acc_row.iter_mut().zip(b_row) {
                    *c = av.mul_add(bv, *c);
                }
            }
        }
    } else {
        for kk in 0..k {
            let b_row = &b[kk * n..kk * n + nr];
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = a[r * a_row_stride + kk * a_k_stride];
                for (c, &bv) in acc_row.iter_mut().zip(b_row) {
                    *c = av.mul_add(bv, *c);
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        out[r * n..r * n + nr].copy_from_slice(&acc_row[..nr]);
    }
}

/// [`gemm_body`] compiled for AVX2 and FMA: one tile row is two `ymm`
/// accumulators, each term one `vfmadd`.
///
/// # Safety
///
/// Caller must have verified AVX2 and FMA support at runtime.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_avx2(m: usize, call: Call, a: &[f32], b: &[f32], out: &mut [f32]) {
    gemm_body(m, call, a, b, out);
}

/// AVX-512 build of [`gemm_body`]: a `12 × 32` register tile (`12 × 16` once
/// 16 or fewer columns remain), ragged columns by lane mask, ragged rows by the
/// const-generic row count. Per output element the float operations are those
/// of the body, in the same order: one `vfmadd` per term.
///
/// # Safety
///
/// Caller must have verified AVX-512F support at runtime and the length
/// checks of [`gemm`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_avx512(m: usize, call: Call, a: &[f32], b: &[f32], out: &mut [f32]) {
    let n = call.n;
    let (a, b, out) = (a.as_ptr(), b.as_ptr(), out.as_mut_ptr());
    for jc in (0..n).step_by(NC) {
        let j_end = (jc + NC).min(n);
        for i0 in (0..m).step_by(MR) {
            for j0 in (jc..j_end).step_by(NR) {
                let nr = NR.min(j_end - j0);
                // SAFETY: the tile covers rows `i0..i0 + rows` (`rows <= MR`
                // and `<= m - i0`) and columns `j0..j0 + nr` (`<= n`); `gemm`
                // checked that `a` holds every `(row, k)` the strides reach,
                // that `b` is `k × n` and `out` is `m × n`. Lanes past `nr`
                // are masked off in every load and store.
                unsafe {
                    let a_tile = a.add(i0 * call.a_row_stride);
                    let b_tile = b.add(j0);
                    let out_tile = out.add(i0 * n + j0);
                    let rows = MR.min(m - i0);
                    if nr <= LANES {
                        rows_avx512::<1>(rows, call, a_tile, b_tile, nr, out_tile);
                    } else {
                        rows_avx512::<2>(rows, call, a_tile, b_tile, nr, out_tile);
                    }
                }
            }
        }
    }
}

/// Picks the const-generic row count of one tile.
///
/// # Safety
///
/// As [`tile_avx512`], with `1 <= rows <= MR`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rows_avx512<const VECS: usize>(
    rows: usize,
    call: Call,
    a: *const f32,
    b: *const f32,
    nr: usize,
    out: *mut f32,
) {
    // SAFETY: forwarded preconditions.
    unsafe {
        match rows {
            1 => tile_avx512::<1, VECS>(call, a, b, nr, out),
            2 => tile_avx512::<2, VECS>(call, a, b, nr, out),
            3 => tile_avx512::<3, VECS>(call, a, b, nr, out),
            4 => tile_avx512::<4, VECS>(call, a, b, nr, out),
            5 => tile_avx512::<5, VECS>(call, a, b, nr, out),
            6 => tile_avx512::<6, VECS>(call, a, b, nr, out),
            7 => tile_avx512::<7, VECS>(call, a, b, nr, out),
            8 => tile_avx512::<8, VECS>(call, a, b, nr, out),
            9 => tile_avx512::<9, VECS>(call, a, b, nr, out),
            10 => tile_avx512::<10, VECS>(call, a, b, nr, out),
            11 => tile_avx512::<11, VECS>(call, a, b, nr, out),
            _ => tile_avx512::<12, VECS>(call, a, b, nr, out),
        }
    }
}

/// One `ROWS × nr` tile, `nr <= VECS · 16`, held in `ROWS · VECS` `zmm`
/// accumulators across the whole `k` loop.
///
/// # Safety
///
/// `a` must be readable at `r·a_row_stride + kk·a_k_stride` for `r < ROWS`,
/// `kk < k`; `b` at `kk·n + c` and `out` writable at `r·n + c` for `c < nr`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tile_avx512<const ROWS: usize, const VECS: usize>(
    call: Call,
    a: *const f32,
    b: *const f32,
    nr: usize,
    out: *mut f32,
) {
    use std::arch::x86_64::{
        __mmask16, _mm512_fmadd_ps, _mm512_mask_storeu_ps, _mm512_maskz_loadu_ps, _mm512_set1_ps,
    };
    let Call {
        n,
        k,
        a_row_stride,
        a_k_stride,
        init,
    } = call;
    let masks: [__mmask16; VECS] = std::array::from_fn(|v| {
        let lanes = nr.saturating_sub(v * LANES).min(LANES);
        ((1u32 << lanes) - 1) as __mmask16
    });
    let mut acc = [[_mm512_set1_ps(init); VECS]; ROWS];
    for kk in 0..k {
        // SAFETY: see the function contract; masked-off lanes are not read.
        unsafe {
            let b_row = b.add(kk * n);
            let a_col = a.add(kk * a_k_stride);
            let bv: [_; VECS] =
                std::array::from_fn(|v| _mm512_maskz_loadu_ps(masks[v], b_row.add(v * LANES)));
            for (r, acc_row) in acc.iter_mut().enumerate() {
                let av = _mm512_set1_ps(*a_col.add(r * a_row_stride));
                for (c, &b_vec) in acc_row.iter_mut().zip(&bv) {
                    *c = _mm512_fmadd_ps(av, b_vec, *c);
                }
            }
        }
    }
    for (r, acc_row) in acc.iter().enumerate() {
        for (v, &c) in acc_row.iter().enumerate() {
            // SAFETY: see the function contract; masked-off lanes are not
            // written.
            unsafe { _mm512_mask_storeu_ps(out.add(r * n + v * LANES), masks[v], c) };
        }
    }
}

/// `out (m × n) = a (m × k) · b (k × n)`, all row-major.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub fn matmul_into(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), m * k, "matmul: a must be m x k");
    gemm(m, n, k, a, k, 1, b, 0.0, out);
}

/// `out (m × n) = aᵀ · b` for `a (k × m)` and `b (k × n)`, all row-major.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub fn matmul_tn_into(k: usize, m: usize, n: usize, a: &[f32], b: &[f32], out: &mut [f32]) {
    assert_eq!(a.len(), k * m, "matmul_tn: a must be k x m");
    gemm(m, n, k, a, 1, m, b, 0.0, out);
}

/// `out (m × n) = a (m × k) · bᵀ` for `b (n × k)`, all row-major. `panel` is
/// caller-owned scratch that receives `bᵀ` (k-major, `k × n`); it is resized
/// as needed, so a warm one makes the call allocation-free.
///
/// The accumulation starts from `−0.0`, the start of the `Iterator::sum::<f32>`
/// dot this product replaced, so a row whose terms are all `−0.0` stays
/// `−0.0`.
///
/// # Panics
///
/// Panics if a slice length disagrees with its shape.
pub fn matmul_nt_into(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    panel: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(a.len(), m * k, "matmul_nt: a must be m x k");
    assert_eq!(b.len(), n * k, "matmul_nt: b must be n x k");
    panel.resize(k * n, 0.0);
    transpose_into(n, k, b, panel);
    gemm(m, n, k, a, k, 1, panel, -0.0, out);
}

/// `out (cols × rows) = srcᵀ` for a row-major `rows × cols` source: the
/// AVX-512 register transpose where the CPU has it, else
/// [`transpose_scalar`]. A transpose only moves bits, so every build writes
/// the same ones.
///
/// # Panics
///
/// Panics if `src` or `out` does not hold `rows · cols` values.
fn transpose_into(rows: usize, cols: usize, src: &[f32], out: &mut [f32]) {
    assert_eq!(src.len(), rows * cols, "transpose: src must be rows x cols");
    assert_eq!(out.len(), rows * cols, "transpose: out must be cols x rows");
    #[cfg(target_arch = "x86_64")]
    {
        if is_x86_feature_detected!("avx512f") {
            // SAFETY: feature presence just checked; lengths asserted above.
            return unsafe { transpose_avx512(rows, cols, src, out) };
        }
    }
    transpose_scalar(rows, cols, src, out);
}

/// [`transpose_into`] walked in square blocks so both sides stay within a few
/// cache lines per block: the build for hosts without AVX-512, and the
/// differential tests' reference.
fn transpose_scalar(rows: usize, cols: usize, src: &[f32], out: &mut [f32]) {
    const BLOCK: usize = 16;
    for r0 in (0..rows).step_by(BLOCK) {
        let r_end = (r0 + BLOCK).min(rows);
        for c0 in (0..cols).step_by(BLOCK) {
            let c_end = (c0 + BLOCK).min(cols);
            for c in c0..c_end {
                for r in r0..r_end {
                    out[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// AVX-512 build of [`transpose_into`]: every full `16 × 16` block through
/// [`transpose_tile_avx512`], the ragged right columns and bottom rows by the
/// scalar assignment.
///
/// # Safety
///
/// Caller must have verified AVX-512F support at runtime and that `src` and
/// `out` hold `rows · cols` values.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_avx512(rows: usize, cols: usize, src: &[f32], out: &mut [f32]) {
    let (full_rows, full_cols) = (rows - rows % LANES, cols - cols % LANES);
    for r0 in (0..full_rows).step_by(LANES) {
        for c0 in (0..full_cols).step_by(LANES) {
            // SAFETY: the block reads rows `r0..r0 + 16` and columns
            // `c0..c0 + 16` of `src` and writes rows `c0..c0 + 16` and
            // columns `r0..r0 + 16` of `out`, all inside the shapes the
            // caller vouched for.
            unsafe {
                transpose_tile_avx512(
                    src.as_ptr().add(r0 * cols + c0),
                    cols,
                    out.as_mut_ptr().add(c0 * rows + r0),
                    rows,
                );
            }
        }
    }
    for r in 0..rows {
        for c in full_cols..cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
    for r in full_rows..rows {
        for c in 0..full_cols {
            out[c * rows + r] = src[r * cols + c];
        }
    }
}

/// Transposes one `16 × 16` block in registers: sixteen row loads, four
/// shuffle stages, sixteen row stores.
///
/// 1. `unpacklo/hi_ps` interleave row pairs;
/// 2. `unpacklo/hi_pd` pair those, so that in 128-bit lane `L` register
///    `4q + c` holds rows `4q..4q + 4` of column `4L + c`;
/// 3. and 4. two `shuffle_f32x4` rounds gather lane `L` of registers `c`,
///    `4 + c`, `8 + c` and `12 + c` into output row `4L + c`.
///
/// # Safety
///
/// `src` must be readable at `i·src_stride + j` and `out` writable at
/// `j·out_stride + i` for `i, j < 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_tile_avx512(
    src: *const f32,
    src_stride: usize,
    out: *mut f32,
    out_stride: usize,
) {
    use std::arch::x86_64::{
        __m512, _mm512_castpd_ps, _mm512_castps_pd, _mm512_loadu_ps, _mm512_setzero_ps,
        _mm512_shuffle_f32x4, _mm512_storeu_ps, _mm512_unpackhi_pd, _mm512_unpackhi_ps,
        _mm512_unpacklo_pd, _mm512_unpacklo_ps,
    };
    let mut r = [_mm512_setzero_ps(); LANES];
    for (i, row) in r.iter_mut().enumerate() {
        // SAFETY: see the function contract.
        *row = unsafe { _mm512_loadu_ps(src.add(i * src_stride)) };
    }
    let mut t = [_mm512_setzero_ps(); LANES];
    for p in (0..LANES).step_by(2) {
        t[p] = _mm512_unpacklo_ps(r[p], r[p + 1]);
        t[p + 1] = _mm512_unpackhi_ps(r[p], r[p + 1]);
    }
    let lo = |a: __m512, b: __m512| {
        _mm512_castpd_ps(_mm512_unpacklo_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)))
    };
    let hi = |a: __m512, b: __m512| {
        _mm512_castpd_ps(_mm512_unpackhi_pd(_mm512_castps_pd(a), _mm512_castps_pd(b)))
    };
    for q in (0..LANES).step_by(4) {
        r[q] = lo(t[q], t[q + 2]);
        r[q + 1] = hi(t[q], t[q + 2]);
        r[q + 2] = lo(t[q + 1], t[q + 3]);
        r[q + 3] = hi(t[q + 1], t[q + 3]);
    }
    for c in 0..4 {
        t[c] = _mm512_shuffle_f32x4::<0x88>(r[c], r[4 + c]);
        t[4 + c] = _mm512_shuffle_f32x4::<0xdd>(r[c], r[4 + c]);
        t[8 + c] = _mm512_shuffle_f32x4::<0x88>(r[8 + c], r[12 + c]);
        t[12 + c] = _mm512_shuffle_f32x4::<0xdd>(r[8 + c], r[12 + c]);
    }
    for c in 0..4 {
        let rows = [
            (c, _mm512_shuffle_f32x4::<0x88>(t[c], t[8 + c])),
            (4 + c, _mm512_shuffle_f32x4::<0x88>(t[4 + c], t[12 + c])),
            (8 + c, _mm512_shuffle_f32x4::<0xdd>(t[c], t[8 + c])),
            (12 + c, _mm512_shuffle_f32x4::<0xdd>(t[4 + c], t[12 + c])),
        ];
        for (j, row) in rows {
            // SAFETY: see the function contract.
            unsafe { _mm512_storeu_ps(out.add(j * out_stride), row) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::FastRng;

    /// Every build of the kernel this CPU can run, called directly (not only
    /// through the dispatcher of [`gemm`]) — so the scalar body is exercised
    /// on AVX hosts too.
    type GemmBuild = unsafe fn(usize, Call, &[f32], &[f32], &mut [f32]);

    /// Calls `build` the way [`gemm`] would.
    #[allow(clippy::too_many_arguments)]
    fn run(
        build: GemmBuild,
        m: usize,
        n: usize,
        k: usize,
        a: &[f32],
        (a_row_stride, a_k_stride): (usize, usize),
        b: &[f32],
        init: f32,
        out: &mut [f32],
    ) {
        let call = Call {
            n,
            k,
            a_row_stride,
            a_k_stride,
            init,
        };
        // SAFETY: `gemm_builds` lists only builds the CPU supports, and every
        // caller passes slices of the lengths the shape implies.
        unsafe { build(m, call, a, b, out) };
    }

    fn gemm_builds() -> Vec<(&'static str, GemmBuild)> {
        let mut builds: Vec<(&'static str, GemmBuild)> = vec![("scalar", gemm_body)];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                builds.push(("avx2", gemm_avx2));
            }
            if is_x86_feature_detected!("avx512f") {
                builds.push(("avx512", gemm_avx512));
            }
        }
        builds
    }

    /// The contract by definition, one output element at a time: start from
    /// `init`, then one [`f32::mul_add`] per `k`, ascending, no term skipped.
    fn reference(
        (m, n, k): (usize, usize, usize),
        a: impl Fn(usize, usize) -> f32,
        b: impl Fn(usize, usize) -> f32,
        init: f32,
    ) -> Vec<f32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for j in 0..n {
                out.push((0..k).fold(init, |acc, kk| a(i, kk).mul_add(b(kk, j), acc)));
            }
        }
        out
    }

    /// What an operand of a case is seeded with.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Seeding {
        /// Uniform values in `[-0.5, 0.5)`.
        Plain,
        /// Half the values are exact `+0.0` — a post-ReLU activation.
        Relu,
        /// Exact zeros, `−0.0`, subnormals, `±∞` and NaN sprinkled in.
        Specials,
    }

    const SPECIALS: [u32; 8] = [
        0x0000_0000, // +0.0
        0x8000_0000, // -0.0
        0x0000_0001, // smallest subnormal
        0x807f_ffff, // largest negative subnormal
        0x7f80_0000, // +inf
        0xff80_0000, // -inf
        0x7fc0_0000, // NaN
        0x0080_0000, // smallest normal
    ];

    fn operand(len: usize, seeding: Seeding, rng: &mut FastRng) -> Vec<f32> {
        (0..len)
            .map(|_| {
                let v = rng.next_f64() as f32 - 0.5;
                match seeding {
                    Seeding::Plain => v,
                    Seeding::Relu => v.max(0.0),
                    Seeding::Specials if rng.next_range(4) == 0 => {
                        f32::from_bits(SPECIALS[rng.next_range(SPECIALS.len() as u64) as usize])
                    }
                    Seeding::Specials => v,
                }
            })
            .collect()
    }

    /// Equality by `to_bits`, except that any NaN equals any NaN: which
    /// payload survives when two NaNs meet in one FMA is the instruction's
    /// operand order, which no build (and not the reference) promises.
    fn assert_same(got: &[f32], want: &[f32], label: &str) {
        assert_eq!(got.len(), want.len(), "{label}: length");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{label}: element {at} is {g:e} ({:#010x}), reference {w:e} ({:#010x})",
                g.to_bits(),
                w.to_bits()
            );
        }
    }

    /// The `(m, n, k)` grid: every row-tile and column-tile remainder of both
    /// tile shapes (rows around the scalar `4` and the AVX-512 `12`, one and
    /// two tiles deep), a few depths, and the eight products of one
    /// `train_torus` backward/forward pass.
    fn shapes() -> Vec<(usize, usize, usize)> {
        let mut shapes = Vec::new();
        for m in [1, 5, 6, 7, 11, 12, 13, 23, 24, 25] {
            for n in [1, 10, 15, 16, 17, 31, 32, 33, 48, 50, 64] {
                for k in [1, 2, 50, 128] {
                    shapes.push((m, n, k));
                }
            }
        }
        shapes.extend([
            (96, 256, 512),
            (96, 128, 256),
            (96, 50, 128),
            (512, 256, 96),
            (256, 128, 96),
            (128, 50, 96),
            (96, 128, 50),
            (96, 256, 128),
        ]);
        shapes
    }

    /// Runs one build as each of the three products on one shape and checks
    /// it against [`reference`].
    fn check_build(
        name: &str,
        build: GemmBuild,
        (m, n, k): (usize, usize, usize),
        a_seeding: Seeding,
        b_seeding: Seeding,
    ) {
        let mut rng = FastRng::new(0x6e33, (m * 1_000_003 + n * 1_009 + k) as u64);
        let label =
            |kind: &str| format!("{name} {kind} m={m} n={n} k={k} a={a_seeding:?} b={b_seeding:?}");
        let a = operand(m * k, a_seeding, &mut rng);
        let b = operand(k * n, b_seeding, &mut rng);
        // Stale values in `out` must not leak into the result.
        let mut got = vec![7.0f32; m * n];
        let want = reference((m, n, k), |i, kk| a[i * k + kk], |kk, j| b[kk * n + j], 0.0);
        run(build, m, n, k, &a, (k, 1), &b, 0.0, &mut got);
        assert_same(&got, &want, &label("nn"));

        // The same `a` buffer read as k × m.
        let want = reference((m, n, k), |i, kk| a[kk * m + i], |kk, j| b[kk * n + j], 0.0);
        got.fill(7.0);
        run(build, m, n, k, &a, (1, m), &b, 0.0, &mut got);
        assert_same(&got, &want, &label("tn"));

        // The same `b` buffer read as n × k, through the packed panel.
        let want = reference(
            (m, n, k),
            |i, kk| a[i * k + kk],
            |kk, j| b[j * k + kk],
            -0.0,
        );
        let mut panel = vec![0.0f32; k * n];
        transpose_into(n, k, &b, &mut panel);
        got.fill(7.0);
        run(build, m, n, k, &a, (k, 1), &panel, -0.0, &mut got);
        assert_same(&got, &want, &label("nt"));
    }

    /// Every ISA build equals the `mul_add` reference, bit for bit, on the
    /// full shape grid with plain, ReLU-sparse and special-value left
    /// operands.
    #[test]
    fn gemm_builds_match_reference() {
        for (name, build) in gemm_builds() {
            for shape in shapes() {
                for a_seeding in [Seeding::Plain, Seeding::Relu, Seeding::Specials] {
                    check_build(name, build, shape, a_seeding, Seeding::Plain);
                }
            }
        }
    }

    /// No product needs a finite `b`: every build agrees with the reference
    /// on `±∞` / NaN in either operand.
    #[test]
    fn gemm_builds_match_reference_with_non_finite_b() {
        for (name, build) in gemm_builds() {
            for shape in shapes() {
                check_build(name, build, shape, Seeding::Specials, Seeding::Specials);
            }
        }
    }

    /// Every build as each product, and each entry point, on a `13 × 33`
    /// output whose every element has the terms `a_k[kk] · b_k[kk]`; each
    /// element must be `want` (any NaN for a NaN).
    fn check_every_element(a_k: &[f32], b_k: &[f32], want: f32) {
        let (m, n, k) = (13, 33, a_k.len());
        // Row-major m × k and k × m left operands, k × n and n × k right ones.
        let a_nn: Vec<f32> = (0..m * k).map(|at| a_k[at % k]).collect();
        let a_tn: Vec<f32> = (0..k * m).map(|at| a_k[at / m]).collect();
        let b_kn: Vec<f32> = (0..k * n).map(|at| b_k[at / n]).collect();
        let b_nk: Vec<f32> = (0..n * k).map(|at| b_k[at % k]).collect();
        let want = vec![want; m * n];
        let mut got = vec![7.0f32; m * n];
        for (name, build) in gemm_builds() {
            run(build, m, n, k, &a_nn, (k, 1), &b_kn, 0.0, &mut got);
            assert_same(&got, &want, &format!("{name} nn"));
            run(build, m, n, k, &a_tn, (1, m), &b_kn, 0.0, &mut got);
            assert_same(&got, &want, &format!("{name} tn"));
            run(build, m, n, k, &a_nn, (k, 1), &b_kn, -0.0, &mut got);
            assert_same(&got, &want, &format!("{name} nt"));
        }
        matmul_into(m, k, n, &a_nn, &b_kn, &mut got);
        assert_same(&got, &want, "matmul_into");
        matmul_tn_into(k, m, n, &a_tn, &b_kn, &mut got);
        assert_same(&got, &want, "matmul_tn_into");
        matmul_nt_into(m, k, n, &a_nn, &b_nk, &mut Vec::new(), &mut got);
        assert_same(&got, &want, "matmul_nt_into");
    }

    /// IEEE `0 · ∞ = NaN` reaches the output of every build and every
    /// product: a zero activation against an infinite weight is a term like
    /// any other.
    #[test]
    fn zero_times_infinity_is_nan_through_every_build() {
        check_every_element(&[0.0, 1.0], &[f32::INFINITY, 2.0], f32::NAN);
        check_every_element(&[1.0, -0.0], &[2.0, f32::NEG_INFINITY], f32::NAN);
    }

    /// The accumulator only an FMA leaves at `−0.0`: the smallest subnormal
    /// times `−0.5` is exactly `−2⁻¹⁵⁰`, which one fused rounding takes to
    /// `−0.0` from either zero start (a multiply rounded on its own, then
    /// added to `+0.0`, would give `+0.0`). A following `0 · 1` term must
    /// then be taken, not skipped: `fma(0, 1, −0.0) = +0.0`.
    #[test]
    fn underflow_to_negative_zero_is_one_fma_and_no_term_is_skipped() {
        let tiny = f32::from_bits(1);
        check_every_element(&[tiny], &[-0.5], -0.0);
        check_every_element(&[tiny, 0.0], &[-0.5, 1.0], 0.0);
    }

    /// `matmul_nt` starts from the `−0.0` of `Iterator::sum::<f32>`: a row
    /// whose products are all `−0.0` sums to `−0.0`, where the `+0.0`-seeded
    /// products give `+0.0`.
    #[test]
    fn nt_seed_is_negative_zero() {
        for (m, n, k) in [(1, 1, 1), (7, 33, 50), (6, 16, 2)] {
            let a = vec![1.5f32; m * k];
            let b = vec![-0.0f32; n * k];
            let want = reference(
                (m, n, k),
                |i, kk| a[i * k + kk],
                |kk, j| b[j * k + kk],
                -0.0,
            );
            assert!(want.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            for (name, build) in gemm_builds() {
                let mut got = vec![7.0f32; m * n];
                run(build, m, n, k, &a, (k, 1), &b, -0.0, &mut got);
                assert_same(&got, &want, &format!("{name} nt seed"));
            }
            let mut got = vec![7.0f32; m * n];
            matmul_nt_into(m, k, n, &a, &b, &mut Vec::new(), &mut got);
            assert_same(&got, &want, "nt seed through the entry point");
            // The `+=` products over the same operands: `+0.0 + −0.0 = +0.0`.
            matmul_into(m, k, n, &a, &b, &mut got);
            assert!(got.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        }
    }

    /// Degenerate shapes go through the entry points without touching
    /// memory they do not own.
    #[test]
    fn empty_dimensions() {
        let mut out = [7.0f32; 6];
        matmul_into(2, 0, 3, &[], &[], &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        matmul_tn_into(0, 2, 3, &[], &[], &mut out);
        assert!(out.iter().all(|v| v.to_bits() == 0.0f32.to_bits()));
        matmul_nt_into(2, 0, 3, &[], &[], &mut Vec::new(), &mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
        matmul_into(0, 4, 3, &[], &[0.0; 12], &mut []);
        matmul_into(3, 4, 0, &[0.0; 12], &[], &mut []);
    }

    /// The dispatched transpose (the AVX-512 register transpose on a host
    /// that has it) writes the bits of the scalar loop for every shape with
    /// rows and cols in {1, 15, 16, 17, 33, 50, 64, 128, 512}: full blocks,
    /// ragged right columns, ragged bottom rows, and shapes with no full
    /// block. Sources are raw bit patterns, signalling NaNs included.
    #[test]
    fn transpose_builds_match_scalar() {
        const SIDES: [usize; 9] = [1, 15, 16, 17, 33, 50, 64, 128, 512];
        for rows in SIDES {
            for cols in SIDES {
                let mut rng = FastRng::new(0x7a, (rows * 1_000 + cols) as u64);
                let src: Vec<f32> = (0..rows * cols)
                    .map(|_| f32::from_bits(rng.next_u64() as u32))
                    .collect();
                let mut want = vec![0.0f32; rows * cols];
                transpose_scalar(rows, cols, &src, &mut want);
                for r in [0, rows / 2, rows - 1] {
                    for c in [0, cols / 2, cols - 1] {
                        assert_eq!(want[c * rows + r].to_bits(), src[r * cols + c].to_bits());
                    }
                }
                let mut got = vec![7.0f32; rows * cols];
                transpose_into(rows, cols, &src, &mut got);
                let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert!(bits(&got) == bits(&want), "{rows} x {cols}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "a is too short for its strides")]
    fn gemm_rejects_a_short_left_operand() {
        gemm(2, 2, 2, &[0.0; 3], 2, 1, &[0.0; 4], 0.0, &mut [0.0; 4]);
    }
}
