//! Portable scalar reference kernels.  Every SIMD backend is proven
//! bit-identical to the functions in this module; their bodies are the
//! semantics of the crate and must only change together with every
//! accelerated path.

use crate::{SzPlane, SZ_MAX_CODE, SZ_UNPREDICTABLE, ZFP_ESCAPE, ZFP_MAX_CODE};

/// Branchless quantisation of one SZ residual: returns the code to emit,
/// the reconstructed value and whether the cell was predictable.  The
/// non-short-circuiting `&` lets the compiler turn the selection into
/// conditional moves.
#[inline(always)]
pub fn sz_quantize_cell(val: f32, pred: f32, two_eb: f32, abs_error: f32) -> (i32, f32, bool) {
    let q_f = ((val - pred) / two_eb).round();
    let q_i = q_f as i32;
    let rec = pred + q_f * two_eb;
    let ok = (q_f.abs() <= SZ_MAX_CODE as f32) & ((rec - val).abs() <= abs_error) & rec.is_finite();
    (
        if ok { q_i } else { SZ_UNPREDICTABLE },
        if ok { rec } else { val },
        ok,
    )
}

/// Row-wise interior walk of one plane: the allocation-free branchless loop
/// with the three `k - 1` neighbours carried in registers.  Association
/// order of the Lorenzo prediction is load-bearing — it matches the frozen
/// `gld_baselines::reference` walk bit for bit.
pub(crate) fn sz_plane(p: &mut SzPlane<'_>) {
    let d2 = p.d2;
    for j in 1..p.d1 {
        let row = j * d2;
        let (before, cur) = p.recon.split_at_mut(row);
        let cur_row = &mut cur[..d2];
        let prev_row = &before[row - d2..row];
        let pp_row = &p.prev[row..row + d2];
        let ppp_row = &p.prev[row - d2..row];
        let src_row = &p.src[row..row + d2];
        let codes_row = &mut p.codes[row..row + d2];
        let mut left = cur_row[0];
        let mut pr_left = prev_row[0];
        let mut pp_left = pp_row[0];
        let mut ppp_left = ppp_row[0];
        for k in 1..d2 {
            let val = src_row[k];
            let pred = pp_row[k] + prev_row[k] + left - ppp_row[k] - pp_left - pr_left + ppp_left;
            let (code, rec, _) = sz_quantize_cell(val, pred, p.two_eb, p.abs_error);
            codes_row[k] = code;
            cur_row[k] = rec;
            ppp_left = ppp_row[k];
            pp_left = pp_row[k];
            pr_left = prev_row[k];
            left = rec;
        }
    }
}

/// One 4-point transform pass along `axis` of a flat `4x4x4` tile; the
/// accumulation order (`acc = 0.0; acc += coef * v` for `n = 0..4`) is
/// load-bearing for bit-identity.
fn zfp_transform_axis(block: &mut [f32; 64], basis: &[[f32; 4]; 4], axis: usize, inverse: bool) {
    let stride = match axis {
        0 => 16,
        1 => 4,
        2 => 1,
        _ => unreachable!(),
    };
    for a in 0..4 {
        for b in 0..4 {
            let base = match axis {
                0 => a * 4 + b,
                1 => a * 16 + b,
                2 => a * 16 + b * 4,
                _ => unreachable!(),
            };
            let mut line = [0.0f32; 4];
            for (i, l) in line.iter_mut().enumerate() {
                *l = block[base + i * stride];
            }
            let mut out = [0.0f32; 4];
            for (k, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (n, &v) in line.iter().enumerate() {
                    acc += if inverse { basis[n][k] } else { basis[k][n] } * v;
                }
                *o = acc;
            }
            for (i, &o) in out.iter().enumerate() {
                block[base + i * stride] = o;
            }
        }
    }
}

/// Full separable tile transform: axes `0,1,2` forward, `2,1,0` with the
/// transposed basis for the inverse.
pub(crate) fn zfp_transform(block: &mut [f32; 64], basis: &[[f32; 4]; 4], inverse: bool) {
    let axes: [usize; 3] = if inverse { [2, 1, 0] } else { [0, 1, 2] };
    for axis in axes {
        zfp_transform_axis(block, basis, axis, inverse);
    }
}

/// Branchless tile quantisation; escaped coefficients append their clamped
/// raw value in tile order.
pub(crate) fn zfp_quantize(
    block: &[f32; 64],
    step: f32,
    codes: &mut [i32; 64],
    escapes: &mut Vec<i32>,
) {
    for (&c, out) in block.iter().zip(codes.iter_mut()) {
        let q = (c / step).round();
        let ok = (q.abs() <= ZFP_MAX_CODE as f32) & q.is_finite();
        *out = if ok { q as i32 } else { ZFP_ESCAPE };
        if !ok {
            escapes.push(q.clamp(i32::MIN as f32, i32::MAX as f32) as i32);
        }
    }
}

/// Forward scan of the histogram CDF from a LUT-provided starting bin.
#[inline]
pub(crate) fn find_bin(cdf: &[u32], mut bin: usize, target: u32) -> usize {
    while cdf[bin + 1] <= target {
        bin += 1;
    }
    bin
}

/// Longest common prefix of `a` and `b` — the LZ match extension loop.
#[inline]
pub(crate) fn match_len(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// The LZ 4-byte hash for one position.
#[inline(always)]
pub(crate) fn hash4_one(input: &[u8], at: usize, bits: u32) -> u32 {
    let v = u32::from_le_bytes([input[at], input[at + 1], input[at + 2], input[at + 3]]);
    v.wrapping_mul(0x9E37_79B1) >> (32 - bits)
}

/// Hashes of positions `0..out.len()` of `input`.
pub(crate) fn hash4_batch(input: &[u8], bits: u32, out: &mut [u32]) {
    debug_assert!(out.len() + 3 <= input.len() || out.is_empty());
    for (at, o) in out.iter_mut().enumerate() {
        *o = hash4_one(input, at, bits);
    }
}

// ----------------------------------------------------------------------
// GEMM
// ----------------------------------------------------------------------

/// The reference for [`crate::KernelBackend::gemm_f32`]: the i-k-j loop, or
/// for thin outputs its lifted twin — whichever runs, every element is the
/// same in-order, zero-skipping sum of `f32`-rounded products.
pub(crate) fn gemm_f32(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    (m, k, n): (usize, usize, usize),
    a_max: Option<f32>,
) {
    match n {
        0 | 8.. => matmul_ikj(a, b, out, m, k, n),
        _ if k == 0 || lift_threshold(a, b, k, a_max).is_none() => matmul_ikj(a, b, out, m, k, n),
        1 => matmul_thin::<1>(a, b, out, k),
        2 => matmul_thin::<2>(a, b, out, k),
        3 => matmul_thin::<3>(a, b, out, k),
        4 => matmul_thin::<4>(a, b, out, k),
        5 => matmul_thin::<5>(a, b, out, k),
        6 => matmul_thin::<6>(a, b, out, k),
        _ => matmul_thin::<7>(a, b, out, k),
    }
}

/// Whether the lifted kernels may run: they carry `a` and every partial sum
/// times 2⁶⁴, and those must stay finite (`a_max` is the caller's bound on
/// `|a|`; without one `a` is scanned).  If so, returns the magnitude from
/// which a normal `a[i,p]` has no product with a non-zero `b[p,j]` below
/// 2⁻¹²⁶, that is, none whose lifted image needs rounding by hand.
pub(crate) fn lift_threshold(a: &[f32], b: &[f32], k: usize, a_max: Option<f32>) -> Option<f32> {
    // Magnitudes order as their bit patterns do, every NaN above infinity,
    // and integer reductions vectorise.
    let magnitude = |v: &f32| v.to_bits() & 0x7fff_ffff;
    let largest = |x: &[f32]| f32::from_bits(x.iter().map(magnitude).max().unwrap_or(0));
    let (a_max, b_max) = (a_max.unwrap_or_else(|| largest(a)), largest(b));
    if !(a_max <= LIFT_HEADROOM && k as f32 * a_max * b_max <= LIFT_HEADROOM) {
        return None;
    }
    // The least non-zero magnitude of `b`: a zero wraps to the top.
    let least = b.iter().map(|v| magnitude(v).wrapping_sub(1)).min();
    let b_min = f32::from_bits(least.unwrap_or(0).wrapping_add(1));
    // Rounded up, so `threshold · b_min ≥ 2⁻¹²⁶` holds exactly.
    let threshold = ((f32::MIN_POSITIVE as f64 / b_min as f64) as f32).next_up();
    Some(threshold.max(f32::MIN_POSITIVE))
}

/// i-k-j loop order: the inner loop is a contiguous AXPY over the output
/// row, which the compiler auto-vectorises when `n` is wide enough.
pub(crate) fn matmul_ikj(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    out.fill(0.0);
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (p, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let brow = &b[p * n..(p + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow.iter()) {
                *o += av * bv;
            }
        }
    }
}

/// `2^e` for a normal exponent.
pub(crate) const fn pow2(e: i64) -> f64 {
    f64::from_bits(((1023 + e) as u64) << 52)
}

/// The factor [`matmul_thin`] lifts `a` (and so every term and sum) by.
pub(crate) const LIFT: f32 = pow2(64) as f32;
/// Lifted sums stay below `f32::MAX` while `k·max|a|·max|b|` is at most this.
const LIFT_HEADROOM: f32 = pow2(62) as f32;
/// Lifted, the smallest normal `f32` (2⁻¹²⁶) and the spacing of the
/// subnormals below it (2⁻¹⁴⁹).
pub(crate) const LIFTED_MIN_NORMAL: f32 = pow2(64 - 126) as f32;
pub(crate) const LIFTED_SPACING: f32 = pow2(64 - 149) as f32;
/// Adding then subtracting this rounds an `f64` below [`LIFTED_MIN_NORMAL`]
/// to a multiple of [`LIFTED_SPACING`], to nearest and ties to even.
pub(crate) const LIFTED_ROUNDER: f64 = 1.5 * pow2(52 + 64 - 149);

/// Thin outputs (`N` narrower than a vector, e.g. attention's `[L,L]×[L,dh]`):
/// the output row is unrolled, and carried times 2⁶⁴.
///
/// Softmax tails make most of attention's non-zero terms subnormal, and
/// subnormal arithmetic is ~100x slower than normal.  Lifted, nothing is
/// subnormal, and scaling by a power of two commutes with `f32` rounding
/// except in one place: a product below 2⁻¹²⁶ is rounded to a multiple of
/// 2⁻¹⁴⁹, not to 24 bits.  That rounding is applied by hand, so each product
/// and each partial sum is the lifted image of the one [`matmul_ikj`]
/// computes, and the result is bit-identical.
fn matmul_thin<const N: usize>(a: &[f32], b: &[f32], out: &mut [f32], k: usize) {
    let (brows, _) = b.as_chunks::<N>();
    let (orows, _) = out.as_chunks_mut::<N>();
    for (arow, orow) in a.chunks_exact(k).zip(orows) {
        let mut sums = [0.0f32; N];
        for (&av, brow) in arow.iter().zip(brows) {
            if av == 0.0 {
                continue;
            }
            let av = lift(av);
            let mut terms = brow.map(|bv| av * bv);
            if terms.iter().any(|t| t.abs() < LIFTED_MIN_NORMAL) {
                for (term, &bv) in terms.iter_mut().zip(brow) {
                    if term.abs() < LIFTED_MIN_NORMAL {
                        *term = lifted_subnormal_product(av, bv);
                    }
                }
            }
            for (sum, term) in sums.iter_mut().zip(terms) {
                *sum += term;
            }
        }
        *orow = sums.map(|sum| sum * (1.0 / LIFT));
    }
}

/// `v · 2⁶⁴`, reading a subnormal `v` through its bit pattern
/// (`mantissa · 2⁻¹⁴⁹`) rather than through slow subnormal arithmetic.
fn lift(v: f32) -> f32 {
    let bits = v.to_bits();
    if bits & 0x7f80_0000 != 0 {
        return v * LIFT;
    }
    ((bits & 0x007f_ffff) as f32 * LIFTED_SPACING).copysign(v)
}

/// The lifted image of a subnormal product: the exact product (`f64` holds
/// it) rounded once, to a multiple of the lifted subnormal spacing.
#[cold]
fn lifted_subnormal_product(a: f32, b: f32) -> f32 {
    ((a as f64 * b as f64 + LIFTED_ROUNDER) - LIFTED_ROUNDER) as f32
}

// ----------------------------------------------------------------------
// expf
// ----------------------------------------------------------------------

/// `2^(i/32)` for `i = 0..32`, as the bit pattern of the nearest `f64` less
/// `i << 47`: adding `k << 47` for a `k ≡ i (mod 32)` then yields
/// `2^(k/32)`, the exponent `k / 32` carried into the exponent field.
pub(crate) const EXP2_TABLE: [u64; 32] = [
    0x3ff0000000000000,
    0x3fefd9b0d3158574,
    0x3fefb5586cf9890f,
    0x3fef9301d0125b51,
    0x3fef72b83c7d517b,
    0x3fef54873168b9aa,
    0x3fef387a6e756238,
    0x3fef1e9df51fdee1,
    0x3fef06fe0a31b715,
    0x3feef1a7373aa9cb,
    0x3feedea64c123422,
    0x3feece086061892d,
    0x3feebfdad5362a27,
    0x3feeb42b569d4f82,
    0x3feeab07dd485429,
    0x3feea47eb03a5585,
    0x3feea09e667f3bcd,
    0x3fee9f75e8ec5f74,
    0x3feea11473eb0187,
    0x3feea589994cce13,
    0x3feeace5422aa0db,
    0x3feeb737b0cdc5e5,
    0x3feec49182a3f090,
    0x3feed503b23e255d,
    0x3feee89f995ad3ad,
    0x3feeff76f2fb5e47,
    0x3fef199bdd85529c,
    0x3fef3720dcef9069,
    0x3fef5818dcfba487,
    0x3fef7c97337b9b5f,
    0x3fefa4afa2a490da,
    0x3fefd0765b6e4540,
];
/// `32 / ln 2`.
pub(crate) const EXP_INV_LN2_N: f64 = f64::from_bits(0x40471547652b82fe);
/// `1.5 · 2⁵²`: adding it rounds to an integer, ties to even, and leaves
/// that integer in the low bits of the pattern.
pub(crate) const EXP_SHIFT: f64 = f64::from_bits(0x4338000000000000);
/// The polynomial for `2^(r/32)`: `C0·r³ + C1·r² + C2·r + 1`.
pub(crate) const EXP_C: [f64; 3] = [
    f64::from_bits(0x3ebc6af84b912394),
    f64::from_bits(0x3f2ebfce50fac4f3),
    f64::from_bits(0x3f962e42ff0c52d6),
];
/// Above this (`ln 2¹²⁸`, rounded) `expf` overflows to infinity.
pub(crate) const EXP_OVERFLOW: f32 = f32::from_bits(0x42b17217);
/// Below this (`ln 2⁻¹⁵⁰`, rounded) `expf` underflows to zero.
pub(crate) const EXP_UNDERFLOW: f32 = f32::from_bits(0xc2cff1b4);

/// `eˣ`, computed as glibc 2.36's `__expf_fma` computes it, and therefore
/// equal, bit for bit, to the libm `expf` that glibc selects on a CPU with
/// FMA and AVX2 (checked over all 2³² inputs by the `expf_exhaustive`
/// example).
///
/// `x·32/ln 2 = k + r`, with `k` rounded to an integer, ties to even;
/// `eˣ = 2^(k/32) · 2^(r/32)`, the first factor from [`EXP2_TABLE`], the
/// second a cubic.  Every fused multiply-add below is one in `__expf_fma`:
/// the reduction in particular rounds `x·32/ln 2` only once, and a replica
/// that rounds it first differs on two inputs, one of them `-63.09946`.
pub(crate) fn expf(x: f32) -> f32 {
    // `|x| ≥ 88` or NaN: only these can overflow, underflow or be special.
    if (x.to_bits() >> 20) & 0x7ff >= 0x42b {
        if x.is_nan() {
            return x + x;
        }
        if x > EXP_OVERFLOW {
            return f32::INFINITY;
        }
        if x < EXP_UNDERFLOW {
            return 0.0;
        }
    }
    let xd = x as f64;
    let kd = EXP_INV_LN2_N.mul_add(xd, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = EXP_INV_LN2_N.mul_add(xd, -kd);
    let s = f64::from_bits(EXP2_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = EXP_C[0].mul_add(r, EXP_C[1]);
    let y = EXP_C[2].mul_add(r, 1.0);
    let y = z.mul_add(r * r, y);
    (y * s) as f32
}
