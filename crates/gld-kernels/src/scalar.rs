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

// ----------------------------------------------------------------------
// exp (f64) and erf
// ----------------------------------------------------------------------

/// `2^(k/128)` for `k = 0..128`, two words per `k`: the relative tail
/// `T` (nearest `f64` to `2^(k/128)/H − 1`) and the bit pattern of `H`,
/// the nearest `f64` to `2^(k/128)`, less `k << 45`.  Adding `k' << 45`
/// for a `k' ≡ k (mod 128)` then yields `2^(k'/128) ≈ H·(1 + T)`, the
/// exponent `k' / 128` carried into the exponent field.
#[rustfmt::skip]
pub(crate) const EXP_F64_TABLE: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];
/// `128 / ln 2`.
pub(crate) const EXP_F64_INV_LN2_N: f64 = f64::from_bits(0x40671547652b82fe);
/// `−ln 2 / 128`, split so that `k · EXP_F64_NEG_LN2_HI_N` is exact.
pub(crate) const EXP_F64_NEG_LN2_HI_N: f64 = f64::from_bits(0xbf762e42fefa0000);
pub(crate) const EXP_F64_NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0cf79abc9e3b3a);
/// The polynomial for `e^r − 1 − r`: `C2·r² + C3·r³ + C4·r⁴ + C5·r⁵`.
pub(crate) const EXP_F64_C: [f64; 4] = [
    f64::from_bits(0x3fdffffffffffdbd),
    f64::from_bits(0x3fc555555555543c),
    f64::from_bits(0x3fa55555cf172b91),
    f64::from_bits(0x3f81111167a4d017),
];
/// `|x|` below which [`exp`] returns `1 + x` (`2⁻⁵⁴`; `eˣ` rounds to that).
const EXP_F64_TINY: f64 = pow2(-54);

/// `eˣ` for an `f64` with `|x| < 512`, computed as glibc 2.36's
/// `__exp_fma` computes it, and therefore equal, bit for bit, to the libm
/// `exp` that glibc selects on a CPU with FMA and AVX2 (swept by the
/// `exp_erf_sweep` example).  The only caller, [`erf`], asks about
/// `[−38.5, 0]`.  At and above 512 in magnitude glibc takes overflow and
/// subnormal paths that are not replicated: the result there, and for NaN
/// and `±∞`, is unspecified.
///
/// `x·128/ln 2 = k + r′`, with `k` rounded to an integer, ties to even;
/// `eˣ = 2^(k/128) · e^r` with `r = x − k·ln 2/128` in a two-part constant,
/// the first factor from [`EXP_F64_TABLE`], the second a quintic.  Every
/// fused multiply-add below is one the compiler contracted in
/// `__exp_fma`, and every plain operation one it left alone.
pub(crate) fn exp(x: f64) -> f64 {
    if x.abs() < EXP_F64_TINY {
        return 1.0 + x;
    }
    let kd = EXP_F64_INV_LN2_N.mul_add(x, EXP_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXP_SHIFT;
    let r = kd.mul_add(EXP_F64_NEG_LN2_LO_N, kd.mul_add(EXP_F64_NEG_LN2_HI_N, x));
    let idx = 2 * (ki % 128) as usize;
    let tail = f64::from_bits(EXP_F64_TABLE[idx]);
    let scale = f64::from_bits(EXP_F64_TABLE[idx + 1].wrapping_add(ki << 45));
    let [c2, c3, c4, c5] = EXP_F64_C;
    let r2 = r * r;
    let tmp = (r2 * r2).mul_add(r.mul_add(c5, c4), r2.mul_add(r.mul_add(c3, c2), tail + r));
    scale.mul_add(tmp, scale)
}

/// The Abramowitz & Stegun 7.1.26 coefficients `a₅ … a₁` and `p`.
pub(crate) const ERF_A: [f64; 5] = [
    1.061405429,
    1.453152027,
    1.421413741,
    0.284496736,
    0.254829592,
];
pub(crate) const ERF_P: f64 = 0.3275911;
/// [`erf`] clamps its `exp` argument `−x²` here.  Below `ln 2⁻⁵⁴ ≈ −37.43`
/// the exponential is under `2⁻⁵⁴` and `1 − p(t)·t·e^(−x²)` rounds to
/// exactly `1` (`p(t)·t < 1`), so the clamp changes no result, and the
/// exponential is only ever asked for arguments in `[−38.5, 0]`.
pub(crate) const ERF_SATURATION: f64 = -38.5;

/// The error function by the Abramowitz & Stegun 7.1.26 rational
/// approximation (absolute error < 1.5·10⁻⁷), with its exponential from
/// the crate's replica of glibc 2.36's `__exp_fma`
/// ([`KernelBackend::exp_f64`](crate::KernelBackend::exp_f64)): the same
/// bits as that formula over the host's libm `exp` where libm is that
/// function, on every host.  Odd, `erf(±∞) = ±1`, NaN stays NaN.
pub fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + ERF_P * x);
    let e = exp((-x * x).max(ERF_SATURATION));
    let [a5, a4, a3, a2, a1] = ERF_A;
    let y = 1.0 - (((((a5 * t - a4) * t) + a3) * t - a2) * t + a1) * t * e;
    sign * y
}
