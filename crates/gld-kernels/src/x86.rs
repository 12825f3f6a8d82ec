//! x86-64 SIMD backends.
//!
//! [`Sse2Kernels`] uses only the x86-64 baseline instruction set (SSE2), so
//! it is unconditionally available; [`Avx2Kernels`] is gated on runtime
//! `is_x86_feature_detected!("avx2")` by the dispatcher in `lib.rs`.
//!
//! Everything here is bit-identical to `scalar.rs` by construction:
//!
//! * `f32::round` (half away from zero) is emulated as round-to-nearest-even
//!   plus an exact tie fix-up.  `d = x - rint(x)` is exact (Sterbenz), so
//!   `|d| == 0.5` detects ties without double rounding; ties resolve as
//!   `x + copysign(0.5, x)`, which is exact for every representable
//!   half-integer.  The naive `trunc(x + copysign(0.5, x))` would double
//!   round (e.g. `0.49999997f32`).  On SSE2 (no `roundps`) `rint` is
//!   `cvtdq2ps(cvtps2dq(x))` guarded by `|x| < 2^23` — larger magnitudes
//!   (and NaN, which fails the ordered compare) pass through unchanged,
//!   exactly like scalar `round`.  The SSE2 conversion uses the MXCSR
//!   rounding mode, which this workspace never changes from its
//!   round-to-nearest-even default.
//! * `cvtps2dq` differs from scalar `as i32` (INT_MIN sentinel vs
//!   saturation) only for values the `ok` mask already rejects, so the
//!   difference is never observable.
//! * Multiplies and adds are separate intrinsics — LLVM does not contract
//!   them into FMA without fast-math, so lane arithmetic matches scalar
//!   IEEE ops exactly, in the same association order.  The `vfmadd`s of
//!   the `expf` and `f64` `exp` kernels are the scalar replicas'
//!   `f64::mul_add`s, one for one.

use crate::scalar::{
    ERF_A, ERF_P, ERF_SATURATION, EXP2_TABLE, EXP_C, EXP_F64_C, EXP_F64_INV_LN2_N,
    EXP_F64_NEG_LN2_HI_N, EXP_F64_NEG_LN2_LO_N, EXP_F64_TABLE, EXP_INV_LN2_N, EXP_OVERFLOW,
    EXP_SHIFT, EXP_UNDERFLOW, LIFT, LIFTED_MIN_NORMAL, LIFTED_ROUNDER, LIFTED_SPACING,
};
use crate::{
    scalar, Backend, KernelBackend, SzPlane, SZ_MAX_CODE, SZ_UNPREDICTABLE, ZFP_ESCAPE,
    ZFP_MAX_CODE,
};
use std::arch::x86_64::*;

/// Baseline x86-64 vector kernels (SSE2 only, always available).  The
/// Lorenzo plane walk and the hash batch stay on the scalar path: both lean
/// on gathers / 32-bit lane multiplies that SSE2 lacks.
pub(crate) struct Sse2Kernels;

/// AVX2 kernels (runtime-detected): adds the gathered anti-diagonal Lorenzo
/// wavefront, 8-wide tile quantisation, 8-wide bin scan, 32-byte match
/// extension, the interleaved hash batch, the register-tiled GEMM and, where
/// the CPU has FMA too, the four-lane `expf`, `exp` and `erf` replicas.
pub(crate) struct Avx2Kernels;

impl KernelBackend for Sse2Kernels {
    fn backend(&self) -> Backend {
        Backend::Sse2
    }

    fn zfp_transform(&self, block: &mut [f32; 64], basis: &[[f32; 4]; 4], inverse: bool) {
        // SAFETY: SSE2 is part of the x86-64 ABI.
        unsafe { zfp_transform_sse2(block, basis, inverse) }
    }

    fn zfp_quantize(
        &self,
        block: &[f32; 64],
        step: f32,
        codes: &mut [i32; 64],
        escapes: &mut Vec<i32>,
    ) {
        // SAFETY: SSE2 is part of the x86-64 ABI.
        unsafe { zfp_quantize_sse2(block, step, codes, escapes) }
    }

    fn find_bin(&self, cdf: &[u32], bin: usize, target: u32) -> usize {
        // SAFETY: SSE2 is part of the x86-64 ABI.
        unsafe { find_bin_sse2(cdf, bin, target) }
    }

    fn match_len(&self, a: &[u8], b: &[u8]) -> usize {
        // SAFETY: SSE2 is part of the x86-64 ABI.
        unsafe { match_len_sse2(a, b) }
    }
}

impl KernelBackend for Avx2Kernels {
    fn backend(&self) -> Backend {
        Backend::Avx2
    }

    fn sz_quantize_plane(&self, plane: &mut SzPlane<'_>) {
        // Gather offsets are 32-bit; a plane that large never occurs, but
        // degrade safely rather than truncate.
        if plane.d1 < 2 || plane.d2 < 2 || plane.d1 * plane.d2 > i32::MAX as usize {
            return scalar::sz_plane(plane);
        }
        // SAFETY: the dispatcher only hands out this backend when AVX2 is
        // detected; slice lengths are checked by the kernel's caller
        // contract (`SzPlane` invariants) and re-asserted inside.
        unsafe { sz_quantize_plane_avx2(plane) }
    }

    fn zfp_transform(&self, block: &mut [f32; 64], basis: &[[f32; 4]; 4], inverse: bool) {
        // The 4-point lines fit SSE registers exactly; AVX2 adds nothing.
        // SAFETY: SSE2 is part of the x86-64 ABI.
        unsafe { zfp_transform_sse2(block, basis, inverse) }
    }

    fn zfp_quantize(
        &self,
        block: &[f32; 64],
        step: f32,
        codes: &mut [i32; 64],
        escapes: &mut Vec<i32>,
    ) {
        // SAFETY: AVX2 detected (dispatcher invariant).
        unsafe { zfp_quantize_avx2(block, step, codes, escapes) }
    }

    fn find_bin(&self, cdf: &[u32], bin: usize, target: u32) -> usize {
        // SAFETY: AVX2 detected (dispatcher invariant).
        unsafe { find_bin_avx2(cdf, bin, target) }
    }

    fn match_len(&self, a: &[u8], b: &[u8]) -> usize {
        // SAFETY: AVX2 detected (dispatcher invariant).
        unsafe { match_len_avx2(a, b) }
    }

    fn hash4_batch(&self, input: &[u8], bits: u32, out: &mut [u32]) {
        // SAFETY: AVX2 detected (dispatcher invariant).
        unsafe { hash4_batch_avx2(input, bits, out) }
    }

    fn gemm_f32(
        &self,
        a: &[f32],
        b: &[f32],
        out: &mut [f32],
        dims: (usize, usize, usize),
        a_max: Option<f32>,
    ) {
        crate::check_gemm_dims(a, b, out, dims);
        let (m, k, n) = dims;
        // Thin outputs run lifted, like the scalar reference, where they can.
        let threshold = ((1..8).contains(&n) && k > 0)
            .then(|| scalar::lift_threshold(a, b, k, a_max))
            .flatten();
        // SAFETY: AVX2 detected (dispatcher invariant); the kernels index
        // `a`, `b` and `out` as `[m,k]`, `[k,n]` and `[m,n]`, which the
        // length check above makes in bounds.
        unsafe {
            match (threshold, n) {
                (None, _) => gemm_wide_avx2(a.as_ptr(), b.as_ptr(), out.as_mut_ptr(), dims),
                (Some(t), 1) => gemm_thin_avx2::<1>(a, b, out, m, k, t),
                (Some(t), 2) => gemm_thin_avx2::<2>(a, b, out, m, k, t),
                (Some(t), 3) => gemm_thin_avx2::<3>(a, b, out, m, k, t),
                (Some(t), 4) => gemm_thin_avx2::<4>(a, b, out, m, k, t),
                (Some(t), 5) => gemm_thin_avx2::<5>(a, b, out, m, k, t),
                (Some(t), 6) => gemm_thin_avx2::<6>(a, b, out, m, k, t),
                (Some(t), _) => gemm_thin_avx2::<7>(a, b, out, m, k, t),
            }
        }
    }

    fn exp_f32(&self, xs: &mut [f32]) {
        // `Backend::Avx2` promises AVX2 only; the replica needs FMA too.
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 detected (dispatcher invariant), FMA just now.
            unsafe { exp_f32_avx2(xs) }
        } else {
            xs.iter_mut().for_each(|x| *x = scalar::expf(*x));
        }
    }

    fn exp_f64(&self, xs: &mut [f64]) {
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 detected (dispatcher invariant), FMA just now.
            unsafe { exp_f64_avx2(xs) }
        } else {
            xs.iter_mut().for_each(|x| *x = scalar::exp(*x));
        }
    }

    fn erf_f64(&self, xs: &mut [f64]) {
        if std::arch::is_x86_feature_detected!("fma") {
            // SAFETY: AVX2 detected (dispatcher invariant), FMA just now.
            unsafe { erf_f64_avx2(xs) }
        } else {
            xs.iter_mut().for_each(|x| *x = scalar::erf(*x));
        }
    }
}

// ----------------------------------------------------------------------
// Round emulation
// ----------------------------------------------------------------------

/// Exact `f32::round` (half away from zero) on 8 lanes.  See the module
/// docs for why the tie fix-up is exact.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_half_away_avx2(x: __m256) -> __m256 {
    let sign = _mm256_set1_ps(-0.0);
    let half = _mm256_set1_ps(0.5);
    let t = _mm256_round_ps::<{ _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC }>(x);
    let d = _mm256_sub_ps(x, t);
    let tie = _mm256_cmp_ps::<_CMP_EQ_OQ>(_mm256_andnot_ps(sign, d), half);
    let away = _mm256_add_ps(x, _mm256_or_ps(_mm256_and_ps(sign, x), half));
    _mm256_blendv_ps(t, away, tie)
}

/// Exact `f32::round` on 4 lanes without `roundps`: `rint` via the int
/// round-trip under a `|x| < 2^23` guard (NaN and huge values pass
/// through), then the same tie fix-up.
#[inline]
unsafe fn round_half_away_sse2(x: __m128) -> __m128 {
    let sign = _mm_set1_ps(-0.0);
    let half = _mm_set1_ps(0.5);
    let abs_x = _mm_andnot_ps(sign, x);
    let small = _mm_cmplt_ps(abs_x, _mm_set1_ps(8_388_608.0)); // 2^23; NaN -> false
    let t = _mm_cvtepi32_ps(_mm_cvtps_epi32(x));
    let d = _mm_sub_ps(x, t);
    let tie = _mm_cmpeq_ps(_mm_andnot_ps(sign, d), half);
    let away = _mm_add_ps(x, _mm_or_ps(_mm_and_ps(sign, x), half));
    let rounded = _mm_or_ps(_mm_and_ps(tie, away), _mm_andnot_ps(tie, t));
    _mm_or_ps(_mm_and_ps(small, rounded), _mm_andnot_ps(small, x))
}

// ----------------------------------------------------------------------
// SZ Lorenzo wavefront
// ----------------------------------------------------------------------

/// Interior plane walk vectorised along anti-diagonals.
///
/// Within a plane, interior cell `(j, k)` depends on `(j, k-1)`, `(j-1, k)`
/// and `(j-1, k-1)` — all on anti-diagonals `j + k - 1` and `j + k - 2` —
/// so every cell on one anti-diagonal is independent.  Lanes walk 8
/// consecutive rows of a diagonal (memory stride `d2 - 1`), neighbours come
/// in through gathers, and results scatter back through 8 scalar stores
/// (AVX2 has no scatter).  Leftover diagonal cells take the scalar
/// quantiser, so output is bit-identical to the row-wise scalar walk for
/// every plane shape.
#[target_feature(enable = "avx2")]
unsafe fn sz_quantize_plane_avx2(p: &mut SzPlane<'_>) {
    let (d1, d2) = (p.d1, p.d2);
    let n = d1 * d2;
    assert!(
        p.src.len() >= n && p.prev.len() >= n && p.recon.len() >= n && p.codes.len() >= n,
        "SzPlane slices shorter than d1 * d2"
    );
    let src = p.src.as_ptr();
    let prev = p.prev.as_ptr();
    let recon = p.recon.as_mut_ptr();
    let codes = p.codes.as_mut_ptr();

    let two_eb_v = _mm256_set1_ps(p.two_eb);
    let abs_err_v = _mm256_set1_ps(p.abs_error);
    let max_code_v = _mm256_set1_ps(SZ_MAX_CODE as f32);
    let escape_v = _mm256_set1_epi32(SZ_UNPREDICTABLE);
    let inf_v = _mm256_set1_ps(f32::INFINITY);
    let sign_v = _mm256_set1_ps(-0.0);
    let d2_i = d2 as i32;
    let stride = d2_i - 1;
    let lane_off = _mm256_mullo_epi32(
        _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
        _mm256_set1_epi32(stride),
    );

    for d in 2..=(d1 - 1) + (d2 - 1) {
        let j_lo = if d + 1 > d2 { d + 1 - d2 } else { 1 };
        let j_hi = (d1 - 1).min(d - 1); // inclusive
        let mut j = j_lo;
        while j + 7 <= j_hi {
            // Lanes r = 0..8 handle cells (j + r, d - j - r); all gathered
            // neighbours are on earlier diagonals, already written.
            let base = (j * d2 + (d - j)) as i32;
            let idx = _mm256_add_epi32(_mm256_set1_epi32(base), lane_off);
            let idx_l = _mm256_sub_epi32(idx, _mm256_set1_epi32(1));
            let idx_u = _mm256_sub_epi32(idx, _mm256_set1_epi32(d2_i));
            let idx_ul = _mm256_sub_epi32(idx, _mm256_set1_epi32(d2_i + 1));
            let val = _mm256_i32gather_ps::<4>(src, idx);
            let pp = _mm256_i32gather_ps::<4>(prev, idx);
            let ppp = _mm256_i32gather_ps::<4>(prev, idx_u);
            let pp_left = _mm256_i32gather_ps::<4>(prev, idx_l);
            let ppp_left = _mm256_i32gather_ps::<4>(prev, idx_ul);
            let left = _mm256_i32gather_ps::<4>(recon as *const f32, idx_l);
            let prev_r = _mm256_i32gather_ps::<4>(recon as *const f32, idx_u);
            let pr_left = _mm256_i32gather_ps::<4>(recon as *const f32, idx_ul);

            // Same association order as the scalar walk:
            // pp + prev + left - ppp - pp_left - pr_left + ppp_left.
            let mut pred = _mm256_add_ps(pp, prev_r);
            pred = _mm256_add_ps(pred, left);
            pred = _mm256_sub_ps(pred, ppp);
            pred = _mm256_sub_ps(pred, pp_left);
            pred = _mm256_sub_ps(pred, pr_left);
            pred = _mm256_add_ps(pred, ppp_left);

            let q = round_half_away_avx2(_mm256_div_ps(_mm256_sub_ps(val, pred), two_eb_v));
            let q_i = _mm256_cvtps_epi32(q);
            let rec_q = _mm256_add_ps(pred, _mm256_mul_ps(q, two_eb_v));
            let ok = _mm256_and_ps(
                _mm256_and_ps(
                    _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_andnot_ps(sign_v, q), max_code_v),
                    _mm256_cmp_ps::<_CMP_LE_OQ>(
                        _mm256_andnot_ps(sign_v, _mm256_sub_ps(rec_q, val)),
                        abs_err_v,
                    ),
                ),
                _mm256_cmp_ps::<_CMP_LT_OQ>(_mm256_andnot_ps(sign_v, rec_q), inf_v),
            );
            let code = _mm256_blendv_epi8(escape_v, q_i, _mm256_castps_si256(ok));
            let rec = _mm256_blendv_ps(val, rec_q, ok);

            let mut rec_a = [0.0f32; 8];
            let mut code_a = [0i32; 8];
            _mm256_storeu_ps(rec_a.as_mut_ptr(), rec);
            _mm256_storeu_si256(code_a.as_mut_ptr().cast(), code);
            let mut off = base as usize;
            for r in 0..8 {
                *recon.add(off) = rec_a[r];
                *codes.add(off) = code_a[r];
                off += d2 - 1;
            }
            j += 8;
        }
        for jj in j..=j_hi {
            let idx = jj * d2 + (d - jj);
            let pred = *prev.add(idx) + *recon.add(idx - d2) + *recon.add(idx - 1)
                - *prev.add(idx - d2)
                - *prev.add(idx - 1)
                - *recon.add(idx - d2 - 1)
                + *prev.add(idx - d2 - 1);
            let (code, rec, _) =
                scalar::sz_quantize_cell(*src.add(idx), pred, p.two_eb, p.abs_error);
            *codes.add(idx) = code;
            *recon.add(idx) = rec;
        }
    }
}

// ----------------------------------------------------------------------
// ZFP tile transform + quantise
// ----------------------------------------------------------------------

#[inline]
unsafe fn transpose4(
    r0: __m128,
    r1: __m128,
    r2: __m128,
    r3: __m128,
) -> (__m128, __m128, __m128, __m128) {
    let t0 = _mm_unpacklo_ps(r0, r1);
    let t1 = _mm_unpacklo_ps(r2, r3);
    let t2 = _mm_unpackhi_ps(r0, r1);
    let t3 = _mm_unpackhi_ps(r2, r3);
    (
        _mm_movelh_ps(t0, t1),
        _mm_movehl_ps(t1, t0),
        _mm_movelh_ps(t2, t3),
        _mm_movehl_ps(t3, t2),
    )
}

/// Separable tile transform with the four outputs of every 4-point line in
/// lanes.  Per lane the accumulation is `((((0 + t0) + t1) + t2) + t3)` —
/// the scalar loop's order, including the signed-zero-relevant leading add.
unsafe fn zfp_transform_sse2(block: &mut [f32; 64], basis: &[[f32; 4]; 4], inverse: bool) {
    let r0 = _mm_loadu_ps(basis[0].as_ptr());
    let r1 = _mm_loadu_ps(basis[1].as_ptr());
    let r2 = _mm_loadu_ps(basis[2].as_ptr());
    let r3 = _mm_loadu_ps(basis[3].as_ptr());
    // c[n] lane k = coefficient of input n for output k.
    let (c0, c1, c2, c3) = if inverse {
        (r0, r1, r2, r3) // coef(k, n) = basis[n][k]: rows as-is
    } else {
        transpose4(r0, r1, r2, r3) // coef(k, n) = basis[k][n]: columns
    };
    let zero = _mm_setzero_ps();
    let axes: [usize; 3] = if inverse { [2, 1, 0] } else { [0, 1, 2] };
    for axis in axes {
        let stride = [16usize, 4, 1][axis];
        for a in 0..4 {
            for b in 0..4 {
                let base = match axis {
                    0 => a * 4 + b,
                    1 => a * 16 + b,
                    _ => a * 16 + b * 4,
                };
                let line = if stride == 1 {
                    _mm_loadu_ps(block.as_ptr().add(base))
                } else {
                    _mm_setr_ps(
                        block[base],
                        block[base + stride],
                        block[base + 2 * stride],
                        block[base + 3 * stride],
                    )
                };
                let mut acc = _mm_add_ps(zero, _mm_mul_ps(c0, _mm_shuffle_ps::<0x00>(line, line)));
                acc = _mm_add_ps(acc, _mm_mul_ps(c1, _mm_shuffle_ps::<0x55>(line, line)));
                acc = _mm_add_ps(acc, _mm_mul_ps(c2, _mm_shuffle_ps::<0xAA>(line, line)));
                acc = _mm_add_ps(acc, _mm_mul_ps(c3, _mm_shuffle_ps::<0xFF>(line, line)));
                if stride == 1 {
                    _mm_storeu_ps(block.as_mut_ptr().add(base), acc);
                } else {
                    let mut out = [0.0f32; 4];
                    _mm_storeu_ps(out.as_mut_ptr(), acc);
                    for (i, &o) in out.iter().enumerate() {
                        block[base + i * stride] = o;
                    }
                }
            }
        }
    }
}

/// 4-wide tile quantisation.  `|q| <= MAX_CODE` already implies `q` is
/// finite (NaN fails the ordered compare), so one compare reproduces the
/// scalar `ok`; escape lanes recompute `q` scalar-side, which is exact
/// because the division and the round emulation are both bit-identical.
unsafe fn zfp_quantize_sse2(
    block: &[f32; 64],
    step: f32,
    codes: &mut [i32; 64],
    escapes: &mut Vec<i32>,
) {
    let step_v = _mm_set1_ps(step);
    let max_v = _mm_set1_ps(ZFP_MAX_CODE as f32);
    let esc_v = _mm_set1_epi32(ZFP_ESCAPE);
    let sign_v = _mm_set1_ps(-0.0);
    for i in (0..64).step_by(4) {
        let c = _mm_loadu_ps(block.as_ptr().add(i));
        let q = round_half_away_sse2(_mm_div_ps(c, step_v));
        let ok = _mm_cmple_ps(_mm_andnot_ps(sign_v, q), max_v);
        let ok_i = _mm_castps_si128(ok);
        let code = _mm_or_si128(
            _mm_and_si128(ok_i, _mm_cvtps_epi32(q)),
            _mm_andnot_si128(ok_i, esc_v),
        );
        _mm_storeu_si128(codes.as_mut_ptr().add(i).cast(), code);
        let m = _mm_movemask_ps(ok);
        if m != 0xF {
            for l in 0..4 {
                if m & (1 << l) == 0 {
                    let q = (block[i + l] / step).round();
                    escapes.push(q.clamp(i32::MIN as f32, i32::MAX as f32) as i32);
                }
            }
        }
    }
}

/// 8-wide tile quantisation (see [`zfp_quantize_sse2`] for the invariants).
#[target_feature(enable = "avx2")]
unsafe fn zfp_quantize_avx2(
    block: &[f32; 64],
    step: f32,
    codes: &mut [i32; 64],
    escapes: &mut Vec<i32>,
) {
    let step_v = _mm256_set1_ps(step);
    let max_v = _mm256_set1_ps(ZFP_MAX_CODE as f32);
    let esc_v = _mm256_set1_epi32(ZFP_ESCAPE);
    let sign_v = _mm256_set1_ps(-0.0);
    for i in (0..64).step_by(8) {
        let c = _mm256_loadu_ps(block.as_ptr().add(i));
        let q = round_half_away_avx2(_mm256_div_ps(c, step_v));
        let ok = _mm256_cmp_ps::<_CMP_LE_OQ>(_mm256_andnot_ps(sign_v, q), max_v);
        let code = _mm256_blendv_epi8(esc_v, _mm256_cvtps_epi32(q), _mm256_castps_si256(ok));
        _mm256_storeu_si256(codes.as_mut_ptr().add(i).cast(), code);
        let m = _mm256_movemask_ps(ok);
        if m != 0xFF {
            for l in 0..8 {
                if m & (1 << l) == 0 {
                    let q = (block[i + l] / step).round();
                    escapes.push(q.clamp(i32::MIN as f32, i32::MAX as f32) as i32);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Histogram bin scan
// ----------------------------------------------------------------------

/// Unsigned 32-bit `>` via the sign-flip trick (SSE/AVX only have signed
/// integer compares).
#[inline]
unsafe fn find_bin_sse2(cdf: &[u32], mut bin: usize, target: u32) -> usize {
    let flip = _mm_set1_epi32(i32::MIN);
    let target_v = _mm_xor_si128(_mm_set1_epi32(target as i32), flip);
    while bin + 5 <= cdf.len() {
        let v = _mm_loadu_si128(cdf.as_ptr().add(bin + 1).cast());
        let gt = _mm_cmpgt_epi32(_mm_xor_si128(v, flip), target_v);
        let m = _mm_movemask_ps(_mm_castsi128_ps(gt));
        if m != 0 {
            return bin + m.trailing_zeros() as usize;
        }
        bin += 4;
    }
    scalar::find_bin(cdf, bin, target)
}

/// 8-wide variant of [`find_bin_sse2`].
#[target_feature(enable = "avx2")]
unsafe fn find_bin_avx2(cdf: &[u32], mut bin: usize, target: u32) -> usize {
    let flip = _mm256_set1_epi32(i32::MIN);
    let target_v = _mm256_xor_si256(_mm256_set1_epi32(target as i32), flip);
    while bin + 9 <= cdf.len() {
        let v = _mm256_loadu_si256(cdf.as_ptr().add(bin + 1).cast());
        let gt = _mm256_cmpgt_epi32(_mm256_xor_si256(v, flip), target_v);
        let m = _mm256_movemask_ps(_mm256_castsi256_ps(gt));
        if m != 0 {
            return bin + m.trailing_zeros() as usize;
        }
        bin += 8;
    }
    scalar::find_bin(cdf, bin, target)
}

// ----------------------------------------------------------------------
// LZ match extension + hash batch
// ----------------------------------------------------------------------

unsafe fn match_len_sse2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 16 <= n {
        let va = _mm_loadu_si128(a.as_ptr().add(i).cast());
        let vb = _mm_loadu_si128(b.as_ptr().add(i).cast());
        let m = _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) as u32;
        if m != 0xFFFF {
            return i + (!m).trailing_zeros() as usize;
        }
        i += 16;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

#[target_feature(enable = "avx2")]
unsafe fn match_len_avx2(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let mut i = 0;
    while i + 32 <= n {
        let va = _mm256_loadu_si256(a.as_ptr().add(i).cast());
        let vb = _mm256_loadu_si256(b.as_ptr().add(i).cast());
        let m = _mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)) as u32;
        if m != u32::MAX {
            return i + (!m).trailing_zeros() as usize;
        }
        i += 32;
    }
    while i < n && a[i] == b[i] {
        i += 1;
    }
    i
}

/// 32 hashes per iteration: four overlapping 32-byte loads give the 4-byte
/// windows at byte offsets `i + 4j + m` in lane `j` of load `m`; after the
/// multiply/shift the four hash vectors are interleaved back into position
/// order with `unpack{lo,hi}_epi{32,64}` + `permute2x128`.
#[target_feature(enable = "avx2")]
unsafe fn hash4_batch_avx2(input: &[u8], bits: u32, out: &mut [u32]) {
    let n = out.len();
    let mul = _mm256_set1_epi32(0x9E37_79B1u32 as i32);
    let shift = _mm_cvtsi32_si128((32 - bits) as i32);
    let mut i = 0;
    // Load `m` reads bytes `i + m .. i + m + 32`; `i + 32 <= n` bounds the
    // furthest byte at `i + 34 < n + 3 <= input.len()`.
    while i + 32 <= n {
        let hash = |off: usize| {
            let v = _mm256_loadu_si256(input.as_ptr().add(i + off).cast());
            _mm256_srl_epi32(_mm256_mullo_epi32(v, mul), shift)
        };
        let (ha, hb, hc, hd) = (hash(0), hash(1), hash(2), hash(3));
        let t0 = _mm256_unpacklo_epi32(ha, hb);
        let t1 = _mm256_unpackhi_epi32(ha, hb);
        let t2 = _mm256_unpacklo_epi32(hc, hd);
        let t3 = _mm256_unpackhi_epi32(hc, hd);
        let u0 = _mm256_unpacklo_epi64(t0, t2);
        let u1 = _mm256_unpackhi_epi64(t0, t2);
        let u2 = _mm256_unpacklo_epi64(t1, t3);
        let u3 = _mm256_unpackhi_epi64(t1, t3);
        let o = out.as_mut_ptr().add(i);
        _mm256_storeu_si256(o.cast(), _mm256_permute2x128_si256::<0x20>(u0, u1));
        _mm256_storeu_si256(o.add(8).cast(), _mm256_permute2x128_si256::<0x20>(u2, u3));
        _mm256_storeu_si256(o.add(16).cast(), _mm256_permute2x128_si256::<0x31>(u0, u1));
        _mm256_storeu_si256(o.add(24).cast(), _mm256_permute2x128_si256::<0x31>(u2, u3));
        i += 32;
    }
    for (at, slot) in out.iter_mut().enumerate().take(n).skip(i) {
        *slot = scalar::hash4_one(input, at, bits);
    }
}

// ----------------------------------------------------------------------
// GEMM
// ----------------------------------------------------------------------

/// All-ones in lanes `0..w`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn first_lanes(w: usize) -> __m256i {
    let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
    _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), lanes)
}

/// Register-tiled GEMM: column blocks of two vectors (the last block one or
/// two), rows four at a time.  Lanes are output columns, so each lane runs
/// the scalar loop's `acc += a[i,p] * b[p,j]` for `p = 0..k` in order — a
/// separate multiply and add — and a zero `a[i,p]` skips its row's update
/// as a whole.
#[target_feature(enable = "avx2")]
unsafe fn gemm_wide_avx2(
    a: *const f32,
    b: *const f32,
    out: *mut f32,
    (m, k, n): (usize, usize, usize),
) {
    for j in (0..n).step_by(16) {
        let w = (n - j).min(16);
        let (b, out) = (b.add(j), out.add(j));
        // A block's last vector is masked to the columns that exist.
        let tail = first_lanes(w - (w - 1) / 8 * 8);
        let mut i = 0;
        while i < m {
            let (a, out) = (a.add(i * k), out.add(i * n));
            match (m - i >= 4, w > 8) {
                (true, true) => gemm_tile_avx2::<4, 2>(a, b, out, k, n, tail),
                (true, false) => gemm_tile_avx2::<4, 1>(a, b, out, k, n, tail),
                (false, true) => gemm_tile_avx2::<1, 2>(a, b, out, k, n, tail),
                (false, false) => gemm_tile_avx2::<1, 1>(a, b, out, k, n, tail),
            }
            i += if m - i >= 4 { 4 } else { 1 };
        }
    }
}

/// `MR` rows by `NV` vectors of columns, accumulated in registers.  `a`,
/// `b` and `out` point at the tile's first row and column; `n` is the row
/// stride of `b` and `out`.  The last vector touches only the lanes of
/// `tail`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tile_avx2<const MR: usize, const NV: usize>(
    a: *const f32,
    b: *const f32,
    out: *mut f32,
    k: usize,
    n: usize,
    tail: __m256i,
) {
    let mut acc = [[_mm256_setzero_ps(); NV]; MR];
    for p in 0..k {
        let mut bv = [_mm256_maskload_ps(b.add(p * n + 8 * (NV - 1)), tail); NV];
        for (v, bv) in bv[..NV - 1].iter_mut().enumerate() {
            *bv = _mm256_loadu_ps(b.add(p * n + 8 * v));
        }
        for (r, acc) in acc.iter_mut().enumerate() {
            let av = *a.add(r * k + p);
            if av != 0.0 {
                let av = _mm256_set1_ps(av);
                for (acc, &bv) in acc.iter_mut().zip(&bv) {
                    *acc = _mm256_add_ps(*acc, _mm256_mul_ps(av, bv));
                }
            }
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        for (v, &acc) in acc[..NV - 1].iter().enumerate() {
            _mm256_storeu_ps(out.add(r * n + 8 * v), acc);
        }
        _mm256_maskstore_ps(out.add(r * n + 8 * (NV - 1)), tail, acc[NV - 1]);
    }
}

/// Thin outputs (`N < 8`), lifted like `scalar::matmul_thin`, with eight
/// output rows in the lanes: an 8×8 block of `a` is transposed in registers
/// and each of its columns `a[i..i+8, p]` multiplied into the `N` running
/// sums.
#[target_feature(enable = "avx2")]
unsafe fn gemm_thin_avx2<const N: usize>(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    m: usize,
    k: usize,
    threshold: f32,
) {
    let zero = _mm256_setzero_ps();
    for i in (0..m).step_by(8) {
        let rows = (m - i).min(8);
        let mut sums = [zero; N];
        for p in (0..k).step_by(8) {
            // Rows past the last one, and lanes past `k`, read as zero.
            let width = (k - p).min(8);
            let mut block = [zero; 8];
            for (r, row) in block.iter_mut().enumerate().take(rows) {
                *row = _mm256_maskload_ps(a.as_ptr().add((i + r) * k + p), first_lanes(width));
            }
            let columns = transpose8_avx2(block);
            for (&av, brow) in columns[..width].iter().zip(b[p * N..].chunks_exact(N)) {
                gemm_thin_step_avx2(&mut sums, av, brow, threshold);
            }
        }
        let mut columns = [[0.0f32; 8]; N];
        for (column, &sum) in columns.iter_mut().zip(&sums) {
            _mm256_storeu_ps(
                column.as_mut_ptr(),
                _mm256_mul_ps(sum, _mm256_set1_ps(1.0 / LIFT)),
            );
        }
        for (r, orow) in out[i * N..(i + rows) * N].chunks_exact_mut(N).enumerate() {
            for (o, column) in orow.iter_mut().zip(&columns) {
                *o = column[r];
            }
        }
    }
}

/// One `p` of [`gemm_thin_avx2`]: `sums[j] += lift(a[.., p]) · b[p, j]`.
///
/// A lane is *ordinary* when its `a[i,p]` is zero — all its terms are zero,
/// `b` being finite, and adding a zero is the scalar skip — or at least
/// `threshold`: then it is normal and none of its non-zero terms is below
/// the lifted 2⁻¹²⁶, so lifting is one multiply and every product is already
/// the lifted image of the scalar one.  A step with any other lane lifts
/// through the bit pattern and rounds its small products by hand, in the
/// same `f64` arithmetic as the scalar kernel.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn gemm_thin_step_avx2<const N: usize>(
    sums: &mut [__m256; N],
    av: __m256,
    brow: &[f32],
    threshold: f32,
) {
    let sign = _mm256_set1_ps(-0.0);
    // Compared as bit patterns: a float compare may stall on a subnormal.
    let magnitude = _mm256_castps_si256(_mm256_andnot_ps(sign, av));
    let below = _mm256_cmpgt_epi32(_mm256_set1_epi32(threshold.to_bits() as i32), magnitude);
    let ordinary = _mm256_or_si256(
        _mm256_cmpeq_epi32(magnitude, _mm256_setzero_si256()),
        _mm256_xor_si256(below, _mm256_set1_epi32(-1)),
    );
    if _mm256_movemask_epi8(ordinary) == -1 {
        let av = _mm256_mul_ps(av, _mm256_set1_ps(LIFT));
        for (sum, &bv) in sums.iter_mut().zip(brow) {
            *sum = _mm256_add_ps(*sum, _mm256_mul_ps(av, _mm256_set1_ps(bv)));
        }
        return;
    }
    let av = lift_avx2(av);
    for (sum, &bv) in sums.iter_mut().zip(brow) {
        let mut term = _mm256_mul_ps(av, _mm256_set1_ps(bv));
        let small = _mm256_cmp_ps::<_CMP_LT_OQ>(
            _mm256_andnot_ps(sign, term),
            _mm256_set1_ps(LIFTED_MIN_NORMAL),
        );
        if _mm256_movemask_ps(small) != 0 {
            term = _mm256_blendv_ps(term, lifted_subnormal_product_avx2(av, bv), small);
        }
        *sum = _mm256_add_ps(*sum, term);
    }
}

/// Transposes an 8×8 block held one row per register: rows interleaved in
/// pairs, the pairs in pairs, then the 128-bit halves exchanged.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn transpose8_avx2(rows: [__m256; 8]) -> [__m256; 8] {
    let (mut pairs, mut quads, mut out) = (rows, rows, rows);
    for i in 0..4 {
        pairs[2 * i] = _mm256_unpacklo_ps(rows[2 * i], rows[2 * i + 1]);
        pairs[2 * i + 1] = _mm256_unpackhi_ps(rows[2 * i], rows[2 * i + 1]);
    }
    for i in 0..4 {
        let (x, y) = (pairs[i / 2 * 4 + i % 2], pairs[i / 2 * 4 + i % 2 + 2]);
        quads[2 * i] = _mm256_shuffle_ps::<0x44>(x, y);
        quads[2 * i + 1] = _mm256_shuffle_ps::<0xEE>(x, y);
    }
    for i in 0..4 {
        out[i] = _mm256_permute2f128_ps::<0x20>(quads[i], quads[i + 4]);
        out[i + 4] = _mm256_permute2f128_ps::<0x31>(quads[i], quads[i + 4]);
    }
    out
}

/// `scalar::lift` on 8 lanes: `v · 2⁶⁴`, a subnormal `v` read through its
/// bit pattern.  (A zero takes that route too and stays a zero.)
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lift_avx2(v: __m256) -> __m256 {
    let bits = _mm256_castps_si256(v);
    let exponent = _mm256_and_si256(bits, _mm256_set1_epi32(0x7f80_0000));
    let subnormal = _mm256_cmpeq_epi32(exponent, _mm256_setzero_si256());
    let units = _mm256_cvtepi32_ps(_mm256_and_si256(bits, _mm256_set1_epi32(0x007f_ffff)));
    let from_units = _mm256_and_ps(
        _mm256_castsi256_ps(subnormal),
        _mm256_or_ps(
            _mm256_mul_ps(units, _mm256_set1_ps(LIFTED_SPACING)),
            _mm256_and_ps(v, _mm256_set1_ps(-0.0)),
        ),
    );
    // Subnormal lanes are kept out of the multiply, which would stall on
    // them — opaquely, or the compiler multiplies first and selects after.
    let normal = std::hint::black_box(_mm256_andnot_ps(_mm256_castsi256_ps(subnormal), v));
    _mm256_or_ps(_mm256_mul_ps(normal, _mm256_set1_ps(LIFT)), from_units)
}

/// `scalar::lifted_subnormal_product` on 8 lanes, four `f64` at a time.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn lifted_subnormal_product_avx2(a: __m256, b: f32) -> __m256 {
    let (b, rounder) = (_mm256_set1_pd(b as f64), _mm256_set1_pd(LIFTED_ROUNDER));
    let lo = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_castps256_ps128(a)), b);
    let hi = _mm256_mul_pd(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(a)), b);
    let lo = _mm256_sub_pd(_mm256_add_pd(lo, rounder), rounder);
    let hi = _mm256_sub_pd(_mm256_add_pd(hi, rounder), rounder);
    _mm256_set_m128(_mm256_cvtpd_ps(hi), _mm256_cvtpd_ps(lo))
}

// ----------------------------------------------------------------------
// expf
// ----------------------------------------------------------------------

/// `scalar::expf` on every element, eight at a time; a tail shorter than
/// eight runs as one padded group.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_f32_avx2(xs: &mut [f32]) {
    let mut eights = xs.chunks_exact_mut(8);
    for chunk in &mut eights {
        let e = exp8_avx2(_mm256_loadu_ps(chunk.as_ptr()));
        _mm256_storeu_ps(chunk.as_mut_ptr(), e);
    }
    let tail = eights.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [0.0f32; 8];
        lanes[..tail.len()].copy_from_slice(tail);
        _mm256_storeu_ps(
            lanes.as_mut_ptr(),
            exp8_avx2(_mm256_loadu_ps(lanes.as_ptr())),
        );
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// `scalar::expf` on eight lanes, run as two groups of four `f64` lanes.
/// Lanes are clamped into `[EXP_UNDERFLOW, EXP_OVERFLOW]` first, so the
/// exponent added to the table entry cannot wrap; overflowing,
/// underflowing and NaN lanes take their result from the comparisons
/// afterwards.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp8_avx2(x: __m256) -> __m256 {
    let over = _mm256_cmp_ps::<_CMP_GT_OQ>(x, _mm256_set1_ps(EXP_OVERFLOW));
    let under = _mm256_cmp_ps::<_CMP_LT_OQ>(x, _mm256_set1_ps(EXP_UNDERFLOW));
    let nan = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    // `maxps` returns its second operand for a NaN lane.
    let clamped = _mm256_min_ps(
        _mm256_max_ps(x, _mm256_set1_ps(EXP_UNDERFLOW)),
        _mm256_set1_ps(EXP_OVERFLOW),
    );
    let lo = exp4_avx2(_mm256_cvtps_pd(_mm256_castps256_ps128(clamped)));
    let hi = exp4_avx2(_mm256_cvtps_pd(_mm256_extractf128_ps::<1>(clamped)));
    let e = _mm256_castsi256_ps(_mm256_set_m128i(hi, lo));
    let e = _mm256_blendv_ps(
        _mm256_andnot_ps(under, e),
        _mm256_set1_ps(f32::INFINITY),
        over,
    );
    _mm256_blendv_ps(e, _mm256_add_ps(x, x), nan)
}

/// The replica's arithmetic on four `f64` lanes, the same fused
/// multiply-adds in the same order, rounded to `f32` bit patterns.
///
/// Converting a result below 2⁻¹²⁶ to `f32` would stall, so the conversion
/// sees at least 2⁻¹²⁶, and the result is also rounded as a whole number of
/// 2⁻¹⁴⁹ units, which for a subnormal is its bit pattern.  The unsigned
/// minimum of the two picks: below 2⁻¹²⁶ the units (at most 2²³, the
/// pattern of 2⁻¹²⁶); in `[2⁻¹²⁶, 2⁻¹²⁵)` both are the same pattern; above,
/// the units outgrow the pattern or overflow the conversion to `0x8000_0000`.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4_avx2(xd: __m256d) -> __m128i {
    let (inv_ln2_n, shift) = (_mm256_set1_pd(EXP_INV_LN2_N), _mm256_set1_pd(EXP_SHIFT));
    let kd = _mm256_fmadd_pd(inv_ln2_n, xd, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmsub_pd(inv_ln2_n, xd, kd);
    // Masked to `0..32`, so every lane reads inside the table.
    let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
    let t = _mm256_i64gather_epi64::<8>(EXP2_TABLE.as_ptr().cast(), index);
    let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
    let z = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[0]), r, _mm256_set1_pd(EXP_C[1]));
    let y = _mm256_fmadd_pd(_mm256_set1_pd(EXP_C[2]), r, _mm256_set1_pd(1.0));
    let y = _mm256_mul_pd(_mm256_fmadd_pd(z, _mm256_mul_pd(r, r), y), s);
    let normal = _mm256_max_pd(y, _mm256_set1_pd(f32::MIN_POSITIVE as f64));
    let pattern = _mm_castps_si128(_mm256_cvtpd_ps(normal));
    let units = _mm256_cvtpd_epi32(_mm256_mul_pd(y, _mm256_set1_pd(SUBNORMAL_UNITS)));
    _mm_min_epu32(pattern, units)
}

/// 2¹⁴⁹: a subnormal `f32` times this is its bit pattern.
const SUBNORMAL_UNITS: f64 = scalar::pow2(149);

// ----------------------------------------------------------------------
// exp (f64) and erf
// ----------------------------------------------------------------------

/// `scalar::exp` on every element, four at a time; a tail shorter than
/// four runs as one padded group.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn exp_f64_avx2(xs: &mut [f64]) {
    let mut fours = xs.chunks_exact_mut(4);
    for chunk in &mut fours {
        let e = exp4_f64_avx2(_mm256_loadu_pd(chunk.as_ptr()));
        _mm256_storeu_pd(chunk.as_mut_ptr(), e);
    }
    let tail = fours.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [0.0f64; 4];
        lanes[..tail.len()].copy_from_slice(tail);
        let e = exp4_f64_avx2(_mm256_loadu_pd(lanes.as_ptr()));
        _mm256_storeu_pd(lanes.as_mut_ptr(), e);
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// `scalar::erf` on every element, four at a time; a tail shorter than four
/// runs as one padded group.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[target_feature(enable = "avx2,fma")]
unsafe fn erf_f64_avx2(xs: &mut [f64]) {
    let mut fours = xs.chunks_exact_mut(4);
    for chunk in &mut fours {
        let e = erf4_avx2(_mm256_loadu_pd(chunk.as_ptr()));
        _mm256_storeu_pd(chunk.as_mut_ptr(), e);
    }
    let tail = fours.into_remainder();
    if !tail.is_empty() {
        let mut lanes = [0.0f64; 4];
        lanes[..tail.len()].copy_from_slice(tail);
        let e = erf4_avx2(_mm256_loadu_pd(lanes.as_ptr()));
        _mm256_storeu_pd(lanes.as_mut_ptr(), e);
        tail.copy_from_slice(&lanes[..tail.len()]);
    }
}

/// `scalar::erf` on four lanes: the same multiplies, adds and the division
/// in the same order, unfused, around [`exp4_f64_avx2`].  The clamped
/// exponent argument lies in `[−38.5, 0]`, all of it on `exp`'s main path
/// (see [`exp4_f64_avx2`] for the tiny arguments).  A NaN lane stays NaN.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn erf4_avx2(x: __m256d) -> __m256d {
    let (one, sign_bit) = (_mm256_set1_pd(1.0), _mm256_set1_pd(-0.0));
    let negative = _mm256_cmp_pd::<_CMP_LT_OQ>(x, _mm256_setzero_pd());
    let sign = _mm256_blendv_pd(one, _mm256_set1_pd(-1.0), negative);
    let a = _mm256_andnot_pd(sign_bit, x);
    let t = _mm256_div_pd(
        one,
        _mm256_add_pd(one, _mm256_mul_pd(_mm256_set1_pd(ERF_P), a)),
    );
    // `maxpd` returns its second operand for a NaN lane, as `f64::max`.
    let arg = _mm256_max_pd(
        _mm256_mul_pd(_mm256_xor_pd(a, sign_bit), a),
        _mm256_set1_pd(ERF_SATURATION),
    );
    let e = exp4_f64_avx2(arg);
    let [a5, a4, a3, a2, a1] = ERF_A.map(|c| _mm256_set1_pd(c));
    let q = _mm256_sub_pd(_mm256_mul_pd(a5, t), a4);
    let q = _mm256_add_pd(_mm256_mul_pd(q, t), a3);
    let q = _mm256_sub_pd(_mm256_mul_pd(q, t), a2);
    let q = _mm256_add_pd(_mm256_mul_pd(q, t), a1);
    let q = _mm256_mul_pd(_mm256_mul_pd(q, t), e);
    _mm256_mul_pd(sign, _mm256_sub_pd(one, q))
}

/// `scalar::exp`'s main path on four lanes, the same fused multiply-adds
/// in the same order.  It is right for every `|x| < 512`: below `2⁻⁵⁴`,
/// where `scalar::exp` returns `1 + x` instead, `k` rounds to 0, the table
/// entry is `(0, 1.0)` and `r = x`, and `x²·C2` is under half an ulp of
/// `x`, so the path ends in `fma(1, x, 1)`, the same rounding of the same
/// sum.  Elsewhere both compute the same unspecified value.
///
/// # Safety
/// The CPU must support AVX2 and FMA.
#[inline]
#[target_feature(enable = "avx2,fma")]
unsafe fn exp4_f64_avx2(x: __m256d) -> __m256d {
    let shift = _mm256_set1_pd(EXP_SHIFT);
    let kd = _mm256_fmadd_pd(_mm256_set1_pd(EXP_F64_INV_LN2_N), x, shift);
    let ki = _mm256_castpd_si256(kd);
    let kd = _mm256_sub_pd(kd, shift);
    let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(EXP_F64_NEG_LN2_HI_N), x);
    let r = _mm256_fmadd_pd(kd, _mm256_set1_pd(EXP_F64_NEG_LN2_LO_N), r);
    // Masked to `0..128`, so every lane reads inside the table.
    let index = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
    let tail = _mm256_i64gather_pd::<8>(EXP_F64_TABLE.as_ptr().cast(), index);
    let base = _mm256_i64gather_epi64::<8>(EXP_F64_TABLE[1..].as_ptr().cast(), index);
    let scale = _mm256_castsi256_pd(_mm256_add_epi64(base, _mm256_slli_epi64::<45>(ki)));
    let [c2, c3, c4, c5] = EXP_F64_C.map(|c| _mm256_set1_pd(c));
    let r2 = _mm256_mul_pd(r, r);
    let low = _mm256_fmadd_pd(r2, _mm256_fmadd_pd(r, c3, c2), _mm256_add_pd(tail, r));
    let tmp = _mm256_fmadd_pd(_mm256_mul_pd(r2, r2), _mm256_fmadd_pd(r, c5, c4), low);
    _mm256_fmadd_pd(scale, tmp, scale)
}
