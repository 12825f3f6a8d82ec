//! ZFP-like transform-based error-bounded compressor.
//!
//! The volume is padded to a multiple of 4 in every direction and tiled into
//! `4 × 4 × 4` blocks.  Each block is decorrelated with a separable
//! orthonormal 4-point DCT-II (a near-orthogonal transform in the same
//! spirit as ZFP's lifted transform), the coefficients are uniformly
//! quantised with a step chosen so that the worst-case reconstruction error
//! stays below the requested bound, and the quantisation codes are
//! range-coded with a histogram model.
//!
//! Because the transform is orthonormal along each axis, a per-coefficient
//! quantisation error of `δ` can grow by at most a factor of `2` per axis in
//! the reconstructed samples (`Σ|basis| ≤ 2` for the 4-point DCT rows), so a
//! step of `eb / 8` guarantees `|x − x̂| ≤ eb` for 3-D blocks.
//!
//! Hot-path organisation mirrors `szlike`: tiles fully inside the volume
//! (the vast majority) gather and scatter whole 4-element rows with hoisted
//! bounds checks, only edge tiles pay the clamped `padded_at` path; the DCT
//! basis is computed once per process; the separable transform and the
//! branchless quantiser dispatch through [`gld_kernels`] to the best SIMD
//! backend the host supports; and the per-block code/escape vectors come
//! from a caller-provided [`ZfpScratch`].

use crate::header::{volume_dims, BlockHeader, Codec};
use crate::{BaselineError, ErrorBoundedCompressor};
use gld_entropy::{write_u32_section, HistogramModel, RangeDecoder, RangeEncoder, ReadError};
use gld_kernels::kernels;
use gld_tensor::Tensor;
use std::sync::OnceLock;

/// Block edge length.
const BLOCK: usize = 4;
/// Sentinel marking an escaped coefficient; magnitudes beyond
/// [`gld_kernels::ZFP_MAX_CODE`] escape to raw 32-bit storage.
pub(crate) const ESCAPE: i32 = gld_kernels::ZFP_ESCAPE;
/// Worst-case amplification of per-coefficient quantisation error for a
/// separable 3-D orthonormal DCT (2 per axis).
const ERROR_AMPLIFICATION: f32 = 8.0;

/// Reusable per-worker buffers for [`ZfpLikeCompressor::compress_into`].
#[derive(Debug, Clone, Default)]
pub struct ZfpScratch {
    codes: Vec<i32>,
    escapes: Vec<i32>,
}

impl ZfpScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Transform-based error-bounded compressor (ZFP-like).
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpLikeCompressor;

impl ZfpLikeCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        ZfpLikeCompressor
    }

    /// Compresses `data` into `out` (appended), reusing `scratch`.  Output
    /// bytes are independent of the scratch's previous contents.
    pub fn compress_into(
        &self,
        data: &Tensor,
        abs_error: f32,
        scratch: &mut ZfpScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), BaselineError> {
        self.compress_into_shared(data, abs_error, None, scratch, out)
    }

    /// [`ZfpLikeCompressor::compress_into`] with an optional **shared**
    /// histogram model (the container's cross-frame entropy profile): when
    /// it covers every coefficient code the frame references it through
    /// [`crate::SHARED_MODEL_SENTINEL`] instead of fitting and embedding its
    /// own, and must be decoded through
    /// [`ZfpLikeCompressor::decompress_shared`] with the same model.
    pub fn compress_into_shared(
        &self,
        data: &Tensor,
        abs_error: f32,
        shared: Option<&HistogramModel>,
        scratch: &mut ZfpScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), BaselineError> {
        assert!(abs_error > 0.0, "absolute error bound must be positive");
        let (d0, d1, d2) = volume_dims(data.dims())?;
        let (p0, p1, p2) = (
            d0.div_ceil(BLOCK) * BLOCK,
            d1.div_ceil(BLOCK) * BLOCK,
            d2.div_ceil(BLOCK) * BLOCK,
        );
        let src = data.data();
        // Pad by edge replication so padding does not create artificial
        // discontinuities (wasted bits).
        let padded_at = |i: usize, j: usize, k: usize| -> f32 {
            let i = i.min(d0 - 1);
            let j = j.min(d1 - 1);
            let k = k.min(d2 - 1);
            src[(i * d1 + j) * d2 + k]
        };
        let step = abs_error / ERROR_AMPLIFICATION;
        scratch.codes.clear();
        scratch.codes.reserve(p0 * p1 * p2);
        scratch.escapes.clear();
        let codes = &mut scratch.codes;
        let escapes = &mut scratch.escapes;
        let kern = kernels();
        let mut tile_codes = [0i32; 64];
        for bi in (0..p0).step_by(BLOCK) {
            for bj in (0..p1).step_by(BLOCK) {
                for bk in (0..p2).step_by(BLOCK) {
                    let mut block = [0.0f32; 64];
                    if bi + BLOCK <= d0 && bj + BLOCK <= d1 && bk + BLOCK <= d2 {
                        // Interior tile: whole 4-element rows, no clamping.
                        for i in 0..BLOCK {
                            for j in 0..BLOCK {
                                let base = ((bi + i) * d1 + (bj + j)) * d2 + bk;
                                block[i * 16 + j * 4..i * 16 + j * 4 + 4]
                                    .copy_from_slice(&src[base..base + 4]);
                            }
                        }
                    } else {
                        for i in 0..BLOCK {
                            for j in 0..BLOCK {
                                for k in 0..BLOCK {
                                    block[i * 16 + j * 4 + k] = padded_at(bi + i, bj + j, bk + k);
                                }
                            }
                        }
                    }
                    kern.zfp_transform(&mut block, dct4_basis(), false);
                    // Branchless select between the coded and escape paths
                    // (same decision as the original nested ifs), vectorised
                    // by the active backend.
                    kern.zfp_quantize(&block, step, &mut tile_codes, escapes);
                    codes.extend_from_slice(&tile_codes);
                }
            }
        }

        BlockHeader::new(Codec::ZfpLike, data, abs_error).write(out);
        let section = crate::write_model_section(codes, shared, out);
        let model = section.model.as_ref();
        let mut enc = RangeEncoder::new();
        let mut esc_iter = escapes.iter();
        for &c in codes.iter() {
            match section.overflow {
                Some(overflow) if c == overflow || !model.can_encode(c) => {
                    model.encode_symbol(&mut enc, overflow);
                    enc.encode_bits_raw(c as u32 as u64, 32);
                }
                _ => model.encode_symbol(&mut enc, c),
            }
            if c == ESCAPE {
                let raw = *esc_iter.next().expect("escape value missing");
                enc.encode_bits_raw(raw as u32 as u64, 32);
            }
        }
        let stream = enc.finish();
        write_u32_section(out, &stream);
        Ok(())
    }
}

/// Orthonormal 4-point DCT-II basis (rows are basis vectors), computed once
/// per process.
fn dct4_basis() -> &'static [[f32; 4]; 4] {
    static BASIS: OnceLock<[[f32; 4]; 4]> = OnceLock::new();
    BASIS.get_or_init(|| {
        let mut m = [[0.0f32; 4]; 4];
        for (k, row) in m.iter_mut().enumerate() {
            let scale = if k == 0 {
                (1.0f32 / 4.0).sqrt()
            } else {
                (2.0f32 / 4.0).sqrt()
            };
            for (n, v) in row.iter_mut().enumerate() {
                *v = scale * ((std::f32::consts::PI / 4.0) * (n as f32 + 0.5) * k as f32).cos();
            }
        }
        m
    })
}

/// Full separable forward transform through the active kernel backend
/// (forward: `y_k = Σ basis[k][n] x_n`; the inverse uses the transpose).
#[cfg(test)]
fn forward_transform(block: &mut [f32; 64]) {
    kernels().zfp_transform(block, dct4_basis(), false);
}

fn inverse_transform(block: &mut [f32; 64]) {
    kernels().zfp_transform(block, dct4_basis(), true);
}

impl ErrorBoundedCompressor for ZfpLikeCompressor {
    fn name(&self) -> &'static str {
        "ZFP-like"
    }

    fn try_compress(&self, data: &Tensor, abs_error: f32) -> Result<Vec<u8>, BaselineError> {
        let mut out = Vec::new();
        self.compress_into(data, abs_error, &mut ZfpScratch::new(), &mut out)?;
        Ok(out)
    }

    fn try_decompress(&self, bytes: &[u8]) -> Result<Tensor, ReadError> {
        self.decompress_shared(bytes, None)
    }
}

impl ZfpLikeCompressor {
    /// [`ErrorBoundedCompressor::decompress`] with an optional shared
    /// histogram model: required for frames written through
    /// [`ZfpLikeCompressor::compress_into_shared`] that carry the
    /// shared-model sentinel, ignored by frames embedding their own model.
    pub fn decompress_shared(
        &self,
        bytes: &[u8],
        shared: Option<&HistogramModel>,
    ) -> Result<Tensor, ReadError> {
        let (header, section, stream) = crate::read_frame(bytes, Codec::ZfpLike, shared)?;
        let model = section.model.as_ref();
        let overflow = section.overflow;

        let (d0, d1, d2) = volume_dims(&header.dims).expect("BlockHeader::read checked the rank");
        let (p0, p1, p2) = (
            d0.div_ceil(BLOCK) * BLOCK,
            d1.div_ceil(BLOCK) * BLOCK,
            d2.div_ceil(BLOCK) * BLOCK,
        );
        let step = header.abs_error / ERROR_AMPLIFICATION;
        let mut dec = RangeDecoder::new(stream);
        let mut recon = vec![0.0f32; d0 * d1 * d2];
        for bi in (0..p0).step_by(BLOCK) {
            for bj in (0..p1).step_by(BLOCK) {
                for bk in (0..p2).step_by(BLOCK) {
                    let mut block = [0.0f32; 64];
                    for v in block.iter_mut() {
                        let code = crate::read_code(model, overflow, &mut dec);
                        let q = if code == ESCAPE {
                            dec.decode_bits_raw(32) as u32 as i32
                        } else {
                            code
                        };
                        *v = q as f32 * step;
                    }
                    inverse_transform(&mut block);
                    if bi + BLOCK <= d0 && bj + BLOCK <= d1 && bk + BLOCK <= d2 {
                        // Interior tile: whole-row scatter, no bounds tests.
                        for i in 0..BLOCK {
                            for j in 0..BLOCK {
                                let base = ((bi + i) * d1 + (bj + j)) * d2 + bk;
                                recon[base..base + 4]
                                    .copy_from_slice(&block[i * 16 + j * 4..i * 16 + j * 4 + 4]);
                            }
                        }
                    } else {
                        for i in 0..BLOCK {
                            for j in 0..BLOCK {
                                for k in 0..BLOCK {
                                    let (gi, gj, gk) = (bi + i, bj + j, bk + k);
                                    if gi < d0 && gj < d1 && gk < d2 {
                                        recon[(gi * d1 + gj) * d2 + gk] = block[i * 16 + j * 4 + k];
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(Tensor::from_vec(recon, &header.dims))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compression_ratio;
    use crate::szlike::SzCompressor;
    use gld_datasets::{generate, DatasetKind, FieldSpec};
    use gld_tensor::stats::max_abs_error;
    use gld_tensor::TensorRng;
    use proptest::prelude::*;

    #[test]
    fn dct_basis_is_orthonormal() {
        let b = dct4_basis();
        for i in 0..4 {
            for j in 0..4 {
                let dot: f32 = (0..4).map(|k| b[i][k] * b[j][k]).sum();
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!(
                    (dot - expected).abs() < 1e-5,
                    "basis not orthonormal at ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn transform_roundtrip_is_identity() {
        let mut rng = TensorRng::new(0);
        let original: Vec<f32> = rng.randn(&[64]).into_vec();
        let mut block = [0.0f32; 64];
        block.copy_from_slice(&original);
        forward_transform(&mut block);
        inverse_transform(&mut block);
        for (a, b) in block.iter().zip(original.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn shared_model_sentinel_roundtrips_smaller() {
        let spec = FieldSpec::new(1, 4, 16, 16);
        let ds = generate(DatasetKind::Jhtdb, &spec, 9);
        let data = &ds.variables[0].frames;
        let zfp = ZfpLikeCompressor::new();
        let mut scratch = ZfpScratch::new();
        let cold = zfp.compress(data, 1e-2);
        let model = crate::embedded_frame_model(&cold).expect("cold frame embeds its model");
        let mut shared = Vec::new();
        zfp.compress_into_shared(data, 1e-2, Some(&model), &mut scratch, &mut shared)
            .unwrap();
        assert!(
            shared.len() < cold.len(),
            "shared {} should drop the model table of cold {}",
            shared.len(),
            cold.len()
        );
        assert!(crate::embedded_frame_model(&shared).is_none());
        let recon = zfp.decompress_shared(&shared, Some(&model)).unwrap();
        assert_eq!(recon.data(), zfp.decompress(&cold).data());
    }

    #[test]
    fn shared_model_falls_back_to_embedded_fit_when_overflow_coding_loses() {
        // A checkerboard's DCT coefficients repeat a handful of distinct
        // codes across every tile, all outside a constant-fitted model:
        // raw 32-bit overflow coding per occurrence loses to a tiny
        // embedded fit, so the frame must fall back byte-identical to cold.
        let zfp = ZfpLikeCompressor::new();
        let mut scratch = ZfpScratch::new();
        let constant = Tensor::full(&[4, 8, 8], 1.0);
        let narrow = crate::embedded_frame_model(&zfp.compress(&constant, 1e-2)).unwrap();
        let board = Tensor::from_vec(
            (0..4 * 8 * 8)
                .map(|i| (((i / 64) + (i / 8) % 8 + i % 8) % 2) as f32)
                .collect(),
            &[4, 8, 8],
        );
        let mut shared = Vec::new();
        zfp.compress_into_shared(&board, 1e-2, Some(&narrow), &mut scratch, &mut shared)
            .unwrap();
        assert_eq!(shared, zfp.compress(&board, 1e-2));
    }

    #[test]
    fn shared_model_overflow_codes_escaping_values_and_still_wins() {
        // Noise under a narrow model: overflow coding beats serialising a
        // near-unique sparse model, so the frame stays shared and must
        // round-trip exactly through the overflow path.
        let zfp = ZfpLikeCompressor::new();
        let mut scratch = ZfpScratch::new();
        let constant = Tensor::full(&[4, 8, 8], 1.0);
        let narrow = crate::embedded_frame_model(&zfp.compress(&constant, 1e-2)).unwrap();
        let mut rng = TensorRng::new(13);
        let noise = rng.randn(&[4, 8, 8]).scale(4.0);
        let mut shared = Vec::new();
        zfp.compress_into_shared(&noise, 1e-2, Some(&narrow), &mut scratch, &mut shared)
            .unwrap();
        let cold = zfp.compress(&noise, 1e-2);
        assert!(
            shared.len() < cold.len(),
            "overflow coding {} should beat the embedded fit {}",
            shared.len(),
            cold.len()
        );
        assert!(crate::embedded_frame_model(&shared).is_none());
        let recon = zfp.decompress_shared(&shared, Some(&narrow)).unwrap();
        assert_eq!(recon.data(), zfp.decompress(&cold).data());
    }

    #[test]
    fn error_bound_holds_on_all_synthetic_datasets() {
        let spec = FieldSpec::new(1, 8, 16, 16);
        let zfp = ZfpLikeCompressor::new();
        for kind in DatasetKind::all() {
            let ds = generate(kind, &spec, 4);
            let frames = &ds.variables[0].frames;
            let range = frames.max() - frames.min();
            let eb = 1e-2 * range;
            let (recon, size) = zfp.roundtrip(frames, eb);
            let err = max_abs_error(frames, &recon);
            assert!(
                err <= eb * 1.0001,
                "error {err} exceeds bound {eb} on {kind:?}"
            );
            assert!(
                compression_ratio(frames, size) > 1.0,
                "no compression on {kind:?}"
            );
        }
    }

    #[test]
    fn error_bound_holds_on_non_multiple_of_four_shapes() {
        let mut rng = TensorRng::new(9);
        let zfp = ZfpLikeCompressor::new();
        for dims in [vec![3usize, 7, 9], vec![5, 5], vec![17]] {
            let data = rng.randn(&dims).scale(3.0);
            let (recon, _) = zfp.roundtrip(&data, 0.05);
            assert_eq!(recon.dims(), data.dims());
            assert!(
                max_abs_error(&data, &recon) <= 0.05 * 1.0001,
                "dims {dims:?}"
            );
        }
    }

    #[test]
    fn larger_bound_gives_higher_ratio() {
        let spec = FieldSpec::new(1, 8, 16, 16);
        let ds = generate(DatasetKind::S3d, &spec, 8);
        let frames = &ds.variables[0].frames;
        let range = frames.max() - frames.min();
        let zfp = ZfpLikeCompressor::new();
        let loose = zfp.compress(frames, 1e-2 * range).len();
        let tight = zfp.compress(frames, 1e-4 * range).len();
        assert!(loose < tight);
    }

    #[test]
    fn rank5_input_is_a_typed_error_not_a_panic() {
        let zfp = ZfpLikeCompressor::new();
        let t = Tensor::zeros(&[2, 2, 2, 2, 2]);
        let err = zfp.try_compress(&t, 1e-3).unwrap_err();
        assert_eq!(err, crate::BaselineError::UnsupportedRank { rank: 5 });
    }

    #[test]
    fn dirty_scratch_produces_identical_frames() {
        let mut rng = TensorRng::new(11);
        let zfp = ZfpLikeCompressor::new();
        let mut scratch = ZfpScratch::new();
        for dims in [vec![4usize, 8, 8], vec![3, 7, 9], vec![5, 5], vec![17]] {
            let data = rng.randn(&dims).scale(3.0);
            let mut reused = Vec::new();
            zfp.compress_into(&data, 0.05, &mut scratch, &mut reused)
                .unwrap();
            let fresh = zfp.compress(&data, 0.05);
            assert_eq!(reused, fresh, "dims {dims:?}");
        }
    }

    #[test]
    fn prediction_based_beats_transform_based_on_smooth_fields() {
        // The paper's Figure 3 shows SZ3 dominating ZFP on these datasets;
        // verify the same ordering for our reimplementations on the smooth
        // climate-like data at a matched error bound.
        let spec = FieldSpec::new(1, 8, 16, 16);
        let ds = generate(DatasetKind::E3sm, &spec, 6);
        let frames = &ds.variables[0].frames;
        let range = frames.max() - frames.min();
        let eb = 1e-3 * range;
        let sz_size = SzCompressor::new().compress(frames, eb).len();
        let zfp_size = ZfpLikeCompressor::new().compress(frames, eb).len();
        assert!(
            sz_size < zfp_size,
            "SZ3-like ({sz_size} B) should beat ZFP-like ({zfp_size} B) on smooth data"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_error_bound_always_holds(
            seed in 0u64..300,
            d0 in 1usize..5,
            d1 in 3usize..10,
            d2 in 3usize..10,
            eb in 0.01f32..0.5,
        ) {
            let mut rng = TensorRng::new(seed);
            let data = rng.randn(&[d0, d1, d2]).scale(4.0);
            let zfp = ZfpLikeCompressor::new();
            let (recon, _) = zfp.roundtrip(&data, eb);
            prop_assert!(max_abs_error(&data, &recon) <= eb * 1.0001);
        }
    }
}
