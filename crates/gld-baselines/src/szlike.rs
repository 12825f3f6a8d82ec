//! SZ3-like prediction-based error-bounded compressor.
//!
//! The scheme follows the classic SZ recipe:
//!
//! 1. walk the volume in raster order and predict every value with a 3-D
//!    Lorenzo predictor evaluated on already-reconstructed neighbours,
//! 2. quantise the prediction residual uniformly with bin width `2·eb`
//!    (which bounds the point-wise error by `eb`),
//! 3. entropy-code the quantisation codes with a histogram model and the
//!    byte-wise range coder; values whose residual falls outside the code
//!    range are stored verbatim ("unpredictable" escapes) and therefore
//!    carry zero error.
//!
//! The hot path is organised for throughput: the Lorenzo walk is split into
//! a **boundary** loop (first plane, first row and first column of each
//! plane — the cells with missing neighbours) and an **interior** loop
//! dispatched through [`gld_kernels`], which runs the branch-free walk with
//! the best SIMD backend the host supports (AVX2 processes eight cells of
//! an anti-diagonal wavefront per step).  Quantisation selects between the
//! coded and verbatim paths with branchless min/select logic, and all
//! per-block buffers come from a caller-provided [`SzScratch`] arena so
//! steady-state compression performs no allocation beyond the output frame.
//! `reference::sz_compress` keeps the original scalar walk; the equivalence
//! suite proves every backend produces byte-identical frames.
//!
//! Like SZ3 itself the method excels on smooth fields, where almost every
//! residual lands in the zero bin.

use crate::header::{volume_dims, BlockHeader, Codec};
use crate::{BaselineError, ErrorBoundedCompressor};
use gld_entropy::{write_u32_section, HistogramModel, RangeDecoder, RangeEncoder, ReadError};
use gld_kernels::{kernels, sz_quantize_cell, SzPlane};
use gld_tensor::Tensor;

/// Sentinel code marking an unpredictable (verbatim) value; residuals whose
/// code would exceed [`gld_kernels::SZ_MAX_CODE`] are stored as raw floats.
pub(crate) const UNPREDICTABLE: i32 = gld_kernels::SZ_UNPREDICTABLE;

/// Reusable per-worker buffers for [`SzCompressor::compress_into`]: the
/// reconstruction plane and the quantisation codes.  Reusing one `SzScratch`
/// across blocks removes every per-block allocation except the output frame
/// itself.
#[derive(Debug, Clone, Default)]
pub struct SzScratch {
    recon: Vec<f32>,
    codes: Vec<i32>,
}

impl SzScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// The reconstruction the last compress call through this scratch
    /// quantised against: value for value what decoding that frame yields
    /// (at most the sign of a zero differs), so an encoder can account its
    /// error without decoding.
    pub fn reconstruction(&self) -> &[f32] {
        &self.recon
    }
}

/// Prediction-based error-bounded compressor (SZ3-like).
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCompressor;

impl SzCompressor {
    /// Creates the compressor.
    pub fn new() -> Self {
        SzCompressor
    }

    /// Compresses `data` into `out` (appended), reusing `scratch` for every
    /// intermediate buffer.  This is the allocation-free hot path behind
    /// both [`ErrorBoundedCompressor::compress`] and the streaming
    /// executor's per-worker arenas; output bytes are identical regardless
    /// of the scratch's previous contents.
    pub fn compress_into(
        &self,
        data: &Tensor,
        abs_error: f32,
        scratch: &mut SzScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), BaselineError> {
        self.compress_into_shared(data, abs_error, None, scratch, out)
    }

    /// [`SzCompressor::compress_into`] with an optional **shared** histogram
    /// model (the container's cross-frame entropy profile).  When `shared`
    /// covers every quantisation code of this block the frame references it
    /// through [`crate::SHARED_MODEL_SENTINEL`] — skipping both the model
    /// fit and its serialised table — and must be decoded through
    /// [`SzCompressor::decompress_shared`] with the same model.  Blocks the
    /// shared model cannot represent fall back to the embedded per-frame
    /// fit, so reconstruction is unconditionally exact to the cold path.
    pub fn compress_into_shared(
        &self,
        data: &Tensor,
        abs_error: f32,
        shared: Option<&gld_entropy::HistogramModel>,
        scratch: &mut SzScratch,
        out: &mut Vec<u8>,
    ) -> Result<(), BaselineError> {
        assert!(abs_error > 0.0, "absolute error bound must be positive");
        let dims = volume_dims(data.dims())?;
        let (d0, d1, d2) = dims;
        let n = d0 * d1 * d2;
        assert_eq!(n, data.numel());
        let src = data.data();
        let two_eb = 2.0 * abs_error;

        scratch.recon.resize(n, 0.0);
        scratch.codes.resize(n, 0);
        let recon = &mut scratch.recon[..];
        let codes = &mut scratch.codes[..];

        // One boundary cell through the generic neighbour-checked path.
        #[inline(always)]
        fn boundary_cell(
            src: &[f32],
            recon: &mut [f32],
            codes: &mut [i32],
            dims: (usize, usize, usize),
            (i, j, k): (usize, usize, usize),
            two_eb: f32,
            abs_error: f32,
        ) {
            let idx = (i * dims.1 + j) * dims.2 + k;
            let pred = lorenzo_predict(recon, dims, i, j, k);
            let (code, rec, _) = sz_quantize_cell(src[idx], pred, two_eb, abs_error);
            codes[idx] = code;
            recon[idx] = rec;
        }

        // Pass 1: prediction + quantisation.  Boundary cells (missing at
        // least one neighbour) take the generic path — the whole first
        // plane, then the first row and first column of each later plane —
        // before the interior of the plane is handed to the active kernel
        // backend.  Every cell is written before any later cell reads it,
        // so stale scratch contents can never leak into the output.
        let plane = d1 * d2;
        let kern = kernels();
        for i in 0..d0 {
            if i == 0 {
                for j in 0..d1 {
                    for k in 0..d2 {
                        boundary_cell(src, recon, codes, dims, (0, j, k), two_eb, abs_error);
                    }
                }
                continue;
            }
            for k in 0..d2 {
                boundary_cell(src, recon, codes, dims, (i, 0, k), two_eb, abs_error);
            }
            for j in 1..d1 {
                boundary_cell(src, recon, codes, dims, (i, j, 0), two_eb, abs_error);
            }
            // Interior (j ≥ 1, k ≥ 1) of this plane: the branch-free walk,
            // dispatched to the selected scalar/SSE2/AVX2 backend.  Every
            // backend is proven bit-identical to the reference walk.
            let (before, cur) = recon.split_at_mut(i * plane);
            kern.sz_quantize_plane(&mut SzPlane {
                src: &src[i * plane..(i + 1) * plane],
                prev: &before[(i - 1) * plane..],
                recon: &mut cur[..plane],
                codes: &mut codes[i * plane..(i + 1) * plane],
                d1,
                d2,
                two_eb,
                abs_error,
            });
        }

        // Pass 2: entropy coding with the table-driven range coder.  An
        // unpredictable cell reconstructs to its source value, so the
        // verbatim escape stream is just `src` at the escape positions.
        // Under a shared profile model, codes outside the model's range ride
        // its overflow symbol plus raw bits instead of forcing a per-frame
        // refit.
        BlockHeader::new(Codec::SzLike, data, abs_error).write(out);
        let section = crate::write_model_section(codes, shared, out);
        let model = section.model.as_ref();
        let mut enc = RangeEncoder::new();
        for (idx, &c) in codes.iter().enumerate() {
            match section.overflow {
                Some(overflow) if c == overflow || !model.can_encode(c) => {
                    model.encode_symbol(&mut enc, overflow);
                    enc.encode_bits_raw(c as u32 as u64, 32);
                }
                _ => model.encode_symbol(&mut enc, c),
            }
            if c == UNPREDICTABLE {
                enc.encode_bits_raw(src[idx].to_bits() as u64, 32);
            }
        }
        let stream = enc.finish();
        write_u32_section(out, &stream);
        Ok(())
    }
}

/// 3-D Lorenzo prediction from reconstructed neighbours (generic
/// neighbour-checked form, used for boundary cells).
#[inline]
fn lorenzo_predict(
    recon: &[f32],
    (d0, d1, d2): (usize, usize, usize),
    i: usize,
    j: usize,
    k: usize,
) -> f32 {
    let at = |ii: isize, jj: isize, kk: isize| -> f32 {
        if ii < 0 || jj < 0 || kk < 0 {
            0.0
        } else {
            recon[(ii as usize * d1 + jj as usize) * d2 + kk as usize]
        }
    };
    let (i, j, k) = (i as isize, j as isize, k as isize);
    let _ = d0;
    at(i - 1, j, k) + at(i, j - 1, k) + at(i, j, k - 1)
        - at(i - 1, j - 1, k)
        - at(i - 1, j, k - 1)
        - at(i, j - 1, k - 1)
        + at(i - 1, j - 1, k - 1)
}

impl ErrorBoundedCompressor for SzCompressor {
    fn name(&self) -> &'static str {
        "SZ3-like"
    }

    fn try_compress(&self, data: &Tensor, abs_error: f32) -> Result<Vec<u8>, BaselineError> {
        let mut out = Vec::new();
        self.compress_into(data, abs_error, &mut SzScratch::new(), &mut out)?;
        Ok(out)
    }

    fn try_decompress(&self, bytes: &[u8]) -> Result<Tensor, ReadError> {
        self.decompress_shared(bytes, None)
    }
}

impl SzCompressor {
    /// [`ErrorBoundedCompressor::decompress`] with an optional shared
    /// histogram model: required for frames written through
    /// [`SzCompressor::compress_into_shared`] that carry the shared-model
    /// sentinel, ignored by frames embedding their own model.
    pub fn decompress_shared(
        &self,
        bytes: &[u8],
        shared: Option<&HistogramModel>,
    ) -> Result<Tensor, ReadError> {
        let (header, section, stream) = crate::read_frame(bytes, Codec::SzLike, shared)?;
        let model = section.model.as_ref();
        let overflow = section.overflow;

        let dims = volume_dims(&header.dims).expect("BlockHeader::read checked the rank");
        let (d0, d1, d2) = dims;
        let n = header.numel();
        let two_eb = 2.0 * header.abs_error;
        let mut dec = RangeDecoder::new(stream);
        let mut recon = vec![0.0f32; n];
        if n == 0 {
            // Nothing was coded, and the row walk below assumes non-empty
            // rows.
            return Ok(Tensor::from_vec(recon, &header.dims));
        }
        let plane = d1 * d2;
        for i in 0..d0 {
            for j in 0..d1 {
                let boundary_row = i == 0 || j == 0;
                let row_start = i * plane + j * d2;
                let k_end = if boundary_row { d2 } else { 1 };
                for k in 0..k_end {
                    let idx = row_start + k;
                    let code = crate::read_code(model, overflow, &mut dec);
                    recon[idx] = if code == UNPREDICTABLE {
                        f32::from_bits(dec.decode_bits_raw(32) as u32)
                    } else {
                        let pred = lorenzo_predict(&recon, dims, i, j, k);
                        pred + code as f32 * two_eb
                    };
                }
                if boundary_row {
                    continue;
                }
                let (before, cur) = recon.split_at_mut(row_start);
                let cur_row = &mut cur[..d2];
                let prev_row = &before[row_start - d2..row_start];
                let pp_row = &before[row_start - plane..row_start - plane + d2];
                let ppp_row = &before[row_start - plane - d2..row_start - plane];
                let mut left = cur_row[0];
                let mut pr_left = prev_row[0];
                let mut pp_left = pp_row[0];
                let mut ppp_left = ppp_row[0];
                for k in 1..d2 {
                    let code = crate::read_code(model, overflow, &mut dec);
                    let rec = if code == UNPREDICTABLE {
                        f32::from_bits(dec.decode_bits_raw(32) as u32)
                    } else {
                        let pred = pp_row[k] + prev_row[k] + left - ppp_row[k] - pp_left - pr_left
                            + ppp_left;
                        pred + code as f32 * two_eb
                    };
                    cur_row[k] = rec;
                    ppp_left = ppp_row[k];
                    pp_left = pp_row[k];
                    pr_left = prev_row[k];
                    left = rec;
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
    use gld_datasets::{generate, DatasetKind, FieldSpec};
    use gld_tensor::stats::max_abs_error;
    use gld_tensor::TensorRng;
    use proptest::prelude::*;

    fn check_bound(data: &Tensor, eb: f32) -> (f64, f32) {
        let sz = SzCompressor::new();
        let (recon, size) = sz.roundtrip(data, eb);
        assert_eq!(recon.dims(), data.dims());
        let err = max_abs_error(data, &recon);
        assert!(
            err <= eb * 1.0001,
            "error {err} exceeds bound {eb} for dims {:?}",
            data.dims()
        );
        (compression_ratio(data, size), err)
    }

    #[test]
    fn error_bound_holds_on_all_synthetic_datasets() {
        let spec = FieldSpec::new(1, 8, 16, 16);
        for kind in DatasetKind::all() {
            let ds = generate(kind, &spec, 3);
            let frames = &ds.variables[0].frames;
            let range = frames.max() - frames.min();
            for rel in [1e-2, 1e-3] {
                let (ratio, _) = check_bound(frames, rel * range);
                assert!(ratio > 1.0, "no compression achieved on {kind:?}");
            }
        }
    }

    #[test]
    fn larger_bound_gives_higher_ratio() {
        let spec = FieldSpec::new(1, 8, 16, 16);
        let ds = generate(DatasetKind::E3sm, &spec, 5);
        let frames = &ds.variables[0].frames;
        let range = frames.max() - frames.min();
        let sz = SzCompressor::new();
        let loose = sz.compress(frames, 1e-2 * range).len();
        let tight = sz.compress(frames, 1e-4 * range).len();
        assert!(
            loose < tight,
            "loose {loose} should be smaller than tight {tight}"
        );
    }

    #[test]
    fn smooth_data_compresses_much_better_than_noise() {
        let mut rng = TensorRng::new(1);
        let noise = rng.randn(&[4, 16, 16]);
        let smooth = Tensor::from_vec(
            (0..4 * 16 * 16)
                .map(|i| ((i % 256) as f32 / 40.0).sin())
                .collect(),
            &[4, 16, 16],
        );
        let sz = SzCompressor::new();
        let eb = 1e-3;
        let noise_size = sz.compress(&noise, eb).len();
        let smooth_size = sz.compress(&smooth, eb).len();
        assert!(
            smooth_size * 2 < noise_size,
            "smooth {smooth_size} vs noise {noise_size}"
        );
    }

    #[test]
    fn handles_constant_and_tiny_inputs() {
        let sz = SzCompressor::new();
        let constant = Tensor::full(&[4, 4, 4], 3.75);
        let (recon, size) = sz.roundtrip(&constant, 1e-6);
        assert!(max_abs_error(&constant, &recon) <= 1e-6);
        assert!(size < constant.numel() * 4);
        let single = Tensor::from_vec(vec![42.0], &[1]);
        let (recon, _) = sz.roundtrip(&single, 1e-3);
        assert!((recon.data()[0] - 42.0).abs() <= 1e-3);
    }

    #[test]
    fn rank2_and_rank4_inputs_supported() {
        let mut rng = TensorRng::new(2);
        let sz = SzCompressor::new();
        let img = rng.randn(&[24, 24]);
        let (recon, _) = sz.roundtrip(&img, 1e-2);
        assert!(max_abs_error(&img, &recon) <= 1e-2 * 1.0001);
        let vol4 = rng.randn(&[2, 3, 8, 8]);
        let (recon, _) = sz.roundtrip(&vol4, 1e-2);
        assert_eq!(recon.dims(), vol4.dims());
        assert!(max_abs_error(&vol4, &recon) <= 1e-2 * 1.0001);
    }

    #[test]
    fn rank5_input_is_a_typed_error_not_a_panic() {
        let sz = SzCompressor::new();
        let t = Tensor::zeros(&[2, 2, 2, 2, 2]);
        let err = sz.try_compress(&t, 1e-3).unwrap_err();
        assert_eq!(err, BaselineError::UnsupportedRank { rank: 5 });
        assert!(err.to_string().contains("rank 5"));
    }

    #[test]
    fn dirty_scratch_produces_identical_frames() {
        // One scratch reused across blocks of different shapes must yield
        // exactly the bytes a fresh scratch yields.
        let mut rng = TensorRng::new(7);
        let sz = SzCompressor::new();
        let mut scratch = SzScratch::new();
        for dims in [vec![4usize, 12, 12], vec![9, 9], vec![2, 3, 5, 7], vec![64]] {
            let data = rng.randn(&dims).scale(2.0);
            let mut reused = Vec::new();
            sz.compress_into(&data, 1e-3, &mut scratch, &mut reused)
                .unwrap();
            let fresh = sz.compress(&data, 1e-3);
            assert_eq!(reused, fresh, "dims {dims:?}");
        }
    }

    #[test]
    fn shared_model_sentinel_roundtrips_smaller() {
        let mut rng = TensorRng::new(11);
        let data = rng.randn(&[4, 16, 16]);
        let sz = SzCompressor::new();
        let mut scratch = SzScratch::new();
        let cold = sz.compress(&data, 1e-3);
        let model = crate::embedded_frame_model(&cold).expect("cold frame embeds its model");
        let mut shared = Vec::new();
        sz.compress_into_shared(&data, 1e-3, Some(&model), &mut scratch, &mut shared)
            .unwrap();
        assert!(
            shared.len() < cold.len(),
            "shared {} should drop the model table of cold {}",
            shared.len(),
            cold.len()
        );
        assert!(crate::embedded_frame_model(&shared).is_none());
        let recon = sz.decompress_shared(&shared, Some(&model)).unwrap();
        assert_eq!(recon.data(), sz.decompress(&cold).data());
    }

    #[test]
    fn shared_model_falls_back_to_embedded_fit_when_overflow_coding_loses() {
        // A checkerboard quantises to a couple of distinct codes repeated
        // hundreds of times, all outside a constant-fitted model: paying 32
        // raw bits per occurrence loses badly to a tiny embedded fit, so
        // the frame must fall back byte-identical to a cold compress.
        let sz = SzCompressor::new();
        let mut scratch = SzScratch::new();
        let constant = Tensor::full(&[4, 8, 8], 1.0);
        let narrow = crate::embedded_frame_model(&sz.compress(&constant, 1e-3)).unwrap();
        let board = Tensor::from_vec(
            (0..4 * 8 * 8)
                .map(|i| (((i / 64) + (i / 8) % 8 + i % 8) % 2) as f32)
                .collect(),
            &[4, 8, 8],
        );
        let mut shared = Vec::new();
        sz.compress_into_shared(&board, 1e-3, Some(&narrow), &mut scratch, &mut shared)
            .unwrap();
        assert_eq!(shared, sz.compress(&board, 1e-3));
    }

    #[test]
    fn shared_model_overflow_codes_escaping_values_and_still_wins() {
        // Noise under a narrow model: almost every code escapes, but raw
        // 32-bit overflow coding still beats serialising a sparse model with
        // hundreds of near-unique entries — the frame stays on the shared
        // model and must round-trip exactly through the overflow path.
        let sz = SzCompressor::new();
        let mut scratch = SzScratch::new();
        let constant = Tensor::full(&[4, 8, 8], 1.0);
        let narrow = crate::embedded_frame_model(&sz.compress(&constant, 1e-3)).unwrap();
        let mut rng = TensorRng::new(12);
        let noise = rng.randn(&[4, 8, 8]).scale(4.0);
        let mut shared = Vec::new();
        sz.compress_into_shared(&noise, 1e-3, Some(&narrow), &mut scratch, &mut shared)
            .unwrap();
        let cold = sz.compress(&noise, 1e-3);
        assert!(
            shared.len() < cold.len(),
            "overflow coding {} should beat the embedded fit {}",
            shared.len(),
            cold.len()
        );
        assert!(crate::embedded_frame_model(&shared).is_none());
        let recon = sz.decompress_shared(&shared, Some(&narrow)).unwrap();
        assert_eq!(recon.data(), sz.decompress(&cold).data());
    }

    #[test]
    fn outliers_are_stored_verbatim() {
        // A field with huge spikes: the spikes must round-trip within bound.
        let mut data = Tensor::zeros(&[2, 8, 8]);
        data.set(&[0, 3, 3], 1e20);
        data.set(&[1, 7, 7], -1e20);
        let sz = SzCompressor::new();
        let (recon, _) = sz.roundtrip(&data, 1e-3);
        assert!((recon.at(&[0, 3, 3]) - 1e20).abs() <= 1e14); // f32 precision, not bound
        assert!(max_abs_error(&data, &recon) <= 1e14);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn prop_error_bound_always_holds(
            seed in 0u64..500,
            eb_exp in -4i32..-1,
            d0 in 1usize..4,
            d1 in 4usize..12,
            d2 in 4usize..12,
        ) {
            let mut rng = TensorRng::new(seed);
            let data = rng.randn(&[d0, d1, d2]).scale(5.0);
            let eb = 10f32.powi(eb_exp) * 10.0;
            let sz = SzCompressor::new();
            let (recon, _) = sz.roundtrip(&data, eb);
            prop_assert!(max_abs_error(&data, &recon) <= eb * 1.0001);
        }
    }
}
