//! Frozen pre-optimisation reference implementations of the rule-based
//! codecs, generic over the entropy back end.
//!
//! These are the exact scalar kernels the optimized hot paths replaced: the
//! single neighbour-checked Lorenzo walk with nested-`if` quantisation, the
//! per-call DCT basis recomputation, the one-`Vec`-per-symbol decode shape,
//! and fresh buffers on every call.  They exist for two jobs:
//!
//! * **equivalence oracle** — instantiated with
//!   [`gld_entropy::RangeBackend`] they must produce *byte-identical* frames
//!   to [`crate::SzCompressor`] / [`crate::ZfpLikeCompressor`], which the
//!   workspace equivalence suite proves over randomised inputs;
//! * **benchmark baseline** — instantiated with
//!   [`gld_entropy::ArithmeticBackend`] they reproduce the full
//!   pre-optimisation compress/decompress cost, so `hotpath_throughput`
//!   measures the real speedup on any machine it runs on.
//!
//! Do not "improve" this module; its value is that it does not change.

use crate::header::{volume_dims, BlockHeader, Codec};
use gld_entropy::{
    write_u32_section, ByteReader, EntropyBackend, EntropyDecoder, EntropyEncoder, HistogramModel,
};
use gld_tensor::Tensor;

const SZ_MAX_CODE: i32 = 4096;
const SZ_UNPREDICTABLE: i32 = SZ_MAX_CODE + 1;

const ZFP_BLOCK: usize = 4;
const ZFP_MAX_CODE: i32 = 8191;
const ZFP_ESCAPE: i32 = ZFP_MAX_CODE + 1;
const ZFP_ERROR_AMPLIFICATION: f32 = 8.0;

fn as_volume_dims(dims: &[usize]) -> (usize, usize, usize) {
    volume_dims(dims).unwrap_or_else(|e| panic!("{e}"))
}

/// The pre-optimisation per-symbol decode shape: a one-element vector per
/// symbol resolved by binary search over the CDF.
#[allow(clippy::vec_init_then_push)] // deliberately reproduces the old shape
fn decode_one<D: EntropyDecoder>(model: &HistogramModel, dec: &mut D) -> i32 {
    let mut v = Vec::with_capacity(1);
    v.push(model.decode_symbol_binary_search(dec));
    v[0]
}

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

/// Reference SZ3-like compression: single neighbour-checked walk, fresh
/// buffers, nested-`if` quantisation.
pub fn sz_compress<B: EntropyBackend>(data: &Tensor, abs_error: f32) -> Vec<u8> {
    assert!(abs_error > 0.0, "absolute error bound must be positive");
    let dims = as_volume_dims(data.dims());
    let (d0, d1, d2) = dims;
    let n = d0 * d1 * d2;
    assert_eq!(n, data.numel());
    let src = data.data();
    let mut recon = vec![0.0f32; n];
    let mut codes = Vec::with_capacity(n);
    let mut raw_values: Vec<f32> = Vec::new();
    let two_eb = 2.0 * abs_error;

    for i in 0..d0 {
        for j in 0..d1 {
            for k in 0..d2 {
                let idx = (i * d1 + j) * d2 + k;
                let val = src[idx];
                let pred = lorenzo_predict(&recon, dims, i, j, k);
                let diff = val - pred;
                let q = (diff / two_eb).round();
                if q.abs() <= SZ_MAX_CODE as f32 {
                    let q = q as i32;
                    let r = pred + q as f32 * two_eb;
                    if (r - val).abs() <= abs_error && r.is_finite() {
                        codes.push(q);
                        recon[idx] = r;
                        continue;
                    }
                }
                codes.push(SZ_UNPREDICTABLE);
                raw_values.push(val);
                recon[idx] = val;
            }
        }
    }

    let model = HistogramModel::fit(&codes);
    let mut out = Vec::new();
    BlockHeader::new(Codec::SzLike, data, abs_error).write(&mut out);
    write_u32_section(&mut out, &model.to_bytes());
    let mut enc = B::encoder();
    let mut raw_iter = raw_values.iter();
    for &c in &codes {
        model.encode(&mut enc, &[c]);
        if c == SZ_UNPREDICTABLE {
            let raw = raw_iter.next().expect("raw value missing");
            enc.encode_bits_raw(raw.to_bits() as u64, 32);
        }
    }
    let stream = enc.finish();
    write_u32_section(&mut out, &stream);
    out
}

/// Parses a frame the reference encoders wrote: header, embedded model and
/// stream.  The oracle only ever reads its own frames, so a malformed one is
/// a bug here, not input.
fn read_frame(bytes: &[u8], codec: Codec) -> (BlockHeader, HistogramModel, &[u8]) {
    let mut reader = ByteReader::new(bytes);
    let header = BlockHeader::read(&mut reader).expect("oracle frame header");
    assert_eq!(header.codec, codec, "frame of another codec");
    let model = reader.read_model().expect("oracle frame model");
    let stream = reader.read_u32_section().expect("oracle frame stream");
    (header, model, stream)
}

/// Reference SZ3-like decompression (matches [`sz_compress`]).
pub fn sz_decompress<B: EntropyBackend>(bytes: &[u8]) -> Tensor {
    let (header, model, stream) = read_frame(bytes, Codec::SzLike);

    let dims = as_volume_dims(&header.dims);
    let (d0, d1, d2) = dims;
    let n = header.numel();
    let two_eb = 2.0 * header.abs_error;
    let mut dec = B::decoder(stream);
    let mut recon = vec![0.0f32; n];
    for i in 0..d0 {
        for j in 0..d1 {
            for k in 0..d2 {
                let idx = (i * d1 + j) * d2 + k;
                let code = decode_one(&model, &mut dec);
                if code == SZ_UNPREDICTABLE {
                    let bits = dec.decode_bits_raw(32) as u32;
                    recon[idx] = f32::from_bits(bits);
                } else {
                    let pred = lorenzo_predict(&recon, dims, i, j, k);
                    recon[idx] = pred + code as f32 * two_eb;
                }
            }
        }
    }
    Tensor::from_vec(recon, &header.dims)
}

/// The pre-optimisation basis derivation: recomputed on every call.
fn dct4_basis_fresh() -> [[f32; 4]; 4] {
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
}

fn transform_axis(block: &mut [f32; 64], axis: usize, inverse: bool) {
    let basis = dct4_basis_fresh();
    let stride = match axis {
        0 => 16,
        1 => 4,
        2 => 1,
        _ => unreachable!(),
    };
    for a in 0..ZFP_BLOCK {
        for b in 0..ZFP_BLOCK {
            let base = match axis {
                0 => a * 4 + b,
                1 => a * 16 + b,
                2 => a * 16 + b * 4,
                _ => unreachable!(),
            };
            let mut line = [0.0f32; 4];
            for i in 0..ZFP_BLOCK {
                line[i] = block[base + i * stride];
            }
            let mut out = [0.0f32; 4];
            for (k, o) in out.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (n, &v) in line.iter().enumerate() {
                    acc += if inverse { basis[n][k] } else { basis[k][n] } * v;
                }
                *o = acc;
            }
            for i in 0..ZFP_BLOCK {
                block[base + i * stride] = out[i];
            }
        }
    }
}

fn forward_transform(block: &mut [f32; 64]) {
    for axis in 0..3 {
        transform_axis(block, axis, false);
    }
}

fn inverse_transform(block: &mut [f32; 64]) {
    for axis in (0..3).rev() {
        transform_axis(block, axis, true);
    }
}

/// Reference ZFP-like compression: clamped gather for every tile, per-call
/// basis recomputation, fresh buffers.
pub fn zfp_compress<B: EntropyBackend>(data: &Tensor, abs_error: f32) -> Vec<u8> {
    assert!(abs_error > 0.0, "absolute error bound must be positive");
    let (d0, d1, d2) = as_volume_dims(data.dims());
    let (p0, p1, p2) = (
        d0.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
        d1.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
        d2.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
    );
    let src = data.data();
    let padded_at = |i: usize, j: usize, k: usize| -> f32 {
        let i = i.min(d0 - 1);
        let j = j.min(d1 - 1);
        let k = k.min(d2 - 1);
        src[(i * d1 + j) * d2 + k]
    };
    let step = abs_error / ZFP_ERROR_AMPLIFICATION;
    let mut codes: Vec<i32> = Vec::with_capacity(p0 * p1 * p2);
    let mut escapes: Vec<i32> = Vec::new();
    for bi in (0..p0).step_by(ZFP_BLOCK) {
        for bj in (0..p1).step_by(ZFP_BLOCK) {
            for bk in (0..p2).step_by(ZFP_BLOCK) {
                let mut block = [0.0f32; 64];
                for i in 0..ZFP_BLOCK {
                    for j in 0..ZFP_BLOCK {
                        for k in 0..ZFP_BLOCK {
                            block[i * 16 + j * 4 + k] = padded_at(bi + i, bj + j, bk + k);
                        }
                    }
                }
                forward_transform(&mut block);
                for &c in block.iter() {
                    let q = (c / step).round();
                    if q.abs() <= ZFP_MAX_CODE as f32 && q.is_finite() {
                        codes.push(q as i32);
                    } else {
                        codes.push(ZFP_ESCAPE);
                        escapes.push(q.clamp(i32::MIN as f32, i32::MAX as f32) as i32);
                    }
                }
            }
        }
    }

    let model = HistogramModel::fit(&codes);
    let mut out = Vec::new();
    BlockHeader::new(Codec::ZfpLike, data, abs_error).write(&mut out);
    write_u32_section(&mut out, &model.to_bytes());
    let mut enc = B::encoder();
    let mut esc_iter = escapes.iter();
    for &c in &codes {
        model.encode(&mut enc, &[c]);
        if c == ZFP_ESCAPE {
            let raw = *esc_iter.next().expect("escape value missing");
            enc.encode_bits_raw(raw as u32 as u64, 32);
        }
    }
    let stream = enc.finish();
    write_u32_section(&mut out, &stream);
    out
}

/// Reference ZFP-like decompression (matches [`zfp_compress`]).
pub fn zfp_decompress<B: EntropyBackend>(bytes: &[u8]) -> Tensor {
    let (header, model, stream) = read_frame(bytes, Codec::ZfpLike);

    let (d0, d1, d2) = as_volume_dims(&header.dims);
    let (p0, p1, p2) = (
        d0.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
        d1.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
        d2.div_ceil(ZFP_BLOCK) * ZFP_BLOCK,
    );
    let step = header.abs_error / ZFP_ERROR_AMPLIFICATION;
    let mut dec = B::decoder(stream);
    let mut recon = vec![0.0f32; d0 * d1 * d2];
    for bi in (0..p0).step_by(ZFP_BLOCK) {
        for bj in (0..p1).step_by(ZFP_BLOCK) {
            for bk in (0..p2).step_by(ZFP_BLOCK) {
                let mut block = [0.0f32; 64];
                for v in block.iter_mut() {
                    let code = decode_one(&model, &mut dec);
                    let q = if code == ZFP_ESCAPE {
                        dec.decode_bits_raw(32) as u32 as i32
                    } else {
                        code
                    };
                    *v = q as f32 * step;
                }
                inverse_transform(&mut block);
                for i in 0..ZFP_BLOCK {
                    for j in 0..ZFP_BLOCK {
                        for k in 0..ZFP_BLOCK {
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
    Tensor::from_vec(recon, &header.dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ErrorBoundedCompressor, SzCompressor, ZfpLikeCompressor};
    use gld_entropy::{ArithmeticBackend, RangeBackend};
    use gld_tensor::TensorRng;

    #[test]
    fn range_backend_reference_matches_optimized_bytes() {
        let mut rng = TensorRng::new(3);
        let data = rng.randn(&[3, 10, 11]).scale(2.0);
        for eb in [1e-1f32, 1e-3] {
            assert_eq!(
                sz_compress::<RangeBackend>(&data, eb),
                SzCompressor::new().compress(&data, eb),
                "sz eb {eb}"
            );
            assert_eq!(
                zfp_compress::<RangeBackend>(&data, eb),
                ZfpLikeCompressor::new().compress(&data, eb),
                "zfp eb {eb}"
            );
        }
    }

    #[test]
    fn arithmetic_backend_reference_roundtrips() {
        let mut rng = TensorRng::new(5);
        let data = rng.randn(&[2, 9, 9]).scale(4.0);
        let sz = sz_compress::<ArithmeticBackend>(&data, 1e-2);
        let back = sz_decompress::<ArithmeticBackend>(&sz);
        assert_eq!(back.dims(), data.dims());
        let zfp = zfp_compress::<ArithmeticBackend>(&data, 1e-2);
        let back = zfp_decompress::<ArithmeticBackend>(&zfp);
        assert_eq!(back.dims(), data.dims());
    }
}
