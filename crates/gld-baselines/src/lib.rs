//! # gld-baselines
//!
//! Rule-based error-bounded lossy compressors used as the paper's
//! non-learned baselines:
//!
//! * [`szlike::SzCompressor`] — a prediction-based coder in the spirit of
//!   SZ3: a Lorenzo/interpolation predictor over the reconstructed
//!   neighbourhood, uniform quantisation of the prediction residual with a
//!   user-supplied absolute error bound, and arithmetic coding of the
//!   quantisation codes.
//! * [`zfplike::ZfpLikeCompressor`] — a transform-based coder in the spirit
//!   of ZFP: the data is tiled into small blocks, each block is decorrelated
//!   with the ZFP lifting transform, and coefficients are uniformly
//!   quantised with a conservatively chosen step so the reconstruction stays
//!   inside the requested bound.
//!
//! Both implement the [`ErrorBoundedCompressor`] trait so the benchmark
//! harness can sweep them alongside the learned pipeline.  Absolute ratios
//! differ from the heavily engineered C++ codecs, but the relevant ordering —
//! prediction-based beats transform-based on smooth scientific fields, and
//! both trail learned compressors at matched NRMSE — is preserved, which is
//! what the paper's Figure 3 relies on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod header;
pub mod reference;
pub mod szlike;
pub mod zfplike;

pub use header::BlockHeader;
pub use szlike::{SzCompressor, SzScratch};
pub use zfplike::{ZfpLikeCompressor, ZfpScratch};

use gld_entropy::{write_u32_section, ByteReader, HistogramModel, ReadError};
use gld_tensor::Tensor;
use header::Codec;
use std::borrow::Cow;
use std::fmt;

/// `model_len` sentinel value marking a frame whose histogram model lives in
/// the container's shared entropy profile instead of in the frame itself —
/// the cross-frame model reuse of container v4.  Frames written without a
/// shared model always carry a real length here (model tables are far below
/// 4 GiB), so the sentinel is unambiguous.
pub const SHARED_MODEL_SENTINEL: u32 = u32::MAX;

/// One frame's resolved model section: the model to code symbols with and,
/// for shared-profile frames, the **overflow symbol** (the shared model's
/// [`HistogramModel::min_symbol`], by convention the escape bin added
/// through [`HistogramModel::with_escape`]).  A code equal to the overflow
/// symbol, or one the model cannot represent, is written as the overflow
/// symbol followed by the raw 32-bit value — the same bypass idiom the
/// codecs already use for unpredictable values, so decode stays a single
/// interleaved stream walk.
pub(crate) struct ModelSection<'a> {
    pub model: Cow<'a, HistogramModel>,
    pub overflow: Option<i32>,
}

/// Writes one frame's model section and decides how the frame is coded:
/// against the shared profile model (sentinel length, no table bytes,
/// out-of-model codes overflow-escaped) or against a per-frame fit embedded
/// as before.  The choice compares theoretical coded sizes, so a profile
/// fitted on the variable's first window can never corrupt a later outlier
/// window — at worst the frame falls back byte-identical to the cold path.
pub(crate) fn write_model_section<'a>(
    codes: &[i32],
    shared: Option<&'a HistogramModel>,
    out: &mut Vec<u8>,
) -> ModelSection<'a> {
    let embedded = HistogramModel::fit(codes);
    if let Some(model) = shared {
        let overflow = model.min_symbol();
        if model.can_encode(overflow) {
            let overflow_bits = model.symbol_bits(overflow) + 32.0;
            let shared_bits: f64 = codes
                .iter()
                .map(|&c| {
                    if c != overflow && model.can_encode(c) {
                        model.symbol_bits(c)
                    } else {
                        overflow_bits
                    }
                })
                .sum();
            let embedded_bits =
                embedded.estimate_bits(codes) + (embedded.header_bytes() * 8) as f64;
            if shared_bits <= embedded_bits {
                out.extend_from_slice(&SHARED_MODEL_SENTINEL.to_le_bytes());
                return ModelSection {
                    model: Cow::Borrowed(model),
                    overflow: Some(overflow),
                };
            }
        }
    }
    write_u32_section(out, &embedded.to_bytes());
    ModelSection {
        model: Cow::Owned(embedded),
        overflow: None,
    }
}

/// Parses a `codec` frame into its header, model section and entropy-coded
/// stream (a `u32`-length section), which must fill `bytes` exactly.  The
/// model section is the embedded model, or the caller's shared profile
/// model (with the overflow convention active) when the frame carries the
/// sentinel; a sentinel frame decoded without a shared model is refused.
pub(crate) fn read_frame<'a>(
    bytes: &'a [u8],
    codec: Codec,
    shared: Option<&'a HistogramModel>,
) -> Result<(BlockHeader, ModelSection<'a>, &'a [u8]), ReadError> {
    let mut reader = ByteReader::new(bytes);
    let header = BlockHeader::read(&mut reader)?;
    if header.codec != codec {
        return Err(ReadError::Malformed("frame of another rule-based codec"));
    }
    let section = match reader.read_u32()? {
        SHARED_MODEL_SENTINEL => {
            let model = shared.ok_or(ReadError::Malformed(
                "frame references a shared model, but none was provided",
            ))?;
            ModelSection {
                overflow: Some(model.min_symbol()),
                model: Cow::Borrowed(model),
            }
        }
        len => ModelSection {
            model: Cow::Owned(HistogramModel::from_section(reader.take(len as usize)?)?),
            overflow: None,
        },
    };
    let stream = reader.read_u32_section()?;
    reader.expect_end()?;
    Ok((header, section, stream))
}

/// Decodes one code from a model-section stream: the symbol itself, or —
/// when the shared-model overflow convention is active and the overflow
/// symbol comes out — the raw 32-bit value that follows it.
#[inline(always)]
pub(crate) fn read_code(
    model: &HistogramModel,
    overflow: Option<i32>,
    dec: &mut gld_entropy::RangeDecoder,
) -> i32 {
    let sym = model.decode_symbol(dec);
    match overflow {
        Some(o) if sym == o => dec.decode_bits_raw(32) as u32 as i32,
        _ => sym,
    }
}

/// Parses the histogram model embedded in a rule-codec frame — `None` when
/// the frame references a shared profile model through the sentinel, or is
/// not a well-formed rule-codec frame.  This is how a container-level
/// entropy profile is seeded: compress the first window cold, lift its
/// embedded model out, and share it with the rest of the variable.
pub fn embedded_frame_model(frame: &[u8]) -> Option<HistogramModel> {
    let mut reader = ByteReader::new(frame);
    BlockHeader::read(&mut reader).ok()?;
    match reader.read_u32().ok()? {
        SHARED_MODEL_SENTINEL => None,
        len => HistogramModel::from_section(reader.take(len as usize).ok()?).ok(),
    }
}

/// Typed failure of a rule-based codec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The input tensor's rank is outside the supported 1–4 window.
    UnsupportedRank {
        /// Rank of the offending tensor.
        rank: usize,
    },
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::UnsupportedRank { rank } => write!(
                f,
                "unsupported tensor rank {rank}: rule-based codecs accept rank 1-4"
            ),
        }
    }
}

impl std::error::Error for BaselineError {}

/// A lossy compressor that guarantees a point-wise absolute error bound.
pub trait ErrorBoundedCompressor {
    /// Short display name used in benchmark tables.
    fn name(&self) -> &'static str;

    /// Compresses `data` so that every reconstructed value differs from the
    /// original by at most `abs_error`; unsupported inputs (e.g. a rank-5
    /// tensor) surface as a typed [`BaselineError`] instead of a panic.
    fn try_compress(&self, data: &Tensor, abs_error: f32) -> Result<Vec<u8>, BaselineError>;

    /// [`ErrorBoundedCompressor::try_compress`], panicking on an
    /// unsupported input.
    fn compress(&self, data: &Tensor, abs_error: f32) -> Vec<u8> {
        self.try_compress(data, abs_error)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Reconstructs the tensor from a buffer produced by
    /// [`ErrorBoundedCompressor::compress`], or the typed reason the buffer
    /// is not one.
    fn try_decompress(&self, bytes: &[u8]) -> Result<Tensor, ReadError>;

    /// [`ErrorBoundedCompressor::try_decompress`], panicking on a malformed
    /// buffer.  Kept only because the `perf/` benchmark calls it by name.
    fn decompress(&self, bytes: &[u8]) -> Tensor {
        self.try_decompress(bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Convenience helper returning `(reconstruction, compressed_size)`.
    fn roundtrip(&self, data: &Tensor, abs_error: f32) -> (Tensor, usize) {
        let bytes = self.compress(data, abs_error);
        let size = bytes.len();
        (self.decompress(&bytes), size)
    }
}

/// Compression ratio of an f32 tensor against a compressed byte size.
pub fn compression_ratio(data: &Tensor, compressed_bytes: usize) -> f64 {
    let raw = data.numel() * std::mem::size_of::<f32>();
    raw as f64 / compressed_bytes.max(1) as f64
}
