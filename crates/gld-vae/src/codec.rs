//! Entropy-coded compression of VAE latents and whole frames.
//!
//! [`LatentCodec`] implements the paper's keyframe bitstream: the quantised
//! latent `ŷ` is arithmetic-coded under the Gaussian conditional model whose
//! parameters come from the hyper-decoder, and the quantised hyper-latent
//! `ẑ` is coded with a histogram factorized prior that ships in the header.
//!
//! [`FrameCodec`] wraps the latent codec with per-frame normalisation so raw
//! scientific frames (values spanning ~10¹⁰) can be pushed through the VAE
//! directly.

use crate::model::Vae;
use gld_entropy::{
    write_dims, write_u32_section, ByteReader, GaussianConditionalModel, HistogramModel,
    RangeDecoder, RangeEncoder, ReadError,
};
use gld_tensor::Tensor;

fn tensor_to_symbols(t: &Tensor) -> Vec<i32> {
    // Fused round-and-cast — one pass, no intermediate rounded tensor.
    t.quantized_symbols()
}

fn symbols_to_tensor(symbols: &[i32], dims: &[usize]) -> Tensor {
    Tensor::from_vec(symbols.iter().map(|&s| s as f32).collect(), dims)
}

/// Compresses quantised latents with the hyperprior bitstream layout.
pub struct LatentCodec<'a> {
    vae: &'a Vae,
}

impl<'a> LatentCodec<'a> {
    /// Creates a codec bound to a (trained) model.
    pub fn new(vae: &'a Vae) -> Self {
        LatentCodec { vae }
    }

    /// Compresses already-quantised latents `ŷ` of shape `[K, L, h, w]`.
    pub fn compress(&self, y_quantized: &Tensor) -> Vec<u8> {
        assert_eq!(y_quantized.rank(), 4, "latents must be [K, L, h, w]");
        let z = self.vae.quantize_hyper(y_quantized);
        let (mu, sigma) = self.vae.predict_gaussian(&z);
        assert_eq!(mu.dims(), y_quantized.dims());

        let z_symbols = tensor_to_symbols(&z);
        let y_symbols = tensor_to_symbols(y_quantized);
        let z_model = HistogramModel::fit(&z_symbols);

        let mut out = Vec::new();
        write_dims(&mut out, y_quantized.dims());
        write_dims(&mut out, z.dims());
        write_u32_section(&mut out, &z_model.to_bytes());

        let mut enc = RangeEncoder::new();
        z_model.encode(&mut enc, &z_symbols);
        GaussianConditionalModel::new().encode(&mut enc, &y_symbols, mu.data(), sigma.data());
        let stream = enc.finish();
        write_u32_section(&mut out, &stream);
        out
    }

    /// Decompresses latents produced by [`LatentCodec::compress`], panicking
    /// on a malformed bitstream.  Kept only because the `perf/` benchmark
    /// calls it by name; [`LatentCodec::try_decompress`] is the typed form.
    pub fn decompress(&self, bytes: &[u8]) -> Tensor {
        self.try_decompress(bytes).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Decompresses latents produced by [`LatentCodec::compress`], or the
    /// typed reason `bytes` are not such a bitstream.  The hyper-latent's
    /// shape is checked against the model before the hyper-decoder runs,
    /// and the latent's against the μ it predicts before any symbol of it
    /// is decoded.
    pub fn try_decompress(&self, bytes: &[u8]) -> Result<Tensor, ReadError> {
        let mut reader = ByteReader::new(bytes);
        let y_dims = reader.read_dims()?;
        let z_dims = reader.read_dims()?;
        let z_model = reader.read_model()?;
        let stream = reader.read_u32_section()?;
        reader.expect_end()?;
        let hyper_channels = self.vae.config().hyper_channels;
        if z_dims.len() != 4 || z_dims[1] != hyper_channels || z_dims.contains(&0) {
            return Err(ReadError::Malformed(
                "hyper-latent shape does not fit the model",
            ));
        }

        let mut dec = RangeDecoder::new(stream);
        let z_count: usize = z_dims.iter().product();
        let z_symbols = z_model.decode(&mut dec, z_count);
        let z = symbols_to_tensor(&z_symbols, &z_dims);
        let (mu, sigma) = self.vae.predict_gaussian(&z);
        if mu.dims() != y_dims.as_slice() {
            return Err(ReadError::Malformed(
                "latent shape differs from the hyperprior's",
            ));
        }
        let y_symbols = GaussianConditionalModel::new().decode(&mut dec, mu.data(), sigma.data());
        Ok(symbols_to_tensor(&y_symbols, &y_dims))
    }
}

/// Per-frame normalisation metadata stored alongside the latent bitstream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrameNorm {
    /// Mean removed before encoding.
    pub mean: f32,
    /// Value range used to scale to unit range.
    pub range: f32,
}

/// Compresses raw frames end to end through the VAE.
pub struct FrameCodec<'a> {
    vae: &'a Vae,
}

impl<'a> FrameCodec<'a> {
    /// Creates a codec bound to a (trained) model.
    pub fn new(vae: &'a Vae) -> Self {
        FrameCodec { vae }
    }

    /// Normalises frames `[N, H, W]` and returns `[N, 1, H, W]` plus the
    /// per-frame normalisation parameters.
    pub fn normalize(&self, frames: &Tensor) -> (Tensor, Vec<FrameNorm>) {
        assert_eq!(frames.rank(), 3, "frames must be [N, H, W]");
        let n = frames.dim(0);
        let mut norms = Vec::with_capacity(n);
        let mut normalized = Vec::with_capacity(n);
        for t in 0..n {
            let frame = frames.slice_axis(0, t, t + 1);
            let (norm, mean, range) = frame.normalize_mean_range();
            norms.push(FrameNorm { mean, range });
            normalized.push(norm);
        }
        let refs: Vec<&Tensor> = normalized.iter().collect();
        let stacked = Tensor::concat(&refs, 0);
        let (n, h, w) = (stacked.dim(0), stacked.dim(1), stacked.dim(2));
        (stacked.reshape(&[n, 1, h, w]), norms)
    }

    /// Undoes [`FrameCodec::normalize`] on decoded frames `[N, 1, H, W]`.
    pub fn denormalize(&self, frames: &Tensor, norms: &[FrameNorm]) -> Tensor {
        assert_eq!(frames.rank(), 4, "frames must be [N, 1, H, W]");
        let (n, h, w) = (frames.dim(0), frames.dim(2), frames.dim(3));
        assert_eq!(n, norms.len(), "normalisation metadata length mismatch");
        let flat = frames.reshape(&[n, h, w]);
        let mut out = Vec::with_capacity(n);
        for (t, norm) in norms.iter().enumerate() {
            let frame = flat.slice_axis(0, t, t + 1);
            out.push(frame.denormalize_mean_range(norm.mean, norm.range));
        }
        let refs: Vec<&Tensor> = out.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// Compresses frames `[N, H, W]` (every frame is coded — this is the
    /// path the CDC/VAE-SR style baselines use; the keyframe pipeline in
    /// `gld-core` codes only the conditioning frames).
    pub fn compress(&self, frames: &Tensor) -> Vec<u8> {
        let (normalized, norms) = self.normalize(frames);
        let y = self.vae.quantize_latent(&normalized);
        let latent_bytes = LatentCodec::new(self.vae).compress(&y);

        let mut out = Vec::new();
        out.extend_from_slice(&(frames.dim(0) as u32).to_le_bytes());
        out.extend_from_slice(&(frames.dim(1) as u32).to_le_bytes());
        out.extend_from_slice(&(frames.dim(2) as u32).to_le_bytes());
        for norm in &norms {
            out.extend_from_slice(&norm.mean.to_le_bytes());
            out.extend_from_slice(&norm.range.to_le_bytes());
        }
        out.extend_from_slice(&latent_bytes);
        out
    }

    /// Decompresses frames produced by [`FrameCodec::compress`], or the
    /// typed reason `bytes` are not such a payload.
    pub fn decompress(&self, bytes: &[u8]) -> Result<Tensor, ReadError> {
        let mut reader = ByteReader::new(bytes);
        let n = reader.read_u32()? as usize;
        // Height and width: the latents' shape is what decodes.
        reader.take(8)?;
        let norms = Self::read_norms(&mut reader, n)?;
        let rest = reader.take(reader.remaining())?;
        let y = LatentCodec::new(self.vae).try_decompress(rest)?;
        self.check_latent_dims(y.dims(), n)?;
        let decoded = self.vae.decode_latent(&y);
        Ok(self.denormalize(&decoded, &norms))
    }

    /// Reads `n` per-frame normalisation records, refusing a count the
    /// input cannot hold before allocating for it.
    pub fn read_norms(reader: &mut ByteReader<'_>, n: usize) -> Result<Vec<FrameNorm>, ReadError> {
        let values = reader.read_f32s(n.saturating_mul(2))?;
        let (norms, _) = values.as_chunks();
        Ok(norms
            .iter()
            .map(|&[mean, range]| FrameNorm { mean, range })
            .collect())
    }

    /// Checks that latents of shape `y_dims` decode to the `n >= 1` frames
    /// their normalisation records describe:
    /// `[n, latent_channels, h, w]` with non-zero `h` and `w`.
    pub fn check_latent_dims(&self, y_dims: &[usize], n: usize) -> Result<(), ReadError> {
        let channels = self.vae.config().latent_channels;
        match y_dims {
            &[frames, c, h, w] if frames == n && c == channels && n * h * w > 0 => Ok(()),
            _ => Err(ReadError::Malformed(
                "latent shape does not match the frames",
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VaeConfig;
    use gld_datasets::{generate, DatasetKind, FieldSpec};
    use gld_tensor::stats::nrmse;
    use gld_tensor::TensorRng;

    fn vae() -> Vae {
        Vae::new(VaeConfig::tiny())
    }

    #[test]
    fn latent_codec_is_lossless_for_quantized_latents() {
        let vae = vae();
        let mut rng = TensorRng::new(5);
        let frames = rng.rand_uniform(&[3, 1, 16, 16], -0.5, 0.5);
        let y = vae.quantize_latent(&frames);
        let codec = LatentCodec::new(&vae);
        let bytes = codec.compress(&y);
        let decoded = codec.decompress(&bytes);
        assert_eq!(decoded, y, "latent bitstream must be lossless");
        // Untrained models predict poor Gaussian parameters, so only a loose
        // size sanity bound applies here; real rate checks live in the
        // end-to-end tests that use a trained model.
        assert!(bytes.len() < y.numel() * 8 + 1024);
    }

    #[test]
    fn frame_codec_roundtrip_preserves_scale() {
        let vae = vae();
        let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 11);
        let frames = ds.variables[0].frames.slice_axis(0, 0, 3);
        let codec = FrameCodec::new(&vae);
        let bytes = codec.compress(&frames);
        let recon = codec.decompress(&bytes).expect("own payload");
        assert_eq!(recon.dims(), frames.dims());
        // Even an untrained VAE must reproduce the right order of magnitude
        // because normalisation metadata is stored exactly.
        let err = nrmse(&frames, &recon);
        assert!(err < 1.0, "NRMSE {err} unexpectedly large");
        assert!(bytes.len() < frames.numel() * 4);
    }

    #[test]
    fn normalization_roundtrip_is_exact() {
        let vae = vae();
        let codec = FrameCodec::new(&vae);
        let mut rng = TensorRng::new(2);
        let frames = rng.randn(&[4, 16, 16]).scale(1e8).add_scalar(3e9);
        let (normalized, norms) = codec.normalize(&frames);
        assert_eq!(normalized.dims(), &[4, 1, 16, 16]);
        assert!(normalized.abs().max() <= 1.0 + 1e-5);
        let back = codec.denormalize(&normalized, &norms);
        let rel_err = nrmse(&frames, &back);
        assert!(rel_err < 1e-6, "normalisation round trip error {rel_err}");
    }

    #[test]
    fn compressed_size_scales_with_frame_count() {
        let vae = vae();
        let ds = generate(DatasetKind::S3d, &FieldSpec::tiny(), 3);
        let codec = FrameCodec::new(&vae);
        let two = codec
            .compress(&ds.variables[0].frames.slice_axis(0, 0, 2))
            .len();
        let eight = codec
            .compress(&ds.variables[0].frames.slice_axis(0, 0, 8))
            .len();
        assert!(eight > two);
        assert!(eight < two * 8, "per-frame cost should amortise headers");
    }
}
