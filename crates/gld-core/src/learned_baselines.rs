//! Learned-compression baselines (paper §4.7): analogues of CDC-X, CDC-ε,
//! GCD and VAE-SR built on the same VAE substrate as the proposed method.
//!
//! The structural property the paper's comparison isolates is that all four
//! baselines store a latent representation for **every** frame (or every
//! block), whereas the proposed method stores only keyframe latents and
//! generates the rest.  The analogues reproduce that property exactly:
//!
//! * **VAE-SR** — per-frame latents coded with the full hyperprior
//!   (Gaussian conditional) model and decoded with the VAE decoder; the
//!   strongest learned baseline, as in the paper.
//! * **CDC-X / CDC-ε** — per-frame latents coded *without* the hyperprior's
//!   conditional model (CDC is a natural-image codec, not tuned to
//!   scientific data), decoded with the VAE decoder followed by a
//!   pixel-space diffusion refinement whose step count differs between the
//!   X (signal-predicting) and ε (noise-predicting) variants.  The
//!   refinement runs in the full-resolution data space, which is what makes
//!   these methods slow to decode (Table 2).
//! * **GCD** — the 3-D block-based extension: the whole block's latents are
//!   coded as one unit and the pixel-space refinement runs over the whole
//!   block, making it the slowest decoder.

use gld_diffusion::{ConditionalDiffusion, FramePartition};
use gld_entropy::{HistogramModel, RangeDecoder, RangeEncoder};
use gld_tensor::{Tensor, TensorRng};
use gld_vae::codec::{read_dims, write_dims};
use gld_vae::{FrameCodec, Vae};

/// Which baseline a [`LearnedBaseline`] instance emulates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LearnedBaselineKind {
    /// Conditional diffusion compression, signal-predicting variant.
    CdcX,
    /// Conditional diffusion compression, noise-predicting variant.
    CdcEps,
    /// Guaranteed conditional diffusion (3-D block-based CDC).
    Gcd,
    /// VAE with super-resolution refinement.
    VaeSr,
}

impl LearnedBaselineKind {
    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            LearnedBaselineKind::CdcX => "CDC-X",
            LearnedBaselineKind::CdcEps => "CDC-eps",
            LearnedBaselineKind::Gcd => "GCD",
            LearnedBaselineKind::VaeSr => "VAE-SR",
        }
    }

    /// All baselines, in the order the paper lists them.
    pub fn all() -> [LearnedBaselineKind; 4] {
        [
            LearnedBaselineKind::CdcX,
            LearnedBaselineKind::CdcEps,
            LearnedBaselineKind::Gcd,
            LearnedBaselineKind::VaeSr,
        ]
    }

    /// Number of data-space refinement steps the decoder runs (zero for
    /// VAE-SR, which refines with a feed-forward module instead).
    pub fn refinement_steps(&self) -> usize {
        match self {
            LearnedBaselineKind::CdcX => 4,
            LearnedBaselineKind::CdcEps => 8,
            LearnedBaselineKind::Gcd => 12,
            LearnedBaselineKind::VaeSr => 0,
        }
    }

    /// Whether latents are entropy-coded with the hyperprior's Gaussian
    /// conditional model (scientific-data-aware) or a plain histogram.
    pub fn uses_hyperprior_coding(&self) -> bool {
        matches!(self, LearnedBaselineKind::VaeSr)
    }
}

/// A learned baseline bound to a trained VAE (and optionally a pixel-space
/// diffusion model used purely as the decode-time refinement stage).
pub struct LearnedBaseline<'a> {
    kind: LearnedBaselineKind,
    vae: &'a Vae,
    refiner: Option<&'a ConditionalDiffusion>,
}

impl<'a> LearnedBaseline<'a> {
    /// Creates a baseline around a trained VAE.  `refiner`, when given, is a
    /// diffusion model operating on single-channel data-space frames; it is
    /// only exercised by the CDC/GCD variants.
    pub fn new(
        kind: LearnedBaselineKind,
        vae: &'a Vae,
        refiner: Option<&'a ConditionalDiffusion>,
    ) -> Self {
        LearnedBaseline { kind, vae, refiner }
    }

    /// The baseline kind.
    pub fn kind(&self) -> LearnedBaselineKind {
        self.kind
    }

    /// Compresses a block `[N, H, W]`, storing a latent for every frame.
    pub fn compress(&self, block: &Tensor) -> Vec<u8> {
        assert_eq!(block.rank(), 3, "block must be [N, H, W]");
        if self.kind.uses_hyperprior_coding() {
            // Full hyperprior bitstream (identical machinery to the keyframe
            // path of the proposed method, but applied to every frame).
            FrameCodec::new(self.vae).compress(block)
        } else {
            // Histogram-coded latents: per-frame normalisation metadata plus
            // a flat factorized model over all latent symbols.
            let codec = FrameCodec::new(self.vae);
            let (normalized, norms) = codec.normalize(block);
            let y = self.vae.quantize_latent(&normalized);
            let symbols: Vec<i32> = y.quantized_symbols();
            let model = HistogramModel::fit(&symbols);
            let mut out = Vec::new();
            write_dims(&mut out, block.dims());
            write_dims(&mut out, y.dims());
            for norm in &norms {
                out.extend_from_slice(&norm.mean.to_le_bytes());
                out.extend_from_slice(&norm.range.to_le_bytes());
            }
            let model_bytes = model.to_bytes();
            out.extend_from_slice(&(model_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(&model_bytes);
            let mut enc = RangeEncoder::new();
            model.encode(&mut enc, &symbols);
            let stream = enc.finish();
            out.extend_from_slice(&(stream.len() as u32).to_le_bytes());
            out.extend_from_slice(&stream);
            out
        }
    }

    /// Decompresses a block produced by [`LearnedBaseline::compress`].
    pub fn decompress(&self, bytes: &[u8]) -> Tensor {
        let decoded = if self.kind.uses_hyperprior_coding() {
            FrameCodec::new(self.vae).decompress(bytes)
        } else {
            self.decompress_histogram(bytes)
        };
        self.refine(decoded)
    }

    fn decompress_histogram(&self, bytes: &[u8]) -> Tensor {
        let (block_dims, used) = read_dims(bytes);
        let n = block_dims[0];
        let mut off = used;
        let (y_dims, used) = read_dims(&bytes[off..]);
        off += used;
        let mut norms = Vec::with_capacity(n);
        for _ in 0..n {
            let mean = f32::from_le_bytes(bytes[off..off + 4].try_into().unwrap());
            let range = f32::from_le_bytes(bytes[off + 4..off + 8].try_into().unwrap());
            norms.push(gld_vae::codec::FrameNorm { mean, range });
            off += 8;
        }
        let model_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        let (model, used) = HistogramModel::from_bytes(&bytes[off..off + model_len]);
        assert_eq!(used, model_len);
        off += model_len;
        let stream_len = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
        off += 4;
        let mut dec = RangeDecoder::new(&bytes[off..off + stream_len]);
        let count: usize = y_dims.iter().product();
        let symbols = model.decode(&mut dec, count);
        let y = Tensor::from_vec(symbols.iter().map(|&s| s as f32).collect(), &y_dims);
        let frames = self.vae.decode_latent(&y);
        FrameCodec::new(self.vae).denormalize(&frames, &norms)
    }

    /// Data-space diffusion refinement (the expensive part of CDC/GCD
    /// decoding).  The refinement conditions on every frame being "clean"
    /// except that it re-generates them one step at a time from a lightly
    /// noised copy; with an untrained or absent refiner this is a no-op on
    /// values, but the compute cost (pixel-space UNet evaluations) is always
    /// paid, which is what Table 2 measures.
    fn refine(&self, decoded: Tensor) -> Tensor {
        let steps = self.kind.refinement_steps();
        let Some(refiner) = self.refiner else {
            return decoded;
        };
        if steps == 0 {
            return decoded;
        }
        let (n, h, w) = (decoded.dim(0), decoded.dim(1), decoded.dim(2));
        // Normalise to the refiner's working range, run the denoiser, and
        // map back.  Conditioning keeps the first frame anchored, analogous
        // to CDC's conditioning on the coded representation.
        let (norm, lo, hi) = decoded.normalize_minmax();
        let frames = norm.reshape(&[n, 1, h, w]);
        let partition = FramePartition::from_conditioning(n, &[0]);
        let mut rng = TensorRng::new(0xC0DEC);
        let refined = refiner.generate(&frames, &partition, steps, &mut rng);
        // The refinement is residual: average it with the VAE output so an
        // imperfect refiner degrades gracefully rather than destroying the
        // reconstruction (CDC blends the conditioned estimate the same way).
        let blended = frames.scale(0.8).add(&refined.scale(0.2));
        blended.reshape(&[n, h, w]).denormalize_minmax(lo, hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gld_datasets::{generate, DatasetKind, FieldSpec};
    use gld_diffusion::DiffusionConfig;
    use gld_tensor::stats::nrmse;
    use gld_vae::VaeConfig;

    fn setup() -> (Vae, Tensor) {
        let vae = Vae::new(VaeConfig::tiny());
        let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 21);
        let block = ds.variables[0].frames.slice_axis(0, 0, 8);
        (vae, block)
    }

    #[test]
    fn all_baselines_roundtrip_with_correct_shapes() {
        let (vae, block) = setup();
        for kind in LearnedBaselineKind::all() {
            let baseline = LearnedBaseline::new(kind, &vae, None);
            let bytes = baseline.compress(&block);
            let recon = baseline.decompress(&bytes);
            assert_eq!(recon.dims(), block.dims(), "{kind:?}");
            assert!(recon.data().iter().all(|v| v.is_finite()), "{kind:?}");
            assert!(bytes.len() < block.numel() * 4, "{kind:?} did not compress");
        }
    }

    #[test]
    fn per_frame_storage_grows_with_frame_count() {
        let (vae, block) = setup();
        let baseline = LearnedBaseline::new(LearnedBaselineKind::VaeSr, &vae, None);
        let small = baseline.compress(&block.slice_axis(0, 0, 2)).len();
        let large = baseline.compress(&block).len();
        assert!(
            large > small * 2,
            "per-frame storage should scale with N: {small} vs {large}"
        );
    }

    #[test]
    fn refinement_changes_values_but_not_scale() {
        let (vae, block) = setup();
        let refiner = ConditionalDiffusion::new(DiffusionConfig {
            latent_channels: 1,
            ..DiffusionConfig::tiny()
        });
        let with = LearnedBaseline::new(LearnedBaselineKind::CdcEps, &vae, Some(&refiner));
        let without = LearnedBaseline::new(LearnedBaselineKind::CdcEps, &vae, None);
        let bytes = with.compress(&block);
        let refined = with.decompress(&bytes);
        let plain = without.decompress(&bytes);
        assert_ne!(refined, plain, "refinement had no effect");
        // The blend keeps the reconstruction in the right ballpark even with
        // an untrained refiner.
        assert!(nrmse(&plain, &refined) < 0.5);
    }

    #[test]
    fn kind_metadata_is_consistent() {
        assert_eq!(LearnedBaselineKind::all().len(), 4);
        assert!(
            LearnedBaselineKind::Gcd.refinement_steps()
                > LearnedBaselineKind::CdcX.refinement_steps()
        );
        assert!(LearnedBaselineKind::VaeSr.uses_hyperprior_coding());
        assert!(!LearnedBaselineKind::CdcX.uses_hyperprior_coding());
        assert_eq!(LearnedBaselineKind::CdcEps.name(), "CDC-eps");
    }
}
