//! The end-to-end generative latent diffusion compressor ("Ours").
//!
//! Compression of an `N`-frame block (paper Figure 1):
//!
//! 1. every frame is normalised to zero mean / unit range (constants kept in
//!    the header — a few bytes per frame);
//! 2. the **keyframes** selected by the [`crate::keyframes::KeyframeStrategy`]
//!    are pushed through the VAE encoder, rounded, and entropy-coded with the
//!    hyperprior bitstream of `gld-vae`;
//! 3. nothing else is stored for the remaining frames — at decompression the
//!    conditional latent diffusion model interpolates their latents from the
//!    keyframe latents (§3.3), the VAE decoder maps everything back to data
//!    space, and the per-frame normalisation is undone;
//! 4. optionally, the PCA error-bound module (§3.5) compares the encoder-side
//!    reconstruction with the original block and stores a small correction
//!    stream that guarantees the requested error bound (the decoder replays
//!    the exact same generation thanks to a stored sampling seed).
//!
//! The compression ratio follows Eq. 11: original bytes divided by the sum of
//! the latent bitstream and the auxiliary correction stream.

use crate::codec::{squared_error, BlockJob, Codec, CodecError, CodecScratch, EncodedBlock};
use crate::container::{CodecId, ContainerError};
use crate::error_bound::{ErrorBoundConfig, PcaErrorBound};
use crate::keyframes::KeyframeStrategy;
use gld_datasets::Variable;
use gld_diffusion::{ConditionalDiffusion, DiffusionConfig, DiffusionTrainer, FramePartition};
use gld_entropy::{write_section, ByteReader, HistogramModel, ReadError};
use gld_tensor::{Tensor, TensorRng};
use gld_vae::codec::FrameNorm;
use gld_vae::{LatentCodec, Vae, VaeConfig, VaeTrainer};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Configuration of the full compressor.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GldConfig {
    /// VAE / hyperprior configuration (stage one).
    pub vae: VaeConfig,
    /// Diffusion configuration (stage two).
    pub diffusion: DiffusionConfig,
    /// Temporal block length N.
    pub block_frames: usize,
    /// Keyframe selection strategy.
    pub strategy: KeyframeStrategy,
    /// Denoising steps used at decompression time.
    pub denoising_steps: usize,
    /// Error-bound module configuration.
    pub error_bound: ErrorBoundConfig,
    /// Base sampling seed.  Every block's generation seed is derived from
    /// this and the block's temporal index (see [`derive_block_seed`]), so
    /// distinct blocks never share a noise realisation and parallel
    /// compression is bit-identical to sequential.
    pub seed: u64,
}

impl Default for GldConfig {
    fn default() -> Self {
        let vae = VaeConfig::default();
        let diffusion = DiffusionConfig {
            latent_channels: vae.latent_channels,
            ..DiffusionConfig::default()
        };
        GldConfig {
            vae,
            diffusion,
            block_frames: 16,
            strategy: KeyframeStrategy::paper_default(),
            denoising_steps: 8,
            error_bound: ErrorBoundConfig::default(),
            seed: 0x051D_5EED,
        }
    }
}

impl GldConfig {
    /// A small configuration for unit tests: N = 8 frames, few channels.
    pub fn tiny() -> Self {
        let vae = VaeConfig::tiny();
        let diffusion = DiffusionConfig {
            latent_channels: vae.latent_channels,
            ..DiffusionConfig::tiny()
        };
        GldConfig {
            vae,
            diffusion,
            block_frames: 8,
            strategy: KeyframeStrategy::Interpolation { interval: 3 },
            denoising_steps: 4,
            error_bound: ErrorBoundConfig::default(),
            seed: 0x051D_5EED,
        }
    }

    /// The frame partition induced by the strategy.
    pub fn partition(&self) -> FramePartition {
        self.strategy.partition(self.block_frames)
    }
}

/// Training step budgets for the two stages (and optional few-step
/// fine-tuning).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GldTrainingBudget {
    /// Stage-one (VAE) optimisation steps.
    pub vae_steps: usize,
    /// Stage-two (diffusion) optimisation steps at the full schedule.
    pub diffusion_steps: usize,
    /// Fine-tuning steps at the shortened schedule (0 disables fine-tuning).
    pub fine_tune_steps: usize,
    /// Schedule length used for fine-tuning and sampling.
    pub fine_tune_schedule: usize,
}

impl GldTrainingBudget {
    /// A very small budget for tests.
    pub fn tiny() -> Self {
        GldTrainingBudget {
            vae_steps: 120,
            diffusion_steps: 120,
            fine_tune_steps: 0,
            fine_tune_schedule: 32,
        }
    }
}

/// One compressed spatiotemporal block.
#[derive(Clone, Debug)]
pub struct CompressedBlock {
    /// Number of frames N.
    pub frames: usize,
    /// Frame height.
    pub height: usize,
    /// Frame width.
    pub width: usize,
    /// Per-frame normalisation constants (stored for every frame).
    pub frame_norms: Vec<(f32, f32)>,
    /// Latent min-max normalisation range derived from the keyframes.
    pub latent_range: (f32, f32),
    /// Entropy-coded keyframe latents (hyperprior bitstream).
    pub keyframe_bytes: Vec<u8>,
    /// Error-bound correction stream (empty when no bound was requested).
    pub aux_bytes: Vec<u8>,
    /// Sampling seed the decoder must reuse to replay the generation.
    pub sampling_seed: u64,
    /// Denoising steps to use at decompression.
    pub denoising_steps: usize,
}

/// Derives the sampling seed of the block at temporal index `block_index`
/// from the configuration's base seed (SplitMix64 mixing).  Distinct indices
/// yield independent noise realisations; the same `(base, index)` pair always
/// yields the same seed, which is what makes parallel compression
/// bit-identical to sequential.
pub fn derive_block_seed(base: u64, block_index: u64) -> u64 {
    let mut z = base
        ^ block_index
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl CompressedBlock {
    /// Total compressed size in bytes (Eq. 11 denominator).  This is exactly
    /// `self.encode().len()` — the reported size *is* the serialized size
    /// (proven by `tests/container_roundtrip.rs`).
    pub fn total_bytes(&self) -> usize {
        // Fixed header: frames/height/width/steps (u32 each) + seed (u64) +
        // latent range (2 × f32), then per-frame norms and the two
        // length-prefixed streams.
        16 + 8
            + 8
            + self.frame_norms.len() * 8
            + (8 + self.keyframe_bytes.len())
            + (8 + self.aux_bytes.len())
    }

    /// Serialises the block into its container frame (the exact layout
    /// [`CompressedBlock::total_bytes`] accounts for).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.total_bytes());
        out.extend_from_slice(&(self.frames as u32).to_le_bytes());
        out.extend_from_slice(&(self.height as u32).to_le_bytes());
        out.extend_from_slice(&(self.width as u32).to_le_bytes());
        out.extend_from_slice(&(self.denoising_steps as u32).to_le_bytes());
        out.extend_from_slice(&self.sampling_seed.to_le_bytes());
        out.extend_from_slice(&self.latent_range.0.to_le_bytes());
        out.extend_from_slice(&self.latent_range.1.to_le_bytes());
        for &(mean, range) in &self.frame_norms {
            out.extend_from_slice(&mean.to_le_bytes());
            out.extend_from_slice(&range.to_le_bytes());
        }
        write_section(&mut out, &self.keyframe_bytes);
        write_section(&mut out, &self.aux_bytes);
        debug_assert_eq!(out.len(), self.total_bytes());
        out
    }

    /// Parses a frame produced by [`CompressedBlock::encode`].
    pub fn decode(frame: &[u8]) -> Result<Self, ContainerError> {
        Ok(Self::read(frame)?)
    }

    /// [`CompressedBlock::decode`] with the reader's own error — what
    /// [`Codec::decode`] reports.
    fn read(frame: &[u8]) -> Result<Self, ReadError> {
        let mut reader = ByteReader::new(frame);
        let frames = reader.read_u32()? as usize;
        let height = reader.read_u32()? as usize;
        let width = reader.read_u32()? as usize;
        let denoising_steps = reader.read_u32()? as usize;
        let sampling_seed = reader.read_u64()?;
        let latent_range = (reader.read_f32()?, reader.read_f32()?);
        if frames == 0 {
            return Err(ReadError::Malformed("block frame declares zero frames"));
        }
        let values = reader.read_f32s(frames.saturating_mul(2))?;
        let (norms, _) = values.as_chunks();
        let frame_norms = norms.iter().map(|&[mean, range]| (mean, range)).collect();
        let keyframe_bytes = reader.read_section()?.to_vec();
        let aux_bytes = reader.read_section()?.to_vec();
        reader.expect_end()?;
        Ok(CompressedBlock {
            frames,
            height,
            width,
            frame_norms,
            latent_range,
            keyframe_bytes,
            aux_bytes,
            sampling_seed,
            denoising_steps,
        })
    }

    /// Number of uncompressed bytes the block represents.
    pub fn original_bytes(&self) -> usize {
        self.frames * self.height * self.width * std::mem::size_of::<f32>()
    }

    /// Compression ratio of this block.
    pub fn compression_ratio(&self) -> f64 {
        self.original_bytes() as f64 / self.total_bytes() as f64
    }
}

/// Errors surfaced by [`GldCompressor::try_train`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GldError {
    /// `train` was called with no variables at all.
    NoTrainingData,
    /// The VAE and diffusion configs disagree on latent channel count.
    LatentChannelMismatch {
        /// Channels the VAE produces.
        vae: usize,
        /// Channels the diffusion model expects.
        diffusion: usize,
    },
}

impl fmt::Display for GldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GldError::NoTrainingData => write!(
                f,
                "GldCompressor::train requires at least one training variable, got an empty slice"
            ),
            GldError::LatentChannelMismatch { vae, diffusion } => write!(
                f,
                "VAE and diffusion latent channel counts must match (VAE {vae}, diffusion {diffusion})"
            ),
        }
    }
}

impl std::error::Error for GldError {}

/// The trained generative latent diffusion compressor.
pub struct GldCompressor {
    config: GldConfig,
    vae: Vae,
    diffusion: ConditionalDiffusion,
    error_bound: PcaErrorBound,
}

impl GldCompressor {
    /// Trains both stages on the given variables (paper §3.4) and returns
    /// the ready-to-use compressor.  Panics with a descriptive message on
    /// invalid input; use [`GldCompressor::try_train`] to handle the error.
    pub fn train(config: GldConfig, variables: &[Variable], budget: GldTrainingBudget) -> Self {
        Self::try_train(config, variables, budget).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`GldCompressor::train`].
    pub fn try_train(
        config: GldConfig,
        variables: &[Variable],
        budget: GldTrainingBudget,
    ) -> Result<Self, GldError> {
        if config.vae.latent_channels != config.diffusion.latent_channels {
            return Err(GldError::LatentChannelMismatch {
                vae: config.vae.latent_channels,
                diffusion: config.diffusion.latent_channels,
            });
        }
        let Some(first) = variables.first() else {
            return Err(GldError::NoTrainingData);
        };
        // Stage one: VAE with hyperprior on random crops.
        let patch = first.frames.dim(1).min(first.frames.dim(2)).min(16);
        let mut vae_trainer = VaeTrainer::new(config.vae, patch, 2);
        vae_trainer.train(variables, budget.vae_steps);
        let vae = vae_trainer.into_model();

        // Stage two: freeze the encoder, train the latent diffusion model on
        // normalised latent blocks.
        let blocks = Self::latent_training_blocks(&config, &vae, variables);
        let partition = config.partition();
        let mut diff_trainer = DiffusionTrainer::new(config.diffusion);
        diff_trainer.train(&blocks, &partition, budget.diffusion_steps);
        if budget.fine_tune_steps > 0 {
            diff_trainer.fine_tune(
                &blocks,
                &partition,
                budget.fine_tune_schedule,
                budget.fine_tune_steps,
            );
        }
        let diffusion = diff_trainer.into_model();

        Ok(Self::from_parts(config, vae, diffusion))
    }

    /// Assembles a compressor from already-trained components.
    pub fn from_parts(config: GldConfig, vae: Vae, diffusion: ConditionalDiffusion) -> Self {
        GldCompressor {
            error_bound: PcaErrorBound::new(config.error_bound),
            config,
            vae,
            diffusion,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GldConfig {
        &self.config
    }

    /// The trained VAE (shared with the learned baselines in the benches).
    pub fn vae(&self) -> &Vae {
        &self.vae
    }

    /// The trained diffusion model.
    pub fn diffusion(&self) -> &ConditionalDiffusion {
        &self.diffusion
    }

    /// Overrides the number of denoising steps used at decompression.
    pub fn set_denoising_steps(&mut self, steps: usize) {
        self.config.denoising_steps = steps.max(1);
    }

    /// Builds normalised latent training blocks from full-resolution
    /// variables: each temporal window of N frames is encoded frame-by-frame
    /// with the frozen VAE, quantised and min-max normalised to `[-1, 1]`
    /// (Algorithm 1, lines 3–5), in variable order, then temporal order.
    pub fn latent_training_blocks(
        config: &GldConfig,
        vae: &Vae,
        variables: &[Variable],
    ) -> Vec<Tensor> {
        let blocks: Vec<Tensor> = variables
            .iter()
            .flat_map(|variable| {
                gld_datasets::blocks::temporal_windows_iter(variable, config.block_frames)
            })
            .map(|window| {
                let (normalized, _) = Self::normalize_frames(&window.data);
                let y = vae.quantize_latent(&normalized);
                let (y_norm, _, _) = y.normalize_minmax();
                y_norm
            })
            .collect();
        assert!(
            !blocks.is_empty(),
            "no complete temporal windows available for training"
        );
        blocks
    }

    fn normalize_frames(block: &Tensor) -> (Tensor, Vec<FrameNorm>) {
        let n = block.dim(0);
        let (h, w) = (block.dim(1), block.dim(2));
        let mut norms = Vec::with_capacity(n);
        let mut frames = Vec::with_capacity(n);
        for t in 0..n {
            let frame = block.slice_axis(0, t, t + 1);
            let (norm, mean, range) = frame.normalize_mean_range();
            norms.push(FrameNorm { mean, range });
            frames.push(norm);
        }
        let refs: Vec<&Tensor> = frames.iter().collect();
        (Tensor::concat(&refs, 0).reshape(&[n, 1, h, w]), norms)
    }

    fn denormalize_frames(frames: &Tensor, norms: &[(f32, f32)]) -> Tensor {
        let n = frames.dim(0);
        let (h, w) = (frames.dim(2), frames.dim(3));
        let flat = frames.reshape(&[n, h, w]);
        let mut out = Vec::with_capacity(n);
        for (t, &(mean, range)) in norms.iter().enumerate() {
            out.push(
                flat.slice_axis(0, t, t + 1)
                    .denormalize_mean_range(mean, range),
            );
        }
        let refs: Vec<&Tensor> = out.iter().collect();
        Tensor::concat(&refs, 0)
    }

    /// The uncorrected reconstruction from decoded keyframe latents `y_key`
    /// — everything between the entropy decoder and the correction stream.
    fn reconstruct(&self, compressed: &CompressedBlock, y_key: &Tensor) -> Tensor {
        static GENERATES: OnceLock<Arc<gld_obs::Counter>> = OnceLock::new();
        GENERATES
            .get_or_init(|| gld_obs::registry::counter("gld_diffusion_generate_total", &[]))
            .inc();
        let partition = self.config.partition();
        assert_eq!(compressed.frames, partition.total, "partition mismatch");
        // 1. Min-max normalise latents using the keyframe range (identical on
        //    both sides because it is derived from decoded keyframes).
        let (lo, hi) = compressed.latent_range;
        let scale = if hi > lo { 2.0 / (hi - lo) } else { 1.0 };
        let y_key_norm = y_key.map(|v| (v - lo) * scale - 1.0);
        // 2. Assemble the conditioning block and generate the missing frames.
        let (kc, kl, kh, kw) = (
            y_key_norm.dim(0),
            y_key_norm.dim(1),
            y_key_norm.dim(2),
            y_key_norm.dim(3),
        );
        assert_eq!(kc, partition.num_conditioning());
        let mut y_cond = Tensor::zeros(&[partition.total, kl, kh, kw]);
        y_cond.index_assign(0, &partition.conditioning, &y_key_norm);
        let mut rng = TensorRng::new(compressed.sampling_seed);
        let y_gen_norm =
            self.diffusion
                .generate(&y_cond, &partition, compressed.denoising_steps, &mut rng);
        // 3. Undo latent normalisation and decode every frame.
        let y_full = y_gen_norm.map(|v| (v + 1.0) / scale + lo);
        let frames = self.vae.decode_latent(&y_full);
        Self::denormalize_frames(&frames, &compressed.frame_norms)
    }
}

impl Codec for GldCompressor {
    fn name(&self) -> &str {
        "Ours"
    }

    fn id(&self) -> CodecId {
        CodecId::Gld
    }

    /// Encodes one `[N, H, W]` block.  With a target the error-bound module
    /// adds a correction stream guaranteeing that the decoded block
    /// satisfies the bound.  The sampling seed is derived from the config
    /// seed and the window index (and stored in the block), so distinct
    /// blocks of one variable never share a noise realisation.  The bounded
    /// encode has already replayed the decoder, and a measured unbounded one
    /// replays it on the latents it holds: neither decodes.
    fn encode(&self, job: &BlockJob<'_>, _: &mut CodecScratch) -> Result<EncodedBlock, CodecError> {
        let block = job.block;
        if block.rank() != 3 {
            return Err(CodecError::UnsupportedRank { rank: block.rank() });
        }
        if block.dim(0) != self.config.block_frames {
            return Err(CodecError::FrameCount {
                expected: self.config.block_frames,
                got: block.dim(0),
            });
        }
        let partition = self.config.partition();
        let (normalized, norms) = Self::normalize_frames(block);
        let y_all = self.vae.quantize_latent(&normalized);
        let y_key = y_all.index_select(0, &partition.conditioning);
        let keyframe_bytes = LatentCodec::new(&self.vae).compress(&y_key);

        let mut compressed = CompressedBlock {
            frames: block.dim(0),
            height: block.dim(1),
            width: block.dim(2),
            frame_norms: norms.iter().map(|n| (n.mean, n.range)).collect(),
            latent_range: (y_key.min(), y_key.max()),
            keyframe_bytes,
            aux_bytes: Vec::new(),
            sampling_seed: derive_block_seed(self.config.seed, job.index),
            denoising_steps: self.config.denoising_steps,
        };
        let mut sq_err = None;
        if job.target.is_some() || job.measure {
            // Replay the decoder on the keyframes as it will decode them:
            // the symbols the bitstream carries, widened as
            // `LatentCodec::decompress` widens them (a `-0.0` held here must
            // not leak into the replay).
            let symbols = y_key.quantized_symbols();
            let decoded = symbols.iter().map(|&s| s as f32).collect();
            let mut recon = self.reconstruct(&compressed, &Tensor::from_vec(decoded, y_key.dims()));
            if let Some(target) = job.target {
                // `apply` returns the tensor `apply_from_aux` rebuilds, bit
                // for bit.
                let tau = PcaErrorBound::tau_for_nrmse(block, target.nrmse_for(block));
                let (corrected, aux, _) = self.error_bound.apply(block, &recon, tau);
                compressed.aux_bytes = aux;
                recon = corrected;
            }
            if job.measure {
                sq_err = Some(squared_error(block.data(), recon.data()));
            }
        }
        Ok(EncodedBlock {
            frame: compressed.encode(),
            sq_err,
        })
    }

    /// Decodes one block.  The frame must declare the configured block
    /// length and carry one latent per keyframe, or it is refused before the
    /// sampler runs.
    fn decode(&self, frame: &[u8], _: Option<&HistogramModel>) -> Result<Tensor, CodecError> {
        let compressed = CompressedBlock::read(frame)?;
        let partition = self.config.partition();
        if compressed.frames != partition.total {
            return Err(CodecError::FrameCount {
                expected: partition.total,
                got: compressed.frames,
            });
        }
        let y_key = LatentCodec::new(&self.vae).try_decompress(&compressed.keyframe_bytes)?;
        if y_key.dim(0) != partition.num_conditioning() {
            return Err(
                ReadError::Malformed("keyframe latent count differs from the strategy's").into(),
            );
        }
        let recon = self.reconstruct(&compressed, &y_key);
        if compressed.aux_bytes.is_empty() {
            return Ok(recon);
        }
        Ok(self
            .error_bound
            .try_apply_from_aux(&recon, &compressed.aux_bytes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::ErrorTarget;
    use gld_datasets::{generate, DatasetKind, FieldSpec};
    use gld_tensor::stats::nrmse;

    fn quick_compressor() -> (GldCompressor, Variable) {
        let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 31);
        let config = GldConfig::tiny();
        let compressor = GldCompressor::train(config, &ds.variables, GldTrainingBudget::tiny());
        (compressor, ds.variables.into_iter().next().unwrap())
    }

    /// The frame of `block` at window 0 under an NRMSE target, parsed.
    fn compress(c: &GldCompressor, block: &Tensor, target: Option<f32>) -> CompressedBlock {
        let job = BlockJob::new(block, target.map(ErrorTarget::Nrmse), 0);
        let frame = c.encode(&job, &mut CodecScratch::new()).unwrap().frame;
        CompressedBlock::decode(&frame).unwrap()
    }

    fn decompress(c: &GldCompressor, compressed: &CompressedBlock) -> Tensor {
        c.decode(&compressed.encode(), None).unwrap()
    }

    #[test]
    fn roundtrip_preserves_shape_and_keyframe_structure() {
        let (compressor, variable) = quick_compressor();
        let block = variable.frames.slice_axis(0, 0, 8);
        let compressed = compress(&compressor, &block, None);
        assert_eq!(compressed.frames, 8);
        assert!(compressed.total_bytes() > 0);
        assert!(compressed.total_bytes() < compressed.original_bytes());
        let recon = decompress(&compressor, &compressed);
        assert_eq!(recon.dims(), block.dims());
        assert!(recon.data().iter().all(|v| v.is_finite()));
        // Without the error-bound stream reconstruction error is bounded but
        // non-trivial.
        assert!(nrmse(&block, &recon) < 0.6);
    }

    #[test]
    fn decompression_is_deterministic() {
        let (compressor, variable) = quick_compressor();
        let block = variable.frames.slice_axis(0, 0, 8);
        let compressed = compress(&compressor, &block, None);
        let a = decompress(&compressor, &compressed);
        let b = decompress(&compressor, &compressed);
        assert_eq!(a, b, "decompression must be reproducible (stored seed)");
    }

    #[test]
    fn error_bound_is_respected_end_to_end() {
        let (compressor, variable) = quick_compressor();
        let block = variable.frames.slice_axis(0, 0, 8);
        let target = 5e-3;
        let compressed = compress(&compressor, &block, Some(target));
        // An empty correction stream means the module needed no
        // coefficient: the uncorrected reconstruction already holds.
        if compressed.aux_bytes.is_empty() {
            let plain = decompress(&compressor, &compress(&compressor, &block, None));
            assert!(nrmse(&block, &plain) <= target);
        }
        let recon = decompress(&compressor, &compressed);
        let achieved = nrmse(&block, &recon);
        assert!(
            achieved <= target * 1.01,
            "NRMSE {achieved} exceeds requested bound {target}"
        );
    }

    #[test]
    fn keyframes_only_storage_beats_all_frame_storage() {
        // The headline structural claim: storing keyframe latents + diffusion
        // costs fewer bytes than storing every frame's latents through the
        // same VAE.
        let (compressor, variable) = quick_compressor();
        let block = variable.frames.slice_axis(0, 0, 8);
        let ours = compress(&compressor, &block, None).total_bytes();
        let all_frames = gld_vae::FrameCodec::new(compressor.vae())
            .compress(&block)
            .len();
        assert!(
            ours < all_frames,
            "keyframe-only storage ({ours} B) should beat per-frame storage ({all_frames} B)"
        );
    }

    #[test]
    fn tighter_bound_costs_more_and_achieves_more() {
        let (compressor, variable) = quick_compressor();
        let block = variable.frames.slice_axis(0, 0, 8);
        let loose = compress(&compressor, &block, Some(2e-2));
        let tight = compress(&compressor, &block, Some(2e-3));
        assert!(tight.total_bytes() >= loose.total_bytes());
        let recon_tight = decompress(&compressor, &tight);
        let recon_loose = decompress(&compressor, &loose);
        assert!(nrmse(&block, &recon_tight) <= nrmse(&block, &recon_loose) + 1e-6);
    }

    #[test]
    fn compress_variable_aggregates_blocks() {
        let (compressor, variable) = quick_compressor();
        let (container, stats) =
            compressor.compress_variable(&variable, 8, Some(ErrorTarget::Nrmse(1e-2)));
        assert_eq!(container.blocks().len(), 2); // 16 frames / N = 8
        let (ratio, err) = (stats.compression_ratio, stats.nrmse);
        assert!(ratio > 1.0, "aggregate ratio {ratio}");
        assert!(err <= 1e-2 * 1.01, "aggregate NRMSE {err}");
    }
}
