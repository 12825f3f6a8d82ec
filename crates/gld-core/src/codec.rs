//! The unified compressor interface.
//!
//! Every compressor family in the stack — the generative latent diffusion
//! pipeline, the SZ3-like and ZFP-like rule-based coders, and the learned
//! per-frame baselines — implements [`Codec`], so the integration tests and
//! every `gld-bench` binary drive all of them through one call path with
//! shared compression-ratio / NRMSE accounting (paper Eq. 11) instead of
//! four bespoke protocols.
//!
//! A codec turns a `[N, H, W]` block into a self-describing byte *frame* and
//! back.  The provided [`Codec::compress_variable`] method drives the
//! **streaming block executor** (`crate::executor`): temporal windows are
//! pulled lazily, compressed in parallel on the persistent pool (block
//! index-derived seeds keep the output bit-identical to the sequential
//! path — see `tests/container_roundtrip.rs`), and emitted in temporal order
//! into a [`Container`] whose measured encoded length *is* the reported
//! size, holding at most the configured queue depth of blocks in memory.
//! [`Codec::compress_variable_into`] streams the encoded container straight
//! into any `io::Write` without buffering frames at all.

use crate::container::{
    write_section, ByteReader, CodecId, Container, ContainerError, ContainerFormat, ContainerWriter,
};
use crate::error_bound::{ErrorBoundConfig, PcaErrorBound};
use crate::executor::{
    checked_windows, compress_window_outcome, decompress_blocks, fit_variable_profile,
    stream_compress_variable, BlockOutcome, StageMode, StreamConfig, StreamMetrics,
};
use crate::learned_baselines::{LearnedBaseline, LearnedBaselineKind};
use gld_baselines::{
    BaselineError, ErrorBoundedCompressor, SzCompressor, SzScratch, ZfpLikeCompressor, ZfpScratch,
};
use gld_datasets::Variable;
use gld_entropy::HistogramModel;
use gld_lz::LzScratch;
use gld_tensor::Tensor;
use std::fmt;
use std::io::Write;
use std::sync::Arc;

/// Typed failure of a block compression through the [`Codec`] trait —
/// unsupported inputs surface here instead of panicking (e.g. a rank-5
/// tensor handed to a rule-based codec).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// The block's tensor rank is outside what the codec supports.
    UnsupportedRank {
        /// Rank of the offending block.
        rank: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnsupportedRank { rank } => {
                write!(f, "codec does not support tensor rank {rank}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

impl From<BaselineError> for CodecError {
    fn from(e: BaselineError) -> Self {
        match e {
            BaselineError::UnsupportedRank { rank } => CodecError::UnsupportedRank { rank },
        }
    }
}

/// Reusable per-worker scratch arena threaded through the block-compression
/// hot path: the rule-based codecs' reconstruction/code/escape buffers plus
/// a rolling output-size hint used to pre-size each frame allocation.
///
/// One `CodecScratch` lives per executor worker thread (and one per
/// sequential compression loop), so steady-state block compression allocates
/// only the emitted frame itself.  Frames are bit-identical whether the
/// scratch is fresh or reused — `tests/hotpath_equivalence.rs` proves it.
#[derive(Debug, Default)]
pub struct CodecScratch {
    /// SZ3-like per-block buffers.
    pub sz: SzScratch,
    /// ZFP-like per-block buffers.
    pub zfp: ZfpScratch,
    /// `gld-lz` stage state (hash chains, adaptive models, stream buffer)
    /// for the container v3 per-frame stage, staged on the same worker
    /// thread as the codec itself.
    pub lz: LzScratch,
    frame_hint: usize,
}

impl CodecScratch {
    /// Creates an empty scratch arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Capacity to pre-reserve for the next frame: the previous frame's
    /// length rounded up a little, so steady-state encoding does a single
    /// allocation per frame with no growth reallocations.
    pub fn frame_capacity_hint(&self) -> usize {
        self.frame_hint + self.frame_hint / 8
    }

    /// Records an emitted frame length for the next hint.
    pub fn note_frame_len(&mut self, len: usize) {
        self.frame_hint = len;
    }
}

/// A sink failure during [`compress_variable_to_writer`], carrying how far
/// the encoded container got before the abort: `frames_emitted` frames were
/// fully written (a partially written frame does not count).  Long-running
/// consumers — the sharded service in particular — report this in their
/// partial-write diagnostics instead of a bare I/O error.
#[derive(Debug)]
pub struct StreamWriteError {
    /// The underlying sink error.
    pub error: std::io::Error,
    /// Container frames completely written before the sink failed.  Zero
    /// when the header itself failed to write.
    pub frames_emitted: usize,
}

impl fmt::Display for StreamWriteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "container stream aborted after {} complete frame(s): {}",
            self.frames_emitted, self.error
        )
    }
}

impl std::error::Error for StreamWriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

impl From<StreamWriteError> for std::io::Error {
    fn from(e: StreamWriteError) -> Self {
        e.error
    }
}

/// Streams the compressed variable straight into `writer` as an encoded
/// container — the dyn-compatible entry point behind
/// [`Codec::compress_variable_into`], callable on `&dyn Codec` (the sharded
/// service routes every registered codec through it).  Frames are written
/// (and dropped) the moment they are next in temporal order, so neither the
/// windows nor the frames accumulate — peak memory is bounded by the
/// executor's queue depth.  The bytes written are exactly
/// [`Codec::compress_variable`]'s container encoding.
///
/// On a sink failure the stream is cancelled (remaining windows are never
/// compressed) and the returned [`StreamWriteError`] reports how many frames
/// were completely written before the abort.
pub fn compress_variable_to_writer<C, W>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    config: StreamConfig,
    writer: W,
) -> Result<(W, VariableStats, StreamMetrics), StreamWriteError>
where
    C: Codec + ?Sized,
    W: Write,
{
    compress_variable_to_writer_fmt(
        codec,
        variable,
        block_frames,
        target,
        config,
        ContainerFormat::V3,
        writer,
    )
}

/// [`compress_variable_to_writer`] with an explicit container wire format —
/// the service uses this to answer stage-incapable clients with a v2
/// (stage-free) stream, staged sessions with v3, and profile-capable
/// sessions with v4: it picks the [`StageMode`] (fitting the variable's
/// shared profile for v4) and calls [`compress_variable_to_writer_with`].
#[allow(clippy::too_many_arguments)]
pub fn compress_variable_to_writer_fmt<C, W>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    config: StreamConfig,
    format: ContainerFormat,
    writer: W,
) -> Result<(W, VariableStats, StreamMetrics), StreamWriteError>
where
    C: Codec + ?Sized,
    W: Write,
{
    let stage = match format {
        ContainerFormat::V4 => StageMode::Shared(Arc::new(fit_variable_profile(
            codec,
            variable,
            block_frames,
            target,
        ))),
        ContainerFormat::V3 => StageMode::PerFrame,
        ContainerFormat::V2 => StageMode::Off,
    };
    compress_variable_to_writer_with(codec, variable, block_frames, target, config, stage, writer)
}

/// [`compress_variable_to_writer`] under a caller-chosen [`StageMode`], which
/// fixes the wire format: `Off` writes a stage-free v2 stream, `PerFrame`
/// stages every frame cold on the executor's workers (v3), `Shared` codes
/// every frame warm against the given profile (v4) — which must be what
/// [`fit_variable_profile`] returns for these arguments: a caller that holds
/// that profile already passes it here instead of fitting again.
#[allow(clippy::too_many_arguments)]
pub fn compress_variable_to_writer_with<C, W>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    config: StreamConfig,
    stage: StageMode,
    writer: W,
) -> Result<(W, VariableStats, StreamMetrics), StreamWriteError>
where
    C: Codec + ?Sized,
    W: Write,
{
    // Validate before the header leaves this process: a zero-window
    // variable must panic (as the other compress paths do) without first
    // writing a partial container to the caller's file/socket.
    let (_, count) = checked_windows(variable, block_frames);
    let format = match stage {
        StageMode::Off => ContainerFormat::V2,
        StageMode::PerFrame => ContainerFormat::V3,
        StageMode::Shared(_) => ContainerFormat::V4,
    };
    let (profiles, profile_id) = stage.profile();
    let mut sink = ContainerWriter::start(writer, codec.id(), count as u32, format, profiles)
        .map_err(|error| StreamWriteError {
            error,
            frames_emitted: 0,
        })?;
    let mut acc = StatsAccumulator::new();
    let mut io_error: Option<std::io::Error> = None;
    let metrics = stream_compress_variable(
        codec,
        variable,
        block_frames,
        target,
        config,
        stage,
        |_, outcome| {
            acc.add(&outcome);
            match sink.write_profiled_frame(&outcome.frame, profile_id, outcome.lz.as_deref()) {
                Ok(()) => true,
                Err(e) => {
                    // Cancel the stream: compressing the remaining windows
                    // cannot un-fail the sink.
                    io_error = Some(e);
                    false
                }
            }
        },
    );
    if let Some(error) = io_error {
        return Err(StreamWriteError {
            error,
            frames_emitted: sink.frames_written() as usize,
        });
    }
    // The measured stream length is the reported compressed size — identical
    // to `Container::encoded_len` for these frames.
    let compressed_bytes = sink.bytes_written();
    // `finish` asserts every declared frame arrived.
    let frames_emitted = sink.frames_written() as usize;
    let writer = sink.finish().map_err(|error| StreamWriteError {
        error,
        frames_emitted,
    })?;
    Ok((writer, acc.finish(compressed_bytes), metrics))
}

/// Reconstruction-quality target for a lossy compressor, in either of the
/// two conventions the paper's evaluation uses.
///
/// Each codec honours the target in its *native* guarantee:
///
/// * the rule-based codecs (SZ3-like, ZFP-like) bound point-wise error, so
///   an [`ErrorTarget::Nrmse`] target is converted conservatively — a
///   point-wise bound of `t × range` implies NRMSE ≤ `t`;
/// * the GLD pipeline and the learned baselines bound NRMSE (the paper's
///   PCA error-bound module, §3.5), so an [`ErrorTarget::PointwiseAbs`]
///   target is interpreted as the NRMSE bound `abs / range`.  That is a
///   **weaker** guarantee: individual values may still deviate by more than
///   `abs`.  Callers needing a strict point-wise bound should use the
///   rule-based codecs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ErrorTarget {
    /// Bound on the normalised RMSE of the reconstructed block.
    Nrmse(f32),
    /// Bound on the point-wise absolute error of every reconstructed value.
    PointwiseAbs(f32),
}

impl ErrorTarget {
    /// The equivalent point-wise absolute bound for `block`.  A point-wise
    /// bound of `t * range` implies NRMSE ≤ `t`, so this conversion is
    /// conservative for codecs that guarantee point-wise error.
    pub fn pointwise_for(&self, block: &Tensor) -> f32 {
        match *self {
            ErrorTarget::PointwiseAbs(abs) => abs,
            ErrorTarget::Nrmse(t) => t * (block.max() - block.min()).max(1e-30),
        }
    }

    /// The equivalent NRMSE bound for `block`.  Note the asymmetry: a
    /// point-wise bound implies this NRMSE bound, but the converse does not
    /// hold — see the type-level docs on [`ErrorTarget`].
    pub fn nrmse_for(&self, block: &Tensor) -> f32 {
        match *self {
            ErrorTarget::Nrmse(t) => t,
            ErrorTarget::PointwiseAbs(abs) => abs / (block.max() - block.min()).max(1e-30),
        }
    }
}

/// Aggregate accounting for one compressed variable (or a merged set of
/// variables), shared by every codec.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VariableStats {
    /// Number of compressed temporal blocks.
    pub blocks: usize,
    /// Uncompressed bytes covered by those blocks.
    pub original_bytes: usize,
    /// Encoded container length in bytes — by construction identical to
    /// `container.encode().len()`.
    pub compressed_bytes: usize,
    /// `original_bytes / compressed_bytes` (Eq. 11).
    pub compression_ratio: f64,
    /// NRMSE of the reconstruction over all blocks (range taken over the
    /// covered frames).
    pub nrmse: f32,
    /// `(min, max)` of the covered original values — what the NRMSE is
    /// normalised by, kept so stats from several variables can be merged.
    pub value_range: (f32, f32),
}

impl VariableStats {
    /// Merges per-variable stats into dataset-level accounting: byte counts
    /// add up, and the NRMSE is recomputed against the global value range
    /// (exactly how the paper's per-dataset figures aggregate).
    pub fn merge(stats: &[VariableStats]) -> VariableStats {
        assert!(!stats.is_empty(), "cannot merge zero stats");
        let mut blocks = 0usize;
        let mut original_bytes = 0usize;
        let mut compressed_bytes = 0usize;
        let mut sq_err = 0.0f64;
        let mut numel = 0usize;
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for s in stats {
            blocks += s.blocks;
            original_bytes += s.original_bytes;
            compressed_bytes += s.compressed_bytes;
            let count = s.original_bytes / std::mem::size_of::<f32>();
            let rmse = (s.nrmse * (s.value_range.1 - s.value_range.0).max(1e-30)) as f64;
            sq_err += rmse * rmse * count as f64;
            numel += count;
            lo = lo.min(s.value_range.0);
            hi = hi.max(s.value_range.1);
        }
        VariableStats {
            blocks,
            original_bytes,
            compressed_bytes,
            compression_ratio: original_bytes as f64 / compressed_bytes.max(1) as f64,
            nrmse: ((sq_err / numel.max(1) as f64).sqrt() as f32) / (hi - lo).max(1e-30),
            value_range: (lo, hi),
        }
    }
}

/// A block compressor with a self-describing byte-frame format.
///
/// `Sync` is required so the provided `compress_variable` can fan blocks out
/// across threads.
pub trait Codec: Sync {
    /// Display name matching the paper's figures.
    fn name(&self) -> &str;

    /// Container codec id for frames produced by this codec.
    fn id(&self) -> CodecId;

    /// Compresses a `[N, H, W]` block into a self-describing frame.
    ///
    /// `block_index` is the temporal window index within the variable;
    /// stochastic codecs derive their sampling seed from it so distinct
    /// blocks never share a noise realisation while identical inputs still
    /// produce identical frames.  Deterministic codecs ignore it.
    fn compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        block_index: u64,
    ) -> Vec<u8>;

    /// Fallible variant of [`Codec::compress_block_at`]: inputs the codec
    /// cannot represent surface as a typed [`CodecError`] instead of a
    /// panic.  The default delegates to the panicking path (codecs that can
    /// fail should override).
    fn try_compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        block_index: u64,
    ) -> Result<Vec<u8>, CodecError> {
        Ok(self.compress_block_at(block, target, block_index))
    }

    /// [`Codec::compress_block_at`] with a caller-provided scratch arena.
    /// Hot codecs override this to reuse `scratch`'s buffers; the output
    /// bytes must be identical to [`Codec::compress_block_at`] regardless of
    /// the scratch's previous contents.  The default ignores the scratch.
    fn compress_block_scratch(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        block_index: u64,
        scratch: &mut CodecScratch,
    ) -> Vec<u8> {
        let _ = scratch;
        self.compress_block_at(block, target, block_index)
    }

    /// Reconstructs a block from a frame produced by this codec.
    fn decompress_block(&self, frame: &[u8]) -> Tensor;

    /// The histogram model embedded in a frame this codec produced, if its
    /// format embeds one — the seed for a container-level shared entropy
    /// profile.  Codecs without a shareable model return `None` (the
    /// default); they still benefit from a profile's stage warm-start and
    /// seed dictionary.
    fn frame_model(&self, frame: &[u8]) -> Option<HistogramModel> {
        let _ = frame;
        None
    }

    /// [`Codec::compress_block_scratch`] against a shared entropy model:
    /// when the model covers the block's codes, the frame references it
    /// instead of embedding its own per-frame fit, and must then be decoded
    /// through [`Codec::decompress_block_shared`] with the same model.  The
    /// default ignores the model and codes cold — correct for codecs whose
    /// frames embed no shareable model.
    fn compress_block_shared(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        block_index: u64,
        scratch: &mut CodecScratch,
        model: &HistogramModel,
    ) -> Vec<u8> {
        let _ = model;
        self.compress_block_scratch(block, target, block_index, scratch)
    }

    /// [`Codec::decompress_block`] with the shared model the frame may
    /// reference.  Frames that embed their own model ignore `model`, so this
    /// is safe to call on every frame of a profiled container.  The default
    /// ignores it entirely.
    fn decompress_block_shared(&self, frame: &[u8], model: Option<&HistogramModel>) -> Tensor {
        let _ = model;
        self.decompress_block(frame)
    }

    /// Compresses a block — as [`Codec::compress_block_shared`] under
    /// `model`, as [`Codec::compress_block_scratch`] without one — and
    /// returns the frame with Σ(original − reconstruction)², where the
    /// reconstruction is [`Codec::decompress_block_shared`]'s for that frame
    /// and model, bit for bit.  The default decodes the frame it wrote; a
    /// codec that holds the decoder's reconstruction when it finishes
    /// encoding overrides this and sums against that instead.
    fn compress_block_measured(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        block_index: u64,
        scratch: &mut CodecScratch,
        model: Option<&HistogramModel>,
    ) -> (Vec<u8>, f64) {
        let frame = match model {
            Some(m) => self.compress_block_shared(block, target, block_index, scratch, m),
            None => self.compress_block_scratch(block, target, block_index, scratch),
        };
        let recon = self.decompress_block_shared(&frame, model);
        let sq_err = squared_error(block.data(), recon.data());
        (frame, sq_err)
    }

    /// Compresses a standalone block (window index 0).
    fn compress_block(&self, block: &Tensor, target: Option<ErrorTarget>) -> Vec<u8> {
        self.compress_block_at(block, target, 0)
    }

    /// Compresses every complete temporal window of `variable` through the
    /// streaming block executor (parallel, bounded-memory) and packs the
    /// frames into a [`Container`], returning it with the shared ratio/NRMSE
    /// accounting.  Bit-identical to
    /// [`Codec::compress_variable_sequential`].
    fn compress_variable(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
    ) -> (Container, VariableStats) {
        let (container, stats, _) = self.compress_variable_streaming(
            variable,
            block_frames,
            target,
            StreamConfig::default(),
        );
        (container, stats)
    }

    /// [`Codec::compress_variable`] with explicit executor tuning, also
    /// returning the execution metrics (peak resident blocks, for asserting
    /// the memory bound).
    fn compress_variable_streaming(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
        config: StreamConfig,
    ) -> (Container, VariableStats, StreamMetrics) {
        compress_streaming(
            self,
            variable,
            block_frames,
            target,
            config,
            StageMode::PerFrame,
        )
    }

    /// [`Codec::compress_variable`] under a shared cross-frame coding
    /// profile (container v4): the profile is fitted on the variable's
    /// first temporal window, every frame is coded warm against it — shared
    /// entropy model, primed stage models, first-block seed dictionary —
    /// and the returned [`Container`] carries the profile table, encoding as
    /// v4.  Bit-identical to
    /// [`Codec::compress_variable_profiled_sequential`].
    fn compress_variable_profiled(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
        config: StreamConfig,
    ) -> (Container, VariableStats, StreamMetrics) {
        let warm = Arc::new(fit_variable_profile(self, variable, block_frames, target));
        compress_streaming(
            self,
            variable,
            block_frames,
            target,
            config,
            StageMode::Shared(warm),
        )
    }

    /// Sequential reference implementation of
    /// [`Codec::compress_variable_profiled`], kept callable so v4
    /// determinism is testable.
    fn compress_variable_profiled_sequential(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
    ) -> (Container, VariableStats) {
        let warm = Arc::new(fit_variable_profile(self, variable, block_frames, target));
        compress_sequential(
            self,
            variable,
            block_frames,
            target,
            StageMode::Shared(warm),
        )
    }

    /// Streams the compressed variable straight into `writer` as an encoded
    /// container: frames are written (and dropped) the moment they are next
    /// in temporal order, so neither the windows *nor* the frames accumulate
    /// — peak memory is bounded by the executor's queue depth.  The bytes
    /// written are exactly [`Codec::compress_variable`]'s container encoding.
    ///
    /// On a sink failure the remaining windows are abandoned and the
    /// returned [`StreamWriteError`] carries the number of frames completely
    /// written before the abort.  (For `&dyn Codec` callers the free
    /// function [`compress_variable_to_writer`] is the same entry point
    /// without the `Sized` bound.)
    fn compress_variable_into<W: Write>(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
        config: StreamConfig,
        writer: W,
    ) -> Result<(W, VariableStats, StreamMetrics), StreamWriteError>
    where
        Self: Sized,
    {
        compress_variable_to_writer(self, variable, block_frames, target, config, writer)
    }

    /// Sequential reference implementation of [`Codec::compress_variable`],
    /// kept callable so determinism is testable.
    fn compress_variable_sequential(
        &self,
        variable: &Variable,
        block_frames: usize,
        target: Option<ErrorTarget>,
    ) -> (Container, VariableStats) {
        compress_sequential(self, variable, block_frames, target, StageMode::PerFrame)
    }

    /// Compresses every variable of a dataset (one [`Container`] per
    /// variable, parallel within each) and merges the accounting into
    /// dataset-level stats — the aggregation every rate–distortion figure
    /// uses.
    fn compress_dataset(
        &self,
        variables: &[Variable],
        block_frames: usize,
        target: Option<ErrorTarget>,
    ) -> (Vec<Container>, VariableStats) {
        assert!(!variables.is_empty(), "dataset has no variables");
        let mut containers = Vec::with_capacity(variables.len());
        let mut stats = Vec::with_capacity(variables.len());
        for variable in variables {
            let (container, s) = self.compress_variable(variable, block_frames, target);
            containers.push(container);
            stats.push(s);
        }
        (containers, VariableStats::merge(&stats))
    }

    /// Decompresses a whole container produced by
    /// [`Codec::compress_variable`] (parallel: the blocks go to the
    /// persistent pool as one batch and the calling thread decodes beside
    /// the workers), returning the blocks in temporal order — bit-identical
    /// to decoding the frames one after another.  A container this codec
    /// cannot read is refused with a typed error before any block is
    /// decoded.
    fn decompress_container(&self, container: &Container) -> Result<Vec<Tensor>, ContainerError> {
        if container.codec() != self.id() {
            return Err(ContainerError::Corrupt(
                "container codec id does not match this codec",
            ));
        }
        // Cross-build guard: a v1 learned-codec stream predates the range
        // coder, so running today's entropy decoder over its payloads would
        // produce garbage — refuse by name instead.
        container.check_entropy_compat()?;
        Ok(decompress_blocks(self, container))
    }
}

/// The streaming executor behind [`Codec::compress_variable_streaming`]
/// (cold per-frame staging, container v3) and
/// [`Codec::compress_variable_profiled`] (warm under the fitted shared
/// profile, container v4).
fn compress_streaming<C: Codec + ?Sized>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    config: StreamConfig,
    stage: StageMode,
) -> (Container, VariableStats, StreamMetrics) {
    let (profiles, profile_id) = stage.profile();
    let mut container = Container::with_profiles(codec.id(), profiles.to_vec());
    let mut acc = StatsAccumulator::new();
    let metrics = stream_compress_variable(
        codec,
        variable,
        block_frames,
        target,
        config,
        stage,
        |_, outcome| {
            acc.add(&outcome);
            container.push_profiled(outcome.frame, profile_id, outcome.lz);
            true
        },
    );
    let compressed_bytes = container.encoded_len();
    (container, acc.finish(compressed_bytes), metrics)
}

/// The sequential reference behind [`Codec::compress_variable_sequential`]
/// and [`Codec::compress_variable_profiled_sequential`].
fn compress_sequential<C: Codec + ?Sized>(
    codec: &C,
    variable: &Variable,
    block_frames: usize,
    target: Option<ErrorTarget>,
    stage: StageMode,
) -> (Container, VariableStats) {
    let (profiles, profile_id) = stage.profile();
    let mut container = Container::with_profiles(codec.id(), profiles.to_vec());
    let (windows, _) = checked_windows(variable, block_frames);
    let mut acc = StatsAccumulator::new();
    let mut scratch = CodecScratch::new();
    for (index, window) in windows.enumerate() {
        let outcome = compress_window_outcome(
            codec,
            &window.data,
            target,
            index as u64,
            &mut scratch,
            &stage,
        );
        acc.add(&outcome);
        container.push_profiled(outcome.frame, profile_id, outcome.lz);
    }
    let compressed_bytes = container.encoded_len();
    (container, acc.finish(compressed_bytes))
}

/// Σ(a − b)² the way every reported NRMSE sums it: `f32` subtract, widen,
/// square, add in index order.
pub(crate) fn squared_error(a: &[f32], b: &[f32]) -> f64 {
    let mut sum = 0.0f64;
    for (a, b) in a.iter().zip(b) {
        let d = (*a - *b) as f64;
        sum += d * d;
    }
    sum
}

/// Running aggregation of per-window partials.  Outcomes are added strictly
/// in temporal order (the executor's ordered emission / the sequential
/// loop), so parallel and sequential execution produce identical statistics
/// down to the last bit.
struct StatsAccumulator {
    blocks: usize,
    sq_err: f64,
    numel: usize,
    lo: f32,
    hi: f32,
}

impl StatsAccumulator {
    fn new() -> Self {
        StatsAccumulator {
            blocks: 0,
            sq_err: 0.0,
            numel: 0,
            lo: f32::INFINITY,
            hi: f32::NEG_INFINITY,
        }
    }

    fn add(&mut self, outcome: &BlockOutcome) {
        self.blocks += 1;
        self.sq_err += outcome.sq_err;
        self.numel += outcome.numel;
        self.lo = self.lo.min(outcome.lo);
        self.hi = self.hi.max(outcome.hi);
    }

    fn finish(&self, compressed_bytes: usize) -> VariableStats {
        let original_bytes = self.numel * std::mem::size_of::<f32>();
        VariableStats {
            blocks: self.blocks,
            original_bytes,
            compressed_bytes,
            compression_ratio: original_bytes as f64 / compressed_bytes.max(1) as f64,
            nrmse: ((self.sq_err / self.numel.max(1) as f64).sqrt() as f32)
                / (self.hi - self.lo).max(1e-30),
            value_range: (self.lo, self.hi),
        }
    }
}

/// Default relative point-wise bound applied by the rule-based codecs when
/// no explicit target is given (they are always error-bounded).
const DEFAULT_RULE_REL_BOUND: f32 = 1e-3;

fn rule_based_bound(block: &Tensor, target: Option<ErrorTarget>) -> f32 {
    match target {
        Some(t) => t.pointwise_for(block),
        None => DEFAULT_RULE_REL_BOUND * (block.max() - block.min()).max(1e-30),
    }
}

/// One SZ frame through the scratch arena, cold or against a shared model.
fn sz_frame(
    sz: &SzCompressor,
    block: &Tensor,
    target: Option<ErrorTarget>,
    model: Option<&HistogramModel>,
    scratch: &mut CodecScratch,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(scratch.frame_capacity_hint());
    let bound = rule_based_bound(block, target);
    sz.compress_into_shared(block, bound, model, &mut scratch.sz, &mut out)
        .unwrap_or_else(|e| panic!("{e}"));
    scratch.note_frame_len(out.len());
    out
}

impl Codec for SzCompressor {
    fn name(&self) -> &str {
        "SZ3-like"
    }

    fn id(&self) -> CodecId {
        CodecId::SzLike
    }

    fn compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
    ) -> Vec<u8> {
        ErrorBoundedCompressor::compress(self, block, rule_based_bound(block, target))
    }

    fn try_compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
    ) -> Result<Vec<u8>, CodecError> {
        Ok(self.try_compress(block, rule_based_bound(block, target))?)
    }

    fn compress_block_scratch(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
        scratch: &mut CodecScratch,
    ) -> Vec<u8> {
        sz_frame(self, block, target, None, scratch)
    }

    fn compress_block_shared(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
        scratch: &mut CodecScratch,
        model: &HistogramModel,
    ) -> Vec<u8> {
        sz_frame(self, block, target, Some(model), scratch)
    }

    /// The quantiser ran against the decoder's reconstruction and left it in
    /// the scratch: the error is summed there, nothing is decoded.
    fn compress_block_measured(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
        scratch: &mut CodecScratch,
        model: Option<&HistogramModel>,
    ) -> (Vec<u8>, f64) {
        let frame = sz_frame(self, block, target, model, scratch);
        let sq_err = squared_error(block.data(), scratch.sz.reconstruction());
        (frame, sq_err)
    }

    fn frame_model(&self, frame: &[u8]) -> Option<HistogramModel> {
        gld_baselines::embedded_frame_model(frame)
    }

    fn decompress_block(&self, frame: &[u8]) -> Tensor {
        ErrorBoundedCompressor::decompress(self, frame)
    }

    fn decompress_block_shared(&self, frame: &[u8], model: Option<&HistogramModel>) -> Tensor {
        self.decompress_shared(frame, model)
    }
}

impl Codec for ZfpLikeCompressor {
    fn name(&self) -> &str {
        "ZFP-like"
    }

    fn id(&self) -> CodecId {
        CodecId::ZfpLike
    }

    fn compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
    ) -> Vec<u8> {
        ErrorBoundedCompressor::compress(self, block, rule_based_bound(block, target))
    }

    fn try_compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
    ) -> Result<Vec<u8>, CodecError> {
        Ok(self.try_compress(block, rule_based_bound(block, target))?)
    }

    fn compress_block_scratch(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
        scratch: &mut CodecScratch,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(scratch.frame_capacity_hint());
        self.compress_into(
            block,
            rule_based_bound(block, target),
            &mut scratch.zfp,
            &mut out,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        scratch.note_frame_len(out.len());
        out
    }

    fn compress_block_shared(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
        scratch: &mut CodecScratch,
        model: &HistogramModel,
    ) -> Vec<u8> {
        let mut out = Vec::with_capacity(scratch.frame_capacity_hint());
        self.compress_into_shared(
            block,
            rule_based_bound(block, target),
            Some(model),
            &mut scratch.zfp,
            &mut out,
        )
        .unwrap_or_else(|e| panic!("{e}"));
        scratch.note_frame_len(out.len());
        out
    }

    fn frame_model(&self, frame: &[u8]) -> Option<HistogramModel> {
        gld_baselines::embedded_frame_model(frame)
    }

    fn decompress_block(&self, frame: &[u8]) -> Tensor {
        ErrorBoundedCompressor::decompress(self, frame)
    }

    fn decompress_block_shared(&self, frame: &[u8], model: Option<&HistogramModel>) -> Tensor {
        self.decompress_shared(frame, model)
    }
}

/// Learned baselines frame layout: latent section + PCA correction section
/// (both length-prefixed; the correction is empty when no target was given).
impl Codec for LearnedBaseline<'_> {
    fn name(&self) -> &str {
        self.kind().name()
    }

    fn id(&self) -> CodecId {
        match self.kind() {
            LearnedBaselineKind::CdcX => CodecId::CdcX,
            LearnedBaselineKind::CdcEps => CodecId::CdcEps,
            LearnedBaselineKind::Gcd => CodecId::Gcd,
            LearnedBaselineKind::VaeSr => CodecId::VaeSr,
        }
    }

    fn compress_block_at(
        &self,
        block: &Tensor,
        target: Option<ErrorTarget>,
        _block_index: u64,
    ) -> Vec<u8> {
        let latent = self.compress(block);
        // All learned methods share the paper's PCA error-bound
        // post-processing (§4.1): the correction stream rides along in the
        // frame so the bound survives the round trip.
        let aux = match target {
            Some(t) => {
                let recon = self.decompress(&latent);
                let module = PcaErrorBound::new(ErrorBoundConfig::default());
                let tau = PcaErrorBound::tau_for_nrmse(block, t.nrmse_for(block));
                let (_, aux, _) = module.apply(block, &recon, tau);
                aux
            }
            None => Vec::new(),
        };
        let mut frame = Vec::with_capacity(16 + latent.len() + aux.len());
        write_section(&mut frame, &latent);
        write_section(&mut frame, &aux);
        frame
    }

    fn decompress_block(&self, frame: &[u8]) -> Tensor {
        let mut reader = ByteReader::new(frame);
        let latent = reader
            .read_section()
            .expect("learned baseline frame: latent section");
        let aux = reader
            .read_section()
            .expect("learned baseline frame: correction section");
        reader
            .expect_end()
            .expect("learned baseline frame: trailing bytes");
        let recon = self.decompress(latent);
        if aux.is_empty() {
            recon
        } else {
            PcaErrorBound::new(ErrorBoundConfig::default()).apply_from_aux(&recon, aux)
        }
    }
}
