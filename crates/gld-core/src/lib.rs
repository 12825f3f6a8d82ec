//! # gld-core
//!
//! The end-to-end generative latent diffusion compressor — the paper's
//! primary contribution — together with everything the evaluation section
//! needs:
//!
//! * [`keyframes`] — keyframe selection strategies (§4.4): prediction-based,
//!   interpolation-based and mixed, plus the interval sweep of §4.5;
//! * [`error_bound`] — the PCA residual post-processing module that turns
//!   the lossy reconstruction into one with a guaranteed error bound (§3.5);
//! * [`pipeline`] — [`pipeline::GldCompressor`]: VAE + hyperprior keyframe
//!   coding, conditional latent diffusion interpolation of the remaining
//!   frames, and compression-ratio accounting (Eq. 11);
//! * [`learned_baselines`] — analogues of CDC-X/CDC-ε, GCD and VAE-SR that
//!   share the same VAE substrate but store latents for *every* frame, the
//!   structural difference the paper's comparison isolates;
//! * [`sweep`] — rate–distortion sweep helpers used by the benchmark
//!   harness to regenerate Figure 3 and the headline claims;
//! * [`codec`] — the unified [`codec::Codec`] trait every compressor family
//!   implements, with shared parallel per-variable accounting;
//! * [`container`] — the framed binary container (`GLDC` magic, version,
//!   codec id, length-prefixed block frames) that makes compressed output a
//!   plain byte stream whose measured size is the reported size; since v3
//!   every frame runs through the adaptive per-frame `gld-lz` lossless
//!   stage, keeping whichever of the staged and raw payloads is smaller.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod container;
pub mod crc32;
pub mod error_bound;
pub mod executor;
pub mod keyframes;
pub mod learned_baselines;
pub mod pipeline;
pub mod sweep;

pub use codec::{
    compress_variable_to_writer_fmt, compress_variable_to_writer_with, BlockJob, Codec, CodecError,
    CodecScratch, EncodedBlock, ErrorTarget, StreamWriteError, VariableStats,
};
pub use container::{
    CodecId, Container, ContainerError, ContainerFormat, ContainerWriter, DictMode, EntropyProfile,
    LostFrame, Salvage, SalvageReport,
};
pub use error_bound::{ErrorBoundConfig, ErrorBoundOutcome, PcaErrorBound};
pub use executor::{
    fit_variable_profile, profile_fit_fingerprint, StageMode, StreamConfig, StreamMetrics,
    WarmProfile,
};
/// Kernel backend dispatch (re-exported): the SIMD/scalar inner loops every
/// codec in this stack runs on, selectable via `GLD_KERNEL_BACKEND` or
/// [`gld_kernels::force`].
pub use gld_kernels;
pub use keyframes::{KeyframeStrategy, KeyframeSummary};
pub use learned_baselines::{LearnedBaseline, LearnedBaselineKind};
pub use pipeline::{
    derive_block_seed, CompressedBlock, GldCompressor, GldConfig, GldError, GldTrainingBudget,
};
pub use sweep::{RatePoint, RateSweep};
