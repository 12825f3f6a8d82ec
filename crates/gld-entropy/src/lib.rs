//! # gld-entropy
//!
//! Entropy coding for the GLD compression stack.
//!
//! Four pieces live here:
//!
//! * [`range`] — the production **byte-wise range coder**: byte-at-a-time
//!   renormalisation with carry propagation, division-free bypass bits.
//!   This is the lossless back end every compressor in the workspace uses
//!   on its hot path.
//! * [`arith`] — the original bit-renormalising arithmetic coder, kept as
//!   the reference back end for the equivalence suite and the hot-path
//!   benchmark's pre-optimisation baseline.
//! * [`backend`] — the [`EntropyEncoder`]/[`EntropyDecoder`] traits both
//!   coders implement, plus [`EntropyBackend`] pairs for parameterising
//!   whole compression paths.
//! * [`adaptive`] — header-free **adaptive** binary/bit-tree models whose
//!   probabilities converge on the data as it streams (encoder and decoder
//!   replay identical updates); the `gld-lz` general lossless stage codes
//!   its LZ sequences with these.
//! * [`gaussian`] — numerically careful normal CDF / inverse utilities.
//! * [`reader`] — the one bounds-checked [`ByteReader`] every container,
//!   protocol and codec payload is parsed with, and its typed
//!   [`ReadError`].
//! * [`models`] — the symbol models on top of the coder: the
//!   **Gaussian conditional** model used for VAE latents `y` (whose per
//!   element mean/scale come from the hyperprior, paper Eq. 1–2), the
//!   **histogram factorized prior** used for hyper-latents `z` (with a
//!   precomputed slot→bin table for the decode-side symbol search), and a
//!   raw **bypass** coder for escape values.
//!
//! The crate is deliberately framework-free: it works on plain `i32` symbol
//! slices so that both the learned compressors (`gld-vae`) and the rule-based
//! baselines (`gld-baselines`) can reuse it.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod arith;
pub mod backend;
pub mod gaussian;
pub mod models;
pub mod range;
pub mod reader;

pub use adaptive::{AdaptiveBitModel, AdaptiveTreeModel};
pub use arith::{ArithmeticDecoder, ArithmeticEncoder};
pub use backend::{
    ArithmeticBackend, EntropyBackend, EntropyDecoder, EntropyEncoder, RangeBackend,
};
pub use models::{BitCounter, BypassCoder, GaussianConditionalModel, HistogramModel};
pub use range::{RangeDecoder, RangeEncoder};
pub use reader::{
    write_dims, write_section, write_u32_section, ByteReader, ReadError, MAX_SHAPE_ELEMENTS,
};
