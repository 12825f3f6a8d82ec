//! # gld-tensor
//!
//! Dense `f32` tensor substrate for the GLD (Generative Latent Diffusion)
//! compression stack.
//!
//! The crate provides exactly what the learned-compression pipeline needs and
//! nothing more: contiguous row-major tensors, broadcasting element-wise
//! arithmetic, batched matrix multiplication (the GEMM itself is
//! `gld-kernels`' runtime-dispatched `gemm_f32`), `im2col`/`col2im` for
//! convolutions, fused multi-head attention, reductions, a seeded random-number layer, and a small
//! symmetric eigensolver used by the PCA-based error-bound module.
//!
//! Design notes (see `DESIGN.md` at the workspace root):
//!
//! * Storage is always contiguous row-major `Vec<f32>`; strided views are not
//!   exposed.  This keeps the autograd layer in `gld-nn` simple.
//! * Every op runs on the thread that calls it, so its result never depends
//!   on a worker count.  Parallelism lives one level up: `gld-core`'s block
//!   executor hands whole temporal blocks to the thread pool, and each
//!   block's tensor ops run inside its job.
//! * Shape errors panic with a descriptive message.  The compression stack
//!   constructs all shapes statically from configuration structs, so a shape
//!   mismatch is always a programming error, never a data error.
//! * All randomness flows through [`random::TensorRng`], which wraps a seeded
//!   PRNG so that experiments are reproducible.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attention;
pub mod conv;
pub mod eig;
#[cfg(test)]
mod naive;
pub mod ops;
pub mod pool;
pub mod random;
pub mod reduce;
pub mod shape;
pub mod stats;
pub mod tensor;

pub use random::TensorRng;
pub use shape::{broadcast_shapes, Shape};
pub use tensor::Tensor;

/// Convenience prelude re-exporting the items almost every consumer needs.
pub mod prelude {
    pub use crate::random::TensorRng;
    pub use crate::shape::{broadcast_shapes, Shape};
    pub use crate::tensor::Tensor;
}
