//! A persistent fork-join thread pool for offline builds, under rayon's
//! crate name.
//!
//! What is left of rayon's surface is the global pool: it is created lazily
//! on first use, sized by `RAYON_NUM_THREADS` (or the machine's available
//! parallelism), and its long-lived workers serve every later batch.  Work
//! reaches it through one entry point, [`pool::join_all`]: a batch of
//! borrowing jobs that the calling thread helps drain and that returns only
//! once every job has finished.  `gld_core`'s block executor is its caller;
//! tensor loops run on the thread that calls them.
//!
//! There is no parallel-iterator layer: a loop that wants the pool builds
//! its jobs and hands them to [`pool::join_all`] as one batch.

#![deny(unsafe_code)]

pub mod pool;

pub use pool::{current_num_threads, ThreadPool};
