//! Quickstart: train the generative latent diffusion compressor on a small
//! synthetic climate dataset, compress one spatiotemporal block with a
//! guaranteed error bound, and report what happened.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use gld_core::{
    BlockJob, Codec, CodecScratch, CompressedBlock, ErrorTarget, GldCompressor, GldConfig,
    GldTrainingBudget,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::nrmse;

fn main() {
    // 1. A small synthetic E3SM-like climate dataset (see gld-datasets for
    //    how the generator mirrors the statistics of the real data).
    let spec = FieldSpec::new(2, 16, 16, 16);
    let dataset = generate(DatasetKind::E3sm, &spec, 2024);
    println!(
        "dataset: {} | {} variables | {} frames of {}x{}",
        dataset.kind.name(),
        dataset.variables.len(),
        spec.timesteps,
        spec.height,
        spec.width
    );

    // 2. Train both stages (VAE + hyperprior, then conditional latent
    //    diffusion).  The budget here is tiny so the example finishes in
    //    seconds; see EXPERIMENTS.md for the budgets used by the benches.
    let config = GldConfig::tiny();
    let budget = GldTrainingBudget {
        vae_steps: 200,
        diffusion_steps: 200,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };
    println!(
        "training: {} VAE steps + {} diffusion steps (keyframes: {}) ...",
        budget.vae_steps,
        budget.diffusion_steps,
        config.strategy.name()
    );
    let compressor = GldCompressor::train(config, &dataset.variables, budget);

    // 3. Compress the first block of the first variable with a guaranteed
    //    NRMSE bound of 5e-3.
    let block = dataset.variables[0]
        .frames
        .slice_axis(0, 0, config.block_frames);
    let target = 5e-3;
    let job = BlockJob::new(&block, Some(ErrorTarget::Nrmse(target)), 0);
    let frame = compressor
        .encode(&job, &mut CodecScratch::new())
        .expect("an [N, H, W] block")
        .frame;
    let recon = compressor.decode(&frame, None).expect("own frame");
    let compressed = CompressedBlock::decode(&frame).expect("a frame we just wrote");

    println!("--- results ---");
    println!("original size     : {} bytes", compressed.original_bytes());
    println!("compressed size   : {} bytes", compressed.total_bytes());
    println!(
        "  keyframe stream : {} bytes",
        compressed.keyframe_bytes.len()
    );
    println!("  error-bound aux : {} bytes", compressed.aux_bytes.len());
    println!("compression ratio : {:.1}x", compressed.compression_ratio());
    println!("requested NRMSE   : {target:.1e}");
    println!("achieved  NRMSE   : {:.3e}", nrmse(&block, &recon));
    assert!(nrmse(&block, &recon) <= target * 1.01);
    println!("error bound satisfied ✔");
}
