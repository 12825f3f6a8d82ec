//! Cross-crate integration test: train the full pipeline on each synthetic
//! dataset and verify the end-to-end compress → decompress contract.

use gld_core::{
    BlockJob, Codec, CodecScratch, CompressedBlock, ErrorTarget, GldCompressor, GldConfig,
    GldTrainingBudget,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::nrmse;
use gld_tensor::Tensor;

fn quick_budget() -> GldTrainingBudget {
    GldTrainingBudget {
        vae_steps: 100,
        diffusion_steps: 100,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    }
}

/// The frame of `block` at window 0 under an optional NRMSE target.
fn encode(compressor: &GldCompressor, block: &Tensor, target: Option<f32>) -> Vec<u8> {
    let job = BlockJob::new(block, target.map(ErrorTarget::Nrmse), 0);
    let encoded = compressor.encode(&job, &mut CodecScratch::new());
    encoded.expect("an [N, H, W] block").frame
}

#[test]
fn pipeline_runs_on_every_synthetic_dataset() {
    let spec = FieldSpec::tiny();
    for kind in DatasetKind::all() {
        let ds = generate(kind, &spec, 41);
        let config = GldConfig::tiny();
        let compressor = GldCompressor::train(config, &ds.variables, quick_budget());
        let block = ds.variables[0].frames.slice_axis(0, 0, config.block_frames);
        let frame = encode(&compressor, &block, Some(1e-2));
        let compressed = CompressedBlock::decode(&frame).expect("decode frame");
        let recon = compressor.decode(&frame, None).expect("frame decodes");
        assert_eq!(recon.dims(), block.dims(), "{kind:?}");
        let err = nrmse(&block, &recon);
        assert!(
            err <= 1e-2 * 1.01,
            "{kind:?}: NRMSE {err} exceeds the requested bound"
        );
        assert!(
            compressed.compression_ratio() > 1.0,
            "{kind:?}: no compression achieved"
        );
    }
}

#[test]
fn compressed_blocks_are_self_describing() {
    let ds = generate(DatasetKind::S3d, &FieldSpec::tiny(), 43);
    let config = GldConfig::tiny();
    let compressor = GldCompressor::train(config, &ds.variables, quick_budget());
    let block = ds.variables[1].frames.slice_axis(0, 0, config.block_frames);
    let frame = encode(&compressor, &block, None);
    // Parse the binary container frame and make sure it serialises back to
    // the same bytes, and a decoder fed the re-encoded copy produces
    // identical output.
    let restored = CompressedBlock::decode(&frame).expect("decode frame");
    assert_eq!(frame.len(), restored.total_bytes());
    assert_eq!(restored.encode(), frame);
    let a = compressor.decode(&frame, None).expect("frame decodes");
    let b = compressor
        .decode(&restored.encode(), None)
        .expect("frame decodes");
    assert_eq!(a, b);
}

#[test]
fn denoising_step_count_trades_speed_for_error() {
    // More steps never needs to be catastrophically worse; both settings
    // must stay finite and decode deterministically (Figure 5 machinery).
    let ds = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 47);
    let config = GldConfig::tiny();
    let mut compressor = GldCompressor::train(config, &ds.variables, quick_budget());
    let block = ds.variables[0].frames.slice_axis(0, 0, config.block_frames);
    let mut errors = Vec::new();
    for steps in [1usize, 4, 16] {
        compressor.set_denoising_steps(steps);
        let frame = encode(&compressor, &block, None);
        let compressed = CompressedBlock::decode(&frame).expect("decode frame");
        assert_eq!(compressed.denoising_steps, steps);
        let recon = compressor.decode(&frame, None).expect("frame decodes");
        let err = nrmse(&block, &recon);
        assert!(err.is_finite());
        errors.push(err);
    }
    // All step counts produce usable reconstructions on the smooth dataset.
    assert!(errors.iter().all(|&e| e < 0.6), "errors {errors:?}");
}
