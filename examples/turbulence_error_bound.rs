//! Turbulence scenario: demonstrate the error-bound guarantee machinery on
//! the hardest dataset (JHTDB-like synthetic turbulence).  Sweeps a range of
//! NRMSE targets and shows how the auxiliary correction stream grows as the
//! bound tightens while the guarantee always holds (paper §3.5).
//!
//! Run with:
//! ```text
//! cargo run --release --example turbulence_error_bound
//! ```

use gld_core::{
    BlockJob, Codec, CodecScratch, CompressedBlock, ErrorTarget, GldCompressor, GldConfig,
    GldTrainingBudget,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::nrmse;

fn main() {
    let spec = FieldSpec::new(3, 16, 16, 16);
    let dataset = generate(DatasetKind::Jhtdb, &spec, 99);
    let config = GldConfig::tiny();
    let budget = GldTrainingBudget {
        vae_steps: 250,
        diffusion_steps: 250,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };
    println!("training on synthetic isotropic turbulence ...");
    let compressor = GldCompressor::train(config, &dataset.variables, budget);

    let block = dataset.variables[0]
        .frames
        .slice_axis(0, 0, config.block_frames);

    println!(
        "\n{:>12} {:>12} {:>14} {:>16} {:>12}",
        "target", "achieved", "ratio", "keyframe bytes", "aux bytes"
    );
    for target in [2e-2f32, 1e-2, 5e-3, 2e-3, 1e-3] {
        let job = BlockJob::new(&block, Some(ErrorTarget::Nrmse(target)), 0);
        let frame = compressor
            .encode(&job, &mut CodecScratch::new())
            .expect("an [N, H, W] block")
            .frame;
        let recon = compressor.decode(&frame, None).expect("own frame");
        let compressed = CompressedBlock::decode(&frame).expect("a frame we just wrote");
        let achieved = nrmse(&block, &recon);
        assert!(achieved <= target * 1.01, "bound violated");
        println!(
            "{:>12.1e} {:>12.2e} {:>13.1}x {:>16} {:>12}",
            target,
            achieved,
            compressed.compression_ratio(),
            compressed.keyframe_bytes.len(),
            compressed.aux_bytes.len()
        );
    }
    println!("\nevery row satisfied its bound; tighter bounds pay with a larger correction stream");
}
