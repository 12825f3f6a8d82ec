//! Combustion scenario: compare keyframe selection strategies (paper §4.4,
//! Figure 2) and interpolation intervals (§4.5, Figure 4) on the S3D-like
//! reaction–diffusion dataset, reporting per-frame reconstruction error.
//!
//! Run with:
//! ```text
//! cargo run --release --example combustion_keyframe_study
//! ```

use gld_core::{
    BlockJob, Codec, CodecScratch, GldCompressor, GldConfig, GldTrainingBudget, KeyframeStrategy,
};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::nrmse;

fn main() {
    let spec = FieldSpec::new(2, 16, 16, 16);
    let dataset = generate(DatasetKind::S3d, &spec, 13);
    let budget = GldTrainingBudget {
        vae_steps: 200,
        diffusion_steps: 250,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };

    let strategies = [
        KeyframeStrategy::Interpolation { interval: 3 },
        KeyframeStrategy::Prediction { count: 3 },
        KeyframeStrategy::Mixed { count: 3 },
    ];

    for strategy in strategies {
        let config = GldConfig {
            strategy,
            ..GldConfig::tiny()
        };
        println!("\n=== {} ===", strategy.name());
        let compressor = GldCompressor::train(config, &dataset.variables, budget);
        let block = dataset.variables[0]
            .frames
            .slice_axis(0, 0, config.block_frames);
        let job = BlockJob::new(&block, None, 0);
        let frame = compressor
            .encode(&job, &mut CodecScratch::new())
            .expect("an [N, H, W] block")
            .frame;
        let recon = compressor.decode(&frame, None).expect("own frame");

        let partition = config.partition();
        print!("per-frame NRMSE: ");
        let mut generated_err = 0.0f32;
        for t in 0..config.block_frames {
            let orig = block.slice_axis(0, t, t + 1);
            let rec = recon.slice_axis(0, t, t + 1);
            let err = nrmse(&orig, &rec);
            let marker = if partition.conditioning.contains(&t) {
                "*"
            } else {
                " "
            };
            print!("{err:.1e}{marker} ");
            if partition.generated.contains(&t) {
                generated_err += err / partition.generated.len() as f32;
            }
        }
        println!("\n(* = keyframe)   mean generated-frame NRMSE: {generated_err:.2e}");
        println!(
            "compression ratio without post-processing: {:.1}x",
            (block.numel() * 4) as f64 / frame.len() as f64
        );
    }
    println!("\nSee `cargo run -p gld-bench --bin fig2_keyframe_strategies` for the full Figure 2 reproduction.");
}
