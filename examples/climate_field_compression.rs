//! Climate-field scenario: compress every variable of a synthetic E3SM-like
//! dataset and compare the learned pipeline against the rule-based SZ3-like
//! and ZFP-like compressors at a matched error bound — a miniature version
//! of the paper's Figure 3(a) experiment.
//!
//! Run with:
//! ```text
//! cargo run --release --example climate_field_compression
//! ```

use gld_baselines::{compression_ratio, ErrorBoundedCompressor, SzCompressor, ZfpLikeCompressor};
use gld_core::{Codec, ErrorTarget, GldCompressor, GldConfig, GldTrainingBudget};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_tensor::stats::{max_abs_error, nrmse};

fn main() {
    let spec = FieldSpec::new(3, 16, 16, 16);
    let dataset = generate(DatasetKind::E3sm, &spec, 7);
    let config = GldConfig::tiny();
    let budget = GldTrainingBudget {
        vae_steps: 250,
        diffusion_steps: 250,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };
    println!(
        "training the learned compressor on {} variables ...",
        dataset.variables.len()
    );
    let compressor = GldCompressor::train(config, &dataset.variables, budget);

    let target_nrmse = 5e-3;
    println!("\n{:<18} {:>14} {:>12}", "method", "ratio", "NRMSE");
    let mut ours_ratio = 0.0;
    for variable in &dataset.variables {
        let target = Some(ErrorTarget::Nrmse(target_nrmse));
        let (_, stats) = compressor.compress_variable(variable, config.block_frames, target);
        let (ratio, err) = (stats.compression_ratio, stats.nrmse);
        ours_ratio += ratio / dataset.variables.len() as f64;
        println!(
            "{:<18} {:>13.1}x {:>12.2e}  ({})",
            "Ours", ratio, err, variable.name
        );
    }

    // Rule-based baselines at an absolute bound matched to the same NRMSE.
    for (name, compressor) in [
        (
            "SZ3-like",
            &SzCompressor::new() as &dyn ErrorBoundedCompressor,
        ),
        (
            "ZFP-like",
            &ZfpLikeCompressor::new() as &dyn ErrorBoundedCompressor,
        ),
    ] {
        let mut mean_ratio = 0.0;
        let mut worst_err = 0.0f32;
        for variable in &dataset.variables {
            let frames = &variable.frames;
            let range = frames.max() - frames.min();
            // The NRMSE bound is converted to the point-wise bound the
            // rule-based codecs understand (a conservative mapping).
            let abs_bound = target_nrmse * range;
            let (recon, size) = compressor.roundtrip(frames, abs_bound);
            assert!(max_abs_error(frames, &recon) <= abs_bound * 1.0001);
            mean_ratio += compression_ratio(frames, size) / dataset.variables.len() as f64;
            worst_err = worst_err.max(nrmse(frames, &recon));
        }
        println!("{name:<18} {mean_ratio:>13.1}x {worst_err:>12.2e}");
    }
    println!("\nlearned pipeline mean ratio: {ours_ratio:.1}x (see gld-bench for the full Figure 3 sweep)");
}
