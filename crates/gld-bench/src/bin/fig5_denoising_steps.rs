//! Regenerates Figure 5: the denoising-step ablation on the combustion-like
//! dataset.  A single model is trained at the full schedule, fine-tuned at a
//! short schedule, and then evaluated with {full, 128, 32, 8, 2, 1} sampling
//! steps across a sweep of error-bound targets.

use gld_bench::{bench_budget, bench_config, bench_spec, write_result};
use gld_core::{Codec, ErrorTarget, GldCompressor, GldConfig};
use gld_datasets::{generate, DatasetKind};

const NRMSE_TARGETS: [f32; 3] = [2e-2, 1e-2, 5e-3];

fn main() {
    let dataset = generate(DatasetKind::S3d, &bench_spec(), 505);
    let config: GldConfig = bench_config();
    let full_steps = config.diffusion.train_steps;
    let step_counts = [full_steps, 128, 32, 8, 2, 1];

    println!("Figure 5 — denoising-step ablation (S3D-like), training schedule T = {full_steps}\n");
    let mut compressor = GldCompressor::train(config, &dataset.variables, bench_budget());

    let mut csv = String::from("steps,compression_ratio,nrmse\n");
    for &steps in &step_counts {
        compressor.set_denoising_steps(steps.min(full_steps));
        print!("{:>5} steps:", steps.min(full_steps));
        for &target in &NRMSE_TARGETS {
            let bound = Some(ErrorTarget::Nrmse(target));
            let (_, stats) =
                compressor.compress_variable(&dataset.variables[0], config.block_frames, bound);
            let (ratio, err) = (stats.compression_ratio, stats.nrmse);
            print!("  {ratio:6.1}x@{err:.1e}");
            csv.push_str(&format!("{},{ratio},{err}\n", steps.min(full_steps)));
        }
        println!();
    }
    println!("\nPaper finding: ≥32 steps matches the full schedule; 1–2 steps degrade.");
    write_result("fig5_denoising_steps.csv", &csv);
}
