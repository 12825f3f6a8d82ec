//! # gld-bench
//!
//! Benchmark harness regenerating every table and figure of the paper's
//! evaluation section on the synthetic datasets (see `DESIGN.md` §4 for the
//! per-experiment index and `EXPERIMENTS.md` for paper-vs-measured numbers).
//!
//! Figure/table binaries (run with `cargo run --release -p gld-bench --bin <name>`):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1_datasets` | Table 1 — dataset inventory |
//! | `fig2_keyframe_strategies` | Figure 2 — keyframe strategy comparison |
//! | `fig3_rate_distortion` | Figure 3 — CR vs NRMSE curves on all datasets |
//! | `fig4_interval_ablation` | Figure 4 — interpolation-interval ablation |
//! | `fig5_denoising_steps` | Figure 5 — denoising-step ablation |
//! | `fig6_visual_comparison` | Figure 6 — reconstruction visualisation |
//! | `table2_throughput` | Table 2 — encode/decode throughput |
//! | `headline_summary` | §1/§4.7 headline claims |
//! | `service_throughput` | sharded service req/s + p50/p99 latency over the `GLDS` protocol |
//! | `entropy_stage` | container v3 `gld-lz` stage: ratio + throughput, stage-on vs stage-off, CI `--check` gate |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use gld_core::{
    Codec, ErrorTarget, GldCompressor, GldConfig, GldTrainingBudget, KeyframeStrategy, RateSweep,
    VariableStats,
};
use gld_datasets::{generate, DatasetKind, FieldSpec, ScientificDataset};
use gld_diffusion::DiffusionConfig;
use gld_vae::VaeConfig;
use std::path::{Path, PathBuf};

/// Sweeps one codec over a dataset through the unified [`Codec`] interface:
/// per NRMSE target, one [`gld_core::Container`]-accounted
/// [`Codec::compress_variable`] call per variable, merged into dataset-level
/// accounting by [`VariableStats::merge`] and collected into a labelled
/// rate–distortion curve.  Shared by the Figure 3 and headline-claims
/// binaries so both compute their curves identically.
pub fn codec_sweep(
    codec: &dyn Codec,
    dataset: &ScientificDataset,
    block_frames: usize,
    targets: &[f32],
) -> RateSweep {
    let mut sweep = RateSweep::new(codec.name(), dataset.kind.name());
    for &target in targets {
        let target = Some(ErrorTarget::Nrmse(target));
        let stats: Vec<VariableStats> = (dataset.variables.iter())
            .map(|variable| codec.compress_variable(variable, block_frames, target).1)
            .collect();
        let stats = VariableStats::merge(&stats);
        sweep.push(stats.compression_ratio, stats.nrmse);
    }
    sweep
}

/// Dataset spec used by the figure/table binaries: 2 variables, 32 frames of
/// 16×16.  Two complete N = 16 blocks per variable — small enough that the
/// whole experiment matrix runs on one CPU core, large enough to show the
/// paper's orderings.
pub fn bench_spec() -> FieldSpec {
    FieldSpec::new(2, 32, 16, 16)
}

/// Model configuration used by the figure/table binaries.
pub fn bench_config() -> GldConfig {
    let vae = VaeConfig {
        base_channels: 8,
        latent_channels: 4,
        hyper_channels: 4,
        quant_scale: 16.0,
        lambda: 2e-3,
        ..VaeConfig::default()
    };
    let diffusion = DiffusionConfig {
        latent_channels: vae.latent_channels,
        model_channels: 12,
        heads: 2,
        time_embed_dim: 16,
        train_steps: 200,
        seed: 0,
    };
    GldConfig {
        vae,
        diffusion,
        block_frames: 16,
        strategy: KeyframeStrategy::Interpolation { interval: 3 },
        denoising_steps: 8,
        error_bound: Default::default(),
        seed: 0x6E1D_5EED,
    }
}

/// Training budget used by the figure/table binaries.
pub fn bench_budget() -> GldTrainingBudget {
    GldTrainingBudget {
        vae_steps: 400,
        diffusion_steps: 400,
        fine_tune_steps: 100,
        fine_tune_schedule: 32,
    }
}

/// Generates a dataset and trains the full pipeline on it.
pub fn train_on(kind: DatasetKind, seed: u64) -> (GldCompressor, ScientificDataset) {
    let dataset = generate(kind, &bench_spec(), seed);
    let compressor = GldCompressor::train(bench_config(), &dataset.variables, bench_budget());
    (compressor, dataset)
}

/// Directory where the binaries drop their CSV/JSON artefacts.
pub fn results_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("results");
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a text artefact into `results/` and reports where it went.
pub fn write_result(name: &str, contents: &str) {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("write result file");
    println!("[written] {}", path.display());
}

/// Writes a text artefact into the repository root (next to `results/`),
/// used for the `BENCH_*.json` summaries CI consumes.
pub fn write_root_result(name: &str, contents: &str) {
    let path = results_dir()
        .parent()
        .expect("results dir has a parent")
        .join(name);
    std::fs::write(&path, contents).expect("write root result file");
    println!("[written] {}", path.display());
}

/// Formats a compression ratio / error pair the way the paper's plots label
/// points.
pub fn format_point(ratio: f64, nrmse: f32) -> String {
    format!("CR {ratio:8.1}x @ NRMSE {nrmse:.3e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_configuration_is_consistent() {
        let cfg = bench_config();
        assert_eq!(cfg.vae.latent_channels, cfg.diffusion.latent_channels);
        assert_eq!(cfg.block_frames, 16);
        let spec = bench_spec();
        assert!(spec.timesteps >= cfg.block_frames);
        assert_eq!(spec.height % cfg.vae.downsample, 0);
    }

    #[test]
    fn results_dir_is_creatable() {
        let dir = results_dir();
        assert!(dir.exists());
    }

    #[test]
    fn format_point_is_stable() {
        assert_eq!(
            format_point(123.456, 1.5e-3),
            "CR    123.5x @ NRMSE 1.500e-3"
        );
    }
}
