//! Regenerates Figure 3 (a/b/c): compression-ratio vs NRMSE curves for the
//! proposed method, the learned baselines (VAE-SR, CDC-X, CDC-ε, GCD) and
//! the rule-based baselines (SZ3-like, ZFP-like) on the three synthetic
//! datasets.
//!
//! Every compressor is driven through the unified [`gld_core::Codec`]
//! interface: [`gld_core::Codec::compress_dataset`] tiles each variable into
//! temporal blocks, compresses them in parallel into binary containers, and
//! returns shared ratio/NRMSE accounting — the measured container size *is*
//! the reported size.  The learned methods share the PCA error-bound
//! post-processing inside their `Codec` impls, exactly as in the paper's
//! protocol (§4.1).

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_bench::{codec_sweep as sweep, train_on, write_result};
use gld_core::{LearnedBaseline, LearnedBaselineKind, RateSweep};
use gld_datasets::DatasetKind;

/// NRMSE targets swept for the learned methods.
const NRMSE_TARGETS: [f32; 4] = [2e-2, 1e-2, 5e-3, 2e-3];
/// Relative (range-scaled) bounds swept for the rule-based codecs.
const REL_BOUNDS: [f32; 4] = [5e-2, 2e-2, 1e-2, 5e-3];

fn main() {
    let mut csv = String::from("dataset,method,compression_ratio,nrmse\n");
    for kind in DatasetKind::all() {
        println!("=== Figure 3 — {} ===", kind.name());
        let (compressor, dataset) = train_on(kind, 31 + kind as u64);
        let n = compressor.config().block_frames;

        let sz = SzCompressor::new();
        let zfp = ZfpLikeCompressor::new();
        let learned: Vec<LearnedBaseline<'_>> = LearnedBaselineKind::all()
            .into_iter()
            .map(|bkind| LearnedBaseline::new(bkind, compressor.vae(), None))
            .collect();

        let mut sweeps: Vec<RateSweep> = Vec::new();
        sweeps.push(sweep(&compressor, &dataset, n, &NRMSE_TARGETS));
        for baseline in &learned {
            sweeps.push(sweep(baseline, &dataset, n, &NRMSE_TARGETS));
        }
        sweeps.push(sweep(&sz, &dataset, n, &REL_BOUNDS));
        sweeps.push(sweep(&zfp, &dataset, n, &REL_BOUNDS));

        // Report.
        println!("{:<10} points (ratio @ NRMSE)", "method");
        for sweep in &sweeps {
            let pts: Vec<String> = sweep
                .points
                .iter()
                .map(|p| format!("{:.0}x@{:.1e}", p.compression_ratio, p.nrmse))
                .collect();
            println!("{:<10} {}", sweep.method, pts.join("  "));
            for p in &sweep.points {
                csv.push_str(&format!(
                    "{},{},{:.3},{:.6}\n",
                    kind.name(),
                    sweep.method,
                    p.compression_ratio,
                    p.nrmse
                ));
            }
        }
        println!();
    }
    write_result("fig3_rate_distortion.csv", &csv);
    println!("Paper shape to compare against: learned methods dominate rule-based; Ours dominates per-frame learned baselines at matched NRMSE.");
}
