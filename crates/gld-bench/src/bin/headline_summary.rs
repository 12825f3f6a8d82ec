//! Regenerates the paper's headline claims (§1 / §4.7): the compression-ratio
//! improvement of the proposed method over the best rule-based compressor
//! (SZ3) and over the strongest learned baseline (VAE-SR) at matched NRMSE,
//! per dataset.  The paper reports 4–10× over SZ3 and 20–63% over VAE-SR.
//!
//! All three methods run through the unified [`gld_core::Codec`] interface with shared
//! container-based accounting.

use gld_baselines::SzCompressor;
use gld_bench::{codec_sweep as sweep, train_on, write_result};
use gld_core::{LearnedBaseline, LearnedBaselineKind};
use gld_datasets::DatasetKind;

const NRMSE_TARGETS: [f32; 4] = [2e-2, 1e-2, 5e-3, 2e-3];
const SZ_REL_BOUNDS: [f32; 5] = [5e-2, 2e-2, 1e-2, 5e-3, 2e-3];
const MATCH_NRMSE: f32 = 1e-2;

fn main() {
    let mut csv = String::from("dataset,ours_vs_sz3,ours_vs_vaesr\n");
    println!("Headline claims — CR improvement at matched NRMSE = {MATCH_NRMSE:.0e}\n");
    println!(
        "{:<10} {:>16} {:>16}   (paper: 4-10x over SZ3, +20-63% over VAE-SR)",
        "dataset", "vs SZ3-like", "vs VAE-SR"
    );
    for kind in DatasetKind::all() {
        let (compressor, dataset) = train_on(kind, 808 + kind as u64);
        let n = compressor.config().block_frames;

        let vaesr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, compressor.vae(), None);
        let sz = SzCompressor::new();

        let ours = sweep(&compressor, &dataset, n, &NRMSE_TARGETS);
        let vaesr_sweep = sweep(&vaesr, &dataset, n, &NRMSE_TARGETS);
        let sz_sweep = sweep(&sz, &dataset, n, &SZ_REL_BOUNDS);

        let vs_sz = ours.improvement_over(&sz_sweep, MATCH_NRMSE);
        let vs_vaesr = ours.improvement_over(&vaesr_sweep, MATCH_NRMSE);
        let fmt = |v: Option<f64>| {
            v.map(|x| format!("{x:.2}x"))
                .unwrap_or_else(|| "n/a".into())
        };
        println!(
            "{:<10} {:>16} {:>16}",
            kind.name(),
            fmt(vs_sz),
            fmt(vs_vaesr)
        );
        csv.push_str(&format!(
            "{},{},{}\n",
            kind.name(),
            vs_sz.map(|v| v.to_string()).unwrap_or_default(),
            vs_vaesr.map(|v| v.to_string()).unwrap_or_default()
        ));
    }
    write_result("headline_summary.csv", &csv);
}
