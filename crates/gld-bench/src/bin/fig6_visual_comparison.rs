//! Regenerates Figure 6: a visual comparison of reconstructions at a matched
//! compression ratio (≈ the same bound for every method).  Because this is a
//! terminal harness, the "visualisation" is emitted as PGM images plus an
//! ASCII zoom of the highlighted region, one file per method, under
//! `results/fig6/`.

use gld_baselines::{SzCompressor, ZfpLikeCompressor};
use gld_bench::{results_dir, train_on};
use gld_core::{BlockJob, Codec, CodecScratch, ErrorTarget, LearnedBaseline, LearnedBaselineKind};
use gld_datasets::DatasetKind;
use gld_tensor::stats::nrmse;
use gld_tensor::Tensor;

/// Writes a `[H, W]` frame as an 8-bit PGM image.
fn write_pgm(path: &std::path::Path, frame: &Tensor) {
    let (h, w) = (frame.dim(0), frame.dim(1));
    let (lo, hi) = (frame.min(), frame.max());
    let scale = if hi > lo { 255.0 / (hi - lo) } else { 0.0 };
    let mut out = format!("P2\n{w} {h}\n255\n");
    for y in 0..h {
        for x in 0..w {
            let v = ((frame.at(&[y, x]) - lo) * scale).round() as i32;
            out.push_str(&format!("{v} "));
        }
        out.push('\n');
    }
    std::fs::write(path, out).expect("write pgm");
}

/// ASCII rendering of the zoomed region (rows 4..12, cols 4..12).
fn ascii_zoom(frame: &Tensor) -> String {
    let glyphs = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];
    let zoom = frame.slice_axis(0, 4, 12).slice_axis(1, 4, 12);
    let (lo, hi) = (zoom.min(), zoom.max());
    let scale = if hi > lo { 9.0 / (hi - lo) } else { 0.0 };
    let mut out = String::new();
    for y in 0..8 {
        for x in 0..8 {
            let level = ((zoom.at(&[y, x]) - lo) * scale).round() as usize;
            out.push(glyphs[level.min(9)]);
            out.push(' ');
        }
        out.push('\n');
    }
    out
}

fn main() {
    let dir = results_dir().join("fig6");
    std::fs::create_dir_all(&dir).expect("create fig6 dir");
    let (compressor, dataset) = train_on(DatasetKind::E3sm, 606);
    let block = dataset.variables[0]
        .frames
        .slice_axis(0, 0, compressor.config().block_frames);
    let frame_idx = 8; // a generated (non-keyframe) frame
    let original = block.slice_axis(0, frame_idx, frame_idx + 1).squeeze(0);
    write_pgm(&dir.join("original.pgm"), &original);
    println!("Figure 6 — reconstruction comparison (frame {frame_idx}, E3SM-like)\n");
    println!("original zoom:\n{}", ascii_zoom(&original));

    // Every method through the `Codec` trait at the same NRMSE target: the
    // learned baselines apply the shared PCA post-processing, the rule-based
    // coders the matched point-wise bound `1e-2 × range`.
    let vae_sr = LearnedBaseline::new(LearnedBaselineKind::VaeSr, compressor.vae(), None);
    let cdc_x = LearnedBaseline::new(LearnedBaselineKind::CdcX, compressor.vae(), None);
    let codecs: [&dyn Codec; 5] = [
        &compressor,
        &vae_sr,
        &cdc_x,
        &SzCompressor::new(),
        &ZfpLikeCompressor::new(),
    ];
    let job = BlockJob::new(&block, Some(ErrorTarget::Nrmse(1e-2)), 0);
    for codec in codecs {
        let encoded = codec.encode(&job, &mut CodecScratch::new());
        let frame = encoded.expect("a bench block").frame;
        let recon = codec.decode(&frame, None).expect("own frame");
        let ratio = (block.numel() * 4) as f64 / frame.len() as f64;
        report(codec.name(), &dir, &block, &recon, frame_idx, ratio);
    }
    println!("PGM images written under {}", dir.display());
}

fn report(
    name: &str,
    dir: &std::path::Path,
    block: &Tensor,
    recon: &Tensor,
    frame_idx: usize,
    ratio: f64,
) {
    let frame = recon.slice_axis(0, frame_idx, frame_idx + 1).squeeze(0);
    let err = nrmse(block, recon);
    let file = dir.join(format!(
        "{}.pgm",
        name.to_lowercase().replace(['-', ' '], "_")
    ));
    write_pgm(&file, &frame);
    println!(
        "{name:<10} ratio {ratio:7.1}x  NRMSE {err:.3e}\n{}",
        ascii_zoom(&frame)
    );
}
