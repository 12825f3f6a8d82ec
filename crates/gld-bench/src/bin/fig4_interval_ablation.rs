//! Regenerates Figure 4: the interpolation-interval ablation on the
//! climate-like dataset.  Left panel = per-frame NRMSE for each interval,
//! right panel = NRMSE vs compression-ratio curve obtained by sweeping the
//! error-bound target for each interval.

use gld_bench::{bench_budget, bench_config, bench_spec, write_result};
use gld_core::{
    BlockJob, Codec, CodecScratch, ErrorTarget, GldCompressor, GldConfig, KeyframeStrategy,
};
use gld_datasets::{generate, DatasetKind};
use gld_tensor::stats::nrmse;

const INTERVALS: [usize; 5] = [2, 3, 4, 5, 6];
const NRMSE_TARGETS: [f32; 3] = [2e-2, 1e-2, 5e-3];

fn main() {
    let dataset = generate(DatasetKind::E3sm, &bench_spec(), 404);
    let mut per_frame_csv = String::from("interval,frame,nrmse,is_keyframe\n");
    let mut curve_csv = String::from("interval,compression_ratio,nrmse\n");

    println!("Figure 4 — interpolation-interval ablation (E3SM-like)\n");
    let mut summary = Vec::new();
    for &interval in &INTERVALS {
        let config = GldConfig {
            strategy: KeyframeStrategy::Interpolation { interval },
            ..bench_config()
        };
        let compressor = GldCompressor::train(config, &dataset.variables, bench_budget());
        let block = dataset.variables[0]
            .frames
            .slice_axis(0, 0, config.block_frames);

        // Left panel: per-frame error without post-processing.
        let job = BlockJob::new(&block, None, 0);
        let encoded = compressor.encode(&job, &mut CodecScratch::new());
        let frame = encoded.expect("a bench block").frame;
        let recon = compressor.decode(&frame, None).expect("own frame");
        let partition = config.partition();
        let mut generated_mean = 0.0f32;
        for t in 0..config.block_frames {
            let err = nrmse(
                &block.slice_axis(0, t, t + 1),
                &recon.slice_axis(0, t, t + 1),
            );
            let is_key = partition.conditioning.contains(&t);
            per_frame_csv.push_str(&format!("{interval},{t},{err},{}\n", u8::from(is_key)));
            if !is_key {
                generated_mean += err / partition.num_generated() as f32;
            }
        }

        // Right panel: ratio/NRMSE curve with the error-bound sweep.
        let mut best_ratio_at_1e2 = 0.0f64;
        for &target in &NRMSE_TARGETS {
            let bound = Some(ErrorTarget::Nrmse(target));
            let (_, stats) =
                compressor.compress_variable(&dataset.variables[0], config.block_frames, bound);
            let (ratio, err) = (stats.compression_ratio, stats.nrmse);
            curve_csv.push_str(&format!("{interval},{ratio},{err}\n"));
            if target == 1e-2 {
                best_ratio_at_1e2 = ratio;
            }
        }
        println!(
            "interval {interval}: keyframes {}/{}  mean generated-frame NRMSE {generated_mean:.3e}  ratio @ NRMSE 1e-2 = {best_ratio_at_1e2:.1}x",
            partition.num_conditioning(),
            config.block_frames
        );
        summary.push((interval, generated_mean, best_ratio_at_1e2));
    }

    // Paper finding: smaller intervals give lower error; interval 3 is the
    // best accuracy/ratio trade-off.
    let best_err = summary
        .iter()
        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
        .unwrap();
    let best_tradeoff = summary
        .iter()
        .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
        .unwrap();
    println!("\nlowest per-frame error: interval {}", best_err.0);
    println!("best ratio at NRMSE 1e-2: interval {}", best_tradeoff.0);
    write_result("fig4_interval_per_frame.csv", &per_frame_csv);
    write_result("fig4_interval_curve.csv", &curve_csv);
}
