//! Regenerates Figure 2: per-frame reconstruction error of the three
//! keyframe selection strategies (prediction, interpolation, mixed) with the
//! same number of keyframes, on the climate-like dataset.

use gld_bench::{bench_budget, bench_config, bench_spec, write_result};
use gld_core::{BlockJob, Codec, CodecScratch, GldCompressor, GldConfig, KeyframeStrategy};
use gld_datasets::{generate, DatasetKind};
use gld_tensor::stats::nrmse;

fn main() {
    let dataset = generate(DatasetKind::E3sm, &bench_spec(), 2025);
    let strategies = [
        (
            "interpolation",
            KeyframeStrategy::Interpolation { interval: 3 },
        ),
        ("prediction", KeyframeStrategy::Prediction { count: 6 }),
        ("mixed", KeyframeStrategy::Mixed { count: 6 }),
    ];

    let mut csv = String::from("strategy,frame,nrmse,is_keyframe\n");
    println!("Figure 2 — keyframe selection strategies (per-frame NRMSE, E3SM-like)\n");
    let mut means = Vec::new();
    for (label, strategy) in strategies {
        let config = GldConfig {
            strategy,
            ..bench_config()
        };
        let compressor = GldCompressor::train(config, &dataset.variables, bench_budget());
        let block = dataset.variables[0]
            .frames
            .slice_axis(0, 0, config.block_frames);
        let job = BlockJob::new(&block, None, 0);
        let encoded = compressor.encode(&job, &mut CodecScratch::new());
        let frame = encoded.expect("a bench block").frame;
        let recon = compressor.decode(&frame, None).expect("own frame");
        let partition = config.partition();

        print!("{label:<15}");
        let mut generated_sum = 0.0f32;
        for t in 0..config.block_frames {
            let err = nrmse(
                &block.slice_axis(0, t, t + 1),
                &recon.slice_axis(0, t, t + 1),
            );
            let is_key = partition.conditioning.contains(&t);
            csv.push_str(&format!("{label},{t},{err},{}\n", u8::from(is_key)));
            print!(" {err:.1e}{}", if is_key { "*" } else { " " });
            if !is_key {
                generated_sum += err;
            }
        }
        let mean = generated_sum / partition.num_generated() as f32;
        means.push((label, mean));
        println!("   | mean generated-frame NRMSE {mean:.3e}");
    }
    println!("\n(* keyframe)  Paper finding: interpolation < mixed < prediction.");
    means.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    println!(
        "Measured ordering (best to worst): {}",
        means
            .iter()
            .map(|(l, e)| format!("{l} ({e:.2e})"))
            .collect::<Vec<_>>()
            .join(" < ")
    );
    write_result("fig2_keyframe_strategies.csv", &csv);
}
