//! The paper's codec: `gld-encode` (write side) and `gld-decode` (read
//! side), and the probes that split a block into its layers.
//!
//! The layer split is taken from outside the crates: `staged_encode` and
//! `staged_decode` redo `GldCompressor`'s block steps through the public
//! functions of each crate, one span per step, and every staged output is
//! compared with what the real call produced.

use super::{exact, s3d_variables, sampled, timed, Batch, Ctx, Turn};
use crate::report::Metric;
use crate::stats;
use gld_bench::bench_config;
use gld_core::{
    derive_block_seed, Codec, CompressedBlock, Container, ErrorTarget, GldCompressor,
    GldTrainingBudget, PcaErrorBound,
};
use gld_datasets::blocks::temporal_windows;
use gld_datasets::{generate, DatasetKind, FieldSpec, Variable};
use gld_entropy::{GaussianConditionalModel, RangeDecoder, RangeEncoder};
use gld_nn::Tape;
use gld_tensor::conv::{conv2d, Conv2dGeometry};
use gld_tensor::stats::nrmse;
use gld_tensor::{Tensor, TensorRng};
use gld_vae::codec::FrameNorm;
use gld_vae::{FrameCodec, LatentCodec};

/// The model is trained on the same data whatever `--seed` says.
const TRAIN_SEED: u64 = 7;
/// The bound `gld-decode`'s containers are written under.
const NRMSE_TARGET: f32 = 0.01;

struct Sizes {
    train: FieldSpec,
    /// Evaluation variables, and `[timesteps, height, width]` of each.
    eval_variables: usize,
    eval: [usize; 3],
    budget: GldTrainingBudget,
    setup_repeats: usize,
    min_batches: usize,
    /// Times a traced run repeats each probe over all blocks.
    probe_passes: usize,
}

fn sizes(quick: bool) -> Sizes {
    let budget = |steps| GldTrainingBudget {
        vae_steps: steps,
        diffusion_steps: steps,
        fine_tune_steps: 0,
        fine_tune_schedule: 32,
    };
    if quick {
        Sizes {
            train: FieldSpec::new(1, 16, 16, 16),
            eval_variables: 1,
            eval: [16, 16, 16],
            budget: budget(30),
            setup_repeats: 1,
            min_batches: 1,
            probe_passes: 1,
        }
    } else {
        Sizes {
            train: FieldSpec::new(2, 64, 16, 16),
            // 2 variables of 4 blocks of 16 x 32 x 32 (64 KB): 8 blocks.
            eval_variables: 2,
            eval: [64, 32, 32],
            budget: budget(100),
            setup_repeats: 3,
            min_batches: 3,
            probe_passes: 2,
        }
    }
}

struct Model {
    codec: GldCompressor,
    eval: Vec<Variable>,
}

fn model(ctx: &Ctx, sizes: &Sizes) -> Model {
    let t = &ctx.tracer;
    let train = t.span("datasets.generate", 0, || {
        generate(DatasetKind::S3d, &sizes.train, TRAIN_SEED)
    });
    let config = bench_config();
    let eval = s3d_variables(
        t,
        sizes.eval_variables,
        sizes.eval,
        config.block_frames,
        ctx.args.seed,
    );
    let codec = t.span("core.train", 0, || {
        GldCompressor::train(config, &train.variables, sizes.budget)
    });
    Model { codec, eval }
}

/// What the set-up spans say about the layers set-up time is made of.
fn setup_metrics(ctx: &Ctx) -> Vec<Metric> {
    let generate_ms = ctx.tracer.durations_ms("datasets.generate");
    let train_s: Vec<f64> = ctx.tracer.durations_ms("core.train");
    vec![
        exact("datasets.generate_ms", generate_ms.iter().sum()),
        exact("core.train_s", train_s.iter().sum::<f64>() / 1e3),
    ]
}

/// The layer spans of the staged blocks must account for the real blocks'
/// time: a split that loses a tenth of it is counted as a failure.
fn reconcile(ctx: &Ctx, coverage: f64) {
    ctx.reconcile(coverage >= 0.9, || {
        format!("staged layer spans cover {coverage:.3} of the real block time")
    });
}

// ---------------------------------------------------------------- gld-encode

pub fn encode(ctx: &Ctx) -> Vec<Metric> {
    let sizes = sizes(ctx.args.quick);
    let frames = bench_config().block_frames;
    // Each variable's first encode: what every later encode must equal.
    let mut first = Vec::new();
    first.resize_with(sizes.eval_variables, || None);

    let set_up = || model(ctx, &sizes);
    let batch = |model: &mut Model, turn: Turn| {
        let mut latencies_ms = Vec::new();
        for (v, variable) in model.eval.iter().enumerate() {
            let op = (turn.index * model.eval.len() + v) as u64;
            ctx.checks.attempt("gld-encode", || {
                let (ms, (container, stats, bytes)) = timed(|| {
                    let (container, stats) = ctx.tracer.span("core.compress_variable", op, || {
                        Codec::compress_variable(&model.codec, variable, frames, None)
                    });
                    let bytes = ctx
                        .tracer
                        .span("core.container.encode", op, || container.encode());
                    (container, stats, bytes)
                });
                latencies_ms.push(ms);
                let decoded = Container::decode(&bytes).map_err(|e| e.to_string())?;
                ctx.checks.verify(
                    decoded == container && stats.compressed_bytes == bytes.len(),
                    || format!("variable {v}: container does not parse back to itself"),
                )?;
                let (first_bytes, _, _) = first[v].get_or_insert((bytes.clone(), container, stats));
                ctx.checks.verify(*first_bytes == bytes, || {
                    format!("variable {v}: container bytes differ from the first encode")
                })
            });
        }
        Batch::new(latencies_ms.iter().sum::<f64>() / 1e3, &latencies_ms)
    };
    let (model, setup_s, measured) =
        ctx.epochs(sizes.setup_repeats, sizes.min_batches, set_up, batch);

    // Once per variable, outside the measurement: the container decodes to
    // finite fields whose error is the one the encoder accounted for.
    let mut container_bytes = 0;
    for (v, (variable, first)) in model.eval.iter().zip(first).enumerate() {
        ctx.checks.attempt("gld-encode read-back", || {
            let (bytes, container, stats) = first.ok_or("no container was encoded")?;
            container_bytes += bytes.len();
            let blocks = model
                .codec
                .decompress_container(&container)
                .map_err(|e| e.to_string())?;
            let recon = Tensor::concat(&blocks.iter().collect::<Vec<_>>(), 0);
            let covered = variable.frames.slice_axis(0, 0, recon.dim(0));
            let achieved = nrmse(&covered, &recon);
            ctx.checks.verify(
                recon.data().iter().all(|x| x.is_finite())
                    && (achieved - stats.nrmse).abs() <= 1e-3 * stats.nrmse.max(1e-6),
                || {
                    format!(
                        "variable {v}: read-back NRMSE {achieved}, encoder said {}",
                        stats.nrmse
                    )
                },
            )
        });
    }

    if !ctx.args.trace {
        let bytes_per_op = container_bytes as f64 / model.eval.len() as f64;
        return ctx.end_to_end(&setup_s, &measured, model.eval.len(), bytes_per_op);
    }
    let mut metrics = setup_metrics(ctx);
    metrics.push(exact("trace_overhead_frac", measured.trace_overhead_frac()));
    metrics.extend(encode_probes(ctx, &model, &sizes));
    metrics
}

/// `GldCompressor::compress_block_with_outcome_at` without an error target,
/// step by step through public functions; returns the frame and the
/// keyframe latents.
fn staged_encode(ctx: &Ctx, model: &Model, block: &Tensor, index: u64) -> (Vec<u8>, Tensor) {
    let t = &ctx.tracer;
    let codec = &model.codec;
    let vae = codec.vae();
    let partition = codec.config().partition();
    t.span("core.block_encode.staged", index, || {
        let (normalized, norms) = t.span("vae.normalize", index, || {
            FrameCodec::new(vae).normalize(block)
        });
        let y_all = t.span("vae.quantize_latent", index, || {
            vae.quantize_latent(&normalized)
        });
        let y_key = t.span("tensor.index_select", index, || {
            y_all.index_select(0, &partition.conditioning)
        });
        let keyframe_bytes = t.span("vae.latent_compress", index, || {
            LatentCodec::new(vae).compress(&y_key)
        });
        let frame = t.span("core.frame_encode", index, || {
            CompressedBlock {
                frames: block.dim(0),
                height: block.dim(1),
                width: block.dim(2),
                frame_norms: norms.iter().map(|n| (n.mean, n.range)).collect(),
                latent_range: (y_key.min(), y_key.max()),
                keyframe_bytes,
                aux_bytes: Vec::new(),
                sampling_seed: derive_block_seed(codec.config().seed, index),
                denoising_steps: codec.config().denoising_steps,
            }
            .encode()
        });
        (frame, y_key)
    })
}

fn encode_probes(ctx: &Ctx, model: &Model, sizes: &Sizes) -> Vec<Metric> {
    let t = &ctx.tracer;
    let frames = model.codec.config().block_frames;
    let mut keyframe_bytes = Vec::new();
    let mut gaussian_encode = Vec::new();
    let mut gaussian_decode = Vec::new();
    let mut speedup = Vec::new();
    for _ in 0..sizes.probe_passes {
        for variable in &model.eval {
            let mut sequential_ms = 0.0;
            for (index, window) in temporal_windows(variable, frames).iter().enumerate() {
                let index = index as u64;
                ctx.checks.attempt("gld-encode block probe", || {
                    let (ms, real) = timed(|| {
                        t.span("core.block_encode", index, || {
                            Codec::compress_block_at(&model.codec, &window.data, None, index)
                        })
                    });
                    sequential_ms += ms;
                    let (staged, y_key) = staged_encode(ctx, model, &window.data, index);
                    ctx.checks.verify(staged == real, || {
                        format!("block {index}: staged encode differs from compress_block_at")
                    })?;
                    let block = CompressedBlock::decode(&real).map_err(|e| e.to_string())?;
                    keyframe_bytes.push(block.keyframe_bytes.len() as f64);
                    let (enc, dec) = gaussian_probe(ctx, model, &y_key)?;
                    gaussian_encode.push(enc);
                    gaussian_decode.push(dec);
                    Ok(())
                });
            }
            ctx.checks.attempt("gld-encode executor probe", || {
                let (pooled_ms, _) = timed(|| {
                    t.span("core.compress_variable", 0, || {
                        Codec::compress_variable(&model.codec, variable, frames, None)
                    })
                });
                speedup.push(sequential_ms / pooled_ms);
                Ok(())
            });
        }
    }
    if keyframe_bytes.is_empty() || speedup.is_empty() {
        return Vec::new();
    }
    let real_ms: f64 = t.durations_ms("core.block_encode").iter().sum();
    let coverage = t.children_ms("core.block_encode.staged") / real_ms;
    reconcile(ctx, coverage);
    vec![
        sampled("core.block_encode_ms", &t.durations_ms("core.block_encode")),
        sampled(
            "vae.quantize_latent_ms",
            &t.durations_ms("vae.quantize_latent"),
        ),
        sampled(
            "vae.latent_compress_ms",
            &t.durations_ms("vae.latent_compress"),
        ),
        sampled("vae.keyframe_bytes", &keyframe_bytes),
        sampled("entropy.gaussian_encode_msym_s", &gaussian_encode),
        sampled("entropy.gaussian_decode_msym_s", &gaussian_decode),
        sampled("core.executor.speedup_encode", &speedup).with_note(
            "sum of compress_block_at times over compress_variable wall; compress_variable also \
             decodes every block to account its NRMSE, compress_block_at does not",
        ),
        exact("trace.layer_coverage", coverage)
            .with_note("staged layer spans over core.block_encode_ms"),
    ]
}

/// The Gaussian-conditional range coder on one block's real keyframe
/// symbols, means and scales: `(encode, decode)` in million symbols a second.
fn gaussian_probe(ctx: &Ctx, model: &Model, y_key: &Tensor) -> Result<(f64, f64), String> {
    let vae = model.codec.vae();
    let z = vae.quantize_hyper(y_key);
    let (mu, sigma) = vae.predict_gaussian(&z);
    let symbols: Vec<i32> = y_key.data().iter().map(|v| v.round() as i32).collect();
    let coder = GaussianConditionalModel::new();
    let mut encode_ms = Vec::new();
    let mut decode_ms = Vec::new();
    for _ in 0..10 {
        let (ms, stream) = timed(|| {
            ctx.tracer.span("entropy.gaussian_encode", 0, || {
                let mut enc = RangeEncoder::new();
                coder.encode(&mut enc, &symbols, mu.data(), sigma.data());
                enc.finish()
            })
        });
        encode_ms.push(ms);
        let (ms, decoded) = timed(|| {
            ctx.tracer.span("entropy.gaussian_decode", 0, || {
                coder.decode(&mut RangeDecoder::new(&stream), mu.data(), sigma.data())
            })
        });
        decode_ms.push(ms);
        ctx.checks.verify(decoded == symbols, || {
            "Gaussian-conditional coder does not round-trip".into()
        })?;
    }
    let msym_s = |ms: &[f64]| symbols.len() as f64 / (stats::median(ms) * 1e3);
    Ok((msym_s(&encode_ms), msym_s(&decode_ms)))
}

// ---------------------------------------------------------------- gld-decode

/// One variable's NRMSE-bounded container and the blocks it must decode to.
struct Bounded {
    bytes: Vec<u8>,
    originals: Vec<Tensor>,
}

struct DecodeState {
    model: Model,
    containers: Vec<Bounded>,
}

fn decode_state(ctx: &Ctx, sizes: &Sizes) -> DecodeState {
    let model = model(ctx, sizes);
    let frames = model.codec.config().block_frames;
    let target = Some(ErrorTarget::Nrmse(NRMSE_TARGET));
    let mut containers = Vec::new();
    for variable in &model.eval {
        let bytes = ctx.checks.attempt("gld-decode bounded encode", || {
            let (container, _) = ctx.tracer.span("core.compress_variable", 0, || {
                Codec::compress_variable(&model.codec, variable, frames, target)
            });
            Ok(container.encode())
        });
        if let Some(bytes) = bytes {
            let windows = temporal_windows(variable, frames);
            containers.push(Bounded {
                bytes,
                originals: windows.into_iter().map(|w| w.data).collect(),
            });
        }
    }
    assert!(
        !containers.is_empty(),
        "no bounded container could be encoded"
    );
    DecodeState { model, containers }
}

pub fn decode(ctx: &Ctx) -> Vec<Metric> {
    let sizes = sizes(ctx.args.quick);
    // Each container's first decode: what every later decode must equal.
    let mut first: Vec<Option<Vec<Tensor>>> = vec![None; sizes.eval_variables];

    let set_up = || decode_state(ctx, &sizes);
    let batch = |state: &mut DecodeState, turn: Turn| {
        let codec = &state.model.codec;
        let mut latencies_ms = Vec::new();
        for (v, bounded) in state.containers.iter().enumerate() {
            let op = (turn.index * state.containers.len() + v) as u64;
            ctx.checks.attempt("gld-decode", || {
                let (ms, blocks) = timed(|| {
                    let container = ctx.tracer.span("core.container.decode", op, || {
                        Container::decode(&bounded.bytes)
                    });
                    ctx.tracer.span("core.decompress_container", op, || {
                        codec
                            .decompress_container(&container.map_err(|e| e.to_string())?)
                            .map_err(|e| e.to_string())
                    })
                });
                latencies_ms.push(ms);
                let blocks = blocks?;
                ctx.checks
                    .verify(blocks.len() == bounded.originals.len(), || {
                        format!("container {v}: {} blocks decoded", blocks.len())
                    })?;
                for (index, (original, recon)) in bounded.originals.iter().zip(&blocks).enumerate()
                {
                    let achieved = nrmse(original, recon);
                    ctx.checks.verify(achieved <= NRMSE_TARGET, || {
                        format!("container {v} block {index}: NRMSE {achieved} > {NRMSE_TARGET}")
                    })?;
                }
                let same = *first[v].get_or_insert_with(|| blocks.clone()) == blocks;
                ctx.checks.verify(same, || {
                    format!("container {v}: decoded values differ from the first decode")
                })
            });
        }
        Batch::new(latencies_ms.iter().sum::<f64>() / 1e3, &latencies_ms)
    };
    let (state, setup_s, measured) =
        ctx.epochs(sizes.setup_repeats, sizes.min_batches, set_up, batch);

    if !ctx.args.trace {
        let total: usize = state.containers.iter().map(|c| c.bytes.len()).sum();
        let bytes_per_op = total as f64 / state.containers.len() as f64;
        return ctx.end_to_end(&setup_s, &measured, state.containers.len(), bytes_per_op);
    }
    let mut metrics = setup_metrics(ctx);
    metrics.push(exact("trace_overhead_frac", measured.trace_overhead_frac()));
    metrics.extend(decode_probes(ctx, &state, &sizes));
    metrics.extend(network_probes(ctx, &state.model));
    metrics
}

/// `GldCompressor::decompress_block`, step by step through public functions.
fn staged_decode(ctx: &Ctx, model: &Model, frame: &[u8], index: u64) -> Result<Tensor, String> {
    let t = &ctx.tracer;
    let codec = &model.codec;
    let vae = codec.vae();
    let partition = codec.config().partition();
    let error_bound = PcaErrorBound::new(codec.config().error_bound);
    t.span("core.block_decode.staged", index, || {
        let block = t
            .span("core.frame_decode", index, || {
                CompressedBlock::decode(frame)
            })
            .map_err(|e| e.to_string())?;
        let y_key = t.span("vae.latent_decompress", index, || {
            LatentCodec::new(vae).decompress(&block.keyframe_bytes)
        });
        let (lo, hi) = block.latent_range;
        let scale = if hi > lo { 2.0 / (hi - lo) } else { 1.0 };
        let y_cond = t.span("tensor.condition", index, || {
            let y_key_norm = y_key.map(|v| (v - lo) * scale - 1.0);
            let mut dims = y_key_norm.dims().to_vec();
            dims[0] = partition.total;
            let mut y_cond = Tensor::zeros(&dims);
            y_cond.index_assign(0, &partition.conditioning, &y_key_norm);
            y_cond
        });
        let y_generated = t.span("diffusion.generate", index, || {
            let mut rng = TensorRng::new(block.sampling_seed);
            codec
                .diffusion()
                .generate(&y_cond, &partition, block.denoising_steps, &mut rng)
        });
        let y_full = t.span("tensor.denormalize_latent", index, || {
            y_generated.map(|v| (v + 1.0) / scale + lo)
        });
        let decoded = t.span("vae.decode_latent", index, || vae.decode_latent(&y_full));
        let recon = t.span("vae.denormalize", index, || {
            let norms: Vec<FrameNorm> = block
                .frame_norms
                .iter()
                .map(|&(mean, range)| FrameNorm { mean, range })
                .collect();
            FrameCodec::new(vae).denormalize(&decoded, &norms)
        });
        if block.aux_bytes.is_empty() {
            return Ok(recon);
        }
        Ok(t.span("core.error_bound.apply_from_aux", index, || {
            error_bound.apply_from_aux(&recon, &block.aux_bytes)
        }))
    })
}

fn decode_probes(ctx: &Ctx, state: &DecodeState, sizes: &Sizes) -> Vec<Metric> {
    let t = &ctx.tracer;
    let model = &state.model;
    let mut aux_bytes = Vec::new();
    let mut nrmse_ratio: f64 = 0.0;
    for _ in 0..sizes.probe_passes {
        for bounded in &state.containers {
            let Some(container) = ctx.checks.attempt("gld-decode container probe", || {
                Container::decode(&bounded.bytes).map_err(|e| e.to_string())
            }) else {
                continue;
            };
            for (index, frame) in container.blocks().iter().enumerate() {
                ctx.checks.attempt("gld-decode block probe", || {
                    let real = t.span("core.block_decode", index as u64, || {
                        Codec::decompress_block(&model.codec, frame)
                    });
                    let staged = staged_decode(ctx, model, frame, index as u64)?;
                    ctx.checks.verify(staged == real, || {
                        format!("block {index}: staged decode differs from decompress_block")
                    })?;
                    let block = CompressedBlock::decode(frame).map_err(|e| e.to_string())?;
                    aux_bytes.push(block.aux_bytes.len() as f64);
                    let achieved = nrmse(&bounded.originals[index], &real);
                    nrmse_ratio = nrmse_ratio.max((achieved / NRMSE_TARGET) as f64);
                    Ok(())
                });
            }
        }
    }
    // The encoder-side cost of the bound, on the first block of each
    // variable: the correction is fitted against the unbounded decode.
    for bounded in &state.containers {
        ctx.checks.attempt("gld-decode error-bound probe", || {
            let original = &bounded.originals[0];
            let unbounded = Codec::compress_block_at(&model.codec, original, None, 0);
            let recon = Codec::decompress_block(&model.codec, &unbounded);
            let tau = PcaErrorBound::tau_for_nrmse(original, NRMSE_TARGET);
            let module = PcaErrorBound::new(model.codec.config().error_bound);
            let (corrected, _, _) = t.span("core.error_bound.apply", 0, || {
                module.apply(original, &recon, tau)
            });
            ctx.checks
                .verify(nrmse(original, &corrected) <= NRMSE_TARGET, || {
                    "PcaErrorBound::apply left the block above its bound".into()
                })
        });
    }
    let real_ms: f64 = t.durations_ms("core.block_decode").iter().sum();
    if aux_bytes.is_empty() || real_ms == 0.0 {
        return Vec::new();
    }
    let coverage = t.children_ms("core.block_decode.staged") / real_ms;
    reconcile(ctx, coverage);
    let steps = model
        .codec
        .diffusion()
        .schedule()
        .respaced_timesteps(model.codec.config().denoising_steps);
    vec![
        sampled("core.block_decode_ms", &t.durations_ms("core.block_decode")),
        sampled(
            "vae.latent_decompress_ms",
            &t.durations_ms("vae.latent_decompress"),
        ),
        sampled(
            "diffusion.generate_ms",
            &t.durations_ms("diffusion.generate"),
        ),
        exact("diffusion.unet_calls", steps.len() as f64)
            .with_note("SpaceTimeUnet::forward calls in one generate, one per denoising step"),
        sampled("vae.decode_latent_ms", &t.durations_ms("vae.decode_latent")),
        sampled(
            "core.error_bound.apply_from_aux_ms",
            &t.durations_ms("core.error_bound.apply_from_aux"),
        ),
        sampled(
            "core.error_bound.apply_ms",
            &t.durations_ms("core.error_bound.apply"),
        ),
        sampled("core.error_bound.aux_bytes", &aux_bytes),
        exact("core.nrmse_max", nrmse_ratio).with_note("worst block NRMSE over the 0.01 target"),
        exact("trace.layer_coverage", coverage)
            .with_note("staged layer spans over core.block_decode_ms"),
    ]
}

/// The tensor and autograd layers under the networks, at the shapes the
/// evaluation fields give them.
fn network_probes(ctx: &Ctx, model: &Model) -> Vec<Metric> {
    let t = &ctx.tracer;
    let config = model.codec.config();
    let frames = config.block_frames;
    let (height, width) = {
        let dims = model.eval[0].frames.dims();
        (dims[1], dims[2])
    };
    let (lh, lw) = config.vae.latent_size(height, width);
    let mut rng = TensorRng::new(TRAIN_SEED);

    // One denoising step: the network and the tape it leaves behind.
    let latent = rng.randn(&[frames, config.vae.latent_channels, lh, lw]);
    let mut tape_nodes = 0;
    for _ in 0..10 {
        let tape = Tape::new();
        let input = tape.constant(latent.clone());
        t.span("diffusion.unet_forward", 0, || {
            model.codec.diffusion().unet().forward(&tape, &input, 10)
        });
        tape_nodes = tape.len();
    }

    // The 3x3 convolutions of the residual blocks dominate the network:
    // per frame [C, 9C] x [9C, h*w], batched over the frames of a block.
    let channels = config.diffusion.model_channels;
    let (m, k, n) = (channels, 9 * channels, lh * lw);
    let a = rng.randn(&[frames, m, k]);
    let b = rng.randn(&[frames, k, n]);
    for _ in 0..50 {
        t.span("tensor.matmul", 0, || std::hint::black_box(a.matmul(&b)));
    }
    let flops = (2 * frames * m * n * k) as f64;
    let matmul_ms = stats::median(&t.durations_ms("tensor.matmul"));

    // The VAE encoder's first layer: 1 -> base channels, 3x3, stride 2.
    let x = rng.randn(&[frames, 1, height, width]);
    let weight = rng.randn(&[config.vae.base_channels, 1, 3, 3]);
    let bias = rng.randn(&[config.vae.base_channels]);
    for _ in 0..50 {
        t.span("tensor.conv2d", 0, || {
            std::hint::black_box(conv2d(
                &x,
                &weight,
                Some(&bias),
                Conv2dGeometry::new(3, 2, 1),
            ))
        });
    }
    let shape = format!("batch {frames} of [{m}x{k}] x [{k}x{n}]");
    vec![
        sampled(
            "diffusion.unet_forward_ms",
            &t.durations_ms("diffusion.unet_forward"),
        ),
        exact("nn.tape_nodes_per_forward", tape_nodes as f64),
        exact("tensor.matmul_gflops", flops / (matmul_ms * 1e6)).with_note(shape.clone()),
        exact(
            "tensor.matmul_ops_per_byte",
            (2 * m * n * k) as f64 / (4 * (m * k + k * n + m * n)) as f64,
        )
        .with_note(format!("computed, not measured: {shape}, f32")),
        sampled("tensor.conv2d_ms", &t.durations_ms("tensor.conv2d")).with_note(format!(
            "[{frames},1,{height},{width}] * [{},1,3,3] stride 2",
            config.vae.base_channels
        )),
    ]
}
