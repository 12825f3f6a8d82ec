//! Equivalence suite for the learned codec's inference path: a forward pass
//! on a non-recording tape ([`Tape::inference`]) must be **bit-identical** to
//! the same forward pass on a recording one, and neither may drift from the
//! values the networks computed before the kernels under them were rewritten.
//!
//! The decoder regenerates every non-keyframe with the diffusion model and
//! the PCA correction stream was fitted against exactly those values, so
//! "close" is not good enough anywhere in this file.
//!
//! * **one forward, two tapes** — `SpaceTimeUnet::forward` and
//!   `Vae::{encode, decode, hyper_encode, hyper_decode}` run the same code
//!   under both tapes and agree to the bit, across shapes and seeds
//!   including `DiffusionConfig::tiny()` and `bench_config()`;
//! * **sampling** — `ConditionalDiffusion::generate` (non-recording, splices
//!   keyframes in place) equals Algorithm 1 spelled out over a recording
//!   tape with `splice_frames`;
//! * **what recording still means** — the recorded graph has the node count
//!   it always had, an inference tape records nothing, and asking it for
//!   gradients is a loud error rather than silent zeros;
//! * **training** — the first optimisation steps of both trainers reproduce
//!   the loss values of the commit before the kernel rewrite;
//! * **kernel backends** — a container decodes to the same floats under the
//!   scalar GEMM and under the host's best one.

use gld_bench::bench_config;
use gld_core::{Codec, ErrorTarget, GldCompressor, GldConfig, GldTrainingBudget};
use gld_datasets::{generate, DatasetKind, FieldSpec};
use gld_diffusion::model::splice_frames;
use gld_diffusion::{ConditionalDiffusion, DiffusionConfig, DiffusionTrainer, FramePartition};
use gld_nn::{Tape, Var};
use gld_tensor::{Tensor, TensorRng};
use gld_vae::{Vae, VaeConfig, VaeTrainer};

fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
    (
        t.dims().to_vec(),
        t.data().iter().map(|v| v.to_bits()).collect(),
    )
}

/// Runs `forward` under a recording and a non-recording tape and returns the
/// recording tape's node count once the outputs are proven bit-identical.
fn same_on_both_tapes(input: &Tensor, forward: impl Fn(&Tape, &Var) -> Vec<Var>) -> usize {
    let recording = Tape::new();
    let recorded = forward(&recording, &recording.constant(input.clone()));
    let inference = Tape::inference();
    let inferred = forward(&inference, &inference.constant(input.clone()));
    assert_eq!(recorded.len(), inferred.len());
    for (r, i) in recorded.iter().zip(&inferred) {
        assert_eq!(bits(r.tensor()), bits(i.tensor()));
        assert!(r.tensor().data().iter().all(|v| v.is_finite()));
    }
    assert!(inference.is_empty(), "an inference tape recorded nodes");
    recording.len()
}

/// `(config, frames, h, w)`: the unit-test and benchmark networks, and odd
/// sizes (one frame pair, non-square, extents of 1).
fn unet_cases() -> Vec<(DiffusionConfig, usize, usize, usize)> {
    let wide = DiffusionConfig {
        latent_channels: 2,
        model_channels: 6,
        heads: 3,
        seed: 9,
        ..DiffusionConfig::tiny()
    };
    vec![
        (DiffusionConfig::tiny(), 8, 4, 4),
        (bench_config().diffusion, 16, 8, 8),
        (DiffusionConfig::tiny(), 2, 3, 5),
        (wide, 5, 1, 7),
        (wide, 3, 6, 1),
    ]
}

#[test]
fn unet_forward_is_bit_identical_on_both_tapes() {
    for (case, (config, frames, h, w)) in unet_cases().into_iter().enumerate() {
        let model = ConditionalDiffusion::new(config);
        for seed in 0..3u64 {
            let y = TensorRng::new(seed * 31 + case as u64)
                .randn(&[frames, config.latent_channels, h, w])
                .scale(1.0 + seed as f32);
            let t = (seed as usize * 37 + 3) % config.train_steps;
            let nodes =
                same_on_both_tapes(&y, |tape, y_t| vec![model.unet().forward(tape, y_t, t)]);
            // One constant plus the network's ops; the count is a property
            // of the architecture, not of the shape or of this rewrite.
            assert_eq!(nodes, 223, "case {case}: recorded node count changed");
        }
    }
}

#[test]
fn vae_forward_pieces_are_bit_identical_on_both_tapes() {
    for (config, batch, h, w) in [
        (VaeConfig::tiny(), 2, 16, 16),
        (bench_config().vae, 16, 32, 32),
        (VaeConfig::tiny(), 1, 8, 24),
        (VaeConfig::default(), 3, 24, 8),
    ] {
        let vae = Vae::new(config);
        for seed in 0..2u64 {
            let mut rng = TensorRng::new(100 + seed);
            let x = rng.rand_uniform(&[batch, 1, h, w], -0.5, 0.5);
            same_on_both_tapes(&x, |tape, x| vec![vae.encode(tape, x)]);
            let y = vae.quantize_latent(&x);
            same_on_both_tapes(&y, |tape, y| vec![vae.decode(tape, y)]);
            same_on_both_tapes(&y, |tape, y| vec![vae.hyper_encode(tape, y)]);
            let z = vae.quantize_hyper(&y);
            same_on_both_tapes(&z, |tape, z| {
                let (mu, sigma) = vae.hyper_decode(tape, z);
                vec![mu, sigma]
            });
            // The inference helpers are those forwards, rounded.
            let tape = Tape::new();
            let mut encoded = vae.encode(&tape, &tape.constant(x.clone())).value();
            encoded.round_inplace();
            assert_eq!(bits(&encoded), bits(&y));
            let decoded = vae.decode(&tape, &tape.constant(y.clone())).value();
            assert_eq!(bits(&decoded), bits(&vae.decode_latent(&y)));
        }
    }
}

/// Algorithm 1's sampling loop as the pipeline ran it before `generate`
/// moved to a non-recording tape: a fresh recording tape per step, keyframes
/// spliced back through `splice_frames`.
fn generate_on_recording_tapes(
    model: &ConditionalDiffusion,
    y_cond: &Tensor,
    partition: &FramePartition,
    steps: usize,
    rng: &mut TensorRng,
) -> Tensor {
    let timesteps = model.schedule().respaced_timesteps(steps);
    let noise = rng.randn(y_cond.dims());
    let mut y = splice_frames(&noise, y_cond, partition);
    for (i, &t) in timesteps.iter().enumerate() {
        let tape = Tape::new();
        let eps_hat = model
            .unet()
            .forward(&tape, &tape.constant(y.clone()), t)
            .value();
        let stepped = model
            .schedule()
            .ddim_step(&y, &eps_hat, t, timesteps.get(i + 1).copied());
        y = splice_frames(&stepped, y_cond, partition);
    }
    y
}

#[test]
fn generate_equals_the_recording_tape_sampling_loop() {
    for (case, (config, frames, h, w)) in unet_cases().into_iter().enumerate() {
        let model = ConditionalDiffusion::new(config);
        let keyframes = if frames > 2 {
            vec![0, frames - 1]
        } else {
            vec![0]
        };
        let partition = FramePartition::from_conditioning(frames, &keyframes);
        for (steps, seed) in [(1usize, 1u64), (4, 2), (8, 3)] {
            let y_cond = TensorRng::new(seed + case as u64).rand_uniform(
                &[frames, config.latent_channels, h, w],
                -1.0,
                1.0,
            );
            let fast = model.generate(&y_cond, &partition, steps, &mut TensorRng::new(seed));
            let slow = generate_on_recording_tapes(
                &model,
                &y_cond,
                &partition,
                steps,
                &mut TensorRng::new(seed),
            );
            assert_eq!(bits(&fast), bits(&slow), "case {case}, {steps} steps");
            // And sampling twice is sampling once.
            let again = model.generate(&y_cond, &partition, steps, &mut TensorRng::new(seed));
            assert_eq!(bits(&fast), bits(&again));
        }
    }
}

#[test]
#[should_panic(expected = "non-recording tape")]
fn backward_on_an_inference_tape_is_a_loud_error() {
    let model = ConditionalDiffusion::new(DiffusionConfig::tiny());
    let tape = Tape::inference();
    let y = tape.constant(TensorRng::new(0).randn(&[4, 3, 4, 4]));
    let loss = model.unet().forward(&tape, &y, 5).square().mean();
    loss.backward();
}

#[test]
fn recording_tapes_still_differentiate() {
    // The same network, the same input: gradients reach the parameters under
    // `Tape::new()` exactly as before.
    let model = ConditionalDiffusion::new(DiffusionConfig::tiny());
    let tape = Tape::new();
    let y = tape.constant(TensorRng::new(0).randn(&[4, 3, 4, 4]));
    model
        .unet()
        .forward(&tape, &y, 5)
        .square()
        .mean()
        .backward();
    assert!(model.parameters().grad_norm() > 0.0);
}

/// Asserts a loss trajectory against values recorded at the parent commit.
/// The comparison is exact where the recording was made (x86-64 Linux,
/// glibc's `expf`/`logf`/`tanhf`); elsewhere the platform's libm may round a
/// transcendental differently, and only closeness can be asked.
fn assert_trajectory(name: &str, losses: &[f32], parent_bits: &[u32]) {
    let parent: Vec<f32> = parent_bits.iter().map(|&b| f32::from_bits(b)).collect();
    for (step, (&loss, &expected)) in losses.iter().zip(&parent).enumerate() {
        assert!(
            (loss - expected).abs() <= 1e-4 * expected.abs(),
            "{name} step {step}: loss {loss}, parent commit had {expected}"
        );
    }
    if cfg!(all(
        target_arch = "x86_64",
        target_os = "linux",
        target_env = "gnu"
    )) {
        let got: Vec<u32> = losses.iter().map(|l| l.to_bits()).collect();
        assert_eq!(got, parent_bits, "{name}: {losses:?} vs parent {parent:?}");
    }
}

#[test]
fn training_loss_trajectories_match_the_parent_commit() {
    let dataset = generate(DatasetKind::E3sm, &FieldSpec::tiny(), 7);
    let mut vae = VaeTrainer::new(VaeConfig::tiny(), 16, 2);
    let losses: Vec<f32> = (0..5)
        .map(|_| vae.train(&dataset.variables, 1).final_loss)
        .collect();
    assert_trajectory(
        "gld-vae",
        &losses,
        &[0x3ef4795d, 0x3e95346d, 0x3e4baf9e, 0x3e2c0b8a, 0x3dd7fa4d],
    );

    let mut rng = TensorRng::new(5);
    let blocks: Vec<Tensor> = (0..4)
        .map(|_| rng.rand_uniform(&[8, 3, 4, 4], -0.8, 0.8))
        .collect();
    let partition = FramePartition::from_conditioning(8, &[0, 4, 7]);
    let mut diffusion = DiffusionTrainer::new(DiffusionConfig::tiny());
    let losses: Vec<f32> = (0..5)
        .map(|_| diffusion.train(&blocks, &partition, 1).late_loss)
        .collect();
    assert_trajectory(
        "gld-diffusion",
        &losses,
        &[0x3f923a59, 0x3f87cedd, 0x3fbc4f3f, 0x3f849198, 0x3f96614d],
    );
}

#[test]
fn a_container_decodes_to_the_same_bits_on_every_kernel_backend() {
    let dataset = generate(DatasetKind::S3d, &FieldSpec::tiny(), 11);
    let budget = GldTrainingBudget {
        vae_steps: 40,
        diffusion_steps: 40,
        fine_tune_steps: 0,
        fine_tune_schedule: 16,
    };
    let config = GldConfig::tiny();
    let codec = GldCompressor::train(config, &dataset.variables, budget);
    let target = Some(ErrorTarget::Nrmse(0.01));
    let (container, _) =
        Codec::compress_variable(&codec, &dataset.variables[0], config.block_frames, target);
    let decode = || -> Vec<(Vec<usize>, Vec<u32>)> {
        let blocks = codec.decompress_container(&container).expect("decodes");
        assert!(!blocks.is_empty());
        blocks.iter().map(bits).collect()
    };
    // Forcing is process-wide, and harmless to the tests running beside
    // this one for the very reason this test passes.
    gld_kernels::force(gld_kernels::Backend::Scalar).expect("scalar is always available");
    let scalar = decode();
    for backend in gld_kernels::available_backends() {
        gld_kernels::force(backend).expect("listed backends are available");
        assert_eq!(decode(), scalar, "decoded under {backend}");
    }
    gld_kernels::clear_force();
    assert_eq!(decode(), scalar, "decoded under the active backend");
}
