//! Keyframe-conditioned diffusion (paper §3.3, Algorithm 1): the forward
//! process only noises the frames to be generated, the clean keyframe
//! latents are spliced back in with the ⊕ operator before every network
//! call, and sampling therefore interpolates the missing frames while
//! reproducing the keyframes exactly.

use crate::config::DiffusionConfig;
use crate::schedule::NoiseSchedule;
use crate::unet::SpaceTimeUnet;
use gld_nn::loss::masked_frame_mse;
use gld_nn::prelude::*;
use gld_tensor::{Tensor, TensorRng};

/// Partition of the N frames of a block into conditioning (keyframe) and
/// generated index sets: `G ∪ C = {0..N}`, `G ∩ C = ∅`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FramePartition {
    /// Indices of the conditioning keyframes (set C).
    pub conditioning: Vec<usize>,
    /// Indices of the frames to generate (set G).
    pub generated: Vec<usize>,
    /// Total number of frames N.
    pub total: usize,
}

impl FramePartition {
    /// Builds a partition from the conditioning set; every other frame index
    /// in `0..total` becomes a generated frame.
    pub fn from_conditioning(total: usize, conditioning: &[usize]) -> Self {
        assert!(total > 0, "empty block");
        let mut seen = vec![false; total];
        for &c in conditioning {
            assert!(
                c < total,
                "conditioning index {c} out of range (N = {total})"
            );
            assert!(!seen[c], "duplicate conditioning index {c}");
            seen[c] = true;
        }
        let generated: Vec<usize> = (0..total).filter(|&i| !seen[i]).collect();
        assert!(
            !generated.is_empty(),
            "at least one frame must be generated (all {total} frames are keyframes)"
        );
        FramePartition {
            conditioning: conditioning.to_vec(),
            generated,
            total,
        }
    }

    /// Number of keyframes K.
    pub fn num_conditioning(&self) -> usize {
        self.conditioning.len()
    }

    /// Number of generated frames.
    pub fn num_generated(&self) -> usize {
        self.generated.len()
    }
}

/// The ⊕ operator (paper §3.3): keeps `clean` on the conditioning indices and
/// `noisy` on the generated indices.
pub fn splice_frames(noisy: &Tensor, clean: &Tensor, partition: &FramePartition) -> Tensor {
    let mut out = noisy.clone();
    restore_keyframes(&mut out, clean, partition);
    out
}

/// ⊕ in place: overwrites the conditioning frames of `block` with `clean`'s.
fn restore_keyframes(block: &mut Tensor, clean: &Tensor, partition: &FramePartition) {
    assert_eq!(block.dims(), clean.dims(), "splice shape mismatch");
    assert_eq!(
        block.dim(0),
        partition.total,
        "partition does not match block"
    );
    let frame = clean.numel() / partition.total;
    for &c in &partition.conditioning {
        let span = c * frame..(c + 1) * frame;
        block.data_mut()[span.clone()].copy_from_slice(&clean.data()[span]);
    }
}

/// Conditional latent diffusion model: UNet + schedule + conditioning logic.
pub struct ConditionalDiffusion {
    unet: SpaceTimeUnet,
    schedule: NoiseSchedule,
    config: DiffusionConfig,
}

impl ConditionalDiffusion {
    /// Builds a model with a linear schedule of `config.train_steps` steps.
    pub fn new(config: DiffusionConfig) -> Self {
        ConditionalDiffusion {
            unet: SpaceTimeUnet::new(config),
            schedule: NoiseSchedule::linear(config.train_steps),
            config,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &DiffusionConfig {
        &self.config
    }

    /// The current noise schedule.
    pub fn schedule(&self) -> &NoiseSchedule {
        &self.schedule
    }

    /// The denoising network.
    pub fn unet(&self) -> &SpaceTimeUnet {
        &self.unet
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        self.unet.parameters()
    }

    /// Replaces the schedule with a shorter one (few-step fine-tuning /
    /// sampling, paper §4.6).  The UNet weights are kept.
    pub fn retime(&mut self, steps: usize) {
        self.schedule = NoiseSchedule::linear(steps);
    }

    /// One training objective evaluation (Algorithm 1, lines 3–12): noise the
    /// generated frames at a random timestep, splice the clean keyframes in,
    /// run the network and compute the masked-MSE loss (Eq. 7).
    ///
    /// `y0` is the min-max-normalised latent block `[N, C, h, w]`.
    pub fn training_loss(
        &self,
        tape: &Tape,
        y0: &Tensor,
        partition: &FramePartition,
        rng: &mut TensorRng,
    ) -> Var {
        assert_eq!(y0.dim(0), partition.total, "block/partition mismatch");
        let t = rng.sample_index(self.schedule.steps());
        let (y_t_all, eps) = self.schedule.add_noise(y0, t, rng);
        let y_input = splice_frames(&y_t_all, y0, partition);
        let eps_hat = self.unet.forward(tape, &tape.constant(y_input), t);
        let eps_target = tape.constant(eps);
        masked_frame_mse(&eps_hat, &eps_target, &partition.generated)
    }

    /// Generates the missing frames of a block by reverse diffusion
    /// (DDIM-style deterministic sampling over `num_steps` respaced
    /// timesteps), conditioning on the keyframe latents.
    ///
    /// `y_cond` must contain the clean keyframe latents at the conditioning
    /// indices; the content of the generated indices is ignored.  The result
    /// contains the keyframes untouched and the generated frames filled in.
    ///
    /// Algorithm 1 runs the network on the whole spliced block and then
    /// splices the clean keyframes over whatever a step made of them.  Here
    /// the keyframes are spliced in once and never stepped: the network
    /// predicts the noise of the generated frames only
    /// ([`SpaceTimeUnet::forward_frames`]) and the DDIM step, element-wise,
    /// updates those frames alone — the same floats for less work.
    pub fn generate(
        &self,
        y_cond: &Tensor,
        partition: &FramePartition,
        num_steps: usize,
        rng: &mut TensorRng,
    ) -> Tensor {
        let timesteps = self.schedule.respaced_timesteps(num_steps);
        // Start from pure noise on the generated frames.
        let mut y = rng.randn(y_cond.dims());
        restore_keyframes(&mut y, y_cond, partition);
        // Nothing differentiates through sampling: no graph, and each
        // step's activations are freed as the network moves past them.
        let tape = Tape::inference();
        let generated = &partition.generated;
        for (i, &t) in timesteps.iter().enumerate() {
            let y_t = tape.constant(y.clone());
            let eps_hat = self.unet.forward_frames(&tape, &y_t, t, generated);
            let t_prev = timesteps.get(i + 1).copied();
            let stepped =
                self.schedule
                    .ddim_step(&y.index_select(0, generated), eps_hat.tensor(), t, t_prev);
            y.index_assign(0, generated, &stepped);
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition() -> FramePartition {
        FramePartition::from_conditioning(8, &[0, 3, 7])
    }

    /// The sampler as Algorithm 1 writes it, kept as the oracle for
    /// [`ConditionalDiffusion::generate`]: the network on every frame, the
    /// DDIM step on every frame, the clean keyframes spliced back after each
    /// step.
    fn generate_by_full_forward(
        model: &ConditionalDiffusion,
        y_cond: &Tensor,
        partition: &FramePartition,
        num_steps: usize,
        rng: &mut TensorRng,
    ) -> Tensor {
        let timesteps = model.schedule.respaced_timesteps(num_steps);
        let mut y = rng.randn(y_cond.dims());
        restore_keyframes(&mut y, y_cond, partition);
        let tape = Tape::inference();
        for (i, &t) in timesteps.iter().enumerate() {
            let y_t = tape.constant(y);
            let eps_hat = model.unet.forward(&tape, &y_t, t);
            let t_prev = timesteps.get(i + 1).copied();
            y = model
                .schedule
                .ddim_step(y_t.tensor(), eps_hat.tensor(), t, t_prev);
            restore_keyframes(&mut y, y_cond, partition);
        }
        y
    }

    fn bits(t: &Tensor) -> (Vec<usize>, Vec<u32>) {
        (
            t.dims().to_vec(),
            t.data().iter().map(|v| v.to_bits()).collect(),
        )
    }

    /// A tiny model after a few training steps, so its attention is no
    /// longer the near-uniform attention of fresh weights.
    fn briefly_trained(frames: usize) -> ConditionalDiffusion {
        let mut rng = TensorRng::new(41);
        let blocks: Vec<Tensor> = (0..4)
            .map(|_| rng.rand_uniform(&[frames, 3, 4, 4], -1.0, 1.0))
            .collect();
        let mut trainer = crate::DiffusionTrainer::new(DiffusionConfig::tiny());
        let partition = FramePartition::from_conditioning(frames, &[0, frames - 1]);
        trainer.train(&blocks, &partition, 12);
        trainer.into_model()
    }

    #[test]
    fn generate_equals_the_full_forward_oracle_on_every_backend() {
        const FRAMES: usize = 8;
        let model = briefly_trained(FRAMES);
        // gld-core's keyframe strategies at N = 8: interpolation with
        // interval 3, prediction from 3 leading frames, mixed with 3.
        let strategies: [&[usize]; 3] = [&[0, 3, 6, 7], &[0, 1, 2], &[0, 1, 7]];
        let mut rng = TensorRng::new(5);
        let y_cond = rng.rand_uniform(&[FRAMES, 3, 4, 4], -1.0, 1.0);
        for backend in gld_kernels::available_backends() {
            gld_kernels::force(backend).expect("available");
            for (case, conditioning) in strategies.iter().enumerate() {
                let p = FramePartition::from_conditioning(FRAMES, conditioning);
                let seed = 100 + case as u64;
                let got = model.generate(&y_cond, &p, 4, &mut TensorRng::new(seed));
                let want =
                    generate_by_full_forward(&model, &y_cond, &p, 4, &mut TensorRng::new(seed));
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "{backend}: keyframes {conditioning:?}"
                );
            }
        }
        gld_kernels::clear_force();
    }

    #[test]
    fn forward_frames_equals_the_rows_of_forward() {
        let model = briefly_trained(6);
        let mut rng = TensorRng::new(8);
        let y = rng.randn(&[6, 3, 4, 4]);
        let keep = [1, 2, 4];
        for tape in [Tape::inference(), Tape::new()] {
            let y = tape.constant(y.clone());
            let full = model.unet.forward(&tape, &y, 30);
            let kept = model.unet.forward_frames(&tape, &y, 30, &keep);
            assert_eq!(
                bits(kept.tensor()),
                bits(&full.tensor().index_select(0, &keep))
            );
        }
    }

    #[test]
    fn partition_invariants() {
        let p = partition();
        assert_eq!(p.num_conditioning(), 3);
        assert_eq!(p.num_generated(), 5);
        // G and C are disjoint and cover everything.
        let mut all: Vec<usize> = p
            .conditioning
            .iter()
            .chain(p.generated.iter())
            .copied()
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "at least one frame must be generated")]
    fn partition_rejects_all_keyframes() {
        FramePartition::from_conditioning(3, &[0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn partition_rejects_duplicates() {
        FramePartition::from_conditioning(4, &[1, 1]);
    }

    #[test]
    fn splice_keeps_clean_keyframes() {
        let mut rng = TensorRng::new(0);
        let clean = rng.randn(&[8, 2, 3, 3]);
        let noisy = rng.randn(&[8, 2, 3, 3]);
        let p = partition();
        let spliced = splice_frames(&noisy, &clean, &p);
        for &c in &p.conditioning {
            assert_eq!(
                spliced.index_select(0, &[c]),
                clean.index_select(0, &[c]),
                "keyframe {c} was modified"
            );
        }
        for &g in &p.generated {
            assert_eq!(spliced.index_select(0, &[g]), noisy.index_select(0, &[g]));
        }
    }

    #[test]
    fn training_loss_is_finite_and_backpropagates() {
        let model = ConditionalDiffusion::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(1);
        let y0 = rng.rand_uniform(&[8, 3, 4, 4], -1.0, 1.0);
        let tape = Tape::new();
        let loss = model.training_loss(&tape, &y0, &partition(), &mut rng);
        assert!(loss.value().item().is_finite());
        loss.backward();
        assert!(model.parameters().grad_norm() > 0.0);
    }

    #[test]
    fn generation_preserves_keyframes_exactly() {
        let model = ConditionalDiffusion::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(2);
        let y_cond = rng.rand_uniform(&[8, 3, 4, 4], -1.0, 1.0);
        let p = partition();
        let out = model.generate(&y_cond, &p, 4, &mut rng);
        assert_eq!(out.dims(), y_cond.dims());
        for &c in &p.conditioning {
            assert_eq!(
                out.index_select(0, &[c]),
                y_cond.index_select(0, &[c]),
                "keyframe {c} was altered by sampling"
            );
        }
        assert!(out.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn retime_shortens_the_schedule_but_keeps_weights() {
        let mut model = ConditionalDiffusion::new(DiffusionConfig::tiny());
        let before = model.parameters().num_scalars();
        model.retime(8);
        assert_eq!(model.schedule().steps(), 8);
        assert_eq!(model.parameters().num_scalars(), before);
    }

    #[test]
    fn more_sampling_steps_is_not_worse_on_random_net() {
        // Sanity: sampling runs for several step counts without blowing up.
        let model = ConditionalDiffusion::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(3);
        let y_cond = rng.rand_uniform(&[4, 3, 4, 4], -1.0, 1.0);
        let p = FramePartition::from_conditioning(4, &[0, 3]);
        for steps in [1usize, 2, 8] {
            let out = model.generate(&y_cond, &p, steps, &mut rng);
            assert!(
                out.abs().max() < 100.0,
                "sampling diverged at {steps} steps"
            );
        }
    }
}
