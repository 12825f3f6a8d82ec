//! The denoising network: a compact UNet-style residual network with
//! factorized space-time attention (paper §3.2, adapted from the video
//! diffusion architecture of Ho et al.).
//!
//! The input is a latent block `[N, C, h, w]` where `N` is the temporal
//! dimension.  Temporal attention reshapes to `(h·w) × N × C` and attends
//! along time; spatial attention reshapes to `N × (h·w) × C` and attends
//! within each frame — exactly the factorization described in the paper.

use crate::config::DiffusionConfig;
use gld_nn::prelude::*;
use gld_tensor::TensorRng;

/// One residual convolution block with group normalisation and a timestep
/// shift.
struct ResBlock {
    norm1: GroupNorm,
    conv1: Conv2d,
    norm2: GroupNorm,
    conv2: Conv2d,
    time_proj: Linear,
}

impl ResBlock {
    fn new(name: &str, channels: usize, time_dim: usize, rng: &mut TensorRng) -> Self {
        ResBlock {
            norm1: GroupNorm::new(&format!("{name}.norm1"), 1, channels),
            conv1: Conv2d::new(&format!("{name}.conv1"), channels, channels, 3, 1, 1, rng),
            norm2: GroupNorm::new(&format!("{name}.norm2"), 1, channels),
            conv2: Conv2d::new(&format!("{name}.conv2"), channels, channels, 3, 1, 1, rng),
            time_proj: Linear::new(&format!("{name}.time"), time_dim, channels, true, rng),
        }
    }

    fn forward(&self, tape: &Tape, x: &Var, temb: &Var) -> Var {
        let channels = x.dim(1);
        let h = self.norm1.forward(tape, x).silu();
        let h = self.conv1.forward(tape, &h);
        // Timestep shift: [1, C] -> [1, C, 1, 1] broadcast over frames/space.
        let shift = self
            .time_proj
            .forward(tape, temb)
            .reshape(&[1, channels, 1, 1]);
        let h = h.add(&shift);
        let h = self.norm2.forward(tape, &h).silu();
        let h = self.conv2.forward(tape, &h);
        h.add(x)
    }

    fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.extend(&self.norm1.parameters());
        set.extend(&self.conv1.parameters());
        set.extend(&self.norm2.parameters());
        set.extend(&self.conv2.parameters());
        set.extend(&self.time_proj.parameters());
        set
    }
}

/// Factorized space-time attention: temporal attention followed by spatial
/// attention, each with a residual connection.
struct SpaceTimeAttention {
    temporal: SelfAttention,
    spatial: SelfAttention,
}

impl SpaceTimeAttention {
    fn new(name: &str, channels: usize, heads: usize, rng: &mut TensorRng) -> Self {
        SpaceTimeAttention {
            temporal: SelfAttention::new(&format!("{name}.temporal"), channels, heads, rng),
            spatial: SelfAttention::new(&format!("{name}.spatial"), channels, heads, rng),
        }
    }

    /// `[N, C, h, w]` in; out, the frames `keep` (all `N` when `None`), in
    /// that order.  Temporal attention reads every frame's keys and values
    /// but takes queries only at the kept frames; spatial attention is per
    /// frame and runs on the kept ones.
    fn forward(&self, tape: &Tape, x: &Var, keep: Option<&[usize]>) -> Var {
        let dims = x.dims();
        let (c, h, w) = (dims[1], dims[2], dims[3]);
        // Temporal attention: [(h·w), N, C].
        let t_in = x.permute(&[2, 3, 0, 1]).reshape(&[h * w, dims[0], c]);
        let t_kept = match keep {
            Some(keep) => t_in.index_select(1, keep),
            None => t_in.clone(),
        };
        let t_out = self.temporal.attend(tape, &t_kept, &t_in);
        let t_res = t_kept.add(&t_out);
        let n = t_res.dim(1);
        // Back to [N, C, h, w].
        let x = t_res.reshape(&[h, w, n, c]).permute(&[2, 3, 0, 1]);
        // Spatial attention: [N, (h·w), C].
        let s_in = x.permute(&[0, 2, 3, 1]).reshape(&[n, h * w, c]);
        let s_out = self.spatial.forward(tape, &s_in);
        let s_res = s_in.add(&s_out);
        s_res.reshape(&[n, h, w, c]).permute(&[0, 3, 1, 2])
    }

    fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.extend(&self.temporal.parameters());
        set.extend(&self.spatial.parameters());
        set
    }
}

/// The denoising network ε_θ(yᴺ_t, t).
pub struct SpaceTimeUnet {
    config: DiffusionConfig,
    time_embed: TimeEmbedding,
    conv_in: Conv2d,
    res1: ResBlock,
    attn1: SpaceTimeAttention,
    res2: ResBlock,
    attn2: SpaceTimeAttention,
    norm_out: GroupNorm,
    conv_out: Conv2d,
}

impl SpaceTimeUnet {
    /// Builds the network with freshly initialised weights.
    pub fn new(config: DiffusionConfig) -> Self {
        let mut rng = TensorRng::new(config.seed.wrapping_add(17));
        let m = config.model_channels;
        let td = config.time_embed_dim;
        SpaceTimeUnet {
            config,
            time_embed: TimeEmbedding::new("unet.time", td, td, &mut rng),
            conv_in: Conv2d::new("unet.conv_in", config.latent_channels, m, 3, 1, 1, &mut rng),
            res1: ResBlock::new("unet.res1", m, td, &mut rng),
            attn1: SpaceTimeAttention::new("unet.attn1", m, config.heads, &mut rng),
            res2: ResBlock::new("unet.res2", m, td, &mut rng),
            attn2: SpaceTimeAttention::new("unet.attn2", m, config.heads, &mut rng),
            norm_out: GroupNorm::new("unet.norm_out", 1, m),
            conv_out: Conv2d::new(
                "unet.conv_out",
                m,
                config.latent_channels,
                3,
                1,
                1,
                &mut rng,
            ),
        }
    }

    /// The configuration used to build the network.
    pub fn config(&self) -> &DiffusionConfig {
        &self.config
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        set.extend(&self.time_embed.parameters());
        set.extend(&self.conv_in.parameters());
        set.extend(&self.res1.parameters());
        set.extend(&self.attn1.parameters());
        set.extend(&self.res2.parameters());
        set.extend(&self.attn2.parameters());
        set.extend(&self.norm_out.parameters());
        set.extend(&self.conv_out.parameters());
        set
    }

    /// Predicts the noise for a latent block `[N, C, h, w]` at timestep `t`.
    pub fn forward(&self, tape: &Tape, y_t: &Var, t: usize) -> Var {
        self.predict(tape, y_t, t, None)
    }

    /// The noise prediction for the frames `keep` of a latent block only,
    /// `[keep.len(), C, h, w]`: to the bit, those frames of
    /// [`SpaceTimeUnet::forward`]'s output, for less work.
    ///
    /// Everything up to `attn2`'s temporal attention mixes frames and runs
    /// on all of them.  That attention takes queries only at `keep` (keys
    /// and values from every frame), and every layer after it — spatial
    /// attention, the one-group norms, SiLU, the 3×3 output convolution —
    /// is per frame, so it runs on the kept frames alone.  Each of them
    /// computes a frame's rows independently of the other frames'.
    pub fn forward_frames(&self, tape: &Tape, y_t: &Var, t: usize, keep: &[usize]) -> Var {
        self.predict(tape, y_t, t, Some(keep))
    }

    fn predict(&self, tape: &Tape, y_t: &Var, t: usize, keep: Option<&[usize]>) -> Var {
        assert_eq!(
            y_t.dim(1),
            self.config.latent_channels,
            "latent channel mismatch"
        );
        let temb = self.time_embed.forward(tape, &[t]); // [1, td]
        let h = self.conv_in.forward(tape, y_t);
        let h = self.res1.forward(tape, &h, &temb);
        let h = self.attn1.forward(tape, &h, None);
        let h = self.res2.forward(tape, &h, &temb);
        let h = self.attn2.forward(tape, &h, keep);
        let h = self.norm_out.forward(tape, &h).silu();
        self.conv_out.forward(tape, &h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gld_tensor::Tensor;

    #[test]
    fn forward_shape_matches_input() {
        let unet = SpaceTimeUnet::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(3);
        let y = rng.randn(&[4, 3, 4, 4]);
        let tape = Tape::new();
        let out = unet.forward(&tape, &tape.constant(y.clone()), 10);
        assert_eq!(out.dims(), y.dims());
        assert!(out.value().data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn output_depends_on_timestep() {
        let unet = SpaceTimeUnet::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(5);
        let y = rng.randn(&[2, 3, 4, 4]);
        let tape = Tape::new();
        let a = unet.forward(&tape, &tape.constant(y.clone()), 1).value();
        let b = unet.forward(&tape, &tape.constant(y), 90).value();
        assert!(a.sub(&b).abs().max() > 1e-5, "timestep has no effect");
    }

    #[test]
    fn output_depends_on_other_frames_via_temporal_attention() {
        // Changing the content of frame 3 must change the prediction for
        // frame 0 — this is exactly what lets keyframe conditioning steer the
        // generated frames.
        let unet = SpaceTimeUnet::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(7);
        let y = rng.randn(&[4, 3, 4, 4]);
        let mut y2 = y.clone();
        let altered = rng.randn(&[1, 3, 4, 4]).scale(3.0);
        y2.index_assign(0, &[3], &altered);
        let tape = Tape::new();
        let a = unet.forward(&tape, &tape.constant(y), 20).value();
        let b = unet.forward(&tape, &tape.constant(y2), 20).value();
        let frame0_diff = a
            .slice_axis(0, 0, 1)
            .sub(&b.slice_axis(0, 0, 1))
            .abs()
            .max();
        assert!(
            frame0_diff > 1e-6,
            "temporal attention does not propagate information across frames"
        );
    }

    #[test]
    fn gradients_reach_all_parameters() {
        let unet = SpaceTimeUnet::new(DiffusionConfig::tiny());
        let mut rng = TensorRng::new(9);
        let y = rng.randn(&[2, 3, 4, 4]);
        let tape = Tape::new();
        let out = unet.forward(&tape, &tape.constant(y), 5);
        out.square().mean().backward();
        let params = unet.parameters();
        let with_grad = params.iter().filter(|p| p.grad().abs().max() > 0.0).count();
        // All parameters except possibly a few dead-path biases must receive
        // gradient signal.
        assert!(
            with_grad * 10 >= params.len() * 9,
            "only {with_grad}/{} parameters received gradients",
            params.len()
        );
    }

    #[test]
    fn parameter_count_is_reasonable() {
        let unet = SpaceTimeUnet::new(DiffusionConfig::tiny());
        let n = unet.parameters().num_scalars();
        assert!(n > 1_000 && n < 200_000, "unexpected parameter count {n}");
        let _ = Tensor::zeros(&[1]);
    }
}
