//! The VAE-with-hyperprior model: encoder, decoder, hyper autoencoder and
//! the differentiable rate–distortion objective (paper Eq. 8).

use crate::config::VaeConfig;
use gld_nn::prelude::*;
use gld_tensor::{Tensor, TensorRng};

/// Scalar diagnostics of one rate–distortion evaluation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateDistortion {
    /// Mean squared reconstruction error.
    pub mse: f32,
    /// Estimated bits for the latent `y`.
    pub bits_y: f32,
    /// Estimated bits for the hyper-latent `z`.
    pub bits_z: f32,
    /// Bits per input value (total rate / pixels).
    pub bpp: f32,
}

/// The VAE with scale hyperprior.
pub struct Vae {
    config: VaeConfig,
    // Encoder: two stride-2 stages then a projection to the latent channels.
    enc1: Conv2d,
    enc_gn1: GroupNorm,
    enc2: Conv2d,
    enc_gn2: GroupNorm,
    enc3: Conv2d,
    // Decoder mirrors the encoder with nearest-neighbour upsampling.
    dec1: Conv2d,
    dec2: Conv2d,
    dec_gn1: GroupNorm,
    dec3: Conv2d,
    dec4: Conv2d,
    // Hyper autoencoder.
    henc1: Conv2d,
    henc2: Conv2d,
    hdec1: Conv2d,
    hdec2: Conv2d,
    /// Per-channel log-scale of the factorized prior over `z`.
    z_log_scale: Parameter,
}

impl Vae {
    /// Builds a model with freshly initialised weights.
    pub fn new(config: VaeConfig) -> Self {
        let mut rng = TensorRng::new(config.seed);
        let c = config.base_channels;
        let l = config.latent_channels;
        let hc = config.hyper_channels;
        Vae {
            config,
            enc1: Conv2d::new("vae.enc1", 1, c, 3, 2, 1, &mut rng),
            enc_gn1: GroupNorm::new("vae.enc_gn1", 1, c),
            enc2: Conv2d::new("vae.enc2", c, c, 3, 2, 1, &mut rng),
            enc_gn2: GroupNorm::new("vae.enc_gn2", 1, c),
            enc3: Conv2d::new("vae.enc3", c, l, 3, 1, 1, &mut rng),
            dec1: Conv2d::new("vae.dec1", l, c, 3, 1, 1, &mut rng),
            dec2: Conv2d::new("vae.dec2", c, c, 3, 1, 1, &mut rng),
            dec_gn1: GroupNorm::new("vae.dec_gn1", 1, c),
            dec3: Conv2d::new("vae.dec3", c, c, 3, 1, 1, &mut rng),
            dec4: Conv2d::new("vae.dec4", c, 1, 3, 1, 1, &mut rng),
            henc1: Conv2d::new("vae.henc1", l, hc, 3, 1, 1, &mut rng),
            henc2: Conv2d::new("vae.henc2", hc, hc, 3, 2, 1, &mut rng),
            hdec1: Conv2d::new("vae.hdec1", hc, hc, 3, 1, 1, &mut rng),
            hdec2: Conv2d::new("vae.hdec2", hc, 2 * l, 3, 1, 1, &mut rng),
            z_log_scale: Parameter::new("vae.z_log_scale", Tensor::zeros(&[hc])),
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &VaeConfig {
        &self.config
    }

    /// All trainable parameters.
    pub fn parameters(&self) -> ParameterSet {
        let mut set = ParameterSet::new();
        for layer in [
            &self.enc1,
            &self.enc2,
            &self.enc3,
            &self.dec1,
            &self.dec2,
            &self.dec3,
            &self.dec4,
            &self.henc1,
            &self.henc2,
            &self.hdec1,
            &self.hdec2,
        ] {
            set.extend(&layer.parameters());
        }
        set.extend(&self.enc_gn1.parameters());
        set.extend(&self.enc_gn2.parameters());
        set.extend(&self.dec_gn1.parameters());
        set.push(self.z_log_scale.clone());
        set
    }

    // ------------------------------------------------------------------
    // Forward pieces
    // ------------------------------------------------------------------

    /// Encodes frames `[B, 1, H, W]` into code-space latents
    /// `[B, L, H/4, W/4]` (already multiplied by the quantisation scale, so
    /// rounding to integers is the quantiser).
    pub fn encode(&self, tape: &Tape, x: &Var) -> Var {
        let h = self.enc1.forward(tape, x);
        let h = self.enc_gn1.forward(tape, &h).silu();
        let h = self.enc2.forward(tape, &h);
        let h = self.enc_gn2.forward(tape, &h).silu();
        let y = self.enc3.forward(tape, &h);
        y.scale(self.config.quant_scale)
    }

    /// Decodes code-space latents back to frames `[B, 1, H, W]`.
    pub fn decode(&self, tape: &Tape, y_code: &Var) -> Var {
        let y = y_code.scale(1.0 / self.config.quant_scale);
        let h = self.dec1.forward(tape, &y).silu();
        let h = h.upsample_nearest2d(2);
        let h = self.dec2.forward(tape, &h);
        let h = self.dec_gn1.forward(tape, &h).silu();
        let h = h.upsample_nearest2d(2);
        let h = self.dec3.forward(tape, &h).silu();
        self.dec4.forward(tape, &h)
    }

    /// Hyper-encodes code-space latents into the hyper-latent `z`
    /// (`[B, Ch, H/8, W/8]`).
    pub fn hyper_encode(&self, tape: &Tape, y_code: &Var) -> Var {
        let h = self.henc1.forward(tape, y_code).silu();
        self.henc2.forward(tape, &h)
    }

    /// Hyper-decodes `z` into per-element `(μ, σ)` for the latent.
    pub fn hyper_decode(&self, tape: &Tape, z: &Var) -> (Var, Var) {
        let h = self.hdec1.forward(tape, z).silu();
        let h = h.upsample_nearest2d(2);
        let out = self.hdec2.forward(tape, &h);
        let l = self.config.latent_channels;
        let mu = out.slice_axis(1, 0, l);
        let raw_sigma = out.slice_axis(1, l, 2 * l);
        // softplus + floor keeps σ positive and bounded away from zero.
        let sigma = softplus(&raw_sigma).add_scalar(0.05);
        (mu, sigma)
    }

    /// Per-channel scale of the factorized prior over `z`.
    pub fn z_scale(&self, tape: &Tape) -> Var {
        let log_scale = tape.param(&self.z_log_scale);
        softplus(&log_scale).add_scalar(0.05)
    }

    // ------------------------------------------------------------------
    // Training objective
    // ------------------------------------------------------------------

    /// Evaluates the rate–distortion loss (Eq. 8) on a batch of frames
    /// `[B, 1, H, W]`, using additive uniform noise as the differentiable
    /// quantisation surrogate.  Returns the scalar loss variable plus
    /// detached diagnostics.
    pub fn rd_loss(
        &self,
        tape: &Tape,
        frames: &Tensor,
        rng: &mut TensorRng,
    ) -> (Var, RateDistortion) {
        assert_eq!(frames.rank(), 4, "frames must be [B, 1, H, W]");
        let x = tape.constant(frames.clone());
        let y = self.encode(tape, &x);

        // Quantisation noise on y and z (straight-through surrogate).
        let y_dims = y.dims();
        let noise_y = tape.constant(rng.rand_uniform(&y_dims, -0.5, 0.5));
        let y_noisy = y.add(&noise_y);

        let z = self.hyper_encode(tape, &y);
        let z_dims = z.dims();
        let noise_z = tape.constant(rng.rand_uniform(&z_dims, -0.5, 0.5));
        let z_noisy = z.add(&noise_z);

        let (mu, sigma) = self.hyper_decode(tape, &z_noisy);
        let x_hat = self.decode(tape, &y_noisy);

        let mse = mse_loss(&x_hat, &x);
        let bits_y = gaussian_bits(&y_noisy, &mu, &sigma);
        // Factorized prior over z: zero-mean Gaussian with learnable
        // per-channel scale.
        let z_scale = self
            .z_scale(tape)
            .reshape(&[1, self.config.hyper_channels, 1, 1]);
        let zero = tape.constant(Tensor::zeros(&z_dims));
        let z_scale_full = z_scale.mul(&tape.constant(Tensor::ones(&z_dims)));
        let bits_z = gaussian_bits(&z_noisy, &zero, &z_scale_full);

        let pixels = frames.numel() as f32;
        let rate = bits_y.add(&bits_z).scale(1.0 / pixels);
        let loss = mse.add(&rate.scale(self.config.lambda));

        let report = RateDistortion {
            mse: mse.value().item(),
            bits_y: bits_y.value().item(),
            bits_z: bits_z.value().item(),
            bpp: (bits_y.value().item() + bits_z.value().item()) / pixels,
        };
        (loss, report)
    }

    // ------------------------------------------------------------------
    // Inference helpers (non-recording tapes: same forward code, no graph)
    // ------------------------------------------------------------------

    /// Encodes frames and rounds the latents to integers (the real
    /// quantiser), returning `[B, L, H/4, W/4]`.
    pub fn quantize_latent(&self, frames: &Tensor) -> Tensor {
        let tape = Tape::inference();
        let x = tape.constant(frames.clone());
        let mut y = self.encode(&tape, &x).value();
        y.round_inplace();
        y
    }

    /// Decodes (possibly generated) quantised latents back to frames.
    pub fn decode_latent(&self, y_quantized: &Tensor) -> Tensor {
        let tape = Tape::inference();
        let y = tape.constant(y_quantized.clone());
        self.decode(&tape, &y).value()
    }

    /// Quantises the hyper-latent for a given quantised latent.
    pub fn quantize_hyper(&self, y_quantized: &Tensor) -> Tensor {
        let tape = Tape::inference();
        let y = tape.constant(y_quantized.clone());
        let mut z = self.hyper_encode(&tape, &y).value();
        z.round_inplace();
        z
    }

    /// Predicts `(μ, σ)` for the latent from a quantised hyper-latent.
    pub fn predict_gaussian(&self, z_quantized: &Tensor) -> (Tensor, Tensor) {
        let tape = Tape::inference();
        let z = tape.constant(z_quantized.clone());
        let (mu, sigma) = self.hyper_decode(&tape, &z);
        (mu.value(), sigma.value())
    }

    /// Full non-coded round trip: encode, round, decode.  Useful for
    /// measuring pure transform distortion without entropy coding.
    pub fn reconstruct(&self, frames: &Tensor) -> Tensor {
        self.decode_latent(&self.quantize_latent(frames))
    }
}

/// Differentiable softplus: `ln(1 + eˣ)`.
fn softplus(x: &Var) -> Var {
    x.exp().add_scalar(1.0).ln()
}

/// Differentiable estimate of the total bits needed to code `y` under
/// element-wise `N(μ, σ²)` convolved with `U(−½, ½)` (paper Eq. 1–2), using
/// a logistic approximation of the normal CDF.
fn gaussian_bits(y: &Var, mu: &Var, sigma: &Var) -> Var {
    let centred = y.sub(mu);
    let upper = logistic_cdf(&centred.add_scalar(0.5).div(sigma));
    let lower = logistic_cdf(&centred.add_scalar(-0.5).div(sigma));
    let p = upper.sub(&lower).add_scalar(1e-7);
    p.ln().sum().scale(-1.0 / std::f32::consts::LN_2)
}

/// Logistic approximation of the standard normal CDF: `σ(1.702·x)`.
fn logistic_cdf(x: &Var) -> Var {
    x.scale(1.702).sigmoid()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gld_tensor::stats::mse as mse_t;

    fn frames(batch: usize) -> Tensor {
        let mut rng = TensorRng::new(3);
        // Smooth-ish frames in [-0.5, 0.5].
        rng.rand_uniform(&[batch, 1, 16, 16], -0.5, 0.5)
    }

    #[test]
    fn shapes_through_the_model() {
        let vae = Vae::new(VaeConfig::tiny());
        let x = frames(2);
        let tape = Tape::new();
        let xv = tape.constant(x.clone());
        let y = vae.encode(&tape, &xv);
        assert_eq!(y.dims(), vec![2, 3, 4, 4]);
        let z = vae.hyper_encode(&tape, &y);
        assert_eq!(z.dims(), vec![2, 3, 2, 2]);
        let (mu, sigma) = vae.hyper_decode(&tape, &z);
        assert_eq!(mu.dims(), y.dims());
        assert_eq!(sigma.dims(), y.dims());
        assert!(sigma.value().min() > 0.0);
        let xhat = vae.decode(&tape, &y);
        assert_eq!(xhat.dims(), vec![2, 1, 16, 16]);
    }

    #[test]
    fn parameter_set_covers_all_layers() {
        let vae = Vae::new(VaeConfig::tiny());
        let params = vae.parameters();
        // 11 convolutions (weight + bias), 3 group norms (gamma + beta), and
        // the factorized-prior scale.
        assert_eq!(params.len(), 11 * 2 + 3 * 2 + 1);
        assert!(params.num_scalars() > 500);
    }

    #[test]
    fn rd_loss_is_finite_and_backpropagates() {
        let vae = Vae::new(VaeConfig::tiny());
        let mut rng = TensorRng::new(1);
        let tape = Tape::new();
        let (loss, report) = vae.rd_loss(&tape, &frames(2), &mut rng);
        assert!(loss.value().item().is_finite());
        assert!(report.mse >= 0.0);
        assert!(report.bits_y > 0.0);
        assert!(report.bits_z > 0.0);
        loss.backward();
        assert!(vae.parameters().grad_norm() > 0.0);
    }

    #[test]
    fn quantized_roundtrip_runs_and_latents_are_integers() {
        let vae = Vae::new(VaeConfig::tiny());
        let x = frames(2);
        let y = vae.quantize_latent(&x);
        assert!(y.data().iter().all(|v| (v - v.round()).abs() < 1e-6));
        let recon = vae.reconstruct(&x);
        assert_eq!(recon.dims(), x.dims());
        assert!(recon.data().iter().all(|v| v.is_finite()));
        // Untrained reconstruction error is finite and bounded (sanity only).
        assert!(mse_t(&x, &recon).is_finite());
    }

    #[test]
    fn gaussian_bits_increase_with_distance_from_mean() {
        let tape = Tape::new();
        let mu = tape.constant(Tensor::zeros(&[4]));
        let sigma = tape.constant(Tensor::full(&[4], 1.0));
        let near = tape.constant(Tensor::from_vec(vec![0.0, 0.1, -0.2, 0.05], &[4]));
        let far = tape.constant(Tensor::from_vec(vec![5.0, -6.0, 7.0, -4.0], &[4]));
        let bits_near = gaussian_bits(&near, &mu, &sigma).value().item();
        let bits_far = gaussian_bits(&far, &mu, &sigma).value().item();
        assert!(bits_far > bits_near);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Vae::new(VaeConfig::tiny());
        let b = Vae::new(VaeConfig::tiny());
        let x = frames(1);
        assert_eq!(a.quantize_latent(&x), b.quantize_latent(&x));
    }
}
