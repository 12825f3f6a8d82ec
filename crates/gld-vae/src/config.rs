//! VAE / hyperprior hyper-parameters.

/// Configuration of the VAE-with-hyperprior model.
///
/// The defaults are scaled down from the paper's A100-sized model (latent
/// channels 64, 256×256 crops, 500K iterations) to something a single CPU
/// core can train in seconds while keeping every architectural ingredient:
/// strided convolutions, group normalisation, a hyperprior with its own
/// autoencoder, and the rate–distortion objective.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VaeConfig {
    /// Channels in the intermediate convolution stages.
    pub base_channels: usize,
    /// Channels of the latent representation `y` (the paper uses 64).
    pub latent_channels: usize,
    /// Channels of the hyper-latent `z`.
    pub hyper_channels: usize,
    /// Total spatial downsampling factor of the encoder (must be 4 here:
    /// two stride-2 convolutions).
    pub downsample: usize,
    /// Rate–distortion trade-off λ in Eq. 8.
    pub lambda: f32,
    /// Scale applied to latents before rounding; larger values preserve more
    /// detail at a higher bit-rate (the knob the rate sweep uses alongside
    /// λ).
    pub quant_scale: f32,
    /// Random seed for weight initialisation.
    pub seed: u64,
}

impl Default for VaeConfig {
    fn default() -> Self {
        VaeConfig {
            base_channels: 12,
            latent_channels: 4,
            hyper_channels: 4,
            downsample: 4,
            lambda: 2e-3,
            quant_scale: 16.0,
            seed: 0,
        }
    }
}

impl VaeConfig {
    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        VaeConfig {
            base_channels: 6,
            latent_channels: 3,
            hyper_channels: 3,
            ..Default::default()
        }
    }

    /// Latent spatial size for a given input frame size.
    pub fn latent_size(&self, h: usize, w: usize) -> (usize, usize) {
        assert!(
            h.is_multiple_of(self.downsample) && w.is_multiple_of(self.downsample),
            "frame {h}x{w} must be divisible by the downsample factor {}",
            self.downsample
        );
        (h / self.downsample, w / self.downsample)
    }

    /// Number of latent values per frame of the given size.
    pub fn latent_numel(&self, h: usize, w: usize) -> usize {
        let (lh, lw) = self.latent_size(h, w);
        lh * lw * self.latent_channels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latent_geometry() {
        let cfg = VaeConfig::default();
        assert_eq!(cfg.latent_size(16, 32), (4, 8));
        assert_eq!(cfg.latent_numel(16, 16), 4 * 4 * cfg.latent_channels);
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn rejects_indivisible_frames() {
        VaeConfig::default().latent_size(10, 16);
    }

    #[test]
    fn tiny_is_smaller_than_default() {
        assert!(VaeConfig::tiny().base_channels < VaeConfig::default().base_channels);
    }
}
