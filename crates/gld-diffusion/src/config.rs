//! Diffusion model hyper-parameters.

/// Configuration of the conditional latent diffusion model.
///
/// The paper trains with 1000 denoising steps, 64 latent channels and
/// N = 16 frames on A100s; the defaults here keep the same structure at CPU
/// scale (the step count is configurable and swept by the Figure-5 bench).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiffusionConfig {
    /// Latent channels of the VAE (input/output channels of the UNet).
    pub latent_channels: usize,
    /// Width of the UNet's hidden representation.
    pub model_channels: usize,
    /// Attention heads for both temporal and spatial attention.
    pub heads: usize,
    /// Sinusoidal timestep-embedding dimension.
    pub time_embed_dim: usize,
    /// Number of forward-process steps T used for training.
    pub train_steps: usize,
    /// Random seed for weight initialisation.
    pub seed: u64,
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        DiffusionConfig {
            latent_channels: 4,
            model_channels: 16,
            heads: 2,
            time_embed_dim: 16,
            train_steps: 1000,
            seed: 0,
        }
    }
}

impl DiffusionConfig {
    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        DiffusionConfig {
            latent_channels: 3,
            model_channels: 8,
            heads: 2,
            time_embed_dim: 8,
            train_steps: 100,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_consistent() {
        let c = DiffusionConfig::default();
        assert!(c.model_channels % c.heads == 0);
        assert!(c.time_embed_dim % 2 == 0);
        assert_eq!(c.train_steps, 1000);
    }

    #[test]
    fn tiny_is_smaller() {
        assert!(DiffusionConfig::tiny().model_channels < DiffusionConfig::default().model_channels);
    }
}
