//! Forward-process noise schedules (paper Eq. 3–4) and respacing for
//! few-step sampling.

use gld_tensor::{Tensor, TensorRng};

/// A discrete diffusion noise schedule: β_t, α_t = 1 − β_t and the cumulative
/// products ᾱ_t.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseSchedule {
    betas: Vec<f32>,
    alpha_bars: Vec<f32>,
}

impl NoiseSchedule {
    /// Linear β schedule from `1e-4` to `0.02` (the DDPM default), scaled to
    /// `steps` so that the endpoint noise level is comparable across step
    /// counts.
    pub fn linear(steps: usize) -> Self {
        assert!(steps >= 1, "schedule needs at least one step");
        let scale = 1000.0 / steps as f32;
        let beta_start = (1e-4 * scale).min(0.5);
        let beta_end = (0.02 * scale).min(0.999);
        let betas: Vec<f32> = (0..steps)
            .map(|i| {
                if steps == 1 {
                    beta_end
                } else {
                    beta_start + (beta_end - beta_start) * i as f32 / (steps as f32 - 1.0)
                }
            })
            .collect();
        Self::from_betas(betas)
    }

    /// Cosine schedule (Nichol & Dhariwal), numerically clamped.
    pub fn cosine(steps: usize) -> Self {
        assert!(steps >= 1, "schedule needs at least one step");
        let s = 0.008f32;
        let f = |t: f32| {
            ((t + s) / (1.0 + s) * std::f32::consts::FRAC_PI_2)
                .cos()
                .powi(2)
        };
        let mut betas = Vec::with_capacity(steps);
        for i in 0..steps {
            let t0 = i as f32 / steps as f32;
            let t1 = (i + 1) as f32 / steps as f32;
            let beta = (1.0 - f(t1) / f(t0)).clamp(1e-5, 0.999);
            betas.push(beta);
        }
        Self::from_betas(betas)
    }

    /// Builds a schedule from explicit βs.
    pub fn from_betas(betas: Vec<f32>) -> Self {
        assert!(!betas.is_empty(), "empty schedule");
        let mut alpha_bars = Vec::with_capacity(betas.len());
        let mut prod = 1.0f32;
        for &b in &betas {
            assert!(b > 0.0 && b < 1.0, "beta {b} outside (0, 1)");
            prod *= 1.0 - b;
            alpha_bars.push(prod);
        }
        NoiseSchedule { betas, alpha_bars }
    }

    /// Number of steps T.
    pub fn steps(&self) -> usize {
        self.betas.len()
    }

    /// β_t for `t ∈ [0, T)`.
    pub fn beta(&self, t: usize) -> f32 {
        self.betas[t]
    }

    /// ᾱ_t (cumulative product of 1 − β).
    pub fn alpha_bar(&self, t: usize) -> f32 {
        self.alpha_bars[t]
    }

    /// Draws `y_t ~ q(y_t | y_0)` (Eq. 4) and returns `(y_t, ε)`.
    pub fn add_noise(&self, y0: &Tensor, t: usize, rng: &mut TensorRng) -> (Tensor, Tensor) {
        let eps = rng.randn(y0.dims());
        let ab = self.alpha_bar(t);
        let y_t = y0.scale(ab.sqrt()).add(&eps.scale((1.0 - ab).sqrt()));
        (y_t, eps)
    }

    /// Recovers the `y_0` estimate from `y_t` and a noise prediction.
    pub fn predict_y0(&self, y_t: &Tensor, eps_hat: &Tensor, t: usize) -> Tensor {
        let ab = self.alpha_bar(t);
        y_t.sub(&eps_hat.scale((1.0 - ab).sqrt()))
            .scale(1.0 / ab.sqrt())
    }

    /// Deterministic DDIM step from timestep `t` to `t_prev`
    /// (`t_prev < t`; pass `None` for the final step to 0 noise).
    pub fn ddim_step(
        &self,
        y_t: &Tensor,
        eps_hat: &Tensor,
        t: usize,
        t_prev: Option<usize>,
    ) -> Tensor {
        let mut y0 = self.predict_y0(y_t, eps_hat, t);
        y0.clamp_inplace(-3.0, 3.0);
        match t_prev {
            Some(tp) => {
                let ab_prev = self.alpha_bar(tp);
                y0.scale(ab_prev.sqrt())
                    .add(&eps_hat.scale((1.0 - ab_prev).sqrt()))
            }
            None => y0,
        }
    }

    /// Subsamples `count` timesteps from T−1 down to 0 (inclusive), evenly
    /// spaced — the respacing used for few-step sampling and fine-tuning.
    pub fn respaced_timesteps(&self, count: usize) -> Vec<usize> {
        let t = self.steps();
        let count = count.clamp(1, t);
        if count == 1 {
            return vec![t - 1];
        }
        let mut steps: Vec<usize> = (0..count)
            .map(|i| {
                let frac = i as f32 / (count as f32 - 1.0);
                ((1.0 - frac) * (t as f32 - 1.0)).round() as usize
            })
            .collect();
        steps.dedup();
        steps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_schedule_monotone_alpha_bar() {
        let s = NoiseSchedule::linear(100);
        assert_eq!(s.steps(), 100);
        for t in 1..100 {
            assert!(s.alpha_bar(t) < s.alpha_bar(t - 1));
        }
        assert!(s.alpha_bar(0) > 0.99);
        assert!(s.alpha_bar(99) < 0.2);
    }

    #[test]
    fn cosine_schedule_valid() {
        let s = NoiseSchedule::cosine(50);
        for t in 0..50 {
            assert!(s.beta(t) > 0.0 && s.beta(t) < 1.0);
        }
        assert!(s.alpha_bar(49) < s.alpha_bar(0));
    }

    #[test]
    fn endpoint_noise_similar_across_step_counts() {
        // Scaling βs with T keeps the final ᾱ in the same ballpark, which is
        // what lets a model fine-tuned with fewer steps reuse its weights.
        let long = NoiseSchedule::linear(1000);
        let short = NoiseSchedule::linear(32);
        let a = long.alpha_bar(999);
        let b = short.alpha_bar(31);
        assert!((a - b).abs() < 0.05, "final alpha_bar {a} vs {b}");
    }

    #[test]
    fn add_noise_statistics() {
        let mut rng = TensorRng::new(0);
        let s = NoiseSchedule::linear(100);
        let y0 = Tensor::zeros(&[1000]);
        let (y_t, _) = s.add_noise(&y0, 99, &mut rng);
        // With y0 = 0 the variance of y_t is 1 − ᾱ_t.
        let expected = 1.0 - s.alpha_bar(99);
        assert!((y_t.variance() - expected).abs() < 0.1);
    }

    #[test]
    fn predict_y0_inverts_add_noise_given_true_eps() {
        let mut rng = TensorRng::new(1);
        let s = NoiseSchedule::linear(200);
        let y0 = rng.randn(&[4, 3, 2, 2]);
        for &t in &[0usize, 50, 150, 199] {
            let (y_t, eps) = s.add_noise(&y0, t, &mut rng);
            let rec = s.predict_y0(&y_t, &eps, t);
            let err = rec.sub(&y0).abs().max();
            assert!(err < 1e-3, "t={t} err={err}");
        }
    }

    #[test]
    fn ddim_step_with_true_noise_moves_towards_y0() {
        let mut rng = TensorRng::new(2);
        let s = NoiseSchedule::linear(100);
        let y0 = rng.randn(&[2, 3, 2, 2]).clamp(-2.0, 2.0);
        let (y_t, eps) = s.add_noise(&y0, 99, &mut rng);
        let y_prev = s.ddim_step(&y_t, &eps, 99, Some(50));
        let before = y_t.sub(&y0).l2_norm();
        let after = y_prev.sub(&y0).l2_norm();
        assert!(
            after < before,
            "DDIM step did not denoise: {after} vs {before}"
        );
        let y_final = s.ddim_step(&y_t, &eps, 99, None);
        assert!(y_final.sub(&y0).abs().max() < 1e-2);
    }

    #[test]
    fn respacing_covers_endpoints_and_is_decreasing() {
        let s = NoiseSchedule::linear(1000);
        for &k in &[1usize, 2, 8, 32, 128, 1000] {
            let ts = s.respaced_timesteps(k);
            assert!(ts.len() <= k);
            assert_eq!(*ts.first().unwrap(), 999);
            if k > 1 {
                assert_eq!(*ts.last().unwrap(), 0);
            }
            for w in ts.windows(2) {
                assert!(w[0] > w[1], "timesteps not strictly decreasing: {ts:?}");
            }
        }
    }
}
