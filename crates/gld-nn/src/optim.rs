//! Optimizers and learning-rate schedules.

use crate::param::ParameterSet;
use gld_tensor::Tensor;

/// Learning-rate schedule evaluated per optimisation step.
#[derive(Clone, Debug)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant(f32),
    /// Multiplies the base rate by `factor` every `every` steps, matching the
    /// paper's "decays by a factor of 0.5 every 100K iterations".
    StepDecay {
        /// Base learning rate.
        base: f32,
        /// Number of steps between decays.
        every: usize,
        /// Multiplicative factor applied at each decay.
        factor: f32,
    },
    /// Linear warmup to `base` over `warmup` steps, then cosine decay to
    /// `final_lr` at `total` steps.
    WarmupCosine {
        /// Peak learning rate reached after warmup.
        base: f32,
        /// Warmup length in steps.
        warmup: usize,
        /// Total schedule length in steps.
        total: usize,
        /// Learning rate at the end of the schedule.
        final_lr: f32,
    },
}

impl LrSchedule {
    /// Learning rate at `step` (0-based).
    pub fn lr(&self, step: usize) -> f32 {
        match *self {
            LrSchedule::Constant(lr) => lr,
            LrSchedule::StepDecay {
                base,
                every,
                factor,
            } => {
                let decays = step.checked_div(every).unwrap_or(0) as i32;
                base * factor.powi(decays)
            }
            LrSchedule::WarmupCosine {
                base,
                warmup,
                total,
                final_lr,
            } => {
                if warmup > 0 && step < warmup {
                    base * (step as f32 + 1.0) / warmup as f32
                } else {
                    let progress = if total > warmup {
                        ((step - warmup) as f32 / (total - warmup) as f32).min(1.0)
                    } else {
                        1.0
                    };
                    let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress).cos());
                    final_lr + (base - final_lr) * cos
                }
            }
        }
    }
}

/// Plain stochastic gradient descent (used in tests and ablations).
pub struct Sgd {
    params: ParameterSet,
    schedule: LrSchedule,
    step: usize,
}

impl Sgd {
    /// Creates an SGD optimizer over the given parameters.
    pub fn new(params: ParameterSet, schedule: LrSchedule) -> Self {
        Sgd {
            params,
            schedule,
            step: 0,
        }
    }

    /// Applies one update from the accumulated gradients and clears them.
    pub fn step(&mut self) {
        let lr = self.schedule.lr(self.step);
        for p in self.params.iter() {
            let update = p.grad().scale(-lr);
            p.apply_update(&update);
        }
        self.params.zero_grad();
        self.step += 1;
    }

    /// Number of updates performed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }
}

/// Configuration for [`Adam`].
#[derive(Clone, Copy, Debug)]
pub struct AdamConfig {
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    /// Optional decoupled weight decay (AdamW style); 0 disables it.
    pub weight_decay: f32,
    /// Optional global gradient-norm clip; 0 disables it.
    pub grad_clip: f32,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.0,
            grad_clip: 0.0,
        }
    }
}

/// The Adam optimizer (Kingma & Ba), the workhorse for both training stages.
pub struct Adam {
    params: ParameterSet,
    schedule: LrSchedule,
    config: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    step: usize,
}

impl Adam {
    /// Creates an Adam optimizer over the given parameters.
    pub fn new(params: ParameterSet, schedule: LrSchedule, config: AdamConfig) -> Self {
        let m = params
            .iter()
            .map(|p| Tensor::zeros(p.value().dims()))
            .collect();
        let v = params
            .iter()
            .map(|p| Tensor::zeros(p.value().dims()))
            .collect();
        Adam {
            params,
            schedule,
            config,
            m,
            v,
            step: 0,
        }
    }

    /// Number of updates performed so far.
    pub fn steps_taken(&self) -> usize {
        self.step
    }

    /// Applies one Adam update from the accumulated gradients and clears
    /// them.
    pub fn step(&mut self) {
        if self.config.grad_clip > 0.0 {
            self.params.clip_grad_norm(self.config.grad_clip);
        }
        let lr = self.schedule.lr(self.step);
        let t = (self.step + 1) as i32;
        let bias1 = 1.0 - self.config.beta1.powi(t);
        let bias2 = 1.0 - self.config.beta2.powi(t);
        for (i, p) in self.params.iter().enumerate() {
            let mut g = p.grad();
            if self.config.weight_decay > 0.0 {
                g = g.add(&p.value().scale(self.config.weight_decay));
            }
            // m = β1 m + (1-β1) g ;  v = β2 v + (1-β2) g²
            self.m[i] = self.m[i]
                .scale(self.config.beta1)
                .add(&g.scale(1.0 - self.config.beta1));
            self.v[i] = self.v[i]
                .scale(self.config.beta2)
                .add(&g.square().scale(1.0 - self.config.beta2));
            let m_hat = self.m[i].scale(1.0 / bias1);
            let v_hat = self.v[i].scale(1.0 / bias2);
            let eps = self.config.eps;
            let denom = v_hat.map(move |x| x.sqrt() + eps);
            let update = m_hat.div(&denom).scale(-lr);
            p.apply_update(&update);
        }
        self.params.zero_grad();
        self.step += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse_loss;
    use crate::param::Parameter;
    use crate::tape::Tape;
    use gld_tensor::{Tensor, TensorRng};

    #[test]
    fn constant_and_step_decay_schedules() {
        let c = LrSchedule::Constant(0.1);
        assert_eq!(c.lr(0), 0.1);
        assert_eq!(c.lr(1000), 0.1);
        let s = LrSchedule::StepDecay {
            base: 1.0,
            every: 10,
            factor: 0.5,
        };
        assert_eq!(s.lr(0), 1.0);
        assert_eq!(s.lr(9), 1.0);
        assert_eq!(s.lr(10), 0.5);
        assert_eq!(s.lr(25), 0.25);
    }

    #[test]
    fn warmup_cosine_shape() {
        let s = LrSchedule::WarmupCosine {
            base: 1.0,
            warmup: 10,
            total: 110,
            final_lr: 0.1,
        };
        assert!(s.lr(0) < 0.2);
        assert!((s.lr(9) - 1.0).abs() < 1e-6);
        assert!(s.lr(60) < 1.0 && s.lr(60) > 0.1);
        assert!((s.lr(110) - 0.1).abs() < 1e-3);
        assert!((s.lr(10_000) - 0.1).abs() < 1e-3);
    }

    #[test]
    fn sgd_minimises_quadratic() {
        let p = Parameter::new("x", Tensor::from_vec(vec![5.0, -3.0], &[2]));
        let set: ParameterSet = [p.clone()].into_iter().collect();
        let mut opt = Sgd::new(set, LrSchedule::Constant(0.1));
        for _ in 0..200 {
            let tape = Tape::new();
            let x = tape.param(&p);
            let target = tape.constant(Tensor::from_vec(vec![1.0, 2.0], &[2]));
            let loss = mse_loss(&x, &target);
            loss.backward();
            opt.step();
        }
        let v = p.value();
        assert!((v.data()[0] - 1.0).abs() < 1e-2);
        assert!((v.data()[1] - 2.0).abs() < 1e-2);
    }

    #[test]
    fn adam_minimises_quadratic_faster_than_sgd_with_small_lr() {
        let target_vec = vec![0.5, -1.5, 2.0];
        let make_loss = |p: &Parameter| {
            let tape = Tape::new();
            let x = tape.param(p);
            let t = tape.constant(Tensor::from_vec(target_vec.clone(), &[3]));
            mse_loss(&x, &t)
        };
        let run = |adam: bool| -> f32 {
            let p = Parameter::new("x", Tensor::from_vec(vec![10.0, 10.0, 10.0], &[3]));
            let set: ParameterSet = [p.clone()].into_iter().collect();
            let mut adam_opt = Adam::new(
                set.clone(),
                LrSchedule::Constant(0.1),
                AdamConfig::default(),
            );
            let mut sgd_opt = Sgd::new(set, LrSchedule::Constant(0.001));
            for _ in 0..500 {
                let loss = make_loss(&p);
                loss.backward();
                if adam {
                    adam_opt.step();
                } else {
                    sgd_opt.step();
                }
            }
            make_loss(&p).value().item()
        };
        let adam_loss = run(true);
        let sgd_loss = run(false);
        assert!(adam_loss < sgd_loss, "adam {adam_loss} vs sgd {sgd_loss}");
        assert!(adam_loss < 1e-2);
    }

    #[test]
    fn adam_trains_a_small_network_to_fit_data() {
        // One hidden layer fitting y = 2x on a handful of points.
        let mut rng = TensorRng::new(0);
        let lin1 = crate::layers::Linear::new("l1", 1, 8, true, &mut rng);
        let lin2 = crate::layers::Linear::new("l2", 8, 1, true, &mut rng);
        let mut params = lin1.parameters();
        params.extend(&lin2.parameters());
        let mut opt = Adam::new(params, LrSchedule::Constant(0.02), AdamConfig::default());
        let xs = Tensor::from_vec(vec![-1.0, -0.5, 0.0, 0.5, 1.0], &[5, 1]);
        let ys = xs.scale(2.0);
        let mut final_loss = f32::MAX;
        for _ in 0..400 {
            let tape = Tape::new();
            let x = tape.constant(xs.clone());
            let y = tape.constant(ys.clone());
            let h = lin1.forward(&tape, &x).silu();
            let pred = lin2.forward(&tape, &h);
            let loss = mse_loss(&pred, &y);
            final_loss = loss.value().item();
            loss.backward();
            opt.step();
        }
        assert!(
            final_loss < 1e-2,
            "network failed to fit: loss {final_loss}"
        );
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let p = Parameter::new("x", Tensor::from_vec(vec![10.0], &[1]));
        let set: ParameterSet = [p.clone()].into_iter().collect();
        let cfg = AdamConfig {
            weight_decay: 0.1,
            ..AdamConfig::default()
        };
        let mut opt = Adam::new(set, LrSchedule::Constant(0.1), cfg);
        for _ in 0..50 {
            // Zero data gradient: only weight decay acts.
            let tape = Tape::new();
            let x = tape.param(&p);
            let loss = x.sub(&x).square().mean();
            loss.backward();
            opt.step();
        }
        assert!(p.value().data()[0].abs() < 10.0);
    }
}
