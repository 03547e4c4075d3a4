//! The optimizer: SGD with momentum and gradient-norm scaling.
//!
//! The paper trains with stochastic gradient descent and "scales the
//! norm of the gradient" to combat exploding gradients (Section VI-A);
//! [`Sgd`] implements exactly that, and it is the only optimizer.

use crate::Parameterized;

/// Stochastic gradient descent with momentum and global-norm clipping.
#[derive(Debug, Clone)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
    /// Momentum coefficient (0 disables).
    pub momentum: f32,
    /// If set, the global gradient norm is scaled down to this value
    /// when it exceeds it.
    pub clip_norm: Option<f32>,
    /// Decoupled L2 weight decay applied at each step (0 disables).
    pub weight_decay: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`, `momentum < 0` or `clip_norm <= 0`.
    pub fn new(lr: f32, momentum: f32, clip_norm: Option<f32>) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        assert!(momentum >= 0.0, "momentum must be non-negative");
        if let Some(c) = clip_norm {
            assert!(c > 0.0, "clip_norm must be positive");
        }
        Sgd {
            lr,
            momentum,
            clip_norm,
            weight_decay: 0.0,
            velocity: Vec::new(),
        }
    }

    /// Sets decoupled weight decay, returning `self` for chaining.
    pub fn with_weight_decay(mut self, weight_decay: f32) -> Self {
        assert!(weight_decay >= 0.0, "weight decay must be non-negative");
        self.weight_decay = weight_decay;
        self
    }

    /// Applies one update. `grad_scale` multiplies every gradient first
    /// (use `1/batch_size` for mean-of-sum gradients). Gradients are
    /// left untouched; call [`Parameterized::zero_grad`] before the
    /// next accumulation.
    pub fn step(&mut self, model: &mut dyn Parameterized, grad_scale: f32) {
        // Global norm after scaling.
        let mut norm_sq = 0.0f32;
        model.visit_params(&mut |_, g| {
            norm_sq += g.iter().map(|v| v * grad_scale).map(|v| v * v).sum::<f32>();
        });
        let norm = norm_sq.sqrt();
        let clip_scale = match self.clip_norm {
            Some(c) if norm > c => c / norm,
            _ => 1.0,
        };
        let eff = grad_scale * clip_scale;

        if self.velocity.is_empty() {
            model.visit_params(&mut |p, _| self.velocity.push(vec![0.0; p.len()]));
        }
        let mut idx = 0;
        let lr = self.lr;
        let mu = self.momentum;
        let wd = self.weight_decay;
        let velocity = &mut self.velocity;
        model.visit_params(&mut |p, g| {
            let v = &mut velocity[idx];
            assert_eq!(v.len(), p.len(), "optimizer bound to a different model");
            let shrink = 1.0 - lr * wd;
            for i in 0..p.len() {
                v[i] = mu * v[i] + g[i] * eff;
                p[i] = p[i] * shrink - lr * v[i];
            }
            idx += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Sequential};

    /// Minimises ‖Wx − y‖² for a fixed (x, y) pair.
    fn toy_problem() -> (Sequential, Vec<f32>, Vec<f32>) {
        let model = Sequential::new(vec![Layer::dense(2, 2, 42)]);
        (model, vec![1.0, -0.5], vec![0.3, 0.7])
    }

    fn loss_and_grads(model: &mut Sequential, x: &[f32], y: &[f32]) -> f32 {
        let cache = model.forward_cached(x);
        let grad: Vec<f32> = cache.output.iter().zip(y).map(|(o, t)| o - t).collect();
        let loss: f32 = grad.iter().map(|g| g * g * 0.5).sum();
        model.backward(&cache, &grad);
        loss
    }

    #[test]
    fn sgd_descends() {
        let (mut model, x, y) = toy_problem();
        let mut opt = Sgd::new(0.1, 0.0, None);
        let mut last = f32::INFINITY;
        for _ in 0..50 {
            model.zero_grad();
            let loss = loss_and_grads(&mut model, &x, &y);
            assert!(loss <= last + 1e-6, "loss increased: {loss} > {last}");
            last = loss;
            opt.step(&mut model, 1.0);
        }
        assert!(last < 1e-3, "did not converge: {last}");
    }

    #[test]
    fn momentum_accelerates() {
        let (mut plain_model, x, y) = toy_problem();
        let mut momentum_model = plain_model.clone();
        let mut plain = Sgd::new(0.02, 0.0, None);
        let mut with_mu = Sgd::new(0.02, 0.9, None);
        let mut plain_loss = 0.0;
        let mut mu_loss = 0.0;
        for _ in 0..30 {
            plain_model.zero_grad();
            plain_loss = loss_and_grads(&mut plain_model, &x, &y);
            plain.step(&mut plain_model, 1.0);
            momentum_model.zero_grad();
            mu_loss = loss_and_grads(&mut momentum_model, &x, &y);
            with_mu.step(&mut momentum_model, 1.0);
        }
        assert!(
            mu_loss < plain_loss,
            "momentum {mu_loss} vs plain {plain_loss}"
        );
    }

    #[test]
    fn clipping_limits_update_size() {
        let (mut model, _, _) = toy_problem();
        // Inject a huge gradient.
        model.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 1e6));
        let before: Vec<f32> = {
            let mut vals = Vec::new();
            model.visit_params(&mut |p, _| vals.extend_from_slice(p));
            vals
        };
        let mut opt = Sgd::new(0.1, 0.0, Some(1.0));
        opt.step(&mut model, 1.0);
        let mut after = Vec::new();
        model.visit_params(&mut |p, _| after.extend_from_slice(p));
        let step_norm: f32 = before
            .iter()
            .zip(&after)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        // ‖update‖ = lr · clip = 0.1.
        assert!((step_norm - 0.1).abs() < 1e-4, "step norm {step_norm}");
    }

    #[test]
    #[should_panic(expected = "learning rate")]
    fn rejects_zero_lr() {
        Sgd::new(0.0, 0.0, None);
    }

    #[test]
    fn grad_scale_averages_batch() {
        let (mut a, x, y) = toy_problem();
        let mut b = a.clone();
        // Model a: one sample, scale 1. Model b: same sample twice, scale 0.5.
        let mut opt_a = Sgd::new(0.1, 0.0, None);
        let mut opt_b = Sgd::new(0.1, 0.0, None);
        a.zero_grad();
        loss_and_grads(&mut a, &x, &y);
        opt_a.step(&mut a, 1.0);
        b.zero_grad();
        loss_and_grads(&mut b, &x, &y);
        loss_and_grads(&mut b, &x, &y);
        opt_b.step(&mut b, 0.5);
        let mut pa = Vec::new();
        a.visit_params(&mut |p, _| pa.extend_from_slice(p));
        let mut pb = Vec::new();
        b.visit_params(&mut |p, _| pb.extend_from_slice(p));
        for (u, v) in pa.iter().zip(&pb) {
            assert!((u - v).abs() < 1e-6);
        }
    }
}
