//! # m2ai-nn — a from-scratch neural-network engine
//!
//! The paper trains its CNN+LSTM engine in Keras/TensorFlow on GPUs; no
//! mature Rust equivalent is assumed here, so this crate implements the
//! required machinery directly:
//!
//! * [`layers`] — `Dense`, `Conv1d`, `ReLU` and a two-branch merge
//!   (pseudospectrum conv branch + periodogram dense branch, Fig. 6),
//!   composed by [`layers::Sequential`];
//! * [`lstm`] — single and stacked LSTM layers with full
//!   backpropagation-through-time;
//! * [`model`] — [`model::SequenceClassifier`], the CNN→LSTM→softmax
//!   topology with a per-frame softmax head (Section IV-C);
//! * [`loss`] — softmax cross-entropy (Eq. 17);
//! * [`optim`] — SGD with momentum and gradient-norm scaling (the
//!   paper's anti-exploding-gradient measure), the only optimizer;
//! * [`train`] — minibatch training with multi-threaded data-parallel
//!   gradient evaluation, dataset splitting, early metrics;
//! * [`metrics`] — accuracy and confusion matrices (Table I);
//! * [`serialize`] — a small self-describing binary checkpoint format;
//! * [`error`] — typed errors for data-dependent failures (empty
//!   sequences, non-finite outputs), backing the graceful-degradation
//!   contract of the streaming pipeline.
//!
//! Every differentiable component is validated against numerical
//! gradients in its unit tests.
//!
//! # Example
//!
//! ```
//! use m2ai_nn::layers::{Dense, Layer, Sequential};
//! use m2ai_nn::lstm::LstmStack;
//! use m2ai_nn::model::SequenceClassifier;
//!
//! // Tiny model: 8-dim frames -> 4 hidden -> 3 classes.
//! let encoder = Sequential::new(vec![
//!     Layer::dense(8, 4, 1),
//!     Layer::relu(),
//! ]);
//! let lstm = LstmStack::new(4, &[4], 2);
//! let mut model = SequenceClassifier::new(encoder, lstm, 3, 3);
//! let frames = vec![vec![0.1; 8]; 5];
//! let probs = model.predict_proba(&frames);
//! assert_eq!(probs.len(), 3);
//! assert!((probs.iter().sum::<f32>() - 1.0).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod init;
pub mod layers;
pub mod loss;
pub mod lstm;
pub mod metrics;
pub mod model;
pub mod optim;
pub mod serialize;
pub mod train;

/// Visitor over a component's trainable parameters and their gradients.
///
/// Optimizers and the data-parallel trainer use this to walk every
/// `(parameter, gradient)` pair of a model without knowing its
/// structure.
pub trait Parameterized {
    /// Calls `f(params, grads)` for every parameter block.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut [f32], &mut [f32]));

    /// Sets every gradient to zero.
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 0.0));
    }

    /// Total number of trainable scalars.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// Euclidean norm of the full gradient vector.
    fn grad_norm(&mut self) -> f32 {
        let mut s = 0.0f32;
        self.visit_params(&mut |_, g| s += g.iter().map(|v| v * v).sum::<f32>());
        s.sqrt()
    }

    /// Adds `other`'s gradients into this component's gradients.
    ///
    /// Both components must have identical structure (e.g. clones of
    /// the same model) — used to reduce data-parallel shards.
    fn accumulate_grads_from(&mut self, other: &mut dyn Parameterized) {
        let mut theirs: Vec<Vec<f32>> = Vec::new();
        other.visit_params(&mut |_, g| theirs.push(g.to_vec()));
        let mut i = 0;
        self.visit_params(&mut |_, g| {
            for (a, b) in g.iter_mut().zip(&theirs[i]) {
                *a += *b;
            }
            i += 1;
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Layer, Sequential};

    #[test]
    fn zero_grad_and_param_count() {
        let mut seq = Sequential::new(vec![Layer::dense(3, 2, 0)]);
        assert_eq!(seq.param_count(), 3 * 2 + 2);
        seq.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 1.0));
        assert!(seq.grad_norm() > 0.0);
        seq.zero_grad();
        assert_eq!(seq.grad_norm(), 0.0);
    }

    #[test]
    fn accumulate_grads() {
        let mut a = Sequential::new(vec![Layer::Dense(Dense::new(2, 2, 1))]);
        let mut b = a.clone();
        b.visit_params(&mut |_, g| g.iter_mut().for_each(|v| *v = 2.0));
        a.accumulate_grads_from(&mut b);
        let mut total = 0.0;
        a.visit_params(&mut |_, g| total += g.iter().sum::<f32>());
        assert_eq!(total, 2.0 * (2 * 2 + 2) as f32);
    }
}
