//! Training loop with data-parallel gradient evaluation.
//!
//! The paper trains for 100 epochs of SGD with gradient-norm scaling on
//! an 80/20 split (Section VI-A). [`fit`] reproduces that regime on the
//! CPU, splitting each minibatch across worker threads: every thread
//! clones the model, accumulates gradients over its shard, and the
//! shards are reduced into the main model before the optimizer step —
//! numerically identical to serial training (up to float association).

use crate::metrics::ConfusionMatrix;
use crate::model::SequenceClassifier;
use crate::optim::Sgd;
use crate::serialize::{load_params, save_params};
use crate::Parameterized;
use m2ai_kernels::KernelScratch;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// One labelled training sample: a frame sequence and its class.
pub type Sample = (Vec<Vec<f32>>, usize);

/// Training counters (epochs, skipped batches, rollbacks), resolved
/// once per process.
fn fit_counters() -> &'static (m2ai_obs::Counter, m2ai_obs::Counter, m2ai_obs::Counter) {
    static C: std::sync::OnceLock<(m2ai_obs::Counter, m2ai_obs::Counter, m2ai_obs::Counter)> =
        std::sync::OnceLock::new();
    C.get_or_init(|| {
        (
            m2ai_obs::counter(
                "m2ai_nn_fit_epochs_total",
                "training epochs completed by fit()",
                &[],
            ),
            m2ai_obs::counter(
                "m2ai_nn_batches_skipped_total",
                "minibatches skipped for non-finite loss or gradients",
                &[],
            ),
            m2ai_obs::counter(
                "m2ai_nn_rollbacks_total",
                "parameter rollbacks to the last healthy checkpoint",
                &[],
            ),
        )
    })
}

/// Training hyper-parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Number of passes over the training set (paper: 100).
    pub epochs: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// SGD momentum.
    pub momentum: f32,
    /// Global gradient-norm ceiling (the paper's norm scaling).
    pub clip_norm: Option<f32>,
    /// Minibatch size.
    pub batch_size: usize,
    /// Worker threads for gradient evaluation (1 = serial).
    pub n_threads: usize,
    /// Per-epoch learning-rate multiplier (1.0 = constant; 0.985 over
    /// 150 epochs ≈ ×0.1) — tames late-training loss spikes.
    pub lr_decay: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    /// Shuffling seed.
    pub seed: u64,
    /// Print a progress line every `n` epochs (`0` = silent).
    pub log_every: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 100,
            lr: 0.05,
            momentum: 0.9,
            clip_norm: Some(5.0),
            batch_size: 16,
            n_threads: 4,
            lr_decay: 1.0,
            weight_decay: 0.0,
            seed: 7,
            log_every: 0,
        }
    }
}

/// Per-epoch training trace returned by [`fit`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Mean training loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Minibatches skipped because their loss or gradients were
    /// non-finite (each skip rolls the model back to the last healthy
    /// checkpoint).
    pub skipped_batches: usize,
}

impl TrainReport {
    /// Loss of the final epoch (`None` when no epochs ran).
    pub fn final_loss(&self) -> Option<f32> {
        self.epoch_losses.last().copied()
    }
}

/// `true` if every parameter value of `model` is finite.
fn params_finite(model: &mut SequenceClassifier) -> bool {
    let mut ok = true;
    model.visit_params(&mut |p, _| ok &= p.iter().all(|v| v.is_finite()));
    ok
}

/// `true` if every gradient value of `model` is finite.
fn grads_finite(model: &mut SequenceClassifier) -> bool {
    let mut ok = true;
    model.visit_params(&mut |_, g| ok &= g.iter().all(|v| v.is_finite()));
    ok
}

/// Trains `model` on `data` in place.
///
/// Non-finite minibatches (NaN/Inf loss or gradients — e.g. corrupted
/// frames that slipped past upstream sanitisation, or a transient
/// blow-up) are *skipped*: the optimizer step is withheld, the model is
/// rolled back to the last healthy checkpoint (via the serialize path),
/// and the skip is counted in [`TrainReport::skipped_batches`].
/// Momentum state is intentionally not rolled back — it decays on its
/// own and re-snapshotting it per batch would double memory traffic.
/// On clean data the loop is bit-identical to the unguarded one.
///
/// # Panics
///
/// Panics if `data` is empty, any sample has no frames, or a label is
/// out of range.
pub fn fit(model: &mut SequenceClassifier, data: &[Sample], cfg: &TrainConfig) -> TrainReport {
    assert!(!data.is_empty(), "training set must not be empty");
    for (frames, label) in data {
        assert!(!frames.is_empty(), "sample with no frames");
        assert!(*label < model.n_classes(), "label out of range");
    }
    let mut opt = Sgd::new(cfg.lr, cfg.momentum, cfg.clip_norm).with_weight_decay(cfg.weight_decay);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut order: Vec<usize> = (0..data.len()).collect();
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    let threads = cfg.n_threads.max(1);
    let mut checkpoint = save_params(model);
    let mut skipped_batches = 0usize;
    // One scratch arena for the whole serial training run: im2col,
    // gate and packing buffers are allocated once and reused across
    // every sample of every epoch.
    let mut scratch = KernelScratch::new();

    for epoch in 0..cfg.epochs {
        opt.lr = cfg.lr * cfg.lr_decay.powi(epoch as i32);
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut used_samples = 0usize;
        for batch in order.chunks(cfg.batch_size.max(1)) {
            model.zero_grad();
            let batch_loss = if threads == 1 || batch.len() == 1 {
                let mut loss = 0.0f64;
                for &i in batch {
                    loss +=
                        model.loss_and_backprop_with(&data[i].0, data[i].1, &mut scratch) as f64;
                }
                loss
            } else {
                parallel_grads(model, data, batch, threads)
            };
            if !batch_loss.is_finite() || !grads_finite(model) {
                skipped_batches += 1;
                let (_, skips, rollbacks) = fit_counters();
                skips.inc();
                rollbacks.inc();
                load_params(model, &checkpoint)
                    .expect("rollback checkpoint must match its own model");
                if cfg.log_every > 0 {
                    eprintln!(
                        "epoch {:>3}: skipped non-finite batch (rolled back)",
                        epoch + 1
                    );
                }
                continue;
            }
            epoch_loss += batch_loss;
            used_samples += batch.len();
            opt.step(model, 1.0 / batch.len() as f32);
        }
        // Refresh the rollback point only from a healthy state; a
        // diverged epoch keeps the previous checkpoint alive.
        if params_finite(model) {
            checkpoint = save_params(model);
        } else {
            fit_counters().2.inc();
            load_params(model, &checkpoint).expect("rollback checkpoint must match its own model");
        }
        fit_counters().0.inc();
        let mean = (epoch_loss / used_samples.max(1) as f64) as f32;
        epoch_losses.push(mean);
        if cfg.log_every > 0 && (epoch + 1) % cfg.log_every == 0 {
            eprintln!("epoch {:>3}: loss {:.4}", epoch + 1, mean);
        }
    }
    TrainReport {
        epoch_losses,
        skipped_batches,
    }
}

/// Evaluates gradients for `batch` across `threads` workers, reducing
/// into `model`'s gradient buffers. Returns the summed loss.
fn parallel_grads(
    model: &mut SequenceClassifier,
    data: &[Sample],
    batch: &[usize],
    threads: usize,
) -> f64 {
    let n_shards = threads.min(batch.len());
    let shards: Vec<&[usize]> = batch.chunks(batch.len().div_ceil(n_shards)).collect();
    let template = model.clone();
    let results: Vec<(SequenceClassifier, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter()
            .map(|shard| {
                let mut worker = template.clone();
                scope.spawn(move || {
                    worker.zero_grad();
                    // Worker threads each carry their own arena; the
                    // thread-local fallback would work too, but an
                    // explicit one keeps the reuse visible.
                    let mut scratch = KernelScratch::new();
                    let mut loss = 0.0f64;
                    for &i in *shard {
                        loss += worker.loss_and_backprop_with(&data[i].0, data[i].1, &mut scratch)
                            as f64;
                    }
                    (worker, loss)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("training worker panicked"))
            .collect()
    });
    let mut total = 0.0;
    for (mut worker, loss) in results {
        model.accumulate_grads_from(&mut worker);
        total += loss;
    }
    total
}

/// Classification accuracy of `model` over `data`.
///
/// A sample the model cannot score (empty sequence, non-finite
/// probabilities) counts as wrong rather than panicking — degraded
/// inputs must degrade accuracy, not crash evaluation.
pub fn evaluate(model: &SequenceClassifier, data: &[Sample]) -> f64 {
    if data.is_empty() {
        return 0.0;
    }
    let correct = data
        .iter()
        .filter(|(frames, label)| model.try_predict(frames) == Ok(*label))
        .count();
    correct as f64 / data.len() as f64
}

/// Confusion matrix of `model` over `data`. Unscorable samples (see
/// [`evaluate`]) are omitted from the matrix.
pub fn confusion(model: &SequenceClassifier, data: &[Sample]) -> ConfusionMatrix {
    let mut cm = ConfusionMatrix::new(model.n_classes());
    for (frames, label) in data {
        if let Ok(pred) = model.try_predict(frames) {
            cm.record(*label, pred);
        }
    }
    cm
}

/// Splits `data` into `(train, test)` with `test_fraction` held out,
/// shuffled deterministically. Used for the paper's 80/20 protocol.
///
/// # Panics
///
/// Panics unless `0.0 < test_fraction < 1.0`.
pub fn train_test_split(
    mut data: Vec<Sample>,
    test_fraction: f64,
    seed: u64,
) -> (Vec<Sample>, Vec<Sample>) {
    assert!(
        test_fraction > 0.0 && test_fraction < 1.0,
        "test_fraction must be in (0, 1)"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    data.shuffle(&mut rng);
    let n_test = ((data.len() as f64) * test_fraction).round() as usize;
    let n_test = n_test.clamp(1, data.len().saturating_sub(1).max(1));
    let test = data.split_off(data.len() - n_test);
    (data, test)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Layer, Sequential};
    use crate::lstm::LstmStack;

    /// Linearly separable 3-class toy sequences.
    fn toy_data(n_per_class: usize) -> Vec<Sample> {
        let mut out = Vec::new();
        for c in 0..3usize {
            for k in 0..n_per_class {
                let frames: Vec<Vec<f32>> = (0..4)
                    .map(|t| {
                        let jitter = ((k * 7 + t) % 5) as f32 * 0.02;
                        let mut f = vec![jitter; 3];
                        f[c] = 1.0 + jitter;
                        f
                    })
                    .collect();
                out.push((frames, c));
            }
        }
        out
    }

    fn toy_model(seed: u64) -> SequenceClassifier {
        let encoder = Sequential::new(vec![Layer::dense(3, 8, seed), Layer::relu()]);
        SequenceClassifier::new(encoder, LstmStack::new(8, &[6], seed), 3, seed)
    }

    #[test]
    fn fit_reaches_high_accuracy() {
        let data = toy_data(8);
        let mut model = toy_model(1);
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 8,
            n_threads: 1,
            ..TrainConfig::default()
        };
        let report = fit(&mut model, &data, &cfg);
        assert_eq!(report.epoch_losses.len(), 40);
        assert!(report.final_loss().unwrap() < report.epoch_losses[0]);
        assert!(evaluate(&model, &data) > 0.95);
    }

    #[test]
    fn parallel_matches_serial_in_quality() {
        let data = toy_data(6);
        let cfg_serial = TrainConfig {
            epochs: 25,
            batch_size: 6,
            n_threads: 1,
            ..TrainConfig::default()
        };
        let cfg_par = TrainConfig {
            n_threads: 3,
            ..cfg_serial.clone()
        };
        let mut serial = toy_model(3);
        let mut parallel = toy_model(3);
        fit(&mut serial, &data, &cfg_serial);
        fit(&mut parallel, &data, &cfg_par);
        // Shard reduction is order-sensitive in float math, so demand
        // equal *quality*, not bitwise equality.
        assert!(evaluate(&serial, &data) > 0.9);
        assert!(evaluate(&parallel, &data) > 0.9);
    }

    #[test]
    fn confusion_diagonal_after_training() {
        let data = toy_data(5);
        let mut model = toy_model(5);
        fit(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 40,
                n_threads: 1,
                ..TrainConfig::default()
            },
        );
        let cm = confusion(&model, &data);
        assert!(cm.accuracy() > 0.9);
        assert_eq!(cm.total() as usize, data.len());
    }

    #[test]
    fn split_is_disjoint_and_sized() {
        let data = toy_data(10); // 30 samples
        let (train, test) = train_test_split(data, 0.2, 9);
        assert_eq!(train.len(), 24);
        assert_eq!(test.len(), 6);
    }

    #[test]
    fn split_deterministic() {
        let (a_train, _) = train_test_split(toy_data(4), 0.25, 11);
        let (b_train, _) = train_test_split(toy_data(4), 0.25, 11);
        assert_eq!(a_train, b_train);
    }

    #[test]
    #[should_panic(expected = "test_fraction")]
    fn bad_fraction_panics() {
        train_test_split(toy_data(2), 1.5, 0);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_data_panics() {
        fit(&mut toy_model(0), &[], &TrainConfig::default());
    }

    #[test]
    fn evaluate_empty_is_zero() {
        assert_eq!(evaluate(&toy_model(0), &[]), 0.0);
    }

    #[test]
    fn nan_batches_are_skipped_with_rollback() {
        let mut data = toy_data(6);
        // Poison a few samples with NaN features: their batches must be
        // skipped, not detonate the parameters.
        for poisoned in [1usize, 8, 15] {
            data[poisoned].0[0][0] = f32::NAN;
        }
        let mut model = toy_model(2);
        let cfg = TrainConfig {
            epochs: 30,
            batch_size: 4,
            n_threads: 1,
            ..TrainConfig::default()
        };
        let report = fit(&mut model, &data, &cfg);
        assert!(report.skipped_batches > 0, "poisoned batches must skip");
        assert!(report.final_loss().unwrap().is_finite());
        let mut all_finite = true;
        model.visit_params(&mut |p, _| all_finite &= p.iter().all(|v| v.is_finite()));
        assert!(all_finite, "parameters must stay finite");
        // The clean samples still train to a useful model.
        let clean: Vec<Sample> = toy_data(6)
            .into_iter()
            .enumerate()
            .filter(|(i, _)| ![1usize, 8, 15].contains(i))
            .map(|(_, s)| s)
            .collect();
        assert!(evaluate(&model, &clean) > 0.8);
    }

    #[test]
    fn clean_training_reports_zero_skips() {
        let data = toy_data(4);
        let mut model = toy_model(9);
        let report = fit(
            &mut model,
            &data,
            &TrainConfig {
                epochs: 5,
                n_threads: 1,
                ..TrainConfig::default()
            },
        );
        assert_eq!(report.skipped_batches, 0);
    }

    #[test]
    fn evaluate_tolerates_unscorable_models() {
        // A diverged model scores nothing: 0% accuracy, empty matrix —
        // but no panic.
        let mut model = toy_model(4);
        model.visit_params(&mut |p, _| p.iter_mut().for_each(|v| *v = f32::NAN));
        let data = toy_data(2);
        assert_eq!(evaluate(&model, &data), 0.0);
        assert_eq!(confusion(&model, &data).total() as usize, 0);
    }
}
