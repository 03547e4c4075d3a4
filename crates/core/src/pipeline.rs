//! End-to-end training/evaluation and the Fig. 9 baseline battery.

use crate::dataset::{flatten_for_classical, sequence_for_hmm, DatasetBundle};
use crate::network::{build_model, Architecture};
use m2ai_baselines::boost::AdaBoost;
use m2ai_baselines::gp::GaussianProcess;
use m2ai_baselines::hmm::HmmClassifier;
use m2ai_baselines::knn::KNearestNeighbors;
use m2ai_baselines::nb::GaussianNaiveBayes;
use m2ai_baselines::qda::Qda;
use m2ai_baselines::svm::{LinearSvm, RbfSvm};
use m2ai_baselines::tree::{DecisionTree, RandomForest};
use m2ai_baselines::Classifier;
use m2ai_nn::metrics::ConfusionMatrix;
use m2ai_nn::model::SequenceClassifier;
use m2ai_nn::train::{
    confusion, evaluate, fit, train_test_split, Sample, TrainConfig, TrainReport,
};

/// Training options for the deep engine.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainOptions {
    /// Engine architecture (Fig. 17 knob).
    pub architecture: Architecture,
    /// Epochs (paper: 100).
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Momentum.
    pub momentum: f32,
    /// Gradient-norm ceiling.
    pub clip_norm: Option<f32>,
    /// Minibatch size.
    pub batch_size: usize,
    /// Per-epoch learning-rate multiplier.
    pub lr_decay: f32,
    /// Decoupled L2 weight decay.
    pub weight_decay: f32,
    /// Worker threads.
    pub n_threads: usize,
    /// Held-out fraction (paper: 20 %).
    pub test_fraction: f64,
    /// Split/shuffle/init seed.
    pub seed: u64,
    /// Progress print interval in epochs (0 = silent).
    pub log_every: usize,
}

impl TrainOptions {
    /// The paper's training regime (100 epochs, 80/20 split).
    pub fn paper_default() -> Self {
        TrainOptions {
            architecture: Architecture::CnnLstm,
            epochs: 100,
            lr: 0.05,
            momentum: 0.9,
            clip_norm: Some(5.0),
            batch_size: 16,
            lr_decay: 0.995,
            weight_decay: 4e-4,
            n_threads: 8,
            test_fraction: 0.2,
            seed: 7,
            log_every: 0,
        }
    }

    /// A reduced regime for smoke tests, examples and doc snippets.
    pub fn fast() -> Self {
        TrainOptions {
            epochs: 25,
            lr: 0.08,
            ..TrainOptions::paper_default()
        }
    }
}

impl Default for TrainOptions {
    fn default() -> Self {
        TrainOptions::paper_default()
    }
}

/// Result of training the deep engine on a dataset.
#[derive(Debug, Clone)]
pub struct TrainOutcome {
    /// Accuracy on the held-out test split.
    pub test_accuracy: f64,
    /// Accuracy on the training split.
    pub train_accuracy: f64,
    /// Confusion matrix over the test split (Table I).
    pub confusion: ConfusionMatrix,
    /// Per-epoch loss trace.
    pub report: TrainReport,
    /// The trained model.
    pub model: SequenceClassifier,
}

/// Trains the selected architecture on `bundle` with an 80/20 split.
///
/// # Panics
///
/// Panics if the bundle has too few samples to split.
pub fn train_m2ai(bundle: &DatasetBundle, opts: &TrainOptions) -> TrainOutcome {
    let (train, test) = train_test_split(bundle.samples.clone(), opts.test_fraction, opts.seed);
    let mut model = build_model(
        &bundle.layout,
        bundle.n_classes,
        opts.architecture,
        opts.seed,
    );
    let cfg = TrainConfig {
        epochs: opts.epochs,
        lr: opts.lr,
        momentum: opts.momentum,
        clip_norm: opts.clip_norm,
        batch_size: opts.batch_size,
        n_threads: opts.n_threads,
        lr_decay: opts.lr_decay,
        weight_decay: opts.weight_decay,
        seed: opts.seed,
        log_every: opts.log_every,
    };
    let report = fit(&mut model, &train, &cfg);
    TrainOutcome {
        test_accuracy: evaluate(&model, &test),
        train_accuracy: evaluate(&model, &train),
        confusion: confusion(&model, &test),
        report,
        model,
    }
}

/// Standardises features to zero mean / unit variance using training
/// statistics (classical models are scale-sensitive).
fn standardize(train: &mut [Vec<f32>], test: &mut [Vec<f32>]) {
    let d = train.first().map(|v| v.len()).unwrap_or(0);
    let n = train.len().max(1) as f32;
    let mut mean = vec![0.0f32; d];
    for row in train.iter() {
        for (m, v) in mean.iter_mut().zip(row) {
            *m += v / n;
        }
    }
    let mut std = vec![0.0f32; d];
    for row in train.iter() {
        for (s, (v, m)) in std.iter_mut().zip(row.iter().zip(&mean)) {
            *s += (v - m) * (v - m) / n;
        }
    }
    std.iter_mut().for_each(|s| *s = s.sqrt().max(1e-6));
    for row in train.iter_mut().chain(test.iter_mut()) {
        for j in 0..d {
            row[j] = (row[j] - mean[j]) / std[j];
        }
    }
}

/// Accuracy of every classical baseline of Fig. 9 on the bundle,
/// using the same split protocol as the deep engine.
///
/// Returns `(name, test accuracy)` pairs, one per classifier, with
/// the HMM sequence baseline last. `n_threads` fans the battery out
/// one classifier per worker (0 = all cores, 1 = serial); every
/// classifier trains on the same precomputed features with its own
/// internal state, so the scores are identical for every setting.
pub fn evaluate_baselines(
    bundle: &DatasetBundle,
    test_fraction: f64,
    seed: u64,
    n_threads: usize,
) -> Vec<(String, f64)> {
    let (train, test): (Vec<Sample>, Vec<Sample>) =
        train_test_split(bundle.samples.clone(), test_fraction, seed);
    let layout = bundle.layout;

    let mut train_x: Vec<Vec<f32>> = train
        .iter()
        .map(|(f, _)| flatten_for_classical(f, &layout))
        .collect();
    let train_y: Vec<usize> = train.iter().map(|(_, y)| *y).collect();
    let mut test_x: Vec<Vec<f32>> = test
        .iter()
        .map(|(f, _)| flatten_for_classical(f, &layout))
        .collect();
    let test_y: Vec<usize> = test.iter().map(|(_, y)| *y).collect();
    standardize(&mut train_x, &mut test_x);

    // Task 0..=8: one classical classifier each; task 9: the HMM
    // sequence baseline. Classifiers are constructed inside the task so
    // each worker owns its state outright.
    const N_BASELINES: usize = 10;
    m2ai_par::parallel_map(N_BASELINES, n_threads, |i| {
        if i < 9 {
            let mut clf: Box<dyn Classifier> = match i {
                0 => Box::new(KNearestNeighbors::new(5)),
                1 => Box::new(LinearSvm::new()),
                2 => Box::new(RbfSvm::new(0.02)),
                3 => Box::new(GaussianProcess::new(0.02, 1e-2)),
                4 => Box::new(DecisionTree::new(8)),
                5 => Box::new(RandomForest::new(40, 8)),
                6 => Box::new(AdaBoost::new(30, 3)),
                7 => Box::new(GaussianNaiveBayes::new()),
                _ => Box::new(Qda::new(0.3)),
            };
            let acc = match clf.fit(&train_x, &train_y) {
                Ok(()) => {
                    let hits = test_x
                        .iter()
                        .zip(&test_y)
                        .filter(|(x, y)| clf.predict(x) == **y)
                        .count();
                    hits as f64 / test_x.len().max(1) as f64
                }
                Err(_) => 0.0,
            };
            (clf.name().to_string(), acc)
        } else {
            // HMM on the pooled frame sequences.
            let hmm_train: Vec<(Vec<Vec<f32>>, usize)> = train
                .iter()
                .map(|(f, y)| (sequence_for_hmm(f, &layout), *y))
                .collect();
            let hmm_acc = match HmmClassifier::fit(&hmm_train, 3, 5) {
                Ok(clf) => {
                    let hits = test
                        .iter()
                        .filter(|(f, y)| clf.predict(&sequence_for_hmm(f, &layout)) == *y)
                        .count();
                    hits as f64 / test.len().max(1) as f64
                }
                Err(_) => 0.0,
            };
            ("HMM (FEMO-style)".to_string(), hmm_acc)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate_dataset, ExperimentConfig};

    fn tiny_bundle() -> DatasetBundle {
        let config = ExperimentConfig {
            samples_per_class: 3,
            frames_per_sample: 6,
            calibrate: false,
            ..ExperimentConfig::paper_default()
        };
        generate_dataset(&config)
    }

    #[test]
    fn train_m2ai_beats_chance_quickly() {
        let bundle = tiny_bundle();
        let opts = TrainOptions {
            epochs: 12,
            n_threads: 4,
            ..TrainOptions::fast()
        };
        let outcome = train_m2ai(&bundle, &opts);
        // 12 classes ⇒ chance is ~8.3 %; training accuracy must be
        // clearly above it after a few epochs.
        assert!(
            outcome.train_accuracy > 0.25,
            "train accuracy {}",
            outcome.train_accuracy
        );
        assert!(outcome.report.epoch_losses.len() == 12);
        assert_eq!(outcome.confusion.n_classes(), 12);
    }

    #[test]
    fn baselines_produce_one_score_each() {
        let bundle = tiny_bundle();
        let results = evaluate_baselines(&bundle, 0.25, 3, 2);
        assert_eq!(results.len(), 10);
        let names: std::collections::HashSet<&str> =
            results.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names.len(), 10, "duplicate baseline names");
        for (name, acc) in &results {
            assert!((0.0..=1.0).contains(acc), "{name}: {acc}");
        }
    }

    #[test]
    fn options_presets_differ() {
        assert!(TrainOptions::paper_default().epochs > TrainOptions::fast().epochs);
    }
}
