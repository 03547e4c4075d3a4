//! # m2ai-core — the M²AI activity-identification pipeline
//!
//! Ties the substrates together into the system of the paper (Fig. 1):
//!
//! 1. **[`calibration`]** — learn per-channel phase offsets from a
//!    stationary interval and map every reading onto the common
//!    910.25 MHz channel (Eq. 1, Fig. 3/10);
//! 2. **[`frames`]** — build the two spectrum-frame inputs per time
//!    window: the `n_tags × 180` MUSIC pseudospectrum frame and the
//!    `n_tags × n_antennas` periodogram frame (Fig. 5), plus the four
//!    ablation feature modes of Fig. 16;
//! 3. **[`dataset`]** — drive the simulated reader over activity scenes
//!    to produce labelled frame-sequence datasets, with every
//!    experimental knob of Section VI (rooms, persons, tags, antennas,
//!    distance, calibration on/off);
//! 4. **[`network`]** — assemble the CNN+LSTM engine (Fig. 6) and its
//!    CNN-only / LSTM-only ablations (Fig. 17);
//! 5. **[`pipeline`]** — train/evaluate end to end, produce accuracies
//!    and the Table-I confusion matrix, and run every classical
//!    baseline on the same data (Fig. 9);
//! 6. **[`online`]** — a streaming identifier for the realtime
//!    deployment mode (Section V), with a Healthy/Degraded/Stale
//!    health state machine for faulty streams;
//! 7. **[`degrade`]** + **[`error`]** — the graceful-degradation layer:
//!    last-good-spectrum fallback with exponential decay, per-tag
//!    coverage masks, and typed errors for data-dependent failures.
//!
//! # Example
//!
//! ```no_run
//! use m2ai_core::dataset::{generate_dataset, ExperimentConfig};
//! use m2ai_core::pipeline::{train_m2ai, TrainOptions};
//!
//! let mut config = ExperimentConfig::paper_default();
//! config.samples_per_class = 6; // keep the example fast
//! let bundle = generate_dataset(&config);
//! let outcome = train_m2ai(&bundle, &TrainOptions::fast());
//! println!("accuracy: {:.1}%", 100.0 * outcome.test_accuracy);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod dataset;
pub mod degrade;
pub mod error;
pub mod frames;
pub mod network;
pub mod online;
pub mod pipeline;
pub mod serve;

pub use dataset::{generate_dataset, DatasetBundle, ExperimentConfig};
pub use degrade::SpectrumFallback;
pub use error::Error;
pub use frames::{FeatureMode, FrameLayout, FrameQuality};
pub use network::Architecture;
pub use online::{
    HealthConfig, HealthState, OnlineIdentifier, OnlinePrediction, SessionWindow, WindowEvent,
};
pub use pipeline::{train_m2ai, TrainOptions, TrainOutcome};
pub use serve::{ServeConfig, ServeEngine, ServeError, ServePrediction, SessionId};
