//! # M²AI — Multipath-aware Multi-object Activity Identification
//!
//! A full Rust reproduction of *"Multiple Object Activity Identification
//! using RFIDs: A Multipath-Aware Deep Learning Solution"* (ICDCS 2018),
//! including every substrate the paper's prototype relied on:
//!
//! | crate | role |
//! |---|---|
//! | [`dsp`] | FFT, Hermitian eigen, MUSIC pseudospectrum, periodogram |
//! | [`rfsim`] | physics-based UHF RFID reader/tag/multipath simulator |
//! | [`motion`] | volunteers, gestures, the 12 activity scenarios |
//! | [`nn`] | from-scratch CNN/LSTM engine with BPTT and SGD |
//! | [`baselines`] | the ten classical classifiers of Fig. 9 + HMM |
//! | [`core`] | calibration, spectrum frames, datasets, the pipeline |
//!
//! # Quickstart
//!
//! ```no_run
//! use m2ai::prelude::*;
//!
//! // One experimental condition = one config.
//! let mut config = ExperimentConfig::paper_default();
//! config.samples_per_class = 8; // small demo
//!
//! // Simulate recordings and build spectrum-frame sequences.
//! let bundle = generate_dataset(&config);
//!
//! // Train the CNN+LSTM engine with the paper's 80/20 protocol.
//! let outcome = train_m2ai(&bundle, &TrainOptions::fast());
//! println!("test accuracy {:.1}%", 100.0 * outcome.test_accuracy);
//! println!("{}", outcome.confusion);
//! ```
//!
//! See `examples/` for runnable scenarios and
//! `cargo run --release -p m2ai-bench --bin experiments -- all` for the
//! full figure-by-figure reproduction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use m2ai_baselines as baselines;
pub use m2ai_core as core;
pub use m2ai_dsp as dsp;
pub use m2ai_kernels as kernels;
pub use m2ai_motion as motion;
pub use m2ai_nn as nn;
pub use m2ai_obs as obs;
pub use m2ai_par as par;
pub use m2ai_rfsim as rfsim;
pub use m2ai_serve_fabric as fabric;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use m2ai_core::calibration::PhaseCalibrator;
    pub use m2ai_core::dataset::{generate_dataset, DatasetBundle, ExperimentConfig, RoomKind};
    pub use m2ai_core::frames::{FeatureMode, FrameBuilder, FrameLayout};
    pub use m2ai_core::network::{build_model, Architecture};
    pub use m2ai_core::online::{HealthConfig, HealthState};
    pub use m2ai_core::pipeline::{evaluate_baselines, train_m2ai, TrainOptions, TrainOutcome};
    pub use m2ai_motion::activity::{catalog, ActivityId, ActivityScenario};
    pub use m2ai_motion::scene::ActivityScene;
    pub use m2ai_motion::volunteer::Volunteer;
    pub use m2ai_nn::metrics::ConfusionMatrix;
    pub use m2ai_rfsim::fault::FaultPlan;
    pub use m2ai_rfsim::reader::{Reader, ReaderConfig};
    pub use m2ai_rfsim::reading::{TagId, TagReading};
    pub use m2ai_rfsim::room::Room;
    pub use m2ai_rfsim::scene::SceneSnapshot;
    pub use m2ai_serve_fabric::{FabricConfig, FabricPrediction, ServeFabric, SessionKey};
}
