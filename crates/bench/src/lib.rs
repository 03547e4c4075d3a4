//! Shared experiment-harness machinery for the `experiments` binary.
//!
//! Each `fig*` function regenerates one table or figure of the paper's
//! evaluation (Section VI) and prints the measured rows next to the
//! values the paper reports, so a run reads as a side-by-side
//! reproduction check.

#![forbid(unsafe_code)]

pub mod chaos;
pub mod obs;
pub mod robustness;
pub mod trace_gate;

use m2ai_core::dataset::{generate_dataset, ExperimentConfig, RoomKind};
use m2ai_core::frames::FeatureMode;
use m2ai_core::network::Architecture;
use m2ai_core::pipeline::{evaluate_baselines, train_m2ai, TrainOptions, TrainOutcome};

/// How much compute an experiment run may spend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// Full reproduction run (the numbers recorded in EXPERIMENTS.md).
    Full,
    /// Smoke-test run for CI: same code paths, smaller
    /// datasets and fewer epochs. Accuracies are lower across the
    /// board but orderings still show.
    Fast,
}

impl Budget {
    /// Samples recorded per activity class.
    pub fn samples_per_class(self) -> usize {
        match self {
            Budget::Full => 40,
            Budget::Fast => 8,
        }
    }

    /// Training epochs.
    pub fn epochs(self) -> usize {
        match self {
            Budget::Full => 60,
            Budget::Fast => 12,
        }
    }

    /// Larger budget for the headline Fig. 9 / Table I comparison.
    pub fn headline_samples_per_class(self) -> usize {
        match self {
            Budget::Full => 80,
            Budget::Fast => 10,
        }
    }

    /// Headline training epochs.
    pub fn headline_epochs(self) -> usize {
        match self {
            Budget::Full => 120,
            Budget::Fast => 15,
        }
    }
}

/// Base experiment configuration under a budget.
pub fn base_config(budget: Budget) -> ExperimentConfig {
    ExperimentConfig {
        samples_per_class: budget.samples_per_class(),
        ..ExperimentConfig::paper_default()
    }
}

/// Base training options under a budget.
pub fn base_options(budget: Budget) -> TrainOptions {
    TrainOptions {
        epochs: budget.epochs(),
        n_threads: 2,
        ..TrainOptions::paper_default()
    }
}

/// Trains M²AI under a modified config and returns the outcome.
pub fn run_condition(
    budget: Budget,
    tweak: impl FnOnce(&mut ExperimentConfig),
    opt_tweak: impl FnOnce(&mut TrainOptions),
) -> TrainOutcome {
    let mut config = base_config(budget);
    tweak(&mut config);
    let bundle = generate_dataset(&config);
    let mut opts = base_options(budget);
    opt_tweak(&mut opts);
    train_m2ai(&bundle, &opts)
}

fn pct(x: f64) -> String {
    format!("{:5.1}%", 100.0 * x)
}

fn header(id: &str, title: &str) {
    println!();
    println!("==== {id}: {title} ====");
}

/// Formats a gate-report number for a flat JSON document; non-finite
/// values become `null`, which [`parse_metric`] then refuses.
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Extracts `"key": <number>` from a flat JSON document.
pub(crate) fn parse_metric(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let idx = json.find(&pat)?;
    let rest = json[idx + pat.len()..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// Fig. 3 — phase jumping across hopping channels is linear in
/// frequency; calibration flattens it.
pub fn fig3(_budget: Budget) {
    use m2ai_core::calibration::PhaseCalibrator;
    use m2ai_dsp::stats::{circular_median, linear_fit};
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::SceneSnapshot;

    header("Fig. 3", "phase jumping caused by frequency hopping");
    let cfg = ReaderConfig {
        phase_noise_std: 0.02,
        ..ReaderConfig::default()
    };
    let mut reader = Reader::new(Room::hall(), cfg, 1);
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.2)]);
    let readings = reader.run(|_| scene.clone(), 60.0);
    let cal = PhaseCalibrator::learn(&readings, 1, 4);

    // Per-channel median of raw and calibrated phase on antenna 0.
    let mut raw: Vec<(f64, f64)> = Vec::new();
    let mut calibrated_spread = Vec::new();
    for c in 0..m2ai_rfsim::channel::N_CHANNELS {
        let phases: Vec<f64> = readings
            .iter()
            .filter(|r| r.channel == c && r.antenna == 0)
            .map(|r| r.phase_rad)
            .collect();
        let cal_phases: Vec<f64> = readings
            .iter()
            .filter(|r| r.channel == c && r.antenna == 0)
            .map(|r| cal.calibrate(r))
            .collect();
        if phases.is_empty() {
            continue;
        }
        raw.push((
            m2ai_rfsim::channel::channel_frequency_hz(c) / 1e6,
            circular_median(&phases),
        ));
        calibrated_spread.push(circular_median(&cal_phases));
    }
    // Unwrap raw medians across channels before fitting.
    let mut unwrapped = vec![raw[0].1];
    for w in raw.windows(2) {
        let mut v = w[1].1;
        let prev = *unwrapped.last().expect("non-empty");
        while v - prev > std::f64::consts::PI {
            v -= 2.0 * std::f64::consts::PI;
        }
        while v - prev < -std::f64::consts::PI {
            v += 2.0 * std::f64::consts::PI;
        }
        unwrapped.push(v);
    }
    let freqs: Vec<f64> = raw.iter().map(|r| r.0).collect();
    let (slope, _) = linear_fit(&freqs, &unwrapped);
    let residual: f64 = {
        let (s, i) = linear_fit(&freqs, &unwrapped);
        (freqs
            .iter()
            .zip(&unwrapped)
            .map(|(f, p)| (p - (s * f + i)).powi(2))
            .sum::<f64>()
            / freqs.len() as f64)
            .sqrt()
    };
    let cal_min = calibrated_spread.iter().cloned().fold(f64::MAX, f64::min);
    let cal_max = calibrated_spread.iter().cloned().fold(f64::MIN, f64::max);
    println!("paper:    raw phase vs frequency follows a linear model (visual)");
    println!(
        "measured: slope {slope:.3} rad/MHz over {} channels, rms residual {residual:.3} rad",
        freqs.len()
    );
    println!(
        "measured: after Eq.1 calibration per-channel medians span {:.3} rad (flat)",
        cal_max - cal_min
    );
}

/// Fig. 2 — AoA pseudospectra: multipath, blocking, many tags.
pub fn fig2(_budget: Budget) {
    use m2ai_core::calibration::PhaseCalibrator;
    use m2ai_core::frames::{FrameBuilder, FrameLayout};
    use m2ai_rfsim::geometry::Point2;
    use m2ai_rfsim::reader::{Reader, ReaderConfig};
    use m2ai_rfsim::room::Room;
    use m2ai_rfsim::scene::{Blocker, SceneSnapshot};

    header(
        "Fig. 2",
        "pseudospectrum: single tag, blocked path, many tags",
    );
    let spectrum_peaks = |scene: &SceneSnapshot, n_tags: usize| -> Vec<Vec<(f64, f64)>> {
        let cfg = ReaderConfig {
            hopping_offsets: false,
            phase_noise_std: 0.02,
            ..ReaderConfig::default()
        };
        let mut reader = Reader::new(Room::laboratory(), cfg, n_tags);
        let scene = scene.clone();
        let readings = reader.run(move |_| scene.clone(), 2.0);
        let layout = FrameLayout::new(n_tags, 4, FeatureMode::MusicOnly);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(n_tags, 4), 2.0);
        let frame = builder.build_frame(&readings, 0.0);
        (0..n_tags)
            .map(|tag| {
                let spec = &frame[tag * 180..(tag + 1) * 180];
                let mut peaks: Vec<(f64, f64)> = (1..179)
                    .filter(|&i| spec[i] > spec[i - 1] && spec[i] >= spec[i + 1])
                    .map(|i| (i as f64, spec[i] as f64))
                    .collect();
                peaks.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
                peaks.truncate(3);
                peaks
            })
            .collect()
    };

    let tag = Point2::new(4.2, 4.5);
    let single = SceneSnapshot::with_tags(vec![tag]);
    let peaks_a = &spectrum_peaks(&single, 1)[0];
    println!("(a) stationary tag: top peaks (angle°, rel. power):");
    for (a, p) in peaks_a {
        println!("      {a:5.0}°  {p:.2}");
    }

    let mut blocked = single.clone();
    blocked
        .blockers
        .push(Blocker::person(Point2::new(5.4, 2.4)));
    let peaks_b = &spectrum_peaks(&blocked, 1)[0];
    println!("(b) with a blocking person: top peaks shift/attenuate:");
    for (a, p) in peaks_b {
        println!("      {a:5.0}°  {p:.2}");
    }

    let many = SceneSnapshot::with_tags(vec![
        tag,
        Point2::new(5.8, 4.0),
        Point2::new(6.6, 5.2),
        Point2::new(3.2, 3.6),
        Point2::new(7.4, 3.1),
        Point2::new(4.9, 5.8),
    ]);
    let all = spectrum_peaks(&many, 6);
    let total: usize = all.iter().map(|p| p.len()).sum();
    println!("(c) six tags: {total} pseudospectrum peaks across tags (massive multipath)");
    println!(
        "paper: 3 paths for one tag; blocking kills/shifts peaks; many tags → many twisted paths"
    );
}

/// Fig. 9 + Table I — overall comparison and the confusion matrix.
pub fn fig9_and_table1(budget: Budget) {
    header("Fig. 9", "overall activity identification accuracy");
    let mut config = base_config(budget);
    config.samples_per_class = budget.headline_samples_per_class();
    let bundle = generate_dataset(&config);
    let mut opts = base_options(budget);
    opts.epochs = budget.headline_epochs();
    let outcome = train_m2ai(&bundle, &opts);
    let mut rows = vec![("M2AI (CNN+LSTM)".to_string(), outcome.test_accuracy)];
    rows.extend(evaluate_baselines(
        &bundle,
        0.2,
        base_options(budget).seed,
        base_options(budget).n_threads,
    ));
    rows.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite"));
    println!("paper: M2AI 97%, 27 points over the runner-up (SVM ~70%)");
    for (name, acc) in &rows {
        println!("  {:22} {}", name, pct(*acc));
    }
    let gap = rows[0].1 - rows.iter().skip(1).map(|r| r.1).fold(0.0, f64::max);
    println!("measured gap to runner-up: {:.1} points", 100.0 * gap);

    header("Table I", "confusion matrix of activity identification");
    println!("paper: >=93% on the diagonal for all 12 scenarios");
    println!("{}", outcome.confusion);
    println!(
        "measured: overall {} / diagonal min {}",
        pct(outcome.confusion.accuracy()),
        pct((0..12)
            .filter_map(|c| outcome.confusion.recall(c))
            .fold(1.0, f64::min))
    );
}

/// Fig. 10 — impact of phase calibration.
pub fn fig10(budget: Budget) {
    header("Fig. 10", "impact of phase calibration");
    let on = run_condition(budget, |_| {}, |_| {});
    let off = run_condition(budget, |c| c.calibrate = false, |_| {});
    println!("paper:    with calibration 97%   without 52%");
    println!(
        "measured: with calibration {}   without {}",
        pct(on.test_accuracy),
        pct(off.test_accuracy)
    );
}

/// Fig. 11 — number of simultaneously-acting persons.
pub fn fig11(budget: Budget) {
    header("Fig. 11", "impact of the number of objects (persons)");
    println!("paper: degrades gracefully; ~80% with three persons");
    for n in 1..=3 {
        let out = run_condition(budget, |c| c.n_persons = n, |_| {});
        println!("  {n} person(s): {}", pct(out.test_accuracy));
    }
}

/// Fig. 12 — laboratory (high multipath) vs hall (low multipath).
pub fn fig12(budget: Budget) {
    header("Fig. 12", "impact of the environment");
    println!("paper: hall ~95%, close to the laboratory result");
    for (kind, name) in [
        (RoomKind::Laboratory, "laboratory"),
        (RoomKind::Hall, "hall"),
    ] {
        let out = run_condition(budget, |c| c.room = kind, |_| {});
        println!("  {name:11}: {}", pct(out.test_accuracy));
    }
}

/// Fig. 13 — subject distance from the array.
pub fn fig13(budget: Budget) {
    header("Fig. 13", "impact of distance");
    println!("paper: no clear correlation with distance over 1-4 m");
    for d in [1.5, 2.0, 3.0, 4.0] {
        let out = run_condition(budget, |c| c.distance_m = d, |_| {});
        println!("  {d:.1} m: {}", pct(out.test_accuracy));
    }
}

/// Fig. 14 — number of reader antennas.
pub fn fig14(budget: Budget) {
    header("Fig. 14", "impact of the number of antennas");
    println!("paper: accuracy improves from 2 to 4 antennas");
    for n in 2..=4 {
        let out = run_condition(budget, |c| c.n_antennas = n, |_| {});
        println!("  {n} antennas: {}", pct(out.test_accuracy));
    }
}

/// Fig. 15 — tags per person.
pub fn fig15(budget: Budget) {
    header("Fig. 15", "impact of the number of tags per person");
    println!("paper: more tags -> more path diversity -> higher accuracy");
    for n in 1..=3 {
        let out = run_condition(budget, |c| c.tags_per_person = n, |_| {});
        println!("  {n} tag(s)/person: {}", pct(out.test_accuracy));
    }
}

/// Fig. 16 — preprocessing ablation.
pub fn fig16(budget: Budget) {
    header("Fig. 16", "impact of different preprocessing inputs");
    println!("paper: M2AI (joint) > MUSIC-based > FFT-based > Phase-based ~ RSSI-based");
    for mode in [
        FeatureMode::Joint,
        FeatureMode::MusicOnly,
        FeatureMode::PeriodogramOnly,
        FeatureMode::PhaseOnly,
        FeatureMode::RssiOnly,
    ] {
        let out = run_condition(budget, |c| c.feature_mode = mode, |_| {});
        println!("  {:14}: {}", mode.label(), pct(out.test_accuracy));
    }
}

/// Fig. 17 — network-architecture ablation.
pub fn fig17(budget: Budget) {
    header("Fig. 17", "impact of different learning networks");
    println!("paper: CNN+LSTM ~30 points over CNN-only, ~25 over LSTM-only");
    for arch in [
        Architecture::CnnLstm,
        Architecture::CnnOnly,
        Architecture::LstmOnly,
    ] {
        let out = run_condition(budget, |_| {}, |o| o.architecture = arch);
        println!("  {:16}: {}", arch.label(), pct(out.test_accuracy));
    }
}

/// Runs every experiment in paper order.
pub fn run_all(budget: Budget) {
    fig2(budget);
    fig3(budget);
    fig9_and_table1(budget);
    fig10(budget);
    fig11(budget);
    fig12(budget);
    fig13(budget);
    fig14(budget);
    fig15(budget);
    fig16(budget);
    fig17(budget);
    ablation_aoa(budget);
    ext_transfer(budget);
}

/// AoA-estimation ablation (design choices called out in DESIGN.md):
/// how much do forward–backward averaging, spatial smoothing, MDL and
/// snapshot count each contribute to angle accuracy under coherent
/// multipath? Pure DSP — no training.
pub fn ablation_aoa(_budget: Budget) {
    use m2ai_dsp::music::{pseudospectrum, MusicConfig, SourceCount};
    use m2ai_dsp::Complex;

    header(
        "Ablation",
        "MUSIC design choices (AoA error, coherent 2-path scenes)",
    );
    // Two coherent paths (same per-snapshot phase) at random angle
    // pairs; error = mean distance of the strongest peak to the
    // nearest true angle.
    let mut splitmix = 0x1234_5678u64;
    let mut next = move || {
        splitmix = splitmix.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = splitmix;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    };
    let variants: Vec<(&str, MusicConfig, usize)> = vec![
        (
            "FB + smoothing + MDL (default)",
            MusicConfig::paper_default(),
            16,
        ),
        (
            "no forward-backward",
            MusicConfig {
                forward_backward: false,
                ..MusicConfig::paper_default()
            },
            16,
        ),
        (
            "no spatial smoothing",
            MusicConfig {
                smoothing_subarray: None,
                ..MusicConfig::paper_default()
            },
            16,
        ),
        (
            "fixed source count = 1",
            MusicConfig {
                source_count: SourceCount::Fixed(1),
                ..MusicConfig::paper_default()
            },
            16,
        ),
        ("4 snapshots instead of 16", MusicConfig::paper_default(), 4),
    ];
    let trials = 60;
    for (name, cfg, n_snaps) in variants {
        let mut total_err = 0.0;
        let next_local = &mut next;
        for _ in 0..trials {
            let a1 = 30.0 + 120.0 * next_local();
            let a2 = 30.0 + 120.0 * next_local();
            let sv = |ang: f64| m2ai_dsp::music::steering_vector(&cfg, ang);
            let snaps: Vec<Vec<Complex>> = (0..n_snaps)
                .map(|_| {
                    let common = Complex::cis(next_local() * std::f64::consts::TAU);
                    let (s1, s2) = (sv(a1), sv(a2));
                    (0..cfg.n_antennas)
                        .map(|k| {
                            (s1[k] + s2[k].scale(0.7)) * common
                                + Complex::new(
                                    0.05 * (next_local() - 0.5),
                                    0.05 * (next_local() - 0.5),
                                )
                        })
                        .collect()
                })
                .collect();
            let err = match pseudospectrum(&snaps, &cfg) {
                Ok(spec) => {
                    let peaks = spec.peaks(1, 5.0);
                    match peaks.first() {
                        Some(&(ang, _)) => (ang - a1).abs().min((ang - a2).abs()),
                        None => 90.0,
                    }
                }
                Err(_) => 90.0,
            };
            total_err += err;
        }
        println!(
            "  {:32} mean AoA error {:5.1}°",
            name,
            total_err / trials as f64
        );
    }
    println!("(coherent multipath: FB averaging and smoothing are what keep MUSIC usable)");
}

/// Section VII extension: how does the trained model transfer to a
/// different environment without retraining?
pub fn ext_transfer(budget: Budget) {
    use m2ai_nn::train::evaluate;

    header(
        "Ext (Sec. VII)",
        "cross-environment transfer without retraining",
    );
    let mut lab_cfg = base_config(budget);
    lab_cfg.room = RoomKind::Laboratory;
    let lab = generate_dataset(&lab_cfg);
    let outcome = train_m2ai(&lab, &base_options(budget));

    let mut hall_cfg = lab_cfg.clone();
    hall_cfg.room = RoomKind::Hall;
    hall_cfg.seed = lab_cfg.seed + 1; // a different deployment entirely
    let hall = generate_dataset(&hall_cfg);
    let transfer = evaluate(&outcome.model, &hall.samples);
    println!(
        "paper (Sec. VII): the model may need retraining for new settings; \
         pseudospectrum/periodogram are sensitive to the environment"
    );
    println!(
        "measured: lab-trained accuracy {:5.1}% in the lab, {:5.1}% in the unseen hall",
        100.0 * outcome.test_accuracy,
        100.0 * transfer
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_metric_handles_last_key() {
        let json = "{\n  \"a\": 1.5,\n  \"speedup\": 3.25\n}\n";
        assert_eq!(parse_metric(json, "speedup"), Some(3.25));
        assert_eq!(parse_metric(json, "missing"), None);
    }

    #[test]
    fn non_finite_becomes_null_and_fails_parse() {
        let json = format!("{{\n  \"x\": {}\n}}\n", json_f64(f64::NAN));
        assert!(json.contains("\"x\": null"));
        assert_eq!(parse_metric(&json, "x"), None);
    }
}
