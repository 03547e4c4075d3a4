//! Degradation state-machine contract: a scripted stream — clean,
//! then heavily faulted, then silent, then clean again — must walk the
//! session through the *exact* transition sequence
//! Healthy → Degraded → Stale → Degraded → Healthy, with the
//! hysteretic recovery (two good windows before Healthy) observable
//! both in the session's own transition log and in the global
//! `m2ai_core_health_transitions_total` counters.

use m2ai::prelude::*;
use m2ai_core::calibration::PhaseCalibrator;
use m2ai_core::online::{SessionWindow, WindowEvent};
use m2ai_rfsim::geometry::Point2;

/// Current count of one transition edge in the global registry.
fn edge_count(from: &'static str, to: &'static str) -> u64 {
    match m2ai_obs::find(
        "m2ai_core_health_transitions_total",
        &[("from", from), ("to", to)],
    ) {
        Some(m2ai_obs::MetricValue::Counter(n)) => n,
        _ => 0,
    }
}

#[test]
fn scripted_faults_walk_the_exact_transition_sequence() {
    // One tag near the array: a clean stream keeps every window's
    // coverage high, so health stays Healthy until the script says
    // otherwise.
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let clean = {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        reader.run(|_| scene.clone(), 8.0)
    };
    let faulty = {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1)
            .with_fault_plan(FaultPlan::with_intensity(0.7, 11));
        reader.run(|_| scene.clone(), 8.0)
    };

    // The script: clean [0, 2), heavy faults [2, 3.5), silence
    // [3.5, 6), clean again [6, 8).
    let mut stream: Vec<TagReading> = clean
        .iter()
        .filter(|r| r.time_s < 2.0 || r.time_s >= 6.0)
        .cloned()
        .collect();
    stream.extend(
        faulty
            .iter()
            .filter(|r| (2.0..3.5).contains(&r.time_s))
            .cloned(),
    );
    stream.sort_by(|a, b| a.time_s.partial_cmp(&b.time_s).expect("finite times"));

    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let cfg = HealthConfig {
        degraded_coverage: 0.4,
        stale_timeout_s: 1.0,
        min_confidence: 0.0,
        recovery_windows: 2,
    };
    let mut window = SessionWindow::new(builder, 4, cfg);

    let before = [
        edge_count("healthy", "degraded"),
        edge_count("degraded", "stale"),
        edge_count("stale", "degraded"),
        edge_count("degraded", "healthy"),
    ];

    let mut events: Vec<WindowEvent> = Vec::new();
    window.push(&stream, &mut events);
    assert!(!events.is_empty(), "the stream must close windows");

    // The exact walk, including the hysteresis: recovery re-enters
    // through Degraded (good window #1 of 2) before reaching Healthy
    // (good window #2).
    assert_eq!(
        window.transitions(),
        &[
            (HealthState::Healthy, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Stale),
            (HealthState::Stale, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Healthy),
        ],
        "transition log must record the scripted walk exactly"
    );
    assert_eq!(window.health(), HealthState::Healthy, "must end recovered");

    // The same walk is visible in the global counters (>= because the
    // registry is process-wide; the delta from this session is 1 each).
    let after = [
        edge_count("healthy", "degraded"),
        edge_count("degraded", "stale"),
        edge_count("stale", "degraded"),
        edge_count("degraded", "healthy"),
    ];
    for (i, edge) in ["H→D", "D→S", "S→D", "D→H"].iter().enumerate() {
        assert!(
            after[i] > before[i],
            "global counter for {edge} must record the transition"
        );
    }
}

#[test]
fn recovery_hysteresis_waits_for_the_full_streak() {
    // Three good windows required: after a stale gap the session must
    // pass through Degraded twice before Healthy.
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let clean = {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        reader.run(|_| scene.clone(), 9.0)
    };
    let stream: Vec<TagReading> = clean
        .iter()
        .filter(|r| r.time_s < 2.0 || r.time_s >= 5.0)
        .cloned()
        .collect();

    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let cfg = HealthConfig {
        stale_timeout_s: 1.0,
        recovery_windows: 3,
        ..HealthConfig::default()
    };
    let mut window = SessionWindow::new(builder, 4, cfg);
    let mut events = Vec::new();
    window.push(&stream, &mut events);

    // Silence begins at 2.0: the first empty window is still inside
    // the stale timeout (Degraded — no reads), the next one crosses it
    // (Stale). On the way up the streak holds the state at Degraded
    // until the third good window.
    assert_eq!(
        window.transitions(),
        &[
            (HealthState::Healthy, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Stale),
            (HealthState::Stale, HealthState::Degraded),
            (HealthState::Degraded, HealthState::Healthy),
        ],
        "hysteresis must route recovery through Degraded"
    );
    assert_eq!(window.health(), HealthState::Healthy);
}

#[test]
fn stale_timing_does_not_depend_on_the_history_length() {
    // A 1.3-s gap is shorter than the default 2.0-s stale timeout, so
    // the silent windows are Degraded, never Stale — whether the read
    // buffer keeps one frame of history or twelve. The session must
    // emit the same events, bit for bit, at every history length.
    let scene = SceneSnapshot::with_tags(vec![Point2::new(4.4, 3.0)]);
    let clean = {
        let mut reader = Reader::new(Room::hall(), ReaderConfig::default(), 1);
        reader.run(|_| scene.clone(), 6.0)
    };
    let stream: Vec<TagReading> = clean
        .into_iter()
        .filter(|r| !(2.0..3.3).contains(&r.time_s))
        .collect();
    let layout = FrameLayout::new(1, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(1, 4), 0.5);
    let run = |history: usize| {
        let mut window = SessionWindow::new(builder.clone(), history, HealthConfig::default());
        let mut events = Vec::new();
        window.push(&stream, &mut events);
        events
            .into_iter()
            .map(|ev| match ev {
                WindowEvent::Stale { time_s } => format!("{time_s}:STALE"),
                WindowEvent::Frame {
                    time_s,
                    frame,
                    health,
                } => {
                    let bits: Vec<u32> = frame.iter().map(|v| v.to_bits()).collect();
                    format!("{time_s}:{health:?}:{bits:?}")
                }
            })
            .collect::<Vec<_>>()
    };
    let reference = run(12);
    assert!(
        reference.iter().all(|e| !e.contains("STALE")),
        "a gap shorter than the timeout must not go stale"
    );
    assert!(
        reference.iter().any(|e| e.contains("Degraded")),
        "the silent windows are degraded"
    );
    for history in [1, 2, 6] {
        assert_eq!(run(history), reference, "history {history}");
    }
}
