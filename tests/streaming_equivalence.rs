//! Property-based equivalence between the streaming incremental
//! extractor and the batch `FrameBuilder` it replaces on the raw-ingest
//! serve path.
//!
//! For any faulted, shuffled reading stream and any refresh cadence,
//! sliding a `StreamExtractor` over overlapping windows must agree
//! with rebuilding every window from the sorted batch buffer:
//!
//! - **refresh windows are bitwise-identical** — the extractor runs the
//!   exact batch arithmetic there, so not a single mantissa bit may
//!   differ;
//! - **incremental windows stay inside a tight band** — they use the
//!   `f32` GEMM-lowered pseudospectrum scan over the rank-1-updated
//!   covariance, so they may differ from the `f64` batch path, but only
//!   within the documented tolerance.
//!
//! The streaming scan runs on the thread's `Fast` kernel scratch; the
//! scan itself is checked on both backends against the exact scan by
//! `music.rs`'s `gemm_scan_matches_exact_scan_on_both_backends`.

use m2ai::core::stream_extract::{StreamExtractor, StreamingExtract};
use m2ai::prelude::*;
use proptest::prelude::*;

/// Worst tolerated |streaming − batch| frame element on incremental
/// windows (refresh windows are exact).
const BAND: f64 = 1e-3;

/// Overlapping window starts: one hop per inventory round (0.1 s) over
/// the 2 s base stream, each window 0.4 s long.
const N_WINDOWS: usize = 12;
const HOP_S: f64 = 0.1;
const FRAME_S: f64 = 0.4;

proptest! {
    // Each case runs MUSIC over a dozen windows twice; keep the case
    // count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Streaming-vs-batch equivalence over random fault intensities,
    /// fault seeds, ingest orderings and refresh cadences.
    #[test]
    fn streaming_matches_batch_on_random_faulted_streams(
        intensity in 0.0f64..0.8,
        fault_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        refresh_every in 1u32..4,
    ) {
        let plan = FaultPlan::with_intensity(intensity, fault_seed);
        let mut readings = plan.apply(base_stream());
        // Out-of-order ingest: the extractor must not depend on arrival
        // order as long as every reading lands before its window closes.
        shuffle(&mut readings, shuffle_seed);
        let sorted = sorted_dedup(readings.clone());

        let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), FRAME_S);
        let cfg = StreamingExtract { refresh_every };

        let mut ex = StreamExtractor::try_new(&builder, cfg)
            .expect("joint layout at an aligned frame length supports streaming");
        for r in &readings {
            ex.ingest(r);
        }
        for k in 0..N_WINDOWS {
            let t0 = k as f64 * HOP_S;
            let refresh = ex.next_is_refresh();
            let (sf, sq) = ex.extract(t0);
            let (bf, bq) = builder.build_frame_with_quality(&sorted, t0);
            prop_assert_eq!(sf.len(), bf.len());
            if refresh {
                for (i, (a, b)) in sf.iter().zip(&bf).enumerate() {
                    prop_assert!(
                        a.to_bits() == b.to_bits(),
                        "refresh window {} diverged at element {}: {} vs {}",
                        k, i, a, b
                    );
                }
            } else {
                for (i, (a, b)) in sf.iter().zip(&bf).enumerate() {
                    let diff = (f64::from(*a) - f64::from(*b)).abs();
                    prop_assert!(
                        diff <= BAND,
                        "incremental window {} element {}: |{} - {}| = {:e}",
                        k, i, a, b, diff
                    );
                }
            }
            // Coverage counts complete snapshot rounds, which both
            // paths track exactly, refresh or not.
            prop_assert!(sq == bq, "window {} quality mismatch", k);
        }
    }

    /// `refresh_every = 1` degenerates to the exact batch path: every
    /// window bitwise, regardless of stream content or order.
    #[test]
    fn refresh_every_one_is_bitwise_everywhere(
        intensity in 0.0f64..0.9,
        fault_seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
    ) {
        let plan = FaultPlan::with_intensity(intensity, fault_seed);
        let mut readings = plan.apply(base_stream());
        shuffle(&mut readings, shuffle_seed);
        let sorted = sorted_dedup(readings.clone());

        let layout = FrameLayout::new(2, 4, FeatureMode::Joint);
        let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), FRAME_S);
        let mut ex = StreamExtractor::try_new(&builder, StreamingExtract { refresh_every: 1 })
            .expect("joint layout at an aligned frame length supports streaming");
        for r in &readings {
            ex.ingest(r);
        }
        for k in 0..N_WINDOWS {
            let t0 = k as f64 * HOP_S;
            prop_assert!(ex.next_is_refresh());
            let (sf, sq) = ex.extract(t0);
            let (bf, bq) = builder.build_frame_with_quality(&sorted, t0);
            prop_assert_eq!(sf.len(), bf.len());
            for (a, b) in sf.iter().zip(&bf) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
            prop_assert_eq!(sq, bq);
        }
    }
}

/// The serve default cadence over a serve-length session: a 25 s
/// six-tag laboratory recording, 220 overlapping 0.4 s windows hopping
/// by one 0.1 s round, and an exact refresh every 8th window. Long
/// sessions are where the rank-1 covariance updates and the `f32`
/// scan have the most windows to drift over between refreshes.
#[test]
fn serve_cadence_matches_batch_over_a_long_session() {
    use m2ai::rfsim::geometry::Point2;

    const SESSION_S: f64 = 25.0;
    const LONG_N_WINDOWS: usize = 220;
    const REFRESH_EVERY: u32 = 8;

    let mut reader = Reader::new(
        Room::laboratory(),
        ReaderConfig {
            n_antennas: 4,
            seed: 11,
            ..ReaderConfig::default()
        },
        6,
    );
    let scene = SceneSnapshot::with_tags(vec![
        Point2::new(5.5, 4.0),
        Point2::new(5.7, 4.2),
        Point2::new(5.9, 4.1),
        Point2::new(8.0, 4.3),
        Point2::new(8.2, 4.5),
        Point2::new(8.4, 4.2),
    ]);
    let readings = sorted_dedup(reader.run(|_| scene.clone(), SESSION_S));
    let layout = FrameLayout::new(6, 4, FeatureMode::Joint);
    let builder = FrameBuilder::new(layout, PhaseCalibrator::disabled(6, 4), FRAME_S);
    let mut ex = StreamExtractor::try_new(
        &builder,
        StreamingExtract {
            refresh_every: REFRESH_EVERY,
        },
    )
    .expect("joint layout at an aligned frame length supports streaming");
    for r in &readings {
        ex.ingest(r);
    }
    let mut worst = 0.0f64;
    for k in 0..LONG_N_WINDOWS {
        let t0 = k as f64 * HOP_S;
        let (streamed, _) = ex.extract(t0);
        let (batch, _) = builder.build_frame_with_quality(&readings, t0);
        assert_eq!(streamed.len(), batch.len());
        for (s, b) in streamed.iter().zip(&batch) {
            worst = worst.max((f64::from(*s) - f64::from(*b)).abs());
        }
    }
    assert!(worst <= BAND, "worst |Δ| {worst:.2e} out of band");
}

/// A fixed clean two-tag reader stream, built once (the reader
/// simulation is the expensive part; the properties randomise faults
/// and ordering on top of it).
fn base_stream() -> Vec<TagReading> {
    use std::sync::OnceLock;
    static STREAM: OnceLock<Vec<TagReading>> = OnceLock::new();
    STREAM
        .get_or_init(|| {
            let mut reader = Reader::new(Room::laboratory(), ReaderConfig::default(), 2);
            let scene = SceneSnapshot::with_tags(vec![
                m2ai::rfsim::geometry::Point2::new(2.0, 2.5),
                m2ai::rfsim::geometry::Point2::new(3.5, 2.5),
            ]);
            reader.run(|_| scene.clone(), 2.0)
        })
        .clone()
}

/// Deterministic Fisher–Yates driven by splitmix64, so shuffles are
/// reproducible from the proptest seed alone.
fn shuffle(readings: &mut [TagReading], mut seed: u64) {
    let mut next = move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..readings.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        readings.swap(i, j);
    }
}

/// The batch reference buffer: sorted and exact-duplicate-deduplicated
/// with the same key `SessionWindow` uses on push, so both paths see
/// identical readings.
fn sorted_dedup(mut readings: Vec<TagReading>) -> Vec<TagReading> {
    readings.sort_by(|a, b| {
        (a.time_s, a.tag.0, a.antenna, a.channel)
            .partial_cmp(&(b.time_s, b.tag.0, b.antenna, b.channel))
            .expect("fault plan never produces NaN times")
    });
    readings.dedup_by_key(|r| (r.time_s, r.tag.0, r.antenna, r.channel));
    readings
}
