//! The batch extraction path reads each window's reads only.
//!
//! `SessionWindow` hands the frame builder just the slice of its sorted
//! buffer that falls in the closing window, and `build_sample` deals a
//! recording out to its frames before building them. Both must build
//! exactly the frames the builder makes from the whole read set:
//!
//! - every `Frame` event equals, bit for bit, `build_frame_with_quality`
//!   over all reads pushed so far (sorted, deduplicated) at that window
//!   start, passed through the same fallback patching;
//! - `build_sample` equals per-frame `build_frame` on the same
//!   recording, for every feature mode and thread count.
//!
//! The streams are seeded, fault-injected, shuffled in blocks (so some
//! reads arrive after their window closed), carry exact duplicates and
//! reads placed on and one ulp either side of window boundaries.

use m2ai::prelude::*;
use m2ai_core::online::{HealthConfig, SessionWindow, WindowEvent};
use m2ai_core::SpectrumFallback;
use proptest::prelude::*;
use proptest::TestCaseError;

proptest! {
    // Each case runs MUSIC over a dozen windows twice per history
    // length; keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Session frames equal the batch builder over the full read set.
    #[test]
    fn session_frames_equal_full_buffer_frames(
        intensity in 0.0f64..0.6,
        fault_seed in any::<u64>(),
        order_seed in any::<u64>(),
        long_frames in any::<bool>(),
    ) {
        let frame_s = if long_frames { 0.5 } else { 0.4 };
        let stream = stream(intensity, fault_seed, order_seed, frame_s);
        for history in [2, 12] {
            check_session(&stream, frame_s, history)?;
        }
    }

    /// `build_sample` equals `build_frame` at every frame start.
    #[test]
    fn build_sample_equals_per_frame_build_frame(
        intensity in 0.0f64..0.6,
        fault_seed in any::<u64>(),
        order_seed in any::<u64>(),
        long_frames in any::<bool>(),
        late_start in any::<bool>(),
    ) {
        let frame_s = if long_frames { 0.5 } else { 0.4 };
        let start = if late_start { 0.3 } else { 0.0 };
        let recording = stream(intensity, fault_seed, order_seed, frame_s);
        for mode in [
            FeatureMode::Joint,
            FeatureMode::PeriodogramOnly,
            FeatureMode::PhaseOnly,
            FeatureMode::RssiOnly,
        ] {
            for threads in [1, 2] {
                let builder = builder(mode, frame_s).with_parallelism(threads);
                let n = 8;
                let sample = builder.build_sample(&recording, start, n);
                prop_assert_eq!(sample.len(), n);
                for (k, frame) in sample.iter().enumerate() {
                    let want = builder.build_frame(&recording, start + k as f64 * frame_s);
                    prop_assert!(bits(frame) == bits(&want), "{:?} frame {}", mode, k);
                }
            }
        }
    }
}

/// Pushes `stream` one read at a time and checks every event against
/// the batch builder over everything pushed before it.
fn check_session(stream: &[TagReading], frame_s: f64, history: usize) -> Result<(), TestCaseError> {
    let builder = builder(FeatureMode::Joint, frame_s);
    let mut window = SessionWindow::new(builder.clone(), history, HealthConfig::default());
    let mut fallback = SpectrumFallback::new(builder.layout);
    let mut pushed: Vec<TagReading> = Vec::new();
    let mut window_start = 0.0;
    let mut events = Vec::new();
    for r in stream {
        pushed.push(r.clone());
        window.push(std::slice::from_ref(r), &mut events);
        for ev in events.drain(..) {
            let window_end = window_start + frame_s;
            match ev {
                WindowEvent::Stale { time_s } => {
                    prop_assert_eq!(time_s.to_bits(), window_end.to_bits());
                    fallback.reset();
                }
                WindowEvent::Frame { time_s, frame, .. } => {
                    prop_assert_eq!(time_s.to_bits(), window_end.to_bits());
                    let all = sorted_dedup(pushed.clone());
                    let (mut want, quality) = builder.build_frame_with_quality(&all, window_start);
                    fallback.observe_and_patch(&mut want, &quality);
                    prop_assert!(
                        bits(&frame) == bits(&want),
                        "history {} window at {}",
                        history,
                        window_start
                    );
                }
            }
            window_start += frame_s;
        }
    }
    prop_assert!(window_start > 3.0, "the stream closes its windows");
    Ok(())
}

fn builder(mode: FeatureMode, frame_s: f64) -> FrameBuilder {
    let layout = FrameLayout::new(2, 4, mode);
    FrameBuilder::new(layout, PhaseCalibrator::disabled(2, 4), frame_s)
}

fn bits(frame: &[f32]) -> Vec<u32> {
    frame.iter().map(|v| v.to_bits()).collect()
}

/// A faulted two-tag stream with a 1.3-s silent gap, exact duplicates,
/// reads on and one ulp either side of the window boundaries, and
/// block-shuffled arrival order.
fn stream(intensity: f64, fault_seed: u64, order_seed: u64, frame_s: f64) -> Vec<TagReading> {
    let mut next = splitmix(order_seed);
    let plan = FaultPlan::with_intensity(intensity, fault_seed);
    let mut reads: Vec<TagReading> = plan
        .apply(base_stream())
        .into_iter()
        .filter(|r| !(1.6..2.9).contains(&r.time_s))
        .collect();
    // Boundary reads at the session's own accumulated window edges.
    let mut edge = 0.0;
    let mut edges = Vec::new();
    while edge < 4.0 {
        edges.push(edge);
        edge += frame_s;
    }
    for (i, &t) in edges.iter().enumerate() {
        for time_s in [t.next_down(), t, t.next_up()] {
            let mut r = reads[(next() as usize) % reads.len()].clone();
            r.time_s = time_s;
            r.channel = (r.channel + i) % 50;
            reads.push(r);
        }
    }
    reads.sort_by(|a, b| a.time_s.total_cmp(&b.time_s));
    // Exact retransmissions of about one read in ten.
    let dups: Vec<TagReading> = reads
        .iter()
        .filter(|_| next().is_multiple_of(10))
        .cloned()
        .collect();
    for d in dups {
        let at = reads.partition_point(|r| r.time_s <= d.time_s);
        let at = (at + (next() % 8) as usize).min(reads.len());
        reads.insert(at, d);
    }
    // Shuffle inside blocks of 16: reads move across window edges, so
    // some arrive after their window has closed.
    for block in reads.chunks_mut(16) {
        for i in (1..block.len()).rev() {
            block.swap(i, (next() % (i as u64 + 1)) as usize);
        }
    }
    reads
}

/// A fixed clean two-tag reader stream, built once.
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
            reader.run(|_| scene.clone(), 4.0)
        })
        .clone()
}

fn splitmix(mut seed: u64) -> impl FnMut() -> u64 {
    move || {
        seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The reads a session buffer holds: sorted and exact-duplicate-free
/// under the key `SessionWindow` uses on push.
fn sorted_dedup(mut readings: Vec<TagReading>) -> Vec<TagReading> {
    readings.sort_by(|a, b| {
        (a.time_s, a.tag.0, a.antenna, a.channel)
            .partial_cmp(&(b.time_s, b.tag.0, b.antenna, b.channel))
            .expect("fault plans never produce NaN times")
    });
    readings.dedup_by_key(|r| (r.time_s, r.tag.0, r.antenna, r.channel));
    readings
}
