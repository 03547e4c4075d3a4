//! Last-good-spectrum fallback for streaming degradation.
//!
//! When a tag vanishes for a window (occlusion burst, antenna fault,
//! slot starvation), its pseudospectrum region collapses to zeros and
//! the classifier sees a cliff. [`SpectrumFallback`] softens the cliff:
//! it remembers the last frame region each tag produced with non-zero
//! coverage and, while the tag stays dark, patches the hole with an
//! exponentially decayed copy of that memory — "the tag is probably
//! still roughly where it was, trust that belief less every window".
//! After `max_age` dark windows the memory is dropped and the region
//! stays zero (honest ignorance beats stale confidence).
//!
//! The fallback is deliberately *not* part of
//! [`FrameBuilder`](crate::frames::FrameBuilder): frame construction
//! stays pure (its thread-invariance contract), and
//! the stateful patching lives in the sequential streaming layer.

use crate::frames::{FrameLayout, FrameQuality};

/// Per-tag last-good frame-region memory with exponential decay.
#[derive(Debug, Clone)]
pub struct SpectrumFallback {
    layout: FrameLayout,
    /// Multiplier applied per dark window (in `(0, 1]`).
    decay: f32,
    /// Dark windows after which a memory is forgotten.
    max_age: u32,
    /// Last-good `(spectrum block, direct block)` per tag.
    last: Vec<Option<(Vec<f32>, Vec<f32>)>>,
    /// Consecutive dark windows per tag.
    age: Vec<u32>,
}

impl SpectrumFallback {
    /// Creates a fallback with the default decay (0.7 per window, 4
    /// windows of memory).
    pub fn new(layout: FrameLayout) -> Self {
        Self::with_decay(layout, 0.7, 4)
    }

    /// Creates a fallback with a custom decay schedule.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < decay <= 1.0`.
    pub fn with_decay(layout: FrameLayout, decay: f32, max_age: u32) -> Self {
        assert!(decay > 0.0 && decay <= 1.0, "decay must be in (0, 1]");
        SpectrumFallback {
            layout,
            decay,
            max_age,
            last: vec![None; layout.n_tags],
            age: vec![0; layout.n_tags],
        }
    }

    /// Slice bounds of tag `t`'s spectrum and direct blocks in a frame.
    fn regions(&self, t: usize) -> ((usize, usize), (usize, usize)) {
        let lay = self.layout;
        let spec_per_tag = lay.spectrum_dim() / lay.n_tags.max(1);
        let direct_per_tag = lay.direct_dim() / lay.n_tags.max(1);
        let spec = (t * spec_per_tag, (t + 1) * spec_per_tag);
        let base = lay.spectrum_dim();
        let direct = (base + t * direct_per_tag, base + (t + 1) * direct_per_tag);
        (spec, direct)
    }

    /// Records covered tags' regions and patches uncovered ones with
    /// the decayed last-good memory. Returns how many tags were
    /// patched.
    ///
    /// A tag is patched only when its coverage is zero *and* its frame
    /// region is currently all-zero, so a partially-observed tag's real
    /// (if sparse) features are never overwritten.
    ///
    /// # Panics
    ///
    /// Panics if `frame`/`quality` do not match the layout.
    pub fn observe_and_patch(&mut self, frame: &mut [f32], quality: &FrameQuality) -> usize {
        assert_eq!(
            frame.len(),
            self.layout.frame_dim(),
            "frame/layout mismatch"
        );
        assert_eq!(
            quality.tag_coverage.len(),
            self.layout.n_tags,
            "quality/layout mismatch"
        );
        let mut patched = 0;
        for t in 0..self.layout.n_tags {
            let ((s0, s1), (d0, d1)) = self.regions(t);
            if quality.tag_coverage[t] > 0.0 {
                match &mut self.last[t] {
                    Some((spec, direct)) => {
                        spec.copy_from_slice(&frame[s0..s1]);
                        direct.copy_from_slice(&frame[d0..d1]);
                    }
                    empty => *empty = Some((frame[s0..s1].to_vec(), frame[d0..d1].to_vec())),
                }
                self.age[t] = 0;
                continue;
            }
            self.age[t] = self.age[t].saturating_add(1);
            if self.age[t] > self.max_age {
                self.last[t] = None;
                continue;
            }
            let Some((spec, direct)) = &self.last[t] else {
                continue;
            };
            let hole_is_empty =
                frame[s0..s1].iter().all(|&v| v == 0.0) && frame[d0..d1].iter().all(|&v| v == 0.0);
            if !hole_is_empty {
                continue;
            }
            let w = self.decay.powi(self.age[t] as i32);
            for (dst, src) in frame[s0..s1].iter_mut().zip(spec) {
                *dst = src * w;
            }
            for (dst, src) in frame[d0..d1].iter_mut().zip(direct) {
                *dst = src * w;
            }
            patched += 1;
        }
        patched
    }

    /// Forgets all memories (e.g. after a stream gap long enough that
    /// the scene may have changed entirely).
    pub fn reset(&mut self) {
        self.last.iter_mut().for_each(|m| *m = None);
        self.age.iter_mut().for_each(|a| *a = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::FeatureMode;

    fn layout() -> FrameLayout {
        FrameLayout::new(2, 4, FeatureMode::Joint)
    }

    fn quality(c0: f32, c1: f32) -> FrameQuality {
        FrameQuality {
            tag_coverage: vec![c0, c1],
        }
    }

    /// A frame with distinctive non-zero content for tag `t`.
    fn frame_with_tag(t: usize) -> Vec<f32> {
        let lay = layout();
        let mut f = vec![0.0f32; lay.frame_dim()];
        let spec_per_tag = lay.spectrum_dim() / 2;
        for v in f[t * spec_per_tag..(t + 1) * spec_per_tag].iter_mut() {
            *v = 0.5;
        }
        let base = lay.spectrum_dim();
        let direct_per_tag = lay.direct_dim() / 2;
        for v in f[base + t * direct_per_tag..base + (t + 1) * direct_per_tag].iter_mut() {
            *v = 0.8;
        }
        f
    }

    #[test]
    fn patches_dark_tag_with_decay() {
        let mut fb = SpectrumFallback::with_decay(layout(), 0.5, 3);
        // Window 1: tag 0 visible.
        let mut f1 = frame_with_tag(0);
        assert_eq!(fb.observe_and_patch(&mut f1, &quality(1.0, 0.0)), 0);
        // Window 2: tag 0 dark → patched at 0.5×.
        let mut f2 = vec![0.0f32; layout().frame_dim()];
        assert_eq!(fb.observe_and_patch(&mut f2, &quality(0.0, 0.0)), 1);
        assert!((f2[0] - 0.25).abs() < 1e-6, "0.5 value × 0.5 decay");
        // Window 3: still dark → 0.25×.
        let mut f3 = vec![0.0f32; layout().frame_dim()];
        fb.observe_and_patch(&mut f3, &quality(0.0, 0.0));
        assert!((f3[0] - 0.125).abs() < 1e-6);
    }

    #[test]
    fn forgets_after_max_age() {
        let mut fb = SpectrumFallback::with_decay(layout(), 0.9, 2);
        let mut f = frame_with_tag(0);
        fb.observe_and_patch(&mut f, &quality(1.0, 0.0));
        for _ in 0..2 {
            let mut dark = vec![0.0f32; layout().frame_dim()];
            fb.observe_and_patch(&mut dark, &quality(0.0, 0.0));
        }
        // Third dark window exceeds max_age: nothing patched.
        let mut dark = vec![0.0f32; layout().frame_dim()];
        assert_eq!(fb.observe_and_patch(&mut dark, &quality(0.0, 0.0)), 0);
        assert!(dark.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn never_overwrites_real_features() {
        let mut fb = SpectrumFallback::new(layout());
        let mut f = frame_with_tag(0);
        fb.observe_and_patch(&mut f, &quality(1.0, 0.0));
        // Tag 0 reported zero coverage but its region is non-zero
        // (shouldn't happen, but belt and braces): leave it alone.
        let mut odd = frame_with_tag(0);
        odd[0] = 0.123;
        fb.observe_and_patch(&mut odd, &quality(0.0, 0.0));
        assert_eq!(odd[0], 0.123);
    }

    #[test]
    fn recovery_resets_age_and_memory() {
        let mut fb = SpectrumFallback::with_decay(layout(), 0.5, 4);
        let mut f = frame_with_tag(0);
        fb.observe_and_patch(&mut f, &quality(1.0, 0.0));
        let mut dark = vec![0.0f32; layout().frame_dim()];
        fb.observe_and_patch(&mut dark, &quality(0.0, 0.0));
        // Tag reappears with fresh (different) content.
        let mut back = frame_with_tag(0);
        for v in back.iter_mut() {
            *v *= 0.6;
        }
        fb.observe_and_patch(&mut back, &quality(1.0, 0.0));
        // Next dark window patches from the *new* memory at age 1.
        let mut dark2 = vec![0.0f32; layout().frame_dim()];
        fb.observe_and_patch(&mut dark2, &quality(0.0, 0.0));
        assert!((dark2[0] - 0.5 * 0.6 * 0.5).abs() < 1e-6);
    }

    #[test]
    fn reset_clears_memory() {
        let mut fb = SpectrumFallback::new(layout());
        let mut f = frame_with_tag(1);
        fb.observe_and_patch(&mut f, &quality(0.0, 1.0));
        fb.reset();
        let mut dark = vec![0.0f32; layout().frame_dim()];
        assert_eq!(fb.observe_and_patch(&mut dark, &quality(0.0, 0.0)), 0);
    }

    #[test]
    #[should_panic(expected = "decay")]
    fn rejects_bad_decay() {
        SpectrumFallback::with_decay(layout(), 0.0, 2);
    }
}
