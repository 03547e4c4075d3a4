//! SLO specification and multi-window burn-rate evaluation over
//! histogram snapshots.
//!
//! An [`SloSpec`] names a latency target and an error budget (the
//! tolerated fraction of requests slower than the target). An
//! [`SloMonitor`] ingests timestamped [`HistogramSnapshot`]s of a
//! latency histogram and computes *burn rates*: how fast the error
//! budget is being consumed over a trailing window, normalised so that
//! `1.0` means "exactly on budget" and `14.4` means "burning 14.4× too
//! fast" (the classic fast-burn page threshold). Evaluating several
//! windows at once ([`SloMonitor::evaluate`]) gives the standard
//! multi-window alert shape: a short window to catch fresh regressions
//! quickly, a long window to reject blips.
//!
//! The monitor publishes its latest long-window burn rate to the
//! `m2ai_slo_burn_rate{slo=...}` gauge in *thousandths* (the registry's
//! gauges are integral): a reading of `1000` is burn rate 1.0.

use crate::HistogramSnapshot;

/// A latency SLO: target bound plus tolerated violation fraction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSpec {
    /// Stable name (labels the burn-rate gauge).
    pub name: &'static str,
    /// Requests must complete within this many seconds…
    pub target_latency_s: f64,
    /// …except for this fraction of them (e.g. `0.01` = 99% SLO).
    pub error_budget: f64,
}

/// One evaluation window: trailing width plus the burn-rate threshold
/// above which the window counts as breached.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnWindow {
    /// Trailing window width, microseconds on the trace clock.
    pub window_us: u64,
    /// Breach when the window's burn rate exceeds this.
    pub threshold: f64,
}

/// Result of one multi-window evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloVerdict {
    /// Burn rate per evaluated window, same order as the input.
    pub burn_rates: Vec<f64>,
    /// `true` when *every* window exceeded its threshold (the
    /// multi-window AND that makes alerts robust to blips).
    pub breached: bool,
}

/// Burn-rate evaluator over a stream of histogram snapshots.
///
/// Feed it cumulative snapshots of one latency histogram via
/// [`SloMonitor::observe`]; it retains a bounded history and answers
/// burn-rate queries over any trailing window.
#[derive(Debug)]
pub struct SloMonitor {
    spec: SloSpec,
    samples: Vec<(u64, HistogramSnapshot)>,
    gauge: crate::Gauge,
}

/// Retained snapshot history (oldest evicted beyond this).
const MAX_SAMPLES: usize = 4096;

impl SloMonitor {
    /// Creates a monitor and registers its burn-rate gauge
    /// (`m2ai_slo_burn_rate{slo=<name>}`).
    pub fn new(spec: SloSpec) -> SloMonitor {
        let labels: crate::LabelSet = Box::leak(Box::new([("slo", spec.name)]));
        SloMonitor {
            spec,
            samples: Vec::new(),
            gauge: crate::gauge(
                "m2ai_slo_burn_rate",
                "long-window SLO burn rate, thousandths (1000 = on budget)",
                labels,
            ),
        }
    }

    /// The spec this monitor evaluates.
    pub fn spec(&self) -> &SloSpec {
        &self.spec
    }

    /// Ingests a cumulative snapshot taken at `at_us` on the trace
    /// clock ([`crate::trace::clock_us`]).
    pub fn observe(&mut self, at_us: u64, snapshot: HistogramSnapshot) {
        self.samples.push((at_us, snapshot));
        if self.samples.len() > MAX_SAMPLES {
            self.samples.remove(0);
        }
    }

    /// Fraction of observations in `delta` slower than the target
    /// (counted conservatively: an observation is "good" only if its
    /// bucket's upper bound is within the target).
    fn bad_fraction(&self, delta: &HistogramSnapshot) -> f64 {
        if delta.count == 0 {
            return 0.0;
        }
        let mut good = 0u64;
        for (i, &n) in delta.buckets.iter().enumerate() {
            if i < delta.bounds.len() && delta.bounds[i] <= self.spec.target_latency_s {
                good += n;
            }
        }
        1.0 - good as f64 / delta.count as f64
    }

    /// Burn rate over the trailing `window_us` ending at `now_us`:
    /// the window's bad fraction divided by the error budget. `0.0`
    /// when the window holds fewer than two samples or no new
    /// observations (no data is not a breach).
    pub fn burn_rate(&self, now_us: u64, window_us: u64) -> f64 {
        let start = now_us.saturating_sub(window_us);
        let latest = match self.samples.last() {
            Some(l) => l,
            None => return 0.0,
        };
        // Baseline: the retained sample closest to the window start
        // (either side), so a sparse history neither widens a short
        // window to the whole run nor collapses it to nothing.
        let mut base: Option<&(u64, HistogramSnapshot)> = None;
        for s in &self.samples[..self.samples.len() - 1] {
            let better = match base {
                None => true,
                Some(b) => s.0.abs_diff(start) <= b.0.abs_diff(start),
            };
            if better {
                base = Some(s);
            }
        }
        let base = match base {
            Some(b) if latest.0 > b.0 => b,
            _ => return 0.0,
        };
        let delta = latest.1.delta(&base.1);
        if self.spec.error_budget <= 0.0 {
            return if self.bad_fraction(&delta) > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
        }
        self.bad_fraction(&delta) / self.spec.error_budget
    }

    /// Evaluates every window and publishes the *last* window's burn
    /// rate (by convention the longest) to the gauge in thousandths.
    pub fn evaluate(&mut self, now_us: u64, windows: &[BurnWindow]) -> SloVerdict {
        let burn_rates: Vec<f64> = windows
            .iter()
            .map(|w| self.burn_rate(now_us, w.window_us))
            .collect();
        let breached = !windows.is_empty()
            && windows
                .iter()
                .zip(&burn_rates)
                .all(|(w, &b)| b > w.threshold);
        if let Some(&last) = burn_rates.last() {
            let scaled = if last.is_finite() {
                (last * 1000.0)
                    .round()
                    .clamp(i64::MIN as f64, i64::MAX as f64) as i64
            } else {
                i64::MAX
            };
            self.gauge.set(scaled);
        }
        SloVerdict {
            burn_rates,
            breached,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(bounds: &[f64], buckets: &[u64]) -> HistogramSnapshot {
        let count = buckets.iter().sum();
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            buckets: buckets.to_vec(),
            count,
            sum: 0.0,
        }
    }

    fn spec() -> SloSpec {
        SloSpec {
            name: "test_slo",
            target_latency_s: 0.010,
            error_budget: 0.01,
        }
    }

    #[test]
    fn burn_rate_is_bad_fraction_over_budget() {
        let _g = crate::test_lock();
        let bounds = [0.001, 0.010, 0.100];
        let mut m = SloMonitor::new(spec());
        m.observe(0, snap(&bounds, &[0, 0, 0, 0]));
        // 100 requests, 2 slower than 10ms → bad fraction 0.02, budget
        // 0.01 → burn rate 2.0.
        m.observe(1_000_000, snap(&bounds, &[50, 48, 2, 0]));
        let b = m.burn_rate(1_000_000, 1_000_000);
        assert!((b - 2.0).abs() < 1e-9, "burn {b}");
    }

    #[test]
    fn no_data_is_not_a_breach() {
        let _g = crate::test_lock();
        let m = SloMonitor::new(spec());
        assert_eq!(m.burn_rate(5_000_000, 1_000_000), 0.0);
    }

    #[test]
    fn multi_window_needs_both_to_breach() {
        let _g = crate::test_lock();
        let bounds = [0.001, 0.010, 0.100];
        let mut m = SloMonitor::new(spec());
        // Long clean history, then a short burst of slowness.
        m.observe(0, snap(&bounds, &[0, 0, 0, 0]));
        m.observe(8_000_000, snap(&bounds, &[1000, 0, 0, 0]));
        m.observe(10_000_000, snap(&bounds, &[1000, 0, 100, 0]));
        let windows = [
            BurnWindow {
                window_us: 2_500_000,
                threshold: 14.4,
            },
            BurnWindow {
                window_us: 10_000_000,
                threshold: 6.0,
            },
        ];
        let v = m.evaluate(10_000_000, &windows);
        // Short window: all 100 new requests bad → burn 100. Long
        // window: 100/1100 bad → burn ≈ 9.1. Both exceed → breach.
        assert!(v.burn_rates[0] > 14.4, "short {v:?}");
        assert!(v.burn_rates[1] > 6.0, "long {v:?}");
        assert!(v.breached);
        // Gauge carries the long-window rate in thousandths.
        let g = crate::find("m2ai_slo_burn_rate", &[("slo", "test_slo")]);
        match g {
            Some(crate::MetricValue::Gauge(v)) => assert!(v > 6000, "gauge {v}"),
            other => panic!("gauge missing: {other:?}"),
        }
    }

    #[test]
    fn clean_window_does_not_breach() {
        let _g = crate::test_lock();
        let bounds = [0.001, 0.010, 0.100];
        let mut m = SloMonitor::new(spec());
        m.observe(0, snap(&bounds, &[0, 0, 0, 0]));
        m.observe(1_000_000, snap(&bounds, &[500, 500, 0, 0]));
        let v = m.evaluate(
            1_000_000,
            &[BurnWindow {
                window_us: 1_000_000,
                threshold: 1.0,
            }],
        );
        assert_eq!(v.burn_rates[0], 0.0);
        assert!(!v.breached);
    }
}
