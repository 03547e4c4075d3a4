//! Reads the program's own instruments through their Prometheus text
//! export, so the benchmark depends on the exposition format rather
//! than on the registry's Rust types.
//!
//! A [`Snapshot`] holds every sample line; [`Snapshot::delta`] windows
//! a measurement. Families the program does not export show up as
//! `None` from the accessors, which the report marks `missing`.

use std::collections::{BTreeMap, BTreeSet};

/// One parsed exposition: sample key (name plus label block) → value,
/// plus the declared families.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    samples: BTreeMap<String, f64>,
    families: BTreeSet<String>,
}

/// A histogram's (delta) state for one label child or a merged family.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    /// Upper bucket bounds, ascending, `+∞` last.
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) counts.
    pub counts: Vec<f64>,
    /// Sum of observations.
    pub sum: f64,
    /// Number of observations.
    pub count: f64,
}

impl Hist {
    /// Interpolated quantile `q` (Prometheus `histogram_quantile`
    /// rule); 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count <= 0.0 {
            return 0.0;
        }
        let rank = q * self.count;
        let mut seen = 0.0;
        for (i, (&b, &c)) in self.bounds.iter().zip(&self.counts).enumerate() {
            if seen + c >= rank && c > 0.0 {
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                if b.is_infinite() {
                    return lo;
                }
                return lo + (b - lo) * ((rank - seen) / c);
            }
            seen += c;
        }
        self.bounds
            .iter()
            .rev()
            .find(|b| b.is_finite())
            .copied()
            .unwrap_or(0.0)
    }

    /// Mean observation; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count > 0.0 {
            self.sum / self.count
        } else {
            0.0
        }
    }
}

impl Snapshot {
    /// Captures the program's registry now.
    pub fn take() -> Snapshot {
        Snapshot::parse(&m2ai_obs::export::prometheus_text())
    }

    /// Parses Prometheus text exposition.
    pub fn parse(text: &str) -> Snapshot {
        let mut snap = Snapshot::default();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                if let Some(name) = rest.split_whitespace().next() {
                    snap.families.insert(name.to_string());
                }
                continue;
            }
            if line.starts_with('#') || line.trim().is_empty() {
                continue;
            }
            let Some((key, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let v = match value {
                "+Inf" => f64::INFINITY,
                "-Inf" => f64::NEG_INFINITY,
                _ => match value.parse::<f64>() {
                    Ok(v) => v,
                    Err(_) => continue,
                },
            };
            snap.samples.insert(key.to_string(), v);
        }
        snap
    }

    /// `self − earlier`, sample by sample (new samples count from 0).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        Snapshot {
            samples: self
                .samples
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        v - earlier.samples.get(k).copied().unwrap_or(0.0),
                    )
                })
                .collect(),
            families: self.families.clone(),
        }
    }

    /// Adds `other`'s samples into `self` (accumulates windowed deltas).
    pub fn accumulate(&mut self, other: &Snapshot) {
        for (k, v) in &other.samples {
            *self.samples.entry(k.clone()).or_insert(0.0) += v;
        }
        self.families.extend(other.families.iter().cloned());
    }

    /// Whether the program exports `family`.
    pub fn has(&self, family: &str) -> bool {
        self.families.contains(family)
    }

    /// Sum of a counter family over the children whose labels include
    /// `label` (all children when `None`). `None` if not exported.
    pub fn counter(&self, family: &str, label: Option<(&str, &str)>) -> Option<f64> {
        if !self.has(family) {
            return None;
        }
        Some(
            self.samples
                .iter()
                .filter(|(k, _)| sample_name(k) == family && matches_label(k, label))
                .map(|(_, v)| v)
                .sum(),
        )
    }

    /// A histogram family merged over the children whose labels include
    /// `label` (all children when `None`). `None` if not exported.
    pub fn hist(&self, family: &str, label: Option<(&str, &str)>) -> Option<Hist> {
        if !self.has(family) {
            return None;
        }
        let bucket = format!("{family}_bucket");
        let mut cum: BTreeMap<u64, (f64, f64)> = BTreeMap::new();
        let mut sum = 0.0;
        let mut count = 0.0;
        // Cumulative counts per child, keyed by the child's label block
        // without `le`, so children can be differenced then merged.
        let mut per_child: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
        for (k, &v) in &self.samples {
            if !matches_label(k, label) {
                continue;
            }
            let name = sample_name(k);
            if name == bucket {
                let Some(le) = label_value(k, "le") else {
                    continue;
                };
                let le = if le == "+Inf" {
                    f64::INFINITY
                } else {
                    le.parse().unwrap_or(f64::INFINITY)
                };
                per_child
                    .entry(strip_label(k, "le"))
                    .or_default()
                    .push((le, v));
            } else if name == format!("{family}_sum") {
                sum += v;
            } else if name == format!("{family}_count") {
                count += v;
            }
        }
        for buckets in per_child.values_mut() {
            buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut prev = 0.0;
            for &(le, c) in buckets.iter() {
                let e = cum.entry(le.to_bits()).or_insert((le, 0.0));
                e.1 += c - prev;
                prev = c;
            }
        }
        let mut pairs: Vec<(f64, f64)> = cum.into_values().collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        Some(Hist {
            bounds: pairs.iter().map(|p| p.0).collect(),
            counts: pairs.iter().map(|p| p.1).collect(),
            sum,
            count,
        })
    }
}

/// Metric name of a sample key (text before the label block).
fn sample_name(key: &str) -> &str {
    key.split_once('{').map_or(key, |(n, _)| n)
}

/// Value of label `name` in a sample key's label block.
fn label_value<'a>(key: &'a str, name: &str) -> Option<&'a str> {
    let block = key.split_once('{')?.1.strip_suffix('}')?;
    block.split(',').find_map(|pair| {
        let (k, v) = pair.split_once('=')?;
        (k == name).then(|| v.trim_matches('"'))
    })
}

fn matches_label(key: &str, label: Option<(&str, &str)>) -> bool {
    match label {
        None => true,
        Some((k, v)) => label_value(key, k) == Some(v),
    }
}

/// The key with one label removed (identifies a histogram child).
fn strip_label(key: &str, name: &str) -> String {
    let Some((n, rest)) = key.split_once('{') else {
        return key.to_string();
    };
    let block = rest.strip_suffix('}').unwrap_or(rest);
    let kept: Vec<&str> = block
        .split(',')
        .filter(|p| p.split_once('=').is_none_or(|(k, _)| k != name))
        .collect();
    format!("{n}{{{}}}", kept.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "\
# HELP m2ai_x_seconds x
# TYPE m2ai_x_seconds histogram
m2ai_x_seconds_bucket{stage=\"a\",le=\"0.001\"} 2
m2ai_x_seconds_bucket{stage=\"a\",le=\"0.01\"} 4
m2ai_x_seconds_bucket{stage=\"a\",le=\"+Inf\"} 4
m2ai_x_seconds_sum{stage=\"a\"} 0.02
m2ai_x_seconds_count{stage=\"a\"} 4
m2ai_x_seconds_bucket{stage=\"b\",le=\"0.001\"} 1
m2ai_x_seconds_bucket{stage=\"b\",le=\"0.01\"} 1
m2ai_x_seconds_bucket{stage=\"b\",le=\"+Inf\"} 1
m2ai_x_seconds_sum{stage=\"b\"} 0.0005
m2ai_x_seconds_count{stage=\"b\"} 1
# TYPE m2ai_y_total counter
m2ai_y_total{kind=\"p\"} 3
m2ai_y_total{kind=\"q\"} 4
";

    #[test]
    fn parses_counters_and_histograms() {
        let s = Snapshot::parse(TEXT);
        assert_eq!(s.counter("m2ai_y_total", None), Some(7.0));
        assert_eq!(s.counter("m2ai_y_total", Some(("kind", "q"))), Some(4.0));
        assert_eq!(s.counter("m2ai_absent_total", None), None);
        let a = s.hist("m2ai_x_seconds", Some(("stage", "a"))).unwrap();
        assert_eq!(a.counts, vec![2.0, 2.0, 0.0]);
        assert_eq!(a.count, 4.0);
        assert!((a.sum - 0.02).abs() < 1e-12);
        let all = s.hist("m2ai_x_seconds", None).unwrap();
        assert_eq!(all.counts, vec![3.0, 2.0, 0.0]);
        assert_eq!(all.count, 5.0);
        assert!(s.hist("m2ai_absent_seconds", None).is_none());
    }

    #[test]
    fn deltas_window_a_measurement() {
        let before = Snapshot::parse(TEXT);
        let after = Snapshot::parse(
            &TEXT.replace("m2ai_y_total{kind=\"p\"} 3", "m2ai_y_total{kind=\"p\"} 10"),
        );
        let d = after.delta(&before);
        assert_eq!(d.counter("m2ai_y_total", None), Some(7.0));
        assert_eq!(d.hist("m2ai_x_seconds", None).unwrap().count, 0.0);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let h = Hist {
            bounds: vec![1.0, 2.0, f64::INFINITY],
            counts: vec![0.0, 10.0, 0.0],
            sum: 15.0,
            count: 10.0,
        };
        assert!((h.quantile(0.5) - 1.5).abs() < 1e-12);
        assert_eq!(h.mean(), 1.5);
        assert_eq!(Hist::default().quantile(0.5), 0.0);
    }
}
