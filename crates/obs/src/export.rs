//! Registry exporters: a versioned JSON snapshot and the Prometheus
//! text exposition format, plus line-format lints for both.
//!
//! The workspace carries no serde, so the JSON is hand-rolled with a
//! fixed key order — the same policy as the bench baselines
//! (`BENCH_*.json`). Schema version: [`SNAPSHOT_SCHEMA`]; bump it if
//! the key structure ever changes so downstream scrapers fail loudly
//! instead of misparsing.

use crate::{snapshot, HistogramSnapshot, MetricSnapshot, MetricValue};
use std::fmt::Write as _;

/// Schema tag stamped into every JSON snapshot.
pub const SNAPSHOT_SCHEMA: &str = "m2ai-obs-v1";

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Finite floats render as numbers, non-finite as `null` (JSON has no
/// NaN/Inf) — the same convention as the bench reports.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // Ensure the value re-parses as a float, not an integer.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

fn json_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "\"{}\": \"{}\"", json_escape(k), json_escape(v));
    }
    out.push('}');
    out
}

fn json_histogram(h: &HistogramSnapshot, indent: &str) -> String {
    let mut out = String::new();
    let p99 = h.quantile(0.99);
    let _ = write!(
        out,
        "\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"p99_saturated\": {},\n{indent}\"buckets\": [",
        h.count,
        json_f64(h.sum),
        json_f64(h.quantile(0.50).value),
        json_f64(h.quantile(0.95).value),
        json_f64(p99.value),
        p99.saturated,
    );
    for (i, &n) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let le = h
            .bounds
            .get(i)
            .map(|b| json_f64(*b))
            .unwrap_or_else(|| "null".to_string()); // +Inf bucket
        let _ = write!(out, "{{\"le\": {le}, \"count\": {n}}}");
    }
    out.push(']');
    out
}

/// Renders the whole registry as one JSON document (stable key and
/// entry order; see [`SNAPSHOT_SCHEMA`]).
pub fn snapshot_json() -> String {
    render_snapshot_json(&snapshot())
}

/// [`snapshot_json`] over an explicit snapshot (for tests).
pub fn render_snapshot_json(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema\": \"{SNAPSHOT_SCHEMA}\",");
    let _ = writeln!(out, "  \"enabled\": {},", crate::enabled());
    out.push_str("  \"metrics\": [\n");
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"name\": \"{}\", \"kind\": \"{}\", \"labels\": {},\n     \"help\": \"{}\",\n     ",
            json_escape(m.name),
            m.kind().as_str(),
            json_labels(m.labels),
            json_escape(m.help),
        );
        match &m.value {
            MetricValue::Counter(n) => {
                let _ = write!(out, "\"value\": {n}");
            }
            MetricValue::Gauge(v) => {
                let _ = write!(out, "\"value\": {v}");
            }
            MetricValue::Histogram(h) => out.push_str(&json_histogram(h, "     ")),
        }
        out.push('}');
        if i + 1 < metrics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

fn prom_escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn prom_labels(labels: &[(&str, &str)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
        .collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Renders the whole registry in the Prometheus text exposition
/// format (one `# HELP`/`# TYPE` pair per family, children grouped).
pub fn prometheus_text() -> String {
    render_prometheus(&snapshot())
}

/// [`prometheus_text`] over an explicit snapshot (for tests).
pub fn render_prometheus(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family: Option<&str> = None;
    for m in metrics {
        if last_family != Some(m.name) {
            let _ = writeln!(out, "# HELP {} {}", m.name, prom_escape(m.help));
            let _ = writeln!(out, "# TYPE {} {}", m.name, m.kind().as_str());
            last_family = Some(m.name);
        }
        match &m.value {
            MetricValue::Counter(n) => {
                let _ = writeln!(out, "{}{} {n}", m.name, prom_labels(m.labels, None));
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {v}", m.name, prom_labels(m.labels, None));
            }
            MetricValue::Histogram(h) => {
                let mut cum = 0u64;
                for (i, &n) in h.buckets.iter().enumerate() {
                    cum += n;
                    let le = h
                        .bounds
                        .get(i)
                        .map(|b| prom_f64(*b))
                        .unwrap_or_else(|| "+Inf".to_string());
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {cum}",
                        m.name,
                        prom_labels(m.labels, Some(("le", &le)))
                    );
                }
                let _ = writeln!(
                    out,
                    "{}_sum{} {}",
                    m.name,
                    prom_labels(m.labels, None),
                    prom_f64(h.sum)
                );
                let _ = writeln!(
                    out,
                    "{}_count{} {}",
                    m.name,
                    prom_labels(m.labels, None),
                    h.count
                );
            }
        }
    }
    out
}

fn valid_metric_name(s: &str) -> bool {
    !s.is_empty()
        && !s.starts_with(|c: char| c.is_ascii_digit())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_label_block(s: &str) -> bool {
    // `{k="v",k2="v2"}` — quotes may contain escaped chars.
    let Some(inner) = s.strip_prefix('{').and_then(|s| s.strip_suffix('}')) else {
        return false;
    };
    if inner.is_empty() {
        return false; // we never emit empty brace blocks
    }
    let mut rest = inner;
    loop {
        let Some(eq) = rest.find('=') else {
            return false;
        };
        let key = &rest[..eq];
        if !valid_metric_name(key) {
            return false;
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return false;
        }
        // Scan to the closing unescaped quote.
        let mut end = None;
        let bytes = after.as_bytes();
        let mut i = 1;
        while i < bytes.len() {
            match bytes[i] {
                b'\\' => i += 2,
                b'"' => {
                    end = Some(i);
                    break;
                }
                _ => i += 1,
            }
        }
        let Some(end) = end else {
            return false;
        };
        rest = &after[end + 1..];
        if rest.is_empty() {
            return true;
        }
        let Some(stripped) = rest.strip_prefix(',') else {
            return false;
        };
        rest = stripped;
    }
}

fn valid_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Line-format lint for the Prometheus text exposition format.
///
/// Checks every line is a well-formed comment or sample, that sample
/// names are valid, label blocks parse, values are numeric, and that
/// every sampled family was declared with a `# TYPE` line. Returns one
/// message per violation (empty = clean).
pub fn validate_prometheus(text: &str) -> Vec<String> {
    let mut errors = Vec::new();
    let mut typed: Vec<&str> = Vec::new();
    let mut sampled: Vec<(usize, String)> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let n = ln + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            if let Some(decl) = rest.strip_prefix("TYPE ") {
                let mut parts = decl.split_whitespace();
                let (name, kind) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
                if !valid_metric_name(name) {
                    errors.push(format!("line {n}: bad TYPE metric name {name:?}"));
                }
                if !matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ) {
                    errors.push(format!("line {n}: bad TYPE kind {kind:?}"));
                }
                typed.push(name);
            } else if rest.strip_prefix("HELP ").is_none() {
                errors.push(format!("line {n}: unknown comment directive"));
            }
            continue;
        }
        if line.starts_with('#') {
            errors.push(format!("line {n}: comments must start with '# '"));
            continue;
        }
        // Sample: name[{labels}] value
        let Some(space) = line.rfind(' ') else {
            errors.push(format!("line {n}: sample has no value"));
            continue;
        };
        let (head, value) = (&line[..space], &line[space + 1..]);
        if !valid_sample_value(value) {
            errors.push(format!("line {n}: non-numeric sample value {value:?}"));
        }
        let (name, labels) = match head.find('{') {
            Some(b) => (&head[..b], &head[b..]),
            None => (head, ""),
        };
        if !valid_metric_name(name) {
            errors.push(format!("line {n}: bad sample metric name {name:?}"));
        }
        if !labels.is_empty() && !valid_label_block(labels) {
            errors.push(format!("line {n}: malformed label block {labels:?}"));
        }
        sampled.push((n, name.to_string()));
    }
    for (n, name) in &sampled {
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .filter(|f| typed.contains(f))
            .unwrap_or(name);
        if !typed.contains(&family) {
            errors.push(format!(
                "line {n}: sample {name:?} has no # TYPE declaration"
            ));
        }
    }
    errors
}

/// Structural lint for the JSON snapshot: schema tag, balanced
/// braces/brackets, and the per-kind required keys. Returns one
/// message per violation (empty = clean). This is a shape check, not a
/// JSON parser — the snapshot is machine-generated, so shape is what
/// can drift.
pub fn validate_snapshot_json(json: &str) -> Vec<String> {
    let mut errors = Vec::new();
    if !json.contains(&format!("\"schema\": \"{SNAPSHOT_SCHEMA}\"")) {
        errors.push(format!("missing schema tag {SNAPSHOT_SCHEMA:?}"));
    }
    if !json.contains("\"metrics\": [") {
        errors.push("missing metrics array".to_string());
    }
    let mut depth_brace = 0i64;
    let mut depth_bracket = 0i64;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_string = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_string = true,
            '{' => depth_brace += 1,
            '}' => depth_brace -= 1,
            '[' => depth_bracket += 1,
            ']' => depth_bracket -= 1,
            _ => {}
        }
        if depth_brace < 0 || depth_bracket < 0 {
            errors.push("unbalanced braces/brackets".to_string());
            return errors;
        }
    }
    if depth_brace != 0 || depth_bracket != 0 || in_string {
        errors.push("unterminated structure".to_string());
    }
    for (kind, key) in [
        ("histogram", "\"buckets\": ["),
        ("histogram", "\"p99\": "),
        ("histogram", "\"p99_saturated\": "),
        ("counter", "\"value\": "),
    ] {
        if json.contains(&format!("\"kind\": \"{kind}\"")) && !json.contains(key) {
            errors.push(format!("{kind} entries present but no {key:?} key"));
        }
    }
    // A saturated p99 on a latency family means mass escaped past the
    // largest finite bucket — the reported number is a floor, and a
    // dashboard reading it as-is under-reports tail latency. Flag it.
    for chunk in json.split("{\"name\": \"").skip(1) {
        let name = chunk.split('"').next().unwrap_or("");
        if name.ends_with("_seconds") && chunk.contains("\"p99_saturated\": true") {
            errors.push(format!("saturated p99 on latency family {name:?}"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{counter, gauge, histogram, test_lock};

    fn populate() {
        counter("test_export_reads_total", "reads", &[("kind", "ok")]).add(3);
        gauge("test_export_depth", "queue depth", &[]).set(-2);
        let h = histogram(
            "test_export_lat_seconds",
            "latency",
            &[],
            &[0.001, 0.01, 0.1],
        );
        h.observe(0.005);
        h.observe(0.05);
        h.observe(0.09);
    }

    #[test]
    fn json_snapshot_is_versioned_and_lints_clean() {
        let _g = test_lock();
        populate();
        let json = snapshot_json();
        assert!(json.contains(SNAPSHOT_SCHEMA));
        assert!(json.contains("\"name\": \"test_export_reads_total\""));
        assert!(json.contains("\"kind\": \"histogram\""));
        let errors = validate_snapshot_json(&json);
        assert!(errors.is_empty(), "snapshot lint failed: {errors:?}");
    }

    #[test]
    fn prometheus_text_lints_clean_and_has_families() {
        let _g = test_lock();
        populate();
        let text = prometheus_text();
        assert!(text.contains("# TYPE test_export_reads_total counter"));
        assert!(text.contains("test_export_reads_total{kind=\"ok\"}"));
        assert!(text.contains("# TYPE test_export_lat_seconds histogram"));
        assert!(text.contains("test_export_lat_seconds_bucket"));
        assert!(text.contains("le=\"+Inf\""));
        let errors = validate_prometheus(&text);
        assert!(errors.is_empty(), "prometheus lint failed: {errors:?}");
    }

    #[test]
    fn histogram_bucket_lines_are_cumulative() {
        let _g = test_lock();
        // A histogram no other test feeds, so the counts are this
        // test's own whatever order the tests run in.
        let h = histogram(
            "test_export_cumulative_seconds",
            "latency",
            &[],
            &[0.001, 0.01, 0.1],
        );
        h.observe(0.005);
        h.observe(0.05);
        h.observe(0.09);
        let text = prometheus_text();
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("test_export_cumulative_seconds_bucket"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert_eq!(counts.len(), 4, "3 finite bounds + the +Inf bucket");
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(counts, [0, 1, 3, 3]);
    }

    #[test]
    fn lint_catches_malformed_lines() {
        let _g = test_lock();
        let bad = "##nope\nmetric_without_value\n1bad_name 3\nok_metric{k=} 1\nunknown_family 1\n";
        let errors = validate_prometheus(bad);
        assert!(errors.len() >= 5, "expected many violations: {errors:?}");
        let good = "# HELP m 1\n# TYPE m counter\nm{a=\"b\"} 4\n";
        assert!(validate_prometheus(good).is_empty());
    }

    #[test]
    fn snapshot_lint_catches_truncation() {
        let _g = test_lock();
        populate();
        let json = snapshot_json();
        let truncated = &json[..json.len() / 2];
        assert!(!validate_snapshot_json(truncated).is_empty());
        assert!(!validate_snapshot_json("{}").is_empty());
    }

    #[test]
    fn json_f64_stays_a_float() {
        let _g = test_lock();
        assert_eq!(json_f64(3.0), "3.0");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5e-7).parse::<f64>().unwrap(), 1.5e-7);
    }

    /// A session/shard label value with every awkward character class:
    /// quotes, backslashes, a newline, and a control byte.
    const HOSTILE: &str = "sess\"7\\path\nline\x01end";

    #[test]
    fn prometheus_escapes_hostile_label_values() {
        let _g = test_lock();
        counter(
            "test_export_hostile_total",
            "hostile labels",
            &[("session", HOSTILE), ("shard", "s\\3\"")],
        )
        .inc();
        let text = prometheus_text();
        let line = text
            .lines()
            .find(|l| l.starts_with("test_export_hostile_total{"))
            .expect("sample line present");
        // Quotes and backslashes must arrive escaped, newlines as \n —
        // the exposition format is line-oriented, so a raw newline
        // would split the sample in two.
        assert!(line.contains("session=\"sess\\\"7\\\\path\\nline\x01end\""));
        assert!(line.contains("shard=\"s\\\\3\\\"\""));
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("test_export_hostile_total"))
                .count(),
            3,
            "HELP + TYPE + one sample line, nothing split"
        );
        let errors = validate_prometheus(&text);
        assert!(
            errors.is_empty(),
            "hostile labels broke the lint: {errors:?}"
        );
    }

    #[test]
    fn json_escapes_hostile_label_values() {
        let _g = test_lock();
        counter(
            "test_export_hostile_json_total",
            "hostile labels",
            &[("session", HOSTILE)],
        )
        .inc();
        let json = snapshot_json();
        // \x01 is below 0x20 so it must render as a \u escape; quotes
        // and backslashes escaped; the raw newline must not appear
        // inside the string.
        assert!(json.contains("\"session\": \"sess\\\"7\\\\path\\nline\\u0001end\""));
        let errors = validate_snapshot_json(&json);
        assert!(
            errors.is_empty(),
            "hostile labels broke the lint: {errors:?}"
        );
    }

    #[test]
    fn snapshot_lint_flags_saturated_latency_p99() {
        // An explicit snapshot (not the global registry) so the
        // deliberately-saturated family doesn't fail the other tests'
        // whole-registry lint checks.
        let sat = MetricSnapshot {
            name: "test_export_sat_seconds",
            help: "saturating latency",
            labels: &[],
            value: MetricValue::Histogram(HistogramSnapshot {
                bounds: vec![0.001, 0.01],
                buckets: vec![0, 0, 10], // all mass in the +Inf bucket
                count: 10,
                sum: 50.0,
            }),
        };
        let json = render_snapshot_json(&[sat]);
        let errors = validate_snapshot_json(&json);
        assert!(
            errors
                .iter()
                .any(|e| e.contains("saturated p99") && e.contains("test_export_sat_seconds")),
            "lint must flag the saturated family: {errors:?}"
        );
        // The same mass under a non-latency name is not an error.
        let batch = MetricSnapshot {
            name: "test_export_sat_batch",
            help: "batch sizes",
            labels: &[],
            value: MetricValue::Histogram(HistogramSnapshot {
                bounds: vec![1.0, 2.0],
                buckets: vec![0, 0, 10],
                count: 10,
                sum: 50.0,
            }),
        };
        let json = render_snapshot_json(&[batch]);
        assert!(validate_snapshot_json(&json).is_empty());
    }
}
