//! Benchmark-side spans around each call into a layer's public entry
//! point. Spans stay in memory and are written out when the run ends.
//!
//! When the tracer is off (`--trace 0`) every method is a branch and a
//! direct call: nothing is timed or stored.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Layer entry point, e.g. `ServeEngine::tick`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

/// Handle to an open span (see [`Tracer::begin`]).
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Default)]
pub struct NameStats {
    /// Spans with this name.
    pub count: usize,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus covered child time), seconds.
    pub self_s: f64,
    /// Individual durations, seconds.
    pub durations: Vec<f64>,
}

impl Tracer {
    /// A tracer that records (`on`) or does nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Switches recording on or off (the traced run alternates traced
    /// and untraced passes to measure tracing overhead).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(SpanRec {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, span: Open) {
        if let Some(id) = span.0 {
            let end = self.now_ns();
            self.spans[id as usize].end = end;
            if let Some(pos) = self.open.iter().rposition(|&o| o == id) {
                self.open.truncate(pos);
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    #[inline]
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Totals and self time per span name, over spans whose index is in
    /// `from..` (a pass's spans start where the previous pass's ended).
    pub fn by_name(&self, from: usize) -> BTreeMap<&'static str, NameStats> {
        let spans = &self.spans[from.min(self.spans.len())..];
        let mut child_time = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                if let Some(i) = (p as usize).checked_sub(from) {
                    child_time[i] += s.end - s.start;
                }
            }
        }
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (s, child) in spans.iter().zip(child_time) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child) as f64 * 1e-9;
            e.durations.push(dur as f64 * 1e-9);
        }
        out
    }

    /// [`Tracer::by_name`] restricted to the direct children of spans
    /// named `root`.
    pub fn by_name_within(&self, root: &str, from: usize) -> BTreeMap<&'static str, NameStats> {
        let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for s in &self.spans[from.min(self.spans.len())..] {
            let parent = s.parent.and_then(|p| self.spans.get(p as usize));
            if parent.is_some_and(|p| p.name == root) {
                let dur = (s.end - s.start) as f64 * 1e-9;
                let e = out.entry(s.name).or_default();
                e.count += 1;
                e.total_s += dur;
                e.self_s += dur;
                e.durations.push(dur);
            }
        }
        out
    }

    /// Share of each span named `root`'s duration covered by its direct
    /// children, over spans from index `from` on. `None` without roots.
    pub fn coverage(&self, root: &str, from: usize) -> Option<f64> {
        let spans = &self.spans[from.min(self.spans.len())..];
        let mut root_total = 0u64;
        let mut covered = 0u64;
        for s in spans {
            if s.name == root {
                root_total += s.end - s.start;
            }
            let parent = s.parent.and_then(|p| self.spans.get(p as usize));
            if parent.is_some_and(|p| p.name == root) {
                covered += s.end - s.start;
            }
        }
        (root_total > 0).then(|| covered as f64 / root_total as f64)
    }

    /// Writes up to `cap` spans as a Chrome trace (`chrome://tracing`,
    /// Perfetto) to `path`.
    pub fn write_chrome(&self, path: &std::path::Path, cap: usize) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().take(cap).enumerate() {
            let sep = if i == 0 { "" } else { "," };
            writeln!(
                w,
                "{sep}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3
            )?;
        }
        writeln!(w, "],\"displayTimeUnit\":\"ms\"}}")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {}
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.call("x", || 7);
        let s = t.begin("y");
        t.end(s);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
        assert!(t.coverage("y", 0).is_none());
    }

    #[test]
    fn self_time_excludes_children_and_coverage_counts_them() {
        let mut t = Tracer::new(true);
        let root = t.begin("pass");
        t.call("child", || spin(2000));
        spin(2000);
        t.end(root);
        let stats = t.by_name(0);
        let pass = &stats["pass"];
        let child = &stats["child"];
        assert_eq!(pass.count, 1);
        assert!(pass.self_s < pass.total_s);
        assert!((pass.self_s + child.total_s - pass.total_s).abs() < 1e-9);
        let cov = t.coverage("pass", 0).unwrap();
        assert!(cov > 0.2 && cov < 0.8, "coverage {cov}");
    }
}
