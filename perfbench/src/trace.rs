//! Clock, spans and order statistics.
//!
//! Spans are recorded by the benchmark itself, around each call it makes
//! into a layer's public API; the program under test is not
//! instrumented. They stay in memory and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use popan_numeric::stats::percentile;

/// The benchmark's only clock read.
pub fn now() -> Instant {
    // popan-lint: allow(D2, "the benchmark's timings are its output, never a program result")
    Instant::now()
}

/// Nanoseconds from `a` to `b`.
pub fn ns(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// One timed interval: a call into a layer, or a benchmark unit that
/// groups such calls (a set-up, a query round, a churn epoch, a
/// registry pass).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `<layer>.<operation>`; the layer is the text before the first dot.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Shared by every span of one set-up or unit.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// In-memory span log. While disabled, every call is a no-op, so the
/// untraced path pays one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: now(),
            enabled: false,
            spans: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Opens a span that ends at a later [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        start: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let at = ns(self.origin, start);
        self.spans.push(Span {
            name,
            start_ns: at,
            end_ns: at,
            parent,
            request,
        });
        Some(self.spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>, end: Instant) {
        if let Some(span) = id.and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = ns(self.origin, end);
        }
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) {
        let id = self.open(name, start, parent, request);
        self.close(id, end);
    }

    /// Durations (ns) of the spans named `name`, restricted to those whose
    /// parent is named `parent` when given.
    pub fn durations(&self, name: &str, parent: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| match parent {
                None => true,
                Some(p) => s
                    .parent
                    .and_then(|i| self.spans.get(i))
                    .is_some_and(|ps| ps.name == p),
            })
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Each layer's self time as a percentage of the time covered by root
    /// spans. A span's self time is its duration minus its children's.
    pub fn self_share_pct(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(slot) = s.parent.and_then(|p| child_ns.get_mut(p)) {
                *slot += s.duration_ns();
            }
        }
        let mut by_layer: BTreeMap<&'static str, f64> = BTreeMap::new();
        let mut root_ns = 0.0;
        for (s, children) in self.spans.iter().zip(&child_ns) {
            if s.parent.is_none() {
                root_ns += s.duration_ns() as f64;
            }
            *by_layer.entry(s.layer()).or_default() +=
                s.duration_ns().saturating_sub(*children) as f64;
        }
        if root_ns > 0.0 {
            for v in by_layer.values_mut() {
                *v = 100.0 * *v / root_ns;
            }
        }
        by_layer
    }

    /// Writes every span as one tab-separated line:
    /// `index name start_ns end_ns parent request` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# {header}")?;
        writeln!(w, "index\tname\tstart_ns\tend_ns\tparent\trequest")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        w.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The `q`-quantile of `values`, linearly interpolated; 0 for no
/// values (a layer a workload never calls).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    percentile(values, q).unwrap_or(0.0)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.99), 9.9);
    }

    #[test]
    fn self_share_subtracts_children() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        let t0 = t.origin;
        let at = |n: u64| t0 + std::time::Duration::from_nanos(n);
        let root = t.open("bench.unit", at(0), None, 0);
        t.record("query.range", at(10), at(40), root, 0);
        t.record("spatial.insert", at(50), at(60), root, 0);
        t.close(root, at(100));
        let share = t.self_share_pct();
        assert_eq!(share["bench"], 60.0);
        assert_eq!(share["query"], 30.0);
        assert_eq!(share["spatial"], 10.0);
        assert_eq!(t.durations("query.range", Some("bench.unit")), vec![30.0]);
        assert!(t.durations("query.range", Some("bench.pass")).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let s = now();
        let id = t.open("bench.unit", s, None, 0);
        t.record("query.range", s, s, id, 0);
        t.close(id, s);
        assert!(t.durations("query.range", None).is_empty());
        assert!(t.self_share_pct().is_empty());
    }
}
