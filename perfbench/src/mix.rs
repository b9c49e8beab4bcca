//! The mixed query load, its answer digests, and the oracles that check
//! them.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::time::Instant;

use popan_geom::{Point2, Rect};
use popan_query::{range_by_scan, Snapshot};
use popan_rng::hash::Fnv64;
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::{knn_cmp, CostBudget, QueryScratch};

use crate::trace::{median, now, quantile, Tracer};
use crate::Measured;

/// Salt separating the query stream from the point streams of one seed.
const MIX_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// One query of the load.
#[derive(Debug, Clone, Copy)]
pub enum Query {
    Range(Rect),
    Count(Rect),
    Knn(Point2, usize),
}

impl Query {
    /// The span recorded around this query's serving call.
    pub fn span_name(&self) -> &'static str {
        match self {
            Query::Range(_) => "query.range",
            Query::Count(_) => "query.count",
            Query::Knn(..) => "query.knn",
        }
    }

    /// 0, 1, 2 for range, count, k-NN.
    pub fn kind(&self) -> usize {
        match self {
            Query::Range(_) => 0,
            Query::Count(_) => 1,
            Query::Knn(..) => 2,
        }
    }
}

pub const KIND_NAMES: [&str; 3] = ["range", "count", "knn"];

/// `len` queries: a third range, a third count (square windows with side
/// 0.005–0.15 inside the unit square), a third k-NN with k = 1..16.
pub fn generate(seed: u64, len: usize) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(seed ^ MIX_SALT);
    (0..len)
        .map(|qi| {
            let x = rng.random_range(0.0..0.85);
            let y = rng.random_range(0.0..0.85);
            let w = rng.random_range(0.005..0.15);
            match qi % 3 {
                0 => Query::Range(Rect::from_bounds(x, y, x + w, y + w)),
                1 => Query::Count(Rect::from_bounds(x, y, x + w, y + w)),
                _ => Query::Knn(Point2::new(x, y), 1 + qi % 16),
            }
        })
        .collect()
}

fn points_digest(kind: usize, points: &[Point2]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(kind as u64);
    h.write_u64(points.len() as u64);
    for p in points {
        h.write_f64(p.x);
        h.write_f64(p.y);
    }
    h.finish()
}

fn count_digest(count: usize) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(1);
    h.write_u64(count as u64);
    h.finish()
}

/// Answers `q` on `snap` through its serving form. Only the call itself
/// lies between the two returned instants; the digest is taken after.
pub fn serve(
    snap: &Snapshot,
    q: &Query,
    scratch: &mut QueryScratch,
    out: &mut Vec<Point2>,
) -> (Instant, Instant, u64) {
    match q {
        Query::Range(r) => {
            let t0 = now();
            snap.range_into(r, scratch, out);
            let t1 = now();
            (t0, t1, points_digest(0, out))
        }
        Query::Count(r) => {
            let t0 = now();
            let c = snap.count_with(r, scratch);
            let t1 = now();
            (t0, t1, count_digest(c))
        }
        Query::Knn(target, k) => {
            let t0 = now();
            snap.knn_into(target, *k, scratch, out);
            let t1 = now();
            (t0, t1, points_digest(2, out))
        }
    }
}

/// The digest of the answer a full scan of `points` gives.
pub fn scan_digest(points: &[Point2], q: &Query, buf: &mut Vec<(f64, Point2)>) -> u64 {
    match q {
        Query::Range(r) => points_digest(0, &range_by_scan(points.iter().copied(), r)),
        Query::Count(r) => count_digest(range_by_scan(points.iter().copied(), r).len()),
        Query::Knn(target, k) => {
            // `knn_by_scan` sorts every point per query, which made this
            // check the run's bottleneck; one pass keeping the k best so
            // far, in `knn_cmp` order, gives the same answer.
            buf.clear();
            for p in points {
                let cand = (p.distance_squared(target), *p);
                if buf.len() == *k {
                    match buf.last() {
                        Some(worst) if knn_cmp(&cand, worst) == Ordering::Less => buf.pop(),
                        _ => continue,
                    };
                }
                let at = buf.partition_point(|e| knn_cmp(e, &cand) == Ordering::Less);
                buf.insert(at, cand);
            }
            let nearest: Vec<Point2> = buf.iter().map(|&(_, p)| p).collect();
            points_digest(2, &nearest)
        }
    }
}

/// Latencies of the queries served in untraced units.
#[derive(Debug, Default)]
pub struct Latencies {
    by_kind: [Vec<f64>; 3],
    all: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, q: &Query, ns: u64) {
        self.by_kind[q.kind()].push(ns as f64);
        self.all.push(ns as f64);
    }

    /// Sets `op_p50_us` and `op_p99_us`, and reports each kind's p50 and
    /// the sample count.
    pub fn report(&self, m: &mut Measured) {
        m.e2e.insert("op_p50_us", median(&self.all) / 1e3);
        m.e2e.insert("op_p99_us", quantile(&self.all, 0.99) / 1e3);
        m.report.push(format!("samples op={}", self.all.len()));
        for (kind, l) in KIND_NAMES.iter().zip(&self.by_kind) {
            m.report
                .push(format!("metric {kind}_p50_us {} us", median(l) / 1e3));
        }
    }
}

/// Per-layer p50 of each query kind's serving call, over the spans whose
/// parent unit is named `unit`.
pub fn query_layers(tr: &Tracer, unit: &str, m: &mut Measured) {
    for kind in KIND_NAMES {
        let d = tr.durations(&format!("query.{kind}"), Some(unit));
        m.layers
            .insert(format!("query.{kind}_us"), median(&d) / 1e3);
    }
}

/// Deterministic per-query work counts of `mix` on `snap`, from the
/// bounded forms under an unlimited budget, taken outside every span.
/// The k-NN counts are leaves *charged*: its pruning sweep over every
/// leaf block is not charged.
pub fn cost_counters(snap: &Snapshot, mix: &[Query]) -> BTreeMap<String, f64> {
    let budget = CostBudget::unbounded();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut sums = [[0u64; 3]; 3]; // [kind][leaves, points, queries]
    let mut range_hits = 0u64;
    for q in mix {
        let visited = match q {
            Query::Range(r) => {
                let o = snap.range_bounded_into(r, &budget, &mut scratch, &mut out);
                range_hits += out.len() as u64;
                o.visited()
            }
            Query::Count(r) => snap
                .count_bounded_with(r, &budget, &mut scratch)
                .1
                .visited(),
            Query::Knn(t, k) => snap
                .knn_bounded_into(t, *k, &budget, &mut scratch, &mut out)
                .visited(),
        };
        let s = &mut sums[q.kind()];
        s[0] += visited.leaf_visits;
        s[1] += visited.point_visits;
        s[2] += 1;
    }
    let mean = |a: u64, n: u64| if n == 0 { 0.0 } else { a as f64 / n as f64 };
    let mut c = BTreeMap::new();
    for (kind, s) in KIND_NAMES.iter().zip(sums) {
        c.insert(format!("query.{kind}_leaves"), mean(s[0], s[2]));
        c.insert(format!("query.{kind}_points"), mean(s[1], s[2]));
    }
    c.insert("query.range_hits".into(), mean(range_hits, sums[0][2]));
    c.insert("query.leaves".into(), snap.leaf_count() as f64);
    c.insert(
        "query.bytes_per_point".into(),
        snap.heap_bytes() as f64 / snap.len().max(1) as f64,
    );
    c
}

/// Report lines for the deterministic counters, pinned by the self-test.
pub fn counter_lines(counters: &BTreeMap<String, f64>) -> Vec<String> {
    counters
        .iter()
        .map(|(k, v)| format!("counter {k} {v}"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use popan_workload::points::{PointSource, UniformRect};

    #[test]
    fn scan_oracle_agrees_with_the_snapshot() {
        let mut rng = StdRng::seed_from_u64(7);
        let pts = UniformRect::unit().sample_n(&mut rng, 500);
        let snap = Snapshot::from_points(0, Rect::unit(), 4, pts.iter().copied()).unwrap();
        let mut scratch = QueryScratch::new();
        let mut out = Vec::new();
        let mut buf = Vec::new();
        for q in generate(3, 60) {
            let (_, _, d) = serve(&snap, &q, &mut scratch, &mut out);
            assert_eq!(d, scan_digest(&pts, &q, &mut buf), "{q:?}");
        }
    }
}
