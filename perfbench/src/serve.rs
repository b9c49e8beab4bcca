//! `serve_uniform`: 10⁵ uniform points frozen straight into a snapshot,
//! verified and published, then one reader answering a fixed 4096-query
//! mix in a closed loop, round after round.
//!
//! The query tier does nearly all of the pass's work; the freeze and
//! publish layers show only in `setup_s`.

use popan_geom::{Point2, Rect};
use popan_query::{Snapshot, SnapshotPublisher, SnapshotReader};
use popan_rng::hash::Fnv64;
use popan_rng::rngs::StdRng;
use popan_rng::SeedableRng;
use popan_spatial::QueryScratch;
use popan_workload::points::{PointSource, UniformRect};

use crate::mix;
use crate::trace::{mean, median, now, ns, Tracer};
use crate::{publish_first, unit_traced, Measured, RunConfig};

const CAPACITY: usize = 8;
const POINT_SALT: u64 = 0x5e_21e;

struct Size {
    points: usize,
    mix: usize,
    min_rounds: usize,
}

const FULL: Size = Size {
    points: 100_000,
    mix: 4096,
    min_rounds: 2,
};

const TINY: Size = Size {
    points: 2_000,
    mix: 96,
    min_rounds: 2,
};

/// A published snapshot and the reader serving it.
struct Served {
    _publisher: SnapshotPublisher,
    reader: SnapshotReader,
}

/// One set-up, from generated points to a reader serving the published
/// epoch. Returns the time spent inside the calls.
fn setup(points: &[Point2], m: &mut Measured, tr: &mut Tracer, request: u64) -> (Served, u64) {
    let root = tr.open("bench.setup", now(), None, request);
    let t0 = now();
    let snap = Snapshot::from_points(0, Rect::unit(), CAPACITY, points.iter().copied())
        .expect("unit-square points always freeze");
    let t1 = now();
    tr.record("query.from_points", t0, t1, root, request);
    let (publisher, reader, t2) = publish_first(snap, CAPACITY, m, tr, root, request);
    tr.close(root, t2);
    let served = Served {
        _publisher: publisher,
        reader,
    };
    (served, ns(t0, t2))
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> (Measured, Vec<(bool, f64)>) {
    let size = if cfg.tiny { &TINY } else { &FULL };
    let mut m = Measured::default();
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ POINT_SALT);
    let points = UniformRect::unit().sample_n(&mut rng, size.points);
    let queries = mix::generate(cfg.seed, size.mix);

    tr.set_enabled(cfg.trace);
    let mut request = 0u64;
    let (mut served, t) = setup(&points, &mut m, tr, request);
    let mut setup_ns = vec![t as f64];
    tr.set_enabled(false);
    let snapshot_digest = served.reader.cached().digests();

    // Every distinct query once against a full scan of the points.
    let mut scan_buf = Vec::new();
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut verified = Vec::with_capacity(queries.len());
    let mut answers = Fnv64::new();
    for (qi, q) in queries.iter().enumerate() {
        let mut expected = mix::scan_digest(&points, q, &mut scan_buf);
        if cfg.plant && qi == 0 {
            expected ^= 1;
        }
        let (_, _, got) = mix::serve(served.reader.cached(), q, &mut scratch, &mut out);
        m.check(got == expected);
        answers.write_u64(expected);
        verified.push(expected);
    }
    let counters = mix::cost_counters(served.reader.cached(), &queries);

    // The pass: closed-loop rounds over the mix, each followed by a fresh
    // set-up that the next round serves from, so set-up and serving are
    // sampled across the same stretch of the run.
    let mut units = Vec::new();
    let mut lat = mix::Latencies::default();
    let start = now();
    let mut round = 0usize;
    while round < size.min_rounds || ns(start, now()) as f64 / 1e9 < cfg.seconds {
        let traced = unit_traced(cfg, round);
        tr.set_enabled(traced);
        request += 1;
        let root = tr.open("bench.round", now(), None, request);
        let snap = served.reader.cached();
        let mut round_ns = 0u64;
        for (q, expected) in queries.iter().zip(&verified) {
            let (t0, t1, got) = mix::serve(snap, q, &mut scratch, &mut out);
            tr.record(q.span_name(), t0, t1, root, request);
            let d = ns(t0, t1);
            round_ns += d;
            if !traced {
                lat.push(q, d);
            }
            m.check(got == *expected);
        }
        tr.close(root, now());
        units.push((traced, round_ns as f64));
        round += 1;

        request += 1;
        drop(served);
        let (next, t) = setup(&points, &mut m, tr, request);
        served = next;
        setup_ns.push(t as f64);
        m.check(served.reader.cached().digests() == snapshot_digest);
    }
    tr.set_enabled(false);

    let plain: Vec<f64> = units.iter().filter(|u| !u.0).map(|u| u.1).collect();
    let pass_s = mean(&plain) / 1e9;
    m.e2e.insert("setup_s", median(&setup_ns) / 1e9);
    m.e2e.insert("pass_s", pass_s);
    m.report.push(format!(
        "metric ops_per_s {} 1/s",
        queries.len() as f64 / pass_s
    ));
    lat.report(&mut m);
    m.report.push(format!(
        "samples rounds={} setups={}",
        plain.len(),
        setup_ns.len()
    ));

    let p50 = |name: &str, scale: f64| median(&tr.durations(name, None)) / scale;
    m.layers
        .insert("query.from_points_ms".into(), p50("query.from_points", 1e6));
    m.layers
        .insert("query.publish_ms".into(), p50("query.publish", 1e6));
    m.layers
        .insert("query.refresh_us".into(), p50("query.refresh", 1e3));
    mix::query_layers(tr, "bench.round", &mut m);
    m.report.extend(mix::counter_lines(&counters));
    m.report
        .push(format!("digest serve.answers {:016x}", answers.finish()));
    m.report.push(format!(
        "digest serve.snapshot {:016x}",
        snapshot_digest.combined
    ));
    m.layers.extend(counters);
    (m, units)
}
