//! `churn_clustered`: 2×10⁵ clustered points (64 parents, σ = 0.02) in a
//! PR quadtree, then epochs that each replace 2.5% of the live set
//! (removes of uniformly chosen live points, inserts of fresh clustered
//! points), re-freeze, publish, refresh the reader and answer a few
//! queries of the mix.
//!
//! Incremental writes and the freeze/publish dominate; queries are a
//! small share. Work moved from query time into freeze time shows here,
//! on skewed, deeper trees.

use popan_geom::{Point2, Rect};
use popan_query::{Snapshot, SnapshotPublisher, SnapshotReader};
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::{PrQuadtree, QueryScratch};
use popan_workload::points::{Clustered, PointSource};

use crate::mix;
use crate::trace::{mean, median, now, ns, Tracer};
use crate::{publish_first, unit_traced, Measured, RunConfig};

const CAPACITY: usize = 8;
const CLUSTERS: usize = 64;
const SPREAD: f64 = 0.02;
/// The parent centres are one fixed draw, so seeds vary the points and
/// the churn but not where the clusters sit (which alone moved set-up
/// time by a third between seeds).
const CENTRE_SEED: u64 = 0xc1_05e;
const POINT_SALT: u64 = 0x9017_5a17;
const WRITE_SALT: u64 = 0xc4_u64 << 32;
/// Epochs between two set-ups; each set-up rebuilds from the live set.
const SETUP_EVERY: usize = 8;

struct Size {
    points: usize,
    /// Removes per epoch, and as many inserts.
    replace: usize,
    queries: usize,
    min_epochs: usize,
    /// The deterministic counters are taken after this many epochs.
    count_epoch: usize,
}

const FULL: Size = Size {
    points: 200_000,
    replace: 5_000,
    queries: 32,
    min_epochs: 2 * SETUP_EVERY,
    count_epoch: SETUP_EVERY,
};

const TINY: Size = Size {
    points: 3_000,
    replace: 75,
    queries: 8,
    min_epochs: 2 * SETUP_EVERY,
    count_epoch: SETUP_EVERY,
};

/// The tree, its publisher and the reader serving its last freeze.
struct Served {
    tree: PrQuadtree,
    publisher: SnapshotPublisher,
    reader: SnapshotReader,
}

/// One set-up: build, freeze, publish, refresh a reader. Returns the time
/// spent inside the calls.
fn setup(points: &[Point2], m: &mut Measured, tr: &mut Tracer, request: u64) -> (Served, u64) {
    let root = tr.open("bench.setup", now(), None, request);
    let t0 = now();
    let tree = PrQuadtree::build(Rect::unit(), CAPACITY, points.iter().copied())
        .expect("unit-square points always build");
    let t1 = now();
    let snap = Snapshot::freeze(0, &tree).expect("clustered trees stay within Morton depth");
    let t2 = now();
    tr.record("spatial.build", t0, t1, root, request);
    tr.record("query.freeze", t1, t2, root, request);
    let (publisher, reader, t3) = publish_first(snap, CAPACITY, m, tr, root, request);
    tr.close(root, t3);
    let served = Served {
        tree,
        publisher,
        reader,
    };
    (served, ns(t0, t3))
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> (Measured, Vec<(bool, f64)>) {
    let size = if cfg.tiny { &TINY } else { &FULL };
    let mut m = Measured::default();
    let mut centres = StdRng::seed_from_u64(CENTRE_SEED);
    let source = Clustered::new(Rect::unit(), CLUSTERS, SPREAD, &mut centres);
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ POINT_SALT);
    let mut live = source.sample_n(&mut rng, size.points);
    let queries = mix::generate(cfg.seed, 4096);

    tr.set_enabled(cfg.trace);
    let mut request = 0u64;
    let (mut s, t) = setup(&live, &mut m, tr, request);
    let mut setup_ns = vec![t as f64];
    tr.set_enabled(false);

    let mut ops = StdRng::seed_from_u64(cfg.seed ^ WRITE_SALT);
    let mut scratch = QueryScratch::new();
    let mut out = Vec::new();
    let mut scan_buf = Vec::new();
    let mut cursor = 0usize;
    let mut answers: Vec<(usize, u64)> = Vec::with_capacity(size.queries);

    let mut units = Vec::new();
    // Per-call write latencies, kept for traced epochs only: a span per
    // call would hold millions per run, so each batch is one span.
    let mut write_lat: [Vec<f64>; 2] = Default::default(); // removes, inserts
    let mut n_writes = 0usize;
    let mut publish_ns = Vec::new();
    let mut lat = mix::Latencies::default();
    let mut counters = Default::default();
    let mut leaves = 0usize;
    let mut want_epoch = 1u64;

    let start = now();
    let mut epoch = 0usize;
    while epoch < size.min_epochs || ns(start, now()) as f64 / 1e9 < cfg.seconds {
        let traced = unit_traced(cfg, epoch);
        tr.set_enabled(traced);
        request += 1;
        let root = tr.open("bench.epoch", now(), None, request);
        let mut epoch_ns = 0u64;

        let batch = tr.open("spatial.removes", now(), root, request);
        for _ in 0..size.replace {
            let p = live.swap_remove(ops.random_range(0..live.len()));
            let t0 = now();
            let removed = s.tree.remove(&p);
            let t1 = now();
            epoch_ns += ns(t0, t1);
            if traced {
                write_lat[0].push(ns(t0, t1) as f64);
            }
            m.check(removed);
        }
        tr.close(batch, now());
        let batch = tr.open("spatial.inserts", now(), root, request);
        for _ in 0..size.replace {
            let p = source.sample(&mut ops);
            let t0 = now();
            let inserted = s.tree.insert(p);
            let t1 = now();
            epoch_ns += ns(t0, t1);
            if traced {
                write_lat[1].push(ns(t0, t1) as f64);
            }
            m.check(inserted.is_ok());
            live.push(p);
        }
        tr.close(batch, now());

        let t0 = now();
        let snap = Snapshot::freeze(0, &s.tree).expect("clustered trees stay within Morton depth");
        let t1 = now();
        let published = s.publisher.publish(snap);
        let t2 = now();
        let refreshed = s.reader.refresh();
        let t3 = now();
        tr.record("query.freeze", t0, t1, root, request);
        tr.record("query.publish", t1, t2, root, request);
        tr.record("query.refresh", t2, t3, root, request);
        epoch_ns += ns(t0, t3);
        want_epoch += 1;
        m.check(published == Ok(want_epoch));
        m.check(refreshed && s.reader.epoch() == want_epoch);

        let snap = s.reader.cached();
        answers.clear();
        for _ in 0..size.queries {
            let qi = cursor % queries.len();
            cursor += 1;
            let q = &queries[qi];
            let (q0, q1, got) = mix::serve(snap, q, &mut scratch, &mut out);
            tr.record(q.span_name(), q0, q1, root, request);
            let d = ns(q0, q1);
            epoch_ns += d;
            if !traced {
                lat.push(q, d);
            }
            answers.push((qi, got));
        }
        tr.close(root, now());
        if !traced {
            publish_ns.push(ns(t0, t3) as f64);
            n_writes += 2 * size.replace;
        }
        units.push((traced, epoch_ns as f64));

        // Checks, outside the timed calls: the snapshot holds the live
        // multiset, and each answer matches a scan of it.
        m.check(snap.len() == live.len());
        for (i, &(qi, got)) in answers.iter().enumerate() {
            let mut expected = mix::scan_digest(&live, &queries[qi], &mut scan_buf);
            if cfg.plant && epoch == 0 && i == 0 {
                expected ^= 1;
            }
            m.check(got == expected);
        }
        epoch += 1;
        if epoch == size.count_epoch {
            leaves = s.tree.leaf_count();
            counters = mix::cost_counters(snap, &queries);
        }

        if epoch.is_multiple_of(SETUP_EVERY) {
            // A rebuild from the live set must give the churned tree's
            // shape (a PR quadtree depends only on its point multiset);
            // the point order inside a leaf may differ.
            let (len, leaf_count) = (snap.len(), snap.leaf_count());
            if epoch == size.count_epoch {
                m.report.push(format!(
                    "digest churn.snapshot_epoch{epoch} {:016x}",
                    snap.digests().combined
                ));
            }
            request += 1;
            drop(s);
            let (next, t) = setup(&live, &mut m, tr, request);
            s = next;
            setup_ns.push(t as f64);
            want_epoch = 1;
            let rebuilt = s.reader.cached();
            m.check(rebuilt.len() == len && rebuilt.leaf_count() == leaf_count);
        }
    }
    tr.set_enabled(false);

    let plain: Vec<f64> = units.iter().filter(|u| !u.0).map(|u| u.1).collect();
    let total_s = plain.iter().sum::<f64>() / 1e9;
    m.e2e.insert("setup_s", median(&setup_ns) / 1e9);
    m.e2e.insert("pass_s", mean(&plain) / 1e9);
    lat.report(&mut m);
    m.report.push(format!(
        "samples epochs={} setups={}",
        plain.len(),
        setup_ns.len()
    ));
    m.report.push(format!(
        "metric writes_per_s {} 1/s",
        n_writes as f64 / total_s
    ));
    m.report.push(format!(
        "metric publish_p50_ms {} ms",
        median(&publish_ns) / 1e6
    ));

    let p50 =
        |name: &str, parent: Option<&str>, scale: f64| median(&tr.durations(name, parent)) / scale;
    let layers = [
        ("spatial.build_ms", p50("spatial.build", None, 1e6)),
        ("spatial.remove_us", median(&write_lat[0]) / 1e3),
        ("spatial.insert_us", median(&write_lat[1]) / 1e3),
        ("spatial.leaves", leaves as f64),
        (
            "query.freeze_ms",
            p50("query.freeze", Some("bench.epoch"), 1e6),
        ),
        (
            "query.publish_ms",
            p50("query.publish", Some("bench.epoch"), 1e6),
        ),
        (
            "query.refresh_us",
            p50("query.refresh", Some("bench.epoch"), 1e3),
        ),
    ];
    for (name, v) in layers {
        m.layers.insert(name.into(), v);
    }
    mix::query_layers(tr, "bench.epoch", &mut m);
    m.report.push(format!("counter spatial.leaves {leaves}"));
    m.report.extend(mix::counter_lines(&counters));
    m.layers.extend(counters);
    (m, units)
}
