//! End-to-end and per-layer benchmark of popan.
//!
//! Three workloads, each one single-threaded client in a closed loop,
//! timed only at calls into the public APIs of `popan-spatial`,
//! `popan-query` and `popan-experiments`:
//!
//! * `serve_uniform` — points → direct freeze → verify/publish → a
//!   repeated mixed query load ([`serve`]);
//! * `churn_clustered` — incremental writes, re-freeze and republish on
//!   a clustered, deeper tree ([`churn`]);
//! * `repro_full` — the whole reproduction registry at the paper
//!   protocol ([`repro`]).
//!
//! An untraced run (`--trace 0`) yields the end-to-end metrics; a traced
//! run (`--trace 1`) alternates traced and untraced units and yields the
//! per-layer metrics plus the tracing overhead. Every run checks the
//! program's answers outside the timed calls.

pub mod churn;
pub mod mix;
pub mod repro;
pub mod serve;
pub mod stamp;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use popan_geom::Rect;
use popan_query::{Snapshot, SnapshotPublisher, SnapshotReader};

use trace::{now, Tracer};

/// End-to-end metrics, printed by every untraced run of every workload.
/// Throughputs (`ops_per_s`, `writes_per_s`) divide a unit's fixed work
/// by its time: they repeat `pass_s`, so they are report lines only.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("pass_s", "s"),
    ("ok_frac", "ratio"),
];

/// Per-layer metrics, printed by every traced run of every workload.
/// A layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spatial.build_ms", "ms"),
    ("spatial.insert_us", "us"),
    ("spatial.remove_us", "us"),
    ("spatial.leaves", "count"),
    ("query.from_points_ms", "ms"),
    ("query.freeze_ms", "ms"),
    ("query.publish_ms", "ms"),
    ("query.refresh_us", "us"),
    ("query.range_us", "us"),
    ("query.count_us", "us"),
    ("query.knn_us", "us"),
    ("query.leaves", "count"),
    ("query.bytes_per_point", "B/point"),
    ("query.range_hits", "count"),
    ("query.range_leaves", "count"),
    ("query.range_points", "count"),
    ("query.count_leaves", "count"),
    ("query.count_points", "count"),
    ("query.knn_leaves", "count"),
    ("query.knn_points", "count"),
    ("experiments.fig1_s", "s"),
    ("experiments.table1_s", "s"),
    ("experiments.table2_s", "s"),
    ("experiments.table3_s", "s"),
    ("experiments.table4_s", "s"),
    ("experiments.fig2_s", "s"),
    ("experiments.table5_s", "s"),
    ("experiments.fig3_s", "s"),
    ("experiments.dims_s", "s"),
    ("experiments.exthash_s", "s"),
    ("experiments.excell_s", "s"),
    ("experiments.pmr_s", "s"),
    ("experiments.query_s", "s"),
    ("experiments.aging_s", "s"),
    ("experiments.ablation_s", "s"),
    ("experiments.skew_s", "s"),
    ("experiments.churn_s", "s"),
    ("experiments.phasing_sweep_s", "s"),
    ("experiments.split_s", "s"),
    ("bench.self_pct", "%"),
    ("spatial.self_pct", "%"),
    ("query.self_pct", "%"),
    ("experiments.self_pct", "%"),
    ("bench.trace_overhead_pct", "%"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ServeUniform,
    ChurnClustered,
    ReproFull,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ServeUniform,
        Workload::ChurnClustered,
        Workload::ReproFull,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeUniform => "serve_uniform",
            Workload::ChurnClustered => "churn_clustered",
            Workload::ReproFull => "repro_full",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    /// Minimum measured time; the last unit started before it ends runs
    /// to completion.
    pub seconds: f64,
    pub trace: bool,
    /// Self-test sizes instead of the benchmark's.
    pub tiny: bool,
    /// Plants one wrong oracle answer, to prove the checks can fail.
    pub plant: bool,
}

/// Whether unit `i` of a run is traced: in a traced run odd units are,
/// so its even units give the untraced baseline for the overhead.
pub fn unit_traced(cfg: &RunConfig, i: usize) -> bool {
    cfg.trace && i % 2 == 1
}

/// Publishes `snap` as epoch 1 of a new publisher and refreshes a reader
/// subscribed before the publish, recording a span per step and checking
/// that the reader serves it. Returns the instant the reader does.
fn publish_first(
    snap: Snapshot,
    capacity: usize,
    m: &mut Measured,
    tr: &mut Tracer,
    root: Option<usize>,
    request: u64,
) -> (SnapshotPublisher, SnapshotReader, Instant) {
    let len = snap.len();
    let t0 = now();
    let empty = Snapshot::from_points(0, Rect::unit(), capacity, std::iter::empty())
        .expect("an empty snapshot always freezes");
    let mut publisher = SnapshotPublisher::new(empty);
    let mut reader = publisher.subscribe();
    let t1 = now();
    let published = publisher.publish(snap);
    let t2 = now();
    let refreshed = reader.refresh();
    let t3 = now();
    tr.record("query.subscribe", t0, t1, root, request);
    tr.record("query.publish", t1, t2, root, request);
    tr.record("query.refresh", t2, t3, root, request);
    m.check(published == Ok(1));
    m.check(refreshed && reader.epoch() == 1 && reader.cached().len() == len);
    (publisher, reader, t3)
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// End-to-end values by name (from untraced units).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer values by name (from traced units and deterministic counts).
    pub layers: BTreeMap<String, f64>,
    /// Extra report lines (`name value unit`, digests).
    pub report: Vec<String>,
}

impl Measured {
    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn ok_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }

    /// Adds the per-layer self-time shares and tracing overhead.
    fn add_trace_layers(&mut self, tracer: &Tracer, units: &[(bool, f64)]) {
        for (layer, pct) in tracer.self_share_pct() {
            self.layers.insert(format!("{layer}.self_pct"), pct);
        }
        let traced: Vec<f64> = units.iter().filter(|u| u.0).map(|u| u.1).collect();
        let plain: Vec<f64> = units.iter().filter(|u| !u.0).map(|u| u.1).collect();
        if !traced.is_empty() && !plain.is_empty() {
            let base = trace::mean(&plain);
            self.layers.insert(
                "bench.trace_overhead_pct".into(),
                100.0 * (trace::mean(&traced) - base) / base,
            );
        }
    }
}

/// A finished run: the checked outcome and its span log.
pub struct RunResult {
    pub config: RunConfig,
    pub measured: Measured,
    pub tracer: Tracer,
    pub stamp: String,
}

/// Runs one workload. Sets `POPAN_THREADS=1` first: the benchmark is
/// single-threaded everywhere.
pub fn run(cfg: &RunConfig) -> RunResult {
    std::env::set_var("POPAN_THREADS", "1");
    let steal0 = stamp::steal_ticks();
    let mut tracer = Tracer::new();
    let (mut m, units) = match cfg.workload {
        Workload::ServeUniform => serve::run(cfg, &mut tracer),
        Workload::ChurnClustered => churn::run(cfg, &mut tracer),
        Workload::ReproFull => repro::run(cfg, &mut tracer),
    };
    tracer.set_enabled(false);
    let steal = stamp::steal_ticks().saturating_sub(steal0);
    m.e2e.insert("ok_frac", m.ok_frac());
    m.add_trace_layers(&tracer, &units);
    let stamp = stamp::line(cfg, steal);
    RunResult {
        config: *cfg,
        measured: m,
        tracer,
        stamp,
    }
}

impl RunResult {
    /// The metrics the run reports: end-to-end when untraced, per-layer
    /// when traced, in declaration order; absent values read 0.
    pub fn metrics(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        let m = &self.measured;
        if trace {
            PER_LAYER
                .iter()
                .map(|&(n, u)| (n, m.layers.get(n).copied().unwrap_or(0.0), u))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|&(n, u)| (n, m.e2e.get(n).copied().unwrap_or(0.0), u))
                .collect()
        }
    }

    pub fn correct(&self) -> bool {
        self.measured.attempted > 0 && self.measured.failed == 0
    }

    /// The result line the benchmark prints last.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics(self.config.trace)
            .iter()
            .map(|(n, v, u)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.measured.attempted,
            self.measured.failed,
            metrics.join(", ")
        )
    }

    /// Human-readable lines: the host stamp, every value the JSON line
    /// carries by name and unit, then the extra report lines.
    pub fn report_lines(&self) -> Vec<String> {
        let m = &self.measured;
        let mut lines = vec![self.stamp.clone()];
        for (n, v, u) in self.metrics(self.config.trace) {
            lines.push(format!("metric {n} {v} {u}"));
        }
        lines.extend(m.report.iter().cloned());
        lines.push(format!(
            "checked attempted={} failed={} ok_frac={}",
            m.attempted,
            m.failed,
            m.ok_frac()
        ));
        lines
    }
}
