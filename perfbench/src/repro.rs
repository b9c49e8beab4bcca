//! `repro_full`: every registry driver at the paper protocol, in
//! process, one worker, pass after pass. Rendering stays outside the
//! timed calls.
//!
//! Set-up is the same registry at the quick protocol with the default
//! seed, whose golden artifacts are compared byte for byte. The
//! extendible-hashing, split-tree and PMR drivers dominate; the query
//! tier is a small share, so a query change should read flat here.

use popan_experiments::registry::{self, Artifact, RegisteredExperiment};
use popan_experiments::ExperimentConfig;
use popan_rng::hash::fnv64;

use crate::trace::{mean, median, now, ns, Tracer};
use crate::{unit_traced, Measured, RunConfig};

/// The artifacts `tests/goldens/` pins at the quick protocol.
const GOLDEN_IDS: [&str; 4] = ["table1", "table3", "churn", "phasing_sweep"];
/// Artifacts that embed the solver's own wall-clock times by design:
/// checked for success only, their bytes never repeat.
const TIMED_IDS: [&str; 1] = ["ablation"];
/// The self-test's pass: cheap drivers at the quick protocol.
const TINY_PASS_IDS: [&str; 4] = ["fig1", "table1", "table2", "table3"];

/// Passes a run makes however short its `--seconds`.
const MIN_PASSES: usize = 2;
/// Passes between two set-ups. A pass takes about three times as long
/// as a set-up; set-ups after every pass left a 30 s run only five
/// passes.
const SETUP_EVERY: usize = 3;

/// A registry driver and the name of the span around its runs.
struct Entry {
    driver: &'static RegisteredExperiment,
    span: &'static str,
}

fn entries<'a>(ids: impl IntoIterator<Item = &'a str>) -> Vec<Entry> {
    ids.into_iter()
        .map(|id| Entry {
            driver: registry::find(id).expect("registered id"),
            // Spans carry 'static names; one short string per driver per run.
            span: Box::leak(format!("experiments.{id}").into_boxed_str()),
        })
        .collect()
}

fn golden(id: &str) -> Option<String> {
    let path = format!("{}/../tests/goldens/{id}.json", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(path).ok()
}

/// Runs one driver through `try_run`, timing only that call.
fn timed_run(
    e: &Entry,
    config: &ExperimentConfig,
    tr: &mut Tracer,
    root: Option<usize>,
    request: u64,
) -> (Result<Artifact, String>, u64) {
    let t0 = now();
    let result = e.driver.try_run(config);
    let t1 = now();
    tr.record(e.span, t0, t1, root, request);
    (result, ns(t0, t1))
}

pub fn run(cfg: &RunConfig, tr: &mut Tracer) -> (Measured, Vec<(bool, f64)>) {
    let mut m = Measured::default();
    let quick = ExperimentConfig::quick();
    let (setup_entries, pass_entries, pass_config) = if cfg.tiny {
        (
            entries(GOLDEN_IDS),
            entries(TINY_PASS_IDS),
            ExperimentConfig {
                master_seed: cfg.seed,
                ..ExperimentConfig::quick()
            },
        )
    } else {
        (
            entries(registry::ids()),
            entries(registry::ids()),
            ExperimentConfig {
                master_seed: cfg.seed,
                ..ExperimentConfig::paper()
            },
        )
    };

    let mut setup_ns = Vec::new();
    let mut request = 0u64;
    let mut setup = |m: &mut Measured, tr: &mut Tracer, request: u64| {
        let root = tr.open("bench.setup", now(), None, request);
        let mut total = 0u64;
        let mut results = Vec::with_capacity(setup_entries.len());
        for e in &setup_entries {
            let (r, t) = timed_run(e, &quick, tr, root, request);
            total += t;
            results.push((e.driver.id, r));
        }
        tr.close(root, now());
        setup_ns.push(total as f64);
        for (id, r) in results {
            let ok = match (&r, GOLDEN_IDS.contains(&id)) {
                (Err(_), _) => false,
                (Ok(a), true) => {
                    let planted = cfg.plant && request == 0 && id == GOLDEN_IDS[0];
                    !planted && golden(id).is_some_and(|g| a.to_json() == g)
                }
                (Ok(_), false) => true,
            };
            m.check(ok);
        }
    };
    tr.set_enabled(cfg.trace);
    setup(&mut m, tr, request);
    tr.set_enabled(false);

    // Passes, with a set-up after every few, so both are sampled across
    // the same stretch of the run.
    let mut units = Vec::new();
    let mut first_digest: Vec<Option<u64>> = vec![None; pass_entries.len()];
    let mut per_driver: Vec<Vec<f64>> = vec![Vec::new(); pass_entries.len()];
    let mut runs = 0usize;
    let start = now();
    let mut pass = 0usize;
    while pass < MIN_PASSES || ns(start, now()) as f64 / 1e9 < cfg.seconds {
        let traced = unit_traced(cfg, pass);
        tr.set_enabled(traced);
        request += 1;
        let root = tr.open("bench.pass", now(), None, request);
        let mut pass_ns = 0u64;
        for (i, e) in pass_entries.iter().enumerate() {
            let (r, t) = timed_run(e, &pass_config, tr, root, request);
            pass_ns += t;
            if !traced {
                per_driver[i].push(t as f64);
                runs += 1;
            }
            // Every driver succeeds, and its artifact repeats exactly.
            let digest = r.as_ref().ok().map(|a| {
                if TIMED_IDS.contains(&e.driver.id) {
                    0
                } else {
                    fnv64(a.to_json().as_bytes())
                }
            });
            let expected = *first_digest[i].get_or_insert(digest.unwrap_or(0));
            m.check(digest == Some(expected));
        }
        tr.close(root, now());
        units.push((traced, pass_ns as f64));
        pass += 1;
        if pass.is_multiple_of(SETUP_EVERY) {
            request += 1;
            setup(&mut m, tr, request);
        }
    }
    tr.set_enabled(false);

    let plain: Vec<f64> = units.iter().filter(|u| !u.0).map(|u| u.1).collect();
    // One operation is one driver run, and a run has too few of them
    // for a latency tail: `op_p50_us` is the median over drivers of each
    // driver's mean run time, `op_p99_us` the slowest driver's. Means,
    // not medians, over a run's 6 to 10 passes: the host's speed drifts
    // rather than spikes, and on such noise the mean spreads less from
    // run to run.
    let driver_means: Vec<f64> = per_driver.iter().map(|d| mean(d)).collect();
    let slowest = driver_means.iter().copied().fold(0.0, f64::max);
    m.e2e.insert("setup_s", median(&setup_ns) / 1e9);
    m.e2e.insert("op_p50_us", median(&driver_means) / 1e3);
    m.e2e.insert("op_p99_us", slowest / 1e3);
    m.e2e.insert("pass_s", mean(&plain) / 1e9);
    m.report.push(format!(
        "samples op={} drivers={} passes={} setups={}",
        runs,
        pass_entries.len(),
        plain.len(),
        setup_ns.len()
    ));
    for (e, d) in pass_entries.iter().zip(&first_digest) {
        if !TIMED_IDS.contains(&e.driver.id) {
            let d = d.unwrap_or(0);
            m.report.push(format!("digest {} {d:016x}", e.span));
        }
        let spans = tr.durations(e.span, Some("bench.pass"));
        m.layers
            .insert(format!("{}_s", e.span), median(&spans) / 1e9);
    }
    (m, units)
}
