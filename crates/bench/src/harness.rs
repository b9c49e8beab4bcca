//! A self-contained benchmark harness replacing Criterion.
//!
//! Keeps the Criterion call shape the bench targets already use —
//! [`Criterion::benchmark_group`], `group.bench_function(id, |b|
//! b.iter(|| …))`, [`criterion_group!`](crate::criterion_group) /
//! [`criterion_main!`](crate::criterion_main) — but measures with a
//! deliberately simple protocol:
//!
//! 1. **Calibrate**: time one call; pick a batch size so a sample takes
//!    ≥ ~100 µs (amortizes timer overhead for nanosecond-scale bodies).
//! 2. **Warm up**: a few untimed batches.
//! 3. **Sample**: `sample_size` timed batches; report per-iteration
//!    median, p10, p90, mean, min, max.
//!
//! Each group writes `BENCH_<group>.json` under `target/popan-bench/`
//! (override with `POPAN_BENCH_DIR`) so the perf trajectory accumulates
//! run over run, and prints a human-readable summary line per benchmark.
//!
//! **Smoke mode** (`cargo bench -- --smoke`, or `POPAN_BENCH_SMOKE=1`):
//! one iteration per benchmark, no warmup, no calibration — a CI-speed
//! check that every bench target still runs end to end.

use std::fs;
use std::path::PathBuf;
use std::time::Instant;

/// Top-level harness state (Criterion-compatible shape).
#[derive(Debug, Clone)]
pub struct Criterion {
    sample_size: usize,
    smoke: bool,
    out_dir: PathBuf,
}

fn default_out_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("POPAN_BENCH_DIR") {
        return PathBuf::from(dir);
    }
    // crates/bench/../../target/popan-bench == <workspace>/target/popan-bench.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/popan-bench")
}

impl Criterion {
    /// The default configuration: 20 samples, JSON under
    /// `target/popan-bench/`.
    #[allow(clippy::should_implement_trait)]
    pub fn default() -> Self {
        Criterion {
            sample_size: 20,
            smoke: std::env::var("POPAN_BENCH_SMOKE").is_ok_and(|v| v == "1"),
            out_dir: default_out_dir(),
        }
    }

    /// Sets the number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 1, "sample_size must be at least 1");
        self.sample_size = n;
        self
    }

    /// Applies command-line flags (`--smoke`; everything else — e.g. the
    /// `--bench` flag Cargo appends — is ignored). Called by
    /// `criterion_group!`.
    pub fn configure_from_args(mut self) -> Self {
        if std::env::args().any(|a| a == "--smoke") {
            self.smoke = true;
        }
        self
    }

    /// `true` when running in smoke mode.
    pub fn is_smoke(&self) -> bool {
        self.smoke
    }

    /// Opens a named benchmark group; results land in
    /// `BENCH_<name>.json` when the group is [`finish`](BenchmarkGroup::finish)ed.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: None,
            results: Vec::new(),
        }
    }
}

/// Statistics for one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone)]
pub struct BenchStats {
    /// Benchmark id within the group.
    pub id: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (batching factor).
    pub iters_per_sample: u64,
    /// Mean ns/iter.
    pub mean_ns: f64,
    /// Median ns/iter.
    pub median_ns: f64,
    /// 10th percentile ns/iter.
    pub p10_ns: f64,
    /// 90th percentile ns/iter.
    pub p90_ns: f64,
    /// Fastest sample ns/iter.
    pub min_ns: f64,
    /// Slowest sample ns/iter.
    pub max_ns: f64,
}

/// A named group of benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: Option<usize>,
    results: Vec<BenchStats>,
}

impl BenchmarkGroup<'_> {
    /// Overrides the sample count for this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        assert!(n >= 1, "sample_size must be at least 1");
        self.sample_size = Some(n);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function(
        &mut self,
        id: impl Into<String>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let id = id.into();
        let mut bencher = Bencher {
            sample_size: self.sample_size.unwrap_or(self.criterion.sample_size),
            smoke: self.criterion.smoke,
            stats: None,
        };
        f(&mut bencher);
        let mut stats = bencher
            .stats
            .unwrap_or_else(|| panic!("bench {}/{id} never called Bencher::iter", self.name));
        stats.id = id;
        println!(
            "bench {group}/{id}: median {median} (p10 {p10}, p90 {p90}, {n} samples × {k} iters)",
            group = self.name,
            id = stats.id,
            median = fmt_ns(stats.median_ns),
            p10 = fmt_ns(stats.p10_ns),
            p90 = fmt_ns(stats.p90_ns),
            n = stats.samples,
            k = stats.iters_per_sample,
        );
        self.results.push(stats);
        self
    }

    /// Writes `BENCH_<group>.json` and prints a closing line.
    pub fn finish(self) {
        let dir = &self.criterion.out_dir;
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("popan-bench: cannot create {}: {e}", dir.display());
            return;
        }
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let json = render_json(&self.name, self.criterion.smoke, &self.results);
        match fs::write(&path, json) {
            Ok(()) => println!(
                "bench {}: {} results -> {}",
                self.name,
                self.results.len(),
                path.display()
            ),
            Err(e) => eprintln!("popan-bench: cannot write {}: {e}", path.display()),
        }
    }
}

/// Passed to each benchmark body; call [`iter`](Bencher::iter) exactly
/// once with the code under measurement.
pub struct Bencher {
    sample_size: usize,
    smoke: bool,
    stats: Option<BenchStats>,
}

impl Bencher {
    /// Measures `f`, batching fast bodies so each timed sample is long
    /// enough for the monotonic clock to resolve accurately.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if self.smoke {
            let start = Instant::now();
            std::hint::black_box(f());
            let ns = start.elapsed().as_nanos() as f64;
            self.stats = Some(stats_from(vec![ns], 1));
            return;
        }

        // Calibrate: aim for >= ~100 µs per sample, capped so slow
        // bodies are not multiplied.
        let start = Instant::now();
        std::hint::black_box(f());
        let first_ns = start.elapsed().as_nanos().max(1) as u64;
        let iters_per_sample = (100_000 / first_ns).clamp(1, 10_000);

        // Warmup: untimed batches to settle caches and branch predictors.
        for _ in 0..2 {
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
        }

        let mut samples = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                std::hint::black_box(f());
            }
            samples.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }
        self.stats = Some(stats_from(samples, iters_per_sample));
    }
}

fn stats_from(mut samples: Vec<f64>, iters_per_sample: u64) -> BenchStats {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let n = samples.len();
    let pct = |q: f64| samples[((q * (n - 1) as f64).round() as usize).min(n - 1)];
    BenchStats {
        id: String::new(),
        samples: n,
        iters_per_sample,
        mean_ns: samples.iter().sum::<f64>() / n as f64,
        median_ns: pct(0.5),
        p10_ns: pct(0.1),
        p90_ns: pct(0.9),
        min_ns: samples[0],
        max_ns: samples[n - 1],
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn render_json(group: &str, smoke: bool, results: &[BenchStats]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"group\": \"{}\",\n", json_escape(group)));
    out.push_str(&format!("  \"smoke\": {smoke},\n"));
    // The host's core count, so a reader can tell reads that do not
    // scale from a host with too few cores.
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    out.push_str(&format!("  \"available_parallelism\": {cores},\n"));
    out.push_str("  \"benchmarks\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"id\": \"{}\", \"samples\": {}, \"iters_per_sample\": {}, \
             \"mean_ns\": {:.1}, \"median_ns\": {:.1}, \"p10_ns\": {:.1}, \
             \"p90_ns\": {:.1}, \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
            json_escape(&r.id),
            r.samples,
            r.iters_per_sample,
            r.mean_ns,
            r.median_ns,
            r.p10_ns,
            r.p90_ns,
            r.min_ns,
            r.max_ns,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Declares a group-runner function from a config and target functions
/// (Criterion-compatible form).
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $cfg:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $cfg.configure_from_args();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups (Criterion-compatible form).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_one_iteration() {
        let mut calls = 0u32;
        let mut b = Bencher {
            sample_size: 20,
            smoke: true,
            stats: None,
        };
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
        let stats = b.stats.unwrap();
        assert_eq!(stats.samples, 1);
        assert_eq!(stats.iters_per_sample, 1);
    }

    #[test]
    fn stats_percentiles_are_ordered() {
        let s = stats_from((1..=100).map(|v| v as f64).collect(), 1);
        assert!(s.min_ns <= s.p10_ns);
        assert!(s.p10_ns <= s.median_ns);
        assert!(s.median_ns <= s.p90_ns);
        assert!(s.p90_ns <= s.max_ns);
        assert!((s.mean_ns - 50.5).abs() < 1e-9);
    }

    #[test]
    fn group_writes_json() {
        let dir = std::env::temp_dir().join("popan-bench-harness-test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut criterion = Criterion {
            sample_size: 3,
            smoke: true,
            out_dir: dir.clone(),
        };
        let mut group = criterion.benchmark_group("harness_selftest");
        group.bench_function("noop", |b| b.iter(|| 1 + 1));
        group.finish();
        let json = std::fs::read_to_string(dir.join("BENCH_harness_selftest.json")).unwrap();
        assert!(json.contains("\"group\": \"harness_selftest\""));
        assert!(json.contains("\"available_parallelism\": "));
        assert!(json.contains("\"id\": \"noop\""));
        assert!(json.contains("\"median_ns\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn json_escaping_handles_quotes() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
