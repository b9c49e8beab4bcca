//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p popan-experiments --release --bin repro            # everything
//! cargo run -p popan-experiments --release --bin repro -- table1  # one artifact
//! cargo run -p popan-experiments --release --bin repro -- --list  # what exists
//! cargo run -p popan-experiments --release --bin repro -- --quick # fast pass
//! cargo run -p popan-experiments --release --bin repro -- --out EXPERIMENTS.md
//! cargo run -p popan-experiments --release --bin repro -- --json target/report
//! cargo run -p popan-experiments --release --bin repro -- --threads 4
//! cargo run -p popan-experiments --release --bin repro -- --resume target/ckpt
//! ```
//!
//! Experiments come from the registry (`popan_experiments::registry`);
//! any subset can be selected by id. `--out <path>` additionally writes
//! the full report as a Markdown file (ASCII figures fenced),
//! `--json <dir>` writes one JSON artifact per experiment,
//! `--threads <n>` sets `POPAN_THREADS` for the run (0 = available
//! parallelism). SVG figures land in `target/figures/`.
//!
//! ## Fault tolerance
//!
//! * `--resume <dir>` streams completed trials to JSONL checkpoints
//!   under `<dir>` and, on a re-run after a crash or kill, loads them
//!   instead of recomputing — the finished report is byte-identical to
//!   an uninterrupted run (sets `POPAN_CHECKPOINT`).
//! * `--retries <n>` grants each failed trial `n` deterministic re-runs
//!   (sets `POPAN_RETRIES`).
//! * `--faults <plan>` injects deterministic faults for testing the
//!   machinery, e.g. `table1/m4:2:panic` (sets `POPAN_FAULTS`).
//! * A driver that still fails is reported — in the report, and as
//!   `{"id":…,"error":…}` in its JSON artifact — while the remaining
//!   drivers run to completion; the exit code is then 1.

use popan_experiments::registry::{self, Artifact};
use popan_experiments::ExperimentConfig;
use std::io::Write;

fn render(artifact: &Artifact) -> String {
    let mut s = artifact.section();
    if let Artifact::Figure(fig) = artifact {
        if !fig.svg.is_empty() {
            let dir = std::path::Path::new("target/figures");
            if std::fs::create_dir_all(dir).is_ok() {
                let path = dir.join(format!("{}.svg", fig.id));
                if std::fs::write(&path, &fig.svg).is_ok() {
                    s.push_str(&format!("\n(SVG written to {})\n", path.display()));
                }
            }
        }
    }
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let value_of = |flag: &str| -> Option<String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = value_of("--out");
    let json_dir = value_of("--json");

    if args.iter().any(|a| a == "--list") {
        for e in registry::ALL {
            println!("{:14} {}", e.id, e.title);
        }
        return;
    }
    // Engine::from_env reads these at construction; setting them here
    // (before any engine exists) configures the whole run.
    if let Some(threads) = value_of("--threads") {
        std::env::set_var("POPAN_THREADS", threads);
    }
    if let Some(retries) = value_of("--retries") {
        std::env::set_var("POPAN_RETRIES", retries);
    }
    if let Some(faults) = value_of("--faults") {
        std::env::set_var("POPAN_FAULTS", faults);
    }
    if let Some(dir) = value_of("--resume") {
        std::env::set_var("POPAN_CHECKPOINT", dir);
    }
    // Fail a misconfigured run up front with the typed message, rather
    // than letting every driver warn-and-fall-back individually.
    if let Err(e) = popan_engine::Engine::try_from_env() {
        eprintln!("repro: {e}");
        std::process::exit(2);
    }

    let config = if quick {
        ExperimentConfig::quick()
    } else {
        ExperimentConfig::paper()
    };
    let flags_with_value = [
        "--out",
        "--json",
        "--threads",
        "--retries",
        "--faults",
        "--resume",
    ];
    let mut skip_next = false;
    let selected: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if flags_with_value.contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(String::as_str)
        .collect();
    let selected: Vec<&str> = if selected.is_empty() {
        registry::ids()
    } else {
        for s in &selected {
            if registry::find(s).is_none() {
                eprintln!("unknown experiment {s:?}; known: {:?}", registry::ids());
                std::process::exit(2);
            }
        }
        selected
    };

    let header = format!(
        "# popan reproduction — Nelson & Samet, SIGMOD 1987\n\n\
         Seed {:#x}, {} trials per configuration, {} points per tree \
         (Tables 1–3); regenerate with `cargo run -p popan-experiments \
         --release --bin repro`.\n",
        config.master_seed, config.trials, config.points
    );

    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(out, "{header}").unwrap();

    let mut report = header;
    report.push('\n');

    if let Some(dir) = &json_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("failed to create {dir}: {e}");
            std::process::exit(1);
        });
    }

    let mut failed: Vec<&str> = Vec::new();
    for id in selected {
        let experiment = registry::find(id).expect("validated above");
        // popan-lint: allow(D2, "operator progress display only; never enters an artifact")
        let t0 = std::time::Instant::now();
        let (section, json) = match experiment.try_run(&config) {
            Ok(artifact) => (render(&artifact), artifact.to_json()),
            Err(error) => {
                failed.push(id);
                eprintln!("repro: {id} FAILED: {error}");
                (
                    format!("## {id} — FAILED\n\n```text\n{error}\n```\n"),
                    format!(
                        "{{\"id\":{},\"error\":{}}}",
                        popan_experiments::report::json_string(id),
                        popan_experiments::report::json_string(&error),
                    ),
                )
            }
        };
        writeln!(out, "{section}").unwrap();
        writeln!(out, "  [{id} done in {:.1?}]\n", t0.elapsed()).unwrap();
        report.push_str(&section);
        report.push('\n');
        if let Some(dir) = &json_dir {
            let path = std::path::Path::new(dir).join(format!("{id}.json"));
            std::fs::write(&path, json).unwrap_or_else(|e| {
                eprintln!("failed to write {}: {e}", path.display());
                std::process::exit(1);
            });
        }
    }

    if let Some(path) = out_path {
        std::fs::write(&path, &report).unwrap_or_else(|e| {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        });
        writeln!(out, "report written to {path}").unwrap();
    }
    if let Some(dir) = json_dir {
        writeln!(out, "JSON artifacts written to {dir}/").unwrap();
    }
    if !failed.is_empty() {
        eprintln!(
            "repro: {} experiment(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}
