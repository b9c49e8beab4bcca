//! `popan-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the host stamp and every measured value by name and unit, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (end-to-end metrics when untraced, per-layer metrics
//! when traced). A traced run also writes its spans to
//! `.bench_out/spans-<workload>-<seed>.tsv` at the checkout root.

use std::path::Path;
use std::process::ExitCode;

// popan-lint: allow(H1, "this package is in-tree; it stays outside the workspace on purpose")
use popan_perfbench::{run, RunConfig, Workload};

const USAGE: &str = "usage: popan-perfbench --workload <serve_uniform|churn_clustered|repro_full> \
     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(RunConfig {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny: false,
        plant: false,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = run(&cfg);
    for line in result.report_lines() {
        println!("{line}");
    }
    if cfg.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
            "../.bench_out/spans-{}-{}.tsv",
            cfg.workload.name(),
            cfg.seed
        ));
        if let Err(e) = result.tracer.write_tsv(&path, &result.stamp) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
    println!("{}", result.json_line());
    ExitCode::SUCCESS
}
