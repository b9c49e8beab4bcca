//! The host and source stamp printed with every run.

use crate::RunConfig;

/// Total steal ticks over all CPUs from `/proc/stat` (0 where absent).
/// Reported only: no run is dropped, reweighted or repeated on it.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The commit the benchmark was built from, read from `.git` beside it
/// without a subprocess; `none` outside a git checkout.
pub fn commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "none".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(sha) = std::fs::read_to_string(git.join(reference)) {
        return sha.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|sha| sha.trim().to_string())
                    .filter(|sha| !sha.is_empty())
            })
        })
        .unwrap_or_else(|| "none".into())
}

pub fn line(cfg: &RunConfig, steal: u64) -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "# perfbench workload={} seed={} seconds={} trace={} threads=1 \
         available_parallelism={parallelism} commit={} steal_ticks={steal}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        commit(),
    )
}
