//! Golden-artifact regression: the arena rewrite must not move a byte.
//!
//! `tests/goldens/*.json` were produced by `repro <id> --quick --json`
//! under `POPAN_THREADS=1` on the boxed-tree implementation. The arena
//! core replicates that implementation operation for operation (same
//! push order, same `swap_remove`, same redistribution and merge
//! order), so every downstream f64 statistic — and therefore every
//! artifact byte — must be identical. The goldens of the drivers that
//! read only a census (`table2`, `table4`, `fig2`, `table5`, `fig3`,
//! `dims`, `aging`, `skew`) were produced the same way on the arena
//! tree, before those drivers stopped building it. This test
//! regenerates the same artifacts in-process and compares byte for
//! byte.

use popan::experiments::registry;
use popan::experiments::ExperimentConfig;

// One test function: the engine reads POPAN_THREADS at construction,
// and setting the variable from parallel test threads would race.
#[test]
fn quick_artifacts_match_committed_goldens() {
    std::env::set_var("POPAN_THREADS", "1");
    let config = ExperimentConfig::quick();
    for id in [
        "table1",
        "table2",
        "table3",
        "table4",
        "fig2",
        "table5",
        "fig3",
        "dims",
        "aging",
        "skew",
        "churn",
        "phasing_sweep",
        "exthash",
        "split",
        "pmr",
    ] {
        let golden_path = format!("{}/tests/goldens/{id}.json", env!("CARGO_MANIFEST_DIR"));
        let golden = std::fs::read_to_string(&golden_path)
            .unwrap_or_else(|e| panic!("missing golden {golden_path}: {e}"));
        let artifact = registry::find(id)
            .unwrap_or_else(|| panic!("unknown experiment {id}"))
            .try_run(&config)
            .unwrap_or_else(|e| panic!("{id} failed: {e}"));
        assert_eq!(
            artifact.to_json(),
            golden,
            "{id}: regenerated artifact differs from the committed golden — \
             a structural or floating-point divergence from the boxed baseline"
        );
    }
}
