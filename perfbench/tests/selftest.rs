//! The benchmark's self-test, at tiny sizes: every metric prints by name
//! and unit, the checks pass on correct answers and fail on a planted
//! wrong one, and the deterministic counters and digests are pinned.

// popan-lint: allow(H1, "this package is in-tree; it stays outside the workspace on purpose")
use popan_perfbench::{run, RunConfig, RunResult, Workload, END_TO_END, PER_LAYER};

fn tiny(workload: Workload, trace: bool, plant: bool) -> RunResult {
    run(&RunConfig {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        tiny: true,
        plant,
    })
}

/// The JSON line's metric entries, in order, as `(name, value, unit)`.
fn json_metrics(line: &str) -> Vec<(String, f64, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("}, ")
        .map(|entry| {
            let entry = entry.trim_end_matches('}');
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("entry");
            let (value, unit) = rest.split_once(", \"unit\": \"").expect("unit");
            (
                name.trim_start_matches('"').to_string(),
                value.parse().expect("number"),
                unit.trim_end_matches('"').to_string(),
            )
        })
        .collect()
}

/// Lines starting with `prefix`, for pinning.
fn lines(r: &RunResult, prefix: &str) -> Vec<String> {
    r.report_lines()
        .into_iter()
        .filter(|l| l.starts_with(prefix))
        .collect()
}

#[test]
fn every_metric_prints_by_name_and_unit_with_ok_frac_one() {
    let manifest = include_str!("../../BENCHMARK.json");
    for w in Workload::ALL {
        for (trace, declared) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = tiny(w, trace, false);
            assert!(r.correct(), "{w:?} trace={trace}: checks failed");
            let line = r.json_line();
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            let printed = json_metrics(&line);
            let names: Vec<(&str, &str)> = printed
                .iter()
                .map(|(n, _, u)| (n.as_str(), u.as_str()))
                .collect();
            assert_eq!(names, declared.to_vec(), "{w:?} trace={trace}");
            let report = r.report_lines();
            for (n, v, u) in &printed {
                assert!(v.is_finite());
                assert!(report.contains(&format!("metric {n} {v} {u}")), "{n}");
                let entry = format!("{{\"name\": \"{n}\", \"unit\": \"{u}\"");
                assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
            if !trace {
                let ok = printed.iter().find(|m| m.0 == "ok_frac").expect("ok_frac");
                assert_eq!(ok.1, 1.0);
                for (n, v, _) in &printed {
                    assert!(*v > 0.0, "{w:?}: {n} reads 0");
                }
            }
        }
    }
}

#[test]
fn a_planted_wrong_oracle_answer_fails_the_run() {
    for w in Workload::ALL {
        let r = tiny(w, false, true);
        assert!(!r.correct(), "{w:?}");
        assert!(r.measured.failed >= 1, "{w:?}");
        let ok_frac = r
            .metrics(false)
            .iter()
            .find(|m| m.0 == "ok_frac")
            .unwrap()
            .1;
        assert!(ok_frac < 1.0, "{w:?}: ok_frac {ok_frac}");
        assert!(r.json_line().starts_with("{\"correct\": false,"));
    }
}

#[test]
fn counters_and_digests_repeat_and_match_their_pins() {
    let pinned = |r: &RunResult| [lines(r, "counter "), lines(r, "digest ")].concat();
    let mut actual = Vec::new();
    for w in Workload::ALL {
        let a = pinned(&tiny(w, true, false));
        let b = pinned(&tiny(w, false, false));
        assert_eq!(a, b, "{w:?}: counters moved between runs");
        actual.push((w, a));
    }
    for (w, a) in &actual {
        assert_eq!(*a, expected(*w), "{w:?}; all pins now: {actual:#?}");
    }
}

fn expected(w: Workload) -> Vec<String> {
    let pins: &[&str] = match w {
        Workload::ServeUniform => &[
            "counter query.bytes_per_point 34.08",
            "counter query.count_leaves 7.1875",
            "counter query.count_points 27.125",
            "counter query.knn_leaves 40.75",
            "counter query.knn_points 143.59375",
            "counter query.leaves 565",
            "counter query.range_hits 16",
            "counter query.range_leaves 8.8125",
            "counter query.range_points 33.34375",
            "digest serve.answers d8b9eab9ccef3308",
            "digest serve.snapshot 154db0079a5aa6d7",
        ],
        Workload::ChurnClustered => &[
            "counter spatial.leaves 973",
            "counter query.bytes_per_point 36.757333333333335",
            "counter query.count_leaves 13.145054945054945",
            "counter query.count_points 39.98681318681319",
            "counter query.knn_leaves 99.77362637362637",
            "counter query.knn_points 298.3047619047619",
            "counter query.leaves 973",
            "counter query.range_hits 26.915812591508054",
            "counter query.range_leaves 13.84407027818448",
            "counter query.range_points 41.60541727672035",
            "digest churn.snapshot_epoch8 73e2d88c90c73c68",
        ],
        Workload::ReproFull => &[
            "digest experiments.fig1 a775f7462b2f4b12",
            "digest experiments.table1 ccdfafa47f1edc09",
            "digest experiments.table2 2ddee31eedf9b12d",
            "digest experiments.table3 323fe970ed1b2724",
        ],
    };
    pins.iter().map(|s| s.to_string()).collect()
}
