//! Parallel/sequential determinism for every `Experiment` impl.
//!
//! The engine's contract: because trial `t`'s RNG stream is derived only
//! from `(master_seed, t)`, a 4-thread run must produce a `Summary`
//! bit-identical to the 1-thread run. Each test below runs one driver's
//! experiment both ways and compares at the bit level (`Debug`
//! formatting round-trips every finite `f64` exactly, so string equality
//! plus `PartialEq` is a bit-level check without per-field plumbing).

use popan_engine::{Engine, Experiment, Fault, FaultPlan, RetryPolicy};
use popan_experiments::churn::{ChurnExperiment, ChurnPhase};
use popan_experiments::excell_exp::ExcellExperiment;
use popan_experiments::exthash_exp::ExthashPointExperiment;
use popan_experiments::pmr_exp::PmrExperiment;
use popan_experiments::skew::SkewExperiment;
use popan_experiments::split_exp::{SplitPointExperiment, SplitStructure};
use popan_experiments::table1::Table1Experiment;
use popan_experiments::table3::Table3Experiment;
use popan_experiments::table45::{SizePointExperiment, Workload};
use popan_experiments::ExperimentConfig;

fn cfg(trials: usize, points: usize) -> ExperimentConfig {
    ExperimentConfig {
        trials,
        points,
        ..ExperimentConfig::paper()
    }
}

/// Runs `experiment` sequentially and on four threads; asserts the
/// summaries are bit-identical.
fn assert_parallel_matches_sequential<E>(experiment: &E)
where
    E: Experiment,
    E::Summary: std::fmt::Debug + PartialEq,
{
    let sequential = Engine::with_threads(1).run(experiment);
    let parallel = Engine::with_threads(4).run(experiment);
    assert_eq!(
        sequential,
        parallel,
        "{}: parallel summary differs from sequential",
        experiment.name()
    );
    assert_eq!(
        format!("{sequential:?}"),
        format!("{parallel:?}"),
        "{}: bit-level mismatch between parallel and sequential",
        experiment.name()
    );
}

#[test]
fn table1_is_parallel_deterministic() {
    for capacity in [1, 4, 8] {
        assert_parallel_matches_sequential(&Table1Experiment::new(cfg(6, 600), capacity));
    }
}

#[test]
fn table3_is_parallel_deterministic() {
    assert_parallel_matches_sequential(&Table3Experiment::new(cfg(6, 600), 16));
}

#[test]
fn table45_is_parallel_deterministic() {
    for workload in [Workload::Uniform, Workload::Gaussian] {
        assert_parallel_matches_sequential(&SizePointExperiment::new(cfg(6, 600), workload, 500));
    }
}

#[test]
fn skew_is_parallel_deterministic() {
    assert_parallel_matches_sequential(&SkewExperiment::new(
        cfg(5, 800),
        [0.55, 0.15, 0.15, 0.15],
        4,
    ));
}

#[test]
fn pmr_is_parallel_deterministic() {
    assert_parallel_matches_sequential(&PmrExperiment::new(cfg(4, 600), 4, 300));
}

#[test]
fn churn_is_parallel_deterministic() {
    for phase in [ChurnPhase::Churned, ChurnPhase::Fresh] {
        assert_parallel_matches_sequential(&ChurnExperiment::new(cfg(5, 400), 4, 400, phase));
    }
}

#[test]
fn exthash_is_parallel_deterministic() {
    assert_parallel_matches_sequential(&ExthashPointExperiment::new(cfg(5, 600), 2000));
}

#[test]
fn excell_is_parallel_deterministic() {
    for workload in ["uniform", "clustered"] {
        assert_parallel_matches_sequential(&ExcellExperiment::new(cfg(5, 600), workload, 1500));
    }
}

#[test]
fn split_is_parallel_deterministic() {
    for structure in [
        SplitStructure::Bintree,
        SplitStructure::Octree,
        SplitStructure::Mary(3),
    ] {
        assert_parallel_matches_sequential(&SplitPointExperiment::new(
            cfg(5, 600),
            structure,
            1200,
        ));
    }
}

/// The drivers that run trials through `ExperimentConfig::engine`, whose
/// thread count comes from `POPAN_THREADS`: each is run under 1 and
/// under 4 and its rows compared through `Debug`. One test function, so
/// that no other test here races on the variable; the rest of this file
/// builds its engines with `Engine::with_threads` and reads no
/// environment.
#[test]
fn env_engine_drivers_are_parallel_deterministic() {
    let config = cfg(3, 300);
    let runs = |threads: &str| {
        std::env::set_var("POPAN_THREADS", threads);
        [
            format!("{:?}", popan_experiments::aging_exp::run(&config, &[1, 4])),
            format!("{:?}", popan_experiments::dims::run(&config, 4)),
            format!(
                "{:?}",
                popan_experiments::phasing_sweep::run(&config, &[1, 8])
            ),
        ]
    };
    let saved = std::env::var("POPAN_THREADS").ok();
    let sequential = runs("1");
    let parallel = runs("4");
    match saved {
        Some(v) => std::env::set_var("POPAN_THREADS", v),
        None => std::env::remove_var("POPAN_THREADS"),
    }
    for (driver, (s, p)) in ["aging", "dims", "phasing_sweep"]
        .iter()
        .zip(sequential.iter().zip(&parallel))
    {
        assert_eq!(s, p, "{driver}: 4-thread rows differ from 1-thread rows");
    }
}

#[test]
fn injected_panic_leaves_survivors_bit_identical_across_threads() {
    // Fault isolation must not weaken the determinism contract: with
    // trial 2 panicking, the aggregate over the surviving trials is
    // still bit-identical for every thread count.
    let experiment = Table1Experiment::new(cfg(6, 500), 4);
    let plan = FaultPlan::none().inject("table1/m4", 2, Fault::Panic);
    let baseline = Engine::with_threads(1)
        .with_fault_plan(plan.clone())
        .try_run(&experiment)
        .expect("survivors remain");
    assert_eq!(baseline.failures.len(), 1);
    assert_eq!(baseline.failures[0].trial, 2);
    assert_eq!(baseline.completed, 5);
    assert!(baseline.failures[0].payload.contains("injected fault"));
    for threads in [2, 4] {
        let report = Engine::with_threads(threads)
            .with_fault_plan(plan.clone())
            .try_run(&experiment)
            .expect("survivors remain");
        assert_eq!(
            report.failures.len(),
            1,
            "threads = {threads}: same trial fails"
        );
        assert_eq!(
            format!("{:?}", report.summary),
            format!("{:?}", baseline.summary),
            "threads = {threads}: surviving summary must be bit-identical"
        );
    }
}

#[test]
fn retried_trial_reproduces_the_no_fault_summary_exactly() {
    // The default retry policy replays the attempt-0 RNG stream, so a
    // transient fault (panic on attempt 0 only) retried once produces a
    // summary bit-identical to the run with no fault at all.
    let experiment = Table1Experiment::new(cfg(5, 400), 4);
    let clean = Engine::with_threads(1).run(&experiment);
    for threads in [1, 4] {
        let report = Engine::with_threads(threads)
            .with_retry(RetryPolicy::retries(1))
            .with_fault_plan(FaultPlan::none().inject_at("table1/m4", 2, 0, Fault::Panic))
            .try_run(&experiment)
            .expect("retry succeeds");
        assert!(report.is_complete(), "threads = {threads}");
        assert_eq!(
            format!("{:?}", report.summary),
            format!("{clean:?}"),
            "threads = {threads}: retried summary must equal the no-fault summary"
        );
    }
}

#[test]
fn checkpoint_resume_is_bit_identical_to_the_uninterrupted_run() {
    let experiment = Table1Experiment::new(cfg(6, 400), 2);
    let clean = Engine::with_threads(1).run(&experiment);
    let dir = std::env::temp_dir().join(format!("popan-determinism-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Interrupted run: trial 3 fails, the other five checkpoint.
    let partial = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .with_fault_plan(FaultPlan::none().inject("table1/m2", 3, Fault::Panic))
        .try_run(&experiment)
        .expect("survivors remain");
    assert_eq!(partial.completed, 5);
    // Resume: five loaded, one executed, aggregate identical to clean.
    let resumed = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .try_run(&experiment)
        .expect("resume completes");
    assert!(resumed.is_complete());
    assert_eq!(resumed.resumed, 5);
    assert_eq!(
        format!("{:?}", resumed.summary),
        format!("{clean:?}"),
        "resumed aggregate must be bit-identical to the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_artifact_json_is_byte_identical() {
    // D1 regression (popan-lint): the resume path loads checkpointed
    // trials through an *ordered* map, so an artifact rendered from a
    // resumed run must be byte-for-byte the uninterrupted run's JSON.
    // With a HashMap in the resume path this held only by accident of
    // aggregation re-sorting — this test pins the end-to-end bytes.
    use popan_experiments::report::{format_distribution, TableData};

    let experiment = Table1Experiment::new(cfg(6, 400), 4);
    let artifact_json = |row: &popan_experiments::table1::Table1Row| {
        TableData::new(
            "table1",
            "resume regression",
            vec!["bucket size".into(), "row".into(), "vector".into()],
            vec![
                vec![
                    row.capacity.to_string(),
                    "thy".into(),
                    format_distribution(&row.theory),
                ],
                vec![
                    String::new(),
                    "exp".into(),
                    format_distribution(&row.experiment),
                ],
            ],
        )
        .to_json()
    };
    let clean = artifact_json(&Engine::with_threads(1).run(&experiment));

    let dir = std::env::temp_dir().join(format!("popan-artifact-json-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Interrupt twice so resume stitches checkpointed and fresh trials.
    let plan = FaultPlan::none()
        .inject("table1/m4", 1, Fault::Panic)
        .inject("table1/m4", 4, Fault::Panic);
    let partial = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .with_fault_plan(plan)
        .try_run(&experiment)
        .expect("survivors remain");
    assert_eq!(partial.completed, 4);
    let resumed = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .try_run(&experiment)
        .expect("resume completes");
    assert_eq!(resumed.resumed, 4);
    assert_eq!(
        artifact_json(&resumed.summary),
        clean,
        "resumed artifact JSON must be byte-identical (stable key order)"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resumed_churn_artifact_json_is_byte_identical() {
    // The churn workload is the heaviest user of the arena's remove +
    // collapse + free-list path; a resumed run stitching checkpointed
    // and fresh trials must still render byte-identical artifact JSON.
    use popan_experiments::report::{format_distribution, TableData};

    let experiment = ChurnExperiment::new(cfg(6, 300), 4, 300, ChurnPhase::Churned);
    let artifact_json = |summary: &(usize, Vec<f64>)| {
        TableData::new(
            "churn",
            "resume regression",
            vec!["row".into(), "vector".into()],
            vec![vec![
                format!("churned ({} ops)", summary.0),
                format_distribution(&summary.1),
            ]],
        )
        .to_json()
    };
    let clean = artifact_json(&Engine::with_threads(1).run(&experiment));

    let dir = std::env::temp_dir().join(format!("popan-churn-json-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let plan = FaultPlan::none()
        .inject("churn/churned/m4", 0, Fault::Panic)
        .inject("churn/churned/m4", 5, Fault::Panic);
    let partial = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .with_fault_plan(plan)
        .try_run(&experiment)
        .expect("survivors remain");
    assert_eq!(partial.completed, 4);
    let resumed = Engine::with_threads(4)
        .with_checkpoint(&dir)
        .try_run(&experiment)
        .expect("resume completes");
    assert_eq!(resumed.resumed, 4);
    assert_eq!(
        artifact_json(&resumed.summary),
        clean,
        "resumed churn artifact JSON must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn odd_thread_counts_agree_too() {
    // The worker count should be invisible, not just 4-vs-1: check a
    // thread count that does not divide the trial count.
    let experiment = Table1Experiment::new(cfg(7, 500), 4);
    let sequential = Engine::with_threads(1).run(&experiment);
    for threads in [2, 3, 5, 8] {
        let parallel = Engine::with_threads(threads).run(&experiment);
        assert_eq!(sequential, parallel, "threads = {threads}");
    }
}
