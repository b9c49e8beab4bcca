//! Serving-path chaos suite: fault-injected publish rounds.
//!
//! A seeded writer pushes a fixed sequence of candidate snapshots at a
//! [`SnapshotPublisher`] while a [`popan_engine::FaultPlan`] damages the
//! pipeline with the query-tier fault vocabulary:
//!
//! * `corrupt:<section>` — one bit of the candidate's named slab is
//!   flipped before publish; the quarantine gate must reject it.
//! * `publish-stall` — the candidate is held back one full round;
//!   readers keep serving the last-good epoch.
//! * `reject-epoch` — operator-forced quarantine of a pristine
//!   candidate.
//!
//! Between rounds, `POPAN_THREADS` reader threads answer a seeded query
//! schedule. The suite proves three invariants:
//!
//! 1. **Never torn, never damaged** — every snapshot a reader observes
//!    passes [`Snapshot::verify`] and has the exact population of the
//!    simulated last-good epoch for that round.
//! 2. **Bit-identical serving** — the merged result log equals the
//!    serially computed last-good oracle, for 1 reader and for N.
//! 3. **Byte-identical recovery** — once the faults pass and a clean
//!    candidate publishes, the served snapshot is byte-identical
//!    (section digests and answers) to the one a never-faulted run
//!    serves.

use std::sync::{Arc, Barrier};

use popan_engine::{CorruptTarget, Fault, FaultPlan};
use popan_geom::{Point2, Rect};
use popan_query::{PublishError, QuarantineCause, Snapshot, SnapshotPublisher};
use popan_rng::rngs::StdRng;
use popan_rng::{Rng, SeedableRng};
use popan_spatial::SnapshotSection;
use popan_workload::points::{PointSource, UniformRect};

const SCOPE: &str = "chaos";
const ROUNDS: u64 = 10;
/// Content id of the final, clean, post-fault publish.
const FINAL_CONTENT: u64 = ROUNDS + 1;
const QUERIES_PER_ROUND: usize = 9;
const MASTER_SEED: u64 = 0xc4a05;

/// The deterministic fault schedule under test, in the `POPAN_FAULTS`
/// wire syntax. One of every vocabulary entry, including a stall
/// immediately followed by a corrupt round.
const PLAN_SPEC: &str = "chaos:2:corrupt:points,chaos:4:publish-stall,\
                         chaos:5:corrupt:leaf,chaos:7:reject-epoch,chaos:8:corrupt:blocks";

fn plan() -> FaultPlan {
    FaultPlan::parse(PLAN_SPEC).expect("chaos plan parses")
}

fn section_of(target: CorruptTarget) -> SnapshotSection {
    match target {
        CorruptTarget::Leaves => SnapshotSection::Leaves,
        CorruptTarget::Blocks => SnapshotSection::Blocks,
        CorruptTarget::Points => SnapshotSection::Points,
    }
}

/// Candidate content for round `r`: distinct sizes make every round's
/// answers distinguishable, so serving the wrong epoch cannot hide.
fn content_len(r: u64) -> usize {
    900 + 113 * r as usize
}

fn round_snapshot(r: u64) -> Snapshot {
    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ (r * 0x9e37_79b9));
    let pts = UniformRect::unit().sample_n(&mut rng, content_len(r));
    Snapshot::from_points(r, Rect::unit(), 4, pts).unwrap()
}

/// What the publisher must be serving after each round's writer action:
/// `(epoch, content_round)`, plus the final state after the post-fault
/// clean publish. Pure simulation — no publisher involved.
fn simulate(plan: &FaultPlan) -> (Vec<(u64, u64)>, (u64, u64)) {
    let mut epoch = 0u64;
    let mut content = 0u64;
    let mut pending: Option<u64> = None;
    let mut per_round = Vec::new();
    for r in 1..=ROUNDS {
        if let Some(p) = pending.take() {
            epoch += 1;
            content = p;
        }
        match plan.fault_for(SCOPE, r as usize, 0) {
            None => {
                epoch += 1;
                content = r;
            }
            Some(Fault::PublishStall) => pending = Some(r),
            Some(Fault::Corrupt(_)) | Some(Fault::RejectEpoch) => {}
            Some(other) => panic!("not a query-tier fault: {other:?}"),
        }
        per_round.push((epoch, content));
    }
    if pending.take().is_some() {
        epoch += 1;
    }
    (per_round, (epoch + 1, FINAL_CONTENT))
}

#[derive(Clone, Copy)]
enum Query {
    Range(Rect),
    Count(Rect),
    Knn(Point2, usize),
}

fn round_queries(round: u64) -> Vec<Query> {
    let mut rng = StdRng::seed_from_u64(MASTER_SEED ^ (0xfau64 + round * 0x85eb_ca6b));
    (0..QUERIES_PER_ROUND)
        .map(|qi| {
            let x = rng.random_range(0.0..0.8);
            let y = rng.random_range(0.0..0.8);
            let w = rng.random_range(0.02..0.2);
            match qi % 3 {
                0 => Query::Range(Rect::from_bounds(x, y, x + w, y + w)),
                1 => Query::Count(Rect::from_bounds(
                    x,
                    y,
                    (x + 3.0 * w).min(1.0),
                    (y + 3.0 * w).min(1.0),
                )),
                _ => Query::Knn(Point2::new(x, y), 1 + (qi % 7)),
            }
        })
        .collect()
}

fn fnv_u64(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fnv_points(h: u64, pts: &[Point2]) -> u64 {
    let mut h = fnv_u64(h, pts.len() as u64);
    for p in pts {
        h = fnv_u64(h, p.x.to_bits());
        h = fnv_u64(h, p.y.to_bits());
    }
    h
}

/// FNV-1a 64 digest of one answer. Deliberately excludes the epoch:
/// the faulted and never-faulted runs publish the same *content* at
/// different epoch numbers, and recovery is judged on bytes served.
fn answer(snap: &Snapshot, q: &Query) -> u64 {
    use popan_query::Queryable;
    let h = 0xcbf2_9ce4_8422_2325;
    match q {
        Query::Range(rect) => fnv_points(h, &snap.range(rect)),
        Query::Count(rect) => fnv_u64(h, snap.count(rect) as u64),
        Query::Knn(target, k) => fnv_points(h, &snap.knn(target, *k)),
    }
}

/// Drives the full chaos schedule with `n_readers` phase-locked reader
/// threads; returns the merged (round, query, digest) log and the
/// digests of the finally served snapshot.
fn run_chaos(n_readers: usize) -> (Vec<(u64, usize, u64)>, popan_spatial::SectionDigests) {
    let plan = plan();
    let (per_round, (final_epoch, _)) = simulate(&plan);

    let mut publisher = SnapshotPublisher::new(round_snapshot(0));
    let barrier = Arc::new(Barrier::new(n_readers + 1));
    let handles: Vec<_> = (0..n_readers)
        .map(|rid| {
            let mut reader = publisher.subscribe();
            let barrier = Arc::clone(&barrier);
            let per_round = per_round.clone();
            std::thread::spawn(move || {
                let mut log = Vec::new();
                for round in 1..=ROUNDS {
                    barrier.wait();
                    let (want_epoch, want_content) = per_round[(round - 1) as usize];
                    while reader.epoch() != want_epoch {
                        reader.refresh();
                        std::thread::yield_now();
                    }
                    let snap = reader.cached();
                    // Invariant 1: never torn, never damaged.
                    snap.verify().unwrap_or_else(|report| {
                        panic!("reader {rid} served a damaged snapshot in round {round}: {report}")
                    });
                    assert_eq!(
                        snap.len(),
                        content_len(want_content),
                        "round {round}: serving the wrong content"
                    );
                    for (qi, q) in round_queries(round).iter().enumerate() {
                        if qi % n_readers == rid {
                            log.push((round, qi, answer(snap, q)));
                        }
                    }
                    barrier.wait();
                }
                log
            })
        })
        .collect();

    let mut pending: Option<Snapshot> = None;
    for round in 1..=ROUNDS {
        if let Some(stalled) = pending.take() {
            publisher
                .publish(stalled)
                .expect("stalled candidate is pristine");
        }
        let candidate = round_snapshot(round);
        match plan.fault_for(SCOPE, round as usize, 0) {
            None => {
                publisher.publish(candidate).expect("clean publish");
            }
            Some(Fault::Corrupt(target)) => {
                let section = section_of(target);
                let mut damaged = candidate;
                assert!(damaged.corrupt_section(section, 1000 + round));
                match publisher.publish(damaged) {
                    Err(PublishError::Corrupt(report)) => {
                        assert_eq!(report.damaged, vec![section], "round {round}")
                    }
                    other => panic!("round {round}: corrupt candidate not rejected: {other:?}"),
                }
            }
            Some(Fault::PublishStall) => pending = Some(candidate),
            Some(Fault::RejectEpoch) => {
                publisher.quarantine(&candidate);
            }
            Some(other) => panic!("not a query-tier fault: {other:?}"),
        }
        assert_eq!(publisher.epoch(), per_round[(round - 1) as usize].0);
        barrier.wait(); // round starts: readers sync + query
        barrier.wait(); // round ends: safe to mutate the publisher
    }
    let mut merged = Vec::new();
    for h in handles {
        merged.extend(h.join().expect("reader thread panicked"));
    }
    merged.sort_unstable();
    assert_eq!(merged.len(), ROUNDS as usize * QUERIES_PER_ROUND);

    // Recovery: flush the stall (if the plan left one) and publish the
    // final clean candidate.
    if let Some(stalled) = pending.take() {
        publisher
            .publish(stalled)
            .expect("stalled candidate is pristine");
    }
    publisher
        .publish(round_snapshot(FINAL_CONTENT))
        .expect("recovery publish");
    assert_eq!(publisher.epoch(), final_epoch);

    // Health reflects the plan exactly: three corrupt + one forced.
    let health = publisher.health();
    assert_eq!(health.last_good_epoch, final_epoch);
    assert_eq!(health.rejected, 4);
    assert_eq!(health.quarantined, 4);
    let causes: Vec<bool> = publisher
        .quarantine_log()
        .iter()
        .map(|e| matches!(e.cause, QuarantineCause::Corrupt(_)))
        .collect();
    assert_eq!(causes, vec![true, true, false, true]);

    let mut reader = publisher.subscribe();
    let served = reader.current();
    served.verify().expect("recovered snapshot verifies");
    (merged, served.digests())
}

#[test]
fn chaos_rounds_serve_only_last_good_and_recover_byte_identically() {
    let plan = plan();
    // The wire syntax and the programmatic builder agree.
    let built = FaultPlan::none()
        .inject(SCOPE, 2, Fault::Corrupt(CorruptTarget::Points))
        .inject(SCOPE, 4, Fault::PublishStall)
        .inject(SCOPE, 5, Fault::Corrupt(CorruptTarget::Leaves))
        .inject(SCOPE, 7, Fault::RejectEpoch)
        .inject(SCOPE, 8, Fault::Corrupt(CorruptTarget::Blocks));
    assert_eq!(plan, built);

    // Invariant 2's oracle: answer every round from the simulated
    // last-good snapshot, serially, no publisher involved.
    let (per_round, _) = simulate(&plan);
    let mut expected = Vec::new();
    for round in 1..=ROUNDS {
        let (_, content) = per_round[(round - 1) as usize];
        let snap = round_snapshot(content);
        for (qi, q) in round_queries(round).iter().enumerate() {
            expected.push((round, qi, answer(&snap, q)));
        }
    }

    let (one, digests_one) = run_chaos(1);
    assert_eq!(
        one, expected,
        "1-reader log must match the last-good oracle"
    );

    let n = std::env::var("POPAN_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| (1..=16).contains(&n))
        .unwrap_or(4);
    if n != 1 {
        let (many, digests_many) = run_chaos(n);
        assert_eq!(
            many, one,
            "{n}-reader log must be bit-identical to 1-reader"
        );
        assert_eq!(digests_many, digests_one);
    }

    // Invariant 3: the recovered snapshot is byte-identical to what a
    // never-faulted run serves — same section digests, same answers.
    let unfaulted = round_snapshot(FINAL_CONTENT);
    assert_eq!(digests_one, unfaulted.digests());
}

#[test]
fn never_faulted_schedule_is_the_identity_baseline() {
    // With an empty plan the simulation collapses to "round r serves
    // content r at epoch r" — pinning the simulator itself.
    let empty = FaultPlan::none();
    let (per_round, (final_epoch, final_content)) = simulate(&empty);
    for (i, &(epoch, content)) in per_round.iter().enumerate() {
        assert_eq!((epoch, content), ((i + 1) as u64, (i + 1) as u64));
    }
    assert_eq!((final_epoch, final_content), (ROUNDS + 1, FINAL_CONTENT));
}
