//! Cross-structure integration: the generalized model against every
//! substrate at once, plus structural identities that tie the crates
//! together.

use popan::core::{PrModel, SteadyStateSolver};
use popan::exthash::{fagin, ExtendibleHashTable};
use popan::geom::{BoxN, Rect};
use popan::spatial::{Bintree, OccupancyInstrumented, PrQuadtree, PrTreeNd};
use popan::workload::keys::UniformKeys;
use popan::workload::points::{uniform_in_box, PointSource, UniformRect};
use popan::workload::TrialRunner;

fn theory_occupancy(branching: usize, capacity: usize) -> f64 {
    let model = PrModel::with_branching(branching, capacity).unwrap();
    SteadyStateSolver::new()
        .solve(&model)
        .unwrap()
        .distribution()
        .average_occupancy()
}

#[test]
fn occupancy_ordering_bintree_quadtree_octree() {
    // Theory: occupancy falls with branching factor; measurements agree
    // structure by structure.
    let capacity = 3;
    let runner = TrialRunner::new(0xc5, 4);
    let bt: f64 = runner.run_mean(|_, rng| {
        Bintree::build(
            Rect::unit(),
            capacity,
            UniformRect::unit().sample_n(rng, 1200),
        )
        .unwrap()
        .occupancy_profile()
        .average_occupancy()
    });
    let qt: f64 = runner.run_mean(|_, rng| {
        PrQuadtree::build(
            Rect::unit(),
            capacity,
            UniformRect::unit().sample_n(rng, 1200),
        )
        .unwrap()
        .occupancy_profile()
        .average_occupancy()
    });
    let ot: f64 = runner.run_mean(|_, rng| {
        PrTreeNd::<3>::build(
            BoxN::unit(),
            capacity,
            uniform_in_box(&BoxN::unit(), rng, 1200),
        )
        .unwrap()
        .occupancy_profile()
        .average_occupancy()
    });
    assert!(
        bt > qt && qt > ot,
        "measured: bt {bt:.2}, qt {qt:.2}, ot {ot:.2}"
    );
    let (tb, tq, to) = (
        theory_occupancy(2, capacity),
        theory_occupancy(4, capacity),
        theory_occupancy(8, capacity),
    );
    assert!(tb > tq && tq > to, "theory: {tb:.2}, {tq:.2}, {to:.2}");
}

#[test]
fn node_count_identities_hold_across_structures() {
    let mut rng = TrialRunner::new(0x1d, 1).rng_for_trial(0);
    let pts = UniformRect::unit().sample_n(&mut rng, 700);

    let qt = PrQuadtree::build(Rect::unit(), 1, pts.iter().copied()).unwrap();
    let internal = qt.node_count() - qt.leaf_count();
    assert_eq!(qt.leaf_count(), 3 * internal + 1, "4-ary identity");

    let bt = Bintree::build(Rect::unit(), 1, pts.iter().copied()).unwrap();
    let internal = bt.node_count() - bt.leaf_count();
    assert_eq!(bt.leaf_count(), internal + 1, "binary identity");

    let pts3 = uniform_in_box::<3>(&BoxN::unit(), &mut rng, 700);
    let ot = PrTreeNd::build(BoxN::unit(), 1, pts3).unwrap();
    let internal = ot.node_count() - ot.leaf_count();
    assert_eq!(ot.leaf_count(), 7 * internal + 1, "8-ary identity");
}

#[test]
fn model_average_occupancy_against_every_structure() {
    // Theory tracks measurement for every branching factor, with a band
    // wide enough for the systematic part of the gap: aging (PAPER.md §1:
    // "theory slightly over-predicts average occupancy") grows with b,
    // and for the octree at m = 4 the converged bias is ≈ 39% (measured
    // over 32 trials), so the band is 45%. Exact bands are asserted in
    // the dims experiment with cycle averaging.
    let capacity = 4;
    let runner = TrialRunner::new(0xac, 4);
    let measured: [(usize, f64); 3] = [
        (
            2,
            runner.run_mean(|_, rng| {
                Bintree::build(
                    Rect::unit(),
                    capacity,
                    UniformRect::unit().sample_n(rng, 2000),
                )
                .unwrap()
                .occupancy_profile()
                .average_occupancy()
            }),
        ),
        (
            4,
            runner.run_mean(|_, rng| {
                PrQuadtree::build(
                    Rect::unit(),
                    capacity,
                    UniformRect::unit().sample_n(rng, 2000),
                )
                .unwrap()
                .occupancy_profile()
                .average_occupancy()
            }),
        ),
        (
            8,
            runner.run_mean(|_, rng| {
                PrTreeNd::<3>::build(
                    BoxN::unit(),
                    capacity,
                    uniform_in_box(&BoxN::unit(), rng, 2000),
                )
                .unwrap()
                .occupancy_profile()
                .average_occupancy()
            }),
        ),
    ];
    for (b, occ) in measured {
        let thy = theory_occupancy(b, capacity);
        let rel = (thy - occ).abs() / occ;
        assert!(rel < 0.45, "b={b}: theory {thy:.3} vs measured {occ:.3}");
    }
}

#[test]
fn exthash_and_quadtree_show_the_same_phenomenon_class() {
    // Both bucketing disciplines run at partial utilization with the gap
    // explained by their splitting statistics: extendible hashing near
    // ln 2 ≈ 0.69, the m=8 PR quadtree near 0.47 (measured).
    let mut table = ExtendibleHashTable::new(8).unwrap();
    let mut rng = TrialRunner::new(0xef, 1).rng_for_trial(0);
    for k in UniformKeys.sample_n(&mut rng, 8000) {
        table.insert(k);
    }
    assert!((table.utilization() - fagin::expected_utilization()).abs() < 0.06);

    let tree = PrQuadtree::build(
        Rect::unit(),
        8,
        UniformRect::unit().sample_n(&mut rng, 8000),
    )
    .unwrap();
    let u = tree.occupancy_profile().utilization(8);
    assert!((0.38..=0.56).contains(&u), "quadtree utilization {u}");
    assert!(
        table.utilization() > u,
        "hashing (splits in 2) beats the quadtree (splits in 4) on utilization"
    );
}

#[test]
fn pmr_and_pr_disagree_in_the_expected_direction() {
    // PR leaves never exceed capacity; PMR leaves may (split-once rule).
    let mut rng = TrialRunner::new(0x9e, 1).rng_for_trial(0);
    let pts = UniformRect::unit().sample_n(&mut rng, 1500);
    let pr = PrQuadtree::build(Rect::unit(), 4, pts).unwrap();
    assert!(pr.occupancy_profile().max_occupancy() <= 4);

    use popan::workload::lines::{SegmentSource, UniformEndpoints};
    let segs = UniformEndpoints::unit().sample_n(&mut rng, 300);
    let pmr = popan::spatial::PmrQuadtree::build(Rect::unit(), 4, segs).unwrap();
    assert!(
        pmr.occupancy_profile().max_occupancy() > 4,
        "PMR must show occupancies above the threshold"
    );
}
