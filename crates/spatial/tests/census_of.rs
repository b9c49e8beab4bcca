//! Each PR tree's `census_of` against its `build`: over the same input
//! the census must equal the built tree's (profile, depth table and leaf
//! count), and a bad input must fail with the error `build` gives, in
//! `build`'s order of checks.

use popan_geom::{BoxN, Point2, PointN, Rect};
use popan_proptest::prelude::*;
use popan_proptest::TestCaseError;
use popan_spatial::pr_quadtree::TreeError;
use popan_spatial::{
    Bintree, DepthOccupancyTable, OccupancyCensus, OccupancyProfile, PrQuadtree, PrTreeNd,
};

fn same_census(
    census: &OccupancyCensus,
    profile: &OccupancyProfile,
    table: &DepthOccupancyTable,
    leaves: usize,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(census.profile(), profile);
    prop_assert_eq!(census.depth_table(), table);
    prop_assert_eq!(census.leaf_count(), leaves);
    Ok(())
}

/// Builds and takes the census of each tree over the first 2, 3 and 4
/// coordinates of `pts` at `capacity`, and compares them.
fn check_all(pts: &[[f64; 4]], capacity: usize) -> Result<(), TestCaseError> {
    let quad: Vec<Point2> = pts.iter().map(|c| Point2::new(c[0], c[1])).collect();
    let t = PrQuadtree::build(Rect::unit(), capacity, quad.iter().copied()).unwrap();
    let census = PrQuadtree::census_of(Rect::unit(), capacity, quad.clone()).unwrap();
    prop_assert_eq!(&census, t.census());
    let t = Bintree::build(Rect::unit(), capacity, quad.iter().copied()).unwrap();
    let census = Bintree::census_of(Rect::unit(), capacity, quad).unwrap();
    same_census(
        &census,
        t.occupancy_profile(),
        t.depth_table(),
        t.leaf_count(),
    )?;

    let oct: Vec<PointN<3>> = pts
        .iter()
        .map(|&[x, y, z, _]| PointN::new([x, y, z]))
        .collect();
    let t = PrTreeNd::<3>::build(BoxN::unit(), capacity, oct.iter().copied()).unwrap();
    let census = PrTreeNd::<3>::census_of(BoxN::unit(), capacity, oct).unwrap();
    same_census(
        &census,
        t.occupancy_profile(),
        t.depth_table(),
        t.leaf_count(),
    )?;

    let nd: Vec<PointN<4>> = pts.iter().map(|&c| PointN::new(c)).collect();
    let t = PrTreeNd::<4>::build(BoxN::unit(), capacity, nd.iter().copied()).unwrap();
    let census = PrTreeNd::<4>::census_of(BoxN::unit(), capacity, nd).unwrap();
    same_census(
        &census,
        t.occupancy_profile(),
        t.depth_table(),
        t.leaf_count(),
    )
}

/// A sample's coordinates by its kind: uniform; on a 4-cell grid, so
/// coincident piles above capacity sit on split lines; a cluster
/// `1e-13` apart, which only the default `max_depth` cuts; or a grid of
/// step 2⁻²⁹, whose blocks split 29 levels down.
fn coords(&(kind, c): &(u8, [f64; 4])) -> [f64; 4] {
    c.map(|v| {
        let cell = (v * 8.0).floor();
        match kind {
            0..=3 => v,
            4 | 5 => (v * 4.0).floor() / 4.0,
            6 => 0.5 + cell * 1e-13,
            _ => 0.375 + cell * 2f64.powi(-29),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn census_of_equals_the_built_census(
        samples in popan_proptest::collection::vec(
            (0u8..8, popan_proptest::array::uniform4(0.0f64..1.0)),
            0..160,
        ),
        capacity in 1usize..6,
    ) {
        let pts: Vec<[f64; 4]> = samples.iter().map(coords).collect();
        check_all(&pts, capacity)?;
    }
}

#[test]
fn census_of_covers_the_edge_inputs() {
    let pile = [[0.3; 4]; 12];
    let cut = [[0.5; 4], [0.5 + 1e-13; 4], [0.5 + 2e-13; 4]];
    let fine: Vec<[f64; 4]> = (0..64)
        .map(|i| {
            let step = 2f64.powi(-29);
            [
                0.25 + f64::from(i % 8) * step,
                0.25 + f64::from(i / 8) * step,
                0.25 + f64::from(i % 4) * step,
                0.25 + f64::from(i % 2) * step,
            ]
        })
        .collect();
    for pts in [&[][..], &[[0.7; 4]][..], &pile[..], &cut[..], &fine[..]] {
        for capacity in [1, 2, 4] {
            check_all(pts, capacity).unwrap();
        }
    }
    // The cases reach what they are named for.
    let deep = |pts: &[[f64; 4]]| {
        let quad = pts.iter().map(|c| Point2::new(c[0], c[1])).collect();
        let census = PrQuadtree::census_of(Rect::unit(), 1, quad).unwrap();
        census.depth_table().max_depth().unwrap()
    };
    assert_eq!(deep(&cut), 32, "the cluster is cut by max_depth");
    assert!(deep(&fine) >= 29, "the 2^-29 grid splits 29 levels down");
    let quad = pile.iter().map(|c| Point2::new(c[0], c[1])).collect();
    let census = PrQuadtree::census_of(Rect::unit(), 2, quad).unwrap();
    assert_eq!(
        census.profile().max_occupancy(),
        12,
        "the pile stays one leaf"
    );
}

#[test]
fn census_of_fails_as_build_does() {
    let nan = f64::NAN;
    let capacity_error = TreeError::InvalidParameter("node capacity must be at least 1".into());
    let out_of_region = |coord| TreeError::OutOfRegion { axis: 0, coord };
    // Capacity is checked before any point; then points in input order.
    // Every tree gives the same error for the same input.
    let inputs: [(usize, [[f64; 4]; 3], TreeError); 4] = [
        (0, [[0.5; 4], [nan; 4], [2.0; 4]], capacity_error),
        (2, [[0.5; 4], [nan; 4], [2.0; 4]], TreeError::NonFinitePoint),
        (2, [[0.5; 4], [2.0; 4], [nan; 4]], out_of_region(2.0)),
        (2, [[0.5; 4], [0.25; 4], [1.0; 4]], out_of_region(1.0)),
    ];
    for (capacity, pts, want) in inputs {
        let quad: Vec<Point2> = pts.iter().map(|c| Point2::new(c[0], c[1])).collect();
        let got = PrQuadtree::build(Rect::unit(), capacity, quad.iter().copied()).unwrap_err();
        assert_eq!(got, want);
        let got = PrQuadtree::census_of(Rect::unit(), capacity, quad.clone()).unwrap_err();
        assert_eq!(got, want);
        let got = Bintree::build(Rect::unit(), capacity, quad.iter().copied()).unwrap_err();
        assert_eq!(got, want);
        let got = Bintree::census_of(Rect::unit(), capacity, quad).unwrap_err();
        assert_eq!(got, want);

        let oct: Vec<PointN<3>> = pts
            .iter()
            .map(|&[x, y, z, _]| PointN::new([x, y, z]))
            .collect();
        let got = PrTreeNd::<3>::build(BoxN::unit(), capacity, oct.iter().copied()).unwrap_err();
        assert_eq!(got, want);
        let got = PrTreeNd::<3>::census_of(BoxN::unit(), capacity, oct).unwrap_err();
        assert_eq!(got, want);

        let nd: Vec<PointN<4>> = pts.iter().map(|&c| PointN::new(c)).collect();
        let got = PrTreeNd::<4>::build(BoxN::unit(), capacity, nd.iter().copied()).unwrap_err();
        assert_eq!(got, want);
        let got = PrTreeNd::<4>::census_of(BoxN::unit(), capacity, nd).unwrap_err();
        assert_eq!(got, want);
    }
    // A zero-dimensional tree fails on its dimension before its capacity.
    assert_eq!(
        PrTreeNd::<0>::census_of(BoxN::unit(), 0, Vec::new()).unwrap_err(),
        PrTreeNd::<0>::build(BoxN::unit(), 0, []).unwrap_err()
    );
}
