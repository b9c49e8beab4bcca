//! A tour of every hierarchical structure in the workspace.
//!
//! Builds each structure from matched workloads, reports its occupancy
//! statistics next to the generalized population model's prediction, and
//! shows the representation trade-offs (pointer tree vs linear quadtree,
//! adaptive splitting vs EXCELL's global directory).
//!
//! ```text
//! cargo run --release --example structures_tour
//! ```

use popan::core::{PrModel, SteadyStateSolver};
use popan::exthash::excell::ExcellGrid;
use popan::exthash::gridfile::GridFile;
use popan::exthash::ExtendibleHashTable;
use popan::geom::{BoxN, Rect};
use popan::spatial::{Bintree, LinearQuadtree, PointQuadtree, PrQuadtree, PrTreeNd};
use popan::workload::keys::UniformKeys;
use popan::workload::points::{uniform_in_box, PointSource, UniformRect};
use popan_rng::rngs::StdRng;
use popan_rng::SeedableRng;

const N: usize = 4000;
const CAPACITY: usize = 4;

fn model_occupancy(branching: usize) -> f64 {
    let model = PrModel::with_branching(branching, CAPACITY).expect("valid");
    SteadyStateSolver::new()
        .solve(&model)
        .expect("solves")
        .distribution()
        .average_occupancy()
}

fn main() {
    let mut rng = StdRng::seed_from_u64(0x70ff);
    println!("{N} uniform points, node capacity {CAPACITY}\n");
    println!(
        "{:<22} {:>4} {:>8} {:>10} {:>12}",
        "structure", "b", "leaves", "avg occ", "model occ"
    );

    // The PR family across branching factors.
    let pts2 = UniformRect::unit().sample_n(&mut rng, N);
    let bt = Bintree::build(Rect::unit(), CAPACITY, pts2.iter().copied()).unwrap();
    let qt = PrQuadtree::build(Rect::unit(), CAPACITY, pts2.iter().copied()).unwrap();
    let ot = PrTreeNd::<3>::build(
        BoxN::unit(),
        CAPACITY,
        uniform_in_box(&BoxN::unit(), &mut rng, N),
    )
    .unwrap();
    let nd = PrTreeNd::<4>::build(
        BoxN::unit(),
        CAPACITY,
        uniform_in_box(&BoxN::unit(), &mut rng, N),
    )
    .unwrap();

    let row = |name: &str, b: usize, leaves: usize, occ: f64| {
        println!(
            "{name:<22} {b:>4} {leaves:>8} {occ:>10.3} {:>12.3}",
            model_occupancy(b)
        );
    };
    row(
        "bintree",
        2,
        bt.leaf_count(),
        bt.occupancy_profile().average_occupancy(),
    );
    row(
        "PR quadtree",
        4,
        qt.leaf_count(),
        qt.occupancy_profile().average_occupancy(),
    );
    row(
        "PR octree",
        8,
        ot.leaf_count(),
        ot.occupancy_profile().average_occupancy(),
    );
    row(
        "PR 4-d tree",
        16,
        nd.leaf_count(),
        nd.occupancy_profile().average_occupancy(),
    );

    // The point quadtree has no bucket populations — depth is its story.
    let pq = PointQuadtree::build(pts2.iter().copied()).unwrap();
    println!(
        "\npoint quadtree (Finkel–Bentley): {} nodes, max depth {}, mean depth {:.2}",
        pq.node_count(),
        pq.max_depth().unwrap(),
        pq.mean_depth().unwrap()
    );

    // Pointer tree vs linear quadtree: same answers, flat memory.
    let linear = LinearQuadtree::from_tree(&qt).expect("tour tree is within Morton depth");
    let window = Rect::from_bounds(0.3, 0.3, 0.4, 0.45);
    assert_eq!(
        linear.range_query(&window).len(),
        qt.range_query(&window).len()
    );
    println!(
        "linear quadtree: {} leaf records, {} KiB flat, window query agrees with pointer tree",
        linear.leaf_count(),
        linear.heap_bytes() / 1024
    );

    // The hashing cousins.
    let mut eh = ExtendibleHashTable::new(8).unwrap();
    for k in UniformKeys.sample_n(&mut rng, N) {
        eh.insert(k);
    }
    println!(
        "extendible hashing:  {} buckets (b=8), utilization {:.3} (ln 2 = 0.693)",
        eh.bucket_count(),
        eh.utilization()
    );
    let mut grid = ExcellGrid::new(Rect::unit(), 8).unwrap();
    for p in &pts2 {
        grid.insert(*p).unwrap();
    }
    println!(
        "EXCELL grid:         {} buckets over {} cells, utilization {:.3}",
        grid.bucket_count(),
        grid.cell_count(),
        grid.utilization()
    );
    let mut gf = GridFile::new(Rect::unit(), 8).unwrap();
    for p in &pts2 {
        gf.insert(*p).unwrap();
    }
    println!(
        "grid file:           {} buckets over {}×{} cells, utilization {:.3}",
        gf.bucket_count(),
        gf.nx(),
        gf.ny(),
        gf.utilization()
    );

    println!(
        "\ntakeaway: every bucketing structure here runs at the partial utilization \
         its splitting statistics dictate — which is exactly what the population \
         model computes from local probabilities alone."
    );
}
