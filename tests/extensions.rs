//! Integration tests for the beyond-the-paper components, exercised
//! through the umbrella crate exactly as a downstream user would.

use vbp::vbp_data::{SpaceWeatherSpec, SyntheticClass, SyntheticSpec};
use vbp::vbp_dbscan::{dbscan, grid_dbscan, parallel_dbscan, DbscanParams, IncrementalDbscan};
use vbp::vbp_geom::Point2;
use vbp::vbp_rtree::{traits::shared_points, BruteForce, PackedRTree};

fn dataset(n: usize) -> Vec<Point2> {
    SyntheticSpec::new(SyntheticClass::CF, n, 0.15, 4242).generate()
}

/// Inserts `points[inc.len()]`, answering its ε-queries by a scan over
/// the inserted prefix.
fn insert_next(inc: &mut IncrementalDbscan, points: &[Point2]) {
    let prefix = &points[..=inc.len()];
    let eps = inc.params().eps;
    inc.insert(|q, out| {
        let center = prefix[q as usize];
        out.extend((0..prefix.len() as u32).filter(|&c| prefix[c as usize].within(&center, eps)));
    });
}

/// All four DBSCAN implementations agree on structure; the three with
/// deterministic border claims agree exactly.
#[test]
fn four_dbscan_implementations_agree() {
    let points = dataset(2_000);
    let params = DbscanParams::new(0.6, 4);

    let (tree, perm) = PackedRTree::build(&points, 70);
    let classic_tree_order = dbscan(&tree, params);

    let brute = BruteForce::new(shared_points(points.clone()));
    let from_parallel = parallel_dbscan(&brute, params, 4);
    let from_grid = grid_dbscan(&points, params);
    let mut inc = IncrementalDbscan::new(params);
    for _ in &points {
        insert_next(&mut inc, &points);
    }
    let from_incremental = inc.snapshot();

    // Deterministic trio: byte-identical.
    assert_eq!(from_parallel, from_grid);
    assert_eq!(from_parallel, from_incremental);

    // Classic (tree order) vs the trio: same structure.
    assert_eq!(classic_tree_order.num_clusters(), from_grid.num_clusters());
    assert_eq!(classic_tree_order.noise_count(), from_grid.noise_count());
    // Per-point noise agreement through the permutation.
    for (tree_idx, &orig) in perm.iter().enumerate() {
        assert_eq!(
            classic_tree_order.labels().is_noise(tree_idx as u32),
            from_grid.labels().is_noise(orig),
        );
    }
}

/// Incremental DBSCAN over a simulated TEC stream stays consistent with
/// batch re-clustering at every checkpoint.
#[test]
fn incremental_tracks_batch_on_tec_stream() {
    let stream = SpaceWeatherSpec::scaled(2, 1_600).generate();
    let params = DbscanParams::new(1.2, 4);
    let mut inc = IncrementalDbscan::new(params);
    for i in 0..stream.len() {
        insert_next(&mut inc, &stream);
        if (i + 1) % 800 == 0 {
            let snap = inc.snapshot();
            let batch = parallel_dbscan(
                &BruteForce::new(shared_points(stream[..=i].to_vec())),
                params,
                1,
            );
            assert_eq!(snap, batch, "checkpoint at {}", i + 1);
        }
    }
}

/// The umbrella prelude exposes the advertised one-stop API.
#[test]
fn prelude_is_sufficient_for_the_quickstart_flow() {
    use vbp::prelude::*;
    let points = DatasetSpec::by_name("cF_10k_5N@1000").unwrap().generate();
    let variants = VariantSet::cartesian(&[0.8], &[4]);
    let report = Engine::new(EngineConfig::default().with_threads(1).with_r(16))
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();
    assert_eq!(report.outcomes.len(), 1);
    let result: &ClusterResult = &report.results[0];
    assert!(result.num_clusters() >= 1);
    let mbb: Mbb = Mbb::around_point(Point2::new(0.0, 0.0), 1.0);
    assert!(mbb.contains_point(&Point2::new(0.5, 0.5)));
}
