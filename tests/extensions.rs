//! Integration tests for the beyond-the-paper components, exercised
//! through the umbrella crate exactly as a downstream user would.

use vbp::variantdbscan::{EngineConfig, RChoice};
use vbp::vbp_data::{SpaceWeatherSpec, SyntheticClass, SyntheticSpec};
use vbp::vbp_dbscan::{
    dbscan, grid_dbscan, parallel_dbscan, sharded_dbscan, DbscanParams, IncrementalDbscan,
};
use vbp::vbp_geom::Point2;
use vbp::vbp_rtree::{traits::shared_points, BruteForce, PackedRTree};

fn dataset(n: usize) -> Vec<Point2> {
    SyntheticSpec::new(SyntheticClass::CF, n, 0.15, 4242).generate()
}

/// Inserts the next `k` of `points` as one batch, answering its
/// ε-queries by a scan over the prefix the batch ends at.
fn insert_batch(inc: &mut IncrementalDbscan, points: &[Point2], k: usize) {
    let prefix = &points[..inc.len() + k];
    let eps = inc.params().eps;
    inc.insert(k, |q, out| {
        let center = prefix[q as usize];
        out.extend((0..prefix.len() as u32).filter(|&c| prefix[c as usize].within(&center, eps)));
    });
}

/// All four DBSCAN implementations agree on structure; the three with
/// deterministic border claims agree exactly. The tree-order runs (the
/// classic kernel and the sharded kernel the benchmark times) are held to
/// the grid oracle on packed trees at `r = 70` and at the engine's
/// default `r`.
#[test]
fn four_dbscan_implementations_agree() {
    let points = dataset(2_000);
    let params = DbscanParams::new(0.6, 4);

    let brute = BruteForce::new(shared_points(points.clone()));
    let from_parallel = parallel_dbscan(&brute, params, 4);
    let from_grid = grid_dbscan(&points, params);
    let mut inc = IncrementalDbscan::new(params);
    for _ in &points {
        insert_batch(&mut inc, &points, 1);
    }
    let from_incremental = inc.snapshot();

    // Deterministic trio: byte-identical.
    assert_eq!(from_parallel, from_grid);
    assert_eq!(from_parallel, from_incremental);

    // Core points by brute force: a search that loses a neighbour can
    // turn cores into borders and still leave the structure as it was.
    let core_points = points
        .iter()
        .filter(|p| points.iter().filter(|q| q.within(p, params.eps)).count() >= params.minpts)
        .count();
    let RChoice::Fixed(default_r) = EngineConfig::default().r else {
        panic!("the engine's default r is fixed");
    };
    for r in [70, default_r] {
        let (tree, perm) = PackedRTree::build(&points, r);
        let classic_tree_order = dbscan(&tree, params);
        let (sharded_tree_order, stats) = sharded_dbscan(&tree, params, 4, 2).unwrap();
        assert_eq!(stats.dbscan.core_points, core_points, "r = {r}");
        // Bit-identical across shard and thread counts on the packed tree.
        assert_eq!(
            sharded_tree_order,
            parallel_dbscan(&tree, params, 2),
            "r = {r}"
        );

        // Tree-order runs vs the trio: same structure, and per-point
        // noise agreement through the permutation.
        for tree_order in [&classic_tree_order, &sharded_tree_order] {
            assert_eq!(
                tree_order.num_clusters(),
                from_grid.num_clusters(),
                "r = {r}"
            );
            assert_eq!(tree_order.noise_count(), from_grid.noise_count(), "r = {r}");
            for (tree_idx, &orig) in perm.iter().enumerate() {
                assert_eq!(
                    tree_order.labels().is_noise(tree_idx as u32),
                    from_grid.labels().is_noise(orig),
                    "r = {r}"
                );
            }
        }
    }
}

/// Incremental DBSCAN over a simulated TEC stream, fed in batches of
/// varying size, stays consistent with batch re-clustering at every
/// checkpoint, and so does its running census.
#[test]
fn incremental_tracks_batch_on_tec_stream() {
    let stream = SpaceWeatherSpec::scaled(2, 1_600).generate();
    let params = DbscanParams::new(1.2, 4);
    let mut inc = IncrementalDbscan::new(params);
    let mut sizes = [1, 7, 64, 3, 200].into_iter().cycle();
    while inc.len() < stream.len() {
        let next_checkpoint = (inc.len() / 800 + 1) * 800;
        let k = sizes
            .next()
            .unwrap()
            .min(next_checkpoint.min(stream.len()) - inc.len());
        insert_batch(&mut inc, &stream, k);
        let at = inc.len();
        if at.is_multiple_of(800) {
            let snap = inc.snapshot();
            let batch = parallel_dbscan(
                &BruteForce::new(shared_points(stream[..at].to_vec())),
                params,
                1,
            );
            assert_eq!(snap, batch, "checkpoint at {at}");
            assert_eq!(inc.clusters(), batch.num_clusters(), "checkpoint at {at}");
            assert_eq!(inc.noise(), batch.noise_count(), "checkpoint at {at}");
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
