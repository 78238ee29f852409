//! Property-based tests of DBSCAN's defining invariants (§II-B).
//!
//! For random point clouds and random `(ε, minpts)`:
//!
//! 1. every core point belongs to a cluster;
//! 2. every noise point is non-core AND has no core point within ε
//!    (unreachable);
//! 3. every clustered non-core point (border point) has a core point of
//!    its own cluster within ε;
//! 4. core points within ε of each other share a cluster (direct density
//!    reachability merges);
//! 5. the labeling partitions the database (checked structurally);
//! 6. the result is invariant (up to border assignment) across indexes.

use proptest::prelude::*;
use vbp_dbscan::{core_flags, core_isomorphic, dbscan, quality_score, DbscanParams};
use vbp_geom::{Point2, PointId};
use vbp_rtree::traits::shared_points;
use vbp_rtree::{BruteForce, PackedRTree};

fn arb_cloud() -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec(
        (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(x, y)| Point2::new(x, y)),
        0..200,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dbscan_invariants(
        points in arb_cloud(),
        eps in 0.05f64..3.0,
        minpts in 1usize..8,
    ) {
        let params = DbscanParams::new(eps, minpts);
        let idx = BruteForce::new(shared_points(points.clone()));
        let result = dbscan(&idx, params);
        prop_assert!(result.check_consistency().is_ok());

        let is_core = core_flags(&idx, params);
        let labels = result.labels();

        for i in 0..points.len() {
            let pid = i as PointId;
            if is_core[i] {
                // (1) core points always clustered.
                prop_assert!(labels.cluster(pid).is_some(), "core point {i} not clustered");
            }
            if labels.is_noise(pid) {
                // (2) noise is non-core and unreachable from any core point.
                prop_assert!(!is_core[i]);
                for (j, q) in points.iter().enumerate() {
                    if is_core[j] && points[i].within(q, eps) {
                        prop_assert!(false, "noise point {i} reachable from core {j}");
                    }
                }
            } else if !is_core[i] {
                // (3) border point: some core point of the same cluster within ε.
                let c = labels.cluster(pid).unwrap();
                let ok = points.iter().enumerate().any(|(j, q)| {
                    is_core[j]
                        && labels.cluster(j as PointId) == Some(c)
                        && points[i].within(q, eps)
                });
                prop_assert!(ok, "border point {i} has no same-cluster core within ε");
            }
        }

        // (4) directly density-reachable core pairs share a cluster.
        for i in 0..points.len() {
            if !is_core[i] { continue; }
            for j in (i + 1)..points.len() {
                if is_core[j] && points[i].within(&points[j], eps) {
                    prop_assert_eq!(
                        labels.cluster(i as PointId),
                        labels.cluster(j as PointId),
                        "core pair ({}, {}) split across clusters", i, j
                    );
                }
            }
        }
    }

    #[test]
    fn packed_tree_result_equivalent_to_brute_force(
        points in arb_cloud(),
        eps in 0.05f64..3.0,
        minpts in 1usize..8,
        r in 1usize..50,
    ) {
        let params = DbscanParams::new(eps, minpts);
        let brute = BruteForce::new(shared_points(points.clone()));
        let base = dbscan(&brute, params);

        let (tree, perm) = PackedRTree::build(&points, r);
        let tree_result = dbscan(&tree, params);

        // Only border points may differ, so the tree's labels, mapped back
        // to original order, meet the label contract.
        let mut remapped = vec![vbp_dbscan::NOISE; points.len()];
        for (tree_idx, &orig) in perm.iter().enumerate() {
            remapped[orig as usize] = tree_result.labels().raw(tree_idx as PointId);
        }
        core_isomorphic(base.labels().as_raw(), &remapped, &core_flags(&brute, params))
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn grid_and_parallel_dbscan_are_identical(
        points in arb_cloud(),
        eps in 0.0f64..3.0,
        minpts in 1usize..8,
        threads in 1usize..5,
    ) {
        // Both use minimum-core-id border claims and first-appearance
        // cluster numbering, so they must agree bit-for-bit — and with
        // the incremental variant too.
        let params = DbscanParams::new(eps, minpts);
        let from_grid = vbp_dbscan::grid_dbscan(&points, params);
        let from_parallel = vbp_dbscan::parallel_dbscan(
            &BruteForce::new(shared_points(points.clone())),
            params,
            threads,
        );
        prop_assert_eq!(&from_grid, &from_parallel);

        let mut inc = vbp_dbscan::IncrementalDbscan::new(params);
        for id in 0..points.len() {
            // ε-queries answered by a scan over the inserted prefix.
            let prefix = &points[..=id];
            inc.insert(1, |q, out| {
                let center = prefix[q as usize];
                out.extend(
                    (0..prefix.len() as PointId).filter(|&c| prefix[c as usize].within(&center, eps)),
                );
            });
        }
        prop_assert_eq!(&inc.snapshot(), &from_grid);
    }

    #[test]
    fn grid_dbscan_matches_classic_structure(
        points in arb_cloud(),
        eps in 0.05f64..3.0,
        minpts in 1usize..8,
    ) {
        let params = DbscanParams::new(eps, minpts);
        let from_grid = vbp_dbscan::grid_dbscan(&points, params);
        let brute = BruteForce::new(shared_points(points.clone()));
        let classic = dbscan(&brute, params);
        core_isomorphic(
            classic.labels().as_raw(),
            from_grid.labels().as_raw(),
            &core_flags(&brute, params),
        )
        .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn monotonicity_more_eps_less_noise(
        points in arb_cloud(),
        eps in 0.05f64..1.5,
        minpts in 1usize..6,
    ) {
        // Growing ε (same minpts) can only shrink the noise set.
        let idx = BruteForce::new(shared_points(points.clone()));
        let small = dbscan(&idx, DbscanParams::new(eps, minpts));
        let large = dbscan(&idx, DbscanParams::new(eps * 2.0, minpts));
        for i in 0..points.len() as PointId {
            if !small.labels().is_noise(i) {
                prop_assert!(
                    !large.labels().is_noise(i),
                    "point {} clustered at ε but noise at 2ε", i
                );
            }
        }
        prop_assert!(large.noise_count() <= small.noise_count());
    }

    #[test]
    fn monotonicity_more_minpts_more_noise(
        points in arb_cloud(),
        eps in 0.05f64..1.5,
        minpts in 1usize..6,
    ) {
        let idx = BruteForce::new(shared_points(points.clone()));
        let loose = dbscan(&idx, DbscanParams::new(eps, minpts));
        let strict = dbscan(&idx, DbscanParams::new(eps, minpts + 2));
        prop_assert!(strict.noise_count() >= loose.noise_count());
    }
}

#[test]
fn quality_metric_on_real_clusterings_detects_perturbation() {
    // Deterministic smoke test tying quality_score to actual DBSCAN output.
    let mut points = Vec::new();
    for i in 0..10 {
        for j in 0..10 {
            points.push(Point2::new(i as f64 * 0.1, j as f64 * 0.1));
            points.push(Point2::new(5.0 + i as f64 * 0.1, j as f64 * 0.1));
        }
    }
    let idx = BruteForce::new(shared_points(points.clone()));
    let a = dbscan(&idx, DbscanParams::new(0.15, 3));
    assert_eq!(a.num_clusters(), 2);
    let q_self = quality_score(&a, &a.clone());
    assert_eq!(q_self.mean_score, 1.0);

    // Different ε gives a different partition; score should drop below 1.
    let b = dbscan(&idx, DbscanParams::new(10.0, 3));
    assert_eq!(b.num_clusters(), 1);
    let q = quality_score(&a, &b);
    assert!(q.mean_score < 1.0);
}
