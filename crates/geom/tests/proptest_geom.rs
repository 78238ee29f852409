//! Property-based tests for the geometric primitives.

use proptest::prelude::*;
use vbp_geom::{bin_sort, BinOrder, Mbb, Point2};

fn arb_point() -> impl Strategy<Value = Point2> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point2::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec(arb_point(), 0..max)
}

proptest! {
    #[test]
    fn distance_symmetry(a in arb_point(), b in arb_point()) {
        prop_assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn triangle_inequality(a in arb_point(), b in arb_point(), c in arb_point()) {
        // Allow for floating-point slop proportional to the magnitudes.
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-9);
    }

    #[test]
    fn mbb_from_points_contains_all(points in arb_points(64)) {
        if let Some(mbb) = Mbb::from_points(points.iter()) {
            for p in &points {
                prop_assert!(mbb.contains_point(p));
            }
        } else {
            prop_assert!(points.is_empty());
        }
    }

    #[test]
    fn mbb_union_contains_operands(a in arb_points(16), b in arb_points(16)) {
        let (Some(ma), Some(mb)) = (Mbb::from_points(a.iter()), Mbb::from_points(b.iter())) else {
            return Ok(());
        };
        let u = ma.union(&mb);
        prop_assert!(u.contains_mbb(&ma));
        prop_assert!(u.contains_mbb(&mb));
        // Union is the *minimum* bounding box of the operands.
        let all: Vec<Point2> = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(u, Mbb::from_points(all.iter()).unwrap());
    }

    #[test]
    fn query_mbb_contains_euclidean_ball(
        p in arb_point(),
        q in arb_point(),
        eps in 0.0f64..100.0,
    ) {
        // Conservativeness relied on by filter-and-refine: if q is within ε
        // of p, the query MBB around p must contain q.
        if p.within(&q, eps) {
            prop_assert!(Mbb::around_point(p, eps).contains_point(&q));
        }
    }

    #[test]
    fn intersects_is_symmetric_and_matches_intersection_area(
        a in arb_points(8), b in arb_points(8),
    ) {
        let (Some(ma), Some(mb)) = (Mbb::from_points(a.iter()), Mbb::from_points(b.iter())) else {
            return Ok(());
        };
        prop_assert_eq!(ma.intersects(&mb), mb.intersects(&ma));
        if ma.intersection_area(&mb) > 0.0 {
            prop_assert!(ma.intersects(&mb));
        }
    }

    #[test]
    fn bin_sort_is_permutation(points in arb_points(256), serp in any::<bool>()) {
        let order = if serp { BinOrder::Serpentine } else { BinOrder::RowMajor };
        let perm = bin_sort(&points, order);
        prop_assert_eq!(perm.len(), points.len());
        let mut sorted: Vec<u32> = perm.clone();
        sorted.sort_unstable();
        let expect: Vec<u32> = (0..points.len() as u32).collect();
        prop_assert_eq!(sorted, expect);
    }

    #[test]
    fn bin_sort_groups_rows_monotonically(points in arb_points(128)) {
        // The y-bin of consecutive points never decreases.
        let perm = bin_sort(&points, BinOrder::Serpentine);
        let bins: Vec<i64> = perm
            .iter()
            .map(|&i| points[i as usize].y.floor() as i64)
            .collect();
        for w in bins.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn dist_sq_to_point_lower_bounds_members(points in arb_points(32), q in arb_point()) {
        let Some(mbb) = Mbb::from_points(points.iter()) else { return Ok(()); };
        let lb = mbb.dist_sq_to_point(&q);
        for p in &points {
            prop_assert!(p.dist_sq(&q) >= lb - 1e-9);
        }
    }
}
