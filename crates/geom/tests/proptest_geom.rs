//! Property-based tests for the geometric primitives.

use proptest::prelude::*;
use vbp_geom::{bin_sort, bin_sort_reference, bin_sort_with_width, BinOrder, Mbb, Point2};

fn arb_point() -> impl Strategy<Value = Point2> {
    (-1000.0f64..1000.0, -1000.0f64..1000.0).prop_map(|(x, y)| Point2::new(x, y))
}

fn arb_points(max: usize) -> impl Strategy<Value = Vec<Point2>> {
    proptest::collection::vec(arb_point(), 0..max)
}

/// One coordinate of a bin-sort cloud, by `kind`: on a bin edge (`edge`
/// bins from the origin, so odd and even rows and negative bins), a
/// signed zero, or uniform in `±scale`.
fn cloud_coord(kind: u32, unit: f64, edge: i32, scale: f64, width: f64) -> f64 {
    match kind {
        0 => f64::from(edge) * width,
        1 if edge % 2 == 0 => 0.0,
        1 => -0.0,
        _ => unit * scale,
    }
}

/// Magnitudes of a cloud: a few bins, thousands, beyond 2³² bins, and
/// (at ±1e15) beyond 2⁶⁴ cells.
const CLOUD_SCALES: [f64; 4] = [4.0, 1e3, 1e6, 1e15];
const CLOUD_WIDTHS: [f64; 3] = [0.25, 1.0, 7.5];

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
    fn bin_sort_matches_the_comparator_oracle(
        spec in proptest::collection::vec(
            (0u32..3, -1.0f64..1.0, -6i32..6, 0u32..4, -1.0f64..1.0, -6i32..6),
            0..160,
        ),
        scale in 0usize..CLOUD_SCALES.len(),
        width in 0usize..CLOUD_WIDTHS.len(),
        serp in any::<bool>(),
    ) {
        // The linear sort's order is the comparator's, with ties (here:
        // duplicates and signed zeros) kept in ascending caller id.
        let (scale, width) = (CLOUD_SCALES[scale], CLOUD_WIDTHS[width]);
        let order = if serp { BinOrder::Serpentine } else { BinOrder::RowMajor };
        let mut points: Vec<Point2> = Vec::with_capacity(spec.len());
        for (i, &(kx, ux, ex, ky, uy, ey)) in spec.iter().enumerate() {
            let p = if ky == 3 && i > 0 {
                // A duplicate of an earlier point.
                points[ey.unsigned_abs() as usize % i]
            } else {
                let x = cloud_coord(kx, ux, ex, scale, width);
                Point2::new(x, cloud_coord(ky, uy, ey, scale, width))
            };
            points.push(p);
        }
        prop_assert_eq!(
            bin_sort_with_width(&points, width, order),
            bin_sort_reference(&points, width, order)
        );
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
