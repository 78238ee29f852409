//! The sorted k-distance plot heuristic for choosing ε.
//!
//! The original DBSCAN paper proposes: fix `k = minpts` (4 works well in
//! 2-D — the justification §V-B cites), compute for every point the
//! distance to its k-th nearest neighbor, sort descending, and look for the
//! "knee" of the plot; distances left of the knee are noise-ish, and the
//! knee value is a good ε. This module computes the plot on the packed
//! R-tree and finds the knee automatically by maximum distance from the
//! chord — useful for constructing sensible variant grids around a
//! data-driven center value.

use vbp_rtree::{PackedRTree, SpatialIndex};

/// A detected knee of the sorted k-distance plot.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KneePoint {
    /// Index into the descending-sorted plot.
    pub index: usize,
    /// The k-distance at the knee — the suggested ε.
    pub eps: f64,
}

/// Computes the descending sorted k-distance plot.
///
/// `k` follows the paper's convention for *minpts*: the neighborhood
/// includes the query point itself, so the "k-th neighbor" here is the
/// k-th entry of the self-inclusive neighbor list (for `k = 4`, the 3rd
/// other point). Points are sampled with `stride` (1 = all points) to keep
/// the cost manageable on million-point databases.
pub fn kdist_plot(tree: &PackedRTree, k: usize, stride: usize) -> Vec<f64> {
    assert!(k >= 1, "k must be ≥ 1");
    assert!(stride >= 1, "stride must be ≥ 1");
    let n = tree.len();
    let mut dists = Vec::with_capacity(n / stride + 1);
    let mut i = 0usize;
    while i < n {
        let p = tree.points()[i];
        if let Some(d) = tree.kth_neighbor_dist(p, k) {
            dists.push(d);
        }
        i += stride;
    }
    dists.sort_unstable_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
    dists
}

/// Finds the knee of a descending k-distance plot by the maximum-distance-
/// to-chord method: draw the line from the first to the last plot point and
/// take the plot point farthest below it.
///
/// Returns `None` for plots with fewer than 3 points or no curvature.
pub fn find_knee(plot: &[f64]) -> Option<KneePoint> {
    if plot.len() < 3 {
        return None;
    }
    let n = plot.len() as f64;
    let (y0, y1) = (plot[0], plot[plot.len() - 1]);
    if !(y0.is_finite() && y1.is_finite()) || y0 <= y1 {
        return None;
    }
    // Chord from (0, y0) to (n-1, y1); distance of (i, y_i) to it.
    let dx = n - 1.0;
    let dy = y1 - y0;
    let norm = (dx * dx + dy * dy).sqrt();
    let mut best: Option<KneePoint> = None;
    let mut best_dist = 0.0f64;
    for (i, &y) in plot.iter().enumerate() {
        let d = (dy * i as f64 - dx * (y - y0)).abs() / norm;
        if d > best_dist {
            best_dist = d;
            best = Some(KneePoint { index: i, eps: y });
        }
    }
    best
}

/// One-call convenience: build the k-distance plot and return the ε at its
/// knee, falling back to the plot median when no knee is detectable (e.g.
/// perfectly uniform data).
pub fn suggest_eps(tree: &PackedRTree, minpts: usize, stride: usize) -> Option<f64> {
    let plot = kdist_plot(tree, minpts, stride);
    if plot.is_empty() {
        return None;
    }
    Some(match find_knee(&plot) {
        Some(knee) => knee.eps,
        None => plot[plot.len() / 2],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_geom::Point2;
    use vbp_rtree::traits::shared_points;

    fn tree_of(points: Vec<Point2>) -> PackedRTree {
        PackedRTree::from_sorted(shared_points(points), 8)
    }

    #[test]
    fn kdist_plot_is_descending_and_complete() {
        let pts: Vec<Point2> = (0..100).map(|i| Point2::new(i as f64, 0.0)).collect();
        let t = tree_of(pts);
        let plot = kdist_plot(&t, 2, 1);
        assert_eq!(plot.len(), 100);
        for w in plot.windows(2) {
            assert!(w[0] >= w[1]);
        }
        // On a unit-spaced line, every point's 2nd (self-inclusive)
        // neighbor is at distance 1.
        assert!(plot.iter().all(|&d| (d - 1.0).abs() < 1e-12));
    }

    #[test]
    fn stride_subsamples() {
        let pts: Vec<Point2> = (0..100).map(|i| Point2::new(i as f64, 0.0)).collect();
        let t = tree_of(pts);
        assert_eq!(kdist_plot(&t, 2, 10).len(), 10);
    }

    #[test]
    fn knee_found_on_elbow_shape() {
        // Plot: flat high region then steep drop then flat low region.
        let mut plot: Vec<f64> = Vec::new();
        plot.extend(std::iter::repeat_n(10.0, 5));
        plot.extend((0..10).map(|i| 10.0 - i as f64));
        plot.extend(std::iter::repeat_n(0.5, 30));
        let knee = find_knee(&plot).unwrap();
        // Knee must land in or just after the drop, not in the flat tail.
        assert!(knee.index >= 5 && knee.index <= 16, "index {}", knee.index);
    }

    #[test]
    fn no_knee_on_flat_or_short_plots() {
        assert!(find_knee(&[1.0, 1.0, 1.0]).is_none());
        assert!(find_knee(&[2.0, 1.0]).is_none());
        assert!(find_knee(&[]).is_none());
    }

    #[test]
    fn suggest_eps_separates_cluster_from_noise() {
        // Tight cluster (spacing 0.1) plus far-flung noise points: the
        // knee ε should be well below the noise separation (≥ 50) and at
        // least the in-cluster spacing.
        let mut pts: Vec<Point2> = (0..50)
            .map(|i| Point2::new((i % 10) as f64 * 0.1, (i / 10) as f64 * 0.1))
            .collect();
        for i in 0..5 {
            pts.push(Point2::new(1000.0 + 50.0 * i as f64, 1000.0));
        }
        let t = tree_of(pts);
        let eps = suggest_eps(&t, 4, 1).unwrap();
        assert!((0.1..50.0).contains(&eps), "eps = {eps}");
    }

    #[test]
    fn empty_tree_suggestion_is_none() {
        let t = tree_of(vec![]);
        assert!(suggest_eps(&t, 4, 1).is_none());
    }
}
