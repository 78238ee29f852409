//! Grid-based exact DBSCAN (after Gan & Tao, SIGMOD 2015 — the paper's
//! reference \[9\], which disproved the claimed `O(n log n)` bound of
//! R-tree DBSCAN and proposed grid algorithms instead).
//!
//! The observation: with square cells of side `ε/√2`, any two points in
//! the same cell are within ε of each other. Consequences:
//!
//! - a cell holding ≥ minpts points makes *all* its points core with no
//!   distance computation at all;
//! - all core points of one cell always share a cluster;
//! - cluster connectivity reduces to a graph over cells, where an edge
//!   needs only **one witness pair** of core points within ε.
//!
//! This implementation is exact (witness search is early-exit brute force
//! between the ≤ 21 relevant neighbor cells; Gan & Tao's asymptotic
//! guarantee additionally needs BCP machinery, which real workloads do
//! not reward). Border points are claimed by their minimum-id adjacent
//! core — the same deterministic convention as [`crate::sharded`] and
//! [`crate::incremental`], so all three produce byte-identical results.

use std::collections::HashMap;

use vbp_geom::{Point2, PointId};

use crate::algorithm::DbscanParams;
use crate::labels::{ClusterId, Labels, MAX_CLUSTER_ID};
use crate::result::ClusterResult;
use crate::unionfind::DisjointSets;

/// Runs grid-based DBSCAN over `points`.
#[allow(clippy::needless_range_loop)] // core/claim/points are parallel arrays indexed together
pub fn grid_dbscan(points: &[Point2], params: DbscanParams) -> ClusterResult {
    let n = points.len();
    if n == 0 {
        return ClusterResult::empty();
    }
    assert!(n <= PointId::MAX as usize);
    let eps = params.eps;
    let eps_sq = eps * eps;

    // 1. Bucket points into cells, and list the neighbor-cell offsets
    //    whose minimum distance can be ≤ ε. Degenerate ε = 0 gets its own
    //    bucketing (one synthetic cell per distinct coordinate; only
    //    exact duplicates are neighbors), because ε/√2-sized cells would
    //    overflow the integer lattice.
    let mut cells: HashMap<(i64, i64), Vec<PointId>> = HashMap::new();
    let offsets: Vec<(i64, i64)> = if eps > 0.0 {
        let w = eps / std::f64::consts::SQRT_2;
        for (i, p) in points.iter().enumerate() {
            let key = ((p.x / w).floor() as i64, (p.y / w).floor() as i64);
            cells.entry(key).or_default().push(i as PointId);
        }
        let mut v = Vec::new();
        for dx in -2i64..=2 {
            for dy in -2i64..=2 {
                let gx = (dx.abs() - 1).max(0) as f64 * w;
                let gy = (dy.abs() - 1).max(0) as f64 * w;
                if gx * gx + gy * gy <= eps_sq {
                    v.push((dx, dy));
                }
            }
        }
        v
    } else {
        let mut ids: HashMap<(u64, u64), i64> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            let next_id = ids.len() as i64;
            let cell = *ids.entry((p.x.to_bits(), p.y.to_bits())).or_insert(next_id);
            cells.entry((cell, 0)).or_default().push(i as PointId);
        }
        vec![(0, 0)]
    };

    // 2. Core detection.
    let mut core = vec![false; n];
    for (&(cx, cy), members) in &cells {
        if members.len() >= params.minpts {
            // Same-cell distances are ≤ ε by construction.
            for &p in members {
                core[p as usize] = true;
            }
            continue;
        }
        for &p in members {
            let pp = points[p as usize];
            let mut count = 0usize;
            'cells: for &(dx, dy) in &offsets {
                if let Some(neigh) = cells.get(&(cx + dx, cy + dy)) {
                    for &q in neigh {
                        if pp.dist_sq(&points[q as usize]) <= eps_sq {
                            count += 1;
                            if count >= params.minpts {
                                break 'cells;
                            }
                        }
                    }
                }
            }
            if count >= params.minpts {
                core[p as usize] = true;
            }
        }
    }

    // 3. Connectivity: union cores within a cell, then find one witness
    //    pair per nearby cell pair. Also lodge border claims (minimum
    //    adjacent core id) in the same sweep.
    let mut sets = DisjointSets::new(n);
    let mut claim: Vec<u32> = vec![u32::MAX; n];
    // Canonical cell iteration order for determinism of nothing but test
    // reproducibility (the final labeling is order-independent anyway).
    let mut cell_keys: Vec<(i64, i64)> = cells.keys().copied().collect();
    cell_keys.sort_unstable();

    for &(cx, cy) in &cell_keys {
        let members = &cells[&(cx, cy)];
        // Within-cell core chain.
        let mut first_core: Option<PointId> = None;
        for &p in members {
            if core[p as usize] {
                match first_core {
                    None => first_core = Some(p),
                    Some(f) => {
                        sets.union(f, p);
                    }
                }
            }
        }
        // Cross-cell edges: only look "forward" (lexicographically larger
        // cells) so each unordered pair is tested once. Witness search is
        // exact; border claims must scan fully, so fold them in here.
        for &(dx, dy) in &offsets {
            let other_key = (cx + dx, cy + dy);
            let Some(other) = cells.get(&other_key) else {
                continue;
            };
            let same_cell = dx == 0 && dy == 0;
            let mut linked = same_cell; // same cell already unioned
            for &p in members {
                let pp = points[p as usize];
                let p_core = core[p as usize];
                for &q in other {
                    if same_cell && q == p {
                        continue;
                    }
                    let q_core = core[q as usize];
                    if !p_core && !q_core {
                        continue;
                    }
                    if pp.dist_sq(&points[q as usize]) > eps_sq {
                        continue;
                    }
                    match (p_core, q_core) {
                        (true, true) => {
                            if !linked && other_key >= (cx, cy) {
                                sets.union(p, q);
                                linked = true;
                            }
                        }
                        (true, false) => {
                            claim[q as usize] = claim[q as usize].min(p);
                        }
                        (false, true) => {
                            claim[p as usize] = claim[p as usize].min(q);
                        }
                        (false, false) => unreachable!(),
                    }
                }
            }
        }
    }

    // 4. Labels: dense cluster ids by first core appearance; border points
    //    follow their claimant; the rest is noise.
    let mut labels = Labels::unclassified(n);
    let mut root_to_cluster: Vec<u32> = vec![u32::MAX; n];
    let mut next: ClusterId = 0;
    for p in 0..n {
        if core[p] {
            let root = sets.find(p as u32) as usize;
            if root_to_cluster[root] == u32::MAX {
                assert!(next <= MAX_CLUSTER_ID, "cluster id space exhausted");
                root_to_cluster[root] = next;
                next += 1;
            }
            labels.assign(p as PointId, root_to_cluster[root]);
        }
    }
    for p in 0..n {
        if core[p] {
            continue;
        }
        if claim[p] == u32::MAX {
            labels.mark_noise(p as PointId);
        } else {
            let root = sets.find(claim[p]) as usize;
            labels.assign(p as PointId, root_to_cluster[root]);
        }
    }
    ClusterResult::from_labels(labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::dbscan;
    use crate::sharded::parallel_dbscan;
    use vbp_rtree::traits::shared_points;
    use vbp_rtree::BruteForce;

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point2::new(rnd() * 14.0, rnd() * 14.0))
            .collect()
    }

    #[test]
    fn identical_to_disjoint_set_dbscan() {
        // Same claim and numbering conventions ⇒ byte-identical results.
        for seed in [2u64, 4, 8] {
            let points = cloud(350, seed);
            for (eps, minpts) in [(0.7, 4), (1.2, 6), (0.3, 2)] {
                let params = DbscanParams::new(eps, minpts);
                let from_grid = grid_dbscan(&points, params);
                let reference =
                    parallel_dbscan(&BruteForce::new(shared_points(points.clone())), params, 1);
                assert_eq!(
                    from_grid, reference,
                    "seed {seed}, eps {eps}, minpts {minpts}"
                );
            }
        }
    }

    #[test]
    fn matches_classic_dbscan_structure() {
        let points = cloud(300, 6);
        let params = DbscanParams::new(0.8, 4);
        let from_grid = grid_dbscan(&points, params);
        let classic = dbscan(&BruteForce::new(shared_points(points.clone())), params);
        assert_eq!(from_grid.num_clusters(), classic.num_clusters());
        assert_eq!(from_grid.noise_count(), classic.noise_count());
        for p in 0..points.len() as PointId {
            assert_eq!(from_grid.labels().is_noise(p), classic.labels().is_noise(p));
        }
    }

    #[test]
    fn dense_cell_shortcut_is_exercised() {
        // 50 duplicate points: one cell with ≥ minpts members, all core,
        // no distance computations needed for them.
        let mut points = vec![Point2::new(1.0, 1.0); 50];
        points.push(Point2::new(100.0, 100.0));
        let r = grid_dbscan(&points, DbscanParams::new(0.5, 5));
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.cluster(0).len(), 50);
        assert_eq!(r.noise_count(), 1);
    }

    #[test]
    fn corner_cells_at_exactly_eps_are_connected() {
        // Two points at exactly ε apart, diagonal across the grid — the
        // inclusive boundary must not be lost by cell pruning.
        let eps = 1.0;
        let d = eps / std::f64::consts::SQRT_2;
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(d, d), // distance exactly 1.0 = ε
        ];
        let r = grid_dbscan(&points, DbscanParams::new(eps, 2));
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.cluster(0).len(), 2);
    }

    #[test]
    fn zero_eps_clusters_only_duplicates() {
        let points = vec![
            Point2::new(1.0, 1.0),
            Point2::new(1.0, 1.0),
            Point2::new(2.0, 2.0),
        ];
        let r = grid_dbscan(&points, DbscanParams::new(0.0, 2));
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.noise_count(), 1);
    }

    #[test]
    fn empty_input() {
        assert!(grid_dbscan(&[], DbscanParams::new(1.0, 3)).is_empty());
    }
}
