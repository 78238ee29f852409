//! The paper's packed R-tree: `r` points per leaf MBB over a bin-sorted
//! point database.
//!
//! Layout. The tree is *implicit*: no child pointers are stored. Level 0
//! holds one MBB per leaf; leaf `j` covers the contiguous point range
//! `[j·r, min((j+1)·r, n))`. Level `k+1` holds one MBB per group of
//! `FANOUT` consecutive level-`k` nodes. Because children of node `i` are
//! exactly `[i·FANOUT, (i+1)·FANOUT)`, traversal is pure arithmetic over
//! flat `Vec<Mbb>`s — the minimal-memory-traffic structure the paper's
//! analysis calls for.
//!
//! `r` is the paper's tuning knob (§IV-A, Figure 4): `r = 1` gives exact
//! leaves (the `T_high` configuration), larger `r` trades filter work for
//! fewer node visits (the `T_low` configuration, good values 70–110).

use std::sync::Arc;

use vbp_geom::{bin_sort, BinOrder, Mbb, Point2, PointId};

use crate::stats::TreeStats;
use crate::traits::{SharedPoints, SpatialIndex};

/// Internal-node fanout. 16 keeps the tree shallow while each node's child
/// MBB array (16 × 32 B = 512 B) spans only a few cache lines.
pub const DEFAULT_FANOUT: usize = 16;

/// A static, bulk-loaded R-tree with `r` points per leaf MBB.
#[derive(Clone, Debug)]
pub struct PackedRTree {
    points: SharedPoints,
    /// SoA mirror of `points`: all x coordinates, contiguous in tree
    /// order. The ε-query hot loop streams `xs`/`ys` instead of chasing
    /// `Point2` structs — the coordinates of a leaf's points sit in two
    /// dense `f64` runs the compiler can vectorize over. Shared
    /// (`Arc`) because the `T_low`/`T_high` pair is always built over
    /// the *same* point order: one materialization serves both trees.
    xs: Arc<[f64]>,
    /// SoA mirror of `points`: all y coordinates.
    ys: Arc<[f64]>,
    /// Points per leaf MBB (the paper's `r`).
    r: usize,
    /// Internal fanout.
    fanout: usize,
    /// `levels[0]` = leaf MBBs, `levels.last()` = single root MBB
    /// (absent only for an empty tree).
    levels: Vec<Vec<Mbb>>,
}

impl PackedRTree {
    /// Builds a tree over `points`, which the caller guarantees are already
    /// in packing order (e.g. the output of [`vbp_geom::bin_sort`]). Leaf
    /// `j` takes points `[j·r, (j+1)·r)`.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`.
    pub fn from_sorted(points: SharedPoints, r: usize) -> Self {
        Self::from_sorted_with_fanout(points, r, DEFAULT_FANOUT)
    }

    /// [`PackedRTree::from_sorted`] with an explicit internal fanout.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0` or `fanout < 2`.
    pub fn from_sorted_with_fanout(points: SharedPoints, r: usize, fanout: usize) -> Self {
        let xs: Arc<[f64]> = points.iter().map(|p| p.x).collect();
        let ys: Arc<[f64]> = points.iter().map(|p| p.y).collect();
        Self::from_sorted_with_coords(points, r, fanout, xs, ys)
    }

    /// [`PackedRTree::from_sorted_with_fanout`] over an already
    /// materialized SoA coordinate mirror — how the second tree of a
    /// `T_low`/`T_high` pair (and a warm restore) reuses the first's
    /// arrays instead of re-collecting two `f64` vectors per tree.
    ///
    /// # Panics
    ///
    /// Panics if `r == 0`, `fanout < 2`, or `xs`/`ys` do not mirror
    /// `points`.
    pub fn from_sorted_with_coords(
        points: SharedPoints,
        r: usize,
        fanout: usize,
        xs: Arc<[f64]>,
        ys: Arc<[f64]>,
    ) -> Self {
        assert!(r >= 1, "r (points per leaf MBB) must be ≥ 1");
        assert!(fanout >= 2, "fanout must be ≥ 2");
        assert_eq!(xs.len(), points.len(), "xs must mirror points");
        assert_eq!(ys.len(), points.len(), "ys must mirror points");

        let n = points.len();
        let mut levels: Vec<Vec<Mbb>> = Vec::new();
        if n > 0 {
            // Leaf level: one MBB per r consecutive points. r = 1 (the
            // T_high shape) gets a direct map — every leaf is the
            // degenerate box of its single point, and skipping the
            // chunk iterator halves the warm-restore derivation cost.
            let mut leaves = Vec::with_capacity(n.div_ceil(r));
            if r == 1 {
                leaves.extend(points.iter().map(|p| Mbb::new(*p, *p)));
            } else {
                for chunk in points.chunks(r) {
                    // chunks() never yields an empty slice.
                    leaves.push(Mbb::from_points(chunk.iter()).unwrap());
                }
            }
            levels.push(leaves);
            // Pack parents until a single root remains.
            while levels.last().unwrap().len() > 1 {
                let below = levels.last().unwrap();
                let mut level = Vec::with_capacity(below.len().div_ceil(fanout));
                for chunk in below.chunks(fanout) {
                    let mut mbb = chunk[0];
                    for child in &chunk[1..] {
                        mbb = mbb.union(child);
                    }
                    level.push(mbb);
                }
                levels.push(level);
            }
        }
        Self {
            points,
            xs,
            ys,
            r,
            fanout,
            levels,
        }
    }

    /// Builds the paper's full pipeline: bin-sort `points` into unit-width
    /// bins, then pack. Returns the tree together with the permutation
    /// mapping *tree order → caller order* (`perm[i]` is the caller index
    /// of tree point `i`), so cluster results can be reported against the
    /// caller's ids.
    ///
    /// ```
    /// use vbp_geom::Point2;
    /// use vbp_rtree::{PackedRTree, SpatialIndex};
    ///
    /// let points: Vec<Point2> = (0..100)
    ///     .map(|i| Point2::new((i % 10) as f64, (i / 10) as f64))
    ///     .collect();
    /// let (tree, _perm) = PackedRTree::build(&points, 8);
    ///
    /// let mut neighbors = Vec::new();
    /// tree.epsilon_neighbors(Point2::new(5.0, 5.0), 1.0, &mut neighbors);
    /// assert_eq!(neighbors.len(), 5); // the point itself + 4 axis neighbors
    /// ```
    pub fn build(points: &[Point2], r: usize) -> (Self, Vec<PointId>) {
        Self::build_with_order(points, r, BinOrder::Serpentine)
    }

    /// [`PackedRTree::build`] with an explicit traversal order for the bin
    /// sort.
    pub fn build_with_order(points: &[Point2], r: usize, order: BinOrder) -> (Self, Vec<PointId>) {
        let perm = bin_sort(points, order);
        let sorted: SharedPoints = perm.iter().map(|&i| points[i as usize]).collect();
        (Self::from_sorted(sorted, r), perm)
    }

    /// The paper's `r`: points per leaf MBB.
    #[inline]
    pub fn points_per_leaf(&self) -> usize {
        self.r
    }

    /// Internal fanout.
    #[inline]
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Shared handle to the indexed points (tree order).
    #[inline]
    pub fn shared_points(&self) -> SharedPoints {
        Arc::clone(&self.points)
    }

    /// Number of tree levels (0 for an empty tree, 1 for a single leaf).
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Point range `[start, end)` covered by leaf `leaf`.
    #[inline]
    fn leaf_range(&self, leaf: usize) -> (usize, usize) {
        let start = leaf * self.r;
        let end = ((leaf + 1) * self.r).min(self.points.len());
        (start, end)
    }

    /// Core traversal: invokes `visit(start, end)` for the contiguous point
    /// range of every leaf whose MBB intersects `query`. This is the
    /// "search the index tree, then map indexed MBBs to data points via the
    /// lookup array" of Algorithm 2 — here the lookup is arithmetic because
    /// leaves cover contiguous ranges of the sorted database.
    pub fn for_each_overlapping_leaf(&self, query: &Mbb, mut visit: impl FnMut(usize, usize)) {
        let Some(top) = self.levels.len().checked_sub(1) else {
            return;
        };
        // Depth-first over (level, node index) pairs; a small inline stack
        // would also do, but Vec keeps it simple and is not on the critical
        // path compared to the leaf scans.
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(64);
        for (i, mbb) in self.levels[top].iter().enumerate() {
            if mbb.intersects(query) {
                stack.push((top, i));
            }
        }
        while let Some((level, idx)) = stack.pop() {
            if level == 0 {
                let (s, e) = self.leaf_range(idx);
                visit(s, e);
                continue;
            }
            let below = &self.levels[level - 1];
            let first = idx * self.fanout;
            let last = ((idx + 1) * self.fanout).min(below.len());
            for (child, mbb) in below[first..last].iter().enumerate() {
                if mbb.intersects(query) {
                    stack.push((level - 1, first + child));
                }
            }
        }
    }

    /// Iterates over the children `(index, MBB)` of internal node `idx` at
    /// `level` (`level ≥ 1`; children live at `level - 1`). Exposed for
    /// best-first traversals such as [k-NN](crate::knn).
    pub fn level_children(
        &self,
        level: usize,
        idx: usize,
    ) -> impl Iterator<Item = (usize, Mbb)> + '_ {
        debug_assert!(level >= 1 && level < self.levels.len());
        let below = &self.levels[level - 1];
        let first = idx * self.fanout;
        let last = ((idx + 1) * self.fanout).min(below.len());
        (first..last).map(move |i| (i, below[i]))
    }

    /// Number of leaf MBBs.
    pub fn leaf_count(&self) -> usize {
        self.levels.first().map_or(0, Vec::len)
    }

    /// The SoA coordinate arrays `(xs, ys)`, in tree order. Exposed for
    /// leaf-scanning traversals ([k-NN](crate::knn)) and for the kernel
    /// differential tests.
    #[inline]
    pub fn coords(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
    }

    /// Shared handles to the SoA coordinate mirror, for building a
    /// second tree over the same point order without re-collecting
    /// (see [`PackedRTree::from_sorted_with_coords`]).
    pub fn shared_coords(&self) -> (Arc<[f64]>, Arc<[f64]>) {
        (Arc::clone(&self.xs), Arc::clone(&self.ys))
    }

    /// The pre-SoA reference formulation of the ε-query: filter through
    /// [`SpatialIndex::range_candidates`] into an id list, then refine each
    /// candidate against the exact predicate by loading its `Point2`.
    ///
    /// Semantically identical to [`SpatialIndex::epsilon_neighbors`] (the
    /// conformance suite pins this); kept as the naive baseline the SoA
    /// kernel is differentially checked against.
    pub fn epsilon_neighbors_naive(&self, center: Point2, eps: f64, out: &mut Vec<PointId>) {
        let start = out.len();
        let query = Mbb::around_point(center, eps);
        self.range_candidates(&query, out);
        let eps_sq = eps * eps;
        let mut write = start;
        for read in start..out.len() {
            let id = out[read];
            if self.points[id as usize].dist_sq(&center) <= eps_sq {
                out[write] = id;
                write += 1;
            }
        }
        out.truncate(write);
    }

    /// Structural statistics (`vbp info` prints them), for
    /// sanity-checking `r` sweeps.
    pub fn stats(&self) -> TreeStats {
        let leaf_mbbs = self.levels.first().map(Vec::as_slice).unwrap_or(&[]);
        let node_count: usize = self.levels.iter().map(Vec::len).sum();
        let leaf_area_total: f64 = leaf_mbbs.iter().map(Mbb::area).sum();
        TreeStats {
            points: self.points.len(),
            depth: self.depth(),
            node_count,
            leaf_count: leaf_mbbs.len(),
            points_per_leaf: self.r,
            mean_leaf_area: if leaf_mbbs.is_empty() {
                0.0
            } else {
                leaf_area_total / leaf_mbbs.len() as f64
            },
        }
    }
}

impl SpatialIndex for PackedRTree {
    fn points(&self) -> &[Point2] {
        &self.points
    }

    fn range_candidates(&self, query: &Mbb, out: &mut Vec<PointId>) {
        self.for_each_overlapping_leaf(query, |s, e| {
            out.extend(s as PointId..e as PointId);
        });
    }

    // The SoA kernel. Two deviations from the textbook loop, both for the
    // memory-bound regime §IV-A tunes `r` for: (1) coordinates stream from
    // the dense `xs`/`ys` arrays instead of strided `Point2` loads; (2) the
    // inner loop is branch-light — it writes every candidate id and bumps
    // the cursor by the predicate (0 or 1), so there is no data-dependent
    // branch for the compiler to guard vectorization on. NaN coordinates
    // compare false and are correctly skipped.
    fn epsilon_neighbors(&self, center: Point2, eps: f64, out: &mut Vec<PointId>) {
        let query = Mbb::around_point(center, eps);
        let eps_sq = eps * eps;
        let (cx, cy) = (center.x, center.y);
        let (xs, ys) = (&self.xs[..], &self.ys[..]);
        self.for_each_overlapping_leaf(&query, |s, e| {
            let base = out.len();
            out.resize(base + (e - s), 0);
            let mut w = base;
            for i in s..e {
                let dx = xs[i] - cx;
                let dy = ys[i] - cy;
                out[w] = i as PointId;
                w += usize::from(dx * dx + dy * dy <= eps_sq);
            }
            out.truncate(w);
        });
    }

    fn range_query(&self, query: &Mbb, out: &mut Vec<PointId>) {
        let pts: &[Point2] = &self.points;
        self.for_each_overlapping_leaf(query, |s, e| {
            for (i, p) in pts[s..e].iter().enumerate() {
                if query.contains_point(p) {
                    out.push((s + i) as PointId);
                }
            }
        });
    }

    // Batched queries sorted into tree order: point ids *are* positions in
    // the bin-sorted database, so ascending id order visits leaves
    // left-to-right and consecutive queries hit the leaf MBBs (and point
    // runs) the previous query just pulled into cache.
    fn epsilon_neighbors_batch(
        &self,
        ids: &mut [PointId],
        eps: f64,
        scratch: &mut Vec<PointId>,
        emit: &mut dyn FnMut(PointId, &[PointId]),
    ) {
        ids.sort_unstable();
        for &id in ids.iter() {
            scratch.clear();
            self.epsilon_neighbors(self.points[id as usize], eps, scratch);
            emit(id, scratch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::shared_points;

    fn grid_points(w: usize, h: usize) -> Vec<Point2> {
        let mut v = Vec::new();
        for y in 0..h {
            for x in 0..w {
                v.push(Point2::new(x as f64, y as f64));
            }
        }
        v
    }

    #[test]
    fn empty_tree() {
        let t = PackedRTree::from_sorted(shared_points([]), 4);
        assert_eq!(t.depth(), 0);
        let mut out = Vec::new();
        t.range_query(&Mbb::around_point(Point2::ORIGIN, 10.0), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn single_point_tree() {
        let t = PackedRTree::from_sorted(shared_points([Point2::new(1.0, 1.0)]), 4);
        assert_eq!(t.depth(), 1);
        assert_eq!(t.leaf_count(), 1);
        let mut out = Vec::new();
        t.epsilon_neighbors(Point2::new(1.0, 1.0), 0.0, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn leaf_ranges_partition_points() {
        let pts = grid_points(10, 10);
        for r in [1, 3, 7, 100, 1000] {
            let t = PackedRTree::from_sorted(shared_points(pts.clone()), r);
            let mut covered = vec![false; pts.len()];
            t.for_each_overlapping_leaf(&Mbb::from_points(&pts).unwrap(), |s, e| {
                assert!(s < e && e <= pts.len());
                for c in &mut covered[s..e] {
                    assert!(!*c, "leaf ranges overlap");
                    *c = true;
                }
            });
            assert!(covered.iter().all(|&c| c), "r={r}: leaf ranges must cover");
        }
    }

    #[test]
    fn range_query_matches_brute_force() {
        let pts = grid_points(20, 20);
        let query = Mbb::new(Point2::new(3.5, 4.5), Point2::new(9.0, 11.0));
        let expect: Vec<PointId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| query.contains_point(p))
            .map(|(i, _)| i as PointId)
            .collect();
        for r in [1, 4, 16, 64] {
            let t = PackedRTree::from_sorted(shared_points(pts.clone()), r);
            let mut got = Vec::new();
            t.range_query(&query, &mut got);
            got.sort_unstable();
            assert_eq!(got, expect, "r={r}");
        }
    }

    #[test]
    fn epsilon_neighbors_includes_self_and_is_inclusive() {
        let pts = vec![
            Point2::new(0.0, 0.0),
            Point2::new(1.0, 0.0),
            Point2::new(2.0, 0.0),
            Point2::new(0.0, 1.0),
        ];
        let t = PackedRTree::from_sorted(shared_points(pts), 2);
        let mut out = Vec::new();
        t.epsilon_neighbors(Point2::new(0.0, 0.0), 1.0, &mut out);
        out.sort_unstable();
        assert_eq!(out, vec![0, 1, 3]); // self, right neighbor at exactly ε, top
    }

    #[test]
    fn candidates_superset_of_exact() {
        let pts = grid_points(16, 16);
        let t = PackedRTree::from_sorted(shared_points(pts), 8);
        let q = Mbb::new(Point2::new(2.2, 2.2), Point2::new(5.8, 5.8));
        let (mut cand, mut exact) = (Vec::new(), Vec::new());
        t.range_candidates(&q, &mut cand);
        t.range_query(&q, &mut exact);
        for id in &exact {
            assert!(cand.contains(id));
        }
        assert!(cand.len() >= exact.len());
    }

    #[test]
    fn build_returns_consistent_permutation() {
        let pts = vec![
            Point2::new(9.0, 9.0),
            Point2::new(0.1, 0.1),
            Point2::new(5.0, 0.2),
            Point2::new(0.2, 9.0),
        ];
        let (t, perm) = PackedRTree::build(&pts, 2);
        assert_eq!(perm.len(), 4);
        for (tree_idx, &orig) in perm.iter().enumerate() {
            assert_eq!(t.points()[tree_idx], pts[orig as usize]);
        }
    }

    #[test]
    fn depth_shrinks_as_r_grows() {
        let pts = grid_points(50, 50); // 2500 points
        let d1 = PackedRTree::from_sorted(shared_points(pts.clone()), 1).depth();
        let d100 = PackedRTree::from_sorted(shared_points(pts), 100).depth();
        assert!(d100 < d1, "d1={d1}, d100={d100}");
    }

    #[test]
    fn stats_are_consistent() {
        let pts = grid_points(30, 30);
        let t = PackedRTree::from_sorted(shared_points(pts), 7);
        let s = t.stats();
        assert_eq!(s.points, 900);
        assert_eq!(s.leaf_count, 900usize.div_ceil(7));
        assert_eq!(s.points_per_leaf, 7);
        assert!(s.node_count >= s.leaf_count);
        assert!(s.depth >= 2);
    }

    #[test]
    fn soa_kernel_matches_naive_path() {
        let pts = grid_points(25, 25);
        for r in [1, 7, 70] {
            let (t, _) = PackedRTree::build(&pts, r);
            for (cx, cy, eps) in [
                (12.0, 12.0, 2.5),
                (0.0, 0.0, 1.0),
                (24.0, 24.0, 40.0),
                (5.5, 5.5, 0.0),
                (7.0, 7.0, 3.0), // boundary: many points at distance exactly 3
            ] {
                let center = Point2::new(cx, cy);
                let (mut soa, mut naive) = (Vec::new(), Vec::new());
                t.epsilon_neighbors(center, eps, &mut soa);
                t.epsilon_neighbors_naive(center, eps, &mut naive);
                soa.sort_unstable();
                naive.sort_unstable();
                assert_eq!(soa, naive, "r={r}, center=({cx},{cy}), ε={eps}");
            }
        }
    }

    #[test]
    fn batch_emits_each_id_once_with_matching_neighbors() {
        let pts = grid_points(12, 12);
        let (t, _) = PackedRTree::build(&pts, 8);
        // Deliberately shuffled query order; the override may reorder.
        let mut ids: Vec<PointId> = (0..pts.len() as PointId).rev().step_by(3).collect();
        let expected_count = ids.len();
        let mut seen = vec![false; pts.len()];
        let mut scratch = Vec::new();
        let mut emitted = 0usize;
        let ids_copy = ids.clone();
        t.epsilon_neighbors_batch(&mut ids, 1.5, &mut scratch, &mut |id, neighbors| {
            assert!(!seen[id as usize], "id {id} emitted twice");
            seen[id as usize] = true;
            emitted += 1;
            let mut single = Vec::new();
            t.epsilon_neighbors(t.points()[id as usize], 1.5, &mut single);
            let mut got = neighbors.to_vec();
            got.sort_unstable();
            single.sort_unstable();
            assert_eq!(got, single, "batch result diverges for id {id}");
        });
        assert_eq!(emitted, expected_count);
        for id in ids_copy {
            assert!(seen[id as usize]);
        }
    }

    #[test]
    fn coords_mirror_points() {
        let pts = grid_points(9, 4);
        let (t, _) = PackedRTree::build(&pts, 5);
        let (xs, ys) = t.coords();
        assert_eq!(xs.len(), t.len());
        for (i, p) in t.points().iter().enumerate() {
            assert_eq!((xs[i], ys[i]), (p.x, p.y));
        }
    }

    #[test]
    fn fanout_two_still_correct() {
        let pts = grid_points(9, 9);
        let t = PackedRTree::from_sorted_with_fanout(shared_points(pts.clone()), 3, 2);
        let mut out = Vec::new();
        t.epsilon_neighbors(Point2::new(4.0, 4.0), 1.0, &mut out);
        out.sort_unstable();
        // Plus-shaped neighborhood of (4,4) in the integer grid.
        let expect: Vec<PointId> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| p.within(&Point2::new(4.0, 4.0), 1.0))
            .map(|(i, _)| i as PointId)
            .collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn from_sorted_is_a_pure_function_of_points_r_fanout() {
        // The warm-state store leans on this: rebuilding over the same
        // tree-order points with the same parameters must reproduce the
        // exact level MBBs, so snapshots need not persist any geometry.
        let pts = grid_points(13, 7);
        let (built, _) = PackedRTree::build(&pts, 5);
        let again = PackedRTree::from_sorted_with_fanout(
            built.shared_points(),
            built.points_per_leaf(),
            built.fanout(),
        );
        assert_eq!(again.levels, built.levels);
        let query = Point2::new(6.0, 3.0);
        let mut a = Vec::new();
        let mut b = Vec::new();
        built.epsilon_neighbors(query, 2.0, &mut a);
        again.epsilon_neighbors(query, 2.0, &mut b);
        assert_eq!(a, b);
    }
}
