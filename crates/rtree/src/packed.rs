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
//! leaves (the paper's `T_high`), larger `r` trades filter work for fewer
//! node visits (its `T_low`, good values 70–110). The engine builds only
//! `T_low`: [`SpatialIndex::range_query`] filters candidates by point
//! containment, so any `r` returns the same ids.
//!
//! Search. A query box is answered by a walk from the root
//! ([`PackedRTree::for_each_overlapping_leaf`]). A search centred on an
//! indexed point can skip the walk: the [`LeafReach`] row of the point's
//! leaf lists, in walk order, every leaf its ε-box can meet
//! ([`crate::reach`]). Both enumerations hand their leaves, as lists in
//! walk order, to the same leaf-scan kernels, which are compiled once per
//! x86 vector level and picked for the host once (`scan.rs`).
//!
//! Growth. Every array of the tree is a [`Column`], so a streaming
//! APPEND ([`PackedRTree::appended`]) writes the batch's points and
//! coordinates (and, at `r = 1`, leaf boxes) into the shared buffers in
//! place, and copies only the levels whose last node the batch rewrites.
//! A fresh build is the same growth from the empty tree, so the two can
//! never disagree.

use std::ops::{Range, RangeInclusive};

use vbp_geom::{bin_sort, BinOrder, Mbb, Point2, PointId};

use crate::column::Column;
use crate::reach::LeafReach;
use crate::scan::{Level, Scan};
use crate::stats::TreeStats;
use crate::traits::{SharedPoints, Skip, SpatialIndex};

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
    /// dense `f64` runs the compiler can vectorize over.
    xs: Column<f64>,
    /// SoA mirror of `points`: all y coordinates.
    ys: Column<f64>,
    /// Points per leaf MBB (the paper's `r`).
    r: usize,
    /// Internal fanout.
    fanout: usize,
    /// `levels[0]` = leaf MBBs, `levels.last()` = single root MBB
    /// (absent only for an empty tree).
    levels: Vec<Column<Mbb>>,
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
        assert!(r >= 1, "r (points per leaf MBB) must be ≥ 1");
        assert!(fanout >= 2, "fanout must be ≥ 2");
        let empty = Self {
            points: Column::default(),
            xs: Column::default(),
            ys: Column::default(),
            r,
            fanout,
            levels: Vec::new(),
        };
        let xs: Column<f64> = points.iter().map(|p| p.x).collect();
        let ys: Column<f64> = points.iter().map(|p| p.y).collect();
        empty.grown_over(points, xs, ys)
    }

    /// This tree followed by `batch` in tree order: the batch's points
    /// and coordinates are appended to the shared columns (in place when
    /// this is their latest handle), and each level keeps its nodes
    /// before the first one the batch reaches and computes only that
    /// node and the new ones. The result equals
    /// [`PackedRTree::from_sorted_with_fanout`] of the concatenation,
    /// level by level; `self` is unchanged and keeps answering over its
    /// own points.
    pub fn appended(&self, batch: &[Point2]) -> Self {
        let points = self.points.appended(batch.iter().copied());
        let xs = self.xs.appended(batch.iter().map(|p| p.x));
        let ys = self.ys.appended(batch.iter().map(|p| p.y));
        self.grown_over(points, xs, ys)
    }

    /// This tree's levels grown over `points`, which must begin with this
    /// tree's points (`xs`/`ys` mirroring them).
    ///
    /// A level's nodes before the first one the new points reach are kept
    /// as they are; that node (the old last partial one, if any) and
    /// every new node are computed. So the `r = 1` leaf level — one
    /// degenerate box per point, never rewritten — grows in place, and
    /// only the small levels (the `r > 1` leaves and everything above
    /// the leaves, at most `n / fanout` boxes) are copied.
    ///
    /// # Panics
    ///
    /// Panics if `points` is shorter than this tree or `xs`/`ys` do not
    /// mirror it.
    fn grown_over(&self, points: SharedPoints, xs: Column<f64>, ys: Column<f64>) -> Self {
        let (old_n, n) = (self.points.len(), points.len());
        assert!(n >= old_n, "{n} points cannot extend a tree of {old_n}");
        assert_eq!(xs.len(), n, "xs must mirror points");
        assert_eq!(ys.len(), n, "ys must mirror points");
        debug_assert!(
            points[..old_n] == self.points[..],
            "points must extend the tree's"
        );
        let (r, fanout) = (self.r, self.fanout);
        let pts: &[Point2] = &points;
        let mut levels: Vec<Column<Mbb>> = Vec::with_capacity(self.levels.len() + 1);
        if n > 0 {
            // The first node of each level that the new points change.
            let mut dirty = old_n / r;
            let leaf = |j: usize| {
                if r == 1 {
                    Mbb::new(pts[j], pts[j])
                } else {
                    // A leaf range is never empty.
                    Mbb::from_points(&pts[j * r..((j + 1) * r).min(n)]).unwrap()
                }
            };
            let leaves = (dirty..n.div_ceil(r)).map(leaf);
            levels.push(grown_level(self.levels.first(), dirty, leaves));
            // Pack parents until a single root remains.
            while let Some(below) = levels.last().filter(|level| level.len() > 1) {
                dirty /= fanout;
                let parent =
                    |i: usize| union_of(&below[i * fanout..((i + 1) * fanout).min(below.len())]);
                let parents = (dirty..below.len().div_ceil(fanout)).map(parent);
                let level = grown_level(self.levels.get(levels.len()), dirty, parents);
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
        self.points.clone()
    }

    /// Number of tree levels (0 for an empty tree, 1 for a single leaf).
    #[inline]
    pub fn depth(&self) -> usize {
        self.levels.len()
    }

    /// The points of leaf `leaf`: `[leaf·r, min((leaf + 1)·r, n))`.
    #[inline]
    pub fn leaf_range(&self, leaf: usize) -> Range<usize> {
        leaf * self.r..((leaf + 1) * self.r).min(self.points.len())
    }

    /// The leaf MBBs, one per leaf in leaf order.
    #[inline]
    pub fn leaf_mbbs(&self) -> &[Mbb] {
        self.levels.first().map_or(&[], |leaves| &leaves[..])
    }

    /// Core traversal: invokes `visit(start, end)` for the contiguous point
    /// range of every leaf whose MBB intersects `query`. This is the
    /// "search the index tree, then map indexed MBBs to data points via the
    /// lookup array" of Algorithm 2 — here the lookup is arithmetic because
    /// leaves cover contiguous ranges of the sorted database.
    pub fn for_each_overlapping_leaf(&self, query: &Mbb, mut visit: impl FnMut(usize, usize)) {
        self.walk(query, |leaf| {
            let leaf = self.leaf_range(leaf);
            visit(leaf.start, leaf.end);
        });
    }

    /// Invokes `visit(leaf)` for every leaf whose MBB intersects `query`.
    pub(crate) fn walk(&self, query: &Mbb, mut visit: impl FnMut(usize)) {
        let Some(top) = self.levels.len().checked_sub(1) else {
            return;
        };
        // Depth-first over (level, node index) pairs, so leaves are
        // visited in descending index order. On `cF_1M_5N@400000` at
        // r = 80, ε 0.35–0.5, the walk costs 180–240 ns a query (2-core
        // Xeon), as much as the AVX-512 leaf scan of a counting query
        // there (180–250 ns); a search centred on an indexed point reads
        // its leaf's row of a `LeafReach` table instead, which lists the
        // same leaves in this order (`for_each_leaf_within`).
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(64);
        for (i, mbb) in self.levels[top].iter().enumerate() {
            if mbb.intersects(query) {
                stack.push((top, i));
            }
        }
        while let Some((level, idx)) = stack.pop() {
            if level == 0 {
                visit(idx);
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

    /// Invokes `visit(start, end)` for every leaf the ε-search centred on
    /// indexed point `id` scans: each leaf whose MBB meets `id`'s ε-box,
    /// in the walk's order. With `reach` — [`SpatialIndex::leaf_reach`]'s
    /// table for this tree and `eps` — they are read off the row of `id`'s
    /// leaf and tested against the box one by one; without, the tree is
    /// walked ([`Self::for_each_overlapping_leaf`]).
    pub fn for_each_leaf_within(
        &self,
        id: PointId,
        eps: f64,
        reach: Option<&LeafReach>,
        mut visit: impl FnMut(usize, usize),
    ) {
        let query = Mbb::around_point(self.points[id as usize], eps);
        let Some(reach) = reach else {
            return self.for_each_overlapping_leaf(&query, visit);
        };
        let boxes = self.leaf_mbbs();
        for &leaf in self.row(reach, id, eps) {
            if boxes[leaf as usize].intersects(&query) {
                let leaf = self.leaf_range(leaf as usize);
                visit(leaf.start, leaf.end);
            }
        }
    }

    /// `reach`'s row for the leaf of indexed point `id`.
    #[inline]
    fn row<'t>(&self, reach: &'t LeafReach, id: PointId, eps: f64) -> &'t [u32] {
        debug_assert!(
            reach.eps().to_bits() == eps.to_bits()
                && reach.leaf_count() == self.leaf_count()
                && reach.points_per_leaf() == self.r,
            "a leaf-reach table for another tree or ε"
        );
        reach.of(reach.leaf_of(id))
    }

    /// The leaf scan of the ε-search centred on `center`.
    fn scan<'s>(&'s self, center: Point2, eps: f64, skip: Skip<'s>) -> Scan<'s> {
        debug_assert!(
            skip.live.is_empty() || skip.live.len() == self.leaf_count(),
            "a live count per leaf of another tree"
        );
        Scan {
            xs: &self.xs,
            ys: &self.ys,
            boxes: self.leaf_mbbs(),
            r: self.r,
            query: Mbb::around_point(center, eps),
            center,
            eps_sq: eps * eps,
            skip,
        }
    }

    /// The hits of `scan` over the leaves `leaves` enumerates: `|N_ε|`,
    /// or a partial count once it reaches `scan.skip.need`.
    fn count_within(&self, scan: Scan, leaves: Leaves) -> usize {
        let level = Level::host();
        let mut count = 0;
        leaves.runs(self, &scan.query, |run| {
            count = level.count(&scan, run, count)
        });
        count
    }

    // The fused kernel (`scan.rs`): it counts every hit and pushes only
    // the wanted ones, rescanning just the leaves that hold one. The four
    // from-scratch variants on `cF_1M_5N@400000` at r = 80 rescan 7 % of
    // the leaves they visit. There, at ε 0.35–0.5 (2-core Xeon), the
    // first pass costs 1.3–1.6 ns per candidate at the baseline SSE2
    // width, 0.94–1.13 ns with AVX2 and 0.58–0.67 ns with AVX-512, against
    // 0.82–0.97, 0.56–0.66 and 0.49–0.52 ns to count. The rescan pushes
    // by bitmask, and a query whose hits are all wanted pays it in full;
    // DBSCAN counts first where that is the common case. At the baseline
    // width, one pass that builds a bitmask of wanted hits for every leaf
    // was about 28 % slower than the two passes on those four variants.
    fn count_keyed_within(
        &self,
        scan: Scan,
        leaves: Leaves,
        keys: &[u32],
        want: RangeInclusive<u32>,
        out: &mut Vec<PointId>,
    ) -> usize {
        if want.is_empty() {
            return self.count_within(scan, leaves);
        }
        let keys = &keys[..self.points.len()];
        let want = (*want.start(), want.end() - want.start());
        let level = Level::host();
        let mut count = 0;
        leaves.runs(self, &scan.query, |run| {
            count = level.count_keyed(&scan, run, count, keys, want, out);
        });
        count
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
        self.leaf_mbbs().len()
    }

    /// The SoA coordinate arrays `(xs, ys)`, in tree order. Exposed for
    /// leaf-scanning traversals ([k-NN](crate::knn)) and for the kernel
    /// differential tests.
    #[inline]
    pub fn coords(&self) -> (&[f64], &[f64]) {
        (&self.xs, &self.ys)
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
        let leaf_mbbs = self.leaf_mbbs();
        let node_count: usize = self.levels.iter().map(|level| level.len()).sum();
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

/// The walk hands its leaves to a kernel in chunks of this many, from a
/// buffer on the stack.
const WALK_CHUNK: usize = 64;

/// How an ε-scan enumerates the leaves whose MBB meets its query box.
/// Both hand the kernels (`scan.rs`) lists of leaves in the walk's order,
/// which the kernels test against the query box one by one, so each
/// kernel is compiled once per vector level and serves both.
#[derive(Clone, Copy)]
enum Leaves<'a> {
    /// From the root ([`PackedRTree::walk`]).
    Walk,
    /// Along a [`LeafReach`] row whose leaf's inflated box contains the
    /// query box.
    Row(&'a [u32]),
}

impl Leaves<'_> {
    /// Invokes `scan(run)` on lists of leaves that together hold every
    /// leaf of `tree` whose box meets `query`, in the walk's order: a row
    /// whole, the walk's leaves in chunks of [`WALK_CHUNK`] (which pass
    /// the kernels' box test again).
    #[inline]
    fn runs(self, tree: &PackedRTree, query: &Mbb, mut scan: impl FnMut(&[u32])) {
        match self {
            Leaves::Row(row) => scan(row),
            Leaves::Walk => {
                let mut chunk = [0u32; WALK_CHUNK];
                let mut len = 0;
                tree.walk(query, |leaf| {
                    chunk[len] = leaf as u32;
                    len += 1;
                    if len == WALK_CHUNK {
                        scan(&chunk);
                        len = 0;
                    }
                });
                scan(&chunk[..len]);
            }
        }
    }
}

/// A level grown from `old` (absent when the old tree was shallower):
/// its first `keep` nodes followed by `fresh`. In place when `keep` is
/// the whole old level; a copy of the kept nodes otherwise.
fn grown_level(
    old: Option<&Column<Mbb>>,
    keep: usize,
    fresh: impl ExactSizeIterator<Item = Mbb>,
) -> Column<Mbb> {
    match old {
        Some(old) => old.prefix(keep).appended(fresh),
        None => {
            debug_assert_eq!(keep, 0, "a new level keeps no nodes");
            fresh.collect()
        }
    }
}

/// The MBB of a run of sibling nodes, folded left to right.
fn union_of(children: &[Mbb]) -> Mbb {
    let mut mbb = children[0];
    for child in &children[1..] {
        mbb = mbb.union(child);
    }
    mbb
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

    // The SoA kernel (`Level::collect`). Two deviations from the textbook
    // loop, both for the memory-bound regime §IV-A tunes `r` for: (1)
    // coordinates stream from the dense `xs`/`ys` arrays instead of
    // strided `Point2` loads; (2) the inner loop is branch-light — it
    // writes every candidate id and bumps the cursor by the predicate (0
    // or 1), so there is no data-dependent branch. NaN coordinates
    // compare false and are correctly skipped.
    fn epsilon_neighbors(&self, center: Point2, eps: f64, out: &mut Vec<PointId>) {
        let (scan, level) = (self.scan(center, eps, Skip::NONE), Level::host());
        Leaves::Walk.runs(self, &scan.query, |run| level.collect(&scan, run, out));
    }

    // Counting only: the same leaf scan without a write per candidate.
    fn epsilon_count(&self, center: Point2, eps: f64, _scratch: &mut Vec<PointId>) -> usize {
        self.count_within(self.scan(center, eps, Skip::NONE), Leaves::Walk)
    }

    // The same kernels over the leaves `reach` lists for `id`'s leaf,
    // leaving out what `skip` allows.
    fn epsilon_count_keyed_at(
        &self,
        id: PointId,
        eps: f64,
        reach: Option<&LeafReach>,
        skip: Skip,
        keys: &[u32],
        want: RangeInclusive<u32>,
        out: &mut Vec<PointId>,
    ) -> usize {
        let leaves = reach.map_or(Leaves::Walk, |reach| Leaves::Row(self.row(reach, id, eps)));
        let scan = self.scan(self.points[id as usize], eps, skip);
        self.count_keyed_within(scan, leaves, keys, want, out)
    }

    fn leaf_reach(&self, eps: f64) -> Option<LeafReach> {
        LeafReach::build(self, eps)
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
    use crate::traits::{shared_points, COUNT_ONLY};

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
    fn a_walk_over_many_chunks_scans_in_walk_order() {
        let pts = grid_points(25, 25);
        let keys: Vec<u32> = (0..pts.len() as u32).map(|i| i % 3).collect();
        for r in [1, 2, 7] {
            let (t, _) = PackedRTree::build(&pts, r);
            for (center, eps) in [
                (Point2::new(12.0, 12.0), 40.0),
                (Point2::new(3.0, 20.0), 9.0),
            ] {
                let mut leaves = 0;
                t.for_each_overlapping_leaf(&Mbb::around_point(center, eps), |_, _| leaves += 1);
                assert!(r > 1 || leaves > 2 * WALK_CHUNK, "r={r}: {leaves} leaves");
                // The naive path lists candidates in walk order too.
                let (mut got, mut naive) = (Vec::new(), Vec::new());
                t.epsilon_neighbors(center, eps, &mut got);
                t.epsilon_neighbors_naive(center, eps, &mut naive);
                assert_eq!(got, naive, "r={r}, ε={eps}");
                assert_eq!(t.epsilon_count(center, eps, &mut Vec::new()), naive.len());
                // The centres are grid points, so the keyed search can
                // be centred on one by id; without a table it walks.
                let id = t.points().iter().position(|p| *p == center).unwrap() as PointId;
                let mut kept = Vec::new();
                let count =
                    t.epsilon_count_keyed_at(id, eps, None, Skip::NONE, &keys, 1..=1, &mut kept);
                assert_eq!(count, naive.len());
                naive.retain(|&i| keys[i as usize] == 1);
                assert_eq!(kept, naive, "r={r}, ε={eps}");
            }
        }
    }

    #[test]
    fn a_search_skips_settled_leaves_only_once_its_count_reaches_need() {
        // Three leaves of four points on a line; every point is within ε
        // of point 5, whose row visits leaves 2, 1, 0 in that order.
        const UNCLAIMED: RangeInclusive<u32> = u32::MAX - 1..=u32::MAX;
        let pts: Vec<Point2> = (0..12).map(|i| Point2::new(f64::from(i), 0.0)).collect();
        let t = PackedRTree::from_sorted(shared_points(pts), 4);
        let eps = 20.0;
        let reach = t.leaf_reach(eps).unwrap();
        assert_eq!((reach.leaf_of(5), reach.of(1)), (1, &[2, 1, 0][..]));
        // Leaves 0 and 2 wholly claimed, leaf 1 unclaimed.
        let mut keys = vec![0; 12];
        keys[4..8].fill(u32::MAX);
        let search = |keys: &[u32], need: usize, want: RangeInclusive<u32>| {
            let live: Vec<u32> = keys
                .chunks(4)
                .map(|leaf| leaf.iter().filter(|k| want.contains(k)).count() as u32)
                .collect();
            let mut kept = Vec::new();
            let skip = Skip { need, live: &live };
            let count = t.epsilon_count_keyed_at(5, eps, Some(&reach), skip, keys, want, &mut kept);
            (count, kept)
        };
        let unclaimed = vec![4, 5, 6, 7];
        // Leaf 2 is settled but comes before the count reaches `need`, so
        // it is scanned; leaf 0 comes after, and is skipped.
        assert_eq!(search(&keys, 4, UNCLAIMED), (8, unclaimed.clone()));
        assert_eq!(search(&keys, 8, UNCLAIMED), (8, unclaimed.clone()));
        // Below `need` every leaf is scanned and the count is exact.
        assert_eq!(search(&keys, 9, UNCLAIMED), (12, unclaimed.clone()));
        assert_eq!(search(&keys, 13, UNCLAIMED), (12, unclaimed.clone()));
        // A leaf with one unclaimed point is never skipped.
        keys[1] = u32::MAX - 1;
        assert_eq!(search(&keys, 4, UNCLAIMED), (12, vec![4, 5, 6, 7, 1]));
        // A counting search stops at the first leaf that reaches `need`.
        assert_eq!(search(&keys, 1, COUNT_ONLY), (4, Vec::new()));
        assert_eq!(search(&keys, 4, COUNT_ONLY), (4, Vec::new()));
        assert_eq!(search(&keys, 5, COUNT_ONLY), (8, Vec::new()));
        assert_eq!(search(&keys, 13, COUNT_ONLY), (12, Vec::new()));
        // Without a skip, both count exactly.
        for want in [UNCLAIMED, COUNT_ONLY] {
            let count = t.epsilon_count_keyed_at(
                5,
                eps,
                Some(&reach),
                Skip::NONE,
                &keys,
                want,
                &mut Vec::new(),
            );
            assert_eq!(count, 12);
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

    /// Everything a tree holds, as bits: points, coordinates, every level.
    type Bits = (Vec<[u64; 2]>, Vec<u64>, Vec<u64>, Vec<Vec<[u64; 4]>>);

    fn bits_of(points: &[Point2], xs: &[f64], ys: &[f64], levels: &[Vec<Mbb>]) -> Bits {
        let p = |p: &Point2| [p.x.to_bits(), p.y.to_bits()];
        let b = |m: &Mbb| [m.min, m.max].map(|q| p(&q)).concat().try_into().unwrap();
        (
            points.iter().map(p).collect(),
            xs.iter().map(|x| x.to_bits()).collect(),
            ys.iter().map(|y| y.to_bits()).collect(),
            levels.iter().map(|l| l.iter().map(b).collect()).collect(),
        )
    }

    fn bits(t: &PackedRTree) -> Bits {
        let levels: Vec<Vec<Mbb>> = t.levels.iter().map(|l| l.to_vec()).collect();
        bits_of(&t.points, &t.xs, &t.ys, &levels)
    }

    /// The packing rule written out plainly: leaves over `r`-chunks, then
    /// parents over `fanout`-chunks until one root remains.
    fn reference_bits(points: &[Point2], r: usize, fanout: usize) -> Bits {
        let mut levels: Vec<Vec<Mbb>> = Vec::new();
        if !points.is_empty() {
            levels.push(
                points
                    .chunks(r)
                    .map(|c| Mbb::from_points(c).unwrap())
                    .collect(),
            );
            while levels.last().unwrap().len() > 1 {
                let below = levels.last().unwrap();
                let level = below
                    .chunks(fanout)
                    .map(|c| c[1..].iter().fold(c[0], |m, b| m.union(b)))
                    .collect();
                levels.push(level);
            }
        }
        let xs: Vec<f64> = points.iter().map(|p| p.x).collect();
        let ys: Vec<f64> = points.iter().map(|p| p.y).collect();
        bits_of(points, &xs, &ys, &levels)
    }

    /// Grows a tree over `points[..cuts[0]]` batch by batch to the next
    /// cut, checking every step against a fresh build of the prefix and
    /// against the packing rule, bit for bit.
    fn check_growth(points: &[Point2], cuts: &[usize], r: usize, fanout: usize) {
        let mut tree = PackedRTree::from_sorted_with_fanout(
            shared_points(points[..cuts[0]].to_vec()),
            r,
            fanout,
        );
        for w in cuts.windows(2) {
            tree = tree.appended(&points[w[0]..w[1]]);
            let prefix = &points[..w[1]];
            let fresh =
                PackedRTree::from_sorted_with_fanout(shared_points(prefix.to_vec()), r, fanout);
            let grown = bits(&tree);
            assert_eq!(grown, bits(&fresh), "r={r} fanout={fanout} cuts={w:?}");
            assert_eq!(
                grown,
                reference_bits(prefix, r, fanout),
                "r={r} fanout={fanout}"
            );
        }
    }

    fn scattered(n: usize) -> Vec<Point2> {
        (0..n as u64)
            .map(|i| {
                let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                Point2::new((h >> 40) as f64 / 1e4, ((h >> 16) & 0xFF_FFFF) as f64 / 1e5)
            })
            .collect()
    }

    #[test]
    fn appended_batches_fill_split_and_complete_the_last_leaf() {
        let points = scattered(700);
        for r in [1, 3, 80] {
            for fanout in [2, 16] {
                // From the empty tree: one point, a batch that exactly
                // completes the first leaf, one that fills a whole leaf,
                // one that splits across leaves, then a long run of
                // small batches.
                let mut cuts = vec![0, 1, r, 2 * r, 4 * r + 1];
                while *cuts.last().unwrap() + 7 <= points.len() {
                    cuts.push(cuts.last().unwrap() + 7);
                }
                check_growth(&points, &cuts, r, fanout);
                // From a non-empty tree whose last leaf is partial (for
                // r > 1): complete it exactly, then split the next.
                let full = (2 * r).max(r + 1);
                check_growth(&points, &[r + 1, full, full + 1, 5 * r + 3], r, fanout);
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn successive_appends_equal_a_fresh_build_of_the_concatenation(
            points in proptest::collection::vec(
                proptest::prelude::Strategy::prop_map(
                    (-20.0f64..20.0, -20.0f64..20.0),
                    |(x, y)| Point2::new(x, y),
                ),
                0..300,
            ),
            raw_cuts in proptest::collection::vec(0usize..300, 0..10),
            shape in 0usize..6,
        ) {
            let (r, fanout) = [(1, 2), (1, 16), (3, 2), (3, 16), (80, 2), (80, 16)][shape];
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|&c| c.min(points.len())).collect();
            cuts.push(0);
            cuts.push(points.len());
            cuts.sort_unstable();
            check_growth(&points, &cuts, r, fanout);
        }
    }

    #[test]
    fn two_appends_to_one_handle_fork_and_the_parent_keeps_its_prefix() {
        let points = scattered(400);
        let base = PackedRTree::from_sorted(shared_points(points[..200].to_vec()), 5);
        // The first append copies into a buffer with slack; the next one
        // to the same handle is then a fork off a shared buffer.
        let parent = base.appended(&points[200..203]);
        let left = parent.appended(&points[203..210]);
        let right = parent.appended(&points[300..340]);
        let mut right_points = points[..203].to_vec();
        right_points.extend_from_slice(&points[300..340]);
        for (tree, want) in [
            (&parent, points[..203].to_vec()),
            (&left, points[..210].to_vec()),
            (&right, right_points),
        ] {
            assert_eq!(bits(tree), reference_bits(&want, 5, DEFAULT_FANOUT));
            let brute = crate::BruteForce::new(shared_points(want.clone()));
            for c in &points[..40] {
                let (mut got, mut expect) = (Vec::new(), Vec::new());
                tree.epsilon_neighbors(*c, 2.0, &mut got);
                brute.epsilon_neighbors(*c, 2.0, &mut expect);
                got.sort_unstable();
                expect.sort_unstable();
                assert_eq!(got, expect, "a handle of {} points", want.len());
            }
        }
    }

    #[test]
    fn readers_of_older_handles_see_their_prefix_while_a_writer_appends() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::{Barrier, Mutex};
        let points = scattered(3000);
        let first = PackedRTree::from_sorted(shared_points(points[..10].to_vec()), 1);
        let published = Mutex::new(vec![first.clone()]);
        let (start, done) = (Barrier::new(3), AtomicBool::new(false));
        let mut tree = first;
        std::thread::scope(|s| {
            for seed in 0..2usize {
                let (published, start, done, points) = (&published, &start, &done, &points);
                s.spawn(move || {
                    start.wait();
                    let mut checked = 0usize;
                    while !done.load(Ordering::Acquire) || checked < 50 {
                        // Alternate between an old handle and one of the
                        // newest, whose buffers the writer is filling.
                        let tree = {
                            let all = published.lock().unwrap();
                            let back = (checked * 31 + seed * 7) % all.len();
                            let pick = if checked.is_multiple_of(2) {
                                back
                            } else {
                                back.min(3)
                            };
                            all[all.len() - 1 - pick].clone()
                        };
                        let n = tree.len();
                        assert_eq!(tree.points(), &points[..n]);
                        let (xs, ys) = tree.coords();
                        assert!(xs.iter().zip(&points[..n]).all(|(x, p)| *x == p.x));
                        assert!(ys.iter().zip(&points[..n]).all(|(y, p)| *y == p.y));
                        assert_eq!(tree.leaf_count(), n);
                        for (j, leaf) in tree.levels[0].iter().enumerate() {
                            assert_eq!(*leaf, Mbb::from_point(points[j]));
                        }
                        checked += 1;
                    }
                });
            }
            start.wait();
            let mut at = 10;
            while at < points.len() {
                let next = (at + 1 + at % 5).min(points.len());
                tree = tree.appended(&points[at..next]);
                published.lock().unwrap().push(tree.clone());
                at = next;
            }
            done.store(true, Ordering::Release);
        });
        assert_eq!(bits(&tree), reference_bits(&points, 1, DEFAULT_FANOUT));
    }
}
