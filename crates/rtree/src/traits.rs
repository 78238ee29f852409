//! The query interface the clustering substrate is generic over.

use std::ops::RangeInclusive;

use vbp_geom::{Mbb, Point2, PointId};

use crate::column::Column;
use crate::reach::LeafReach;

/// The empty `want` of [`SpatialIndex::epsilon_count_keyed_at`]: count
/// the neighbourhood and collect nothing.
#[allow(clippy::reversed_empty_ranges)]
pub const COUNT_ONLY: RangeInclusive<u32> = 1..=0;

/// What an id-centred search ([`SpatialIndex::epsilon_count_keyed_at`])
/// may leave unscanned once its count reaches `need`: every leaf `l` with
/// `live[l] == 0`, and, for an empty `want`, everything.
///
/// A caller whose only use of the count is `count ≥ need` — DBSCAN's core
/// test, with `need = minpts` — loses nothing: once the count reaches
/// `need` the test is decided, and a leaf none of whose points has a
/// wanted key contributes no kept id. The search then returns a count in
/// `need..=|N_ε|` instead of `|N_ε|`; below `need` it is exact. `live`
/// is indexed by the tree's leaves ([`LeafReach::leaf_of`]), and
/// `live[l] == 0` must mean that no point of leaf `l` has a key in the
/// search's `want`; it may be empty, and then no leaf is skipped for it.
/// Indexes other than [`crate::PackedRTree`] ignore it and count exactly.
#[derive(Clone, Copy, Debug)]
pub struct Skip<'a> {
    /// The count at which the caller's test is decided.
    pub need: usize,
    /// Per leaf, how many of its points have a wanted key (0 = none).
    pub live: &'a [u32],
}

impl Skip<'static> {
    /// Skip nothing: the count is `|N_ε|`, for callers that store it.
    pub const NONE: Self = Self {
        need: usize::MAX,
        live: &[],
    };
}

/// A spatial index over an immutable 2-D point database.
///
/// The contract mirrors Algorithm 2 of the paper (`NeighborSearch`): a
/// query proceeds *filter* (walk the index, gather candidate points whose
/// leaf MBB overlaps the query MBB) then *refine* (test each candidate
/// against the exact predicate). Implementations may over-approximate in
/// the filter step — that is the whole point of `r > 1` — but must never
/// miss a qualifying point.
///
/// Indexes own (a shared handle to) their point database so they can be
/// moved freely between the engine's worker threads.
pub trait SpatialIndex: Send + Sync {
    /// The indexed points, in index order.
    fn points(&self) -> &[Point2];

    /// Number of indexed points.
    fn len(&self) -> usize {
        self.points().len()
    }

    /// Returns `true` if the index contains no points.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Filter step: appends to `out` the ids of every point whose **leaf
    /// MBB** intersects `query`. May contain false positives (points whose
    /// leaf overlaps but which lie outside `query`); must contain every
    /// point inside `query`.
    fn range_candidates(&self, query: &Mbb, out: &mut Vec<PointId>);

    /// Exact rectangle query: appends the ids of every point inside the
    /// closed box `query`.
    fn range_query(&self, query: &Mbb, out: &mut Vec<PointId>) {
        let start = out.len();
        self.range_candidates(query, out);
        let pts = self.points();
        let new_len = retain_from(out, start, |id| query.contains_point(&pts[id as usize]));
        out.truncate(new_len);
    }

    /// ε-neighborhood query (Algorithm 2): appends the ids of every point
    /// `q` with `dist(center, q) ≤ eps`. Includes `center`'s own id when
    /// `center` is an indexed point — DBSCAN counts a point as its own
    /// neighbor, matching `N_ε(p) = {q ∈ D | dist(p,q) ≤ ε}`.
    ///
    /// The predicate is **closed** for every `eps ≥ 0`: points at distance
    /// exactly `eps` are neighbors. In particular `eps == 0` is legal and
    /// returns every point coincident with `center` (so ≥ 1 id when
    /// `center` is itself indexed, more under duplicates). All backends and
    /// [`crate::tune_r`] honor this contract; the cross-backend conformance
    /// suite pins it, boundary cases included.
    fn epsilon_neighbors(&self, center: Point2, eps: f64, out: &mut Vec<PointId>) {
        let start = out.len();
        let query = Mbb::around_point(center, eps);
        self.range_candidates(&query, out);
        let pts = self.points();
        let eps_sq = eps * eps;
        let new_len = retain_from(out, start, |id| pts[id as usize].dist_sq(&center) <= eps_sq);
        out.truncate(new_len);
    }

    /// `|N_ε(center)|`. The default materialises the neighbourhood into
    /// `scratch`; [`crate::PackedRTree`] counts on its leaf scan and leaves
    /// `scratch` untouched.
    fn epsilon_count(&self, center: Point2, eps: f64, scratch: &mut Vec<PointId>) -> usize {
        scratch.clear();
        self.epsilon_neighbors(center, eps, scratch);
        scratch.len()
    }

    /// Counts the ε-neighbourhood of the indexed point `id` and collects
    /// only part of it: returns `|N_ε(id)|` and appends to `out` the
    /// neighbours `q` whose `keys[q]` lies in `want`, in the order
    /// [`Self::epsilon_neighbors`] lists them. `keys` holds one entry per
    /// indexed point; an empty `want` ([`COUNT_ONLY`]) counts and
    /// collects nothing.
    ///
    /// DBSCAN's expansion needs a neighbour's id only when the neighbour
    /// is still unclaimed, yet needs the full count for the core test;
    /// this query returns exactly that. `reach` is [`Self::leaf_reach`]'s
    /// table for this `eps`, if it built one. `skip` says what the search
    /// may leave unscanned once its count reaches `skip.need` ([`Skip`]);
    /// the kept ids never depend on it, and with [`Skip::NONE`] the count
    /// is exact.
    ///
    /// The default ignores `reach` and `skip`, materialises the
    /// neighbourhood and then filters it. [`crate::PackedRTree`] fuses
    /// the count and the selection into its leaf scan, over the leaves
    /// `reach` lists for `id`'s leaf instead of a walk from the root: the
    /// same leaves in the same order ([`crate::reach`]), so the same
    /// count and the same kept ids in the same order.
    #[allow(clippy::too_many_arguments)]
    fn epsilon_count_keyed_at(
        &self,
        id: PointId,
        eps: f64,
        _reach: Option<&LeafReach>,
        _skip: Skip<'_>,
        keys: &[u32],
        want: RangeInclusive<u32>,
        out: &mut Vec<PointId>,
    ) -> usize {
        let start = out.len();
        self.epsilon_neighbors(self.points()[id as usize], eps, out);
        let count = out.len() - start;
        let new_len = retain_from(out, start, |q| want.contains(&keys[q as usize]));
        out.truncate(new_len);
        count
    }

    /// The table [`Self::epsilon_count_keyed_at`] reads in place of the
    /// tree walk, built for `eps`. `None` (the default) when the index
    /// has none, or when the table would hold more entries than the
    /// index holds points.
    fn leaf_reach(&self, _eps: f64) -> Option<LeafReach> {
        None
    }

    /// Batched ε-neighborhood queries: runs [`Self::epsilon_neighbors`] for
    /// every indexed point id in `ids` and hands each result to `emit(id,
    /// neighbors)`. Implementations may **reorder `ids` in place** so that
    /// consecutive queries probe nearby index nodes (warm leaves) — callers
    /// must not rely on emission order, only on every id being emitted
    /// exactly once. `scratch` is the reused neighbor buffer.
    ///
    /// The default runs queries in the given order; [`crate::PackedRTree`]
    /// overrides this to sort `ids` into tree order first.
    fn epsilon_neighbors_batch(
        &self,
        ids: &mut [PointId],
        eps: f64,
        scratch: &mut Vec<PointId>,
        emit: &mut dyn FnMut(PointId, &[PointId]),
    ) {
        let pts = self.points();
        for &id in ids.iter() {
            scratch.clear();
            self.epsilon_neighbors(pts[id as usize], eps, scratch);
            emit(id, scratch);
        }
    }
}

/// In-place partition helper: keeps elements of `v[start..]` satisfying
/// `keep`, preserving order, and returns the new logical length of `v`.
fn retain_from(v: &mut [PointId], start: usize, mut keep: impl FnMut(PointId) -> bool) -> usize {
    let mut write = start;
    for read in start..v.len() {
        if keep(v[read]) {
            v[write] = v[read];
            write += 1;
        }
    }
    write
}

/// Shared, immutable point database handle.
///
/// Every index implementation stores one of these; clones are cheap
/// reference-count bumps, so every clone of a tree (and every engine
/// worker thread) shares a single allocation — the paper's "we assume that we can
/// store all relevant data in memory" made concrete. A [`Column`], so a
/// streaming append grows it in place ([`crate::PackedRTree::appended`]).
pub type SharedPoints = Column<Point2>;

/// Builds a [`SharedPoints`] from any point collection.
pub fn shared_points<I: IntoIterator<Item = Point2>>(points: I) -> SharedPoints {
    points.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retain_from_preserves_prefix_and_order() {
        let mut v = vec![10, 11, 1, 2, 3, 4, 5];
        let n = retain_from(&mut v, 2, |x| x % 2 == 1);
        v.truncate(n);
        assert_eq!(v, vec![10, 11, 1, 3, 5]);
    }

    #[test]
    fn shared_points_roundtrip() {
        let sp = shared_points([Point2::new(1.0, 2.0), Point2::new(3.0, 4.0)]);
        assert_eq!(sp.len(), 2);
        assert_eq!(sp[1], Point2::new(3.0, 4.0));
    }
}
