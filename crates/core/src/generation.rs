//! The dataset generation: the §IV-A index, built once in bin-sorted tree
//! order and carried across streaming appends as a [`PreparedIndex`].
//! This module is the only code that makes tree order ([`Engine::prepare`],
//! [`PreparedIndex::restore`]), changes it ([`Engine::append_to_prepared`],
//! [`Engine::resort_prepared`]) and maps it back to the caller's order
//! or across a re-sort ([`PreparedIndex::rekey`]).

use std::sync::OnceLock;
use std::time::{Duration, Instant};

use vbp_dbscan::{ClusterResult, Labels};
use vbp_geom::binning::{invert_permutation, unpermute};
use vbp_geom::{Point2, PointId};
use vbp_rtree::{Column, PackedRTree, SpatialIndex};
use vbp_store::{Container, IndexSnapshot, StoreError};

use crate::engine::{Engine, EngineError};

/// A prebuilt, reusable index over one point database.
///
/// Rebuilding the tree on every run is fine for one-shot sweeps but
/// wasteful for a long-running service answering many variant requests
/// against the same datasets. `PreparedIndex` hoists the bin sort and
/// the tree build out of the run loop: build once with
/// [`Engine::prepare`], then execute any number of
/// [`RunRequest::prepared`](crate::RunRequest::prepared) runs. Runs over a
/// prepared index report `index_build_time == 0` — the build cost lives in
/// [`PreparedIndex::build_time`], amortized across every run that shares
/// the handle.
///
/// A handle is the whole of one dataset generation: the tree holds the
/// points in tree order (one shared array), the permutation maps
/// them back, and [`PreparedIndex::caller_points`] derives caller order
/// for the few readers that want it. Successive maintained appends share
/// these arrays ([`Column`]s), each handle seeing its own prefix.
///
/// The paper's §IV-A builds a second tree, `T_high` (`r = 1`), for the
/// cluster-MBB harvest of Algorithm 3. Its leaf level alone is one
/// 32-byte box per point, and the reuse path harvests on `T_low` at leaf
/// grain instead, so this index keeps one tree; [`PreparedIndex::t_high`]
/// remains as a name for it.
#[derive(Clone, Debug)]
pub struct PreparedIndex {
    t_low: PackedRTree,
    permutation: Column<PointId>,
    /// The inverse of `permutation`, built on first use and carried
    /// across maintained appends.
    tree_positions: OnceLock<Column<PointId>>,
    build_time: Duration,
    /// Points appended (at the tree tail, outside bin order) since the
    /// last full bin sort — the maintain-vs-resort policy input.
    appended_since_sort: usize,
}

impl PreparedIndex {
    /// A clean generation: `points`, in the caller's order, bin-sorted
    /// and packed with `r` points per leaf. The caller sets `build_time`.
    fn sorted(points: &[Point2], r: usize) -> Self {
        let (t_low, permutation) = PackedRTree::build(points, r);
        Self {
            t_low,
            permutation: permutation.into(),
            tree_positions: OnceLock::new(),
            build_time: Duration::ZERO,
            appended_since_sort: 0,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// Returns `true` for an index over the empty database.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.permutation.is_empty()
    }

    /// The tree (`r` points per leaf) used for ε-neighborhood searches.
    #[inline]
    pub fn t_low(&self) -> &PackedRTree {
        &self.t_low
    }

    /// The paper's harvest tree, here [`PreparedIndex::t_low`]. The paper
    /// harvests on a second, `r = 1` tree; the reuse path harvests on
    /// `T_low` at leaf grain, so this index builds one tree. Kept for
    /// callers that name the paper's pair.
    #[inline]
    pub fn t_high(&self) -> &PackedRTree {
        &self.t_low
    }

    /// Permutation mapping tree order → caller point order.
    #[inline]
    pub fn permutation(&self) -> &[PointId] {
        &self.permutation
    }

    /// The `r` the index was actually built with.
    #[inline]
    pub fn chosen_r(&self) -> usize {
        self.t_low.points_per_leaf()
    }

    /// Wall time spent bin-sorting and building the tree,
    /// plus any streaming maintenance applied since.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Points appended at the tree tail since the last full bin sort.
    /// Zero for a freshly prepared (or freshly re-sorted) handle.
    pub fn appended_since_sort(&self) -> usize {
        self.appended_since_sort
    }

    /// Caller id → tree position, the inverse of
    /// [`PreparedIndex::permutation`]. Built in O(n) on the first call
    /// for a generation that has none, then carried by every maintained
    /// append in O(batch): an appended caller id `q` sits at tree
    /// position `q`.
    fn tree_positions(&self) -> &[PointId] {
        self.tree_positions
            .get_or_init(|| invert_permutation(&self.permutation).into())
    }

    /// This handle followed by `batch` at the tail of tree order: the
    /// points, coordinates, permutation and (when built) its inverse grow
    /// by the batch, and the tree grows as [`PackedRTree::appended`]
    /// describes.
    fn appended(&self, batch: &[Point2]) -> Self {
        let (old_n, total) = (self.len(), self.len() + batch.len());
        let tail = || (old_n..total).map(|i| i as PointId);
        let t_low = self.t_low.appended(batch);
        let tree_positions = match self.tree_positions.get() {
            Some(inverse) => OnceLock::from(inverse.appended(tail())),
            None => OnceLock::new(),
        };
        Self {
            t_low,
            permutation: self.permutation.appended(tail()),
            tree_positions,
            build_time: self.build_time,
            appended_since_sort: self.appended_since_sort + batch.len(),
        }
    }

    /// The accumulated database in the caller's original point order
    /// (inverts [`PreparedIndex::permutation`]).
    pub fn caller_points(&self) -> Vec<Point2> {
        let tree_points = self.t_low.points();
        unpermute(&self.permutation, |i| tree_points[i])
    }

    /// Maps a tree-order clustering of this index back to the caller's
    /// original point order (raw label values, noise included).
    pub fn labels_in_caller_order(&self, result: &ClusterResult) -> Vec<u32> {
        assert_eq!(
            result.len(),
            self.permutation.len(),
            "result covers a different database"
        );
        let labels = result.labels();
        unpermute(&self.permutation, |i| labels.raw(i as PointId))
    }

    /// The ε-neighbours of caller point `q`, as caller ids, in the order
    /// the tree's search finds them. The caller → tree inverse it needs
    /// is built on a generation's first use and carried by maintained
    /// appends in O(batch).
    pub fn caller_neighbors(&self, q: PointId, eps: f64, out: &mut Vec<PointId>) {
        let center = self.t_low.points()[self.tree_positions()[q as usize] as usize];
        self.t_low.epsilon_neighbors(center, eps, out);
        for p in out.iter_mut() {
            *p = self.permutation[*p as usize];
        }
    }

    /// Moves `result`, a tree-order clustering of the earlier generation
    /// `prev` extended by the points appended since (caller ids
    /// `prev.len()..`), into this generation's tree order, point for
    /// point. Scatters through this generation's own caller → tree
    /// inverse, the one [`PreparedIndex::caller_neighbors`] uses; no other
    /// inverse is built.
    /// Panics if `result` does not cover this generation or `prev` is
    /// larger than it.
    pub fn rekey(&self, prev: &PreparedIndex, result: &ClusterResult) -> ClusterResult {
        assert_eq!(
            result.len(),
            self.len(),
            "result covers a different database"
        );
        assert!(
            prev.len() <= self.len(),
            "prev is not an earlier generation"
        );
        let to = self.tree_positions();
        let mut raw = vec![0u32; self.len()];
        for (i, &label) in result.labels().as_raw().iter().enumerate() {
            let caller = prev.permutation.get(i).copied().unwrap_or(i as PointId);
            raw[to[caller as usize] as usize] = label;
        }
        ClusterResult::from_labels(Labels::from_raw(raw))
    }

    /// This handle's complete warm state as one checksummed
    /// [`vbp_store`] container: the tree-order points, the permutation,
    /// `r`, and the append generation counter.
    /// [`PreparedIndex::restore`] on those bytes skips the bin sort
    /// entirely and re-derives the packed tree from the stored order in
    /// O(n).
    ///
    /// Callers that want a clean generation on disk should flush a
    /// dirty tail through [`Engine::resort_prepared`] first;
    /// snapshotting a dirty handle is still correct (the counter
    /// round-trips), it just persists tail-degraded query locality.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.to_snapshot().encode()
    }

    /// This handle's warm state as plain store data, ready to embed in
    /// a dataset file.
    pub fn to_snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            points: self.t_low.shared_points(),
            permutation: self.permutation.to_vec(),
            chosen_r: self.chosen_r(),
            fanout: self.t_low.fanout(),
            build_time_ns: self.build_time.as_nanos().min(u128::from(u64::MAX)) as u64,
            appended_since_sort: self.appended_since_sort as u64,
        }
    }

    /// Rebuilds a handle from [`PreparedIndex::snapshot_bytes`] without
    /// bin-sorting or tuning — the store's near-instant warm restart.
    /// Total on arbitrary input: every checksum, length, and
    /// permutation invariant is validated and any violation comes back
    /// as a typed [`StoreError`], never a panic and never an index that
    /// could drop neighbors.
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, StoreError> {
        let container = Container::read_from(r)?;
        // Decode has already proven every invariant `from_snapshot`
        // re-checks, so the trusted constructor applies directly.
        Ok(Self::from_snapshot_trusted(
            IndexSnapshot::decode_container(&container)?,
        ))
    }

    /// Rebuilds a handle from decoded snapshot data.
    ///
    /// The packed tree is *derived* from the stored tree-order points.
    /// Fresh prepares, maintained appends and re-sorts all build through
    /// `PackedRTree::grown_over` (a fresh build is growth from the empty
    /// tree), and growth equals a fresh build over the concatenation, so
    /// the derived tree is bit-identical to the one that was
    /// snapshotted, in every append-generation state. Deriving (instead of trusting level MBBs from disk) also
    /// closes the one hole checksums cannot: a CRC-valid but *crafted*
    /// file whose boxes fail to cover their points would silently drop
    /// neighbors; boxes computed from the validated points cannot.
    ///
    /// The snapshot's fields are re-validated here (decode already
    /// guarantees them, but the struct is plain public data), so this
    /// is total even on a hand-built snapshot.
    pub fn from_snapshot(snap: IndexSnapshot) -> Result<Self, StoreError> {
        let malformed = |section: u32, reason: String| StoreError::Malformed { section, reason };
        let n = snap.points.len();
        if snap.chosen_r < 1 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!("bad r {}", snap.chosen_r),
            ));
        }
        if snap.fanout < 2 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!("bad fanout {}", snap.fanout),
            ));
        }
        if snap.appended_since_sort > n as u64 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!(
                    "append generation {} exceeds {n} points",
                    snap.appended_since_sort
                ),
            ));
        }
        if snap.permutation.len() != n {
            return Err(malformed(
                vbp_store::section_id::PERMUTATION,
                format!("{} entries for {n} points", snap.permutation.len()),
            ));
        }
        let mut seen = vec![false; n];
        for &i in &snap.permutation {
            match seen.get_mut(i as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(malformed(
                        vbp_store::section_id::PERMUTATION,
                        format!("permutation is not a bijection (entry {i})"),
                    ))
                }
            }
        }
        if let Some(bad) = snap.points.iter().position(|p| !p.is_finite()) {
            return Err(malformed(
                vbp_store::section_id::POINTS,
                format!("point {bad} has non-finite coordinates"),
            ));
        }
        Ok(Self::from_snapshot_trusted(snap))
    }

    /// [`PreparedIndex::from_snapshot`] minus the validation pass, for
    /// callers (decode, `from_snapshot` itself) that have already proven
    /// `chosen_r ≥ 1`, `fanout ≥ 2`, a bijective permutation covering
    /// the points, finite coordinates, and a bounded append counter.
    fn from_snapshot_trusted(snap: IndexSnapshot) -> Self {
        let IndexSnapshot {
            points,
            permutation,
            chosen_r,
            fanout,
            build_time_ns,
            appended_since_sort,
        } = snap;
        Self {
            t_low: PackedRTree::from_sorted_with_fanout(points, chosen_r, fanout),
            permutation: permutation.into(),
            tree_positions: OnceLock::new(),
            build_time: Duration::from_nanos(build_time_ns),
            appended_since_sort: appended_since_sort as usize,
        }
    }
}

/// Unsorted-tail fraction above which [`Engine::append_to_prepared`]
/// re-sorts the whole handle instead of maintaining the packed arrays in
/// place. Appends land at the tail of tree order, outside bin order, and
/// a tail leaf gathers batches from all over the map, so its box covers
/// most of the data and every search scans it. The value trades that
/// per-search cost, paid by every variant served on a dirty handle,
/// against one O(n) bin sort per quarter of growth; it is not where the
/// re-sort starts paying. On `cF_10k_5N@8000` grown by 8-point batches,
/// one fresh variant at T = 1 took 4.8 ms against 2.3 ms re-sorted at a
/// 9.1 % tail, and 12.5 ms against 2.7 ms at a 24.98 % tail, just before
/// the re-sort fires (EXPERIMENTS.md, "One label contract, and the
/// drain-time re-sort pays").
pub const APPEND_RESORT_FRACTION: f64 = 0.25;

/// Record of one [`Engine::append_to_prepared`] batch.
#[derive(Clone, Copy, Debug)]
pub struct AppendReport {
    /// Points inserted by this batch.
    pub appended: usize,
    /// Dataset size after the batch.
    pub total: usize,
    /// Whether the handle crossed [`APPEND_RESORT_FRACTION`] and was
    /// rebuilt with a full bin sort (tail reset to zero).
    pub resorted: bool,
    /// Wall time spent maintaining or re-sorting the handle.
    pub time: Duration,
}

/// Rejects a database or batch holding a NaN or infinite coordinate.
pub(crate) fn check_finite(points: &[Point2]) -> Result<(), EngineError> {
    match points.iter().position(|p| !p.is_finite()) {
        Some(bad) => Err(EngineError::NonFinitePoint {
            index: bad,
            point: points[bad],
        }),
        None => Ok(()),
    }
}

impl Engine {
    /// Builds the shared R-tree over `points` with the configured `r`
    /// without clustering anything, returning a handle that any number of
    /// [`RunRequest::prepared`](crate::RunRequest::prepared) runs can
    /// share. `_representative_eps` is not read; it stays in the
    /// signature for existing callers.
    pub fn prepare(
        &self,
        points: &[Point2],
        _representative_eps: Option<f64>,
    ) -> Result<PreparedIndex, EngineError> {
        check_finite(points)?;
        let start = Instant::now();
        let mut index = PreparedIndex::sorted(points, self.config().r);
        index.build_time = start.elapsed();
        Ok(index)
    }

    /// Applies one streaming APPEND batch to a prepared handle, returning
    /// the successor handle (functional update — in-flight runs over the
    /// old handle stay valid) plus an [`AppendReport`].
    ///
    /// The maintain path appends the new points at the *tail of tree
    /// order*: no bin sort. The points, coordinates and
    /// permutation are [`Column`]s the batch is written onto in place
    /// ([`PackedRTree::appended`]); only the tree's small levels — its
    /// `n / r` leaves and the levels above — are copied, with just their
    /// last partial node and right spine recomputed. The tree equals a
    /// [`PackedRTree::from_sorted`]
    /// build over the concatenation, level by level. Appended caller ids
    /// continue the old numbering (`old_len..old_len+k`). Once the
    /// unsorted tail exceeds [`APPEND_RESORT_FRACTION`] of the dataset,
    /// the maintained successor is flushed through
    /// [`Engine::resort_prepared`] (same `chosen_r`; the tail fraction
    /// resets to zero) so query locality cannot degrade without bound.
    pub fn append_to_prepared(
        &self,
        index: &PreparedIndex,
        new_points: &[Point2],
    ) -> Result<(PreparedIndex, AppendReport), EngineError> {
        check_finite(new_points)?;
        let start = Instant::now();
        let total = index.len() + new_points.len();
        let unsorted_tail = index.appended_since_sort + new_points.len();
        let resorted = unsorted_tail as f64 > total as f64 * APPEND_RESORT_FRACTION;
        let mut next = index.appended(new_points);
        if resorted {
            next = self.resort_prepared(&next);
        }
        let time = start.elapsed();
        next.build_time = index.build_time + time;
        Ok((
            next,
            AppendReport {
                appended: new_points.len(),
                total,
                resorted,
                time,
            },
        ))
    }

    /// Flushes a handle's unsorted append tail: bin-sorts the
    /// accumulated caller-order points with the handle's `r` and
    /// rebuilds the packed tree, the re-sort [`Engine::append_to_prepared`]
    /// applies when the tail crosses [`APPEND_RESORT_FRACTION`]. The
    /// returned handle answers the same queries with
    /// `appended_since_sort == 0` — the clean generation the warm-state
    /// store persists before shutdown. A handle that is already clean is
    /// returned as a cheap clone. Results computed on `index` carry over
    /// through [`PreparedIndex::rekey`].
    pub fn resort_prepared(&self, index: &PreparedIndex) -> PreparedIndex {
        if index.appended_since_sort == 0 {
            return index.clone();
        }
        let start = Instant::now();
        let mut next = PreparedIndex::sorted(&index.caller_points(), index.chosen_r());
        next.build_time = index.build_time + start.elapsed();
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{blobs, run, run_prepared, small_grid};
    use crate::variant::{Variant, VariantSet};

    /// Canonicalizes raw caller-order labels by first appearance so two
    /// labelings compare equal iff they induce the same partition (noise
    /// preserved as noise).
    fn canonical(labels: &[u32]) -> Vec<u32> {
        let mut map = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                if l == u32::MAX {
                    u32::MAX
                } else {
                    let next = map.len() as u32;
                    *map.entry(l).or_insert(next)
                }
            })
            .collect()
    }

    #[test]
    fn append_to_prepared_is_equivalent_to_fresh_prepare() {
        let all = blobs(700, 4, 7);
        let variants = small_grid();
        let engine = Engine::new(crate::EngineConfig::default().with_threads(2).with_r(16));
        let mut index = engine.prepare(&all[..400], None).expect("finite");

        // First batch (100 on 400: tail 20% — maintain), second batch
        // (+100: tail 200/600 = 33% — resort).
        let mut saw_resort = false;
        for (start, end) in [(400, 500), (500, 700)] {
            let (next, report) = engine
                .append_to_prepared(&index, &all[start..end])
                .expect("finite batch");
            assert_eq!(report.appended, end - start);
            assert_eq!(report.total, end);
            index = next;

            assert_eq!(index.len(), end);
            assert_eq!(index.caller_points(), all[..end].to_vec());
            if report.resorted {
                // The re-sort bin-sorts the same caller points a fresh
                // prepare does, so its tree order is the fresh one, bit
                // for bit.
                saw_resort = true;
                let fresh = engine.prepare(&all[..end], None).expect("finite");
                assert_eq!(index.permutation(), fresh.permutation());
                let bits = |p: &[Point2]| -> Vec<(u64, u64)> {
                    p.iter().map(|q| (q.x.to_bits(), q.y.to_bits())).collect()
                };
                assert_eq!(bits(index.t_low().points()), bits(fresh.t_low().points()));
            }

            let streamed = run_prepared(&engine, &index, &variants);
            let fresh = run(&engine, &all[..end], &variants);
            for v in 0..variants.len() {
                assert_eq!(
                    canonical(&streamed.result_in_caller_order(v)),
                    canonical(&fresh.result_in_caller_order(v)),
                    "variant {v} diverged after appending to {end} points"
                );
            }
        }
        assert!(saw_resort, "second batch must cross APPEND_RESORT_FRACTION");
        assert_eq!(index.appended_since_sort(), 0, "resort resets the tail");

        let err = engine
            .append_to_prepared(&index, &[Point2::new(f64::NAN, 0.0)])
            .expect_err("non-finite appends are rejected");
        assert!(matches!(err, EngineError::NonFinitePoint { index: 0, .. }));
    }

    #[test]
    fn grown_handles_snapshot_their_own_prefix_and_carry_the_inverse() {
        let all = blobs(600, 3, 11);
        let engine = Engine::new(crate::EngineConfig::default().with_threads(1).with_r(8));
        let base = engine.prepare(&all[..500], None).expect("finite");
        assert_eq!(base.tree_positions().len(), 500, "built on first use");
        let step = |index: &PreparedIndex, batch: &[Point2]| {
            let (next, report) = engine.append_to_prepared(index, batch).expect("finite");
            assert!(!report.resorted);
            next
        };
        // `mid`'s columns are then grown in place by `late`, and forked.
        let mid = step(&base, &all[500..510]);
        let late = step(&mid, &all[510..530]);
        let fork = step(&mid, &all[540..545]);
        for (index, len) in [(&mid, 510), (&late, 530), (&fork, 515)] {
            assert_eq!(index.len(), len);
            assert_eq!(
                index.tree_positions(),
                invert_permutation(index.permutation())
            );
            let restored = PreparedIndex::restore(&mut index.snapshot_bytes().as_slice())
                .expect("a fresh snapshot restores");
            assert_eq!(restored.caller_points(), index.caller_points());
            assert_eq!(restored.permutation(), index.permutation());
            assert_eq!(restored.snapshot_bytes(), index.snapshot_bytes());
        }
        assert_eq!(fork.caller_points()[510..], all[540..545]);
        assert_eq!(late.caller_points(), all[..530]);
    }

    /// Random raw labels, a few of them noise.
    fn random_result(n: usize, seed: u64) -> ClusterResult {
        let mut state = seed | 1;
        let raw = (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 9 {
                    0 => u32::MAX,
                    k => (k % 5) as u32,
                }
            })
            .collect();
        ClusterResult::from_labels(Labels::from_raw(raw))
    }

    #[test]
    fn rekey_carries_each_point_label_across_a_resort() {
        let all = blobs(700, 4, 19);
        let engine = Engine::new(crate::EngineConfig::default().with_threads(1).with_r(16));
        let base = engine.prepare(&all[..400], None).expect("finite");
        let (dirty, report) = engine
            .append_to_prepared(&base, &all[400..450])
            .expect("finite");
        assert!(!report.resorted);

        // A dirty handle flushed by `resort_prepared`: same points, new
        // tree order.
        let clean = engine.resort_prepared(&dirty);
        assert_ne!(clean.permutation(), dirty.permutation());
        let labels = random_result(dirty.len(), 3);
        let rekeyed = clean.rekey(&dirty, &labels);
        assert_eq!(
            clean.labels_in_caller_order(&rekeyed),
            dirty.labels_in_caller_order(&labels)
        );

        // An append that crosses the fraction: the source's labels,
        // extended by the tail's in append order, move into the re-sorted
        // order.
        let (resorted, report) = engine
            .append_to_prepared(&dirty, &all[450..700])
            .expect("finite");
        assert!(report.resorted);
        let source = random_result(dirty.len(), 5);
        let tail = random_result(250, 7);
        let extended = ClusterResult::from_labels(Labels::from_raw(
            source
                .labels()
                .as_raw()
                .iter()
                .chain(tail.labels().as_raw())
                .copied()
                .collect(),
        ));
        let mut expected = dirty.labels_in_caller_order(&source);
        expected.extend_from_slice(tail.labels().as_raw());
        assert_eq!(
            resorted.labels_in_caller_order(&resorted.rekey(&dirty, &extended)),
            expected
        );
    }

    #[test]
    fn prepared_index_builds_once_across_runs() {
        // Regression: one-shot runs used to rebuild the index per call
        // even on an unchanged point set. Two runs over one prepared
        // handle must not pay (or report) any index construction — the
        // build cost lives in the handle, once.
        let points = blobs(800, 4, 63);
        let variants = small_grid();
        let engine = Engine::new(crate::EngineConfig::default().with_threads(2).with_r(16));
        let prepared = engine.prepare(&points, None).unwrap();
        assert!(prepared.build_time() > Duration::ZERO);
        assert_eq!(prepared.len(), points.len());
        assert_eq!(prepared.chosen_r(), 16);

        let a = run_prepared(&engine, &prepared, &variants);
        let b = run_prepared(&engine, &prepared, &variants);
        assert_eq!(a.index_build_time, Duration::ZERO);
        assert_eq!(b.index_build_time, Duration::ZERO);
        assert_eq!(a.permutation, prepared.permutation());
        assert_eq!(b.permutation, prepared.permutation());

        // Same handle ⇒ same tree order ⇒ same cluster structure as the
        // classic one-shot path.
        let direct = run(&engine, &points, &variants);
        assert!(direct.index_build_time > Duration::ZERO);
        for i in 0..variants.len() {
            assert_eq!(
                a.results[i].num_clusters(),
                direct.results[i].num_clusters()
            );
            assert_eq!(a.results[i].noise_count(), direct.results[i].noise_count());
        }
    }

    #[test]
    fn prepare_rejects_non_finite_points() {
        let engine = Engine::new(crate::EngineConfig::default().with_threads(1).with_r(4));
        let points = vec![Point2::new(0.0, 0.0), Point2::new(1.0, f64::INFINITY)];
        assert!(matches!(
            engine.prepare(&points, None),
            Err(EngineError::NonFinitePoint { index: 1, .. })
        ));
    }

    #[test]
    fn labels_in_caller_order_roundtrips() {
        let points = blobs(300, 3, 69);
        let variants = VariantSet::replicated(Variant::new(1.0, 4), 1);
        let engine = Engine::new(crate::EngineConfig::default().with_threads(1).with_r(8));
        let prepared = engine.prepare(&points, None).unwrap();
        let report = run_prepared(&engine, &prepared, &variants);
        let remapped = prepared.labels_in_caller_order(&report.results[0]);
        assert_eq!(remapped, report.result_in_caller_order(0));
    }
}
