//! Incremental DBSCAN — insertion-maintained clustering (after Ester et
//! al., "Incremental Clustering for Mining in a Data Warehousing
//! Environment", VLDB 1998; insertions only).
//!
//! The core paper motivates VariantDBSCAN with early-warning systems for
//! natural hazards; in that setting TEC measurements *stream in*, and
//! re-clustering the whole map per update is wasteful. Inserting a point
//! only perturbs its ε-neighborhood: neighbor counts there grow by one,
//! some points may *become* core, and each newly-core point can merge the
//! clusters around it. This module maintains exactly that state, and
//! nothing else:
//!
//! - per-point self-inclusive neighbor counts and core flags,
//! - a [`DisjointSets`] structure over core connectivity,
//! - deterministic border claims (minimum adjacent core id, the same
//!   convention as the disjoint-set kernel in [`crate::sharded`]),
//! - a running census: clusters are cores minus successful unions (the
//!   union-find reading of DBSCAN), noise is the non-core points no core
//!   has claimed —
//!
//! so a snapshot after inserting points in any batches is **identical** to
//! running the batch disjoint-set DBSCAN on the final database (tested).
//!
//! Insertion only ever joins components, so what a batch did to the
//! clustering follows from the batch itself: [`InsertOutcome`] counts the
//! promotions and, from the unions, the clusters born and absorbed — no
//! comparison of whole clusterings. [`IncrementalDbscan::snapshot`] is the
//! oracle the tests hold the census to.
//!
//! It holds no index and no points: [`IncrementalDbscan::insert`] takes
//! its ε-neighborhoods from the caller, who already has the database
//! indexed (the daemon's `WATCH` streams query the dataset's own `T_low`,
//! which already holds every point of the batch).

use vbp_geom::PointId;

use crate::algorithm::DbscanParams;
use crate::labels::{ClusterId, Labels, MAX_CLUSTER_ID};
use crate::result::ClusterResult;
use crate::unionfind::DisjointSets;

const UNCLAIMED: u32 = u32::MAX;

/// What one batch of insertions did to the clustering. The census
/// replays: clusters before + `born` − `absorbed` = clusters after.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Points (old or inserted) that crossed the core threshold.
    pub promoted: usize,
    /// Clusters after the batch that hold no core from before it.
    pub born: usize,
    /// Clusters from before the batch merged into another one.
    pub absorbed: usize,
}

/// An insertion-maintained DBSCAN clustering.
#[derive(Clone, Debug)]
pub struct IncrementalDbscan {
    params: DbscanParams,
    /// Self-inclusive ε-neighbor counts.
    count: Vec<u32>,
    core: Vec<bool>,
    sets: DisjointSets,
    /// Minimum adjacent core id for non-core points.
    claim: Vec<u32>,
    clusters: usize,
    noise: usize,
}

impl IncrementalDbscan {
    /// Creates an empty clustering.
    pub fn new(params: DbscanParams) -> Self {
        Self {
            params,
            count: Vec::new(),
            core: Vec::new(),
            sets: DisjointSets::new(0),
            claim: Vec::new(),
            clusters: 0,
            noise: 0,
        }
    }

    /// Number of points inserted so far.
    pub fn len(&self) -> usize {
        self.count.len()
    }

    /// Returns `true` before the first insertion.
    pub fn is_empty(&self) -> bool {
        self.count.is_empty()
    }

    /// The parameters.
    pub fn params(&self) -> DbscanParams {
        self.params
    }

    /// Number of clusters now (O(1); equals the snapshot's).
    pub fn clusters(&self) -> usize {
        self.clusters
    }

    /// Number of noise points now (O(1); equals the snapshot's).
    pub fn noise(&self) -> usize {
        self.noise
    }

    /// Inserts the next `points` points — ids [`IncrementalDbscan::len`]
    /// onwards, one at a time in id order — and reports what the batch
    /// did.
    ///
    /// `neighbors_of(q, out)` must fill `out` (handed over empty) with the
    /// ε-neighborhood of point `q` (closed at ε, `q` itself a member, any
    /// order) over at least the points inserted so far. Ids not inserted
    /// yet may be reported too: they are dropped, so a caller whose index
    /// already holds the whole batch need not filter. It is asked once for
    /// each inserted point and once for each point the batch makes core.
    pub fn insert(
        &mut self,
        points: usize,
        mut neighbors_of: impl FnMut(PointId, &mut Vec<PointId>),
    ) -> InsertOutcome {
        let start = self.count.len() as PointId;
        let clusters_before = self.clusters;
        let minpts = self.params.minpts as u32;
        // B, the points this batch makes core, and the cores from before
        // the batch seen next to them (filtered to ∉ B below).
        let mut promoted: Vec<PointId> = Vec::new();
        let mut old_adjacent: Vec<PointId> = Vec::new();
        let mut neighbors: Vec<PointId> = Vec::new();
        let mut list: Vec<PointId> = Vec::new();
        for _ in 0..points {
            let pid = self.sets.push();
            self.count.push(0);
            self.core.push(false);
            self.claim.push(UNCLAIMED);
            self.noise += 1;
            let mut ask = |q: PointId, out: &mut Vec<PointId>| {
                out.clear();
                neighbors_of(q, out);
                out.retain(|&p| p <= pid);
            };

            ask(pid, &mut neighbors);
            self.count[pid as usize] = neighbors.len() as u32;
            for &q in &neighbors {
                if q != pid {
                    self.count[q as usize] += 1;
                }
            }

            // Which points crossed the core threshold?
            let first = promoted.len();
            promoted.extend(
                neighbors
                    .iter()
                    .filter(|&&q| !self.core[q as usize] && self.count[q as usize] >= minpts),
            );
            for &c in &promoted[first..] {
                self.core[c as usize] = true;
                self.clusters += 1;
                if self.claim[c as usize] == UNCLAIMED {
                    self.noise -= 1;
                }
            }

            for &c in &promoted[first..] {
                ask(c, &mut list);
                for &q in &list {
                    if q == c {
                        continue;
                    }
                    if self.core[q as usize] {
                        // Points of this batch are never pre-batch cores;
                        // skipping them keeps a first feed's list empty.
                        if q < start {
                            old_adjacent.push(q);
                        }
                        if self.sets.union(c, q) {
                            self.clusters -= 1;
                        }
                    } else if c < self.claim[q as usize] {
                        self.set_claim(q, c);
                    }
                }
            }

            // If the new point is not core, claim it to its minimum core
            // neighbor: the newly-core ones above reached it only if it is
            // in *their* neighborhood (symmetric, so covered), but older
            // cores never re-scan.
            if !self.core[pid as usize] {
                for &q in &neighbors {
                    if q != pid && self.core[q as usize] && q < self.claim[pid as usize] {
                        self.set_claim(pid, q);
                    }
                }
            }
        }

        // born = |roots(B)| − |roots(B) ∩ roots(pre-batch cores next to B)|:
        // a component after the batch holds a pre-batch core iff one of
        // its B members is adjacent to one (it is connected).
        promoted.sort_unstable();
        old_adjacent.retain(|q| promoted.binary_search(q).is_err());
        let old_roots = self.roots(&old_adjacent);
        let born = self
            .roots(&promoted)
            .iter()
            .filter(|r| old_roots.binary_search(r).is_err())
            .count();
        InsertOutcome {
            promoted: promoted.len(),
            born,
            absorbed: clusters_before + born - self.clusters,
        }
    }

    /// Claims non-core `p` for core `by`; a first claim takes `p` out of
    /// noise.
    fn set_claim(&mut self, p: PointId, by: PointId) {
        if self.claim[p as usize] == UNCLAIMED {
            self.noise -= 1;
        }
        self.claim[p as usize] = by;
    }

    /// The distinct roots of `points`, sorted.
    fn roots(&mut self, points: &[PointId]) -> Vec<u32> {
        let mut roots: Vec<u32> = points.iter().map(|&p| self.sets.find(p)).collect();
        roots.sort_unstable();
        roots.dedup();
        roots
    }

    /// Snapshot of the current clustering, labeling points in insertion
    /// order. Cluster ids are densely numbered by first appearance.
    pub fn snapshot(&mut self) -> ClusterResult {
        let n = self.count.len();
        let mut labels = Labels::unclassified(n);
        let mut root_to_cluster: vec::RootMap = vec::RootMap::new(n);
        let mut next: ClusterId = 0;
        for p in 0..n {
            if self.core[p] {
                let root = self.sets.find(p as u32);
                let c = root_to_cluster.get_or_insert(root, || {
                    assert!(next <= MAX_CLUSTER_ID);
                    let c = next;
                    next += 1;
                    c
                });
                labels.assign(p as PointId, c);
            }
        }
        for p in 0..n {
            if self.core[p] {
                continue;
            }
            let claimant = self.claim[p];
            if claimant == UNCLAIMED || !self.core[claimant as usize] {
                labels.mark_noise(p as PointId);
            } else {
                let root = self.sets.find(claimant);
                labels.assign(p as PointId, root_to_cluster.get(root));
            }
        }
        ClusterResult::from_labels(labels)
    }
}

/// Tiny helper: dense root → cluster-id map backed by a vector.
mod vec {
    use super::ClusterId;

    pub struct RootMap {
        map: Vec<u32>,
    }

    impl RootMap {
        pub fn new(n: usize) -> Self {
            Self {
                map: vec![u32::MAX; n],
            }
        }

        pub fn get_or_insert(&mut self, root: u32, make: impl FnOnce() -> ClusterId) -> ClusterId {
            let slot = &mut self.map[root as usize];
            if *slot == u32::MAX {
                *slot = make();
            }
            *slot
        }

        pub fn get(&self, root: u32) -> ClusterId {
            let v = self.map[root as usize];
            debug_assert!(v != u32::MAX, "unmapped root");
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::parallel_dbscan;
    use std::collections::BTreeSet;
    use vbp_geom::Point2;
    use vbp_rtree::traits::shared_points;
    use vbp_rtree::BruteForce;

    const NOISE_RAW: u32 = u32::MAX;

    /// Inserts the next `k` of `points`, answering ε-queries by a scan
    /// over all of them: `insert` drops the ids not inserted yet.
    fn insert_batch(inc: &mut IncrementalDbscan, points: &[Point2], k: usize) -> InsertOutcome {
        let eps = inc.params().eps;
        inc.insert(k, |q, out| {
            let center = points[q as usize];
            out.extend(
                (0..points.len() as PointId).filter(|&c| points[c as usize].within(&center, eps)),
            );
        })
    }

    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut next = xorshift(seed);
        let mut rnd = move || (next() >> 11) as f64 / (1u64 << 53) as f64;
        (0..n)
            .map(|_| Point2::new(rnd() * 12.0, rnd() * 12.0))
            .collect()
    }

    /// Cluster-delta census between two snapshots of an insertion-only
    /// clustering: `(born, absorbed)` such that `clusters_before + born -
    /// absorbed == clusters_after`. The oracle [`InsertOutcome`] is held
    /// to.
    ///
    /// Correspondence is computed over points that were *core before* —
    /// cores never leave their cluster under insertion (components only
    /// merge), while border points may be re-claimed across clusters, which
    /// would double-count a cluster as both surviving and absorbed.
    fn delta_counts(
        before: &[u32],
        core_before: &[bool],
        after: &[u32],
        clusters_after: usize,
    ) -> (usize, usize) {
        let mut sources: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); clusters_after];
        for p in 0..before.len() {
            if core_before[p] && before[p] <= MAX_CLUSTER_ID {
                let a = after[p];
                assert!(a <= MAX_CLUSTER_ID, "a core point cannot become noise");
                sources[a as usize].insert(before[p]);
            }
        }
        let born = sources.iter().filter(|s| s.is_empty()).count();
        let absorbed = sources
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| s.len() - 1)
            .sum();
        (born, absorbed)
    }

    #[test]
    fn delta_counts_replays_the_census() {
        // before: clusters {0} (cores), {1} (cores); after: cluster 0
        // absorbed cluster 1, and a brand-new cluster 1 appeared among
        // previously-noise points.
        let before = vec![0, 0, 1, 1, NOISE_RAW, NOISE_RAW];
        let core_before = vec![true, true, true, true, false, false];
        let after = vec![0, 0, 0, 0, 1, 1];
        let (born, absorbed) = delta_counts(&before, &core_before, &after, 2);
        assert_eq!((born, absorbed), (1, 1));
        // census replay: 2 before + 1 born - 1 absorbed = 2 after
        assert_eq!(2 + born - absorbed, 2);
    }

    #[test]
    fn batch_census_equals_the_snapshot_diff() {
        // Lattice clouds at spacing 0.25: duplicates are common and many
        // pairs sit exactly at every ε drawn, all exact in binary.
        let (mut batches, mut with_born, mut with_absorbed) = (0, 0, 0);
        for seed in 1..=200u64 {
            let mut next = xorshift(seed);
            let side = 3 + next() % 10;
            let n = 20 + (next() % 100) as usize;
            let points: Vec<Point2> = (0..n)
                .map(|_| {
                    let (x, y) = (next() % side, next() % side);
                    Point2::new(x as f64 * 0.25, y as f64 * 0.25)
                })
                .collect();
            let params = DbscanParams::new(0.25 * (1 + next() % 4) as f64, 1 + next() as usize % 6);
            let mut inc = IncrementalDbscan::new(params);
            while inc.len() < n {
                let before: Vec<u32> = inc.snapshot().labels().iter_raw().collect();
                let core_before = inc.core.clone();
                let k = (1 + next() as usize % 20).min(n - inc.len());
                let outcome = insert_batch(&mut inc, &points, k);

                let after = inc.snapshot();
                let raw: Vec<u32> = after.labels().iter_raw().collect();
                let (born, absorbed) =
                    delta_counts(&before, &core_before, &raw, after.num_clusters());
                let promoted = (0..inc.len())
                    .filter(|&p| inc.core[p] && !core_before.get(p).copied().unwrap_or(false))
                    .count();
                let at = format!("seed {seed}, {params:?}, batch ending at {}", inc.len());
                let want = InsertOutcome {
                    promoted,
                    born,
                    absorbed,
                };
                assert_eq!(outcome, want, "{at}");
                assert_eq!(
                    (inc.clusters(), inc.noise()),
                    (after.num_clusters(), after.noise_count()),
                    "{at}"
                );
                batches += 1;
                with_born += usize::from(born > 0);
                with_absorbed += usize::from(absorbed > 0);
            }
            let batch = parallel_dbscan(&BruteForce::new(shared_points(points)), params, 1);
            assert_eq!(inc.snapshot(), batch, "seed {seed}");
        }
        assert!(
            with_born > batches / 10 && with_absorbed > batches / 20,
            "{batches} batches: {with_born} with born, {with_absorbed} with absorbed"
        );
    }

    #[test]
    fn incremental_matches_batch_exactly() {
        // Same insertion order as the batch index ⇒ identical labels
        // (both use minimum-core-id border claims and min-root numbering).
        for seed in [3u64, 5, 7] {
            let points = cloud(250, seed);
            let params = DbscanParams::new(0.8, 4);
            let mut inc = IncrementalDbscan::new(params);
            for _ in &points {
                insert_batch(&mut inc, &points, 1);
            }
            let snapshot = inc.snapshot();
            let batch = parallel_dbscan(&BruteForce::new(shared_points(points.clone())), params, 1);
            assert_eq!(snapshot, batch, "seed {seed}");
        }
    }

    #[test]
    fn intermediate_snapshots_are_valid_clusterings() {
        let points = cloud(120, 11);
        let params = DbscanParams::new(0.9, 4);
        let mut inc = IncrementalDbscan::new(params);
        for i in 0..points.len() {
            insert_batch(&mut inc, &points, 1);
            if i % 25 == 24 {
                let snap = inc.snapshot();
                snap.check_consistency().unwrap();
                assert_eq!(snap.len(), i + 1);
                // Cross-check against batch on the prefix.
                let batch = parallel_dbscan(
                    &BruteForce::new(shared_points(points[..=i].to_vec())),
                    params,
                    1,
                );
                assert_eq!(snap, batch, "prefix {}", i + 1);
            }
        }
    }

    #[test]
    fn insertion_reports_core_transitions() {
        // minpts 3 with ε 1: the third point of a tight triple makes all
        // three core at once.
        let params = DbscanParams::new(1.0, 3);
        let mut inc = IncrementalDbscan::new(params);
        let points = [
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(0.25, 0.4),
        ];
        let a = insert_batch(&mut inc, &points, 1);
        assert_eq!(a.promoted, 0);
        let b = insert_batch(&mut inc, &points, 1);
        assert_eq!(b.promoted, 0);
        assert_eq!((inc.clusters(), inc.noise()), (0, 2));
        let c = insert_batch(&mut inc, &points, 1);
        assert_eq!(
            c,
            InsertOutcome {
                promoted: 3,
                born: 1,
                absorbed: 0
            }
        );
        assert_eq!(inc.core, [true; 3]);
        let snap = inc.snapshot();
        assert_eq!(snap.num_clusters(), 1);
        assert_eq!(snap.noise_count(), 0);
        assert_eq!((inc.clusters(), inc.noise()), (1, 0));
    }

    #[test]
    fn bridge_point_merges_two_clusters() {
        let params = DbscanParams::new(1.1, 3);
        let mut inc = IncrementalDbscan::new(params);
        // Two triangles 2 apart…
        let mut points = Vec::new();
        for dx in [0.0, 3.0] {
            points.push(Point2::new(dx, 0.0));
            points.push(Point2::new(dx + 1.0, 0.0));
            points.push(Point2::new(dx + 0.5, 0.8));
        }
        // …bridged by a midpoint within ε of both.
        points.push(Point2::new(2.0, 0.0));
        insert_batch(&mut inc, &points, 6);
        assert_eq!(inc.snapshot().num_clusters(), 2);
        assert_eq!(inc.clusters(), 2);
        let outcome = insert_batch(&mut inc, &points, 1);
        assert_eq!(outcome.absorbed, 1, "expected a merge, got {outcome:?}");
        assert_eq!(outcome.born, 0);
        assert_eq!(inc.snapshot().num_clusters(), 1);
        assert_eq!(inc.clusters(), 1);
    }

    #[test]
    fn noise_becomes_border_then_core() {
        let params = DbscanParams::new(1.0, 3);
        let mut inc = IncrementalDbscan::new(params);
        let points = [
            Point2::new(0.0, 0.0),
            Point2::new(0.5, 0.0),
            Point2::new(1.0, 0.0),
        ];
        insert_batch(&mut inc, &points, 1); // alone: noise
        assert_eq!(inc.snapshot().noise_count(), 1);
        assert_eq!(inc.noise(), 1);
        insert_batch(&mut inc, &points, 2);
        // Now 0.5 is core (3 neighbors incl. self); 0.0 is border.
        let snap = inc.snapshot();
        assert_eq!(snap.num_clusters(), 1);
        assert!(!snap.labels().is_noise(0));
        assert_eq!((inc.clusters(), inc.noise()), (1, 0));
    }

    #[test]
    fn empty_snapshot() {
        let mut inc = IncrementalDbscan::new(DbscanParams::new(1.0, 2));
        assert!(inc.is_empty());
        assert!(inc.snapshot().is_empty());
        assert_eq!(
            inc.insert(0, |_, _| unreachable!()),
            InsertOutcome {
                promoted: 0,
                born: 0,
                absorbed: 0
            }
        );
        assert_eq!((inc.clusters(), inc.noise()), (0, 0));
    }
}
