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
//!   convention as [`crate::parallel`]) —
//!
//! so a snapshot after inserting points one by one is **identical** to
//! running the batch disjoint-set DBSCAN on the final database (tested).
//!
//! It holds no index and no points: [`IncrementalDbscan::insert`] takes
//! its ε-neighborhoods from the caller, who already has the database
//! indexed (the daemon's `WATCH` streams query the dataset's own `T_low`).

use std::collections::HashSet;

use vbp_geom::PointId;

use crate::algorithm::DbscanParams;
use crate::labels::{ClusterId, Labels, MAX_CLUSTER_ID};
use crate::result::ClusterResult;
use crate::unionfind::DisjointSets;

const UNCLAIMED: u32 = u32::MAX;

/// What an insertion did to the clustering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InsertOutcome {
    /// Id assigned to the inserted point.
    pub id: PointId,
    /// Points (possibly including the new one) that became core.
    pub newly_core: Vec<PointId>,
    /// Number of previously-distinct core components merged by this
    /// insertion (0 = the point joined quietly or is noise/border).
    pub merges: usize,
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

    /// Returns `true` if `p` is currently a core point.
    pub fn is_core(&self, p: PointId) -> bool {
        self.core[p as usize]
    }

    /// Inserts the next point (its id is [`IncrementalDbscan::len`] before
    /// the call) and updates the clustering.
    ///
    /// `neighbors_of(q, out)` must fill `out` (handed over empty) with the
    /// ε-neighborhood of point `q` over the points inserted so far, the
    /// new one included (closed at ε, `q` itself a member, any order). It
    /// is asked once for the new point and once for each point the
    /// insertion makes core.
    pub fn insert(
        &mut self,
        mut neighbors_of: impl FnMut(PointId, &mut Vec<PointId>),
    ) -> InsertOutcome {
        let pid = self.count.len() as PointId;
        self.count.push(0);
        self.core.push(false);
        self.claim.push(UNCLAIMED);
        // DisjointSets has no push; rebuild-free growth by recreating the
        // parent entry: emulate with a fresh structure when capacity
        // lags. Cheaper: keep sets sized to capacity and grow amortized.
        self.grow_sets();

        let mut neighbors: Vec<PointId> = Vec::new();
        neighbors_of(pid, &mut neighbors);
        self.count[pid as usize] = neighbors.len() as u32;
        for &q in &neighbors {
            if q != pid {
                self.count[q as usize] += 1;
            }
        }

        // Which points crossed the core threshold?
        let minpts = self.params.minpts as u32;
        let mut newly_core: Vec<PointId> = neighbors
            .iter()
            .copied()
            .filter(|&q| !self.core[q as usize] && self.count[q as usize] >= minpts)
            .collect();
        newly_core.sort_unstable();

        for &c in &newly_core {
            self.core[c as usize] = true;
        }

        // Gather each newly-core point's neighborhood once; remember
        // which *pre-existing* cores are adjacent so the merge count can
        // be computed exactly as (distinct components among them before
        // unions) − (after unions).
        let is_newly_core = |q: PointId| newly_core.binary_search(&q).is_ok();
        let mut adjacency: Vec<Vec<PointId>> = Vec::with_capacity(newly_core.len());
        let mut old_core_adjacent: Vec<PointId> = Vec::new();
        for &c in &newly_core {
            let mut list = Vec::new();
            neighbors_of(c, &mut list);
            for &q in &list {
                if q != c && self.core[q as usize] && !is_newly_core(q) {
                    old_core_adjacent.push(q);
                }
            }
            adjacency.push(list);
        }
        let components_before: HashSet<u32> = old_core_adjacent
            .iter()
            .map(|&q| self.sets.find(q))
            .collect();

        for (&c, list) in newly_core.iter().zip(&adjacency) {
            for &q in list {
                if q == c {
                    continue;
                }
                if self.core[q as usize] {
                    self.sets.union(c, q);
                } else if c < self.claim[q as usize] {
                    self.claim[q as usize] = c;
                }
            }
        }
        let components_after: HashSet<u32> = old_core_adjacent
            .iter()
            .map(|&q| self.sets.find(q))
            .collect();
        let merges = components_before
            .len()
            .saturating_sub(components_after.len());

        // If the new point is not core, claim it to its minimum core
        // neighbor (existing cores; newly-core ones already claimed it
        // above only if it is in *their* neighborhood — symmetric, so
        // covered — but older cores never re-scan, so do it here).
        if !self.core[pid as usize] {
            for &q in &neighbors {
                if q != pid && self.core[q as usize] && q < self.claim[pid as usize] {
                    self.claim[pid as usize] = q;
                }
            }
        }

        InsertOutcome {
            id: pid,
            newly_core,
            merges,
        }
    }

    fn grow_sets(&mut self) {
        // DisjointSets::new is cheap; grow by rebuilding with identity
        // parents for the tail while copying existing links via find().
        // To avoid O(n) per insert we grow geometrically.
        if self.sets.len() >= self.count.len() {
            return;
        }
        let new_cap = (self.count.len().max(8)).next_power_of_two();
        let mut grown = DisjointSets::new(new_cap);
        for x in 0..self.sets.len() as u32 {
            let root = self.sets.find(x);
            if root != x {
                grown.union(x, root);
            }
        }
        // Re-normalize roots to the minimum element of each component so
        // labeling stays deterministic (union by rank may pick either).
        self.sets = grown;
    }

    /// Snapshot of the current clustering, labeling points in insertion
    /// order. Cluster ids are densely numbered by first appearance.
    pub fn snapshot(&mut self) -> ClusterResult {
        let n = self.count.len();
        let mut labels = Labels::unclassified(n);
        let mut root_to_cluster: vec::RootMap = vec::RootMap::new(self.sets.len());
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
    use vbp_geom::Point2;
    use vbp_rtree::traits::shared_points;
    use vbp_rtree::BruteForce;

    /// Inserts `points[inc.len()]`, answering its ε-queries by a scan
    /// over the inserted prefix.
    fn insert_next(inc: &mut IncrementalDbscan, points: &[Point2]) -> InsertOutcome {
        let prefix = &points[..=inc.len()];
        let eps = inc.params().eps;
        inc.insert(|q, out| {
            let center = prefix[q as usize];
            out.extend(
                (0..prefix.len() as PointId).filter(|&c| prefix[c as usize].within(&center, eps)),
            );
        })
    }

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point2::new(rnd() * 12.0, rnd() * 12.0))
            .collect()
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
                insert_next(&mut inc, &points);
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
            insert_next(&mut inc, &points);
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
        let a = insert_next(&mut inc, &points);
        assert!(a.newly_core.is_empty());
        let b = insert_next(&mut inc, &points);
        assert!(b.newly_core.is_empty());
        let c = insert_next(&mut inc, &points);
        assert_eq!(c.newly_core.len(), 3);
        assert!(inc.is_core(0) && inc.is_core(1) && inc.is_core(2));
        let snap = inc.snapshot();
        assert_eq!(snap.num_clusters(), 1);
        assert_eq!(snap.noise_count(), 0);
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
        for _ in 0..6 {
            insert_next(&mut inc, &points);
        }
        assert_eq!(inc.snapshot().num_clusters(), 2);
        let outcome = insert_next(&mut inc, &points);
        assert!(outcome.merges >= 1, "expected a merge, got {outcome:?}");
        assert_eq!(inc.snapshot().num_clusters(), 1);
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
        insert_next(&mut inc, &points); // alone: noise
        assert_eq!(inc.snapshot().noise_count(), 1);
        insert_next(&mut inc, &points);
        insert_next(&mut inc, &points);
        // Now 0.5 is core (3 neighbors incl. self); 0.0 is border.
        let snap = inc.snapshot();
        assert_eq!(snap.num_clusters(), 1);
        assert!(!snap.labels().is_noise(0));
    }

    #[test]
    fn empty_snapshot() {
        let mut inc = IncrementalDbscan::new(DbscanParams::new(1.0, 2));
        assert!(inc.is_empty());
        assert!(inc.snapshot().is_empty());
    }
}
