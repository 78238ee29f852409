//! DBSCAN — Algorithm 1 of the paper (Ester et al., 1996).
//!
//! The implementation is generic over [`SpatialIndex`], so the identical
//! clustering code runs against the paper's tuned packed R-tree, the
//! high-resolution `r = 1` tree, a uniform grid, or a brute-force scan —
//! which is precisely how the paper's "reference implementation" (T = 1,
//! r = 1) and optimized configurations differ.
//!
//! The core test needs only `|N_ε(p)|`, and the expansion only the
//! neighbours no cluster has claimed yet, so the kernel never materialises
//! a whole neighbourhood: it counts, or counts and selects the unclaimed
//! neighbours ([`SpatialIndex::epsilon_count_keyed_at`]), which the packed
//! R-tree answers on its leaf scan. Every search is centred on an indexed
//! point, so the tree reads the leaves to scan off a per-ε table
//! ([`SpatialIndex::leaf_reach`]) instead of walking from the root.

use vbp_geom::{Point2, PointId};
use vbp_rtree::{LeafReach, Skip, SpatialIndex, COUNT_ONLY};

use crate::labels::{ClusterId, Labels, MAX_CLUSTER_ID, UNCLAIMED};
use crate::result::ClusterResult;

/// The two DBSCAN inputs of §II-A: the search radius ε and the core-point
/// threshold *minpts*.
///
/// As in the original paper, `|N_ε(p)|` counts `p` itself, so
/// `minpts = 4` means "at least 3 other points within ε".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DbscanParams {
    /// Neighborhood radius ε (inclusive).
    pub eps: f64,
    /// Minimum ε-neighborhood size (including the point itself) for a
    /// core point.
    pub minpts: usize,
}

impl DbscanParams {
    /// Creates parameters.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative/non-finite or `minpts == 0`.
    pub fn new(eps: f64, minpts: usize) -> Self {
        assert!(eps >= 0.0 && eps.is_finite(), "ε must be finite and ≥ 0");
        assert!(minpts >= 1, "minpts must be ≥ 1");
        Self { eps, minpts }
    }
}

/// Instrumentation counters exposed so benches and tests can verify *why*
/// a configuration is fast, not just that it is: the paper's whole §IV-A
/// argument is about trading candidate filtering for memory accesses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DbscanStats {
    /// Number of ε-neighborhood searches issued.
    pub neighbor_searches: usize,
    /// Sum over all searches of `min(|N_ε(p)|, minpts)`: the neighbours
    /// each search needed to decide whether `p` is core. A search may stop
    /// counting once it reaches `minpts`, so a larger sum would depend on
    /// the index; this one does not, and a tree, [`vbp_rtree::BruteForce`]
    /// and the trait defaults report the same value.
    pub neighbors_found: usize,
    /// Number of core points discovered.
    pub core_points: usize,
    /// Number of points finally labeled noise.
    pub noise_points: usize,
    /// Number of clusters produced.
    pub clusters: usize,
}

/// Reusable scratch buffers for repeated DBSCAN runs.
///
/// VariantDBSCAN clusters the same database dozens of times; reusing the
/// neighbour and wave buffers removes the dominant allocations from the
/// steady state.
#[derive(Debug, Default)]
pub struct DbscanScratch {
    /// The unclaimed neighbours one ε-scan returned.
    neighbors: Vec<PointId>,
    /// The points whose ε-searches run next, each claimed and marked
    /// visited when it was pushed.
    wave: Vec<PointId>,
    /// The wave the current one's core points push.
    next: Vec<PointId>,
}

impl DbscanScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Runs DBSCAN over every point of `index` with the given parameters.
///
/// ```
/// use vbp_geom::Point2;
/// use vbp_rtree::PackedRTree;
/// use vbp_dbscan::{dbscan, DbscanParams};
///
/// // Two tight pairs far apart, plus an isolated point.
/// let points = vec![
///     Point2::new(0.0, 0.0), Point2::new(0.1, 0.0),
///     Point2::new(9.0, 9.0), Point2::new(9.1, 9.0),
///     Point2::new(50.0, 0.0),
/// ];
/// let (tree, _) = PackedRTree::build(&points, 2);
/// let result = dbscan(&tree, DbscanParams::new(0.5, 2));
/// assert_eq!(result.num_clusters(), 2);
/// assert_eq!(result.noise_count(), 1);
/// ```
pub fn dbscan<I: SpatialIndex + ?Sized>(index: &I, params: DbscanParams) -> ClusterResult {
    dbscan_with_scratch(index, params, &mut DbscanScratch::new()).0
}

/// [`dbscan`] with caller-provided scratch buffers; also returns the
/// instrumentation counters.
///
/// No ε-search materialises a neighbourhood. Each is a
/// [`SpatialIndex::epsilon_count_keyed_at`] reading the
/// [`SpatialIndex::leaf_reach`] table this call builds for ε, if the
/// index builds one. The outer loop, which reaches mostly noise, only
/// counts ([`COUNT_ONLY`]); a point it finds core is scanned once more to
/// collect, and counted as one search. Every wave search is keyed by the
/// labels: it counts the neighbourhood for the core test but returns
/// only the [`UNCLAIMED`] neighbours, the ones an expansion can still
/// claim. A core point's expansion claims each of them where it is found
/// — labels it `c` and, if unvisited, marks it visited and pushes it onto
/// the next wave — so each point enters a wave at most once. Each wave is
/// searched in ascending id order (tree order for a packed tree).
///
/// With a table, the call also keeps per leaf the number of its points
/// still unclaimed, decremented exactly where a point is labelled with a
/// cluster. Every search passes it as a [`Skip`] with `need = minpts`:
/// once its count reaches `minpts` the core test is decided, so a
/// counting search stops there and a keyed one passes over the leaves
/// with nothing left to claim. Counts of noise points stay exact; only
/// [`DbscanStats::neighbors_found`] reads the others, and it sums
/// `min(count, minpts)`.
///
/// The result equals the seed-queue formulation of Algorithm 1 bit for bit:
/// one cluster's expansion assigns only `c`, so the set it searches is the
/// density-reachability closure of `p` whatever the order; and a point is
/// labelled exactly when it is visited, so an unclaimed neighbour is one
/// the seed queue would have pushed.
pub fn dbscan_with_scratch<I: SpatialIndex + ?Sized>(
    index: &I,
    params: DbscanParams,
    scratch: &mut DbscanScratch,
) -> (ClusterResult, DbscanStats) {
    let n = index.len();
    let reach = index.leaf_reach(params.eps);
    let reach = reach.as_ref();
    let mut live = Live::new(reach, n);
    let mut labels = Labels::unclassified(n);
    let mut stats = DbscanStats::default();
    let mut next_cluster: ClusterId = 0;
    // `visited` is the paper's visitedSet: a point enters it exactly when
    // it is queued for its ε-search, so each point is searched once.
    let mut visited = vec![false; n];
    let DbscanScratch {
        neighbors,
        wave,
        next,
    } = scratch;

    for p in 0..n as PointId {
        if visited[p as usize] {
            continue;
        }
        visited[p as usize] = true;

        // Most points this loop reaches are noise, and a noise point's
        // neighbours are mostly unclaimed: count alone, and collect only
        // for the point that starts a cluster.
        let count = index.epsilon_count_keyed_at(
            p,
            params.eps,
            reach,
            live.skip(params.minpts),
            labels.as_raw(),
            COUNT_ONLY,
            neighbors,
        );
        stats.neighbor_searches += 1;
        stats.neighbors_found += count.min(params.minpts);

        if count < params.minpts {
            // Provisional noise; may be relabeled as a border point when a
            // later core point reaches it (Algorithm 1, lines 15–16).
            labels.mark_noise(p);
            continue;
        }

        // p is a core point: start a new cluster and expand it.
        assert!(next_cluster <= MAX_CLUSTER_ID, "cluster id space exhausted");
        let c = next_cluster;
        next_cluster += 1;
        stats.core_points += 1;
        neighbors.clear();
        index.epsilon_count_keyed_at(
            p,
            params.eps,
            reach,
            live.skip(params.minpts),
            labels.as_raw(),
            UNCLAIMED,
            neighbors,
        );
        live.assign(&mut labels, p, c);
        wave.clear();
        claim(neighbors, c, &mut labels, &mut live, &mut visited, wave);

        while !wave.is_empty() {
            wave.sort_unstable();
            stats.neighbor_searches += wave.len();
            next.clear();
            for &q in wave.iter() {
                neighbors.clear();
                let count = index.epsilon_count_keyed_at(
                    q,
                    params.eps,
                    reach,
                    live.skip(params.minpts),
                    labels.as_raw(),
                    UNCLAIMED,
                    neighbors,
                );
                stats.neighbors_found += count.min(params.minpts);
                if count >= params.minpts {
                    stats.core_points += 1;
                    claim(neighbors, c, &mut labels, &mut live, &mut visited, next);
                }
            }
            std::mem::swap(wave, next);
        }
    }

    let result = ClusterResult::from_labels(labels);
    stats.noise_points = result.noise_count();
    stats.clusters = result.num_clusters();
    (result, stats)
}

/// A core point's neighbours join cluster `c`: each still unclaimed one is
/// labelled `c` (a noise point so becomes a border point) and, if not yet
/// visited, marked visited and pushed onto `wave`. `found` was unclaimed
/// when scanned; only the scanning point itself can have been labelled
/// since.
fn claim(
    found: &[PointId],
    c: ClusterId,
    labels: &mut Labels,
    live: &mut Live,
    visited: &mut [bool],
    wave: &mut Vec<PointId>,
) {
    for &q in found {
        if labels.cluster(q).is_none() {
            live.assign(labels, q, c);
        }
        if !visited[q as usize] {
            visited[q as usize] = true;
            wave.push(q);
        }
    }
}

/// Per leaf of the index's [`LeafReach`] table, how many of its points
/// are still [`UNCLAIMED`]: the `live` of the searches' [`Skip`]. Empty
/// without a table, and then the searches skip nothing.
struct Live {
    /// The index's points per leaf.
    r: usize,
    left: Vec<u32>,
}

impl Live {
    /// Every point unclaimed, if there is a table.
    fn new(reach: Option<&LeafReach>, n: usize) -> Self {
        let r = reach.map_or(1, LeafReach::points_per_leaf);
        let left = (0..reach.map_or(0, LeafReach::leaf_count))
            .map(|leaf| (n - leaf * r).min(r) as u32)
            .collect();
        Self { r, left }
    }

    /// Labels the unclaimed point `p` with cluster `c`: the one place a
    /// point stops being unclaimed.
    #[inline]
    fn assign(&mut self, labels: &mut Labels, p: PointId, c: ClusterId) {
        labels.assign(p, c);
        if let Some(left) = self.left.get_mut(p as usize / self.r) {
            *left -= 1;
        }
    }

    /// What a search may skip once its count reaches `minpts`: the core
    /// test is then decided, and a leaf with no unclaimed point holds
    /// nothing it could claim. Without a table, nothing.
    #[inline]
    fn skip(&self, minpts: usize) -> Skip<'_> {
        if self.left.is_empty() {
            Skip::NONE
        } else {
            Skip {
                need: minpts,
                live: &self.left,
            }
        }
    }
}

/// Convenience: cluster raw points with a brute-force index. Intended for
/// tests and tiny inputs; real workloads should build a
/// [`PackedRTree`](vbp_rtree::PackedRTree).
pub fn dbscan_brute_force(points: &[Point2], params: DbscanParams) -> ClusterResult {
    let idx = vbp_rtree::BruteForce::new(points.iter().copied().collect());
    dbscan(&idx, params)
}

/// Core status, the half of the stack's label contract that labels do
/// not carry: `|N_ε(p)| ≥ minpts` for every point of `index`, in the
/// index's id order. [`core_isomorphic`](crate::core_isomorphic) takes
/// it. Over a [`vbp_rtree::BruteForce`] the flags owe nothing to the
/// index a clustering under test searched.
pub fn core_flags(index: &impl SpatialIndex, params: DbscanParams) -> Vec<bool> {
    let mut scratch = Vec::new();
    index
        .points()
        .iter()
        .map(|&p| index.epsilon_count(p, params.eps, &mut scratch) >= params.minpts)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use vbp_rtree::traits::shared_points;
    use vbp_rtree::{BruteForce, PackedRTree};

    fn pts(coords: &[(f64, f64)]) -> Vec<Point2> {
        coords.iter().map(|&(x, y)| Point2::new(x, y)).collect()
    }

    #[test]
    fn two_blobs_and_noise() {
        // Blob A: 4 points around (0,0); Blob B: 4 points around (10,10);
        // one isolated point.
        let points = pts(&[
            (0.0, 0.0),
            (0.5, 0.0),
            (0.0, 0.5),
            (0.5, 0.5),
            (10.0, 10.0),
            (10.5, 10.0),
            (10.0, 10.5),
            (10.5, 10.5),
            (100.0, 100.0),
        ]);
        let r = dbscan_brute_force(&points, DbscanParams::new(1.0, 3));
        assert_eq!(r.num_clusters(), 2);
        assert_eq!(r.noise_count(), 1);
        assert!(r.labels().is_noise(8));
        // Same blob ⇒ same label.
        let a = r.labels().cluster(0).unwrap();
        for p in 1..4 {
            assert_eq!(r.labels().cluster(p), Some(a));
        }
        let b = r.labels().cluster(4).unwrap();
        assert_ne!(a, b);
        for p in 5..8 {
            assert_eq!(r.labels().cluster(p), Some(b));
        }
    }

    #[test]
    fn minpts_one_makes_everything_a_singleton_cluster() {
        let points = pts(&[(0.0, 0.0), (10.0, 0.0), (20.0, 0.0)]);
        let r = dbscan_brute_force(&points, DbscanParams::new(1.0, 1));
        assert_eq!(r.num_clusters(), 3);
        assert_eq!(r.noise_count(), 0);
    }

    #[test]
    fn chain_is_one_cluster_through_density_reachability() {
        // Points spaced 1 apart; ε = 1 links the chain end to end.
        let points: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64, 0.0)).collect();
        let r = dbscan_brute_force(&points, DbscanParams::new(1.0, 2));
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.cluster(0).len(), 20);
    }

    #[test]
    fn border_point_between_two_clusters_goes_to_one_of_them() {
        // Two dense pairs with a shared border point in the middle that is
        // reachable from both but core in neither (minpts 3).
        let points = pts(&[
            (0.0, 0.0),
            (0.4, 0.0),
            (0.8, 0.0), // reachable from left pair
            (1.6, 0.0),
            (2.0, 0.0),
            (1.2, 0.0), // middle border point, reachable from both sides
        ]);
        let r = dbscan_brute_force(&points, DbscanParams::new(0.45, 3));
        // The middle point must be in exactly one cluster, never noise.
        assert!(!r.labels().is_noise(5));
        r.check_consistency().unwrap();
    }

    #[test]
    fn all_noise_when_eps_is_tiny() {
        let points = pts(&[(0.0, 0.0), (5.0, 5.0), (9.0, 1.0)]);
        let r = dbscan_brute_force(&points, DbscanParams::new(0.001, 2));
        assert_eq!(r.num_clusters(), 0);
        assert_eq!(r.noise_count(), 3);
    }

    #[test]
    fn one_megacluster_when_eps_is_huge() {
        let points = pts(&[(0.0, 0.0), (5.0, 5.0), (9.0, 1.0), (2.0, 8.0)]);
        let r = dbscan_brute_force(&points, DbscanParams::new(100.0, 4));
        assert_eq!(r.num_clusters(), 1);
        assert_eq!(r.cluster(0).len(), 4);
    }

    #[test]
    fn empty_database() {
        let r = dbscan_brute_force(&[], DbscanParams::new(1.0, 2));
        assert_eq!(r.len(), 0);
        assert_eq!(r.num_clusters(), 0);
    }

    #[test]
    fn index_choice_preserves_order_independent_structure() {
        // Pseudo-random cloud; compare brute force vs packed tree with
        // several r values. Border points may land in different (adjacent)
        // clusters depending on processing order, but every index must
        // count the same core points, and the labels must meet the label
        // contract (`core_isomorphic`).
        let mut state = 0x1234_5678_9ABC_DEF0u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let points: Vec<Point2> = (0..400)
            .map(|_| Point2::new(rnd() * 20.0, rnd() * 20.0))
            .collect();
        let params = DbscanParams::new(0.9, 4);

        let brute = BruteForce::new(shared_points(points.clone()));
        let base = dbscan(&brute, params);
        let is_core = core_flags(&brute, params);
        assert!(is_core.iter().any(|&c| c) && !is_core.iter().all(|&c| c));

        for r in [1, 8, 64] {
            let (tree, perm) = PackedRTree::build(&points, r);
            let res = dbscan(&tree, params);
            // Map tree-order flags and labels back to original ids.
            let mut mapped_core = vec![false; points.len()];
            let mut mapped = vec![crate::labels::UNCLASSIFIED; points.len()];
            for ((&orig, &core), &label) in perm
                .iter()
                .zip(&core_flags(&tree, params))
                .zip(res.labels().as_raw())
            {
                mapped_core[orig as usize] = core;
                mapped[orig as usize] = label;
            }
            assert_eq!(mapped_core, is_core, "r={r}: core flags");
            crate::core_isomorphic(base.labels().as_raw(), &mapped, &is_core)
                .unwrap_or_else(|e| panic!("r={r}: {e}"));
        }
    }

    #[test]
    fn stats_are_plausible() {
        let points: Vec<Point2> = (0..50).map(|i| Point2::new(i as f64 * 0.1, 0.0)).collect();
        let idx = BruteForce::new(shared_points(points));
        let mut scratch = DbscanScratch::new();
        let (res, stats) = dbscan_with_scratch(&idx, DbscanParams::new(0.15, 2), &mut scratch);
        assert_eq!(stats.neighbor_searches, 50); // every point searched once
        assert_eq!(stats.clusters, res.num_clusters());
        assert_eq!(stats.noise_points, res.noise_count());
        assert!(stats.core_points > 0);
        assert!(stats.neighbors_found >= 50);
    }

    /// The seed-queue formulation of Algorithm 1 that
    /// [`dbscan_with_scratch`] replaced, kept as its oracle: every
    /// ε-search materialises the whole neighbourhood, a core point pushes
    /// every neighbour not both visited and clustered, and each wave's
    /// drain assigns labels before the wave is searched.
    fn seed_queue_dbscan<I: SpatialIndex + ?Sized>(
        index: &I,
        params: DbscanParams,
    ) -> (ClusterResult, DbscanStats) {
        let n = index.len();
        let mut labels = Labels::unclassified(n);
        let mut stats = DbscanStats::default();
        let mut next_cluster: ClusterId = 0;
        let mut visited = vec![false; n];
        let (mut neighbors, mut seeds, mut wave) = (Vec::new(), Vec::new(), Vec::new());
        for p in 0..n as PointId {
            if visited[p as usize] {
                continue;
            }
            visited[p as usize] = true;
            neighbors.clear();
            index.epsilon_neighbors(index.points()[p as usize], params.eps, &mut neighbors);
            stats.neighbor_searches += 1;
            stats.neighbors_found += neighbors.len().min(params.minpts);
            if neighbors.len() < params.minpts {
                labels.mark_noise(p);
                continue;
            }
            let c = next_cluster;
            next_cluster += 1;
            stats.core_points += 1;
            labels.assign(p, c);
            seeds.clear();
            seeds.extend(neighbors.iter().copied().filter(|&q| q != p));
            while !seeds.is_empty() {
                wave.clear();
                for q in seeds.drain(..) {
                    if labels.cluster(q).is_none() {
                        labels.assign(q, c);
                    }
                    if !visited[q as usize] {
                        visited[q as usize] = true;
                        wave.push(q);
                    }
                }
                stats.neighbor_searches += wave.len();
                let (labels, visited, stats) = (&labels, &visited, &mut stats);
                index.epsilon_neighbors_batch(
                    &mut wave,
                    params.eps,
                    &mut neighbors,
                    &mut |_, ns| {
                        stats.neighbors_found += ns.len().min(params.minpts);
                        if ns.len() >= params.minpts {
                            stats.core_points += 1;
                            seeds.extend(ns.iter().copied().filter(|&nb| {
                                !visited[nb as usize] || labels.cluster(nb).is_none()
                            }));
                        }
                    },
                );
            }
        }
        let result = ClusterResult::from_labels(labels);
        stats.noise_points = result.noise_count();
        stats.clusters = result.num_clusters();
        (result, stats)
    }

    /// Points on a lattice of spacing 0.25 (exact in binary), so pair
    /// distances land exactly on the lattice ε values, with duplicates.
    fn lattice_cloud() -> impl Strategy<Value = Vec<Point2>> {
        proptest::collection::vec(
            (0usize..24, 0usize..24)
                .prop_map(|(x, y)| Point2::new(x as f64 * 0.25, y as f64 * 0.25)),
            0..260,
        )
    }

    /// Cases of each proptest here: 64, or 256 under
    /// `VBP_CONFORMANCE_FULL=1` (the `CHECK_FULL=1` path of
    /// `scripts/check.sh`).
    fn cases() -> u32 {
        match std::env::var("VBP_CONFORMANCE_FULL") {
            Ok(v) if v != "0" && !v.is_empty() => 256,
            _ => 64,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        #[test]
        fn fused_waves_equal_the_seed_queue(
            points in lattice_cloud(),
            eps_step in 0usize..6,
            minpts in 1usize..9,
        ) {
            // ε = 0 (duplicates only) and lattice distances, ties included.
            let params = DbscanParams::new(eps_step as f64 * 0.25, minpts);
            let (tree, _) = PackedRTree::build(&points, 7);
            let shared = tree.shared_points();
            let brute = BruteForce::new(shared.clone());
            let indexes: [&dyn SpatialIndex; 4] = [
                &brute,
                &tree,
                &PackedRTree::from_sorted(shared.clone(), 1),
                &PackedRTree::from_sorted_with_fanout(shared, 80, 2),
            ];
            let want = seed_queue_dbscan(&brute, params);
            let mut scratch = DbscanScratch::new();
            for index in indexes {
                let got = dbscan_with_scratch(index, params, &mut scratch);
                prop_assert_eq!(&got, &want);
                prop_assert_eq!(&seed_queue_dbscan(index, params), &want);
            }
        }
    }

    #[test]
    #[should_panic(expected = "minpts")]
    fn zero_minpts_rejected() {
        DbscanParams::new(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "ε")]
    fn negative_eps_rejected() {
        DbscanParams::new(-1.0, 2);
    }
}
