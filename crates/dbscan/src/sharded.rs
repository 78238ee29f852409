//! Intra-variant sharded DBSCAN: ε-halo'd spatial shards clustered
//! concurrently and merged through the disjoint-set structure.
//!
//! The engine parallelizes *across* variants, so a run's makespan is
//! bounded by its largest variant: a single million-point variant cannot
//! use more than one core. This module supplies the missing axis — the
//! grid-partitioned shard recipe of Wang/Gu/Shun ("Theoretically-Efficient
//! and Practical Parallel DBSCAN") layered over the Patwary et al. SC'12
//! disjoint-set kernel. This is the crate's one disjoint-set kernel:
//! [`parallel_dbscan`](crate::parallel_dbscan) is this function at one
//! shard per thread.
//!
//! 1. **Partition** — points are bucketed into the ε-width grid cells of
//!    `geom::binning` (cell key `(⌊y/ε⌋, ⌊x/ε⌋)`), and the cells are
//!    walked row-major and greedily grouped into `shards` contiguous
//!    stripes of roughly equal point count. A point's ε-ball overlaps at
//!    most the 3×3 cell block around it, so only points in cells on a
//!    stripe boundary — the ε-halo — can have neighbors in another shard.
//! 2. **Local clustering** — each shard task flags its cores and applies
//!    every *intra-shard* core-core union plus every border claim (an
//!    atomic `fetch_min` on `claim[q]`, lowest-core-id wins). Edges
//!    whose endpoints straddle shards are set aside instead of unioned.
//! 3. **Merge** — the deferred cross-shard edges are applied to the same
//!    [`ConcurrentDisjointSets`], stitching halo-straddling clusters
//!    together.
//! 4. **Label** — a sequential pass numbers clusters by first appearance
//!    in point order; claimed non-cores join their claimant's cluster and
//!    everything else is noise.
//!
//! Every phase is order-independent: core flags depend only on geometry,
//! the union structure's final partition is interleaving-independent, and
//! border claims resolve by atomic minimum. The output is therefore
//! **bit-identical across every shard count and thread count** — pinned
//! by this module's tests and the `sharded_metamorphic` suite — and
//! label-isomorphic to sequential DBSCAN (border points go to their
//! lowest-id adjacent core rather than the first cluster to reach them).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vbp_geom::PointId;
use vbp_rtree::SpatialIndex;

use crate::algorithm::{DbscanParams, DbscanStats};
use crate::labels::{ClusterId, Labels, MAX_CLUSTER_ID, NOISE};
use crate::result::ClusterResult;
use crate::unionfind::ConcurrentDisjointSets;

/// Sentinel for "no border claim yet".
const UNCLAIMED: u32 = u32::MAX;

/// Maximum dataset size the claim/point-id machinery supports.
///
/// Point ids and border claims are `u32`, and `u32::MAX` is reserved as
/// the [`UNCLAIMED`] sentinel — a dataset of `u32::MAX` points would give
/// its last point an id that aliases the sentinel (and the sequential
/// label machinery additionally reserves `u32::MAX - 1` for
/// "unclassified"). [`sharded_dbscan`] refuses larger inputs; see
/// [`check_point_id_capacity`].
pub const MAX_POINTS: usize = (u32::MAX - 1) as usize;

/// Verifies `n` points fit the `u32` point-id space without aliasing the
/// claim sentinel. Returns the offending size on failure so callers can
/// surface a typed error.
pub fn check_point_id_capacity(n: usize) -> Result<(), CapacityError> {
    if n > MAX_POINTS {
        Err(CapacityError { points: n })
    } else {
        Ok(())
    }
}

/// A dataset too large for the `u32` point-id/claim machinery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CapacityError {
    /// The rejected dataset size.
    pub points: usize,
}

impl std::fmt::Display for CapacityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "dataset of {} points exceeds the {} supported by u32 point ids \
             (u32::MAX is the unclaimed-border sentinel)",
            self.points, MAX_POINTS
        )
    }
}

impl std::error::Error for CapacityError {}

/// Instrumentation from one sharded execution, consumed by the engine's
/// shard-phase histograms and `METRICS` counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shards actually used (≤ the requested count when the dataset has
    /// fewer populated ε-cells than shards).
    pub shards: usize,
    /// Points owned by each shard, in shard order.
    pub points_per_shard: Vec<usize>,
    /// Points with at least one ε-neighbor owned by another shard — the
    /// occupancy of the ε-halo.
    pub border_points: usize,
    /// Cross-shard core-core unions applied in the merge phase.
    pub cross_unions: u64,
    /// Wall-clock nanoseconds of each shard's local phases (core
    /// flagging + intra-shard unions), in shard order.
    pub local_ns: Vec<u64>,
    /// Wall-clock nanoseconds of the cross-shard merge phase.
    pub merge_ns: u64,
    /// The familiar kernel counters (searches, cores, noise, clusters),
    /// so sharded executions report through the same
    /// [`DbscanStats`] surface as the unsharded paths.
    pub dbscan: DbscanStats,
}

/// Runs sharded DBSCAN: `shards` spatial shards clustered by a pool of
/// `threads` workers, then merged.
///
/// Returns the clustering (bit-identical at any shard/thread count)
/// plus per-phase instrumentation. Datasets larger than [`MAX_POINTS`]
/// are rejected with a typed [`CapacityError`] — point ids must stay
/// below the `u32::MAX` claim sentinel.
///
/// # Panics
///
/// Panics if `threads == 0` or `shards == 0`.
pub fn sharded_dbscan<I: SpatialIndex + ?Sized>(
    index: &I,
    params: DbscanParams,
    shards: usize,
    threads: usize,
) -> Result<(ClusterResult, ShardStats), CapacityError> {
    assert!(threads >= 1, "need at least one thread");
    assert!(shards >= 1, "need at least one shard");
    let n = index.len();
    check_point_id_capacity(n)?;
    if n == 0 {
        return Ok((ClusterResult::empty(), ShardStats::default()));
    }

    let (shard_of, n_shards) = partition(index.points(), params.eps, shards);
    let mut owned: Vec<Vec<PointId>> = vec![Vec::new(); n_shards];
    for (p, &s) in shard_of.iter().enumerate() {
        owned[s as usize].push(p as PointId);
    }

    let core: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let sets = ConcurrentDisjointSets::new(n);
    let claim: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLAIMED)).collect();
    let local_ns: Vec<AtomicU64> = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
    let border_points = AtomicUsize::new(0);
    let searches = AtomicUsize::new(0);
    let neighbors_found = AtomicUsize::new(0);
    let cross: Vec<Mutex<Vec<(u32, u32)>>> =
        (0..n_shards).map(|_| Mutex::new(Vec::new())).collect();

    // Local phase A: core flags + halo census, one task per shard. The
    // batched query walks each shard's points in tree order, so
    // consecutive queries probe warm index leaves.
    run_tasks(n_shards, threads, |s| {
        let t0 = Instant::now();
        let mut ids = owned[s].clone();
        let mut scratch: Vec<PointId> = Vec::new();
        let mut border = 0usize;
        let mut found = 0usize;
        searches.fetch_add(ids.len(), Ordering::Relaxed);
        index.epsilon_neighbors_batch(&mut ids, params.eps, &mut scratch, &mut |p, neighbors| {
            found += neighbors.len();
            if neighbors.len() >= params.minpts {
                core[p as usize].store(true, Ordering::Release);
            }
            if neighbors.iter().any(|&q| shard_of[q as usize] != s as u32) {
                border += 1;
            }
        });
        border_points.fetch_add(border, Ordering::Relaxed);
        neighbors_found.fetch_add(found, Ordering::Relaxed);
        local_ns[s].fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    });

    // Local phase B: intra-shard unions and border claims; cross-shard
    // core-core edges are deferred to the merge phase. The one-direction
    // `q > p` rule dedups each edge globally because every point is owned
    // by exactly one shard.
    run_tasks(n_shards, threads, |s| {
        let t0 = Instant::now();
        let mut ids: Vec<PointId> = owned[s]
            .iter()
            .copied()
            .filter(|&p| core[p as usize].load(Ordering::Acquire))
            .collect();
        let mut scratch: Vec<PointId> = Vec::new();
        let mut deferred: Vec<(u32, u32)> = Vec::new();
        let mut found = 0usize;
        searches.fetch_add(ids.len(), Ordering::Relaxed);
        index.epsilon_neighbors_batch(&mut ids, params.eps, &mut scratch, &mut |p, neighbors| {
            found += neighbors.len();
            for &q in neighbors {
                if q == p {
                    continue;
                }
                if core[q as usize].load(Ordering::Acquire) {
                    if q > p {
                        if shard_of[q as usize] == s as u32 {
                            sets.union(p, q);
                        } else {
                            deferred.push((p, q));
                        }
                    }
                } else {
                    // Deterministic border claim: smallest core id wins,
                    // regardless of shard or interleaving.
                    claim[q as usize].fetch_min(p, Ordering::AcqRel);
                }
            }
        });
        *cross[s].lock().expect("cross-edge mutex poisoned") = deferred;
        neighbors_found.fetch_add(found, Ordering::Relaxed);
        local_ns[s].fetch_add(elapsed_ns(t0), Ordering::Relaxed);
    });

    // Merge phase: stitch halo-straddling components. Union order is
    // irrelevant to the final partition, so a simple sequential drain is
    // both correct and cheap (the edge count is O(halo), not O(n)).
    let t0 = Instant::now();
    let mut cross_unions = 0u64;
    for edges in &cross {
        for &(p, q) in edges.lock().expect("cross-edge mutex poisoned").iter() {
            sets.union(p, q);
            cross_unions += 1;
        }
    }
    let merge_ns = elapsed_ns(t0);

    // Label pass: clusters numbered by first appearance in point order,
    // claimed non-cores join their claimant's cluster, unclaimed
    // non-cores are noise.
    let mut labels = Labels::unclassified(n);
    let mut root_to_cluster: Vec<u32> = vec![NOISE; n];
    let mut next: ClusterId = 0;
    let mut n_core = 0usize;
    for (p, is_core) in core.iter().enumerate() {
        if is_core.load(Ordering::Acquire) {
            n_core += 1;
            let root = sets.find(p as u32) as usize;
            if root_to_cluster[root] == NOISE {
                assert!(next <= MAX_CLUSTER_ID, "cluster id space exhausted");
                root_to_cluster[root] = next;
                next += 1;
            }
            labels.assign(p as PointId, root_to_cluster[root]);
        }
    }
    for (p, claimed) in claim.iter().enumerate() {
        if core[p].load(Ordering::Acquire) {
            continue;
        }
        let claimant = claimed.load(Ordering::Acquire);
        if claimant == UNCLAIMED {
            labels.mark_noise(p as PointId);
        } else {
            let root = sets.find(claimant) as usize;
            labels.assign(p as PointId, root_to_cluster[root]);
        }
    }

    let dbscan = DbscanStats {
        neighbor_searches: searches.load(Ordering::Relaxed),
        neighbors_found: neighbors_found.load(Ordering::Relaxed),
        core_points: n_core,
        noise_points: labels.noise_count(),
        clusters: next as usize,
    };
    let stats = ShardStats {
        shards: n_shards,
        points_per_shard: owned.iter().map(Vec::len).collect(),
        border_points: border_points.load(Ordering::Relaxed),
        cross_unions,
        local_ns: local_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        merge_ns,
        dbscan,
    };
    Ok((ClusterResult::from_labels(labels), stats))
}

/// Buckets points into ε-width grid cells and groups the cells, walked
/// row-major, into at most `shards` contiguous stripes of roughly equal
/// point count. Returns each point's stripe and the stripe count.
///
/// Degenerate widths (ε = 0) fall back to unit cells; datasets with
/// fewer populated cells than requested shards simply produce fewer
/// stripes.
fn partition(points: &[vbp_geom::Point2], eps: f64, shards: usize) -> (Vec<u32>, usize) {
    let n = points.len();
    let w = if eps > 0.0 && eps.is_finite() {
        eps
    } else {
        1.0
    };
    if shards <= 1 {
        return (vec![0; n], 1);
    }

    let cell_of = |i: usize| -> (i64, i64) {
        let p = &points[i];
        ((p.y / w).floor() as i64, (p.x / w).floor() as i64)
    };
    let mut counts: HashMap<(i64, i64), usize> = HashMap::new();
    for i in 0..n {
        *counts.entry(cell_of(i)).or_insert(0) += 1;
    }
    let mut cells: Vec<((i64, i64), usize)> = counts.into_iter().collect();
    cells.sort_unstable_by_key(|&(key, _)| key);

    // Greedy prefix partition: advance to the next stripe once the
    // cumulative count reaches this stripe's share of n. Deterministic in
    // the cell order alone.
    let mut cell_shard: HashMap<(i64, i64), u32> = HashMap::with_capacity(cells.len());
    let mut acc = 0usize;
    let mut s = 0usize;
    for (key, c) in cells {
        if s + 1 < shards && acc * shards >= n * (s + 1) {
            s += 1;
        }
        cell_shard.insert(key, s as u32);
        acc += c;
    }
    let n_shards = s + 1;
    let shard_of: Vec<u32> = (0..n).map(|i| cell_shard[&cell_of(i)]).collect();
    (shard_of, n_shards)
}

/// Monotonic elapsed nanoseconds, saturating.
fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Work-stealing-free task pool: `threads` scoped workers drain the task
/// indices `0..tasks` off a shared atomic counter.
fn run_tasks(tasks: usize, threads: usize, work: impl Fn(usize) + Sync) {
    let workers = threads.min(tasks).max(1);
    if workers == 1 {
        for t in 0..tasks {
            work(t);
        }
        return;
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|sc| {
        for _ in 0..workers {
            let next = &next;
            let work = &work;
            sc.spawn(move || loop {
                let t = next.fetch_add(1, Ordering::Relaxed);
                if t >= tasks {
                    break;
                }
                work(t);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::parallel_dbscan;
    use vbp_geom::Point2;
    use vbp_rtree::traits::shared_points;
    use vbp_rtree::{BruteForce, PackedRTree};

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| Point2::new(rnd() * 15.0, rnd() * 15.0))
            .collect()
    }

    #[test]
    fn identical_to_unsharded_kernel_across_shards_and_threads() {
        let points = cloud(400, 11);
        let idx = BruteForce::new(shared_points(points));
        let params = DbscanParams::new(0.8, 4);
        let reference = parallel_dbscan(&idx, params, 1);
        for shards in [1usize, 2, 4, 7] {
            for threads in [1usize, 2, 8] {
                let (result, stats) = sharded_dbscan(&idx, params, shards, threads).unwrap();
                assert_eq!(result, reference, "shards={shards} threads={threads}");
                assert!(stats.shards >= 1 && stats.shards <= shards);
                assert_eq!(stats.points_per_shard.iter().sum::<usize>(), 400);
            }
        }
    }

    #[test]
    fn works_with_packed_tree_index() {
        let points = cloud(600, 29);
        let (tree, _) = PackedRTree::build(&points, 32);
        let params = DbscanParams::new(0.7, 5);
        let reference = parallel_dbscan(&tree, params, 2);
        let (result, stats) = sharded_dbscan(&tree, params, 4, 2).unwrap();
        assert_eq!(result, reference);
        result.check_consistency().unwrap();
        // A 15×15 extent at ε = 0.7 splits into multiple stripes, and a
        // random cloud's clusters straddle them.
        assert!(stats.shards > 1, "{stats:?}");
        assert!(stats.border_points > 0, "{stats:?}");
        // Phase A queries every point once, phase B every core once.
        assert!(stats.dbscan.neighbor_searches >= 600, "{stats:?}");
        assert_eq!(stats.dbscan.clusters, result.num_clusters());
        assert_eq!(stats.dbscan.noise_points, result.noise_count());
    }

    #[test]
    fn stripes_balance_point_counts() {
        let points = cloud(1000, 5);
        let idx = BruteForce::new(shared_points(points));
        let (_, stats) = sharded_dbscan(&idx, DbscanParams::new(0.5, 4), 4, 2).unwrap();
        assert_eq!(stats.shards, 4);
        for &c in &stats.points_per_shard {
            // Cell granularity skews stripe sizes, but no stripe may
            // dwarf the others (perfect balance would be 250 each).
            assert!(c > 60 && c < 500, "{:?}", stats.points_per_shard);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let idx = BruteForce::new(shared_points([]));
        let (r, stats) = sharded_dbscan(&idx, DbscanParams::new(1.0, 3), 4, 2).unwrap();
        assert!(r.is_empty());
        assert_eq!(stats.shards, 0);

        // ε = 0 over duplicates: unit-cell fallback, still identical to
        // the unsharded kernel.
        let dups: Vec<Point2> = (0..40)
            .map(|i| Point2::new((i % 3) as f64, (i % 2) as f64))
            .collect();
        let idx = BruteForce::new(shared_points(dups));
        let params = DbscanParams::new(0.0, 5);
        let reference = parallel_dbscan(&idx, params, 1);
        let (r, _) = sharded_dbscan(&idx, params, 3, 2).unwrap();
        assert_eq!(r, reference);

        // One populated cell: the stripe count collapses to 1.
        let blob: Vec<Point2> = (0..50).map(|_| Point2::new(0.25, 0.25)).collect();
        let idx = BruteForce::new(shared_points(blob));
        let (_, stats) = sharded_dbscan(&idx, DbscanParams::new(5.0, 3), 8, 2).unwrap();
        assert_eq!(stats.shards, 1);
    }

    #[test]
    fn shard_stats_account_phases() {
        let points = cloud(500, 41);
        let idx = BruteForce::new(shared_points(points));
        let (_, stats) = sharded_dbscan(&idx, DbscanParams::new(0.6, 4), 4, 2).unwrap();
        assert_eq!(stats.local_ns.len(), stats.shards);
        assert!(stats.local_ns.iter().all(|&ns| ns > 0));
        // Merge work happened iff cross-shard edges existed.
        if stats.cross_unions > 0 {
            assert!(stats.border_points > 0);
        }
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn zero_shards_rejected() {
        let idx = BruteForce::new(shared_points([]));
        let _ = sharded_dbscan(&idx, DbscanParams::new(1.0, 3), 0, 1);
    }

    #[test]
    fn point_id_capacity_bound_is_pinned() {
        // The bound itself: ids must stay strictly below the u32::MAX
        // claim sentinel, so u32::MAX - 1 points (ids 0..=u32::MAX - 2)
        // is the largest legal dataset. (Allocating 4 G points to hit the
        // panic for real is not practical; the check function carries the
        // contract and `sharded_dbscan` routes through it.)
        assert_eq!(MAX_POINTS, u32::MAX as usize - 1);
        assert_eq!(check_point_id_capacity(0), Ok(()));
        assert_eq!(check_point_id_capacity(MAX_POINTS), Ok(()));
        let err = check_point_id_capacity(MAX_POINTS + 1).unwrap_err();
        assert_eq!(err.points, u32::MAX as usize);
        let msg = err.to_string();
        assert!(msg.contains("u32"), "{msg}");
        assert!(msg.contains("sentinel"), "{msg}");
        assert!(check_point_id_capacity(usize::MAX).is_err());
    }
}
