//! Intra-variant parallel DBSCAN — the related-work baseline of §III:
//! one ε pass over contiguous slices of index order, unioning each core
//! edge through the lock-free disjoint-set structure where it is found.
//!
//! VariantDBSCAN parallelizes *across* variants, so a run's makespan is
//! bounded by its largest variant: a single million-point variant cannot
//! use more than one core. The pre-existing alternative (Patwary et al.,
//! SC'12 — "A New Scalable Parallel DBSCAN Algorithm Using the
//! Disjoint-set Data Structure") parallelizes *inside* one clustering;
//! like Wang/Gu/Shun ("Theoretically-Efficient and Practical Parallel
//! DBSCAN") this kernel unions each core-core edge as soon as a query
//! finds it, so there is no partition, halo or merge phase. For a single
//! variant it scales, but it cannot share any work between variants, so
//! on a variant sweep the reuse-based engine wins (`benchmark/` times
//! both: one variant as `scratch_cf`'s `dbscan.sharded_s` /
//! `dbscan.parallel_s`, the sweep as `sweep_sw`).
//!
//! 1. **Slices** — index order (tree order for a packed R-tree, so each
//!    slice is already spatially compact) is cut into `min(shards, n)`
//!    contiguous slices of ⌊n/S⌋ or ⌈n/S⌉ points, drained by a pool of
//!    `threads` workers.
//! 2. **One ε pass** — every point is queried once. A point with at least
//!    `minpts` neighbours stores its core flag, unions with every
//!    neighbour whose flag already reads core, and claims every other
//!    neighbour with an atomic `fetch_min` on `claim[q]` (lowest core id
//!    wins).
//! 3. **Label** — a sequential pass numbers clusters by first appearance
//!    in point order; non-cores join their claimant's cluster and
//!    unclaimed non-cores are noise.
//!
//! Every phase is order-independent: core flags depend only on geometry,
//! the union structure's final partition is interleaving-independent, and
//! a final non-core's claim is the minimum over all its core neighbours.
//! The output is therefore **bit-identical across every shard count and
//! thread count** — pinned by this module's tests and the
//! `sharded_metamorphic` suite — and label-isomorphic to sequential
//! DBSCAN (border points go to their lowest-id adjacent core rather than
//! the first cluster to reach them, which the paper's quality metric
//! treats as equivalent).

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
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
/// `shard_local` phase histogram and `METRICS` counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Slices actually used: `min(shards, n)`.
    pub shards: usize,
    /// Points in each slice, in slice order (⌊n/S⌋ or ⌈n/S⌉ each).
    pub points_per_shard: Vec<usize>,
    /// Wall-clock nanoseconds of each slice's ε pass (queries, core
    /// flags, unions and claims), in slice order.
    pub local_ns: Vec<u64>,
    /// The familiar kernel counters (searches, cores, noise, clusters),
    /// so sharded executions report through the same
    /// [`DbscanStats`] surface as the unsharded paths.
    pub dbscan: DbscanStats,
}

/// Runs disjoint-set DBSCAN over `shards` contiguous slices of index
/// order with a pool of `threads` workers.
///
/// Returns the clustering (bit-identical at any shard/thread count)
/// plus per-slice instrumentation. Datasets larger than [`MAX_POINTS`]
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

    let n_shards = shards.min(n);
    let slice_start = |s: usize| s * n / n_shards;
    let core: Vec<AtomicBool> = (0..n).map(|_| AtomicBool::new(false)).collect();
    let sets = ConcurrentDisjointSets::new(n);
    let claim: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNCLAIMED)).collect();
    let local_ns: Vec<AtomicU64> = (0..n_shards).map(|_| AtomicU64::new(0)).collect();
    let neighbors_found = AtomicUsize::new(0);

    run_tasks(n_shards, threads, |s| {
        let t0 = Instant::now();
        let mut ids: Vec<PointId> = (slice_start(s)..slice_start(s + 1))
            .map(|p| p as PointId)
            .collect();
        let mut scratch: Vec<PointId> = Vec::new();
        let mut found = 0usize;
        index.epsilon_neighbors_batch(&mut ids, params.eps, &mut scratch, &mut |p, neighbors| {
            found += neighbors.len().min(params.minpts);
            if neighbors.len() < params.minpts {
                return;
            }
            // Publish-then-read: of two adjacent cores p and q, each
            // stores its own flag before loading the other's, and SeqCst
            // puts all four accesses in one total order. Whichever store
            // comes second in that order precedes its own load, which
            // comes after the first store — so at least the core that
            // finishes second reads the other as core and unions the
            // edge. A neighbour that reads non-core is claimed instead:
            // a final non-core is claimed by every core neighbour, and a
            // claim on a point that turns out core is ignored by the
            // label pass.
            core[p as usize].store(true, Ordering::SeqCst);
            for &q in neighbors {
                if q == p {
                    continue;
                }
                if core[q as usize].load(Ordering::SeqCst) {
                    sets.union(p, q);
                } else {
                    claim[q as usize].fetch_min(p, Ordering::Relaxed);
                }
            }
        });
        neighbors_found.fetch_add(found, Ordering::Relaxed);
        local_ns[s].store(elapsed_ns(t0), Ordering::Relaxed);
    });

    // Label pass: clusters numbered by first appearance in point order,
    // claimed non-cores join their claimant's cluster, unclaimed
    // non-cores are noise. Joining the workers ordered all their flag,
    // claim and union writes before this pass, so its loads (like the
    // claims, which publish nothing but themselves) can be Relaxed.
    let mut labels = Labels::unclassified(n);
    let mut root_to_cluster: Vec<u32> = vec![NOISE; n];
    let mut next: ClusterId = 0;
    let mut n_core = 0usize;
    for (p, is_core) in core.iter().enumerate() {
        if is_core.load(Ordering::Relaxed) {
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
        if core[p].load(Ordering::Relaxed) {
            continue;
        }
        let claimant = claimed.load(Ordering::Relaxed);
        if claimant == UNCLAIMED {
            labels.mark_noise(p as PointId);
        } else {
            let root = sets.find(claimant) as usize;
            labels.assign(p as PointId, root_to_cluster[root]);
        }
    }

    let dbscan = DbscanStats {
        neighbor_searches: n,
        neighbors_found: neighbors_found.load(Ordering::Relaxed),
        core_points: n_core,
        noise_points: labels.noise_count(),
        clusters: next as usize,
    };
    let stats = ShardStats {
        shards: n_shards,
        points_per_shard: (0..n_shards)
            .map(|s| slice_start(s + 1) - slice_start(s))
            .collect(),
        local_ns: local_ns.iter().map(|a| a.load(Ordering::Relaxed)).collect(),
        dbscan,
    };
    Ok((ClusterResult::from_labels(labels), stats))
}

/// Runs disjoint-set parallel DBSCAN with `threads` worker threads: the
/// [`sharded_dbscan`] kernel at one slice per thread.
///
/// # Panics
///
/// Panics if `threads == 0`, or if the dataset exceeds [`MAX_POINTS`]
/// ([`sharded_dbscan`] returns the same bound as a typed
/// [`CapacityError`] instead).
pub fn parallel_dbscan<I: SpatialIndex + ?Sized>(
    index: &I,
    params: DbscanParams,
    threads: usize,
) -> ClusterResult {
    match sharded_dbscan(index, params, threads, threads) {
        Ok((result, _)) => result,
        Err(e) => panic!("parallel_dbscan: {e}"),
    }
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
    use crate::algorithm::dbscan;
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
                assert_eq!(stats.shards, shards);
                assert_eq!(stats.points_per_shard.iter().sum::<usize>(), 400);
            }
        }
    }

    #[allow(clippy::needless_range_loop)]
    /// Core-structure equivalence with sequential DBSCAN: same clusters
    /// over core points, same noise set.
    fn assert_equivalent(points: &[Point2], params: DbscanParams, threads: usize) {
        let idx = BruteForce::new(shared_points(points.to_vec()));
        let seq = dbscan(&idx, params);
        let par = parallel_dbscan(&idx, params, threads);

        assert_eq!(seq.num_clusters(), par.num_clusters(), "cluster count");
        assert_eq!(seq.noise_count(), par.noise_count(), "noise count");
        let is_core: Vec<bool> = points
            .iter()
            .map(|p| points.iter().filter(|q| p.within(q, params.eps)).count() >= params.minpts)
            .collect();
        for i in 0..points.len() {
            assert_eq!(
                seq.labels().is_noise(i as PointId),
                par.labels().is_noise(i as PointId),
                "noise status of {i}"
            );
        }
        for i in 0..points.len() {
            if !is_core[i] {
                continue;
            }
            for j in (i + 1)..points.len() {
                if is_core[j] {
                    assert_eq!(
                        seq.labels().cluster(i as PointId) == seq.labels().cluster(j as PointId),
                        par.labels().cluster(i as PointId) == par.labels().cluster(j as PointId),
                        "core pair ({i}, {j})"
                    );
                }
            }
        }
    }

    #[test]
    fn equivalent_to_sequential_on_random_clouds() {
        for seed in [1u64, 2, 3] {
            let points = cloud(300, seed);
            for threads in [1usize, 2, 4, 8] {
                assert_equivalent(&points, DbscanParams::new(0.8, 4), threads);
            }
        }
    }

    #[test]
    fn deterministic_across_thread_counts() {
        // Border claims use atomic-min, so the *exact* labeling (not just
        // the partition) is independent of the thread count.
        let points = cloud(400, 17);
        let idx = BruteForce::new(shared_points(points));
        let params = DbscanParams::new(0.7, 5);
        let one = parallel_dbscan(&idx, params, 1);
        for threads in [2usize, 3, 8] {
            let many = parallel_dbscan(&idx, params, threads);
            assert_eq!(one, many, "threads={threads}");
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
        assert_eq!(stats.shards, 4, "{stats:?}");
        // One pass queries every point exactly once.
        assert_eq!(stats.dbscan.neighbor_searches, 600, "{stats:?}");
        assert_eq!(stats.dbscan.clusters, result.num_clusters());
        assert_eq!(stats.dbscan.noise_points, result.noise_count());
    }

    #[test]
    fn slices_balance_point_counts() {
        let points = cloud(1000, 5);
        let idx = BruteForce::new(shared_points(points));
        for shards in [1usize, 3, 4, 7, 1000, 1500] {
            let (_, stats) = sharded_dbscan(&idx, DbscanParams::new(0.5, 4), shards, 2).unwrap();
            assert_eq!(stats.shards, shards.min(1000));
            let (lo, hi) = (1000 / stats.shards, 1000_usize.div_ceil(stats.shards));
            for &c in &stats.points_per_shard {
                assert!(c == lo || c == hi, "{shards}: {:?}", stats.points_per_shard);
            }
            assert_eq!(stats.points_per_shard.iter().sum::<usize>(), 1000);
        }
    }

    #[test]
    fn degenerate_inputs() {
        let idx = BruteForce::new(shared_points([]));
        let (r, stats) = sharded_dbscan(&idx, DbscanParams::new(1.0, 3), 4, 2).unwrap();
        assert!(r.is_empty());
        assert_eq!(stats.shards, 0);

        // ε = 0 over duplicates: still identical to the unsharded kernel.
        let dups: Vec<Point2> = (0..40)
            .map(|i| Point2::new((i % 3) as f64, (i % 2) as f64))
            .collect();
        let idx = BruteForce::new(shared_points(dups));
        let params = DbscanParams::new(0.0, 5);
        let reference = parallel_dbscan(&idx, params, 1);
        let (r, _) = sharded_dbscan(&idx, params, 3, 2).unwrap();
        assert_eq!(r, reference);
    }

    #[test]
    fn all_noise_and_all_one_cluster() {
        let points = cloud(50, 23);
        let idx = BruteForce::new(shared_points(points));
        let strict = parallel_dbscan(&idx, DbscanParams::new(0.001, 3), 4);
        assert_eq!(strict.num_clusters(), 0);
        assert_eq!(strict.noise_count(), 50);
        let loose = parallel_dbscan(&idx, DbscanParams::new(1_000.0, 3), 4);
        assert_eq!(loose.num_clusters(), 1);
        assert_eq!(loose.noise_count(), 0);
    }

    #[test]
    fn more_threads_than_points() {
        let points = cloud(5, 31);
        let idx = BruteForce::new(shared_points(points));
        let r = parallel_dbscan(&idx, DbscanParams::new(0.5, 2), 64);
        r.check_consistency().unwrap();
    }

    #[test]
    fn shard_stats_account_slices() {
        let points = cloud(500, 41);
        let idx = BruteForce::new(shared_points(points));
        let (_, stats) = sharded_dbscan(&idx, DbscanParams::new(0.6, 4), 4, 2).unwrap();
        assert_eq!(stats.local_ns.len(), stats.shards);
        assert!(stats.local_ns.iter().all(|&ns| ns > 0));
    }

    #[test]
    #[should_panic(expected = "shard")]
    fn zero_shards_rejected() {
        let idx = BruteForce::new(shared_points([]));
        let _ = sharded_dbscan(&idx, DbscanParams::new(1.0, 3), 0, 1);
    }

    #[test]
    #[should_panic(expected = "thread")]
    fn zero_threads_rejected() {
        let idx = BruteForce::new(shared_points([]));
        parallel_dbscan(&idx, DbscanParams::new(1.0, 3), 0);
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
