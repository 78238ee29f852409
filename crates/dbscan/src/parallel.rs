//! Intra-variant parallel DBSCAN — the related-work baseline of §III.
//!
//! VariantDBSCAN parallelizes *across* variants; the pre-existing
//! alternative (Patwary et al., SC'12 — "A New Scalable Parallel DBSCAN
//! Algorithm Using the Disjoint-set Data Structure") parallelizes *inside*
//! one clustering. Implementing it makes the comparison the paper argues
//! from concrete: for a single variant the disjoint-set algorithm
//! scales, but it cannot share any work between variants, so on a variant
//! sweep the reuse-based engine wins (`benchmark/` times both: one variant
//! as `scratch_cf`'s `dbscan.parallel_s`, the sweep as `sweep_sw`).
//!
//! The algorithm — a core pass, a union pass over a lock-free disjoint-set
//! structure with atomic-min border claims, and a label pass — is the
//! kernel in [`crate::sharded`]; this entry point runs it at one spatial
//! shard per thread.
//!
//! The result is DBSCAN-equivalent: identical core components and noise
//! set; border points deterministically assigned to the *lowest-id*
//! adjacent core (sequential DBSCAN assigns them to whichever cluster
//! reaches them first, which the paper's quality metric treats as
//! equivalent).

use vbp_rtree::SpatialIndex;

use crate::algorithm::DbscanParams;
use crate::result::ClusterResult;
use crate::sharded::sharded_dbscan;

/// Runs disjoint-set parallel DBSCAN with `threads` worker threads: the
/// [`sharded_dbscan`] kernel at one spatial shard per thread.
///
/// # Panics
///
/// Panics if `threads == 0`, or if the dataset exceeds
/// [`MAX_POINTS`](crate::MAX_POINTS) (point ids must stay below the
/// `u32::MAX` claim sentinel; [`sharded_dbscan`] returns the same bound as
/// a typed [`CapacityError`](crate::CapacityError) instead).
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::dbscan;
    use vbp_geom::{Point2, PointId};
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
    fn works_with_packed_tree_index() {
        let points = cloud(500, 9);
        let (tree, _) = PackedRTree::build(&points, 32);
        let params = DbscanParams::new(0.8, 4);
        let par = parallel_dbscan(&tree, params, 4);
        let seq = dbscan(&tree, params);
        assert_eq!(par.num_clusters(), seq.num_clusters());
        assert_eq!(par.noise_count(), seq.noise_count());
        par.check_consistency().unwrap();
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
    fn empty_database() {
        let idx = BruteForce::new(shared_points([]));
        let r = parallel_dbscan(&idx, DbscanParams::new(1.0, 3), 4);
        assert!(r.is_empty());
    }

    #[test]
    fn more_threads_than_points() {
        let points = cloud(5, 31);
        let idx = BruteForce::new(shared_points(points));
        let r = parallel_dbscan(&idx, DbscanParams::new(0.5, 2), 64);
        r.check_consistency().unwrap();
    }

    #[test]
    #[should_panic(expected = "thread")]
    fn zero_threads_rejected() {
        let idx = BruteForce::new(shared_points([]));
        parallel_dbscan(&idx, DbscanParams::new(1.0, 3), 0);
    }
}
