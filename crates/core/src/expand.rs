//! Cluster reuse — Algorithm 3 (VariantDBSCAN) lines 4–18 and Algorithm 4
//! (ExpandCluster).
//!
//! Given a completed variant's clusters and a new variant satisfying the
//! inclusion criteria (`ε` grew, `minpts` shrank — [`Variant::can_reuse`]),
//! every old cluster's membership is still valid, so its points are copied
//! wholesale — **no ε-neighborhood searches on interior points**. Only the
//! frontier needs work:
//!
//! 1. build an MBB around the cluster, inflated by the new ε (line 10);
//! 2. query the high-resolution tree `T_high` for all points inside it
//!    (line 11) — `T_high` has one point per MBB so this harvest does not
//!    over-approximate;
//! 3. the points *outside* the cluster (line 12) get ε-searches against
//!    the tuned tree `T_low` (lines 13–14); any of their neighbors lying
//!    *inside* the cluster form the `expandSet` (line 15) — the boundary
//!    points through which the cluster can grow;
//! 4. ExpandCluster (Algorithm 4) runs the normal DBSCAN expansion seeded
//!    with `expandSet`, absorbing new points; absorbing a point that
//!    belonged to a different old cluster *destroys* that cluster
//!    (it can no longer be copied wholesale);
//! 5. whatever remains unvisited is clustered from scratch (line 18).

use vbp_dbscan::{ClusterId, ClusterResult, Labels, MAX_CLUSTER_ID};
use vbp_geom::{Mbb, PointId};
use vbp_rtree::{PackedRTree, SpatialIndex};

use crate::seeds::{seed_list, ReuseScheme};
use crate::trace::{TraceEvent, WorkerTracer};
use crate::variant::Variant;

/// Instrumentation of one reuse run — the quantities Figures 5–7 of the
/// paper plot (fraction of points reused) plus search counters that
/// explain *why* reuse wins.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReuseStats {
    /// Points copied wholesale from reused clusters.
    pub points_reused: usize,
    /// Old clusters successfully reused (expanded).
    pub clusters_reused: usize,
    /// Old clusters destroyed by absorption into another cluster.
    pub clusters_destroyed: usize,
    /// ε-searches on frontier candidates (Algorithm 3 lines 13–14).
    pub frontier_searches: usize,
    /// ε-searches inside ExpandCluster (Algorithm 4).
    pub expand_searches: usize,
    /// ε-searches in the from-scratch remainder pass (line 18).
    pub remainder_searches: usize,
    /// Database size, for computing the reused fraction.
    pub total_points: usize,
}

impl ReuseStats {
    /// Fraction of the database whose cluster assignment was copied
    /// rather than recomputed — the paper's per-variant reuse metric.
    pub fn fraction_reused(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.points_reused as f64 / self.total_points as f64
        }
    }

    /// Total ε-neighborhood searches performed.
    pub fn total_searches(&self) -> usize {
        self.frontier_searches + self.expand_searches + self.remainder_searches
    }
}

/// Runs VariantDBSCAN's reuse path for one variant.
///
/// `t_low` is the tuned-`r` tree used for ε-neighborhood searches;
/// `t_high` is the `r = 1` tree used for the cluster-MBB harvest. Both
/// must index the same point database in the same order, which must also
/// be the order `previous` was computed over.
///
/// # Panics
///
/// Panics if the trees disagree on size, if `previous` covers a different
/// database size, or (debug) if the inclusion criteria are violated for a
/// reusing scheme.
pub fn cluster_with_reuse(
    t_low: &PackedRTree,
    t_high: &PackedRTree,
    variant: Variant,
    previous: &ClusterResult,
    source_variant: Variant,
    scheme: ReuseScheme,
) -> (ClusterResult, ReuseStats) {
    let mut tracer = WorkerTracer::disabled();
    cluster_with_reuse_traced(
        t_low,
        t_high,
        variant,
        previous,
        source_variant,
        scheme,
        &mut tracer,
        0,
    )
}

/// [`cluster_with_reuse`] with the engine's per-worker tracer threaded
/// through: at [`TraceLevel::Full`](crate::trace::TraceLevel) every
/// frontier ε-query batch and every ExpandCluster wave lands in the ring
/// as a typed event tagged with `variant_idx`. With a disabled tracer the
/// extra cost is one inlined level compare per batch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cluster_with_reuse_traced(
    t_low: &PackedRTree,
    t_high: &PackedRTree,
    variant: Variant,
    previous: &ClusterResult,
    source_variant: Variant,
    scheme: ReuseScheme,
    tracer: &mut WorkerTracer,
    variant_idx: u32,
) -> (ClusterResult, ReuseStats) {
    let n = t_low.len();
    assert_eq!(
        n,
        t_high.len(),
        "T_low and T_high must index the same database"
    );
    assert_eq!(
        n,
        previous.len(),
        "previous result covers a different database"
    );
    debug_assert!(
        !scheme.reuses() || variant.can_reuse(&source_variant),
        "inclusion criteria violated: {variant} cannot reuse {source_variant}"
    );

    let points = t_low.points();
    let eps = variant.eps;
    let minpts = variant.minpts;

    let mut labels = Labels::unclassified(n);
    let mut visited = vec![false; n];
    let mut destroyed = vec![false; previous.num_clusters()];
    let mut stats = ReuseStats {
        total_points: n,
        ..ReuseStats::default()
    };
    let mut next_cluster: ClusterId = 0;

    // Scratch buffers shared across the whole run.
    let mut candidates: Vec<PointId> = Vec::new();
    let mut neighbors: Vec<PointId> = Vec::new();
    let mut queue: Vec<PointId> = Vec::new();
    let mut wave: Vec<PointId> = Vec::new();
    let mut frontier: Vec<PointId> = Vec::new();
    let mut expand_set: Vec<PointId> = Vec::new();
    let mut in_expand = vec![false; n];

    let order = seed_list(scheme, previous, points);
    for &old_c in &order {
        if destroyed[old_c as usize] {
            continue; // Algorithm 3, line 8
        }
        let members = previous.cluster(old_c);
        debug_assert!(!members.is_empty());

        // Line 9: copy the old cluster wholesale and mark it visited.
        assert!(next_cluster <= MAX_CLUSTER_ID, "cluster id space exhausted");
        let c = next_cluster;
        next_cluster += 1;
        let mut cluster_mbb = Mbb::empty();
        for &p in members {
            debug_assert!(
                labels.is_unclassified(p),
                "undestroyed old cluster contains an already-claimed point"
            );
            labels.assign(p, c);
            visited[p as usize] = true;
            cluster_mbb.expand_to(&points[p as usize]);
        }
        stats.points_reused += members.len();
        stats.clusters_reused += 1;

        // Lines 10–12: harvest the inflated cluster MBB with T_high and
        // split candidates into inside (already labeled c) and outside.
        candidates.clear();
        t_high.range_query(&cluster_mbb.inflate(eps), &mut candidates);

        // Lines 13–15: ε-search each outside point; its neighbors inside
        // the cluster are the boundary through which growth can happen.
        // The searches go through the batched entry point, which reorders
        // the frontier into tree order so consecutive probes hit warm
        // leaves. No label changes happen in this loop, so the reordering
        // cannot change the resulting expand set (only its order, which
        // the closure below is insensitive to).
        expand_set.clear();
        frontier.clear();
        frontier.extend(
            candidates
                .iter()
                .copied()
                .filter(|&p| labels.cluster(p) != Some(c)),
        );
        stats.frontier_searches += frontier.len();
        tracer.record_full(TraceEvent::FrontierBatch {
            variant: variant_idx,
            queries: frontier.len().min(u32::MAX as usize) as u32,
        });
        {
            let expand_set = &mut expand_set;
            let in_expand = &mut in_expand;
            let labels = &labels;
            t_low.epsilon_neighbors_batch(&mut frontier, eps, &mut neighbors, &mut |_, ns| {
                for &q in ns {
                    if labels.cluster(q) == Some(c) && !in_expand[q as usize] {
                        in_expand[q as usize] = true;
                        expand_set.push(q);
                    }
                }
            });
        }

        // Line 16: unmark the boundary so ExpandCluster searches it.
        for &q in &expand_set {
            visited[q as usize] = false;
            in_expand[q as usize] = false; // reset for the next seed
        }

        // Line 17 / Algorithm 4: grow the cluster from the boundary.
        queue.clear();
        queue.extend_from_slice(&expand_set);
        expand_wave(
            t_low,
            eps,
            minpts,
            c,
            &mut labels,
            &mut visited,
            previous,
            &mut destroyed,
            &mut queue,
            &mut wave,
            &mut neighbors,
            &mut stats.expand_searches,
            &mut stats.clusters_destroyed,
            tracer,
            variant_idx,
        );
    }

    // Line 18: cluster the remainder with plain DBSCAN, continuing the
    // cluster id sequence and respecting the labels assigned above.
    for p in 0..n as PointId {
        if visited[p as usize] {
            continue;
        }
        visited[p as usize] = true;
        neighbors.clear();
        t_low.epsilon_neighbors(points[p as usize], eps, &mut neighbors);
        stats.remainder_searches += 1;
        if neighbors.len() < minpts {
            if labels.cluster(p).is_none() {
                labels.mark_noise(p);
            }
            continue;
        }
        // p is core. It may already carry a label (border of a reused
        // cluster, later found core in the remainder — then its cluster
        // simply keeps it; we expand under p's existing cluster to stay
        // consistent with density reachability).
        let c = match labels.cluster(p) {
            Some(existing) => existing,
            None => {
                assert!(next_cluster <= MAX_CLUSTER_ID, "cluster id space exhausted");
                let c = next_cluster;
                next_cluster += 1;
                labels.assign(p, c);
                c
            }
        };
        queue.clear();
        queue.extend(neighbors.iter().copied().filter(|&q| q != p));
        expand_wave(
            t_low,
            eps,
            minpts,
            c,
            &mut labels,
            &mut visited,
            previous,
            &mut destroyed,
            &mut queue,
            &mut wave,
            &mut neighbors,
            &mut stats.remainder_searches,
            &mut stats.clusters_destroyed,
            tracer,
            variant_idx,
        );
    }

    // Compact cluster ids: destruction-free runs already have dense ids,
    // but a run that created ids and then absorbed nothing extra still may
    // leave gaps if a reused cluster was fully absorbed later (it cannot —
    // copied points are labeled immediately — so ids stay dense; the
    // compaction below is a cheap safety net for the invariant
    // ClusterResult enforces).
    let result = ClusterResult::from_labels(compact_labels(labels));
    (result, stats)
}

/// Algorithm 4's queue expansion, wave-batched: each round drains the
/// queue — assigning labels (and destroy bookkeeping) exactly as the
/// depth-first formulation's pop did — collects the not-yet-visited points
/// into a wave, and hands the whole wave to
/// [`SpatialIndex::epsilon_neighbors_batch`] so consecutive ε-searches
/// probe warm leaves.
///
/// Order-equivalence: the set of searched points is the
/// density-reachability closure of the seeds over points not visited at
/// loop entry — independent of visit order — and every label written is
/// the same `c`, so final labels, `searches`, and the destroyed-cluster
/// set are identical to the depth-first version (the exact-count unit
/// tests below pin this).
#[allow(clippy::too_many_arguments)]
fn expand_wave(
    t_low: &PackedRTree,
    eps: f64,
    minpts: usize,
    c: ClusterId,
    labels: &mut Labels,
    visited: &mut [bool],
    previous: &ClusterResult,
    destroyed: &mut [bool],
    queue: &mut Vec<PointId>,
    wave: &mut Vec<PointId>,
    neighbors: &mut Vec<PointId>,
    searches: &mut usize,
    clusters_destroyed: &mut usize,
    tracer: &mut WorkerTracer,
    variant_idx: u32,
) {
    while !queue.is_empty() {
        wave.clear();
        for i in queue.drain(..) {
            if labels.cluster(i).is_none() {
                labels.assign(i, c);
                if let Some(old) = previous.labels().cluster(i) {
                    if !destroyed[old as usize] {
                        destroyed[old as usize] = true;
                        *clusters_destroyed += 1;
                    }
                }
            }
            if visited[i as usize] {
                continue;
            }
            visited[i as usize] = true;
            wave.push(i);
        }
        *searches += wave.len();
        tracer.record_full(TraceEvent::ExpandWave {
            variant: variant_idx,
            points: wave.len().min(u32::MAX as usize) as u32,
        });
        let labels = &*labels;
        let visited = &*visited;
        t_low.epsilon_neighbors_batch(wave, eps, neighbors, &mut |_, ns| {
            if ns.len() >= minpts {
                for &nb in ns {
                    if !visited[nb as usize] || labels.cluster(nb).is_none() {
                        queue.push(nb);
                    }
                }
            }
        });
    }
}

/// Renumbers cluster ids to be dense `0..k` while preserving noise, in
/// first-appearance order.
fn compact_labels(labels: Labels) -> Labels {
    let raw = labels.into_raw();
    let mut map: Vec<Option<u32>> = Vec::new();
    let mut next = 0u32;
    let compacted: Vec<u32> = raw
        .iter()
        .map(|&l| {
            if l == vbp_dbscan::NOISE {
                return l;
            }
            debug_assert!(l != vbp_dbscan::UNCLASSIFIED, "unfinished labeling");
            let idx = l as usize;
            if idx >= map.len() {
                map.resize(idx + 1, None);
            }
            *map[idx].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    Labels::from_raw(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_dbscan::{dbscan, quality_score};
    use vbp_geom::Point2;

    /// Builds T_low/T_high over the given points (bin-sorted internally),
    /// returning the trees plus the points in tree order.
    fn trees(points: &[Point2], r: usize) -> (PackedRTree, PackedRTree) {
        let (t_low, _) = PackedRTree::build(points, r);
        let t_high = PackedRTree::from_sorted(t_low.shared_points(), 1);
        (t_low, t_high)
    }

    /// Two 5×5 grids (spacing 0.4) 10 apart, plus a bridge point between
    /// them at distance 0.7 from each grid's edge, plus isolated noise.
    fn playground() -> Vec<Point2> {
        let mut pts = Vec::new();
        for gx in [0.0, 12.0] {
            for i in 0..5 {
                for j in 0..5 {
                    pts.push(Point2::new(gx + i as f64 * 0.4, j as f64 * 0.4));
                }
            }
        }
        pts.push(Point2::new(60.0, 60.0)); // noise at any reasonable ε
        pts
    }

    #[test]
    fn identical_variant_reuse_copies_everything() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        assert_eq!(base.num_clusters(), 2);

        let (reused, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        assert_eq!(reused.num_clusters(), 2);
        assert_eq!(stats.points_reused, 50);
        assert_eq!(stats.clusters_destroyed, 0);
        assert!(stats.fraction_reused() > 0.95);
        let q = quality_score(&base, &reused);
        assert_eq!(q.mean_score, 1.0);
    }

    #[test]
    fn growing_eps_merges_clusters_and_destroys_one() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let small = Variant::new(0.5, 4);
        let base = dbscan(&t_low, small.params());
        assert_eq!(base.num_clusters(), 2);

        // ε large enough to bridge the 10.4 gap between the grids.
        let big = Variant::new(11.0, 4);
        let (reused, stats) =
            cluster_with_reuse(&t_low, &t_high, big, &base, small, ReuseScheme::ClusDefault);
        let direct = dbscan(&t_low, big.params());
        assert_eq!(direct.num_clusters(), 1);
        assert_eq!(reused.num_clusters(), 1);
        assert_eq!(stats.clusters_destroyed, 1);
        assert_eq!(stats.clusters_reused, 1);
        let q = quality_score(&direct, &reused);
        assert!(q.mean_score > 0.999, "score {}", q.mean_score);
    }

    #[test]
    fn lowering_minpts_grows_clusters() {
        // Chain with a sparse tail: at minpts 4 only the dense head
        // clusters; at minpts 2 the tail joins.
        let mut pts: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64 * 0.2, 0.0)).collect();
        pts.extend((0..5).map(|i| Point2::new(4.0 + 0.9 * (i + 1) as f64, 0.0)));
        let (t_low, t_high) = trees(&pts, 4);

        let strict = Variant::new(0.95, 4);
        let loose = Variant::new(0.95, 2);
        let base = dbscan(&t_low, strict.params());
        let (reused, stats) = cluster_with_reuse(
            &t_low,
            &t_high,
            loose,
            &base,
            strict,
            ReuseScheme::ClusDensity,
        );
        let direct = dbscan(&t_low, loose.params());
        assert_eq!(reused.num_clusters(), direct.num_clusters());
        assert_eq!(reused.noise_count(), direct.noise_count());
        assert!(stats.points_reused > 0);
        let q = quality_score(&direct, &reused);
        assert!(q.mean_score > 0.999, "score {}", q.mean_score);
    }

    #[test]
    fn reuse_equals_direct_dbscan_on_random_data() {
        // Deterministic random cloud; multiple (source, target) variant
        // pairs satisfying the inclusion criteria.
        let mut state = 0xDEAD_BEEF_0BAD_F00Du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point2> = (0..600)
            .map(|_| Point2::new(rnd() * 20.0, rnd() * 20.0))
            .collect();
        let (t_low, t_high) = trees(&pts, 16);

        for (src, dst) in [
            ((0.5, 8), (0.5, 4)),
            ((0.5, 8), (0.8, 8)),
            ((0.5, 8), (1.0, 3)),
            ((0.3, 6), (0.31, 6)),
        ] {
            let source = Variant::new(src.0, src.1);
            let target = Variant::new(dst.0, dst.1);
            let base = dbscan(&t_low, source.params());
            for scheme in ReuseScheme::REUSING {
                let (reused, stats) =
                    cluster_with_reuse(&t_low, &t_high, target, &base, source, scheme);
                let direct = dbscan(&t_low, target.params());
                assert_eq!(
                    reused.num_clusters(),
                    direct.num_clusters(),
                    "{source}->{target} {scheme}"
                );
                assert_eq!(
                    reused.noise_count(),
                    direct.noise_count(),
                    "{source}->{target} {scheme}"
                );
                let q = quality_score(&direct, &reused);
                assert!(
                    q.mean_score > 0.99,
                    "{source}->{target} {scheme}: score {}",
                    q.mean_score
                );
                assert!(stats.total_searches() > 0);
                reused.check_consistency().unwrap();
            }
        }
    }

    #[test]
    fn disabled_scheme_reuses_nothing() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        let (result, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::Disabled);
        assert_eq!(stats.points_reused, 0);
        assert_eq!(stats.fraction_reused(), 0.0);
        assert_eq!(result.num_clusters(), base.num_clusters());
        let q = quality_score(&base, &result);
        assert_eq!(q.mean_score, 1.0);
    }

    #[test]
    fn reuse_from_all_noise_source() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        // Source so strict everything is noise.
        let strict = Variant::new(0.01, 10);
        let base = dbscan(&t_low, strict.params());
        assert_eq!(base.num_clusters(), 0);
        // Target clusters normally; nothing to reuse but must be correct.
        let target = Variant::new(0.5, 4);
        let (result, stats) = cluster_with_reuse(
            &t_low,
            &t_high,
            target,
            &base,
            strict,
            ReuseScheme::ClusDensity,
        );
        let direct = dbscan(&t_low, target.params());
        assert_eq!(result.num_clusters(), direct.num_clusters());
        assert_eq!(stats.points_reused, 0);
    }

    #[test]
    fn empty_database() {
        let (t_low, t_high) = trees(&[], 8);
        let v = Variant::new(0.5, 4);
        let base = ClusterResult::empty();
        let (result, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        assert_eq!(result.len(), 0);
        assert_eq!(stats.total_points, 0);
        assert_eq!(stats.fraction_reused(), 0.0);
    }

    #[test]
    fn reuse_saves_searches() {
        // The point of the whole §IV-B machinery: reusing an identical
        // variant must issue far fewer ε-searches than clustering from
        // scratch.
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        let (_, with_reuse) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        let (_, without) = cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::Disabled);
        assert!(
            with_reuse.total_searches() < without.total_searches(),
            "reuse {} vs scratch {}",
            with_reuse.total_searches(),
            without.total_searches()
        );
    }
}
