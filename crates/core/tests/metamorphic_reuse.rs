//! Metamorphic reuse-equivalence suite.
//!
//! The metamorphic relation under test: for **every** valid reuse pair
//! `(source, target)` of a random variant grid — not just one constructed
//! pair — the Algorithm 3/4 reuse path (including its batched frontier
//! queries) must produce results *label-isomorphic* to clustering the
//! target from scratch, under all three seed-selection schemes.
//!
//! Label isomorphism is checked structurally, with no tolerance:
//!
//! 1. the noise sets are identical (noise status is order-independent);
//! 2. the cluster counts are identical;
//! 3. the map `direct cluster → reused cluster` restricted to *core*
//!    points (whose assignment is order-independent, unlike border
//!    points) is a well-defined bijection — core status is established by
//!    brute-force neighbor counting, independent of every index backend.
//!
//! Budget: case count scales 4× under `VBP_CONFORMANCE_FULL=1` (the
//! `CHECK_FULL=1` path of `scripts/check.sh`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;
use variantdbscan::{
    cluster_with_reuse, Engine, EngineConfig, ExecutionPath, ReuseScheme, RunRequest, Variant,
    VariantSet, WarmSource,
};
use vbp_dbscan::{dbscan, ClusterId, ClusterResult, Labels};
use vbp_geom::{Point2, PointId};
use vbp_rtree::PackedRTree;

fn cases() -> u32 {
    match std::env::var("VBP_CONFORMANCE_FULL") {
        Ok(v) if v != "0" && !v.is_empty() => 48,
        _ => 12,
    }
}

/// Clustered cloud: a few blob centers plus background noise, so every
/// variant finds real structure.
fn arb_cloud() -> impl Strategy<Value = Vec<Point2>> {
    (
        proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 2..6),
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..6), 40..220),
    )
        .prop_map(|(centers, raw)| {
            raw.into_iter()
                .map(|(dx, dy, which)| {
                    if which < centers.len() {
                        let (cx, cy) = centers[which];
                        Point2::new(cx + dx, cy + dy)
                    } else {
                        Point2::new(dx * 10.0, dy * 10.0)
                    }
                })
                .collect()
        })
}

/// Core points of `(eps, minpts)` by brute force — the oracle no index
/// backend can bias.
fn brute_core_points(points: &[Point2], eps: f64, minpts: usize) -> Vec<PointId> {
    let eps_sq = eps * eps;
    (0..points.len())
        .filter(|&i| {
            points
                .iter()
                .filter(|q| points[i].dist_sq(q) <= eps_sq)
                .count()
                >= minpts
        })
        .map(|i| i as PointId)
        .collect()
}

/// Checks the three-part label-isomorphism relation between a from-scratch
/// clustering and a reuse-path clustering of the same variant.
fn check_isomorphic(
    direct: &ClusterResult,
    reused: &ClusterResult,
    n: usize,
    cores: &[PointId],
    ctx: &str,
) -> Result<(), TestCaseError> {
    for p in 0..n as PointId {
        prop_assert_eq!(
            direct.labels().is_noise(p),
            reused.labels().is_noise(p),
            "{ctx}: noise status of point {} differs",
            p
        );
    }
    prop_assert_eq!(
        direct.num_clusters(),
        reused.num_clusters(),
        "{ctx}: cluster counts differ"
    );

    // Core points belong to exactly one cluster regardless of expansion
    // order, so the induced cluster map must be a bijection.
    let mut forward: HashMap<ClusterId, ClusterId> = HashMap::new();
    let mut images: HashSet<ClusterId> = HashSet::new();
    for &p in cores {
        let a = direct.labels().cluster(p);
        let b = reused.labels().cluster(p);
        prop_assert!(
            a.is_some() && b.is_some(),
            "{ctx}: core point {} left unclustered (direct {:?}, reused {:?})",
            p,
            a,
            b
        );
        let (a, b) = (a.unwrap(), b.unwrap());
        match forward.get(&a) {
            Some(&mapped) => prop_assert_eq!(
                mapped,
                b,
                "{ctx}: direct cluster {} split across reused clusters at core {}",
                a,
                p
            ),
            None => {
                prop_assert!(
                    images.insert(b),
                    "{ctx}: two direct clusters merged into reused cluster {} at core {}",
                    b,
                    p
                );
                forward.insert(a, b);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn every_valid_reuse_pair_is_label_isomorphic_to_from_scratch(
        points in arb_cloud(),
        eps in proptest::collection::vec(0.15f64..1.0, 2..4),
        minpts in proptest::collection::vec(2usize..8, 2..4),
        scheme_idx in 0usize..3,
    ) {
        let scheme = ReuseScheme::REUSING[scheme_idx];
        let variants = VariantSet::cartesian(&eps, &minpts);
        let (t_low, _) = PackedRTree::build(&points, 16);
        let t_high = PackedRTree::from_sorted(t_low.shared_points(), 1);
        // Index order == caller order for from_sorted trees built off
        // t_low's shared points, so labels are comparable point-for-point.
        let pts = t_low.shared_points();

        let direct: Vec<ClusterResult> =
            variants.iter().map(|v| dbscan(&t_low, v.params())).collect();
        let cores: Vec<Vec<PointId>> = variants
            .iter()
            .map(|v| brute_core_points(&pts, v.eps, v.minpts))
            .collect();

        let mut pairs = 0usize;
        for (si, src) in variants.iter().enumerate() {
            for (ti, dst) in variants.iter().enumerate() {
                if si == ti || !dst.can_reuse(&src) {
                    continue;
                }
                pairs += 1;
                let (reused, stats) =
                    cluster_with_reuse(&t_low, &t_high, dst, &direct[si], src, scheme);
                prop_assert!(reused.check_consistency().is_ok());
                prop_assert!(stats.fraction_reused() <= 1.0);
                let ctx = format!("{scheme:?}: reuse {src} -> {dst}");
                check_isomorphic(&direct[ti], &reused, pts.len(), &cores[ti], &ctx)?;
            }
        }
        // A cartesian grid with ≥ 2 distinct ε columns always contains a
        // valid pair; deterministic seeding makes this assert stable.
        prop_assert!(pairs >= 1, "grid {:?}/{:?} produced no valid reuse pair", eps, minpts);
    }

    /// The engine shares each point's `|N_ε(p)|` among the variants of one
    /// ε; that must be invisible in the labels. A `T = 1` run over a grid
    /// with at least three minpts per ε equals, bit for bit, a replay of
    /// each (source, target) pair it chose through `cluster_with_reuse`,
    /// which counts afresh on every call — and never searches more.
    #[test]
    fn shared_neighbour_counts_equal_a_per_pair_replay(
        points in arb_cloud(),
        eps_steps in proptest::collection::vec(0.05f64..0.4, 1..4),
        minpts_steps in proptest::collection::vec(1usize..4, 3..6),
        scheme_idx in 0usize..3,
    ) {
        let scheme = ReuseScheme::REUSING[scheme_idx];
        // Running sums keep the ε and minpts values distinct, so a reuse
        // source names exactly one variant of the grid.
        let eps: Vec<f64> = eps_steps.iter().scan(0.1, |e, s| { *e += s; Some(*e) }).collect();
        let minpts: Vec<usize> = minpts_steps.iter().scan(1, |m, s| { *m += s; Some(*m) }).collect();
        let variants = VariantSet::cartesian(&eps, &minpts);
        let engine = Engine::new(
            EngineConfig::default().with_threads(1).with_r(16).with_reuse(scheme),
        );
        let prepared = engine.prepare(&points, None).unwrap();
        let report = engine.execute(&RunRequest::prepared(&prepared, &variants)).unwrap();

        let mut replayed = 0usize;
        for o in &report.outcomes {
            let ExecutionPath::Reused { source, stats } = o.path else { continue };
            let si = variants.iter().position(|v| v == source).unwrap();
            let (replay, replay_stats) = cluster_with_reuse(
                prepared.t_low(),
                prepared.t_high(),
                o.variant,
                &report.results[si],
                source,
                scheme,
            );
            let ctx = format!("{scheme:?}: {source} -> {}", o.variant);
            prop_assert_eq!(&replay, &*report.results[o.index], "{}: labels differ from the replay", ctx);
            prop_assert_eq!(
                (stats.points_reused, stats.clusters_reused, stats.clusters_destroyed),
                (replay_stats.points_reused, replay_stats.clusters_reused, replay_stats.clusters_destroyed),
                "{}", ctx
            );
            prop_assert!(
                stats.total_searches() <= replay_stats.total_searches(),
                "{}: run searched {} > replay {}", ctx, stats.total_searches(), replay_stats.total_searches()
            );
            replayed += 1;
        }
        // T = 1 clusters one variant per ε family from scratch at most;
        // the other minpts values of that ε reuse.
        prop_assert!(replayed >= variants.len() - eps.len(), "only {} pairs replayed", replayed);
    }

    /// The cross-run (cache-seeded) warm-start path: results of one run,
    /// selected by the service cache's dominance rule, seed a later run
    /// over the same prepared index. Every variant answered through a
    /// warm source must stay label-isomorphic to its own from-scratch
    /// clustering — the cache must be invisible in the labels.
    #[test]
    fn cache_seeded_warm_start_is_label_isomorphic_to_from_scratch(
        points in arb_cloud(),
        eps in proptest::collection::vec(0.15f64..1.0, 2..4),
        minpts in proptest::collection::vec(2usize..8, 2..4),
    ) {
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));
        let variants = VariantSet::cartesian(&eps, &minpts);
        let prepared = engine.prepare(&points, None).unwrap();

        // "Earlier run" whose results populate the cache.
        let donor = engine.execute(&RunRequest::prepared(&prepared, &variants)).unwrap();

        for (i, v) in variants.iter().enumerate() {
            // The dominance cache's lookup rule: among donor entries v
            // can reuse, seed with the nearest by parameter distance.
            let (er, mr) = (variants.eps_range(), variants.minpts_range());
            let seed = (0..variants.len())
                .filter(|&j| v.can_reuse(&variants.get(j)))
                .min_by(|&a, &b| {
                    v.param_distance(&variants.get(a), er, mr)
                        .total_cmp(&v.param_distance(&variants.get(b), er, mr))
                });
            let Some(j) = seed else { continue };
            let warm = [WarmSource {
                variant: variants.get(j),
                result: Arc::clone(&donor.results[j]),
            }];
            let single = VariantSet::new(vec![Variant::new(v.eps, v.minpts)]);
            let warm_run = engine.execute(&RunRequest::prepared(&prepared, &single).warm(&warm)).unwrap();
            prop_assert_eq!(warm_run.warm_hits(), 1, "seed {} not reused for {}", j, i);
            prop_assert!(warm_run.results[0].check_consistency().is_ok());

            let scratch = engine.execute(&RunRequest::prepared(&prepared, &single)).unwrap();
            let cores = brute_core_points(&points, v.eps, v.minpts);
            // Both label vectors come back in prepared-index caller order.
            let direct = ClusterResult::from_labels(Labels::from_raw(
                prepared.labels_in_caller_order(&scratch.results[0]),
            ));
            let served = ClusterResult::from_labels(Labels::from_raw(
                prepared.labels_in_caller_order(&warm_run.results[0]),
            ));
            let ctx = format!("warm {} -> {}", variants.get(j), v);
            check_isomorphic(&direct, &served, points.len(), &cores, &ctx)?;
        }
    }
}

/// Thread-count determinism: the same dataset and variant grid, run at
/// `T ∈ {1, 2, 8}`, must agree — pointwise-identical noise sets and a
/// core-point cluster bijection — on both the cold path and the warm
/// (identity warm-source) path. Scheduling order may differ wildly
/// across thread counts; the labels may not.
#[test]
fn thread_counts_agree_cold_and_warm() {
    // A deterministic cloud (three blobs + background) so all thread
    // counts see the exact same bytes.
    let mut points = Vec::new();
    for (cx, cy) in [(2.0f64, 2.0), (7.0, 3.0), (4.5, 8.0)] {
        for i in 0..60 {
            let dx = (i as f64 * 0.618_033_988_749_894_9).fract();
            let dy = (i as f64 * 0.754_877_666_246_693).fract();
            points.push(Point2::new(cx + dx, cy + dy));
        }
    }
    for i in 0..40 {
        let dx = (i as f64 * 0.569_840_290_998_053_2).fract();
        let dy = (i as f64 * 0.493_406_585_013_595_4).fract();
        points.push(Point2::new(dx * 10.0, dy * 10.0));
    }

    let variants = VariantSet::cartesian(&[0.3, 0.45, 0.7], &[3, 6]);
    let cores: Vec<Vec<PointId>> = variants
        .iter()
        .map(|v| brute_core_points(&points, v.eps, v.minpts))
        .collect();

    // T=1 is the reference; every other thread count must match it.
    let reference_engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
    let reference_prepared = reference_engine.prepare(&points, None).unwrap();
    let reference = reference_engine
        .execute(&RunRequest::prepared(&reference_prepared, &variants))
        .unwrap();
    let ref_labels: Vec<ClusterResult> = (0..variants.len())
        .map(|i| {
            ClusterResult::from_labels(Labels::from_raw(
                reference_prepared.labels_in_caller_order(&reference.results[i]),
            ))
        })
        .collect();
    let ref_noise: Vec<usize> = ref_labels.iter().map(|r| r.noise_count()).collect();

    for threads in [2usize, 8] {
        let engine = Engine::new(EngineConfig::default().with_threads(threads).with_r(16));
        let prepared = engine.prepare(&points, None).unwrap();

        // Cold: straight run of the whole grid.
        let cold = engine
            .execute(&RunRequest::prepared(&prepared, &variants))
            .unwrap();
        for (i, v) in variants.iter().enumerate() {
            let got = ClusterResult::from_labels(Labels::from_raw(
                prepared.labels_in_caller_order(&cold.results[i]),
            ));
            assert_eq!(
                got.noise_count(),
                ref_noise[i],
                "T={threads} cold {v}: noise set size drifted"
            );
            check_isomorphic(
                &ref_labels[i],
                &got,
                points.len(),
                &cores[i],
                &format!("T={threads} cold {v}"),
            )
            .unwrap();
        }

        // Warm: every variant seeded with its own cold result (identity
        // warm sources — `can_reuse` admits equality), the service
        // cache's distance-0 hit. Must still agree with T=1.
        let warm_sources: Vec<WarmSource> = (0..variants.len())
            .map(|i| WarmSource {
                variant: variants.get(i),
                result: Arc::clone(&cold.results[i]),
            })
            .collect();
        let warm = engine
            .execute(&RunRequest::prepared(&prepared, &variants).warm(&warm_sources))
            .unwrap();
        assert_eq!(
            warm.warm_hits(),
            variants.len(),
            "T={threads}: identity warm sources must all hit"
        );
        for (i, v) in variants.iter().enumerate() {
            let got = ClusterResult::from_labels(Labels::from_raw(
                prepared.labels_in_caller_order(&warm.results[i]),
            ));
            check_isomorphic(
                &ref_labels[i],
                &got,
                points.len(),
                &cores[i],
                &format!("T={threads} warm {v}"),
            )
            .unwrap();
        }
    }
}
