//! Property tests for the paper's central claims:
//!
//! - the inclusion criteria (§IV-B) really do guarantee monotone cluster
//!   growth, so copied memberships are always valid;
//! - VariantDBSCAN's reuse path produces results equivalent to plain
//!   DBSCAN (up to border-point assignment) for *random* variant pairs;
//! - the engine as a whole matches direct DBSCAN for random variant grids
//!   under every scheduler/reuse-scheme combination;
//! - the scheduler executes every variant exactly once and only hands out
//!   reuse sources satisfying the inclusion criteria.
//!
//! Budget: case count scales 4× under `VBP_CONFORMANCE_FULL=1` (the
//! `CHECK_FULL=1` path of `scripts/check.sh`).

use proptest::prelude::*;
use variantdbscan::{
    cluster_with_reuse, Engine, EngineConfig, ReferenceScheduleState, ReuseScheme, RunRequest,
    ScheduleSource, ScheduleState, Scheduler, Variant, VariantSet,
};
use vbp_dbscan::{core_flags, core_isomorphic, dbscan};
use vbp_geom::Point2;
use vbp_rtree::{BruteForce, PackedRTree, SpatialIndex};

fn cases() -> u32 {
    match std::env::var("VBP_CONFORMANCE_FULL") {
        Ok(v) if v != "0" && !v.is_empty() => 128,
        _ => 32,
    }
}

/// Clustered cloud: a few blob centers plus noise, so DBSCAN has real
/// structure to find.
fn arb_cloud() -> impl Strategy<Value = Vec<Point2>> {
    (
        proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 2..6),
        proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0, 0usize..6), 50..250),
    )
        .prop_map(|(centers, raw)| {
            raw.into_iter()
                .map(|(dx, dy, which)| {
                    if which < centers.len() {
                        let (cx, cy) = centers[which];
                        Point2::new(cx + dx, cy + dy)
                    } else {
                        Point2::new(dx * 10.0, dy * 10.0) // background noise
                    }
                })
                .collect()
        })
}

fn arb_pair() -> impl Strategy<Value = (Variant, Variant)> {
    // Source (ε₀, m₀) and target (ε₀ + Δε, m₀ − Δm): always satisfies the
    // inclusion criteria.
    (0.1f64..1.0, 2usize..8, 0.0f64..1.0, 0usize..5).prop_map(|(e, m, de, dm)| {
        let src = Variant::new(e, m);
        let dst = Variant::new(e + de, m.saturating_sub(dm).max(1));
        (src, dst)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn clusters_grow_monotonically_under_inclusion_criteria(
        points in arb_cloud(),
        (src, dst) in arb_pair(),
    ) {
        // Every cluster of the source clustering must be contained in a
        // single cluster of the target clustering.
        let (tree, _) = PackedRTree::build(&points, 16);
        let before = dbscan(&tree, src.params());
        let after = dbscan(&tree, dst.params());
        for (c, members) in before.iter_clusters() {
            let target = after.labels().cluster(members[0]);
            prop_assert!(target.is_some(), "cluster {c} member became noise");
            for &p in members {
                prop_assert_eq!(
                    after.labels().cluster(p),
                    target,
                    "cluster {} split between target clusters", c
                );
            }
        }
    }

    #[test]
    fn reuse_path_equivalent_to_direct_dbscan(
        points in arb_cloud(),
        (src, dst) in arb_pair(),
        scheme_idx in 0usize..3,
    ) {
        let scheme = ReuseScheme::REUSING[scheme_idx];
        let (t_low, _) = PackedRTree::build(&points, 16);
        let t_high = PackedRTree::from_sorted(t_low.shared_points(), 1);
        let base = dbscan(&t_low, src.params());
        let (reused, stats) =
            cluster_with_reuse(&t_low, &t_high, dst, &base, src, scheme);
        let direct = dbscan(&t_low, dst.params());

        prop_assert!(reused.check_consistency().is_ok());
        prop_assert!(stats.fraction_reused() <= 1.0);
        let core = core_flags(&BruteForce::new(t_low.shared_points()), dst.params());
        core_isomorphic(direct.labels().as_raw(), reused.labels().as_raw(), &core)
            .map_err(TestCaseError::fail)?;
    }

    #[test]
    fn labels_do_not_depend_on_leaf_size(
        points in arb_cloud(),
        batches in proptest::collection::vec(
            proptest::collection::vec((0.0f64..10.0, 0.0f64..10.0), 1..24),
            0..4,
        ),
        resort in any::<bool>(),
        (src, dst) in arb_pair(),
        scheme_idx in 0usize..4,
    ) {
        // The reuse path over T_low (r = 16) and over an r = 1 tree of the
        // same points in the same order, each its own T_low: the r = 1
        // tree's leaf-reach table would hold more entries than points, so
        // it walks and harvests the cluster MBB, while T_low reads its
        // table and harvests per leaf. Searches differ; results may not.
        // On fresh handles, on handles grown by appends (which may cross
        // the re-sort fraction) and on an explicitly re-sorted handle.
        let scheme = [ReuseScheme::Disabled, ReuseScheme::REUSING[0], ReuseScheme::REUSING[1], ReuseScheme::REUSING[2]][scheme_idx];
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let mut index = engine.prepare(&points, None).unwrap();
        for batch in &batches {
            let batch: Vec<Point2> = batch.iter().map(|&(x, y)| Point2::new(x, y)).collect();
            index = engine.append_to_prepared(&index, &batch).unwrap().0;
        }
        if resort {
            index = engine.resort_prepared(&index);
        }
        let t_low = index.t_low();
        let r1 = PackedRTree::from_sorted(t_low.shared_points(), 1);
        prop_assert!(t_low.leaf_reach(dst.eps).is_some());
        prop_assert!(r1.leaf_reach(dst.eps).is_none());
        let base = dbscan(t_low, src.params());
        prop_assert_eq!(
            cluster_with_reuse(t_low, t_low, dst, &base, src, scheme).0,
            cluster_with_reuse(&r1, &r1, dst, &base, src, scheme).0
        );
    }

    #[test]
    fn engine_matches_direct_dbscan_for_random_grids(
        points in arb_cloud(),
        eps_base in 0.2f64..0.8,
        threads in 1usize..5,
        sched in prop_oneof![Just(Scheduler::SchedGreedy), Just(Scheduler::SchedMinpts)],
        scheme_idx in 0usize..3,
    ) {
        let variants = VariantSet::cartesian(
            &[eps_base, eps_base * 1.5, eps_base * 2.0],
            &[3, 5],
        );
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(threads)
                .with_r(16)
                .with_scheduler(sched)
                .with_reuse(ReuseScheme::REUSING[scheme_idx]),
        );
        let report = engine.execute(&RunRequest::new(&points, &variants)).unwrap();
        prop_assert_eq!(report.outcomes.len(), variants.len());

        // The engine's tree is this build, so both sides share tree order.
        let (t_low, _) = PackedRTree::build(&points, 16);
        let brute = BruteForce::new(t_low.shared_points());
        for (i, v) in variants.iter().enumerate() {
            let direct = dbscan(&t_low, v.params());
            let got = report.results[i].labels().as_raw();
            core_isomorphic(direct.labels().as_raw(), got, &core_flags(&brute, v.params()))
                .map_err(|e| TestCaseError::fail(format!("variant {v}: {e}")))?;
        }
    }

    #[test]
    fn scheduler_executes_each_variant_once_with_valid_sources(
        eps in proptest::collection::vec(0.05f64..2.0, 1..5),
        minpts in proptest::collection::vec(1usize..40, 1..5),
        sched in prop_oneof![Just(Scheduler::SchedGreedy), Just(Scheduler::SchedMinpts)],
        workers in 1usize..6,
    ) {
        let variants = VariantSet::cartesian(&eps, &minpts);
        let mut state = ScheduleState::new(variants.clone(), sched, true);
        // Simulate `workers` slots pulling concurrently: fill slots, then
        // complete them in FIFO order.
        let mut in_flight: std::collections::VecDeque<usize> = Default::default();
        let mut executed = vec![0usize; variants.len()];
        loop {
            while in_flight.len() < workers {
                match state.next_assignment() {
                    Some(a) => {
                        executed[a.variant] += 1;
                        if let Some(u) = a.reuse_from {
                            prop_assert!(variants[a.variant].can_reuse(&variants[u]));
                        }
                        in_flight.push_back(a.variant);
                    }
                    None => break,
                }
            }
            match in_flight.pop_front() {
                Some(v) => state.complete(v),
                None => break,
            }
        }
        prop_assert!(state.is_finished());
        prop_assert!(executed.iter().all(|&e| e == 1));
    }

    #[test]
    fn incremental_scheduler_matches_reference_on_random_grids(
        eps in proptest::collection::vec(0.05f64..2.0, 1..8),
        minpts in proptest::collection::vec(1usize..40, 1..8),
        sched in prop_oneof![Just(Scheduler::SchedGreedy), Just(Scheduler::SchedMinpts)],
        workers in 1usize..9,
        reuse in any::<bool>(),
    ) {
        // The tentpole invariant: the incremental best-pair scheduler must
        // emit the *exact* assignment sequence of the original exhaustive
        // (pending × completed) rescan, for any grid, worker count,
        // heuristic, and reuse setting, under identical completion
        // interleavings.
        let variants = VariantSet::cartesian(&eps, &minpts);
        let mut fast = ScheduleState::new(variants.clone(), sched, reuse);
        let mut reference = ReferenceScheduleState::new(variants.clone(), sched, reuse);

        // Drive both through the same FIFO interleaving: fill `workers`
        // slots, complete the oldest, refill, until drained.
        let mut in_flight: std::collections::VecDeque<usize> = Default::default();
        let mut assigned = 0usize;
        loop {
            while in_flight.len() < workers {
                let a = fast.next_assignment();
                let b = reference.next_assignment();
                prop_assert_eq!(&a, &b, "divergence after {} assignments", assigned);
                match a {
                    Some(a) => {
                        assigned += 1;
                        in_flight.push_back(a.variant);
                    }
                    None => break,
                }
            }
            match in_flight.pop_front() {
                Some(v) => {
                    fast.complete(v);
                    ScheduleSource::complete(&mut reference, v);
                }
                None => break,
            }
        }
        prop_assert_eq!(assigned, variants.len());
        prop_assert!(fast.is_finished());
        prop_assert!(ScheduleSource::is_finished(&reference));
    }

    #[test]
    fn at_least_one_variant_runs_from_scratch(
        points in arb_cloud(),
        threads in 1usize..5,
    ) {
        // The paper's bound f = (|V|−T)/|V| assumes all T threads pull
        // before anything completes; on real hardware a fast worker can
        // finish before a peer's first pull, legitimately enabling *more*
        // reuse. The hard invariant is that the very first assignment has
        // nothing to reuse.
        let variants = VariantSet::cartesian(&[0.3, 0.5, 0.7], &[3, 4, 5]);
        let engine = Engine::new(
            EngineConfig::default().with_threads(threads).with_r(16),
        );
        let report = engine.execute(&RunRequest::new(&points, &variants)).unwrap();
        let reused = report.outcomes.iter().filter(|o| o.reused_from().is_some()).count();
        prop_assert!(report.from_scratch_count() >= 1);
        prop_assert!(reused < variants.len());
        prop_assert_eq!(reused + report.from_scratch_count(), variants.len());
    }
}
