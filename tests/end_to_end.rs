//! Cross-crate integration tests: the full pipeline from dataset
//! generation through indexing, variant clustering, and quality scoring —
//! the same path the paper's evaluation exercises, at test-friendly scale.

use vbp::prelude::*;
use vbp::variantdbscan::{
    cluster_with_reuse, Engine, EngineConfig, ExecutionPath, ReuseScheme, RunRequest, Scheduler,
};
use vbp::vbp_data::{SpaceWeatherSpec, SyntheticSpec};
use vbp::vbp_dbscan::{core_flags, core_isomorphic, dbscan, DbscanParams};
use vbp::vbp_rtree::PackedRTree;

/// The full S2-style pipeline on a synthetic dataset: catalog → engine →
/// per-variant results core-isomorphic to direct DBSCAN. Core flags come
/// from the tree, whose counts the rtree conformance suite pins to brute
/// force.
#[test]
fn synthetic_pipeline_matches_direct_dbscan() {
    let spec = DatasetSpec::by_name("cF_1M_15N@4000").unwrap();
    let points = spec.generate();
    assert_eq!(points.len(), 4_000);

    let variants = VariantSet::cartesian(&[0.3, 0.5], &[4, 8, 16]);
    let engine = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_r(70)
            .with_reuse(ReuseScheme::ClusDensity),
    );
    let report = engine
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();
    assert_eq!(report.outcomes.len(), 6);

    let (tree, _) = PackedRTree::build(&points, 70);
    for (i, v) in variants.iter().enumerate() {
        let params = DbscanParams::new(v.eps, v.minpts);
        let direct = dbscan(&tree, params);
        let got = report.results[i].labels().as_raw();
        core_isomorphic(direct.labels().as_raw(), got, &core_flags(&tree, params))
            .unwrap_or_else(|e| panic!("variant {v}: {e}"));
    }
}

/// The space-weather path: simulated TEC map → k-dist ε suggestion →
/// engine run → sensible structure found.
#[test]
fn space_weather_pipeline_finds_wave_structure() {
    let spec = SpaceWeatherSpec::scaled(1, 6_000);
    let points = spec.generate();
    let (tree, _) = PackedRTree::build(&points, 70);
    let eps = vbp::vbp_dbscan::suggest_eps(&tree, 4, 3).unwrap();
    assert!(eps > 0.0 && eps < 20.0, "suggested ε {eps} out of range");

    let variants = VariantSet::cartesian(&[eps, eps * 1.5], &[4, 8]);
    let report = Engine::new(
        EngineConfig::default()
            .with_threads(2)
            .with_r(70)
            .with_reuse(ReuseScheme::ClusDensity),
    )
    .execute(&RunRequest::new(&points, &variants))
    .unwrap();

    // The loosest variant must find real clusters covering a good chunk
    // of the map (the TID bands), not one megacluster and not all noise.
    let loosest = &report.results[variants.len() - 1];
    assert!(loosest.num_clusters() >= 1);
    assert!(loosest.clustered_fraction() > 0.5);
    let strictest = &report.results[0];
    assert!(strictest.noise_count() >= loosest.noise_count());
}

/// Reuse on a space-weather grid with several minpts per ε — the shape
/// where the variants of one ε share each point's neighbour count — at
/// T = 1 and T = 2. Every variant is core-isomorphic to a from-scratch
/// `dbscan` (`core_isomorphic`), and the T = 1 run equals, label for
/// label, a replay of each of its (source, target) pairs through
/// `cluster_with_reuse` — old clusters merged wholesale included.
#[test]
fn space_weather_grid_reuse_is_exact_at_one_and_two_threads() {
    let points = SpaceWeatherSpec::scaled(1, 3_000).generate();
    let engine = |threads| {
        Engine::new(
            EngineConfig::default()
                .with_threads(threads)
                .with_r(70)
                .with_reuse(ReuseScheme::ClusDensity),
        )
    };
    let prepared = engine(1).prepare(&points, None).unwrap();
    let tree = prepared.t_low();
    let eps = vbp::vbp_dbscan::suggest_eps(tree, 4, 3).unwrap();
    let variants = VariantSet::cartesian(&[eps, eps * 1.25], &[4, 6, 8, 12]);
    let direct: Vec<ClusterResult> = variants.iter().map(|v| dbscan(tree, v.params())).collect();
    let core: Vec<Vec<bool>> = variants
        .iter()
        .map(|v| core_flags(tree, v.params()))
        .collect();

    for threads in [1, 2] {
        let report = engine(threads)
            .execute(&RunRequest::prepared(&prepared, &variants))
            .unwrap();
        assert!(report.from_scratch_count() < variants.len());
        for (i, v) in variants.iter().enumerate() {
            let (want, got) = (direct[i].labels(), report.results[i].labels());
            core_isomorphic(want.as_raw(), got.as_raw(), &core[i])
                .unwrap_or_else(|e| panic!("T={threads} {v}: {e}"));
        }

        if threads == 1 {
            let mut merged = 0;
            for o in &report.outcomes {
                let ExecutionPath::Reused { source, stats } = o.path else {
                    continue;
                };
                merged += stats.clusters_merged;
                let si = variants.iter().position(|v| v == source).unwrap();
                let (replay, _) = cluster_with_reuse(
                    tree,
                    prepared.t_high(),
                    o.variant,
                    &report.results[si],
                    source,
                    ReuseScheme::ClusDensity,
                );
                assert_eq!(
                    &replay, &*report.results[o.index],
                    "T=1 {source} -> {}: labels differ from the replay",
                    o.variant
                );
            }
            assert!(merged > 0, "T=1: no old cluster merged");
        }
    }
}

/// Reference config and optimized config agree on clustering structure
/// while the optimized one does less work per variant on average. The bin
/// sort does not depend on `r`, so both runs share one tree order.
#[test]
fn optimized_engine_agrees_with_reference_and_reuses() {
    let points = SyntheticSpec::new(SyntheticClass::CF, 5_000, 0.10, 21).generate();
    let variants = VariantSet::cartesian(&[0.4, 0.6, 0.8], &[4, 8]);

    let reference = Engine::new(EngineConfig::reference())
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();
    let optimized = Engine::new(
        EngineConfig::default()
            .with_threads(1)
            .with_r(80)
            .with_scheduler(Scheduler::SchedGreedy)
            .with_reuse(ReuseScheme::ClusDensity),
    )
    .execute(&RunRequest::new(&points, &variants))
    .unwrap();

    let (tree, _) = PackedRTree::build(&points, 80);
    for (i, v) in variants.iter().enumerate() {
        let (want, got) = (reference.results[i].labels(), optimized.results[i].labels());
        core_isomorphic(want.as_raw(), got.as_raw(), &core_flags(&tree, v.params()))
            .unwrap_or_else(|e| panic!("variant {v}: {e}"));
    }
    assert_eq!(reference.from_scratch_count(), variants.len());
    assert!(optimized.from_scratch_count() < variants.len());
    assert!(optimized.mean_fraction_reused() > 0.0);

    // Work comparison: total ε-searches must be lower with reuse.
    let ref_searches: usize = reference.outcomes.iter().map(|o| o.searches()).sum();
    let opt_searches: usize = optimized.outcomes.iter().map(|o| o.searches()).sum();
    assert!(
        opt_searches < ref_searches,
        "reuse should cut searches: {opt_searches} vs {ref_searches}"
    );
}

/// Dataset IO round-trips through both formats and feeds back into the
/// engine unchanged.
#[test]
fn io_roundtrip_preserves_clustering() {
    let points = SyntheticSpec::new(SyntheticClass::CV, 2_000, 0.2, 33).generate();

    let mut csv = Vec::new();
    vbp::vbp_data::io::write_csv(&mut csv, &points).unwrap();
    let from_csv = vbp::vbp_data::io::read_csv(csv.as_slice()).unwrap();
    assert_eq!(points, from_csv);

    let mut bin = Vec::new();
    vbp::vbp_data::io::write_binary(&mut bin, &points).unwrap();
    let from_bin = vbp::vbp_data::io::read_binary(bin.as_slice()).unwrap();
    assert_eq!(points, from_bin);

    let variants = VariantSet::cartesian(&[0.5], &[4]);
    let a = Engine::new(EngineConfig::default().with_threads(1).with_r(16))
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();
    let b = Engine::new(EngineConfig::default().with_threads(1).with_r(16))
        .execute(&RunRequest::new(&from_bin, &variants))
        .unwrap();
    assert_eq!(a.results[0].num_clusters(), b.results[0].num_clusters());
    assert_eq!(a.results[0].noise_count(), b.results[0].noise_count());
}

/// The engine's permutation mapping lets callers recover results in their
/// own point order, consistent across variants.
#[test]
fn caller_order_results_are_consistent() {
    let points = SyntheticSpec::new(SyntheticClass::CF, 1_500, 0.1, 55).generate();
    let variants = VariantSet::cartesian(&[0.5, 0.7], &[4]);
    let report = Engine::new(EngineConfig::default().with_threads(2).with_r(32))
        .execute(&RunRequest::new(&points, &variants))
        .unwrap();

    for i in 0..variants.len() {
        let remapped = report.result_in_caller_order(i);
        assert_eq!(remapped.len(), points.len());
        // Noise monotonicity in caller order: growing ε keeps clustered
        // points clustered.
        if i > 0 {
            let prev = report.result_in_caller_order(i - 1);
            for p in 0..points.len() {
                if prev[p] != vbp::vbp_dbscan::NOISE {
                    assert_ne!(remapped[p], vbp::vbp_dbscan::NOISE, "point {p}");
                }
            }
        }
    }
}

/// A prepare is one bin sort and one tree: on catalog inputs the linear
/// sort's permutation is the comparator sort's, and the paper's second
/// tree is the first one under another name.
#[test]
fn prepare_sorts_as_the_comparator_oracle_and_builds_one_tree() {
    use vbp::vbp_geom::{bin_sort_reference, BinOrder};

    let engine = Engine::new(EngineConfig::default().with_r(70));
    for name in ["cF_10k_5N@8000", "SW1@6000"] {
        let points = DatasetSpec::by_name(name).unwrap().generate();
        let prepared = engine.prepare(&points, None).unwrap();
        assert_eq!(
            prepared.permutation(),
            &bin_sort_reference(&points, 1.0, BinOrder::Serpentine)[..],
            "{name}: permutation"
        );
        let (low, high) = (prepared.t_low(), prepared.t_high());
        assert_eq!(high.len(), low.len(), "{name}: tree sizes");
        assert_eq!(high.points(), low.points(), "{name}: tree points");
    }
}

/// The from-scratch kernel over the packed tree, whose ε-scan fuses the
/// count and the selection of unclaimed neighbours and reads the leaves to
/// scan off the tree's leaf-reach table, equals the same kernel over an
/// index that keeps every trait default — it builds no table
/// (`leaf_reach`), and its id-centred searches (`epsilon_count_keyed_at`)
/// walk the tree from the root and materialise the neighbour list and
/// filter it — in labels and every counter, at the four (ε, minpts) pairs
/// of the benchmark's from-scratch workload. (A brute-force scan would
/// take the same defaults at ≈ 1 s per pair in a debug build.)
#[test]
fn fused_scan_clusters_as_the_materialising_default() {
    use vbp::vbp_dbscan::{dbscan_with_scratch, DbscanScratch};
    use vbp::vbp_geom::{Mbb, Point2, PointId};
    use vbp::vbp_rtree::SpatialIndex;

    struct Defaults<'a>(&'a PackedRTree);
    impl SpatialIndex for Defaults<'_> {
        fn points(&self) -> &[Point2] {
            self.0.points()
        }
        fn range_candidates(&self, query: &Mbb, out: &mut Vec<PointId>) {
            self.0.range_candidates(query, out);
        }
        fn epsilon_neighbors(&self, center: Point2, eps: f64, out: &mut Vec<PointId>) {
            self.0.epsilon_neighbors(center, eps, out);
        }
    }

    let points = DatasetSpec::by_name("cF_10k_5N@8000").unwrap().generate();
    let (tree, _) = PackedRTree::build(&points, 80);
    let mut scratch = DbscanScratch::new();
    for (eps, minpts) in [(0.35, 4), (0.40, 6), (0.45, 8), (0.50, 10)] {
        let params = DbscanParams::new(eps, minpts);
        assert!(
            tree.leaf_reach(eps).is_some(),
            "({eps}, {minpts}): no table"
        );
        let fused = dbscan_with_scratch(&tree, params, &mut scratch);
        let default = dbscan_with_scratch(&Defaults(&tree), params, &mut scratch);
        assert_eq!(fused.0, default.0, "({eps}, {minpts}): labels");
        assert_eq!(fused.1, default.1, "({eps}, {minpts}): stats");
        assert!(fused.1.clusters > 0, "({eps}, {minpts}): nothing clustered");
    }
}

/// The packed tree's leaf scans run at the widest vector level the host
/// supports; `BruteForce` answers the same searches with its own scalar
/// loop. Clustering through either must give the same labels and the
/// same counters, on a lattice where many pairs lie at (or within an
/// ulp of) exactly ε and on a synthetic dataset, at `scratch_cf`'s four
/// (ε, minpts) pairs.
#[test]
fn vector_width_scan_clusters_as_the_scalar_brute_force() {
    use vbp::vbp_dbscan::{dbscan_with_scratch, DbscanScratch};
    use vbp::vbp_geom::Point2;
    use vbp::vbp_rtree::{BruteForce, SpatialIndex};

    // A sparse 0.05-spaced lattice: every ε below is a whole number of
    // steps, so the axis neighbours (and 6-8-10 triples) sit on the
    // boundary. Patches of 40 × 40 steps, a point in 29 kept, are
    // parted by bands of 20 steps, a point in 400 kept; some points are
    // doubled.
    let mut lattice = Vec::new();
    for i in 0..200u64 {
        for j in 0..200u64 {
            let one_in = if i % 60 < 40 && j % 60 < 40 { 29 } else { 400 };
            if ((i * 200 + j).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) % one_in == 0 {
                let p = Point2::new(i as f64 * 0.05, j as f64 * 0.05);
                lattice.push(p);
                if (i + j) % 11 == 0 {
                    lattice.push(p);
                }
            }
        }
    }
    let synthetic = DatasetSpec::by_name("cF_10k_5N@2000").unwrap().generate();
    let mut scratch = DbscanScratch::new();
    for (name, points) in [("lattice", lattice), ("cF_10k_5N@2000", synthetic)] {
        for r in [16, 80] {
            let (tree, _) = PackedRTree::build(&points, r);
            let brute = BruteForce::new(tree.shared_points());
            for (eps, minpts) in [(0.35, 4), (0.40, 6), (0.45, 8), (0.50, 10)] {
                let at = format!("{name}, r={r}, ({eps}, {minpts})");
                assert!(tree.leaf_reach(eps).is_some(), "{at}: no table");
                let params = DbscanParams::new(eps, minpts);
                let packed = dbscan_with_scratch(&tree, params, &mut scratch);
                let scalar = dbscan_with_scratch(&brute, params, &mut scratch);
                assert_eq!(packed.0, scalar.0, "{at}: labels");
                assert_eq!(packed.1, scalar.1, "{at}: stats");
                assert!(packed.1.clusters > 1, "{at}: {:?}", packed.1);
                assert!(packed.1.noise_points > 0, "{at}: {:?}", packed.1);
            }
        }
    }
}
