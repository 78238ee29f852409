//! Cross-crate integration tests: the full pipeline from dataset
//! generation through indexing, variant clustering, and quality scoring —
//! the same path the paper's evaluation exercises, at test-friendly scale.

use vbp::prelude::*;
use vbp::variantdbscan::{Engine, EngineConfig, ReuseScheme, RunRequest, Scheduler};
use vbp::vbp_data::{SpaceWeatherSpec, SyntheticSpec};
use vbp::vbp_dbscan::{dbscan, quality_score, DbscanParams};
use vbp::vbp_rtree::PackedRTree;

/// The full S2-style pipeline on a synthetic dataset: catalog → engine →
/// per-variant results equivalent to direct DBSCAN.
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
        let direct = dbscan(&tree, DbscanParams::new(v.eps, v.minpts));
        assert_eq!(direct.num_clusters(), report.results[i].num_clusters());
        assert_eq!(direct.noise_count(), report.results[i].noise_count());
        let q = quality_score(&direct, &report.results[i]);
        assert!(q.mean_score > 0.995, "variant {v}: {}", q.mean_score);
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

/// Reference config and optimized config agree on clustering structure
/// while the optimized one does less work per variant on average.
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

    for i in 0..variants.len() {
        assert_eq!(
            reference.results[i].num_clusters(),
            optimized.results[i].num_clusters()
        );
        let q = quality_score(&reference.results[i], &optimized.results[i]);
        assert!(q.mean_score > 0.995);
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
