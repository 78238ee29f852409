//! Sharded-kernel metamorphic suite.
//!
//! The metamorphic relation under test: for every adversarial point-set
//! family, sharded DBSCAN labels must be **bit-identical to the
//! single-thread disjoint-set kernel** for every shard count × thread
//! count combination (the slicing and the interleaving must be
//! invisible), and meet the label contract against sequential DBSCAN:
//! [`vbp_dbscan::core_isomorphic`], with core status counted over a
//! brute-force index that no index backend or partition can bias.
//!
//! The families mirror the ε-neighborhood conformance suite (random,
//! duplicate-heavy, collinear, dense blob) and keep its exact-boundary ε
//! values — including spacings that put points at distance *exactly* ε
//! across slice boundaries, where an open predicate or a core edge that
//! neither endpoint unions silently splits clusters.
//!
//! Budget: case count scales under `VBP_CONFORMANCE_FULL=1` (the
//! `CHECK_FULL=1` path of `scripts/check.sh`).

use vbp_dbscan::{
    core_flags, core_isomorphic, dbscan, parallel_dbscan, sharded_dbscan, DbscanParams,
};
use vbp_geom::Point2;
use vbp_rtree::{BruteForce, PackedRTree, SpatialIndex};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Scales the family sizes: 1 by default, 2 under `VBP_CONFORMANCE_FULL=1`
/// (quadratic brute-force oracles bound the full budget).
fn budget() -> usize {
    match std::env::var("VBP_CONFORMANCE_FULL") {
        Ok(v) if v != "0" && !v.is_empty() => 2,
        _ => 1,
    }
}

/// Deterministic splitmix64 stream (same seed as the conformance suite).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A named point-set family plus the (ε, minpts) pairs worth probing.
struct Family {
    name: &'static str,
    points: Vec<Point2>,
    params: Vec<(f64, usize)>,
}

fn families() -> Vec<Family> {
    let scale = budget();
    let mut rng = Rng(0x5EED_CAFE);
    let mut out = Vec::new();

    // Random uniform cloud: generic geometry, clusters straddle every
    // slice boundary at the permissive ε.
    let n = 400 * scale;
    out.push(Family {
        name: "random",
        points: (0..n)
            .map(|_| Point2::new(rng.unit() * 20.0, rng.unit() * 20.0))
            .collect(),
        params: vec![(0.3, 4), (0.9, 4), (5.0, 8)],
    });

    // Duplicate-heavy: 25 integer sites. ε = 1 and 2 hit inter-site
    // distances exactly, so adjacency rides the closed predicate.
    let n = 300 * scale;
    out.push(Family {
        name: "duplicates",
        points: (0..n)
            .map(|_| {
                let site = rng.next_u64() % 25;
                Point2::new((site % 5) as f64, (site / 5) as f64)
            })
            .collect(),
        params: vec![(0.0, 4), (1.0, 4), (2.0, 8), (1.5, 12)],
    });

    // Collinear: evenly spaced 0.5 apart with every third duplicated.
    // ε = 0.5 puts consecutive points at distance exactly ε, so every
    // slice boundary has an exact-ε edge straddling it; ε = 0.49 must
    // instead keep the chain apart everywhere.
    let n = 250 * scale;
    out.push(Family {
        name: "collinear",
        points: (0..n)
            .flat_map(|i| {
                let p = Point2::new(i as f64 * 0.5, 3.0);
                if i % 3 == 0 {
                    vec![p, p]
                } else {
                    vec![p]
                }
            })
            .collect(),
        params: vec![(0.5, 3), (1.0, 4), (0.49, 2)],
    });

    // Single dense blob: every point neighbours every other at the
    // larger ε, few do at the smaller.
    let n = 300 * scale;
    out.push(Family {
        name: "dense-blob",
        points: (0..n)
            .map(|_| {
                Point2::new(
                    100.0 + (rng.unit() - 0.5) * 0.2,
                    -40.0 + (rng.unit() - 0.5) * 0.2,
                )
            })
            .collect(),
        params: vec![(0.05, 4), (0.2, 4), (1.0, 4)],
    });

    out
}

/// The main grid: every family × (ε, minpts) × shard count × thread
/// count. Bit-equality against the unsharded kernel, isomorphism against
/// sequential DBSCAN.
#[test]
fn shard_merged_labels_match_single_shard_on_every_family() {
    for family in families() {
        let (tree, _) = PackedRTree::build(&family.points, 16);
        let brute = BruteForce::new(tree.shared_points());
        for &(eps, minpts) in &family.params {
            let params = DbscanParams::new(eps, minpts);
            let unsharded = parallel_dbscan(&tree, params, 1);
            let (single, _) = sharded_dbscan(&tree, params, 1, 1).expect("within capacity");
            assert_eq!(
                single, unsharded,
                "{}: ε={eps} minpts={minpts}: single-shard run diverged from the kernel",
                family.name
            );
            let sequential = dbscan(&tree, params);
            let core = core_flags(&brute, params);
            for shards in SHARD_COUNTS {
                for threads in THREAD_COUNTS {
                    let ctx = format!(
                        "{}: ε={eps} minpts={minpts} shards={shards} threads={threads}",
                        family.name
                    );
                    let (result, stats) =
                        sharded_dbscan(&tree, params, shards, threads).expect("within capacity");
                    assert_eq!(
                        result, single,
                        "{ctx}: sharded labels are not shard-count invariant"
                    );
                    assert_eq!(
                        stats.points_per_shard.iter().sum::<usize>(),
                        tree.len(),
                        "{ctx}: slices lost points"
                    );
                    core_isomorphic(
                        sequential.labels().as_raw(),
                        result.labels().as_raw(),
                        &core,
                    )
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
            }
        }
    }
}

/// Repeats of each contended case at shards = threads = 8, so the
/// publish-then-read order of core flags is exercised under contention.
const CONTENDED_RUNS: usize = 20;

/// Exact-ε bridge: two dense blobs joined by a chain of points spaced
/// *exactly* ε apart that crosses every slice boundary. Dropping any core
/// edge between slices — or treating the closed ε predicate as open —
/// splits the single true cluster.
#[test]
fn exact_epsilon_bridge_across_shard_halos_stays_one_cluster() {
    let eps = 0.5;
    let mut points = Vec::new();
    for i in 0..40 {
        // Two 5×8 lattice blobs at x ∈ [0, 2] and x ∈ [20, 22], spaced
        // exactly ε so the blob edge (2, 0) reaches the chain start.
        let (bx, by) = ((i % 5) as f64 * eps, (i / 5) as f64 * eps);
        points.push(Point2::new(bx, by));
        points.push(Point2::new(bx + 20.0, by));
    }
    // Chain from (2, 0) to (20, 0) at exact-ε spacing.
    let mut x = 2.0 + eps;
    while x < 20.0 {
        points.push(Point2::new(x, 0.0));
        x += eps;
    }
    points.push(Point2::new(20.0, 0.0));

    let (tree, _) = PackedRTree::build(&points, 8);
    let params = DbscanParams::new(eps, 2);
    let reference = parallel_dbscan(&tree, params, 1);
    assert_eq!(
        reference.num_clusters(),
        1,
        "construction must be one connected cluster"
    );
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            let (result, _) = sharded_dbscan(&tree, params, shards, threads).unwrap();
            assert_eq!(result, reference, "shards={shards} threads={threads}");
        }
    }
    for run in 0..CONTENDED_RUNS {
        let (result, _) = sharded_dbscan(&tree, params, 8, 8).unwrap();
        assert_eq!(result, reference, "contended run={run}");
    }
}

/// Border points adjacent to cores in two different slices must resolve
/// by the same deterministic lowest-core-id claim as the single-thread
/// kernel — whichever slice's task runs first.
#[test]
fn cross_shard_border_claims_are_deterministic() {
    // A non-core point at the midpoint of two cores ~2ε apart, repeated
    // along y so the slices separate the cores at some shard count.
    // At minpts = 6 the ladder's interior is core and its thinner ends
    // are borders shared between cores.
    let eps = 1.0;
    let mut points = Vec::new();
    for i in 0..30 {
        let y = i as f64 * 0.4;
        points.push(Point2::new(0.0, y)); // left column (cores)
        points.push(Point2::new(1.9, y)); // right column (cores)
        points.push(Point2::new(0.95, y)); // midpoint (border to both)
    }
    let (tree, _) = PackedRTree::build(&points, 8);
    let params = DbscanParams::new(eps, 6);
    let reference = parallel_dbscan(&tree, params, 1);
    for shards in SHARD_COUNTS {
        for threads in THREAD_COUNTS {
            for run in 0..3 {
                let (result, _) = sharded_dbscan(&tree, params, shards, threads).unwrap();
                assert_eq!(
                    result, reference,
                    "shards={shards} threads={threads} run={run}"
                );
            }
        }
    }
    for run in 0..CONTENDED_RUNS {
        let (result, _) = sharded_dbscan(&tree, params, 8, 8).unwrap();
        assert_eq!(result, reference, "contended run={run}");
    }
}
