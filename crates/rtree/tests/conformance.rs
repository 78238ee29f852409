//! Cross-backend ε-neighborhood conformance suite.
//!
//! Every index backend must return the *same* neighbor set for the same
//! query — including points at distance exactly ε, which is where kernel
//! rewrites (like the SoA hot path) silently diverge. This suite runs
//! adversarial point-set families (random, duplicate-heavy, collinear,
//! single dense blob) through every backend and compares against the
//! brute-force oracle, for ε values that include exact-boundary hits and
//! ε = 0 over duplicates.
//!
//! Budget: a fast default for tier-1; set `VBP_CONFORMANCE_FULL=1` (the
//! `CHECK_FULL=1` path of `scripts/check.sh`) for larger point sets and a
//! denser query sample.

use vbp_geom::{Point2, PointId};
use vbp_rtree::traits::shared_points;
use vbp_rtree::{BruteForce, PackedRTree, SpatialIndex};

/// Scales the case budget: 1 by default, 4 under `VBP_CONFORMANCE_FULL=1`.
fn budget() -> usize {
    match std::env::var("VBP_CONFORMANCE_FULL") {
        Ok(v) if v != "0" && !v.is_empty() => 4,
        _ => 1,
    }
}

/// Deterministic splitmix64 stream.
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

/// A named point-set family plus the ε values worth probing it with.
struct Family {
    name: &'static str,
    points: Vec<Point2>,
    eps: Vec<f64>,
}

fn families() -> Vec<Family> {
    let scale = budget();
    let mut rng = Rng(0x5EED_CAFE);
    let mut out = Vec::new();

    // Random uniform cloud. ε = 0.9 exercises generic geometry; the
    // coordinates are irrational enough that boundary ties are absent, so
    // this family checks the bulk filter/refine logic.
    let n = 400 * scale;
    out.push(Family {
        name: "random",
        points: (0..n)
            .map(|_| Point2::new(rng.unit() * 20.0, rng.unit() * 20.0))
            .collect(),
        eps: vec![0.0, 0.3, 0.9, 5.0],
    });

    // Duplicate-heavy: many points sampled from 25 distinct integer
    // locations. ε = 0 must return every coincident point; ε = 1 and 2
    // hit inter-site distances exactly (axis neighbors at 1, diagonal at
    // √2 < 2, two-step axis at exactly 2).
    let n = 300 * scale;
    out.push(Family {
        name: "duplicates",
        points: (0..n)
            .map(|_| {
                let site = rng.next_u64() % 25;
                Point2::new((site % 5) as f64, (site / 5) as f64)
            })
            .collect(),
        eps: vec![0.0, 1.0, 2.0, 1.5],
    });

    // Collinear: evenly spaced points on a line (degenerate MBBs with
    // zero height at every tree level), with every third point duplicated.
    // ε = 0.5 and 1.0 hit spacing boundaries exactly.
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
        eps: vec![0.0, 0.5, 1.0, 0.49],
    });

    // Single dense blob: everything within a tiny disc, so every query
    // overlaps every leaf and the kernel's compaction runs at full
    // density.
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
        eps: vec![0.0, 0.05, 0.2, 1.0],
    });

    out
}

/// The oracle's answer, as sorted caller-order ids.
fn oracle(points: &[Point2], center: Point2, eps: f64) -> Vec<PointId> {
    let eps_sq = eps * eps;
    (0..points.len() as PointId)
        .filter(|&i| points[i as usize].dist_sq(&center) <= eps_sq)
        .collect()
}

/// Query centers: a strided sample of the data points (on-point queries,
/// the DBSCAN access pattern) plus a few off-data centers.
fn centers(points: &[Point2]) -> Vec<Point2> {
    let stride = (points.len() / (20 * budget())).max(1);
    let mut c: Vec<Point2> = points.iter().step_by(stride).copied().collect();
    c.push(Point2::new(-1000.0, -1000.0)); // far outside: empty result
    if let Some(p) = points.first() {
        c.push(Point2::new(p.x + 0.25, p.y - 0.25)); // near but off-data
    }
    c
}

fn sorted(mut v: Vec<PointId>) -> Vec<PointId> {
    v.sort_unstable();
    v
}

#[test]
fn all_backends_agree_with_the_oracle() {
    for family in families() {
        let points = &family.points;
        let shared = shared_points(points.iter().copied());

        // All of these preserve the caller's point order, so ids are
        // directly comparable with the oracle's.
        let brute = BruteForce::new(shared.clone());
        let packed: Vec<PackedRTree> = [1usize, 10, 70]
            .iter()
            .map(|&r| PackedRTree::from_sorted(shared.clone(), r))
            .collect();

        for &eps in &family.eps {
            for center in centers(points) {
                let expect = oracle(points, center, eps);
                let ctx = |backend: &str| {
                    format!(
                        "family={} backend={backend} ε={eps} center=({}, {})",
                        family.name, center.x, center.y
                    )
                };

                let mut out = Vec::new();
                brute.epsilon_neighbors(center, eps, &mut out);
                assert_eq!(sorted(out), expect, "{}", ctx("brute"));

                for tree in &packed {
                    let r = tree.points_per_leaf();
                    // SoA kernel.
                    let mut soa = Vec::new();
                    tree.epsilon_neighbors(center, eps, &mut soa);
                    assert_eq!(sorted(soa), expect, "{}", ctx(&format!("packed-soa r={r}")));
                    // AoS filter-refine reference path.
                    let mut naive = Vec::new();
                    tree.epsilon_neighbors_naive(center, eps, &mut naive);
                    assert_eq!(
                        sorted(naive),
                        expect,
                        "{}",
                        ctx(&format!("packed-naive r={r}"))
                    );
                }
            }
        }
    }
}

#[test]
fn batched_queries_agree_with_single_queries() {
    // The batch entry point may reorder queries; every backend must still
    // emit each id exactly once with the same neighbors the single-query
    // path returns.
    for family in families() {
        let points = &family.points;
        let shared = shared_points(points.iter().copied());
        let packed = PackedRTree::from_sorted(shared.clone(), 10);
        let brute = BruteForce::new(shared.clone());
        let backends: [(&str, &dyn SpatialIndex); 2] = [("packed", &packed), ("brute", &brute)];

        let stride = (points.len() / (15 * budget())).max(1);
        let eps = family.eps.iter().copied().fold(0.0f64, f64::max);
        for (name, index) in backends {
            // Shuffled-ish id order (reversed stride) to prove reordering
            // doesn't lose or duplicate queries.
            let mut ids: Vec<PointId> =
                (0..points.len() as PointId).rev().step_by(stride).collect();
            let mut emitted = vec![false; points.len()];
            let mut count = 0usize;
            let expected = ids.len();
            let mut scratch = Vec::new();
            index.epsilon_neighbors_batch(&mut ids, eps, &mut scratch, &mut |id, ns| {
                assert!(
                    !emitted[id as usize],
                    "family={} backend={name}: id {id} emitted twice",
                    family.name
                );
                emitted[id as usize] = true;
                count += 1;
                let expect = oracle(points, points[id as usize], eps);
                assert_eq!(
                    sorted(ns.to_vec()),
                    expect,
                    "family={} backend={name} id={id} ε={eps}",
                    family.name
                );
            });
            assert_eq!(count, expected, "family={} backend={name}", family.name);
        }
    }
}

#[test]
fn zero_eps_returns_exactly_the_coincident_points() {
    // The ε = 0 contract, pinned explicitly: the closed ball of radius 0
    // is the set of coincident points — never empty for an indexed center.
    let pts = [
        Point2::new(1.0, 1.0),
        Point2::new(1.0, 1.0),
        Point2::new(1.0, 1.0),
        Point2::new(2.0, 1.0),
    ];
    let shared = shared_points(pts.iter().copied());
    let tree = PackedRTree::from_sorted(shared.clone(), 2);
    let brute = BruteForce::new(shared);
    for index in [&tree as &dyn SpatialIndex, &brute] {
        let mut out = Vec::new();
        index.epsilon_neighbors(Point2::new(1.0, 1.0), 0.0, &mut out);
        assert_eq!(sorted(out), vec![0, 1, 2]);
        let mut out = Vec::new();
        index.epsilon_neighbors(Point2::new(2.0, 1.0), 0.0, &mut out);
        assert_eq!(out, vec![3]);
        let mut out = Vec::new();
        index.epsilon_neighbors(Point2::new(1.5, 1.0), 0.0, &mut out);
        assert!(out.is_empty());
    }
}
