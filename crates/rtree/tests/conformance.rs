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

use vbp_geom::{Mbb, Point2, PointId};
use vbp_rtree::packed::DEFAULT_FANOUT;
use vbp_rtree::traits::shared_points;
use vbp_rtree::{BruteForce, PackedRTree, Skip, SpatialIndex};

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

#[test]
fn keyed_counts_agree_with_the_neighbour_list() {
    // The fused count-and-select query against each backend's own
    // `epsilon_neighbors`: the count is the list's length and the kept ids
    // are the list filtered by key, in the list's order, appended after
    // what `out` already held. Keys include the label sentinels the
    // clustering kernels select by (the largest cluster id, unclassified,
    // noise) and the ends of the `u32` range.
    const MAX_CLUSTER_ID: u32 = u32::MAX - 2;
    const UNCLASSIFIED: u32 = u32::MAX - 1;
    const NOISE: u32 = u32::MAX;
    let palette = [0, 1, 5, MAX_CLUSTER_ID, UNCLASSIFIED, NOISE];
    let wants = [
        UNCLASSIFIED..=NOISE,
        0..=0,
        MAX_CLUSTER_ID..=MAX_CLUSTER_ID,
        NOISE..=NOISE,
        1..=5,
        0..=u32::MAX,
        #[allow(clippy::reversed_empty_ranges)]
        (5..=1),
    ];
    let mut rng = Rng(0x0C0_7EED);
    for family in families() {
        let points = &family.points;
        let shared = shared_points(points.iter().copied());
        let keys: Vec<u32> = (0..points.len())
            .map(|_| palette[(rng.next_u64() % palette.len() as u64) as usize])
            .collect();
        let mut backends: Vec<(String, Box<dyn SpatialIndex>)> =
            vec![("brute".into(), Box::new(BruteForce::new(shared.clone())))];
        for r in [1usize, 7, 80, 130] {
            for fanout in [DEFAULT_FANOUT, 2] {
                backends.push((
                    format!("packed r={r} fanout={fanout}"),
                    Box::new(PackedRTree::from_sorted_with_fanout(
                        shared.clone(),
                        r,
                        fanout,
                    )),
                ));
            }
        }
        for &eps in &family.eps {
            for center in centers(points) {
                for (name, index) in &backends {
                    let ctx = format!(
                        "family={} backend={name} ε={eps} center=({}, {})",
                        family.name, center.x, center.y
                    );
                    let mut all = Vec::new();
                    index.epsilon_neighbors(center, eps, &mut all);
                    let mut scratch = vec![7];
                    assert_eq!(
                        index.epsilon_count(center, eps, &mut scratch),
                        all.len(),
                        "{ctx}"
                    );
                    for want in &wants {
                        let mut kept = vec![u32::MAX];
                        let count =
                            index.epsilon_count_keyed(center, eps, &keys, want.clone(), &mut kept);
                        assert_eq!(count, all.len(), "{ctx} want={want:?}");
                        let expect: Vec<PointId> = std::iter::once(u32::MAX)
                            .chain(
                                all.iter()
                                    .copied()
                                    .filter(|&q| want.contains(&keys[q as usize])),
                            )
                            .collect();
                        assert_eq!(kept, expect, "{ctx} want={want:?}");
                    }
                }
            }
        }
    }
}

#[test]
fn table_searches_equal_the_walk() {
    // A search centred on an indexed point through the tree's leaf-reach
    // table scans the leaves the walk scans, in the walk's order, so it
    // returns the same count and the same kept ids in the same order. On
    // fresh trees and on trees grown by an append that rewrote a partial
    // last leaf and left another; and on the over-budget side, where no
    // table is built and the search walks.
    const UNCLASSIFIED: u32 = u32::MAX - 1;
    const NOISE: u32 = u32::MAX;
    let palette = [0, 1, 5, UNCLASSIFIED, NOISE];
    #[allow(clippy::reversed_empty_ranges)]
    let wants = [UNCLASSIFIED..=NOISE, 0..=0, 1..=5, 0..=u32::MAX, 5..=1];
    let mut rng = Rng(0x7AB1_E5EE);
    let (mut tables, mut walks) = (0usize, 0usize);
    for family in families() {
        let points = &family.points;
        let keys: Vec<u32> = (0..points.len())
            .map(|_| palette[(rng.next_u64() % palette.len() as u64) as usize])
            .collect();
        let stride = (points.len() / (15 * budget())).max(1);
        let ids: Vec<PointId> = (0..points.len() as PointId).step_by(stride).collect();
        for r in [1usize, 7, 80, 130] {
            for fanout in [DEFAULT_FANOUT, 2] {
                let fresh =
                    PackedRTree::from_sorted_with_fanout(shared_points(points.clone()), r, fanout);
                // Cut inside a leaf, and keep the whole not a multiple of r.
                let n = points.len() - usize::from(r > 1 && points.len() % r == 0);
                let cut = (n / 2 / r * r + r / 2).min(n);
                let grown = PackedRTree::from_sorted_with_fanout(
                    shared_points(points[..cut].iter().copied()),
                    r,
                    fanout,
                )
                .appended(&points[cut..n]);
                for (shape, tree) in [("fresh", &fresh), ("appended", &grown)] {
                    for &eps in &family.eps {
                        let ctx = format!(
                            "family={} {shape} r={r} fanout={fanout} ε={eps}",
                            family.name
                        );
                        let reach = tree.leaf_reach(eps);
                        match &reach {
                            Some(table) => {
                                assert!(table.entries() <= tree.len(), "{ctx}: over budget");
                                tables += 1;
                            }
                            None => walks += 1,
                        }
                        for &id in ids.iter().filter(|&&id| (id as usize) < tree.len()) {
                            let center = tree.points()[id as usize];
                            let (mut listed, mut walked) = (Vec::new(), Vec::new());
                            tree.for_each_leaf_within(id, eps, reach.as_ref(), |s, e| {
                                listed.push((s, e));
                            });
                            tree.for_each_overlapping_leaf(
                                &Mbb::around_point(center, eps),
                                |s, e| walked.push((s, e)),
                            );
                            assert_eq!(listed, walked, "{ctx} id={id}: leaves scanned");
                            for want in &wants {
                                let (mut got, mut expect) = (vec![7], vec![7]);
                                let count = tree.epsilon_count_keyed_at(
                                    id,
                                    eps,
                                    reach.as_ref(),
                                    Skip::NONE,
                                    &keys,
                                    want.clone(),
                                    &mut got,
                                );
                                let walk_count = tree.epsilon_count_keyed(
                                    center,
                                    eps,
                                    &keys,
                                    want.clone(),
                                    &mut expect,
                                );
                                assert_eq!(count, walk_count, "{ctx} id={id} want={want:?}");
                                assert_eq!(got, expect, "{ctx} id={id} want={want:?}");
                            }
                        }
                    }
                }
            }
        }
    }
    // Both sides of the budget are reached: r = 1 with any neighbour, or
    // ε spanning a dense family, would need more entries than points.
    assert!(tables > 0 && walks > 0, "tables {tables}, walks {walks}");
}

#[test]
fn skipped_searches_keep_every_wanted_id() {
    // A search may pass over a leaf none of whose points has a wanted key
    // once its count reaches `need`, and a counting search may stop
    // there. Over random key states — leaves of mixed keys and leaves
    // whose points all carry one key, so that some are settled for each
    // want — with `live` derived from the keys, the kept ids and their
    // order are the unskipped search's. The count is exact below `need`
    // and lies in `need..=exact` otherwise. Through the leaf-reach table
    // and through the walk; `BruteForce` ignores the skip.
    const UNCLASSIFIED: u32 = u32::MAX - 1;
    const NOISE: u32 = u32::MAX;
    let palette = [0, 1, 5, UNCLASSIFIED, NOISE];
    #[allow(clippy::reversed_empty_ranges)]
    let wants = [UNCLASSIFIED..=NOISE, 0..=0, 1..=5, 0..=u32::MAX, 5..=1];
    let mut rng = Rng(0x5C1F_1EAF);
    let (mut searches, mut partial) = (0usize, 0usize);
    for family in families() {
        let points = &family.points;
        let stride = (points.len() / (15 * budget())).max(1);
        let ids: Vec<PointId> = (0..points.len() as PointId).step_by(stride).collect();
        let brute = BruteForce::new(shared_points(points.clone()));
        for r in [7usize, 80, 130] {
            let tree = PackedRTree::from_sorted(shared_points(points.clone()), r);
            let mut pick = || palette[(rng.next_u64() % palette.len() as u64) as usize];
            let keys: Vec<u32> = (0..tree.leaf_count())
                .flat_map(|leaf| {
                    let len = (points.len() - leaf * r).min(r);
                    let one = (leaf % 3 != 0).then(&mut pick);
                    (0..len)
                        .map(|_| one.unwrap_or_else(&mut pick))
                        .collect::<Vec<_>>()
                })
                .collect();
            for &eps in &family.eps {
                let table = tree.leaf_reach(eps);
                for reach in [table.as_ref(), None] {
                    let ctx = format!(
                        "family={} r={r} ε={eps} table={}",
                        family.name,
                        reach.is_some()
                    );
                    for want in &wants {
                        let live: Vec<u32> = keys
                            .chunks(r)
                            .map(|leaf| leaf.iter().filter(|k| want.contains(k)).count() as u32)
                            .collect();
                        for &id in &ids {
                            let mut exact_ids = vec![7];
                            let exact = tree.epsilon_count_keyed_at(
                                id,
                                eps,
                                reach,
                                Skip::NONE,
                                &keys,
                                want.clone(),
                                &mut exact_ids,
                            );
                            for need in [1, 2, 4, 10, exact, exact + 1] {
                                let skip = Skip { need, live: &live };
                                let mut got = vec![7];
                                let count = tree.epsilon_count_keyed_at(
                                    id,
                                    eps,
                                    reach,
                                    skip,
                                    &keys,
                                    want.clone(),
                                    &mut got,
                                );
                                let at = format!("{ctx} id={id} want={want:?} need={need}");
                                assert_eq!(got, exact_ids, "{at}: kept ids");
                                if exact < need {
                                    assert_eq!(count, exact, "{at}: count");
                                } else {
                                    assert!((need..=exact).contains(&count), "{at}: {count}");
                                }
                                partial += usize::from(count < exact);
                                let mut brute_ids = vec![7];
                                let brute_count = brute.epsilon_count_keyed_at(
                                    id,
                                    eps,
                                    None,
                                    skip,
                                    &keys,
                                    want.clone(),
                                    &mut brute_ids,
                                );
                                assert_eq!(brute_count, exact, "{at}: brute-force count");
                                assert_eq!(sorted(brute_ids), sorted(exact_ids.clone()), "{at}");
                                searches += 1;
                            }
                        }
                    }
                }
            }
        }
    }
    // The skips are taken: many counts stop short of the exact one.
    assert!(partial * 10 > searches, "{partial} partial of {searches}");
}
