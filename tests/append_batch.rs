//! Append ≅ batch: a daemon fed `APPEND`s answers every `SUBMIT` as a
//! from-scratch DBSCAN over the accumulated points would — whether the
//! cached entry behind the answer was extended in place, re-keyed by a
//! re-sort, or dropped and computed again.

use std::collections::HashMap;
use std::time::Duration;

use vbp::variantdbscan::{Engine, EngineConfig, APPEND_RESORT_FRACTION};
use vbp::vbp_data::DatasetSpec;
use vbp::vbp_dbscan::{dbscan, DbscanParams};
use vbp::vbp_geom::Point2;
use vbp::vbp_rtree::{shared_points, BruteForce};
use vbp::vbp_service::{Client, Registry, Server, ServiceConfig};

const DATASET: &str = "cF_10k_5N@300";
/// The warmed variants, `(ε, minpts)`.
const VARIANTS: [(f64, usize); 4] = [(2.0, 4), (2.5, 4), (2.0, 8), (3.0, 6)];

/// Same noise set, and a bijection between cluster ids over the points
/// that are core at `(eps, minpts)`.
fn assert_core_isomorphic(got: &[u32], want: &[u32], points: &[Point2], eps: f64, minpts: usize) {
    assert_eq!(got.len(), want.len(), "label counts");
    let (mut forward, mut backward) = (HashMap::new(), HashMap::new());
    for (p, (&a, &b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a == u32::MAX, b == u32::MAX, "noise status of point {p}");
        let neighbors = points
            .iter()
            .filter(|q| points[p].dist_sq(q) <= eps * eps)
            .count();
        if neighbors >= minpts {
            assert_eq!(*forward.entry(a).or_insert(b), b, "split at core {p}");
            assert_eq!(*backward.entry(b).or_insert(a), a, "merge at core {p}");
        }
    }
}

#[test]
fn an_appended_daemon_answers_as_a_batch_run_does() {
    let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
    let mut points = DatasetSpec::by_name(DATASET).unwrap().generate();
    let registry = Registry::new();
    registry.register(&engine, DATASET, &points).unwrap();
    let config = ServiceConfig {
        batch_window: Duration::ZERO,
        ..ServiceConfig::default()
    };
    let mut server = Server::start(engine, registry, config).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();
    for (eps, minpts) in VARIANTS {
        client.submit(DATASET, eps, minpts, false).unwrap();
    }

    let (mut tail, mut resorts) = (0, 0);
    for round in 0..10 {
        // Every third round lands next to an old point, inside every
        // warmed ε; the others are a 5 × 5 clump far from everything.
        let near = round % 3 == 2;
        let batch: Vec<Point2> = if near {
            let p = points[7 * round];
            vec![Point2::new(p.x + 0.01, p.y)]
        } else {
            let o = -100.0 - 40.0 * round as f64;
            (0..25)
                .map(|i| Point2::new(o + (i % 5) as f64 * 0.5, o + (i / 5) as f64 * 0.5))
                .collect()
        };
        let reply = client.append(DATASET, &batch).unwrap();
        points.extend_from_slice(&batch);
        assert_eq!(reply.total, points.len());
        let outcome = (reply.repaired, reply.dropped);
        let want = if near { (0, 4) } else { (4, 0) };
        assert_eq!(outcome, want, "round {round}: the warmed entries");
        tail += batch.len();
        if tail as f64 > points.len() as f64 * APPEND_RESORT_FRACTION {
            (tail, resorts) = (0, resorts + 1);
        }

        let index = BruteForce::new(shared_points(points.iter().copied()));
        for (eps, minpts) in VARIANTS {
            let reply = client.submit(DATASET, eps, minpts, true).unwrap();
            if !near {
                assert!(reply.warm && reply.reused, "round {round}: an exact hit");
            }
            let want = dbscan(&index, DbscanParams::new(eps, minpts));
            let want: Vec<u32> = want.labels().iter_raw().collect();
            assert_core_isomorphic(&reply.labels.unwrap(), &want, &points, eps, minpts);
        }
    }
    assert_eq!(resorts, 1, "the feed crosses one re-sort");
    client.quit();
    server.shutdown();
}
