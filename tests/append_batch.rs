//! Append ≅ batch: a daemon fed `APPEND`s answers every `SUBMIT` as a
//! from-scratch DBSCAN over the accumulated points would — whether the
//! cached entry behind the answer was extended in place, re-keyed by a
//! re-sort, or dropped and computed again — and so does the daemon
//! restored from the store it persisted.

use std::time::Duration;

use vbp::variantdbscan::{Engine, EngineConfig, APPEND_RESORT_FRACTION};
use vbp::vbp_data::DatasetSpec;
use vbp::vbp_dbscan::{core_flags, core_isomorphic, dbscan, DbscanParams};
use vbp::vbp_geom::Point2;
use vbp::vbp_rtree::{shared_points, BruteForce};
use vbp::vbp_service::{boot_from_store, Client, Registry, Server, ServiceConfig};

const DATASET: &str = "cF_10k_5N@300";
/// The warmed variants, `(ε, minpts)`.
const VARIANTS: [(f64, usize); 4] = [(2.0, 4), (2.5, 4), (2.0, 8), (3.0, 6)];

/// A 5 × 5 clump of appended points, far from the dataset and from the
/// clumps of other rounds.
fn far_clump(round: usize) -> Vec<Point2> {
    let o = -100.0 - 40.0 * round as f64;
    (0..25)
        .map(|i| Point2::new(o + (i % 5) as f64 * 0.5, o + (i / 5) as f64 * 0.5))
        .collect()
}

/// Every warmed variant, with labels, against a from-scratch DBSCAN over
/// `points`; `warm` additionally demands each answer be a cache hit.
fn assert_answers_as_batch(client: &mut Client, points: &[Point2], warm: bool, ctx: &str) {
    let index = BruteForce::new(shared_points(points.iter().copied()));
    for (eps, minpts) in VARIANTS {
        let reply = client.submit(DATASET, eps, minpts, true).unwrap();
        if warm {
            assert!(
                reply.warm && reply.reused,
                "{ctx}: ({eps}, {minpts}) is a hit"
            );
        }
        let params = DbscanParams::new(eps, minpts);
        let want = dbscan(&index, params);
        core_isomorphic(
            want.labels().as_raw(),
            &reply.labels.unwrap(),
            &core_flags(&index, params),
        )
        .unwrap_or_else(|e| panic!("{ctx}: ({eps}, {minpts}): {e}"));
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
            far_clump(round)
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

        assert_answers_as_batch(&mut client, &points, !near, &format!("round {round}"));
    }
    assert_eq!(resorts, 1, "the feed crosses one re-sort");
    client.quit();
    server.shutdown();
}

/// Restore ≅ fresh: a store-backed daemon appends across a re-sort and
/// shuts down with an unsorted tail; the daemon booted from that store
/// holds the same points and answers every warmed variant warm, as a
/// from-scratch DBSCAN would. The persisted index is a grown handle whose
/// columns other generations shared, so this also pins that a snapshot
/// writes the handle's own points only.
#[test]
fn a_restored_daemon_answers_as_a_fresh_one_after_appends() {
    let dir =
        std::env::temp_dir().join(format!("vbp-restore-after-appends-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Restores from `dir` (cold on the first boot) and persists back to
    // it on shutdown.
    let boot = || {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let (registry, seed) = boot_from_store(&engine, &[DATASET.to_string()], &dir).unwrap();
        let config = ServiceConfig {
            batch_window: Duration::ZERO,
            store_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let server = Server::start_with_store(engine, registry, config, seed).unwrap();
        let client = Client::connect(server.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        (server, client)
    };

    let mut points = DatasetSpec::by_name(DATASET).unwrap().generate();
    let (mut server, mut client) = boot();
    for (eps, minpts) in VARIANTS {
        client.submit(DATASET, eps, minpts, false).unwrap();
    }
    let (mut tail, mut resorts, mut round) = (0, 0, 0);
    while resorts == 0 || tail == 0 {
        let batch = far_clump(round);
        client.append(DATASET, &batch).unwrap();
        points.extend_from_slice(&batch);
        tail += batch.len();
        if tail as f64 > points.len() as f64 * APPEND_RESORT_FRACTION {
            (tail, resorts) = (0, resorts + 1);
        }
        round += 1;
    }
    assert_eq!(server.dataset_points(DATASET).unwrap(), points);
    client.quit();
    server.shutdown(); // persists: flushes the tail, writes the store

    let (mut server, mut client) = boot();
    let stats = server.stats_json();
    assert!(
        stats.contains("\"store_restored\":1"),
        "restores warm: {stats}"
    );
    assert_eq!(server.dataset_points(DATASET).unwrap(), points);
    assert_answers_as_batch(&mut client, &points, true, "restored");
    client.quit();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
