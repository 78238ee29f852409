//! Router equivalence — the scale-out counterpart of `loopback_smoke`.
//!
//! Fronts two (or three) in-process daemons with a consistent-hash
//! router and checks the properties the router exists for:
//!
//! 1. **Correctness through the proxy** — label vectors served via the
//!    router are label-isomorphic to a direct `Engine::run`, and an
//!    identical resubmission is answered warm (placement is sticky, so
//!    the dominance cache on the owning backend keeps paying off);
//! 2. **Deterministic placement** — every request for a dataset lands
//!    on the ring owner [`RouterHandle::placement`] names, observable
//!    as per-backend `STATS` deltas;
//! 3. **Merge semantics** — fanned-out `/v1/stats` and `/metrics`
//!    documents equal the per-backend sums at rest and satisfy the
//!    daemon's own admission invariant;
//! 4. **Quorum health** — `/healthz` degrades and then goes
//!    unavailable as backends die, without lying about who is up.
//!
//! Deployment model: every backend registers the full catalog (the
//! tests cannot pre-compute ephemeral ports into a placement plan), and
//! the ring alone decides who serves what.

mod common;

use std::time::Duration;

use common::{assert_stats_consistent, field_u64, metric_u64, start_server, Watchdog};
use variantdbscan::{Engine, RunReport, RunRequest, VariantSet};
use vbp_dbscan::{core_flags, core_isomorphic, suggest_eps, DbscanParams};
use vbp_geom::Point2;
use vbp_rtree::{shared_points, BruteForce, PackedRTree};
use vbp_service::{
    DatasetService, HttpClient, JsonValue, Router, RouterConfig, RouterHandle, ServerHandle,
    ServiceConfig,
};

const DATASETS: [&str; 2] = ["cF_10k_5N@600", "SW1@600"];

/// One backend daemon with the full catalog and an HTTP door.
fn backend(datasets: &[&str]) -> ServerHandle {
    start_server(
        datasets,
        2,
        ServiceConfig {
            cache_bytes: 64 << 20,
            batch_window: Duration::ZERO,
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    )
}

/// A router over the given backends' HTTP doors.
fn router_over(backends: &[&ServerHandle]) -> RouterHandle {
    let addrs = backends
        .iter()
        .map(|b| b.http_addr().expect("backend http door").to_string())
        .collect();
    let config = RouterConfig {
        backends: addrs,
        ..RouterConfig::default()
    };
    config.validate().expect("valid router config");
    Router::start(config).expect("router binds")
}

fn connect(handle: &RouterHandle) -> HttpClient {
    let mut http = HttpClient::connect(handle.http_addr()).expect("connect to router");
    http.set_timeout(Some(Duration::from_secs(120))).unwrap();
    http
}

/// One direct single-variant engine run — the per-request oracle.
fn direct_run(engine: &Engine, points: &[Point2], eps: f64, minpts: usize) -> RunReport {
    let variants = VariantSet::new(vec![variantdbscan::Variant::new(eps, minpts)]);
    engine
        .execute(&RunRequest::new(points, &variants))
        .expect("direct oracle run")
}

/// Variant grid scaled off the dataset's k-dist knee.
fn workload(points: &[Point2]) -> Vec<(f64, usize)> {
    let (tree, _) = PackedRTree::build(points, 16);
    let base = suggest_eps(&tree, 4, 1).expect("dataset has a knee");
    let mut variants = Vec::new();
    for scale in [0.8, 1.0, 1.2, 1.5, 2.0] {
        for minpts in [4usize, 8] {
            variants.push((base * scale, minpts));
        }
    }
    variants
}

#[test]
fn routed_workload_is_label_isomorphic_and_lands_on_the_ring_owner() {
    let _wd = Watchdog::arm("router-equivalence-workload", Duration::from_secs(300));
    let mut backends = [backend(&DATASETS), backend(&DATASETS)];
    let mut router = router_over(&[&backends[0], &backends[1]]);
    let mut http = connect(&router);

    for name in DATASETS {
        let owner = router.placement(name);
        let owner_idx = backends
            .iter()
            .position(|b| b.http_addr().unwrap().to_string() == owner)
            .expect("placement names a configured backend");
        let before: Vec<u64> = backends
            .iter()
            .map(|b| field_u64(&b.stats_json(), "submitted"))
            .collect();

        let points = vbp_data::DatasetSpec::by_name(name).unwrap().generate();
        let engine = Engine::new(common::engine_config(2));
        let variants = workload(&points);
        let brute = BruteForce::new(shared_points(points.iter().copied()));

        // Cold round through the router: every reply label-isomorphic
        // to the direct engine over the same points.
        for (i, &(eps, minpts)) in variants.iter().enumerate() {
            let reply = http.submit(name, eps, minpts, true).unwrap();
            let direct = direct_run(&engine, &points, eps, minpts);
            assert_eq!(reply.clusters, direct.results[0].num_clusters());
            assert_eq!(reply.noise, direct.results[0].noise_count());
            let core = core_flags(&brute, DbscanParams::new(eps, minpts));
            let served = reply.labels.unwrap();
            core_isomorphic(&direct.result_in_caller_order(0), &served, &core).unwrap_or_else(
                |e| panic!("{name} via router, variant {i} ({eps:.3}, {minpts}): {e}"),
            );
        }

        // Sticky placement means the owner's dominance cache answers
        // identical resubmissions warm — through the router too.
        for &(eps, minpts) in variants.iter().take(3) {
            let reply = http.submit(name, eps, minpts, false).unwrap();
            assert!(reply.warm, "{name}: resubmission missed the owner's cache");
        }

        // Every request for this dataset landed on the ring owner and
        // nowhere else.
        for (i, b) in backends.iter().enumerate() {
            let delta = field_u64(&b.stats_json(), "submitted") - before[i];
            let expected = if i == owner_idx {
                variants.len() as u64 + 3
            } else {
                0
            };
            assert_eq!(
                delta, expected,
                "{name}: backend {i} saw {delta} submits (owner is backend {owner_idx})"
            );
        }
    }

    // The router's own ledger balances once it quiesces. The handler
    // thread books end-of-request *after* writing the response bytes,
    // so the client can observe its last reply a beat before the
    // ledger settles — wait out that window, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let ledger = loop {
        let ledger = router.stats_json();
        if field_u64(&ledger, "in_flight") == 0 {
            break ledger;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "router never quiesced: {ledger}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        field_u64(&ledger, "received"),
        field_u64(&ledger, "answered_ok") + field_u64(&ledger, "answered_err"),
        "router ledger out of balance: {ledger}"
    );

    router.shutdown();
    for b in &mut backends {
        b.shutdown();
    }
}

#[test]
fn fanned_out_stats_and_metrics_equal_per_backend_sums_at_rest() {
    let _wd = Watchdog::arm("router-equivalence-merge", Duration::from_secs(240));
    let mut backends = [backend(&DATASETS), backend(&DATASETS)];
    let mut router = router_over(&[&backends[0], &backends[1]]);
    let mut http = connect(&router);

    // A small mixed workload so both counters move: three variants per
    // dataset plus one append, all through the router.
    for name in DATASETS {
        let points = vbp_data::DatasetSpec::by_name(name).unwrap().generate();
        for &(eps, minpts) in workload(&points).iter().take(3) {
            http.submit(name, eps, minpts, false).unwrap();
        }
    }
    let extra: Vec<Point2> = (0..4)
        .map(|i| Point2::new(0.01 * i as f64, 0.02 * i as f64))
        .collect();
    let before_appends: Vec<u64> = backends
        .iter()
        .map(|b| field_u64(&b.stats_json(), "appends"))
        .collect();
    let reply = http.append(DATASETS[1], &extra).unwrap();
    assert_eq!(reply.appended, 4);
    assert_eq!(reply.total, 604);
    let owner = router.placement(DATASETS[1]);
    for (i, b) in backends.iter().enumerate() {
        let delta = field_u64(&b.stats_json(), "appends") - before_appends[i];
        let expected = u64::from(b.http_addr().unwrap().to_string() == owner);
        assert_eq!(delta, expected, "append landed off the ring owner");
    }

    // At rest: the merged stats document satisfies the daemon's own
    // admission invariant, and its counters are exactly the per-backend
    // sums.
    let backend_stats: Vec<String> = backends.iter().map(|b| b.stats_json()).collect();
    let merged = http.get("/v1/stats").unwrap();
    assert_eq!(merged.status, 200);
    let merged = merged.body_str().to_string();
    assert_stats_consistent(&merged, "merged router stats");
    for field in [
        "submitted",
        "completed",
        "failed",
        "appends",
        "append_points",
    ] {
        let sum: u64 = backend_stats.iter().map(|s| field_u64(s, field)).sum();
        assert_eq!(
            field_u64(&merged, field),
            sum,
            "merged `{field}` is not the per-backend sum"
        );
    }

    // Same for the Prometheus exposition: series sum name-wise, the
    // router appends its own ledger and a per-backend up gauge.
    let backend_metrics: Vec<String> = backends
        .iter()
        .map(|b| {
            let mut direct = HttpClient::connect(b.http_addr().unwrap()).unwrap();
            direct.metrics().unwrap()
        })
        .collect();
    let scrape = http.get("/metrics").unwrap();
    assert_eq!(scrape.status, 200);
    let scrape = scrape.body_str();
    for name in [
        "vbp_jobs_submitted_total",
        "vbp_jobs_completed_total",
        "vbp_append_batches_total",
    ] {
        let sum: u64 = backend_metrics.iter().map(|m| metric_u64(m, name)).sum();
        assert_eq!(
            metric_u64(scrape, name),
            sum,
            "merged `{name}` is not the per-backend sum"
        );
    }
    assert!(metric_u64(scrape, "vbp_router_received_total") > 0);
    for b in &backends {
        let gauge = format!("vbp_backend_up{{backend=\"{}\"}}", b.http_addr().unwrap());
        assert_eq!(metric_u64(scrape, &gauge), 1, "live backend reported down");
    }

    // The merged catalog annotates each dataset with its ring owner,
    // and the dataset-scoped GET proxies to that owner.
    let listing = http.get("/v1/datasets").unwrap();
    assert_eq!(listing.status, 200);
    let doc = listing.json().unwrap();
    let entries = doc.get("datasets").and_then(JsonValue::as_array).unwrap();
    assert_eq!(entries.len(), DATASETS.len());
    for entry in entries {
        let name = entry.get("name").and_then(JsonValue::as_str).unwrap();
        assert_eq!(
            entry.get("backend").and_then(JsonValue::as_str).unwrap(),
            router.placement(name),
            "catalog annotation disagrees with the ring"
        );
    }
    let scoped = http.get(&format!("/v1/datasets/{}", DATASETS[1])).unwrap();
    assert_eq!(scoped.status, 200);
    let doc = scoped.json().unwrap();
    assert_eq!(
        doc.get("name").and_then(JsonValue::as_str),
        Some(DATASETS[1])
    );
    assert_eq!(doc.get("points").and_then(JsonValue::as_f64), Some(604.0));
    assert_eq!(
        doc.get("backend").and_then(JsonValue::as_str).unwrap(),
        router.placement(DATASETS[1])
    );
    let missing = http.get("/v1/datasets/not-registered").unwrap();
    assert_eq!(missing.status, 404);
    assert!(
        missing.body_str().contains("unknown-dataset"),
        "404 must carry the typed code: {}",
        missing.body_str()
    );

    router.shutdown();
    for b in &mut backends {
        b.shutdown();
    }
}

#[test]
fn healthz_quorum_degrades_then_goes_unavailable_as_backends_die() {
    let _wd = Watchdog::arm("router-equivalence-quorum", Duration::from_secs(240));
    let mut backends = [
        backend(&DATASETS[..1]),
        backend(&DATASETS[..1]),
        backend(&DATASETS[..1]),
    ];
    let mut router = router_over(&[&backends[0], &backends[1], &backends[2]]);
    let mut http = connect(&router);

    let probe = |http: &mut HttpClient| {
        let resp = http.get("/healthz").unwrap();
        let doc = resp.json().unwrap();
        (
            resp.status,
            doc.get("status")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string(),
            doc.get("backends_up").and_then(JsonValue::as_f64).unwrap() as usize,
        )
    };

    // All three up: ok.
    assert_eq!(probe(&mut http), (200, "ok".into(), 3));

    // Two of three is a strict majority: degraded but still serving.
    backends[2].shutdown();
    assert_eq!(probe(&mut http), (200, "degraded".into(), 2));

    // One of three is below quorum: unavailable, 503.
    backends[1].shutdown();
    assert_eq!(probe(&mut http), (503, "unavailable".into(), 1));

    router.shutdown();
    backends[0].shutdown();
}
