//! `serve_hot`: a router in front of two daemons, every request a cache
//! hit.
//!
//! Scripts and the router's own pools call the daemon and wait for the
//! reply, so this is a closed loop: `T` keep-alive `HttpClient`s, each
//! sending its next submit when the last one is answered. Four small
//! datasets are placed by the consistent-hash ring, two on each daemon;
//! each is asked for the same eight variants around its k-dist knee, all
//! warmed once, so the 32 cached results (≈ 0.7 MB) sit far inside the
//! 64 MiB cache, and every client asks for all of them uniformly. The
//! engine does little here; the router hop, the HTTP codec, admission
//! and the batch window do the rest. Servers run in-process on loopback
//! with the configurations `vbp serve` and `vbp route` ship.

use std::net::TcpListener;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use variantdbscan::{Engine, EngineConfig, PreparedIndex, Variant, VariantSet};
use vbp_geom::Point2;
use vbp_service::{
    Client, DatasetService, HashRing, HttpClient, JsonValue, Registry, Router, RouterConfig,
    RouterHandle, Server, ServerHandle, ServiceConfig,
};

use crate::common::{
    end_to_end, ms_between, overhead_share, parse_stats, repeated_setup, stat, Ctx, Report, Tally,
};
use crate::inputs::{self, HotRequest, RequestStream};
use crate::metrics::Values;
use crate::oracle::{self, Reference};
use crate::probes;
use crate::quantile::{median, sorted, tail_or_zero};
use crate::spans::SpanLog;

/// Daemons behind the router, and datasets placed on each.
const BACKENDS: usize = 2;
const DATASETS_PER_BACKEND: usize = 2;

/// Requests per second of `--seconds` that each door replay sends.
const REPLAY_PER_SECOND: f64 = 60.0;

/// One (dataset, variant) a client may ask for.
struct Pair {
    dataset: String,
    variant: Variant,
    /// Index into `Fleet::backends` of the daemon the ring gives it to.
    owner: usize,
}

struct Fleet {
    backends: Vec<ServerHandle>,
    router: RouterHandle,
    pairs: Vec<Pair>,
    /// The daemons' HTTP addresses and the datasets the ring gave each,
    /// for the run record: both follow from the ports.
    placement: String,
}

/// Port the first daemon's HTTP door asks for; the next daemon asks for
/// the next port.
const BASE_PORT: u16 = 47611;

/// A loopback port for a daemon's HTTP door: `preferred`, or the next
/// one above it that is free. The addresses must be known before the
/// daemons start, because the ring hashes them to place datasets and a
/// daemon loads the datasets placed on it; and they should be the same
/// on every run, or the ring, and with it the datasets served, differ
/// from run to run under one seed. The run record names the ports used.
fn loopback_port(preferred: u16) -> u16 {
    (preferred..preferred.saturating_add(64))
        .find(|port| TcpListener::bind(("127.0.0.1", *port)).is_ok())
        .expect("a free loopback port")
}

impl Fleet {
    /// The daemons, each holding the datasets the ring places on it, the
    /// router in front, and all pairs asked once through the router so
    /// each owner's cache holds them.
    ///
    /// Dataset names are taken in order from `cF_10k_5N@5000, @5001, …`
    /// until every daemon owns [`DATASETS_PER_BACKEND`] of them: the
    /// placement is the ring's, and the load is balanced.
    fn boot(threads: usize) -> Fleet {
        let mut addrs: Vec<String> = Vec::new();
        let mut next_port = BASE_PORT;
        for _ in 0..BACKENDS {
            let port = loopback_port(next_port);
            addrs.push(format!("127.0.0.1:{port}"));
            next_port = port + 1;
        }
        let ring = HashRing::new(&addrs, RouterConfig::default().virtual_nodes);
        let mut owned: Vec<Vec<String>> = vec![Vec::new(); BACKENDS];
        for size in 5000.. {
            let name = format!("cF_10k_5N@{size}");
            let owner = ring.owner_index(&name);
            if owned[owner].len() < DATASETS_PER_BACKEND {
                owned[owner].push(name);
            }
            if owned.iter().all(|o| o.len() == DATASETS_PER_BACKEND) {
                break;
            }
        }

        let mut backends = Vec::new();
        let mut pairs = Vec::new();
        for (owner, (addr, names)) in addrs.iter().zip(&owned).enumerate() {
            let engine = Engine::new(EngineConfig::default().with_threads(threads));
            let registry = Registry::new();
            for name in names {
                registry.load(&engine, name).expect("a catalog dataset");
                let knee = registry
                    .get(name)
                    .and_then(|e| e.suggested_eps)
                    .expect("5000 points have a knee");
                pairs.extend(inputs::hot_grid(knee).into_iter().map(|variant| Pair {
                    dataset: name.clone(),
                    variant,
                    owner,
                }));
            }
            let config = ServiceConfig {
                http_addr: Some(addr.clone()),
                ..ServiceConfig::default()
            };
            backends.push(Server::start(engine, registry, config).expect("bind loopback"));
        }
        let router = Router::start(RouterConfig {
            backends: addrs.clone(),
            ..RouterConfig::default()
        })
        .expect("router binds loopback");

        // A request the router sends to the wrong daemon fails there as
        // an unknown dataset, here and in the timed loop.
        let mut client = HttpClient::connect(router.http_addr()).expect("connect to router");
        for p in &pairs {
            assert_eq!(router.placement(&p.dataset), addrs[p.owner]);
            client
                .submit(&p.dataset, p.variant.eps, p.variant.minpts, false)
                .expect("warming submit");
        }
        let placement = addrs
            .iter()
            .zip(&owned)
            .map(|(addr, names)| format!("{addr} serves {}", names.join(" ")))
            .collect::<Vec<_>>()
            .join("; ");
        Fleet {
            backends,
            router,
            pairs,
            placement,
        }
    }

    /// Each daemon's `stats_json`, parsed.
    fn stats(&self) -> Vec<JsonValue> {
        self.backends
            .iter()
            .map(|b| parse_stats(&b.stats_json()))
            .collect()
    }

    fn shutdown(mut self) {
        self.router.shutdown();
        for b in &mut self.backends {
            b.shutdown();
        }
    }
}

/// A counter summed over the daemons.
fn sum(stats: &[JsonValue], path: &[&str]) -> f64 {
    stats.iter().map(|s| stat(s, path)).sum()
}

/// What one load-generator thread brings back.
struct ClientRun {
    tally: Tally,
    plain_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    engine_ms: Vec<f64>,
    /// `(pair, labels)` of the replies that carried labels.
    labelled: Vec<(usize, Vec<u32>)>,
    log: SpanLog,
}

/// Sends `stream`'s requests until `stop` says so, timing each round
/// trip and checking each reply's census against the oracle. With one
/// door every request goes through it (the router); with one door per
/// backend a request goes to the door of the pair's owner.
#[allow(clippy::too_many_arguments)]
fn drive(
    doors: &mut [&mut dyn DatasetService],
    pairs: &[Pair],
    expected: &[Reference],
    stream: &mut RequestStream,
    mut stop: impl FnMut(u64) -> bool,
    span: Option<&'static str>,
    origin: Instant,
    op_base: u64,
) -> ClientRun {
    let mut run = ClientRun {
        tally: Tally::default(),
        plain_ms: Vec::new(),
        traced_ms: Vec::new(),
        engine_ms: Vec::new(),
        labelled: Vec::new(),
        log: SpanLog::new(origin),
    };
    let mut sent = 0u64;
    while !stop(sent) {
        let HotRequest {
            pair: i,
            want_labels,
        } = stream.next_request();
        let pair = &pairs[i];
        let traced = span.is_some() && sent.is_multiple_of(2);
        let start_ns = run.log.now_ns();
        let t0 = Instant::now();
        let door = if doors.len() == 1 { 0 } else { pair.owner };
        let reply = doors[door].submit(
            &pair.dataset,
            pair.variant.eps,
            pair.variant.minpts,
            want_labels,
        );
        let t1 = Instant::now();
        sent += 1;
        match reply {
            Ok(reply) => {
                let ms = ms_between(t0, t1);
                if let (true, Some(name)) = (traced, span) {
                    let end_ns = run.log.now_ns();
                    let op = op_base + sent;
                    let id = run.log.push(name, start_ns, end_ns, None, op);
                    run.log
                        .push_centred("service.engine", id, (reply.ms * 1e6) as u64, op);
                    run.traced_ms.push(ms);
                } else {
                    run.plain_ms.push(ms);
                }
                run.engine_ms.push(reply.ms);
                let want = &expected[i];
                run.tally.check(
                    if (reply.clusters, reply.noise) != (want.clusters, want.noise) {
                        Err(format!(
                            "{} {}: {} clusters, {} noise; the oracle has {} and {}",
                            pair.dataset,
                            pair.variant,
                            reply.clusters,
                            reply.noise,
                            want.clusters,
                            want.noise
                        ))
                    } else if !reply.warm {
                        Err(format!(
                            "{} {}: not a cache hit",
                            pair.dataset, pair.variant
                        ))
                    } else {
                        Ok(())
                    },
                );
                if let Some(labels) = reply.labels {
                    run.labelled.push((i, labels));
                }
            }
            Err(e) => run.tally.check(Err(format!("submit failed: {e}"))),
        }
    }
    run
}

pub fn run(ctx: &Ctx) -> Report {
    let (fleet, setup_s) = repeated_setup(
        ctx.started,
        ctx.setup_repeats(),
        || Fleet::boot(ctx.threads),
        Fleet::shutdown,
    );
    let mut tally = Tally::default();
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);

    // The oracle's side of every pair: a from-scratch clustering of the
    // points the owning daemon holds.
    let engine = Engine::new(EngineConfig::default().with_threads(ctx.threads));
    let mut indexes: Vec<(&str, Vec<Point2>, PreparedIndex)> = Vec::new();
    for p in &fleet.pairs {
        if indexes.iter().all(|(name, _, _)| *name != p.dataset) {
            let points = fleet.backends[p.owner]
                .dataset_points(&p.dataset)
                .expect("the owner holds the dataset");
            let index = engine.prepare(&points, None).expect("finite points");
            indexes.push((&p.dataset, points, index));
        }
    }
    let expected: Vec<Reference> = fleet
        .pairs
        .iter()
        .map(|p| {
            let (_, _, index) = indexes
                .iter()
                .find(|(name, _, _)| *name == p.dataset)
                .expect("every pair's dataset is indexed");
            oracle::reference(index, p.variant)
        })
        .collect();

    // The closed loop: T clients through the router.
    let window = Duration::from_secs_f64(ctx.workload_window());
    let router_addr = fleet.router.http_addr();
    let barrier = Barrier::new(ctx.threads);
    let opened = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads as u64)
            .map(|id| {
                let (pairs, expected, barrier) = (&fleet.pairs, &expected, &barrier);
                let span = ctx.trace.then_some("service.routed_submit");
                let mut stream = RequestStream::new(ctx.seed, id, fleet.pairs.len());
                scope.spawn(move || {
                    let mut client = HttpClient::connect(router_addr).expect("connect to router");
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    drive(
                        &mut [&mut client],
                        pairs,
                        expected,
                        &mut stream,
                        |_| Instant::now() >= deadline,
                        span,
                        origin,
                        id << 32,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load-generator thread panicked"))
            .collect()
    });
    let wall = opened.elapsed().as_secs_f64();

    let (mut plain_ms, mut traced_ms, mut engine_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut labelled = Vec::new();
    for r in runs {
        tally.merge(r.tally);
        plain_ms.extend(r.plain_ms);
        traced_ms.extend(r.traced_ms);
        engine_ms.extend(r.engine_ms);
        labelled.extend(r.labelled);
        log.merge(r.log);
    }
    let e2e = (!ctx.trace).then(|| end_to_end(setup_s, &plain_ms, wall));
    for (i, labels) in &labelled {
        let p = &fleet.pairs[*i];
        tally.check(
            oracle::isomorphic(&expected[*i], labels)
                .map_err(|e| format!("{} {}: {e}", p.dataset, p.variant)),
        );
    }

    // Nothing was refused behind the router.
    let refused = sum(&fleet.stats(), &["rejected_overloaded"]);
    tally.check(if refused > 0.0 {
        Err(format!("{refused} submits were refused as overloaded"))
    } else {
        Ok(())
    });

    let all_ms = sorted(plain_ms.iter().chain(&traced_ms).copied().collect());
    let submit_p50 = median(&all_ms);
    let engine_p50 = median(&sorted(engine_ms));
    tally.check(if engine_p50 * 3.0 < submit_p50 {
        Ok(())
    } else {
        Err(format!(
            "engine {engine_p50:.3} ms is not under a third of the {submit_p50:.3} ms round trip"
        ))
    });

    let notes = vec![fleet.placement.clone()];
    if let Some(values) = e2e {
        fleet.shutdown();
        return Report {
            tally,
            values,
            spans: None,
            notes,
        };
    }

    let mut values = Values::default();
    values.set("trace.overhead_share", overhead_share(plain_ms, traced_ms));
    values.set("service.engine_ms_p50", engine_p50);
    values.set("service.submit_p90_ms", tail_or_zero(&all_ms, 0.90));
    values.set("service.submit_p99_ms", tail_or_zero(&all_ms, 0.99));

    // One client replays one request stream against the owner's line
    // door, the owner's HTTP door, and the router: the differences are
    // what each door adds.
    let replay = (REPLAY_PER_SECOND * ctx.seconds).ceil() as u64;
    let mut line: Vec<Client> = Vec::new();
    let mut http: Vec<HttpClient> = Vec::new();
    for b in &fleet.backends {
        line.push(Client::connect(b.local_addr()).expect("connect to line door"));
        http.push(HttpClient::connect(b.http_addr().expect("http door is on")).expect("connect"));
    }
    let mut routed = HttpClient::connect(router_addr).expect("connect to router");
    let mut p50 = [0.0; 3];
    let replays: [(&'static str, &'static str, Vec<&mut dyn DatasetService>); 3] = [
        (
            "service.line_submit_p50_ms",
            "service.line_submit",
            line.iter_mut().map(|c| c as _).collect(),
        ),
        (
            "service.http_submit_p50_ms",
            "service.http_submit",
            http.iter_mut().map(|c| c as _).collect(),
        ),
        (
            "service.routed_submit_p50_ms",
            "service.routed_replay",
            vec![&mut routed],
        ),
    ];
    for (k, (metric, span, mut doors)) in replays.into_iter().enumerate() {
        let mut stream = RequestStream::new(ctx.seed, 0, fleet.pairs.len());
        let r = drive(
            &mut doors,
            &fleet.pairs,
            &expected,
            &mut stream,
            |sent| sent >= replay,
            Some(span),
            origin,
            (8 + k as u64) << 32,
        );
        tally.merge(r.tally);
        p50[k] = median(&sorted(
            r.plain_ms.iter().chain(&r.traced_ms).copied().collect(),
        ));
        values.set(metric, p50[k]);
        log.merge(r.log);
    }
    values.set("service.door_wait_ms", p50[0] - engine_p50);
    values.set("service.http_over_line_ms", p50[1] - p50[0]);
    values.set("service.router_hop_ms", p50[2] - p50[1]);

    // A submit reply body as the router receives it from a backend.
    let p = &fleet.pairs[0];
    let body = variantdbscan::JsonObject::new()
        .str("dataset", &p.dataset)
        .float("eps", p.variant.eps)
        .uint("minpts", p.variant.minpts as u64)
        .finish();
    let reply = http[p.owner]
        .post("/v1/submit", &body)
        .expect("raw submit for the JSON probe");
    probes::json_parse(reply.body_str().as_bytes(), &mut values, &mut log);
    probes::cache(&mut values, &mut log);

    // Final counters, after the replays.
    let stats = fleet.stats();
    let sum = |path: &[&str]| sum(&stats, path);
    let max_batch = stats
        .iter()
        .map(|s| stat(s, &["max_batch"]))
        .fold(0.0, f64::max);
    let (hits, misses) = (sum(&["cache", "hits"]), sum(&["cache", "misses"]));
    values.set("service.cache_hit_share", hits / (hits + misses).max(1.0));
    values.set(
        "service.reuse_hit_share",
        sum(&["reuse_hits"]) / sum(&["completed"]).max(1.0),
    );
    values.set("service.batches", sum(&["batches"]));
    values.set("service.max_batch", max_batch);
    values.set("service.cache_evictions", sum(&["cache", "evictions"]));
    values.set("service.rejected_overloaded", sum(&["rejected_overloaded"]));

    // The layers under the service, on the first dataset's points.
    let (name, points, index) = &indexes[0];
    let grid: Vec<Variant> = fleet
        .pairs
        .iter()
        .filter(|p| p.dataset == *name)
        .map(|p| p.variant)
        .collect();
    probes::rtree(
        points,
        grid[grid.len() / 2].eps,
        ctx.seed,
        &mut values,
        &mut log,
    );
    let scratch = probes::core_reuse(
        EngineConfig::default(),
        index,
        &VariantSet::new(grid),
        &mut values,
        &mut log,
    );
    probes::dbscan_kernels(index.t_low(), &scratch, ctx.threads, &mut values, &mut log);

    values.set("trace.spans", log.spans.len() as f64);
    fleet.shutdown();
    Report {
        tally,
        values,
        spans: Some(log),
        notes,
    }
}
