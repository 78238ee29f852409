//! `vbp route` — a consistent-hash router for many-daemon scale-out.
//!
//! One daemon's warm state (prepared indexes, dominance cache) is the
//! whole point of the service tier, and it does not shard itself: a
//! dataset's requests must keep landing on the daemon holding that
//! dataset's investment. The router is the thin process that makes a
//! fleet of daemons look like one: it speaks the exact HTTP surface of
//! the gateway ([`crate::http`]), hashes the `dataset` of every
//! dataset-scoped request onto a static consistent-hash ring
//! ([`HashRing`]) of backend daemons, and proxies the exchange over a
//! bounded per-backend connection pool ([`BackendPool`]).
//!
//! # Route classes
//!
//! | route                       | behaviour                               |
//! |-----------------------------|-----------------------------------------|
//! | `POST /v1/submit`           | parse → hash `dataset` → proxy to owner |
//! | `POST /v1/append`           | parse → hash `dataset` → proxy to owner |
//! | `GET /v1/datasets/<name>`   | hash `<name>` → ask the owner           |
//! | `GET /v1/datasets`          | fan out, merge (owner's entry wins)     |
//! | `GET /v1/stats`             | fan out, sum counters + router section  |
//! | `GET /metrics`              | fan out, sum series + `vbp_backend_*`   |
//! | `GET /healthz`              | probe all, answer by quorum             |
//!
//! The router is a second handler behind the gateway's own front end
//! (`serve_http`, `Route`) and speaks the gateway's own JSON
//! ([`crate::wire`]): bodies are parsed *at the router*, so a malformed
//! submit costs a local `400` and never touches a backend, and proxied
//! replies are re-rendered from the typed
//! [`DatasetService`] reply. The one field
//! that does not survive the hop is the submit `report` embed (the
//! trait reply does not carry it — scrape a backend directly when you
//! want its RunReport).
//!
//! # Degradation
//!
//! A dead backend takes down *its* datasets only: their requests answer
//! a typed `503 {"error":"unavailable"}` with a `Retry-After` header
//! (a code no daemon ever emits, so callers can tell "my dataset's
//! shard is down" from "the shard is overloaded/draining"). The ring is
//! static — ownership never migrates at runtime, because the survivors
//! never registered the dead backend's datasets and a silent remap
//! would fork append streams. Fan-out reads skip dead backends and say
//! so (`"up": false` in `/v1/stats`, `vbp_backend_up 0` in `/metrics`,
//! quorum in `/healthz`).
//!
//! # Counters
//!
//! The router keeps its own admission ledger under one lock with the
//! same shape the daemon pins in its test suite:
//! `received == answered_ok + answered_err + in_flight`, with framing
//! violations counted separately as `protocol_errors`. Summed backend
//! counters — merged row by row over the daemon's own counter table
//! ([`crate::daemon::counters`]) — stay internally consistent too: each
//! backend snapshot satisfies the admission invariant on its own, so
//! any sum of snapshots does as well — which is why the merged
//! `/v1/stats` document passes the exact invariant check the per-daemon
//! stats do.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use variantdbscan::{parse_json, JsonArray, JsonObject, JsonValue};

use crate::api::{DatasetService, ErrorCode, Health, Rejection};
use crate::client::ClientError;
use crate::daemon::{Merge, JOB_COUNTERS, JOB_TIMEOUT, STREAM_COUNTERS};
use crate::http::{serve_http, Exchange, HttpClient, Response, Route};
use crate::pool::{
    BackendPool, PoolError, PooledService, BREAKER_COOLDOWN, BREAKER_THRESHOLD, CHECKOUT_TIMEOUT,
};
use crate::ring::HashRing;
use crate::transport::{join_handlers, spawn_accept_loop, Handlers, Transport};
use crate::wire;

/// Router configuration: one field per `vbp route` flag (`--http`,
/// `--backends`, `--vnodes`, `--pool`). Check one with
/// [`RouterConfig::validate`]. Its door shares the daemon's
/// [`POLL_INTERVAL`](crate::transport::POLL_INTERVAL) and
/// [`WRITE_TIMEOUT`](crate::transport::WRITE_TIMEOUT);
/// backend connections read with the daemon's [`JOB_TIMEOUT`], and each
/// pool checks out and breaks on [`crate::pool`]'s constants.
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Bind address of the router's HTTP door; port 0 for ephemeral.
    pub http_addr: String,
    /// Backend daemon HTTP (gateway) addresses. Order is placement-
    /// relevant only through the vnode hashes, but keep it stable
    /// across restarts anyway — it is part of the deployment's
    /// identity.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the ring (spread granularity).
    pub virtual_nodes: usize,
    /// Connection-pool cap per backend.
    pub pool_per_backend: usize,
}

impl Default for RouterConfig {
    fn default() -> Self {
        Self {
            http_addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            virtual_nodes: 64,
            pool_per_backend: 8,
        }
    }
}

/// The router's own admission ledger, kept under one lock so the
/// invariant `received == answered_ok + answered_err + in_flight` is
/// never observably violated.
#[derive(Clone, Copy, Debug, Default)]
struct RouterStats {
    received: u64,
    answered_ok: u64,
    answered_err: u64,
    in_flight: u64,
    protocol_errors: u64,
    proxied: u64,
    fanouts: u64,
}

impl RouterStats {
    /// The ledger as `(stats key, Prometheus series, value)` rows.
    fn rows(&self) -> [(&'static str, &'static str, u64); 7] {
        [
            ("received", "vbp_router_received_total", self.received),
            (
                "answered_ok",
                "vbp_router_answered_ok_total",
                self.answered_ok,
            ),
            (
                "answered_err",
                "vbp_router_answered_err_total",
                self.answered_err,
            ),
            ("in_flight", "vbp_router_in_flight", self.in_flight),
            (
                "protocol_errors",
                "vbp_router_protocol_errors_total",
                self.protocol_errors,
            ),
            ("proxied", "vbp_router_proxied_total", self.proxied),
            ("fanouts", "vbp_router_fanouts_total", self.fanouts),
        ]
    }
}

struct RouterShared {
    ring: HashRing,
    /// One pool per backend, parallel to `ring.backends()`.
    pools: Vec<BackendPool>,
    stats: Mutex<RouterStats>,
    started: Instant,
    draining: AtomicBool,
}

impl RouterShared {
    fn new(config: &RouterConfig) -> RouterShared {
        let ring = HashRing::new(&config.backends, config.virtual_nodes);
        let pools = config
            .backends
            .iter()
            .map(|addr| {
                let dial_addr = addr.clone();
                BackendPool::new(
                    addr.clone(),
                    config.pool_per_backend,
                    CHECKOUT_TIMEOUT,
                    BREAKER_THRESHOLD,
                    BREAKER_COOLDOWN,
                    Box::new(move || {
                        let mut client = HttpClient::connect(dial_addr.as_str())?;
                        client.set_timeout(Some(JOB_TIMEOUT))?;
                        Ok(Box::new(client) as PooledService)
                    }),
                )
            })
            .collect();
        RouterShared {
            ring,
            pools,
            stats: Mutex::new(RouterStats::default()),
            started: Instant::now(),
            draining: AtomicBool::new(false),
        }
    }

    fn stats(&self) -> MutexGuard<'_, RouterStats> {
        self.stats.lock().expect("router stats lock poisoned")
    }

    fn owner_pool(&self, dataset: &str) -> &BackendPool {
        &self.pools[self.ring.owner_index(dataset)]
    }

    fn begin_request(&self) {
        let mut s = self.stats();
        s.received += 1;
        s.in_flight += 1;
    }

    fn end_request(&self, ok: bool) {
        let mut s = self.stats();
        s.in_flight -= 1;
        if ok {
            s.answered_ok += 1;
        } else {
            s.answered_err += 1;
        }
    }

    fn note_protocol_error(&self) {
        self.stats().protocol_errors += 1;
    }

    fn note_proxied(&self) {
        self.stats().proxied += 1;
    }

    fn note_fanout(&self) {
        self.stats().fanouts += 1;
    }

    /// The `"router"` object embedded in `/v1/stats`: the admission
    /// ledger plus per-backend pool counters.
    fn router_json(&self) -> String {
        let s = *self.stats();
        let mut backends = JsonArray::new();
        for pool in &self.pools {
            let head = JsonObject::new()
                .str("backend", pool.addr())
                .boolean("breaker_open", pool.breaker_open());
            let rows = pool.counters().rows().into_iter();
            backends.push_raw(
                &rows
                    .fold(head, |doc, (key, value)| doc.uint(key, value))
                    .finish(),
            );
        }
        let ledger = s.rows().into_iter();
        ledger
            .fold(JsonObject::new(), |doc, (key, _, value)| {
                doc.uint(key, value)
            })
            .raw("pools", &backends.finish())
            .finish()
    }

    /// Fans one closure out to every backend, answering
    /// `(addr, Some(result))` for live ones and `(addr, None)` for
    /// unreachable ones. Serial on purpose: the fleet sizes this
    /// router targets (a handful of daemons) do not justify a thread
    /// per probe, and a dead backend costs at most one bounded
    /// connect-timeout (then its breaker fast-fails).
    fn fan_out<R>(
        &self,
        mut f: impl FnMut(&mut dyn DatasetService) -> Result<R, ClientError>,
    ) -> Vec<(String, Option<R>)> {
        self.note_fanout();
        self.pools
            .iter()
            .map(|pool| {
                let got = pool.with_conn(&mut f).ok();
                (pool.addr().to_string(), got)
            })
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Merging
// ---------------------------------------------------------------------------

/// One merged metric sample: integer counters sum exactly; anything
/// that ever carried a decimal point sums as a float.
#[derive(Clone, Copy, Debug, PartialEq)]
enum MetricValue {
    Uint(u64),
    Float(f64),
}

impl MetricValue {
    fn add(&mut self, other: MetricValue) {
        *self = match (*self, other) {
            (MetricValue::Uint(a), MetricValue::Uint(b)) => MetricValue::Uint(a + b),
            (a, b) => MetricValue::Float(a.as_f64() + b.as_f64()),
        };
    }

    fn as_f64(self) -> f64 {
        match self {
            MetricValue::Uint(v) => v as f64,
            MetricValue::Float(v) => v,
        }
    }
}

/// Sums expositions line-wise: `name{labels} value` series with the
/// same name sum across backends; first-seen order is kept so the
/// merged document reads like a daemon's. Unparseable lines are
/// dropped (the daemon never emits any; a torn scrape already failed
/// at the pool layer).
fn merge_metric_texts<'a>(texts: impl Iterator<Item = &'a str>) -> Vec<(String, MetricValue)> {
    let mut order: Vec<String> = Vec::new();
    let mut merged: HashMap<String, MetricValue> = HashMap::new();
    for text in texts {
        for line in text.lines() {
            let Some((name, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let parsed = if value.contains(['.', 'e', 'E']) {
                value.parse::<f64>().ok().map(MetricValue::Float)
            } else {
                value.parse::<u64>().ok().map(MetricValue::Uint)
            };
            let Some(parsed) = parsed else { continue };
            match merged.get_mut(name) {
                Some(v) => v.add(parsed),
                None => {
                    order.push(name.to_string());
                    merged.insert(name.to_string(), parsed);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|name| {
            let v = merged[&name];
            (name, v)
        })
        .collect()
}

/// The quorum rule `/healthz` answers by: all up is `ok`, a strict
/// majority is `degraded` (still `200` — the fleet is serving), and
/// anything below quorum is `unavailable` with `503`.
fn quorum_status(up: usize, total: usize) -> (&'static str, u16) {
    let quorum = total / 2 + 1;
    if up == total {
        ("ok", 200)
    } else if up >= quorum {
        ("degraded", 200)
    } else {
        ("unavailable", 503)
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

/// Runs the router's door over one connection: the shared HTTP front
/// end, this router's handler, and its admission ledger.
fn serve_router<T: Transport>(transport: T, shared: &RouterShared, stop: &AtomicBool) {
    serve_http(
        transport,
        stop,
        |route, body| route_request(shared, route, body),
        |exchange| match exchange {
            Exchange::Malformed => shared.note_protocol_error(),
            Exchange::Begin => shared.begin_request(),
            // A failed write never reached the client, but the request
            // was handled: it lands on the error side of the ledger.
            Exchange::End { ok } => shared.end_request(ok),
        },
    );
}

/// Maps a failed proxied exchange onto a typed refusal: every shape
/// lands on a code with the right status, and everything retryable-later
/// carries a `Retry-After`.
fn pool_rejection(e: PoolError) -> Rejection {
    match e {
        PoolError::Busy => {
            Rejection::retry_in(ErrorCode::Overloaded, 1, "router connection pool busy")
        }
        PoolError::Unavailable { message } => {
            Rejection::retry_in(ErrorCode::Unavailable, 1, &message)
        }
        PoolError::Service(ClientError::Overloaded {
            retry_after,
            message,
        }) => Rejection {
            code: ErrorCode::Overloaded,
            message,
            retry_after: Some(retry_after.map_or(1, |d| d.as_secs().max(1))),
        },
        PoolError::Service(ClientError::Rejected { code, message }) => {
            Rejection::new(code, message)
        }
        // with_conn never surfaces Io/Protocol as Service, but the
        // types allow it; treat it as the backend having died.
        PoolError::Service(e) => {
            Rejection::retry_in(ErrorCode::Unavailable, 1, &format!("backend failed: {e}"))
        }
    }
}

/// Proxies one dataset-scoped call to the dataset's owner and renders
/// the typed reply (or the typed refusal).
fn proxy<R>(
    shared: &RouterShared,
    dataset: &str,
    call: impl FnOnce(&mut dyn DatasetService) -> Result<R, ClientError>,
    render: impl FnOnce(R, &BackendPool) -> Response,
) -> Response {
    shared.note_proxied();
    let pool = shared.owner_pool(dataset);
    match pool.with_conn(call) {
        Ok(reply) => render(reply, pool),
        Err(e) => Response::rejection(&pool_rejection(e)),
    }
}

/// Answers one routed request.
fn route_request(shared: &RouterShared, route: Route<'_>, body: &[u8]) -> Response {
    let bad_request = |message: String| Response::error(400, ErrorCode::BadRequest, &message);
    match route {
        Route::Healthz => respond_healthz(shared),
        Route::Datasets => respond_datasets(shared),
        Route::Stats => Response::json(router_stats_json(shared)),
        Route::Metrics => Response::metrics(router_metrics_text(shared)),
        Route::Submit => match wire::parse_submit_body(body) {
            Ok((dataset, variant, labels)) => proxy(
                shared,
                &dataset,
                |svc| svc.submit(&dataset, variant.eps, variant.minpts, labels),
                |reply, _| Response::json(wire::submit_reply(&reply, None)),
            ),
            Err(message) => bad_request(message),
        },
        Route::Append => match wire::parse_append_body(body) {
            Ok((dataset, points)) => proxy(
                shared,
                &dataset,
                |svc| svc.append(&dataset, &points),
                |reply, _| Response::json(wire::append_reply(&reply)),
            ),
            Err(message) => bad_request(message),
        },
        Route::Dataset(name) => proxy(
            shared,
            name,
            |svc| svc.datasets(),
            |list, pool| match list.iter().find(|(n, _)| n == name) {
                Some((_, points)) => {
                    Response::json(wire::dataset_entry(name, *points, Some(pool.addr())))
                }
                None => Response::rejection(&Rejection::new(
                    ErrorCode::UnknownDataset,
                    format!("dataset '{name}' is not registered on its shard"),
                )),
            },
        ),
    }
}

fn respond_healthz(shared: &RouterShared) -> Response {
    let probes = shared.fan_out(|svc| svc.healthz());
    let up = probes.iter().filter(|(_, h)| h.is_some()).count();
    let (status_word, status) = quorum_status(up, probes.len());
    let mut backends = JsonArray::new();
    for (addr, health) in &probes {
        backends.push_raw(
            &JsonObject::new()
                .str("backend", addr)
                .boolean("up", health.is_some())
                .boolean(
                    "draining",
                    matches!(health, Some(Health { draining: true, .. })),
                )
                .finish(),
        );
    }
    let body = JsonObject::new()
        .str("status", status_word)
        .boolean("draining", shared.draining.load(Ordering::Acquire))
        .uint("backends_up", up as u64)
        .uint("backends_total", probes.len() as u64)
        .raw("backends", &backends.finish())
        .finish();
    Response::json_with(status, body)
}

fn respond_datasets(shared: &RouterShared) -> Response {
    let listings = shared.fan_out(|svc| svc.datasets());
    // Dedupe by name. Backends may all register the same catalog (the
    // superset deployment the tests use); the entry that wins is the
    // ring owner's, because that is where the router sends traffic.
    let mut merged: Vec<(String, usize)> = Vec::new();
    for (addr, listing) in listings.into_iter() {
        let Some(listing) = listing else { continue };
        for (name, points) in listing {
            let owner_is_this = shared.ring.owner(&name) == addr;
            match merged.iter_mut().find(|(n, _)| *n == name) {
                Some(entry) => {
                    if owner_is_this {
                        entry.1 = points;
                    }
                }
                None => merged.push((name, points)),
            }
        }
    }
    let entries = merged
        .iter()
        .map(|(name, points)| (name.as_str(), *points, Some(shared.ring.owner(name))));
    Response::json(
        JsonObject::new()
            .raw("datasets", &wire::datasets_array(entries))
            .finish(),
    )
}

/// The merged `/v1/stats` document: the daemon's counter table merged
/// row by row (the sum of internally-consistent snapshots is itself
/// consistent), per-backend raw embeds, and the router's own ledger.
fn router_stats_json(shared: &RouterShared) -> String {
    let replies = shared.fan_out(|svc| svc.stats_json());
    let mut docs: Vec<JsonValue> = Vec::new();
    let mut backends = JsonArray::new();
    for (addr, raw) in &replies {
        let parsed = raw.as_deref().and_then(|r| parse_json(r.as_bytes()).ok());
        let mut entry = JsonObject::new()
            .str("backend", addr)
            .boolean("up", parsed.is_some());
        if let (Some(doc), Some(raw)) = (parsed, raw) {
            entry = entry.raw("stats", raw);
            docs.push(doc);
        }
        backends.push_raw(&entry.finish());
    }
    let field = |doc: &JsonValue, key: &str| doc.get(key).and_then(JsonValue::as_f64);
    let mut obj = JsonObject::new()
        .uint("uptime_ms", shared.started.elapsed().as_millis() as u64)
        .boolean("draining", shared.draining.load(Ordering::Acquire));
    // The daemon's own order: job counters, engine-busy time, streaming
    // counters.
    let merged = |mut obj: JsonObject, rows: &[crate::daemon::Counter]| {
        for c in rows {
            let values = docs.iter().map(|d| field(d, c.key).unwrap_or(0.0) as u64);
            obj = obj.uint(
                c.key,
                match c.merge {
                    Merge::Sum => values.sum(),
                    Merge::Max => values.max().unwrap_or(0),
                },
            );
        }
        obj
    };
    obj = merged(obj, JOB_COUNTERS);
    let engine_busy_ms: f64 = docs
        .iter()
        .map(|d| field(d, "engine_busy_ms").unwrap_or(0.0))
        .sum();
    obj = obj.float("engine_busy_ms", engine_busy_ms);
    merged(obj, STREAM_COUNTERS)
        .raw("router", &shared.router_json())
        .raw("backends", &backends.finish())
        .finish()
}

/// The merged `/metrics` exposition: backend series summed name-wise,
/// then the router's own `vbp_router_*` ledger and per-backend
/// `vbp_backend_*` series.
fn router_metrics_text(shared: &RouterShared) -> String {
    use std::fmt::Write as _;
    let replies = shared.fan_out(|svc| svc.metrics());
    let merged = merge_metric_texts(replies.iter().filter_map(|(_, text)| text.as_deref()));
    let mut out = String::with_capacity(4096);
    for (name, value) in merged {
        match value {
            MetricValue::Uint(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Float(v) => {
                let _ = writeln!(out, "{name} {v:.6}");
            }
        }
    }
    let s = *shared.stats();
    for (_, series, value) in s.rows() {
        let _ = writeln!(out, "{series} {value}");
    }
    let _ = writeln!(
        out,
        "vbp_router_uptime_seconds {:.3}",
        shared.started.elapsed().as_secs_f64()
    );
    for pool in &shared.pools {
        let addr = pool.addr();
        let _ = writeln!(
            out,
            "vbp_backend_up{{backend=\"{addr}\"}} {}",
            if pool.breaker_open() { 0 } else { 1 }
        );
        for (name, value) in pool.counters().rows() {
            let _ = writeln!(
                out,
                "vbp_backend_{name}_total{{backend=\"{addr}\"}} {value}"
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The router process
// ---------------------------------------------------------------------------

/// Entry point: [`Router::start`] binds and serves.
pub struct Router;

/// A running router: bound address, counters, and shutdown.
pub struct RouterHandle {
    http_addr: SocketAddr,
    shared: Arc<RouterShared>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    handlers: Handlers,
}

impl Router {
    /// Binds the router's HTTP door and spawns the accept loop.
    pub fn start(config: RouterConfig) -> io::Result<RouterHandle> {
        let listener = TcpListener::bind(&config.http_addr)?;
        let http_addr = listener.local_addr()?;
        let shared = Arc::new(RouterShared::new(&config));
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = Handlers::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conn_stop = Arc::clone(&stop);
            spawn_accept_loop(
                listener,
                "vbp-route",
                Arc::clone(&stop),
                Arc::clone(&handlers),
                move |transport| serve_router(transport, &shared, &conn_stop),
            )?
        };
        Ok(RouterHandle {
            http_addr,
            shared,
            stop,
            accept: Some(accept),
            handlers,
        })
    }
}

impl RouterHandle {
    /// The bound HTTP address (resolves port 0).
    pub fn http_addr(&self) -> SocketAddr {
        self.http_addr
    }

    /// Which backend owns this dataset on the ring.
    pub fn placement(&self, dataset: &str) -> String {
        self.shared.ring.owner(dataset).to_string()
    }

    /// The router's own STATS document (what `GET /v1/stats` embeds
    /// under `"router"`).
    pub fn stats_json(&self) -> String {
        self.shared.router_json()
    }

    /// The full merged exposition, as `GET /metrics` would answer it.
    pub fn metrics_text(&self) -> String {
        router_metrics_text(&self.shared)
    }

    /// Runs the router's connection handler over an arbitrary
    /// [`Transport`] — the fault-injection entry point, mirroring
    /// [`ServerHandle::serve_transport`](crate::server::ServerHandle::serve_transport).
    /// The caller owns the join.
    pub fn serve_transport<T: Transport + 'static>(&self, transport: T) -> JoinHandle<()> {
        let shared = Arc::clone(&self.shared);
        let stop = Arc::clone(&self.stop);
        std::thread::Builder::new()
            .name("vbp-route-conn-test".into())
            .spawn(move || serve_router(transport, &shared, &stop))
            .expect("spawn router transport handler")
    }

    /// Stops accepting (idempotent); established connections finish
    /// their current exchange and close.
    pub fn begin_shutdown(&self) {
        self.shared.draining.store(true, Ordering::Release);
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.http_addr);
    }

    /// Joins the accept loop and every connection handler. Blocks
    /// until a shutdown has begun (via [`Self::begin_shutdown`] or a
    /// process signal killing the listener) — `vbp route` parks here
    /// for the router's whole life.
    pub fn wait(&mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        join_handlers(&self.handlers);
    }

    /// [`Self::begin_shutdown`] + [`Self::wait`].
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        self.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_merge_sums_uints_exactly_and_floats_loosely() {
        let a = "vbp_jobs_submitted_total 10\nvbp_engine_busy_seconds_total 1.500000\n";
        let b = "vbp_jobs_submitted_total 32\nvbp_engine_busy_seconds_total 0.250000\n";
        let merged = merge_metric_texts([a, b].into_iter());
        assert_eq!(merged[0].0, "vbp_jobs_submitted_total");
        assert_eq!(merged[0].1, MetricValue::Uint(42));
        assert_eq!(merged[1].0, "vbp_engine_busy_seconds_total");
        match merged[1].1 {
            MetricValue::Float(v) => assert!((v - 1.75).abs() < 1e-9),
            other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn metric_merge_keeps_labelled_series_distinct_and_ordered() {
        let a = "vbp_rejected_total{reason=\"overloaded\"} 1\nvbp_rejected_total{reason=\"draining\"} 2\n";
        let b = "vbp_rejected_total{reason=\"overloaded\"} 3\n";
        let merged = merge_metric_texts([a, b].into_iter());
        assert_eq!(
            merged,
            vec![
                (
                    "vbp_rejected_total{reason=\"overloaded\"}".to_string(),
                    MetricValue::Uint(4)
                ),
                (
                    "vbp_rejected_total{reason=\"draining\"}".to_string(),
                    MetricValue::Uint(2)
                ),
            ]
        );
    }

    #[test]
    fn quorum_rule_matches_the_documented_table() {
        assert_eq!(quorum_status(2, 2), ("ok", 200));
        assert_eq!(quorum_status(3, 3), ("ok", 200));
        assert_eq!(quorum_status(2, 3), ("degraded", 200));
        assert_eq!(quorum_status(1, 2), ("unavailable", 503));
        assert_eq!(quorum_status(1, 3), ("unavailable", 503));
        assert_eq!(quorum_status(0, 1), ("unavailable", 503));
        assert_eq!(quorum_status(1, 1), ("ok", 200));
    }

    #[test]
    fn router_stats_ledger_holds_its_invariant_under_churn() {
        let shared = RouterShared::new(&RouterConfig {
            backends: vec!["127.0.0.1:1".into()],
            ..RouterConfig::default()
        });
        for i in 0..50u64 {
            shared.begin_request();
            if i % 3 == 0 {
                shared.end_request(false);
            } else {
                shared.end_request(true);
            }
        }
        shared.begin_request(); // one left in flight
        let s = *shared.stats.lock().unwrap();
        assert_eq!(s.received, 51);
        assert_eq!(s.received, s.answered_ok + s.answered_err + s.in_flight);
        assert_eq!(s.in_flight, 1);
    }
}
