//! The daemon process: configuration, listeners, threads, and graceful
//! drain around the protocol-free core ([`crate::daemon`]).
//!
//! ```text
//! accept threads ──spawn──▶ door threads (one per connection)
//!   line ▸ crate::line              │ parse → Shared::{submit_wait,
//!   HTTP ▸ crate::http              │   append, watch, …} → render
//!                                   ▼
//!                        dispatcher thread (crate::daemon)
//! ```
//!
//! Both listeners run the one accept loop
//! (`spawn_accept_loop`) against
//! the *same* `Shared`: one admission queue, one dispatcher, one cache,
//! one set of counters, whichever wire a request arrived on.
//!
//! # Graceful drain
//!
//! `SHUTDOWN` (or [`ServerHandle::shutdown`]) flips the draining flag:
//! new `SUBMIT`s are rejected with `draining`, the dispatcher finishes
//! everything already queued, the accept loops are woken by a
//! self-connection and exit, and door threads notice the stop flag at
//! their next read-timeout poll. Every thread join is therefore bounded
//! by the poll interval plus the time of the in-flight engine run.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use variantdbscan::{Engine, Variant};
use vbp_dbscan::ClusterResult;
use vbp_geom::Point2;

use crate::daemon::{dispatcher_loop, Shared};
use crate::http::{daemon_route, serve_http, Exchange};
use crate::line::serve_line;
use crate::registry::Registry;
use crate::store::StoreBoot;
use crate::transport::{join_handlers, spawn_accept_loop, Handlers, TcpTransport, Transport};

/// Settings of one server instance: one field per `vbp serve` flag
/// (`--addr`, `--http`, `--store`, `--queue-cap`, `--cache-mb`,
/// `--batch-ms`). Check one with [`ServiceConfig::validate`]. The
/// doors' timing and framing are constants of the modules that apply
/// them: [`POLL_INTERVAL`](crate::transport::POLL_INTERVAL) and
/// [`WRITE_TIMEOUT`](crate::transport::WRITE_TIMEOUT),
/// [`MAX_LINE_BYTES`](crate::http::MAX_LINE_BYTES), and
/// [`JOB_TIMEOUT`](crate::daemon::JOB_TIMEOUT).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Optional second bind address for the HTTP/1.1 gateway
    /// ([`crate::http`]). `None` (the default) serves the line protocol
    /// only; when set, both protocols run simultaneously against the
    /// same admission queue, dispatcher, cache, and counters.
    pub http_addr: Option<String>,
    /// Warm-state store directory. When set, a graceful drain persists
    /// every dataset's prepared index and surviving cache entries as
    /// checksummed container files under this directory (see
    /// [`crate::store`]); boot with
    /// [`Server::start_with_store`] + [`crate::store::boot_from_store`]
    /// to restore them without rebuilding. `None` (the default) keeps
    /// the daemon fully in-memory.
    pub store_dir: Option<std::path::PathBuf>,
    /// Admission queue capacity (requests, not bytes).
    pub queue_cap: usize,
    /// Reuse cache budget in bytes; 0 disables the cache.
    pub cache_bytes: usize,
    /// How long the dispatcher lingers after the first request to batch
    /// compatible ones.
    pub batch_window: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            http_addr: None,
            store_dir: None,
            queue_cap: 256,
            cache_bytes: 64 << 20,
            batch_window: Duration::from_millis(2),
        }
    }
}

/// A running server. Dropping the handle does *not* stop the daemon;
/// call [`ServerHandle::shutdown`] (or send `SHUTDOWN` over the wire and
/// [`ServerHandle::wait`]).
pub struct Server;

/// The HTTP door of the daemon: the gateway's front end with the
/// daemon's route table behind it.
fn serve_daemon_http<T: Transport>(transport: T, shared: &Shared, stop: &AtomicBool) {
    serve_http(
        transport,
        stop,
        |route, body| daemon_route(shared, route, body),
        |exchange| {
            if exchange == Exchange::Malformed {
                shared.note_protocol_error();
            }
        },
    );
}

/// One door's connection loop: the line protocol's or the HTTP
/// gateway's, over one transport against the daemon's shared state.
type Door<T> = fn(T, &Shared, &AtomicBool);

/// Join/shutdown handle returned by [`Server::start`].
pub struct ServerHandle {
    local_addr: SocketAddr,
    http_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
    accepts: Vec<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<()>>,
    handlers: Handlers,
}

impl Server {
    /// Binds, spawns the accept and dispatcher threads, and returns.
    pub fn start(
        engine: Engine,
        registry: Registry,
        config: ServiceConfig,
    ) -> std::io::Result<ServerHandle> {
        Self::start_with_store(engine, registry, config, StoreBoot::default())
    }

    /// [`Server::start`] seeded with restored warm state — the entry
    /// point of a `--store` boot. `boot` carries what
    /// [`boot_from_store`](crate::store::boot_from_store) recovered:
    /// cache entries to pre-insert (each validated against the live
    /// registry before insertion) and the restore counters surfaced as
    /// `vbp_store_restored` / `vbp_store_restore_failed`.
    pub fn start_with_store(
        engine: Engine,
        registry: Registry,
        config: ServiceConfig,
        boot: StoreBoot,
    ) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let http_listener = match &config.http_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let http_addr = match &http_listener {
            Some(listener) => Some(listener.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared::new(engine, registry, &config, boot));
        let stop = Arc::new(AtomicBool::new(false));
        let handlers = Handlers::default();

        let dispatcher = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("vbp-dispatch".into())
                .spawn(move || dispatcher_loop(&shared))?
        };
        let accept = |listener, name, serve: Door<TcpTransport>| {
            let (shared, stop) = (Arc::clone(&shared), Arc::clone(&stop));
            spawn_accept_loop(
                listener,
                name,
                Arc::clone(&stop),
                Arc::clone(&handlers),
                move |transport| serve(transport, &shared, &stop),
            )
        };
        let mut accepts = vec![accept(listener, "vbp", serve_line)?];
        if let Some(listener) = http_listener {
            accepts.push(accept(listener, "vbp-http", serve_daemon_http)?);
        }

        Ok(ServerHandle {
            local_addr,
            http_addr,
            shared,
            stop,
            accepts,
            dispatcher: Some(dispatcher),
            handlers,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The HTTP gateway's bound address (resolves port 0), or `None`
    /// when [`ServiceConfig::http_addr`] was not set.
    pub fn http_addr(&self) -> Option<SocketAddr> {
        self.http_addr
    }

    /// Runs the full line-protocol door over an arbitrary [`Transport`]
    /// — the fault-injection entry point. The returned thread is *not*
    /// in the accept loop's registry; the caller owns the join. It
    /// observes the same shared state (queue, cache, stats, stop flag)
    /// as socket-accepted connections.
    pub fn serve_transport<T: Transport + 'static>(&self, transport: T) -> JoinHandle<()> {
        self.spawn_door("vbp-conn-test", serve_line, transport)
    }

    /// [`Self::serve_transport`]'s HTTP twin: runs the HTTP gateway's
    /// door over an arbitrary [`Transport`], against the same shared
    /// state as socket-accepted connections.
    pub fn serve_http_transport<T: Transport + 'static>(&self, transport: T) -> JoinHandle<()> {
        self.spawn_door("vbp-http-conn-test", serve_daemon_http, transport)
    }

    fn spawn_door<T: Transport + 'static>(
        &self,
        name: &str,
        serve: Door<T>,
        transport: T,
    ) -> JoinHandle<()> {
        let (shared, stop) = (Arc::clone(&self.shared), Arc::clone(&self.stop));
        std::thread::Builder::new()
            .name(name.into())
            .spawn(move || serve(transport, &shared, &stop))
            .expect("spawn transport handler")
    }

    /// Sets the stop flag and wakes the blocking `accept()`s with
    /// throwaway connections.
    fn stop_accepting(&self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(addr) = self.http_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Begins a graceful drain (idempotent): stop admitting, finish
    /// what's queued, wake the accept loops.
    pub fn begin_shutdown(&self) {
        self.shared.begin_drain();
        self.stop_accepting();
    }

    /// Waits for every server thread to finish. Only returns once a
    /// drain has started (via [`Self::begin_shutdown`] or a `SHUTDOWN`
    /// request) and completed.
    pub fn wait(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
        // Dispatcher exit implies draining; make sure the accepts wake
        // too.
        self.stop_accepting();
        for h in self.accepts.drain(..) {
            let _ = h.join();
        }
        self.shared.fail_abandoned_jobs();
        join_handlers(&self.handlers);
        // Every thread is joined: the registry, cache, and indexes are
        // quiescent. Persist the warm state now (covers both the wire
        // `SHUTDOWN` and a handle-initiated drain — both funnel through
        // this join).
        self.shared.persist_store();
    }

    /// Convenience: [`Self::begin_shutdown`] + [`Self::wait`].
    pub fn shutdown(&mut self) {
        self.begin_shutdown();
        self.wait();
    }

    /// Current service counters as one JSON line (same payload as the
    /// `STATS` wire command).
    pub fn stats_json(&self) -> String {
        self.shared.stats_json()
    }

    /// Prometheus-style text exposition (same payload as the `METRICS`
    /// wire command's continuation lines). Rendered from the same
    /// counters as [`Self::stats_json`], so the two always agree.
    pub fn metrics_text(&self) -> String {
        self.shared.metrics_text()
    }

    /// Runs the dominance cache's structural self-check
    /// ([`DominanceCache::check_invariants`](crate::cache::DominanceCache::check_invariants))
    /// — the chaos suite calls this after every fault schedule.
    pub fn cache_invariants(&self) -> Result<(), String> {
        self.shared.cache().check_invariants()
    }

    /// Counter-neutral snapshot of the cache's live entries — the
    /// streaming-equivalence suite audits every surviving entry against
    /// the mutated dataset after each append.
    pub fn cache_entries(&self) -> Vec<(String, Variant, Arc<ClusterResult>)> {
        self.shared.cache().snapshot_entries()
    }

    /// Current caller-order points of a registered dataset (the latest
    /// copy-on-write snapshot), or `None` when unknown.
    pub fn dataset_points(&self, name: &str) -> Option<Vec<Point2>> {
        let entry = self.shared.registry().get(name)?;
        Some(entry.index.caller_points())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::metric;
    use crate::fault::{MemTransport, Step};
    use crate::protocol::PROTOCOL_VERSION;
    use std::time::Instant;
    use variantdbscan::EngineConfig;

    fn tiny_server(queue_cap: usize, cache_bytes: usize) -> ServerHandle {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let registry = Registry::new();
        registry.load(&engine, "cF_10k_5N@300").unwrap();
        Server::start(
            engine,
            registry,
            ServiceConfig {
                queue_cap,
                cache_bytes,
                batch_window: Duration::ZERO,
                ..ServiceConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn stats_json_is_one_well_formed_line() {
        let mut handle = tiny_server(4, 1 << 20);
        let json = handle.stats_json();
        assert!(!json.contains('\n'));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"reuse_hits\":0"));
        assert!(json.contains("\"in_flight\":0"));
        assert!(json.contains("\"protocol_errors\":0"));
        assert!(json.contains("\"cache\":{"));
        assert!(json.contains("\"datasets\":[{\"name\":\"cF_10k_5N@300\""));
        handle.shutdown();
    }

    #[test]
    fn shutdown_with_empty_queue_joins_quickly() {
        let mut handle = tiny_server(4, 0);
        let t0 = Instant::now();
        handle.shutdown();
        assert!(t0.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn scripted_transport_drives_the_real_handler() {
        let handle = tiny_server(4, 0);
        let (mem, out) = MemTransport::new(vec![
            Step::Recv(b"HELLO\nNOPE\n".to_vec()),
            Step::Idle,
            Step::Recv(b"QUIT\n".to_vec()),
        ]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], &format!("OK vbp-service {PROTOCOL_VERSION}"));
        assert!(lines[1].starts_with("ERR bad-request"), "{text}");
        assert_eq!(lines[2], "OK bye");
        let mut handle = handle;
        handle.shutdown();
    }

    #[test]
    fn append_and_watch_round_trip_through_the_handler() {
        let handle = tiny_server(4, 1 << 20);
        let (mem, out) = MemTransport::new(vec![
            Step::Recv(b"WATCH cF_10k_5N@300 2.0 4\n".to_vec()),
            Step::Recv(b"APPEND cF_10k_5N@300 0.0 0.0 0.05 0.05\n".to_vec()),
            Step::Idle,
            Step::Recv(b"QUIT\n".to_vec()),
        ]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines[0].starts_with("OK watching cF_10k_5N@300 2 4 clusters="),
            "{text}"
        );
        assert!(lines[1].starts_with("OK appended=2 total=302"), "{text}");
        assert!(
            lines[2].starts_with("DELTA cF_10k_5N@300 2 4 appended=2"),
            "{text}"
        );
        assert_eq!(*lines.last().unwrap(), "OK bye");
        // The streaming invariant holds in both expositions.
        let stats = handle.stats_json();
        assert!(stats.contains("\"appends\":1"), "{stats}");
        assert!(stats.contains("\"appends_applied\":1"), "{stats}");
        assert!(stats.contains("\"appends_rejected\":0"), "{stats}");
        let metrics = handle.metrics_text();
        assert_eq!(metric(&metrics, "vbp_append_batches_total"), 1);
        assert_eq!(metric(&metrics, "vbp_append_points_total"), 2);
        assert_eq!(metric(&metrics, "vbp_watch_deltas_total"), 1);
        assert_eq!(
            handle.dataset_points("cF_10k_5N@300").unwrap().len(),
            302,
            "registry swapped to the successor snapshot"
        );
        let mut handle = handle;
        handle.shutdown();
    }

    #[test]
    fn metrics_verb_frames_its_continuation_lines() {
        let handle = tiny_server(4, 1 << 20);
        let (mem, out) = MemTransport::new(vec![Step::Recv(b"METRICS\nQUIT\n".to_vec())]);
        handle.serve_transport(mem).join().unwrap();
        let text = String::from_utf8(out.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let n: usize = lines[0]
            .strip_prefix("OK ")
            .expect("METRICS answers OK <n>")
            .parse()
            .expect("continuation count");
        assert_eq!(lines.len(), n + 2, "OK <n>, n lines, OK bye");
        assert_eq!(lines[n + 1], "OK bye");
        for l in &lines[1..=n] {
            assert!(l.starts_with("vbp_"), "continuation line {l:?}");
        }
        let mut handle = handle;
        handle.shutdown();
    }
}
