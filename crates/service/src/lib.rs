//! **vbp-service** — a long-running VariantDBSCAN daemon.
//!
//! The paper's core result (§IV-B) is that a variant `(ε, minpts)` is
//! answered faster by *reusing* a dominated variant's completed clusters
//! than by clustering from scratch — but a batch engine forgets
//! everything between runs. This crate keeps the investment alive, as
//! one protocol-free core with thin codecs around it:
//!
//! ```text
//!            api  (typed replies, ErrorCode, Rejection, argument rules)
//!             │
//!          daemon  (admission queue, batching dispatcher, APPEND/WATCH,
//!             │     counter table — registry + cache underneath)
//!      ┌──────┴───────┐
//!    line            http  (front end: framing, Route, Response, loop;
//!  (protocol)       (wire)  the daemon's door; HttpClient)
//!      │              │
//!    client         router  (ring + pool; a second handler behind the
//!                            same front end)
//! ```
//!
//! - [`api`] — the typed model every door speaks and the
//!   [`DatasetService`] trait both clients implement;
//! - [`daemon`] — the core: [`registry`] datasets with prebuilt indexes,
//!   the dominance [`cache`], bounded admission (typed `overloaded`
//!   backpressure), a dispatcher that batches same-dataset requests into
//!   single engine runs seeded from the cache, streaming `APPEND`/`WATCH`,
//!   and the one counter table ([`counters`]) behind `STATS`, `METRICS`
//!   and the router's merged stats;
//! - [`protocol`] + [`mod@line`] / [`client`] — the line codec (requests,
//!   replies, pushes ⇄ text), the server-side door, the blocking client;
//! - [`wire`] + [`http`] — the JSON codec (bodies, replies, errors ⇄
//!   JSON), the HTTP/1.1 front end (bounded framing with typed
//!   `400`/`431`/`413`, one route table, one keep-alive loop), the
//!   daemon's door behind it, and the blocking keep-alive [`HttpClient`];
//! - [`server`] — the process: [`ServiceConfig`], listeners, threads,
//!   graceful drain;
//! - [`ring`] / [`pool`] / [`router`] — many-daemon scale-out: a
//!   consistent-hash ring over backend daemons, bounded per-backend
//!   connection pools with a connect-failure breaker, and the
//!   `vbp route` process — the HTTP front end again, with a handler that
//!   proxies dataset-scoped traffic to the owning backend and merges
//!   fan-out reads;
//! - [`transport`] / [`fault`] — the connection I/O seam ([`Transport`],
//!   bounded line framing, the one accept loop) and its deterministic
//!   fault-injecting test implementations (seeded torn writes, scripted
//!   byte schedules, mid-stream cuts);
//! - [`store`] — persistent warm state: checksummed on-disk snapshots
//!   of every prepared index and the surviving cache entries, written
//!   on graceful drain and restored on boot without rebuilding
//!   anything;
//! - [`config`] — `validate()` for [`ServiceConfig`] and
//!   [`RouterConfig`] with typed [`ConfigError`]s. A config field
//!   exists only for a flag a deployment sets (`vbp serve`, `vbp
//!   route`); timing and framing are constants of the module that
//!   applies them ([`transport`], [`http`], [`daemon`], [`pool`]).
//!
//! Everything is plain `std` — the build environment is offline, so no
//! async runtime, serialization crate, or protocol framework is used.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod client;
pub mod config;
pub mod daemon;
pub mod fault;
pub mod http;
pub mod line;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod ring;
pub mod router;
pub mod server;
pub mod store;
pub mod transport;
pub mod wire;

pub use api::{
    parse_retry_after, AppendReply, DatasetService, Delta, ErrorCode, Health, SubmitReply,
    WatchReply,
};
pub use cache::{result_bytes, CacheHit, CacheStats, DominanceCache, RepairStats};
pub use client::{Client, ClientError};
pub use config::ConfigError;
pub use daemon::{counters, Counter, Merge};
pub use fault::{FaultPlan, FaultTransport, MemTransport, Step};
pub use http::{HttpClient, HttpResponse};
pub use pool::{BackendCounters, BackendPool, PoolError};
pub use protocol::{parse_request, Request};
pub use registry::{DatasetEntry, Registry};
pub use ring::HashRing;
pub use router::{Router, RouterConfig, RouterHandle};
pub use server::{Server, ServerHandle, ServiceConfig};
pub use store::{
    boot_from_store, dataset_path, persist_all, persist_dataset, restore_dataset, verify_dir,
    RestoredDataset, StoreBoot, STORE_EXT,
};
pub use transport::{LineEvent, LineIo, TcpTransport, Transport};
pub use variantdbscan::json::{parse_json, JsonValue};
