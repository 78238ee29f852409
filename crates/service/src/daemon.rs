//! The daemon core: admission, batching, mutation and counters, with no
//! wire format in sight.
//!
//! Every door — the line protocol ([`crate::line`]), the HTTP gateway
//! ([`crate::http`]) and, one hop out, the router — is *parse → call →
//! render* around the entry points of [`Shared`]:
//!
//! - [`Shared::submit_wait`] — dataset check, bounded admission, wait for
//!   the dispatcher's answer;
//! - [`Shared::append`] — streaming mutation under the append lock, with
//!   its ledger;
//! - [`Shared::watch`] — subscribe to a `(dataset, variant)` delta stream;
//! - [`Shared::stats_json`] / [`Shared::metrics_text`] — the two views of
//!   the one counter table ([`counters`]).
//!
//! Each answers a typed reply or a [`Rejection`] that already carries
//! every decision a door would otherwise have to make (code, message,
//! backoff hint), so no door re-derives one.
//!
//! # Threading model
//!
//! ```text
//! door threads (one per connection)
//!        │  submit_wait()       ▲ reply mpsc
//!        ▼                      │
//! bounded VecDeque ──▶ dispatcher thread
//!                          │
//!                          ▼
//!        Engine::execute (batch RunRequest)
//! ```
//!
//! Doors *admit* work; they never touch the engine. Admission is a
//! bounded queue: when it is full the submit is rejected with a typed
//! [`ErrorCode::Overloaded`] — backpressure reaches the client as a
//! refusal instead of unbounded buffering.
//!
//! The dispatcher pops the oldest request, waits one *batch window* for
//! compatible work to pile up, then drains every queued request for the
//! same dataset into a single [`VariantSet`] run. Cache lookups seed the
//! run with warm sources; every fresh result is inserted back.
//!
//! # Fault posture
//!
//! A panic inside a clustering job is contained at the engine boundary
//! ([`Engine::execute`] answers a typed [`EngineError::JobPanic`]): the
//! dispatcher isolates the batch, retries each distinct variant alone,
//! fails only the poisoned jobs with `internal`, and keeps serving.
//! Every admitted job is accounted exactly once — `submitted` always
//! equals `completed + failed + in_flight` under the stats lock, which
//! the chaos suite asserts at arbitrary observation points.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use variantdbscan::{
    Engine, EngineError, JsonObject, PhaseHistograms, PreparedIndex, RunRequest, ShardTotals,
    Sharding, Variant, VariantSet, WarmSource,
};
use vbp_dbscan::algorithm::dbscan_brute_force;
use vbp_dbscan::{ClusterResult, DbscanParams, IncrementalDbscan, InsertOutcome, Labels};
use vbp_geom::binning::invert_permutation;
use vbp_geom::{Point2, PointId};
use vbp_rtree::{PackedRTree, SpatialIndex};

use crate::api::{AppendReply, Delta, ErrorCode, Rejection, SubmitReply, WatchReply};
use crate::cache::{DominanceCache, RepairStats};
use crate::registry::{DatasetEntry, Registry};
use crate::server::ServiceConfig;
use crate::store::StoreBoot;
use crate::wire;

/// One admitted unit of work: what [`Shared::submit_wait`] enqueues and
/// the dispatcher answers.
struct Job {
    dataset: String,
    variant: Variant,
    want_labels: bool,
    /// HTTP responses embed the full [`RunReport`](variantdbscan::RunReport)
    /// JSON; the line protocol never asks, so the render cost is paid
    /// only when an HTTP job is in the batch.
    want_report: bool,
    reply: mpsc::Sender<Result<JobDone, String>>,
}

/// A finished job, as a door reports it to its client.
pub(crate) struct JobDone {
    pub(crate) reply: SubmitReply,
    /// The batch's `RunReport::to_json`, rendered once and shared by
    /// every job in the batch that asked for it.
    pub(crate) report_json: Option<Arc<str>>,
}

/// The daemon's one ledger: every counter it keeps and the engine's
/// per-phase latency histograms, under one lock (the cache counts its own
/// traffic under the cache lock).
///
/// Invariant, held at every instant the lock is free: `submitted ==
/// completed + failed + in_flight`. Admission increments `submitted`
/// and `in_flight` together; terminal accounting moves a job from
/// `in_flight` to exactly one of `completed`/`failed` under the same
/// lock.
///
/// A second invariant covers the streaming verbs: `appends ==
/// appends_applied + appends_rejected`. `APPEND` is synchronous (no
/// in-flight component) — the triple is bumped in a single lock
/// acquisition once the outcome is known, so the identity holds at
/// arbitrary observation points just like the admission one.
///
/// A finished run is accounted in one acquisition too — job counters,
/// engine counters and its phase samples together — so inside any one
/// scrape the `scratch` histogram holds exactly `from_scratch` samples
/// and the `reuse` histogram exactly `reuse_hits + in_run_reused`.
#[derive(Clone, Debug, Default)]
struct ServiceStats {
    submitted: u64,
    completed: u64,
    failed: u64,
    in_flight: u64,
    rejected_overloaded: u64,
    rejected_draining: u64,
    unknown_dataset: u64,
    bad_request: u64,
    protocol_errors: u64,
    batches: u64,
    max_batch: usize,
    engine_warm_hits: u64,
    engine_in_run_reused: u64,
    engine_scratch: u64,
    engine_busy: Duration,
    /// Runs that failed as a unit because a job panicked (contained at
    /// the engine boundary).
    panics_contained: u64,
    /// Census of the intra-variant sharded executions, summed over runs.
    shards: ShardTotals,
    appends: u64,
    appends_applied: u64,
    appends_rejected: u64,
    append_points: u64,
    watches: u64,
    watch_deltas: u64,
    store_restored: u64,
    store_restore_failed: u64,
    /// Per-phase engine latency, merged from every finished run.
    phases: PhaseHistograms,
}

/// How a fleet of daemons folds one counter into one number: the router
/// sums most, and takes the widest batch rather than a sum of widths.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// Add across daemons.
    Sum,
    /// Take the largest.
    Max,
}

/// One row of the daemon's counter table: the same number under its
/// `STATS` JSON key and its Prometheus series name.
pub struct Counter {
    /// Key in the `STATS` / `GET /v1/stats` document.
    pub key: &'static str,
    /// Series in the `METRICS` / `GET /metrics` exposition.
    pub series: &'static str,
    /// How the router merges it across backends.
    pub merge: Merge,
    get: fn(&ServiceStats) -> u64,
}

const fn sum(key: &'static str, series: &'static str, get: fn(&ServiceStats) -> u64) -> Counter {
    Counter {
        key,
        series,
        merge: Merge::Sum,
        get,
    }
}

/// Admission and engine counters. Both expositions render these, then
/// the engine-busy time (and `METRICS` its cache block), then
/// [`STREAM_COUNTERS`] — an order every view shares, so it is fixed
/// here and nowhere else.
pub(crate) const JOB_COUNTERS: &[Counter] = &[
    sum("submitted", "vbp_jobs_submitted_total", |s| s.submitted),
    sum("completed", "vbp_jobs_completed_total", |s| s.completed),
    sum("failed", "vbp_jobs_failed_total", |s| s.failed),
    sum("in_flight", "vbp_jobs_in_flight", |s| s.in_flight),
    sum(
        "rejected_overloaded",
        "vbp_rejected_total{reason=\"overloaded\"}",
        |s| s.rejected_overloaded,
    ),
    sum(
        "rejected_draining",
        "vbp_rejected_total{reason=\"draining\"}",
        |s| s.rejected_draining,
    ),
    sum("unknown_dataset", "vbp_unknown_dataset_total", |s| {
        s.unknown_dataset
    }),
    sum("bad_request", "vbp_bad_request_total", |s| s.bad_request),
    sum("protocol_errors", "vbp_protocol_errors_total", |s| {
        s.protocol_errors
    }),
    sum("batches", "vbp_batches_total", |s| s.batches),
    Counter {
        key: "max_batch",
        series: "vbp_batch_max_jobs",
        merge: Merge::Max,
        get: |s| s.max_batch as u64,
    },
    sum("reuse_hits", "vbp_reuse_hits_total", |s| s.engine_warm_hits),
    sum("in_run_reused", "vbp_in_run_reused_total", |s| {
        s.engine_in_run_reused
    }),
    sum("from_scratch", "vbp_from_scratch_total", |s| {
        s.engine_scratch
    }),
    sum(
        "panics_contained",
        "vbp_engine_panics_contained_total",
        |s| s.panics_contained,
    ),
    sum("shard_variants", "vbp_shard_variants_total", |s| {
        s.shards.variants
    }),
    sum("shard_tasks", "vbp_shard_tasks_total", |s| s.shards.shards),
];

/// Streaming and store counters; see [`JOB_COUNTERS`] for the ordering.
pub(crate) const STREAM_COUNTERS: &[Counter] = &[
    sum("appends", "vbp_append_batches_total", |s| s.appends),
    sum("appends_applied", "vbp_append_applied_total", |s| {
        s.appends_applied
    }),
    sum("appends_rejected", "vbp_append_rejected_total", |s| {
        s.appends_rejected
    }),
    sum("append_points", "vbp_append_points_total", |s| {
        s.append_points
    }),
    sum("watches", "vbp_watch_subscriptions_total", |s| s.watches),
    sum("watch_deltas", "vbp_watch_deltas_total", |s| s.watch_deltas),
    sum("store_restored", "vbp_store_restored", |s| s.store_restored),
    sum("store_restore_failed", "vbp_store_restore_failed", |s| {
        s.store_restore_failed
    }),
];

/// Every row of the daemon's counter table, in exposition order. The
/// `STATS` document, the `METRICS` exposition and the router's merged
/// `/v1/stats` all iterate this; a counter added here shows up in all
/// three.
pub fn counters() -> impl Iterator<Item = &'static Counter> {
    JOB_COUNTERS.iter().chain(STREAM_COUNTERS)
}

/// One live `WATCH` stream: an insertion-maintained clustering for a
/// `(dataset, variant)` pair and the subscribed connections. It holds
/// clustering state only — no points and no index; [`feed_stream`]
/// answers its ε-queries from the dataset's own `T_low`. Each append's
/// [`Delta`] is what [`IncrementalDbscan::insert`] reports for the batch,
/// with the census it keeps running.
struct WatchStream {
    dataset: String,
    variant: Variant,
    inc: IncrementalDbscan,
    subscribers: Vec<mpsc::Sender<Delta>>,
}

/// The daemon's shared state; one per [`Server`](crate::server::Server),
/// behind an `Arc` every door thread and the dispatcher hold.
pub(crate) struct Shared {
    engine: Engine,
    registry: Registry,
    cache: Mutex<DominanceCache>,
    cache_enabled: bool,
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    queue_cap: usize,
    batch_window: Duration,
    job_timeout: Duration,
    sharding: Option<Sharding>,
    draining: AtomicBool,
    stats: Mutex<ServiceStats>,
    started: Instant,
    /// Serializes `APPEND`s (and `WATCH` registration, which must see a
    /// registry snapshot consistent with the watch streams). Never held
    /// while clustering a batch — `SUBMIT` traffic proceeds against its
    /// copy-on-write registry snapshot throughout an append.
    append_lock: Mutex<()>,
    /// Live `WATCH` streams. Locked after `append_lock`, never while
    /// holding the cache lock.
    watchers: Mutex<Vec<WatchStream>>,
    /// Warm-state store directory; `Some` makes a graceful drain
    /// persist every dataset + cache under it.
    store_dir: Option<std::path::PathBuf>,
}

impl Shared {
    /// Builds the core from a config and whatever a `--store` boot
    /// recovered: cache entries to pre-insert (each validated against
    /// the live registry — an entry whose label vector does not cover
    /// the registered index is skipped, which can only happen when a
    /// caller mixes a stale boot with a fresh registry) and the restore
    /// counters.
    pub(crate) fn new(
        engine: Engine,
        registry: Registry,
        config: &ServiceConfig,
        boot: StoreBoot,
    ) -> Shared {
        let mut cache = DominanceCache::new(config.cache_bytes);
        if config.cache_bytes > 0 {
            for (dataset, variant, result) in boot.cache_seed {
                let valid = registry
                    .get(&dataset)
                    .is_some_and(|e| e.index.len() == result.len());
                if valid {
                    cache.insert(&dataset, variant, result);
                }
            }
        }
        Shared {
            engine,
            registry,
            cache: Mutex::new(cache),
            cache_enabled: config.cache_bytes > 0,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            queue_cap: config.queue_cap.max(1),
            batch_window: config.batch_window,
            job_timeout: config.job_timeout,
            sharding: (config.shards > 1).then(|| Sharding::new(config.shards)),
            draining: AtomicBool::new(false),
            stats: Mutex::new(ServiceStats {
                store_restored: boot.restored,
                store_restore_failed: boot.restore_failed,
                ..ServiceStats::default()
            }),
            started: Instant::now(),
            append_lock: Mutex::new(()),
            watchers: Mutex::new(Vec::new()),
            store_dir: config.store_dir.clone(),
        }
    }

    fn stats(&self) -> MutexGuard<'_, ServiceStats> {
        self.stats.lock().expect("stats lock poisoned")
    }

    /// The dominance cache, locked.
    pub(crate) fn cache(&self) -> MutexGuard<'_, DominanceCache> {
        self.cache.lock().expect("cache lock poisoned")
    }

    /// The registered datasets.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Whether a graceful drain has begun.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Begins a graceful drain (idempotent): stop admitting, let the
    /// dispatcher finish what is queued and exit.
    pub(crate) fn begin_drain(&self) {
        self.draining.store(true, Ordering::Release);
        self.queue_cv.notify_all();
    }

    /// One framing violation (oversized line, invalid UTF-8, malformed
    /// HTTP head), whichever protocol the bytes arrived on.
    pub(crate) fn note_protocol_error(&self) {
        self.stats().protocol_errors += 1;
    }

    /// A well-framed request that failed to parse (bad verb, bad JSON,
    /// out-of-range parameters).
    pub(crate) fn note_bad_request(&self) {
        self.stats().bad_request += 1;
    }

    fn unknown_dataset(&self, dataset: &str) -> Rejection {
        self.stats().unknown_dataset += 1;
        Rejection::unknown_dataset(dataset)
    }

    /// Looks a dataset up for a dataset-scoped read, counting a miss.
    pub(crate) fn dataset(&self, name: &str) -> Result<Arc<DatasetEntry>, Rejection> {
        self.registry
            .get(name)
            .ok_or_else(|| self.unknown_dataset(name))
    }

    /// Admission control: reject when draining or full, enqueue and wake
    /// the dispatcher otherwise.
    fn admit(&self, job: Job) -> Result<(), Rejection> {
        if self.is_draining() {
            self.stats().rejected_draining += 1;
            return Err(Rejection::draining());
        }
        let mut q = self.queue.lock().expect("queue lock poisoned");
        if q.len() >= self.queue_cap {
            drop(q);
            self.stats().rejected_overloaded += 1;
            return Err(Rejection::retry_in(ErrorCode::Overloaded, 1, "queue full"));
        }
        q.push_back(job);
        drop(q);
        {
            let mut s = self.stats();
            s.submitted += 1;
            s.in_flight += 1;
        }
        self.queue_cv.notify_one();
        Ok(())
    }

    /// Moves `n` jobs from in-flight to a terminal counter; the single
    /// place the stats invariant is allowed to change on the exit side.
    fn account_terminal(&self, n: u64, failed: bool) {
        let mut s = self.stats();
        if failed {
            s.failed += n;
        } else {
            s.completed += n;
        }
        s.in_flight = s.in_flight.saturating_sub(n);
    }

    /// `SUBMIT`, whichever door it came through: check the dataset,
    /// admit the job, wait for the dispatcher's answer. A submission's
    /// journey — admission, batching, cache seeding, labeling — is
    /// therefore identical on every wire.
    pub(crate) fn submit_wait(
        &self,
        dataset: String,
        variant: Variant,
        want_labels: bool,
        want_report: bool,
    ) -> Result<JobDone, Rejection> {
        if self.registry.get(&dataset).is_none() {
            return Err(self.unknown_dataset(&dataset));
        }
        let (reply, answer) = mpsc::channel();
        self.admit(Job {
            dataset,
            variant,
            want_labels,
            want_report,
            reply,
        })?;
        // The dispatcher drains the queue before exiting, and panic
        // containment turns a crashing job into a prompt typed failure —
        // the timeout only guards a genuinely wedged engine (the job
        // stays in-flight in that case, which is what the counters
        // honestly say).
        match answer.recv_timeout(self.job_timeout) {
            Ok(Ok(done)) => Ok(done),
            Ok(Err(message)) => Err(Rejection::new(ErrorCode::Internal, message)),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(Rejection::new(
                ErrorCode::Internal,
                "job timed out in the engine",
            )),
            // Reply channel died: the server drained underneath us.
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(Rejection::new(
                ErrorCode::Draining,
                "request dropped during shutdown",
            )),
        }
    }

    /// `APPEND`, whichever door it came through. The streaming ledger
    /// (`appends == appends_applied + appends_rejected`) is bumped in one
    /// lock acquisition once the outcome is known, so the identity holds
    /// at arbitrary observation points.
    pub(crate) fn append(
        &self,
        dataset: &str,
        points: &[Point2],
    ) -> Result<AppendReply, Rejection> {
        let outcome = if self.is_draining() {
            Err(Rejection::draining())
        } else {
            self.apply_append(dataset, points)
        };
        let mut s = self.stats();
        s.appends += 1;
        match &outcome {
            Ok((reply, deltas)) => {
                s.appends_applied += 1;
                s.append_points += reply.appended as u64;
                s.watch_deltas += deltas;
            }
            Err(rejection) => {
                s.appends_rejected += 1;
                if rejection.code == ErrorCode::UnknownDataset {
                    s.unknown_dataset += 1;
                }
            }
        }
        outcome.map(|(reply, _)| reply)
    }

    /// Applies one batch end to end, under the append lock: incremental
    /// index maintenance, copy-on-write registry swap, cache repair, and
    /// watch-stream deltas (the count of which rides along for the
    /// ledger). Returns a typed rejection without having mutated
    /// anything when the batch is unusable — a torn or invalid `APPEND`
    /// must leave the dataset at its pre-append snapshot.
    fn apply_append(
        &self,
        dataset: &str,
        points: &[Point2],
    ) -> Result<(AppendReply, u64), Rejection> {
        let _guard = self.append_lock.lock().expect("append lock poisoned");
        let Some(old_entry) = self.registry.get(dataset) else {
            return Err(Rejection::unknown_dataset(dataset));
        };
        let t0 = Instant::now();
        let (index, report) = self
            .engine
            .append_to_prepared(&old_entry.index, points)
            .map_err(|e| Rejection::new(ErrorCode::BadRequest, e.to_string()))?;

        // Swap the registry *before* repairing the cache: any in-flight
        // batch that tries to insert an old-generation result after this
        // point sees a length mismatch (checked under the cache lock) and
        // skips; anything inserted before is swept by the repair below.
        let entry = Arc::new(DatasetEntry {
            name: old_entry.name.clone(),
            index,
            suggested_eps: old_entry.suggested_eps,
        });
        self.registry.swap(Arc::clone(&entry));

        let repair = repair_cache(self, &old_entry, &entry, points, report.resorted);
        let deltas = notify_watchers(self, &entry);

        let reply = AppendReply {
            appended: points.len(),
            total: report.total,
            repaired: repair.repaired,
            dropped: repair.dropped,
            ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        Ok((reply, deltas))
    }

    /// `WATCH`: subscribes the caller to the `(dataset, variant)` delta
    /// stream, creating it (by feeding the current generation through an
    /// insertion-maintained clustering) when it is the first subscriber.
    /// Answers the census at subscription time and the receiving end of
    /// the pushes; dropping the receiver is the unsubscribe — the next
    /// broadcast prunes the dead sender.
    pub(crate) fn watch(
        &self,
        dataset: &str,
        variant: Variant,
    ) -> Result<(WatchReply, mpsc::Receiver<Delta>), Rejection> {
        if self.is_draining() {
            return Err(Rejection::draining());
        }
        // The append lock keeps the registry snapshot and the new
        // stream's state consistent: no append can land between feeding
        // the stream and registering it.
        let guard = self.append_lock.lock().expect("append lock poisoned");
        let Some(entry) = self.registry.get(dataset) else {
            drop(guard);
            return Err(self.unknown_dataset(dataset));
        };
        let (tx, rx) = mpsc::channel();
        let mut watchers = self.watchers.lock().expect("watchers lock poisoned");
        let at = match watchers
            .iter()
            .position(|s| s.dataset == dataset && s.variant == variant)
        {
            Some(at) => {
                watchers[at].subscribers.push(tx);
                at
            }
            None => {
                let mut inc =
                    IncrementalDbscan::new(DbscanParams::new(variant.eps, variant.minpts));
                feed_stream(&mut inc, &entry.index);
                watchers.push(WatchStream {
                    dataset: dataset.to_string(),
                    variant,
                    inc,
                    subscribers: vec![tx],
                });
                watchers.len() - 1
            }
        };
        let reply = WatchReply {
            clusters: watchers[at].inc.clusters(),
            noise: watchers[at].inc.noise(),
        };
        drop(watchers);
        drop(guard);
        self.stats().watches += 1;
        Ok((reply, rx))
    }

    /// The `STATS` document: one JSON object, the same on every door.
    pub(crate) fn stats_json(&self) -> String {
        let s = self.stats().clone();
        let cache = self.cache().stats();
        let mut doc = JsonObject::new()
            .uint("uptime_ms", self.started.elapsed().as_millis() as u64)
            .boolean("draining", self.is_draining());
        for c in JOB_COUNTERS {
            doc = doc.uint(c.key, (c.get)(&s));
        }
        doc = doc.float("engine_busy_ms", s.engine_busy.as_secs_f64() * 1e3);
        for c in STREAM_COUNTERS {
            doc = doc.uint(c.key, (c.get)(&s));
        }
        let datasets = self.registry.list();
        let datasets = datasets
            .iter()
            .map(|(name, size)| (name.as_str(), *size, None));
        doc.raw("cache", &cache.to_json())
            .raw("datasets", &wire::datasets_array(datasets))
            .finish()
    }

    /// Prometheus-style text exposition of the service counters, cache
    /// counters, and per-phase latency histograms, one metric per line.
    ///
    /// Counters and histograms are rendered from a *single copy* of the
    /// same [`ServiceStats`] that [`Shared::stats_json`] serializes, taken
    /// under the stats lock, through the same counter table — so the
    /// exposition can never structurally disagree with `STATS`, and the
    /// ledger's invariants (`submitted == completed + failed +
    /// in_flight`; one phase sample per clustered variant) hold inside
    /// any one exposition.
    pub(crate) fn metrics_text(&self) -> String {
        use std::fmt::Write as _;
        let s = self.stats().clone();
        let cache = self.cache().stats();
        let mut out = String::with_capacity(4096);
        let u = |out: &mut String, name: &str, v: u64| {
            let _ = writeln!(out, "{name} {v}");
        };
        for c in JOB_COUNTERS {
            u(&mut out, c.series, (c.get)(&s));
        }
        let _ = writeln!(
            out,
            "vbp_engine_busy_seconds_total {:.6}",
            s.engine_busy.as_secs_f64()
        );
        for (name, v) in cache.gauges() {
            let _ = writeln!(out, "vbp_cache_{name} {v}");
        }
        for (name, v) in cache.totals() {
            let _ = writeln!(out, "vbp_cache_{name}_total {v}");
        }
        for c in STREAM_COUNTERS {
            u(&mut out, c.series, (c.get)(&s));
        }
        let (streams, subscribers) = {
            let w = self.watchers.lock().expect("watchers lock poisoned");
            (
                w.len(),
                w.iter().map(|s| s.subscribers.len()).sum::<usize>(),
            )
        };
        u(&mut out, "vbp_watch_streams", streams as u64);
        u(&mut out, "vbp_watch_subscribers", subscribers as u64);
        for (phase, hist) in s.phases.phases() {
            for (le, cum) in hist.cumulative_buckets() {
                if le == u64::MAX {
                    let _ = writeln!(
                        out,
                        "vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"+Inf\"}} {cum}"
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"{le}\"}} {cum}"
                    );
                }
            }
            let _ = writeln!(
                out,
                "vbp_phase_latency_ns_count{{phase=\"{phase}\"}} {}",
                hist.count()
            );
            let _ = writeln!(
                out,
                "vbp_phase_latency_ns_sum{{phase=\"{phase}\"}} {}",
                hist.sum_ns()
            );
        }
        out
    }

    /// Fails whatever is still queued once the dispatcher has exited.
    /// Any job enqueued in the shutdown race has no dispatcher left;
    /// dropping it disconnects the reply channel (the door answers
    /// `draining`) and must still reach a terminal counter, or the stats
    /// invariant would leak phantom in-flight jobs.
    pub(crate) fn fail_abandoned_jobs(&self) {
        let dropped = {
            let mut q = self.queue.lock().expect("queue lock poisoned");
            q.drain(..).count() as u64
        };
        if dropped > 0 {
            self.account_terminal(dropped, true);
        }
    }

    /// Flushes dirty append tails and writes every dataset + its cache
    /// entries under the configured store directory (a no-op without
    /// one). Only sound at quiescence (all server threads joined), which
    /// [`ServerHandle::wait`](crate::server::ServerHandle::wait)
    /// guarantees. Persistence failures are logged, never fatal: the
    /// daemon is exiting either way, and a partial store only costs the
    /// next boot a cold rebuild of the affected datasets.
    pub(crate) fn persist_store(&self) {
        let Some(dir) = self.store_dir.as_deref() else {
            return;
        };
        // A handle with an unsorted append tail would persist (and then
        // restore) tail-degraded query locality forever. Flush it
        // through the engine's re-sort path first, re-keying the
        // dataset's cached tree-order labels through old-permutation →
        // caller order → new-permutation (counter-neutral: nothing was
        // repaired or dropped, only re-ordered).
        for entry in self.registry.entries() {
            if entry.index.appended_since_sort() == 0 {
                continue;
            }
            let clean = self.engine.resort_prepared(&entry.index);
            let gather = rekey_gather(entry.index.permutation(), clean.permutation());
            self.cache().remap_results(&entry.name, |_, result| {
                if result.len() != gather.len() {
                    // Covers a different generation (e.g. inserted
                    // mid-drain race) — cannot be re-keyed soundly.
                    return None;
                }
                Some(Arc::new(rekeyed(result, &gather)))
            });
            self.registry.swap(Arc::new(DatasetEntry {
                name: entry.name.clone(),
                index: clean,
                suggested_eps: entry.suggested_eps,
            }));
        }
        let cache_entries = self.cache().snapshot_entries();
        match crate::store::persist_all(dir, &self.registry, &cache_entries) {
            Ok(n) => eprintln!("vbp-store: persisted {n} dataset(s) to {}", dir.display()),
            Err(e) => eprintln!(
                "vbp-store: failed to persist warm state to {}: {e}",
                dir.display()
            ),
        }
    }
}

/// Dispatcher: pop → linger one batch window → drain same-dataset queue
/// entries → one engine run. Exits once draining *and* empty.
pub(crate) fn dispatcher_loop(shared: &Shared) {
    loop {
        let first = {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(job) = q.pop_front() {
                    break job;
                }
                if shared.is_draining() {
                    return;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(q, Duration::from_millis(100))
                    .expect("queue lock poisoned");
                q = guard;
            }
        };
        if !shared.batch_window.is_zero() && !shared.is_draining() {
            std::thread::sleep(shared.batch_window);
        }
        let mut batch = vec![first];
        {
            let mut q = shared.queue.lock().expect("queue lock poisoned");
            let mut rest = VecDeque::with_capacity(q.len());
            while let Some(job) = q.pop_front() {
                if job.dataset == batch[0].dataset {
                    batch.push(job);
                } else {
                    rest.push_back(job);
                }
            }
            *q = rest;
        }
        run_batch(shared, batch);
    }
}

/// Fails every job of a batch with one message: terminal accounting
/// first, then the replies.
fn fail_batch(shared: &Shared, batch: Vec<Job>, message: &str) {
    shared.account_terminal(batch.len() as u64, true);
    for job in batch {
        let _ = job.reply.send(Err(message.to_string()));
    }
}

/// Executes one same-dataset batch and answers every job in it. Every
/// job reaches exactly one terminal counter before its reply is sent.
fn run_batch(shared: &Shared, batch: Vec<Job>) {
    let Some(entry) = shared.registry.get(&batch[0].dataset) else {
        // `submit_wait` validates the dataset before enqueueing; this is
        // a belt-and-braces path, not an expected one.
        let message = format!("dataset '{}' disappeared", batch[0].dataset);
        return fail_batch(shared, batch, &message);
    };

    // Unique variants of the batch, in canonical order.
    let mut unique: Vec<Variant> = Vec::new();
    for job in &batch {
        if !unique.contains(&job.variant) {
            unique.push(job.variant);
        }
    }
    let variants = VariantSet::new(unique.clone());

    // Seed from the cache: one warm source per distinct best hit.
    let mut warm: Vec<WarmSource> = Vec::new();
    if shared.cache_enabled {
        let mut cache = shared.cache();
        for &v in variants.as_slice() {
            if let Some(hit) = cache.lookup(&entry.name, v) {
                // A concurrent APPEND may leave entries sized for a
                // different snapshot than the one this batch holds;
                // they are valid for *their* generation but unusable
                // as warm sources here.
                if hit.result.len() != entry.index.len() {
                    continue;
                }
                if !warm.iter().any(|w| w.variant == hit.variant) {
                    warm.push(WarmSource {
                        variant: hit.variant,
                        result: hit.result,
                    });
                }
            }
        }
    }

    let t0 = Instant::now();
    let mut request = RunRequest::prepared(&entry.index, &variants).warm(&warm);
    if let Some(policy) = shared.sharding {
        request = request.sharding(policy);
    }
    let report = match shared.engine.execute(&request) {
        Ok(report) => report,
        Err(EngineError::JobPanic(panic)) => {
            shared.stats().panics_contained += 1;
            if variants.len() == 1 {
                // The poisoned variant is isolated: fail exactly these
                // jobs with a typed message, keep the dispatcher alive.
                fail_batch(shared, batch, &panic.to_string());
            } else {
                // A multi-variant batch failed as a unit — the engine
                // cannot say which peers would have succeeded. Retry
                // each distinct variant as its own single-variant batch
                // so only the genuinely poisoned jobs fail.
                let mut groups: Vec<(Variant, Vec<Job>)> = Vec::new();
                for job in batch {
                    match groups.iter_mut().find(|(v, _)| *v == job.variant) {
                        Some((_, group)) => group.push(job),
                        None => groups.push((job.variant, vec![job])),
                    }
                }
                for (_, group) in groups {
                    run_batch(shared, group);
                }
            }
            return;
        }
        Err(other) => {
            // Prepared input is finite by construction and warm sources
            // come from the same index, so this arm is unreachable in
            // practice — but a typed error must still terminate every job.
            return fail_batch(shared, batch, &other.to_string());
        }
    };
    let busy = t0.elapsed();

    if shared.cache_enabled {
        let mut cache = shared.cache();
        // Insert only while this batch's snapshot is still current:
        // the registry read happens *under the cache lock*, the same
        // lock `APPEND`'s repair pass holds, so a stale-generation
        // result can never slip in behind the repair sweep.
        let current = shared
            .registry
            .get(&entry.name)
            .is_some_and(|e| e.index.len() == entry.index.len());
        if current {
            for (i, &v) in variants.as_slice().iter().enumerate() {
                cache.insert(&entry.name, v, Arc::clone(&report.results[i]));
            }
        }
    }

    // The whole run in one acquisition of the one ledger lock.
    {
        let mut s = shared.stats();
        s.batches += 1;
        s.max_batch = s.max_batch.max(batch.len());
        s.engine_warm_hits += report.warm_hits() as u64;
        s.engine_scratch += report.from_scratch_count() as u64;
        s.engine_in_run_reused += report
            .outcomes
            .iter()
            .filter(|o| o.reused_from().is_some() && !o.warm)
            .count() as u64;
        s.engine_busy += busy;
        s.shards.merge(&report.sharding);
        s.phases.merge(&report.phases);
        s.completed += batch.len() as u64;
        s.in_flight = s.in_flight.saturating_sub(batch.len() as u64);
    }

    let ms = busy.as_secs_f64() * 1e3;
    // Rendered once per batch, only when an HTTP job asked for it; the
    // line protocol never pays for the report serialization.
    let report_json: Option<Arc<str>> = batch
        .iter()
        .any(|j| j.want_report)
        .then(|| Arc::from(report.to_json()));
    for job in batch {
        let i = variants
            .as_slice()
            .iter()
            .position(|v| *v == job.variant)
            .expect("job variant is in the batch set");
        let outcome = &report.outcomes[i];
        let labels = job
            .want_labels
            .then(|| entry.index.labels_in_caller_order(&report.results[i]));
        let report_json = if job.want_report {
            report_json.as_ref().map(Arc::clone)
        } else {
            None
        };
        let _ = job.reply.send(Ok(JobDone {
            reply: SubmitReply {
                clusters: outcome.clusters,
                noise: outcome.noise,
                warm: outcome.warm,
                reused: outcome.reused_from().is_some(),
                ms,
                labels,
            },
            report_json,
        }));
    }
}

/// Incremental [`DominanceCache`] repair after an append: each cached
/// entry for the dataset is either *extended* (when the insertion
/// provably cannot have changed any old label) or *dropped* (when its
/// ε-region was touched, or it belongs to an older generation).
///
/// The untouched test is exact, not heuristic: an entry at variant `v`
/// is untouched iff no inserted point has a pre-append point within
/// `v.eps`. Then every old point keeps its ε-neighborhood, hence its
/// count, core status, and label; the inserted points cluster purely
/// among themselves. One query per inserted point, at the widest cached
/// ε, against the previous generation's `T_low` (which holds exactly the
/// pre-append points) finds the batch's smallest squared distance to an
/// old point, so each entry's test is one comparison with its own `ε²`
/// — the kernel's closed predicate.
///
/// The successor's tree order is the old one followed by the batch, so
/// an untouched entry *is* its old result extended by the batch's own
/// clustering ([`ClusterResult::extend`]). It is written through
/// [`Arc::make_mut`]: a batch still holding the old `Arc` keeps the old
/// result. After a re-sort the extended result is then re-keyed into the
/// new tree order by the gather the store flush uses ([`rekey_gather`]).
fn repair_cache(
    shared: &Shared,
    old_entry: &DatasetEntry,
    entry: &DatasetEntry,
    appended: &[Point2],
    resorted: bool,
) -> RepairStats {
    if !shared.cache_enabled {
        return RepairStats::default();
    }
    let old_n = old_entry.index.len();
    let mut cache = shared.cache();
    let nearest = cache
        .widest_eps(&entry.name)
        .and_then(|eps| nearest_sq(old_entry.index.t_low(), appended, eps));
    let mut gather: Option<Vec<PointId>> = None;
    cache.maintain_after_append(&entry.name, |variant, slot| {
        if slot.len() != old_n {
            // An older generation (raced a previous append's sweep);
            // nothing to extend it from.
            return false;
        }
        if nearest.is_some_and(|d| d <= variant.eps * variant.eps) {
            return false; // ε-region touched: old labels may shift
        }
        let tail = dbscan_brute_force(appended, DbscanParams::new(variant.eps, variant.minpts));
        Arc::make_mut(slot).extend(&tail);
        if resorted {
            let gather = gather.get_or_insert_with(|| {
                // The extended order: old tree order, then the batch.
                let mut extended = old_entry.index.permutation().to_vec();
                extended.extend(old_n as PointId..entry.index.len() as PointId);
                rekey_gather(&extended, entry.index.permutation())
            });
            *slot = Arc::new(rekeyed(slot, gather));
        }
        true
    })
}

/// The smallest squared distance from a point of `batch` to a point of
/// `tree` within `eps` of it, computed as the ε-kernel computes it
/// (`dx*dx + dy*dy`); `None` when no point of `tree` is that close.
fn nearest_sq(tree: &PackedRTree, batch: &[Point2], eps: f64) -> Option<f64> {
    let (xs, ys) = tree.coords();
    let mut neighbors: Vec<PointId> = Vec::new();
    let mut nearest: Option<f64> = None;
    for p in batch {
        neighbors.clear();
        tree.epsilon_neighbors(*p, eps, &mut neighbors);
        for &i in &neighbors {
            let dx = xs[i as usize] - p.x;
            let dy = ys[i as usize] - p.y;
            let d = dx * dx + dy * dy;
            nearest = Some(nearest.map_or(d, |m| m.min(d)));
        }
    }
    nearest
}

/// The gather that re-keys a clustering from one tree order to another
/// over the same caller ids: position `i` of the `to` order takes the
/// label at position `gather[i]` of the `from` order. Both orders are
/// given as permutations (tree position → caller id).
fn rekey_gather(from: &[PointId], to: &[PointId]) -> Vec<PointId> {
    let from_pos = invert_permutation(from);
    to.iter().map(|&caller| from_pos[caller as usize]).collect()
}

/// `result` re-keyed through a [`rekey_gather`] gather.
fn rekeyed(result: &ClusterResult, gather: &[PointId]) -> ClusterResult {
    let labels = result.labels();
    let raw = gather.iter().map(|&i| labels.raw(i)).collect();
    ClusterResult::from_labels(Labels::from_raw(raw))
}

/// Brings a stream's clustering up to `index`'s generation: inserts, in
/// caller order and as one batch, every point the stream has not seen
/// yet, and returns what the batch did. The one feed both the first
/// subscription (from empty) and every append (the new tail) go through.
///
/// Each ε-query is answered by the generation's own `T_low`, its tree ids
/// mapped back to caller ids through the permutation; `insert` drops the
/// ids it has not reached, so the stream sees the points arrive one at a
/// time although the tree already holds them all. Caller ids reach tree
/// positions through [`PreparedIndex::tree_positions`], which a
/// maintained append carries forward in O(batch): the inverse is built
/// only for the first stream of a generation that has none (the first
/// `WATCH`, or the first append after a re-sort).
fn feed_stream(inc: &mut IncrementalDbscan, index: &PreparedIndex) -> InsertOutcome {
    let tree = index.t_low();
    let permutation = index.permutation();
    let tree_pos = index.tree_positions();
    let eps = inc.params().eps;
    inc.insert(index.len() - inc.len(), |q, out| {
        let center = tree.points()[tree_pos[q as usize] as usize];
        tree.epsilon_neighbors(center, eps, out);
        for p in out.iter_mut() {
            *p = permutation[*p as usize];
        }
    })
}

/// Feeds a freshly swapped-in generation to every watch stream of its
/// dataset, broadcasting one [`Delta`] per subscriber, and prunes dead
/// subscribers and empty streams. Returns the number of deltas
/// actually delivered.
fn notify_watchers(shared: &Shared, entry: &DatasetEntry) -> u64 {
    let mut watchers = shared.watchers.lock().expect("watchers lock poisoned");
    let mut delivered = 0u64;
    for stream in watchers.iter_mut().filter(|s| s.dataset == entry.name) {
        let appended = entry.index.len() - stream.inc.len();
        let outcome = feed_stream(&mut stream.inc, &entry.index);
        let delta = Delta {
            dataset: stream.dataset.clone(),
            eps: stream.variant.eps,
            minpts: stream.variant.minpts,
            appended,
            new: outcome.born,
            absorbed: outcome.absorbed,
            promoted: outcome.promoted,
            clusters: stream.inc.clusters(),
            noise: stream.inc.noise(),
        };
        stream
            .subscribers
            .retain(|tx| tx.send(delta.clone()).is_ok());
        delivered += stream.subscribers.len() as u64;
    }
    watchers.retain(|s| !s.subscribers.is_empty());
    delivered
}

/// Parses `name value` out of a metrics exposition; panics when the
/// metric is absent (tests want missing metrics loud).
#[cfg(test)]
pub(crate) fn metric(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("metric '{name}' missing"))
        .parse()
        .unwrap_or_else(|_| panic!("metric '{name}' is not a u64"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use variantdbscan::EngineConfig;
    use vbp_dbscan::MAX_CLUSTER_ID;

    /// A `Shared` with no threads attached: admission control can be
    /// unit-tested without racing a live dispatcher.
    fn bare_shared(queue_cap: usize) -> Shared {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let config = ServiceConfig {
            queue_cap,
            cache_bytes: 0,
            batch_window: Duration::ZERO,
            job_timeout: Duration::from_secs(5),
            ..ServiceConfig::default()
        };
        Shared::new(engine, Registry::new(), &config, StoreBoot::default())
    }

    fn dummy_job() -> Job {
        let (tx, rx) = mpsc::channel();
        std::mem::forget(rx);
        Job {
            dataset: "d".into(),
            variant: Variant::new(1.0, 4),
            want_labels: false,
            want_report: false,
            reply: tx,
        }
    }

    #[test]
    fn draining_rejects_new_submits_at_admission() {
        let shared = bare_shared(4);
        shared.begin_drain();
        let rejection = shared.admit(dummy_job()).unwrap_err();
        assert_eq!(rejection, Rejection::draining());
        assert_eq!(rejection.code, ErrorCode::Draining);
        assert_eq!(shared.stats().rejected_draining, 1);
    }

    #[test]
    fn full_queue_rejects_with_overloaded() {
        let shared = bare_shared(2);
        shared.admit(dummy_job()).unwrap();
        shared.admit(dummy_job()).unwrap();
        let rejection = shared.admit(dummy_job()).unwrap_err();
        assert_eq!(rejection.code, ErrorCode::Overloaded);
        // The hint travels typed and as the line protocol's token.
        assert_eq!(rejection.retry_after, Some(1));
        assert_eq!(rejection.message, "retry-after=1 queue full");
        let s = shared.stats().clone();
        assert_eq!((s.submitted, s.rejected_overloaded), (2, 1));
        assert_eq!(s.in_flight, 2, "admitted jobs are in flight");
    }

    #[test]
    fn terminal_accounting_preserves_the_stats_invariant() {
        let shared = bare_shared(8);
        for _ in 0..5 {
            shared.admit(dummy_job()).unwrap();
        }
        shared.account_terminal(2, false);
        shared.account_terminal(1, true);
        let s = shared.stats().clone();
        assert_eq!(
            (s.submitted, s.completed, s.failed, s.in_flight),
            (5, 2, 1, 2)
        );
        assert_eq!(s.submitted, s.completed + s.failed + s.in_flight);
    }

    #[test]
    fn rejections_before_admission_touch_the_right_counters() {
        let shared = bare_shared(4);
        let unknown = shared
            .submit_wait("nope".into(), Variant::new(1.0, 4), false, false)
            .err()
            .expect("unregistered dataset");
        assert_eq!(unknown, Rejection::unknown_dataset("nope"));
        assert_eq!(
            shared
                .append("nope", &[Point2::new(0.0, 0.0)])
                .unwrap_err()
                .code,
            ErrorCode::UnknownDataset
        );
        shared.begin_drain();
        assert_eq!(
            shared.append("nope", &[Point2::new(0.0, 0.0)]).unwrap_err(),
            Rejection::draining()
        );
        assert_eq!(
            shared.watch("nope", Variant::new(1.0, 4)).err(),
            Some(Rejection::draining())
        );
        let s = shared.stats().clone();
        assert_eq!(s.unknown_dataset, 2, "submit + the un-drained append");
        assert_eq!(
            (s.appends, s.appends_applied, s.appends_rejected),
            (2, 0, 2)
        );
        assert_eq!(s.submitted, 0, "nothing was admitted");
    }

    #[test]
    fn metrics_text_agrees_with_stats_and_holds_the_invariant() {
        let shared = bare_shared(8);
        for _ in 0..5 {
            shared.admit(dummy_job()).unwrap();
        }
        shared.account_terminal(2, false);
        shared.account_terminal(1, true);
        let text = shared.metrics_text();
        let (sub, done, failed, inflight) = (
            metric(&text, "vbp_jobs_submitted_total"),
            metric(&text, "vbp_jobs_completed_total"),
            metric(&text, "vbp_jobs_failed_total"),
            metric(&text, "vbp_jobs_in_flight"),
        );
        assert_eq!((sub, done, failed, inflight), (5, 2, 1, 2));
        assert_eq!(sub, done + failed + inflight, "admission invariant");
        // Every row of the counter table shows up in both views with the
        // same value.
        let stats = variantdbscan::parse_json(shared.stats_json().as_bytes()).unwrap();
        for c in counters() {
            let in_stats = stats.get(c.key).and_then(|v| v.as_f64());
            assert_eq!(in_stats, Some(metric(&text, c.series) as f64), "{}", c.key);
        }
        // Per-phase histogram framing: each phase carries a +Inf bucket
        // whose cumulative count equals its _count line.
        for phase in ["scratch", "reuse", "lock_wait", "sched", "shard_local"] {
            let inf = metric(
                &text,
                &format!("vbp_phase_latency_ns_bucket{{phase=\"{phase}\",le=\"+Inf\"}}"),
            );
            let count = metric(
                &text,
                &format!("vbp_phase_latency_ns_count{{phase=\"{phase}\"}}"),
            );
            assert_eq!(inf, count, "{phase} +Inf bucket must equal the count");
        }
        // Shard counters are always exposed (zero while nothing shards).
        for name in ["vbp_shard_variants_total", "vbp_shard_tasks_total"] {
            assert_eq!(metric(&text, name), 0, "{name} without sharded runs");
        }
        // Every line is `name value` with a vbp_ namespace.
        for line in text.lines() {
            assert!(line.starts_with("vbp_"), "bad metric line {line:?}");
            assert_eq!(line.split(' ').count(), 2, "bad metric line {line:?}");
        }
    }

    /// An `n × n` clump at `(x, y)` with 0.25 spacing: one cluster at
    /// the test variant `(0.5, 3)`.
    fn clump(x: f64, y: f64, n: usize) -> Vec<Point2> {
        (0..n * n)
            .map(|i| Point2::new(x + (i % n) as f64 * 0.25, y + (i / n) as f64 * 0.25))
            .collect()
    }

    /// The repair decision at its boundary, on the generation `shared`
    /// currently holds for `"d"`: `anchor` is an already-appended point
    /// with nothing else within 2 of it, `clusters` the dataset's
    /// cluster count at the test variant. All coordinates are dyadic so
    /// "exactly ε" is exact in `f64`.
    fn check_repair_boundary(shared: &Shared, anchor: Point2, clusters: u32) {
        let v = Variant::new(0.5, 3);
        let old = shared.registry.get("d").unwrap();
        let n = old.index.len();
        let set = VariantSet::new(vec![v]);
        let report = shared
            .engine
            .execute(&RunRequest::prepared(&old.index, &set))
            .unwrap();
        let current = Arc::clone(&report.results[0]);
        assert_eq!(current.num_clusters() as u32, clusters);
        let stale = ClusterResult::from_labels(Labels::from_raw(vec![NOISE_RAW; n - 1]));
        shared.cache().insert("d", v, Arc::clone(&current));
        shared
            .cache()
            .insert("d", Variant::new(0.25, 3), Arc::new(stale));

        // Nearest old point at ε·(1 + 1e-9): the current-generation
        // entry is repaired — old labels kept, the batch (one cluster of
        // its own) spliced on at the next free cluster id — and the
        // older-generation entry is dropped although nothing touched it.
        let x = anchor.x + 0.5 * (1.0 + 1e-9);
        let batch = [
            Point2::new(x, anchor.y),
            Point2::new(x + 0.125, anchor.y),
            Point2::new(x + 0.25, anchor.y),
        ];
        let reply = shared.append("d", &batch).unwrap();
        assert_eq!((reply.repaired, reply.dropped), (1, 1));
        let entries = shared.cache().snapshot_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, v);
        let mut expected = old.index.labels_in_caller_order(&current);
        expected.extend([clusters; 3]);
        let next = shared.registry.get("d").unwrap();
        assert_eq!(next.index.labels_in_caller_order(&entries[0].2), expected);

        // Nearest old point at exactly ε (the anchor, and only it): the
        // predicate is closed, so the entry is dropped.
        let reply = shared
            .append("d", &[Point2::new(anchor.x - 0.5, anchor.y)])
            .unwrap();
        assert_eq!((reply.repaired, reply.dropped), (0, 1));
        assert!(shared.cache().snapshot_entries().is_empty());
    }

    #[test]
    fn repair_decision_is_closed_at_eps_and_does_not_over_drop() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let config = ServiceConfig {
            cache_bytes: 1 << 20,
            ..ServiceConfig::default()
        };
        let mut base = clump(0.0, 0.0, 8);
        base.extend(clump(20.0, 20.0, 8));
        let tail = |s: &Shared| s.registry.get("d").unwrap().index.appended_since_sort();

        // A maintained generation: the anchor sits in the old tree's
        // unsorted tail.
        let registry = Registry::new();
        registry.register(&engine, "d", &base).unwrap();
        let shared = Shared::new(engine.clone(), registry, &config, StoreBoot::default());
        let anchor = Point2::new(50.0, 50.0);
        shared.append("d", &[anchor]).unwrap();
        assert_eq!(tail(&shared), 1);
        check_repair_boundary(&shared, anchor, 2);

        // A generation that went through a re-sort (a third clump, a
        // third of the dataset) and then one more append.
        let registry = Registry::new();
        registry.register(&engine, "d", &base).unwrap();
        let shared = Shared::new(engine, registry, &config, StoreBoot::default());
        shared.append("d", &clump(30.0, 30.0, 8)).unwrap();
        assert_eq!(tail(&shared), 0, "the third clump forces a re-sort");
        shared.append("d", &[anchor]).unwrap();
        check_repair_boundary(&shared, anchor, 3);
    }

    fn clump_shared(base: &[Point2]) -> Shared {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let config = ServiceConfig {
            cache_bytes: 1 << 20,
            ..ServiceConfig::default()
        };
        let registry = Registry::new();
        registry.register(&engine, "d", base).unwrap();
        Shared::new(engine, registry, &config, StoreBoot::default())
    }

    /// Clusters `variants` on the current generation of `"d"` and caches
    /// every result.
    fn warm(shared: &Shared, variants: &[Variant]) {
        let entry = shared.registry.get("d").unwrap();
        let set = VariantSet::new(variants.to_vec());
        let report = shared
            .engine
            .execute(&RunRequest::prepared(&entry.index, &set))
            .unwrap();
        for (i, &v) in set.as_slice().iter().enumerate() {
            shared
                .cache()
                .insert("d", v, Arc::clone(&report.results[i]));
        }
    }

    /// The oracle for a repair, built the long way: old labels scattered
    /// to caller order, the batch's labels spliced on (cluster ids
    /// offset), gathered through the new permutation, and every member
    /// list re-derived by `from_labels`.
    fn spliced(
        old: &PreparedIndex,
        new: &PreparedIndex,
        result: &ClusterResult,
        batch: &[Point2],
        v: Variant,
    ) -> ClusterResult {
        let mut caller = old.labels_in_caller_order(result);
        let offset = result.num_clusters() as u32;
        let tail = dbscan_brute_force(batch, DbscanParams::new(v.eps, v.minpts));
        caller.extend(tail.labels().iter_raw().map(|l| {
            if l <= MAX_CLUSTER_ID {
                l + offset
            } else {
                l
            }
        }));
        let tree = new
            .permutation()
            .iter()
            .map(|&orig| caller[orig as usize])
            .collect();
        ClusterResult::from_labels(Labels::from_raw(tree))
    }

    #[test]
    fn one_query_at_the_widest_eps_decides_every_entry() {
        let mut base = clump(0.0, 0.0, 8);
        base.extend(clump(20.0, 20.0, 8));
        let shared = clump_shared(&base);
        let variants = [0.25, 0.5, 1.0].map(|eps| Variant::new(eps, 3));
        warm(&shared, &variants);
        let old = shared.registry.get("d").unwrap();
        let narrow = shared.cache().snapshot_entries()[0].2.clone();

        // Exactly 0.5 from the clump's corner (0, 0), farther from every
        // other old point: untouched at 0.25, touched at 0.5 (the
        // predicate is closed) and at 1.0.
        let batch = [Point2::new(-0.5, 0.0)];
        let reply = shared.append("d", &batch).unwrap();
        assert_eq!((reply.repaired, reply.dropped), (1, 2));
        let entries = shared.cache().snapshot_entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1, variants[0]);
        let new = shared.registry.get("d").unwrap();
        let want = spliced(&old.index, &new.index, &narrow, &batch, variants[0]);
        assert_eq!(*entries[0].2, want);
    }

    #[test]
    fn repaired_entries_equal_the_spliced_oracle_across_a_resort() {
        let mut base = clump(0.0, 0.0, 8);
        base.extend(clump(20.0, 20.0, 8));
        let shared = clump_shared(&base);
        let variants = [
            Variant::new(0.3, 3),
            Variant::new(0.5, 4),
            Variant::new(0.75, 2),
            Variant::new(1.0, 6),
        ];
        warm(&shared, &variants);

        // Seeded remote clumps: side 1–4, spacing 0.25 / 0.5 (one
        // cluster, or noise under a large minpts) or 2.0 (all noise),
        // 20 apart so that no batch is within 1.0 of anything earlier.
        // Each lies below everything earlier, so the bin sort of a
        // re-sort moves it ahead of the old points: the re-key matters.
        let mut state = 0x5eed_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let (mut resorts, mut maintained) = (0, 0);
        for round in 0..12 {
            let side = 1 + next(4) as usize;
            let spacing = [0.25, 0.5, 2.0][next(3) as usize];
            let (x, y) = (100.0 + 20.0 * round as f64, -100.0 - 20.0 * round as f64);
            let batch: Vec<Point2> = (0..side * side)
                .map(|i| {
                    let (col, row) = ((i % side) as f64, (i / side) as f64);
                    Point2::new(x + col * spacing, y + row * spacing)
                })
                .collect();

            let old = shared.registry.get("d").unwrap();
            let before: Vec<(Variant, ClusterResult)> = shared
                .cache()
                .snapshot_entries()
                .into_iter()
                .map(|(_, v, r)| (v, (*r).clone()))
                .collect();
            // A reader holding one entry's `Arc` across the append.
            let held = shared.cache().lookup("d", variants[1]).unwrap().result;

            let reply = shared.append("d", &batch).unwrap();
            assert_eq!((reply.repaired, reply.dropped), (variants.len(), 0));
            let new = shared.registry.get("d").unwrap();
            if new.index.appended_since_sort() == 0 {
                resorts += 1;
            } else {
                maintained += 1;
            }

            let after = shared.cache().snapshot_entries();
            assert_eq!(after.len(), before.len());
            for ((_, v, result), (v0, old_result)) in after.iter().zip(&before) {
                assert_eq!(v, v0);
                let want = spliced(&old.index, &new.index, old_result, &batch, *v);
                assert_eq!(**result, want, "round {round}, {v}");
                if *v == variants[1] {
                    assert_eq!(
                        held.len(),
                        old.index.len(),
                        "the held copy keeps its length"
                    );
                    assert_eq!(*held, *old_result, "and its labels");
                }
            }
        }
        assert!(
            resorts >= 1 && maintained >= 1,
            "{resorts} re-sorts, {maintained} maintained"
        );
    }

    const NOISE_RAW: u32 = u32::MAX;
}
