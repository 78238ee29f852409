//! Structured tracing and per-phase latency histograms — the engine's
//! observability substrate.
//!
//! The paper's argument is entirely about *where time goes* (index memory
//! traffic vs distance filtering, reuse vs re-clustering, scheduling vs
//! idle workers), so the engine records *where time went* as first-class
//! data rather than post-hoc aggregates:
//!
//! - **Per-worker ring buffers** of typed [`TraceEvent`]s with monotonic
//!   nanosecond timestamps. Each worker owns its ring outright — no locks,
//!   no sharing, no allocation after the ring is created — and the rings
//!   are merged into a [`TraceSnapshot`] only after the run completes.
//!   With [`TraceLevel::Off`] (the default) every record call is a single
//!   inlined enum compare followed by an early return, and no ring is ever
//!   allocated, so the disabled-mode cost is a branch per event site (the
//!   benchmark reports the enabled-mode cost as `trace.overhead_share`).
//! - **Log-bucketed latency histograms** ([`Histogram`]): power-of-two
//!   nanosecond buckets, mergeable (merge is associative and commutative,
//!   pinned by tests), recorded per worker and folded into the
//!   [`RunReport`](crate::RunReport) per phase (scratch clustering, reuse
//!   clustering, lock wait, schedule decisions).
//!
//! Nothing here aggregates across runs: a caller that wants that (the
//! service daemon, for its `METRICS` verb) merges each report's
//! [`PhaseHistograms`] into its own ledger.
//!
//! Ring sizing: [`TRACE_RING_CAPACITY`] records per worker. A record is a
//! few dozen bytes, so a full ring is well under 1 MiB per worker; when a
//! run emits more events than fit, the ring wraps and keeps the *newest*
//! records, counting the overwritten ones in [`TraceSnapshot::dropped`].

use std::time::{Duration, Instant};

use crate::json::{JsonArray, JsonObject};
use crate::variant::VariantSet;

/// How much a run records into its trace rings.
///
/// Levels are ordered: each level records everything the previous one
/// does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing. Every event site reduces to one branch; no ring is
    /// allocated. This is the default, and the mode tier-1 runs in.
    #[default]
    Off,
    /// Variant-level spans: scheduler pulls, start/finish, the reuse vs
    /// scratch decision, panic containment.
    Spans,
    /// Spans plus intra-variant detail on the reuse path: frontier
    /// ε-query batches and seed-expansion waves.
    Full,
}

impl TraceLevel {
    /// Parses `"off"`, `"spans"`, or `"full"` (case-insensitive).
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(TraceLevel::Off),
            "spans" => Some(TraceLevel::Spans),
            "full" => Some(TraceLevel::Full),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(&self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Spans => "spans",
            TraceLevel::Full => "full",
        }
    }

    /// `true` unless the level is [`TraceLevel::Off`].
    #[inline]
    pub fn enabled(&self) -> bool {
        *self != TraceLevel::Off
    }
}

impl std::fmt::Display for TraceLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where an assignment's clustering came from, as recorded in trace
/// events. Mirrors the scheduler's reuse decision, including warm
/// (cross-run) sources.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceSource {
    /// Clustered from scratch.
    Scratch,
    /// Reused the in-run completion of this variant index.
    InRun(u32),
    /// Reused warm (cross-run cache) seed number `i`.
    Warm(u32),
}

impl TraceSource {
    fn push_json(&self, obj: JsonObject) -> JsonObject {
        match self {
            TraceSource::Scratch => obj.str("source", "scratch"),
            TraceSource::InRun(u) => obj
                .str("source", "in-run")
                .uint("source_variant", *u as u64),
            TraceSource::Warm(w) => obj.str("source", "warm").uint("warm_seed", *w as u64),
        }
    }
}

impl std::fmt::Display for TraceSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceSource::Scratch => write!(f, "scratch"),
            TraceSource::InRun(u) => write!(f, "reuse<-v{u}"),
            TraceSource::Warm(w) => write!(f, "reuse<-warm#{w}"),
        }
    }
}

/// One typed trace event. `Copy` and fixed-size by construction: pushing
/// one into a ring never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A worker pulled an assignment from the schedule (the heap pull
    /// under the schedule mutex). `pending` is the number of variants
    /// still unassigned after this pull.
    Pull {
        /// Variant index assigned.
        variant: u32,
        /// The reuse-vs-scratch decision attached to the assignment.
        source: TraceSource,
        /// Variants still waiting after this pull.
        pending: u32,
    },
    /// Clustering work for a variant began on a worker.
    Started {
        /// Variant index.
        variant: u32,
        /// The execution path the job is about to take.
        source: TraceSource,
    },
    /// One batched ε-query pass over a reuse frontier (Algorithm 3 lines
    /// 13–15). [`TraceLevel::Full`] only.
    FrontierBatch {
        /// Variant index.
        variant: u32,
        /// Frontier points ε-queried in this batch.
        queries: u32,
    },
    /// One seed-expansion wave inside ExpandCluster (Algorithm 4).
    /// [`TraceLevel::Full`] only.
    ExpandWave {
        /// Variant index.
        variant: u32,
        /// Points ε-queried in this wave.
        points: u32,
    },
    /// Clustering work for a variant completed.
    Finished {
        /// Variant index.
        variant: u32,
        /// Clusters found.
        clusters: u32,
        /// Noise points.
        noise: u32,
    },
    /// A clustering job panicked and was contained in its worker.
    PanicContained {
        /// Variant index of the offending job.
        variant: u32,
    },
}

impl TraceEvent {
    /// The event's kind as a stable lowercase tag (used in JSON and the
    /// Prometheus exposition).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Pull { .. } => "pull",
            TraceEvent::Started { .. } => "started",
            TraceEvent::FrontierBatch { .. } => "frontier-batch",
            TraceEvent::ExpandWave { .. } => "expand-wave",
            TraceEvent::Finished { .. } => "finished",
            TraceEvent::PanicContained { .. } => "panic-contained",
        }
    }
}

/// One timestamped, thread-attributed trace record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Monotonic nanoseconds since the trace epoch (the run's `t0`).
    pub at_ns: u64,
    /// Worker thread id.
    pub thread: u16,
    /// The event.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// JSON object form (stable keys: `at_ns`, `thread`, `kind`, plus the
    /// event's payload fields).
    pub fn to_json(&self) -> String {
        let obj = JsonObject::new()
            .uint("at_ns", self.at_ns)
            .uint("thread", self.thread as u64)
            .str("kind", self.event.kind());
        let obj = match self.event {
            TraceEvent::Pull {
                variant,
                source,
                pending,
            } => source
                .push_json(obj.uint("variant", variant as u64))
                .uint("pending", pending as u64),
            TraceEvent::Started { variant, source } => {
                source.push_json(obj.uint("variant", variant as u64))
            }
            TraceEvent::FrontierBatch { variant, queries } => obj
                .uint("variant", variant as u64)
                .uint("queries", queries as u64),
            TraceEvent::ExpandWave { variant, points } => obj
                .uint("variant", variant as u64)
                .uint("points", points as u64),
            TraceEvent::Finished {
                variant,
                clusters,
                noise,
            } => obj
                .uint("variant", variant as u64)
                .uint("clusters", clusters as u64)
                .uint("noise", noise as u64),
            TraceEvent::PanicContained { variant } => obj.uint("variant", variant as u64),
        };
        obj.finish()
    }
}

/// Records each per-worker ring holds. Chosen so [`TraceLevel::Spans`]
/// never wraps for realistic variant sets (3 records per assignment) and
/// [`TraceLevel::Full`] keeps several thousand waves of history per
/// worker, while a fully-populated ring stays well under 1 MiB.
pub const TRACE_RING_CAPACITY: usize = 16_384;

/// A single-owner event ring, one per worker thread. Never locked, never
/// reallocated after construction; wraps keeping the newest records.
#[derive(Debug)]
pub struct TraceRing {
    thread: u16,
    capacity: usize,
    ring: Vec<TraceRecord>,
    written: u64,
}

impl TraceRing {
    /// An enabled ring for `thread`, preallocated to `capacity`.
    pub fn new(thread: u16, capacity: usize) -> TraceRing {
        TraceRing {
            thread,
            capacity,
            ring: Vec::with_capacity(capacity),
            written: 0,
        }
    }

    /// A ring that stores nothing (capacity zero, no allocation).
    pub fn disabled(thread: u16) -> TraceRing {
        TraceRing {
            thread,
            capacity: 0,
            ring: Vec::new(),
            written: 0,
        }
    }

    #[inline]
    fn push(&mut self, at_ns: u64, event: TraceEvent) {
        let rec = TraceRecord {
            at_ns,
            thread: self.thread,
            event,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(rec);
        } else if self.capacity > 0 {
            let slot = (self.written % self.capacity as u64) as usize;
            self.ring[slot] = rec;
        } else {
            return;
        }
        self.written += 1;
    }

    /// Records stored (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Records overwritten by ring wrap.
    pub fn dropped(&self) -> u64 {
        self.written.saturating_sub(self.capacity as u64)
    }

    /// Consumes the ring, returning its records in chronological order
    /// plus the dropped count.
    pub fn into_records(self) -> (Vec<TraceRecord>, u64) {
        let dropped = self.dropped();
        if dropped == 0 {
            return (self.ring, dropped);
        }
        // The ring wrapped: the oldest surviving record sits at the next
        // write slot. Rotate so the output is chronological.
        let split = (self.written % self.capacity as u64) as usize;
        let mut records = Vec::with_capacity(self.ring.len());
        records.extend_from_slice(&self.ring[split..]);
        records.extend_from_slice(&self.ring[..split]);
        (records, dropped)
    }
}

/// A worker-owned tracer: a [`TraceRing`] gated by a [`TraceLevel`] and
/// stamped from a shared epoch.
///
/// The hot path is `record`/`record_full`: one inlined level compare,
/// then (only when enabled) a monotonic clock read and a ring write —
/// no locks, no allocation.
#[derive(Debug)]
pub struct WorkerTracer {
    level: TraceLevel,
    epoch: Instant,
    ring: TraceRing,
}

impl WorkerTracer {
    /// A tracer for worker `thread` stamping timestamps relative to
    /// `epoch` (the run's `t0`). Allocates its ring only when `level`
    /// is enabled.
    pub fn new(thread: u16, level: TraceLevel, epoch: Instant) -> WorkerTracer {
        let ring = if level.enabled() {
            TraceRing::new(thread, TRACE_RING_CAPACITY)
        } else {
            TraceRing::disabled(thread)
        };
        WorkerTracer { level, epoch, ring }
    }

    /// A no-op tracer (level [`TraceLevel::Off`], no allocation) for call
    /// paths that need a tracer argument but record nothing.
    pub fn disabled() -> WorkerTracer {
        WorkerTracer::new(0, TraceLevel::Off, Instant::now())
    }

    /// The tracer's level.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Records a span-level event ([`TraceLevel::Spans`] and up).
    #[inline]
    pub fn record(&mut self, event: TraceEvent) {
        if self.level < TraceLevel::Spans {
            return;
        }
        let at_ns = saturating_ns(self.epoch.elapsed());
        self.ring.push(at_ns, event);
    }

    /// Records a detail event ([`TraceLevel::Full`] only).
    #[inline]
    pub fn record_full(&mut self, event: TraceEvent) {
        if self.level < TraceLevel::Full {
            return;
        }
        let at_ns = saturating_ns(self.epoch.elapsed());
        self.ring.push(at_ns, event);
    }

    /// Consumes the tracer, yielding its chronological records and
    /// dropped count.
    pub fn into_records(self) -> (Vec<TraceRecord>, u64) {
        self.ring.into_records()
    }
}

#[inline]
fn saturating_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The merged, chronologically sorted trace of one run — what
/// [`RunReport::trace`](crate::RunReport) carries when the request asked
/// for tracing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceSnapshot {
    /// All workers' records, merged and sorted by `at_ns` (stable, so
    /// records within one worker keep their emission order).
    pub records: Vec<TraceRecord>,
    /// Records lost to ring wrap, summed over workers.
    pub dropped: u64,
    /// The per-worker ring capacity the run used.
    pub per_worker_capacity: usize,
}

impl TraceSnapshot {
    /// Merges worker tracers into one chronological snapshot.
    pub fn from_workers(tracers: Vec<WorkerTracer>) -> TraceSnapshot {
        let mut records = Vec::new();
        let mut dropped = 0;
        for tracer in tracers {
            let (recs, d) = tracer.into_records();
            records.extend(recs);
            dropped += d;
        }
        records.sort_by_key(|r| r.at_ns);
        TraceSnapshot {
            records,
            dropped,
            per_worker_capacity: TRACE_RING_CAPACITY,
        }
    }

    /// The event sequence with timestamps stripped — the deterministic
    /// part of a `T = 1` trace (two same-seed single-thread runs must
    /// produce identical sequences; see the `trace_determinism` test).
    pub fn event_sequence(&self) -> Vec<(u16, TraceEvent)> {
        self.records.iter().map(|r| (r.thread, r.event)).collect()
    }

    /// Counts records of each kind, as `(kind, count)` pairs sorted by
    /// kind.
    pub fn kind_counts(&self) -> Vec<(&'static str, u64)> {
        let mut counts: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        for r in &self.records {
            *counts.entry(r.event.kind()).or_insert(0) += 1;
        }
        counts.into_iter().collect()
    }

    /// JSON form: `{"dropped":…,"ring_capacity":…,"records":[…]}`.
    pub fn to_json(&self) -> String {
        let mut records = JsonArray::new();
        for r in &self.records {
            records.push_raw(&r.to_json());
        }
        JsonObject::new()
            .uint("dropped", self.dropped)
            .uint("ring_capacity", self.per_worker_capacity as u64)
            .raw("records", &records.finish())
            .finish()
    }

    /// Renders a per-variant, flame-style span dump: one line per
    /// completed variant under its worker thread, with the reuse
    /// decision, wave/batch counts, and the span's wall-clock window.
    pub fn render_text(&self, variants: &VariantSet) -> String {
        #[derive(Default, Clone)]
        struct Span {
            thread: u16,
            started_ns: u64,
            finished_ns: u64,
            source: Option<TraceSource>,
            waves: u32,
            wave_points: u64,
            batches: u32,
            batch_queries: u64,
            clusters: u32,
            noise: u32,
            finished: bool,
            panicked: bool,
        }
        let mut spans: std::collections::BTreeMap<u32, Span> = std::collections::BTreeMap::new();
        for r in &self.records {
            match r.event {
                TraceEvent::Started { variant, source } => {
                    let s = spans.entry(variant).or_default();
                    s.thread = r.thread;
                    s.started_ns = r.at_ns;
                    s.source = Some(source);
                }
                TraceEvent::FrontierBatch { variant, queries } => {
                    let s = spans.entry(variant).or_default();
                    s.batches += 1;
                    s.batch_queries += queries as u64;
                }
                TraceEvent::ExpandWave { variant, points } => {
                    let s = spans.entry(variant).or_default();
                    s.waves += 1;
                    s.wave_points += points as u64;
                }
                TraceEvent::Finished {
                    variant,
                    clusters,
                    noise,
                } => {
                    let s = spans.entry(variant).or_default();
                    s.finished_ns = r.at_ns;
                    s.clusters = clusters;
                    s.noise = noise;
                    s.finished = true;
                }
                TraceEvent::PanicContained { variant } => {
                    spans.entry(variant).or_default().panicked = true;
                }
                _ => {}
            }
        }

        let mut out = String::new();
        let mut threads: Vec<u16> = spans.values().map(|s| s.thread).collect();
        threads.sort_unstable();
        threads.dedup();
        for thread in threads {
            out.push_str(&format!("thread {thread}\n"));
            let mut thread_spans: Vec<(&u32, &Span)> =
                spans.iter().filter(|(_, s)| s.thread == thread).collect();
            thread_spans.sort_by_key(|(_, s)| s.started_ns);
            for (&v, s) in thread_spans {
                let ms = |ns: u64| ns as f64 / 1e6;
                let variant = if (v as usize) < variants.len() {
                    format!("v{v} {}", variants.get(v as usize))
                } else {
                    format!("warm#{}", v as usize - variants.len())
                };
                let source = s
                    .source
                    .map(|src| src.to_string())
                    .unwrap_or_else(|| "?".into());
                if s.panicked {
                    out.push_str(&format!(
                        "  [{:>10.3}ms ..      PANIC]  {variant}  {source}\n",
                        ms(s.started_ns)
                    ));
                    continue;
                }
                if !s.finished {
                    continue;
                }
                out.push_str(&format!(
                    "  [{:>10.3}ms .. {:>10.3}ms]  {variant}  {source}",
                    ms(s.started_ns),
                    ms(s.finished_ns),
                ));
                if s.waves > 0 || s.batches > 0 {
                    out.push_str(&format!(
                        "  batches={} ({} queries) waves={} ({} points)",
                        s.batches, s.batch_queries, s.waves, s.wave_points
                    ));
                }
                out.push_str(&format!("  clusters={} noise={}\n", s.clusters, s.noise));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "({} records dropped by ring wrap; capacity {} per worker)\n",
                self.dropped, self.per_worker_capacity
            ));
        }
        out
    }
}

/// Log₂ buckets a [`Histogram`] holds: bucket `i` counts durations in
/// `[2^(i-1), 2^i)` nanoseconds (bucket 0 is `< 1 ns`), so 40 buckets
/// cover everything up to ~9 minutes with the last bucket absorbing the
/// tail.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A log-bucketed latency histogram: power-of-two nanosecond buckets,
/// constant-size, mergeable.
///
/// `merge` is associative and commutative (it adds bucket counts and
/// sums), so per-worker histograms can be folded in any grouping —
/// pinned by the `histogram_merge_is_associative` test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum_ns: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum_ns: 0,
        }
    }

    #[inline]
    fn bucket(ns: u64) -> usize {
        ((64 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Records one sample of `ns` nanoseconds.
    ///
    /// Every counter add saturates: a histogram that has absorbed
    /// `u64::MAX` samples (a long-lived daemon merging forever) pins at
    /// the ceiling instead of overflow-panicking in debug builds —
    /// consistent with `sum_ns`, which has always saturated.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        let b = Self::bucket(ns);
        self.counts[b] = self.counts[b].saturating_add(1);
        self.count = self.count.saturating_add(1);
        self.sum_ns = self.sum_ns.saturating_add(ns);
    }

    /// Records one [`Duration`] sample.
    #[inline]
    pub fn record(&mut self, d: Duration) {
        self.record_ns(saturating_ns(d));
    }

    /// Adds every sample of `other` into `self`. Saturating, like
    /// [`Histogram::record_ns`].
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_ns = self.sum_ns.saturating_add(other.sum_ns);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Mean sample, nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Upper bound (exclusive, ns) of bucket `i`; `u64::MAX` for the
    /// overflow bucket.
    pub fn bucket_upper_ns(i: usize) -> u64 {
        if i >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            1u64 << i
        }
    }

    /// The upper bound (ns) of the bucket containing the `q`-quantile
    /// sample (`0 ≤ q ≤ 1`); 0 when empty. A bucketed bound, not an
    /// interpolation — adjacent quantiles can land on the same power of
    /// two.
    pub fn quantile_upper_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64 * q).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                return Self::bucket_upper_ns(i);
            }
        }
        u64::MAX
    }

    /// Non-empty buckets as `(upper_bound_ns, count)` pairs in ascending
    /// bucket order.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper_ns(i), c))
            .collect()
    }

    /// Cumulative bucket counts as `(upper_bound_ns, cumulative_count)`
    /// pairs, for Prometheus-style `_bucket{le=…}` exposition. Always
    /// ends with the overflow bucket (`u64::MAX`, total count).
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum = cum.saturating_add(c);
            if c > 0 || i == HISTOGRAM_BUCKETS - 1 {
                out.push((Self::bucket_upper_ns(i), cum));
            }
        }
        out
    }

    /// JSON form: `{"count":…,"sum_ns":…,"buckets":[[le_ns,count],…]}`
    /// (non-empty buckets only).
    pub fn to_json(&self) -> String {
        let mut buckets = JsonArray::new();
        for (le, c) in self.nonzero_buckets() {
            let mut pair = JsonArray::new();
            pair.push_uint(le);
            pair.push_uint(c);
            buckets.push_raw(&pair.finish());
        }
        JsonObject::new()
            .uint("count", self.count)
            .uint("sum_ns", self.sum_ns)
            .raw("buckets", &buckets.finish())
            .finish()
    }
}

/// The engine's per-phase latency histograms, recorded by every worker on
/// every assignment (always on — a handful of array increments per
/// assignment, negligible next to a clustering job) and merged into the
/// [`RunReport`](crate::RunReport).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PhaseHistograms {
    /// From-scratch clustering latency per assignment.
    pub scratch: Histogram,
    /// Reuse-path clustering latency per assignment.
    pub reuse: Histogram,
    /// Schedule-mutex acquisition latency (two samples per assignment:
    /// pull and completion).
    pub lock_wait: Histogram,
    /// In-lock schedule decision latency (same two sample points).
    pub sched: Histogram,
}

impl PhaseHistograms {
    /// An empty set.
    pub fn new() -> PhaseHistograms {
        PhaseHistograms::default()
    }

    /// Merges every phase of `other` into `self` (associative, like
    /// [`Histogram::merge`]).
    pub fn merge(&mut self, other: &PhaseHistograms) {
        self.scratch.merge(&other.scratch);
        self.reuse.merge(&other.reuse);
        self.lock_wait.merge(&other.lock_wait);
        self.sched.merge(&other.sched);
    }

    /// The phases as `(name, histogram)` pairs, in stable order.
    pub fn phases(&self) -> [(&'static str, &Histogram); 4] {
        [
            ("scratch", &self.scratch),
            ("reuse", &self.reuse),
            ("lock_wait", &self.lock_wait),
            ("sched", &self.sched),
        ]
    }

    /// JSON object keyed by phase name.
    pub fn to_json(&self) -> String {
        let mut obj = JsonObject::new();
        for (name, hist) in self.phases() {
            obj = obj.raw(name, &hist.to_json());
        }
        obj.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;

    fn rng_samples(seed: u64, n: usize) -> Vec<u64> {
        let mut state = seed | 1;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state % 1_000_000_000
            })
            .collect()
    }

    #[test]
    fn trace_level_parse_and_order() {
        assert_eq!(TraceLevel::parse("off"), Some(TraceLevel::Off));
        assert_eq!(TraceLevel::parse("SPANS"), Some(TraceLevel::Spans));
        assert_eq!(TraceLevel::parse("Full"), Some(TraceLevel::Full));
        assert_eq!(TraceLevel::parse("verbose"), None);
        assert!(TraceLevel::Off < TraceLevel::Spans);
        assert!(TraceLevel::Spans < TraceLevel::Full);
        assert!(!TraceLevel::Off.enabled());
        assert!(TraceLevel::Spans.enabled());
        assert_eq!(TraceLevel::Full.to_string(), "full");
    }

    #[test]
    fn off_tracer_records_nothing_and_allocates_nothing() {
        let mut t = WorkerTracer::new(0, TraceLevel::Off, Instant::now());
        for _ in 0..100 {
            t.record(TraceEvent::PanicContained { variant: 0 });
            t.record_full(TraceEvent::ExpandWave {
                variant: 0,
                points: 1,
            });
        }
        let (records, dropped) = t.into_records();
        assert!(records.is_empty());
        assert_eq!(records.capacity(), 0, "Off must not allocate a ring");
        assert_eq!(dropped, 0);
    }

    #[test]
    fn spans_level_gates_full_events() {
        let mut t = WorkerTracer::new(3, TraceLevel::Spans, Instant::now());
        t.record(TraceEvent::Started {
            variant: 1,
            source: TraceSource::Scratch,
        });
        t.record_full(TraceEvent::ExpandWave {
            variant: 1,
            points: 10,
        });
        t.record(TraceEvent::Finished {
            variant: 1,
            clusters: 2,
            noise: 3,
        });
        let (records, _) = t.into_records();
        assert_eq!(records.len(), 2);
        assert!(records.iter().all(|r| r.thread == 3));
        assert_eq!(records[0].event.kind(), "started");
        assert_eq!(records[1].event.kind(), "finished");
    }

    #[test]
    fn ring_wrap_keeps_newest_in_order() {
        let mut ring = TraceRing::new(7, 4);
        for i in 0..10u64 {
            ring.push(
                i,
                TraceEvent::ExpandWave {
                    variant: i as u32,
                    points: 0,
                },
            );
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.dropped(), 6);
        let (records, dropped) = ring.into_records();
        assert_eq!(dropped, 6);
        let times: Vec<u64> = records.iter().map(|r| r.at_ns).collect();
        assert_eq!(times, vec![6, 7, 8, 9], "chronological, newest kept");
    }

    #[test]
    fn snapshot_merges_and_sorts_across_workers() {
        let epoch = Instant::now();
        let mut a = WorkerTracer::new(0, TraceLevel::Spans, epoch);
        let mut b = WorkerTracer::new(1, TraceLevel::Spans, epoch);
        a.record(TraceEvent::Started {
            variant: 0,
            source: TraceSource::Scratch,
        });
        b.record(TraceEvent::Started {
            variant: 1,
            source: TraceSource::InRun(0),
        });
        a.record(TraceEvent::Finished {
            variant: 0,
            clusters: 1,
            noise: 0,
        });
        let snap = TraceSnapshot::from_workers(vec![a, b]);
        assert_eq!(snap.records.len(), 3);
        assert!(snap.records.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert_eq!(snap.dropped, 0);
        let seq = snap.event_sequence();
        assert_eq!(seq.len(), 3);
        // JSON form is syntactically sound enough to embed in a report.
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"records\":["), "{json}");
    }

    #[test]
    fn render_text_shows_spans_and_reuse_decisions() {
        let epoch = Instant::now();
        let mut t = WorkerTracer::new(0, TraceLevel::Full, epoch);
        t.record(TraceEvent::Started {
            variant: 0,
            source: TraceSource::Scratch,
        });
        t.record(TraceEvent::Finished {
            variant: 0,
            clusters: 4,
            noise: 10,
        });
        t.record(TraceEvent::Started {
            variant: 1,
            source: TraceSource::InRun(0),
        });
        t.record_full(TraceEvent::ExpandWave {
            variant: 1,
            points: 25,
        });
        t.record(TraceEvent::Finished {
            variant: 1,
            clusters: 4,
            noise: 8,
        });
        let snap = TraceSnapshot::from_workers(vec![t]);
        let variants = VariantSet::new(vec![Variant::new(0.5, 4), Variant::new(0.6, 4)]);
        let text = snap.render_text(&variants);
        assert!(text.contains("thread 0"), "{text}");
        assert!(text.contains("scratch"), "{text}");
        assert!(text.contains("reuse<-v0"), "{text}");
        assert!(text.contains("waves=1 (25 points)"), "{text}");
        assert!(text.contains("clusters=4 noise=8"), "{text}");
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let mut h = Histogram::new();
        h.record_ns(0); // bucket 0
        h.record_ns(1); // bucket 1: [1, 2)
        h.record_ns(1023); // bucket 10: [512, 1024)
        h.record_ns(1024); // bucket 11
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum_ns(), 2048);
        let buckets = h.nonzero_buckets();
        assert_eq!(buckets, vec![(1, 1), (2, 1), (1024, 1), (2048, 1)]);
        // The overflow bucket absorbs the huge tail.
        h.record_ns(u64::MAX);
        assert_eq!(
            h.nonzero_buckets().last().unwrap().0,
            u64::MAX,
            "tail bucket"
        );
    }

    #[test]
    fn histogram_counters_saturate_at_u64_max_neighborhood() {
        // Merge-doubling reaches the u64 ceiling in ~64 rounds; every
        // counter (bucket, count, sum) must pin there instead of
        // overflow-panicking in debug builds.
        let mut h = Histogram::new();
        h.record_ns(100); // bucket upper bound 128
        for _ in 0..70 {
            let copy = h.clone();
            h.merge(&copy);
        }
        assert_eq!(h.count(), u64::MAX);
        assert_eq!(h.sum_ns(), u64::MAX);
        assert_eq!(h.nonzero_buckets(), vec![(128, u64::MAX)]);
        // Further traffic at the ceiling stays saturated.
        h.record_ns(100);
        h.record_ns(u64::MAX);
        let copy = h.clone();
        h.merge(&copy);
        assert_eq!(h.count(), u64::MAX);
        // Derived views survive a saturated histogram too.
        assert_eq!(h.quantile_upper_ns(0.5), 128);
        assert_eq!(h.cumulative_buckets().last().unwrap().1, u64::MAX);
        assert_eq!(h.mean_ns(), 1.0);
    }

    #[test]
    fn histogram_quantiles_are_bucket_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record_ns(100); // bucket upper bound 128
        }
        h.record_ns(1_000_000); // upper bound 2^20 = 1048576
        assert_eq!(h.quantile_upper_ns(0.5), 128);
        assert_eq!(h.quantile_upper_ns(1.0), 1 << 20);
        assert_eq!(Histogram::new().quantile_upper_ns(0.5), 0);
    }

    #[test]
    fn histogram_merge_is_associative_and_commutative() {
        let make = |seed: u64| {
            let mut h = Histogram::new();
            for ns in rng_samples(seed, 500) {
                h.record_ns(ns);
            }
            h
        };
        let (a, b, c) = (make(11), make(22), make(33));

        // (a ⊔ b) ⊔ c == a ⊔ (b ⊔ c)
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut bc = b.clone();
        bc.merge(&c);
        let mut right = a.clone();
        right.merge(&bc);
        assert_eq!(left, right, "merge must be associative");

        // a ⊔ b == b ⊔ a
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");

        // Merge equals recording the union of samples directly.
        let mut direct = Histogram::new();
        for seed in [11u64, 22, 33] {
            for ns in rng_samples(seed, 500) {
                direct.record_ns(ns);
            }
        }
        assert_eq!(left, direct, "merge must equal the union of samples");
    }

    #[test]
    fn phase_histograms_merge_per_phase() {
        let mut a = PhaseHistograms::new();
        a.scratch.record_ns(10);
        a.lock_wait.record_ns(5);
        let mut b = PhaseHistograms::new();
        b.scratch.record_ns(20);
        b.reuse.record_ns(7);
        a.merge(&b);
        assert_eq!(a.scratch.count(), 2);
        assert_eq!(a.reuse.count(), 1);
        assert_eq!(a.lock_wait.count(), 1);
        assert_eq!(a.sched.count(), 0);
        let json = a.to_json();
        for phase in ["scratch", "reuse", "lock_wait", "sched"] {
            assert!(json.contains(&format!("\"{phase}\":")), "{json}");
        }
    }

    #[test]
    fn cumulative_buckets_end_with_total() {
        let mut h = Histogram::new();
        h.record_ns(1);
        h.record_ns(1000);
        h.record_ns(1000);
        let cum = h.cumulative_buckets();
        assert_eq!(cum.last().unwrap(), &(u64::MAX, 3));
        assert!(cum.windows(2).all(|w| w[0].1 <= w[1].1), "monotone");
    }
}
