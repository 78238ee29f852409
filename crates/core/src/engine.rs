//! The multithreaded VariantDBSCAN execution engine — Algorithm 3's
//! `parallel for` over variants, realized as a completion-driven thread
//! pool over the online schedule of §IV-D.
//!
//! One engine run:
//!
//! 1. bin-sorts the database and builds the shared R-tree `T_low` with
//!    the configured `r`, unless the request brings a [`PreparedIndex`]
//!    (the dataset generation, [`crate::generation`]; the paper's second
//!    tree, `T_high`, is not built);
//! 2. spawns `T` workers that repeatedly pull an
//!    [`Assignment`](crate::scheduler::Assignment) from the shared
//!    [`ScheduleState`] — either "cluster variant `v` from scratch"
//!    or "cluster `v` reusing completed variant `u`";
//! 3. records a [`VariantOutcome`] per variant (timings, reuse fraction,
//!    search counters) and returns everything as a [`RunReport`].
//!
//! # Entry point
//!
//! Every run goes through [`Engine::execute`] with a [`RunRequest`]
//! describing the database (raw points or a [`PreparedIndex`]), the
//! variant set, optional warm reuse sources, and the [`TraceLevel`]:
//!
//! ```
//! use variantdbscan::{Engine, EngineConfig, RunRequest, VariantSet};
//! use vbp_geom::Point2;
//!
//! let points: Vec<Point2> = (0..100)
//!     .map(|i| Point2::new((i % 10) as f64, (i / 10) as f64))
//!     .collect();
//! let variants = VariantSet::cartesian(&[1.1, 1.5], &[3]);
//! let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(8));
//! let report = engine.execute(&RunRequest::new(&points, &variants)).unwrap();
//! assert_eq!(report.outcomes.len(), 2);
//! ```
//!
//! # Concurrency structure
//!
//! The paper's premise is that variant-level parallelism keeps `T` threads
//! busy, so the shared state is deliberately split three ways to keep
//! workers off each other's backs:
//!
//! - a **small mutex** guards only the [`ScheduleState`], whose methods
//!   are O(log n) amortized (see the scheduler's incremental best-pair
//!   heap) — the critical section no longer scales with |V|²;
//! - per-variant results are published through `Vec<OnceLock<…>>` slots,
//!   so reuse sources are **read lock-free**: publication happens *before*
//!   the completion is announced under the schedule mutex, which is the
//!   happens-before edge that makes the unsynchronized read safe;
//! - per-variant outcomes collect in a **worker-private `Vec`** that
//!   rides home in the worker's join value instead of a shared
//!   `Mutex<Vec<_>>`, so bookkeeping never contends with pulls.
//!
//! Each worker additionally samples its own lock-wait, schedule-decision,
//! busy, and idle time into [`WorkerStats`] and the per-phase latency
//! [`PhaseHistograms`], and — when the request enables tracing — records
//! typed [`TraceEvent`]s into a private ring
//! buffer (see [`crate::trace`]), surfaced via [`RunReport::worker_stats`],
//! [`RunReport::phases`], and [`RunReport::trace`].
//!
//! The paper's *reference implementation* — sequential DBSCAN, `r = 1`,
//! no reuse — is the same engine under [`EngineConfig::reference`], so
//! every speedup comparison runs identical code paths except for the three
//! optimizations being measured.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vbp_dbscan::{dbscan_with_scratch, ClusterResult, DbscanScratch};
use vbp_geom::Point2;
use vbp_rtree::PackedRTree;

use crate::expand::{cluster_with_reuse_traced, NeighborCounts};
use crate::generation::PreparedIndex;
use crate::metrics::{ExecutionPath, RunReport, VariantOutcome, WorkerStats};
use crate::scheduler::{ScheduleState, Scheduler};
use crate::seeds::ReuseScheme;
use crate::trace::{
    PhaseHistograms, TraceEvent, TraceLevel, TraceSnapshot, TraceSource, WorkerTracer,
};
use crate::variant::{Variant, VariantSet};

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Worker threads `T`.
    pub threads: usize,
    /// Points per leaf MBB of `T_low` (the paper's `r`; 70–110 works well,
    /// see Figure 4).
    pub r: usize,
    /// Thread scheduling heuristic.
    pub scheduler: Scheduler,
    /// Cluster reuse prioritization (or [`ReuseScheme::Disabled`]).
    pub reuse: ReuseScheme,
    /// Keep per-variant [`ClusterResult`]s in the report. Disable for
    /// throughput measurements on huge variant sets.
    pub keep_results: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            threads: std::thread::available_parallelism().map_or(4, |n| n.get()),
            r: 80,
            scheduler: Scheduler::SchedGreedy,
            reuse: ReuseScheme::ClusDensity,
            keep_results: true,
        }
    }
}

impl EngineConfig {
    /// The paper's reference implementation: one thread, `r = 1`, no
    /// reuse (§V-B).
    pub fn reference() -> Self {
        Self {
            threads: 1,
            r: 1,
            scheduler: Scheduler::SchedGreedy,
            reuse: ReuseScheme::Disabled,
            keep_results: true,
        }
    }

    /// Builder-style setter for `threads`.
    pub fn with_threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Builder-style setter for `r`.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = r;
        self
    }

    /// Builder-style setter for the scheduler.
    pub fn with_scheduler(mut self, s: Scheduler) -> Self {
        self.scheduler = s;
        self
    }

    /// Builder-style setter for the reuse scheme.
    pub fn with_reuse(mut self, scheme: ReuseScheme) -> Self {
        self.reuse = scheme;
        self
    }

    /// Builder-style setter for `keep_results`.
    pub fn with_keep_results(mut self, keep: bool) -> Self {
        self.keep_results = keep;
        self
    }
}

/// A failed [`Engine::execute`] run, as one typed error.
#[derive(Clone, Debug, PartialEq)]
pub enum EngineError {
    /// A database point has a NaN or infinite coordinate. Rejected up
    /// front because it would otherwise poison MBB arithmetic deep inside
    /// the index with a far less actionable failure.
    NonFinitePoint {
        /// Index of the offending point in the caller's order.
        index: usize,
        /// The offending point.
        point: Point2,
    },
    /// A clustering job panicked inside a worker; the panic was contained
    /// and the run failed as a unit (see [`JobPanic`]). The engine and any
    /// prepared index stay fully usable.
    JobPanic(JobPanic),
    /// A warm source's result covers a different database size than the
    /// run's index, so its labels cannot be meaningful here.
    WarmSourceMismatch {
        /// The offending warm source's variant.
        variant: Variant,
        /// Points in the run's index.
        expected: usize,
        /// Points the warm result actually covers.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NonFinitePoint { index, point } => {
                write!(f, "point {index} has non-finite coordinates: {point:?}")
            }
            EngineError::JobPanic(p) => write!(f, "{p}"),
            EngineError::WarmSourceMismatch {
                variant,
                expected,
                got,
            } => write!(
                f,
                "warm source {variant} covers a different database: \
                 {got} points vs the index's {expected}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<JobPanic> for EngineError {
    fn from(p: JobPanic) -> Self {
        EngineError::JobPanic(p)
    }
}

/// A clustering job panicked inside a worker thread.
///
/// Workers contain per-assignment panics with `catch_unwind`: the first
/// panic poisons the schedule (no further assignments are handed out),
/// every worker drains, and the run fails as a unit with this typed
/// error instead of unwinding through the caller. The service layer maps
/// it to `ERR internal` for the affected request(s) while its dispatcher,
/// queue, and cache stay live.
#[derive(Clone, Debug, PartialEq)]
pub struct JobPanic {
    /// The variant whose job panicked.
    pub variant: Variant,
    /// The panic payload, rendered as a string.
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clustering job for variant {} panicked: {}",
            self.variant, self.message
        )
    }
}

impl std::error::Error for JobPanic {}

/// Renders a caught panic payload for [`JobPanic::message`].
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(payload) => match payload.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".into(),
        },
    }
}

/// An externally completed clustering offered to a run as a reuse source
/// — the unit the service's cross-run dominance cache feeds back into
/// warm [`RunRequest`]s. The result must be in the *tree order* of the
/// prepared index the warm run executes against (which it is, when it
/// came out of a previous run over the same handle).
#[derive(Clone, Debug)]
pub struct WarmSource {
    /// The variant the cached result was clustered with.
    pub variant: Variant,
    /// Its clustering, in the prepared index's tree order.
    pub result: Arc<ClusterResult>,
}

/// The database a [`RunRequest`] executes over.
#[derive(Clone, Copy, Debug)]
enum RunSource<'a> {
    /// Raw points: the run builds its own index and reports the
    /// build cost in [`RunReport::index_build_time`].
    Points(&'a [Point2]),
    /// A prebuilt index: the run reports `index_build_time == 0` (the
    /// cost is amortized in [`PreparedIndex::build_time`]).
    Prepared(&'a PreparedIndex),
}

/// One engine run, described declaratively: the database, the variant
/// set, and the run's options — warm reuse sources and [`TraceLevel`]:
///
/// ```no_run
/// # use variantdbscan::{Engine, RunRequest, TraceLevel, VariantSet};
/// # fn demo(engine: &Engine, points: &[vbp_geom::Point2], variants: &VariantSet) {
/// let report = engine
///     .execute(&RunRequest::new(points, variants).trace(TraceLevel::Spans))
///     .unwrap();
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct RunRequest<'a> {
    source: RunSource<'a>,
    variants: &'a VariantSet,
    warm: &'a [WarmSource],
    trace: TraceLevel,
}

impl<'a> RunRequest<'a> {
    /// A run over raw `points` (index built per run).
    pub fn new(points: &'a [Point2], variants: &'a VariantSet) -> RunRequest<'a> {
        RunRequest {
            source: RunSource::Points(points),
            variants,
            warm: &[],
            trace: TraceLevel::Off,
        }
    }

    /// A run over a prebuilt [`PreparedIndex`].
    pub fn prepared(index: &'a PreparedIndex, variants: &'a VariantSet) -> RunRequest<'a> {
        RunRequest {
            source: RunSource::Prepared(index),
            ..Self::new(&[], variants)
        }
    }

    /// Seeds the schedule with warm reuse sources: clusterings completed
    /// by earlier runs over the same index (the service's cross-run
    /// cache). Warm sources compete with in-run completions under the
    /// normal greedy rule; assignments that reuse one are flagged
    /// [`VariantOutcome::warm`] and counted by [`RunReport::warm_hits`].
    pub fn warm(mut self, sources: &'a [WarmSource]) -> RunRequest<'a> {
        self.warm = sources;
        self
    }

    /// Sets the run's [`TraceLevel`] (default [`TraceLevel::Off`]). Any
    /// enabled level makes the report carry a [`RunReport::trace`]
    /// snapshot.
    pub fn trace(mut self, level: TraceLevel) -> RunRequest<'a> {
        self.trace = level;
        self
    }
}

/// The VariantDBSCAN engine.
#[derive(Clone, Debug, Default)]
pub struct Engine {
    config: EngineConfig,
}

impl Engine {
    /// Creates an engine.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `r == 0`.
    pub fn new(config: EngineConfig) -> Self {
        assert!(config.threads >= 1, "need at least one worker thread");
        assert!(config.r >= 1, "r must be ≥ 1");
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Executes one [`RunRequest`]: clusters every variant over the
    /// request's database, returning the full run record. Results are
    /// reported in *tree order*; use [`RunReport::result_in_caller_order`]
    /// or the report's `permutation` to translate back.
    ///
    /// All failures are typed: invalid points
    /// ([`EngineError::NonFinitePoint`]), mismatched warm sources
    /// ([`EngineError::WarmSourceMismatch`]), and contained job panics
    /// ([`EngineError::JobPanic`] — the schedule is aborted on the first
    /// panic, every worker drains, and the engine plus any prepared index
    /// stay fully usable). This method never unwinds on engine-side
    /// failures.
    pub fn execute(&self, request: &RunRequest<'_>) -> Result<RunReport, EngineError> {
        let variants = request.variants;
        let prepared_local;
        let (index, build_time) = match request.source {
            RunSource::Points(points) => {
                prepared_local = self.prepare(points, None)?;
                (&prepared_local, prepared_local.build_time())
            }
            RunSource::Prepared(index) => (index, Duration::ZERO),
        };
        for w in request.warm {
            if w.result.len() != index.len() {
                return Err(EngineError::WarmSourceMismatch {
                    variant: w.variant,
                    expected: index.len(),
                    got: w.result.len(),
                });
            }
        }
        // One-shot runs own their index, so they pay (and report) its
        // construction; prepared runs amortize it and report zero.
        let mut report = self.run_scheduled(index, variants, request.warm, request.trace)?;
        report.index_build_time = build_time;
        Ok(report)
    }

    /// The engine core: clusters `variants` over a prepared index with
    /// optional warm sources. A panic inside any clustering job is caught
    /// in its worker, recorded first-wins in a shared slot, and turned
    /// into `Err(JobPanic)` after every worker has drained.
    fn run_scheduled(
        &self,
        index: &PreparedIndex,
        variants: &VariantSet,
        warm: &[WarmSource],
        trace: TraceLevel,
    ) -> Result<RunReport, JobPanic> {
        let n_var = variants.len();

        // The three-way shared state split (see module docs): a small
        // mutex for the schedule, lock-free once-cells for results, and
        // worker-private outcome bookkeeping. Warm sources occupy the result
        // slots past `n_var`, pre-filled before any worker starts, so the
        // lock-free read path is identical for both source kinds.
        let warm_variants: Vec<Variant> = warm.iter().map(|w| w.variant).collect();
        let schedule = Mutex::new(ScheduleState::with_warm_sources(
            variants.clone(),
            self.config.scheduler,
            self.config.reuse.reuses(),
            &warm_variants,
        ));
        let results: Vec<OnceLock<Arc<ClusterResult>>> =
            (0..n_var + warm.len()).map(|_| OnceLock::new()).collect();
        for (i, w) in warm.iter().enumerate() {
            results[n_var + i]
                .set(Arc::clone(&w.result))
                .expect("fresh slot");
        }
        let panic_slot: OnceLock<JobPanic> = OnceLock::new();
        // The variants of one ε share each point's |N_ε(p)| and the
        // tree's leaf-reach table; both are made only once a reuse
        // assignment at their ε runs.
        let neighbor_counts = NeighborCounts::new(index.t_low(), variants.iter().map(|v| v.eps));

        let t0 = Instant::now();
        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.config.threads)
                .map(|thread_id| {
                    let schedule = &schedule;
                    let results = &results[..];
                    let panic_slot = &panic_slot;
                    let neighbor_counts = &neighbor_counts;
                    scope.spawn(move || {
                        worker_loop(
                            thread_id,
                            self.config.reuse,
                            variants,
                            warm,
                            index.t_low(),
                            schedule,
                            results,
                            neighbor_counts,
                            panic_slot,
                            t0,
                            trace,
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker thread panicked"))
                .collect()
        });
        let total_time = t0.elapsed();

        // Fold per-worker observability before the panic check: a failed
        // run surfaces no report, but the fold is cheap either way.
        let mut worker_stats = Vec::with_capacity(outputs.len());
        let mut phases = PhaseHistograms::new();
        let mut tracers = Vec::with_capacity(outputs.len());
        let mut outcomes: Vec<VariantOutcome> = Vec::with_capacity(n_var);
        for out in outputs {
            outcomes.extend(out.outcomes);
            phases.merge(&out.phases);
            worker_stats.push(out.stats);
            tracers.push(out.tracer);
        }
        if let Some(panic) = panic_slot.into_inner() {
            // The schedule was aborted on the first caught panic, so some
            // result slots are legitimately empty — skip report assembly
            // entirely and fail the run as a unit.
            return Err(panic);
        }
        let trace_snapshot = trace
            .enabled()
            .then(|| TraceSnapshot::from_workers(tracers));

        outcomes.sort_by_key(|o| o.index);
        let results = if self.config.keep_results {
            results
                .into_iter()
                .take(n_var)
                .map(|slot| {
                    slot.into_inner()
                        .expect("every variant must have completed")
                })
                .collect()
        } else {
            Vec::new()
        };

        Ok(RunReport {
            outcomes,
            total_time,
            index_build_time: Duration::ZERO,
            threads: self.config.threads,
            chosen_r: index.chosen_r(),
            results,
            permutation: index.permutation().to_vec(),
            worker_stats,
            warm_seeds: warm.len(),
            phases,
            trace: trace_snapshot,
        })
    }
}

/// Everything one worker hands back when its loop drains: the outcomes
/// of the variants it clustered, contention accounting, its trace ring,
/// and its share of the per-phase latency histograms.
struct WorkerOutput {
    outcomes: Vec<VariantOutcome>,
    stats: WorkerStats,
    tracer: WorkerTracer,
    phases: PhaseHistograms,
}

/// One worker: pull → cluster → publish, until the schedule drains.
/// Returns its outcomes, contention/idle accounting, trace ring, and
/// phase histograms.
///
/// Each assignment's clustering work runs under `catch_unwind`: on a
/// panic the worker records the first [`JobPanic`] in `panic_slot`,
/// aborts the schedule (so peers stop pulling and drain), and exits its
/// loop — the panic never crosses the thread boundary.
#[allow(clippy::too_many_arguments)]
fn worker_loop(
    thread_id: usize,
    reuse: ReuseScheme,
    variants: &VariantSet,
    warm: &[WarmSource],
    t_low: &PackedRTree,
    schedule: &Mutex<ScheduleState>,
    results: &[OnceLock<Arc<ClusterResult>>],
    neighbor_counts: &NeighborCounts,
    panic_slot: &OnceLock<JobPanic>,
    t0: Instant,
    trace: TraceLevel,
) -> WorkerOutput {
    let mut scratch = DbscanScratch::new();
    let mut outcomes = Vec::new();
    let mut stats = WorkerStats::new(thread_id);
    let mut phases = PhaseHistograms::new();
    let mut tracer = WorkerTracer::new(u16::try_from(thread_id).unwrap_or(u16::MAX - 1), trace, t0);
    let worker_start = Instant::now();
    loop {
        // Pull an assignment under the schedule mutex, timing how long the
        // lock took to acquire vs how long the decision itself ran.
        let wait_start = Instant::now();
        let (assignment, pending) = {
            let mut guard = schedule.lock().expect("schedule mutex poisoned");
            let acquired = Instant::now();
            let lock_wait = acquired.duration_since(wait_start);
            stats.lock_wait += lock_wait;
            phases.lock_wait.record(lock_wait);
            let a = guard.next_assignment();
            let pending = guard.pending_count();
            let sched = acquired.elapsed();
            stats.sched_time += sched;
            phases.sched.record(sched);
            (a, pending)
        };
        let Some(assignment) = assignment else {
            break;
        };
        stats.assignments += 1;
        let variant_idx = assignment.variant as u32;
        let source_tag = match assignment.reuse_from {
            None => TraceSource::Scratch,
            Some(u) if u >= variants.len() => TraceSource::Warm((u - variants.len()) as u32),
            Some(u) => TraceSource::InRun(u as u32),
        };
        tracer.record(TraceEvent::Pull {
            variant: variant_idx,
            source: source_tag,
            pending: pending.min(u32::MAX as usize) as u32,
        });

        // Reuse sources are read lock-free: warm slots were filled before
        // the workers started; in-run slots were filled before the
        // source's completion was announced under the schedule mutex.
        let source_result: Option<Arc<ClusterResult>> = assignment.reuse_from.map(|u| {
            Arc::clone(
                results[u]
                    .get()
                    .expect("scheduler handed out an incomplete reuse source"),
            )
        });

        let variant = variants[assignment.variant];
        tracer.record(TraceEvent::Started {
            variant: variant_idx,
            source: source_tag,
        });
        let started = t0.elapsed();
        let clustered = {
            let tracer = &mut tracer;
            let scratch = &mut scratch;
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                crate::fault::check(variant);
                match (source_result, assignment.reuse_from) {
                    (Some(prev), Some(u)) => {
                        // Ids past the variant range address warm sources.
                        let from_warm = u >= variants.len();
                        let source_variant = if from_warm {
                            warm[u - variants.len()].variant
                        } else {
                            variants[u]
                        };
                        let (counts, reach) = neighbor_counts.at(variant.eps);
                        let (result, stats) = cluster_with_reuse_traced(
                            t_low,
                            variant,
                            &prev,
                            source_variant,
                            reuse,
                            counts,
                            reach,
                            tracer,
                            variant_idx,
                        );
                        (
                            result,
                            ExecutionPath::Reused {
                                source: source_variant,
                                stats,
                            },
                            from_warm,
                        )
                    }
                    _ => {
                        let (result, stats) = dbscan_with_scratch(t_low, variant.params(), scratch);
                        (result, ExecutionPath::FromScratch(stats), false)
                    }
                }
            }))
        };
        let (result, path, from_warm) = match clustered {
            Ok(done) => done,
            Err(payload) => {
                // Containment: record the first panic, poison the schedule
                // so every peer drains at its next pull, and exit without
                // publishing — the scratch space may be mid-mutation, but
                // this worker never touches it again.
                tracer.record(TraceEvent::PanicContained {
                    variant: variant_idx,
                });
                let _ = panic_slot.set(JobPanic {
                    variant,
                    message: panic_message(payload),
                });
                schedule.lock().expect("schedule mutex poisoned").abort();
                break;
            }
        };
        let finished = t0.elapsed();
        let busy = finished.saturating_sub(started);
        stats.busy += busy;
        match &path {
            ExecutionPath::FromScratch(_) => phases.scratch.record(busy),
            ExecutionPath::Reused { .. } => phases.reuse.record(busy),
        }
        tracer.record(TraceEvent::Finished {
            variant: variant_idx,
            clusters: result.num_clusters().min(u32::MAX as usize) as u32,
            noise: result.noise_count().min(u32::MAX as usize) as u32,
        });

        let outcome = VariantOutcome {
            index: assignment.variant,
            variant,
            thread: thread_id,
            started,
            finished,
            path,
            warm: from_warm,
            clusters: result.num_clusters(),
            noise: result.noise_count(),
        };

        // Publish the result BEFORE announcing completion: any worker that
        // is handed this variant as a reuse source observed the completion
        // under the schedule mutex, which orders this `set` before its
        // lock-free `get`.
        results[assignment.variant]
            .set(Arc::new(result))
            .expect("variant completed twice");
        {
            let wait_start = Instant::now();
            let mut guard = schedule.lock().expect("schedule mutex poisoned");
            let acquired = Instant::now();
            let lock_wait = acquired.duration_since(wait_start);
            stats.lock_wait += lock_wait;
            phases.lock_wait.record(lock_wait);
            guard.complete(assignment.variant);
            let sched = acquired.elapsed();
            stats.sched_time += sched;
            phases.sched.record(sched);
        }
        outcomes.push(outcome);
    }
    // Whatever wall time wasn't clustering, waiting for the lock, or
    // deciding the schedule was spent idle (thread startup/teardown and
    // outcome pushes included — both negligible and honest to count here).
    stats.idle = worker_start
        .elapsed()
        .saturating_sub(stats.busy + stats.lock_wait + stats.sched_time);
    WorkerOutput {
        outcomes,
        stats,
        tracer,
        phases,
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::variant::Variant;
    use std::time::Duration;
    use vbp_dbscan::{core_flags, core_isomorphic, dbscan};
    use vbp_rtree::BruteForce;

    /// Deterministic blob generator: `k` Gaussian-ish blobs on a grid plus
    /// uniform noise.
    pub(crate) fn blobs(n: usize, k: usize, seed: u64) -> Vec<Point2> {
        let mut state = seed | 1;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let centers: Vec<Point2> = (0..k)
            .map(|_| Point2::new(rnd() * 100.0, rnd() * 100.0))
            .collect();
        (0..n)
            .map(|i| {
                if i % 10 == 0 {
                    Point2::new(rnd() * 100.0, rnd() * 100.0) // noise
                } else {
                    let c = centers[i % k];
                    Point2::new(c.x + (rnd() - 0.5) * 2.0, c.y + (rnd() - 0.5) * 2.0)
                }
            })
            .collect()
    }

    pub(crate) fn small_grid() -> VariantSet {
        VariantSet::cartesian(&[0.8, 1.2, 1.6], &[4, 8])
    }

    /// [`Engine::execute`] over raw points, unwrapped — the shape most
    /// tests want.
    pub(crate) fn run(engine: &Engine, points: &[Point2], variants: &VariantSet) -> RunReport {
        engine
            .execute(&RunRequest::new(points, variants))
            .expect("test input is valid")
    }

    /// [`Engine::execute`] over a prepared index, unwrapped.
    pub(crate) fn run_prepared(
        engine: &Engine,
        index: &PreparedIndex,
        variants: &VariantSet,
    ) -> RunReport {
        engine
            .execute(&RunRequest::prepared(index, variants))
            .expect("test input is valid")
    }

    /// [`Engine::execute`] over a prepared index with warm sources,
    /// unwrapped.
    fn run_warm(
        engine: &Engine,
        index: &PreparedIndex,
        variants: &VariantSet,
        warm: &[WarmSource],
    ) -> RunReport {
        engine
            .execute(&RunRequest::prepared(index, variants).warm(warm))
            .expect("test input is valid")
    }

    #[test]
    fn engine_clusters_every_variant() {
        let points = blobs(800, 5, 42);
        let engine = Engine::new(EngineConfig::default().with_threads(4).with_r(16));
        let report = run(&engine, &points, &small_grid());
        assert_eq!(report.outcomes.len(), 6);
        assert_eq!(report.results.len(), 6);
        for (i, o) in report.outcomes.iter().enumerate() {
            assert_eq!(o.index, i);
            assert_eq!(report.results[i].num_clusters(), o.clusters);
        }
    }

    #[test]
    fn engine_results_match_direct_dbscan() {
        let points = blobs(600, 4, 7);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(3).with_r(20));
        let report = run(&engine, &points, &variants);

        // Compare each variant against a direct DBSCAN over the same tree
        // order under the label contract.
        let (t_low, _) = PackedRTree::build(&points, 20);
        let brute = BruteForce::new(t_low.shared_points());
        for (i, v) in variants.iter().enumerate() {
            let direct = dbscan(&t_low, v.params());
            let got = report.results[i].labels().as_raw();
            core_isomorphic(
                direct.labels().as_raw(),
                got,
                &core_flags(&brute, v.params()),
            )
            .unwrap_or_else(|e| panic!("variant {v}: {e}"));
        }
    }

    #[test]
    fn reference_config_never_reuses() {
        let points = blobs(300, 3, 11);
        let engine = Engine::new(EngineConfig::reference());
        let report = run(&engine, &points, &small_grid());
        assert_eq!(report.from_scratch_count(), 6);
        assert_eq!(report.mean_fraction_reused(), 0.0);
        assert_eq!(report.threads, 1);
    }

    #[test]
    fn first_t_variants_cannot_reuse() {
        // With |V| = 6 and T = 6, every variant starts before anything
        // completes... except workers that start late; at minimum the
        // first assignment per worker before any completion is scratch.
        // The robust invariant: from_scratch ≥ 1 and every reused variant
        // has a source satisfying the inclusion criteria.
        let points = blobs(400, 3, 13);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));
        let report = run(&engine, &points, &variants);
        assert!(report.from_scratch_count() >= 1);
        for o in &report.outcomes {
            if let Some(src) = o.reused_from() {
                assert!(o.variant.can_reuse(&src), "{} reused {}", o.variant, src);
            }
        }
    }

    #[test]
    fn reuse_actually_happens_at_t1() {
        let points = blobs(500, 4, 17);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_r(16)
                .with_reuse(ReuseScheme::ClusDensity),
        );
        let report = run(&engine, &points, &small_grid());
        // T = 1 ⇒ only the first variant is from scratch under SchedGreedy.
        assert_eq!(report.from_scratch_count(), 1);
        assert!(report.mean_fraction_reused() > 0.0);
    }

    #[test]
    fn identical_variants_replicate_results() {
        let points = blobs(400, 3, 23);
        let variants = VariantSet::replicated(Variant::new(1.0, 4), 8);
        let engine = Engine::new(EngineConfig::default().with_threads(4).with_r(16));
        let report = run(&engine, &points, &variants);
        let first = &report.results[0];
        for r in &report.results[1..] {
            assert_eq!(first.num_clusters(), r.num_clusters());
            assert_eq!(first.noise_count(), r.noise_count());
        }
    }

    #[test]
    fn caller_order_mapping_roundtrips() {
        let points = blobs(200, 2, 31);
        let variants = VariantSet::replicated(Variant::new(1.0, 4), 1);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let report = run(&engine, &points, &variants);
        let remapped = report.result_in_caller_order(0);
        assert_eq!(remapped.len(), points.len());
        // Label of original point i must equal the tree-order label of its
        // tree position.
        for (tree_idx, &orig) in report.permutation.iter().enumerate() {
            assert_eq!(
                remapped[orig as usize],
                report.results[0].labels().raw(tree_idx as u32)
            );
        }
    }

    #[test]
    fn empty_variant_set() {
        let points = blobs(100, 2, 37);
        let engine = Engine::new(EngineConfig::default().with_threads(2));
        let report = run(&engine, &points, &VariantSet::new(vec![]));
        assert!(report.outcomes.is_empty());
        assert!(report.results.is_empty());
    }

    #[test]
    fn empty_database() {
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(4));
        let report = run(&engine, &[], &small_grid());
        assert_eq!(report.outcomes.len(), 6);
        for r in &report.results {
            assert_eq!(r.len(), 0);
        }
    }

    #[test]
    fn keep_results_false_drops_results() {
        let points = blobs(200, 2, 41);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_r(8)
                .with_keep_results(false),
        );
        let report = run(&engine, &points, &small_grid());
        assert!(report.results.is_empty());
        assert_eq!(report.outcomes.len(), 6);
    }

    #[test]
    fn timings_are_monotone_and_cover_threads() {
        let points = blobs(600, 4, 43);
        let engine = Engine::new(EngineConfig::default().with_threads(3).with_r(16));
        let report = run(&engine, &points, &small_grid());
        for o in &report.outcomes {
            assert!(o.finished >= o.started);
            assert!(o.thread < 3);
        }
        assert!(report.total_time >= Duration::from_nanos(0));
        assert!(report.lower_bound() <= report.total_time + Duration::from_millis(50));
    }

    #[test]
    fn worker_stats_cover_every_thread_and_assignment() {
        let points = blobs(600, 4, 47);
        let engine = Engine::new(EngineConfig::default().with_threads(3).with_r(16));
        let report = run(&engine, &points, &small_grid());
        assert_eq!(report.worker_stats.len(), 3);
        let mut threads_seen: Vec<usize> = report.worker_stats.iter().map(|w| w.thread).collect();
        threads_seen.sort_unstable();
        assert_eq!(threads_seen, vec![0, 1, 2]);
        let total_assignments: usize = report.worker_stats.iter().map(|w| w.assignments).sum();
        assert_eq!(total_assignments, report.outcomes.len());
        // Busy time accounted per worker matches the outcomes' view.
        let busy_from_stats: Duration = report.worker_stats.iter().map(|w| w.busy).sum();
        assert_eq!(busy_from_stats, report.total_busy());
    }

    #[test]
    fn phase_histograms_account_every_assignment() {
        let points = blobs(600, 4, 49);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(3).with_r(16));
        let report = run(&engine, &points, &variants);
        // One busy sample per assignment, split across scratch/reuse.
        assert_eq!(
            report.phases.scratch.count() + report.phases.reuse.count(),
            variants.len() as u64
        );
        assert_eq!(
            report.phases.scratch.count(),
            report.from_scratch_count() as u64
        );
        // Two lock acquisitions per assignment (pull + completion), plus
        // one final empty pull per worker.
        assert_eq!(
            report.phases.lock_wait.count(),
            (2 * variants.len() + report.threads) as u64
        );
        assert_eq!(report.phases.lock_wait.count(), report.phases.sched.count());
        // Histograms land in the JSON report.
        assert!(report.to_json().contains("\"phases\":{"));
    }

    #[test]
    fn trace_off_by_default_spans_when_asked() {
        let points = blobs(500, 4, 51);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));

        let untraced = run(&engine, &points, &variants);
        assert!(untraced.trace.is_none(), "tracing must be opt-in");
        assert!(!untraced.to_json().contains("\"trace\":"));

        let traced = engine
            .execute(&RunRequest::new(&points, &variants).trace(TraceLevel::Spans))
            .unwrap();
        let snap = traced.trace.as_ref().expect("requested level records");
        // Pull + Started + Finished per variant, nothing dropped.
        assert_eq!(snap.records.len(), 3 * variants.len());
        assert_eq!(snap.dropped, 0);
        let kinds = snap.kind_counts();
        assert_eq!(
            kinds,
            vec![
                ("finished", variants.len() as u64),
                ("pull", variants.len() as u64),
                ("started", variants.len() as u64),
            ]
        );
        assert!(traced.to_json().contains("\"trace\":{"));
    }

    #[test]
    fn trace_full_records_reuse_detail() {
        let points = blobs(500, 4, 53);
        let variants = small_grid();
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_r(16)
                .with_reuse(ReuseScheme::ClusDensity),
        );
        let report = engine
            .execute(&RunRequest::new(&points, &variants).trace(TraceLevel::Full))
            .unwrap();
        let snap = report.trace.as_ref().unwrap();
        // T = 1 under SchedGreedy reuses 5 of 6 variants; each reuse pass
        // emits at least one frontier batch (there is at least one old
        // cluster with a candidate frontier on this dataset).
        let batches: u64 = snap
            .kind_counts()
            .iter()
            .filter(|(k, _)| *k == "frontier-batch")
            .map(|(_, c)| *c)
            .sum();
        assert!(batches > 0, "full level must record reuse detail");
        // The flame dump renders something for every variant.
        let text = snap.render_text(&variants);
        for i in 0..variants.len() {
            assert!(text.contains(&format!("v{i} ")), "missing v{i} in:\n{text}");
        }
    }

    #[test]
    fn fixed_r_is_recorded() {
        let points = blobs(100, 2, 61);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(17));
        let report = run(&engine, &points, &small_grid());
        assert_eq!(report.chosen_r, 17);
    }

    #[test]
    fn execute_reports_non_finite_points() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(4));
        let points = vec![Point2::new(0.0, 0.0), Point2::new(f64::NAN, 1.0)];
        let err = engine
            .execute(&RunRequest::new(&points, &small_grid()))
            .unwrap_err();
        match err {
            EngineError::NonFinitePoint { index, ref point } => {
                assert_eq!(index, 1);
                assert!(point.x.is_nan());
            }
            ref other => panic!("wrong error: {other:?}"),
        }
        assert!(err.to_string().contains("non-finite"));
    }

    #[test]
    fn execute_reports_warm_mismatch_typed() {
        let points = blobs(200, 2, 79);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let prepared = engine.prepare(&points, None).unwrap();
        let small = engine.prepare(&points[..50], None).unwrap();
        let donor_variants = VariantSet::replicated(Variant::new(1.0, 4), 1);
        let donor = run_prepared(&engine, &small, &donor_variants);
        let warm = vec![WarmSource {
            variant: Variant::new(1.0, 4),
            result: Arc::clone(&donor.results[0]),
        }];
        let err = engine
            .execute(&RunRequest::prepared(&prepared, &small_grid()).warm(&warm))
            .unwrap_err();
        match err {
            EngineError::WarmSourceMismatch {
                variant,
                expected,
                got,
            } => {
                assert_eq!(variant, Variant::new(1.0, 4));
                assert_eq!(expected, 200);
                assert_eq!(got, 50);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "worker thread")]
    fn zero_threads_rejected() {
        Engine::new(EngineConfig::default().with_threads(0));
    }

    #[test]
    fn t1_runs_are_fully_deterministic() {
        // At T = 1 the online schedule has no timing dependence, so two
        // runs must produce identical labelings, identical reuse sources,
        // and identical execution paths.
        let points = blobs(700, 4, 77);
        let variants = VariantSet::cartesian(&[0.7, 1.0, 1.3], &[4, 8]);
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_r(32)
                .with_reuse(ReuseScheme::ClusDensity),
        );
        let a = run(&engine, &points, &variants);
        let b = run(&engine, &points, &variants);
        assert_eq!(a.permutation, b.permutation);
        for i in 0..variants.len() {
            assert_eq!(a.results[i], b.results[i], "variant {i}");
            assert_eq!(a.outcomes[i].reused_from(), b.outcomes[i].reused_from());
            assert_eq!(
                matches!(a.outcomes[i].path, ExecutionPath::FromScratch(_)),
                matches!(b.outcomes[i].path, ExecutionPath::FromScratch(_))
            );
        }
    }

    #[test]
    fn stress_many_threads_many_variants() {
        // Far more threads than cores and more variants than threads:
        // exercises the scheduler's contention paths. Every variant must
        // complete exactly once with a valid reuse source.
        let points = blobs(300, 3, 99);
        let eps: Vec<f64> = (1..=10).map(|i| 0.5 + i as f64 * 0.1).collect();
        let variants = VariantSet::cartesian(&eps, &[3, 4, 5, 6, 7]);
        assert_eq!(variants.len(), 50);
        let engine = Engine::new(EngineConfig::default().with_threads(16).with_r(16));
        let report = run(&engine, &points, &variants);
        assert_eq!(report.outcomes.len(), 50);
        let mut seen = [false; 50];
        for o in &report.outcomes {
            assert!(!seen[o.index]);
            seen[o.index] = true;
            if let Some(src) = o.reused_from() {
                assert!(o.variant.can_reuse(&src));
            }
        }
    }

    // ----- warm starts: cross-run reuse sources

    #[test]
    fn warm_start_reuses_cached_results() {
        let points = blobs(700, 4, 71);
        let variants = small_grid();
        let engine = Engine::new(
            EngineConfig::default()
                .with_threads(1)
                .with_r(16)
                .with_reuse(ReuseScheme::ClusDensity),
        );
        let prepared = engine.prepare(&points, None).unwrap();
        let cold = run_prepared(&engine, &prepared, &variants);
        assert_eq!(cold.warm_seeds, 0);
        assert_eq!(cold.warm_hits(), 0);
        assert_eq!(cold.from_scratch_count(), 1); // T = 1 + SchedGreedy

        // Seed the next run with the cold run's most dominant result
        // (smallest ε, largest minpts — canonical position 0): every
        // variant can reuse it, so nothing runs from scratch.
        let warm = vec![WarmSource {
            variant: variants.get(0),
            result: Arc::clone(&cold.results[0]),
        }];
        let warm_run = run_warm(&engine, &prepared, &variants, &warm);
        assert_eq!(warm_run.warm_seeds, 1);
        assert!(warm_run.warm_hits() >= 1, "cache seed was never reused");
        assert_eq!(warm_run.from_scratch_count(), 0);
        // Cluster structure must match the cold run variant-for-variant.
        for i in 0..variants.len() {
            assert_eq!(
                warm_run.results[i].num_clusters(),
                cold.results[i].num_clusters(),
                "variant {i}"
            );
            assert_eq!(
                warm_run.results[i].noise_count(),
                cold.results[i].noise_count(),
                "variant {i}"
            );
        }
        // The identity seed is at parameter distance 0 from variant 0, so
        // that variant reuses it (the frontier re-check still touches the
        // non-dense remainder, so the fraction is high but below 1).
        assert!(warm_run.outcomes[0].warm);
        assert!(warm_run.outcomes[0].fraction_reused() > 0.5);
    }

    #[test]
    fn warm_sources_ignored_when_nothing_dominates() {
        // A warm source with *larger* ε and *smaller* minpts than every
        // variant dominates nothing; the run must behave exactly cold.
        let points = blobs(400, 3, 73);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let prepared = engine.prepare(&points, None).unwrap();
        let donor_variants = VariantSet::replicated(Variant::new(5.0, 1), 1);
        let donor = run_prepared(&engine, &prepared, &donor_variants);
        let warm = vec![WarmSource {
            variant: Variant::new(5.0, 1),
            result: Arc::clone(&donor.results[0]),
        }];
        let report = run_warm(&engine, &prepared, &variants, &warm);
        assert_eq!(report.warm_seeds, 1);
        assert_eq!(report.warm_hits(), 0);
        assert_eq!(report.from_scratch_count(), 1);
    }

    #[test]
    fn warm_start_with_many_threads_terminates_cleanly() {
        let points = blobs(500, 4, 83);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(8).with_r(16));
        let prepared = engine.prepare(&points, None).unwrap();
        let cold = run_prepared(&engine, &prepared, &variants);
        let warm: Vec<WarmSource> = variants
            .iter()
            .enumerate()
            .map(|(i, v)| WarmSource {
                variant: v,
                result: Arc::clone(&cold.results[i]),
            })
            .collect();
        let report = run_warm(&engine, &prepared, &variants, &warm);
        assert_all_complete_once(&report, variants.len());
        // Every variant has an identity seed at distance 0: all warm.
        assert_eq!(report.warm_hits(), variants.len());
    }

    // ----- termination edge cases: every variant completes exactly once
    // and the "every variant must have completed" invariant never trips.

    fn assert_all_complete_once(report: &RunReport, expect: usize) {
        assert_eq!(report.outcomes.len(), expect);
        assert_eq!(report.results.len(), expect);
        let mut seen = vec![false; expect];
        for o in &report.outcomes {
            assert!(!seen[o.index], "variant {} completed twice", o.index);
            seen[o.index] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn more_threads_than_variants_terminates() {
        // T = 8 over |V| = 2: six workers never get an assignment and must
        // exit cleanly without tripping the completion invariant.
        let points = blobs(300, 3, 101);
        let variants = VariantSet::cartesian(&[1.0], &[4, 8]);
        for sched in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
            let engine = Engine::new(
                EngineConfig::default()
                    .with_threads(8)
                    .with_r(16)
                    .with_scheduler(sched),
            );
            let report = run(&engine, &points, &variants);
            assert_all_complete_once(&report, 2);
            assert_eq!(report.worker_stats.len(), 8);
        }
    }

    #[test]
    fn single_variant_terminates() {
        let points = blobs(200, 2, 103);
        let variants = VariantSet::replicated(Variant::new(1.0, 4), 1);
        for threads in [1usize, 2, 7] {
            let engine = Engine::new(EngineConfig::default().with_threads(threads).with_r(8));
            let report = run(&engine, &points, &variants);
            assert_all_complete_once(&report, 1);
            assert_eq!(report.from_scratch_count(), 1);
        }
    }

    #[test]
    fn degenerate_point_sets_terminate() {
        // Empty, singleton, and all-identical databases, with T > |V| too.
        let variants = small_grid();
        for points in [
            Vec::new(),
            vec![Point2::new(1.0, 1.0)],
            vec![Point2::new(2.0, 3.0); 64],
        ] {
            let engine = Engine::new(EngineConfig::default().with_threads(8).with_r(4));
            let report = run(&engine, &points, &variants);
            assert_all_complete_once(&report, variants.len());
            for r in &report.results {
                assert_eq!(r.len(), points.len());
            }
        }
    }

    // The fault seam is a process-global atomic shared by every test in
    // this binary, so all containment scenarios run inside one #[test]
    // (parallel harness ordering must not matter). The poisoned ε values
    // (11.x) are chosen outside every other test's variant pool, so an
    // armed seam here cannot fire for concurrent traffic.
    #[test]
    fn job_panic_is_contained_and_engine_stays_usable() {
        let points = blobs(400, 3, 57);
        let engine = Engine::new(EngineConfig::default().with_threads(4).with_r(16));
        let index = engine.prepare(&points, None).unwrap();

        // A poisoned variant in the middle of an otherwise healthy set
        // fails the whole run with a typed error naming the variant —
        // without unwinding through execute.
        let poisoned = Variant::new(11.25, 4);
        let mixed = VariantSet::new(vec![
            Variant::new(0.8, 4),
            poisoned,
            Variant::new(1.2, 8),
            Variant::new(1.6, 4),
        ]);
        {
            let _armed = crate::fault::ArmedFault::new(11.25);
            let err = engine
                .execute(&RunRequest::prepared(&index, &mixed))
                .expect_err("poisoned variant must fail the run");
            let EngineError::JobPanic(ref p) = err else {
                panic!("wrong error: {err:?}");
            };
            assert_eq!(p.variant, poisoned);
            assert!(
                p.message.contains(crate::fault::INJECTED_PANIC_PREFIX),
                "unexpected panic message: {}",
                p.message
            );
            assert!(err.to_string().contains("11.25"), "{err}");

            // Same containment on the warm path.
            let poison_set = VariantSet::new(vec![poisoned]);
            let warm_err = engine
                .execute(&RunRequest::prepared(&index, &poison_set).warm(&[]))
                .expect_err("warm path must contain the panic too");
            assert!(matches!(
                warm_err,
                EngineError::JobPanic(JobPanic { variant, .. }) if variant == poisoned
            ));
        }

        // Seam disarmed: the exact same engine, index, and variant set now
        // complete — the failed run leaked nothing that poisons later runs.
        let report = run_prepared(&engine, &index, &mixed);
        assert_all_complete_once(&report, 4);
    }
}
