//! The multithreaded VariantDBSCAN execution engine — Algorithm 3's
//! `parallel for` over variants, realized as a completion-driven thread
//! pool over the online schedule of §IV-D.
//!
//! One engine run:
//!
//! 1. bin-sorts the database and builds the two shared R-trees
//!    (`T_low` with the tuned `r`, `T_high` with `r = 1`);
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
//! typed [`TraceEvent`](crate::trace::TraceEvent)s into a private ring
//! buffer (see [`crate::trace`]), surfaced via [`RunReport::worker_stats`],
//! [`RunReport::phases`], and [`RunReport::trace`].
//!
//! The paper's *reference implementation* — sequential DBSCAN, `r = 1`,
//! no reuse — is the same engine under [`EngineConfig::reference`], so
//! every speedup comparison runs identical code paths except for the three
//! optimizations being measured.

use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use vbp_dbscan::{dbscan_with_scratch, sharded_dbscan, ClusterResult, DbscanScratch};
use vbp_geom::{Point2, PointId};
use vbp_rtree::traits::shared_points;
use vbp_rtree::{tune_r_sampled, PackedRTree, TuneReport};
use vbp_store::{Container, IndexSnapshot, StoreError};

use crate::expand::cluster_with_reuse_traced;
use crate::metrics::{ExecutionPath, RunReport, ShardTotals, VariantOutcome, WorkerStats};
use crate::scheduler::{ScheduleState, Scheduler};
use crate::seeds::ReuseScheme;
use crate::trace::{
    PhaseHistograms, TraceEvent, TraceLevel, TraceSnapshot, TraceSource, WorkerTracer,
};
use crate::variant::{Variant, VariantSet};

/// How the engine picks `r` (points per leaf MBB of `T_low`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RChoice {
    /// Use this `r` as given.
    Fixed(usize),
    /// Run a sampled [`tune_r`](vbp_rtree::tune_r) sweep at index-build
    /// time and use the winner. The sweep is capped (sample ≤
    /// [`AUTO_TUNE_MAX_SAMPLE`] points, [`AUTO_TUNE_CANDIDATES`]
    /// candidates, [`AUTO_TUNE_QUERIES`] queries each) so tuning stays well
    /// under one variant's clustering cost; the chosen `r` and the full
    /// [`TuneReport`](vbp_rtree::TuneReport) land in the [`RunReport`].
    Auto,
}

impl std::fmt::Display for RChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RChoice::Fixed(r) => write!(f, "{r}"),
            RChoice::Auto => write!(f, "auto"),
        }
    }
}

/// Largest point sample [`RChoice::Auto`] builds candidate trees over.
pub const AUTO_TUNE_MAX_SAMPLE: usize = 4_096;

/// Candidate `r` values [`RChoice::Auto`] sweeps — a pruned version of
/// [`vbp_rtree::DEFAULT_R_CANDIDATES`] (neighboring values time within
/// noise of each other; fewer builds keeps tuning cheap).
pub const AUTO_TUNE_CANDIDATES: [usize; 5] = [1, 10, 30, 70, 110];

/// ε-queries timed per candidate tree by [`RChoice::Auto`].
pub const AUTO_TUNE_QUERIES: usize = 256;

/// The `r` [`RChoice::Auto`] falls back to when there is nothing to tune
/// against (an empty variant set). Middle of the paper's good band.
pub const AUTO_TUNE_FALLBACK_R: usize = 80;

/// Engine configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EngineConfig {
    /// Worker threads `T`.
    pub threads: usize,
    /// Points per leaf MBB of `T_low` (the paper's `r`; 70–110 works well,
    /// see Figure 4), or [`RChoice::Auto`] to tune it at index-build time.
    pub r: RChoice,
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
            r: RChoice::Fixed(80),
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
            r: RChoice::Fixed(1),
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

    /// Builder-style setter for a fixed `r`.
    pub fn with_r(mut self, r: usize) -> Self {
        self.r = RChoice::Fixed(r);
        self
    }

    /// Builder-style switch to [`RChoice::Auto`]: tune `r` empirically at
    /// index-build time.
    pub fn with_auto_r(mut self) -> Self {
        self.r = RChoice::Auto;
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

/// A prebuilt, reusable index pair over one point database.
///
/// Rebuilding `T_low`/`T_high` on every run is fine for one-shot sweeps
/// but wasteful for a long-running service answering many variant
/// requests against the same datasets. `PreparedIndex` hoists the bin
/// sort, the (optional) `r` auto-tune, and both tree builds out of the
/// run loop: build once with [`Engine::prepare`], then execute any number
/// of [`RunRequest::prepared`] runs. Runs over a prepared index report
/// `index_build_time == 0` — the build cost lives in
/// [`PreparedIndex::build_time`], amortized across every run that shares
/// the handle.
///
/// A handle is the whole of one dataset generation: the tree pair holds
/// the points in tree order (one shared array), the permutation maps
/// them back, and [`PreparedIndex::caller_points`] derives caller order
/// for the few readers that want it.
#[derive(Clone, Debug)]
pub struct PreparedIndex {
    t_low: PackedRTree,
    t_high: PackedRTree,
    permutation: Vec<PointId>,
    tune: Option<TuneReport>,
    build_time: Duration,
    /// Points appended (at the tree tail, outside bin order) since the
    /// last full bin sort — the maintain-vs-resort policy input.
    appended_since_sort: usize,
}

impl PreparedIndex {
    /// Assembles a handle around `t_low`, deriving `T_high` from it —
    /// the pair always shares one point order (and one SoA mirror).
    fn around(
        t_low: PackedRTree,
        permutation: Vec<PointId>,
        tune: Option<TuneReport>,
        build_time: Duration,
        appended_since_sort: usize,
    ) -> Self {
        let t_high = high_tree_for(&t_low);
        Self {
            t_low,
            t_high,
            permutation,
            tune,
            build_time,
            appended_since_sort,
        }
    }

    /// Number of indexed points.
    #[inline]
    pub fn len(&self) -> usize {
        self.permutation.len()
    }

    /// Returns `true` for an index over the empty database.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.permutation.is_empty()
    }

    /// The tuned-`r` tree used for ε-neighborhood searches.
    #[inline]
    pub fn t_low(&self) -> &PackedRTree {
        &self.t_low
    }

    /// The `r = 1` tree used for cluster-MBB harvests.
    #[inline]
    pub fn t_high(&self) -> &PackedRTree {
        &self.t_high
    }

    /// Permutation mapping tree order → caller point order.
    #[inline]
    pub fn permutation(&self) -> &[PointId] {
        &self.permutation
    }

    /// The `r` the index was actually built with.
    #[inline]
    pub fn chosen_r(&self) -> usize {
        self.t_low.points_per_leaf()
    }

    /// The auto-tuning sweep record, when [`RChoice::Auto`] ran.
    pub fn tune(&self) -> Option<&TuneReport> {
        self.tune.as_ref()
    }

    /// Wall time spent bin-sorting, tuning, and building both trees,
    /// plus any streaming maintenance applied since.
    pub fn build_time(&self) -> Duration {
        self.build_time
    }

    /// Points appended at the tree tail since the last full bin sort.
    /// Zero for a freshly prepared (or freshly re-sorted) handle.
    pub fn appended_since_sort(&self) -> usize {
        self.appended_since_sort
    }

    /// The accumulated database in the caller's original point order
    /// (inverts [`PreparedIndex::permutation`]).
    pub fn caller_points(&self) -> Vec<Point2> {
        let tree_points = self.t_low.shared_points();
        let mut caller = vec![Point2::new(0.0, 0.0); self.permutation.len()];
        for (tree_idx, &orig) in self.permutation.iter().enumerate() {
            caller[orig as usize] = tree_points[tree_idx];
        }
        caller
    }

    /// Writes this handle's complete warm state into `w` as one
    /// checksummed [`vbp_store`] container: the tree-order points, the
    /// permutation, the tuned-`r` report, and the append generation
    /// counter. [`PreparedIndex::restore`] on those bytes skips the bin
    /// sort and the auto-tune sweep entirely and re-derives both packed
    /// trees from the stored order in O(n).
    ///
    /// Callers that want a clean generation on disk should flush a
    /// dirty tail through [`Engine::resort_prepared`] first;
    /// snapshotting a dirty handle is still correct (the counter
    /// round-trips), it just persists tail-degraded query locality.
    pub fn snapshot<W: std::io::Write>(&self, w: &mut W) -> std::io::Result<()> {
        w.write_all(&self.snapshot_bytes())
    }

    /// [`PreparedIndex::snapshot`] into an owned buffer.
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        self.to_snapshot().encode()
    }

    /// This handle's warm state as plain store data, ready to embed in
    /// a dataset file.
    pub fn to_snapshot(&self) -> IndexSnapshot {
        IndexSnapshot {
            points: self.t_low.shared_points(),
            permutation: self.permutation.clone(),
            chosen_r: self.chosen_r(),
            fanout: self.t_low.fanout(),
            tune: self.tune.clone(),
            build_time_ns: self.build_time.as_nanos().min(u128::from(u64::MAX)) as u64,
            appended_since_sort: self.appended_since_sort as u64,
        }
    }

    /// Rebuilds a handle from [`PreparedIndex::snapshot`] bytes without
    /// bin-sorting or tuning — the store's near-instant warm restart.
    /// Total on arbitrary input: every checksum, length, and
    /// permutation invariant is validated and any violation comes back
    /// as a typed [`StoreError`], never a panic and never an index that
    /// could drop neighbors.
    pub fn restore<R: std::io::Read>(r: &mut R) -> Result<Self, StoreError> {
        let container = Container::read_from(r)?;
        Self::restore_container(&container)
    }

    /// [`PreparedIndex::restore`] over an already-parsed container.
    pub fn restore_container(container: &Container) -> Result<Self, StoreError> {
        // Decode has already proven every invariant `from_snapshot`
        // re-checks, so the trusted constructor applies directly.
        Ok(Self::from_snapshot_trusted(
            IndexSnapshot::decode_container(container)?,
        ))
    }

    /// Rebuilds a handle from decoded snapshot data.
    ///
    /// Both packed trees are *derived* from the stored tree-order
    /// points — `PackedRTree::from_sorted_with_fanout` is the single
    /// construction path fresh prepares, maintained appends, and
    /// re-sorts all go through, so the derived trees are bit-identical
    /// to the ones that were snapshotted, in every append-generation
    /// state. Deriving (instead of trusting level MBBs from disk) also
    /// closes the one hole checksums cannot: a CRC-valid but *crafted*
    /// file whose boxes fail to cover their points would silently drop
    /// neighbors; boxes computed from the validated points cannot.
    ///
    /// The snapshot's fields are re-validated here (decode already
    /// guarantees them, but the struct is plain public data), so this
    /// is total even on a hand-built snapshot.
    pub fn from_snapshot(snap: IndexSnapshot) -> Result<Self, StoreError> {
        let malformed = |section: u32, reason: String| StoreError::Malformed { section, reason };
        let n = snap.points.len();
        if snap.chosen_r < 1 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!("bad r {}", snap.chosen_r),
            ));
        }
        if snap.fanout < 2 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!("bad fanout {}", snap.fanout),
            ));
        }
        if snap.appended_since_sort > n as u64 {
            return Err(malformed(
                vbp_store::section_id::INDEX_META,
                format!(
                    "append generation {} exceeds {n} points",
                    snap.appended_since_sort
                ),
            ));
        }
        if snap.permutation.len() != n {
            return Err(malformed(
                vbp_store::section_id::PERMUTATION,
                format!("{} entries for {n} points", snap.permutation.len()),
            ));
        }
        let mut seen = vec![false; n];
        for &i in &snap.permutation {
            match seen.get_mut(i as usize) {
                Some(slot) if !*slot => *slot = true,
                _ => {
                    return Err(malformed(
                        vbp_store::section_id::PERMUTATION,
                        format!("permutation is not a bijection (entry {i})"),
                    ))
                }
            }
        }
        if let Some(bad) = snap.points.iter().position(|p| !p.is_finite()) {
            return Err(malformed(
                vbp_store::section_id::POINTS,
                format!("point {bad} has non-finite coordinates"),
            ));
        }
        Ok(Self::from_snapshot_trusted(snap))
    }

    /// Dataset size from which the two tree derivations run on separate
    /// threads — below this the spawn overhead eats the win.
    const PARALLEL_RESTORE_MIN: usize = 8 * 1024;

    /// [`PreparedIndex::from_snapshot`] minus the validation pass, for
    /// callers (decode, `from_snapshot` itself) that have already proven
    /// `chosen_r ≥ 1`, `fanout ≥ 2`, a bijective permutation covering
    /// the points, finite coordinates, and a bounded append counter.
    fn from_snapshot_trusted(snap: IndexSnapshot) -> Self {
        let IndexSnapshot {
            points,
            permutation,
            chosen_r,
            fanout,
            tune,
            build_time_ns,
            appended_since_sort,
        } = snap;
        let shared = points;
        let xs: Arc<[f64]> = shared.iter().map(|p| p.x).collect();
        let ys: Arc<[f64]> = shared.iter().map(|p| p.y).collect();
        let (t_low, t_high) = if shared.len() >= Self::PARALLEL_RESTORE_MIN {
            std::thread::scope(|s| {
                let (hp, hx, hy) = (Arc::clone(&shared), Arc::clone(&xs), Arc::clone(&ys));
                let high =
                    s.spawn(move || PackedRTree::from_sorted_with_coords(hp, 1, fanout, hx, hy));
                let t_low = PackedRTree::from_sorted_with_coords(shared, chosen_r, fanout, xs, ys);
                (t_low, high.join().expect("tree derivation does not panic"))
            })
        } else {
            let t_low = PackedRTree::from_sorted_with_coords(shared, chosen_r, fanout, xs, ys);
            let t_high = high_tree_for(&t_low);
            (t_low, t_high)
        };
        Self {
            t_low,
            t_high,
            permutation,
            tune,
            build_time: Duration::from_nanos(build_time_ns),
            appended_since_sort: appended_since_sort as usize,
        }
    }

    /// Maps a tree-order clustering of this index back to the caller's
    /// original point order (raw label values, noise included).
    pub fn labels_in_caller_order(&self, result: &ClusterResult) -> Vec<u32> {
        assert_eq!(
            result.len(),
            self.permutation.len(),
            "result covers a different database"
        );
        let mut remapped = vec![0u32; result.len()];
        for (tree_idx, &orig) in self.permutation.iter().enumerate() {
            remapped[orig as usize] = result.labels().raw(tree_idx as PointId);
        }
        remapped
    }
}

/// The `r = 1` companion tree (`T_high`) over an existing tree's point
/// order, reusing its SoA coordinate mirror instead of re-collecting
/// two `f64` arrays — the pair always shares one point order, so the
/// mirror is materialized exactly once per index.
fn high_tree_for(t_low: &PackedRTree) -> PackedRTree {
    let (xs, ys) = t_low.shared_coords();
    PackedRTree::from_sorted_with_coords(t_low.shared_points(), 1, t_low.fanout(), xs, ys)
}

/// Unsorted-tail fraction above which [`Engine::append_to_prepared`]
/// re-sorts the whole handle instead of maintaining the packed arrays in
/// place. Appends land at the tail of tree order (outside bin order), so
/// query locality degrades with the tail; a quarter of the dataset is
/// where the one-off O(n log n) re-sort starts paying for itself.
pub const APPEND_RESORT_FRACTION: f64 = 0.25;

/// Record of one [`Engine::append_to_prepared`] batch.
#[derive(Clone, Copy, Debug)]
pub struct AppendReport {
    /// Points inserted by this batch.
    pub appended: usize,
    /// Dataset size after the batch.
    pub total: usize,
    /// Whether the handle crossed [`APPEND_RESORT_FRACTION`] and was
    /// rebuilt with a full bin sort (tail reset to zero).
    pub resorted: bool,
    /// Wall time spent maintaining or re-sorting the handle.
    pub time: Duration,
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
pub enum RunSource<'a> {
    /// Raw points: the run builds its own index pair and reports the
    /// build cost in [`RunReport::index_build_time`].
    Points(&'a [Point2]),
    /// A prebuilt index: the run reports `index_build_time == 0` (the
    /// cost is amortized in [`PreparedIndex::build_time`]).
    Prepared(&'a PreparedIndex),
}

/// Intra-variant sharding policy for a [`RunRequest`] — the engine's
/// second placement level.
///
/// Variant-level parallelism (the paper's axis) caps a run's makespan at
/// its *largest variant*: one huge variant keeps one worker busy while
/// the rest idle. When a request opts in via [`RunRequest::sharding`],
/// the engine places work on two levels instead:
///
/// - **wide runs** (dataset at least [`Sharding::min_points`] points)
///   trade variant-parallel workers for shard teams — each from-scratch
///   clustering executes as [`vbp_dbscan::sharded_dbscan`] over `shards`
///   ε-halo'd spatial shards, with a team of `min(shards, threads)`
///   threads, and the engine spawns `threads / team` outer workers so
///   the two levels multiply back to the configured thread budget;
/// - **narrow runs** pack variant-parallel exactly as before — sharding
///   tiny variants would pay partition/merge overhead for no win.
///
/// Sharding never changes results: shard-merged labels are bit-identical
/// to the unsharded kernel at every shard count and thread interleaving
/// (see `vbp_dbscan::sharded`), and reuse-path assignments are untouched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sharding {
    shards: usize,
    min_points: usize,
}

impl Sharding {
    /// Default width gate: datasets below this many points stay on the
    /// packed variant-parallel path.
    pub const DEFAULT_MIN_POINTS: usize = 4_096;

    /// Policy with `shards` spatial shards per wide variant and the
    /// default width gate.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn new(shards: usize) -> Sharding {
        assert!(shards >= 1, "need at least one shard");
        Sharding {
            shards,
            min_points: Self::DEFAULT_MIN_POINTS,
        }
    }

    /// Overrides the width gate: datasets with fewer points than this
    /// run unsharded.
    pub fn with_min_points(mut self, min_points: usize) -> Sharding {
        self.min_points = min_points;
        self
    }

    /// Shards per wide variant.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The width gate (minimum dataset size to shard).
    pub fn min_points(&self) -> usize {
        self.min_points
    }
}

/// Resolved per-run placement: how many shards each from-scratch
/// clustering splits into and how many threads its team gets.
#[derive(Clone, Copy, Debug)]
struct ShardPlan {
    shards: usize,
    team: usize,
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
    sharding: Option<Sharding>,
}

impl<'a> RunRequest<'a> {
    /// A run over raw `points` (index built per run).
    pub fn new(points: &'a [Point2], variants: &'a VariantSet) -> RunRequest<'a> {
        Self::from_source(RunSource::Points(points), variants)
    }

    /// A run over a prebuilt [`PreparedIndex`].
    pub fn prepared(index: &'a PreparedIndex, variants: &'a VariantSet) -> RunRequest<'a> {
        Self::from_source(RunSource::Prepared(index), variants)
    }

    /// A run over an explicit [`RunSource`].
    pub fn from_source(source: RunSource<'a>, variants: &'a VariantSet) -> RunRequest<'a> {
        RunRequest {
            source,
            variants,
            warm: &[],
            trace: TraceLevel::Off,
            sharding: None,
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

    /// Opts the run into intra-variant sharding (default off): wide
    /// variants execute as shard teams under the given [`Sharding`]
    /// policy, narrow ones pack variant-parallel as before. Labels are
    /// unaffected — only placement changes.
    pub fn sharding(mut self, policy: Sharding) -> RunRequest<'a> {
        self.sharding = Some(policy);
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
        if let RChoice::Fixed(r) = config.r {
            assert!(r >= 1, "r must be ≥ 1");
        }
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
                if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
                    return Err(EngineError::NonFinitePoint {
                        index: bad,
                        point: points[bad],
                    });
                }
                prepared_local = self.prepare_unchecked(points, representative_eps(variants));
                (&prepared_local, prepared_local.build_time)
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
        let mut report = self.run_scheduled(
            index,
            variants,
            request.warm,
            request.trace,
            request.sharding,
        )?;
        report.index_build_time = build_time;
        Ok(report)
    }

    /// Builds the two shared R-trees (and runs the [`RChoice::Auto`]
    /// sweep, when configured) over `points` without clustering anything,
    /// returning a handle that any number of [`RunRequest::prepared`]
    /// runs can share. `representative_eps` feeds the auto-tuner; pass
    /// `None` to fall back to [`AUTO_TUNE_FALLBACK_R`] (a fixed `r`
    /// ignores it entirely).
    pub fn prepare(
        &self,
        points: &[Point2],
        representative_eps: Option<f64>,
    ) -> Result<PreparedIndex, EngineError> {
        if let Some(bad) = points.iter().position(|p| !p.is_finite()) {
            return Err(EngineError::NonFinitePoint {
                index: bad,
                point: points[bad],
            });
        }
        Ok(self.prepare_unchecked(points, representative_eps))
    }

    /// [`Engine::prepare`] minus the finiteness check (already done by
    /// [`Engine::execute`] on the raw-points path).
    fn prepare_unchecked(&self, points: &[Point2], eps_hint: Option<f64>) -> PreparedIndex {
        // Tuning (when enabled) is part of index construction: it runs
        // once per prepare, before any variant, and its cost is reported
        // in `build_time`.
        let build_start = Instant::now();
        let (chosen_r, tune) = match self.config.r {
            RChoice::Fixed(r) => (r, None),
            RChoice::Auto => match eps_hint {
                Some(eps) => {
                    let report = tune_r_sampled(
                        points,
                        eps,
                        AUTO_TUNE_MAX_SAMPLE,
                        &AUTO_TUNE_CANDIDATES,
                        AUTO_TUNE_QUERIES,
                    );
                    (report.best_r, Some(report))
                }
                None => (AUTO_TUNE_FALLBACK_R, None),
            },
        };
        let (t_low, permutation) = PackedRTree::build(points, chosen_r);
        let mut index = PreparedIndex::around(t_low, permutation, tune, Duration::ZERO, 0);
        // Read the clock last: deriving `T_high` is part of the build.
        index.build_time = build_start.elapsed();
        index
    }

    /// Applies one streaming APPEND batch to a prepared handle, returning
    /// the successor handle (functional update — in-flight runs over the
    /// old handle stay valid) plus an [`AppendReport`].
    ///
    /// The maintain path appends the new points at the *tail of tree
    /// order* and rebuilds the packed `T_low`/`T_high` arrays with
    /// [`PackedRTree::from_sorted`] — no bin sort and no `r` re-tune, the
    /// O(n) cost that makes appends cheap relative to a full
    /// [`Engine::prepare`]. Appended caller ids continue the old
    /// numbering (`old_len..old_len+k`). Once the unsorted tail exceeds
    /// [`APPEND_RESORT_FRACTION`] of the dataset, the handle is re-sorted
    /// from scratch (same `chosen_r`; the tail fraction resets to zero)
    /// so query locality cannot degrade without bound.
    pub fn append_to_prepared(
        &self,
        index: &PreparedIndex,
        new_points: &[Point2],
    ) -> Result<(PreparedIndex, AppendReport), EngineError> {
        if let Some(bad) = new_points.iter().position(|p| !p.is_finite()) {
            return Err(EngineError::NonFinitePoint {
                index: bad,
                point: new_points[bad],
            });
        }
        let start = Instant::now();
        let old_n = index.len();
        let total = old_n + new_points.len();

        let unsorted_tail = index.appended_since_sort + new_points.len();
        let resorted = unsorted_tail as f64 > total as f64 * APPEND_RESORT_FRACTION;
        let mut next = if resorted {
            let mut caller = index.caller_points();
            caller.extend_from_slice(new_points);
            self.bin_sorted(index, &caller)
        } else {
            // Maintain: new tree order = old tree order ++ new points.
            let mut tree_points: Vec<Point2> = index.t_low.shared_points().to_vec();
            tree_points.extend_from_slice(new_points);
            let t_low = PackedRTree::from_sorted(shared_points(tree_points), index.chosen_r());
            let mut permutation = index.permutation.clone();
            permutation.extend((old_n..total).map(|i| i as PointId));
            PreparedIndex::around(
                t_low,
                permutation,
                index.tune.clone(),
                index.build_time,
                unsorted_tail,
            )
        };
        let time = start.elapsed();
        next.build_time += time;
        Ok((
            next,
            AppendReport {
                appended: new_points.len(),
                total,
                resorted,
                time,
            },
        ))
    }

    /// Flushes a handle's unsorted append tail through the same full
    /// re-sort [`Engine::append_to_prepared`] applies when the tail
    /// crosses [`APPEND_RESORT_FRACTION`]: bin-sort the accumulated
    /// caller-order points with the already-chosen `r` (no re-tune) and
    /// rebuild both packed trees. The returned handle answers the same
    /// queries with `appended_since_sort == 0` — the clean generation
    /// the warm-state store persists before shutdown. A handle that is
    /// already clean is returned as a cheap clone.
    pub fn resort_prepared(&self, index: &PreparedIndex) -> PreparedIndex {
        if index.appended_since_sort == 0 {
            return index.clone();
        }
        let start = Instant::now();
        let mut next = self.bin_sorted(index, &index.caller_points());
        next.build_time += start.elapsed();
        next
    }

    /// The full re-sort behind [`Engine::append_to_prepared`] and
    /// [`Engine::resort_prepared`]: bin-sorts `caller` — `index`'s
    /// accumulated database in caller order, plus any batch being
    /// appended — with the already-chosen `r` (no re-tune) and rebuilds
    /// both packed trees. The tail counter resets to zero.
    fn bin_sorted(&self, index: &PreparedIndex, caller: &[Point2]) -> PreparedIndex {
        let (t_low, permutation) = PackedRTree::build(caller, index.chosen_r());
        PreparedIndex::around(t_low, permutation, index.tune.clone(), index.build_time, 0)
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
        sharding: Option<Sharding>,
    ) -> Result<RunReport, JobPanic> {
        let n_var = variants.len();

        // Two-level placement: a wide sharded run trades outer
        // variant-parallel workers for intra-variant shard teams so the
        // levels multiply back to (at most) the configured thread budget.
        // Narrow runs, single-shard policies, and non-opted runs keep
        // today's one-level packing.
        let shard_plan: Option<ShardPlan> = sharding.and_then(|policy| {
            (policy.shards() > 1 && index.len() >= policy.min_points()).then(|| ShardPlan {
                shards: policy.shards(),
                team: policy.shards().min(self.config.threads),
            })
        });
        let outer_threads = match shard_plan {
            Some(plan) => (self.config.threads / plan.team).max(1),
            None => self.config.threads,
        };

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

        let t0 = Instant::now();
        let outputs: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..outer_threads)
                .map(|thread_id| {
                    let schedule = &schedule;
                    let results = &results[..];
                    let panic_slot = &panic_slot;
                    scope.spawn(move || {
                        worker_loop(
                            thread_id,
                            self.config.reuse,
                            variants,
                            warm,
                            index.t_low(),
                            index.t_high(),
                            schedule,
                            results,
                            panic_slot,
                            t0,
                            trace,
                            shard_plan,
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
        let mut shard_totals = ShardTotals::default();
        let mut outcomes: Vec<VariantOutcome> = Vec::with_capacity(n_var);
        for out in outputs {
            outcomes.extend(out.outcomes);
            phases.merge(&out.phases);
            shard_totals.merge(&out.sharding);
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
            tune: index.tune.clone(),
            results,
            permutation: index.permutation.clone(),
            worker_stats,
            warm_seeds: warm.len(),
            phases,
            sharding: shard_totals,
            trace: trace_snapshot,
        })
    }
}

/// The ε the auto-tuner sweeps with: the median of the variant set's ε
/// values — robust to a few outlier variants and exact for the common
/// replicated-variant scenarios. `None` for an empty set.
fn representative_eps(variants: &VariantSet) -> Option<f64> {
    if variants.is_empty() {
        return None;
    }
    let mut eps: Vec<f64> = variants.iter().map(|v| v.eps).collect();
    eps.sort_by(|a, b| a.partial_cmp(b).expect("variant ε is always finite"));
    Some(eps[eps.len() / 2])
}

/// Everything one worker hands back when its loop drains: the outcomes
/// of the variants it clustered, contention accounting, its trace ring,
/// and its share of the per-phase latency histograms.
struct WorkerOutput {
    outcomes: Vec<VariantOutcome>,
    stats: WorkerStats,
    tracer: WorkerTracer,
    phases: PhaseHistograms,
    sharding: ShardTotals,
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
    t_high: &PackedRTree,
    schedule: &Mutex<ScheduleState>,
    results: &[OnceLock<Arc<ClusterResult>>],
    panic_slot: &OnceLock<JobPanic>,
    t0: Instant,
    trace: TraceLevel,
    shard_plan: Option<ShardPlan>,
) -> WorkerOutput {
    let mut scratch = DbscanScratch::new();
    let mut outcomes = Vec::new();
    let mut stats = WorkerStats::new(thread_id);
    let mut phases = PhaseHistograms::new();
    let mut shard_totals = ShardTotals::default();
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
                        let (result, stats) = cluster_with_reuse_traced(
                            t_low,
                            t_high,
                            variant,
                            &prev,
                            source_variant,
                            reuse,
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
                            None,
                        )
                    }
                    _ => {
                        if let Some(plan) = shard_plan {
                            // Second placement level: split this wide
                            // variant into ε-halo'd shards and cluster
                            // them with the worker's team. A capacity
                            // overflow (> u32::MAX − 1 points) panics
                            // here and is contained as a JobPanic like
                            // any other job failure.
                            let (result, shard_stats) =
                                sharded_dbscan(t_low, variant.params(), plan.shards, plan.team)
                                    .unwrap_or_else(|e| panic!("sharded clustering: {e}"));
                            let stats = shard_stats.dbscan;
                            (
                                result,
                                ExecutionPath::FromScratch(stats),
                                false,
                                Some(shard_stats),
                            )
                        } else {
                            let (result, stats) =
                                dbscan_with_scratch(t_low, variant.params(), scratch);
                            (result, ExecutionPath::FromScratch(stats), false, None)
                        }
                    }
                }
            }))
        };
        let (result, path, from_warm, shard_stats) = match clustered {
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
        if let Some(ss) = &shard_stats {
            // Shard-phase observability: per-shard local latencies and
            // the merge latency feed their own histograms, the census
            // feeds the run's ShardTotals, and (at TraceLevel::Full) a
            // ShardMerge detail event lands in the trace ring.
            for &ns in &ss.local_ns {
                phases.shard_local.record_ns(ns);
            }
            phases.shard_merge.record_ns(ss.merge_ns);
            shard_totals.variants += 1;
            shard_totals.shards += ss.shards as u64;
            shard_totals.border_points += ss.border_points as u64;
            shard_totals.cross_unions += ss.cross_unions;
            tracer.record_full(TraceEvent::ShardMerge {
                variant: variant_idx,
                shards: ss.shards.min(u32::MAX as usize) as u32,
                border_points: ss.border_points.min(u32::MAX as usize) as u32,
                cross_unions: ss.cross_unions.min(u64::from(u32::MAX)) as u32,
            });
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
        sharding: shard_totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;
    use std::time::Duration;
    use vbp_dbscan::{dbscan, quality_score};

    /// Deterministic blob generator: `k` Gaussian-ish blobs on a grid plus
    /// uniform noise.
    fn blobs(n: usize, k: usize, seed: u64) -> Vec<Point2> {
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

    fn small_grid() -> VariantSet {
        VariantSet::cartesian(&[0.8, 1.2, 1.6], &[4, 8])
    }

    /// [`Engine::execute`] over raw points, unwrapped — the shape most
    /// tests want.
    fn run(engine: &Engine, points: &[Point2], variants: &VariantSet) -> RunReport {
        engine
            .execute(&RunRequest::new(points, variants))
            .expect("test input is valid")
    }

    /// [`Engine::execute`] over a prepared index, unwrapped.
    fn run_prepared(engine: &Engine, index: &PreparedIndex, variants: &VariantSet) -> RunReport {
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

    /// Canonicalizes raw caller-order labels by first appearance so two
    /// labelings compare equal iff they induce the same partition (noise
    /// preserved as noise).
    fn canonical(labels: &[u32]) -> Vec<u32> {
        let mut map = std::collections::HashMap::new();
        labels
            .iter()
            .map(|&l| {
                if l == u32::MAX {
                    u32::MAX
                } else {
                    let next = map.len() as u32;
                    *map.entry(l).or_insert(next)
                }
            })
            .collect()
    }

    #[test]
    fn append_to_prepared_is_equivalent_to_fresh_prepare() {
        let all = blobs(700, 4, 7);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));
        let mut index = engine.prepare(&all[..400], Some(1.2)).expect("finite");

        // First batch (100 on 400: tail 20% — maintain), second batch
        // (+100: tail 200/600 = 33% — resort).
        let mut saw_resort = false;
        for (start, end) in [(400, 500), (500, 700)] {
            let (next, report) = engine
                .append_to_prepared(&index, &all[start..end])
                .expect("finite batch");
            assert_eq!(report.appended, end - start);
            assert_eq!(report.total, end);
            saw_resort |= report.resorted;
            index = next;

            assert_eq!(index.len(), end);
            assert_eq!(index.caller_points(), all[..end].to_vec());

            let streamed = run_prepared(&engine, &index, &variants);
            let fresh = run(&engine, &all[..end], &variants);
            for v in 0..variants.len() {
                assert_eq!(
                    canonical(&streamed.result_in_caller_order(v)),
                    canonical(&fresh.result_in_caller_order(v)),
                    "variant {v} diverged after appending to {end} points"
                );
            }
        }
        assert!(saw_resort, "second batch must cross APPEND_RESORT_FRACTION");
        assert_eq!(index.appended_since_sort(), 0, "resort resets the tail");

        let err = engine
            .append_to_prepared(&index, &[Point2::new(f64::NAN, 0.0)])
            .expect_err("non-finite appends are rejected");
        assert!(matches!(err, EngineError::NonFinitePoint { index: 0, .. }));
    }

    #[test]
    fn sharded_run_matches_unsharded_and_reports_totals() {
        let points = blobs(1500, 4, 99);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(4).with_r(16));
        let plain = run(&engine, &points, &variants);
        let sharded = engine
            .execute(
                &RunRequest::new(&points, &variants)
                    .sharding(Sharding::new(4).with_min_points(0))
                    .trace(TraceLevel::Full),
            )
            .expect("test input is valid");

        // Sharding changes placement, never structure: cluster and noise
        // counts are invariants of the geometry (only deterministic
        // border membership may move between the sequential scratch
        // kernel and the shard-merged one).
        for (a, b) in plain.outcomes.iter().zip(&sharded.outcomes) {
            assert_eq!(a.clusters, b.clusters, "{}", a.variant);
            assert_eq!(a.noise, b.noise, "{}", a.variant);
        }
        for (a, b) in plain.results.iter().zip(&sharded.results) {
            assert!(quality_score(a, b).mean_score > 0.99);
        }

        // Every from-scratch assignment went through the shard path and
        // left its footprint in the totals, histograms, and trace.
        let scratch = sharded.from_scratch_count() as u64;
        assert!(scratch >= 1);
        assert_eq!(sharded.sharding.variants, scratch);
        assert!(sharded.sharding.shards >= scratch, "{:?}", sharded.sharding);
        assert_eq!(sharded.phases.shard_merge.count(), scratch);
        assert!(sharded.phases.shard_local.count() >= scratch);
        let trace = sharded.trace.as_ref().expect("trace requested");
        let merges = trace
            .records
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::ShardMerge { .. }))
            .count() as u64;
        assert_eq!(merges, scratch);

        // Unsharded runs carry zero shard accounting.
        assert_eq!(plain.sharding, crate::metrics::ShardTotals::default());
        assert_eq!(plain.phases.shard_local.count(), 0);
        assert_eq!(plain.phases.shard_merge.count(), 0);
    }

    #[test]
    fn narrow_runs_ignore_the_sharding_policy() {
        let points = blobs(400, 3, 17);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));
        // 400 points sits far below the default width gate.
        let report = engine
            .execute(&RunRequest::new(&points, &variants).sharding(Sharding::new(4)))
            .expect("test input is valid");
        assert_eq!(report.sharding, crate::metrics::ShardTotals::default());
        assert_eq!(report.phases.shard_local.count(), 0);
        // The packed path keeps the full worker complement.
        assert_eq!(report.worker_stats.len(), 2);
    }

    #[test]
    fn engine_results_match_direct_dbscan() {
        let points = blobs(600, 4, 7);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(3).with_r(20));
        let report = run(&engine, &points, &variants);

        // Compare each variant against a direct DBSCAN over the same tree
        // order using the paper's quality metric.
        let (t_low, _) = PackedRTree::build(&points, 20);
        for (i, v) in variants.iter().enumerate() {
            let direct = dbscan(&t_low, v.params());
            let got = &report.results[i];
            assert_eq!(direct.num_clusters(), got.num_clusters(), "variant {v}");
            assert_eq!(direct.noise_count(), got.noise_count(), "variant {v}");
            let q = quality_score(&direct, got);
            assert!(q.mean_score > 0.99, "variant {v}: quality {}", q.mean_score);
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
    fn auto_r_tunes_and_reports() {
        let points = blobs(1_500, 4, 53);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_auto_r());
        let report = run(&engine, &points, &variants);
        assert!(AUTO_TUNE_CANDIDATES.contains(&report.chosen_r));
        let tune = report.tune.as_ref().expect("auto mode must record a sweep");
        assert_eq!(tune.best_r, report.chosen_r);
        assert_eq!(tune.timings.len(), AUTO_TUNE_CANDIDATES.len());
        assert!(tune.sample_size <= AUTO_TUNE_MAX_SAMPLE);
        // Results must match a fixed-r run (r only affects speed).
        let fixed_engine = Engine::new(
            EngineConfig::default()
                .with_threads(2)
                .with_r(report.chosen_r),
        );
        let fixed = run(&fixed_engine, &points, &variants);
        assert_eq!(fixed.chosen_r, report.chosen_r);
        assert!(fixed.tune.is_none());
        for (a, b) in report.results.iter().zip(&fixed.results) {
            assert_eq!(a.num_clusters(), b.num_clusters());
            assert_eq!(a.noise_count(), b.noise_count());
        }
    }

    #[test]
    fn auto_r_on_empty_variant_set_falls_back() {
        let points = blobs(200, 2, 59);
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_auto_r());
        let report = run(&engine, &points, &VariantSet::new(vec![]));
        assert_eq!(report.chosen_r, AUTO_TUNE_FALLBACK_R);
        assert!(report.tune.is_none());
    }

    #[test]
    fn fixed_r_is_recorded() {
        let points = blobs(100, 2, 61);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(17));
        let report = run(&engine, &points, &small_grid());
        assert_eq!(report.chosen_r, 17);
        assert!(report.tune.is_none());
    }

    #[test]
    fn rchoice_displays() {
        assert_eq!(RChoice::Fixed(70).to_string(), "70");
        assert_eq!(RChoice::Auto.to_string(), "auto");
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

    // ----- prepared indexes: build once, run many

    #[test]
    fn prepared_index_builds_once_across_runs() {
        // Regression: one-shot runs used to rebuild T_low/T_high per call
        // even on an unchanged point set. Two runs over one prepared
        // handle must not pay (or report) any index construction — the
        // build cost lives in the handle, once.
        let points = blobs(800, 4, 63);
        let variants = small_grid();
        let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(16));
        let prepared = engine.prepare(&points, None).unwrap();
        assert!(prepared.build_time() > Duration::ZERO);
        assert_eq!(prepared.len(), points.len());
        assert_eq!(prepared.chosen_r(), 16);

        let a = run_prepared(&engine, &prepared, &variants);
        let b = run_prepared(&engine, &prepared, &variants);
        assert_eq!(a.index_build_time, Duration::ZERO);
        assert_eq!(b.index_build_time, Duration::ZERO);
        assert_eq!(a.permutation, prepared.permutation());
        assert_eq!(b.permutation, prepared.permutation());

        // Same handle ⇒ same tree order ⇒ same cluster structure as the
        // classic one-shot path.
        let direct = run(&engine, &points, &variants);
        assert!(direct.index_build_time > Duration::ZERO);
        for i in 0..variants.len() {
            assert_eq!(
                a.results[i].num_clusters(),
                direct.results[i].num_clusters()
            );
            assert_eq!(a.results[i].noise_count(), direct.results[i].noise_count());
        }
    }

    #[test]
    fn prepared_auto_r_uses_eps_hint() {
        let points = blobs(1_200, 4, 67);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_auto_r());
        let with_hint = engine.prepare(&points, Some(1.0)).unwrap();
        assert!(AUTO_TUNE_CANDIDATES.contains(&with_hint.chosen_r()));
        assert!(with_hint.tune().is_some());
        let without = engine.prepare(&points, None).unwrap();
        assert_eq!(without.chosen_r(), AUTO_TUNE_FALLBACK_R);
        assert!(without.tune().is_none());
    }

    #[test]
    fn prepare_rejects_non_finite_points() {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(4));
        let points = vec![Point2::new(0.0, 0.0), Point2::new(1.0, f64::INFINITY)];
        assert!(matches!(
            engine.prepare(&points, None),
            Err(EngineError::NonFinitePoint { index: 1, .. })
        ));
    }

    #[test]
    fn labels_in_caller_order_roundtrips() {
        let points = blobs(300, 3, 69);
        let variants = VariantSet::replicated(Variant::new(1.0, 4), 1);
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(8));
        let prepared = engine.prepare(&points, None).unwrap();
        let report = run_prepared(&engine, &prepared, &variants);
        let remapped = prepared.labels_in_caller_order(&report.results[0]);
        assert_eq!(remapped, report.result_in_caller_order(0));
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
        let index = engine.prepare(&points, Some(1.0)).unwrap();

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
