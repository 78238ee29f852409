//! Per-variant and per-run metrics — the quantities the paper's evaluation
//! plots: per-variant response time and fraction reused (Figure 5),
//! relative speedups (Figures 4, 7a, 8), average reuse (Figure 7b), and
//! per-thread makespans against the no-idle lower bound (Figure 9).

use std::sync::Arc;
use std::time::Duration;

use vbp_dbscan::{ClusterResult, DbscanStats};
use vbp_geom::PointId;

use crate::expand::ReuseStats;
use crate::json::{JsonArray, JsonObject};
use crate::trace::{PhaseHistograms, TraceSnapshot};
use crate::variant::Variant;

/// How one variant was clustered.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecutionPath {
    /// Plain DBSCAN (Algorithm 3, line 19).
    FromScratch(DbscanStats),
    /// Cluster reuse (Algorithm 3, lines 4–18) from the given source.
    Reused {
        /// The completed variant whose clusters were reused.
        source: Variant,
        /// Reuse instrumentation.
        stats: ReuseStats,
    },
}

/// The record of one variant's execution.
#[derive(Clone, Debug)]
pub struct VariantOutcome {
    /// Canonical index in the [`VariantSet`](crate::VariantSet).
    pub index: usize,
    /// The variant parameters.
    pub variant: Variant,
    /// Worker thread (0-based) that executed it.
    pub thread: usize,
    /// Start offset from the run's t = 0.
    pub started: Duration,
    /// Finish offset from the run's t = 0.
    pub finished: Duration,
    /// Which code path ran and its instrumentation.
    pub path: ExecutionPath,
    /// `true` when the reuse source was a *warm* one — a cached
    /// clustering completed by an earlier run over the same prepared
    /// index (see [`RunRequest::warm`](crate::RunRequest::warm)) rather
    /// than a variant of this run. Always `false` for from-scratch
    /// executions.
    pub warm: bool,
    /// Clusters produced.
    pub clusters: usize,
    /// Points labeled noise.
    pub noise: usize,
}

impl VariantOutcome {
    /// Wall-clock time this variant took (the paper's per-variant
    /// "response time").
    pub fn response_time(&self) -> Duration {
        self.finished.saturating_sub(self.started)
    }

    /// Fraction of points whose assignment was copied from the reuse
    /// source (0 for from-scratch executions).
    pub fn fraction_reused(&self) -> f64 {
        match &self.path {
            ExecutionPath::FromScratch(_) => 0.0,
            ExecutionPath::Reused { stats, .. } => stats.fraction_reused(),
        }
    }

    /// The reuse source, if any.
    pub fn reused_from(&self) -> Option<Variant> {
        match &self.path {
            ExecutionPath::FromScratch(_) => None,
            ExecutionPath::Reused { source, .. } => Some(*source),
        }
    }

    /// Total ε-neighborhood searches issued.
    pub fn searches(&self) -> usize {
        match &self.path {
            ExecutionPath::FromScratch(s) => s.neighbor_searches,
            ExecutionPath::Reused { stats, .. } => stats.total_searches(),
        }
    }
}

/// Per-worker contention and utilization accounting.
///
/// Sampled by each worker thread around its two schedule-mutex critical
/// sections (pull and complete) and its clustering work; everything that
/// is neither is attributed to `idle`. With the monolithic
/// `Mutex<Shared>` split into a small scheduler mutex plus lock-free
/// result slots, the lock-wait share should stay small even at high `T`
/// (the benchmark's `core.lock_wait_share`, `core.sched_s`, `core.idle_s`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker thread id (0-based).
    pub thread: usize,
    /// Assignments this worker executed.
    pub assignments: usize,
    /// Time spent blocked acquiring the schedule mutex.
    pub lock_wait: Duration,
    /// Time spent inside the schedule mutex making decisions
    /// (`next_assignment` + `complete`).
    pub sched_time: Duration,
    /// Time spent clustering variants.
    pub busy: Duration,
    /// Residual wall time: waiting for work that never came, thread
    /// startup/teardown, channel sends.
    pub idle: Duration,
}

impl WorkerStats {
    /// Fresh zeroed stats for one worker.
    pub fn new(thread: usize) -> Self {
        Self {
            thread,
            ..Self::default()
        }
    }

    /// The worker's accounted wall time.
    pub fn total(&self) -> Duration {
        self.busy + self.lock_wait + self.sched_time + self.idle
    }
}

/// The complete record of an engine run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Per-variant outcomes, sorted by canonical variant index.
    pub outcomes: Vec<VariantOutcome>,
    /// Wall-clock makespan of the whole run (tree construction excluded;
    /// the paper indexes once and amortizes across variants).
    pub total_time: Duration,
    /// Time spent bin-sorting and building `T_low`.
    pub index_build_time: Duration,
    /// Number of worker threads.
    pub threads: usize,
    /// The `r` (points per leaf MBB) `T_low` was built with.
    pub chosen_r: usize,
    /// Clustering results per variant (in canonical variant order), in
    /// *tree order* point ids. Empty when the engine is configured with
    /// `keep_results = false`.
    pub results: Vec<Arc<ClusterResult>>,
    /// Permutation mapping tree order → caller point order.
    pub permutation: Vec<PointId>,
    /// Per-worker contention/utilization accounting, one entry per
    /// thread (unordered; see [`WorkerStats::thread`]).
    pub worker_stats: Vec<WorkerStats>,
    /// Warm reuse sources the run was seeded with (0 unless the
    /// request set [`RunRequest::warm`](crate::RunRequest::warm)).
    pub warm_seeds: usize,
    /// Per-phase latency histograms (scratch/reuse busy time, lock wait,
    /// schedule decisions), merged across workers.
    /// Always recorded — the per-sample cost is one `leading_zeros` and
    /// two adds.
    pub phases: PhaseHistograms,
    /// The run's merged trace, when the request asked for a
    /// [`TraceLevel`](crate::trace::TraceLevel) above `Off`.
    pub trace: Option<TraceSnapshot>,
}

impl RunReport {
    /// Sum of per-variant response times — what a single thread would
    /// spend executing this exact work distribution back to back.
    pub fn total_busy(&self) -> Duration {
        self.outcomes
            .iter()
            .map(VariantOutcome::response_time)
            .sum()
    }

    /// Busy time per thread (Figure 9's bar heights).
    pub fn per_thread_busy(&self) -> Vec<Duration> {
        let mut busy = vec![Duration::ZERO; self.threads];
        for o in &self.outcomes {
            busy[o.thread] += o.response_time();
        }
        busy
    }

    /// Per-thread makespan: when each thread finished its last variant.
    pub fn per_thread_finish(&self) -> Vec<Duration> {
        let mut finish = vec![Duration::ZERO; self.threads];
        for o in &self.outcomes {
            finish[o.thread] = finish[o.thread].max(o.finished);
        }
        finish
    }

    /// The Figure 9 lower bound: if no core ever idled, the run would take
    /// `total_busy / threads`.
    pub fn lower_bound(&self) -> Duration {
        if self.threads == 0 {
            return Duration::ZERO;
        }
        self.total_busy() / self.threads as u32
    }

    /// Slowdown of the actual makespan relative to the lower bound
    /// (the paper reports 13.5% for SchedGreedy vs 33.0% for SchedMinpts
    /// in its Figure 9 scenario). 0.0 means perfectly packed.
    pub fn slowdown_vs_lower_bound(&self) -> f64 {
        let lb = self.lower_bound().as_secs_f64();
        if lb <= 0.0 {
            return 0.0;
        }
        let makespan = self
            .per_thread_finish()
            .into_iter()
            .max()
            .unwrap_or(Duration::ZERO)
            .as_secs_f64();
        (makespan - lb).max(0.0) / lb
    }

    /// Mean fraction of points reused across all variants (Figure 7b).
    pub fn mean_fraction_reused(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes
            .iter()
            .map(VariantOutcome::fraction_reused)
            .sum::<f64>()
            / self.outcomes.len() as f64
    }

    /// How many variants were clustered from scratch.
    pub fn from_scratch_count(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.path, ExecutionPath::FromScratch(_)))
            .count()
    }

    /// How many variants reused a *warm* (cross-run cached) source — the
    /// service cache's per-run hit count.
    pub fn warm_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.warm).count()
    }

    /// Relative speedup versus a reference run time — the paper's y-axis:
    /// `time(reference) / time(this)`.
    pub fn speedup_vs(&self, reference: Duration) -> f64 {
        let own = self.total_time.as_secs_f64();
        if own <= 0.0 {
            return f64::INFINITY;
        }
        reference.as_secs_f64() / own
    }

    /// Total time all workers spent blocked on the schedule mutex.
    pub fn total_lock_wait(&self) -> Duration {
        self.worker_stats.iter().map(|w| w.lock_wait).sum()
    }

    /// Total time all workers spent inside schedule decisions.
    pub fn total_sched_time(&self) -> Duration {
        self.worker_stats.iter().map(|w| w.sched_time).sum()
    }

    /// Total residual idle time across workers.
    pub fn total_idle(&self) -> Duration {
        self.worker_stats.iter().map(|w| w.idle).sum()
    }

    /// Fraction of total accounted worker time spent blocked on the
    /// schedule mutex (the benchmark's `core.lock_wait_share`). 0.0 when
    /// no stats were recorded.
    pub fn lock_wait_share(&self) -> f64 {
        let accounted: Duration = self.worker_stats.iter().map(WorkerStats::total).sum();
        let accounted = accounted.as_secs_f64();
        if accounted <= 0.0 {
            return 0.0;
        }
        self.total_lock_wait().as_secs_f64() / accounted
    }

    /// Maps one variant's clustering result back to the caller's original
    /// point order.
    pub fn result_in_caller_order(&self, variant_index: usize) -> Vec<u32> {
        let labels = self.results[variant_index].labels();
        vbp_geom::binning::unpermute(&self.permutation, |i| labels.raw(i as PointId))
    }

    /// Renders the whole run machine-readably (one JSON object, no
    /// trailing newline): totals, per-variant outcomes, and
    /// per-worker stats. Emitted by `vbp sweep --json` and embedded in
    /// the service's `STATS` output.
    pub fn to_json(&self) -> String {
        let mut outcomes = JsonArray::new();
        for o in &self.outcomes {
            outcomes.push_raw(&o.to_json());
        }
        let mut workers = JsonArray::new();
        for w in &self.worker_stats {
            workers.push_raw(&w.to_json());
        }
        let o = JsonObject::new()
            .uint("variants", self.outcomes.len() as u64)
            .uint("threads", self.threads as u64)
            .uint("chosen_r", self.chosen_r as u64)
            .float("total_ms", self.total_time.as_secs_f64() * 1e3)
            .float("index_build_ms", self.index_build_time.as_secs_f64() * 1e3)
            .uint("warm_seeds", self.warm_seeds as u64)
            .uint("warm_hits", self.warm_hits() as u64)
            .uint("from_scratch", self.from_scratch_count() as u64)
            .float("mean_fraction_reused", self.mean_fraction_reused())
            .float("makespan_slowdown", self.slowdown_vs_lower_bound())
            .float("lock_wait_ms", self.total_lock_wait().as_secs_f64() * 1e3)
            .float("sched_ms", self.total_sched_time().as_secs_f64() * 1e3)
            .float("idle_ms", self.total_idle().as_secs_f64() * 1e3)
            .float("lock_wait_share", self.lock_wait_share())
            .raw("phases", &self.phases.to_json())
            .raw("outcomes", &outcomes.finish())
            .raw("worker_stats", &workers.finish());
        match &self.trace {
            Some(snap) => o.raw("trace", &snap.to_json()),
            None => o,
        }
        .finish()
    }
}

impl WorkerStats {
    /// One worker's accounting as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .uint("thread", self.thread as u64)
            .uint("assignments", self.assignments as u64)
            .float("lock_wait_ms", self.lock_wait.as_secs_f64() * 1e3)
            .float("sched_ms", self.sched_time.as_secs_f64() * 1e3)
            .float("busy_ms", self.busy.as_secs_f64() * 1e3)
            .float("idle_ms", self.idle.as_secs_f64() * 1e3)
            .finish()
    }
}

impl VariantOutcome {
    /// One variant's record as a JSON object.
    pub fn to_json(&self) -> String {
        let o = JsonObject::new()
            .uint("index", self.index as u64)
            .float("eps", self.variant.eps)
            .uint("minpts", self.variant.minpts as u64)
            .uint("thread", self.thread as u64)
            .float("started_ms", self.started.as_secs_f64() * 1e3)
            .float("finished_ms", self.finished.as_secs_f64() * 1e3)
            .float("response_ms", self.response_time().as_secs_f64() * 1e3)
            .uint("clusters", self.clusters as u64)
            .uint("noise", self.noise as u64)
            .boolean("warm", self.warm)
            .float("fraction_reused", self.fraction_reused())
            .uint("searches", self.searches() as u64);
        match &self.path {
            ExecutionPath::FromScratch(_) => o.str("path", "scratch").null("source"),
            ExecutionPath::Reused { source, .. } => o.str("path", "reused").raw(
                "source",
                &JsonObject::new()
                    .float("eps", source.eps)
                    .uint("minpts", source.minpts as u64)
                    .finish(),
            ),
        }
        .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(index: usize, thread: usize, start_ms: u64, end_ms: u64) -> VariantOutcome {
        VariantOutcome {
            index,
            variant: Variant::new(0.5, 4),
            thread,
            started: Duration::from_millis(start_ms),
            finished: Duration::from_millis(end_ms),
            path: ExecutionPath::FromScratch(DbscanStats::default()),
            warm: false,
            clusters: 1,
            noise: 0,
        }
    }

    fn report(outcomes: Vec<VariantOutcome>, threads: usize, total_ms: u64) -> RunReport {
        RunReport {
            outcomes,
            total_time: Duration::from_millis(total_ms),
            index_build_time: Duration::ZERO,
            threads,
            chosen_r: 1,
            results: Vec::new(),
            permutation: Vec::new(),
            worker_stats: Vec::new(),
            warm_seeds: 0,
            phases: PhaseHistograms::new(),
            trace: None,
        }
    }

    #[test]
    fn busy_and_lower_bound() {
        let r = report(
            vec![
                outcome(0, 0, 0, 100),
                outcome(1, 1, 0, 300),
                outcome(2, 0, 100, 200),
            ],
            2,
            300,
        );
        assert_eq!(r.total_busy(), Duration::from_millis(500));
        assert_eq!(
            r.per_thread_busy(),
            vec![Duration::from_millis(200), Duration::from_millis(300)]
        );
        assert_eq!(r.lower_bound(), Duration::from_millis(250));
        // Makespan 300 vs lower bound 250 ⇒ 20% slowdown.
        assert!((r.slowdown_vs_lower_bound() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn speedup() {
        let r = report(vec![outcome(0, 0, 0, 100)], 1, 100);
        assert!((r.speedup_vs(Duration::from_millis(500)) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_counting_and_reuse_fraction() {
        let mut o2 = outcome(1, 0, 100, 150);
        o2.path = ExecutionPath::Reused {
            source: Variant::new(0.4, 8),
            stats: ReuseStats {
                points_reused: 75,
                total_points: 100,
                ..ReuseStats::default()
            },
        };
        let r = report(vec![outcome(0, 0, 0, 100), o2], 1, 150);
        assert_eq!(r.from_scratch_count(), 1);
        assert!((r.mean_fraction_reused() - 0.375).abs() < 1e-12);
        assert_eq!(r.outcomes[1].reused_from(), Some(Variant::new(0.4, 8)));
        assert_eq!(r.outcomes[1].fraction_reused(), 0.75);
    }

    #[test]
    fn contention_aggregates() {
        let mut r = report(vec![], 2, 100);
        r.worker_stats = vec![
            WorkerStats {
                thread: 0,
                assignments: 3,
                lock_wait: Duration::from_millis(10),
                sched_time: Duration::from_millis(5),
                busy: Duration::from_millis(70),
                idle: Duration::from_millis(15),
            },
            WorkerStats {
                thread: 1,
                assignments: 2,
                lock_wait: Duration::from_millis(30),
                sched_time: Duration::from_millis(5),
                busy: Duration::from_millis(50),
                idle: Duration::from_millis(15),
            },
        ];
        assert_eq!(r.total_lock_wait(), Duration::from_millis(40));
        assert_eq!(r.total_sched_time(), Duration::from_millis(10));
        assert_eq!(r.total_idle(), Duration::from_millis(30));
        // 40 ms of 200 ms accounted ⇒ 20% lock-wait share.
        assert!((r.lock_wait_share() - 0.2).abs() < 1e-9);
        assert_eq!(r.worker_stats[0].total(), Duration::from_millis(100));
    }

    #[test]
    fn empty_contention_is_zero() {
        let r = report(vec![], 2, 100);
        assert_eq!(r.total_lock_wait(), Duration::ZERO);
        assert_eq!(r.lock_wait_share(), 0.0);
    }

    #[test]
    fn empty_report() {
        let r = report(vec![], 4, 0);
        assert_eq!(r.total_busy(), Duration::ZERO);
        assert_eq!(r.mean_fraction_reused(), 0.0);
        assert_eq!(r.slowdown_vs_lower_bound(), 0.0);
    }

    #[test]
    fn run_report_json_carries_outcomes_and_counters() {
        let mut o2 = outcome(1, 0, 100, 150);
        o2.path = ExecutionPath::Reused {
            source: Variant::new(0.4, 8),
            stats: ReuseStats {
                points_reused: 75,
                total_points: 100,
                ..ReuseStats::default()
            },
        };
        o2.warm = true;
        let mut r = report(vec![outcome(0, 0, 0, 100), o2], 1, 150);
        r.warm_seeds = 3;
        r.worker_stats = vec![WorkerStats::new(0)];
        let json = r.to_json();
        crate::json::parse_json(json.as_bytes()).expect("well-formed JSON");
        assert!(json.contains(r#""warm_seeds":3"#), "{json}");
        assert!(json.contains(r#""warm_hits":1"#), "{json}");
        assert!(json.contains(r#""from_scratch":1"#), "{json}");
        assert!(json.contains(r#""path":"reused""#), "{json}");
        assert!(
            json.contains(r#""source":{"eps":0.4,"minpts":8}"#),
            "{json}"
        );
        assert!(json.contains(r#""worker_stats":[{"thread":0"#), "{json}");
    }

    #[test]
    fn warm_hits_counts_only_warm_outcomes() {
        let mut a = outcome(0, 0, 0, 10);
        a.warm = true;
        let b = outcome(1, 0, 10, 20);
        let r = report(vec![a, b], 1, 20);
        assert_eq!(r.warm_hits(), 1);
    }
}
