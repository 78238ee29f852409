//! The two library workloads: `sweep_sw` and `scratch_cf`.
//!
//! A scientist hands `Engine::execute` raw points and a variant grid and
//! waits for every label: the operation is one whole call, index build
//! included. The two workloads share this code and differ in inputs:
//! `sweep_sw` is the paper's headline grid, where reuse and scheduling
//! do most of the work, and `scratch_cf` is four variants that cannot
//! reuse each other, where the R-tree and the DBSCAN kernel do all of it.

use std::time::{Duration, Instant};

use variantdbscan::{
    Engine, EngineConfig, ExecutionPath, PreparedIndex, RunReport, RunRequest, VariantSet,
};
use vbp_data::DatasetSpec;
use vbp_geom::Point2;

use crate::common::{end_to_end, overhead_share, repeated_setup, Ctx, Report, Tally};
use crate::metrics::Values;
use crate::spans::SpanLog;
use crate::{inputs, oracle, probes};

/// Variants whose labels the oracle re-derives per run.
const ORACLE_VARIANTS: usize = 3;

/// What must hold of every timed call's `RunReport`.
pub enum Sanity {
    /// At least this share of the variants reused another's clusters.
    ReusedShare(f64),
    /// Every variant ran from scratch.
    AllFromScratch,
}

pub struct Spec {
    pub dataset: &'static str,
    pub variants: VariantSet,
    pub sanity: Sanity,
}

/// `SW1@100000` under the Table IV "V1" grid, |V| = 57.
pub fn sweep_sw() -> Spec {
    Spec {
        dataset: "SW1@100000",
        variants: inputs::sweep_variants(100_000),
        sanity: Sanity::ReusedShare(0.8),
    }
}

/// `cF_1M_5N@400000` under four mutually non-reusable variants. Points
/// are 6.4 MB as pairs plus 6.4 MB as coordinate arrays, over three times
/// the 4 MiB L2 of a core (the host-shared L3 cannot be exceeded in
/// budget).
pub fn scratch_cf() -> Spec {
    Spec {
        dataset: "cF_1M_5N@400000",
        variants: inputs::scratch_variants(),
        sanity: Sanity::AllFromScratch,
    }
}

struct State {
    points: Vec<Point2>,
    index: PreparedIndex,
}

fn check_sanity(sanity: &Sanity, report: &RunReport) -> Result<(), String> {
    let scratch = report.from_scratch_count();
    let total = report.outcomes.len();
    match *sanity {
        Sanity::ReusedShare(share) => {
            let reused = (total - scratch) as f64 / total as f64;
            if reused < share {
                return Err(format!("only {reused:.2} of the variants reused a result"));
            }
        }
        Sanity::AllFromScratch => {
            if scratch != total {
                return Err(format!("{scratch} of {total} variants ran from scratch"));
            }
        }
    }
    Ok(())
}

/// Spans of one engine run, rebuilt from what its report returns: the
/// index build, one span per worker thread up to its last finish, and
/// under each worker the variants it clustered, named by the layer that
/// did the work.
fn record_run(log: &mut SpanLog, start_ns: u64, end_ns: u64, op: u64, report: &RunReport) {
    let ns = |d: Duration| d.as_nanos() as u64;
    let root = log.push("core.execute", start_ns, end_ns, None, op);
    let base = start_ns + ns(report.index_build_time);
    log.push("core.index_build", start_ns, base, Some(root), op);
    let workers: Vec<u32> = report
        .per_thread_finish()
        .into_iter()
        .map(|finish| log.push("core.worker", base, base + ns(finish), Some(root), op))
        .collect();
    for o in &report.outcomes {
        let name = match o.path {
            ExecutionPath::FromScratch(_) => "dbscan.scratch",
            ExecutionPath::Reused { .. } => "core.expand",
        };
        log.push(
            name,
            base + ns(o.started),
            base + ns(o.finished),
            Some(workers[o.thread]),
            op,
        );
    }
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Report {
    let config = EngineConfig::default().with_threads(ctx.threads);
    let engine = Engine::new(config);
    let (state, setup_s) = repeated_setup(
        ctx.started,
        ctx.setup_repeats(),
        || {
            let points = DatasetSpec::by_name(spec.dataset)
                .expect("a catalog dataset")
                .generate();
            let index = engine
                .prepare(&points, None)
                .expect("catalog points are finite");
            State { points, index }
        },
        drop,
    );
    let request = RunRequest::new(&state.points, &spec.variants);
    let mut tally = Tally::default();
    let mut log = SpanLog::new(Instant::now());

    // Caches fill and the allocator settles on a call that is not timed.
    engine.execute(&request).expect("warm-up run");

    // The traced run spends half its window here and the rest in probes,
    // recording spans on every other call so that the two halves measure
    // the cost of recording.
    let window = ctx.workload_window();
    let (mut plain_ms, mut traced_ms) = (Vec::new(), Vec::new());
    let mut schedule = Vec::new();
    // Only the oracle's variants of the latest call are kept: a caller
    // holds one report at a time, and so does `peak_rss_mb`.
    let picks = inputs::oracle_picks(ctx.seed, spec.variants.len(), ORACLE_VARIANTS);
    let mut last_labels: Vec<Vec<u32>> = Vec::new();
    // However short the window, one call is timed; the traced run needs
    // one with spans and one without.
    let min_reps = if ctx.trace { 2 } else { 1 };
    let opened = Instant::now();
    while plain_ms.len() + traced_ms.len() < min_reps || opened.elapsed().as_secs_f64() < window {
        let op = (plain_ms.len() + traced_ms.len()) as u64;
        let traced = ctx.trace && op.is_multiple_of(2);
        let start_ns = log.now_ns();
        let t0 = Instant::now();
        let outcome = engine.execute(&request);
        let elapsed = t0.elapsed();
        match outcome {
            Ok(report) => {
                tally.check(check_sanity(&spec.sanity, &report));
                if traced {
                    let end_ns = log.now_ns();
                    record_run(&mut log, start_ns, end_ns, op, &report);
                    traced_ms.push(elapsed.as_secs_f64() * 1e3);
                } else {
                    plain_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                schedule.push(probes::ScheduleSample::of(&report));
                last_labels = picks
                    .iter()
                    .map(|&i| report.result_in_caller_order(i))
                    .collect();
            }
            Err(e) => tally.check(Err(format!("execute failed: {e}"))),
        }
    }
    let wall = opened.elapsed().as_secs_f64();
    let e2e = (!ctx.trace).then(|| end_to_end(setup_s, &plain_ms, wall));

    // Oracle, outside the timed region: seeded variants of the last run
    // against a fresh DBSCAN over the prepared index of the same points.
    for (&i, labels) in picks.iter().zip(&last_labels) {
        let variant = spec.variants.get(i);
        let reference = oracle::reference(&state.index, variant);
        tally.check(oracle::isomorphic(&reference, labels).map_err(|e| format!("{variant}: {e}")));
    }

    if let Some(values) = e2e {
        return Report {
            tally,
            values,
            spans: None,
            notes: Vec::new(),
        };
    }

    let mut values = Values::default();
    values.set("trace.overhead_share", overhead_share(plain_ms, traced_ms));
    probes::core_schedule(&schedule, &mut values);
    let mut eps: Vec<f64> = spec.variants.iter().map(|v| v.eps).collect();
    eps.sort_by(|a, b| a.partial_cmp(b).expect("finite eps"));
    probes::rtree(
        &state.points,
        eps[eps.len() / 2],
        ctx.seed,
        &mut values,
        &mut log,
    );
    let scratch = probes::core_reuse(config, &state.index, &spec.variants, &mut values, &mut log);
    probes::dbscan_kernels(
        state.index.t_low(),
        &scratch,
        ctx.threads,
        &mut values,
        &mut log,
    );
    values.set("trace.spans", log.spans.len() as f64);
    Report {
        tally,
        values,
        spans: Some(log),
        notes: Vec::new(),
    }
}
