//! Isolated layer probes of the traced run.
//!
//! Each probe times one layer's public functions directly, on the inputs
//! of the workload being traced, and reads the counts those functions
//! return. Counts marked *exact* in the metric table depend only on the
//! inputs, so they repeat bit-for-bit under one seed.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use variantdbscan::{
    cluster_with_reuse, Engine, EngineConfig, ExecutionPath, PreparedIndex, RunReport, RunRequest,
    Variant, VariantSet,
};
use vbp_dbscan::{
    dbscan_with_scratch, parallel_dbscan, sharded_dbscan, ClusterResult, DbscanScratch, Labels,
};
use vbp_geom::{BinOrder, Point2, PointId};
use vbp_rtree::{PackedRTree, SpatialIndex};
use vbp_service::{parse_json, DominanceCache};

use crate::inputs;
use crate::metrics::Values;
use crate::quantile::{median, sorted};
use crate::spans::SpanLog;

/// Points per leaf of `T_low` under `EngineConfig::default()`.
const DEFAULT_R: usize = 80;

/// ε-queries sampled by the single-query probe.
pub const QUERY_SAMPLES: usize = 4096;

/// Reuse pairs re-run by the expansion probe.
const EXPAND_PAIRS: usize = 8;

/// Runs `f`, records it as a root span, and returns its result with the
/// elapsed seconds.
fn timed<R>(log: &mut SpanLog, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    let start = log.now_ns();
    let t0 = Instant::now();
    let r = f();
    let secs = t0.elapsed().as_secs_f64();
    log.push(name, start, log.now_ns(), None, 0);
    (r, secs)
}

/// `rtree.*`: index build, single and batched ε-queries at `eps`, and
/// the neighbours they return.
pub fn rtree(points: &[Point2], eps: f64, seed: u64, values: &mut Values, log: &mut SpanLog) {
    let mut builds = Vec::new();
    let mut tree = None;
    for _ in 0..3 {
        let ((t, _), secs) = timed(log, "rtree.build", || {
            PackedRTree::build_with_order(points, DEFAULT_R, BinOrder::Serpentine)
        });
        builds.push(secs);
        tree = Some(t);
    }
    let tree = tree.expect("three builds ran");
    values.set("rtree.build_s", median(&sorted(builds)));

    let n = tree.len();
    let queries = inputs::query_ids(seed, n, QUERY_SAMPLES);
    let mut out: Vec<PointId> = Vec::new();
    let mut found = 0usize;
    let mut ns = Vec::with_capacity(queries.len());
    let start = log.now_ns();
    for &id in &queries {
        let centre = tree.points()[id as usize];
        out.clear();
        let t0 = Instant::now();
        tree.epsilon_neighbors(black_box(centre), eps, &mut out);
        ns.push(t0.elapsed().as_nanos() as f64);
        found += black_box(&out).len();
    }
    log.push("rtree.eps_query", start, log.now_ns(), None, 0);
    values.set("rtree.eps_query_ns", median(&sorted(ns)));

    let mut ids: Vec<PointId> = (0..n as PointId).collect();
    let mut batch_found = 0usize;
    let ((), secs) = timed(log, "rtree.batch_query", || {
        tree.epsilon_neighbors_batch(&mut ids, eps, &mut out, &mut |_, neighbours| {
            batch_found += neighbours.len();
        });
    });
    values.set("rtree.batch_query_ns_per_point", secs * 1e9 / n as f64);
    values.set(
        "rtree.neighbors_per_query",
        (found + batch_found) as f64 / (queries.len() + n) as f64,
    );
}

/// `rtree.append_*`: replays a feed's batches through
/// `Engine::append_to_prepared`, the index-maintenance part of an APPEND.
pub fn append_replay(
    engine: &Engine,
    base: &PreparedIndex,
    batches: &[Vec<Point2>],
    values: &mut Values,
    log: &mut SpanLog,
) {
    let mut index = base.clone();
    let mut resorts = 0u64;
    let ((), secs) = timed(log, "rtree.append_replay", || {
        for batch in batches {
            let (next, report) = engine
                .append_to_prepared(&index, batch)
                .expect("generated points are finite");
            resorts += u64::from(report.resorted);
            index = next;
        }
    });
    values.set(
        "rtree.append_s_per_batch",
        secs / batches.len().max(1) as f64,
    );
    values.set("rtree.append_resorts", resorts as f64);
}

/// `dbscan.*`: the sequential kernel on each of `variants`, and the
/// parallel and sharded kernels on the widest of them.
pub fn dbscan_kernels(
    tree: &PackedRTree,
    variants: &[Variant],
    threads: usize,
    values: &mut Values,
    log: &mut SpanLog,
) {
    let Some(widest) = variants
        .iter()
        .copied()
        .max_by(|a, b| a.eps.partial_cmp(&b.eps).expect("finite eps"))
    else {
        return;
    };
    let mut scratch = DbscanScratch::new();
    let (mut secs_total, mut searches, mut found) = (0.0, 0usize, 0usize);
    for v in variants {
        let ((_, stats), secs) = timed(log, "dbscan.scratch", || {
            dbscan_with_scratch(tree, v.params(), &mut scratch)
        });
        secs_total += secs;
        searches += stats.neighbor_searches;
        found += stats.neighbors_found;
    }
    values.set("dbscan.scratch_s", secs_total);
    values.set(
        "dbscan.scratch_ns_per_point",
        secs_total * 1e9 / (variants.len() * tree.len().max(1)) as f64,
    );
    values.set("dbscan.neighbor_searches", searches as f64);
    values.set("dbscan.neighbors_found", found as f64);

    let (_, secs) = timed(log, "dbscan.parallel", || {
        black_box(parallel_dbscan(tree, widest.params(), threads))
    });
    values.set("dbscan.parallel_s", secs);
    let (_, secs) = timed(log, "dbscan.sharded", || {
        black_box(sharded_dbscan(tree, widest.params(), threads, threads))
    });
    values.set("dbscan.sharded_s", secs);
}

/// `core.*` counts and the expansion probe: one single-threaded run of
/// `variants` over `index` (so the schedule, and with it every count, is
/// a function of the inputs alone), then `cluster_with_reuse` again for
/// the first reuse pairs that run chose. Returns the variants it
/// clustered from scratch: the kernel's share of this workload.
pub fn core_reuse(
    config: EngineConfig,
    index: &PreparedIndex,
    variants: &VariantSet,
    values: &mut Values,
    log: &mut SpanLog,
) -> Vec<Variant> {
    let engine = Engine::new(config.with_threads(1));
    let (report, _) = timed(log, "core.execute_t1", || {
        engine
            .execute(&RunRequest::prepared(index, variants))
            .expect("a prepared run over finite points")
    });
    values.set(
        "core.from_scratch_count",
        report.from_scratch_count() as f64,
    );
    values.set(
        "core.searches_total",
        report.outcomes.iter().map(|o| o.searches()).sum::<usize>() as f64,
    );
    values.set("core.mean_fraction_reused", report.mean_fraction_reused());

    let mut expand_s = 0.0;
    let pairs = report.outcomes.iter().filter_map(|o| match o.path {
        ExecutionPath::Reused { source, .. } => Some((source, o.variant)),
        ExecutionPath::FromScratch(_) => None,
    });
    for (source, target) in pairs.take(EXPAND_PAIRS) {
        let source_index = variants
            .iter()
            .position(|v| v == source)
            .expect("an in-run reuse source is a variant of the run");
        let previous = &report.results[source_index];
        let (_, secs) = timed(log, "core.expand", || {
            black_box(cluster_with_reuse(
                index.t_low(),
                index.t_high(),
                target,
                previous,
                source,
                config.reuse,
            ))
        });
        expand_s += secs;
    }
    values.set("core.expand_s", expand_s);

    report
        .outcomes
        .iter()
        .filter(|o| matches!(o.path, ExecutionPath::FromScratch(_)))
        .map(|o| o.variant)
        .collect()
}

/// What one engine run's `RunReport` says about scheduling and the
/// split between the two execution paths (the report itself holds every
/// label vector, so the workload keeps only this).
pub struct ScheduleSample {
    scratch_busy_s: f64,
    reuse_busy_s: f64,
    lock_wait_share: f64,
    sched_s: f64,
    idle_s: f64,
    slowdown: f64,
    index_build_s: f64,
}

impl ScheduleSample {
    pub fn of(report: &RunReport) -> Self {
        let busy = |scratch: bool| -> f64 {
            report
                .outcomes
                .iter()
                .filter(|o| matches!(o.path, ExecutionPath::FromScratch(_)) == scratch)
                .map(|o| o.response_time().as_secs_f64())
                .sum()
        };
        Self {
            scratch_busy_s: busy(true),
            reuse_busy_s: busy(false),
            lock_wait_share: report.lock_wait_share(),
            sched_s: report.total_sched_time().as_secs_f64(),
            idle_s: report.total_idle().as_secs_f64(),
            slowdown: report.slowdown_vs_lower_bound(),
            index_build_s: report.index_build_time.as_secs_f64(),
        }
    }
}

/// `core.*` timings: medians over the workload's engine runs.
pub fn core_schedule(samples: &[ScheduleSample], values: &mut Values) {
    if samples.is_empty() {
        return;
    }
    let mut med = |name: &'static str, f: fn(&ScheduleSample) -> f64| {
        values.set(name, median(&sorted(samples.iter().map(f).collect())));
    };
    med("core.scratch_busy_s", |s| s.scratch_busy_s);
    med("core.reuse_busy_s", |s| s.reuse_busy_s);
    med("core.lock_wait_share", |s| s.lock_wait_share);
    med("core.sched_s", |s| s.sched_s);
    med("core.idle_s", |s| s.idle_s);
    med("core.slowdown_vs_lower_bound", |s| s.slowdown);
    med("core.index_build_s", |s| s.index_build_s);
}

/// `service.cache_*`: `DominanceCache::lookup` and `insert` on a cache
/// already holding 32 and 800 entries of one dataset.
pub fn cache(values: &mut Values, log: &mut SpanLog) {
    // Small results, so 800 of them fit the shipped 64 MiB budget; the
    // lookup is a scan over variants and never touches the labels.
    let result = Arc::new(ClusterResult::from_labels(Labels::from_raw(
        (0..2000u32).map(|i| i % 5).collect(),
    )));
    let entry = |i: usize| Variant::new(0.5 + i as f64 * 1e-3, 4 + i % 16);
    for (fill, lookup_name, insert_name) in [
        (
            32,
            "service.cache_lookup_ns_32",
            "service.cache_insert_ns_32",
        ),
        (
            800,
            "service.cache_lookup_ns_800",
            "service.cache_insert_ns_800",
        ),
    ] {
        let mut cache = DominanceCache::new(64 << 20);
        for i in 0..fill {
            cache.insert("d", entry(i), Arc::clone(&result));
        }
        let start = log.now_ns();
        let mut lookups = Vec::with_capacity(2000);
        for i in 0..2000usize {
            let v = Variant::new(0.5 + (i % fill) as f64 * 1e-3 + 5e-4, 4 + i % 16);
            let t0 = Instant::now();
            black_box(cache.lookup("d", black_box(v)));
            lookups.push(t0.elapsed().as_nanos() as f64);
        }
        let mut inserts = Vec::with_capacity(200);
        for i in 0..200usize {
            let t0 = Instant::now();
            cache.insert("d", entry(fill + i), Arc::clone(&result));
            inserts.push(t0.elapsed().as_nanos() as f64);
        }
        log.push("service.cache_probe", start, log.now_ns(), None, 0);
        values.set(lookup_name, median(&sorted(lookups)));
        values.set(insert_name, median(&sorted(inserts)));
    }
}

/// `service.json_parse_ns`: `parse_json` on a submit reply body as the
/// router receives it from a backend.
pub fn json_parse(body: &[u8], values: &mut Values, log: &mut SpanLog) {
    let start = log.now_ns();
    let mut ns = Vec::with_capacity(2000);
    for _ in 0..2000 {
        let t0 = Instant::now();
        black_box(parse_json(black_box(body)).expect("a daemon reply is JSON"));
        ns.push(t0.elapsed().as_nanos() as f64);
    }
    log.push("service.json_parse", start, log.now_ns(), None, 0);
    values.set("service.json_parse_ns", median(&sorted(ns)));
}

/// `store.*`: encode and restore one prepared index.
pub fn store(index: &PreparedIndex, values: &mut Values, log: &mut SpanLog) {
    let (mut encode, mut restore) = (Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    for _ in 0..3 {
        let (b, secs) = timed(log, "store.encode", || index.snapshot_bytes());
        encode.push(secs);
        bytes = b;
        let (restored, secs) = timed(log, "store.restore", || {
            PreparedIndex::restore(&mut bytes.as_slice()).expect("a fresh snapshot restores")
        });
        restore.push(secs);
        assert_eq!(restored.len(), index.len());
    }
    values.set("store.encode_s", median(&sorted(encode)));
    values.set("store.restore_s", median(&sorted(restore)));
    values.set("store.snapshot_bytes", bytes.len() as f64);
    values.set(
        "store.bytes_per_point",
        bytes.len() as f64 / index.len().max(1) as f64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_data::DatasetSpec;

    /// Same seed, two in-process runs at reduced size: the counts marked
    /// exact are identical, and another seed samples other queries.
    #[test]
    fn exact_counts_repeat_under_one_seed() {
        let points = DatasetSpec::by_name("cF_10k_5N@3000").unwrap().generate();
        let config = EngineConfig::default().with_threads(2);
        let engine = Engine::new(config);
        let variants = VariantSet::cartesian(&[0.4, 0.5, 0.6], &[4, 8, 12]);
        let run = |seed: u64| {
            let mut v = Values::default();
            let mut log = SpanLog::new(Instant::now());
            let index = engine.prepare(&points, None).unwrap();
            rtree(&points, 0.5, seed, &mut v, &mut log);
            let scratch = core_reuse(config, &index, &variants, &mut v, &mut log);
            dbscan_kernels(index.t_low(), &scratch, 2, &mut v, &mut log);
            let feed = inputs::stream_inputs(seed, 140, &points, 0.5);
            append_replay(&engine, &index, &feed.batches, &mut v, &mut log);
            store(&index, &mut v, &mut log);
            assert!(!log.spans.is_empty());
            crate::metrics::PER_LAYER
                .iter()
                .filter(|m| m.exact)
                .map(|m| (m.name, v.get(m.name).expect("every exact count was probed")))
                .collect::<Vec<_>>()
        };
        let (a, b, c) = (run(11), run(11), run(12));
        assert_eq!(a, b);
        assert_ne!(a, c);
        let get = |name: &str| a.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("rtree.neighbors_per_query") > 1.0);
        assert!(get("core.from_scratch_count") >= 1.0);
        // 140 batches of 8 on 3000 points cross the 25 % re-sort line.
        assert!(get("rtree.append_resorts") >= 1.0);
    }

    #[test]
    fn cache_and_json_probes_report_positive_times() {
        let mut v = Values::default();
        let mut log = SpanLog::new(Instant::now());
        cache(&mut v, &mut log);
        json_parse(
            br#"{"clusters":3,"noise":17,"warm":true,"reused":true,"ms":0.42}"#,
            &mut v,
            &mut log,
        );
        for name in [
            "service.cache_lookup_ns_32",
            "service.cache_lookup_ns_800",
            "service.cache_insert_ns_32",
            "service.cache_insert_ns_800",
            "service.json_parse_ns",
        ] {
            assert!(v.get(name).unwrap() > 0.0, "{name}");
        }
    }
}
