//! The metric tables: names, units, directions, bounds.
//!
//! `BENCHMARK.json` repeats these tables for the driver; a unit test in
//! `main.rs` fails when the two disagree.

use std::collections::BTreeMap;

/// Which direction is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a caller of the system waits for or
/// pays. Reported by every workload on the untraced run.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// before a change counts as a regression.
    pub bound: f64,
}

/// A metric of one layer (crate), reported on the traced run. `exact`
/// marks counts that must repeat bit-for-bit under one seed.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub exact: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p10_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_ops",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// Tighter bounds that hold on single workloads, as `(workload, metric,
/// bound)`. `BENCHMARK.json` has one bound per metric, and that one must
/// cover the noisiest workload; `compare` holds a workload to three
/// times the widest spread its ten-run series of one commit showed,
/// where that is tighter (README, *Host and noise*). Only memory
/// qualifies: every timing has spread past 8 % in some series.
pub const TIGHTER: &[(&str, &str, f64)] = &[
    ("scratch_cf", "peak_rss_mb", 0.10),
    ("serve_stream", "peak_rss_mb", 0.10),
    ("stream_append", "peak_rss_mb", 0.15),
];

/// The bound `compare` applies to `metric` on `workload`.
pub fn bound_for(workload: &str, metric: &EndToEnd) -> f64 {
    TIGHTER
        .iter()
        .find(|(w, m, _)| *w == workload && *m == metric.name)
        .map_or(metric.bound, |&(_, _, bound)| bound)
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> Layer {
    Layer {
        name,
        unit,
        better,
        exact,
    }
}

use Better::{Higher, Lower};

pub const PER_LAYER: &[Layer] = &[
    // rtree (geom is measured through it)
    layer("rtree.build_s", "s", Lower, false),
    layer("rtree.eps_query_ns", "ns", Lower, false),
    layer("rtree.batch_query_ns_per_point", "ns", Lower, false),
    layer("rtree.neighbors_per_query", "count", Lower, true),
    layer("rtree.append_s_per_batch", "s", Lower, false),
    layer("rtree.append_resorts", "count", Lower, true),
    // dbscan
    layer("dbscan.scratch_s", "s", Lower, false),
    layer("dbscan.scratch_ns_per_point", "ns", Lower, false),
    layer("dbscan.parallel_s", "s", Lower, false),
    layer("dbscan.sharded_s", "s", Lower, false),
    layer("dbscan.neighbor_searches", "count", Lower, true),
    layer("dbscan.neighbors_found", "count", Lower, true),
    // core
    layer("core.expand_s", "s", Lower, false),
    layer("core.scratch_busy_s", "s", Lower, false),
    layer("core.reuse_busy_s", "s", Lower, false),
    layer("core.from_scratch_count", "count", Lower, true),
    layer("core.searches_total", "count", Lower, true),
    layer("core.mean_fraction_reused", "ratio", Higher, true),
    layer("core.lock_wait_share", "ratio", Lower, false),
    layer("core.sched_s", "s", Lower, false),
    layer("core.idle_s", "s", Lower, false),
    layer("core.slowdown_vs_lower_bound", "ratio", Lower, false),
    layer("core.index_build_s", "s", Lower, false),
    // service
    layer("service.engine_ms_p50", "ms", Lower, false),
    layer("service.line_submit_p50_ms", "ms", Lower, false),
    layer("service.http_submit_p50_ms", "ms", Lower, false),
    layer("service.routed_submit_p50_ms", "ms", Lower, false),
    layer("service.door_wait_ms", "ms", Lower, false),
    layer("service.http_over_line_ms", "ms", Lower, false),
    layer("service.router_hop_ms", "ms", Lower, false),
    layer("service.submit_p90_ms", "ms", Lower, false),
    layer("service.submit_p99_ms", "ms", Lower, false),
    layer("service.fresh_submit_p50_ms", "ms", Lower, false),
    layer("service.repeat_submit_p50_ms", "ms", Lower, false),
    layer("service.append_delta_p50_ms", "ms", Lower, false),
    layer("service.append_delta_p90_ms", "ms", Lower, false),
    layer("service.append_ms_p50", "ms", Lower, false),
    layer("service.cache_hit_share", "ratio", Higher, false),
    layer("service.reuse_hit_share", "ratio", Higher, false),
    layer("service.batches", "count", Lower, false),
    layer("service.max_batch", "count", Higher, false),
    layer("service.cache_evictions", "count", Lower, false),
    layer("service.cache_repaired", "count", Higher, false),
    layer("service.cache_dropped", "count", Lower, false),
    layer("service.rejected_overloaded", "count", Lower, false),
    layer("service.cache_lookup_ns_32", "ns", Lower, false),
    layer("service.cache_lookup_ns_800", "ns", Lower, false),
    layer("service.cache_insert_ns_32", "ns", Lower, false),
    layer("service.cache_insert_ns_800", "ns", Lower, false),
    layer("service.json_parse_ns", "ns", Lower, false),
    // store
    layer("store.encode_s", "s", Lower, false),
    layer("store.restore_s", "s", Lower, false),
    layer("store.snapshot_bytes", "count", Lower, true),
    layer("store.bytes_per_point", "count", Lower, true),
    layer("store.restart_s", "s", Lower, false),
    // the runner's own spans
    layer("trace.overhead_share", "ratio", Lower, false),
    layer("trace.spans", "count", Lower, false),
];

/// Metric values of one run, keyed by table name. A layer a workload
/// never enters keeps the value 0 for its metrics.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` under `name`, which must be in one of the tables
    /// (a typo is a bug in the runner, so it panics).
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "metric {name} is not in the tables"
        );
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        // An empty f64 sum is -0.0, which would print as "-0".
        self.0.insert(name, value + 0.0);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)));
        for (name, unit) in names {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for &(_, metric, bound) in TIGHTER {
            let m = END_TO_END.iter().find(|m| m.name == metric);
            let loosest = m
                .unwrap_or_else(|| panic!("{metric} is not end to end"))
                .bound;
            assert!(bound > 0.0 && bound < loosest, "{metric}: {bound}");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }
}
