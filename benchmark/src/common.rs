//! What every workload shares: its arguments, its failure ledger, its
//! report, repeated set-up, and the process's peak memory.

use std::path::PathBuf;
use std::time::Instant;

use vbp_service::{parse_json, JsonValue};

use crate::metrics::Values;
use crate::quantile::{median, quantile, sorted};
use crate::spans::SpanLog;

/// Arguments of one run of one workload.
pub struct Ctx {
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// `T`: engine threads and load-generator threads.
    pub threads: usize,
    /// Where span files and the store directory go.
    pub out_dir: PathBuf,
    /// Process start, so the first set-up includes getting this far.
    pub started: Instant,
}

impl Ctx {
    /// How often the workload sets itself up; `setup_s` is the median.
    /// One set-up in five to ten runs a third slower than the rest on
    /// the reference host, so three samples would let two slow ones set
    /// the median: nine at the benchmark's 18 s window, fewer only where
    /// a smoke test shortens it.
    pub fn setup_repeats(&self) -> usize {
        ((self.seconds / 2.0) as usize).clamp(3, 9)
    }

    /// Seconds the workload itself is measured for: the whole window,
    /// or half of it on the traced run, which spends the rest in probes.
    pub fn workload_window(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// Operations attempted and failed, with the reason for each failure.
/// An operation fails when the product refuses or errors it, or when its
/// output fails the oracle or a sanity condition.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    /// Counts one attempted operation; `Err` counts it failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(20);
    }
}

/// What one run of one workload produced.
pub struct Report {
    pub tally: Tally,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub values: Values,
    /// Spans of the traced run.
    pub spans: Option<SpanLog>,
    /// What the run record should say besides numbers (which ports the
    /// daemons got, which datasets the ring placed on each).
    pub notes: Vec<String>,
}

/// The end-to-end metrics of an untraced run: `op_ms` are the timed
/// operations' wall times, `wall_s` the window they completed in. Call
/// it when the window closes: `peak_rss_mb` is read here, so that it is
/// the product's peak and not the oracle's.
pub fn end_to_end(setup_s: f64, op_ms: &[f64], wall_s: f64) -> Values {
    let mut values = Values::default();
    values.set("setup_s", setup_s);
    values.set("throughput_ops", op_ms.len() as f64 / wall_s);
    let op_ms = sorted(op_ms.to_vec());
    values.set("op_p50_ms", median(&op_ms));
    values.set(
        "op_p10_ms",
        quantile(&op_ms, 0.10).expect("a non-empty sample list"),
    );
    values.set("peak_rss_mb", peak_rss_mb());
    values
}

/// `trace.overhead_share`: how much slower the operations that recorded
/// spans were than the interleaved ones that did not.
pub fn overhead_share(plain_ms: Vec<f64>, traced_ms: Vec<f64>) -> f64 {
    let plain = median(&sorted(plain_ms));
    (median(&sorted(traced_ms)) - plain) / plain
}

/// Sets a workload up `repeats` times, tearing each earlier instance
/// down (untimed) before the next is built, and returns the last
/// instance with the median set-up time in seconds. The first sample
/// runs from process start.
pub fn repeated_setup<S>(
    started: Instant,
    repeats: usize,
    mut build: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, f64) {
    let mut samples = Vec::with_capacity(repeats);
    let mut state = build();
    samples.push(started.elapsed().as_secs_f64());
    for _ in 1..repeats {
        teardown(state);
        let t0 = Instant::now();
        state = build();
        samples.push(t0.elapsed().as_secs_f64());
    }
    (state, median(&sorted(samples)))
}

/// `VmHWM` of this process in MiB (0 where `/proc` has no such line).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_ascii_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parses a daemon's `stats_json` document.
pub fn parse_stats(json: &str) -> JsonValue {
    parse_json(json.as_bytes()).expect("stats_json is JSON")
}

/// The number at `path` in a stats document.
pub fn stat(doc: &JsonValue, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(doc, |d, key| d.get(key))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("stats document has no number at {path:?}"))
}

/// Milliseconds between two instants.
pub fn ms_between(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_repeats_and_tears_down_all_but_the_last() {
        let mut built = 0;
        let mut torn = Vec::new();
        let (last, secs) = repeated_setup(
            Instant::now(),
            5,
            || {
                built += 1;
                built
            },
            |s| torn.push(s),
        );
        assert_eq!(last, 5);
        assert_eq!(torn, vec![1, 2, 3, 4]);
        assert!(secs >= 0.0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.check(Ok(()));
        t.check(Err("bad".into()));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert_eq!(t.problems, vec!["bad".to_string()]);
        assert!(peak_rss_mb() > 0.0);
    }
}
