//! Helpers shared by the service integration-test binaries (loopback
//! smoke, chaos, stats consistency, protocol properties).
#![allow(dead_code)] // each test binary uses its own subset

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use variantdbscan::{Engine, EngineConfig};
use vbp_service::{Registry, Server, ServerHandle, ServiceConfig};

/// Aborts the whole process if the guarded scope takes longer than its
/// deadline — a deadlocked service test must fail fast and loudly, not
/// hang tier-1 until an outer timeout reaps it. Disarmed on drop.
pub struct Watchdog {
    disarmed: Arc<AtomicBool>,
}

impl Watchdog {
    /// Arms a watchdog; `name` is printed if it fires.
    pub fn arm(name: &'static str, deadline: Duration) -> Watchdog {
        let disarmed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&disarmed);
        std::thread::Builder::new()
            .name(format!("watchdog-{name}"))
            .spawn(move || {
                // Sleep in slices so a disarmed watchdog thread exits
                // promptly instead of lingering for the full deadline.
                let slice = Duration::from_millis(200);
                let mut left = deadline;
                while !left.is_zero() {
                    let nap = slice.min(left);
                    std::thread::sleep(nap);
                    left -= nap;
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                }
                eprintln!("watchdog '{name}' fired after {deadline:?}: aborting process");
                std::process::abort();
            })
            .expect("spawn watchdog");
        Watchdog { disarmed }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.disarmed.store(true, Ordering::Release);
    }
}

/// The engine configuration every service test shares.
pub fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig::default().with_threads(threads).with_r(16)
}

/// Starts a daemon over the named catalog datasets.
pub fn start_server(datasets: &[&str], threads: usize, config: ServiceConfig) -> ServerHandle {
    let engine = Engine::new(engine_config(threads));
    let registry = Registry::new();
    for name in datasets {
        registry.load(&engine, name).unwrap();
    }
    Server::start(engine, registry, config).unwrap()
}

/// Pulls one unsigned counter out of a (flat, trusted) JSON line.
pub fn field_u64(json: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no {key} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Asserts the service counter invariant on one `STATS` JSON line:
/// every admitted job is exactly one of completed, failed, in-flight.
pub fn assert_stats_consistent(json: &str, ctx: &str) {
    let submitted = field_u64(json, "submitted");
    let completed = field_u64(json, "completed");
    let failed = field_u64(json, "failed");
    let in_flight = field_u64(json, "in_flight");
    assert_eq!(
        submitted,
        completed + failed + in_flight,
        "{ctx}: stats invariant broken in {json}"
    );
    // The streaming twin: every well-formed APPEND is exactly one of
    // applied or rejected (synchronous verb — no in-flight component).
    let appends = field_u64(json, "appends");
    let applied = field_u64(json, "appends_applied");
    let rejected = field_u64(json, "appends_rejected");
    assert_eq!(
        appends,
        applied + rejected,
        "{ctx}: append invariant broken in {json}"
    );
}

/// Pulls one `name value` line out of a Prometheus-style `METRICS`
/// exposition; the name must match exactly up to the separating space
/// (labels included, e.g. `vbp_rejected_total{reason="draining"}`).
pub fn metric_u64(text: &str, name: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .unwrap_or_else(|| panic!("no metric {name} in exposition:\n{text}"))
        .parse()
        .unwrap_or_else(|_| panic!("metric {name} is not a u64"))
}

/// Asserts the `METRICS` exposition carries every row of the daemon's
/// counter table with the value a `STATS` JSON line sampled at the same
/// quiescent point gives it, and that the admission invariant
/// (`submitted = completed + failed + in_flight`) holds *inside* the
/// exposition itself.
pub fn assert_metrics_match_stats(metrics: &str, stats: &str, ctx: &str) {
    for c in vbp_service::counters() {
        let (metric_name, json_key) = (c.series, c.key);
        assert_eq!(
            metric_u64(metrics, metric_name),
            field_u64(stats, json_key),
            "{ctx}: METRICS '{metric_name}' disagrees with STATS '{json_key}'"
        );
    }
    assert_eq!(
        metric_u64(metrics, "vbp_jobs_submitted_total"),
        metric_u64(metrics, "vbp_jobs_completed_total")
            + metric_u64(metrics, "vbp_jobs_failed_total")
            + metric_u64(metrics, "vbp_jobs_in_flight"),
        "{ctx}: admission invariant broken inside METRICS"
    );
}
