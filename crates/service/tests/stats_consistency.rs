//! Counter-consistency under racing load — no fault layer, pure loopback.
//!
//! The service counters promise one invariant at *every* observable
//! instant, not just at rest: every admitted job is exactly one of
//! completed, failed, or in-flight (`submitted = completed + failed +
//! in_flight`). A dedicated poller hammers `STATS` while several
//! submitter threads race work through the daemon, so the invariant is
//! observed mid-admission, mid-batch, and mid-completion — where a
//! two-step counter update would be caught red-handed.
//!
//! The same poller scrapes `METRICS`, whose phase histograms live under
//! the same lock as the counters: inside every single scrape the
//! `scratch` histogram holds exactly `from_scratch` samples and the
//! `reuse` histogram exactly `reuse_hits + in_run_reused` — identities a
//! second lock could only satisfy at rest.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use common::{assert_stats_consistent, field_u64, metric_u64, start_server, Watchdog};
use vbp_service::{Client, ErrorCode, ServiceConfig};

const DATASET: &str = "cF_10k_5N@400";

#[test]
fn stats_invariant_holds_at_every_observation_point() {
    let _wd = Watchdog::arm("stats-consistency", Duration::from_secs(240));
    let mut handle = start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: 6, // small on purpose: overload rejections must race too
            batch_window: Duration::from_millis(5),
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();
    let done = Arc::new(AtomicBool::new(false));

    // The poller: reads STATS and METRICS as fast as the daemon answers
    // and checks the invariants on every single observation.
    let poller = {
        let done = Arc::clone(&done);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.set_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut observations = 0usize;
            while !done.load(Ordering::Acquire) {
                let stats = client.stats_json().unwrap();
                assert_stats_consistent(&stats, &format!("observation {observations}"));
                let metrics = client.metrics().unwrap();
                let samples = |phase: &str| {
                    metric_u64(
                        &metrics,
                        &format!("vbp_phase_latency_ns_count{{phase=\"{phase}\"}}"),
                    )
                };
                assert_eq!(
                    samples("scratch"),
                    metric_u64(&metrics, "vbp_from_scratch_total"),
                    "observation {observations}: scratch samples vs from_scratch"
                );
                assert_eq!(
                    samples("reuse"),
                    metric_u64(&metrics, "vbp_reuse_hits_total")
                        + metric_u64(&metrics, "vbp_in_run_reused_total"),
                    "observation {observations}: reuse samples vs reuse counters"
                );
                observations += 1;
            }
            observations
        })
    };

    // Racing submitters: a spread of variants, some bound to collide in
    // batches, some bound to bounce off the tiny queue.
    let submitters: Vec<_> = (0..4)
        .map(|w| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let mut accepted = 0u64;
                let mut rejected = 0u64;
                for i in 0..12 {
                    let eps = 0.5 + 0.25 * ((w * 12 + i) % 7) as f64;
                    let minpts = 3 + (i % 3);
                    match client.submit(DATASET, eps, minpts, false) {
                        Ok(_) => accepted += 1,
                        Err(e) if e.code() == Some(ErrorCode::Overloaded) => rejected += 1,
                        Err(e) => panic!("submitter {w}: unexpected failure {e}"),
                    }
                }
                (accepted, rejected)
            })
        })
        .collect();

    let mut total_accepted = 0;
    for s in submitters {
        let (accepted, rejected) = s.join().unwrap();
        total_accepted += accepted;
        assert_eq!(accepted + rejected, 12, "a submission vanished");
    }
    done.store(true, Ordering::Release);
    let observations = poller.join().unwrap();
    assert!(
        observations >= 10,
        "poller only got {observations} observations in — not a race"
    );

    // At rest: everything accepted has landed in `completed`, nothing is
    // in flight, and rejected work never touched the admission counters.
    let stats = handle.stats_json();
    assert_stats_consistent(&stats, "at rest");
    assert_eq!(field_u64(&stats, "submitted"), total_accepted);
    assert_eq!(field_u64(&stats, "completed"), total_accepted);
    assert_eq!(field_u64(&stats, "failed"), 0);
    assert_eq!(field_u64(&stats, "in_flight"), 0);

    handle.shutdown();
    let t0 = Instant::now();
    // `shutdown` joins every thread; bound it like the chaos drains.
    assert!(t0.elapsed() < Duration::from_secs(30));
}
