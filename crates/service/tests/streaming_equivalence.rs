//! Streaming-equivalence suite: the tentpole guarantee of the APPEND /
//! WATCH protocol is that *streaming never changes answers*.
//!
//! For seeded interleavings of `APPEND`, `SUBMIT`, and `WATCH` traffic
//! against a live daemon:
//!
//! 1. **Batch equivalence** — every post-append `SUBMIT` returns labels
//!    label-isomorphic to a from-scratch engine run over the accumulated
//!    point set (original + every appended batch so far);
//! 2. **Delta replay** — a `WATCH` stream's `DELTA` lines replay to the
//!    final clustering: `census_0 + Σnew − Σabsorbed == clusters_final`,
//!    link by link, and the final census equals a from-scratch run;
//! 3. **Cache audit** — every cache entry surviving the appends is sized
//!    for the *current* dataset generation and structurally consistent
//!    (repaired entries are real clusterings, not length-padded husks);
//! 4. **Atomicity** — a torn `APPEND` (connection cut mid-line) leaves
//!    the dataset at its pre-append snapshot;
//! 5. **Late subscription** — a `WATCH` opened on a generation that has
//!    already been re-sorted and carries an unsorted tail answers the
//!    from-scratch census, and its deltas chain from there.
//!
//! Schedules replay exactly from their seed: a failure prints
//! `VBP_STREAM_SEED=0x...`. `VBP_STREAM_FULL=1` widens the sweep.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use common::{assert_stats_consistent, field_u64, metric_u64, Watchdog};
use variantdbscan::{Engine, RunRequest, Variant, VariantSet, APPEND_RESORT_FRACTION};
use vbp_data::Pcg32;
use vbp_dbscan::{core_flags, core_isomorphic, suggest_eps, ClusterResult, DbscanParams, Labels};
use vbp_geom::Point2;
use vbp_rtree::{shared_points, BruteForce, PackedRTree};
use vbp_service::{Client, Delta, ServerHandle, ServiceConfig};

const DATASET: &str = "cF_10k_5N@300";

fn streaming_server() -> ServerHandle {
    common::start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: 16,
            cache_bytes: 8 << 20,
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
}

/// The fixed variant pool every schedule submits from; ε around the
/// dataset's k-dist knee so clusterings are non-trivial.
fn variant_pool(points: &[Point2]) -> Vec<(f64, usize)> {
    let (tree, _) = PackedRTree::build(points, 16);
    let base = suggest_eps(&tree, 4, 1).expect("dataset has a knee");
    let mut pool = Vec::new();
    for scale in [0.9, 1.2] {
        for minpts in [4usize, 8] {
            pool.push((base * scale, minpts));
        }
    }
    pool
}

/// From-scratch oracle: batch-clusters `points` at `(eps, minpts)` with
/// a fresh engine, labels in caller order.
fn scratch_run(points: &[Point2], eps: f64, minpts: usize) -> ClusterResult {
    let engine = Engine::new(common::engine_config(2));
    let variants = VariantSet::new(vec![Variant::new(eps, minpts)]);
    let report = engine
        .execute(&RunRequest::new(points, &variants))
        .expect("scratch run");
    ClusterResult::from_labels(Labels::from_raw(report.result_in_caller_order(0)))
}

/// Generates one append batch. `remote` batches land far outside the
/// data's bounding box (no old point within any pool ε → the cache
/// repair path); near batches land inside it (→ the drop path).
fn gen_batch(rng: &mut Pcg32, base: &[Point2], remote: bool, len: usize) -> Vec<Point2> {
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for p in base {
        lo_x = lo_x.min(p.x);
        hi_x = hi_x.max(p.x);
        lo_y = lo_y.min(p.y);
        hi_y = hi_y.max(p.y);
    }
    let (w, h) = (hi_x - lo_x, hi_y - lo_y);
    let offset = if remote { 50.0 * (w + h + 1.0) } else { 0.0 };
    (0..len)
        .map(|_| {
            let fx = rng.below(10_000) as f64 / 10_000.0;
            let fy = rng.below(10_000) as f64 / 10_000.0;
            Point2::new(lo_x + offset + fx * w, lo_y + offset + fy * h)
        })
        .collect()
}

/// The watcher's next `DELTA`; panics once `deadline` has passed.
fn next_delta(watcher: &mut Client, deadline: Instant, ctx: &str) -> Delta {
    loop {
        match watcher.poll_delta(Duration::from_millis(200)).unwrap() {
            Some(delta) => return delta,
            None => assert!(Instant::now() < deadline, "{ctx} never arrived"),
        }
    }
}

/// One seeded APPEND/SUBMIT/WATCH interleaving. Returns the totals of
/// `(repaired, dropped)` cache maintenance the schedule observed, so the
/// caller can assert both repair paths actually ran across the sweep.
fn run_schedule(seed: u64, actions: usize) -> (u64, u64) {
    let ctx_seed = format!("stream schedule 0x{seed:x}");
    let mut rng = Pcg32::seeded(seed);
    let initial = vbp_data::DatasetSpec::by_name(DATASET).unwrap().generate();
    let pool = variant_pool(&initial);
    let mut accumulated = initial.clone();

    let mut handle = streaming_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // A dedicated watcher connection on one pool variant.
    let (watch_eps, watch_minpts) = pool[rng.below(pool.len() as u32) as usize];
    let mut watcher = Client::connect(handle.local_addr()).unwrap();
    let census = watcher.watch(DATASET, watch_eps, watch_minpts).unwrap();
    {
        let direct = scratch_run(&initial, watch_eps, watch_minpts);
        assert_eq!(
            (census.clusters, census.noise),
            (direct.num_clusters(), direct.noise_count()),
            "{ctx_seed}: WATCH census at subscription"
        );
    }

    let (mut repaired_total, mut dropped_total) = (0u64, 0u64);
    let mut appends = 0usize;
    for a in 0..actions {
        let ctx = format!("{ctx_seed} action {a}");
        match rng.below(5) {
            // Append: mixes near batches (ε-region touched → cache
            // drops) and remote ones (provably untouched → repairs).
            0 | 1 => {
                let remote = rng.below(2) == 0;
                let len = 1 + rng.below(12) as usize;
                let batch = gen_batch(&mut rng, &initial, remote, len);
                let reply = client
                    .append(DATASET, &batch)
                    .unwrap_or_else(|e| panic!("{ctx}: append failed: {e}"));
                accumulated.extend_from_slice(&batch);
                appends += 1;
                assert_eq!(reply.appended, batch.len(), "{ctx}");
                assert_eq!(reply.total, accumulated.len(), "{ctx}: dataset length");
                repaired_total += reply.repaired as u64;
                dropped_total += reply.dropped as u64;
            }
            // Submit: the served labels must match a from-scratch batch
            // run over everything accumulated so far — streaming is
            // answer-invisible. This also audits repaired cache entries
            // the hard way: a corrupt repair feeds the engine a wrong
            // warm source and the isomorphism check catches it.
            _ => {
                let (eps, minpts) = pool[rng.below(pool.len() as u32) as usize];
                let reply = client
                    .submit(DATASET, eps, minpts, true)
                    .unwrap_or_else(|e| panic!("{ctx}: submit failed: {e}"));
                let direct = scratch_run(&accumulated, eps, minpts);
                let brute = BruteForce::new(shared_points(accumulated.iter().copied()));
                let core = core_flags(&brute, DbscanParams::new(eps, minpts));
                core_isomorphic(direct.labels().as_raw(), &reply.labels.unwrap(), &core)
                    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            }
        }
    }

    // Delta replay: one DELTA per append, in order, census chaining from
    // the subscription reply to a from-scratch final clustering.
    let mut chain = census.clusters;
    let mut last = (census.clusters, census.noise);
    let deadline = Instant::now() + Duration::from_secs(30);
    for d in 0..appends {
        let delta = next_delta(
            &mut watcher,
            deadline,
            &format!("{ctx_seed}: delta {d}/{appends}"),
        );
        assert_eq!(delta.dataset, DATASET, "{ctx_seed}");
        assert_eq!(
            chain + delta.new - delta.absorbed,
            delta.clusters,
            "{ctx_seed}: delta {d} census does not chain"
        );
        chain = delta.clusters;
        last = (delta.clusters, delta.noise);
    }
    assert!(
        watcher
            .poll_delta(Duration::from_millis(100))
            .unwrap()
            .is_none(),
        "{ctx_seed}: spurious extra delta"
    );
    let direct = scratch_run(&accumulated, watch_eps, watch_minpts);
    assert_eq!(
        last,
        (direct.num_clusters(), direct.noise_count()),
        "{ctx_seed}: replayed census diverged from the batch clustering"
    );

    // Cache audit: every surviving entry is sized for the current
    // generation and structurally consistent.
    for (ds, variant, result) in handle.cache_entries() {
        assert_eq!(ds, DATASET, "{ctx_seed}");
        assert_eq!(
            result.len(),
            accumulated.len(),
            "{ctx_seed}: stale-generation entry survived at {variant:?}"
        );
        result
            .check_consistency()
            .unwrap_or_else(|e| panic!("{ctx_seed}: corrupt cache entry at {variant:?}: {e}"));
    }
    handle
        .cache_invariants()
        .unwrap_or_else(|e| panic!("{ctx_seed}: cache invariant broken: {e}"));

    // Counter invariants (admission and append) and a bounded drain.
    let stats = client.stats_json().unwrap();
    assert_stats_consistent(&stats, &ctx_seed);
    assert_eq!(field_u64(&stats, "failed"), 0, "{ctx_seed}: failed jobs");
    assert_eq!(
        field_u64(&stats, "appends_applied"),
        appends as u64,
        "{ctx_seed}"
    );
    assert_eq!(
        field_u64(&stats, "watch_deltas"),
        appends as u64,
        "{ctx_seed}: one delta per append for one subscriber"
    );
    client.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "{ctx_seed}: drain did not bound"
    );
    (repaired_total, dropped_total)
}

fn schedule_seeds() -> (Vec<u64>, usize) {
    if let Ok(replay) = std::env::var("VBP_STREAM_SEED") {
        let hex = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("VBP_STREAM_SEED={replay} is not hex"));
        return (vec![seed], 14);
    }
    let full = matches!(std::env::var("VBP_STREAM_FULL"), Ok(v) if v != "0" && !v.is_empty());
    let (count, actions) = if full { (12, 22) } else { (4, 14) };
    (
        (0..count)
            .map(|i: u64| 0x57EA_11E5 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect(),
        actions,
    )
}

#[test]
fn seeded_streaming_interleavings_match_batch_runs() {
    let _wd = Watchdog::arm("streaming-equivalence", Duration::from_secs(570));
    let (seeds, actions) = schedule_seeds();
    let (mut repaired, mut dropped) = (0u64, 0u64);
    for seed in &seeds {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_schedule(*seed, actions)
        })) {
            Ok((r, d)) => {
                repaired += r;
                dropped += d;
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic".into());
                panic!(
                    "streaming schedule failed: {msg}\n\
                     replay with: VBP_STREAM_SEED=0x{seed:x} \
                     cargo test -p vbp-service --test streaming_equivalence"
                );
            }
        }
    }
    // Both maintenance paths must have fired across the sweep, or the
    // suite silently stopped exercising the incremental repair.
    assert!(
        repaired > 0,
        "no schedule ever took the cache repair path (remote batches broken?)"
    );
    assert!(
        dropped > 0,
        "no schedule ever took the cache drop path (near batches broken?)"
    );
}

/// Late subscription: the `WATCH` arrives after the dataset has been
/// re-sorted (so caller ids and tree positions no longer line up) and
/// has grown an unsorted tail on top — the generation shape a stream's
/// first feed has to walk through the permutation.
#[test]
fn late_watch_on_a_resorted_generation_answers_the_batch_census() {
    let _wd = Watchdog::arm("streaming-late-watch", Duration::from_secs(240));
    let mut rng = Pcg32::seeded(0x1A7E_5AB5);
    let initial = vbp_data::DatasetSpec::by_name(DATASET).unwrap().generate();
    let (eps, minpts) = variant_pool(&initial)[0];
    let census_of = |points: &[Point2]| {
        let direct = scratch_run(points, eps, minpts);
        (direct.num_clusters(), direct.noise_count())
    };

    let mut handle = streaming_server();
    let mut feed = Client::connect(handle.local_addr()).unwrap();
    feed.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut accumulated = initial.clone();

    // Three near batches of 40 push the unsorted tail past the engine's
    // re-sort rule (mirrored here from its documented constant); three
    // of 5 then give the subscribed generation a tail again.
    let (mut tail, mut resorts) = (0usize, 0usize);
    for len in [40, 40, 40, 5, 5, 5] {
        let batch = gen_batch(&mut rng, &initial, false, len);
        let reply = feed.append(DATASET, &batch).unwrap();
        accumulated.extend_from_slice(&batch);
        assert_eq!(reply.total, accumulated.len());
        tail += len;
        if tail as f64 > accumulated.len() as f64 * APPEND_RESORT_FRACTION {
            resorts += 1;
            tail = 0;
        }
    }
    assert_eq!((resorts, tail), (1, 15), "schedule shape");

    let mut watcher = Client::connect(handle.local_addr()).unwrap();
    let census = watcher.watch(DATASET, eps, minpts).unwrap();
    assert_eq!(
        (census.clusters, census.noise),
        census_of(&accumulated),
        "late WATCH census at subscription"
    );

    // One near and one remote append: exactly one delta each, chaining
    // from the subscription census to the from-scratch one.
    let mut chain = census.clusters;
    for remote in [false, true] {
        let batch = gen_batch(&mut rng, &initial, remote, 6);
        feed.append(DATASET, &batch).unwrap();
        accumulated.extend_from_slice(&batch);
        let deadline = Instant::now() + Duration::from_secs(30);
        let delta = next_delta(&mut watcher, deadline, &format!("delta (remote: {remote})"));
        assert_eq!(delta.appended, batch.len());
        assert_eq!(
            chain + delta.new - delta.absorbed,
            delta.clusters,
            "delta (remote: {remote}) census does not chain"
        );
        chain = delta.clusters;
        assert_eq!((delta.clusters, delta.noise), census_of(&accumulated));
        assert!(
            watcher
                .poll_delta(Duration::from_millis(100))
                .unwrap()
                .is_none(),
            "spurious extra delta (remote: {remote})"
        );
    }

    // A second subscriber joins the same stream: same census, no second
    // clustering.
    let mut second = Client::connect(handle.local_addr()).unwrap();
    let again = second.watch(DATASET, eps, minpts).unwrap();
    assert_eq!((again.clusters, again.noise), census_of(&accumulated));
    let metrics = handle.metrics_text();
    assert_eq!(metric_u64(&metrics, "vbp_watch_streams"), 1);
    assert_eq!(metric_u64(&metrics, "vbp_watch_subscribers"), 2);

    feed.shutdown().unwrap();
    handle.wait();
}

/// Atomicity: an `APPEND` line cut mid-write (connection dies before the
/// newline) must not partially mutate the dataset — the registry stays
/// at the pre-append snapshot and later appends still apply cleanly.
#[test]
fn torn_append_leaves_the_preappend_snapshot() {
    let _wd = Watchdog::arm("streaming-torn-append", Duration::from_secs(120));
    let mut handle = streaming_server();
    let before = handle.dataset_points(DATASET).unwrap();

    // Cut mid-line at several byte offsets, including inside a number.
    let line = format!("APPEND {DATASET} 1.5 2.5 3.5 4.5\n");
    for cut in [9, line.len() / 2, line.len() - 2] {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        s.write_all(&line.as_bytes()[..cut]).unwrap();
        drop(s);
    }
    // Let the handlers observe the EOFs.
    std::thread::sleep(Duration::from_millis(200));
    assert_eq!(
        handle.dataset_points(DATASET).unwrap().len(),
        before.len(),
        "torn APPEND mutated the dataset"
    );
    let stats = handle.stats_json();
    assert_eq!(field_u64(&stats, "appends"), 0, "{stats}");
    assert_stats_consistent(&stats, "torn append");

    // The daemon is healthy: a whole APPEND still applies.
    let mut client = Client::connect(handle.local_addr()).unwrap();
    let reply = client
        .append(DATASET, &[Point2::new(1.5, 2.5), Point2::new(3.5, 4.5)])
        .unwrap();
    assert_eq!(reply.total, before.len() + 2);
    client.shutdown().unwrap();
    handle.wait();
}

/// A non-finite coordinate is rejected with a typed error *before* any
/// mutation — `APPEND` is transactional at the request boundary.
#[test]
fn invalid_append_is_rejected_without_mutation() {
    let _wd = Watchdog::arm("streaming-invalid-append", Duration::from_secs(120));
    let mut handle = streaming_server();
    let n = handle.dataset_points(DATASET).unwrap().len();
    let mut client = Client::connect(handle.local_addr()).unwrap();

    // The wire parser refuses non-finite floats outright.
    for bad in [
        format!("APPEND {DATASET} nan 1.0"),
        format!("APPEND {DATASET} 1.0 inf"),
        format!("APPEND {DATASET} 1.0"), // odd coordinate count
        "APPEND no_such_dataset 1.0 2.0".to_string(),
    ] {
        let mut s = TcpStream::connect(handle.local_addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.write_all(format!("{bad}\n").as_bytes()).unwrap();
        let mut reply = String::new();
        std::io::BufRead::read_line(&mut std::io::BufReader::new(s), &mut reply).unwrap();
        assert!(reply.starts_with("ERR "), "'{bad}' answered {reply:?}");
    }
    assert_eq!(
        handle.dataset_points(DATASET).unwrap().len(),
        n,
        "rejected APPEND mutated the dataset"
    );
    let stats = handle.stats_json();
    assert_stats_consistent(&stats, "invalid append");
    assert_eq!(field_u64(&stats, "appends_applied"), 0, "{stats}");
    client.shutdown().unwrap();
    handle.wait();
}
