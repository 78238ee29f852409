//! `serve_stream`: one daemon with a store, fed and queried at once.
//!
//! A live feed holds a `WATCH` on the line door and runs rounds of
//! {`APPEND` eight points and wait for the `DELTA`; `SUBMIT` a variant
//! never asked before; `SUBMIT` round 0's variant again}. The cache, the
//! R-tree and the index handle that `serve_hot` only reads are written
//! here: every append repairs or drops cache entries and rebuilds the
//! packed index, the dataset grows past `APPEND_RESORT_FRACTION`, and
//! a fresh submit runs the engine from the nearest cached result.
//! Afterwards an operator restarts the daemon from its store.
//!
//! Two callers wait in a round, for different layers, so the traffic is
//! measured as two workloads, each gating one wait ([`Gate`]):
//! `serve_stream` the fresh SUBMIT, `stream_append` APPEND → DELTA. One
//! number for the whole round would let either wait double unnoticed.
//!
//! What the daemon holds depends on how many rounds have run, so the
//! round count is fixed by `--seconds` (`ROUNDS_PER_SECOND` each, about
//! what the reference host completes) instead of by a clock: the same
//! seed replays the same feed to the same final state on any commit.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use variantdbscan::{Engine, EngineConfig, Variant, VariantSet, APPEND_RESORT_FRACTION};
use vbp_geom::Point2;
use vbp_service::{boot_from_store, Client, Registry, Server, ServerHandle, ServiceConfig};

use crate::common::{
    end_to_end, ms_between, overhead_share, parse_stats, repeated_setup, stat, Ctx, Report, Tally,
};
use crate::inputs::{self, BATCH_POINTS};
use crate::metrics::Values;
use crate::oracle;
use crate::probes;
use crate::quantile::{median, sorted, tail_or_zero};
use crate::spans::SpanLog;

const DATASET: &str = "cF_10k_5N@8000";

/// Rounds run per second of `--seconds`.
const ROUNDS_PER_SECOND: f64 = 70.0;

/// minpts of the watched variant (ε is the dataset's knee).
const WATCH_MINPTS: usize = 4;

/// Rounds whose fresh reply is checked against a from-scratch run on
/// the points appended so far.
const ORACLE_ROUNDS: usize = 5;

/// Restart cycles of the traced run (the untraced run makes one, for
/// the oracle).
const RESTART_CYCLES: usize = 7;

/// Which wait of a round is the workload's operation.
#[derive(Clone, Copy)]
pub enum Gate {
    /// `serve_stream`: the SUBMIT of a variant never asked before.
    FreshSubmit,
    /// `stream_append`: `APPEND` sent → `DELTA` line received.
    AppendDelta,
}

/// The three waits of one round, in milliseconds.
struct Round {
    traced: bool,
    delta_ms: f64,
    fresh_ms: f64,
    repeat_ms: f64,
}

/// How long a pushed `DELTA` may take before the round counts as failed.
const DELTA_TIMEOUT: Duration = Duration::from_secs(60);

struct Daemon {
    handle: ServerHandle,
    client: Client,
    knee: f64,
}

impl Daemon {
    fn config(store: &Path) -> ServiceConfig {
        ServiceConfig {
            store_dir: Some(store.to_path_buf()),
            ..ServiceConfig::default()
        }
    }

    /// Cold boot: generate, index, serve, subscribe, and ask the watched
    /// variant once.
    fn boot(engine: &Engine, store: &Path) -> Daemon {
        let registry = Registry::new();
        registry.load(engine, DATASET).expect("a catalog dataset");
        let knee = registry
            .get(DATASET)
            .and_then(|e| e.suggested_eps)
            .expect("the dataset has a knee");
        let handle =
            Server::start(engine.clone(), registry, Self::config(store)).expect("bind loopback");
        let mut client = Client::connect(handle.local_addr()).expect("connect to line door");
        client.watch(DATASET, knee, WATCH_MINPTS).expect("WATCH");
        client
            .submit(DATASET, knee, WATCH_MINPTS, false)
            .expect("warming submit");
        Daemon {
            handle,
            client,
            knee,
        }
    }

    /// Graceful drain, which persists the store.
    fn stop(mut self) {
        self.client.quit();
        self.handle.shutdown();
    }

    /// What an operator waits for: drain and persist, restore from the
    /// store, serve, first SUBMIT answered. Returns the new daemon and
    /// whether the dataset was restored warm.
    fn restart(self, engine: &Engine, store: &Path) -> (Daemon, bool) {
        let knee = self.knee;
        self.stop();
        let (registry, boot) =
            boot_from_store(engine, &[DATASET.to_string()], store).expect("boot from store");
        let warm = boot.restored == 1 && boot.restore_failed == 0;
        let handle = Server::start_with_store(engine.clone(), registry, Self::config(store), boot)
            .expect("bind loopback");
        let mut client = Client::connect(handle.local_addr()).expect("connect to line door");
        client
            .submit(DATASET, knee, WATCH_MINPTS, false)
            .expect("first SUBMIT after restart");
        (
            Daemon {
                handle,
                client,
                knee,
            },
            warm,
        )
    }
}

fn clear(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the store directory");
}

pub fn run(ctx: &Ctx, gate: Gate) -> Report {
    let config = EngineConfig::default().with_threads(ctx.threads);
    let engine = Engine::new(config);
    let store: PathBuf = ctx.out_dir.join(format!("store-{}", std::process::id()));
    let (mut daemon, setup_s) = repeated_setup(
        ctx.started,
        ctx.setup_repeats(),
        || {
            clear(&store);
            Daemon::boot(&engine, &store)
        },
        Daemon::stop,
    );
    let mut tally = Tally::default();
    let mut log = SpanLog::new(Instant::now());

    let base: Vec<Point2> = daemon
        .handle
        .dataset_points(DATASET)
        .expect("dataset is registered");
    let rounds = ((ROUNDS_PER_SECOND * ctx.seconds).round() as usize).max(8);
    let feed = inputs::stream_inputs(ctx.seed, rounds, &base, daemon.knee);
    let checked_rounds = inputs::oracle_picks(ctx.seed, rounds, ORACLE_ROUNDS);
    let repeat = feed.fresh[0];

    let mut waits: Vec<Round> = Vec::with_capacity(rounds);
    let (mut engine_ms, mut append_ms) = (Vec::new(), Vec::new());
    let (mut repaired, mut dropped) = (0usize, 0usize);
    let mut censuses: Vec<(usize, usize, usize)> = Vec::new();
    // Which rounds record spans is a seeded coin, not round parity: the
    // feed itself has period two (minpts) and 32 (appends inside the data).
    let mut coin = inputs::rng(ctx.seed, inputs::Stream::Spans, 0);
    let opened = Instant::now();
    for round in 0..rounds {
        let traced = ctx.trace && coin.below(2) == 0;
        let fresh = feed.fresh[round];
        let client = &mut daemon.client;
        let n0 = log.now_ns();
        let t0 = Instant::now();
        let appended = client
            .append(DATASET, &feed.batches[round])
            .and_then(|reply| client.poll_delta(DELTA_TIMEOUT).map(|delta| (reply, delta)));
        let (n1, t1) = (log.now_ns(), Instant::now());
        let first = client.submit(DATASET, fresh.eps, fresh.minpts, false);
        let (n2, t2) = (log.now_ns(), Instant::now());
        let again = client.submit(DATASET, repeat.eps, repeat.minpts, false);
        let (n3, t3) = (log.now_ns(), Instant::now());

        let outcome = match (appended, first, again) {
            (Ok((append, Some(_delta))), Ok(first), Ok(again)) => {
                waits.push(Round {
                    traced,
                    delta_ms: ms_between(t0, t1),
                    fresh_ms: ms_between(t1, t2),
                    repeat_ms: ms_between(t2, t3),
                });
                engine_ms.push(first.ms);
                append_ms.push(append.ms);
                repaired += append.repaired;
                dropped += append.dropped;
                if checked_rounds.contains(&round) {
                    censuses.push((round, first.clusters, first.noise));
                }
                if traced {
                    let op = round as u64;
                    let root = log.push("service.round", n0, n3, None, op);
                    let a = log.push("service.append_delta", n0, n1, Some(root), op);
                    log.push_centred("service.append", a, (append.ms * 1e6) as u64, op);
                    let f = log.push("service.fresh_submit", n1, n2, Some(root), op);
                    log.push_centred("service.engine", f, (first.ms * 1e6) as u64, op);
                    let r = log.push("service.repeat_submit", n2, n3, Some(root), op);
                    log.push_centred("service.engine", r, (again.ms * 1e6) as u64, op);
                }
                if append.appended == BATCH_POINTS {
                    Ok(())
                } else {
                    Err(format!(
                        "round {round}: {} points appended",
                        append.appended
                    ))
                }
            }
            (Ok((_, None)), _, _) => Err(format!("round {round}: no DELTA arrived")),
            (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => Err(format!("round {round}: {e}")),
        };
        tally.check(outcome);
    }
    let wall = opened.elapsed().as_secs_f64();
    let gated = |traced: bool| -> Vec<f64> {
        let of = |r: &Round| match gate {
            Gate::FreshSubmit => r.fresh_ms,
            Gate::AppendDelta => r.delta_ms,
        };
        waits
            .iter()
            .filter(|r| r.traced == traced)
            .map(of)
            .collect()
    };
    let e2e = (!ctx.trace).then(|| end_to_end(setup_s, &gated(false), wall));

    // The daemon's own ledger at the end of the feed.
    let stats = parse_stats(&daemon.handle.stats_json());
    let n = |path: &[&str]| stat(&stats, path);
    tally.check(
        if n(&["submitted"]) == n(&["completed"]) + n(&["failed"]) + n(&["in_flight"])
            && n(&["appends"]) == n(&["appends_applied"]) + n(&["appends_rejected"])
            && n(&["appends_applied"]) == rounds as f64
        {
            Ok(())
        } else {
            Err("the daemon's submit or append ledger does not balance".to_string())
        },
    );

    // Oracle, outside the timed region. Sampled rounds: the census of
    // the fresh reply against a from-scratch run on the points appended
    // up to that round.
    let mut all_points = base.clone();
    let mut prefix = base.clone();
    let mut fed = 0;
    for batch in &feed.batches {
        all_points.extend_from_slice(batch);
    }
    for (round, clusters, noise) in censuses {
        for batch in &feed.batches[fed..=round] {
            prefix.extend_from_slice(batch);
        }
        fed = round + 1;
        let index = engine.prepare(&prefix, None).expect("finite points");
        let want = oracle::reference(&index, feed.fresh[round]);
        tally.check(if (want.clusters, want.noise) == (clusters, noise) {
            Ok(())
        } else {
            Err(format!(
                "round {round}: {clusters} clusters, {noise} noise; the oracle has {} and {}",
                want.clusters, want.noise
            ))
        });
    }
    // The last fresh variant's labels, before and after restarts.
    let last = feed.fresh[rounds - 1];
    let final_index = engine.prepare(&all_points, None).expect("finite points");
    let want = oracle::reference(&final_index, last);
    let labels_match = |client: &mut Client, when: &str| -> Result<(), String> {
        let reply = client
            .submit(DATASET, last.eps, last.minpts, true)
            .map_err(|e| format!("{when}: {e}"))?;
        let labels = reply.labels.ok_or(format!("{when}: no labels"))?;
        oracle::isomorphic(&want, &labels).map_err(|e| format!("{when}: {e}"))
    };
    tally.check(labels_match(&mut daemon.client, "last SUBMIT"));

    let cycles = if ctx.trace { RESTART_CYCLES } else { 1 };
    let mut restart_s = Vec::with_capacity(cycles);
    for cycle in 0..cycles {
        let start_ns = log.now_ns();
        let t0 = Instant::now();
        let (next, warm) = daemon.restart(&engine, &store);
        restart_s.push(t0.elapsed().as_secs_f64());
        let end_ns = log.now_ns();
        log.push(
            "store.restart",
            start_ns,
            end_ns,
            None,
            (rounds + cycle) as u64,
        );
        daemon = next;
        tally.check(if warm {
            Ok(())
        } else {
            Err(format!("restart {cycle} rebuilt the dataset cold"))
        });
    }
    tally.check(labels_match(&mut daemon.client, "SUBMIT after restart"));
    daemon.stop();
    let _ = std::fs::remove_dir_all(&store);

    if let Some(values) = e2e {
        return Report {
            tally,
            values,
            spans: None,
            notes: Vec::new(),
        };
    }

    let mut values = Values::default();
    values.set(
        "trace.overhead_share",
        overhead_share(gated(false), gated(true)),
    );
    let wait = |of: fn(&Round) -> f64| sorted(waits.iter().map(of).collect());
    let (delta_ms, fresh_ms) = (wait(|r| r.delta_ms), wait(|r| r.fresh_ms));
    let engine_p50 = median(&sorted(engine_ms));
    values.set("service.engine_ms_p50", engine_p50);
    values.set("service.line_submit_p50_ms", median(&fresh_ms));
    values.set("service.door_wait_ms", median(&fresh_ms) - engine_p50);
    values.set("service.fresh_submit_p50_ms", median(&fresh_ms));
    values.set("service.submit_p90_ms", tail_or_zero(&fresh_ms, 0.90));
    values.set("service.submit_p99_ms", tail_or_zero(&fresh_ms, 0.99));
    values.set(
        "service.repeat_submit_p50_ms",
        median(&wait(|r| r.repeat_ms)),
    );
    values.set("service.append_delta_p50_ms", median(&delta_ms));
    values.set("service.append_delta_p90_ms", tail_or_zero(&delta_ms, 0.90));
    values.set("service.append_ms_p50", median(&sorted(append_ms)));
    values.set("service.cache_repaired", repaired as f64);
    values.set("service.cache_dropped", dropped as f64);
    let (hits, misses) = (n(&["cache", "hits"]), n(&["cache", "misses"]));
    values.set("service.cache_hit_share", hits / (hits + misses).max(1.0));
    values.set(
        "service.reuse_hit_share",
        n(&["reuse_hits"]) / n(&["completed"]).max(1.0),
    );
    values.set("service.batches", n(&["batches"]));
    values.set("service.max_batch", n(&["max_batch"]));
    values.set("service.cache_evictions", n(&["cache", "evictions"]));
    values.set("service.rejected_overloaded", n(&["rejected_overloaded"]));
    values.set("store.restart_s", median(&sorted(restart_s)));

    // The layers under the daemon, on the feed it was given.
    let base_index = engine.prepare(&base, None).expect("finite points");
    probes::append_replay(&engine, &base_index, &feed.batches, &mut values, &mut log);
    let appended = rounds * BATCH_POINTS;
    let must_resort =
        appended as f64 > (base.len() + appended) as f64 * APPEND_RESORT_FRACTION + 1.0;
    tally.check(
        if must_resort && values.get("rtree.append_resorts") == Some(0.0) {
            Err("the feed crossed the re-sort fraction without a re-sort".to_string())
        } else {
            Ok(())
        },
    );
    probes::rtree(
        &all_points,
        median_eps(&feed),
        ctx.seed,
        &mut values,
        &mut log,
    );
    let asked: Vec<Variant> = feed.fresh.iter().copied().take(8).collect();
    let scratch = probes::core_reuse(
        config,
        &final_index,
        &VariantSet::new(asked),
        &mut values,
        &mut log,
    );
    probes::dbscan_kernels(
        final_index.t_low(),
        &scratch,
        ctx.threads,
        &mut values,
        &mut log,
    );
    probes::store(&final_index, &mut values, &mut log);
    probes::cache(&mut values, &mut log);

    values.set("trace.spans", log.spans.len() as f64);
    Report {
        tally,
        values,
        spans: Some(log),
        notes: Vec::new(),
    }
}

/// The median ε the feed asked for.
fn median_eps(feed: &inputs::StreamInputs) -> f64 {
    median(&sorted(feed.fresh.iter().map(|v| v.eps).collect()))
}
