//! Streaming early-warning scenario: a TEC measurement stream flowing
//! through the daemon's `APPEND`/`WATCH` protocol.
//!
//! The paper motivates VariantDBSCAN with natural-hazard early warning —
//! a setting where measurements *arrive continuously*. This example
//! boots the `vbp-service` daemon in-process, registers the first
//! quarter of a simulated TEC map as the live dataset, subscribes a
//! `WATCH`er, then streams the remaining measurements in as `APPEND`
//! batches. Every batch pushes a `DELTA` line — new fronts born,
//! fronts absorbed into larger structures, points promoted to cores —
//! and the example raises alerts from those deltas alone, without ever
//! re-clustering from scratch.
//!
//! ```text
//! cargo run --release --example streaming_watch [n_points]
//! ```

use std::time::Duration;

use vbp::prelude::{Engine, EngineConfig};
use vbp::vbp_data::SpaceWeatherSpec;
use vbp::vbp_service::{Client, Registry, Server, ServiceConfig};

const DATASET: &str = "tec_live";
const BATCH: usize = 64;

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8_000);

    let spec = SpaceWeatherSpec::scaled(1, n);
    let stream = spec.generate();
    // ε chosen for the scaled map density (see the s2_reuse harness for
    // the principled scaling rule); minpts 4 per the DBSCAN heuristic.
    let eps = 0.2 * (1_864_620.0f64 / n as f64).powf(0.25);
    let warmup = n / 4;

    let engine = Engine::new(EngineConfig::default().with_threads(4));
    let registry = Registry::new();
    registry
        .register(&engine, DATASET, &stream[..warmup])
        .expect("register initial map");
    let mut handle = Server::start(
        engine,
        registry,
        ServiceConfig {
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");

    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    let census = client.watch(DATASET, eps, 4).expect("watch");
    println!(
        "watching {DATASET} (first {warmup} of {} points of {}) at ε = {eps:.2}, minpts = 4",
        stream.len(),
        spec.name(),
    );
    println!(
        "initial census: {} front(s), {} noise\n",
        census.clusters, census.noise
    );

    let mut alerted = 0usize;
    let (mut born, mut absorbed, mut promoted) = (0usize, 0usize, 0usize);
    let mut last_census = (census.clusters, census.noise);
    let mut checkpoints = Vec::new();
    let mut streamed = warmup;
    for batch in stream[warmup..].chunks(BATCH) {
        client.append(DATASET, batch).expect("append");
        let delta = loop {
            match client.poll_delta(Duration::from_secs(60)).expect("delta") {
                Some(d) => break d,
                None => continue,
            }
        };
        streamed += batch.len();
        born += delta.new;
        absorbed += delta.absorbed;
        promoted += delta.promoted;
        last_census = (delta.clusters, delta.noise);
        if delta.absorbed > 0 && alerted < 12 {
            println!(
                "  t={streamed:>6}: {} front(s) absorbed — structures connecting \
                 ({} clusters live)",
                delta.absorbed, delta.clusters
            );
            alerted += 1;
        }
        if streamed % (n / 4).max(1) < BATCH {
            checkpoints.push((streamed, delta.clusters, delta.noise));
        }
    }

    println!("\n{:<10} {:>9} {:>8}", "points", "clusters", "noise");
    for (seen, clusters, noise) in checkpoints {
        println!("{seen:<10} {clusters:>9} {noise:>8}");
    }
    println!(
        "\ndelta totals over the stream: {born} fronts born, {absorbed} absorbed, \
         {promoted} core promotions."
    );

    // The consumer-level equivalence check: a fresh SUBMIT of the same
    // variant sees exactly the census the delta stream converged to.
    let reply = client.submit(DATASET, eps, 4, false).expect("submit");
    assert_eq!(
        (reply.clusters, reply.noise),
        last_census,
        "delta stream diverged from the batch clustering"
    );
    println!(
        "batch SUBMIT of the accumulated dataset agrees: {} clusters, {} noise \
         (served warm = {}) — the delta stream replayed the batch truth.",
        reply.clusters, reply.noise, reply.warm
    );

    client.shutdown().ok();
    handle.wait();
}
