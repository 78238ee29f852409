//! Tsunami early-warning scenario: a live detection stream triggering
//! through the daemon, confirmed by spatiotemporal clustering.
//!
//! The paper's introduction motivates VariantDBSCAN with tsunami- and
//! earthquake-induced ionospheric signatures (Occhipinti et al., their
//! reference [4]): an undersea earthquake launches concentric
//! gravity-wave rings through the ionosphere, expanding at roughly the
//! tsunami propagation speed (~200 m/s ≈ 0.1°/min at TEC heights).
//!
//! This example runs the realistic two-stage pipeline:
//!
//! 1. **Streaming trigger** — thresholded TEC detections arrive
//!    minute-by-minute as `APPEND` batches to the in-process daemon; a
//!    `WATCH` subscription turns each batch into a cluster delta, and
//!    the cheap trigger fires once a coherent structure (sustained core
//!    promotions into few clusters) emerges from the scatter.
//! 2. **Confirmation** — only then does the expensive analysis run:
//!    ST-DBSCAN over the archived spatiotemporal samples, tracking the
//!    ring's expansion speed against tsunami physics.
//!
//! ```text
//! cargo run --release --example tsunami_warning
//! ```

use std::time::Duration;

use vbp::prelude::{Engine, EngineConfig};
use vbp::vbp_data::Pcg32;
use vbp::vbp_dbscan::{st_dbscan, StDbscanParams, StIndex, StPoint};
use vbp::vbp_geom::Point2;
use vbp::vbp_service::{Client, Registry, Server, ServiceConfig};

/// Ring expansion speed in degrees per minute (ground truth).
const TRUE_SPEED: f64 = 0.12;
/// Epicenter (longitude, latitude).
const EPICENTER: Point2 = Point2::new(-96.0, 36.0);
const DATASET: &str = "tec_detections";

fn main() {
    let minutes = 40;
    let samples = simulate_detections(minutes, 400);
    println!(
        "{} TEC detections over {minutes} minutes around epicenter {}",
        samples.len(),
        EPICENTER
    );

    // ── Stage 1: streaming trigger through the daemon ──
    // Minute 0 seeds the live dataset; each following minute arrives as
    // one APPEND batch and returns one DELTA on the WATCH stream.
    let by_minute: Vec<Vec<Point2>> = (0..minutes)
        .map(|m| {
            samples
                .iter()
                .filter(|s| s.t >= m as f64 && s.t < (m + 1) as f64)
                .map(|s| s.pos)
                .collect()
        })
        .collect();
    let engine = Engine::new(EngineConfig::default().with_threads(4));
    let registry = Registry::new();
    registry
        .register(&engine, DATASET, &by_minute[0])
        .expect("register first minute");
    let mut handle = Server::start(
        engine,
        registry,
        ServiceConfig {
            batch_window: Duration::ZERO,
            // A full minute of detections rides in one APPEND line.
            max_line_bytes: 1 << 20,
            ..ServiceConfig::default()
        },
    )
    .expect("bind loopback");
    let mut client = Client::connect(handle.local_addr()).expect("connect");
    client.set_timeout(Some(Duration::from_secs(120))).unwrap();
    client.watch(DATASET, 0.5, 6).expect("watch");

    // Trigger rule: a hazard ring keeps promoting cores into the *same*
    // few structures; uncorrelated scatter does not. Fire once the
    // trailing three minutes each promoted a sustained core count.
    let mut sustained = 0usize;
    let mut trigger_minute = None;
    for (minute, batch) in by_minute.iter().enumerate().skip(1) {
        client.append(DATASET, batch).expect("append");
        let delta = loop {
            match client.poll_delta(Duration::from_secs(60)).expect("delta") {
                Some(d) => break d,
                None => continue,
            }
        };
        sustained = if delta.promoted >= 20 {
            sustained + 1
        } else {
            0
        };
        if sustained >= 3 && trigger_minute.is_none() {
            trigger_minute = Some(minute);
            println!(
                "  t={minute:>2} min: trigger — {} cores promoted this minute into {} \
                 structure(s); dispatching confirmation analysis",
                delta.promoted, delta.clusters
            );
        }
    }
    client.shutdown().ok();
    handle.wait();
    let Some(trigger_minute) = trigger_minute else {
        println!("\nstream ended without a streaming trigger — no warning issued");
        return;
    };

    // ── Stage 2: spatiotemporal confirmation ──
    // Spatiotemporal clustering separates the moving disturbance (a
    // single connected spatiotemporal cluster — the ring sweeps less than
    // the spatial ε between temporally adjacent windows) from the
    // unrelated background scatter, which stays noise at this density.
    let index = StIndex::build(&samples);
    let result = st_dbscan(&index, StDbscanParams::new(0.5, 3.0, 6));
    println!(
        "\nconfirmation (triggered at minute {trigger_minute}): ST-DBSCAN finds {} \
         spatiotemporal clusters, {} noise of {} samples",
        result.num_clusters(),
        result.noise_count(),
        samples.len()
    );

    // The disturbance = the largest cluster. Slice it into 5-minute bins
    // and measure the mean epicentral distance per bin: a hazard ring
    // shows distance growing linearly with time.
    let (ring_id, ring) = result
        .iter_clusters()
        .max_by_key(|(_, m)| m.len())
        .expect("no clusters found");
    println!(
        "largest cluster ({ring_id}) holds {} detections — tracking it\n",
        ring.len()
    );
    let mut bins: Vec<(f64, f64, usize)> = Vec::new(); // (Σt, Σr, count) per bin
    const BIN_MINUTES: f64 = 5.0;
    for &p in ring {
        let s = index.samples()[p as usize];
        let b = (s.t / BIN_MINUTES) as usize;
        if bins.len() <= b {
            bins.resize(b + 1, (0.0, 0.0, 0));
        }
        bins[b].0 += s.t;
        bins[b].1 += s.pos.dist(&EPICENTER);
        bins[b].2 += 1;
    }
    let mut track: Vec<(f64, f64)> = Vec::new(); // (mean minute, mean radius °)
    for (b, &(st, sr, n)) in bins.iter().enumerate() {
        if n < 30 {
            continue;
        }
        let (mean_t, mean_r) = (st / n as f64, sr / n as f64);
        track.push((mean_t, mean_r));
        println!(
            "  window {b:>2} ({:>4} detections): t ≈ {mean_t:>5.1} min, radius ≈ {mean_r:.2}°",
            n
        );
    }
    if track.len() < 2 {
        println!("\nnot enough ring windows tracked — no warning issued");
        return;
    }
    let speed = linear_slope(&track);
    println!(
        "\nestimated expansion speed: {speed:.3}°/min (ground truth {TRUE_SPEED:.3}°/min, \
         error {:.0}%)",
        ((speed - TRUE_SPEED) / TRUE_SPEED * 100.0).abs()
    );
    let plausible = (0.05..0.25).contains(&speed);
    println!(
        "tsunami-speed plausibility check: {}",
        if plausible {
            "PASS — issue early warning"
        } else {
            "fail — signature inconsistent with tsunami physics"
        }
    );
}

/// Simulates `minutes` of detections: each minute contributes points on
/// the expanding ring (with angular gaps — receivers are not uniform)
/// plus uniform background scatter.
fn simulate_detections(minutes: usize, per_minute: usize) -> Vec<StPoint> {
    let mut rng = Pcg32::seeded(0x7507_2026);
    let mut samples = Vec::new();
    for minute in 0..minutes {
        let t = minute as f64;
        let radius = 0.8 + TRUE_SPEED * t;
        let ring_points = per_minute * 3 / 4;
        for _ in 0..ring_points {
            // Receivers cover ~2/3 of azimuths.
            let theta = rng.uniform(0.3, 2.0 * std::f64::consts::PI * 0.7);
            let r = radius + rng.normal_with(0.0, 0.08);
            samples.push(StPoint::new(
                EPICENTER.x + r * theta.cos(),
                EPICENTER.y + r * theta.sin(),
                t + rng.uniform(0.0, 1.0),
            ));
        }
        for _ in ring_points..per_minute {
            samples.push(StPoint::new(
                EPICENTER.x + rng.uniform(-8.0, 8.0),
                EPICENTER.y + rng.uniform(-8.0, 8.0),
                t + rng.uniform(0.0, 1.0),
            ));
        }
    }
    samples
}

/// Least-squares slope of y over x.
fn linear_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let cov = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum::<f64>();
    let var = points.iter().map(|p| (p.0 - mx).powi(2)).sum::<f64>();
    cov / var.max(f64::MIN_POSITIVE)
}
