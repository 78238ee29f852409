//! Router chaos: seeded schedules that kill one backend mid-stream.
//!
//! Each schedule boots two daemons behind a router, drives a seeded mix
//! of healthy proxied traffic, hostile front-door bytes (garbage heads,
//! torn writes), and fan-out reads — then shuts one backend down midway
//! and keeps going. Afterwards four things must hold:
//!
//! 1. **Per-backend degradation** — every request for a dataset owned
//!    by the dead backend answers a typed `503` with the
//!    `unavailable` code and a `Retry-After` hint; nothing hangs and
//!    nothing is silently remapped to the survivor;
//! 2. **Survivor isolation** — every request for the survivor's
//!    datasets keeps succeeding (zero failures, before and after the
//!    kill), and the survivor's own `STATS` stays consistent with
//!    `failed == 0`;
//! 3. **Router ledger** — `received == answered_ok + answered_err +
//!    in_flight` holds on the router's own admission ledger, with
//!    hostile bytes accounted separately as `protocol_errors`;
//! 4. **Honest fan-outs** — merged `/v1/stats` still satisfies the
//!    daemon invariant (summing live backends only), flags the dead
//!    backend `up:false`, and `/healthz` drops below quorum (`503`)
//!    while per-dataset traffic to the survivor still flows — quorum
//!    health and dataset availability are deliberately different
//!    statements.
//!
//! Schedules replay exactly from their seed: a failure prints
//! `VBP_CHAOS_ROUTER_SEED=0x...`; `VBP_CHAOS_FULL=1` widens the sweep.
//!
//! Placement note: both backends register the *same* 16-dataset
//! catalog (ephemeral ports make pre-computing the ring impossible),
//! and the schedule derives who owns what from
//! [`RouterHandle::placement`] after boot — so every schedule's kill
//! partitions the catalog differently.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{assert_stats_consistent, field_u64, Watchdog};
use vbp_data::Pcg32;
use vbp_service::{
    ClientError, DatasetService, ErrorCode, FaultPlan, FaultTransport, HttpClient, JsonValue,
    MemTransport, Router, RouterConfig, RouterHandle, ServerHandle, ServiceConfig, Step,
    TcpTransport, Transport,
};

/// Sixteen small datasets; the ring partitions them fresh every
/// schedule because backend ports are ephemeral.
fn catalog() -> Vec<String> {
    (0..16).map(|i| format!("SW1@{}", 300 + i)).collect()
}

fn chaos_backend(datasets: &[&str]) -> ServerHandle {
    common::start_server(
        datasets,
        2,
        ServiceConfig {
            queue_cap: 8,
            cache_bytes: 8 << 20,
            batch_window: Duration::ZERO,
            job_timeout: Duration::from_secs(30),
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    )
}

/// A seeded, always-valid variant for a ~300-point dataset.
fn seeded_variant(rng: &mut Pcg32) -> (f64, usize) {
    let eps = 0.2 + rng.below(800) as f64 / 1000.0;
    let minpts = 3 + rng.below(6) as usize;
    (eps, minpts)
}

/// One healthy submit through the router; panics on any error.
fn live_submit(http: &mut HttpClient, dataset: &str, rng: &mut Pcg32, ctx: &str) {
    let (eps, minpts) = seeded_variant(rng);
    let reply = http
        .submit(dataset, eps, minpts, false)
        .unwrap_or_else(|e| panic!("{ctx}: live submit to {dataset} failed: {e}"));
    assert!(
        reply.clusters < 400 && reply.noise <= 400,
        "{ctx}: implausible reply for {dataset}"
    );
}

/// A submit for a dead backend's dataset, checked at the raw HTTP
/// layer: typed `503 unavailable` with a `Retry-After` hint.
fn dead_submit(router: &RouterHandle, dataset: &str, rng: &mut Pcg32, ctx: &str) {
    let (eps, minpts) = seeded_variant(rng);
    let mut http = HttpClient::connect(router.http_addr()).unwrap();
    http.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let body = format!(r#"{{"dataset":"{dataset}","eps":{eps},"minpts":{minpts}}}"#);
    let resp = http.post("/v1/submit", &body).unwrap();
    assert_eq!(
        resp.status,
        503,
        "{ctx}: dead backend's dataset answered {}: {}",
        resp.status,
        resp.body_str()
    );
    assert!(
        resp.header("retry-after").is_some(),
        "{ctx}: 503 without a Retry-After hint"
    );
    let doc = resp
        .json()
        .unwrap_or_else(|e| panic!("{ctx}: untyped 503 body: {e}"));
    assert_eq!(
        doc.get("error").and_then(JsonValue::as_str),
        Some("unavailable"),
        "{ctx}: wrong code in {}",
        resp.body_str()
    );

    // The same rejection through the typed client surface.
    let err = http
        .submit(dataset, eps, minpts, false)
        .expect_err("dead backend's dataset must reject");
    assert_eq!(
        err.code(),
        Some(ErrorCode::Unavailable),
        "{ctx}: typed client saw {err}"
    );
}

/// Definitely-malformed front-door bytes (a request line with no
/// spaces): the router must answer a typed `400` and count a protocol
/// error, never hang or crash.
fn garbage_head(router: &RouterHandle, rng: &mut Pcg32, ctx: &str) {
    let n = 4 + rng.below(24) as usize;
    let mut payload: Vec<u8> = (0..n)
        .map(|_| b"abcdefghijklmnop!#$%"[rng.below(20) as usize])
        .collect();
    payload.extend_from_slice(b"\r\n\r\n");
    let mut stream = TcpStream::connect(router.http_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&payload).unwrap();
    let mut out = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut out);
    assert!(
        out.starts_with(b"HTTP/1.1 400"),
        "{ctx}: garbage head got {:?}",
        String::from_utf8_lossy(&out[..out.len().min(40)])
    );
}

/// A scripted in-memory front-door connection through
/// [`RouterHandle::serve_transport`]: same malformed head, same typed
/// answer, no sockets involved.
fn scripted_garbage(router: &RouterHandle, ctx: &str) {
    let (transport, out) =
        MemTransport::new(vec![Step::Recv(b"not-an-http-request\r\n\r\n".to_vec())]);
    router.serve_transport(transport).join().unwrap();
    let captured = out.lock().unwrap().clone();
    assert!(
        captured.starts_with(b"HTTP/1.1 400"),
        "{ctx}: scripted garbage got {:?}",
        String::from_utf8_lossy(&captured[..captured.len().min(40)])
    );
}

/// A healthy submit whose client-side writes are torn at seeded byte
/// boundaries: the request arrives whole, so the router must proxy it
/// whole and answer a complete `200`.
fn torn_submit(router: &RouterHandle, sub_seed: u64, dataset: &str, rng: &mut Pcg32, ctx: &str) {
    let (eps, minpts) = seeded_variant(rng);
    let body = format!(r#"{{"dataset":"{dataset}","eps":{eps},"minpts":{minpts}}}"#);
    let request = format!(
        "POST /v1/submit HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let stream = TcpStream::connect(router.http_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    let mut transport =
        FaultTransport::new(TcpTransport::new(stream), FaultPlan::torn_writes(sub_seed));
    transport.write_all(request.as_bytes()).unwrap();
    let mut out = Vec::new();
    std::io::Read::read_to_end(&mut reader, &mut out)
        .unwrap_or_else(|e| panic!("{ctx}: torn submit read failed: {e}"));
    assert!(
        out.starts_with(b"HTTP/1.1 200"),
        "{ctx}: torn submit got {:?}",
        String::from_utf8_lossy(&out[..out.len().min(60)])
    );
}

/// One seeded schedule: boot, mixed traffic, mid-stream kill, more
/// traffic, then the invariant battery.
fn run_router_schedule(seed: u64) {
    let ctx_seed = format!("router-chaos 0x{seed:x}");
    let mut rng = Pcg32::seeded(seed);
    let names = catalog();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut backends = [chaos_backend(&name_refs), chaos_backend(&name_refs)];
    let addrs: Vec<String> = backends
        .iter()
        .map(|b| b.http_addr().unwrap().to_string())
        .collect();
    let config = RouterConfig {
        backends: addrs.clone(),
        breaker_cooldown: Duration::from_millis(200),
        ..RouterConfig::default()
    };
    config.validate().unwrap();
    let mut router = Router::start(config).unwrap();
    let mut http = HttpClient::connect(router.http_addr()).unwrap();
    http.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // Partition the catalog by ring owner; every schedule gets a
    // different partition because the ports differ.
    let owned_by = |idx: usize, router: &RouterHandle| -> Vec<&str> {
        names
            .iter()
            .filter(|n| router.placement(n) == addrs[idx])
            .map(String::as_str)
            .collect()
    };
    let victim = rng.below(2) as usize;
    let survivor = 1 - victim;
    let victim_ds = owned_by(victim, &router);
    let survivor_ds = owned_by(survivor, &router);
    assert!(
        !victim_ds.is_empty() && !survivor_ds.is_empty(),
        "{ctx_seed}: 16 datasets over 2 backends left one backend empty \
         — vnode spread is broken"
    );
    fn pick<'a>(set: &[&'a str], rng: &mut Pcg32) -> &'a str {
        set[rng.below(set.len() as u32) as usize]
    }

    let actions = 12 + rng.below(5) as usize;
    let kill_at = 3 + rng.below(4) as usize;
    let mut garbage_count = 0u64;
    let mut killed = false;

    for a in 0..actions {
        let ctx = format!("{ctx_seed} action {a}");
        if a == kill_at {
            // The mid-stream kill: one request for the victim's data is
            // in flight on another connection while the backend drains.
            let in_flight = {
                let addr = router.http_addr();
                let ds = pick(&victim_ds, &mut rng).to_string();
                let (eps, minpts) = seeded_variant(&mut rng);
                std::thread::spawn(move || {
                    let mut c = HttpClient::connect(addr).unwrap();
                    c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                    c.submit(&ds, eps, minpts, false)
                })
            };
            std::thread::sleep(Duration::from_millis(rng.below(10) as u64));
            backends[victim].shutdown();
            killed = true;
            // The overlapped request must get a definite, typed answer
            // — served before the drain, or rejected with a
            // retryable-later code. Never a hang, never a panic.
            match in_flight.join().unwrap() {
                Ok(_) => {}
                Err(e) => match e {
                    ClientError::Overloaded { .. } => {}
                    ClientError::Rejected { code, .. } => assert!(
                        matches!(code, ErrorCode::Unavailable | ErrorCode::Draining),
                        "{ctx}: overlapped request got {code:?}"
                    ),
                    other => panic!("{ctx}: overlapped request got {other}"),
                },
            }
            continue;
        }
        match rng.below(6) {
            0 | 1 => {
                let ds = pick(&survivor_ds, &mut rng);
                live_submit(&mut http, ds, &mut rng, &ctx);
            }
            2 => {
                let ds = pick(&victim_ds, &mut rng);
                if killed {
                    dead_submit(&router, ds, &mut rng, &ctx);
                } else {
                    live_submit(&mut http, ds, &mut rng, &ctx);
                }
            }
            3 => {
                garbage_head(&router, &mut rng, &ctx);
                garbage_count += 1;
            }
            4 => {
                let ds = pick(&survivor_ds, &mut rng);
                torn_submit(&router, rng.next_u64(), ds, &mut rng, &ctx);
            }
            _ => {
                // Fan-out read under fire: the merged stats document
                // must satisfy the daemon invariant whether both
                // backends answer or only one does.
                let resp = http.get("/v1/stats").unwrap();
                assert_eq!(resp.status, 200, "{ctx}: stats fan-out");
                assert_stats_consistent(resp.body_str(), &ctx);
            }
        }
    }
    assert!(killed, "{ctx_seed}: schedule never reached the kill");

    // Explicit post-kill battery, independent of the seeded mix.
    dead_submit(
        &router,
        victim_ds[0],
        &mut rng,
        &format!("{ctx_seed} post-kill dead"),
    );
    live_submit(
        &mut http,
        survivor_ds[0],
        &mut rng,
        &format!("{ctx_seed} post-kill survivor"),
    );

    // Quorum health says unavailable (1 of 2 is below quorum) even
    // though the survivor's datasets still serve — the two statements
    // are intentionally different.
    let health = http.get("/healthz").unwrap();
    assert_eq!(health.status, 503, "{ctx_seed}: healthz below quorum");
    let doc = health.json().unwrap();
    assert_eq!(
        doc.get("status").and_then(JsonValue::as_str),
        Some("unavailable")
    );
    assert_eq!(
        doc.get("backends_up").and_then(JsonValue::as_f64),
        Some(1.0)
    );

    // Merged stats flag the dead backend honestly and still balance.
    let merged = http.get("/v1/stats").unwrap();
    assert_eq!(merged.status, 200);
    assert_stats_consistent(merged.body_str(), &format!("{ctx_seed} merged"));
    let doc = merged.json().unwrap();
    let flags: Vec<(String, bool)> = doc
        .get("backends")
        .and_then(JsonValue::as_array)
        .expect("backends array")
        .iter()
        .map(|b| {
            (
                b.get("backend")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
                b.get("up").and_then(JsonValue::as_bool).unwrap(),
            )
        })
        .collect();
    assert_eq!(flags.len(), 2, "{ctx_seed}");
    for (addr, up) in &flags {
        let expected = *addr == addrs[survivor];
        assert_eq!(up, &expected, "{ctx_seed}: wrong up flag for {addr}");
    }

    // The scripted in-memory front door behaves like the socket one.
    scripted_garbage(&router, &format!("{ctx_seed} scripted"));
    garbage_count += 1;

    // Survivor isolation: its daemon never failed a job and its ledger
    // balances.
    let survivor_stats = backends[survivor].stats_json();
    assert_stats_consistent(&survivor_stats, &format!("{ctx_seed} survivor"));
    assert_eq!(
        field_u64(&survivor_stats, "failed"),
        0,
        "{ctx_seed}: survivor failed jobs: {survivor_stats}"
    );

    // The router's own admission ledger: everything received was
    // answered, with the hostile bytes accounted separately. The
    // handler thread books end-of-request *after* writing the response
    // bytes, so a just-answered reply can be observed a beat before the
    // ledger settles — wait out that window, bounded.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let ledger = loop {
        let ledger = router.stats_json();
        if field_u64(&ledger, "in_flight") == 0 {
            break ledger;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{ctx_seed}: router never quiesced: {ledger}"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        field_u64(&ledger, "received"),
        field_u64(&ledger, "answered_ok") + field_u64(&ledger, "answered_err"),
        "{ctx_seed}: router ledger out of balance: {ledger}"
    );
    assert!(
        field_u64(&ledger, "protocol_errors") >= garbage_count,
        "{ctx_seed}: {garbage_count} garbage exchanges, ledger says {ledger}"
    );

    router.shutdown();
    backends[survivor].shutdown();
}

fn router_schedule_seeds() -> Vec<u64> {
    if let Ok(replay) = std::env::var("VBP_CHAOS_ROUTER_SEED") {
        let hex = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("VBP_CHAOS_ROUTER_SEED={replay} is not hex"));
        return vec![seed];
    }
    let full = matches!(std::env::var("VBP_CHAOS_FULL"), Ok(v) if v != "0" && !v.is_empty());
    let count = if full { 24 } else { 8 };
    (0..count)
        .map(|i: u64| 0x2007_ECA0 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

#[test]
fn seeded_backend_kills_degrade_only_the_dead_shard() {
    let _wd = Watchdog::arm("router-chaos-schedules", Duration::from_secs(570));
    for seed in router_schedule_seeds() {
        if let Err(panic) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_router_schedule(seed)))
        {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!(
                "router chaos schedule failed: {msg}\n\
                 replay with: VBP_CHAOS_ROUTER_SEED=0x{seed:x} \
                 cargo test -p vbp-service --test router_chaos"
            );
        }
    }
}
