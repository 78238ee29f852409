//! Chaos suite: seeded fault schedules against a live daemon.
//!
//! Each schedule boots a fresh server, then drives a deterministic,
//! seed-derived mix of hostile traffic at it — garbage lines, oversized
//! lines, torn writes split at arbitrary byte boundaries, requests cut
//! mid-line, connections dropped before the reply — interleaved with
//! healthy `SUBMIT`s, across a cold round and a warm (cache-populated)
//! round. After every schedule three invariants must hold:
//!
//! 1. **Consistent STATS** — the daemon still answers `STATS`, and
//!    `submitted == completed + failed + in_flight` (plus the cache's
//!    structural self-check);
//! 2. **Isomorphic survivors** — every `SUBMIT` that got an `OK` carries
//!    labels label-isomorphic to a direct engine run of that variant;
//! 3. **Bounded drain** — `SHUTDOWN` completes and every server thread
//!    joins under a hard timeout.
//!
//! Schedules replay exactly from their seed: a failure prints
//! `VBP_CHAOS_SEED=0x...`; re-run with that environment variable (and
//! this test's filter) to replay only the failing schedule, in the
//! style of the proptest shim. `VBP_CHAOS_FULL=1` widens the sweep.
//!
//! The engine-boundary fault (a *panicking* clustering job, injected
//! through `variantdbscan::fault`) gets its own test below: the poisoned
//! job must fail with `ERR internal` while the same connection, dataset,
//! and daemon keep serving — and must fail *fast*, not after the old
//! 600 s reply timeout.
//!
//! The *streaming* schedules mix `APPEND` and `WATCH` into the fault
//! soup: healthy appends, torn-write appends (which must apply whole),
//! connections cut mid-`APPEND`-line (which must not mutate at all),
//! appends to unknown datasets, non-finite coordinates, and watchers
//! that vanish with deltas in flight. Afterwards the dataset length must
//! equal exactly the sum of the *acknowledged* appends — a torn or cut
//! line that partially mutated the registry shows up as a length drift —
//! and `appends == appends_applied + appends_rejected` holds alongside
//! the submit invariant. Replay with `VBP_CHAOS_STREAM_SEED=0x...`.
//!
//! The *HTTP* schedules open the daemon's second front door and pour
//! the same fault soup through it — garbage and oversized HTTP heads,
//! requests cut mid-head and mid-body, torn-write submissions —
//! interleaved with healthy clients on *both* protocols against one
//! shared daemon. Every healthy result (either door) must stay
//! label-isomorphic to the direct engine, `submitted == completed +
//! failed + in_flight` must hold under the mixed load, METRICS must
//! equal STATS at rest, and the dataset must not mutate (the HTTP
//! faults include a rejected append). Replay with
//! `VBP_CHAOS_HTTP_SEED=0x...`.
//!
//! The *store* schedules kill and restart the daemon around its
//! warm-state store: a persist-bearing drain, then a doomed incarnation
//! whose work never reaches disk (the SIGKILL emulation — from the
//! store's point of view, a kill and a no-persist exit are the same
//! event), then a restart with `--store` that must restore the persisted
//! generation exactly — label-isomorphic results against a direct engine
//! run over the restored points, warm cache hits included. A corrupted
//! or truncated store file must instead fall back to a cold rebuild,
//! bump `vbp_store_restore_failed`, and still answer correct labels.

mod common;

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use common::{
    assert_metrics_match_stats, assert_stats_consistent, field_u64, metric_u64, Watchdog,
};
use variantdbscan::{Engine, RunRequest, Variant, VariantSet};
use vbp_data::Pcg32;
use vbp_dbscan::{core_flags, core_isomorphic, suggest_eps, DbscanParams};
use vbp_geom::Point2;
use vbp_rtree::{shared_points, BruteForce, PackedRTree};
use vbp_service::http::MAX_LINE_BYTES;
use vbp_service::{
    parse_json, Client, ErrorCode, FaultPlan, FaultTransport, HttpClient, JsonValue, ServerHandle,
    ServiceConfig, TcpTransport, Transport,
};

const DATASET: &str = "cF_10k_5N@300";

/// Precomputed ground truth for the fixed variant pool: direct engine
/// labels (caller order) and brute-force core flags, computed once for
/// the whole binary.
struct Oracle {
    points: Vec<Point2>,
    pool: Vec<(f64, usize)>,
    direct: Vec<Vec<u32>>,
    cores: Vec<Vec<bool>>,
}

fn oracle() -> &'static Oracle {
    static ORACLE: OnceLock<Oracle> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let points = vbp_data::DatasetSpec::by_name(DATASET).unwrap().generate();
        let (tree, _) = PackedRTree::build(&points, 16);
        let base = suggest_eps(&tree, 4, 1).expect("dataset has a knee");
        let mut pool = Vec::new();
        for scale in [0.9, 1.1, 1.4] {
            for minpts in [4usize, 8] {
                pool.push((base * scale, minpts));
            }
        }
        let brute = BruteForce::new(shared_points(points.iter().copied()));
        let mut direct = Vec::new();
        let mut cores = Vec::new();
        for &(eps, minpts) in &pool {
            direct.push(direct_labels(&points, eps, minpts));
            cores.push(core_flags(&brute, DbscanParams::new(eps, minpts)));
        }
        Oracle {
            points,
            pool,
            direct,
            cores,
        }
    })
}

fn chaos_server() -> ServerHandle {
    common::start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: 8,
            cache_bytes: 8 << 20,
            batch_window: Duration::ZERO,
            ..ServiceConfig::default()
        },
    )
}

/// Submits pool variant `i` over a healthy client and checks the reply
/// against the oracle.
fn healthy_submit(client: &mut Client, i: usize, ctx: &str) -> bool {
    let o = oracle();
    let (eps, minpts) = o.pool[i];
    let reply = client
        .submit(DATASET, eps, minpts, true)
        .unwrap_or_else(|e| panic!("{ctx}: healthy submit failed: {e}"));
    core_isomorphic(&o.direct[i], &reply.labels.unwrap(), &o.cores[i])
        .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    reply.warm
}

/// Writes raw bytes on a fresh connection and reads one reply line
/// (None on EOF/timeout — acceptable for connection-killing payloads).
fn raw_exchange(handle: &ServerHandle, payload: &[u8]) -> Option<String> {
    let stream = TcpStream::connect(handle.local_addr()).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(payload).ok()?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).ok()?;
    let line = line.trim_end().to_string();
    (!line.is_empty()).then_some(line)
}

/// Submits pool variant `i` through a torn-write transport (client side
/// split at seeded byte boundaries) and verifies the reply exactly like
/// a healthy submit.
fn torn_submit(handle: &ServerHandle, sub_seed: u64, i: usize, ctx: &str) {
    let o = oracle();
    let (eps, minpts) = o.pool[i];
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = stream.try_clone().unwrap();
    let mut transport =
        FaultTransport::new(TcpTransport::new(stream), FaultPlan::torn_writes(sub_seed));
    transport
        .write_all(format!("SUBMIT {DATASET} {eps} {minpts} LABELS\n").as_bytes())
        .unwrap();
    let mut reader = BufReader::new(reader);
    let mut head = String::new();
    reader.read_line(&mut head).unwrap();
    assert!(
        head.starts_with("OK clusters="),
        "{ctx}: torn submit answered {head:?}"
    );
    let mut labels_line = String::new();
    reader.read_line(&mut labels_line).unwrap();
    let labels: Vec<u32> = labels_line
        .split_ascii_whitespace()
        .skip(2) // "LABELS <n>"
        .map(|t| t.parse().unwrap())
        .collect();
    core_isomorphic(&o.direct[i], &labels, &o.cores[i]).unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// One seeded fault schedule: boot, cold round, warm round, invariants,
/// bounded drain.
fn run_schedule(seed: u64) {
    let ctx_seed = format!("schedule 0x{seed:x}");
    let mut rng = Pcg32::seeded(seed);
    let o = oracle();
    let mut handle = chaos_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    for round in ["cold", "warm"] {
        // The anchor submit: pool[0] every round, so the warm round is
        // guaranteed a distance-0 cache entry to hit.
        let warm = healthy_submit(&mut client, 0, &format!("{ctx_seed} {round} anchor"));
        if round == "warm" {
            assert!(warm, "{ctx_seed}: warm-round anchor missed the cache");
        }

        let actions = 5 + rng.below(4) as usize;
        for a in 0..actions {
            let ctx = format!("{ctx_seed} {round} action {a}");
            match rng.below(7) {
                0 => {
                    let i = rng.below(o.pool.len() as u32) as usize;
                    healthy_submit(&mut client, i, &ctx);
                }
                1 => {
                    // Garbage line: random printable-ish bytes.
                    let n = 1 + rng.below(40) as usize;
                    let mut payload: Vec<u8> = (0..n).map(|_| 33 + (rng.below(94) as u8)).collect();
                    payload.push(b'\n');
                    if let Some(reply) = raw_exchange(&handle, &payload) {
                        assert!(reply.starts_with("ERR "), "{ctx}: garbage got {reply:?}");
                    }
                }
                2 => {
                    // Oversized line: blows the byte cap, must get the
                    // typed protocol error and leave the daemon alive.
                    let n = MAX_LINE_BYTES + 1 + rng.below(2048) as usize;
                    let mut payload = vec![b'x'; n];
                    payload.push(b'\n');
                    let reply = raw_exchange(&handle, &payload)
                        .unwrap_or_else(|| panic!("{ctx}: oversized line got no reply"));
                    assert!(
                        reply.starts_with("ERR protocol"),
                        "{ctx}: oversized line got {reply:?}"
                    );
                }
                3 => {
                    // Truncated request: partial line, then disconnect.
                    // No reply is owed, so write-and-vanish (reading
                    // would only wait out a timeout nobody will break).
                    let (eps, minpts) = o.pool[rng.below(o.pool.len() as u32) as usize];
                    let full = format!("SUBMIT {DATASET} {eps} {minpts}");
                    let cut = 1 + rng.below(full.len() as u32 - 1) as usize;
                    if let Ok(mut s) = TcpStream::connect(handle.local_addr()) {
                        let _ = s.write_all(&full.as_bytes()[..cut]);
                        drop(s);
                    }
                }
                4 => {
                    // Full request, then vanish before the reply: the
                    // job must still be accounted exactly once.
                    let (eps, minpts) = o.pool[rng.below(o.pool.len() as u32) as usize];
                    if let Ok(mut s) = TcpStream::connect(handle.local_addr()) {
                        let _ =
                            s.write_all(format!("SUBMIT {DATASET} {eps} {minpts}\n").as_bytes());
                        drop(s);
                    }
                }
                5 => {
                    let i = rng.below(o.pool.len() as u32) as usize;
                    torn_submit(&handle, rng.next_u64(), i, &ctx);
                }
                _ => {
                    // Embedded NUL / invalid UTF-8 probes on one socket.
                    let payload: &[u8] = if rng.below(2) == 0 {
                        b"SUB\0MIT d 1.0 4\n"
                    } else {
                        b"\xff\xfe garbage \xf0\x28\n"
                    };
                    if let Some(reply) = raw_exchange(&handle, payload) {
                        assert!(reply.starts_with("ERR "), "{ctx}: NUL/UTF-8 got {reply:?}");
                    }
                }
            }
        }

        // Invariant 1 after every round, mid-flight traffic included.
        let stats = client.stats_json().unwrap();
        assert_stats_consistent(&stats, &format!("{ctx_seed} {round}"));
    }

    // Invariant 1 (full): consistent STATS + cache self-check.
    let stats = client.stats_json().unwrap();
    assert_stats_consistent(&stats, &ctx_seed);
    assert_eq!(
        field_u64(&stats, "failed"),
        0,
        "{ctx_seed}: no job may fail"
    );
    handle
        .cache_invariants()
        .unwrap_or_else(|e| panic!("{ctx_seed}: cache invariant broken: {e}"));

    // Invariant 4: the METRICS exposition agrees with STATS at rest.
    // Fire-and-forget submissions (actions 3/4) are admitted by handler
    // threads asynchronously, so "at rest" means: two STATS samples with
    // the METRICS fetch *between* them show the same submitted count and
    // zero in-flight — counters are monotone, so the exposition in the
    // middle must carry exactly those values.
    let mut settled = false;
    for _ in 0..500 {
        let before = client.stats_json().unwrap();
        let metrics = client.metrics().unwrap();
        let after = client.stats_json().unwrap();
        let keys = [
            "submitted",
            "completed",
            "failed",
            "rejected_overloaded",
            "rejected_draining",
            "unknown_dataset",
            "bad_request",
            "protocol_errors",
            "batches",
            "reuse_hits",
            "in_run_reused",
            "from_scratch",
        ];
        let stable = keys
            .iter()
            .all(|k| field_u64(&before, k) == field_u64(&after, k))
            && field_u64(&before, "in_flight") == 0
            && field_u64(&after, "in_flight") == 0;
        if stable {
            assert_metrics_match_stats(&metrics, &before, &ctx_seed);
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(settled, "{ctx_seed}: traffic never quiesced");

    // Invariant 3: bounded full drain with every thread joined.
    client.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "{ctx_seed}: drain did not bound"
    );
}

/// One seeded point; `remote` points land far outside the data's
/// bounding box (cache repair path), near ones inside it (drop path).
fn seeded_point(rng: &mut Pcg32, base: &[Point2], remote: bool) -> Point2 {
    let (mut lo_x, mut hi_x, mut lo_y, mut hi_y) = (f64::MAX, f64::MIN, f64::MAX, f64::MIN);
    for p in base {
        lo_x = lo_x.min(p.x);
        hi_x = hi_x.max(p.x);
        lo_y = lo_y.min(p.y);
        hi_y = hi_y.max(p.y);
    }
    let (w, h) = (hi_x - lo_x, hi_y - lo_y);
    let offset = if remote { 50.0 * (w + h + 1.0) } else { 0.0 };
    let fx = rng.below(10_000) as f64 / 10_000.0;
    let fy = rng.below(10_000) as f64 / 10_000.0;
    Point2::new(lo_x + offset + fx * w, lo_y + offset + fy * h)
}

/// Appends one seeded point through a torn-write transport (client-side
/// writes split at seeded byte boundaries). The line arrives whole, so
/// the append must apply whole — torn *writes* are invisible to the
/// request boundary.
fn torn_append(handle: &ServerHandle, sub_seed: u64, p: Point2, total_before: usize, ctx: &str) {
    let stream = TcpStream::connect(handle.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let reader = stream.try_clone().unwrap();
    let mut transport =
        FaultTransport::new(TcpTransport::new(stream), FaultPlan::torn_writes(sub_seed));
    transport
        .write_all(format!("APPEND {DATASET} {} {}\n", p.x, p.y).as_bytes())
        .unwrap();
    let mut head = String::new();
    BufReader::new(reader).read_line(&mut head).unwrap();
    assert!(
        head.starts_with("OK appended=1 "),
        "{ctx}: torn append answered {head:?}"
    );
    assert!(
        head.contains(&format!("total={}", total_before + 1)),
        "{ctx}: torn append total drifted: {head:?}"
    );
}

/// One seeded *streaming* fault schedule: APPEND/WATCH traffic woven
/// into the hostile mix, with the dataset-length ledger and both counter
/// invariants checked at the end.
fn run_streaming_schedule(seed: u64) {
    let ctx_seed = format!("stream-chaos 0x{seed:x}");
    let mut rng = Pcg32::seeded(seed);
    let o = oracle();
    let mut handle = chaos_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // The ledger: every acknowledged append bumps it; nothing else may.
    let mut expected_total = o.points.len();
    let (mut applied_local, mut rejected_local) = (0u64, 0u64);
    let mut watchers: Vec<Client> = Vec::new();

    let actions = 10 + rng.below(6) as usize;
    for a in 0..actions {
        let ctx = format!("{ctx_seed} action {a}");
        match rng.below(9) {
            // Healthy submit riding along (no labels — the dataset
            // mutates under this schedule, so the oracle is stale; the
            // equivalence suite owns label checking).
            0 => {
                let (eps, minpts) = o.pool[rng.below(o.pool.len() as u32) as usize];
                client
                    .submit(DATASET, eps, minpts, false)
                    .unwrap_or_else(|e| panic!("{ctx}: submit failed: {e}"));
            }
            // Healthy append of a seeded batch.
            1 | 2 => {
                let k = 1 + rng.below(6) as usize;
                let remote = rng.below(2) == 0;
                let batch: Vec<Point2> = (0..k)
                    .map(|_| seeded_point(&mut rng, &o.points, remote))
                    .collect();
                let reply = client
                    .append(DATASET, &batch)
                    .unwrap_or_else(|e| panic!("{ctx}: append failed: {e}"));
                expected_total += k;
                applied_local += 1;
                assert_eq!(reply.appended, k, "{ctx}");
                assert_eq!(reply.total, expected_total, "{ctx}: append total");
            }
            // Torn-write append: must apply whole.
            3 => {
                let remote = rng.below(2) == 0;
                let p = seeded_point(&mut rng, &o.points, remote);
                torn_append(&handle, rng.next_u64(), p, expected_total, &ctx);
                expected_total += 1;
                applied_local += 1;
            }
            // Connection cut mid-APPEND-line: must not mutate at all
            // (the final ledger check catches any partial apply).
            4 => {
                let full = format!("APPEND {DATASET} 1.25 2.5 3.75 4.125");
                let cut = 1 + rng.below(full.len() as u32 - 1) as usize;
                if let Ok(mut s) = TcpStream::connect(handle.local_addr()) {
                    let _ = s.write_all(&full.as_bytes()[..cut]);
                    drop(s);
                }
            }
            // Append to an unknown dataset: typed rejection, counted.
            5 => {
                let err = client
                    .append("no_such_dataset", &[Point2::new(1.0, 2.0)])
                    .expect_err("append to unknown dataset must fail");
                assert_eq!(err.code(), Some(ErrorCode::UnknownDataset), "{ctx}: {err}");
                rejected_local += 1;
            }
            // Non-finite coordinates die at the parser (a protocol
            // error, not an append) and must not mutate.
            6 => {
                let bad = ["nan", "inf", "-inf"][rng.below(3) as usize];
                let reply =
                    raw_exchange(&handle, format!("APPEND {DATASET} {bad} 1.0\n").as_bytes())
                        .unwrap_or_else(|| panic!("{ctx}: non-finite append got no reply"));
                assert!(
                    reply.starts_with("ERR "),
                    "{ctx}: non-finite append got {reply:?}"
                );
            }
            // Subscribe a watcher — or vanish one with deltas pending.
            7 => {
                if !watchers.is_empty() && rng.below(3) == 0 {
                    drop(watchers.swap_remove(rng.below(watchers.len() as u32) as usize));
                } else {
                    let mut w = Client::connect(handle.local_addr()).unwrap();
                    let (eps, minpts) = o.pool[rng.below(o.pool.len() as u32) as usize];
                    w.watch(DATASET, eps, minpts)
                        .unwrap_or_else(|e| panic!("{ctx}: watch failed: {e}"));
                    watchers.push(w);
                }
            }
            // Classic fault soup: garbage or oversized line.
            _ => {
                if rng.below(2) == 0 {
                    let n = 1 + rng.below(40) as usize;
                    let mut payload: Vec<u8> = (0..n).map(|_| 33 + (rng.below(94) as u8)).collect();
                    payload.push(b'\n');
                    if let Some(reply) = raw_exchange(&handle, &payload) {
                        assert!(reply.starts_with("ERR "), "{ctx}: garbage got {reply:?}");
                    }
                } else {
                    let mut payload = vec![b'x'; MAX_LINE_BYTES + 1 + rng.below(2048) as usize];
                    payload.push(b'\n');
                    let reply = raw_exchange(&handle, &payload)
                        .unwrap_or_else(|| panic!("{ctx}: oversized line got no reply"));
                    assert!(
                        reply.starts_with("ERR protocol"),
                        "{ctx}: oversized line got {reply:?}"
                    );
                }
            }
        }
    }

    // The ledger: exactly the acknowledged appends mutated the dataset —
    // a cut or torn line that half-applied shows up right here.
    assert_eq!(
        handle.dataset_points(DATASET).unwrap().len(),
        expected_total,
        "{ctx_seed}: dataset length drifted from the append ledger"
    );

    // Both counter invariants, plus exact append accounting.
    let stats = client.stats_json().unwrap();
    assert_stats_consistent(&stats, &ctx_seed);
    assert_eq!(field_u64(&stats, "failed"), 0, "{ctx_seed}: failed jobs");
    assert_eq!(
        field_u64(&stats, "appends_applied"),
        applied_local,
        "{ctx_seed}: applied count in {stats}"
    );
    assert_eq!(
        field_u64(&stats, "appends_rejected"),
        rejected_local,
        "{ctx_seed}: rejected count in {stats}"
    );
    handle
        .cache_invariants()
        .unwrap_or_else(|e| panic!("{ctx_seed}: cache invariant broken: {e}"));

    // METRICS agrees with STATS once the (cut-line) stragglers settle.
    let mut settled = false;
    for _ in 0..500 {
        let before = client.stats_json().unwrap();
        let metrics = client.metrics().unwrap();
        let after = client.stats_json().unwrap();
        let stable = ["submitted", "protocol_errors", "bad_request", "appends"]
            .iter()
            .all(|k| field_u64(&before, k) == field_u64(&after, k))
            && field_u64(&after, "in_flight") == 0;
        if stable {
            assert_metrics_match_stats(&metrics, &before, &ctx_seed);
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(settled, "{ctx_seed}: traffic never quiesced");

    drop(watchers);
    client.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "{ctx_seed}: drain did not bound"
    );
}

/// A chaos daemon with the HTTP door open on an ephemeral port.
fn http_chaos_server() -> ServerHandle {
    common::start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: 8,
            cache_bytes: 8 << 20,
            batch_window: Duration::ZERO,
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    )
}

/// Submits pool variant `i` over a healthy keep-alive HTTP client and
/// checks the labels against the oracle; returns the warm flag.
fn http_healthy_submit(http: &mut HttpClient, i: usize, ctx: &str) -> bool {
    let o = oracle();
    let (eps, minpts) = o.pool[i];
    let body = format!(r#"{{"dataset":"{DATASET}","eps":{eps},"minpts":{minpts},"labels":true}}"#);
    let resp = http
        .post("/v1/submit", &body)
        .unwrap_or_else(|e| panic!("{ctx}: HTTP submit failed: {e}"));
    assert_eq!(resp.status, 200, "{ctx}: {}", resp.body_str());
    let doc = resp.json().unwrap_or_else(|e| panic!("{ctx}: {e}"));
    let labels: Vec<u32> = doc
        .get("labels")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{ctx}: no labels in {}", resp.body_str()))
        .iter()
        .map(|v| v.as_f64().expect("numeric label") as u32)
        .collect();
    core_isomorphic(&o.direct[i], &labels, &o.cores[i]).unwrap_or_else(|e| panic!("{ctx}: {e}"));
    doc.get("warm")
        .and_then(JsonValue::as_bool)
        .unwrap_or_else(|| panic!("{ctx}: no warm flag"))
}

/// Writes raw bytes to the HTTP port on a fresh connection and reads
/// whatever comes back until close or timeout (None when nothing does —
/// acceptable for connection-killing payloads).
fn http_raw_exchange(handle: &ServerHandle, payload: &[u8]) -> Option<Vec<u8>> {
    let mut stream = TcpStream::connect(handle.http_addr().expect("http door")).ok()?;
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).ok()?;
    let mut out = Vec::new();
    let _ = std::io::Read::read_to_end(&mut stream, &mut out);
    (!out.is_empty()).then_some(out)
}

/// The status line of a raw HTTP response capture.
fn http_status_line(raw: &[u8]) -> String {
    let end = raw.iter().position(|&b| b == b'\n').unwrap_or(raw.len());
    String::from_utf8_lossy(&raw[..end]).trim_end().to_string()
}

/// Submits pool variant `i` over HTTP through a torn-write transport
/// (client-side writes split at seeded byte boundaries). The request
/// arrives whole, so the gateway must answer a complete, oracle-correct
/// `200` — torn writes are invisible to the request boundary.
fn torn_http_submit(handle: &ServerHandle, sub_seed: u64, i: usize, ctx: &str) {
    let o = oracle();
    let (eps, minpts) = o.pool[i];
    let body = format!(r#"{{"dataset":"{DATASET}","eps":{eps},"minpts":{minpts},"labels":true}}"#);
    let request = format!(
        "POST /v1/submit HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    );
    let stream = TcpStream::connect(handle.http_addr().expect("http door")).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = stream.try_clone().unwrap();
    let mut transport =
        FaultTransport::new(TcpTransport::new(stream), FaultPlan::torn_writes(sub_seed));
    transport.write_all(request.as_bytes()).unwrap();
    let mut out = Vec::new();
    std::io::Read::read_to_end(&mut reader, &mut out)
        .unwrap_or_else(|e| panic!("{ctx}: torn HTTP submit read failed: {e}"));
    let head_end = out
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .unwrap_or_else(|| panic!("{ctx}: unframed response {:?}", http_status_line(&out)))
        + 4;
    assert!(
        out.starts_with(b"HTTP/1.1 200"),
        "{ctx}: torn HTTP submit answered {:?}",
        http_status_line(&out)
    );
    let doc = parse_json(&out[head_end..]).unwrap_or_else(|e| panic!("{ctx}: bad body: {e}"));
    let labels: Vec<u32> = doc
        .get("labels")
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("{ctx}: no labels"))
        .iter()
        .map(|v| v.as_f64().expect("numeric label") as u32)
        .collect();
    core_isomorphic(&o.direct[i], &labels, &o.cores[i]).unwrap_or_else(|e| panic!("{ctx}: {e}"));
}

/// One seeded *mixed-protocol* fault schedule: hostile and healthy HTTP
/// traffic interleaved with healthy line-protocol clients on one shared
/// daemon, then the full invariant battery.
fn run_http_schedule(seed: u64) {
    let ctx_seed = format!("http-chaos 0x{seed:x}");
    let mut rng = Pcg32::seeded(seed);
    let o = oracle();
    let mut handle = http_chaos_server();
    let mut line = Client::connect(handle.local_addr()).unwrap();
    line.set_timeout(Some(Duration::from_secs(60))).unwrap();
    let mut http = HttpClient::connect(handle.http_addr().expect("http door")).unwrap();
    http.set_timeout(Some(Duration::from_secs(60))).unwrap();

    // Anchors: pool[0] lands cold through the line door, pool[1] cold
    // through the HTTP door, so the post-loop warm checks below prove
    // the cache is shared in both directions under fault load.
    healthy_submit(&mut line, 0, &format!("{ctx_seed} line anchor"));
    http_healthy_submit(&mut http, 1, &format!("{ctx_seed} http anchor"));

    let actions = 8 + rng.below(5) as usize;
    for a in 0..actions {
        let ctx = format!("{ctx_seed} action {a}");
        match rng.below(8) {
            // Healthy line-protocol submit, oracle-checked.
            0 => {
                let i = rng.below(o.pool.len() as u32) as usize;
                healthy_submit(&mut line, i, &ctx);
            }
            // Healthy keep-alive HTTP submit, oracle-checked.
            1 => {
                let i = rng.below(o.pool.len() as u32) as usize;
                http_healthy_submit(&mut http, i, &ctx);
            }
            // Garbage HTTP head: printable soup framed with CRLFCRLF —
            // must come back as a typed 4xx, never a hang or a 200.
            2 => {
                let n = 1 + rng.below(40) as usize;
                let mut payload: Vec<u8> = (0..n).map(|_| 33 + (rng.below(94) as u8)).collect();
                payload.extend_from_slice(b"\r\n\r\n");
                let raw = http_raw_exchange(&handle, &payload)
                    .unwrap_or_else(|| panic!("{ctx}: garbage HTTP head got no reply"));
                assert!(
                    raw.starts_with(b"HTTP/1.1 4"),
                    "{ctx}: garbage HTTP head got {:?}",
                    http_status_line(&raw)
                );
            }
            // Oversized request line, never terminated: the cap must
            // answer 400 on its own, without waiting for framing.
            3 => {
                let n = vbp_service::http::MAX_REQUEST_LINE_BYTES + 3 + rng.below(2048) as usize;
                let payload = vec![b'z'; n];
                let raw = http_raw_exchange(&handle, &payload)
                    .unwrap_or_else(|| panic!("{ctx}: oversized HTTP line got no reply"));
                assert!(
                    raw.starts_with(b"HTTP/1.1 400"),
                    "{ctx}: oversized HTTP line got {:?}",
                    http_status_line(&raw)
                );
            }
            // Request cut mid-head or mid-body, then disconnect: no
            // reply owed, nothing may be admitted.
            4 => {
                let body = format!(r#"{{"dataset":"{DATASET}","eps":1.0,"minpts":4}}"#);
                let full = format!(
                    "POST /v1/submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
                    body.len(),
                    body
                );
                let cut = 1 + rng.below(full.len() as u32 - 1) as usize;
                if let Some(addr) = handle.http_addr() {
                    if let Ok(mut s) = TcpStream::connect(addr) {
                        let _ = s.write_all(&full.as_bytes()[..cut]);
                        drop(s);
                    }
                }
            }
            // Torn-write HTTP submit: must apply whole, oracle-checked.
            5 => {
                let i = rng.below(o.pool.len() as u32) as usize;
                torn_http_submit(&handle, rng.next_u64(), i, &ctx);
            }
            // A malformed append body (trailing garbage after the JSON):
            // typed 400, and the dataset must not mutate (the post-loop
            // length check catches any partial apply).
            6 => {
                let body = format!(r#"{{"dataset":"{DATASET}","points":[[1,2]]}}###"#);
                let payload = format!(
                    "POST /v1/append HTTP/1.1\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
                    body.len()
                );
                let raw = http_raw_exchange(&handle, payload.as_bytes())
                    .unwrap_or_else(|| panic!("{ctx}: bad append got no reply"));
                assert!(
                    raw.starts_with(b"HTTP/1.1 400"),
                    "{ctx}: bad append got {:?}",
                    http_status_line(&raw)
                );
            }
            // Classic line-protocol garbage riding along, so the mix is
            // genuinely cross-protocol.
            _ => {
                let n = 1 + rng.below(40) as usize;
                let mut payload: Vec<u8> = (0..n).map(|_| 33 + (rng.below(94) as u8)).collect();
                payload.push(b'\n');
                if let Some(reply) = raw_exchange(&handle, &payload) {
                    assert!(reply.starts_with("ERR "), "{ctx}: garbage got {reply:?}");
                }
            }
        }
    }

    // Shared-cache warm checks across the doors: the line anchor must be
    // warm over HTTP, the HTTP anchor warm over the line protocol.
    assert!(
        http_healthy_submit(&mut http, 0, &format!("{ctx_seed} cross-warm http")),
        "{ctx_seed}: line-protocol anchor not warm through the HTTP door"
    );
    assert!(
        healthy_submit(&mut line, 1, &format!("{ctx_seed} cross-warm line")),
        "{ctx_seed}: HTTP anchor not warm through the line door"
    );

    // Nothing in the fault soup may have mutated the dataset.
    assert_eq!(
        handle.dataset_points(DATASET).unwrap().len(),
        o.points.len(),
        "{ctx_seed}: dataset length drifted under HTTP faults"
    );

    // Counter invariants under mixed-protocol load.
    let stats = line.stats_json().unwrap();
    assert_stats_consistent(&stats, &ctx_seed);
    assert_eq!(field_u64(&stats, "failed"), 0, "{ctx_seed}: failed jobs");
    handle
        .cache_invariants()
        .unwrap_or_else(|e| panic!("{ctx_seed}: cache invariant broken: {e}"));

    // METRICS == STATS at rest, sampled through *both* doors: the HTTP
    // scrape renders under the stats lock, so between two stable STATS
    // samples it must agree exactly.
    let mut settled = false;
    for _ in 0..500 {
        let before = line.stats_json().unwrap();
        let scrape = http.get("/metrics").unwrap();
        assert_eq!(scrape.status, 200);
        let after = line.stats_json().unwrap();
        let stable = ["submitted", "protocol_errors", "bad_request", "appends"]
            .iter()
            .all(|k| field_u64(&before, k) == field_u64(&after, k))
            && field_u64(&before, "in_flight") == 0
            && field_u64(&after, "in_flight") == 0;
        if stable {
            assert_metrics_match_stats(scrape.body_str(), &before, &ctx_seed);
            settled = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(settled, "{ctx_seed}: traffic never quiesced");

    // Bounded drain with the HTTP accept loop joined too.
    line.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "{ctx_seed}: drain did not bound"
    );
}

fn http_schedule_seeds() -> Vec<u64> {
    if let Ok(replay) = std::env::var("VBP_CHAOS_HTTP_SEED") {
        let hex = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("VBP_CHAOS_HTTP_SEED={replay} is not hex"));
        return vec![seed];
    }
    let full = matches!(std::env::var("VBP_CHAOS_FULL"), Ok(v) if v != "0" && !v.is_empty());
    let count = if full { 24 } else { 8 };
    (0..count)
        .map(|i: u64| 0x477E_60D0 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

#[test]
fn seeded_http_fault_schedules_preserve_invariants_across_protocols() {
    let _wd = Watchdog::arm("chaos-http-schedules", Duration::from_secs(570));
    for seed in http_schedule_seeds() {
        if let Err(panic) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_http_schedule(seed)))
        {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!(
                "HTTP chaos schedule failed: {msg}\n\
                 replay with: VBP_CHAOS_HTTP_SEED=0x{seed:x} cargo test -p vbp-service --test chaos"
            );
        }
    }
}

fn schedule_seeds() -> Vec<u64> {
    if let Ok(replay) = std::env::var("VBP_CHAOS_SEED") {
        let hex = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("VBP_CHAOS_SEED={replay} is not hex"));
        return vec![seed];
    }
    let full = matches!(std::env::var("VBP_CHAOS_FULL"), Ok(v) if v != "0" && !v.is_empty());
    let count = if full { 96 } else { 24 };
    // Distinct, stable seeds; the constant is the golden-ratio increment
    // so seeds differ in every bit position.
    (0..count)
        .map(|i: u64| 0x5EED_C0DE ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

#[test]
fn seeded_fault_schedules_preserve_all_three_invariants() {
    let _wd = Watchdog::arm("chaos-schedules", Duration::from_secs(570));
    for seed in schedule_seeds() {
        if let Err(panic) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_schedule(seed)))
        {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!(
                "chaos schedule failed: {msg}\n\
                 replay with: VBP_CHAOS_SEED=0x{seed:x} cargo test -p vbp-service --test chaos"
            );
        }
    }
}

fn streaming_schedule_seeds() -> Vec<u64> {
    if let Ok(replay) = std::env::var("VBP_CHAOS_STREAM_SEED") {
        let hex = replay.trim().trim_start_matches("0x");
        let seed = u64::from_str_radix(hex, 16)
            .unwrap_or_else(|_| panic!("VBP_CHAOS_STREAM_SEED={replay} is not hex"));
        return vec![seed];
    }
    let full = matches!(std::env::var("VBP_CHAOS_FULL"), Ok(v) if v != "0" && !v.is_empty());
    let count = if full { 24 } else { 8 };
    (0..count)
        .map(|i: u64| 0xBEE5_7EAD ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect()
}

#[test]
fn seeded_streaming_fault_schedules_preserve_the_append_ledger() {
    let _wd = Watchdog::arm("chaos-streaming-schedules", Duration::from_secs(570));
    for seed in streaming_schedule_seeds() {
        if let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_streaming_schedule(seed)
        })) {
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".into());
            panic!(
                "streaming chaos schedule failed: {msg}\n\
                 replay with: VBP_CHAOS_STREAM_SEED=0x{seed:x} \
                 cargo test -p vbp-service --test chaos"
            );
        }
    }
}

/// The engine-boundary fault: an intentionally panicking variant,
/// injected through `variantdbscan::fault`, must fail *that job* with
/// `ERR internal` — fast — while the dispatcher, cache, and the very
/// same connection keep serving. Also the regression test for the old
/// wedge path, where a panicked job stalled its handler for the full
/// 600 s reply timeout (and killed the dispatcher outright).
#[test]
fn panicking_variant_fails_one_job_and_daemon_keeps_serving() {
    let _wd = Watchdog::arm("chaos-panic-containment", Duration::from_secs(240));
    let o = oracle();
    // Bit-exact poison ε, far outside the oracle pool so concurrent
    // schedules never trip it.
    let poison_eps = 77.625;
    let mut handle = chaos_server();
    let mut client = Client::connect(handle.local_addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    {
        let _armed = variantdbscan::fault::ArmedFault::new(poison_eps);
        let t0 = Instant::now();
        let err = client
            .submit(DATASET, poison_eps, 4, false)
            .expect_err("poisoned job must fail");
        let elapsed = t0.elapsed();
        assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
        assert!(
            err.to_string()
                .contains(variantdbscan::fault::INJECTED_PANIC_PREFIX),
            "unexpected failure detail: {err}"
        );
        // Wedge regression: containment answers promptly; the old path
        // killed the dispatcher and left the handler waiting out its
        // 600 s timeout.
        assert!(
            elapsed < Duration::from_secs(20),
            "poisoned job took {elapsed:?} to fail — wedge is back"
        );

        // Same connection, same dataset, same armed seam: healthy
        // variants sail through.
        healthy_submit(&mut client, 0, "containment: healthy after poison");
        healthy_submit(&mut client, 3, "containment: second healthy after poison");
    }

    // Seam disarmed: the previously poisoned ε now completes, isomorphic
    // to its direct run.
    let reply = client.submit(DATASET, poison_eps, 4, true).unwrap();
    let brute = BruteForce::new(shared_points(o.points.iter().copied()));
    core_isomorphic(
        &direct_labels(&o.points, poison_eps, 4),
        &reply.labels.unwrap(),
        &core_flags(&brute, DbscanParams::new(poison_eps, 4)),
    )
    .unwrap_or_else(|e| panic!("containment: disarmed resubmission: {e}"));

    // Accounting: exactly one failure, invariant intact — and the
    // exposition carries both the same counters and the contained panic.
    let stats = client.stats_json().unwrap();
    assert_eq!(field_u64(&stats, "failed"), 1, "{stats}");
    assert_stats_consistent(&stats, "containment");
    let metrics = client.metrics().unwrap();
    assert_metrics_match_stats(&metrics, &stats, "containment");
    assert!(
        metric_u64(&metrics, "vbp_engine_panics_contained_total") >= 1,
        "contained panic missing from exposition:\n{metrics}"
    );

    client.shutdown().unwrap();
    let t0 = Instant::now();
    handle.wait();
    assert!(
        t0.elapsed() < Duration::from_secs(30),
        "drain did not bound"
    );
}

/// A fresh, empty store directory under the system temp dir, unique per
/// process and test.
fn fresh_store_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("vbp-chaos-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Boots a store-enabled daemon over [`DATASET`]: restore-or-cold from
/// `dir` at boot, persist back to `dir` on drain.
fn store_server(dir: &std::path::Path) -> ServerHandle {
    let engine = Engine::new(common::engine_config(2));
    let names = vec![DATASET.to_string()];
    let (registry, boot) = vbp_service::boot_from_store(&engine, &names, dir).unwrap();
    vbp_service::Server::start_with_store(
        engine,
        registry,
        ServiceConfig {
            queue_cap: 8,
            cache_bytes: 8 << 20,
            batch_window: Duration::ZERO,
            store_dir: Some(dir.to_path_buf()),
            ..ServiceConfig::default()
        },
        boot,
    )
    .unwrap()
}

/// Direct engine labels (caller order) for one variant over an explicit
/// point set: the precomputed [`oracle`]'s, and the oracle for
/// post-append generations it can't cover.
fn direct_labels(points: &[Point2], eps: f64, minpts: usize) -> Vec<u32> {
    let engine = Engine::new(common::engine_config(2));
    let variants = VariantSet::new(vec![Variant::new(eps, minpts)]);
    let report = engine.execute(&RunRequest::new(points, &variants)).unwrap();
    report.result_in_caller_order(0)
}

/// Submits one variant with labels and checks it against a direct engine
/// run over `points`; returns the reply's warm flag.
fn submit_vs_direct(
    client: &mut Client,
    points: &[Point2],
    eps: f64,
    minpts: usize,
    ctx: &str,
) -> bool {
    let reply = client
        .submit(DATASET, eps, minpts, true)
        .unwrap_or_else(|e| panic!("{ctx}: submit failed: {e}"));
    let brute = BruteForce::new(shared_points(points.iter().copied()));
    core_isomorphic(
        &direct_labels(points, eps, minpts),
        &reply.labels.unwrap(),
        &core_flags(&brute, DbscanParams::new(eps, minpts)),
    )
    .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    reply.warm
}

/// Kill-and-restart-warm: incarnation A appends (dirtying the index
/// tail) and caches results, then drains — persisting the flushed,
/// remapped generation. Incarnation B (the kill emulation) mutates the
/// same dataset *without* a store and exits, so its work never reaches
/// disk, exactly like a SIGKILL between persists. Incarnation C boots
/// with the store and must resurrect A's generation precisely: same
/// points, warm cache hits for A's variants, and labels isomorphic to a
/// direct engine run over the restored point set.
#[test]
fn kill_and_restart_with_store_restores_warm_and_correct() {
    let _wd = Watchdog::arm("chaos-store-restart", Duration::from_secs(480));
    let o = oracle();
    let dir = fresh_store_dir("warm");
    let mut rng = Pcg32::seeded(0x0005_704E_A11E);
    let ctx = "store-restart";

    // Incarnation A: dirty the index tail, populate the cache, drain.
    let pts_a: Vec<Point2>;
    {
        let mut handle = store_server(&dir);
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let batch: Vec<Point2> = (0..7)
            .map(|_| seeded_point(&mut rng, &o.points, false))
            .collect();
        client.append(DATASET, &batch).unwrap();
        pts_a = handle.dataset_points(DATASET).unwrap();
        assert_eq!(pts_a.len(), o.points.len() + 7, "{ctx}: A's append");
        for k in [0usize, 1] {
            let (eps, minpts) = o.pool[k];
            submit_vs_direct(
                &mut client,
                &pts_a,
                eps,
                minpts,
                &format!("{ctx} A pool[{k}]"),
            );
        }
        let stats = client.stats_json().unwrap();
        assert_eq!(field_u64(&stats, "store_restored"), 0, "{ctx}: A restored");
        client.shutdown().unwrap();
        handle.wait(); // persists: resorts the dirty tail, remaps the cache
    }

    // Incarnation B: same dataset, no store — appends and caches more,
    // then exits. Nothing it did may be visible after the restart.
    {
        let mut handle = chaos_server();
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let batch: Vec<Point2> = (0..5)
            .map(|_| seeded_point(&mut rng, &o.points, true))
            .collect();
        client.append(DATASET, &batch).unwrap();
        let (eps, minpts) = o.pool[2];
        client.submit(DATASET, eps, minpts, false).unwrap();
        client.shutdown().unwrap();
        handle.wait();
    }

    // Incarnation C: restore. A's generation, exactly.
    {
        let mut handle = store_server(&dir);
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        let pts_c = handle.dataset_points(DATASET).unwrap();
        assert_eq!(
            pts_c, pts_a,
            "{ctx}: restored points differ from A's generation"
        );

        // A's cached variants hit warm; their labels must match a direct
        // engine run over the restored points bit-for-bit in structure.
        for k in [0usize, 1] {
            let (eps, minpts) = o.pool[k];
            let warm = submit_vs_direct(
                &mut client,
                &pts_a,
                eps,
                minpts,
                &format!("{ctx} C pool[{k}]"),
            );
            assert!(warm, "{ctx}: restored cache missed pool[{k}]");
        }
        // An uncached variant still answers correctly on the restored
        // index (it may legally warm-start off a restored dominating
        // entry — correctness is the invariant, not coldness).
        let (eps, minpts) = o.pool[4];
        submit_vs_direct(
            &mut client,
            &pts_a,
            eps,
            minpts,
            &format!("{ctx} C uncached"),
        );

        let stats = client.stats_json().unwrap();
        assert_stats_consistent(&stats, ctx);
        assert_eq!(field_u64(&stats, "store_restored"), 1, "{ctx}: {stats}");
        assert_eq!(
            field_u64(&stats, "store_restore_failed"),
            0,
            "{ctx}: {stats}"
        );
        let metrics = client.metrics().unwrap();
        assert_metrics_match_stats(&metrics, &stats, ctx);
        handle
            .cache_invariants()
            .unwrap_or_else(|e| panic!("{ctx}: cache invariant broken: {e}"));

        client.shutdown().unwrap();
        let t0 = Instant::now();
        handle.wait();
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "{ctx}: drain did not bound"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A damaged store file must never restore: every corruption style falls
/// back to a cold rebuild of the catalog dataset, bumps
/// `vbp_store_restore_failed`, and still answers oracle-correct labels.
#[test]
fn corrupt_store_files_fall_back_to_cold_rebuild() {
    let _wd = Watchdog::arm("chaos-store-corrupt", Duration::from_secs(480));
    let o = oracle();
    let dir = fresh_store_dir("corrupt");
    let path = vbp_service::dataset_path(&dir, DATASET);

    // Seed the store with one clean persist.
    {
        let mut handle = store_server(&dir);
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        healthy_submit(&mut client, 0, "store-corrupt seed");
        client.shutdown().unwrap();
        handle.wait();
    }
    let pristine = std::fs::read(&path).unwrap();
    assert!(!pristine.is_empty());

    for style in ["bit-flip", "truncate", "garbage"] {
        let ctx = format!("store-corrupt {style}");
        let mutated = match style {
            "bit-flip" => {
                let mut b = pristine.clone();
                let mid = b.len() / 2;
                b[mid] ^= 0x10;
                b
            }
            "truncate" => pristine[..pristine.len() / 3].to_vec(),
            _ => b"VBPSTORE but not really".to_vec(),
        };
        std::fs::write(&path, &mutated).unwrap();

        let mut handle = store_server(&dir);
        let mut client = Client::connect(handle.local_addr()).unwrap();
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        // Cold rebuild: the catalog generation, not whatever the damaged
        // file might have smuggled.
        assert_eq!(
            handle.dataset_points(DATASET).unwrap(),
            o.points,
            "{ctx}: fallback is not the catalog dataset"
        );
        let warm = healthy_submit(&mut client, 0, &ctx);
        assert!(!warm, "{ctx}: a damaged store may not seed the cache");
        let stats = client.stats_json().unwrap();
        assert_stats_consistent(&stats, &ctx);
        assert_eq!(field_u64(&stats, "store_restored"), 0, "{ctx}: {stats}");
        assert_eq!(
            field_u64(&stats, "store_restore_failed"),
            1,
            "{ctx}: {stats}"
        );
        let metrics = client.metrics().unwrap();
        assert_metrics_match_stats(&metrics, &stats, &ctx);
        client.shutdown().unwrap();
        handle.wait(); // re-persists a clean file…
        assert!(
            vbp_service::restore_dataset(&path).is_ok(),
            "{ctx}: drain did not heal the store"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A poisoned variant riding in a *multi-variant batch* must not drag
/// its batch peers down: the dispatcher isolates the batch, retries
/// each variant alone, and only the poisoned jobs answer `ERR internal`.
#[test]
fn poisoned_batch_peer_is_isolated() {
    let _wd = Watchdog::arm("chaos-batch-isolation", Duration::from_secs(240));
    let o = oracle();
    let poison_eps = 88.375; // distinct from the other test's poison
    let mut handle = common::start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: 16,
            cache_bytes: 8 << 20,
            // A real batching window, so concurrent submits coalesce
            // into one engine run.
            batch_window: Duration::from_millis(40),
            ..ServiceConfig::default()
        },
    );
    let addr = handle.local_addr();

    let _armed = variantdbscan::fault::ArmedFault::new(poison_eps);
    let healthy: Vec<_> = (0..3)
        .map(|k| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                c.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let (eps, minpts) = oracle().pool[k];
                c.submit(DATASET, eps, minpts, true)
            })
        })
        .collect();
    let poisoned = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.set_timeout(Some(Duration::from_secs(60))).unwrap();
        c.submit(DATASET, poison_eps, 4, false)
    });

    let err = poisoned
        .join()
        .unwrap()
        .expect_err("poisoned job must fail");
    assert_eq!(err.code(), Some(ErrorCode::Internal), "{err}");
    for (k, h) in healthy.into_iter().enumerate() {
        let reply = h.join().unwrap().unwrap_or_else(|e| {
            panic!("healthy batch peer {k} dragged down by poisoned variant: {e}")
        });
        core_isomorphic(&o.direct[k], &reply.labels.unwrap(), &o.cores[k])
            .unwrap_or_else(|e| panic!("batch isolation peer {k}: {e}"));
    }

    let stats = handle.stats_json();
    assert_stats_consistent(&stats, "batch isolation");
    handle.shutdown();
}
