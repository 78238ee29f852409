//! HTTP gateway robustness properties (seed-replayable via the proptest
//! shim's `VBP_PROPTEST_SEED`).
//!
//! Mirrors `protocol_props.rs` for the second front door:
//!
//! 1. the live handler is total over byte soup — arbitrary chunked
//!    garbage through [`ServerHandle::serve_http_transport`] never
//!    panics, never wedges, and only ever emits well-formed HTTP/1.1
//!    responses (exact `Content-Length` framing, explicit `Connection`,
//!    JSON error bodies carrying the line protocol's typed codes);
//! 2. truncating a valid request at every byte offset never admits a
//!    partial job and never produces a malformed response;
//! 3. oversized request lines and header blocks come back as typed
//!    `400`/`431` instead of unbounded buffering;
//! 4. submit/append JSON bodies round-trip identically through the
//!    hand-rolled writer and the gateway's parser;
//! 5. mixed valid/garbage keep-alive traffic leaves the daemon's
//!    admission counters consistent;
//! 6. 256 simultaneously open keep-alive connections against a queue a
//!    quarter that size are each answered `200` or a typed `503` +
//!    `Retry-After`, with the counters consistent throughout.

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use common::{assert_stats_consistent, Watchdog};
use proptest::prelude::*;
use proptest::{collection, proptest};
use variantdbscan::{Engine, JsonArray, JsonObject};
use vbp_service::{
    parse_json, HttpClient, JsonValue, MemTransport, Registry, Server, ServerHandle, ServiceConfig,
    Step,
};

/// Charset for generated dataset tokens (JSON- and protocol-legal).
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@.-";

fn dataset_name(indices: &[u8]) -> String {
    indices
        .iter()
        .map(|&i| NAME_CHARS[i as usize % NAME_CHARS.len()] as char)
        .collect()
}

/// One parsed response from the captured byte stream.
struct CapturedResponse {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl CapturedResponse {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Parses the raw bytes the handler wrote as a sequence of HTTP/1.1
/// responses, failing on any framing defect: a non-CRLF head, a missing
/// `Content-Length` or `Connection` header (interim `100 Continue`
/// excepted), a body shorter than declared, bytes after a
/// `Connection: close` response, or trailing garbage. This is the
/// "only well-formed HTTP ever leaves the socket" oracle.
fn parse_response_stream(bytes: &[u8]) -> Result<Vec<CapturedResponse>, String> {
    let mut responses = Vec::new();
    let mut i = 0;
    let mut closed = false;
    while i < bytes.len() {
        if closed {
            return Err(format!(
                "bytes written after a Connection: close response at offset {i}"
            ));
        }
        let rest = &bytes[i..];
        let head_len = rest
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| format!("unterminated response head at offset {i}"))?
            + 4;
        let head = std::str::from_utf8(&rest[..head_len])
            .map_err(|_| format!("non-UTF-8 response head at offset {i}"))?;
        let mut lines = head.trim_end_matches("\r\n").split("\r\n");
        let status_line = lines.next().ok_or("empty response head")?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if version != "HTTP/1.1" {
            return Err(format!("bad response version in {status_line:?}"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status in {status_line:?}"))?;
        if parts.next().is_none_or(str::is_empty) {
            return Err(format!("missing reason phrase in {status_line:?}"));
        }
        let mut headers = Vec::new();
        for line in lines {
            let (name, value) = line
                .split_once(':')
                .ok_or_else(|| format!("malformed response header {line:?}"))?;
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        i += head_len;
        let response = CapturedResponse {
            status,
            headers,
            body: Vec::new(),
        };
        if status == 100 {
            // Interim response: no body, no framing headers required.
            responses.push(response);
            continue;
        }
        let content_length: usize = response
            .header("content-length")
            .ok_or_else(|| format!("response {status} lacks Content-Length"))?
            .parse()
            .map_err(|_| format!("response {status} has a non-numeric Content-Length"))?;
        match response.header("connection") {
            Some("keep-alive") => {}
            Some("close") => closed = true,
            other => {
                return Err(format!(
                    "response {status} has Connection {other:?} (must be explicit)"
                ))
            }
        }
        if bytes.len() - i < content_length {
            return Err(format!(
                "response {status} declares {content_length} body bytes, {} remain",
                bytes.len() - i
            ));
        }
        let body = bytes[i..i + content_length].to_vec();
        i += content_length;
        if response
            .header("content-type")
            .is_some_and(|t| t.starts_with("application/json"))
        {
            parse_json(&body)
                .map_err(|e| format!("response {status} JSON body does not parse: {e}"))?;
        }
        if status >= 400 {
            let doc = parse_json(&body).map_err(|e| format!("error body not JSON: {e}"))?;
            let code = doc
                .get("error")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("error body lacks a typed 'error' field: {doc:?}"))?;
            vbp_service::ErrorCode::from_str_token(code)
                .ok_or_else(|| format!("untyped error code {code:?} in a {status} body"))?;
        }
        responses.push(CapturedResponse { body, ..response });
    }
    Ok(responses)
}

fn bare_server() -> ServerHandle {
    let engine = Engine::new(common::engine_config(1));
    Server::start(engine, Registry::new(), Default::default()).unwrap()
}

/// Drives one scripted byte schedule through the live HTTP handler and
/// returns whatever it wrote.
fn drive(handle: &ServerHandle, steps: Vec<Step>) -> Vec<u8> {
    let (transport, out) = MemTransport::new(steps);
    handle.serve_http_transport(transport).join().unwrap();
    let captured = out.lock().unwrap().clone();
    captured
}

/// A canonical well-formed submit request (unknown dataset — the fuzz
/// servers run with an empty registry, so it answers `404`).
fn submit_request() -> Vec<u8> {
    let body = r#"{"dataset":"d","eps":1.5,"minpts":4}"#;
    format!(
        "POST /v1/submit HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{}",
        body.len(),
        body
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Layer 1: the handler is total over byte soup. Any chunking of any
    /// garbage produces only well-formed responses and a terminating
    /// handler, and leaves the counters consistent.
    #[test]
    fn handler_total_on_byte_soup(
        chunks in collection::vec(collection::vec(any::<u8>(), 1..64), 1..6),
        idle_every in 1usize..4,
    ) {
        let _wd = Watchdog::arm("http-props-soup", Duration::from_secs(120));
        let handle = bare_server();
        let mut steps = Vec::new();
        for (i, chunk) in chunks.into_iter().enumerate() {
            if i % idle_every == 0 {
                steps.push(Step::Idle);
            }
            steps.push(Step::Recv(chunk));
        }
        steps.push(Step::Close);
        let out = drive(&handle, steps);
        if let Err(e) = parse_response_stream(&out) {
            prop_assert!(false, "malformed output: {e}\nraw: {:?}", String::from_utf8_lossy(&out));
        }
        assert_stats_consistent(&handle.stats_json(), "http byte soup");
        let mut handle = handle;
        handle.shutdown();
    }

    /// Layer 2: truncation never corrupts. A valid request cut at any
    /// byte offset either produces nothing (torn head/body dropped at
    /// EOF) or a single complete, well-formed response.
    #[test]
    fn truncated_requests_never_admit_partial_work(cut in 0usize..96, chunk_len in 1usize..32) {
        let _wd = Watchdog::arm("http-props-trunc", Duration::from_secs(120));
        let handle = bare_server();
        let full = submit_request();
        let cut = cut.min(full.len());
        let steps: Vec<Step> = full[..cut]
            .chunks(chunk_len)
            .map(|c| Step::Recv(c.to_vec()))
            .chain(std::iter::once(Step::Close))
            .collect();
        let out = drive(&handle, steps);
        match parse_response_stream(&out) {
            Ok(responses) => {
                prop_assert!(responses.len() <= 1, "one request produced {} responses", responses.len());
                if cut < full.len() {
                    // A truncated request must never be answered 200.
                    prop_assert!(responses.iter().all(|r| r.status != 200));
                }
            }
            Err(e) => prop_assert!(false, "malformed output: {e}"),
        }
        let stats = handle.stats_json();
        assert_stats_consistent(&stats, "http truncation");
        // Nothing was ever admitted to the queue: the registry is empty,
        // so even the complete request stops at 404.
        prop_assert_eq!(common::field_u64(&stats, "submitted"), 0);
        let mut handle = handle;
        handle.shutdown();
    }

    /// Layer 4: submit bodies built with the hand-rolled writer parse
    /// back identically through the gateway's JSON parser.
    #[test]
    fn submit_json_roundtrip_is_identity(
        name_idx in collection::vec(any::<u8>(), 1..24),
        eps in 1e-9f64..1e9,
        minpts in 1usize..100_000,
        labels in any::<bool>(),
    ) {
        let dataset = dataset_name(&name_idx);
        let body = JsonObject::new()
            .str("dataset", &dataset)
            .float("eps", eps)
            .uint("minpts", minpts as u64)
            .boolean("labels", labels)
            .finish();
        let doc = parse_json(body.as_bytes()).unwrap();
        prop_assert_eq!(doc.get("dataset").and_then(JsonValue::as_str), Some(dataset.as_str()));
        prop_assert_eq!(doc.get("eps").and_then(JsonValue::as_f64), Some(eps));
        prop_assert_eq!(doc.get("minpts").and_then(JsonValue::as_f64), Some(minpts as f64));
        prop_assert_eq!(doc.get("labels").and_then(JsonValue::as_bool), Some(labels));
    }

    /// Layer 4b: append bodies round-trip every coordinate bit-for-bit,
    /// in order.
    #[test]
    fn append_json_roundtrip_is_identity(
        name_idx in collection::vec(any::<u8>(), 1..24),
        coords in collection::vec((-1e12f64..1e12, -1e12f64..1e12), 1..16),
    ) {
        let dataset = dataset_name(&name_idx);
        let mut points = JsonArray::new();
        for &(x, y) in &coords {
            let mut pair = JsonArray::new();
            pair.push_float(x);
            pair.push_float(y);
            points.push_raw(&pair.finish());
        }
        let body = JsonObject::new()
            .str("dataset", &dataset)
            .raw("points", &points.finish())
            .finish();
        let doc = parse_json(body.as_bytes()).unwrap();
        let parsed = doc.get("points").and_then(JsonValue::as_array).unwrap();
        prop_assert_eq!(parsed.len(), coords.len());
        for (item, &(x, y)) in parsed.iter().zip(&coords) {
            let pair = item.as_array().unwrap();
            prop_assert_eq!(pair[0].as_f64(), Some(x));
            prop_assert_eq!(pair[1].as_f64(), Some(y));
        }
    }

    /// Layer 5: keep-alive streams mixing well-formed requests with one
    /// trailing garbage line still produce only well-formed responses,
    /// answer every complete request before the poison, and leave the
    /// counters consistent.
    #[test]
    fn keepalive_with_trailing_garbage_stays_framed(
        healthy in 1usize..6,
        garbage in collection::vec(any::<u8>(), 1..48),
        chunk_len in 1usize..64,
    ) {
        let _wd = Watchdog::arm("http-props-keepalive", Duration::from_secs(120));
        let handle = bare_server();
        let mut bytes = Vec::new();
        for _ in 0..healthy {
            bytes.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        }
        // A garbage "request line" (sanitized of newlines so it stays
        // one line) followed by CRLFCRLF frames as a head and must be
        // rejected as exactly one typed 400.
        let mut poison: Vec<u8> = garbage
            .into_iter()
            .filter(|&b| b != b'\n' && b != b'\r')
            .collect();
        poison.push(b'!'); // never empty, never a valid method
        bytes.extend_from_slice(&poison);
        bytes.extend_from_slice(b"\r\n\r\n");
        let steps: Vec<Step> = bytes
            .chunks(chunk_len)
            .map(|c| Step::Recv(c.to_vec()))
            .chain(std::iter::once(Step::Close))
            .collect();
        let out = drive(&handle, steps);
        match parse_response_stream(&out) {
            Ok(responses) => {
                prop_assert_eq!(responses.len(), healthy + 1, "each request answered exactly once");
                for r in &responses[..healthy] {
                    prop_assert_eq!(r.status, 200);
                    prop_assert_eq!(r.header("connection"), Some("keep-alive"));
                }
                let last = &responses[healthy];
                prop_assert_eq!(last.status, 400);
                prop_assert_eq!(last.header("connection"), Some("close"));
            }
            Err(e) => prop_assert!(false, "malformed output: {e}"),
        }
        let stats = handle.stats_json();
        assert_stats_consistent(&stats, "http keepalive garbage");
        prop_assert_eq!(common::field_u64(&stats, "protocol_errors"), 1);
        let mut handle = handle;
        handle.shutdown();
    }
}

#[test]
fn oversized_request_line_answers_400_without_buffering() {
    let _wd = Watchdog::arm("http-oversized-line", Duration::from_secs(60));
    let handle = bare_server();
    // A request "line" far over the cap, never newline-terminated: the
    // handler must reject from the cap alone, not wait for framing.
    let steps = vec![
        Step::Recv(vec![b'A'; vbp_service::http::MAX_REQUEST_LINE_BYTES + 64]),
        Step::Close,
    ];
    let out = drive(&handle, steps);
    let responses = parse_response_stream(&out).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, 400);
    assert_eq!(responses[0].header("connection"), Some("close"));
    assert_eq!(
        common::field_u64(&handle.stats_json(), "protocol_errors"),
        1
    );
    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn oversized_header_block_answers_431_without_buffering() {
    let _wd = Watchdog::arm("http-oversized-headers", Duration::from_secs(60));
    let handle = bare_server();
    // A valid request line followed by an endless header stream: the
    // total-head cap must fire before the blank line ever arrives.
    let mut bytes = b"GET /healthz HTTP/1.1\r\n".to_vec();
    while bytes.len()
        < vbp_service::http::MAX_REQUEST_LINE_BYTES + vbp_service::http::MAX_HEADER_BYTES + 64
    {
        bytes.extend_from_slice(b"X-Padding: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
    }
    let out = drive(&handle, vec![Step::Recv(bytes), Step::Close]);
    let responses = parse_response_stream(&out).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, 431);
    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn too_many_headers_answers_431() {
    let _wd = Watchdog::arm("http-many-headers", Duration::from_secs(60));
    let handle = bare_server();
    let mut bytes = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..(vbp_service::http::MAX_HEADERS + 1) {
        bytes.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
    }
    bytes.extend_from_slice(b"\r\n");
    let out = drive(&handle, vec![Step::Recv(bytes), Step::Close]);
    let responses = parse_response_stream(&out).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, 431);
    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn oversized_declared_body_answers_413() {
    let _wd = Watchdog::arm("http-oversized-body", Duration::from_secs(60));
    let handle = bare_server();
    let head = format!(
        "POST /v1/submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        vbp_service::http::MAX_BODY_BYTES + 1
    );
    let out = drive(&handle, vec![Step::Recv(head.into_bytes()), Step::Close]);
    let responses = parse_response_stream(&out).unwrap();
    assert_eq!(responses.len(), 1);
    assert_eq!(responses[0].status, 413);
    let mut handle = handle;
    handle.shutdown();
}

#[test]
fn routes_answer_their_documented_statuses() {
    let _wd = Watchdog::arm("http-routes", Duration::from_secs(60));
    let handle = bare_server();
    let exchanges: &[(&str, u16)] = &[
        ("GET /healthz HTTP/1.1\r\n\r\n", 200),
        ("GET /v1/datasets HTTP/1.1\r\n\r\n", 200),
        ("GET /v1/stats HTTP/1.1\r\n\r\n", 200),
        ("GET /metrics HTTP/1.1\r\n\r\n", 200),
        ("DELETE /healthz HTTP/1.1\r\n\r\n", 405),
        ("GET /v1/submit HTTP/1.1\r\n\r\n", 405),
        ("GET /nope HTTP/1.1\r\n\r\n", 404),
        (
            "POST /v1/submit HTTP/1.1\r\nContent-Length: 8\r\n\r\nnot json",
            400,
        ),
        (
            "POST /v1/submit HTTP/1.1\r\nContent-Length: 36\r\n\r\n{\"dataset\":\"d\",\"eps\":1.5,\"minpts\":4}",
            404,
        ),
        (
            "POST /v1/append HTTP/1.1\r\nContent-Length: 37\r\n\r\n{\"dataset\":\"d\",\"points\":[[1.0,2.0]]}_",
            400,
        ),
    ];
    for &(request, want) in exchanges {
        let out = drive(
            &handle,
            vec![Step::Recv(request.as_bytes().to_vec()), Step::Close],
        );
        let responses = parse_response_stream(&out).unwrap_or_else(|e| panic!("{request:?}: {e}"));
        assert_eq!(responses.len(), 1, "{request:?}");
        assert_eq!(responses[0].status, want, "{request:?}");
        if request.starts_with("GET /healthz") {
            let doc = parse_json(&responses[0].body).unwrap();
            assert_eq!(
                doc.get("status").and_then(JsonValue::as_str),
                Some("ok"),
                "{request:?}"
            );
        }
    }
    assert_stats_consistent(&handle.stats_json(), "http routes");
    let mut handle = handle;
    handle.shutdown();
}

/// Regression corpus: adversarial requests that once panicked the
/// handler or exploited header-parsing laxity. Each must come back as
/// exactly one typed response — never a dropped connection.
#[test]
fn adversarial_corpus_answers_typed_responses() {
    let _wd = Watchdog::arm("http-adversarial-corpus", Duration::from_secs(60));
    let handle = bare_server();
    let submit_with_body = |body: &str| {
        format!(
            "POST /v1/submit HTTP/1.1\r\nContent-Length: {}\r\n\r\n{}",
            body.len(),
            body
        )
    };
    let exchanges: Vec<(String, u16)> = vec![
        // `\u` + 1 hex digit + a 4-byte char: hex4 once sliced the &str
        // at byte i+4, a non-char boundary, and panicked the handler.
        (submit_with_body("{\"dataset\":\"\\u0\u{10348}\"}"), 400),
        (submit_with_body("{\"dataset\":\"\\u\u{e9}99\"}"), 400),
        (
            submit_with_body("{\"dataset\":\"\\ud800\\u\u{10348}1\"}"),
            400,
        ),
        // Content-Length is DIGIT only (usize::from_str accepts "+5").
        (
            "POST /v1/submit HTTP/1.1\r\nContent-Length: +5\r\n\r\n".into(),
            400,
        ),
        // Whitespace before the colon on a framing header (RFC 9112 §5.1).
        (
            "POST /v1/submit HTTP/1.1\r\nContent-Length : 5\r\n\r\nhello".into(),
            400,
        ),
    ];
    for (request, want) in exchanges {
        let out = drive(
            &handle,
            vec![Step::Recv(request.as_bytes().to_vec()), Step::Close],
        );
        let responses = parse_response_stream(&out).unwrap_or_else(|e| panic!("{request:?}: {e}"));
        assert_eq!(responses.len(), 1, "{request:?}");
        assert_eq!(responses[0].status, want, "{request:?}");
    }
    let stats = handle.stats_json();
    assert_stats_consistent(&stats, "http adversarial corpus");
    // Three well-framed-but-bad JSON bodies; two unframeable heads.
    assert_eq!(common::field_u64(&stats, "bad_request"), 3);
    assert_eq!(common::field_u64(&stats, "protocol_errors"), 2);
    let mut handle = handle;
    handle.shutdown();
}

/// The thread-per-connection door under many sockets at once: every
/// connection is open before the first request, the queue holds a
/// quarter of them, and a `/v1/stats` poller runs alongside. Counts
/// only — no timing.
#[test]
fn many_keep_alive_connections_get_200_or_typed_503() {
    const CLIENTS: usize = 256;
    const OKS_PER_CLIENT: usize = 3;
    const DATASET: &str = "cF_10k_5N@2000";
    let _wd = Watchdog::arm("http-many-connections", Duration::from_secs(120));
    let mut handle = common::start_server(
        &[DATASET],
        2,
        ServiceConfig {
            queue_cap: CLIENTS / 4,
            http_addr: Some("127.0.0.1:0".into()),
            ..ServiceConfig::default()
        },
    );
    let addr = handle.http_addr().expect("http gateway bound");
    let connect = || {
        let mut client = HttpClient::connect(addr).expect("connect");
        client.set_timeout(Some(Duration::from_secs(60))).unwrap();
        client
    };
    let body = format!(r#"{{"dataset":"{DATASET}","eps":0.5,"minpts":4}}"#);
    let warm = connect().post("/v1/submit", &body).unwrap();
    assert_eq!(warm.status, 200, "warm-up answered {}", warm.body_str());

    let all_connected = Barrier::new(CLIENTS);
    let done = AtomicBool::new(false);
    let shed: usize = std::thread::scope(|s| {
        s.spawn(|| {
            let mut poller = connect();
            while !done.load(Ordering::Acquire) {
                let stats = poller.get("/v1/stats").unwrap();
                assert_eq!(stats.status, 200, "{}", stats.body_str());
                assert_stats_consistent(stats.body_str(), "many connections, mid-run");
            }
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|id| {
                let (all_connected, body) = (&all_connected, &body);
                s.spawn(move || {
                    let mut client = connect();
                    all_connected.wait();
                    let (mut oks, mut shed) = (0, 0);
                    while oks < OKS_PER_CLIENT {
                        let resp = client.post("/v1/submit", body).unwrap();
                        match resp.status {
                            200 => oks += 1,
                            503 => {
                                assert!(
                                    resp.header("retry-after").is_some(),
                                    "client {id}: 503 without Retry-After"
                                );
                                let doc = resp.json().unwrap();
                                assert_eq!(
                                    doc.get("error").and_then(JsonValue::as_str),
                                    Some("overloaded"),
                                    "client {id}: {}",
                                    resp.body_str()
                                );
                                shed += 1;
                                std::thread::sleep(Duration::from_millis(5));
                            }
                            other => panic!("client {id}: status {other}: {}", resp.body_str()),
                        }
                    }
                    shed
                })
            })
            .collect();
        let joined: Vec<_> = clients.into_iter().map(|c| c.join()).collect();
        done.store(true, Ordering::Release);
        joined.into_iter().map(|shed| shed.unwrap()).sum()
    });

    let stats = handle.stats_json();
    assert_stats_consistent(&stats, "many connections, final");
    assert_eq!(
        common::field_u64(&stats, "completed"),
        (1 + CLIENTS * OKS_PER_CLIENT) as u64,
        "{stats}"
    );
    assert_eq!(common::field_u64(&stats, "failed"), 0, "{stats}");
    assert_eq!(
        common::field_u64(&stats, "rejected_overloaded"),
        shed as u64,
        "{stats}"
    );
    handle.shutdown();
}
