//! Door equivalence: the line protocol, the HTTP gateway and the router
//! are three ways into one daemon core, and a client cannot tell them
//! apart by what they answer.
//!
//! One daemon (line + HTTP listeners) with a one-backend router in
//! front. The same script runs through `&mut dyn DatasetService` over
//! `Client`, `HttpClient`→daemon and `HttpClient`→router — each on its
//! own registered copy of the same points, so every door starts from the
//! same cache state — and must produce the same answers. Then every kind
//! of refusal must carry the same `ErrorCode` on every door, under the
//! documented HTTP status; the bytes each door writes must keep their
//! documented shape; and all three views of the daemon's counters must
//! be the counter table, no more and no less.

use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::Duration;

use variantdbscan::{Engine, EngineConfig};
use vbp_data::DatasetSpec;
use vbp_dbscan::{core_flags, core_isomorphic, DbscanParams};
use vbp_geom::Point2;
use vbp_rtree::{shared_points, BruteForce};
use vbp_service::{
    counters, parse_json, AppendReply, Client, ClientError, DatasetService, ErrorCode, HttpClient,
    JsonValue, Registry, Router, RouterConfig, RouterHandle, Server, ServerHandle, ServiceConfig,
    SubmitReply,
};

const SOURCE: &str = "cF_10k_5N@300";
/// One registered copy of [`SOURCE`] per door, plus one for raw-byte
/// sessions.
const COPIES: [&str; 4] = ["via-line", "via-http", "via-router", "raw"];
const EPS: f64 = 2.0;
const WIDER_EPS: f64 = 2.5;
const MINPTS: usize = 4;

struct Fleet {
    daemon: ServerHandle,
    router: RouterHandle,
    points: Vec<Point2>,
}

impl Fleet {
    fn start(config: ServiceConfig) -> Fleet {
        let engine = Engine::new(EngineConfig::default().with_threads(1).with_r(16));
        let points = DatasetSpec::by_name(SOURCE).unwrap().generate();
        let registry = Registry::new();
        for name in COPIES {
            registry.register(&engine, name, &points).unwrap();
        }
        let daemon = Server::start(
            engine,
            registry,
            ServiceConfig {
                http_addr: Some("127.0.0.1:0".into()),
                ..config
            },
        )
        .unwrap();
        let routing = RouterConfig {
            backends: vec![daemon.http_addr().unwrap().to_string()],
            ..RouterConfig::default()
        };
        routing.validate().unwrap();
        let router = Router::start(routing).unwrap();
        Fleet {
            daemon,
            router,
            points,
        }
    }

    /// The three doors, each paired with the dataset copy it drives.
    fn doors(&self) -> Vec<(&'static str, Box<dyn DatasetService + Send>)> {
        let timeout = Some(Duration::from_secs(60));
        let line = Client::connect(self.daemon.local_addr()).unwrap();
        line.set_timeout(timeout).unwrap();
        let mut http = HttpClient::connect(self.daemon.http_addr().unwrap()).unwrap();
        http.set_timeout(timeout).unwrap();
        let mut routed = HttpClient::connect(self.router.http_addr()).unwrap();
        routed.set_timeout(timeout).unwrap();
        vec![
            (COPIES[0], Box::new(line)),
            (COPIES[1], Box::new(http)),
            (COPIES[2], Box::new(routed)),
        ]
    }

    fn http_doors(&self) -> [(&'static str, SocketAddr); 2] {
        [
            ("daemon", self.daemon.http_addr().unwrap()),
            ("router", self.router.http_addr()),
        ]
    }

    fn stop(mut self) {
        self.router.shutdown();
        self.daemon.shutdown();
    }
}

fn quiet_config() -> ServiceConfig {
    ServiceConfig {
        batch_window: Duration::ZERO,
        ..ServiceConfig::default()
    }
}

/// Everything one door answered to the script.
struct Transcript {
    submits: Vec<SubmitReply>,
    appends: Vec<AppendReply>,
}

/// The script: cold, dominated (cache reuse), repeated (cache hit); an
/// append far from everything (cache entries repaired), one on top of an
/// existing point (entries dropped); then the same variants again.
fn run_script(svc: &mut dyn DatasetService, dataset: &str, points: &[Point2]) -> Transcript {
    let far = [Point2::new(-500.0, -500.0), Point2::new(-500.02, -500.0)];
    let near = [Point2::new(points[0].x + 1e-3, points[0].y)];
    let mut t = Transcript {
        submits: Vec::new(),
        appends: Vec::new(),
    };
    t.submits
        .push(svc.submit(dataset, EPS, MINPTS, true).unwrap());
    t.submits
        .push(svc.submit(dataset, WIDER_EPS, MINPTS, true).unwrap());
    t.submits
        .push(svc.submit(dataset, EPS, MINPTS, false).unwrap());
    t.appends.push(svc.append(dataset, &far).unwrap());
    t.submits
        .push(svc.submit(dataset, EPS, MINPTS, true).unwrap());
    t.appends.push(svc.append(dataset, &near).unwrap());
    t.submits
        .push(svc.submit(dataset, EPS, MINPTS, true).unwrap());
    t.submits
        .push(svc.submit(dataset, WIDER_EPS, 2 * MINPTS, true).unwrap());
    t
}

#[test]
fn the_same_script_gets_the_same_answers_on_every_door() {
    let fleet = Fleet::start(quiet_config());
    let mut doors = fleet.doors();

    let listings: Vec<_> = doors
        .iter_mut()
        .map(|(_, svc)| svc.datasets().unwrap())
        .collect();
    assert_eq!(listings[0].len(), COPIES.len());
    assert!(listings[0].iter().all(|(_, n)| *n == fleet.points.len()));
    assert_eq!(listings[0], listings[1], "line vs http listing");
    assert_eq!(listings[0], listings[2], "line vs routed listing");
    for (_, svc) in doors.iter_mut() {
        let health = svc.healthz().unwrap();
        assert!(health.accepting && !health.draining);
    }

    let transcripts: Vec<Transcript> = doors
        .iter_mut()
        .map(|(dataset, svc)| run_script(svc.as_mut(), dataset, &fleet.points))
        .collect();

    // The script did what it was designed to do (checked once, on the
    // line door; the equalities below carry it to the others).
    let line = &transcripts[0];
    let flags: Vec<(bool, bool)> = line.submits.iter().map(|s| (s.warm, s.reused)).collect();
    assert_eq!(flags[0], (false, false), "cold");
    assert_eq!(flags[1], (true, true), "dominated variant reuses the cache");
    assert_eq!(flags[2], (true, true), "repeat hits the cache");
    assert_eq!(
        (line.appends[0].repaired, line.appends[0].dropped),
        (2, 0),
        "a far append repairs both cached entries"
    );
    assert_eq!(flags[3], (true, true), "repaired entries still serve");
    assert!(
        line.appends[1].dropped > 0,
        "an append inside a cluster drops entries"
    );
    assert_eq!(line.appends[1].total, fleet.points.len() + 3);

    // The dataset after both appends; a reply's label count says how
    // much of it that reply covers.
    let mut grown = fleet.points.clone();
    grown.extend([Point2::new(-500.0, -500.0), Point2::new(-500.02, -500.0)]);
    grown.push(Point2::new(fleet.points[0].x + 1e-3, fleet.points[0].y));
    let strictest = DbscanParams::new(EPS, 2 * MINPTS);
    for (door, other) in [("http", &transcripts[1]), ("routed", &transcripts[2])] {
        for (i, (a, b)) in line.submits.iter().zip(&other.submits).enumerate() {
            let ctx = format!("line vs {door}, submit {i}");
            assert_eq!(
                (a.clusters, a.noise, a.warm, a.reused),
                (b.clusters, b.noise, b.warm, b.reused),
                "{ctx}"
            );
            match (&a.labels, &b.labels) {
                (Some(la), Some(lb)) => {
                    // Core under the script's strictest variant means
                    // core under all of them.
                    let covered = shared_points(grown[..la.len()].iter().copied());
                    let core = core_flags(&BruteForce::new(covered), strictest);
                    core_isomorphic(la, lb, &core).unwrap_or_else(|e| panic!("{ctx}: {e}"));
                }
                (None, None) => {}
                _ => panic!("{ctx}: one door sent labels, the other did not"),
            }
        }
        for (i, (a, b)) in line.appends.iter().zip(&other.appends).enumerate() {
            assert_eq!(
                (a.appended, a.total, a.repaired, a.dropped),
                (b.appended, b.total, b.repaired, b.dropped),
                "line vs {door}, append {i}"
            );
        }
    }
    drop(doors);

    wire_shapes_hold(&fleet);
    counter_table_is_every_view(&fleet);
    fleet.stop();
}

// ---------------------------------------------------------------------------
// Wire shapes
// ---------------------------------------------------------------------------

/// Replaces every number with `#`, so a reply can be compared by shape.
fn masked(text: &str) -> String {
    let mut out = String::new();
    let mut in_number = false;
    for c in text.chars() {
        if c.is_ascii_digit() || (in_number && c == '.') {
            if !in_number {
                out.push('#');
            }
            in_number = true;
        } else {
            in_number = false;
            out.push(c);
        }
    }
    out
}

/// A raw line-protocol session: bytes in, lines out, no client library.
struct RawLine {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawLine {
    fn connect(addr: SocketAddr) -> RawLine {
        let writer = TcpStream::connect(addr).unwrap();
        writer
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        RawLine {
            reader: BufReader::new(writer.try_clone().unwrap()),
            writer,
        }
    }

    fn read(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        line.trim_end().to_string()
    }

    fn exchange(&mut self, request: &str) -> String {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .unwrap();
        self.read()
    }
}

/// One raw HTTP request/response exchange over a fresh connection.
fn raw_http(addr: SocketAddr, request: &str) -> (Vec<String>, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream.write_all(request.as_bytes()).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (head, body) = response
        .split_once("\r\n\r\n")
        .unwrap_or_else(|| panic!("unframed response {response:?}"));
    (
        head.split("\r\n").map(str::to_string).collect(),
        body.into(),
    )
}

fn request(method: &str, path: &str, body: Option<&str>) -> String {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: doors\r\nConnection: close\r\n");
    if let Some(body) = body {
        head.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    head + "\r\n" + body.unwrap_or("")
}

fn keys(json: &JsonValue) -> Vec<&str> {
    json.entries()
        .expect("a JSON object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

/// The bytes each door writes keep the shape the parent commit wrote
/// (captured there with the same script; timing fields vary, nothing
/// else may).
fn wire_shapes_hold(fleet: &Fleet) {
    let ds = COPIES[3];
    let mut line = RawLine::connect(fleet.daemon.local_addr());
    assert_eq!(line.exchange("HELLO"), "OK vbp-service 3");
    assert_eq!(
        line.exchange("DATASETS"),
        "OK raw=300 via-http=303 via-line=303 via-router=303"
    );
    let submit_shape = "OK clusters=# noise=# warm=# reused=# ms=#";
    assert_eq!(
        masked(&line.exchange(&format!("SUBMIT {ds} 2 4"))),
        submit_shape
    );
    let head = line.exchange(&format!("SUBMIT {ds} 2.5 4 LABELS"));
    assert_eq!(masked(&head), submit_shape);
    let decimals = head.rsplit_once('.').map(|(_, d)| d.len());
    assert_eq!(decimals, Some(3), "ms carries three decimals: {head}");
    let labels = line.read();
    let tokens: Vec<&str> = labels.split_ascii_whitespace().collect();
    assert_eq!((tokens[0], tokens[1]), ("LABELS", "300"));
    assert_eq!(tokens.len(), 302);
    assert!(tokens[2..].iter().all(|t| t.parse::<u32>().is_ok()));
    assert_eq!(
        masked(&line.exchange(&format!("WATCH {ds} 2 4"))),
        "OK watching raw # # clusters=# noise=#"
    );
    assert_eq!(
        masked(&line.exchange(&format!("APPEND {ds} -500 -500 -500.5 -500"))),
        "OK appended=# total=# repaired=# dropped=# ms=#"
    );
    assert_eq!(
        masked(&line.read()),
        "DELTA raw # # appended=# new=# absorbed=# promoted=# clusters=# noise=#"
    );
    for (request, reply) in [
        ("NOPE", "ERR bad-request unknown verb 'NOPE'"),
        ("SUBMIT", "ERR bad-request SUBMIT: missing dataset"),
        (
            "SUBMIT raw 0 4",
            "ERR bad-request SUBMIT: eps must be finite and positive",
        ),
        (
            "SUBMIT raw 1 0",
            "ERR bad-request SUBMIT: minpts must be at least 1",
        ),
        (
            "WATCH raw 1 0",
            "ERR bad-request WATCH: minpts must be at least 1",
        ),
        (
            "SUBMIT raw x 4",
            "ERR bad-request SUBMIT: eps is not a number",
        ),
        (
            "SUBMIT raw 1 4 EXTRA",
            "ERR bad-request SUBMIT: unexpected token 'EXTRA'",
        ),
        (
            "SUBMIT nope 1 4",
            "ERR unknown-dataset dataset 'nope' is not registered",
        ),
        (
            "WATCH nope 1 4",
            "ERR unknown-dataset dataset 'nope' is not registered",
        ),
        (
            "APPEND nope 1 2",
            "ERR unknown-dataset dataset 'nope' is not registered",
        ),
        ("APPEND raw", "ERR bad-request APPEND: missing points"),
        (
            "APPEND raw 1",
            "ERR bad-request APPEND: odd coordinate count (need x y pairs)",
        ),
        (
            "APPEND raw nan 2",
            "ERR bad-request APPEND: coordinates must be finite",
        ),
        (
            "APPEND raw 1 x",
            "ERR bad-request APPEND: 'x' is not a number",
        ),
        ("HELLO there", "ERR bad-request HELLO: trailing tokens"),
    ] {
        assert_eq!(line.exchange(request), reply, "{request}");
    }
    let stats = line.exchange("STATS");
    let doc = parse_json(stats.strip_prefix("OK ").unwrap().as_bytes()).unwrap();
    assert_eq!(keys(&doc)[..2], ["uptime_ms", "draining"]);
    let continuation: usize = line
        .exchange("METRICS")
        .strip_prefix("OK ")
        .unwrap()
        .parse()
        .unwrap();
    for _ in 0..continuation {
        let series = line.read();
        assert!(series.starts_with("vbp_"), "{series:?}");
    }
    assert_eq!(line.exchange("QUIT"), "OK bye");

    for (door, addr) in fleet.http_doors() {
        let routed = door == "router";
        let ok_head = [
            "HTTP/1.1 200 OK",
            "Content-Type: application/json",
            "Content-Length: #",
            "Connection: close",
        ];
        let masked_head =
            |head: &[String]| -> Vec<String> { head.iter().map(|l| masked_length(l)).collect() };

        let body = format!(r#"{{"dataset":"{ds}","eps":2.5,"minpts":4,"labels":true}}"#);
        let (head, reply) = raw_http(addr, &request("POST", "/v1/submit", Some(&body)));
        assert_eq!(masked_head(&head), ok_head, "{door} submit head");
        let json = parse_json(reply.as_bytes()).unwrap();
        let mut want = vec!["clusters", "noise", "warm", "reused", "ms", "labels"];
        if !routed {
            want.push("report"); // the typed reply the router relays has no report
        }
        assert_eq!(keys(&json), want, "{door} submit body");

        let body = format!(r#"{{"dataset":"{ds}","points":[[-600,-600]]}}"#);
        let (head, reply) = raw_http(addr, &request("POST", "/v1/append", Some(&body)));
        assert_eq!(masked_head(&head), ok_head, "{door} append head");
        assert_eq!(
            keys(&parse_json(reply.as_bytes()).unwrap()),
            ["appended", "total", "repaired", "dropped", "ms"],
            "{door} append body"
        );

        let (_, reply) = raw_http(addr, &request("GET", &format!("/v1/datasets/{ds}"), None));
        let mut want = vec!["name", "points"];
        if routed {
            want.push("backend");
        }
        assert_eq!(keys(&parse_json(reply.as_bytes()).unwrap()), want);

        let (head, reply) = raw_http(addr, &request("GET", "/v1/submit", None));
        assert_eq!(
            masked_head(&head),
            [
                "HTTP/1.1 405 Method Not Allowed",
                "Content-Type: application/json",
                "Content-Length: #",
                "Connection: close",
                "Allow: POST",
            ]
        );
        assert_eq!(
            reply,
            r#"{"error":"bad-request","message":"/v1/submit only supports POST"}"#
        );
        let (head, reply) = raw_http(addr, &request("GET", "/nope", None));
        assert_eq!(head[0], "HTTP/1.1 404 Not Found");
        assert_eq!(
            reply,
            r#"{"error":"bad-request","message":"no route for /nope"}"#
        );
        let (head, _) = raw_http(addr, &request("GET", "/metrics", None));
        assert_eq!(head[1], "Content-Type: text/plain; version=0.0.4");
    }
}

fn masked_length(header: &str) -> String {
    match header.strip_prefix("Content-Length: ") {
        Some(_) => "Content-Length: #".into(),
        None => header.into(),
    }
}

// ---------------------------------------------------------------------------
// The counter table
// ---------------------------------------------------------------------------

/// `/v1/stats` keys, `METRICS` series and the router's merged keys are
/// the counter table — a counter cannot exist in one view only.
fn counter_table_is_every_view(fleet: &Fleet) {
    let table_keys: BTreeSet<&str> = counters().map(|c| c.key).collect();
    assert_eq!(table_keys.len(), counters().count(), "keys are distinct");

    let mut doors = fleet.doors();
    for (i, (_, svc)) in doors.iter_mut().enumerate() {
        let doc = parse_json(svc.stats_json().unwrap().as_bytes()).unwrap();
        let mut other: BTreeSet<&str> = keys(&doc).into_iter().collect();
        for key in &table_keys {
            assert!(other.remove(key), "door {i}: STATS lacks '{key}'");
        }
        let framing = if i == 2 {
            [
                "uptime_ms",
                "draining",
                "engine_busy_ms",
                "router",
                "backends",
            ]
        } else {
            [
                "uptime_ms",
                "draining",
                "engine_busy_ms",
                "cache",
                "datasets",
            ]
        };
        assert_eq!(
            other,
            framing.into_iter().collect(),
            "door {i}: a STATS counter is missing from the table"
        );

        let metrics = svc.metrics().unwrap();
        for c in counters() {
            let hits = metrics
                .lines()
                .filter(|l| l.rsplit_once(' ').is_some_and(|(name, _)| name == c.series))
                .count();
            assert_eq!(hits, 1, "door {i}: series {} appears {hits}×", c.series);
            // …and says what STATS says (nothing else runs on this
            // fleet; the stats fetch itself moves no counter).
            let in_metrics: f64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix(c.series)?.trim().parse().ok())
                .unwrap();
            assert_eq!(
                doc.get(c.key).and_then(JsonValue::as_f64),
                Some(in_metrics),
                "door {i}: {} vs {}",
                c.key,
                c.series
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Refusals
// ---------------------------------------------------------------------------

/// What a raw HTTP exchange answered: status, typed code, `Retry-After`.
fn raw_refusal(addr: SocketAddr, request: &str) -> (u16, Option<ErrorCode>, Option<String>) {
    let (head, body) = raw_http(addr, request);
    let status = head[0].split(' ').nth(1).unwrap().parse().unwrap();
    let code = parse_json(body.as_bytes())
        .ok()
        .and_then(|j| ErrorCode::from_str_token(j.get("error")?.as_str()?));
    let retry = head
        .iter()
        .find_map(|h| h.strip_prefix("Retry-After: ").map(str::to_string));
    (status, code, retry)
}

/// One request, askable through a typed client or as raw HTTP bytes.
#[derive(Debug)]
enum Ask {
    Submit(&'static str, f64, usize),
    Append(&'static str, &'static [Point2]),
}

impl Ask {
    /// The refusal's code, `None` when the door answered the request.
    fn typed(&self, svc: &mut dyn DatasetService) -> Option<ErrorCode> {
        match *self {
            Ask::Submit(dataset, eps, minpts) => {
                svc.submit(dataset, eps, minpts, false).err()?.code()
            }
            Ask::Append(dataset, points) => svc.append(dataset, points).err()?.code(),
        }
    }

    fn raw(&self) -> String {
        match *self {
            Ask::Submit(dataset, eps, minpts) => request(
                "POST",
                "/v1/submit",
                Some(&format!(
                    r#"{{"dataset":"{dataset}","eps":{eps},"minpts":{minpts}}}"#
                )),
            ),
            Ask::Append(dataset, points) => {
                let pairs: Vec<String> = points
                    .iter()
                    .map(|p| format!("[{},{}]", p.x, p.y))
                    .collect();
                let body = format!(
                    r#"{{"dataset":"{dataset}","points":[{}]}}"#,
                    pairs.join(",")
                );
                request("POST", "/v1/append", Some(&body))
            }
        }
    }
}

#[test]
fn every_refusal_has_one_code_on_every_door_and_its_documented_status() {
    let fleet = Fleet::start(quiet_config());
    let ds = COPIES[3];
    static ONE: [Point2; 1] = [Point2::new(1.0, 2.0)];
    let table = [
        (Ask::Submit("nope", 1.0, 4), ErrorCode::UnknownDataset, 404),
        (Ask::Append("nope", &ONE), ErrorCode::UnknownDataset, 404),
        (Ask::Submit(ds, 0.0, 4), ErrorCode::BadRequest, 400),
        (Ask::Submit(ds, 1.0, 0), ErrorCode::BadRequest, 400),
        (
            Ask::Submit(ds, 1.0, u32::MAX as usize + 1),
            ErrorCode::BadRequest,
            400,
        ),
        (Ask::Append(ds, &[]), ErrorCode::BadRequest, 400),
    ];
    let mut doors = fleet.doors();
    for (ask, code, status) in &table {
        for (door, svc) in doors.iter_mut() {
            assert_eq!(ask.typed(svc.as_mut()), Some(*code), "{ask:?} via {door}");
        }
        for (door, addr) in fleet.http_doors() {
            assert_eq!(
                raw_refusal(addr, &ask.raw()),
                (*status, Some(*code), None),
                "{ask:?} via {door}, raw"
            );
        }
    }
    // The largest minpts is accepted by every door (and is simply a
    // variant nothing satisfies).
    for (door, svc) in doors.iter_mut() {
        let reply = svc.submit(ds, EPS, u32::MAX as usize, false).unwrap();
        assert_eq!(reply.clusters, 0, "minpts = u32::MAX via {door}");
    }

    // 400 protocol: bytes that do not frame as HTTP.
    for (door, addr) in fleet.http_doors() {
        assert_eq!(
            raw_refusal(addr, "GARBAGE\r\n\r\n"),
            (400, Some(ErrorCode::Protocol), None),
            "{door}"
        );
    }

    // 500 internal: a clustering job that panics is contained and typed.
    // (The poisoned ε is used by nothing else in this test binary.)
    {
        let poisoned = 11.75;
        let _armed = variantdbscan::fault::ArmedFault::new(poisoned);
        for (door, svc) in doors.iter_mut() {
            assert_eq!(
                svc.submit(ds, poisoned, 4, false)
                    .err()
                    .and_then(|e| e.code()),
                Some(ErrorCode::Internal),
                "contained panic via {door}"
            );
        }
        let body = format!(r#"{{"dataset":"{ds}","eps":{poisoned},"minpts":4}}"#);
        for (door, addr) in fleet.http_doors() {
            assert_eq!(
                raw_refusal(addr, &request("POST", "/v1/submit", Some(&body))),
                (500, Some(ErrorCode::Internal), None),
                "{door}"
            );
        }
    }

    // 503 draining: SHUTDOWN over the wire stops admission; the doors
    // stay up until the handle joins.
    Client::connect(fleet.daemon.local_addr())
        .unwrap()
        .shutdown()
        .unwrap();
    let submit_raw = Ask::Submit(ds, EPS, MINPTS).raw();
    let append_raw = Ask::Append(ds, &ONE).raw();
    for (door, svc) in doors.iter_mut() {
        let refused = svc
            .submit(ds, EPS, MINPTS, false)
            .err()
            .and_then(|e| e.code());
        assert_eq!(refused, Some(ErrorCode::Draining), "submit via {door}");
        let refused = svc.append(ds, &ONE).err().and_then(|e| e.code());
        assert_eq!(refused, Some(ErrorCode::Draining), "append via {door}");
        // (The router's own /healthz reports the router, not its backend.)
        if *door != COPIES[2] {
            assert!(svc.healthz().unwrap().draining, "{door}");
        }
    }
    for (door, addr) in fleet.http_doors() {
        for raw in [&submit_raw, &append_raw] {
            assert_eq!(
                raw_refusal(addr, raw),
                (503, Some(ErrorCode::Draining), None),
                "{door}"
            );
        }
    }
    drop(doors);

    // 503 unavailable: the router's backend is gone.
    let Fleet {
        mut daemon,
        mut router,
        ..
    } = fleet;
    daemon.shutdown();
    assert_eq!(
        raw_refusal(router.http_addr(), &submit_raw),
        (503, Some(ErrorCode::Unavailable), Some("1".into()))
    );
    let mut routed = HttpClient::connect(router.http_addr()).unwrap();
    let refused = DatasetService::submit(&mut routed, ds, EPS, MINPTS, false).unwrap_err();
    assert_eq!(refused.code(), Some(ErrorCode::Unavailable));
    router.shutdown();
}

#[test]
fn overload_sheds_with_the_same_typed_hint_on_every_door() {
    // One job in the dispatcher's batch window, one in the queue: of six
    // submissions released together, at least four are shed.
    let fleet = Fleet::start(ServiceConfig {
        queue_cap: 1,
        batch_window: Duration::from_millis(1500),
        ..ServiceConfig::default()
    });
    let doors: Vec<_> = fleet.doors().into_iter().chain(fleet.doors()).collect();
    let barrier = Barrier::new(doors.len() + 2);
    let (typed, raw) = std::thread::scope(|scope| {
        let typed: Vec<_> = doors
            .into_iter()
            .map(|(door, mut svc)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    (door, svc.submit(COPIES[3], EPS, MINPTS, false))
                })
            })
            .collect();
        let raw: Vec<_> = fleet
            .http_doors()
            .into_iter()
            .map(|(door, addr)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let body = format!(r#"{{"dataset":"{}","eps":2,"minpts":4}}"#, COPIES[3]);
                    barrier.wait();
                    (
                        door,
                        raw_refusal(addr, &request("POST", "/v1/submit", Some(&body))),
                    )
                })
            })
            .collect();
        (
            typed
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
            raw.into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>(),
        )
    });
    let mut shed = 0;
    for (door, outcome) in typed {
        match outcome {
            Ok(_) => {}
            Err(ClientError::Overloaded {
                retry_after,
                message,
            }) => {
                shed += 1;
                assert_eq!(retry_after, Some(Duration::from_secs(1)), "{door}");
                assert!(message.starts_with("retry-after=1 "), "{door}: {message}");
            }
            Err(other) => panic!("{door}: expected Ok or Overloaded, got {other}"),
        }
    }
    for (door, (status, code, retry)) in raw {
        if status != 200 {
            shed += 1;
            assert_eq!(
                (status, code, retry.as_deref()),
                (503, Some(ErrorCode::Overloaded), Some("1")),
                "{door}"
            );
        }
    }
    assert!(
        shed >= 6,
        "queue_cap 1 admits at most two of eight, shed {shed}"
    );
    fleet.stop();
}
