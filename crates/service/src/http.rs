//! The HTTP/1.1 front end — one framing layer, one route table, one
//! keep-alive connection loop, shared by the daemon's gateway and the
//! router — plus the daemon's own door behind it and a blocking client
//! in front of it.
//!
//! `serve_http` frames requests off a [`Transport`], resolves each
//! through `Route::parse` (which owns the `404`/`405 + Allow`
//! answers), hands valid routes to a `FnMut(Route, &[u8]) -> Response`
//! handler, and writes the `Response`. The daemon's handler is
//! `daemon_route` — *parse → call the core → render*; the router's
//! lives in [`crate::router`]. Bodies, replies and errors are spelled by
//! [`crate::wire`] on both sides of the socket. Hand-rolled and
//! `std`-only (the build environment is offline), on the same
//! [`Transport`] seam as the line protocol, so the whole fault battery
//! (scripted byte schedules, torn writes, mid-stream cuts) drives it too.
//!
//! # Framing posture
//!
//! Request framing is bounded everywhere, with
//! [`LineIo`](crate::transport::LineIo)'s chunked-read /
//! timeout-as-event discipline:
//!
//! - request line over [`MAX_REQUEST_LINE_BYTES`] ⇒ `400` and close;
//! - header block over [`MAX_HEADER_BYTES`] or more than
//!   [`MAX_HEADERS`] headers ⇒ `431` and close;
//! - declared body over [`MAX_BODY_BYTES`] ⇒ `413` and close;
//! - anything unframeable (bare `LF` line endings are tolerated) ⇒ a
//!   typed status and close, never unbounded buffering and never a hung
//!   handler.
//!
//! Every framing violation counts one `protocol_errors` tick — the same
//! accounting a garbage line costs the line protocol.
//!
//! # Status mapping
//!
//! Both doors make the same `Shared` calls, so an HTTP submission's
//! labels are the line protocol's for the same `(dataset, ε, minpts)`,
//! and a refusal travels under the status of its [`ErrorCode`]:
//!
//! | condition                  | line protocol      | HTTP              |
//! |----------------------------|--------------------|-------------------|
//! | malformed framing          | `ERR protocol`     | `400`/`431`/`413` |
//! | bad JSON / bad params      | `ERR bad-request`  | `400`             |
//! | unknown dataset            | `ERR unknown-dataset` | `404`          |
//! | queue full                 | `ERR overloaded`   | `503` + `Retry-After: 1` |
//! | draining                   | `ERR draining`     | `503`             |
//! | backend unreachable (router only) | —           | `503` + `Retry-After` |
//! | engine failure / timeout   | `ERR internal`     | `500`             |
//!
//! Error bodies are JSON `{"error": <wire token>, "message": …}` with
//! the line protocol's exact [`ErrorCode`] tokens. `GET /metrics` renders
//! from one stats copy under the stats lock, so the admission invariant
//! holds inside any single scrape, as it does for `METRICS`.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use variantdbscan::{parse_json, JsonObject, JsonValue};
use vbp_geom::Point2;

use crate::api::{AppendReply, DatasetService, ErrorCode, Health, Rejection, SubmitReply};
use crate::client::ClientError;
use crate::daemon::Shared;
use crate::transport::{Transport, POLL_INTERVAL};
use crate::wire;

/// Hard cap on one line-protocol request line (bytes, newline
/// excluded); a longer line costs `ERR protocol` and is discarded.
pub const MAX_LINE_BYTES: usize = 8192;
/// Hard cap on the request line (method + target + version), bytes.
pub const MAX_REQUEST_LINE_BYTES: usize = 4096;
/// Hard cap on the header block (request line excluded), bytes.
pub const MAX_HEADER_BYTES: usize = 8192;
/// Hard cap on the number of header fields.
pub const MAX_HEADERS: usize = 64;
/// Hard cap on a declared request body, bytes.
pub const MAX_BODY_BYTES: usize = 1 << 20;
/// Cap on a response body the bundled [`HttpClient`] will accept, bytes.
/// Deliberately larger than [`MAX_BODY_BYTES`]: a `labels=true` submit
/// reply (labels array + embedded RunReport) legitimately exceeds the
/// request-side cap on large datasets.
pub const MAX_CLIENT_RESPONSE_BYTES: usize = 64 << 20;

// ---------------------------------------------------------------------------
// Request framing
// ---------------------------------------------------------------------------

/// One framed request head.
struct HttpRequest {
    method: String,
    target: String,
    keep_alive: bool,
    expect_continue: bool,
    content_length: usize,
}

/// What reading one request produced.
enum ReadOutcome {
    /// A well-framed head; the body (if any) is read separately.
    Request(HttpRequest),
    /// A framing violation: answer `status` once, then close.
    Malformed { status: u16, message: String },
    /// EOF (clean between requests, or torn mid-head — either way the
    /// connection is over; a partial head is dropped, never parsed).
    Closed,
    /// The stop flag was observed at a read-timeout poll.
    Stopped,
}

/// Bounded HTTP framing over any [`Transport`], plus response writes.
struct HttpIo<T> {
    transport: T,
    /// Received but unconsumed bytes (keep-alive pipelining leftover).
    buf: Vec<u8>,
}

impl<T: Transport> HttpIo<T> {
    fn new(transport: T) -> HttpIo<T> {
        HttpIo {
            transport,
            buf: Vec::new(),
        }
    }

    /// Reads until `self.buf` satisfies `ready` (which answers how many
    /// bytes are consumable) or a cap/EOF/stop intervenes.
    fn fill_until(
        &mut self,
        stop: &AtomicBool,
        ready: impl Fn(&[u8]) -> Option<usize>,
        over_cap: impl Fn(&[u8]) -> Option<(u16, String)>,
    ) -> Result<usize, ReadOutcome> {
        loop {
            if let Some(n) = ready(&self.buf) {
                return Ok(n);
            }
            if let Some((status, message)) = over_cap(&self.buf) {
                return Err(ReadOutcome::Malformed { status, message });
            }
            let mut chunk = [0u8; 4096];
            match self.transport.read(&mut chunk) {
                Ok(0) => return Err(ReadOutcome::Closed),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if stop.load(Ordering::Acquire) {
                        return Err(ReadOutcome::Stopped);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return Err(ReadOutcome::Closed),
            }
        }
    }

    /// Frames one request head. Leading blank lines (a tolerated client
    /// sloppiness after a previous body) are skipped.
    fn read_request(&mut self, stop: &AtomicBool) -> ReadOutcome {
        // Drop blank lines before the request line so `curl`-style
        // keep-alive reuse with stray CRLFs still frames.
        loop {
            match self.buf.first() {
                Some(b'\r') if self.buf.get(1) == Some(&b'\n') => {
                    self.buf.drain(..2);
                }
                Some(b'\n') => {
                    self.buf.drain(..1);
                }
                Some(b'\r') if self.buf.len() == 1 => {
                    // Need one more byte to decide; fall through to the
                    // head read below (a lone CR is never a valid head
                    // start, the parser rejects it).
                    break;
                }
                _ => break,
            }
        }
        let head_end = match self.fill_until(stop, find_head_end, |buf| {
            let line_done = buf.contains(&b'\n');
            if !line_done && buf.len() > MAX_REQUEST_LINE_BYTES + 2 {
                Some((
                    400,
                    format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                ))
            } else if buf.len() > MAX_REQUEST_LINE_BYTES + MAX_HEADER_BYTES {
                Some((
                    431,
                    format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
                ))
            } else {
                None
            }
        }) {
            Ok(n) => n,
            Err(outcome) => {
                // Between requests, a clean EOF is just the peer
                // hanging up; distinguish it from a torn head so the
                // caller does not count it as a violation.
                return outcome;
            }
        };
        let head: Vec<u8> = self.buf.drain(..head_end).collect();
        parse_head(&head)
    }

    /// Reads exactly `len` body bytes (the head's `Content-Length`).
    fn read_body(&mut self, len: usize, stop: &AtomicBool) -> Result<Vec<u8>, ReadOutcome> {
        let got = self.fill_until(stop, |buf| (buf.len() >= len).then_some(len), |_| None)?;
        Ok(self.buf.drain(..got).collect())
    }

    fn write_all(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.transport.write_all(bytes)
    }

    fn close(&mut self) {
        self.transport.close();
    }
}

/// Index one past the blank line ending the head, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut i = 0;
    while let Some(rel) = buf[i..].iter().position(|&b| b == b'\n') {
        let nl = i + rel;
        let mut line_end = nl;
        if line_end > i && buf[line_end - 1] == b'\r' {
            line_end -= 1;
        }
        if i > 0 && line_end == i {
            return Some(nl + 1);
        }
        i = nl + 1;
    }
    None
}

/// Parses a complete head (request line + headers + blank line).
fn parse_head(head: &[u8]) -> ReadOutcome {
    let malformed = |status: u16, _reason: &'static str, message: String| ReadOutcome::Malformed {
        status,
        message,
    };
    let Ok(text) = std::str::from_utf8(head) else {
        return malformed(400, "Bad Request", "head is not valid UTF-8".into());
    };
    let mut lines = text
        .split('\n')
        .map(|l| l.strip_suffix('\r').unwrap_or(l))
        .filter(|l| !l.is_empty());
    let Some(request_line) = lines.next() else {
        return malformed(400, "Bad Request", "empty request head".into());
    };
    if request_line.len() > MAX_REQUEST_LINE_BYTES {
        return malformed(
            400,
            "Bad Request",
            format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
        );
    }
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let (Some(method), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return malformed(400, "Bad Request", "malformed request line".into());
    };
    if !version.starts_with("HTTP/1.") {
        return malformed(
            400,
            "Bad Request",
            format!("unsupported protocol '{version}'"),
        );
    }
    // HTTP/1.0 defaults to close, HTTP/1.1 to keep-alive.
    let mut keep_alive = version != "HTTP/1.0";
    let mut expect_continue = false;
    let mut content_length: Option<usize> = None;
    let mut header_count = 0usize;
    let mut header_bytes = 0usize;
    for line in lines {
        header_count += 1;
        header_bytes += line.len() + 2;
        if header_count > MAX_HEADERS {
            return malformed(
                431,
                "Request Header Fields Too Large",
                format!("more than {MAX_HEADERS} header fields"),
            );
        }
        if header_bytes > MAX_HEADER_BYTES {
            return malformed(
                431,
                "Request Header Fields Too Large",
                format!("header block exceeds {MAX_HEADER_BYTES} bytes"),
            );
        }
        let Some((name, value)) = line.split_once(':') else {
            return malformed(400, "Bad Request", format!("malformed header '{line}'"));
        };
        // RFC 9112 §5.1: whitespace between the field name and colon must
        // be rejected — intermediaries disagree on how to parse it, which
        // turns "Content-Length : 5" into a request-smuggling vector.
        if name.ends_with([' ', '\t']) {
            return malformed(400, "Bad Request", format!("malformed header '{line}'"));
        }
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name.is_empty() || name.contains(' ') {
            return malformed(400, "Bad Request", format!("malformed header '{line}'"));
        }
        match name.as_str() {
            "content-length" => {
                // RFC 9110 limits Content-Length to DIGIT only; usize's
                // FromStr also accepts "+5", which a fronting proxy may
                // frame differently (smuggling vector).
                if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                    return malformed(400, "Bad Request", format!("bad content-length '{value}'"));
                }
                let Ok(n) = value.parse::<usize>() else {
                    return malformed(400, "Bad Request", format!("bad content-length '{value}'"));
                };
                if content_length.is_some_and(|prev| prev != n) {
                    return malformed(400, "Bad Request", "conflicting content-length".into());
                }
                if n > MAX_BODY_BYTES {
                    return malformed(
                        413,
                        "Content Too Large",
                        format!("body exceeds {MAX_BODY_BYTES} bytes"),
                    );
                }
                content_length = Some(n);
            }
            "transfer-encoding" => {
                // Chunked bodies are unbounded-by-construction; the
                // gateway only frames declared lengths.
                return malformed(
                    400,
                    "Bad Request",
                    "transfer-encoding is not supported".into(),
                );
            }
            "connection" => {
                for token in value.split(',') {
                    match token.trim().to_ascii_lowercase().as_str() {
                        "close" => keep_alive = false,
                        "keep-alive" => keep_alive = true,
                        _ => {}
                    }
                }
            }
            "expect" => {
                if value.eq_ignore_ascii_case("100-continue") {
                    expect_continue = true;
                } else {
                    return malformed(400, "Bad Request", format!("unsupported expect '{value}'"));
                }
            }
            _ => {}
        }
    }
    ReadOutcome::Request(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        keep_alive,
        expect_continue,
        content_length: content_length.unwrap_or(0),
    })
}

// ---------------------------------------------------------------------------
// Routes and responses
// ---------------------------------------------------------------------------

/// A request the HTTP surface answers — the daemon's and the router's
/// alike.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route<'a> {
    /// `GET /healthz`
    Healthz,
    /// `GET /v1/datasets`
    Datasets,
    /// `GET /v1/datasets/<name>` — so a router (or curl) can ask one
    /// daemon whether it owns a dataset without listing everything.
    Dataset(&'a str),
    /// `GET /v1/stats`
    Stats,
    /// `GET /metrics`
    Metrics,
    /// `POST /v1/submit`
    Submit,
    /// `POST /v1/append`
    Append,
}

impl<'a> Route<'a> {
    /// The route table. A known path under the wrong method answers
    /// `405` with an `Allow` header; anything else `404`.
    pub(crate) fn parse(method: &str, target: &'a str) -> Result<Route<'a>, Response> {
        let only = |allowed: &'static str| {
            let message = format!("{target} only supports {allowed}");
            let mut response = Response::error(405, ErrorCode::BadRequest, &message);
            response.header = Some(("Allow", allowed.into()));
            Err(response)
        };
        if let Some(name) = target
            .strip_prefix("/v1/datasets/")
            .filter(|name| !name.is_empty())
        {
            return if method == "GET" {
                Ok(Route::Dataset(name))
            } else {
                only("GET")
            };
        }
        match (method, target) {
            ("GET", "/healthz") => Ok(Route::Healthz),
            ("GET", "/v1/datasets") => Ok(Route::Datasets),
            ("GET", "/v1/stats") => Ok(Route::Stats),
            ("GET", "/metrics") => Ok(Route::Metrics),
            ("POST", "/v1/submit") => Ok(Route::Submit),
            ("POST", "/v1/append") => Ok(Route::Append),
            (_, "/healthz" | "/v1/datasets" | "/v1/stats" | "/metrics") => only("GET"),
            (_, "/v1/submit" | "/v1/append") => only("POST"),
            _ => Err(Response::error(
                404,
                ErrorCode::BadRequest,
                &format!("no route for {target}"),
            )),
        }
    }
}

/// The status code a typed [`ErrorCode`] travels under — the table in
/// the module docs, used by the daemon's door and by the router when it
/// relays a backend's refusal, so a refusal crosses the proxy hop
/// without losing its status.
fn status_for(code: ErrorCode) -> u16 {
    match code {
        ErrorCode::BadRequest | ErrorCode::Protocol => 400,
        ErrorCode::UnknownDataset => 404,
        ErrorCode::Overloaded | ErrorCode::Draining | ErrorCode::Unavailable => 503,
        ErrorCode::Internal => 500,
    }
}

fn reason_for(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Content Too Large",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Response",
    }
}

/// One answer, ready to write.
#[derive(Debug)]
pub(crate) struct Response {
    pub(crate) status: u16,
    content_type: &'static str,
    body: String,
    /// The one extra header an answer may carry: `Allow` on a `405`,
    /// `Retry-After` on a retryable `503`.
    header: Option<(&'static str, String)>,
}

impl Response {
    /// `200` with a JSON body.
    pub(crate) fn json(body: String) -> Response {
        Response::json_with(200, body)
    }

    /// A JSON body under an explicit status (the router's quorum
    /// `/healthz` answers `503` with an ordinary document).
    pub(crate) fn json_with(status: u16, body: String) -> Response {
        Response {
            status,
            content_type: "application/json",
            body,
            header: None,
        }
    }

    /// `200` with a Prometheus text exposition.
    pub(crate) fn metrics(body: String) -> Response {
        Response {
            content_type: "text/plain; version=0.0.4",
            ..Response::json(body)
        }
    }

    /// A typed JSON error body under `status`.
    pub(crate) fn error(status: u16, code: ErrorCode, message: &str) -> Response {
        Response::json_with(status, wire::error_body(code, message))
    }

    /// A [`Rejection`] under its code's status, with its backoff hint as
    /// a `Retry-After` header (the message carries the same hint as the
    /// `retry-after=N` token the line protocol uses).
    pub(crate) fn rejection(rejection: &Rejection) -> Response {
        Response {
            header: rejection
                .retry_after
                .map(|secs| ("Retry-After", secs.to_string())),
            ..Response::error(
                status_for(rejection.code),
                rejection.code,
                &rejection.message,
            )
        }
    }
}

/// Writes one complete response (status line, headers, body) in a
/// single `write_all`. Every response carries an exact
/// `Content-Length` and an explicit `Connection` header, so clients
/// (and the fuzz validator) can frame it without sniffing.
fn write_response<T: Transport>(
    io: &mut HttpIo<T>,
    response: &Response,
    keep_alive: bool,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let Response {
        status,
        content_type,
        body,
        header,
    } = response;
    let mut head = String::with_capacity(128);
    let _ = write!(head, "HTTP/1.1 {status} {}\r\n", reason_for(*status));
    let _ = write!(head, "Content-Type: {content_type}\r\n");
    let _ = write!(head, "Content-Length: {}\r\n", body.len());
    let _ = write!(
        head,
        "Connection: {}\r\n",
        if keep_alive { "keep-alive" } else { "close" }
    );
    if let Some((name, value)) = header {
        let _ = write!(head, "{name}: {value}\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body.as_bytes());
    io.write_all(&out)
}

// ---------------------------------------------------------------------------
// Connection loop
// ---------------------------------------------------------------------------

/// What [`serve_http`] tells its owner's ledger about a connection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exchange {
    /// A framing violation was answered with its typed status.
    Malformed,
    /// A well-framed request is about to be routed and answered.
    Begin,
    /// That request was answered; `ok` means a status below 400 reached
    /// the wire.
    End {
        /// Whether a success status was written.
        ok: bool,
    },
}

/// Per-connection request loop of an HTTP door, over any [`Transport`].
/// Keep-alive: well-formed exchanges loop; a framing violation answers
/// one typed status and closes; EOF, a fatal I/O error, or the stop flag
/// (noticed at the next [`POLL_INTERVAL`] read timeout) end the loop.
pub(crate) fn serve_http<T: Transport>(
    mut transport: T,
    stop: &AtomicBool,
    mut handler: impl FnMut(Route<'_>, &[u8]) -> Response,
    mut observe: impl FnMut(Exchange),
) {
    let _ = transport.set_read_timeout(Some(POLL_INTERVAL));
    let mut io = HttpIo::new(transport);
    loop {
        match io.read_request(stop) {
            ReadOutcome::Request(req) => {
                if req.expect_continue
                    && req.content_length > 0
                    && io.write_all(b"HTTP/1.1 100 Continue\r\n\r\n").is_err()
                {
                    break;
                }
                // Torn mid-body: nothing was admitted.
                let Ok(body) = io.read_body(req.content_length, stop) else {
                    break;
                };
                // A drain observed now makes this exchange the last on
                // the connection, like the line handler's stop poll.
                let keep_alive = req.keep_alive && !stop.load(Ordering::Acquire);
                observe(Exchange::Begin);
                let response = match Route::parse(&req.method, &req.target) {
                    Ok(route) => handler(route, &body),
                    Err(refusal) => refusal,
                };
                let written = write_response(&mut io, &response, keep_alive).is_ok();
                observe(Exchange::End {
                    ok: written && response.status < 400,
                });
                if !written || !keep_alive {
                    break;
                }
            }
            ReadOutcome::Malformed { status, message } => {
                observe(Exchange::Malformed);
                let refusal = Response::error(status, ErrorCode::Protocol, &message);
                let _ = write_response(&mut io, &refusal, false);
                break;
            }
            ReadOutcome::Closed | ReadOutcome::Stopped => break,
        }
    }
    io.close();
}

// ---------------------------------------------------------------------------
// The daemon's door
// ---------------------------------------------------------------------------

/// Answers one routed request against the daemon core: parse the body,
/// call [`Shared`], render the reply.
pub(crate) fn daemon_route(shared: &Shared, route: Route<'_>, body: &[u8]) -> Response {
    let bad_request = |message: String| {
        shared.note_bad_request();
        Response::error(400, ErrorCode::BadRequest, &message)
    };
    match route {
        Route::Healthz => {
            let draining = shared.is_draining();
            Response::json(
                JsonObject::new()
                    .str("status", if draining { "draining" } else { "ok" })
                    .boolean("draining", draining)
                    .finish(),
            )
        }
        Route::Datasets => {
            let datasets = shared.registry().list();
            let entries = datasets
                .iter()
                .map(|(name, size)| (name.as_str(), *size, None));
            Response::json(
                JsonObject::new()
                    .raw("datasets", &wire::datasets_array(entries))
                    .finish(),
            )
        }
        Route::Dataset(name) => match shared.dataset(name) {
            Ok(entry) => Response::json(wire::dataset_entry(name, entry.index.len(), None)),
            Err(rejection) => Response::rejection(&rejection),
        },
        Route::Stats => Response::json(shared.stats_json()),
        Route::Metrics => Response::metrics(shared.metrics_text()),
        Route::Submit => match wire::parse_submit_body(body) {
            Ok((dataset, variant, labels)) => {
                match shared.submit_wait(dataset, variant, labels, true) {
                    Ok(done) => {
                        Response::json(wire::submit_reply(&done.reply, done.report_json.as_deref()))
                    }
                    Err(rejection) => Response::rejection(&rejection),
                }
            }
            Err(message) => bad_request(message),
        },
        Route::Append => match wire::parse_append_body(body) {
            Ok((dataset, points)) => match shared.append(&dataset, &points) {
                Ok(reply) => Response::json(wire::append_reply(&reply)),
                Err(rejection) => Response::rejection(&rejection),
            },
            Err(message) => bad_request(message),
        },
    }
}

// ---------------------------------------------------------------------------
// Blocking client
// ---------------------------------------------------------------------------

/// A minimal blocking keep-alive HTTP/1.1 client for the gateway, used
/// by the test suites and the benchmark. One client owns one
/// connection; requests on it are sequential.
pub struct HttpClient {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One parsed HTTP response.
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header fields in response order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (panics when it is not — gateway responses
    /// always are).
    pub fn body_str(&self) -> &str {
        std::str::from_utf8(&self.body).expect("response body is UTF-8")
    }

    /// The body parsed as JSON.
    pub fn json(&self) -> Result<JsonValue, String> {
        parse_json(&self.body)
    }
}

impl HttpClient {
    /// Connects (with `TCP_NODELAY`) to a gateway address.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<HttpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(HttpClient {
            stream,
            buf: Vec::new(),
        })
    }

    /// Bounds how long one response read may block.
    pub fn set_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)?;
        self.stream.set_write_timeout(timeout)
    }

    /// `GET` with no body.
    pub fn get(&mut self, path: &str) -> io::Result<HttpResponse> {
        self.request("GET", path, None)
    }

    /// `POST` with a JSON body.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<HttpResponse> {
        self.request("POST", path, Some(body))
    }

    /// One request/response exchange on the kept-alive connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<HttpResponse> {
        use std::fmt::Write as _;
        use std::io::Write as _;
        let mut head = String::with_capacity(128);
        let _ = write!(head, "{method} {path} HTTP/1.1\r\nHost: vbp\r\n");
        if let Some(body) = body {
            let _ = write!(
                head,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                body.len()
            );
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        if let Some(body) = body {
            out.extend_from_slice(body.as_bytes());
        }
        self.stream.write_all(&out)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        use std::io::Read as _;
        let mut chunk = [0u8; 4096];
        match self.stream.read(&mut chunk) {
            Ok(0) => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            Ok(n) => {
                self.buf.extend_from_slice(&chunk[..n]);
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read_response(&mut self) -> io::Result<HttpResponse> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        let head_end = loop {
            if let Some(n) = find_head_end(&self.buf) {
                break n;
            }
            if self.buf.len() > MAX_REQUEST_LINE_BYTES + MAX_HEADER_BYTES {
                return Err(bad("response head exceeds the cap"));
            }
            self.fill()?;
        };
        let head: Vec<u8> = self.buf.drain(..head_end).collect();
        let text = std::str::from_utf8(&head).map_err(|_| bad("response head is not UTF-8"))?;
        let mut lines = text
            .split('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .filter(|l| !l.is_empty());
        let status_line = lines.next().ok_or_else(|| bad("empty response head"))?;
        let mut parts = status_line.splitn(3, ' ');
        let version = parts.next().unwrap_or("");
        if !version.starts_with("HTTP/1.") {
            return Err(bad("not an HTTP/1.x response"));
        }
        let status: u16 = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status code"))?;
        if status == 100 {
            // Interim response (the server acknowledged an Expect this
            // client never sends, but tolerate it): read the real one.
            return self.read_response();
        }
        let mut headers = Vec::new();
        let mut content_length = 0usize;
        for line in lines {
            let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value.parse().map_err(|_| bad("bad content-length"))?;
                if content_length > MAX_CLIENT_RESPONSE_BYTES {
                    return Err(bad("response body exceeds the cap"));
                }
            }
            headers.push((name, value));
        }
        while self.buf.len() < content_length {
            self.fill()?;
        }
        let body: Vec<u8> = self.buf.drain(..content_length).collect();
        Ok(HttpResponse {
            status,
            headers,
            body,
        })
    }
}

// ---------------------------------------------------------------------------
// Typed client surface (the DatasetService impl)
// ---------------------------------------------------------------------------

fn proto_err(msg: impl Into<String>) -> ClientError {
    ClientError::Protocol(msg.into())
}

/// Maps a non-200 gateway answer onto the shared [`ClientError`]
/// taxonomy: the JSON error body carries the line protocol's exact
/// [`ErrorCode`] token, and an `overloaded` rejection's `Retry-After`
/// header (authoritative, with the `retry-after=N` message token as
/// fallback) becomes the typed backoff hint — the same shape the line
/// client produces, so backoff logic is transport-blind.
fn typed_error(resp: &HttpResponse) -> ClientError {
    let Ok(json) = resp.json() else {
        return proto_err(format!("HTTP {} with a non-JSON error body", resp.status));
    };
    match wire::parse_error_body(&json) {
        Some((ErrorCode::Overloaded, message)) => ClientError::Overloaded {
            retry_after: resp
                .header("retry-after")
                .and_then(|v| v.trim().parse::<u64>().ok())
                .map(Duration::from_secs)
                .or_else(|| crate::api::parse_retry_after(&message)),
            message,
        },
        Some((code, message)) => ClientError::Rejected { code, message },
        None => proto_err(format!("HTTP {} with an untyped error body", resp.status)),
    }
}

impl HttpClient {
    /// One exchange's `200` body; anything else is the typed error its
    /// body spells.
    fn ok_body(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Vec<u8>, ClientError> {
        let resp = self.request(method, path, body).map_err(ClientError::Io)?;
        if resp.status != 200 {
            return Err(typed_error(&resp));
        }
        Ok(resp.body)
    }

    /// [`Self::ok_body`] as text.
    fn text(&mut self, path: &str) -> Result<String, ClientError> {
        String::from_utf8(self.ok_body("GET", path, None)?)
            .map_err(|_| proto_err("200 body is not UTF-8"))
    }

    /// [`Self::ok_body`], parsed as JSON and then by `parse`.
    fn typed<R>(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        parse: impl FnOnce(&JsonValue) -> Result<R, String>,
    ) -> Result<R, ClientError> {
        let json = parse_json(&self.ok_body(method, path, body)?)
            .map_err(|e| proto_err(format!("unparseable 200 body: {e}")))?;
        parse(&json).map_err(proto_err)
    }
}

impl DatasetService for HttpClient {
    fn submit(
        &mut self,
        dataset: &str,
        eps: f64,
        minpts: usize,
        want_labels: bool,
    ) -> Result<SubmitReply, ClientError> {
        let body = wire::submit_body(dataset, eps, minpts, want_labels);
        self.typed("POST", "/v1/submit", Some(&body), wire::parse_submit_reply)
    }

    fn append(&mut self, dataset: &str, points: &[Point2]) -> Result<AppendReply, ClientError> {
        let body = wire::append_body(dataset, points);
        self.typed("POST", "/v1/append", Some(&body), wire::parse_append_reply)
    }

    fn datasets(&mut self) -> Result<Vec<(String, usize)>, ClientError> {
        self.typed("GET", "/v1/datasets", None, wire::parse_datasets)
    }

    fn stats_json(&mut self) -> Result<String, ClientError> {
        self.text("/v1/stats")
    }

    fn metrics(&mut self) -> Result<String, ClientError> {
        self.text("/metrics")
    }

    fn healthz(&mut self) -> Result<Health, ClientError> {
        self.typed("GET", "/healthz", None, |json| {
            let draining = json
                .get("draining")
                .and_then(JsonValue::as_bool)
                .ok_or("response is missing boolean 'draining'")?;
            Ok(Health {
                accepting: !draining,
                draining,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_after_header_becomes_the_typed_backoff_hint() {
        // Header present: authoritative, even with no message token.
        let resp = HttpResponse {
            status: 503,
            headers: vec![("retry-after".into(), "7".into())],
            body: wire::error_body(ErrorCode::Overloaded, "queue full").into_bytes(),
        };
        match typed_error(&resp) {
            ClientError::Overloaded {
                retry_after,
                message,
            } => {
                assert_eq!(retry_after, Some(Duration::from_secs(7)));
                assert_eq!(message, "queue full");
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        // No header: the message token is the fallback.
        let resp = HttpResponse {
            status: 503,
            headers: vec![],
            body: wire::error_body(ErrorCode::Overloaded, "retry-after=2 queue full").into_bytes(),
        };
        assert_eq!(
            typed_error(&resp).retry_after(),
            Some(Duration::from_secs(2))
        );
        // Non-overloaded codes keep the plain Rejected shape.
        let resp = HttpResponse {
            status: 503,
            headers: vec![("retry-after".into(), "7".into())],
            body: wire::error_body(ErrorCode::Draining, "server is shutting down").into_bytes(),
        };
        match typed_error(&resp) {
            ClientError::Rejected { code, .. } => assert_eq!(code, ErrorCode::Draining),
            other => panic!("expected Rejected, got {other:?}"),
        }
    }

    #[test]
    fn status_for_inverts_the_admission_mapping() {
        for (code, status) in [
            (ErrorCode::BadRequest, 400),
            (ErrorCode::Protocol, 400),
            (ErrorCode::UnknownDataset, 404),
            (ErrorCode::Overloaded, 503),
            (ErrorCode::Draining, 503),
            (ErrorCode::Unavailable, 503),
            (ErrorCode::Internal, 500),
        ] {
            assert_eq!(status_for(code), status, "{code}");
        }
    }

    #[test]
    fn route_table_answers_200_404_and_405_with_allow() {
        assert_eq!(Route::parse("GET", "/healthz").unwrap(), Route::Healthz);
        assert_eq!(
            Route::parse("GET", "/v1/datasets").unwrap(),
            Route::Datasets
        );
        assert_eq!(
            Route::parse("GET", "/v1/datasets/SW1@5").unwrap(),
            Route::Dataset("SW1@5")
        );
        assert_eq!(Route::parse("GET", "/v1/stats").unwrap(), Route::Stats);
        assert_eq!(Route::parse("GET", "/metrics").unwrap(), Route::Metrics);
        assert_eq!(Route::parse("POST", "/v1/submit").unwrap(), Route::Submit);
        assert_eq!(Route::parse("POST", "/v1/append").unwrap(), Route::Append);
        for (method, target, status, allow) in [
            ("POST", "/healthz", 405, Some("GET")),
            ("DELETE", "/v1/datasets", 405, Some("GET")),
            ("PUT", "/v1/datasets/d", 405, Some("GET")),
            ("POST", "/metrics", 405, Some("GET")),
            ("GET", "/v1/submit", 405, Some("POST")),
            ("GET", "/v1/append", 405, Some("POST")),
            ("GET", "/v1/datasets/", 404, None),
            ("GET", "/", 404, None),
            ("POST", "/v1/nope", 404, None),
        ] {
            let refusal = Route::parse(method, target).unwrap_err();
            assert_eq!(refusal.status, status, "{method} {target}");
            assert_eq!(
                refusal.header.as_ref().map(|(n, v)| (*n, v.as_str())),
                allow.map(|a| ("Allow", a)),
                "{method} {target}"
            );
            assert!(refusal.body.contains("\"error\":\"bad-request\""));
        }
    }

    #[test]
    fn head_end_detection_handles_both_terminators() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(18));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\n\n"), Some(16));
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\nHost: x\r\n"), None);
        assert_eq!(find_head_end(b"GET / HTTP/1.1\nA: b\n\r\n"), Some(22));
    }

    #[test]
    fn parse_head_extracts_framing_fields() {
        let head = b"POST /v1/submit HTTP/1.1\r\nHost: x\r\nContent-Length: 12\r\nConnection: close\r\n\r\n";
        match parse_head(head) {
            ReadOutcome::Request(req) => {
                assert_eq!(req.method, "POST");
                assert_eq!(req.target, "/v1/submit");
                assert_eq!(req.content_length, 12);
                assert!(!req.keep_alive);
                assert!(!req.expect_continue);
            }
            _ => panic!("well-formed head rejected"),
        }
    }

    #[test]
    fn parse_head_rejects_violations_with_typed_statuses() {
        let cases: Vec<(Vec<u8>, u16)> = vec![
            (b"GARBAGE\r\n\r\n".to_vec(), 400),
            (b"GET /x SPDY/3\r\n\r\n".to_vec(), 400),
            (b"GET / HTTP/1.1\r\nbad header line\r\n\r\n".to_vec(), 400),
            (
                b"POST / HTTP/1.1\r\nContent-Length: many\r\n\r\n".to_vec(),
                400,
            ),
            // RFC 9110: Content-Length is DIGIT only — no sign.
            (
                b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n".to_vec(),
                400,
            ),
            // RFC 9112 §5.1: no whitespace between field name and colon.
            (
                b"POST / HTTP/1.1\r\nContent-Length : 5\r\n\r\n".to_vec(),
                400,
            ),
            (
                b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n".to_vec(),
                400,
            ),
            (
                b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".to_vec(),
                400,
            ),
            (
                format!(
                    "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                    MAX_BODY_BYTES + 1
                )
                .into_bytes(),
                413,
            ),
            (
                {
                    let mut head = b"GET / HTTP/1.1\r\n".to_vec();
                    for i in 0..(MAX_HEADERS + 1) {
                        head.extend_from_slice(format!("H{i}: v\r\n").as_bytes());
                    }
                    head.extend_from_slice(b"\r\n");
                    head
                },
                431,
            ),
        ];
        for (head, want) in cases {
            match parse_head(&head) {
                ReadOutcome::Malformed { status, .. } => {
                    assert_eq!(status, want, "head {:?}", String::from_utf8_lossy(&head));
                }
                _ => panic!("accepted {:?}", String::from_utf8_lossy(&head)),
            }
        }
    }
}
