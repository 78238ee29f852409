//! Blocking client for the `vbp-service` line protocol.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use vbp_geom::Point2;

pub use crate::api::{AppendReply, Delta, SubmitReply, WatchReply};
use crate::api::{DatasetService, ErrorCode, Health};
use crate::protocol::{self, Request};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// Socket-level trouble.
    Io(std::io::Error),
    /// Admission backpressure: the server refused the request because
    /// its bounded queue is full, and (when it said so) how long to
    /// back off before retrying. Both transports produce this variant —
    /// the line protocol via a `retry-after=N` message token, HTTP via
    /// the `Retry-After` header — so backoff logic written against the
    /// [`DatasetService`] trait works on
    /// either wire.
    Overloaded {
        /// The server's parsed backoff hint, when it sent one.
        retry_after: Option<Duration>,
        /// Human-readable detail (hint token included, verbatim).
        message: String,
    },
    /// The server answered `ERR` (any code other than `overloaded`,
    /// which gets the typed [`ClientError::Overloaded`] above).
    Rejected {
        /// Typed rejection code.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
    /// The server answered something the protocol does not allow.
    Protocol(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Overloaded { message, .. } => {
                write!(f, "rejected (overloaded): {message}")
            }
            ClientError::Rejected { code, message } => write!(f, "rejected ({code}): {message}"),
            ClientError::Protocol(m) => write!(f, "protocol violation: {m}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// Builds the typed rejection for one `(code, message)` pair, giving
    /// `overloaded` its dedicated variant with the parsed backoff hint.
    /// Both transports funnel their server rejections through here so
    /// the taxonomy cannot drift between wires.
    pub(crate) fn rejected(code: ErrorCode, message: String) -> ClientError {
        if code == ErrorCode::Overloaded {
            ClientError::Overloaded {
                retry_after: crate::api::parse_retry_after(&message),
                message,
            }
        } else {
            ClientError::Rejected { code, message }
        }
    }

    /// Returns the typed rejection code, if this is a server rejection.
    pub fn code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Overloaded { .. } => Some(ErrorCode::Overloaded),
            ClientError::Rejected { code, .. } => Some(*code),
            _ => None,
        }
    }

    /// The server's backoff hint, if this is an overloaded rejection
    /// that carried one.
    pub fn retry_after(&self) -> Option<Duration> {
        match self {
            ClientError::Overloaded { retry_after, .. } => *retry_after,
            _ => None,
        }
    }
}

/// The client-side framing cap: a reply line longer than this is a
/// protocol violation, not something to buffer. Sized for the worst
/// legitimate line (a `LABELS` continuation for a millions-of-points
/// dataset), far under anything a corrupt or hostile server could use
/// to balloon client memory.
const MAX_REPLY_BYTES: u64 = 64 << 20;

/// Reads one newline-terminated line, refusing to buffer more than
/// `cap` bytes of it.
fn bounded_line<R: BufRead>(reader: &mut R, cap: u64) -> Result<String, ClientError> {
    let mut line = String::new();
    let n = reader.by_ref().take(cap).read_line(&mut line)?;
    if n == 0 {
        return Err(ClientError::Protocol("server closed the connection".into()));
    }
    if n as u64 == cap && !line.ends_with('\n') {
        return Err(ClientError::Protocol(format!(
            "reply line exceeded {cap} bytes"
        )));
    }
    Ok(line.trim_end_matches(['\n', '\r']).to_string())
}

/// One connection to a `vbp-service` daemon.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    protocol_version: u32,
    /// `DELTA` pushes that arrived while waiting for a reply; served to
    /// [`Client::poll_delta`] in arrival order.
    pending_deltas: VecDeque<String>,
}

impl Client {
    /// Connects and performs the `HELLO` handshake, remembering the
    /// protocol version the server advertised (see
    /// [`crate::protocol::PROTOCOL_VERSION`]) so version-gated calls like
    /// [`Client::metrics`] can fail with a typed error against an older
    /// daemon instead of a confusing wire rejection.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let reader = BufReader::new(stream.try_clone()?);
        let mut client = Client {
            reader,
            writer: stream,
            protocol_version: 0,
            pending_deltas: VecDeque::new(),
        };
        let line = client.round_trip(&Request::Hello)?;
        if !line.starts_with("vbp-service") {
            return Err(ClientError::Protocol(format!(
                "unexpected HELLO reply '{line}'"
            )));
        }
        // Pre-versioning servers said just `vbp-service`; treat a missing
        // or unparseable number as version 1 (the original verb set).
        client.protocol_version = line
            .split_ascii_whitespace()
            .nth(1)
            .and_then(|tok| tok.parse().ok())
            .unwrap_or(1);
        Ok(client)
    }

    /// The protocol version the server advertised at connect time.
    pub fn protocol_version(&self) -> u32 {
        self.protocol_version
    }

    /// Sets the read timeout for replies (useful against a draining
    /// server).
    pub fn set_timeout(&self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.writer.set_read_timeout(timeout)?;
        Ok(())
    }

    fn send(&mut self, request: &Request) -> Result<(), ClientError> {
        let mut line = request.encode();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(())
    }

    fn read_line(&mut self) -> Result<String, ClientError> {
        bounded_line(&mut self.reader, MAX_REPLY_BYTES)
    }

    /// Sends `request`, returns the `OK` payload or a typed rejection.
    /// `DELTA` pushes arriving ahead of the reply are stashed for
    /// [`Client::poll_delta`] — the server only interleaves them
    /// *between* exchanges, never inside one.
    fn round_trip(&mut self, request: &Request) -> Result<String, ClientError> {
        self.send(request)?;
        loop {
            let line = self.read_line()?;
            if line.starts_with("DELTA ") {
                self.pending_deltas.push_back(line);
                continue;
            }
            if let Some(payload) = line.strip_prefix("OK") {
                return Ok(payload.trim_start().to_string());
            }
            if let Some(rest) = line.strip_prefix("ERR ") {
                let (code_token, message) = rest.split_once(' ').unwrap_or((rest, ""));
                let code = ErrorCode::from_str_token(code_token).ok_or_else(|| {
                    ClientError::Protocol(format!("unknown ERR code '{code_token}'"))
                })?;
                return Err(ClientError::rejected(code, message.to_string()));
            }
            return Err(ClientError::Protocol(format!("unparseable reply '{line}'")));
        }
    }

    /// Lists datasets as `(name, points)` pairs.
    pub fn datasets(&mut self) -> Result<Vec<(String, usize)>, ClientError> {
        let payload = self.round_trip(&Request::Datasets)?;
        protocol::parse_datasets_reply(&payload).map_err(ClientError::Protocol)
    }

    /// Clusters one variant on a named dataset.
    pub fn submit(
        &mut self,
        dataset: &str,
        eps: f64,
        minpts: usize,
        want_labels: bool,
    ) -> Result<SubmitReply, ClientError> {
        let payload = self.round_trip(&Request::Submit {
            dataset: dataset.to_string(),
            eps,
            minpts,
            labels: want_labels,
        })?;
        let mut reply = protocol::parse_submit_reply(&payload).map_err(ClientError::Protocol)?;
        if want_labels {
            let line = self.read_line()?;
            reply.labels = Some(protocol::parse_labels_line(&line).map_err(ClientError::Protocol)?);
        }
        Ok(reply)
    }

    /// Streams a batch of points into a registered dataset (`APPEND`,
    /// protocol version ≥ 3).
    pub fn append(&mut self, dataset: &str, points: &[Point2]) -> Result<AppendReply, ClientError> {
        if self.protocol_version < 3 {
            return Err(ClientError::Protocol(format!(
                "server protocol version {} predates APPEND (needs >= 3)",
                self.protocol_version
            )));
        }
        let payload = self.round_trip(&Request::Append {
            dataset: dataset.to_string(),
            points: points.to_vec(),
        })?;
        protocol::parse_append_reply(&payload).map_err(ClientError::Protocol)
    }

    /// Subscribes this connection to cluster deltas for `(dataset, eps,
    /// minpts)` (`WATCH`, protocol version ≥ 3). Subsequent appends to
    /// the dataset push `DELTA` lines, read via [`Client::poll_delta`].
    pub fn watch(
        &mut self,
        dataset: &str,
        eps: f64,
        minpts: usize,
    ) -> Result<WatchReply, ClientError> {
        if self.protocol_version < 3 {
            return Err(ClientError::Protocol(format!(
                "server protocol version {} predates WATCH (needs >= 3)",
                self.protocol_version
            )));
        }
        let payload = self.round_trip(&Request::Watch {
            dataset: dataset.to_string(),
            eps,
            minpts,
        })?;
        protocol::parse_watch_reply(&payload).map_err(ClientError::Protocol)
    }

    /// Waits up to `timeout` for the next `DELTA` push on this
    /// connection; `Ok(None)` on timeout. Pushes that arrived stashed
    /// behind an earlier reply are returned first, in order.
    pub fn poll_delta(&mut self, timeout: Duration) -> Result<Option<Delta>, ClientError> {
        if let Some(line) = self.pending_deltas.pop_front() {
            return Delta::parse(&line)
                .map(Some)
                .ok_or_else(|| ClientError::Protocol(format!("bad DELTA line '{line}'")));
        }
        self.writer.set_read_timeout(Some(timeout))?;
        let result = bounded_line(&mut self.reader, MAX_REPLY_BYTES);
        let _ = self.writer.set_read_timeout(None);
        match result {
            Ok(line) if line.starts_with("DELTA ") => Delta::parse(&line)
                .map(Some)
                .ok_or_else(|| ClientError::Protocol(format!("bad DELTA line '{line}'"))),
            Ok(line) => Err(ClientError::Protocol(format!(
                "expected a DELTA push, got '{line}'"
            ))),
            Err(ClientError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(None)
            }
            Err(e) => Err(e),
        }
    }

    /// Fetches the service counters as one JSON line.
    pub fn stats_json(&mut self) -> Result<String, ClientError> {
        self.round_trip(&Request::Stats)
    }

    /// Fetches the Prometheus-style text exposition (`METRICS`,
    /// protocol version ≥ 2). The reply is framed as `OK <n>` plus `n`
    /// continuation lines; the returned string joins them with newlines.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        if self.protocol_version < 2 {
            return Err(ClientError::Protocol(format!(
                "server protocol version {} predates METRICS (needs >= 2)",
                self.protocol_version
            )));
        }
        let payload = self.round_trip(&Request::Metrics)?;
        let n: usize = payload
            .trim()
            .parse()
            .map_err(|_| ClientError::Protocol(format!("bad METRICS count '{payload}'")))?;
        let mut out = String::new();
        for _ in 0..n {
            out.push_str(&self.read_line()?);
            out.push('\n');
        }
        Ok(out)
    }

    /// Asks the server to drain and shut down.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.round_trip(&Request::Shutdown).map(|_| ())
    }

    /// Polite connection close.
    pub fn quit(&mut self) {
        let _ = self.send(&Request::Quit);
    }

    /// Liveness probe over the line protocol. The wire has no dedicated
    /// verb; a `STATS` round trip both proves the daemon is answering
    /// and carries the `draining` flag in its JSON document.
    pub fn healthz(&mut self) -> Result<Health, ClientError> {
        let stats = self.stats_json()?;
        let doc = variantdbscan::parse_json(stats.as_bytes())
            .map_err(|e| ClientError::Protocol(format!("unparseable STATS document: {e}")))?;
        let draining = doc
            .get("draining")
            .and_then(variantdbscan::JsonValue::as_bool)
            .ok_or_else(|| ClientError::Protocol("STATS lacks the 'draining' flag".into()))?;
        Ok(Health {
            accepting: !draining,
            draining,
        })
    }
}

impl DatasetService for Client {
    fn submit(
        &mut self,
        dataset: &str,
        eps: f64,
        minpts: usize,
        want_labels: bool,
    ) -> Result<SubmitReply, ClientError> {
        Client::submit(self, dataset, eps, minpts, want_labels)
    }

    fn append(&mut self, dataset: &str, points: &[Point2]) -> Result<AppendReply, ClientError> {
        Client::append(self, dataset, points)
    }

    fn datasets(&mut self) -> Result<Vec<(String, usize)>, ClientError> {
        Client::datasets(self)
    }

    fn stats_json(&mut self) -> Result<String, ClientError> {
        Client::stats_json(self)
    }

    fn metrics(&mut self) -> Result<String, ClientError> {
        Client::metrics(self)
    }

    fn healthz(&mut self) -> Result<Health, ClientError> {
        Client::healthz(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Pins the line-protocol half of the typed-backoff contract: an
    /// `ERR overloaded` whose message carries the `retry-after=N` token
    /// becomes [`ClientError::Overloaded`] with the parsed hint, while
    /// a hint-less message still maps to the typed variant with `None`.
    #[test]
    fn overloaded_rejections_carry_the_typed_backoff_hint() {
        let err = ClientError::rejected(ErrorCode::Overloaded, "retry-after=1 queue full".into());
        assert_eq!(err.code(), Some(ErrorCode::Overloaded));
        assert_eq!(err.retry_after(), Some(Duration::from_secs(1)));
        assert!(
            matches!(&err, ClientError::Overloaded { message, .. } if message.contains("queue full")),
            "{err}"
        );

        let bare = ClientError::rejected(ErrorCode::Overloaded, "queue full".into());
        assert_eq!(bare.code(), Some(ErrorCode::Overloaded));
        assert_eq!(bare.retry_after(), None);

        // Every other code keeps the plain Rejected shape.
        let other = ClientError::rejected(ErrorCode::Draining, "retry-after=1 going down".into());
        assert!(matches!(other, ClientError::Rejected { .. }));
        assert_eq!(other.retry_after(), None);
    }

    #[test]
    fn bounded_line_frames_and_refuses() {
        let mut ok = Cursor::new(b"OK hello\nrest".to_vec());
        assert_eq!(bounded_line(&mut ok, 64).unwrap(), "OK hello");
        assert_eq!(bounded_line(&mut ok, 64).unwrap(), "rest"); // EOF-terminated tail

        let mut eof = Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            bounded_line(&mut eof, 64),
            Err(ClientError::Protocol(_))
        ));

        // A line that is exactly the cap, newline included, still fits.
        let mut exact = Cursor::new(b"abc\n".to_vec());
        assert_eq!(bounded_line(&mut exact, 4).unwrap(), "abc");

        // One past the cap is refused without buffering the rest.
        let mut over = Cursor::new(vec![b'x'; 4096]);
        let err = bounded_line(&mut over, 64).unwrap_err();
        assert!(
            matches!(&err, ClientError::Protocol(m) if m.contains("exceeded 64 bytes")),
            "{err}"
        );
    }
}
