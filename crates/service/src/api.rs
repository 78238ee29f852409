//! The typed request/reply model every door speaks, and the one trait
//! both clients implement.
//!
//! The daemon core ([`crate::daemon`]) answers these types and nothing
//! else; the line codec ([`crate::protocol`]) and the HTTP codec
//! ([`crate::http`]) turn them into bytes and back. What lives here:
//!
//! - the replies: [`SubmitReply`], [`AppendReply`], [`WatchReply`], the
//!   [`Delta`] push, and [`Health`];
//! - the refusals: [`ErrorCode`] (the wire tokens) and `Rejection`
//!   (code + message + backoff hint — everything a door needs to render
//!   one);
//! - the argument rules: `check_variant` and `check_batch`, the only
//!   place a `(ε, minpts)` pair or a point batch off either wire is
//!   judged;
//! - [`DatasetService`]: the six verbs every daemon door answers, with
//!   the same typed replies and the same [`ClientError`] taxonomy on
//!   both transports. `Client` implements it over the line protocol,
//!   `HttpClient` over HTTP/1.1; the router's backend pool
//!   ([`crate::pool`]) is written against the trait.
//!
//! Admission backpressure surfaces as [`ClientError::Overloaded`] with
//! the server's parsed `Retry-After` hint on both transports (the HTTP
//! header, or the line protocol's `retry-after=N` message token), so
//! backoff logic written once works against either door.

use std::fmt;

use variantdbscan::Variant;
use vbp_geom::Point2;

use crate::client::ClientError;

/// Typed rejection codes carried in `ERR` responses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line did not parse.
    BadRequest,
    /// `SUBMIT` named a dataset the registry does not hold.
    UnknownDataset,
    /// Admission control: the bounded queue is full.
    Overloaded,
    /// The server is shutting down and no longer admits work.
    Draining,
    /// The request failed inside the engine (should not happen).
    Internal,
    /// The byte stream itself broke framing rules (oversized line,
    /// invalid UTF-8) — the offending line was discarded and the
    /// connection resynchronized at the next newline.
    Protocol,
    /// A proxy (the router) could not reach the backend that owns the
    /// named dataset. Never emitted by a daemon itself; carried in the
    /// router's `503 + Retry-After` answers so callers can tell "the
    /// owner is down" apart from "the owner is overloaded".
    Unavailable,
}

impl ErrorCode {
    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownDataset => "unknown-dataset",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Draining => "draining",
            ErrorCode::Internal => "internal",
            ErrorCode::Protocol => "protocol",
            ErrorCode::Unavailable => "unavailable",
        }
    }

    /// Parses a wire token.
    pub fn from_str_token(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-request" => ErrorCode::BadRequest,
            "unknown-dataset" => ErrorCode::UnknownDataset,
            "overloaded" => ErrorCode::Overloaded,
            "draining" => ErrorCode::Draining,
            "internal" => ErrorCode::Internal,
            "protocol" => ErrorCode::Protocol,
            "unavailable" => ErrorCode::Unavailable,
            _ => return None,
        })
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A refused request, protocol-free: the typed code, the human-readable
/// detail, and the backoff hint in whole seconds when there is one. The
/// line door renders it as `ERR <code> <message>`; the HTTP doors as the
/// code's status, a JSON error body, and a `Retry-After` header.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Rejection {
    pub(crate) code: ErrorCode,
    pub(crate) message: String,
    pub(crate) retry_after: Option<u64>,
}

impl Rejection {
    pub(crate) fn new(code: ErrorCode, message: impl Into<String>) -> Rejection {
        Rejection {
            code,
            message: message.into(),
            retry_after: None,
        }
    }

    /// A retryable refusal. The hint travels twice: typed (the HTTP
    /// header) and as the `retry-after=N` message token the line
    /// protocol's clients parse.
    pub(crate) fn retry_in(code: ErrorCode, secs: u64, detail: &str) -> Rejection {
        Rejection {
            code,
            message: format!("retry-after={secs} {detail}"),
            retry_after: Some(secs),
        }
    }

    pub(crate) fn unknown_dataset(dataset: &str) -> Rejection {
        Rejection::new(
            ErrorCode::UnknownDataset,
            format!("dataset '{dataset}' is not registered"),
        )
    }

    pub(crate) fn draining() -> Rejection {
        Rejection::new(ErrorCode::Draining, "server is shutting down")
    }
}

/// Which rule a request argument broke; each codec words it for its own
/// wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BadArg {
    /// ε is not finite and positive.
    Eps,
    /// minpts is not an integer of at least 1.
    Minpts,
    /// minpts exceeds `u32::MAX` (point ids are `u32`, so no
    /// neighbourhood can ever reach it).
    MinptsTooLarge,
    /// An `APPEND` batch with no points.
    EmptyBatch,
    /// An `APPEND` coordinate that is NaN or infinite.
    NonFinite,
}

/// Judges a `(ε, minpts)` pair off either wire. `minpts` arrives as the
/// wider of the two doors' number types: JSON numbers are `f64`, and
/// every integer the line protocol can hold that passes this check is
/// exact in one.
pub(crate) fn check_variant(eps: f64, minpts: f64) -> Result<Variant, BadArg> {
    if !eps.is_finite() || eps <= 0.0 {
        return Err(BadArg::Eps);
    }
    if minpts.fract() != 0.0 || minpts < 1.0 {
        return Err(BadArg::Minpts);
    }
    if minpts > f64::from(u32::MAX) {
        return Err(BadArg::MinptsTooLarge);
    }
    Ok(Variant::new(eps, minpts as usize))
}

/// Judges an `APPEND` batch off either wire: non-empty, every
/// coordinate finite.
pub(crate) fn check_batch(points: &[Point2]) -> Result<(), BadArg> {
    if points.is_empty() {
        return Err(BadArg::EmptyBatch);
    }
    if points.iter().any(|p| !p.x.is_finite() || !p.y.is_finite()) {
        return Err(BadArg::NonFinite);
    }
    Ok(())
}

/// The answer to a successful `SUBMIT`.
#[derive(Clone, Debug, PartialEq)]
pub struct SubmitReply {
    /// Clusters found.
    pub clusters: usize,
    /// Noise points.
    pub noise: usize,
    /// `true` when the variant reused a *cached* (cross-run) result.
    pub warm: bool,
    /// `true` when it reused any completed result (cached or in-batch).
    pub reused: bool,
    /// Server-side engine time for the batch this request rode in.
    pub ms: f64,
    /// Labels in submission point order, when requested.
    pub labels: Option<Vec<u32>>,
}

/// The answer to a successful `APPEND`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AppendReply {
    /// Points inserted by this batch.
    pub appended: usize,
    /// Dataset size after the batch.
    pub total: usize,
    /// Cache entries incrementally repaired (extended in place).
    pub repaired: usize,
    /// Cache entries dropped because the batch touched their ε-region.
    pub dropped: usize,
    /// Server-side append time.
    pub ms: f64,
}

/// The answer to a successful `WATCH`: the census at subscription time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchReply {
    /// Clusters at subscription time.
    pub clusters: usize,
    /// Noise points at subscription time.
    pub noise: usize,
}

/// One `DELTA` push line, parsed.
#[derive(Clone, Debug, PartialEq)]
pub struct Delta {
    /// Dataset the delta describes.
    pub dataset: String,
    /// ε of the watched variant.
    pub eps: f64,
    /// minpts of the watched variant.
    pub minpts: usize,
    /// Points the triggering append inserted.
    pub appended: usize,
    /// Clusters born in this batch (no pre-batch core among members).
    pub new: usize,
    /// Previously-distinct clusters merged away by this batch.
    pub absorbed: usize,
    /// Points promoted to core by this batch.
    pub promoted: usize,
    /// Census after the batch.
    pub clusters: usize,
    /// Noise count after the batch.
    pub noise: usize,
}

/// One liveness probe answer, shared by both transports.
///
/// `reachable` is implied by `Ok(_)` (an unreachable daemon answers
/// `Err`); the flag that matters is `draining` — a draining daemon
/// still answers reads but admits no new work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Health {
    /// The daemon is still admitting work.
    pub accepting: bool,
    /// The daemon is shutting down (reads still answered).
    pub draining: bool,
}

/// The transport-agnostic surface of one `vbp-service` daemon.
///
/// Implemented by [`Client`](crate::client::Client) (line protocol) and
/// [`HttpClient`](crate::http::HttpClient) (HTTP/1.1 gateway) with
/// identical semantics: same typed replies, same [`ClientError`]
/// taxonomy, same [`ErrorCode`] tokens on
/// rejection. Methods take `&mut self` because both implementations own
/// one sequential connection.
pub trait DatasetService {
    /// Clusters one `(ε, minpts)` variant on a named dataset.
    fn submit(
        &mut self,
        dataset: &str,
        eps: f64,
        minpts: usize,
        want_labels: bool,
    ) -> Result<SubmitReply, ClientError>;

    /// Streams a batch of points into a registered dataset.
    fn append(&mut self, dataset: &str, points: &[Point2]) -> Result<AppendReply, ClientError>;

    /// Lists registered datasets as `(name, points)` pairs.
    fn datasets(&mut self) -> Result<Vec<(String, usize)>, ClientError>;

    /// The service counters as one JSON document.
    fn stats_json(&mut self) -> Result<String, ClientError>;

    /// The Prometheus-style text exposition.
    fn metrics(&mut self) -> Result<String, ClientError>;

    /// Liveness probe: is the daemon answering, and is it draining?
    fn healthz(&mut self) -> Result<Health, ClientError>;
}

/// Parses the typed backoff hint out of an overloaded rejection.
///
/// Both doors spell the hint the same way in their message text — a
/// `retry-after=N` token (whole seconds) — and the HTTP door *also*
/// sends the standard `Retry-After: N` header; callers of this helper
/// pass whichever text they have. Absent or unparseable hints answer
/// `None` (back off with your own policy), never an error: the hint is
/// advisory.
pub fn parse_retry_after(message: &str) -> Option<std::time::Duration> {
    message.split_ascii_whitespace().find_map(|tok| {
        tok.strip_prefix("retry-after=")?
            .parse::<u64>()
            .ok()
            .map(std::time::Duration::from_secs)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn retry_after_token_parses_from_any_position() {
        assert_eq!(
            parse_retry_after("retry-after=1 queue full"),
            Some(Duration::from_secs(1))
        );
        assert_eq!(
            parse_retry_after("queue full retry-after=30"),
            Some(Duration::from_secs(30))
        );
        assert_eq!(parse_retry_after("retry-after=0"), Some(Duration::ZERO));
    }

    #[test]
    fn missing_or_malformed_hint_is_none_not_an_error() {
        for msg in [
            "queue full",
            "",
            "retry-after=",
            "retry-after=soon",
            "retry-after=-1",
            "retry-after=1.5",
            "Retry-After=1", // the token is lowercase on the wire
        ] {
            assert_eq!(parse_retry_after(msg), None, "{msg:?}");
        }
    }
}
