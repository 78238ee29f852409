//! The `vbp-service` line protocol.
//!
//! The build environment is offline, so the wire format is deliberately
//! something `std::net::TcpStream` + `BufRead::read_line` can speak with
//! no external crates: UTF-8 lines, space-separated tokens, one request
//! per line, one response line per request (plus an optional `LABELS`
//! continuation line).
//!
//! # Grammar
//!
//! ```text
//! request  = "HELLO"
//!          | "DATASETS"
//!          | "SUBMIT" SP dataset SP eps SP minpts [SP "LABELS"]
//!          | "APPEND" SP dataset SP x1 SP y1 [SP x2 SP y2 …]
//!          | "WATCH" SP dataset SP eps SP minpts
//!          | "STATS"
//!          | "METRICS"
//!          | "SHUTDOWN"
//!          | "QUIT"
//! response = "OK" [SP payload]
//!          | "ERR" SP code SP message
//! push     = "DELTA" SP dataset SP eps SP minpts SP "appended=" k
//!            SP "new=" n SP "absorbed=" m SP "promoted=" p
//!            SP "clusters=" C SP "noise=" N
//! code     = "bad-request" | "unknown-dataset" | "overloaded"
//!          | "draining" | "internal" | "protocol"
//! ```
//!
//! `HELLO` answers `OK vbp-service <protocol-version>`; the version is an
//! integer clients use for capability detection ([`PROTOCOL_VERSION`] —
//! version 2 added `METRICS`, version 3 added `APPEND`/`WATCH`). `SUBMIT`
//! answers `OK clusters=<n> noise=<n> warm=<0|1> reused=<0|1>
//! ms=<float>`; with the `LABELS` flag the next line is `LABELS <n> <l_0>
//! … <l_{n-1}>` in the submitter's point order (noise is `u32::MAX`).
//! `APPEND` inserts a batch of points into a registered dataset (every
//! coordinate must be finite; an odd coordinate count or an empty batch
//! is `ERR bad-request`) and answers `OK appended=<k> total=<n>
//! repaired=<r> dropped=<d> ms=<float>` — appended points take caller
//! ids continuing the dataset's existing numbering. A torn `APPEND` line
//! (connection cut mid-line) mutates nothing: the framer only delivers
//! complete lines. `WATCH` subscribes this connection to cluster deltas
//! of one `(dataset, ε, minpts)` stream; it answers `OK watching
//! <dataset> <eps> <minpts> clusters=<C> noise=<N>` (the census at
//! subscription time) and thereafter the server pushes one `DELTA` line
//! per applied APPEND batch, interleaved between (never inside)
//! request/response exchanges on the connection. `new`/`absorbed` count
//! cluster births and merge-absorptions so `census + Σnew − Σabsorbed`
//! replays to the final cluster count; `promoted` counts points promoted
//! to core status by the batch. `STATS` answers `OK <json>` with a
//! single-line JSON document. `METRICS` answers `OK <n>` followed by `n`
//! continuation lines of Prometheus-style text exposition (counters and
//! `_bucket{le=…}` histograms derived from the same counters `STATS`
//! reports). `SHUTDOWN` flips the server into draining mode: queued and
//! in-flight requests complete, new `SUBMIT`s/`APPEND`s get `ERR
//! draining`.

use vbp_geom::Point2;

pub use crate::api::ErrorCode;
use crate::api::{
    check_batch, check_variant, AppendReply, BadArg, Delta, Rejection, SubmitReply, WatchReply,
};

/// The protocol version `HELLO` advertises. History: 1 = the original
/// verb set; 2 = added `METRICS`; 3 = added `APPEND`/`WATCH` streaming
/// mutation. Clients gate version-dependent calls on the number they saw
/// at connect time.
pub const PROTOCOL_VERSION: u32 = 3;

/// A parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Protocol handshake; answers the service name and version.
    Hello,
    /// Lists registered datasets.
    Datasets,
    /// Clusters one variant on a named dataset.
    Submit {
        /// Registry key.
        dataset: String,
        /// Variant ε.
        eps: f64,
        /// Variant minpts.
        minpts: usize,
        /// Ask for the full label vector as a continuation line.
        labels: bool,
    },
    /// Inserts a batch of points into a registered dataset (protocol
    /// version ≥ 3). Coordinates are interleaved `x y` pairs; every
    /// value must be finite.
    Append {
        /// Registry key.
        dataset: String,
        /// The batch, in append order.
        points: Vec<Point2>,
    },
    /// Subscribes this connection to cluster-delta pushes for one
    /// `(dataset, ε, minpts)` stream (protocol version ≥ 3).
    Watch {
        /// Registry key.
        dataset: String,
        /// Variant ε.
        eps: f64,
        /// Variant minpts.
        minpts: usize,
    },
    /// Service counters as one JSON line.
    Stats,
    /// Prometheus-style text exposition of service counters and latency
    /// histograms (`OK <n>` + `n` continuation lines). Protocol
    /// version ≥ 2.
    Metrics,
    /// Begin graceful drain.
    Shutdown,
    /// Close this connection.
    Quit,
}

impl Request {
    /// Renders the request as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Request::Hello => "HELLO".into(),
            Request::Datasets => "DATASETS".into(),
            Request::Submit {
                dataset,
                eps,
                minpts,
                labels,
            } => {
                let mut s = format!("SUBMIT {dataset} {eps} {minpts}");
                if *labels {
                    s.push_str(" LABELS");
                }
                s
            }
            Request::Append { dataset, points } => {
                let mut s = format!("APPEND {dataset}");
                for p in points {
                    s.push_str(&format!(" {} {}", p.x, p.y));
                }
                s
            }
            Request::Watch {
                dataset,
                eps,
                minpts,
            } => format!("WATCH {dataset} {eps} {minpts}"),
            Request::Stats => "STATS".into(),
            Request::Metrics => "METRICS".into(),
            Request::Shutdown => "SHUTDOWN".into(),
            Request::Quit => "QUIT".into(),
        }
    }
}

/// Parses `<dataset> <eps> <minpts>` — the shared argument shape of
/// `SUBMIT` and `WATCH` — judging the pair by [`check_variant`].
fn variant_args<'a>(
    verb: &str,
    tokens: &mut impl Iterator<Item = &'a str>,
) -> Result<(String, f64, usize), String> {
    let mut next = |what: &str| tokens.next().ok_or(format!("{verb}: missing {what}"));
    let dataset = next("dataset")?.to_string();
    let eps: f64 = next("eps")?
        .parse()
        .map_err(|_| format!("{verb}: eps is not a number"))?;
    let minpts: u64 = next("minpts")?
        .parse()
        .map_err(|_| format!("{verb}: minpts is not an integer"))?;
    let variant = check_variant(eps, minpts as f64).map_err(|bad| bad_arg(verb, bad))?;
    Ok((dataset, variant.eps, variant.minpts))
}

/// The line protocol's wording of a broken argument rule.
fn bad_arg(verb: &str, bad: BadArg) -> String {
    let rule = match bad {
        BadArg::Eps => "eps must be finite and positive",
        BadArg::Minpts => "minpts must be at least 1",
        BadArg::MinptsTooLarge => "minpts must be at most 4294967295",
        BadArg::EmptyBatch => "missing points",
        BadArg::NonFinite => "coordinates must be finite",
    };
    format!("{verb}: {rule}")
}

/// Parses one request line (without its newline).
pub fn parse_request(line: &str) -> Result<Request, String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    let req = match verb {
        "HELLO" => Request::Hello,
        "DATASETS" => Request::Datasets,
        "STATS" => Request::Stats,
        "METRICS" => Request::Metrics,
        "SHUTDOWN" => Request::Shutdown,
        "QUIT" => Request::Quit,
        "SUBMIT" => {
            let (dataset, eps, minpts) = variant_args(verb, &mut tokens)?;
            let labels = match tokens.next() {
                None => false,
                Some("LABELS") => true,
                Some(t) => return Err(format!("SUBMIT: unexpected token '{t}'")),
            };
            Request::Submit {
                dataset,
                eps,
                minpts,
                labels,
            }
        }
        "APPEND" => {
            let dataset = tokens.next().ok_or("APPEND: missing dataset")?.to_string();
            let coords = tokens
                .by_ref()
                .map(|t| {
                    t.parse::<f64>()
                        .map_err(|_| format!("APPEND: '{t}' is not a number"))
                })
                .collect::<Result<Vec<f64>, String>>()?;
            if coords.len() % 2 != 0 {
                return Err("APPEND: odd coordinate count (need x y pairs)".into());
            }
            let points: Vec<Point2> = coords
                .chunks_exact(2)
                .map(|c| Point2::new(c[0], c[1]))
                .collect();
            check_batch(&points).map_err(|bad| bad_arg(verb, bad))?;
            Request::Append { dataset, points }
        }
        "WATCH" => {
            let (dataset, eps, minpts) = variant_args(verb, &mut tokens)?;
            Request::Watch {
                dataset,
                eps,
                minpts,
            }
        }
        other => return Err(format!("unknown verb '{other}'")),
    };
    if tokens.next().is_some() {
        return Err(format!("{verb}: trailing tokens"));
    }
    Ok(req)
}

/// Renders an `ERR` response line.
pub fn err_line(code: ErrorCode, message: &str) -> String {
    // Keep the message single-line so the framing survives.
    let clean: String = message
        .chars()
        .map(|c| if c == '\n' || c == '\r' { ' ' } else { c })
        .collect();
    format!("ERR {code} {clean}")
}

/// Renders a typed refusal as its `ERR` line.
pub(crate) fn rejection_line(rejection: &Rejection) -> String {
    err_line(rejection.code, &rejection.message)
}

/// Splits an `OK` payload into its `key=value` tokens.
fn reply_fields(payload: &str) -> impl Iterator<Item = Result<(&str, &str), String>> {
    payload.split_ascii_whitespace().map(|tok| {
        tok.split_once('=')
            .ok_or_else(|| format!("bad reply token '{tok}'"))
    })
}

fn reply_num<N: std::str::FromStr>(key: &str, value: &str) -> Result<N, String> {
    value
        .parse()
        .map_err(|_| format!("bad number '{key}={value}'"))
}

/// Renders the `DATASETS` answer: `OK <name>=<points> …`.
pub(crate) fn datasets_line(datasets: &[(String, usize)]) -> String {
    let mut out = String::from("OK");
    for (name, size) in datasets {
        out.push_str(&format!(" {name}={size}"));
    }
    out
}

/// Parses a [`datasets_line`] payload.
pub(crate) fn parse_datasets_reply(payload: &str) -> Result<Vec<(String, usize)>, String> {
    reply_fields(payload)
        .map(|field| {
            let (name, size) = field?;
            Ok((name.to_string(), reply_num(name, size)?))
        })
        .collect()
}

/// Renders a `SUBMIT` answer's head line; the labels, when present,
/// travel on a [`labels_line`] continuation.
pub(crate) fn submit_reply_line(reply: &SubmitReply) -> String {
    format!(
        "OK clusters={} noise={} warm={} reused={} ms={:.3}",
        reply.clusters,
        reply.noise,
        u8::from(reply.warm),
        u8::from(reply.reused),
        reply.ms
    )
}

/// Parses a [`submit_reply_line`] payload (the text after `OK`). Unknown
/// keys are ignored for forward compatibility.
pub(crate) fn parse_submit_reply(payload: &str) -> Result<SubmitReply, String> {
    let mut reply = SubmitReply {
        clusters: 0,
        noise: 0,
        warm: false,
        reused: false,
        ms: 0.0,
        labels: None,
    };
    for field in reply_fields(payload) {
        let (key, value) = field?;
        match key {
            "clusters" => reply.clusters = reply_num(key, value)?,
            "noise" => reply.noise = reply_num(key, value)?,
            "warm" => reply.warm = value == "1",
            "reused" => reply.reused = value == "1",
            "ms" => reply.ms = reply_num(key, value)?,
            _ => {}
        }
    }
    Ok(reply)
}

/// Renders the `LABELS <n> <l_0> … <l_{n-1}>` continuation line.
pub(crate) fn labels_line(labels: &[u32]) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(labels.len() * 7 + 16);
    let _ = write!(out, "LABELS {}", labels.len());
    for l in labels {
        let _ = write!(out, " {l}");
    }
    out
}

/// Parses a [`labels_line`].
pub(crate) fn parse_labels_line(line: &str) -> Result<Vec<u32>, String> {
    let mut tokens = line.split_ascii_whitespace();
    if tokens.next() != Some("LABELS") {
        return Err(format!("expected LABELS line, got '{line}'"));
    }
    let n: usize = tokens
        .next()
        .and_then(|t| t.parse().ok())
        .ok_or("bad LABELS count")?;
    let labels = tokens
        .map(str::parse)
        .collect::<Result<Vec<u32>, _>>()
        .map_err(|_| "non-numeric label")?;
    if labels.len() != n {
        return Err(format!(
            "LABELS promised {n} labels, carried {}",
            labels.len()
        ));
    }
    Ok(labels)
}

/// Renders an `APPEND` answer.
pub(crate) fn append_reply_line(reply: &AppendReply) -> String {
    format!(
        "OK appended={} total={} repaired={} dropped={} ms={:.3}",
        reply.appended, reply.total, reply.repaired, reply.dropped, reply.ms
    )
}

/// Parses an [`append_reply_line`] payload.
pub(crate) fn parse_append_reply(payload: &str) -> Result<AppendReply, String> {
    let mut reply = AppendReply {
        appended: 0,
        total: 0,
        repaired: 0,
        dropped: 0,
        ms: 0.0,
    };
    for field in reply_fields(payload) {
        let (key, value) = field?;
        match key {
            "appended" => reply.appended = reply_num(key, value)?,
            "total" => reply.total = reply_num(key, value)?,
            "repaired" => reply.repaired = reply_num(key, value)?,
            "dropped" => reply.dropped = reply_num(key, value)?,
            "ms" => reply.ms = reply_num(key, value)?,
            _ => {}
        }
    }
    Ok(reply)
}

/// Renders a `WATCH` answer: the echoed request and the census at
/// subscription time.
pub(crate) fn watch_reply_line(
    dataset: &str,
    eps: f64,
    minpts: usize,
    reply: &WatchReply,
) -> String {
    format!(
        "OK watching {dataset} {eps} {minpts} clusters={} noise={}",
        reply.clusters, reply.noise
    )
}

/// Parses a [`watch_reply_line`] payload's census.
pub(crate) fn parse_watch_reply(payload: &str) -> Result<WatchReply, String> {
    let mut reply = WatchReply {
        clusters: 0,
        noise: 0,
    };
    // The census follows bare words (`watching`, the echoed request).
    for (key, value) in reply_fields(payload).flatten() {
        match key {
            "clusters" => reply.clusters = reply_num(key, value)?,
            "noise" => reply.noise = reply_num(key, value)?,
            _ => {}
        }
    }
    Ok(reply)
}

impl Delta {
    /// Parses a `DELTA <ds> <eps> <minpts> k=v…` line; `None` when the
    /// line is not a well-formed delta push.
    pub fn parse(line: &str) -> Option<Delta> {
        let rest = line.strip_prefix("DELTA ")?;
        let mut tokens = rest.split_ascii_whitespace();
        let mut delta = Delta {
            dataset: tokens.next()?.to_string(),
            eps: tokens.next()?.parse().ok()?,
            minpts: tokens.next()?.parse().ok()?,
            appended: 0,
            new: 0,
            absorbed: 0,
            promoted: 0,
            clusters: 0,
            noise: 0,
        };
        for tok in tokens {
            let (key, value) = tok.split_once('=')?;
            let value: usize = value.parse().ok()?;
            match key {
                "appended" => delta.appended = value,
                "new" => delta.new = value,
                "absorbed" => delta.absorbed = value,
                "promoted" => delta.promoted = value,
                "clusters" => delta.clusters = value,
                "noise" => delta.noise = value,
                _ => {} // forward compatibility
            }
        }
        Some(delta)
    }

    /// Renders the push as its wire line (no trailing newline).
    pub fn encode(&self) -> String {
        format!(
            "DELTA {} {} {} appended={} new={} absorbed={} promoted={} clusters={} noise={}",
            self.dataset,
            self.eps,
            self.minpts,
            self.appended,
            self.new,
            self.absorbed,
            self.promoted,
            self.clusters,
            self.noise
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_roundtrips() {
        let req = Request::Submit {
            dataset: "SW1@2000".into(),
            eps: 1.5,
            minpts: 4,
            labels: true,
        };
        assert_eq!(req.encode(), "SUBMIT SW1@2000 1.5 4 LABELS");
        assert_eq!(parse_request(&req.encode()).unwrap(), req);
        let plain = Request::Submit {
            dataset: "d".into(),
            eps: 0.25,
            minpts: 10,
            labels: false,
        };
        assert_eq!(parse_request(&plain.encode()).unwrap(), plain);
    }

    #[test]
    fn keywords_roundtrip() {
        for req in [
            Request::Hello,
            Request::Datasets,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Quit,
        ] {
            assert_eq!(parse_request(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn append_and_watch_roundtrip() {
        let req = Request::Append {
            dataset: "SW1@2000".into(),
            points: vec![Point2::new(1.5, -2.25), Point2::new(0.0, 1e9)],
        };
        assert_eq!(req.encode(), "APPEND SW1@2000 1.5 -2.25 0 1000000000");
        assert_eq!(parse_request(&req.encode()).unwrap(), req);

        let watch = Request::Watch {
            dataset: "d".into(),
            eps: 0.75,
            minpts: 4,
        };
        assert_eq!(watch.encode(), "WATCH d 0.75 4");
        assert_eq!(parse_request(&watch.encode()).unwrap(), watch);
    }

    #[test]
    fn append_and_watch_reject_malformed_lines() {
        for bad in [
            "APPEND",
            "APPEND d",
            "APPEND d 1.0",
            "APPEND d 1.0 2.0 3.0",
            "APPEND d 1.0 x",
            "APPEND d nan 2.0",
            "APPEND d inf 2.0",
            "APPEND d 1.0 -inf",
            "WATCH",
            "WATCH d",
            "WATCH d 1.0",
            "WATCH d 0 4",
            "WATCH d nan 4",
            "WATCH d 1.0 0",
            "WATCH d 1.0 4294967296",
            "WATCH d 1.0 x",
            "WATCH d 1.0 4 EXTRA",
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn metrics_rejects_arguments() {
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert!(parse_request("METRICS all").is_err());
        assert!(parse_request("METRICS 1").is_err());
    }

    #[test]
    fn malformed_lines_are_rejected() {
        for bad in [
            "",
            "   ",
            "NOPE",
            "SUBMIT",
            "SUBMIT d",
            "SUBMIT d x 4",
            "SUBMIT d 1.0 x",
            "SUBMIT d 0 4",
            "SUBMIT d -1 4",
            "SUBMIT d inf 4",
            "SUBMIT d 1.0 0",
            "SUBMIT d 1.0 4294967296",
            "SUBMIT d 1.0 4 EXTRA",
            "SUBMIT d 1.0 4 LABELS extra",
            "HELLO there",
        ] {
            assert!(parse_request(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn err_line_stays_single_line() {
        let line = err_line(ErrorCode::Overloaded, "queue\nfull");
        assert_eq!(line, "ERR overloaded queue full");
        assert_eq!(
            ErrorCode::from_str_token("overloaded"),
            Some(ErrorCode::Overloaded)
        );
    }
}
