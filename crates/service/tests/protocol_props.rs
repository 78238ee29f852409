//! Protocol robustness properties (seed-replayable via the proptest
//! shim's `VBP_PROPTEST_SEED`).
//!
//! Three layers, hostile to trusting:
//!
//! 1. the pure parser — arbitrary byte soup (truncated UTF-8, embedded
//!    NULs, oversized tokens) must never panic and must always come back
//!    as a typed error with a non-empty reason;
//! 2. encode/parse — every well-formed request round-trips to itself,
//!    including ε values at the mercy of float formatting;
//! 3. the live handler — arbitrary byte streams pushed through
//!    [`ServerHandle::serve_transport`] over a scripted in-memory
//!    transport may only ever produce `OK ...` or `ERR <typed-code> ...`
//!    reply lines, and must leave the daemon's counters consistent.

mod common;

use std::time::Duration;

use common::{assert_stats_consistent, Watchdog};
use proptest::prelude::*;
use proptest::{collection, proptest};
use variantdbscan::Engine;
use vbp_geom::Point2;
use vbp_service::{
    parse_request, ErrorCode, LineEvent, LineIo, MemTransport, Registry, Request, Server, Step,
};

/// Charset for generated dataset tokens: protocol-legal, whitespace-free.
const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_@.-";

fn dataset_name(indices: &[u8]) -> String {
    indices
        .iter()
        .map(|&i| NAME_CHARS[i as usize % NAME_CHARS.len()] as char)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Layer 1: the parser is total. Whatever bytes arrive — interpreted
    /// leniently as UTF-8 the way a hostile peer could force — it either
    /// returns a request or a typed error; it never panics, and every
    /// rejection carries a human-readable reason.
    #[test]
    fn parser_is_total_on_byte_soup(bytes in collection::vec(any::<u8>(), 0..96)) {
        let line = String::from_utf8_lossy(&bytes);
        match parse_request(&line) {
            Ok(req) => {
                // Anything accepted must re-encode to something the
                // parser accepts again (idempotence of acceptance).
                prop_assert_eq!(parse_request(&req.encode()), Ok(req));
            }
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
    }

    /// Layer 1b: NUL bytes and truncated multi-byte sequences never
    /// smuggle a verb past the tokenizer.
    #[test]
    fn nul_and_truncation_probes(prefix in 0usize..9, junk in collection::vec(any::<u8>(), 0..16)) {
        let verb: &[u8] = [
            &b"HELLO"[..], b"DATASETS", b"SUBMIT", b"STATS", b"METRICS", b"SHUTDOWN", b"QUIT",
            b"APPEND", b"WATCH",
        ][prefix];
        let mut bytes = verb.to_vec();
        bytes.push(0);
        bytes.extend_from_slice(&junk);
        let line = String::from_utf8_lossy(&bytes);
        // "VERB\0..." is one whitespace-delimited token, not the verb.
        let parsed = parse_request(&line);
        if let Ok(req) = parsed {
            // Only possible if the junk happened to spell a full valid
            // request after lossy decoding — then it must round-trip.
            prop_assert_eq!(parse_request(&req.encode()), Ok(req));
        }
    }

    /// Layer 2: well-formed SUBMITs round-trip exactly — dataset name,
    /// ε through float formatting, minpts, and the LABELS flag.
    #[test]
    fn submit_roundtrip_is_identity(
        name_idx in collection::vec(any::<u8>(), 1..24),
        eps in 1e-9f64..1e9,
        minpts in 1usize..100_000,
        labels in any::<bool>(),
    ) {
        let req = Request::Submit {
            dataset: dataset_name(&name_idx),
            eps,
            minpts,
            labels,
        };
        prop_assert_eq!(parse_request(&req.encode()), Ok(req));
    }

    /// Layer 2b: well-formed APPENDs round-trip exactly — every
    /// coordinate survives float formatting bit-for-bit, in order.
    #[test]
    fn append_roundtrip_is_identity(
        name_idx in collection::vec(any::<u8>(), 1..24),
        coords in collection::vec((-1e12f64..1e12, -1e12f64..1e12), 1..16),
    ) {
        let req = Request::Append {
            dataset: dataset_name(&name_idx),
            points: coords.iter().map(|&(x, y)| Point2::new(x, y)).collect(),
        };
        prop_assert_eq!(parse_request(&req.encode()), Ok(req));
    }

    /// Layer 2c: well-formed WATCH subscriptions round-trip exactly.
    #[test]
    fn watch_roundtrip_is_identity(
        name_idx in collection::vec(any::<u8>(), 1..24),
        eps in 1e-9f64..1e9,
        minpts in 1usize..100_000,
    ) {
        let req = Request::Watch {
            dataset: dataset_name(&name_idx),
            eps,
            minpts,
        };
        prop_assert_eq!(parse_request(&req.encode()), Ok(req));
    }

    /// The minpts ceiling is the HTTP door's: `u32::MAX` is the largest
    /// value either door accepts, on `SUBMIT` and `WATCH` alike, and one
    /// past it (or anything up to `u64::MAX` and beyond) is a reasoned
    /// rejection, never a parsed request.
    #[test]
    fn minpts_above_u32_max_never_parses(
        name_idx in collection::vec(any::<u8>(), 1..12),
        eps in 1e-6f64..1e6,
        excess in any::<u64>(),
        watch in any::<bool>(),
    ) {
        let ds = dataset_name(&name_idx);
        let verb = if watch { "WATCH" } else { "SUBMIT" };
        let edge = u64::from(u32::MAX);
        let at_edge = parse_request(&format!("{verb} {ds} {eps} {edge}"));
        let minpts = match at_edge {
            Ok(Request::Submit { minpts, .. }) | Ok(Request::Watch { minpts, .. }) => minpts,
            other => return Err(TestCaseError::fail(format!("edge rejected: {other:?}"))),
        };
        prop_assert_eq!(minpts as u64, edge);
        for too_big in [edge + 1, (edge + 1).saturating_add(excess), u64::MAX] {
            let line = format!("{verb} {ds} {eps} {too_big}");
            match parse_request(&line) {
                Ok(req) => prop_assert!(false, "{:?} parsed: {:?}", line, req),
                Err(reason) => prop_assert!(reason.contains("minpts"), "{}", reason),
            }
        }
        let beyond_u64 = format!("{verb} {ds} {eps} 18446744073709551616");
        prop_assert!(parse_request(&beyond_u64).is_err());
    }

    /// Non-finite coordinates never parse into an APPEND (or WATCH ε) —
    /// they die at the tokenizer with a reasoned rejection, so no
    /// NaN/∞ ever reaches the spatial index.
    #[test]
    fn non_finite_floats_never_parse(
        name_idx in collection::vec(any::<u8>(), 1..12),
        good in collection::vec((-1e9f64..1e9, -1e9f64..1e9), 0..4),
        bad_at in 0usize..64,
        bad_idx in 0usize..5,
        watch in any::<bool>(),
    ) {
        let bad_tok = ["nan", "NaN", "inf", "-inf", "infinity"][bad_idx];
        let ds = dataset_name(&name_idx);
        let line = if watch {
            format!("WATCH {ds} {bad_tok} 4")
        } else {
            let mut toks: Vec<String> = good
                .iter()
                .flat_map(|&(x, y)| [x.to_string(), y.to_string()])
                .collect();
            toks.insert(bad_at % (toks.len() + 1), bad_tok.to_string());
            // Keep the coordinate count even so only finiteness can be
            // the reason for rejection.
            toks.push("1.0".to_string());
            format!("APPEND {ds} {}", toks.join(" "))
        };
        match parse_request(&line) {
            Ok(req) => prop_assert!(false, "non-finite line parsed: {:?} -> {:?}", line, req),
            Err(reason) => prop_assert!(!reason.is_empty()),
        }
    }

    /// A CRLF client of the line protocol is indistinguishable from an
    /// LF client: the same line contents produce the exact same framing
    /// event stream under the same cap, including contents exactly at
    /// the per-line byte cap (the trailing `\r` is framing, not
    /// payload, and must not count against the budget).
    #[test]
    fn crlf_and_lf_clients_frame_identically(
        raw_lines in collection::vec(collection::vec(any::<u8>(), 0..40), 1..8),
        cap in 8usize..32,
    ) {
        // Line *contents* must not contain terminator bytes — the
        // terminators under test are appended below.
        let lines: Vec<Vec<u8>> = raw_lines
            .into_iter()
            .map(|l| l.into_iter().filter(|&b| b != b'\n' && b != b'\r').collect())
            .collect();
        let events_for = |terminator: &[u8]| {
            let mut bytes = Vec::new();
            for line in &lines {
                bytes.extend_from_slice(line);
                bytes.extend_from_slice(terminator);
            }
            let (mem, _out) = MemTransport::new(vec![Step::Recv(bytes)]);
            let mut io = LineIo::new(mem, cap);
            let mut events = Vec::new();
            loop {
                let ev = io.next_event().unwrap();
                let done = ev == LineEvent::Eof;
                events.push(ev);
                if done {
                    break;
                }
            }
            events
        };
        prop_assert_eq!(events_for(b"\n"), events_for(b"\r\n"));
    }

    /// Layer 3: arbitrary byte streams through the real connection
    /// handler. Replies must all be typed; counters must stay
    /// consistent; the handler must terminate once the script ends.
    #[test]
    fn live_handler_answers_only_typed_replies(
        // Inner chunks are non-empty: a zero-length read is EOF by
        // `Read` contract, which would (correctly) end the connection.
        chunks in collection::vec(collection::vec(any::<u8>(), 1..48), 1..6),
        newline_every in 1usize..5,
    ) {
        let _wd = Watchdog::arm("protocol-props-live", Duration::from_secs(120));
        let engine = Engine::new(common::engine_config(1));
        let handle = Server::start(engine, Registry::new(), Default::default()).unwrap();

        let mut steps = Vec::new();
        for (i, mut chunk) in chunks.into_iter().enumerate() {
            // Sprinkle newlines so some lines actually complete.
            if i % newline_every == 0 {
                chunk.push(b'\n');
            }
            steps.push(Step::Recv(chunk));
        }
        // The leading newline terminates any partial junk line, so the
        // STATS and METRICS requests are guaranteed lines of their own.
        steps.push(Step::Recv(b"\nSTATS\nMETRICS\n".to_vec()));
        steps.push(Step::Close);

        let (transport, out) = MemTransport::new(steps);
        handle.serve_transport(transport).join().unwrap();

        let out = out.lock().unwrap();
        let text = String::from_utf8(out.clone()).expect("server replies are UTF-8");
        let mut saw_ok_stats = false;
        let mut saw_metrics = false;
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            // METRICS is the one verb with continuation lines: `OK <n>`
            // (n a bare integer — no other reply has that shape) followed
            // by exactly n exposition lines outside the OK/ERR framing.
            if let Some(n) = line
                .strip_prefix("OK ")
                .and_then(|rest| rest.parse::<usize>().ok())
            {
                saw_metrics = true;
                for _ in 0..n {
                    let cont = lines.next();
                    prop_assert!(cont.is_some(), "METRICS truncated its exposition");
                    let cont = cont.unwrap();
                    prop_assert!(cont.starts_with("vbp_"), "bad exposition line {:?}", cont);
                }
                continue;
            }
            if let Some(rest) = line.strip_prefix("ERR ") {
                let code = rest.split_ascii_whitespace().next().unwrap_or("");
                prop_assert!(
                    ErrorCode::from_str_token(code).is_some(),
                    "untyped ERR line {:?}", line
                );
            } else {
                prop_assert!(line.starts_with("OK"), "unframed reply {:?}", line);
                saw_ok_stats |= line.contains("\"submitted\":");
            }
        }
        // The trailing well-formed STATS and METRICS must have survived
        // whatever the byte soup did to the connection state.
        prop_assert!(saw_ok_stats, "no STATS reply in {:?}", text);
        prop_assert!(saw_metrics, "no METRICS reply in {:?}", text);

        let stats = handle.stats_json();
        assert_stats_consistent(&stats, "protocol-props live handler");
        let mut handle = handle;
        handle.shutdown();
    }
}
