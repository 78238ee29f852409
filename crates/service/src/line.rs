//! The line-protocol door: frame a line, parse it, call the core,
//! render the answer.
//!
//! Connections are handled through the [`Transport`] seam with bounded
//! line framing ([`LineIo`]): an oversized or non-UTF-8 line costs the
//! client one `ERR protocol` and a resync, never unbounded buffering or
//! a dead handler. Everything between the parse and the render is
//! `Shared`'s; the grammar on both sides of it is [`crate::protocol`]'s.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;

use variantdbscan::Variant;

use crate::api::{Delta, ErrorCode, Rejection};
use crate::daemon::Shared;
use crate::http::MAX_LINE_BYTES;
use crate::protocol::{
    append_reply_line, datasets_line, err_line, labels_line, parse_request, rejection_line,
    submit_reply_line, watch_reply_line, Request, PROTOCOL_VERSION,
};
use crate::transport::{LineEvent, LineIo, Transport, POLL_INTERVAL};

/// Per-connection request loop over any [`Transport`], with bounded
/// line framing. Framing violations cost one `ERR protocol` each and
/// resynchronize; only EOF, a fatal I/O error, `QUIT`, or the stop flag
/// (noticed at the next [`POLL_INTERVAL`] read timeout) end the loop.
pub(crate) fn serve_line<T: Transport>(mut transport: T, shared: &Shared, stop: &AtomicBool) {
    let _ = transport.set_read_timeout(Some(POLL_INTERVAL));
    let mut io = LineIo::new(transport, MAX_LINE_BYTES);
    // `WATCH` subscriptions this connection holds: `DELTA` pushes are
    // drained between request/response exchanges and at every
    // read-timeout poll, never inside an exchange. Dropping the
    // receivers on exit is the unsubscribe.
    let mut watches: Vec<mpsc::Receiver<Delta>> = Vec::new();
    loop {
        let answered = match io.next_event() {
            Ok(LineEvent::Line(line)) => respond(line.trim(), shared, &mut io, &mut watches)
                .and_then(|()| drain_watches(&mut io, &mut watches)),
            Ok(LineEvent::Overflow) => {
                shared.note_protocol_error();
                let detail = format!("line exceeds {MAX_LINE_BYTES} bytes");
                send_line(&mut io, &err_line(ErrorCode::Protocol, &detail))
            }
            Ok(LineEvent::InvalidUtf8) => {
                shared.note_protocol_error();
                let reply = err_line(ErrorCode::Protocol, "line is not valid UTF-8");
                send_line(&mut io, &reply)
            }
            Ok(LineEvent::Timeout) if stop.load(Ordering::Acquire) => break,
            Ok(LineEvent::Timeout) => drain_watches(&mut io, &mut watches),
            Ok(LineEvent::Eof) | Err(_) => break,
        };
        if answered.is_err() {
            break;
        }
    }
    io.transport_mut().close();
}

/// Flushes every pending `DELTA` push to the wire; drops receivers
/// whose stream has been pruned server-side.
fn drain_watches<T: Transport>(
    io: &mut LineIo<T>,
    watches: &mut Vec<mpsc::Receiver<Delta>>,
) -> Result<(), ()> {
    let mut i = 0;
    'streams: while i < watches.len() {
        loop {
            match watches[i].try_recv() {
                Ok(delta) => send_line(io, &delta.encode())?,
                Err(mpsc::TryRecvError::Empty) => {
                    i += 1;
                    continue 'streams;
                }
                Err(mpsc::TryRecvError::Disconnected) => {
                    watches.swap_remove(i);
                    continue 'streams;
                }
            }
        }
    }
    Ok(())
}

/// Handles one request line; `Err(())` means "close this connection".
fn respond<T: Transport>(
    line: &str,
    shared: &Shared,
    io: &mut LineIo<T>,
    watches: &mut Vec<mpsc::Receiver<Delta>>,
) -> Result<(), ()> {
    if line.is_empty() {
        return Ok(());
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(msg) => {
            shared.note_bad_request();
            return send_line(io, &err_line(ErrorCode::BadRequest, &msg));
        }
    };
    let refuse = |io: &mut LineIo<T>, r: Rejection| send_line(io, &rejection_line(&r));
    match request {
        Request::Hello => send_line(io, &format!("OK vbp-service {PROTOCOL_VERSION}")),
        Request::Quit => {
            let _ = send_line(io, "OK bye");
            Err(())
        }
        Request::Datasets => send_line(io, &datasets_line(&shared.registry().list())),
        Request::Stats => send_line(io, &format!("OK {}", shared.stats_json())),
        Request::Metrics => {
            // `OK <n>` followed by exactly `n` continuation lines: the
            // client (and the protocol fuzzer) can frame the exposition
            // without sniffing line shapes.
            let text = shared.metrics_text();
            send_line(io, &format!("OK {}", text.lines().count()))?;
            text.lines().try_for_each(|l| send_line(io, l))
        }
        Request::Shutdown => {
            shared.begin_drain();
            send_line(io, "OK draining")
        }
        Request::Submit {
            dataset,
            eps,
            minpts,
            labels,
        } => match shared.submit_wait(dataset, Variant::new(eps, minpts), labels, false) {
            Ok(done) => {
                send_line(io, &submit_reply_line(&done.reply))?;
                match &done.reply.labels {
                    Some(labels) => send_line(io, &labels_line(labels)),
                    None => Ok(()),
                }
            }
            Err(rejection) => refuse(io, rejection),
        },
        Request::Append { dataset, points } => match shared.append(&dataset, &points) {
            Ok(reply) => send_line(io, &append_reply_line(&reply)),
            Err(rejection) => refuse(io, rejection),
        },
        Request::Watch {
            dataset,
            eps,
            minpts,
        } => match shared.watch(&dataset, Variant::new(eps, minpts)) {
            Ok((census, pushes)) => {
                watches.push(pushes);
                send_line(io, &watch_reply_line(&dataset, eps, minpts, &census))
            }
            Err(rejection) => refuse(io, rejection),
        },
    }
}

fn send_line<T: Transport>(io: &mut LineIo<T>, line: &str) -> Result<(), ()> {
    io.send_line(line).map_err(|_| ())
}
