//! Connection I/O behind a seam: the [`Transport`] trait, the line
//! framing the daemon speaks over it, and the one accept loop every
//! listener (line door, HTTP door, router) runs.
//!
//! Production connections are [`TcpTransport`] (a thin `TcpStream`
//! wrapper); tests substitute the scripted and fault-injecting
//! transports from [`crate::fault`] to drive the exact same handler
//! code through partial reads, garbage bytes, timeouts, and
//! disconnects — deterministically, without a socket in the loop.
//!
//! [`LineIo`] replaces `BufRead::read_line` with framing the daemon can
//! defend: a hard per-line byte cap (overflow yields a typed event and
//! a resync that discards until the next newline instead of buffering
//! without bound), UTF-8 validation per line (bad bytes poison one
//! line, not the connection), and timeout-as-event so the handler can
//! poll its stop flag.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a door's read may block before it polls its stop flag: the
/// bound on how fast an idle connection notices a drain. Every door
/// (line, HTTP, router) reads with it.
pub const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// The write timeout of every accepted socket, so a client that stops
/// draining its receive buffer cannot wedge a handler mid-reply forever.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(30);

/// Byte-stream I/O for one connection, as the connection handler sees
/// it. Deliberately tiny: one reader, one writer, a read timeout, and a
/// hard close — everything else (framing, parsing, faults) layers on
/// top.
pub trait Transport: Send {
    /// Reads up to `buf.len()` bytes. `Ok(0)` is end-of-stream;
    /// `WouldBlock`/`TimedOut` means the read timeout elapsed.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes the whole buffer or fails.
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Bounds how long [`Transport::read`] may block.
    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()>;

    /// Tears the connection down (both directions, best effort).
    fn close(&mut self);
}

/// The production transport: a connected `TcpStream`.
pub struct TcpTransport {
    stream: TcpStream,
}

impl TcpTransport {
    /// Wraps an accepted (or connected) stream.
    pub fn new(stream: TcpStream) -> TcpTransport {
        TcpTransport { stream }
    }
}

impl Transport for TcpTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        io::Read::read(&mut self.stream, buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        io::Write::write_all(&mut self.stream, buf)
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// The live connection threads of one process, shared by every accept
/// loop feeding it; whoever shuts the process down drains and joins it.
pub(crate) type Handlers = Arc<Mutex<Vec<JoinHandle<()>>>>;

/// Spawns `<name>-accept`: every accepted socket gets `TCP_NODELAY`,
/// [`WRITE_TIMEOUT`], and its own `<name>-conn` thread running `serve`.
/// The loop exits at the first accept after `stop` is set — shutdown
/// wakes it with a throwaway connection.
pub(crate) fn spawn_accept_loop(
    listener: TcpListener,
    name: &str,
    stop: Arc<AtomicBool>,
    handlers: Handlers,
    serve: impl Fn(TcpTransport) + Send + Sync + 'static,
) -> io::Result<JoinHandle<()>> {
    let conn_name = format!("{name}-conn");
    let serve = Arc::new(serve);
    std::thread::Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || {
            for stream in listener.incoming() {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let _ = stream.set_nodelay(true);
                let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
                let serve = Arc::clone(&serve);
                let handle = std::thread::Builder::new()
                    .name(conn_name.clone())
                    .spawn(move || serve(TcpTransport::new(stream)));
                let mut hs = handlers.lock().expect("handler registry poisoned");
                // Reap finished handlers so the registry stays
                // proportional to *live* connections instead of growing
                // for the process's lifetime.
                let mut i = 0;
                while i < hs.len() {
                    if hs[i].is_finished() {
                        let _ = hs.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                if let Ok(h) = handle {
                    hs.push(h);
                }
            }
        })
}

/// Joins every connection thread still registered.
pub(crate) fn join_handlers(handlers: &Handlers) {
    let drained: Vec<_> = handlers
        .lock()
        .expect("handler registry poisoned")
        .drain(..)
        .collect();
    for h in drained {
        let _ = h.join();
    }
}

/// One framing event from [`LineIo::next_event`]. I/O errors other than
/// timeouts surface as the `Result`'s `Err`; everything a handler must
/// answer or survive is an event.
#[derive(Debug, PartialEq, Eq)]
pub enum LineEvent {
    /// A complete line (newline stripped, trailing `\r` tolerated).
    Line(String),
    /// The line under construction exceeded the byte cap. The framing
    /// has already switched to resync mode: input is discarded until
    /// the next newline, then normal framing resumes.
    Overflow,
    /// A complete line arrived but was not valid UTF-8; it was dropped.
    InvalidUtf8,
    /// The read timeout elapsed with no new bytes — poll your stop flag
    /// and call again.
    Timeout,
    /// The peer closed the stream. A partial unterminated line is
    /// dropped, never parsed.
    Eof,
}

/// Bounded line framing over any [`Transport`].
pub struct LineIo<T> {
    transport: T,
    /// Bytes received but not yet framed into a line.
    buf: Vec<u8>,
    max_line_bytes: usize,
    /// Overflow resync: drop everything up to the next newline.
    discarding: bool,
}

impl<T: Transport> LineIo<T> {
    /// Frames `transport` with a hard per-line cap of `max_line_bytes`
    /// (newline excluded). The line door frames with
    /// [`MAX_LINE_BYTES`](crate::http::MAX_LINE_BYTES); other caps are
    /// for framing tests.
    pub fn new(transport: T, max_line_bytes: usize) -> LineIo<T> {
        LineIo {
            transport,
            buf: Vec::new(),
            max_line_bytes: max_line_bytes.max(1),
            discarding: false,
        }
    }

    /// The underlying transport, for writes and teardown.
    pub fn transport_mut(&mut self) -> &mut T {
        &mut self.transport
    }

    /// Writes one response line (appends the newline).
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        let mut out = Vec::with_capacity(line.len() + 1);
        out.extend_from_slice(line.as_bytes());
        out.push(b'\n');
        self.transport.write_all(&out)
    }

    /// Produces the next framing event, reading from the transport as
    /// needed.
    pub fn next_event(&mut self) -> io::Result<LineEvent> {
        loop {
            // Frame whatever is already buffered before reading more.
            while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
                if self.discarding {
                    // The newline ends the oversized line; resume
                    // normal framing on the bytes that follow.
                    self.buf.drain(..=nl);
                    self.discarding = false;
                    continue;
                }
                // The cap applies to line *content*: a trailing `\r`
                // is framing, not payload, so a CRLF client gets the
                // same budget as an LF client.
                let mut end = nl;
                if end > 0 && self.buf[end - 1] == b'\r' {
                    end -= 1;
                }
                if end > self.max_line_bytes {
                    // The whole oversized line (newline included) is
                    // already buffered: discard it in one step.
                    self.buf.drain(..=nl);
                    return Ok(LineEvent::Overflow);
                }
                let line: Vec<u8> = self.buf.drain(..=nl).take(end).collect();
                return Ok(match String::from_utf8(line) {
                    Ok(s) => LineEvent::Line(s),
                    Err(_) => LineEvent::InvalidUtf8,
                });
            }
            if self.discarding {
                // Still inside the oversized line: drop what we have.
                self.buf.clear();
            } else if self.buf.len() > self.max_line_bytes + 1 {
                // One byte of slack: a buffered cap-length line plus a
                // `\r` awaiting its `\n` is still within budget. At
                // cap + 2 the content exceeds the cap no matter what
                // the final byte turns out to be.
                self.buf.clear();
                self.discarding = true;
                return Ok(LineEvent::Overflow);
            }

            let mut chunk = [0u8; 4096];
            match self.transport.read(&mut chunk) {
                Ok(0) => return Ok(LineEvent::Eof),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(LineEvent::Timeout);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{MemTransport, Step};

    fn events(io: &mut LineIo<MemTransport>) -> Vec<LineEvent> {
        let mut out = Vec::new();
        loop {
            let ev = io.next_event().unwrap();
            let done = ev == LineEvent::Eof;
            out.push(ev);
            if done {
                break;
            }
        }
        out
    }

    #[test]
    fn frames_split_lines_and_strips_cr() {
        let (mem, _out) = MemTransport::new(vec![
            Step::Recv(b"HEL".to_vec()),
            Step::Recv(b"LO\r\nSTA".to_vec()),
            Step::Recv(b"TS\n".to_vec()),
        ]);
        let mut io = LineIo::new(mem, 64);
        assert_eq!(
            events(&mut io),
            vec![
                LineEvent::Line("HELLO".into()),
                LineEvent::Line("STATS".into()),
                LineEvent::Eof,
            ]
        );
    }

    #[test]
    fn oversized_line_overflows_once_then_resyncs() {
        let mut bytes = vec![b'x'; 100];
        bytes.extend_from_slice(b" tail of the long line\nHELLO\n");
        let (mem, _out) = MemTransport::new(vec![Step::Recv(bytes)]);
        let mut io = LineIo::new(mem, 16);
        assert_eq!(
            events(&mut io),
            vec![
                LineEvent::Overflow,
                LineEvent::Line("HELLO".into()),
                LineEvent::Eof,
            ]
        );
    }

    #[test]
    fn crlf_line_at_exact_cap_is_not_overflow() {
        // A line whose *content* is exactly the cap must frame whether
        // the client terminates with LF or CRLF; one byte over the cap
        // must overflow in both terminations.
        let cap = 16;
        let at_cap = vec![b'a'; cap];
        let over = vec![b'b'; cap + 1];
        for terminator in [&b"\n"[..], &b"\r\n"[..]] {
            let mut bytes = at_cap.clone();
            bytes.extend_from_slice(terminator);
            bytes.extend_from_slice(&over);
            bytes.extend_from_slice(terminator);
            bytes.extend_from_slice(b"HELLO");
            bytes.extend_from_slice(terminator);
            let (mem, _out) = MemTransport::new(vec![Step::Recv(bytes)]);
            let mut io = LineIo::new(mem, cap);
            assert_eq!(
                events(&mut io),
                vec![
                    LineEvent::Line(String::from_utf8(at_cap.clone()).unwrap()),
                    LineEvent::Overflow,
                    LineEvent::Line("HELLO".into()),
                    LineEvent::Eof,
                ],
                "terminator {terminator:?}"
            );
        }
    }

    #[test]
    fn crlf_line_at_exact_cap_frames_across_partial_reads() {
        // The buffered-bytes guard must tolerate a cap-length line
        // whose `\r` has arrived but whose `\n` has not.
        let cap = 8;
        let (mem, _out) = MemTransport::new(vec![
            Step::Recv(b"exactly8\r".to_vec()),
            Step::Idle,
            Step::Recv(b"\nHELLO\r\n".to_vec()),
        ]);
        let mut io = LineIo::new(mem, cap);
        assert_eq!(io.next_event().unwrap(), LineEvent::Timeout);
        assert_eq!(io.next_event().unwrap(), LineEvent::Line("exactly8".into()));
        assert_eq!(io.next_event().unwrap(), LineEvent::Line("HELLO".into()));
        assert_eq!(io.next_event().unwrap(), LineEvent::Eof);
    }

    #[test]
    fn invalid_utf8_poisons_one_line_only() {
        let (mem, _out) = MemTransport::new(vec![Step::Recv(b"\xff\xfe\nHELLO\n".to_vec())]);
        let mut io = LineIo::new(mem, 64);
        assert_eq!(
            events(&mut io),
            vec![
                LineEvent::InvalidUtf8,
                LineEvent::Line("HELLO".into()),
                LineEvent::Eof,
            ]
        );
    }

    #[test]
    fn timeout_surfaces_between_partial_reads() {
        let (mem, _out) = MemTransport::new(vec![
            Step::Recv(b"HEL".to_vec()),
            Step::Idle,
            Step::Recv(b"LO\n".to_vec()),
        ]);
        let mut io = LineIo::new(mem, 64);
        assert_eq!(io.next_event().unwrap(), LineEvent::Timeout);
        assert_eq!(io.next_event().unwrap(), LineEvent::Line("HELLO".into()));
    }

    #[test]
    fn eof_drops_partial_line() {
        let (mem, _out) = MemTransport::new(vec![Step::Recv(b"SUBMIT trunca".to_vec())]);
        let mut io = LineIo::new(mem, 64);
        assert_eq!(io.next_event().unwrap(), LineEvent::Eof);
    }
}
