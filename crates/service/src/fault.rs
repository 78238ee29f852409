//! Deterministic fault injection for the daemon's I/O path.
//!
//! Two test transports implement [`Transport`]:
//!
//! - [`MemTransport`] replays a *scripted* byte schedule (receive these
//!   bytes, idle one poll, close) against a connection handler with no
//!   socket involved, capturing everything the handler writes — the
//!   workhorse of the protocol-robustness property tests.
//! - [`FaultTransport`] wraps any real transport and perturbs it
//!   according to a seeded [`FaultPlan`]: writes are split at arbitrary
//!   byte boundaries, delayed, or cut dead mid-stream. Because the plan
//!   derives every decision from one PCG stream, a failing chaos
//!   schedule replays exactly from its seed.
//!
//! Faults at the *job* level (a panicking variant inside an engine
//! worker) are injected one layer down, through
//! [`variantdbscan::fault`]; this module only models the network.

use std::collections::VecDeque;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use vbp_data::Pcg32;

use crate::transport::Transport;

/// Seeded schedule of I/O perturbations for one [`FaultTransport`].
///
/// All randomness flows from the seed; two plans with the same seed and
/// knobs perturb identical traffic identically.
pub struct FaultPlan {
    rng: Pcg32,
    /// Largest chunk a single write is allowed to push at once; writes
    /// longer than this are split at random boundaries. 0 disables
    /// splitting.
    pub max_write_chunk: usize,
    /// Probability of sleeping [`FaultPlan::delay`] before a chunk.
    pub delay_prob: f64,
    /// The injected delay (kept small: chaos runs many schedules).
    pub delay: Duration,
    /// Kill the connection after this many written bytes, mid-line if
    /// the boundary lands there.
    pub cut_after_bytes: Option<usize>,
}

impl FaultPlan {
    /// A plan that splits writes into 1–7 byte chunks with occasional
    /// short delays — hostile pacing, but every byte arrives.
    pub fn torn_writes(seed: u64) -> FaultPlan {
        FaultPlan {
            rng: Pcg32::seeded(seed),
            max_write_chunk: 7,
            delay_prob: 0.25,
            delay: Duration::from_millis(1),
            cut_after_bytes: None,
        }
    }
}

/// A [`Transport`] wrapper that executes a [`FaultPlan`].
pub struct FaultTransport<T> {
    inner: T,
    plan: FaultPlan,
    written: usize,
    cut: bool,
}

impl<T: Transport> FaultTransport<T> {
    /// Wraps `inner` under `plan`.
    pub fn new(inner: T, plan: FaultPlan) -> FaultTransport<T> {
        FaultTransport {
            inner,
            plan,
            written: 0,
            cut: false,
        }
    }

    fn maybe_delay(&mut self) {
        if self.plan.delay_prob > 0.0 && self.plan.rng.next_f64() < self.plan.delay_prob {
            std::thread::sleep(self.plan.delay);
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.cut {
            return Ok(0);
        }
        self.inner.read(buf)
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut rest = buf;
        while !rest.is_empty() {
            if self.cut {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "fault plan cut the connection",
                ));
            }
            let mut take = if self.plan.max_write_chunk == 0 {
                rest.len()
            } else {
                let cap = self.plan.max_write_chunk.min(rest.len()) as u32;
                self.plan.rng.range_inclusive(1, cap.max(1)) as usize
            };
            // Land the cut exactly on its scheduled byte, even inside a
            // chunk.
            if let Some(cut_at) = self.plan.cut_after_bytes {
                let remaining = cut_at.saturating_sub(self.written);
                if remaining == 0 {
                    self.cut = true;
                    self.inner.close();
                    continue;
                }
                take = take.min(remaining);
            }
            self.maybe_delay();
            self.inner.write_all(&rest[..take])?;
            self.written += take;
            rest = &rest[take..];
        }
        Ok(())
    }

    fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_read_timeout(timeout)
    }

    fn close(&mut self) {
        self.inner.close();
    }
}

/// One step of a [`MemTransport`] script.
#[derive(Clone, Debug)]
pub enum Step {
    /// Deliver these bytes to the next read(s).
    Recv(Vec<u8>),
    /// One read returns a timeout (`WouldBlock`) — the handler's stop
    /// poll fires.
    Idle,
    /// The peer disconnects: this and all later reads return EOF.
    Close,
}

/// A scripted in-memory [`Transport`]: reads replay a [`Step`] schedule,
/// writes accumulate into a shared buffer the test inspects afterwards.
pub struct MemTransport {
    steps: VecDeque<Step>,
    out: Arc<Mutex<Vec<u8>>>,
    closed: bool,
}

impl MemTransport {
    /// Builds the transport and returns the shared output buffer
    /// alongside it.
    pub fn new(steps: Vec<Step>) -> (MemTransport, Arc<Mutex<Vec<u8>>>) {
        let out = Arc::new(Mutex::new(Vec::new()));
        (
            MemTransport {
                steps: steps.into(),
                out: Arc::clone(&out),
                closed: false,
            },
            out,
        )
    }
}

impl Transport for MemTransport {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if self.closed {
            return Ok(0);
        }
        match self.steps.pop_front() {
            None | Some(Step::Close) => {
                self.closed = true;
                Ok(0)
            }
            Some(Step::Idle) => Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted idle")),
            Some(Step::Recv(bytes)) => {
                let n = bytes.len().min(buf.len());
                buf[..n].copy_from_slice(&bytes[..n]);
                if n < bytes.len() {
                    self.steps.push_front(Step::Recv(bytes[n..].to_vec()));
                }
                Ok(n)
            }
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        if self.closed {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "peer disconnected",
            ));
        }
        self.out.lock().unwrap().extend_from_slice(buf);
        Ok(())
    }

    fn set_read_timeout(&mut self, _timeout: Option<Duration>) -> io::Result<()> {
        Ok(())
    }

    fn close(&mut self) {
        self.closed = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An inner transport that records the chunk boundaries of writes.
    struct ChunkRecorder {
        chunks: Vec<Vec<u8>>,
        closed: bool,
    }

    impl Transport for ChunkRecorder {
        fn read(&mut self, _buf: &mut [u8]) -> io::Result<usize> {
            Ok(0)
        }
        fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
            self.chunks.push(buf.to_vec());
            Ok(())
        }
        fn set_read_timeout(&mut self, _t: Option<Duration>) -> io::Result<()> {
            Ok(())
        }
        fn close(&mut self) {
            self.closed = true;
        }
    }

    #[test]
    fn torn_writes_split_deterministically_and_preserve_bytes() {
        let payload = b"SUBMIT cF_10k_5N@300 0.75 4 LABELS\n";
        let run = |seed| {
            let rec = ChunkRecorder {
                chunks: Vec::new(),
                closed: false,
            };
            let mut ft = FaultTransport::new(rec, FaultPlan::torn_writes(seed));
            ft.write_all(payload).unwrap();
            ft.inner.chunks
        };
        let a = run(7);
        assert!(a.len() > 1, "no splitting happened");
        assert_eq!(a.concat(), payload, "bytes corrupted by splitting");
        assert!(a.iter().all(|c| c.len() <= 7));
        assert_eq!(a, run(7), "same seed must split identically");
    }

    #[test]
    fn cut_lands_on_the_exact_byte() {
        let rec = ChunkRecorder {
            chunks: Vec::new(),
            closed: false,
        };
        let mut plan = FaultPlan::torn_writes(13);
        plan.cut_after_bytes = Some(10);
        let mut ft = FaultTransport::new(rec, plan);
        let err = ft.write_all(b"0123456789abcdef").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        assert_eq!(ft.written, 10);
        assert_eq!(ft.inner.chunks.concat(), b"0123456789");
        assert!(ft.inner.closed, "cut must tear the inner transport down");
        // Reads after the cut observe EOF, like a real half-open socket.
        assert_eq!(ft.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn mem_transport_replays_script_and_captures_output() {
        let (mut mem, out) =
            MemTransport::new(vec![Step::Recv(b"abc".to_vec()), Step::Idle, Step::Close]);
        let mut buf = [0u8; 2];
        assert_eq!(mem.read(&mut buf).unwrap(), 2); // split read: "ab"
        assert_eq!(&buf, b"ab");
        assert_eq!(mem.read(&mut buf).unwrap(), 1); // remainder: "c"
        assert_eq!(
            mem.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        mem.write_all(b"OK hi\n").unwrap();
        assert_eq!(mem.read(&mut buf).unwrap(), 0);
        assert!(mem.write_all(b"late").is_err());
        assert_eq!(out.lock().unwrap().as_slice(), b"OK hi\n");
    }
}
