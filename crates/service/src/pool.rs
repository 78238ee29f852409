//! Bounded per-backend connection pools with a connect-failure breaker.
//!
//! The router keeps a [`BackendPool`] per backend daemon. A pool owns
//! at most `cap` connections — each a boxed
//! [`DatasetService`](crate::api::DatasetService), so the pool neither
//! knows nor cares which wire its connections speak — and lends them
//! out one handler at a time:
//!
//! - **Bounded checkout.** A handler that finds no idle connection and
//!   no free slot blocks on a condvar up to `checkout_timeout`, then
//!   answers [`PoolError::Busy`] (the router maps it to `503
//!   overloaded` + `Retry-After`). The bound is the router-side
//!   analogue of the daemon's bounded admission queue: load sheds with
//!   a typed answer instead of queueing without limit.
//! - **Retry-once on connect.** A fresh connect that fails is retried
//!   exactly once, immediately — it papers over the one-shot races
//!   (backend restarting its accept loop, listen backlog momentarily
//!   full) without turning the pool into a retry storm.
//! - **Breaker.** `breaker_threshold` *consecutive* failed
//!   connect-attempts (each already retried once) open the breaker for
//!   `breaker_cooldown`; while open, checkouts needing a fresh connect
//!   fast-fail [`PoolError::Unavailable`] without touching the socket.
//!   One probe per cooldown rediscovers a revived backend. Idle
//!   connections keep working while the breaker is open — the breaker
//!   gates *dialing*, not traffic.
//! - **Mid-stream failures drop the connection.** An `Io`/`Protocol`
//!   error inside a lent connection means the backend died or the
//!   stream desynced: the connection is discarded (freeing its slot)
//!   and the caller sees [`PoolError::Unavailable`]. Typed server
//!   rejections (`overloaded`, `unknown-dataset`, …) travel through as
//!   [`PoolError::Service`] and the connection — which just proved
//!   itself healthy by answering — goes back to idle.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::api::DatasetService;
use crate::client::ClientError;

/// A pooled connection: any [`DatasetService`] the connector produces.
pub type PooledService = Box<dyn DatasetService + Send>;

/// Builds one fresh connection to the pool's backend.
pub type Connector = Box<dyn Fn() -> std::io::Result<PooledService> + Send + Sync>;

/// Why a pooled call failed.
#[derive(Debug)]
pub enum PoolError {
    /// The backend is unreachable: connect failed (after the one
    /// retry), the breaker is open, or a lent connection died
    /// mid-exchange.
    Unavailable {
        /// Human-readable detail for the router's `503` body.
        message: String,
    },
    /// Every connection was busy for the whole checkout timeout.
    Busy,
    /// The backend answered a typed rejection; the connection is fine.
    Service(ClientError),
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Unavailable { message } => write!(f, "backend unavailable: {message}"),
            PoolError::Busy => write!(f, "all pooled connections busy"),
            PoolError::Service(e) => write!(f, "backend rejected: {e}"),
        }
    }
}

/// Per-backend observability counters, surfaced in the router's STATS
/// and `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BackendCounters {
    /// Successful fresh connects.
    pub connects: u64,
    /// Failed connect *attempts* (a retried connect that fails twice
    /// counts two).
    pub connect_failures: u64,
    /// Successful checkouts (idle reuse or fresh connect).
    pub checkouts: u64,
    /// Checkouts that timed out waiting for a slot ([`PoolError::Busy`]).
    pub busy_timeouts: u64,
    /// Times the breaker opened.
    pub breaker_trips: u64,
    /// Checkouts fast-failed by an open breaker.
    pub breaker_fast_fails: u64,
    /// Connections discarded after a mid-exchange failure.
    pub dropped: u64,
}

impl BackendCounters {
    /// The counters by name — the router's `/v1/stats` keys, and its
    /// `vbp_backend_<name>_total` series.
    pub fn rows(&self) -> [(&'static str, u64); 7] {
        [
            ("connects", self.connects),
            ("connect_failures", self.connect_failures),
            ("checkouts", self.checkouts),
            ("busy_timeouts", self.busy_timeouts),
            ("breaker_trips", self.breaker_trips),
            ("breaker_fast_fails", self.breaker_fast_fails),
            ("dropped_conns", self.dropped),
        ]
    }
}

struct PoolInner {
    idle: Vec<PooledService>,
    /// Connections currently existing or being created (idle + lent +
    /// in-connect). Never exceeds `cap`.
    outstanding: usize,
    /// Consecutive failed connect-sequences; resets on success.
    consecutive_failures: u32,
    /// While `Some(t)` with `t` in the future, fresh connects fast-fail.
    open_until: Option<Instant>,
    counters: BackendCounters,
}

/// A bounded connection pool for one backend daemon.
pub struct BackendPool {
    addr: String,
    connector: Connector,
    cap: usize,
    checkout_timeout: Duration,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    inner: Mutex<PoolInner>,
    freed: Condvar,
}

impl BackendPool {
    /// A pool of at most `cap` connections built by `connector`.
    pub fn new(
        addr: impl Into<String>,
        cap: usize,
        checkout_timeout: Duration,
        breaker_threshold: u32,
        breaker_cooldown: Duration,
        connector: Connector,
    ) -> BackendPool {
        assert!(cap >= 1, "pool cap must be at least 1");
        BackendPool {
            addr: addr.into(),
            connector,
            cap,
            checkout_timeout,
            breaker_threshold,
            breaker_cooldown,
            inner: Mutex::new(PoolInner {
                idle: Vec::new(),
                outstanding: 0,
                consecutive_failures: 0,
                open_until: None,
                counters: BackendCounters::default(),
            }),
            freed: Condvar::new(),
        }
    }

    /// The backend address this pool dials.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A copy of the counters, taken under the pool lock.
    pub fn counters(&self) -> BackendCounters {
        self.inner.lock().expect("pool lock poisoned").counters
    }

    /// Whether the breaker is currently open (fast-failing dials).
    pub fn breaker_open(&self) -> bool {
        let inner = self.inner.lock().expect("pool lock poisoned");
        matches!(inner.open_until, Some(t) if Instant::now() < t)
    }

    /// Checks a connection out, runs `f` on it, and returns it (or
    /// discards it, when `f` failed at the transport level).
    pub fn with_conn<R>(
        &self,
        f: impl FnOnce(&mut dyn DatasetService) -> Result<R, ClientError>,
    ) -> Result<R, PoolError> {
        let mut conn = self.checkout()?;
        match f(conn.as_mut()) {
            Ok(r) => {
                self.check_in(conn);
                Ok(r)
            }
            Err(e @ (ClientError::Io(_) | ClientError::Protocol(_))) => {
                // The stream is in an unknown state — never reuse it.
                self.discard(conn);
                Err(PoolError::Unavailable {
                    message: format!("backend {} failed mid-exchange: {e}", self.addr),
                })
            }
            Err(e) => {
                // A typed rejection proves the connection healthy.
                self.check_in(conn);
                Err(PoolError::Service(e))
            }
        }
    }

    fn checkout(&self) -> Result<PooledService, PoolError> {
        let deadline = Instant::now() + self.checkout_timeout;
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        loop {
            if let Some(conn) = inner.idle.pop() {
                inner.counters.checkouts += 1;
                return Ok(conn);
            }
            if inner.outstanding < self.cap {
                return self.connect_slot(inner);
            }
            let now = Instant::now();
            if now >= deadline {
                inner.counters.busy_timeouts += 1;
                return Err(PoolError::Busy);
            }
            let (guard, _) = self
                .freed
                .wait_timeout(inner, deadline - now)
                .expect("pool lock poisoned");
            inner = guard;
        }
    }

    /// Takes a slot and dials outside the lock. `inner` is the held
    /// guard; `outstanding` has room for one more.
    fn connect_slot(
        &self,
        mut inner: std::sync::MutexGuard<'_, PoolInner>,
    ) -> Result<PooledService, PoolError> {
        if let Some(until) = inner.open_until {
            if Instant::now() < until {
                inner.counters.breaker_fast_fails += 1;
                return Err(PoolError::Unavailable {
                    message: format!(
                        "backend {} breaker open for another {}ms",
                        self.addr,
                        until.saturating_duration_since(Instant::now()).as_millis()
                    ),
                });
            }
            // Cooldown over: this checkout is the probe.
            inner.open_until = None;
        }
        inner.outstanding += 1;
        drop(inner);

        // Dial with one immediate retry, outside the lock.
        let dialed = (self.connector)().or_else(|first| {
            let mut inner = self.inner.lock().expect("pool lock poisoned");
            inner.counters.connect_failures += 1;
            drop(inner);
            (self.connector)().map_err(|second| {
                std::io::Error::new(
                    second.kind(),
                    format!("twice: first {first}, then {second}"),
                )
            })
        });

        let mut inner = self.inner.lock().expect("pool lock poisoned");
        match dialed {
            Ok(conn) => {
                inner.counters.connects += 1;
                inner.counters.checkouts += 1;
                inner.consecutive_failures = 0;
                Ok(conn)
            }
            Err(e) => {
                inner.counters.connect_failures += 1;
                inner.consecutive_failures += 1;
                inner.outstanding -= 1;
                if inner.consecutive_failures >= self.breaker_threshold {
                    inner.open_until = Some(Instant::now() + self.breaker_cooldown);
                    inner.counters.breaker_trips += 1;
                    inner.consecutive_failures = 0;
                }
                // The freed slot may unblock a waiter (who will likely
                // fail the same way, but promptly).
                self.freed.notify_one();
                Err(PoolError::Unavailable {
                    message: format!("connect to backend {} failed {e}", self.addr),
                })
            }
        }
    }

    fn check_in(&self, conn: PooledService) {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        inner.idle.push(conn);
        drop(inner);
        self.freed.notify_one();
    }

    fn discard(&self, conn: PooledService) {
        let mut inner = self.inner.lock().expect("pool lock poisoned");
        inner.outstanding -= 1;
        inner.counters.dropped += 1;
        drop(inner);
        drop(conn);
        self.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::Health;
    use crate::api::{AppendReply, SubmitReply};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use vbp_geom::Point2;

    /// A scriptable in-memory backend: answers healthz, errors
    /// everything else.
    struct FakeService {
        fail_next_with_io: bool,
    }

    impl DatasetService for FakeService {
        fn submit(
            &mut self,
            _dataset: &str,
            _eps: f64,
            _minpts: usize,
            _want_labels: bool,
        ) -> Result<SubmitReply, ClientError> {
            if self.fail_next_with_io {
                return Err(ClientError::Io(std::io::Error::other("cut")));
            }
            Err(ClientError::rejected(
                crate::api::ErrorCode::Overloaded,
                "retry-after=1 queue full".into(),
            ))
        }
        fn append(
            &mut self,
            _dataset: &str,
            _points: &[Point2],
        ) -> Result<AppendReply, ClientError> {
            Err(ClientError::Protocol("unsupported".into()))
        }
        fn datasets(&mut self) -> Result<Vec<(String, usize)>, ClientError> {
            Ok(vec![("ds".into(), 7)])
        }
        fn stats_json(&mut self) -> Result<String, ClientError> {
            Ok("{}".into())
        }
        fn metrics(&mut self) -> Result<String, ClientError> {
            Ok(String::new())
        }
        fn healthz(&mut self) -> Result<Health, ClientError> {
            Ok(Health {
                accepting: true,
                draining: false,
            })
        }
    }

    fn pool_with(
        cap: usize,
        fail_first: usize,
        timeout: Duration,
    ) -> (BackendPool, Arc<AtomicUsize>) {
        let dials = Arc::new(AtomicUsize::new(0));
        let dials2 = dials.clone();
        let pool = BackendPool::new(
            "fake:1",
            cap,
            timeout,
            2,
            Duration::from_millis(40),
            Box::new(move || {
                let n = dials2.fetch_add(1, Ordering::SeqCst);
                if n < fail_first {
                    Err(std::io::Error::other("refused"))
                } else {
                    Ok(Box::new(FakeService {
                        fail_next_with_io: false,
                    }) as PooledService)
                }
            }),
        );
        (pool, dials)
    }

    #[test]
    fn checkout_reuses_an_idle_connection() {
        let (pool, dials) = pool_with(2, 0, Duration::from_millis(100));
        pool.with_conn(|s| s.datasets()).unwrap();
        pool.with_conn(|s| s.datasets()).unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 1, "second call reused");
        let c = pool.counters();
        assert_eq!(c.connects, 1);
        assert_eq!(c.checkouts, 2);
    }

    #[test]
    fn connect_failure_is_retried_once_then_unavailable() {
        // First dial fails, the immediate retry succeeds.
        let (pool, dials) = pool_with(1, 1, Duration::from_millis(100));
        pool.with_conn(|s| s.datasets()).unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 2);
        assert_eq!(pool.counters().connect_failures, 1);

        // Both dials fail: Unavailable, slot released.
        let (pool, dials) = pool_with(1, usize::MAX, Duration::from_millis(100));
        match pool.with_conn(|s| s.datasets()) {
            Err(PoolError::Unavailable { .. }) => {}
            other => panic!("expected Unavailable, got {:?}", other.map(|_| ())),
        }
        assert_eq!(dials.load(Ordering::SeqCst), 2);
        assert_eq!(pool.counters().connect_failures, 2);
    }

    #[test]
    fn breaker_opens_after_threshold_and_reprobes_after_cooldown() {
        let (pool, dials) = pool_with(1, 4, Duration::from_millis(100));
        // Two failed sequences (threshold 2) trip the breaker.
        assert!(pool.with_conn(|s| s.datasets()).is_err());
        assert!(pool.with_conn(|s| s.datasets()).is_err());
        assert!(pool.breaker_open());
        assert_eq!(pool.counters().breaker_trips, 1);
        // While open: fast-fail without dialing.
        let before = dials.load(Ordering::SeqCst);
        assert!(matches!(
            pool.with_conn(|s| s.datasets()),
            Err(PoolError::Unavailable { .. })
        ));
        assert_eq!(dials.load(Ordering::SeqCst), before);
        assert_eq!(pool.counters().breaker_fast_fails, 1);
        // After the cooldown the probe dials again and succeeds.
        std::thread::sleep(Duration::from_millis(50));
        pool.with_conn(|s| s.datasets()).unwrap();
        assert!(!pool.breaker_open());
    }

    #[test]
    fn full_pool_answers_busy_after_the_checkout_timeout() {
        let (pool, _) = pool_with(1, 0, Duration::from_millis(30));
        let pool = Arc::new(pool);
        let p2 = pool.clone();
        // Hold the only connection hostage past the waiter's timeout.
        let holder = std::thread::spawn(move || {
            p2.with_conn(|s| {
                std::thread::sleep(Duration::from_millis(120));
                s.datasets()
            })
            .unwrap();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(matches!(
            pool.with_conn(|s| s.datasets()),
            Err(PoolError::Busy)
        ));
        assert_eq!(pool.counters().busy_timeouts, 1);
        holder.join().unwrap();
        // Released now: the next checkout reuses it.
        pool.with_conn(|s| s.datasets()).unwrap();
    }

    #[test]
    fn typed_rejections_keep_the_connection_io_errors_drop_it() {
        let (pool, dials) = pool_with(1, 0, Duration::from_millis(100));
        // Overloaded is a Service error and the connection survives.
        match pool.with_conn(|s| s.submit("ds", 1.0, 4, false)) {
            Err(PoolError::Service(e)) => {
                assert_eq!(e.retry_after(), Some(Duration::from_secs(1)));
            }
            other => panic!("expected Service, got {:?}", other.map(|_| ())),
        }
        pool.with_conn(|s| s.datasets()).unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 1, "connection was reused");
        // An Io failure mid-exchange drops the connection…
        assert!(matches!(
            pool.with_conn(|s| -> Result<(), ClientError> {
                let _ = s;
                Err(ClientError::Io(std::io::Error::other("cut")))
            }),
            Err(PoolError::Unavailable { .. })
        ));
        assert_eq!(pool.counters().dropped, 1);
        // …so the next checkout dials fresh.
        pool.with_conn(|s| s.datasets()).unwrap();
        assert_eq!(dials.load(Ordering::SeqCst), 2);
    }
}
