//! Configuration validation with typed errors.
//!
//! [`ServiceConfig`] and [`RouterConfig`] are plain public structs,
//! built with struct-literal update syntax over `Default` — which checks
//! nothing: `queue_cap: 0` or a zero poll interval would wedge the
//! daemon at runtime. [`ServiceConfig::validate`] and
//! [`RouterConfig::validate`] are the one place those invariants live;
//! both answer a typed [`ConfigError`] instead of a late panic, from one
//! error taxonomy, so `vbp serve` and `vbp route` (which build a literal
//! from their flags and call `validate()`) render both identically.

use std::fmt;

use crate::router::RouterConfig;
use crate::server::ServiceConfig;

/// The smallest request-line cap a daemon can run with: a minimal
/// `SUBMIT <ds> <eps> <minpts>` must fit, or every request costs an
/// `ERR protocol`.
pub const MIN_LINE_BYTES: usize = 64;

/// Why a configuration was rejected. Every variant names the offending
/// field so the CLI can point at the flag that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConfigError {
    /// A bind or backend address is empty.
    EmptyAddr {
        /// Which field held the empty address.
        field: &'static str,
    },
    /// The line-protocol and HTTP doors were given the same concrete
    /// address — the second bind would fail at startup. (Port `:0`
    /// twice is fine: the kernel hands out distinct ephemeral ports.)
    SameBind(String),
    /// `queue_cap` of 0 admits nothing; every submit would be
    /// `overloaded`.
    ZeroQueueCap,
    /// `max_line_bytes` below [`MIN_LINE_BYTES`] cannot frame a minimal
    /// request.
    LineCapTooSmall {
        /// The rejected cap.
        got: usize,
    },
    /// A duration that must be positive was zero.
    ZeroDuration {
        /// Which duration field was zero.
        field: &'static str,
    },
    /// The batching linger exceeds the job timeout, so every batched
    /// job could time out before the dispatcher even ran it.
    BatchWindowExceedsJobTimeout,
    /// A router needs at least one backend.
    NoBackends,
    /// The same backend address was listed twice; the ring would hash
    /// the duplicate onto itself and halve its effective capacity.
    DuplicateBackend(String),
    /// `virtual_nodes` of 0 leaves every backend off the ring.
    ZeroVirtualNodes,
    /// `pool_per_backend` of 0 can never check out a connection.
    ZeroPoolCap,
    /// A breaker that trips after 0 failures fast-fails everything.
    ZeroBreakerThreshold,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyAddr { field } => write!(f, "{field} must not be empty"),
            ConfigError::SameBind(addr) => {
                write!(f, "line and HTTP doors both bind '{addr}'")
            }
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            ConfigError::LineCapTooSmall { got } => write!(
                f,
                "max_line_bytes {got} is below the minimum {MIN_LINE_BYTES}"
            ),
            ConfigError::ZeroDuration { field } => write!(f, "{field} must be positive"),
            ConfigError::BatchWindowExceedsJobTimeout => {
                write!(f, "batch_window must not exceed job_timeout")
            }
            ConfigError::NoBackends => write!(f, "at least one --backends address is required"),
            ConfigError::DuplicateBackend(addr) => {
                write!(f, "backend '{addr}' is listed more than once")
            }
            ConfigError::ZeroVirtualNodes => write!(f, "vnodes must be at least 1"),
            ConfigError::ZeroPoolCap => write!(f, "pool must be at least 1"),
            ConfigError::ZeroBreakerThreshold => {
                write!(f, "breaker threshold must be at least 1")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl ServiceConfig {
    /// Checks every invariant the daemon relies on; the first violation
    /// comes back naming its field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.addr.is_empty() {
            return Err(ConfigError::EmptyAddr { field: "addr" });
        }
        if let Some(http) = &self.http_addr {
            if http.is_empty() {
                return Err(ConfigError::EmptyAddr { field: "http_addr" });
            }
            // Identical concrete addresses collide; two `:0` binds get
            // distinct ephemeral ports and are fine.
            if *http == self.addr && !self.addr.ends_with(":0") {
                return Err(ConfigError::SameBind(self.addr.clone()));
            }
        }
        if self.queue_cap == 0 {
            return Err(ConfigError::ZeroQueueCap);
        }
        if self.max_line_bytes < MIN_LINE_BYTES {
            return Err(ConfigError::LineCapTooSmall {
                got: self.max_line_bytes,
            });
        }
        for (field, d) in [
            ("poll_interval", self.poll_interval),
            ("job_timeout", self.job_timeout),
            ("write_timeout", self.write_timeout),
        ] {
            if d.is_zero() {
                return Err(ConfigError::ZeroDuration { field });
            }
        }
        // batch_window MAY be zero (no linger), but not longer than the
        // job timeout.
        if self.batch_window > self.job_timeout {
            return Err(ConfigError::BatchWindowExceedsJobTimeout);
        }
        Ok(())
    }
}

impl RouterConfig {
    /// Checks every invariant the router relies on; shares
    /// [`ConfigError`] with [`ServiceConfig::validate`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.http_addr.is_empty() {
            return Err(ConfigError::EmptyAddr { field: "http_addr" });
        }
        if self.backends.is_empty() {
            return Err(ConfigError::NoBackends);
        }
        for (i, backend) in self.backends.iter().enumerate() {
            if backend.is_empty() {
                return Err(ConfigError::EmptyAddr { field: "backends" });
            }
            if self.backends[..i].contains(backend) {
                return Err(ConfigError::DuplicateBackend(backend.clone()));
            }
        }
        if self.virtual_nodes == 0 {
            return Err(ConfigError::ZeroVirtualNodes);
        }
        if self.pool_per_backend == 0 {
            return Err(ConfigError::ZeroPoolCap);
        }
        if self.breaker_threshold == 0 {
            return Err(ConfigError::ZeroBreakerThreshold);
        }
        for (field, d) in [
            ("poll_interval", self.poll_interval),
            ("write_timeout", self.write_timeout),
            ("backend_timeout", self.backend_timeout),
            ("checkout_timeout", self.checkout_timeout),
            ("breaker_cooldown", self.breaker_cooldown),
        ] {
            if d.is_zero() {
                return Err(ConfigError::ZeroDuration { field });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn service_defaults_validate() {
        assert_eq!(ServiceConfig::default().validate(), Ok(()));
    }

    #[test]
    fn service_validate_rejects_each_invalid_field_with_a_typed_error() {
        let base = ServiceConfig::default;
        let rejected = |c: ServiceConfig| c.validate().unwrap_err();
        assert_eq!(
            rejected(ServiceConfig {
                addr: String::new(),
                ..base()
            }),
            ConfigError::EmptyAddr { field: "addr" }
        );
        assert_eq!(
            rejected(ServiceConfig {
                queue_cap: 0,
                ..base()
            }),
            ConfigError::ZeroQueueCap
        );
        assert_eq!(
            rejected(ServiceConfig {
                max_line_bytes: 8,
                ..base()
            }),
            ConfigError::LineCapTooSmall { got: 8 }
        );
        assert_eq!(
            rejected(ServiceConfig {
                poll_interval: Duration::ZERO,
                ..base()
            }),
            ConfigError::ZeroDuration {
                field: "poll_interval"
            }
        );
        assert_eq!(
            rejected(ServiceConfig {
                job_timeout: Duration::from_millis(1),
                batch_window: Duration::from_secs(2),
                ..base()
            }),
            ConfigError::BatchWindowExceedsJobTimeout
        );
        assert_eq!(
            rejected(ServiceConfig {
                addr: "127.0.0.1:7070".into(),
                http_addr: Some("127.0.0.1:7070".into()),
                ..base()
            }),
            ConfigError::SameBind("127.0.0.1:7070".into())
        );
        // Two ephemeral binds never collide.
        let ephemeral = ServiceConfig {
            addr: "127.0.0.1:0".into(),
            http_addr: Some("127.0.0.1:0".into()),
            ..base()
        };
        assert_eq!(ephemeral.validate(), Ok(()));
    }

    #[test]
    fn router_validate_checks_backends_and_knobs() {
        let over = |backends: &[&str]| RouterConfig {
            backends: backends.iter().map(|b| b.to_string()).collect(),
            ..RouterConfig::default()
        };
        assert_eq!(over(&[]).validate(), Err(ConfigError::NoBackends));
        assert_eq!(
            over(&["a:1", "b:2", "a:1"]).validate(),
            Err(ConfigError::DuplicateBackend("a:1".into()))
        );
        let rejected = |c: RouterConfig| c.validate().unwrap_err();
        assert_eq!(
            rejected(RouterConfig {
                virtual_nodes: 0,
                ..over(&["a:1"])
            }),
            ConfigError::ZeroVirtualNodes
        );
        assert_eq!(
            rejected(RouterConfig {
                pool_per_backend: 0,
                ..over(&["a:1"])
            }),
            ConfigError::ZeroPoolCap
        );
        assert_eq!(
            rejected(RouterConfig {
                breaker_threshold: 0,
                ..over(&["a:1"])
            }),
            ConfigError::ZeroBreakerThreshold
        );
        let tuned = RouterConfig {
            virtual_nodes: 16,
            pool_per_backend: 2,
            ..over(&["a:1", "b:2"])
        };
        assert_eq!(tuned.validate(), Ok(()));
    }
}
