//! Configuration validation with typed errors.
//!
//! A config field exists only for a flag a deployment sets: every field
//! of [`ServiceConfig`] is one `vbp serve` flag and every field of
//! [`RouterConfig`] one `vbp route` flag. Everything else — poll and
//! write timeouts, the line cap, the job timeout, the pool's checkout
//! wait and breaker — is a constant in the module that applies it.
//!
//! Both configs are plain public structs, built with struct-literal
//! update syntax over `Default` — which checks nothing: `queue_cap: 0`
//! would shed every submit at runtime. [`ServiceConfig::validate`] and
//! [`RouterConfig::validate`] are the one place those invariants live;
//! both answer a typed [`ConfigError`] instead of a late panic, from one
//! error taxonomy, so `vbp serve` and `vbp route` (which build a literal
//! from their flags and call `validate()`) render both identically.

use std::fmt;

use crate::daemon::JOB_TIMEOUT;
use crate::router::RouterConfig;
use crate::server::ServiceConfig;

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
    /// The batching linger exceeds [`JOB_TIMEOUT`], so every batched
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
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::EmptyAddr { field } => write!(f, "{field} must not be empty"),
            ConfigError::SameBind(addr) => {
                write!(f, "line and HTTP doors both bind '{addr}'")
            }
            ConfigError::ZeroQueueCap => write!(f, "queue_cap must be at least 1"),
            ConfigError::BatchWindowExceedsJobTimeout => write!(
                f,
                "batch_window must not exceed the {} s job timeout",
                JOB_TIMEOUT.as_secs()
            ),
            ConfigError::NoBackends => write!(f, "at least one --backends address is required"),
            ConfigError::DuplicateBackend(addr) => {
                write!(f, "backend '{addr}' is listed more than once")
            }
            ConfigError::ZeroVirtualNodes => write!(f, "vnodes must be at least 1"),
            ConfigError::ZeroPoolCap => write!(f, "pool must be at least 1"),
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
        // batch_window MAY be zero (no linger), but not longer than the
        // job timeout.
        if self.batch_window > JOB_TIMEOUT {
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
                batch_window: JOB_TIMEOUT + Duration::from_millis(1),
                ..base()
            }),
            ConfigError::BatchWindowExceedsJobTimeout
        );
        let longest = ServiceConfig {
            batch_window: JOB_TIMEOUT,
            ..base()
        };
        assert_eq!(longest.validate(), Ok(()));
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
        let tuned = RouterConfig {
            virtual_nodes: 16,
            pool_per_backend: 2,
            ..over(&["a:1", "b:2"])
        };
        assert_eq!(tuned.validate(), Ok(()));
    }
}
