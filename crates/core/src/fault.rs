//! Deterministic fault-injection seam at the engine's job boundary.
//!
//! Chaos testing a long-running daemon needs a way to make one specific
//! variant fail *inside* a worker thread — past the protocol parser, past
//! admission control, inside the clustering job itself — without touching
//! the data path for every other variant. This module is that seam: a
//! process-global "poisoned ε" that [`check`] compares against
//! bit-exactly before each assignment runs. A variant whose ε matches the
//! armed value panics with a recognizable message; every other variant is
//! untouched (the cost on the hot path is one relaxed atomic load per
//! assignment).
//!
//! The seam exists for tests — nothing in the engine or the service arms
//! it on its own. Bit-exact comparison keeps concurrent test binaries
//! honest: armed values are chosen outside any real workload's parameter
//! grid, so an armed seam cannot accidentally fire for unrelated traffic,
//! and [`disarm`] (or the RAII [`ArmedFault`]) restores the default.
//!
//! The containment contract under test lives in
//! [`Engine::execute`](crate::Engine::execute):
//! an injected panic must surface as a typed [`JobPanic`](crate::JobPanic)
//! for that run while the process — dispatcher threads, caches, other
//! connections — stays alive.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::variant::Variant;

/// Sentinel meaning "no fault armed". `u64::MAX` is a NaN bit pattern, and
/// variant ε values are validated finite, so no legitimate variant can
/// ever collide with it.
const DISARMED: u64 = u64::MAX;

static PANIC_EPS_BITS: AtomicU64 = AtomicU64::new(DISARMED);

/// The panic message prefix injected faults carry, so tests can tell an
/// injected panic from a genuine engine bug.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault";

/// Arms the seam: any variant whose ε is bit-exactly `eps` panics at the
/// start of its clustering job. Replaces any previously armed value.
pub fn arm_panic_on_eps(eps: f64) {
    PANIC_EPS_BITS.store(eps.to_bits(), Ordering::SeqCst);
}

/// Disarms the seam (idempotent).
pub fn disarm() {
    PANIC_EPS_BITS.store(DISARMED, Ordering::SeqCst);
}

/// RAII guard: arms on construction, disarms on drop — so a panicking test
/// cannot leak an armed fault into tests that run after it.
pub struct ArmedFault;

impl ArmedFault {
    /// Arms the seam for the lifetime of the guard.
    pub fn new(eps: f64) -> Self {
        arm_panic_on_eps(eps);
        ArmedFault
    }
}

impl Drop for ArmedFault {
    fn drop(&mut self) {
        disarm();
    }
}

/// The job-boundary probe: called by the engine worker right before a
/// variant's clustering work. Panics iff the seam is armed for this exact
/// ε.
#[inline]
pub(crate) fn check(variant: Variant) {
    // Relaxed is enough: the seam is test plumbing, and arming happens
    // strictly before the traffic that should observe it.
    let armed = PANIC_EPS_BITS.load(Ordering::Relaxed);
    if armed != DISARMED && variant.eps.to_bits() == armed {
        panic!("{INJECTED_PANIC_PREFIX}: variant {variant} poisoned via vbp fault seam");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // All seam tests share one process-global atomic, so they live in a
    // single #[test] to avoid ordering races with the parallel test
    // harness.
    #[test]
    fn arm_fire_and_disarm() {
        check(Variant::new(1.0, 4)); // disarmed: no panic

        {
            let _guard = ArmedFault::new(0.125);
            // Non-matching ε passes through even while armed.
            check(Variant::new(1.0, 4));
            let hit = std::panic::catch_unwind(|| check(Variant::new(0.125, 4)));
            let msg = *hit.unwrap_err().downcast::<String>().unwrap();
            assert!(msg.starts_with(INJECTED_PANIC_PREFIX), "{msg}");
        }
        // Guard dropped: disarmed again.
        check(Variant::new(0.125, 4));
    }
}
