//! Property tests for the dominance cache.
//!
//! The safety property behind cross-run reuse: whatever sequence of
//! inserts, lookups, and evictions the cache has seen, `lookup(v)` may
//! only ever return an entry that is *valid to reuse* for `v` — same
//! dataset, `v.ε ≥ entry.ε`, `v.minpts ≤ entry.minpts` — because the
//! engine will copy that entry's clusters wholesale (Algorithm 3) and an
//! invalid source silently corrupts labels rather than failing loudly.

mod common;

use std::sync::Arc;
use std::time::Duration;

use common::Watchdog;
use proptest::prelude::*;
use variantdbscan::Variant;
use vbp_dbscan::{ClusterResult, Labels};
use vbp_service::{result_bytes, DominanceCache};

fn result_of(n: usize) -> Arc<ClusterResult> {
    // Alternating two clusters — content is irrelevant to cache policy,
    // only the byte size matters.
    Arc::new(ClusterResult::from_labels(Labels::from_raw(
        (0..n as u32).map(|i| i % 2).collect(),
    )))
}

fn arb_variant() -> impl Strategy<Value = Variant> {
    (1u32..40, 1usize..10).prop_map(|(e, m)| Variant::new(f64::from(e) * 0.1, m))
}

#[derive(Clone, Debug)]
enum Op {
    Insert(&'static str, Variant, usize),
    Lookup(&'static str, Variant),
}

fn arb_dataset() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("alpha"), Just("beta")]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (arb_dataset(), arb_variant(), 8usize..64).prop_map(|(d, v, n)| Op::Insert(d, v, n)),
        (arb_dataset(), arb_variant()).prop_map(|(d, v)| Op::Lookup(d, v)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of inserts and lookups: every hit is dominance-
    /// valid for the probe, the byte budget is never exceeded, and the
    /// hit/miss counters account for every lookup.
    #[test]
    fn lookup_only_returns_valid_reuse_sources(
        ops in proptest::collection::vec(arb_op(), 1..60),
        budget_entries in 1usize..8,
    ) {
        let _wd = Watchdog::arm("cache-props-validity", Duration::from_secs(120));
        // Budget in units of a mid-sized entry so evictions actually
        // happen within 60 ops.
        let budget = budget_entries * result_bytes(&result_of(32));
        let mut cache = DominanceCache::new(budget);
        let mut lookups = 0u64;
        for op in &ops {
            match *op {
                Op::Insert(dataset, v, n) => {
                    cache.insert(dataset, v, result_of(n));
                    prop_assert!(cache.stats().bytes <= budget);
                }
                Op::Lookup(dataset, v) => {
                    lookups += 1;
                    if let Some(hit) = cache.lookup(dataset, v) {
                        prop_assert!(
                            v.can_reuse(&hit.variant),
                            "lookup({dataset}, {v}) returned non-dominated {}",
                            hit.variant
                        );
                    }
                }
            }
        }
        let stats = cache.stats();
        prop_assert_eq!(stats.hits + stats.misses, lookups);
        prop_assert!(stats.bytes <= budget);
        // Every insert either landed or was rejected as oversize.
        prop_assert_eq!(
            stats.insertions + stats.rejected_oversize,
            ops.iter().filter(|o| matches!(o, Op::Insert(..))).count() as u64
        );
    }

    /// The hit is not merely valid but *optimal*: no other valid entry of
    /// the same dataset sits strictly closer in parameter space. Verified
    /// against a naive mirror of the cache contents.
    #[test]
    fn lookup_returns_the_nearest_dominated_entry(
        inserts in proptest::collection::vec(arb_variant(), 1..12),
        probe in arb_variant(),
    ) {
        let _wd = Watchdog::arm("cache-props-nearest", Duration::from_secs(120));
        let mut cache = DominanceCache::new(usize::MAX);
        let mut mirror: Vec<Variant> = Vec::new();
        for v in &inserts {
            cache.insert("d", *v, result_of(16));
            if !mirror.contains(v) {
                mirror.push(*v);
            }
        }
        let hit = cache.lookup("d", probe);
        let valid: Vec<Variant> = mirror
            .iter()
            .copied()
            .filter(|s| probe.can_reuse(s))
            .collect();
        match hit {
            None => prop_assert!(valid.is_empty(), "cache missed despite {valid:?}"),
            Some(hit) => {
                // Recompute the cache's own normalization and check no
                // valid candidate beats the returned one.
                let eps_lo = valid.iter().map(|v| v.eps).fold(probe.eps, f64::min);
                let eps_hi = valid.iter().map(|v| v.eps).fold(probe.eps, f64::max);
                let mp_lo = valid.iter().map(|v| v.minpts).fold(probe.minpts, usize::min);
                let mp_hi = valid.iter().map(|v| v.minpts).fold(probe.minpts, usize::max);
                let er = (eps_hi - eps_lo).max(f64::MIN_POSITIVE);
                let mr = (mp_hi - mp_lo).max(1) as f64;
                let got = probe.param_distance(&hit.variant, er, mr);
                for cand in &valid {
                    prop_assert!(
                        probe.param_distance(cand, er, mr) >= got,
                        "{cand} is closer to {probe} than returned {}",
                        hit.variant
                    );
                }
            }
        }
    }

    /// Zero-width candidate neighborhoods — every candidate sharing the
    /// probe's ε, or every candidate sharing one minpts — must produce a
    /// deterministic nearest pick that does not depend on insertion
    /// order (the regression behind the explicit zero-width range guard
    /// in `DominanceCache::lookup`).
    #[test]
    fn zero_width_ranges_pick_deterministically(
        minpts_raw in proptest::collection::vec(2usize..40, 2..7),
        eps_raw in proptest::collection::vec(1u32..60, 2..7),
        seed in any::<u64>(),
    ) {
        let _wd = Watchdog::arm("cache-props-zero-width", Duration::from_secs(120));
        let mut minpts_set = minpts_raw;
        minpts_set.sort_unstable();
        minpts_set.dedup();
        let mut eps_steps = eps_raw;
        eps_steps.sort_unstable();
        eps_steps.dedup();

        // Case A: shared ε (ε spread is exactly 0 across probe and every
        // candidate). The minpts axis alone decides: the smallest
        // dominated minpts is strictly nearest to a probe below the set.
        let mut order = minpts_set.clone();
        shuffle(&mut order, seed);
        let mut cache = DominanceCache::new(usize::MAX);
        for &m in &order {
            cache.insert("d", Variant::new(1.0, m), result_of(16));
        }
        let probe = Variant::new(1.0, 1);
        let hit = cache.lookup("d", probe).expect("all candidates dominated");
        prop_assert_eq!(hit.variant, Variant::new(1.0, minpts_set[0]));

        // Case B: shared minpts (minpts spread 0). The ε axis decides:
        // the largest dominated ε is nearest to a probe above the set.
        let mut eps_order = eps_steps.clone();
        shuffle(&mut eps_order, seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut cache = DominanceCache::new(usize::MAX);
        for &e in &eps_order {
            cache.insert("d", Variant::new(f64::from(e) * 0.05, 4), result_of(16));
        }
        let top = f64::from(*eps_steps.last().unwrap()) * 0.05;
        let probe = Variant::new(top + 0.01, 4);
        let hit = cache.lookup("d", probe).expect("all candidates dominated");
        prop_assert_eq!(hit.variant, Variant::new(top, 4));
    }

    /// Insertion invalidation: after an append, maintenance runs the
    /// service's exact repair criterion — an entry survives only if no
    /// appended point lands within its ε of any pre-existing point
    /// (repaired to the grown length), else it is dropped. Afterwards no
    /// lookup, at any probe, may ever return an entry whose ε-region the
    /// append touched, nor one still sized for the old dataset — either
    /// would hand the engine a stale warm source. Entries of *other*
    /// datasets must ride through maintenance untouched.
    #[test]
    fn append_maintenance_never_leaks_a_touched_entry(
        variants in proptest::collection::vec(arb_variant(), 1..10),
        other in proptest::collection::vec(arb_variant(), 0..4),
        base_n in 8usize..24,
        appended_raw in proptest::collection::vec(0u32..10_000, 1..6),
        probes in proptest::collection::vec(arb_variant(), 1..8),
    ) {
        let _wd = Watchdog::arm("cache-props-append", Duration::from_secs(120));
        // Base points on the integer line [0, base_n); appended points
        // land in [0, ~2·base_n), so each batch straddles touched and
        // untouched regimes depending on the entry's ε.
        let base: Vec<f64> = (0..base_n).map(|i| i as f64).collect();
        let appended: Vec<f64> = appended_raw
            .iter()
            .map(|&r| f64::from(r) / 10_000.0 * 2.0 * base_n as f64)
            .collect();
        let total = base_n + appended.len();
        let touched = |eps: f64| {
            appended
                .iter()
                .any(|a| base.iter().any(|b| (a - b).abs() <= eps))
        };

        let mut cache = DominanceCache::new(usize::MAX);
        for v in &variants {
            cache.insert("alpha", *v, result_of(base_n));
        }
        for v in &other {
            cache.insert("beta", *v, result_of(base_n));
        }
        let mut distinct: Vec<Variant> = Vec::new();
        for v in &variants {
            if !distinct.contains(v) {
                distinct.push(*v);
            }
        }
        let alpha_before = distinct.len();

        let stats = cache.maintain_after_append("alpha", |variant, result| {
            assert_eq!(result.len(), base_n, "judge saw a non-alpha or mutated entry");
            if touched(variant.eps) {
                return false;
            }
            *result = result_of(total);
            true
        });
        prop_assert_eq!(
            stats.repaired + stats.dropped,
            alpha_before,
            "maintenance must visit every entry of the dataset exactly once"
        );

        for probe in &probes {
            if let Some(hit) = cache.lookup("alpha", *probe) {
                prop_assert!(
                    !touched(hit.variant.eps),
                    "lookup returned {} whose ε-region the append touched",
                    hit.variant
                );
                prop_assert_eq!(
                    hit.result.len(),
                    total,
                    "surviving entry {} not repaired to the grown dataset",
                    hit.variant
                );
            }
            if let Some(hit) = cache.lookup("beta", *probe) {
                prop_assert_eq!(
                    hit.result.len(),
                    base_n,
                    "maintenance of alpha mutated beta's entry {}",
                    hit.variant
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Repeated repairs move each entry's charge by its tail alone, and
    /// the ledger still equals every entry's walked size afterwards. The
    /// judge extends in place through `Arc::make_mut` (copying the entries
    /// a reader still holds), drops some entries, and the LRU re-evicts
    /// to a budget the growth crosses.
    #[test]
    fn repeated_repairs_keep_the_ledger_exact(
        variants in proptest::collection::vec(arb_variant(), 1..8),
        rounds in proptest::collection::vec((1usize..9, 0u32..4, 0u32..10), 1..24),
        base_n in 8usize..64,
        budget_entries in 2usize..12,
    ) {
        let budget = budget_entries * result_bytes(&result_of(base_n + 40));
        let mut cache = DominanceCache::new(budget);
        for v in &variants {
            cache.insert("alpha", *v, result_of(base_n));
        }
        let mut held: Vec<Arc<ClusterResult>> = Vec::new();
        for (round, &(len, clusters, drop_every)) in rounds.iter().enumerate() {
            let tail = ClusterResult::from_labels(Labels::from_raw(
                (0..len as u32)
                    .map(|j| if clusters == 0 { u32::MAX } else { j % clusters.min(len as u32) })
                    .collect(),
            ));
            let mut visited = 0u32;
            cache.maintain_after_append("alpha", |_, result| {
                visited += 1;
                if drop_every > 0 && visited.is_multiple_of(drop_every + 1) {
                    return false;
                }
                if (round + visited as usize).is_multiple_of(3) {
                    held.push(Arc::clone(result));
                }
                Arc::make_mut(result).extend(&tail);
                true
            });
            if let Err(e) = cache.check_invariants() {
                return Err(TestCaseError::fail(format!("round {round}: {e}")));
            }
        }
        for old in &held {
            prop_assert!(old.check_consistency().is_ok(), "a held result changed");
        }
    }
}

/// Deterministic Fisher–Yates driven by splitmix64 — enough entropy to
/// vary insertion order without pulling in an RNG dependency.
fn shuffle<T>(v: &mut [T], mut state: u64) {
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        v.swap(i, (next() % (i as u64 + 1)) as usize);
    }
}

/// Exact distance ties must fall to the pinned deterministic tie-break
/// (ascending ε, then descending minpts) in every insertion order.
#[test]
fn exact_tie_breaks_by_eps_then_minpts_in_any_order() {
    // probe (1.0, 10): (0.8, 10) is 0.2/0.2 = 1.0 away on ε alone;
    // (1.0, 12) is 2/2 = 1.0 away on minpts alone. Ascending ε wins.
    let probe = Variant::new(1.0, 10);
    let a = Variant::new(0.8, 10);
    let b = Variant::new(1.0, 12);
    for pair in [[a, b], [b, a]] {
        let mut cache = DominanceCache::new(usize::MAX);
        for v in pair {
            cache.insert("d", v, result_of(16));
        }
        let hit = cache.lookup("d", probe).expect("both are dominated");
        assert_eq!(hit.variant, a, "tie must break toward ascending ε");
    }
}
