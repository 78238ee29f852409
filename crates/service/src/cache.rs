//! Cross-run reuse cache over the `(ε, minpts)` dominance lattice.
//!
//! The engine already exploits the paper's inclusion criteria (§IV-B,
//! Algorithm 3) *within* one batch run; this cache extends the same
//! criteria *across* runs. A completed [`ClusterResult`] for variant
//! `v_j` is a valid warm-start source for a later request `v_i` exactly
//! when `v_i` dominates it:
//!
//! ```text
//! v_i.ε ≥ v_j.ε  ∧  v_i.minpts ≤ v_j.minpts
//! ```
//!
//! (the mirror of [`Variant::can_reuse`], which asks the question from
//! the consumer's side). Among the dominated entries of the same dataset,
//! [`DominanceCache::lookup`] returns the nearest by normalized parameter
//! distance — the same criterion `SchedGreedy` applies to in-run sources,
//! so the cache behaves like a persistent extension of the scheduler's
//! completed set.
//!
//! Memory is bounded by an LRU byte budget: every hit refreshes an
//! entry's clock stamp, and inserts evict the stalest entries until the
//! new total fits. Entries larger than the whole budget are rejected
//! outright. All traffic is counted in [`CacheStats`] so the service's
//! `STATS` command can report hit/miss/eviction rates.

use std::sync::Arc;

use variantdbscan::{JsonObject, Variant};
use vbp_dbscan::ClusterResult;

/// Fixed per-entry bookkeeping charge (strings, stamps, vec headers).
const ENTRY_OVERHEAD_BYTES: usize = 96;

/// A successful [`DominanceCache::lookup`].
#[derive(Clone, Debug)]
pub struct CacheHit {
    /// The cached variant whose clusters may be reused.
    pub variant: Variant,
    /// Its completed clustering, in the dataset's tree order.
    pub result: Arc<ClusterResult>,
}

#[derive(Debug)]
struct CacheEntry {
    dataset: String,
    variant: Variant,
    result: Arc<ClusterResult>,
    bytes: usize,
    stamp: u64,
}

/// Counters exposed through the service `STATS` command.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Live entries.
    pub entries: usize,
    /// Bytes currently charged against the budget.
    pub bytes: usize,
    /// The configured budget.
    pub budget_bytes: usize,
    /// Lookups that returned a dominated entry.
    pub hits: u64,
    /// Lookups that found nothing valid to reuse.
    pub misses: u64,
    /// Results stored (refreshes of an identical variant count too).
    pub insertions: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Bytes reclaimed by those evictions.
    pub evicted_bytes: u64,
    /// Inserts rejected because one entry exceeded the whole budget.
    pub rejected_oversize: u64,
    /// Entries repaired (extended in place) by append maintenance.
    pub repaired: u64,
    /// Entries dropped by append maintenance (ε-region touched).
    pub repair_dropped: u64,
}

impl CacheStats {
    /// The point-in-time fields, by name (`vbp_cache_<name>` gauges).
    pub fn gauges(&self) -> [(&'static str, u64); 3] {
        [
            ("entries", self.entries as u64),
            ("bytes", self.bytes as u64),
            ("budget_bytes", self.budget_bytes as u64),
        ]
    }

    /// The monotonic fields, by name (`vbp_cache_<name>_total` series).
    pub fn totals(&self) -> [(&'static str, u64); 8] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("insertions", self.insertions),
            ("evictions", self.evictions),
            ("evicted_bytes", self.evicted_bytes),
            ("rejected_oversize", self.rejected_oversize),
            ("repaired", self.repaired),
            ("repair_dropped", self.repair_dropped),
        ]
    }

    /// Machine-readable form for the `STATS` line protocol command.
    pub fn to_json(&self) -> String {
        let fields = self.gauges().into_iter().chain(self.totals());
        fields
            .fold(JsonObject::new(), |doc, (key, value)| doc.uint(key, value))
            .finish()
    }
}

/// Outcome of one [`DominanceCache::maintain_after_append`] pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Entries whose results were repaired (extended to the appended
    /// dataset length) and kept.
    pub repaired: usize,
    /// Entries dropped because the insertion touched their ε-region.
    pub dropped: usize,
}

/// An LRU-bounded store of completed clusterings, keyed by dataset name
/// and searched by parameter dominance.
///
/// Results are stored (and returned) in the owning dataset's *tree
/// order*; they are only meaningful together with the
/// [`PreparedIndex`](variantdbscan::PreparedIndex) they were computed on,
/// which the registry keeps alive for the dataset's whole lifetime.
#[derive(Debug)]
pub struct DominanceCache {
    entries: Vec<CacheEntry>,
    bytes: usize,
    budget: usize,
    clock: u64,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
    evicted_bytes: u64,
    rejected_oversize: u64,
    repaired: u64,
    repair_dropped: u64,
}

/// Estimated resident size of one cached result: the label array plus the
/// per-cluster member lists, four bytes per id each.
pub fn result_bytes(result: &ClusterResult) -> usize {
    let members: usize = result.iter_clusters().map(|(_, m)| m.len()).sum();
    (result.len() + members) * 4 + ENTRY_OVERHEAD_BYTES
}

impl DominanceCache {
    /// An empty cache with the given byte budget. A budget of zero
    /// disables storage entirely (every lookup misses, every insert is
    /// rejected as oversize).
    pub fn new(budget_bytes: usize) -> Self {
        Self {
            entries: Vec::new(),
            bytes: 0,
            budget: budget_bytes,
            clock: 0,
            hits: 0,
            misses: 0,
            insertions: 0,
            evictions: 0,
            evicted_bytes: 0,
            rejected_oversize: 0,
            repaired: 0,
            repair_dropped: 0,
        }
    }

    /// Live entry count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finds the best warm-start source for `v` on `dataset`: among the
    /// entries `v` dominates, the one at minimal normalized parameter
    /// distance (ties broken by ascending ε then descending minpts, so
    /// the answer is deterministic). Refreshes the winner's LRU stamp.
    pub fn lookup(&mut self, dataset: &str, v: Variant) -> Option<CacheHit> {
        // Normalize distances over the candidate neighborhood: the spread
        // of parameters across v and everything it dominates here.
        let (mut eps_lo, mut eps_hi) = (v.eps, v.eps);
        let (mut mp_lo, mut mp_hi) = (v.minpts, v.minpts);
        let mut any = false;
        for e in &self.entries {
            if e.dataset == dataset && v.can_reuse(&e.variant) {
                any = true;
                eps_lo = eps_lo.min(e.variant.eps);
                eps_hi = eps_hi.max(e.variant.eps);
                mp_lo = mp_lo.min(e.variant.minpts);
                mp_hi = mp_hi.max(e.variant.minpts);
            }
        }
        if !any {
            self.misses += 1;
            return None;
        }
        // Zero-width guard: when every candidate (and `v` itself) shares
        // one ε — or one minpts — that component's spread is 0 and the
        // normalized distance would divide by it. Substituting a neutral
        // divisor of 1.0 makes the degenerate component contribute
        // exactly 0 for every candidate (all numerators are 0 too),
        // instead of routing 0/0-shaped inputs through subnormal
        // divisors. Distances stay finite for every entry — pinned by
        // the `cache_props` zero-width property test.
        let eps_width = eps_hi - eps_lo;
        let eps_range = if eps_width > 0.0 { eps_width } else { 1.0 };
        let minpts_range = (mp_hi - mp_lo).max(1) as f64;

        let mut best: Option<(f64, usize)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if e.dataset != dataset || !v.can_reuse(&e.variant) {
                continue;
            }
            let d = v.param_distance(&e.variant, eps_range, minpts_range);
            debug_assert!(d.is_finite(), "non-finite candidate distance {d}");
            let better = match best {
                None => true,
                Some((bd, bi)) => {
                    let b = &self.entries[bi].variant;
                    d < bd
                        || (d == bd
                            && (e.variant.eps < b.eps
                                || (e.variant.eps == b.eps && e.variant.minpts > b.minpts)))
                }
            };
            if better {
                best = Some((d, i));
            }
        }
        let (_, i) = best.expect("candidate set was non-empty");
        self.hits += 1;
        self.clock += 1;
        self.entries[i].stamp = self.clock;
        Some(CacheHit {
            variant: self.entries[i].variant,
            result: Arc::clone(&self.entries[i].result),
        })
    }

    /// Stores a completed clustering. An existing entry for the same
    /// `(dataset, variant)` is refreshed in place; otherwise stale
    /// entries are evicted (least-recently-used first) until the new
    /// entry fits the budget.
    pub fn insert(&mut self, dataset: &str, variant: Variant, result: Arc<ClusterResult>) {
        let bytes = result_bytes(&result);
        if bytes > self.budget {
            self.rejected_oversize += 1;
            return;
        }
        self.clock += 1;
        self.insertions += 1;
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.dataset == dataset && e.variant == variant)
        {
            self.bytes = self.bytes - e.bytes + bytes;
            e.result = result;
            e.bytes = bytes;
            e.stamp = self.clock;
        } else {
            self.entries.push(CacheEntry {
                dataset: dataset.to_string(),
                variant,
                result,
                bytes,
                stamp: self.clock,
            });
            self.bytes += bytes;
        }
        self.evict_to_budget();
    }

    /// Evicts least-recently-used entries until the byte ledger fits the
    /// budget again.
    fn evict_to_budget(&mut self) {
        while self.bytes > self.budget {
            let stalest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(i, _)| i)
                .expect("bytes > 0 implies entries");
            let gone = self.entries.swap_remove(stalest);
            self.bytes -= gone.bytes;
            self.evictions += 1;
            self.evicted_bytes += gone.bytes as u64;
        }
    }

    /// Maintains every entry of `dataset` after a streaming append: the
    /// judge inspects each `(variant, cached result)` and returns either
    /// the repaired result (the old clustering extended to the mutated
    /// dataset's length — only sound when the insertion provably did not
    /// touch the entry's ε-region) or `None` to drop the entry. Repaired
    /// entries are re-charged at their new size and the LRU is re-evicted
    /// to budget afterwards; dropped entries do not count as evictions.
    pub fn maintain_after_append(
        &mut self,
        dataset: &str,
        mut judge: impl FnMut(&Variant, &ClusterResult) -> Option<Arc<ClusterResult>>,
    ) -> RepairStats {
        let mut stats = RepairStats::default();
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].dataset != dataset {
                i += 1;
                continue;
            }
            match judge(&self.entries[i].variant, &self.entries[i].result) {
                Some(next) => {
                    let bytes = result_bytes(&next);
                    let e = &mut self.entries[i];
                    self.bytes = self.bytes - e.bytes + bytes;
                    e.result = next;
                    e.bytes = bytes;
                    stats.repaired += 1;
                    i += 1;
                }
                None => {
                    // swap_remove moves an unvisited tail entry into `i`,
                    // so the index is intentionally not advanced.
                    let gone = self.entries.swap_remove(i);
                    self.bytes -= gone.bytes;
                    stats.dropped += 1;
                }
            }
        }
        self.repaired += stats.repaired as u64;
        self.repair_dropped += stats.dropped as u64;
        self.evict_to_budget();
        stats
    }

    /// A counter-neutral copy of every live entry, in deterministic
    /// `(dataset, ε, minpts)` order regardless of insertion, refresh, or
    /// `swap_remove` history — the streaming equivalence suite audits
    /// these against the mutated datasets, and the warm-state store
    /// relies on the ordering so that snapshotting an unchanged daemon
    /// twice yields byte-identical files.
    pub fn snapshot_entries(&self) -> Vec<(String, Variant, Arc<ClusterResult>)> {
        let mut out: Vec<_> = self
            .entries
            .iter()
            .map(|e| (e.dataset.clone(), e.variant, Arc::clone(&e.result)))
            .collect();
        out.sort_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| a.1.eps.total_cmp(&b.1.eps))
                .then_with(|| a.1.minpts.cmp(&b.1.minpts))
        });
        out
    }

    /// Rewrites the stored result of every entry of `dataset` through
    /// `f`, dropping entries for which `f` returns `None`. Counter-
    /// neutral: unlike [`DominanceCache::maintain_after_append`] this
    /// touches neither the repaired/dropped counters nor the eviction
    /// counters beyond what a genuine size increase forces — it exists
    /// for *order-preserving* rewrites, specifically re-keying cached
    /// tree-order labels after the warm-state store flushes a dirty
    /// append tail through a full re-sort (same points, new
    /// permutation).
    pub fn remap_results(
        &mut self,
        dataset: &str,
        mut f: impl FnMut(&Variant, &ClusterResult) -> Option<Arc<ClusterResult>>,
    ) {
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].dataset != dataset {
                i += 1;
                continue;
            }
            match f(&self.entries[i].variant, &self.entries[i].result) {
                Some(next) => {
                    let bytes = result_bytes(&next);
                    let e = &mut self.entries[i];
                    self.bytes = self.bytes - e.bytes + bytes;
                    e.result = next;
                    e.bytes = bytes;
                    i += 1;
                }
                None => {
                    let gone = self.entries.swap_remove(i);
                    self.bytes -= gone.bytes;
                }
            }
        }
        self.evict_to_budget();
    }

    /// Structural self-check, used by the chaos suite after every fault
    /// schedule: the byte ledger matches the entries, the budget holds,
    /// no stamp outruns the clock, and no `(dataset, variant)` key is
    /// duplicated. Returns a description of the first violation.
    pub fn check_invariants(&self) -> Result<(), String> {
        let summed: usize = self.entries.iter().map(|e| e.bytes).sum();
        if summed != self.bytes {
            return Err(format!(
                "byte ledger drift: entries sum to {summed}, ledger says {}",
                self.bytes
            ));
        }
        if self.bytes > self.budget {
            return Err(format!(
                "over budget: {} bytes held, {} allowed",
                self.bytes, self.budget
            ));
        }
        for (i, e) in self.entries.iter().enumerate() {
            if e.stamp > self.clock {
                return Err(format!(
                    "entry {} stamp {} outruns clock {}",
                    e.variant, e.stamp, self.clock
                ));
            }
            for other in &self.entries[i + 1..] {
                if other.dataset == e.dataset && other.variant == e.variant {
                    return Err(format!("duplicate key ({}, {})", e.dataset, e.variant));
                }
            }
        }
        Ok(())
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            entries: self.entries.len(),
            bytes: self.bytes,
            budget_bytes: self.budget,
            hits: self.hits,
            misses: self.misses,
            insertions: self.insertions,
            evictions: self.evictions,
            evicted_bytes: self.evicted_bytes,
            rejected_oversize: self.rejected_oversize,
            repaired: self.repaired,
            repair_dropped: self.repair_dropped,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbp_dbscan::ClusterResult;

    fn result_of(labels: Vec<u32>) -> Arc<ClusterResult> {
        Arc::new(ClusterResult::from_labels(vbp_dbscan::Labels::from_raw(
            labels,
        )))
    }

    #[test]
    fn lookup_honors_dominance() {
        let mut cache = DominanceCache::new(1 << 20);
        cache.insert("d", Variant::new(1.0, 8), result_of(vec![0, 0, 1, 1]));
        // ε too small: the cached ε exceeds the request's.
        assert!(cache.lookup("d", Variant::new(0.5, 8)).is_none());
        // minpts too large on the request side is fine; too small cached
        // minpts is not representable here — the valid direction:
        let hit = cache.lookup("d", Variant::new(1.5, 4)).unwrap();
        assert_eq!(hit.variant, Variant::new(1.0, 8));
        // Wrong dataset never matches.
        assert!(cache.lookup("other", Variant::new(1.5, 4)).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn lookup_prefers_nearest_dominated_entry() {
        let mut cache = DominanceCache::new(1 << 20);
        cache.insert("d", Variant::new(0.2, 9), result_of(vec![0; 4]));
        cache.insert("d", Variant::new(0.9, 6), result_of(vec![0; 4]));
        cache.insert("d", Variant::new(1.0, 5), result_of(vec![0; 4]));
        let hit = cache.lookup("d", Variant::new(1.0, 5)).unwrap();
        assert_eq!(hit.variant, Variant::new(1.0, 5), "identity is distance 0");
        let hit = cache.lookup("d", Variant::new(0.95, 6)).unwrap();
        assert_eq!(hit.variant, Variant::new(0.9, 6));
    }

    #[test]
    fn identity_insert_refreshes_in_place() {
        let mut cache = DominanceCache::new(1 << 20);
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 0]));
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 1]));
        assert_eq!(cache.len(), 1);
        let hit = cache.lookup("d", Variant::new(1.0, 4)).unwrap();
        assert_eq!(hit.result.num_clusters(), 2);
    }

    #[test]
    fn lru_eviction_respects_budget_and_counts() {
        // Each 4-point result costs (4 + members)*4 + 96 bytes; pick a
        // budget that holds exactly two.
        // Mutually non-dominating variants, so each probe below can only
        // be answered by its own exact entry.
        let one = result_bytes(&result_of(vec![0, 0, 1, 1]));
        let mut cache = DominanceCache::new(2 * one);
        cache.insert("d", Variant::new(1.0, 9), result_of(vec![0, 0, 1, 1]));
        cache.insert("d", Variant::new(0.5, 5), result_of(vec![0, 0, 1, 1]));
        // Touch the older entry so the newer one is the LRU victim.
        assert!(cache.lookup("d", Variant::new(1.0, 9)).is_some());
        cache.insert("d", Variant::new(2.0, 20), result_of(vec![0, 0, 1, 1]));
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert!(s.bytes <= s.budget_bytes);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.evicted_bytes, one as u64);
        assert!(cache.lookup("d", Variant::new(1.0, 9)).is_some());
        assert!(cache.lookup("d", Variant::new(0.5, 5)).is_none());
    }

    #[test]
    fn zero_budget_disables_storage() {
        let mut cache = DominanceCache::new(0);
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 0]));
        assert!(cache.is_empty());
        assert_eq!(cache.stats().rejected_oversize, 1);
        assert!(cache.lookup("d", Variant::new(2.0, 2)).is_none());
    }

    #[test]
    fn invariants_hold_through_churn() {
        let one = result_bytes(&result_of(vec![0, 0, 1, 1]));
        let mut cache = DominanceCache::new(3 * one);
        for i in 0..20u32 {
            let v = Variant::new(0.1 + f64::from(i) * 0.07, 3 + (i as usize % 7));
            cache.insert("d", v, result_of(vec![0, 0, 1, 1]));
            let _ = cache.lookup("d", v);
            cache.check_invariants().unwrap();
        }
        assert!(cache.stats().evictions > 0, "churn must have evicted");
    }

    #[test]
    fn maintain_after_append_repairs_and_drops() {
        let mut cache = DominanceCache::new(1 << 20);
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 0]));
        cache.insert("d", Variant::new(2.0, 4), result_of(vec![0, 1]));
        cache.insert("other", Variant::new(3.0, 4), result_of(vec![0]));
        let stats = cache.maintain_after_append("d", |v, r| {
            if v.eps > 1.5 {
                None // pretend the insertion touched this ε-region
            } else {
                let mut raw: Vec<u32> = r.labels().iter_raw().collect();
                raw.push(u32::MAX); // appended point judged noise
                Some(result_of(raw))
            }
        });
        assert_eq!(
            stats,
            RepairStats {
                repaired: 1,
                dropped: 1
            }
        );
        cache.check_invariants().unwrap();
        let hit = cache.lookup("d", Variant::new(1.0, 4)).unwrap();
        assert_eq!(hit.result.len(), 3, "repaired entry was extended");
        assert!(
            cache
                .lookup("d", Variant::new(2.5, 4))
                .unwrap()
                .result
                .len()
                == 3,
            "dropped entry must not answer; nearest survivor does"
        );
        let untouched = cache.lookup("other", Variant::new(3.0, 4)).unwrap();
        assert_eq!(untouched.result.len(), 1, "other datasets untouched");
        let s = cache.stats();
        assert_eq!((s.repaired, s.repair_dropped), (1, 1));
        assert_eq!(cache.snapshot_entries().len(), 2);
    }

    #[test]
    fn maintain_after_append_re_evicts_to_budget() {
        let small = result_bytes(&result_of(vec![0, 0, 1, 1]));
        let mut cache = DominanceCache::new(2 * small);
        cache.insert("d", Variant::new(1.0, 9), result_of(vec![0, 0, 1, 1]));
        cache.insert("d", Variant::new(0.5, 5), result_of(vec![0, 0, 1, 1]));
        // Repair doubles every entry: the ledger overflows and the LRU
        // must shed entries until the budget holds again.
        cache.maintain_after_append("d", |_, r| {
            let mut raw: Vec<u32> = r.labels().iter_raw().collect();
            raw.extend_from_slice(&[u32::MAX; 8]);
            Some(result_of(raw))
        });
        cache.check_invariants().unwrap();
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn snapshot_entries_order_is_deterministic() {
        // Two caches fed the same entries through *different* histories
        // (insertion order, refreshes, interleaved lookups) must snapshot
        // identically — the warm-state store's repeat-snapshot guarantee.
        let entries = [
            ("b", Variant::new(1.0, 4)),
            ("a", Variant::new(2.0, 4)),
            ("a", Variant::new(1.0, 9)),
            ("a", Variant::new(1.0, 4)),
        ];
        let mut x = DominanceCache::new(1 << 20);
        for (d, v) in entries {
            x.insert(d, v, result_of(vec![0, 0]));
        }
        let mut y = DominanceCache::new(1 << 20);
        for (d, v) in entries.iter().rev() {
            y.insert(d, *v, result_of(vec![0, 0]));
            let _ = y.lookup(d, Variant::new(9.0, 1));
        }
        // Refresh one entry in place; order must not depend on it.
        y.insert("a", Variant::new(1.0, 9), result_of(vec![0, 0]));
        let key = |s: &[(String, Variant, Arc<ClusterResult>)]| -> Vec<(String, u64, usize)> {
            s.iter()
                .map(|(d, v, _)| (d.clone(), v.eps.to_bits(), v.minpts))
                .collect()
        };
        assert_eq!(key(&x.snapshot_entries()), key(&y.snapshot_entries()));
        assert_eq!(
            key(&x.snapshot_entries()),
            vec![
                ("a".to_string(), 1.0f64.to_bits(), 4),
                ("a".to_string(), 1.0f64.to_bits(), 9),
                ("a".to_string(), 2.0f64.to_bits(), 4),
                ("b".to_string(), 1.0f64.to_bits(), 4),
            ]
        );
        // Repeat snapshots of one unchanged cache are identical.
        assert_eq!(key(&x.snapshot_entries()), key(&x.snapshot_entries()));
    }

    #[test]
    fn remap_results_is_counter_neutral() {
        let mut cache = DominanceCache::new(1 << 20);
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 0, 1]));
        cache.insert("d", Variant::new(2.0, 4), result_of(vec![0, 1, 1]));
        cache.insert("other", Variant::new(1.0, 4), result_of(vec![0]));
        let before = cache.stats();
        cache.remap_results("d", |v, r| {
            if v.eps > 1.5 {
                None
            } else {
                // An order-preserving rewrite: same length, same size.
                let mut raw: Vec<u32> = r.labels().iter_raw().collect();
                raw.reverse();
                Some(result_of(raw))
            }
        });
        cache.check_invariants().unwrap();
        let after = cache.stats();
        assert_eq!(after.entries, 2);
        assert_eq!((after.repaired, after.repair_dropped), (0, 0));
        assert_eq!(after.evictions, before.evictions);
        assert_eq!(after.insertions, before.insertions);
        let hit = cache.lookup("d", Variant::new(1.0, 4)).unwrap();
        assert_eq!(
            hit.result.labels().iter_raw().collect::<Vec<_>>(),
            vec![1, 0, 0]
        );
    }

    #[test]
    fn stats_json_is_well_formed() {
        let mut cache = DominanceCache::new(1024);
        cache.insert("d", Variant::new(1.0, 4), result_of(vec![0, 0]));
        let json = cache.stats().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"hits\":0"));
        assert!(json.contains("\"insertions\":1"));
    }
}
