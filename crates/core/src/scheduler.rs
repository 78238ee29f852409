//! Online variant scheduling — §IV-D.
//!
//! Threads pull work from a shared schedule. An assignment pairs a pending
//! variant with (optionally) a *completed* variant to reuse; the choice is
//! made at pull time, because which variants have completed is exactly the
//! online information the paper's heuristics exploit:
//!
//! - **SchedGreedy** — among all (pending, completed) pairs satisfying the
//!   inclusion criteria, pick the one with the smallest normalized
//!   parameter distance. If no pending variant can reuse anything
//!   completed, cluster the pending variant with the smallest ε / largest
//!   minpts from scratch (that is position 0 of the canonical order).
//! - **SchedMinpts** — first cluster, from scratch, the max-minpts variant
//!   of every distinct ε (the "priority list"), maximizing the diversity
//!   of future reuse sources; afterwards behave exactly like SchedGreedy.
//!
//! # Incremental best-pair selection
//!
//! The original implementation rescanned every (pending, completed) pair
//! on *each* pull — O(|pending| · |completed|) inside the engine's shared
//! lock, which serializes workers on Table IV-scale grids. This module now
//! pays an amortized cost per **completion** instead: `complete(u)` pushes
//! the eligible (pending, u) pairs into a min-heap keyed by
//! (`param_distance`, variant, source) — the same deterministic tie-break
//! as the scan — and `next_assignment` pops the heap top in O(log n),
//! lazily discarding entries whose pending variant was already taken.
//! Pending variants only ever leave the pending set, so a heap entry is
//! stale iff its variant is no longer pending; sources are never
//! invalidated because completed variants stay completed. The emitted
//! assignment sequence is therefore *identical* to the exhaustive scan's
//! (see [`ReferenceScheduleState`] and the property tests).
//!
//! # Warm sources
//!
//! The service layer's cross-run cache seeds a schedule with *externally*
//! completed variants ([`ScheduleState::with_warm_sources`]): clusterings
//! produced by an earlier engine run over the same prepared index. Warm
//! sources occupy the id range `variants.len()..variants.len() + warm`,
//! never appear as pending work, and never complete — they only add
//! candidate reuse pairs up front, so a warm-started run can hand out
//! reuse assignments from its very first pull. Ties between a warm and an
//! in-run source at equal distance resolve toward the in-run source (its
//! id is smaller), keeping cold-run behavior bit-identical when the warm
//! list is empty.

use std::collections::{BTreeSet, BinaryHeap, VecDeque};

use crate::variant::VariantSet;

/// The paper's two thread-scheduling heuristics.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Minimize each variant's time to solution by reusing the most
    /// similar completed variant (§IV-D heuristic 1).
    #[default]
    SchedGreedy,
    /// Seed the schedule with a diverse set of from-scratch variants
    /// (§IV-D heuristic 2).
    SchedMinpts,
}

impl Scheduler {
    /// Short stable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::SchedGreedy => "SchedGreedy",
            Scheduler::SchedMinpts => "SchedMinpts",
        }
    }
}

impl std::fmt::Display for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One unit of work handed to a thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Assignment {
    /// Index of the variant to cluster (into the canonical
    /// [`VariantSet`] order).
    pub variant: usize,
    /// Completed variant whose clusters should be reused, or `None` to
    /// cluster from scratch.
    pub reuse_from: Option<usize>,
}

/// The common schedule interface, implemented by both the production
/// [`ScheduleState`] and the executable specification
/// [`ReferenceScheduleState`]. The simulator and the equivalence tests are
/// generic over it.
pub trait ScheduleSource {
    /// Pulls the next assignment, or `None` when no variants are pending.
    fn next_assignment(&mut self) -> Option<Assignment>;
    /// Records that `variant` finished, making it available as a reuse
    /// source for future assignments.
    fn complete(&mut self, variant: usize);
    /// Returns `true` once every variant has been assigned and completed.
    fn is_finished(&self) -> bool;
}

/// A candidate (pending, completed) reuse pair, ordered exactly like the
/// reference scan's `(distance, variant, source)` tuples: ascending
/// distance, ties toward earlier canonical positions.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    dist: f64,
    variant: usize,
    source: usize,
}

impl PartialEq for Candidate {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for Candidate {}

impl Ord for Candidate {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Distances are sums of absolute values, so never NaN and never
        // -0.0; total_cmp matches the reference scan's partial_cmp.
        self.dist
            .total_cmp(&other.dist)
            .then(self.variant.cmp(&other.variant))
            .then(self.source.cmp(&other.source))
    }
}

impl PartialOrd for Candidate {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Shared scheduling state. The engine wraps this in a small mutex; every
/// method is O(log n) amortized, so the critical section stays tiny even
/// on large variant grids.
#[derive(Clone, Debug)]
pub struct ScheduleState {
    scheduler: Scheduler,
    reuse_enabled: bool,
    eps_range: f64,
    minpts_range: f64,
    /// Pending variant indices; a BTreeSet so membership tests, removal,
    /// and "first pending in canonical order" are all logarithmic.
    pending: BTreeSet<usize>,
    /// SchedMinpts scratch-first queue (ascending ε), subset of pending.
    priority: VecDeque<usize>,
    /// Completed count (sources live forever; no list needed).
    completed: usize,
    /// Min-heap of candidate reuse pairs; entries whose variant has been
    /// taken are discarded lazily on pop.
    candidates: BinaryHeap<std::cmp::Reverse<Candidate>>,
    /// In-flight count, to distinguish "done" from "temporarily empty".
    in_flight: usize,
    /// Set when a worker hit a panic: no further assignments are handed
    /// out, so every worker drains and the run can fail as a unit.
    aborted: bool,
    variants: VariantSet,
}

impl ScheduleState {
    /// Creates the schedule for a variant set.
    ///
    /// `reuse_enabled = false` forces every assignment to be from scratch
    /// (the reference-implementation configuration).
    pub fn new(variants: VariantSet, scheduler: Scheduler, reuse_enabled: bool) -> Self {
        Self::with_warm_sources(variants, scheduler, reuse_enabled, &[])
    }

    /// Creates a schedule seeded with externally completed *warm sources*
    /// (see the module docs): `warm[i]` is addressable as reuse source
    /// `variants.len() + i` in the assignments this schedule emits. Warm
    /// sources contribute candidate reuse pairs immediately but are never
    /// pending and never counted as completions. With an empty `warm`
    /// slice this is exactly [`ScheduleState::new`].
    pub fn with_warm_sources(
        variants: VariantSet,
        scheduler: Scheduler,
        reuse_enabled: bool,
        warm: &[crate::variant::Variant],
    ) -> Self {
        let pending: BTreeSet<usize> = (0..variants.len()).collect();
        let priority: VecDeque<usize> = match scheduler {
            Scheduler::SchedMinpts => variants.minpts_priority_indices().into(),
            Scheduler::SchedGreedy => VecDeque::new(),
        };
        let mut state = Self {
            scheduler,
            reuse_enabled,
            eps_range: variants.eps_range(),
            minpts_range: variants.minpts_range(),
            pending,
            priority,
            completed: 0,
            candidates: BinaryHeap::new(),
            in_flight: 0,
            aborted: false,
            variants,
        };
        if state.reuse_enabled {
            for (i, &w) in warm.iter().enumerate() {
                state.push_candidates_for_source(state.variants.len() + i, w);
            }
        }
        state
    }

    /// Pushes the (pending, `source`) candidate pairs a newly available
    /// reuse source enables. `source_id` may address a warm source (id ≥
    /// `variants.len()`) — the heap and the emitted assignments carry it
    /// through untouched.
    fn push_candidates_for_source(&mut self, source_id: usize, source: crate::variant::Variant) {
        for &v in &self.pending {
            let vv = self.variants[v];
            if !vv.can_reuse(&source) {
                continue;
            }
            let dist = vv.param_distance(&source, self.eps_range, self.minpts_range);
            self.candidates.push(std::cmp::Reverse(Candidate {
                dist,
                variant: v,
                source: source_id,
            }));
        }
    }

    /// The scheduling heuristic in use.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    /// Variants not yet assigned.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    fn take_pending(&mut self, v: usize) {
        let was_pending = self.pending.remove(&v);
        debug_assert!(was_pending, "assigned variant must be pending");
        self.in_flight += 1;
    }

    /// Poisons the schedule: [`ScheduleState::next_assignment`] returns
    /// `None` from now on, so every worker exits at its next pull. Called
    /// by the engine when a job panics — the run is going to fail as a
    /// whole, and handing out more work would only delay that verdict.
    pub fn abort(&mut self) {
        self.aborted = true;
    }

    fn pull_impl(&mut self) -> Option<Assignment> {
        if self.aborted || self.pending.is_empty() {
            return None;
        }

        // SchedMinpts: drain the scratch-first priority queue.
        if let Some(head) = self.priority.pop_front() {
            self.take_pending(head);
            return Some(Assignment {
                variant: head,
                reuse_from: None,
            });
        }

        if self.reuse_enabled {
            // Greedy rule: pop the globally best (pending, completed) pair
            // by parameter distance; stale entries (variant already taken)
            // are discarded lazily. Ordering — (distance, variant, source)
            // ascending — reproduces the reference scan's tie-break.
            while let Some(&std::cmp::Reverse(cand)) = self.candidates.peek() {
                if !self.pending.contains(&cand.variant) {
                    self.candidates.pop();
                    continue;
                }
                self.candidates.pop();
                self.take_pending(cand.variant);
                // SchedMinpts keeps its priority list consistent if the
                // greedy rule happens to grab one of its entries.
                self.priority.retain(|&p| p != cand.variant);
                return Some(Assignment {
                    variant: cand.variant,
                    reuse_from: Some(cand.source),
                });
            }
        }

        // Nothing reusable (or reuse disabled): cluster from scratch the
        // pending variant with the smallest ε and largest minpts — the
        // first pending index in canonical order.
        let v = *self.pending.first().expect("pending is non-empty");
        self.take_pending(v);
        self.priority.retain(|&p| p != v);
        Some(Assignment {
            variant: v,
            reuse_from: None,
        })
    }

    fn complete_impl(&mut self, variant: usize) {
        debug_assert!(self.in_flight > 0);
        self.in_flight -= 1;
        self.completed += 1;
        if !self.reuse_enabled {
            return;
        }
        // Amortized insertion: every pending variant that can reuse the
        // newly completed one becomes a candidate pair. Pending variants
        // only ever leave the set, so no future pair is missed.
        let u = self.variants[variant];
        self.push_candidates_for_source(variant, u);
    }
}

impl ScheduleSource for ScheduleState {
    fn next_assignment(&mut self) -> Option<Assignment> {
        self.pull_impl()
    }

    fn complete(&mut self, variant: usize) {
        self.complete_impl(variant)
    }

    fn is_finished(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }
}

// Inherent forwarding so callers don't need the trait in scope.
impl ScheduleState {
    /// Pulls the next assignment, or `None` when no variants are pending.
    pub fn next_assignment(&mut self) -> Option<Assignment> {
        self.pull_impl()
    }

    /// Records that `variant` finished, making it available as a reuse
    /// source for future assignments.
    pub fn complete(&mut self, variant: usize) {
        self.complete_impl(variant)
    }

    /// Returns `true` once every variant has been assigned and completed.
    pub fn is_finished(&self) -> bool {
        ScheduleSource::is_finished(self)
    }
}

/// The original exhaustive-scan scheduler, kept verbatim as the executable
/// specification of §IV-D: `next_assignment` rescans every
/// (pending, completed) pair. O(|pending| · |completed|) per pull — do not
/// use in the engine; it exists so tests and benches can prove the
/// incremental [`ScheduleState`] emits an *identical* assignment sequence.
#[derive(Clone, Debug)]
pub struct ReferenceScheduleState {
    scheduler: Scheduler,
    reuse_enabled: bool,
    eps_range: f64,
    minpts_range: f64,
    pending: Vec<usize>,
    priority: Vec<usize>,
    completed: Vec<usize>,
    in_flight: usize,
    variants: VariantSet,
}

impl ReferenceScheduleState {
    /// Creates the reference schedule (same semantics as
    /// [`ScheduleState::new`]).
    pub fn new(variants: VariantSet, scheduler: Scheduler, reuse_enabled: bool) -> Self {
        let pending: Vec<usize> = (0..variants.len()).collect();
        let priority = match scheduler {
            Scheduler::SchedMinpts => variants.minpts_priority_indices(),
            Scheduler::SchedGreedy => Vec::new(),
        };
        Self {
            scheduler,
            reuse_enabled,
            eps_range: variants.eps_range(),
            minpts_range: variants.minpts_range(),
            pending,
            priority,
            completed: Vec::new(),
            in_flight: 0,
            variants,
        }
    }

    /// The heuristic this schedule was built with.
    pub fn scheduler(&self) -> Scheduler {
        self.scheduler
    }

    fn take_pending(&mut self, v: usize) {
        let pos = self
            .pending
            .iter()
            .position(|&p| p == v)
            .expect("assigned variant must be pending");
        self.pending.remove(pos);
        self.in_flight += 1;
    }
}

impl ScheduleSource for ReferenceScheduleState {
    fn next_assignment(&mut self) -> Option<Assignment> {
        if self.pending.is_empty() {
            return None;
        }

        if let Some(&head) = self.priority.first() {
            self.priority.remove(0);
            self.take_pending(head);
            return Some(Assignment {
                variant: head,
                reuse_from: None,
            });
        }

        if self.reuse_enabled {
            let mut best: Option<(f64, usize, usize)> = None;
            for &v in &self.pending {
                let vv = self.variants[v];
                for &u in &self.completed {
                    if !vv.can_reuse(&self.variants[u]) {
                        continue;
                    }
                    let d = vv.param_distance(&self.variants[u], self.eps_range, self.minpts_range);
                    let cand = (d, v, u);
                    if best.is_none_or(|b| cand < b) {
                        best = Some(cand);
                    }
                }
            }
            if let Some((_, v, u)) = best {
                self.take_pending(v);
                self.priority.retain(|&p| p != v);
                return Some(Assignment {
                    variant: v,
                    reuse_from: Some(u),
                });
            }
        }

        let v = self.pending[0];
        self.take_pending(v);
        self.priority.retain(|&p| p != v);
        Some(Assignment {
            variant: v,
            reuse_from: None,
        })
    }

    fn complete(&mut self, variant: usize) {
        debug_assert!(self.in_flight > 0);
        self.in_flight -= 1;
        self.completed.push(variant);
    }

    fn is_finished(&self) -> bool {
        self.pending.is_empty() && self.in_flight == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::Variant;

    fn figure3_set() -> VariantSet {
        VariantSet::cartesian(&[0.2, 0.4, 0.6], &[20, 24, 28, 32])
    }

    /// Simulates a single-threaded run: pull, execute instantly, complete.
    fn simulate_serial(mut state: impl ScheduleSource) -> Vec<Assignment> {
        let mut order = Vec::new();
        while let Some(a) = state.next_assignment() {
            state.complete(a.variant);
            order.push(a);
        }
        assert!(state.is_finished());
        order
    }

    #[test]
    fn greedy_serial_starts_with_smallest_eps_largest_minpts() {
        let set = figure3_set();
        let order = simulate_serial(ScheduleState::new(
            set.clone(),
            Scheduler::SchedGreedy,
            true,
        ));
        assert_eq!(order.len(), 12);
        // First from scratch: (0.2, 32).
        assert_eq!(order[0].reuse_from, None);
        assert_eq!(set[order[0].variant], Variant::new(0.2, 32));
        // Everything else reuses something.
        for a in &order[1..] {
            assert!(a.reuse_from.is_some(), "{a:?} should reuse");
        }
    }

    #[test]
    fn greedy_reuse_sources_satisfy_inclusion_criteria() {
        let set = figure3_set();
        let order = simulate_serial(ScheduleState::new(
            set.clone(),
            Scheduler::SchedGreedy,
            true,
        ));
        for a in &order {
            if let Some(u) = a.reuse_from {
                assert!(
                    set[a.variant].can_reuse(&set[u]),
                    "{} cannot reuse {}",
                    set[a.variant],
                    set[u]
                );
            }
        }
    }

    #[test]
    fn minpts_scheduler_seeds_one_scratch_variant_per_eps() {
        let set = figure3_set();
        let order = simulate_serial(ScheduleState::new(
            set.clone(),
            Scheduler::SchedMinpts,
            true,
        ));
        // Figure 3 (c): the first three assignments are (0.2,32), (0.4,32),
        // (0.6,32), all from scratch.
        let head: Vec<Variant> = order[..3].iter().map(|a| set[a.variant]).collect();
        assert_eq!(
            head,
            vec![
                Variant::new(0.2, 32),
                Variant::new(0.4, 32),
                Variant::new(0.6, 32)
            ]
        );
        for a in &order[..3] {
            assert_eq!(a.reuse_from, None);
        }
        for a in &order[3..] {
            assert!(a.reuse_from.is_some());
        }
    }

    #[test]
    fn minpts_priority_queue_drains_before_any_reuse() {
        // §IV-D: SchedMinpts must exhaust its scratch-first queue before
        // the greedy reuse rule may hand out a single reuse assignment —
        // even when completed variants are already available as sources.
        let set = figure3_set(); // 3 distinct ε ⇒ priority length 3
        let mut state = ScheduleState::new(set, Scheduler::SchedMinpts, true);
        assert_eq!(state.priority.len(), 3);
        for pull in 0..3 {
            let a = state.next_assignment().unwrap();
            assert_eq!(
                a.reuse_from, None,
                "priority pull {pull} must be from scratch"
            );
            // Complete immediately: reuse sources now exist, yet the
            // remaining priority entries must still run from scratch.
            state.complete(a.variant);
        }
        assert_eq!(state.priority.len(), 0);
        // Queue drained: the very next pull reuses.
        let next = state.next_assignment().unwrap();
        assert!(next.reuse_from.is_some());
    }

    #[test]
    fn every_variant_assigned_exactly_once() {
        for sched in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
            let set = figure3_set();
            let order = simulate_serial(ScheduleState::new(set.clone(), sched, true));
            let mut seen = vec![false; set.len()];
            for a in &order {
                assert!(!seen[a.variant], "variant {} assigned twice", a.variant);
                seen[a.variant] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn reuse_disabled_forces_scratch_in_canonical_order() {
        let set = figure3_set();
        let order = simulate_serial(ScheduleState::new(
            set.clone(),
            Scheduler::SchedGreedy,
            false,
        ));
        for (i, a) in order.iter().enumerate() {
            assert_eq!(a.variant, i);
            assert_eq!(a.reuse_from, None);
        }
    }

    #[test]
    fn concurrent_pulls_before_any_completion_are_scratch() {
        // T = 4: the first 4 pulls happen before anything completes, so
        // all must be from scratch (the paper's f = (|V|−T)/|V| bound).
        let set = figure3_set();
        let mut state = ScheduleState::new(set, Scheduler::SchedGreedy, true);
        let first: Vec<Assignment> = (0..4).map(|_| state.next_assignment().unwrap()).collect();
        for a in &first {
            assert_eq!(a.reuse_from, None);
        }
        // Complete them; the 5th pull must now reuse.
        for a in &first {
            state.complete(a.variant);
        }
        let fifth = state.next_assignment().unwrap();
        assert!(fifth.reuse_from.is_some());
    }

    #[test]
    fn greedy_prefers_componentwise_nearest_source() {
        // Complete (0.2, 32) and (0.6, 24); the best candidate pair should
        // use a source at minimal normalized distance, reproducing the
        // Figure 3 intuition that (0.6, 20) prefers (0.6, 24) over
        // (0.2, 32).
        let set = figure3_set();
        let mut state = ScheduleState::new(set.clone(), Scheduler::SchedGreedy, true);
        // Drain assignments until both desired variants have been pulled,
        // completing them immediately; then inspect who reuses what.
        let mut sources_used: Vec<(Variant, Option<Variant>)> = Vec::new();
        while let Some(a) = state.next_assignment() {
            state.complete(a.variant);
            sources_used.push((set[a.variant], a.reuse_from.map(|u| set[u])));
        }
        let (_, src) = sources_used
            .iter()
            .find(|(v, _)| *v == Variant::new(0.6, 20))
            .unwrap();
        let src = src.unwrap();
        // Its source must be strictly closer (normalized) than (0.2, 32).
        let (er, mr) = (set.eps_range(), set.minpts_range());
        let v = Variant::new(0.6, 20);
        assert!(v.param_distance(&src, er, mr) <= v.param_distance(&Variant::new(0.2, 32), er, mr));
    }

    #[test]
    fn empty_set_finishes_immediately() {
        let mut state = ScheduleState::new(VariantSet::new(vec![]), Scheduler::SchedGreedy, true);
        assert!(state.next_assignment().is_none());
        assert!(state.is_finished());
    }

    /// Drives incremental and reference schedules through the same
    /// interleaving (a `workers`-slot FIFO pipeline) and asserts the
    /// assignment sequences match element for element.
    fn assert_sequences_identical(set: &VariantSet, sched: Scheduler, workers: usize) {
        let mut inc = ScheduleState::new(set.clone(), sched, true);
        let mut reference = ReferenceScheduleState::new(set.clone(), sched, true);
        let mut in_flight: std::collections::VecDeque<usize> = Default::default();
        let mut step = 0usize;
        loop {
            while in_flight.len() < workers {
                let a = inc.next_assignment();
                let b = reference.next_assignment();
                assert_eq!(a, b, "divergence at step {step} (T = {workers})");
                step += 1;
                match a {
                    Some(a) => in_flight.push_back(a.variant),
                    None => break,
                }
            }
            match in_flight.pop_front() {
                Some(v) => {
                    inc.complete(v);
                    reference.complete(v);
                }
                None => break,
            }
        }
        assert!(inc.is_finished());
        assert!(reference.is_finished());
    }

    #[test]
    fn warm_sources_enable_reuse_from_the_first_pull() {
        // A warm source dominating the whole grid: every assignment —
        // including the very first — can reuse it, so nothing runs from
        // scratch.
        let set = figure3_set();
        let warm = [Variant::new(0.1, 40)]; // ε smaller, minpts larger than all
        let mut state =
            ScheduleState::with_warm_sources(set.clone(), Scheduler::SchedGreedy, true, &warm);
        let mut pulls = 0;
        while let Some(a) = state.next_assignment() {
            assert!(a.reuse_from.is_some(), "pull {pulls} should reuse: {a:?}");
            state.complete(a.variant);
            pulls += 1;
        }
        assert_eq!(pulls, set.len());
        assert!(state.is_finished());
    }

    #[test]
    fn warm_source_ids_live_past_the_variant_range() {
        let set = figure3_set();
        let warm = [Variant::new(0.1, 40)];
        let mut state =
            ScheduleState::with_warm_sources(set.clone(), Scheduler::SchedGreedy, true, &warm);
        let first = state.next_assignment().unwrap();
        // The only completed source is the warm one, addressed past the
        // variant range.
        assert_eq!(first.reuse_from, Some(set.len()));
    }

    #[test]
    fn in_run_source_wins_distance_ties_over_warm() {
        // Warm copy of (0.2, 32) and an in-run completion of the same
        // variant: identical distance for every candidate; the in-run id
        // (smaller) must win the tie so cold-run determinism is preserved.
        let set = figure3_set();
        let warm = [Variant::new(0.2, 32)];
        let mut state =
            ScheduleState::with_warm_sources(set.clone(), Scheduler::SchedMinpts, true, &warm);
        // Drain the 3-entry priority queue (scratch-first), completing
        // each so (0.2, 32) — index 0 — becomes an in-run source.
        for _ in 0..3 {
            let a = state.next_assignment().unwrap();
            state.complete(a.variant);
        }
        let next = state.next_assignment().unwrap();
        let src = next.reuse_from.unwrap();
        assert!(src < set.len(), "tie must resolve to the in-run source");
    }

    #[test]
    fn empty_warm_list_is_bit_identical_to_new() {
        let set = figure3_set();
        for sched in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
            let a = simulate_serial(ScheduleState::new(set.clone(), sched, true));
            let b = simulate_serial(ScheduleState::with_warm_sources(
                set.clone(),
                sched,
                true,
                &[],
            ));
            assert_eq!(a, b);
        }
    }

    #[test]
    fn warm_sources_ignored_when_reuse_disabled() {
        let set = figure3_set();
        let warm = [Variant::new(0.1, 40)];
        let order = simulate_serial(ScheduleState::with_warm_sources(
            set,
            Scheduler::SchedGreedy,
            false,
            &warm,
        ));
        for a in &order {
            assert_eq!(a.reuse_from, None);
        }
    }

    #[test]
    fn abort_stops_assignment_flow_immediately() {
        let set = figure3_set();
        let mut state = ScheduleState::new(set, Scheduler::SchedGreedy, true);
        let a = state.next_assignment().unwrap();
        state.abort();
        assert!(state.aborted);
        assert!(state.next_assignment().is_none());
        // Completing in-flight work is still legal after an abort.
        state.complete(a.variant);
        assert!(state.next_assignment().is_none());
    }

    #[test]
    fn incremental_matches_reference_on_paper_grids() {
        let v3_eps: Vec<f64> = (2..=20).map(|i| i as f64 * 0.02).collect();
        let v1_minpts: Vec<usize> = (10..=100).step_by(5).collect();
        let grids = [
            figure3_set(),
            VariantSet::cartesian(&v3_eps, &[4, 8, 16]), // V3, |V|=57
            VariantSet::cartesian(&[0.2, 0.3, 0.4], &v1_minpts), // V1, |V|=57
            VariantSet::replicated(Variant::new(0.5, 4), 16),
        ];
        for set in &grids {
            for sched in [Scheduler::SchedGreedy, Scheduler::SchedMinpts] {
                for workers in [1usize, 2, 7, 16, 64] {
                    assert_sequences_identical(set, sched, workers);
                }
            }
        }
    }
}
