//! Cluster reuse — Algorithm 3 (VariantDBSCAN) lines 4–18 and Algorithm 4
//! (ExpandCluster).
//!
//! Given a completed variant's clusters and a new variant satisfying the
//! inclusion criteria (`ε` grew, `minpts` shrank — [`Variant::can_reuse`]),
//! every old cluster's membership is still valid, so its points are copied
//! wholesale — **no ε-neighborhood searches on interior points**. Only the
//! frontier needs work:
//!
//! 1. build an MBB around the cluster, inflated by the new ε (line 10);
//! 2. harvest the points inside it (line 11). The paper queries a second,
//!    `r = 1` tree `T_high` so that the harvest does not over-approximate.
//!    Here the harvest runs at the tuned tree's leaf grain instead: the
//!    members that share a leaf form a run, and only the points inside a
//!    run's box inflated by ε are kept, found through the tree's
//!    [`LeafReach`] table — a subset of the MBB's points that still holds
//!    every point within ε of a member. Without a table (it would hold
//!    more entries than the tree holds points) the MBB is range-queried;
//! 3. the points *outside* the cluster (line 12) get ε-searches against
//!    the tuned tree `T_low` (lines 13–14); any of their neighbors lying
//!    *inside* the cluster form the `expandSet` (line 15) — the boundary
//!    points through which the cluster can grow;
//! 4. ExpandCluster (Algorithm 4) runs the normal DBSCAN expansion seeded
//!    with `expandSet`, absorbing new points; absorbing a point that
//!    belonged to a different old cluster *destroys* that cluster
//!    (it can no longer be copied at its own seed turn). When the absorbed
//!    point is core under the new variant, all of that cluster is
//!    density-reachable from it, so its still unclaimed members join the
//!    expanding cluster wholesale through steps 1–3 instead of being
//!    searched one by one (a *merge*); a border contact only destroys;
//! 5. whatever remains unvisited is clustered from scratch (line 18).
//!
//! Every search counts the whole ε-neighbourhood but collects only the
//! neighbours its caller can use
//! ([`SpatialIndex::epsilon_count_keyed_at`], reading the same
//! [`LeafReach`] table in place of the tree walk): the frontier wants the
//! members just copied that no earlier frontier search found, the
//! expansion waves the neighbours still unclaimed (keyed by the labels),
//! which a core point claims where it finds them, so each point enters a
//! wave at most once. Every search also records
//! `|N_ε(p)|` in a table shared by all variants of a run at the same ε
//! (`NeighborCounts`). The remainder pass and the ExpandCluster waves
//! search a point only to test whether it is core, so a point an earlier
//! variant at this ε already counted below `minpts` is settled without a
//! search. Labels do not depend on what the table holds.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

use vbp_dbscan::{ClusterId, ClusterResult, Labels, MAX_CLUSTER_ID, UNCLAIMED};
use vbp_geom::{Mbb, PointId};
use vbp_rtree::{LeafReach, PackedRTree, Skip, SpatialIndex, COUNT_ONLY};

use crate::seeds::{seed_list, ReuseScheme};
use crate::trace::{TraceEvent, WorkerTracer};
use crate::variant::Variant;

/// Instrumentation of one reuse run — the quantities Figures 5–7 of the
/// paper plot (fraction of points reused) plus search counters that
/// explain *why* reuse wins.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReuseStats {
    /// Points copied wholesale from reused clusters.
    pub points_reused: usize,
    /// Old clusters successfully reused (expanded).
    pub clusters_reused: usize,
    /// Old clusters destroyed by absorption into another cluster.
    pub clusters_destroyed: usize,
    /// Destroyed old clusters that joined an expanding cluster wholesale
    /// once it reached one of their points that is core under the new
    /// variant.
    pub clusters_merged: usize,
    /// Points those merges copied instead of searching.
    pub points_merged: usize,
    /// ε-searches on frontier candidates (Algorithm 3 lines 13–14), at
    /// seed turns and merges.
    pub frontier_searches: usize,
    /// ε-searches inside ExpandCluster (Algorithm 4).
    pub expand_searches: usize,
    /// ε-searches in the from-scratch remainder pass (line 18).
    pub remainder_searches: usize,
    /// Database size, for computing the reused fraction.
    pub total_points: usize,
}

impl ReuseStats {
    /// Fraction of the database whose cluster assignment was copied
    /// rather than recomputed — the paper's per-variant reuse metric.
    pub fn fraction_reused(&self) -> f64 {
        if self.total_points == 0 {
            0.0
        } else {
            self.points_reused as f64 / self.total_points as f64
        }
    }

    /// Total ε-neighborhood searches performed.
    pub fn total_searches(&self) -> usize {
        self.frontier_searches + self.expand_searches + self.remainder_searches
    }
}

/// The `|N_ε(p)|` tables of one engine run: one per distinct ε, each `n`
/// counters over the run's `T_low`, allocated at the first reuse
/// assignment at that ε and dropped with the run. Beside each, `T_low`'s
/// [`LeafReach`] table at that ε, built at the same time: the reuse path
/// reads it in every search and harvest, and one build per ε instead of
/// one per variant saves ≈ 0.5 ms a variant on `SW1@100000`, ≈ 2.3 % of
/// `sweep_sw`'s reuse time.
///
/// Entry `p` is 0 while unknown — a closed ball always contains `p`, so a
/// searched point never stores 0 — and otherwise the exact count some
/// search at this ε returned. Every writer of an entry writes that same
/// value, so `Relaxed` loads and stores suffice: a race decides only
/// whether a later reader skips a search, never what it would have found.
pub(crate) struct NeighborCounts<'a> {
    t_low: &'a PackedRTree,
    tables: Vec<AtEps>,
}

/// The state [`NeighborCounts`] keeps for one ε (keyed by its bits).
struct AtEps {
    key: u64,
    counts: OnceLock<Box<[AtomicU32]>>,
    reach: OnceLock<Option<LeafReach>>,
}

impl<'a> NeighborCounts<'a> {
    /// Unmade tables over `t_low` at each distinct ε in `eps`.
    pub(crate) fn new(t_low: &'a PackedRTree, eps: impl IntoIterator<Item = f64>) -> Self {
        let mut keys: Vec<u64> = eps.into_iter().map(f64::to_bits).collect();
        keys.sort_unstable();
        keys.dedup();
        let at_eps = |key| AtEps {
            key,
            counts: OnceLock::new(),
            reach: OnceLock::new(),
        };
        Self {
            t_low,
            tables: keys.into_iter().map(at_eps).collect(),
        }
    }

    /// The count table and `T_low`'s [`LeafReach`] table for `eps`, each
    /// made on first use.
    ///
    /// # Panics
    ///
    /// Panics if `eps` was not among the values passed to [`Self::new`].
    pub(crate) fn at(&self, eps: f64) -> (&[AtomicU32], Option<&LeafReach>) {
        let i = self
            .tables
            .binary_search_by_key(&eps.to_bits(), |t| t.key)
            .expect("neighbour-count table for an ε outside the run");
        let table = &self.tables[i];
        (
            table
                .counts
                .get_or_init(|| unknown_counts(self.t_low.len())),
            table
                .reach
                .get_or_init(|| self.t_low.leaf_reach(eps))
                .as_ref(),
        )
    }
}

/// A table of `n` unknown counts.
fn unknown_counts(n: usize) -> Box<[AtomicU32]> {
    (0..n).map(|_| AtomicU32::new(0)).collect()
}

#[inline]
fn record_count(counts: &[AtomicU32], p: PointId, len: usize) {
    counts[p as usize].store(u32::try_from(len).unwrap_or(u32::MAX), Ordering::Relaxed);
}

/// `true` when an earlier search at this ε found `p` to have fewer than
/// `minpts` neighbours.
#[inline]
fn known_non_core(counts: &[AtomicU32], p: PointId, minpts: usize) -> bool {
    let count = counts[p as usize].load(Ordering::Relaxed);
    count != 0 && (count as usize) < minpts
}

/// Runs VariantDBSCAN's reuse path for one variant.
///
/// `t_low` is the tuned-`r` tree every ε-search and the cluster harvest
/// run on; it must index the point database in the order `previous` was
/// computed over. `t_high` names the paper's second, `r = 1` harvest
/// tree. The harvest runs on `t_low` at leaf grain instead, so `t_high`
/// is only checked to index as many points; the engine passes `t_low`.
///
/// Neighbour counts are kept for this call only; an engine run shares
/// them among the variants of one ε and so may search less, but returns
/// the same labels.
///
/// # Panics
///
/// Panics if the trees disagree on size, if `previous` covers a different
/// database size, or (debug) if the inclusion criteria are violated for a
/// reusing scheme.
pub fn cluster_with_reuse(
    t_low: &PackedRTree,
    t_high: &PackedRTree,
    variant: Variant,
    previous: &ClusterResult,
    source_variant: Variant,
    scheme: ReuseScheme,
) -> (ClusterResult, ReuseStats) {
    assert_eq!(
        t_low.len(),
        t_high.len(),
        "the harvest tree must index the same database as T_low"
    );
    let mut tracer = WorkerTracer::disabled();
    cluster_with_reuse_traced(
        t_low,
        variant,
        previous,
        source_variant,
        scheme,
        &unknown_counts(t_low.len()),
        t_low.leaf_reach(variant.eps).as_ref(),
        &mut tracer,
        0,
    )
}

/// [`cluster_with_reuse`] with the engine's run-scoped state threaded
/// through. `counts` is the [`NeighborCounts`] table for `variant.eps`
/// over `t_low`: read to skip searches whose non-core answer is known,
/// written after every search. `reach` is `t_low`'s [`LeafReach`] table
/// at `variant.eps`, which every search and the harvest read, or `None`
/// when it would be over its budget (searches then walk the tree and the
/// harvest range-queries the MBB). At
/// [`TraceLevel::Full`](crate::trace::TraceLevel) every frontier ε-query
/// batch and every ExpandCluster wave lands in the ring as a typed event
/// tagged with `variant_idx`. With a disabled tracer the extra cost is one
/// inlined level compare per batch.
#[allow(clippy::too_many_arguments)]
pub(crate) fn cluster_with_reuse_traced(
    t_low: &PackedRTree,
    variant: Variant,
    previous: &ClusterResult,
    source_variant: Variant,
    scheme: ReuseScheme,
    counts: &[AtomicU32],
    reach: Option<&LeafReach>,
    tracer: &mut WorkerTracer,
    variant_idx: u32,
) -> (ClusterResult, ReuseStats) {
    let n = t_low.len();
    assert_eq!(
        n,
        previous.len(),
        "previous result covers a different database"
    );
    assert_eq!(
        n,
        counts.len(),
        "neighbour counts cover a different database"
    );
    debug_assert!(
        !scheme.reuses() || variant.can_reuse(&source_variant),
        "inclusion criteria violated: {variant} cannot reuse {source_variant}"
    );

    let mut x = Expansion {
        t_low,
        harvest: Harvest::new(variant.eps, reach),
        eps: variant.eps,
        minpts: variant.minpts,
        previous,
        merges: scheme.reuses(),
        counts,
        tracer,
        variant_idx,
        labels: Labels::unclassified(n),
        visited: vec![false; n],
        destroyed: vec![false; previous.num_clusters()],
        copied: vec![false; previous.num_clusters()],
        fresh: vec![STALE; n],
        stats: ReuseStats {
            total_points: n,
            ..ReuseStats::default()
        },
        neighbors: Vec::new(),
        wave: Vec::new(),
        next: Vec::new(),
        frontier: Vec::new(),
        inside: Vec::new(),
    };
    let mut next_cluster: ClusterId = 0;

    for &old_c in &seed_list(scheme, previous, t_low.points()) {
        if x.destroyed[old_c as usize] {
            continue; // Algorithm 3, line 8
        }
        // Lines 9–17: copy the old cluster wholesale, search its frontier
        // and expand it.
        assert!(next_cluster <= MAX_CLUSTER_ID, "cluster id space exhausted");
        let c = next_cluster;
        next_cluster += 1;
        let copied = x.copy(old_c, c);
        debug_assert_eq!(
            copied,
            previous.cluster(old_c).len(),
            "undestroyed old cluster contains an already-claimed point"
        );
        x.stats.points_reused += copied;
        x.stats.clusters_reused += 1;
        x.stats.expand_searches += x.expand(c);
    }

    // Line 18: cluster the remainder with plain DBSCAN, continuing the
    // cluster id sequence and respecting the labels assigned above. A
    // point already counted below minpts at this ε is non-core without a
    // search; its labelling below is the same either way.
    for p in 0..n as PointId {
        if x.visited[p as usize] {
            continue;
        }
        x.visited[p as usize] = true;
        let core = !known_non_core(counts, p, x.minpts) && {
            x.stats.remainder_searches += 1;
            x.count(p) >= x.minpts
        };
        if !core {
            if x.labels.cluster(p).is_none() {
                x.labels.mark_noise(p);
            }
            continue;
        }
        // p is core. It may already carry a label (border of a reused
        // cluster, later found core in the remainder — then its cluster
        // simply keeps it; we expand under p's existing cluster to stay
        // consistent with density reachability).
        let c = match x.labels.cluster(p) {
            Some(existing) => existing,
            None => {
                assert!(next_cluster <= MAX_CLUSTER_ID, "cluster id space exhausted");
                let c = next_cluster;
                next_cluster += 1;
                x.labels.assign(p, c);
                c
            }
        };
        x.search(p);
        x.merge(p, c);
        x.claim(c);
        x.stats.remainder_searches += x.expand(c);
    }

    // Renumber cluster ids in order of first appearance over the points.
    // The ids are dense already: each is taken at a seed turn that copies
    // at least one point or by a remainder point that labels itself. But
    // they were issued in seed-list order, so this renumbers every reused
    // result whose seed list is not in point order: the labels returned
    // are numbered by first appearance, not by seed turn.
    let result = ClusterResult::from_labels(compact_labels(x.labels));
    (result, x.stats)
}

/// The mark of a member [`Expansion::copy`] copied and no frontier search
/// has found yet.
const FRESH: u32 = 1;
/// Every other point's mark.
const STALE: u32 = 0;

/// The state the copies of old clusters (Algorithm 3), ExpandCluster
/// (Algorithm 4) and the remainder pass write while one variant is
/// clustered by reuse.
struct Expansion<'a> {
    t_low: &'a PackedRTree,
    /// The harvest and the [`LeafReach`] table every search reads.
    harvest: Harvest<'a>,
    eps: f64,
    minpts: usize,
    previous: &'a ClusterResult,
    /// Whether `previous` satisfies the inclusion criteria, so that an old
    /// cluster reached through a core point may join wholesale
    /// ([`Self::merge`]).
    merges: bool,
    counts: &'a [AtomicU32],
    tracer: &'a mut WorkerTracer,
    variant_idx: u32,
    labels: Labels,
    /// A point is visited once it is copied, queued for its wave search or
    /// settled without one, so no point enters two waves.
    visited: Vec<bool>,
    /// Old clusters a new cluster has absorbed a point of.
    destroyed: Vec<bool>,
    /// Old clusters whose members have been copied, at their own seed
    /// turn or by a merge.
    copied: Vec<bool>,
    /// [`FRESH`] for the members the running [`Self::copy`] labelled and
    /// whose frontier has not yet found them, [`STALE`] otherwise: the
    /// keys its frontier searches select by.
    fresh: Vec<u32>,
    stats: ReuseStats,
    /// The unclaimed neighbours the last [`Self::search`] found.
    neighbors: Vec<PointId>,
    /// The wave being searched, in tree order.
    wave: Vec<PointId>,
    /// The wave the current one's core points push.
    next: Vec<PointId>,
    /// The harvested points still unclaimed, in tree order.
    frontier: Vec<PointId>,
    /// The members of the cluster one frontier search found.
    inside: Vec<PointId>,
}

impl Expansion<'_> {
    /// Algorithm 3 lines 9–15: the still unclaimed members of old cluster
    /// `old` join cluster `c`, labelled and visited, and the still
    /// unclaimed points the [`Harvest`] finds near them are ε-searched for
    /// the members they reach. Those members are the boundary through
    /// which `c` can grow; each is pushed onto the next wave unless its
    /// count is known to be below `minpts`. Returns the number of members
    /// copied.
    ///
    /// The harvest keeps every point within ε of a copied member, and
    /// only points of the members' MBB inflated by ε. Of the points
    /// outside `c` (the paper's line 12), only the unclaimed ones can
    /// still join: a member whose neighbours outside `c` are all claimed
    /// would claim nothing when searched, so it is left out of the
    /// boundary. Each frontier search counts the whole neighbourhood but
    /// collects only the copied members no earlier frontier search found
    /// (keyed by their [`FRESH`] marks, so a leaf whose members were all
    /// found is not scanned twice); the frontier is searched in tree order
    /// so that consecutive probes hit warm leaves, and no label changes
    /// while it is, so the order cannot change the boundary found. Members
    /// `c` held before this call are not part of the boundary: each was
    /// pushed when it was claimed.
    fn copy(&mut self, old: ClusterId, c: ClusterId) -> usize {
        self.copied[old as usize] = true;
        let members = self.previous.cluster(old);
        let mut copied = 0;
        for &p in members {
            if self.labels.cluster(p).is_none() {
                self.labels.assign(p, c);
                self.visited[p as usize] = true;
                self.fresh[p as usize] = FRESH;
                copied += 1;
            }
        }
        if copied == 0 {
            return 0;
        }

        let (fresh, labels) = (&self.fresh, &self.labels);
        self.frontier.clear();
        self.harvest.collect(
            self.t_low,
            members
                .iter()
                .copied()
                .filter(|&p| fresh[p as usize] == FRESH),
            |p| labels.cluster(p).is_none(),
            &mut self.frontier,
        );
        self.stats.frontier_searches += self.frontier.len();
        self.tracer.record_full(TraceEvent::FrontierBatch {
            variant: self.variant_idx,
            queries: self.frontier.len().min(u32::MAX as usize) as u32,
        });
        for &p in &self.frontier {
            self.inside.clear();
            let count = self.t_low.epsilon_count_keyed_at(
                p,
                self.eps,
                self.harvest.reach,
                Skip::NONE,
                &self.fresh,
                FRESH..=FRESH,
                &mut self.inside,
            );
            record_count(self.counts, p, count);
            for &q in &self.inside {
                self.fresh[q as usize] = STALE;
                if !known_non_core(self.counts, q, self.minpts) {
                    self.next.push(q);
                }
            }
        }
        for &p in members {
            self.fresh[p as usize] = STALE;
        }
        copied
    }

    /// `q` was just found core in cluster `c`. If the old cluster `q` was
    /// copied from has not been copied yet, all of it is density-reachable
    /// from `q` (DESIGN §7 item 4), so its still unclaimed members join `c`
    /// wholesale ([`Self::copy`]) instead of being searched one by one.
    /// Only under the inclusion criteria: without them `previous` says
    /// nothing about the new variant's clusters.
    fn merge(&mut self, q: PointId, c: ClusterId) {
        if !self.merges {
            return;
        }
        let Some(old) = self.previous.labels().cluster(q) else {
            return;
        };
        if self.copied[old as usize] {
            return;
        }
        debug_assert!(
            self.destroyed[old as usize],
            "an old cluster merged before it was destroyed"
        );
        let copied = self.copy(old, c);
        if copied > 0 {
            self.stats.clusters_merged += 1;
            self.stats.points_merged += copied;
        }
    }

    /// Records and returns `|N_ε(p)|`, collecting nothing. The remainder
    /// pass reaches mostly points that turn out non-core, whose
    /// neighbours are mostly unclaimed; it collects them ([`Self::search`])
    /// only for a point found core, and counts the two scans as one
    /// search.
    fn count(&mut self, p: PointId) -> usize {
        let count = self.t_low.epsilon_count_keyed_at(
            p,
            self.eps,
            self.harvest.reach,
            Skip::NONE,
            self.labels.as_raw(),
            COUNT_ONLY,
            &mut self.neighbors,
        );
        record_count(self.counts, p, count);
        count
    }

    /// One ε-search of `p`: records and returns `|N_ε(p)|` and leaves the
    /// still unclaimed neighbours in `self.neighbors`.
    fn search(&mut self, p: PointId) -> usize {
        self.neighbors.clear();
        let count = self.t_low.epsilon_count_keyed_at(
            p,
            self.eps,
            self.harvest.reach,
            Skip::NONE,
            self.labels.as_raw(),
            UNCLAIMED,
            &mut self.neighbors,
        );
        record_count(self.counts, p, count);
        count
    }

    /// A core point's neighbours (`self.neighbors`) join cluster `c`: each
    /// still unclaimed one is labelled `c` — destroying the old cluster it
    /// was copied from, if any — and, if not yet visited, marked visited
    /// and pushed onto the next wave unless its count is known to be below
    /// `minpts` (its search would only find it non-core, which pushes
    /// nothing).
    fn claim(&mut self, c: ClusterId) {
        for &q in &self.neighbors {
            if self.labels.cluster(q).is_none() {
                self.labels.assign(q, c);
                if let Some(old) = self.previous.labels().cluster(q) {
                    if !self.destroyed[old as usize] {
                        self.destroyed[old as usize] = true;
                        self.stats.clusters_destroyed += 1;
                    }
                }
            }
            if !self.visited[q as usize] {
                self.visited[q as usize] = true;
                if !known_non_core(self.counts, q, self.minpts) {
                    self.next.push(q);
                }
            }
        }
    }

    /// Algorithm 4's expansion of cluster `c`, wave by wave, from the
    /// points already pushed onto `self.next`; returns the searches made.
    /// Each wave is searched in tree order so consecutive ε-searches probe
    /// warm leaves. A core point first merges the old cluster it was
    /// copied from ([`Self::merge`]), then claims its unclaimed neighbours
    /// where it finds them, so a point enters a wave at most once.
    ///
    /// Order-equivalence: every label written is the same `c`, so the set
    /// labelled is the density-reachability closure of the first wave over
    /// the points not claimed before it, whatever the order; and outside a
    /// first wave a point is labelled exactly when it is visited, so an
    /// unclaimed neighbour is one the seed-queue formulation would have
    /// pushed. A merge labels what the seed queue would have reached
    /// through the merged cluster and searches its frontier instead of its
    /// interior, so labels and the destroyed set are the seed queue's (the
    /// oracle in the tests below pins this); searches differ.
    fn expand(&mut self, c: ClusterId) -> usize {
        let mut searches = 0;
        while !self.next.is_empty() {
            std::mem::swap(&mut self.wave, &mut self.next);
            self.wave.sort_unstable();
            searches += self.wave.len();
            self.tracer.record_full(TraceEvent::ExpandWave {
                variant: self.variant_idx,
                points: self.wave.len().min(u32::MAX as usize) as u32,
            });
            for i in 0..self.wave.len() {
                let q = self.wave[i];
                if self.search(q) >= self.minpts {
                    self.merge(q, c);
                    self.claim(c);
                }
            }
            self.wave.clear();
        }
        searches
    }
}

/// Algorithm 3's harvest (lines 10–12): the points near a copied
/// cluster's members that may still join it, in tree order.
///
/// With a [`LeafReach`] table for the tree at ε it works at leaf grain.
/// The copied members, ascending as [`ClusterResult`] lists them, fall
/// into runs that share a leaf. Each run's box, inflated by ε, is added
/// into the union box of every leaf in its leaf's row that it meets, and
/// each leaf so touched is scanned once for the points inside its union
/// box. A point within ε of a member lies in that member's inflated run
/// box, so the box meets the point's leaf; and that box lies inside the
/// member's leaf box inflated by ε, so the point's leaf is in the row.
/// Every point that can reach a member is therefore kept, and every point
/// kept lies in the members' MBB inflated by ε: the frontier searches of
/// the points dropped would have found no member. Without a table (it
/// would hold more entries than the tree holds points) the harvest is
/// the paper's: that MBB, range-queried through the tree walk.
struct Harvest<'a> {
    eps: f64,
    reach: Option<&'a LeafReach>,
    /// Per leaf, the union of the inflated run boxes that reach it; empty
    /// while untouched. One box per leaf, and only with a table.
    reached: Vec<Mbb>,
    /// The leaves whose union box is not empty.
    touched: Vec<u32>,
    /// The points the MBB's range query returns, without a table.
    candidates: Vec<PointId>,
}

impl<'a> Harvest<'a> {
    /// A harvest over `reach`, the [`LeafReach`] table of the tree it
    /// runs on at `eps`, if there is one.
    fn new(eps: f64, reach: Option<&'a LeafReach>) -> Self {
        let leaves = reach.map_or(0, LeafReach::leaf_count);
        Self {
            eps,
            reach,
            reached: vec![Mbb::empty(); leaves],
            touched: Vec::new(),
            candidates: Vec::new(),
        }
    }

    /// Appends to `out`, ascending, the points of `tree` that `keep`
    /// accepts among those harvested around `copied` (ascending ids of
    /// `tree`'s points; at least one).
    fn collect(
        &mut self,
        tree: &PackedRTree,
        copied: impl Iterator<Item = PointId>,
        keep: impl Fn(PointId) -> bool,
        out: &mut Vec<PointId>,
    ) {
        let points = tree.points();
        let Some(reach) = self.reach else {
            let mut mbb = Mbb::empty();
            for p in copied {
                mbb.expand_to(&points[p as usize]);
            }
            self.candidates.clear();
            tree.range_query(&mbb.inflate(self.eps), &mut self.candidates);
            let start = out.len();
            out.extend(self.candidates.iter().copied().filter(|&p| keep(p)));
            out[start..].sort_unstable();
            return;
        };
        let (r, boxes) = (tree.points_per_leaf(), tree.leaf_mbbs());
        let (eps, reached, touched) = (self.eps, &mut self.reached, &mut self.touched);
        let mut add_run = |leaf: usize, run: Mbb| {
            let run = run.inflate(eps);
            for &k in reach.of(leaf) {
                if boxes[k as usize].intersects(&run) {
                    let union = &mut reached[k as usize];
                    if union.is_empty() {
                        touched.push(k);
                    }
                    *union = union.union(&run);
                }
            }
        };
        let mut run: Option<(usize, Mbb)> = None;
        for p in copied {
            let (leaf, at) = (p as usize / r, points[p as usize]);
            match &mut run {
                Some((current, mbb)) if *current == leaf => mbb.expand_to(&at),
                _ => {
                    if let Some((done, mbb)) = run.replace((leaf, Mbb::from_point(at))) {
                        add_run(done, mbb);
                    }
                }
            }
        }
        if let Some((done, mbb)) = run {
            add_run(done, mbb);
        }
        touched.sort_unstable();
        for &k in touched.iter() {
            let union = std::mem::replace(&mut reached[k as usize], Mbb::empty());
            for p in tree.leaf_range(k as usize) {
                if union.contains_point(&points[p]) && keep(p as PointId) {
                    out.push(p as PointId);
                }
            }
        }
        touched.clear();
    }
}

/// Renumbers cluster ids to be dense `0..k` while preserving noise, in
/// first-appearance order.
fn compact_labels(labels: Labels) -> Labels {
    let raw = labels.into_raw();
    let mut map: Vec<Option<u32>> = Vec::new();
    let mut next = 0u32;
    let compacted: Vec<u32> = raw
        .iter()
        .map(|&l| {
            if l == vbp_dbscan::NOISE {
                return l;
            }
            debug_assert!(l != vbp_dbscan::UNCLASSIFIED, "unfinished labeling");
            let idx = l as usize;
            if idx >= map.len() {
                map.resize(idx + 1, None);
            }
            *map[idx].get_or_insert_with(|| {
                let id = next;
                next += 1;
                id
            })
        })
        .collect();
    Labels::from_raw(compacted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::variant::VariantSet;
    use proptest::prelude::*;
    use std::sync::atomic::AtomicUsize;
    use vbp_dbscan::{dbscan, quality_score};
    use vbp_geom::Point2;

    /// Builds T_low over the given points (bin-sorted internally) and the
    /// paper's r = 1 T_high over the same points in the same order, which
    /// [`cluster_with_reuse`] checks for length and otherwise ignores.
    fn trees(points: &[Point2], r: usize) -> (PackedRTree, PackedRTree) {
        let (t_low, _) = PackedRTree::build(points, r);
        let t_high = PackedRTree::from_sorted(t_low.shared_points(), 1);
        (t_low, t_high)
    }

    /// Two 5×5 grids (spacing 0.4) 10 apart, plus a bridge point between
    /// them at distance 0.7 from each grid's edge, plus isolated noise.
    fn playground() -> Vec<Point2> {
        let mut pts = Vec::new();
        for gx in [0.0, 12.0] {
            for i in 0..5 {
                for j in 0..5 {
                    pts.push(Point2::new(gx + i as f64 * 0.4, j as f64 * 0.4));
                }
            }
        }
        pts.push(Point2::new(60.0, 60.0)); // noise at any reasonable ε
        pts
    }

    #[test]
    fn identical_variant_reuse_copies_everything() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        assert_eq!(base.num_clusters(), 2);

        let (reused, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        assert_eq!(reused.num_clusters(), 2);
        assert_eq!(stats.points_reused, 50);
        assert_eq!(stats.clusters_destroyed, 0);
        assert!(stats.fraction_reused() > 0.95);
        let q = quality_score(&base, &reused);
        assert_eq!(q.mean_score, 1.0);
    }

    #[test]
    fn growing_eps_merges_clusters_and_destroys_one() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let small = Variant::new(0.5, 4);
        let base = dbscan(&t_low, small.params());
        assert_eq!(base.num_clusters(), 2);

        // ε large enough to bridge the 10.4 gap between the grids.
        let big = Variant::new(11.0, 4);
        let (reused, stats) =
            cluster_with_reuse(&t_low, &t_high, big, &base, small, ReuseScheme::ClusDefault);
        let direct = dbscan(&t_low, big.params());
        assert_eq!(direct.num_clusters(), 1);
        assert_eq!(reused.num_clusters(), 1);
        assert_eq!(stats.clusters_destroyed, 1);
        assert_eq!(stats.clusters_reused, 1);
        let q = quality_score(&direct, &reused);
        assert!(q.mean_score > 0.999, "score {}", q.mean_score);
    }

    #[test]
    fn lowering_minpts_grows_clusters() {
        // Chain with a sparse tail: at minpts 4 only the dense head
        // clusters; at minpts 2 the tail joins.
        let mut pts: Vec<Point2> = (0..20).map(|i| Point2::new(i as f64 * 0.2, 0.0)).collect();
        pts.extend((0..5).map(|i| Point2::new(4.0 + 0.9 * (i + 1) as f64, 0.0)));
        let (t_low, t_high) = trees(&pts, 4);

        let strict = Variant::new(0.95, 4);
        let loose = Variant::new(0.95, 2);
        let base = dbscan(&t_low, strict.params());
        let (reused, stats) = cluster_with_reuse(
            &t_low,
            &t_high,
            loose,
            &base,
            strict,
            ReuseScheme::ClusDensity,
        );
        let direct = dbscan(&t_low, loose.params());
        assert_eq!(reused.num_clusters(), direct.num_clusters());
        assert_eq!(reused.noise_count(), direct.noise_count());
        assert!(stats.points_reused > 0);
        let q = quality_score(&direct, &reused);
        assert!(q.mean_score > 0.999, "score {}", q.mean_score);
    }

    #[test]
    fn reuse_equals_direct_dbscan_on_random_data() {
        // Deterministic random cloud; multiple (source, target) variant
        // pairs satisfying the inclusion criteria.
        let mut state = 0xDEAD_BEEF_0BAD_F00Du64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let pts: Vec<Point2> = (0..600)
            .map(|_| Point2::new(rnd() * 20.0, rnd() * 20.0))
            .collect();
        let (t_low, t_high) = trees(&pts, 16);

        for (src, dst) in [
            ((0.5, 8), (0.5, 4)),
            ((0.5, 8), (0.8, 8)),
            ((0.5, 8), (1.0, 3)),
            ((0.3, 6), (0.31, 6)),
        ] {
            let source = Variant::new(src.0, src.1);
            let target = Variant::new(dst.0, dst.1);
            let base = dbscan(&t_low, source.params());
            for scheme in ReuseScheme::REUSING {
                let (reused, stats) =
                    cluster_with_reuse(&t_low, &t_high, target, &base, source, scheme);
                let direct = dbscan(&t_low, target.params());
                assert_eq!(
                    reused.num_clusters(),
                    direct.num_clusters(),
                    "{source}->{target} {scheme}"
                );
                assert_eq!(
                    reused.noise_count(),
                    direct.noise_count(),
                    "{source}->{target} {scheme}"
                );
                let q = quality_score(&direct, &reused);
                assert!(
                    q.mean_score > 0.99,
                    "{source}->{target} {scheme}: score {}",
                    q.mean_score
                );
                assert!(stats.total_searches() > 0);
                reused.check_consistency().unwrap();
            }
        }
    }

    fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    /// Three blobs over a sparse background on a lattice of spacing 0.25
    /// (exact in binary), every seventh point doubled: pair distances land
    /// exactly on ε ∈ {0.5, 0.75, 1.0}, and duplicates sit at distance 0.
    fn lattice_cloud(seed: u64) -> Vec<Point2> {
        let mut rnd = xorshift(seed);
        let blobs = [(4, 4), (22, 8), (10, 26)];
        let mut pts = Vec::new();
        for i in 0..360u64 {
            let (x, y) = if i % 3 == 0 {
                (rnd() % 40, rnd() % 40)
            } else {
                let (bx, by) = blobs[(i / 3 % 3) as usize];
                (bx + rnd() % 10, by + rnd() % 10)
            };
            let p = Point2::new(x as f64 * 0.25, y as f64 * 0.25);
            pts.push(p);
            if i % 7 == 0 {
                pts.push(p);
            }
        }
        pts
    }

    /// `|N_ε(p)|` over `t_low`'s points by brute force.
    fn brute_counts(t_low: &PackedRTree, eps: f64) -> Vec<u32> {
        let pts = t_low.points();
        pts.iter()
            .map(|p| pts.iter().filter(|q| p.dist_sq(q) <= eps * eps).count() as u32)
            .collect()
    }

    fn table(values: impl Iterator<Item = u32>) -> Box<[AtomicU32]> {
        values.map(AtomicU32::new).collect()
    }

    fn assert_known_counts_exact(counts: &[AtomicU32], exact: &[u32], ctx: &str) {
        for (p, (c, &want)) in counts.iter().zip(exact).enumerate() {
            let c = c.load(Ordering::Relaxed);
            assert!(
                c == 0 || c == want,
                "{ctx}: point {p} holds {c}, |N_ε| = {want}"
            );
        }
    }

    /// The seed-queue formulation of the reuse path that
    /// [`cluster_with_reuse_traced`] replaced, kept as its oracle: every
    /// ε-search materialises the whole neighbourhood through
    /// [`SpatialIndex::epsilon_neighbors_batch`], a core point pushes
    /// every neighbour not both visited and clustered, and each wave's
    /// drain assigns labels and destroys old clusters before the wave is
    /// searched.
    fn seed_queue_reuse(
        t_low: &PackedRTree,
        variant: Variant,
        previous: &ClusterResult,
        scheme: ReuseScheme,
        counts: &[AtomicU32],
    ) -> (ClusterResult, ReuseStats) {
        let n = t_low.len();
        let points = t_low.points();
        let (eps, minpts) = (variant.eps, variant.minpts);
        let mut labels = Labels::unclassified(n);
        let mut visited = vec![false; n];
        let mut destroyed = vec![false; previous.num_clusters()];
        let mut stats = ReuseStats {
            total_points: n,
            ..ReuseStats::default()
        };
        let mut next_cluster: ClusterId = 0;
        let (mut candidates, mut neighbors, mut queue, mut wave) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut frontier, mut expand_set) = (Vec::new(), Vec::new());
        let mut in_expand = vec![false; n];
        let mut expand_wave =
            |c: ClusterId,
             labels: &mut Labels,
             visited: &mut [bool],
             destroyed: &mut [bool],
             queue: &mut Vec<PointId>,
             neighbors: &mut Vec<PointId>,
             searches: &mut usize,
             clusters_destroyed: &mut usize| {
                while !queue.is_empty() {
                    wave.clear();
                    for i in queue.drain(..) {
                        if labels.cluster(i).is_none() {
                            labels.assign(i, c);
                            if let Some(old) = previous.labels().cluster(i) {
                                if !destroyed[old as usize] {
                                    destroyed[old as usize] = true;
                                    *clusters_destroyed += 1;
                                }
                            }
                        }
                        if visited[i as usize] {
                            continue;
                        }
                        visited[i as usize] = true;
                        if !known_non_core(counts, i, minpts) {
                            wave.push(i);
                        }
                    }
                    *searches += wave.len();
                    let (labels, visited) = (&*labels, &*visited);
                    t_low.epsilon_neighbors_batch(&mut wave, eps, neighbors, &mut |p, ns| {
                        record_count(counts, p, ns.len());
                        if ns.len() >= minpts {
                            queue.extend(ns.iter().copied().filter(|&nb| {
                                !visited[nb as usize] || labels.cluster(nb).is_none()
                            }));
                        }
                    });
                }
            };

        for &old_c in &seed_list(scheme, previous, points) {
            if destroyed[old_c as usize] {
                continue;
            }
            let c = next_cluster;
            next_cluster += 1;
            let mut cluster_mbb = Mbb::empty();
            for &p in previous.cluster(old_c) {
                labels.assign(p, c);
                visited[p as usize] = true;
                cluster_mbb.expand_to(&points[p as usize]);
            }
            stats.points_reused += previous.cluster(old_c).len();
            stats.clusters_reused += 1;
            candidates.clear();
            t_low.range_query(&cluster_mbb.inflate(eps), &mut candidates);
            expand_set.clear();
            frontier.clear();
            frontier.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&p| labels.cluster(p) != Some(c)),
            );
            stats.frontier_searches += frontier.len();
            t_low.epsilon_neighbors_batch(&mut frontier, eps, &mut neighbors, &mut |p, ns| {
                record_count(counts, p, ns.len());
                for &q in ns {
                    if labels.cluster(q) == Some(c) && !in_expand[q as usize] {
                        in_expand[q as usize] = true;
                        expand_set.push(q);
                    }
                }
            });
            for &q in &expand_set {
                visited[q as usize] = false;
                in_expand[q as usize] = false;
            }
            queue.clear();
            queue.extend_from_slice(&expand_set);
            expand_wave(
                c,
                &mut labels,
                &mut visited,
                &mut destroyed,
                &mut queue,
                &mut neighbors,
                &mut stats.expand_searches,
                &mut stats.clusters_destroyed,
            );
        }

        for p in 0..n as PointId {
            if visited[p as usize] {
                continue;
            }
            visited[p as usize] = true;
            let core = !known_non_core(counts, p, minpts) && {
                neighbors.clear();
                t_low.epsilon_neighbors(points[p as usize], eps, &mut neighbors);
                record_count(counts, p, neighbors.len());
                stats.remainder_searches += 1;
                neighbors.len() >= minpts
            };
            if !core {
                if labels.cluster(p).is_none() {
                    labels.mark_noise(p);
                }
                continue;
            }
            let c = labels.cluster(p).unwrap_or_else(|| {
                let c = next_cluster;
                next_cluster += 1;
                labels.assign(p, c);
                c
            });
            queue.clear();
            queue.extend(neighbors.iter().copied().filter(|&q| q != p));
            expand_wave(
                c,
                &mut labels,
                &mut visited,
                &mut destroyed,
                &mut queue,
                &mut neighbors,
                &mut stats.remainder_searches,
                &mut stats.clusters_destroyed,
            );
        }
        (ClusterResult::from_labels(compact_labels(labels)), stats)
    }

    /// A lattice cloud (spacing 0.25, so distances tie with ε exactly)
    /// with duplicates.
    fn arb_lattice() -> impl Strategy<Value = Vec<Point2>> {
        proptest::collection::vec(
            (0usize..20, 0usize..20)
                .prop_map(|(x, y)| Point2::new(x as f64 * 0.25, y as f64 * 0.25)),
            0..220,
        )
    }

    /// Cases of [`fused_waves_match_the_seed_queue`] and
    /// [`per_leaf_harvest_lies_between_the_boundary_and_the_mbb`]: 40, or 160 under
    /// `VBP_CONFORMANCE_FULL=1` (the `CHECK_FULL=1` path of
    /// `scripts/check.sh`).
    fn cases() -> u32 {
        match std::env::var("VBP_CONFORMANCE_FULL") {
            Ok(v) if v != "0" && !v.is_empty() => 160,
            _ => 40,
        }
    }

    /// Old clusters merged across one run of
    /// [`fused_waves_match_the_seed_queue`].
    static MERGED: AtomicUsize = AtomicUsize::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        fn fused_waves_match_the_seed_queue(
            points in arb_lattice(),
            eps_steps in (0usize..4, 0usize..3),
            minpts in (1usize..9, 0usize..8),
            cut in 0usize..220,
            coin in any::<u64>(),
        ) {
            // ε = 0 and minpts = 1 are in range; the target satisfies the
            // inclusion criteria for the source.
            let source = Variant::new(eps_steps.0 as f64 * 0.25, minpts.0);
            let target = Variant::new(
                (eps_steps.0 + eps_steps.1) as f64 * 0.25,
                (minpts.0 - minpts.1.min(minpts.0 - 1)).max(1),
            );
            // A bin-sorted tree, one grown by an append (its tail is in
            // arrival order, not bin order), and that one re-sorted.
            let cut = cut.min(points.len());
            let (sorted, _) = PackedRTree::build(&points, 8);
            let grown = PackedRTree::build(&points[..cut], 8).0.appended(&points[cut..]);
            let resorted = PackedRTree::build(grown.points(), 8).0;
            let mut coin = xorshift(coin | 1);
            for t_low in [&sorted, &grown, &resorted] {
                let n = t_low.len();
                let base = dbscan(t_low, source.params());
                let exact = brute_counts(t_low, target.eps);
                let half: Vec<u32> =
                    exact.iter().map(|&c| if coin() & 1 == 0 { c } else { 0 }).collect();
                for scheme in [ReuseScheme::Disabled, ReuseScheme::ClusDefault,
                               ReuseScheme::ClusDensity, ReuseScheme::ClusPtsSquared] {
                    for prefill in [vec![0; n], half.clone(), exact.clone()] {
                        let (fused, oracle) = (table(prefill.iter().copied()), table(prefill.into_iter()));
                        let mut tracer = WorkerTracer::disabled();
                        let (got, stats) = cluster_with_reuse_traced(
                            t_low, target, &base, source, scheme, &fused,
                            t_low.leaf_reach(target.eps).as_ref(), &mut tracer, 0,
                        );
                        let (want, oracle_stats) =
                            seed_queue_reuse(t_low, target, &base, scheme, &oracle);
                        prop_assert_eq!(&got, &want);
                        // A merge copies what the seed queue searched and a
                        // frontier skips claimed points, so searches and the
                        // entries they record differ; the destroy
                        // bookkeeping does not.
                        prop_assert_eq!(
                            (stats.points_reused, stats.clusters_reused, stats.clusters_destroyed),
                            (oracle_stats.points_reused, oracle_stats.clusters_reused,
                             oracle_stats.clusters_destroyed)
                        );
                        prop_assert!(scheme.reuses() || stats.clusters_merged == 0);
                        for (p, (c, &want)) in fused.iter().zip(&exact).enumerate() {
                            let c = c.load(Ordering::Relaxed);
                            prop_assert!(c == 0 || c == want, "point {} holds {}, |N_ε| = {}", p, c, want);
                        }
                        MERGED.fetch_add(stats.clusters_merged, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(cases()))]

        /// The per-leaf harvest around a set of copied members keeps
        /// every unclaimed point within ε of one of them (the true
        /// ε-boundary) and only unclaimed points of their MBB inflated by
        /// ε (the paper's harvest), in strictly ascending order. Members
        /// are random subsets of a DBSCAN's clusters, claimed points a
        /// random share of the rest; one `Harvest` serves every cluster
        /// of a tree, as in a reuse run.
        #[test]
        fn per_leaf_harvest_lies_between_the_boundary_and_the_mbb(
            points in arb_lattice(),
            eps_step in 0usize..5,
            shape in 0usize..3,
            cut in 0usize..220,
            coin in any::<u64>(),
        ) {
            let eps = eps_step as f64 * 0.25;
            let r = [1, 4, 80][shape];
            let cut = cut.min(points.len());
            let (sorted, _) = PackedRTree::build(&points, r);
            let grown = PackedRTree::build(&points[..cut], r).0.appended(&points[cut..]);
            let resorted = PackedRTree::build(grown.points(), r).0;
            let mut coin = xorshift(coin | 1);
            for tree in [&sorted, &grown, &resorted] {
                let pts = tree.points();
                let clusters = dbscan(tree, Variant::new(0.25, 2).params());
                let reach = tree.leaf_reach(eps);
                let mut harvest = Harvest::new(eps, reach.as_ref());
                for (_, cluster) in clusters.iter_clusters() {
                    let mut copied: Vec<PointId> =
                        cluster.iter().copied().filter(|_| !coin().is_multiple_of(3)).collect();
                    if copied.is_empty() {
                        copied.push(cluster[0]);
                    }
                    let mut member = vec![false; pts.len()];
                    for &p in cluster {
                        member[p as usize] = true;
                    }
                    let claimed: Vec<bool> = (0..pts.len()).map(|_| coin().is_multiple_of(4)).collect();
                    let keep = |p: PointId| !member[p as usize] && !claimed[p as usize];

                    let mut per_leaf = Vec::new();
                    harvest.collect(tree, copied.iter().copied(), keep, &mut per_leaf);
                    let boundary: Vec<PointId> = (0..pts.len() as PointId)
                        .filter(|&p| keep(p))
                        .filter(|&p| {
                            let at = pts[p as usize];
                            copied.iter().any(|&m| at.dist_sq(&pts[m as usize]) <= eps * eps)
                        })
                        .collect();
                    let mbb = Mbb::from_points(copied.iter().map(|&m| &pts[m as usize])).unwrap();
                    let mut in_mbb = Vec::new();
                    tree.range_query(&mbb.inflate(eps), &mut in_mbb);
                    in_mbb.retain(|&p| keep(p));

                    prop_assert!(per_leaf.windows(2).all(|w| w[0] < w[1]), "not ascending: {:?}", per_leaf);
                    for p in &boundary {
                        prop_assert!(per_leaf.contains(p), "r={} ε={}: boundary point {} not harvested", r, eps, p);
                    }
                    for p in &per_leaf {
                        prop_assert!(in_mbb.contains(p), "r={} ε={}: {} outside the MBB harvest", r, eps, p);
                    }
                }
            }
        }
    }

    /// The fused waves, merges included, label as the seed queue does,
    /// and the property run exercises the merge.
    #[test]
    fn fused_waves_equal_the_seed_queue() {
        fused_waves_match_the_seed_queue();
        assert!(
            MERGED.load(Ordering::Relaxed) > 0,
            "no old cluster merged across the property run"
        );
    }

    #[test]
    fn neighbour_counts_skip_searches_and_never_change_labels() {
        let variants = VariantSet::cartesian(&[0.5, 0.75, 1.0], &[2, 4, 7, 11]);
        let mut saved = 0usize;
        for seed in [0x5EED_0001u64, 0x5EED_0002] {
            let (t_low, t_high) = trees(&lattice_cloud(seed), 8);
            let n = t_low.len();
            let mut coin = xorshift(seed ^ 0xC0FFEE);
            for source in variants.iter() {
                let base = dbscan(&t_low, source.params());
                for target in variants.iter().filter(|t| t.can_reuse(&source)) {
                    let exact = brute_counts(&t_low, target.eps);
                    for scheme in ReuseScheme::REUSING {
                        let ctx = format!("seed {seed:x} {source}->{target} {scheme}");
                        let run = |counts: &[AtomicU32]| {
                            let mut tracer = WorkerTracer::disabled();
                            cluster_with_reuse_traced(
                                &t_low,
                                target,
                                &base,
                                source,
                                scheme,
                                counts,
                                t_low.leaf_reach(target.eps).as_ref(),
                                &mut tracer,
                                0,
                            )
                        };
                        let empty = unknown_counts(n);
                        let (want, empty_stats) = run(&empty);
                        assert_known_counts_exact(&empty, &exact, &ctx);
                        assert_eq!(
                            (want.clone(), empty_stats),
                            cluster_with_reuse(&t_low, &t_high, target, &base, source, scheme),
                            "{ctx}: public entry point"
                        );

                        let full = table(exact.iter().copied());
                        let half =
                            table(exact.iter().map(|&c| if coin() & 1 == 0 { c } else { 0 }));
                        for (name, counts) in [("full", &full), ("half", &half)] {
                            let (got, stats) = run(counts);
                            assert_eq!(got, want, "{ctx}: {name} table changed labels");
                            assert_known_counts_exact(counts, &exact, &ctx);
                            assert_eq!(
                                (
                                    stats.points_reused,
                                    stats.clusters_reused,
                                    stats.clusters_destroyed,
                                    stats.frontier_searches
                                ),
                                (
                                    empty_stats.points_reused,
                                    empty_stats.clusters_reused,
                                    empty_stats.clusters_destroyed,
                                    empty_stats.frontier_searches
                                ),
                                "{ctx}: {name} table"
                            );
                            assert!(
                                stats.total_searches() <= empty_stats.total_searches(),
                                "{ctx}: {name} table searched {} > {}",
                                stats.total_searches(),
                                empty_stats.total_searches()
                            );
                            if name == "full" {
                                saved += empty_stats.total_searches() - stats.total_searches();
                            }
                        }
                    }
                }
            }
        }
        assert!(saved > 0, "a known count never saved a search");
    }

    #[test]
    fn disabled_scheme_reuses_nothing() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        let (result, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::Disabled);
        assert_eq!(stats.points_reused, 0);
        assert_eq!(stats.fraction_reused(), 0.0);
        assert_eq!(result.num_clusters(), base.num_clusters());
        let q = quality_score(&base, &result);
        assert_eq!(q.mean_score, 1.0);
    }

    #[test]
    fn a_border_contact_destroys_and_a_core_contact_merges() {
        // Old clusters A and B (5×3 grids) and x, B's border under the
        // source. Under the target a 3×3 grid E, noise under the source,
        // extends A to within ε of x, which is not core. A, copied first,
        // claims x through E and destroys B without joining it; the
        // remainder pass reaches B through a core point and merges the
        // rest of it. x stays with A. r, noise under the source and first
        // in tree order, is marked noise by the remainder pass before the
        // merge; under the target it is a border of B, which B's frontier
        // finds.
        let grid = |x0: f64, nx: usize, ny: usize| {
            (0..nx).flat_map(move |i| {
                (0..ny).map(move |j| Point2::new(x0 + i as f64 * 0.25, j as f64 * 0.25))
            })
        };
        let mut pts: Vec<Point2> = grid(0.0, 5, 3).chain(grid(4.25, 5, 3)).collect();
        pts.extend(grid(2.0, 3, 3));
        pts.push(Point2::new(3.5, 0.25));
        pts.push(Point2::new(4.75, -0.9));
        let (t_low, t_high) = trees(&pts, 4);
        let at = |x: f64, y: f64| {
            let p = Point2::new(x, y);
            t_low.points().iter().position(|q| *q == p).unwrap() as PointId
        };
        let (a, b, e, x, r) = (
            at(0.0, 0.0),
            at(4.25, 0.0),
            at(2.0, 0.0),
            at(3.5, 0.25),
            at(4.75, -0.9),
        );
        assert_eq!(r, 0);
        let source = Variant::new(0.8, 11);
        let target = Variant::new(1.0, 9);
        let base = dbscan(&t_low, source.params());
        assert_eq!(base.num_clusters(), 2);
        assert!(base.labels().is_noise(e) && base.labels().is_noise(r));
        assert_eq!(base.labels().cluster(x), base.labels().cluster(b));

        let scheme = ReuseScheme::ClusDensity;
        let (got, stats) = cluster_with_reuse(&t_low, &t_high, target, &base, source, scheme);
        assert_eq!(
            (
                stats.clusters_reused,
                stats.clusters_destroyed,
                stats.clusters_merged,
                stats.points_merged
            ),
            (1, 1, 1, 14)
        );
        let cluster = |p| got.labels().cluster(p);
        assert_eq!((cluster(x), cluster(e)), (cluster(a), cluster(a)));
        assert_eq!(cluster(r), cluster(b));
        assert_ne!(cluster(b), cluster(a));
        let counts = unknown_counts(t_low.len());
        assert_eq!(
            got,
            seed_queue_reuse(&t_low, target, &base, scheme, &counts).0
        );
    }

    #[test]
    fn disabled_scheme_ignores_a_source_that_violates_inclusion() {
        // At the larger ε the source's one cluster spans both grids; a
        // merge through it would join grids the target keeps apart.
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let wide = Variant::new(11.0, 4);
        let target = Variant::new(0.5, 4);
        let previous = dbscan(&t_low, wide.params());
        assert_eq!(previous.num_clusters(), 1);
        let (result, stats) = cluster_with_reuse(
            &t_low,
            &t_high,
            target,
            &previous,
            wide,
            ReuseScheme::Disabled,
        );
        assert_eq!(result, dbscan(&t_low, target.params()));
        assert_eq!(result.num_clusters(), 2);
        assert_eq!(stats.clusters_merged, 0);
    }

    #[test]
    fn reuse_from_all_noise_source() {
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        // Source so strict everything is noise.
        let strict = Variant::new(0.01, 10);
        let base = dbscan(&t_low, strict.params());
        assert_eq!(base.num_clusters(), 0);
        // Target clusters normally; nothing to reuse but must be correct.
        let target = Variant::new(0.5, 4);
        let (result, stats) = cluster_with_reuse(
            &t_low,
            &t_high,
            target,
            &base,
            strict,
            ReuseScheme::ClusDensity,
        );
        let direct = dbscan(&t_low, target.params());
        assert_eq!(result.num_clusters(), direct.num_clusters());
        assert_eq!(stats.points_reused, 0);
    }

    #[test]
    fn empty_database() {
        let (t_low, t_high) = trees(&[], 8);
        let v = Variant::new(0.5, 4);
        let base = ClusterResult::empty();
        let (result, stats) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        assert_eq!(result.len(), 0);
        assert_eq!(stats.total_points, 0);
        assert_eq!(stats.fraction_reused(), 0.0);
    }

    #[test]
    fn reuse_saves_searches() {
        // The point of the whole §IV-B machinery: reusing an identical
        // variant must issue far fewer ε-searches than clustering from
        // scratch.
        let pts = playground();
        let (t_low, t_high) = trees(&pts, 8);
        let v = Variant::new(0.5, 4);
        let base = dbscan(&t_low, v.params());
        let (_, with_reuse) =
            cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::ClusDensity);
        let (_, without) = cluster_with_reuse(&t_low, &t_high, v, &base, v, ReuseScheme::Disabled);
        assert!(
            with_reuse.total_searches() < without.total_searches(),
            "reuse {} vs scratch {}",
            with_reuse.total_searches(),
            without.total_searches()
        );
    }
}
