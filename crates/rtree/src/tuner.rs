//! Empirical tuning of `r` (points per leaf MBB).
//!
//! §V-C of the paper determines good `r` values "empirically", noting the
//! optimum depends on the spatial distribution, `⌈|D|/r⌉`, tree depth,
//! and ε. This module packages that empiricism: build candidate trees,
//! time a fixed batch of representative ε-queries on each, and return the
//! fastest — the procedure a practitioner would otherwise run by hand
//! before a long variant sweep.

use std::time::{Duration, Instant};

use vbp_geom::{Point2, PointId};

use crate::packed::PackedRTree;
use crate::traits::SpatialIndex;

/// The paper's empirically-good sweep plus the untuned baseline.
pub const DEFAULT_R_CANDIDATES: [usize; 7] = [1, 10, 30, 70, 90, 110, 150];

/// Result of a tuning sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TuneReport {
    /// The winning `r`.
    pub best_r: usize,
    /// Measured `(r, total query time)` per candidate, in sweep order.
    pub timings: Vec<(usize, Duration)>,
}

/// Times `queries` ε-neighborhood searches (on evenly-strided database
/// points) against trees built with each candidate `r`, returning the
/// fastest. Build time is excluded — the engine builds once and queries
/// millions of times, which is the regime the paper optimizes.
///
/// # Panics
///
/// Panics on an empty candidate list or negative/non-finite `eps`
/// (`eps == 0` is legal, matching the closed-ball contract of
/// [`SpatialIndex::epsilon_neighbors`]).
pub fn tune_r(points: &[Point2], eps: f64, candidates: &[usize], queries: usize) -> TuneReport {
    assert!(!candidates.is_empty(), "need at least one candidate r");
    assert!(eps >= 0.0 && eps.is_finite(), "ε must be finite and ≥ 0");
    let mut timings = Vec::with_capacity(candidates.len());
    let mut best: Option<(Duration, usize)> = None;
    for &r in candidates {
        let (tree, _) = PackedRTree::build(points, r);
        let centers: Vec<Point2> = if tree.is_empty() {
            Vec::new()
        } else {
            let stride = (tree.len() / queries.max(1)).max(1);
            tree.points().iter().step_by(stride).copied().collect()
        };
        let mut out: Vec<PointId> = Vec::new();
        let t0 = Instant::now();
        let mut checksum = 0usize;
        for &c in &centers {
            out.clear();
            tree.epsilon_neighbors(c, eps, &mut out);
            checksum += out.len();
        }
        let elapsed = t0.elapsed();
        std::hint::black_box(checksum);
        timings.push((r, elapsed));
        if best.is_none_or(|(t, _)| elapsed < t) {
            best = Some((elapsed, r));
        }
    }
    TuneReport {
        best_r: best.unwrap().1,
        timings,
    }
}

/// [`tune_r`] with the default candidate sweep and a query budget
/// proportional to the database (capped at 2 000 queries).
pub fn tune_r_default(points: &[Point2], eps: f64) -> TuneReport {
    let queries = (points.len() / 10).clamp(100, 2_000);
    tune_r(points, eps, &DEFAULT_R_CANDIDATES, queries)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clustered_points(n: usize) -> Vec<Point2> {
        let mut state = 0xABCD_EF01_2345_6789u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|i| {
                let cx = (i % 20) as f64 * 10.0;
                Point2::new(cx + rnd(), rnd() * 5.0)
            })
            .collect()
    }

    #[test]
    fn returns_a_candidate_and_all_timings() {
        let points = clustered_points(5_000);
        let report = tune_r(&points, 0.5, &[1, 30, 90], 200);
        assert!([1usize, 30, 90].contains(&report.best_r));
        assert_eq!(report.timings.len(), 3);
        for (_, t) in &report.timings {
            assert!(*t > Duration::ZERO);
        }
    }

    #[test]
    fn tuned_r_beats_r1_on_a_real_workload() {
        // On a few thousand points the untuned r = 1 tree pays for deep
        // traversals; any reasonable candidate should win.
        let points = clustered_points(8_000);
        let report = tune_r(&points, 0.5, &DEFAULT_R_CANDIDATES, 400);
        assert_ne!(report.best_r, 1, "timings: {:?}", report.timings);
    }

    #[test]
    fn default_budget_scales() {
        let points = clustered_points(1_000);
        let report = tune_r_default(&points, 0.5);
        assert!(DEFAULT_R_CANDIDATES.contains(&report.best_r));
    }

    #[test]
    fn empty_database_is_fine() {
        let report = tune_r(&[], 1.0, &[1, 10], 100);
        assert!(report.best_r == 1 || report.best_r == 10);
    }

    #[test]
    fn zero_eps_is_legal() {
        let points = clustered_points(500);
        let report = tune_r(&points, 0.0, &[1, 30], 50);
        assert!(report.best_r == 1 || report.best_r == 30);
    }

    #[test]
    #[should_panic(expected = "candidate")]
    fn empty_candidates_rejected() {
        tune_r(&[], 1.0, &[], 100);
    }
}
