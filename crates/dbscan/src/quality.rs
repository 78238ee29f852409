//! The two comparisons of one clustering against another.
//!
//! VariantDBSCAN may process points in a different order than DBSCAN, so
//! border points can land in different (but adjacent) clusters.
//!
//! [`quality_score`] is the paper's *reported* metric: the cluster-quality
//! score of §V-D (Januzaj et al., DBDC). Per point:
//!
//! - noise in one result but not the other → score 0;
//! - noise in both → correctly identified → score 1;
//! - clustered in both → Jaccard similarity `|E ∩ F| / |E ∪ F|` of the two
//!   clusters the point belongs to.
//!
//! The variant's score is the mean over all points; the paper reports
//! ≥ 0.998 across every dataset (Figure 7c).
//!
//! [`core_isomorphic`] is the *asserted* contract, and every suite checks
//! it: DBSCAN's core partition is unique, so two correct runs may differ
//! only in which adjacent cluster a border point joins. A score can stay
//! above any threshold while a core point sits in the wrong cluster; the
//! relation cannot.

use std::collections::HashMap;

use crate::labels::NOISE;
use crate::result::ClusterResult;

/// Breakdown of a quality comparison.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QualityReport {
    /// Mean per-point score in `[0, 1]`.
    pub mean_score: f64,
    /// Points noise in both results.
    pub both_noise: usize,
    /// Points noise in exactly one result (score 0).
    pub noise_mismatch: usize,
    /// Points clustered in both results.
    pub both_clustered: usize,
    /// Among `both_clustered`, points whose two clusters match exactly
    /// (Jaccard 1).
    pub exact_matches: usize,
}

/// Computes the DBDC quality score of `candidate` against `reference`.
///
/// Symmetric in its arguments. Runs in `O(n + k_a·k_b_touched)` using a
/// cluster-pair contingency table rather than per-point set operations.
///
/// ```
/// use vbp_dbscan::{quality_score, ClusterResult, Labels, NOISE};
///
/// let a = ClusterResult::from_labels(Labels::from_raw(vec![0, 0, 1, 1, NOISE]));
/// let b = ClusterResult::from_labels(Labels::from_raw(vec![1, 1, 0, 0, NOISE]));
/// // Identical partition under relabeling: perfect score.
/// assert_eq!(quality_score(&a, &b).mean_score, 1.0);
/// ```
///
/// # Panics
///
/// Panics if the results cover different numbers of points.
pub fn quality_score(reference: &ClusterResult, candidate: &ClusterResult) -> QualityReport {
    assert_eq!(
        reference.len(),
        candidate.len(),
        "results must label the same database"
    );
    let n = reference.len();
    if n == 0 {
        return QualityReport {
            mean_score: 1.0,
            both_noise: 0,
            noise_mismatch: 0,
            both_clustered: 0,
            exact_matches: 0,
        };
    }

    // Contingency table: (cluster in reference, cluster in candidate) →
    // number of shared points.
    let mut intersection: HashMap<(u32, u32), usize> = HashMap::new();
    let mut both_noise = 0usize;
    let mut noise_mismatch = 0usize;
    let mut both_clustered = 0usize;

    let ref_labels = reference.labels();
    let cand_labels = candidate.labels();
    for p in 0..n {
        let (a, b) = (ref_labels.raw(p as u32), cand_labels.raw(p as u32));
        match (a == NOISE, b == NOISE) {
            (true, true) => both_noise += 1,
            (true, false) | (false, true) => noise_mismatch += 1,
            (false, false) => {
                both_clustered += 1;
                *intersection.entry((a, b)).or_insert(0) += 1;
            }
        }
    }

    // Per-point Jaccard: every point in the (a, b) cell scores
    // |a ∩ b| / (|a| + |b| − |a ∩ b|).
    let mut score_sum = both_noise as f64; // both-noise points score 1
    let mut exact_matches = 0usize;
    for (&(a, b), &inter) in &intersection {
        let e = reference.cluster(a).len();
        let f = candidate.cluster(b).len();
        let union = e + f - inter;
        let jaccard = inter as f64 / union as f64;
        score_sum += jaccard * inter as f64;
        if inter == union {
            exact_matches += inter;
        }
    }

    QualityReport {
        mean_score: score_sum / n as f64,
        both_noise,
        noise_mismatch,
        both_clustered,
        exact_matches,
    }
}

/// The stack's label contract: `candidate` labels the same points as
/// `reference` up to which adjacent cluster each border point joins.
///
/// Both are raw labels over the same ids ([`NOISE`] = `u32::MAX`), as
/// [`Labels::as_raw`](crate::Labels::as_raw) or a caller-order reply
/// gives them, and `core` is [`core_flags`](crate::core_flags) over those
/// ids. The relation holds when
///
/// - the three slices have one length;
/// - the noise sets are equal;
/// - every core point is in a cluster;
/// - over the core points, the map from `reference`'s clusters to
///   `candidate`'s never splits a cluster and never merges two;
/// - each side's cluster ids are dense `0..k`, as every finished
///   clustering's are, and both sides have the same `k`.
///
/// Noise status and the core partition do not depend on visit order, so
/// every correct path meets it: any index, thread count, schedule, reuse
/// source, shard count, door or cluster numbering.
///
/// # Errors
///
/// Describes the first break: the lengths, else the first point (in id
/// order) whose noise status or core assignment breaks the relation, else
/// the cluster ids.
pub fn core_isomorphic(reference: &[u32], candidate: &[u32], core: &[bool]) -> Result<(), String> {
    if reference.len() != candidate.len() || core.len() != reference.len() {
        return Err(format!(
            "lengths differ: reference {}, candidate {}, core flags {}",
            reference.len(),
            candidate.len(),
            core.len()
        ));
    }
    let (mut forward, mut backward) = (HashMap::new(), HashMap::new());
    for (p, ((&a, &b), &is_core)) in reference.iter().zip(candidate).zip(core).enumerate() {
        if (a == NOISE) != (b == NOISE) {
            let side = if a == NOISE { "reference" } else { "candidate" };
            return Err(format!(
                "noise status of point {p} differs: noise in {side} only"
            ));
        }
        if !is_core {
            continue;
        }
        if a == NOISE {
            return Err(format!("core point {p} is noise"));
        }
        let image = *forward.entry(a).or_insert(b);
        if image != b {
            return Err(format!(
                "reference cluster {a} split at core point {p}: candidate clusters {image} and {b}"
            ));
        }
        let origin = *backward.entry(b).or_insert(a);
        if origin != a {
            return Err(format!(
                "reference clusters {origin} and {a} merged into candidate cluster {b} at core point {p}"
            ));
        }
    }
    let k = dense_clusters("reference", reference)?;
    let k_candidate = dense_clusters("candidate", candidate)?;
    if k != k_candidate {
        return Err(format!(
            "cluster counts differ: reference {k}, candidate {k_candidate}"
        ));
    }
    Ok(())
}

/// The number of clusters `k` in `labels`, whose ids must be `0..k`.
fn dense_clusters(side: &str, labels: &[u32]) -> Result<usize, String> {
    let mut seen = vec![false; labels.len()];
    for (p, &l) in labels.iter().enumerate() {
        match seen.get_mut(l as usize) {
            Some(slot) => *slot = true,
            None if l == NOISE => {}
            None => return Err(format!("{side} label {l} of point {p} is no cluster id")),
        }
    }
    let k = seen.iter().take_while(|&&s| s).count();
    match seen[k..].iter().position(|&s| s) {
        Some(gap) => Err(format!(
            "{side} cluster ids are not dense: {} is used, {k} is not",
            k + gap
        )),
        None => Ok(k),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::Labels;

    fn result(raw: Vec<u32>) -> ClusterResult {
        ClusterResult::from_labels(Labels::from_raw(raw))
    }

    #[test]
    fn identical_results_score_one() {
        let a = result(vec![0, 0, 1, 1, NOISE]);
        let r = quality_score(&a, &a.clone());
        assert_eq!(r.mean_score, 1.0);
        assert_eq!(r.both_noise, 1);
        assert_eq!(r.noise_mismatch, 0);
        assert_eq!(r.exact_matches, 4);
    }

    #[test]
    fn relabeled_clusters_still_score_one() {
        // Same partition, permuted ids.
        let a = result(vec![0, 0, 1, 1]);
        let b = result(vec![1, 1, 0, 0]);
        assert_eq!(quality_score(&a, &b).mean_score, 1.0);
    }

    #[test]
    fn noise_flip_scores_zero_for_that_point() {
        let a = result(vec![0, 0, NOISE]);
        let b = result(vec![0, 0, 0]);
        let r = quality_score(&a, &b);
        assert_eq!(r.noise_mismatch, 1);
        // Two points with Jaccard 2/3 each, one scoring 0:
        // (2·(2/3) + 0) / 3 = 4/9.
        assert!((r.mean_score - 4.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn split_cluster_scores_jaccard() {
        // Reference: one 4-cluster. Candidate: split into two 2-clusters.
        let a = result(vec![0, 0, 0, 0]);
        let b = result(vec![0, 0, 1, 1]);
        let r = quality_score(&a, &b);
        // Every point: |E∩F| = 2, |E∪F| = 4 ⇒ 0.5.
        assert!((r.mean_score - 0.5).abs() < 1e-12);
        assert_eq!(r.exact_matches, 0);
        assert_eq!(r.both_clustered, 4);
    }

    #[test]
    fn symmetric() {
        let a = result(vec![0, 0, 0, NOISE, 1, 1]);
        let b = result(vec![0, 0, 1, 1, 1, NOISE]);
        let ab = quality_score(&a, &b).mean_score;
        let ba = quality_score(&b, &a).mean_score;
        assert!((ab - ba).abs() < 1e-12);
    }

    #[test]
    fn empty_results() {
        let e = ClusterResult::empty();
        assert_eq!(quality_score(&e, &ClusterResult::empty()).mean_score, 1.0);
    }

    #[test]
    #[should_panic(expected = "same database")]
    fn size_mismatch_rejected() {
        let a = result(vec![0, 0]);
        let b = result(vec![0, 0, 0]);
        quality_score(&a, &b);
    }

    /// `core_isomorphic`'s error for `reference`/`candidate` with every
    /// point core but those `border` names.
    fn breaks(reference: &[u32], candidate: &[u32], border: &[usize]) -> String {
        let core: Vec<bool> = (0..reference.len()).map(|p| !border.contains(&p)).collect();
        core_isomorphic(reference, candidate, &core).expect_err("relation broken")
    }

    #[test]
    fn core_isomorphic_names_each_way_to_break_it() {
        let n = NOISE;
        assert!(breaks(&[0, 0], &[0, 0, 0], &[]).starts_with("lengths differ"));
        assert!(core_isomorphic(&[0, 0], &[0, 0], &[true]).is_err());
        assert_eq!(
            breaks(&[0, 0, n], &[0, 0, 0], &[2]),
            "noise status of point 2 differs: noise in reference only"
        );
        assert_eq!(
            breaks(&[0, 0, 1, 1], &[0, 0, 0, 0], &[1, 2, 3]),
            "cluster counts differ: reference 2, candidate 1"
        );
        assert_eq!(breaks(&[0, n], &[0, n], &[]), "core point 1 is noise");
        assert_eq!(
            breaks(&[0, 0, 0, 0], &[0, 0, 1, 1], &[]),
            "reference cluster 0 split at core point 2: candidate clusters 0 and 1"
        );
        assert_eq!(
            breaks(&[0, 0, 1, 1], &[0, 0, 0, 0], &[]),
            "reference clusters 0 and 1 merged into candidate cluster 0 at core point 2"
        );
        assert_eq!(
            breaks(&[0, 0, 1], &[0, 0, 2], &[2]),
            "candidate cluster ids are not dense: 2 is used, 1 is not"
        );
    }

    #[test]
    fn core_isomorphic_allows_renumbering_and_moved_borders() {
        let n = NOISE;
        let core = [true, true, true, true, false, true];
        assert_eq!(
            core_isomorphic(&[0, 0, 1, 1, n, 2], &[2, 2, 0, 0, n, 1], &core),
            Ok(())
        );
        // Point 2 is a border point within ε of both clusters' cores.
        let core = [true, true, false, true, true];
        assert_eq!(
            core_isomorphic(&[0, 0, 0, 1, 1], &[0, 0, 1, 1, 1], &core),
            Ok(())
        );
        assert_eq!(core_isomorphic(&[], &[], &[]), Ok(()));
    }

    #[test]
    fn all_noise_vs_all_noise() {
        let a = result(vec![NOISE; 5]);
        let r = quality_score(&a, &a.clone());
        assert_eq!(r.mean_score, 1.0);
        assert_eq!(r.both_noise, 5);
    }
}
