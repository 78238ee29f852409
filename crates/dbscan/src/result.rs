//! The output of a clustering run.

use vbp_geom::{Mbb, Point2, PointId};

use crate::labels::{ClusterId, Labels, NOISE};

/// A finished clustering: per-point labels plus the inverted
/// cluster → members view that VariantDBSCAN's reuse machinery iterates
/// over (Algorithm 3 consumes `C_v[j]`, "the points belonging to a single
/// cluster").
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterResult {
    labels: Labels,
    /// `clusters[c]` = point ids of cluster `c`, in discovery order.
    clusters: Vec<Vec<PointId>>,
}

impl ClusterResult {
    /// Builds a result from finished labels.
    ///
    /// # Panics
    ///
    /// Panics if any point is still unclassified, or if cluster ids are
    /// not dense `0..k`.
    pub fn from_labels(labels: Labels) -> Self {
        let k = labels
            .iter_raw()
            .filter(|&l| l != NOISE)
            .inspect(|&l| {
                assert!(
                    l != crate::labels::UNCLASSIFIED,
                    "unclassified point in finished clustering"
                );
            })
            .max()
            .map_or(0, |m| m as usize + 1);
        let mut clusters: Vec<Vec<PointId>> = vec![Vec::new(); k];
        for (i, l) in labels.iter_raw().enumerate() {
            if l != NOISE {
                clusters[l as usize].push(i as PointId);
            }
        }
        assert!(
            clusters.iter().all(|c| !c.is_empty()),
            "cluster ids must be dense"
        );
        Self { labels, clusters }
    }

    /// The empty clustering of an empty database.
    pub fn empty() -> Self {
        Self {
            labels: Labels::unclassified(0),
            clusters: Vec::new(),
        }
    }

    /// Per-point labels.
    #[inline]
    pub fn labels(&self) -> &Labels {
        &self.labels
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` for the clustering of an empty database.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of clusters.
    #[inline]
    pub fn num_clusters(&self) -> usize {
        self.clusters.len()
    }

    /// Members of cluster `c` in discovery order.
    #[inline]
    pub fn cluster(&self, c: ClusterId) -> &[PointId] {
        &self.clusters[c as usize]
    }

    /// Iterates `(cluster id, members)` pairs.
    pub fn iter_clusters(&self) -> impl Iterator<Item = (ClusterId, &[PointId])> {
        self.clusters
            .iter()
            .enumerate()
            .map(|(c, m)| (c as ClusterId, m.as_slice()))
    }

    /// Number of noise points.
    pub fn noise_count(&self) -> usize {
        self.labels.noise_count()
    }

    /// Ids of all noise points.
    pub fn noise_points(&self) -> Vec<PointId> {
        self.labels
            .iter_raw()
            .enumerate()
            .filter(|&(_, l)| l == NOISE)
            .map(|(i, _)| i as PointId)
            .collect()
    }

    /// Fraction of points assigned to some cluster (1 − noise fraction).
    pub fn clustered_fraction(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        1.0 - self.noise_count() as f64 / self.len() as f64
    }

    /// Tight MBB of cluster `c` over the given point database.
    pub fn cluster_mbb(&self, c: ClusterId, points: &[Point2]) -> Mbb {
        let members = self.cluster(c);
        let mut mbb = Mbb::empty();
        for &p in members {
            mbb.expand_to(&points[p as usize]);
        }
        mbb
    }

    /// The §IV-C density measure `|C| / area(MBB(C))`. Degenerate MBBs
    /// (single points, collinear clusters) get area clamped to a tiny
    /// positive value so denser-than-measurable clusters sort first.
    pub fn cluster_density(&self, c: ClusterId, points: &[Point2]) -> f64 {
        let size = self.cluster(c).len() as f64;
        size / self.cluster_mbb(c, points).area().max(f64::MIN_POSITIVE)
    }

    /// The §IV-C alternative measure `|C|² / area(MBB(C))`.
    pub fn cluster_pts_squared(&self, c: ClusterId, points: &[Point2]) -> f64 {
        let size = self.cluster(c).len() as f64;
        size * size / self.cluster_mbb(c, points).area().max(f64::MIN_POSITIVE)
    }

    /// Test-oriented consistency check: labels and member lists agree,
    /// ids are dense, no unclassified points remain.
    pub fn check_consistency(&self) -> Result<(), String> {
        if self.labels.unclassified_count() != 0 {
            return Err("unclassified points remain".into());
        }
        let mut seen = vec![0usize; self.clusters.len()];
        for (i, l) in self.labels.iter_raw().enumerate() {
            if l != NOISE {
                let c = l as usize;
                if c >= self.clusters.len() {
                    return Err(format!("point {i} labeled with unknown cluster {c}"));
                }
                if !self.clusters[c].contains(&(i as PointId)) {
                    return Err(format!("point {i} missing from cluster {c} member list"));
                }
                seen[c] += 1;
            }
        }
        for (c, members) in self.clusters.iter().enumerate() {
            if members.len() != seen[c] {
                return Err(format!(
                    "cluster {c} member list has {} entries, labels say {}",
                    members.len(),
                    seen[c]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::labels::UNCLASSIFIED;

    fn sample() -> ClusterResult {
        // points: 0,1 → cluster 0; 2 → noise; 3,4,5 → cluster 1
        ClusterResult::from_labels(Labels::from_raw(vec![0, 0, NOISE, 1, 1, 1]))
    }

    #[test]
    fn construction_inverts_labels() {
        let r = sample();
        assert_eq!(r.num_clusters(), 2);
        assert_eq!(r.cluster(0), &[0, 1]);
        assert_eq!(r.cluster(1), &[3, 4, 5]);
        assert_eq!(r.noise_count(), 1);
        assert_eq!(r.noise_points(), vec![2]);
        r.check_consistency().unwrap();
    }

    #[test]
    fn clustered_fraction() {
        let r = sample();
        assert!((r.clustered_fraction() - 5.0 / 6.0).abs() < 1e-12);
        assert_eq!(ClusterResult::empty().clustered_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "unclassified")]
    fn rejects_unfinished_labels() {
        ClusterResult::from_labels(Labels::from_raw(vec![0, UNCLASSIFIED]));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn rejects_sparse_cluster_ids() {
        ClusterResult::from_labels(Labels::from_raw(vec![0, 2]));
    }

    #[test]
    fn geometry_measures() {
        let points = vec![
            Point2::new(0.0, 0.0),
            Point2::new(2.0, 1.0),
            Point2::new(50.0, 50.0),
        ];
        let r = ClusterResult::from_labels(Labels::from_raw(vec![0, 0, NOISE]));
        let mbb = r.cluster_mbb(0, &points);
        assert_eq!(mbb.area(), 2.0);
        assert_eq!(r.cluster_density(0, &points), 1.0);
        assert_eq!(r.cluster_pts_squared(0, &points), 2.0);
    }

    #[test]
    fn degenerate_cluster_density_is_finite_and_large() {
        let points = vec![Point2::new(1.0, 1.0), Point2::new(1.0, 1.0)];
        let r = ClusterResult::from_labels(Labels::from_raw(vec![0, 0]));
        let d = r.cluster_density(0, &points);
        assert!(d.is_finite());
        assert!(d > 1e100);
    }

    #[test]
    fn all_noise_result() {
        let r = ClusterResult::from_labels(Labels::from_raw(vec![NOISE; 4]));
        assert_eq!(r.num_clusters(), 0);
        assert_eq!(r.noise_count(), 4);
        r.check_consistency().unwrap();
    }
}
