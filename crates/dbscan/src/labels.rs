//! Compact per-point cluster labels.
//!
//! A clustering of `n` points is a `Vec<u32>` with two reserved sentinel
//! values. The compact representation matters: VariantDBSCAN keeps one
//! labeling per completed variant alive for reuse, so at the paper's scale
//! (5.2M points × dozens of variants) every byte per point counts.

use std::ops::RangeInclusive;

use vbp_geom::PointId;

/// Identifier of a cluster within one clustering result (dense, 0-based).
pub type ClusterId = u32;

/// Sentinel label: the point is noise.
pub const NOISE: u32 = u32::MAX;

/// Sentinel label: the point has not been classified yet (only observable
/// mid-run; finished results never contain it).
pub const UNCLASSIFIED: u32 = u32::MAX - 1;

/// Largest usable cluster id.
pub const MAX_CLUSTER_ID: u32 = u32::MAX - 2;

/// The raw labels of a point no cluster has claimed yet — unclassified or
/// provisional noise. An expansion selects its ε-neighbours by this range
/// and claims exactly those.
pub const UNCLAIMED: RangeInclusive<u32> = UNCLASSIFIED..=NOISE;

/// A per-point cluster labeling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Labels {
    raw: Vec<u32>,
}

impl Labels {
    /// Creates a labeling with every point unclassified.
    pub fn unclassified(n: usize) -> Self {
        Self {
            raw: vec![UNCLASSIFIED; n],
        }
    }

    /// Wraps raw labels. Intended for tests and deserialization.
    pub fn from_raw(raw: Vec<u32>) -> Self {
        Self { raw }
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// Returns `true` if there are no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.raw.is_empty()
    }

    /// Raw label of `p` (may be a sentinel).
    #[inline]
    pub fn raw(&self, p: PointId) -> u32 {
        self.raw[p as usize]
    }

    /// Cluster of `p`, or `None` for noise/unclassified.
    #[inline]
    pub fn cluster(&self, p: PointId) -> Option<ClusterId> {
        let l = self.raw[p as usize];
        (l <= MAX_CLUSTER_ID).then_some(l)
    }

    /// Returns `true` if `p` is labeled noise.
    #[inline]
    pub fn is_noise(&self, p: PointId) -> bool {
        self.raw[p as usize] == NOISE
    }

    /// Returns `true` if `p` has not been classified.
    #[inline]
    pub fn is_unclassified(&self, p: PointId) -> bool {
        self.raw[p as usize] == UNCLASSIFIED
    }

    /// Labels `p` as a member of `c`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `c` is a sentinel value.
    #[inline]
    pub fn assign(&mut self, p: PointId, c: ClusterId) {
        debug_assert!(c <= MAX_CLUSTER_ID, "cluster id {c} collides with sentinel");
        self.raw[p as usize] = c;
    }

    /// Labels `p` as noise.
    #[inline]
    pub fn mark_noise(&mut self, p: PointId) {
        self.raw[p as usize] = NOISE;
    }

    /// Raw labels in point order: the keys a fused ε-scan
    /// ([`SpatialIndex::epsilon_count_keyed`](vbp_rtree::SpatialIndex::epsilon_count_keyed))
    /// selects neighbours by.
    #[inline]
    pub fn as_raw(&self) -> &[u32] {
        &self.raw
    }

    /// Iterates raw labels in point order.
    pub fn iter_raw(&self) -> impl ExactSizeIterator<Item = u32> + '_ {
        self.raw.iter().copied()
    }

    /// Counts points labeled noise.
    pub fn noise_count(&self) -> usize {
        self.raw.iter().filter(|&&l| l == NOISE).count()
    }

    /// Counts unclassified points (0 for a finished clustering).
    pub fn unclassified_count(&self) -> usize {
        self.raw.iter().filter(|&&l| l == UNCLASSIFIED).count()
    }

    /// Appends raw labels, growing the allocation by the bounded-slack
    /// rule of [`vbp_rtree::column::grown_capacity`] when they do not fit
    /// — so a run of small appends copies the labels once per `len / 8`
    /// points, never once per append.
    pub(crate) fn append_raw(&mut self, tail: impl ExactSizeIterator<Item = u32>) {
        reserve_bounded(&mut self.raw, tail.len());
        self.raw.extend(tail);
    }

    /// Labels the allocation has room for before an append must copy.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.raw.capacity()
    }

    /// Consumes the labeling, returning the raw vector.
    pub fn into_raw(self) -> Vec<u32> {
        self.raw
    }
}

/// Makes room for `additional` more items in `v` by the bounded-slack
/// growth rule (no reallocation when they already fit).
pub(crate) fn reserve_bounded<T>(v: &mut Vec<T>, additional: usize) {
    if v.capacity() - v.len() < additional {
        let len = v.len();
        v.reserve_exact(vbp_rtree::column::grown_capacity(len, additional) - len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut l = Labels::unclassified(3);
        assert!(l.is_unclassified(0));
        assert_eq!(l.unclassified_count(), 3);
        l.assign(0, 7);
        l.mark_noise(1);
        assert_eq!(l.cluster(0), Some(7));
        assert_eq!(l.cluster(1), None);
        assert!(l.is_noise(1));
        assert!(!l.is_noise(2));
        assert_eq!(l.noise_count(), 1);
        assert_eq!(l.unclassified_count(), 1);
    }

    #[test]
    fn sentinels_are_not_clusters() {
        let l = Labels::from_raw(vec![NOISE, UNCLASSIFIED, 0]);
        assert_eq!(l.cluster(0), None);
        assert_eq!(l.cluster(1), None);
        assert_eq!(l.cluster(2), Some(0));
    }

    #[test]
    fn raw_roundtrip() {
        let l = Labels::from_raw(vec![1, NOISE, 2]);
        assert_eq!(l.clone().into_raw(), vec![1, NOISE, 2]);
        assert_eq!(l.iter_raw().collect::<Vec<_>>(), vec![1, NOISE, 2]);
    }
}
