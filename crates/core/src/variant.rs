//! DBSCAN parameter variants and variant sets (§II-A, §IV-D).

use std::fmt;

use vbp_dbscan::DbscanParams;

/// One parameterized DBSCAN variant `v_i = (v_i^ε, v_i^minpts)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Variant {
    /// Neighborhood radius ε.
    pub eps: f64,
    /// Core-point threshold.
    pub minpts: usize,
}

impl Variant {
    /// Creates a variant.
    ///
    /// # Panics
    ///
    /// Panics if `eps` is negative/non-finite or `minpts == 0`.
    pub fn new(eps: f64, minpts: usize) -> Self {
        assert!(eps >= 0.0 && eps.is_finite(), "ε must be finite and ≥ 0");
        assert!(minpts >= 1, "minpts must be ≥ 1");
        Self { eps, minpts }
    }

    /// The equivalent [`DbscanParams`].
    pub fn params(&self) -> DbscanParams {
        DbscanParams::new(self.eps, self.minpts)
    }

    /// The §IV-B inclusion criteria: can `self` reuse clusters produced by
    /// `source`? True iff `self.ε ≥ source.ε` and
    /// `self.minpts ≤ source.minpts` — moves under which every existing
    /// cluster can only grow, so copied memberships stay valid.
    ///
    /// A variant can formally reuse an identical variant; callers decide
    /// whether that degenerate case is useful (the engine allows it — the
    /// "reuse" then copies every cluster verbatim, which is exactly right).
    #[inline]
    pub fn can_reuse(&self, source: &Variant) -> bool {
        self.eps >= source.eps && self.minpts <= source.minpts
    }

    /// Parameter distance used by the schedulers to pick the *best* reuse
    /// source among the eligible ones (§IV-D: "smallest difference in
    /// parameters", Figure 3 minimizes the component-wise difference).
    /// Components are normalized by the provided ranges so ε (often ≪ 1)
    /// and minpts (often ≫ 1) weigh equally.
    pub fn param_distance(&self, other: &Variant, eps_range: f64, minpts_range: f64) -> f64 {
        let de = (self.eps - other.eps).abs() / eps_range.max(f64::MIN_POSITIVE);
        let dm =
            (self.minpts as f64 - other.minpts as f64).abs() / minpts_range.max(f64::MIN_POSITIVE);
        de + dm
    }
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Four decimals is plenty for reports; trim trailing zeros so
        // round values print as the paper writes them: `(0.2, 32)`.
        let eps = format!("{:.4}", self.eps);
        let eps = eps.trim_end_matches('0').trim_end_matches('.');
        write!(f, "({eps}, {})", self.minpts)
    }
}

/// An ordered set of variants `V`.
///
/// §IV-D: *"Variants in V are sorted first by non-decreasing ε and then by
/// non-increasing minpts."* Construction enforces that order; element `0`
/// is therefore always the variant with smallest ε and, among those, the
/// largest minpts — the one SchedGreedy clusters from scratch first.
#[derive(Clone, Debug, PartialEq)]
pub struct VariantSet {
    variants: Vec<Variant>,
}

impl VariantSet {
    /// Builds a set from arbitrary variants, sorting them canonically.
    /// Duplicates are kept (the paper's S1 experiment deliberately runs 16
    /// identical variants).
    pub fn new(mut variants: Vec<Variant>) -> Self {
        variants.sort_by(|a, b| {
            a.eps
                .partial_cmp(&b.eps)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(b.minpts.cmp(&a.minpts))
        });
        Self { variants }
    }

    /// The paper's `V = A × B` notation: the Cartesian product of an ε set
    /// and a minpts set (§V-B).
    ///
    /// ```
    /// use variantdbscan::{Variant, VariantSet};
    ///
    /// let v = VariantSet::cartesian(&[0.1, 0.2], &[1, 2]);
    /// assert_eq!(v.len(), 4);
    /// // Canonical order: ascending ε, then descending minpts.
    /// assert_eq!(v.get(0), Variant::new(0.1, 2));
    /// assert_eq!(v.get(3), Variant::new(0.2, 1));
    /// ```
    pub fn cartesian(eps_values: &[f64], minpts_values: &[usize]) -> Self {
        let mut v = Vec::with_capacity(eps_values.len() * minpts_values.len());
        for &e in eps_values {
            for &m in minpts_values {
                v.push(Variant::new(e, m));
            }
        }
        Self::new(v)
    }

    /// `n` copies of a single variant — the S1 indexing experiment's
    /// workload shape.
    pub fn replicated(variant: Variant, n: usize) -> Self {
        Self::new(vec![variant; n])
    }

    /// Number of variants `|V|`.
    #[inline]
    pub fn len(&self) -> usize {
        self.variants.len()
    }

    /// Returns `true` for the empty set.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.variants.is_empty()
    }

    /// Variant at sorted position `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Variant {
        self.variants[i]
    }

    /// The sorted variants.
    #[inline]
    pub fn as_slice(&self) -> &[Variant] {
        &self.variants
    }

    /// Iterates variants in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = Variant> + '_ {
        self.variants.iter().copied()
    }

    /// Spread of ε values (for distance normalization); at least
    /// `f64::MIN_POSITIVE`.
    pub fn eps_range(&self) -> f64 {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for v in &self.variants {
            lo = lo.min(v.eps);
            hi = hi.max(v.eps);
        }
        (hi - lo).max(f64::MIN_POSITIVE)
    }

    /// Spread of minpts values; at least 1.
    pub fn minpts_range(&self) -> f64 {
        let (mut lo, mut hi) = (usize::MAX, 0usize);
        for v in &self.variants {
            lo = lo.min(v.minpts);
            hi = hi.max(v.minpts);
        }
        ((hi.saturating_sub(lo)) as f64).max(1.0)
    }

    /// The §IV-D SchedMinpts priority list: for every distinct ε, the
    /// index of the variant with the maximum minpts, ordered by ε. These
    /// are clustered from scratch first to maximize the diversity of reuse
    /// sources.
    pub fn minpts_priority_indices(&self) -> Vec<usize> {
        let mut result: Vec<usize> = Vec::new();
        let mut i = 0;
        while i < self.variants.len() {
            // Canonical order sorts each ε group by descending minpts, so
            // the group's first element is its max-minpts variant.
            result.push(i);
            let eps = self.variants[i].eps;
            while i < self.variants.len() && self.variants[i].eps == eps {
                i += 1;
            }
        }
        result
    }
}

impl std::ops::Index<usize> for VariantSet {
    type Output = Variant;
    fn index(&self, i: usize) -> &Variant {
        &self.variants[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_ordering() {
        let set = VariantSet::cartesian(&[0.6, 0.2, 0.4], &[20, 32, 24]);
        let v: Vec<(f64, usize)> = set.iter().map(|v| (v.eps, v.minpts)).collect();
        assert_eq!(
            v,
            vec![
                (0.2, 32),
                (0.2, 24),
                (0.2, 20),
                (0.4, 32),
                (0.4, 24),
                (0.4, 20),
                (0.6, 32),
                (0.6, 24),
                (0.6, 20),
            ]
        );
    }

    #[test]
    fn reuse_criteria_match_paper_example() {
        // §IV-D: (0.6, 20) can reuse (0.2, 32) — ε grew, minpts shrank.
        let v = Variant::new(0.6, 20);
        assert!(v.can_reuse(&Variant::new(0.2, 32)));
        assert!(v.can_reuse(&Variant::new(0.6, 24)));
        assert!(v.can_reuse(&Variant::new(0.6, 20))); // identical
        assert!(!v.can_reuse(&Variant::new(0.7, 20))); // ε shrank
        assert!(!v.can_reuse(&Variant::new(0.6, 16))); // minpts grew
    }

    #[test]
    fn param_distance_prefers_componentwise_neighbor() {
        // Figure 3: (0.6, 20) should prefer (0.6, 24) over (0.2, 32).
        let v = Variant::new(0.6, 20);
        let near = Variant::new(0.6, 24);
        let far = Variant::new(0.2, 32);
        let (er, mr) = (0.4, 12.0);
        assert!(v.param_distance(&near, er, mr) < v.param_distance(&far, er, mr));
    }

    #[test]
    fn minpts_priority_list() {
        let set = VariantSet::cartesian(&[0.2, 0.4, 0.6], &[20, 24, 28, 32]);
        let prio = set.minpts_priority_indices();
        let picks: Vec<(f64, usize)> = prio.iter().map(|&i| (set[i].eps, set[i].minpts)).collect();
        assert_eq!(picks, vec![(0.2, 32), (0.4, 32), (0.6, 32)]);
    }

    #[test]
    fn replicated_and_ranges() {
        let set = VariantSet::replicated(Variant::new(0.5, 4), 16);
        assert_eq!(set.len(), 16);
        assert_eq!(set.eps_range(), f64::MIN_POSITIVE);
        assert_eq!(set.minpts_range(), 1.0);
    }

    #[test]
    fn empty_set() {
        let set = VariantSet::new(vec![]);
        assert!(set.is_empty());
        assert!(set.minpts_priority_indices().is_empty());
    }

    #[test]
    #[should_panic(expected = "minpts")]
    fn invalid_variant_rejected() {
        Variant::new(0.5, 0);
    }
}
