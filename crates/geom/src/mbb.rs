//! Axis-aligned minimum bounding boxes (MBBs).
//!
//! MBBs are the core geometric abstraction of the paper's indexing scheme
//! (§IV-A): the packed R-tree stores `r` points per leaf MBB, ε-neighborhood
//! queries are issued as point MBBs augmented by ε, and cluster reuse
//! (Algorithm 3, line 10) builds an MBB around a whole cluster augmented by
//! the variant's ε to harvest candidate expansion points.

use crate::point::Point2;

/// An axis-aligned minimum bounding box `[min.x, max.x] × [min.y, max.y]`.
///
/// Boxes are closed: a point on the boundary is contained, and two boxes
/// sharing only an edge intersect. This matches the paper's inclusive
/// `dist(p, q) ≤ ε` convention — an MBB test must never prune a point at
/// exactly ε.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mbb {
    /// Lower-left corner.
    pub min: Point2,
    /// Upper-right corner.
    pub max: Point2,
}

impl Mbb {
    /// Creates an MBB from its corners.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `min` exceeds `max` in either dimension.
    #[inline]
    pub fn new(min: Point2, max: Point2) -> Self {
        debug_assert!(
            min.x <= max.x && min.y <= max.y,
            "inverted MBB: min {min:?}, max {max:?}"
        );
        Self { min, max }
    }

    /// The degenerate MBB containing exactly one point.
    #[inline]
    pub fn from_point(p: Point2) -> Self {
        Self { min: p, max: p }
    }

    /// The query MBB of Algorithm 2, line 3: the point `p` augmented by
    /// `eps` in all four directions, i.e.
    /// `MBB_min = (x−ε, y−ε)`, `MBB_max = (x+ε, y+ε)`.
    #[inline]
    pub fn around_point(p: Point2, eps: f64) -> Self {
        debug_assert!(eps >= 0.0, "negative ε: {eps}");
        Self {
            min: Point2::new(p.x - eps, p.y - eps),
            max: Point2::new(p.x + eps, p.y + eps),
        }
    }

    /// Smallest MBB enclosing all `points`; `None` for an empty slice.
    pub fn from_points<'a, I>(points: I) -> Option<Self>
    where
        I: IntoIterator<Item = &'a Point2>,
    {
        let mut it = points.into_iter();
        let first = *it.next()?;
        let mut mbb = Self::from_point(first);
        for p in it {
            mbb.expand_to(p);
        }
        Some(mbb)
    }

    /// An "empty" MBB that is the identity for [`Mbb::union`] and
    /// [`Mbb::expand_to`] — useful as a fold seed.
    #[inline]
    pub fn empty() -> Self {
        Self {
            min: Point2::new(f64::INFINITY, f64::INFINITY),
            max: Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Returns `true` if this is the identity produced by [`Mbb::empty`]
    /// (no point has been folded in yet).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x || self.min.y > self.max.y
    }

    /// Grows this MBB in place so it contains `p`.
    #[inline]
    pub fn expand_to(&mut self, p: &Point2) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Grows this MBB by `margin` on every side (Algorithm 3, line 10 uses
    /// this with `margin = ε` around a cluster MBB).
    #[inline]
    pub fn inflate(&self, margin: f64) -> Self {
        debug_assert!(margin >= 0.0, "negative margin: {margin}");
        Self {
            min: Point2::new(self.min.x - margin, self.min.y - margin),
            max: Point2::new(self.max.x + margin, self.max.y + margin),
        }
    }

    /// The smallest MBB containing both operands.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Self {
            min: self.min.min(&other.min),
            max: self.max.max(&other.max),
        }
    }

    /// Returns `true` if the closed boxes share at least one point.
    #[inline(always)]
    pub fn intersects(&self, other: &Self) -> bool {
        self.min.x <= other.max.x
            && other.min.x <= self.max.x
            && self.min.y <= other.max.y
            && other.min.y <= self.max.y
    }

    /// Returns `true` if `p` lies inside the closed box.
    #[inline(always)]
    pub fn contains_point(&self, p: &Point2) -> bool {
        self.min.x <= p.x && p.x <= self.max.x && self.min.y <= p.y && p.y <= self.max.y
    }

    /// Returns `true` if `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_mbb(&self, other: &Self) -> bool {
        self.min.x <= other.min.x
            && self.min.y <= other.min.y
            && other.max.x <= self.max.x
            && other.max.y <= self.max.y
    }

    /// Box width (`x` span).
    #[inline]
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Box height (`y` span).
    #[inline]
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// Box area. Degenerate (point or line) boxes have area 0; the cluster
    /// density measures of §IV-C guard against dividing by this.
    #[inline]
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Area of the intersection, 0 if disjoint.
    #[inline]
    pub fn intersection_area(&self, other: &Self) -> f64 {
        let w = (self.max.x.min(other.max.x) - self.min.x.max(other.min.x)).max(0.0);
        let h = (self.max.y.min(other.max.y) - self.min.y.max(other.min.y)).max(0.0);
        w * h
    }

    /// Squared Euclidean distance from `p` to the nearest point of the box
    /// (0 if `p` is inside). Used by best-first / k-NN traversal.
    #[inline]
    pub fn dist_sq_to_point(&self, p: &Point2) -> f64 {
        let dx = (self.min.x - p.x).max(0.0).max(p.x - self.max.x);
        let dy = (self.min.y - p.y).max(0.0).max(p.y - self.max.y);
        dx * dx + dy * dy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mbb(x0: f64, y0: f64, x1: f64, y1: f64) -> Mbb {
        Mbb::new(Point2::new(x0, y0), Point2::new(x1, y1))
    }

    #[test]
    fn around_point_matches_paper_definition() {
        let q = Mbb::around_point(Point2::new(1.0, 2.0), 0.5);
        assert_eq!(q.min, Point2::new(0.5, 1.5));
        assert_eq!(q.max, Point2::new(1.5, 2.5));
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [
            Point2::new(1.0, 5.0),
            Point2::new(-2.0, 3.0),
            Point2::new(0.5, 7.0),
        ];
        let b = Mbb::from_points(pts.iter()).unwrap();
        assert_eq!(b.min, Point2::new(-2.0, 3.0));
        assert_eq!(b.max, Point2::new(1.0, 7.0));
        assert!(Mbb::from_points([].iter()).is_none());
    }

    #[test]
    fn empty_is_union_identity() {
        let b = mbb(0.0, 0.0, 2.0, 3.0);
        assert!(Mbb::empty().is_empty());
        assert_eq!(Mbb::empty().union(&b), b);
        assert!(!b.is_empty());
    }

    #[test]
    fn intersects_handles_touching_edges() {
        let a = mbb(0.0, 0.0, 1.0, 1.0);
        let b = mbb(1.0, 0.0, 2.0, 1.0); // shares the x = 1 edge
        let c = mbb(1.000_001, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
        assert!(!a.intersects(&c));
    }

    #[test]
    fn intersects_disjoint_in_y() {
        let a = mbb(0.0, 0.0, 1.0, 1.0);
        let b = mbb(0.0, 2.0, 1.0, 3.0);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn containment() {
        let outer = mbb(0.0, 0.0, 10.0, 10.0);
        let inner = mbb(2.0, 2.0, 3.0, 3.0);
        assert!(outer.contains_mbb(&inner));
        assert!(!inner.contains_mbb(&outer));
        assert!(outer.contains_point(&Point2::new(10.0, 10.0))); // closed box
        assert!(!outer.contains_point(&Point2::new(10.1, 5.0)));
    }

    #[test]
    fn inflate_grows_all_sides() {
        let b = mbb(1.0, 1.0, 2.0, 2.0).inflate(0.25);
        assert_eq!(b, mbb(0.75, 0.75, 2.25, 2.25));
    }

    #[test]
    fn measures() {
        let b = mbb(0.0, 0.0, 4.0, 3.0);
        assert_eq!(b.width(), 4.0);
        assert_eq!(b.height(), 3.0);
        assert_eq!(b.area(), 12.0);
    }

    #[test]
    fn degenerate_box_has_zero_area() {
        let b = Mbb::from_point(Point2::new(1.0, 1.0));
        assert_eq!(b.area(), 0.0);
        assert!(b.contains_point(&Point2::new(1.0, 1.0)));
    }

    #[test]
    fn intersection_area_cases() {
        let a = mbb(0.0, 0.0, 2.0, 2.0);
        let b = mbb(1.0, 1.0, 3.0, 3.0);
        assert_eq!(a.intersection_area(&b), 1.0);
        let c = mbb(5.0, 5.0, 6.0, 6.0);
        assert_eq!(a.intersection_area(&c), 0.0);
    }

    #[test]
    fn dist_sq_to_point_inside_is_zero() {
        let b = mbb(0.0, 0.0, 2.0, 2.0);
        assert_eq!(b.dist_sq_to_point(&Point2::new(1.0, 1.0)), 0.0);
        assert_eq!(b.dist_sq_to_point(&Point2::new(3.0, 1.0)), 1.0);
        assert_eq!(b.dist_sq_to_point(&Point2::new(3.0, 3.0)), 2.0);
    }
}
