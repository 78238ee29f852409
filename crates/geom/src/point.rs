//! 2-D points.

use std::fmt;
use std::ops::{Add, Div, Mul, Sub};

/// A point in the plane, `(x, y)`, with `f64` coordinates.
///
/// In the space-weather application `x` and `y` are typically longitude and
/// latitude of a thresholded TEC measurement, but the library is agnostic:
/// any planar embedding works.
#[derive(Clone, Copy, PartialEq, Default)]
pub struct Point2 {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point2 {
    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin, `(0, 0)`.
    pub const ORIGIN: Self = Self::new(0.0, 0.0);

    /// Squared Euclidean distance to `other`.
    ///
    /// This is the hot operation of the whole system: every candidate point
    /// produced by an R-tree search is filtered through it (Algorithm 2,
    /// line 6). Comparing squared distances against `ε²` avoids a `sqrt`
    /// per candidate.
    #[inline(always)]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Returns `true` if `other` lies within Euclidean distance `eps` of
    /// `self` (inclusive, matching the paper's `dist(p, q) ≤ ε`).
    #[inline(always)]
    pub fn within(&self, other: &Self, eps: f64) -> bool {
        self.dist_sq(other) <= eps * eps
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min(&self, other: &Self) -> Self {
        Self::new(self.x.min(other.x), self.y.min(other.y))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max(&self, other: &Self) -> Self {
        Self::new(self.x.max(other.x), self.y.max(other.y))
    }

    /// Returns `true` if both coordinates are finite.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl fmt::Debug for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl fmt::Display for Point2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point2 {
    #[inline]
    fn from((x, y): (f64, f64)) -> Self {
        Self::new(x, y)
    }
}

impl From<Point2> for (f64, f64) {
    #[inline]
    fn from(p: Point2) -> Self {
        (p.x, p.y)
    }
}

impl Add for Point2 {
    type Output = Point2;
    #[inline]
    fn add(self, rhs: Point2) -> Point2 {
        Point2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point2 {
    type Output = Point2;
    #[inline]
    fn sub(self, rhs: Point2) -> Point2 {
        Point2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn mul(self, s: f64) -> Point2 {
        Point2::new(self.x * s, self.y * s)
    }
}

impl Div<f64> for Point2 {
    type Output = Point2;
    #[inline]
    fn div(self, s: f64) -> Point2 {
        Point2::new(self.x / s, self.y / s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a.dist_sq(&b), 25.0);
        assert_eq!(a.dist(&b), 5.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = Point2::new(-1.5, 2.0);
        let b = Point2::new(7.25, -3.0);
        assert_eq!(a.dist_sq(&b), b.dist_sq(&a));
    }

    #[test]
    fn within_is_inclusive_at_the_boundary() {
        let a = Point2::new(0.0, 0.0);
        let b = Point2::new(2.0, 0.0);
        assert!(a.within(&b, 2.0));
        assert!(!a.within(&b, 1.999_999));
    }

    #[test]
    fn min_max_are_componentwise() {
        let a = Point2::new(1.0, 5.0);
        let b = Point2::new(3.0, 2.0);
        assert_eq!(a.min(&b), Point2::new(1.0, 2.0));
        assert_eq!(a.max(&b), Point2::new(3.0, 5.0));
    }

    #[test]
    fn arithmetic_ops() {
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(3.0, 4.0);
        assert_eq!(a + b, Point2::new(4.0, 6.0));
        assert_eq!(b - a, Point2::new(2.0, 2.0));
        assert_eq!(a * 2.0, Point2::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point2::new(1.5, 2.0));
    }

    #[test]
    fn conversions_roundtrip() {
        let p = Point2::from((1.25, -2.5));
        let (x, y) = p.into();
        assert_eq!((x, y), (1.25, -2.5));
    }

    #[test]
    fn non_finite_detected() {
        assert!(Point2::new(1.0, 2.0).is_finite());
        assert!(!Point2::new(f64::NAN, 2.0).is_finite());
        assert!(!Point2::new(1.0, f64::INFINITY).is_finite());
    }
}
