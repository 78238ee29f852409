//! Dataset extents and coordinate normalization.
//!
//! Dataset generators (the `vbp-data` crate) and the benchmark harness need
//! to reason about the spatial region a point set occupies: synthetic
//! cluster centers are drawn inside a region, TEC maps cover a fixed
//! longitude/latitude window, and per-dataset ε values are chosen relative
//! to the region scale (§V-A of the paper scales ε from 0.04 up to 10 as
//! point density drops).

use crate::mbb::Mbb;
use crate::point::Point2;

/// A rectangular region of the plane, with dataset-oriented helpers on top
/// of the raw [`Mbb`] geometry.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Extent {
    mbb: Mbb,
}

impl Extent {
    /// Creates an extent covering `[x0, x1] × [y0, y1]`.
    ///
    /// # Panics
    ///
    /// Panics if the interval is inverted or non-finite.
    pub fn new(x0: f64, y0: f64, x1: f64, y1: f64) -> Self {
        assert!(
            x0.is_finite() && y0.is_finite() && x1.is_finite() && y1.is_finite(),
            "extent bounds must be finite"
        );
        assert!(x0 <= x1 && y0 <= y1, "inverted extent");
        Self {
            mbb: Mbb::new(Point2::new(x0, y0), Point2::new(x1, y1)),
        }
    }

    /// The unit square `[0, 1]²`.
    pub fn unit() -> Self {
        Self::new(0.0, 0.0, 1.0, 1.0)
    }

    /// A square `[0, side] × [0, side]`.
    pub fn square(side: f64) -> Self {
        Self::new(0.0, 0.0, side, side)
    }

    /// Tight extent of a point set; `None` when empty.
    pub fn of_points(points: &[Point2]) -> Option<Self> {
        Mbb::from_points(points.iter()).map(|mbb| Self { mbb })
    }

    /// The underlying MBB.
    #[inline]
    pub fn mbb(&self) -> Mbb {
        self.mbb
    }

    /// Width of the region.
    #[inline]
    pub fn width(&self) -> f64 {
        self.mbb.width()
    }

    /// Height of the region.
    #[inline]
    pub fn height(&self) -> f64 {
        self.mbb.height()
    }

    /// Area of the region.
    #[inline]
    pub fn area(&self) -> f64 {
        self.mbb.area()
    }

    /// Maps a unit-square coordinate `(u, v) ∈ [0,1]²` into the region.
    #[inline]
    pub fn lerp(&self, u: f64, v: f64) -> Point2 {
        Point2::new(
            self.mbb.min.x + u * self.width(),
            self.mbb.min.y + v * self.height(),
        )
    }

    /// Inverse of [`Extent::lerp`]: region coordinates to unit square.
    /// Degenerate axes map to 0.
    #[inline]
    pub fn normalize(&self, p: &Point2) -> (f64, f64) {
        let u = if self.width() > 0.0 {
            (p.x - self.mbb.min.x) / self.width()
        } else {
            0.0
        };
        let v = if self.height() > 0.0 {
            (p.y - self.mbb.min.y) / self.height()
        } else {
            0.0
        };
        (u, v)
    }

    /// Returns `true` if `p` lies inside the closed region.
    #[inline]
    pub fn contains(&self, p: &Point2) -> bool {
        self.mbb.contains_point(p)
    }

    /// Clamps `p` into the region.
    #[inline]
    pub fn clamp(&self, p: &Point2) -> Point2 {
        Point2::new(
            p.x.clamp(self.mbb.min.x, self.mbb.max.x),
            p.y.clamp(self.mbb.min.y, self.mbb.max.y),
        )
    }

    /// Mean point density if `n` points were spread over this region
    /// (points per unit area). Generators use this to pick ε values that
    /// yield sensible expected neighborhood sizes.
    pub fn mean_density(&self, n: usize) -> f64 {
        let a = self.area();
        if a > 0.0 {
            n as f64 / a
        } else {
            f64::INFINITY
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lerp_and_normalize_roundtrip() {
        let e = Extent::new(-10.0, 5.0, 10.0, 25.0);
        let p = e.lerp(0.25, 0.75);
        assert_eq!(p, Point2::new(-5.0, 20.0));
        let (u, v) = e.normalize(&p);
        assert!((u - 0.25).abs() < 1e-12 && (v - 0.75).abs() < 1e-12);
    }

    #[test]
    fn contains_and_clamp() {
        let e = Extent::square(10.0);
        assert!(e.contains(&Point2::new(10.0, 0.0)));
        assert!(!e.contains(&Point2::new(10.5, 0.0)));
        assert_eq!(e.clamp(&Point2::new(12.0, -3.0)), Point2::new(10.0, 0.0));
    }

    #[test]
    fn of_points_matches_mbb() {
        let pts = [Point2::new(1.0, 2.0), Point2::new(-1.0, 4.0)];
        let e = Extent::of_points(&pts).unwrap();
        assert_eq!(e.width(), 2.0);
        assert_eq!(e.height(), 2.0);
        assert!(Extent::of_points(&[]).is_none());
    }

    #[test]
    fn mean_density_is_points_per_area() {
        let e = Extent::square(10.0); // area 100
        assert_eq!(e.mean_density(1000), 10.0);
    }

    #[test]
    #[should_panic(expected = "inverted extent")]
    fn inverted_rejected() {
        Extent::new(1.0, 0.0, 0.0, 1.0);
    }

    #[test]
    fn degenerate_normalize_is_zero() {
        let e = Extent::new(1.0, 1.0, 1.0, 5.0);
        let (u, v) = e.normalize(&Point2::new(1.0, 3.0));
        assert_eq!(u, 0.0);
        assert_eq!(v, 0.5);
    }
}
