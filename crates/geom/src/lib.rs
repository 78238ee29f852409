//! Geometric primitives shared by every crate in the VariantDBSCAN
//! workspace.
//!
//! The paper (Gowanlock, Blair, Pankratius, 2016) clusters 2-D point
//! databases — thresholded ionospheric total-electron-content (TEC) maps —
//! so the whole system is built on a small set of planar primitives:
//!
//! - [`Point2`]: a 2-D point with `f64` coordinates.
//! - [`Mbb`]: an axis-aligned minimum bounding box, the unit of indexing in
//!   the R-tree (§IV-A of the paper) and of cluster expansion (§IV-B).
//! - [`binning`]: the unit-width bin sort the paper applies to the point
//!   database before building the packed R-tree, so that points that are
//!   spatially close end up contiguous in memory and share leaf MBBs.
//! - [`extent`]: dataset extents and normalization helpers.

#![warn(missing_docs)]

pub mod binning;
pub mod extent;
pub mod mbb;
pub mod point;

pub use binning::{bin_sort, bin_sort_with_width, BinOrder};
pub use extent::Extent;
pub use mbb::Mbb;
pub use point::Point2;

/// Index of a point within the point database `D`.
///
/// The paper's datasets reach ~5.2 million points, far below `u32::MAX`, so
/// a 32-bit index halves the memory footprint of neighbor lists and cluster
/// membership vectors relative to `usize` — which matters because
/// VariantDBSCAN is memory-bound in 2-D (§IV-A).
pub type PointId = u32;
