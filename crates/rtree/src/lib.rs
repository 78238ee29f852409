//! Spatial indexes for VariantDBSCAN.
//!
//! §IV-A of the paper is built around one observation: 2-D DBSCAN is
//! memory-bound, and the dominant memory traffic comes from ε-neighborhood
//! searches. The proposed remedy is an R-tree whose **leaves hold `r`
//! points per minimum bounding box**: larger `r` means a shallower tree and
//! fewer pointer-chasing memory accesses per query, at the cost of more
//! distance computations in the filter step. The paper finds `70 ≤ r ≤ 110`
//! to be a good range across its datasets, yielding up to a 1101%
//! improvement over the un-tuned index on real space weather data.
//!
//! This crate provides:
//!
//! - [`PackedRTree`] — the paper's index: points are sorted into unit-width
//!   bins ([`vbp_geom::binning`]), leaves take `r` consecutive points, and
//!   internal levels are packed bottom-up. The paper builds it twice:
//!   `T_low` (`r = r_tuned`, drives Algorithm 2's `NeighborSearch`) and
//!   `T_high` (`r = 1`, for the cluster-MBB harvest of Algorithm 3). The
//!   engine builds `T_low` only and harvests at its leaf grain.
//! - [`LeafReach`] — for one tree and one ε, the leaves each leaf can
//!   reach: searches centred on indexed points read it in place of the
//!   tree walk ([`SpatialIndex::epsilon_count_keyed_at`]), and the reuse
//!   harvest reads it to visit only the leaves a copied member reaches.
//! - [`BruteForce`] — the no-index reference the test suites hold the
//!   tree to.
//!
//! Both implement [`SpatialIndex`], the query interface DBSCAN and
//! VariantDBSCAN are generic over. On the packed tree there are also
//! [`knn`] (k-nearest-neighbor search, behind the k-distance ε heuristic)
//! and [`tuner`] (the empirical `r` sweep of §V-C that `vbp tune` runs).

#![warn(missing_docs)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod brute;
pub mod column;
pub mod knn;
pub mod packed;
pub mod reach;
mod scan;
pub mod stats;
pub mod traits;
pub mod tuner;

pub use brute::BruteForce;
pub use column::Column;
pub use packed::PackedRTree;
pub use reach::LeafReach;
pub use stats::TreeStats;
pub use traits::{shared_points, SharedPoints, Skip, SpatialIndex, COUNT_ONLY};
pub use tuner::{tune_r, tune_r_default, TuneReport, DEFAULT_R_CANDIDATES};
