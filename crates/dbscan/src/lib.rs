//! Density-based clustering substrate for VariantDBSCAN.
//!
//! Implements everything §II-B of the paper relies on:
//!
//! - [`dbscan`] / [`algorithm`] — DBSCAN (Ester et al., 1996) exactly as
//!   the paper's Algorithm 1, generic over any
//!   [`SpatialIndex`](vbp_rtree::SpatialIndex) so the same code runs with
//!   the paper's packed R-tree, a brute-force scan, or any other index.
//! - [`sharded`] — the disjoint-set kernel (Patwary et al., SC'12): one
//!   ε pass over contiguous slices of index order that unions each core
//!   edge where it finds it. [`sharded_dbscan`] is what the engine runs
//!   when a request asks for intra-variant sharding; [`parallel_dbscan`]
//!   is the same kernel at one slice per thread.
//! - [`gridbscan`] — exact cell-graph DBSCAN (Gan & Tao), the independent
//!   reference the test suites hold the sharded kernel byte-identical to.
//! - [`incremental`] — insertion-maintained clustering, behind the
//!   service's WATCH deltas.
//! - [`labels`] / [`result`] — compact cluster labelings and the
//!   [`ClusterResult`] type consumed by VariantDBSCAN's reuse machinery.
//! - [`quality`] — the per-point cluster-similarity score of Januzaj et
//!   al. (DBDC) used by §V-D to show VariantDBSCAN ≈ DBSCAN (≥ 0.998).
//! - [`kdist`] — the sorted k-distance plot heuristic of the original
//!   DBSCAN paper, which §V-B uses to justify `minpts = 4`.

#![warn(missing_docs)]

pub mod algorithm;
pub mod gridbscan;
pub mod incremental;
pub mod kdist;
pub mod labels;
pub mod quality;
pub mod result;
pub mod sharded;
pub mod unionfind;

pub use algorithm::{dbscan, dbscan_with_scratch, DbscanParams, DbscanScratch, DbscanStats};
pub use gridbscan::grid_dbscan;
pub use incremental::{IncrementalDbscan, InsertOutcome};
pub use kdist::{kdist_plot, suggest_eps, KneePoint};
pub use labels::{ClusterId, Labels, MAX_CLUSTER_ID, NOISE, UNCLAIMED, UNCLASSIFIED};
pub use quality::{quality_score, QualityReport};
pub use result::ClusterResult;
pub use sharded::{
    check_point_id_capacity, parallel_dbscan, sharded_dbscan, CapacityError, ShardStats, MAX_POINTS,
};
pub use unionfind::{ConcurrentDisjointSets, DisjointSets};
