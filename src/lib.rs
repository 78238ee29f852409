//! Umbrella crate for the VariantDBSCAN workspace.
//!
//! This crate re-exports the public APIs of the workspace members so that
//! the repository-level examples (`examples/`) and integration tests
//! (`tests/`) can exercise the whole system through a single dependency.
//!
//! The actual implementations live in:
//!
//! - [`vbp_geom`] — points, minimum bounding boxes, binning.
//! - [`vbp_rtree`] — the packed R-tree index, the brute-force reference
//!   index, and the ε-neighborhood search of Algorithm 2.
//! - [`vbp_dbscan`] — DBSCAN (Algorithm 1), its sharded disjoint-set
//!   kernel and grid-based reference, incremental DBSCAN, the DBDC quality
//!   metric, and the k-distance heuristic.
//! - [`variantdbscan`] — the paper's primary contribution: variant sets,
//!   reuse (Algorithms 3–4), cluster seed selection, scheduling, and the
//!   multithreaded execution engine.
//! - [`vbp_data`] — synthetic `cF-`/`cV-` dataset generators, the simulated
//!   space-weather TEC maps standing in for SW1–SW4, and dataset IO.
//! - [`vbp_service`] — the network daemon: `SUBMIT`/`APPEND`/`WATCH`
//!   protocol, dominance cache, and the loopback client.

pub use variantdbscan;
pub use vbp_data;
pub use vbp_dbscan;
pub use vbp_geom;
pub use vbp_rtree;
pub use vbp_service;

/// Convenience prelude that pulls in the types used by virtually every
/// consumer of the library.
pub mod prelude {
    pub use variantdbscan::{
        Engine, EngineConfig, EngineError, ReuseScheme, RunReport, RunRequest, Scheduler,
        TraceLevel, Variant, VariantSet,
    };
    pub use vbp_data::{DatasetSpec, SyntheticClass};
    pub use vbp_dbscan::{dbscan, ClusterResult, DbscanParams};
    pub use vbp_geom::{Mbb, Point2};
    pub use vbp_rtree::{PackedRTree, SpatialIndex};
}
