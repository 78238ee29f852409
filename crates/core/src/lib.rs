//! **VariantDBSCAN** — variant-based parallelism for density clustering.
//!
//! Implementation of Gowanlock, Blair & Pankratius, *Exploiting
//! Variant-Based Parallelism for Data Mining of Space Weather Phenomena*
//! (2016). Given one 2-D point database and a set of DBSCAN parameter
//! variants `V = {(ε, minpts)}`, the engine maximizes clustering
//! *throughput* across all of `V` by combining three optimizations:
//!
//! 1. **Tuned indexing** ([`vbp_rtree::PackedRTree`] with `r` points per
//!    leaf MBB) to relieve the memory-bound ε-neighborhood searches;
//! 2. **Cluster reuse across variants** ([`expand`]): a variant copies the
//!    clusters of a completed variant whose parameters satisfy the
//!    inclusion criteria (ε grew, minpts shrank) and only recomputes their
//!    frontiers;
//! 3. **Online scheduling** ([`scheduler`]): [`Scheduler::SchedGreedy`] and
//!    [`Scheduler::SchedMinpts`] decide which variant each thread takes
//!    and which completed result it reuses.
//!
//! # Quick start
//!
//! ```
//! use variantdbscan::{Engine, EngineConfig, RunRequest, VariantSet};
//! use vbp_geom::Point2;
//!
//! // Two square blobs, 10 apart.
//! let mut points = Vec::new();
//! for b in [0.0, 10.0] {
//!     for i in 0..25 {
//!         points.push(Point2::new(b + (i % 5) as f64 * 0.2, (i / 5) as f64 * 0.2));
//!     }
//! }
//!
//! // V = A × B as in the paper's §V-B notation.
//! let variants = VariantSet::cartesian(&[0.3, 0.5], &[3, 5]);
//! let engine = Engine::new(EngineConfig::default().with_threads(2).with_r(8));
//! let report = engine.execute(&RunRequest::new(&points, &variants)).unwrap();
//!
//! assert_eq!(report.outcomes.len(), 4);
//! for result in &report.results {
//!     assert_eq!(result.num_clusters(), 2);
//! }
//! ```

#![warn(missing_docs)]

pub mod deptree;
pub mod engine;
pub mod expand;
pub mod fault;
pub mod json;
pub mod metrics;
pub mod scheduler;
pub mod seeds;
pub mod sim;
pub mod trace;
pub mod variant;

pub use deptree::DependencyTree;
pub use engine::{
    AppendReport, Engine, EngineConfig, EngineError, JobPanic, PreparedIndex, RChoice, RunRequest,
    RunSource, Sharding, WarmSource, APPEND_RESORT_FRACTION,
};
pub use expand::{cluster_with_reuse, ReuseStats};
pub use json::{parse_json, JsonArray, JsonObject, JsonValue};
pub use metrics::{
    tune_report_to_json, ExecutionPath, RunReport, ShardTotals, VariantOutcome, WorkerStats,
};
pub use scheduler::{Assignment, ReferenceScheduleState, ScheduleSource, ScheduleState, Scheduler};
pub use seeds::{seed_list, ReuseScheme};
pub use sim::{simulate, simulate_with, SimCostModel, SimOutcome, SimReport};
pub use trace::{
    Histogram, PhaseHistograms, TraceEvent, TraceLevel, TraceRecord, TraceSnapshot, TraceSource,
    WorkerTracer,
};
pub use variant::{Variant, VariantSet};
