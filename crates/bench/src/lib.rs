//! Benchmark harness for the VariantDBSCAN paper's evaluation (§V).
//!
//! Each binary in `src/bin/` regenerates one table or figure:
//!
//! | target | paper artifact |
//! |---|---|
//! | `table1_datasets` | Table I — dataset characteristics |
//! | `s1_indexing` | Table II + Figure 4 — indexing (S1) |
//! | `s2_reuse` | Table III + Figures 5, 6, 7a–c — data reuse (S2) |
//! | `s3_combined` | Table IV + Figure 8 — indexing + reuse + scheduling (S3) |
//! | `fig9_makespan` | Figure 9 — per-thread makespans |
//!
//! All binaries accept `--points <n>` (per-dataset scale cap, default
//! 10 000) and `--full` (paper-scale datasets — hours on laptop-class
//! hardware), plus `--trials <k>` (default 3, the paper's trial count).
//!
//! Timing of anything else — the ε-kernel, one-variant DBSCAN, the engine
//! under contention, the service, the store, the tracer and the sharded
//! kernel — is `benchmark/`, not here.

pub mod harness;
pub mod scenarios;

pub use harness::{bar, fmt_time, measure, BenchOpts, Measurement};
pub use scenarios::{
    adjust_variants_for, generate, s1_datasets, s2_datasets, s2_variants, s3_combinations,
    s3_variants, scale_dataset, sw_eps_multiplier, S1_R_VALUES, S3_GRIDS,
};
