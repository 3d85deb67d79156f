//! # rt-bench
//!
//! Experiment drivers reproducing every table and figure of the paper's
//! evaluation (Section 8), plus `bench_gate`, the deterministic
//! work-counter regression gate CI runs against `ci/bench_baseline.json`.
//!
//! Each experiment lives in [`experiments`] as a plain function returning a
//! vector of result rows; the `exp` binary runs one of them by name
//! (`exp <name> [--scale smoke|default|paper]`), prints its rows as a table
//! (mirroring the series the paper plots) and writes them as JSON to
//! `target/experiments/<report>.json`.
//!
//! | Paper artefact | Function | `exp` name | JSON report |
//! |---|---|---|---|
//! | Figure 7 (quality vs. relative trust) | [`experiments::quality_vs_trust`] | `quality_vs_trust` | `figure7_quality_vs_trust` |
//! | Figure 8 (vs. unified-cost repair) | [`experiments::versus_unified_cost`] | `vs_unified_cost` | `figure8_vs_unified_cost` |
//! | Figure 9 (scalability in tuples) | [`experiments::scalability_tuples`] | `scal_tuples` | `figure9_scalability_tuples` |
//! | Figure 10 (scalability in attributes) | [`experiments::scalability_attributes`] | `scal_attrs` | `figure10_scalability_attributes` |
//! | Figure 11 (scalability in FDs) | [`experiments::scalability_fds`] | `scal_fds` | `figure11_scalability_fds` |
//! | Figure 12 (effect of τ) | [`experiments::effect_of_tau`] | `effect_tau` | `figure12_effect_of_tau` |
//! | Figure 13 (multiple repairs) | [`experiments::multi_repair_comparison`] | `multi_repairs` | `figure13_multi_repairs` |
//!
//! `exp par_speedup [--threads auto|serial|N]` is no paper figure: it times
//! each parallel stage against the serial path and exits non-zero unless
//! their outputs are identical (report `parallel_speedup`).
//!
//! The default workload sizes are scaled down from the paper's (which used a
//! 300k-tuple Census extract on 2012-era server hardware) so that the whole
//! suite completes in minutes; every driver accepts a [`Scale`] to run the
//! paper-sized configuration instead.

//!
//! ```
//! use rt_bench::{Scale, Workload, WorkloadSpec};
//!
//! // Declarative workload: clean generation + Section 8.1 perturbation.
//! let spec = WorkloadSpec { tuples: Scale::Smoke.tuples(800), ..Default::default() };
//! let workload = Workload::build(&spec);
//! assert_eq!(workload.dirty_instance().len(), 200);
//! assert!(!workload.dirty_fds().holds_on(workload.dirty_instance()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod report;
pub mod workloads;

pub use report::{render_table, write_json_report};
pub use workloads::{Scale, Workload, WorkloadSpec};
