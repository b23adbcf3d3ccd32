//! # psens-bench
//!
//! Experiment harness: one function per table/figure of the paper, each
//! returning the regenerated artifact as text. The `experiments` binary
//! prints them all; `node_eval_baseline` and `delta_throughput` time the
//! node-evaluation kernel and the incremental update path. EXPERIMENTS.md
//! records paper-vs-measured for every section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod workloads;

pub use experiments::*;
