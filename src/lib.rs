//! # cca — Correlation-Aware Object Placement for Multi-Object Operations
//!
//! A Rust reproduction of *Zhong, Shen, Seiferas, ICDCS 2008*: placing
//! correlated objects (objects frequently requested together) on the same
//! node of a distributed system to minimise multi-object operation
//! communication, subject to per-node capacity.
//!
//! This umbrella crate re-exports the workspace:
//!
//! * [`algo`] (`cca-core`) — the CCA problem, LP relaxation, randomized
//!   rounding (Algorithm 2.1), greedy and random-hash baselines, partial
//!   optimization, capacity repair, exact oracle.
//! * [`lp`] (`cca-lp`) — from-scratch dense and sparse simplex solvers.
//! * [`search`] (`cca-search`) — inverted indices, cluster simulator, query
//!   engine with communication accounting.
//! * [`trace`] (`cca-trace`) — synthetic corpus/query-log generation
//!   calibrated to the paper's trace statistics, plus trace analytics.
//! * [`hashing`] (`cca-hash`) — RFC 1321 MD5 and hash placement.
//! * [`pipeline`] — the end-to-end evaluation pipeline of the paper's §4
//!   case study: workload → index → CCA problem → placement → trace replay.
//! * [`serve`] — the serving front: admits the query stream in fixed
//!   windows, batches each window's execution per home node, and answers
//!   every query under the served/degraded/shed taxonomy with a
//!   deterministic latency report.
//!
//! # End-to-end example
//!
//! ```
//! use cca::pipeline::{CorrelationMode, Pipeline, PipelineConfig};
//! use cca::algo::Strategy;
//! use cca::trace::TraceConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut config = PipelineConfig::new(TraceConfig::tiny(), 4);
//! config.seed = 7;
//! config.correlation = CorrelationMode::TwoSmallest;
//! let pipeline = Pipeline::build(&config);
//!
//! let random = pipeline.evaluate(&Strategy::RandomHash, None)?;
//! let lprr = pipeline.evaluate(&Strategy::lprr(), Some(50))?;
//! // Correlation-aware placement moves fewer bytes over the wire.
//! assert!(lprr.replay.total_bytes <= random.replay.total_bytes);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cca_core as algo;
pub use cca_hash as hashing;
pub use cca_lp as lp;
pub use cca_search as search;
pub use cca_trace as trace;

pub mod online;
pub mod pipeline;
pub mod runtime;
pub mod serve;
