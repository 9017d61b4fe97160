//! Distributed full-text search substrate for the CCA reproduction.
//!
//! This crate implements the paper's §4 prototype: a keyword-partitioned
//! distributed search engine that, "driven by the query log, … locates the
//! nodes that contain the inverted indices of the queried keywords, performs
//! intersection operations to generate search results, and logs the
//! communication overhead incurred during this process".
//!
//! * [`InvertedIndex`] — posting lists of 8-byte [`PageId`]s built from a
//!   corpus, with stopword filtering ([`stopwords::StopwordList`]).
//! * [`Cluster`] — the simulated node set with per-keyword lookup table and
//!   per-node storage accounting.
//! * [`QueryEngine`] — trace replay with byte-accurate communication
//!   accounting for intersection-like and union-like multi-object
//!   operations.
//!
//! [`PageId`]: cca_hash::PageId

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod docpart;
pub mod engine;
pub mod index;
pub mod stopwords;

pub use cluster::Cluster;
pub use engine::{AggregationPolicy, ExecutionStats, QueryEngine, QueryResult, Transfer};
pub use index::InvertedIndex;
pub use stopwords::StopwordList;
