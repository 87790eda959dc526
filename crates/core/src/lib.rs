//! # vdsms-core — the continuous copy-detection engine
//!
//! This crate implements the paper's primary contribution (Sections III–V):
//! a streaming engine that monitors many continuous query videos against a
//! video stream and reports content-based copies, robust to temporal
//! re-ordering, with CPU and memory costs optimized by three techniques:
//!
//! 1. **Bit-vector signatures** ([`bitsig`], Definition 3 / Lemma 1): each
//!    candidate-vs-query sketch relation is encoded in `2K` bits such that
//!    sketch combination becomes a bitwise OR and similarity becomes two
//!    popcounts — losslessly.
//! 2. **Pruning** ([`bitsig::BitSig::violates_lemma2`], Lemma 2): once a
//!    candidate has more than `K(1−δ)` min-hash values *smaller* than the
//!    query's, no extension of it can ever match, so it (and its
//!    combination chain) is dropped.
//! 3. **The Hash–Query index** ([`hq`], Section V-C, Figs. 4–5): query
//!    sketches are organized in a `K × m` array of sorted rows with
//!    up/down links, so a basic window is compared only against the small
//!    set of queries it shares min-hash values with.
//!
//! The engine ([`engine::Detector`]) supports all four method variants the
//! paper evaluates — Sketch/Bit representation × with/without index — and
//! both candidate combination orders (Sequential and Geometric, Section
//! IV-A, Fig. 2), with full operation counters ([`stats`]) so the paper's
//! cost experiments can be reproduced exactly.

#![forbid(unsafe_code)]

pub mod bitsig;
pub mod config;
pub mod detection;
pub mod engine;
mod entry;
pub mod error;
pub mod fleet;
pub mod geo_store;
pub mod hq;
pub mod persist;
pub mod query;
pub mod seq_store;
pub mod stats;
pub mod sync;
pub mod window;

pub use bitsig::BitSig;
pub use config::{DetectorConfig, DetectorVariant, Order, Representation};
pub use detection::Detection;
pub use engine::Detector;
pub use error::FleetError;
pub use fleet::{Fleet, StreamDetection, StreamId, DEFAULT_DRAIN_JOIN_POLLS};
pub use hq::HqIndex;
pub use persist::{load_queries, save_queries, PersistError};
pub use query::{Query, QueryId, QuerySet};
pub use stats::Stats;

/// The name `benchmark/src/sut.rs` imports the fleet under; new code
/// says [`Fleet`].
pub type AnyFleet = Fleet;
