//! # vdsms-bench — the paper's evaluation, regenerated
//!
//! One module per table/figure of Section VI (see `DESIGN.md` for the
//! experiment index), a shared [`context::Ctx`] that builds and caches the
//! synthetic workload, and plain-text/markdown table output. The
//! `experiments` binary drives everything:
//!
//! ```text
//! cargo run --release -p vdsms-bench --bin experiments -- all
//! cargo run --release -p vdsms-bench --bin experiments -- fig6 --scale quick
//! ```

#![forbid(unsafe_code)]

pub mod context;
pub mod exps;
pub mod table;

pub use context::{Ctx, Scale};
pub use table::Table;

/// The experiments' one clock read, behind the setup and engine seconds
/// they report; no detection result depends on it.
#[expect(
    clippy::disallowed_methods,
    reason = "the experiments report wall-clock cost by design"
)]
pub fn now() -> std::time::Instant {
    std::time::Instant::now()
}
