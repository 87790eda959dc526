//! # vdsms-features — frame fingerprints from the compressed domain
//!
//! Section III-A of the paper, both phases:
//!
//! 1. **Feature extraction** — each key frame's per-block DC coefficients
//!    (from `vdsms-codec`'s partial decoder) are averaged over `D` equal
//!    spatial regions, min–max normalized to `[0, 1]` (the paper's Eq. 1 —
//!    this removes brightness/contrast edits), and `d` of the `D` values
//!    are selected.
//! 2. **Dimensionality reduction** — the `d`-dimensional feature is mapped
//!    to a single *cell id* via the paper's grid–pyramid partition
//!    (Fig. 1): each dimension is cut into `u` grid slices, and each grid
//!    cell is further split into `2d` pyramid cells, giving `2·d·u^d` cells
//!    and `id = 2d·O_g(f) + O_p(f)`.
//!
//! The pyramid component is the robustness mechanism: a small coefficient
//! perturbation only changes the id if it changes `argmax_j |V_j − C_j|`,
//! which happens with probability ≈ k/D for k rank flips (paper's
//! analysis), whereas a pure grid id flips whenever *any* dimension crosses
//! a slice boundary.

#![forbid(unsafe_code)]

pub mod extract;
pub mod ingest;
pub mod partition;

pub use extract::{
    region_averages, select_dims, select_dims_into, FeatureConfig, FeatureExtractor,
    FingerprintScratch, PlanCache, RegionPlan,
};
pub use ingest::{FingerprintStream, FrontEnd, Segment};
pub use partition::{normalize, normalize_in_place, GridPyramid};

/// A frame fingerprint: the cell id of the frame's feature vector.
pub type CellId = u64;
