//! Grid–pyramid feature-space partition (paper Section III-A, Fig. 1).
//!
//! The `d`-dimensional unit cube is split into `u^d` grid cells; each grid
//! cell is split into `2d` pyramid cells by the Berchtold pyramid technique
//! applied locally (apex at the cell centre). A feature's single-value
//! fingerprint is `id = 2d · O_g + O_p` where `O_g` is the mixed-radix grid
//! order and `O_p ∈ [0, 2d)` the pyramid order.

use crate::CellId;

/// Min–max normalize a feature vector to `[0, 1]` (paper Eq. 1).
///
/// If all components are equal the vector is mapped to all-0.5 (any
/// constant is equivalent after normalization; 0.5 keeps the point in the
/// middle of the space rather than on a partition boundary).
pub fn normalize(values: &[f32]) -> Vec<f32> {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    let range = max - min;
    // NaN-safe: a non-positive or NaN range means no usable spread.
    if range <= 0.0 || range.is_nan() {
        return vec![0.5; values.len()];
    }
    values.iter().map(|&v| (v - min) / range).collect()
}

/// In-place, allocation-free variant of [`normalize`]; bit-identical
/// output (same reduction order, same `(v − min) / range` mapping).
pub fn normalize_in_place(values: &mut [f32]) {
    let mut min = f32::INFINITY;
    let mut max = f32::NEG_INFINITY;
    for &v in values.iter() {
        min = min.min(v);
        max = max.max(v);
    }
    let range = max - min;
    // NaN-safe: a non-positive or NaN range means no usable spread.
    if range <= 0.0 || range.is_nan() {
        for v in values.iter_mut() {
            *v = 0.5;
        }
        return;
    }
    for v in values.iter_mut() {
        *v = (*v - min) / range;
    }
}

/// The grid–pyramid partitioner for a fixed `(d, u)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPyramid {
    d: usize,
    u: u32,
}

impl GridPyramid {
    /// Create a partitioner for `d` dimensions and `u` grid slices per
    /// dimension.
    ///
    /// # Panics
    /// Panics if `d == 0`, `u == 0`, or the total cell count `2·d·u^d`
    /// overflows `u64`.
    pub fn new(d: usize, u: u32) -> GridPyramid {
        assert!(d >= 1, "d must be >= 1");
        assert!(u >= 1, "u must be >= 1");
        // On u128 overflow, saturate past the u64 bound so the assert
        // below reports the failure (`assert!` is the sanctioned
        // construction-time check under the panic-freedom lint).
        let cells = (u as u128)
            .checked_pow(d as u32)
            .and_then(|g| g.checked_mul(2 * d as u128))
            .unwrap_or(u128::MAX);
        assert!(cells <= u64::MAX as u128, "cell count exceeds u64");
        GridPyramid { d, u }
    }

    /// Number of dimensions.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Grid slices per dimension.
    pub fn u(&self) -> u32 {
        self.u
    }

    /// Total number of cells, `2·d·u^d`.
    pub fn num_cells(&self) -> u64 {
        2 * self.d as u64 * (self.u as u64).pow(self.d as u32)
    }

    /// Grid coordinate of a component value in `[0, 1]` (values at 1.0 are
    /// clamped into the last slice).
    fn grid_coord(&self, v: f32) -> u32 {
        let g = (v.clamp(0.0, 1.0) * self.u as f32) as u32;
        g.min(self.u - 1)
    }

    /// Mixed-radix grid order `O_g ∈ [0, u^d)` of a feature vector.
    ///
    /// # Panics
    /// Panics if `f.len() != d`.
    pub fn grid_order(&self, f: &[f32]) -> u64 {
        assert_eq!(f.len(), self.d, "feature dimensionality mismatch");
        let mut id: u64 = 0;
        for &v in f {
            id = id * u64::from(self.u) + u64::from(self.grid_coord(v));
        }
        id
    }

    /// Pyramid order `O_p ∈ [0, 2d)` of a feature vector *within its grid
    /// cell*: `j_max = argmax_j |V_j − C_j|` (ties broken toward the lowest
    /// `j`), `O_p = j_max` if `V_{j_max} < C_{j_max}` else `j_max + d`,
    /// where `C` is the grid-cell centre.
    pub fn pyramid_order(&self, f: &[f32]) -> u64 {
        assert_eq!(f.len(), self.d, "feature dimensionality mismatch");
        let mut j_max = 0usize;
        let mut best = f32::NEG_INFINITY;
        let mut below = false;
        for (j, &v) in f.iter().enumerate() {
            let centre = (self.grid_coord(v) as f32 + 0.5) / self.u as f32;
            let dist = (v - centre).abs();
            if dist > best {
                best = dist;
                j_max = j;
                below = v < centre;
            }
        }
        if below {
            j_max as u64
        } else {
            j_max as u64 + self.d as u64
        }
    }

    /// The paper's combined cell id, `2d · O_g + O_p`.
    pub fn cell_id(&self, f: &[f32]) -> CellId {
        2 * self.d as u64 * self.grid_order(f) + self.pyramid_order(f)
    }

    /// Grid-only id (ablation: the paper argues pure grid partitioning
    /// yields more false negatives under coefficient jitter).
    pub fn grid_only_id(&self, f: &[f32]) -> CellId {
        self.grid_order(f)
    }

    /// Pyramid-only id over the whole space (ablation: only `2d` cells, so
    /// far too many false positives).
    pub fn pyramid_only_id(&self, f: &[f32]) -> CellId {
        assert_eq!(f.len(), self.d, "feature dimensionality mismatch");
        let mut j_max = 0usize;
        let mut best = f32::NEG_INFINITY;
        let mut below = false;
        for (j, &v) in f.iter().enumerate() {
            let dist = (v - 0.5).abs();
            if dist > best {
                best = dist;
                j_max = j;
                below = v < 0.5;
            }
        }
        if below {
            j_max as u64
        } else {
            j_max as u64 + self.d as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_maps_to_unit_range() {
        let n = normalize(&[10.0, 20.0, 15.0, 30.0]);
        assert_eq!(n[0], 0.0);
        assert_eq!(n[3], 1.0);
        assert!((n[1] - 0.5).abs() < 1e-6);
    }

    #[test]
    fn normalize_is_invariant_to_gain_and_offset() {
        let a = normalize(&[10.0, 20.0, 15.0, 30.0]);
        let b = normalize(&[10.0 * 1.4 + 7.0, 20.0 * 1.4 + 7.0, 15.0 * 1.4 + 7.0, 30.0 * 1.4 + 7.0]);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-5, "normalization must cancel affine edits");
        }
    }

    #[test]
    fn normalize_constant_vector_is_neutral() {
        assert_eq!(normalize(&[3.0, 3.0, 3.0]), vec![0.5, 0.5, 0.5]);
    }

    #[test]
    fn cell_count_matches_formula() {
        let p = GridPyramid::new(5, 4);
        assert_eq!(p.num_cells(), 2 * 5 * 4u64.pow(5));
    }

    #[test]
    fn cell_ids_are_in_range_and_cover_grid_and_pyramid() {
        let p = GridPyramid::new(3, 4);
        let n = p.num_cells();
        let mut seen = std::collections::BTreeSet::new();
        // Scan a lattice of points; ids must be in range.
        let steps = 17;
        for i in 0..steps {
            for j in 0..steps {
                for k in 0..steps {
                    let f = [
                        i as f32 / (steps - 1) as f32,
                        j as f32 / (steps - 1) as f32,
                        k as f32 / (steps - 1) as f32,
                    ];
                    let id = p.cell_id(&f);
                    assert!(id < n, "cell id {id} out of range {n}");
                    seen.insert(id);
                }
            }
        }
        // A dense scan should touch a decent fraction of the cells.
        assert!(seen.len() as u64 > n / 4, "only {} of {} cells hit", seen.len(), n);
    }

    #[test]
    fn id_decomposes_into_grid_and_pyramid_parts() {
        let p = GridPyramid::new(5, 4);
        let f = [0.1f32, 0.9, 0.4, 0.6, 0.3];
        let id = p.cell_id(&f);
        assert_eq!(id / (2 * 5), p.grid_order(&f));
        assert_eq!(id % (2 * 5), p.pyramid_order(&f));
    }

    #[test]
    fn pyramid_order_identifies_dominant_dimension() {
        let p = GridPyramid::new(3, 1); // single grid cell, centre (0.5,0.5,0.5)
        // Dimension 1 deviates the most, below the centre -> O_p = 1.
        assert_eq!(p.pyramid_order(&[0.45, 0.1, 0.55]), 1);
        // Dimension 1 deviates the most, above the centre -> O_p = 1 + d = 4.
        assert_eq!(p.pyramid_order(&[0.45, 0.9, 0.55]), 4);
    }

    #[test]
    fn pyramid_is_robust_to_small_jitter_in_nondominant_dims() {
        // The paper's robustness argument: jitter that does not change the
        // argmax dimension does not change the pyramid order.
        let p = GridPyramid::new(5, 1);
        let base = [0.5f32, 0.95, 0.5, 0.5, 0.5];
        let jittered = [0.53f32, 0.95, 0.46, 0.52, 0.49];
        assert_eq!(p.pyramid_order(&base), p.pyramid_order(&jittered));
    }

    #[test]
    fn grid_partition_is_sensitive_where_pyramid_is_not() {
        // A point near a grid boundary flips its grid cell under tiny
        // jitter — the false-negative source the pyramid mitigates.
        let p = GridPyramid::new(2, 4);
        let a = [0.2499f32, 0.9];
        let b = [0.2501f32, 0.9];
        assert_ne!(p.grid_order(&a), p.grid_order(&b));
    }

    #[test]
    fn boundary_values_are_clamped() {
        let p = GridPyramid::new(2, 4);
        let id = p.cell_id(&[1.0, 0.0]);
        assert!(id < p.num_cells());
        let id2 = p.cell_id(&[1.5, -0.5]); // out-of-range input clamps
        assert!(id2 < p.num_cells());
    }

    #[test]
    fn distinct_regions_get_distinct_ids() {
        let p = GridPyramid::new(5, 4);
        let a = p.cell_id(&[0.1, 0.1, 0.1, 0.1, 0.1]);
        let b = p.cell_id(&[0.9, 0.9, 0.9, 0.9, 0.9]);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dim_panics() {
        let p = GridPyramid::new(3, 4);
        let _ = p.cell_id(&[0.5, 0.5]);
    }

    #[test]
    fn supported_parameter_ranges_construct() {
        // The paper sweeps u in [2,7] and d in [3,7] (Table II).
        for d in 3..=7 {
            for u in 2..=7 {
                let p = GridPyramid::new(d, u);
                assert!(p.num_cells() > 0);
            }
        }
    }
}
