//! Pixel-domain frame representation.
//!
//! The detection pipeline works on the *luma* (Y) plane only: the paper's
//! frame fingerprint is built from block-averaged DC coefficients, which for
//! broadcast content are dominated by luminance. Color/brightness edits in
//! the tamper pipeline are modelled as gain/offset on this plane, which is
//! exactly how they perturb DC coefficients in the real pipeline.

/// A single video frame: a `width × height` luma plane of 8-bit samples,
/// stored row-major.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    data: Vec<u8>,
}

impl Frame {
    /// Create a frame filled with a constant luma value.
    pub fn filled(width: u32, height: u32, value: u8) -> Frame {
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Frame { width, height, data: vec![value; (width * height) as usize] }
    }

    /// Create a frame from raw row-major samples.
    ///
    /// # Panics
    /// Panics if `data.len() != width * height`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Frame {
        assert_eq!(
            data.len(),
            (width as usize) * (height as usize),
            "sample buffer does not match dimensions"
        );
        assert!(width > 0 && height > 0, "frame dimensions must be non-zero");
        Frame { width, height, data }
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Raw row-major luma samples.
    pub fn samples(&self) -> &[u8] {
        &self.data
    }

    /// Sample at `(x, y)`.
    ///
    /// # Panics
    /// Panics if out of bounds.
    pub fn get(&self, x: u32, y: u32) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize]
    }

    /// Set the sample at `(x, y)`.
    pub fn set(&mut self, x: u32, y: u32, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.data[(y * self.width + x) as usize] = v;
    }

    /// One row of samples.
    pub fn row(&self, y: u32) -> &[u8] {
        let start = (y * self.width) as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Mean luma of the whole frame, in `[0, 255]`.
    pub fn mean(&self) -> f64 {
        let sum: u64 = self.data.iter().map(|&v| u64::from(v)).sum();
        sum as f64 / self.data.len() as f64
    }

    /// Mean luma of the rectangle `[x0, x1) × [y0, y1)`.
    ///
    /// Used by tests to cross-check the codec's DC coefficients against the
    /// pixel domain.
    pub fn region_mean(&self, x0: u32, y0: u32, x1: u32, y1: u32) -> f64 {
        assert!(x0 < x1 && y0 < y1 && x1 <= self.width && y1 <= self.height);
        let mut sum = 0u64;
        for y in y0..y1 {
            let row = self.row(y);
            for &v in &row[x0 as usize..x1 as usize] {
                sum += u64::from(v);
            }
        }
        sum as f64 / ((x1 - x0) as u64 * (y1 - y0) as u64) as f64
    }

    /// Bilinear resample to a new resolution.
    ///
    /// This models the "change the resolution" edit of the paper's `VS2`
    /// stream (e.g. NTSC 352×240 → PAL 352×288). Bilinear filtering slightly
    /// perturbs local block averages, which is the behaviour the feature
    /// layer must tolerate.
    pub fn resize(&self, new_width: u32, new_height: u32) -> Frame {
        assert!(new_width > 0 && new_height > 0);
        if new_width == self.width && new_height == self.height {
            return self.clone();
        }
        let mut out = Vec::with_capacity((new_width * new_height) as usize);
        let sx = (self.width as f64) / (new_width as f64);
        let sy = (self.height as f64) / (new_height as f64);
        for y in 0..new_height {
            // Sample at pixel centers to avoid edge bias.
            let fy = ((y as f64 + 0.5) * sy - 0.5).clamp(0.0, (self.height - 1) as f64);
            let y0 = fy.floor() as u32;
            let y1 = (y0 + 1).min(self.height - 1);
            let wy = fy - y0 as f64;
            for x in 0..new_width {
                let fx = ((x as f64 + 0.5) * sx - 0.5).clamp(0.0, (self.width - 1) as f64);
                let x0 = fx.floor() as u32;
                let x1 = (x0 + 1).min(self.width - 1);
                let wx = fx - x0 as f64;
                let p00 = f64::from(self.get(x0, y0));
                let p10 = f64::from(self.get(x1, y0));
                let p01 = f64::from(self.get(x0, y1));
                let p11 = f64::from(self.get(x1, y1));
                let top = p00 + (p10 - p00) * wx;
                let bot = p01 + (p11 - p01) * wx;
                let v = top + (bot - top) * wy;
                out.push(v.round().clamp(0.0, 255.0) as u8);
            }
        }
        Frame::from_raw(new_width, new_height, out)
    }

    /// Extract the rectangle `[x0, x0 + w) × [y0, y0 + h)` as a new frame.
    ///
    /// Models the region-crop family of edits (zoom, letterbox removal):
    /// the attacker keeps a sub-rectangle of the picture and discards the
    /// rest.
    ///
    /// # Panics
    /// Panics if the rectangle is empty or out of bounds.
    pub fn crop(&self, x0: u32, y0: u32, w: u32, h: u32) -> Frame {
        assert!(w > 0 && h > 0, "crop rectangle must be non-empty");
        assert!(
            x0 + w <= self.width && y0 + h <= self.height,
            "crop rectangle out of bounds"
        );
        let mut data = Vec::with_capacity((w * h) as usize);
        for y in y0..y0 + h {
            let row = self.row(y);
            data.extend_from_slice(&row[x0 as usize..(x0 + w) as usize]);
        }
        Frame::from_raw(w, h, data)
    }

    /// Paste `src` into this frame with its top-left corner at `(x0, y0)`,
    /// clipping against this frame's bounds. Used by the letterbox /
    /// pillarbox edit to place downscaled content on a bar-colored canvas.
    pub fn blit(&mut self, src: &Frame, x0: u32, y0: u32) {
        let w = src.width.min(self.width.saturating_sub(x0));
        let h = src.height.min(self.height.saturating_sub(y0));
        for y in 0..h {
            let dst_start = ((y0 + y) * self.width + x0) as usize;
            let src_row = src.row(y);
            self.data[dst_start..dst_start + w as usize]
                .copy_from_slice(&src_row[..w as usize]);
        }
    }

    /// Mean absolute pixel difference between two frames of equal size.
    ///
    /// # Panics
    /// Panics if the frames differ in dimensions.
    pub fn mean_abs_diff(&self, other: &Frame) -> f64 {
        assert_eq!(self.width, other.width);
        assert_eq!(self.height, other.height);
        let sum: u64 = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| u64::from(a.abs_diff(b)))
            .sum();
        sum as f64 / self.data.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gradient(w: u32, h: u32) -> Frame {
        let mut f = Frame::filled(w, h, 0);
        for y in 0..h {
            for x in 0..w {
                f.set(x, y, ((x * 255) / w.max(1)) as u8);
            }
        }
        f
    }

    #[test]
    fn filled_frame_has_uniform_mean() {
        let f = Frame::filled(16, 8, 200);
        assert_eq!(f.mean(), 200.0);
        assert_eq!(f.get(15, 7), 200);
    }

    #[test]
    #[should_panic(expected = "sample buffer")]
    fn from_raw_rejects_bad_length() {
        let _ = Frame::from_raw(4, 4, vec![0; 15]);
    }

    #[test]
    fn region_mean_matches_manual_sum() {
        let f = gradient(32, 32);
        let m = f.region_mean(0, 0, 16, 32);
        let mut sum = 0u64;
        for y in 0..32 {
            for x in 0..16 {
                sum += u64::from(f.get(x, y));
            }
        }
        assert!((m - sum as f64 / (16.0 * 32.0)).abs() < 1e-9);
    }

    #[test]
    fn resize_identity_is_noop() {
        let f = gradient(20, 10);
        assert_eq!(f.resize(20, 10), f);
    }

    #[test]
    fn resize_preserves_global_mean_approximately() {
        let f = gradient(64, 48);
        let small = f.resize(32, 24);
        let back = small.resize(64, 48);
        assert!((f.mean() - small.mean()).abs() < 2.0, "downscale drifted mean");
        assert!((f.mean() - back.mean()).abs() < 2.0, "round trip drifted mean");
    }

    #[test]
    fn resize_constant_frame_is_constant() {
        let f = Frame::filled(17, 13, 99);
        let r = f.resize(40, 23);
        assert!(r.samples().iter().all(|&v| v == 99));
    }

    #[test]
    fn mean_abs_diff_zero_for_identical() {
        let f = gradient(8, 8);
        assert_eq!(f.mean_abs_diff(&f.clone()), 0.0);
    }

    #[test]
    fn mean_abs_diff_counts_offsets() {
        let a = Frame::filled(4, 4, 10);
        let b = Frame::filled(4, 4, 13);
        assert_eq!(a.mean_abs_diff(&b), 3.0);
    }

    #[test]
    fn row_returns_correct_slice() {
        let f = gradient(8, 4);
        assert_eq!(f.row(2).len(), 8);
        assert_eq!(f.row(2)[3], f.get(3, 2));
    }

    #[test]
    fn crop_extracts_expected_rectangle() {
        let f = gradient(16, 8);
        let c = f.crop(4, 2, 6, 3);
        assert_eq!((c.width(), c.height()), (6, 3));
        for y in 0..3 {
            for x in 0..6 {
                assert_eq!(c.get(x, y), f.get(x + 4, y + 2));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn crop_rejects_overflow_rectangle() {
        let _ = gradient(8, 8).crop(4, 4, 8, 8);
    }

    #[test]
    fn blit_pastes_and_clips() {
        let mut canvas = Frame::filled(8, 8, 0);
        let patch = Frame::filled(4, 4, 200);
        canvas.blit(&patch, 2, 3);
        assert_eq!(canvas.get(2, 3), 200);
        assert_eq!(canvas.get(5, 6), 200);
        assert_eq!(canvas.get(1, 3), 0);
        assert_eq!(canvas.get(6, 6), 0);
        // Clipping: a blit at the edge must not panic or wrap.
        canvas.blit(&patch, 6, 6);
        assert_eq!(canvas.get(7, 7), 200);
    }
}
