//! A clip: an in-memory sequence of frames with a frame rate.
//!
//! Clips are the unit the workload generator manipulates: short videos are
//! generated as clips, edited as clips, and finally concatenated into the
//! long evaluation stream before encoding.

use crate::{Fps, Frame};

/// An in-memory frame sequence at a fixed frame rate.
#[derive(Debug, Clone)]
pub struct Clip {
    frames: Vec<Frame>,
    fps: Fps,
}

impl Clip {
    /// Create a clip from frames.
    ///
    /// # Panics
    /// Panics if `frames` is empty or the frames do not all share one
    /// resolution.
    pub fn new(frames: Vec<Frame>, fps: Fps) -> Clip {
        assert!(!frames.is_empty(), "a clip must contain at least one frame");
        let (w, h) = (frames[0].width(), frames[0].height());
        assert!(
            frames.iter().all(|f| f.width() == w && f.height() == h),
            "all frames in a clip must share one resolution"
        );
        Clip { frames, fps }
    }

    /// The clip's frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the clip has zero frames (never true for a valid clip).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Frame rate.
    pub fn fps(&self) -> Fps {
        self.fps
    }

    /// Duration in seconds.
    pub fn duration(&self) -> f64 {
        self.fps.seconds_of(self.frames.len())
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.frames[0].width()
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.frames[0].height()
    }

    /// Reinterpret the clip's frames on a new timeline (same frames,
    /// different nominal rate). This is what happens when a broadcaster
    /// airs a frame-rate-converted copy inside its own constant-rate
    /// stream: the frames play at the stream's rate, tempo-scaling the
    /// content — the distortion the engine's λ bound exists for.
    pub fn retimed(&self, fps: Fps) -> Clip {
        Clip { frames: self.frames.clone(), fps }
    }

    /// Append another clip's frames (must match resolution and fps).
    pub fn append(&mut self, mut other: Clip) {
        assert_eq!(self.fps, other.fps, "fps mismatch on append");
        assert_eq!(self.width(), other.width(), "width mismatch on append");
        assert_eq!(self.height(), other.height(), "height mismatch on append");
        self.frames.append(&mut other.frames);
    }

    /// Extract the sub-clip `[start, start + len)`.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or empty.
    pub fn slice(&self, start: usize, len: usize) -> Clip {
        assert!(len > 0 && start + len <= self.frames.len(), "slice out of bounds");
        Clip { frames: self.frames[start..start + len].to_vec(), fps: self.fps }
    }

    /// Split the clip into `n` segments of near-equal length, returned in
    /// order. Used by the segment re-ordering tamper edit.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > len()`.
    pub fn split_segments(&self, n: usize) -> Vec<Clip> {
        assert!(n > 0 && n <= self.frames.len(), "cannot split {} frames into {n}", self.len());
        let mut out = Vec::with_capacity(n);
        let base = self.frames.len() / n;
        let extra = self.frames.len() % n;
        let mut start = 0;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            out.push(self.slice(start, len));
            start += len;
        }
        out
    }

    /// Concatenate segments back into one clip (inverse of
    /// [`Clip::split_segments`] when applied in order).
    ///
    /// # Panics
    /// Panics if `segments` is empty or inconsistent.
    pub fn concat(segments: Vec<Clip>) -> Clip {
        let mut iter = segments.into_iter();
        let mut first = iter.next().expect("concat of zero segments");
        for seg in iter {
            first.append(seg);
        }
        first
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clip_of(n: usize) -> Clip {
        let frames = (0..n).map(|i| Frame::filled(8, 8, i as u8)).collect();
        Clip::new(frames, Fps::integer(10))
    }

    #[test]
    fn duration_uses_fps() {
        let c = clip_of(25);
        assert!((c.duration() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn slice_extracts_expected_frames() {
        let c = clip_of(10);
        let s = c.slice(3, 4);
        assert_eq!(s.len(), 4);
        assert_eq!(s.frames()[0].get(0, 0), 3);
        assert_eq!(s.frames()[3].get(0, 0), 6);
    }

    #[test]
    fn split_segments_covers_all_frames_in_order() {
        let c = clip_of(11);
        let segs = c.split_segments(4);
        assert_eq!(segs.len(), 4);
        let lens: Vec<usize> = segs.iter().map(Clip::len).collect();
        assert_eq!(lens.iter().sum::<usize>(), 11);
        // Near-equal: lengths differ by at most one.
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
        let rejoined = Clip::concat(segs);
        assert_eq!(rejoined.frames(), c.frames());
    }

    #[test]
    fn append_concatenates() {
        let mut a = clip_of(3);
        a.append(clip_of(2));
        assert_eq!(a.len(), 5);
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn empty_clip_rejected() {
        let _ = Clip::new(vec![], Fps::integer(10));
    }

    #[test]
    #[should_panic(expected = "one resolution")]
    fn mixed_resolution_rejected() {
        let _ = Clip::new(vec![Frame::filled(8, 8, 0), Frame::filled(4, 4, 0)], Fps::integer(10));
    }
}
