//! # vdsms — continuous content-based copy detection over streaming videos
//!
//! A from-scratch Rust implementation of Yan, Ooi & Zhou, *Continuous
//! Content-Based Copy Detection over Streaming Videos* (ICDE 2008): a
//! Video Data Stream Management System that continuously monitors many
//! query videos against broadcast video streams and reports content-based
//! copies — robust to re-encoding, brightness/color edits, resolution and
//! frame-rate changes, and **temporal re-ordering**.
//!
//! ## Architecture
//!
//! ```text
//!   bitstream ──► vdsms-codec ──► DC coefficients of key frames
//!                                 (partial decode, no IDCT)
//!                      │
//!                      ▼
//!             vdsms-features ──► cell id per key frame
//!             (Eq. 1 normalization + grid–pyramid partition)
//!                      │
//!                      ▼
//!               vdsms-sketch ──► K-min-hash sketch per basic window
//!                      │
//!                      ▼
//!                 vdsms-core ──► detections
//!        (bit signatures ∘ Lemma-2 pruning ∘ HQ query index,
//!         Sequential/Geometric candidate maintenance)
//! ```
//!
//! The supporting crates `vdsms-video` (synthetic content + tamper
//! pipeline), `vdsms-workload` (the paper's VS1/VS2 evaluation streams)
//! and `vdsms-baselines` (the Seq/Warp comparison methods) complete the
//! reproduction; `vdsms-bench` regenerates every table and figure.
//!
//! ## Quickstart
//!
//! The [`Monitor`] type wires the whole pipeline together:
//!
//! ```
//! use vdsms::{Monitor, MonitorBuilder};
//! use vdsms::video::source::{ClipGenerator, SourceSpec};
//! use vdsms::video::Fps;
//! use vdsms::codec::{Encoder, EncoderConfig};
//!
//! // A clip we want to monitor for (in reality: an ad, a film sample...).
//! let spec = SourceSpec {
//!     width: 96, height: 64, fps: Fps::integer(10), seed: 7,
//!     min_scene_s: 1.0, max_scene_s: 3.0, motifs: None,
//! };
//! let clip = ClipGenerator::new(spec.clone()).clip(10.0);
//!
//! // Subscribe it, then feed a broadcast stream that contains it.
//! // (Window sizes are in key frames: gop 5 at 10 fps = 2 key frames/s,
//! // so 4 key frames = a 2-second basic window.)
//! let enc = EncoderConfig { gop: 5, quality: 80, motion_search: true };
//! let mut monitor = MonitorBuilder::new()
//!     .detector(vdsms::DetectorConfig { window_keyframes: 4, ..Default::default() })
//!     .query_encoder(enc)
//!     .build();
//! monitor.subscribe_clip(42, &clip);
//!
//! let mut broadcast = ClipGenerator::new(SourceSpec { seed: 9, ..spec }).clip(20.0);
//! broadcast.append(clip.clone());
//! let bitstream = Encoder::encode_clip(&broadcast, enc);
//!
//! let detections = monitor.watch_bitstream(&bitstream).unwrap();
//! assert!(detections.iter().any(|d| d.query_id == 42));
//! ```

#![forbid(unsafe_code)]

pub use vdsms_baselines as baselines;
pub use vdsms_codec as codec;
pub use vdsms_core as core;
pub use vdsms_features as features;
pub use vdsms_serve as serve;
pub use vdsms_sketch as sketch;
pub use vdsms_video as video;
pub use vdsms_workload as workload;

pub use vdsms_core::{Detection, Detector, DetectorConfig, Order, Query, QueryId, Representation};
pub use vdsms_features::FeatureConfig;

use vdsms_codec::{CodecError, DcFrame, Encoder, EncoderConfig, PartialDecoder};
use vdsms_core::QuerySet;
use vdsms_features::{FeatureExtractor, FingerprintScratch};
use vdsms_video::Clip;

/// Builder for a [`Monitor`].
#[derive(Debug, Clone, Default)]
pub struct MonitorBuilder {
    features: FeatureConfig,
    detector: DetectorConfig,
    query_encoder: EncoderConfig,
}

impl MonitorBuilder {
    /// Defaults: the paper's Table I parameters.
    pub fn new() -> MonitorBuilder {
        MonitorBuilder::default()
    }

    /// Override the feature-extraction configuration.
    pub fn features(mut self, fc: FeatureConfig) -> MonitorBuilder {
        self.features = fc;
        self
    }

    /// Override the detector configuration.
    pub fn detector(mut self, cfg: DetectorConfig) -> MonitorBuilder {
        self.detector = cfg;
        self
    }

    /// Override the encoder settings used to fingerprint query clips.
    pub fn query_encoder(mut self, cfg: EncoderConfig) -> MonitorBuilder {
        self.query_encoder = cfg;
        self
    }

    /// Build the monitor.
    pub fn build(self) -> Monitor {
        self.detector.validate();
        let extractor = FeatureExtractor::new(self.features);
        let scratch = extractor.scratch();
        Monitor {
            extractor,
            detector: Detector::new(self.detector, QuerySet::new()),
            query_encoder: self.query_encoder,
            frame: DcFrame::empty(),
            scratch,
        }
    }
}

/// End-to-end copy monitor: subscribe query clips, feed compressed video,
/// collect detections.
pub struct Monitor {
    extractor: FeatureExtractor,
    detector: Detector,
    query_encoder: EncoderConfig,
    /// Pooled DC buffer for the fused ingestion loop — reused across every
    /// key frame of every [`Self::watch_bitstream`] call.
    frame: DcFrame,
    /// Pooled fingerprint scratch (region plan + feature buffers).
    scratch: FingerprintScratch,
}

impl Monitor {
    /// Subscribe a query given as pixel frames (it is encoded and
    /// fingerprinted through the same compressed-domain pipeline the
    /// stream goes through).
    ///
    /// # Panics
    /// Panics on duplicate ids.
    pub fn subscribe_clip(&mut self, id: QueryId, clip: &Clip) {
        let bytes = Encoder::encode_clip(clip, self.query_encoder);
        let dcs = PartialDecoder::new(&bytes)
            .expect("own encoding must parse")
            .decode_all()
            .expect("own encoding must decode");
        self.subscribe_dc_frames(id, &dcs);
    }

    /// Subscribe a query given as already-decoded DC frames.
    pub fn subscribe_dc_frames(&mut self, id: QueryId, dcs: &[DcFrame]) {
        let cells = self.extractor.fingerprint_sequence(dcs);
        let query = self.detector.make_query(id, &cells);
        self.detector.subscribe(query);
    }

    /// Unsubscribe a query. Returns `false` if it was not subscribed.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        self.detector.unsubscribe(id)
    }

    /// Feed one key frame's DC coefficients (streaming interface).
    /// Fingerprinting goes through the monitor's pooled scratch, so
    /// steady-state pushes allocate only for detection events.
    pub fn push_dc_frame(&mut self, dc: &DcFrame) -> Vec<Detection> {
        let cell = self.extractor.fingerprint_into(&mut self.scratch, dc);
        self.detector.push_keyframe(dc.frame_index, cell)
    }

    /// Process a whole compressed bitstream through the fused
    /// decode→feature→fingerprint pipeline (partial decoding only, pooled
    /// buffers, zero steady-state allocations per key frame) and return
    /// every detection. The final partial window is flushed.
    pub fn watch_bitstream(&mut self, bytes: &[u8]) -> Result<Vec<Detection>, CodecError> {
        let mut decoder = PartialDecoder::new(bytes)?;
        let mut out = Vec::new();
        // Inlined rather than calling `push_dc_frame`: the pooled frame
        // lives in `self`, and splitting the borrows keeps the loop free
        // of a per-frame `DcFrame` move or clone.
        while decoder.next_dc_frame_into(&mut self.frame)? {
            let cell = self.extractor.fingerprint_into(&mut self.scratch, &self.frame);
            out.extend(self.detector.push_keyframe(self.frame.frame_index, cell));
        }
        out.extend(self.detector.finish());
        Ok(out)
    }

    /// Flush the final partial window (streaming interface).
    pub fn finish(&mut self) -> Vec<Detection> {
        self.detector.finish()
    }

    /// Engine statistics.
    pub fn stats(&self) -> &vdsms_core::Stats {
        self.detector.stats()
    }

    /// Number of subscribed queries.
    pub fn query_count(&self) -> usize {
        self.detector.query_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdsms_video::source::{ClipGenerator, SourceSpec};
    use vdsms_video::Fps;

    fn spec(seed: u64) -> SourceSpec {
        SourceSpec {
            width: 96,
            height: 64,
            fps: Fps::integer(10),
            seed,
            min_scene_s: 1.0,
            max_scene_s: 3.0,
            motifs: None,
        }
    }

    fn test_monitor() -> Monitor {
        // gop 5 at 10 fps = 2 key frames/s; a 4-key-frame window = 2 s.
        MonitorBuilder::new()
            .detector(DetectorConfig { window_keyframes: 4, ..Default::default() })
            .query_encoder(EncoderConfig { gop: 5, quality: 80, motion_search: true })
            .build()
    }

    fn test_encode(clip: &Clip) -> Vec<u8> {
        Encoder::encode_clip(clip, EncoderConfig { gop: 5, quality: 80, motion_search: true })
    }

    #[test]
    fn monitor_detects_planted_clip() {
        let clip = ClipGenerator::new(spec(7)).clip(10.0);
        let mut monitor = test_monitor();
        monitor.subscribe_clip(42, &clip);
        assert_eq!(monitor.query_count(), 1);

        let mut broadcast = ClipGenerator::new(spec(9)).clip(20.0);
        broadcast.append(clip);
        let bytes = test_encode(&broadcast);
        let dets = monitor.watch_bitstream(&bytes).unwrap();
        assert!(dets.iter().any(|d| d.query_id == 42), "{dets:?}");
    }

    #[test]
    fn monitor_is_quiet_on_clean_stream() {
        let clip = ClipGenerator::new(spec(7)).clip(10.0);
        let mut monitor = test_monitor();
        monitor.subscribe_clip(42, &clip);
        let broadcast = ClipGenerator::new(spec(11)).clip(30.0);
        let bytes = test_encode(&broadcast);
        let dets = monitor.watch_bitstream(&bytes).unwrap();
        assert!(dets.is_empty(), "{dets:?}");
    }

    #[test]
    fn monitor_rejects_garbage_stream() {
        let mut monitor = MonitorBuilder::new().build();
        assert!(monitor.watch_bitstream(b"garbage").is_err());
    }

    #[test]
    fn unsubscribe_stops_detection() {
        let clip = ClipGenerator::new(spec(7)).clip(10.0);
        let mut monitor = test_monitor();
        monitor.subscribe_clip(1, &clip);
        assert!(monitor.unsubscribe(1));
        assert!(!monitor.unsubscribe(1));
        let mut broadcast = ClipGenerator::new(spec(9)).clip(10.0);
        broadcast.append(clip);
        let bytes = test_encode(&broadcast);
        assert!(monitor.watch_bitstream(&bytes).unwrap().is_empty());
    }
}
