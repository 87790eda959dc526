//! The system under test, as the benchmark sees it.
//!
//! Every name the benchmark takes from the repository is listed here and
//! nowhere else, so the surface a later change must keep (or change in
//! this one file) is one screen long. The benchmark times calls to these
//! items from outside; it reaches into no crate.

use std::path::Path;
use std::process::{Command, Stdio};

// codec: partial decode of key frames, and the encoder the input
// generator writes bitstreams with.
pub use vdsms_codec::{DcFrame, Encoder, EncoderConfig, PartialDecoder};
// features: DC frame -> cell id, alone and fused with the decoder.
pub use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
// sketch: the min-hash family and the per-window fold the detector does.
pub use vdsms_sketch::{HashColumnCache, MinHashFamily, Sketch};
// core: index, detector, fleet, counters.
pub use vdsms_core::hq::{ProbeHit, ProbeScratch};
pub use vdsms_core::{
    AnyFleet, Detector, DetectorConfig, HqIndex, Query, QuerySet, Stats, StreamDetection, StreamId,
};
// serve: chunk reassembly, wire framing, the client library.
pub use vdsms_serve::client::DetectionEvent;
pub use vdsms_serve::protocol::{encode_request, parse_request, Request, LEN_PREFIX};
pub use vdsms_serve::{ChunkedIngest, Client};
// video: the synthetic source the input generator draws clips from.
pub use vdsms_video::source::{ClipGenerator, SourceSpec};
pub use vdsms_video::{Clip, Fps};
// Not under test: the repository's JSON reader/writer.
pub use vdsms_json::Json;

/// Key frames per basic window in every workload.
pub const WINDOW_KEYFRAMES: usize = 8;
/// Ways of the detector's hash-column cache (`HASH_CACHE_WAYS` in
/// `vdsms_core::engine`, which is private); the standalone fold mirrors it.
pub const HASH_CACHE_WAYS: usize = 64;
/// Frames per second of every generated clip.
pub const FPS: u32 = 10;
/// One key frame every `GOP` frames.
pub const GOP: u32 = 5;

/// The detector configuration common to all workloads: the defaults
/// (K = 800, delta = 0.7, Sequential, Bit, index on, pruning on) with
/// 8-key-frame windows.
pub fn detector_config(shards: usize) -> DetectorConfig {
    DetectorConfig { window_keyframes: WINDOW_KEYFRAMES, shards, ..DetectorConfig::default() }
}

/// The front end every workload and the daemon fingerprint with.
pub fn extractor() -> FeatureExtractor {
    FeatureExtractor::new(FeatureConfig::default())
}

/// 176x120 at 10 fps with 2-6 s scenes: the `BENCH_ingest.json` shape.
pub fn source_spec(seed: u64) -> SourceSpec {
    SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(FPS),
        seed,
        min_scene_s: 2.0,
        max_scene_s: 6.0,
        motifs: None,
    }
}

/// Encode a clip as the workloads' bitstream: gop 5, quality 80.
pub fn encode(clip: &Clip) -> Vec<u8> {
    Encoder::encode_clip(clip, EncoderConfig { gop: GOP, quality: 80, motion_search: true })
}

/// The reassembly state the daemon keeps per attached stream
/// (`ServeConfig::default()`: recovery on, 4 MiB buffer cap).
pub fn chunked_ingest() -> ChunkedIngest {
    ChunkedIngest::new(extractor(), true, 4 << 20)
}

/// `vdsms serve` listening on a unix socket with the workloads' window.
pub fn daemon_command(binary: &Path, socket: &Path) -> Command {
    let mut cmd = Command::new(binary);
    cmd.arg("serve")
        .arg("--listen")
        .arg(format!("unix:{}", socket.display()))
        .arg("--window-keyframes")
        .arg(WINDOW_KEYFRAMES.to_string())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    cmd
}
