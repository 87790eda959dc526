//! Stream composition (VS1/VS2) and the shared fingerprinting front-end.
//!
//! The composed stream is produced exactly the way a broadcaster would
//! produce it: background film frames and inserted clip frames are pushed
//! through **one** stream encoder, yielding a single compressed bitstream.
//! Detection methods then consume the bitstream through the partial
//! decoder — including the paper's "processing time including partial
//! decoding" measurements.

use crate::clips::ClipLibrary;
use crate::truth::GtInterval;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vdsms_codec::{DcFrame, Encoder, PartialDecoder};
use vdsms_features::{FeatureConfig, FeatureExtractor};
use vdsms_video::source::{ClipGenerator, SourceSpec};

/// Which evaluation stream to compose.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// Original clips inserted unchanged.
    Vs1,
    /// Tampered clips (edit pipeline + re-compression) inserted.
    Vs2,
    /// Clips put through one attack of the robustness matrix
    /// ([`crate::attacks`]); composed via
    /// [`crate::attacks::compose_attacked_stream`], which knows the
    /// attack, not by [`compose_stream`].
    Attacked,
}

/// A composed, encoded evaluation stream.
#[derive(Debug, Clone)]
pub struct ComposedStream {
    /// Which stream this is.
    pub kind: StreamKind,
    /// The compressed bitstream.
    pub bitstream: Vec<u8>,
    /// Ground-truth insertion intervals, in stream frame indices.
    pub truth: Vec<GtInterval>,
    /// Total frames in the stream.
    pub total_frames: u64,
}

/// The fingerprinted view of a stream: everything any detection method
/// needs, plus the partial-decode cost.
#[derive(Debug, Clone)]
pub struct FingerprintedStream {
    /// `(stream frame index, cell id)` per key frame.
    pub cell_ids: Vec<(u64, u64)>,
    /// `(stream frame index, normalized feature vector)` per key frame —
    /// the baselines' input.
    pub features: Vec<(u64, Vec<f32>)>,
    /// Wall-clock seconds spent partial-decoding and fingerprinting.
    pub decode_seconds: f64,
}

/// Compose an evaluation stream from a clip library.
///
/// The background alternates between `spec.base_films` seeded "films";
/// the first `spec.inserted` clips are planted at random, non-overlapping
/// positions (uniformly spread gaps).
///
/// # Panics
/// Panics on [`StreamKind::Attacked`] — attacked streams carry an attack
/// spec; build them with [`crate::attacks::compose_attacked_stream`].
pub fn compose_stream(library: &ClipLibrary, kind: StreamKind) -> ComposedStream {
    match kind {
        StreamKind::Vs1 => compose_with(library, kind, 0x0051, |id| {
            let clip = library.original(id);
            let len = clip.len() as u64;
            (clip, (0, len))
        }),
        StreamKind::Vs2 => compose_with(library, kind, 0x0052, |id| {
            let clip = library.edited(id);
            let len = clip.len() as u64;
            (clip, (0, len))
        }),
        StreamKind::Attacked => {
            panic!("attacked streams need an attack spec: use attacks::compose_attacked_stream")
        }
    }
}

/// The generic composer behind [`compose_stream`] and
/// [`crate::attacks::compose_attacked_stream`]. `clip_for` supplies the
/// clip inserted for each id plus the span `[start, end)` of the *query
/// content* inside it, in inserted-clip frames — the full clip for
/// VS1/VS2, but a sub-span for time-warping or clip-in-clip attacks.
/// The recorded ground truth covers only that content span.
pub(crate) fn compose_with(
    library: &ClipLibrary,
    kind: StreamKind,
    salt: u64,
    mut clip_for: impl FnMut(u32) -> (vdsms_video::Clip, (u64, u64)),
) -> ComposedStream {
    let spec = library.spec().clone();
    let mut rng = StdRng::seed_from_u64(spec.seed ^ salt);

    // One continuous generator per base film; the background cycles
    // between them (the paper's "5 films as our base video").
    let mut films: Vec<ClipGenerator> = (0..spec.base_films)
        .map(|f| {
            ClipGenerator::new(SourceSpec {
                width: spec.width,
                height: spec.height,
                fps: spec.fps,
                seed: spec.seed ^ (0xf11f_0000 + u64::from(f)),
                min_scene_s: 2.0,
                max_scene_s: 8.0,
                motifs: spec.motifs(),
            })
        })
        .collect();

    // Split the base material into `inserted + 1` gaps with random
    // proportions (each at least one basic-window-ish chunk).
    let n_inserts = spec.inserted;
    let weights: Vec<f64> = (0..=n_inserts).map(|_| rng.gen_range(0.35..1.0)).collect();
    let weight_sum: f64 = weights.iter().sum();
    let gap_seconds: Vec<f64> =
        weights.iter().map(|w| (w / weight_sum) * spec.base_seconds).collect();

    let mut encoder = Encoder::new(spec.width, spec.height, spec.fps, spec.encoder_config());
    let mut truth = Vec::with_capacity(n_inserts);
    let mut frame_count: u64 = 0;

    for (i, gap) in gap_seconds.iter().enumerate() {
        // Background segment from the current film. Pad to the next GOP
        // boundary: broadcast splices happen on key frames (an encoder
        // cannot cut into a GOP without re-encoding it), and this keeps
        // the inserted copy's key frames aligned with the query's.
        let film = &mut films[i % spec.base_films as usize];
        let mut n = spec.fps.frames_in(*gap).max(1);
        let rem = (frame_count + n as u64) % u64::from(spec.gop);
        if rem != 0 {
            n += (u64::from(spec.gop) - rem) as usize;
        }
        for frame in film.by_ref().take(n) {
            encoder.push(&frame);
            frame_count += 1;
        }
        // Insertion (after every gap but the last).
        if i < n_inserts {
            let clip_id = i as u32;
            let (clip, content) = clip_for(clip_id);
            debug_assert!(
                content.0 <= content.1 && content.1 <= clip.len() as u64,
                "content span must lie within the inserted clip"
            );
            let start = frame_count;
            for frame in clip.frames() {
                // Edited clips may differ in resolution (PAL height); the
                // broadcaster letterboxes/rescales back to the stream
                // geometry.
                if frame.width() != spec.width || frame.height() != spec.height {
                    encoder.push(&frame.resize(spec.width, spec.height));
                } else {
                    encoder.push(frame);
                }
                frame_count += 1;
            }
            // Ground truth covers only the query content (an empty span —
            // everything dropped by the attack — plants no truth at all).
            if content.0 < content.1 {
                truth.push(GtInterval {
                    query_id: clip_id,
                    start_frame: start + content.0,
                    end_frame: start + content.1,
                });
            }
        }
    }

    ComposedStream { kind, bitstream: encoder.finish(), truth, total_frames: frame_count }
}

/// Run the compressed-domain front-end over a composed stream: partial
/// decode (I-frame DC only), feature extraction, grid–pyramid
/// fingerprinting. The elapsed time is reported so CPU-cost experiments
/// can include it, as the paper does.
pub fn fingerprint_stream(
    stream: &ComposedStream,
    features: &FeatureConfig,
) -> FingerprintedStream {
    #[expect(
        clippy::disallowed_methods,
        reason = "decode_seconds is a reported measurement, not an input to detection; results stay replay-identical"
    )]
    let started = std::time::Instant::now();
    let extractor = FeatureExtractor::new(*features);
    // vdsms-lint: allow(no-panic-hot-path) reason="the bitstream was composed by this same crate's generator; a parse failure is a workload bug, not an input condition"
    let mut decoder = PartialDecoder::new(&stream.bitstream).expect("stream must parse");
    let mut cell_ids = Vec::new();
    let mut feats = Vec::new();
    // Pooled decode (this consumer also needs the raw feature vectors, so
    // it takes the `_into` decoder directly rather than FingerprintStream).
    let mut frame = DcFrame::empty();
    // vdsms-lint: allow(no-panic-hot-path) reason="decoding a stream this same crate composed; a failure is a workload bug, not an input condition"
    while decoder.next_dc_frame_into(&mut frame).expect("stream must decode") {
        let v = extractor.feature_vector(&frame);
        cell_ids.push((frame.frame_index, extractor.partition().cell_id(&v)));
        feats.push((frame.frame_index, v));
    }
    FingerprintedStream {
        cell_ids,
        features: feats,
        decode_seconds: started.elapsed().as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadSpec;

    fn tiny_library() -> ClipLibrary {
        ClipLibrary::new(WorkloadSpec::tiny(3))
    }

    #[test]
    fn vs1_composition_has_expected_structure() {
        let lib = tiny_library();
        let s = compose_stream(&lib, StreamKind::Vs1);
        assert_eq!(s.truth.len(), 4);
        // Intervals are disjoint and ordered.
        for pair in s.truth.windows(2) {
            assert!(pair[0].end_frame <= pair[1].start_frame);
        }
        // Total length ≈ base + inserted clip durations.
        let clip_frames: u64 = s.truth.iter().map(|t| t.len()).sum();
        let base_frames = lib.spec().fps.frames_in(lib.spec().base_seconds) as u64;
        let expect = base_frames + clip_frames;
        assert!(
            (s.total_frames as i64 - expect as i64).abs() < 30,
            "{} vs {expect}",
            s.total_frames
        );
    }

    #[test]
    fn composition_is_deterministic() {
        let lib = tiny_library();
        let a = compose_stream(&lib, StreamKind::Vs1);
        let b = compose_stream(&lib, StreamKind::Vs1);
        assert_eq!(a.bitstream, b.bitstream);
        assert_eq!(a.truth, b.truth);
    }

    #[test]
    fn vs1_and_vs2_differ() {
        let lib = tiny_library();
        let a = compose_stream(&lib, StreamKind::Vs1);
        let b = compose_stream(&lib, StreamKind::Vs2);
        assert_ne!(a.bitstream, b.bitstream);
        // VS2's PAL-resampled inserts have different lengths.
        assert_ne!(a.truth, b.truth);
    }

    #[test]
    fn fingerprinting_covers_all_key_frames() {
        let lib = tiny_library();
        let s = compose_stream(&lib, StreamKind::Vs1);
        let f = fingerprint_stream(&s, &FeatureConfig::default());
        let expect = s.total_frames.div_ceil(u64::from(lib.spec().gop));
        assert_eq!(f.cell_ids.len() as u64, expect);
        assert_eq!(f.features.len(), f.cell_ids.len());
        assert!(f.decode_seconds > 0.0);
        // Frame indices are strictly increasing multiples of the GOP.
        for pair in f.cell_ids.windows(2) {
            assert!(pair[0].0 < pair[1].0);
            assert_eq!(pair[0].0 % u64::from(lib.spec().gop), 0);
        }
    }

    #[test]
    fn planted_region_fingerprints_match_query() {
        // The stream's key frames inside a VS1 insertion must mostly map
        // to the same cells as the standalone query clip.
        let lib = tiny_library();
        let s = compose_stream(&lib, StreamKind::Vs1);
        let f = fingerprint_stream(&s, &FeatureConfig::default());
        let gt = s.truth[0];
        let in_region: Vec<u64> = f
            .cell_ids
            .iter()
            .filter(|(fr, _)| *fr >= gt.start_frame && *fr < gt.end_frame)
            .map(|&(_, id)| id)
            .collect();
        let query: std::collections::HashSet<u64> = lib
            .query_fingerprints(gt.query_id, &FeatureConfig::default())
            .into_iter()
            .collect();
        let hits = in_region.iter().filter(|id| query.contains(id)).count();
        assert!(
            hits * 10 >= in_region.len() * 6,
            "only {hits}/{} in-region key frames match the query set",
            in_region.len()
        );
    }
}
