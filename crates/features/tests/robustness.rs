//! End-to-end fingerprint robustness: the property Table II measures.
//!
//! For each tamper operation of the paper's VS2 suite, the cell-id *set*
//! of an edited clip must stay close (Jaccard) to the original's — and
//! for unrelated clips it must stay far. These are the invariants all
//! detection quality rests on.

use std::collections::BTreeSet;
use vdsms_codec::{Encoder, EncoderConfig, PartialDecoder};
use vdsms_features::{FeatureConfig, FeatureExtractor};
use vdsms_video::source::{ClipGenerator, SourceSpec};
use vdsms_video::{Clip, Edit, EditPipeline, Fps};

fn clip(seed: u64, secs: f64) -> Clip {
    let spec = SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(10),
        seed,
        min_scene_s: 2.0,
        max_scene_s: 6.0,
        motifs: None,
    };
    ClipGenerator::new(spec).clip(secs)
}

fn ids(c: &Clip, quality: u8) -> BTreeSet<u64> {
    let bytes = Encoder::encode_clip(c, EncoderConfig { gop: 5, quality, motion_search: true });
    let dcs = PartialDecoder::new(&bytes).unwrap().decode_all().unwrap();
    FeatureExtractor::new(FeatureConfig::default())
        .fingerprint_sequence(&dcs)
        .into_iter()
        .collect()
}

fn jaccard(a: &BTreeSet<u64>, b: &BTreeSet<u64>) -> f64 {
    let i = a.intersection(b).count();
    i as f64 / (a.len() + b.len() - i) as f64
}

/// Average Jaccard between originals and their edited copies over several
/// seeds.
fn avg_jaccard<F: Fn(&Clip) -> Clip>(edit: F) -> f64 {
    let seeds = [0u64, 1, 2, 3, 4, 5];
    let mut total = 0.0;
    for &s in &seeds {
        let c = clip(s, 30.0);
        let a = ids(&c, 80);
        let b = ids(&edit(&c), 80);
        total += jaccard(&a, &b);
    }
    total / seeds.len() as f64
}

#[test]
fn survives_brightness_and_contrast() {
    let j = avg_jaccard(|c| Edit::GainOffset { gain: 1.12, offset: 10.0 }.apply(c));
    assert!(j > 0.7, "brighten: {j}");
    let j = avg_jaccard(|c| Edit::GainOffset { gain: 0.65, offset: -8.0 }.apply(c));
    assert!(j > 0.7, "darken 35%: {j}");
}

#[test]
fn survives_noise() {
    let j = avg_jaccard(|c| Edit::Noise { sigma: 2.5, seed: 1 }.apply(c));
    assert!(j > 0.7, "noise: {j}");
}

#[test]
fn survives_resolution_change() {
    let j = avg_jaccard(|c| {
        Edit::Resize { width: c.width(), height: (c.height() as f64 * 1.2) as u32 }.apply(c)
    });
    assert!(j > 0.7, "resize: {j}");
}

#[test]
fn survives_frame_rate_conversion() {
    let j = avg_jaccard(|c| {
        Edit::ResampleFps { target: EditPipeline::pal_equivalent(c.fps()) }.apply(c)
    });
    assert!(j > 0.7, "fps conversion: {j}");
}

#[test]
fn survives_segment_reordering_exactly() {
    // Re-ordering permutes frames without changing them: the cell-id SET
    // is identical (this is the entire point of set similarity).
    let c = clip(9, 30.0);
    // Reorder at a segment boundary multiple of the GOP so the key-frame
    // phase is preserved; real re-orders shift phase, covered below.
    let segs = c.split_segments(6);
    let reordered = Clip::concat(vec![
        segs[3].clone(),
        segs[0].clone(),
        segs[5].clone(),
        segs[1].clone(),
        segs[4].clone(),
        segs[2].clone(),
    ]);
    let j = jaccard(&ids(&c, 80), &ids(&reordered, 80));
    assert!(j > 0.75, "reorder: {j}");
}

#[test]
fn survives_recompression() {
    let seeds = [0u64, 1, 2, 3];
    for &s in &seeds {
        let c = clip(s, 30.0);
        let j = jaccard(&ids(&c, 85), &ids(&c, 55));
        assert!(j > 0.6, "recompression at seed {s}: {j}");
    }
}

#[test]
fn survives_full_vs2_suite() {
    let mut total = 0.0;
    let seeds = [10u64, 11, 12, 13, 14, 15];
    for &s in &seeds {
        let c = clip(s, 30.0);
        let pipe = EditPipeline::vs2_standard(s ^ 77, c.width(), c.height(), c.fps(), 5);
        let edited = pipe.apply(&c);
        // Letterbox back to the original geometry like a broadcaster.
        let edited = Clip::new(
            edited.frames().iter().map(|f| f.resize(c.width(), c.height())).collect(),
            edited.fps(),
        );
        total += jaccard(&ids(&c, 80), &ids(&edited, 80));
    }
    let avg = total / seeds.len() as f64;
    assert!(avg > 0.65, "full VS2 suite average Jaccard: {avg}");
}

#[test]
fn unrelated_clips_stay_far_apart() {
    let mut max = 0.0f64;
    for s in 0..6u64 {
        let a = ids(&clip(100 + s, 20.0), 80);
        let b = ids(&clip(200 + s, 20.0), 80);
        max = max.max(jaccard(&a, &b));
    }
    assert!(max < 0.3, "unrelated clips too similar: {max}");
}
