//! End-to-end integration: synthetic workload → codec → features →
//! engine → scored detections, across method variants.

use std::sync::OnceLock;
use vdsms::core::{DetectorConfig, Order, Query, QuerySet, Representation};
use vdsms::core::Detector;
use vdsms::features::FeatureConfig;
use vdsms::workload::{
    compose_stream, fingerprint_stream, score, ClipLibrary, StreamKind, WorkloadSpec,
};

fn test_spec() -> WorkloadSpec {
    WorkloadSpec {
        num_clips: 8,
        inserted: 5,
        clip_min_s: 15.0,
        clip_max_s: 30.0,
        base_seconds: 240.0,
        ..WorkloadSpec::tiny(42)
    }
}

struct Setup {
    lib: ClipLibrary,
    cells: Vec<(u64, u64)>,
    truth: Vec<vdsms::workload::GtInterval>,
    query_cells: Vec<Vec<u64>>,
    w_frames: u64,
    w_keyframes: usize,
}

/// The setup of each stream kind, built once and shared by every test in
/// this binary (they only read it).
fn setup(kind: StreamKind) -> &'static Setup {
    static SETUPS: [OnceLock<Setup>; 3] = [const { OnceLock::new() }; 3];
    SETUPS[kind as usize].get_or_init(|| build_setup(kind))
}

fn build_setup(kind: StreamKind) -> Setup {
    let spec = test_spec();
    let lib = ClipLibrary::new(spec.clone());
    let fc = FeatureConfig::default();
    let stream = compose_stream(&lib, kind);
    let fp = fingerprint_stream(&stream, &fc);
    let query_cells =
        (0..lib.len() as u32).map(|id| lib.query_fingerprints(id, &fc)).collect();
    Setup {
        cells: fp.cell_ids,
        truth: stream.truth,
        query_cells,
        w_frames: spec.window_frames(5.0),
        w_keyframes: spec.window_keyframes(5.0),
        lib,
    }
}

fn run_variant(s: &Setup, order: Order, rep: Representation, use_index: bool, delta: f64) -> vdsms::workload::PrecisionRecall {
    let cfg = DetectorConfig {
        delta,
        window_keyframes: s.w_keyframes,
        order,
        representation: rep,
        use_index,
        ..Default::default()
    };
    let family = Detector::family_for(&cfg);
    let queries = QuerySet::from_queries(
        (0..s.lib.len() as u32)
            .map(|id| Query::from_cell_ids(id, &family, &s.query_cells[id as usize]))
            .collect(),
    );
    let mut det = Detector::new(cfg, queries);
    let dets = det.run(s.cells.iter().copied());
    score(&dets, &s.truth, s.w_frames)
}

#[test]
fn vs1_all_variants_reach_high_accuracy() {
    let s = setup(StreamKind::Vs1);
    for order in [Order::Sequential, Order::Geometric] {
        for rep in [Representation::Bit, Representation::Sketch] {
            for use_index in [true, false] {
                let pr = run_variant(s, order, rep, use_index, 0.7);
                assert!(
                    pr.precision >= 0.95,
                    "{order:?}/{rep:?}/ix={use_index}: precision {:?}",
                    pr
                );
                assert!(
                    pr.recall >= 0.8,
                    "{order:?}/{rep:?}/ix={use_index}: recall {:?}",
                    pr
                );
            }
        }
    }
}

#[test]
fn vs2_bit_sequential_detects_tampered_copies() {
    let s = setup(StreamKind::Vs2);
    let pr = run_variant(s, Order::Sequential, Representation::Bit, true, 0.6);
    assert!(pr.precision >= 0.9, "{pr:?}");
    assert!(pr.recall >= 0.6, "{pr:?}");
}

#[test]
fn sketch_and_bit_agree_on_vs1_detection_outcome() {
    // Bit signatures are a lossless re-encoding of the sketch relations:
    // per-copy recall must be identical for the NoIndex sequential
    // variants.
    let s = setup(StreamKind::Vs1);
    let a = run_variant(s, Order::Sequential, Representation::Bit, false, 0.7);
    let b = run_variant(s, Order::Sequential, Representation::Sketch, false, 0.7);
    assert_eq!(a.found, b.found);
    assert_eq!(a.detections, b.detections);
}

#[test]
fn recall_is_monotone_decreasing_in_delta() {
    let s = setup(StreamKind::Vs2);
    let mut last = f64::INFINITY;
    for delta in [0.5, 0.6, 0.7, 0.8, 0.9] {
        let pr = run_variant(s, Order::Sequential, Representation::Bit, true, delta);
        assert!(
            pr.recall <= last + 1e-9,
            "recall must not rise with δ: {} at δ={delta}, was {last}", pr.recall
        );
        last = pr.recall;
    }
}

#[test]
fn geometric_never_beats_sequential_recall_by_much() {
    // Geometric tests a subset of suffixes; its recall should be at or
    // below sequential's (the paper's Figs. 7-8 trade-off).
    let s = setup(StreamKind::Vs1);
    let seq = run_variant(s, Order::Sequential, Representation::Bit, true, 0.8);
    let geo = run_variant(s, Order::Geometric, Representation::Bit, true, 0.8);
    assert!(geo.recall <= seq.recall + 0.21, "geo {:?} vs seq {:?}", geo, seq);
}
