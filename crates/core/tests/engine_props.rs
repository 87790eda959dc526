//! Property tests for the detection engine: structural invariants that
//! must hold for arbitrary streams and query sets.

use proptest::prelude::*;
use vdsms_core::{Detector, DetectorConfig, Order, Query, QuerySet, Representation};
use vdsms_sketch::MinHashFamily;

fn arb_config() -> impl Strategy<Value = DetectorConfig> {
    (
        16usize..128, // k
        0.5f64..0.9,  // delta
        1.0f64..3.0,  // lambda
        1usize..8,    // window_keyframes
        prop_oneof![Just(Order::Sequential), Just(Order::Geometric)],
        prop_oneof![Just(Representation::Bit), Just(Representation::Sketch)],
        any::<bool>(),
    )
        .prop_map(|(k, delta, lambda, window_keyframes, order, representation, use_index)| {
            DetectorConfig {
                k,
                delta,
                lambda,
                window_keyframes,
                order,
                representation,
                use_index,
                ..Default::default()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine never panics and every detection is well-formed:
    /// position within the stream, start <= end, similarity in [δ, 1],
    /// matching a subscribed query.
    #[test]
    fn detections_are_well_formed(
        cfg in arb_config(),
        queries in proptest::collection::vec(
            proptest::collection::vec(0u64..400, 1..30), 1..8),
        stream in proptest::collection::vec(0u64..400, 10..200),
    ) {
        let family = MinHashFamily::new(cfg.k, cfg.hash_seed);
        let qs = QuerySet::from_queries(
            queries.iter().enumerate()
                .map(|(i, ids)| Query::from_cell_ids(i as u32, &family, ids))
                .collect());
        let m = qs.len() as u32;
        let mut det = Detector::new(cfg, qs);
        let n = stream.len() as u64;
        let dets = det.run(stream.iter().copied().enumerate().map(|(i, id)| (i as u64, id)));
        for d in &dets {
            prop_assert!(d.query_id < m);
            prop_assert!(d.start_frame <= d.end_frame);
            prop_assert!(d.end_frame < n);
            prop_assert!(d.similarity >= cfg.delta - 1e-9);
            prop_assert!(d.similarity <= 1.0 + 1e-9);
            prop_assert!(d.windows >= 1);
        }
        // Stats sanity.
        let s = det.stats();
        prop_assert_eq!(s.windows, n.div_ceil(cfg.window_keyframes as u64));
        prop_assert_eq!(s.detections as usize, dets.len());
    }

    /// Streaming one key frame at a time equals batch processing.
    #[test]
    fn streaming_equals_batch(
        stream in proptest::collection::vec(0u64..100, 20..120),
    ) {
        let cfg = DetectorConfig { k: 64, window_keyframes: 4, ..Default::default() };
        let family = MinHashFamily::new(cfg.k, cfg.hash_seed);
        let q: Vec<u64> = (0..40).collect();
        let make = || {
            Detector::new(cfg, QuerySet::from_queries(vec![
                Query::from_cell_ids(0, &family, &q)]))
        };
        let mut a = make();
        let batch = a.run(stream.iter().copied().enumerate().map(|(i, v)| (i as u64, v)));
        let mut b = make();
        let mut incremental = Vec::new();
        for (i, &v) in stream.iter().enumerate() {
            incremental.extend(b.push_keyframe(i as u64, v));
        }
        incremental.extend(b.finish());
        prop_assert_eq!(batch, incremental);
    }

    /// Subscribing then immediately unsubscribing leaves the engine
    /// equivalent to never subscribing (no detections for that id).
    #[test]
    fn unsubscribe_is_complete(
        stream in proptest::collection::vec(0u64..50, 20..100),
    ) {
        let cfg = DetectorConfig { k: 64, window_keyframes: 4, ..Default::default() };
        let family = MinHashFamily::new(cfg.k, cfg.hash_seed);
        let mut det = Detector::new(cfg, QuerySet::new());
        det.subscribe(Query::from_cell_ids(7, &family, &(0u64..50).collect::<Vec<_>>()));
        assert!(det.unsubscribe(7));
        let dets = det.run(stream.iter().copied().enumerate().map(|(i, v)| (i as u64, v)));
        prop_assert!(dets.is_empty(), "{dets:?}");
    }
}
