//! Fleet equivalence: for arbitrary interleaved multi-stream workloads —
//! including subscription churn mid-stream — the [`Fleet`] must emit, at
//! every shard count, exactly the detection set and aggregate statistics
//! of one plain [`Detector`] per stream (a reference that shares no fleet
//! code). Plus the merge-algebra properties that make per-shard
//! aggregation well-defined.

use proptest::prelude::*;
use vdsms_core::{
    Detection, Detector, DetectorConfig, Fleet, Order, Query, QuerySet, Stats, StreamDetection,
    StreamId,
};

const K: usize = 64;

fn cfg() -> DetectorConfig {
    DetectorConfig { k: K, window_keyframes: 3, ..Default::default() }
}

/// A small query whose cells live in the stream's cell-id domain, so
/// random workloads actually produce detections.
fn query(id: u8) -> Query {
    let family = Detector::family_for(&cfg());
    let base = u64::from(id) * 2;
    let cells: Vec<u64> = (base..base + 4).map(|c| c % 16).collect();
    Query::from_cell_ids(u32::from(id), &family, &cells)
}

/// One step of an interleaved multi-stream workload.
#[derive(Debug, Clone)]
enum Op {
    /// Key frames for streams (stream index, cell id); frame indices are
    /// assigned per stream at apply time.
    Batch(Vec<(u8, u64)>),
    Subscribe(u8),
    Unsubscribe(u8),
}

fn arb_op(n_streams: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        proptest::collection::vec((0..n_streams, 0u64..16), 1..40).prop_map(Op::Batch),
        (0u8..6).prop_map(Op::Subscribe),
        (0u8..6).prop_map(Op::Unsubscribe),
    ]
}

/// Canonical comparison key of one detection.
type DetKey = (StreamId, u32, u64, u64, u64);

fn sort_key(d: &StreamDetection) -> DetKey {
    (
        d.stream_id,
        d.detection.query_id,
        d.detection.start_frame,
        d.detection.end_frame,
        d.detection.windows as u64,
    )
}

/// An op sequence made concrete: frame indices assigned per stream,
/// duplicate subscribes dropped, so every step is valid on any monitor.
enum Step {
    Batch(Vec<(StreamId, u64, u64)>),
    Subscribe(Query),
    Unsubscribe(u32),
}

fn script(n_streams: u8, ops: &[Op]) -> Vec<Step> {
    let mut subscribed = std::collections::BTreeSet::new();
    let mut next_frame = vec![0u64; usize::from(n_streams)];
    let mut steps = Vec::new();
    for op in ops {
        match op {
            Op::Batch(frames) => steps.push(Step::Batch(
                frames
                    .iter()
                    .map(|&(s, cell)| {
                        let s = s % n_streams; // ops are drawn for the max stream count
                        let f = next_frame[usize::from(s)];
                        next_frame[usize::from(s)] += 1;
                        (StreamId::from(s), f, cell)
                    })
                    .collect(),
            )),
            Op::Subscribe(id) => {
                if subscribed.insert(*id) {
                    steps.push(Step::Subscribe(query(*id)));
                }
            }
            Op::Unsubscribe(id) => {
                subscribed.remove(id);
                steps.push(Step::Unsubscribe(u32::from(*id)));
            }
        }
    }
    steps
}

fn sorted_keys(dets: &[StreamDetection]) -> Vec<DetKey> {
    let mut keys: Vec<_> = dets.iter().map(sort_key).collect();
    keys.sort_unstable();
    keys
}

/// Run a script on streams `0..n_streams` of a fleet configured as `base`
/// at `shards` shards, then flush.
fn run_fleet(
    base: DetectorConfig,
    shards: usize,
    n_streams: u8,
    steps: &[Step],
) -> (Vec<DetKey>, Stats) {
    let mut fleet = Fleet::new(DetectorConfig { shards, ..base });
    for s in 0..n_streams {
        fleet.add_stream(StreamId::from(s)).unwrap();
    }
    let mut dets = Vec::new();
    for step in steps {
        match step {
            Step::Batch(batch) => dets.extend(fleet.push_batch(batch).unwrap()),
            Step::Subscribe(q) => fleet.subscribe(q.clone()).unwrap(),
            Step::Unsubscribe(id) => {
                fleet.unsubscribe(*id).unwrap();
            }
        }
    }
    dets.extend(fleet.finish_all().unwrap());
    (sorted_keys(&dets), fleet.total_stats())
}

/// The reference, free of fleet code: one `Detector::new` per stream,
/// driven only through `Detector::subscribe` / `unsubscribe` /
/// `push_keyframe` / `finish`.
fn run_reference(base: DetectorConfig, n_streams: u8, steps: &[Step]) -> (Vec<DetKey>, Stats) {
    let mut detectors: Vec<Detector> =
        (0..n_streams).map(|_| Detector::new(base, QuerySet::new())).collect();
    let tagged = |s: usize, found: Vec<Detection>| {
        found
            .into_iter()
            .map(move |detection| StreamDetection { stream_id: s as StreamId, detection })
    };
    let mut dets = Vec::new();
    for step in steps {
        match step {
            Step::Batch(batch) => {
                for &(s, frame, cell) in batch {
                    dets.extend(tagged(
                        s as usize,
                        detectors[s as usize].push_keyframe(frame, cell),
                    ));
                }
            }
            Step::Subscribe(q) => detectors.iter_mut().for_each(|d| d.subscribe(q.clone())),
            Step::Unsubscribe(id) => {
                for det in &mut detectors {
                    det.unsubscribe(*id);
                }
            }
        }
    }
    let mut total = Stats::default();
    for (s, det) in detectors.iter_mut().enumerate() {
        dets.extend(tagged(s, det.finish()));
        total.merge(det.stats());
    }
    (sorted_keys(&dets), total)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: arbitrary interleaved workloads with
    /// mid-stream subscription churn produce the same detection set and
    /// the same aggregate stats on a detector per stream and on the fleet
    /// at every shard count — inline (1) and on workers.
    #[test]
    fn fleet_equals_a_detector_per_stream_for_arbitrary_workloads(
        n_streams in 1u8..7,
        ops in proptest::collection::vec(arb_op(7), 1..30),
    ) {
        let steps = script(n_streams, &ops);
        let (want, want_stats) = run_reference(cfg(), n_streams, &steps);
        for shards in [1usize, 2, 4, 8] {
            let (got, got_stats) = run_fleet(cfg(), shards, n_streams, &steps);
            prop_assert_eq!(&got, &want, "shards={}", shards);
            prop_assert_eq!(&got_stats, &want_stats, "shards={}", shards);
        }
    }

    /// Merging per-shard stats is order- and grouping-insensitive: any
    /// partition of the per-stream stats into shards, merged shard-wise
    /// and then across shards, equals the serial concatenation.
    #[test]
    fn stats_merge_is_partition_invariant(
        parts in proptest::collection::vec(
            (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000), 1..12),
        degradation in proptest::collection::vec(
            (0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000, 0u64..1000), 12),
        assignment in proptest::collection::vec(0usize..4, 12),
    ) {
        let stats: Vec<Stats> = parts.iter().enumerate().map(|(i, &(w, cmp, enc, peak, det))| {
            // The degradation counters (corruption recovery + shard
            // supervision) must aggregate exactly like the cost counters:
            // sums, not maxes, independent of the shard partition.
            let (dropped, skipped, resyncs, restarts, lost) = degradation[i % degradation.len()];
            Stats {
                windows: w,
                sig_compares: cmp,
                sig_encodes: enc,
                probe_encodes: enc ^ cmp,
                index_home_hits: w ^ det,
                index_cells_walked: cmp + peak,
                index_tag_matches: enc + det,
                index_verifications: peak ^ enc,
                live_signature_peak: peak,
                detections: det,
                frames_dropped: dropped,
                bytes_skipped: skipped,
                resyncs,
                shard_restarts: restarts,
                frames_lost: lost,
                ..Default::default()
            }
        }).collect();

        // Serial concatenation: merge everything left to right.
        let mut serial = Stats::default();
        for s in &stats {
            serial.merge(s);
        }

        // Sharded: merge within each shard, then across shards (and in
        // reverse shard order, exercising commutativity).
        let mut shards = vec![Stats::default(); 4];
        for (i, s) in stats.iter().enumerate() {
            shards[assignment[i % assignment.len()]].merge(s);
        }
        let mut sharded = Stats::default();
        for s in shards.iter().rev() {
            sharded.merge(s);
        }
        prop_assert_eq!(sharded, serial);

        // Degradation counters aggregate as plain sums (a lost frame on
        // one shard is a lost frame of the fleet), and a merged report is
        // degraded exactly when some part was.
        prop_assert_eq!(serial.frames_dropped, stats.iter().map(|s| s.frames_dropped).sum::<u64>());
        prop_assert_eq!(serial.bytes_skipped, stats.iter().map(|s| s.bytes_skipped).sum::<u64>());
        prop_assert_eq!(serial.resyncs, stats.iter().map(|s| s.resyncs).sum::<u64>());
        prop_assert_eq!(serial.shard_restarts, stats.iter().map(|s| s.shard_restarts).sum::<u64>());
        prop_assert_eq!(serial.frames_lost, stats.iter().map(|s| s.frames_lost).sum::<u64>());
        prop_assert_eq!(serial.is_degraded(), stats.iter().any(|s| s.is_degraded()));
    }

    /// Window bookkeeping under out-of-order `finish()` calls: finishing
    /// mid-stream closes exactly the buffered short window (windows
    /// counter advances iff key frames were pending), repeated finishes
    /// are no-ops, and the detector keeps accepting key frames afterwards
    /// with consistent window counts.
    #[test]
    fn finish_is_idempotent_and_reentrant(
        segments in proptest::collection::vec(
            proptest::collection::vec(0u64..16, 0..20), 1..8),
    ) {
        let mut det = Detector::new(cfg(), vdsms_core::QuerySet::new());
        det.subscribe(query(1));
        let w = cfg().window_keyframes as u64;
        let mut frame = 0u64;
        let mut expect_windows = 0u64;
        let mut pending = 0u64;
        for seg in &segments {
            for &cell in seg {
                det.push_keyframe(frame, cell);
                frame += 1;
                pending += 1;
                if pending == w {
                    expect_windows += 1;
                    pending = 0;
                }
            }
            // Out-of-order finish: flush whatever is buffered mid-stream.
            det.finish();
            if pending > 0 {
                expect_windows += 1;
                pending = 0;
            }
            prop_assert_eq!(det.stats().windows, expect_windows);
            // A second finish with an empty buffer must change nothing.
            let again = det.finish();
            prop_assert!(again.is_empty());
            prop_assert_eq!(det.stats().windows, expect_windows);
        }
    }
}

/// The property above draws six queries over a 16-cell domain, so nearly
/// every window is related to every query a candidate tracks and the
/// stores almost never encode on demand. This catalogue is the other
/// regime: 72 queries of 12 cells, each cell in three of them, over a
/// 300-cell domain, so a window is related to a handful and the
/// candidates it extends track many it is not related to. Streams
/// alternate a query's cells in order with random cells of the domain;
/// between rounds a query leaves and, two rounds later, returns. Both
/// candidate orders, inline and on workers — after checking that the
/// script did make the stores encode on demand and the probe encode.
#[test]
fn overlapping_catalogue_under_churn_is_equivalent_at_every_shard_count() {
    const QUERIES: u32 = 72;
    const STREAMS: u8 = 4;
    let overlapping = |id: u32| {
        let cells: Vec<u64> = (0..12).map(|c| u64::from(4 * id + c)).collect();
        Query::from_cell_ids(id, &Detector::family_for(&cfg()), &cells)
    };
    let mut rng_state = 0x9e37_79b9_7f4a_7c15u64;
    let mut rng = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    let mut steps: Vec<Step> = (0..QUERIES).map(|id| Step::Subscribe(overlapping(id))).collect();
    let mut away = std::collections::VecDeque::new();
    for round in 0..24u64 {
        let mut batch = Vec::new();
        for f in round * 30..(round + 1) * 30 {
            for s in 0..u64::from(STREAMS) {
                // Twelve frames of one query's cells, then 24 of anything.
                let airing = (f / 36 * 7 + s * 11) % u64::from(QUERIES);
                let cell = if f % 36 < 12 { 4 * airing + f % 12 } else { rng() % 300 };
                batch.push((s as StreamId, f, cell));
            }
        }
        steps.push(Step::Batch(batch));
        let leaving = (round * 5 % u64::from(QUERIES)) as u32;
        steps.push(Step::Unsubscribe(leaving));
        away.push_back(leaving);
        if away.len() > 2 {
            steps.extend(away.pop_front().map(|id| Step::Subscribe(overlapping(id))));
        }
    }

    for order in [Order::Sequential, Order::Geometric] {
        let base = DetectorConfig { order, ..cfg() };
        let (want, want_stats) = run_reference(base, STREAMS, &steps);
        assert!(!want.is_empty(), "{order:?}: the script must produce detections");
        assert!(
            want_stats.sig_encodes > want_stats.windows && want_stats.probe_encodes > 0,
            "{order:?}: the script must make the stores encode on demand: {want_stats:?}"
        );
        for shards in [1usize, 2, 4] {
            let (got, got_stats) = run_fleet(base, shards, STREAMS, &steps);
            assert_eq!(got, want, "{order:?}, shards={shards}");
            assert_eq!(got_stats, want_stats, "{order:?}, shards={shards}");
        }
    }
}

/// Concurrency stress: 8 shards, randomized batch sizes, pipelined
/// ingestion — every detection the per-stream detectors emit must come
/// out of the fleet exactly once (no drops, no duplicates).
#[test]
fn stress_pipelined_8_shards_drops_nothing() {
    let n_streams: u32 = 16;
    let frames_per_stream: u64 = if cfg!(debug_assertions) { 300 } else { 1200 };

    // Deterministic xorshift for batch sizing and content.
    let mut rng_state = 0x243f_6a88_85a3_08d3u64;
    let mut rng = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };

    // Interleaved workload; streams periodically air query content.
    let mut workload: Vec<(StreamId, u64, u64)> = Vec::new();
    for f in 0..frames_per_stream {
        for s in 0..n_streams {
            let cell = if f % 11 < 4 { (u64::from(s) + f % 11) % 16 } else { rng() % 16 };
            workload.push((s, f, cell));
        }
    }

    let mut steps: Vec<Step> = (0..6u8).map(|id| Step::Subscribe(query(id))).collect();
    steps.push(Step::Batch(workload.clone()));
    let (want_keys, want_stats) = run_reference(cfg(), n_streams as u8, &steps);

    let mut par = Fleet::new(DetectorConfig { shards: 8, ..cfg() });
    for s in 0..n_streams {
        par.add_stream(s).unwrap();
    }
    for id in 0..6u8 {
        par.subscribe(query(id)).unwrap();
    }
    let mut got: Vec<StreamDetection> = Vec::new();
    let mut i = 0usize;
    while i < workload.len() {
        let size = 1 + (rng() % 512) as usize;
        let end = (i + size).min(workload.len());
        par.push_batch_async(&workload[i..end]).unwrap();
        i = end;
        // Occasionally drain mid-flight (after a barrier).
        if rng() % 7 == 0 {
            par.quiesce().unwrap();
            got.extend(par.take_detections());
        }
    }
    par.quiesce().unwrap();
    got.extend(par.take_detections());
    got.extend(par.finish_all().unwrap());

    assert_eq!(sorted_keys(&got), want_keys);
    assert!(!want_keys.is_empty(), "stress workload must produce detections");
    assert_eq!(par.total_stats(), want_stats);
}
