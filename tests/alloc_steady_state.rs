//! Steady-state zero-allocation guarantee for the serial detector.
//!
//! A counting `#[global_allocator]` wraps `System`; after a warm-up phase
//! drives every scratch buffer, object pool and map to its high-water
//! mark, a steady-state phase of keyframe ingestion must touch the
//! allocator **zero** times. This pins the perf contract behind the
//! `no-alloc-hot-path` lint rule: the justified inline allows all claim
//! "warm-up only", "capacity-stable" or "event-driven", and this test is
//! where those claims are held to account.
//!
//! Both representations, both candidate-store orders and both index modes
//! are covered: the Bit representation's signatures — the probe's, the
//! on-demand encodes, the copies a newborn candidate keeps — all live in
//! buffers from one per-stream pool, and a dead entry's goes back to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

use parking_lot::Mutex;
use vdsms::codec::bitio::ByteReader;
use vdsms::codec::{Encoder, EncoderConfig, StreamHeader};
use vdsms::core::{
    Detector, DetectorConfig, Fleet, HqIndex, Order, Query, QuerySet, Representation, Stats,
};
use vdsms::features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms::serve::ChunkedIngest;
use vdsms::video::source::{ClipGenerator, SourceSpec};
use vdsms::video::Fps;

/// The allocation counter is process-global, so tests in this binary must
/// not count each other's traffic: every test body runs under this gate.
static GATE: Mutex<()> = Mutex::new(());

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes asked for by the calls `ALLOCS` counts.
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes gained while counting: allocated minus freed (a `realloc`
/// counts its new size in and its old size out).
static LIVE: AtomicI64 = AtomicI64::new(0);
static COUNTING: AtomicBool = AtomicBool::new(false);

/// Count one call asking for `size` bytes, in place of `freed` ones.
fn count(size: usize, freed: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LIVE.fetch_add(size as i64 - freed as i64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged, so `System`'s
// guarantees hold; the wrapper only counts, in atomics that never
// allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if COUNTING.load(Ordering::Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size, layout.size());
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), 0);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const WARMUP_KEYFRAMES: u64 = 4096;
const STEADY_KEYFRAMES: u64 = 4096;

/// Mixed traffic: mostly pseudo-random unrelated cell ids, with a steady
/// trickle of query cells so the relation paths, candidate pools and
/// probe scratch all stay exercised — but never enough of them in one
/// window to cross the detection threshold.
fn cell_id_for(i: u64, rng: &mut u64) -> u64 {
    if i.is_multiple_of(7) {
        10_000 + (i % 32)
    } else {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }
}

/// Related traffic: three key frames in four show a cell of the 536-cell
/// domain that 64 overlapping queries cover — 32 cells each, every cell in
/// four of them — the fourth is junk, and the whole sequence repeats every
/// 512 key frames. A window is related to a dozen queries, every candidate
/// tracks dozens that the next window is not related to, and the cells a
/// query does not hold prune its entry within a few windows — so probe
/// encodes, on-demand encodes, newborn copies and Lemma-2 prunes all
/// happen every window, and no candidate ever matches. The period makes
/// the steady phase a replay of the warm-up: the live population has no
/// new high to reach.
fn related_cell_id_for(i: u64, _rng: &mut u64) -> u64 {
    let phase = (i % 512).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20;
    if i.is_multiple_of(4) {
        1 << 40 | phase
    } else {
        10_000 + phase % 536
    }
}

/// Allocator calls over the steady phase of `traffic` against `queries`,
/// and what the detector did in that phase.
fn steady_state_allocs(
    cfg: DetectorConfig,
    queries: Vec<Query>,
    traffic: fn(u64, &mut u64) -> u64,
) -> (u64, Stats) {
    let mut det = Detector::new(cfg, QuerySet::from_queries(queries));

    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for i in 0..WARMUP_KEYFRAMES {
        let id = traffic(i, &mut rng);
        let dets = det.push_keyframe(i, id);
        assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
    }
    let warm = *det.stats();

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    for i in WARMUP_KEYFRAMES..WARMUP_KEYFRAMES + STEADY_KEYFRAMES {
        let id = traffic(i, &mut rng);
        let dets = det.push_keyframe(i, id);
        assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
    }
    COUNTING.store(false, Ordering::SeqCst);
    let total = *det.stats();
    let steady = Stats {
        windows: total.windows - warm.windows,
        sig_encodes: total.sig_encodes - warm.sig_encodes,
        probe_encodes: total.probe_encodes - warm.probe_encodes,
        sig_ors: total.sig_ors - warm.sig_ors,
        lemma2_prunes: total.lemma2_prunes - warm.lemma2_prunes,
        ..Stats::default()
    };
    (ALLOCS.load(Ordering::SeqCst), steady)
}

/// Single test function: the configurations run sequentially rather than
/// as parallel `#[test]`s that would count each other's traffic.
#[test]
fn serial_detector_steady_state_is_allocation_free() {
    let _gate = GATE.lock();
    let family = Detector::family_for(&DetectorConfig::default());
    let cfg = |order, representation, use_index| DetectorConfig {
        delta: 0.95,
        window_keyframes: 4,
        order,
        representation,
        use_index,
        ..Default::default()
    };
    for representation in [Representation::Sketch, Representation::Bit] {
        for order in [Order::Sequential, Order::Geometric] {
            for use_index in [false, true] {
                let queries = vec![
                    Query::from_cell_ids(1, &family, &(10_000u64..10_032).collect::<Vec<_>>()),
                    Query::from_cell_ids(2, &family, &(20_000u64..20_032).collect::<Vec<_>>()),
                ];
                let (allocs, _) = steady_state_allocs(
                    cfg(order, representation, use_index),
                    queries,
                    cell_id_for,
                );
                assert_eq!(
                    allocs, 0,
                    "{representation:?}/{order:?}/use_index={use_index}: {allocs} heap \
                     allocation(s) over {STEADY_KEYFRAMES} steady-state keyframes (expected 0)"
                );
            }
        }
    }

    // The product default under related traffic: the case where the Bit
    // representation's signatures are born and die by the dozen.
    let overlapping = (0..64u32)
        .map(|j| {
            let cells: Vec<u64> = (0..32).map(|c| 10_000 + 8 * u64::from(j) + c).collect();
            Query::from_cell_ids(j, &family, &cells)
        })
        .collect();
    let (allocs, did) = steady_state_allocs(
        DetectorConfig { delta: 0.7, ..cfg(Order::Sequential, Representation::Bit, true) },
        overlapping,
        related_cell_id_for,
    );
    for (what, count) in [
        ("probe encodes", did.probe_encodes),
        ("on-demand encodes", did.sig_encodes),
        ("signature ORs", did.sig_ors),
        ("Lemma-2 prunes", did.lemma2_prunes),
    ] {
        assert!(
            count >= 4 * did.windows,
            "related traffic must keep the store busy: {count} {what} in {} windows",
            did.windows
        );
    }
    assert_eq!(
        allocs, 0,
        "Bit/Sequential/index under related traffic: {allocs} heap allocation(s) over \
         {STEADY_KEYFRAMES} steady-state keyframes (expected 0)"
    );
}

/// The full fused front-end — compressed bytes → partial decode →
/// fingerprint → detector — must also be allocation-free in the steady
/// state. Warm-up passes drive the pooled `DcFrame`, the memoized
/// `RegionPlan`, the feature scratch and the detector to their high-water
/// marks; then one whole `reopen` + drain + push pass is counted.
#[test]
fn fused_ingestion_steady_state_is_allocation_free() {
    let _gate = GATE.lock();
    let clip = ClipGenerator::new(SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(10),
        seed: 4242,
        min_scene_s: 1.0,
        max_scene_s: 3.0,
        motifs: None,
    })
    .clip(20.0);
    let bytes =
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });

    let cfg = DetectorConfig {
        delta: 0.95,
        window_keyframes: 4,
        order: Order::Sequential,
        representation: Representation::Sketch,
        use_index: true,
        ..Default::default()
    };
    let family = Detector::family_for(&cfg);
    // Query cells sit far above the grid–pyramid partition's id range
    // (2 · 5 · 4⁵ = 2048 cells), so the stream can never detect —
    // detection events may allocate by design; the pipeline must not.
    let queries = QuerySet::from_queries(vec![Query::from_cell_ids(
        1,
        &family,
        &(10_000u64..10_032).collect::<Vec<_>>(),
    )]);
    let mut det = Detector::new(cfg, queries);

    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let mut ingest = FingerprintStream::new(&bytes, extractor).unwrap();

    // Frame indices must keep rising across passes so the detector sees
    // one endless broadcast; each pass is well under 1000 frames long.
    let mut pass = 0u64;
    for _ in 0..3 {
        ingest.reopen(&bytes).unwrap();
        while let Some((frame_index, cell)) = ingest.next_fingerprint().unwrap() {
            let dets = det.push_keyframe(pass * 1_000 + frame_index, cell);
            assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
        }
        pass += 1;
    }

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    ingest.reopen(&bytes).unwrap();
    let mut keyframes = 0u64;
    while let Some((frame_index, cell)) = ingest.next_fingerprint().unwrap() {
        let dets = det.push_keyframe(pass * 1_000 + frame_index, cell);
        assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
        keyframes += 1;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(keyframes > 0, "the stream must contain key frames");
    assert_eq!(
        allocs, 0,
        "fused bytes→detection pass: {allocs} heap allocation(s) \
         over {keyframes} steady-state keyframes (expected 0)"
    );
}

/// Corruption recovery is part of the hot path's perf contract too: a
/// stream whose records are damaged mid-broadcast must resynchronize —
/// error construction, header rescan, seek and health accounting — with
/// **zero** heap traffic in the steady state.
#[test]
fn recovery_mode_steady_state_is_allocation_free() {
    let _gate = GATE.lock();
    let clip = ClipGenerator::new(SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(10),
        seed: 4343,
        min_scene_s: 1.0,
        max_scene_s: 3.0,
        motifs: None,
    })
    .clip(20.0);
    let mut bytes =
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });

    // Wreck the frame-type byte of two mid-stream records: a guaranteed
    // framing error (not just wrong pixel content), so every pass truly
    // exercises the resync scanner.
    let offsets = {
        let mut r = ByteReader::new(&bytes);
        StreamHeader::read(&mut r).unwrap();
        let mut offsets = Vec::new();
        while !r.is_at_end() {
            offsets.push(r.position());
            r.skip(2).unwrap();
            let payload = r.get_u32_le().unwrap();
            r.skip(payload as usize).unwrap();
        }
        offsets
    };
    assert!(offsets.len() >= 20, "need a broadcast-sized stream");
    bytes[offsets[7]] = 0xee;
    bytes[offsets[13]] = 0xee;

    let cfg = DetectorConfig {
        delta: 0.95,
        window_keyframes: 4,
        order: Order::Sequential,
        representation: Representation::Sketch,
        use_index: true,
        ..Default::default()
    };
    let family = Detector::family_for(&cfg);
    let queries = QuerySet::from_queries(vec![Query::from_cell_ids(
        1,
        &family,
        &(10_000u64..10_032).collect::<Vec<_>>(),
    )]);
    let mut det = Detector::new(cfg, queries);

    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let mut ingest =
        FingerprintStream::new_with_recovery(&bytes, extractor, true).unwrap();

    let mut pass = 0u64;
    for _ in 0..3 {
        ingest.reopen(&bytes).unwrap();
        while let Some((frame_index, cell)) = ingest.next_fingerprint().unwrap() {
            let dets = det.push_keyframe(pass * 1_000 + frame_index, cell);
            assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
        }
        pass += 1;
    }
    assert!(ingest.health().frames_dropped >= 2, "damage must be real: {:?}", ingest.health());

    ALLOCS.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    ingest.reopen(&bytes).unwrap();
    let mut keyframes = 0u64;
    while let Some((frame_index, cell)) = ingest.next_fingerprint().unwrap() {
        let dets = det.push_keyframe(pass * 1_000 + frame_index, cell);
        assert!(dets.is_empty(), "the workload must not detect (it would allocate)");
        keyframes += 1;
    }
    COUNTING.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);
    assert!(keyframes > 0, "the damaged stream must still yield key frames");
    assert_eq!(
        allocs, 0,
        "recovery-mode bytes→detection pass: {allocs} heap allocation(s) \
         over {keyframes} steady-state keyframes (expected 0)"
    );
}

/// The daemon's per-stream reassembly sits on the same front end and is
/// held to the same contract: once the first key frame has sized the
/// pooled buffers and the accumulation buffer has reached its high-water
/// mark, `ChunkedIngest::push_chunk` over network-sized chunks builds
/// nothing and allocates nothing — no decoder, extractor, scratch or
/// frame per pass, no copy of the records into a work buffer.
#[test]
fn chunked_ingest_steady_state_is_allocation_free() {
    let _gate = GATE.lock();
    let clip = ClipGenerator::new(SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(10),
        seed: 4444,
        min_scene_s: 1.0,
        max_scene_s: 3.0,
        motifs: None,
    })
    .clip(40.0);
    let bytes =
        Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
    const CHUNK: usize = 16 << 10;
    let chunks: Vec<&[u8]> = bytes.chunks(CHUNK).collect();
    assert!(chunks.len() >= 16, "need a stream many chunks long: {}", chunks.len());

    for recover in [false, true] {
        let extractor = FeatureExtractor::new(FeatureConfig::default());
        let mut ingest = ChunkedIngest::new(extractor, recover, 4 << 20);
        // The caller's output vector, reserved once for the whole stream.
        let mut out = Vec::with_capacity(clip.len());
        let (warm_up, steady) = chunks.split_at(chunks.len() / 2);
        for chunk in warm_up {
            ingest.push_chunk(chunk, &mut out).unwrap();
        }
        let warm_keyframes = ingest.keyframes();
        assert!(warm_keyframes > 0, "the warm-up must reach a key frame");

        ALLOCS.store(0, Ordering::SeqCst);
        COUNTING.store(true, Ordering::SeqCst);
        for chunk in steady {
            ingest.push_chunk(chunk, &mut out).unwrap();
        }
        COUNTING.store(false, Ordering::SeqCst);
        let allocs = ALLOCS.load(Ordering::SeqCst);
        let keyframes = ingest.keyframes() - warm_keyframes;
        assert!(keyframes > 0, "the counted half must ingest key frames");
        assert_eq!(
            allocs, 0,
            "chunked ingest (recover={recover}): {allocs} heap allocation(s) over \
             {keyframes} steady-state keyframes in {} chunks (expected 0)",
            steady.len()
        );
        ingest.finish(&mut out).unwrap();
        assert!(ingest.health().is_clean());
    }
}

/// Allocator calls, bytes requested and live bytes gained while `f` runs.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64, i64) {
    ALLOCS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    LIVE.store(0, Ordering::SeqCst);
    COUNTING.store(true, Ordering::SeqCst);
    let out = f();
    COUNTING.store(false, Ordering::SeqCst);
    let live = LIVE.load(Ordering::SeqCst);
    (out, ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst), live)
}

/// An inline fleet is its catalogue's only holder, so a subscription is
/// written in place — `K` index cells, the query's values in the slab and
/// one id on the list — whatever the catalogue's size and however many streams are open.
/// A copy of the catalogue instead would show here as one allocation per
/// subscribed sketch (> 1 000 calls, ≈ 20 MB). An id that is not
/// subscribed must cost nothing at either executor: it is looked up before
/// anything is written, copied or sent to a worker.
#[test]
fn fleet_subscription_is_written_in_place() {
    let _gate = GATE.lock();
    const M: u32 = 1024;
    const STREAMS: u32 = 8;
    let family = Detector::family_for(&DetectorConfig::default());
    let clip = |id: u32| {
        let cells: Vec<u64> = (0..40u64).map(|i| u64::from(id) * 64 + i % 20).collect();
        Query::from_cell_ids(id, &family, &cells)
    };
    let catalogue: Vec<Query> = (0..M).map(clip).collect();
    for shards in [1, 2] {
        let mut fleet = Fleet::new(DetectorConfig { shards, ..Default::default() });
        assert_eq!(fleet.config().k, 800);
        for query in &catalogue {
            fleet.subscribe(query.clone()).unwrap();
        }
        for s in 0..STREAMS {
            fleet.add_stream(s).unwrap();
            // One key frame in: every stream has a window open.
            assert!(fleet.push_keyframe(s, 0, 9_000_000 + u64::from(s)).unwrap().is_empty());
        }
        // The warm-up pair: query m + 1 doubles the index's rows and grows
        // the vectors; neither shrinks when it leaves.
        fleet.subscribe(clip(M)).unwrap();
        assert!(fleet.unsubscribe(M).unwrap());

        let decoy = clip(M + 1);
        let (removed, allocs, bytes, _) = counted(|| {
            fleet.subscribe(decoy).unwrap();
            fleet.unsubscribe(M + 1).unwrap()
        });
        assert!(removed);
        if shards == 1 {
            assert!(
                allocs <= 8 && bytes < (64 << 10),
                "inline subscribe + unsubscribe at m = {M}: {allocs} allocator call(s), \
                 {bytes} bytes (expected at most 8 calls, under 64 KiB)"
            );
        }
        let (unknown, allocs, _, _) = counted(|| fleet.unsubscribe(M + 2).unwrap());
        assert!(!unknown);
        assert!(
            allocs <= 8,
            "shards={shards}: unsubscribing an unknown id made {allocs} allocator call(s)"
        );
        assert_eq!((fleet.query_count(), fleet.stream_count()), (M as usize, STREAMS as usize));
    }
}

/// One copy of the catalogue: a subscription copies the query's values
/// into the index's slab and keeps nothing else of it, so the subscribe
/// that consumes a sketch built by the caller frees it — at an inline
/// fleet of `m = 1024` with every vector already grown, live bytes fall by
/// the sketch's `K × 8` less at most 1 KiB of bookkeeping. A detector
/// built from a query set keeps none of the set's sketches either: what
/// it holds afterwards is its index and its per-stream state, less the
/// sketches it was handed.
#[test]
fn a_subscription_keeps_no_copy_of_the_query() {
    let _gate = GATE.lock();
    const M: u32 = 1024;
    let cfg = DetectorConfig::default();
    let family = Detector::family_for(&cfg);
    let clip = |id: u32| {
        let cells: Vec<u64> = (0..40u64).map(|i| u64::from(id) * 64 + i % 20).collect();
        Query::from_cell_ids(id, &family, &cells)
    };
    let sketch_bytes = (cfg.k * std::mem::size_of::<u64>()) as i64;

    let mut fleet = Fleet::new(cfg);
    for id in 0..M {
        fleet.subscribe(clip(id)).unwrap();
    }
    fleet.add_stream(0).unwrap();
    assert!(fleet.push_keyframe(0, 0, 9_000_000).unwrap().is_empty());
    // The warm-up pair, as in `fleet_subscription_is_written_in_place`.
    fleet.subscribe(clip(M)).unwrap();
    assert!(fleet.unsubscribe(M).unwrap());
    let query = clip(M + 1);
    let ((), _, _, live) = counted(|| fleet.subscribe(query).unwrap());
    assert!(
        live <= -(sketch_bytes - 1024),
        "an inline subscribe at m = {M} left {live:+} live bytes: the caller's \
         {sketch_bytes}-byte sketch must be freed, not kept beside the slab"
    );
    assert_eq!(fleet.query_count(), M as usize + 1);
    drop(fleet);

    // What a detector holds with no query: its per-stream state and an
    // empty index.
    let (empty, _, _, state) = counted(|| Detector::new(cfg, QuerySet::new()));
    drop(empty);
    let set = QuerySet::from_queries((0..M).map(clip).collect());
    let index = HqIndex::build(cfg.k, &set).heap_bytes() as i64;
    let (det, _, _, live) = counted(|| Detector::new(cfg, set));
    let bound = state + index - i64::from(M) * sketch_bytes;
    assert!(
        live <= bound,
        "Detector::new over {M} queries left {live} live bytes, above the {bound} its index \
         ({index}) and state ({state}) come to once the set's sketches are freed"
    );
    assert_eq!(det.query_count(), M as usize);
}
