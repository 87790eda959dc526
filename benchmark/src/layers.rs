//! Each layer measured alone, from outside, on a workload's own inputs.
//!
//! Every function times calls into one crate over the workload's streams
//! and catalogue and records that layer's metrics. Timings repeat a pass
//! until the slice of the run's `--seconds` is used up and report the
//! median pass; operation counts come from a fixed amount of work, so
//! they repeat exactly for a seed.

use crate::inputs::{Inputs, STREAMS};
use crate::metrics::{median, tail, Values};
use crate::sut::{
    self, AnyFleet, DcFrame, Detector, FingerprintStream, HashColumnCache, HqIndex, PartialDecoder,
    ProbeScratch, Query, QuerySet, Request, Sketch, Stats, StreamId,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Bytes per `StreamData` frame in `serve_live` and the in-process
/// reassembly measurements.
pub const CHUNK_BYTES: usize = 16 * 1024;
/// Epochs the exact operation counts are taken over.
pub const COUNT_EPOCHS: u64 = 4;
const NS: f64 = 1e9;

/// Run `pass` until `slice` has elapsed, at least twice; seconds per pass.
pub fn repeat_for(slice: Duration, mut pass: impl FnMut()) -> Vec<f64> {
    let started = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 2 || started.elapsed() < slice {
        let t = Instant::now();
        pass();
        secs.push(t.elapsed().as_secs_f64());
    }
    secs
}

/// Time one call in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The cell ids of every complete basic window, stream by stream.
pub fn windows(inputs: &Inputs) -> Vec<Vec<u64>> {
    inputs
        .stream_cells
        .iter()
        .flat_map(|cells| cells.chunks_exact(sut::WINDOW_KEYFRAMES))
        .map(|w| w.iter().map(|&(_, cell)| cell).collect())
        .collect()
}

/// `PartialDecoder::next_dc_frame_into` over every stream.
pub fn codec(inputs: &Inputs, slice: Duration, out: &mut Values) {
    let kf = inputs.keyframes_per_pass() as f64;
    let bytes = inputs.stream_bytes() as f64;
    let mut frame = DcFrame::empty();
    let secs = repeat_for(slice, || {
        for stream in &inputs.streams {
            let mut dec = PartialDecoder::new(stream).expect("generated bitstream opens");
            while dec.next_dc_frame_into(&mut frame).expect("generated bitstream decodes") {
                black_box(frame.frame_index);
            }
        }
    });
    out.set("codec.decode_ns_per_kf", median(&secs) * NS / kf);
    out.set("codec.decode_mb_per_s", bytes / 1e6 / median(&secs));
    out.set("codec.bytes_per_kf", bytes / kf);
}

/// `fingerprint_into` on pre-decoded frames, and the fused front end.
pub fn features(inputs: &Inputs, slice: Duration, out: &mut Values) {
    let kf = inputs.keyframes_per_pass() as f64;
    let extractor = sut::extractor();
    let frames: Vec<DcFrame> = inputs
        .streams
        .iter()
        .flat_map(|s| {
            let mut dec = PartialDecoder::new(s).expect("generated bitstream opens");
            std::iter::from_fn(move || {
                let mut f = DcFrame::empty();
                dec.next_dc_frame_into(&mut f).expect("generated bitstream decodes").then_some(f)
            })
        })
        .collect();
    let mut scratch = extractor.scratch();
    let secs = repeat_for(slice, || {
        for f in &frames {
            black_box(extractor.fingerprint_into(&mut scratch, f));
        }
    });
    out.set("features.fingerprint_ns_per_kf", median(&secs) * NS / kf);

    let mut fused: Vec<FingerprintStream<'_>> = inputs
        .streams
        .iter()
        .map(|s| FingerprintStream::new(s, extractor.clone()).expect("generated bitstream opens"))
        .collect();
    let secs = repeat_for(slice, || {
        for (fs, bytes) in fused.iter_mut().zip(&inputs.streams) {
            fs.reopen(bytes).expect("generated bitstream opens");
            while let Some(kf) = fs.next_fingerprint().expect("generated bitstream decodes") {
                black_box(kf);
            }
        }
    });
    out.set("features.frontend_ns_per_kf", median(&secs) * NS / kf);
}

/// The window fold as the detector does it (K = 800, through a 64-way
/// hash-column cache per stream), and sketching one query.
pub fn sketch(inputs: &Inputs, catalogue: &[Vec<u64>], slice: Duration, out: &mut Values) {
    let cfg = sut::detector_config(1);
    let family = Detector::family_for(&cfg);
    let per_stream = inputs.stream_cells[0].len() / sut::WINDOW_KEYFRAMES;
    let windows = windows(inputs);
    let mut caches: Vec<HashColumnCache> =
        (0..STREAMS).map(|_| HashColumnCache::new(&family, sut::HASH_CACHE_WAYS)).collect();
    let mut sk = Sketch::empty(cfg.k);
    let secs = repeat_for(slice, || {
        for (i, w) in windows.iter().enumerate() {
            sk.reset(cfg.k);
            sk.observe_batch_cached(&family, &mut caches[i / per_stream], w);
            black_box(sk.mins()[0]);
        }
    });
    out.set("sketch.fold_ns_per_window", median(&secs) * NS / windows.len() as f64);

    let sample = &catalogue[..catalogue.len().min(64)];
    let secs = repeat_for(slice / 4, || {
        for (id, cells) in sample.iter().enumerate() {
            black_box(Query::from_cell_ids(id as u32, &family, cells));
        }
    });
    out.set("sketch.query_build_us", median(&secs) * 1e6 / sample.len() as f64);
}

/// The catalogue's index: build, size, and `probe_into` over the
/// workload's window sketches. Returns the shared catalogue for the layers
/// above.
pub fn probe(
    inputs: &Inputs,
    queries: &[Query],
    slice: Duration,
    out: &mut Values,
) -> (Arc<QuerySet>, Arc<HqIndex>) {
    let cfg = sut::detector_config(1);
    let family = Detector::family_for(&cfg);
    let set = QuerySet::from_queries(queries.to_vec());
    let (build_s, index) = timed(|| HqIndex::build(cfg.k, &set));
    out.set("core.catalogue_build_s", build_s);
    out.set("core.hq_index_heap_mb", index.heap_bytes() as f64 / 1e6);

    let sketches: Vec<Sketch> =
        windows(inputs).iter().map(|w| Sketch::from_ids(&family, w.iter().copied())).collect();
    let mut scratch = ProbeScratch::default();
    let mut hits = Vec::new();
    let (mut row_searches, mut found) = (0u64, 0u64);
    let mut pass = |count: bool| {
        for sk in &sketches {
            let rows = index.probe_into(sk, cfg.pruning_delta(), &mut scratch, &mut hits);
            if count {
                row_searches += rows;
                found += hits.len() as u64;
            }
            for hit in hits.drain(..) {
                scratch.recycle_sig(hit.sig);
            }
        }
    };
    pass(true);
    let secs = repeat_for(slice, || pass(false));
    let n = sketches.len() as f64;
    out.set("core.probe_ns_per_window", median(&secs) * NS / n);
    out.set("core.probe_row_searches_per_window", row_searches as f64 / n);
    out.set("core.probe_hits_per_window", found as f64 / n);
    (Arc::new(set), Arc::new(index))
}

/// `Detector::push_keyframe` on precomputed cells, one detector per
/// stream sharing the catalogue; the exact `Stats` counts of the first
/// [`COUNT_EPOCHS`] epochs; and the store's share, derived.
pub fn detectors(
    inputs: &Inputs,
    set: &Arc<QuerySet>,
    index: &Arc<HqIndex>,
    slice: Duration,
    out: &mut Values,
) {
    let cfg = sut::detector_config(1);
    let kf = inputs.keyframes_per_pass() as f64;
    let mut dets: Vec<Detector> = (0..STREAMS)
        .map(|_| Detector::with_shared(cfg, Arc::clone(set), Some(Arc::clone(index))))
        .collect();
    let mut epoch = 0u64;
    let mut pass = |dets: &mut [Detector]| {
        let offset = epoch * inputs.frames_per_pass;
        for round in 0..inputs.stream_cells[0].len() {
            for (det, cells) in dets.iter_mut().zip(&inputs.stream_cells) {
                let (frame, cell) = cells[round];
                black_box(det.push_keyframe(offset + frame, cell));
            }
        }
        epoch += 1;
    };
    let mut secs = Vec::new();
    for _ in 0..COUNT_EPOCHS {
        secs.push(timed(|| pass(&mut dets)).0);
    }
    let mut stats = Stats::default();
    for d in &dets {
        stats.merge(d.stats());
    }
    secs.extend(repeat_for(slice, || pass(&mut dets)));

    let w = stats.windows as f64;
    out.set("core.sig_encodes_per_window", stats.sig_encodes as f64 / w);
    out.set("core.sig_ors_per_window", stats.sig_ors as f64 / w);
    out.set("core.sig_compares_per_window", stats.sig_compares as f64 / w);
    out.set("core.lemma2_prunes_per_window", stats.lemma2_prunes as f64 / w);
    out.set("core.length_expiries_per_window", stats.length_expiries as f64 / w);
    out.set("core.live_signatures_avg", stats.avg_signatures());
    out.set("core.live_signatures_peak", stats.live_signature_peak as f64);
    out.set("core.detections", stats.detections as f64);

    let detector_ns_per_kf = median(&secs) * NS / kf;
    out.set("core.detector_ns_per_kf", detector_ns_per_kf);
    // Estimated: the standalone fold and probe run cache-hot, so this is
    // an upper bound on what the candidate store costs inside the detector.
    let fold = out.get("sketch.fold_ns_per_window").expect("sketch layer ran first");
    let probe = out.get("core.probe_ns_per_window").expect("probe layer ran first");
    out.set(
        "core.store_ns_per_window",
        detector_ns_per_kf * sut::WINDOW_KEYFRAMES as f64 - fold - probe,
    );
}

/// One epoch of precomputed cells through `AnyFleet::push_batch`.
fn fleet_epoch(
    inputs: &Inputs,
    fleet: &mut AnyFleet,
    epoch: u64,
    batch: &mut Vec<(StreamId, u64, u64)>,
) {
    let offset = epoch * inputs.frames_per_pass;
    for round in 0..inputs.stream_cells[0].len() {
        batch.clear();
        for (s, cells) in inputs.stream_cells.iter().enumerate() {
            let (frame, cell) = cells[round];
            batch.push((s as StreamId, offset + frame, cell));
        }
        black_box(fleet.push_batch(batch).expect("every stream is attached"));
    }
}

/// `AnyFleet::push_batch` on precomputed cells at `shards` = 1 (on the
/// caller's fleet, continuing at `*epoch`) and 2 (a fresh one), and the
/// fleet's cost over the bare detectors.
pub fn fleets(
    inputs: &Inputs,
    fleet: &mut AnyFleet,
    epoch: &mut u64,
    sharded: &mut AnyFleet,
    slice: Duration,
    out: &mut Values,
) {
    let kf = inputs.keyframes_per_pass() as f64;
    let mut batch = Vec::with_capacity(STREAMS);
    let secs = repeat_for(slice, || {
        fleet_epoch(inputs, fleet, *epoch, &mut batch);
        *epoch += 1;
    });
    let fleet_ns = median(&secs) * NS / kf;
    out.set("core.fleet_ns_per_kf", fleet_ns);
    let bare = out.get("core.detector_ns_per_kf").expect("detector layer ran first");
    out.set("core.fleet_overhead_ns_per_kf", fleet_ns - bare);

    let mut e = 0;
    let secs = repeat_for(slice, || {
        fleet_epoch(inputs, sharded, e, &mut batch);
        e += 1;
    });
    out.set("core.fleet_sharded2_ns_per_kf", median(&secs) * NS / kf);
}

/// Subscribe and unsubscribe one fresh decoy at a time on a fleet with
/// its streams live; returns (subscribe, unsubscribe) seconds per call.
pub fn subscription_pairs(
    inputs: &Inputs,
    fleet: &mut AnyFleet,
    slice: Duration,
    failed: &mut u64,
) -> (Vec<f64>, Vec<f64>) {
    let family = Detector::family_for(fleet.config());
    let started = Instant::now();
    let (mut subs, mut unsubs) = (Vec::new(), Vec::new());
    // Ids far above any catalogue's, so a pair never collides with it.
    for i in 0..400u32 {
        if i >= 20 && started.elapsed() >= slice {
            break;
        }
        let id = 1_000_000 + i;
        let query = Query::from_cell_ids(id, &family, &crate::inputs::decoy(inputs, u64::from(id)));
        let (s, ok) = timed(|| fleet.subscribe(query).is_ok());
        subs.push(s);
        let (u, gone) = timed(|| fleet.unsubscribe(id));
        unsubs.push(u);
        *failed += u64::from(!ok) + u64::from(!matches!(gone, Ok(true)));
    }
    (subs, unsubs)
}

pub fn subscription(
    inputs: &Inputs,
    fleet: &mut AnyFleet,
    slice: Duration,
    out: &mut Values,
) -> u64 {
    let mut failed = 0;
    let (subs, unsubs) = subscription_pairs(inputs, fleet, slice, &mut failed);
    let us = |v: &[f64]| v.iter().map(|s| s * 1e6).collect::<Vec<f64>>();
    out.set("core.subscribe_us_p50", median(&us(&subs)));
    out.set("core.subscribe_us_p95", tail(&us(&subs), 0.95));
    out.set("core.unsubscribe_us_p50", median(&us(&unsubs)));
    failed
}

/// Cut a bitstream into the chunks a client sends.
pub fn chunks(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    stream.chunks(CHUNK_BYTES)
}

/// The serve layer's in-process parts: `ChunkedIngest` reassembly on the
/// wire's chunking, and encoding and parsing one `StreamData` frame.
pub fn serve_in_process(inputs: &Inputs, slice: Duration, out: &mut Values) {
    let kf = inputs.keyframes_per_pass() as f64;
    let mut fps = Vec::new();
    let secs = repeat_for(slice, || {
        for stream in &inputs.streams {
            let mut ingest = sut::chunked_ingest();
            for chunk in chunks(stream) {
                fps.clear();
                ingest.push_chunk(chunk, &mut fps).expect("clean stream ingests");
                black_box(fps.len());
            }
            fps.clear();
            ingest.finish(&mut fps).expect("clean stream ends");
        }
    });
    out.set("serve.chunk_ingest_ns_per_kf", median(&secs) * NS / kf);

    let requests: Vec<Request> = inputs
        .streams
        .iter()
        .enumerate()
        .flat_map(|(s, stream)| {
            chunks(stream)
                .map(move |c| Request::StreamData { stream_id: s as u32, bytes: c.to_vec() })
        })
        .collect();
    let mut frames = Vec::new();
    let secs = repeat_for(slice / 2, || {
        frames.clear();
        frames.extend(requests.iter().map(sut::encode_request));
    });
    out.set("serve.wire_encode_ns_per_chunk", median(&secs) * NS / requests.len() as f64);
    let secs = repeat_for(slice / 2, || {
        for frame in &frames {
            black_box(sut::parse_request(&frame[sut::LEN_PREFIX..]).expect("own frame parses"));
        }
    });
    out.set("serve.wire_parse_ns_per_chunk", median(&secs) * NS / requests.len() as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_for_runs_at_least_twice_and_until_the_slice_ends() {
        let mut n = 0;
        let secs = repeat_for(Duration::ZERO, || n += 1);
        assert_eq!((n, secs.len()), (2, 2));
        let secs =
            repeat_for(Duration::from_millis(20), || std::thread::sleep(Duration::from_millis(3)));
        assert!(secs.len() >= 3 && secs.iter().sum::<f64>() >= 0.02);
    }
}
