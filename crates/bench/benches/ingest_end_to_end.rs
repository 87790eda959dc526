//! End-to-end ingestion throughput: compressed bitstream bytes →
//! detections, through the whole front-end (partial decode → feature
//! extraction → fingerprint) and the detector fleet behind it.
//!
//! The front-end is the fused streaming pipeline: `FingerprintStream`
//! yields `(frame_index, cell_id)` straight from the bytes with pooled
//! buffers and a memoized `RegionPlan` (steady-state allocation-free).
//! It is measured alone (`fused_frontend_only`) and in front of a
//! [`Fleet`] at `shards` = 1 (inline) and 4 (worker threads), both fed by
//! synchronous `push_batch`. Fleets persist across iterations with
//! shifted frame indices, so numbers are steady-state streaming
//! throughput in key frames per second. Two streams periodically re-air
//! catalogue clips, so real detections (and their event allocations) are
//! part of the measured work.
//!
//! `BENCH_ingest.json` is the historical record of these rows (and of the
//! retired materializing `legacy_*` rows they replaced); the repository
//! benchmark under `benchmark/` is what changes are judged by now.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use vdsms_codec::{Encoder, EncoderConfig, PartialDecoder};
use vdsms_core::{Detector, DetectorConfig, Fleet, Query, StreamId};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms_video::source::{ClipGenerator, SourceSpec};
use vdsms_video::Fps;

const STREAMS: u64 = 8;
const STREAM_SECONDS: f64 = 60.0;
const QUERIES: u32 = 8;
const QUERY_SECONDS: f64 = 12.0;

const ENC: EncoderConfig = EncoderConfig { gop: 5, quality: 80, motion_search: true };

fn cfg(shards: usize) -> DetectorConfig {
    DetectorConfig { window_keyframes: 8, shards, ..Default::default() }
}

fn spec(seed: u64) -> SourceSpec {
    SourceSpec {
        width: 176,
        height: 120,
        fps: Fps::integer(10),
        seed,
        min_scene_s: 2.0,
        max_scene_s: 6.0,
        motifs: None,
    }
}

/// Encode the query catalogue and the broadcast streams. Streams 3 and 6
/// carry a planted query clip mid-broadcast (a detection per airing).
fn encode_workload() -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let queries: Vec<_> =
        (0..QUERIES).map(|q| ClipGenerator::new(spec(500 + u64::from(q))).clip(QUERY_SECONDS)).collect();
    let streams: Vec<Vec<u8>> = (0..STREAMS)
        .map(|s| {
            let planted = match s {
                3 => Some(&queries[1]),
                6 => Some(&queries[5]),
                _ => None,
            };
            let mut clip = ClipGenerator::new(spec(900 + s)).clip(STREAM_SECONDS / 2.0);
            if let Some(q) = planted {
                clip.append(q.clone());
            }
            clip.append(
                ClipGenerator::new(spec(950 + s))
                    .clip(STREAM_SECONDS / 2.0 - planted.map_or(0.0, |_| QUERY_SECONDS)),
            );
            Encoder::encode_clip(&clip, ENC)
        })
        .collect();
    let query_bytes: Vec<Vec<u8>> = queries.iter().map(|c| Encoder::encode_clip(c, ENC)).collect();
    (query_bytes, streams)
}

fn catalogue(cfg: &DetectorConfig, extractor: &FeatureExtractor, query_bytes: &[Vec<u8>]) -> Vec<Query> {
    let family = Detector::family_for(cfg);
    query_bytes
        .iter()
        .enumerate()
        .map(|(id, bytes)| {
            let dcs = PartialDecoder::new(bytes).unwrap().decode_all().unwrap();
            let cells = extractor.fingerprint_sequence(&dcs);
            Query::from_cell_ids(id as u32, &family, &cells)
        })
        .collect()
}

fn fleet_for(cfg: DetectorConfig, queries: &[Query]) -> Fleet {
    let mut fleet = Fleet::new(cfg);
    for s in 0..STREAMS {
        fleet.add_stream(s as StreamId).unwrap();
    }
    for q in queries {
        fleet.subscribe(q.clone()).unwrap();
    }
    fleet
}

/// Keyframes per stream (streams are encoded identically long).
fn keyframes_per_stream(bytes: &[u8]) -> u64 {
    let mut n = 0;
    let mut dec = PartialDecoder::new(bytes).unwrap();
    while dec.next_dc_frame().unwrap().is_some() {
        n += 1;
    }
    n
}

/// The fused front-end: each stream's bytes flow through a persistent
/// `FingerprintStream` (pooled DC frame, memoized region plan); batches
/// are built by pulling one key frame per stream per round.
fn run_fused(
    ingests: &mut [FingerprintStream<'_>],
    fleet: &mut Fleet,
    frame_offset: u64,
    batch: &mut Vec<(StreamId, u64, u64)>,
) -> usize {
    let mut detections = 0;
    loop {
        batch.clear();
        for (i, ingest) in ingests.iter_mut().enumerate() {
            if let Some((frame_index, cell)) = ingest.next_fingerprint().unwrap() {
                batch.push((i as StreamId, frame_offset + frame_index, cell));
            }
        }
        if batch.is_empty() {
            break;
        }
        detections += fleet.push_batch(batch).unwrap().len();
    }
    detections
}

fn bench_ingest(c: &mut Criterion) {
    let (query_bytes, streams) = encode_workload();
    let extractor = FeatureExtractor::new(FeatureConfig::default());
    let kf_per_iter: u64 = streams.iter().map(|b| keyframes_per_stream(b)).sum();
    // Frame indices keep growing across iterations so persistent fleets
    // see one endless broadcast; streams are `STREAM_SECONDS` at 10 fps.
    let frames_per_epoch = (STREAM_SECONDS * 10.0) as u64;

    let mut g = c.benchmark_group("ingest_end_to_end");
    g.sample_size(10);
    g.throughput(Throughput::Elements(kf_per_iter));

    // Front-end only: decode → fingerprint with no fleet behind it. The
    // gap between this and `fused_serial` is the detector-side cost
    // (window sketching, index probe, candidate stores).
    {
        let mut ingests: Vec<FingerprintStream<'_>> = streams
            .iter()
            .map(|b| FingerprintStream::new(b, extractor.clone()).unwrap())
            .collect();
        g.bench_function("fused_frontend_only", |bench| {
            bench.iter(|| {
                let mut acc = 0u64;
                for (ingest, bytes) in ingests.iter_mut().zip(&streams) {
                    ingest.reopen(bytes).unwrap();
                    while let Some((_, cell)) = ingest.next_fingerprint().unwrap() {
                        acc = acc.wrapping_add(cell);
                    }
                }
                black_box(acc)
            });
        });
    }

    for (name, shards) in [("fused_serial", 1usize), ("fused_sharded4", 4)] {
        let cfg = cfg(shards);
        let queries = catalogue(&cfg, &extractor, &query_bytes);
        let mut fleet = fleet_for(cfg, &queries);
        // Persistent ingestion front-ends: `reopen` per iteration keeps
        // every pooled buffer warm, so this measures the steady state.
        let mut ingests: Vec<FingerprintStream<'_>> = streams
            .iter()
            .map(|b| FingerprintStream::new(b, extractor.clone()).unwrap())
            .collect();
        let mut batch = Vec::with_capacity(STREAMS as usize);
        let mut epoch = 0u64;
        g.bench_function(name, |bench| {
            bench.iter(|| {
                for (ingest, bytes) in ingests.iter_mut().zip(&streams) {
                    ingest.reopen(bytes).unwrap();
                }
                let dets =
                    run_fused(&mut ingests, &mut fleet, epoch * frames_per_epoch, &mut batch);
                epoch += 1;
                black_box(dets)
            });
        });
    }

    g.finish();
}

criterion_group!(benches, bench_ingest);
criterion_main!(benches);
