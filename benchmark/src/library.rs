//! The three library-path workloads: bitstream bytes -> `FingerprintStream`
//! -> `AnyFleet::push_batch` in this process.
//!
//! One epoch is one pass of all 8 streams, a key frame per stream per
//! round; frame indices keep advancing, so the fleet sees one endless
//! broadcast. A run measures epochs for `--seconds`.

use crate::inputs::{self, Inputs, Kind, REAL_QUERIES, STREAMS};
use crate::layers;
use crate::metrics::{median, Values};
use crate::procstat;
use crate::sut::{
    self, AnyFleet, DcFrame, Detector, DetectorConfig, FingerprintStream, HashColumnCache, HqIndex,
    MinHashFamily, PartialDecoder, ProbeScratch, Query, QuerySet, Sketch, StreamDetection,
    StreamId,
};
use crate::trace::{Tracer, ALL_STREAMS};
use crate::{Opts, Outcome};
use std::io;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Epochs checked, detection by detection, against serial detectors.
/// Later epochs must repeat epoch `ORACLE_EPOCHS - 1` shifted in time:
/// the streams repeat and no candidate outlives two passes, so from the
/// third epoch on the fleet's state is periodic.
const ORACLE_EPOCHS: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BroadcastFanin,
    Catalogue1k,
    SubscriptionChurn,
}

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::BroadcastFanin => "broadcast_fanin",
            Workload::Catalogue1k => "catalogue_1k",
            Workload::SubscriptionChurn => "subscription_churn",
        }
    }

    /// Decoy queries beside the 8 real ones.
    fn decoys(self) -> u64 {
        match self {
            Workload::BroadcastFanin => 0,
            Workload::Catalogue1k | Workload::SubscriptionChurn => 1016,
        }
    }

    fn churns(self) -> bool {
        self == Workload::SubscriptionChurn
    }
}

/// Cell ids of the workload's catalogue; query id = index.
fn catalogue(inputs: &Inputs, decoys: u64) -> Vec<Vec<u64>> {
    let mut cells = inputs.queries.clone();
    cells.extend((0..decoys).map(|i| inputs::decoy(inputs, i)));
    cells
}

fn decoy_id(index: u64) -> u32 {
    REAL_QUERIES as u32 + index as u32
}

/// Sketch a catalogue; query id = index.
fn sketched(catalogue: &[Vec<u64>]) -> Vec<Query> {
    let family = Detector::family_for(&sut::detector_config(1));
    let query = |(id, cells): (usize, &Vec<u64>)| Query::from_cell_ids(id as u32, &family, cells);
    catalogue.iter().enumerate().map(query).collect()
}

/// The system's own preparation, which `setup_s` times: sketch the
/// catalogue, subscribe every query, attach `streams` streams.
pub fn set_up(catalogue: &[Vec<u64>], shards: usize, streams: usize) -> AnyFleet {
    let mut fleet = AnyFleet::new(sut::detector_config(shards));
    for query in sketched(catalogue) {
        fleet.subscribe(query).expect("fresh fleet subscribes");
    }
    for s in 0..streams {
        fleet.add_stream(s as StreamId).expect("fresh fleet attaches");
    }
    fleet
}

/// `subscription_churn`'s writes: after epoch `e`, decoy `decoys + e` is
/// sketched and subscribed and decoy `e`, the oldest, unsubscribed, so the
/// catalogue size stays put.
struct Churn {
    decoys: u64,
    family: MinHashFamily,
}

/// When the three parts of one churn step began and ended.
struct ChurnStep {
    started: Instant,
    sketched: Instant,
    subscribed: Instant,
    unsubscribed: Instant,
}

impl Churn {
    fn new(workload: Workload) -> Churn {
        Churn { decoys: workload.decoys(), family: Detector::family_for(&sut::detector_config(1)) }
    }

    fn fresh_query(&self, inputs: &Inputs, epoch: u64) -> Query {
        let fresh = self.decoys + epoch;
        Query::from_cell_ids(decoy_id(fresh), &self.family, &inputs::decoy(inputs, fresh))
    }

    fn step(
        &self,
        inputs: &Inputs,
        fleet: &mut AnyFleet,
        epoch: u64,
        failed: &mut u64,
    ) -> ChurnStep {
        let started = Instant::now();
        let query = self.fresh_query(inputs, epoch);
        let sketched = Instant::now();
        let ok = fleet.subscribe(query).is_ok();
        let subscribed = Instant::now();
        let gone = fleet.unsubscribe(decoy_id(epoch));
        let unsubscribed = Instant::now();
        *failed += u64::from(!ok) + u64::from(!matches!(gone, Ok(true)));
        ChurnStep { started, sketched, subscribed, unsubscribed }
    }
}

/// The fused front end of every stream, kept across epochs so its pooled
/// buffers stay warm.
struct FrontEnd<'a> {
    streams: &'a [Vec<u8>],
    fused: Vec<FingerprintStream<'a>>,
    batch: Vec<(StreamId, u64, u64)>,
}

impl<'a> FrontEnd<'a> {
    fn new(streams: &'a [Vec<u8>]) -> FrontEnd<'a> {
        let fused = streams
            .iter()
            .map(|s| {
                FingerprintStream::new(s, sut::extractor()).expect("generated bitstream opens")
            })
            .collect();
        FrontEnd { streams, fused, batch: Vec::with_capacity(streams.len()) }
    }

    /// One epoch: bytes in, detections out. Each round that returns
    /// detections adds one latency sample, from handing the system the
    /// round's bytes to holding its detections. Returns `push_batch` calls
    /// made and failed.
    fn epoch(
        &mut self,
        fleet: &mut AnyFleet,
        frame_offset: u64,
        detections: &mut Vec<StreamDetection>,
        latencies_s: &mut Vec<f64>,
    ) -> (u64, u64) {
        for (fs, bytes) in self.fused.iter_mut().zip(self.streams) {
            fs.reopen(bytes).expect("generated bitstream opens");
        }
        let (mut calls, mut failed) = (0, 0);
        loop {
            let round = Instant::now();
            self.batch.clear();
            for (s, fs) in self.fused.iter_mut().enumerate() {
                if let Some((frame, cell)) =
                    fs.next_fingerprint().expect("generated bitstream decodes")
                {
                    self.batch.push((s as StreamId, frame_offset + frame, cell));
                }
            }
            if self.batch.is_empty() {
                return (calls, failed);
            }
            calls += 1;
            match fleet.push_batch(&self.batch) {
                Ok(found) if found.is_empty() => {}
                Ok(found) => {
                    latencies_s.push(round.elapsed().as_secs_f64());
                    detections.extend(found);
                }
                Err(_) => failed += 1,
            }
        }
    }
}

/// What the traced epochs replay beside the fleet, to split core time.
struct Replay {
    cfg: DetectorConfig,
    family: MinHashFamily,
    index: Arc<HqIndex>,
    caches: Vec<HashColumnCache>,
    windows: Vec<Vec<u64>>,
    sketch: Sketch,
    scratch: ProbeScratch,
    hits: Vec<sut::ProbeHit>,
}

/// One epoch driven unfused, with a span around every call into a layer:
/// per round `codec.decode` -> `features.fingerprint` -> `core.push_batch`,
/// and on window boundaries `sketch.fold` and `core.probe` replayed on the
/// window the fleet just consumed (children of that `push_batch`; they run
/// after it, so they take nothing from its self time).
fn traced_epoch(
    tracer: &mut Tracer,
    epoch: u32,
    streams: &[Vec<u8>],
    fleet: &mut AnyFleet,
    frame_offset: u64,
    replay: &mut Replay,
    detections: &mut Vec<StreamDetection>,
) {
    let extractor = sut::extractor();
    let root = tracer.open("epoch", None, epoch, ALL_STREAMS);
    let mut decoders: Vec<PartialDecoder<'_>> = streams
        .iter()
        .map(|s| PartialDecoder::new(s).expect("generated bitstream opens"))
        .collect();
    let mut frames: Vec<DcFrame> = streams.iter().map(|_| DcFrame::empty()).collect();
    let mut scratch: Vec<_> = streams.iter().map(|_| extractor.scratch()).collect();
    let mut have = vec![false; streams.len()];
    let mut batch = Vec::with_capacity(streams.len());
    loop {
        let span = tracer.open("codec.decode", Some(root), epoch, ALL_STREAMS);
        for ((dec, frame), have) in decoders.iter_mut().zip(&mut frames).zip(&mut have) {
            *have = dec.next_dc_frame_into(frame).expect("generated bitstream decodes");
        }
        tracer.close(span);
        if !have.contains(&true) {
            break;
        }
        let span = tracer.open("features.fingerprint", Some(root), epoch, ALL_STREAMS);
        batch.clear();
        for (s, frame) in frames.iter().enumerate().filter(|&(s, _)| have[s]) {
            let cell = extractor.fingerprint_into(&mut scratch[s], frame);
            batch.push((s as StreamId, frame_offset + frame.frame_index, cell));
        }
        tracer.close(span);
        let push = tracer.open("core.push_batch", Some(root), epoch, ALL_STREAMS);
        detections.extend(fleet.push_batch(&batch).expect("every stream is attached"));
        tracer.close(push);
        for &(s, _, cell) in &batch {
            let window = &mut replay.windows[s as usize];
            window.push(cell);
            if window.len() == replay.cfg.window_keyframes {
                let span = tracer.open("sketch.fold", Some(push), epoch, s);
                replay.sketch.reset(replay.cfg.k);
                replay.sketch.observe_batch_cached(
                    &replay.family,
                    &mut replay.caches[s as usize],
                    window,
                );
                tracer.close(span);
                let span = tracer.open("core.probe", Some(push), epoch, s);
                replay.index.probe_into(
                    &replay.sketch,
                    replay.cfg.pruning_delta(),
                    &mut replay.scratch,
                    &mut replay.hits,
                );
                tracer.close(span);
                for hit in replay.hits.drain(..) {
                    replay.scratch.recycle_sig(hit.sig);
                }
                window.clear();
            }
        }
    }
    tracer.close(root);
}

fn shifted(detections: &[StreamDetection], frames: u64) -> Vec<StreamDetection> {
    let mut out = detections.to_vec();
    for d in &mut out {
        d.detection.start_frame += frames;
        d.detection.end_frame += frames;
    }
    out
}

/// Positions at which two detection lists differ (bit for bit).
fn differences(expected: &[StreamDetection], got: &[StreamDetection]) -> u64 {
    (0..expected.len().max(got.len())).filter(|&i| expected.get(i) != got.get(i)).count() as u64
}

/// Check a run's detections, epoch by epoch. The first [`ORACLE_EPOCHS`]
/// must equal, bit for bit, one serial `Detector` per stream fed the same
/// fingerprints and the same subscription changes; later epochs must
/// repeat the last checked one; and every planted airing must be found in
/// every epoch.
fn verify(
    workload: Workload,
    inputs: &Inputs,
    catalogue: &[Vec<u64>],
    epochs: &[Vec<StreamDetection>],
    outcome: &mut Outcome,
) {
    let cfg = sut::detector_config(1);
    let churn = Churn::new(workload);
    let mut set = Arc::new(QuerySet::from_queries(sketched(catalogue)));
    let mut index = Arc::new(HqIndex::build(cfg.k, &set));
    let mut oracle: Vec<Detector> = (0..STREAMS)
        .map(|_| Detector::with_shared(cfg, Arc::clone(&set), Some(Arc::clone(&index))))
        .collect();
    for (e, got) in epochs.iter().enumerate().take(ORACLE_EPOCHS) {
        let offset = e as u64 * inputs.frames_per_pass;
        let mut expected = Vec::new();
        for round in 0..inputs.stream_cells[0].len() {
            for (s, det) in oracle.iter_mut().enumerate() {
                let (frame, cell) = inputs.stream_cells[s][round];
                expected.extend(
                    det.push_keyframe(offset + frame, cell)
                        .into_iter()
                        .map(|detection| StreamDetection { stream_id: s as StreamId, detection }),
                );
            }
        }
        if workload.churns() {
            let fresh = churn.fresh_query(inputs, e as u64);
            Arc::make_mut(&mut index).insert(&fresh);
            Arc::make_mut(&mut index).remove(decoy_id(e as u64));
            Arc::make_mut(&mut set).insert(fresh);
            Arc::make_mut(&mut set).remove(decoy_id(e as u64));
            for det in &mut oracle {
                det.install_catalogue(Arc::clone(&set), Some(Arc::clone(&index)));
            }
        }
        outcome.expect(expected.len() as u64, differences(&expected, got), || {
            format!("epoch {e}: fleet detections differ from the serial detectors'")
        });
    }
    let reference = ORACLE_EPOCHS - 1;
    for (e, got) in epochs.iter().enumerate().skip(ORACLE_EPOCHS) {
        let expected = shifted(&epochs[reference], (e - reference) as u64 * inputs.frames_per_pass);
        outcome.expect(expected.len() as u64, differences(&expected, got), || {
            format!("epoch {e}: detections do not repeat epoch {reference}")
        });
    }
    for (e, got) in epochs.iter().enumerate() {
        let offset = e as u64 * inputs.frames_per_pass;
        for p in &inputs.plants {
            let found = got.iter().any(|d| {
                d.stream_id == p.stream as StreamId
                    && d.detection.query_id == p.query
                    && d.detection.start_frame < offset + p.end_frame
                    && d.detection.end_frame >= offset + p.start_frame
            });
            outcome.expect(1, u64::from(!found), || {
                format!(
                    "epoch {e}: planted airing of query {} on stream {} not found",
                    p.query, p.stream
                )
            });
        }
    }
}

/// Load the broadcast inputs and make the workload's catalogue.
fn load(
    workload: Workload,
    opts: &Opts,
    outcome: &mut Outcome,
) -> io::Result<(Inputs, Vec<Vec<u64>>)> {
    let inputs = inputs::load(&opts.cache_dir, Kind::Broadcast, opts.seed)?;
    let digest = inputs::digest_with_decoys(&inputs, workload.decoys());
    outcome.note("inputs_digest", format!("{digest:016x}"));
    let catalogue = catalogue(&inputs, workload.decoys());
    Ok((inputs, catalogue))
}

/// The untraced run: the six end-to-end metrics.
pub fn run(workload: Workload, opts: &Opts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let (inputs, catalogue) = load(workload, opts, &mut outcome)?;
    let kf = inputs.keyframes_per_pass();

    // Set up at least `setup_repeats` times and, while a set-up is cheap,
    // until 0.1 s has gone; the last fleet is the one used.
    let (mut setup_s, mut fleet) = (Vec::new(), None);
    let started = Instant::now();
    while setup_s.len() < opts.setup_repeats
        || (started.elapsed() < Duration::from_millis(100) && setup_s.len() < 31)
    {
        drop(fleet.take()); // before the next is built, not after
        let (s, f) = layers::timed(|| set_up(&catalogue, 1, STREAMS));
        setup_s.push(s);
        fleet = Some(f);
    }
    let mut fleet = fleet.expect("set up at least once");
    outcome.metrics.set("setup_s", median(&setup_s));
    outcome.note("setup_s.n", setup_s.len());

    let mut front = FrontEnd::new(&inputs.streams);
    let churn = Churn::new(workload);
    let mut epochs: Vec<Vec<StreamDetection>> = Vec::new();
    let (mut epoch_s, mut latency_s) = (Vec::new(), Vec::new());
    let (mut subscribe_s, mut unsubscribe_s) = (Vec::new(), Vec::new());
    let (mut calls, mut failed) = (0, 0);
    let mut cpu = procstat::CpuMeter::start();
    let region = Instant::now();
    while epochs.len() < ORACLE_EPOCHS || region.elapsed().as_secs_f64() < opts.seconds {
        let e = epochs.len() as u64;
        let mut found = Vec::new();
        let started = Instant::now();
        let (c, f) =
            front.epoch(&mut fleet, e * inputs.frames_per_pass, &mut found, &mut latency_s);
        if workload.churns() {
            let step = churn.step(&inputs, &mut fleet, e, &mut failed);
            subscribe_s.push((step.subscribed - step.sketched).as_secs_f64());
            unsubscribe_s.push((step.unsubscribed - step.subscribed).as_secs_f64());
            calls += 2;
        }
        epoch_s.push(started.elapsed().as_secs_f64());
        calls += c;
        failed += f;
        epochs.push(found);
        cpu.did(kf);
    }
    let cpu_s_per_kf = cpu.seconds_per_unit();
    if !workload.churns() {
        let slice = Duration::from_secs_f64(opts.seconds / 10.0);
        let pairs = layers::subscription_pairs(&inputs, &mut fleet, slice, &mut failed);
        calls += 2 * pairs.0.len() as u64;
        (subscribe_s, unsubscribe_s) = pairs;
    }
    // Before the oracle below allocates its own catalogue.
    outcome.metrics.set("peak_rss_mb", procstat::peak_rss_mb("self"));
    outcome.expect(calls, failed, || "a fleet call failed".to_string());

    let rates: Vec<f64> = epoch_s.iter().map(|s| kf as f64 / s).collect();
    outcome.metrics.set("ingest_kf_per_s", median(&rates));
    outcome.metrics.set("cpu_us_per_kf", cpu_s_per_kf * 1e6);
    outcome.metrics.set("subscribe_ms_p50", median(&subscribe_s) * 1e3);
    outcome.note("ingest_kf_per_s.n", epoch_s.len());
    outcome.note("subscribe_ms_p50.n", subscribe_s.len());
    outcome.note("unsubscribe_ms_p50", median(&unsubscribe_s) * 1e3);
    outcome.note("keyframes", kf * epochs.len() as u64);
    outcome.note("detections", epochs.iter().map(Vec::len).sum::<usize>());

    verify(workload, &inputs, &catalogue, &epochs, &mut outcome);
    // A run with no detection has no latency; the plant check above has
    // then already failed it.
    if !latency_s.is_empty() {
        outcome.metrics.set("detect_latency_ms_p50", median(&latency_s) * 1e3);
    }
    outcome.note("detect_latency_ms_p50.n", latency_s.len());
    Ok(outcome)
}

/// The layers below the fleet, each alone on `inputs` and `catalogue`:
/// codec, features, sketch, the index, the bare detectors, and the serve
/// layer's in-process parts. Returns the catalogue's index.
pub fn layer_metrics(
    inputs: &Inputs,
    catalogue: &[Vec<u64>],
    slice: Duration,
    out: &mut Values,
) -> Arc<HqIndex> {
    out.set("workload.generate_s", inputs.generate_s);
    layers::codec(inputs, slice, out);
    layers::features(inputs, slice, out);
    layers::sketch(inputs, catalogue, slice, out);
    let (set, index) = layers::probe(inputs, &sketched(catalogue), slice, out);
    layers::detectors(inputs, &set, &index, slice, out);
    layers::serve_in_process(inputs, slice, out);
    index
}

/// The fleet layer: `push_batch` on `fleet` (serial, already set up, its
/// streams at `epoch`) and on a fresh 2-shard fleet, then subscription
/// round trips on `fleet`. Failed calls are counted into `outcome`.
pub fn fleet_metrics(
    inputs: &Inputs,
    catalogue: &[Vec<u64>],
    fleet: &mut AnyFleet,
    mut epoch: u64,
    slice: Duration,
    outcome: &mut Outcome,
) {
    let mut sharded = set_up(catalogue, 2, STREAMS);
    layers::fleets(inputs, fleet, &mut epoch, &mut sharded, slice, &mut outcome.metrics);
    drop(sharded);
    let failed = layers::subscription(inputs, fleet, slice, &mut outcome.metrics);
    outcome.expect(0, failed, || "a subscribe or unsubscribe call failed".to_string());
}

/// The traced run: every layer alone, then epochs alternating between the
/// fused untraced path and the unfused traced one on one fleet.
pub fn run_traced(workload: Workload, opts: &Opts) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let (inputs, catalogue) = load(workload, opts, &mut outcome)?;
    let slice = Duration::from_secs_f64(opts.seconds / 10.0);
    let index = layer_metrics(&inputs, &catalogue, slice, &mut outcome.metrics);

    let cfg = sut::detector_config(1);
    let family = Detector::family_for(&cfg);
    let mut replay = Replay {
        cfg,
        caches: (0..STREAMS).map(|_| HashColumnCache::new(&family, sut::HASH_CACHE_WAYS)).collect(),
        family,
        index,
        windows: vec![Vec::new(); STREAMS],
        sketch: Sketch::empty(cfg.k),
        scratch: ProbeScratch::default(),
        hits: Vec::new(),
    };
    let mut fleet = set_up(&catalogue, 1, STREAMS);
    let mut tracer = Tracer::new();
    let mut front = FrontEnd::new(&inputs.streams);
    let churn = Churn::new(workload);
    let mut epochs: Vec<Vec<StreamDetection>> = Vec::new();
    let mut untraced_s = Vec::new();
    let (mut calls, mut failed) = (0, 0);
    let region = Instant::now();
    // Even epochs run as the untraced run does, odd ones traced.
    while epochs.len() < ORACLE_EPOCHS || region.elapsed() < 3 * slice {
        let e = epochs.len() as u64;
        let traced = e % 2 == 1;
        let offset = e * inputs.frames_per_pass;
        let mut found = Vec::new();
        let started = Instant::now();
        if traced {
            traced_epoch(
                &mut tracer,
                e as u32,
                &inputs.streams,
                &mut fleet,
                offset,
                &mut replay,
                &mut found,
            );
        } else {
            let (c, f) = front.epoch(&mut fleet, offset, &mut found, &mut Vec::new());
            calls += c;
            failed += f;
        }
        if workload.churns() {
            let step = churn.step(&inputs, &mut fleet, e, &mut failed);
            calls += 2;
            if traced {
                let unit = e as u32;
                tracer.record(
                    "sketch.query_build",
                    None,
                    unit,
                    ALL_STREAMS,
                    step.started,
                    step.sketched,
                );
                tracer.record(
                    "core.subscribe",
                    None,
                    unit,
                    ALL_STREAMS,
                    step.sketched,
                    step.subscribed,
                );
                tracer.record(
                    "core.unsubscribe",
                    None,
                    unit,
                    ALL_STREAMS,
                    step.subscribed,
                    step.unsubscribed,
                );
            }
        }
        if !traced {
            untraced_s.push(started.elapsed().as_secs_f64());
        }
        epochs.push(found);
    }
    outcome.expect(calls, failed, || "a fleet call failed".to_string());

    // Per traced epoch: the layers' self time, and the wall time without
    // the replays (which the untraced path does not run).
    let mut layers_s = vec![0.0; epochs.len()];
    let mut wall_s = vec![0.0; epochs.len()];
    for (span, own_ns) in tracer.spans().iter().zip(tracer.self_times_ns()) {
        let (e, seconds) = (span.unit as usize, span.duration_ns() as f64 / 1e9);
        match span.name {
            "epoch" => wall_s[e] += seconds,
            "sketch.fold" | "core.probe" => wall_s[e] -= seconds,
            _ => {
                layers_s[e] += own_ns as f64 / 1e9;
                if span.parent.is_none() {
                    wall_s[e] += seconds;
                }
            }
        }
    }
    let traced = |v: &[f64]| v.iter().skip(1).step_by(2).copied().collect::<Vec<f64>>();
    let untraced = median(&untraced_s);
    let out = &mut outcome.metrics;
    out.set("trace.overhead_ratio", median(&traced(&wall_s)) / untraced);
    out.set(
        "trace.budget_residual_ratio",
        (median(&traced(&layers_s)) - untraced).abs() / untraced,
    );
    outcome.note("trace.untraced_epoch_ms", untraced * 1e3);
    outcome.note("trace.epochs", epochs.len() / 2);
    for (name, ns) in tracer.self_ns_by_name(|s| s.name != "epoch") {
        outcome.note(
            &format!("trace.self_ms_per_epoch.{name}"),
            ns as f64 / 1e6 / (epochs.len() / 2) as f64,
        );
    }

    fleet_metrics(&inputs, &catalogue, &mut fleet, epochs.len() as u64, slice, &mut outcome);
    verify(workload, &inputs, &catalogue, &epochs, &mut outcome);
    crate::zero_fill_layers(&mut outcome.metrics);
    std::fs::create_dir_all(&opts.out_dir)?;
    tracer.write_json(
        workload.name(),
        &opts.out_dir.join(format!("trace-{}.json", workload.name())),
    )?;
    Ok(outcome)
}
