//! # vdsms-cli — command-line tools for the copy-detection system
//!
//! One binary, four subcommands, mirroring a real deployment's workflow:
//!
//! ```text
//! vdsms generate --seed 7 --seconds 30 --out clip.vdsm      # synthetic test video
//! vdsms inspect clip.vdsm                                   # bitstream metadata
//! vdsms sketch --id 1 clip.vdsm [...] --out catalogue.vdsq  # offline query sketching
//! vdsms monitor --queries catalogue.vdsq stream.vdsm        # detect copies
//! ```
//!
//! The command implementations live here (library functions returning
//! `Result`) so they are unit-testable; `src/bin/vdsms.rs` is a thin
//! argument-parsing shell.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use vdsms_codec::bitio::ByteReader;
use vdsms_codec::{DcFrame, Encoder, EncoderConfig, IngestHealth, PartialDecoder, StreamHeader};
use vdsms_core::{
    load_queries, save_queries, Detector, DetectorConfig, Fleet, Query, QuerySet, Stats,
    StreamId,
};
use vdsms_features::{FeatureConfig, FeatureExtractor, FingerprintStream};
use vdsms_video::source::{ClipGenerator, MotifPool, SourceSpec};
use vdsms_video::Fps;
use vdsms_workload::{inject_faults, FaultSpec};

/// CLI errors: message plus a process exit code.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
}

impl CliError {
    fn new(message: impl Into<String>) -> CliError {
        CliError { message: message.into() }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<vdsms_codec::CodecError> for CliError {
    fn from(e: vdsms_codec::CodecError) -> CliError {
        CliError::new(format!("codec error: {e}"))
    }
}

impl From<vdsms_core::PersistError> for CliError {
    fn from(e: vdsms_core::PersistError) -> CliError {
        CliError::new(format!("query file error: {e}"))
    }
}

impl From<vdsms_core::FleetError> for CliError {
    fn from(e: vdsms_core::FleetError) -> CliError {
        CliError::new(format!("fleet error: {e}"))
    }
}

/// Result alias for CLI operations.
pub type Result<T> = std::result::Result<T, CliError>;

/// Options for `vdsms generate`.
#[derive(Debug, Clone)]
pub struct GenerateOpts {
    /// Source seed.
    pub seed: u64,
    /// Duration in seconds.
    pub seconds: f64,
    /// Frame width.
    pub width: u32,
    /// Frame height.
    pub height: u32,
    /// Frames per second.
    pub fps: u32,
    /// Encoder GOP.
    pub gop: u32,
    /// Encoder quality.
    pub quality: u8,
    /// Optional motif pool `seed:count` for content that shares visual
    /// statistics with other generated clips.
    pub motifs: Option<(u64, u32)>,
}

impl Default for GenerateOpts {
    fn default() -> GenerateOpts {
        GenerateOpts {
            seed: 1,
            seconds: 30.0,
            width: 176,
            height: 120,
            fps: 10,
            gop: 5,
            quality: 80,
            motifs: None,
        }
    }
}

/// Generate a synthetic clip and encode it; returns the bitstream.
pub fn generate(opts: &GenerateOpts) -> Result<Vec<u8>> {
    if opts.seconds <= 0.0 {
        return Err(CliError::new("--seconds must be positive"));
    }
    if !(1..=100).contains(&opts.quality) {
        return Err(CliError::new("--quality must be in 1..=100"));
    }
    let spec = SourceSpec {
        width: opts.width,
        height: opts.height,
        fps: Fps::integer(opts.fps),
        seed: opts.seed,
        min_scene_s: 2.0,
        max_scene_s: 6.0,
        motifs: opts.motifs.map(|(seed, count)| MotifPool { seed, count }),
    };
    let clip = ClipGenerator::new(spec).clip(opts.seconds);
    Ok(Encoder::encode_clip(&clip, EncoderConfig { gop: opts.gop, quality: opts.quality, motion_search: true }))
}

/// Inspect a bitstream: header fields plus key-frame statistics. Returns
/// a printable report.
pub fn inspect(bytes: &[u8]) -> Result<String> {
    let mut decoder = PartialDecoder::new(bytes)?;
    let header: StreamHeader = *decoder.header();
    let mut key_frames = 0u64;
    let mut last_index = 0u64;
    let mut frame = DcFrame::empty();
    while decoder.next_dc_frame_into(&mut frame)? {
        key_frames += 1;
        last_index = frame.frame_index;
    }
    let total_frames = last_index + 1; // last key frame is within the last GOP
    let mut out = String::new();
    let _ = writeln!(out, "container:   VDSM v2");
    let _ = writeln!(out, "resolution:  {}x{}", header.width, header.height);
    let _ = writeln!(
        out,
        "frame rate:  {}/{} ({:.2} fps)",
        header.fps.num,
        header.fps.den,
        header.fps.as_f64()
    );
    let _ = writeln!(out, "gop:         {} (≈{:.2} key frames/s)", header.gop, header.fps.as_f64() / f64::from(header.gop));
    let _ = writeln!(out, "key frames:  {key_frames}");
    let _ = writeln!(out, "frames:      >= {total_frames}");
    let _ = writeln!(
        out,
        "duration:    ≈{:.1} s",
        header.fps.seconds_of(total_frames as usize)
    );
    let _ = writeln!(out, "size:        {} bytes", bytes.len());
    Ok(out)
}

/// Sketch one or more query bitstreams into a persistable query set.
/// `inputs` pairs each query id with its bitstream.
pub fn sketch(
    inputs: &[(u32, Vec<u8>)],
    detector: &DetectorConfig,
    features: &FeatureConfig,
) -> Result<Vec<u8>> {
    if inputs.is_empty() {
        return Err(CliError::new("no query bitstreams given"));
    }
    let family = Detector::family_for(detector);
    let extractor = FeatureExtractor::new(*features);
    let mut set = QuerySet::new();
    for (id, bytes) in inputs {
        if set.get(*id).is_some() {
            return Err(CliError::new(format!("duplicate query id {id}")));
        }
        let mut ingest = FingerprintStream::new(bytes, extractor.clone())?;
        let mut cells = Vec::new();
        while let Some((_, cell)) = ingest.next_fingerprint()? {
            cells.push(cell);
        }
        if cells.is_empty() {
            return Err(CliError::new(format!("query {id} has no key frames")));
        }
        set.insert(Query::from_cell_ids(*id, &family, &cells));
    }
    Ok(save_queries(&set))
}

/// One detection line of `monitor`'s report.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorHit {
    /// Which stream matched (index of the stream file in argument order).
    pub stream_id: StreamId,
    /// Matched query.
    pub query_id: u32,
    /// First stream frame of the candidate.
    pub start_frame: u64,
    /// Last stream frame (detection position).
    pub end_frame: u64,
    /// Estimated similarity.
    pub similarity: f64,
}

/// Monitor one stream bitstream against a persisted query set.
pub fn monitor(
    stream: &[u8],
    query_file: &[u8],
    detector: &DetectorConfig,
    features: &FeatureConfig,
) -> Result<Vec<MonitorHit>> {
    monitor_streams(&[stream], query_file, detector, features)
}

/// Robustness options for [`monitor_streams_opts`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MonitorOpts {
    /// Open every stream in corruption-recovery mode: mid-record damage
    /// is resynchronized past and accounted per stream instead of ending
    /// that stream with an error.
    pub recover: bool,
    /// Mutate each stream with seeded faults before monitoring (the
    /// `--inject-faults` harness). Stream `i` is damaged under seed
    /// `spec.seed` xor-mixed with `i`, so concurrent streams are not
    /// damaged at identical positions.
    pub faults: Option<FaultSpec>,
}

/// Per-stream outcome of a resilient monitoring run.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Index of the stream file in argument order.
    pub stream_id: StreamId,
    /// Why this stream stopped being monitored, if it failed (unopenable
    /// file, or mid-stream corruption in strict mode). `None` means the
    /// stream was monitored to its end.
    pub error: Option<String>,
    /// Decoder degradation counters for this stream (all zero in strict
    /// mode and on clean streams).
    pub health: IngestHealth,
    /// Records damaged by `--inject-faults`, when fault injection ran.
    pub faulted_records: u64,
}

impl StreamReport {
    /// Whether this stream was monitored end-to-end without error.
    pub fn ok(&self) -> bool {
        self.error.is_none()
    }
}

/// What [`monitor_streams_opts`] produced: every detection from every
/// stream that stayed monitorable, plus one report per input stream.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorOutcome {
    /// All detections, sorted by (stream, end frame, query, start frame).
    pub hits: Vec<MonitorHit>,
    /// One entry per input stream, in argument order.
    pub reports: Vec<StreamReport>,
    /// Aggregate detector statistics across the run, with every stream's
    /// ingest damage folded into the degradation counters — so
    /// [`Stats::is_degraded`] answers for the run as a whole.
    pub stats: Stats,
}

impl MonitorOutcome {
    /// Number of streams that failed (reported an error).
    pub fn failed(&self) -> usize {
        self.reports.iter().filter(|r| !r.ok()).count()
    }

    /// Whether the run's numbers were produced under degradation —
    /// corruption recovery, shard restarts, or lost frames — and may
    /// undercount the true streams (the `monitor` command's exit-code-3
    /// condition).
    pub fn degraded(&self) -> bool {
        self.stats.is_degraded()
    }
}

/// Monitor any number of concurrent stream bitstreams against a persisted
/// query set. Stream `i` of `streams` reports as `stream_id == i`.
///
/// The fleet runs inline or on worker threads according to
/// `detector.shards` (the CLI's `--shards` flag); the detections are
/// identical either way. Key frames are interleaved round-robin across
/// streams, emulating live concurrent broadcasts, and fed in batches of
/// one key frame per stream.
///
/// Errs only when no stream could be monitored at all (or the query file
/// itself is bad); partial failures are tolerated — see
/// [`monitor_streams_opts`] for the per-stream reports.
pub fn monitor_streams(
    streams: &[&[u8]],
    query_file: &[u8],
    detector: &DetectorConfig,
    features: &FeatureConfig,
) -> Result<Vec<MonitorHit>> {
    let outcome = monitor_streams_opts(streams, query_file, detector, features, &MonitorOpts::default())?;
    Ok(outcome.hits)
}

/// [`monitor_streams`] with per-stream fault tolerance: a stream that
/// fails to open (bad header) or errors mid-stream is reported and
/// dropped from the rotation while every other stream keeps being
/// monitored. With [`MonitorOpts::recover`], mid-stream corruption is
/// skipped instead of failing the stream at all.
///
/// Only whole-run problems are `Err`: a bad query file, no streams, or
/// every single stream unopenable.
pub fn monitor_streams_opts(
    streams: &[&[u8]],
    query_file: &[u8],
    detector: &DetectorConfig,
    features: &FeatureConfig,
    opts: &MonitorOpts,
) -> Result<MonitorOutcome> {
    let queries = load_queries(query_file, detector.k)?;
    if queries.is_empty() {
        return Err(CliError::new("query file contains no queries"));
    }
    if streams.is_empty() {
        return Err(CliError::new("no stream bitstreams given"));
    }
    let extractor = FeatureExtractor::new(*features);
    let mut fleet = Fleet::new(*detector);
    for query in queries.iter() {
        fleet.subscribe(query.clone())?;
    }

    // Fault injection (test harness): damage each parseable stream under
    // a stream-specific seed. Unparseable inputs pass through untouched —
    // they fail at open below and are reported like any other bad file.
    let injected: Vec<Option<vdsms_workload::FaultReport>> = streams
        .iter()
        .enumerate()
        .map(|(i, bytes)| {
            let spec = opts.faults.as_ref()?;
            let mut r = ByteReader::new(bytes);
            StreamHeader::read(&mut r).ok()?;
            let per_stream =
                spec.with_seed(spec.seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
            Some(inject_faults(bytes, &per_stream))
        })
        .collect();

    let mut reports: Vec<StreamReport> = (0..streams.len())
        .map(|i| StreamReport {
            stream_id: i as StreamId,
            error: None,
            health: IngestHealth::default(),
            faulted_records: injected[i].as_ref().map_or(0, |r| r.records_faulted),
        })
        .collect();

    // One fused ingestion front-end per stream: key frames are decoded
    // and fingerprinted lazily, straight from the bitstream bytes, as
    // each round-robin round pulls them — no per-stream fingerprint
    // buffering, no per-keyframe allocation. A stream that fails to open
    // leaves a `None` slot and an error in its report.
    let mut ingests: Vec<Option<FingerprintStream<'_>>> = Vec::with_capacity(streams.len());
    for (i, bytes) in streams.iter().enumerate() {
        let effective: &[u8] = injected[i].as_ref().map_or(bytes, |r| &r.bytes);
        match FingerprintStream::new_with_recovery(effective, extractor.clone(), opts.recover) {
            Ok(ingest) => {
                fleet.add_stream(i as StreamId)?;
                ingests.push(Some(ingest));
            }
            Err(e) => {
                reports[i].error = Some(format!("cannot open stream: {e}"));
                ingests.push(None);
            }
        }
    }
    if ingests.iter().all(Option::is_none) {
        return Err(CliError::new(format!(
            "none of the {} stream(s) could be opened (first error: {})",
            streams.len(),
            reports[0].error.as_deref().unwrap_or("unknown")
        )));
    }

    let mut hits = Vec::new();
    let push = |dets: Vec<vdsms_core::StreamDetection>, hits: &mut Vec<MonitorHit>| {
        for d in dets {
            hits.push(MonitorHit {
                stream_id: d.stream_id,
                query_id: d.detection.query_id,
                start_frame: d.detection.start_frame,
                end_frame: d.detection.end_frame,
                similarity: d.detection.similarity,
            });
        }
    };
    // Interleave the key frames round-robin (one per stream per batch),
    // emulating live concurrent broadcasts; streams that end early simply
    // drop out of later batches, exactly as in the buffered formulation.
    // A stream that errors mid-pull is reported and dropped from the
    // rotation; the others are unaffected.
    let mut batch = Vec::with_capacity(streams.len());
    loop {
        batch.clear();
        for (i, slot) in ingests.iter_mut().enumerate() {
            let Some(ingest) = slot else { continue };
            match ingest.next_fingerprint() {
                Ok(Some((frame_index, cell))) => {
                    batch.push((i as StreamId, frame_index, cell));
                }
                Ok(None) => {}
                Err(e) => {
                    reports[i].error = Some(format!("stream failed mid-monitoring: {e}"));
                    reports[i].health = ingest.health();
                    *slot = None;
                }
            }
        }
        if batch.is_empty() {
            break;
        }
        push(fleet.push_batch(&batch)?, &mut hits);
    }
    push(fleet.finish_all()?, &mut hits);
    for (i, slot) in ingests.iter().enumerate() {
        if let Some(ingest) = slot {
            reports[i].health = ingest.health();
        }
    }
    // Fold every stream's ingest damage into the fleet's aggregate so
    // the outcome's degradation verdict covers the decode layer too
    // (the fleet only sees key frames that survived recovery).
    let mut stats = fleet.total_stats();
    for r in &reports {
        stats.frames_dropped += r.health.frames_dropped;
        stats.bytes_skipped += r.health.bytes_skipped;
        stats.resyncs += r.health.resyncs;
    }
    hits.sort_by(|a, b| {
        (a.stream_id, a.end_frame, a.query_id, a.start_frame).cmp(&(
            b.stream_id,
            b.end_frame,
            b.query_id,
            b.start_frame,
        ))
    });
    Ok(MonitorOutcome { hits, reports, stats })
}

/// Options for `vdsms eval-attacks`.
#[derive(Debug, Clone)]
pub struct EvalAttacksOpts {
    /// Master seed of the evaluation (workload and attack randomness).
    pub seed: u64,
    /// Named profile: `smoke`, `quick`, or `default`.
    pub profile: String,
    /// Attack list override (`kind` or `kind:strength` names); `None`
    /// keeps the profile's grid.
    pub attacks: Option<Vec<String>>,
    /// Detector variant name override; `None` keeps the profile's set.
    pub detectors: Option<Vec<String>>,
    /// Emit the machine-readable JSON report instead of the text table.
    pub json: bool,
    /// Contents of a committed floor file (`BENCH_robustness.json`) to
    /// check the measured matrix against.
    pub check: Option<String>,
}

impl Default for EvalAttacksOpts {
    fn default() -> EvalAttacksOpts {
        EvalAttacksOpts {
            seed: 1,
            profile: "smoke".to_string(),
            attacks: None,
            detectors: None,
            json: false,
            check: None,
        }
    }
}

/// Result of `vdsms eval-attacks`: the report, its rendering, and any
/// floor violations (non-empty drives exit code 1).
#[derive(Debug)]
pub struct EvalAttacksOutcome {
    /// The full measured matrix.
    pub report: vdsms_workload::AttackMatrixReport,
    /// Rendered report (text table or JSON per [`EvalAttacksOpts::json`]).
    pub output: String,
    /// Floor-check violations (empty when no `--check` file was given or
    /// every cell held its floor).
    pub failures: Vec<String>,
}

/// Run the seeded attack × detector robustness matrix (`vdsms
/// eval-attacks`): compose one attacked stream per attack spec, sweep the
/// selected detector variants over each, and score against the remapped
/// ground truth. Deterministic per `(seed, profile, overrides)`.
pub fn eval_attacks(opts: &EvalAttacksOpts) -> Result<EvalAttacksOutcome> {
    use vdsms_workload::{check_floors, evaluate_matrix, AttackSpec, MatrixConfig};

    let mut config = MatrixConfig::profile(&opts.profile, opts.seed).ok_or_else(|| {
        CliError::new(format!(
            "unknown profile '{}' (smoke|quick|default)",
            opts.profile
        ))
    })?;
    if let Some(names) = &opts.attacks {
        let mut attacks = Vec::with_capacity(names.len());
        for name in names {
            attacks.push(AttackSpec::parse(name, opts.seed).map_err(CliError::new)?);
        }
        if attacks.is_empty() {
            return Err(CliError::new("--attacks list is empty"));
        }
        config.attacks = attacks;
    }
    if let Some(names) = &opts.detectors {
        let mut detectors = Vec::with_capacity(names.len());
        for name in names {
            detectors.push(vdsms_core::DetectorVariant::parse(name).ok_or_else(|| {
                CliError::new(format!(
                    "unknown detector '{name}' (seq|geo|seq-noindex|geo-noindex)"
                ))
            })?);
        }
        if detectors.is_empty() {
            return Err(CliError::new("--detectors list is empty"));
        }
        config.detectors = detectors;
    }

    let report = evaluate_matrix(&config);
    let output = if opts.json { report.to_json() } else { render_matrix(&report) };
    let failures = match &opts.check {
        Some(floors) => check_floors(&report, floors).map_err(CliError::new)?,
        None => Vec::new(),
    };
    Ok(EvalAttacksOutcome { report, output, failures })
}

/// The human-readable matrix table.
fn render_matrix(report: &vdsms_workload::AttackMatrixReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "attack matrix — profile {}, seed {}, w {:.1}s, δ {:.2}, K {}",
        report.profile, report.seed, report.w_seconds, report.delta, report.k
    );
    let _ = writeln!(
        out,
        "{:<16} {:<8} {:<12} {:>9} {:>9} {:>7}",
        "attack", "strength", "detector", "precision", "recall", "found"
    );
    for c in &report.cells {
        let _ = writeln!(
            out,
            "{:<16} {:<8} {:<12} {:>9.3} {:>9.3} {:>4}/{}",
            c.attack, c.strength, c.detector, c.precision, c.recall, c.found, c.planted
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(seed: u64, seconds: f64) -> GenerateOpts {
        GenerateOpts { seed, seconds, ..Default::default() }
    }

    fn detector() -> DetectorConfig {
        DetectorConfig { window_keyframes: 6, ..Default::default() }
    }

    #[test]
    fn generate_inspect_round_trip() {
        let bytes = generate(&opts(3, 10.0)).unwrap();
        let report = inspect(&bytes).unwrap();
        assert!(report.contains("176x120"), "{report}");
        assert!(report.contains("key frames:  20"), "{report}");
        assert!(report.contains("10/1"), "{report}");
    }

    #[test]
    fn generate_rejects_bad_options() {
        assert!(generate(&GenerateOpts { seconds: 0.0, ..Default::default() }).is_err());
        assert!(generate(&GenerateOpts { quality: 0, ..Default::default() }).is_err());
    }

    #[test]
    fn sketch_then_monitor_finds_planted_query() {
        let fc = FeatureConfig::default();
        let det = detector();
        // Queries 1 and 2.
        let q1 = generate(&opts(100, 12.0)).unwrap();
        let q2 = generate(&opts(200, 12.0)).unwrap();
        let catalogue = sketch(&[(1, q1), (2, q2)], &det, &fc).unwrap();

        // A stream containing query 2's content (same seed ⇒ same frames).
        let background = generate(&opts(900, 20.0)).unwrap();
        let _ = background; // stream is built from pixel frames below
        let spec = SourceSpec {
            width: 176,
            height: 120,
            fps: Fps::integer(10),
            seed: 900,
            min_scene_s: 2.0,
            max_scene_s: 6.0,
            motifs: None,
        };
        let mut stream_clip = ClipGenerator::new(spec.clone()).clip(20.0);
        stream_clip.append(ClipGenerator::new(SourceSpec { seed: 200, ..spec }).clip(12.0));
        let stream = Encoder::encode_clip(&stream_clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });

        let hits = monitor(&stream, &catalogue, &det, &fc).unwrap();
        assert!(hits.iter().any(|h| h.query_id == 2), "{hits:?}");
        assert!(hits.iter().all(|h| h.query_id != 1), "query 1 not in the stream");
    }

    #[test]
    fn sketch_rejects_duplicates_and_empty() {
        let fc = FeatureConfig::default();
        let det = detector();
        let q = generate(&opts(1, 8.0)).unwrap();
        assert!(sketch(&[], &det, &fc).is_err());
        assert!(sketch(&[(1, q.clone()), (1, q)], &det, &fc).is_err());
    }

    #[test]
    fn sharded_monitor_matches_serial() {
        let fc = FeatureConfig::default();
        let det = detector();
        let q = generate(&opts(300, 10.0)).unwrap();
        let catalogue = sketch(&[(1, q)], &det, &fc).unwrap();

        let spec = SourceSpec {
            width: 176,
            height: 120,
            fps: Fps::integer(10),
            seed: 0, // overridden per stream
            min_scene_s: 2.0,
            max_scene_s: 6.0,
            motifs: None,
        };
        // Three concurrent streams; only stream 1 carries the query.
        let make = |seed: u64, plant: bool| {
            let mut clip =
                ClipGenerator::new(SourceSpec { seed, ..spec.clone() }).clip(15.0);
            if plant {
                clip.append(
                    ClipGenerator::new(SourceSpec { seed: 300, ..spec.clone() }).clip(10.0),
                );
            }
            Encoder::encode_clip(
                &clip,
                EncoderConfig { gop: 5, quality: 80, motion_search: true },
            )
        };
        let streams = [make(901, false), make(902, true), make(903, false)];
        let slices: Vec<&[u8]> = streams.iter().map(Vec::as_slice).collect();

        let serial = monitor_streams(&slices, &catalogue, &det, &fc).unwrap();
        assert!(serial.iter().any(|h| h.stream_id == 1 && h.query_id == 1), "{serial:?}");
        for shards in [2, 4] {
            let sharded = monitor_streams(
                &slices,
                &catalogue,
                &DetectorConfig { shards, ..det },
                &fc,
            )
            .unwrap();
            assert_eq!(sharded, serial, "shards={shards}");
        }
    }

    #[test]
    fn monitor_skips_failed_streams_and_keeps_monitoring_the_rest() {
        let fc = FeatureConfig::default();
        let det = detector();
        let q = generate(&opts(300, 10.0)).unwrap();
        let catalogue = sketch(&[(1, q)], &det, &fc).unwrap();

        let spec = SourceSpec {
            width: 176,
            height: 120,
            fps: Fps::integer(10),
            seed: 0,
            min_scene_s: 2.0,
            max_scene_s: 6.0,
            motifs: None,
        };
        let mut clip = ClipGenerator::new(SourceSpec { seed: 910, ..spec.clone() }).clip(15.0);
        clip.append(ClipGenerator::new(SourceSpec { seed: 300, ..spec }).clip(10.0));
        let good =
            Encoder::encode_clip(&clip, EncoderConfig { gop: 5, quality: 80, motion_search: true });
        let truncated = &good[..good.len() - good.len() / 4];

        // Stream 0 opens fine but dies mid-monitoring (strict mode),
        // stream 1 is unopenable, stream 2 carries the planted query.
        let streams: [&[u8]; 3] = [truncated, b"not a stream", &good];
        let out = monitor_streams_opts(&streams, &catalogue, &det, &fc, &MonitorOpts::default())
            .unwrap();
        assert_eq!(out.failed(), 2, "{:?}", out.reports);
        assert!(out.reports[0].error.as_deref().unwrap().contains("mid-monitoring"));
        assert!(out.reports[1].error.as_deref().unwrap().contains("cannot open"));
        assert!(out.reports[2].ok());
        assert!(
            out.hits.iter().any(|h| h.stream_id == 2 && h.query_id == 1),
            "surviving stream must still detect: {:?}",
            out.hits
        );

        // In recovery mode the truncated stream no longer fails — it is
        // merely degraded — and it still detects the query it carries
        // (the damage is past the planted segment's windows or not).
        let recovered = monitor_streams_opts(
            &streams,
            &catalogue,
            &det,
            &fc,
            &MonitorOpts { recover: true, faults: None },
        )
        .unwrap();
        assert_eq!(recovered.failed(), 1, "{:?}", recovered.reports);
        assert!(recovered.reports[0].ok());
        assert!(!recovered.reports[0].health.is_clean());
    }

    #[test]
    fn monitor_fault_injection_is_deterministic_and_recoverable() {
        let fc = FeatureConfig::default();
        let det = detector();
        let q = generate(&opts(300, 10.0)).unwrap();
        let catalogue = sketch(&[(1, q)], &det, &fc).unwrap();
        let stream = generate(&opts(920, 20.0)).unwrap();
        let streams: [&[u8]; 1] = [&stream];

        let o = MonitorOpts {
            recover: true,
            faults: Some(vdsms_workload::FaultSpec {
                seed: 9,
                flip_rate: 0.2,
                ..Default::default()
            }),
        };
        let a = monitor_streams_opts(&streams, &catalogue, &det, &fc, &o).unwrap();
        let b = monitor_streams_opts(&streams, &catalogue, &det, &fc, &o).unwrap();
        assert_eq!(a, b, "same fault seed must give an identical run");
        assert!(a.reports[0].faulted_records >= 1, "{:?}", a.reports);
        assert!(a.reports[0].ok(), "recovery keeps a flipped stream monitorable");
    }

    #[test]
    fn eval_attacks_rejects_bad_selections() {
        // The matrix itself is covered by vdsms-workload's tests; here we
        // verify the CLI-level validation (cheap, no evaluation runs).
        let bad_profile =
            EvalAttacksOpts { profile: "bogus".to_string(), ..Default::default() };
        assert!(eval_attacks(&bad_profile).unwrap_err().message.contains("unknown profile"));
        let bad_attack = EvalAttacksOpts {
            attacks: Some(vec!["not-an-attack".to_string()]),
            ..Default::default()
        };
        assert!(eval_attacks(&bad_attack).unwrap_err().message.contains("unknown attack"));
        let bad_detector = EvalAttacksOpts {
            detectors: Some(vec!["seq".to_string(), "bogus".to_string()]),
            ..Default::default()
        };
        assert!(eval_attacks(&bad_detector).unwrap_err().message.contains("unknown detector"));
        let empty = EvalAttacksOpts { attacks: Some(Vec::new()), ..Default::default() };
        assert!(eval_attacks(&empty).unwrap_err().message.contains("empty"));
    }

    #[test]
    fn monitor_rejects_garbage_inputs() {
        let fc = FeatureConfig::default();
        let det = detector();
        let q = generate(&opts(1, 8.0)).unwrap();
        let catalogue = sketch(&[(1, q)], &det, &fc).unwrap();
        assert!(monitor(b"not a stream", &catalogue, &det, &fc).is_err());
        let stream = generate(&opts(2, 8.0)).unwrap();
        assert!(monitor(&stream, b"not queries", &det, &fc).is_err());
    }
}
