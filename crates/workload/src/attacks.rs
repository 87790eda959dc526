//! The adversarial attack matrix: seeded content-level attacks × detector
//! variants, with ground truth remapped through time-warping edits.
//!
//! The paper evaluates only its VS1/VS2 edit lists; modern benchmarks
//! (the 2023 Video Similarity Challenge, and temporal-attack studies of
//! the min-hash family) show that *content-level* attacks — speed
//! changes, frame drops, clip-in-clip embedding — are what actually break
//! set-similarity detectors. This module generates those attacks as
//! attack × strength grids, composes one evaluation stream per attack,
//! and sweeps every [`DetectorVariant`] over it, producing the empirical
//! robustness map the tiered-fingerprint work needs.
//!
//! Everything derives from `u64` seeds: the same [`MatrixConfig`]
//! reproduces the same report byte for byte, which is what lets
//! `BENCH_robustness.json` commit per-cell recall/precision floors that
//! CI can enforce.
//!
//! **Truth remapping.** A sped-up airing occupies fewer stream frames
//! than the original query, and a clip-in-clip airing starts after a
//! distractor lead. [`AttackSpec::attack_clip`] therefore returns the
//! attacked clip *and* the span the query content occupies inside it,
//! computed by [`EditPipeline::map_span`] from the same source maps that
//! assembled the frames; [`compose_attacked_stream`] records ground truth
//! over that span only.

use crate::clips::ClipLibrary;
use crate::json::Json;
use crate::metrics::score;
use crate::spec::WorkloadSpec;
use crate::streams::{compose_with, fingerprint_stream, ComposedStream, StreamKind};
use std::fmt::Write as _;
use vdsms_codec::{Decoder, Encoder, EncoderConfig};
use vdsms_core::{Detector, DetectorConfig, DetectorVariant, Query, QuerySet};
use vdsms_features::FeatureConfig;
use vdsms_video::{Clip, Edit, EditPipeline};

/// One attack family of the matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttackKind {
    /// Faster playback via frame resampling (time warp: shorter airing).
    SpeedUp,
    /// Slower playback via frame resampling (time warp: longer airing).
    SlowDown,
    /// Periodic frame drops (cadence removal; time warp).
    PeriodicDrop,
    /// Seeded bursty frame drops (splice damage; time warp).
    BurstyDrop,
    /// The query embedded at an offset inside a longer distractor video.
    ClipInClip,
    /// Center region crop scaled back up (zoom / reframing).
    Crop,
    /// Letterbox/pillarbox bars around downscaled content.
    Letterbox,
    /// Multi-generation re-encode chain at decreasing quality.
    ReencodeChain,
    /// Brightness/contrast alteration (the paper's color edit, harder).
    Recolor,
    /// Additive Gaussian noise overlay.
    Noise,
}

impl AttackKind {
    /// Every attack kind, in canonical (report) order.
    pub const ALL: [AttackKind; 10] = [
        AttackKind::SpeedUp,
        AttackKind::SlowDown,
        AttackKind::PeriodicDrop,
        AttackKind::BurstyDrop,
        AttackKind::ClipInClip,
        AttackKind::Crop,
        AttackKind::Letterbox,
        AttackKind::ReencodeChain,
        AttackKind::Recolor,
        AttackKind::Noise,
    ];

    /// Stable name used in CLI flags, reports, and floor files.
    pub fn name(self) -> &'static str {
        match self {
            AttackKind::SpeedUp => "speed-up",
            AttackKind::SlowDown => "slow-down",
            AttackKind::PeriodicDrop => "periodic-drop",
            AttackKind::BurstyDrop => "bursty-drop",
            AttackKind::ClipInClip => "clip-in-clip",
            AttackKind::Crop => "crop",
            AttackKind::Letterbox => "letterbox",
            AttackKind::ReencodeChain => "reencode-chain",
            AttackKind::Recolor => "recolor",
            AttackKind::Noise => "noise",
        }
    }

    /// Parse a [`AttackKind::name`] back.
    pub fn parse(s: &str) -> Option<AttackKind> {
        AttackKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// How hard the attack hits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strength {
    /// Barely perceptible; every detector should survive.
    Light,
    /// A realistic pirate re-upload.
    Medium,
    /// Aggressive evasion.
    Heavy,
}

impl Strength {
    /// Every strength, in canonical order.
    pub const ALL: [Strength; 3] = [Strength::Light, Strength::Medium, Strength::Heavy];

    /// Stable name used in reports and floor files.
    pub fn name(self) -> &'static str {
        match self {
            Strength::Light => "light",
            Strength::Medium => "medium",
            Strength::Heavy => "heavy",
        }
    }

    /// Parse a [`Strength::name`] back.
    pub fn parse(s: &str) -> Option<Strength> {
        Strength::ALL.into_iter().find(|x| x.name() == s)
    }
}

/// One fully specified attack: family × strength × seed. The seed drives
/// every random draw inside the attack (noise stream, drop pattern,
/// distractor content), so an `AttackSpec` is reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AttackSpec {
    /// Attack family.
    pub kind: AttackKind,
    /// Strength level.
    pub strength: Strength,
    /// Seed of the attack's random draws.
    pub seed: u64,
}

/// What [`AttackSpec::attack_clip`] produces: the attacked clip plus the
/// span `[start, end)` (in attacked-clip frames) that still carries the
/// original query's content — the ground truth of an insertion.
#[derive(Debug, Clone)]
pub struct AttackedClip {
    /// The attacked clip.
    pub clip: Clip,
    /// Query-content span within `clip`, `[start, end)` in frames.
    pub content: (u64, u64),
}

impl AttackSpec {
    /// Parse `"kind"` or `"kind:strength"` (e.g. `"speed-up:heavy"`);
    /// strength defaults to medium.
    pub fn parse(s: &str, seed: u64) -> Result<AttackSpec, String> {
        let (kind_s, strength_s) = match s.split_once(':') {
            Some((k, st)) => (k, st),
            None => (s, "medium"),
        };
        let kind = AttackKind::parse(kind_s)
            .ok_or_else(|| format!("unknown attack '{kind_s}' (see attacks::AttackKind)"))?;
        let strength = Strength::parse(strength_s)
            .ok_or_else(|| format!("unknown strength '{strength_s}' (light|medium|heavy)"))?;
        Ok(AttackSpec { kind, strength, seed })
    }

    /// `kind:strength`, the cell label used in reports and floor files.
    pub fn label(&self) -> String {
        format!("{}:{}", self.kind.name(), self.strength.name())
    }

    /// This attack re-seeded for one particular clip, so that two clips
    /// attacked under the same spec do not share noise/drop patterns.
    pub fn derive(&self, salt: u64) -> AttackSpec {
        AttackSpec {
            seed: self.seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15),
            ..*self
        }
    }

    /// The edit pipeline realizing this attack (empty for the re-encode
    /// chain, which is not a pixel/timeline edit).
    fn pipeline(&self) -> EditPipeline {
        let s = self.strength;
        fn by_strength<T>(s: Strength, l: T, m: T, h: T) -> T {
            match s {
                Strength::Light => l,
                Strength::Medium => m,
                Strength::Heavy => h,
            }
        }
        match self.kind {
            AttackKind::SpeedUp => {
                let (num, den) = by_strength(s, (5, 4), (3, 2), (2, 1));
                EditPipeline::new().then(Edit::Speed { num, den })
            }
            AttackKind::SlowDown => {
                let (num, den) = by_strength(s, (4, 5), (2, 3), (1, 2));
                EditPipeline::new().then(Edit::Speed { num, den })
            }
            AttackKind::PeriodicDrop => {
                let (period, drop) = by_strength(s, (10, 1), (5, 1), (3, 1));
                EditPipeline::new().then(Edit::DropPeriodic { period, drop })
            }
            AttackKind::BurstyDrop => {
                let (rate, burst) = by_strength(s, (0.02, 3), (0.04, 5), (0.06, 8));
                EditPipeline::new().then(Edit::DropBursty { rate, burst, seed: self.seed })
            }
            AttackKind::ClipInClip => {
                let (lead_s, trail_s) = by_strength(s, (4.0, 2.0), (8.0, 4.0), (15.0, 8.0));
                EditPipeline::new().then(Edit::ClipInClip { lead_s, trail_s, seed: self.seed })
            }
            AttackKind::Crop => {
                let keep = by_strength(s, 0.9, 0.8, 0.65);
                EditPipeline::new().then(Edit::Crop { keep_w: keep, keep_h: keep })
            }
            AttackKind::Letterbox => {
                let (bar_x, bar_y) = by_strength(s, (0.0, 0.08), (0.05, 0.12), (0.12, 0.12));
                EditPipeline::new().then(Edit::Letterbox { bar_x, bar_y })
            }
            AttackKind::ReencodeChain => EditPipeline::new(),
            AttackKind::Recolor => {
                let (gain, offset) = by_strength(s, (1.1, 8.0), (0.8, -10.0), (0.65, -18.0));
                EditPipeline::new().then(Edit::GainOffset { gain, offset })
            }
            AttackKind::Noise => {
                let sigma = by_strength(s, 2.0, 4.0, 7.0);
                EditPipeline::new().then(Edit::Noise { sigma, seed: self.seed })
            }
        }
    }

    /// Re-encode chain generations (quality per generation), empty for
    /// every other attack.
    fn reencode_qualities(&self) -> &'static [u8] {
        if self.kind != AttackKind::ReencodeChain {
            return &[];
        }
        match self.strength {
            Strength::Light => &[70, 60],
            Strength::Medium => &[65, 55, 45],
            Strength::Heavy => &[60, 50, 40, 30],
        }
    }

    /// Apply this attack to a clip: edit pipeline, then (for the
    /// re-encode chain) generation after generation of encode → decode
    /// round trips. Returns the attacked clip and the query-content span
    /// inside it, mapped through the attack's timeline.
    // vdsms-lint: entry(no-panic-hot-path)
    pub fn attack_clip(&self, clip: &Clip, gop: u32) -> AttackedClip {
        let pipe = self.pipeline();
        let mapped = pipe.map_span(clip.len(), clip.fps(), (0, clip.len() as u64));
        let mut attacked = pipe.apply(clip);
        for &quality in self.reencode_qualities() {
            let bytes = Encoder::encode_clip(
                &attacked,
                EncoderConfig { gop, quality, motion_search: true },
            );
            let frames = Decoder::new(&bytes)
                // vdsms-lint: allow(no-panic-hot-path) reason="decoding bytes this same call just encoded; a failure is a codec bug, not an input condition"
                .expect("own encoding must parse")
                .decode_all()
                // vdsms-lint: allow(no-panic-hot-path) reason="decoding bytes this same call just encoded; a failure is a codec bug, not an input condition"
                .expect("own encoding must decode");
            attacked = Clip::new(frames, attacked.fps());
        }
        debug_assert_eq!(mapped.len, attacked.len(), "map_span and apply disagree");
        AttackedClip { clip: attacked, content: mapped.span }
    }
}

/// The full attack × strength grid (30 specs).
pub fn full_grid(seed: u64) -> Vec<AttackSpec> {
    let mut grid = Vec::with_capacity(AttackKind::ALL.len() * Strength::ALL.len());
    for kind in AttackKind::ALL {
        for strength in Strength::ALL {
            grid.push(AttackSpec { kind, strength, seed });
        }
    }
    grid
}

/// Every attack kind at medium strength (the matrix's standard row set).
pub fn standard_grid(seed: u64) -> Vec<AttackSpec> {
    AttackKind::ALL
        .into_iter()
        .map(|kind| AttackSpec { kind, strength: Strength::Medium, seed })
        .collect()
}

/// The CI smoke subset: one time-warping and one embedding attack.
pub fn smoke_grid(seed: u64) -> Vec<AttackSpec> {
    vec![
        AttackSpec { kind: AttackKind::SpeedUp, strength: Strength::Medium, seed },
        AttackSpec { kind: AttackKind::ClipInClip, strength: Strength::Medium, seed },
    ]
}

/// Compose the evaluation stream for one attack: every inserted clip is
/// attacked (under a per-clip derived seed) before insertion, and the
/// ground truth covers the remapped query-content span.
// vdsms-lint: entry(no-panic-hot-path)
pub fn compose_attacked_stream(library: &ClipLibrary, attack: &AttackSpec) -> ComposedStream {
    let gop = library.spec().gop;
    compose_with(library, StreamKind::Attacked, 0x0a7c, |id| {
        let original = library.original(id);
        let attacked = attack.derive(u64::from(id)).attack_clip(&original, gop);
        (attacked.clip, attacked.content)
    })
}

/// Configuration of one matrix evaluation run.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Workload sizing (clips, stream length, geometry).
    pub spec: WorkloadSpec,
    /// Profile name recorded in the report and matched against the floor
    /// file ("smoke", "quick", ...).
    pub profile: String,
    /// Attacks to evaluate (one composed stream each).
    pub attacks: Vec<AttackSpec>,
    /// Detector variants to sweep per attack.
    pub detectors: Vec<DetectorVariant>,
    /// Basic window size `w` in seconds.
    pub w_seconds: f64,
    /// Similarity threshold δ.
    pub delta: f64,
    /// Min-hash function count K.
    pub k: usize,
}

impl MatrixConfig {
    /// A named evaluation profile, or `None` for an unknown name.
    ///
    /// * `smoke` — CI gate: 2 attacks × Seq/Geo on a ~2-minute stream.
    /// * `quick` — the standard grid (every kind, medium strength) × all
    ///   four variants on a small stream.
    /// * `default` — the full kind × strength grid × all four variants.
    pub fn profile(name: &str, seed: u64) -> Option<MatrixConfig> {
        let small = WorkloadSpec {
            seed,
            num_clips: 6,
            inserted: 3,
            clip_min_s: 8.0,
            clip_max_s: 14.0,
            base_seconds: 90.0,
            ..Default::default()
        };
        match name {
            "smoke" => Some(MatrixConfig {
                spec: small,
                profile: name.to_string(),
                attacks: smoke_grid(seed),
                detectors: vec![DetectorVariant::Seq, DetectorVariant::Geo],
                w_seconds: 5.0,
                delta: 0.7,
                k: 400,
            }),
            "quick" => Some(MatrixConfig {
                spec: WorkloadSpec {
                    num_clips: 8,
                    inserted: 4,
                    base_seconds: 120.0,
                    ..small
                },
                profile: name.to_string(),
                attacks: standard_grid(seed),
                detectors: DetectorVariant::ALL.to_vec(),
                w_seconds: 5.0,
                delta: 0.7,
                k: 400,
            }),
            "default" => Some(MatrixConfig {
                spec: WorkloadSpec {
                    seed,
                    num_clips: 16,
                    inserted: 8,
                    clip_min_s: 10.0,
                    clip_max_s: 30.0,
                    base_seconds: 400.0,
                    ..Default::default()
                },
                profile: name.to_string(),
                attacks: full_grid(seed),
                detectors: DetectorVariant::ALL.to_vec(),
                w_seconds: 5.0,
                delta: 0.7,
                k: 800,
            }),
            _ => None,
        }
    }
}

/// One (attack, detector) cell of the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Attack kind name.
    pub attack: String,
    /// Strength name.
    pub strength: String,
    /// Detector variant name.
    pub detector: String,
    /// Precision under the paper's position rule.
    pub precision: f64,
    /// Recall of planted (remapped) copies.
    pub recall: f64,
    /// Detections reported.
    pub detections: usize,
    /// Detections satisfying the position rule.
    pub correct: usize,
    /// Copies planted.
    pub planted: usize,
    /// Copies found.
    pub found: usize,
}

/// The full matrix report. [`AttackMatrixReport::to_json`] is byte-stable
/// for a given config, which is what the golden-snapshot test and the
/// committed floors rely on.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackMatrixReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Profile name ("smoke", "quick", ...).
    pub profile: String,
    /// Basic window size in seconds.
    pub w_seconds: f64,
    /// Similarity threshold δ.
    pub delta: f64,
    /// Min-hash count K.
    pub k: usize,
    /// One cell per attack × detector, sorted by (attack, strength,
    /// detector) names.
    pub cells: Vec<MatrixCell>,
}

impl AttackMatrixReport {
    /// Machine-readable JSON (stable key order and formatting, no
    /// external deps) — the `vdsms-lint --json` convention.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"bench\": \"attack_matrix\",");
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"profile\": \"{}\",", self.profile);
        let _ = writeln!(out, "  \"w_seconds\": {:.1},", self.w_seconds);
        let _ = writeln!(out, "  \"delta\": {:.2},", self.delta);
        let _ = writeln!(out, "  \"k\": {},", self.k);
        out.push_str("  \"cells\": [");
        for (i, c) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"attack\": \"{}\", \"strength\": \"{}\", \"detector\": \"{}\", \
                 \"precision\": {:.6}, \"recall\": {:.6}, \"detections\": {}, \
                 \"correct\": {}, \"planted\": {}, \"found\": {}}}",
                c.attack,
                c.strength,
                c.detector,
                c.precision,
                c.recall,
                c.detections,
                c.correct,
                c.planted,
                c.found,
            );
        }
        if !self.cells.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }

    /// The cell for an (attack, strength, detector) name triple.
    pub fn cell(&self, attack: &str, strength: &str, detector: &str) -> Option<&MatrixCell> {
        self.cells
            .iter()
            .find(|c| c.attack == attack && c.strength == strength && c.detector == detector)
    }
}

/// Evaluate the attack matrix: one composed stream per attack, every
/// detector variant swept over each, scored against the remapped ground
/// truth. Deterministic per config.
// vdsms-lint: entry(no-panic-hot-path)
pub fn evaluate_matrix(config: &MatrixConfig) -> AttackMatrixReport {
    let library = ClipLibrary::new(config.spec.clone());
    let spec = library.spec().clone();
    let fc = FeatureConfig::default();
    let base = DetectorConfig {
        k: config.k,
        delta: config.delta,
        window_keyframes: spec.window_keyframes(config.w_seconds),
        ..Default::default()
    };
    let w_frames = spec.window_frames(config.w_seconds);

    // Queries (all library clips — uninserted ones are precision
    // distractors) are fingerprinted once; each variant re-sketches the
    // same cell sequences.
    let query_cells: Vec<Vec<u64>> = (0..library.len() as u32)
        .map(|id| library.query_fingerprints(id, &fc))
        .collect();

    let mut cells = Vec::with_capacity(config.attacks.len() * config.detectors.len());
    for attack in &config.attacks {
        let stream = compose_attacked_stream(&library, attack);
        let fingerprints = fingerprint_stream(&stream, &fc);
        for &variant in &config.detectors {
            let cfg = variant.configure(base);
            let family = Detector::family_for(&cfg);
            let queries = QuerySet::from_queries(
                query_cells
                    .iter()
                    .enumerate()
                    .map(|(id, cs)| Query::from_cell_ids(id as u32, &family, cs))
                    .collect(),
            );
            let mut detector = Detector::new(cfg, queries);
            let detections = detector.run(fingerprints.cell_ids.clone());
            let pr = score(&detections, &stream.truth, w_frames);
            cells.push(MatrixCell {
                attack: attack.kind.name().to_string(),
                strength: attack.strength.name().to_string(),
                detector: variant.name().to_string(),
                precision: pr.precision,
                recall: pr.recall,
                detections: pr.detections,
                correct: pr.correct,
                planted: pr.planted,
                found: pr.found,
            });
        }
    }
    cells.sort_by(|a, b| {
        (&a.attack, &a.strength, &a.detector).cmp(&(&b.attack, &b.strength, &b.detector))
    });
    AttackMatrixReport {
        seed: config.spec.seed,
        profile: config.profile.clone(),
        w_seconds: config.w_seconds,
        delta: config.delta,
        k: config.k,
        cells,
    }
}

/// Check a matrix report against the committed floor file
/// (`BENCH_robustness.json`). Returns the list of violations — empty
/// means the gate passes.
///
/// The floor file carries one section per profile; a report whose
/// profile has no section is a configuration error (the gate must never
/// pass vacuously), as is a floor entry naming a cell the report does
/// not contain.
pub fn check_floors(report: &AttackMatrixReport, floors_json: &str) -> Result<Vec<String>, String> {
    let doc = Json::parse(floors_json).map_err(|e| format!("floor file: {e}"))?;
    let section = doc
        .get("profiles")
        .and_then(|p| p.get(&report.profile))
        .ok_or_else(|| format!("floor file has no section for profile '{}'", report.profile))?;
    if let Some(seed) = section.get("seed").and_then(Json::as_f64) {
        if seed as u64 != report.seed {
            return Err(format!(
                "floor section '{}' was measured at seed {}, report ran seed {}",
                report.profile, seed as u64, report.seed
            ));
        }
    }
    let floors = section
        .get("floors")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("floor section '{}' has no floors array", report.profile))?;
    if floors.is_empty() {
        return Err(format!("floor section '{}' is empty", report.profile));
    }

    // Measured values are committed to 6 decimals; tolerate that rounding
    // when comparing, so a floor set to the measured value passes.
    const EPS: f64 = 5e-7;
    let mut failures = Vec::new();
    for floor in floors {
        let attack = floor.get("attack").and_then(Json::as_str).unwrap_or("?");
        let strength = floor.get("strength").and_then(Json::as_str).unwrap_or("medium");
        let detector = floor.get("detector").and_then(Json::as_str).unwrap_or("?");
        let label = format!("{attack}:{strength} × {detector}");
        let Some(cell) = report.cell(attack, strength, detector) else {
            failures.push(format!("{label}: floor committed but cell missing from report"));
            continue;
        };
        if let Some(min_recall) = floor.get("min_recall").and_then(Json::as_f64) {
            if cell.recall + EPS < min_recall {
                failures.push(format!(
                    "{label}: recall {:.6} below floor {min_recall:.6}",
                    cell.recall
                ));
            }
        }
        if let Some(min_precision) = floor.get("min_precision").and_then(Json::as_f64) {
            if cell.precision + EPS < min_precision {
                failures.push(format!(
                    "{label}: precision {:.6} below floor {min_precision:.6}",
                    cell.precision
                ));
            }
        }
    }
    Ok(failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            num_clips: 4,
            inserted: 2,
            clip_min_s: 8.0,
            clip_max_s: 12.0,
            base_seconds: 60.0,
            ..Default::default()
        }
    }

    #[test]
    fn names_round_trip_and_grids_cover_the_matrix() {
        for k in AttackKind::ALL {
            assert_eq!(AttackKind::parse(k.name()), Some(k));
        }
        for s in Strength::ALL {
            assert_eq!(Strength::parse(s.name()), Some(s));
        }
        assert!(AttackKind::ALL.len() >= 8, "matrix must cover >= 8 attack types");
        assert_eq!(full_grid(1).len(), AttackKind::ALL.len() * 3);
        assert_eq!(standard_grid(1).len(), AttackKind::ALL.len());
        assert_eq!(smoke_grid(1).len(), 2);
    }

    #[test]
    fn attack_spec_parse_accepts_kind_and_strength() {
        let a = AttackSpec::parse("speed-up:heavy", 7).unwrap();
        assert_eq!(a.kind, AttackKind::SpeedUp);
        assert_eq!(a.strength, Strength::Heavy);
        let b = AttackSpec::parse("crop", 7).unwrap();
        assert_eq!(b.strength, Strength::Medium);
        assert!(AttackSpec::parse("bogus", 7).is_err());
        assert!(AttackSpec::parse("crop:massive", 7).is_err());
    }

    #[test]
    fn every_attack_is_deterministic_and_span_consistent() {
        let lib = ClipLibrary::new(tiny_spec(11));
        let clip = lib.original(0);
        for spec in full_grid(23) {
            let a = spec.attack_clip(&clip, lib.spec().gop);
            let b = spec.attack_clip(&clip, lib.spec().gop);
            assert_eq!(a.clip.frames(), b.clip.frames(), "{}", spec.label());
            assert_eq!(a.content, b.content, "{}", spec.label());
            assert!(
                a.content.1 <= a.clip.len() as u64,
                "{}: span {:?} exceeds clip len {}",
                spec.label(),
                a.content,
                a.clip.len()
            );
            assert!(a.content.0 < a.content.1, "{}: attack emptied the content", spec.label());
        }
    }

    #[test]
    fn speed_up_shrinks_content_span_and_clip_in_clip_offsets_it() {
        let lib = ClipLibrary::new(tiny_spec(12));
        let clip = lib.original(1);
        let fast = AttackSpec { kind: AttackKind::SpeedUp, strength: Strength::Medium, seed: 3 }
            .attack_clip(&clip, lib.spec().gop);
        // Medium speed-up is 1.5×: two thirds of the frames remain.
        let expect = (clip.len() as f64 / 1.5).round() as u64;
        assert_eq!(fast.clip.len() as u64, expect);
        assert_eq!(fast.content, (0, expect));

        let embedded =
            AttackSpec { kind: AttackKind::ClipInClip, strength: Strength::Medium, seed: 3 }
                .attack_clip(&clip, lib.spec().gop);
        let lead = clip.fps().frames_in(8.0) as u64;
        assert_eq!(embedded.content, (lead, lead + clip.len() as u64));
        assert_eq!(
            &embedded.clip.frames()[lead as usize..(lead as usize + clip.len())],
            clip.frames()
        );
    }

    #[test]
    fn attacked_stream_truth_is_remapped() {
        let lib = ClipLibrary::new(tiny_spec(13));
        let attack =
            AttackSpec { kind: AttackKind::SpeedUp, strength: Strength::Heavy, seed: 5 };
        let s = compose_attacked_stream(&lib, &attack);
        assert_eq!(s.kind, StreamKind::Attacked);
        assert_eq!(s.truth.len(), 2);
        for (i, gt) in s.truth.iter().enumerate() {
            // 2× speed-up: the airing occupies about half the original.
            let original = lib.original(gt.query_id).len() as u64;
            assert!(
                gt.len() <= original / 2 + 2 && gt.len() >= original / 2 - 2,
                "truth {i} len {} vs original {original}",
                gt.len()
            );
        }
        // Determinism of the composed stream.
        let again = compose_attacked_stream(&lib, &attack);
        assert_eq!(s.bitstream, again.bitstream);
        assert_eq!(s.truth, again.truth);
    }

    #[test]
    fn warped_truth_matches_detection_within_window_tolerance() {
        // The acceptance test for truth remapping: plant an airing, apply
        // a known speed factor, and the detected position must satisfy
        // the paper's rule against the *warped* span — and would NOT
        // satisfy it against the unwarped span's end, proving the remap
        // matters.
        let lib = ClipLibrary::new(tiny_spec(14));
        let attack =
            AttackSpec { kind: AttackKind::SpeedUp, strength: Strength::Light, seed: 9 };
        let config = MatrixConfig {
            spec: tiny_spec(14),
            profile: "test".to_string(),
            attacks: vec![attack],
            detectors: vec![DetectorVariant::Seq],
            w_seconds: 5.0,
            delta: 0.6,
            k: 400,
        };
        let stream = compose_attacked_stream(&lib, &attack);
        let fingerprints = fingerprint_stream(&stream, &FeatureConfig::default());
        let base = DetectorConfig {
            k: config.k,
            delta: config.delta,
            window_keyframes: lib.spec().window_keyframes(config.w_seconds),
            ..Default::default()
        };
        let cfg = DetectorVariant::Seq.configure(base);
        let family = Detector::family_for(&cfg);
        let queries = QuerySet::from_queries(
            (0..lib.len() as u32)
                .map(|id| {
                    Query::from_cell_ids(
                        id,
                        &family,
                        &lib.query_fingerprints(id, &FeatureConfig::default()),
                    )
                })
                .collect(),
        );
        let mut det = Detector::new(cfg, queries);
        let detections = det.run(fingerprints.cell_ids.clone());
        let w_frames = lib.spec().window_frames(config.w_seconds);

        // Every planted (warped) copy is found at a position the warped
        // truth accepts.
        for gt in &stream.truth {
            let hit = detections
                .iter()
                .find(|d| d.query_id == gt.query_id && gt.accepts(d.position(), w_frames));
            assert!(hit.is_some(), "warped copy {} not detected: {detections:?}", gt.query_id);
            // The unwarped span would extend past the warped end by the
            // speed factor; check the warp is actually reflected in the
            // recorded truth (1.25× light speed-up shortens the span).
            let original = lib.original(gt.query_id).len() as u64;
            assert!(gt.len() < original, "truth span must be warped shorter");
        }
    }

    #[test]
    fn matrix_report_is_deterministic_and_floors_check() {
        let config = MatrixConfig {
            spec: tiny_spec(15),
            profile: "test".to_string(),
            attacks: smoke_grid(15),
            detectors: vec![DetectorVariant::Seq],
            w_seconds: 5.0,
            delta: 0.7,
            k: 400,
        };
        let a = evaluate_matrix(&config);
        let b = evaluate_matrix(&config);
        assert_eq!(a.to_json(), b.to_json(), "matrix must be byte-reproducible");
        assert_eq!(a.cells.len(), 2);

        // Floors at the measured values pass; floors above them fail;
        // missing cells and profiles are configuration errors.
        let cell = &a.cells[0];
        let ok_floors = format!(
            r#"{{"profiles": {{"test": {{"seed": 15, "floors": [
                {{"attack": "{}", "strength": "{}", "detector": "{}",
                  "min_recall": {:.6}, "min_precision": {:.6}}}]}}}}}}"#,
            cell.attack, cell.strength, cell.detector, cell.recall, cell.precision
        );
        assert_eq!(check_floors(&a, &ok_floors).unwrap(), Vec::<String>::new());

        let too_high = ok_floors.replace(
            &format!("\"min_recall\": {:.6}", cell.recall),
            "\"min_recall\": 1.100000",
        );
        let failures = check_floors(&a, &too_high).unwrap();
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("below floor"), "{failures:?}");

        let missing_cell = ok_floors.replace(&cell.attack, "no-such-attack");
        assert!(check_floors(&a, &missing_cell).unwrap()[0].contains("missing"));

        assert!(check_floors(&a, r#"{"profiles": {}}"#).is_err(), "no section = error");
        let wrong_seed = ok_floors.replace("\"seed\": 15", "\"seed\": 16");
        assert!(check_floors(&a, &wrong_seed).is_err(), "seed mismatch = error");
    }

    #[test]
    fn profiles_resolve() {
        for name in ["smoke", "quick", "default"] {
            let c = MatrixConfig::profile(name, 7).unwrap();
            assert_eq!(c.profile, name);
            assert!(!c.attacks.is_empty());
            assert!(!c.detectors.is_empty());
        }
        assert!(MatrixConfig::profile("bogus", 7).is_none());
    }
}
