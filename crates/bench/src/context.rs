//! Shared experiment context: builds the synthetic workload once and
//! caches every derived artifact (streams, fingerprints, query sketches)
//! across experiments, since e.g. a K sweep re-uses the same cell-id
//! sequences for every K.

use std::collections::HashMap;
use vdsms_baselines::{BaselineKind, BaselineMatcher, BaselineQuery};
use vdsms_codec::DcFrame;
use vdsms_core::{Detection, Detector, DetectorConfig, Query, QuerySet, Stats};
use vdsms_features::FeatureConfig;
use vdsms_workload::{
    compose_stream, fingerprint_stream, score, ClipLibrary, ComposedStream, FingerprintedStream,
    PrecisionRecall, StreamKind, WorkloadSpec,
};

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Minutes-scale smoke runs (CI).
    Quick,
    /// The default: a ~45-minute stream, 60 clips; an experiment suite in
    /// CPU-minutes.
    Default,
    /// The paper's full query count (m = 200) on a moderate stream:
    /// demonstrates the crossovers that need many queries (Fig. 9) in
    /// ~15 CPU-minutes.
    Large,
    /// The paper's proportions (12 hours, 200 clips of 30–300 s). Expect
    /// hours.
    Full,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "quick" => Some(Scale::Quick),
            "default" => Some(Scale::Default),
            "large" => Some(Scale::Large),
            "full" => Some(Scale::Full),
            _ => None,
        }
    }

    /// The workload spec for this scale.
    pub fn spec(self, seed: u64) -> WorkloadSpec {
        match self {
            Scale::Quick => WorkloadSpec {
                seed,
                num_clips: 16,
                inserted: 10,
                clip_min_s: 15.0,
                clip_max_s: 40.0,
                base_seconds: 400.0,
                ..Default::default()
            },
            Scale::Default => WorkloadSpec {
                seed,
                num_clips: 60,
                inserted: 25,
                clip_min_s: 30.0,
                clip_max_s: 120.0,
                base_seconds: 1200.0,
                ..Default::default()
            },
            Scale::Large => WorkloadSpec {
                seed,
                num_clips: 200,
                inserted: 50,
                clip_min_s: 30.0,
                clip_max_s: 60.0,
                base_seconds: 1800.0,
                ..Default::default()
            },
            Scale::Full => WorkloadSpec::paper_scale(seed),
        }
    }

    /// Sweep of hash-function counts K for the CPU experiment (Fig. 6,
    /// paper range 100–3000).
    pub fn k_sweep_cpu(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![100, 400, 1600],
            Scale::Default | Scale::Large => vec![100, 200, 400, 800, 1600, 3000],
            Scale::Full => vec![100, 200, 400, 800, 1600, 2400, 3000],
        }
    }

    /// Sweep of K for the accuracy experiment (Figs. 7–8, paper range
    /// 10–2000).
    pub fn k_sweep_accuracy(self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![10, 100, 800],
            Scale::Default | Scale::Large => vec![10, 50, 100, 200, 400, 800, 2000],
            Scale::Full => vec![10, 50, 100, 200, 400, 800, 1200, 2000],
        }
    }

    /// Sweep of query counts m (Fig. 9, paper range 10–200), capped at the
    /// library size.
    pub fn m_sweep(self, max: usize) -> Vec<usize> {
        let base: &[usize] = match self {
            Scale::Quick => &[4, 8, 16],
            Scale::Default => &[10, 20, 30, 45, 60],
            Scale::Large | Scale::Full => &[10, 25, 50, 100, 150, 200],
        };
        base.iter().copied().filter(|&m| m <= max).collect()
    }

    /// Sweep of basic-window sizes in seconds (Figs. 10b–12, paper range
    /// 5–20 s).
    pub fn w_sweep(self) -> Vec<f64> {
        match self {
            Scale::Quick => vec![5.0, 10.0],
            _ => vec![5.0, 10.0, 15.0, 20.0],
        }
    }

    /// Sweep of similarity thresholds δ (Figs. 10a/13, paper range
    /// 0.5–0.9).
    pub fn delta_sweep(self) -> Vec<f64> {
        vec![0.5, 0.6, 0.7, 0.8, 0.9]
    }
}

/// One detection run's measurements.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Detections produced.
    pub detections: Vec<Detection>,
    /// Engine counters.
    pub stats: Stats,
    /// Query-processing wall time (engine only).
    pub engine_seconds: f64,
    /// Accuracy against the stream's ground truth.
    pub pr: PrecisionRecall,
}

/// DC frames of (original clips, edited clips).
pub type ClipDcFrames = (Vec<Vec<DcFrame>>, Vec<Vec<DcFrame>>);

/// The shared, caching experiment context.
pub struct Ctx {
    spec: WorkloadSpec,
    library: ClipLibrary,
    features: FeatureConfig,
    streams: HashMap<StreamKind, ComposedStream>,
    fingerprints: HashMap<StreamKind, FingerprintedStream>,
    query_cells: Option<Vec<Vec<u64>>>,
    query_feats: Option<Vec<Vec<Vec<f32>>>>,
    /// DC frames of each original / edited clip (for Table II's per-(u,d)
    /// re-extraction).
    clip_dcs: Option<ClipDcFrames>,
    /// Whether to print progress lines to stderr.
    pub verbose: bool,
}

impl Ctx {
    /// Create a context for a scale.
    pub fn new(scale: Scale, seed: u64) -> Ctx {
        let spec = scale.spec(seed);
        Ctx::with_spec(spec)
    }

    /// Create a context for an explicit spec.
    pub fn with_spec(spec: WorkloadSpec) -> Ctx {
        let library = ClipLibrary::new(spec.clone());
        Ctx {
            spec,
            library,
            features: FeatureConfig::default(),
            streams: HashMap::new(),
            fingerprints: HashMap::new(),
            query_cells: None,
            query_feats: None,
            clip_dcs: None,
            verbose: true,
        }
    }

    /// The workload spec.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// The clip library.
    pub fn library(&self) -> &ClipLibrary {
        &self.library
    }

    /// The default feature configuration (paper Table I).
    pub fn features(&self) -> &FeatureConfig {
        &self.features
    }

    fn progress(&self, msg: &str) {
        if self.verbose {
            eprintln!("[ctx] {msg}");
        }
    }

    /// The composed stream of a kind (built once).
    pub fn stream(&mut self, kind: StreamKind) -> &ComposedStream {
        if !self.streams.contains_key(&kind) {
            self.progress(&format!("composing {kind:?} stream..."));
            let t = crate::now();
            let s = compose_stream(&self.library, kind);
            self.progress(&format!(
                "{kind:?}: {} frames, {} bytes, {:.1}s",
                s.total_frames,
                s.bitstream.len(),
                t.elapsed().as_secs_f64()
            ));
            self.streams.insert(kind, s);
        }
        &self.streams[&kind]
    }

    /// The fingerprinted view of a stream (default feature config).
    pub fn fingerprints(&mut self, kind: StreamKind) -> &FingerprintedStream {
        if !self.fingerprints.contains_key(&kind) {
            self.stream(kind);
            let fp = fingerprint_stream(&self.streams[&kind], &self.features.clone());
            self.fingerprints.insert(kind, fp);
        }
        &self.fingerprints[&kind]
    }

    /// Cell-id sequences of every query clip (default feature config).
    pub fn query_cells(&mut self) -> &Vec<Vec<u64>> {
        if self.query_cells.is_none() {
            self.progress(&format!("fingerprinting {} query clips...", self.library.len()));
            let fc = self.features;
            let cells = (0..self.library.len() as u32)
                .map(|id| self.library.query_fingerprints(id, &fc))
                .collect();
            self.query_cells = Some(cells);
        }
        self.query_cells.as_ref().expect("just built")
    }

    /// Per-key-frame feature vectors of every query clip (baseline input).
    pub fn query_features(&mut self) -> &Vec<Vec<Vec<f32>>> {
        if self.query_feats.is_none() {
            self.progress("extracting baseline query features...");
            let fc = self.features;
            let feats = (0..self.library.len() as u32)
                .map(|id| self.library.query_features(id, &fc))
                .collect();
            self.query_feats = Some(feats);
        }
        self.query_feats.as_ref().expect("just built")
    }

    /// DC frames of every original and edited clip (for Table II).
    pub fn clip_dc_frames(&mut self) -> &ClipDcFrames {
        if self.clip_dcs.is_none() {
            self.progress("decoding clip DC frames (originals + edited)...");
            let originals = (0..self.library.len() as u32)
                .map(|id| self.library.dc_frames(&self.library.original(id)))
                .collect();
            let edited = (0..self.library.len() as u32)
                .map(|id| self.library.dc_frames(&self.library.edited(id)))
                .collect();
            self.clip_dcs = Some((originals, edited));
        }
        self.clip_dcs.as_ref().expect("just built")
    }

    /// Build a query set of the first `m` clips for a detector config.
    pub fn query_set(&mut self, cfg: &DetectorConfig, m: usize) -> QuerySet {
        let m = m.min(self.library.len());
        let family = Detector::family_for(cfg);
        let cells = self.query_cells().clone();
        QuerySet::from_queries(
            (0..m as u32).map(|id| Query::from_cell_ids(id, &family, &cells[id as usize])).collect(),
        )
    }

    /// Run the engine over a stream with `m` queries; returns detections,
    /// stats, wall time, and accuracy.
    pub fn run_engine(&mut self, kind: StreamKind, cfg: DetectorConfig, m: usize) -> RunResult {
        cfg.validate();
        let queries = self.query_set(&cfg, m);
        let cells = self.fingerprints(kind).cell_ids.clone();
        let truth = self.stream(kind).truth.clone();
        let w_frames = (cfg.window_keyframes as f64 / self.spec.keyframe_rate()
            * self.spec.fps.as_f64())
        .round() as u64;
        let mut det = Detector::new(cfg, queries);
        let t = crate::now();
        let detections = det.run(cells);
        let engine_seconds = t.elapsed().as_secs_f64();
        let pr = score(&detections, &truth, w_frames);
        RunResult { detections, stats: *det.stats(), engine_seconds, pr }
    }

    /// Run a baseline matcher over a stream with `m` queries.
    pub fn run_baseline(
        &mut self,
        kind: StreamKind,
        baseline: BaselineKind,
        threshold: f64,
        w_seconds: f64,
        m: usize,
    ) -> (PrecisionRecall, f64) {
        let m = m.min(self.library.len());
        let gap = self.spec.window_keyframes(w_seconds);
        let queries: Vec<BaselineQuery> = self
            .query_features()
            .iter()
            .take(m)
            .enumerate()
            .map(|(id, f)| BaselineQuery { id: id as u32, features: f.clone() })
            .collect();
        let feats = self.fingerprints(kind).features.clone();
        let truth = self.stream(kind).truth.clone();
        let w_frames = self.spec.window_frames(w_seconds);
        let mut matcher = BaselineMatcher::new(baseline, threshold, gap, queries);
        let t = crate::now();
        let mut dets = Vec::new();
        for (frame, f) in feats {
            dets.extend(matcher.push_keyframe(frame, f));
        }
        let secs = t.elapsed().as_secs_f64();
        (score(&dets, &truth, w_frames), secs)
    }

    /// Partial-decode seconds of the stream (included in the paper's CPU
    /// measurements).
    pub fn decode_seconds(&mut self, kind: StreamKind) -> f64 {
        self.fingerprints(kind).decode_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdsms_core::{Order, Representation};

    fn quick_ctx() -> Ctx {
        let mut spec = WorkloadSpec::tiny(5);
        spec.num_clips = 6;
        spec.inserted = 3;
        spec.base_seconds = 90.0;
        let mut ctx = Ctx::with_spec(spec);
        ctx.verbose = false;
        ctx
    }

    #[test]
    fn scale_parse() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("default"), Some(Scale::Default));
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("bogus"), None);
    }

    #[test]
    fn sweeps_respect_caps() {
        assert!(Scale::Default.m_sweep(30).iter().all(|&m| m <= 30));
        assert!(!Scale::Quick.k_sweep_cpu().is_empty());
    }

    #[test]
    fn engine_run_detects_on_vs1() {
        let mut ctx = quick_ctx();
        let cfg = DetectorConfig {
            k: 200,
            window_keyframes: ctx.spec().window_keyframes(5.0),
            order: Order::Sequential,
            representation: Representation::Bit,
            use_index: true,
            ..Default::default()
        };
        let m = ctx.library().len();
        let res = ctx.run_engine(StreamKind::Vs1, cfg, m);
        assert!(res.pr.recall >= 0.6, "recall {:?}", res.pr);
        assert!(res.pr.precision >= 0.9, "precision {:?}", res.pr);
        assert!(res.stats.windows > 0);
    }

    #[test]
    fn caches_are_reused() {
        let mut ctx = quick_ctx();
        let a = ctx.fingerprints(StreamKind::Vs1).cell_ids.len();
        let b = ctx.fingerprints(StreamKind::Vs1).cell_ids.len();
        assert_eq!(a, b);
        assert_eq!(ctx.streams.len(), 1);
    }
}
