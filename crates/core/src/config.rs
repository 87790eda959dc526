//! Detector configuration (the paper's Table I parameters plus method
//! selection).

/// Candidate combination order (Section IV-A, Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Order {
    /// Maintain every suffix candidate of length `1..⌈λL/w⌉` windows; each
    /// arriving basic window extends them all. Most accurate, `O(⌈λL/w⌉)`
    /// combinations per window.
    Sequential,
    /// Maintain `O(log)` geometric segments (a binary counter) and test
    /// only the `⌈log i⌉` suffixes they induce. Cheaper, may miss matches
    /// whose boundaries fall between the tested suffix lengths.
    Geometric,
}

/// Sketch representation used for candidate-vs-query comparisons
/// (Section V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Representation {
    /// Raw K-min-hash arrays; combining is an element-wise `min` over `K`
    /// u64 values and comparison counts equal positions.
    Sketch,
    /// 2K-bit relation signatures (Definition 3); combining is a bitwise
    /// OR over `K/32` words and comparison is two popcounts.
    Bit,
}

/// Full configuration of a [`crate::Detector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorConfig {
    /// Number of min-hash functions `K` (paper default 800, swept
    /// 100–3000).
    pub k: usize,
    /// Seed of the min-hash family. Queries and streams must be sketched
    /// with the same `(k, hash_seed)`.
    pub hash_seed: u64,
    /// Similarity threshold `δ` (paper default 0.7, swept 0.5–0.9).
    pub delta: f64,
    /// Tempo-scaling bound `λ`: candidates longer than `λL` frames for a
    /// length-`L` query are expired (paper cites its ref. 28 for λ ≤ 2).
    pub lambda: f64,
    /// Basic window size `w`, in *key frames* (the paper's `w` is in
    /// seconds; multiply by the stream's key-frame rate).
    pub window_keyframes: usize,
    /// Candidate combination order.
    pub order: Order,
    /// Candidate representation.
    pub representation: Representation,
    /// Whether to use the Hash–Query index (Section V-C) to find related
    /// queries, instead of comparing every window against every query.
    pub use_index: bool,
    /// Whether Lemma-2 pruning is applied (always on in the paper; the
    /// ablation experiment switches it off to measure its contribution).
    pub enable_pruning: bool,
    /// Number of [`crate::Fleet`] shards. `1` runs every stream inline on
    /// the caller's thread (no thread, channel or lock); `> 1` hash-shards
    /// the streams onto that many supervised worker threads. Detection
    /// results are independent of the shard count.
    pub shards: usize,
}

/// One detector axis point of an evaluation sweep: candidate combination
/// order × whether the Hash–Query index is used. The robustness attack
/// matrix (and any future sweep) names its detector columns with these,
/// so CLI flags, bench tables, and committed floor files all agree on
/// the spelling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DetectorVariant {
    /// Sequential order with the Hash–Query index (the paper's default).
    Seq,
    /// Geometric order with the Hash–Query index.
    Geo,
    /// Sequential order, exhaustive comparison (no index).
    SeqNoIndex,
    /// Geometric order, exhaustive comparison (no index).
    GeoNoIndex,
}

impl DetectorVariant {
    /// Every variant, in canonical (floor-file) order.
    pub const ALL: [DetectorVariant; 4] = [
        DetectorVariant::Seq,
        DetectorVariant::Geo,
        DetectorVariant::SeqNoIndex,
        DetectorVariant::GeoNoIndex,
    ];

    /// Stable name used in CLI flags, reports, and floor files.
    pub fn name(self) -> &'static str {
        match self {
            DetectorVariant::Seq => "seq",
            DetectorVariant::Geo => "geo",
            DetectorVariant::SeqNoIndex => "seq-noindex",
            DetectorVariant::GeoNoIndex => "geo-noindex",
        }
    }

    /// Parse a [`DetectorVariant::name`] back.
    pub fn parse(s: &str) -> Option<DetectorVariant> {
        DetectorVariant::ALL.into_iter().find(|v| v.name() == s)
    }

    /// Apply this variant's order / index choice to a base configuration.
    pub fn configure(self, base: DetectorConfig) -> DetectorConfig {
        let (order, use_index) = match self {
            DetectorVariant::Seq => (Order::Sequential, true),
            DetectorVariant::Geo => (Order::Geometric, true),
            DetectorVariant::SeqNoIndex => (Order::Sequential, false),
            DetectorVariant::GeoNoIndex => (Order::Geometric, false),
        };
        DetectorConfig { order, use_index, ..base }
    }
}

/// Default min-hash family seed.
pub const DEFAULT_HASH_SEED: u64 = 0x5ce7_c4ed_0000_2008;

impl Default for DetectorConfig {
    fn default() -> DetectorConfig {
        DetectorConfig {
            k: 800,
            hash_seed: DEFAULT_HASH_SEED,
            delta: 0.7,
            lambda: 2.0,
            window_keyframes: 10,
            order: Order::Sequential,
            representation: Representation::Bit,
            use_index: true,
            enable_pruning: true,
            shards: 1,
        }
    }
}

impl DetectorConfig {
    /// Validate parameter ranges.
    ///
    /// # Panics
    /// Panics on invalid parameters (zero `K`, `δ ∉ (0, 1]`, `λ < 1`,
    /// zero window size).
    pub fn validate(&self) {
        assert!(self.k >= 1, "K must be >= 1");
        assert!(self.delta > 0.0 && self.delta <= 1.0, "δ must be in (0, 1]");
        assert!(self.lambda >= 1.0, "λ must be >= 1");
        assert!(self.window_keyframes >= 1, "window size must be >= 1");
        assert!(self.shards >= 1, "shard count must be >= 1");
    }

    /// The δ used for Lemma-2 pruning: the configured δ when pruning is
    /// enabled, else 0 (at δ = 0 the bound `n_lt > K` is unsatisfiable, so
    /// nothing is ever pruned).
    pub fn pruning_delta(&self) -> f64 {
        if self.enable_pruning {
            self.delta
        } else {
            0.0
        }
    }

    /// Maximum candidate length in basic windows for a query of
    /// `query_keyframes` key frames: `⌈λ·L / w⌉`.
    pub fn max_windows_for(&self, query_keyframes: usize) -> usize {
        ((self.lambda * query_keyframes as f64) / self.window_keyframes as f64).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_table1() {
        let c = DetectorConfig::default();
        assert_eq!(c.k, 800);
        assert_eq!(c.delta, 0.7);
        assert_eq!(c.lambda, 2.0);
        assert_eq!(c.order, Order::Sequential);
        assert_eq!(c.representation, Representation::Bit);
        assert!(c.use_index);
        c.validate();
    }

    #[test]
    fn max_windows_rounds_up() {
        let c = DetectorConfig { window_keyframes: 10, lambda: 2.0, ..Default::default() };
        assert_eq!(c.max_windows_for(60), 12); // 2*60/10
        assert_eq!(c.max_windows_for(61), 13); // ceil(12.2)
        assert_eq!(c.max_windows_for(5), 1);
    }

    #[test]
    #[should_panic(expected = "δ must be in")]
    fn invalid_delta_rejected() {
        DetectorConfig { delta: 0.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "λ must be")]
    fn invalid_lambda_rejected() {
        DetectorConfig { lambda: 0.5, ..Default::default() }.validate();
    }

    #[test]
    fn detector_variant_names_round_trip() {
        for v in DetectorVariant::ALL {
            assert_eq!(DetectorVariant::parse(v.name()), Some(v));
        }
        assert_eq!(DetectorVariant::parse("bogus"), None);
    }

    #[test]
    fn detector_variant_configures_order_and_index() {
        let base = DetectorConfig::default();
        let geo = DetectorVariant::GeoNoIndex.configure(base);
        assert_eq!(geo.order, Order::Geometric);
        assert!(!geo.use_index);
        assert_eq!(geo.k, base.k, "other fields pass through");
        let seq = DetectorVariant::Seq.configure(base);
        assert_eq!(seq.order, Order::Sequential);
        assert!(seq.use_index);
    }
}
