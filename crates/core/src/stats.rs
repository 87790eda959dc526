//! Operation counters for the paper's cost experiments.
//!
//! The paper's Section IV-B cost model is
//! `αC_comp + (αC_comp + C_comb)·⌈λL/w⌉` per basic window (Sequential) or
//! with `log(⌈λL/w⌉)` (Geometric). These counters expose every term —
//! comparisons, combinations, index probes, live signature population — so
//! the CPU (Figs. 6, 9, 12) and memory (Fig. 10) experiments can report
//! both wall-clock time and machine-independent operation counts.

/// Mutable counters accumulated by a [`crate::Detector`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stats {
    /// Basic windows processed.
    pub windows: u64,
    /// Sketch–sketch comparisons (`C_comp`, Sketch representation: K u64
    /// equality scans).
    pub sketch_compares: u64,
    /// Sketch–sketch combinations (`C_comb`, Sketch representation: K u64
    /// mins).
    pub sketch_combines: u64,
    /// Bit-signature encodings (Definition 3, the only O(K) value-domain
    /// operation of the Bit method) made *on demand* by a candidate
    /// store: a candidate tracks a query the sketch at hand has no
    /// signature against yet. Without the index that is every encode
    /// there is — one per window × tracked query; with it, the probe has
    /// already encoded the window against its related queries
    /// ([`Stats::probe_encodes`]) and only the rest are counted here.
    pub sig_encodes: u64,
    /// Bit-signature encodings made by the index probe's second phase:
    /// one per query it found related to the window, those it then
    /// pruned by Lemma 2 included. `sig_encodes + probe_encodes` is every
    /// encode a detector made.
    pub probe_encodes: u64,
    /// Bit-signature OR-combinations (`C_comb`, Bit representation:
    /// K/32 word ORs).
    pub sig_ors: u64,
    /// Bit-signature similarity evaluations (`C_comp`, Bit representation:
    /// two popcount scans).
    pub sig_compares: u64,
    /// Hash–Query index probes.
    pub index_probes: u64,
    /// Binary/equal-search row operations inside index probes.
    pub index_row_searches: u64,
    /// Index probe discovery: row lookups whose home cell was occupied
    /// (of the `K` per probe; the rest cost one load and no walk).
    pub index_home_hits: u64,
    /// Index probe discovery: occupied cells crossed by the lookups' runs.
    pub index_cells_walked: u64,
    /// Index probe discovery: walked cells whose 12-bit tag matched the
    /// lookup's value — true equalities and tag collisions alike, on
    /// queries already discovered or not.
    pub index_tag_matches: u64,
    /// Index probe discovery: tag matches on a query not yet discovered
    /// that were checked against its value in the slab. The checks that
    /// held are [`Stats::probe_encodes`].
    pub index_verifications: u64,
    /// Candidate-query entries pruned by Lemma 2.
    pub lemma2_prunes: u64,
    /// Candidate-query entries expired by the λL length bound.
    pub length_expiries: u64,
    /// Detections emitted.
    pub detections: u64,
    /// Sum over windows of the number of live signatures (or live
    /// candidate-query pairs for the Sketch representation) in the
    /// candidate list — divide by `windows` for the paper's "average
    /// number of bit signatures" memory metric (Fig. 10).
    pub live_signature_sum: u64,
    /// Peak number of live signatures at any window boundary.
    pub live_signature_peak: u64,
    /// Sum over windows of the candidate count (for average candidate-list
    /// length).
    pub live_candidate_sum: u64,
    /// Degradation: frames lost to bitstream corruption (decoder-level
    /// recovery; see `vdsms_codec`'s `IngestHealth`).
    pub frames_dropped: u64,
    /// Degradation: bytes discarded while resynchronizing onto a record
    /// boundary after corruption.
    pub bytes_skipped: u64,
    /// Degradation: successful decoder resynchronizations.
    pub resyncs: u64,
    /// Degradation: shard workers restarted after a panic (worker fleet
    /// supervision).
    pub shard_restarts: u64,
    /// Degradation: upper bound on key frames whose detector-state effect
    /// was lost to a shard restart (in-flight at the time of the crash).
    pub frames_lost: u64,
}

impl Stats {
    /// Accumulate another detector's (or shard's) counters into this one:
    /// counters add, peaks take the max. Merging per-stream or per-shard
    /// stats in any order yields the same aggregate (the operation is
    /// commutative and associative), which is what lets a sharded fleet
    /// report the same totals as a serial one.
    pub fn merge(&mut self, other: &Stats) {
        self.windows += other.windows;
        self.sketch_compares += other.sketch_compares;
        self.sketch_combines += other.sketch_combines;
        self.sig_encodes += other.sig_encodes;
        self.probe_encodes += other.probe_encodes;
        self.sig_ors += other.sig_ors;
        self.sig_compares += other.sig_compares;
        self.index_probes += other.index_probes;
        self.index_row_searches += other.index_row_searches;
        self.index_home_hits += other.index_home_hits;
        self.index_cells_walked += other.index_cells_walked;
        self.index_tag_matches += other.index_tag_matches;
        self.index_verifications += other.index_verifications;
        self.lemma2_prunes += other.lemma2_prunes;
        self.length_expiries += other.length_expiries;
        self.detections += other.detections;
        self.live_signature_sum += other.live_signature_sum;
        self.live_signature_peak = self.live_signature_peak.max(other.live_signature_peak);
        self.live_candidate_sum += other.live_candidate_sum;
        self.frames_dropped += other.frames_dropped;
        self.bytes_skipped += other.bytes_skipped;
        self.resyncs += other.resyncs;
        self.shard_restarts += other.shard_restarts;
        self.frames_lost += other.frames_lost;
    }

    /// Whether any degradation counter is non-zero — i.e. the numbers in
    /// this report were produced under corruption recovery or after a
    /// shard restart and may undercount the true stream.
    pub fn is_degraded(&self) -> bool {
        self.frames_dropped != 0
            || self.bytes_skipped != 0
            || self.resyncs != 0
            || self.shard_restarts != 0
            || self.frames_lost != 0
    }

    /// Average number of live signatures per window (Fig. 10's metric).
    pub fn avg_signatures(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.live_signature_sum as f64 / self.windows as f64
    }

    /// Average candidate-list length per window.
    pub fn avg_candidates(&self) -> f64 {
        if self.windows == 0 {
            return 0.0;
        }
        self.live_candidate_sum as f64 / self.windows as f64
    }

    /// Estimated signature memory in bytes, using the paper's accounting
    /// of 2K bits per signature.
    pub fn avg_signature_bytes(&self, k: usize) -> f64 {
        self.avg_signatures() * (2 * k) as f64 / 8.0
    }

    /// Record the live population at a window boundary.
    pub(crate) fn sample_live(&mut self, signatures: usize, candidates: usize) {
        self.live_signature_sum += signatures as u64;
        self.live_signature_peak = self.live_signature_peak.max(signatures as u64);
        self.live_candidate_sum += candidates as u64;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_handle_zero_windows() {
        let s = Stats::default();
        assert_eq!(s.avg_signatures(), 0.0);
        assert_eq!(s.avg_candidates(), 0.0);
    }

    #[test]
    fn sample_live_accumulates() {
        let mut s = Stats { windows: 2, ..Default::default() };
        s.sample_live(10, 3);
        s.sample_live(20, 5);
        assert_eq!(s.avg_signatures(), 15.0);
        assert_eq!(s.live_signature_peak, 20);
        assert_eq!(s.avg_candidates(), 4.0);
    }

    #[test]
    fn signature_bytes_uses_2k_bits() {
        let mut s = Stats { windows: 1, ..Default::default() };
        s.sample_live(150, 10);
        // 150 signatures × 2×800 bits = 150 × 200 bytes = 30 KB, the
        // paper's own arithmetic in Section VI-D.
        assert_eq!(s.avg_signature_bytes(800), 30_000.0);
    }
}
