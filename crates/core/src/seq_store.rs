//! Sequential-order candidate store (Section IV-A).
//!
//! The store maintains every *suffix* of the stream up to `⌈λL/w⌉` basic
//! windows: when window `t` arrives, each live candidate `[s, t−1]` is
//! extended to `[s, t]` and re-tested, and a fresh length-1 candidate
//! `[t, t]` is added. A candidate tracks, per related query, either its
//! raw combined sketch (Sketch representation — one shared sketch per
//! candidate) or a 2K-bit signature per query (Bit representation).
//! Entries leave via Lemma-2 pruning or the per-query λL length bound;
//! a candidate with no live entries is dropped.

use crate::bitsig::BitSig;
use crate::config::{DetectorConfig, Representation};
use crate::detection::Detection;
use crate::engine::Catalogue;
use crate::query::QueryId;
use crate::stats::Stats;
use crate::window::{sketch_relations, Window, WindowRelations};
use std::collections::VecDeque;
use vdsms_sketch::Sketch;

/// One tracked query within a candidate.
#[derive(Debug, Clone)]
struct Entry {
    qid: QueryId,
    keyframes: usize,
    /// Bit representation only: the OR-combined signature, in a buffer
    /// from the stream's pool ([`WindowRelations::take_sig`]) that goes
    /// back there when the entry dies.
    sig: Option<BitSig>,
    /// Whether a detection has already been emitted for this
    /// candidate-query pair.
    reported: bool,
}

/// One suffix candidate.
#[derive(Debug, Clone)]
struct Candidate {
    start_window: u64,
    start_frame: u64,
    /// Sketch representation only: the combined sketch of the suffix.
    sketch: Option<Sketch>,
    entries: Vec<Entry>,
}

/// Retired candidates kept for buffer reuse, capped so a detection burst
/// cannot pin unbounded memory.
const POOL_CAP: usize = 32;

/// The sequential candidate list `C_L`.
#[derive(Debug)]
pub struct SeqStore {
    rep: Representation,
    candidates: VecDeque<Candidate>,
    /// Retired candidates: their entry vectors and sketches keep their
    /// capacity, so steady-state candidate births are allocation-free
    /// (candidates die at the same rate they are born once pruning
    /// reaches equilibrium).
    pool: Vec<Candidate>,
}

impl SeqStore {
    /// New empty store.
    pub fn new(rep: Representation) -> SeqStore {
        SeqStore { rep, candidates: VecDeque::new(), pool: Vec::new() }
    }

    /// Return a dead candidate's buffers to the pool.
    fn retire(&mut self, cand: Candidate) {
        if self.pool.len() < POOL_CAP {
            // vdsms-lint: allow(no-alloc-hot-path) reason="pool Vec is capped at POOL_CAP; reaches its high-water mark during warm-up"
            self.pool.push(cand);
        }
    }

    /// Number of live candidates.
    pub fn candidate_count(&self) -> usize {
        self.candidates.len()
    }

    /// Number of live candidate-query pairs (the memory metric of
    /// Fig. 10: each pair is one 2K-bit signature in the Bit
    /// representation).
    pub fn live_signatures(&self) -> usize {
        self.candidates.iter().map(|c| c.entries.len()).sum()
    }

    /// Process one arrived basic window; returns the detections it
    /// triggered.
    pub(crate) fn advance(
        &mut self,
        win: &Window,
        rel: &mut WindowRelations,
        cfg: &DetectorConfig,
        catalogue: &Catalogue,
        stats: &mut Stats,
    ) -> Vec<Detection> {
        let mut out = Vec::new();

        // Extend every existing suffix candidate with the new window.
        let mut idx = 0;
        while idx < self.candidates.len() {
            let cand = &mut self.candidates[idx];
            let len_windows = (win.index - cand.start_window + 1) as usize;

            match self.rep {
                Representation::Sketch => {
                    // Every Sketch-representation candidate is constructed
                    // with a combined sketch; a (never observed) sketch-less
                    // one is dropped via the empty-entries path below.
                    if let Some(sketch) = cand.sketch.as_mut() {
                        sketch.combine(&win.sketch);
                        stats.sketch_combines += 1;
                        let sketch = &*sketch;
                        retain_entries_sketch(
                            &mut cand.entries,
                            sketch,
                            len_windows,
                            cand.start_frame,
                            win,
                            cfg,
                            catalogue,
                            stats,
                            &mut out,
                        );
                    } else {
                        cand.entries.clear();
                    }
                }
                Representation::Bit => {
                    let start_frame = cand.start_frame;
                    cand.entries.retain_mut(|e| {
                        if len_windows > cfg.max_windows_for(e.keyframes) {
                            stats.length_expiries += 1;
                            return retire_entry(e, rel);
                        }
                        let Some(wsig) = rel.sig_for(e.qid, &win.sketch, catalogue, stats) else {
                            return retire_entry(e, rel); // query unsubscribed
                        };
                        // Bit entries always carry a signature by
                        // construction; drop rather than panic otherwise.
                        let Some(sig) = e.sig.as_mut() else {
                            return false;
                        };
                        // Fused merge+count: one pass over the signature
                        // words yields the OR, n_lt and n_eq together.
                        let (n_less, n_eq) = sig.or_with_counts(wsig);
                        stats.sig_ors += 1;
                        stats.sig_compares += 1;
                        if sig.lemma2_from_count(n_less, cfg.pruning_delta()) {
                            stats.lemma2_prunes += 1;
                            return retire_entry(e, rel);
                        }
                        let sim = sig.similarity_from_count(n_eq);
                        if sim + 1e-12 >= cfg.delta && !e.reported {
                            e.reported = true;
                            stats.detections += 1;
                            // vdsms-lint: allow(no-alloc-hot-path) reason="detection events only; the output Vec stays empty (and unallocated) on non-matching windows"
                            out.push(Detection {
                                query_id: e.qid,
                                start_frame,
                                end_frame: win.end_frame,
                                windows: len_windows,
                                similarity: sim,
                            });
                        }
                        true
                    });
                }
            }

            if cand.entries.is_empty() {
                if let Some(dead) = self.candidates.remove(idx) {
                    self.retire(dead);
                }
            } else {
                idx += 1;
            }
        }

        // Add the fresh length-1 candidate born from this window, reusing
        // a retired candidate's buffers when one is pooled.
        let mut cand = self.pool.pop().unwrap_or_else(|| Candidate {
            start_window: 0,
            start_frame: 0,
            sketch: None,
            entries: Vec::new(),
        });
        cand.start_window = win.index;
        cand.start_frame = win.start_frame;
        cand.entries.clear();
        match self.rep {
            Representation::Sketch => match &mut cand.sketch {
                Some(s) => s.copy_from(&win.sketch),
                // vdsms-lint: allow(no-alloc-hot-path) reason="first use of a pool slot only; afterwards copy_from reuses the buffer"
                None => cand.sketch = Some(win.sketch.clone()),
            },
            Representation::Bit => cand.sketch = None,
        }
        for i in 0..rel.related_len() {
            let (qid, keyframes) = rel.related_at(i);
            let sig = match self.rep {
                Representation::Bit => {
                    match rel.sig_copy_for(qid, &win.sketch, catalogue, stats) {
                        Some(copy) => Some(copy),
                        None => continue,
                    }
                }
                Representation::Sketch => None,
            };
            // vdsms-lint: allow(no-alloc-hot-path) reason="pooled Vec; capacity stabilizes at the related-query high-water mark"
            cand.entries.push(Entry { qid, keyframes, sig, reported: false });
        }
        if !cand.entries.is_empty() {
            // Test the newborn candidate too (a single window can already
            // match a short query).
            match self.rep {
                Representation::Sketch => {
                    // The newborn candidate's sketch is exactly the window's.
                    retain_entries_sketch(
                        &mut cand.entries,
                        &win.sketch,
                        1,
                        cand.start_frame,
                        win,
                        cfg,
                        catalogue,
                        stats,
                        &mut out,
                    );
                }
                Representation::Bit => {
                    let start_frame = cand.start_frame;
                    cand.entries.retain_mut(|e| {
                        let Some(sig) = e.sig.as_ref() else {
                            return false;
                        };
                        stats.sig_compares += 1;
                        let (n_less, n_eq) = sig.counts();
                        if sig.lemma2_from_count(n_less, cfg.pruning_delta()) {
                            stats.lemma2_prunes += 1;
                            return retire_entry(e, rel);
                        }
                        let sim = sig.similarity_from_count(n_eq);
                        if sim + 1e-12 >= cfg.delta {
                            e.reported = true;
                            stats.detections += 1;
                            // vdsms-lint: allow(no-alloc-hot-path) reason="detection events only; the output Vec stays empty (and unallocated) on non-matching windows"
                            out.push(Detection {
                                query_id: e.qid,
                                start_frame,
                                end_frame: win.end_frame,
                                windows: 1,
                                similarity: sim,
                            });
                        }
                        true
                    });
                }
            }
            if cand.entries.is_empty() {
                self.retire(cand);
            } else {
                // vdsms-lint: allow(no-alloc-hot-path) reason="VecDeque capacity stabilizes at the live-candidate high-water mark; the candidate itself reuses pooled buffers"
                self.candidates.push_back(cand);
            }
        } else {
            self.retire(cand);
        }

        stats.sample_live(self.live_signatures(), self.candidates.len());
        out
    }
}

/// A Bit entry is leaving its candidate: hand its signature's buffer back
/// to the stream's pool. Returns `false`, the `retain` verdict.
fn retire_entry(e: &mut Entry, rel: &mut WindowRelations) -> bool {
    if let Some(sig) = e.sig.take() {
        rel.recycle_sig(sig);
    }
    false
}

/// Shared per-entry logic of the Sketch representation: compare the
/// candidate's combined sketch against each tracked query, applying the
/// length bound, Lemma-2 pruning and the δ match test.
#[allow(clippy::too_many_arguments)]
fn retain_entries_sketch(
    entries: &mut Vec<Entry>,
    cand_sketch: &Sketch,
    len_windows: usize,
    start_frame: u64,
    win: &Window,
    cfg: &DetectorConfig,
    catalogue: &Catalogue,
    stats: &mut Stats,
    out: &mut Vec<Detection>,
) {
    let k = cand_sketch.k() as f64;
    entries.retain_mut(|e| {
        if len_windows > cfg.max_windows_for(e.keyframes) {
            stats.length_expiries += 1;
            return false;
        }
        let Some(values) = catalogue.values(e.qid) else {
            return false;
        };
        stats.sketch_compares += 1;
        let (n_eq, n_less) = sketch_relations(cand_sketch.mins(), values);
        if n_less as f64 > k * (1.0 - cfg.pruning_delta()) {
            stats.lemma2_prunes += 1;
            return false;
        }
        let sim = n_eq as f64 / k;
        if sim + 1e-12 >= cfg.delta && !e.reported {
            e.reported = true;
            stats.detections += 1;
            // vdsms-lint: allow(no-alloc-hot-path) reason="detection events only; the output Vec stays empty (and unallocated) on non-matching windows"
            out.push(Detection {
                query_id: e.qid,
                start_frame,
                end_frame: win.end_frame,
                windows: len_windows,
                similarity: sim,
            });
        }
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Query, QuerySet};
    use vdsms_sketch::MinHashFamily;

    const K: usize = 128;

    fn cfg(rep: Representation) -> DetectorConfig {
        DetectorConfig {
            k: K,
            delta: 0.7,
            lambda: 2.0,
            window_keyframes: 4,
            representation: rep,
            use_index: false,
            ..Default::default()
        }
    }

    /// The catalogue of a no-index detector over `queries`.
    fn catalogue(queries: QuerySet) -> Catalogue {
        Catalogue::shared(&cfg(Representation::Bit), &queries, None)
    }

    fn family() -> MinHashFamily {
        MinHashFamily::new(K, 5)
    }

    fn window(f: &MinHashFamily, index: u64, ids: &[u64]) -> Window {
        Window {
            index,
            start_frame: index * 4,
            end_frame: index * 4 + 3,
            sketch: Sketch::from_ids(f, ids.iter().copied()),
        }
    }

    /// Drive a store over windows whose ids jointly cover the query set —
    /// the candidate spanning them must match even though no single window
    /// does.
    fn run(rep: Representation) -> (Vec<Detection>, Stats) {
        let f = family();
        let query_ids: Vec<u64> = (0..30).collect();
        let queries =
            QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &query_ids)]);
        let catalogue = catalogue(queries);
        let config = cfg(rep);
        let mut store = SeqStore::new(rep);
        let mut stats = Stats::default();
        let mut dets = Vec::new();
        // Three windows, each one third of the query's ids — out of order
        // (set similarity must not care).
        let parts: [&[u64]; 3] = [&query_ids[20..30], &query_ids[0..10], &query_ids[10..20]];
        for (i, part) in parts.iter().enumerate() {
            let w = window(&f, i as u64, part);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            dets.extend(store.advance(&w, &mut rel, &config, &catalogue, &mut stats));
        }
        (dets, stats)
    }

    #[test]
    fn bit_rep_detects_split_copy() {
        let (dets, stats) = run(Representation::Bit);
        assert!(!dets.is_empty(), "candidate spanning all windows must match");
        // Candidates report at their FIRST δ-crossing, which may happen on
        // a partial prefix — require a confident match, not exactly 1.0.
        let d = dets.iter().max_by(|a, b| a.similarity.total_cmp(&b.similarity)).unwrap();
        assert_eq!(d.query_id, 1);
        assert!(d.similarity >= 0.7, "similarity {}", d.similarity);
        assert_eq!(d.start_frame, 0);
        assert!(stats.sig_ors > 0);
    }

    #[test]
    fn sketch_rep_detects_split_copy() {
        let (dets, stats) = run(Representation::Sketch);
        assert!(!dets.is_empty());
        assert!(dets.iter().map(|d| d.similarity).fold(0.0, f64::max) >= 0.7);
        assert!(stats.sketch_compares > 0);
        assert!(stats.sketch_combines > 0);
    }

    #[test]
    fn both_representations_agree_on_detections() {
        let (bit, _) = run(Representation::Bit);
        let (sketch, _) = run(Representation::Sketch);
        // Same candidate/query pairs, same similarities (the bit encoding
        // is lossless).
        let key = |d: &Detection| (d.query_id, d.start_frame, d.end_frame);
        let mut a: Vec<_> = bit.iter().map(|d| (key(d), d.similarity)).collect();
        let mut b: Vec<_> = sketch.iter().map(|d| (key(d), d.similarity)).collect();
        a.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        b.sort_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
        assert_eq!(a, b);
    }

    #[test]
    fn unrelated_stream_yields_no_detections_and_prunes() {
        let f = family();
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(
            1,
            &f,
            &(1000u64..1030).collect::<Vec<_>>(),
        )]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = SeqStore::new(Representation::Bit);
        let mut stats = Stats::default();
        for i in 0..10u64 {
            let ids: Vec<u64> = (i * 10..i * 10 + 10).collect();
            let w = window(&f, i, &ids);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            let dets = store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
            assert!(dets.is_empty());
        }
        assert!(stats.lemma2_prunes > 0, "unrelated candidates must be pruned");
        // Pruning keeps the candidate list thin.
        assert!(store.candidate_count() < 10);
    }

    #[test]
    fn length_bound_expires_entries() {
        let f = family();
        // Query of 4 keyframes -> max windows = ceil(2*4/4) = 2.
        let queries =
            QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &[1, 2, 3, 4])]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = SeqStore::new(Representation::Bit);
        let mut stats = Stats::default();
        // Windows that keep the entry alive (share ids with the query).
        for i in 0..5u64 {
            let w = window(&f, i, &[1, 2, 3, 4]);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
        }
        assert!(stats.length_expiries > 0, "candidates beyond λL must expire");
        // No candidate may exceed the λL bound in windows.
        assert!(store.candidate_count() <= 2 + 1);
    }

    #[test]
    fn detection_reports_once_per_candidate_query() {
        let f = family();
        let queries =
            QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &[1, 2, 3, 4])]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = SeqStore::new(Representation::Bit);
        let mut stats = Stats::default();
        let mut total = 0;
        for i in 0..2u64 {
            let w = window(&f, i, &[1, 2, 3, 4]);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            total += store.advance(&w, &mut rel, &config, &catalogue, &mut stats).len();
        }
        // Window 0 candidate reports once; window 1's fresh candidate
        // reports once. The extended candidate [0,1] must NOT re-report.
        assert_eq!(total, 2);
    }

    #[test]
    fn live_signature_accounting() {
        let f = family();
        let queries =
            QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &(0u64..40).collect::<Vec<_>>())]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = SeqStore::new(Representation::Bit);
        let mut stats = Stats::default();
        let w = window(&f, 0, &[0, 1, 2, 3]);
        let mut rel = WindowRelations::all_queries(catalogue.queries());
        stats.windows += 1;
        store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
        assert_eq!(store.live_signatures(), 1);
        assert_eq!(stats.live_signature_peak, 1);
    }
}
