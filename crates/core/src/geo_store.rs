//! Geometric-order candidate store (Section IV-A, Fig. 2).
//!
//! Instead of every suffix, the store keeps `O(log)` *segments* whose
//! lengths follow a binary counter (1, 2, 4, ... windows). When window `t`
//! arrives it is tested alone, then cascaded backwards through the
//! segments — each cascade step combines one more segment into the running
//! suffix and re-tests it — giving `⌈log i⌉` combinations per arrival as
//! in the paper's cost model. Afterwards the window is appended as a
//! length-1 segment and equal-length neighbours merge (carry
//! propagation).
//!
//! The price of the logarithmic cost is that only geometrically-spaced
//! suffix lengths are tested, which the paper reports as slightly lower
//! recall at high δ (Figs. 7–8).

use crate::bitsig::{BitSig, CandidatePlane};
use crate::config::{DetectorConfig, Representation};
use crate::detection::Detection;
use crate::engine::Catalogue;
use crate::query::QueryId;
use crate::stats::Stats;
use crate::window::{sketch_relations, Window, WindowRelations};
use std::collections::{BTreeMap, VecDeque};
use vdsms_sketch::Sketch;

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// One tracked query within a segment.
#[derive(Debug, Clone)]
struct Entry {
    qid: QueryId,
    keyframes: usize,
    /// Bit representation only: signature of this *segment* vs the query,
    /// in a buffer from the stream's pool ([`WindowRelations::take_sig`])
    /// that goes back there when the entry dies.
    sig: Option<BitSig>,
}

/// A Bit entry is leaving its list: hand its signature's buffer back to
/// the stream's pool. Returns `false`, the `retain` verdict.
fn retire_entry(e: &mut Entry, rel: &mut WindowRelations) -> bool {
    if let Some(sig) = e.sig.take() {
        rel.recycle_sig(sig);
    }
    false
}

/// Empty an entry list, signatures to the pool.
fn retire_entries(entries: &mut Vec<Entry>, rel: &mut WindowRelations) {
    for mut e in entries.drain(..) {
        retire_entry(&mut e, rel);
    }
}

/// One side of a suffix or of a carry merge, as an on-demand encode
/// needs it: the side's sketch, and the scratch its discriminator plane is
/// built in by the first encode that wants it. The sketch stays borrowed
/// for as long as the plane can be used, so the two cannot fall out of
/// step.
struct Part<'a> {
    sketch: &'a Sketch,
    plane: &'a mut CandidatePlane,
}

impl<'a> Part<'a> {
    fn new(sketch: &'a Sketch, plane: &'a mut CandidatePlane) -> Part<'a> {
        plane.clear();
        Part { sketch, plane }
    }

    /// This side's signature against a query it did not track: an
    /// on-demand encode through the catalogue, into a pooled buffer.
    /// `None` if the query is no longer subscribed.
    fn encode(
        &mut self,
        qid: QueryId,
        catalogue: &Catalogue,
        rel: &mut WindowRelations,
        stats: &mut Stats,
    ) -> Option<BitSig> {
        let mut sig = rel.take_sig();
        if !catalogue.encode_against(qid, self.sketch, self.plane, &mut sig) {
            rel.recycle_sig(sig);
            return None;
        }
        stats.sig_encodes += 1;
        Some(sig)
    }
}

/// One geometric segment of the stream.
#[derive(Debug, Clone)]
struct Segment {
    start_window: u64,
    start_frame: u64,
    len_windows: usize,
    /// The segment's combined sketch — kept in both representations (it is
    /// needed for carry merges and for on-demand signature encoding).
    sketch: Sketch,
    entries: Vec<Entry>,
}

/// Retired segments kept for buffer reuse, capped so a burst cannot pin
/// unbounded memory.
const SEG_POOL_CAP: usize = 16;

/// The geometric candidate store.
#[derive(Debug)]
pub struct GeoStore {
    rep: Representation,
    segments: VecDeque<Segment>,
    /// Last window at which each query was reported, to suppress
    /// re-reports on consecutive windows of the same ongoing match.
    last_report: BTreeMap<QueryId, u64>,
    /// Reusable cascade suffix sketch (zero-alloc steady state).
    scratch_sketch: Sketch,
    /// Reusable cascade suffix entry list.
    scratch_entries: Vec<Entry>,
    /// Double-buffer for the sorted entry merges: swapped with the list
    /// being merged each cascade/carry step.
    scratch_merge: Vec<Entry>,
    /// Discriminator planes of the two sketches a cascade step or a carry
    /// merge encodes on demand: its newer part and its older part.
    newer_plane: CandidatePlane,
    older_plane: CandidatePlane,
    /// Retired segments: their sketches and entry vectors keep their
    /// capacity, so steady-state segment births are allocation-free.
    pool: Vec<Segment>,
}

impl GeoStore {
    /// New empty store.
    pub fn new(rep: Representation) -> GeoStore {
        GeoStore {
            rep,
            segments: VecDeque::new(),
            last_report: BTreeMap::new(),
            scratch_sketch: Sketch::default(),
            scratch_entries: Vec::new(),
            scratch_merge: Vec::new(),
            newer_plane: CandidatePlane::default(),
            older_plane: CandidatePlane::default(),
            pool: Vec::new(),
        }
    }

    /// Return a dead segment's buffers to the pool.
    fn retire(&mut self, seg: Segment) {
        if self.pool.len() < SEG_POOL_CAP {
            // vdsms-lint: allow(no-alloc-hot-path) reason="pool Vec is capped at SEG_POOL_CAP; reaches its high-water mark during warm-up"
            self.pool.push(seg);
        }
    }

    /// Number of live segments.
    pub fn candidate_count(&self) -> usize {
        self.segments.len()
    }

    /// Number of live segment-query pairs (memory metric).
    pub fn live_signatures(&self) -> usize {
        self.segments.iter().map(|s| s.entries.len()).sum()
    }

    /// Process one arrived basic window.
    pub(crate) fn advance(
        &mut self,
        win: &Window,
        rel: &mut WindowRelations,
        cfg: &DetectorConfig,
        catalogue: &Catalogue,
        stats: &mut Stats,
    ) -> Vec<Detection> {
        let mut out = Vec::new();

        // --- Phase 1: cascade the new window backwards through the
        // segments, testing each induced suffix. All cascade state lives
        // in reusable scratch buffers.
        let mut cur_sketch = std::mem::take(&mut self.scratch_sketch);
        cur_sketch.copy_from(&win.sketch);
        let mut cur_entries = std::mem::take(&mut self.scratch_entries);
        for i in 0..rel.related_len() {
            let (qid, keyframes) = rel.related_at(i);
            let sig = match self.rep {
                Representation::Bit => match rel.sig_copy_for(qid, &win.sketch, catalogue, stats) {
                    Some(copy) => Some(copy),
                    None => continue,
                },
                Representation::Sketch => None,
            };
            // vdsms-lint: allow(no-alloc-hot-path) reason="scratch Vec reused across windows; capacity stabilizes at the related-query high-water mark"
            cur_entries.push(Entry { qid, keyframes, sig });
        }
        cur_entries.sort_unstable_by_key(|e| e.qid);
        let mut cur_len = 1usize;
        Self::test_suffix(
            self.rep,
            &mut self.last_report,
            &cur_sketch,
            &mut cur_entries,
            cur_len,
            win.start_frame,
            win,
            cfg,
            stats,
            catalogue,
            rel,
            &mut out,
        );

        for seg_idx in (0..self.segments.len()).rev() {
            let seg = &self.segments[seg_idx];
            let seg_start_frame = seg.start_frame;
            cur_len += seg.len_windows;

            match self.rep {
                Representation::Sketch => {
                    // Merge the related-query lists (sorted union,
                    // two-pointer: O(α), not O(α²)) into the merge
                    // double-buffer. Entry `sig` is `None` in this
                    // representation, so the clones below copy two scalars
                    // and never touch the heap.
                    let mut merged = std::mem::take(&mut self.scratch_merge);
                    merged.clear();
                    let mut older = seg.entries.iter().peekable();
                    for newer in cur_entries.drain(..) {
                        while let Some(o) = older.peek() {
                            if o.qid < newer.qid {
                                // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; Entry sig is None in the Sketch representation so the clone is heap-free"
                                merged.push((*o).clone());
                                older.next();
                            } else {
                                break;
                            }
                        }
                        if older.peek().is_some_and(|o| o.qid == newer.qid) {
                            older.next();
                        }
                        // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                        merged.push(newer);
                    }
                    // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                    merged.extend(older.cloned());
                    self.scratch_merge = std::mem::replace(&mut cur_entries, merged);
                    cur_sketch.combine(&seg.sketch);
                    stats.sketch_combines += 1;
                }
                Representation::Bit => {
                    // cur covers [x, t]; seg covers [s, x). The suffix
                    // signature is the OR of both parts' signatures, each
                    // encoded on demand from its part's sketch if the
                    // query was not already tracked there (sorted
                    // two-pointer merge: O(α), not O(α²)).
                    // Every Bit-representation entry carries a signature by
                    // construction (signature-less ones are skipped when the
                    // entry lists are built), so `sig: None` arms below drop
                    // the entry instead of panicking.
                    let mut merged = std::mem::take(&mut self.scratch_merge);
                    merged.clear();
                    let mut newer_part = Part::new(&cur_sketch, &mut self.newer_plane);
                    let mut older_part = Part::new(&seg.sketch, &mut self.older_plane);
                    let mut older = seg.entries.iter().peekable();
                    // One `None` after the newer entries, so the loop's
                    // first half also takes the older ones left at the end
                    // (`chain` by path: the lint's call graph goes by
                    // name). A `continue` below drops an entry, buffer and
                    // all: a query unsubscribed since the entry was made.
                    let then_the_rest = std::iter::once(None);
                    for newer in Iterator::chain(cur_entries.drain(..).map(Some), then_the_rest) {
                        // Older-only entries before this qid — after the
                        // last, all that are left: the query is tracked by
                        // the segment but unseen in the newer suffix —
                        // encode the newer part on demand.
                        let before = |o: &&Entry| newer.as_ref().is_none_or(|n| o.qid < n.qid);
                        while let Some(o) = older.next_if(before) {
                            let Some(osig) = o.sig.as_ref() else { continue };
                            let Some(mut sig) = newer_part.encode(o.qid, catalogue, rel, stats)
                            else {
                                continue;
                            };
                            sig.or_with(osig);
                            stats.sig_ors += 1;
                            // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                            merged.push(Entry { qid: o.qid, keyframes: o.keyframes, sig: Some(sig) });
                        }
                        let Some(mut newer) = newer else { break };
                        let Some(sig) = newer.sig.as_mut() else { continue };
                        if let Some(o) = older.next_if(|o| o.qid == newer.qid) {
                            // Matching entry: OR the two parts' signatures.
                            let Some(osig) = o.sig.as_ref() else { continue };
                            sig.or_with(osig);
                        } else {
                            // Newer-only: encode the segment part on demand.
                            let Some(part) = older_part.encode(newer.qid, catalogue, rel, stats)
                            else {
                                continue;
                            };
                            sig.or_with(&part);
                            rel.recycle_sig(part);
                        }
                        stats.sig_ors += 1;
                        // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                        merged.push(newer);
                    }
                    self.scratch_merge = std::mem::replace(&mut cur_entries, merged);
                    cur_sketch.combine(&seg.sketch);
                }
            }

            Self::test_suffix(
                self.rep,
                &mut self.last_report,
                &cur_sketch,
                &mut cur_entries,
                cur_len,
                seg_start_frame,
                win,
                cfg,
                stats,
                catalogue,
                rel,
                &mut out,
            );
        }

        // --- Phase 2: append the window as a length-1 segment (reusing a
        // pooled segment's buffers when one is available), then carry-
        // merge equal-length neighbours (binary counter).
        let mut seg = self.pool.pop().unwrap_or_else(|| Segment {
            start_window: 0,
            start_frame: 0,
            len_windows: 0,
            sketch: Sketch::default(),
            entries: Vec::new(),
        });
        seg.start_window = win.index;
        seg.start_frame = win.start_frame;
        seg.len_windows = 1;
        seg.sketch.copy_from(&win.sketch);
        retire_entries(&mut seg.entries, rel);
        for i in 0..rel.related_len() {
            let (qid, keyframes) = rel.related_at(i);
            let sig = match self.rep {
                Representation::Bit => match rel.sig_copy_for(qid, &win.sketch, catalogue, stats) {
                    Some(copy) => Some(copy),
                    None => continue,
                },
                Representation::Sketch => None,
            };
            // vdsms-lint: allow(no-alloc-hot-path) reason="pooled Vec; capacity stabilizes at the related-query high-water mark"
            seg.entries.push(Entry { qid, keyframes, sig });
        }
        seg.entries.sort_unstable_by_key(|e| e.qid);
        // vdsms-lint: allow(no-alloc-hot-path) reason="VecDeque capacity is bounded by the O(log horizon) segment count"
        self.segments.push_back(seg);
        // Cap segment growth at half the candidate horizon: with unbounded
        // carry-merging a single segment would swallow the whole horizon
        // and the tested suffix lengths would lose all granularity (every
        // copy shorter than the horizon would be missed). Capping at
        // `horizon/2` keeps the suffix lengths geometric *and* guarantees
        // some tested suffix overshoots a copy by at most `horizon/2`
        // windows.
        let global_max = cfg.max_windows_for(catalogue.max_keyframes()).max(1);
        let merge_cap = prev_power_of_two((global_max / 2).max(1));
        while self.segments.len() >= 2 {
            let n = self.segments.len();
            if self.segments[n - 1].len_windows != self.segments[n - 2].len_windows
                || self.segments[n - 1].len_windows * 2 > merge_cap
            {
                break;
            }
            let (Some(newer), Some(older)) = (self.segments.pop_back(), self.segments.pop_back())
            else {
                break;
            };
            let merged = self.merge_segments(older, newer, cfg, catalogue, rel, stats);
            // vdsms-lint: allow(no-alloc-hot-path) reason="VecDeque capacity is bounded by the O(log horizon) segment count"
            self.segments.push_back(merged);
        }

        // --- Phase 3: expire the oldest segment while the remaining
        // segments still cover the λL horizon.
        let mut total: usize = self.segments.iter().map(|s| s.len_windows).sum();
        while self.segments.len() > 1 {
            let Some(front) = self.segments.front() else { break };
            let front_len = front.len_windows;
            if total - front_len < global_max {
                break;
            }
            if let Some(front) = self.segments.pop_front() {
                self.retire(front);
            }
            total -= front_len;
        }

        // Hand the cascade scratch buffers back for the next window.
        retire_entries(&mut cur_entries, rel);
        self.scratch_entries = cur_entries;
        self.scratch_sketch = cur_sketch;

        stats.sample_live(self.live_signatures(), self.segments.len());
        out
    }

    /// Test the current suffix against its tracked queries, pruning and
    /// emitting detections.
    #[allow(clippy::too_many_arguments)]
    fn test_suffix(
        rep: Representation,
        last_report: &mut BTreeMap<QueryId, u64>,
        cur_sketch: &Sketch,
        cur_entries: &mut Vec<Entry>,
        cur_len: usize,
        start_frame: u64,
        win: &Window,
        cfg: &DetectorConfig,
        stats: &mut Stats,
        catalogue: &Catalogue,
        rel: &mut WindowRelations,
        out: &mut Vec<Detection>,
    ) {
        let k = cur_sketch.k() as f64;
        cur_entries.retain_mut(|e| {
            if cur_len > cfg.max_windows_for(e.keyframes) {
                stats.length_expiries += 1;
                return retire_entry(e, rel);
            }
            let (sim, violates) = match rep {
                Representation::Sketch => {
                    let Some(values) = catalogue.values(e.qid) else {
                        return false;
                    };
                    stats.sketch_compares += 1;
                    let (n_eq, n_less) = sketch_relations(cur_sketch.mins(), values);
                    (n_eq as f64 / k, n_less as f64 > k * (1.0 - cfg.pruning_delta()))
                }
                Representation::Bit => {
                    // Bit entries always carry a signature by construction;
                    // drop rather than panic if the invariant ever breaks.
                    let Some(sig) = e.sig.as_ref() else {
                        return false;
                    };
                    stats.sig_compares += 1;
                    let (n_less, n_eq) = sig.counts();
                    (
                        sig.similarity_from_count(n_eq),
                        sig.lemma2_from_count(n_less, cfg.pruning_delta()),
                    )
                }
            };
            if violates {
                stats.lemma2_prunes += 1;
                return retire_entry(e, rel);
            }
            if sim + 1e-12 >= cfg.delta {
                // Suppress re-reports while the same match keeps firing on
                // consecutive windows.
                let suppressed =
                    matches!(last_report.get(&e.qid), Some(&last) if last + 1 >= win.index);
                // vdsms-lint: allow(no-alloc-hot-path) reason="match events only; the map's key set is bounded by the query count"
                last_report.insert(e.qid, win.index);
                if !suppressed {
                    stats.detections += 1;
                    // vdsms-lint: allow(no-alloc-hot-path) reason="detection events only; the output Vec stays empty (and unallocated) on non-matching windows"
                    out.push(Detection {
                        query_id: e.qid,
                        start_frame,
                        end_frame: win.end_frame,
                        windows: cur_len,
                        similarity: sim,
                    });
                }
            }
            true
        });
    }

    /// Carry-merge two adjacent equal-length segments in place: `older`
    /// absorbs `newer` (whose buffers are retired to the pool afterwards)
    /// and is returned ready to rejoin the deque. The entry merge runs
    /// before the sketch combine because the Bit arm encodes on-demand
    /// signatures against each part's *pristine* sketch.
    fn merge_segments(
        &mut self,
        mut older: Segment,
        mut newer: Segment,
        cfg: &DetectorConfig,
        catalogue: &Catalogue,
        rel: &mut WindowRelations,
        stats: &mut Stats,
    ) -> Segment {
        let mut merged = std::mem::take(&mut self.scratch_merge);
        merged.clear();
        match self.rep {
            Representation::Sketch => {
                // Sorted union of the two entry lists (Entry sig is `None`
                // in this representation, so the moves are heap-free).
                let mut a = older.entries.drain(..).peekable();
                let mut b = newer.entries.drain(..).peekable();
                loop {
                    let e = match (a.peek(), b.peek()) {
                        (Some(x), Some(y)) => match x.qid.cmp(&y.qid) {
                            std::cmp::Ordering::Less => a.next(),
                            std::cmp::Ordering::Greater => b.next(),
                            std::cmp::Ordering::Equal => {
                                b.next();
                                a.next()
                            }
                        },
                        (Some(_), None) => a.next(),
                        (None, Some(_)) => b.next(),
                        (None, None) => break,
                    };
                    // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                    merged.extend(e);
                }
            }
            Representation::Bit => {
                let mut newer_part = Part::new(&newer.sketch, &mut self.newer_plane);
                let mut older_part = Part::new(&older.sketch, &mut self.older_plane);
                // One merged entry: `e`'s signature OR the other side's —
                // the one that side `tracked`, or an on-demand encode of
                // it — unless Lemma 2 prunes the merged segment.
                let mut merge = |mut e: Entry, tracked: Option<BitSig>, other_side: &mut Part| {
                    let Some(mut sig) = e.sig.take() else { return };
                    let Some(other) =
                        tracked.or_else(|| other_side.encode(e.qid, catalogue, rel, stats))
                    else {
                        return rel.recycle_sig(sig);
                    };
                    let (n_less, _) = sig.or_with_counts(&other);
                    stats.sig_ors += 1;
                    rel.recycle_sig(other);
                    if sig.lemma2_from_count(n_less, cfg.pruning_delta()) {
                        stats.lemma2_prunes += 1;
                        return rel.recycle_sig(sig);
                    }
                    // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                    merged.push(Entry { qid: e.qid, keyframes: e.keyframes, sig: Some(sig) });
                };
                for e in older.entries.drain(..) {
                    let tracked = match newer.entries.iter().position(|x| x.qid == e.qid) {
                        Some(pos) => newer.entries.remove(pos).sig,
                        None => None,
                    };
                    merge(e, tracked, &mut newer_part);
                }
                for e in newer.entries.drain(..) {
                    merge(e, None, &mut older_part);
                }
            }
        }
        self.scratch_merge = std::mem::replace(&mut older.entries, merged);

        older.sketch.combine(&newer.sketch);
        match self.rep {
            Representation::Sketch => stats.sketch_combines += 1,
            Representation::Bit => {}
        }
        older.len_windows += newer.len_windows;
        self.retire(newer);
        older
    }
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
            order: crate::config::Order::Geometric,
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

    fn run(rep: Representation) -> (Vec<Detection>, Stats, GeoStore) {
        let f = family();
        let query_ids: Vec<u64> = (0..40).collect();
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &query_ids)]);
        let catalogue = catalogue(queries);
        let config = cfg(rep);
        let mut store = GeoStore::new(rep);
        let mut stats = Stats::default();
        let mut dets = Vec::new();
        // Four windows covering the query out of order.
        let parts: [&[u64]; 4] =
            [&query_ids[30..40], &query_ids[10..20], &query_ids[0..10], &query_ids[20..30]];
        for (i, part) in parts.iter().enumerate() {
            let w = window(&f, i as u64, part);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            dets.extend(store.advance(&w, &mut rel, &config, &catalogue, &mut stats));
        }
        (dets, stats, store)
    }

    #[test]
    fn geometric_bit_detects_split_copy() {
        let (dets, stats, _) = run(Representation::Bit);
        let best = dets.iter().map(|d| d.similarity).fold(0.0, f64::max);
        assert!(best >= 0.7, "suffix must cross the threshold (best {best})");
        assert!(stats.sig_ors > 0);
    }

    #[test]
    fn geometric_sketch_detects_split_copy() {
        let (dets, stats, _) = run(Representation::Sketch);
        let best = dets.iter().map(|d| d.similarity).fold(0.0, f64::max);
        assert!(best >= 0.7, "best {best}");
        assert!(stats.sketch_combines > 0);
    }

    #[test]
    fn segment_lengths_follow_binary_counter() {
        let (_, _, store) = run(Representation::Bit);
        // After 4 windows: one segment of length 4.
        let lens: Vec<usize> = store.segments.iter().map(|s| s.len_windows).collect();
        assert_eq!(lens, vec![4]);
    }

    #[test]
    fn combinations_per_window_are_logarithmic() {
        // Over n windows, sequential does Θ(n²) combinations while
        // geometric does Θ(n log n). Check the per-window combine count
        // stays ≤ log2(i)+1.
        let f = family();
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(
            1,
            &f,
            &(5000u64..5040).collect::<Vec<_>>(),
        )]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Sketch);
        let mut store = GeoStore::new(Representation::Sketch);
        let mut stats = Stats::default();
        let mut prev = 0u64;
        for i in 0..64u64 {
            let ids: Vec<u64> = (i * 7..i * 7 + 7).collect();
            let w = window(&f, i, &ids);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
            let combines_this_window = stats.sketch_combines - prev;
            prev = stats.sketch_combines;
            // Cascade over O(horizon/cap + log cap) segments plus carry
            // merges: logarithmic with a small constant, far below the
            // sequential order's Θ(horizon) per window.
            let bound = 2 * ((i + 1).ilog2() as u64) + 6;
            assert!(
                combines_this_window <= bound,
                "window {i}: {combines_this_window} combines exceeds log bound {bound}"
            );
        }
    }

    #[test]
    fn expiry_caps_total_span() {
        let f = family();
        // Query of 8 keyframes => global max = ceil(2*8/4) = 4 windows.
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(
            1,
            &f,
            &(0u64..8).collect::<Vec<_>>(),
        )]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = GeoStore::new(Representation::Bit);
        let mut stats = Stats::default();
        for i in 0..20u64 {
            let w = window(&f, i, &[0, 1, 2, 3]);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
            let total: usize = store.segments.iter().map(|s| s.len_windows).sum();
            assert!(total <= 2 * 4, "span {total} must stay near the λL bound");
        }
    }

    #[test]
    fn consecutive_matches_are_suppressed() {
        let f = family();
        let queries =
            QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &[1, 2, 3, 4])]);
        let catalogue = catalogue(queries);
        let config = cfg(Representation::Bit);
        let mut store = GeoStore::new(Representation::Bit);
        let mut stats = Stats::default();
        let mut n = 0;
        for i in 0..6u64 {
            let w = window(&f, i, &[1, 2, 3, 4]);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            stats.windows += 1;
            n += store.advance(&w, &mut rel, &config, &catalogue, &mut stats).len();
        }
        assert_eq!(n, 1, "an ongoing match must report once, not once per window");
    }
}
