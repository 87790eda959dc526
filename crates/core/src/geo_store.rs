//! Geometric-order candidate store (Section IV-A, Fig. 2).
//!
//! Instead of every suffix, the store keeps `O(log)` *segments* whose
//! lengths follow a binary counter (1, 2, 4, ... windows). When window `t`
//! arrives it is tested alone, then cascaded backwards through the
//! segments — each cascade step combines one more segment into the running
//! suffix and re-tests it — giving `⌈log i⌉` combinations per arrival as
//! in the paper's cost model. Afterwards the window is appended as a
//! length-1 segment and equal-length neighbours merge (carry
//! propagation). Every entry list here is ascending by query id, which
//! both merges (`entry::merge_by_qid`) rely on.
//!
//! The price of the logarithmic cost is that only geometrically-spaced
//! suffix lengths are tested, which the paper reports as slightly lower
//! recall at high δ (Figs. 7–8).

use crate::bitsig::{BitSig, CandidatePlane};
use crate::config::{DetectorConfig, Representation};
use crate::detection::Detection;
use crate::engine::Catalogue;
use crate::entry::{self, judge, merge_by_qid, ByQid, Entry, Verdict};
use crate::query::QueryId;
use crate::stats::Stats;
use crate::window::{Window, WindowRelations};
use std::collections::{BTreeMap, VecDeque};
use vdsms_sketch::Sketch;

/// Largest power of two `<= n` (`n >= 1`).
fn prev_power_of_two(n: usize) -> usize {
    1 << (usize::BITS - 1 - n.leading_zeros())
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
#[derive(Debug)]
struct Segment {
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
        let rep = self.rep;

        // --- Phase 1: cascade the new window backwards through the
        // segments, testing the window alone and then each induced suffix.
        // All cascade state lives in reusable scratch buffers.
        let mut cur_sketch = std::mem::take(&mut self.scratch_sketch);
        cur_sketch.copy_from(&win.sketch);
        let mut cur_entries = std::mem::take(&mut self.scratch_entries);
        entry::build(&mut cur_entries, rep, win, rel, catalogue, stats);
        cur_entries.sort_unstable_by_key(|e| e.qid);
        let (mut cur_len, mut start_frame) = (1usize, win.start_frame);
        let n = self.segments.len();
        for step in 0..=n {
            if step > 0 {
                // cur covers [x, t]; seg covers [s, x). In the Bit
                // representation the suffix signature is the OR of both
                // parts' signatures, each encoded on demand from its
                // part's sketch where that part did not track the query.
                let seg = &self.segments[n - step];
                let mut merged = std::mem::take(&mut self.scratch_merge);
                let mut newer_part = Part::new(&cur_sketch, &mut self.newer_plane);
                let mut older_part = Part::new(&seg.sketch, &mut self.older_plane);
                merge_by_qid(&seg.entries, cur_entries.drain(..), |pair| {
                    let kept = match (rep, pair) {
                        (Representation::Sketch, ByQid::Older(o)) => {
                            Some(Entry::new(o.qid, o.keyframes, None))
                        }
                        (Representation::Sketch, ByQid::Newer(e) | ByQid::Both(_, e)) => Some(e),
                        (Representation::Bit, ByQid::Older(o)) => {
                            let sig = newer_part.encode(o.qid, catalogue, rel, stats);
                            let e = sig.map(|sig| Entry::new(o.qid, o.keyframes, Some(sig)));
                            e.and_then(|e| ored(e, o.sig.as_ref(), rel, stats))
                        }
                        (Representation::Bit, ByQid::Newer(e)) => {
                            let part = older_part.encode(e.qid, catalogue, rel, stats);
                            let e = ored(e, part.as_ref(), rel, stats);
                            if let Some(part) = part {
                                rel.recycle_sig(part);
                            }
                            e
                        }
                        (Representation::Bit, ByQid::Both(o, e)) => {
                            ored(e, o.sig.as_ref(), rel, stats)
                        }
                    };
                    // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
                    merged.extend(kept);
                });
                self.scratch_merge = std::mem::replace(&mut cur_entries, merged);
                cur_sketch.combine(&seg.sketch);
                if rep == Representation::Sketch {
                    stats.sketch_combines += 1;
                }
                cur_len += seg.len_windows;
                start_frame = seg.start_frame;
            }

            let last_report = &mut self.last_report;
            cur_entries.retain_mut(|e| {
                match judge(Some(cur_len), e.keyframes, cfg, stats, |stats| {
                    entry::counts(rep, e, &cur_sketch, catalogue, stats)
                }) {
                    Verdict::Drop => entry::retire(e, rel),
                    Verdict::Keep => true,
                    Verdict::Match(similarity) => {
                        // Suppress re-reports while the same match keeps
                        // firing on consecutive windows.
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
                                similarity,
                            });
                        }
                        true
                    }
                }
            });
        }

        // --- Phase 2: append the window as a length-1 segment (reusing a
        // pooled segment's buffers when one is available), then carry-
        // merge equal-length neighbours (binary counter).
        let mut seg = self.pool.pop().unwrap_or_else(|| Segment {
            start_frame: 0,
            len_windows: 0,
            sketch: Sketch::default(),
            entries: Vec::new(),
        });
        seg.start_frame = win.start_frame;
        seg.len_windows = 1;
        seg.sketch.copy_from(&win.sketch);
        entry::build(&mut seg.entries, rep, win, rel, catalogue, stats);
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
        for mut e in cur_entries.drain(..) {
            entry::retire(&mut e, rel);
        }
        self.scratch_entries = cur_entries;
        self.scratch_sketch = cur_sketch;

        stats.sample_live(self.live_signatures(), self.segments.len());
        out
    }

    /// Return a dead segment's buffers to the pool.
    fn retire(&mut self, seg: Segment) {
        if self.pool.len() < SEG_POOL_CAP {
            // vdsms-lint: allow(no-alloc-hot-path) reason="pool Vec is capped at SEG_POOL_CAP; reaches its high-water mark during warm-up"
            self.pool.push(seg);
        }
    }

    /// Carry-merge two adjacent equal-length segments in place: `older`
    /// absorbs `newer` (whose buffers are retired to the pool afterwards)
    /// and is returned ready to rejoin the deque. In the Bit
    /// representation each merged signature is the OR of both sides' —
    /// the one a side tracked, or an on-demand encode against that side's
    /// *pristine* sketch, which is why the entries merge before the
    /// sketches combine — and Lemma 2 prunes it at once.
    fn merge_segments(
        &mut self,
        mut older: Segment,
        mut newer: Segment,
        cfg: &DetectorConfig,
        catalogue: &Catalogue,
        rel: &mut WindowRelations,
        stats: &mut Stats,
    ) -> Segment {
        let rep = self.rep;
        let mut merged = std::mem::take(&mut self.scratch_merge);
        let mut newer_part = Part::new(&newer.sketch, &mut self.newer_plane);
        let mut older_part = Part::new(&older.sketch, &mut self.older_plane);
        merge_by_qid(older.entries.drain(..), newer.entries.drain(..), |pair| {
            let (mut e, tracked, other_part) = match pair {
                ByQid::Older(e) => (e, None, &mut newer_part),
                ByQid::Newer(e) => (e, None, &mut older_part),
                ByQid::Both(e, mut other) => (e, other.sig.take(), &mut newer_part),
            };
            if rep == Representation::Bit {
                let other = tracked.or_else(|| other_part.encode(e.qid, catalogue, rel, stats));
                let verdict = judge(None, e.keyframes, cfg, stats, |stats| {
                    let (sig, other) = (e.sig.as_mut()?, other.as_ref()?);
                    stats.sig_ors += 1;
                    Some(sig.or_with_counts(other))
                });
                if let Some(other) = other {
                    rel.recycle_sig(other);
                }
                if verdict == Verdict::Drop {
                    entry::retire(&mut e, rel);
                    return;
                }
            }
            // vdsms-lint: allow(no-alloc-hot-path) reason="double-buffered scratch Vec; capacity stabilizes at the live-entry high-water mark"
            merged.push(e);
        });
        self.scratch_merge = std::mem::replace(&mut older.entries, merged);

        older.sketch.combine(&newer.sketch);
        if rep == Representation::Sketch {
            stats.sketch_combines += 1;
        }
        older.len_windows += newer.len_windows;
        self.retire(newer);
        older
    }
}

/// `e` with `other` — the other part's signature for its query — ORed
/// into its signature; `None`, with the buffer back in the pool, if
/// either is missing (the query is gone).
fn ored(
    mut e: Entry,
    other: Option<&BitSig>,
    rel: &mut WindowRelations,
    stats: &mut Stats,
) -> Option<Entry> {
    if let (Some(sig), Some(other)) = (e.sig.as_mut(), other) {
        sig.or_with(other);
        stats.sig_ors += 1;
        return Some(e);
    }
    entry::retire(&mut e, rel);
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hq::HqIndex;
    use crate::query::{Query, QuerySet};
    use crate::window::sketch_relations;
    use std::collections::BTreeSet;
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
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(1, &f, &[1, 2, 3, 4])]);
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

    /// How many entries the cascade for `win` judges when it keeps each
    /// live query once per step: the window's related queries, then at
    /// each step the survivors of the last test plus the queries the next
    /// segment tracks, tested on the combined sketch (the Bit signatures
    /// are lossless, so the sketch gives the same counts).
    fn judged_once_each(
        store: &GeoStore,
        win: &Window,
        related: &[(QueryId, usize)],
        catalogue: &Catalogue,
        config: &DetectorConfig,
    ) -> u64 {
        let keyframes: BTreeMap<QueryId, usize> = catalogue.queries().iter().copied().collect();
        let mut live: BTreeSet<QueryId> = related.iter().map(|&(qid, _)| qid).collect();
        let mut sketch = win.sketch.clone();
        let (mut len, mut judged) = (1, 0);
        for seg in std::iter::once(None).chain(store.segments.iter().rev().map(Some)) {
            if let Some(seg) = seg {
                live.extend(seg.entries.iter().map(|e| e.qid));
                sketch.combine(&seg.sketch);
                len += seg.len_windows;
            }
            judged += live.len() as u64;
            live.retain(|qid| {
                let values = catalogue.values(*qid).unwrap();
                let (n_less, _) = sketch_relations(sketch.mins(), values);
                len <= config.max_windows_for(keyframes[qid])
                    && n_less as f64 <= K as f64 * (1.0 - config.pruning_delta())
            });
        }
        judged
    }

    /// Windows drawn from a query that drifts across an overlapping
    /// catalogue relate, through the index, to shifting subsets of it, so
    /// a carry merge meets queries only its newer segment tracks. After
    /// every window each segment must be strictly ascending by query id,
    /// and the cascade must judge no query twice in one step.
    #[test]
    fn geometric_bit_index_keeps_entry_lists_ascending() {
        let f = family();
        let queries = QuerySet::from_queries(
            (0..40u32)
                .map(|q| {
                    let ids: Vec<u64> = (u64::from(q) * 16..u64::from(q) * 16 + 32).collect();
                    Query::from_cell_ids(q, &f, &ids)
                })
                .collect(),
        );
        let config = DetectorConfig { use_index: true, ..cfg(Representation::Bit) };
        let catalogue = Catalogue::shared(&config, &queries, None);
        let index = HqIndex::build(K, &queries);
        let mut store = GeoStore::new(Representation::Bit);
        let (mut stats, mut rel) = (Stats::default(), WindowRelations::new());
        let mut state = 2008u64;
        let mut merged_out_of_order = 0;
        for i in 0..500u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let q = (i / 8 + (state >> 62)) % 40;
            let ids: Vec<u64> = (0..4).map(|j| q * 16 + (state >> (8 * j + 8)) % 32).collect();
            let w = window(&f, i, &ids);
            rel.reset_from_index(&index, &w.sketch, config.pruning_delta(), &mut stats);
            let want = judged_once_each(&store, &w, rel.related(), &catalogue, &config);
            let before = stats.sig_compares + stats.length_expiries;
            store.advance(&w, &mut rel, &config, &catalogue, &mut stats);
            let judged = stats.sig_compares + stats.length_expiries - before;
            assert_eq!(judged, want, "window {i}: a cascade step judged a query twice");
            merged_out_of_order += store
                .segments
                .iter()
                .filter(|seg| seg.entries.windows(2).any(|p| p[0].qid >= p[1].qid))
                .count();
        }
        assert_eq!(merged_out_of_order, 0, "segments out of query-id order");
        assert!(
            stats.sig_encodes > 0 && stats.lemma2_prunes > 0,
            "the stream must exercise merges"
        );
    }
}
