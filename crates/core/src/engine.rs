//! The streaming detector: key frames in, detections out.
//!
//! This is the algorithm summarized at the end of Section V-C:
//!
//! 1. offline, query sketches `QS` and the HQ index are built;
//! 2. every `w` incoming key frames are sketched into a basic window,
//!    whose related-query list `R_L` comes from `ProbeIndex` (or from a
//!    full scan for the NoIndex variants);
//! 3. candidate signatures/sketches are combined in Sequential or
//!    Geometric order, matches (Lemma 1, threshold δ) are reported, and
//!    Lemma-2 violators are dropped;
//! 4. the process continues until the end of the stream.
//!
//! Steps 2–4 are the per-stream state's job (`StreamState`); step 1's
//! products are the catalogue (`Catalogue`), which the per-stream state
//! only ever borrows. A [`Detector`] is the two together — what a caller
//! watching one stream wants. A [`crate::Fleet`] keeps many per-stream
//! states and one catalogue per executor instead, so a subscription is
//! written once, in place, however many streams are open.

use crate::bitsig::{BitSig, CandidatePlane};
use crate::config::{DetectorConfig, Order};
use crate::detection::Detection;
use crate::geo_store::GeoStore;
use crate::hq::{HqIndex, MAX_QUERIES};
use crate::query::{Query, QueryId, QuerySet};
use crate::seq_store::SeqStore;
use crate::stats::Stats;
use crate::window::{Window, WindowRelations};
use std::sync::Arc;
use vdsms_sketch::{HashColumnCache, MinHashFamily, Sketch};

/// Ways in the per-detector hash-column cache: covers the distinct
/// cell ids of several scenes (a 60 s stream shows ~36 distinct ids) at
/// `64 × K × 8` bytes — ~410 KiB at the paper's K = 800.
const HASH_CACHE_WAYS: usize = 64;

enum Store {
    Seq(SeqStore),
    Geo(GeoStore),
}

/// The catalogue: the HQ index over the subscribed queries, and each
/// query's id and length in subscription order.
///
/// The index's slab is the one home of a query's `K` values: a
/// subscription copies them in and drops the [`Query`], and every read of
/// a query's values — the probe, an on-demand encode, a Sketch-representation
/// comparison — goes there by id. The index is built whatever the
/// configuration; `probe` only decides whether a window probes it or
/// relates to every query (the NoIndex variants), and the id list is that
/// related list, kept in subscription order because detections are
/// emitted in it.
///
/// Each half sits behind an [`Arc`] so a holder can hand clones to other
/// threads, but every write goes through [`Arc::make_mut`] on *this*
/// holder's pair: while it is the only holder the write happens in place
/// (`K` index cells and one pushed id); with a clone outstanding it
/// copies first and leaves the clone untouched. The reference count is
/// the only switch — uniqueness is an optimisation, never a requirement.
#[derive(Clone)]
pub(crate) struct Catalogue {
    /// Whether a window probes the index (`cfg.use_index`).
    probe: bool,
    index: Arc<HqIndex>,
    /// `(id, keyframes)` of every subscribed query, in subscription order.
    queries: Arc<Vec<(QueryId, usize)>>,
}

impl Catalogue {
    /// The empty catalogue for a configuration.
    pub(crate) fn empty(cfg: &DetectorConfig) -> Catalogue {
        Catalogue {
            probe: cfg.use_index,
            index: Arc::new(HqIndex::empty(cfg.k)),
            queries: Arc::default(),
        }
    }

    /// The catalogue of `queries`: adopt `index` (built elsewhere over
    /// exactly `queries`, and possibly still held there) or, given `None`,
    /// build it. Only the ids and lengths are taken from `queries`.
    ///
    /// # Panics
    /// Panics on `K` mismatch, or if the index does not hold every query
    /// of `queries` under its id and length and nothing else.
    pub(crate) fn shared(
        cfg: &DetectorConfig,
        queries: &QuerySet,
        index: Option<Arc<HqIndex>>,
    ) -> Catalogue {
        if let Some(k) = queries.k() {
            assert_eq!(k, cfg.k, "query sketches must use K = {}", cfg.k);
        }
        let index = index.unwrap_or_else(|| Arc::new(HqIndex::build(cfg.k, queries)));
        assert_eq!(index.k(), cfg.k, "shared index K mismatch");
        // Values are read from the index alone, so a pair that disagrees
        // would mis-detect silently: every id must be indexed with its
        // length. Checking the `K` values too would cost `m × K` here.
        assert_eq!(index.len(), queries.len(), "shared index does not cover the catalogue");
        let queries: Vec<(QueryId, usize)> = queries.iter().map(|q| (q.id, q.keyframes)).collect();
        for &(id, keyframes) in &queries {
            assert_eq!(
                index.keyframes_of(id),
                Some(keyframes),
                "shared index does not cover query {id}"
            );
        }
        Catalogue { probe: cfg.use_index, index, queries: Arc::new(queries) }
    }

    /// `(id, keyframes)` of every subscribed query, in subscription order.
    pub(crate) fn queries(&self) -> &[(QueryId, usize)] {
        &self.queries
    }

    /// The longest subscribed query in key frames (the paper's global
    /// `L`), 0 when none is.
    pub(crate) fn max_keyframes(&self) -> usize {
        self.queries.iter().map(|&(_, keyframes)| keyframes).max().unwrap_or(0)
    }

    /// The `K` values of the subscribed query `id`, from the index's slab.
    pub(crate) fn values(&self, id: QueryId) -> Option<&[u64]> {
        self.index.values(id)
    }

    /// Encode `candidate` against the subscribed query `id` into `sig`
    /// (Definition 3); `false`, with `sig` untouched, if `id` is not
    /// subscribed. Every on-demand encode of a candidate store comes
    /// here, and here alone an encode picks its kernel — both read the
    /// query's slot of the index's slab: when windows probe the index,
    /// the plane kernel against `plane` (built from `candidate` by the
    /// first call after the caller cleared it); without probing, the
    /// value kernel, the work Fig. 9's NoIndex arm measures.
    pub(crate) fn encode_against(
        &self,
        id: QueryId,
        candidate: &Sketch,
        plane: &mut CandidatePlane,
        sig: &mut BitSig,
    ) -> bool {
        let mins = candidate.mins();
        if self.probe {
            self.index.encode_against(id, mins, plane.of(mins), sig).is_some()
        } else {
            self.values(id).map(|values| sig.encode_counts_from_mins(mins, values)).is_some()
        }
    }

    /// How many hold each half: `(queries, index)`.
    #[cfg(test)]
    pub(crate) fn holders(&self) -> (usize, usize) {
        (Arc::strong_count(&self.queries), Arc::strong_count(&self.index))
    }

    /// Add a query: its `K` values into the index's slab and cells, its id
    /// and length onto the list — in place when this is the pair's only
    /// holder, a copy of both halves otherwise — then drop it. The one
    /// place a subscription is written, so the one place it is validated:
    /// in place there is no old snapshot to fall back on, and every
    /// rejection is decided before the first write to either half.
    ///
    /// # Panics
    /// Panics on sketch `K` mismatch, duplicate query id, or a full index.
    pub(crate) fn subscribe(&mut self, query: Query) {
        assert_eq!(query.sketch.k(), self.index.k(), "query sketch K mismatch");
        assert!(self.index.keyframes_of(query.id).is_none(), "duplicate query id {}", query.id);
        assert!(self.index.len() < MAX_QUERIES, "index is full ({MAX_QUERIES} queries)");
        Arc::make_mut(&mut self.index).insert(&query);
        Arc::make_mut(&mut self.queries).push((query.id, query.keyframes));
    }

    /// Remove a query; `false` if the id is not subscribed — found out
    /// before [`Arc::make_mut`], so an unknown id copies nothing.
    pub(crate) fn unsubscribe(&mut self, id: QueryId) -> bool {
        if self.index.keyframes_of(id).is_none() {
            return false;
        }
        Arc::make_mut(&mut self.index).remove(id);
        Arc::make_mut(&mut self.queries).retain(|&(qid, _)| qid != id);
        true
    }
}

/// Everything a detector keeps per stream — the window being filled, the
/// candidate store, the counters and the reusable scratch — and nothing
/// of the catalogue, which [`StreamState::push_keyframe`] and
/// [`StreamState::finish`] borrow for the call. A [`Detector`] lends its
/// own; a fleet's stream table lends its executor's one copy to every
/// stream in turn, so a subscription is written once, wherever it lives.
pub(crate) struct StreamState {
    cfg: DetectorConfig,
    family: MinHashFamily,
    store: Store,
    /// Cell ids of the window being filled.
    buffer: Vec<u64>,
    /// Frame index of the first key frame in the buffer.
    buffer_start: u64,
    /// Frame index of the last key frame pushed.
    last_frame: u64,
    next_window: u64,
    stats: Stats,
    /// Scratch sketch reused for every basic window (zero-alloc steady
    /// state): moved into the [`Window`] for the store's `advance`, then
    /// moved back.
    win_sketch: Sketch,
    /// Reusable per-window relation set, index-probe scratch and
    /// signature pool.
    rel: WindowRelations,
    /// Direct-mapped cell-id → hash-column cache: adjacent key frames
    /// usually repeat their cell id, so most window-fold ids replay a
    /// cached column instead of re-evaluating the K hash functions.
    hash_cache: HashColumnCache,
}

impl StreamState {
    /// A stream at its first key frame. `cfg` must be valid, and every
    /// catalogue later lent must have been made for it.
    pub(crate) fn new(cfg: DetectorConfig) -> StreamState {
        let store = match cfg.order {
            Order::Sequential => Store::Seq(SeqStore::new(cfg.representation)),
            Order::Geometric => Store::Geo(GeoStore::new(cfg.representation)),
        };
        let family = MinHashFamily::new(cfg.k, cfg.hash_seed);
        let hash_cache = HashColumnCache::new(&family, HASH_CACHE_WAYS);
        StreamState {
            family,
            win_sketch: Sketch::empty(cfg.k),
            buffer: Vec::with_capacity(cfg.window_keyframes),
            cfg,
            store,
            buffer_start: 0,
            last_frame: 0,
            next_window: 0,
            stats: Stats::default(),
            rel: WindowRelations::new(),
            hash_cache,
        }
    }

    /// Accumulated operation counters.
    pub(crate) fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Feed one key frame's fingerprint; if it completes a basic window,
    /// the window is evaluated against `catalogue` as it is now. A
    /// catalogue change therefore lands between key frames and applies to
    /// the open window when it closes.
    // vdsms-lint: entry
    pub(crate) fn push_keyframe(
        &mut self,
        catalogue: &Catalogue,
        frame_index: u64,
        cell_id: u64,
    ) -> Vec<Detection> {
        if self.buffer.is_empty() {
            self.buffer_start = frame_index;
        }
        // vdsms-lint: allow(no-alloc-hot-path) reason="pre-reserved to window_keyframes in the constructor; drain() keeps the capacity"
        self.buffer.push(cell_id);
        self.last_frame = frame_index;
        if self.buffer.len() >= self.cfg.window_keyframes {
            self.process_window(catalogue)
        } else {
            Vec::new()
        }
    }

    /// Flush a partially-filled final window at end of stream.
    // vdsms-lint: entry
    pub(crate) fn finish(&mut self, catalogue: &Catalogue) -> Vec<Detection> {
        if self.buffer.is_empty() {
            return Vec::new();
        }
        self.process_window(catalogue)
    }

    fn process_window(&mut self, catalogue: &Catalogue) -> Vec<Detection> {
        // Reuse the scratch sketch: move it into the window for the
        // store's `advance`, move it back after. `Sketch::default()` is a
        // detached zero-K placeholder; no allocation happens on this path
        // after the constructor.
        let mut sketch = std::mem::take(&mut self.win_sketch);
        sketch.reset(self.cfg.k);
        sketch.observe_batch_cached(&self.family, &mut self.hash_cache, &self.buffer);
        self.buffer.clear();
        let win = Window {
            index: self.next_window,
            start_frame: self.buffer_start,
            end_frame: self.last_frame,
            sketch,
        };
        self.next_window += 1;
        self.stats.windows += 1;

        if catalogue.probe {
            self.rel.reset_from_index(
                &catalogue.index,
                &win.sketch,
                self.cfg.pruning_delta(),
                &mut self.stats,
            );
        } else {
            // NoIndex: every query is related; for the Bit representation
            // the window's signature must be encoded against every query
            // (this cost is the point of Fig. 9's comparison). Encodes
            // happen lazily but every related entry will be touched, so
            // the accounting stays exact.
            self.rel.reset_all_queries(catalogue.queries());
        }

        let out = match &mut self.store {
            Store::Seq(s) => s.advance(&win, &mut self.rel, &self.cfg, catalogue, &mut self.stats),
            Store::Geo(s) => s.advance(&win, &mut self.rel, &self.cfg, catalogue, &mut self.stats),
        };
        self.win_sketch = win.sketch;
        out
    }
}

/// The continuous copy detector for one video stream: the per-stream
/// state plus a catalogue of its own.
///
/// A standalone detector ([`Detector::new`]) is its catalogue's only
/// holder, so [`Detector::subscribe`] / [`Detector::unsubscribe`] write
/// in place. [`Detector::with_shared`] and [`Detector::install_catalogue`]
/// are for callers that share one index among detectors they drive
/// themselves; there a subscription through the detector copies first
/// (the other holders keep theirs), and the cheap way to change the
/// catalogue is to build the new index once and install it on each. A
/// [`crate::Fleet`] does neither: it keeps one catalogue per executor and
/// lends it to plain per-stream states.
pub struct Detector {
    catalogue: Catalogue,
    state: StreamState,
}

impl Detector {
    /// Create a detector for a query set.
    ///
    /// The queries' sketches must have been built with the same
    /// `(k, hash_seed)` family — use [`Detector::family_for`] or
    /// [`Detector::make_query`].
    ///
    /// # Panics
    /// Panics if the configuration is invalid or a query's `K` mismatches.
    pub fn new(cfg: DetectorConfig, queries: QuerySet) -> Detector {
        cfg.validate();
        Detector {
            catalogue: Catalogue::shared(&cfg, &queries, None),
            state: StreamState::new(cfg),
        }
    }

    /// Create a detector that shares a pre-built index with other
    /// detectors. The index must have been built over exactly `queries`;
    /// given `None`, the detector builds its own. Only the queries' ids and
    /// lengths are kept — their values are read from the index.
    ///
    /// # Panics
    /// Panics if the configuration is invalid, a query's `K` mismatches,
    /// or the index does not hold exactly `queries`' ids and lengths.
    pub fn with_shared(
        cfg: DetectorConfig,
        queries: Arc<QuerySet>,
        index: Option<Arc<HqIndex>>,
    ) -> Detector {
        cfg.validate();
        Detector {
            catalogue: Catalogue::shared(&cfg, &queries, index),
            state: StreamState::new(cfg),
        }
    }

    /// The min-hash family matching a configuration — what queries must be
    /// sketched with.
    pub fn family_for(cfg: &DetectorConfig) -> MinHashFamily {
        MinHashFamily::new(cfg.k, cfg.hash_seed)
    }

    /// Sketch a query from its key-frame cell ids with this detector's
    /// family.
    pub fn make_query(&self, id: QueryId, cell_ids: &[u64]) -> Query {
        Query::from_cell_ids(id, &self.state.family, cell_ids)
    }

    /// The configuration in use.
    pub fn config(&self) -> &DetectorConfig {
        &self.state.cfg
    }

    /// Number of subscribed queries `m`.
    pub fn query_count(&self) -> usize {
        self.catalogue.queries().len()
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> &Stats {
        self.state.stats()
    }

    /// Subscribe a new query online (paper Section V-C.1). A rejected
    /// query leaves the catalogue exactly as it was.
    ///
    /// # Panics
    /// Panics on duplicate id, `K` mismatch or a full index.
    pub fn subscribe(&mut self, query: Query) {
        self.catalogue.subscribe(query);
    }

    /// Unsubscribe a query online. Candidates tracking it shed their
    /// entries lazily. Returns `false` if the id was not subscribed,
    /// having written and copied nothing.
    pub fn unsubscribe(&mut self, id: QueryId) -> bool {
        self.catalogue.unsubscribe(id)
    }

    /// Replace the catalogue with `queries` and an index over them that
    /// the caller shares with other detectors (built here if `None`, as
    /// in [`Detector::with_shared`]). The swap happens between key frames
    /// and applies to the open window when it closes, so it is equivalent to
    /// per-detector `subscribe`/`unsubscribe` calls producing the same
    /// catalogue — candidates tracking a removed query shed their entries
    /// lazily, exactly as with [`Detector::unsubscribe`].
    ///
    /// # Panics
    /// Panics on `K` mismatch, or if the index does not hold exactly
    /// `queries`' ids and lengths.
    pub fn install_catalogue(&mut self, queries: Arc<QuerySet>, index: Option<Arc<HqIndex>>) {
        self.catalogue = Catalogue::shared(&self.state.cfg, &queries, index);
    }

    /// Feed one key frame's fingerprint. Returns the detections triggered
    /// if this key frame completed a basic window (empty otherwise).
    // vdsms-lint: entry
    pub fn push_keyframe(&mut self, frame_index: u64, cell_id: u64) -> Vec<Detection> {
        // Called by path so the lint's name-based call graph sees the
        // per-stream state, not every `push_keyframe` in the workspace.
        StreamState::push_keyframe(&mut self.state, &self.catalogue, frame_index, cell_id)
    }

    /// Flush a partially-filled final window at end of stream.
    // vdsms-lint: entry
    pub fn finish(&mut self) -> Vec<Detection> {
        StreamState::finish(&mut self.state, &self.catalogue)
    }

    /// Convenience: run a whole fingerprint sequence through the detector.
    /// `frames` yields `(frame_index, cell_id)` pairs.
    pub fn run<I: IntoIterator<Item = (u64, u64)>>(&mut self, frames: I) -> Vec<Detection> {
        let mut out = Vec::new();
        for (frame_index, cell_id) in frames {
            out.extend(self.push_keyframe(frame_index, cell_id));
        }
        out.extend(self.finish());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Representation;

    const K: usize = 128;

    fn cfg(order: Order, rep: Representation, use_index: bool) -> DetectorConfig {
        DetectorConfig {
            k: K,
            delta: 0.7,
            lambda: 2.0,
            window_keyframes: 5,
            order,
            representation: rep,
            use_index,
            ..Default::default()
        }
    }

    /// A stream of 200 key frames with a planted copy of the query at
    /// frames 100..130 (cell ids match the query's, re-ordered).
    fn planted_stream(query_ids: &[u64]) -> Vec<(u64, u64)> {
        let mut frames = Vec::new();
        for i in 0..200u64 {
            let id = if (100..100 + query_ids.len() as u64).contains(&i) {
                // Reverse order inside the copy: set similarity is order-blind.
                query_ids[(query_ids.len() as u64 - 1 - (i - 100)) as usize]
            } else {
                1_000_000 + i * 13 // background content
            };
            frames.push((i, id));
        }
        frames
    }

    fn all_variants() -> Vec<DetectorConfig> {
        let mut v = Vec::new();
        for order in [Order::Sequential, Order::Geometric] {
            for rep in [Representation::Sketch, Representation::Bit] {
                for use_index in [false, true] {
                    v.push(cfg(order, rep, use_index));
                }
            }
        }
        v
    }

    #[test]
    fn every_variant_finds_the_planted_copy() {
        let query_ids: Vec<u64> = (0..30).map(|i| i * 3 + 7).collect();
        for config in all_variants() {
            let family = Detector::family_for(&config);
            let queries =
                QuerySet::from_queries(vec![Query::from_cell_ids(1, &family, &query_ids)]);
            let mut det = Detector::new(config, queries);
            let dets = det.run(planted_stream(&query_ids));
            assert!(
                dets.iter().any(|d| d.query_id == 1),
                "variant {:?}/{:?}/index={} missed the planted copy",
                config.order,
                config.representation,
                config.use_index
            );
            // Detection position must fall inside the copy region
            // (the paper's correctness rule with w tolerance).
            let d = dets.iter().find(|d| d.query_id == 1).unwrap();
            assert!(
                (100..=135).contains(&d.position()),
                "position {} outside the copy",
                d.position()
            );
        }
    }

    #[test]
    fn clean_stream_produces_no_detections() {
        let query_ids: Vec<u64> = (0..30).map(|i| i * 3 + 7).collect();
        for config in all_variants() {
            let family = Detector::family_for(&config);
            let queries =
                QuerySet::from_queries(vec![Query::from_cell_ids(1, &family, &query_ids)]);
            let mut det = Detector::new(config, queries);
            let frames: Vec<(u64, u64)> = (0..150u64).map(|i| (i, 2_000_000 + i * 17)).collect();
            let dets = det.run(frames);
            assert!(dets.is_empty(), "false positives on clean stream: {dets:?}");
        }
    }

    #[test]
    fn index_and_noindex_agree_on_what_matters() {
        // The index changes which candidates TRACK a query (a candidate
        // born from a window sharing no min-hash value with the query
        // never tracks it), but any candidate the index drops starts on
        // unrelated content, so the copy itself is still found. Both
        // variants must detect the query, and the indexed variant's
        // detections must be a subset of the brute-force variant's.
        let query_ids: Vec<u64> = (0..30).map(|i| i * 3 + 7).collect();
        let mk = |use_index: bool| {
            let config = cfg(Order::Sequential, Representation::Bit, use_index);
            let family = Detector::family_for(&config);
            let queries =
                QuerySet::from_queries(vec![Query::from_cell_ids(1, &family, &query_ids)]);
            let mut det = Detector::new(config, queries);
            let mut dets = det.run(planted_stream(&query_ids));
            dets.sort_by_key(|d| (d.start_frame, d.end_frame));
            dets.iter().map(|d| (d.query_id, d.start_frame, d.end_frame)).collect::<Vec<_>>()
        };
        let indexed = mk(true);
        let brute = mk(false);
        assert!(!indexed.is_empty());
        assert!(indexed.iter().all(|d| brute.contains(d)), "{indexed:?} ⊄ {brute:?}");
    }

    #[test]
    fn index_probes_far_fewer_queries_than_bruteforce() {
        // 50 queries, none related to the stream: the indexed variant's
        // comparison counters must be far below the brute-force one's.
        let make = |use_index: bool| {
            let config = cfg(Order::Sequential, Representation::Bit, use_index);
            let family = Detector::family_for(&config);
            let queries = QuerySet::from_queries(
                (0..50u32)
                    .map(|q| {
                        let ids: Vec<u64> = (0..20).map(|i| u64::from(q) * 500 + i).collect();
                        Query::from_cell_ids(q, &family, &ids)
                    })
                    .collect(),
            );
            let mut det = Detector::new(config, queries);
            let frames: Vec<(u64, u64)> = (0..300u64).map(|i| (i, 9_000_000 + i)).collect();
            det.run(frames);
            let stats = det.stats();
            stats.sig_encodes + stats.probe_encodes + stats.sig_ors + stats.sig_compares
        };
        let with_index = make(true);
        let without = make(false);
        assert!(with_index * 5 < without, "index saved too little: {with_index} vs {without}");
    }

    #[test]
    fn online_subscribe_and_unsubscribe_take_effect() {
        let config = cfg(Order::Sequential, Representation::Bit, true);
        let family = Detector::family_for(&config);
        let query_ids: Vec<u64> = (0..20).map(|i| i * 5 + 3).collect();
        let mut det = Detector::new(config, QuerySet::new());

        // Not subscribed yet: the copy at 20..40 goes unnoticed.
        let mut found = Vec::new();
        for i in 0..50u64 {
            let id =
                if (20..40).contains(&i) { query_ids[(i - 20) as usize] } else { 7_000_000 + i };
            found.extend(det.push_keyframe(i, id));
        }
        assert!(found.is_empty());

        // Subscribe; a second occurrence is detected.
        det.subscribe(Query::from_cell_ids(9, &family, &query_ids));
        for i in 50..100u64 {
            let id =
                if (60..80).contains(&i) { query_ids[(i - 60) as usize] } else { 7_000_000 + i };
            found.extend(det.push_keyframe(i, id));
        }
        assert!(found.iter().any(|d| d.query_id == 9), "subscribed query must be found");

        // Unsubscribe; a third occurrence is ignored.
        assert!(det.unsubscribe(9));
        found.clear();
        for i in 100..150u64 {
            let id =
                if (110..130).contains(&i) { query_ids[(i - 110) as usize] } else { 7_000_000 + i };
            found.extend(det.push_keyframe(i, id));
        }
        assert!(found.is_empty(), "unsubscribed query must be ignored: {found:?}");
    }

    #[test]
    fn a_shared_catalogue_is_copied_by_a_write_and_by_nothing_else() {
        let config = cfg(Order::Sequential, Representation::Bit, true);
        let family = Detector::family_for(&config);
        let clip = |id: QueryId| Query::from_cell_ids(id, &family, &[u64::from(id), 7, 8]);
        let held = Arc::new(QuerySet::from_queries(vec![clip(1)]));
        let held_index = Arc::new(HqIndex::build(K, &held));
        let mut det =
            Detector::with_shared(config, Arc::clone(&held), Some(Arc::clone(&held_index)));

        // The detector keeps the index and the ids, never the query set.
        assert_eq!(Arc::strong_count(&held), 1, "a catalogue must not hold the query set");

        // An unknown id is found out before anything is written.
        assert!(!det.unsubscribe(99));
        assert_eq!(Arc::strong_count(&held_index), 2, "an unknown id must not copy the index");

        // A write copies first: the other holder's index is not torn.
        det.subscribe(clip(2));
        assert_eq!((det.query_count(), held_index.len()), (2, 1));
        assert_eq!(Arc::strong_count(&held_index), 1);
    }

    /// Values are read from the index alone, so a shared index that does
    /// not hold exactly the set's ids and lengths is refused — not
    /// adopted to mis-detect silently.
    #[test]
    fn a_shared_index_over_another_catalogue_is_refused() {
        let config = cfg(Order::Sequential, Representation::Sketch, false);
        let family = Detector::family_for(&config);
        let clip =
            |id: QueryId, n: u64| Query::from_cell_ids(id, &family, &(0..n).collect::<Vec<_>>());
        let set = |queries: Vec<Query>| Arc::new(QuerySet::from_queries(queries));
        let held = set(vec![clip(1, 3), clip(2, 3)]);
        for (other, missing) in [
            (set(vec![clip(1, 3), clip(2, 4)]), "does not cover query 2"),
            (set(vec![clip(1, 3), clip(3, 3)]), "does not cover query 2"),
            (set(vec![clip(1, 3)]), "does not cover the catalogue"),
        ] {
            let index = Some(Arc::new(HqIndex::build(K, &other)));
            let refused = std::panic::catch_unwind(|| {
                Detector::with_shared(config, Arc::clone(&held), index.clone())
            });
            let message = refused.err().and_then(|e| e.downcast::<String>().ok());
            let message = message.expect("a mismatched pair must be refused");
            assert!(message.contains(missing), "{message}");
        }
    }

    /// The NoIndex related list is the subscription order, which emission
    /// order follows — not the index's slot order, which an unsubscribe
    /// reshuffles by moving the last slot into the hole.
    #[test]
    fn every_query_is_related_in_subscription_order() {
        let config = cfg(Order::Sequential, Representation::Bit, false);
        let family = Detector::family_for(&config);
        let mut catalogue = Catalogue::empty(&config);
        for id in [5, 1, 9, 3] {
            catalogue.subscribe(Query::from_cell_ids(id, &family, &[u64::from(id); 2]));
        }
        assert!(catalogue.unsubscribe(5));
        assert!(!catalogue.unsubscribe(5));
        catalogue.subscribe(Query::from_cell_ids(7, &family, &[7, 8, 9]));
        let mut rel = WindowRelations::new();
        rel.reset_all_queries(catalogue.queries());
        assert_eq!(rel.related(), [(1, 2), (9, 2), (3, 2), (7, 3)]);
        assert_eq!(catalogue.max_keyframes(), 3);
    }

    #[test]
    fn finish_flushes_partial_window() {
        let config = cfg(Order::Sequential, Representation::Bit, true);
        let family = Detector::family_for(&config);
        let query_ids: Vec<u64> = (0..8).collect();
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(1, &family, &query_ids)]);
        let mut det = Detector::new(config, queries);
        // 8 matching frames: one full window (5) + 3 buffered.
        let mut dets = Vec::new();
        for i in 0..8u64 {
            dets.extend(det.push_keyframe(i, query_ids[i as usize]));
        }
        dets.extend(det.finish());
        assert!(
            dets.iter().any(|d| d.similarity >= 0.99),
            "flush must let the final partial window complete the match"
        );
    }

    #[test]
    fn stats_windows_counted() {
        let config = cfg(Order::Sequential, Representation::Sketch, false);
        let mut det = Detector::new(config, QuerySet::new());
        for i in 0..23u64 {
            det.push_keyframe(i, i);
        }
        det.finish();
        assert_eq!(det.stats().windows, 5); // 4 full + 1 partial
    }

    #[test]
    #[should_panic(expected = "query sketches must use K")]
    fn k_mismatch_is_rejected() {
        let config = cfg(Order::Sequential, Representation::Bit, true);
        let wrong_family = MinHashFamily::new(K + 1, 0);
        let queries = QuerySet::from_queries(vec![Query::from_cell_ids(1, &wrong_family, &[1, 2])]);
        let _ = Detector::new(config, queries);
    }
}
