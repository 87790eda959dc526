//! Per-basic-window state shared by the candidate stores.

use crate::bitsig::BitSig;
use crate::engine::Catalogue;
use crate::hq::{HqIndex, ProbeHit, ProbeScratch};
use crate::query::QueryId;
use crate::stats::Stats;
use vdsms_sketch::Sketch;

/// A completed basic window: `w` key frames sketched as a set of cell ids.
#[derive(Debug, Clone)]
pub struct Window {
    /// Zero-based window index within the stream.
    pub index: u64,
    /// Stream frame index of the window's first key frame.
    pub start_frame: u64,
    /// Stream frame index of the window's last key frame (inclusive).
    pub end_frame: u64,
    /// K-min-hash sketch of the window's cell-id set.
    pub sketch: Sketch,
}

/// The window's relations to the query set: the related-query list `R_L`
/// (from the index probe, or all queries for the NoIndex variants) plus a
/// lazy cache of bit signatures.
///
/// Signatures for queries *not* surfaced by the probe are computed on
/// demand (an `O(K)` encode) — this happens when an old candidate tracks a
/// query that the newest window shares no min-hash values with, and its
/// cost is exactly what Lemma-2 pruning keeps rare.
///
/// It also keeps the stream's one pool of signature buffers (inside the
/// probe scratch, which the probe's own hits draw on): the cache's
/// signatures go back to it when the next window arrives, and the
/// candidate stores take their copies from it and return their dead
/// entries' to it, so in a steady state no signature is allocated.
#[derive(Debug, Default)]
pub struct WindowRelations {
    /// Related queries as `(id, keyframes)`.
    related: Vec<(QueryId, usize)>,
    /// Signature cache, sorted by query id (binary-searched; the related
    /// set is small — `R_L` in the paper's notation).
    sigs: Vec<(QueryId, BitSig)>,
    /// The index probe's working state, the signature pool, and the
    /// window sketch's discriminator plane.
    scratch: ProbeScratch,
    /// The probe's hit buffer, drained into `related` and `sigs`.
    hits: Vec<ProbeHit>,
}

impl WindowRelations {
    /// An empty relation set, ready to be `reset_*` per window. The
    /// detector keeps one and refills it each basic window so the
    /// steady-state loop never rebuilds these containers from scratch.
    pub fn new() -> WindowRelations {
        WindowRelations::default()
    }

    /// Build for the NoIndex variants: every query of `queries`, given as
    /// `(id, keyframes)`, is related; signatures are encoded lazily as the
    /// stores touch them.
    pub fn all_queries(queries: &[(QueryId, usize)]) -> WindowRelations {
        let mut rel = WindowRelations::new();
        rel.reset_all_queries(queries);
        rel
    }

    /// Forget the previous window: its cached signatures are dead, so
    /// their buffers go back to the pool, and its plane with them.
    fn clear(&mut self) {
        self.related.clear();
        for (_, sig) in self.sigs.drain(..) {
            self.scratch.recycle_sig(sig);
        }
        self.scratch.plane.clear();
    }

    /// Refill from a probe of `index` with the new window's sketch: the
    /// hits become the related list, their signatures the cache.
    pub fn reset_from_index(
        &mut self,
        index: &HqIndex,
        window_sketch: &Sketch,
        delta: f64,
        stats: &mut Stats,
    ) {
        self.clear();
        stats.index_probes += 1;
        stats.index_row_searches +=
            index.probe_into(window_sketch, delta, &mut self.scratch, &mut self.hits);
        stats.probe_encodes += self.scratch.encodes();
        let discovery = self.scratch.discovery();
        stats.index_home_hits += discovery.home_hits;
        stats.index_cells_walked += discovery.cells_walked;
        stats.index_tag_matches += discovery.tag_matches;
        stats.index_verifications += discovery.verifications;
        for h in self.hits.drain(..) {
            // vdsms-lint: allow(no-alloc-hot-path) reason="capacity reused across windows; grows only while the probe-hit high-water mark rises"
            self.related.push((h.query_id, h.keyframes));
            // vdsms-lint: allow(no-alloc-hot-path) reason="capacity reused across windows; grows only while the probe-hit high-water mark rises"
            self.sigs.push((h.query_id, h.sig));
        }
        self.sigs.sort_unstable_by_key(|(id, _)| *id);
    }

    /// Refill with every subscribed query (NoIndex variants), given as
    /// `(id, keyframes)` in subscription order, reusing this relation
    /// set's buffers.
    pub fn reset_all_queries(&mut self, queries: &[(QueryId, usize)]) {
        self.clear();
        self.related.extend_from_slice(queries);
    }

    /// The related-query list for this window.
    pub fn related(&self) -> &[(QueryId, usize)] {
        &self.related
    }

    /// Number of related queries.
    pub fn related_len(&self) -> usize {
        self.related.len()
    }

    /// The `i`-th related query as `(id, keyframes)`. Indexed access lets
    /// the stores iterate relations while calling `sig_for` (which needs
    /// `&mut self`) without copying the list out first.
    ///
    /// # Panics
    /// Panics if `i >= related_len()`.
    pub fn related_at(&self, i: usize) -> (QueryId, usize) {
        self.related[i]
    }

    /// A signature buffer from the stream's pool, contents unspecified.
    pub(crate) fn take_sig(&mut self) -> BitSig {
        self.scratch.take_sig()
    }

    /// Give a dead signature's buffer back to the stream's pool.
    pub(crate) fn recycle_sig(&mut self, sig: BitSig) {
        self.scratch.recycle_sig(sig);
    }

    /// The window's bit signature relative to query `qid`, encoding it on
    /// demand — through the catalogue, into a pooled buffer — if the probe
    /// did not produce it. Returns `None` if the query has been
    /// unsubscribed. `window_sketch` is the one sketch of this window on
    /// every call until the next `reset_*`: its plane is built once.
    pub(crate) fn sig_for(
        &mut self,
        qid: QueryId,
        window_sketch: &Sketch,
        catalogue: &Catalogue,
        stats: &mut Stats,
    ) -> Option<&BitSig> {
        match self.sigs.binary_search_by_key(&qid, |(id, _)| *id) {
            Ok(i) => Some(&self.sigs[i].1),
            Err(i) => {
                let mut sig = self.scratch.take_sig();
                if !catalogue.encode_against(qid, window_sketch, &mut self.scratch.plane, &mut sig)
                {
                    self.scratch.recycle_sig(sig);
                    return None;
                }
                stats.sig_encodes += 1;
                // vdsms-lint: allow(no-alloc-hot-path) reason="capacity reused across windows; grows only while the per-window signature high-water mark rises"
                self.sigs.insert(i, (qid, sig));
                Some(&self.sigs[i].1)
            }
        }
    }

    /// [`Self::sig_for`], copied into a pooled buffer the caller keeps —
    /// what a store puts in the entry a newborn candidate tracks `qid`
    /// with.
    pub(crate) fn sig_copy_for(
        &mut self,
        qid: QueryId,
        window_sketch: &Sketch,
        catalogue: &Catalogue,
        stats: &mut Stats,
    ) -> Option<BitSig> {
        let mut copy = self.scratch.take_sig();
        match self.sig_for(qid, window_sketch, catalogue, stats) {
            Some(sig) => copy.copy_from(sig),
            None => {
                self.scratch.recycle_sig(copy);
                return None;
            }
        }
        Some(copy)
    }
}

/// Relation counts between two sketches' min-hash values: `(n_less,
/// n_equal)` where `n_less` counts positions with `a < b` — the order
/// [`BitSig::counts`] returns them in. This is the
/// Sketch representation's comparison primitive (`C_comp`), also used for
/// its Lemma-2 pruning; a store passes a candidate's sketch and a query's
/// values from the index's slab.
pub fn sketch_relations(a: &[u64], b: &[u64]) -> (usize, usize) {
    assert_eq!(a.len(), b.len(), "sketch K mismatch");
    // Branch-free: each lane contributes 0/1 to both counters, so the
    // loop has no data-dependent branches and vectorizes.
    let mut n_eq = 0usize;
    let mut n_less = 0usize;
    for (&x, &y) in a.iter().zip(b) {
        n_eq += usize::from(x == y);
        n_less += usize::from(x < y);
    }
    (n_less, n_eq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DetectorConfig;
    use crate::query::{Query, QuerySet};
    use vdsms_sketch::MinHashFamily;

    #[test]
    fn sketch_relations_counts_match_bitsig() {
        let f = MinHashFamily::new(100, 1);
        let a = Sketch::from_ids(&f, 0..50u64);
        let b = Sketch::from_ids(&f, 25..80u64);
        let (n_less, n_eq) = sketch_relations(a.mins(), b.mins());
        let sig = BitSig::encode(&a, &b);
        assert_eq!(n_eq, sig.count_equal());
        assert_eq!(n_less, sig.count_less());
    }

    /// A catalogue over `queries`, with or without the index.
    fn catalogue(queries: QuerySet, use_index: bool) -> Catalogue {
        let cfg = DetectorConfig { k: 32, use_index, ..Default::default() };
        Catalogue::shared(&cfg, &queries, None)
    }

    #[test]
    fn sig_for_encodes_on_demand_and_caches() {
        let f = MinHashFamily::new(32, 2);
        let w = Sketch::from_ids(&f, 1..4u64);
        for use_index in [false, true] {
            let q = Query::from_cell_ids(9, &f, &[1, 2, 3]);
            let want = BitSig::encode(&w, &q.sketch);
            let catalogue = catalogue(QuerySet::from_queries(vec![q]), use_index);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            let mut stats = Stats::default();
            let sig1 = rel.sig_for(9, &w, &catalogue, &mut stats).unwrap().clone();
            assert_eq!(stats.sig_encodes, 1);
            let sig2 = rel.sig_for(9, &w, &catalogue, &mut stats).unwrap().clone();
            assert_eq!(stats.sig_encodes, 1, "second access must hit the cache");
            assert_eq!((&sig1, &sig2), (&want, &want), "use_index={use_index}");
            assert_eq!(sig1.similarity(), 1.0);
            let copy = rel.sig_copy_for(9, &w, &catalogue, &mut stats).unwrap();
            assert_eq!((copy, stats.sig_encodes), (want, 1), "a copy is of the cached signature");
        }
    }

    #[test]
    fn sig_for_unknown_query_is_none() {
        let f = MinHashFamily::new(32, 2);
        let w = Sketch::from_ids(&f, 1..4u64);
        for use_index in [false, true] {
            let catalogue = catalogue(QuerySet::new(), use_index);
            let mut rel = WindowRelations::all_queries(catalogue.queries());
            let mut stats = Stats::default();
            assert!(rel.sig_for(42, &w, &catalogue, &mut stats).is_none());
            assert!(rel.sig_copy_for(42, &w, &catalogue, &mut stats).is_none());
            assert_eq!(stats.sig_encodes, 0);
        }
    }
}
