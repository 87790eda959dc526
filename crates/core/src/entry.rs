//! The per-entry core both candidate stores share (Section IV-A).
//!
//! A candidate — a suffix in the Sequential order, a segment or cascade
//! suffix in the Geometric one — tracks the queries it may still match as
//! a list of [`Entry`]s. Whatever the order, an entry is born from a
//! window's related-query list ([`build`]), faces one candidate test
//! ([`judge`]: the λL length bound, Lemma-2 pruning, the Lemma-1 δ match)
//! and leaves with its signature buffer handed back to the stream's pool
//! ([`retire`]). The Geometric order also merges two entry lists by
//! query id ([`merge_by_qid`]); both lists must be strictly ascending by
//! query id — every list the Geometric store keeps is sorted once at
//! birth, and a merge emits its union in ascending order, so the
//! invariant holds for every later merge too.

use crate::bitsig::BitSig;
use crate::config::{DetectorConfig, Representation};
use crate::engine::Catalogue;
use crate::query::QueryId;
use crate::stats::Stats;
use crate::window::{sketch_relations, Window, WindowRelations};
use std::borrow::Borrow;
use std::cmp::Ordering;
use vdsms_sketch::Sketch;

/// One query tracked by a candidate.
#[derive(Debug)]
pub(crate) struct Entry {
    pub(crate) qid: QueryId,
    pub(crate) keyframes: usize,
    /// Bit representation only: the candidate's signature against the
    /// query, in a buffer from the stream's pool
    /// ([`WindowRelations::take_sig`]) that goes back there when the
    /// entry dies.
    pub(crate) sig: Option<BitSig>,
    /// Sequential order only: whether this candidate-query pair has
    /// already been reported.
    pub(crate) reported: bool,
}

impl Entry {
    pub(crate) fn new(qid: QueryId, keyframes: usize, sig: Option<BitSig>) -> Entry {
        Entry { qid, keyframes, sig, reported: false }
    }
}

/// An entry is leaving its list: hand its signature's buffer back to the
/// stream's pool. Returns `false`, the `retain` verdict.
pub(crate) fn retire(e: &mut Entry, rel: &mut WindowRelations) -> bool {
    if let Some(sig) = e.sig.take() {
        rel.recycle_sig(sig);
    }
    false
}

/// Refill `entries` with one entry per query related to `win`, in the
/// related list's order, retiring what it held before. In the Bit
/// representation each entry carries a pooled copy of the window's
/// signature, and a query unsubscribed since the probe gets no entry.
pub(crate) fn build(
    entries: &mut Vec<Entry>,
    rep: Representation,
    win: &Window,
    rel: &mut WindowRelations,
    catalogue: &Catalogue,
    stats: &mut Stats,
) {
    for mut e in entries.drain(..) {
        retire(&mut e, rel);
    }
    for i in 0..rel.related_len() {
        let (qid, keyframes) = rel.related_at(i);
        let sig = match rep {
            Representation::Sketch => None,
            Representation::Bit => match rel.sig_copy_for(qid, &win.sketch, catalogue, stats) {
                Some(copy) => Some(copy),
                None => continue,
            },
        };
        // vdsms-lint: allow(no-alloc-hot-path) reason="pooled Vec; capacity stabilizes at the related-query high-water mark"
        entries.push(Entry::new(qid, keyframes, sig));
    }
}

/// `(n_less, n_eq)` of a candidate against `e`'s query, read off the
/// candidate as it stands: its combined `sketch` against the query's
/// values (Sketch representation) or the entry's signature (Bit). `None`
/// if the query is gone or the entry has no signature.
pub(crate) fn counts(
    rep: Representation,
    e: &Entry,
    sketch: &Sketch,
    catalogue: &Catalogue,
    stats: &mut Stats,
) -> Option<(usize, usize)> {
    match rep {
        Representation::Sketch => {
            let values = catalogue.values(e.qid)?;
            stats.sketch_compares += 1;
            Some(sketch_relations(sketch.mins(), values))
        }
        Representation::Bit => {
            let sig = e.sig.as_ref()?;
            stats.sig_compares += 1;
            Some(sig.counts())
        }
    }
}

/// What the candidate test makes of one entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Verdict {
    /// Expired, pruned or gone: the entry leaves its list.
    Drop,
    /// Still alive, below the threshold.
    Keep,
    /// Alive and at or above δ, with this similarity.
    Match(f64),
}

/// The candidate test, in its one order: the λL length bound on a
/// candidate of `len_windows` windows (`None`: no bound, as in a carry
/// merge), then Lemma 2 (`n_less > K(1−δ)` — no extension can match),
/// then the Lemma-1 similarity `n_eq / K` against δ. `count` yields
/// `(n_less, n_eq)` and runs only once the length bound has passed; its
/// `None` (the query is gone) drops the entry uncounted.
pub(crate) fn judge(
    len_windows: Option<usize>,
    keyframes: usize,
    cfg: &DetectorConfig,
    stats: &mut Stats,
    count: impl FnOnce(&mut Stats) -> Option<(usize, usize)>,
) -> Verdict {
    if len_windows.is_some_and(|len| len > cfg.max_windows_for(keyframes)) {
        stats.length_expiries += 1;
        return Verdict::Drop;
    }
    let Some((n_less, n_eq)) = count(stats) else { return Verdict::Drop };
    let k = cfg.k as f64;
    if n_less as f64 > k * (1.0 - cfg.pruning_delta()) {
        stats.lemma2_prunes += 1;
        return Verdict::Drop;
    }
    let sim = n_eq as f64 / k;
    if sim + 1e-12 >= cfg.delta {
        Verdict::Match(sim)
    } else {
        Verdict::Keep
    }
}

/// One step of [`merge_by_qid`]: the entry of a query only the older list
/// tracks, only the newer list, or both.
#[derive(Debug)]
pub(crate) enum ByQid<O, N> {
    Older(O),
    Newer(N),
    Both(O, N),
}

/// Merge two entry lists, each strictly ascending by query id, in one
/// two-pointer pass (`O(α)`): `step` sees every query id of either list
/// once, in ascending order.
pub(crate) fn merge_by_qid<O: Borrow<Entry>, N: Borrow<Entry>>(
    older: impl IntoIterator<Item = O>,
    newer: impl IntoIterator<Item = N>,
    mut step: impl FnMut(ByQid<O, N>),
) {
    let mut older = ascending(older).peekable();
    let mut newer = ascending(newer).peekable();
    loop {
        let order = match (older.peek(), newer.peek()) {
            (Some(o), Some(n)) => o.borrow().qid.cmp(&n.borrow().qid),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => return,
        };
        let pair = match order {
            Ordering::Less => older.next().map(ByQid::Older),
            Ordering::Greater => newer.next().map(ByQid::Newer),
            Ordering::Equal => older.next().zip(newer.next()).map(|(o, n)| ByQid::Both(o, n)),
        };
        if let Some(pair) = pair {
            step(pair);
        }
    }
}

/// `entries`, each checked in debug builds to come after the last.
fn ascending<E: Borrow<Entry>>(entries: impl IntoIterator<Item = E>) -> impl Iterator<Item = E> {
    let mut last = None;
    entries.into_iter().inspect(move |e| {
        let qid = e.borrow().qid;
        debug_assert!(last < Some(qid), "entry list not strictly ascending at query {qid}");
        last = Some(qid);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn entries(ids: &[QueryId]) -> Vec<Entry> {
        ids.iter().map(|&qid| Entry::new(qid, qid as usize, None)).collect()
    }

    /// A strictly ascending list drawn from `raw`.
    fn ascending_ids(mut raw: Vec<QueryId>) -> Vec<QueryId> {
        raw.sort_unstable();
        raw.dedup();
        raw
    }

    /// A merge step as `(id, older holds it, newer holds it)`.
    fn sides<O: Borrow<Entry>, N: Borrow<Entry>>(pair: ByQid<O, N>) -> (QueryId, bool, bool) {
        match pair {
            ByQid::Older(o) => (o.borrow().qid, true, false),
            ByQid::Newer(n) => (n.borrow().qid, false, true),
            ByQid::Both(o, n) => {
                assert_eq!(o.borrow().qid, n.borrow().qid);
                (o.borrow().qid, true, true)
            }
        }
    }

    proptest! {
        /// The merge against its definition: every id of either list once,
        /// ascending, paired with the side(s) that hold it — whether the
        /// older list is borrowed (a cascade step) or owned (a carry merge).
        #[test]
        fn merge_by_qid_is_the_sorted_union(
            a in proptest::collection::vec(0u32..64, 0..24),
            b in proptest::collection::vec(0u32..64, 0..24),
        ) {
            let (a, b) = (ascending_ids(a), ascending_ids(b));
            let mut want: Vec<(QueryId, bool, bool)> = a
                .iter()
                .chain(&b)
                .map(|&id| (id, a.contains(&id), b.contains(&id)))
                .collect();
            want.sort_unstable();
            want.dedup();
            let older = entries(&a);
            let (mut borrowed, mut owned) = (Vec::new(), Vec::new());
            merge_by_qid(&older, entries(&b), |pair| borrowed.push(sides(pair)));
            merge_by_qid(entries(&a), entries(&b), |pair| owned.push(sides(pair)));
            prop_assert_eq!(&borrowed, &want);
            prop_assert_eq!(&owned, &want);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn merge_by_qid_rejects_an_unsorted_list() {
        merge_by_qid(entries(&[1, 5]), entries(&[4, 2]), |_| {});
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not strictly ascending")]
    fn merge_by_qid_rejects_a_repeated_id() {
        merge_by_qid(entries(&[3, 3]), entries(&[]), |_| {});
    }

    #[test]
    fn judge_tests_in_order_length_lemma2_delta() {
        // K = 10, δ = 0.7: Lemma 2 prunes above 3 `<` relations, δ needs
        // 7 `=`; a 4-keyframe query allows ⌈2·4/4⌉ = 2 windows.
        let cfg = DetectorConfig {
            k: 10,
            delta: 0.7,
            lambda: 2.0,
            window_keyframes: 4,
            ..Default::default()
        };
        let mut stats = Stats::default();
        let mut judged =
            |len, (n_less, n_eq)| judge(len, 4, &cfg, &mut stats, |_| Some((n_less, n_eq)));
        assert_eq!(judged(Some(3), (0, 10)), Verdict::Drop, "beyond λL");
        assert_eq!(judged(None, (4, 6)), Verdict::Drop, "Lemma 2");
        assert_eq!(judged(Some(2), (3, 7)), Verdict::Match(0.7));
        assert_eq!(judged(Some(1), (3, 6)), Verdict::Keep);
        assert_eq!((stats.length_expiries, stats.lemma2_prunes), (1, 1));
        let gone = judge(Some(3), 4, &cfg, &mut stats, |_| panic!("counted past λL"));
        assert_eq!(gone, Verdict::Drop);
        assert_eq!(judge(None, 4, &cfg, &mut stats, |_| None), Verdict::Drop);
        assert_eq!((stats.length_expiries, stats.lemma2_prunes), (2, 1));
    }
}
