//! Continuous query sequences and the query set.

use vdsms_sketch::{MinHashFamily, Sketch};

/// Identifier of a subscribed query.
pub type QueryId = u32;

/// One continuous query: a video sequence to monitor for, sketched
/// offline.
#[derive(Debug, Clone)]
pub struct Query {
    /// Query id (unique within a [`QuerySet`]).
    pub id: QueryId,
    /// Query length in key frames (the paper's `L`, used for the λL
    /// expiry bound).
    pub keyframes: usize,
    /// The query's K-min-hash sketch.
    pub sketch: Sketch,
}

impl Query {
    /// Sketch a query from its key-frame cell ids.
    ///
    /// # Panics
    /// Panics if `cell_ids` is empty.
    pub fn from_cell_ids(id: QueryId, family: &MinHashFamily, cell_ids: &[u64]) -> Query {
        assert!(!cell_ids.is_empty(), "query must contain at least one key frame");
        Query {
            id,
            keyframes: cell_ids.len(),
            sketch: Sketch::from_ids(family, cell_ids.iter().copied()),
        }
    }
}

/// A batch of sketched queries, indexable by id: what is saved and
/// loaded ([`crate::persist`]), what an index is built over
/// ([`crate::HqIndex::build`]) and what a detector starts from
/// ([`crate::Detector::new`]). A catalogue never holds one: subscribing
/// copies a query's values into the index's slab and keeps only its id
/// and length.
///
/// Queries are kept in insertion order — what [`QuerySet::iter`]
/// yields, and through it the order a catalogue built from the set
/// subscribes them in — beside an id-sorted directory, so
/// [`QuerySet::get`] is a binary search rather than a scan of `m`
/// sketches' headers.
#[derive(Debug, Clone, Default)]
pub struct QuerySet {
    queries: Vec<Query>,
    /// `(id, position in queries)`, sorted by id.
    by_id: Vec<(QueryId, u32)>,
}

impl QuerySet {
    /// An empty set.
    pub fn new() -> QuerySet {
        QuerySet::default()
    }

    /// Build from a list of queries.
    ///
    /// # Panics
    /// Panics on duplicate ids or inconsistent sketch `K`.
    pub fn from_queries(queries: Vec<Query>) -> QuerySet {
        let mut set = QuerySet::new();
        for q in queries {
            set.insert(q);
        }
        set
    }

    /// Where `id` is, or would go, in the directory.
    fn locate(&self, id: QueryId) -> Result<usize, usize> {
        self.by_id.binary_search_by_key(&id, |&(qid, _)| qid)
    }

    /// Add a query (online subscription).
    ///
    /// # Panics
    /// Panics if the id is already present or `K` differs from existing
    /// queries.
    pub fn insert(&mut self, query: Query) {
        let Err(at) = self.locate(query.id) else {
            panic!("duplicate query id {}", query.id);
        };
        if let Some(first) = self.queries.first() {
            assert_eq!(first.sketch.k(), query.sketch.k(), "query sketch K mismatch");
        }
        self.by_id.insert(at, (query.id, self.queries.len() as u32));
        self.queries.push(query);
    }

    /// Remove a query by id (online unsubscription). Returns the removed
    /// query, or `None` if absent.
    pub fn remove(&mut self, id: QueryId) -> Option<Query> {
        let (_, pos) = self.by_id.remove(self.locate(id).ok()?);
        // Later subscriptions each move up one place.
        for (_, p) in &mut self.by_id {
            *p -= u32::from(*p > pos);
        }
        Some(self.queries.remove(pos as usize))
    }

    /// Look up a query by id.
    pub fn get(&self, id: QueryId) -> Option<&Query> {
        let (_, pos) = self.by_id[self.locate(id).ok()?];
        Some(&self.queries[pos as usize])
    }

    /// All queries.
    pub fn iter(&self) -> impl Iterator<Item = &Query> {
        self.queries.iter()
    }

    /// Number of queries `m`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The common sketch `K`, or `None` when empty.
    pub fn k(&self) -> Option<usize> {
        self.queries.first().map(|q| q.sketch.k())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn family() -> MinHashFamily {
        MinHashFamily::new(32, 1)
    }

    #[test]
    fn from_cell_ids_records_length() {
        let q = Query::from_cell_ids(7, &family(), &[1, 2, 3, 2, 1]);
        assert_eq!(q.id, 7);
        assert_eq!(q.keyframes, 5);
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let f = family();
        let mut set = QuerySet::new();
        set.insert(Query::from_cell_ids(1, &f, &[1, 2]));
        set.insert(Query::from_cell_ids(2, &f, &[3, 4, 5]));
        assert_eq!(set.len(), 2);
        assert_eq!(set.get(2).unwrap().keyframes, 3);
        let removed = set.remove(1).unwrap();
        assert_eq!(removed.id, 1);
        assert!(set.get(1).is_none());
        assert!(set.remove(1).is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate query id")]
    fn duplicate_id_rejected() {
        let f = family();
        let mut set = QuerySet::new();
        set.insert(Query::from_cell_ids(1, &f, &[1]));
        set.insert(Query::from_cell_ids(1, &f, &[2]));
    }

    #[test]
    #[should_panic(expected = "K mismatch")]
    fn k_mismatch_rejected() {
        let mut set = QuerySet::new();
        set.insert(Query::from_cell_ids(1, &MinHashFamily::new(8, 0), &[1]));
        set.insert(Query::from_cell_ids(2, &MinHashFamily::new(16, 0), &[2]));
    }

    proptest! {
        /// `get` / `insert` / `remove` against the definition they
        /// replace: a plain list in subscription order, searched linearly.
        #[test]
        fn lookups_agree_with_a_linear_list(
            steps in proptest::collection::vec((0u32..48, any::<bool>(), 1usize..10), 300..301),
        ) {
            let f = family();
            let mut set = QuerySet::new();
            let mut list: Vec<(QueryId, usize)> = Vec::new();
            for (id, drop, keyframes) in steps {
                let listed = list.iter().position(|&(qid, _)| qid == id);
                prop_assert_eq!(set.get(id).map(|q| q.keyframes), listed.map(|at| list[at].1));
                match listed {
                    Some(at) if drop => {
                        let removed = set.remove(id).map(|q| q.keyframes);
                        prop_assert_eq!(removed, Some(list.remove(at).1));
                    }
                    Some(_) => {}
                    None => {
                        prop_assert!(set.remove(id).is_none());
                        set.insert(Query::from_cell_ids(id, &f, &vec![7; keyframes]));
                        list.push((id, keyframes));
                    }
                }
                let order: Vec<_> = set.iter().map(|q| (q.id, q.keyframes)).collect();
                prop_assert_eq!(&order, &list, "iteration must stay in subscription order");
                prop_assert_eq!(set.len(), list.len());
            }
        }
    }

    #[test]
    fn empty_set_properties() {
        let set = QuerySet::new();
        assert!(set.is_empty());
        assert_eq!(set.k(), None);
    }
}
