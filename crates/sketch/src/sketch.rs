//! K-min-hash sketches of cell-id sets.

use crate::hash::MinHashFamily;

/// A K-min-hash sketch: for each of the family's `K` functions, the
/// minimum hash value over the sketched set. The empty set sketches to
/// all-`u64::MAX`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sketch {
    mins: Vec<u64>,
}

impl Sketch {
    /// An empty-set sketch for a family with `k` functions.
    pub fn empty(k: usize) -> Sketch {
        Sketch { mins: vec![u64::MAX; k] }
    }

    /// Reset to the empty-set sketch for `k` functions, reusing the
    /// existing allocation. After the first call with a given `k` this
    /// touches no allocator — the zero-alloc primitive behind the
    /// detector's per-window scratch sketch. (`Default` yields a detached
    /// zero-`K` sketch whose only purpose is to be `reset` or
    /// `copy_from`-ed into.)
    pub fn reset(&mut self, k: usize) {
        if self.mins.len() == k {
            self.mins.fill(u64::MAX);
        } else {
            self.mins.clear();
            // vdsms-lint: allow(no-alloc-hot-path) reason="warm-up only: resizes once per K change, then the branch above reuses the buffer"
            self.mins.resize(k, u64::MAX);
        }
    }

    /// Copy another sketch's minima into this one, reusing the existing
    /// allocation (unlike `clone`, no heap traffic once capacities
    /// match).
    pub fn copy_from(&mut self, other: &Sketch) {
        self.mins.clear();
        self.mins.extend_from_slice(other.mins());
    }

    /// Reconstruct a sketch from previously-computed minima (e.g. loaded
    /// from persistent storage). The values are only meaningful against
    /// the family they were originally computed with.
    ///
    /// # Panics
    /// Panics if `mins` is empty.
    pub fn from_mins(mins: Vec<u64>) -> Sketch {
        assert!(!mins.is_empty(), "a sketch needs at least one hash function");
        Sketch { mins }
    }

    /// Sketch a set of cell ids. Each distinct id is hashed once, through
    /// the family's batched kernel: `min` is idempotent and commutative,
    /// so dropping repeats and reordering changes no bit of the result,
    /// and a clip's adjacent key frames mostly repeat their cell id.
    pub fn from_ids<I: IntoIterator<Item = u64>>(family: &MinHashFamily, ids: I) -> Sketch {
        let mut distinct: Vec<u64> = ids.into_iter().collect();
        distinct.sort_unstable();
        distinct.dedup();
        let mut s = Sketch::empty(family.k());
        family.update_mins_batch(&distinct, &mut s.mins);
        s
    }

    /// Number of hash functions `K`.
    pub fn k(&self) -> usize {
        self.mins.len()
    }

    /// Whether no element has been added.
    pub fn is_empty(&self) -> bool {
        self.mins.iter().all(|&m| m == u64::MAX)
    }

    /// The per-function minima.
    pub fn mins(&self) -> &[u64] {
        &self.mins
    }

    /// Add one element.
    pub fn insert(&mut self, family: &MinHashFamily, id: u64) {
        assert_eq!(family.k(), self.k(), "family/sketch K mismatch");
        family.update_mins(id, &mut self.mins);
    }

    /// Add one element — identical to [`Sketch::insert`], named for the
    /// streaming hot path: updating K minima in place touches no
    /// allocator, unlike what the container-flavoured name `insert`
    /// suggests (which the `no-alloc-hot-path` lint rule flags on sight).
    pub fn observe(&mut self, family: &MinHashFamily, id: u64) {
        assert_eq!(family.k(), self.k(), "family/sketch K mismatch");
        family.update_mins(id, &mut self.mins);
    }

    /// Add a batch of elements — exactly equivalent to calling
    /// [`Sketch::observe`] once per id (in any order), but routed through
    /// the family's chunked kernel so a whole basic window folds into the
    /// sketch in one pass over the coefficient table.
    pub fn observe_batch(&mut self, family: &MinHashFamily, ids: &[u64]) {
        assert_eq!(family.k(), self.k(), "family/sketch K mismatch");
        family.update_mins_batch(ids, &mut self.mins);
    }

    /// [`Sketch::observe_batch`] through a [`crate::HashColumnCache`]:
    /// bit-identical minima, but ids seen recently fold their cached
    /// hash column in one element-wise pass instead of re-evaluating
    /// the family. This is the streaming window fold — adjacent key
    /// frames usually repeat their cell id.
    pub fn observe_batch_cached(
        &mut self,
        family: &MinHashFamily,
        cache: &mut crate::HashColumnCache,
        ids: &[u64],
    ) {
        assert_eq!(family.k(), self.k(), "family/sketch K mismatch");
        for &id in ids {
            cache.fold_min(family, id, &mut self.mins);
        }
    }

    /// Combine with another sketch in place (paper Property 1): the result
    /// is the sketch of the union of the two underlying sets.
    pub fn combine(&mut self, other: &Sketch) {
        assert_eq!(self.k(), other.k(), "sketch K mismatch");
        for (a, &b) in self.mins.iter_mut().zip(&other.mins) {
            if b < *a {
                *a = b;
            }
        }
    }

    /// The combination of two sketches, non-destructively.
    pub fn combined(&self, other: &Sketch) -> Sketch {
        let mut out = self.clone();
        out.combine(other);
        out
    }

    /// Number of positions where the two sketches agree. This is the
    /// `C_comp` hot loop of the "Sketch" representation in the paper's
    /// cost analysis (Section IV-B).
    pub fn equal_count(&self, other: &Sketch) -> usize {
        assert_eq!(self.k(), other.k(), "sketch K mismatch");
        self.mins.iter().zip(&other.mins).filter(|(a, b)| a == b).count()
    }

    /// Estimated Jaccard similarity: `equal_count / K` (paper Eq. 3).
    pub fn estimate_similarity(&self, other: &Sketch) -> f64 {
        self.equal_count(other) as f64 / self.k() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::jaccard;

    fn family(k: usize) -> MinHashFamily {
        MinHashFamily::new(k, 42)
    }

    fn set_a() -> Vec<u64> {
        (0..200u64).map(|i| i * 7 + 1).collect()
    }

    fn set_b() -> Vec<u64> {
        // Overlaps set_a in half its elements.
        (0..200u64).map(|i| if i % 2 == 0 { i * 7 + 1 } else { i * 7 + 1_000_003 }).collect()
    }

    #[test]
    fn identical_sets_have_similarity_one() {
        let f = family(128);
        let a = Sketch::from_ids(&f, set_a());
        let b = Sketch::from_ids(&f, set_a());
        assert_eq!(a.estimate_similarity(&b), 1.0);
    }

    #[test]
    fn disjoint_sets_have_similarity_near_zero() {
        let f = family(256);
        let a = Sketch::from_ids(&f, 0..100u64);
        let b = Sketch::from_ids(&f, (0..100u64).map(|i| i + 1_000_000));
        assert!(a.estimate_similarity(&b) < 0.05);
    }

    #[test]
    fn estimate_tracks_exact_jaccard() {
        let f = family(2048);
        let (va, vb) = (set_a(), set_b());
        let exact = jaccard(va.iter().copied(), vb.iter().copied());
        let est = Sketch::from_ids(&f, va).estimate_similarity(&Sketch::from_ids(&f, vb));
        assert!(
            (est - exact).abs() < 0.05,
            "estimate {est} too far from exact {exact} at K=2048"
        );
    }

    #[test]
    fn estimate_variance_shrinks_with_k() {
        let (va, vb) = (set_a(), set_b());
        let exact = jaccard(va.iter().copied(), vb.iter().copied());
        let err_at = |k: usize, seed: u64| {
            let f = MinHashFamily::new(k, seed);
            let est = Sketch::from_ids(&f, va.clone())
                .estimate_similarity(&Sketch::from_ids(&f, vb.clone()));
            (est - exact).abs()
        };
        let mean_err_small: f64 = (0..8).map(|s| err_at(32, s)).sum::<f64>() / 8.0;
        let mean_err_large: f64 = (0..8).map(|s| err_at(2048, s)).sum::<f64>() / 8.0;
        assert!(
            mean_err_large < mean_err_small,
            "K=2048 err {mean_err_large} not below K=32 err {mean_err_small}"
        );
    }

    #[test]
    fn combine_equals_sketch_of_union() {
        // Property 1, exactly (not approximately).
        let f = family(512);
        let a: Vec<u64> = (0..50).collect();
        let b: Vec<u64> = (30..90).collect();
        let mut sa = Sketch::from_ids(&f, a.iter().copied());
        let sb = Sketch::from_ids(&f, b.iter().copied());
        sa.combine(&sb);
        let union = Sketch::from_ids(&f, a.into_iter().chain(b));
        assert_eq!(sa, union);
    }

    #[test]
    fn combine_is_commutative_associative_idempotent() {
        let f = family(64);
        let s1 = Sketch::from_ids(&f, 0..10u64);
        let s2 = Sketch::from_ids(&f, 5..20u64);
        let s3 = Sketch::from_ids(&f, 100..120u64);
        assert_eq!(s1.combined(&s2), s2.combined(&s1));
        assert_eq!(s1.combined(&s2).combined(&s3), s1.combined(&s2.combined(&s3)));
        assert_eq!(s1.combined(&s1), s1);
    }

    #[test]
    fn empty_sketch_is_identity_for_combine() {
        let f = family(64);
        let s = Sketch::from_ids(&f, 3..30u64);
        assert_eq!(s.combined(&Sketch::empty(64)), s);
        assert!(Sketch::empty(64).is_empty());
        assert!(!s.is_empty());
    }

    #[test]
    fn observe_batch_matches_sequential_observes() {
        // Exercise every chunk shape: empty, sub-chunk remainder, exactly
        // one chunk, chunk + remainder, multiple chunks.
        let f = family(97);
        for n in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 40] {
            let ids: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9) ^ 0xabcd).collect();
            let mut batched = Sketch::empty(97);
            batched.observe_batch(&f, &ids);
            let mut seq = Sketch::empty(97);
            for &id in &ids {
                seq.observe(&f, id);
            }
            assert_eq!(batched, seq, "batch/sequential divergence at n={n}");
        }
    }

    proptest::proptest! {
        /// `from_ids` sorts, drops repeats and hashes in chunks of eight;
        /// its definition is the per-id `update_mins` fold over the
        /// multiset as given. Sizes sit on every side of the chunk width,
        /// and a small alphabet makes most ids repeats.
        #[test]
        fn from_ids_equals_the_per_id_fold(
            alphabet in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..40),
            picks in proptest::collection::vec(0usize..1000, 300..301),
        ) {
            let f = family(61);
            for n in [0usize, 1, 7, 8, 9, 300] {
                let ids: Vec<u64> = picks[..n].iter().map(|p| alphabet[p % alphabet.len()]).collect();
                let mut fold = vec![u64::MAX; 61];
                for &id in &ids {
                    f.update_mins(id, &mut fold);
                }
                proptest::prop_assert_eq!(Sketch::from_ids(&f, ids).mins(), &fold[..], "n={}", n);
            }
        }
    }

    #[test]
    fn insert_incrementally_matches_from_ids() {
        let f = family(128);
        let mut s = Sketch::empty(128);
        for id in set_a() {
            s.insert(&f, id);
        }
        assert_eq!(s, Sketch::from_ids(&f, set_a()));
    }

    #[test]
    fn reset_and_copy_from_reuse_the_buffer() {
        let f = family(64);
        let mut s = Sketch::from_ids(&f, 0..40u64);
        s.reset(64);
        assert_eq!(s, Sketch::empty(64));
        // Growing from the detached default works too.
        let mut d = Sketch::default();
        d.reset(64);
        assert_eq!(d, Sketch::empty(64));
        let src = Sketch::from_ids(&f, 5..25u64);
        d.copy_from(&src);
        assert_eq!(d, src);
        // And shrinking to a smaller K.
        d.reset(16);
        assert_eq!(d, Sketch::empty(16));
    }

    #[test]
    #[should_panic(expected = "K mismatch")]
    fn mismatched_k_panics() {
        let f = family(8);
        let a = Sketch::from_ids(&f, 0..4u64);
        let b = Sketch::empty(16);
        let _ = a.equal_count(&b);
    }
}
