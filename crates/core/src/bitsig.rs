//! Bit-vector signatures (paper Definition 3, Lemmas 1 and 2).
//!
//! For each of the `K` hash functions, the relation between a candidate
//! sketch value and a query sketch value is one of `>`, `=`, `<`, encoded
//! in two bits:
//!
//! | relation | first bit (`A`) | second bit (`B`) |
//! |----------|-----------------|------------------|
//! | `>`      | 0               | 0                |
//! | `=`      | 0               | 1                |
//! | `<`      | 1               | 1                |
//!
//! (In the paper's 1-based bit numbering, `A` bits sit at odd positions and
//! `B` bits at even positions, so Lemma 1's "`n_1` ones at odd positions"
//! is our `A`-bit count and "`n_0` zeros at even positions" is the count of
//! clear `B` bits.)
//!
//! The point of the encoding: combining two candidate sequences takes the
//! element-wise *minimum* of their sketches (Property 1), and under this
//! encoding `min` of relations is exactly bitwise OR —
//! `min(>,=)==` ⇔ `00|01=01`, `min(=,<)=<` ⇔ `01|11=11`, and so on — so no
//! information about the relation to the query is ever lost (the encoding
//! is exact, not approximate).
//!
//! Lemma 1 recovers the similarity: `sim = n_eq / K = 1 − (n_gt + n_lt)/K`.
//! Lemma 2 gives the pruning rule: once `n_lt > K(1−δ)` the candidate can
//! never match the query again, because extensions only make sketch values
//! smaller.
//!
//! # The discriminator plane
//!
//! Encoding is the one place sketch *values* are compared, and a 64-bit
//! compare decides one pair at a time. Nearly every pair is decided by
//! the values' leading bits alone, so a sketch can carry a *plane* beside
//! its values: a 15-bit [`discriminator`] of each, four to a word, and
//! [`BitSig::encode_counts_from_planes`] compares four pairs per
//! subtraction and reads a full value only where two discriminators tie.
//! The discriminator is non-decreasing over all of `u64`, so unequal
//! discriminators order their values the same way and the signature is
//! the reference kernel's bit for bit.
//!
//! The plane is laid out for the signature word, not in sketch order. The
//! 32 pairs of one signature word are one *block* of eight plane words:
//! lane `i` (bits `16i..16i+15`) of the block's word `t` holds the
//! discriminator of pair `8i + t`. Pair `8i + t` lands at bit `2t` of the
//! signature word's `i`-th 16-bit quarter, so the four results of one
//! plane-word compare, shifted left by `2t`, are already in place — eight
//! compares OR into a finished word with no gather. A last block short of
//! 32 pairs keeps its eight words; the missing lanes are zero.

use vdsms_sketch::Sketch;

/// Mask selecting the `A` (first-of-pair) bits of each 2-bit relation.
const MASK_A: u64 = 0x5555_5555_5555_5555;

/// Pairs per signature word, and per plane block.
const BLOCK_PAIRS: usize = 32;

/// Plane words per block: four 16-bit lanes each.
const BLOCK_WORDS: usize = 8;

/// The top bit of each 16-bit lane — clear in every discriminator, so a
/// lane-wise subtraction can borrow from it instead of from its neighbour.
const LANE_TOP: u64 = 0x8000_8000_8000_8000;

/// The 15-bit discriminator of a min-hash value: its leading bits, as
/// far down as real values (below 2⁶¹) vary, saturated so that it is
/// non-decreasing over every `u64` — [`Sketch::from_mins`] accepts any,
/// and the empty sketch is all `u64::MAX`. That monotonicity is all the
/// plane kernel's exactness rests on: `d(a) < d(b)` implies `a < b`, and
/// `d(a) = d(b)` decides nothing.
#[inline]
pub fn discriminator(value: u64) -> u64 {
    (value >> 46).min(0x7FFF)
}

/// Words in the discriminator plane of a `k`-function sketch.
pub fn plane_words(k: usize) -> usize {
    k.div_ceil(BLOCK_PAIRS) * BLOCK_WORDS
}

/// One block of a plane, from up to 32 values in sketch order.
#[inline]
fn plane_block(values: &[u64]) -> [u64; BLOCK_WORDS] {
    let mut block = [0u64; BLOCK_WORDS];
    if let Ok(values) = <&[u64; BLOCK_PAIRS]>::try_from(values) {
        for (t, word) in block.iter_mut().enumerate() {
            *word = discriminator(values[t])
                | discriminator(values[BLOCK_WORDS + t]) << 16
                | discriminator(values[2 * BLOCK_WORDS + t]) << 32
                | discriminator(values[3 * BLOCK_WORDS + t]) << 48;
        }
    } else {
        for (j, &value) in values.iter().enumerate() {
            block[j % BLOCK_WORDS] |= discriminator(value) << (16 * (j / BLOCK_WORDS));
        }
    }
    block
}

/// Append the discriminator plane of `mins` to `out`: [`plane_words`]
/// words, a block at a time. The one writer of the layout the module
/// docs describe — the index's slab and a candidate's scratch both fill
/// through it.
pub fn push_plane(mins: &[u64], out: &mut Vec<u64>) {
    for values in mins.chunks(BLOCK_PAIRS) {
        out.extend_from_slice(&plane_block(values));
    }
}

/// Set bits of `fields`, a word whose 2-bit fields each hold 0 to 3:
/// what up to three one-bit-per-pair masks sum to. Folding the sum once
/// costs less than one `count_ones` where the target has no `popcnt`,
/// and it stands in for three.
#[inline]
fn fold_pair_fields(fields: u64) -> u32 {
    const NIBBLES: u64 = 0x3333_3333_3333_3333;
    let nibbles = (fields & NIBBLES) + ((fields >> 2) & NIBBLES);
    let bytes = (nibbles + (nibbles >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    (bytes.wrapping_mul(0x0101_0101_0101_0101) >> 56) as u32
}

/// The positions of a word's set bits, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        (self.0 != 0).then(|| {
            let bit = self.0.trailing_zeros();
            self.0 &= self.0 - 1;
            bit
        })
    }
}

/// A candidate sketch's discriminator plane, built by the first encode
/// that needs it and kept until the sketch changes — the scratch a
/// detector lends the catalogue's encoder, so a window encoded against
/// fifty queries derives its plane once and a window encoded against none
/// never does.
#[derive(Debug, Default)]
pub struct CandidatePlane {
    /// Empty until built: a built plane has at least one block.
    words: Vec<u64>,
}

impl CandidatePlane {
    /// Forget the plane: the sketch it was built from has changed.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// The plane of `mins`, built now if this is the first call since
    /// [`Self::clear`]. The caller passes the same sketch until then.
    pub fn of(&mut self, mins: &[u64]) -> &[u64] {
        if self.words.is_empty() {
            push_plane(mins, &mut self.words);
        }
        &self.words
    }
}

/// A packed 2K-bit relation signature between one candidate sequence and
/// one query. (`Default` yields a detached zero-`K` signature whose only
/// purpose is buffer pooling — call [`BitSig::reset_all_greater`] before
/// use.)
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BitSig {
    /// Packed relation pairs; pair `r` occupies bits `2r` (A) and `2r+1`
    /// (B) of word `r / 32`.
    words: Vec<u64>,
    /// Number of hash functions `K`.
    k: usize,
}

impl BitSig {
    /// An all-`>` signature (the relation of the empty candidate, whose
    /// sketch values are `u64::MAX`... i.e. conceptually above any query
    /// value). Mostly useful as an OR identity in tests.
    pub fn all_greater(k: usize) -> BitSig {
        assert!(k >= 1);
        BitSig { words: vec![0; k.div_ceil(32)], k }
    }

    /// Reset to the all-`>` signature for `k` functions, reusing the
    /// existing word buffer. After the first call with a given `k` this
    /// touches no allocator — the zero-alloc primitive behind the index
    /// probe's signature pool.
    pub fn reset_all_greater(&mut self, k: usize) {
        assert!(k >= 1);
        self.k = k;
        let words = k.div_ceil(32);
        if self.words.len() == words {
            self.words.fill(0);
        } else {
            self.words.clear();
            // vdsms-lint: allow(no-alloc-hot-path) reason="warm-up only: resizes once per K change, then the branch above reuses the buffer"
            self.words.resize(words, 0);
        }
    }

    /// Encode the relation between a candidate sketch and a query sketch
    /// (Definition 3). This is the only place sketch *values* are read;
    /// afterwards everything is bit operations.
    ///
    /// # Panics
    /// Panics if the sketches have different `K`.
    pub fn encode(candidate: &Sketch, query: &Sketch) -> BitSig {
        let mut sig = BitSig::default();
        sig.encode_into(candidate, query);
        sig
    }

    /// [`Self::encode`] into this signature's pooled word buffer:
    /// allocation-free once the buffer matches `K`. Each output word is
    /// built whole from its 32 relation pairs with the branch-free pair
    /// encoding (`A = c < q`, `B = c ≤ q`), then stored once — no
    /// per-relation read–modify–write.
    ///
    /// # Panics
    /// Panics if the sketches have different `K`.
    // vdsms-lint: entry
    pub fn encode_into(&mut self, candidate: &Sketch, query: &Sketch) {
        assert_eq!(candidate.k(), query.k(), "sketch K mismatch");
        self.encode_counts_from_mins(candidate.mins(), query.mins());
    }

    /// [`Self::encode_into`] from raw min-value slices, returning
    /// `(n_lt, n_eq)` of the fresh signature in the same pass — each
    /// word is built whole from its 32 relation pairs and popcounted
    /// while still in a register. This is the index probe's phase-2
    /// kernel: a related query's contiguous sketch column goes straight
    /// to a counted signature in one traversal.
    ///
    /// Pairs beyond `K` in the last word stay `>` (all-zero), so no tail
    /// mask is needed for the counts.
    ///
    /// # Panics
    /// Panics if the slices have different lengths or are empty.
    // vdsms-lint: entry
    pub fn encode_counts_from_mins(&mut self, candidate: &[u64], query: &[u64]) -> (usize, usize) {
        assert_eq!(candidate.len(), query.len(), "sketch K mismatch");
        self.reset_all_greater(candidate.len());
        let mut lt = 0u32;
        let mut eq = 0u32;
        let chunks = candidate.chunks(32).zip(query.chunks(32));
        for (w, (cc, qc)) in self.words.iter_mut().zip(chunks) {
            let mut word = 0u64;
            for (r, (&c, &q)) in cc.iter().zip(qc).enumerate() {
                let pair = u64::from(c < q) | (u64::from(c <= q) << 1);
                word |= pair << (2 * r);
            }
            *w = word;
            lt += (word & MASK_A).count_ones();
            eq += (!word & (word >> 1) & MASK_A).count_ones();
        }
        (lt as usize, eq as usize)
    }

    /// [`Self::encode_counts_from_mins`] for two sketches that carry
    /// their discriminator planes (see the module docs): the same words
    /// and the same `(n_lt, n_eq)`, from a quarter of the bytes.
    ///
    /// The first pass is the planes alone, with no branch in it: each
    /// plane word decides four pairs with two lane-wise subtractions — a
    /// discriminator's top lane bit is clear, so `(q | top) − c` keeps
    /// that bit exactly where `q ≥ c` and never borrows across lanes —
    /// and the block's layout drops the results at their signature bits.
    /// What the discriminators encode as `=` is a tie, not an equality:
    /// the second pass re-decides those pairs, and only those, from the
    /// full values. Against an unrelated query that is a pair in a few
    /// thousand and the query's value column is never touched; against a
    /// related one it is every pair the two share, and their loads — all
    /// known once the first pass is done — overlap instead of queueing
    /// behind the compares between them.
    ///
    /// The second pass also counts, summing the pairs' own 2-bit fields
    /// three words at a time and folding once per three.
    ///
    /// # Panics
    /// Panics if the value slices are empty or differ in length, or a
    /// plane is not [`plane_words`] of that length long.
    // vdsms-lint: entry
    pub fn encode_counts_from_planes(
        &mut self,
        candidate: &[u64],
        candidate_plane: &[u64],
        query: &[u64],
        query_plane: &[u64],
    ) -> (usize, usize) {
        let k = candidate.len();
        assert_eq!(k, query.len(), "sketch K mismatch");
        assert_eq!(candidate_plane.len(), plane_words(k), "candidate plane does not fit K");
        assert_eq!(query_plane.len(), plane_words(k), "query plane does not fit K");
        self.reset_all_greater(k);
        let tail = self.tail_mask();
        // What the discriminators say, a block to a word, branch-free.
        let blocks =
            candidate_plane.chunks_exact(BLOCK_WORDS).zip(query_plane.chunks_exact(BLOCK_WORDS));
        for (w, (cb, qb)) in self.words.iter_mut().zip(blocks) {
            let mut word = 0u64;
            for (t, (&c, &q)) in cb.iter().zip(qb).enumerate() {
                let le = ((q | LANE_TOP) - c) & LANE_TOP;
                let ge = ((c | LANE_TOP) - q) & LANE_TOP;
                word |= ((!ge & LANE_TOP) >> 15 | le >> 14) << (2 * t);
            }
            *w = word;
        }
        if let Some(w) = self.words.last_mut() {
            *w &= tail;
        }
        // The ties, from the values, and the counts.
        let mut lt = 0u32;
        let mut eq = 0u32;
        for (g, words) in self.words.chunks_mut(3).enumerate() {
            let (mut lt_fields, mut eq_fields) = (0u64, 0u64);
            for (j, w) in words.iter_mut().enumerate() {
                let mut word = *w;
                for bit in SetBits(!word & (word >> 1) & MASK_A) {
                    let r = (3 * g + j) * BLOCK_PAIRS + bit as usize / 2;
                    let (c, q) = (candidate[r], query[r]);
                    let pair = u64::from(c < q) | (u64::from(c <= q) << 1);
                    word = word & !(0b11 << bit) | pair << bit;
                }
                *w = word;
                lt_fields += word & MASK_A;
                eq_fields += !word & (word >> 1) & MASK_A;
            }
            lt += fold_pair_fields(lt_fields);
            eq += fold_pair_fields(eq_fields);
        }
        (lt as usize, eq as usize)
    }

    /// Overwrite with a copy of `other`, reusing this signature's word
    /// buffer (unlike `clone`, no heap traffic once it has held a
    /// signature of the same `K`).
    pub fn copy_from(&mut self, other: &BitSig) {
        self.k = other.k;
        self.words.clear();
        self.words.extend_from_slice(&other.words);
    }

    /// Number of hash functions `K`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Combine with the signature of an adjacent candidate sequence
    /// (relative to the *same* query): bitwise OR, equivalent to the `min`
    /// of the underlying sketches (Property 1 + Definition 3).
    ///
    /// # Panics
    /// Panics if `K` differs.
    #[inline]
    pub fn or_with(&mut self, other: &BitSig) {
        assert_eq!(self.k, other.k, "bit signature K mismatch");
        for (a, &b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// The valid-pair mask of the final word: all ones when `K` fills it,
    /// otherwise the low `2(K mod 32)` bits. Hoisted out of the word
    /// loops so the per-word kernel is branch-free.
    #[inline]
    fn tail_mask(&self) -> u64 {
        if self.k.is_multiple_of(32) {
            u64::MAX
        } else {
            (1u64 << (2 * (self.k % 32))) - 1
        }
    }

    /// Number of `<` relations (`n_1` of Lemma 1: candidate min-hash value
    /// smaller than the query's).
    #[inline]
    pub fn count_less(&self) -> usize {
        self.words.iter().map(|&w| (w & MASK_A).count_ones() as usize).sum()
    }

    /// Number of `=` relations (`K − n_0 − n_1` of Lemma 1).
    #[inline]
    pub fn count_equal(&self) -> usize {
        self.counts().1
    }

    /// `(n_lt, n_eq)` in one pass over the words: two AND/popcount lanes
    /// per word, with the partial-last-word mask applied once outside
    /// the loop. Everything Lemma 1 and Lemma 2 need, at the cost of a
    /// single traversal.
    #[inline]
    // vdsms-lint: entry
    pub fn counts(&self) -> (usize, usize) {
        let Some((&last, body)) = self.words.split_last() else { return (0, 0) };
        let mut lt = 0u32;
        let mut eq = 0u32;
        for &w in body {
            lt += (w & MASK_A).count_ones();
            eq += (!w & (w >> 1) & MASK_A).count_ones();
        }
        lt += (last & MASK_A).count_ones();
        eq += (!last & (last >> 1) & MASK_A & self.tail_mask()).count_ones();
        (lt as usize, eq as usize)
    }

    /// Fused [`Self::or_with`] + [`Self::counts`]: merge an adjacent
    /// candidate's signature and report `(n_lt, n_eq)` of the result in
    /// the same single pass, so the extend path of the Bit
    /// representation reads every word once instead of three times. The
    /// two one-bit-per-pair masks of each word are summed in place, three
    /// words at a time, and each sum folded once (`fold_pair_fields`).
    ///
    /// # Panics
    /// Panics if `K` differs.
    #[inline]
    // vdsms-lint: entry
    pub fn or_with_counts(&mut self, other: &BitSig) -> (usize, usize) {
        assert_eq!(self.k, other.k, "bit signature K mismatch");
        let tail = self.tail_mask();
        let (Some((last, body)), Some((&olast, obody))) =
            (self.words.split_last_mut(), other.words.split_last())
        else {
            return (0, 0);
        };
        let mut lt = 0u32;
        let mut eq = 0u32;
        for (ours, theirs) in body.chunks_mut(3).zip(obody.chunks(3)) {
            let (mut lt_fields, mut eq_fields) = (0u64, 0u64);
            for (a, &b) in ours.iter_mut().zip(theirs) {
                let w = *a | b;
                *a = w;
                lt_fields += w & MASK_A;
                eq_fields += !w & (w >> 1) & MASK_A;
            }
            lt += fold_pair_fields(lt_fields);
            eq += fold_pair_fields(eq_fields);
        }
        let w = *last | olast;
        *last = w;
        lt += fold_pair_fields(w & MASK_A);
        eq += fold_pair_fields(!w & (w >> 1) & MASK_A & tail);
        (lt as usize, eq as usize)
    }

    /// Estimated similarity to the query (Lemma 1): `n_eq / K`.
    #[inline]
    pub fn similarity(&self) -> f64 {
        self.similarity_from_count(self.count_equal())
    }

    /// [`Self::similarity`] from an `n_eq` already produced by
    /// [`Self::counts`] / [`Self::or_with_counts`] — no re-traversal.
    #[inline]
    pub fn similarity_from_count(&self, n_eq: usize) -> f64 {
        n_eq as f64 / self.k as f64
    }

    /// Lemma 2 pruning test: `true` when `n_lt > K(1−δ)`, i.e. no extension
    /// of this candidate can ever reach similarity `δ` against this query.
    #[inline]
    pub fn violates_lemma2(&self, delta: f64) -> bool {
        self.lemma2_from_count(self.count_less(), delta)
    }

    /// [`Self::violates_lemma2`] from an `n_lt` already produced by
    /// [`Self::counts`] / [`Self::or_with_counts`] — no re-traversal.
    #[inline]
    pub fn lemma2_from_count(&self, n_less: usize, delta: f64) -> bool {
        n_less as f64 > self.k as f64 * (1.0 - delta)
    }

    /// Heap bytes used by this signature (2K bits, as the paper counts).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u64>()
    }

    /// Set the relation of pair `r` directly — the per-pair reference the
    /// word kernels are tested against. Branch-free: the pair is
    /// computed as `A = c < q`, `B = c ≤ q` — exactly the Definition 3
    /// encoding — with no comparison match.
    #[inline]
    pub fn set_relation(&mut self, r: usize, candidate_value: u64, query_value: u64) {
        debug_assert!(r < self.k);
        let pair = u64::from(candidate_value < query_value)
            | (u64::from(candidate_value <= query_value) << 1);
        let shift = 2 * (r % 32);
        let word = &mut self.words[r / 32];
        *word = (*word & !(0b11 << shift)) | (pair << shift);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdsms_sketch::MinHashFamily;

    fn sk(family: &MinHashFamily, ids: std::ops::Range<u64>) -> Sketch {
        Sketch::from_ids(family, ids)
    }

    #[test]
    fn encode_matches_direct_sketch_comparison_exactly() {
        // Definition 3 is lossless: similarity from the bit signature must
        // equal the sketch-level estimate bit for bit.
        let fam = MinHashFamily::new(100, 1);
        let q = sk(&fam, 0..50);
        let c = sk(&fam, 25..75);
        let sig = BitSig::encode(&c, &q);
        assert_eq!(sig.count_equal(), c.equal_count(&q));
        assert!((sig.similarity() - c.estimate_similarity(&q)).abs() < 1e-12);
    }

    #[test]
    fn identical_sketches_are_all_equal() {
        let fam = MinHashFamily::new(64, 2);
        let q = sk(&fam, 0..30);
        let sig = BitSig::encode(&q.clone(), &q);
        assert_eq!(sig.count_equal(), 64);
        assert_eq!(sig.count_less(), 0);
        assert_eq!(sig.similarity(), 1.0);
    }

    #[test]
    fn or_equals_encode_of_combined_sketch() {
        // The heart of Section V-A: OR of two signatures == signature of
        // the combined (element-min) sketch. Exact equality, all K.
        for k in [7usize, 32, 33, 100, 800] {
            let fam = MinHashFamily::new(k, 3);
            let q = sk(&fam, 0..40);
            let a = sk(&fam, 10..30);
            let b = sk(&fam, 35..60);
            let mut ored = BitSig::encode(&a, &q);
            ored.or_with(&BitSig::encode(&b, &q));
            let direct = BitSig::encode(&a.combined(&b), &q);
            assert_eq!(ored, direct, "OR-combine diverged at K={k}");
        }
    }

    #[test]
    fn count_equal_respects_partial_last_word() {
        // K=33 leaves 31 unused pairs in word 1; they must not be counted.
        let fam = MinHashFamily::new(33, 5);
        let q = sk(&fam, 0..10);
        let sig = BitSig::encode(&q.clone(), &q);
        assert_eq!(sig.count_equal(), 33);
    }

    #[test]
    fn lemma2_threshold_boundary() {
        // Build a signature with exactly n_lt "<" relations and check the
        // strict inequality of Lemma 2.
        let k = 10;
        let delta = 0.7; // K(1-δ) = 3
        let mut sig = BitSig::all_greater(k);
        for r in 0..3 {
            sig.set_relation(r, 50, 100); // "<"
        }
        assert!(!sig.violates_lemma2(delta), "n_lt = 3 = K(1-δ) must NOT prune");
        sig.set_relation(3, 50, 100);
        assert!(sig.violates_lemma2(delta), "n_lt = 4 > 3 must prune");
    }

    #[test]
    fn lemma2_is_monotone_under_or() {
        // Once violated, OR-ing further signatures can never un-violate:
        // "<" pairs (11) are absorbing under OR.
        let fam = MinHashFamily::new(50, 7);
        let q = sk(&fam, 1000..1100);
        let far = sk(&fam, 0..200); // lots of smaller hash values
        let mut sig = BitSig::encode(&far, &q);
        let was = sig.count_less();
        sig.or_with(&BitSig::encode(&sk(&fam, 500..600), &q));
        assert!(sig.count_less() >= was, "n_lt must be monotone under OR");
    }

    #[test]
    fn set_relation_matches_encode() {
        let fam = MinHashFamily::new(40, 9);
        let q = sk(&fam, 0..25);
        let c = sk(&fam, 5..45);
        let direct = BitSig::encode(&c, &q);
        let mut manual = BitSig::all_greater(40);
        for r in 0..40 {
            manual.set_relation(r, c.mins()[r], q.mins()[r]);
        }
        assert_eq!(manual, direct);
    }

    #[test]
    fn all_greater_is_or_identity() {
        let fam = MinHashFamily::new(16, 11);
        let q = sk(&fam, 0..8);
        let c = sk(&fam, 2..12);
        let sig = BitSig::encode(&c, &q);
        let mut ident = BitSig::all_greater(16);
        ident.or_with(&sig);
        assert_eq!(ident, sig);
    }

    #[test]
    fn heap_bytes_is_2k_bits_rounded_to_words() {
        assert_eq!(BitSig::all_greater(800).heap_bytes(), 800 / 32 * 8); // 200 bytes
        assert_eq!(BitSig::all_greater(33).heap_bytes(), 16);
    }

    #[test]
    fn counts_are_consistent() {
        let fam = MinHashFamily::new(333, 13);
        let q = sk(&fam, 0..100);
        let c = sk(&fam, 50..160);
        let sig = BitSig::encode(&c, &q);
        let n_lt = sig.count_less();
        let n_eq = sig.count_equal();
        // Count ">" directly from the sketches.
        let n_gt = c.mins().iter().zip(q.mins()).filter(|(a, b)| a > b).count();
        assert_eq!(n_lt + n_eq + n_gt, 333);
    }
}
