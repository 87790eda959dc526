//! Property tests pinning the BitSig word kernels to the per-relation
//! reference path.
//!
//! The hot path builds and merges signatures a `u64` lane (32 relation
//! pairs) at a time: `encode_into` writes whole words, and
//! `counts`/`or_with_counts` classify all 32 pairs of a word with three
//! bitwise ops. The slow path — `set_relation` on one pair at a time
//! plus `count_less`/`count_equal` — is the semantic reference. These
//! properties hold the two exactly equal across the word-boundary zoo
//! `k ∈ {1, 31, 32, 33, 64, 800}`: below, on, and above a lane edge,
//! plus the engine's default `K` (a whole number of lanes, so the tail
//! mask is all-ones).

use proptest::prelude::*;
use vdsms_core::BitSig;
use vdsms_sketch::Sketch;

const K_EDGE_CASES: &[usize] = &[1, 31, 32, 33, 64, 800];

/// Build a signature one relation at a time — the reference encoder.
fn reference_sig(candidate: &[u64], query: &[u64]) -> BitSig {
    let mut sig = BitSig::all_greater(candidate.len());
    for (r, (&c, &q)) in candidate.iter().zip(query).enumerate() {
        sig.set_relation(r, c, q);
    }
    sig
}

/// Count relations straight off the values — the reference counter.
fn reference_counts(candidate: &[u64], query: &[u64]) -> (usize, usize) {
    let n_less = candidate.iter().zip(query).filter(|(c, q)| c < q).count();
    let n_eq = candidate.iter().zip(query).filter(|(c, q)| c == q).count();
    (n_less, n_eq)
}

/// A shared pool of min values; each case slices three `k`-length
/// vectors out of it. Small value ranges make every relation (and plenty
/// of ties) likely. `k` is drawn as an index into [`K_EDGE_CASES`].
const POOL: usize = 800;

fn slices(data: &[u64], k: usize) -> (&[u64], &[u64], &[u64]) {
    (&data[..k], &data[POOL..POOL + k], &data[2 * POOL..2 * POOL + k])
}

/// Word-building `encode`/`encode_into` equals per-relation
/// `set_relation`, and the single-pass `counts` kernel equals counting
/// the raw values — including the masked tail word.
fn check_encode_and_counts(k: usize, c: &[u64], q: &[u64]) {
    let cs = Sketch::from_mins(c.to_vec());
    let qs = Sketch::from_mins(q.to_vec());
    let sig = BitSig::encode(&cs, &qs);
    assert_eq!(&sig, &reference_sig(c, q));
    assert_eq!(sig.k(), k);

    let (n_less, n_eq) = reference_counts(c, q);
    assert_eq!(sig.counts(), (n_less, n_eq));
    assert_eq!(sig.count_less(), n_less);
    assert_eq!(sig.count_equal(), n_eq);

    // encode_into reuses a dirty signature; it must fully overwrite.
    let mut reused = reference_sig(q, c); // deliberately different contents
    reused.encode_into(&cs, &qs);
    assert_eq!(&reused, &sig);
}

/// The fused merge+count kernel equals merge-then-count, and the derived
/// predicates agree with their count-free entry points.
fn check_or_with_counts(c: &[u64], q: &[u64], c2: &[u64]) {
    let qs = Sketch::from_mins(q.to_vec());
    let a = BitSig::encode(&Sketch::from_mins(c.to_vec()), &qs);
    let b = BitSig::encode(&Sketch::from_mins(c2.to_vec()), &qs);

    let mut fused = a.clone();
    let (n_less, n_eq) = fused.or_with_counts(&b);

    let mut twopass = a.clone();
    twopass.or_with(&b);
    assert_eq!(&fused, &twopass);
    assert_eq!((n_less, n_eq), twopass.counts());

    assert_eq!(fused.similarity_from_count(n_eq), twopass.similarity());
    for delta in [0.0, 0.3, 0.7, 1.0] {
        assert_eq!(fused.lemma2_from_count(n_less, delta), twopass.violates_lemma2(delta));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn encode_and_counts_match_reference(
        sel in 0usize..6,
        data in proptest::collection::vec(0u64..6, 3 * POOL..3 * POOL + 1),
    ) {
        let (c, q, _) = slices(&data, K_EDGE_CASES[sel]);
        check_encode_and_counts(K_EDGE_CASES[sel], c, q);
    }

    #[test]
    fn or_with_counts_matches_merge_then_count(
        sel in 0usize..6,
        data in proptest::collection::vec(0u64..6, 3 * POOL..3 * POOL + 1),
    ) {
        let (c, q, c2) = slices(&data, K_EDGE_CASES[sel]);
        check_or_with_counts(c, q, c2);
    }
}

/// Tail-mask edge pinned explicitly: at `k = 33` the last word holds one
/// pair; an all-less signature must count exactly 33 (not 64-worth of
/// set bits), and at `k = 32`/`800` (whole lanes) the mask is all-ones.
#[test]
fn tail_mask_counts_exact_k() {
    for &k in K_EDGE_CASES {
        let c = vec![0u64; k];
        let q = vec![1u64; k]; // candidate < query everywhere
        let sig = BitSig::encode(&Sketch::from_mins(c), &Sketch::from_mins(q));
        assert_eq!(sig.counts(), (k, 0), "all-less counts at k={k}");
        assert_eq!(sig.similarity(), 0.0);

        let e = vec![2u64; k];
        let sig = BitSig::encode(&Sketch::from_mins(e.clone()), &Sketch::from_mins(e));
        assert_eq!(sig.counts(), (0, k), "all-equal counts at k={k}");
        assert_eq!(sig.similarity(), 1.0);
    }
}
