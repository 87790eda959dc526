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
//!
//! The discriminator-plane kernel (`encode_counts_from_planes`) has the
//! value-slice kernel (`encode_counts_from_mins`) as its reference: same
//! words, same counts, for `k` on every side of a plane word (4 pairs)
//! and a plane block (32), over columns chosen to land on each of its
//! paths — discriminators that decide, that tie over equal values, that
//! tie over values differing either way, and that saturate.

use proptest::prelude::*;
use vdsms_core::bitsig::{discriminator, plane_words, push_plane};
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

const PLANE_KS: &[usize] = &[1, 3, 4, 5, 31, 32, 33, 100, 800];

/// Values a real family produces lie below this (`2^61 − 1` is its
/// modulus); `Sketch::from_mins` accepts any `u64`.
const REAL: u64 = 1 << 61;

/// Everything below a discriminator.
const LOW: u64 = (1 << 46) - 1;

/// Two `k`-columns cut from raw draws, shaped to take the plane kernel
/// down one of its paths.
fn columns(shape: usize, k: usize, raw: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let (a, b) = (&raw[..k], &raw[POOL..POOL + k]);
    let pair = |f: &dyn Fn(u64, u64) -> (u64, u64)| a.iter().zip(b).map(|(&x, &y)| f(x, y)).unzip();
    match shape {
        // Any `u64`: seven in eight are at or above 2^61, where the
        // discriminator has saturated and every pair is a tie.
        0 => pair(&|x, y| (x, y)),
        // What a family produces: nearly every pair decided by the plane.
        1 => pair(&|x, y| (x % REAL, y % REAL)),
        // All-equal columns: every discriminator ties, every value too.
        2 => pair(&|x, _| (x % REAL, x % REAL)),
        // Every discriminator ties and the values differ, either way.
        3 => pair(&|x, y| (x % REAL, (x % REAL) & !LOW | y & LOW)),
        // Empty-sketch values on either side, against real ones.
        4 => pair(&|x, y| {
            (
                if x & 1 == 0 { u64::MAX } else { x % REAL },
                if y & 2 == 0 { u64::MAX } else { y % REAL },
            )
        }),
        // A handful of small values: one discriminator, many equalities.
        _ => pair(&|x, y| (x % 6, y % 6)),
    }
}

/// The plane kernel equals the value-slice kernel in words and counts,
/// into a buffer that held a signature of another `K`, and again into the
/// same buffer once it holds one of this `K`.
fn check_plane_kernel(c: &[u64], q: &[u64]) {
    let k = c.len();
    let (mut cp, mut qp) = (Vec::new(), Vec::new());
    push_plane(c, &mut cp);
    push_plane(q, &mut qp);
    assert_eq!((cp.len(), qp.len()), (plane_words(k), plane_words(k)));

    let mut want = BitSig::default();
    let want_counts = want.encode_counts_from_mins(c, q);
    let mut sig = reference_sig(&vec![0; k + 40], &vec![1; k + 40]); // all `<`, wrong size
    assert_eq!(sig.encode_counts_from_planes(c, &cp, q, &qp), want_counts);
    assert_eq!(&sig, &want);
    assert_eq!(want_counts, reference_counts(c, q));

    // The other way round, over the signature just written.
    let want_counts = want.encode_counts_from_mins(q, c);
    assert_eq!(sig.encode_counts_from_planes(q, &qp, c, &cp), want_counts);
    assert_eq!(&sig, &want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn plane_kernel_matches_the_value_kernel(
        sel in 0usize..9,
        shape in 0usize..6,
        raw in proptest::collection::vec(any::<u64>(), 2 * POOL..2 * POOL + 1),
    ) {
        let (c, q) = columns(shape, PLANE_KS[sel], &raw);
        check_plane_kernel(&c, &q);
    }

    /// What the plane kernel's exactness rests on: the discriminator never
    /// decreases as its value grows, over all of `u64`, and leaves the top
    /// bit of its 16-bit lane clear.
    #[test]
    fn discriminator_is_monotone_over_every_u64(a in any::<u64>(), b in any::<u64>(), shift in 0u32..64) {
        // Full-width draws, and draws scaled down to where real values live.
        for (x, y) in [(a, b), (a >> shift, b >> shift), (a >> shift, (a >> shift).wrapping_add(b >> 60))] {
            let (lo, hi) = (x.min(y), x.max(y));
            prop_assert!(discriminator(lo) <= discriminator(hi), "{:#x} vs {:#x}", lo, hi);
            prop_assert!(discriminator(hi) < 0x8000);
        }
    }

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

/// The shapes above, one case of each at every `k`, so none depends on
/// what the property happened to draw; and the discriminator at the values
/// where it changes regime.
#[test]
fn plane_kernel_paths_at_every_k() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let raw: Vec<u64> = (0..2 * POOL)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    for &k in PLANE_KS {
        for shape in 0..6 {
            let (c, q) = columns(shape, k, &raw);
            check_plane_kernel(&c, &q);
        }
    }
    let edges =
        [0, 1, LOW, LOW + 1, REAL - 2, REAL - 1, REAL, REAL + 1, 1 << 63, u64::MAX - 1, u64::MAX];
    for pair in edges.windows(2) {
        assert!(discriminator(pair[0]) <= discriminator(pair[1]), "{pair:x?}");
    }
    assert_eq!((discriminator(LOW), discriminator(LOW + 1)), (0, 1));
    assert_eq!((discriminator(REAL - 1), discriminator(u64::MAX)), (0x7FFF, 0x7FFF));
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
