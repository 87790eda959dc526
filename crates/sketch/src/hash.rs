//! The approximate min-wise hash family.
//!
//! Exact min-wise independent families are impractically large (the paper
//! cites Broder et al.); like the paper we use an *approximately* min-wise
//! family: `K` independent universal hash functions
//! `π_i(x) = (a_i·x + b_i) mod p` with `p = 2^61 − 1` (a Mersenne prime, so
//! the reduction is two shifts and an add), `a_i ∈ [1, p)`, `b_i ∈ [0, p)`
//! drawn from a seeded RNG. Pairwise-independent linear congruential
//! families of this form have min-wise error `O(1/√p)`, far below sketch
//! sampling noise at any practical `K`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `p = 2^61 − 1`, the Mersenne prime modulus.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Multiply-add modulo `2^61 − 1` using the Mersenne fold.
#[inline]
fn mul_add_mod(a: u64, x: u64, b: u64) -> u64 {
    let t = u128::from(a) * u128::from(x) + u128::from(b);
    // Fold twice: t = hi*2^61 + lo ≡ hi + lo (mod p).
    let folded = (t & u128::from(MERSENNE_P)) + (t >> 61);
    let folded = (folded & u128::from(MERSENNE_P)) + (folded >> 61);
    let r = folded as u64;
    if r >= MERSENNE_P {
        r - MERSENNE_P
    } else {
        r
    }
}

/// A family of `K` independent hash functions used for min-hash sketching.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinHashFamily {
    /// `(a_i, b_i)` coefficient pairs.
    coeffs: Vec<(u64, u64)>,
}

impl MinHashFamily {
    /// Create a family of `k` functions from a seed. The same `(k, seed)`
    /// always yields the same family — queries sketched offline stay
    /// comparable with windows sketched online.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, seed: u64) -> MinHashFamily {
        assert!(k >= 1, "need at least one hash function");
        let mut rng = StdRng::seed_from_u64(seed);
        let coeffs = (0..k)
            .map(|_| (rng.gen_range(1..MERSENNE_P), rng.gen_range(0..MERSENNE_P)))
            .collect();
        MinHashFamily { coeffs }
    }

    /// Number of hash functions `K`.
    pub fn k(&self) -> usize {
        self.coeffs.len()
    }

    /// Value of the `i`-th function on `x`.
    ///
    /// `x` is pre-mixed with a 64-bit finalizer so that near-identical cell
    /// ids (which differ only in their pyramid order) spread over the whole
    /// domain before the linear hash.
    #[inline]
    pub fn hash(&self, i: usize, x: u64) -> u64 {
        let (a, b) = self.coeffs[i];
        mul_add_mod(a, mix64(x) % MERSENNE_P, b)
    }

    /// Evaluate every function on `x` into `out` (length `K`), keeping the
    /// element-wise minimum. This is the sketch-update inner loop.
    #[inline]
    pub fn update_mins(&self, x: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.coeffs.len());
        let mixed = mix64(x) % MERSENNE_P;
        for ((a, b), slot) in self.coeffs.iter().zip(out.iter_mut()) {
            let h = mul_add_mod(*a, mixed, *b);
            *slot = h.min(*slot);
        }
    }

    /// Evaluate every function on `x` into `out` (length `K`),
    /// overwriting — the raw hash *column*, not a min fold. Backs the
    /// [`crate::HashColumnCache`]: a stored column min-folds into a
    /// sketch with one element-wise pass instead of `K` Mersenne
    /// multiply-folds.
    // vdsms-lint: entry
    pub fn fill_column(&self, x: u64, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.coeffs.len());
        let mixed = mix64(x) % MERSENNE_P;
        for ((a, b), slot) in self.coeffs.iter().zip(out.iter_mut()) {
            *slot = mul_add_mod(*a, mixed, *b);
        }
    }

    /// Evaluate every function on each element of `xs`, folding the minima
    /// into `out` (length `K`). Equivalent to one [`Self::update_mins`]
    /// call per element — `min` is commutative and associative, so the
    /// resulting minima are bit-identical — but makes one pass over the
    /// coefficient table per 8-element chunk instead of per element: each
    /// `(a_i, b_i)` pair is loaded once and the chunk's eight hash
    /// evaluations are independent, so the Mersenne folds pipeline instead
    /// of serialising on the `out` stream. This is the per-window
    /// sketching kernel (`w` key-frame ids folded in one sweep).
    // vdsms-lint: entry
    pub fn update_mins_batch(&self, xs: &[u64], out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.coeffs.len());
        let mut chunks = xs.chunks_exact(8);
        for chunk in &mut chunks {
            let mut mixed = [0u64; 8];
            for (m, &x) in mixed.iter_mut().zip(chunk) {
                *m = mix64(x) % MERSENNE_P;
            }
            for ((a, b), slot) in self.coeffs.iter().zip(out.iter_mut()) {
                let mut m = *slot;
                for &mx in &mixed {
                    m = m.min(mul_add_mod(*a, mx, *b));
                }
                *slot = m;
            }
        }
        for &x in chunks.remainder() {
            self.update_mins(x, out);
        }
    }
}

/// SplitMix64 finalizer: a bijective 64-bit mixer.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn family_is_deterministic_per_seed() {
        let a = MinHashFamily::new(16, 7);
        let b = MinHashFamily::new(16, 7);
        for i in 0..16 {
            assert_eq!(a.hash(i, 12345), b.hash(i, 12345));
        }
        let c = MinHashFamily::new(16, 8);
        assert_ne!(a.hash(0, 12345), c.hash(0, 12345));
    }

    #[test]
    fn hash_values_below_modulus() {
        let fam = MinHashFamily::new(64, 3);
        for i in 0..64 {
            for x in [0u64, 1, 255, u64::MAX] {
                assert!(fam.hash(i, x) < MERSENNE_P);
            }
        }
    }

    #[test]
    fn mul_add_mod_agrees_with_u128_reference() {
        let cases = [
            (1u64, 0u64, 0u64),
            (MERSENNE_P - 1, MERSENNE_P - 1, MERSENNE_P - 1),
            (0x1234_5678_9abc, 0xfff_ffff_ffff, 17),
        ];
        for (a, x, b) in cases {
            let expect = ((u128::from(a) * u128::from(x) + u128::from(b))
                % u128::from(MERSENNE_P)) as u64;
            assert_eq!(mul_add_mod(a, x, b), expect);
        }
    }

    #[test]
    fn functions_are_injective_enough_on_small_domains() {
        // Distinct inputs rarely collide under a single function.
        let fam = MinHashFamily::new(1, 11);
        let mut seen = BTreeSet::new();
        for x in 0..10_000u64 {
            seen.insert(fam.hash(0, x));
        }
        assert!(seen.len() >= 9_995, "too many collisions: {}", seen.len());
    }

    #[test]
    fn min_is_roughly_uniform_over_set_elements() {
        // Min-wise property: over many functions, each of n elements is
        // the arg-min with probability ≈ 1/n.
        let n = 10usize;
        let k = 20_000usize;
        let fam = MinHashFamily::new(k, 99);
        let elems: Vec<u64> = (0..n as u64).map(|e| e * 1_000_003 + 17).collect();
        let mut counts = vec![0usize; n];
        for i in 0..k {
            let (arg, _) = elems
                .iter()
                .enumerate()
                .map(|(j, &e)| (j, fam.hash(i, e)))
                .min_by_key(|&(_, h)| h)
                .unwrap();
            counts[arg] += 1;
        }
        let expect = k as f64 / n as f64;
        for (j, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expect).abs() < expect * 0.25,
                "element {j} won the min {c} times, expected ≈ {expect}"
            );
        }
    }

    #[test]
    fn update_mins_matches_individual_hashes() {
        let fam = MinHashFamily::new(32, 5);
        let mut mins = vec![u64::MAX; 32];
        for x in [3u64, 9, 27, 81] {
            fam.update_mins(x, &mut mins);
        }
        for (i, &min) in mins.iter().enumerate() {
            let expect = [3u64, 9, 27, 81].iter().map(|&x| fam.hash(i, x)).min().unwrap();
            assert_eq!(min, expect);
        }
    }

    #[test]
    fn mix64_is_bijective_on_samples() {
        let mut seen = BTreeSet::new();
        for x in 0..100_000u64 {
            assert!(seen.insert(mix64(x)), "mix64 collision");
        }
    }
}
