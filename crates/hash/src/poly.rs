//! k-wise independent polynomial hashing over the Mersenne prime `2^61 − 1`.
//!
//! A degree-`(k−1)` polynomial with uniformly random coefficients over the
//! field `GF(p)` evaluated at point `x` is a k-wise independent hash family —
//! the textbook construction every analysis in the paper's substrates
//! (CountMin rows, AMS sign hashes, Indyk–Woodruff subsampling) relies on.
//!
//! The Mersenne prime `p = 2^61 − 1` admits branch-light modular reduction:
//! `a mod p` via shift/add on the 122-bit product.

use sss_codec::{CodecError, Reader, WireCodec};

use crate::rng::{RngCore64, SplitMix64};

/// The Mersenne prime `2^61 − 1` used as the hash field modulus.
pub const MERSENNE_PRIME_61: u64 = (1u64 << 61) - 1;

/// Reduce a 128-bit value modulo `2^61 − 1`.
#[inline]
pub(crate) fn mod_p61(x: u128) -> u64 {
    const P: u64 = MERSENNE_PRIME_61;
    // x = hi·2^61 + lo, and 2^61 ≡ 1 (mod p).
    let lo = (x as u64) & P;
    let hi = (x >> 61) as u64;
    let mut s = lo + (hi & P) + (hi >> 61);
    // s < 3p, so at most two conditional subtractions.
    if s >= P {
        s -= P;
    }
    if s >= P {
        s -= P;
    }
    s
}

/// Multiply two residues mod `2^61 − 1`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_p61((a as u128) * (b as u128))
}

/// A k-wise independent hash function `[2^61−1] → [2^61−1]`.
///
/// Evaluation is Horner's rule: `k − 1` multiply-mod steps per call, i.e.
/// the paper's `Õ(1)` per-update cost with the constant equal to the
/// required independence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolyHash {
    /// `coeffs[0]` is the constant term; degree = `coeffs.len() − 1`.
    coeffs: Vec<u64>,
}

impl PolyHash {
    /// Draw a uniformly random polynomial of degree `k − 1` (a k-wise
    /// independent function) from the seed.
    ///
    /// The leading coefficient is drawn from `[1, p)` so the polynomial has
    /// exact degree `k − 1` (a standard convention; keeps distinct functions
    /// distinct and costs nothing in independence).
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 1, "independence k must be >= 1");
        let mut rng = SplitMix64::new(seed);
        let mut coeffs = vec![0u64; k];
        for c in coeffs.iter_mut() {
            *c = rng.next_below(MERSENNE_PRIME_61);
        }
        if k > 1 {
            coeffs[k - 1] = 1 + rng.next_below(MERSENNE_PRIME_61 - 1);
        }
        Self { coeffs }
    }

    /// The independence level `k` of the family this function was drawn from.
    #[inline]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The raw coefficients, constant term first (for the batch kernels in
    /// [`crate::batch`], which keep them in registers across a lane pass).
    #[inline]
    pub(crate) fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Evaluate the polynomial at `x` (any `u64`; inputs ≥ p are first
    /// reduced, which preserves k-wise independence on `[p]` and remains a
    /// well-distributed function on the full `u64` domain for our universes
    /// `m ≤ 2^61 − 2`).
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        let x = x % MERSENNE_PRIME_61;
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = mod_p61(mul_mod(acc, x) as u128 + c as u128);
        }
        acc
    }

    /// Hash into `[0, range)` by multiply-shift on a 64-bit re-mix of the
    /// field value. For 2-wise families the bucket distribution stays 2-wise
    /// independent up to the usual `O(range/p)` rounding bias (negligible:
    /// `p ≈ 2.3·10^18`).
    #[inline]
    pub fn hash_range(&self, x: u64, range: usize) -> usize {
        debug_assert!(range > 0);
        let h = crate::mix::fingerprint64(self.hash(x));
        (((h as u128) * (range as u128)) >> 64) as usize
    }

    /// Hash to a uniform `f64` in `[0, 1)`. Used for the Indyk–Woodruff
    /// random shift `η` and for hashed-domain distinct sketches.
    #[inline]
    pub fn hash_unit(&self, x: u64) -> f64 {
        crate::mix::to_unit_f64(crate::mix::fingerprint64(self.hash(x)))
    }
}

/// A pairwise (2-wise) independent hash, the cheapest family that suffices
/// for CountMin rows and subsampling levels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairwiseHash {
    inner: PolyHash,
}

impl PairwiseHash {
    /// Draw a random function `h(x) = (a·x + b) mod (2^61 − 1)`.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: PolyHash::new(2, seed),
        }
    }

    /// Evaluate into the field `[2^61 − 1]`.
    ///
    /// Specialised affine path: `a·x < 2^122` and `+b` stays within
    /// `u128`, so a single Mersenne reduction replaces generic Horner's
    /// two — same value, one `mod_p61` less.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        self.hash_prereduced(Self::reduce_input(x))
    }

    /// Evaluate into `[0, range)`.
    #[inline]
    pub fn hash_range(&self, x: u64, range: usize) -> usize {
        debug_assert!(range > 0);
        let h = crate::mix::fingerprint64(self.hash(x));
        (((h as u128) * (range as u128)) >> 64) as usize
    }

    /// Reduce an input into the hash field — the `x mod (2^61 − 1)` step
    /// of [`PairwiseHash::hash`], split out so batch callers evaluating
    /// *many* independent functions on the same `x` (e.g. the median-of-k
    /// bottom-k sketches) pay it once per item instead of once per
    /// function.
    #[inline]
    pub fn reduce_input(x: u64) -> u64 {
        x % MERSENNE_PRIME_61
    }

    /// Evaluate on an input already reduced by
    /// [`PairwiseHash::reduce_input`]. Equivalent to
    /// [`PairwiseHash::hash`]; `xr` must be `< 2^61 − 1`.
    #[inline]
    pub fn hash_prereduced(&self, xr: u64) -> u64 {
        debug_assert!(xr < MERSENNE_PRIME_61);
        let (a, b) = self.affine();
        mod_p61((a as u128) * (xr as u128) + b as u128)
    }

    /// The `(a, b)` of `h(x) = (a·x + b) mod (2^61 − 1)` (for the batch
    /// kernels in [`crate::batch`]).
    #[inline]
    pub(crate) fn affine(&self) -> (u64, u64) {
        (self.inner.coeffs[1], self.inner.coeffs[0])
    }

    /// Number of trailing zero bits of a 64-bit re-mix of `h(x)`;
    /// `P[level(x) ≥ j] = 2^{−j}`. This is the subsampling level used by the
    /// Indyk–Woodruff structure and by HyperLogLog-style sketches.
    #[inline]
    pub fn level(&self, x: u64) -> u32 {
        let h = crate::mix::fingerprint64(self.hash(x));
        h.trailing_zeros()
    }
}

impl WireCodec for PolyHash {
    const WIRE_TAG: u16 = 0x0103;
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.coeffs.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let coeffs: Vec<u64> = Vec::decode(r)?;
        if coeffs.is_empty() {
            return Err(CodecError::Invalid {
                what: "PolyHash with no coefficients",
            });
        }
        if coeffs.iter().any(|&c| c >= MERSENNE_PRIME_61) {
            return Err(CodecError::Invalid {
                what: "PolyHash coefficient outside the Mersenne field",
            });
        }
        if coeffs.len() > 1 && coeffs.last() == Some(&0) {
            // The constructor draws the leading coefficient from [1, p);
            // a zero here would silently lower the independence level.
            return Err(CodecError::Invalid {
                what: "PolyHash leading coefficient is zero",
            });
        }
        Ok(PolyHash { coeffs })
    }
}

impl WireCodec for PairwiseHash {
    const WIRE_TAG: u16 = 0x0104;
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let inner = PolyHash::decode(r)?;
        if inner.independence() != 2 {
            return Err(CodecError::Invalid {
                what: "PairwiseHash polynomial is not degree 1",
            });
        }
        Ok(PairwiseHash { inner })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_p61_agrees_with_naive_remainder() {
        let pm1 = (MERSENNE_PRIME_61 - 1) as u128;
        let cases: [u128; 9] = [
            0,
            1,
            MERSENNE_PRIME_61 as u128,
            MERSENNE_PRIME_61 as u128 + 1,
            (MERSENNE_PRIME_61 as u128) * 5 + 17,
            u64::MAX as u128,
            u128::MAX >> 6,
            (MERSENNE_PRIME_61 as u128) * (MERSENNE_PRIME_61 as u128),
            // The largest sum the batch sign kernel folds: three products
            // of canonical residues plus a canonical constant term.
            3 * pm1 * pm1 + pm1,
        ];
        for &c in &cases {
            assert_eq!(
                mod_p61(c) as u128,
                c % MERSENNE_PRIME_61 as u128,
                "case {c}"
            );
        }
    }

    #[test]
    fn mul_mod_matches_u128_arithmetic() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..1000 {
            let a = rng.next_below(MERSENNE_PRIME_61);
            let b = rng.next_below(MERSENNE_PRIME_61);
            let expect = ((a as u128) * (b as u128) % MERSENNE_PRIME_61 as u128) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
    }

    #[test]
    fn hash_is_deterministic_and_seed_sensitive() {
        let h1 = PolyHash::new(4, 1);
        let h2 = PolyHash::new(4, 1);
        let h3 = PolyHash::new(4, 2);
        let mut differs = false;
        for x in 0..256u64 {
            assert_eq!(h1.hash(x), h2.hash(x));
            differs |= h1.hash(x) != h3.hash(x);
        }
        assert!(differs);
    }

    #[test]
    fn pairwise_specialised_path_matches_generic_horner() {
        for seed in 0..16u64 {
            let fast = PairwiseHash::new(seed);
            let generic = PolyHash::new(2, seed);
            for x in [
                0u64,
                1,
                17,
                1 << 20,
                u64::MAX,
                MERSENNE_PRIME_61,
                0xDEAD_BEEF,
            ] {
                assert_eq!(fast.hash(x), generic.hash(x), "seed {seed} x {x}");
            }
        }
    }

    #[test]
    fn degree_one_is_affine() {
        // A 2-wise function is a·x+b: check via three collinear points.
        let h = PairwiseHash::new(7);
        let p = MERSENNE_PRIME_61 as u128;
        let y0 = h.hash(0) as u128;
        let y1 = h.hash(1) as u128;
        let y2 = h.hash(2) as u128;
        // y2 − y1 ≡ y1 − y0 (mod p)
        assert_eq!((y2 + p - y1) % p, (y1 + p - y0) % p);
    }

    #[test]
    fn range_hash_is_roughly_uniform() {
        let h = PolyHash::new(2, 3);
        let range = 16usize;
        let mut counts = vec![0u32; range];
        let n = 160_000u64;
        for x in 0..n {
            counts[h.hash_range(x, range)] += 1;
        }
        let expected = n as f64 / range as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(dev < 0.05, "bucket {i} count {c} expected {expected}");
        }
    }

    #[test]
    fn pairwise_collision_rate_close_to_uniform() {
        // Empirical collision probability across random pairs should be
        // ≈ 1/range for a pairwise family.
        let range = 1024usize;
        let mut collisions = 0u32;
        let trials = 400u64;
        for seed in 0..trials {
            let h = PairwiseHash::new(seed);
            if h.hash_range(12345, range) == h.hash_range(67890, range) {
                collisions += 1;
            }
        }
        // E[collisions] ≈ trials/range ≈ 0.39; allow up to 6.
        assert!(collisions <= 6, "collisions = {collisions}");
    }

    #[test]
    fn level_distribution_is_geometric() {
        let h = PairwiseHash::new(11);
        let n = 1u64 << 17;
        let mut ge1 = 0u64;
        let mut ge4 = 0u64;
        for x in 0..n {
            let l = h.level(x);
            if l >= 1 {
                ge1 += 1;
            }
            if l >= 4 {
                ge4 += 1;
            }
        }
        let f1 = ge1 as f64 / n as f64;
        let f4 = ge4 as f64 / n as f64;
        assert!((f1 - 0.5).abs() < 0.02, "P[level>=1] = {f1}");
        assert!((f4 - 0.0625).abs() < 0.01, "P[level>=4] = {f4}");
    }

    #[test]
    fn hash_unit_covers_unit_interval() {
        let h = PolyHash::new(2, 13);
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for x in 0..10_000u64 {
            let u = h.hash_unit(x);
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99, "min {min} max {max}");
    }

    #[test]
    #[should_panic(expected = "independence")]
    fn zero_independence_rejected() {
        let _ = PolyHash::new(0, 1);
    }
}
