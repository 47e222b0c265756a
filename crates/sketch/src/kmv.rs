//! Bottom-k (KMV) distinct-count sketch (Bar-Yossef et al. 2002 /
//! Beyer et al. 2007 unbiased variant).
//!
//! Hash every item into `[0, 1)` (via a 64-bit hashed domain) and keep the
//! `k` smallest distinct hash values. If the k-th smallest is `v`, then
//! `F̂_0 = (k − 1)/v` is an unbiased estimate with relative standard
//! deviation `≈ 1/√(k−2)`. With `k = 16` this is already far inside the
//! `(1/2, δ)`-accuracy Algorithm 2 requires of its `F_0(L)` black box;
//! [`MedianF0`] median-boosts independent copies to drive `δ` down.

use std::collections::BTreeSet;

use sss_codec::{put_packed_sorted_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{PairwiseHash, SplitMix64};

use crate::Mismatch;

/// Bottom-k distinct sketch.
///
/// ```
/// use sss_sketch::KmvSketch;
///
/// let mut kmv = KmvSketch::new(256, 1);
/// for x in 0..10_000u64 {
///     kmv.update(x % 5_000); // 5_000 distinct values, each twice
/// }
/// let est = kmv.estimate();
/// assert!((est - 5_000.0).abs() / 5_000.0 < 0.3);
/// ```
#[derive(Debug, Clone)]
pub struct KmvSketch {
    k: usize,
    hash: PairwiseHash,
    /// The k smallest distinct hashed values seen so far (64-bit domain).
    smallest: BTreeSet<u64>,
}

impl KmvSketch {
    /// Sketch keeping the `k ≥ 3` smallest hash values.
    pub fn new(k: usize, seed: u64) -> Self {
        assert!(k >= 3, "k must be >= 3 for the unbiased estimator");
        Self {
            k,
            hash: PairwiseHash::new(seed),
            smallest: BTreeSet::new(),
        }
    }

    /// Capacity `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.k
    }

    /// Ingest one occurrence of `x` (duplicates hash identically and are
    /// absorbed by the set — the sketch counts *distinct* items).
    pub fn update(&mut self, x: u64) {
        let h = sss_hash::fingerprint64(self.hash.hash(x));
        self.insert_hash(h);
    }

    /// Estimate the number of distinct items seen.
    pub fn estimate(&self) -> f64 {
        if self.smallest.len() < self.k {
            // Fewer than k distinct items: the set is exact.
            return self.smallest.len() as f64;
        }
        let kth = *self.smallest.iter().next_back().expect("non-empty") as f64;
        // Normalise the 64-bit domain to (0, 1].
        let v = (kth + 1.0) / (u64::MAX as f64 + 1.0);
        (self.k as f64 - 1.0) / v
    }

    /// Ingest a batch of occurrences (same result as one-by-one updates).
    ///
    /// Faster than the per-item path once the sketch is saturated: the
    /// rejection threshold (the current k-th smallest hash) is kept in a
    /// register across the batch, so the common case — an item hashing
    /// above it — costs a hash and a compare, with no tree access.
    pub fn update_batch(&mut self, xs: &[u64]) {
        let mut reduced = [0u64; 1024];
        for sub in xs.chunks(1024) {
            let red = &mut reduced[..sub.len()];
            for (r, &x) in red.iter_mut().zip(sub) {
                *r = PairwiseHash::reduce_input(x);
            }
            self.update_batch_prereduced(red);
        }
    }

    /// [`KmvSketch::update_batch`] over inputs already reduced into the
    /// hash field ([`PairwiseHash::reduce_input`]) — lets a bank of
    /// independent copies share the per-item domain reduction.
    fn update_batch_prereduced(&mut self, xrs: &[u64]) {
        debug_assert!(xrs.len() <= 1024, "callers chunk to <= 1024 items");
        let mut i = 0;
        while self.smallest.len() < self.k && i < xrs.len() {
            let h = sss_hash::fingerprint64(self.hash.hash_prereduced(xrs[i]));
            self.insert_hash(h);
            i += 1;
        }
        let rest = &xrs[i..];
        if rest.is_empty() {
            return;
        }
        // Saturated tail: fingerprint the whole sub-chunk through the
        // 4-lane SWAR kernel into a stack buffer, then scan in order with
        // the rejection threshold in a register — same values, same
        // insertion order as hashing one item at a time.
        let mut fps = [0u64; 1024];
        let fps = &mut fps[..rest.len()];
        self.hash.fingerprints_batch(rest, fps);
        let mut max = *self.smallest.iter().next_back().expect("saturated");
        for &h in fps.iter() {
            if h < max && self.smallest.insert(h) {
                self.smallest.remove(&max);
                max = *self.smallest.iter().next_back().expect("non-empty");
            }
        }
    }

    /// The insert step of [`KmvSketch::update`], on an already-computed
    /// hash value.
    #[inline]
    fn insert_hash(&mut self, h: u64) {
        if self.smallest.len() < self.k {
            self.smallest.insert(h);
        } else {
            let &max = self.smallest.iter().next_back().expect("non-empty");
            if h < max && self.smallest.insert(h) {
                self.smallest.remove(&max);
            }
        }
    }

    /// Whether `other` can merge into `self`: same `k` and hash function.
    pub fn check_merge(&self, other: &KmvSketch) -> Result<(), Mismatch> {
        Mismatch::unless(self.k == other.k, "KmvSketch k")?;
        Mismatch::unless(self.hash == other.hash, "KmvSketch hash functions")
    }

    /// Merge another sketch with the same `k` and seed. The bottom k of
    /// a union is the bottom k of the two bottom-k sets, so this is one
    /// linear join of the ascending sets, cut at `k` values, and a bulk
    /// build of the result.
    ///
    /// # Panics
    /// When [`KmvSketch::check_merge`] fails.
    pub fn merge(&mut self, other: &KmvSketch) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.smallest = self
            .smallest
            .union(&other.smallest)
            .take(self.k)
            .copied()
            .collect();
    }
}

/// Median of independent [`KmvSketch`] copies: a `(1+ε, δ)` distinct-count
/// estimator with `copies = O(log 1/δ)`.
#[derive(Debug, Clone)]
pub struct MedianF0 {
    sketches: Vec<KmvSketch>,
}

impl MedianF0 {
    /// `copies` independent bottom-`k` sketches.
    pub fn new(k: usize, copies: usize, seed: u64) -> Self {
        assert!(copies >= 1);
        let mut sm = SplitMix64::new(seed);
        Self {
            sketches: (0..copies)
                .map(|_| KmvSketch::new(k, sm.derive()))
                .collect(),
        }
    }

    /// Sized for a `(1+eps, delta)` guarantee:
    /// `k = ⌈4/eps²⌉ + 2`, `copies = ⌈8·ln(1/delta)⌉` (odd).
    pub fn with_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let k = (4.0 / (eps * eps)).ceil() as usize + 2;
        let mut copies = (8.0 * (1.0 / delta).ln()).ceil().max(1.0) as usize;
        if copies.is_multiple_of(2) {
            copies += 1;
        }
        Self::new(k, copies, seed)
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        for s in &mut self.sketches {
            s.update(x);
        }
    }

    /// Ingest a batch of occurrences. Iterates copy-major (each bottom-k
    /// sketch consumes a whole sub-chunk while its tree and rejection
    /// threshold stay hot) in L1-sized sub-chunks, with the per-item
    /// field reduction computed once and shared across all
    /// `O(log 1/δ)` copies.
    pub fn update_batch(&mut self, xs: &[u64]) {
        let mut reduced = [0u64; 1024];
        for sub in xs.chunks(1024) {
            let red = &mut reduced[..sub.len()];
            for (r, &x) in red.iter_mut().zip(sub) {
                *r = PairwiseHash::reduce_input(x);
            }
            for s in &mut self.sketches {
                s.update_batch_prereduced(red);
            }
        }
    }

    /// Median-of-copies distinct-count estimate.
    pub fn estimate(&self) -> f64 {
        let mut ests: Vec<f64> = self.sketches.iter().map(|s| s.estimate()).collect();
        ests.sort_by(|a, b| a.total_cmp(b));
        let mid = ests.len() / 2;
        if ests.len() % 2 == 1 {
            ests[mid]
        } else {
            (ests[mid - 1] + ests[mid]) / 2.0
        }
    }

    /// Whether `other` can merge into `self`: same copy count, and every
    /// copy pair passes [`KmvSketch::check_merge`].
    pub fn check_merge(&self, other: &MedianF0) -> Result<(), Mismatch> {
        Mismatch::unless(
            self.sketches.len() == other.sketches.len(),
            "MedianF0 copies",
        )?;
        self.sketches
            .iter()
            .zip(&other.sketches)
            .try_for_each(|(a, b)| a.check_merge(b))
    }

    /// Merge another estimator built with the same `(k, copies, seed)`:
    /// the result summarises the union of both inputs.
    ///
    /// # Panics
    /// When [`MedianF0::check_merge`] fails.
    pub fn merge(&mut self, other: &MedianF0) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge(b);
        }
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.sketches.iter().map(|s| s.space_words()).sum()
    }
}

impl WireCodec for KmvSketch {
    const WIRE_TAG: u16 = 0x0201;
    // varint k ‖ PairwiseHash (len + 2 coeffs) ‖ packed-slice header —
    // the v2 lower bound, bounding the pre-allocation a corrupt
    // Vec<KmvSketch> length can request.
    const MIN_WIRE_BYTES: usize = 16;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: the bottom-k values are the k smallest of a
        // uniform hash image, i.e. a strictly-increasing sequence with
        // small gaps — sorted-delta packing beats 8 bytes per value.
        put_varint_u64(out, self.k as u64);
        self.hash.encode_into(out);
        let vals: Vec<u64> = self.smallest.iter().copied().collect();
        put_packed_sorted_u64s(out, &vals);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let k = r.count_usize()?;
        if k < 3 {
            return Err(CodecError::Invalid {
                what: "KmvSketch k < 3",
            });
        }
        let hash = PairwiseHash::decode(r)?;
        let vals = r.ascending_u64s()?;
        if vals.len() > k {
            return Err(CodecError::Invalid {
                what: "KmvSketch holds more than k values",
            });
        }
        let smallest: BTreeSet<u64> = vals.into_iter().collect();
        Ok(KmvSketch { k, hash, smallest })
    }
}

impl WireCodec for MedianF0 {
    const WIRE_TAG: u16 = 0x0202;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.sketches.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let sketches: Vec<KmvSketch> = Vec::decode(r)?;
        if sketches.is_empty() {
            return Err(CodecError::Invalid {
                what: "MedianF0 with no copies",
            });
        }
        Ok(MedianF0 { sketches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut s = KmvSketch::new(64, 1);
        for x in 0..40u64 {
            s.update(x);
            s.update(x); // duplicates ignored
        }
        assert_eq!(s.estimate(), 40.0);
    }

    #[test]
    fn estimate_concentrates() {
        let mut s = KmvSketch::new(1024, 2);
        let truth = 100_000u64;
        for x in 0..truth {
            s.update(x * 7 + 3);
        }
        let est = s.estimate();
        let rel = (est - truth as f64).abs() / truth as f64;
        // σ ≈ 1/√1022 ≈ 3.1%; allow 4σ.
        assert!(rel < 0.13, "rel err = {rel}");
    }

    #[test]
    fn duplicates_do_not_inflate() {
        let mut s = KmvSketch::new(256, 3);
        for _ in 0..100 {
            for x in 0..1000u64 {
                s.update(x);
            }
        }
        let est = s.estimate();
        assert!((est - 1000.0).abs() / 1000.0 < 0.25, "est = {est}");
    }

    #[test]
    fn merge_equals_union() {
        let mut a = KmvSketch::new(128, 4);
        let mut b = KmvSketch::new(128, 4);
        let mut u = KmvSketch::new(128, 4);
        for x in 0..5000u64 {
            a.update(x);
            u.update(x);
        }
        for x in 2500..7500u64 {
            b.update(x);
            u.update(x);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), u.estimate());
    }

    #[test]
    fn merge_join_is_the_bottom_k_of_the_naive_union() {
        let k = 8;
        let sketch = |vals: &[u64]| {
            let mut s = KmvSketch::new(k, 4);
            s.smallest = vals.iter().copied().collect();
            assert!(s.smallest.len() <= k);
            s
        };
        let cases: [(&str, &[u64], &[u64]); 6] = [
            (
                "overlapping",
                &[1, 3, 5, 7, 9, 11, 13, 15],
                &[2, 3, 6, 7, 10, 11, 14, 15],
            ),
            (
                "disjoint",
                &[1, 2, 3, 4, 5, 6, 7, 8],
                &[9, 10, 11, 12, 13, 14, 15, 16],
            ),
            (
                "disjoint, interleaved",
                &[10, 30, 50, 70],
                &[20, 40, 60, 80, 90],
            ),
            ("under-full", &[4, 8, 15], &[8, 16, 23]),
            ("exactly k", &[1, 4, 9, 16, 25], &[4, 36, 49, 64]),
            ("one side empty", &[], &[5, 6, 7, 8, 9, 10, 11, 12]),
        ];
        for (case, xs, ys) in cases {
            for (left, right) in [(xs, ys), (ys, xs)] {
                let mut naive: BTreeSet<u64> = left.iter().chain(right).copied().collect();
                while naive.len() > k {
                    naive.pop_last();
                }
                let mut joined = sketch(left);
                joined.merge(&sketch(right));
                assert_eq!(joined.smallest, naive, "{case}: {left:?} ∪ {right:?}");
            }
        }
    }

    #[test]
    fn median_f0_tighter_than_single() {
        let truth = 50_000u64;
        let mut worst_single = 0.0f64;
        for seed in 0..5u64 {
            let mut s = KmvSketch::new(66, seed);
            for x in 0..truth {
                s.update(x);
            }
            worst_single = worst_single.max((s.estimate() - truth as f64).abs() / truth as f64);
        }
        let mut m = MedianF0::new(66, 9, 77);
        for x in 0..truth {
            m.update(x);
        }
        let med_err = (m.estimate() - truth as f64).abs() / truth as f64;
        // Median of 9 should beat the worst of 5 singles almost surely.
        assert!(
            med_err <= worst_single + 0.02,
            "median {med_err} vs worst single {worst_single}"
        );
    }

    #[test]
    fn with_error_estimate_within_eps() {
        let mut m = MedianF0::with_error(0.25, 0.05, 5);
        let truth = 20_000u64;
        for x in 0..truth {
            m.update(x);
        }
        let rel = (m.estimate() - truth as f64).abs() / truth as f64;
        assert!(rel < 0.25, "rel = {rel}");
    }

    // Batch-vs-scalar equivalence is pinned by the shared battery in
    // tests/batch_equiv.rs (crate::equiv harness).

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = KmvSketch::new(16, 9);
        assert_eq!(s.estimate(), 0.0);
        let m = MedianF0::new(16, 3, 9);
        assert_eq!(m.estimate(), 0.0);
    }
}
