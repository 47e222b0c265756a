//! CountMin sketch (Cormode & Muthukrishnan, J. Algorithms 2005).
//!
//! `d` rows of `w` counters; row `r` adds each update to counter
//! `h_r(x)`, and a point query returns the minimum over rows. For an
//! insert-only stream the estimate `f̂_x` satisfies
//!
//! * `f̂_x ≥ f_x` always (one-sided error), and
//! * `f̂_x ≤ f_x + (e/w)·F_1` with probability `≥ 1 − e^{−d}` per query,
//!
//! which is the `(α′, ε′, δ′)` black box Theorem 6 runs on the sampled
//! stream. Rows use independent 2-wise polynomial hash functions, which the
//! original analysis requires.

use sss_codec::{put_packed_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{reduce_inputs, PairwiseHash, SplitMix64};

use crate::batch::{BatchScratch, BATCH_CHUNK};
use crate::topk::PointSketch;
use crate::Mismatch;

/// CountMin sketch over `u64` items with `u64` counts.
///
/// ```
/// use sss_sketch::CountMin;
///
/// let mut cm = CountMin::with_error(0.01, 0.01, 42);
/// for _ in 0..100 {
///     cm.update(7, 1);
/// }
/// cm.update(8, 3);
/// assert!(cm.query(7) >= 100);                    // never underestimates
/// assert!(cm.query(7) <= 100 + cm.total() / 100); // ≤ f + ε·F1 w.h.p.
/// ```
#[derive(Debug, Clone)]
pub struct CountMin {
    width: usize,
    counters: Vec<u64>, // row-major: d × w
    hashes: Vec<PairwiseHash>,
    total: u64,
    scratch: BatchScratch,
}

impl CountMin {
    /// Sketch with explicit dimensions: `depth` rows × `width` counters.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth >= 1 && width >= 1, "dimensions must be positive");
        let mut sm = SplitMix64::new(seed);
        Self {
            width,
            counters: vec![0; depth * width],
            hashes: (0..depth).map(|_| PairwiseHash::new(sm.derive())).collect(),
            total: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Sketch sized for the standard guarantee: point-query error at most
    /// `eps·F_1` with failure probability `delta` — `w = ⌈e/eps⌉`,
    /// `d = ⌈ln(1/delta)⌉`.
    pub fn with_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = (std::f64::consts::E / eps).ceil() as usize;
        let depth = (1.0 / delta).ln().ceil().max(1.0) as usize;
        Self::new(depth, width, seed)
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.hashes.len()
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total weight inserted (`F_1` of the ingested stream).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Space in 64-bit words (counters only; hash seeds are `O(d)`).
    pub fn space_words(&self) -> usize {
        self.counters.len()
    }

    /// Row hash functions (shared with the atomic variant).
    pub(crate) fn hashes(&self) -> &[PairwiseHash] {
        &self.hashes
    }

    /// The raw row-major counter grid.
    pub(crate) fn counters(&self) -> &[u64] {
        &self.counters
    }

    /// Reassemble a sketch from raw parts — the atomic variant's quiesce
    /// path. The grid must be `hashes.len() × width`.
    pub(crate) fn from_parts(
        width: usize,
        counters: Vec<u64>,
        hashes: Vec<PairwiseHash>,
        total: u64,
    ) -> Self {
        debug_assert_eq!(counters.len(), width * hashes.len());
        Self {
            width,
            counters,
            hashes,
            total,
            scratch: BatchScratch::default(),
        }
    }

    /// Add `count` occurrences of `x`.
    pub fn update(&mut self, x: u64, count: u64) {
        self.total += count;
        let w = self.width;
        for (r, h) in self.hashes.iter().enumerate() {
            self.counters[r * w + h.hash_range(x, w)] += count;
        }
    }

    /// Add one occurrence each of a batch of items — bitwise the same
    /// counters as one-by-one updates.
    ///
    /// Structure-of-arrays pass: each chunk is reduced into the hash field
    /// once, each row's bucket indices come from the SWAR kernel into
    /// reusable scratch, and the counter grid is swept row-major with a
    /// tight index+increment loop (counter additions commute, so the
    /// row-major reorder is exact).
    pub fn update_batch(&mut self, xs: &[u64]) {
        let w = self.width;
        let Self {
            counters,
            hashes,
            total,
            scratch,
            ..
        } = self;
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            reduce_inputs(chunk, &mut scratch.xr);
            scratch.idx.resize(len, 0);
            for (r, h) in hashes.iter().enumerate() {
                h.hash_range_batch(&scratch.xr, w, &mut scratch.idx);
                let row = &mut counters[r * w..(r + 1) * w];
                for &b in &scratch.idx[..len] {
                    row[b] += 1;
                }
            }
            *total += len as u64;
        }
    }

    /// Point query: an overestimate of the frequency of `x`.
    pub fn query(&self, x: u64) -> u64 {
        self.hashes
            .iter()
            .enumerate()
            .map(|(r, h)| self.counters[r * self.width + h.hash_range(x, self.width)])
            .min()
            .unwrap_or(0)
    }

    /// Whether `other` can merge into `self`: same width and row hash
    /// functions (hence depth).
    pub fn check_merge(&self, other: &CountMin) -> Result<(), Mismatch> {
        Mismatch::unless(self.width == other.width, "CountMin width")?;
        Mismatch::unless(self.hashes == other.hashes, "CountMin hash functions")
    }

    /// Merge another sketch built with the same dimensions and seed.
    ///
    /// # Panics
    /// When [`CountMin::check_merge`] fails.
    pub fn merge(&mut self, other: &CountMin) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
    }
}

/// Theorem 6's sketch: the threshold is `α·n`, which only grows, and the
/// estimate never falls below the true count, so an item whose frequency
/// reaches the *final* threshold was estimated at least that high at its
/// last arrival, above the threshold then in force: recall is preserved.
impl PointSketch for CountMin {
    const MOMENT: u32 = 1;

    fn with_point_error(eps: f64, delta: f64, seed: u64) -> Self {
        Self::with_error(eps, delta, seed)
    }

    /// At most `1/α` items can be α-heavy in `F_1`; keep slack.
    fn tracker_capacity(alpha: f64) -> usize {
        (4.0 / alpha).ceil() as usize
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn space_words(&self) -> usize {
        CountMin::space_words(self)
    }

    fn threshold(&self, alpha: f64) -> f64 {
        alpha * self.total as f64
    }

    fn update_estimate(&mut self, x: u64) -> f64 {
        self.update(x, 1);
        self.query(x) as f64
    }

    /// Hashes every item once and checks each item's post-update point
    /// query inline against `α` times the stream length up to that item.
    fn update_batch_admit(&mut self, xs: &[u64], alpha: f64, mut sink: impl FnMut(u64, f64)) {
        let w = self.width;
        let d = self.hashes.len();
        let Self {
            counters,
            hashes,
            total,
            scratch,
            ..
        } = self;
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            reduce_inputs(chunk, &mut scratch.xr);
            scratch.idx.resize(d * len, 0);
            for (r, h) in hashes.iter().enumerate() {
                h.hash_range_batch(&scratch.xr, w, &mut scratch.idx[r * len..(r + 1) * len]);
            }
            // Item-serial so duplicates within the chunk observe each
            // other's increments, exactly like the scalar path.
            for (i, &x) in chunk.iter().enumerate() {
                let mut est = u64::MAX;
                for r in 0..d {
                    let c = &mut counters[r * w + scratch.idx[r * len + i]];
                    *c += 1;
                    est = est.min(*c);
                }
                let n_after = *total + i as u64 + 1;
                if (est as f64) >= alpha * n_after as f64 {
                    sink(x, est as f64);
                }
            }
            *total += len as u64;
        }
    }

    fn reoffer_estimate(&self, x: u64) -> Option<f64> {
        Some(self.query(x) as f64)
    }

    fn reported(&self, x: u64) -> u64 {
        self.query(x)
    }

    fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        CountMin::check_merge(self, other)
    }

    fn merge(&mut self, other: &Self) {
        CountMin::merge(self, other);
    }
}

impl WireCodec for CountMin {
    const WIRE_TAG: u16 = 0x0204;
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: the counter grid (the dominant section — counts are
        // tiny next to their fixed 8-byte v1 cells) ships FoR-packed.
        put_varint_u64(out, self.width as u64);
        put_packed_u64s(out, &self.counters);
        self.hashes.encode_into(out);
        put_varint_u64(out, self.total);
        // The retired conservative-update flag keeps its byte.
        false.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let (width, counters, hashes, total);
        if r.v2() {
            width = r.varint_u64()? as usize;
            counters = r.packed_u64s()?;
            hashes = Vec::<PairwiseHash>::decode(r)?;
            total = r.varint_u64()?;
        } else {
            width = usize::decode(r)?;
            counters = Vec::<u64>::decode(r)?;
            hashes = Vec::<PairwiseHash>::decode(r)?;
            total = r.u64()?;
        }
        if r.bool()? {
            return Err(CodecError::Invalid {
                what: "CountMin conservative update is not supported",
            });
        }
        if width == 0
            || hashes.is_empty()
            || width.checked_mul(hashes.len()) != Some(counters.len())
        {
            return Err(CodecError::Invalid {
                what: "CountMin counter grid does not match depth x width",
            });
        }
        Ok(CountMin {
            width,
            counters,
            hashes,
            total,
            scratch: BatchScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    #[test]
    fn never_underestimates() {
        let mut cm = CountMin::new(4, 64, 1);
        let mut rng = Xoshiro256pp::new(2);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..20_000 {
            let x = rng.next_below(500);
            cm.update(x, 1);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        for (&x, &f) in &truth {
            assert!(cm.query(x) >= f, "underestimate at {x}");
        }
    }

    #[test]
    fn error_bound_holds_with_slack() {
        let eps = 0.01;
        let mut cm = CountMin::with_error(eps, 0.01, 3);
        let n = 100_000u64;
        let mut rng = Xoshiro256pp::new(4);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..n {
            let x = rng.next_below(10_000);
            cm.update(x, 1);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        let bound = (eps * n as f64) as u64;
        let bad = truth
            .iter()
            .filter(|(&x, &f)| cm.query(x) > f + bound)
            .count();
        // delta = 1% per query; allow 3% of 10k queries.
        assert!(bad <= truth.len() / 33, "bad = {bad} / {}", truth.len());
    }

    #[test]
    fn absent_items_bounded_by_eps_f1() {
        let mut cm = CountMin::with_error(0.005, 0.01, 5);
        for x in 0..5000u64 {
            cm.update(x, 3);
        }
        let f1 = cm.total() as f64;
        let bound = (0.005 * f1) as u64;
        let mut bad = 0;
        for x in 100_000..101_000u64 {
            if cm.query(x) > bound {
                bad += 1;
            }
        }
        assert!(bad <= 30, "bad = {bad}");
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = CountMin::new(4, 128, 9);
        let mut b = CountMin::new(4, 128, 9);
        let mut whole = CountMin::new(4, 128, 9);
        for x in 0..1000u64 {
            a.update(x % 50, 1);
            whole.update(x % 50, 1);
        }
        for x in 0..1000u64 {
            b.update(x % 77, 2);
            whole.update(x % 77, 2);
        }
        a.merge(&b);
        assert_eq!(a.total(), whole.total());
        for x in 0..100u64 {
            assert_eq!(a.query(x), whole.query(x));
        }
    }

    // Batch-vs-scalar equivalence is pinned by the shared battery in
    // tests/batch_equiv.rs (crate::equiv harness).

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_different_seeds() {
        let mut a = CountMin::new(2, 16, 1);
        let b = CountMin::new(2, 16, 2);
        a.merge(&b);
    }

    #[test]
    fn with_error_dimensions() {
        let cm = CountMin::with_error(0.01, 0.001, 1);
        assert!(cm.width() >= 271); // e/0.01 ≈ 271.8
        assert!(cm.depth() >= 7); // ln(1000) ≈ 6.9
    }

    #[test]
    fn weighted_updates() {
        let mut cm = CountMin::new(4, 64, 10);
        cm.update(42, 100);
        cm.update(42, 23);
        assert!(cm.query(42) >= 123);
        assert_eq!(cm.total(), 123);
    }
}
