//! CountSketch (Charikar, Chen & Farach-Colton, TCS 2004).
//!
//! `d` rows of `w` counters; row `r` adds `s_r(x)·count` to counter
//! `h_r(x)` where `s_r` is a 4-wise independent sign. The point query is
//! the median over rows of `s_r(x)·counter`: an *unbiased* estimate with
//! per-row standard deviation `≤ √(F_2/w)`, so
//!
//! `|f̂_x − f_x| ≤ √(8·F_2/w)` with probability `≥ 1 − 2^{−Ω(d)}`.
//!
//! This is the black box Theorem 7 runs on the sampled stream, and the
//! frequency-recovery primitive inside the Indyk–Woodruff level sets.
//! Each row additionally maintains its sum of squared counters
//! incrementally, giving an `O(d)` estimate of `F_2` itself (the classic
//! "fast AMS" view of CountSketch) — used both by the `F_2` heavy-hitter
//! threshold and the level-set bucket selection.

use sss_codec::{put_packed_i64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{FourWiseSign, PairwiseHash, SplitMix64};

use crate::batch::{BatchScratch, BATCH_CHUNK};
use crate::topk::PointSketch;
use crate::Mismatch;

/// CountSketch over `u64` items with `i64` counters.
#[derive(Debug, Clone)]
pub struct CountSketch {
    width: usize,
    counters: Vec<i64>, // row-major: d × w
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<FourWiseSign>,
    /// Per-row Σ counter² maintained incrementally (u128 to avoid overflow).
    row_sumsq: Vec<u128>,
    total: u64,
    scratch: BatchScratch,
}

impl CountSketch {
    /// Sketch with explicit dimensions: `depth` rows × `width` counters.
    pub fn new(depth: usize, width: usize, seed: u64) -> Self {
        assert!(depth >= 1 && width >= 1, "dimensions must be positive");
        let mut sm = SplitMix64::new(seed);
        Self {
            width,
            counters: vec![0; depth * width],
            bucket_hashes: (0..depth).map(|_| PairwiseHash::new(sm.derive())).collect(),
            sign_hashes: (0..depth).map(|_| FourWiseSign::new(sm.derive())).collect(),
            row_sumsq: vec![0; depth],
            total: 0,
            scratch: BatchScratch::default(),
        }
    }

    /// Sketch sized so point queries err by at most `eps·√F_2` with failure
    /// probability `delta`: `w = ⌈6/eps²⌉` (per-row Chebyshev at 2/3
    /// success), `d = ⌈2·ln(1/delta)⌉` rows (odd, ≥ 5) for the median
    /// boost.
    ///
    /// # Panics
    /// If the requested dimensions exceed `2^27` counters (1 GiB) — pick a
    /// larger `eps` or construct explicitly via [`CountSketch::new`].
    pub fn with_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
        let width = (6.0 / (eps * eps)).ceil() as usize;
        let mut depth = (2.0 * (1.0 / delta).ln()).ceil().max(5.0) as usize;
        if depth.is_multiple_of(2) {
            depth += 1; // odd depth makes the median well-defined
        }
        assert!(
            width.saturating_mul(depth) <= (1 << 27),
            "CountSketch {depth}x{width} exceeds the 2^27-counter safety cap"
        );
        Self::new(depth, width, seed)
    }

    /// Number of rows.
    pub fn depth(&self) -> usize {
        self.bucket_hashes.len()
    }

    /// Counters per row.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Total weight inserted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Space in 64-bit words (counters + per-row aggregates).
    pub fn space_words(&self) -> usize {
        self.counters.len() + 2 * self.row_sumsq.len()
    }

    /// Row bucket hashes (shared with the atomic variant).
    pub(crate) fn bucket_hashes(&self) -> &[PairwiseHash] {
        &self.bucket_hashes
    }

    /// Row sign hashes.
    pub(crate) fn sign_hashes(&self) -> &[FourWiseSign] {
        &self.sign_hashes
    }

    /// The raw row-major counter grid.
    pub(crate) fn counters(&self) -> &[i64] {
        &self.counters
    }

    /// Per-row Σc² aggregates.
    pub(crate) fn row_sumsq(&self) -> &[u128] {
        &self.row_sumsq
    }

    /// Reassemble a sketch from raw parts — the atomic variant's quiesce
    /// path. `row_sumsq` is derived state recomputed from the grid,
    /// exactly as merge and decode do.
    pub(crate) fn from_parts(
        width: usize,
        counters: Vec<i64>,
        bucket_hashes: Vec<PairwiseHash>,
        sign_hashes: Vec<FourWiseSign>,
        total: u64,
    ) -> Self {
        debug_assert_eq!(counters.len(), width * bucket_hashes.len());
        debug_assert_eq!(bucket_hashes.len(), sign_hashes.len());
        let row_sumsq = row_sums_of_squares(&counters, width);
        Self {
            width,
            counters,
            bucket_hashes,
            sign_hashes,
            row_sumsq,
            total,
            scratch: BatchScratch::default(),
        }
    }

    /// Add `count` occurrences of `x` (use negative for deletions; the
    /// sketch is a linear map so turnstile updates are supported).
    pub fn update(&mut self, x: u64, count: i64) {
        self.total = self.total.wrapping_add(count.unsigned_abs());
        for r in 0..self.depth() {
            let b = self.bucket_hashes[r].hash_range(x, self.width);
            let s = self.sign_hashes[r].sign(x);
            let c = &mut self.counters[r * self.width + b];
            let old = *c;
            *c += s * count;
            // Incremental Σc²: new² − old².
            let old_sq = (old as i128) * (old as i128);
            let new_sq = (*c as i128) * (*c as i128);
            self.row_sumsq[r] = (self.row_sumsq[r] as i128 + (new_sq - old_sq)) as u128;
        }
    }

    /// Add one occurrence each of a batch of items — bitwise the same
    /// counters and row sums as one-by-one updates.
    ///
    /// Structure-of-arrays pass: each chunk is reduced into the hash field
    /// once (with the squares and cubes the sign rows share), each row's
    /// bucket indices and signs come from the SWAR kernels into reusable
    /// scratch, and the grid is swept row-major. The per-row
    /// Σc² delta telescopes into a register `i128` and is folded in once at
    /// the end of the row — all exact integer arithmetic, so the reorder is
    /// bit-for-bit equal to the scalar path.
    pub fn update_batch(&mut self, xs: &[u64]) {
        let w = self.width;
        let d = self.bucket_hashes.len();
        let Self {
            counters,
            bucket_hashes,
            sign_hashes,
            row_sumsq,
            total,
            scratch,
            ..
        } = self;
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            scratch.powers.reduce(chunk);
            scratch.idx.resize(len, 0);
            scratch.signs.resize(len, 0);
            for r in 0..d {
                bucket_hashes[r].hash_range_batch(scratch.powers.residues(), w, &mut scratch.idx);
                sign_hashes[r].signs_batch(&scratch.powers, &mut scratch.signs);
                let row = &mut counters[r * w..(r + 1) * w];
                let mut dsq: i128 = 0;
                for i in 0..len {
                    let c = &mut row[scratch.idx[i]];
                    let old = *c;
                    let new = old + scratch.signs[i];
                    *c = new;
                    dsq += (new as i128) * (new as i128) - (old as i128) * (old as i128);
                }
                row_sumsq[r] = (row_sumsq[r] as i128 + dsq) as u128;
            }
            *total = total.wrapping_add(len as u64);
        }
    }

    /// Point query: median over rows of the signed counter — an unbiased
    /// frequency estimate.
    pub fn query(&self, x: u64) -> i64 {
        let mut ests: Vec<i64> = (0..self.depth())
            .map(|r| {
                let b = self.bucket_hashes[r].hash_range(x, self.width);
                self.sign_hashes[r].sign(x) * self.counters[r * self.width + b]
            })
            .collect();
        median_i64(&mut ests)
    }

    /// Estimate `F_2` of the ingested stream: median over rows of Σc².
    /// Each row is an AMS-style unbiased estimator with relative standard
    /// deviation `√(2/w)`.
    pub fn f2_estimate(&self) -> f64 {
        let mut rows: Vec<u128> = self.row_sumsq.clone();
        median_u128_as_f64(&mut rows)
    }

    /// Whether `other` can merge into `self`: same width, bucket hash
    /// functions (hence depth) and sign functions.
    pub fn check_merge(&self, other: &CountSketch) -> Result<(), Mismatch> {
        Mismatch::unless(self.width == other.width, "CountSketch width")?;
        Mismatch::unless(
            self.bucket_hashes == other.bucket_hashes,
            "CountSketch hash functions",
        )?;
        Mismatch::unless(
            self.sign_hashes == other.sign_hashes,
            "CountSketch sign functions",
        )
    }

    /// Merge another sketch with identical dimensions and seeds.
    ///
    /// # Panics
    /// When [`CountSketch::check_merge`] fails.
    pub fn merge(&mut self, other: &CountSketch) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
        self.total += other.total;
        // Recompute row sums (merging breaks the incremental identity).
        self.row_sumsq = row_sums_of_squares(&self.counters, self.width);
    }
}

/// Theorem 7's sketch. Its threshold `α·√F̂₂` carries no monotonicity:
/// an increment of sign `s` on a cell holding `c` changes that row's Σc²
/// by `2sc + 1`, which is negative when `sc < 0`, so `F̂₂` — and with it
/// the threshold — can fall, and a point estimate can fall too. The true
/// `F_2` only grows, so the reporter's recall rests on the sketch's
/// `±ε√F_2` accuracy (Theorem 7's `ε`), not on a monotone threshold.
impl PointSketch for CountSketch {
    const MOMENT: u32 = 2;

    fn with_point_error(eps: f64, delta: f64, seed: u64) -> Self {
        Self::with_error(eps, delta, seed)
    }

    /// At most `1/α²` items can be α-heavy in `F_2`; keep slack.
    fn tracker_capacity(alpha: f64) -> usize {
        (4.0 / (alpha * alpha)).ceil().min(1e6) as usize
    }

    fn total(&self) -> u64 {
        self.total
    }

    fn space_words(&self) -> usize {
        CountSketch::space_words(self)
    }

    fn threshold(&self, alpha: f64) -> f64 {
        alpha * self.f2_estimate().sqrt()
    }

    fn update_estimate(&mut self, x: u64) -> f64 {
        self.update(x, 1);
        self.query(x) as f64
    }

    /// Runs `sink(x, est)`, in stream order, for every item whose
    /// post-update point query reaches `alpha·√F̂₂` — exactly `update(x, 1)`
    /// then `query(x) as f64 >= alpha * f2_estimate().sqrt()` per item.
    ///
    /// **Row-major sweep.** A row's counters and its Σc² evolve
    /// independently of the other rows, so each chunk sweeps the grid one
    /// row at a time, like [`CountSketch::update_batch`], and records every
    /// item's post-update `s·c` and the row's running Σc² into
    /// `depth × chunk` scratch. Each row takes the chunk in item order, so
    /// an item repeated within the chunk sees its earlier copies'
    /// increments: the recorded values are the ones the item-serial scalar
    /// path reads. An item-serial decision pass then admits in stream
    /// order, so callers see the same offers in the same order.
    ///
    /// **Exact skip.** The sweep also tracks, per item, `hi = max_r s·c_r`
    /// and `lo = min_r Σc²_r`. The point query is the median of the row
    /// values, so `est ≤ hi`; the `F_2` estimate is the median of the row
    /// sums, so `f2 ≥ lo as f64`. Both hold for the even-depth averages of
    /// the two central values too. The `i64`/`u128`-to-`f64` conversions,
    /// `sqrt` and multiplication by `alpha > 0` are all monotone, so
    /// `(hi as f64) < alpha·√(lo as f64)` proves `est as f64 < alpha·√f2`
    /// and the item is rejected without either median. Only the items the
    /// bound leaves open gather their rows and take the two medians.
    fn update_batch_admit(&mut self, xs: &[u64], alpha: f64, mut sink: impl FnMut(u64, f64)) {
        debug_assert!(alpha > 0.0, "the admission skip bound needs alpha > 0");
        let w = self.width;
        let d = self.bucket_hashes.len();
        let Self {
            counters,
            bucket_hashes,
            sign_hashes,
            row_sumsq,
            total,
            scratch,
            ..
        } = self;
        let BatchScratch {
            powers,
            idx,
            signs,
            vals,
            sumsq,
            hi,
            lo,
            item_vals,
            item_sumsq,
            ..
        } = scratch;
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            powers.reduce(chunk);
            idx.resize(len, 0);
            signs.resize(len, 0);
            vals.resize(d * len, 0);
            sumsq.resize(d * len, 0);
            hi.clear();
            hi.resize(len, i64::MIN);
            lo.clear();
            lo.resize(len, u128::MAX);
            for r in 0..d {
                bucket_hashes[r].hash_range_batch(powers.residues(), w, idx);
                sign_hashes[r].signs_batch(powers, signs);
                let row = &mut counters[r * w..(r + 1) * w];
                let mut sq = row_sumsq[r] as i128;
                let cells = idx[..len].iter().zip(&signs[..len]);
                let outs = vals[r * len..(r + 1) * len]
                    .iter_mut()
                    .zip(&mut sumsq[r * len..(r + 1) * len])
                    .zip(hi[..len].iter_mut().zip(&mut lo[..len]));
                for ((&b, &s), ((v, q), (h, l))) in cells.zip(outs) {
                    let c = &mut row[b];
                    let old = *c;
                    let new = old + s;
                    *c = new;
                    sq += (new as i128) * (new as i128) - (old as i128) * (old as i128);
                    *v = s * new;
                    *q = sq as u128;
                    *h = (*h).max(*v);
                    *l = (*l).min(*q);
                }
                row_sumsq[r] = sq as u128;
            }
            for (i, &x) in chunk.iter().enumerate() {
                if (hi[i] as f64) < alpha * (lo[i] as f64).sqrt() {
                    continue;
                }
                item_vals.clear();
                item_vals.extend((0..d).map(|r| vals[r * len + i]));
                let est = median_i64(item_vals);
                item_sumsq.clear();
                item_sumsq.extend((0..d).map(|r| sumsq[r * len + i]));
                if est as f64 >= alpha * median_u128_as_f64(item_sumsq).sqrt() {
                    sink(x, est as f64);
                }
            }
            *total = total.wrapping_add(len as u64);
        }
    }

    /// Positive estimates only: a candidate whose merged or quiesced
    /// estimate collapses to ≤ 0 leaves the table.
    fn reoffer_estimate(&self, x: u64) -> Option<f64> {
        let est = self.query(x);
        (est > 0).then_some(est as f64)
    }

    fn reported(&self, x: u64) -> u64 {
        self.query(x).max(0) as u64
    }

    fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        CountSketch::check_merge(self, other)
    }

    fn merge(&mut self, other: &Self) {
        CountSketch::merge(self, other);
    }
}

impl WireCodec for CountSketch {
    const WIRE_TAG: u16 = 0x0205;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // `row_sumsq` is derived state: recomputed on decode (exact
        // integer arithmetic, so it matches the incremental values
        // bit for bit) rather than trusted from the wire. v2 ships the
        // counter grid zigzag + FoR bit-packed — signed cell values sit
        // in a narrow band around zero, so this is where the multi-MiB
        // F2 heavy-hitter snapshots collapse.
        put_varint_u64(out, self.width as u64);
        put_packed_i64s(out, &self.counters);
        self.bucket_hashes.encode_into(out);
        self.sign_hashes.encode_into(out);
        put_varint_u64(out, self.total);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let (width, counters, bucket_hashes, sign_hashes, total);
        if r.v2() {
            width = r.varint_u64()? as usize;
            counters = r.packed_i64s()?;
            bucket_hashes = Vec::<PairwiseHash>::decode(r)?;
            sign_hashes = Vec::<FourWiseSign>::decode(r)?;
            total = r.varint_u64()?;
        } else {
            width = usize::decode(r)?;
            counters = Vec::<i64>::decode(r)?;
            bucket_hashes = Vec::<PairwiseHash>::decode(r)?;
            sign_hashes = Vec::<FourWiseSign>::decode(r)?;
            total = r.u64()?;
        }
        let depth = bucket_hashes.len();
        if width == 0
            || depth == 0
            || sign_hashes.len() != depth
            || width.checked_mul(depth) != Some(counters.len())
        {
            return Err(CodecError::Invalid {
                what: "CountSketch counter grid does not match depth x width",
            });
        }
        let row_sumsq = row_sums_of_squares(&counters, width);
        Ok(CountSketch {
            width,
            counters,
            bucket_hashes,
            sign_hashes,
            row_sumsq,
            total,
            scratch: BatchScratch::default(),
        })
    }
}

/// Each row's Σc², recomputed from a row-major grid (the derived state
/// that merge, decode and the atomic quiesce rebuild). Exact integer
/// arithmetic, so it equals the incrementally maintained sums bit for bit.
fn row_sums_of_squares(counters: &[i64], width: usize) -> Vec<u128> {
    counters
        .chunks_exact(width)
        .map(|row| {
            row.iter()
                .map(|&c| ((c as i128) * (c as i128)) as u128)
                .sum()
        })
        .collect()
}

/// Median of row aggregates, as `f64`: sorts in place, averages the two
/// central order statistics for even lengths. Shared by [`CountSketch::f2_estimate`]
/// and the batch admission kernel so both produce identical floats.
pub(crate) fn median_u128_as_f64(rows: &mut [u128]) -> f64 {
    rows.sort_unstable();
    let mid = rows.len() / 2;
    if rows.len() % 2 == 1 {
        rows[mid] as f64
    } else {
        (rows[mid - 1] as f64 + rows[mid] as f64) / 2.0
    }
}

pub(crate) fn median_i64(v: &mut [i64]) -> i64 {
    let mid = v.len() / 2;
    let (_, m, _) = v.select_nth_unstable(mid);
    let m = *m;
    if v.len() % 2 == 1 {
        m
    } else {
        let lower = v[..mid].iter().max().copied().unwrap_or(m);
        // Average of the two central order statistics, rounding toward zero.
        ((lower as i128 + m as i128) / 2) as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    fn skewed_stream(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                if rng.next_bool(0.3) {
                    rng.next_below(4) // 4 hot items
                } else {
                    4 + rng.next_below(5000)
                }
            })
            .collect()
    }

    #[test]
    fn point_query_error_within_f2_bound() {
        let stream = skewed_stream(100_000, 1);
        let mut cs = CountSketch::new(9, 1024, 2);
        let mut truth = std::collections::HashMap::new();
        let mut f2 = 0.0f64;
        for &x in &stream {
            cs.update(x, 1);
            let e = truth.entry(x).or_insert(0i64);
            f2 += 2.0 * *e as f64 + 1.0;
            *e += 1;
        }
        let bound = (8.0 * f2 / 1024.0).sqrt();
        let mut bad = 0;
        for (&x, &f) in &truth {
            if ((cs.query(x) - f).abs() as f64) > bound {
                bad += 1;
            }
        }
        assert!(bad <= truth.len() / 50, "bad = {bad}/{}", truth.len());
    }

    #[test]
    fn estimates_are_unbiased_across_seeds() {
        // Mean estimate of a fixed item over independent sketches ≈ truth.
        let stream = skewed_stream(20_000, 3);
        let truth = stream.iter().filter(|&&x| x == 0).count() as f64;
        let mut sum = 0.0;
        let trials = 60;
        for seed in 0..trials {
            let mut cs = CountSketch::new(1, 256, seed);
            for &x in &stream {
                cs.update(x, 1);
            }
            sum += cs.query(0) as f64;
        }
        let mean = sum / trials as f64;
        assert!(
            (mean - truth).abs() < 0.15 * truth,
            "mean {mean} vs truth {truth}"
        );
    }

    #[test]
    fn f2_estimate_tracks_truth() {
        let stream = skewed_stream(50_000, 5);
        let mut cs = CountSketch::new(9, 2048, 6);
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            cs.update(x, 1);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        let f2: f64 = truth.values().map(|&f| (f as f64) * (f as f64)).sum();
        let est = cs.f2_estimate();
        assert!((est - f2).abs() / f2 < 0.1, "est {est} vs f2 {f2}");
    }

    #[test]
    fn incremental_sumsq_matches_recompute() {
        let mut cs = CountSketch::new(3, 64, 7);
        let stream = skewed_stream(5000, 8);
        for &x in &stream {
            cs.update(x, 1);
        }
        assert_eq!(cs.row_sumsq, row_sums_of_squares(&cs.counters, cs.width));
    }

    #[test]
    fn turnstile_deletion_cancels() {
        let mut cs = CountSketch::new(5, 128, 9);
        for x in 0..100u64 {
            cs.update(x, 5);
        }
        for x in 0..100u64 {
            cs.update(x, -5);
        }
        for x in 0..100u64 {
            assert_eq!(cs.query(x), 0);
        }
        assert_eq!(cs.f2_estimate(), 0.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = CountSketch::new(5, 256, 11);
        let mut b = CountSketch::new(5, 256, 11);
        let mut whole = CountSketch::new(5, 256, 11);
        for x in 0..2000u64 {
            a.update(x % 97, 1);
            whole.update(x % 97, 1);
            b.update(x % 31, 1);
            whole.update(x % 31, 1);
        }
        a.merge(&b);
        for x in 0..100u64 {
            assert_eq!(a.query(x), whole.query(x));
        }
        assert_eq!(a.f2_estimate(), whole.f2_estimate());
    }

    // Batch-vs-scalar equivalence is pinned by the shared battery in
    // tests/batch_equiv.rs (crate::equiv harness); `row_sumsq` is derived
    // state the codec recomputes on decode, so its incremental
    // maintenance through the batched path keeps a direct check here.
    #[test]
    fn batched_row_sumsq_stays_incremental() {
        let stream = skewed_stream(10_000, 21);
        let mut bat = CountSketch::new(5, 256, 22);
        for chunk in stream.chunks(401) {
            bat.update_batch(chunk);
        }
        assert_eq!(bat.row_sumsq, row_sums_of_squares(&bat.counters, bat.width));
    }

    #[test]
    fn median_helper() {
        let mut v = [3i64, 1, 2];
        assert_eq!(median_i64(&mut v), 2);
        let mut v = [4i64, 1, 3, 2];
        assert_eq!(median_i64(&mut v), 2); // (2+3)/2 rounded toward zero
        let mut v = [5i64];
        assert_eq!(median_i64(&mut v), 5);
        let mut v = [-5i64, -1, -3];
        assert_eq!(median_i64(&mut v), -3);
    }

    #[test]
    fn with_error_depth_is_odd() {
        let cs = CountSketch::with_error(0.1, 0.01, 1);
        assert_eq!(cs.depth() % 2, 1);
        assert!(cs.width() >= 600);
        assert!(cs.depth() >= 5);
    }

    #[test]
    #[should_panic(expected = "safety cap")]
    fn with_error_rejects_absurd_dimensions() {
        let _ = CountSketch::with_error(0.0001, 0.01, 1);
    }
}
