//! AMS tug-of-war `F_2` sketch (Alon, Matias & Szegedy, JCSS 1999).
//!
//! Each atomic estimator keeps `Z = Σ_x s(x)·f_x` for a 4-wise independent
//! sign `s`; `Z²` is an unbiased estimate of `F_2` with `Var[Z²] ≤ 2F_2²`.
//! Averaging `r` copies divides the variance by `r`; the median of `c`
//! averaged groups drives the failure probability down to `2^{−Ω(c)}`:
//! the standard `(1+ε, δ)` estimator with `r = O(1/ε²)`, `c = O(log 1/δ)`.
//!
//! This is the `F_2(L)` black box of the **Rusu–Dobra baseline** (§1.3):
//! estimate `F_2` of the sampled stream, then invert
//! `E[F_2(L)] = p²F_2(P) + p(1−p)F_1(P)`.

use sss_codec::{put_packed_i64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{FourWiseSign, SplitMix64};

use crate::batch::{BatchScratch, BATCH_CHUNK};
use crate::Mismatch;

/// AMS `F_2` estimator: `groups × copies` atomic counters.
#[derive(Debug, Clone)]
pub struct AmsF2 {
    copies: usize,
    /// Z values, group-major: groups × copies.
    z: Vec<i64>,
    signs: Vec<FourWiseSign>,
    total: u64,
    /// The construction seed the sign family was derived from, when
    /// known. Snapshots then ship 8 bytes and regenerate the signs on
    /// decode (each sign is a 40-byte degree-3 polynomial — shipping
    /// them verbatim is what made the Rusu–Dobra wire image ~6× its
    /// in-memory state). `None` only for states decoded from version-1
    /// frames, which carried the signs explicitly and keep doing so.
    seed: Option<u64>,
    scratch: BatchScratch,
}

impl AmsF2 {
    /// Sketch with `groups` median groups of `copies` averaged estimators.
    pub fn new(groups: usize, copies: usize, seed: u64) -> Self {
        assert!(groups >= 1 && copies >= 1, "dimensions must be positive");
        let mut sm = SplitMix64::new(seed);
        let n = groups * copies;
        Self {
            copies,
            z: vec![0; n],
            signs: (0..n).map(|_| FourWiseSign::new(sm.derive())).collect(),
            total: 0,
            seed: Some(seed),
            scratch: BatchScratch::default(),
        }
    }

    /// Sketch sized for a `(1+eps, delta)` guarantee:
    /// `copies = ⌈8/eps²⌉`, `groups = ⌈2·ln(1/delta)⌉` (odd, ≥ 3).
    ///
    /// **Cost warning.** Classic AMS touches *every* counter on *every*
    /// update, so per-item time is `O(groups·copies) = O(ε⁻²·log 1/δ)` —
    /// that is the real price of the tug-of-war sketch and exactly why
    /// CountSketch's `O(d)`-per-update [`f2_estimate`] view
    /// ("fast AMS") exists. A `2^22`-counter cap guards against accidental
    /// quadratic blow-ups.
    ///
    /// [`f2_estimate`]: crate::countsketch::CountSketch::f2_estimate
    pub fn with_error(eps: f64, delta: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let copies = (8.0 / (eps * eps)).ceil() as usize;
        let mut groups = (2.0 * (1.0 / delta).ln()).ceil().max(3.0) as usize;
        if groups.is_multiple_of(2) {
            groups += 1;
        }
        assert!(
            copies.saturating_mul(groups) <= (1 << 22),
            "AMS {groups}x{copies} exceeds the 2^22-counter safety cap"
        );
        Self::new(groups, copies, seed)
    }

    /// Number of median groups.
    pub fn groups(&self) -> usize {
        self.z.len() / self.copies
    }

    /// Estimators per group.
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.z.len()
    }

    /// Total weight inserted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Add `count` occurrences of `x` (negative allowed: linear sketch).
    pub fn update(&mut self, x: u64, count: i64) {
        self.total = self.total.wrapping_add(count.unsigned_abs());
        for (zi, sign) in self.z.iter_mut().zip(&self.signs) {
            *zi += sign.sign(x) * count;
        }
    }

    /// Add one occurrence each of a batch of items — bitwise the same
    /// counters as one-by-one updates.
    ///
    /// Counter-major pass: each chunk is reduced into the hash field once,
    /// then every estimator folds its chunk sign-sum in via the SWAR
    /// kernel, keeping that estimator's polynomial coefficients in
    /// registers for the whole chunk (integer adds commute, so the reorder
    /// is exact).
    pub fn update_batch(&mut self, xs: &[u64]) {
        let Self {
            z,
            signs,
            total,
            scratch,
            ..
        } = self;
        for chunk in xs.chunks(BATCH_CHUNK) {
            scratch.powers.reduce(chunk);
            for (zi, sign) in z.iter_mut().zip(signs.iter()) {
                *zi += sign.sign_sum_batch(&scratch.powers);
            }
            *total = total.wrapping_add(chunk.len() as u64);
        }
    }

    /// The `(mean over copies, median over groups)` estimate of `F_2`.
    pub fn estimate(&self) -> f64 {
        let mut group_means: Vec<f64> = self
            .z
            .chunks_exact(self.copies)
            .map(|group| {
                group.iter().map(|&z| (z as f64) * (z as f64)).sum::<f64>() / self.copies as f64
            })
            .collect();
        group_means.sort_by(|a, b| a.total_cmp(b));
        let mid = group_means.len() / 2;
        if group_means.len() % 2 == 1 {
            group_means[mid]
        } else {
            (group_means[mid - 1] + group_means[mid]) / 2.0
        }
    }

    /// Whether `other` can merge into `self`: same `groups × copies`
    /// layout and sign family. Two known construction seeds must agree;
    /// when either side's seed is unknown (a version-1 decode) the signs
    /// themselves are compared.
    pub fn check_merge(&self, other: &AmsF2) -> Result<(), Mismatch> {
        Mismatch::unless(self.copies == other.copies, "AmsF2 copies")?;
        Mismatch::unless(self.z.len() == other.z.len(), "AmsF2 groups")?;
        match (self.seed, other.seed) {
            (Some(a), Some(b)) => Mismatch::unless(a == b, "AmsF2 seed"),
            _ => Mismatch::unless(self.signs == other.signs, "AmsF2 sign functions"),
        }
    }

    /// Merge another sketch with identical dimensions and seed.
    ///
    /// # Panics
    /// When [`AmsF2::check_merge`] fails.
    pub fn merge(&mut self, other: &AmsF2) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        for (a, b) in self.z.iter_mut().zip(&other.z) {
            *a += b;
        }
        self.total += other.total;
    }
}

impl WireCodec for AmsF2 {
    const WIRE_TAG: u16 = 0x0203;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: `copies ‖ total ‖ packed z ‖ sign source`. When the
        // construction seed is known (every live constructor path) the
        // sign family ships as that one seed and is re-derived on decode
        // exactly as `new` derives it — bit-identical coefficients, so
        // merge compatibility and continued ingestion are unchanged.
        put_varint_u64(out, self.copies as u64);
        put_varint_u64(out, self.total);
        put_packed_i64s(out, &self.z);
        match self.seed {
            Some(seed) => {
                out.push(0);
                seed.encode_into(out);
            }
            None => {
                out.push(1);
                self.signs.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let (copies, z, signs, total, seed);
        if r.v2() {
            copies = r.varint_u64()? as usize;
            total = r.varint_u64()?;
            z = r.packed_i64s()?;
            match r.u8()? {
                0 => {
                    // Regenerating one 40-byte polynomial per counter
                    // from a few wire bytes needs its own allocation
                    // guard; 2^22 matches the constructor's safety cap.
                    if z.len() > (1 << 22) {
                        return Err(CodecError::Invalid {
                            what: "AmsF2 counter count above the 2^22 safety cap",
                        });
                    }
                    let s = r.u64()?;
                    let mut sm = SplitMix64::new(s);
                    signs = (0..z.len())
                        .map(|_| FourWiseSign::new(sm.derive()))
                        .collect();
                    seed = Some(s);
                }
                1 => {
                    signs = Vec::<FourWiseSign>::decode(r)?;
                    seed = None;
                }
                _ => {
                    return Err(CodecError::Invalid {
                        what: "AmsF2 sign-source byte not 0/1",
                    })
                }
            }
        } else {
            copies = usize::decode(r)?;
            z = Vec::<i64>::decode(r)?;
            signs = Vec::<FourWiseSign>::decode(r)?;
            total = r.u64()?;
            seed = None;
        }
        if copies == 0 || z.is_empty() {
            return Err(CodecError::Invalid {
                what: "AmsF2 empty dimensions",
            });
        }
        if z.len() != signs.len() || !z.len().is_multiple_of(copies) {
            return Err(CodecError::Invalid {
                what: "AmsF2 counter/sign layout mismatch",
            });
        }
        Ok(AmsF2 {
            copies,
            z,
            signs,
            total,
            seed,
            scratch: BatchScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    fn exact_f2(stream: &[u64]) -> f64 {
        let mut m = std::collections::HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0u64) += 1;
        }
        m.values().map(|&f| (f as f64) * (f as f64)).sum()
    }

    #[test]
    fn estimate_within_eps_on_uniform_stream() {
        let mut rng = Xoshiro256pp::new(1);
        let stream: Vec<u64> = (0..50_000).map(|_| rng.next_below(1000)).collect();
        let f2 = exact_f2(&stream);
        // Explicit dims: 7 groups × 128 copies ⇒ σ ≈ √(2/128) ≈ 12.5%/group.
        let mut ams = AmsF2::new(7, 128, 2);
        for &x in &stream {
            ams.update(x, 1);
        }
        let est = ams.estimate();
        assert!((est - f2).abs() / f2 < 0.15, "est {est} vs {f2}");
    }

    #[test]
    fn estimate_within_eps_on_skewed_stream() {
        let mut rng = Xoshiro256pp::new(3);
        let stream: Vec<u64> = (0..50_000)
            .map(|_| {
                if rng.next_bool(0.4) {
                    rng.next_below(3)
                } else {
                    3 + rng.next_below(100_000)
                }
            })
            .collect();
        let f2 = exact_f2(&stream);
        let mut ams = AmsF2::new(7, 128, 4);
        for &x in &stream {
            ams.update(x, 1);
        }
        let est = ams.estimate();
        assert!((est - f2).abs() / f2 < 0.15, "est {est} vs {f2}");
    }

    #[test]
    fn with_error_dimensions_and_cap() {
        let ams = AmsF2::with_error(0.2, 0.1, 1);
        assert!(ams.copies() >= 200);
        assert_eq!(ams.groups() % 2, 1);
    }

    #[test]
    #[should_panic(expected = "safety cap")]
    fn with_error_rejects_absurd_dimensions() {
        let _ = AmsF2::with_error(0.001, 0.001, 1);
    }

    #[test]
    fn single_estimator_is_unbiased() {
        // Mean of Z² across seeds ≈ F_2.
        let stream: Vec<u64> = (0..200u64).collect(); // all distinct: F2 = 200
        let trials = 500;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut ams = AmsF2::new(1, 1, seed);
            for &x in &stream {
                ams.update(x, 1);
            }
            sum += ams.estimate();
        }
        let mean = sum / trials as f64;
        assert!((mean - 200.0).abs() < 30.0, "mean = {mean}");
    }

    #[test]
    fn deletions_cancel() {
        let mut ams = AmsF2::new(3, 16, 5);
        for x in 0..50u64 {
            ams.update(x, 7);
        }
        for x in 0..50u64 {
            ams.update(x, -7);
        }
        assert_eq!(ams.estimate(), 0.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = AmsF2::new(3, 8, 6);
        let mut b = AmsF2::new(3, 8, 6);
        let mut whole = AmsF2::new(3, 8, 6);
        for x in 0..500u64 {
            a.update(x % 13, 1);
            whole.update(x % 13, 1);
            b.update(x % 7, 1);
            whole.update(x % 7, 1);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }

    // Batch-vs-scalar equivalence is pinned by the shared battery in
    // tests/batch_equiv.rs (crate::equiv harness).

    #[test]
    fn constant_stream_exact_for_any_signs() {
        // One item: Z = ±n, Z² = n² = F2 exactly.
        let mut ams = AmsF2::new(5, 4, 7);
        for _ in 0..1000 {
            ams.update(42, 1);
        }
        assert_eq!(ams.estimate(), 1_000_000.0);
    }
}
