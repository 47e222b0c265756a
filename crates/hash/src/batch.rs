//! SWAR-style batch hashing kernels — the blessed hot path for `update_batch`.
//!
//! Scalar hashing dominates batch ingestion: every item pays the `x mod
//! (2^61 − 1)` input reduction once *per hash function*, and the compiler
//! cannot keep the polynomial coefficients in registers across the
//! item-major loops the sketches used to run. The kernels here fix both:
//!
//! * [`reduce_inputs`] hoists the input reduction so a chunk is reduced
//!   **once** and the residues shared by every hash function of every row.
//! * [`FieldPowers`] goes one step further for the degree-3 sign
//!   polynomials: it also keeps each residue's square and cube mod `p`,
//!   computed once per chunk and shared by every sign row. A sign is then
//!   `c₃x³ + c₂x² + c₁x + c₀` — three independent 128-bit products summed
//!   in a `u128` and reduced once — instead of three dependent Horner
//!   steps with a reduction each. Every coefficient and power is a
//!   canonical residue (`≤ p − 1`), so the sum is at most
//!   `3(p − 1)² + (p − 1) < 2^124`, inside `mod_p61`'s single-fold range;
//!   one fold lands on the same canonical residue Horner's rule reaches,
//!   hence the same sign bit.
//! * The `*_batch` methods on [`PairwiseHash`] evaluate [`LANES`]
//!   independent field elements per iteration in straight-line code over
//!   plain `u64`s (no `unsafe`, no SIMD intrinsics). The four 128-bit
//!   multiply/reduce chains have no data dependencies, so the CPU overlaps
//!   them; the multipliers are read once and live in registers for the
//!   whole pass. The [`FourWiseSign`] kernels are plain loops: their items
//!   are just as independent, and a manual unroll measured no faster.
//!
//! Every lane computes the *canonical* residue (`< 2^61 − 1`, exactly what
//! the scalar paths produce), so batch results are bitwise identical to the
//! scalar `hash_range` / `sign` calls — the equivalence tests below and the
//! sketch-level batteries in `sss-sketch` pin this. The scalar
//! [`FourWiseSign::sign`] keeps Horner's rule as the reference.
//!
//! `sss-lint`'s `batch_kernel` rule enforces that per-item `hash_range`
//! calls never appear in `update_batch` bodies outside this module.

use crate::mix::fingerprint64;
use crate::poly::{mod_p61, PairwiseHash, MERSENNE_PRIME_61};
use crate::sign::FourWiseSign;

/// Number of independent field elements evaluated per straight-line
/// iteration of the batch kernels.
pub const LANES: usize = 4;

/// Reduce a chunk of raw inputs into the hash field (`x mod (2^61 − 1)`),
/// reusing `out`'s capacity. Residues computed here feed every `*_batch`
/// kernel for the chunk, so each item is reduced once regardless of how many
/// hash functions consume it.
#[inline]
pub fn reduce_inputs(xs: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(xs.iter().map(|&x| PairwiseHash::reduce_input(x)));
}

/// One affine lane: `fingerprint64((a·xr + b) mod p)`.
///
/// `a·xr + b < p² + p < 2^122` fits a `u128`, so a single [`mod_p61`] yields
/// the canonical residue — the same value the scalar
/// [`PairwiseHash::hash_prereduced`] computes.
#[inline(always)]
fn affine_fp(a: u64, b: u64, xr: u64) -> u64 {
    debug_assert!(xr < MERSENNE_PRIME_61);
    fingerprint64(mod_p61((a as u128) * (xr as u128) + b as u128))
}

impl PairwiseHash {
    /// Batch [`PairwiseHash::hash_range`] over prereduced inputs.
    ///
    /// `xrs` must hold residues from [`reduce_inputs`]; `out` must be at
    /// least as long as `xrs` (extra tail entries are left untouched).
    /// `out[i]` receives exactly `self.hash_range(x_i, range)`.
    pub fn hash_range_batch(&self, xrs: &[u64], range: usize, out: &mut [usize]) {
        debug_assert!(range > 0);
        debug_assert!(out.len() >= xrs.len());
        let (a, b) = self.affine();
        let r = range as u128;
        let mut chunks = xrs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (c, o) in (&mut chunks).zip(&mut outs) {
            // Four independent multiply/reduce/mix chains; the CPU overlaps
            // their 128-bit products while `a`/`b`/`r` stay in registers.
            let h0 = affine_fp(a, b, c[0]);
            let h1 = affine_fp(a, b, c[1]);
            let h2 = affine_fp(a, b, c[2]);
            let h3 = affine_fp(a, b, c[3]);
            o[0] = (((h0 as u128) * r) >> 64) as usize;
            o[1] = (((h1 as u128) * r) >> 64) as usize;
            o[2] = (((h2 as u128) * r) >> 64) as usize;
            o[3] = (((h3 as u128) * r) >> 64) as usize;
        }
        for (&xr, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = (((affine_fp(a, b, xr) as u128) * r) >> 64) as usize;
        }
    }

    /// Batch `fingerprint64(hash(x))` over prereduced inputs — the KMV
    /// ordering fingerprint. Same contract as
    /// [`PairwiseHash::hash_range_batch`].
    pub fn fingerprints_batch(&self, xrs: &[u64], out: &mut [u64]) {
        debug_assert!(out.len() >= xrs.len());
        let (a, b) = self.affine();
        let mut chunks = xrs.chunks_exact(LANES);
        let mut outs = out.chunks_exact_mut(LANES);
        for (c, o) in (&mut chunks).zip(&mut outs) {
            o[0] = affine_fp(a, b, c[0]);
            o[1] = affine_fp(a, b, c[1]);
            o[2] = affine_fp(a, b, c[2]);
            o[3] = affine_fp(a, b, c[3]);
        }
        for (&xr, o) in chunks.remainder().iter().zip(outs.into_remainder()) {
            *o = affine_fp(a, b, xr);
        }
    }
}

/// A chunk of inputs reduced into the hash field, with each residue's
/// square and cube mod `p` — the powers every degree-3 sign row of the
/// chunk reads. Reusable across chunks: [`FieldPowers::reduce`] keeps the
/// buffers' capacity.
#[derive(Debug, Default)]
pub struct FieldPowers {
    x1: Vec<u64>,
    x2: Vec<u64>,
    x3: Vec<u64>,
}

impl FieldPowers {
    /// Reduce `xs` into the field (as [`reduce_inputs`] does) and compute
    /// `x²` and `x³` mod `p` for each residue.
    pub fn reduce(&mut self, xs: &[u64]) {
        reduce_inputs(xs, &mut self.x1);
        self.x2.clear();
        self.x3.clear();
        for &x in &self.x1 {
            let x2 = mod_p61((x as u128) * (x as u128));
            self.x2.push(x2);
            self.x3.push(mod_p61((x2 as u128) * (x as u128)));
        }
    }

    /// The residues `x mod p`, for the affine kernels.
    #[inline]
    pub fn residues(&self) -> &[u64] {
        &self.x1
    }
}

/// One degree-3 sign lane from shared powers: `c₃x³ + c₂x² + c₁x + c₀`
/// summed in a `u128` (at most `3(p − 1)² + (p − 1) < 2^124`) and reduced
/// once to the canonical residue, whose mixed low bit is the sign.
#[inline(always)]
fn cubic_sign(c: &[u64; 4], x1: u64, x2: u64, x3: u64) -> i64 {
    debug_assert!(x1 < MERSENNE_PRIME_61 && x2 < MERSENNE_PRIME_61 && x3 < MERSENNE_PRIME_61);
    let sum = (c[3] as u128) * (x3 as u128)
        + (c[2] as u128) * (x2 as u128)
        + (c[1] as u128) * (x1 as u128)
        + c[0] as u128;
    if fingerprint64(mod_p61(sum)) & 1 == 0 {
        1
    } else {
        -1
    }
}

impl FourWiseSign {
    /// The polynomial's four coefficients, constant term first. Canonical
    /// residues: `PolyHash::new` draws them below `p` and decode rejects
    /// any coefficient `≥ p`.
    #[inline]
    fn cubic(&self) -> [u64; 4] {
        let c = self.poly().coeffs();
        [c[0], c[1], c[2], c[3]]
    }

    /// Batch [`FourWiseSign::sign`] over a chunk's shared powers. `out`
    /// must be at least as long as the chunk (extra tail entries are left
    /// untouched); `out[i]` receives exactly `self.sign(x_i)` as `±1`.
    pub fn signs_batch(&self, pw: &FieldPowers, out: &mut [i64]) {
        debug_assert!(out.len() >= pw.x1.len());
        let c = self.cubic();
        let xs = pw.x1.iter().zip(&pw.x2).zip(&pw.x3);
        for (o, ((&x1, &x2), &x3)) in out.iter_mut().zip(xs) {
            *o = cubic_sign(&c, x1, x2, x3);
        }
    }

    /// Sum of [`FourWiseSign::sign`] over a chunk's shared powers — the
    /// AMS tug-of-war inner loop, with no intermediate buffer.
    pub fn sign_sum_batch(&self, pw: &FieldPowers) -> i64 {
        let c = self.cubic();
        let xs = pw.x1.iter().zip(&pw.x2).zip(&pw.x3);
        xs.map(|((&x1, &x2), &x3)| cubic_sign(&c, x1, x2, x3)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_codec::{Reader, WireCodec};

    fn inputs() -> Vec<u64> {
        // Exercise the field boundary, the lane remainder, and plain values.
        let mut xs: Vec<u64> = (0..1027u64).map(|i| i.wrapping_mul(0x9E37_79B9)).collect();
        xs.extend([
            0,
            1,
            MERSENNE_PRIME_61 - 1,
            MERSENNE_PRIME_61,
            MERSENNE_PRIME_61 + 1,
            u64::MAX,
        ]);
        xs
    }

    #[test]
    fn hash_range_batch_matches_scalar() {
        let xs = inputs();
        for seed in 0..8u64 {
            let h = PairwiseHash::new(seed);
            for range in [1usize, 2, 17, 1024, 1 << 20] {
                let mut xr = Vec::new();
                reduce_inputs(&xs, &mut xr);
                let mut out = vec![0usize; xs.len()];
                h.hash_range_batch(&xr, range, &mut out);
                for (&x, &o) in xs.iter().zip(&out) {
                    assert_eq!(o, h.hash_range(x, range), "seed {seed} range {range} x {x}");
                }
            }
        }
    }

    #[test]
    fn fingerprints_batch_matches_scalar() {
        let xs = inputs();
        for seed in 0..8u64 {
            let h = PairwiseHash::new(seed);
            let mut xr = Vec::new();
            reduce_inputs(&xs, &mut xr);
            let mut out = vec![0u64; xs.len()];
            h.fingerprints_batch(&xr, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, fingerprint64(h.hash(x)), "seed {seed} x {x}");
            }
        }
    }

    /// The sign functions under test: random draws, plus the polynomial
    /// whose four coefficients are all `p − 1`, which drives the power-sum
    /// kernel's `u128` accumulator to its largest value on residue `p − 1`.
    fn sign_functions() -> Vec<FourWiseSign> {
        let mut bytes = Vec::new();
        vec![MERSENNE_PRIME_61 - 1; 4].encode_into(&mut bytes);
        let edge = FourWiseSign::decode(&mut Reader::new(&bytes)).expect("valid polynomial");
        (0..8u64).map(FourWiseSign::new).chain([edge]).collect()
    }

    #[test]
    fn signs_batch_matches_scalar() {
        let xs = inputs();
        let mut pw = FieldPowers::default();
        pw.reduce(&xs);
        for (f, s) in sign_functions().iter().enumerate() {
            let mut out = vec![0i64; xs.len()];
            s.signs_batch(&pw, &mut out);
            for (&x, &o) in xs.iter().zip(&out) {
                assert_eq!(o, s.sign(x), "function {f} x {x}");
            }
        }
    }

    #[test]
    fn sign_sum_matches_scalar_sum() {
        let xs = inputs();
        let mut pw = FieldPowers::default();
        pw.reduce(&xs);
        for (f, s) in sign_functions().iter().enumerate() {
            let scalar: i64 = xs.iter().map(|&x| s.sign(x)).sum();
            assert_eq!(s.sign_sum_batch(&pw), scalar, "function {f}");
        }
    }

    #[test]
    fn field_powers_are_canonical_squares_and_cubes() {
        let xs = inputs();
        let mut pw = FieldPowers::default();
        pw.reduce(&xs);
        let p = MERSENNE_PRIME_61 as u128;
        for (i, &x) in xs.iter().enumerate() {
            let x1 = x as u128 % p;
            assert_eq!(pw.x1[i] as u128, x1, "x {x}");
            assert_eq!(pw.x2[i] as u128, x1 * x1 % p, "x {x}");
            assert_eq!(pw.x3[i] as u128, x1 * x1 % p * x1 % p, "x {x}");
        }
        pw.reduce(&[]);
        assert!(pw.x1.is_empty() && pw.x2.is_empty() && pw.x3.is_empty());
    }

    #[test]
    fn reduce_inputs_reuses_capacity() {
        let mut out = Vec::new();
        reduce_inputs(&[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        let cap = out.capacity();
        reduce_inputs(&[u64::MAX], &mut out);
        assert_eq!(out.len(), 1);
        assert!(out.capacity() >= cap.min(1));
        assert_eq!(out[0], PairwiseHash::reduce_input(u64::MAX));
    }
}
