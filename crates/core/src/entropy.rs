//! Entropy of the original stream from the sampled stream (paper §5).
//!
//! No multiplicative approximation of `H(f)` is possible in general, even
//! at constant sampling rates (Lemma 9) — the hard instances are provided
//! by [`sss_stream::EntropyScenarioPair`] and reproduced in experiment E5.
//! The positive result (Theorem 5): the empirical entropy of the *sampled*
//! stream, normalised by `pn` (Proposition 1), is a constant-factor
//! approximation of `H(f)` whenever
//!
//! ```text
//! H(f) = ω(p^{−1/2}·n^{−1/6})       (and p = ω(n^{−1/3})),
//! ```
//!
//! specifically `H_pn(g) ≤ O(H(f))` and `H_pn(g) ≥ H(f)/2 − O(p^{−1/2}n^{−1/6})`
//! (Lemma 10). So the whole algorithm is: run a small-space multiplicative
//! entropy estimator on `L` and report its output.

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::entropy::EntropyEstimator;

use crate::estimate::{Estimate, Guarantee, Statistic, SubsampledEstimator};

/// Theorem 5's estimator: a streaming multiplicative estimate of `H(g)`
/// interpreted as a constant-factor estimate of `H(f)`.
#[derive(Debug, Clone)]
pub struct SampledEntropyEstimator {
    inner: EntropyEstimator,
    p: f64,
    /// Entropy mass folded in from merged shards: `Σ n_shard·Ĥ_shard`.
    merged_weight: f64,
    /// Sampled elements those shards had seen.
    merged_n: u64,
}

impl SampledEntropyEstimator {
    /// Estimator for sampling rate `p` with `t` reservoir slots in the
    /// underlying entropy sketch.
    pub fn new(p: f64, t: usize, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        Self {
            inner: EntropyEstimator::new(t, seed),
            p,
            merged_weight: 0.0,
            merged_n: 0,
        }
    }

    /// Memory footprint in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// The `pn`-normalised entropy `H_pn(g) = Σ (g_i/pn)·lg(pn/g_i)` of
    /// Proposition 1, computed from the estimate of `H(g)` and the known
    /// original length `n` via the exact identity
    /// `H_pn(g) = (n′/pn)·(H(g) + lg(pn/n′))`.
    ///
    /// Proposition 1 shows `|H_pn(g) − H(g)| = O(log m/√(pn))` w.h.p., so
    /// the two views agree up to vanishing terms; `H_pn` is the quantity
    /// Lemma 10's two-sided bounds are stated for.
    pub fn estimate_hpn(&self, n_original: u64) -> f64 {
        let n_prime = self.samples_seen() as f64;
        if n_prime == 0.0 {
            return 0.0;
        }
        let pn = self.p * n_original as f64;
        let scale = n_prime / pn;
        (scale * (self.estimate().value + (pn / n_prime).log2())).max(0.0)
    }

    /// The Theorem 5 admissibility threshold: the guarantee holds when
    /// `H(f)` exceeds (a constant times) `p^{−1/2}·n^{−1/6}`.
    pub fn guarantee_threshold(&self, n_original: u64) -> f64 {
        self.p.powf(-0.5) * (n_original as f64).powf(-1.0 / 6.0)
    }

    /// Lemma 10's requirement on the sampling rate: `p = ω(n^{−1/3})`.
    /// Returns whether `p ≥ n^{−1/3}` (the threshold with constants 1).
    pub fn rate_admissible(&self, n_original: u64) -> bool {
        self.p >= (n_original as f64).powf(-1.0 / 3.0)
    }
}

impl SubsampledEstimator for SampledEntropyEstimator {
    fn statistic(&self) -> Statistic {
        Statistic::Entropy
    }

    fn update(&mut self, x: u64) {
        self.inner.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.inner.update_batch(xs);
    }

    /// Afterwards `self` reports the length-weighted average of the shard
    /// entropies, `Σ n_s·Ĥ_s / Σ n_s`.
    ///
    /// Unlike the collision and bottom-k merges this is **approximate**:
    /// the suffix-count reservoir is not mergeable, and the weighted
    /// average is the entropy of the *mixture* of the shard distributions
    /// minus their Jensen–Shannon divergence. When shards carry slices of
    /// the same traffic mix (the sharded-monitor deployment) the
    /// divergence term vanishes and the merge is consistent; adversarially
    /// disjoint shards can lose up to `lg(#shards)` bits — still inside
    /// Theorem 5's constant-factor contract whenever `H(f)` is above its
    /// admissibility threshold by that margin.
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] (the rate check)
    /// fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.merged_weight += other.inner.n() as f64 * other.inner.estimate() + other.merged_weight;
        self.merged_n += other.inner.n() + other.merged_n;
    }

    /// The reservoir replacement randomness is the estimator's only
    /// shard-local randomness. The merge is a length-weighted average
    /// with no shared hash state, so shards with different reservoir
    /// seeds stay fully mergeable.
    fn reseed_shard_local(&mut self, seed: u64) {
        self.inner.reseed(seed);
    }

    /// The estimate of `H(g)` (entropy of the sampled stream, bits) —
    /// Theorem 5's constant-factor approximation of `H(f)` in its regime.
    /// After a merge, the length-weighted average over shards.
    fn estimate(&self) -> Estimate {
        let n_local = self.inner.n();
        let value = if self.merged_n == 0 {
            self.inner.estimate()
        } else {
            (n_local as f64 * self.inner.estimate() + self.merged_weight)
                / (n_local + self.merged_n) as f64
        };
        Estimate::scalar(
            value,
            Guarantee::ConstantFactor,
            self.p,
            self.samples_seen(),
        )
    }

    fn space_bytes(&self) -> usize {
        8 * self.space_words()
    }

    fn p(&self) -> f64 {
        self.p
    }

    /// `n′ = |L|`, including merged shards.
    fn samples_seen(&self) -> u64 {
        self.inner.n() + self.merged_n
    }
}

impl WireCodec for SampledEntropyEstimator {
    const WIRE_TAG: u16 = 0x0404;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.merged_weight.encode_into(out);
        self.merged_n.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = crate::f0::decode_rate(r)?;
        let merged_weight = r.f64()?;
        let merged_n = r.u64()?;
        let inner = EntropyEstimator::decode(r)?;
        Ok(SampledEntropyEstimator {
            inner,
            p,
            merged_weight,
            merged_n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::{
        BernoulliSampler, EntropyScenarioPair, ExactStats, StreamGen, UniformStream, ZipfStream,
    };

    fn run(stream: &[u64], p: f64, t: usize, seed: u64) -> SampledEntropyEstimator {
        let mut est = SampledEntropyEstimator::new(p, t, seed);
        let mut sampler = BernoulliSampler::new(p, seed ^ 0xABCD);
        sampler.sample_slice(stream, |x| est.update(x));
        est
    }

    #[test]
    fn high_entropy_stream_constant_factor() {
        // Uniform over 4096 items: H(f) = 12 bits, far above threshold.
        let stream = UniformStream::new(4096).generate(400_000, 1);
        let h = ExactStats::from_stream(stream.iter().copied()).entropy();
        for &p in &[0.1f64, 0.5] {
            let est = run(&stream, p, 3000, 2);
            let ratio = est.estimate().value / h;
            assert!(
                (0.5..=2.0).contains(&ratio),
                "p={p}: ratio {ratio} (est {} vs H {h})",
                est.estimate().value
            );
        }
    }

    #[test]
    fn skewed_stream_still_constant_factor() {
        let stream = ZipfStream::new(10_000, 1.2).generate(300_000, 3);
        let h = ExactStats::from_stream(stream.iter().copied()).entropy();
        let est = run(&stream, 0.2, 3000, 4);
        let ratio = est.estimate().value / h;
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn hpn_close_to_hg_proposition1() {
        let stream = UniformStream::new(1024).generate(200_000, 5);
        let p = 0.3;
        // Exact H(g) via replaying the same sampler seed.
        let mut sampler = BernoulliSampler::new(p, 6 ^ 0xABCD);
        let mut sampled = Vec::new();
        sampler.sample_slice(&stream, |x| sampled.push(x));
        let hg = ExactStats::from_stream(sampled.iter().copied()).entropy();

        let est = run(&stream, p, 4000, 6);
        let hpn = est.estimate_hpn(stream.len() as u64);
        // |H_pn − H(g)| = O(log m/√(pn)): tiny here; allow estimator noise.
        assert!((hpn - hg).abs() / hg < 0.1, "hpn {hpn} vs hg {hg}");
    }

    #[test]
    fn lemma9_scenarios_are_indistinguishable_to_the_estimator() {
        // Scenario 1 (H=0) and scenario 2 (H>0): at rate p the estimator
        // reports ≈0 for both — the impossibility made concrete.
        let p = 0.02;
        let pair = EntropyScenarioPair::new(200_000, p, 1 << 20);
        let s1 = pair.scenario_one(7);
        let s2 = pair.scenario_two(7);
        let h2 = ExactStats::from_stream(s2.iter().copied()).entropy();
        assert!(h2 > 0.0);
        let e1 = run(&s1, p, 2000, 8).estimate().value;
        let e2 = run(&s2, p, 2000, 8).estimate().value;
        assert!(e1 < 0.01, "e1 = {e1}");
        assert!(e2 < 0.01, "e2 = {e2} (cannot see the singletons)");
        // Both streams sit below the guarantee threshold — exactly why
        // Theorem 5 excludes them.
        let est = SampledEntropyEstimator::new(p, 10, 1);
        assert!(h2 < est.guarantee_threshold(200_000));
    }

    #[test]
    fn all_singleton_stream_loses_lg_p_additively() {
        // Lemma 9 part 2: H(f) = lg n but H(g) = lg|L| ≈ lg(pn).
        let n = 1u64 << 17;
        let p = 1.0 / 64.0;
        let pair = EntropyScenarioPair::new(n, p, 1 << 18);
        let stream = pair.all_singletons(9);
        let est = run(&stream, p, 2000, 10);
        let hf = (n as f64).log2(); // 17 bits
        let hg_expected = hf + p.log2(); // ≈ 11 bits
        let e = est.estimate().value;
        assert!(
            (e - hg_expected).abs() < 0.5,
            "estimate {e} vs expected H(g) {hg_expected}"
        );
        assert!(e < hf - 5.0, "additive lg(1/p) loss not visible");
    }

    #[test]
    fn admissibility_helpers() {
        let est = SampledEntropyEstimator::new(0.1, 10, 1);
        // n = 10^6: n^{-1/3} = 0.01 < 0.1 ⇒ admissible.
        assert!(est.rate_admissible(1_000_000));
        let est2 = SampledEntropyEstimator::new(0.001, 10, 1);
        assert!(!est2.rate_admissible(1_000_000));
        let thr = est.guarantee_threshold(1_000_000);
        assert!((thr - 0.1f64.powf(-0.5) * 1e6f64.powf(-1.0 / 6.0)).abs() < 1e-12);
    }

    #[test]
    fn empty_estimator_is_zero() {
        let est = SampledEntropyEstimator::new(0.5, 10, 1);
        assert_eq!(est.estimate().value, 0.0);
        assert_eq!(est.estimate_hpn(100), 0.0);
    }
}
