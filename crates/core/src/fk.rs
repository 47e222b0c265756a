//! Algorithm 1: frequency moments of the original stream from the sampled
//! stream (paper §3, Theorem 1).
//!
//! The estimator observes only `L` and reconstructs `F_k(P)` through the
//! collision recursion
//!
//! ```text
//! φ̃_1 = F_1(L)/p
//! φ̃_ℓ = C̃_ℓ(L)·ℓ!/p^ℓ + Σ_{i<ℓ} β^ℓ_i·φ̃_i          (ℓ = 2, …, k)
//! ```
//!
//! using `E[C_ℓ(L)] = p^ℓ·C_ℓ(P)` (Lemma 2) and the falling-factorial
//! identity (Lemma 1). With the error schedule of Lemma 3 the output is a
//! `(1+ε, δ)`-estimator of `F_k(P)` in `Õ(p⁻¹m^{1−2/k})` space, provided
//! `p = Ω̃(min(m,n)^{−1/k})`.

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::levelset::LevelSetConfig;
use sss_sketch::Mismatch;

use crate::collisions::{CollisionOracle, ExactCollisions, LevelSetCollisions};
use crate::estimate::{
    check_rates, Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator,
};
use crate::params::ApproxParams;
use crate::stirling::{beta_coefficients, epsilon_schedule, factorial_f64, MAX_K};

/// The paper's Algorithm 1, generic over the collision oracle.
///
/// ```
/// use sss_core::{SampledFkEstimator, SubsampledEstimator};
///
/// // The monitor sees a p = 0.5 Bernoulli sample of a stream whose
/// // true F_2 is 3² + 2² + 1² = 14. Feed it the sampled elements:
/// let mut est = SampledFkEstimator::exact(2, 0.5);
/// for x in [7u64, 7, 9, 4] {
///     est.update(x); // the surviving half of <7,7,7,9,9,4>
/// }
/// // φ̃_2 = 2·C_2(L)/p² + F_1(L)/p = 2·1/0.25 + 4/0.5 = 16 ≈ F_2(P).
/// assert_eq!(est.estimate().value, 16.0);
/// ```
#[derive(Debug, Clone)]
pub struct SampledFkEstimator<O: CollisionOracle> {
    oracle: O,
    k: u32,
    p: f64,
    target: Option<ApproxParams>,
}

impl SampledFkEstimator<ExactCollisions> {
    /// Algorithm 1 with exact collision counting of the sampled stream
    /// (space `O(F_0(L))`): isolates the sampling error.
    pub fn exact(k: u32, p: f64) -> Self {
        Self::with_oracle(ExactCollisions::new(k), k, p)
    }
}

impl SampledFkEstimator<LevelSetCollisions> {
    /// Algorithm 1 with the Indyk–Woodruff sketched collision oracle —
    /// the paper's full small-space construction.
    pub fn sketched(k: u32, p: f64, config: &LevelSetConfig, seed: u64) -> Self {
        Self::with_oracle(LevelSetCollisions::new(k, config, seed), k, p)
    }
}

impl<O: CollisionOracle> SampledFkEstimator<O> {
    /// Algorithm 1 over an arbitrary collision oracle.
    pub fn with_oracle(oracle: O, k: u32, p: f64) -> Self {
        assert!((2..=MAX_K).contains(&k), "k must be in 2..={MAX_K}");
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        assert!(oracle.max_order() >= k, "oracle supports too few orders");
        Self {
            oracle,
            k,
            p,
            target: None,
        }
    }

    /// Record the `(1+ε, δ)` target this estimator was sized for, so the
    /// typed [`Estimate`] carries it (the oracle configuration, not this
    /// label, is what realises the contract).
    pub fn with_target(mut self, target: ApproxParams) -> Self {
        self.target = Some(target);
        self
    }

    /// The moment order `k`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Memory footprint in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.oracle.space_words()
    }

    /// Access the collision oracle (diagnostics, tests).
    pub fn oracle(&self) -> &O {
        &self.oracle
    }

    /// The recursion of Algorithm 1: `φ̃_1 … φ̃_k`
    /// (`result[ℓ-1] = φ̃_ℓ ≈ F_ℓ(P)`).
    pub fn estimate_all(&self) -> Vec<f64> {
        let mut phi = vec![0.0f64; self.k as usize];
        phi[0] = self.oracle.n() as f64 / self.p;
        for ell in 2..=self.k {
            let c = self.oracle.estimate(ell);
            let mut value = c * factorial_f64(ell) / self.p.powi(ell as i32);
            let beta = beta_coefficients(ell);
            for i in 1..ell {
                value += beta[i as usize - 1] as f64 * phi[i as usize - 1];
            }
            phi[ell as usize - 1] = value;
        }
        phi
    }

    /// Estimate of a single intermediate moment `F_ℓ(P)`, `1 ≤ ℓ ≤ k`.
    pub fn estimate_moment(&self, ell: u32) -> f64 {
        assert!(ell >= 1 && ell <= self.k);
        self.estimate_all()[ell as usize - 1]
    }
}

impl<O: CollisionOracle> SubsampledEstimator for SampledFkEstimator<O> {
    fn statistic(&self) -> Statistic {
        Statistic::Fk(self.k)
    }

    fn update(&mut self, x: u64) {
        self.oracle.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.oracle.update_batch(xs);
    }

    /// Exact for [`ExactCollisions`] (frequency algebra); within sketch
    /// error for [`LevelSetCollisions`] (linear CountSketch merge).
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.oracle.merge(&other.oracle);
    }

    /// Folds the oracles with [`CollisionOracle::merge_all`].
    fn merge_all(&mut self, others: &[&Self]) {
        for o in others {
            self.merge_compatible(o).unwrap_or_else(|e| panic!("{e}"));
        }
        let oracles: Vec<_> = others.iter().map(|o| &o.oracle).collect();
        self.oracle.merge_all(&oracles);
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        Mismatch::unless(self.k == other.k, "SampledFkEstimator moment order")?;
        Ok(self.oracle.check_merge(&other.oracle)?)
    }

    /// The `(1+ε, δ)` estimate `φ̃_k` of `F_k(P)`.
    fn estimate(&self) -> Estimate {
        Estimate::scalar(
            *self.estimate_all().last().expect("k >= 2"),
            Guarantee::Multiplicative {
                target: self.target,
            },
            self.p,
            self.oracle.n(),
        )
    }

    fn space_bytes(&self) -> usize {
        8 * self.space_words()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn samples_seen(&self) -> u64 {
        self.oracle.n()
    }
}

/// Payload codec shared by both oracle instantiations of Algorithm 1
/// (each gets its own wire tag: the oracle type is part of the identity).
impl<O: CollisionOracle + WireCodec> SampledFkEstimator<O> {
    fn encode_fields(&self, out: &mut Vec<u8>) {
        self.k.encode_into(out);
        self.p.encode_into(out);
        self.target.encode_into(out);
        self.oracle.encode_into(out);
    }

    fn decode_fields(r: &mut Reader) -> Result<Self, CodecError> {
        let k = r.u32()?;
        if !(2..=MAX_K).contains(&k) {
            return Err(CodecError::Invalid {
                what: "SampledFkEstimator k outside 2..=MAX_K",
            });
        }
        let p = crate::f0::decode_rate(r)?;
        let target = Option::<ApproxParams>::decode(r)?;
        let oracle = O::decode(r)?;
        if oracle.max_order() < k {
            return Err(CodecError::Invalid {
                what: "SampledFkEstimator oracle supports too few orders",
            });
        }
        Ok(SampledFkEstimator {
            oracle,
            k,
            p,
            target,
        })
    }
}

impl WireCodec for SampledFkEstimator<ExactCollisions> {
    const WIRE_TAG: u16 = 0x0402;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
    }
}

impl WireCodec for SampledFkEstimator<LevelSetCollisions> {
    const WIRE_TAG: u16 = 0x0403;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
    }
}

/// Theorem 1's admissibility condition on the sampling probability:
/// `p = Ω̃(min(m, n)^{−1/k})`. Returns the threshold with the polylog
/// factors set to 1; sampling below it forfeits the guarantee regardless of
/// space (Bar-Yossef's sampling lower bound, the paper's Theorem 4.33
/// citation).
pub fn min_sampling_probability(k: u32, m: u64, n: u64) -> f64 {
    assert!(k >= 1);
    let base = m.min(n).max(1) as f64;
    base.powf(-1.0 / k as f64)
}

/// The per-level relative errors `ε_1 … ε_k` Algorithm 1 budgets for a
/// final error of `eps` (re-export of the Lemma 3 schedule for callers
/// configuring the collision oracle's `ε′ = ε_{ℓ−1}/4`).
pub fn fk_error_schedule(k: u32, eps: f64) -> Vec<f64> {
    epsilon_schedule(k, eps)
}

/// A recommended level-set configuration for estimating `F_k` of a stream
/// over universe `m` sampled at rate `p`: width `∝ p⁻¹·m^{1−2/k}` (the
/// paper's space bound) with floors that keep tiny cases functional.
pub fn recommended_levelset_config(k: u32, m: u64, p: f64, eps: f64) -> LevelSetConfig {
    let m_f = m.max(2) as f64;
    // Õ(p⁻¹·m^{1−2/k}) with the leading poly(1/ε)·log m factors spelled
    // out (they are what the Õ hides; without the log m the k = 2 width
    // collapses to O(1/p) counters, starving recovery on wide universes).
    let width_f = (m_f.powf(1.0 - 2.0 / k as f64) * m_f.log2() / (p * eps * eps)).ceil();
    let width = (width_f as usize).clamp(64, 1 << 22);
    let mut cfg = LevelSetConfig::for_universe(m, width);
    // ε′ = ε_{k−1}/4 is the theory's choice; floor it for practicality.
    let sched = epsilon_schedule(k, eps);
    cfg.eps_prime = (sched[k as usize - 2] / 4.0).clamp(0.02, 0.25);
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream, ZipfStream};

    /// With p = 1 and exact collisions, the recursion is the identity of
    /// Lemma 1: the estimate equals F_k exactly.
    #[test]
    fn exact_at_p_one_recovers_moments_exactly() {
        let stream = ZipfStream::new(500, 1.2).generate(20_000, 1);
        let stats = ExactStats::from_stream(stream.iter().copied());
        for k in 2..=5u32 {
            let mut est = SampledFkEstimator::exact(k, 1.0);
            for &x in &stream {
                est.update(x);
            }
            let all = est.estimate_all();
            for ell in 1..=k {
                let truth = stats.fk(ell);
                let got = all[ell as usize - 1];
                assert!(
                    (got - truth).abs() <= 1e-6 * truth,
                    "k={k} ℓ={ell}: {got} vs {truth}"
                );
            }
        }
    }

    #[test]
    fn sampled_f2_concentrates_on_uniform_stream() {
        let stream = UniformStream::new(1000).generate(200_000, 2);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let p = 0.1;
        let mut errs = Vec::new();
        for seed in 0..10u64 {
            let mut est = SampledFkEstimator::exact(2, p);
            let mut sampler = BernoulliSampler::new(p, seed);
            sampler.sample_slice(&stream, |x| est.update(x));
            errs.push((est.estimate().value - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.total_cmp(b));
        // Median trial within 5%, no trial catastrophically off.
        assert!(errs[4] < 0.05, "median err {}", errs[4]);
        assert!(errs[9] < 0.2, "worst err {}", errs[9]);
    }

    #[test]
    fn sampled_f3_concentrates_on_zipf_stream() {
        let stream = ZipfStream::new(2000, 1.1).generate(150_000, 3);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(3);
        let p = 0.2;
        let mut errs = Vec::new();
        for seed in 0..10u64 {
            let mut est = SampledFkEstimator::exact(3, p);
            let mut sampler = BernoulliSampler::new(p, seed);
            sampler.sample_slice(&stream, |x| est.update(x));
            errs.push((est.estimate().value - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(errs[4] < 0.1, "median err {}", errs[4]);
    }

    #[test]
    fn sketched_estimator_tracks_f2() {
        let stream = ZipfStream::new(5000, 1.3).generate(100_000, 4);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let p = 0.25;
        let cfg = recommended_levelset_config(2, 5000, p, 0.2);
        let mut est = SampledFkEstimator::sketched(2, p, &cfg, 5);
        let mut sampler = BernoulliSampler::new(p, 6);
        sampler.sample_slice(&stream, |x| est.update(x));
        let rel = (est.estimate().value - truth).abs() / truth;
        assert!(rel < 0.3, "rel err {rel}");
    }

    #[test]
    fn estimate_moment_consistency() {
        let stream = UniformStream::new(100).generate(10_000, 7);
        let mut est = SampledFkEstimator::exact(4, 1.0);
        for &x in &stream {
            est.update(x);
        }
        let all = est.estimate_all();
        for ell in 1..=4u32 {
            assert_eq!(est.estimate_moment(ell), all[ell as usize - 1]);
        }
        assert_eq!(est.estimate().value, all[3]);
    }

    #[test]
    fn min_p_matches_formula() {
        assert!((min_sampling_probability(2, 10_000, 1 << 30) - 0.01).abs() < 1e-12);
        assert!(
            (min_sampling_probability(4, 1 << 20, 1 << 20)
                - (1u64 << 5) as f64 / (1u64 << 10) as f64)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn recommended_config_scales_with_p_and_k() {
        let narrow = recommended_levelset_config(2, 1 << 20, 0.5, 0.1);
        let wide = recommended_levelset_config(2, 1 << 20, 0.05, 0.1);
        assert!(wide.width >= 9 * narrow.width, "width must scale as 1/p");
        let k2 = recommended_levelset_config(2, 1 << 20, 0.1, 0.1);
        let k4 = recommended_levelset_config(4, 1 << 20, 0.1, 0.1);
        assert!(k4.width > k2.width, "higher k needs more width");
    }

    #[test]
    #[should_panic(expected = "k must be in")]
    fn k_one_rejected() {
        let _ = SampledFkEstimator::exact(1, 0.5);
    }
}
