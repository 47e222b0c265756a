//! Heavy hitters of the original stream from the sampled stream
//! (paper §6, Theorems 6 and 7).
//!
//! Both algorithms run a standard heavy-hitter sketch **on the sampled
//! stream** with shifted parameters, then scale reported frequencies by
//! `1/p`:
//!
//! * **`F_1` (Theorem 6)**: CountMin with `α′ = (1 − 2ε/5)·α`, `ε′ = ε/2`,
//!   `δ′ = δ/4`. Correct whenever
//!   `F_1(P) ≥ C·p⁻¹·α⁻¹·ε⁻²·log(n/δ)` — below that, heavy items may not
//!   concentrate in the sample.
//! * **`F_2` (Theorem 7)**: CountSketch with `α′ = (1 − 2ε/5)·α·√p`,
//!   `ε′ = ε/10`, `δ′ = δ/4`. Output is an
//!   `(α, 1 − √p(1−ε))` reporter: every `f_i ≥ α·√F_2(P)` is returned, and
//!   nothing with `f_i < (1−ε)·√p·α·√F_2(P)` — the `√p` weakening is
//!   intrinsic (the sampled `F_2` concentrates at
//!   `p²F_2(P) + p(1−p)F_1(P)`, not `p²F_2(P)`).
//!
//! That is one construction, so one estimator, [`SampledHeavyHitters<S>`],
//! implements it over the sketch crate's [`HeavyHitters<S>`] reporter. The
//! two theorems differ only in the sketch `S` and in their constructors
//! (the parameter shift) and premise checks, which are inherent impls on
//! [`SampledF1HeavyHitters`] and [`SampledF2HeavyHitters`].

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::{
    CmHeavyHitters, CountMin, CountSketch, CsHeavyHitters, HeavyHitters, Mismatch, PointSketch,
};

use crate::estimate::{
    check_rates, Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator,
};

/// Theorems 6 and 7: heavy hitters of `P` from the point-query sketch `S`
/// run over `L`, frequencies scaled by `1/p`.
#[derive(Debug, Clone)]
pub struct SampledHeavyHitters<S> {
    inner: HeavyHitters<S>,
    alpha: f64,
    eps: f64,
    delta: f64,
    p: f64,
}

/// Theorem 6: `F_1` heavy hitters of `P` from CountMin over `L`.
///
/// ```
/// use sss_core::{SampledF1HeavyHitters, SubsampledEstimator};
///
/// let p = 0.5;
/// let mut hh = SampledF1HeavyHitters::new(0.3, 0.2, 0.05, p, 7);
/// // Sampled stream: item 9 dominates.
/// for i in 0..1000u64 {
///     hh.update(if i % 2 == 0 { 9 } else { i });
/// }
/// let report = hh.report();
/// assert_eq!(report[0].0, 9);
/// // Reported frequency is rescaled to original-stream units (≈ 500/p).
/// assert!((report[0].1 - 1000.0).abs() < 50.0);
/// ```
pub type SampledF1HeavyHitters = SampledHeavyHitters<CountMin>;

/// Theorem 7: `F_2` heavy hitters of `P` from CountSketch over `L`.
pub type SampledF2HeavyHitters = SampledHeavyHitters<CountSketch>;

/// The domain both theorems' constructors check before shifting.
fn assert_params(alpha: f64, eps: f64, delta: f64, p: f64) {
    assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
    assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
    assert!(delta > 0.0 && delta < 1.0, "delta must be in (0,1)");
    assert!(p > 0.0 && p <= 1.0, "p must be in (0,1]");
}

impl SampledF1HeavyHitters {
    /// Reporter for every item with `f_i ≥ α·F_1(P)`, rejecting items with
    /// `f_i < (1−ε)·α·F_1(P)`, at confidence `1 − δ`, under sampling rate
    /// `p`.
    pub fn new(alpha: f64, eps: f64, delta: f64, p: f64, seed: u64) -> Self {
        assert_params(alpha, eps, delta, p);
        // Theorem 6's parameter shift.
        let alpha_prime = (1.0 - 2.0 * eps / 5.0) * alpha;
        let eps_prime = eps / 2.0;
        let delta_prime = delta / 4.0;
        // Our CountMin reporter takes a *point-query* error; excluding
        // items below (1−ε′)·α′·F_1(L) needs point error ε′·α′·F_1(L).
        let point_eps = eps_prime * alpha_prime;
        Self {
            inner: CmHeavyHitters::new(alpha_prime, point_eps, delta_prime, seed),
            alpha,
            eps,
            delta,
            p,
        }
    }

    /// Theorem 6's premise: the minimum `F_1(P)` for the guarantee, i.e.
    /// `C·p⁻¹·α⁻¹·ε⁻²·ln(n/δ)` with the constant set to 4.
    pub fn premise_min_f1(&self, n: u64) -> f64 {
        theorem6_min_f1(self.p, self.alpha, self.eps, self.delta, n)
    }
}

impl SampledF2HeavyHitters {
    /// Reporter for every item with `f_i ≥ α·√F_2(P)` at confidence
    /// `1 − δ` under sampling rate `p`; items below
    /// `(1−ε)·√p·α·√F_2(P)` are rejected.
    pub fn new(alpha: f64, eps: f64, delta: f64, p: f64, seed: u64) -> Self {
        assert_params(alpha, eps, delta, p);
        // Theorem 7's parameter shift. The classification cutoffs use the
        // theorem's α′ and ε′ = ε/10; the CountSketch itself is sized for
        // point error (ε/2)·α′·√F_2(L), which already separates the
        // reported band from the rejected band — the paper's ε/10 slack
        // services its union-bound constants and would inflate width by a
        // further 25× without changing the asymptotics (width ∝ 1/(ε²α²p)
        // either way).
        let alpha_prime = (1.0 - 2.0 * eps / 5.0) * alpha * p.sqrt();
        let delta_prime = delta / 4.0;
        let point_eps = ((eps / 2.0) * alpha_prime).min(0.5);
        Self {
            inner: CsHeavyHitters::new(alpha_prime.min(0.999), point_eps, delta_prime, seed),
            alpha,
            eps,
            delta,
            p,
        }
    }

    /// Theorem 7's premise on the original stream:
    /// `√F_2(P) ≥ C·p^{−3/2}·α⁻¹·ε⁻²·ln(n/δ)` (constant `C = 1`).
    pub fn premise_min_sqrt_f2(&self, n: u64) -> f64 {
        theorem7_min_sqrt_f2(self.p, self.alpha, self.eps, self.delta, n)
    }

    /// Theorem 7's side condition `p = Ω̃(m^{−1/2})` (constants 1).
    pub fn rate_admissible(&self, m: u64) -> bool {
        self.p >= (m.max(1) as f64).powf(-0.5)
    }
}

/// Theorem 6's premise threshold on `F_1(P)` (constant `C = 4`).
pub fn theorem6_min_f1(p: f64, alpha: f64, eps: f64, delta: f64, n: u64) -> f64 {
    4.0 * (n as f64 / delta).ln() / (p * alpha * eps * eps)
}

/// Theorem 7's premise threshold on `√F_2(P)` (constant `C = 1`).
pub fn theorem7_min_sqrt_f2(p: f64, alpha: f64, eps: f64, delta: f64, n: u64) -> f64 {
    (n as f64 / delta).ln() / (p.powf(1.5) * alpha * eps * eps)
}

impl<S: PointSketch> SampledHeavyHitters<S> {
    /// The target fraction `α` (relative to `F_1(P)` or `√F_2(P)`).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The underlying reporter (the concurrent pipeline promotes it to a
    /// shared-atomic grid).
    pub(crate) fn inner(&self) -> &HeavyHitters<S> {
        &self.inner
    }

    /// Install a quiesced reporter back, keeping the theorem parameters.
    pub(crate) fn replace_inner(&mut self, inner: HeavyHitters<S>) {
        self.inner = inner;
    }

    /// Memory footprint in 64-bit words. For Theorem 6 it is
    /// `O(ε⁻¹·log²(n/(αδ)))` bits, *independent of `p`* (the premise on
    /// `F_1(P)` is what moves with `p`); for Theorem 7 the `α′ ∝ √p` shift
    /// makes the CountSketch width scale as `Õ(1/p)` — the paper's
    /// `Õ(1/p)` bound for `k = 2` (§1.2, item 4).
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// Report `(item, estimated f_i in P)` sorted by decreasing estimate;
    /// frequencies are the sampled estimates scaled by `1/p` (for Theorem
    /// 6 they satisfy `f′_i ∈ (1±ε)·f_i` under the theorem's premise).
    pub fn report(&self) -> Vec<(u64, f64)> {
        self.inner
            .report()
            .into_iter()
            .map(|(i, g)| (i, g as f64 / self.p))
            .collect()
    }
}

impl<S: PointSketch> SubsampledEstimator for SampledHeavyHitters<S> {
    fn statistic(&self) -> Statistic {
        match S::MOMENT {
            1 => Statistic::F1HeavyHitters,
            _ => Statistic::F2HeavyHitters,
        }
    }

    fn update(&mut self, x: u64) {
        self.inner.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.inner.update_batch(xs);
    }

    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.inner.merge(&other.inner);
    }

    /// The rate check, then the theorem parameters equal up to float
    /// noise, then the reporter's own check.
    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        let same = [
            (self.alpha, other.alpha),
            (self.eps, other.eps),
            (self.delta, other.delta),
        ]
        .iter()
        .all(|(a, b)| (a - b).abs() < 1e-15);
        Mismatch::unless(same, "SampledHeavyHitters (alpha, eps, delta)")?;
        Ok(self.inner.check_merge(&other.inner)?)
    }

    fn estimate(&self) -> Estimate {
        Estimate::heavy_hitters(
            self.report(),
            Guarantee::HeavyHitters {
                alpha: self.alpha,
                eps: self.eps,
                delta: self.delta,
            },
            self.p,
            self.inner.n(),
        )
    }

    fn space_bytes(&self) -> usize {
        8 * self.space_words()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn samples_seen(&self) -> u64 {
        self.inner.n()
    }
}

/// Payload codec shared by both theorems: `alpha ‖ eps ‖ delta ‖ p ‖
/// reporter` (each gets its own wire tag: the sketch is part of the
/// identity).
impl<S: PointSketch> SampledHeavyHitters<S>
where
    HeavyHitters<S>: WireCodec,
{
    fn encode_fields(&self, out: &mut Vec<u8>) {
        self.alpha.encode_into(out);
        self.eps.encode_into(out);
        self.delta.encode_into(out);
        self.p.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode_fields(r: &mut Reader) -> Result<Self, CodecError> {
        let alpha = r.prob_open()?;
        let eps = r.prob_open()?;
        let delta = r.prob_open()?;
        let p = r.rate()?;
        let inner = HeavyHitters::<S>::decode(r)?;
        Ok(Self {
            inner,
            alpha,
            eps,
            delta,
            p,
        })
    }
}

impl WireCodec for SampledF1HeavyHitters {
    const WIRE_TAG: u16 = 0x0405;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
    }
}

impl WireCodec for SampledF2HeavyHitters {
    const WIRE_TAG: u16 = 0x0406;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::{BernoulliSampler, ExactStats, PlantedHeavyHitters, StreamGen};

    #[test]
    fn f1_hh_recall_and_precision_under_sampling() {
        // 4 heavies at 15% each over light background; α = 0.1.
        let gen = PlantedHeavyHitters::new(1 << 20, 4, 0.6);
        let n = 400_000;
        let seed = 3;
        let stream = gen.generate(n, seed);
        let heavies = gen.heavy_items(seed);
        let stats = ExactStats::from_stream(stream.iter().copied());

        for &p in &[0.1f64, 0.3, 1.0] {
            let mut hh = SampledF1HeavyHitters::new(0.1, 0.2, 0.05, p, 11);
            assert!(
                n as f64 >= hh.premise_min_f1(n),
                "premise violated at p={p}; enlarge the stream"
            );
            let mut sampler = BernoulliSampler::new(p, 13);
            sampler.sample_slice(&stream, |x| hh.update(x));
            let report = hh.report();
            let found: Vec<u64> = report.iter().map(|&(i, _)| i).collect();
            for &h in &heavies {
                assert!(found.contains(&h), "p={p}: missing heavy {h}");
            }
            // No item below (1−ε)αF1 may be reported.
            let cutoff = (1.0 - 0.2) * 0.1 * n as f64;
            for &(i, _) in &report {
                assert!(
                    stats.freq(i) as f64 >= cutoff,
                    "p={p}: false positive {i} (f = {})",
                    stats.freq(i)
                );
            }
            // Scaled frequency estimates within (1±ε).
            for &(i, f_est) in &report {
                if heavies.contains(&i) {
                    let truth = stats.freq(i) as f64;
                    assert!(
                        (f_est - truth).abs() / truth <= 0.2,
                        "p={p}: item {i} est {f_est} vs {truth}"
                    );
                }
            }
        }
    }

    #[test]
    fn f2_hh_finds_planted_heavy_under_sampling() {
        // One elephant over singleton background: F_2-heavy but (comfortably)
        // light in F_1 terms.
        let n_background = 200_000u64;
        let elephant_freq = 8_000u64;
        let mut stream: Vec<u64> = (0..n_background).map(sss_hash::fingerprint64).collect();
        stream.extend(std::iter::repeat_n(42u64, elephant_freq as usize));
        let mut rng = sss_hash::Xoshiro256pp::new(5);
        use sss_hash::RngCore64;
        for i in (1..stream.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            stream.swap(i, j);
        }
        let stats = ExactStats::from_stream(stream.iter().copied());
        let sqrt_f2 = stats.fk(2).sqrt();
        assert!(elephant_freq as f64 >= 0.5 * sqrt_f2, "not F2-heavy");

        for &p in &[0.3f64, 1.0] {
            let mut hh = SampledF2HeavyHitters::new(0.5, 0.2, 0.05, p, 17);
            let mut sampler = BernoulliSampler::new(p, 19);
            sampler.sample_slice(&stream, |x| hh.update(x));
            let report = hh.report();
            let found: Vec<u64> = report.iter().map(|&(i, _)| i).collect();
            assert!(found.contains(&42), "p={p}: elephant missed ({found:?})");
            // Nothing below the theorem's weakened cutoff may appear.
            let cutoff = (1.0 - 0.2) * p.sqrt() * 0.5 * sqrt_f2;
            for &(i, _) in &report {
                assert!(stats.freq(i) as f64 >= cutoff, "p={p}: false positive {i}");
            }
            // Frequency estimate of the elephant within 25%.
            let est = report.iter().find(|&&(i, _)| i == 42).unwrap().1;
            assert!(
                (est - elephant_freq as f64).abs() / elephant_freq as f64 <= 0.25,
                "p={p}: est {est}"
            );
        }
    }

    #[test]
    fn premise_thresholds_scale_correctly() {
        let t1 = theorem6_min_f1(0.1, 0.1, 0.1, 0.05, 1_000_000);
        let t2 = theorem6_min_f1(0.01, 0.1, 0.1, 0.05, 1_000_000);
        assert!((t2 / t1 - 10.0).abs() < 1e-9, "min F1 must scale as 1/p");
        let s1 = theorem7_min_sqrt_f2(0.1, 0.1, 0.1, 0.05, 1_000_000);
        let s2 = theorem7_min_sqrt_f2(0.025, 0.1, 0.1, 0.05, 1_000_000);
        assert!((s2 / s1 - 8.0).abs() < 1e-9, "min √F2 must scale as p^-3/2");
    }

    #[test]
    fn f2_space_grows_as_p_shrinks() {
        let a = SampledF2HeavyHitters::new(0.3, 0.2, 0.05, 1.0, 1);
        let b = SampledF2HeavyHitters::new(0.3, 0.2, 0.05, 0.01, 1);
        assert!(
            b.space_words() > 10 * a.space_words(),
            "α′ ∝ √p must widen the sketch: {} vs {}",
            b.space_words(),
            a.space_words()
        );
    }

    #[test]
    fn rate_admissibility() {
        let hh = SampledF2HeavyHitters::new(0.3, 0.2, 0.05, 0.01, 1);
        assert!(hh.rate_admissible(1 << 20)); // m^-1/2 ≈ 0.001
        assert!(!hh.rate_admissible(100)); // m^-1/2 = 0.1
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn invalid_alpha_rejected() {
        let _ = SampledF1HeavyHitters::new(1.5, 0.1, 0.1, 0.5, 1);
    }
}
