//! Algorithm 2: distinct elements of the original stream from the sampled
//! stream (paper §4).
//!
//! `F_0(P)` cannot be estimated to better than `Ω(1/√p)` multiplicative
//! error from a Bernoulli sample (Theorem 4, via Charikar et al.'s sampling
//! lower bound). Algorithm 2 matches that up to a constant: compute a
//! `(1/2, δ)` streaming estimate `X` of `F_0(L)` and output `X/√p`; Lemma 8
//! shows the multiplicative error is at most `4/√p` with probability
//! `≥ 1 − (δ + e^{−p·F_0(P)/8})`.

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::kmv::MedianF0;

use crate::estimate::{
    check_rates, Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator,
};

/// Slots in the batch path's direct-mapped duplicate filter (256 KiB).
/// Sized well above the hot-item working set of skewed streams so
/// conflict evictions (which only cost re-hashing, never correctness)
/// stay rare.
const SEEN_SLOTS: usize = 32768;

/// Algorithm 2: `F_0(P)` estimation by scaled streaming `F_0(L)`.
///
/// ```
/// use sss_core::{SampledF0Estimator, SubsampledEstimator};
///
/// let p = 0.25;
/// let mut est = SampledF0Estimator::new(p, 0.05, 42);
/// for x in 0..500u64 {
///     est.update(x); // the sampled stream
/// }
/// // Output is F̂_0(L)/√p; whatever the original stream was, the
/// // multiplicative error is at most 4/√p = 8 (Lemma 8).
/// assert_eq!(est.error_factor(), 8.0);
/// let e = est.estimate().value;
/// assert!(e >= 500.0 / 8.0 && e <= 500.0 * 8.0);
/// ```
#[derive(Debug, Clone)]
pub struct SampledF0Estimator {
    inner: MedianF0,
    p: f64,
    n_sampled: u64,
    /// Direct-mapped filter over items the inner sketch has already
    /// ingested, used by `update_batch` to skip provable no-ops.
    ///
    /// Soundness: once a bottom-k copy has processed `x`, reprocessing it
    /// can never change that copy again — the hash is either still in the
    /// set (the insert is absorbed) or was evicted as the then-largest
    /// value, in which case it stays at or above the rejection threshold
    /// forever (the threshold only shrinks, including across merges). So a
    /// cache hit suppresses an exact no-op, never an approximation.
    ///
    /// Ingestion scratch, not sketch state: never serialized (decoding
    /// yields an empty filter, which is always sound — it only *misses*
    /// skippable work) and excluded from [`Self::space_words`].
    seen: Vec<u64>,
    /// Scratch holding the filter survivors of the current chunk.
    fresh: Vec<u64>,
}

impl SampledF0Estimator {
    /// Estimator for sampling rate `p`, using a median-boosted bottom-k
    /// sketch far exceeding the required `(1/2, δ)` accuracy on `F_0(L)`.
    pub fn new(p: f64, delta: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        // A (1+1/4, δ) inner estimator: stronger than the (1/2, δ) the
        // analysis needs, at O(1/0.25² · log 1/δ) words.
        Self {
            inner: MedianF0::with_error(0.25, delta, seed),
            p,
            n_sampled: 0,
            seen: Vec::new(),
            fresh: Vec::new(),
        }
    }

    /// Memory footprint in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.inner.space_words()
    }

    /// The streaming estimate `X ≈ F_0(L)` before rescaling.
    pub fn estimate_sampled(&self) -> f64 {
        self.inner.estimate()
    }

    /// Lemma 8's multiplicative error ceiling `4/√p`.
    pub fn error_factor(&self) -> f64 {
        4.0 / self.p.sqrt()
    }

    /// Lemma 8's success probability `1 − (δ + e^{−p·F_0/8})`, given the
    /// (unknown to the algorithm) true `F_0(P)` and the inner sketch's `δ`.
    pub fn success_probability(&self, true_f0: u64, delta: f64) -> f64 {
        1.0 - (delta + (-self.p * true_f0 as f64 / 8.0).exp())
    }
}

impl SubsampledEstimator for SampledF0Estimator {
    fn statistic(&self) -> Statistic {
        Statistic::F0
    }

    fn update(&mut self, x: u64) {
        self.n_sampled += 1;
        self.inner.update(x);
    }

    /// Items the duplicate filter proves already-seen are skipped before
    /// the copy-major inner loop ([`MedianF0::update_batch`]): a repeat is
    /// an exact no-op for every bottom-k copy (see the `seen` field docs),
    /// so the result is bit-identical to per-item updates.
    fn update_batch(&mut self, xs: &[u64]) {
        self.n_sampled += xs.len() as u64;
        if self.seen.is_empty() {
            self.seen.resize(SEEN_SLOTS, u64::MAX);
        }
        self.fresh.clear();
        for &x in xs {
            // Fibonacci hashing; top bits index the power-of-two table.
            let slot = (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 49) as usize;
            // `u64::MAX` doubles as the empty-slot sentinel, so that one
            // value is never considered cached (conservative: it is
            // re-processed on every occurrence, which is merely slower).
            if self.seen[slot] == x && x != u64::MAX {
                continue;
            }
            self.seen[slot] = x;
            self.fresh.push(x);
        }
        self.inner.update_batch(&self.fresh);
    }

    /// Bottom-k sketches are exactly mergeable: afterwards `self`
    /// estimates `F_0` of the union of both original streams.
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.inner.merge(&other.inner);
        self.n_sampled += other.n_sampled;
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        Ok(self.inner.check_merge(&other.inner)?)
    }

    /// Algorithm 2's output `X/√p`, an estimate of `F_0(P)` with
    /// multiplicative error at most [`SampledF0Estimator::error_factor`].
    fn estimate(&self) -> Estimate {
        Estimate::scalar(
            self.estimate_sampled() / self.p.sqrt(),
            Guarantee::BoundedFactor {
                factor: self.error_factor(),
            },
            self.p,
            self.n_sampled,
        )
    }

    fn space_bytes(&self) -> usize {
        8 * self.space_words()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn samples_seen(&self) -> u64 {
        self.n_sampled
    }
}

/// Validate a Bernoulli sampling rate arriving off the wire
/// (thin alias for [`Reader::rate`], shared by the core decoders).
pub(crate) fn decode_rate(r: &mut Reader) -> Result<f64, CodecError> {
    r.rate()
}

impl WireCodec for SampledF0Estimator {
    const WIRE_TAG: u16 = 0x0401;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.n_sampled.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = decode_rate(r)?;
        let n_sampled = r.u64()?;
        let inner = MedianF0::decode(r)?;
        Ok(SampledF0Estimator {
            inner,
            p,
            n_sampled,
            seen: Vec::new(),
            fresh: Vec::new(),
        })
    }
}

/// Theorem 4's lower bound: any estimator observing a rate-`p` Bernoulli
/// sample of some length-`n` stream errs by a multiplicative factor of at
/// least `√(ln 2 / (12 p))` with probability `≥ (1 − e^{−np})/2`
/// (for `p ≤ 1/12`).
pub fn f0_lower_bound_factor(p: f64) -> f64 {
    assert!(p > 0.0 && p <= 1.0);
    (2f64.ln() / (12.0 * p)).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::{BernoulliSampler, ExactStats, F0HardPair};

    /// Multiplicative error in the paper's sense: max(est/truth, truth/est).
    fn mult_error(est: f64, truth: f64) -> f64 {
        (est / truth).max(truth / est)
    }

    #[test]
    fn error_within_lemma8_bound_across_rates() {
        // Uniform-frequency stream: every item appears ~8 times.
        let mut stream = Vec::new();
        for item in 0..30_000u64 {
            stream.extend(std::iter::repeat_n(sss_hash::fingerprint64(item), 8));
        }
        let truth = ExactStats::from_stream(stream.iter().copied()).f0() as f64;
        for &p in &[0.05f64, 0.1, 0.5, 1.0] {
            let mut est = SampledF0Estimator::new(p, 0.01, 7);
            let mut sampler = BernoulliSampler::new(p, 11);
            sampler.sample_slice(&stream, |x| est.update(x));
            let err = mult_error(est.estimate().value, truth);
            assert!(
                err <= est.error_factor(),
                "p={p}: error {err} > bound {}",
                est.error_factor()
            );
        }
    }

    #[test]
    fn exact_regime_when_all_items_survive() {
        // High frequency per item ⇒ F_0(L) ≈ F_0(P); the √p scaling then
        // *overestimates* by exactly 1/√p — still within the 4/√p bound.
        let mut stream = Vec::new();
        for item in 0..1000u64 {
            stream.extend(std::iter::repeat_n(item, 200));
        }
        let p = 0.25;
        let mut est = SampledF0Estimator::new(p, 0.01, 3);
        let mut sampler = BernoulliSampler::new(p, 4);
        sampler.sample_slice(&stream, |x| est.update(x));
        // F0(L) ≈ 1000 (every item survives w.h.p.), estimate ≈ 1000/0.5.
        let e = est.estimate().value;
        assert!((e - 2000.0).abs() / 2000.0 < 0.2, "estimate = {e}");
        assert!(mult_error(e, 1000.0) <= est.error_factor());
    }

    #[test]
    fn hard_pair_forces_sqrt_p_error_on_one_side() {
        // The Theorem 4 demonstration: same estimator, two streams with
        // indistinguishable samples, F_0 apart by 1/√p.
        let p = 0.01;
        let pair = F0HardPair::new(200_000, p, 1 << 21);
        let a = pair.stream_a(1);
        let b = pair.stream_b(1);
        let mut worst = 1.0f64;
        for stream in [&a, &b] {
            let truth = ExactStats::from_stream(stream.iter().copied()).f0() as f64;
            let mut est = SampledF0Estimator::new(p, 0.01, 5);
            let mut sampler = BernoulliSampler::new(p, 6);
            sampler.sample_slice(stream, |x| est.update(x));
            let err = mult_error(est.estimate().value, truth);
            assert!(err <= est.error_factor(), "err {err} above ceiling");
            worst = worst.max(err);
        }
        // On one of the two, error must be ≈ Θ(1/√p) = Θ(10): at least the
        // Theorem 4 factor √(ln2/12p) ≈ 2.4.
        assert!(
            worst >= f0_lower_bound_factor(p),
            "worst error {worst} below lower bound {}",
            f0_lower_bound_factor(p)
        );
    }

    #[test]
    fn sampled_estimate_is_accurate_before_scaling() {
        let stream: Vec<u64> = (0..50_000u64).collect();
        let mut est = SampledF0Estimator::new(0.5, 0.01, 9);
        let mut sampler = BernoulliSampler::new(0.5, 10);
        let mut kept = 0u64;
        let mut seen = std::collections::HashSet::new();
        sampler.sample_slice(&stream, |x| {
            est.update(x);
            kept += 1;
            seen.insert(x);
        });
        let rel = (est.estimate_sampled() - seen.len() as f64).abs() / seen.len() as f64;
        assert!(rel < 0.25, "rel = {rel}");
        assert_eq!(est.samples_seen(), kept);
    }

    #[test]
    fn success_probability_formula() {
        let est = SampledF0Estimator::new(0.1, 0.05, 1);
        let ps = est.success_probability(10_000, 0.05);
        assert!(ps > 0.94 && ps < 0.951, "ps = {ps}");
        // Tiny F0 ⇒ the e^{−pF0/8} term dominates.
        let weak = est.success_probability(10, 0.05);
        assert!(weak < 0.7);
    }

    #[test]
    fn lower_bound_factor_grows_as_p_shrinks() {
        assert!(f0_lower_bound_factor(0.01) > f0_lower_bound_factor(0.1));
        assert!((f0_lower_bound_factor(1.0 / 12.0) - 1.0f64.min(2f64.ln().sqrt())).abs() < 0.2);
    }
}
