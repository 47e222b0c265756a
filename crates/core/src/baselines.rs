//! Baselines the paper compares against (§1.3) and the naive approaches its
//! introduction warns about.
//!
//! * [`RusuDobraF2`] — Rusu & Dobra (ICDE 2009): sketch `F_2(L)` and invert
//!   the moment relation `E[F_2(L)] = p²·F_2(P) + p(1−p)·F_1(P)`. Unbiased,
//!   but the variance analysis needs `Õ(1/p²)` space for a `(1+ε, δ)`
//!   guarantee where the paper's collision method needs `Õ(1/p)` —
//!   experiment E9 measures exactly this gap.
//! * [`NaiveScaledFk`] — estimate `F_k(L)` and divide by `p^k`. Biased:
//!   `E[F_k(L)] ≠ p^k·F_k(P)` because binomial sampling does not commute
//!   with powers (`E[g^k] = Σ_j S(k,j)·p^j·f^{(j)}` mixes lower moments in).
//!   The bias is worst on light-tailed streams, where the spurious
//!   lower-moment mass dominates.
//! * [`NaiveScaledF0`] — estimate `F_0(L)/p`: overestimates the reach of
//!   sampling; the correct scaling (Algorithm 2) is `1/√p`-bounded error,
//!   and E11 shows where `1/p` lands instead.

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::ams::AmsF2;
use sss_sketch::kmv::MedianF0;
use sss_sketch::Mismatch;

use crate::estimate::{
    check_rates, Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator,
};
use crate::frequency::FrequencyMap;

/// Rusu–Dobra estimator of `F_2(P)` from the sampled stream.
#[derive(Debug, Clone)]
pub struct RusuDobraF2 {
    ams: AmsF2,
    p: f64,
    n_sampled: u64,
}

impl RusuDobraF2 {
    /// Estimator with an AMS sketch of `groups × copies` counters.
    pub fn new(p: f64, groups: usize, copies: usize, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        Self {
            ams: AmsF2::new(groups, copies, seed),
            p,
            n_sampled: 0,
        }
    }

    /// Estimator sized for a `(1+eps, delta)` guarantee *on `F_2(L)`*.
    /// (Translating that into a guarantee on `F_2(P)` is where the extra
    /// `1/p` factor appears; see E9.) Inherits the AMS per-update cost of
    /// `O(ε⁻²·log 1/δ)` — see [`AmsF2::with_error`].
    pub fn with_error(p: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0);
        Self {
            ams: AmsF2::with_error(eps, delta, seed),
            p,
            n_sampled: 0,
        }
    }

    /// Memory footprint in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.ams.space_words()
    }
}

impl SubsampledEstimator for RusuDobraF2 {
    fn statistic(&self) -> Statistic {
        Statistic::Fk(2)
    }

    fn update(&mut self, x: u64) {
        self.n_sampled += 1;
        self.ams.update(x, 1);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.n_sampled += xs.len() as u64;
        self.ams.update_batch(xs);
    }

    /// AMS sketches are linear, so the merge is exact.
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.ams.merge(&other.ams);
        self.n_sampled += other.n_sampled;
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        Ok(self.ams.check_merge(&other.ams)?)
    }

    /// The inversion `F̂_2(P) = (F̂_2(L) − (1−p)·F_1(L)) / p²`.
    fn estimate(&self) -> Estimate {
        let f2_l = self.ams.estimate();
        let f1_l = self.n_sampled as f64;
        // Unbiased, but the (1+ε, δ) translation to F_2(P) costs Õ(1/p²)
        // space (E9) — no packaged worst-case guarantee at this size.
        Estimate::scalar(
            ((f2_l - (1.0 - self.p) * f1_l) / (self.p * self.p)).max(0.0),
            Guarantee::Heuristic,
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

/// Naive `F_k` baseline: exact `F_k(L)` scaled by `p^{−k}` — systematically
/// biased because sampling does not commute with `k`-th powers.
#[derive(Debug, Clone)]
pub struct NaiveScaledFk {
    freqs: FrequencyMap,
    k: u32,
    p: f64,
}

impl NaiveScaledFk {
    /// Baseline for moment order `k` at sampling rate `p`.
    pub fn new(k: u32, p: f64) -> Self {
        assert!(k >= 1);
        assert!(p > 0.0 && p <= 1.0);
        Self {
            freqs: FrequencyMap::default(),
            k,
            p,
        }
    }
}

impl SubsampledEstimator for NaiveScaledFk {
    fn statistic(&self) -> Statistic {
        Statistic::Fk(self.k)
    }

    fn update(&mut self, x: u64) {
        self.freqs.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.freqs.update_batch(xs);
    }

    /// Exact frequency-map union.
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self) {
        self.merge_compatible(other)
            .unwrap_or_else(|e| panic!("{e}"));
        self.freqs.merge(&other.freqs);
    }

    /// Folds the frequency maps with one `FrequencyMap::merge_all`.
    fn merge_all(&mut self, others: &[&Self]) {
        for o in others {
            self.merge_compatible(o).unwrap_or_else(|e| panic!("{e}"));
        }
        let maps: Vec<_> = others.iter().map(|o| &o.freqs).collect();
        self.freqs.merge_all(&maps);
    }

    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        Ok(Mismatch::unless(
            self.k == other.k,
            "NaiveScaledFk moment order",
        )?)
    }

    /// `F_k(L) / p^k`, with `F_k(L) = Σ_g N_g·g^k` read from the frequency
    /// histogram.
    fn estimate(&self) -> Estimate {
        let fk_l =
            FrequencyMap::sum_over(&self.freqs.histogram(), |g| (g as f64).powi(self.k as i32));
        Estimate::scalar(
            fk_l / self.p.powi(self.k as i32),
            Guarantee::Heuristic,
            self.p,
            self.freqs.n(),
        )
    }

    fn space_bytes(&self) -> usize {
        16 * self.freqs.distinct()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn samples_seen(&self) -> u64 {
        self.freqs.n()
    }
}

/// Naive `F_0` baseline: `F_0(L)/p`.
#[derive(Debug, Clone)]
pub struct NaiveScaledF0 {
    inner: MedianF0,
    p: f64,
    n_sampled: u64,
}

impl NaiveScaledF0 {
    /// Baseline at sampling rate `p`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0);
        Self {
            inner: MedianF0::with_error(0.25, 0.05, seed),
            p,
            n_sampled: 0,
        }
    }
}

impl SubsampledEstimator for NaiveScaledF0 {
    fn statistic(&self) -> Statistic {
        Statistic::F0
    }

    fn update(&mut self, x: u64) {
        self.n_sampled += 1;
        self.inner.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.n_sampled += xs.len() as u64;
        self.inner.update_batch(xs);
    }

    /// Bottom-k union.
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

    /// `F̂_0(L) / p`.
    fn estimate(&self) -> Estimate {
        Estimate::scalar(
            self.inner.estimate() / self.p,
            Guarantee::Heuristic,
            self.p,
            self.n_sampled,
        )
    }

    fn space_bytes(&self) -> usize {
        8 * self.inner.space_words()
    }

    fn p(&self) -> f64 {
        self.p
    }

    fn samples_seen(&self) -> u64 {
        self.n_sampled
    }
}

impl WireCodec for RusuDobraF2 {
    const WIRE_TAG: u16 = 0x0407;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.n_sampled.encode_into(out);
        self.ams.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = crate::f0::decode_rate(r)?;
        let n_sampled = r.u64()?;
        let ams = AmsF2::decode(r)?;
        Ok(RusuDobraF2 { ams, p, n_sampled })
    }
}

impl WireCodec for NaiveScaledFk {
    const WIRE_TAG: u16 = 0x0408;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.k.encode_into(out);
        self.p.encode_into(out);
        self.freqs.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let k = r.u32()?;
        if k == 0 {
            return Err(CodecError::Invalid {
                what: "NaiveScaledFk k == 0",
            });
        }
        let p = crate::f0::decode_rate(r)?;
        let freqs = FrequencyMap::decode(r)?;
        Ok(NaiveScaledFk { freqs, k, p })
    }
}

impl WireCodec for NaiveScaledF0 {
    const WIRE_TAG: u16 = 0x0409;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.n_sampled.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = crate::f0::decode_rate(r)?;
        let n_sampled = r.u64()?;
        let inner = MedianF0::decode(r)?;
        Ok(NaiveScaledF0 {
            inner,
            p,
            n_sampled,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream, ZipfStream};

    #[test]
    fn rusu_dobra_is_consistent_at_moderate_p() {
        let stream = ZipfStream::new(2000, 1.2).generate(100_000, 1);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let p = 0.3;
        let mut errs = Vec::new();
        for seed in 0..8u64 {
            let mut rd = RusuDobraF2::new(p, 7, 96, seed);
            let mut sampler = BernoulliSampler::new(p, seed ^ 55);
            sampler.sample_slice(&stream, |x| rd.update(x));
            errs.push((rd.estimate().value - truth).abs() / truth);
        }
        errs.sort_by(|a, b| a.total_cmp(b));
        assert!(errs[4] < 0.15, "median err {}", errs[4]);
    }

    #[test]
    fn rusu_dobra_variance_blows_up_at_small_p() {
        // At p = 0.01 on a light-tailed stream, the sampling noise in the
        // inversion dwarfs the signal for a fixed-size sketch; the
        // collision method (exact oracle) stays calm. This is E9 in
        // miniature.
        let stream = UniformStream::new(50_000).generate(300_000, 2);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let p = 0.01;
        let mut rd_errs = Vec::new();
        let mut ours_errs = Vec::new();
        for seed in 0..12u64 {
            let mut rd = RusuDobraF2::new(p, 7, 96, seed);
            let mut ours = crate::fk::SampledFkEstimator::exact(2, p);
            let mut sampler = BernoulliSampler::new(p, seed ^ 91);
            sampler.sample_slice(&stream, |x| {
                rd.update(x);
                ours.update(x);
            });
            rd_errs.push((rd.estimate().value - truth).abs() / truth);
            ours_errs.push((ours.estimate().value - truth).abs() / truth);
        }
        let med = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let rd_med = med(&mut rd_errs);
        let ours_med = med(&mut ours_errs);
        assert!(
            ours_med < rd_med,
            "collision method ({ours_med}) should beat RD scaling ({rd_med}) at p={p}"
        );
    }

    #[test]
    fn naive_fk_overestimates_on_light_tails() {
        // All-singleton stream: F_2(P) = n, but F_2(L) ≈ pn so the naive
        // estimate is ≈ n/p — a 1/p-factor overestimate.
        let n = 100_000u64;
        let stream: Vec<u64> = (0..n).map(sss_hash::fingerprint64).collect();
        let p = 0.1;
        let mut naive = NaiveScaledFk::new(2, p);
        let mut sampler = BernoulliSampler::new(p, 3);
        sampler.sample_slice(&stream, |x| naive.update(x));
        let est = naive.estimate().value;
        let ratio = est / n as f64;
        assert!(
            (ratio - 1.0 / p).abs() / (1.0 / p) < 0.15,
            "expected ≈ {}× overestimate, got {ratio}×",
            1.0 / p
        );
    }

    #[test]
    fn naive_fk_is_fine_when_p_is_one() {
        let stream = ZipfStream::new(100, 1.0).generate(10_000, 4);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(3);
        let mut naive = NaiveScaledFk::new(3, 1.0);
        for &x in &stream {
            naive.update(x);
        }
        assert!((naive.estimate().value - truth).abs() < 1e-6 * truth);
    }

    #[test]
    fn naive_f0_overestimates_reach() {
        // Heavy per-item frequency: every item survives, F_0(L) = F_0(P),
        // so the naive 1/p scaling overestimates by 1/p exactly.
        let mut stream = Vec::new();
        for item in 0..2000u64 {
            stream.extend(std::iter::repeat_n(item, 100));
        }
        let p = 0.2;
        let mut naive = NaiveScaledF0::new(p, 5);
        let mut sampler = BernoulliSampler::new(p, 6);
        sampler.sample_slice(&stream, |x| naive.update(x));
        let ratio = naive.estimate().value / 2000.0;
        assert!((ratio - 1.0 / p).abs() / (1.0 / p) < 0.3, "ratio = {ratio}");
    }
}
