//! Statistical acceptance tests: each theorem's quantitative promise,
//! checked over repeated sampling trials with fixed seeds.
//!
//! These are the "does the paper's math hold on this implementation" tests
//! — slower than unit tests, deliberately generous on constants so they
//! are deterministic and non-flaky, but tight enough that a broken
//! estimator cannot sneak through.

use subsampled_streams::core::{
    ApproxParams, SampledF0Estimator, SampledFkEstimator, SubsampledEstimator,
};
use subsampled_streams::stream::{
    BernoulliSampler, EntropyScenarioPair, ExactStats, StreamGen, UniformStream, ZipfStream,
};

/// Theorem 1 acceptance: at p comfortably above min(m,n)^{-1/k}, the
/// (1+ε, δ) contract holds empirically: ≥ 90% of trials within ε = 0.1.
#[test]
fn theorem1_f2_probabilistic_contract() {
    let stream = ZipfStream::new(10_000, 1.2).generate(300_000, 31);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
    let p = 0.1;
    let params = ApproxParams::new(0.1, 0.1);
    let trials = 30;
    let mut ok = 0;
    for seed in 0..trials {
        let mut est = SampledFkEstimator::exact(2, p);
        let mut sampler = BernoulliSampler::new(p, seed);
        sampler.sample_slice(&stream, |x| est.update(x));
        if params.accepts(est.estimate().value, truth) {
            ok += 1;
        }
    }
    assert!(ok >= 27, "only {ok}/{trials} trials within (1+0.1)");
}

/// Theorem 1 acceptance for k = 4 (wider error budget: the β-recursion
/// amplifies lower-moment noise exactly as Lemma 4's schedule predicts).
#[test]
fn theorem1_f4_probabilistic_contract() {
    let stream = ZipfStream::new(5_000, 1.4).generate(200_000, 37);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(4);
    let p = 0.2;
    let params = ApproxParams::new(0.15, 0.1);
    let trials = 30;
    let mut ok = 0;
    for seed in 100..100 + trials {
        let mut est = SampledFkEstimator::exact(4, p);
        let mut sampler = BernoulliSampler::new(p, seed);
        sampler.sample_slice(&stream, |x| est.update(x));
        if params.accepts(est.estimate().value, truth) {
            ok += 1;
        }
    }
    assert!(ok >= 27, "only {ok}/{trials} trials within (1+0.15)");
}

/// Theorem 1's admissibility edge: far below p_min the estimator loses the
/// contract on adversarially flat streams — the premise is not vacuous.
#[test]
fn below_minimum_p_the_contract_degrades() {
    // All-distinct-ish stream: min(m, n)^{-1/2} with n = m = 100_000 is
    // ~0.003; sample at p = 0.0005, far below. F2(P) = n (all singletons);
    // the sampled stream sees ~50 items and almost never a collision, so
    // the estimate's spread must blow past (1±0.1).
    let n = 100_000u64;
    let stream: Vec<u64> = (0..n)
        .map(subsampled_streams::hash::fingerprint64)
        .collect();
    let truth = n as f64;
    let p = 0.0005;
    let params = ApproxParams::new(0.1, 0.1);
    let trials = 30;
    let mut ok = 0;
    for seed in 0..trials {
        let mut est = SampledFkEstimator::exact(2, p);
        let mut sampler = BernoulliSampler::new(p, seed);
        sampler.sample_slice(&stream, |x| est.update(x));
        if params.accepts(est.estimate().value, truth) {
            ok += 1;
        }
    }
    assert!(
        ok < 27,
        "contract unexpectedly held ({ok}/{trials}) below p_min"
    );
}

/// Lemma 8 acceptance: the 4/√p ceiling holds in every trial, across rates
/// and stream shapes.
#[test]
fn lemma8_ceiling_never_violated() {
    let streams: Vec<Vec<u64>> = vec![
        UniformStream::new(20_000).generate(200_000, 41),
        ZipfStream::new(20_000, 1.5).generate(200_000, 42),
        (0..100_000u64).collect(), // all distinct
    ];
    for (si, stream) in streams.iter().enumerate() {
        let truth = ExactStats::from_stream(stream.iter().copied()).f0() as f64;
        for &p in &[0.5f64, 0.1, 0.02] {
            for seed in 0..10u64 {
                let mut est = SampledF0Estimator::new(p, 0.01, seed);
                let mut sampler = BernoulliSampler::new(p, 1000 + seed);
                sampler.sample_slice(stream, |x| est.update(x));
                let err = est.estimate().mult_error(truth);
                assert!(
                    err <= est.error_factor(),
                    "stream {si}, p={p}, seed={seed}: {err} > {}",
                    est.error_factor()
                );
            }
        }
    }
}

/// Theorem 4 acceptance: on the hard pair, the worst-side error of
/// Algorithm 2 exceeds the theorem's lower-bound factor.
#[test]
fn theorem4_hard_pair_error_floor() {
    for &p in &[0.04f64, 0.01] {
        let pair = subsampled_streams::stream::F0HardPair::new(100_000, p, 1 << 20);
        let mut worst = 1.0f64;
        for stream in [pair.stream_a(3), pair.stream_b(3)] {
            let truth = ExactStats::from_stream(stream.iter().copied()).f0() as f64;
            let mut est = SampledF0Estimator::new(p, 0.01, 5);
            let mut sampler = BernoulliSampler::new(p, 6);
            sampler.sample_slice(&stream, |x| est.update(x));
            worst = worst.max(est.estimate().mult_error(truth));
        }
        let floor = subsampled_streams::core::f0_lower_bound_factor(p);
        assert!(worst >= floor, "p={p}: worst {worst} < floor {floor}");
    }
}

/// Lemma 9 scenario pair: the probability that the sampled streams are
/// distinguishable at all is below 1/10 with the paper's k.
#[test]
fn lemma9_indistinguishability_rate() {
    let p = 0.02;
    let pair = EntropyScenarioPair::new(100_000, p, 1 << 20);
    let s2 = pair.scenario_two(7);
    let bulk = s2[0];
    let trials = 400;
    let mut distinguishable = 0;
    for seed in 0..trials {
        let mut sampler = BernoulliSampler::new(p, seed);
        let mut saw_singleton = false;
        sampler.sample_slice(&s2, |x| {
            saw_singleton |= x != bulk;
        });
        if saw_singleton {
            distinguishable += 1;
        }
    }
    // (1-p)^k with k = 1/(10p) gives ≈ 1 − e^{-1/10} ≈ 0.095.
    let rate = distinguishable as f64 / trials as f64;
    assert!(rate < 0.15, "distinguishable rate {rate} too high");
    assert!(rate > 0.03, "rate {rate} suspiciously low — wrong k?");
}
