//! Integration tests for the unified estimation API: the
//! `SubsampledEstimator` trait, the typed `Estimate`, and the single-pass
//! `Monitor` pipeline with mergeable, batch-capable estimators.

use subsampled_streams::core::{
    recommended_levelset_config, AdaptiveF2Estimator, Guarantee, MonitorBuilder, NaiveScaledF0,
    NaiveScaledFk, RusuDobraF2, SampledEntropyEstimator, SampledF0Estimator, SampledF1HeavyHitters,
    SampledF2HeavyHitters, SampledFkEstimator, Statistic, SubsampledEstimator,
};
use subsampled_streams::stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

/// Drive any estimator over a Bernoulli sample of a slice of `P`.
fn feed<E: SubsampledEstimator>(est: &mut E, part: &[u64], p: f64, seed: u64) {
    let mut sampler = BernoulliSampler::new(p, seed);
    sampler.sample_batches(part, 512, |chunk| est.update_batch(chunk));
}

/// Split `stream` into `shards` contiguous slices.
fn shards(stream: &[u64], n: usize) -> Vec<&[u64]> {
    let chunk = stream.len() / n;
    (0..n)
        .map(|s| {
            let lo = s * chunk;
            let hi = if s + 1 == n { stream.len() } else { lo + chunk };
            &stream[lo..hi]
        })
        .collect()
}

/// A sharded run (split across N estimators, then merged) must agree with
/// the single-estimator run **exactly** for the exact collision oracle:
/// the same sampled elements produce the same frequency algebra whatever
/// the sharding.
#[test]
fn sharded_fk_equals_single_estimator_exactly() {
    let p = 0.3;
    let stream = ZipfStream::new(2_000, 1.2).generate(90_000, 5);
    for n_shards in [2usize, 3, 6] {
        let parts = shards(&stream, n_shards);
        // Single estimator over every shard's sample, in shard order.
        let mut single = SampledFkEstimator::exact(3, p);
        for (s, part) in parts.iter().enumerate() {
            feed(&mut single, part, p, 1000 + s as u64);
        }
        // One estimator per shard (same sampling seeds), then merge.
        let mut merged: Option<SampledFkEstimator<_>> = None;
        for (s, part) in parts.iter().enumerate() {
            let mut est = SampledFkEstimator::exact(3, p);
            feed(&mut est, part, p, 1000 + s as u64);
            match merged.as_mut() {
                None => merged = Some(est),
                Some(m) => SubsampledEstimator::merge(m, &est),
            }
        }
        let merged = merged.unwrap();
        let a = single.estimate().value;
        let b = merged.estimate().value;
        assert!(
            (a - b).abs() <= 1e-9 * a.abs().max(1.0),
            "{n_shards} shards: single {a} vs merged {b}"
        );
        assert_eq!(single.samples_seen(), merged.samples_seen());
    }
}

/// Same exactness for F_0: bottom-k union is sharding-invariant when all
/// shards share the sketch seed.
#[test]
fn sharded_f0_equals_single_estimator_exactly() {
    let p = 0.25;
    let stream = ZipfStream::new(30_000, 1.1).generate(120_000, 6);
    let parts = shards(&stream, 4);
    let mut single = SampledF0Estimator::new(p, 0.05, 777);
    let mut merged: Option<SampledF0Estimator> = None;
    for (s, part) in parts.iter().enumerate() {
        feed(&mut single, part, p, 2000 + s as u64);
        let mut est = SampledF0Estimator::new(p, 0.05, 777);
        feed(&mut est, part, p, 2000 + s as u64);
        match merged.as_mut() {
            None => merged = Some(est),
            Some(m) => m.merge(&est),
        }
    }
    let merged = merged.unwrap();
    assert_eq!(single.estimate().value, merged.estimate().value);
    assert_eq!(single.samples_seen(), merged.samples_seen());
}

/// Sketched estimators merge within tolerance: the level-set substrate is
/// linear, but candidate recovery may differ marginally between the
/// sharded and centralised runs.
#[test]
fn sharded_sketched_fk_matches_single_within_tolerance() {
    let p = 0.3;
    let m = 5_000u64;
    let stream = ZipfStream::new(m, 1.3).generate(120_000, 7);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
    let cfg = recommended_levelset_config(2, m, p, 0.2);
    let parts = shards(&stream, 3);

    let mut single = SampledFkEstimator::sketched(2, p, &cfg, 42);
    let mut merged: Option<SampledFkEstimator<_>> = None;
    for (s, part) in parts.iter().enumerate() {
        feed(&mut single, part, p, 3000 + s as u64);
        let mut est = SampledFkEstimator::sketched(2, p, &cfg, 42);
        feed(&mut est, part, p, 3000 + s as u64);
        match merged.as_mut() {
            None => merged = Some(est),
            Some(m) => m.merge(&est),
        }
    }
    let merged = merged.unwrap();
    let a = single.estimate().value;
    let b = merged.estimate().value;
    assert!((a - b).abs() / a < 0.25, "single {a} vs merged {b}");
    assert!(
        (b - truth).abs() / truth < 0.4,
        "merged {b} vs truth {truth}"
    );
}

/// Merge is commutative and associative at the trait level (exact
/// substrate), so collector topology does not matter.
#[test]
fn trait_merge_commutative_associative() {
    let p = 0.4;
    let stream = ZipfStream::new(800, 1.1).generate(45_000, 8);
    let parts = shards(&stream, 3);
    let build = |s: usize| {
        let mut est = SampledFkEstimator::exact(2, p);
        feed(&mut est, parts[s], p, 4000 + s as u64);
        est
    };
    // Commutativity.
    let mut ab = build(0);
    ab.merge(&build(1));
    let mut ba = build(1);
    ba.merge(&build(0));
    assert!((ab.estimate().value - ba.estimate().value).abs() <= 1e-9 * ab.estimate().value);
    // Associativity.
    let mut left = build(0);
    left.merge(&build(1));
    left.merge(&build(2));
    let mut bc = build(1);
    bc.merge(&build(2));
    let mut right = build(0);
    right.merge(&bc);
    assert!((left.estimate().value - right.estimate().value).abs() <= 1e-6 * left.estimate().value);
}

/// Every estimator implements the trait and reports a sane, positive
/// space_bytes that grows once data arrives; estimates carry the right
/// guarantee kind and provenance.
#[test]
fn every_estimator_reports_sane_space_and_provenance() {
    let p = 0.5;
    let stream = ZipfStream::new(1_000, 1.2).generate(20_000, 9);
    let cfg = recommended_levelset_config(2, 1_000, p, 0.3);

    let mut estimators: Vec<Box<dyn SubsampledEstimator>> = vec![
        Box::new(SampledFkEstimator::exact(2, p)),
        Box::new(SampledFkEstimator::sketched(2, p, &cfg, 1)),
        Box::new(SampledF0Estimator::new(p, 0.05, 2)),
        Box::new(SampledEntropyEstimator::new(p, 200, 3)),
        Box::new(SampledF1HeavyHitters::new(0.05, 0.2, 0.05, p, 4)),
        Box::new(SampledF2HeavyHitters::new(0.3, 0.2, 0.05, p, 5)),
        Box::new(RusuDobraF2::new(p, 5, 32, 6)),
        Box::new(NaiveScaledFk::new(2, p)),
        Box::new(NaiveScaledF0::new(p, 7)),
        Box::new(AdaptiveF2Estimator::new(p)),
    ];
    let sampled = BernoulliSampler::new(p, 10).sample_to_vec(&stream);
    for est in &mut estimators {
        est.update_batch(&sampled);
        let bytes = est.space_bytes();
        assert!(bytes > 0, "{:?}: zero space", est.statistic());
        // Generous sanity ceiling: none of these should exceed 64 MiB on
        // a 20k-element workload.
        assert!(bytes < 64 << 20, "{:?}: {bytes} bytes", est.statistic());
        let e = est.estimate();
        assert_eq!(e.p, est.p(), "{:?}", est.statistic());
        assert_eq!(
            e.samples_seen,
            sampled.len() as u64,
            "{:?}",
            est.statistic()
        );
        assert!(e.value.is_finite());
        match (est.statistic(), &e.guarantee) {
            (Statistic::F1HeavyHitters | Statistic::F2HeavyHitters, g) => {
                assert!(matches!(g, Guarantee::HeavyHitters { .. }), "{g:?}");
                assert_eq!(e.value, e.report.len() as f64);
            }
            (_, g) => {
                assert!(e.report.is_empty(), "scalar estimate with report: {g:?}");
            }
        }
    }
}

/// The acceptance shape of the tentpole: a single Monitor pass over one
/// sampled stream produces F_0, F_2, entropy and heavy-hitter estimates
/// together, each inside its theorem's band.
#[test]
fn monitor_single_pass_all_statistics_within_bands() {
    let n = 300_000u64;
    let p = 0.1;
    let stream = ZipfStream::new(20_000, 1.2).generate(n, 11);
    let exact = ExactStats::from_stream(stream.iter().copied());

    let mut monitor = MonitorBuilder::with_seed(p, 33)
        .f0(0.01)
        .fk(2)
        .entropy(2500)
        .f1_heavy_hitters(0.02, 0.2, 0.05)
        .build();
    let mut sampler = BernoulliSampler::new(p, 34);
    sampler.sample_batches(&stream, 2048, |chunk| monitor.update_batch(chunk));

    let f2 = monitor.estimate(Statistic::Fk(2)).unwrap();
    assert!(f2.mult_error(exact.fk(2)) < 1.15, "F2 {}", f2.value);

    let f0 = monitor.estimate(Statistic::F0).unwrap();
    let ceiling = match f0.guarantee {
        Guarantee::BoundedFactor { factor } => factor,
        ref g => panic!("wrong F0 guarantee {g:?}"),
    };
    assert!(f0.mult_error(exact.f0() as f64) <= ceiling);

    let h = monitor.estimate(Statistic::Entropy).unwrap();
    let ratio = h.value / exact.entropy();
    assert!((0.5..=2.0).contains(&ratio), "entropy ratio {ratio}");

    let hh = monitor.estimate(Statistic::F1HeavyHitters).unwrap();
    let cutoff = (1.0 - 0.2) * 0.02 * n as f64;
    assert!(!hh.report.is_empty(), "no heavy hitters found");
    for &(i, _) in &hh.report {
        assert!(exact.freq(i) as f64 >= cutoff, "false positive {i}");
    }
}

/// Sharded monitors merged at a collector answer like one monitor whose
/// sample is the union — exactly, because every registered substrate here
/// merges exactly and the same sampled elements are fed either way.
#[test]
fn sharded_monitors_merge_to_single_monitor_answer() {
    let p = 0.2;
    let stream = ZipfStream::new(4_000, 1.2).generate(120_000, 12);
    let parts = shards(&stream, 4);
    let build = || {
        MonitorBuilder::with_seed(p, 55)
            .f0(0.05)
            .fk(2)
            .f1_heavy_hitters(0.05, 0.2, 0.05)
            .build()
    };

    let mut single = build();
    let mut merged = None;
    for (s, part) in parts.iter().enumerate() {
        let mut sampler = BernoulliSampler::new(p, 5000 + s as u64);
        let sampled = sampler.sample_to_vec(part);
        single.update_batch(&sampled);
        let mut site = build();
        site.update_batch(&sampled);
        match merged.as_mut() {
            None => merged = Some(site),
            Some(m) => m.merge(&site),
        }
    }
    let merged = merged.unwrap();
    assert_eq!(single.samples_seen(), merged.samples_seen());
    for ((ls, es), (lm, em)) in single.report().into_iter().zip(merged.report()) {
        assert_eq!(ls, lm);
        assert!(
            (es.value - em.value).abs() <= 1e-9 * es.value.abs().max(1.0),
            "{ls}: single {} vs merged {}",
            es.value,
            em.value
        );
        assert_eq!(es.report, em.report, "{ls}: reports differ");
    }
}
