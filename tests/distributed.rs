//! Distributed-monitor integration: several observation points each see a
//! Bernoulli sample of their own slice of the traffic; their summaries are
//! merged at a collector, which must answer as if one monitor had seen
//! everything. (The paper's router deployment, §1, generalised to the
//! multi-monitor setting its related work on distributed sampling
//! addresses.)

use subsampled_streams::core::{SampledF0Estimator, SampledFkEstimator, SubsampledEstimator};
use subsampled_streams::stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

/// Split a stream across `sites` monitors, sample each independently,
/// merge, and compare against a single monitor over the whole stream.
#[test]
fn merged_fk_matches_single_monitor_semantics() {
    let n: u64 = 240_000;
    let p = 0.2;
    let stream = ZipfStream::new(5_000, 1.2).generate(n, 1);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);

    for sites in [2usize, 3, 5] {
        let chunk = stream.len() / sites;
        let mut merged: Option<SampledFkEstimator<_>> = None;
        for s in 0..sites {
            let lo = s * chunk;
            let hi = if s + 1 == sites {
                stream.len()
            } else {
                lo + chunk
            };
            let mut est = SampledFkEstimator::exact(2, p);
            let mut sampler = BernoulliSampler::new(p, 100 + s as u64);
            sampler.sample_slice(&stream[lo..hi], |x| est.update(x));
            match merged.as_mut() {
                None => merged = Some(est),
                Some(m) => m.merge(&est),
            }
        }
        let merged = merged.unwrap();
        let err = merged.estimate().mult_error(truth);
        assert!(err < 1.1, "{sites} sites: error {err}");
    }
}

#[test]
fn merged_estimate_is_exactly_order_independent() {
    // Merging A into B and B into A must give identical estimates.
    let stream = ZipfStream::new(500, 1.0).generate(60_000, 2);
    let (left, right) = stream.split_at(30_000);
    let build = |part: &[u64], seed| {
        let mut est = SampledFkEstimator::exact(3, 0.3);
        let mut sampler = BernoulliSampler::new(0.3, seed);
        sampler.sample_slice(part, |x| est.update(x));
        est
    };
    let mut ab = build(left, 5);
    ab.merge(&build(right, 6));
    let mut ba = build(right, 6);
    ba.merge(&build(left, 5));
    assert!((ab.estimate().value - ba.estimate().value).abs() <= 1e-6 * ab.estimate().value);
    assert_eq!(ab.samples_seen(), ba.samples_seen());
}

#[test]
fn merged_f0_matches_union_semantics() {
    // Two sites with overlapping item populations: merged F0 must reflect
    // the union, not the sum.
    let n_each = 100_000u64;
    let p = 0.25;
    // Site A sees items [0, 60k), site B sees [40k, 100k): union = 100k.
    let site_a: Vec<u64> = (0..n_each).map(|i| i % 60_000).collect();
    let site_b: Vec<u64> = (0..n_each).map(|i| 40_000 + i % 60_000).collect();

    let build = |part: &[u64], sampler_seed| {
        // Same sketch seed everywhere: mergeability requires shared hashes.
        let mut est = SampledF0Estimator::new(p, 0.01, 777);
        let mut sampler = BernoulliSampler::new(p, sampler_seed);
        sampler.sample_slice(part, |x| est.update(x));
        est
    };
    let mut merged = build(&site_a, 11);
    merged.merge(&build(&site_b, 12));

    let union_f0 = 100_000.0;
    let err = merged.estimate().mult_error(union_f0);
    assert!(
        err <= merged.error_factor(),
        "union error {err} above ceiling {}",
        merged.error_factor()
    );
    // And it must be far below the naive sum (120k distinct-with-overlap).
    assert!(
        merged.estimate().value < 2.0 * union_f0 / p.sqrt().min(1.0),
        "estimate {}",
        merged.estimate().value
    );
}
