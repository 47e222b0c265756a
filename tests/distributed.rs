//! Distributed-monitor integration: several observation points each see a
//! Bernoulli sample of their own slice of the traffic; their summaries are
//! merged at a collector, which must answer as if one monitor had seen
//! everything. (The paper's router deployment, §1, generalised to the
//! multi-monitor setting its related work on distributed sampling
//! addresses.)

use subsampled_streams::codec::WireCodec;
use subsampled_streams::core::{
    theorem6_min_f1, theorem7_min_sqrt_f2, Monitor, MonitorBuilder, SampledF0Estimator,
    SampledF1HeavyHitters, SampledF2HeavyHitters, SampledFkEstimator, SampledHeavyHitters,
    SubsampledEstimator,
};
use subsampled_streams::hash::{RngCore64, Xoshiro256pp};
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

/// Sites of the heavy-hitter fleet, and its sampling rate.
const HH_SITES: u64 = 16;
const HH_P: f64 = 0.25;

/// Site `s`'s raw traffic, 40k elements: three global heavies (items 1–3)
/// at 10% each, the site's own local heavy `1_000 + s` at 20%, and a tail
/// of near-singletons.
fn hh_site_traffic(s: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(500 + s);
    (0..40_000)
        .map(|_| match rng.next_below(10) {
            r @ 0..=2 => 1 + r,
            3 | 4 => 1_000 + s,
            _ => (1 << 32) | rng.next_below(1 << 20),
        })
        .collect()
}

/// A fleet of `HH_SITES` `fork_shard` sites whose local heavies differ.
/// Each local heavy is α-heavy at its own site but not in the union. The
/// collector folds the sites' decoded checkpoints with
/// `Monitor::merge_all`. The fold must equal sequential `try_merge` in
/// report bits, report every item that is α-heavy in the union, and
/// report nothing below the theorem's cutoff `(1−ε)·scale·α·norm`.
/// `norm` is the union's `F_1` or `√F_2`; `scale` is 1 for Theorem 6 and
/// `√p` for Theorem 7.
fn merged_reports_keep_union_recall<S>(
    new: fn(f64, f64, f64, f64, u64) -> SampledHeavyHitters<S>,
    alpha: f64,
    norm: fn(&ExactStats) -> f64,
    premise: fn(f64, f64, f64, f64, u64) -> f64,
    scale: f64,
) where
    SampledHeavyHitters<S>: SubsampledEstimator + Clone + Send + Sync + WireCodec + 'static,
{
    let (eps, delta) = (0.2, 0.05);
    let proto = MonitorBuilder::with_seed(HH_P, 9)
        .register("hh", new(alpha, eps, delta, HH_P, 77))
        .build();
    let traffic: Vec<Vec<u64>> = (0..HH_SITES).map(hh_site_traffic).collect();
    let union = ExactStats::from_stream(traffic.iter().flatten().copied());
    assert!(norm(&union) >= premise(HH_P, alpha, eps, delta, union.n()));

    let reported = |m: &Monitor| -> Vec<(u64, f64)> { m.estimate_labeled("hh").unwrap().report };
    let decoded: Vec<Monitor> = traffic
        .iter()
        .zip(0..)
        .map(|(raw, s)| {
            let mut site = proto.fork_shard(s);
            site.update_batch(&BernoulliSampler::new(HH_P, 1_000 + s).sample_to_vec(raw));
            assert!(
                reported(&site).iter().any(|&(i, _)| i == 1_000 + s),
                "site {s} must report its local heavy"
            );
            Monitor::restore(&site.checkpoint().unwrap()).unwrap()
        })
        .collect();
    let mut folded = proto.clone();
    folded.merge_all(&decoded.iter().collect::<Vec<_>>());
    let mut sequential = proto.clone();
    for site in &decoded {
        sequential.try_merge(site).unwrap();
    }
    let bits = |r: Vec<(u64, f64)>| -> Vec<(u64, u64)> {
        r.into_iter().map(|(i, f)| (i, f.to_bits())).collect()
    };
    assert_eq!(bits(reported(&folded)), bits(reported(&sequential)));

    let report = reported(&folded);
    let heavy = alpha * norm(&union);
    let cutoff = (1.0 - eps) * scale * heavy;
    for s in 0..HH_SITES {
        assert!((union.freq(1_000 + s) as f64) < cutoff, "local heavy {s}");
    }
    for (item, f) in union.iter() {
        if f as f64 >= heavy {
            assert!(
                report.iter().any(|&(i, _)| i == item),
                "α-heavy item {item} (f = {f}, threshold {heavy}) missing from {report:?}"
            );
        }
    }
    for &(item, _) in &report {
        let f = union.freq(item);
        assert!(
            f as f64 >= cutoff,
            "item {item} (f = {f}) is below the cutoff {cutoff}"
        );
    }
}

#[test]
fn merged_f1_heavy_hitters_keep_union_recall_across_differing_sites() {
    merged_reports_keep_union_recall(
        SampledF1HeavyHitters::new,
        0.05,
        |union| union.n() as f64,
        theorem6_min_f1,
        1.0,
    );
}

#[test]
fn merged_f2_heavy_hitters_keep_union_recall_across_differing_sites() {
    merged_reports_keep_union_recall(
        SampledF2HeavyHitters::new,
        0.4,
        |union| union.fk(2).sqrt(),
        theorem7_min_sqrt_f2,
        HH_P.sqrt(),
    );
}
