//! Integration tests for the extension modules: flow-size unfolding,
//! adaptive rates, and the alternative sampling models — wired through the
//! facade crate against realistic traces.

use subsampled_streams::core::{
    AdaptiveF2Estimator, FlowSizeUnfolder, SampledFlowHistogram, SubsampledEstimator,
    TargetCollisionsPolicy,
};
use subsampled_streams::hash::{RngCore64, Xoshiro256pp};
use subsampled_streams::stream::{
    BernoulliSampler, ExactStats, NetFlowStream, SampleAndHold, StreamGen, ZipfStream,
};

#[test]
fn flow_unfolding_on_netflow_trace() {
    let trace = NetFlowStream::new(1 << 20, 1.3, 500).generate(200_000, 1);
    let exact = ExactStats::from_stream(trace.iter().copied());
    let p = 0.25;

    let mut hist = SampledFlowHistogram::new();
    let mut sampler = BernoulliSampler::new(p, 2);
    sampler.sample_slice(&trace, |x| hist.update(x));

    let est = FlowSizeUnfolder::new(p, 600, 300).unfold(&hist);
    let true_flows = exact.f0() as f64;
    let rel = (est.total_flows() - true_flows).abs() / true_flows;
    assert!(rel < 0.15, "flows {} vs {true_flows}", est.total_flows());

    // Total packets must reconcile with the F1 identity.
    let rel_pkts = (est.total_packets() - 200_000.0).abs() / 200_000.0;
    assert!(rel_pkts < 0.1, "packets {}", est.total_packets());

    // Tail mass: fraction of flows of size >= 10.
    let true_tail = exact.iter().filter(|&(_, f)| f >= 10).count() as f64 / true_flows;
    assert!(
        (est.ccdf(10) - true_tail).abs() < 0.1,
        "tail {} vs {true_tail}",
        est.ccdf(10)
    );
}

#[test]
fn adaptive_policy_end_to_end() {
    let stream = ZipfStream::new(3_000, 1.4).generate(300_000, 3);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
    let policy = TargetCollisionsPolicy {
        p_high: 0.25,
        p_low: 0.025,
        target: truth / 100.0,
    };
    let mut est = AdaptiveF2Estimator::new(policy.p_high);
    let mut rng = Xoshiro256pp::new(4);
    for &x in &stream {
        let r = policy.rate_for(&est);
        if r != est.current_rate() {
            est.set_rate(r);
        }
        if rng.next_bool(est.current_rate()) {
            est.update(x);
        }
    }
    // Throttled well below the fixed-rate sample volume…
    assert!(
        est.samples_seen() < 300_000 / 8,
        "saw {} samples",
        est.samples_seen()
    );
    // …while keeping a usable estimate.
    let rel = (est.estimate().value - truth).abs() / truth;
    assert!(rel < 0.15, "rel err {rel}");
    assert_eq!(est.current_rate(), policy.p_low, "policy never throttled");
}

#[test]
fn sample_and_hold_vs_bernoulli_on_elephants() {
    // Same budget: sample-and-hold estimates elephant sizes strictly
    // better than Bernoulli count-scaling on a trace with a clear head.
    let trace = {
        let mut t = ZipfStream::new(10_000, 1.6).generate(300_000, 5);
        // ensure one giant flow
        t.extend(std::iter::repeat_n(42u64, 30_000));
        t
    };
    let exact = ExactStats::from_stream(trace.iter().copied());
    let p = 0.01;

    let mut sh = SampleAndHold::new(p, 6);
    for &x in &trace {
        sh.update(x);
    }
    let sh_err = (sh.estimate(42) - exact.freq(42) as f64).abs() / exact.freq(42) as f64;

    let mut counts = 0u64;
    let mut sampler = BernoulliSampler::new(p, 7);
    sampler.sample_slice(&trace, |x| {
        if x == 42 {
            counts += 1;
        }
    });
    let bern_err = (counts as f64 / p - exact.freq(42) as f64).abs() / exact.freq(42) as f64;

    assert!(sh_err < 0.01, "sample-and-hold err {sh_err}");
    // Bernoulli's relative error on a single flow of size f concentrates
    // at ~1/sqrt(p·f) ≈ 5.8%; no strict dominance asserted per-seed, but
    // S&H must be at least as good here.
    assert!(sh_err <= bern_err + 1e-9, "sh {sh_err} vs bern {bern_err}");
}

#[test]
fn unfolding_respects_f1_identity_under_all_rates() {
    // Whatever the distribution, unfolded total packets ≈ observed/p.
    let trace = NetFlowStream::new(1 << 16, 1.0, 200).generate(50_000, 9);
    for &p in &[0.5f64, 0.1] {
        let mut hist = SampledFlowHistogram::new();
        let mut sampler = BernoulliSampler::new(p, 10);
        sampler.sample_slice(&trace, |x| hist.update(x));
        let est = FlowSizeUnfolder::new(p, 256, 200).unfold(&hist);
        let scaled = hist.observed_packets() as f64 / p;
        let rel = (est.total_packets() - scaled).abs() / scaled;
        assert!(rel < 0.05, "p={p}: {} vs {scaled}", est.total_packets());
    }
}
