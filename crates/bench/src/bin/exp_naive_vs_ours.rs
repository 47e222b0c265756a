//! E11 — the introduction's motivation: estimating on the sampled stream
//! and normalising is **not** enough; the paper's corrections are.
//!
//! For `F_2` and `F_0` we race the naive scaling (`F_2(L)/p²`, `F_0(L)/p`)
//! against the paper's estimators (Algorithm 1, Algorithm 2) across
//! sampling rates on a light-tailed stream — the regime where naive
//! scaling collapses.

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Summary, Table};
use sss_core::{
    ApproxParams, NaiveScaledF0, NaiveScaledFk, SampledF0Estimator, SampledFkEstimator,
    SubsampledEstimator,
};
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream};

fn main() {
    print_header(
        "E11: naive normalisation vs the paper's estimators (intro motivation)",
        "F_k(L)/p^k and F_0(L)/p are biased; Algorithms 1 and 2 are the corrections",
        "uniform m=40k, n=200k (per-item frequency ~5); trials=10",
    );

    let stream = UniformStream::new(40_000).generate(200_000, 88);
    let stats = ExactStats::from_stream(stream.iter().copied());
    let f2 = stats.fk(2);
    let f0 = stats.f0() as f64;
    let trials = 10;

    let mut t = Table::new(
        "median multiplicative error (1.0 = exact)",
        &[
            "p",
            "naive F2(L)/p^2",
            "Alg.1 F2",
            "naive F0(L)/p",
            "Alg.2 F0",
            "Alg.2 ceiling",
        ],
    );
    for &p in &[0.5f64, 0.1, 0.02] {
        let naive_f2 = Summary::of(&run_trials(trials, 5000, |seed| {
            let mut e = NaiveScaledFk::new(2, p);
            let mut s = BernoulliSampler::new(p, seed);
            s.sample_slice(&stream, |x| e.update(x));
            ApproxParams::mult_error(e.estimate().value, f2)
        }))
        .median;
        let ours_f2 = Summary::of(&run_trials(trials, 5000, |seed| {
            let mut e = SampledFkEstimator::exact(2, p);
            let mut s = BernoulliSampler::new(p, seed);
            s.sample_slice(&stream, |x| e.update(x));
            ApproxParams::mult_error(e.estimate().value, f2)
        }))
        .median;
        let naive_f0 = Summary::of(&run_trials(trials, 6000, |seed| {
            let mut e = NaiveScaledF0::new(p, seed);
            let mut s = BernoulliSampler::new(p, seed ^ 3);
            s.sample_slice(&stream, |x| e.update(x));
            ApproxParams::mult_error(e.estimate().value, f0)
        }))
        .median;
        let ours_f0 = Summary::of(&run_trials(trials, 6000, |seed| {
            let mut e = SampledF0Estimator::new(p, 0.05, seed);
            let mut s = BernoulliSampler::new(p, seed ^ 3);
            s.sample_slice(&stream, |x| e.update(x));
            ApproxParams::mult_error(e.estimate().value, f0)
        }))
        .median;
        t.row(vec![
            format!("{p}"),
            fmt_g(naive_f2),
            fmt_g(ours_f2),
            fmt_g(naive_f0),
            fmt_g(ours_f0),
            fmt_g(4.0 / p.sqrt()),
        ]);
    }
    t.print();

    println!(
        "\nReading: naive F2 scaling drifts to ~1/p-factor errors (the\n\
         p(1-p)F1 cross-term dominates a light-tailed F2), while Algorithm 1\n\
         stays within a few percent. Naive F0 cannot beat its systematic\n\
         bias either; Algorithm 2's sqrt(p) scaling splits the error\n\
         symmetrically and respects the 4/sqrt(p) ceiling — the best any\n\
         algorithm can do by Theorem 4."
    );
}
