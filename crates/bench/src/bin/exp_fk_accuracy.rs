//! E1 — Theorem 1: `(1+ε, δ)` estimation of `F_k(P)` from the sampled
//! stream, across sampling rates and stream shapes.
//!
//! For each `(k, workload, p)` cell we run independent sampling trials of
//! Algorithm 1 (exact-collision oracle, isolating the sampling error the
//! theorem's Lemma 5 bounds) and report the median/p90 multiplicative
//! error, plus the admissibility threshold `p_min = min(m,n)^{−1/k}` below
//! which no algorithm can succeed (Bar-Yossef; the paper's remark after
//! Theorem 1).

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Summary, Table};
use sss_core::{min_sampling_probability, ApproxParams, SampledFkEstimator, SubsampledEstimator};
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream, ZipfStream};

fn main() {
    print_header(
        "E1: Fk accuracy vs sampling rate (Theorem 1)",
        "Algorithm 1 is a (1+eps, delta)-estimator of F_k(P) for p above min(m,n)^(-1/k)",
        "Zipf(1.1) m=10k and Uniform m=10k, n=500k; trials=20 per cell",
    );

    let n: u64 = 500_000;
    let m: u64 = 10_000;
    let trials = 20;
    let workloads: Vec<(&str, Vec<u64>)> = vec![
        ("zipf(1.1)", ZipfStream::new(m, 1.1).generate(n, 42)),
        ("uniform", UniformStream::new(m).generate(n, 43)),
    ];

    for k in [2u32, 3, 4] {
        let mut table = Table::new(
            &format!("F_{k}: multiplicative error of Algorithm 1 (exact collisions)"),
            &[
                "workload",
                "p",
                "p_min(thm)",
                "med err",
                "p90 err",
                "max err",
            ],
        );
        for (name, stream) in &workloads {
            let truth = ExactStats::from_stream(stream.iter().copied()).fk(k);
            for &p in &[1.0f64, 0.3, 0.1, 0.03, 0.01, 0.003] {
                let errs = run_trials(trials, 1000 * k as u64, |seed| {
                    let mut est = SampledFkEstimator::exact(k, p);
                    let mut sampler = BernoulliSampler::new(p, seed);
                    sampler.sample_slice(stream, |x| est.update(x));
                    ApproxParams::mult_error(est.estimate().value, truth) - 1.0
                });
                let s = Summary::of(&errs);
                table.row(vec![
                    name.to_string(),
                    format!("{p}"),
                    fmt_g(min_sampling_probability(k, m, n)),
                    fmt_g(s.median),
                    fmt_g(s.p90),
                    fmt_g(s.max),
                ]);
            }
        }
        table.print();
    }

    println!(
        "\nReading: errors stay at the few-percent level while p is well above\n\
         p_min and degrade as p approaches it — the Theorem 1 tradeoff. The\n\
         Zipf head keeps F_k concentrated on well-sampled items, so skewed\n\
         streams tolerate smaller p than uniform ones at the same k."
    );
}
