//! E6 — Theorem 5 (+ Proposition 1, Lemma 10): when `H(f)` is above the
//! vanishing threshold `p^{−1/2}·n^{−1/6}`, estimating entropy **on the
//! sampled stream** is a constant-factor approximation of `H(f)`.
//!
//! We sweep stream entropy from under 1 bit to ~13 bits and sampling rates
//! from 1 down to 0.01, reporting the ratio `Ĥ(g)/H(f)` (Theorem 5 promises
//! it stays within constant bounds once `H(f)` clears the threshold) and
//! the Proposition 1 residual `|H_pn(g) − H(g)|`.

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Summary, Table};
use sss_core::{SampledEntropyEstimator, SubsampledEstimator};
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream, ZipfStream};

fn main() {
    print_header(
        "E6: entropy positive result (Theorem 5, Proposition 1, Lemma 10)",
        "H(g) estimated on L is a constant-factor approximation of H(f) when H(f) = omega(p^-1/2 n^-1/6)",
        "streams of increasing entropy; n=400k; trials=8 per cell",
    );

    let n: u64 = 400_000;
    let trials = 8;
    let workloads: Vec<(&str, Vec<u64>)> = vec![
        ("zipf(2.0) m=64", ZipfStream::new(64, 2.0).generate(n, 51)),
        (
            "zipf(1.2) m=4096",
            ZipfStream::new(4096, 1.2).generate(n, 52),
        ),
        ("uniform m=256", UniformStream::new(256).generate(n, 53)),
        ("uniform m=8192", UniformStream::new(8192).generate(n, 54)),
    ];

    let mut table = Table::new(
        "ratio estimate/H(f) across rates (constant-factor band expected)",
        &[
            "workload",
            "H(f)",
            "p",
            "threshold",
            "med ratio",
            "min ratio",
            "max ratio",
        ],
    );
    for (name, stream) in &workloads {
        let h = ExactStats::from_stream(stream.iter().copied()).entropy();
        for &p in &[1.0f64, 0.1, 0.01] {
            let ratios = run_trials(trials, 1700, |seed| {
                let mut est = SampledEntropyEstimator::new(p, 3000, seed);
                let mut sampler = BernoulliSampler::new(p, seed ^ 0xE6);
                sampler.sample_slice(stream, |x| est.update(x));
                est.estimate().value / h
            });
            let s = Summary::of(&ratios);
            let min = ratios.iter().copied().fold(f64::INFINITY, f64::min);
            let threshold = SampledEntropyEstimator::new(p, 16, 0).guarantee_threshold(n);
            table.row(vec![
                name.to_string(),
                fmt_g(h),
                format!("{p}"),
                fmt_g(threshold),
                fmt_g(s.median),
                fmt_g(min),
                fmt_g(s.max),
            ]);
        }
    }
    table.print();

    // Proposition 1: |H_pn(g) − H(g)| = O(log m / sqrt(pn)).
    let mut t2 = Table::new(
        "Proposition 1 residual |H_pn(g) - H(g)|",
        &["workload", "p", "med |residual|", "bound lg(m)/sqrt(pn)"],
    );
    let stream = &workloads[3].1; // uniform m=8192
    for &p in &[0.5f64, 0.1, 0.01] {
        let residuals = run_trials(trials, 2100, |seed| {
            // Exact H(g) by materialising the same sample.
            let mut sampler = BernoulliSampler::new(p, seed ^ 0xE7);
            let mut sampled = Vec::new();
            sampler.sample_slice(stream, |x| sampled.push(x));
            let stats = ExactStats::from_stream(sampled.iter().copied());
            let hg = stats.entropy();
            let n_prime = stats.n() as f64;
            let pn = p * n as f64;
            // Exact H_pn(g) from the sampled frequencies.
            let hpn: f64 = stats
                .iter()
                .map(|(_, g)| (g as f64 / pn) * (pn / g as f64).log2())
                .sum();
            let _ = n_prime;
            (hpn - hg).abs()
        });
        let s = Summary::of(&residuals);
        let bound = (8192f64).log2() / (p * n as f64).sqrt();
        t2.row(vec![
            "uniform m=8192".to_string(),
            format!("{p}"),
            fmt_g(s.median),
            fmt_g(bound),
        ]);
    }
    t2.print();

    println!(
        "\nReading: ratios sit in a narrow constant band (lg(1/p)-sized dips\n\
         appear only for the highest-entropy stream at the smallest p, where\n\
         the singleton tail dominates — the H_pn ≥ H(f)/2 − o(1) side of\n\
         Lemma 10 is the binding one there). The Proposition 1 residual is\n\
         orders of magnitude below H and shrinks as 1/sqrt(pn)."
    );
}
