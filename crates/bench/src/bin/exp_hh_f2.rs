//! E8 — Theorem 7: `F_2` heavy hitters of the original stream via
//! CountSketch on the sampled stream.
//!
//! The workload plants one elephant over a sea of singletons — an item that
//! is `F_2`-heavy while holding a negligible share of `F_1`, the regime
//! where `F_2`-heavy-hitter machinery (and not Theorem 6) is required. We
//! measure recall of `{i : f_i ≥ α√F_2}`, false positives against the
//! theorem's weakened cutoff `(1−ε)·√p·α·√F_2`, frequency error, and the
//! `Õ(1/p)` space growth from the `α′ = α√p` shift.

use sss_bench::table::{fmt_g, fmt_pct};
use sss_bench::{print_header, Table};
use sss_core::{SampledF2HeavyHitters, SubsampledEstimator};
use sss_hash::RngCore64;
use sss_stream::{BernoulliSampler, ExactStats};

fn elephant_stream(n_background: u64, elephant: u64, freq: u64, seed: u64) -> Vec<u64> {
    let mut stream: Vec<u64> = (0..n_background)
        .map(|i| sss_hash::fingerprint64(i ^ (seed << 32)))
        .collect();
    stream.extend(std::iter::repeat_n(elephant, freq as usize));
    let mut rng = sss_hash::Xoshiro256pp::new(seed);
    for i in (1..stream.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        stream.swap(i, j);
    }
    stream
}

fn main() {
    print_header(
        "E8: F2 heavy hitters from the sampled stream (Theorem 7)",
        "CountSketch(alpha*sqrt(p), eps/10, delta/4) on L finds every f_i >= alpha*sqrt(F2(P))",
        "1 elephant (f=8k) over 300k singletons; alpha=0.5 eps=0.2 delta=0.05; trials=5",
    );

    let n_background = 300_000u64;
    let elephant = 424_242u64;
    let freq = 8_000u64;
    let alpha = 0.5;
    let eps = 0.2;
    let delta = 0.05;
    let trials = 5u64;

    let mut table = Table::new(
        "recall / precision / frequency error / space",
        &[
            "p",
            "recall",
            "false pos",
            "med f err",
            "space (words)",
            "space x vs p=1",
        ],
    );

    let mut base_space = 0usize;
    for &p in &[1.0f64, 0.25, 0.0625] {
        let mut recall_hits = 0u64;
        let mut false_pos = 0u64;
        let mut ferrs: Vec<f64> = Vec::new();
        let mut space = 0usize;
        for t in 0..trials {
            let stream = elephant_stream(n_background, elephant, freq, 7 + t);
            let stats = ExactStats::from_stream(stream.iter().copied());
            let sqrt_f2 = stats.fk(2).sqrt();
            assert!(freq as f64 >= alpha * sqrt_f2, "workload not F2-heavy");
            let weak_cutoff = (1.0 - eps) * p.sqrt() * alpha * sqrt_f2;

            let mut hh = SampledF2HeavyHitters::new(alpha, eps, delta, p, 900 + t);
            let mut sampler = BernoulliSampler::new(p, 1100 + t);
            sampler.sample_slice(&stream, |x| hh.update(x));
            space = hh.space_words();
            let report = hh.report();
            if report.iter().any(|&(i, _)| i == elephant) {
                recall_hits += 1;
                let f_est = report.iter().find(|&&(i, _)| i == elephant).unwrap().1;
                ferrs.push((f_est - freq as f64).abs() / freq as f64);
            }
            for &(i, _) in &report {
                if (stats.freq(i) as f64) < weak_cutoff {
                    false_pos += 1;
                }
            }
        }
        if p == 1.0 {
            base_space = space;
        }
        ferrs.sort_by(|a, b| a.total_cmp(b));
        table.row(vec![
            format!("{p}"),
            fmt_pct(recall_hits as f64 / trials as f64),
            false_pos.to_string(),
            fmt_g(ferrs.get(ferrs.len() / 2).copied().unwrap_or(f64::NAN)),
            space.to_string(),
            fmt_g(space as f64 / base_space as f64),
        ]);
    }
    table.print();

    println!(
        "\nReading: the elephant — invisible to any F1-based reporter at\n\
         this share — is recovered at every rate, with no reported item\n\
         below the theorem's (1-eps)*sqrt(p)*alpha*sqrt(F2) cutoff. Space\n\
         grows as ~1/p via the alpha' = alpha*sqrt(p) shift: the paper's\n\
         O~(1/p) bound for k=2 made visible."
    );
}
