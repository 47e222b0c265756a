//! Survey of `F_2` estimation strategies across sampling rates.
//!
//! ```text
//! cargo run --release --example moments_survey
//! ```
//!
//! Races four ways of answering "what is `F_2(P)`?" from the same samples:
//!
//! 1. Algorithm 1 with exact collision counting,
//! 2. Algorithm 1 with the Indyk–Woodruff sketched collisions (the paper's
//!    full small-space pipeline),
//! 3. the Rusu–Dobra scaling baseline,
//! 4. naive normalisation `F_2(L)/p²`.

use subsampled_streams::core::{
    recommended_levelset_config, ApproxParams, NaiveScaledFk, RusuDobraF2, SampledFkEstimator,
    SubsampledEstimator,
};
use subsampled_streams::stream::{
    BernoulliSampler, ExactStats, StreamGen, UniformStream, ZipfStream,
};

fn survey(label: &str, stream: &[u64], m: u64) {
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
    let trials = 5u64;

    println!("-- {label}: truth F2 = {truth:.3e} --");
    println!(
        "{:>6}  {:>12}  {:>14}  {:>12}  {:>12}",
        "p", "Alg1 exact", "Alg1 sketched", "Rusu-Dobra", "naive /p^2"
    );

    for &p in &[0.5f64, 0.1, 0.02] {
        let median = |errs: &mut Vec<f64>| {
            errs.sort_by(|a, b| a.total_cmp(b));
            errs[errs.len() / 2]
        };

        let mut e1 = Vec::new();
        let mut e2 = Vec::new();
        let mut e3 = Vec::new();
        let mut e4 = Vec::new();
        for t in 0..trials {
            let cfg = recommended_levelset_config(2, m, p, 0.3);
            let mut alg1 = SampledFkEstimator::exact(2, p);
            let mut alg1s = SampledFkEstimator::sketched(2, p, &cfg, 100 + t);
            let mut rd = RusuDobraF2::new(p, 7, 96, 200 + t);
            let mut naive = NaiveScaledFk::new(2, p);
            let mut sampler = BernoulliSampler::new(p, 300 + t);
            sampler.sample_slice(stream, |x| {
                alg1.update(x);
                alg1s.update(x);
                rd.update(x);
                naive.update(x);
            });
            e1.push(ApproxParams::mult_error(alg1.estimate().value, truth));
            e2.push(ApproxParams::mult_error(alg1s.estimate().value, truth));
            e3.push(ApproxParams::mult_error(rd.estimate().value, truth));
            e4.push(ApproxParams::mult_error(naive.estimate().value, truth));
        }
        println!(
            "{:>6}  {:>12.4}  {:>14.4}  {:>12.4}  {:>12.4}",
            p,
            median(&mut e1),
            median(&mut e2),
            median(&mut e3),
            median(&mut e4)
        );
    }
    println!();
}

fn main() {
    let n = 500_000u64;
    let m = 50_000u64;
    println!("F2 estimation survey: n = {n}, m = {m}");
    println!("(median multiplicative error over 5 sampling trials; 1.00 = exact)\n");

    // Heavy tail: F2 lives on elephants, which every method samples well.
    let zipf = ZipfStream::new(m, 1.1).generate(n, 7);
    survey("zipf(1.1) — heavy tail", &zipf, m);

    // Light tail: per-item frequency ~10; the cross-term p(1-p)F1 that
    // naive scaling ignores is ~5x F2 at p = 0.02.
    let uniform = UniformStream::new(m).generate(n, 8);
    survey("uniform — light tail", &uniform, m);

    println!(
        "Takeaway: on heavy tails everything looks fine — the elephants\n\
         dominate F2 and survive sampling. On light tails the naive\n\
         normalisation is off by a factor approaching 1/p (it never\n\
         subtracts the p(1-p)F1 cross-term), and Rusu-Dobra's variance\n\
         needs O~(1/p^2) space to contain. Algorithm 1's collision\n\
         correction tracks the truth in both regimes from the same sample."
    );
}
