//! E3 — §1.2 time/space tradeoff: estimating `F_2` with `n = Θ(m)` and
//! `p = Θ(1/√n)` takes `Õ(√n)` total processing and `Õ(√n)` workspace.
//!
//! We sweep `n`, set `p = c/√n`, and measure (i) how many sampled elements
//! the estimator actually processes (its total work — every other stream
//! algorithm must touch all `n` elements) and (ii) its resident space,
//! then report both against `√n`.

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Table};
use sss_core::{ApproxParams, SampledFkEstimator, SubsampledEstimator};
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

fn main() {
    print_header(
        "E3: time/space tradeoff at p = c/sqrt(n) (paper §1.2)",
        "F_2 with n = Theta(m): O~(sqrt n) total work and O~(sqrt n) workspace",
        "Zipf(1.05), m = n, p = 4/sqrt(n); trials=10",
    );

    let trials = 10;
    let mut table = Table::new(
        "work and space vs n  (expect items/sqrt(n) and space/sqrt(n) ~ constant)",
        &[
            "n",
            "p=4/sqrt(n)",
            "samples seen",
            "samples/sqrt(n)",
            "space (words)",
            "space/sqrt(n)",
            "med err",
        ],
    );

    for exp in [14u32, 16, 18, 20] {
        let n: u64 = 1 << exp;
        let p = (4.0 / (n as f64).sqrt()).min(1.0);
        let stream = ZipfStream::new(n, 1.05).generate(n, 11);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let mut seen = 0.0f64;
        let mut space = 0.0f64;
        let errs = run_trials(trials, 3000 + exp as u64, |seed| {
            let mut est = SampledFkEstimator::exact(2, p);
            let mut sampler = BernoulliSampler::new(p, seed);
            sampler.sample_slice(&stream, |x| est.update(x));
            seen += est.samples_seen() as f64 / trials as f64;
            space += est.space_words() as f64 / trials as f64;
            ApproxParams::mult_error(est.estimate().value, truth) - 1.0
        });
        let mut sorted = errs.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let sqrt_n = (n as f64).sqrt();
        table.row(vec![
            n.to_string(),
            fmt_g(p),
            fmt_g(seen),
            fmt_g(seen / sqrt_n),
            fmt_g(space),
            fmt_g(space / sqrt_n),
            fmt_g(sorted[trials as usize / 2]),
        ]);
    }
    table.print();

    println!(
        "\nReading: both normalised columns stay O(1) as n grows 64x —\n\
         the estimator reads and stores only ~sqrt(n) elements, versus the\n\
         Omega(n) reading cost of any conventional streaming algorithm,\n\
         while the error column shows accuracy is retained (constant-factor\n\
         here; drive it down with the constant in p = c/sqrt(n))."
    );
}
