//! E2 — Theorem 1 space: the sketched estimator needs width
//! `Θ(p⁻¹·m^{1−2/k})`; error vs. allocated space at a fixed rate, and
//! space needed as the rate shrinks.
//!
//! Two sweeps on `F_2` with the full Indyk–Woodruff pipeline:
//! (a) fixed `p`, growing sketch width — error should drop to the
//!     sampling-noise floor once width passes the theorem's threshold;
//! (b) width chosen by [`sss_core::recommended_levelset_config`] as `p`
//!     shrinks — counters allocated should grow as `1/p` while the error
//!     stays flat (the paper's space/rate tradeoff, §1.2 item 1).

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Summary, Table};
use sss_core::{
    recommended_levelset_config, ApproxParams, SampledFkEstimator, SubsampledEstimator,
};
use sss_sketch::levelset::LevelSetConfig;
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

fn main() {
    print_header(
        "E2: Fk space (Theorem 1)",
        "Sketched Algorithm 1 reaches (1+eps) at width ~ p^-1 * m^(1-2/k); space scales as 1/p",
        "Zipf(1.3) m=20k, n=300k, k=2; trials=6 per cell",
    );

    let n: u64 = 300_000;
    let m: u64 = 20_000;
    let trials = 6;
    let stream = ZipfStream::new(m, 1.3).generate(n, 7);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);

    // Sweep (a): fixed p, growing width.
    let p = 0.2;
    let mut ta = Table::new(
        &format!("error vs sketch width at p = {p}"),
        &["width", "space (words)", "med err", "p90 err"],
    );
    for width in [64usize, 128, 256, 512, 1024, 2048] {
        let mut space = 0usize;
        let errs = run_trials(trials, 500, |seed| {
            let cfg = LevelSetConfig {
                width,
                track: width,
                ..LevelSetConfig::for_universe(m, width)
            };
            let mut est = SampledFkEstimator::sketched(2, p, &cfg, seed);
            let mut sampler = BernoulliSampler::new(p, seed ^ 0x5EED);
            sampler.sample_slice(&stream, |x| est.update(x));
            space = est.space_words();
            ApproxParams::mult_error(est.estimate().value, truth) - 1.0
        });
        let s = Summary::of(&errs);
        ta.row(vec![
            width.to_string(),
            space.to_string(),
            fmt_g(s.median),
            fmt_g(s.p90),
        ]);
    }
    ta.print();

    // Sweep (b): recommended width as p shrinks.
    let mut tb = Table::new(
        "space and error with the theorem's width ~ p^-1 * m^0 (k=2)",
        &["p", "width", "space (words)", "med err", "p90 err"],
    );
    for &p in &[0.5f64, 0.25, 0.1, 0.05] {
        let cfg = recommended_levelset_config(2, m, p, 0.2);
        let mut space = 0usize;
        let errs = run_trials(trials, 900, |seed| {
            let mut est = SampledFkEstimator::sketched(2, p, &cfg, seed);
            let mut sampler = BernoulliSampler::new(p, seed ^ 0xBEEF);
            sampler.sample_slice(&stream, |x| est.update(x));
            space = est.space_words();
            ApproxParams::mult_error(est.estimate().value, truth) - 1.0
        });
        let s = Summary::of(&errs);
        tb.row(vec![
            format!("{p}"),
            cfg.width.to_string(),
            space.to_string(),
            fmt_g(s.median),
            fmt_g(s.p90),
        ]);
    }
    tb.print();

    println!(
        "\nReading: in (a) error falls with width until the sampling-noise\n\
         floor; in (b) width doubles as p halves (the O~(p^-1 m^(1-2/k))\n\
         bound) while the error band stays roughly constant."
    );
}
