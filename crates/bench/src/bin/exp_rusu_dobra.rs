//! E9 — §1.3 baseline comparison: collision-based `F_2` (this paper,
//! `Õ(1/p)` space) versus Rusu–Dobra scaling (`Õ(1/p²)` space for the same
//! guarantee).
//!
//! Both observe identical samples. Part 1 fixes the space budget and
//! sweeps `p`: the scaling estimator's error grows much faster as `p`
//! drops. Part 2 asks the operational question — how much AMS space does
//! Rusu–Dobra need to match the collision estimator's error at each `p`?
//! The answer grows like `1/p` *relative* to ours, i.e. `1/p²` absolute.

use sss_bench::table::fmt_g;
use sss_bench::{print_header, run_trials, Summary, Table};
use sss_core::{ApproxParams, RusuDobraF2, SampledFkEstimator, SubsampledEstimator};
use sss_stream::{BernoulliSampler, ExactStats, StreamGen, UniformStream};

fn rd_median_err(
    stream: &[u64],
    truth: f64,
    p: f64,
    groups: usize,
    copies: usize,
    trials: u64,
) -> f64 {
    let errs = run_trials(trials, 4400, |seed| {
        let mut rd = RusuDobraF2::new(p, groups, copies, seed);
        let mut sampler = BernoulliSampler::new(p, seed ^ 0x9D);
        sampler.sample_slice(stream, |x| rd.update(x));
        ApproxParams::mult_error(rd.estimate().value, truth) - 1.0
    });
    Summary::of(&errs).median
}

fn main() {
    print_header(
        "E9: collision method vs Rusu-Dobra scaling (paper §1.3)",
        "Ours needs O~(1/p) space for (1+eps, delta) F2; RD scaling needs O~(1/p^2)",
        "uniform m=50k, n=300k (light tail: the adversarial regime for scaling); trials=10",
    );

    let stream = UniformStream::new(50_000).generate(300_000, 77);
    let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
    let trials = 10;

    // Part 1: fixed space, sweep p.
    let groups = 7;
    let copies = 96;
    let mut t1 = Table::new(
        "fixed space (RD: 7x96 AMS counters), error vs p",
        &["p", "ours med err", "RD med err", "RD/ours"],
    );
    for &p in &[0.3f64, 0.1, 0.03, 0.01] {
        let ours = {
            let errs = run_trials(trials, 4000, |seed| {
                let mut est = SampledFkEstimator::exact(2, p);
                let mut sampler = BernoulliSampler::new(p, seed ^ 0x9D);
                sampler.sample_slice(&stream, |x| est.update(x));
                ApproxParams::mult_error(est.estimate().value, truth) - 1.0
            });
            Summary::of(&errs).median
        };
        let rd = rd_median_err(&stream, truth, p, groups, copies, trials);
        t1.row(vec![
            format!("{p}"),
            fmt_g(ours),
            fmt_g(rd),
            fmt_g(rd / ours.max(1e-9)),
        ]);
    }
    t1.print();

    // Part 2: AMS copies RD needs to match our error.
    let mut t2 = Table::new(
        "AMS copies Rusu-Dobra needs to reach <= 10% median error",
        &[
            "p",
            "copies needed",
            "counters total",
            "growth vs previous p",
        ],
    );
    let mut prev: Option<f64> = None;
    for &p in &[0.3f64, 0.1, 0.03] {
        let mut needed = None;
        for copies in [16usize, 32, 64, 128, 256, 512, 1024, 2048, 4096] {
            if rd_median_err(&stream, truth, p, groups, copies, trials) <= 0.10 {
                needed = Some(copies);
                break;
            }
        }
        let label = needed.map_or("> 4096".to_string(), |c| c.to_string());
        let total = needed.map_or(">28672".to_string(), |c| (groups * c).to_string());
        let growth = match (prev, needed) {
            (Some(a), Some(b)) => fmt_g(b as f64 / a),
            _ => "-".to_string(),
        };
        prev = needed.map(|c| c as f64);
        t2.row(vec![format!("{p}"), label, total, growth]);
    }
    t2.print();

    println!(
        "\nReading: at fixed space the scaling estimator degrades roughly an\n\
         order of magnitude faster per decade of p; to hold 10% error its\n\
         sketch must grow ~1/p-fold each time p drops ~3x — i.e. O~(1/p^2)\n\
         absolute space versus the collision method's O~(1/p). This is the\n\
         gap the paper claims over [34]."
    );
}
