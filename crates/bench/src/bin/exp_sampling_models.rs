//! E14 (extension) — sampling-model comparison: Bernoulli ("sampled
//! NetFlow", this paper's model) vs deterministic 1-in-N vs
//! sample-and-hold (§1.3, [22, 23]).
//!
//! Same packet trace, same nominal budget `p`. We compare (a) per-flow
//! size estimates for elephants and (b) an `F_2` estimate, under each
//! model — quantifying the trade the paper describes qualitatively:
//! sample-and-hold is sharper per elephant but holds per-flow state and
//! gives no handle on the aggregate moments machinery; Bernoulli sampling
//! supports the full estimator suite of this crate; 1-in-N mimics
//! Bernoulli on aggregates but voids the independence the guarantees
//! need.

use sss_bench::table::fmt_g;
use sss_bench::{mean, print_header, Table};
use sss_core::{SampledFkEstimator, SubsampledEstimator};
use sss_stream::{
    BernoulliSampler, ExactStats, NetFlowStream, OneInNSampler, SampleAndHold, StreamGen,
};

fn main() {
    print_header(
        "E14 (extension): Bernoulli vs 1-in-N vs sample-and-hold (paper §1.3)",
        "Same budget, three sampling models: per-elephant accuracy vs aggregate estimation",
        "NetFlow trace n=1M, p=0.02 (1-in-50); trials=5",
    );

    let n = 1_000_000u64;
    let p = 0.02;
    let trace = NetFlowStream::new(1 << 24, 1.1, 100_000).generate(n, 21);
    let exact = ExactStats::from_stream(trace.iter().copied());
    let f2_true = exact.fk(2);
    // The ten largest flows are the elephants routers bill on.
    let mut flows: Vec<(u64, u64)> = exact.iter().collect();
    flows.sort_by_key(|&(_, f)| std::cmp::Reverse(f));
    let elephants: Vec<(u64, u64)> = flows.into_iter().take(10).collect();

    let trials = 5u64;
    let mut per_flow = Table::new(
        "mean relative error of elephant size estimates",
        &["model", "mean rel err (top 10 flows)", "state (entries)"],
    );

    // Bernoulli: estimate flow size as sampled count / p.
    let mut bern_errs = Vec::new();
    let mut bern_state = 0.0;
    for t in 0..trials {
        let mut sampler = BernoulliSampler::new(p, 31 + t);
        let mut counts = sss_hash::fp_hash_map::<u64, u64>();
        sampler.sample_slice(&trace, |x| *counts.entry(x).or_insert(0) += 1);
        bern_state += counts.len() as f64 / trials as f64;
        for &(flow, size) in &elephants {
            let est = counts.get(&flow).copied().unwrap_or(0) as f64 / p;
            bern_errs.push((est - size as f64).abs() / size as f64);
        }
    }
    per_flow.row(vec![
        "Bernoulli (count/p)".to_string(),
        fmt_g(mean(&bern_errs)),
        fmt_g(bern_state),
    ]);

    // 1-in-N deterministic.
    let mut det_errs = Vec::new();
    let det_state;
    {
        let mut sampler = OneInNSampler::new((1.0 / p) as u64);
        let mut counts = sss_hash::fp_hash_map::<u64, u64>();
        for &x in &trace {
            if sampler.keep() {
                *counts.entry(x).or_insert(0) += 1;
            }
        }
        det_state = counts.len() as f64;
        for &(flow, size) in &elephants {
            let est = counts.get(&flow).copied().unwrap_or(0) as f64 / p;
            det_errs.push((est - size as f64).abs() / size as f64);
        }
    }
    per_flow.row(vec![
        "1-in-N (count/p)".to_string(),
        fmt_g(mean(&det_errs)),
        fmt_g(det_state),
    ]);

    // Sample-and-hold.
    let mut sh_errs = Vec::new();
    let mut sh_state = 0.0;
    for t in 0..trials {
        let mut sh = SampleAndHold::new(p, 41 + t);
        for &x in &trace {
            sh.update(x);
        }
        sh_state += sh.tracked_flows() as f64 / trials as f64;
        for &(flow, size) in &elephants {
            sh_errs.push((sh.estimate(flow) - size as f64).abs() / size as f64);
        }
    }
    per_flow.row(vec![
        "sample-and-hold".to_string(),
        fmt_g(mean(&sh_errs)),
        fmt_g(sh_state),
    ]);
    per_flow.print();

    // Aggregate estimation: Algorithm 1 under each sampling model.
    let mut agg = Table::new(
        "F2 estimation (Algorithm 1 fed by each model's sample)",
        &["model", "mean mult err", "guarantee applies"],
    );
    let mut errs = Vec::new();
    for t in 0..trials {
        let mut est = SampledFkEstimator::exact(2, p);
        let mut sampler = BernoulliSampler::new(p, 51 + t);
        sampler.sample_slice(&trace, |x| est.update(x));
        errs.push((est.estimate().value / f2_true).max(f2_true / est.estimate().value));
    }
    agg.row(vec![
        "Bernoulli".to_string(),
        fmt_g(mean(&errs)),
        "yes (Thm 1)".to_string(),
    ]);
    let mut errs = Vec::new();
    {
        let mut est = SampledFkEstimator::exact(2, p);
        let mut sampler = OneInNSampler::new((1.0 / p) as u64);
        for &x in &trace {
            if sampler.keep() {
                est.update(x);
            }
        }
        errs.push((est.estimate().value / f2_true).max(f2_true / est.estimate().value));
    }
    agg.row(vec![
        "1-in-N".to_string(),
        fmt_g(mean(&errs)),
        "no (deterministic survival)".to_string(),
    ]);
    agg.print();

    println!(
        "\nReading: sample-and-hold wins per-elephant (it counts exactly\n\
         after first sample) at similar state, but provides nothing for\n\
         aggregate moments; Bernoulli feeds the whole estimator suite with\n\
         guarantees. 1-in-N tracks Bernoulli numerically on this trace —\n\
         but its survival events are not independent, so every analysis in\n\
         the paper is void under it (shuffled flows make it behave; crafted\n\
         periodic traces break it)."
    );
}
