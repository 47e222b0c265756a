//! Batch-vs-scalar equivalence battery for the paper's estimators and
//! the full `Monitor`, through the shared harness in
//! `sss_sketch::equiv` — estimates bit-for-bit AND encoded snapshots
//! byte-for-byte, across seeds × chunk sizes.

use sss_core::{
    recommended_levelset_config, AdaptiveF2Estimator, MonitorBuilder, NaiveScaledF0, NaiveScaledFk,
    RusuDobraF2, SampledEntropyEstimator, SampledF0Estimator, SampledF1HeavyHitters,
    SampledF2HeavyHitters, SampledFkEstimator, SubsampledEstimator,
};
use sss_hash::{RngCore64, Xoshiro256pp};
use sss_sketch::equiv::assert_batch_equals_scalar;

const P: f64 = 0.25;

/// Skewed mixture standing in for a Bernoulli(p)-sampled stream `L`.
fn sampled_stream(seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    let mut xs: Vec<u64> = (0..3_000).map(|_| 42).collect();
    for _ in 0..9_000 {
        xs.push(if rng.next_bool(0.4) {
            rng.next_below(3)
        } else {
            3 + rng.next_below(4096)
        });
    }
    xs
}

fn weighted_pairs(v: Vec<(u64, f64)>) -> Vec<f64> {
    v.into_iter().flat_map(|(i, e)| [i as f64, e]).collect()
}

#[test]
fn sampled_f0() {
    assert_batch_equals_scalar(
        "SampledF0Estimator",
        sampled_stream,
        |seed| SampledF0Estimator::new(P, 0.05, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value, s.samples_seen() as f64],
    );
}

#[test]
fn sampled_entropy() {
    assert_batch_equals_scalar(
        "SampledEntropyEstimator",
        sampled_stream,
        |seed| SampledEntropyEstimator::new(P, 128, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

#[test]
fn sampled_fk_exact() {
    assert_batch_equals_scalar(
        "SampledFkEstimator<Exact>",
        sampled_stream,
        |_seed| SampledFkEstimator::exact(2, P),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

#[test]
fn sampled_fk_level_sets() {
    assert_batch_equals_scalar(
        "SampledFkEstimator<LevelSets>",
        sampled_stream,
        |seed| {
            let cfg = recommended_levelset_config(2, 1 << 12, P, 0.2);
            SampledFkEstimator::sketched(2, P, &cfg, seed)
        },
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

#[test]
fn sampled_f1_heavy_hitters() {
    assert_batch_equals_scalar(
        "SampledF1HeavyHitters",
        sampled_stream,
        |seed| SampledF1HeavyHitters::new(0.05, 0.2, 0.05, P, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| weighted_pairs(s.report()),
    );
}

#[test]
fn sampled_f2_heavy_hitters() {
    assert_batch_equals_scalar(
        "SampledF2HeavyHitters",
        sampled_stream,
        |seed| SampledF2HeavyHitters::new(0.05, 0.2, 0.05, P, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| weighted_pairs(s.report()),
    );
}

#[test]
fn rusu_dobra_baseline() {
    assert_batch_equals_scalar(
        "RusuDobraF2",
        sampled_stream,
        |seed| RusuDobraF2::new(P, 16, 5, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

#[test]
fn naive_scaled_baselines() {
    assert_batch_equals_scalar(
        "NaiveScaledFk",
        sampled_stream,
        |_seed| NaiveScaledFk::new(2, P),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
    assert_batch_equals_scalar(
        "NaiveScaledF0",
        sampled_stream,
        |seed| NaiveScaledF0::new(P, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

#[test]
fn adaptive_f2() {
    assert_batch_equals_scalar(
        "AdaptiveF2Estimator",
        sampled_stream,
        |_seed| AdaptiveF2Estimator::new(P),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate().value],
    );
}

/// The full monitor: every registered estimator's batch path at once,
/// including the fan-out/dispatch layer in `Monitor::update_batch`.
#[test]
fn full_monitor() {
    assert_batch_equals_scalar(
        "Monitor",
        sampled_stream,
        |seed| {
            MonitorBuilder::with_seed(P, seed)
                .f0(0.05)
                .fk(2)
                .entropy(128)
                .f1_heavy_hitters(0.05, 0.2, 0.05)
                .f2_heavy_hitters(0.05, 0.2, 0.05)
                .build()
        },
        |m, x| m.update(x),
        |m, xs| m.update_batch(xs),
        |m| m.report().into_iter().map(|(_, e)| e.value).collect(),
    );
}
