//! Estimators for statistics of a stream observed only through Bernoulli
//! sub-sampling.
//!
//! This crate is the reproduction of
//!
//! > McGregor, Pavan, Tirthapura, Woodruff.
//! > *Space-Efficient Estimation of Statistics over Sub-Sampled Streams.*
//! > PODS 2012 / Algorithmica 74(2), 2016.
//!
//! **Setting.** An original stream `P` over universe `[m]` is Bernoulli
//! sampled at a known, fixed rate `p`; the algorithm sees only the sampled
//! stream `L`, in one pass, in small space, and must estimate aggregates of
//! `P`. Plain "estimate on `L` and rescale" fails for most aggregates; each
//! estimator here implements the paper's correction:
//!
//! | Estimator | Paper result | Guarantee |
//! |---|---|---|
//! | [`SampledFkEstimator`] | Thm 1 (§3) | `(1+ε, δ)` for `F_k`, `k ≥ 2`, space `Õ(p⁻¹m^{1−2/k})` |
//! | [`SampledF0Estimator`] | Lemma 8 (§4) | error `≤ 4/√p` — optimal up to constants (Thm 4) |
//! | [`SampledEntropyEstimator`] | Thm 5 (§5) | constant factor when `H(f) = ω(p^{−1/2}n^{−1/6})` |
//! | [`SampledF1HeavyHitters`] | Thm 6 (§6) | `(α, ε, δ)` `F_1`-heavy hitters when `F_1 ≥ Cp⁻¹α⁻¹ε⁻²log(n/δ)` |
//! | [`SampledF2HeavyHitters`] | Thm 7 (§6) | `(α, 1−√p(1−ε))` `F_2`-heavy hitters, space `Õ(1/p)` |
//!
//! Baselines ([`baselines`]) cover Rusu–Dobra `F_2` scaling and the naive
//! normalisations the introduction motivates against.
//!
//! ## The unified API
//!
//! Every estimator above (plus the baselines and the adaptive-rate
//! extension) implements [`SubsampledEstimator`]: `update` /
//! `update_batch` over the sampled stream, `merge` for distributed
//! monitors over disjoint traffic, a typed [`Estimate`] carrying the
//! point value, its [`Guarantee`] and provenance, and honest
//! `space_bytes` accounting. The [`Monitor`] front-end (see
//! [`monitor`]) registers any subset of statistics and drives them all
//! in a single pass:
//!
//! ```
//! use sss_core::{MonitorBuilder, Statistic};
//!
//! let mut monitor = MonitorBuilder::new(0.5).f0(0.05).fk(2).build();
//! monitor.update_batch(&[7, 7, 9, 4]);
//! let f2 = monitor.estimate(Statistic::Fk(2)).unwrap();
//! assert_eq!(f2.value, 16.0); // 2·C₂/p² + F₁(L)/p on the toy sample
//! ```

#![forbid(unsafe_code)]

pub mod adaptive;
pub mod baselines;
pub mod collisions;
pub mod concurrent;
pub mod delta;
pub mod entropy;
pub mod estimate;
pub mod f0;
pub mod fk;
pub mod flows;
mod frequency;
pub mod heavy_hitters;
pub mod monitor;
pub mod numeric;
pub mod params;
pub mod stirling;

pub use adaptive::{AdaptiveF2Estimator, TargetCollisionsPolicy};
pub use baselines::{NaiveScaledF0, NaiveScaledFk, RusuDobraF2};
pub use collisions::{CollisionOracle, ExactCollisions, LevelSetCollisions};
pub use concurrent::{ConcurrentConfig, ConcurrentMonitor, ParallelStrategy};
pub use delta::{apply_snapshot_delta, snapshot_delta, SnapshotDelta};
pub use entropy::SampledEntropyEstimator;
pub use estimate::{
    rates_compatible, Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator,
    RATE_MERGE_RTOL,
};
pub use f0::{f0_lower_bound_factor, SampledF0Estimator};
pub use fk::{
    fk_error_schedule, min_sampling_probability, recommended_levelset_config, SampledFkEstimator,
};
pub use flows::{FlowSizeEstimate, FlowSizeUnfolder, SampledFlowHistogram};
pub use heavy_hitters::{
    theorem6_min_f1, theorem7_min_sqrt_f2, SampledF1HeavyHitters, SampledF2HeavyHitters,
    SampledHeavyHitters,
};
pub use monitor::{Monitor, MonitorBuilder};
pub use params::ApproxParams;
