//! The unified estimation API: one trait for every estimator that observes
//! a Bernoulli-sampled stream, and a typed [`Estimate`] for what it
//! returns.
//!
//! The paper's five results — Theorem 1 (`F_k`), Lemma 8 (`F_0`),
//! Theorem 5 (entropy) and Theorems 6–7 (heavy hitters) — are all
//! one-pass estimators over the *same* sampled stream `L`, differing only
//! in what they maintain and what they promise. [`SubsampledEstimator`]
//! captures that shape:
//!
//! * `update` / `update_batch` — ingest elements of `L`,
//! * `merge` — combine with a second estimator that observed a disjoint
//!   part of `P` sampled at the same rate (the distributed router
//!   deployment),
//! * `estimate` — a typed [`Estimate`] carrying the point value, the
//!   guarantee the paper proves for it, and provenance,
//! * `space_bytes` — honest memory accounting.
//!
//! The [`Monitor`](crate::monitor::Monitor) front-end drives any set of
//! these in a single pass.

use sss_sketch::Mismatch;

use crate::params::ApproxParams;

/// Relative tolerance for comparing the sampling rates of two summaries
/// being merged. Shard `p` values that travelled through configuration
/// files or serialization can disagree in the last few ulps; a relative
/// check admits those while still rejecting genuinely different rates.
pub const RATE_MERGE_RTOL: f64 = 1e-9;

/// Whether two sampling rates are close enough to merge: finite, and
/// within [`RATE_MERGE_RTOL`] *relative* error of each other. NaN-safe
/// (a NaN rate is never compatible with anything, including itself).
#[inline]
pub fn rates_compatible(a: f64, b: f64) -> bool {
    a.is_finite() && b.is_finite() && (a - b).abs() <= RATE_MERGE_RTOL * a.abs().max(b.abs())
}

/// [`rates_compatible`] as a merge check: `left` is the receiving side.
pub(crate) fn check_rates(left: f64, right: f64) -> Result<(), MergeError> {
    if rates_compatible(left, right) {
        Ok(())
    } else {
        Err(MergeError::RateMismatch { left, right })
    }
}

/// Why two summaries refused to merge. Returned by
/// [`SubsampledEstimator::merge_compatible`],
/// [`Monitor::check_mergeable`](crate::monitor::Monitor::check_mergeable)
/// and [`Monitor::try_merge`](crate::monitor::Monitor::try_merge), so a
/// release deployment can reject an incompatible shard instead of
/// panicking mid-collection.
#[derive(Debug, Clone, PartialEq)]
pub enum MergeError {
    /// The sampling rates differ beyond [`RATE_MERGE_RTOL`].
    RateMismatch {
        /// The receiving side's rate.
        left: f64,
        /// The incoming side's rate.
        right: f64,
    },
    /// The monitors register different numbers of statistics.
    ShapeMismatch {
        /// Registered estimator count on the receiving side.
        left: usize,
        /// Registered estimator count on the incoming side.
        right: usize,
    },
    /// The monitors register different statistics at the same slot.
    LabelMismatch {
        /// Label at the slot on the receiving side.
        left: String,
        /// Label at the slot on the incoming side.
        right: String,
    },
    /// Same label, different concrete estimator type at that slot.
    TypeMismatch {
        /// The slot's label.
        label: String,
    },
    /// Same type, different configuration: a parameter, sketch
    /// dimension or hash seed disagrees.
    Incompatible(Mismatch),
}

impl From<Mismatch> for MergeError {
    fn from(m: Mismatch) -> Self {
        MergeError::Incompatible(m)
    }
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::RateMismatch { left, right } => {
                write!(f, "sampling rates differ: {left} vs {right}")
            }
            MergeError::ShapeMismatch { left, right } => write!(
                f,
                "monitors register different statistics: {left} vs {right} estimators"
            ),
            MergeError::LabelMismatch { left, right } => write!(
                f,
                "monitors register different statistics: '{left}' vs '{right}'"
            ),
            MergeError::TypeMismatch { label } => {
                write!(f, "estimator type mismatch at slot '{label}'")
            }
            MergeError::Incompatible(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for MergeError {}

/// Which statistic of the original stream `P` an estimator targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Statistic {
    /// Distinct elements `F_0(P)` (Algorithm 2, Lemma 8).
    F0,
    /// The `k`-th frequency moment `F_k(P)` (Algorithm 1, Theorem 1).
    Fk(u32),
    /// Empirical entropy `H(f)` in bits (Theorem 5).
    Entropy,
    /// `F_1` heavy hitters (Theorem 6).
    F1HeavyHitters,
    /// `F_2` heavy hitters (Theorem 7).
    F2HeavyHitters,
}

impl std::fmt::Display for Statistic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Statistic::F0 => write!(f, "F0"),
            Statistic::Fk(k) => write!(f, "F{k}"),
            Statistic::Entropy => write!(f, "entropy"),
            Statistic::F1HeavyHitters => write!(f, "hh_f1"),
            Statistic::F2HeavyHitters => write!(f, "hh_f2"),
        }
    }
}

/// The kind of guarantee attached to an [`Estimate`] — one variant per
/// guarantee shape the paper proves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Guarantee {
    /// `(1+ε, δ)` multiplicative (Theorem 1). `target` is present when the
    /// estimator was explicitly configured for a specific `(ε, δ)`;
    /// otherwise the contract is the theorem's asymptotic form.
    Multiplicative { target: Option<ApproxParams> },
    /// Multiplicative error at most `factor` in every direction
    /// (Lemma 8's `4/√p`; optimal up to constants by Theorem 4).
    BoundedFactor { factor: f64 },
    /// Constant-factor approximation inside the theorem's admissible
    /// regime (Theorem 5: `H(f) = ω(p^{−1/2}n^{−1/6})`).
    ConstantFactor,
    /// An `(α, ε, δ)` heavy-hitter report: every `α`-heavy item of `P` is
    /// reported, nothing below the theorem's rejection cutoff is
    /// (Theorems 6–7; for Theorem 7 the cutoff is weakened by `√p`).
    HeavyHitters { alpha: f64, eps: f64, delta: f64 },
    /// No worst-case guarantee — the naive baselines and extensions the
    /// paper motivates against or beyond.
    Heuristic,
}

/// A typed estimation result: the point value, the guarantee it comes
/// with, and the provenance needed to interpret it.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimate {
    /// The point estimate of the target statistic of `P`. For heavy-hitter
    /// estimators this is the number of reported items; the per-item
    /// frequencies live in [`Estimate::report`].
    pub value: f64,
    /// What the paper proves about `value`.
    pub guarantee: Guarantee,
    /// The Bernoulli sampling rate the estimator corrected for.
    pub p: f64,
    /// Elements of the *sampled* stream `L` this estimate is based on
    /// (summed across merged shards).
    pub samples_seen: u64,
    /// Heavy-hitter report `(item, estimated frequency in P)`, sorted by
    /// decreasing estimate; empty for scalar statistics.
    pub report: Vec<(u64, f64)>,
}

impl Estimate {
    /// A scalar estimate (no per-item report).
    pub fn scalar(value: f64, guarantee: Guarantee, p: f64, samples_seen: u64) -> Self {
        Self {
            value,
            guarantee,
            p,
            samples_seen,
            report: Vec::new(),
        }
    }

    /// A heavy-hitter estimate; `value` is set to the report size.
    pub fn heavy_hitters(
        report: Vec<(u64, f64)>,
        guarantee: Guarantee,
        p: f64,
        samples_seen: u64,
    ) -> Self {
        Self {
            value: report.len() as f64,
            guarantee,
            p,
            samples_seen,
            report,
        }
    }

    /// Multiplicative error of this estimate against a known truth
    /// (`max(value/truth, truth/value)`; see [`ApproxParams::mult_error`]).
    pub fn mult_error(&self, truth: f64) -> f64 {
        ApproxParams::mult_error(self.value, truth)
    }
}

/// A one-pass estimator of a statistic of the original stream `P`,
/// observing only the Bernoulli-sampled stream `L`.
///
/// Implementations exist for all five paper estimators
/// ([`SampledFkEstimator`](crate::SampledFkEstimator),
/// [`SampledF0Estimator`](crate::SampledF0Estimator),
/// [`SampledEntropyEstimator`](crate::SampledEntropyEstimator),
/// [`SampledF1HeavyHitters`](crate::SampledF1HeavyHitters),
/// [`SampledF2HeavyHitters`](crate::SampledF2HeavyHitters)), the
/// baselines ([`RusuDobraF2`](crate::RusuDobraF2),
/// [`NaiveScaledFk`](crate::NaiveScaledFk),
/// [`NaiveScaledF0`](crate::NaiveScaledF0)) and the adaptive-rate
/// extension ([`AdaptiveF2Estimator`](crate::AdaptiveF2Estimator)).
pub trait SubsampledEstimator {
    /// The statistic of `P` this estimator targets.
    fn statistic(&self) -> Statistic;

    /// Ingest one element of the sampled stream `L`.
    fn update(&mut self, x: u64);

    /// Ingest a batch of consecutive elements of `L`. Semantically
    /// identical to updating one by one; implementations override it with
    /// cache-friendlier layouts (process the whole batch per sketch row /
    /// copy instead of all rows per item).
    fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Merge a second estimator of the same configuration that observed a
    /// **disjoint** part of `P`, Bernoulli-sampled at the same rate.
    /// Afterwards `self` estimates the statistic of the concatenated
    /// original stream.
    ///
    /// # Panics
    /// Exactly when [`SubsampledEstimator::merge_compatible`] fails.
    fn merge(&mut self, other: &Self)
    where
        Self: Sized;

    /// [`SubsampledEstimator::merge`] of each of `others` in turn, with
    /// the same result: a fold of several shards into `self`, which an
    /// estimator may do in one pass (the exact frequency map joins
    /// decoded shards in one tree instead of upserting them one by one).
    ///
    /// # Panics
    /// When [`SubsampledEstimator::merge_compatible`] fails for any of
    /// `others`.
    fn merge_all(&mut self, others: &[&Self])
    where
        Self: Sized,
    {
        others.iter().for_each(|o| self.merge(o));
    }

    /// Whether `other` could merge into `self`, **without mutating
    /// anything** — the one compatibility decision behind `merge` and
    /// `Monitor::try_merge`. Default: the tolerant rate check (beyond
    /// [`RATE_MERGE_RTOL`] relative ⇒ [`MergeError::RateMismatch`]).
    /// In-tree estimators add their substrate's `check_merge`
    /// (dimensions, hash seeds, parameters); rate-agnostic ones (the
    /// adaptive-rate extension) accept unconditionally. Monitors run this
    /// for *every* slot before merging *any*, so a failed monitor merge
    /// never half-applies.
    fn merge_compatible(&self, other: &Self) -> Result<(), MergeError>
    where
        Self: Sized,
    {
        check_rates(self.p(), other.p())
    }

    /// Re-seed randomness that is **shard-local** — i.e. does not
    /// participate in the merge algebra — ahead of sharded ingestion.
    /// Hash functions shared by mergeable sketches (CountMin rows, KMV,
    /// CountSketch, level sets) must stay identical across shards and are
    /// deliberately *not* touched; reservoir-style sampling decisions are.
    /// The default is a no-op: an estimator either has no shard-local
    /// randomness or is purely deterministic.
    ///
    /// Called by [`Monitor::fork_shard`](crate::monitor::Monitor::fork_shard)
    /// on pristine (pre-ingestion) estimators only.
    fn reseed_shard_local(&mut self, _seed: u64) {}

    /// The current typed estimate.
    fn estimate(&self) -> Estimate;

    /// Memory footprint in bytes.
    fn space_bytes(&self) -> usize;

    /// The sampling probability the estimator corrects for.
    fn p(&self) -> f64;

    /// Elements of the sampled stream ingested (including merged shards).
    fn samples_seen(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistic_display() {
        assert_eq!(Statistic::F0.to_string(), "F0");
        assert_eq!(Statistic::Fk(3).to_string(), "F3");
        assert_eq!(Statistic::Entropy.to_string(), "entropy");
        assert_eq!(Statistic::F1HeavyHitters.to_string(), "hh_f1");
        assert_eq!(Statistic::F2HeavyHitters.to_string(), "hh_f2");
    }

    #[test]
    fn scalar_estimate_roundtrip() {
        let e = Estimate::scalar(42.0, Guarantee::ConstantFactor, 0.1, 100);
        assert_eq!(e.value, 42.0);
        assert!(e.report.is_empty());
        assert_eq!(e.mult_error(84.0), 2.0);
    }

    #[test]
    fn heavy_hitter_estimate_counts_report() {
        let e = Estimate::heavy_hitters(
            vec![(7, 100.0), (9, 50.0)],
            Guarantee::HeavyHitters {
                alpha: 0.1,
                eps: 0.2,
                delta: 0.05,
            },
            0.5,
            10,
        );
        assert_eq!(e.value, 2.0);
        assert_eq!(e.report[0], (7, 100.0));
    }
}
