//! The single-pass monitor: register any subset of the paper's statistics
//! and drive them all over one Bernoulli-sampled stream.
//!
//! The paper's deployment picture (§1) is a router that forwards a packet
//! stream, samples it at rate `p`, and hands the sample to a monitor that
//! must answer *several* questions about the original traffic — how many
//! flows, how skewed, which elephants. Each theorem gives one estimator;
//! [`Monitor`] runs them together so the sampled stream is consumed once:
//!
//! ```
//! use sss_core::monitor::MonitorBuilder;
//! use sss_core::Statistic;
//!
//! let mut monitor = MonitorBuilder::new(0.25)
//!     .f0(0.05)
//!     .fk(2)
//!     .entropy(512)
//!     .f1_heavy_hitters(0.1, 0.2, 0.05)
//!     .build();
//!
//! // One pass over the sampled stream (batched hot path).
//! monitor.update_batch(&[7, 7, 9, 4, 7, 9]);
//!
//! let f2 = monitor.estimate(Statistic::Fk(2)).unwrap();
//! assert!(f2.value > 0.0);
//! assert_eq!(monitor.samples_seen(), 6);
//! ```
//!
//! Monitors built from the **same builder configuration** (rate, seed and
//! registration sequence) are mergeable: each registered estimator merges
//! with its counterpart, so a collector can combine per-site monitors
//! into one answering for the union of all traffic
//! (`examples/distributed_collector.rs`). [`Monitor::check_mergeable`]
//! is the one definition of "mergeable" (no mutation, no clone),
//! [`Monitor::try_merge`] the fallible merge for summaries arriving from
//! outside the process, and
//! [`Monitor::fork_shard`] derives per-worker clones for the
//! multi-threaded pipeline in [`crate::concurrent`] (see
//! `crates/core/src/README.md` for the architecture and the
//! seed-splitting contract).

use std::any::Any;

use sss_codec::{put_len, CodecError, Reader, WireCodec};
use sss_hash::{split_seed, SplitMix64};
use sss_obs::MetricId;
use sss_sketch::levelset::LevelSetConfig;

use crate::entropy::SampledEntropyEstimator;
use crate::estimate::{check_rates, Estimate, MergeError, Statistic, SubsampledEstimator};
use crate::f0::SampledF0Estimator;
use crate::fk::{recommended_levelset_config, SampledFkEstimator};
use crate::heavy_hitters::{SampledF1HeavyHitters, SampledF2HeavyHitters};
use crate::params::ApproxParams;

/// Object-safe extension of [`SubsampledEstimator`] so a [`Monitor`] can
/// hold heterogeneous estimators: ingest, estimates and accounting go
/// through the supertrait; this adds only what type erasure needs.
/// `merge` is recovered through `Any` downcasting (both sides must be the
/// same concrete type). `Send + Sync + Clone` are required so monitors
/// can be forked onto worker threads
/// ([`crate::concurrent::ConcurrentMonitor`]) and shared read-only by a
/// collector server (`sss-transport`); `WireCodec` so monitors can be
/// checkpointed and shipped ([`Monitor::checkpoint`]). Every estimator
/// in the tree is plain data (no interior mutability), so the `Sync`
/// bound costs nothing.
pub(crate) trait DynEstimator: SubsampledEstimator + Send + Sync {
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    /// Whether `other` could merge into this slot (same concrete type and
    /// [`SubsampledEstimator::merge_compatible`]) — without mutating
    /// anything. Checked for *all* slots before any state is mutated, so
    /// a failed monitor merge never half-applies.
    fn check_merge(&self, other: &dyn Any, label: &str) -> Result<(), MergeError>;
    /// Merge a slot that passed [`DynEstimator::check_merge`].
    fn merge_dyn(&mut self, other: &dyn Any);
    /// [`DynEstimator::merge_dyn`] of every slot in `others`, through
    /// [`SubsampledEstimator::merge_all`].
    fn merge_all_dyn(&mut self, others: &[&dyn Any]);
    fn clone_box(&self) -> Box<dyn DynEstimator>;
    /// The concrete type's wire tag ([`WireCodec::WIRE_TAG`]).
    fn wire_tag(&self) -> u16;
    /// Append the concrete type's wire payload.
    fn encode_wire(&self, out: &mut Vec<u8>);
}

impl<T: SubsampledEstimator + Any + Clone + Send + Sync + WireCodec> DynEstimator for T {
    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn check_merge(&self, other: &dyn Any, label: &str) -> Result<(), MergeError> {
        let other = other
            .downcast_ref::<T>()
            .ok_or_else(|| MergeError::TypeMismatch {
                label: label.to_string(),
            })?;
        self.merge_compatible(other)
    }

    fn merge_dyn(&mut self, other: &dyn Any) {
        let other = other
            .downcast_ref::<T>()
            .expect("check_merge proved both slots hold the same type");
        self.merge(other);
    }

    fn merge_all_dyn(&mut self, others: &[&dyn Any]) {
        let others: Vec<&T> = others
            .iter()
            .map(|o| {
                o.downcast_ref::<T>()
                    .expect("check_merge proved both slots hold the same type")
            })
            .collect();
        self.merge_all(&others);
    }

    fn clone_box(&self) -> Box<dyn DynEstimator> {
        Box::new(self.clone())
    }

    fn wire_tag(&self) -> u16 {
        T::WIRE_TAG
    }

    fn encode_wire(&self, out: &mut Vec<u8>) {
        self.encode_into(out);
    }
}

// The wire tag of every estimator the builder can register: the keys of
// the decode registry below, and of `ConcurrentMonitor`'s slot routing,
// so a slot the codec can name, the router can route.
pub(crate) const F0: u16 = SampledF0Estimator::WIRE_TAG;
pub(crate) const FK_EXACT: u16 =
    <SampledFkEstimator<crate::collisions::ExactCollisions> as WireCodec>::WIRE_TAG;
pub(crate) const FK_SKETCHED: u16 =
    <SampledFkEstimator<crate::collisions::LevelSetCollisions> as WireCodec>::WIRE_TAG;
const ENTROPY: u16 = SampledEntropyEstimator::WIRE_TAG;
pub(crate) const HH_F1: u16 = SampledF1HeavyHitters::WIRE_TAG;
pub(crate) const HH_F2: u16 = SampledF2HeavyHitters::WIRE_TAG;
const RUSU_DOBRA: u16 = crate::baselines::RusuDobraF2::WIRE_TAG;
pub(crate) const NAIVE_FK: u16 = crate::baselines::NaiveScaledFk::WIRE_TAG;
pub(crate) const NAIVE_F0: u16 = crate::baselines::NaiveScaledF0::WIRE_TAG;
const ADAPTIVE: u16 = crate::adaptive::AdaptiveF2Estimator::WIRE_TAG;

/// Whether [`decode_estimator`] can rebuild an estimator with this tag —
/// checked at *checkpoint* time too, so a snapshot that could never be
/// restored fails while the live state still exists.
fn registry_knows(tag: u16) -> bool {
    matches!(
        tag,
        F0 | FK_EXACT
            | FK_SKETCHED
            | ENTROPY
            | HH_F1
            | HH_F2
            | RUSU_DOBRA
            | NAIVE_FK
            | NAIVE_F0
            | ADAPTIVE
    )
}

/// Decode one registered estimator by wire tag — the registry behind
/// [`Monitor::restore`]. Every estimator the [`MonitorBuilder`] can
/// register is listed; a `register()`-ed *custom* estimator encodes fine
/// (it implements [`WireCodec`]) but decodes only if its tag is known
/// here, so snapshots carrying third-party estimators fail with
/// [`CodecError::UnknownTag`] instead of misparsing.
fn decode_estimator(tag: u16, r: &mut Reader) -> Result<Box<dyn DynEstimator>, CodecError> {
    use crate::adaptive::AdaptiveF2Estimator;
    use crate::baselines::{NaiveScaledF0, NaiveScaledFk, RusuDobraF2};
    use crate::collisions::{ExactCollisions, LevelSetCollisions};

    Ok(match tag {
        F0 => Box::new(SampledF0Estimator::decode(r)?),
        FK_EXACT => Box::new(SampledFkEstimator::<ExactCollisions>::decode(r)?),
        FK_SKETCHED => Box::new(SampledFkEstimator::<LevelSetCollisions>::decode(r)?),
        ENTROPY => Box::new(SampledEntropyEstimator::decode(r)?),
        HH_F1 => Box::new(SampledF1HeavyHitters::decode(r)?),
        HH_F2 => Box::new(SampledF2HeavyHitters::decode(r)?),
        RUSU_DOBRA => Box::new(RusuDobraF2::decode(r)?),
        NAIVE_FK => Box::new(NaiveScaledFk::decode(r)?),
        NAIVE_F0 => Box::new(NaiveScaledF0::decode(r)?),
        ADAPTIVE => Box::new(AdaptiveF2Estimator::decode(r)?),
        found => return Err(CodecError::UnknownTag { found }),
    })
}

pub(crate) struct Entry {
    pub(crate) label: String,
    pub(crate) est: Box<dyn DynEstimator>,
}

impl Clone for Entry {
    fn clone(&self) -> Self {
        Entry {
            label: self.label.clone(),
            est: self.est.clone_box(),
        }
    }
}

/// Builder for a [`Monitor`]: pick the sampling rate, register statistics,
/// build. Two monitors are mergeable iff they were built with the same
/// rate, seed and registration sequence (so every sketch pair shares its
/// hash functions).
pub struct MonitorBuilder {
    p: f64,
    seed: u64,
    seeds: SplitMix64,
    entries: Vec<Entry>,
}

impl MonitorBuilder {
    /// Builder for sampling rate `p ∈ (0, 1]` with the default sketch
    /// seed.
    pub fn new(p: f64) -> Self {
        Self::with_seed(p, 0x5u64 << 60 | 0x5353)
    }

    /// Builder with an explicit sketch seed (per-estimator seeds are
    /// derived from it in registration order).
    pub fn with_seed(p: f64, seed: u64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0,1], got {p}"
        );
        Self {
            p,
            seed,
            seeds: SplitMix64::new(seed),
            entries: Vec::new(),
        }
    }

    fn push(mut self, label: String, est: Box<dyn DynEstimator>) -> Self {
        assert!(
            self.entries.iter().all(|e| e.label != label),
            "statistic '{label}' registered twice — use register() with a distinct label"
        );
        self.entries.push(Entry { label, est });
        self
    }

    /// Register Algorithm 2: `F_0(P)` within `4/√p` at confidence
    /// `1 − delta` (Lemma 8).
    pub fn f0(mut self, delta: f64) -> Self {
        let seed = self.seeds.derive();
        let est = SampledF0Estimator::new(self.p, delta, seed);
        self.push(Statistic::F0.to_string(), Box::new(est))
    }

    /// Register Algorithm 1 with exact collision counting: a `(1+ε, δ)`
    /// estimator of `F_k(P)` in `O(F_0(L))` space.
    pub fn fk(mut self, k: u32) -> Self {
        let est = SampledFkEstimator::exact(k, self.p);
        let _ = self.seeds.derive(); // keep seed schedule aligned across variants
        self.push(Statistic::Fk(k).to_string(), Box::new(est))
    }

    /// Register Algorithm 1 with the Indyk–Woodruff sketched collision
    /// oracle sized by [`recommended_levelset_config`] for universe `m`
    /// and target error `eps` — the paper's full small-space pipeline.
    pub fn fk_sketched(mut self, k: u32, m: u64, eps: f64) -> Self {
        let seed = self.seeds.derive();
        let cfg = recommended_levelset_config(k, m, self.p, eps);
        let est = SampledFkEstimator::sketched(k, self.p, &cfg, seed)
            .with_target(ApproxParams::new(eps, 0.1));
        self.push(Statistic::Fk(k).to_string(), Box::new(est))
    }

    /// Register Algorithm 1 (sketched) with an explicit level-set
    /// configuration.
    pub fn fk_sketched_with(mut self, k: u32, cfg: &LevelSetConfig) -> Self {
        let seed = self.seeds.derive();
        let est = SampledFkEstimator::sketched(k, self.p, cfg, seed);
        self.push(Statistic::Fk(k).to_string(), Box::new(est))
    }

    /// Register Theorem 5: constant-factor entropy with `slots` reservoir
    /// slots.
    pub fn entropy(mut self, slots: usize) -> Self {
        let seed = self.seeds.derive();
        let est = SampledEntropyEstimator::new(self.p, slots, seed);
        self.push(Statistic::Entropy.to_string(), Box::new(est))
    }

    /// Register Theorem 6: `(α, ε, δ)` `F_1` heavy hitters.
    pub fn f1_heavy_hitters(mut self, alpha: f64, eps: f64, delta: f64) -> Self {
        let seed = self.seeds.derive();
        let est = SampledF1HeavyHitters::new(alpha, eps, delta, self.p, seed);
        self.push(Statistic::F1HeavyHitters.to_string(), Box::new(est))
    }

    /// Register Theorem 7: `(α, 1 − √p(1−ε))` `F_2` heavy hitters.
    pub fn f2_heavy_hitters(mut self, alpha: f64, eps: f64, delta: f64) -> Self {
        let seed = self.seeds.derive();
        let est = SampledF2HeavyHitters::new(alpha, eps, delta, self.p, seed);
        self.push(Statistic::F2HeavyHitters.to_string(), Box::new(est))
    }

    /// Register an arbitrary [`SubsampledEstimator`] under an explicit
    /// label — the escape hatch for baselines, sketched variants riding
    /// alongside exact ones, and extensions.
    pub fn register<E>(mut self, label: &str, est: E) -> Self
    where
        E: SubsampledEstimator + Any + Clone + Send + Sync + WireCodec,
    {
        let _ = self.seeds.derive();
        self.push(label.to_string(), Box::new(est))
    }

    /// Finish: a monitor driving every registered estimator.
    pub fn build(self) -> Monitor {
        Monitor {
            p: self.p,
            seed: self.seed,
            entries: self.entries,
            samples: 0,
            obs_pending: 0,
            obs_batches: 0,
        }
    }
}

/// A single-pass monitor over the sampled stream `L`, fanning each element
/// (or batch) out to every registered estimator.
#[derive(Clone)]
pub struct Monitor {
    p: f64,
    seed: u64,
    entries: Vec<Entry>,
    samples: u64,
    /// Scalar-`update` items not yet flushed to the metrics registry
    /// (scratch — excluded from the wire format and from merges; a
    /// per-item atomic would tax the 10 ns scalar path, so items flush
    /// in blocks of [`OBS_FLUSH_ITEMS`]).
    obs_pending: u32,
    /// `update_batch` calls since construction (scratch; schedules the
    /// every-[`OBS_TIMING_SAMPLE`]-batches timing probe).
    obs_batches: u64,
}

/// Scalar-path items per metrics flush.
const OBS_FLUSH_ITEMS: u32 = 1024;

/// One batch in this many carries the per-statistic timing probe.
const OBS_TIMING_SAMPLE: u64 = 64;

impl Monitor {
    /// The sampling rate all registered estimators correct for.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Number of registered estimators.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no estimators are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Elements of the sampled stream ingested by this monitor, *including*
    /// shards folded in by [`Monitor::merge`] — monitor-level and
    /// per-estimator provenance agree after a merge.
    pub fn samples_seen(&self) -> u64 {
        self.samples
    }

    /// Total memory footprint of all registered estimators, in bytes.
    pub fn space_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.est.space_bytes()).sum()
    }

    /// Ingest one element of the sampled stream.
    pub fn update(&mut self, x: u64) {
        self.samples += 1;
        // A registry RMW per scalar item would dominate the ~10 ns
        // path; buffer locally and flush in blocks. A trailing
        // sub-block stays unreported until the next flush or batch.
        self.obs_pending += 1;
        if self.obs_pending >= OBS_FLUSH_ITEMS {
            sss_obs::global().add(MetricId::IngestItemsTotal, u64::from(self.obs_pending));
            self.obs_pending = 0;
        }
        for e in &mut self.entries {
            e.est.update(x);
        }
    }

    /// Ingest a batch of consecutive sampled elements — the hot path.
    /// Each estimator consumes the whole batch while its state is cache-
    /// resident, and the per-element virtual dispatch of [`Monitor::update`]
    /// is amortised over the batch.
    ///
    /// Observability: each call records batch count/size (a handful of
    /// relaxed atomics per *batch*, priced by `bench_obs`), and every
    /// `OBS_TIMING_SAMPLE`th (64th) batch additionally times each
    /// estimator's update (`sss_ingest_slot_sampled_*`, labeled by
    /// registration slot — slot order matches
    /// [`Monitor::wire_layout`]).
    pub fn update_batch(&mut self, xs: &[u64]) {
        self.samples += xs.len() as u64;
        let obs = sss_obs::global();
        if obs.enabled() {
            self.obs_batches = self.obs_batches.wrapping_add(1);
            obs.add(
                MetricId::IngestItemsTotal,
                xs.len() as u64 + u64::from(self.obs_pending),
            );
            self.obs_pending = 0;
            obs.inc(MetricId::IngestBatchesTotal);
            obs.observe(MetricId::IngestBatchSize, xs.len() as u64);
            if self.obs_batches.is_multiple_of(OBS_TIMING_SAMPLE) {
                let t_batch = obs.timer();
                for (slot, e) in self.entries.iter_mut().enumerate() {
                    let t0 = std::time::Instant::now();
                    e.est.update_batch(xs);
                    let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                    obs.labeled_add(MetricId::IngestSlotSampledNanosTotal, slot as u64, ns);
                    obs.labeled_add(
                        MetricId::IngestSlotSampledItemsTotal,
                        slot as u64,
                        xs.len() as u64,
                    );
                }
                obs.observe_since(MetricId::IngestBatchNanos, t_batch);
                return;
            }
        }
        for e in &mut self.entries {
            e.est.update_batch(xs);
        }
    }

    /// Merge a monitor built from the **same builder configuration** that
    /// observed a disjoint part of the original stream: every estimator
    /// merges with its counterpart.
    ///
    /// # Panics
    /// Exactly when [`Monitor::check_mergeable`] fails. Release
    /// deployments that receive shard summaries from outside should
    /// prefer [`Monitor::try_merge`], which reports the incompatibility
    /// instead.
    pub fn merge(&mut self, other: &Monitor) {
        if let Err(e) = self.try_merge(other) {
            panic!("monitor merge: {e}");
        }
    }

    /// Whether `other` can merge into this monitor, **without mutating or
    /// cloning anything** — the one definition of "mergeable". Checks the
    /// rate (within [`crate::estimate::RATE_MERGE_RTOL`] relative: shard
    /// `p` values arriving via config or serialization may differ in the
    /// last ulp), registration shape, labels, concrete estimator types
    /// and every slot's [`SubsampledEstimator::merge_compatible`]
    /// (parameters, sketch dimensions and hash seeds).
    ///
    /// Returns `Err` exactly when [`Monitor::try_merge`] would, and never
    /// panics, including on monitors decoded from untrusted bytes.
    pub fn check_mergeable(&self, other: &Monitor) -> Result<(), MergeError> {
        check_rates(self.p, other.p)?;
        if self.entries.len() != other.entries.len() {
            return Err(MergeError::ShapeMismatch {
                left: self.entries.len(),
                right: other.entries.len(),
            });
        }
        for (mine, theirs) in self.entries.iter().zip(&other.entries) {
            if mine.label != theirs.label {
                return Err(MergeError::LabelMismatch {
                    left: mine.label.clone(),
                    right: theirs.label.clone(),
                });
            }
            mine.est.check_merge(theirs.est.as_any(), &mine.label)?;
        }
        Ok(())
    }

    /// Fallible [`Monitor::merge`]: [`Monitor::check_mergeable`], then
    /// the merge. An `Err` leaves `self` exactly as it was.
    pub fn try_merge(&mut self, other: &Monitor) -> Result<(), MergeError> {
        self.check_mergeable(other)?;
        for (mine, theirs) in self.entries.iter_mut().zip(&other.entries) {
            mine.est.merge_dyn(theirs.est.as_any());
        }
        self.samples += other.samples;
        Ok(())
    }

    /// [`Monitor::merge`] of each of `others` in turn, with the same
    /// result, in one fold per estimator
    /// ([`SubsampledEstimator::merge_all`]): a collector's view of its
    /// sites, or a window's fold of its buckets.
    ///
    /// # Panics
    /// When [`Monitor::check_mergeable`] fails for any of `others`;
    /// `self` is then unchanged.
    pub fn merge_all(&mut self, others: &[&Monitor]) {
        for other in others {
            if let Err(e) = self.check_mergeable(other) {
                panic!("monitor merge: {e}");
            }
        }
        for (i, mine) in self.entries.iter_mut().enumerate() {
            let slots: Vec<&dyn Any> = others.iter().map(|o| o.entries[i].est.as_any()).collect();
            mine.est.merge_all_dyn(&slots);
        }
        self.samples += others.iter().map(|o| o.samples).sum::<u64>();
    }

    /// A shard clone for worker `shard` of a sharded deployment: identical
    /// estimator configuration (labels, parameters and — crucially — the
    /// hash seeds that make sketch merges valid), with **shard-local**
    /// randomness re-seeded from `split_seed(builder seed, shard)` so
    /// reservoir-style sampling decisions are independent across workers.
    ///
    /// The seed-splitting contract: randomness that participates in the
    /// merge algebra (CountMin/CountSketch/KMV/level-set hash functions)
    /// stays shard-invariant; randomness that only drives shard-local
    /// sampling (entropy reservoirs) is re-derived per shard. Forked
    /// monitors therefore always remain mergeable with each other and
    /// with the prototype.
    ///
    /// # Panics
    /// If this monitor has already ingested samples — forking ingested
    /// state would double-count it when the shards are merged back.
    pub fn fork_shard(&self, shard: u64) -> Monitor {
        assert!(
            self.samples == 0,
            "fork_shard requires a pristine monitor (saw {} samples)",
            self.samples
        );
        let mut forked = self.clone();
        forked.seed = split_seed(self.seed, shard);
        for (e, seed) in forked.entries.iter_mut().zip(self.shard_seeds(shard)) {
            e.est.reseed_shard_local(seed);
        }
        forked
    }

    /// Shard `shard`'s shard-local seeds, one per registered entry in
    /// registration order: derived from `split_seed(builder seed, shard)`.
    /// [`Monitor::fork_shard`] and the concurrent pipeline's replicas
    /// both follow this one schedule.
    pub(crate) fn shard_seeds(&self, shard: u64) -> impl Iterator<Item = u64> {
        let mut seeds = SplitMix64::new(split_seed(self.seed, shard));
        (0..self.entries.len()).map(move |_| seeds.derive())
    }

    /// The estimate registered under the default label of `stat`
    /// (`None` if that statistic was not registered).
    pub fn estimate(&self, stat: Statistic) -> Option<Estimate> {
        self.estimate_labeled(&stat.to_string())
    }

    /// The estimate registered under an explicit label.
    pub fn estimate_labeled(&self, label: &str) -> Option<Estimate> {
        self.entries
            .iter()
            .find(|e| e.label == label)
            .map(|e| e.est.estimate())
    }

    /// All current estimates as `(label, estimate)` pairs, in registration
    /// order.
    pub fn report(&self) -> Vec<(String, Estimate)> {
        self.entries
            .iter()
            .map(|e| (e.label.clone(), e.est.estimate()))
            .collect()
    }

    /// `(label, statistic, space_bytes)` rows for capacity accounting.
    pub fn space_breakdown(&self) -> Vec<(String, Statistic, usize)> {
        self.entries
            .iter()
            .map(|e| (e.label.clone(), e.est.statistic(), e.est.space_bytes()))
            .collect()
    }

    /// Serialize the full monitor state as a framed wire snapshot —
    /// what a remote shard mails to a collector, and what a long-running
    /// deployment writes to disk before a restart. The restored monitor
    /// ([`Monitor::restore`]) is observationally identical: bitwise-equal
    /// estimates and `space_bytes`, and continued ingestion matches the
    /// never-serialized run exactly.
    ///
    /// # Errors
    /// [`CodecError::UnknownTag`] if a `register()`-ed estimator's wire
    /// tag is not in the decode registry — such bytes could be written
    /// but never restored, so the failure surfaces *now*, while the live
    /// state still exists, instead of at restore time.
    pub fn checkpoint(&self) -> Result<Vec<u8>, CodecError> {
        self.validate_restorable()?;
        let obs = sss_obs::global();
        let t0 = obs.timer();
        let bytes = self.encode_framed();
        obs.observe_since(MetricId::CodecEncodeNanos, t0);
        obs.add(MetricId::CodecEncodeBytesTotal, bytes.len() as u64);
        Ok(bytes)
    }

    /// Check that every registered estimator's wire tag is in the
    /// decode registry — [`Monitor::checkpoint`]'s precondition without
    /// the encode. Wrappers that embed monitors in their own frames
    /// (the sliding window) run this check up front instead of paying
    /// for a throwaway serialization.
    ///
    /// # Errors
    /// [`CodecError::UnknownTag`] for the first unrestorable tag.
    pub fn validate_restorable(&self) -> Result<(), CodecError> {
        for e in &self.entries {
            let tag = e.est.wire_tag();
            if !registry_knows(tag) {
                return Err(CodecError::UnknownTag { found: tag });
            }
        }
        Ok(())
    }

    /// Rebuild a monitor from [`Monitor::checkpoint`] bytes, validating
    /// magic, format version, type tag and every structural invariant.
    /// Snapshots from compatible builder configurations remain mergeable
    /// with live monitors ([`Monitor::try_merge`]).
    pub fn restore(bytes: &[u8]) -> Result<Monitor, CodecError> {
        let obs = sss_obs::global();
        let t0 = obs.timer();
        let decoded = Monitor::decode_framed(bytes);
        obs.observe_since(MetricId::CodecDecodeNanos, t0);
        if decoded.is_ok() {
            obs.add(MetricId::CodecDecodeBytesTotal, bytes.len() as u64);
        }
        decoded
    }

    /// The registered estimator slots, in registration order (the
    /// concurrent pipeline's strategy router reads them).
    pub(crate) fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Mutable slot access — the concurrent quiesce installs converted
    /// shared-atomic state through this.
    pub(crate) fn entries_mut(&mut self) -> &mut [Entry] {
        &mut self.entries
    }

    /// Set the monitor-level sample count — the concurrent quiesce's
    /// final accounting step, after per-slot state was installed
    /// directly rather than through `update`/`merge`.
    pub(crate) fn set_samples(&mut self, n: u64) {
        self.samples = n;
    }

    /// `(label, wire tag)` rows of the registered estimators — the
    /// self-describing half of a snapshot, useful for logging what a
    /// received summary carries before merging it.
    pub fn wire_layout(&self) -> Vec<(String, u16)> {
        self.entries
            .iter()
            .map(|e| (e.label.clone(), e.est.wire_tag()))
            .collect()
    }
}

impl WireCodec for Monitor {
    const WIRE_TAG: u16 = 0x040E;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.seed.encode_into(out);
        self.samples.encode_into(out);
        put_len(out, self.entries.len());
        for e in &self.entries {
            e.label.encode_into(out);
            e.est.wire_tag().encode_into(out);
            // Length-prefixed estimator section: a corrupt estimator
            // payload cannot bleed into the next entry. (Decode still
            // fails the whole monitor on an unknown tag — skip-and-
            // continue is the cross-version follow-on in the ROADMAP.)
            let mut payload = Vec::new();
            e.est.encode_wire(&mut payload);
            put_len(out, payload.len());
            out.extend_from_slice(&payload);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = crate::f0::decode_rate(r)?;
        let seed = r.u64()?;
        let samples = r.u64()?;
        let count = r.len_prefix(12)?;
        let mut entries: Vec<Entry> = Vec::with_capacity(count);
        for _ in 0..count {
            let label = String::decode(r)?;
            if entries.iter().any(|e| e.label == label) {
                return Err(CodecError::Invalid {
                    what: "Monitor registers the same label twice",
                });
            }
            let tag = r.u16()?;
            let len = r.len_prefix(1)?;
            // The section reader inherits the frame's format version so
            // nested estimator payloads decode under the layout the
            // envelope announced.
            let mut section = Reader::with_version(r.take(len)?, r.version());
            let est = decode_estimator(tag, &mut section)?;
            section.expect_empty()?;
            entries.push(Entry { label, est });
        }
        Ok(Monitor {
            p,
            seed,
            entries,
            samples,
            obs_pending: 0,
            obs_batches: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::NaiveScaledFk;
    use crate::estimate::Guarantee;
    use sss_stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};

    fn build_monitor(p: f64) -> Monitor {
        MonitorBuilder::with_seed(p, 99)
            .f0(0.05)
            .fk(2)
            .entropy(1500)
            .f1_heavy_hitters(0.05, 0.2, 0.05)
            .build()
    }

    #[test]
    fn single_pass_produces_all_statistics_together() {
        let n = 120_000u64;
        let p = 0.2;
        let stream = ZipfStream::new(3_000, 1.2).generate(n, 7);
        let exact = ExactStats::from_stream(stream.iter().copied());

        let mut monitor = build_monitor(p);
        let mut sampler = BernoulliSampler::new(p, 8);
        sampler.sample_batches(&stream, 1024, |chunk| monitor.update_batch(chunk));

        let f2 = monitor.estimate(Statistic::Fk(2)).unwrap();
        assert!(
            f2.mult_error(exact.fk(2)) < 1.15,
            "F2 err {}",
            f2.mult_error(exact.fk(2))
        );

        let f0 = monitor.estimate(Statistic::F0).unwrap();
        let ceiling = match f0.guarantee {
            Guarantee::BoundedFactor { factor } => factor,
            ref g => panic!("wrong guarantee kind {g:?}"),
        };
        assert!(f0.mult_error(exact.f0() as f64) <= ceiling);

        let h = monitor.estimate(Statistic::Entropy).unwrap();
        let ratio = h.value / exact.entropy();
        assert!((0.5..=2.0).contains(&ratio), "entropy ratio {ratio}");

        let hh = monitor.estimate(Statistic::F1HeavyHitters).unwrap();
        assert_eq!(hh.value, hh.report.len() as f64);

        // Provenance flows through.
        assert_eq!(f2.samples_seen, monitor.samples_seen());
        assert_eq!(f2.p, p);
        assert!(monitor.space_bytes() > 0);
        assert_eq!(monitor.len(), 4);
    }

    #[test]
    fn batched_and_per_item_ingestion_agree_exactly() {
        let p = 0.5;
        let stream = ZipfStream::new(500, 1.1).generate(30_000, 3);
        let sampled = BernoulliSampler::new(p, 4).sample_to_vec(&stream);

        let mut a = build_monitor(p);
        for &x in &sampled {
            a.update(x);
        }
        let mut b = build_monitor(p);
        for chunk in sampled.chunks(777) {
            b.update_batch(chunk);
        }
        assert_eq!(a.samples_seen(), b.samples_seen());
        for ((la, ea), (lb, eb)) in a.report().into_iter().zip(b.report()) {
            assert_eq!(la, lb);
            assert!(
                (ea.value - eb.value).abs() <= 1e-9 * ea.value.abs().max(1.0),
                "{la}: per-item {} vs batched {}",
                ea.value,
                eb.value
            );
        }
    }

    #[test]
    fn merged_monitors_match_single_monitor() {
        let p = 0.3;
        let stream = ZipfStream::new(1_000, 1.2).generate(60_000, 11);
        let (left, right) = stream.split_at(stream.len() / 2);

        let mut whole = build_monitor(p);
        let mut sampler = BernoulliSampler::new(p, 12);
        sampler.sample_slice(&stream, |x| whole.update(x));

        // Site monitors share the builder config; each site samples its
        // own (disjoint) slice of P independently.
        let mut site_a = build_monitor(p);
        let mut site_b = build_monitor(p);
        let mut sa = BernoulliSampler::new(p, 13);
        sa.sample_slice(left, |x| site_a.update(x));
        let mut sb = BernoulliSampler::new(p, 14);
        sb.sample_slice(right, |x| site_b.update(x));
        site_a.merge(&site_b);

        // F2 via exact collision oracles: merged shards answer within the
        // same statistical band as the whole-stream monitor.
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
        let merged_f2 = site_a.estimate(Statistic::Fk(2)).unwrap();
        let whole_f2 = whole.estimate(Statistic::Fk(2)).unwrap();
        assert!(merged_f2.mult_error(truth) < 1.2);
        assert!(whole_f2.mult_error(truth) < 1.2);
        assert_eq!(
            merged_f2.samples_seen,
            site_a.samples_seen(),
            "merged provenance must count both shards"
        );
    }

    #[test]
    fn register_escape_hatch_carries_baselines() {
        let p = 0.5;
        let mut monitor = MonitorBuilder::with_seed(p, 5)
            .fk(2)
            .register("F2_naive", NaiveScaledFk::new(2, p))
            .build();
        monitor.update_batch(&[1, 1, 2, 3, 1]);
        let naive = monitor.estimate_labeled("F2_naive").unwrap();
        assert_eq!(naive.guarantee, Guarantee::Heuristic);
        assert!(naive.value > 0.0);
        assert_eq!(monitor.report().len(), 2);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_rejected() {
        let _ = MonitorBuilder::new(0.5).f0(0.05).f0(0.01);
    }

    #[test]
    #[should_panic(expected = "different statistics")]
    fn merge_rejects_mismatched_monitors() {
        let mut a = MonitorBuilder::with_seed(0.5, 1).f0(0.05).build();
        let b = MonitorBuilder::with_seed(0.5, 1).fk(2).build();
        a.merge(&b);
    }

    #[test]
    fn merge_all_checks_every_monitor_before_merging_any() {
        let build = |seed| MonitorBuilder::with_seed(0.5, seed).f0(0.05).fk(2).build();
        let (mut a, mut good, mut bad) = (build(1), build(1), build(2));
        a.update_batch(&[1, 2, 2, 3]);
        good.update_batch(&[2, 4]);
        bad.update_batch(&[5]);
        let before = a.checkpoint().unwrap();
        let fold = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            a.merge_all(&[&good, &bad]);
        }));
        let msg = fold.expect_err("a mismatched monitor panics");
        assert!(msg
            .downcast_ref::<String>()
            .is_some_and(|m| m.starts_with("monitor merge: ")));
        assert_eq!(a.checkpoint().unwrap(), before, "nothing was merged");
        a.merge_all(&[&good]);
        assert_eq!(a.samples_seen(), 6);
    }

    #[test]
    fn try_merge_reports_typed_errors_without_mutating() {
        use crate::baselines::RusuDobraF2;
        use crate::estimate::MergeError;
        use sss_sketch::Mismatch;

        // Rate mismatch beyond the relative tolerance.
        let mut a = MonitorBuilder::with_seed(0.5, 1).f0(0.05).build();
        a.update_batch(&[1, 2, 3]);
        let b = MonitorBuilder::with_seed(0.25, 1).f0(0.05).build();
        assert_eq!(
            a.try_merge(&b),
            Err(MergeError::RateMismatch {
                left: 0.5,
                right: 0.25
            })
        );
        assert_eq!(a.samples_seen(), 3, "failed merge must not mutate");

        // Shape mismatch.
        let c = MonitorBuilder::with_seed(0.5, 1).f0(0.05).fk(2).build();
        assert_eq!(
            a.try_merge(&c),
            Err(MergeError::ShapeMismatch { left: 1, right: 2 })
        );

        // Label mismatch at a slot.
        let d = MonitorBuilder::with_seed(0.5, 1).fk(2).build();
        assert!(matches!(
            a.try_merge(&d),
            Err(MergeError::LabelMismatch { .. })
        ));

        // Same label, different concrete type (exact vs sketched Fk).
        let mut e = MonitorBuilder::with_seed(0.5, 1).fk(2).build();
        let f = MonitorBuilder::with_seed(0.5, 1)
            .fk_sketched(2, 1 << 12, 0.2)
            .build();
        assert_eq!(
            e.try_merge(&f),
            Err(MergeError::TypeMismatch {
                label: "F2".to_string()
            })
        );

        // Same shape, different sketch seeds: the builder seed moves the
        // bottom-k hash, and a register()-ed Rusu–Dobra slot carries its
        // own AMS seed. Neither may merge, and neither may panic.
        let incompatible = |what| Err(MergeError::Incompatible(Mismatch { what }));
        let g = MonitorBuilder::with_seed(0.5, 2).f0(0.05).build();
        assert_eq!(
            a.check_mergeable(&g),
            incompatible("KmvSketch hash functions")
        );
        assert_eq!(a.try_merge(&g), incompatible("KmvSketch hash functions"));
        let rd = |seed| {
            let mut m = MonitorBuilder::with_seed(1.0, 1)
                .register("rd", RusuDobraF2::new(1.0, 9, 64, seed))
                .build();
            m.update_batch(&[1, 2, 2, 3, 3, 3]);
            m
        };
        let (mut h, i) = (rd(11), rd(999));
        let before = h.checkpoint().expect("checkpoint");
        assert_eq!(h.try_merge(&i), incompatible("AmsF2 seed"));
        assert_eq!(h.checkpoint().expect("checkpoint"), before);
        assert_eq!(h.try_merge(&rd(11)), Ok(()));
    }

    #[test]
    fn try_merge_precheck_catches_slot_level_rate_mismatch() {
        use crate::baselines::NaiveScaledF0;
        use crate::estimate::MergeError;

        // Monitor-level rates agree, but one side's register()-ed baseline
        // carries a divergent internal rate: the per-slot pre-check must
        // reject BEFORE the earlier slot mutates (no half-applied merge).
        let build = |inner_p: f64| {
            MonitorBuilder::with_seed(0.5, 1)
                .f0(0.05)
                .register("F0_naive", NaiveScaledF0::new(inner_p, 9))
                .build()
        };
        let mut a = build(0.5);
        a.update_batch(&[1, 2, 3]);
        let f0_before = a.estimate(Statistic::F0).unwrap();
        let mut b = build(0.25);
        b.update_batch(&[4, 5]);
        assert_eq!(
            a.try_merge(&b),
            Err(MergeError::RateMismatch {
                left: 0.5,
                right: 0.25
            })
        );
        assert_eq!(a.samples_seen(), 3, "failed merge must not mutate");
        assert_eq!(
            a.estimate(Statistic::F0).unwrap(),
            f0_before,
            "the slot ahead of the mismatch must be untouched"
        );
    }

    #[test]
    #[should_panic(expected = "pristine monitor")]
    fn fork_shard_rejects_ingested_monitor() {
        let mut m = MonitorBuilder::with_seed(0.5, 1).f0(0.05).build();
        m.update(1);
        let _ = m.fork_shard(0);
    }

    #[test]
    fn try_merge_accepts_last_ulp_rate_difference() {
        // p values that differ in the last ulp (e.g. a rate that travelled
        // through a config file) must merge fine.
        let p: f64 = 0.3;
        let p_ulp = f64::from_bits(p.to_bits() + 1);
        assert_ne!(p, p_ulp);
        let mut a = MonitorBuilder::with_seed(p, 1).fk(2).build();
        a.update_batch(&[1, 1, 2]);
        let mut b = MonitorBuilder::with_seed(p_ulp, 1).fk(2).build();
        b.update_batch(&[2, 3]);
        assert_eq!(a.try_merge(&b), Ok(()));
        assert_eq!(a.samples_seen(), 5);
    }

    #[test]
    fn merged_provenance_reflects_the_union() {
        // Satellite regression: after merging two shards, `samples_seen`
        // and `p` on the monitor AND on every per-estimator `Estimate`
        // must reflect the union (sum of shard samples, shared p) — not
        // just the point value.
        let p = 0.4;
        let stream = ZipfStream::new(400, 1.1).generate(40_000, 21);
        let (left, right) = stream.split_at(stream.len() / 2);
        let mut a = build_monitor(p);
        let mut b = build_monitor(p);
        let mut sa = BernoulliSampler::new(p, 31);
        sa.sample_slice(left, |x| a.update(x));
        let mut sb = BernoulliSampler::new(p, 32);
        sb.sample_slice(right, |x| b.update(x));
        let (na, nb) = (a.samples_seen(), b.samples_seen());
        assert!(na > 0 && nb > 0);

        a.merge(&b);
        assert_eq!(a.samples_seen(), na + nb, "monitor-level samples sum");
        for (label, est) in a.report() {
            assert_eq!(
                est.samples_seen,
                na + nb,
                "{label}: estimate provenance must count both shards"
            );
            assert_eq!(est.p, p, "{label}: merged p must be the shared rate");
        }
    }

    #[test]
    fn forked_shards_stay_mergeable_and_reseed_shard_local_randomness() {
        let p = 0.5;
        let stream = ZipfStream::new(200, 1.0).generate(30_000, 8);
        let proto = build_monitor(p);
        let mut s0 = proto.fork_shard(0);
        let mut s1 = proto.fork_shard(1);
        // Same sampled elements through both forks: hash-based substrates
        // (F0 bottom-k, Fk collisions, CountMin HH) must agree exactly —
        // the merge-critical seeds are shard-invariant...
        let sampled = BernoulliSampler::new(p, 4).sample_to_vec(&stream);
        s0.update_batch(&sampled);
        s1.update_batch(&sampled);
        let (r0, r1) = (s0.report(), s1.report());
        assert_eq!(r0[0].1.value, r1[0].1.value, "F0 is shard-seed invariant");
        assert_eq!(r0[1].1.value, r1[1].1.value, "Fk is deterministic");
        // ...while the entropy reservoir (shard-local randomness) was
        // re-seeded per shard, so its sampling decisions differ.
        assert_ne!(
            r0[2].1.value, r1[2].1.value,
            "entropy reservoirs should be independently seeded across shards"
        );
        // And forks merge with each other (shared hashes, shared p).
        s0.merge(&s1);
        assert_eq!(s0.samples_seen(), 2 * sampled.len() as u64);
    }

    #[test]
    fn empty_monitor_is_harmless() {
        let mut m = MonitorBuilder::new(0.5).build();
        m.update(1);
        m.update_batch(&[2, 3]);
        assert!(m.is_empty());
        assert_eq!(m.samples_seen(), 3);
        assert!(m.report().is_empty());
        assert_eq!(m.estimate(Statistic::F0), None);
    }
}
