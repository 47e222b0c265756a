//! Multi-threaded ingestion: N workers, **one** shared sketch state.
//!
//! The single-threaded [`Monitor`] consumes one Bernoulli-sampled stream.
//! At production rates the bottleneck is ingestion itself, so a
//! [`ConcurrentMonitor`] partitions the raw stream across worker threads
//! — each Bernoulli-sampling its own slice — which is exactly the
//! paper's model of `N` independent Bernoulli processes over disjoint
//! slices of `P`, run across threads instead of sites.
//!
//! ```text
//!            raw chunks (round-robin, bounded queues)
//!   ingest ──┬──────────► worker 0: sample(p, seed₀) ─┐  shared-atomic grids
//!            ├──────────► worker 1: sample(p, seed₁) ─┼─► key-sharded parts   ─► fold ─► Monitor
//!            └──────────► worker N−1: sample(p, seedₙ) ┘  replicated locals
//! ```
//!
//! Where the substrate allows it, workers do not replicate state: the
//! fixed-geometry counter grids (CountMin, CountSketch, AMS tug-of-war)
//! become the shared-atomic variants of [`sss_sketch::atomic`], and
//! every worker ingests into the *same* cells with relaxed `fetch_add`s.
//! One grid, regardless of thread count. Not every estimator is a
//! commutative counter grid, so each registered slot is routed to the
//! cheapest strategy that preserves its answer:
//!
//! | Strategy | Slots | Why it is sound |
//! |---|---|---|
//! | shared-atomic | `F_1`/`F_2` heavy hitters, Rusu–Dobra `F_2` | cell-wise integer adds commute; any interleaving quiesces to the sequential grid bit for bit |
//! | key-sharded | `F_0`, `F_k` (exact and sketched), naive baselines | items are partitioned by key hash, so each part owns a disjoint sub-multiset and the existing merge is exact (disjoint maps, bottom-k union, linear sketches) |
//! | replicated | entropy, adaptive, unknown slots | entropy is *not* key-shardable (`H = Σ wᵢHᵢ + H(w)` loses the cross-partition term); thread-local replicas merge through `Monitor::merge`'s algebra |
//!
//! [`ParallelStrategy::Replicated`] forces the last row onto every slot:
//! N full replicas merged at the end, the control arm for benchmarks and
//! equivalence tests.
//!
//! **One fold, two callers.** Each worker keeps its replicated locals
//! behind its own mutex and holds it for the whole of every sampled
//! batch. [`ConcurrentMonitor::snapshot`] locks every worker mutex in
//! ascending order — pausing all writers at batch boundaries — and folds
//! the shared state into a plain [`Monitor`]: grids convert back to
//! their plain estimators, key-shard parts and replicated locals merge.
//! [`ConcurrentMonitor::finish`] joins the workers and runs the same
//! fold. The lock order is always worker mutexes (ascending) before
//! key-shard part mutexes, so a snapshot is a consistent cut: every
//! slot reflects the same set of completed batches.
//!
//! **Seeding.** Shared-atomic and key-sharded slots keep the prototype's
//! hash seeds (the grids *are* the prototype's grids; key-shard parts
//! must agree with each other to merge). Replicated slots follow
//! [`Monitor::fork_shard`]'s seed schedule exactly (one module owns it:
//! worker `i` takes shard `i`'s per-entry seeds), and worker `i` samples
//! with `split_seed(sampler_seed, i)`, so survival decisions across
//! workers are independent.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sss_codec::WireCodec;
use sss_hash::{fingerprint64, split_seed};
use sss_obs::MetricId;
use sss_sketch::{AtomicAmsF2, AtomicCmHeavyHitters, AtomicCsHeavyHitters, AtomicScratch};
use sss_stream::{BernoulliSampler, Item};

use crate::baselines::RusuDobraF2;
use crate::estimate::SubsampledEstimator;
use crate::heavy_hitters::{SampledF1HeavyHitters, SampledF2HeavyHitters};
use crate::monitor::{DynEstimator, Monitor};

/// Chunks a worker's queue holds before `ingest` blocks (backpressure
/// instead of unbounded buffering).
const QUEUE_DEPTH: usize = 4;
/// Survivors per worker-side sampled batch: amortises the per-batch slot
/// dispatch (and the worker-mutex acquire) without growing the survivor
/// buffer past L1.
const SAMPLE_BATCH: usize = 4096;

/// How a [`ConcurrentMonitor`] maps estimator slots onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ParallelStrategy {
    /// Per-slot routing (the table in the module docs): shared-atomic
    /// where the merge algebra is cell-wise addition, key-sharded where
    /// a key partition merges exactly, replicated otherwise.
    #[default]
    Auto,
    /// Force every slot onto thread-local replicas: worker `i` holds
    /// `fork_shard(i)`-seeded estimators, merged ascending at the fold.
    Replicated,
}

/// Tuning knobs for a [`ConcurrentMonitor`].
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of ingest threads (≥ 1).
    pub threads: usize,
    /// Raw elements per dispatched chunk.
    pub dispatch_chunk: usize,
    /// Slot-to-thread mapping policy.
    pub strategy: ParallelStrategy,
}

impl ConcurrentConfig {
    /// Defaults for `threads` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one ingest thread");
        Self {
            threads,
            dispatch_chunk: 1 << 16,
            strategy: ParallelStrategy::Auto,
        }
    }
}

/// A chunk of the raw stream travelling to a worker: either owned, or a
/// zero-copy range of a shared buffer.
enum Job {
    Owned(Vec<Item>),
    Shared(Arc<Vec<Item>>, Range<usize>),
}

impl Job {
    fn as_slice(&self) -> &[Item] {
        match self {
            Job::Owned(v) => v,
            Job::Shared(data, r) => &data[r.clone()],
        }
    }
}

// Wire tags double as slot-type identifiers for strategy routing; this
// is the same keying the checkpoint registry uses, so a slot the codec
// can name, the router can route.
const HH_F1: u16 = SampledF1HeavyHitters::WIRE_TAG;
const HH_F2: u16 = SampledF2HeavyHitters::WIRE_TAG;
const RUSU_DOBRA: u16 = RusuDobraF2::WIRE_TAG;
const F0: u16 = crate::f0::SampledF0Estimator::WIRE_TAG;
const FK_EXACT: u16 =
    <crate::fk::SampledFkEstimator<crate::collisions::ExactCollisions> as WireCodec>::WIRE_TAG;
const FK_SKETCHED: u16 =
    <crate::fk::SampledFkEstimator<crate::collisions::LevelSetCollisions> as WireCodec>::WIRE_TAG;
const NAIVE_FK: u16 = crate::baselines::NaiveScaledFk::WIRE_TAG;
const NAIVE_F0: u16 = crate::baselines::NaiveScaledF0::WIRE_TAG;

/// Shared per-slot ingestion state, index-aligned with the prototype's
/// entries.
enum SlotState {
    /// `F_1` heavy hitters over a shared-atomic CountMin grid.
    Cm(AtomicCmHeavyHitters),
    /// `F_2` heavy hitters over a shared-atomic CountSketch grid.
    Cs(AtomicCsHeavyHitters),
    /// Rusu–Dobra `F_2`: shared-atomic AMS grid plus the sample counter
    /// its inversion needs.
    Ams {
        ams: AtomicAmsF2,
        n_sampled: AtomicU64,
    },
    /// Disjoint key partition: part `j` owns the items with
    /// `fingerprint64(x) % parts == j`. One mutex per part; workers
    /// group a batch by part first, so each lock is taken at most once
    /// per batch.
    KeySharded(Vec<Mutex<Box<dyn DynEstimator>>>),
    /// Thread-local replicas (in each worker's [`WorkerLocals`]).
    Replicated,
}

/// A worker's thread-local replicas, in registration order: `None` for
/// slots served entirely by shared state.
type WorkerLocals = Vec<Option<Box<dyn DynEstimator>>>;

struct Shared {
    slots: Vec<SlotState>,
    /// Sampled elements ingested across all workers.
    samples: AtomicU64,
    /// One per worker, index-aligned: its replicated locals. The worker
    /// holds its mutex for the whole of each sampled batch, so holding
    /// all of them pauses every writer at a batch boundary.
    workers: Vec<Mutex<WorkerLocals>>,
}

/// Lock a worker or part mutex. Poison means a worker panicked mid-batch
/// and left that state half-updated, so nothing may fold it.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("a concurrent worker panicked mid-batch")
}

/// Route one prototype slot to its ingestion strategy.
fn route_slot(est: &dyn DynEstimator, strategy: ParallelStrategy, parts: usize) -> SlotState {
    if strategy == ParallelStrategy::Replicated {
        return SlotState::Replicated;
    }
    match est.wire_tag() {
        HH_F1 => {
            let hh = est
                .as_any()
                .downcast_ref::<SampledF1HeavyHitters>()
                .expect("HH_F1 tag on a non-F1 slot");
            // A conservative-update CountMin cannot go shared-atomic
            // (order-dependent) *or* merge; replicate and let the merge
            // report the incompatibility.
            match AtomicCmHeavyHitters::from_plain(hh.inner()) {
                Some(atomic) => SlotState::Cm(atomic),
                None => SlotState::Replicated,
            }
        }
        HH_F2 => {
            let hh = est
                .as_any()
                .downcast_ref::<SampledF2HeavyHitters>()
                .expect("HH_F2 tag on a non-F2 slot");
            SlotState::Cs(AtomicCsHeavyHitters::from_plain(hh.inner()))
        }
        RUSU_DOBRA => {
            let rd = est
                .as_any()
                .downcast_ref::<RusuDobraF2>()
                .expect("RUSU_DOBRA tag on a non-RD slot");
            SlotState::Ams {
                ams: AtomicAmsF2::from_plain(rd.ams()),
                n_sampled: AtomicU64::new(rd.samples_seen()),
            }
        }
        F0 | FK_EXACT | FK_SKETCHED | NAIVE_FK | NAIVE_F0 => {
            // Clones keep the prototype's seeds: parts must agree to
            // merge, and a key partition is just a particular disjoint
            // split, for which these merges are exact.
            SlotState::KeySharded((0..parts).map(|_| Mutex::new(est.clone_box())).collect())
        }
        _ => SlotState::Replicated,
    }
}

/// The parallel ingestion pipeline: raw (unsampled) stream in, one plain
/// [`Monitor`] out — mid-run via [`ConcurrentMonitor::snapshot`], or
/// final via [`ConcurrentMonitor::finish`].
///
/// ```no_run
/// use sss_core::{ConcurrentConfig, ConcurrentMonitor, MonitorBuilder, Statistic};
///
/// let proto = MonitorBuilder::with_seed(0.1, 7).f0(0.05).fk(2).build();
/// let mut cm = ConcurrentMonitor::launch(&proto, 99, ConcurrentConfig::new(4));
/// cm.ingest(&[1, 2, 3, 4, 5, 6, 7, 8]); // raw stream elements
/// let merged = cm.finish();
/// let f2 = merged.estimate(Statistic::Fk(2)).unwrap();
/// # let _ = f2;
/// ```
pub struct ConcurrentMonitor {
    txs: Vec<SyncSender<Job>>,
    handles: Vec<JoinHandle<()>>,
    shared: Arc<Shared>,
    dispatched: u64,
    /// Pristine base every fold starts from.
    prototype: Monitor,
    cfg: ConcurrentConfig,
    next_worker: usize,
}

impl ConcurrentMonitor {
    /// Spawn the worker pipeline. `prototype` must be freshly built
    /// (pre-ingestion); its grids become the shared state.
    ///
    /// # Panics
    /// If the prototype has already ingested samples (its state would be
    /// counted once per replica on the fold).
    pub fn launch(prototype: &Monitor, sampler_seed: u64, cfg: ConcurrentConfig) -> Self {
        assert!(
            prototype.samples_seen() == 0,
            "concurrent launch requires a pristine prototype monitor"
        );
        // Re-validate: the config fields are public, so
        // ConcurrentConfig::new's own assert can be bypassed by mutation.
        assert!(cfg.threads >= 1, "need at least one ingest thread");
        let slots: Vec<SlotState> = prototype
            .entries()
            .iter()
            .map(|e| route_slot(e.est.as_ref(), cfg.strategy, cfg.threads))
            .collect();
        let workers = (0..cfg.threads)
            .map(|i| {
                // Replicated slots follow fork_shard's schedule seed for
                // seed; only the replicated ones clone.
                let locals: WorkerLocals = prototype
                    .entries()
                    .iter()
                    .zip(&slots)
                    .zip(prototype.shard_seeds(i as u64))
                    .map(|((e, slot), seed)| {
                        matches!(slot, SlotState::Replicated).then(|| {
                            let mut local = e.est.clone_box();
                            local.reseed_shard_local(seed);
                            local
                        })
                    })
                    .collect();
                Mutex::new(locals)
            })
            .collect();
        let shared = Arc::new(Shared {
            slots,
            samples: AtomicU64::new(0),
            workers,
        });
        let mut txs = Vec::with_capacity(cfg.threads);
        let mut handles = Vec::with_capacity(cfg.threads);
        for i in 0..cfg.threads {
            let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
            let sampler = BernoulliSampler::new(prototype.p(), split_seed(sampler_seed, i as u64));
            let state = Arc::clone(&shared);
            let parts = cfg.threads;
            let handle = std::thread::Builder::new()
                .name(format!("sss-conc-{i}"))
                .spawn(move || worker_loop(i, sampler, rx, &state, parts))
                .expect("spawn concurrent worker");
            txs.push(tx);
            handles.push(handle);
        }
        Self {
            txs,
            handles,
            shared,
            dispatched: 0,
            prototype: prototype.clone(),
            cfg,
            next_worker: 0,
        }
    }

    /// Number of ingest threads.
    pub fn threads(&self) -> usize {
        self.cfg.threads
    }

    /// The sampling rate every worker applies.
    pub fn p(&self) -> f64 {
        self.prototype.p()
    }

    /// Raw (pre-sampling) elements dispatched to workers so far.
    pub fn raw_dispatched(&self) -> u64 {
        self.dispatched
    }

    /// Sampled elements ingested into the shared state so far (racy
    /// read; trails dispatch by the in-flight queues).
    pub fn samples_ingested(&self) -> u64 {
        self.shared.samples.load(Ordering::Relaxed)
    }

    fn send(&mut self, job: Job) {
        let n = job.as_slice().len() as u64;
        // Round-robin keeps worker loads *and distributions* aligned,
        // which is what makes the length-weighted entropy merge of the
        // replicated slots consistent with the single-threaded estimate.
        let worker = self.next_worker;
        self.next_worker = (self.next_worker + 1) % self.txs.len();
        self.txs[worker]
            .send(job)
            .expect("concurrent worker exited early (panicked?)");
        self.dispatched += n;
        let obs = sss_obs::global();
        obs.inc(MetricId::IngestJobsDispatchedTotal);
        // Depth = dispatched − completed: `sync_channel` exposes no
        // len, so occupancy is tracked from both ends of the queue.
        obs.gauge_add(MetricId::IngestQueueDepth, 1);
    }

    /// Feed a slice of the **raw** stream (copied into
    /// `dispatch_chunk`-sized jobs; blocks on full queues). For large
    /// in-memory buffers prefer the zero-copy
    /// [`ConcurrentMonitor::ingest_shared`].
    pub fn ingest(&mut self, raw: &[Item]) {
        for chunk in raw.chunks(self.cfg.dispatch_chunk.max(1)) {
            self.send(Job::Owned(chunk.to_vec()));
        }
    }

    /// Feed a shared buffer zero-copy: workers borrow
    /// `dispatch_chunk`-sized ranges of `data` round-robin.
    pub fn ingest_shared(&mut self, data: &Arc<Vec<Item>>) {
        let len = data.len();
        let step = self.cfg.dispatch_chunk.max(1);
        let mut lo = 0usize;
        while lo < len {
            let hi = (lo + step).min(len);
            self.send(Job::Shared(Arc::clone(data), lo..hi));
            lo = hi;
        }
    }

    /// A consistent mid-run view without stopping ingestion: pauses every
    /// worker at its next batch boundary, folds the shared state into a
    /// plain [`Monitor`] and lets the workers resume. Jobs still queued
    /// are not in it — [`ConcurrentMonitor::finish`] gives the final
    /// answer. `snapshot().checkpoint()` is what a site ships to a
    /// collector mid-run.
    pub fn snapshot(&self) -> Monitor {
        fold(self.prototype.clone(), &self.shared, "snapshot")
    }

    /// Quiesce: drain the queues, join every worker, and fold the shared
    /// state into the final plain [`Monitor`].
    pub fn finish(self) -> Monitor {
        let ConcurrentMonitor {
            txs,
            handles,
            shared,
            prototype,
            ..
        } = self;
        drop(txs); // closes every queue; workers drain and return
        for h in handles {
            h.join().expect("concurrent worker panicked");
        }
        fold(prototype, &shared, "quiesce")
    }
}

/// The one conversion from shared state to a plain [`Monitor`], built on
/// `base` (the pristine prototype): grids convert to their plain
/// estimators, key-shard parts and replicated locals merge ascending.
/// Holds every worker mutex (ascending) for the whole fold, then takes
/// part mutexes, so the result is a consistent cut of completed batches.
fn fold(mut base: Monitor, shared: &Shared, note: &'static str) -> Monitor {
    let locals: Vec<MutexGuard<'_, WorkerLocals>> = shared.workers.iter().map(lock).collect();
    let mut merges = 0u64;
    for (i, slot) in shared.slots.iter().enumerate() {
        let entry = &mut base.entries_mut()[i];
        match slot {
            SlotState::Cm(atomic) => entry
                .est
                .as_any_mut()
                .downcast_mut::<SampledF1HeavyHitters>()
                .expect("Cm slot type changed under fold")
                .replace_inner(atomic.to_plain()),
            SlotState::Cs(atomic) => entry
                .est
                .as_any_mut()
                .downcast_mut::<SampledF2HeavyHitters>()
                .expect("Cs slot type changed under fold")
                .replace_inner(atomic.to_plain()),
            SlotState::Ams { ams, n_sampled } => entry
                .est
                .as_any_mut()
                .downcast_mut::<RusuDobraF2>()
                .expect("Ams slot type changed under fold")
                .install(ams.to_plain(), n_sampled.load(Ordering::Relaxed)),
            SlotState::KeySharded(parts) => {
                for part in parts {
                    // Key-shard parts share the prototype's config.
                    entry.est.merge_dyn(lock(part).as_any());
                    merges += 1;
                }
            }
            SlotState::Replicated => {
                for worker in &locals {
                    let local = worker[i]
                        .as_ref()
                        .expect("replicated slot missing its worker local");
                    // Replicas share the prototype's config.
                    entry.est.merge_dyn(local.as_any());
                    merges += 1;
                }
            }
        }
    }
    base.set_samples(shared.samples.load(Ordering::Relaxed));
    drop(locals);
    let obs = sss_obs::global();
    obs.add(MetricId::IngestMergesTotal, merges);
    if merges > 0 {
        obs.event(sss_obs::EventKind::MergePerformed, merges, 0, note);
    }
    base
}

fn worker_loop(
    worker: usize,
    mut sampler: BernoulliSampler,
    rx: Receiver<Job>,
    shared: &Shared,
    parts: usize,
) {
    let mut scratch = AtomicScratch::new();
    // Per-part grouping buffers for key-sharded slots, reused across
    // batches (one lock per non-empty part per batch, not per item).
    let mut buckets: Vec<Vec<u64>> = (0..parts).map(|_| Vec::new()).collect();
    while let Ok(job) = rx.recv() {
        let mut items = 0u64;
        sampler.sample_batches(job.as_slice(), SAMPLE_BATCH, |batch| {
            // Held for the whole batch: a snapshot sees all of it or none.
            let mut locals = lock(&shared.workers[worker]);
            items += batch.len() as u64;
            let mut grouped = false;
            for (i, slot) in shared.slots.iter().enumerate() {
                match slot {
                    SlotState::Cm(atomic) => atomic.update_batch(batch, &mut scratch),
                    SlotState::Cs(atomic) => atomic.update_batch(batch, &mut scratch),
                    SlotState::Ams { ams, n_sampled } => {
                        ams.update_batch(batch, &mut scratch);
                        n_sampled.fetch_add(batch.len() as u64, Ordering::Relaxed);
                    }
                    SlotState::KeySharded(slot_parts) => {
                        if !grouped {
                            for b in &mut buckets {
                                b.clear();
                            }
                            for &x in batch {
                                buckets[(fingerprint64(x) % parts as u64) as usize].push(x);
                            }
                            grouped = true;
                        }
                        for (part, bucket) in slot_parts.iter().zip(buckets.iter()) {
                            if !bucket.is_empty() {
                                lock(part).update_batch(bucket);
                            }
                        }
                    }
                    SlotState::Replicated => {
                        if let Some(local) = &mut locals[i] {
                            local.update_batch(batch);
                        }
                    }
                }
            }
            shared
                .samples
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        });
        let obs = sss_obs::global();
        obs.inc(MetricId::IngestJobsCompletedTotal);
        obs.gauge_add(MetricId::IngestQueueDepth, -1);
        obs.labeled_add(MetricId::IngestThreadItemsTotal, worker as u64, items);
        let retries = scratch.take_cas_retries();
        if retries > 0 {
            obs.add(MetricId::IngestCasRetriesTotal, retries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::Statistic;
    use crate::monitor::MonitorBuilder;
    use sss_stream::{StreamGen, ZipfStream};

    fn proto(p: f64) -> Monitor {
        MonitorBuilder::with_seed(p, 41)
            .f0(0.05)
            .fk(2)
            .entropy(768)
            .f1_heavy_hitters(0.05, 0.2, 0.05)
            .f2_heavy_hitters(0.4, 0.2, 0.05)
            .build()
    }

    /// Shared-atomic grids keep the prototype's seeds, so at p = 1 and
    /// any thread count the quiesced monitor's grid substrates must
    /// match a sequential monitor bit for bit.
    #[test]
    fn grid_substrates_quiesce_bitwise_at_p_one() {
        let stream = Arc::new(ZipfStream::new(2_000, 1.2).generate(50_000, 3));
        let mut single = proto(1.0);
        single.update_batch(&stream);

        for threads in [1usize, 2, 4] {
            let mut cfg = ConcurrentConfig::new(threads);
            cfg.dispatch_chunk = 4096;
            let mut cm = ConcurrentMonitor::launch(&proto(1.0), 7, cfg);
            cm.ingest_shared(&stream);
            let merged = cm.finish();
            assert_eq!(merged.samples_seen(), stream.len() as u64);
            // Exact key-partition merges: F0 identical.
            assert_eq!(
                merged.estimate(Statistic::F0).unwrap().value,
                single.estimate(Statistic::F0).unwrap().value,
                "{threads} threads: F0 must partition exactly"
            );
            let f2_a = merged.estimate(Statistic::Fk(2)).unwrap().value;
            let f2_b = single.estimate(Statistic::Fk(2)).unwrap().value;
            assert!(
                (f2_a - f2_b).abs() <= 1e-6 * f2_b.abs().max(1.0),
                "{threads} threads: F2 {f2_a} vs {f2_b}"
            );
        }
    }

    #[test]
    fn copied_and_shared_ingest_paths_agree() {
        let stream = ZipfStream::new(300, 1.0).generate(20_000, 6);
        let mut a = ConcurrentMonitor::launch(&proto(1.0), 5, ConcurrentConfig::new(2));
        a.ingest(&stream);
        let mut b = ConcurrentMonitor::launch(&proto(1.0), 5, ConcurrentConfig::new(2));
        b.ingest_shared(&Arc::new(stream.clone()));
        assert_eq!(a.raw_dispatched(), b.raw_dispatched());
        let (ma, mb) = (a.finish(), b.finish());
        assert_eq!(ma.samples_seen(), mb.samples_seen());
        assert_eq!(
            ma.estimate(Statistic::F0).unwrap().value,
            mb.estimate(Statistic::F0).unwrap().value,
        );
    }

    #[test]
    #[should_panic(expected = "pristine prototype")]
    fn launch_rejects_ingested_prototype() {
        let mut m = proto(0.5);
        m.update(1);
        let _ = ConcurrentMonitor::launch(&m, 1, ConcurrentConfig::new(2));
    }

    #[test]
    #[should_panic(expected = "at least one ingest thread")]
    fn zero_threads_rejected() {
        let _ = ConcurrentConfig::new(0);
    }

    #[test]
    #[should_panic(expected = "at least one ingest thread")]
    fn mutated_zero_thread_config_rejected_at_launch() {
        let mut cfg = ConcurrentConfig::new(1);
        cfg.threads = 0;
        let _ = ConcurrentMonitor::launch(&proto(0.5), 1, cfg);
    }
}
