//! Multi-threaded ingestion: N workers, each with its own replica,
//! folded by the merge algebra.
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
//!   ingest ──┬──────────► worker 0: sample(p, seed₀) → fork_shard(0) ─┐
//!            ├──────────► worker 1: sample(p, seed₁) → fork_shard(1) ─┼─► merge_all ─► Monitor
//!            └──────────► worker N−1: sample(p, seedₙ) → fork_shard(N−1) ┘
//! ```
//!
//! Worker `i` ingests into its own replica, `prototype.fork_shard(i)`,
//! through [`Monitor::update_batch`] (the single-threaded batch kernels),
//! and [`ConcurrentMonitor::snapshot`] and [`ConcurrentMonitor::finish`]
//! fold the replicas with [`Monitor::merge_all`] onto a clone of the
//! prototype: the fold a collector runs over its sites. The folded
//! monitor is therefore the sharded deployment's, byte for byte: `N`
//! `fork_shard` monitors, monitor `i` fed every `N`-th dispatched chunk
//! through a `split_seed(sampler_seed, i)` sampler, merged in ascending
//! order. It does not depend on thread timing.
//!
//! **Memory.** Ingest memory grows with the thread count, as `N` sites'
//! memory does: every replica holds each fixed-size sketch grid whole.
//! The folded monitor, and so its checkpoint, does not.
//!
//! **Consistent cut.** Each worker holds its replica's mutex for the
//! whole of every sampled batch. The fold locks every replica in
//! ascending order, which pauses all writers at batch boundaries, so
//! every slot of a snapshot reflects the same set of completed batches.
//!
//! **Seeding.** Replicas follow [`Monitor::fork_shard`]'s seed schedule:
//! merge-critical hash seeds stay the prototype's, shard-local
//! randomness is re-derived per worker. Worker `i` samples with
//! `split_seed(sampler_seed, i)`, so survival decisions across workers
//! are independent.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

use sss_hash::split_seed;
use sss_obs::MetricId;
use sss_stream::{BernoulliSampler, Item};

use crate::monitor::Monitor;

/// Chunks a worker's queue holds before `ingest` blocks (backpressure
/// instead of unbounded buffering).
const QUEUE_DEPTH: usize = 4;
/// Survivors per worker-side sampled batch: amortises the per-batch slot
/// dispatch (and the replica-mutex acquire) without growing the survivor
/// buffer past L1.
const SAMPLE_BATCH: usize = 4096;

/// Tuning knobs for a [`ConcurrentMonitor`].
#[derive(Debug, Clone)]
pub struct ConcurrentConfig {
    /// Number of ingest threads (≥ 1).
    pub threads: usize,
    /// Raw elements per dispatched chunk.
    pub dispatch_chunk: usize,
}

impl ConcurrentConfig {
    /// Defaults for `threads` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads >= 1, "need at least one ingest thread");
        Self {
            threads,
            dispatch_chunk: 1 << 16,
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

struct Shared {
    /// Sampled elements ingested across all workers.
    samples: AtomicU64,
    /// Worker `i`'s replica, `fork_shard(i)`. The worker holds its mutex
    /// for the whole of each sampled batch, so holding all of them
    /// pauses every writer at a batch boundary.
    replicas: Vec<Mutex<Monitor>>,
}

/// Lock a replica. Poison means a worker panicked mid-batch and left its
/// replica half-updated, so nothing may fold it.
fn lock(m: &Mutex<Monitor>) -> MutexGuard<'_, Monitor> {
    m.lock().expect("a concurrent worker panicked mid-batch")
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
    /// (pre-ingestion); worker `i` ingests into its `fork_shard(i)`.
    ///
    /// # Panics
    /// If the prototype has already ingested samples (its state would be
    /// counted once per replica on the fold), or cannot merge with
    /// itself (every builder-registered statistic can; a `register()`-ed
    /// estimator whose `merge_compatible` refuses itself cannot): the
    /// fold merges copies of it.
    pub fn launch(prototype: &Monitor, sampler_seed: u64, cfg: ConcurrentConfig) -> Self {
        assert!(
            prototype.samples_seen() == 0,
            "concurrent launch requires a pristine prototype monitor"
        );
        if let Err(e) = prototype.check_mergeable(prototype) {
            panic!("concurrent launch requires a self-mergeable prototype: {e}");
        }
        // Re-validate: the config fields are public, so
        // ConcurrentConfig::new's own assert can be bypassed by mutation.
        assert!(cfg.threads >= 1, "need at least one ingest thread");
        let shared = Arc::new(Shared {
            samples: AtomicU64::new(0),
            replicas: (0..cfg.threads)
                .map(|i| Mutex::new(prototype.fork_shard(i as u64)))
                .collect(),
        });
        let mut txs = Vec::with_capacity(cfg.threads);
        let mut handles = Vec::with_capacity(cfg.threads);
        for i in 0..cfg.threads {
            let (tx, rx) = sync_channel::<Job>(QUEUE_DEPTH);
            let sampler = BernoulliSampler::new(prototype.p(), split_seed(sampler_seed, i as u64));
            let state = Arc::clone(&shared);
            let handle = std::thread::Builder::new()
                .name(format!("sss-conc-{i}"))
                .spawn(move || worker_loop(i, sampler, rx, &state))
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

    /// Sampled elements ingested by the workers so far (a relaxed read;
    /// trails dispatch by the in-flight queues).
    pub fn samples_ingested(&self) -> u64 {
        self.shared.samples.load(Ordering::Relaxed)
    }

    fn send(&mut self, job: Job) {
        let n = job.as_slice().len() as u64;
        // Round-robin keeps worker loads *and distributions* aligned,
        // which is what makes the length-weighted entropy merge of the
        // replicas consistent with the single-threaded estimate.
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
    /// worker at its next batch boundary, folds the replicas into a
    /// plain [`Monitor`] and lets the workers resume. Jobs still queued
    /// are not in it — [`ConcurrentMonitor::finish`] gives the final
    /// answer. `snapshot().checkpoint()` is what a site ships to a
    /// collector mid-run.
    pub fn snapshot(&self) -> Monitor {
        fold(self.prototype.clone(), &self.shared, "snapshot")
    }

    /// Drain the queues, join every worker, and fold the replicas into
    /// the final plain [`Monitor`].
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
        fold(prototype, &shared, "finish")
    }
}

/// The one fold behind [`ConcurrentMonitor::snapshot`] and
/// [`ConcurrentMonitor::finish`]: [`Monitor::merge_all`] of every replica,
/// ascending, onto `base` (the pristine prototype). Holds every replica
/// mutex for the whole fold, so the result is a consistent cut of
/// completed batches.
fn fold(mut base: Monitor, shared: &Shared, note: &'static str) -> Monitor {
    let replicas: Vec<MutexGuard<'_, Monitor>> = shared.replicas.iter().map(lock).collect();
    let views: Vec<&Monitor> = replicas.iter().map(|r| &**r).collect();
    base.merge_all(&views);
    let merges = views.len() as u64;
    let obs = sss_obs::global();
    obs.add(MetricId::IngestMergesTotal, merges);
    obs.event(sss_obs::EventKind::MergePerformed, merges, 0, note);
    base
}

fn worker_loop(worker: usize, mut sampler: BernoulliSampler, rx: Receiver<Job>, shared: &Shared) {
    let replica = &shared.replicas[worker];
    while let Ok(job) = rx.recv() {
        let mut items = 0u64;
        sampler.sample_batches(job.as_slice(), SAMPLE_BATCH, |batch| {
            // Held for the whole batch: a snapshot sees all of it or none.
            lock(replica).update_batch(batch);
            items += batch.len() as u64;
            shared
                .samples
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
        });
        let obs = sss_obs::global();
        obs.inc(MetricId::IngestJobsCompletedTotal);
        obs.gauge_add(MetricId::IngestQueueDepth, -1);
        obs.labeled_add(MetricId::IngestThreadItemsTotal, worker as u64, items);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::{Estimate, Guarantee, MergeError, Statistic, SubsampledEstimator};
    use crate::monitor::MonitorBuilder;
    use sss_codec::{CodecError, Reader, WireCodec};
    use sss_sketch::Mismatch;
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

    /// Replicas keep the prototype's hash seeds, so at p = 1 and any
    /// thread count the fold's bottom-k `F_0` and collision `F_2` must
    /// match a sequential monitor.
    #[test]
    fn exact_substrates_fold_exactly_at_p_one() {
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
            // Bottom-k union of disjoint slices: F0 identical.
            assert_eq!(
                merged.estimate(Statistic::F0).unwrap().value,
                single.estimate(Statistic::F0).unwrap().value,
                "{threads} threads: F0 must merge exactly"
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

    /// A `register()`-ed estimator that merges with nothing, itself
    /// included.
    #[derive(Clone)]
    struct Unmergeable;

    impl SubsampledEstimator for Unmergeable {
        fn statistic(&self) -> Statistic {
            Statistic::F0
        }

        fn update(&mut self, _: u64) {}

        fn merge(&mut self, other: &Self) {
            self.merge_compatible(other)
                .unwrap_or_else(|e| panic!("{e}"));
        }

        fn merge_compatible(&self, _: &Self) -> Result<(), MergeError> {
            Err(Mismatch {
                what: "Unmergeable (merges with nothing)",
            }
            .into())
        }

        fn estimate(&self) -> Estimate {
            Estimate::scalar(0.0, Guarantee::Heuristic, 0.5, 0)
        }

        fn space_bytes(&self) -> usize {
            0
        }

        fn p(&self) -> f64 {
            0.5
        }

        fn samples_seen(&self) -> u64 {
            0
        }
    }

    impl WireCodec for Unmergeable {
        fn encode_into(&self, _: &mut Vec<u8>) {}

        fn decode(_: &mut Reader) -> Result<Self, CodecError> {
            Ok(Unmergeable)
        }
    }

    /// `launch` refuses a prototype that cannot merge with itself before
    /// any worker starts: the fold merges copies of it.
    #[test]
    #[should_panic(
        expected = "self-mergeable prototype: incompatible Unmergeable (merges with nothing)"
    )]
    fn launch_rejects_a_prototype_that_cannot_merge_with_itself() {
        let m = MonitorBuilder::with_seed(0.5, 41)
            .f0(0.05)
            .register("unmergeable", Unmergeable)
            .build();
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
