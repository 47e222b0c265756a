//! Shared-atomic variants of the heavy-hitter reporters' grids.
//!
//! Replicating sketch state per worker and folding through the merge
//! algebra scales cores, but memory grows N× with thread count. The
//! types here take the other route (Confluo's `substream_summary`
//! shape): one shared counter grid whose cells many ingest threads
//! update concurrently with relaxed atomic adds, behind the `F_1`/`F_2`
//! heavy-hitter reporters. Each reporter keeps its own grid sweep and
//! shares the rest with the plain [`HeavyHitters`](crate::HeavyHitters):
//! a chunk's admitted candidates reach the tracker through the plain
//! batch path's coalescing step, and `to_plain` rebuilds the tracker
//! with the re-offer routine a merge uses. This is sound for exactly the substrates
//! whose merge is cell-wise integer addition (CountMin, CountSketch):
//! integer adds commute and associate, so any interleaving of per-cell
//! `fetch_add`s quiesces to the same grid a sequential ingest of the
//! same multiset would produce — bit for bit. No cross-cell invariant
//! holds *during* ingestion, which is why conversion back to the plain
//! types is only offered as a quiesce step (`to_plain`), once no writer
//! is mid-update: every writer joined, or paused behind a lock it holds
//! across each update. The join or the lock is the happens-before edge
//! that makes the relaxed loads well-defined.
//!
//! Orderings are `Relaxed` throughout: each cell is an independent
//! commutative accumulator, the estimators' guarantees never depend on
//! cross-cell ordering, and the quiesce edge provides the only
//! synchronization the conversion needs. The `atomic_ordering` lint rule
//! pins this: a stronger ordering on these hot paths is a bug unless a
//! pragma documents why.
//!
//! The one genuinely contended read-modify-write is CountSketch's live
//! per-row Σc² accumulator (needed by the F₂ heavy-hitter admission
//! threshold *during* ingestion): an `f64` carried as bits in an
//! `AtomicU64`, folded per chunk through a `compare_exchange_weak` loop.
//! Retries of that loop are the workload's real contention signal and
//! are counted per thread for the obs layer to drain with
//! [`AtomicScratch::take_cas_retries`]. The live value is approximate
//! (f64 accumulation order varies); the quiesced sketch recomputes the
//! exact integer Σc² from the final counters, the same way merge and
//! decode already do.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

use sss_hash::{reduce_inputs, FieldPowers, FourWiseSign, PairwiseHash};

use crate::batch::BATCH_CHUNK;
use crate::countmin::CountMin;
use crate::countsketch::{median_i64, median_u128_as_f64, CountSketch};
use crate::topk::{CmHeavyHitters, CsHeavyHitters, TopKTracker};

/// Per-thread working buffers for the atomic batch kernels, plus the
/// thread's CAS-retry tally. One per ingest thread; never shared.
#[derive(Debug, Default)]
pub struct AtomicScratch {
    xr: Vec<u64>,
    powers: FieldPowers,
    idx: Vec<usize>,
    signs: Vec<i64>,
    vals: Vec<i64>,
    dsq: Vec<i128>,
    rows: Vec<u128>,
    admit: Vec<(u64, f64)>,
    /// `compare_exchange_weak` retries observed by this thread since the
    /// last [`Self::take_cas_retries`] — the contention counter the obs
    /// layer drains per job.
    cas_retries: u64,
}

impl AtomicScratch {
    /// Fresh scratch for one ingest thread.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drain the thread's CAS-retry count (resets to zero).
    pub fn take_cas_retries(&mut self) -> u64 {
        std::mem::take(&mut self.cas_retries)
    }
}

/// Fold `delta` into an `f64`-carried-as-bits atomic accumulator with a
/// CAS loop, tallying retries into `retries`.
#[inline]
fn f64_fetch_add(cell: &AtomicU64, delta: f64, retries: &mut u64) {
    let mut cur = cell.load(Ordering::Relaxed);
    loop {
        let new = (f64::from_bits(cur) + delta).to_bits();
        match cell.compare_exchange_weak(cur, new, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => {
                cur = actual;
                *retries += 1;
            }
        }
    }
}

// ---------------------------------------------------------------------
// CountMin
// ---------------------------------------------------------------------

/// Shared-atomic [`CountMin`]: the same row-major d×w grid with
/// `AtomicU64` cells. [`AtomicCmHeavyHitters`]'s sweep writes them from
/// many threads through `&self`.
#[derive(Debug)]
struct AtomicCountMin {
    width: usize,
    counters: Vec<AtomicU64>,
    hashes: Vec<PairwiseHash>,
    total: AtomicU64,
}

impl AtomicCountMin {
    /// Lift a plain sketch into shared-atomic form.
    fn from_plain(cm: &CountMin) -> Self {
        Self {
            width: cm.width(),
            counters: cm.counters().iter().map(|&c| AtomicU64::new(c)).collect(),
            hashes: cm.hashes().to_vec(),
            total: AtomicU64::new(cm.total()),
        }
    }

    /// Quiesce to a plain sketch. Callers must have joined or paused
    /// every writer first; the relaxed loads then read a settled grid.
    fn to_plain(&self) -> CountMin {
        CountMin::from_parts(
            self.width,
            self.counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            self.hashes.clone(),
            self.total.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// CountSketch
// ---------------------------------------------------------------------

/// Shared-atomic [`CountSketch`]: `AtomicI64` cells plus a live per-row
/// Σc² approximation (f64 bits in `AtomicU64`, CAS-accumulated) so the
/// F₂ admission threshold stays available during concurrent ingestion.
/// [`AtomicCsHeavyHitters`]'s sweep writes the cells.
#[derive(Debug)]
struct AtomicCountSketch {
    width: usize,
    counters: Vec<AtomicI64>,
    bucket_hashes: Vec<PairwiseHash>,
    sign_hashes: Vec<FourWiseSign>,
    row_sumsq: Vec<AtomicU64>,
    total: AtomicU64,
}

impl AtomicCountSketch {
    /// Lift a plain sketch into shared-atomic form.
    fn from_plain(cs: &CountSketch) -> Self {
        Self {
            width: cs.width(),
            counters: cs.counters().iter().map(|&c| AtomicI64::new(c)).collect(),
            bucket_hashes: cs.bucket_hashes().to_vec(),
            sign_hashes: cs.sign_hashes().to_vec(),
            row_sumsq: cs
                .row_sumsq()
                .iter()
                .map(|&s| AtomicU64::new((s as f64).to_bits()))
                .collect(),
            total: AtomicU64::new(cs.total()),
        }
    }

    /// Live `F_2` estimate: median over rows of the approximate Σc²
    /// accumulators. Each per-cell `fetch_add` returns the old value, so
    /// per-thread `new² − old²` deltas telescope exactly over the
    /// per-cell modification order; only the f64 fold order varies, so
    /// this tracks the exact value to rounding.
    fn f2_estimate(&self, scratch: &mut AtomicScratch) -> f64 {
        scratch.rows.clear();
        scratch.rows.extend(
            self.row_sumsq
                .iter()
                .map(|s| f64::from_bits(s.load(Ordering::Relaxed)).max(0.0) as u128),
        );
        median_u128_as_f64(&mut scratch.rows)
    }

    /// Quiesce to a plain sketch: relaxed-load the final grid and
    /// recompute the exact integer Σc² from it (the same derived-state
    /// recompute merge and decode already perform).
    fn to_plain(&self) -> CountSketch {
        CountSketch::from_parts(
            self.width,
            self.counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            self.bucket_hashes.clone(),
            self.sign_hashes.clone(),
            self.total.load(Ordering::Relaxed),
        )
    }
}

// ---------------------------------------------------------------------
// Heavy-hitter reporters over shared-atomic grids
// ---------------------------------------------------------------------

/// Shared-atomic [`CmHeavyHitters`]: the CountMin grid goes atomic; the
/// bounded candidate table stays behind a mutex taken once per admitted
/// batch, not per item. Admission under concurrency is racy — a thread's
/// post-update estimate may miss increments in flight on other threads —
/// but the reporter's recall argument survives: thresholds only grow,
/// admission errs toward *offering* (estimates lag at most the in-flight
/// window), and the final report threshold is evaluated against the
/// quiesced grid, which also restores exact precision filtering.
#[derive(Debug)]
pub struct AtomicCmHeavyHitters {
    cm: AtomicCountMin,
    tracker: Mutex<TopKTracker>,
    alpha: f64,
}

impl AtomicCmHeavyHitters {
    /// Lift a plain reporter into shared-atomic form.
    pub fn from_plain(hh: &CmHeavyHitters) -> Self {
        Self {
            cm: AtomicCountMin::from_plain(hh.sketch()),
            tracker: Mutex::new(hh.tracker().clone()),
            alpha: hh.alpha(),
        }
    }

    /// Ingest a batch: batch-hash every row, then an item-serial sweep
    /// of relaxed `fetch_add`s that tracks each item's post-update
    /// minimum for the admission check. Admitted candidates are queued
    /// in scratch and offered under one tracker lock per chunk.
    pub fn update_batch(&self, xs: &[u64], scratch: &mut AtomicScratch) {
        let w = self.cm.width;
        let d = self.cm.hashes.len();
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            reduce_inputs(chunk, &mut scratch.xr);
            scratch.idx.resize(d * len, 0);
            for (r, h) in self.cm.hashes.iter().enumerate() {
                h.hash_range_batch(&scratch.xr, w, &mut scratch.idx[r * len..(r + 1) * len]);
            }
            let base = self.cm.total.fetch_add(len as u64, Ordering::Relaxed);
            scratch.admit.clear();
            for (i, &x) in chunk.iter().enumerate() {
                let mut est = u64::MAX;
                for r in 0..d {
                    let old = self.cm.counters[r * w + scratch.idx[r * len + i]]
                        .fetch_add(1, Ordering::Relaxed);
                    est = est.min(old + 1);
                }
                let n_after = base + i as u64 + 1;
                if est as f64 >= self.alpha * n_after as f64 {
                    scratch.admit.push((x, est as f64));
                }
            }
            hand_over(&self.tracker, &scratch.admit);
        }
    }

    /// Quiesce to a plain reporter: convert the grid, then rebuild the
    /// candidate table against it ([`CmHeavyHitters`]'s quiesce step).
    pub fn to_plain(&self) -> CmHeavyHitters {
        CmHeavyHitters::quiesced(self.cm.to_plain(), &lock_tracker(&self.tracker), self.alpha)
    }
}

/// Shared-atomic [`CsHeavyHitters`]. The admission threshold `α·√F̂₂`
/// is refreshed once per chunk from the live atomic Σc² accumulators
/// rather than per item. Unlike CountMin's `α·n`, that threshold is not
/// monotone: an increment of sign `s` on a cell holding `c` changes its
/// row's Σc² by `2sc + 1`, which is negative when `sc < 0`, so `F̂₂` can
/// fall within a chunk. A chunk-stale threshold therefore usually sits
/// below the per-item one (the true `F₂` only grows) but can sit above it
/// and miss an admission the sequential path would make. Recall rests on
/// the sketch's `±ε√F₂` accuracy, and the report threshold is
/// re-evaluated on the quiesced sketch.
#[derive(Debug)]
pub struct AtomicCsHeavyHitters {
    cs: AtomicCountSketch,
    tracker: Mutex<TopKTracker>,
    alpha: f64,
}

impl AtomicCsHeavyHitters {
    /// Lift a plain reporter into shared-atomic form.
    pub fn from_plain(hh: &CsHeavyHitters) -> Self {
        Self {
            cs: AtomicCountSketch::from_plain(hh.sketch()),
            tracker: Mutex::new(hh.tracker().clone()),
            alpha: hh.alpha(),
        }
    }

    /// Ingest a batch: batch-hash buckets and signs for every row, then
    /// an item-serial sweep of relaxed `fetch_add`s that medians each
    /// item's post-update signed counters for the admission check. The
    /// median is at most the largest row value, so an item whose largest
    /// row value is below the threshold is rejected without it.
    pub fn update_batch(&self, xs: &[u64], scratch: &mut AtomicScratch) {
        let w = self.cs.width;
        let d = self.cs.bucket_hashes.len();
        for chunk in xs.chunks(BATCH_CHUNK) {
            let len = chunk.len();
            let threshold = self.alpha * self.cs.f2_estimate(scratch).sqrt();
            scratch.powers.reduce(chunk);
            scratch.idx.resize(d * len, 0);
            scratch.signs.resize(d * len, 0);
            for r in 0..d {
                self.cs.bucket_hashes[r].hash_range_batch(
                    scratch.powers.residues(),
                    w,
                    &mut scratch.idx[r * len..(r + 1) * len],
                );
                self.cs.sign_hashes[r]
                    .signs_batch(&scratch.powers, &mut scratch.signs[r * len..(r + 1) * len]);
            }
            scratch.dsq.clear();
            scratch.dsq.resize(d, 0);
            scratch.admit.clear();
            for (i, &x) in chunk.iter().enumerate() {
                scratch.vals.clear();
                let mut hi = i64::MIN;
                for r in 0..d {
                    let s = scratch.signs[r * len + i];
                    let old = self.cs.counters[r * w + scratch.idx[r * len + i]]
                        .fetch_add(s, Ordering::Relaxed);
                    let new = old + s;
                    scratch.dsq[r] += (new as i128) * (new as i128) - (old as i128) * (old as i128);
                    hi = hi.max(s * new);
                    scratch.vals.push(s * new);
                }
                if (hi as f64) < threshold {
                    continue;
                }
                let est = median_i64(&mut scratch.vals);
                if est as f64 >= threshold {
                    scratch.admit.push((x, est as f64));
                }
            }
            for r in 0..d {
                f64_fetch_add(
                    &self.cs.row_sumsq[r],
                    scratch.dsq[r] as f64,
                    &mut scratch.cas_retries,
                );
            }
            self.cs.total.fetch_add(len as u64, Ordering::Relaxed);
            hand_over(&self.tracker, &scratch.admit);
        }
    }

    /// Quiesce to a plain reporter (see [`AtomicCmHeavyHitters::to_plain`]).
    pub fn to_plain(&self) -> CsHeavyHitters {
        CsHeavyHitters::quiesced(self.cs.to_plain(), &lock_tracker(&self.tracker), self.alpha)
    }
}

/// Take the candidate-table lock, shrugging off poison: the table only
/// ever holds admission hints that the quiesce rebuild re-estimates, so
/// state from a panicked peer is still safe to read or extend.
fn lock_tracker(m: &Mutex<TopKTracker>) -> std::sync::MutexGuard<'_, TopKTracker> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Hand a chunk's admitted candidates to the shared table, in admission
/// order under one lock, through the plain reporters' batch step
/// ([`TopKTracker::admit`]).
fn hand_over(tracker: &Mutex<TopKTracker>, admitted: &[(u64, f64)]) {
    if !admitted.is_empty() {
        lock_tracker(tracker).admit(|a| admitted.iter().for_each(|&(x, est)| a.offer(x, est)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_codec::WireCodec;
    use sss_hash::{RngCore64, Xoshiro256pp};
    use std::sync::Arc;

    fn stream(n: u64, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                if rng.next_bool(0.3) {
                    rng.next_below(8)
                } else {
                    8 + rng.next_below(20_000)
                }
            })
            .collect()
    }

    fn encode<T: WireCodec>(t: &T) -> Vec<u8> {
        let mut out = Vec::new();
        t.encode_into(&mut out);
        out
    }

    #[test]
    fn countmin_single_thread_roundtrip_is_bitwise() {
        let xs = stream(20_000, 1);
        let mut plain = CmHeavyHitters::new(0.1, 0.01, 0.01, 2);
        plain.update_batch(&xs);
        let atomic = AtomicCmHeavyHitters::from_plain(&CmHeavyHitters::new(0.1, 0.01, 0.01, 2));
        let mut scratch = AtomicScratch::new();
        atomic.update_batch(&xs, &mut scratch);
        assert_eq!(encode(plain.sketch()), encode(atomic.to_plain().sketch()));
    }

    #[test]
    fn countsketch_single_thread_roundtrip_is_bitwise() {
        let xs = stream(20_000, 3);
        let mut plain = CsHeavyHitters::new(0.5, 0.05, 0.01, 4);
        plain.update_batch(&xs);
        let atomic = AtomicCsHeavyHitters::from_plain(&CsHeavyHitters::new(0.5, 0.05, 0.01, 4));
        let mut scratch = AtomicScratch::new();
        atomic.update_batch(&xs, &mut scratch);
        let quiesced = atomic.to_plain();
        assert_eq!(encode(plain.sketch()), encode(quiesced.sketch()));
        // The quiesced Σc² is the exact recompute, not the f64 track.
        assert_eq!(
            plain.sketch().f2_estimate().to_bits(),
            quiesced.sketch().f2_estimate().to_bits()
        );
    }

    /// The grids are reached only through the heavy-hitter wrappers, so
    /// the wrappers' sweeps are what must commute.
    #[test]
    fn multithreaded_grids_quiesce_to_sequential_state() {
        let xs = stream(40_000, 7);
        let cm_proto = CmHeavyHitters::new(0.1, 0.01, 0.01, 8);
        let cs_proto = CsHeavyHitters::new(0.5, 0.05, 0.01, 9);
        let mut seq_cm = cm_proto.clone();
        seq_cm.update_batch(&xs);
        let mut seq_cs = cs_proto.clone();
        seq_cs.update_batch(&xs);

        let cm = Arc::new(AtomicCmHeavyHitters::from_plain(&cm_proto));
        let cs = Arc::new(AtomicCsHeavyHitters::from_plain(&cs_proto));
        let threads = 4;
        let slices: Vec<Vec<u64>> = xs
            .chunks(xs.len().div_ceil(threads))
            .map(<[u64]>::to_vec)
            .collect();
        let handles: Vec<_> = slices
            .into_iter()
            .map(|slice| {
                let (cm, cs) = (Arc::clone(&cm), Arc::clone(&cs));
                std::thread::spawn(move || {
                    let mut scratch = AtomicScratch::new();
                    cm.update_batch(&slice, &mut scratch);
                    cs.update_batch(&slice, &mut scratch);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // Integer adds commute: any interleaving quiesces to the
        // sequential grids bit for bit.
        assert_eq!(encode(seq_cm.sketch()), encode(cm.to_plain().sketch()));
        assert_eq!(encode(seq_cs.sketch()), encode(cs.to_plain().sketch()));
    }

    #[test]
    fn cm_hh_single_thread_matches_plain_reporter() {
        let mut xs = stream(30_000, 11);
        xs.extend(std::iter::repeat_n(3u64, 8000));
        let mut plain = CmHeavyHitters::new(0.1, 0.01, 0.01, 12);
        plain.update_batch(&xs);
        let atomic = AtomicCmHeavyHitters::from_plain(&CmHeavyHitters::new(0.1, 0.01, 0.01, 12));
        let mut scratch = AtomicScratch::new();
        atomic.update_batch(&xs, &mut scratch);
        assert_eq!(plain.report(), atomic.to_plain().report());
    }

    #[test]
    fn cs_hh_concurrent_finds_the_elephant() {
        let mut xs: Vec<u64> = (1_000_000..1_080_000u64).collect();
        xs.extend(std::iter::repeat_n(42u64, 3000));
        let mut rng = Xoshiro256pp::new(13);
        for i in (1..xs.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
        let hh = Arc::new(AtomicCsHeavyHitters::from_plain(&CsHeavyHitters::new(
            0.5, 0.05, 0.01, 14,
        )));
        let handles: Vec<_> = xs
            .chunks(xs.len().div_ceil(4))
            .map(<[u64]>::to_vec)
            .map(|slice| {
                let hh = Arc::clone(&hh);
                std::thread::spawn(move || {
                    let mut scratch = AtomicScratch::new();
                    hh.update_batch(&slice, &mut scratch);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = hh.to_plain().report();
        assert_eq!(report.first().map(|&(i, _)| i), Some(42));
    }

    #[test]
    fn cas_retry_counter_drains() {
        let cs = AtomicCsHeavyHitters::from_plain(&CsHeavyHitters::new(0.5, 0.2, 0.1, 15));
        let mut scratch = AtomicScratch::new();
        cs.update_batch(&stream(5000, 16), &mut scratch);
        // Single-threaded: the CAS loop never loses a race.
        assert_eq!(scratch.take_cas_retries(), 0);
        assert_eq!(scratch.take_cas_retries(), 0);
    }
}
