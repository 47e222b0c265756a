//! Candidate tracking: turning point-query sketches into heavy-hitter
//! *reporters*.
//!
//! A CountMin/CountSketch answers "how often did `x` appear?" but Theorems
//! 6 and 7 need the set `S` of `O(1/α)` heavy items. On insert-only streams
//! the standard construction tracks candidates online: after updating item
//! `x`, re-estimate it; if the estimate crosses the current threshold, admit
//! it to a bounded candidate table. At query time candidates are
//! re-estimated and filtered against the final threshold. Any item above
//! the *final* threshold must have crossed every intermediate threshold at
//! its last arrival (thresholds only grow), so recall is preserved.

use sss_codec::{put_packed_sorted_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{fp_hash_map, FpHashMap};

use crate::countmin::CountMin;
use crate::countsketch::CountSketch;
use crate::Mismatch;

/// Reporting fractions agree: equal up to float noise from deriving `α`
/// from shard rates that differ in the last ulp. NaN never agrees.
fn same_alpha(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-15
}

/// `x`'s CountSketch estimate when positive: candidates whose estimate
/// collapses to ≤ 0 leave the table on re-offer.
pub(crate) fn positive_estimate(cs: &CountSketch, x: u64) -> Option<f64> {
    let est = cs.query(x);
    (est > 0).then_some(est as f64)
}

/// A bounded table of candidate heavy hitters keyed by estimated frequency.
#[derive(Debug, Clone)]
pub struct TopKTracker {
    cap: usize,
    est: FpHashMap<u64, f64>,
}

impl TopKTracker {
    /// Tracker retaining roughly the top `cap` candidates.
    pub fn new(cap: usize) -> Self {
        assert!(cap >= 1, "capacity must be positive");
        Self {
            cap,
            est: fp_hash_map(),
        }
    }

    /// Insert or refresh a candidate with its current estimate. The table
    /// lazily prunes to the top `cap` whenever it doubles.
    pub fn offer(&mut self, item: u64, estimate: f64) {
        let _ = self.offer_pruned(item, estimate);
    }

    /// [`Self::offer`], reporting whether the insert triggered a prune —
    /// the signal the batch paths' offer coalescer needs to invalidate
    /// its membership cache.
    pub(crate) fn offer_pruned(&mut self, item: u64, estimate: f64) -> bool {
        self.est.insert(item, estimate);
        if self.est.len() >= 2 * self.cap {
            self.prune();
            true
        } else {
            false
        }
    }

    fn prune(&mut self) {
        let mut v: Vec<(u64, f64)> = self.est.iter().map(|(&i, &e)| (i, e)).collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        v.truncate(self.cap);
        self.est = v.into_iter().collect();
    }

    /// All current candidates (unpruned view), in ascending item order.
    ///
    /// The order is deliberately canonical, not the hash map's: merge
    /// paths re-offer candidate unions and can prune mid-union, so an
    /// order that depended on map history would make a deserialized
    /// tracker (same contents, different insertion history) diverge from
    /// the original on the next merge — breaking the wire contract that
    /// `decode(encode(x))` behaves identically.
    pub fn candidates(&self) -> impl Iterator<Item = u64> {
        let mut v: Vec<u64> = self.est.keys().copied().collect();
        v.sort_unstable();
        v.into_iter()
    }

    /// Re-offer the candidate union — own candidates ascending, then
    /// `other`'s ascending — at the estimates `est` gives against the
    /// merged (or quiesced) sketch; `None` skips an item. Stored estimates
    /// are stale shard-sized values, and leaving them would let capacity
    /// pruning evict a union-heavy item.
    pub(crate) fn reoffer_union(&mut self, other: &TopKTracker, est: impl Fn(u64) -> Option<f64>) {
        let union: Vec<u64> = self.candidates().chain(other.candidates()).collect();
        for item in union {
            if let Some(e) = est(item) {
                self.offer(item, e);
            }
        }
    }

    /// The pruning capacity (used by the atomic quiesce rebuild).
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Whether `other`'s candidates can be re-offered into `self`: same
    /// pruning capacity.
    pub fn check_merge(&self, other: &TopKTracker) -> Result<(), Mismatch> {
        Mismatch::unless(self.cap == other.cap, "TopKTracker capacity")
    }

    /// Number of tracked candidates.
    pub fn len(&self) -> usize {
        self.est.len()
    }

    /// Whether no candidates are tracked.
    pub fn is_empty(&self) -> bool {
        self.est.is_empty()
    }
}

/// Batch-path write coalescer for [`TopKTracker`]: defers repeated offers
/// of items known to be in the table.
///
/// Correctness relies on two facts about the tracker. Offers of an
/// already-present item never change the table's size, so they can never
/// trigger a prune — between prunes only the *latest* estimate per item is
/// observable. And prunes are only triggered by offers of new items, which
/// this coalescer always forwards immediately (after flushing pending
/// values, so the table at prune time is exactly what the per-item path
/// would have seen). A prune evicts arbitrary items, so it clears the
/// membership cache. Net effect: identical tracker state to per-item
/// offers, with the hot repeated admissions costing an 8-entry linear
/// scan instead of a hash-map insert.
struct OfferCoalescer {
    items: [u64; 8],
    ests: [f64; 8],
    dirty: [bool; 8],
    len: usize,
}

impl OfferCoalescer {
    fn new() -> Self {
        Self {
            items: [0; 8],
            ests: [0.0; 8],
            dirty: [false; 8],
            len: 0,
        }
    }

    #[inline]
    fn offer(&mut self, tracker: &mut TopKTracker, x: u64, est: f64) {
        for j in 0..self.len {
            if self.items[j] == x {
                self.ests[j] = est;
                self.dirty[j] = true;
                return;
            }
        }
        // Unknown membership: materialize pending writes so the table is
        // in per-item-path state, then forward this offer for real.
        self.flush(tracker);
        if tracker.offer_pruned(x, est) {
            self.len = 0;
        } else if self.len < self.items.len() {
            self.items[self.len] = x;
            self.ests[self.len] = est;
            self.dirty[self.len] = false;
            self.len += 1;
        }
    }

    #[inline]
    fn flush(&mut self, tracker: &mut TopKTracker) {
        for j in 0..self.len {
            if self.dirty[j] {
                // Present item: no size change, so never a prune.
                tracker.offer(self.items[j], self.ests[j]);
                self.dirty[j] = false;
            }
        }
    }
}

/// CountMin-backed `F_1` heavy-hitter reporter: report every item whose
/// estimated frequency is at least `α·n`, with per-item `(1 ± ε·F_1/f)`
/// frequency estimates.
#[derive(Debug, Clone)]
pub struct CmHeavyHitters {
    cm: CountMin,
    tracker: TopKTracker,
    alpha: f64,
}

impl CmHeavyHitters {
    /// Reporter for the threshold `α·F_1` using a CountMin with point-query
    /// error `eps·F_1` and failure probability `delta`.
    pub fn new(alpha: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        let cap = (4.0 / alpha).ceil() as usize;
        Self {
            cm: CountMin::with_error(eps, delta, seed),
            tracker: TopKTracker::new(cap),
            alpha,
        }
    }

    /// The reporting fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The backing sketch (shared with the atomic variant).
    pub(crate) fn cm(&self) -> &CountMin {
        &self.cm
    }

    /// The candidate table.
    pub(crate) fn tracker(&self) -> &TopKTracker {
        &self.tracker
    }

    /// Reassemble a reporter from raw parts — the atomic variant's
    /// quiesce path.
    pub(crate) fn from_parts(cm: CountMin, tracker: TopKTracker, alpha: f64) -> Self {
        Self { cm, tracker, alpha }
    }

    /// Stream length ingested.
    pub fn n(&self) -> u64 {
        self.cm.total()
    }

    /// Space in 64-bit words (sketch + candidate table).
    pub fn space_words(&self) -> usize {
        self.cm.space_words() + 2 * self.tracker.len()
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        self.cm.update(x, 1);
        let est = self.cm.query(x);
        if (est as f64) >= self.alpha * self.cm.total() as f64 {
            self.tracker.offer(x, est as f64);
        }
    }

    /// Ingest a batch of occurrences — same candidate admissions, bit for
    /// bit, as the per-item path. The sketch's fused batch kernel hashes
    /// every item once and streams each item's post-update estimate through
    /// the admission check inline; the threshold replays the per-item
    /// stream length, so offers happen in the same order at the same
    /// values.
    pub fn update_batch(&mut self, xs: &[u64]) {
        let Self { cm, tracker, alpha } = self;
        let alpha = *alpha;
        let mut pending = OfferCoalescer::new();
        cm.update_batch_fold(xs, |x, n_after, est| {
            if (est as f64) >= alpha * n_after as f64 {
                pending.offer(tracker, x, est as f64);
            }
        });
        pending.flush(tracker);
    }

    /// Whether `other` can merge into `self`: same `α`, CountMin and
    /// tracker capacity.
    pub fn check_merge(&self, other: &CmHeavyHitters) -> Result<(), Mismatch> {
        Mismatch::unless(same_alpha(self.alpha, other.alpha), "CmHeavyHitters alpha")?;
        self.cm.check_merge(&other.cm)?;
        self.tracker.check_merge(&other.tracker)
    }

    /// Merge another reporter with the same parameters and sketch seed:
    /// counter-wise CountMin merge, then *both* sides' candidates
    /// re-offered at their post-merge estimates: stale shard-sized
    /// estimates would let capacity pruning evict a union-heavy item.
    ///
    /// # Panics
    /// When [`CmHeavyHitters::check_merge`] fails.
    pub fn merge(&mut self, other: &CmHeavyHitters) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.cm.merge(&other.cm);
        self.tracker
            .reoffer_union(&other.tracker, |item| Some(self.cm.query(item) as f64));
    }

    /// Report `(item, estimated frequency)` for every candidate whose final
    /// estimate is at least `α·n`, sorted by decreasing estimate.
    pub fn report(&self) -> Vec<(u64, u64)> {
        let threshold = self.alpha * self.cm.total() as f64;
        let mut out: Vec<(u64, u64)> = self
            .tracker
            .candidates()
            .map(|i| (i, self.cm.query(i)))
            .filter(|&(_, e)| e as f64 >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

/// CountSketch-backed `F_2` heavy-hitter reporter: report every item whose
/// estimated frequency is at least `α·√F̂_2`.
#[derive(Debug, Clone)]
pub struct CsHeavyHitters {
    cs: CountSketch,
    tracker: TopKTracker,
    alpha: f64,
    /// Reusable buffers of post-update estimates and `F_2` snapshots from
    /// the batched sketch kernel; working memory only (excluded from the
    /// wire codec).
    ests: Vec<i64>,
    f2s: Vec<f64>,
}

impl CsHeavyHitters {
    /// Reporter for the threshold `α·√F_2` using a CountSketch with
    /// point-query error `eps·√F_2` and failure probability `delta`.
    pub fn new(alpha: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        // At most 1/α² items can be α-heavy in F_2; keep slack.
        let cap = (4.0 / (alpha * alpha)).ceil().min(1e6) as usize;
        Self {
            cs: CountSketch::with_error(eps, delta, seed),
            tracker: TopKTracker::new(cap),
            alpha,
            ests: Vec::new(),
            f2s: Vec::new(),
        }
    }

    /// The reporting fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The backing sketch (shared with the atomic variant).
    pub(crate) fn cs(&self) -> &CountSketch {
        &self.cs
    }

    /// The candidate table.
    pub(crate) fn tracker(&self) -> &TopKTracker {
        &self.tracker
    }

    /// Reassemble a reporter from raw parts — the atomic variant's
    /// quiesce path.
    pub(crate) fn from_parts(cs: CountSketch, tracker: TopKTracker, alpha: f64) -> Self {
        Self {
            cs,
            tracker,
            alpha,
            ests: Vec::new(),
            f2s: Vec::new(),
        }
    }

    /// Stream length ingested.
    pub fn n(&self) -> u64 {
        self.cs.total()
    }

    /// Current `√F̂_2` threshold base.
    pub fn f2_sqrt(&self) -> f64 {
        self.cs.f2_estimate().sqrt()
    }

    /// Space in 64-bit words.
    pub fn space_words(&self) -> usize {
        self.cs.space_words() + 2 * self.tracker.len()
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        self.cs.update(x, 1);
        let est = self.cs.query(x);
        if est as f64 >= self.alpha * self.f2_sqrt() {
            self.tracker.offer(x, est as f64);
        }
    }

    /// Ingest a batch of occurrences — same admissions, bit for bit, as
    /// the per-item path. The fused sketch kernel batches the hashing and
    /// reuses a scratch median for the per-item `F_2` threshold (the
    /// scalar path's per-item clone-and-sort was this reporter's dominant
    /// cost).
    pub fn update_batch(&mut self, xs: &[u64]) {
        let mut ests = std::mem::take(&mut self.ests);
        let mut f2s = std::mem::take(&mut self.f2s);
        self.cs.update_batch_admit(xs, &mut ests, &mut f2s);
        let mut pending = OfferCoalescer::new();
        for ((&x, &est), &f2) in xs.iter().zip(ests.iter()).zip(f2s.iter()) {
            if est as f64 >= self.alpha * f2.sqrt() {
                pending.offer(&mut self.tracker, x, est as f64);
            }
        }
        pending.flush(&mut self.tracker);
        self.ests = ests;
        self.f2s = f2s;
    }

    /// Whether `other` can merge into `self`: same `α`, CountSketch and
    /// tracker capacity.
    pub fn check_merge(&self, other: &CsHeavyHitters) -> Result<(), Mismatch> {
        Mismatch::unless(same_alpha(self.alpha, other.alpha), "CsHeavyHitters alpha")?;
        self.cs.check_merge(&other.cs)?;
        self.tracker.check_merge(&other.tracker)
    }

    /// Merge another reporter with the same parameters and sketch seed.
    /// Both sides' candidates are re-offered at their post-merge
    /// estimates (see [`CmHeavyHitters::merge`]).
    ///
    /// # Panics
    /// When [`CsHeavyHitters::check_merge`] fails.
    pub fn merge(&mut self, other: &CsHeavyHitters) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.cs.merge(&other.cs);
        self.tracker
            .reoffer_union(&other.tracker, |item| positive_estimate(&self.cs, item));
    }

    /// Report `(item, estimated frequency)` for candidates above the final
    /// `α·√F̂_2` threshold, sorted by decreasing estimate.
    pub fn report(&self) -> Vec<(u64, u64)> {
        let threshold = self.alpha * self.f2_sqrt();
        let mut out: Vec<(u64, u64)> = self
            .tracker
            .candidates()
            .map(|i| (i, self.cs.query(i).max(0) as u64))
            .filter(|&(_, e)| e as f64 >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }
}

impl WireCodec for TopKTracker {
    const WIRE_TAG: u16 = 0x0208;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: sorted-delta-packed candidate ids, then their
        // estimates as raw IEEE-754 bit patterns (floats do not pack).
        put_varint_u64(out, self.cap as u64);
        let mut rows: Vec<(u64, f64)> = self.est.iter().map(|(&i, &e)| (i, e)).collect();
        rows.sort_unstable_by_key(|&(i, _)| i);
        let items: Vec<u64> = rows.iter().map(|&(i, _)| i).collect();
        put_packed_sorted_u64s(out, &items);
        for &(_, e) in &rows {
            e.encode_into(out);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let (cap, items, ests);
        if r.v2() {
            cap = r.varint_u64()? as usize;
            if cap == 0 {
                return Err(CodecError::Invalid {
                    what: "TopKTracker capacity == 0",
                });
            }
            items = r.packed_sorted_u64s()?;
            let mut es = Vec::with_capacity(items.len());
            for _ in 0..items.len() {
                es.push(r.f64()?);
            }
            ests = es;
        } else {
            cap = usize::decode(r)?;
            if cap == 0 {
                return Err(CodecError::Invalid {
                    what: "TopKTracker capacity == 0",
                });
            }
            let len = r.len_prefix(16)?;
            let mut is = Vec::with_capacity(len);
            let mut es = Vec::with_capacity(len);
            for _ in 0..len {
                is.push(r.u64()?);
                es.push(r.f64()?);
            }
            items = is;
            ests = es;
        }
        if items.len() >= cap.saturating_mul(2) {
            return Err(CodecError::Invalid {
                what: "TopKTracker exceeds its pruning bound",
            });
        }
        let mut est = fp_hash_map();
        for (item, e) in items.into_iter().zip(ests) {
            if est.insert(item, e).is_some() {
                return Err(CodecError::Invalid {
                    what: "TopKTracker duplicate item",
                });
            }
        }
        Ok(TopKTracker { cap, est })
    }
}

/// Shared payload shape of the sketch-backed heavy-hitter reporters:
/// `alpha ‖ sketch ‖ tracker`.
fn decode_alpha(r: &mut Reader) -> Result<f64, CodecError> {
    r.prob_open()
}

impl WireCodec for CmHeavyHitters {
    const WIRE_TAG: u16 = 0x0209;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.alpha.encode_into(out);
        self.cm.encode_into(out);
        self.tracker.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let alpha = decode_alpha(r)?;
        let cm = CountMin::decode(r)?;
        let tracker = TopKTracker::decode(r)?;
        Ok(CmHeavyHitters { cm, tracker, alpha })
    }
}

impl WireCodec for CsHeavyHitters {
    const WIRE_TAG: u16 = 0x020B;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.alpha.encode_into(out);
        self.cs.encode_into(out);
        self.tracker.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let alpha = decode_alpha(r)?;
        let cs = CountSketch::decode(r)?;
        let tracker = TopKTracker::decode(r)?;
        Ok(CsHeavyHitters {
            cs,
            tracker,
            alpha,
            ests: Vec::new(),
            f2s: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    fn planted_stream(n: u64, heavies: &[u64], share: f64, seed: u64) -> Vec<u64> {
        let mut rng = Xoshiro256pp::new(seed);
        (0..n)
            .map(|_| {
                if rng.next_bool(share) {
                    heavies[rng.next_below(heavies.len() as u64) as usize]
                } else {
                    1_000_000 + rng.next_below(500_000)
                }
            })
            .collect()
    }

    #[test]
    fn tracker_keeps_top_items() {
        let mut t = TopKTracker::new(3);
        for i in 0..100u64 {
            t.offer(i, i as f64);
        }
        let kept: Vec<u64> = t.candidates().collect();
        // After pruning, the heaviest recent items must survive.
        assert!(kept.contains(&99));
        assert!(kept.len() < 10);
    }

    #[test]
    fn cm_hh_finds_planted_heavies_no_false_positives() {
        let heavies = [3u64, 17, 99];
        let stream = planted_stream(200_000, &heavies, 0.6, 1);
        let mut hh = CmHeavyHitters::new(0.1, 0.01, 0.01, 2);
        for &x in &stream {
            hh.update(x);
        }
        let report = hh.report();
        let found: Vec<u64> = report.iter().map(|&(i, _)| i).collect();
        for &h in &heavies {
            assert!(found.contains(&h), "missing heavy {h}");
        }
        // Background items have share ≈ 0.4/500k each — far below α − ε.
        for &(i, _) in &report {
            assert!(heavies.contains(&i), "false positive {i}");
        }
    }

    #[test]
    fn cm_hh_estimates_are_close() {
        let heavies = [5u64];
        let stream = planted_stream(100_000, &heavies, 0.5, 3);
        let truth = stream.iter().filter(|&&x| x == 5).count() as f64;
        let mut hh = CmHeavyHitters::new(0.2, 0.005, 0.01, 4);
        for &x in &stream {
            hh.update(x);
        }
        let report = hh.report();
        assert_eq!(report[0].0, 5);
        let est = report[0].1 as f64;
        assert!(
            (est - truth).abs() / truth < 0.02,
            "est {est} truth {truth}"
        );
    }

    #[test]
    fn cs_hh_finds_f2_heavies() {
        // One item with f ≈ 3000 over n=100k background singletons:
        // F_2 ≈ 9e6 + 1e5 ⇒ √F_2 ≈ 3017, so the item is α-heavy for α=0.5
        // while every background item (f=1) is hopeless.
        let mut stream: Vec<u64> = (1_000_000..1_100_000u64).collect();
        stream.extend(std::iter::repeat_n(42u64, 3000));
        // Deterministic shuffle.
        let mut rng = Xoshiro256pp::new(5);
        for i in (1..stream.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            stream.swap(i, j);
        }
        let mut hh = CsHeavyHitters::new(0.5, 0.05, 0.01, 6);
        for &x in &stream {
            hh.update(x);
        }
        let report = hh.report();
        assert!(!report.is_empty(), "no heavy hitter found");
        assert_eq!(report[0].0, 42);
        let est = report[0].1 as f64;
        assert!((est - 3000.0).abs() / 3000.0 < 0.1, "est = {est}");
        for &(i, _) in &report {
            assert_eq!(i, 42, "false positive {i}");
        }
    }

    // Batch-vs-scalar equivalence of the heavy-hitter reporters
    // (including coalesced tracker offers) is pinned by the shared
    // battery in tests/batch_equiv.rs (crate::equiv harness).

    #[test]
    fn cs_hh_batch_finds_the_elephant() {
        let mut stream: Vec<u64> = (1_000_000..1_080_000u64).collect();
        stream.extend(std::iter::repeat_n(42u64, 3000));
        let mut rng = Xoshiro256pp::new(13);
        for i in (1..stream.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            stream.swap(i, j);
        }
        let mut bat = CsHeavyHitters::new(0.5, 0.05, 0.01, 14);
        for chunk in stream.chunks(4096) {
            bat.update_batch(chunk);
        }
        let report = bat.report();
        assert_eq!(report.first().map(|&(i, _)| i), Some(42));
    }

    #[test]
    fn hh_merge_equals_concatenation() {
        let heavies = [5u64, 23];
        let left = planted_stream(80_000, &heavies, 0.5, 15);
        let right = planted_stream(80_000, &heavies, 0.5, 16);
        // CountMin-backed: linear merge ⇒ identical to the whole-stream run.
        let mut a = CmHeavyHitters::new(0.1, 0.01, 0.01, 17);
        let mut b = CmHeavyHitters::new(0.1, 0.01, 0.01, 17);
        let mut whole = CmHeavyHitters::new(0.1, 0.01, 0.01, 17);
        for &x in &left {
            a.update(x);
            whole.update(x);
        }
        for &x in &right {
            b.update(x);
            whole.update(x);
        }
        a.merge(&b);
        assert_eq!(a.n(), whole.n());
        assert_eq!(a.report(), whole.report());
    }

    #[test]
    fn empty_reporters_report_nothing() {
        let hh = CmHeavyHitters::new(0.1, 0.1, 0.1, 7);
        assert!(hh.report().is_empty());
        let hh = CsHeavyHitters::new(0.1, 0.1, 0.1, 8);
        assert!(hh.report().is_empty());
    }
}
