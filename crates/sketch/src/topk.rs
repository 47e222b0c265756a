//! Candidate tracking: turning point-query sketches into heavy-hitter
//! *reporters*.
//!
//! A CountMin/CountSketch answers "how often did `x` appear?" but Theorems
//! 6 and 7 need the set `S` of `O(1/α)` heavy items. On insert-only streams
//! the standard construction tracks candidates online: after updating item
//! `x`, re-estimate it; if the estimate crosses the current threshold, admit
//! it to a bounded candidate table. At query time candidates are
//! re-estimated and filtered against the final threshold.
//!
//! That construction is written once, as [`HeavyHitters<S>`], generic over
//! its [`PointSketch`]. The sketch's impl carries what differs between the
//! theorems: sizing, tracker capacity, the threshold (`α·n` for CountMin,
//! `α·√F̂₂` for CountSketch), the batch admission kernel, and the estimates
//! a merge re-offers and a report returns. Each impl's doc says why its
//! threshold preserves recall. [`CmHeavyHitters`] and [`CsHeavyHitters`]
//! name the two instantiations.

use sss_codec::{put_packed_sorted_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{fp_hash_map, FpHashMap};

use crate::countmin::CountMin;
use crate::countsketch::CountSketch;
use crate::Mismatch;

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
    /// lazily prunes to the top `cap` whenever it doubles; returns whether
    /// this insert pruned it.
    pub fn offer(&mut self, item: u64, estimate: f64) -> bool {
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

    /// Hand a batch's admitted candidates to the table: `feed` calls
    /// [`Admissions::offer`] once per admission, in admission order. The
    /// table ends bit for bit as one [`Self::offer`] per admission would
    /// leave it. The batch paths of [`HeavyHitters`] and of the atomic
    /// reporters both go through here.
    pub(crate) fn admit(&mut self, feed: impl FnOnce(&mut Admissions<'_>)) {
        let mut pending = Admissions {
            tracker: self,
            items: [0; 8],
            ests: [0.0; 8],
            dirty: [false; 8],
            len: 0,
        };
        feed(&mut pending);
        pending.flush();
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

    /// Re-estimate the candidate union — own candidates ascending, then
    /// `other`'s ascending — against the merged (or quiesced) sketch:
    /// each is offered at `est(item)`, and one whose `est` is `None`
    /// leaves the table. Stored estimates are stale shard-sized values;
    /// keeping them would let capacity pruning evict a union-heavy item,
    /// or a candidate whose merged estimate collapsed outlive a real one.
    /// Merge, the atomic quiesce and the level sets' merge all re-offer
    /// through here.
    pub(crate) fn reoffer_union(&mut self, other: &TopKTracker, est: impl Fn(u64) -> Option<f64>) {
        let union: Vec<u64> = self.candidates().chain(other.candidates()).collect();
        for item in union {
            if let Some(e) = est(item) {
                self.offer(item, e);
            } else {
                self.est.remove(&item);
            }
        }
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

/// Batch-path write coalescer for [`TopKTracker`] (see
/// [`TopKTracker::admit`]): defers repeated offers of items known to be in
/// the table.
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
pub(crate) struct Admissions<'a> {
    tracker: &'a mut TopKTracker,
    items: [u64; 8],
    ests: [f64; 8],
    dirty: [bool; 8],
    len: usize,
}

impl Admissions<'_> {
    /// Offer admitted candidate `x` at estimate `est`.
    #[inline]
    pub(crate) fn offer(&mut self, x: u64, est: f64) {
        for j in 0..self.len {
            if self.items[j] == x {
                self.ests[j] = est;
                self.dirty[j] = true;
                return;
            }
        }
        // Unknown membership: materialize pending writes so the table is
        // in per-item-path state, then forward this offer for real.
        self.flush();
        if self.tracker.offer(x, est) {
            self.len = 0;
        } else if self.len < self.items.len() {
            self.items[self.len] = x;
            self.ests[self.len] = est;
            self.dirty[self.len] = false;
            self.len += 1;
        }
    }

    #[inline]
    fn flush(&mut self) {
        for j in 0..self.len {
            if self.dirty[j] {
                // Present item: no size change, so never a prune.
                self.tracker.offer(self.items[j], self.ests[j]);
                self.dirty[j] = false;
            }
        }
    }
}

/// A point-query sketch that [`HeavyHitters`] turns into a reporter: what
/// differs between Theorem 6's CountMin and Theorem 7's CountSketch.
pub trait PointSketch: Clone + std::fmt::Debug + WireCodec {
    /// The `k` of the threshold's norm: the reporter returns items whose
    /// frequency is at least `α·F_k^{1/k}` (1 for CountMin, 2 for
    /// CountSketch).
    const MOMENT: u32;

    /// Sketch whose point queries err by at most `eps·F_k^{1/k}` with
    /// failure probability `delta`.
    fn with_point_error(eps: f64, delta: f64, seed: u64) -> Self;

    /// Candidate-table capacity for reporting fraction `alpha`.
    fn tracker_capacity(alpha: f64) -> usize;

    /// Stream length ingested.
    fn total(&self) -> u64;

    /// Space in 64-bit words.
    fn space_words(&self) -> usize;

    /// The admission and report threshold `α·F̂_k^{1/k}` as it stands.
    fn threshold(&self, alpha: f64) -> f64;

    /// Add one occurrence of `x`; its post-update point estimate.
    fn update_estimate(&mut self, x: u64) -> f64;

    /// The batch admission kernel: one occurrence of each of `xs`, and
    /// `sink(x, est)` in stream order for every item whose post-update
    /// estimate reaches `threshold(alpha)` as it stands after that item —
    /// the same admissions, bit for bit, as [`Self::update_estimate`] per
    /// item.
    fn update_batch_admit(&mut self, xs: &[u64], alpha: f64, sink: impl FnMut(u64, f64));

    /// `x`'s estimate when a merge or quiesce re-offers it; `None` takes
    /// it out of the candidate table.
    fn reoffer_estimate(&self, x: u64) -> Option<f64>;

    /// `x`'s reported frequency.
    fn reported(&self, x: u64) -> u64;

    /// Whether `other` can merge into `self` (the sketch's own check).
    fn check_merge(&self, other: &Self) -> Result<(), Mismatch>;

    /// Merge a sketch that passed [`Self::check_merge`].
    fn merge(&mut self, other: &Self);
}

/// Heavy-hitter reporter over the point-query sketch `S`: report every
/// item whose estimated frequency is at least `S::threshold(α)`, with the
/// sketch's point estimates as frequencies.
#[derive(Debug, Clone)]
pub struct HeavyHitters<S> {
    sketch: S,
    tracker: TopKTracker,
    alpha: f64,
}

/// CountMin-backed `F_1` heavy-hitter reporter: every item whose estimated
/// frequency is at least `α·n`, with per-item `(1 ± ε·F_1/f)` estimates.
pub type CmHeavyHitters = HeavyHitters<CountMin>;

/// CountSketch-backed `F_2` heavy-hitter reporter: every item whose
/// estimated frequency is at least `α·√F̂_2`.
pub type CsHeavyHitters = HeavyHitters<CountSketch>;

impl<S: PointSketch> HeavyHitters<S> {
    /// Reporter for the threshold `α·F_k^{1/k}` using a sketch with point
    /// error `eps·F_k^{1/k}` and failure probability `delta`.
    pub fn new(alpha: f64, eps: f64, delta: f64, seed: u64) -> Self {
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must be in (0,1)");
        Self {
            sketch: S::with_point_error(eps, delta, seed),
            tracker: TopKTracker::new(S::tracker_capacity(alpha)),
            alpha,
        }
    }

    /// Reassemble a reporter around a quiesced sketch, rebuilding the
    /// candidate table by re-offering `candidates` against it (the atomic
    /// reporters' quiesce step): stale mid-race estimates cannot survive
    /// into reports.
    pub(crate) fn quiesced(sketch: S, candidates: &TopKTracker, alpha: f64) -> Self {
        let mut tracker = TopKTracker::new(candidates.cap);
        tracker.reoffer_union(candidates, |item| sketch.reoffer_estimate(item));
        Self {
            sketch,
            tracker,
            alpha,
        }
    }

    /// The reporting fraction `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// The backing sketch (shared with the atomic variants).
    pub(crate) fn sketch(&self) -> &S {
        &self.sketch
    }

    /// The candidate table.
    pub(crate) fn tracker(&self) -> &TopKTracker {
        &self.tracker
    }

    /// Stream length ingested.
    pub fn n(&self) -> u64 {
        self.sketch.total()
    }

    /// Space in 64-bit words (sketch + candidate table).
    pub fn space_words(&self) -> usize {
        self.sketch.space_words() + 2 * self.tracker.len()
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        let est = self.sketch.update_estimate(x);
        if est >= self.sketch.threshold(self.alpha) {
            self.tracker.offer(x, est);
        }
    }

    /// Ingest a batch of occurrences — same candidate admissions, bit for
    /// bit, as the per-item path: the sketch's admission kernel
    /// ([`PointSketch::update_batch_admit`]) admits in stream order, so
    /// offers happen in the same order at the same values.
    pub fn update_batch(&mut self, xs: &[u64]) {
        let Self {
            sketch,
            tracker,
            alpha,
        } = self;
        tracker.admit(|admitted| {
            sketch.update_batch_admit(xs, *alpha, |x, est| admitted.offer(x, est))
        });
    }

    /// Whether `other` can merge into `self`: same `α` (up to float noise
    /// from deriving it from shard rates that differ in the last ulp; NaN
    /// never agrees), sketch and tracker capacity.
    pub fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        let same_alpha = (self.alpha - other.alpha).abs() < 1e-15;
        Mismatch::unless(same_alpha, "HeavyHitters alpha")?;
        self.sketch.check_merge(&other.sketch)?;
        self.tracker.check_merge(&other.tracker)
    }

    /// Merge another reporter with the same parameters and sketch seed:
    /// the sketches merge, then *both* sides' candidates are re-offered at
    /// their post-merge estimates, and one the sketch declines
    /// ([`PointSketch::reoffer_estimate`]) leaves the table.
    ///
    /// # Panics
    /// When [`HeavyHitters::check_merge`] fails.
    pub fn merge(&mut self, other: &Self) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.sketch.merge(&other.sketch);
        self.tracker
            .reoffer_union(&other.tracker, |item| self.sketch.reoffer_estimate(item));
    }

    /// Report `(item, estimated frequency)` for every candidate whose final
    /// estimate is at least the final threshold, sorted by decreasing
    /// estimate.
    pub fn report(&self) -> Vec<(u64, u64)> {
        let threshold = self.sketch.threshold(self.alpha);
        let mut out: Vec<(u64, u64)> = self
            .tracker
            .candidates()
            .map(|i| (i, self.sketch.reported(i)))
            .filter(|&(_, e)| e as f64 >= threshold)
            .collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Payload shared by both instantiations: `alpha ‖ sketch ‖ tracker`
    /// (each keeps its own wire tag: the sketch is part of the identity).
    fn encode_fields(&self, out: &mut Vec<u8>) {
        self.alpha.encode_into(out);
        self.sketch.encode_into(out);
        self.tracker.encode_into(out);
    }

    fn decode_fields(r: &mut Reader) -> Result<Self, CodecError> {
        let alpha = r.prob_open()?;
        let sketch = S::decode(r)?;
        let tracker = TopKTracker::decode(r)?;
        Ok(Self {
            sketch,
            tracker,
            alpha,
        })
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

impl WireCodec for CmHeavyHitters {
    const WIRE_TAG: u16 = 0x0209;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
    }
}

impl WireCodec for CsHeavyHitters {
    const WIRE_TAG: u16 = 0x020B;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.encode_fields(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Self::decode_fields(r)
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

    /// A merge takes out a candidate whose merged estimate collapses to
    /// ≤ 0, as the quiesce rebuild does. On this 5 × 8 grid item 517 shares
    /// item 1's bucket with the opposite sign on 3 of the 5 rows, so item
    /// 1's merged estimate is the median of {−90, −90, −90, 10, 10}.
    #[test]
    fn merge_drops_a_candidate_whose_merged_estimate_is_not_positive() {
        let mut a = CsHeavyHitters::new(0.2, 0.9, 0.1, 3);
        assert_eq!((a.sketch().depth(), a.sketch().width()), (5, 8));
        let mut b = a.clone();
        for _ in 0..10 {
            a.update(1);
        }
        for _ in 0..100 {
            b.update(517);
        }
        assert!(a.tracker().candidates().any(|i| i == 1));
        a.merge(&b);
        assert_eq!(a.sketch().query(1), -90);
        let candidates: Vec<u64> = a.tracker().candidates().collect();
        assert_eq!(candidates, vec![517], "item 1 must leave the table");
        let rebuilt = CsHeavyHitters::quiesced(a.sketch().clone(), a.tracker(), a.alpha());
        assert_eq!(
            rebuilt.tracker().candidates().collect::<Vec<_>>(),
            candidates
        );
    }

    #[test]
    fn empty_reporters_report_nothing() {
        let hh = CmHeavyHitters::new(0.1, 0.1, 0.1, 7);
        assert!(hh.report().is_empty());
        let hh = CsHeavyHitters::new(0.1, 0.1, 0.1, 8);
        assert!(hh.report().is_empty());
    }
}
