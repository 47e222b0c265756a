//! Streaming empirical-entropy estimation.
//!
//! An unbiased suffix-count estimator in the style of Chakrabarti, Cormode &
//! McGregor (SODA 2007). A reservoir slot holds `(item a_J, r)` where `J` is
//! a uniformly random position of the prefix and `r` counts occurrences of
//! `a_J` in the suffix starting at `J`. The statistic
//!
//! ```text
//! X(r) = r·lg(n/r) − (r−1)·lg(n/(r−1))
//! ```
//!
//! telescopes to `E[X] = Σ_i (f_i/n)·lg(n/f_i) = H(f)` — exactly the
//! paper's Definition 3. Averaging `t` independent slots concentrates the
//! estimate; `X ∈ [−lg e, lg n]`, so `t = O(ε⁻²·log²n·log δ⁻¹)` gives a
//! `(1+ε, δ)` *multiplicative* guarantee whenever `H` is bounded away from
//! zero — precisely the regime of the paper's Theorem 5
//! (`H(f) = ω(p^{−1/2}n^{−1/6})`).
//!
//! Low-entropy streams are dominated by one element `z`; there the plain
//! estimator's variance explodes, and CCM's fix is to estimate the
//! conditional entropy of the stream *without* `z` and recombine through
//! the exact identity
//!
//! ```text
//! H = (1−p_z)·H(S¬z) + (1−p_z)·lg 1/(1−p_z) + p_z·lg 1/p_z .
//! ```
//!
//! We detect `z` with a Misra–Gries tracker and maintain a second reservoir
//! over the conditional stream from the moment a majority candidate
//! emerges (restarting it if the leader changes — leaders are stable on
//! dominated streams; the approximation is documented, and the exact CCM
//! leader-pair bookkeeping would cost the same space while adding nothing
//! in the regimes exercised here).
//!
//! **Cost.** Slot replacements at position `n` happen with probability
//! `1/n`, so each slot is replaced only `O(log n)` times; we pre-draw every
//! slot's next replacement position (`P[N > t | at n] = n/t ⇒ N = ⌈n/U⌉`)
//! and keep a min-heap of due positions, plus shared per-item suffix
//! counters, making updates `O(1)` amortised instead of the naive `O(t)`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use sss_codec::{put_keyed_u64s, put_packed_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{fp_hash_map, FpHashMap, RngCore64, SplitMix64, Xoshiro256pp};

use crate::misra_gries::MisraGries;

/// One reservoir slot: the held item and the suffix-counter offset such
/// that `r = tracker[item] − offset`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    item: u64,
    offset: u64,
}

/// A bank of `t` independent size-1 position reservoirs with shared
/// suffix counters.
#[derive(Debug, Clone)]
struct SuffixReservoir {
    slots: Vec<Slot>,
    /// Min-heap of (next replacement position, slot index).
    due: BinaryHeap<Reverse<(u64, u32)>>,
    /// Occurrence counters for items currently held by ≥ 1 slot, counted
    /// from each item's first adoption.
    tracker: FpHashMap<u64, u64>,
    /// How many slots hold each tracked item (for tracker GC).
    holders: FpHashMap<u64, u32>,
    n: u64,
    rng: Xoshiro256pp,
}

impl SuffixReservoir {
    fn new(t: usize, seed: u64) -> Self {
        let mut due = BinaryHeap::with_capacity(t);
        for i in 0..t {
            due.push(Reverse((1, i as u32))); // every slot adopts position 1
        }
        Self {
            slots: vec![
                Slot {
                    item: u64::MAX,
                    offset: 0
                };
                t
            ],
            due,
            tracker: fp_hash_map(),
            holders: fp_hash_map(),
            n: 0,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// Replace the replacement-position RNG. Only meaningful before any
    /// updates: re-seeding mid-stream would bias the pre-drawn schedule.
    fn reseed_rng(&mut self, seed: u64) {
        debug_assert!(self.n == 0, "reseed_rng on a non-empty reservoir");
        self.rng = Xoshiro256pp::new(seed);
    }

    fn reset(&mut self) {
        let t = self.slots.len();
        self.due.clear();
        for i in 0..t {
            self.slots[i] = Slot {
                item: u64::MAX,
                offset: 0,
            };
            self.due.push(Reverse((self.n + 1, i as u32)));
        }
        self.tracker.clear();
        self.holders.clear();
    }

    #[inline]
    fn update(&mut self, x: u64) {
        self.n += 1;
        // Suffix counters for any slots already holding x.
        if let Some(c) = self.tracker.get_mut(&x) {
            *c += 1;
        }
        self.replace_due(x);
    }

    /// [`Self::update`] with the next replacement position cached in the
    /// caller's register, skipping the per-item heap peek. `next_due`
    /// must equal [`Self::peek_due`]; it is refreshed whenever the heap
    /// changes. Bit-identical to `update`.
    #[inline]
    fn update_cached(&mut self, x: u64, next_due: &mut u64) {
        self.n += 1;
        if let Some(c) = self.tracker.get_mut(&x) {
            *c += 1;
        }
        if *next_due == self.n {
            self.replace_due(x);
            *next_due = self.peek_due();
        }
    }

    /// The next pre-drawn replacement position (`u64::MAX` if none).
    #[inline]
    fn peek_due(&self) -> u64 {
        self.due.peek().map_or(u64::MAX, |&Reverse((p, _))| p)
    }

    /// Process every slot whose pre-drawn replacement position equals the
    /// current position: each adopts `x`.
    fn replace_due(&mut self, x: u64) {
        let n = self.n;
        while let Some(&Reverse((pos, idx))) = self.due.peek() {
            if pos != n {
                debug_assert!(pos > n, "missed replacement at {pos} < {n}");
                break;
            }
            self.due.pop();
            let slot = &mut self.slots[idx as usize];
            // Release the old item.
            if slot.item != u64::MAX {
                let h = self.holders.get_mut(&slot.item).expect("held item tracked");
                *h -= 1;
                if *h == 0 {
                    self.holders.remove(&slot.item);
                    self.tracker.remove(&slot.item);
                }
            }
            // Adopt x at this position (r starts at 1 = this occurrence).
            let c = *self.tracker.entry(x).or_insert(1);
            slot.item = x;
            slot.offset = c - 1;
            *self.holders.entry(x).or_insert(0) += 1;
            // Next replacement: P[N > t | at n] = n/t  ⇒  N = ⌈n/U⌉ > n.
            let u = self.rng.next_f64().max(1e-18);
            let next = (n as f64 / u).ceil();
            let next = if next.is_finite() && next < u64::MAX as f64 {
                (next as u64).max(n + 1)
            } else {
                u64::MAX
            };
            self.due.push(Reverse((next, idx)));
        }
    }

    /// Mean of the unbiased statistic `X(r)` over filled slots.
    fn mean_x(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let mut sum = 0.0;
        let mut filled = 0usize;
        for s in &self.slots {
            if s.item == u64::MAX {
                continue;
            }
            let r = self.tracker[&s.item] - s.offset;
            sum += x_statistic(r, n);
            filled += 1;
        }
        if filled == 0 {
            0.0
        } else {
            sum / filled as f64
        }
    }

    fn space_words(&self) -> usize {
        2 * self.slots.len() + self.due.len() + 2 * (self.tracker.len() + self.holders.len())
    }
}

/// Streaming estimator of the empirical entropy `H(f)` in bits.
#[derive(Debug, Clone)]
pub struct EntropyEstimator {
    plain: SuffixReservoir,
    cond: SuffixReservoir,
    mg: MisraGries,
    n: u64,
    /// Length of the conditional (leader-free) stream since leader adoption.
    cond_n: u64,
    leader: Option<u64>,
}

/// Fraction of the stream a Misra–Gries candidate must hold before the
/// dominant-element correction kicks in.
const LEADER_SHARE: f64 = 0.5;

/// Leadership is re-evaluated every this many updates (the Misra–Gries
/// argmax costs a table scan; per-item granularity buys nothing).
const LEADER_REFRESH: u64 = 32;

impl EntropyEstimator {
    /// Estimator with `t` reservoir slots (per reservoir).
    pub fn new(t: usize, seed: u64) -> Self {
        assert!(t >= 1, "need at least one slot");
        let mut sm = SplitMix64::new(seed);
        Self {
            plain: SuffixReservoir::new(t, sm.derive()),
            cond: SuffixReservoir::new(t, sm.derive()),
            mg: MisraGries::new(128),
            n: 0,
            cond_n: 0,
            leader: None,
        }
    }

    /// Estimator sized for relative error `eps` at confidence `1 − delta`
    /// on streams of length up to `2^log2_n` with entropy `≥ 1` bit.
    pub fn with_error(eps: f64, delta: f64, log2_n: f64, seed: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0);
        assert!(delta > 0.0 && delta < 1.0);
        let t = ((log2_n * log2_n) * (2.0 / delta).ln() / (eps * eps)).ceil() as usize;
        Self::new(t.max(16), seed)
    }

    /// Stream length ingested so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Re-seed the reservoirs' replacement randomness — the seed-splitting
    /// hook for sharded monitors, where each shard's reservoir should make
    /// independent sampling decisions. Entropy merges are length-weighted
    /// averages (no shared hash state), so re-seeding never breaks
    /// mergeability. Must be called before the first update.
    ///
    /// # Panics
    /// If elements were already ingested (debug builds).
    pub fn reseed(&mut self, seed: u64) {
        debug_assert!(self.n == 0, "reseed on a non-empty entropy estimator");
        let mut sm = SplitMix64::new(seed);
        self.plain.reseed_rng(sm.derive());
        self.cond.reseed_rng(sm.derive());
    }

    /// Space in 64-bit words (both reservoirs + the Misra–Gries table).
    pub fn space_words(&self) -> usize {
        self.plain.space_words() + self.cond.space_words() + 2 * 128
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        self.n += 1;
        self.mg.update(x);
        self.plain.update(x);
        if self.n.is_multiple_of(LEADER_REFRESH) {
            self.refresh_leader();
        }
        if let Some(z) = self.leader {
            if x != z {
                self.cond_n += 1;
                self.cond.update(x);
            }
        }
    }

    /// Ingest a batch of occurrences — same state transitions as
    /// one-by-one [`Self::update`] calls (the replacement chain is
    /// inherently sequential), executed with cheaper bookkeeping:
    ///
    /// - Misra–Gries decrement-alls become a chunk-local *debt* counter
    ///   checked against a histogram of counter values, turning the
    ///   `O(k)` retain per cold item into `O(1)` array ops (counters are
    ///   materialized once per chunk);
    /// - the leader scan (`MisraGries::top`, an alloc + sort every
    ///   `LEADER_REFRESH` (32) items) becomes an incrementally maintained
    ///   argmax — a uniform decrement preserves the ordering, so only
    ///   increments can move it;
    /// - the reservoirs' next replacement positions are cached in
    ///   registers instead of peeking the due-heap per item.
    pub fn update_batch(&mut self, xs: &[u64]) {
        for chunk in xs.chunks(1024) {
            self.update_chunk(chunk);
        }
    }

    fn update_chunk(&mut self, chunk: &[u64]) {
        use std::collections::hash_map::Entry;

        let k = self.mg.k;
        // Histogram of stored counter values that could reach zero this
        // chunk (debt grows by at most one per item, so larger counters
        // are untouchable and stay untracked).
        let hist_len = chunk.len() + 2;
        let mut hist = vec![0u32; hist_len];
        // Chunk-local debt: every counter's effective value is
        // `stored - debt`; entries with `stored <= debt` are dead (they
        // read as absent and are purged at chunk end).
        let mut debt: u64 = 0;
        let mut dead: usize = 0;
        let mut phys_len = self.mg.counters.len();
        // Incremental argmax over (stored, item). Stored-value ordering
        // among live entries is debt-invariant, and ties break like
        // `MisraGries::top`: largest count, then smallest item.
        let mut top: Option<(u64, u64)> = None;
        // One pass seeds both the histogram and the argmax.
        for (&i, &c) in &self.mg.counters {
            if (c as usize) < hist_len {
                hist[c as usize] += 1;
            }
            match top {
                Some((ti, tc)) if c < tc || (c == tc && i > ti) => {}
                _ => top = Some((i, c)),
            }
        }
        let bump_top = |top: &mut Option<(u64, u64)>, i: u64, c: u64| match *top {
            Some((ti, tc)) if c < tc || (c == tc && i > ti) => {}
            _ => *top = Some((i, c)),
        };
        let mut plain_due = self.plain.peek_due();
        let mut cond_due = self.cond.peek_due();

        for &x in chunk {
            self.n += 1;
            // Misra–Gries step (same transitions as `MisraGries::update`).
            self.mg.n += 1;
            match self.mg.counters.entry(x) {
                Entry::Occupied(mut e) => {
                    let c = e.get_mut();
                    if *c > debt {
                        // Live hit: increment.
                        let old = *c as usize;
                        *c += 1;
                        if old < hist_len {
                            hist[old] -= 1;
                            if old + 1 < hist_len {
                                hist[old + 1] += 1;
                            }
                        }
                        bump_top(&mut top, x, *c);
                    } else if phys_len - dead < k {
                        // Dead entry, room in the table: same as a fresh
                        // insert at effective count 1, reusing the slot.
                        *c = debt + 1;
                        dead -= 1;
                        hist[(debt + 1) as usize] += 1;
                        bump_top(&mut top, x, debt + 1);
                    } else {
                        // Decrement-all: entries at effective 1 die.
                        debt += 1;
                        dead += hist[debt as usize] as usize;
                    }
                }
                Entry::Vacant(v) => {
                    if phys_len - dead < k {
                        v.insert(debt + 1);
                        phys_len += 1;
                        hist[(debt + 1) as usize] += 1;
                        bump_top(&mut top, x, debt + 1);
                    } else {
                        debt += 1;
                        dead += hist[debt as usize] as usize;
                    }
                }
            }
            // Plain reservoir.
            self.plain.update_cached(x, &mut plain_due);
            // Leader refresh on the same cadence as the scalar path.
            if self.n.is_multiple_of(LEADER_REFRESH) {
                let candidate = match top {
                    Some((i, s)) if s > debt => {
                        let c = s - debt;
                        ((c as f64 + self.mg.error_bound()) >= LEADER_SHARE * self.n as f64)
                            .then_some((i, c))
                    }
                    _ => None,
                };
                self.apply_leader(candidate);
                // A leader change resets the conditional reservoir.
                cond_due = self.cond.peek_due();
            }
            // Conditional reservoir.
            if let Some(z) = self.leader {
                if x != z {
                    self.cond_n += 1;
                    self.cond.update_cached(x, &mut cond_due);
                }
            }
        }
        // Materialize the debt: identical contents to the scalar path's
        // eager per-event retain.
        if debt > 0 {
            self.mg.counters.retain(|_, c| {
                if *c > debt {
                    *c -= debt;
                    true
                } else {
                    false
                }
            });
        }
    }

    fn refresh_leader(&mut self) {
        let candidate = self
            .mg
            .top()
            .filter(|&(_, c)| (c as f64 + self.mg.error_bound()) >= LEADER_SHARE * self.n as f64);
        self.apply_leader(candidate);
    }

    fn apply_leader(&mut self, candidate: Option<(u64, u64)>) {
        match (self.leader, candidate) {
            (Some(z), Some((top, _))) if z == top => {}
            (_, Some((top, _))) => {
                // New (or first) leader: restart the conditional reservoir.
                self.leader = Some(top);
                self.cond_n = 0;
                self.cond.reset();
            }
            (Some(_), None) => {
                // Leader lost dominance; fall back to the plain estimator.
                self.leader = None;
                self.cond_n = 0;
                self.cond.reset();
            }
            (None, None) => {}
        }
    }

    /// The estimated share of the dominant element, if one is tracked.
    pub fn leader_share(&self) -> Option<(u64, f64)> {
        let z = self.leader?;
        // The Misra–Gries count underestimates by at most n/(k+1); split
        // the difference to centre the estimate.
        let est = self.mg.query(z) as f64 + self.mg.error_bound() / 2.0;
        Some((z, (est / self.n as f64).min(1.0)))
    }

    /// Estimate `H(f)` in bits (clamped to `[0, lg n]`).
    pub fn estimate(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let est = match self.leader_share() {
            Some((_, pz)) if pz >= LEADER_SHARE => {
                // Dominant-element decomposition (exact identity):
                // H = (1−p_z)·H(S¬z) + (1−p_z)·lg 1/(1−p_z) + p_z·lg 1/p_z.
                let q = (1.0 - pz).max(0.0);
                let mut h = pz * (1.0 / pz).log2();
                if q > 0.0 && self.cond_n > 0 {
                    let h_cond = self.cond.mean_x().max(0.0);
                    h += q * h_cond + q * (1.0 / q).log2();
                }
                h
            }
            _ => self.plain.mean_x(),
        };
        est.clamp(0.0, (self.n as f64).log2())
    }
}

impl WireCodec for SuffixReservoir {
    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: every section is columnar and packed — slot items
        // (FoR; a reservoir full of u64::MAX sentinels is a width-0
        // run), slot offsets and due positions (small integers near the
        // replay position), tracker/holder maps as keyed tables. Heap
        // entries keep the heap's internal order: re-heapifying a valid
        // heap is the identity, so the decoded reservoir replays bit for
        // bit *and* re-encodes byte-identically.
        put_varint_u64(out, self.slots.len() as u64);
        let items: Vec<u64> = self.slots.iter().map(|s| s.item).collect();
        let offsets: Vec<u64> = self.slots.iter().map(|s| s.offset).collect();
        put_packed_u64s(out, &items);
        put_packed_u64s(out, &offsets);
        let due_pos: Vec<u64> = self.due.iter().map(|&Reverse((pos, _))| pos).collect();
        let due_idx: Vec<u64> = self
            .due
            .iter()
            .map(|&Reverse((_, idx))| idx as u64)
            .collect();
        put_packed_u64s(out, &due_pos);
        put_packed_u64s(out, &due_idx);
        let mut rows: Vec<(u64, u64)> = self.tracker.iter().map(|(&i, &c)| (i, c)).collect();
        rows.sort_unstable();
        put_keyed_u64s(out, rows.iter().copied());
        // Holders ship verbatim rather than being rebuilt from the slots:
        // a slot holding the literal item u64::MAX is indistinguishable
        // from an empty slot, so slot-side inference would reject (or
        // corrupt) honest states containing that id.
        let mut held: Vec<(u64, u32)> = self.holders.iter().map(|(&i, &h)| (i, h)).collect();
        held.sort_unstable();
        put_keyed_u64s(out, held.iter().map(|&(i, h)| (i, u64::from(h))));
        put_varint_u64(out, self.n);
        self.rng.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        // The slot and due columns stay version-routed: v2 writes each as
        // two packed columns, v1 as rows of mixed widths (`(u64, u64)`
        // slots, `(u64, u32)` due entries).
        let (slots, raw_due): (Vec<Slot>, Vec<(u64, u32)>) = if r.v2() {
            // No per-slot byte floor here: packed columns can spend
            // well under a byte per slot. The count is only *compared*
            // against the column lengths (which carry their own
            // allocation guards), never allocated from.
            let slot_count = r.varint_u64()?;
            let items = r.packed_u64s()?;
            let offsets = r.packed_u64s()?;
            if items.len() as u64 != slot_count || offsets.len() as u64 != slot_count {
                return Err(CodecError::Invalid {
                    what: "SuffixReservoir slot column length mismatch",
                });
            }
            let due_pos = r.packed_u64s()?;
            let due_idx = r.packed_u64s()?;
            if due_pos.len() != due_idx.len() {
                return Err(CodecError::Invalid {
                    what: "SuffixReservoir due column length mismatch",
                });
            }
            let mut due = Vec::with_capacity(due_pos.len());
            for (pos, idx) in due_pos.into_iter().zip(due_idx) {
                let idx = u32::try_from(idx).map_err(|_| CodecError::Invalid {
                    what: "SuffixReservoir due index above u32",
                })?;
                due.push((pos, idx));
            }
            let slots = items.into_iter().zip(offsets);
            let slots = slots.map(|(item, offset)| Slot { item, offset }).collect();
            (slots, due)
        } else {
            let slot_count = r.len_prefix(16)?;
            let mut slots = Vec::with_capacity(slot_count);
            for _ in 0..slot_count {
                slots.push(Slot {
                    item: r.u64()?,
                    offset: r.u64()?,
                });
            }
            let due_count = r.len_prefix(12)?;
            let mut due = Vec::with_capacity(due_count);
            for _ in 0..due_count {
                due.push((r.u64()?, r.u32()?));
            }
            (slots, due)
        };
        let (tracked, counts) = r.keyed_u64s()?;
        let (held, holds) = r.keyed_table(|r, _| {
            let column = r.varint_u64s()?.into_iter().map(u32::try_from);
            column
                .collect::<Result<_, _>>()
                .map_err(|_| CodecError::Invalid {
                    what: "SuffixReservoir holder count above u32",
                })
        })?;
        let n = r.count_u64()?;
        let rng = Xoshiro256pp::decode(r)?;
        if slots.is_empty() || slots.len() > u32::MAX as usize {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir slot count outside 1..=u32::MAX",
            });
        }
        let slot_count = slots.len();
        if raw_due.len() != slot_count {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir due-heap size != slot count",
            });
        }
        let mut due_entries = Vec::with_capacity(raw_due.len());
        let mut seen_idx = vec![false; slot_count];
        for (pos, idx) in raw_due {
            let slot = seen_idx.get_mut(idx as usize).ok_or(CodecError::Invalid {
                what: "SuffixReservoir due entry for unknown slot",
            })?;
            if std::mem::replace(slot, true) {
                return Err(CodecError::Invalid {
                    what: "SuffixReservoir duplicate due entry",
                });
            }
            due_entries.push(Reverse((pos, idx)));
        }
        if counts.contains(&0) || holds.contains(&0) {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir tracker or holder row invalid",
            });
        }
        if held != tracked {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir tracker/holder key sets differ",
            });
        }
        let tracker: FpHashMap<u64, u64> = tracked.into_iter().zip(counts).collect();
        let holders: FpHashMap<u64, u32> = held.into_iter().zip(holds).collect();
        // Cross-check slots against the maps so continued ingestion and
        // mean_x cannot hit a missing key or an underflowing suffix count:
        // every held (non-sentinel) item must be tracked with a count
        // ahead of the slot offset (r = count − offset ≥ 1) and must have
        // a holder entry covering each slot that shows it. (Slots whose
        // item is the u64::MAX sentinel are skipped: an empty slot and a
        // slot that adopted the literal id u64::MAX behave identically in
        // the live structure — neither is released or read.)
        let mut shown: FpHashMap<u64, u32> = fp_hash_map();
        for s in &slots {
            if s.item == u64::MAX {
                continue;
            }
            match tracker.get(&s.item) {
                Some(&c) if s.offset < c => {}
                _ => {
                    return Err(CodecError::Invalid {
                        what: "SuffixReservoir slot inconsistent with tracker",
                    })
                }
            }
            *shown.entry(s.item).or_insert(0) += 1;
        }
        for (item, count) in &shown {
            if item != &u64::MAX && holders.get(item) != Some(count) {
                return Err(CodecError::Invalid {
                    what: "SuffixReservoir holder count does not match slots",
                });
            }
        }
        if holders
            .keys()
            .any(|i| *i != u64::MAX && !shown.contains_key(i))
        {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir holder for an item no slot shows",
            });
        }
        // Due positions are strictly ahead of the replay position (the
        // update loop pops entries at pos == n+1 and debug-asserts the
        // rest are ahead).
        if due_entries.iter().any(|&Reverse((pos, _))| pos <= n) {
            return Err(CodecError::Invalid {
                what: "SuffixReservoir due position not ahead of n",
            });
        }
        Ok(SuffixReservoir {
            slots,
            due: BinaryHeap::from(due_entries),
            tracker,
            holders,
            n,
            rng,
        })
    }
}

impl WireCodec for EntropyEstimator {
    const WIRE_TAG: u16 = 0x020E;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.plain.encode_into(out);
        self.cond.encode_into(out);
        self.mg.encode_into(out);
        self.n.encode_into(out);
        self.cond_n.encode_into(out);
        self.leader.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(EntropyEstimator {
            plain: SuffixReservoir::decode(r)?,
            cond: SuffixReservoir::decode(r)?,
            mg: MisraGries::decode(r)?,
            n: r.u64()?,
            cond_n: r.u64()?,
            leader: Option::decode(r)?,
        })
    }
}

/// The unbiased per-slot statistic `X(r) = r·lg(n/r) − (r−1)·lg(n/(r−1))`.
fn x_statistic(r: u64, n: f64) -> f64 {
    debug_assert!(r >= 1);
    let r = r as f64;
    let first = r * (n / r).log2();
    if r <= 1.0 {
        first
    } else {
        first - (r - 1.0) * (n / (r - 1.0)).log2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    fn exact_entropy(stream: &[u64]) -> f64 {
        let mut m = std::collections::HashMap::new();
        for &x in stream {
            *m.entry(x).or_insert(0u64) += 1;
        }
        let n = stream.len() as f64;
        m.values()
            .map(|&f| (f as f64 / n) * (n / f as f64).log2())
            .sum()
    }

    #[test]
    fn x_statistic_telescopes_to_entropy() {
        // Direct check of unbiasedness on a small frequency vector:
        // Σ_i Σ_{j=1}^{f_i} X(j) = n·H.
        let freqs = [5u64, 3, 2];
        let n: u64 = freqs.iter().sum();
        let mut total = 0.0;
        for &f in &freqs {
            for j in 1..=f {
                total += x_statistic(j, n as f64);
            }
        }
        let h: f64 = freqs
            .iter()
            .map(|&f| (f as f64 / n as f64) * (n as f64 / f as f64).log2())
            .sum();
        assert!((total / n as f64 - h).abs() < 1e-12);
    }

    #[test]
    fn reservoir_matches_naive_replacement_chain() {
        // The skip-based reservoir must hold a uniform position: check the
        // inclusion probability of the first element across seeds.
        let n = 50u64;
        let trials = 4000u64;
        let mut first_held = 0u64;
        for seed in 0..trials {
            let mut r = SuffixReservoir::new(1, seed);
            for x in 0..n {
                r.update(1000 + x); // all distinct
            }
            // Slot holds the item adopted at its sampled position; since all
            // items are distinct, item == 1000 + pos.
            if r.slots[0].item == 1000 {
                first_held += 1;
            }
        }
        let rate = first_held as f64 / trials as f64;
        let expect = 1.0 / n as f64;
        assert!(
            (rate - expect).abs() < 0.01,
            "rate {rate} vs expect {expect}"
        );
    }

    #[test]
    fn suffix_counts_are_exact() {
        // Constant stream: the slot's r must equal (n − sampled_pos + 1).
        let mut r = SuffixReservoir::new(4, 9);
        for _ in 0..1000 {
            r.update(7);
        }
        for s in &r.slots {
            assert_eq!(s.item, 7);
            let rr = r.tracker[&7] - s.offset;
            assert!((1..=1000).contains(&rr));
        }
        // Σ X over a full pass telescopes; the mean is bounded by lg n.
        assert!(r.mean_x().abs() <= 1000f64.log2());
    }

    #[test]
    fn uniform_stream_entropy() {
        let mut rng = Xoshiro256pp::new(1);
        let stream: Vec<u64> = (0..60_000).map(|_| rng.next_below(256)).collect();
        let h = exact_entropy(&stream); // ≈ 8 bits
        let mut e = EntropyEstimator::new(3000, 2);
        for &x in &stream {
            e.update(x);
        }
        let est = e.estimate();
        assert!((est - h).abs() / h < 0.05, "est {est} vs {h}");
    }

    #[test]
    fn constant_stream_entropy_is_zero() {
        let mut e = EntropyEstimator::new(500, 3);
        for _ in 0..50_000 {
            e.update(7);
        }
        assert!(e.estimate() < 0.02, "est = {}", e.estimate());
    }

    #[test]
    fn dominated_stream_uses_correction() {
        // 90% one item, 10% uniform over 1024 — low but nonzero entropy.
        let mut rng = Xoshiro256pp::new(4);
        let stream: Vec<u64> = (0..80_000)
            .map(|_| {
                if rng.next_bool(0.9) {
                    1_000_000
                } else {
                    rng.next_below(1024)
                }
            })
            .collect();
        let h = exact_entropy(&stream);
        let mut e = EntropyEstimator::new(3000, 5);
        for &x in &stream {
            e.update(x);
        }
        let (z, share) = e.leader_share().expect("leader detected");
        assert_eq!(z, 1_000_000);
        assert!((share - 0.9).abs() < 0.05, "share = {share}");
        let est = e.estimate();
        assert!((est - h).abs() / h < 0.15, "est {est} vs {h}");
    }

    #[test]
    fn all_distinct_stream_has_lg_n_entropy() {
        let n = 16_384u64;
        let mut e = EntropyEstimator::new(1000, 6);
        for x in 0..n {
            e.update(x);
        }
        let est = e.estimate();
        // H = lg n = 14 exactly (every r = 1 ⇒ X = lg n, zero variance).
        assert!((est - 14.0).abs() < 1e-9, "est = {est}");
    }

    #[test]
    fn estimate_is_clamped_to_valid_range() {
        let mut e = EntropyEstimator::new(4, 7); // tiny: noisy
        let mut rng = Xoshiro256pp::new(8);
        for _ in 0..10_000 {
            e.update(rng.next_below(4));
        }
        let est = e.estimate();
        assert!(est >= 0.0 && est <= (10_000f64).log2());
    }

    #[test]
    fn empty_estimator_returns_zero() {
        let e = EntropyEstimator::new(10, 9);
        assert_eq!(e.estimate(), 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let build = |seed| {
            let mut e = EntropyEstimator::new(100, seed);
            let mut rng = Xoshiro256pp::new(99);
            for _ in 0..5000 {
                e.update(rng.next_below(32));
            }
            e.estimate()
        };
        assert_eq!(build(1), build(1));
        assert_ne!(build(1), build(2));
    }

    // Batch-vs-scalar equivalence (MG debt-counter replay, leader
    // transitions, both reservoirs) is pinned by the shared battery in
    // tests/batch_equiv.rs (crate::equiv harness) on a leader-churning
    // stream; snapshot comparison covers every serialized field.

    #[test]
    fn two_point_distribution() {
        // H = 1 bit for a 50/50 stream over two items.
        let mut e = EntropyEstimator::new(2000, 10);
        for i in 0..40_000u64 {
            e.update(i % 2);
        }
        let est = e.estimate();
        assert!((est - 1.0).abs() < 0.05, "est = {est}");
    }

    #[test]
    fn with_error_sizing_scales() {
        let small = EntropyEstimator::with_error(0.2, 0.1, 20.0, 1);
        let large = EntropyEstimator::with_error(0.05, 0.1, 20.0, 1);
        assert!(large.space_words() > 10 * small.space_words());
    }

    #[test]
    fn leader_lost_falls_back_to_plain() {
        // First 60k items constant (leader forms), then 60k uniform over
        // 512 (leader loses dominance): final estimate must track the
        // overall entropy, not the stale decomposition.
        let mut e = EntropyEstimator::new(3000, 11);
        let mut stream = vec![7u64; 60_000];
        let mut rng = Xoshiro256pp::new(12);
        stream.extend((0..60_000).map(|_| 1000 + rng.next_below(512)));
        let h = exact_entropy(&stream);
        for &x in &stream {
            e.update(x);
        }
        let est = e.estimate();
        assert!((est - h).abs() / h < 0.2, "est {est} vs {h}");
    }
}
