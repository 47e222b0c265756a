//! Misra–Gries frequent items (Misra & Gries, Sci. Comput. Program. 1982).
//!
//! Maintains at most `k` counters. A point query underestimates by at most
//! `n/(k+1)`, deterministically: every item with `f_x > n/(k+1)` is
//! guaranteed to be present. The paper names this algorithm as the
//! insert-only alternative to CountMin for `F_1` heavy hitters (§6); here
//! it is the dominant-element detector inside the entropy estimator.

use sss_codec::{put_keyed_u64s, put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{fp_hash_map, FpHashMap};

use crate::Mismatch;

/// Misra–Gries summary with `k` counters.
#[derive(Debug, Clone)]
pub struct MisraGries {
    // Fields are crate-visible for the entropy estimator's batch path,
    // which replays the exact `update` transitions with cheaper
    // bookkeeping (debt-counter decrement-alls, incremental argmax).
    pub(crate) k: usize,
    pub(crate) counters: FpHashMap<u64, u64>,
    pub(crate) n: u64,
}

impl MisraGries {
    /// Summary with `k ≥ 1` counters (error `≤ n/(k+1)`).
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one counter");
        Self {
            k,
            counters: fp_hash_map(),
            n: 0,
        }
    }

    /// Number of stream elements ingested.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The deterministic underestimation bound `n/(k+1)`.
    pub fn error_bound(&self) -> f64 {
        self.n as f64 / (self.k + 1) as f64
    }

    /// Ingest one occurrence of `x`.
    pub fn update(&mut self, x: u64) {
        self.n += 1;
        if let Some(c) = self.counters.get_mut(&x) {
            *c += 1;
        } else if self.counters.len() < self.k {
            self.counters.insert(x, 1);
        } else {
            // Decrement-all step; drop zeroed counters.
            self.counters.retain(|_, c| {
                *c -= 1;
                *c > 0
            });
        }
    }

    /// Ingest a batch of occurrences (same result as one-by-one updates).
    pub fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Lower-bound estimate of the frequency of `x` (0 if untracked);
    /// `f_x − n/(k+1) ≤ query(x) ≤ f_x`.
    pub fn query(&self, x: u64) -> u64 {
        self.counters.get(&x).copied().unwrap_or(0)
    }

    /// Tracked `(item, count)` pairs sorted by decreasing count.
    pub fn items(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.counters.iter().map(|(&i, &c)| (i, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// The tracked item with the largest counter, if any.
    pub fn top(&self) -> Option<(u64, u64)> {
        self.items().into_iter().next()
    }

    /// Whether `other` can merge into `self`: same counter capacity `k`.
    pub fn check_merge(&self, other: &MisraGries) -> Result<(), Mismatch> {
        Mismatch::unless(self.k == other.k, "MisraGries capacity")
    }

    /// Merge another summary (Agarwal et al. mergeability: add counters,
    /// then subtract the `(k+1)`-st largest from all and drop non-positive).
    ///
    /// # Panics
    /// When [`MisraGries::check_merge`] fails.
    pub fn merge(&mut self, other: &MisraGries) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        // sss-lint: allow(canonical_iteration) — commutative u64 adds into the counter map; the summed state is iteration-order independent
        for (&i, &c) in &other.counters {
            *self.counters.entry(i).or_insert(0) += c;
        }
        self.n += other.n;
        if self.counters.len() > self.k {
            let mut counts: Vec<u64> = self.counters.values().copied().collect();
            counts.sort_unstable_by(|a, b| b.cmp(a));
            let cut = counts[self.k]; // (k+1)-st largest
            self.counters.retain(|_, c| {
                if *c > cut {
                    *c -= cut;
                    true
                } else {
                    false
                }
            });
        }
    }
}

impl WireCodec for MisraGries {
    const WIRE_TAG: u16 = 0x0206;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint_u64(out, self.k as u64);
        put_varint_u64(out, self.n);
        let mut rows: Vec<(u64, u64)> = self.counters.iter().map(|(&i, &c)| (i, c)).collect();
        rows.sort_unstable();
        put_keyed_u64s(out, rows.iter().copied());
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let k = r.count_usize()?;
        let n = r.count_u64()?;
        if k == 0 {
            return Err(CodecError::Invalid {
                what: "MisraGries k == 0",
            });
        }
        let (items, counts) = r.keyed_u64s()?;
        if items.len() > k {
            return Err(CodecError::Invalid {
                what: "MisraGries holds more than k counters",
            });
        }
        if counts.contains(&0) {
            return Err(CodecError::Invalid {
                what: "MisraGries zero counter",
            });
        }
        let counters = items.into_iter().zip(counts).collect();
        Ok(MisraGries { k, counters, n })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    #[test]
    fn guarantees_hold_on_adversarial_stream() {
        // n/2 copies of item 0 interleaved with distinct junk.
        let k = 9;
        let mut mg = MisraGries::new(k);
        let n = 10_000u64;
        for i in 0..n / 2 {
            mg.update(0);
            mg.update(1000 + i); // all-distinct chaff
        }
        let f0 = n / 2;
        let q = mg.query(0);
        assert!(q <= f0);
        assert!(q as f64 >= f0 as f64 - mg.error_bound());
        assert!(mg.top().unwrap().0 == 0);
    }

    #[test]
    fn never_overestimates() {
        let mut mg = MisraGries::new(5);
        let mut rng = Xoshiro256pp::new(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..50_000 {
            let x = rng.next_below(100);
            mg.update(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        for (&x, &f) in &truth {
            assert!(mg.query(x) <= f, "overestimate at {x}");
        }
    }

    #[test]
    fn all_heavy_items_are_tracked() {
        let k = 10;
        let mut mg = MisraGries::new(k);
        let n = 110_000u64;
        // Items 0..5 each get n/11 > n/(k+1) occurrences… exactly n/11 each
        // plus chaff; use frequency 2n/11 to be strictly above.
        let heavy_each = 2 * n / 11;
        for i in 0..5u64 {
            for _ in 0..heavy_each {
                mg.update(i);
            }
        }
        let chaff = n - 5 * heavy_each;
        for j in 0..chaff {
            mg.update(10_000 + j);
        }
        for i in 0..5u64 {
            assert!(mg.query(i) > 0, "heavy item {i} lost");
        }
    }

    #[test]
    fn at_most_k_counters() {
        let mut mg = MisraGries::new(3);
        for x in 0..1000u64 {
            mg.update(x);
        }
        assert!(mg.items().len() <= 3);
    }

    #[test]
    fn merge_preserves_error_bound() {
        let k = 7;
        let mut a = MisraGries::new(k);
        let mut b = MisraGries::new(k);
        let mut whole = std::collections::HashMap::new();
        let mut rng = Xoshiro256pp::new(2);
        for _ in 0..20_000 {
            let x = if rng.next_bool(0.4) {
                rng.next_below(3)
            } else {
                3 + rng.next_below(5000)
            };
            a.update(x);
            *whole.entry(x).or_insert(0u64) += 1;
        }
        for _ in 0..20_000 {
            let x = if rng.next_bool(0.4) {
                rng.next_below(3)
            } else {
                3 + rng.next_below(5000)
            };
            b.update(x);
            *whole.entry(x).or_insert(0u64) += 1;
        }
        a.merge(&b);
        assert_eq!(a.n(), 40_000);
        let bound = a.error_bound();
        for (&x, &f) in &whole {
            let q = a.query(x);
            assert!(q <= f, "overestimate at {x}");
            assert!(
                q as f64 >= f as f64 - bound,
                "item {x}: {q} < {f} - {bound}"
            );
        }
        assert!(a.items().len() <= k);
    }

    #[test]
    fn top_identifies_majority() {
        let mut mg = MisraGries::new(2);
        let mut rng = Xoshiro256pp::new(3);
        for _ in 0..10_000 {
            let x = if rng.next_bool(0.6) {
                7
            } else {
                rng.next_below(1000)
            };
            mg.update(x);
        }
        assert_eq!(mg.top().unwrap().0, 7);
    }
}
