//! The exact frequency map of a sampled stream, the one state behind
//! `ExactCollisions`, `NaiveScaledFk` and `SampledFlowHistogram`. It
//! holds integer counts and their total, so merges are exact `u64` adds
//! in any order, and statistics are read from its frequency histogram in
//! ascending `g`: every result depends only on what the map holds.

use sss_codec::{put_packed_sorted_u64s, put_varint_u64, put_varint_u64s, CodecError, Reader};
use sss_hash::{fp_hash_map, FpHashMap};

/// Item → count, plus the number of counted occurrences `n`.
#[derive(Debug, Clone, Default)]
pub(crate) struct FrequencyMap {
    counts: FpHashMap<u64, u64>,
    n: u64,
}

impl FrequencyMap {
    pub(crate) fn update(&mut self, x: u64) {
        *self.counts.entry(x).or_insert(0) += 1;
        self.n += 1;
    }

    /// Add `other`'s counts entry by entry. Into an empty map — the first
    /// merge of every fold from a pristine prototype — this is a copy.
    pub(crate) fn merge(&mut self, other: &FrequencyMap) {
        if self.counts.is_empty() {
            self.counts.clone_from(&other.counts);
        } else {
            // sss-lint: allow(canonical_iteration) — u64 adds commute; the merged counts do not depend on visit order
            for (&x, &g) in &other.counts {
                *self.counts.entry(x).or_insert(0) += g;
            }
        }
        self.n += other.n;
    }

    pub(crate) fn get(&self, x: u64) -> u64 {
        self.counts.get(&x).copied().unwrap_or(0)
    }

    pub(crate) fn distinct(&self) -> usize {
        self.counts.len()
    }

    pub(crate) fn n(&self) -> u64 {
        self.n
    }

    /// `(g, N_g)` for every count `g` present, `N_g` items having been
    /// seen exactly `g` times, in ascending `g`.
    pub(crate) fn histogram(&self) -> Vec<(u64, u64)> {
        let mut tally: FpHashMap<u64, u64> = fp_hash_map();
        // sss-lint: allow(canonical_iteration) — tallies of u64 ones commute; the sort below fixes the output order
        for &g in self.counts.values() {
            *tally.entry(g).or_insert(0) += 1;
        }
        let mut hist: Vec<(u64, u64)> = tally.into_iter().collect();
        hist.sort_unstable();
        hist
    }

    /// `Σ_g N_g·term(g)` over a [`FrequencyMap::histogram`], in its order.
    /// The fold starts at `+0.0`: an empty `Iterator::sum::<f64>()` is
    /// `-0.0`, a different wire image.
    pub(crate) fn sum_over(hist: &[(u64, u64)], term: impl Fn(u64) -> f64) -> f64 {
        hist.iter()
            .fold(0.0, |acc, &(g, n_g)| acc + n_g as f64 * term(g))
    }

    /// v2 layout: `varint n ‖ sorted-delta ids ‖ varint counts`.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let mut rows: Vec<(u64, u64)> = self.counts.iter().map(|(&x, &g)| (x, g)).collect();
        rows.sort_unstable();
        put_varint_u64(out, self.n);
        put_packed_sorted_u64s(out, &rows.iter().map(|r| r.0).collect::<Vec<_>>());
        put_varint_u64s(out, &rows.iter().map(|r| r.1).collect::<Vec<_>>());
    }

    /// Decode the v2 layout, or v1's `u64 n ‖ len ‖ (u64 id, u64 count)*`,
    /// rejecting zero counts, duplicate ids and counts that do not sum to
    /// `n`.
    pub(crate) fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let invalid = |what| CodecError::Invalid { what };
        let (n, rows) = if r.v2() {
            let n = r.varint_u64()?;
            let items = r.packed_sorted_u64s()?;
            let gs = r.varint_u64s()?;
            if gs.len() != items.len() {
                return Err(invalid("frequency map column length mismatch"));
            }
            (n, items.into_iter().zip(gs).collect())
        } else {
            let n = r.u64()?;
            let len = r.len_prefix(16)?;
            let mut rows = Vec::with_capacity(len);
            for _ in 0..len {
                rows.push((r.u64()?, r.u64()?));
            }
            (n, rows)
        };
        let mut map = FrequencyMap::default();
        for (x, g) in rows {
            if g == 0 || map.counts.insert(x, g).is_some() {
                return Err(invalid("frequency map row invalid"));
            }
            map.n = map
                .n
                .checked_add(g)
                .ok_or(invalid("frequency map counts overflow u64"))?;
        }
        if map.n != n {
            return Err(invalid("frequency map counts do not sum to n"));
        }
        Ok(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(xs: &[u64]) -> FrequencyMap {
        let mut m = FrequencyMap::default();
        xs.iter().for_each(|&x| m.update(x));
        m
    }

    #[test]
    fn histogram_counts_items_per_frequency_ascending() {
        let m = map_of(&[5, 5, 5, 9, 9, 1, 2, 3]);
        assert_eq!(m.histogram(), vec![(1, 3), (2, 1), (3, 1)]);
        assert_eq!((m.n(), m.distinct(), m.get(5), m.get(4)), (8, 5, 3, 0));
    }

    #[test]
    fn merge_adds_counts_and_into_empty_copies() {
        let (a, b) = (map_of(&[1, 1, 2]), map_of(&[2, 3, 3, 3]));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = FrequencyMap::default();
        ba.merge(&b);
        ba.merge(&a);
        for m in [&ab, &ba] {
            assert_eq!((m.n(), m.get(1), m.get(2), m.get(3)), (7, 2, 2, 3));
            assert_eq!(m.histogram(), ab.histogram());
        }
    }

    #[test]
    fn empty_sum_is_positive_zero() {
        let s = FrequencyMap::sum_over(&FrequencyMap::default().histogram(), |g| g as f64);
        assert_eq!(s.to_bits(), 0.0f64.to_bits());
    }
}
