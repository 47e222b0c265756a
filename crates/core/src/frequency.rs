//! The exact frequency map of a sampled stream, the one state behind
//! `ExactCollisions`, `NaiveScaledFk` and `SampledFlowHistogram`. It
//! holds integer counts and their total, so merges are exact `u64` adds
//! in any order, and statistics are read from its frequency histogram in
//! ascending `g`: every result depends only on what the map holds.
//!
//! A map holds its rows in one of two forms, and what it has done picks
//! the form. A map that counts items is a hash map, for O(1) upserts at
//! ingest and merge. A map read from the wire keeps the v2 layout it
//! arrived in — strictly ascending keys and their counts, index-aligned —
//! so restore, a copy into an empty map, a fold of decoded maps
//! ([`FrequencyMap::merge_all`]) and every read touch the rows in key
//! order, without hashing. Counting into a sorted map, or merging one map
//! into a non-empty one, converts it to counting once.

use std::cmp::Ordering;

use sss_codec::{put_keyed_u64s, put_varint_u64, CodecError, Reader};
use sss_hash::{fp_hash_map, FpHashMap};

/// Counts below this are tallied in a dense array by
/// [`FrequencyMap::histogram`]; larger ones go to a hash map. On one core
/// of a 2-vCPU host, `ExactCollisions::estimate(2)` over a decoded
/// 720k-key map with geometric counts (medians of 31, three interleaved
/// runs) takes 1.2–1.3 ms this way against 4.1–4.3 ms with every count
/// tallied in a hash map, and 4.0–4.4 ms against 7.3–7.7 ms on the
/// counting form; on a 100-key map zeroing the array costs under 1 µs.
const DENSE_TALLY: usize = 1024;

/// Item → count, plus the number of counted occurrences `n`.
#[derive(Debug, Clone)]
pub(crate) struct FrequencyMap {
    rows: Rows,
    n: u64,
}

#[derive(Debug, Clone)]
enum Rows {
    /// Item → count, for random upserts.
    Counting(FpHashMap<u64, u64>),
    /// `keys` strictly ascending, `counts[i] ≥ 1` the count of `keys[i]`.
    Sorted { keys: Vec<u64>, counts: Vec<u64> },
}

impl Default for FrequencyMap {
    fn default() -> Self {
        Self {
            rows: Rows::Counting(fp_hash_map()),
            n: 0,
        }
    }
}

impl FrequencyMap {
    pub(crate) fn update(&mut self, x: u64) {
        *self.counting().entry(x).or_insert(0) += 1;
        self.n += 1;
    }

    /// [`FrequencyMap::update`] for each of `xs`, picking the form once.
    pub(crate) fn update_batch(&mut self, xs: &[u64]) {
        let counts = self.counting();
        for &x in xs {
            *counts.entry(x).or_insert(0) += 1;
        }
        self.n += xs.len() as u64;
    }

    /// The counting form: a sorted map converts once, into a hash map
    /// pre-sized to its length.
    fn counting(&mut self) -> &mut FpHashMap<u64, u64> {
        if let Rows::Sorted { keys, counts } = &self.rows {
            let mut map = FpHashMap::with_capacity_and_hasher(keys.len(), Default::default());
            map.extend(keys.iter().copied().zip(counts.iter().copied()));
            self.rows = Rows::Counting(map);
        }
        match &mut self.rows {
            Rows::Counting(map) => map,
            Rows::Sorted { .. } => unreachable!("converted to the counting form above"),
        }
    }

    /// Add `other`'s counts. Into an empty map — the first merge of every
    /// fold from a pristine prototype — this is a copy in `other`'s form;
    /// otherwise `other`'s rows are upserted into the counting form.
    pub(crate) fn merge(&mut self, other: &FrequencyMap) {
        if self.distinct() == 0 {
            self.rows.clone_from(&other.rows);
        } else if other.distinct() > 0 {
            let counts = self.counting();
            other.for_each_row(|x, g| *counts.entry(x).or_insert(0) += g);
        }
        self.n += other.n;
    }

    /// [`FrequencyMap::merge`] of each of `others` in turn, with the same
    /// counts. When `self` and every map in `others` are sorted or empty —
    /// a fold of decoded sites — the maps are joined pairwise in a
    /// balanced tree instead: O(rows · log maps) sequential copies, no
    /// hashing, and the sum stays sorted.
    pub(crate) fn merge_all(&mut self, others: &[&FrequencyMap]) {
        let sorted_or_empty = |m: &FrequencyMap| m.distinct() == 0 || m.sorted_columns().is_some();
        if !(sorted_or_empty(self) && others.iter().all(|m| sorted_or_empty(m))) {
            others.iter().for_each(|m| self.merge(m));
            return;
        }
        let leaves: Vec<(&[u64], &[u64])> = std::iter::once(&*self)
            .chain(others.iter().copied())
            .filter_map(FrequencyMap::sorted_columns)
            .filter(|(keys, _)| !keys.is_empty())
            .collect();
        if leaves.len() < 2 {
            // At most one map has rows: a copy, or nothing to add.
            others.iter().for_each(|m| self.merge(m));
            return;
        }
        let mut level: Vec<(Vec<u64>, Vec<u64>)> = leaves
            .chunks(2)
            .map(|pair| match *pair {
                [a, b] => join(a, b),
                [(keys, counts)] => (keys.to_vec(), counts.to_vec()),
                _ => unreachable!("chunks of one or two"),
            })
            .collect();
        while level.len() > 1 {
            let mut pairs = level.into_iter();
            level = std::iter::from_fn(|| {
                let a = pairs.next()?;
                Some(match pairs.next() {
                    Some(b) => join((&a.0, &a.1), (&b.0, &b.1)),
                    None => a,
                })
            })
            .collect();
        }
        let (keys, counts) = level.pop().expect("two or more leaves join into one");
        self.rows = Rows::Sorted { keys, counts };
        self.n += others.iter().map(|m| m.n).sum::<u64>();
    }

    /// The key and count columns of the sorted form.
    fn sorted_columns(&self) -> Option<(&[u64], &[u64])> {
        match &self.rows {
            Rows::Sorted { keys, counts } => Some((keys, counts)),
            Rows::Counting(_) => None,
        }
    }

    /// Every `(item, count)` row, in key order in the sorted form and in
    /// hash order in the counting form.
    fn for_each_row(&self, mut f: impl FnMut(u64, u64)) {
        match &self.rows {
            // sss-lint: allow(canonical_iteration) — callers add u64 counts, which commute
            Rows::Counting(map) => map.iter().for_each(|(&x, &g)| f(x, g)),
            Rows::Sorted { keys, counts } => keys.iter().zip(counts).for_each(|(&x, &g)| f(x, g)),
        }
    }

    pub(crate) fn get(&self, x: u64) -> u64 {
        match &self.rows {
            Rows::Counting(map) => map.get(&x).copied(),
            Rows::Sorted { keys, counts } => keys
                .binary_search(&x)
                .ok()
                .and_then(|i| counts.get(i).copied()),
        }
        .unwrap_or(0)
    }

    pub(crate) fn distinct(&self) -> usize {
        match &self.rows {
            Rows::Counting(map) => map.len(),
            Rows::Sorted { keys, .. } => keys.len(),
        }
    }

    pub(crate) fn n(&self) -> u64 {
        self.n
    }

    /// `(g, N_g)` for every count `g` present, `N_g` items having been
    /// seen exactly `g` times, in ascending `g`.
    pub(crate) fn histogram(&self) -> Vec<(u64, u64)> {
        let mut dense = vec![0u64; DENSE_TALLY];
        let mut sparse: FpHashMap<u64, u64> = fp_hash_map();
        let mut tally = |g: u64| match usize::try_from(g).ok().and_then(|i| dense.get_mut(i)) {
            Some(n_g) => *n_g += 1,
            None => *sparse.entry(g).or_insert(0) += 1,
        };
        match &self.rows {
            // sss-lint: allow(canonical_iteration) — tallies of u64 ones commute; the output is sorted below
            Rows::Counting(map) => map.values().for_each(|&g| tally(g)),
            Rows::Sorted { counts, .. } => counts.iter().for_each(|&g| tally(g)),
        }
        let mut hist: Vec<(u64, u64)> = (0u64..).zip(dense).filter(|&(_, n_g)| n_g > 0).collect();
        let mut high: Vec<(u64, u64)> = sparse.into_iter().collect();
        high.sort_unstable();
        hist.extend(high);
        hist
    }

    /// `Σ_g N_g·term(g)` over a [`FrequencyMap::histogram`], in its order.
    /// The fold starts at `+0.0`: an empty `Iterator::sum::<f64>()` is
    /// `-0.0`, a different wire image.
    pub(crate) fn sum_over(hist: &[(u64, u64)], term: impl Fn(u64) -> f64) -> f64 {
        hist.iter()
            .fold(0.0, |acc, &(g, n_g)| acc + n_g as f64 * term(g))
    }

    /// `n`, then the rows as a keyed table.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        put_varint_u64(out, self.n);
        match &self.rows {
            Rows::Counting(map) => {
                let mut rows: Vec<(u64, u64)> = map.iter().map(|(&x, &g)| (x, g)).collect();
                rows.sort_unstable();
                put_keyed_u64s(out, rows.iter().copied());
            }
            Rows::Sorted { keys, counts } => {
                put_keyed_u64s(out, keys.iter().copied().zip(counts.iter().copied()));
            }
        }
    }

    /// Decode into the sorted form, rejecting zero counts and counts that
    /// do not sum to `n`.
    pub(crate) fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let invalid = |what| CodecError::Invalid { what };
        let n = r.count_u64()?;
        let (keys, counts) = r.keyed_u64s()?;
        let mut sum = 0u64;
        for &g in &counts {
            if g == 0 {
                return Err(invalid("frequency map row invalid"));
            }
            sum = sum
                .checked_add(g)
                .ok_or(invalid("frequency map counts overflow u64"))?;
        }
        if sum != n {
            return Err(invalid("frequency map counts do not sum to n"));
        }
        Ok(FrequencyMap {
            rows: Rows::Sorted { keys, counts },
            n,
        })
    }
}

/// The row-wise sum of two sorted column pairs, in one linear pass.
fn join(
    (a_keys, a_counts): (&[u64], &[u64]),
    (b_keys, b_counts): (&[u64], &[u64]),
) -> (Vec<u64>, Vec<u64>) {
    let cap = a_keys.len() + b_keys.len();
    let (mut keys, mut counts) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    let (mut i, mut j) = (0, 0);
    while i < a_keys.len() && j < b_keys.len() {
        let (x, y) = (a_keys[i], b_keys[j]);
        keys.push(x.min(y));
        counts.push(match x.cmp(&y) {
            Ordering::Less => {
                i += 1;
                a_counts[i - 1]
            }
            Ordering::Greater => {
                j += 1;
                b_counts[j - 1]
            }
            Ordering::Equal => {
                i += 1;
                j += 1;
                a_counts[i - 1] + b_counts[j - 1]
            }
        });
    }
    keys.extend_from_slice(&a_keys[i..]);
    counts.extend_from_slice(&a_counts[i..]);
    keys.extend_from_slice(&b_keys[j..]);
    counts.extend_from_slice(&b_counts[j..]);
    (keys, counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_of(xs: &[u64]) -> FrequencyMap {
        let mut m = FrequencyMap::default();
        xs.iter().for_each(|&x| m.update(x));
        m
    }

    fn encoded(m: &FrequencyMap) -> Vec<u8> {
        let mut out = Vec::new();
        m.encode_into(&mut out);
        out
    }

    /// The same multiset in the sorted form, as a decode leaves it.
    fn sorted_of(xs: &[u64]) -> FrequencyMap {
        let m = FrequencyMap::decode(&mut Reader::new(&encoded(&map_of(xs)))).unwrap();
        assert!(is_sorted(&m));
        m
    }

    fn is_sorted(m: &FrequencyMap) -> bool {
        matches!(m.rows, Rows::Sorted { .. })
    }

    /// Everything a reader can see of a map agrees between `a` and `b`.
    fn assert_same(a: &FrequencyMap, b: &FrequencyMap) {
        assert_eq!((a.n(), a.distinct()), (b.n(), b.distinct()));
        assert_eq!(a.histogram(), b.histogram());
        assert_eq!(encoded(a), encoded(b));
        for x in 0..40 {
            assert_eq!(a.get(x), b.get(x), "get({x})");
        }
    }

    fn merged(a: &FrequencyMap, b: &FrequencyMap) -> FrequencyMap {
        let mut m = a.clone();
        m.merge(b);
        m
    }

    const A: &[u64] = &[5, 5, 5, 9, 9, 1, 2, 3, 30];
    const B: &[u64] = &[2, 2, 3, 7, 9, 9, 9, 31];
    const DISJOINT: &[u64] = &[0, 4, 4, 6, 8, 8, 8, 8, 12];

    #[test]
    fn histogram_counts_items_per_frequency_ascending() {
        let m = map_of(&[5, 5, 5, 9, 9, 1, 2, 3]);
        assert_eq!(m.histogram(), vec![(1, 3), (2, 1), (3, 1)]);
        assert_eq!((m.n(), m.distinct(), m.get(5), m.get(4)), (8, 5, 3, 0));
    }

    #[test]
    fn histogram_is_ascending_across_the_dense_tally_bound() {
        let mut xs = vec![7; DENSE_TALLY + 5];
        xs.extend(vec![8; DENSE_TALLY - 1]);
        xs.extend(vec![9; 3 * DENSE_TALLY]);
        xs.extend([1, 2, 2]);
        let want = vec![
            (1, 1),
            (2, 1),
            (DENSE_TALLY as u64 - 1, 1),
            (DENSE_TALLY as u64 + 5, 1),
            (3 * DENSE_TALLY as u64, 1),
        ];
        assert_eq!(map_of(&xs).histogram(), want);
        assert_eq!(sorted_of(&xs).histogram(), want);
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

    #[test]
    fn both_forms_read_and_encode_the_same() {
        let (counting, sorted) = (map_of(A), sorted_of(A));
        assert!(!is_sorted(&counting));
        assert_same(&counting, &sorted);
        assert_same(&FrequencyMap::default(), &sorted_of(&[]));
    }

    #[test]
    fn merge_into_empty_copies_either_form() {
        for empty in [FrequencyMap::default(), sorted_of(&[])] {
            let copied = merged(&empty, &sorted_of(A));
            assert!(is_sorted(&copied));
            assert_same(&copied, &map_of(A));
            let copied = merged(&empty, &map_of(A));
            assert!(!is_sorted(&copied));
            assert_same(&copied, &map_of(A));
        }
    }

    #[test]
    fn merge_into_a_non_empty_map_counts_in_every_form_pair() {
        let form = |xs: &[u64], sorted: bool| if sorted { sorted_of(xs) } else { map_of(xs) };
        for (a, b) in [(A, B), (A, DISJOINT), (DISJOINT, A), (B, A)] {
            for (a_sorted, b_sorted) in [(true, true), (true, false), (false, true)] {
                let m = merged(&form(a, a_sorted), &form(b, b_sorted));
                assert!(!is_sorted(&m));
                assert_same(&m, &map_of(&[a, b].concat()));
            }
        }
        // An empty `other` leaves a sorted map as it was.
        let m = merged(&sorted_of(A), &sorted_of(&[]));
        assert!(is_sorted(&m));
        assert_same(&m, &map_of(A));
    }

    #[test]
    fn merge_all_joins_sorted_maps_and_adds_like_merge() {
        let all = [A, B, &[][..], DISJOINT, A, B].map(sorted_of);
        for into in [FrequencyMap::default(), sorted_of(&[]), sorted_of(DISJOINT)] {
            for len in 1..=all.len() {
                let maps: Vec<&FrequencyMap> = all[..len].iter().collect();
                let mut one_by_one = into.clone();
                maps.iter().for_each(|m| one_by_one.merge(m));
                let mut joined = into.clone();
                joined.merge_all(&maps);
                assert!(is_sorted(&joined), "{len} sorted maps");
                assert_same(&joined, &one_by_one);
            }
        }
        // With a counting map among them the merges run one by one.
        let mut joined = sorted_of(B);
        joined.merge_all(&[&sorted_of(A), &map_of(B), &sorted_of(DISJOINT)]);
        assert!(!is_sorted(&joined));
        assert_same(&joined, &map_of(&[B, A, B, DISJOINT].concat()));
    }

    #[test]
    fn ingest_after_decode_continues_like_the_live_map() {
        let (head, tail) = ([A, B].concat(), [DISJOINT, A].concat());
        let mut live = map_of(&head);
        let mut restored = sorted_of(&head);
        live.update_batch(&tail);
        restored.update_batch(&tail);
        assert!(!is_sorted(&restored));
        assert_same(&live, &restored);
        live.update(3);
        restored.update(3);
        assert_same(&live, &restored);
    }
}
