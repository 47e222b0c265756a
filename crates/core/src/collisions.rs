//! Collision oracles: the `C̃_ℓ(L)` providers plugged into Algorithm 1.
//!
//! The paper computes `C̃_ℓ(L)` with the Indyk–Woodruff estimator (Theorem
//! 2). We expose that behind a trait with two implementations so that
//! experiments can separate the two error sources of Lemma 3:
//!
//! * [`ExactCollisions`] — exact incremental collision counting from a
//!   frequency map of the *sampled* stream. Space `O(F_0(L))`; isolates the
//!   Bernoulli-sampling error (events `E¹_ℓ`, Lemma 5).
//! * [`LevelSetCollisions`] — the paper's sketched path at
//!   `Õ(p⁻¹m^{1−2/k})` space; adds the sketching error (events `E²_ℓ`,
//!   Lemmas 6–7).

use sss_codec::{
    put_packed_sorted_u64s, put_varint_u64, put_varint_u64s, CodecError, Reader, WireCodec,
};
use sss_hash::{fp_hash_map, FpHashMap};
use sss_sketch::levelset::{LevelSetConfig, LevelSetEstimator};
use sss_sketch::Mismatch;

/// A one-pass structure that observes the sampled stream and can estimate
/// the `ℓ`-wise collision counts `C_ℓ` of what it saw.
pub trait CollisionOracle {
    /// Ingest one element of the sampled stream.
    fn update(&mut self, x: u64);

    /// Ingest a batch of consecutive elements (semantically identical to
    /// one-by-one updates).
    fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Whether `other` has this oracle's configuration (order, sketch
    /// dimensions and seeds), without mutating anything.
    fn check_merge(&self, other: &Self) -> Result<(), Mismatch>
    where
        Self: Sized;

    /// Merge a second oracle of the same configuration: afterwards `self`
    /// summarises the concatenation of both ingested streams.
    ///
    /// # Panics
    /// When [`CollisionOracle::check_merge`] fails.
    fn merge(&mut self, other: &Self)
    where
        Self: Sized;

    /// Exact number of elements ingested (`F_1(L)`; a single counter).
    fn n(&self) -> u64;

    /// Estimate `C_ℓ` of the ingested stream, for `1 ≤ ℓ ≤ max_order`.
    fn estimate(&self, ell: u32) -> f64;

    /// Largest `ℓ` this oracle supports.
    fn max_order(&self) -> u32;

    /// Memory footprint in 64-bit words (for the space experiments).
    fn space_words(&self) -> usize;
}

/// Exact collision counting via a frequency map, maintained incrementally:
/// when an item's count rises from `g` to `g+1`, `C_ℓ` grows by
/// `binom(g, ℓ−1)` — `O(k)` work per update.
#[derive(Debug, Clone)]
pub struct ExactCollisions {
    freqs: FpHashMap<u64, u64>,
    /// `c[ℓ]` holds `C_ℓ`; index 0 unused, `c[1] = n`.
    c: Vec<f64>,
    n: u64,
}

impl ExactCollisions {
    /// Oracle tracking `C_1 … C_k`.
    pub fn new(k: u32) -> Self {
        assert!(k >= 1, "need k >= 1");
        Self {
            freqs: fp_hash_map(),
            c: vec![0.0; k as usize + 1],
            n: 0,
        }
    }

    /// The exact frequency of `x` in the ingested stream.
    pub fn freq(&self, x: u64) -> u64 {
        self.freqs.get(&x).copied().unwrap_or(0)
    }

    /// Number of distinct ingested items.
    pub fn distinct(&self) -> u64 {
        self.freqs.len() as u64
    }
}

/// `binom(f, ℓ)` over `f64` (local copy; `sss-stream` is a dev-dependency
/// only).
fn binom_f64(f: u64, l: u32) -> f64 {
    if (f as u128) < l as u128 {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for j in 0..l as u64 {
        acc *= (f - j) as f64 / (j + 1) as f64;
    }
    acc
}

impl CollisionOracle for ExactCollisions {
    fn update(&mut self, x: u64) {
        let g = self.freqs.entry(x).or_insert(0);
        let old = *g;
        *g += 1;
        self.n += 1;
        // ΔC_ℓ = binom(old, ℓ−1); running product avoids recomputation:
        // binom(old, 0) = 1, binom(old, j) = binom(old, j−1)·(old−j+1)/j.
        let mut binom = 1.0f64;
        self.c[1] += 1.0;
        for ell in 2..self.c.len() as u32 {
            let j = (ell - 1) as u64;
            if old < j {
                break; // all higher binomials are zero
            }
            binom *= (old - (j - 1)) as f64 / j as f64;
            self.c[ell as usize] += binom;
        }
    }

    /// Merge per shared item by patching the collision counts in closed
    /// form, `ΔC_ℓ = binom(a+b, ℓ) − binom(a, ℓ) − binom(b, ℓ)` — `O(k)`
    /// per item of `other`. Patches apply in ascending item order so the
    /// float accumulation is canonical: merging a deserialized oracle
    /// (same contents, different hash-map history) lands on bitwise the
    /// same `C_ℓ` as merging the original.
    fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        Mismatch::unless(self.c.len() == other.c.len(), "ExactCollisions order")
    }

    fn merge(&mut self, other: &Self) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        let k = self.c.len() as u32 - 1;
        // Start from the sum of both accumulators, then patch shared items.
        for ell in 1..=k as usize {
            self.c[ell] += other.c[ell];
        }
        let mut rows: Vec<(u64, u64)> = other.freqs.iter().map(|(&i, &g)| (i, g)).collect();
        rows.sort_unstable();
        for (item, b) in rows {
            let a = self.freq(item);
            if a > 0 {
                for ell in 2..=k {
                    self.c[ell as usize] +=
                        binom_f64(a + b, ell) - binom_f64(a, ell) - binom_f64(b, ell);
                }
            }
            self.freqs.insert(item, a + b);
        }
        self.n += other.n;
    }

    fn n(&self) -> u64 {
        self.n
    }

    fn estimate(&self, ell: u32) -> f64 {
        assert!(
            ell >= 1 && (ell as usize) < self.c.len(),
            "order {ell} out of range"
        );
        self.c[ell as usize]
    }

    fn max_order(&self) -> u32 {
        self.c.len() as u32 - 1
    }

    fn space_words(&self) -> usize {
        2 * self.freqs.len() + self.c.len()
    }
}

impl WireCodec for ExactCollisions {
    const WIRE_TAG: u16 = 0x040B;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // v2 layout: the frequency map — the O(F_0(L)) bulk of Algorithm
        // 1's state — ships columnar: sorted-delta item ids + FoR-packed
        // sampled counts. The collision accumulators stay raw f64.
        self.c.encode_into(out);
        put_varint_u64(out, self.n);
        let mut rows: Vec<(u64, u64)> = self.freqs.iter().map(|(&i, &g)| (i, g)).collect();
        rows.sort_unstable();
        put_packed_sorted_u64s(out, &rows.iter().map(|&(i, _)| i).collect::<Vec<_>>());
        put_varint_u64s(out, &rows.iter().map(|&(_, g)| g).collect::<Vec<_>>());
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let c: Vec<f64> = Vec::decode(r)?;
        if c.len() < 2 {
            return Err(CodecError::Invalid {
                what: "ExactCollisions accumulator shorter than [unused, C_1]",
            });
        }
        let (n, rows);
        if r.v2() {
            n = r.varint_u64()?;
            let items = r.packed_sorted_u64s()?;
            let gs = r.varint_u64s()?;
            if gs.len() != items.len() {
                return Err(CodecError::Invalid {
                    what: "ExactCollisions column length mismatch",
                });
            }
            rows = items.into_iter().zip(gs).collect::<Vec<_>>();
        } else {
            n = r.u64()?;
            let len = r.len_prefix(16)?;
            let mut v = Vec::with_capacity(len);
            for _ in 0..len {
                v.push((r.u64()?, r.u64()?));
            }
            rows = v;
        }
        let mut freqs = fp_hash_map();
        let mut total: u64 = 0;
        for (item, g) in rows {
            if g == 0 || freqs.insert(item, g).is_some() {
                return Err(CodecError::Invalid {
                    what: "ExactCollisions frequency row invalid",
                });
            }
            total = total.checked_add(g).ok_or(CodecError::Invalid {
                what: "ExactCollisions frequencies overflow u64",
            })?;
        }
        if total != n {
            return Err(CodecError::Invalid {
                what: "ExactCollisions frequencies do not sum to n",
            });
        }
        Ok(ExactCollisions { freqs, c, n })
    }
}

/// Collision estimation through the Indyk–Woodruff level-set sketch.
#[derive(Debug, Clone)]
pub struct LevelSetCollisions {
    inner: LevelSetEstimator,
    max_order: u32,
}

impl LevelSetCollisions {
    /// Oracle for orders up to `k`, backed by a level-set estimator with the
    /// given configuration.
    pub fn new(k: u32, config: &LevelSetConfig, seed: u64) -> Self {
        assert!(k >= 1);
        Self {
            inner: LevelSetEstimator::new(config, seed),
            max_order: k,
        }
    }

    /// Access the underlying level-set estimator (for diagnostics).
    pub fn level_sets(&self) -> &LevelSetEstimator {
        &self.inner
    }
}

impl CollisionOracle for LevelSetCollisions {
    fn update(&mut self, x: u64) {
        self.inner.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.inner.update_batch(xs);
    }

    fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        Mismatch::unless(
            self.max_order == other.max_order,
            "LevelSetCollisions order",
        )?;
        self.inner.check_merge(&other.inner)
    }

    fn merge(&mut self, other: &Self) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.inner.merge(&other.inner);
    }

    fn n(&self) -> u64 {
        self.inner.n()
    }

    fn estimate(&self, ell: u32) -> f64 {
        assert!(
            ell >= 1 && ell <= self.max_order,
            "order {ell} out of range"
        );
        self.inner.collision_estimate(ell)
    }

    fn max_order(&self) -> u32 {
        self.max_order
    }

    fn space_words(&self) -> usize {
        self.inner.space_words()
    }
}

impl WireCodec for LevelSetCollisions {
    const WIRE_TAG: u16 = 0x040C;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.max_order.encode_into(out);
        self.inner.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let max_order = r.u32()?;
        if max_order == 0 {
            return Err(CodecError::Invalid {
                what: "LevelSetCollisions order == 0",
            });
        }
        Ok(LevelSetCollisions {
            inner: LevelSetEstimator::decode(r)?,
            max_order,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_stream::exact::binom_u128;
    use sss_stream::ExactStats;

    #[test]
    fn incremental_matches_batch_formula() {
        let stream: Vec<u64> = (0..5000u64).map(|i| i % 137).collect();
        let mut oracle = ExactCollisions::new(5);
        for &x in &stream {
            oracle.update(x);
        }
        let stats = ExactStats::from_stream(stream.iter().copied());
        for ell in 1..=5u32 {
            let exact = stats.collisions(ell);
            let got = oracle.estimate(ell);
            assert!(
                (got - exact).abs() <= 1e-9 * exact.max(1.0),
                "C_{ell}: {got} vs {exact}"
            );
        }
    }

    #[test]
    fn single_item_collisions_are_binomials() {
        let mut oracle = ExactCollisions::new(4);
        for _ in 0..100 {
            oracle.update(9);
        }
        for ell in 1..=4u32 {
            assert_eq!(
                oracle.estimate(ell),
                binom_u128(100, ell).unwrap() as f64,
                "ℓ={ell}"
            );
        }
        assert_eq!(oracle.freq(9), 100);
        assert_eq!(oracle.distinct(), 1);
    }

    #[test]
    fn all_distinct_has_no_collisions() {
        let mut oracle = ExactCollisions::new(3);
        for x in 0..1000u64 {
            oracle.update(x);
        }
        assert_eq!(oracle.estimate(1), 1000.0);
        assert_eq!(oracle.estimate(2), 0.0);
        assert_eq!(oracle.estimate(3), 0.0);
    }

    #[test]
    fn levelset_oracle_roughly_agrees_with_exact() {
        // Mixed-frequency stream exercising both recovery regimes.
        let mut stream = Vec::new();
        for hot in 0..5u64 {
            stream.extend(std::iter::repeat_n(sss_hash::fingerprint64(hot), 2000));
        }
        for light in 100..4100u64 {
            stream.extend(std::iter::repeat_n(sss_hash::fingerprint64(light), 3));
        }
        let cfg = LevelSetConfig::for_universe(1 << 16, 512);
        let mut ls = LevelSetCollisions::new(3, &cfg, 7);
        let mut ex = ExactCollisions::new(3);
        for &x in &stream {
            ls.update(x);
            ex.update(x);
        }
        assert_eq!(ls.n(), ex.n());
        for ell in 2..=3u32 {
            let truth = ex.estimate(ell);
            let est = ls.estimate(ell);
            let rel = (est - truth).abs() / truth;
            assert!(rel < 0.35, "C_{ell}: {est} vs {truth} (rel {rel})");
        }
    }

    #[test]
    fn space_accounting_is_positive_and_ordered() {
        let cfg = LevelSetConfig::for_universe(1 << 16, 256);
        let ls = LevelSetCollisions::new(2, &cfg, 1);
        assert!(ls.space_words() > 256);
        let mut ex = ExactCollisions::new(2);
        for x in 0..100u64 {
            ex.update(x);
        }
        assert!(ex.space_words() >= 200);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn order_bounds_enforced() {
        let oracle = ExactCollisions::new(3);
        let _ = oracle.estimate(4);
    }

    #[test]
    fn merge_equals_concatenation() {
        let left: Vec<u64> = (0..4000u64).map(|i| i % 97).collect();
        let right: Vec<u64> = (0..3000u64).map(|i| i % 41).collect();
        let mut a = ExactCollisions::new(4);
        let mut b = ExactCollisions::new(4);
        let mut whole = ExactCollisions::new(4);
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
        assert_eq!(a.distinct(), whole.distinct());
        for ell in 1..=4u32 {
            let merged = a.estimate(ell);
            let direct = whole.estimate(ell);
            assert!(
                (merged - direct).abs() <= 1e-6 * direct.max(1.0),
                "C_{ell}: merged {merged} vs direct {direct}"
            );
        }
    }

    #[test]
    fn merge_with_disjoint_items() {
        let mut a = ExactCollisions::new(3);
        let mut b = ExactCollisions::new(3);
        for _ in 0..10 {
            a.update(1);
            b.update(2);
        }
        a.merge(&b);
        assert_eq!(a.estimate(2), 2.0 * 45.0); // two items of freq 10
        assert_eq!(a.freq(1), 10);
        assert_eq!(a.freq(2), 10);
    }

    #[test]
    fn merge_into_empty_oracle() {
        let mut a = ExactCollisions::new(3);
        let mut b = ExactCollisions::new(3);
        for x in 0..100u64 {
            b.update(x % 7);
        }
        a.merge(&b);
        for ell in 1..=3u32 {
            assert_eq!(a.estimate(ell), b.estimate(ell));
        }
    }
}
