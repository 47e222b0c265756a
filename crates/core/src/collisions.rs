//! Collision oracles: the `C̃_ℓ(L)` providers plugged into Algorithm 1.
//!
//! The paper computes `C̃_ℓ(L)` with the Indyk–Woodruff estimator (Theorem
//! 2). We expose that behind a trait with two implementations so that
//! experiments can separate the two error sources of Lemma 3:
//!
//! * [`ExactCollisions`] — exact collision counting from the frequency
//!   map of the *sampled* stream. Space `O(F_0(L))`; isolates the
//!   Bernoulli-sampling error (events `E¹_ℓ`, Lemma 5).
//! * [`LevelSetCollisions`] — the paper's sketched path at
//!   `Õ(p⁻¹m^{1−2/k})` space; adds the sketching error (events `E²_ℓ`,
//!   Lemmas 6–7).

use sss_codec::{CodecError, Reader, WireCodec};
use sss_sketch::levelset::{LevelSetConfig, LevelSetEstimator};
use sss_sketch::Mismatch;
use sss_stream::exact::binom_f64;

use crate::frequency::FrequencyMap;
use crate::stirling::MAX_K;

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

    /// [`CollisionOracle::merge`] of each of `others` in turn: a fold of
    /// several sites into `self`, which an oracle may do in one pass.
    ///
    /// # Panics
    /// When [`CollisionOracle::check_merge`] fails for any of `others`.
    fn merge_all(&mut self, others: &[&Self])
    where
        Self: Sized,
    {
        others.iter().for_each(|o| self.merge(o));
    }

    /// Exact number of elements ingested (`F_1(L)`; a single counter).
    fn n(&self) -> u64;

    /// Estimate `C_ℓ` of the ingested stream, for `1 ≤ ℓ ≤ max_order`.
    fn estimate(&self, ell: u32) -> f64;

    /// Largest `ℓ` this oracle supports.
    fn max_order(&self) -> u32;

    /// Memory footprint in 64-bit words (for the space experiments).
    fn space_words(&self) -> usize;
}

/// Exact collision counting from the frequency map of the sampled
/// stream: `C_ℓ = Σ_g N_g·binom(g, ℓ)` over its frequency histogram,
/// so merges are exact integer adds in any order.
#[derive(Debug, Clone)]
pub struct ExactCollisions {
    freqs: FrequencyMap,
    k: u32,
}

impl ExactCollisions {
    /// Oracle tracking `C_1 … C_k`, `1 ≤ k ≤ MAX_K` (the orders decode
    /// accepts).
    pub fn new(k: u32) -> Self {
        assert!((1..=MAX_K).contains(&k), "need 1 <= k <= {MAX_K}");
        Self {
            freqs: FrequencyMap::default(),
            k,
        }
    }

    /// The exact frequency of `x` in the ingested stream.
    pub fn freq(&self, x: u64) -> u64 {
        self.freqs.get(x)
    }

    /// Number of distinct ingested items.
    pub fn distinct(&self) -> u64 {
        self.freqs.distinct() as u64
    }
}

/// `C_ℓ` from a frequency histogram — what [`ExactCollisions`] estimates
/// and what its encoder writes.
fn collisions(hist: &[(u64, u64)], ell: u32) -> f64 {
    FrequencyMap::sum_over(hist, |g| binom_f64(g, ell))
}

impl CollisionOracle for ExactCollisions {
    fn update(&mut self, x: u64) {
        self.freqs.update(x);
    }

    fn update_batch(&mut self, xs: &[u64]) {
        self.freqs.update_batch(xs);
    }

    fn check_merge(&self, other: &Self) -> Result<(), Mismatch> {
        Mismatch::unless(self.k == other.k, "ExactCollisions order")
    }

    fn merge(&mut self, other: &Self) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        self.freqs.merge(&other.freqs);
    }

    fn merge_all(&mut self, others: &[&Self]) {
        for o in others {
            self.check_merge(o).unwrap_or_else(|e| panic!("{e}"));
        }
        let maps: Vec<_> = others.iter().map(|o| &o.freqs).collect();
        self.freqs.merge_all(&maps);
    }

    fn n(&self) -> u64 {
        self.freqs.n()
    }

    fn estimate(&self, ell: u32) -> f64 {
        assert!(ell >= 1 && ell <= self.k, "order {ell} out of range");
        collisions(&self.freqs.histogram(), ell)
    }

    fn max_order(&self) -> u32 {
        self.k
    }

    fn space_words(&self) -> usize {
        2 * self.freqs.distinct()
    }
}

impl WireCodec for ExactCollisions {
    const WIRE_TAG: u16 = 0x040B;

    fn encode_into(&self, out: &mut Vec<u8>) {
        // `c[ℓ] = C_ℓ` (index 0 unused) leads the layout because older
        // readers answer from it; it is derived from the map, which
        // follows in the shared frequency-map layout.
        let hist = self.freqs.histogram();
        let mut c = vec![0.0];
        c.extend((1..=self.k).map(|ell| collisions(&hist, ell)));
        c.encode_into(out);
        self.freqs.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        // The map is the source of truth: `c` only fixes the order.
        let c: Vec<f64> = Vec::decode(r)?;
        if c.len() < 2 || c.len() - 1 > MAX_K as usize {
            return Err(CodecError::Invalid {
                what: "ExactCollisions order outside 1..=MAX_K",
            });
        }
        Ok(ExactCollisions {
            freqs: FrequencyMap::decode(r)?,
            k: c.len() as u32 - 1,
        })
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
    fn encoded_c_is_the_estimate_and_decode_takes_the_map() {
        let mut oracle = ExactCollisions::new(4);
        let stream: Vec<u64> = (0..3000u64).map(|i| (i % 41) * (i % 7)).collect();
        oracle.update_batch(&stream);
        let payload = oracle.encode();
        let mut r = Reader::new(&payload);
        let c: Vec<f64> = Vec::decode(&mut r).expect("c column");
        assert_eq!(c[0].to_bits(), 0.0f64.to_bits());
        for ell in 1..=4u32 {
            assert_eq!(c[ell as usize].to_bits(), oracle.estimate(ell).to_bits());
        }
        let map = &payload[payload.len() - r.remaining()..];
        for (len, ok) in [(MAX_K as usize + 1, true), (MAX_K as usize + 2, false)] {
            // Any `c` values: the map is the source of truth.
            let mut bytes = Vec::new();
            vec![f64::NAN; len].encode_into(&mut bytes);
            bytes.extend_from_slice(map);
            let decoded = ExactCollisions::decode_slice(&bytes);
            assert_eq!(decoded.is_ok(), ok, "c of length {len}");
            if let Ok(d) = decoded {
                assert_eq!(d.max_order(), MAX_K);
                assert_eq!(d.estimate(4).to_bits(), oracle.estimate(4).to_bits());
            }
        }
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
