//! Indyk–Woodruff level-set estimation (STOC 2005), the `C̃_ℓ(L)` black box
//! of the paper's Algorithm 1 (its Theorem 2).
//!
//! The structure estimates the sizes of the geometric frequency classes
//!
//! ```text
//! S_i = { j : η·(1+ε′)^i ≤ g_j < η·(1+ε′)^{i+1} }
//! ```
//!
//! of the ingested stream, where `η` is a random boundary shift. From the
//! estimated class sizes `s̃_i` the collision counts follow as
//! `C̃_ℓ = Σ_i s̃_i · binom(v_i, ℓ)` with `v_i = η(1+ε′)^i` — the exact
//! formula in §3.1 of the paper.
//!
//! **How class sizes are recovered.** Level `j ∈ {0, …, J}` ingests item
//! `x` iff a pairwise-independent hash gives `x` at least `j` trailing zero
//! bits, so level `j` sees a `2^{−j}` item-subsample of the stream (level 0
//! sees everything). Each level runs a CountSketch plus a candidate
//! tracker. A frequency class `v_i` is read off the *shallowest* level at
//! which items of weight `v_i` are heavy enough to be recovered reliably —
//! `v_i² ≥ slack·F̂_2(level j)/width` — and the surviving class members are
//! counted and scaled by `2^j`. Heavy classes resolve at level 0 with no
//! scaling variance; huge classes of light items resolve deep, where few
//! survive but each survivor represents `2^j` peers. This is precisely the
//! trade the Indyk–Woodruff analysis formalises: contributing classes get
//! `(1 ± ε′)` accuracy, negligible classes are at worst overestimated by a
//! constant factor (Theorem 2's `s̃_i ≤ 3|S_i|`).
//!
//! The paper draws `η` uniformly from `(0, 1)` and conditions away the
//! degenerate `η ≈ 0` corner (Lemma 6); we draw `η ∈ [1/2, 1)`, which is
//! that same conditioning realised at construction time.

use sss_codec::{put_varint_u64, CodecError, Reader, WireCodec};
use sss_hash::{PairwiseHash, RngCore64, SplitMix64};

use crate::countsketch::CountSketch;
use crate::topk::{PointSketch, TopKTracker};
use crate::Mismatch;

/// Configuration for a [`LevelSetEstimator`].
#[derive(Debug, Clone)]
pub struct LevelSetConfig {
    /// Number of subsampling levels `J+1` (≈ `lg` of the number of distinct
    /// items expected; extra levels are harmless, missing levels hurt large
    /// sparse classes).
    pub levels: usize,
    /// CountSketch rows per level.
    pub depth: usize,
    /// CountSketch counters per row — the paper's space knob
    /// `Õ(p⁻¹ m^{1−2/k})`.
    pub width: usize,
    /// Candidate-tracker capacity per level (defaults to `width`).
    pub track: usize,
    /// Geometric class ratio `1 + ε′`.
    pub eps_prime: f64,
    /// Reliability slack: a class with value `v` is read at the first level
    /// where `v² ≥ slack·F̂_2(level)/width`.
    pub slack: f64,
}

impl LevelSetConfig {
    /// A reasonable default configuration for a universe of `m` items:
    /// `⌈lg m⌉+1` levels, 5 rows, the given width, `ε′ = 0.1`, slack 32.
    pub fn for_universe(m: u64, width: usize) -> Self {
        let levels = (64 - m.max(2).leading_zeros() as usize) + 1;
        Self {
            levels: levels.min(40),
            depth: 5,
            width,
            track: width,
            eps_prime: 0.1,
            slack: 32.0,
        }
    }
}

/// One subsampling level: a CountSketch and its candidate tracker. The
/// sketch's total counts the stream updates reaching the level.
#[derive(Debug, Clone)]
struct Level {
    cs: CountSketch,
    tracker: TopKTracker,
}

/// Indyk–Woodruff level-set estimator over an insert-only stream.
#[derive(Debug, Clone)]
pub struct LevelSetEstimator {
    levels: Vec<Level>,
    level_hash: PairwiseHash,
    eps_prime: f64,
    slack: f64,
    eta: f64,
    n: u64,
}

/// An estimated frequency class: representative value and estimated size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassEstimate {
    /// Lower boundary `v_i = η(1+ε′)^i` of the class.
    pub value: f64,
    /// Estimated number of distinct items in the class.
    pub size: f64,
    /// The subsampling level the class was read from.
    pub level: usize,
}

impl LevelSetEstimator {
    /// Build the estimator from a configuration and seed.
    pub fn new(config: &LevelSetConfig, seed: u64) -> Self {
        assert!(config.levels >= 1, "need at least one level");
        assert!(
            config.eps_prime > 0.0 && config.eps_prime <= 1.0,
            "eps_prime must be in (0,1]"
        );
        assert!(config.slack >= 1.0, "slack must be >= 1");
        let mut sm = SplitMix64::new(seed);
        let levels = (0..config.levels)
            .map(|_| Level {
                cs: CountSketch::new(config.depth, config.width, sm.derive()),
                tracker: TopKTracker::new(config.track.max(1)),
            })
            .collect();
        let level_hash = PairwiseHash::new(sm.derive());
        // η ∈ [1/2, 1): the paper's random shift conditioned away from 0.
        let eta = 0.5 + 0.5 * sm.next_f64();
        Self {
            levels,
            level_hash,
            eps_prime: config.eps_prime,
            slack: config.slack,
            eta,
            n: 0,
        }
    }

    /// Stream length ingested (`F_1(L)` when fed the sampled stream).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// The random class-boundary shift `η`.
    pub fn eta(&self) -> f64 {
        self.eta
    }

    /// The class ratio parameter `ε′`.
    pub fn eps_prime(&self) -> f64 {
        self.eps_prime
    }

    /// Space in 64-bit words across all levels.
    pub fn space_words(&self) -> usize {
        self.levels
            .iter()
            .map(|l| l.cs.space_words() + 2 * l.tracker.len())
            .sum()
    }

    /// Ingest one occurrence of `x`. Expected cost: two level updates
    /// (`Σ_j 2^{−j} < 2`), each `O(depth)` — the paper's `Õ(1)` per item.
    pub fn update(&mut self, x: u64) {
        self.n += 1;
        let deepest = (self.level_hash.level(x) as usize).min(self.levels.len() - 1);
        for j in 0..=deepest {
            let level = &mut self.levels[j];
            level.cs.update(x, 1);
            let est = level.cs.query(x);
            if est > 0 {
                level.tracker.offer(x, est as f64);
            }
        }
    }

    /// Ingest a batch of occurrences (same result as one-by-one updates).
    pub fn update_batch(&mut self, xs: &[u64]) {
        for &x in xs {
            self.update(x);
        }
    }

    /// Whether `other` was built from the same configuration and seed:
    /// level count, level hash, class shift `η`, class ratio, slack, and
    /// every level's CountSketch and tracker capacity.
    pub fn check_merge(&self, other: &LevelSetEstimator) -> Result<(), Mismatch> {
        Mismatch::unless(
            self.levels.len() == other.levels.len(),
            "LevelSetEstimator level count",
        )?;
        Mismatch::unless(
            self.level_hash == other.level_hash,
            "LevelSetEstimator level hash",
        )?;
        Mismatch::unless(
            self.eta.to_bits() == other.eta.to_bits()
                && self.eps_prime.to_bits() == other.eps_prime.to_bits()
                && self.slack.to_bits() == other.slack.to_bits(),
            "LevelSetEstimator class geometry (η, ε′, slack)",
        )?;
        self.levels
            .iter()
            .zip(&other.levels)
            .try_for_each(|(a, b)| {
                a.cs.check_merge(&b.cs)?;
                a.tracker.check_merge(&b.tracker)
            })
    }

    /// Merge another estimator built from the same configuration and
    /// seed: the per-level CountSketches are linear (counter-wise sum) and
    /// the candidate tables take the union, re-estimated against the
    /// merged sketches. Afterwards `self` summarises the concatenation of
    /// both ingested streams.
    ///
    /// # Panics
    /// When [`LevelSetEstimator::check_merge`] fails.
    pub fn merge(&mut self, other: &LevelSetEstimator) {
        self.check_merge(other).unwrap_or_else(|e| panic!("{e}"));
        for (mine, theirs) in self.levels.iter_mut().zip(&other.levels) {
            mine.cs.merge(&theirs.cs);
            mine.tracker
                .reoffer_union(&theirs.tracker, |item| mine.cs.reoffer_estimate(item));
        }
        self.n += other.n;
    }

    /// Class index of an (estimated, positive) frequency `g`:
    /// the unique `i ≥ 0` with `η(1+ε′)^i ≤ g < η(1+ε′)^{i+1}`.
    fn class_of(&self, g: f64) -> i64 {
        debug_assert!(g > 0.0);
        (g / self.eta).log(1.0 + self.eps_prime).floor() as i64
    }

    /// The lower boundary `v_i = η(1+ε′)^i`.
    fn class_value(&self, i: i64) -> f64 {
        self.eta * (1.0 + self.eps_prime).powi(i as i32)
    }

    /// Estimate the sizes of all non-empty frequency classes.
    pub fn class_estimates(&self) -> Vec<ClassEstimate> {
        // Per-level recovered candidates bucketed into classes.
        let mut per_level: Vec<std::collections::BTreeMap<i64, u64>> = Vec::new();
        for level in &self.levels {
            let mut buckets = std::collections::BTreeMap::new();
            for item in level.tracker.candidates() {
                let est = level.cs.query(item);
                if est >= 1 {
                    *buckets.entry(self.class_of(est as f64)).or_insert(0u64) += 1;
                }
            }
            per_level.push(buckets);
        }
        // Per-level measured F_2 for the reliability rule.
        let f2: Vec<f64> = self.levels.iter().map(|l| l.cs.f2_estimate()).collect();
        let width = self.levels[0].cs.width() as f64;

        // Every class seen at any level, each read from its chosen level.
        let mut all_classes: std::collections::BTreeSet<i64> = std::collections::BTreeSet::new();
        for buckets in &per_level {
            all_classes.extend(buckets.keys().copied());
        }
        let mut out = Vec::with_capacity(all_classes.len());
        for &i in &all_classes {
            let v = self.class_value(i);
            let j = self.read_level_for(v * v, &f2, width);
            let count = per_level[j].get(&i).copied().unwrap_or(0);
            if count == 0 {
                continue;
            }
            out.push(ClassEstimate {
                value: v,
                size: count as f64 * (1u64 << j) as f64,
                level: j,
            });
        }
        out
    }

    /// The shallowest level at which items of squared weight `v²` are
    /// reliably recoverable: `v² ≥ slack·F̂_2(level)/width`.
    fn read_level_for(&self, v_sq: f64, f2: &[f64], width: f64) -> usize {
        for (j, &f2j) in f2.iter().enumerate() {
            if v_sq >= self.slack * f2j / width {
                return j;
            }
        }
        f2.len() - 1
    }

    /// Estimate `C_ℓ = Σ_i binom(g_i, ℓ)` of the ingested stream
    /// (the paper's `C̃_ℓ(L) = Σ_i s̃_i·binom(v_i, ℓ)`).
    pub fn collision_estimate(&self, ell: u32) -> f64 {
        assert!(ell >= 1, "collision order must be >= 1");
        if ell == 1 {
            // C_1 = F_1 is maintained exactly.
            return self.n as f64;
        }
        self.class_estimates()
            .iter()
            .map(|c| c.size * class_binom(c.value, self.eps_prime, ell))
            .sum()
    }
}

impl WireCodec for Level {
    // The v2 lower bound: varint-headed CountSketch + TopKTracker +
    // update count — bounds the pre-allocation a corrupt Vec<Level>
    // length can request (a valid v2 level can be far smaller than its
    // v1 fixed-width image, so the old 64-byte floor would reject
    // honest frames).
    const MIN_WIRE_BYTES: usize = 8;

    /// The update count slot repeats the sketch's total.
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.cs.encode_into(out);
        self.tracker.encode_into(out);
        put_varint_u64(out, self.cs.total());
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let cs = CountSketch::decode(r)?;
        let tracker = TopKTracker::decode(r)?;
        if r.count_u64()? != cs.total() {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator level update count differs from its sketch total",
            });
        }
        Ok(Level { cs, tracker })
    }
}

impl WireCodec for LevelSetEstimator {
    const WIRE_TAG: u16 = 0x020D;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.levels.encode_into(out);
        self.level_hash.encode_into(out);
        self.eps_prime.encode_into(out);
        self.slack.encode_into(out);
        self.eta.encode_into(out);
        self.n.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let levels: Vec<Level> = Vec::decode(r)?;
        let level_hash = PairwiseHash::decode(r)?;
        let eps_prime = r.f64()?;
        let slack = r.f64()?;
        let eta = r.f64()?;
        let n = r.u64()?;
        let Some((first, rest)) = levels.split_first() else {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator with no levels",
            });
        };
        if rest
            .iter()
            .any(|l| l.cs.width() != first.cs.width() || l.cs.depth() != first.cs.depth())
        {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator levels disagree on sketch dimensions",
            });
        }
        if !(eps_prime > 0.0 && eps_prime <= 1.0) {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator eps_prime outside (0,1]",
            });
        }
        if slack.is_nan() || slack < 1.0 {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator slack < 1",
            });
        }
        if !(0.5..1.0).contains(&eta) {
            return Err(CodecError::Invalid {
                what: "LevelSetEstimator eta outside [1/2, 1)",
            });
        }
        Ok(LevelSetEstimator {
            levels,
            level_hash,
            eps_prime,
            slack,
            eta,
            n,
        })
    }
}

/// Per-item collision contribution of a class `[lo, lo(1+ε′))`: `binom` of
/// the smallest integer the class can contain (the paper uses the lower
/// boundary; rounding up to the first integer keeps the small classes that
/// straddle `ℓ` — e.g. `[1.9, 2.05) ∋ 2` for `ℓ = 2` — from being dropped).
fn class_binom(lo: f64, eps_prime: f64, ell: u32) -> f64 {
    let hi = lo * (1.0 + eps_prime);
    let g = lo.ceil().max(ell as f64); // smallest integer with binom > 0
    if g >= hi {
        return 0.0;
    }
    let mut acc = 1.0f64;
    for j in 0..ell {
        acc *= (g - j as f64) / (j as f64 + 1.0);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A stream with explicit geometric frequency classes:
    /// `spec = [(count, freq)]` → `count` distinct items of frequency `freq`.
    fn class_stream(spec: &[(u64, u64)]) -> (Vec<u64>, f64, f64) {
        let mut stream = Vec::new();
        let mut next_id = 0u64;
        let (mut c2, mut c3) = (0.0f64, 0.0f64);
        for &(count, freq) in spec {
            for _ in 0..count {
                let id = sss_hash::fingerprint64(next_id); // spread ids
                next_id += 1;
                for _ in 0..freq {
                    stream.push(id);
                }
                let f = freq as f64;
                c2 += f * (f - 1.0) / 2.0;
                c3 += f * (f - 1.0) * (f - 2.0) / 6.0;
            }
        }
        // Deterministic interleave.
        let mut rng = sss_hash::Xoshiro256pp::new(12345);
        for i in (1..stream.len()).rev() {
            let j = rng.next_below(i as u64 + 1) as usize;
            stream.swap(i, j);
        }
        (stream, c2, c3)
    }

    fn build(stream: &[u64], width: usize, seed: u64) -> LevelSetEstimator {
        let cfg = LevelSetConfig {
            levels: 18,
            ..LevelSetConfig::for_universe(1 << 18, width)
        };
        let mut ls = LevelSetEstimator::new(&cfg, seed);
        for &x in stream {
            ls.update(x);
        }
        ls
    }

    #[test]
    fn class_of_and_value_are_inverse() {
        let cfg = LevelSetConfig::for_universe(1 << 10, 64);
        let ls = LevelSetEstimator::new(&cfg, 1);
        for g in [1.0f64, 2.0, 10.0, 1234.5, 1e6] {
            let i = ls.class_of(g);
            let lo = ls.class_value(i);
            let hi = ls.class_value(i + 1);
            assert!(lo <= g * 1.0000001 && g < hi, "g={g} lo={lo} hi={hi}");
        }
    }

    #[test]
    fn heavy_classes_are_recovered_at_level_zero() {
        // 4 items of frequency 5000 dominate F_2.
        let (stream, _, _) = class_stream(&[(4, 5000), (100, 10)]);
        let ls = build(&stream, 256, 2);
        let classes = ls.class_estimates();
        let heavy: Vec<&ClassEstimate> = classes
            .iter()
            .filter(|c| c.value > 4000.0 && c.value < 6000.0)
            .collect();
        let total: f64 = heavy.iter().map(|c| c.size).sum();
        assert!(
            (total - 4.0).abs() <= 1.0,
            "heavy class size = {total}, classes = {classes:?}"
        );
        for c in heavy {
            assert_eq!(c.level, 0, "heavy class read at deep level");
        }
    }

    #[test]
    fn large_light_class_estimated_via_subsampling() {
        // 20_000 items of frequency 2 cannot fit any sketch at level 0.
        let (stream, _, _) = class_stream(&[(20_000, 2)]);
        let ls = build(&stream, 256, 3);
        let classes = ls.class_estimates();
        let total: f64 = classes
            .iter()
            .filter(|c| c.value <= 2.0 && c.value * 1.1 > 1.9)
            .map(|c| c.size)
            .sum();
        let rel = (total - 20_000.0).abs() / 20_000.0;
        assert!(rel < 0.35, "estimated size {total} vs 20000");
    }

    #[test]
    fn collision_estimate_c2_mixed_classes() {
        let (stream, c2, _) = class_stream(&[(1, 3000), (30, 100), (300, 10), (3000, 2)]);
        let ls = build(&stream, 512, 4);
        let est = ls.collision_estimate(2);
        let rel = (est - c2).abs() / c2;
        assert!(rel < 0.3, "C2 est {est} vs exact {c2} (rel {rel})");
    }

    #[test]
    fn collision_estimate_c3_skewed() {
        let (stream, _, c3) = class_stream(&[(2, 2000), (50, 50), (1000, 3)]);
        let ls = build(&stream, 512, 5);
        let est = ls.collision_estimate(3);
        let rel = (est - c3).abs() / c3;
        assert!(rel < 0.3, "C3 est {est} vs exact {c3} (rel {rel})");
    }

    #[test]
    fn single_heavy_item_collisions_exact() {
        let stream = vec![99u64; 4096];
        let ls = build(&stream, 128, 6);
        let est = ls.collision_estimate(2);
        let exact = 4096.0 * 4095.0 / 2.0;
        assert!((est - exact).abs() / exact < 0.25, "est {est} vs {exact}");
    }

    #[test]
    fn c1_is_exact_stream_length() {
        let (stream, _, _) = class_stream(&[(100, 7)]);
        let ls = build(&stream, 64, 7);
        assert_eq!(ls.collision_estimate(1), 700.0);
    }

    #[test]
    fn empty_estimator_returns_zero() {
        let cfg = LevelSetConfig::for_universe(1024, 64);
        let ls = LevelSetEstimator::new(&cfg, 8);
        assert_eq!(ls.collision_estimate(2), 0.0);
        assert!(ls.class_estimates().is_empty());
    }

    #[test]
    fn class_binom_straddle_cases() {
        // [1.9, 2.09) contains 2: binom(2,2)=1.
        assert_eq!(class_binom(1.9, 0.1, 2), 1.0);
        // [1.5, 1.65) contains no integer ≥ 2: zero.
        assert_eq!(class_binom(1.5, 0.1, 2), 0.0);
        // [10, 11): binom(10, 2) = 45.
        assert_eq!(class_binom(10.0, 0.1, 2), 45.0);
        // below ℓ entirely: zero.
        assert_eq!(class_binom(1.0, 0.05, 3), 0.0);
    }

    #[test]
    fn eta_is_in_conditioned_range() {
        for seed in 0..32u64 {
            let cfg = LevelSetConfig::for_universe(256, 32);
            let ls = LevelSetEstimator::new(&cfg, seed);
            assert!(ls.eta() >= 0.5 && ls.eta() < 1.0);
        }
    }

    #[test]
    fn space_grows_linearly_in_width() {
        let a = LevelSetEstimator::new(&LevelSetConfig::for_universe(1 << 16, 64), 1);
        let b = LevelSetEstimator::new(&LevelSetConfig::for_universe(1 << 16, 128), 1);
        assert!(b.space_words() > (a.space_words() * 3) / 2);
    }

    #[test]
    fn lighter_classes_are_read_from_deeper_levels() {
        // Heavy class at level 0; a huge class of light items must be read
        // from a strictly deeper level.
        let (stream, _, _) = class_stream(&[(2, 4000), (20_000, 2)]);
        let ls = build(&stream, 256, 9);
        let classes = ls.class_estimates();
        let heavy_level = classes
            .iter()
            .filter(|c| c.value > 3000.0)
            .map(|c| c.level)
            .min()
            .expect("heavy class found");
        let light_level = classes
            .iter()
            .filter(|c| c.value < 3.0)
            .map(|c| c.level)
            .max()
            .expect("light class found");
        assert_eq!(heavy_level, 0);
        assert!(
            light_level > heavy_level,
            "light class at level {light_level}, heavy at {heavy_level}"
        );
    }

    #[test]
    fn merge_tracks_concatenation() {
        // Two disjoint halves of a mixed-class stream, merged, must give
        // collision estimates close to one estimator over the whole.
        let (stream, c2, _) = class_stream(&[(2, 2000), (40, 80), (2000, 3)]);
        let cfg = LevelSetConfig {
            levels: 18,
            ..LevelSetConfig::for_universe(1 << 18, 512)
        };
        let cut = stream.len() / 2;
        let mut a = LevelSetEstimator::new(&cfg, 31);
        let mut b = LevelSetEstimator::new(&cfg, 31);
        let mut whole = LevelSetEstimator::new(&cfg, 31);
        for &x in &stream[..cut] {
            a.update(x);
            whole.update(x);
        }
        for &x in &stream[cut..] {
            b.update(x);
            whole.update(x);
        }
        a.merge(&b);
        assert_eq!(a.n(), whole.n());
        let merged = a.collision_estimate(2);
        let direct = whole.collision_estimate(2);
        // Same seeds ⇒ same linear sketches; candidate sets may differ at
        // the margin, so allow a modest gap — and both must track truth.
        assert!(
            (merged - direct).abs() / direct.max(1.0) < 0.2,
            "merged {merged} vs direct {direct}"
        );
        assert!(
            (merged - c2).abs() / c2 < 0.35,
            "merged {merged} vs exact {c2}"
        );
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn merge_rejects_different_seeds() {
        let cfg = LevelSetConfig::for_universe(1 << 10, 64);
        let mut a = LevelSetEstimator::new(&cfg, 1);
        let b = LevelSetEstimator::new(&cfg, 2);
        a.merge(&b);
    }

    #[test]
    fn decode_rejects_a_level_update_count_other_than_its_sketch_total() {
        let cfg = LevelSetConfig::for_universe(1 << 10, 64);
        let mut ls = LevelSetEstimator::new(&cfg, 5);
        ls.update_batch(&(0..500u64).map(|i| i % 97).collect::<Vec<_>>());
        assert!(LevelSetEstimator::decode_framed(&ls.encode_framed()).is_ok());

        // Level 0's update count slot follows the level vector's u64
        // length, its sketch and its tracker; write one more than its
        // sketch total there, and frame the payload again.
        let mut payload = ls.encode();
        let level = &ls.levels[0];
        let at = 8 + level.cs.encode().len() + level.tracker.encode().len();
        let (mut slot, mut bumped) = (Vec::new(), Vec::new());
        put_varint_u64(&mut slot, level.cs.total());
        put_varint_u64(&mut bumped, level.cs.total() + 1);
        assert_eq!(payload[at..at + slot.len()], slot[..]);
        payload.splice(at..at + slot.len(), bumped);
        let mut frame = Vec::new();
        sss_codec::put_frame(&mut frame, LevelSetEstimator::WIRE_TAG, |out| {
            out.extend_from_slice(&payload)
        });
        assert_eq!(
            LevelSetEstimator::decode_framed(&frame).unwrap_err(),
            CodecError::Invalid {
                what: "LevelSetEstimator level update count differs from its sketch total"
            }
        );
    }

    #[test]
    fn update_touches_expected_number_of_levels() {
        // Σ_j 2^{-j} < 2: total level updates ≈ 2n.
        let cfg = LevelSetConfig::for_universe(1 << 16, 64);
        let mut ls = LevelSetEstimator::new(&cfg, 3);
        let n = 100_000u64;
        for x in 0..n {
            ls.update(x);
        }
        let total_updates: u64 = ls.levels.iter().map(|l| l.cs.total()).sum();
        let per_item = total_updates as f64 / n as f64;
        assert!(
            per_item > 1.9 && per_item < 2.1,
            "avg level updates per item = {per_item}"
        );
    }
}
