//! Sub-sampling processes that turn the original stream `P` into the sampled
//! stream `L`.
//!
//! The paper's model is **Bernoulli sampling**: every element of `P`
//! independently survives with probability `p`, fixed in advance and known
//! to the algorithm (§1.1, §2). [`BernoulliSampler`] implements it two ways:
//!
//! * a per-element coin flip ([`BernoulliSampler::keep`]), and
//! * skip-based slice and batch paths ([`BernoulliSampler::sample_slice`],
//!   [`BernoulliSampler::sample_batches`]) that draw `Geometric(p)` gaps,
//!   doing `O(1)` RNG work per *sampled* element — the standard trick
//!   for sampling at very low rates.
//!
//! [`OneInNSampler`] is the deterministic "1 out of every N packets"
//! variant that sampled NetFlow also supports (§1.3); it is provided for
//! the router-scenario examples and for contrasting the two models.

use sss_codec::{CodecError, Reader, WireCodec};
use sss_hash::{split_seed, RngCore64, Xoshiro256pp};

use crate::types::Item;

/// One registry touch per sampling call (never per item): raw offered
/// vs surviving counts for the slice/batch entry points.
fn record_sampled(raw: u64, survivors: u64) {
    let obs = sss_obs::global();
    obs.add(sss_obs::MetricId::SamplerRawItemsTotal, raw);
    obs.add(sss_obs::MetricId::SamplerSurvivorsTotal, survivors);
}

/// Bernoulli sampler with survival probability `p`.
#[derive(Debug, Clone)]
pub struct BernoulliSampler {
    p: f64,
    seed: u64,
    rng: Xoshiro256pp,
}

impl BernoulliSampler {
    /// Create a sampler with rate `p ∈ (0, 1]` and a deterministic seed.
    ///
    /// # Panics
    /// If `p` is not in `(0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(
            p > 0.0 && p <= 1.0,
            "sampling probability must be in (0,1], got {p}"
        );
        Self {
            p,
            seed,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// The sampling probability.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The seed this sampler was constructed with (its RNG state advances
    /// as elements are processed; the seed does not).
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A fresh sampler for shard `lane`, seeded with
    /// `split_seed(self.seed, lane)`: same rate, statistically independent
    /// survival decisions. Shard pipelines call this once per worker so
    /// the shards jointly realise `N` independent Bernoulli processes.
    pub fn fork(&self, lane: u64) -> BernoulliSampler {
        BernoulliSampler::new(self.p, split_seed(self.seed, lane))
    }

    /// Per-element coin flip: does the next element of `P` survive into `L`?
    #[inline]
    pub fn keep(&mut self) -> bool {
        self.rng.next_bool(self.p)
    }

    /// Lazily yield the surviving **positions** among the next `n`
    /// elements — the geometric-skip generator decoupled from any
    /// materialised data. `O(survivors)` RNG draws total, `O(1)` state:
    /// at `p ≪ 1` a consumer visits only the `≈ p·n` surviving offsets
    /// of a stream it never has to touch element-by-element (windowed
    /// replay of sparse buckets, columnar scans, mmap'd traces).
    ///
    /// The position sequence is exactly the one
    /// [`BernoulliSampler::sample_slice`] visits: both draw the same
    /// `Geometric(p)` gaps from the same RNG state.
    pub fn skip_positions(&mut self, n: u64) -> SkipPositions<'_> {
        SkipPositions {
            p: self.p,
            rng: &mut self.rng,
            n,
            cursor: None,
            done: false,
        }
    }

    /// Sample a borrowed slice, invoking `f` with `(position, item)` for
    /// every surviving element. Skip-based: cost is `O(|L|)` RNG draws,
    /// not `O(|P|)`.
    pub fn sample_indexed<F: FnMut(usize, Item)>(&mut self, data: &[Item], mut f: F) {
        let n = data.len() as u64;
        let mut survivors = 0u64;
        for pos in self.skip_positions(n) {
            survivors += 1;
            f(pos as usize, data[pos as usize]);
        }
        record_sampled(n, survivors);
    }

    /// Sample a borrowed slice, invoking `f` for every surviving element.
    /// Skip-based: cost is `O(|L|)` RNG draws, not `O(|P|)`.
    pub fn sample_slice<F: FnMut(Item)>(&mut self, data: &[Item], mut f: F) {
        self.sample_indexed(data, |_, x| f(x));
    }

    /// Sample a borrowed slice, delivering the survivors to `f` in chunks
    /// of up to `batch` elements — the feed for a batched monitor hot
    /// path (`Monitor::update_batch`). Skip-based like
    /// [`BernoulliSampler::sample_slice`]: RNG cost is `O(|L|)`, and the
    /// chunk buffer is the only allocation.
    ///
    /// # Panics
    /// If `batch` is zero.
    pub fn sample_batches<F: FnMut(&[Item])>(&mut self, data: &[Item], batch: usize, mut f: F) {
        assert!(batch >= 1, "batch size must be positive");
        let mut buf: Vec<Item> = Vec::with_capacity(batch);
        let mut survivors = 0u64;
        for pos in self.skip_positions(data.len() as u64) {
            buf.push(data[pos as usize]);
            if buf.len() == batch {
                survivors += buf.len() as u64;
                f(&buf);
                buf.clear();
            }
        }
        if !buf.is_empty() {
            survivors += buf.len() as u64;
            f(&buf);
        }
        record_sampled(data.len() as u64, survivors);
    }

    /// Collect the sampled sub-stream of a slice into a `Vec`.
    pub fn sample_to_vec(&mut self, data: &[Item]) -> Vec<Item> {
        // E[|L|] = p·n; reserve with slack to avoid regrowth.
        let mut out = Vec::with_capacity(((data.len() as f64) * self.p * 1.1) as usize + 16);
        self.sample_slice(data, |x| out.push(x));
        out
    }
}

impl WireCodec for BernoulliSampler {
    const WIRE_TAG: u16 = 0x0301;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.seed.encode_into(out);
        self.rng.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let p = r.rate()?;
        let seed = r.u64()?;
        let rng = Xoshiro256pp::decode(r)?;
        Ok(BernoulliSampler { p, seed, rng })
    }
}

/// Lazy surviving-position iterator produced by
/// [`BernoulliSampler::skip_positions`]. Fused: the first position at
/// or beyond `n` ends the iteration, and no further RNG is drawn — so
/// the sampler can resume on the next range with the state it would
/// have had after [`BernoulliSampler::sample_slice`] over `n` elements.
#[derive(Debug)]
pub struct SkipPositions<'a> {
    p: f64,
    rng: &'a mut Xoshiro256pp,
    n: u64,
    /// Last yielded position (`None` before the first draw).
    cursor: Option<u64>,
    done: bool,
}

impl Iterator for SkipPositions<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.done {
            return None;
        }
        let idx = match self.cursor {
            None => self.rng.next_geometric(self.p),
            Some(prev) => {
                let gap = self.rng.next_geometric(self.p);
                match prev.checked_add(1).and_then(|i| i.checked_add(gap)) {
                    Some(i) => i,
                    None => {
                        self.done = true;
                        return None;
                    }
                }
            }
        };
        if idx >= self.n {
            self.done = true;
            return None;
        }
        self.cursor = Some(idx);
        Some(idx)
    }
}

/// Deterministic 1-in-N sampling (periodic): keeps elements at positions
/// `N−1, 2N−1, …` (0-based). The expected rate matches Bernoulli sampling
/// with `p = 1/N`, but survival events are *not* independent — several
/// estimators in this workspace are biased under it, which the examples
/// demonstrate.
#[derive(Debug, Clone)]
pub struct OneInNSampler {
    every: u64,
    seen: u64,
}

impl OneInNSampler {
    /// Keep one element out of every `every` (must be ≥ 1).
    pub fn new(every: u64) -> Self {
        assert!(every >= 1, "period must be >= 1");
        Self { every, seen: 0 }
    }

    /// Does the next element survive?
    #[inline]
    pub fn keep(&mut self) -> bool {
        self.seen += 1;
        if self.seen == self.every {
            self.seen = 0;
            true
        } else {
            false
        }
    }

    /// Collect the periodic sub-stream of a slice.
    pub fn sample_to_vec(&mut self, data: &[Item]) -> Vec<Item> {
        data.iter().copied().filter(|_| self.keep()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_concentrates_around_p() {
        let data: Vec<Item> = (0..200_000u64).collect();
        for &p in &[0.01, 0.1, 0.5, 1.0] {
            let mut s = BernoulliSampler::new(p, 42);
            let kept = s.sample_to_vec(&data);
            let rate = kept.len() as f64 / data.len() as f64;
            // 5 sigma of Bin(n, p)/n.
            let sigma = (p * (1.0 - p) / data.len() as f64).sqrt();
            assert!(
                (rate - p).abs() <= 5.0 * sigma + 1e-12,
                "p={p}: rate={rate}"
            );
        }
    }

    #[test]
    fn p_one_keeps_everything_in_order() {
        let data: Vec<Item> = (0..1000u64).collect();
        let mut s = BernoulliSampler::new(1.0, 7);
        assert_eq!(s.sample_to_vec(&data), data);
    }

    #[test]
    fn sampling_preserves_order() {
        let data: Vec<Item> = (0..50_000u64).collect();
        let mut s = BernoulliSampler::new(0.1, 3);
        let kept = s.sample_to_vec(&data);
        for w in kept.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn batched_and_slice_paths_agree() {
        let data: Vec<Item> = (0..40_000u64).collect();
        let mut s1 = BernoulliSampler::new(0.13, 21);
        let via_slice = s1.sample_to_vec(&data);
        for batch in [1usize, 7, 1024, 1 << 20] {
            let mut s2 = BernoulliSampler::new(0.13, 21);
            let mut via_batches = Vec::new();
            let mut chunks = 0usize;
            s2.sample_batches(&data, batch, |chunk| {
                assert!(chunk.len() <= batch);
                via_batches.extend_from_slice(chunk);
                chunks += 1;
            });
            assert_eq!(via_slice, via_batches, "batch = {batch}");
            assert_eq!(chunks, via_slice.len().div_ceil(batch), "batch = {batch}");
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let data: Vec<Item> = (0..10_000u64).collect();
        let a = BernoulliSampler::new(0.2, 5).sample_to_vec(&data);
        let b = BernoulliSampler::new(0.2, 5).sample_to_vec(&data);
        let c = BernoulliSampler::new(0.2, 6).sample_to_vec(&data);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn per_item_survival_is_p_marginally() {
        // Element at a fixed position survives with probability ~p across seeds.
        let data: Vec<Item> = (0..100u64).collect();
        let p = 0.3;
        let trials = 20_000u64;
        let mut hits = 0u64;
        for seed in 0..trials {
            let mut s = BernoulliSampler::new(p, seed);
            let kept = s.sample_to_vec(&data);
            if kept.contains(&50) {
                hits += 1;
            }
        }
        let rate = hits as f64 / trials as f64;
        assert!((rate - p).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn forked_samplers_are_independent_and_deterministic() {
        let data: Vec<Item> = (0..30_000u64).collect();
        let base = BernoulliSampler::new(0.2, 9);
        let a1 = base.fork(0).sample_to_vec(&data);
        let a2 = base.fork(0).sample_to_vec(&data);
        let b = base.fork(1).sample_to_vec(&data);
        assert_eq!(a1, a2, "fork is deterministic per lane");
        assert_ne!(a1, b, "different lanes sample differently");
        assert_eq!(base.fork(3).seed(), sss_hash::split_seed(9, 3));
        // The fork must not depend on (or advance) the parent's RNG state.
        let mut advanced = BernoulliSampler::new(0.2, 9);
        let _ = advanced.sample_to_vec(&data);
        assert_eq!(advanced.fork(1).sample_to_vec(&data), b);
    }

    #[test]
    fn skip_positions_match_the_sampled_elements() {
        let data: Vec<Item> = (0..60_000u64).map(|i| i * 7 + 1).collect();
        for &p in &[0.01, 0.13, 0.5, 1.0] {
            let mut s1 = BernoulliSampler::new(p, 77);
            let via_slice = s1.sample_to_vec(&data);
            let mut s2 = BernoulliSampler::new(p, 77);
            let positions: Vec<u64> = s2.skip_positions(data.len() as u64).collect();
            let via_positions: Vec<Item> = positions.iter().map(|&i| data[i as usize]).collect();
            assert_eq!(via_slice, via_positions, "p = {p}");
            for w in positions.windows(2) {
                assert!(w[0] < w[1], "positions strictly increase");
            }
        }
    }

    #[test]
    fn skip_positions_is_o_survivors_and_fused() {
        // At p = 1/1000 over a million virtual elements the generator
        // yields ~1000 positions without any per-element work — and once
        // exhausted it stays exhausted without advancing the RNG.
        let mut s = BernoulliSampler::new(0.001, 5);
        let mut iter = s.skip_positions(1_000_000);
        let count = iter.by_ref().count();
        assert!((500..2_000).contains(&count), "count = {count}");
        assert_eq!(iter.next(), None, "fused after exhaustion");
    }

    #[test]
    fn skip_positions_resumes_across_ranges_like_slices() {
        // Consuming positions range-by-range must advance the RNG the
        // same way as sampling the concatenated slice.
        let data: Vec<Item> = (0..30_000u64).collect();
        let mut whole = BernoulliSampler::new(0.07, 13);
        let expect = whole.sample_to_vec(&data);
        let mut split = BernoulliSampler::new(0.07, 13);
        let mut got = Vec::new();
        for chunk in data.chunks(7_500) {
            for pos in split.skip_positions(chunk.len() as u64) {
                got.push(chunk[pos as usize]);
            }
        }
        // Note: per-range resampling re-draws the boundary gap, so the
        // *sets* differ slightly — but each range is itself a faithful
        // Bernoulli sample, and the total rate matches.
        let rate_a = expect.len() as f64 / data.len() as f64;
        let rate_b = got.len() as f64 / data.len() as f64;
        assert!((rate_a - rate_b).abs() < 0.01, "{rate_a} vs {rate_b}");
    }

    #[test]
    fn sample_indexed_agrees_with_sample_slice() {
        let data: Vec<Item> = (0..25_000u64).map(|i| i ^ 0x5a5a).collect();
        let mut s1 = BernoulliSampler::new(0.2, 31);
        let via_slice = s1.sample_to_vec(&data);
        let mut s2 = BernoulliSampler::new(0.2, 31);
        let mut via_indexed = Vec::new();
        s2.sample_indexed(&data, |i, x| {
            assert_eq!(data[i], x);
            via_indexed.push(x);
        });
        assert_eq!(via_slice, via_indexed);
    }

    #[test]
    fn one_in_n_is_periodic() {
        let data: Vec<Item> = (0..20u64).collect();
        let mut s = OneInNSampler::new(5);
        assert_eq!(s.sample_to_vec(&data), vec![4, 9, 14, 19]);
        let mut s1 = OneInNSampler::new(1);
        assert_eq!(s1.sample_to_vec(&data), data);
    }

    #[test]
    #[should_panic(expected = "sampling probability")]
    fn zero_p_rejected() {
        let _ = BernoulliSampler::new(0.0, 1);
    }
}
