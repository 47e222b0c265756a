//! Sample-and-hold (Estan & Varghese, SIGCOMM 2002) — the other classic
//! router sampling model the paper positions itself against (§1.3, \[22\]).
//!
//! Under sample-and-hold, each packet is sampled with probability `p`, but
//! once *any* packet of a flow is sampled, **every** subsequent packet of
//! that flow is counted exactly. Per-flow counts are therefore sharp for
//! elephants (miss only the geometric prefix before the first sampled
//! packet), at the cost of a flow-table entry per sampled flow — a
//! different point on the accuracy/space/model triangle than Bernoulli
//! sampling, which this crate's estimators assume. The comparison
//! experiment (`exp_sampling_models`) quantifies the difference.

use sss_hash::{fp_hash_map, FpHashMap, RngCore64, Xoshiro256pp};

use crate::types::Item;

/// Sample-and-hold flow table.
#[derive(Debug, Clone)]
pub struct SampleAndHold {
    p: f64,
    table: FpHashMap<Item, u64>,
    n: u64,
    rng: Xoshiro256pp,
}

impl SampleAndHold {
    /// Sample-and-hold with per-packet sampling probability `p ∈ (0, 1]`.
    pub fn new(p: f64, seed: u64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        Self {
            p,
            table: fp_hash_map(),
            n: 0,
            rng: Xoshiro256pp::new(seed),
        }
    }

    /// The per-packet sampling probability.
    pub fn p(&self) -> f64 {
        self.p
    }

    /// Packets observed (the model sees the whole stream; it *samples*
    /// which flows to track, unlike Bernoulli sub-sampling which drops
    /// unsampled packets before the monitor).
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of tracked flows (the space driver of this model).
    pub fn tracked_flows(&self) -> usize {
        self.table.len()
    }

    /// Process one packet.
    pub fn update(&mut self, flow: Item) {
        self.n += 1;
        if let Some(c) = self.table.get_mut(&flow) {
            *c += 1; // held: exact counting from first sample on
        } else if self.rng.next_bool(self.p) {
            self.table.insert(flow, 1);
        }
    }

    /// Raw held count for a flow (0 if never sampled).
    pub fn raw_count(&self, flow: Item) -> u64 {
        self.table.get(&flow).copied().unwrap_or(0)
    }

    /// Unbiased estimate of a flow's true size: the held count plus the
    /// expected length of the missed prefix, `E[missed] = (1−p)/p`
    /// (Estan–Varghese's renormalisation).
    pub fn estimate(&self, flow: Item) -> f64 {
        match self.table.get(&flow) {
            Some(&c) => c as f64 + (1.0 - self.p) / self.p,
            None => 0.0,
        }
    }

    /// Tracked `(flow, held count)` pairs sorted by decreasing count.
    pub fn flows(&self) -> Vec<(Item, u64)> {
        let mut v: Vec<(Item, u64)> = self.table.iter().map(|(&f, &c)| (f, c)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elephants_are_nearly_exact() {
        // A flow with 10_000 packets at p = 0.01: first sample arrives
        // within ~100 packets, so the held count misses only that prefix.
        let p = 0.01;
        let mut sh = SampleAndHold::new(p, 1);
        for _ in 0..10_000 {
            sh.update(7);
        }
        let est = sh.estimate(7);
        assert!((est - 10_000.0).abs() / 10_000.0 < 0.1, "estimate {est}");
    }

    #[test]
    fn estimate_is_unbiased_across_seeds() {
        let p = 0.05;
        let true_size = 200u64;
        let trials = 3000u64;
        let mut sum = 0.0;
        for seed in 0..trials {
            let mut sh = SampleAndHold::new(p, seed);
            for _ in 0..true_size {
                sh.update(3);
            }
            sum += sh.estimate(3);
        }
        let mean = sum / trials as f64;
        // E[estimate] = E[c | sampled]·P[sampled] + correction... the
        // Estan–Varghese estimator is unbiased up to the truncation at
        // flow start; allow 5%.
        let rel = (mean - true_size as f64).abs() / true_size as f64;
        assert!(rel < 0.05, "mean {mean}");
    }

    #[test]
    fn mice_are_usually_invisible() {
        // Flows of size 1 at p = 0.01 are tracked w.p. only p.
        let mut sh = SampleAndHold::new(0.01, 2);
        for flow in 0..10_000u64 {
            sh.update(flow);
        }
        let tracked = sh.tracked_flows();
        // E[tracked] = 100; allow wide band.
        assert!(tracked > 40 && tracked < 250, "tracked {tracked}");
    }

    #[test]
    fn held_flows_count_exactly_after_first_sample() {
        let mut sh = SampleAndHold::new(1.0, 3); // p = 1: everything held
        for _ in 0..500 {
            sh.update(9);
        }
        assert_eq!(sh.raw_count(9), 500);
        assert_eq!(sh.estimate(9), 500.0);
        assert_eq!(sh.tracked_flows(), 1);
    }

    #[test]
    fn untracked_flow_estimates_zero() {
        let sh = SampleAndHold::new(0.5, 4);
        assert_eq!(sh.estimate(42), 0.0);
        assert_eq!(sh.raw_count(42), 0);
    }
}
