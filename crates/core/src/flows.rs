//! Flow-size distribution recovery from a Bernoulli-sampled stream —
//! the Duffield–Lund–Thorup line of work the paper builds its context on
//! (§1.3, [17, 18]).
//!
//! Beyond scalar aggregates, router operators want the *distribution* of
//! flow sizes: `M_i` = number of flows with exactly `i` packets. Under
//! Bernoulli sampling a size-`i` flow shows `j` sampled packets with the
//! binomial thinning probability `B(i,j) = binom(i,j)·p^j·(1−p)^{i−j}`,
//! and flows with `j = 0` vanish entirely:
//!
//! ```text
//! E[N_j] = Σ_{i ≥ j} M_i·B(i, j)          (j ≥ 1)
//! ```
//!
//! [`FlowSizeUnfolder`] inverts this by expectation–maximisation exactly
//! as in \[18\]: the E-step distributes each observed count `N_j` over
//! plausible true sizes under the current model, the M-step re-adds the
//! invisible mass `M_i·(1−p)^i`:
//!
//! ```text
//! M′_i = M_i·(1−p)^i + Σ_{j≥1} N_j · M_i·B(i,j) / Σ_{i′} M_{i′}·B(i′,j)
//! ```
//!
//! This is a *parametric* complement to the paper's estimators: it
//! recovers the whole histogram (and, as a corollary, the flow count
//! `F_0`) when flow sizes are bounded and the sample is large, but unlike
//! Algorithm 2 it carries no worst-case guarantee — the Theorem 4 hard
//! pair defeats it just as it defeats everything else. The
//! `exp_flow_unfold` experiment shows both sides.

use crate::frequency::FrequencyMap;
use crate::numeric::binom_pmf;

/// Histogram of *sampled* per-flow packet counts: `observed[j]` = number
/// of flows with exactly `j ≥ 1` sampled packets.
#[derive(Debug, Clone, Default)]
pub struct SampledFlowHistogram {
    freqs: FrequencyMap,
}

impl SampledFlowHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one sampled packet of `flow`.
    pub fn update(&mut self, flow: u64) {
        self.freqs.update(flow);
    }

    /// Number of flows seen in the sample.
    pub fn observed_flows(&self) -> u64 {
        self.freqs.distinct() as u64
    }

    /// Sampled packets ingested.
    pub fn observed_packets(&self) -> u64 {
        self.freqs.n()
    }

    /// The histogram `N_j` as a dense vector (`counts[j]`, index 0 unused).
    pub fn counts(&self) -> Vec<u64> {
        let hist = self.freqs.histogram();
        let max = hist.last().map_or(0, |&(g, _)| g) as usize;
        let mut counts = vec![0u64; max + 1];
        for (g, n_g) in hist {
            counts[g as usize] = n_g;
        }
        counts
    }
}

/// EM-based unfolding of the original flow-size distribution.
#[derive(Debug, Clone)]
pub struct FlowSizeUnfolder {
    p: f64,
    /// Largest original flow size modelled.
    max_size: usize,
    iterations: usize,
}

/// The recovered distribution: `m[i]` estimates the number of flows of
/// true size `i` (index 0 unused).
#[derive(Debug, Clone)]
pub struct FlowSizeEstimate {
    /// Estimated flow counts by true size.
    pub m: Vec<f64>,
}

impl FlowSizeEstimate {
    /// Estimated total number of flows (an `F_0` estimate).
    pub fn total_flows(&self) -> f64 {
        self.m.iter().sum()
    }

    /// Estimated total packets (an `F_1` estimate).
    pub fn total_packets(&self) -> f64 {
        self.m
            .iter()
            .enumerate()
            .map(|(i, &mi)| i as f64 * mi)
            .sum()
    }

    /// Estimated mean flow size.
    pub fn mean_size(&self) -> f64 {
        let f = self.total_flows();
        if f == 0.0 {
            0.0
        } else {
            self.total_packets() / f
        }
    }

    /// Estimated fraction of flows with size ≥ `s`.
    pub fn ccdf(&self, s: usize) -> f64 {
        let total = self.total_flows();
        if total == 0.0 {
            return 0.0;
        }
        self.m.iter().skip(s).sum::<f64>() / total
    }
}

impl FlowSizeUnfolder {
    /// Unfolder for sampling rate `p`, modelling sizes up to `max_size`,
    /// running `iterations` EM rounds (50–200 is typical; the likelihood
    /// is concave in the complete-data formulation and converges fast).
    pub fn new(p: f64, max_size: usize, iterations: usize) -> Self {
        assert!(p > 0.0 && p <= 1.0, "sampling probability must be in (0,1]");
        assert!(max_size >= 1);
        assert!(iterations >= 1);
        Self {
            p,
            max_size,
            iterations,
        }
    }

    /// Run the EM unfolding on an observed histogram.
    pub fn unfold(&self, histogram: &SampledFlowHistogram) -> FlowSizeEstimate {
        let n_j = histogram.counts();
        let j_max = n_j.len() - 1;
        let i_max = self.max_size.max(j_max);
        if histogram.observed_flows() == 0 {
            return FlowSizeEstimate {
                m: vec![0.0; i_max + 1],
            };
        }

        // Thinning kernel B[i][j] for j ≤ min(i, j_max), i ≤ i_max.
        // Row-major, computed stably in log space once.
        let mut kernel = vec![vec![0.0f64; j_max + 1]; i_max + 1];
        for (i, row) in kernel.iter_mut().enumerate().skip(1) {
            for (j, cell) in row.iter_mut().enumerate().take(i.min(j_max) + 1) {
                *cell = binom_pmf(i as u64, j as u64, self.p);
            }
        }

        // Uniform initial model. A point-mass initialisation creates
        // spurious EM fixed points (mass parked at a wrong size can only
        // leak out at the rate unobserved bins evaporate); starting flat
        // lets the observed histogram carve the posterior from the first
        // iteration.
        let total_guess = histogram.observed_flows() as f64 / self.p.min(0.99);
        let mut m = vec![total_guess / i_max as f64; i_max + 1];
        m[0] = 0.0;

        for _ in 0..self.iterations {
            // Denominators D_j = Σ_i M_i B(i,j) for each observed j.
            let mut d = vec![0.0f64; j_max + 1];
            for (i, row) in kernel.iter().enumerate().skip(1) {
                for (j, &b) in row.iter().enumerate().skip(1) {
                    d[j] += m[i] * b;
                }
            }
            // EM update.
            let mut next = vec![0.0f64; i_max + 1];
            for (i, row) in kernel.iter().enumerate().skip(1) {
                // Invisible mass stays: M_i·(1−p)^i = M_i·B(i, 0).
                let mut acc = m[i] * row[0];
                for (j, &b) in row.iter().enumerate().skip(1) {
                    if n_j[j] > 0 && d[j] > 0.0 {
                        acc += n_j[j] as f64 * m[i] * b / d[j];
                    }
                }
                next[i] = acc;
            }
            m = next;
        }

        FlowSizeEstimate { m }
    }

    /// Probability a size-`i` flow is visible: `1 − (1−p)^i`.
    #[allow(dead_code)]
    fn visible(&self, i: usize) -> f64 {
        1.0 - (1.0 - self.p).powi(i as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_hash::{RngCore64, Xoshiro256pp};

    /// Build a sampled histogram from an explicit (size → count) spec.
    fn sample_flows(spec: &[(u64, u64)], p: f64, seed: u64) -> SampledFlowHistogram {
        let mut rng = Xoshiro256pp::new(seed);
        let mut hist = SampledFlowHistogram::new();
        let mut flow_id = 0u64;
        for &(size, count) in spec {
            for _ in 0..count {
                flow_id += 1;
                for _ in 0..size {
                    if rng.next_bool(p) {
                        hist.update(flow_id);
                    }
                }
            }
        }
        hist
    }

    #[test]
    fn constant_size_flows_recovered() {
        // 5000 flows of size exactly 20, sampled at p = 0.3.
        let hist = sample_flows(&[(20, 5000)], 0.3, 1);
        let est = FlowSizeUnfolder::new(0.3, 64, 300).unfold(&hist);
        let total = est.total_flows();
        assert!(
            (total - 5000.0).abs() / 5000.0 < 0.05,
            "total flows {total}"
        );
        let mean = est.mean_size();
        assert!((mean - 20.0).abs() < 2.0, "mean size {mean}");
        // Mass concentrates near size 20.
        assert!(est.ccdf(15) > 0.9, "ccdf(15) = {}", est.ccdf(15));
        assert!(est.ccdf(26) < 0.1, "ccdf(26) = {}", est.ccdf(26));
    }

    #[test]
    fn two_point_mixture_recovered() {
        // Mice (size 2) and elephants (size 50).
        let hist = sample_flows(&[(2, 20_000), (50, 500)], 0.4, 2);
        let est = FlowSizeUnfolder::new(0.4, 128, 400).unfold(&hist);
        let total = est.total_flows();
        assert!(
            (total - 20_500.0).abs() / 20_500.0 < 0.1,
            "total flows {total}"
        );
        // Elephant share of flows ≈ 500/20500 ≈ 2.4%.
        let big = est.ccdf(25);
        assert!(
            (big - 500.0 / 20_500.0).abs() < 0.02,
            "elephant share {big}"
        );
        // Packet total: 2·20000 + 50·500 = 65_000.
        let pkts = est.total_packets();
        assert!((pkts - 65_000.0).abs() / 65_000.0 < 0.1, "packets {pkts}");
    }

    #[test]
    fn total_packets_matches_f1_scaling() {
        // E[total packets] must agree with observed/p regardless of shape.
        let hist = sample_flows(&[(7, 3000), (19, 1000)], 0.25, 3);
        let est = FlowSizeUnfolder::new(0.25, 64, 300).unfold(&hist);
        let scaled = hist.observed_packets() as f64 / 0.25;
        assert!(
            (est.total_packets() - scaled).abs() / scaled < 0.05,
            "unfolded {} vs scaled {}",
            est.total_packets(),
            scaled
        );
    }

    #[test]
    fn invisible_mice_are_reinflated() {
        // Size-1 flows at p = 0.2: only 20% visible. The unfolder must
        // recover ≈ 5x the observed count.
        let hist = sample_flows(&[(1, 50_000)], 0.2, 4);
        let observed = hist.observed_flows() as f64;
        let est = FlowSizeUnfolder::new(0.2, 16, 400).unfold(&hist);
        let total = est.total_flows();
        assert!(
            total > 3.0 * observed,
            "no reinflation: {total} vs observed {observed}"
        );
        assert!((total - 50_000.0).abs() / 50_000.0 < 0.15, "total {total}");
    }

    #[test]
    fn histogram_bookkeeping() {
        let mut h = SampledFlowHistogram::new();
        for _ in 0..3 {
            h.update(1);
        }
        h.update(2);
        assert_eq!(h.observed_flows(), 2);
        assert_eq!(h.observed_packets(), 4);
        assert_eq!(h.counts(), vec![0, 1, 0, 1]);
    }

    #[test]
    fn empty_histogram_unfolds_to_nothing() {
        let est = FlowSizeUnfolder::new(0.5, 32, 10).unfold(&SampledFlowHistogram::new());
        assert!(est.total_flows() < 1e-3);
        assert_eq!(est.mean_size(), 0.0);
    }
}
