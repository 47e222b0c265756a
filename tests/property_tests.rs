//! Property-based tests on the core invariants that hold for *every*
//! input, not just the sampled workloads.
//!
//! Dependency-free: each property is checked over a battery of
//! deterministic pseudo-random cases (the container ships no proptest;
//! seeds are fixed so failures reproduce exactly).

use subsampled_streams::core::stirling::{
    a_ell, beta_coefficients, epsilon_schedule, factorial_f64,
};
use subsampled_streams::core::{
    CollisionOracle, ExactCollisions, SampledFkEstimator, SubsampledEstimator,
};
use subsampled_streams::hash::{RngCore64, Xoshiro256pp};
use subsampled_streams::sketch::{CountMin, CountSketch, KmvSketch, MisraGries};
use subsampled_streams::stream::exact::{binom_f64, binom_u128};
use subsampled_streams::stream::{BernoulliSampler, ExactStats};

/// Number of random cases per property.
const CASES: u64 = 60;

/// A random stream of length in `[lo_len, hi_len)` over `[0, universe)`.
fn random_stream(rng: &mut Xoshiro256pp, universe: u64, lo_len: usize, hi_len: usize) -> Vec<u64> {
    let len = lo_len + rng.next_below((hi_len - lo_len) as u64) as usize;
    (0..len).map(|_| rng.next_below(universe)).collect()
}

/// Lemma 1 as a property: `F_ℓ = ℓ!·C_ℓ + Σ β^ℓ_i·F_i` for arbitrary
/// frequency vectors.
#[test]
fn falling_factorial_identity() {
    let mut rng = Xoshiro256pp::new(0xA1);
    for _ in 0..CASES {
        let freqs: Vec<u64> = (0..1 + rng.next_below(40))
            .map(|_| 1 + rng.next_below(199))
            .collect();
        let ell = 2 + rng.next_below(4) as u32;
        let f = |t: u32| -> f64 { freqs.iter().map(|&x| (x as f64).powi(t as i32)).sum() };
        let c_ell: f64 = freqs.iter().map(|&x| binom_f64(x, ell)).sum();
        let beta = beta_coefficients(ell);
        let mut rhs = factorial_f64(ell) * c_ell;
        for i in 1..ell {
            rhs += beta[i as usize - 1] as f64 * f(i);
        }
        let lhs = f(ell);
        assert!((lhs - rhs).abs() <= 1e-9 * lhs.max(1.0), "{lhs} vs {rhs}");
    }
}

/// Incremental collision counting equals the closed form on any stream.
#[test]
fn collision_oracle_incremental_equals_batch() {
    let mut rng = Xoshiro256pp::new(0xA2);
    for case in 0..CASES {
        let stream = random_stream(&mut rng, 50, 0, 500);
        let mut oracle = ExactCollisions::new(4);
        // Alternate ingestion paths: per-item and batched must agree.
        if case % 2 == 0 {
            for &x in &stream {
                oracle.update(x);
            }
        } else {
            for chunk in stream.chunks(97) {
                oracle.update_batch(chunk);
            }
        }
        let stats = ExactStats::from_stream(stream.iter().copied());
        for ell in 1..=4u32 {
            let exact = stats.collisions(ell);
            assert!((oracle.estimate(ell) - exact).abs() <= 1e-9 * exact.max(1.0));
        }
    }
}

/// Algorithm 1 at p = 1 is the exact moment, for any stream and k.
#[test]
fn algorithm1_is_exact_at_p_one() {
    let mut rng = Xoshiro256pp::new(0xA3);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng, 100, 1, 400);
        let k = 2 + rng.next_below(4) as u32;
        let mut est = SampledFkEstimator::exact(k, 1.0);
        est.update_batch(&stream);
        let truth = ExactStats::from_stream(stream.iter().copied()).fk(k);
        assert!((est.estimate().value - truth).abs() <= 1e-6 * truth.max(1.0));
    }
}

/// CountMin never underestimates, on any stream.
#[test]
fn countmin_one_sided() {
    let mut rng = Xoshiro256pp::new(0xA4);
    for seed in 0..CASES {
        let stream = random_stream(&mut rng, 64, 0, 800);
        let mut cm = CountMin::new(3, 16, seed);
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            cm.update(x, 1);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        for (&x, &f) in &truth {
            assert!(cm.query(x) >= f);
        }
    }
}

/// CountSketch is exactly linear: sketch(A) + sketch(B) = sketch(A·B).
#[test]
fn countsketch_linearity() {
    let mut rng = Xoshiro256pp::new(0xA5);
    for seed in 0..CASES {
        let a = random_stream(&mut rng, 64, 0, 200);
        let b = random_stream(&mut rng, 64, 0, 200);
        let mut sa = CountSketch::new(3, 32, seed);
        let mut sb = CountSketch::new(3, 32, seed);
        let mut sw = CountSketch::new(3, 32, seed);
        for &x in &a {
            sa.update(x, 1);
            sw.update(x, 1);
        }
        for &x in &b {
            sb.update(x, 1);
            sw.update(x, 1);
        }
        sa.merge(&sb);
        for x in 0..64u64 {
            assert_eq!(sa.query(x), sw.query(x));
        }
    }
}

/// Misra–Gries respects its deterministic error band on any stream.
#[test]
fn misra_gries_error_band() {
    let mut rng = Xoshiro256pp::new(0xA6);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng, 32, 1, 800);
        let k = 1 + rng.next_below(15) as usize;
        let mut mg = MisraGries::new(k);
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            mg.update(x);
            *truth.entry(x).or_insert(0u64) += 1;
        }
        let bound = mg.error_bound();
        for (&x, &f) in &truth {
            let q = mg.query(x);
            assert!(q <= f);
            assert!(q as f64 >= f as f64 - bound);
        }
    }
}

/// KMV merge is union: merging in any split equals the whole.
#[test]
fn kmv_merge_is_union() {
    let mut rng = Xoshiro256pp::new(0xA7);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng, 10_000, 0, 600);
        let cut = (rng.next_below(600) as usize).min(stream.len());
        let mut a = KmvSketch::new(32, 7);
        let mut b = KmvSketch::new(32, 7);
        let mut whole = KmvSketch::new(32, 7);
        for &x in &stream[..cut] {
            a.update(x);
            whole.update(x);
        }
        for &x in &stream[cut..] {
            b.update(x);
            whole.update(x);
        }
        a.merge(&b);
        assert_eq!(a.estimate(), whole.estimate());
    }
}

/// The Bernoulli sampler keeps a subsequence: order preserved, length
/// ≤ n, and every kept element occurs in the original.
#[test]
fn sampler_yields_subsequence() {
    let mut rng = Xoshiro256pp::new(0xA8);
    for seed in 0..CASES {
        let stream = random_stream(&mut rng, 1000, 0, 500);
        let mut sampler = BernoulliSampler::new(0.3, seed);
        let kept = sampler.sample_to_vec(&stream);
        assert!(kept.len() <= stream.len());
        // Subsequence check via two-pointer scan.
        let mut it = stream.iter();
        for &k in &kept {
            assert!(it.any(|&x| x == k), "not a subsequence");
        }
    }
}

/// Exact binomial helpers agree wherever both are defined.
#[test]
fn binom_helpers_agree() {
    let mut rng = Xoshiro256pp::new(0xA9);
    for _ in 0..CASES * 4 {
        let f = rng.next_below(100_000);
        let l = rng.next_below(8) as u32;
        let exact = binom_u128(f, l).expect("no overflow in range") as f64;
        let approx = binom_f64(f, l);
        assert!((approx - exact).abs() <= 1e-9 * exact.max(1.0));
    }
}

/// The ε-schedule is positive, increasing, and ends at ε.
#[test]
fn epsilon_schedule_shape() {
    let mut rng = Xoshiro256pp::new(0xAA);
    for _ in 0..CASES {
        let k = 2 + rng.next_below(8) as u32;
        let eps = 0.01 + 0.89 * rng.next_f64();
        let sched = epsilon_schedule(k, eps);
        assert_eq!(sched.len(), k as usize);
        assert!((sched[k as usize - 1] - eps).abs() < 1e-15);
        for w in sched.windows(2) {
            assert!(w[0] > 0.0 && w[0] < w[1]);
        }
        // Consistency with A_ℓ: ε_{ℓ−1}·(A_ℓ+1) = ε_ℓ.
        for ell in 2..=k {
            let lhs = sched[ell as usize - 2] * (a_ell(ell) + 1.0);
            assert!((lhs - sched[ell as usize - 1]).abs() < 1e-12);
        }
    }
}

/// Entropy of any stream lies in [0, lg F_0].
#[test]
fn entropy_bounds() {
    let mut rng = Xoshiro256pp::new(0xAB);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng, 64, 1, 500);
        let stats = ExactStats::from_stream(stream.iter().copied());
        let h = stats.entropy();
        assert!(h >= -1e-12);
        assert!(h <= (stats.f0() as f64).log2() + 1e-12);
    }
}

/// ExactCollisions merge equals concatenation on arbitrary splits.
#[test]
fn collision_merge_is_concatenation() {
    let mut rng = Xoshiro256pp::new(0xAC);
    for _ in 0..CASES {
        let a = random_stream(&mut rng, 40, 0, 300);
        let b = random_stream(&mut rng, 40, 0, 300);
        let mut oa = ExactCollisions::new(4);
        let mut ob = ExactCollisions::new(4);
        let mut whole = ExactCollisions::new(4);
        for &x in &a {
            oa.update(x);
            whole.update(x);
        }
        for &x in &b {
            ob.update(x);
            whole.update(x);
        }
        oa.merge(&ob);
        for ell in 1..=4u32 {
            let m = oa.estimate(ell);
            let w = whole.estimate(ell);
            assert!((m - w).abs() <= 1e-6 * w.max(1.0), "C_{ell}: {m} vs {w}");
        }
    }
}

/// Merging is commutative and associative for the exact collision oracle
/// (up to float association error) — the property that makes tree-shaped
/// collector topologies sound.
#[test]
fn collision_merge_commutative_associative() {
    let mut rng = Xoshiro256pp::new(0xAD);
    for _ in 0..CASES {
        let parts: Vec<Vec<u64>> = (0..3)
            .map(|_| random_stream(&mut rng, 30, 0, 200))
            .collect();
        let build = |part: &[u64]| {
            let mut o = ExactCollisions::new(4);
            for &x in part {
                o.update(x);
            }
            o
        };
        // Commutativity: A∪B == B∪A.
        let mut ab = build(&parts[0]);
        ab.merge(&build(&parts[1]));
        let mut ba = build(&parts[1]);
        ba.merge(&build(&parts[0]));
        for ell in 1..=4u32 {
            let x = ab.estimate(ell);
            let y = ba.estimate(ell);
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(1.0),
                "C_{ell}: {x} vs {y}"
            );
        }
        // Associativity: (A∪B)∪C == A∪(B∪C).
        let mut left = build(&parts[0]);
        left.merge(&build(&parts[1]));
        left.merge(&build(&parts[2]));
        let mut bc = build(&parts[1]);
        bc.merge(&build(&parts[2]));
        let mut right = build(&parts[0]);
        right.merge(&bc);
        for ell in 1..=4u32 {
            let x = left.estimate(ell);
            let y = right.estimate(ell);
            assert!(
                (x - y).abs() <= 1e-6 * x.abs().max(1.0),
                "C_{ell}: {x} vs {y}"
            );
        }
        assert_eq!(left.n(), right.n());
    }
}

/// The moments are monotone in ℓ for any stream (f_i ≥ 1 ⇒ F_ℓ ≤ F_{ℓ+1}),
/// so Algorithm 1 at p = 1 must produce a monotone φ̃ sequence.
#[test]
fn moment_monotonicity_at_p_one() {
    let mut rng = Xoshiro256pp::new(0xAE);
    for _ in 0..CASES {
        let stream = random_stream(&mut rng, 50, 1, 400);
        let mut est = SampledFkEstimator::exact(5, 1.0);
        est.update_batch(&stream);
        let phis = est.estimate_all();
        for w in phis.windows(2) {
            assert!(w[1] >= w[0] - 1e-9 * w[0].abs());
        }
    }
}

/// Frequency moments obey the Cauchy–Schwarz chain F_ℓ² ≤ F_{ℓ−1}·F_{ℓ+1}
/// (log-convexity) on every frequency vector — the inequality behind the
/// paper's F_ℓ^{1/ℓ} manipulations in Lemma 2.
#[test]
fn moments_are_log_convex() {
    let mut rng = Xoshiro256pp::new(0xAF);
    for _ in 0..CASES {
        let freqs: Vec<u64> = (0..1 + rng.next_below(60))
            .map(|_| 1 + rng.next_below(999))
            .collect();
        let f = |t: i32| -> f64 { freqs.iter().map(|&x| (x as f64).powi(t)).sum() };
        for ell in 1..5i32 {
            let lhs = f(ell) * f(ell);
            let rhs = f(ell - 1) * f(ell + 1);
            assert!(lhs <= rhs * (1.0 + 1e-12), "ℓ={ell}: {lhs} > {rhs}");
        }
    }
}

/// binom_pmf is a genuine pmf for arbitrary parameters.
#[test]
fn binom_pmf_normalised() {
    use subsampled_streams::core::numeric::binom_pmf;
    let mut rng = Xoshiro256pp::new(0xB0);
    for _ in 0..CASES {
        let n = 1 + rng.next_below(299);
        let p = 0.01 + 0.98 * rng.next_f64();
        let total: f64 = (0..=n).map(|k| binom_pmf(n, k, p)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        let mean: f64 = (0..=n).map(|k| k as f64 * binom_pmf(n, k, p)).sum();
        assert!((mean - n as f64 * p).abs() < 1e-6 * (n as f64 * p));
    }
}
