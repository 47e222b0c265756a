//! Throughput of Algorithm 1 (both collision oracles) and of the
//! Indyk–Woodruff level-set structure itself, per-item vs batched.

use sss_bench::BenchGroup;
use sss_core::{recommended_levelset_config, SampledFkEstimator, SubsampledEstimator};
use sss_sketch::levelset::{LevelSetConfig, LevelSetEstimator};
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};
use std::hint::black_box;

const N: u64 = 100_000;

fn main() {
    let stream = ZipfStream::new(1 << 16, 1.2).generate(N, 42);
    let sampled = BernoulliSampler::new(0.2, 43).sample_to_vec(&stream);
    let mut g = BenchGroup::new("fk_update", sampled.len() as u64);

    for k in [2u32, 4] {
        g.bench(&format!("alg1_exact_k{k}"), || {
            let mut est = SampledFkEstimator::exact(k, 0.2);
            for &x in &sampled {
                est.update(x);
            }
            est.estimate().value
        });
        g.bench(&format!("alg1_exact_k{k}_batched"), || {
            let mut est = SampledFkEstimator::exact(k, 0.2);
            for chunk in sampled.chunks(4096) {
                est.update_batch(chunk);
            }
            est.estimate().value
        });
    }

    let cfg = LevelSetConfig::for_universe(1 << 16, 512);
    g.bench("alg1_sketched_k2_w512", || {
        let mut est = SampledFkEstimator::sketched(2, 0.2, &cfg, 7);
        for &x in &sampled {
            est.update(x);
        }
        est.estimate().value
    });

    g.bench("levelset_update_only_w512", || {
        let mut ls = LevelSetEstimator::new(&cfg, 7);
        for &x in &sampled {
            ls.update(x);
        }
        ls.n()
    });

    // Query cost (estimate from a built structure) — the paper's
    // O~(p^-1 m^(1-2/k)) output-time claim. One element per "run" so the
    // ns/elem column reads as ns/query.
    let mut q = BenchGroup::new("fk_query", 1);
    let qcfg = recommended_levelset_config(2, 1 << 16, 0.2, 0.2);
    let mut est = SampledFkEstimator::sketched(2, 0.2, &qcfg, 7);
    for &x in &sampled {
        est.update(x);
    }
    q.bench("alg1_sketched_estimate", || black_box(est.estimate().value));
}
