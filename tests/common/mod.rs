//! The equivalence battery shared by `tests/concurrent.rs` (the threaded
//! `ConcurrentMonitor`) and `tests/sharded.rs` (its sequential reference,
//! [`run_sharded`]): the workloads, the monitor under test and the three
//! checks, each run for one [`Runner`] across thread counts {1, 2, 4, 7}
//! and the zipf, netflow and planted workloads.

use std::sync::Arc;

use subsampled_streams::core::{Monitor, MonitorBuilder, RusuDobraF2, Statistic};
use subsampled_streams::hash::split_seed;
use subsampled_streams::stream::{
    BernoulliSampler, ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, ZipfStream,
};

pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];
pub const SAMPLER_SEED: u64 = 555;
/// Several chunks per worker even on the small streams.
pub const DISPATCH_CHUNK: usize = 8192;
/// The pipeline's worker-side sampled batch size.
pub const SAMPLE_BATCH: usize = 4096;

pub fn workloads(n: u64) -> Vec<(&'static str, Vec<u64>)> {
    vec![
        ("zipf", ZipfStream::new(2_000, 1.2).generate(n, 11)),
        (
            "netflow",
            NetFlowStream::new(1 << 20, 1.1, 20_000).generate(n, 12),
        ),
        (
            "planted",
            PlantedHeavyHitters::new(1 << 18, 3, 0.5).generate(n, 13),
        ),
    ]
}

/// The registrations of the monitor under test, before `build()`.
pub fn full_builder(p: f64) -> MonitorBuilder {
    MonitorBuilder::with_seed(p, 2024)
        .f0(0.05)
        .fk(2)
        .entropy(1024)
        .f1_heavy_hitters(0.08, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .register("F2_rd", RusuDobraF2::new(p, 3, 32, 2025))
}

pub fn full_proto(p: f64) -> Monitor {
    full_builder(p).build()
}

/// Folds `stream` at `threads`-way parallelism into one monitor built
/// on `proto`.
pub type Runner = fn(&Monitor, &Arc<Vec<u64>>, usize) -> Monitor;

/// The sharded deployment the pipeline runs, emulated sequentially:
/// `threads` monitors `fork_shard(i)`, monitor `i` taking every
/// `threads`-th `DISPATCH_CHUNK` slice through a
/// `split_seed(SAMPLER_SEED, i)` sampler in `SAMPLE_BATCH`-survivor
/// batches, folded onto a clone of the prototype with `merge_all` in
/// ascending order.
pub fn run_sharded(proto: &Monitor, stream: &Arc<Vec<u64>>, threads: usize) -> Monitor {
    let mut shards: Vec<Monitor> = (0..threads).map(|i| proto.fork_shard(i as u64)).collect();
    let mut samplers: Vec<BernoulliSampler> = (0..threads)
        .map(|i| BernoulliSampler::new(proto.p(), split_seed(SAMPLER_SEED, i as u64)))
        .collect();
    for (c, chunk) in stream.chunks(DISPATCH_CHUNK).enumerate() {
        let w = c % threads;
        let shard = &mut shards[w];
        samplers[w].sample_batches(chunk, SAMPLE_BATCH, |batch| shard.update_batch(batch));
    }
    let mut folded = proto.clone();
    folded.merge_all(&shards.iter().collect::<Vec<_>>());
    folded
}

/// At `p = 1` every worker ingests its whole slice, so the workers
/// jointly see exactly the original multiset. CountMin replicas with
/// shared hashes merge linearly, so every heavy item the single monitor
/// reports must appear with an *identical* sketch estimate. Rusu–Dobra's
/// AMS replicas keep the prototype's signs, so their linear merge is the
/// sequential sketch and its estimate has the same bits. Bottom-k `F_0`
/// and collision `F_k` merge exactly. Entropy merges as a
/// length-weighted average of round-robin slices of the same mix and
/// only promises a constant band.
pub fn p_one_matches_single_monitor(run: Runner) {
    for (name, stream) in workloads(50_000) {
        let stream = Arc::new(stream);
        let mut single = full_proto(1.0);
        single.update_batch(&stream);
        let f0_single = single.estimate(Statistic::F0).unwrap().value;
        let f2_single = single.estimate(Statistic::Fk(2)).unwrap().value;
        let hh_single = single.estimate(Statistic::F1HeavyHitters).unwrap();
        let h_single = single.estimate(Statistic::Entropy).unwrap().value;
        let rd_single = single.estimate_labeled("F2_rd").unwrap().value;

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{threads}");
            let merged = run(&full_proto(1.0), &stream, threads);
            assert_eq!(
                merged.samples_seen(),
                stream.len() as u64,
                "{tag}: p=1 workers must jointly see everything"
            );
            let f0 = merged.estimate(Statistic::F0).unwrap().value;
            assert_eq!(f0, f0_single, "{tag}: bottom-k F0 is exact");
            let f2 = merged.estimate(Statistic::Fk(2)).unwrap().value;
            assert!(
                (f2 - f2_single).abs() <= 1e-6 * f2_single.abs().max(1.0),
                "{tag}: collision F2 {f2} vs {f2_single}"
            );
            let rd = merged.estimate_labeled("F2_rd").unwrap().value;
            assert_eq!(
                rd.to_bits(),
                rd_single.to_bits(),
                "{tag}: Rusu–Dobra F2 {rd} vs {rd_single} (AMS sketches must be bitwise equal)"
            );
            let hh = merged.estimate(Statistic::F1HeavyHitters).unwrap();
            for (item, freq) in &hh_single.report {
                let got = hh
                    .report
                    .iter()
                    .find(|(i, _)| i == item)
                    .unwrap_or_else(|| panic!("{tag}: heavy item {item} lost"));
                assert!(
                    (got.1 - freq).abs() <= 1e-9 * freq.max(1.0),
                    "{tag}: item {item} freq {} vs {freq} (grids must be bitwise equal)",
                    got.1
                );
            }
            let h = merged.estimate(Statistic::Entropy).unwrap().value;
            let ratio = h / h_single.max(1e-9);
            assert!(
                (0.67..=1.5).contains(&ratio),
                "{tag}: entropy ratio {ratio} ({h} vs {h_single})"
            );
        }
    }
}

/// Under real sampling the merged estimates stay within each typed
/// `Estimate`'s documented guarantee of the exact truth, for every
/// thread count and workload.
pub fn sampled_estimates_within_documented_tolerance(run: Runner) {
    let p = 0.25;
    for (name, stream) in workloads(120_000) {
        let stream = Arc::new(stream);
        let exact = ExactStats::from_stream(stream.iter().copied());

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{threads}");
            let merged = run(&full_proto(p), &stream, threads);

            // F2 via exact collisions: Theorem 1 band (generous cushion).
            let f2 = merged.estimate(Statistic::Fk(2)).unwrap();
            assert!(
                f2.mult_error(exact.fk(2)) < 1.2,
                "{tag}: F2 error {}",
                f2.mult_error(exact.fk(2))
            );
            // F0: Lemma 8's 4/√p ceiling.
            let f0 = merged.estimate(Statistic::F0).unwrap();
            assert!(
                f0.mult_error(exact.f0() as f64) <= 4.0 / p.sqrt(),
                "{tag}: F0 error {} above 4/√p",
                f0.mult_error(exact.f0() as f64)
            );
            // Entropy: Theorem 5 constant-factor band.
            let h = merged.estimate(Statistic::Entropy).unwrap();
            let ratio = h.value / exact.entropy();
            assert!((0.5..=2.0).contains(&ratio), "{tag}: entropy ratio {ratio}");
            // Provenance: the union of all workers, not one of them.
            assert_eq!(f2.samples_seen, merged.samples_seen());
            assert_eq!(f2.p, p);
        }
    }
}

/// Every planted heavy item must survive parallel ingestion and the
/// replicas' merge at every thread count.
pub fn planted_heavies_survive(run: Runner) {
    let n = 150_000;
    let p = 0.3;
    let gen = PlantedHeavyHitters::new(1 << 18, 3, 0.5);
    let stream = Arc::new(gen.generate(n, 29));
    let heavies = gen.heavy_items(29);

    for threads in THREAD_COUNTS {
        let merged = run(&full_proto(p), &stream, threads);
        let report = merged.estimate(Statistic::F1HeavyHitters).unwrap().report;
        for h in &heavies {
            assert!(
                report.iter().any(|(i, _)| i == h),
                "{threads} threads: planted heavy {h} missing after the fold"
            );
        }
    }
}
