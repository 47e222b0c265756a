//! The equivalence battery shared by `tests/concurrent.rs` (`Auto`) and
//! `tests/sharded.rs` (`Replicated`): the workloads, the monitor under
//! test, the parallel runner and the three checks, each run for one
//! `ParallelStrategy` across thread counts {1, 2, 4, 7} and the zipf,
//! netflow and planted workloads.

use std::sync::Arc;

use subsampled_streams::core::{
    ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, ParallelStrategy, Statistic,
};
use subsampled_streams::stream::{
    ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, ZipfStream,
};

pub const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];
pub const SAMPLER_SEED: u64 = 555;
/// Several chunks per worker even on the small streams.
pub const DISPATCH_CHUNK: usize = 8192;

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

pub fn full_proto(p: f64) -> Monitor {
    MonitorBuilder::with_seed(p, 2024)
        .f0(0.05)
        .fk(2)
        .entropy(1024)
        .f1_heavy_hitters(0.08, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .build()
}

pub fn config(threads: usize, strategy: ParallelStrategy) -> ConcurrentConfig {
    let mut cfg = ConcurrentConfig::new(threads);
    cfg.dispatch_chunk = DISPATCH_CHUNK;
    cfg.strategy = strategy;
    cfg
}

pub fn run_concurrent(
    proto: &Monitor,
    stream: &Arc<Vec<u64>>,
    threads: usize,
    strategy: ParallelStrategy,
) -> Monitor {
    let mut cm = ConcurrentMonitor::launch(proto, SAMPLER_SEED, config(threads, strategy));
    cm.ingest_shared(stream);
    assert_eq!(cm.raw_dispatched(), stream.len() as u64);
    cm.finish()
}

/// At `p = 1` every worker ingests its whole slice, so the workers
/// jointly see exactly the original multiset. Integer `fetch_add`s on
/// the shared CountMin grid commute, and CountMin replicas with shared
/// hashes merge linearly, so every heavy item the single monitor reports
/// must appear with an *identical* sketch estimate. Bottom-k `F_0` and
/// collision `F_k` are exact under the key partition and under the
/// replica merge. Entropy merges as a length-weighted average of
/// round-robin slices of the same mix and only promises a constant band.
pub fn p_one_matches_single_monitor(strategy: ParallelStrategy) {
    for (name, stream) in workloads(50_000) {
        let stream = Arc::new(stream);
        let mut single = full_proto(1.0);
        single.update_batch(&stream);
        let f0_single = single.estimate(Statistic::F0).unwrap().value;
        let f2_single = single.estimate(Statistic::Fk(2)).unwrap().value;
        let hh_single = single.estimate(Statistic::F1HeavyHitters).unwrap();
        let h_single = single.estimate(Statistic::Entropy).unwrap().value;

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{strategy:?}/{threads}");
            let merged = run_concurrent(&full_proto(1.0), &stream, threads, strategy);
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
pub fn sampled_estimates_within_documented_tolerance(strategy: ParallelStrategy) {
    let p = 0.25;
    for (name, stream) in workloads(120_000) {
        let stream = Arc::new(stream);
        let exact = ExactStats::from_stream(stream.iter().copied());

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{strategy:?}/{threads}");
            let merged = run_concurrent(&full_proto(p), &stream, threads, strategy);

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

/// Every planted heavy item must survive parallel ingestion and the fold
/// at every thread count — racy shared-atomic admission is recall-safe,
/// and so is the replicas' merge.
pub fn planted_heavies_survive(strategy: ParallelStrategy) {
    let n = 150_000;
    let p = 0.3;
    let gen = PlantedHeavyHitters::new(1 << 18, 3, 0.5);
    let stream = Arc::new(gen.generate(n, 29));
    let heavies = gen.heavy_items(29);

    for threads in THREAD_COUNTS {
        let merged = run_concurrent(&full_proto(p), &stream, threads, strategy);
        let report = merged.estimate(Statistic::F1HeavyHitters).unwrap().report;
        for h in &heavies {
            assert!(
                report.iter().any(|(i, _)| i == h),
                "{strategy:?}/{threads} threads: planted heavy {h} missing after the fold"
            );
        }
    }
}
