//! Deterministic cross-shard battery for the replica-and-merge deployment
//! (`ParallelStrategy::Replicated`: worker `i` owns a `fork_shard(i)`
//! replica, the replicas merge ascending on `finish()`). For every
//! registered statistic the merged monitor must agree with the
//! single-threaded `Monitor` — exactly for exact-merge substrates (at
//! `p = 1`, where the shards jointly see precisely the original stream),
//! and within the documented tolerance for sketched/statistical ones under
//! real sampling — across shard counts N ∈ {1, 2, 4, 7} and the zipf,
//! netflow and planted workload generators. `tests/concurrent.rs` runs the
//! same checks for the shared-atomic `Auto` strategy.

use std::sync::Arc;

use subsampled_streams::core::{
    ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, ParallelStrategy, Statistic,
};
use subsampled_streams::stream::{
    ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, ZipfStream,
};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

fn workloads(n: u64) -> Vec<(&'static str, Vec<u64>)> {
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

fn full_proto(p: f64) -> Monitor {
    MonitorBuilder::with_seed(p, 2024)
        .f0(0.05)
        .fk(2)
        .entropy(1024)
        .f1_heavy_hitters(0.08, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .build()
}

fn run_sharded(proto: &Monitor, stream: &Arc<Vec<u64>>, shards: usize) -> Monitor {
    let mut cfg = ConcurrentConfig::new(shards);
    cfg.dispatch_chunk = 8192; // several chunks per shard even on small streams
    cfg.strategy = ParallelStrategy::Replicated;
    let mut cm = ConcurrentMonitor::launch(proto, 555, cfg);
    cm.ingest_shared(stream);
    cm.finish()
}

/// At `p = 1` every worker keeps its whole slice, so the union of the
/// shard streams is exactly the original stream and exact-merge
/// substrates (bottom-k `F_0`, collision-oracle `F_k`, CountMin `F_1`
/// heavy hitters) must answer identically to one monitor over the whole
/// stream; entropy merges as a length-weighted shard average and only
/// promises its constant-factor band.
#[test]
fn p_one_exact_substrates_match_single_monitor_exactly() {
    for (name, stream) in workloads(50_000) {
        let stream = Arc::new(stream);
        let mut single = full_proto(1.0);
        single.update_batch(&stream);
        let f0_single = single.estimate(Statistic::F0).unwrap().value;
        let f2_single = single.estimate(Statistic::Fk(2)).unwrap().value;
        let hh_single = single.estimate(Statistic::F1HeavyHitters).unwrap();
        let h_single = single.estimate(Statistic::Entropy).unwrap().value;

        for shards in SHARD_COUNTS {
            let merged = run_sharded(&full_proto(1.0), &stream, shards);
            assert_eq!(
                merged.samples_seen(),
                stream.len() as u64,
                "{name}/{shards}: p=1 shards must jointly see everything"
            );
            let f0 = merged.estimate(Statistic::F0).unwrap().value;
            assert_eq!(f0, f0_single, "{name}/{shards}: bottom-k F0 merge is exact");
            let f2 = merged.estimate(Statistic::Fk(2)).unwrap().value;
            assert!(
                (f2 - f2_single).abs() <= 1e-6 * f2_single.abs().max(1.0),
                "{name}/{shards}: collision F2 merge is exact algebra, got {f2} vs {f2_single}"
            );
            // CountMin is linear with shared hashes: every heavy item the
            // single monitor reports must be reported by the merged view
            // with an identical sketch estimate.
            let hh = merged.estimate(Statistic::F1HeavyHitters).unwrap();
            for (item, freq) in &hh_single.report {
                let got = hh
                    .report
                    .iter()
                    .find(|(i, _)| i == item)
                    .unwrap_or_else(|| panic!("{name}/{shards}: heavy item {item} lost in merge"));
                assert!(
                    (got.1 - freq).abs() <= 1e-9 * freq.max(1.0),
                    "{name}/{shards}: item {item} freq {} vs {freq}",
                    got.1
                );
            }
            // Entropy: documented length-weighted approximation — shards
            // see round-robin slices of the same mix, so the weighted
            // average stays within a constant band of the single estimate.
            let h = merged.estimate(Statistic::Entropy).unwrap().value;
            let ratio = h / h_single.max(1e-9);
            assert!(
                (0.67..=1.5).contains(&ratio),
                "{name}/{shards}: entropy ratio {ratio} ({h} vs {h_single})"
            );
        }
    }
}

/// Under real sampling (`p < 1`) the sharded pipeline answers within each
/// estimator's documented tolerance of the exact truth, for every shard
/// count and workload.
#[test]
fn sampled_sharded_estimates_within_documented_tolerance() {
    let p = 0.25;
    for (name, stream) in workloads(120_000) {
        let stream = Arc::new(stream);
        let exact = ExactStats::from_stream(stream.iter().copied());

        for shards in SHARD_COUNTS {
            let merged = run_sharded(&full_proto(p), &stream, shards);

            // F2 via exact collisions: Theorem 1 band (generous cushion).
            let f2 = merged.estimate(Statistic::Fk(2)).unwrap();
            assert!(
                f2.mult_error(exact.fk(2)) < 1.2,
                "{name}/{shards}: F2 error {}",
                f2.mult_error(exact.fk(2))
            );

            // F0: Lemma 8's 4/√p ceiling.
            let f0 = merged.estimate(Statistic::F0).unwrap();
            assert!(
                f0.mult_error(exact.f0() as f64) <= 4.0 / p.sqrt(),
                "{name}/{shards}: F0 error {} above 4/√p",
                f0.mult_error(exact.f0() as f64)
            );

            // Entropy: Theorem 5 constant-factor band.
            let h = merged.estimate(Statistic::Entropy).unwrap();
            let ratio = h.value / exact.entropy();
            assert!(
                (0.5..=2.0).contains(&ratio),
                "{name}/{shards}: entropy ratio {ratio}"
            );

            // Provenance: the union, not one shard.
            assert_eq!(f2.samples_seen, merged.samples_seen());
            assert_eq!(f2.p, p);
        }
    }
}

/// The planted-heavy-hitter workload end to end: every planted heavy item
/// must survive sharding + merging at every shard count.
#[test]
fn planted_heavies_survive_sharded_merge() {
    let n = 150_000;
    let p = 0.3;
    let gen = PlantedHeavyHitters::new(1 << 18, 3, 0.5);
    let stream = Arc::new(gen.generate(n, 29));
    let heavies = gen.heavy_items(29);

    for shards in SHARD_COUNTS {
        let merged = run_sharded(&full_proto(p), &stream, shards);
        let report = merged.estimate(Statistic::F1HeavyHitters).unwrap().report;
        for h in &heavies {
            assert!(
                report.iter().any(|(i, _)| i == h),
                "{shards} shards: planted heavy {h} missing from merged report"
            );
        }
    }
}
