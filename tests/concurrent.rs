//! Equivalence battery for the parallel-ingest pipeline: a
//! `ConcurrentMonitor` under the `Auto` strategy must match the
//! sequential `Monitor` **exactly** on exact substrates (at `p = 1`
//! shared-atomic grids quiesce to the sequential grids bit for bit, and
//! key-partitioned maps and bottom-k unions merge exactly), and within
//! each estimator's typed `Estimate` guarantee on the sketched/
//! statistical ones under real sampling — for thread counts
//! {1, 2, 4, 7} and the zipf, netflow and planted workloads
//! (`tests/sharded.rs` runs the same checks for `Replicated`). Two pins
//! tie the strategies to sequential code: `Auto` on one thread is the
//! single-threaded run, and `Replicated(N)` is N forked monitors fed
//! round-robin and merged ascending.

use std::sync::Arc;

use subsampled_streams::core::{
    ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, ParallelStrategy, Statistic,
};
use subsampled_streams::hash::split_seed;
use subsampled_streams::stream::{
    BernoulliSampler, ExactStats, NetFlowStream, PlantedHeavyHitters, StreamGen, ZipfStream,
};

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 7];
const SAMPLER_SEED: u64 = 555;
/// Several chunks per worker even on the small streams.
const DISPATCH_CHUNK: usize = 8192;
/// The pipeline's worker-side sampled batch size.
const SAMPLE_BATCH: usize = 4096;

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

fn config(threads: usize, strategy: ParallelStrategy) -> ConcurrentConfig {
    let mut cfg = ConcurrentConfig::new(threads);
    cfg.dispatch_chunk = DISPATCH_CHUNK;
    cfg.strategy = strategy;
    cfg
}

fn run_concurrent(
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

fn assert_reports_match(a: &Monitor, b: &Monitor, what: &str) {
    assert_eq!(a.samples_seen(), b.samples_seen(), "{what}: samples");
    for ((la, ea), (lb, eb)) in a.report().into_iter().zip(b.report()) {
        assert_eq!(la, lb);
        assert!(
            (ea.value - eb.value).abs() <= 1e-9 * ea.value.abs().max(1.0),
            "{what}/{la}: {} vs {}",
            ea.value,
            eb.value
        );
    }
}

/// At `p = 1` every worker ingests its whole slice, so the workers
/// jointly see exactly the original multiset. Integer `fetch_add`s on
/// the shared CountMin grid commute, so every heavy item the single
/// monitor reports must appear with an *identical* sketch estimate.
/// Bottom-k `F_0` and collision `F_k` are exact under the key partition.
/// Entropy merges as a length-weighted average of round-robin slices of
/// the same mix and only promises a constant band.
#[test]
fn p_one_quiesced_state_matches_single_monitor() {
    for (name, stream) in workloads(50_000) {
        let stream = Arc::new(stream);
        let mut single = full_proto(1.0);
        single.update_batch(&stream);
        let f0_single = single.estimate(Statistic::F0).unwrap().value;
        let f2_single = single.estimate(Statistic::Fk(2)).unwrap().value;
        let hh_single = single.estimate(Statistic::F1HeavyHitters).unwrap();
        let h_single = single.estimate(Statistic::Entropy).unwrap().value;

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{threads}");
            let merged = run_concurrent(&full_proto(1.0), &stream, threads, ParallelStrategy::Auto);
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
/// `Estimate`'s documented guarantee of the exact truth.
#[test]
fn sampled_concurrent_estimates_within_documented_tolerance() {
    let p = 0.25;
    for (name, stream) in workloads(120_000) {
        let stream = Arc::new(stream);
        let exact = ExactStats::from_stream(stream.iter().copied());

        for threads in THREAD_COUNTS {
            let tag = format!("{name}/{threads}");
            let merged = run_concurrent(&full_proto(p), &stream, threads, ParallelStrategy::Auto);

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
/// at every thread count — racy shared-atomic admission is recall-safe.
#[test]
fn planted_heavies_survive_concurrent_quiesce() {
    let n = 150_000;
    let p = 0.3;
    let gen = PlantedHeavyHitters::new(1 << 18, 3, 0.5);
    let stream = Arc::new(gen.generate(n, 29));
    let heavies = gen.heavy_items(29);

    for threads in THREAD_COUNTS {
        let merged = run_concurrent(&full_proto(p), &stream, threads, ParallelStrategy::Auto);
        let report = merged.estimate(Statistic::F1HeavyHitters).unwrap().report;
        for h in &heavies {
            assert!(
                report.iter().any(|(i, _)| i == h),
                "{threads} threads: planted heavy {h} missing after the fold"
            );
        }
    }
}

/// `Replicated(N)` is the sharded-monitor deployment: worker `i` owns a
/// `fork_shard(i)` replica and a `split_seed(sampler_seed, i)` sampler,
/// takes every N-th `dispatch_chunk` slice, and the replicas merge
/// ascending. Emulated sequentially here, it must give the same answers.
#[test]
fn replicated_strategy_reproduces_sharded_monitor() {
    let p = 0.2;
    let stream = Arc::new(ZipfStream::new(1_000, 1.1).generate(80_000, 17));
    let proto = full_proto(p);

    for threads in THREAD_COUNTS {
        let parallel = run_concurrent(&proto, &stream, threads, ParallelStrategy::Replicated);

        let mut shards: Vec<Monitor> = (0..threads).map(|i| proto.fork_shard(i as u64)).collect();
        let mut samplers: Vec<BernoulliSampler> = (0..threads)
            .map(|i| BernoulliSampler::new(p, split_seed(SAMPLER_SEED, i as u64)))
            .collect();
        for (c, chunk) in stream.chunks(DISPATCH_CHUNK).enumerate() {
            let w = c % threads;
            let shard = &mut shards[w];
            samplers[w].sample_batches(chunk, SAMPLE_BATCH, |batch| shard.update_batch(batch));
        }
        let mut sequential = proto.clone();
        for shard in &shards {
            sequential.merge(shard);
        }

        assert_reports_match(&parallel, &sequential, &format!("replicated/{threads}"));
    }
}

/// One `Auto` worker is the single-threaded pipeline: shard 0's fork plus
/// the lane-0 split sampler, fed the same chunks in order.
#[test]
fn one_shard_equals_the_equivalent_single_threaded_run() {
    let p = 0.2;
    let stream = Arc::new(ZipfStream::new(1_000, 1.1).generate(80_000, 17));
    let parallel = run_concurrent(&full_proto(p), &stream, 1, ParallelStrategy::Auto);

    let mut single = full_proto(p).fork_shard(0);
    let mut sampler = BernoulliSampler::new(p, split_seed(SAMPLER_SEED, 0));
    for chunk in stream.chunks(DISPATCH_CHUNK) {
        sampler.sample_batches(chunk, SAMPLE_BATCH, |batch| single.update_batch(batch));
    }

    assert_reports_match(&parallel, &single, "auto/1");
}

/// `snapshot()` taken while four workers ingest is a consistent cut:
/// every slot — shared-atomic grids, key-shard parts, replicas — counts
/// the same completed batches as the monitor, the snapshot checkpoints
/// and restores, and snapshots never go backwards or run ahead of the
/// final answer.
#[test]
fn mid_run_snapshot_is_a_restorable_consistent_cut() {
    let p = 0.5;
    let stream = ZipfStream::new(5_000, 1.1).generate(400_000, 31);
    let mut cfg = config(4, ParallelStrategy::Auto);
    cfg.dispatch_chunk = 2048;
    let mut cm = ConcurrentMonitor::launch(&full_proto(p), SAMPLER_SEED, cfg);

    let mut seen = Vec::new();
    for slice in stream.chunks(50_000) {
        cm.ingest(slice);
        let snap = cm.snapshot();
        for (label, est) in snap.report() {
            assert_eq!(
                est.samples_seen,
                snap.samples_seen(),
                "{label}: slot and monitor disagree on the cut"
            );
        }
        let restored = Monitor::restore(&snap.checkpoint().expect("snapshot checkpoints"))
            .expect("mid-run snapshot restores");
        assert_eq!(restored.p(), p);
        assert_eq!(restored.samples_seen(), snap.samples_seen());
        seen.push(snap.samples_seen());
    }
    let last = cm.finish();
    assert!(
        seen.windows(2).all(|w| w[0] <= w[1]),
        "snapshots went backwards: {seen:?}"
    );
    assert!(*seen.last().unwrap() <= last.samples_seen());
    assert!(seen.iter().any(|&s| s > 0), "no snapshot saw any data");
}

/// The folded monitor is a plain `Monitor`: it checkpoints through the
/// codec and restores to the same answers, so the transport/delta/
/// window layers need no concurrent-specific handling.
#[test]
fn quiesced_monitor_round_trips_through_the_codec() {
    let stream = Arc::new(ZipfStream::new(500, 1.2).generate(30_000, 23));
    let merged = run_concurrent(&full_proto(0.5), &stream, 2, ParallelStrategy::Auto);
    let bytes = merged.checkpoint().expect("quiesced monitor checkpoints");
    let restored = Monitor::restore(&bytes).expect("round-trip");
    assert_eq!(restored.samples_seen(), merged.samples_seen());
    for ((la, ea), (lb, eb)) in restored.report().into_iter().zip(merged.report()) {
        assert_eq!(la, lb);
        assert_eq!(ea.value, eb.value, "{la}: restore must be value-exact");
    }
}
