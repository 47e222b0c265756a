//! Equivalence battery for the parallel-ingest pipeline: a
//! `ConcurrentMonitor` must match the sequential `Monitor` **exactly** on
//! exact substrates at `p = 1` (linear grids, collision maps and
//! bottom-k unions merge exactly), and within each estimator's typed
//! `Estimate` guarantee on the sketched/statistical ones under real
//! sampling — for thread counts {1, 2, 4, 7} and the zipf, netflow and
//! planted workloads. The checks live in `tests/common/mod.rs`;
//! `tests/sharded.rs` runs them on the sequential reference
//! `run_sharded`. Two pins tie the pipeline to sequential code: one
//! worker is the single-threaded run, and `N` workers are the sharded
//! deployment (`N` forked monitors fed round-robin and merged
//! ascending), checkpoint byte for byte.

mod common;

use std::sync::Arc;

use common::{
    full_builder, full_proto, run_sharded, DISPATCH_CHUNK, SAMPLER_SEED, SAMPLE_BATCH,
    THREAD_COUNTS,
};
use subsampled_streams::core::{ConcurrentConfig, ConcurrentMonitor, Monitor};
use subsampled_streams::hash::split_seed;
use subsampled_streams::sketch::levelset::LevelSetConfig;
use subsampled_streams::stream::{BernoulliSampler, StreamGen, ZipfStream};

fn config(threads: usize) -> ConcurrentConfig {
    let mut cfg = ConcurrentConfig::new(threads);
    cfg.dispatch_chunk = DISPATCH_CHUNK;
    cfg
}

/// The threaded pipeline: `threads` workers over `stream`, finished.
fn run_concurrent(proto: &Monitor, stream: &Arc<Vec<u64>>, threads: usize) -> Monitor {
    let mut cm = ConcurrentMonitor::launch(proto, SAMPLER_SEED, config(threads));
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

#[test]
fn p_one_quiesced_state_matches_single_monitor() {
    common::p_one_matches_single_monitor(run_concurrent);
}

#[test]
fn sampled_concurrent_estimates_within_documented_tolerance() {
    common::sampled_estimates_within_documented_tolerance(run_concurrent);
}

#[test]
fn planted_heavies_survive_concurrent_quiesce() {
    common::planted_heavies_survive(run_concurrent);
}

/// `N` workers are the sharded deployment: worker `i` owns a
/// `fork_shard(i)` replica and a `split_seed(sampler_seed, i)` sampler,
/// takes every `N`-th `dispatch_chunk` slice, and the replicas fold
/// ascending. The folded checkpoint must equal the sequential
/// emulation's byte for byte, whatever the thread timing. The prototype
/// adds a sketched `F_3` (level sets, whose trackers re-offer on merge)
/// to the battery's slots.
#[test]
fn replicated_strategy_reproduces_sharded_monitor() {
    let p = 0.2;
    let stream = Arc::new(ZipfStream::new(1_000, 1.1).generate(80_000, 17));
    let proto = full_builder(p)
        .fk_sketched_with(3, &LevelSetConfig::for_universe(1_000, 64))
        .build();

    for threads in THREAD_COUNTS {
        let parallel = run_concurrent(&proto, &stream, threads);
        let sequential = run_sharded(&proto, &stream, threads);
        assert_eq!(parallel.samples_seen(), sequential.samples_seen());
        assert!(
            parallel.checkpoint().unwrap() == sequential.checkpoint().unwrap(),
            "{threads} threads: the folded checkpoint differs from the sharded deployment's"
        );
    }
}

/// One worker is the single-threaded pipeline: shard 0's fork plus the
/// lane-0 split sampler, fed the same chunks in order.
#[test]
fn one_shard_equals_the_equivalent_single_threaded_run() {
    let p = 0.2;
    let stream = Arc::new(ZipfStream::new(1_000, 1.1).generate(80_000, 17));
    let parallel = run_concurrent(&full_proto(p), &stream, 1);

    let mut single = full_proto(p).fork_shard(0);
    let mut sampler = BernoulliSampler::new(p, split_seed(SAMPLER_SEED, 0));
    for chunk in stream.chunks(DISPATCH_CHUNK) {
        sampler.sample_batches(chunk, SAMPLE_BATCH, |batch| single.update_batch(batch));
    }

    assert_reports_match(&parallel, &single, "1 thread");
}

/// `snapshot()` taken while four workers ingest is a consistent cut:
/// every slot of every replica counts the same completed batches as the
/// monitor, the snapshot checkpoints and restores, and snapshots never
/// go backwards or run ahead of the final answer.
#[test]
fn mid_run_snapshot_is_a_restorable_consistent_cut() {
    let p = 0.5;
    let stream = ZipfStream::new(5_000, 1.1).generate(400_000, 31);
    let mut cfg = config(4);
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
    let merged = run_concurrent(&full_proto(0.5), &stream, 2);
    let bytes = merged.checkpoint().expect("folded monitor checkpoints");
    let restored = Monitor::restore(&bytes).expect("round-trip");
    assert_eq!(restored.samples_seen(), merged.samples_seen());
    for ((la, ea), (lb, eb)) in restored.report().into_iter().zip(merged.report()) {
        assert_eq!(la, lb);
        assert_eq!(ea.value, eb.value, "{la}: restore must be value-exact");
    }
}
