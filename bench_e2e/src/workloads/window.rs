//! `window_dashboard`: a sliding window with reads beside writes.
//!
//! A Zipf buffer is replayed cyclically with event time continuing
//! across replays. Epochs are 2^18 raw elements, the window holds 8
//! buckets, and a change-point query watches entropy. Ingest calls
//! `ingest_batch_at` once per 16,384-raw chunk; every 4th chunk, one
//! `WindowedMonitor::estimate` call rotates through the five
//! statistics. Each read refolds every bucket, so the window layer's
//! fold and rollover dominate; transport is not used at all.

use std::time::Instant;

use sss_core::Statistic;
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};
use sss_window::{QuerySpec, WindowConfig, WindowedMonitor};

use super::{
    derive_seed, ms_since, prototype, purpose, report_bits, rounds_for, Recorder, Scale, P,
};

/// Rounds (4 chunks + 1 read) per second of timed phase on the
/// reference host.
const ROUNDS_PER_SECOND: f64 = 48.0;

const STATS: [Statistic; 5] = [
    Statistic::F0,
    Statistic::Fk(2),
    Statistic::Entropy,
    Statistic::F1HeavyHitters,
    Statistic::F2HeavyHitters,
];

const CHUNKS_PER_READ: usize = 4;

struct Sizes {
    buffer: usize,
    chunk: usize,
    epoch: u64,
    buckets: usize,
    rounds: u32,
}

impl Sizes {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full { seconds } => Self {
                buffer: 1 << 22,
                chunk: 1 << 14,
                epoch: 1 << 18,
                buckets: 8,
                rounds: rounds_for(seconds, ROUNDS_PER_SECOND),
            },
            Scale::Tiny => Self {
                buffer: 1 << 14,
                chunk: 1 << 10,
                epoch: 1 << 12,
                buckets: 4,
                rounds: 12,
            },
        }
    }
}

struct Setup {
    buffer: Vec<u64>,
    window: WindowedMonitor,
}

/// Run the workload into `rec`.
pub fn run(scale: Scale, seed: u64, rec: &mut Recorder) {
    let sz = Sizes::new(scale);
    let mut s = rec.setup(|| {
        let buffer = ZipfStream::new(1 << 16, 1.2)
            .generate(sz.buffer as u64, derive_seed(seed, purpose::STREAM, 0));
        let mut window = WindowedMonitor::new(prototype(), WindowConfig::new(sz.buckets, sz.epoch));
        window.register_query(QuerySpec::change_point("entropy_shift", "entropy", 8, 3.0));
        Setup { buffer, window }
    });

    let mut sampler = BernoulliSampler::new(P, derive_seed(seed, purpose::SAMPLER, 0));
    let mut ts = 0u64;
    let mut rollovers = 0u64;
    rec.start_timed();
    for round in 0..sz.rounds {
        let t0 = rec.begin_round(round);
        let mut newest = t0;
        for _ in 0..CHUNKS_PER_READ {
            let lo = (ts % sz.buffer as u64) as usize;
            let raw = &s.buffer[lo..lo + sz.chunk];
            let w = &mut s.window;
            let rolls = w.started() && w.epoch_of(ts) > w.cur_epoch();
            rollovers += u64::from(rolls);
            newest = Instant::now();
            let tr = &mut rec.tracer;
            tr.open("stream.sample");
            // One call per chunk: the chunk's survivors never exceed it.
            sampler.sample_batches(raw, raw.len(), |survivors| {
                tr.open(if rolls {
                    "window.rollover"
                } else {
                    "window.ingest"
                });
                w.ingest_batch_at(ts, survivors);
                tr.close(survivors.len() as u64);
            });
            tr.close(raw.len() as u64);
            ts += sz.chunk as u64;
        }

        let stat = STATS[round as usize % STATS.len()];
        let t_query = Instant::now();
        rec.tracer.open("window.estimate");
        let estimate = std::hint::black_box(s.window.estimate(stat));
        rec.tracer.close(1);
        rec.query_ms.push(ms_since(t_query));
        rec.freshness_ms.push(ms_since(newest));
        rec.end_round(t0, (CHUNKS_PER_READ * sz.chunk) as u64);
        rec.op(estimate.is_some());

        if rec.tracer.active() {
            let w = &s.window;
            rec.tracer.shadow("window.fold", || w.fold(), |_| 0);
        }
    }
    rec.end_timed();

    let w = &mut s.window;
    rec.set("state_bytes", w.space_bytes() as f64);
    rec.set("window.live_buckets", w.live_buckets() as f64);
    rec.set("window.rollovers", rollovers as f64);
    rec.set("window.alerts", w.take_alerts().len() as f64);

    let restored = WindowedMonitor::restore(&w.checkpoint().expect("checkpoint"))
        .map(|r| report_bits(&r.report()));
    rec.check(
        "checkpoint -> restore -> report() is bitwise equal",
        restored.is_ok_and(|r| r == report_bits(&w.report())),
    );
    rec.check(
        format!("{} late drops, expected none", w.late_dropped()),
        w.late_dropped() == 0,
    );
}
