//! Metrics dump: drive the monitor, then print the process-wide
//! observability snapshot in both wire-adjacent renders.
//!
//! ```text
//! cargo run --release --example metrics_dump
//! cargo run --release --example metrics_dump -- --json
//! ```
//!
//! Every layer of the workspace reports into the `sss-obs` global
//! registry as a side effect of doing its job — ingest batches, sampler
//! decisions, codec round-trips, window rollovers. This example does a
//! little of each, takes one consistent snapshot, and renders it as
//! Prometheus text exposition (default) or JSON (`--json`). The same two
//! renders are what a `CollectorServer` serves from its stats endpoint.

use std::sync::Arc;

use subsampled_streams::core::{ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder};
use subsampled_streams::obs::{global, render_json, render_prometheus};
use subsampled_streams::stream::{BernoulliSampler, StreamGen, ZipfStream};

fn main() {
    let json = std::env::args().any(|a| a == "--json");

    // A short but representative run: sample a Zipf stream, batch-ingest
    // it, checkpoint the monitor through the codec.
    let p = 0.25;
    let stream = ZipfStream::new(1 << 14, 1.2).generate(200_000, 1);
    let sampled = BernoulliSampler::new(p, 99).sample_to_vec(&stream);

    let mut monitor = MonitorBuilder::with_seed(p, 7)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .build();
    for chunk in sampled.chunks(4096) {
        monitor.update_batch(chunk);
    }

    // A concurrent pass over the raw stream, so the pipeline's counters
    // are live: per-thread ingest volumes (sss_ingest_thread_items_total,
    // labeled by thread) and the replica merges of the final fold
    // (sss_ingest_merges_total).
    let proto = MonitorBuilder::with_seed(p, 7)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .build();
    let mut conc = ConcurrentMonitor::launch(&proto, 17, ConcurrentConfig::new(2));
    conc.ingest_shared(&Arc::new(stream));
    let _ = conc.finish();

    // A codec round-trip, so the encode/decode metrics are live too.
    let frame = monitor.checkpoint().expect("all estimators restorable");
    let _ = Monitor::restore(&frame).expect("own checkpoint round-trips");

    let snapshot = global().snapshot();
    if json {
        println!("{}", render_json(&snapshot, None));
    } else {
        print!("{}", render_prometheus(&snapshot, None));
    }
}
