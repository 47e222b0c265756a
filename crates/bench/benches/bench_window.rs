//! Windowed-monitor overhead and read latency, with machine-readable
//! results written to `BENCH_window.json` at the workspace root.
//!
//! ```text
//! cargo bench --bench bench_window            # full workload
//! cargo bench --bench bench_window -- --quick # CI smoke
//! ```
//!
//! Two questions:
//!
//! * **Ingest overhead** — a [`WindowedMonitor`] routes every batch to
//!   its epoch bucket (clock check + binary search over the live ring +
//!   rollover bookkeeping) before the same `Monitor::update_batch` hot
//!   path runs. The controlled baseline is **segmented**: one fresh
//!   forked monitor per epoch, fed the identical survivor segments, so
//!   both sides pay the same per-bucket warm-up (cold duplicate filter,
//!   reservoir fill, bottom-k fill) and the ratio isolates the window
//!   machinery itself. A scalar fallback in the windowed path would
//!   blow straight past the pin. The acceptance target: windowed ingest
//!   stays within **1.3×** of the segmented baseline. A whole-stream
//!   monitor is also timed as an informational row — the batch kernels
//!   amortise warm-up over stream length, so that ratio conflates
//!   windowing cost with bucket-size effects and is not pinned.
//! * **Read latency** — a windowed read
//!   (`WindowedMonitor::estimate(Statistic::F0)`) clones the `F0` slot
//!   and folds that slot of every live bucket, so cost scales with the
//!   bucket count; measured at 1, 2, 4 and 8 live buckets.

use sss_bench::BenchGroup;
use sss_core::{Monitor, MonitorBuilder, Statistic};
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};
use sss_window::{WindowConfig, WindowedMonitor};

const P: f64 = 0.25;
const BATCH: usize = 4096;
const EPOCHS: u64 = 8;
const BUCKETS: usize = 4;

fn prototype() -> Monitor {
    MonitorBuilder::with_seed(P, 7)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .build()
}

/// Survivors of a dense unit-tick zipf trace, grouped by epoch so the
/// windowed path ingests epoch-aligned batches (the natural shape for
/// `ingest_batch_at`: one timestamp per chunk).
fn epoch_batches(n: u64, span: u64) -> Vec<(u64, Vec<u64>)> {
    let stream = ZipfStream::new(1 << 16, 1.2).generate(n, 42);
    let mut batches: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut sampler = BernoulliSampler::new(P, 43);
    sampler.sample_indexed(&stream, |i, x| {
        let ts = i as u64;
        match batches.last_mut() {
            Some((first, xs)) if *first / span == ts / span => xs.push(x),
            _ => batches.push((ts, vec![x])),
        }
    });
    batches
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    // Epochs must stay large even in --quick: each fresh bucket re-pays
    // its estimators' fill phase (bottom-k heap, entropy reservoir), so
    // tiny epochs overstate the amortised windowing overhead.
    let n: u64 = if quick { 800_000 } else { 2_000_000 };
    let span = n / EPOCHS; // dense unit ticks → 8 epochs, window of 4

    let batches = epoch_batches(n, span);
    let survivors: u64 = batches.iter().map(|(_, xs)| xs.len() as u64).sum();
    let flat: Vec<u64> = batches
        .iter()
        .flat_map(|(_, xs)| xs.iter().copied())
        .collect();

    let mut g = BenchGroup::new("windowed_ingestion", survivors);
    g.bench("monitor_update_batch", || {
        let mut m = prototype();
        for chunk in flat.chunks(BATCH) {
            m.update_batch(chunk);
        }
        m.samples_seen()
    });
    g.bench("segmented_monitor_update_batch", || {
        let proto = prototype();
        let mut acc = 0u64;
        for (ts, xs) in &batches {
            let mut m = proto.fork_shard(*ts / span);
            for chunk in xs.chunks(BATCH) {
                m.update_batch(chunk);
            }
            acc += m.samples_seen();
        }
        acc
    });
    g.bench("windowed_ingest_batch", || {
        let mut w = WindowedMonitor::new(prototype(), WindowConfig::new(BUCKETS, span));
        for (ts, xs) in &batches {
            for chunk in xs.chunks(BATCH) {
                w.ingest_batch_at(*ts, chunk);
            }
        }
        w.total_ingested()
    });
    g.bench("windowed_ingest_at_per_item", || {
        let mut w = WindowedMonitor::new(prototype(), WindowConfig::new(BUCKETS, span));
        for (ts, xs) in &batches {
            for &x in xs {
                w.ingest_at(*ts, x);
            }
        }
        w.total_ingested()
    });

    let whole_stream = g.median_of("monitor_update_batch");
    let segmented = g.median_of("segmented_monitor_update_batch");
    let windowed = g.median_of("windowed_ingest_batch");
    let ratio = windowed / segmented;
    let whole_ratio = windowed / whole_stream;
    println!(
        "\nwindowed/segmented ingest ratio: {ratio:.3}x (target <= 1.3x; \
         vs whole-stream monitor: {whole_ratio:.3}x, informational)"
    );
    assert!(
        ratio <= 1.3,
        "windowed ingest {windowed:.2} ns/elem exceeds 1.3x the segmented \
         baseline's {segmented:.2} ns/elem"
    );

    // Read latency as the live ring grows: fill `b` epochs of a
    // `b`-bucket window, then time one `F0` read. Elements = 1 so
    // ns/elem IS ns/read.
    let read_n: u64 = if quick { 40_000 } else { 400_000 };
    let mut r = BenchGroup::new("window_query_read", 1);
    let mut read_rows: Vec<(usize, f64)> = Vec::new();
    for buckets in [1usize, 2, 4, 8] {
        let read_span = read_n / buckets as u64;
        let mut w = WindowedMonitor::new(prototype(), WindowConfig::new(buckets, read_span));
        for (ts, xs) in epoch_batches(read_n, read_span) {
            w.ingest_batch_at(ts, &xs);
        }
        assert_eq!(w.live_buckets(), buckets, "ring must be full");
        let label = format!("read_{buckets}_buckets");
        r.bench(&label, || {
            w.estimate(Statistic::F0)
                .expect("registered")
                .value
                .to_bits()
        });
        read_rows.push((buckets, r.median_of(&label)));
    }

    // Machine-readable trajectory datapoint (hand-rolled JSON: the
    // workspace is dependency-free by contract).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"window\",\n");
    json.push_str(&format!(
        "  \"schema_version\": {},\n",
        sss_bench::schema::WINDOW
    ));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"stream_elements\": {n},\n"));
    json.push_str(&format!("  \"sampling_rate\": {P},\n"));
    json.push_str(&format!("  \"survivors\": {survivors},\n"));
    json.push_str(&format!("  \"epochs\": {EPOCHS},\n"));
    json.push_str(&format!("  \"window_buckets\": {BUCKETS},\n"));
    json.push_str("  \"ingest\": {\n");
    json.push_str(&format!(
        "    \"monitor_update_batch_ns_per_elem\": {whole_stream:.2},\n"
    ));
    json.push_str(&format!(
        "    \"segmented_monitor_ns_per_elem\": {segmented:.2},\n"
    ));
    json.push_str(&format!(
        "    \"windowed_ingest_batch_ns_per_elem\": {windowed:.2},\n"
    ));
    json.push_str(&format!(
        "    \"windowed_ingest_at_ns_per_elem\": {:.2},\n",
        g.median_of("windowed_ingest_at_per_item")
    ));
    json.push_str(&format!("    \"windowed_over_plain\": {ratio:.3},\n"));
    json.push_str(&format!(
        "    \"windowed_over_whole_stream\": {whole_ratio:.3},\n"
    ));
    json.push_str("    \"target_max_ratio\": 1.3\n");
    json.push_str("  },\n");
    json.push_str("  \"query_read\": [\n");
    for (i, (buckets, ns)) in read_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"live_buckets\": {buckets}, \"ns_per_read\": {ns:.0}}}{}\n",
            if i + 1 == read_rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // The committed trajectory datapoint comes from the full workload;
    // the --quick CI smoke must not clobber it.
    if quick {
        println!("\n--quick: skipping BENCH_window.json write");
    } else {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_window.json");
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
}
