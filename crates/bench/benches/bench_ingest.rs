//! Batch-ingestion trajectory: scalar per-item `update` vs the
//! structure-of-arrays `update_batch` hot path, per estimator and for the
//! full monitor, with machine-readable results written to
//! `BENCH_ingest.json` at the workspace root.
//!
//! ```text
//! cargo bench --bench bench_ingest            # full workload, writes JSON
//! cargo bench --bench bench_ingest -- --quick # CI smoke
//! ```
//!
//! The scalar paths are the reference implementation (one hash evaluation
//! per row per item); the batch paths reduce each chunk into the hash
//! field once, run the SWAR lane kernels over the whole chunk, and sweep
//! the sketch grids row-major. Both produce bitwise-identical state — the
//! equivalence batteries in `sss-sketch` pin that — so this bench is pure
//! like-for-like throughput. Acceptance: the full monitor's batch path is
//! at least **4×** its scalar path (3× under `--quick`, where the short
//! workload inflates fixed costs).

use sss_bench::{schema, BenchGroup};
use sss_core::{Monitor, MonitorBuilder};
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};

const P: f64 = 0.25;
const BATCH: usize = 4096;

/// The standard four-estimator monitor.
fn full_monitor() -> Monitor {
    MonitorBuilder::with_seed(P, 7)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .build()
}

/// A monitor carrying one estimator, to isolate its ingestion cost.
fn single_monitor(which: &str) -> Monitor {
    let b = MonitorBuilder::with_seed(P, 7);
    match which {
        "f0" => b.f0(0.05),
        "fk2" => b.fk(2),
        "entropy" => b.entropy(512),
        "f1_heavy_hitters" => b.f1_heavy_hitters(0.05, 0.2, 0.05),
        other => unreachable!("unknown estimator {other}"),
    }
    .build()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: u64 = if quick { 120_000 } else { 400_000 };
    let target = if quick { 3.0 } else { 4.0 };

    let stream = ZipfStream::new(1 << 16, 1.2).generate(n, 42);
    let sampled = BernoulliSampler::new(P, 43).sample_to_vec(&stream);
    let survivors = sampled.len() as u64;

    // Per-estimator scalar vs batch.
    let names = ["f0", "fk2", "entropy", "f1_heavy_hitters"];
    let mut g = BenchGroup::new("estimator_ingestion", survivors);
    let mut rows: Vec<(&str, f64, f64)> = Vec::new();
    for name in names {
        let scalar_label = format!("{name}_scalar");
        let batch_label = format!("{name}_batch_{BATCH}");
        g.bench(&scalar_label, || {
            let mut m = single_monitor(name);
            for &x in &sampled {
                m.update(x);
            }
            m.samples_seen()
        });
        g.bench(&batch_label, || {
            let mut m = single_monitor(name);
            for chunk in sampled.chunks(BATCH) {
                m.update_batch(chunk);
            }
            m.samples_seen()
        });
        rows.push((name, g.median_of(&scalar_label), g.median_of(&batch_label)));
    }

    // The full monitor, scalar vs batch — the acceptance metric.
    let mut m = BenchGroup::new("monitor_ingestion", survivors);
    m.bench("monitor_scalar", || {
        let mut mon = full_monitor();
        for &x in &sampled {
            mon.update(x);
        }
        mon.samples_seen()
    });
    m.bench(&format!("monitor_batch_{BATCH}"), || {
        let mut mon = full_monitor();
        for chunk in sampled.chunks(BATCH) {
            mon.update_batch(chunk);
        }
        mon.samples_seen()
    });

    let scalar = m.median_of("monitor_scalar");
    let batch = m.median_of(&format!("monitor_batch_{BATCH}"));
    let speedup = scalar / batch;
    println!("\nmonitor batch speedup over scalar: {speedup:.2}x (target >= {target}x)");
    assert!(
        speedup >= target,
        "batch ingestion at {batch:.2} ns/elem is only {speedup:.2}x the scalar \
         path's {scalar:.2} ns/elem (target {target}x)"
    );

    // Machine-readable trajectory datapoint (hand-rolled JSON: the
    // workspace is dependency-free by contract).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"ingest\",\n");
    json.push_str(&format!("  \"schema_version\": {},\n", schema::INGEST));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"stream_elements\": {n},\n"));
    json.push_str(&format!("  \"sampling_rate\": {P},\n"));
    json.push_str(&format!("  \"survivors\": {survivors},\n"));
    json.push_str(&format!("  \"batch_size\": {BATCH},\n"));
    json.push_str("  \"estimators\": [\n");
    for (i, (name, s, b)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"scalar_ns_per_elem\": {s:.2}, \
             \"batch_ns_per_elem\": {b:.2}, \"speedup\": {:.2}}}{}\n",
            s / b,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"monitor\": {\n");
    json.push_str(&format!("    \"scalar_ns_per_elem\": {scalar:.2},\n"));
    json.push_str(&format!("    \"batch_ns_per_elem\": {batch:.2},\n"));
    json.push_str(&format!("    \"speedup\": {speedup:.2},\n"));
    json.push_str("    \"target_min_speedup\": 4.0\n");
    json.push_str("  }\n}\n");

    // The committed trajectory datapoint comes from the full workload;
    // the --quick CI smoke must not clobber it.
    if quick {
        println!("\n--quick: skipping BENCH_ingest.json write");
    } else {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_ingest.json");
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
}
