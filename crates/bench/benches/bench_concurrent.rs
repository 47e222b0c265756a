//! Parallel-ingestion trajectory: `ConcurrentMonitor` throughput across
//! thread counts, and the memory its per-worker replicas hold, with
//! machine-readable results written to `BENCH_concurrent.json` at the
//! workspace root.
//!
//! ```text
//! cargo bench --bench bench_concurrent            # full workload, writes JSON
//! cargo bench --bench bench_concurrent -- --quick # CI smoke
//! ```
//!
//! The prototype holds the CountMin (`F_1`) and CountSketch (`F_2`)
//! heavy-hitter reporters, run over the standard 400k-element Zipf
//! workload. Throughput rows are measured. The memory column is
//! structural: worker `i` ingests into its own `fork_shard(i)` replica,
//! so the pipeline holds `threads x` the prototype's sketch bytes (the
//! folded monitor holds one prototype's worth). The
//! `speedup >= 3x at 8 threads` acceptance gate is enforced only when
//! the host actually has 8 hardware threads; on smaller boxes the bench
//! records honest (flat) curves and says so in the JSON.

use std::sync::Arc;

use sss_bench::{schema, BenchGroup};
use sss_core::{ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder};
use sss_stream::{StreamGen, ZipfStream};

const P: f64 = 0.25;
const SAMPLER_SEED: u64 = 43;
/// Small enough that every worker gets several round-robin chunks even
/// at 16 threads on the quick workload.
const DISPATCH_CHUNK: usize = 8192;

/// The grid-substrate prototype: the two heavy-hitter reporters, whose
/// counter grids are most of each replica's bytes.
fn grid_proto() -> Monitor {
    MonitorBuilder::with_seed(P, 7)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.4, 0.2, 0.05)
        .build()
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let n: u64 = if quick { 120_000 } else { 400_000 };
    let thread_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8, 16] };
    let hw = std::thread::available_parallelism().map_or(1, |c| c.get());

    let stream = Arc::new(ZipfStream::new(1 << 16, 1.2).generate(n, 42));
    let proto_bytes = grid_proto().space_bytes();

    // ns/elem is normalised by the *dispatched* stream length: workers
    // sample internally, so this is end-to-end ingest cost.
    let mut g = BenchGroup::new("parallel_ingestion", n);
    let mut rows: Vec<(usize, f64)> = Vec::new();
    for &t in thread_counts {
        let label = format!("concurrent_t{t}");
        g.bench(&label, || {
            let mut cfg = ConcurrentConfig::new(t);
            cfg.dispatch_chunk = DISPATCH_CHUNK;
            let mut cm = ConcurrentMonitor::launch(&grid_proto(), SAMPLER_SEED, cfg);
            cm.ingest_shared(&stream);
            cm.finish().samples_seen()
        });
        rows.push((t, g.median_of(&label)));
    }

    let t1 = rows[0].1;
    println!("\nthreads  ns/elem  speedup vs t1  replica bytes");
    for &(t, c) in &rows {
        println!("{t:>7}  {c:>7.2}  {:>13.2}  {}", t1 / c, proto_bytes * t);
    }

    // Acceptance: >= 3x over single-thread at 8 threads — a statement
    // about cores, so only enforceable where 8 cores exist.
    let speedup_at_8 = rows.iter().find(|&&(t, _)| t == 8).map(|&(_, c)| t1 / c);
    if hw >= 8 {
        let s8 = speedup_at_8.expect("full run benches 8 threads");
        assert!(
            s8 >= 3.0,
            "concurrent ingest at 8 threads is only {s8:.2}x single-thread (target 3x)"
        );
    } else {
        println!(
            "\nhost has {hw} hardware thread(s): the 3x-at-8-threads gate needs 8 cores; \
             recording honest scaling curves without enforcing it"
        );
    }

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"concurrent\",\n");
    json.push_str(&format!("  \"schema_version\": {},\n", schema::CONCURRENT));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"stream_elements\": {n},\n"));
    json.push_str(&format!("  \"sampling_rate\": {P},\n"));
    json.push_str(&format!("  \"dispatch_chunk\": {DISPATCH_CHUNK},\n"));
    json.push_str(&format!("  \"hardware_threads\": {hw},\n"));
    json.push_str(&format!(
        "  \"hardware_note\": \"measured on a {hw}-hardware-thread host: thread counts above \
         {hw} time-slice the same cores, so the throughput curve flattens past {hw} threads by \
         construction and the 3x-at-8-threads target is not enforceable here; the replica bytes \
         are threads x the prototype's space_bytes(), computed, not measured\",\n"
    ));
    json.push_str(&format!(
        "  \"grid_monitor_sketch_bytes\": {proto_bytes},\n"
    ));
    json.push_str("  \"scaling\": [\n");
    for (i, &(t, c)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {t}, \"ns_per_elem\": {c:.2}, \"speedup_vs_t1\": {:.2}, \
             \"replica_sketch_bytes\": {}}}{}\n",
            t1 / c,
            proto_bytes * t,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"acceptance\": {\n");
    json.push_str("    \"target_min_speedup_at_8_threads\": 3.0,\n");
    json.push_str(&format!(
        "    \"speedup_at_8_threads\": {},\n",
        speedup_at_8.map_or("null".into(), |s| format!("{s:.2}"))
    ));
    json.push_str(&format!("    \"enforced\": {}\n", hw >= 8));
    json.push_str("  }\n}\n");

    // The committed trajectory datapoint comes from the full workload;
    // the --quick CI smoke must not clobber it.
    if quick {
        println!("\n--quick: skipping BENCH_concurrent.json write");
    } else {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_concurrent.json");
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
}
