//! Parallel-ingestion trajectory: `ConcurrentMonitor`'s `Auto` strategy
//! (shared-atomic grids) vs its `Replicated` strategy (one full replica
//! per worker) on the grid substrates, across thread counts, with
//! machine-readable results written to
//! `BENCH_concurrent.json` at the workspace root.
//!
//! ```text
//! cargo bench --bench bench_concurrent            # full workload, writes JSON
//! cargo bench --bench bench_concurrent -- --quick # CI smoke
//! ```
//!
//! Both strategies race the same prototype — the CountMin (`F_1`) and
//! CountSketch (`F_2`) heavy-hitter substrates, the two that
//! `ParallelStrategy::Auto` routes to shared-atomic grids — over the
//! standard 400k-element Zipf workload. Throughput rows are measured;
//! the memory rows are structural: the replicated strategy forks one
//! full replica per worker (`threads x` the prototype's sketch
//! bytes), while the shared-atomic grids are a single allocation the
//! size of the prototype's, whatever the thread count (`AtomicU64`
//! cells are layout-identical to the plain grids' `u64`s). The
//! `speedup >= 3x at 8 threads` acceptance gate is enforced only when
//! the host actually has 8 hardware threads; on smaller boxes the bench
//! records honest (flat) curves and says so in the JSON.

use std::sync::Arc;

use sss_bench::{schema, BenchGroup};
use sss_core::{ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, ParallelStrategy};
use sss_stream::{StreamGen, ZipfStream};

const P: f64 = 0.25;
const SAMPLER_SEED: u64 = 43;
/// Small enough that every worker gets several round-robin chunks even
/// at 16 threads on the quick workload.
const DISPATCH_CHUNK: usize = 8192;

/// The grid-substrate prototype: both entries route to shared-atomic
/// grids under `ParallelStrategy::Auto`, so this isolates the
/// one-shared-state-vs-N-replicas comparison the bench is about.
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

    // ns/elem is normalised by the *dispatched* stream length: both
    // strategies sample internally, so this is end-to-end ingest cost.
    let mut g = BenchGroup::new("parallel_ingestion", n);
    let mut rows: Vec<(usize, f64, f64)> = Vec::new();
    for &t in thread_counts {
        let run = |strategy: ParallelStrategy| {
            let mut cfg = ConcurrentConfig::new(t);
            cfg.dispatch_chunk = DISPATCH_CHUNK;
            cfg.strategy = strategy;
            let mut cm = ConcurrentMonitor::launch(&grid_proto(), SAMPLER_SEED, cfg);
            cm.ingest_shared(&stream);
            cm.finish().samples_seen()
        };
        let conc_label = format!("concurrent_t{t}");
        let repl_label = format!("replicated_t{t}");
        g.bench(&conc_label, || run(ParallelStrategy::Auto));
        g.bench(&repl_label, || run(ParallelStrategy::Replicated));
        rows.push((t, g.median_of(&conc_label), g.median_of(&repl_label)));
    }

    let conc_t1 = rows[0].1;
    println!("\nthreads  concurrent ns/e  replicated ns/e  conc speedup vs t1  sketch bytes (conc / replicated)");
    for &(t, c, r) in &rows {
        println!(
            "{t:>7}  {c:>15.2}  {r:>15.2}  {:>18.2}  {proto_bytes} / {}",
            conc_t1 / c,
            proto_bytes * t
        );
    }

    // Acceptance: >= 3x over single-thread at 8 threads — a statement
    // about cores, so only enforceable where 8 cores exist. The memory
    // side needs no cores: shared grids are one prototype-sized
    // allocation at every thread count, vs the replicated strategy's
    // threads x replicas.
    let speedup_at_8 = rows
        .iter()
        .find(|&&(t, _, _)| t == 8)
        .map(|&(_, c, _)| conc_t1 / c);
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
         {hw} time-slice the same cores, so the throughput curves flatten past {hw} threads by \
         construction and the 3x-at-8-threads target is not enforceable here; the memory column \
         is structural and host-independent\",\n"
    ));
    json.push_str(&format!(
        "  \"grid_monitor_sketch_bytes\": {proto_bytes},\n"
    ));
    json.push_str("  \"scaling\": [\n");
    for (i, &(t, c, r)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"threads\": {t}, \"concurrent_ns_per_elem\": {c:.2}, \
             \"replicated_ns_per_elem\": {r:.2}, \"concurrent_speedup_vs_t1\": {:.2}, \
             \"concurrent_sketch_bytes\": {proto_bytes}, \"replicated_sketch_bytes\": {}, \
             \"memory_ratio_replicated_over_concurrent\": {t}}}{}\n",
            conc_t1 / c,
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
