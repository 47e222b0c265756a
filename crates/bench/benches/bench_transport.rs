//! Snapshot-transport throughput over loopback TCP, with
//! machine-readable results written to `BENCH_transport.json` next to
//! `BENCH_codec.json` at the workspace root.
//!
//! ```text
//! cargo bench --bench bench_transport            # full workload
//! cargo bench --bench bench_transport -- --quick # CI smoke
//! ```
//!
//! Each measured push is the complete production round trip: client
//! frames and writes the snapshot, collector pre-validates the header,
//! checksums the payload, decodes the monitor through the codec
//! registry, proves mergeability against its prototype, stores it and
//! acks — so frames/s here is *accepted collector throughput*, not raw
//! socket bandwidth. Scenarios cover a small snapshot (F0-only
//! monitor), the full five-statistic monitor, and four sites pushing
//! the full snapshot concurrently.

use std::time::{Duration, Instant};

use sss_core::{Monitor, MonitorBuilder};
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};
use sss_transport::{ClientConfig, CollectorServer, ServerConfig, SiteClient};

const P: f64 = 0.25;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

fn small_prototype() -> Monitor {
    MonitorBuilder::with_seed(P, 7).f0(0.05).build()
}

fn full_prototype() -> Monitor {
    MonitorBuilder::with_seed(P, 7)
        .f0(0.05)
        .fk(2)
        .entropy(2000)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.3, 0.2, 0.05)
        .build()
}

fn ingested(mut monitor: Monitor, n: u64) -> Monitor {
    let stream = ZipfStream::new(1 << 14, 1.2).generate(n, 42);
    let mut sampler = BernoulliSampler::new(P, 43);
    sampler.sample_batches(&stream, 1024, |c| monitor.update_batch(c));
    monitor
}

struct Row {
    scenario: &'static str,
    snapshot_bytes: usize,
    sites: usize,
    ns_per_push: f64,
    frames_per_s: f64,
    mib_per_s: f64,
    /// Mean wire bytes per steady-state delta push (delta scenario only).
    delta_bytes_per_push: Option<f64>,
}

/// `sites` clients each push `pushes` snapshots; returns median
/// per-push wall time across `runs` repetitions (aggregate across
/// sites: total pushes / total wall time).
fn bench_scenario(
    scenario: &'static str,
    prototype: &Monitor,
    snapshot: &[u8],
    sites: usize,
    pushes: usize,
    runs: usize,
) -> Row {
    let server = CollectorServer::bind("127.0.0.1:0", prototype.clone(), ServerConfig::default())
        .expect("bind");
    let addr = server.local_addr();

    let mut per_push_ns = Vec::new();
    for run in 0..runs + 1 {
        // Connect + handshake OUTSIDE the timed region (accept latency
        // is bounded by the server's poll interval and would otherwise
        // drown small-snapshot numbers); a barrier releases all sites
        // into their push loops at once.
        let barrier = std::sync::Arc::new(std::sync::Barrier::new(sites + 1));
        let handles: Vec<_> = (0..sites)
            .map(|s| {
                let snapshot = snapshot.to_vec();
                let barrier = std::sync::Arc::clone(&barrier);
                // Fresh site ids per run keep per-site stats rows
                // separate (re-used ids would also work — the hello
                // ack resumes the sequence).
                let site_id = (run * sites + s) as u64;
                std::thread::spawn(move || {
                    let mut cfg = ClientConfig::new(site_id, format!("bench-{site_id}"));
                    cfg.ack_timeout = Duration::from_secs(30);
                    let mut client = SiteClient::connect(addr, cfg).expect("connect");
                    barrier.wait();
                    for _ in 0..pushes {
                        client.push_wire(snapshot.clone()).expect("push accepted");
                    }
                    client.close();
                })
            })
            .collect();
        barrier.wait();
        let t0 = Instant::now();
        for h in handles {
            h.join().expect("bench site");
        }
        let elapsed = t0.elapsed().as_nanos() as f64;
        if run > 0 {
            // run 0 is warm-up.
            per_push_ns.push(elapsed / (sites * pushes) as f64);
        }
    }
    let (_, stats) = server.shutdown();
    assert_eq!(
        stats.rejected_total(),
        0,
        "bench pushes must all be accepted"
    );

    let ns = median(per_push_ns);
    Row {
        scenario,
        snapshot_bytes: snapshot.len(),
        sites,
        ns_per_push: ns,
        frames_per_s: 1e9 / ns,
        mib_per_s: (snapshot.len() as f64 / (1 << 20) as f64) / (ns / 1e9),
        delta_bytes_per_push: None,
    }
}

/// Steady-state delta pushes: ingest a long warm-up, push the full
/// snapshot once, then push after each of `increments` small ingest
/// steps — the `SiteClient` ships those as delta pushes. Measures the
/// mean wire bytes and wall time per delta push (checkpoint diff +
/// write + collector reconstruction + decode + merge check + ack).
fn bench_delta_scenario(n: u64, increments: usize) -> Row {
    let server = CollectorServer::bind("127.0.0.1:0", full_prototype(), ServerConfig::default())
        .expect("bind");

    // Warm up to a saturated monitor, then precompute the per-increment
    // checkpoints so the timed loop is transport work only.
    let stream = ZipfStream::new(1 << 14, 1.2).generate(n, 42);
    let warm = (n as usize) * 4 / 5;
    let mut monitor = full_prototype();
    let mut sampler = BernoulliSampler::new(P, 43);
    sampler.sample_batches(&stream[..warm], 1024, |c| monitor.update_batch(c));
    let base_wire = monitor.checkpoint().expect("base checkpoint");
    let step = (stream.len() - warm) / increments;
    let mut checkpoints = Vec::with_capacity(increments);
    for i in 0..increments {
        let lo = warm + i * step;
        let hi = if i + 1 == increments {
            stream.len()
        } else {
            lo + step
        };
        sampler.sample_batches(&stream[lo..hi], 1024, |c| monitor.update_batch(c));
        checkpoints.push(monitor.checkpoint().expect("incremental checkpoint"));
    }

    let mut cfg = ClientConfig::new(900, "bench-delta");
    cfg.ack_timeout = Duration::from_secs(30);
    let mut client = SiteClient::connect(server.local_addr(), cfg).expect("connect");
    client.push_wire(base_wire.clone()).expect("base push");
    let bytes_before = client.stats().bytes_out;

    let t0 = Instant::now();
    for wire in &checkpoints {
        client.push_wire(wire.clone()).expect("delta push");
    }
    let elapsed = t0.elapsed().as_nanos() as f64;
    let stats = client.stats().clone();
    client.close();
    assert_eq!(
        stats.snapshots_delta, increments as u64,
        "steady-state pushes must ride as deltas"
    );
    let (_, sstats) = server.shutdown();
    assert_eq!(sstats.rejected_total(), 0, "bench pushes must be accepted");

    let full_bytes = checkpoints.last().expect("nonempty").len();
    let delta_bytes = (stats.bytes_out - bytes_before) as f64 / increments as f64;
    let ns = elapsed / increments as f64;
    Row {
        scenario: "full_delta_steady_state",
        snapshot_bytes: full_bytes,
        sites: 1,
        ns_per_push: ns,
        frames_per_s: 1e9 / ns,
        mib_per_s: (delta_bytes / (1 << 20) as f64) / (ns / 1e9),
        delta_bytes_per_push: Some(delta_bytes),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (n, pushes, runs) = if quick {
        (50_000, 10, 3)
    } else {
        (1_000_000, 50, 5)
    };

    let small = ingested(small_prototype(), n);
    let small_wire = small.checkpoint().expect("checkpoint");
    let full = ingested(full_prototype(), n);
    let full_wire = full.checkpoint().expect("checkpoint");

    let rows = vec![
        bench_scenario(
            "small_single_site",
            &small_prototype(),
            &small_wire,
            1,
            pushes,
            runs,
        ),
        bench_scenario(
            "full_single_site",
            &full_prototype(),
            &full_wire,
            1,
            pushes,
            runs,
        ),
        bench_scenario(
            "full_concurrent_4_sites",
            &full_prototype(),
            &full_wire,
            4,
            pushes,
            runs,
        ),
        bench_delta_scenario(n, if quick { 8 } else { 25 }),
    ];

    // Delta acceptance: steady-state delta pushes must run at least 2x
    // smaller than the full snapshot they replace (they are far
    // smaller).
    let delta_row = rows
        .iter()
        .find(|r| r.scenario == "full_delta_steady_state")
        .unwrap();
    let per_push = delta_row.delta_bytes_per_push.unwrap();
    assert!(
        per_push * 2.0 <= delta_row.snapshot_bytes as f64,
        "delta pushes average {per_push:.0} B against a {} B full snapshot",
        delta_row.snapshot_bytes
    );

    println!(
        "\n== transport over loopback ({} raw elements ingested{}) ==",
        n,
        if quick { ", quick" } else { "" }
    );
    println!(
        "{:<24} {:>10} {:>7} {:>12} {:>12} {:>12}",
        "scenario", "snap KiB", "sites", "us/push", "frames/s", "MiB/s"
    );
    for r in &rows {
        println!(
            "{:<24} {:>10.1} {:>7} {:>12.1} {:>12.0} {:>12.1}{}",
            r.scenario,
            r.snapshot_bytes as f64 / 1024.0,
            r.sites,
            r.ns_per_push / 1e3,
            r.frames_per_s,
            r.mib_per_s,
            r.delta_bytes_per_push.map_or(String::new(), |b| format!(
                "   ({:.1} KiB/delta push, {:.1}x smaller)",
                b / 1024.0,
                r.snapshot_bytes as f64 / b
            ))
        );
    }

    // Machine-readable trajectory datapoint (hand-rolled JSON: the
    // workspace is dependency-free by contract).
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"transport\",\n");
    json.push_str(&format!(
        "  \"schema_version\": {},\n",
        sss_bench::schema::TRANSPORT
    ));
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(&format!("  \"stream_elements\": {n},\n"));
    json.push_str(&format!("  \"sampling_rate\": {P},\n"));
    json.push_str(&format!("  \"pushes_per_site\": {pushes},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let delta = r.delta_bytes_per_push.map_or(String::new(), |b| {
            format!(
                " \"delta_bytes_per_push\": {:.0}, \"full_over_delta\": {:.2},",
                b,
                r.snapshot_bytes as f64 / b
            )
        });
        json.push_str(&format!(
            "    {{\"scenario\": \"{}\", \"snapshot_bytes\": {},{} \"sites\": {}, \
             \"ns_per_push\": {:.0}, \"frames_per_s\": {:.1}, \"mib_per_s\": {:.2}}}{}\n",
            r.scenario,
            r.snapshot_bytes,
            delta,
            r.sites,
            r.ns_per_push,
            r.frames_per_s,
            r.mib_per_s,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    // The committed trajectory datapoint comes from the full workload;
    // the --quick CI smoke must not clobber it.
    if quick {
        println!("\n--quick: skipping BENCH_transport.json write");
    } else {
        let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_transport.json");
        match std::fs::write(&out, &json) {
            Ok(()) => println!("\nwrote {}", out.display()),
            Err(e) => eprintln!("\ncould not write {}: {e}", out.display()),
        }
    }
}
