//! Distributed monitors with a central collector — over real sockets.
//!
//! ```text
//! cargo run --release --example distributed_collector
//! ```
//!
//! Three vantage points each observe their own slice of the traffic
//! (different links of the same network). Each site runs a
//! [`ConcurrentMonitor`]: the raw link traffic is partitioned across
//! worker threads, every worker Bernoulli-samples its slice at rate `p`
//! with an independently split seed and ingests into its own replica of
//! the site's monitor, and the replicas fold into one; the site ships a
//! **mid-run** snapshot (`snapshot()`, a consistent cut taken while
//! ingestion continues) and, after `finish()`, its final checkpoint.
//!
//! Nothing is handed over in memory any more: every snapshot crosses a
//! loopback **TCP connection** as a versioned checksummed frame. The
//! collector is a [`CollectorServer`] — accept loop, per-connection
//! handler threads, hello/version handshake — that decodes each push
//! through the codec registry and folds it in behind `try_merge`.
//! Failures on the receive path are **counters, not panics**: the demo
//! deliberately injects a corrupt frame and a snapshot from an
//! incompatible monitor configuration, and both show up as typed
//! per-reason rejections in [`TransportStats`] while the well-behaved
//! sites keep streaming.

use std::net::TcpStream;
use std::time::Duration;

use subsampled_streams::codec::WireCodec;
use subsampled_streams::core::{
    ConcurrentConfig, ConcurrentMonitor, Monitor, MonitorBuilder, Statistic,
};
use subsampled_streams::stream::{ExactStats, NetFlowStream, StreamGen};
use subsampled_streams::transport::{
    write_frame, ClientConfig, CollectorServer, Hello, ServerConfig, SiteClient,
    TRANSPORT_PROTO_VERSION,
};

fn main() {
    let p = 0.05;
    let sites = 3usize;
    let threads_per_site = 2usize;
    let packets_per_site = 400_000u64;

    // Each site sees its own traffic mix (overlapping flow id space).
    let traces: Vec<std::sync::Arc<Vec<u64>>> = (0..sites)
        .map(|s| {
            std::sync::Arc::new(
                NetFlowStream::new(1 << 22, 1.1, 50_000).generate(packets_per_site, 10 + s as u64),
            )
        })
        .collect();

    // Ground truth over the union of all traffic.
    let mut all = ExactStats::new();
    for trace in &traces {
        for &x in trace.iter() {
            all.push(x);
        }
    }

    // Per-site prototypes: identical builder config (same sketch seeds —
    // mergeability requires shared hashes). Sampling randomness is
    // independent per site AND per worker: site `s` passes sampler
    // seed `100 + s`, and the pipeline derives worker `i`'s sampler from
    // `split_seed(100 + s, i)`.
    let site_prototype = || -> Monitor {
        MonitorBuilder::with_seed(p, 4242)
            .fk(2)
            .f0(0.05)
            .entropy(2000)
            .build()
    };

    // The collector: a real TCP endpoint on loopback. The OS picks the
    // port; sites dial it like they would a production collector.
    let server = CollectorServer::bind("127.0.0.1:0", site_prototype(), ServerConfig::default())
        .expect("bind collector on loopback");
    let addr = server.local_addr();
    println!("collector listening on {addr}\n");

    // Sites run concurrently: summarise the link with a parallel monitor,
    // push a mid-run snapshot while ingestion continues, then the final
    // checkpoint. Every push blocks for the collector's typed ack and
    // reconnects with exponential backoff if the link drops.
    let mut handles = Vec::new();
    for (s, trace) in traces.iter().enumerate() {
        let trace = std::sync::Arc::clone(trace);
        let proto = site_prototype();
        handles.push(std::thread::spawn(move || {
            let mut parallel = ConcurrentMonitor::launch(
                &proto,
                100 + s as u64,
                ConcurrentConfig::new(threads_per_site),
            );
            let mut client =
                SiteClient::connect(addr, ClientConfig::new(s as u64, format!("site-{s}")))
                    .expect("site connects to the collector");

            // First half of the trace, then a mid-run snapshot: a
            // consistent cut crosses the wire while workers keep
            // ingesting what is still queued.
            let half = trace.len() / 2;
            parallel.ingest(&trace[..half]);
            let mid = parallel.snapshot().checkpoint().expect("snapshot encodes");
            let mid_len = mid.len();
            client.push_wire(mid).expect("mid-run snapshot accepted");

            // Rest of the trace, then the exact final checkpoint.
            parallel.ingest(&trace[half..]);
            let monitor = parallel.finish();
            let wire = monitor.checkpoint().expect("checkpoint encodes");
            let wire_len = wire.len();
            client.push_wire(wire).expect("final snapshot accepted");
            let stats = client.close();
            println!(
                "site {s}: {} of {} packets sampled ({:.1}%) across {threads_per_site} threads; \
                 pushed mid-run {} KiB + final {} KiB snapshot over TCP as {} KiB of frames \
                 ({} accepted, {} as deltas, {} retries)",
                monitor.samples_seen(),
                trace.len(),
                100.0 * monitor.samples_seen() as f64 / trace.len() as f64,
                mid_len / 1024,
                wire_len / 1024,
                stats.bytes_out / 1024,
                stats.snapshots_pushed,
                stats.snapshots_delta,
                stats.retries,
            );
        }));
    }
    for h in handles {
        h.join().expect("site thread");
    }

    // Chaos, on purpose: a corrupt frame and an incompatible snapshot.
    // In the mailbox days each of these was an `expect()` panic on the
    // receive path; now they are per-reason rejection counters and the
    // collector keeps serving.
    {
        // A well-formed hello followed by a frame with a flipped byte.
        let mut raw = TcpStream::connect(addr).expect("connect");
        raw.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let hello = Hello {
            proto_version: TRANSPORT_PROTO_VERSION,
            site_id: 77,
            site_name: "bit-rot".to_string(),
            features: 0,
        };
        write_frame(&mut raw, &hello.encode_framed()).expect("hello");
        let _ = subsampled_streams::transport::read_frame(&mut raw, 1 << 20);
        let mut monitor = site_prototype();
        monitor.update_batch(&[1, 2, 3]);
        let push = subsampled_streams::transport::SnapshotPush {
            site_id: 77,
            seq: 0,
            snapshot: monitor.checkpoint().expect("checkpoint"),
        };
        let mut frame = push.encode_framed();
        let n = frame.len();
        frame[n / 2] ^= 0x20; // bit rot in flight
        write_frame(&mut raw, &frame).expect("send corrupt frame");
        let _ = subsampled_streams::transport::read_frame(&mut raw, 1 << 20); // typed NACK

        // An incompatible monitor configuration (different statistics).
        let mut foreign = MonitorBuilder::with_seed(p, 4242).f0(0.05).build();
        foreign.update_batch(&[4, 5, 6]);
        let mut client =
            SiteClient::connect(addr, ClientConfig::new(78, "misconfigured")).expect("connect");
        match client.push_monitor(&foreign) {
            Err(e) => println!("\nmisconfigured site rejected as expected: {e}"),
            Ok(_) => println!("\nunexpected: incompatible snapshot accepted"),
        }
        client.close();
    }

    // Wind down: final merged view + the transport's observability.
    let (collector, stats) = server.shutdown();

    println!(
        "\ntransport stats: {} connections, {} snapshots accepted, {} duplicate, \
         {} KiB in, {} rejected",
        stats.connections_accepted,
        stats.snapshots_accepted,
        stats.snapshots_duplicate,
        stats.bytes_in / 1024,
        stats.rejected_total(),
    );
    for (label, count) in stats.rejected_nonzero() {
        println!("  rejected[{label}] = {count}");
    }
    for site in &stats.sites {
        println!(
            "  site {} ({}): {} snapshots, last seq {:?}, {} KiB, last seen {:.1}s ago",
            site.site_id,
            site.name,
            site.snapshots_accepted,
            site.last_seq,
            site.bytes_in / 1024,
            site.since_last_seen.as_secs_f64(),
        );
    }

    println!("\ncollector view (merged {sites} sites over TCP):");
    let f2 = collector.estimate(Statistic::Fk(2)).expect("registered");
    let t2 = all.fk(2);
    println!(
        "  F2 (self-join size): est {:.3e}  true {:.3e}  err {:.2}%",
        f2.value,
        t2,
        100.0 * (f2.value - t2).abs() / t2
    );
    let f0 = collector.estimate(Statistic::F0).expect("registered");
    let t0 = all.f0() as f64;
    println!(
        "  F0 (active flows)  : est {:.0}  true {:.0}  ratio {:.2}",
        f0.value,
        t0,
        f0.value / t0
    );
    let h = collector.estimate(Statistic::Entropy).expect("registered");
    let th = all.entropy();
    println!(
        "  entropy            : est {:.3}  true {:.3}  ratio {:.2}",
        h.value,
        th,
        h.value / th
    );
    println!(
        "\nTakeaway: the same merge algebra scales the monitor across threads\n\
         (workers within a site), and now across an actual network boundary:\n\
         summaries arrive as versioned checksummed frames over TCP, corrupt\n\
         or incompatible ones become typed rejection counters, and the\n\
         merged answer is byte-for-byte what an in-memory merge would give."
    );
}
