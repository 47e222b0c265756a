//! Transport integration battery over real loopback sockets: the
//! end-to-end acceptance path (K sites → TCP → collector, bitwise equal
//! to the in-memory merge) plus the failure drills — mid-stream
//! disconnect with reconnect-and-resume, corrupt-frame injection with
//! per-reason accounting, duplicate suppression, and the
//! version-mismatch handshake refusal.

use std::net::TcpStream;
use std::time::Duration;

use subsampled_streams::codec::WireCodec;
use subsampled_streams::core::{Monitor, MonitorBuilder, Statistic};
use subsampled_streams::obs::{global, MetricId};
use subsampled_streams::stream::{BernoulliSampler, StreamGen, ZipfStream};
use subsampled_streams::transport::{
    read_frame, write_frame, AckStatus, ClientConfig, CollectorServer, Hello, HelloAck,
    PushOutcome, RejectReason, RetryPolicy, ServerConfig, SiteClient, SnapshotAck, SnapshotPush,
    TransportError, TRANSPORT_PROTO_VERSION,
};

const P: f64 = 0.2;

/// The shared builder configuration every site and the collector use —
/// mergeability requires identical sketch seeds.
fn prototype() -> Monitor {
    MonitorBuilder::with_seed(P, 4242)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .build()
}

fn test_server_config() -> ServerConfig {
    ServerConfig {
        poll_interval: Duration::from_millis(5),
        handshake_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    }
}

fn test_client_config(site_id: u64) -> ClientConfig {
    let mut cfg = ClientConfig::new(site_id, format!("site-{site_id}"));
    cfg.retry = RetryPolicy {
        max_attempts: 6,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(200),
    };
    cfg.ack_timeout = Duration::from_secs(5);
    cfg
}

/// Build one site's monitor over its (disjoint) partition of the
/// stream and return it with its checkpoint bytes.
fn site_monitor(partition: &[u64], sampler_seed: u64) -> (Monitor, Vec<u8>) {
    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, sampler_seed);
    sampler.sample_batches(partition, 1024, |chunk| monitor.update_batch(chunk));
    let wire = monitor.checkpoint().expect("registered estimators decode");
    (monitor, wire)
}

/// Acceptance: K site threads stream disjoint partitions, ship their
/// snapshots over real TCP, and the collector's merged estimates are
/// bitwise-equal to an in-memory `Monitor::try_merge` of the same
/// snapshots (same ascending-site fold order).
#[test]
fn sites_over_tcp_merge_bitwise_equal_to_in_memory() {
    let sites = 3usize;
    let stream = ZipfStream::new(2_000, 1.2).generate(90_000, 17);
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let addr = server.local_addr();

    let mut handles = Vec::new();
    let chunk = stream.len() / sites;
    for s in 0..sites {
        let lo = s * chunk;
        let hi = if s + 1 == sites {
            stream.len()
        } else {
            lo + chunk
        };
        let partition = stream[lo..hi].to_vec();
        handles.push(std::thread::spawn(move || {
            let (_, wire) = site_monitor(&partition, 100 + s as u64);
            let mut client =
                SiteClient::connect(addr, test_client_config(s as u64)).expect("connect");
            let outcome = client.push_wire(wire.clone()).expect("push");
            assert_eq!(outcome, PushOutcome::Accepted);
            client.close();
            wire
        }));
    }
    let wires: Vec<Vec<u8>> = handles
        .into_iter()
        .map(|h| h.join().expect("site"))
        .collect();

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, sites as u64);
    assert_eq!(stats.rejected_total(), 0);
    assert_eq!(stats.sites.len(), sites);
    assert!(stats.bytes_in > wires.iter().map(|w| w.len() as u64).sum::<u64>());

    // In-memory reference: restore the same snapshot bytes and fold
    // them in the same ascending-site order.
    let mut reference = prototype();
    for wire in &wires {
        let site = Monitor::restore(wire).expect("restore");
        reference.try_merge(&site).expect("same builder config");
    }
    assert_eq!(merged.samples_seen(), reference.samples_seen());
    for ((la, ea), (lb, eb)) in merged.report().iter().zip(&reference.report()) {
        assert_eq!(la, lb);
        assert_eq!(
            ea.value.to_bits(),
            eb.value.to_bits(),
            "{la}: TCP-merged {} vs in-memory {}",
            ea.value,
            eb.value
        );
    }
    assert!(merged.estimate(Statistic::Fk(2)).unwrap().value > 0.0);
}

/// A connection dropped mid-run (no goodbye) is recovered by the next
/// push: reconnect, re-handshake, resume the sequence — no snapshot
/// lost, none double-counted.
#[test]
fn mid_stream_disconnect_reconnects_and_resumes() {
    let stream = ZipfStream::new(500, 1.1).generate(40_000, 23);
    let (first_half, second_half) = stream.split_at(stream.len() / 2);
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");

    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, 7);
    let mut client =
        SiteClient::connect(server.local_addr(), test_client_config(1)).expect("connect");

    // First checkpoint lands normally.
    sampler.sample_batches(first_half, 1024, |c| monitor.update_batch(c));
    assert_eq!(
        client.push_monitor(&monitor).expect("push 1"),
        PushOutcome::Accepted
    );
    let after_first = monitor.samples_seen();

    // The cable gets pulled (no goodbye)…
    client.drop_connection();
    assert!(!client.is_connected());

    // …the site keeps monitoring, and the next push transparently
    // reconnects and resumes with the next sequence number.
    sampler.sample_batches(second_half, 1024, |c| monitor.update_batch(c));
    assert_eq!(
        client.push_monitor(&monitor).expect("push 2"),
        PushOutcome::Accepted
    );
    assert_eq!(client.stats().reconnects, 1);
    assert_eq!(client.next_seq(), 2);
    client.close();

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, 2);
    assert!(stats.disconnects >= 1, "the drop must be visible");
    assert_eq!(stats.rejected_total(), 0);
    // Cumulative snapshots: the collector holds the *latest* state —
    // everything the site saw, once.
    assert_eq!(merged.samples_seen(), monitor.samples_seen());
    assert!(monitor.samples_seen() > after_first);
    let row = &stats.sites[0];
    assert_eq!(row.site_id, 1);
    assert_eq!(row.last_seq, Some(1));
    assert_eq!(row.snapshots_accepted, 2);
}

/// Hand-rolled peer: handshake, then a push re-sent with the same
/// sequence number (the retry-after-lost-ack shape). The second copy is
/// answered `Duplicate` and merged zero times.
#[test]
fn duplicate_sequence_is_acked_but_not_double_counted() {
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let hello = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 5,
        site_name: "raw-site".to_string(),
        features: 0,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("hello ack");
    assert!(HelloAck::decode_framed(&bytes).expect("decode").accepted);

    let (site, wire) = site_monitor(&ZipfStream::new(300, 1.0).generate(20_000, 3), 11);
    let push = SnapshotPush {
        site_id: 5,
        seq: 0,
        snapshot: wire,
    };
    let frame = push.encode_framed();
    for (round, expected) in [(1u32, AckStatus::Accepted), (2, AckStatus::Duplicate)] {
        write_frame(&mut stream, &frame).expect("push");
        let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("ack");
        let ack = SnapshotAck::decode_framed(&bytes).expect("decode ack");
        assert_eq!(ack.seq, 0);
        assert_eq!(ack.status, expected, "round {round}");
    }

    // The reserved sequence (u64::MAX = SEQ_UNKNOWN, the undecodable-
    // payload ack sentinel) is rejected instead of wedging the dedup
    // window at the top of the range.
    let push = SnapshotPush {
        site_id: 5,
        seq: u64::MAX,
        snapshot: frame[..0].to_vec(),
    };
    write_frame(&mut stream, &push.encode_framed()).expect("reserved-seq push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("decode nack");
    assert_eq!(ack.status, AckStatus::Rejected);
    assert!(ack.reason.contains("reserved"), "reason: {}", ack.reason);

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, 1);
    assert_eq!(stats.snapshots_duplicate, 1);
    assert_eq!(stats.rejected(RejectReason::InvalidPayload), 1);
    assert_eq!(
        merged.samples_seen(),
        site.samples_seen(),
        "merged exactly once"
    );
}

/// Corrupt frames are rejected under the right reason counter while the
/// connection keeps serving, and an incompatible (but well-formed)
/// snapshot is rejected as merge-incompatible — never a panic, never a
/// poisoned collector.
#[test]
fn corruption_and_incompatibility_increment_reasons_and_keep_serving() {
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");

    let hello = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 9,
        site_name: "chaos-site".to_string(),
        features: 0,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("hello ack");
    assert!(HelloAck::decode_framed(&bytes).expect("decode").accepted);

    let (site, wire) = site_monitor(&ZipfStream::new(300, 1.0).generate(20_000, 5), 13);

    // 1) Outer corruption: flip one byte of the transport frame's
    //    payload — the frame checksum catches it; the sequence number
    //    is unknowable, so the NACK carries SEQ_UNKNOWN.
    let good = SnapshotPush {
        site_id: 9,
        seq: 0,
        snapshot: wire.clone(),
    }
    .encode_framed();
    let mut corrupt_outer = good.clone();
    let n = corrupt_outer.len();
    corrupt_outer[n / 2] ^= 0x40;
    write_frame(&mut stream, &corrupt_outer).expect("send corrupt");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("decode nack");
    assert_eq!(ack.status, AckStatus::Rejected);
    assert!(ack.reason.contains("checksum"), "reason: {}", ack.reason);

    // 2) Inner corruption: the transport frame is intact but the nested
    //    monitor checkpoint is damaged — the snapshot's own checksum
    //    catches it, and this time the NACK names the sequence.
    let mut bad_snapshot = wire.clone();
    let m = bad_snapshot.len();
    bad_snapshot[m - 3] ^= 0x01;
    let push = SnapshotPush {
        site_id: 9,
        seq: 0,
        snapshot: bad_snapshot,
    };
    write_frame(&mut stream, &push.encode_framed()).expect("send inner-corrupt");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("decode nack");
    assert_eq!(ack.status, AckStatus::Rejected);
    assert_eq!(ack.seq, 0);

    // 3) Incompatible snapshot: well-formed bytes from a *different*
    //    builder configuration cannot merge — typed rejection, not a
    //    panic.
    let mut foreign = MonitorBuilder::with_seed(P, 4242).f0(0.05).build();
    foreign.update_batch(&[1, 2, 3]);
    let push = SnapshotPush {
        site_id: 9,
        seq: 0,
        snapshot: foreign.checkpoint().expect("checkpoint"),
    };
    write_frame(&mut stream, &push.encode_framed()).expect("send incompatible");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("decode nack");
    assert_eq!(ack.status, AckStatus::Rejected);
    assert!(
        ack.reason.contains("merge"),
        "reason should explain the incompatibility: {}",
        ack.reason
    );

    // 4) The connection is still alive: the good push now lands.
    write_frame(&mut stream, &good).expect("send good");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("ack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("decode ack");
    assert_eq!(ack.status, AckStatus::Accepted);

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.rejected(RejectReason::ChecksumMismatch), 2);
    assert_eq!(stats.rejected(RejectReason::MergeIncompatible), 1);
    assert_eq!(stats.rejected_total(), 3);
    assert_eq!(stats.snapshots_accepted, 1);
    assert_eq!(merged.samples_seen(), site.samples_seen());
}

/// A site whose builder seed differs from the collector's prototype
/// pushes a well-formed snapshot whose sketches hash differently. The
/// collector answers a typed `MergeIncompatible` rejection and the same
/// connection then lands a good push.
#[test]
fn seed_mismatched_site_is_rejected_and_the_connection_keeps_serving() {
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut client =
        SiteClient::connect(server.local_addr(), test_client_config(21)).expect("connect");

    let mut foreign = MonitorBuilder::with_seed(P, 4243)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .build();
    foreign.update_batch(&[1, 2, 3]);
    match client.push_monitor(&foreign) {
        Err(TransportError::Rejected { reason }) => {
            assert!(reason.contains("hash functions"), "reason: {reason}")
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }

    let (site, wire) = site_monitor(&ZipfStream::new(300, 1.0).generate(20_000, 8), 19);
    assert_eq!(
        client.push_wire(wire).expect("good push"),
        PushOutcome::Accepted
    );
    assert_eq!(
        client.stats().reconnects,
        0,
        "the rejection kept the session"
    );
    client.close();

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.rejected(RejectReason::MergeIncompatible), 1);
    assert_eq!(stats.rejected_total(), 1);
    assert_eq!(stats.snapshots_accepted, 1);
    assert_eq!(stats.connections_active, 0);
    assert_eq!(merged.samples_seen(), site.samples_seen());
}

/// Handshake refusals: a frame stamped with a foreign wire version is
/// refused with a typed counter bump, and so is a well-formed hello
/// speaking a foreign *transport* protocol version.
#[test]
fn version_mismatch_handshakes_are_refused() {
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");

    // Foreign wire version: flip the version field of an otherwise
    // valid hello frame (byte 4 of the envelope; the payload checksum
    // does not cover the header, so only the version check can fire).
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut frame = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 2,
        site_name: "stale-wire".to_string(),
        features: 0,
    }
    .encode_framed();
    frame[4] ^= 0x07;
    write_frame(&mut stream, &frame).expect("send stale hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("refusal");
    let ack = HelloAck::decode_framed(&bytes).expect("decode refusal");
    assert!(!ack.accepted);
    assert!(
        ack.reason.contains("unsupported wire version"),
        "reason: {}",
        ack.reason
    );
    // The collector closes after refusing.
    assert!(matches!(
        read_frame(&mut stream, 1 << 20),
        Err(TransportError::Closed) | Err(TransportError::Io(_))
    ));

    // Foreign transport protocol version inside a valid frame.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = Hello {
        proto_version: 99,
        site_id: 3,
        site_name: "time-traveller".to_string(),
        features: 0,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("send future hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("refusal");
    let ack = HelloAck::decode_framed(&bytes).expect("decode refusal");
    assert!(!ack.accepted);
    assert!(ack.reason.contains("transport protocol version 99"));

    let (_, stats) = server.shutdown();
    assert_eq!(stats.rejected(RejectReason::UnsupportedVersion), 1);
    assert_eq!(stats.rejected(RejectReason::HandshakeRefused), 1);
    assert_eq!(stats.snapshots_accepted, 0);
    assert!(stats.sites.is_empty(), "refused sites are never registered");
}

/// A *restarted* site (fresh client, sequence counter back at 0, same
/// site id) must not have its new snapshots swallowed by the
/// collector's dedup: the hello ack carries the collector's next
/// expected sequence and the client fast-forwards to it.
#[test]
fn restarted_site_fast_forwards_past_the_dedup_window() {
    let stream = ZipfStream::new(400, 1.1).generate(30_000, 29);
    let (before, after) = stream.split_at(stream.len() / 2);
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let addr = server.local_addr();

    // First life of the site: two pushes (seq 0 and 1), then the
    // process dies without ceremony.
    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, 41);
    let mut client = SiteClient::connect(addr, test_client_config(6)).expect("connect");
    sampler.sample_batches(before, 1024, |c| monitor.update_batch(c));
    client.push_monitor(&monitor).expect("push 0");
    client.push_monitor(&monitor).expect("push 1");
    drop(client);

    // Second life: a brand-new client for the same site id. The
    // handshake must fast-forward its sequence past the server's
    // high-water mark...
    let mut client = SiteClient::connect(addr, test_client_config(6)).expect("reconnect");
    assert_eq!(
        client.next_seq(),
        2,
        "hello ack must resume the sequence, not restart at 0"
    );
    // ...so the post-restart snapshot is Accepted, not swallowed as a
    // duplicate.
    sampler.sample_batches(after, 1024, |c| monitor.update_batch(c));
    assert_eq!(
        client.push_monitor(&monitor).expect("post-restart push"),
        PushOutcome::Accepted
    );
    client.close();

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, 3);
    assert_eq!(stats.snapshots_duplicate, 0);
    assert_eq!(
        merged.samples_seen(),
        monitor.samples_seen(),
        "the collector must hold the post-restart state"
    );
}

/// Shutdown must complete even while a peer is stalled mid-frame:
/// handler reads abort at the next poll tick instead of waiting for
/// the rest of a frame that will never arrive.
#[test]
fn shutdown_completes_with_a_peer_stalled_mid_frame() {
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let addr = server.local_addr();

    // Complete a handshake, then send only part of a push frame and
    // freeze (socket stays open, no more bytes, no close).
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 4,
        site_name: "stalled".to_string(),
        features: 0,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("hello ack");
    assert!(HelloAck::decode_framed(&bytes).expect("decode").accepted);
    let push = SnapshotPush {
        site_id: 4,
        seq: 0,
        snapshot: vec![0u8; 4096],
    }
    .encode_framed();
    write_frame(&mut stream, &push[..push.len() / 2]).expect("partial frame");

    // Shutdown on a helper thread with a watchdog: the old behavior
    // (wait for the in-flight frame to finish, with no deadline) hangs
    // here forever.
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let (_, stats) = server.shutdown();
        tx.send(stats).expect("send stats");
    });
    let stats = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("shutdown must complete despite the stalled peer");
    assert_eq!(stats.snapshots_accepted, 0);
    drop(stream);
}

/// Steady-state pushes through the `SiteClient` travel as deltas once
/// the first full snapshot landed, cutting wire bytes while the merged
/// result stays bitwise-identical to an in-memory merge.
#[test]
fn steady_state_pushes_travel_as_deltas_and_merge_identically() {
    let stream = ZipfStream::new(2_000, 1.2).generate(60_000, 31);
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut client =
        SiteClient::connect(server.local_addr(), test_client_config(1)).expect("connect");

    // Warm-up to a saturated state (the steady-state regime: the key
    // sets are stable, increments only nudge counters), push the full
    // base, then push after each small increment.
    let (warmup, rest) = stream.split_at(stream.len() * 3 / 4);
    let increments: Vec<&[u64]> = rest.chunks(rest.len() / 4).collect();
    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, 37);
    sampler.sample_batches(warmup, 1024, |c| monitor.update_batch(c));
    assert_eq!(
        client
            .push_wire(monitor.checkpoint().expect("base"))
            .expect("base push"),
        PushOutcome::Accepted
    );
    let base_bytes_out = client.stats().bytes_out;
    // Both ends record `sss_codec_delta_bytes_total`: the site when it
    // diffs, the collector when it applies.
    let delta_counter = || global().value(MetricId::CodecDeltaBytesTotal);
    let counted_before = delta_counter();

    let mut full_bytes = 0usize;
    for chunk in &increments {
        sampler.sample_batches(chunk, 1024, |c| monitor.update_batch(c));
        let wire = monitor.checkpoint().expect("checkpoint");
        full_bytes += wire.len();
        assert_eq!(client.push_wire(wire).expect("push"), PushOutcome::Accepted);
    }
    let stats = client.stats().clone();
    client.close();

    // The base is necessarily full; every steady-state push after it
    // rides as a delta at a fraction of the full snapshot size.
    assert_eq!(stats.snapshots_pushed, increments.len() as u64 + 1);
    assert_eq!(stats.snapshots_delta, increments.len() as u64);
    assert_eq!(stats.delta_fallbacks, 0);
    let delta_bytes = (stats.bytes_out - base_bytes_out) as usize;
    assert!(
        delta_bytes * 2 < full_bytes,
        "steady-state delta pushes wrote {delta_bytes} B where full pushes would write {full_bytes} B"
    );
    let counted = delta_counter() - counted_before;
    assert!(
        counted >= delta_bytes as u64,
        "delta byte counter grew {counted} B across {delta_bytes} B of delta pushes"
    );

    let (merged, sstats) = server.shutdown();
    assert_eq!(sstats.rejected_total(), 0);
    assert_eq!(merged.samples_seen(), monitor.samples_seen());
    for ((la, ea), (lb, eb)) in merged.report().iter().zip(&monitor.report()) {
        assert_eq!(la, lb);
        assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "{la} diverged");
    }
}

/// Hand-rolled peer exercising the delta protocol edge cases on one
/// socket: interleaved full/delta pushes, a delta naming a base the
/// collector does not hold (`RejectedUnknownBase`, counted under
/// `unknown_base`), a corrupt delta body, and a replayed delta sequence
/// answered `Duplicate` and merged once.
#[test]
fn delta_pushes_over_a_raw_socket_with_wrong_base_and_replay() {
    use subsampled_streams::core::snapshot_delta;
    use subsampled_streams::transport::SnapshotDeltaPush;

    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let hello = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 12,
        site_name: "delta-site".to_string(),
        features: subsampled_streams::transport::FEATURE_DELTA_PUSH,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("hello ack");
    let ack = HelloAck::decode_framed(&bytes).expect("decode");
    assert!(ack.accepted);
    assert_eq!(
        ack.features & subsampled_streams::transport::FEATURE_DELTA_PUSH,
        subsampled_streams::transport::FEATURE_DELTA_PUSH,
        "collector must grant delta pushes"
    );

    // Base: a full push (seq 0).
    let trace = ZipfStream::new(400, 1.1).generate(30_000, 43);
    let (first, second) = trace.split_at(trace.len() / 2);
    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, 19);
    sampler.sample_batches(first, 1024, |c| monitor.update_batch(c));
    let base_wire = monitor.checkpoint().expect("base");
    let push = SnapshotPush {
        site_id: 12,
        seq: 0,
        snapshot: base_wire.clone(),
    };
    write_frame(&mut stream, &push.encode_framed()).expect("full push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("ack");
    assert_eq!(
        SnapshotAck::decode_framed(&bytes).expect("ack").status,
        AckStatus::Accepted
    );

    // Next checkpoint as a delta.
    sampler.sample_batches(second, 1024, |c| monitor.update_batch(c));
    let next_wire = monitor.checkpoint().expect("next");
    let delta = snapshot_delta(&base_wire, &next_wire);
    assert!(delta.len() < next_wire.len());

    // 1) Wrong base sequence → RejectedUnknownBase, nothing merged.
    let bad = SnapshotDeltaPush {
        site_id: 12,
        seq: 1,
        base_seq: 7,
        delta: delta.clone(),
    };
    write_frame(&mut stream, &bad.encode_framed()).expect("bad-base push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("nack");
    assert_eq!(ack.status, AckStatus::RejectedUnknownBase);
    assert!(ack.reason.contains("base"), "reason: {}", ack.reason);

    // 2) Right base sequence but corrupt delta body → Rejected (typed),
    //    connection keeps serving.
    let mut torn = delta.clone();
    let n = torn.len();
    torn[n / 2] ^= 0x20;
    let bad = SnapshotDeltaPush {
        site_id: 12,
        seq: 1,
        base_seq: 0,
        delta: torn,
    };
    write_frame(&mut stream, &bad.encode_framed()).expect("corrupt delta push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("nack");
    assert_eq!(
        SnapshotAck::decode_framed(&bytes).expect("nack").status,
        AckStatus::Rejected
    );

    // 3) The good delta lands…
    let good = SnapshotDeltaPush {
        site_id: 12,
        seq: 1,
        base_seq: 0,
        delta: delta.clone(),
    };
    write_frame(&mut stream, &good.encode_framed()).expect("delta push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("ack");
    assert_eq!(
        SnapshotAck::decode_framed(&bytes).expect("ack").status,
        AckStatus::Accepted
    );

    // 4) …and its replay (retry-after-lost-ack) is deduplicated.
    write_frame(&mut stream, &good.encode_framed()).expect("replayed delta");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("ack");
    assert_eq!(
        SnapshotAck::decode_framed(&bytes).expect("ack").status,
        AckStatus::Duplicate
    );

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, 2);
    assert_eq!(stats.snapshots_duplicate, 1);
    assert_eq!(stats.rejected(RejectReason::UnknownBase), 1);
    assert_eq!(stats.rejected(RejectReason::ChecksumMismatch), 1);
    // The reconstructed snapshot merged bitwise like the in-memory one.
    assert_eq!(merged.samples_seen(), monitor.samples_seen());
    for ((la, ea), (lb, eb)) in merged.report().iter().zip(&monitor.report()) {
        assert_eq!(la, lb);
        assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "{la} diverged");
    }
}

/// A site whose retained base went stale (another connection advanced
/// the collector's sequence) transparently falls back to a full push
/// with the same sequence number — nothing lost, nothing double-counted.
#[test]
fn stale_base_falls_back_to_a_full_push_transparently() {
    let trace = ZipfStream::new(600, 1.1).generate(40_000, 53);
    let parts: Vec<&[u64]> = trace.chunks(trace.len() / 4).collect();
    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let addr = server.local_addr();

    // First client instance for site 8: one full push (seq 0).
    let mut monitor = prototype();
    let mut sampler = BernoulliSampler::new(P, 61);
    let mut client_a = SiteClient::connect(addr, test_client_config(8)).expect("connect a");
    sampler.sample_batches(parts[0], 1024, |c| monitor.update_batch(c));
    client_a.push_monitor(&monitor).expect("a push 0");

    // A second instance for the same site advances the collector's
    // sequence (and therefore its retained delta base) twice.
    let mut client_b = SiteClient::connect(addr, test_client_config(8)).expect("connect b");
    sampler.sample_batches(parts[1], 1024, |c| monitor.update_batch(c));
    client_b.push_monitor(&monitor).expect("b push 1");
    sampler.sample_batches(parts[2], 1024, |c| monitor.update_batch(c));
    client_b.push_monitor(&monitor).expect("b push 2");
    client_b.close();

    // Client A reconnects (fast-forwarding its sequence) and pushes: its
    // retained base (seq 0) is long gone server-side, so the delta is
    // answered RejectedUnknownBase and the client transparently re-sends
    // the full snapshot under the same sequence.
    client_a.drop_connection();
    sampler.sample_batches(parts[3], 1024, |c| monitor.update_batch(c));
    assert_eq!(
        client_a.push_monitor(&monitor).expect("a push 3"),
        PushOutcome::Accepted
    );
    let stats_a = client_a.stats().clone();
    client_a.close();
    assert_eq!(stats_a.delta_fallbacks, 1, "the fallback must be visible");
    assert_eq!(stats_a.snapshots_pushed, 2);

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, 4);
    assert_eq!(stats.rejected(RejectReason::UnknownBase), 1);
    assert_eq!(
        merged.samples_seen(),
        monitor.samples_seen(),
        "the collector must hold the final cumulative state exactly once"
    );
}

/// Acceptance drill: a collector fed a mix of wire-v1 full pushes (the
/// committed fixture bytes), v2 full pushes and v2 delta pushes yields
/// a merged view bitwise-identical to the in-memory merge of the same
/// snapshots.
#[test]
fn collector_merges_v1_full_v2_full_and_v2_delta_pushes_bitwise() {
    // The committed wire-v1 monitor fixture's builder configuration
    // (see examples/gen_wire_fixtures.rs — frozen with the corpus).
    let p = 0.25;
    let proto = || {
        MonitorBuilder::with_seed(p, 7)
            .f0(0.05)
            .fk(2)
            .entropy(256)
            .f1_heavy_hitters(0.05, 0.2, 0.05)
            .f2_heavy_hitters(0.5, 0.5, 0.3)
            .build()
    };
    let v1_wire = std::fs::read(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/wire_v1/monitor_full.bin"
    ))
    .expect("committed v1 fixture");

    let server = CollectorServer::bind("127.0.0.1:0", proto(), test_server_config()).expect("bind");
    let addr = server.local_addr();

    // Site 1: the version-1 frame, pushed verbatim.
    let mut c1 = SiteClient::connect(addr, test_client_config(1)).expect("c1");
    assert_eq!(
        c1.push_wire(v1_wire.clone()).expect("v1 push"),
        PushOutcome::Accepted
    );
    c1.close();

    // Site 2: a v2 full push.
    let trace = ZipfStream::new(1 << 12, 1.2).generate(30_000, 97);
    let (left, right) = trace.split_at(trace.len() / 2);
    let mut m2 = proto();
    let mut s2 = BernoulliSampler::new(p, 201);
    s2.sample_batches(left, 1024, |c| m2.update_batch(c));
    let mut c2 = SiteClient::connect(addr, test_client_config(2)).expect("c2");
    c2.push_monitor(&m2).expect("v2 full push");
    c2.close();

    // Site 3: a v2 full push followed by a delta push.
    let mut m3 = proto();
    let mut s3 = BernoulliSampler::new(p, 301);
    s3.sample_batches(left, 1024, |c| m3.update_batch(c));
    let mut c3 = SiteClient::connect(addr, test_client_config(3)).expect("c3");
    c3.push_monitor(&m3).expect("v2 base push");
    s3.sample_batches(right, 1024, |c| m3.update_batch(c));
    c3.push_monitor(&m3).expect("v2 delta push");
    let stats3 = c3.stats().clone();
    c3.close();
    assert_eq!(
        stats3.snapshots_delta, 1,
        "second push must ride as a delta"
    );

    let (merged, stats) = server.shutdown();
    assert_eq!(stats.rejected_total(), 0);
    assert_eq!(stats.snapshots_accepted, 4);

    // In-memory reference, same ascending-site fold order.
    let mut reference = proto();
    reference
        .try_merge(&Monitor::restore(&v1_wire).expect("v1 restores"))
        .expect("v1 merges");
    reference.try_merge(&m2).expect("site 2 merges");
    reference.try_merge(&m3).expect("site 3 merges");
    assert_eq!(merged.samples_seen(), reference.samples_seen());
    for ((la, ea), (lb, eb)) in merged.report().iter().zip(&reference.report()) {
        assert_eq!(la, lb);
        assert_eq!(
            ea.value.to_bits(),
            eb.value.to_bits(),
            "{la}: mixed-version TCP merge {} vs in-memory {}",
            ea.value,
            eb.value
        );
    }
}

/// The client's bounded retry gives up with a typed error when nothing
/// is listening, instead of hanging forever.
#[test]
fn retries_exhaust_with_typed_error_when_collector_is_down() {
    // Bind-then-drop to get a port with no listener.
    let port = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").port()
    };
    let mut cfg = test_client_config(1);
    cfg.retry.max_attempts = 2;
    cfg.connect_timeout = Duration::from_millis(200);
    let err = match SiteClient::connect(("127.0.0.1", port), cfg) {
        Ok(_) => panic!("connect must fail: nothing is listening"),
        Err(e) => e,
    };
    match err {
        TransportError::RetriesExhausted { attempts, .. } => assert_eq!(attempts, 2),
        other => panic!("expected RetriesExhausted, got {other}"),
    }
}

/// Windowed acceptance: sites run sliding windows over disjoint slices
/// of the same timeline, ship their window *folds* (plain monitor
/// frames — no protocol change) over real TCP, and the collector's
/// merge is bitwise-equal to the in-memory merge of the same folds.
#[test]
fn windowed_folds_ship_over_tcp_and_merge_bitwise() {
    use subsampled_streams::window::{WindowConfig, WindowedMonitor};

    let sites = 2usize;
    let span = 5_000u64;
    let base = WindowedMonitor::new(prototype(), WindowConfig::new(4, span));
    let trace: Vec<(u64, u64)> = ZipfStream::new(2_000, 1.2)
        .generate(60_000, 23)
        .into_iter()
        .enumerate()
        .map(|(i, x)| (i as u64, x))
        .collect();

    // Each site samples and windows its (round-robin) slice, then all
    // clocks align to the shared timeline's last epoch.
    let mut windows: Vec<WindowedMonitor> = (0..sites).map(|s| base.fork_shard(s as u64)).collect();
    let mut samplers: Vec<BernoulliSampler> = (0..sites)
        .map(|s| BernoulliSampler::new(P, 300 + s as u64))
        .collect();
    for &(ts, x) in &trace {
        let s = (ts % sites as u64) as usize;
        if samplers[s].keep() {
            windows[s].ingest_at(ts, x);
        }
    }
    let top = windows.iter().map(|w| w.cur_epoch()).max().expect("sites");
    for w in &mut windows {
        w.advance_to(top);
    }

    // Fold each window to a monitor snapshot; one codec round trip must
    // be byte-stable before anything touches a socket.
    let folds: Vec<Monitor> = windows.iter().map(|w| w.fold()).collect();
    let wires: Vec<Vec<u8>> = folds
        .iter()
        .map(|f| f.checkpoint().expect("fold checkpoints"))
        .collect();
    for (f, wire) in folds.iter().zip(&wires) {
        let back = Monitor::restore(wire).expect("fold restores");
        assert_eq!(back.checkpoint().expect("re-checkpoint"), *wire);
        assert_eq!(back.samples_seen(), f.samples_seen());
    }

    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let addr = server.local_addr();
    for (s, wire) in wires.iter().enumerate() {
        let mut client = SiteClient::connect(addr, test_client_config(s as u64)).expect("connect");
        assert_eq!(
            client.push_wire(wire.clone()).expect("push"),
            PushOutcome::Accepted
        );
        client.close();
    }
    let (merged, stats) = server.shutdown();
    assert_eq!(stats.snapshots_accepted, sites as u64);
    assert_eq!(stats.rejected_total(), 0);

    // In-memory reference: same folds, same ascending-site order.
    let mut reference = prototype();
    for fold in &folds {
        reference.try_merge(fold).expect("in-memory merge");
    }
    assert_eq!(merged.samples_seen(), reference.samples_seen());
    for ((la, ea), (lb, eb)) in merged.report().iter().zip(reference.report().iter()) {
        assert_eq!(la, lb);
        assert_eq!(
            ea.value.to_bits(),
            eb.value.to_bits(),
            "{la}: TCP fold must be bitwise-equal to the in-memory fold"
        );
    }

    // And the *whole window* state itself round-trips the codec: what a
    // site would persist locally to survive a restart mid-window.
    let snap = windows[0].checkpoint().expect("window checkpoint");
    let restored = WindowedMonitor::restore(&snap).expect("window restores");
    assert_eq!(restored.checkpoint().expect("re-checkpoint"), snap);
}

/// One HTTP/1.0 request against the collector's stats endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut s = TcpStream::connect(addr).expect("connect stats endpoint");
    write!(s, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    buf
}

/// Telemetry flows end to end: a site pushes its snapshot *and* its
/// metrics, and the stats endpoint serves both renders — the
/// collector's own registry (every declared metric, zeros included)
/// plus the per-site telemetry stamped with a `site` label.
#[test]
fn metrics_push_and_stats_endpoint_serve_both_renders() {
    use subsampled_streams::obs::global;

    let cfg = ServerConfig {
        stats_addr: Some("127.0.0.1:0".to_string()),
        ..test_server_config()
    };
    let server = CollectorServer::bind("127.0.0.1:0", prototype(), cfg).expect("bind");
    let stats_addr = server.stats_addr().expect("stats endpoint configured");

    let stream = ZipfStream::new(1_000, 1.2).generate(20_000, 31);
    let (_m, wire) = site_monitor(&stream, 7);
    let mut client =
        SiteClient::connect(server.local_addr(), test_client_config(9)).expect("connect");
    assert_eq!(client.push_wire(wire).expect("push"), PushOutcome::Accepted);

    // The site ships its own process-wide telemetry (which the ingest
    // above instrumented) over the negotiated metrics-push feature.
    client
        .push_metrics(&global().snapshot())
        .expect("metrics push");
    client
        .push_metrics(&global().snapshot())
        .expect("second push overwrites");
    client.close();

    let site_metrics = server.site_metrics();
    assert_eq!(site_metrics.len(), 1);
    assert_eq!(site_metrics[0].0, 9);

    // Prometheus render: ≥ 25 distinct collector-side metric names,
    // plus the site's own series labeled site="9".
    let prom = http_get(stats_addr, "/metrics");
    assert!(prom.starts_with("HTTP/1.0 200 OK"), "{prom}");
    let body = prom.split("\r\n\r\n").nth(1).expect("body");
    let mut names: Vec<&str> = body
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
        .map(|l| l.split(['{', ' ']).next().unwrap())
        .collect();
    names.sort_unstable();
    names.dedup();
    assert!(
        names.len() >= 25,
        "expected >= 25 distinct metrics, got {}: {names:?}",
        names.len()
    );
    assert!(
        body.contains("sss_transport_snapshots_accepted_total 1"),
        "collector accept counter"
    );
    assert!(body.contains("site=\"9\""), "site-labeled series present");

    // JSON render: collector object plus the pushed site snapshots.
    let json = http_get(stats_addr, "/metrics.json");
    assert!(json.starts_with("HTTP/1.0 200 OK"), "{json}");
    let jbody = json.split("\r\n\r\n").nth(1).expect("body");
    assert!(jbody.starts_with("{\"collector\":"), "{jbody}");
    assert!(jbody.contains("\"sites\":[{"), "site snapshot present");
    assert!(jbody.contains("\"site\":9"), "site id stamped");
    let jnames = jbody.matches("sss_").count();
    assert!(jnames >= 25, "JSON exposes >= 25 metrics, got {jnames}");

    // Unknown paths 404 without wedging the endpoint.
    let missing = http_get(stats_addr, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");
    let again = http_get(stats_addr, "/metrics");
    assert!(again.starts_with("HTTP/1.0 200 OK"));

    server.shutdown();
}

/// `TransportStats` is a thin view over the collector registry: the
/// struct fields, the per-site rows and the raw registry cells agree,
/// and `since_last_seen` is session-relative (small right after a
/// push, never an Instant artifact).
#[test]
fn transport_stats_is_a_view_over_the_registry() {
    use subsampled_streams::obs::MetricId;

    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let stream = ZipfStream::new(1_000, 1.2).generate(15_000, 37);
    let (_m, wire) = site_monitor(&stream, 11);
    let mut client =
        SiteClient::connect(server.local_addr(), test_client_config(3)).expect("connect");
    let bytes = wire.len();
    assert_eq!(client.push_wire(wire).expect("push"), PushOutcome::Accepted);

    let stats = server.stats();
    let reg = server.registry();
    assert_eq!(
        stats.snapshots_accepted,
        reg.value(MetricId::TransportSnapshotsAcceptedTotal)
    );
    assert_eq!(
        stats.connections_accepted,
        reg.value(MetricId::TransportConnectionsTotal)
    );
    assert_eq!(stats.bytes_in, reg.value(MetricId::TransportBytesInTotal));
    assert_eq!(stats.sites.len(), 1);
    let row = &stats.sites[0];
    assert_eq!(row.site_id, 3);
    assert_eq!(row.snapshots_accepted, 1);
    assert_eq!(row.last_seq, Some(0));
    assert!(row.bytes_in as usize > bytes, "frame bytes include header");
    assert_eq!(
        row.snapshots_accepted,
        reg.labeled_value(MetricId::TransportSiteSnapshotsTotal, 3)
    );
    assert_eq!(
        row.bytes_in,
        reg.labeled_value(MetricId::TransportSiteBytesInTotal, 3)
    );
    // seq+1 storage: gauge cell reads 1 for accepted seq 0.
    assert_eq!(reg.labeled_value(MetricId::TransportSiteLastSeq, 3), 1);
    assert!(
        row.since_last_seen < Duration::from_secs(30),
        "session-relative offset, not a restored-Instant artifact: {:?}",
        row.since_last_seen
    );

    // The accept left a trace event behind.
    let events = reg.events();
    assert!(
        events.iter().any(
            |e| e.kind == subsampled_streams::obs::EventKind::SnapshotAccepted
                && e.a == 3
                && e.b == 0
        ),
        "{events:?}"
    );
    client.close();
    server.shutdown();
}

/// A metrics push whose site id disagrees with the hello is rejected
/// and counted under the same reason counter as a mismatched snapshot.
#[test]
fn metrics_push_site_mismatch_is_rejected() {
    use subsampled_streams::obs::global;
    use subsampled_streams::transport::MetricsPush;

    let server =
        CollectorServer::bind("127.0.0.1:0", prototype(), test_server_config()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let hello = Hello {
        proto_version: TRANSPORT_PROTO_VERSION,
        site_id: 1,
        site_name: "drill".to_string(),
        features: u64::MAX,
    };
    write_frame(&mut stream, &hello.encode_framed()).expect("hello");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("hello ack");
    let ack = HelloAck::decode_framed(&bytes).expect("ack decodes");
    assert!(ack.accepted);

    let push = MetricsPush {
        site_id: 2, // not the session's site
        seq: 0,
        snapshot: global().snapshot(),
    };
    write_frame(&mut stream, &push.encode_framed()).expect("push");
    let (_, bytes) = read_frame(&mut stream, 1 << 20).expect("push ack");
    let ack = SnapshotAck::decode_framed(&bytes).expect("ack decodes");
    assert_eq!(ack.status, AckStatus::Rejected);

    let stats = server.stats();
    assert_eq!(stats.rejected(RejectReason::SiteMismatch), 1);
    assert!(server.site_metrics().is_empty());
    server.shutdown();
}
