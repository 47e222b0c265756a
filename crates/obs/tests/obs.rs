//! The observability battery the ISSUE demands: concurrency exactness,
//! histogram edge values, wire round-trips with corruption drills, and
//! event-ring overflow accounting.

use std::sync::Arc;
use std::thread;

use sss_codec::{CodecError, WireCodec};
use sss_obs::{
    bucket_of, EventKind, MetricId, MetricsSnapshot, Registry, HIST_BUCKETS, TAG_METRICS_SNAPSHOT,
};

#[test]
fn concurrent_hammer_totals_are_exact() {
    const THREADS: usize = 8;
    const INCS: u64 = 50_000;
    let reg = Arc::new(Registry::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = Arc::clone(&reg);
            thread::spawn(move || {
                for i in 0..INCS {
                    reg.inc(MetricId::IngestItemsTotal);
                    reg.add(MetricId::TransportBytesInTotal, 3);
                    reg.gauge_add(MetricId::IngestQueueDepth, if i % 2 == 0 { 1 } else { -1 });
                    reg.observe(MetricId::IngestBatchSize, i);
                    reg.labeled_add(MetricId::TransportSiteBytesInTotal, t as u64, 1);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("hammer thread");
    }

    let n = THREADS as u64 * INCS;
    assert_eq!(reg.value(MetricId::IngestItemsTotal), n);
    assert_eq!(reg.value(MetricId::TransportBytesInTotal), 3 * n);
    // INCS is even: each thread's +1/−1 pairs cancel exactly.
    assert_eq!(reg.gauge_value(MetricId::IngestQueueDepth), 0);
    let snap = reg.snapshot();
    let hist = snap
        .hist("sss_ingest_batch_size")
        .expect("histogram present");
    assert_eq!(hist.count(), n);
    for t in 0..THREADS as u64 {
        assert_eq!(
            reg.labeled_value(MetricId::TransportSiteBytesInTotal, t),
            INCS
        );
    }
}

#[test]
fn histogram_boundaries_land_in_the_right_buckets() {
    // bucket_of: 0 → bucket 0; otherwise 64 − leading_zeros, so each
    // power of two opens a new bucket.
    assert_eq!(bucket_of(0), 0);
    assert_eq!(bucket_of(1), 1);
    assert_eq!(bucket_of(2), 2);
    assert_eq!(bucket_of(3), 2);
    assert_eq!(bucket_of(4), 3);
    for k in 0..64 {
        assert_eq!(bucket_of(1u64 << k), (k + 1) as usize, "2^{k}");
        if k > 0 {
            assert_eq!(bucket_of((1u64 << k) - 1), k as usize, "2^{k}-1");
        }
    }
    assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);

    let reg = Registry::new();
    reg.observe(MetricId::IngestBatchNanos, 0);
    reg.observe(MetricId::IngestBatchNanos, 1);
    reg.observe(MetricId::IngestBatchNanos, u64::MAX);
    let snap = reg.snapshot();
    let h = snap.hist("sss_ingest_batch_nanos").expect("present");
    assert_eq!(h.count(), 3);
    // The sum cell is a relaxed wrapping add (the lock-free hot-path
    // price): 0 + 1 + u64::MAX wraps to exactly 0.
    assert_eq!(h.sum, 0);
    let buckets: Vec<u8> = h.buckets.iter().map(|(i, _)| *i).collect();
    assert_eq!(buckets, vec![0, 1, 64]);
}

/// A snapshot with every value class populated, for codec drills.
fn busy_snapshot() -> MetricsSnapshot {
    let reg = Registry::new();
    reg.add(MetricId::IngestItemsTotal, 12345);
    reg.gauge_add(MetricId::IngestQueueDepth, -7);
    reg.observe(MetricId::CodecEncodeNanos, 1024);
    reg.observe(MetricId::CodecEncodeNanos, u64::MAX);
    reg.labeled_add(MetricId::TransportSiteBytesInTotal, 42, 9000);
    reg.event(EventKind::AlertFired, 1, 2, "f0 > \"threshold\"");
    reg.snapshot()
}

#[test]
fn metrics_snapshot_roundtrips() {
    let snap = busy_snapshot();
    let bytes = snap.encode_framed();
    let back = MetricsSnapshot::decode_framed(&bytes).expect("roundtrip");
    assert_eq!(back.counter("sss_ingest_items_total"), Some(12345));
    assert_eq!(back.gauge("sss_ingest_queue_depth"), Some(-7));
    let h = back.hist("sss_codec_encode_nanos").expect("hist");
    assert_eq!(h.count(), 2);
    assert!(back
        .labeled
        .iter()
        .any(|(n, l, v)| n == "sss_transport_site_bytes_in_total" && *l == 42 && *v == 9000));
    assert_eq!(back.events.len(), 1);
    assert_eq!(back.events[0].kind, "alert_fired");
    assert_eq!(back.events[0].note, "f0 > \"threshold\"");
    // Re-encode is byte-identical: the wire form is canonical.
    assert_eq!(back.encode_framed(), bytes);
}

#[test]
fn corruption_drills_reject_without_panicking() {
    let bytes = busy_snapshot().encode_framed();

    // Truncation at every prefix length must error, never panic.
    for cut in 0..bytes.len() {
        assert!(
            MetricsSnapshot::decode_framed(&bytes[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }

    // Single-bit flips: either a checksum mismatch catches it, or (a
    // flip inside the header) another typed error does. A flip must
    // never produce a silent success with different content except in
    // the checksum field itself being unflipped-compensated — which a
    // single flip cannot do.
    for byte in 0..bytes.len() {
        let mut b = bytes.clone();
        b[byte] ^= 0x40;
        match MetricsSnapshot::decode_framed(&b) {
            Err(_) => {}
            Ok(_) => panic!("flip at byte {byte} decoded successfully"),
        }
    }

    // Oversize declared lengths are bounded by the payload, not
    // allocated blindly: craft a frame whose counter count is huge.
    let huge = {
        let mut snap = MetricsSnapshot::default();
        snap.counters.push(("x".repeat(64), 1));
        let mut b = snap.encode_framed();
        // Corrupt deep in the payload; whatever field the flip lands
        // in, decode must stay panic-free and OOM-free.
        let mid = b.len() / 2;
        b[mid] ^= 0xFF;
        b
    };
    let _ = MetricsSnapshot::decode_framed(&huge);
}

#[test]
fn tag_lives_in_the_obs_range() {
    assert_eq!(TAG_METRICS_SNAPSHOT >> 8, 0x07);
    assert_eq!(MetricsSnapshot::WIRE_TAG, TAG_METRICS_SNAPSHOT);
    let bytes = busy_snapshot().encode_framed();
    let header: [u8; sss_codec::FRAME_HEADER_BYTES] = bytes[..sss_codec::FRAME_HEADER_BYTES]
        .try_into()
        .expect("header");
    let fh = sss_codec::parse_frame_header(&header).expect("valid frame");
    assert_eq!(fh.tag, TAG_METRICS_SNAPSHOT);
}

#[test]
fn event_ring_overflow_is_itself_a_metric() {
    let reg = Registry::with_events_capacity(4);
    for i in 0..10u64 {
        reg.event(EventKind::BucketRollover, i, 0, "");
    }
    let events = reg.events();
    assert_eq!(events.len(), 4, "ring keeps the newest 4");
    assert_eq!(events[0].a, 6);
    assert_eq!(events[3].a, 9);
    // The 6 evictions are visible as a first-class counter, in the
    // snapshot like any other metric.
    assert_eq!(reg.value(MetricId::ObsEventsDroppedTotal), 6);
    let snap = reg.snapshot();
    assert_eq!(snap.counter("sss_obs_events_dropped_total"), Some(6));
}

#[test]
fn invalid_bucket_order_is_rejected() {
    // Hand-build a snapshot whose histogram bucket indices decrease —
    // the decoder must reject it as Invalid, not mis-sum it.
    let mut snap = busy_snapshot();
    if let Some(h) = snap.hists.first_mut() {
        h.buckets = vec![(64, 1), (1, 1)];
    }
    let bytes = snap.encode_framed();
    match MetricsSnapshot::decode_framed(&bytes) {
        Err(CodecError::Invalid { .. }) => {}
        other => panic!("expected Invalid, got {other:?}"),
    }
}
