//! The central metric registry table: every metric the workspace can
//! record, declared in one place.
//!
//! `sss-lint`'s `metric_registry` rule audits each `metric_table!`
//! invocation in the workspace: names must be snake_case, start with
//! `sss_<subsystem>_` for a known subsystem, be globally unique, and
//! counters must end in `_total` (Prometheus conventions). Adding a
//! metric is one line here — the enum variant, its storage slot, the
//! render surfaces and the wire export all follow from the table.
//!
//! Naming: `sss_<subsystem>_<what>[_<unit>][_total]` where subsystem is
//! one of `ingest`, `sampler`, `codec`, `transport`, `window`,
//! `obs`. Durations are `_nanos`, sizes `_bytes`, event-time
//! offsets `_ms`. Histograms carry no suffix convention — the kind
//! column says what they are.

/// What a metric slot stores and how it renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64`; renders as a Prometheus counter.
    Counter,
    /// Signed instantaneous value (`i64` in a `u64` slot).
    Gauge,
    /// Log2-bucketed `u64` distribution (65 buckets + sum).
    Histogram,
}

impl MetricKind {
    /// Prometheus `# TYPE` keyword.
    pub fn prom_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Declares the workspace metric table: generates [`MetricId`], the
/// declaration-order [`ALL_METRICS`] slice and the per-id `name` /
/// `kind` / `help` lookups. Audited by sss-lint (`metric_registry`).
macro_rules! metric_table {
    ($($variant:ident => $kind:ident $name:literal : $help:literal;)+) => {
        /// One registered metric. The discriminant is the storage slot
        /// index in a [`crate::Registry`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(u16)]
        pub enum MetricId { $($variant),+ }

        /// Every metric in declaration order, index-aligned with
        /// registry slots.
        pub const ALL_METRICS: &[MetricId] = &[$(MetricId::$variant),+];

        impl MetricId {
            /// Number of registered metrics.
            pub const COUNT: usize = ALL_METRICS.len();

            /// The exported snake_case metric name.
            pub fn name(self) -> &'static str {
                match self { $(MetricId::$variant => $name),+ }
            }

            /// The metric kind.
            pub fn kind(self) -> MetricKind {
                match self { $(MetricId::$variant => MetricKind::$kind),+ }
            }

            /// One-line help string for exposition.
            pub fn help(self) -> &'static str {
                match self { $(MetricId::$variant => $help),+ }
            }
        }
    };
}

metric_table! {
    // ── ingest: Monitor / ConcurrentMonitor update paths ─────────
    IngestItemsTotal => Counter "sss_ingest_items_total": "Sampled items ingested by Monitor update paths (scalar items flush every 1024)";
    IngestBatchesTotal => Counter "sss_ingest_batches_total": "Monitor::update_batch calls across all monitors";
    IngestBatchSize => Histogram "sss_ingest_batch_size": "Distribution of update_batch lengths in items";
    IngestBatchNanos => Histogram "sss_ingest_batch_nanos": "Whole-batch update latency in nanoseconds, sampled every 64th batch";
    IngestSlotSampledNanosTotal => Counter "sss_ingest_slot_sampled_nanos_total": "Per-statistic update nanoseconds from sampled batches, labeled by estimator slot";
    IngestSlotSampledItemsTotal => Counter "sss_ingest_slot_sampled_items_total": "Items covered by the sampled per-statistic timings, labeled by estimator slot";
    IngestCasRetriesTotal => Counter "sss_ingest_cas_retries_total": "Compare-exchange retries in shared-atomic sketch updates (contention proxy)";
    IngestThreadItemsTotal => Counter "sss_ingest_thread_items_total": "Sampled items ingested by concurrent workers, labeled by thread index";
    // ── sampler: Bernoulli sub-sampling front end ────────────────
    SamplerRawItemsTotal => Counter "sss_sampler_raw_items_total": "Raw stream items offered to Bernoulli samplers";
    SamplerSurvivorsTotal => Counter "sss_sampler_survivors_total": "Items surviving sub-sampling";
    IngestJobsDispatchedTotal => Counter "sss_ingest_jobs_dispatched_total": "Raw-stream jobs handed to concurrent worker queues";
    IngestJobsCompletedTotal => Counter "sss_ingest_jobs_completed_total": "Jobs fully ingested by concurrent workers";
    IngestQueueDepth => Gauge "sss_ingest_queue_depth": "Jobs in flight across all worker queues (dispatched minus completed)";
    IngestMergesTotal => Counter "sss_ingest_merges_total": "Key-shard part and replica merges folded into snapshots and finishes";
    // ── codec: encode/decode instrumented at call sites ──────────
    CodecEncodeBytesTotal => Counter "sss_codec_encode_bytes_total": "Bytes produced by checkpoint encodes";
    CodecEncodeNanos => Histogram "sss_codec_encode_nanos": "Checkpoint encode latency in nanoseconds";
    CodecDecodeBytesTotal => Counter "sss_codec_decode_bytes_total": "Bytes consumed by checkpoint decodes";
    CodecDecodeNanos => Histogram "sss_codec_decode_nanos": "Checkpoint decode latency in nanoseconds";
    CodecDeltaBytesTotal => Counter "sss_codec_delta_bytes_total": "Bytes in delta checkpoints (encode and apply sides)";
    // ── transport: collector accept path ─────────────────────────
    TransportConnectionsTotal => Counter "sss_transport_connections_total": "Connections accepted by the collector";
    TransportConnectionsActive => Gauge "sss_transport_connections_active": "Currently open collector connections";
    TransportCleanClosesTotal => Counter "sss_transport_clean_closes_total": "Sessions ended by a goodbye message";
    TransportDisconnectsTotal => Counter "sss_transport_disconnects_total": "Sessions ended without a goodbye";
    TransportSnapshotsAcceptedTotal => Counter "sss_transport_snapshots_accepted_total": "Snapshot pushes merged into collector state";
    TransportSnapshotsDuplicateTotal => Counter "sss_transport_snapshots_duplicate_total": "Duplicate snapshot pushes answered idempotently";
    TransportBytesInTotal => Counter "sss_transport_bytes_in_total": "Payload bytes received by the collector";
    TransportMetricsPushesTotal => Counter "sss_transport_metrics_pushes_total": "Telemetry snapshots accepted from sites";
    // ── transport: per-reason rejects (RejectReason, one each) ───
    TransportRejectBadMagicTotal => Counter "sss_transport_reject_bad_magic_total": "Rejected frames: wrong wire magic";
    TransportRejectUnsupportedVersionTotal => Counter "sss_transport_reject_unsupported_version_total": "Rejected frames: incompatible wire version";
    TransportRejectTagMismatchTotal => Counter "sss_transport_reject_tag_mismatch_total": "Rejected frames: tag did not match the expected type";
    TransportRejectUnknownTagTotal => Counter "sss_transport_reject_unknown_tag_total": "Rejected frames: polymorphic slot tag this build cannot decode";
    TransportRejectTruncatedTotal => Counter "sss_transport_reject_truncated_total": "Rejected frames: connection or buffer ended mid-frame";
    TransportRejectTrailingBytesTotal => Counter "sss_transport_reject_trailing_bytes_total": "Rejected frames: bytes left over after a complete object";
    TransportRejectChecksumMismatchTotal => Counter "sss_transport_reject_checksum_mismatch_total": "Rejected frames: payload checksum mismatch";
    TransportRejectInvalidPayloadTotal => Counter "sss_transport_reject_invalid_payload_total": "Rejected frames: decoded value violated a structural invariant";
    TransportRejectOversizeTotal => Counter "sss_transport_reject_oversize_total": "Rejected frames: payload above the configured cap";
    TransportRejectMergeIncompatibleTotal => Counter "sss_transport_reject_merge_incompatible_total": "Rejected snapshots: incompatible with the collector prototype";
    TransportRejectSiteMismatchTotal => Counter "sss_transport_reject_site_mismatch_total": "Rejected pushes: site_id disagreed with the hello";
    TransportRejectUnexpectedMessageTotal => Counter "sss_transport_reject_unexpected_message_total": "Rejected messages: tag out of protocol order";
    TransportRejectHandshakeRefusedTotal => Counter "sss_transport_reject_handshake_refused_total": "Refused hellos: transport protocol version";
    TransportRejectUnknownBaseTotal => Counter "sss_transport_reject_unknown_base_total": "Rejected delta pushes: base snapshot not held";
    // ── transport: per-site rows (labeled by site id) ────────────
    TransportSiteSnapshotsTotal => Counter "sss_transport_site_snapshots_total": "Snapshots accepted per site, labeled by site id";
    TransportSiteBytesInTotal => Counter "sss_transport_site_bytes_in_total": "Payload bytes received per site, labeled by site id";
    TransportSiteLastSeq => Gauge "sss_transport_site_last_seq": "Highest accepted sequence number plus one per site (0 = none yet)";
    TransportSiteLastSeenMs => Gauge "sss_transport_site_last_seen_ms": "Session-relative ms of each site's last accepted push";
    // ── transport: site client path ──────────────────────────────
    TransportBytesOutTotal => Counter "sss_transport_bytes_out_total": "Payload bytes written by site clients";
    TransportPushRttNanos => Histogram "sss_transport_push_rtt_nanos": "Push round-trip latency in nanoseconds (send to ack)";
    TransportPushesFullTotal => Counter "sss_transport_pushes_full_total": "Full snapshot pushes sent by site clients";
    TransportPushesDeltaTotal => Counter "sss_transport_pushes_delta_total": "Delta snapshot pushes sent by site clients";
    TransportDeltaFallbacksTotal => Counter "sss_transport_delta_fallbacks_total": "Delta pushes answered RejectedUnknownBase and retried as full";
    TransportReconnectsTotal => Counter "sss_transport_reconnects_total": "Re-handshakes after a lost collector connection";
    TransportRetriesTotal => Counter "sss_transport_retries_total": "Push attempts retried after transient failures";
    // ── window: tumbling buckets + continuous queries ────────────
    WindowRolloversTotal => Counter "sss_window_rollovers_total": "Epoch rollovers across windowed monitors";
    WindowRetiredBucketsTotal => Counter "sss_window_retired_buckets_total": "Buckets that aged out of their window";
    WindowAlertsTotal => Counter "sss_window_alerts_total": "Alerts fired by continuous queries";
    WindowLateDropsTotal => Counter "sss_window_late_drops_total": "Items older than the live window, dropped on ingest";
    // ── obs: the registry watching itself ────────────────────────
    ObsEventsDroppedTotal => Counter "sss_obs_events_dropped_total": "Trace events evicted from the ring by overflow";
    ObsSnapshotsTotal => Counter "sss_obs_snapshots_total": "Metrics snapshots taken from registries";
}

impl MetricId {
    /// Reverse lookup by exported name (linear scan over the table —
    /// used on render/export paths, never on the record path).
    pub fn by_name(name: &str) -> Option<MetricId> {
        ALL_METRICS.iter().copied().find(|m| m.name() == name)
    }

    /// The label key for metrics recorded with
    /// [`crate::Registry::labeled_add`]: per-site rows label by
    /// `site`, per-estimator rows by `slot`. Derived from the name so
    /// the table stays one column per concern.
    pub fn label_key(self) -> &'static str {
        let n = self.name();
        if n.contains("_site_") {
            "site"
        } else if n.contains("_slot_") {
            "slot"
        } else if n.contains("_thread_") {
            "thread"
        } else {
            "label"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_consistent() {
        assert_eq!(MetricId::COUNT, ALL_METRICS.len());
        for (i, m) in ALL_METRICS.iter().enumerate() {
            assert_eq!(*m as usize, i, "{m:?} discriminant misaligned");
            assert_eq!(MetricId::by_name(m.name()), Some(*m));
        }
    }

    #[test]
    fn names_follow_conventions() {
        for m in ALL_METRICS {
            let n = m.name();
            assert!(n.starts_with("sss_"), "{n} missing sss_ namespace");
            assert!(
                n.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                "{n} not snake_case"
            );
            if m.kind() == MetricKind::Counter {
                assert!(n.ends_with("_total"), "counter {n} missing _total");
            }
        }
    }

    #[test]
    fn names_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in ALL_METRICS {
            assert!(seen.insert(m.name()), "duplicate metric name {}", m.name());
        }
    }
}
