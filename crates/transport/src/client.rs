//! [`SiteClient`]: the sending end of the snapshot transport.
//!
//! A site wraps its local [`Monitor`] (or a mid-run
//! `ConcurrentMonitor::snapshot`) in a client and pushes `checkpoint()` snapshots at
//! whatever cadence it likes. The client owns delivery: sequence
//! numbers, the hello handshake on every (re)connect, bounded retry
//! with exponential backoff, and the resume rule that makes retries
//! safe — a push that died before its ack is re-sent *with the same
//! sequence number*, and the collector's dedup answers `Duplicate` if
//! the first copy actually landed, so nothing is lost and nothing is
//! merged twice.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use sss_codec::WireCodec;
use sss_core::{snapshot_delta, Monitor};
use sss_obs::{global, EventKind, MetricId, MetricsSnapshot};

use crate::proto::{
    encode_push_frame, read_frame, write_frame, AckStatus, Goodbye, Hello, HelloAck, MetricsPush,
    SnapshotAck, SnapshotDeltaPush, FEATURE_DELTA_PUSH, FEATURE_METRICS_PUSH,
    TRANSPORT_PROTO_VERSION,
};
use crate::TransportError;

/// Bounded retry with exponential backoff, shared by connect and push.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts before giving up (≥ 1).
    pub max_attempts: u32,
    /// Sleep after the first failure; doubles per failure.
    pub initial_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            initial_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

/// Client knobs; the defaults match [`ServerConfig`](crate::ServerConfig)'s.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Stable site identifier — sequence numbers are scoped to it, so
    /// it must not change across reconnects or restarts of the site.
    pub site_id: u64,
    /// Human-readable name shown in the collector's per-site stats.
    pub site_name: String,
    /// Retry budget for connects and pushes.
    pub retry: RetryPolicy,
    /// How long to wait for a handshake or snapshot ack before treating
    /// the connection as dead. Default 10 s.
    pub ack_timeout: Duration,
    /// Per-attempt TCP connect timeout. Default 5 s.
    pub connect_timeout: Duration,
    /// Payload cap on frames read back (acks are tiny; the cap only
    /// guards against a confused peer). Default 1 MiB.
    pub max_frame_payload: usize,
    /// Offer delta pushes in the hello and, when the collector grants
    /// them, ship each snapshot as a byte diff against the last one the
    /// collector accepted (falling back to a full push transparently
    /// when the collector's base moved, or when the diff would not be
    /// smaller). Costs retaining one snapshot buffer client-side.
    /// Default true.
    pub delta_pushes: bool,
}

impl ClientConfig {
    /// Defaults for a site.
    pub fn new(site_id: u64, site_name: impl Into<String>) -> Self {
        Self {
            site_id,
            site_name: site_name.into(),
            retry: RetryPolicy::default(),
            ack_timeout: Duration::from_secs(10),
            connect_timeout: Duration::from_secs(5),
            max_frame_payload: 1 << 20,
            delta_pushes: true,
        }
    }
}

/// Delivery counters on the site side.
#[derive(Debug, Clone, Default)]
pub struct ClientStats {
    /// Snapshots accepted by the collector.
    pub snapshots_pushed: u64,
    /// Pushes answered `Duplicate` (the retry raced a lost ack; the
    /// collector already had the snapshot).
    pub snapshots_duplicate: u64,
    /// Snapshots that travelled as delta pushes (subset of
    /// `snapshots_pushed`).
    pub snapshots_delta: u64,
    /// Delta pushes the collector answered `RejectedUnknownBase`,
    /// transparently re-sent as full pushes with the same sequence.
    pub delta_fallbacks: u64,
    /// Frame bytes written (pushes only, including re-sends).
    pub bytes_out: u64,
    /// Successful handshakes after the first (reconnects).
    pub reconnects: u64,
    /// Failed attempts that were retried (connect or push).
    pub retries: u64,
}

/// How the collector answered an accepted push.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// Folded into the collector view.
    Accepted,
    /// Already there from a previous attempt — equally final.
    Duplicate,
}

/// A connection to a [`CollectorServer`](crate::CollectorServer) that
/// survives drops: pushes reconnect and resume transparently within the
/// retry budget.
///
/// ```no_run
/// use sss_core::MonitorBuilder;
/// use sss_transport::{ClientConfig, SiteClient};
///
/// let mut monitor = MonitorBuilder::with_seed(0.05, 7).f0(0.05).fk(2).build();
/// let mut client = SiteClient::connect("127.0.0.1:9009", ClientConfig::new(1, "site-1"))?;
/// monitor.update_batch(&[1, 2, 3]);
/// client.push_monitor(&monitor)?; // checkpoint + framed push + ack
/// client.close();
/// # Ok::<(), sss_transport::TransportError>(())
/// ```
pub struct SiteClient {
    addr: SocketAddr,
    cfg: ClientConfig,
    conn: Option<TcpStream>,
    handshakes: u64,
    next_seq: u64,
    stats: ClientStats,
    /// Whether the current connection's hello ack granted delta pushes.
    delta_enabled: bool,
    /// Whether the current connection's hello ack granted telemetry
    /// pushes ([`SiteClient::push_metrics`]).
    metrics_enabled: bool,
    /// Sequence for telemetry pushes — separate from snapshot
    /// sequences, because metrics are last-write-wins rather than
    /// deduplicated and must not consume snapshot sequence numbers.
    metrics_seq: u64,
    /// The last snapshot the collector accepted (sequence + bytes) —
    /// the base the next push is diffed against.
    acked: Option<(u64, Vec<u8>)>,
}

/// What one push round trip concluded (internal: the public outcome
/// collapses `UnknownBase`, which triggers the full-push fallback).
enum AckOutcome {
    Accepted,
    Duplicate,
    UnknownBase,
}

impl SiteClient {
    /// Resolve `addr` and establish the first connection (handshake
    /// included), retrying per the config's [`RetryPolicy`].
    pub fn connect(addr: impl ToSocketAddrs, cfg: ClientConfig) -> Result<Self, TransportError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let mut client = Self {
            addr,
            cfg,
            conn: None,
            handshakes: 0,
            next_seq: 0,
            stats: ClientStats::default(),
            delta_enabled: false,
            metrics_enabled: false,
            metrics_seq: 0,
            acked: None,
        };
        client.with_retries(|c| {
            c.ensure_connected()?;
            Ok(())
        })?;
        Ok(client)
    }

    /// The collector address this client talks to.
    pub fn collector_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sequence number the next new snapshot will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Delivery counters so far.
    pub fn stats(&self) -> &ClientStats {
        &self.stats
    }

    /// Checkpoint `monitor` and push the snapshot. Equivalent to
    /// `push_wire(monitor.checkpoint()?)`.
    pub fn push_monitor(&mut self, monitor: &Monitor) -> Result<PushOutcome, TransportError> {
        let snapshot = monitor.checkpoint()?;
        self.push_wire(snapshot)
    }

    /// Push one already-framed snapshot buffer (e.g. from
    /// `ConcurrentMonitor::snapshot().checkpoint()`). Blocks until the collector
    /// acks, retrying through disconnects with the same sequence number
    /// so delivery is exactly-once from the collector's point of view.
    ///
    /// When the hello negotiated delta pushes and a previous snapshot
    /// from this client was accepted, the snapshot travels as a byte
    /// diff against it whenever the diff is smaller; a collector whose
    /// retained base moved answers `RejectedUnknownBase` and the client
    /// transparently re-sends the *full* snapshot with the same
    /// sequence number — delivery semantics are identical either way.
    ///
    /// # Errors
    /// [`TransportError::Rejected`] if the collector NACKed the
    /// snapshot (re-sending identical bytes cannot succeed — the
    /// sequence number is *not* consumed);
    /// [`TransportError::RetriesExhausted`] if the retry budget ran out
    /// without an ack.
    pub fn push_wire(&mut self, snapshot: Vec<u8>) -> Result<PushOutcome, TransportError> {
        let site_id = self.cfg.site_id;
        // Diff against the last landed snapshot up front (the diff is
        // pure CPU — no reason to redo it per retry). Kept only when it
        // actually beats the full payload.
        let delta: Option<(u64, Vec<u8>)> = if self.cfg.delta_pushes {
            self.acked.as_ref().and_then(|(base_seq, base)| {
                let d = snapshot_delta(base, &snapshot);
                (d.len() < snapshot.len()).then_some((*base_seq, d))
            })
        } else {
            None
        };

        // The sequence is captured on the first attempt (after any
        // initial reconnect) and every retry — and the unknown-base
        // fallback — re-sends it unchanged: the documented same-seq
        // rule. If a mid-push reconnect's hello ack fast-forwards
        // `next_seq` *past* the in-flight sequence, the collector
        // already accepted it and only the ack was lost: resolve
        // locally as `Duplicate` instead of renumbering, which would
        // double-count the snapshot in the collector's accept stats.
        let mut pushing: Option<u64> = None;
        let mut full_frame: Option<Vec<u8>> = None;
        let mut delta_frame: Option<Vec<u8>> = None;
        let mut attempt_delta = delta.is_some();
        let (seq, outcome, was_delta) = loop {
            let mut sent_delta = false;
            let (seq, outcome) = self.with_retries(|c| {
                c.ensure_connected()?;
                let seq = *pushing.get_or_insert(c.next_seq);
                if c.next_seq > seq {
                    return Ok((seq, AckOutcome::Duplicate));
                }
                let frame = if attempt_delta && c.delta_enabled {
                    sent_delta = true;
                    let (base_seq, d) = delta.as_ref().expect("attempt_delta implies delta");
                    delta_frame.get_or_insert_with(|| {
                        SnapshotDeltaPush {
                            site_id,
                            seq,
                            base_seq: *base_seq,
                            delta: d.clone(),
                        }
                        .encode_framed()
                    })
                } else {
                    sent_delta = false;
                    full_frame.get_or_insert_with(|| encode_push_frame(site_id, seq, &snapshot))
                };
                c.push_once(seq, frame).map(|outcome| (seq, outcome))
            })?;
            match outcome {
                AckOutcome::UnknownBase if sent_delta => {
                    // The collector's base moved (another connection
                    // advanced it, or it restarted): same sequence,
                    // full bytes.
                    self.stats.delta_fallbacks += 1;
                    global().inc(MetricId::TransportDeltaFallbacksTotal);
                    attempt_delta = false;
                }
                AckOutcome::UnknownBase => {
                    return Err(TransportError::Protocol {
                        what: "unknown-base ack answering a full push".to_string(),
                    });
                }
                AckOutcome::Accepted => break (seq, PushOutcome::Accepted, sent_delta),
                AckOutcome::Duplicate => break (seq, PushOutcome::Duplicate, sent_delta),
            }
        };
        self.next_seq = self.next_seq.max(seq + 1);
        match outcome {
            PushOutcome::Accepted => {
                self.stats.snapshots_pushed += 1;
                if was_delta {
                    self.stats.snapshots_delta += 1;
                    global().inc(MetricId::TransportPushesDeltaTotal);
                } else {
                    global().inc(MetricId::TransportPushesFullTotal);
                }
            }
            PushOutcome::Duplicate => self.stats.snapshots_duplicate += 1,
        }
        // Either way the collector now holds exactly these bytes under
        // `seq` (a duplicate whose bytes somehow differ self-heals: the
        // next delta's base checksum won't match and the push falls
        // back to full).
        self.acked = Some((seq, snapshot));
        Ok(outcome)
    }

    /// Push this site's telemetry snapshot (e.g.
    /// `sss_obs::global().snapshot()`) to the collector, where it is
    /// stored last-write-wins and served from the stats endpoint next
    /// to the collector's own registry.
    ///
    /// Requires the hello to have negotiated the metrics-push feature
    /// (always offered; a collector predating it declines). Telemetry
    /// carries its own sequence counter — it never consumes snapshot
    /// sequence numbers, and a retried push is harmless because the
    /// collector overwrites rather than merges.
    ///
    /// # Errors
    /// [`TransportError::Protocol`] if the collector did not grant the
    /// feature; otherwise as [`SiteClient::push_wire`].
    pub fn push_metrics(&mut self, snapshot: &MetricsSnapshot) -> Result<(), TransportError> {
        self.with_retries(|c| c.ensure_connected())?;
        if !self.metrics_enabled {
            return Err(TransportError::Protocol {
                what: "collector did not grant the metrics-push feature".to_string(),
            });
        }
        let frame = MetricsPush {
            site_id: self.cfg.site_id,
            seq: self.metrics_seq,
            snapshot: snapshot.clone(),
        }
        .encode_framed();
        self.with_retries(|c| {
            c.ensure_connected()?;
            let ack = c.send_push(&frame)?;
            match ack.status {
                AckStatus::Rejected => Err(TransportError::Rejected { reason: ack.reason }),
                _ => Ok(()),
            }
        })?;
        self.metrics_seq += 1;
        Ok(())
    }

    /// Send a goodbye (best-effort) and drop the connection, returning
    /// the final delivery counters.
    pub fn close(mut self) -> ClientStats {
        if let Some(stream) = self.conn.as_mut() {
            let bye = Goodbye {
                site_id: self.cfg.site_id,
            };
            let _ = write_frame(stream, &bye.encode_framed());
        }
        self.conn = None;
        self.stats.clone()
    }

    /// Sever the current connection *without* a goodbye — what a cable
    /// pull looks like to the collector. The next push reconnects and
    /// resumes. Public so integration tests (and chaos drills) can
    /// exercise the recovery path deterministically.
    pub fn drop_connection(&mut self) {
        if let Some(stream) = self.conn.take() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
    }

    /// Whether a connection is currently established.
    pub fn is_connected(&self) -> bool {
        self.conn.is_some()
    }

    /// Run `op` under the retry policy. Transport-final errors
    /// (rejection, handshake refusal) pass through; anything else
    /// drops the connection, backs off exponentially and retries.
    fn with_retries<T>(
        &mut self,
        mut op: impl FnMut(&mut Self) -> Result<T, TransportError>,
    ) -> Result<T, TransportError> {
        let retry = self.cfg.retry.clone();
        let attempts = retry.max_attempts.max(1);
        let mut backoff = retry.initial_backoff;
        let mut last = String::new();
        for attempt in 1..=attempts {
            match op(self) {
                Ok(v) => return Ok(v),
                Err(
                    e @ (TransportError::Rejected { .. } | TransportError::HandshakeRefused { .. }),
                ) => return Err(e),
                Err(e) => {
                    self.drop_connection();
                    last = e.to_string();
                    if attempt < attempts {
                        self.stats.retries += 1;
                        global().inc(MetricId::TransportRetriesTotal);
                        std::thread::sleep(backoff);
                        backoff = (backoff * 2).min(retry.max_backoff);
                    }
                }
            }
        }
        Err(TransportError::RetriesExhausted { attempts, last })
    }

    /// Dial + handshake if not connected (one attempt; retries are the
    /// caller's loop).
    fn ensure_connected(&mut self) -> Result<(), TransportError> {
        if self.conn.is_some() {
            return Ok(());
        }
        if self.handshakes > 0 {
            // Dialing again after a successful session: a reconnect
            // attempt, recorded whether or not the dial succeeds.
            global().event(
                EventKind::ReconnectAttempt,
                self.cfg.site_id,
                self.handshakes,
                "",
            );
        }
        let stream = TcpStream::connect_timeout(&self.addr, self.cfg.connect_timeout)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(self.cfg.ack_timeout))?;
        // Bound writes too: a collector that stops reading must become
        // a retryable IO error, not a forever-blocked write_all.
        stream.set_write_timeout(Some(self.cfg.ack_timeout))?;
        let mut stream = stream;
        let hello = Hello {
            proto_version: TRANSPORT_PROTO_VERSION,
            site_id: self.cfg.site_id,
            site_name: self.cfg.site_name.clone(),
            // Telemetry pushes are always offered (they cost nothing
            // until used); delta pushes only when configured.
            features: FEATURE_METRICS_PUSH
                | if self.cfg.delta_pushes {
                    FEATURE_DELTA_PUSH
                } else {
                    0
                },
        };
        write_frame(&mut stream, &hello.encode_framed())?;
        let ack: HelloAck = read_reply(&mut stream, self.cfg.max_frame_payload)?;
        if !ack.accepted {
            return Err(TransportError::HandshakeRefused { reason: ack.reason });
        }
        self.delta_enabled = self.cfg.delta_pushes && ack.features & FEATURE_DELTA_PUSH != 0;
        self.metrics_enabled = ack.features & FEATURE_METRICS_PUSH != 0;
        // Fast-forward past the collector's dedup window: a restarted
        // site whose counter reset to 0 resumes where it left off
        // instead of pushing sequences the server would swallow as
        // duplicates.
        self.next_seq = self.next_seq.max(ack.resume_seq);
        self.handshakes += 1;
        if self.handshakes > 1 {
            self.stats.reconnects += 1;
            global().inc(MetricId::TransportReconnectsTotal);
        }
        self.conn = Some(stream);
        Ok(())
    }

    /// Write one push frame on the current connection and await its
    /// ack, counting the bytes out and timing the round trip.
    fn send_push(&mut self, frame: &[u8]) -> Result<SnapshotAck, TransportError> {
        let stream = self.conn.as_mut().expect("ensure_connected ran");
        let t0 = global().timer();
        write_frame(stream, frame)?;
        self.stats.bytes_out += frame.len() as u64;
        global().add(MetricId::TransportBytesOutTotal, frame.len() as u64);
        let ack = read_reply(stream, self.cfg.max_frame_payload)?;
        global().observe_since(MetricId::TransportPushRttNanos, t0);
        Ok(ack)
    }

    /// One write-push-await-ack round trip on the current connection.
    fn push_once(&mut self, expected_seq: u64, frame: &[u8]) -> Result<AckOutcome, TransportError> {
        let ack = self.send_push(frame)?;
        match ack.status {
            AckStatus::Rejected => Err(TransportError::Rejected { reason: ack.reason }),
            _ if ack.seq != expected_seq => Err(TransportError::Protocol {
                what: format!("ack for seq {} while pushing seq {expected_seq}", ack.seq),
            }),
            AckStatus::Accepted => Ok(AckOutcome::Accepted),
            AckStatus::Duplicate => Ok(AckOutcome::Duplicate),
            AckStatus::RejectedUnknownBase => Ok(AckOutcome::UnknownBase),
        }
    }
}

/// Read the collector's reply frame and decode it as `M`, whose wire tag
/// it must carry.
fn read_reply<M: WireCodec>(stream: &mut TcpStream, cap: usize) -> Result<M, TransportError> {
    let (fh, bytes) = read_frame(stream, cap)?;
    if fh.tag != M::WIRE_TAG {
        return Err(TransportError::Protocol {
            what: format!("expected tag {:#06x}, got tag {:#06x}", M::WIRE_TAG, fh.tag),
        });
    }
    Ok(M::decode_framed(&bytes)?)
}
