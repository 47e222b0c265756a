//! [`CollectorServer`]: the receiving end of the snapshot transport.
//!
//! One accept loop, one handler thread per site connection. Every
//! incoming frame is pre-validated (header), checksum-checked and
//! decoded through the codec before any of it is trusted; every failure
//! is a *counter bump and a typed NACK*, never a collector panic — a
//! fleet of sites keeps streaming while one corrupt peer is rejected
//! frame by frame.
//!
//! Merging is idempotent per site: the collector keeps the **latest
//! accepted snapshot per site** (sites push cumulative checkpoints, so
//! a newer snapshot supersedes the older one) and remembers the highest
//! sequence number accepted; a re-sent sequence — the retry after a
//! lost ack — answers `Duplicate` and changes nothing. The merged view
//! ([`CollectorServer::merged`]) folds the per-site snapshots into a
//! clone of the prototype in ascending `site_id` order through
//! [`Monitor::merge`], so it is bitwise-identical to an in-memory merge
//! of the same snapshots in the same order. Every stored snapshot passed
//! [`Monitor::check_mergeable`] against the prototype when it was
//! accepted, so the fold cannot fail.

use std::collections::BTreeMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sss_codec::{CodecError, WireCodec};
use sss_core::{Monitor, SnapshotDelta};
use sss_obs::{render_json, render_prometheus, EventKind, MetricId, MetricsSnapshot, Registry};

use crate::proto::AckStatus;
use crate::proto::{
    read_frame_inner, write_frame, FrameRead, Goodbye, Hello, HelloAck, MetricsPush, SnapshotAck,
    SnapshotDeltaPush, SnapshotPush, SEQ_UNKNOWN, SUPPORTED_FEATURES, TAG_GOODBYE, TAG_HELLO,
    TAG_METRICS_PUSH, TAG_SNAPSHOT_DELTA_PUSH, TAG_SNAPSHOT_PUSH, TRANSPORT_PROTO_VERSION,
};
use crate::TransportError;

/// Why the collector refused a frame or snapshot — the index set of the
/// per-reason rejection counters in [`TransportStats`]. Codec-driven
/// reasons mirror [`CodecError`] variant by variant; the rest are
/// transport-level verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum RejectReason {
    /// Frame did not start with the wire magic.
    BadMagic,
    /// Frame written by an incompatible wire format version.
    UnsupportedVersion,
    /// Frame tag did not match the expected type.
    TagMismatch,
    /// A polymorphic slot carried a tag this build cannot decode.
    UnknownTag,
    /// The connection ended (or the buffer ran out) mid-frame.
    Truncated,
    /// Bytes left over after a complete object.
    TrailingBytes,
    /// Payload checksum mismatch — bytes corrupted in flight.
    ChecksumMismatch,
    /// A decoded value violated a structural invariant.
    InvalidPayload,
    /// Frame announced a payload above the configured cap.
    Oversize,
    /// The snapshot decoded fine but cannot merge with the collector's
    /// prototype configuration (rate/shape/label/type mismatch).
    MergeIncompatible,
    /// A push's `site_id` disagreed with the connection's hello.
    SiteMismatch,
    /// A message tag arrived out of protocol order.
    UnexpectedMessage,
    /// The hello handshake was refused (transport protocol version).
    HandshakeRefused,
    /// A delta push named a base snapshot the collector does not hold
    /// (sequence moved or bytes disagree) — answered
    /// `RejectedUnknownBase`, prompting a full-push fallback.
    UnknownBase,
}

impl RejectReason {
    /// Number of distinct reasons (length of the counter array).
    pub const COUNT: usize = 14;

    /// Every reason, index-aligned with the counter array.
    pub const ALL: [RejectReason; Self::COUNT] = [
        RejectReason::BadMagic,
        RejectReason::UnsupportedVersion,
        RejectReason::TagMismatch,
        RejectReason::UnknownTag,
        RejectReason::Truncated,
        RejectReason::TrailingBytes,
        RejectReason::ChecksumMismatch,
        RejectReason::InvalidPayload,
        RejectReason::Oversize,
        RejectReason::MergeIncompatible,
        RejectReason::SiteMismatch,
        RejectReason::UnexpectedMessage,
        RejectReason::HandshakeRefused,
        RejectReason::UnknownBase,
    ];

    /// Stable label for logs and JSON.
    pub fn label(&self) -> &'static str {
        match self {
            RejectReason::BadMagic => "bad_magic",
            RejectReason::UnsupportedVersion => "unsupported_version",
            RejectReason::TagMismatch => "tag_mismatch",
            RejectReason::UnknownTag => "unknown_tag",
            RejectReason::Truncated => "truncated",
            RejectReason::TrailingBytes => "trailing_bytes",
            RejectReason::ChecksumMismatch => "checksum_mismatch",
            RejectReason::InvalidPayload => "invalid_payload",
            RejectReason::Oversize => "oversize",
            RejectReason::MergeIncompatible => "merge_incompatible",
            RejectReason::SiteMismatch => "site_mismatch",
            RejectReason::UnexpectedMessage => "unexpected_message",
            RejectReason::HandshakeRefused => "handshake_refused",
            RejectReason::UnknownBase => "unknown_base",
        }
    }

    /// The counter a [`CodecError`] lands in — variant for variant, so
    /// "flipped payload byte" and "stale writer version" are separate
    /// numbers on the dashboard.
    pub fn from_codec(e: &CodecError) -> Self {
        match e {
            CodecError::Truncated { .. } => RejectReason::Truncated,
            CodecError::BadMagic { .. } => RejectReason::BadMagic,
            CodecError::UnsupportedVersion { .. } => RejectReason::UnsupportedVersion,
            CodecError::TagMismatch { .. } => RejectReason::TagMismatch,
            CodecError::UnknownTag { .. } => RejectReason::UnknownTag,
            CodecError::TrailingBytes { .. } => RejectReason::TrailingBytes,
            CodecError::ChecksumMismatch { .. } => RejectReason::ChecksumMismatch,
            CodecError::Invalid { .. } => RejectReason::InvalidPayload,
            CodecError::BadBase { .. } => RejectReason::UnknownBase,
        }
    }
}

/// The registry counter behind each rejection reason. The per-reason
/// counters live in the shared metric registry (one source of truth for
/// [`TransportStats`], the wire export and the `/metrics` renders);
/// this is the index mapping.
fn reject_metric(reason: RejectReason) -> MetricId {
    match reason {
        RejectReason::BadMagic => MetricId::TransportRejectBadMagicTotal,
        RejectReason::UnsupportedVersion => MetricId::TransportRejectUnsupportedVersionTotal,
        RejectReason::TagMismatch => MetricId::TransportRejectTagMismatchTotal,
        RejectReason::UnknownTag => MetricId::TransportRejectUnknownTagTotal,
        RejectReason::Truncated => MetricId::TransportRejectTruncatedTotal,
        RejectReason::TrailingBytes => MetricId::TransportRejectTrailingBytesTotal,
        RejectReason::ChecksumMismatch => MetricId::TransportRejectChecksumMismatchTotal,
        RejectReason::InvalidPayload => MetricId::TransportRejectInvalidPayloadTotal,
        RejectReason::Oversize => MetricId::TransportRejectOversizeTotal,
        RejectReason::MergeIncompatible => MetricId::TransportRejectMergeIncompatibleTotal,
        RejectReason::SiteMismatch => MetricId::TransportRejectSiteMismatchTotal,
        RejectReason::UnexpectedMessage => MetricId::TransportRejectUnexpectedMessageTotal,
        RejectReason::HandshakeRefused => MetricId::TransportRejectHandshakeRefusedTotal,
        RejectReason::UnknownBase => MetricId::TransportRejectUnknownBaseTotal,
    }
}

/// Collector tuning knobs. Defaults suit a LAN deployment; tests dial
/// the timeouts down.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Hard cap on any frame's payload (a corrupt length larger than
    /// this is rejected before allocation). Default 64 MiB.
    pub max_frame_payload: usize,
    /// Read-poll granularity: how often blocked reads check the
    /// shutdown flag. Default 25 ms.
    pub poll_interval: Duration,
    /// How long a fresh connection may take to complete the hello
    /// handshake before being dropped. Default 10 s.
    pub handshake_timeout: Duration,
    /// Cap on any single ack/refusal write: a peer that stops reading
    /// (full send buffer) fails the connection after this long instead
    /// of blocking its handler thread forever. Default 10 s.
    pub write_timeout: Duration,
    /// Optional address for the HTTP stats endpoint (`GET /metrics` →
    /// Prometheus text, `GET /metrics.json` → JSON; the collector's
    /// own registry plus the latest telemetry pushed by each site).
    /// `None` (the default) serves no endpoint; `"127.0.0.1:0"` binds
    /// an OS-picked port, read back with
    /// [`CollectorServer::stats_addr`].
    pub stats_addr: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_frame_payload: 64 << 20,
            poll_interval: Duration::from_millis(25),
            handshake_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            stats_addr: None,
        }
    }
}

/// Per-site observability row in [`TransportStats`].
#[derive(Debug, Clone)]
pub struct SiteTransportStats {
    /// The site's stable identifier (from its hello).
    pub site_id: u64,
    /// The site's self-reported name.
    pub name: String,
    /// Snapshots accepted and folded into the collector view.
    pub snapshots_accepted: u64,
    /// Highest sequence number accepted (`None` before the first).
    pub last_seq: Option<u64>,
    /// Frame bytes received from this site (accepted pushes only).
    pub bytes_in: u64,
    /// Time since the site's last accepted snapshot (or hello),
    /// measured on the collector registry's session clock (monotonic
    /// milliseconds since this collector bound).
    ///
    /// **Restart semantics:** the underlying timestamp is a
    /// session-relative offset, not a wall-clock time or a raw
    /// [`Instant`] (which would be meaningless after checkpoint/restore
    /// of collector state). Within one collector process the value is
    /// exact; after a collector restart the session clock restarts too,
    /// so the first row for a site reads as "seen at hello time" —
    /// elapsed time across the restart gap is deliberately not
    /// invented.
    pub since_last_seen: Duration,
}

/// A point-in-time snapshot of the collector's transport counters —
/// the observability surface the ISSUE calls `TransportStats`.
#[derive(Debug, Clone)]
pub struct TransportStats {
    /// Connections accepted since bind.
    pub connections_accepted: u64,
    /// Connections currently in a session.
    pub connections_active: u64,
    /// Connections that ended with a goodbye.
    pub clean_closes: u64,
    /// Connections that ended without one (drop, IO error).
    pub disconnects: u64,
    /// Snapshot pushes accepted and folded into the collector view.
    pub snapshots_accepted: u64,
    /// Re-sent sequence numbers answered `Duplicate` (retries after a
    /// lost ack) — received again, merged zero times.
    pub snapshots_duplicate: u64,
    /// Total frame bytes successfully read off all connections
    /// (header + payload, including frames later rejected).
    pub bytes_in: u64,
    rejected: [u64; RejectReason::COUNT],
    /// Per-site rows, ascending `site_id`.
    pub sites: Vec<SiteTransportStats>,
}

impl TransportStats {
    /// Frames rejected for `reason`.
    pub fn rejected(&self, reason: RejectReason) -> u64 {
        self.rejected[reason as usize]
    }

    /// Frames rejected across all reasons.
    pub fn rejected_total(&self) -> u64 {
        self.rejected.iter().sum()
    }

    /// `(label, count)` for every reason with a nonzero counter.
    pub fn rejected_nonzero(&self) -> Vec<(&'static str, u64)> {
        RejectReason::ALL
            .iter()
            .filter(|r| self.rejected[**r as usize] > 0)
            .map(|r| (r.label(), self.rejected[*r as usize]))
            .collect()
    }
}

/// Per-site connection state. The counters live as shared registry
/// cells — resolved once at hello via [`Registry::labeled_handle`],
/// plain atomic adds afterwards — so the per-site rows in
/// [`TransportStats`], the wire export and the `/metrics` renders all
/// read the same storage. One source of truth, no parallel bookkeeping
/// to drift.
struct SiteState {
    name: String,
    /// `sss_transport_site_snapshots_total{site}` cell.
    accepted: Arc<AtomicU64>,
    /// `sss_transport_site_bytes_in_total{site}` cell.
    bytes_in: Arc<AtomicU64>,
    /// `sss_transport_site_last_seq{site}` cell. Stores `seq + 1`, with
    /// `0` meaning "none accepted yet", so the gauge stays one plain
    /// u64 cell. The `+ 1` cannot wrap: `SEQ_UNKNOWN` (`u64::MAX`) is
    /// rejected before any accept.
    last_seq_cell: Arc<AtomicU64>,
    /// `sss_transport_site_last_seen_ms{site}` cell: session-relative
    /// milliseconds (see [`SiteTransportStats::since_last_seen`] for
    /// the restart semantics).
    last_seen_ms: Arc<AtomicU64>,
    latest: Option<Monitor>,
    /// The framed checkpoint bytes behind `latest` — the base the next
    /// delta push from this site is applied against. `Arc` so a handler
    /// thread can diff outside the sites lock without a multi-MiB copy.
    latest_bytes: Option<Arc<Vec<u8>>>,
}

impl SiteState {
    fn new(reg: &Registry, site_id: u64, name: String) -> Self {
        Self {
            name,
            accepted: reg.labeled_handle(MetricId::TransportSiteSnapshotsTotal, site_id),
            bytes_in: reg.labeled_handle(MetricId::TransportSiteBytesInTotal, site_id),
            last_seq_cell: reg.labeled_handle(MetricId::TransportSiteLastSeq, site_id),
            last_seen_ms: reg.labeled_handle(MetricId::TransportSiteLastSeenMs, site_id),
            latest: None,
            latest_bytes: None,
        }
    }

    /// Highest accepted sequence (`None` before the first).
    fn last_seq(&self) -> Option<u64> {
        self.last_seq_cell.load(Ordering::Relaxed).checked_sub(1)
    }

    fn set_last_seq(&self, seq: u64) {
        self.last_seq_cell.store(seq + 1, Ordering::Relaxed);
    }

    /// Stamp "seen now" on the session clock.
    fn touch(&self, reg: &Registry) {
        self.last_seen_ms.store(reg.session_ms(), Ordering::Relaxed);
    }
}

struct Shared {
    prototype: Monitor,
    cfg: ServerConfig,
    sites: Mutex<BTreeMap<u64, SiteState>>,
    /// This collector's own metric registry — deliberately *not* the
    /// process-global one, so concurrent collectors in one process (the
    /// test suite, most of all) never share counters.
    reg: Arc<Registry>,
    /// Latest telemetry snapshot pushed by each site over
    /// [`MetricsPush`]: `site_id → (seq, snapshot)`, last-write-wins
    /// guarded by `seq` so a late retry never rolls the view backwards.
    site_metrics: Mutex<BTreeMap<u64, (u64, MetricsSnapshot)>>,
    shutdown: AtomicBool,
    conn_handles: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn reject(&self, reason: RejectReason) {
        self.reg.inc(reject_metric(reason));
        self.reg
            .event(EventKind::SnapshotRejected, 0, 0, reason.label());
    }

    /// Count a failed read/decode; returns the reason when the error
    /// was a frame-level rejection (vs a connection-level end).
    fn reject_err(&self, e: &TransportError) -> Option<RejectReason> {
        let reason = match e {
            TransportError::Codec(c) => RejectReason::from_codec(c),
            TransportError::Oversize { .. } => RejectReason::Oversize,
            _ => return None,
        };
        self.reject(reason);
        Some(reason)
    }
}

/// The collector's TCP endpoint: accepts site connections, validates
/// and folds their snapshot pushes, and exposes the merged monitor and
/// the transport counters at any time.
///
/// ```no_run
/// use sss_core::MonitorBuilder;
/// use sss_transport::{CollectorServer, ServerConfig};
///
/// let prototype = MonitorBuilder::with_seed(0.05, 7).f0(0.05).fk(2).build();
/// let server = CollectorServer::bind("127.0.0.1:0", prototype, ServerConfig::default())?;
/// println!("collector on {}", server.local_addr());
/// // ... sites connect and push ...
/// let (merged, stats) = server.shutdown();
/// println!("accepted {} snapshots", stats.snapshots_accepted);
/// # let _ = merged;
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct CollectorServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    stats_addr: Option<SocketAddr>,
    accept_handle: Option<JoinHandle<()>>,
    stats_handle: Option<JoinHandle<()>>,
}

impl CollectorServer {
    /// Bind the collector and start accepting connections. `prototype`
    /// is the builder configuration every site must match (it defines
    /// what "mergeable" means); pass `"127.0.0.1:0"` to let the OS pick
    /// a port and read it back with [`CollectorServer::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        prototype: Monitor,
        cfg: ServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stats_listener = match &cfg.stats_addr {
            Some(a) => {
                let l = TcpListener::bind(a.as_str())?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        let stats_addr = match &stats_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        let shared = Arc::new(Shared {
            prototype,
            cfg,
            sites: Mutex::new(BTreeMap::new()),
            reg: Arc::new(Registry::new()),
            site_metrics: Mutex::new(BTreeMap::new()),
            shutdown: AtomicBool::new(false),
            conn_handles: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("sss-collector-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))?;
        let stats_handle = match stats_listener {
            Some(l) => {
                let stats_shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("sss-collector-stats".to_string())
                        .spawn(move || stats_loop(l, stats_shared))?,
                )
            }
            None => None,
        };
        Ok(Self {
            shared,
            addr,
            stats_addr,
            accept_handle: Some(accept_handle),
            stats_handle,
        })
    }

    /// The address the collector is listening on.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The address the HTTP stats endpoint is listening on, when
    /// [`ServerConfig::stats_addr`] asked for one.
    pub fn stats_addr(&self) -> Option<SocketAddr> {
        self.stats_addr
    }

    /// This collector's metric registry — per-server, not the
    /// process-global one. Snapshot it for the wire export, or render
    /// it directly.
    pub fn registry(&self) -> &Registry {
        &self.shared.reg
    }

    /// The latest telemetry snapshot each site pushed over
    /// [`MetricsPush`], ascending `site_id`.
    pub fn site_metrics(&self) -> Vec<(u64, MetricsSnapshot)> {
        let metrics = self.shared.site_metrics.lock().expect("site metrics lock");
        metrics
            .iter()
            .map(|(id, (_seq, snap))| (*id, snap.clone()))
            .collect()
    }

    /// The collector view right now: a clone of the prototype with
    /// every site's latest accepted snapshot folded in, ascending
    /// `site_id` — deterministic order, so the result is bitwise equal
    /// to an in-memory [`Monitor::try_merge`] of the same snapshots.
    pub fn merged(&self) -> Monitor {
        let sites = self.shared.sites.lock().expect("sites lock");
        let mut view = self.shared.prototype.clone();
        let snaps: Vec<&Monitor> = sites.values().filter_map(|s| s.latest.as_ref()).collect();
        // Accept proved `check_mergeable` against the immutable
        // prototype, so this merge cannot fail.
        view.merge_all(&snaps);
        view
    }

    /// Point-in-time transport counters and per-site rows. A thin view
    /// over the collector's metric registry — the same cells the wire
    /// export and `/metrics` renders read — kept as a typed struct so
    /// existing callers keep their field access.
    pub fn stats(&self) -> TransportStats {
        let reg = &self.shared.reg;
        let sites = self.shared.sites.lock().expect("sites lock");
        let now_ms = reg.session_ms();
        TransportStats {
            connections_accepted: reg.value(MetricId::TransportConnectionsTotal),
            connections_active: reg.gauge_value(MetricId::TransportConnectionsActive).max(0) as u64,
            clean_closes: reg.value(MetricId::TransportCleanClosesTotal),
            disconnects: reg.value(MetricId::TransportDisconnectsTotal),
            snapshots_accepted: reg.value(MetricId::TransportSnapshotsAcceptedTotal),
            snapshots_duplicate: reg.value(MetricId::TransportSnapshotsDuplicateTotal),
            bytes_in: reg.value(MetricId::TransportBytesInTotal),
            rejected: std::array::from_fn(|i| reg.value(reject_metric(RejectReason::ALL[i]))),
            sites: sites
                .iter()
                .map(|(id, s)| SiteTransportStats {
                    site_id: *id,
                    name: s.name.clone(),
                    snapshots_accepted: s.accepted.load(Ordering::Relaxed),
                    last_seq: s.last_seq(),
                    bytes_in: s.bytes_in.load(Ordering::Relaxed),
                    since_last_seen: Duration::from_millis(
                        now_ms.saturating_sub(s.last_seen_ms.load(Ordering::Relaxed)),
                    ),
                })
                .collect(),
        }
    }

    /// Stop accepting, wind down every connection handler (all reads —
    /// idle or mid-frame — abort at the next poll tick, so shutdown is
    /// bounded by `poll_interval` even against a stalled peer; writes
    /// are bounded by `write_timeout`), and return the final merged
    /// monitor and counters. A push whose frame was aborted mid-read
    /// never acks, so its site re-sends it on reconnect; the sequence
    /// dedup keeps that safe.
    ///
    /// Merely dropping the server has the same winding-down effect
    /// (threads joined, port released) but discards the final view.
    pub fn shutdown(mut self) -> (Monitor, TransportStats) {
        self.wind_down();
        (self.merged(), self.stats())
    }

    /// Idempotent: set the flag, join the accept loop, join every
    /// handler. Shared by [`CollectorServer::shutdown`] and `Drop`.
    fn wind_down(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        if let Some(h) = self.stats_handle.take() {
            let _ = h.join();
        }
        let handles: Vec<_> = self
            .shared
            .conn_handles
            .lock()
            .expect("handles lock")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for CollectorServer {
    fn drop(&mut self) {
        // Without this, a server dropped on an early-return path would
        // leak its accept thread (spinning every poll tick), its
        // handler threads and the bound port for the process lifetime.
        self.wind_down();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.reg.inc(MetricId::TransportConnectionsTotal);
                let conn_shared = Arc::clone(&shared);
                let handle = std::thread::Builder::new()
                    .name("sss-collector-conn".to_string())
                    .spawn(move || handle_connection(stream, conn_shared))
                    .expect("spawn connection handler");
                // Reap handlers that already finished before tracking
                // the new one — sites reconnect for a living, and a
                // long-lived collector must not accumulate one dead
                // JoinHandle per connection ever accepted.
                let mut handles = shared.conn_handles.lock().expect("handles lock");
                let mut i = 0;
                while i < handles.len() {
                    if handles[i].is_finished() {
                        let _ = handles.swap_remove(i).join();
                    } else {
                        i += 1;
                    }
                }
                handles.push(handle);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval);
            }
            Err(_) => {
                // Transient accept error (e.g. aborted connection):
                // keep serving.
                std::thread::sleep(shared.cfg.poll_interval);
            }
        }
    }
}

fn handle_connection(mut stream: TcpStream, shared: Arc<Shared>) {
    shared
        .reg
        .gauge_add(MetricId::TransportConnectionsActive, 1);
    let clean = serve(&mut stream, &shared);
    shared
        .reg
        .gauge_add(MetricId::TransportConnectionsActive, -1);
    match clean {
        true => shared.reg.inc(MetricId::TransportCleanClosesTotal),
        false => shared.reg.inc(MetricId::TransportDisconnectsTotal),
    };
}

/// Run one connection to completion. Returns whether it ended cleanly
/// (goodbye, or shutdown while idle).
fn serve(stream: &mut TcpStream, shared: &Shared) -> bool {
    // Accepted sockets can inherit the listener's nonblocking mode;
    // switch to blocking reads with a short timeout so the read loop
    // doubles as the shutdown poll. Acks are tiny request-response
    // writes — disable Nagle so they are not held hostage to delayed
    // ACKs, and bound writes so a peer that stops *reading* (full send
    // buffer) fails the connection instead of wedging the handler
    // thread (and therefore `shutdown()`) forever.
    if stream.set_nonblocking(false).is_err()
        || stream.set_nodelay(true).is_err()
        || stream
            .set_read_timeout(Some(shared.cfg.poll_interval))
            .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return false;
    }
    let cap = shared.cfg.max_frame_payload;

    // Phase 1: hello handshake, under a deadline.
    let deadline = Instant::now() + shared.cfg.handshake_timeout;
    let site_id = match read_frame_inner(stream, cap, Some(&shared.shutdown), Some(deadline)) {
        Ok(FrameRead::Closed) => return true, // connected, said nothing, left
        Ok(FrameRead::Frame(fh, bytes)) if fh.tag == TAG_HELLO => {
            shared
                .reg
                .add(MetricId::TransportBytesInTotal, bytes.len() as u64);
            match Hello::decode_framed(&bytes) {
                Ok(hello) if hello.proto_version == TRANSPORT_PROTO_VERSION => {
                    let mut sites = shared.sites.lock().expect("sites lock");
                    let entry = sites.entry(hello.site_id).or_insert_with(|| {
                        SiteState::new(&shared.reg, hello.site_id, hello.site_name.clone())
                    });
                    entry.name = hello.site_name.clone();
                    entry.touch(&shared.reg);
                    // Tell the site where its sequence left off, so a
                    // restarted site (counter back at 0) fast-forwards
                    // past the dedup window instead of having its
                    // fresh snapshots swallowed as duplicates.
                    // (Saturating: SEQ_UNKNOWN is rejected at accept
                    // time, but a stored u64::MAX must still not panic
                    // the handler under debug assertions.)
                    let resume_seq = entry.last_seq().map_or(0, |s| s.saturating_add(1));
                    drop(sites);
                    let ack = HelloAck {
                        accepted: true,
                        proto_version: TRANSPORT_PROTO_VERSION,
                        resume_seq,
                        reason: String::new(),
                        // Grant the intersection of what the site
                        // offered and what this build implements.
                        features: hello.features & SUPPORTED_FEATURES,
                    };
                    if write_frame(stream, &ack.encode_framed()).is_err() {
                        return false;
                    }
                    hello.site_id
                }
                Ok(hello) => {
                    shared.reject(RejectReason::HandshakeRefused);
                    refuse_hello(
                        stream,
                        format!(
                            "transport protocol version {} not supported (this collector speaks {})",
                            hello.proto_version, TRANSPORT_PROTO_VERSION
                        ),
                    );
                    return false;
                }
                Err(e) => {
                    shared.reject(RejectReason::from_codec(&e));
                    refuse_hello(stream, format!("hello failed to decode: {e}"));
                    return false;
                }
            }
        }
        Ok(FrameRead::Frame(fh, _)) => {
            shared.reject(RejectReason::UnexpectedMessage);
            refuse_hello(stream, format!("expected Hello, got tag {:#06x}", fh.tag));
            return false;
        }
        Err(TransportError::Shutdown) => return true,
        Err(e) => {
            // A frame-level failure during handshake (bad magic, wrong
            // wire version, oversize, truncation) is counted under its
            // reason and refused best-effort — the refusal is written
            // in *our* wire version, which a stale peer may not parse,
            // but the bytes are there for it to log.
            let refused = shared.reject_err(&e).is_some();
            if refused {
                refuse_hello(stream, format!("handshake frame rejected: {e}"));
            }
            return false;
        }
    };

    // Phase 2: snapshot session.
    loop {
        match read_frame_inner(stream, cap, Some(&shared.shutdown), None) {
            Ok(FrameRead::Closed) => return false, // dropped without goodbye
            Err(TransportError::Shutdown) => return true,
            Err(e) => {
                shared.reject_err(&e);
                // An oversize frame is the one read failure with a
                // still-valid header: NACK it so the site learns the
                // push is *terminal* instead of burning its retry
                // budget re-sending it, then close (the unread payload
                // makes the stream position unrecoverable).
                if matches!(e, TransportError::Oversize { .. }) {
                    let ack = rejected_ack(SEQ_UNKNOWN, format!("frame rejected: {e}"));
                    let _ = write_frame(stream, &ack.encode_framed());
                }
                return false;
            }
            Ok(FrameRead::Frame(fh, bytes)) => {
                shared
                    .reg
                    .add(MetricId::TransportBytesInTotal, bytes.len() as u64);
                if fh.tag == TAG_GOODBYE {
                    let _ = Goodbye::decode_framed(&bytes);
                    return true;
                }
                let ack = match decode_push(fh.tag, &bytes) {
                    Ok(Push::Snapshot {
                        site_id: pushed,
                        seq,
                        body,
                    }) => handle_snapshot_push(shared, site_id, pushed, seq, body, bytes.len()),
                    Ok(Push::Metrics(push)) => handle_metrics_push(shared, site_id, push),
                    Err((reason, text)) => {
                        shared.reject(reason);
                        rejected_ack(SEQ_UNKNOWN, text)
                    }
                };
                if write_frame(stream, &ack.encode_framed()).is_err() {
                    return false;
                }
            }
        }
    }
}

/// A decoded session message that expects an ack.
enum Push {
    /// A monitor snapshot push in either encoding.
    Snapshot {
        site_id: u64,
        seq: u64,
        body: SnapshotBody,
    },
    /// Site telemetry.
    Metrics(MetricsPush),
}

/// A snapshot's bytes: whole, or a delta against the site's last
/// accepted snapshot.
enum SnapshotBody {
    Full(Vec<u8>),
    Delta { base_seq: u64, delta: Vec<u8> },
}

/// Decode one session frame by tag. An undecodable frame maps to its
/// reject reason and the NACK text; an unknown tag is
/// [`RejectReason::UnexpectedMessage`].
fn decode_push(tag: u16, bytes: &[u8]) -> Result<Push, (RejectReason, String)> {
    let codec = |what: &str, e: CodecError| {
        (
            RejectReason::from_codec(&e),
            format!("{what} frame rejected: {e}"),
        )
    };
    match tag {
        TAG_SNAPSHOT_PUSH => SnapshotPush::decode_framed(bytes)
            .map(|p| Push::Snapshot {
                site_id: p.site_id,
                seq: p.seq,
                body: SnapshotBody::Full(p.snapshot),
            })
            .map_err(|e| codec("push", e)),
        TAG_SNAPSHOT_DELTA_PUSH => SnapshotDeltaPush::decode_framed(bytes)
            .map(|p| Push::Snapshot {
                site_id: p.site_id,
                seq: p.seq,
                body: SnapshotBody::Delta {
                    base_seq: p.base_seq,
                    delta: p.delta,
                },
            })
            .map_err(|e| codec("delta push", e)),
        TAG_METRICS_PUSH => MetricsPush::decode_framed(bytes)
            .map(Push::Metrics)
            .map_err(|e| codec("metrics push", e)),
        other => Err((
            RejectReason::UnexpectedMessage,
            format!("unexpected message tag {other:#06x}"),
        )),
    }
}

fn rejected_ack(seq: u64, reason: String) -> SnapshotAck {
    SnapshotAck {
        seq,
        status: AckStatus::Rejected,
        reason,
    }
}

/// The NACK for a push whose `site_id` disagrees with the connection's
/// hello.
fn site_mismatch(shared: &Shared, seq: u64, pushed: u64, session: u64) -> SnapshotAck {
    shared.reject(RejectReason::SiteMismatch);
    rejected_ack(
        seq,
        format!("push for site {pushed} on a connection that authenticated as site {session}"),
    )
}

/// O(1) duplicate answer.
fn duplicate_ack(shared: &Shared, seq: u64) -> SnapshotAck {
    shared.reg.inc(MetricId::TransportSnapshotsDuplicateTotal);
    SnapshotAck {
        seq,
        status: AckStatus::Duplicate,
        reason: String::new(),
    }
}

/// Whether `seq` is already covered by the site's accepted window.
fn is_duplicate(shared: &Shared, site: u64, seq: u64) -> bool {
    let sites = shared.sites.lock().expect("sites lock");
    let entry = sites.get(&site).expect("site registered at hello");
    matches!(entry.last_seq(), Some(last) if seq <= last)
}

/// Validate one snapshot push, whole or delta, and fold it in. Returns
/// the ack to send; every rejection increments exactly one reason
/// counter.
///
/// The site, reserved-sequence and dedup checks run first, in O(1): a
/// retry after a lost ack (the normal recovery path) re-sends bytes the
/// collector already holds, and is answered `Duplicate` without a
/// decode. A delta is then rebuilt against the retained base, and both
/// forms take the same accept: `restore` → `check_mergeable` against
/// the prototype → store.
fn handle_snapshot_push(
    shared: &Shared,
    session_site: u64,
    pushed_site: u64,
    seq: u64,
    body: SnapshotBody,
    frame_bytes: usize,
) -> SnapshotAck {
    if pushed_site != session_site {
        return site_mismatch(shared, seq, pushed_site, session_site);
    }
    // `u64::MAX` is [`SEQ_UNKNOWN`] (the undecodable-payload ack
    // sentinel), and accepting it would also wedge the dedup window at
    // the top of the range. No honest client gets near it.
    if seq == SEQ_UNKNOWN {
        shared.reject(RejectReason::InvalidPayload);
        return rejected_ack(seq, "sequence u64::MAX is reserved".to_string());
    }
    if is_duplicate(shared, session_site, seq) {
        return duplicate_ack(shared, seq);
    }
    let snapshot = match body {
        SnapshotBody::Full(bytes) => bytes,
        SnapshotBody::Delta { base_seq, delta } => {
            match rebuild_from_delta(shared, session_site, base_seq, &delta) {
                Ok(bytes) => bytes,
                Err((reason, text)) => {
                    shared.reject(reason);
                    let status = match reason {
                        RejectReason::UnknownBase => AckStatus::RejectedUnknownBase,
                        _ => AckStatus::Rejected,
                    };
                    return SnapshotAck {
                        seq,
                        status,
                        reason: text,
                    };
                }
            }
        }
    };

    let reject = |reason: RejectReason, text: String| {
        shared.reject(reason);
        rejected_ack(seq, text)
    };
    // The snapshot is its own checksummed frame: restore re-validates
    // magic, version, tag and payload checksum independently of the
    // transport frame that carried it. Decode and the prototype check
    // run outside the sites lock — other sites keep landing pushes
    // meanwhile — and neither clones nor mutates the prototype.
    let snap = match Monitor::restore(&snapshot) {
        Ok(m) => m,
        Err(e) => {
            return reject(
                RejectReason::from_codec(&e),
                format!("snapshot rejected: {e}"),
            )
        }
    };
    if let Err(e) = shared.prototype.check_mergeable(&snap) {
        return reject(
            RejectReason::MergeIncompatible,
            format!("snapshot does not merge with the collector prototype: {e}"),
        );
    }

    let mut sites = shared.sites.lock().expect("sites lock");
    let entry = sites
        .get_mut(&session_site)
        .expect("site registered at hello");
    // Re-check under the lock: a second connection for the same site
    // id could have advanced the sequence while we were decoding.
    if matches!(entry.last_seq(), Some(last) if seq <= last) {
        drop(sites);
        return duplicate_ack(shared, seq);
    }
    entry.latest = Some(snap);
    // Retain the framed bytes as the base for this site's next delta
    // push (one snapshot per site, the price of delta support).
    entry.latest_bytes = Some(Arc::new(snapshot));
    entry.set_last_seq(seq);
    entry.accepted.fetch_add(1, Ordering::Relaxed);
    entry
        .bytes_in
        .fetch_add(frame_bytes as u64, Ordering::Relaxed);
    entry.touch(&shared.reg);
    drop(sites);
    shared.reg.inc(MetricId::TransportSnapshotsAcceptedTotal);
    shared
        .reg
        .event(EventKind::SnapshotAccepted, session_site, seq, "");
    SnapshotAck {
        seq,
        status: AckStatus::Accepted,
        reason: String::new(),
    }
}

/// Rebuild the full snapshot bytes a delta push encodes. A base the
/// collector does not hold (sequence moved, or the bytes disagree with
/// the delta's recorded base checksum) is [`RejectReason::UnknownBase`]
/// — answered [`AckStatus::RejectedUnknownBase`], the site's cue to fall
/// back to a full push with the same sequence.
fn rebuild_from_delta(
    shared: &Shared,
    session_site: u64,
    base_seq: u64,
    delta: &[u8],
) -> Result<Vec<u8>, (RejectReason, String)> {
    let unknown_base = |text: String| (RejectReason::UnknownBase, text);
    // Resolve the retained base under the lock; the `Arc` clone makes
    // the (multi-MiB) reconstruction below run outside it.
    let base: Arc<Vec<u8>> = {
        let sites = shared.sites.lock().expect("sites lock");
        let entry = sites.get(&session_site).expect("site registered at hello");
        let held = entry.last_seq();
        match &entry.latest_bytes {
            Some(bytes) if held == Some(base_seq) => Arc::clone(bytes),
            Some(_) => {
                return Err(unknown_base(format!(
                    "delta names base seq {base_seq} but the collector holds {held:?}"
                )))
            }
            None => {
                return Err(unknown_base(format!(
                    "no snapshot bytes retained for base seq {base_seq}"
                )))
            }
        }
    };
    let codec = |e: CodecError| (RejectReason::from_codec(&e), format!("delta rejected: {e}"));
    let delta = SnapshotDelta::decode_framed(delta).map_err(codec)?;
    // The reconstructed snapshot obeys the same payload cap as one that
    // arrived whole — checked before paying for the reconstruction.
    let cap = shared.cfg.max_frame_payload;
    if delta.target_len() > cap {
        return Err((
            RejectReason::Oversize,
            format!(
                "delta reconstructs {} bytes, above the {cap} cap",
                delta.target_len()
            ),
        ));
    }
    delta.apply_with_limit(&base, cap).map_err(|e| match e {
        CodecError::BadBase { .. } => unknown_base(format!("delta does not apply: {e}")),
        e => codec(e),
    })
}

/// Store one site telemetry push: last-write-wins guarded by `seq`, so
/// a late retry never rolls the stored view backwards. No dedup window
/// — telemetry is an overwrite, not a merge, so replaying a sequence
/// is harmless and always acks `Accepted`.
fn handle_metrics_push(shared: &Shared, session_site: u64, push: MetricsPush) -> SnapshotAck {
    if push.site_id != session_site {
        return site_mismatch(shared, push.seq, push.site_id, session_site);
    }
    {
        let mut metrics = shared.site_metrics.lock().expect("site metrics lock");
        let slot = metrics
            .entry(session_site)
            .or_insert_with(|| (0, MetricsSnapshot::default()));
        if push.seq >= slot.0 {
            *slot = (push.seq, push.snapshot);
        }
    }
    shared.reg.inc(MetricId::TransportMetricsPushesTotal);
    SnapshotAck {
        seq: push.seq,
        status: AckStatus::Accepted,
        reason: String::new(),
    }
}

/// Accept loop for the HTTP stats endpoint. Requests are tiny and the
/// renders are cheap, so each one is served inline on this thread —
/// no handler pool, and shutdown needs to join exactly one thread.
fn stats_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::Relaxed) {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => serve_stats(stream, &shared),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.cfg.poll_interval);
            }
            Err(_) => std::thread::sleep(shared.cfg.poll_interval),
        }
    }
}

/// Answer one HTTP request: `GET /metrics` (Prometheus text) or
/// `GET /metrics.json` (JSON). Minimal HTTP/1.0 — enough for a scraper
/// or `curl`, not a web server: one request per connection, bounded
/// head read, close after the response.
fn serve_stats(mut stream: TcpStream, shared: &Shared) {
    use std::io::{Read, Write};
    if stream.set_nonblocking(false).is_err()
        || stream
            .set_read_timeout(Some(shared.cfg.handshake_timeout))
            .is_err()
        || stream
            .set_write_timeout(Some(shared.cfg.write_timeout))
            .is_err()
    {
        return;
    }
    let mut head = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match stream.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                head.extend_from_slice(&buf[..n]);
                if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() > (8 << 10) {
                    break;
                }
            }
            Err(_) => return,
        }
    }
    let line = head
        .split(|&b| b == b'\r' || b == b'\n')
        .next()
        .unwrap_or(&[]);
    let line = String::from_utf8_lossy(line);
    let mut parts = line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                render_stats_prometheus(shared),
            ),
            "/metrics.json" => ("200 OK", "application/json", render_stats_json(shared)),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found (try /metrics or /metrics.json)\n".to_string(),
            ),
        }
    };
    let resp = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(resp.as_bytes());
}

/// Prometheus text: the collector's own registry first, then the
/// latest telemetry pushed by each site with every series stamped
/// `site="<id>"`, so collector-side and site-side series with the same
/// metric name never collide.
fn render_stats_prometheus(shared: &Shared) -> String {
    let mut out = render_prometheus(&shared.reg.snapshot(), None);
    let metrics = shared.site_metrics.lock().expect("site metrics lock");
    for (site, (_seq, snap)) in metrics.iter() {
        out.push_str(&render_prometheus(snap, Some(*site)));
    }
    out
}

/// JSON: `{"collector": <snapshot>, "sites": [<snapshot>, ...]}`, the
/// site snapshots each carrying their `site` id.
fn render_stats_json(shared: &Shared) -> String {
    let mut out = String::from("{\"collector\":");
    out.push_str(&render_json(&shared.reg.snapshot(), None));
    out.push_str(",\"sites\":[");
    let metrics = shared.site_metrics.lock().expect("site metrics lock");
    for (i, (site, (_seq, snap))) in metrics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&render_json(snap, Some(*site)));
    }
    out.push_str("]}");
    out
}

/// Best-effort handshake refusal: the peer may already be gone, or may
/// not speak our wire version; either way the collector moves on.
fn refuse_hello(stream: &mut TcpStream, reason: String) {
    let ack = HelloAck {
        accepted: false,
        proto_version: TRANSPORT_PROTO_VERSION,
        resume_seq: 0,
        reason,
        features: 0,
    };
    let _ = write_frame(stream, &ack.encode_framed());
}
