//! TCP snapshot transport for the distributed collector.
//!
//! The paper's deployment picture is many observation sites, each
//! Bernoulli-sampling its own slice of the traffic, and a collector
//! combining their summaries into one answer for the union. The lower
//! layers already make that possible *in memory* (mergeable estimators,
//! `Monitor::try_merge`) and *as bytes* (the `sss-codec` framed wire
//! format, `Monitor::checkpoint`/`restore`); this crate makes the bytes
//! actually flow: a length-delimited stream protocol over TCP built
//! directly on the existing `encode_framed` envelope.
//!
//! * [`proto`] — the protocol messages (hello/version handshake,
//!   snapshot push, typed acks, graceful goodbye), each travelling as a
//!   self-describing checksummed frame, plus the shared frame I/O used
//!   by both ends (header pre-validation via
//!   [`sss_codec::parse_frame_header`] before the payload is read, with
//!   a hard payload cap so a corrupt length cannot OOM the receiver).
//! * [`server`] — [`CollectorServer`]: accepts N site connections on
//!   worker threads, decodes snapshots through the codec registry,
//!   rejects corrupt or incompatible ones with per-reason counters
//!   ([`TransportStats`]) and folds accepted snapshots into a merged
//!   [`sss_core::Monitor`]. Each accept is `restore`, then
//!   `Monitor::check_mergeable` against the prototype (no clone), then
//!   store — a bad shard is a counter bump and a typed NACK, never a
//!   collector panic.
//! * [`client`] — [`SiteClient`]: wraps a local monitor, ships
//!   `checkpoint()` snapshots with sequence numbers, bounded retry and
//!   exponential-backoff reconnect, and resumes cleanly after a dropped
//!   connection (the server deduplicates re-sent sequence numbers, so a
//!   lost ACK never double-counts a snapshot).
//!
//! The protocol is documented in `crates/transport/src/README.md`; the
//! std-only constraint (`std::net` + `std::thread`, no external
//! dependencies) matches the rest of the workspace.

#![forbid(unsafe_code)]

use std::fmt;
use std::io;

use sss_codec::CodecError;

pub mod client;
pub mod proto;
pub mod server;

pub use client::{ClientConfig, ClientStats, PushOutcome, RetryPolicy, SiteClient};
pub use proto::{
    read_frame, write_frame, AckStatus, Goodbye, Hello, HelloAck, MetricsPush, SnapshotAck,
    SnapshotDeltaPush, SnapshotPush, FEATURE_DELTA_PUSH, FEATURE_METRICS_PUSH, SUPPORTED_FEATURES,
    TRANSPORT_PROTO_VERSION,
};
pub use server::{CollectorServer, RejectReason, ServerConfig, SiteTransportStats, TransportStats};

/// Why a transport operation failed. IO and codec problems keep their
/// typed causes; protocol-level outcomes (a refused handshake, a
/// rejected snapshot, an exhausted retry budget) get their own variants
/// so callers can distinguish "retry later" from "this snapshot will
/// never be accepted".
#[derive(Debug)]
pub enum TransportError {
    /// The socket failed (connect, read or write).
    Io(io::Error),
    /// A frame failed header validation or payload decoding.
    Codec(CodecError),
    /// The peer closed the connection at a frame boundary.
    Closed,
    /// The transport is shutting down (server-side read loops only).
    Shutdown,
    /// A frame announced a payload larger than the configured cap.
    Oversize {
        /// Payload length announced by the frame header.
        payload_len: usize,
        /// The receiver's configured cap.
        cap: usize,
    },
    /// The collector refused the hello handshake.
    HandshakeRefused {
        /// The collector's stated reason.
        reason: String,
    },
    /// The collector rejected a pushed snapshot (typed NACK) — the
    /// snapshot is corrupt or incompatible; re-sending the same bytes
    /// cannot succeed.
    Rejected {
        /// The collector's stated reason.
        reason: String,
    },
    /// The peer answered with a message that violates the protocol
    /// state machine (wrong tag, or an ack for a different sequence).
    Protocol {
        /// What was wrong.
        what: String,
    },
    /// The bounded retry budget ran out.
    RetriesExhausted {
        /// Attempts made.
        attempts: u32,
        /// The last attempt's error.
        last: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "io: {e}"),
            TransportError::Codec(e) => write!(f, "codec: {e}"),
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::Shutdown => write!(f, "transport shutting down"),
            TransportError::Oversize { payload_len, cap } => {
                write!(f, "frame payload {payload_len} bytes exceeds cap {cap}")
            }
            TransportError::HandshakeRefused { reason } => {
                write!(f, "handshake refused: {reason}")
            }
            TransportError::Rejected { reason } => write!(f, "snapshot rejected: {reason}"),
            TransportError::Protocol { what } => write!(f, "protocol violation: {what}"),
            TransportError::RetriesExhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last error: {last})")
            }
        }
    }
}

impl std::error::Error for TransportError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TransportError::Io(e) => Some(e),
            TransportError::Codec(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TransportError {
    fn from(e: io::Error) -> Self {
        TransportError::Io(e)
    }
}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}
