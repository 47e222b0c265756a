//! The wire protocol: message types and framed stream I/O.
//!
//! A connection is a sequence of standard `sss-codec` frames — the same
//! `magic ‖ version ‖ tag ‖ payload_len ‖ checksum ‖ payload` envelope
//! every checkpoint already uses — so the envelope itself delimits the
//! stream: a receiver reads the fixed-size header, pre-validates it
//! ([`sss_codec::parse_frame_header`]: magic and format version checked
//! before a single payload byte is trusted), then reads exactly
//! `payload_len` more bytes and routes on the tag. There is no second
//! length prefix and no out-of-band state.
//!
//! Conversation shape (client = site, server = collector):
//!
//! ```text
//! site                          collector
//!  │ ── Hello {proto, site id, features} ──► │   refused ⇒ HelloAck{accepted:false} + close
//!  │ ◄── HelloAck {accepted, features} ───── │   granted = offered ∩ supported
//!  │ ── SnapshotPush {seq, bytes} ─────────► │   dedup on seq; restore + check_mergeable
//!  │ ◄── SnapshotAck {seq, status} ───────── │   Accepted / Duplicate / Rejected+reason
//!  │ ── SnapshotDeltaPush {seq, base, diff}► │   apply to retained base, then as above
//!  │ ◄── SnapshotAck {seq, status} ───────── │   + RejectedUnknownBase ⇒ site re-sends full
//!  │            …                            │
//!  │ ── Goodbye ───────────────────────────► │   clean close
//! ```
//!
//! Transport messages use the `0x05xx` tag range (the next free crate
//! range after `0x04xx` = `sss-core`). The snapshot payload inside a
//! [`SnapshotPush`] is itself a complete framed `Monitor` checkpoint —
//! nested envelope, nested checksum — so the collector re-validates the
//! monitor bytes independently of the transport frame around them.

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use sss_codec::{
    parse_frame_header, put_frame, put_len, CodecError, FrameHeader, Reader, WireCodec,
    FRAME_HEADER_BYTES,
};

use sss_obs::MetricsSnapshot;

use crate::TransportError;

/// Version of the *conversation* (message set and state machine),
/// independent of the codec's `WIRE_VERSION` (byte layout). Both are
/// checked during the hello handshake; optional capabilities on top of
/// the base conversation (delta pushes) are negotiated through the
/// hello's feature bitmask instead of version bumps.
pub const TRANSPORT_PROTO_VERSION: u16 = 1;

/// Hello feature bit: the peer understands [`SnapshotDeltaPush`] — the
/// collector retains each site's latest accepted snapshot bytes as the
/// delta base, and the site may push deltas against it. A client only
/// sends deltas when the collector's [`HelloAck`] echoes this bit.
pub const FEATURE_DELTA_PUSH: u64 = 1 << 0;

/// Hello feature bit: the peer understands [`MetricsPush`] — sites may
/// ship telemetry snapshots ([`sss_obs::MetricsSnapshot`]) next to
/// sketch snapshots, and the collector retains the latest per site for
/// its stats endpoint. A client only sends telemetry when the
/// collector's [`HelloAck`] echoes this bit.
pub const FEATURE_METRICS_PUSH: u64 = 1 << 1;

/// Every feature bit this build implements.
pub const SUPPORTED_FEATURES: u64 = FEATURE_DELTA_PUSH | FEATURE_METRICS_PUSH;

/// Wire tag of [`Hello`].
pub const TAG_HELLO: u16 = 0x0501;
/// Wire tag of [`HelloAck`].
pub const TAG_HELLO_ACK: u16 = 0x0502;
/// Wire tag of [`SnapshotPush`].
pub const TAG_SNAPSHOT_PUSH: u16 = 0x0503;
/// Wire tag of [`SnapshotAck`].
pub const TAG_SNAPSHOT_ACK: u16 = 0x0504;
/// Wire tag of [`Goodbye`].
pub const TAG_GOODBYE: u16 = 0x0505;
/// Wire tag of [`SnapshotDeltaPush`].
pub const TAG_SNAPSHOT_DELTA_PUSH: u16 = 0x0506;
/// Wire tag of [`MetricsPush`].
pub const TAG_METRICS_PUSH: u16 = 0x0507;

/// First message on every connection: the site introduces itself,
/// states its protocol version and offers its optional capabilities.
/// The collector answers [`HelloAck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The site's [`TRANSPORT_PROTO_VERSION`].
    pub proto_version: u16,
    /// Stable identifier of the site; snapshot sequence numbers are
    /// scoped to it, so it must survive reconnects.
    pub site_id: u64,
    /// Human-readable site name for the collector's observability.
    pub site_name: String,
    /// Capability bits the site offers ([`FEATURE_DELTA_PUSH`], …).
    /// Wire-v1 hellos predate the field and decode as 0 (no optional
    /// features), which is exactly what a v1 peer supports.
    pub features: u64,
}

impl WireCodec for Hello {
    const WIRE_TAG: u16 = TAG_HELLO;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.proto_version.encode_into(out);
        self.site_id.encode_into(out);
        self.site_name.encode_into(out);
        self.features.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(Hello {
            proto_version: r.u16()?,
            site_id: r.u64()?,
            site_name: String::decode(r)?,
            // v1 hellos have no such field: they offer no features.
            features: if r.v2() { r.u64()? } else { 0 },
        })
    }
}

/// The collector's handshake verdict. On `accepted: false` the
/// collector closes the connection right after sending this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// Whether the site may start pushing snapshots.
    pub accepted: bool,
    /// The collector's [`TRANSPORT_PROTO_VERSION`].
    pub proto_version: u16,
    /// The next snapshot sequence number the collector will accept
    /// from this site (0 for a site it has never accepted from). A
    /// (re)connecting client fast-forwards its own counter to at least
    /// this value, so a *restarted* site — whose in-memory counter
    /// reset to 0 — cannot push sequences the collector's dedup would
    /// silently answer `Duplicate` without merging.
    pub resume_seq: u64,
    /// Refusal reason (empty when accepted).
    pub reason: String,
    /// Capability bits granted for this session: the intersection of
    /// the hello's offer and what the collector implements. A client
    /// must not send feature-gated messages the ack did not grant.
    pub features: u64,
}

impl WireCodec for HelloAck {
    const WIRE_TAG: u16 = TAG_HELLO_ACK;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.accepted.encode_into(out);
        self.proto_version.encode_into(out);
        self.resume_seq.encode_into(out);
        self.reason.encode_into(out);
        self.features.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(HelloAck {
            accepted: r.bool()?,
            proto_version: r.u16()?,
            resume_seq: r.u64()?,
            reason: String::decode(r)?,
            // v1 acks have no such field: they grant no features.
            features: if r.v2() { r.u64()? } else { 0 },
        })
    }
}

/// One snapshot travelling site → collector. `snapshot` is a complete
/// framed `Monitor::checkpoint` buffer (nested envelope and checksum);
/// `seq` makes delivery idempotent: the collector remembers the highest
/// sequence accepted per site and answers [`AckStatus::Duplicate`] for
/// re-sends, so a push retried after a lost ack is never double-merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPush {
    /// Must match the connection's [`Hello::site_id`].
    pub site_id: u64,
    /// Site-scoped sequence number, strictly increasing per new
    /// snapshot; re-sent unchanged on retry.
    pub seq: u64,
    /// Framed `Monitor` checkpoint bytes.
    pub snapshot: Vec<u8>,
}

impl WireCodec for SnapshotPush {
    const WIRE_TAG: u16 = TAG_SNAPSHOT_PUSH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_push(out, self.site_id, self.seq, &self.snapshot);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let site_id = r.u64()?;
        let seq = r.u64()?;
        let len = r.len_prefix(1)?;
        let snapshot = r.take(len)?.to_vec();
        Ok(SnapshotPush {
            site_id,
            seq,
            snapshot,
        })
    }
}

/// One *delta* snapshot travelling site → collector: the byte diff
/// (`sss_core::delta` framed [`SnapshotDelta`]) between the site's new
/// cumulative checkpoint and the snapshot the collector last accepted
/// from it (`base_seq`). Sent only when the hello negotiated
/// [`FEATURE_DELTA_PUSH`]. If the collector's retained base no longer
/// matches `base_seq` it answers [`AckStatus::RejectedUnknownBase`] and
/// the site falls back to a full [`SnapshotPush`] with the *same*
/// sequence number — exactly-once delivery is unchanged.
///
/// [`SnapshotDelta`]: sss_core::SnapshotDelta
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDeltaPush {
    /// Must match the connection's [`Hello::site_id`].
    pub site_id: u64,
    /// Site-scoped sequence number of the snapshot this delta
    /// reconstructs (same rules as [`SnapshotPush::seq`]).
    pub seq: u64,
    /// Sequence number of the accepted snapshot the delta was computed
    /// against — the collector applies it only if this is exactly its
    /// latest accepted sequence for the site.
    pub base_seq: u64,
    /// Framed `SnapshotDelta` bytes (nested envelope, nested checksum,
    /// plus base/target checksums inside).
    pub delta: Vec<u8>,
}

impl WireCodec for SnapshotDeltaPush {
    const WIRE_TAG: u16 = TAG_SNAPSHOT_DELTA_PUSH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.site_id.encode_into(out);
        self.seq.encode_into(out);
        self.base_seq.encode_into(out);
        put_len(out, self.delta.len());
        out.extend_from_slice(&self.delta);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let site_id = r.u64()?;
        let seq = r.u64()?;
        let base_seq = r.u64()?;
        let len = r.len_prefix(1)?;
        let delta = r.take(len)?.to_vec();
        Ok(SnapshotDeltaPush {
            site_id,
            seq,
            base_seq,
            delta,
        })
    }
}

/// Telemetry travelling site → collector: a metrics snapshot of the
/// site's process-wide registry, sent only when the hello negotiated
/// [`FEATURE_METRICS_PUSH`]. Delivery is last-write-wins, not
/// exactly-once — the collector keeps the newest snapshot per site
/// (guarded by `seq` so a reordered retry cannot replace a newer one)
/// and never merges telemetry, so the snapshot dedup machinery does
/// not apply. Acked with [`SnapshotAck`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsPush {
    /// Must match the connection's [`Hello::site_id`].
    pub site_id: u64,
    /// Site-scoped telemetry sequence (independent of the snapshot
    /// sequence); the collector stores a push only if `seq` is at or
    /// above the last stored one.
    pub seq: u64,
    /// The telemetry itself, decoded inline (its layout is versioned by
    /// the same `WIRE_VERSION` as the enclosing frame).
    pub snapshot: MetricsSnapshot,
}

impl WireCodec for MetricsPush {
    const WIRE_TAG: u16 = TAG_METRICS_PUSH;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.site_id.encode_into(out);
        self.seq.encode_into(out);
        self.snapshot.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(MetricsPush {
            site_id: r.u64()?,
            seq: r.u64()?,
            snapshot: MetricsSnapshot::decode(r)?,
        })
    }
}

/// Collector verdict on one [`SnapshotPush`] or [`SnapshotDeltaPush`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckStatus {
    /// Decoded, validated and folded into the collector view.
    Accepted,
    /// Sequence already accepted (retry after a lost ack) — the
    /// collector state is unchanged; the site should move on.
    Duplicate,
    /// Corrupt or incompatible — counted under a typed reason and never
    /// merged. Re-sending the same bytes cannot succeed.
    Rejected,
    /// A delta push named a base the collector does not hold (its
    /// retained sequence moved, or it restarted). Not terminal for the
    /// *snapshot*: the site re-sends it as a full push with the same
    /// sequence number.
    RejectedUnknownBase,
}

impl AckStatus {
    fn to_u8(self) -> u8 {
        match self {
            AckStatus::Accepted => 0,
            AckStatus::Duplicate => 1,
            AckStatus::Rejected => 2,
            AckStatus::RejectedUnknownBase => 3,
        }
    }

    fn from_u8(b: u8) -> Result<Self, CodecError> {
        match b {
            0 => Ok(AckStatus::Accepted),
            1 => Ok(AckStatus::Duplicate),
            2 => Ok(AckStatus::Rejected),
            3 => Ok(AckStatus::RejectedUnknownBase),
            _ => Err(CodecError::Invalid {
                what: "AckStatus byte not 0/1/2/3",
            }),
        }
    }
}

/// Sequence number used in a [`SnapshotAck`] answering a frame whose
/// payload could not be decoded (the real sequence is unknowable).
pub const SEQ_UNKNOWN: u64 = u64::MAX;

/// The collector's answer to a [`SnapshotPush`] — sent for rejected
/// frames too (with [`SEQ_UNKNOWN`] when the payload was undecodable),
/// so the site is never left waiting on a corrupt frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotAck {
    /// Sequence being acknowledged ([`SEQ_UNKNOWN`] if undecodable).
    pub seq: u64,
    /// The verdict.
    pub status: AckStatus,
    /// Rejection reason (empty otherwise).
    pub reason: String,
}

impl WireCodec for SnapshotAck {
    const WIRE_TAG: u16 = TAG_SNAPSHOT_ACK;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.seq.encode_into(out);
        out.push(self.status.to_u8());
        self.reason.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(SnapshotAck {
            seq: r.u64()?,
            status: AckStatus::from_u8(r.u8()?)?,
            reason: String::decode(r)?,
        })
    }
}

/// Encode a [`SnapshotPush`] frame directly from a borrowed snapshot
/// buffer — byte-identical to building the owned struct and calling
/// `encode_framed()`, without the extra copy of the (multi-MiB for a
/// full monitor) snapshot into the struct first. The frame is allocated
/// at its final size.
pub fn encode_push_frame(site_id: u64, seq: u64, snapshot: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + 24 + snapshot.len());
    put_frame(&mut out, TAG_SNAPSHOT_PUSH, |out| {
        put_push(out, site_id, seq, snapshot)
    });
    out
}

/// A [`SnapshotPush`] payload: `site_id ‖ seq ‖ u64 len ‖ snapshot`.
fn put_push(out: &mut Vec<u8>, site_id: u64, seq: u64, snapshot: &[u8]) {
    site_id.encode_into(out);
    seq.encode_into(out);
    put_len(out, snapshot.len());
    out.extend_from_slice(snapshot);
}

/// Graceful close: the site is done pushing; the collector marks the
/// connection cleanly closed and keeps the site's accepted snapshots.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Goodbye {
    /// Must match the connection's [`Hello::site_id`].
    pub site_id: u64,
}

impl WireCodec for Goodbye {
    const WIRE_TAG: u16 = TAG_GOODBYE;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.site_id.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok(Goodbye { site_id: r.u64()? })
    }
}

/// Write one already-framed buffer to the stream and flush it.
pub fn write_frame(w: &mut impl Write, frame: &[u8]) -> io::Result<()> {
    w.write_all(frame)?;
    w.flush()
}

/// What [`read_frame_inner`] saw on the stream.
pub(crate) enum FrameRead {
    /// A complete frame: validated header plus the full frame bytes
    /// (header included), ready for `decode_framed`.
    Frame(FrameHeader, Vec<u8>),
    /// Clean EOF exactly at a frame boundary.
    Closed,
}

/// Fill `buf` from `r`. The `stop` flag and `deadline` are checked on
/// **every** loop iteration — not just on `WouldBlock` poll ticks — so
/// neither a shutdown nor a timeout can be postponed indefinitely by a
/// peer stalling mid-frame or trickling one byte per read. Returns the
/// number of bytes filled before EOF (shorter than `buf` only on EOF).
fn read_full_poll(
    r: &mut impl Read,
    buf: &mut [u8],
    stop: Option<&AtomicBool>,
    deadline: Option<Instant>,
) -> Result<usize, TransportError> {
    let mut filled = 0usize;
    while filled < buf.len() {
        if let Some(stop) = stop {
            // A stop request aborts even a partially read frame: the
            // server is going away, so finishing the frame would only
            // delay shutdown (the site re-pushes after reconnecting).
            if stop.load(Ordering::Relaxed) {
                return Err(TransportError::Shutdown);
            }
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Err(TransportError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "deadline exceeded waiting for a frame",
                )));
            }
        }
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // With neither a stop flag nor a deadline there is no
                // poll loop to return to: the caller is relying on the
                // socket's own read timeout, so let it surface instead
                // of spinning forever (the `SiteClient` ack wait).
                if stop.is_none() && deadline.is_none() {
                    return Err(TransportError::Io(e));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(TransportError::Io(e)),
        }
    }
    Ok(filled)
}

/// Read one frame off the stream: fixed-size header first (magic and
/// format version validated by [`parse_frame_header`] before anything
/// else), then exactly `payload_len` payload bytes, with `payload_len`
/// capped at `max_payload` so a corrupt length cannot OOM the receiver.
///
/// EOF at a frame boundary is [`FrameRead::Closed`]; EOF mid-frame is a
/// typed [`CodecError::Truncated`]. `stop`/`deadline` make the read
/// interruptible for server-side poll loops.
pub(crate) fn read_frame_inner(
    r: &mut impl Read,
    max_payload: usize,
    stop: Option<&AtomicBool>,
    deadline: Option<Instant>,
) -> Result<FrameRead, TransportError> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    let got = read_full_poll(r, &mut header, stop, deadline)?;
    if got == 0 {
        return Ok(FrameRead::Closed);
    }
    if got < FRAME_HEADER_BYTES {
        return Err(TransportError::Codec(CodecError::Truncated {
            needed: FRAME_HEADER_BYTES,
            available: got,
        }));
    }
    let fh = parse_frame_header(&header)?;
    if fh.payload_len > max_payload {
        return Err(TransportError::Oversize {
            payload_len: fh.payload_len,
            cap: max_payload,
        });
    }
    let mut frame = vec![0u8; FRAME_HEADER_BYTES + fh.payload_len];
    frame[..FRAME_HEADER_BYTES].copy_from_slice(&header);
    let got = read_full_poll(r, &mut frame[FRAME_HEADER_BYTES..], stop, deadline)?;
    if got < fh.payload_len {
        return Err(TransportError::Codec(CodecError::Truncated {
            needed: fh.payload_len,
            available: got,
        }));
    }
    Ok(FrameRead::Frame(fh, frame))
}

/// Blocking single-frame read (public for tests and hand-rolled peers):
/// returns the validated header and the complete frame bytes. Honors
/// the stream's own read timeout — a timeout surfaces as
/// [`TransportError::Io`]; a clean close as [`TransportError::Closed`].
pub fn read_frame(
    r: &mut impl Read,
    max_payload: usize,
) -> Result<(FrameHeader, Vec<u8>), TransportError> {
    match read_frame_inner(r, max_payload, None, None)? {
        FrameRead::Frame(fh, bytes) => Ok((fh, bytes)),
        FrameRead::Closed => Err(TransportError::Closed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_roundtrip_framed() {
        let hello = Hello {
            proto_version: TRANSPORT_PROTO_VERSION,
            site_id: 9,
            site_name: "edge-router-9".to_string(),
            features: SUPPORTED_FEATURES,
        };
        assert_eq!(Hello::decode_framed(&hello.encode_framed()).unwrap(), hello);

        let ack = HelloAck {
            accepted: false,
            proto_version: TRANSPORT_PROTO_VERSION,
            resume_seq: 17,
            reason: "speak v1".to_string(),
            features: FEATURE_DELTA_PUSH,
        };
        assert_eq!(HelloAck::decode_framed(&ack.encode_framed()).unwrap(), ack);

        let push = SnapshotPush {
            site_id: 9,
            seq: 3,
            snapshot: vec![1, 2, 3, 4, 5],
        };
        assert_eq!(
            SnapshotPush::decode_framed(&push.encode_framed()).unwrap(),
            push
        );

        let dpush = SnapshotDeltaPush {
            site_id: 9,
            seq: 4,
            base_seq: 3,
            delta: vec![7, 7, 7],
        };
        assert_eq!(
            SnapshotDeltaPush::decode_framed(&dpush.encode_framed()).unwrap(),
            dpush
        );

        let sack = SnapshotAck {
            seq: 3,
            status: AckStatus::Rejected,
            reason: "checksum".to_string(),
        };
        assert_eq!(
            SnapshotAck::decode_framed(&sack.encode_framed()).unwrap(),
            sack
        );
        let sack = SnapshotAck {
            seq: 4,
            status: AckStatus::RejectedUnknownBase,
            reason: "base moved".to_string(),
        };
        assert_eq!(
            SnapshotAck::decode_framed(&sack.encode_framed()).unwrap(),
            sack
        );

        let bye = Goodbye { site_id: 9 };
        assert_eq!(Goodbye::decode_framed(&bye.encode_framed()).unwrap(), bye);
    }

    #[test]
    fn v1_hello_decodes_with_no_features() {
        // A wire-v1 peer's hello has no feature mask: hand-build the v1
        // frame and check it decodes as "no optional features".
        let mut payload = Vec::new();
        TRANSPORT_PROTO_VERSION.encode_into(&mut payload);
        5u64.encode_into(&mut payload);
        "old-site".to_string().encode_into(&mut payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&sss_codec::WIRE_MAGIC);
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&TAG_HELLO.to_le_bytes());
        put_len(&mut frame, payload.len());
        frame.extend_from_slice(&sss_codec::fnv1a64(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        let hello = Hello::decode_framed(&frame).unwrap();
        assert_eq!(hello.site_id, 5);
        assert_eq!(hello.features, 0);
    }

    #[test]
    fn borrowed_push_encoder_matches_owned_struct_bytes() {
        let snapshot = vec![9u8; 777];
        let owned = SnapshotPush {
            site_id: 3,
            seq: 12,
            snapshot: snapshot.clone(),
        }
        .encode_framed();
        assert_eq!(encode_push_frame(3, 12, &snapshot), owned);
    }

    #[test]
    fn frames_self_delimit_on_a_stream() {
        // Two frames back to back on one buffer: read_frame must stop
        // exactly at the boundary.
        let a = Hello {
            proto_version: 1,
            site_id: 1,
            site_name: "a".into(),
            features: 0,
        }
        .encode_framed();
        let b = Goodbye { site_id: 1 }.encode_framed();
        let mut stream: Vec<u8> = Vec::new();
        stream.extend_from_slice(&a);
        stream.extend_from_slice(&b);
        let mut cursor = io::Cursor::new(stream);
        let (fh, bytes) = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(fh.tag, TAG_HELLO);
        assert_eq!(bytes, a);
        let (fh, bytes) = read_frame(&mut cursor, 1 << 20).unwrap();
        assert_eq!(fh.tag, TAG_GOODBYE);
        assert_eq!(bytes, b);
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(TransportError::Closed)
        ));
    }

    #[test]
    fn oversize_and_truncation_are_typed() {
        let push = SnapshotPush {
            site_id: 1,
            seq: 0,
            snapshot: vec![0u8; 256],
        };
        let frame = push.encode_framed();
        // Payload cap below the frame's payload size.
        let mut cursor = io::Cursor::new(frame.clone());
        assert!(matches!(
            read_frame(&mut cursor, 16),
            Err(TransportError::Oversize { .. })
        ));
        // EOF mid-payload.
        let mut cursor = io::Cursor::new(frame[..frame.len() - 5].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(TransportError::Codec(CodecError::Truncated { .. }))
        ));
        // EOF mid-header.
        let mut cursor = io::Cursor::new(frame[..10].to_vec());
        assert!(matches!(
            read_frame(&mut cursor, 1 << 20),
            Err(TransportError::Codec(CodecError::Truncated { .. }))
        ));
    }
}
