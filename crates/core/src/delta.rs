//! Delta checkpoints: a generic framed byte-level diff between two
//! snapshots.
//!
//! The transport ships *cumulative* `Monitor::checkpoint` frames on
//! every push, and between two consecutive pushes only a small fraction
//! of the state churns — most packed counter sections are byte-for-byte
//! identical runs, merely shifted by a few varint-length changes. A
//! [`SnapshotDelta`] captures the new snapshot as a sequence of
//! **chunk-copy** (range of the base snapshot) and **chunk-literal**
//! (raw bytes) opcodes, found with an rsync-style rolling-hash match so
//! shifted-but-unchanged runs are still recognised. Working at the byte
//! level keeps the diff *generic*: it needs no per-estimator logic and
//! keeps working unchanged when estimator layouts evolve.
//!
//! Safety rails:
//!
//! * the delta records the **length and FNV-1a checksum of the base**
//!   it was computed against; applying it to any other base is a typed
//!   [`CodecError::BadBase`], never a silently corrupt snapshot;
//! * it also records the length and checksum of the **target**, so a
//!   bug (or corruption that slipped the frame checksum) in
//!   reconstruction surfaces as [`CodecError::ChecksumMismatch`] — a
//!   nested checksum under the frame's own envelope checksum;
//! * copy ranges are validated against the recorded base length at
//!   decode time, and the recorded target length is bounded by a
//!   reconstruction cap ([`MAX_TARGET_DEFAULT`], or the receiver's own
//!   limit via [`SnapshotDelta::apply_with_limit`]) *before* any byte
//!   is emitted — copy opcodes amplify, so capping up front is what
//!   keeps a corrupt delta from OOMing the receiver.
//!
//! The reconstructed bytes are a complete framed `Monitor::checkpoint`
//! buffer — `Monitor::restore` then re-validates them like any other
//! snapshot.

use sss_codec::{
    fnv1a64, put_varint_i64, put_varint_u64, CodecError, Reader, WireCodec, FRAME_HEADER_BYTES,
};
use sss_hash::FpHashMap;
use sss_obs::MetricId;

/// Matching granularity of the rolling-hash scan: windows of this many
/// bytes are candidates for chunk-copy opcodes (extended byte-by-byte
/// in both directions once anchored). Smaller blocks find more of the
/// unchanged tail between interleaved counter edits at the price of
/// more opcodes.
const BLOCK: usize = 16;

/// Default ceiling on the size [`SnapshotDelta::apply`] will
/// reconstruct (256 MiB — 4× the transport's default frame cap). Copy
/// opcodes amplify, so the recorded target length must be bounded
/// *before* reconstruction starts; callers with a tighter budget pass
/// it to [`SnapshotDelta::apply_with_limit`].
pub const MAX_TARGET_DEFAULT: usize = 256 << 20;

/// One reconstruction opcode.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DeltaOp {
    /// Copy `len` bytes starting at `offset` of the base snapshot.
    Copy { offset: u64, len: u64 },
    /// Append these bytes verbatim.
    Literal(Vec<u8>),
}

/// A framed byte-level diff that rebuilds a target snapshot from a base
/// snapshot ([`snapshot_delta`] / [`apply_snapshot_delta`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotDelta {
    base_len: u64,
    base_checksum: u64,
    target_len: u64,
    target_checksum: u64,
    ops: Vec<DeltaOp>,
    /// Size of the frame this delta was decoded from (0 when computed
    /// in-process) — what an apply adds to `sss_codec_delta_bytes_total`.
    frame_len: u64,
}

impl SnapshotDelta {
    /// Compute the diff that rebuilds `target` from `base`.
    ///
    /// Worst case (nothing matches) the op stream is `target` plus a
    /// few header bytes — a delta push can never be meaningfully larger
    /// than the full push it replaces.
    pub fn compute(base: &[u8], target: &[u8]) -> SnapshotDelta {
        SnapshotDelta {
            base_len: base.len() as u64,
            base_checksum: fnv1a64(base),
            target_len: target.len() as u64,
            target_checksum: fnv1a64(target),
            ops: diff_ops(base, target),
            frame_len: 0,
        }
    }

    /// Length of the base snapshot this delta was computed against.
    pub fn base_len(&self) -> usize {
        self.base_len as usize
    }

    /// Length of the snapshot [`SnapshotDelta::apply`] reconstructs —
    /// what a receiver checks against its payload cap *before* paying
    /// for the reconstruction.
    pub fn target_len(&self) -> usize {
        self.target_len as usize
    }

    /// Rebuild the target snapshot from `base`, refusing
    /// reconstructions above [`MAX_TARGET_DEFAULT`] (copy opcodes
    /// amplify — a few bytes of delta can emit a whole base's worth of
    /// output — so without a ceiling a corrupt `target_len` could
    /// drive an arbitrarily large allocation before the final checks
    /// reject it). Receivers with a configured payload cap should pass
    /// it to [`SnapshotDelta::apply_with_limit`] instead, as the
    /// transport collector does.
    ///
    /// # Errors
    /// [`CodecError::BadBase`] if `base` is not the snapshot this delta
    /// was computed against (length or checksum disagree);
    /// [`CodecError::Invalid`] if an opcode escapes the base or target
    /// bounds, or the recorded target length exceeds the cap;
    /// [`CodecError::ChecksumMismatch`] if the reconstruction does not
    /// hash to the recorded target checksum.
    pub fn apply(&self, base: &[u8]) -> Result<Vec<u8>, CodecError> {
        self.apply_with_limit(base, MAX_TARGET_DEFAULT)
    }

    /// [`SnapshotDelta::apply`] with an explicit ceiling on the
    /// reconstructed size — checked before a single byte is emitted, so
    /// `max_target` bounds the allocation a corrupt or hostile delta
    /// can cause.
    pub fn apply_with_limit(&self, base: &[u8], max_target: usize) -> Result<Vec<u8>, CodecError> {
        if self.target_len > max_target as u64 {
            return Err(CodecError::Invalid {
                what: "delta target length exceeds the reconstruction cap",
            });
        }
        let found = fnv1a64(base);
        if base.len() as u64 != self.base_len || found != self.base_checksum {
            return Err(CodecError::BadBase {
                expected: self.base_checksum,
                found,
            });
        }
        let target_len = self.target_len as usize;
        let mut out = Vec::with_capacity(target_len.min(base.len().saturating_mul(2).max(1 << 16)));
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    let (offset, len) = (*offset as usize, *len as usize);
                    let end = offset.checked_add(len).ok_or(CodecError::Invalid {
                        what: "delta copy range overflows",
                    })?;
                    let chunk = base.get(offset..end).ok_or(CodecError::Invalid {
                        what: "delta copy range escapes the base snapshot",
                    })?;
                    if out.len() + len > target_len {
                        return Err(CodecError::Invalid {
                            what: "delta reconstruction exceeds its recorded length",
                        });
                    }
                    out.extend_from_slice(chunk);
                }
                DeltaOp::Literal(bytes) => {
                    if out.len() + bytes.len() > target_len {
                        return Err(CodecError::Invalid {
                            what: "delta reconstruction exceeds its recorded length",
                        });
                    }
                    out.extend_from_slice(bytes);
                }
            }
        }
        if out.len() != target_len {
            return Err(CodecError::Invalid {
                what: "delta reconstruction shorter than its recorded length",
            });
        }
        let found = fnv1a64(&out);
        if found != self.target_checksum {
            return Err(CodecError::ChecksumMismatch {
                expected: self.target_checksum,
                found,
            });
        }
        sss_obs::global().add(MetricId::CodecDeltaBytesTotal, self.frame_len);
        Ok(out)
    }

    /// Number of copy/literal ops in the op stream (diagnostics).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }
}

impl WireCodec for SnapshotDelta {
    const WIRE_TAG: u16 = 0x040F;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.base_len.encode_into(out);
        self.base_checksum.encode_into(out);
        self.target_len.encode_into(out);
        self.target_checksum.encode_into(out);
        put_varint_u64(out, self.ops.len() as u64);
        // Copy offsets are encoded relative to the position the
        // previous copy ended at: consecutive aligned copies (the
        // common case) cost one byte of offset.
        let mut expected: u64 = 0;
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    out.push(0);
                    put_varint_i64(out, offset.wrapping_sub(expected) as i64);
                    put_varint_u64(out, *len);
                    expected = offset + len;
                }
                DeltaOp::Literal(bytes) => {
                    out.push(1);
                    put_varint_u64(out, bytes.len() as u64);
                    out.extend_from_slice(bytes);
                }
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let payload_start = r.remaining();
        let base_len = r.u64()?;
        let base_checksum = r.u64()?;
        let target_len = r.u64()?;
        let target_checksum = r.u64()?;
        let count = r.varint_len(2)?;
        let mut ops = Vec::with_capacity(count);
        let mut expected: u64 = 0;
        for _ in 0..count {
            match r.u8()? {
                0 => {
                    let rel = r.varint_i64()?;
                    let offset = expected
                        .checked_add_signed(rel)
                        .ok_or(CodecError::Invalid {
                            what: "delta copy offset underflows",
                        })?;
                    let len = r.varint_u64()?;
                    let end = offset.checked_add(len).ok_or(CodecError::Invalid {
                        what: "delta copy range overflows",
                    })?;
                    if end > base_len {
                        return Err(CodecError::Invalid {
                            what: "delta copy range escapes the base snapshot",
                        });
                    }
                    expected = end;
                    ops.push(DeltaOp::Copy { offset, len });
                }
                1 => {
                    let len = r.varint_len(1)?;
                    ops.push(DeltaOp::Literal(r.take(len)?.to_vec()));
                }
                _ => {
                    return Err(CodecError::Invalid {
                        what: "delta opcode byte not 0/1",
                    })
                }
            }
        }
        Ok(SnapshotDelta {
            base_len,
            base_checksum,
            target_len,
            target_checksum,
            ops,
            frame_len: (FRAME_HEADER_BYTES + payload_start - r.remaining()) as u64,
        })
    }
}

/// Compute the framed delta that rebuilds `target` from `base` — usable
/// on any pair of snapshot buffers (the transport diffs the framed
/// checkpoint bytes it retains without decoding them). The frame's size
/// is added to `sss_codec_delta_bytes_total`.
pub fn snapshot_delta(base: &[u8], target: &[u8]) -> Vec<u8> {
    let frame = SnapshotDelta::compute(base, target).encode_framed();
    sss_obs::global().add(MetricId::CodecDeltaBytesTotal, frame.len() as u64);
    frame
}

/// Decode a framed delta and rebuild the target snapshot from `base`
/// (see [`SnapshotDelta::apply`] for the error contract). Feed the result
/// to `Monitor::restore`.
pub fn apply_snapshot_delta(base: &[u8], delta_frame: &[u8]) -> Result<Vec<u8>, CodecError> {
    SnapshotDelta::decode_framed(delta_frame)?.apply(base)
}

/// Greedy rolling-hash diff (rsync style): the base is indexed by the
/// hash of every *aligned* [`BLOCK`]-byte window; the target is scanned
/// with a rolling window at every byte offset, so runs that merely
/// shifted (a varint grew upstream) still match. Anchored matches are
/// verified byte-for-byte (hash collisions cannot corrupt the delta)
/// and extended in both directions before being emitted.
fn diff_ops(base: &[u8], target: &[u8]) -> Vec<DeltaOp> {
    let mut ops = Vec::new();
    if target.is_empty() {
        return ops;
    }
    if base.len() < BLOCK || target.len() < BLOCK {
        ops.push(DeltaOp::Literal(target.to_vec()));
        return ops;
    }

    // Index the aligned base blocks. First writer wins; runs of equal
    // blocks (zeroed regions) all extend from one anchor anyway.
    let mut index: FpHashMap<u64, u32> =
        FpHashMap::with_capacity_and_hasher(base.len() / BLOCK + 1, Default::default());
    for (b, chunk) in base.chunks_exact(BLOCK).enumerate() {
        index.entry(roll_init(chunk)).or_insert((b * BLOCK) as u32);
    }

    let flush_literal = |ops: &mut Vec<DeltaOp>, bytes: &[u8]| {
        if !bytes.is_empty() {
            ops.push(DeltaOp::Literal(bytes.to_vec()));
        }
    };

    let mut i = 0usize; // scan position (window start)
    let mut lit_start = 0usize; // first byte not yet emitted
    let mut hash = roll_init(&target[..BLOCK]);
    loop {
        let mut matched = false;
        if let Some(&off) = index.get(&hash) {
            let off = off as usize;
            if base[off..off + BLOCK] == target[i..i + BLOCK] {
                // Anchored: extend backward into the pending literal,
                // then forward as far as the buffers agree.
                let mut m_off = off;
                let mut m_start = i;
                while m_off > 0 && m_start > lit_start && base[m_off - 1] == target[m_start - 1] {
                    m_off -= 1;
                    m_start -= 1;
                }
                let mut len = (i + BLOCK) - m_start;
                while m_off + len < base.len()
                    && m_start + len < target.len()
                    && base[m_off + len] == target[m_start + len]
                {
                    len += 1;
                }
                flush_literal(&mut ops, &target[lit_start..m_start]);
                ops.push(DeltaOp::Copy {
                    offset: m_off as u64,
                    len: len as u64,
                });
                i = m_start + len;
                lit_start = i;
                matched = true;
            }
        }
        if matched {
            if i + BLOCK > target.len() {
                break;
            }
            hash = roll_init(&target[i..i + BLOCK]);
        } else {
            if i + BLOCK >= target.len() {
                break;
            }
            hash = roll_step(hash, target[i], target[i + BLOCK]);
            i += 1;
        }
    }
    flush_literal(&mut ops, &target[lit_start..]);
    ops
}

/// Rabin–Karp polynomial rolling hash over a [`BLOCK`]-byte window.
const ROLL_MUL: u64 = 0x0000_0100_0000_01B3; // FNV prime: odd, well mixed

/// `ROLL_MUL^(BLOCK-1)`, the weight of the outgoing byte.
const ROLL_POW: u64 = {
    let mut acc = 1u64;
    let mut i = 0;
    while i < BLOCK - 1 {
        acc = acc.wrapping_mul(ROLL_MUL);
        i += 1;
    }
    acc
};

#[inline]
fn roll_init(window: &[u8]) -> u64 {
    let mut h = 0u64;
    for &b in window {
        h = h.wrapping_mul(ROLL_MUL).wrapping_add(b as u64 + 1);
    }
    h
}

#[inline]
fn roll_step(hash: u64, out: u8, inc: u8) -> u64 {
    hash.wrapping_sub((out as u64 + 1).wrapping_mul(ROLL_POW))
        .wrapping_mul(ROLL_MUL)
        .wrapping_add(inc as u64 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(base: &[u8], target: &[u8]) -> (usize, Vec<u8>) {
        let frame = snapshot_delta(base, target);
        let rebuilt = apply_snapshot_delta(base, &frame).expect("apply");
        assert_eq!(rebuilt, target);
        (frame.len(), frame)
    }

    #[test]
    fn identical_buffers_collapse_to_one_copy() {
        let data: Vec<u8> = (0..10_000u32).flat_map(|x| x.to_le_bytes()).collect();
        let (delta_len, frame) = roundtrip(&data, &data);
        assert!(delta_len < 128, "identity delta took {delta_len} bytes");
        let d = SnapshotDelta::decode_framed(&frame).unwrap();
        assert_eq!(d.op_count(), 1);
    }

    #[test]
    fn shifted_content_still_matches() {
        // Insert bytes near the front: everything after the insertion
        // is shifted, and the rolling scan must still find it.
        let base: Vec<u8> = (0..50_000u64).map(|i| (i * 7 % 251) as u8).collect();
        let mut target = base.clone();
        target.splice(100..100, [9u8, 9, 9].iter().copied());
        let (delta_len, _) = roundtrip(&base, &target);
        assert!(
            delta_len < 256,
            "a 3-byte insertion cost {delta_len} delta bytes"
        );
    }

    #[test]
    fn sparse_edits_cost_proportionally() {
        let base: Vec<u8> = (0..100_000u64).map(|i| (i % 241) as u8).collect();
        let mut target = base.clone();
        for i in (0..target.len()).step_by(5_000) {
            target[i] ^= 0xA5;
        }
        let (delta_len, _) = roundtrip(&base, &target);
        assert!(
            delta_len < base.len() / 10,
            "20 point edits cost {delta_len} of {} bytes",
            base.len()
        );
    }

    #[test]
    fn disjoint_content_degenerates_to_one_literal() {
        let base = vec![0u8; 4096];
        let target: Vec<u8> = (0..4096u64).map(|i| (i % 253) as u8 + 1).collect();
        let (delta_len, _) = roundtrip(&base, &target);
        assert!(delta_len < target.len() + 128);
    }

    #[test]
    fn tiny_and_empty_buffers() {
        roundtrip(&[], &[]);
        roundtrip(&[], &[1, 2, 3]);
        roundtrip(&[1, 2, 3], &[]);
        roundtrip(&[1, 2, 3], &[4, 5]);
        roundtrip(&(0..255u8).collect::<Vec<_>>(), &[7; 40]);
    }

    #[test]
    fn delta_frame_is_pinned_for_a_fixed_pair() {
        // A pseudo-random base with zeroed runs (equal aligned blocks, so
        // the first-writer-wins index rule shows) and a target with an
        // insertion, point edits, a tail block copied to the front and a
        // cut end. The op stream, and so every frame byte, follows from
        // the diff's rules alone, never from the block index's hasher:
        // the pin was taken while the index was still a SipHash map.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut base: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (state >> 56) as u8
            })
            .collect();
        base[4_096..6_144].fill(0);
        base[12_000..13_000].fill(0);
        let mut target = base.clone();
        target.splice(300..300, [1u8, 2, 3, 4, 5]);
        for i in (1_000..target.len()).step_by(1_777) {
            target[i] ^= 0x5A;
        }
        let tail = target[18_000..18_512].to_vec();
        target.splice(0..0, tail);
        target.truncate(19_500);

        let frame = snapshot_delta(&base, &target);
        assert_eq!(apply_snapshot_delta(&base, &frame).unwrap(), target);
        assert_eq!(
            (frame.len(), fnv1a64(&frame)),
            (163, 0x5D05_5291_884B_7EC9),
            "the delta frame bytes moved"
        );
    }

    #[test]
    fn wrong_base_is_a_typed_bad_base() {
        let base: Vec<u8> = (0..4096u64).map(|i| (i % 255) as u8).collect();
        let target: Vec<u8> = base.iter().map(|b| b ^ 1).collect();
        let frame = snapshot_delta(&base, &target);
        // Same length, different bytes.
        let mut wrong = base.clone();
        wrong[17] ^= 0xFF;
        assert!(matches!(
            apply_snapshot_delta(&wrong, &frame),
            Err(CodecError::BadBase { .. })
        ));
        // Different length entirely.
        assert!(matches!(
            apply_snapshot_delta(&base[..100], &frame),
            Err(CodecError::BadBase { .. })
        ));
        // The right base still applies.
        assert_eq!(apply_snapshot_delta(&base, &frame).unwrap(), target);
    }

    #[test]
    fn amplified_target_length_is_capped_before_reconstruction() {
        // A hostile frame can claim an enormous target and fund it with
        // cheap copy opcodes; the cap must reject it before any of that
        // output is materialised.
        let base: Vec<u8> = (0..65_536u64).map(|i| (i % 251) as u8).collect();
        let honest = SnapshotDelta::compute(&base, &base);
        let mut hostile = honest.clone();
        hostile.target_len = 1u64 << 50;
        hostile.ops = (0..1_000)
            .map(|_| DeltaOp::Copy {
                offset: 0,
                len: base.len() as u64,
            })
            .collect();
        assert!(matches!(
            hostile.apply(&base),
            Err(CodecError::Invalid {
                what: "delta target length exceeds the reconstruction cap"
            })
        ));
        // Tighter caller-supplied limits apply to honest deltas too.
        assert!(honest.apply_with_limit(&base, base.len() - 1).is_err());
        assert_eq!(honest.apply_with_limit(&base, base.len()).unwrap(), base);
    }

    #[test]
    fn corrupt_delta_frames_are_typed_errors() {
        let base: Vec<u8> = (0..8192u64).map(|i| (i % 250) as u8).collect();
        let mut target = base.clone();
        target[4000] ^= 0x40;
        let frame = snapshot_delta(&base, &target);
        for cut in 0..frame.len() {
            assert!(
                apply_snapshot_delta(&base, &frame[..cut]).is_err(),
                "cut at {cut} applied"
            );
        }
        for i in 0..frame.len() {
            let mut b = frame.clone();
            b[i] ^= 0xFF;
            assert!(
                apply_snapshot_delta(&base, &b).is_err(),
                "flip at {i} applied"
            );
        }
    }
}
