//! A dependency-free versioned binary wire codec for the workspace.
//!
//! Everything a monitor deployment ships across a process boundary —
//! sketch snapshots mailed from remote shards to a collector, monitor
//! checkpoints written before a restart — travels through the
//! [`WireCodec`] trait defined here. `f64`s travel as IEEE-754 bit
//! patterns in every version, so round-trips are bitwise exact
//! including negative zero and NaN payloads.
//!
//! The contract every implementation upholds (and the workspace test
//! battery pins): `decode(encode(x))` is *observationally identical* to
//! `x` — bitwise-equal estimates, equal `space_bytes`, and continued
//! ingestion after a restore matches the never-serialized run exactly —
//! and corrupt or mismatched buffers surface as typed [`CodecError`]s,
//! never panics or unbounded allocations.
//!
//! ## Layouts
//!
//! This module alone decides how each format version lays out a count,
//! a column, a keyed table, a section or a frame, so a type's codec is a
//! plain list of fields. Version 1 writes fixed-width little-endian
//! integers and `u64` lengths; version 2 packs integers. Readers take
//! the version their [`Reader`] carries; writers write version 2.
//!
//! | layout | reader | writer | v2 | v1 |
//! |---|---|---|---|---|
//! | count, dimension | [`Reader::count_u64`], [`Reader::count_usize`] | [`put_varint_u64`] | canonical LEB128 varint | `u64` |
//! | `u64` / `i64` column | [`Reader::u64_column`], [`Reader::i64_column`] | [`put_packed_u64s`], [`put_packed_i64s`] | `varint len ‖ varint min ‖ u8 width ‖ bit-packed offsets` (`i64` zigzagged first) | `u64 len ‖ values` |
//! | ascending `u64` set | [`Reader::ascending_u64s`] | [`put_packed_sorted_u64s`] | `varint len ‖ varint first ‖ varint gaps ≥ 1` | `u64 len ‖ values` in any order |
//! | keyed table | [`Reader::keyed_u64s`], [`Reader::keyed_f64s`], [`Reader::keyed_table`] | [`put_keyed_u64s`], [`put_keyed_f64s`] | keys as a set, then `varint len ‖ varint values` or one `f64` per key | `u64 len ‖ (u64 key, value)` rows in any order |
//! | section | [`Reader::section`] | [`put_section`] | `u64 len ‖ payload` on the parent's version | same |
//! | frame | [`WireCodec::decode_framed`] | [`put_frame`] | `magic ‖ version ‖ tag ‖ u64 len ‖ fnv1a64 ‖ payload` | same |
//!
//! Sets and tables decode strictly ascending: v1 rows are sorted, and a
//! repeated key or a value column of another length is
//! [`CodecError::Invalid`]. A v1 length is checked against its rows'
//! fixed width before anything is allocated. Varints are canonical
//! (overlong and above-64-bit encodings are rejected). Key gaps and map
//! values stay byte-aligned varints so an insertion shifts later bytes
//! by whole bytes, which the byte-level delta checkpoints still match.
//!
//! ## Versioning policy
//!
//! [`WIRE_VERSION`] covers the whole format: any layout change to any
//! implementor bumps it. Decoders accept every version in
//! `[`[`WIRE_VERSION_MIN`]`, `[`WIRE_VERSION`]`]` — the frame header's
//! version byte routes each payload to the matching layout (the
//! [`Reader`] carries it, so nested sections decode under the frame's
//! version) — and reject anything else with
//! [`CodecError::UnsupportedVersion`] (no silent misparses). Encoders
//! always write the current version. Per-type evolution *within* a
//! version happens by assigning a **new tag** to the new layout and
//! keeping the old tag decodable for a deprecation window. Tags are
//! allocated in per-crate ranges: `0x01xx` = `sss-hash`, `0x02xx` =
//! `sss-sketch`, `0x03xx` = `sss-stream`, `0x04xx` = `sss-core`,
//! `0x05xx` = `sss-transport`, `0x06xx` = `sss-window` (bucket ring,
//! query registry, alerts), `0x07xx` = `sss-obs`
//! (metrics snapshots).
//!
//! The never-panic / bounded-allocation contract and the tag ranges are
//! machine-enforced by `sss-lint` (see "Invariants & static analysis"
//! in `crates/core/src/README.md`).

#![forbid(unsafe_code)]

use std::fmt;

/// The 4-byte magic prefix of every framed wire object.
pub const WIRE_MAGIC: [u8; 4] = *b"SSWC";

/// The format version written by this build.
pub const WIRE_VERSION: u16 = 2;

/// The oldest format version this build still decodes. The committed
/// `tests/fixtures/wire_v1/` corpus pins that version-1 frames keep
/// decoding for as long as this stays at 1.
pub const WIRE_VERSION_MIN: u16 = 1;

/// Why a buffer failed to decode. Every variant is a *data* error: the
/// decoder never panics on untrusted bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer ended before the decoder got what it needed.
    Truncated {
        /// Bytes the decoder asked for.
        needed: usize,
        /// Bytes that were left.
        available: usize,
    },
    /// The frame does not start with [`WIRE_MAGIC`].
    BadMagic {
        /// The four bytes found instead.
        found: [u8; 4],
    },
    /// The frame was written by an incompatible format version.
    UnsupportedVersion {
        /// Version found in the frame.
        found: u16,
        /// Version this build speaks.
        supported: u16,
    },
    /// The frame carries a different type than the caller asked for.
    TagMismatch {
        /// The tag the caller expected.
        expected: u16,
        /// The tag found in the frame.
        found: u16,
    },
    /// A polymorphic slot carries a tag this build cannot decode.
    UnknownTag {
        /// The unrecognised tag.
        found: u16,
    },
    /// Bytes remained after the object was fully decoded.
    TrailingBytes {
        /// How many bytes were left over.
        count: usize,
    },
    /// The frame's payload checksum does not match its contents.
    ChecksumMismatch {
        /// Checksum recorded in the frame header.
        expected: u64,
        /// Checksum of the payload actually received.
        found: u64,
    },
    /// A decoded value violates a structural invariant of its type.
    Invalid {
        /// Which invariant was violated.
        what: &'static str,
    },
    /// A snapshot delta was applied to a base snapshot other than the
    /// one it was computed against (length or checksum disagree).
    BadBase {
        /// Checksum of the base the delta was computed against.
        expected: u64,
        /// Checksum of the base it was applied to.
        found: u64,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated buffer: needed {needed} bytes, had {available}"
                )
            }
            CodecError::BadMagic { found } => write!(f, "bad magic {found:02x?}"),
            CodecError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported wire version {found} (this build speaks {supported})"
                )
            }
            CodecError::TagMismatch { expected, found } => {
                write!(
                    f,
                    "type tag mismatch: expected {expected:#06x}, found {found:#06x}"
                )
            }
            CodecError::UnknownTag { found } => write!(f, "unknown type tag {found:#06x}"),
            CodecError::TrailingBytes { count } => {
                write!(f, "{count} trailing bytes after a complete object")
            }
            CodecError::ChecksumMismatch { expected, found } => {
                write!(f, "payload checksum mismatch: header says {expected:#018x}, payload hashes to {found:#018x}")
            }
            CodecError::Invalid { what } => write!(f, "invalid wire data: {what}"),
            CodecError::BadBase { expected, found } => {
                write!(f, "delta applied to the wrong base snapshot: delta was computed against base {expected:#018x}, got {found:#018x}")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// A bounds-checked cursor over an untrusted byte buffer.
///
/// All reads are explicit-width and fail with [`CodecError::Truncated`]
/// instead of panicking; length prefixes are validated against the bytes
/// actually remaining ([`Reader::len_prefix`]) before any allocation, so
/// a corrupted length cannot trigger an OOM.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    version: u16,
}

impl<'a> Reader<'a> {
    /// A reader over the whole buffer, assuming the current
    /// [`WIRE_VERSION`] layout (unframed payloads produced by this
    /// build). Frame-routed decoding goes through
    /// [`Reader::with_version`] so nested sections inherit the frame's
    /// version byte.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_version(buf, WIRE_VERSION)
    }

    /// A reader decoding under an explicit format version (what
    /// [`WireCodec::decode_framed`] uses after validating the header,
    /// and what nested section readers must be constructed with so the
    /// whole tree decodes under the frame's version).
    pub fn with_version(buf: &'a [u8], version: u16) -> Self {
        Self {
            buf,
            pos: 0,
            version,
        }
    }

    /// The format version this reader decodes under.
    #[inline]
    pub fn version(&self) -> u16 {
        self.version
    }

    /// Whether this reader decodes the compact version-2 layouts. The
    /// layout readers below route on it; a codec elsewhere branches on
    /// it only where no shared layout fits its v1 bytes.
    #[inline]
    pub fn v2(&self) -> bool {
        self.version >= 2
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether the buffer is fully consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Take the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        match self.buf.get(self.pos..self.pos.saturating_add(n)) {
            Some(out) => {
                self.pos += n;
                Ok(out)
            }
            None => Err(CodecError::Truncated {
                needed: n,
                available: self.remaining(),
            }),
        }
    }

    /// Take the next `N` bytes as a fixed-size array. The length is
    /// checked once by [`take`](Self::take), so the conversion cannot
    /// fail.
    #[inline]
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    /// Fail with [`CodecError::TrailingBytes`] unless fully consumed.
    pub fn expect_empty(&self) -> Result<(), CodecError> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes {
                count: self.remaining(),
            })
        }
    }

    /// Read one byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(u8::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u128`.
    #[inline]
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `i64`.
    #[inline]
    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(self.u64()? as i64)
    }

    /// Read an `f64` from its IEEE-754 bit pattern (bitwise exact).
    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a `bool` encoded as one byte (strictly 0 or 1).
    #[inline]
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Invalid {
                what: "bool byte not 0/1",
            }),
        }
    }

    /// Read an `f64` and require a Bernoulli sampling rate in `(0, 1]`.
    pub fn rate(&mut self) -> Result<f64, CodecError> {
        let p = self.f64()?;
        if !(p > 0.0 && p <= 1.0) {
            return Err(CodecError::Invalid {
                what: "sampling rate outside (0,1]",
            });
        }
        Ok(p)
    }

    /// Read an `f64` and require a parameter in the open interval `(0, 1)`
    /// (the domain of every `alpha`/`eps`/`delta` knob in the workspace).
    pub fn prob_open(&mut self) -> Result<f64, CodecError> {
        let v = self.f64()?;
        if !(v > 0.0 && v < 1.0) {
            return Err(CodecError::Invalid {
                what: "probability parameter outside (0,1)",
            });
        }
        Ok(v)
    }

    /// Read a `u64` length prefix and validate that `len` elements of at
    /// least `min_elem_bytes` each could still fit in the buffer — the
    /// allocation guard that makes a corrupted length a typed error
    /// instead of an OOM. `min_elem_bytes` of 0 is treated as 1.
    pub fn len_prefix(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        let min = min_elem_bytes.max(1);
        let cap = (self.remaining() / min) as u64;
        if raw > cap {
            return Err(CodecError::Truncated {
                needed: (raw as usize).saturating_mul(min),
                available: self.remaining(),
            });
        }
        Ok(raw as usize)
    }

    /// Read a canonical LEB128 varint `u64`. Rejects overlong encodings
    /// (a non-terminal final byte of 0 — every value has exactly one
    /// wire image) and encodings above 64 bits, so corrupt varints are
    /// typed errors rather than silent misparses.
    pub fn varint_u64(&mut self) -> Result<u64, CodecError> {
        let mut x = 0u64;
        for i in 0..10u32 {
            let b = self.u8()?;
            let payload = (b & 0x7F) as u64;
            if i == 9 && payload > 1 {
                return Err(CodecError::Invalid {
                    what: "varint encodes more than 64 bits",
                });
            }
            x |= payload << (7 * i);
            if b & 0x80 == 0 {
                if i > 0 && payload == 0 {
                    return Err(CodecError::Invalid {
                        what: "overlong varint encoding",
                    });
                }
                return Ok(x);
            }
        }
        Err(CodecError::Invalid {
            what: "varint longer than 10 bytes",
        })
    }

    /// Read a zigzag-varint `i64`.
    pub fn varint_i64(&mut self) -> Result<i64, CodecError> {
        Ok(zigzag_decode(self.varint_u64()?))
    }

    /// Read a varint length prefix with the same allocation guard as
    /// [`Reader::len_prefix`]: `len` elements of at least
    /// `min_elem_bytes` each must still fit in the buffer.
    pub fn varint_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let raw = self.varint_u64()?;
        let min = min_elem_bytes.max(1);
        let cap = (self.remaining() / min) as u64;
        if raw > cap {
            return Err(CodecError::Truncated {
                needed: (raw as usize).saturating_mul(min),
                available: self.remaining(),
            });
        }
        Ok(raw as usize)
    }

    /// Read a frame-of-reference bit-packed `u64` slice written by
    /// [`put_packed_u64s`]: `varint len ‖ varint min ‖ u8 width ‖
    /// ⌈len·width/8⌉ packed bytes`. Length, width and every
    /// reconstructed value are validated; a corrupt length cannot
    /// allocate beyond [`PACKED_MAX_RUN`] elements.
    pub fn packed_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.varint_u64()?;
        if len == 0 {
            return Ok(Vec::new());
        }
        let min = self.varint_u64()?;
        let width = self.u8()? as u32;
        if width > 64 {
            return Err(CodecError::Invalid {
                what: "packed slice bit width above 64",
            });
        }
        // Width 0 is the all-equal run: it carries no data bytes, so the
        // byte-budget guard below cannot bound it — cap it explicitly.
        if len > PACKED_MAX_RUN {
            return Err(CodecError::Invalid {
                what: "packed slice length above the decode cap",
            });
        }
        let len = len as usize;
        let data_bytes = ((len as u128 * width as u128).div_ceil(8)) as usize;
        let data = self.take(data_bytes)?;
        let mut out = Vec::with_capacity(len);
        if width == 0 {
            out.resize(len, min);
            return Ok(out);
        }
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let mut acc: u128 = 0;
        let mut nbits: u32 = 0;
        let mut di = 0usize;
        for _ in 0..len {
            while nbits < width {
                let b = *data.get(di).ok_or(CodecError::Invalid {
                    what: "packed slice bit stream underrun",
                })?;
                acc |= (b as u128) << nbits;
                di += 1;
                nbits += 8;
            }
            let delta = (acc as u64) & mask;
            acc >>= width;
            nbits -= width;
            let v = min.checked_add(delta).ok_or(CodecError::Invalid {
                what: "packed slice value overflows u64",
            })?;
            out.push(v);
        }
        Ok(out)
    }

    /// Read a zigzag frame-of-reference packed `i64` slice written by
    /// [`put_packed_i64s`].
    pub fn packed_i64s(&mut self) -> Result<Vec<i64>, CodecError> {
        Ok(self.packed_u64s()?.into_iter().map(zigzag_decode).collect())
    }

    /// Read a plain varint `u64` slice written by [`put_varint_u64s`]:
    /// `varint len ‖ len varints`. The byte-aligned cousin of
    /// [`Reader::packed_u64s`] for columns that take mid-stream
    /// insertions (see the writer's docs).
    pub fn varint_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.varint_len(1)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(self.varint_u64()?);
        }
        Ok(out)
    }

    /// Read a strictly-increasing `u64` slice written by
    /// [`put_packed_sorted_u64s`]: `varint len ‖ varint first ‖ varint
    /// gaps`. Validates strict monotonicity (every gap ≥ 1, no
    /// overflow), so decoded key columns are unique and sorted by
    /// construction.
    pub fn packed_sorted_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.varint_u64()?;
        if len == 0 {
            return Ok(Vec::new());
        }
        // Every gap costs at least one byte — the allocation guard.
        if len - 1 > self.remaining() as u64 {
            return Err(CodecError::Truncated {
                needed: (len - 1) as usize,
                available: self.remaining(),
            });
        }
        let first = self.varint_u64()?;
        let mut out = Vec::with_capacity(len as usize);
        out.push(first);
        let mut prev = first;
        for _ in 1..len {
            let g = self.varint_u64()?;
            if g == 0 {
                return Err(CodecError::Invalid {
                    what: "sorted slice is not strictly increasing",
                });
            }
            prev = prev.checked_add(g).ok_or(CodecError::Invalid {
                what: "sorted slice value overflows u64",
            })?;
            out.push(prev);
        }
        Ok(out)
    }

    /// A scalar count or dimension: a varint in v2, a `u64` in v1.
    pub fn count_u64(&mut self) -> Result<u64, CodecError> {
        if self.v2() {
            self.varint_u64()
        } else {
            self.u64()
        }
    }

    /// [`Reader::count_u64`] as a `usize`.
    pub fn count_usize(&mut self) -> Result<usize, CodecError> {
        usize::try_from(self.count_u64()?).map_err(|_| CodecError::Invalid {
            what: "usize value exceeds this platform's pointer width",
        })
    }

    /// A `u64` column: [`Reader::packed_u64s`] in v2, a `u64` length and
    /// fixed values in v1.
    pub fn u64_column(&mut self) -> Result<Vec<u64>, CodecError> {
        if self.v2() {
            self.packed_u64s()
        } else {
            Vec::decode(self)
        }
    }

    /// An `i64` column: [`Reader::packed_i64s`] in v2, a `u64` length and
    /// fixed values in v1.
    pub fn i64_column(&mut self) -> Result<Vec<i64>, CodecError> {
        if self.v2() {
            self.packed_i64s()
        } else {
            Vec::decode(self)
        }
    }

    /// A strictly ascending `u64` set: [`Reader::packed_sorted_u64s`] in
    /// v2; in v1 a `u64` length and values in any order, returned sorted.
    /// A repeated value is [`CodecError::Invalid`].
    pub fn ascending_u64s(&mut self) -> Result<Vec<u64>, CodecError> {
        if self.v2() {
            return self.packed_sorted_u64s();
        }
        let mut set = Vec::<u64>::decode(self)?;
        set.sort_unstable();
        no_repeats(&set)?;
        Ok(set)
    }

    /// A keyed table: strictly ascending keys and their index-aligned
    /// values. v2 writes the keys as [`Reader::packed_sorted_u64s`], then
    /// the value column that `v2_values` reads, given the key count. v1
    /// writes a `u64` length, then `(u64 key, V)` rows in any order,
    /// returned sorted. A repeated key, or a value column of another
    /// length, is [`CodecError::Invalid`].
    pub fn keyed_table<V: WireCodec>(
        &mut self,
        v2_values: impl FnOnce(&mut Self, usize) -> Result<Vec<V>, CodecError>,
    ) -> Result<(Vec<u64>, Vec<V>), CodecError> {
        let (keys, values) = if self.v2() {
            let keys = self.packed_sorted_u64s()?;
            let values = v2_values(self, keys.len())?;
            (keys, values)
        } else {
            let mut rows = Vec::<(u64, V)>::decode(self)?;
            rows.sort_unstable_by_key(|row| row.0);
            let (keys, values): (Vec<u64>, Vec<V>) = rows.into_iter().unzip();
            no_repeats(&keys)?;
            (keys, values)
        };
        if values.len() != keys.len() {
            return Err(CodecError::Invalid {
                what: "keyed table value column length differs from its keys",
            });
        }
        Ok((keys, values))
    }

    /// A keyed table of varint `u64` values ([`put_keyed_u64s`]).
    pub fn keyed_u64s(&mut self) -> Result<(Vec<u64>, Vec<u64>), CodecError> {
        self.keyed_table(|r, _| r.varint_u64s())
    }

    /// A keyed table of raw `f64` values ([`put_keyed_f64s`]).
    pub fn keyed_f64s(&mut self) -> Result<(Vec<u64>, Vec<f64>), CodecError> {
        self.keyed_table(|r, n| (0..n).map(|_| r.f64()).collect())
    }

    /// A section written by [`put_section`]: a `u64` length, then a
    /// payload that `read` decodes under this reader's version and must
    /// consume exactly.
    pub fn section<T>(
        &mut self,
        read: impl FnOnce(&mut Reader<'a>) -> Result<T, CodecError>,
    ) -> Result<T, CodecError> {
        let len = self.len_prefix(1)?;
        let mut section = Reader::with_version(self.take(len)?, self.version);
        let value = read(&mut section)?;
        section.expect_empty()?;
        Ok(value)
    }
}

/// Hard cap on the element count a packed slice may claim (the width-0
/// all-equal run carries no data bytes, so the usual bytes-remaining
/// guard cannot bound its allocation). 2^27 matches the largest counter
/// grid any in-tree constructor allows.
pub const PACKED_MAX_RUN: u64 = 1 << 27;

#[inline]
fn zigzag_encode(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn zigzag_decode(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Append a `u64` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

/// Append a `usize` as `u64`.
#[inline]
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u64(out, n as u64);
}

/// Append a LEB128 varint `u64` (canonical: minimal length).
#[inline]
pub fn put_varint_u64(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let b = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Append a zigzag-varint `i64`.
#[inline]
pub fn put_varint_i64(out: &mut Vec<u8>, x: i64) {
    put_varint_u64(out, zigzag_encode(x));
}

/// Number of bits needed to represent `x` (0 for 0).
#[inline]
fn bits_for(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Append a frame-of-reference bit-packed `u64` slice:
/// `varint len ‖ varint min ‖ u8 width ‖ ⌈len·width/8⌉ packed bytes`,
/// with `width = bits(max − min)`. Deterministic (minimal width), so
/// encode∘decode is the byte identity. An all-equal slice (width 0)
/// costs a handful of bytes regardless of length.
pub fn put_packed_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    put_varint_u64(out, vals.len() as u64);
    if vals.is_empty() {
        return;
    }
    let mut min = u64::MAX;
    let mut max = 0u64;
    for &v in vals {
        min = min.min(v);
        max = max.max(v);
    }
    let width = bits_for(max - min);
    put_varint_u64(out, min);
    out.push(width as u8);
    if width == 0 {
        return;
    }
    out.reserve(((vals.len() as u128 * width as u128).div_ceil(8)) as usize);
    let mut acc: u128 = 0;
    let mut nbits: u32 = 0;
    for &v in vals {
        acc |= ((v - min) as u128) << nbits;
        nbits += width;
        while nbits >= 8 {
            out.push(acc as u8);
            acc >>= 8;
            nbits -= 8;
        }
    }
    if nbits > 0 {
        out.push(acc as u8);
    }
}

/// Append a zigzag frame-of-reference packed `i64` slice (the counter
/// grids of sign-based sketches).
pub fn put_packed_i64s(out: &mut Vec<u8>, vals: &[i64]) {
    // Zigzag first so mixed-sign counters land in a tight band around
    // zero; FoR then squeezes the band.
    let mapped: Vec<u64> = vals.iter().map(|&v| zigzag_encode(v)).collect();
    put_packed_u64s(out, &mapped);
}

/// Append a `u64` slice as plain varints (`varint len ‖ len varints`) —
/// the byte-aligned cousin of [`put_packed_u64s`] for the *value
/// columns of growing maps*. FoR bit packing is a little denser, but a
/// mid-stream insertion shifts everything after it by a sub-byte
/// amount, which defeats the byte-level delta checkpoints; varints keep
/// every element byte-aligned, so an insertion shifts the suffix by
/// whole bytes and the rolling-hash diff still matches it.
pub fn put_varint_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    put_varints(out, vals.iter().copied());
}

fn put_varints(out: &mut Vec<u8>, vals: impl ExactSizeIterator<Item = u64>) {
    put_varint_u64(out, vals.len() as u64);
    vals.for_each(|v| put_varint_u64(out, v));
}

/// Append a strictly-increasing `u64` slice as first value + varint
/// gaps — the key columns of sorted counter maps, where gaps are tiny
/// compared to the raw 8-byte keys. Gaps are varints rather than FoR
/// bit-packed for the same delta-friendliness reason as
/// [`put_varint_u64s`]: key columns grow by insertion.
///
/// # Panics
/// Debug-asserts strict monotonicity; release builds would produce a
/// stream the (strict) decoder rejects.
pub fn put_packed_sorted_u64s(out: &mut Vec<u8>, vals: &[u64]) {
    put_ascending(out, vals.iter().copied());
}

fn put_ascending(out: &mut Vec<u8>, mut vals: impl ExactSizeIterator<Item = u64>) {
    put_varint_u64(out, vals.len() as u64);
    let Some(first) = vals.next() else {
        return;
    };
    put_varint_u64(out, first);
    let mut prev = first;
    for v in vals {
        debug_assert!(v > prev, "put_packed_sorted_u64s input not sorted");
        put_varint_u64(out, v.wrapping_sub(prev));
        prev = v;
    }
}

/// Append a keyed table of `u64` values, its rows in ascending key
/// order: the keys as [`put_packed_sorted_u64s`], then the values as
/// [`put_varint_u64s`]. [`Reader::keyed_u64s`] reads it back.
pub fn put_keyed_u64s(out: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = (u64, u64)> + Clone) {
    put_ascending(out, rows.clone().map(|(key, _)| key));
    put_varints(out, rows.map(|(_, v)| v));
}

/// Append a keyed table of `f64` values, its rows in ascending key
/// order: the keys as [`put_packed_sorted_u64s`], then one IEEE-754 bit
/// pattern per key (floats do not pack). [`Reader::keyed_f64s`] reads it
/// back.
pub fn put_keyed_f64s(out: &mut Vec<u8>, rows: impl ExactSizeIterator<Item = (u64, f64)> + Clone) {
    put_ascending(out, rows.clone().map(|(key, _)| key));
    rows.for_each(|(_, v)| put_u64(out, v.to_bits()));
}

/// Append a section: a fixed 8-byte length, then the payload `put`
/// writes in place, whose length is backpatched once it is written.
/// [`Reader::section`] reads it back.
pub fn put_section(out: &mut Vec<u8>, put: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    put_u64(out, 0);
    put(out);
    let len = out.len() - at - 8;
    patch_u64(out, at, len as u64);
}

/// Append a framed object of type `tag`:
/// `magic(4) ‖ version(2) ‖ tag(2) ‖ payload_len(8) ‖ fnv1a64(8) ‖ payload`.
/// `put` writes the payload in place; its length and checksum are
/// backpatched into the header once it is written.
pub fn put_frame(out: &mut Vec<u8>, tag: u16, put: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.extend_from_slice(&WIRE_MAGIC);
    out.extend_from_slice(&WIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&tag.to_le_bytes());
    out.resize(at + FRAME_HEADER_BYTES, 0);
    put(out);
    let payload = out.get(at + FRAME_HEADER_BYTES..).unwrap_or(&[]);
    let (len, checksum) = (payload.len() as u64, fnv1a64(payload));
    patch_u64(out, at + 8, len);
    patch_u64(out, at + 16, checksum);
}

/// Overwrite the 8-byte placeholder at `at` with `x`.
fn patch_u64(out: &mut [u8], at: usize, x: u64) {
    if let Some(slot) = out.get_mut(at..at + 8) {
        slot.copy_from_slice(&x.to_le_bytes());
    }
}

/// [`CodecError::Invalid`] if sorted `keys` repeat one.
fn no_repeats(keys: &[u64]) -> Result<(), CodecError> {
    if keys.windows(2).any(|w| matches!(w, [a, b] if a == b)) {
        return Err(CodecError::Invalid {
            what: "v1 rows repeat a key",
        });
    }
    Ok(())
}

/// A type with a versioned binary wire representation.
///
/// `encode_into`/`decode` are the raw (unframed) payload codec used for
/// nesting; top-level objects crossing a process boundary should travel
/// framed ([`WireCodec::encode_framed`] / [`WireCodec::decode_framed`])
/// so the receiver can check magic, version and type before trusting a
/// single payload byte.
pub trait WireCodec: Sized {
    /// The type's wire tag (unique across the workspace; `0` for
    /// primitives and internal helper types that never travel framed).
    const WIRE_TAG: u16 = 0;

    /// Lower bound on the encoded size of one value, used to validate
    /// length prefixes before allocating (`Vec<T>` decoding).
    const MIN_WIRE_BYTES: usize = 1;

    /// Append this value's payload bytes.
    fn encode_into(&self, out: &mut Vec<u8>);

    /// Decode one value from the reader, validating every structural
    /// invariant of the type.
    fn decode(r: &mut Reader) -> Result<Self, CodecError>;

    /// The payload bytes as a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Decode a value that must span the whole buffer exactly.
    fn decode_slice(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.expect_empty()?;
        Ok(v)
    }

    /// Encode with the self-describing envelope ([`put_frame`]).
    ///
    /// The checksum covers the payload only (the header fields are
    /// individually validated), so any single corrupted byte anywhere in
    /// the frame is guaranteed to surface as a typed error.
    fn encode_framed(&self) -> Vec<u8> {
        // The frame is allocated at its final size: callers keep
        // checkpoints as delta bases, and a frame grown in place keeps
        // up to twice its length allocated.
        let payload = self.encode();
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
        put_frame(&mut out, Self::WIRE_TAG, |out| {
            out.extend_from_slice(&payload)
        });
        out
    }

    /// Decode a framed buffer, checking magic, version, tag, exact
    /// payload length and payload checksum before touching the payload.
    /// Every version in `[WIRE_VERSION_MIN, WIRE_VERSION]` is accepted;
    /// the header's version byte routes the payload (and every nested
    /// section) to the matching layout.
    fn decode_framed(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        r.version = read_magic_version(&mut r)?;
        let tag = r.u16()?;
        if tag != Self::WIRE_TAG {
            return Err(CodecError::TagMismatch {
                expected: Self::WIRE_TAG,
                found: tag,
            });
        }
        let payload_len = r.len_prefix(1)?;
        let expected = r.u64()?;
        if payload_len != r.remaining() {
            return Err(if payload_len > r.remaining() {
                CodecError::Truncated {
                    needed: payload_len,
                    available: r.remaining(),
                }
            } else {
                CodecError::TrailingBytes {
                    count: r.remaining() - payload_len,
                }
            });
        }
        let found = fnv1a64(buf.get(FRAME_HEADER_BYTES..).unwrap_or(&[]));
        if found != expected {
            return Err(CodecError::ChecksumMismatch { expected, found });
        }
        let v = Self::decode(&mut r)?;
        r.expect_empty()?;
        Ok(v)
    }
}

/// Bytes of the framed envelope ahead of the payload.
pub const FRAME_HEADER_BYTES: usize = 24;

/// FNV-1a 64-bit over a byte slice — the frame's payload checksum. Not
/// cryptographic; guards against truncation, bit rot and split-brain
/// writes, which is the threat model of a checkpoint file or a snapshot
/// crossing an internal transport.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The validated header of a framed wire object — what a streaming
/// receiver learns from the first [`FRAME_HEADER_BYTES`] bytes before a
/// single payload byte arrives. [`parse_frame_header`] checks magic and
/// format version up front, so a transport can size its payload read
/// (and enforce a payload cap) from trusted fields only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// Format version stamped in the frame (within
    /// `[WIRE_VERSION_MIN, WIRE_VERSION]` — anything else is rejected
    /// at parse time).
    pub version: u16,
    /// The payload's type tag.
    pub tag: u16,
    /// Payload bytes following the header.
    pub payload_len: usize,
    /// FNV-1a-64 checksum the payload must hash to.
    pub checksum: u64,
}

/// Parse and validate the fixed-size frame header: magic and format
/// version are checked here; tag routing, payload length and checksum
/// verification are the caller's (or [`WireCodec::decode_framed`]'s)
/// job once the payload is in hand. This is the read-path pre-validation
/// a socket transport runs before allocating the payload buffer.
pub fn parse_frame_header(header: &[u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, CodecError> {
    let mut r = Reader::new(header);
    let version = read_magic_version(&mut r)?;
    let tag = r.u16()?;
    let payload_len = r.u64()? as usize;
    let checksum = r.u64()?;
    Ok(FrameHeader {
        version,
        tag,
        payload_len,
        checksum,
    })
}

/// Read a frame's magic and format version, rejecting a foreign magic
/// and a version this build does not decode: the head every frame
/// reader starts with.
fn read_magic_version(r: &mut Reader) -> Result<u16, CodecError> {
    let magic: [u8; 4] = r.take_array()?;
    if magic != WIRE_MAGIC {
        return Err(CodecError::BadMagic { found: magic });
    }
    let version = r.u16()?;
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        return Err(CodecError::UnsupportedVersion {
            found: version,
            supported: WIRE_VERSION,
        });
    }
    Ok(version)
}

macro_rules! impl_primitive {
    ($ty:ty, $bytes:expr, $write:expr, $read:expr) => {
        impl WireCodec for $ty {
            const MIN_WIRE_BYTES: usize = $bytes;

            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                #[allow(clippy::redundant_closure_call)]
                ($write)(self, out)
            }

            #[inline]
            fn decode(r: &mut Reader) -> Result<Self, CodecError> {
                #[allow(clippy::redundant_closure_call)]
                ($read)(r)
            }
        }
    };
}

impl_primitive!(
    u8,
    1,
    |x: &u8, o: &mut Vec<u8>| o.push(*x),
    |r: &mut Reader| r.u8()
);
impl_primitive!(
    u16,
    2,
    |x: &u16, o: &mut Vec<u8>| o.extend_from_slice(&x.to_le_bytes()),
    |r: &mut Reader| r.u16()
);
impl_primitive!(
    u32,
    4,
    |x: &u32, o: &mut Vec<u8>| o.extend_from_slice(&x.to_le_bytes()),
    |r: &mut Reader| r.u32()
);
impl_primitive!(
    u64,
    8,
    |x: &u64, o: &mut Vec<u8>| o.extend_from_slice(&x.to_le_bytes()),
    |r: &mut Reader| r.u64()
);
impl_primitive!(
    u128,
    16,
    |x: &u128, o: &mut Vec<u8>| o.extend_from_slice(&x.to_le_bytes()),
    |r: &mut Reader| r.u128()
);
impl_primitive!(
    i64,
    8,
    |x: &i64, o: &mut Vec<u8>| o.extend_from_slice(&x.to_le_bytes()),
    |r: &mut Reader| r.i64()
);
impl_primitive!(
    f64,
    8,
    |x: &f64, o: &mut Vec<u8>| o.extend_from_slice(&x.to_bits().to_le_bytes()),
    |r: &mut Reader| r.f64()
);
impl_primitive!(
    bool,
    1,
    |x: &bool, o: &mut Vec<u8>| o.push(*x as u8),
    |r: &mut Reader| r.bool()
);

impl WireCodec for usize {
    const MIN_WIRE_BYTES: usize = 8;

    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u64(out, *self as u64);
    }

    #[inline]
    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let raw = r.u64()?;
        usize::try_from(raw).map_err(|_| CodecError::Invalid {
            what: "usize value exceeds this platform's pointer width",
        })
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        for item in self {
            item.encode_into(out);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let len = r.len_prefix(T::MIN_WIRE_BYTES)?;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    const MIN_WIRE_BYTES: usize = 1;

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode_into(out);
            }
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            _ => Err(CodecError::Invalid {
                what: "Option discriminant not 0/1",
            }),
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    const MIN_WIRE_BYTES: usize = A::MIN_WIRE_BYTES + B::MIN_WIRE_BYTES;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    const MIN_WIRE_BYTES: usize = A::MIN_WIRE_BYTES + B::MIN_WIRE_BYTES + C::MIN_WIRE_BYTES;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl WireCodec for String {
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.len());
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let len = r.len_prefix(1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::Invalid {
            what: "string is not valid UTF-8",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut out = Vec::new();
        42u8.encode_into(&mut out);
        0xBEEFu16.encode_into(&mut out);
        7u32.encode_into(&mut out);
        u64::MAX.encode_into(&mut out);
        (u128::MAX - 5).encode_into(&mut out);
        (-12i64).encode_into(&mut out);
        f64::NAN.encode_into(&mut out);
        (-0.0f64).encode_into(&mut out);
        true.encode_into(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 42);
        assert_eq!(r.u16().unwrap(), 0xBEEF);
        assert_eq!(r.u32().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.u128().unwrap(), u128::MAX - 5);
        assert_eq!(r.i64().unwrap(), -12);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.bool().unwrap());
        r.expect_empty().unwrap();
    }

    #[test]
    fn vec_and_option_roundtrip() {
        let v: Vec<u64> = vec![1, 2, 3];
        assert_eq!(Vec::<u64>::decode_slice(&v.encode()).unwrap(), v);
        let o: Option<(u64, f64)> = Some((9, 2.5));
        assert_eq!(Option::<(u64, f64)>::decode_slice(&o.encode()).unwrap(), o);
        let n: Option<u64> = None;
        assert_eq!(Option::<u64>::decode_slice(&n.encode()).unwrap(), n);
        let s = "héllo".to_string();
        assert_eq!(String::decode_slice(&s.encode()).unwrap(), s);
    }

    #[test]
    fn truncation_is_typed_not_panic() {
        let v: Vec<u64> = (0..100).collect();
        let bytes = v.encode();
        for cut in 0..bytes.len() {
            match Vec::<u64>::decode_slice(&bytes[..cut]) {
                Err(CodecError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_length_prefix_cannot_oom() {
        // A length prefix claiming 2^60 elements on a 16-byte buffer must
        // fail before allocating.
        let mut bytes = Vec::new();
        put_u64(&mut bytes, 1u64 << 60);
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Vec::<u64>::decode_slice(&bytes),
            Err(CodecError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u64.encode();
        bytes.push(0);
        assert_eq!(
            u64::decode_slice(&bytes),
            Err(CodecError::TrailingBytes { count: 1 })
        );
    }

    #[derive(Debug, PartialEq)]
    struct Framed(u64);

    impl WireCodec for Framed {
        const WIRE_TAG: u16 = 0x7777;

        fn encode_into(&self, out: &mut Vec<u8>) {
            self.0.encode_into(out);
        }

        fn decode(r: &mut Reader) -> Result<Self, CodecError> {
            Ok(Framed(r.u64()?))
        }
    }

    #[test]
    fn framed_envelope_roundtrip_and_checks() {
        let x = Framed(123);
        let bytes = x.encode_framed();
        assert_eq!(&bytes[..4], &WIRE_MAGIC);
        assert_eq!(Framed::decode_framed(&bytes).unwrap(), x);
        let header: [u8; FRAME_HEADER_BYTES] = bytes[..FRAME_HEADER_BYTES].try_into().unwrap();
        let fh = parse_frame_header(&header).unwrap();
        assert_eq!(
            (fh.version, fh.tag, fh.payload_len),
            (WIRE_VERSION, 0x7777, 8)
        );

        // Bad magic.
        let mut b = bytes.clone();
        b[0] ^= 0xFF;
        assert!(matches!(
            Framed::decode_framed(&b),
            Err(CodecError::BadMagic { .. })
        ));

        // Flipped version byte.
        let mut b = bytes.clone();
        b[4] ^= 0x01;
        assert_eq!(
            Framed::decode_framed(&b),
            Err(CodecError::UnsupportedVersion {
                found: WIRE_VERSION ^ 0x01,
                supported: WIRE_VERSION
            })
        );

        // Wrong tag.
        let mut b = bytes.clone();
        b[6] ^= 0x01;
        assert!(matches!(
            Framed::decode_framed(&b),
            Err(CodecError::TagMismatch { .. })
        ));

        // Truncated payload.
        assert!(matches!(
            Framed::decode_framed(&bytes[..bytes.len() - 1]),
            Err(CodecError::Truncated { .. })
        ));

        // Trailing bytes after the frame.
        let mut b = bytes.clone();
        b.push(9);
        assert!(matches!(
            Framed::decode_framed(&b),
            Err(CodecError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn frame_header_parse_validates_magic_and_version() {
        let bytes = Framed(55).encode_framed();
        let header: [u8; FRAME_HEADER_BYTES] = bytes[..FRAME_HEADER_BYTES].try_into().unwrap();
        let fh = parse_frame_header(&header).unwrap();
        assert_eq!(fh.version, WIRE_VERSION);
        assert_eq!(fh.tag, 0x7777);
        assert_eq!(fh.payload_len, 8);
        assert_eq!(fh.checksum, fnv1a64(&bytes[FRAME_HEADER_BYTES..]));

        let mut bad = header;
        bad[0] ^= 0xFF;
        assert!(matches!(
            parse_frame_header(&bad),
            Err(CodecError::BadMagic { .. })
        ));

        let mut bad = header;
        bad[4] ^= 0x02;
        assert_eq!(
            parse_frame_header(&bad),
            Err(CodecError::UnsupportedVersion {
                found: WIRE_VERSION ^ 0x02,
                supported: WIRE_VERSION
            })
        );
    }

    #[test]
    fn varints_roundtrip_canonically() {
        let cases = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ];
        for &x in &cases {
            let mut out = Vec::new();
            put_varint_u64(&mut out, x);
            assert!(out.len() <= 10);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint_u64().unwrap(), x);
            r.expect_empty().unwrap();
        }
        for &x in &[0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, -1_000_000] {
            let mut out = Vec::new();
            put_varint_i64(&mut out, x);
            let mut r = Reader::new(&out);
            assert_eq!(r.varint_i64().unwrap(), x);
        }
    }

    #[test]
    fn corrupt_varints_are_typed_errors() {
        // Truncated mid-continuation.
        let mut r = Reader::new(&[0x80]);
        assert!(matches!(r.varint_u64(), Err(CodecError::Truncated { .. })));
        // Overlong: 0 encoded in two bytes.
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(
            r.varint_u64(),
            Err(CodecError::Invalid {
                what: "overlong varint encoding"
            })
        );
        // Overlong: 1 encoded with a redundant continuation.
        let mut r = Reader::new(&[0x81, 0x00]);
        assert!(r.varint_u64().is_err());
        // More than 64 bits: 10th byte above 1.
        let mut bytes = vec![0xFF; 9];
        bytes.push(0x02);
        let mut r = Reader::new(&bytes);
        assert_eq!(
            r.varint_u64(),
            Err(CodecError::Invalid {
                what: "varint encodes more than 64 bits"
            })
        );
        // 11-byte varint (never terminates in 10).
        let mut r = Reader::new(&[0xFF; 11]);
        assert!(r.varint_u64().is_err());
        // u64::MAX is exactly 10 bytes with a final 0x01 — valid.
        let mut out = Vec::new();
        put_varint_u64(&mut out, u64::MAX);
        assert_eq!(out.len(), 10);
        assert_eq!(*out.last().unwrap(), 0x01);
    }

    #[test]
    fn packed_slices_roundtrip() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![0],
            vec![7; 1000],                       // width-0 all-equal run
            vec![0, 1, 2, 3, 4, 5, 6, 7],        // width 3
            vec![1_000_000, 1_000_001, 999_999], // tight band, big offset
            vec![0, u64::MAX],                   // full width
            (0..257u64).map(|i| i * i).collect(),
        ];
        for vals in &cases {
            let mut out = Vec::new();
            put_packed_u64s(&mut out, vals);
            let mut r = Reader::new(&out);
            assert_eq!(&r.packed_u64s().unwrap(), vals);
            r.expect_empty().unwrap();
        }
        let signed: Vec<Vec<i64>> = vec![
            vec![],
            vec![0; 500],
            vec![-3, -2, -1, 0, 1, 2, 3],
            vec![i64::MIN, i64::MAX, 0],
            (-100..100).collect(),
        ];
        for vals in &signed {
            let mut out = Vec::new();
            put_packed_i64s(&mut out, vals);
            let mut r = Reader::new(&out);
            assert_eq!(&r.packed_i64s().unwrap(), vals);
        }
        // All-equal run is a handful of bytes regardless of length.
        let mut out = Vec::new();
        put_packed_u64s(&mut out, &vec![42u64; 100_000]);
        assert!(out.len() < 16, "width-0 run took {} bytes", out.len());
    }

    #[test]
    fn packed_sorted_roundtrips_and_rejects_disorder() {
        let cases: Vec<Vec<u64>> = vec![
            vec![],
            vec![9],
            vec![0, 1, 2, 3],
            vec![5, 100, 101, 1 << 40, u64::MAX],
            (0..1000u64).map(|i| i * 3 + 1).collect(),
        ];
        for vals in &cases {
            let mut out = Vec::new();
            put_packed_sorted_u64s(&mut out, vals);
            let mut r = Reader::new(&out);
            assert_eq!(&r.packed_sorted_u64s().unwrap(), vals);
            r.expect_empty().unwrap();
        }
        // A zero gap (duplicate key) must be rejected.
        let mut out = Vec::new();
        put_varint_u64(&mut out, 3); // len
        put_varint_u64(&mut out, 5); // first
        put_varint_u64(&mut out, 1); // gap 1
        put_varint_u64(&mut out, 0); // zero gap
        let mut r = Reader::new(&out);
        assert_eq!(
            r.packed_sorted_u64s(),
            Err(CodecError::Invalid {
                what: "sorted slice is not strictly increasing"
            })
        );
        // Overflowing accumulation must be rejected.
        let mut out = Vec::new();
        put_varint_u64(&mut out, 2);
        put_varint_u64(&mut out, u64::MAX - 1);
        put_varint_u64(&mut out, 5);
        let mut r = Reader::new(&out);
        assert!(r.packed_sorted_u64s().is_err());

        // Varint value columns round-trip too.
        let vals: Vec<u64> = (0..500u64).map(|i| i * 31 % 997).collect();
        let mut out = Vec::new();
        put_varint_u64s(&mut out, &vals);
        let mut r = Reader::new(&out);
        assert_eq!(r.varint_u64s().unwrap(), vals);
        r.expect_empty().unwrap();
    }

    #[test]
    fn packed_corruption_cannot_oom_or_panic() {
        // Huge claimed length with width > 0: bounded by remaining bytes.
        let mut out = Vec::new();
        put_varint_u64(&mut out, 1 << 26);
        put_varint_u64(&mut out, 0);
        out.push(17); // width 17 bits
        out.extend_from_slice(&[0u8; 32]);
        let mut r = Reader::new(&out);
        assert!(r.packed_u64s().is_err());
        // Huge claimed length with width 0: bounded by PACKED_MAX_RUN.
        let mut out = Vec::new();
        put_varint_u64(&mut out, PACKED_MAX_RUN + 1);
        put_varint_u64(&mut out, 0);
        out.push(0);
        let mut r = Reader::new(&out);
        assert_eq!(
            r.packed_u64s(),
            Err(CodecError::Invalid {
                what: "packed slice length above the decode cap"
            })
        );
        // Width above 64.
        let mut out = Vec::new();
        put_varint_u64(&mut out, 2);
        put_varint_u64(&mut out, 0);
        out.push(65);
        out.extend_from_slice(&[0u8; 32]);
        let mut r = Reader::new(&out);
        assert_eq!(
            r.packed_u64s(),
            Err(CodecError::Invalid {
                what: "packed slice bit width above 64"
            })
        );
        // min + delta overflowing u64.
        let mut out = Vec::new();
        put_varint_u64(&mut out, 1);
        put_varint_u64(&mut out, u64::MAX);
        out.push(1);
        out.push(1); // delta 1 → u64::MAX + 1
        let mut r = Reader::new(&out);
        assert_eq!(
            r.packed_u64s(),
            Err(CodecError::Invalid {
                what: "packed slice value overflows u64"
            })
        );
        // Truncation anywhere inside a packed stream is typed.
        let vals: Vec<u64> = (0..500u64).map(|i| i * 7).collect();
        let mut out = Vec::new();
        put_packed_u64s(&mut out, &vals);
        for cut in 0..out.len() {
            let mut r = Reader::new(&out[..cut]);
            assert!(r.packed_u64s().is_err(), "cut at {cut} decoded");
        }
    }

    #[test]
    fn v1_frames_still_decode_and_route_the_reader_version() {
        // Hand-build a version-1 frame for `Framed` and check it decodes
        // under the v2 codec with the reader reporting version 1.
        let payload = 123u64.encode();
        let mut frame = Vec::new();
        frame.extend_from_slice(&WIRE_MAGIC);
        frame.extend_from_slice(&1u16.to_le_bytes());
        frame.extend_from_slice(&0x7777u16.to_le_bytes());
        put_len(&mut frame, payload.len());
        put_u64(&mut frame, fnv1a64(&payload));
        frame.extend_from_slice(&payload);
        assert_eq!(Framed::decode_framed(&frame).unwrap(), Framed(123));
        let header: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();
        assert_eq!(parse_frame_header(&header).unwrap().version, 1);
        // A version outside [MIN, CURRENT] is rejected by both paths.
        let mut bad = frame.clone();
        bad[4] = 0x07;
        assert!(matches!(
            Framed::decode_framed(&bad),
            Err(CodecError::UnsupportedVersion { found: 7, .. })
        ));
        let mut r = Reader::with_version(&payload, 1);
        assert_eq!(r.version(), 1);
        assert!(!r.v2());
        assert_eq!(r.u64().unwrap(), 123);
    }

    #[test]
    fn errors_display() {
        let e = CodecError::UnsupportedVersion {
            found: 9,
            supported: 1,
        };
        assert!(e.to_string().contains("version 9"));
        assert!(CodecError::UnknownTag { found: 0x0404 }
            .to_string()
            .contains("0x0404"));
    }

    /// v1 `(u64 key, V)` rows: a `u64` row count, then the rows.
    fn v1_rows<V: WireCodec>(rows: &[(u64, V)]) -> Vec<u8> {
        let mut out = Vec::new();
        put_len(&mut out, rows.len());
        for (key, v) in rows {
            put_u64(&mut out, *key);
            v.encode_into(&mut out);
        }
        out
    }

    #[test]
    fn v1_keyed_rows_in_any_order_come_back_ascending() {
        let bytes = v1_rows(&[(9u64, 2u64), (1, 7), (u64::MAX, 3), (4, 1)]);
        let mut r = Reader::with_version(&bytes, 1);
        assert_eq!(
            r.keyed_u64s().unwrap(),
            (vec![1, 4, 9, u64::MAX], vec![7, 1, 2, 3])
        );
        r.expect_empty().unwrap();

        let bytes = v1_rows(&[(5u64, -0.5f64), (2, 1.5)]);
        let mut r = Reader::with_version(&bytes, 1);
        assert_eq!(r.keyed_f64s().unwrap(), (vec![2, 5], vec![1.5, -0.5]));

        let bytes = v1_rows(&[(8u64, 1u32), (3, u32::MAX)]);
        let mut r = Reader::with_version(&bytes, 1);
        let (keys, held) = r.keyed_table(|_, _| Ok(Vec::<u32>::new())).unwrap();
        assert_eq!((keys, held), (vec![3, 8], vec![u32::MAX, 1]));

        let bytes = vec![9u64, 1, 4].encode();
        let mut r = Reader::with_version(&bytes, 1);
        assert_eq!(r.ascending_u64s().unwrap(), vec![1, 4, 9]);

        // The v2 images of the same rows read back unchanged.
        let mut out = Vec::new();
        put_keyed_u64s(&mut out, [(1u64, 7u64), (4, 1), (9, 2)].into_iter());
        put_keyed_f64s(&mut out, [(2u64, 1.5f64), (5, -0.5)].into_iter());
        let mut r = Reader::new(&out);
        assert_eq!(r.keyed_u64s().unwrap(), (vec![1, 4, 9], vec![7, 1, 2]));
        assert_eq!(r.keyed_f64s().unwrap(), (vec![2, 5], vec![1.5, -0.5]));
        r.expect_empty().unwrap();
    }

    #[test]
    fn repeated_keys_and_misaligned_value_columns_are_invalid() {
        let repeat = CodecError::Invalid {
            what: "v1 rows repeat a key",
        };
        let bytes = v1_rows(&[(9u64, 2u64), (1, 1), (9, 5)]);
        assert_eq!(
            Reader::with_version(&bytes, 1).keyed_u64s(),
            Err(repeat.clone())
        );
        let bytes = vec![4u64, 2, 4].encode();
        assert_eq!(
            Reader::with_version(&bytes, 1).ascending_u64s(),
            Err(repeat)
        );

        // Two keys, three values.
        let mut out = Vec::new();
        put_packed_sorted_u64s(&mut out, &[3, 8]);
        put_varint_u64s(&mut out, &[1, 2, 3]);
        assert_eq!(
            Reader::new(&out).keyed_u64s(),
            Err(CodecError::Invalid {
                what: "keyed table value column length differs from its keys"
            })
        );
    }

    #[test]
    fn v1_row_count_above_the_remaining_bytes_is_truncated_before_allocating() {
        // 2^60 claimed rows over 32 bytes: the count is refused against
        // each row width before a single row is read.
        for row_bytes in [8usize, 12, 16] {
            let mut bytes = Vec::new();
            put_u64(&mut bytes, 1 << 60);
            bytes.extend_from_slice(&[0u8; 32]);
            let mut r = Reader::with_version(&bytes, 1);
            let got = match row_bytes {
                8 => r.ascending_u64s().map(|_| ()),
                12 => r.keyed_table(|_, _| Ok(Vec::<u32>::new())).map(|_| ()),
                _ => r.keyed_u64s().map(|_| ()),
            };
            assert_eq!(
                got,
                Err(CodecError::Truncated {
                    needed: (1usize << 60).saturating_mul(row_bytes),
                    available: 32
                })
            );
        }
    }

    #[test]
    fn sections_are_consumed_exactly_on_the_parent_version() {
        let mut out = Vec::new();
        put_section(&mut out, |o| put_u64(o, 7));
        put_section(&mut out, |o| o.extend_from_slice(&[1, 2, 3]));
        assert_eq!(&out[..8], &8u64.to_le_bytes());
        let mut r = Reader::with_version(&out, 1);
        assert_eq!(r.section(|s| s.count_u64()), Ok(7));
        assert_eq!(
            r.section(|s| s.u8()),
            Err(CodecError::TrailingBytes { count: 2 })
        );
    }

    #[test]
    fn frame_writer_matches_a_hand_built_frame() {
        let payload = [5u8, 0, 0xFF, 42];
        let mut want = b"xy".to_vec();
        want.extend_from_slice(&WIRE_MAGIC);
        want.extend_from_slice(&WIRE_VERSION.to_le_bytes());
        want.extend_from_slice(&0x0ABCu16.to_le_bytes());
        put_len(&mut want, payload.len());
        put_u64(&mut want, fnv1a64(&payload));
        want.extend_from_slice(&payload);

        let mut out = b"xy".to_vec();
        put_frame(&mut out, 0x0ABC, |o| o.extend_from_slice(&payload));
        assert_eq!(out, want);
    }
}
