//! Cross-version decode pinned by bytes, not by review.
//!
//! Two committed corpora (one framed snapshot per estimator family,
//! written by `examples/gen_wire_fixtures.rs`):
//!
//! * `tests/fixtures/wire_v1/` — **frozen**: written by the last
//!   version-1 build and never regenerated. Every build must keep
//!   decoding these frames under the current codec and answer the
//!   estimates pinned in the manifest bit for bit. (Re-encoding them
//!   produces current-version frames, so byte-identity is checked on
//!   the *round trip through the current format*, not against the v1
//!   bytes.)
//! * `tests/fixtures/wire_v2/` — the current format's corpus: decodes,
//!   answers its pinned estimates, and re-encodes to the *identical*
//!   bytes — any layout change that silently moves the format fails
//!   here before it ships (and is the cue to bump `WIRE_VERSION`, add
//!   a `wire_v3/` corpus and freeze this one).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use subsampled_streams::codec::{
    parse_frame_header, CodecError, FrameHeader, WireCodec, FRAME_HEADER_BYTES, WIRE_VERSION,
    WIRE_VERSION_MIN,
};
use subsampled_streams::core::{
    AdaptiveF2Estimator, ExactCollisions, LevelSetCollisions, Monitor, NaiveScaledF0,
    NaiveScaledFk, RusuDobraF2, SampledEntropyEstimator, SampledF0Estimator, SampledF1HeavyHitters,
    SampledF2HeavyHitters, SampledFkEstimator, Statistic, SubsampledEstimator,
};
use subsampled_streams::window::WindowedMonitor;

fn fixture_dir(version: u16) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("tests/fixtures/wire_v{version}"))
}

struct ManifestRow {
    tag: u16,
    estimate_bits: u64,
    samples_seen: u64,
    bytes: usize,
}

fn manifest(version: u16) -> BTreeMap<String, ManifestRow> {
    let text = std::fs::read_to_string(fixture_dir(version).join("manifest.tsv"))
        .expect("committed manifest.tsv");
    let mut rows = BTreeMap::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty())
    {
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 5, "manifest row: {line}");
        let parse_hex =
            |s: &str| u64::from_str_radix(s.trim_start_matches("0x"), 16).expect("hex field");
        rows.insert(
            cols[0].to_string(),
            ManifestRow {
                tag: parse_hex(cols[1]) as u16,
                estimate_bits: parse_hex(cols[2]),
                samples_seen: cols[3].parse().expect("samples field"),
                bytes: cols[4].parse().expect("bytes field"),
            },
        );
    }
    rows
}

/// The validated header of a framed buffer.
fn frame_header(bytes: &[u8]) -> Result<FrameHeader, CodecError> {
    let header = bytes
        .get(..FRAME_HEADER_BYTES)
        .expect("a whole frame header");
    parse_frame_header(header.try_into().expect("header-sized slice"))
}

/// Decode a fixture by family name; return `(estimate bits, samples
/// seen, re-encoded bytes)`. Adding an estimator family to the
/// generator without teaching this dispatcher fails the test.
fn decode_fixture(name: &str, bytes: &[u8]) -> (u64, u64, Vec<u8>) {
    fn typed<E: SubsampledEstimator + WireCodec>(bytes: &[u8]) -> (u64, u64, Vec<u8>) {
        let est = E::decode_framed(bytes).expect("committed fixture decodes");
        (
            SubsampledEstimator::estimate(&est).value.to_bits(),
            est.samples_seen(),
            est.encode_framed(),
        )
    }
    match name {
        "f0" => typed::<SampledF0Estimator>(bytes),
        "fk_exact" => typed::<SampledFkEstimator<ExactCollisions>>(bytes),
        "fk_sketched" => typed::<SampledFkEstimator<LevelSetCollisions>>(bytes),
        "entropy" => typed::<SampledEntropyEstimator>(bytes),
        "hh_f1" => typed::<SampledF1HeavyHitters>(bytes),
        "hh_f2" => typed::<SampledF2HeavyHitters>(bytes),
        "rusu_dobra_f2" => typed::<RusuDobraF2>(bytes),
        "naive_fk" => typed::<NaiveScaledFk>(bytes),
        "naive_f0" => typed::<NaiveScaledF0>(bytes),
        "adaptive_f2" => typed::<AdaptiveF2Estimator>(bytes),
        "monitor_full" => {
            let m = Monitor::restore(bytes).expect("committed monitor restores");
            (
                m.estimate(Statistic::Fk(2))
                    .expect("registered")
                    .value
                    .to_bits(),
                m.samples_seen(),
                m.checkpoint().expect("restored monitor re-checkpoints"),
            )
        }
        "windowed_monitor" => {
            let w = WindowedMonitor::restore(bytes).expect("committed window restores");
            (
                w.estimate(Statistic::Fk(2))
                    .expect("registered")
                    .value
                    .to_bits(),
                w.window_samples(),
                w.checkpoint().expect("restored window re-checkpoints"),
            )
        }
        other => panic!("fixture '{other}' has no decoder in this test — add one"),
    }
}

/// Shared corpus walk: decode every committed fixture of `version`,
/// check its pinned estimate/provenance bits, and hand the re-encoded
/// bytes to `check_reencoded`.
fn check_corpus(version: u16, check_reencoded: impl Fn(&str, &[u8], Vec<u8>)) {
    let rows = manifest(version);
    assert!(
        rows.len() >= 11,
        "corpus should cover every estimator family, found {}",
        rows.len()
    );
    for (name, row) in &rows {
        let bytes = std::fs::read(fixture_dir(version).join(format!("{name}.bin")))
            .expect("committed fixture");
        assert_eq!(bytes.len(), row.bytes, "{name}: committed size changed");

        let header = match frame_header(&bytes) {
            Err(CodecError::UnsupportedVersion { found, .. }) => panic!(
                "{name}: version {found} fell out of the supported window \
                 [{WIRE_VERSION_MIN}, {WIRE_VERSION}] — old frames must stay decodable"
            ),
            other => other.expect("frame header"),
        };
        assert_eq!(
            header.version, version,
            "{name}: corpus carries its version"
        );
        assert_eq!(header.tag, row.tag, "{name}: wire tag changed");
        assert!(header.payload_len > 0);

        let (estimate_bits, samples_seen, reencoded) = decode_fixture(name, &bytes);
        assert_eq!(
            estimate_bits, row.estimate_bits,
            "{name}: decoded estimate drifted from the pinned bits"
        );
        assert_eq!(samples_seen, row.samples_seen, "{name}: provenance drifted");
        check_reencoded(name, &bytes, reencoded);
    }
}

#[test]
fn committed_v1_corpus_decodes_under_the_v2_codec() {
    check_corpus(1, |name, _original, reencoded| {
        // Re-encoding a v1-decoded state writes the *current* format;
        // the result must be a valid current-version frame that decodes
        // back to the same pinned estimate — the full v1 → v2 migration
        // path, exercised on every committed family.
        let header = frame_header(&reencoded).expect("re-encoded frame header");
        assert_eq!(
            header.version, WIRE_VERSION,
            "{name}: re-encode must write the current version"
        );
        let (bits_a, samples_a, _) = decode_fixture(name, &reencoded);
        let rows = manifest(1);
        let row = &rows[name];
        assert_eq!(
            bits_a, row.estimate_bits,
            "{name}: v1 → v2 re-encode changed the estimate"
        );
        assert_eq!(samples_a, row.samples_seen);
    });
}

#[test]
fn committed_v2_corpus_decodes_and_reencodes_identically() {
    check_corpus(2, |name, original, reencoded| {
        assert_eq!(
            reencoded, original,
            "{name}: decode→encode no longer reproduces the committed bytes"
        );
    });
}

#[test]
fn v2_snapshots_are_at_least_2x_smaller_than_v1() {
    // The compaction target, pinned on the committed corpora (same
    // seeds, same stream, same parameters in both generators): the
    // full-monitor v2 snapshot must stay ≥ 2× smaller than v1.
    let v1 = manifest(1);
    let v2 = manifest(2);
    let (a, b) = (v1["monitor_full"].bytes, v2["monitor_full"].bytes);
    assert!(
        b * 2 <= a,
        "monitor_full: v2 snapshot {b} B is not 2x smaller than v1 {a} B"
    );
    // And the Rusu–Dobra wire-bloat fix specifically (was ~6x state).
    let (a, b) = (v1["rusu_dobra_f2"].bytes, v2["rusu_dobra_f2"].bytes);
    assert!(
        b * 4 <= a,
        "rusu_dobra_f2: v2 snapshot {b} B should be far below v1's {a} B"
    );
}

#[test]
fn corpus_files_match_manifest_exactly() {
    // No orphan fixtures, no missing ones: the directory and the
    // manifest must agree file for file — in both corpora.
    for version in [1u16, 2] {
        let rows = manifest(version);
        let mut on_disk: Vec<String> = std::fs::read_dir(fixture_dir(version))
            .expect("fixture dir")
            .filter_map(|e| {
                let name = e
                    .expect("dir entry")
                    .file_name()
                    .into_string()
                    .expect("utf-8");
                name.strip_suffix(".bin").map(|s| s.to_string())
            })
            .collect();
        on_disk.sort();
        let mut in_manifest: Vec<String> = rows.keys().cloned().collect();
        in_manifest.sort();
        assert_eq!(on_disk, in_manifest, "wire_v{version}");
    }
}
