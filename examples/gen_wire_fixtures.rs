//! Regenerate the committed wire-format fixture corpus for the
//! *current* `WIRE_VERSION`.
//!
//! ```text
//! cargo run --release --example gen_wire_fixtures
//! ```
//!
//! Writes one framed snapshot per estimator family to
//! `tests/fixtures/wire_v<WIRE_VERSION>/`, plus `manifest.tsv` pinning
//! each file's wire tag, estimate bits and sample count.
//! `tests/wire_fixtures.rs` decodes the **committed** bytes on every CI
//! run, so cross-version compatibility is guarded by bytes, not by
//! review.
//!
//! Frozen corpora must NOT be regenerated: `tests/fixtures/wire_v1/`
//! was written by the last version-1 build and is the permanent v1
//! compatibility suite — this generator cannot reproduce it (encoders
//! always write the current version) and must never touch it. When the
//! format moves again, bump `WIRE_VERSION`, rerun this generator (it
//! writes the new `wire_v<N>/` directory) and freeze the previous one
//! exactly like v1. Everything here is deterministic (fixed seeds,
//! fixed parameters), so an unchanged codebase regenerates identical
//! bytes — a handy way to prove a refactor didn't move the format.

use std::fmt::Write as _;
use std::path::Path;

use subsampled_streams::codec::{parse_frame_header, FrameHeader, WireCodec, FRAME_HEADER_BYTES};
use subsampled_streams::core::{
    AdaptiveF2Estimator, MonitorBuilder, NaiveScaledF0, NaiveScaledFk, RusuDobraF2,
    SampledEntropyEstimator, SampledF0Estimator, SampledF1HeavyHitters, SampledF2HeavyHitters,
    SampledFkEstimator, Statistic, SubsampledEstimator,
};
use subsampled_streams::sketch::levelset::LevelSetConfig;
use subsampled_streams::stream::{BernoulliSampler, StreamGen, ZipfStream};
use subsampled_streams::window::{QuerySpec, WindowConfig, WindowedMonitor};

/// Sampling rate baked into every fixture.
const P: f64 = 0.25;

fn sampled_stream() -> Vec<u64> {
    // Small enough to keep the corpus a few hundred KiB, large enough
    // that every estimator has non-trivial state.
    let stream = ZipfStream::new(1 << 12, 1.2).generate(20_000, 42);
    BernoulliSampler::new(P, 43).sample_to_vec(&stream)
}

struct Fixture {
    name: &'static str,
    bytes: Vec<u8>,
    estimate_bits: u64,
    samples_seen: u64,
}

fn fixture<E>(name: &'static str, est: &E) -> Fixture
where
    E: SubsampledEstimator + WireCodec,
{
    Fixture {
        name,
        bytes: est.encode_framed(),
        estimate_bits: SubsampledEstimator::estimate(est).value.to_bits(),
        samples_seen: est.samples_seen(),
    }
}

fn main() {
    let sampled = sampled_stream();
    let mut fixtures = Vec::new();

    let mut f0 = SampledF0Estimator::new(P, 0.05, 1);
    f0.update_batch(&sampled);
    fixtures.push(fixture("f0", &f0));

    let mut fk = SampledFkEstimator::exact(2, P);
    fk.update_batch(&sampled);
    fixtures.push(fixture("fk_exact", &fk));

    let cfg = LevelSetConfig::for_universe(1 << 12, 128);
    let mut fk_s = SampledFkEstimator::sketched(2, P, &cfg, 2);
    fk_s.update_batch(&sampled);
    fixtures.push(fixture("fk_sketched", &fk_s));

    let mut entropy = SampledEntropyEstimator::new(P, 256, 3);
    entropy.update_batch(&sampled);
    fixtures.push(fixture("entropy", &entropy));

    let mut hh1 = SampledF1HeavyHitters::new(0.05, 0.2, 0.05, P, 4);
    hh1.update_batch(&sampled);
    fixtures.push(fixture("hh_f1", &hh1));

    let mut hh2 = SampledF2HeavyHitters::new(0.5, 0.5, 0.3, P, 5);
    hh2.update_batch(&sampled);
    fixtures.push(fixture("hh_f2", &hh2));

    let mut rd = RusuDobraF2::new(P, 7, 96, 6);
    rd.update_batch(&sampled);
    fixtures.push(fixture("rusu_dobra_f2", &rd));

    let mut naive_fk = NaiveScaledFk::new(2, P);
    naive_fk.update_batch(&sampled);
    fixtures.push(fixture("naive_fk", &naive_fk));

    let mut naive_f0 = NaiveScaledF0::new(P, 8);
    naive_f0.update_batch(&sampled);
    fixtures.push(fixture("naive_f0", &naive_f0));

    let mut adaptive = AdaptiveF2Estimator::new(P);
    adaptive.update_batch(&sampled);
    fixtures.push(fixture("adaptive_f2", &adaptive));

    // The full monitor: every registerable family in one snapshot. The
    // pinned estimate is its F2 (exact collision oracle) value.
    let mut monitor = MonitorBuilder::with_seed(P, 7)
        .f0(0.05)
        .fk(2)
        .entropy(256)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.5, 0.5, 0.3)
        .build();
    monitor.update_batch(&sampled);
    fixtures.push(Fixture {
        name: "monitor_full",
        bytes: monitor.checkpoint().expect("checkpoint"),
        estimate_bits: monitor
            .estimate(Statistic::Fk(2))
            .expect("registered")
            .value
            .to_bits(),
        samples_seen: monitor.samples_seen(),
    });

    // The windowed monitor: a bucket ring caught mid-stream (live
    // buckets, retirements behind it, a registered continuous query so
    // the query registry and its runtime state are on the wire). Same
    // raw stream, survivor *positions* as event times — dense unit-tick
    // trace over 10 epochs of span 2000, window of 4. The pinned
    // estimate is the window fold's F2; samples is the live-window count.
    let mut windowed = WindowedMonitor::new(
        MonitorBuilder::with_seed(P, 7)
            .f0(0.05)
            .fk(2)
            .entropy(256)
            .build(),
        WindowConfig::new(4, 2_000),
    );
    windowed.register_query(QuerySpec::threshold("f0_high", "F0", 500.0, true));
    let stream = ZipfStream::new(1 << 12, 1.2).generate(20_000, 42);
    let mut sampler = BernoulliSampler::new(P, 43);
    sampler.sample_indexed(&stream, |i, x| windowed.ingest_at(i as u64, x));
    fixtures.push(Fixture {
        name: "windowed_monitor",
        bytes: windowed.checkpoint().expect("window checkpoint"),
        estimate_bits: windowed
            .estimate(Statistic::Fk(2))
            .expect("registered")
            .value
            .to_bits(),
        samples_seen: windowed.window_samples(),
    });

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!(
        "tests/fixtures/wire_v{}",
        subsampled_streams::codec::WIRE_VERSION
    ));
    std::fs::create_dir_all(&dir).expect("create fixture dir");
    let mut manifest = String::from(
        "# name\twire_tag\testimate_bits\tsamples_seen\tbytes\n# regenerate: cargo run --release --example gen_wire_fixtures\n",
    );
    let mut total = 0usize;
    for f in &fixtures {
        let header = f.bytes[..FRAME_HEADER_BYTES]
            .try_into()
            .expect("own frame header");
        let FrameHeader { version, tag, .. } =
            parse_frame_header(header).expect("own frame header parses");
        assert_eq!(version, subsampled_streams::codec::WIRE_VERSION);
        std::fs::write(dir.join(format!("{}.bin", f.name)), &f.bytes).expect("write fixture");
        writeln!(
            manifest,
            "{}\t{:#06x}\t{:#018x}\t{}\t{}",
            f.name,
            tag,
            f.estimate_bits,
            f.samples_seen,
            f.bytes.len()
        )
        .expect("format");
        total += f.bytes.len();
        println!("{:<16} tag {tag:#06x}  {:>8} bytes", f.name, f.bytes.len());
    }
    std::fs::write(dir.join("manifest.tsv"), manifest).expect("write manifest");
    println!(
        "\nwrote {} fixtures ({} KiB) + manifest.tsv to {}",
        fixtures.len(),
        total / 1024,
        dir.display()
    );
}
