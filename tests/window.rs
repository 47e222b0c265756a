//! The windowed-statistics acceptance battery.
//!
//! The load-bearing claim: a [`WindowedMonitor`]'s fold over the last
//! `W` buckets answers **exactly** what a fresh `Monitor` fed only
//! those items would — bitwise for the exact substrates (bottom-k
//! `F_0`, collision-counting `F_k`) at every retirement pattern, at
//! `p = 1` and under sampling alike (the fold and the fresh monitor
//! see the same surviving multiset, and exact substrates are
//! partition-independent). Entropy merges length-weighted across
//! reseeded per-bucket reservoirs, so it carries a documented tolerance
//! instead. A read folds only the statistic it reads, and answers what
//! the whole-window fold would, bit for bit, in every one of these
//! shapes; rollover alerts carry the same values. Plus: checkpoint →
//! restore → continue-ingesting is bitwise-equal to the never-serialized
//! run, and the continuous-query surface fires (and round-trips)
//! deterministically.

use subsampled_streams::codec::{parse_frame_header, FrameHeader, WireCodec, FRAME_HEADER_BYTES};
use subsampled_streams::core::{Estimate, Monitor, MonitorBuilder, Statistic};
use subsampled_streams::stream::{
    BernoulliSampler, NetFlowStream, PlantedHeavyHitters, StreamGen, TimedStream, ZipfStream,
};
use subsampled_streams::window::{QuerySpec, WindowConfig, WindowedMonitor};

const SPAN: u64 = 1_000;

fn prototype(p: f64) -> Monitor {
    MonitorBuilder::with_seed(p, 4711)
        .f0(0.05)
        .fk(2)
        .entropy(512)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .build()
}

/// Every label's read equals the whole-window fold's estimate in value
/// bits, samples seen and report rows; an unregistered label reads
/// `None`.
fn assert_reads_match_fold(w: &WindowedMonitor, ctx: &str) {
    let rows = |e: &Estimate| -> Vec<(u64, u64)> {
        e.report.iter().map(|&(x, f)| (x, f.to_bits())).collect()
    };
    let fold = w.fold();
    for (label, _) in fold.report() {
        let got = w.estimate_labeled(&label).expect("registered");
        let want = fold.estimate_labeled(&label).expect("registered");
        assert_eq!(got.value.to_bits(), want.value.to_bits(), "{ctx}: {label}");
        assert_eq!(got.samples_seen, want.samples_seen, "{ctx}: {label}");
        assert_eq!(rows(&got), rows(&want), "{ctx}: {label}");
    }
    assert!(w.estimate_labeled("no_such").is_none(), "{ctx}");
}

/// The battery's workloads: heavy-tailed, synthetic netflow, planted.
fn workloads() -> Vec<(&'static str, Box<dyn StreamGen>)> {
    vec![
        ("zipf", Box::new(ZipfStream::new(4_000, 1.2))),
        ("netflow", Box::new(NetFlowStream::new(1 << 14, 1.3, 5_000))),
        (
            "planted",
            Box::new(PlantedHeavyHitters::new(10_000, 8, 0.4)),
        ),
    ]
}

/// Sampled `(ts, item)` survivors of a dense unit-tick trace: item `i`
/// arrives at tick `i`, so epoch boundaries are exact index ranges and
/// the "last W buckets" is a precise suffix of the raw stream.
fn sampled_trace(gen: &dyn StreamGen, n: u64, p: f64, seed: u64) -> Vec<(u64, u64)> {
    let raw = gen.generate(n, seed);
    let mut survivors = Vec::new();
    let mut sampler = BernoulliSampler::new(p, seed ^ 0xabcd);
    sampler.sample_indexed(&raw, |i, x| survivors.push((i as u64, x)));
    survivors
}

/// Feed the trace through a window of `buckets` buckets and through a
/// fresh monitor restricted to the final window range; compare.
fn check_equivalence(name: &str, buckets: usize, p: f64, trace: &[(u64, u64)], epochs: u64) {
    let mut windowed = WindowedMonitor::new(prototype(p), WindowConfig::new(buckets, SPAN));
    for &(ts, x) in trace {
        windowed.ingest_at(ts, x);
    }

    let cur = windowed.cur_epoch();
    assert_eq!(cur, epochs - 1, "{name}: dense trace reaches every epoch");
    let oldest = cur.saturating_sub(buckets as u64 - 1);
    let mut fresh = prototype(p);
    let window_items: Vec<u64> = trace
        .iter()
        .filter(|(ts, _)| ts / SPAN >= oldest)
        .map(|&(_, x)| x)
        .collect();
    fresh.update_batch(&window_items);

    let fold = windowed.fold();
    assert_eq!(
        fold.samples_seen(),
        fresh.samples_seen(),
        "{name}/{buckets}: window covers exactly the suffix"
    );
    assert_reads_match_fold(&windowed, &format!("{name}/{buckets} buckets/p={p}"));
    for stat in [Statistic::F0, Statistic::Fk(2)] {
        let a = fold.estimate(stat).expect("registered").value;
        let b = fresh.estimate(stat).expect("registered").value;
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name}/{buckets} buckets/p={p}: {stat} must be bitwise-equal to fresh"
        );
    }
    // Entropy: same items, but per-bucket reservoirs are reseeded per
    // epoch and merge length-weighted — a documented tolerance, not an
    // exactness claim.
    let ha = fold.estimate(Statistic::Entropy).expect("registered").value;
    let hb = fresh
        .estimate(Statistic::Entropy)
        .expect("registered")
        .value;
    assert!(
        (ha - hb).abs() <= 0.25 * hb.abs().max(1.0),
        "{name}/{buckets}/p={p}: windowed entropy {ha} strayed from fresh {hb}"
    );
}

#[test]
fn windowed_equals_fresh_over_every_retirement_pattern() {
    let epochs = 10u64;
    let n = epochs * SPAN;
    for (name, gen) in workloads() {
        for &p in &[1.0, 0.25] {
            let trace = sampled_trace(gen.as_ref(), n, p, 42);
            for &buckets in &[1usize, 2, 4, 7] {
                check_equivalence(name, buckets, p, &trace, epochs);
            }
        }
    }
}

#[test]
fn sparse_traces_with_empty_epochs_still_match_fresh() {
    // Bursty arrivals: everything lands in epochs {0, 1, 5, 6, 9} —
    // epochs in between never materialise, jumps cross several epochs
    // at once, and one jump (1 -> 5) clears a 4-bucket window whole.
    let gen = ZipfStream::new(2_000, 1.2);
    let raw = gen.generate(5_000, 7);
    let burst_epochs = [0u64, 1, 5, 6, 9];
    let trace: Vec<(u64, u64)> = raw
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let e = burst_epochs[i % burst_epochs.len()];
            // Position within the epoch keeps timestamps increasing
            // inside each burst; the ingest order below is by burst.
            (e * SPAN + (i as u64 / 5) % SPAN, x)
        })
        .collect();
    let mut by_epoch = trace.clone();
    by_epoch.sort_by_key(|&(ts, _)| ts);

    for buckets in [2usize, 4, 7] {
        let mut windowed = WindowedMonitor::new(prototype(1.0), WindowConfig::new(buckets, SPAN));
        for &(ts, x) in &by_epoch {
            windowed.ingest_at(ts, x);
        }
        let oldest = windowed.cur_epoch().saturating_sub(buckets as u64 - 1);
        let mut fresh = prototype(1.0);
        let window_items: Vec<u64> = by_epoch
            .iter()
            .filter(|(ts, _)| ts / SPAN >= oldest)
            .map(|&(_, x)| x)
            .collect();
        fresh.update_batch(&window_items);
        let fold = windowed.fold();
        assert_eq!(
            fold.samples_seen(),
            fresh.samples_seen(),
            "{buckets} buckets"
        );
        for stat in [Statistic::F0, Statistic::Fk(2)] {
            assert_eq!(
                fold.estimate(stat).expect("registered").value.to_bits(),
                fresh.estimate(stat).expect("registered").value.to_bits(),
                "{buckets} buckets: {stat}"
            );
        }
    }
}

#[test]
fn checkpoint_restore_continue_matches_the_never_serialized_run() {
    let p = 0.25;
    let trace = sampled_trace(&TimedStreamless, 12_000, p, 99);
    let (head, tail) = trace.split_at(trace.len() / 2);

    let mut live = WindowedMonitor::new(prototype(p), WindowConfig::new(4, SPAN));
    live.register_query(QuerySpec::delta_vs_prev("jump", "F0", 0.3));
    live.register_query(QuerySpec::change_point("cp", "entropy", 3, 3.0));
    for &(ts, x) in head {
        live.ingest_at(ts, x);
    }

    let snapshot = live.checkpoint().expect("mid-stream checkpoint");
    let mut restored = WindowedMonitor::restore(&snapshot).expect("restores");
    assert_eq!(
        restored.checkpoint().expect("re-checkpoint"),
        snapshot,
        "snapshot is byte-stable through a round trip"
    );
    assert_reads_match_fold(&restored, "restored");

    for &(ts, x) in tail {
        live.ingest_at(ts, x);
        restored.ingest_at(ts, x);
    }
    // The restored window continued *bitwise* — same buckets (forks are
    // pure functions of prototype + epoch), same reservoir RNG state,
    // same query runtime state, same pending alerts.
    assert_eq!(
        live.checkpoint().expect("live"),
        restored.checkpoint().expect("restored"),
        "continue-after-restore must be indistinguishable"
    );
    assert_eq!(live.take_alerts(), restored.take_alerts());
    assert_reads_match_fold(&restored, "restored, then continued");
}

#[test]
fn rollover_alerts_carry_the_full_folds_values() {
    // Level −1.0 is below every estimate, so each query fires at every
    // rollover and its alert reports exactly the value it read. Two
    // queries share `F0`, whose slot folds once per rollover.
    let queries = [("f0_a", "F0"), ("h", "entropy"), ("f0_b", "F0")];
    let mut w = WindowedMonitor::new(prototype(0.5), WindowConfig::new(3, SPAN));
    for (name, label) in queries {
        w.register_query(QuerySpec::threshold(name, label, -1.0, true));
    }
    let mut trace = sampled_trace(&ZipfStream::new(2_000, 1.2), 6 * SPAN, 0.5, 8);
    // Then one jump past the whole window: a single evaluation.
    trace.push((20 * SPAN, 1));

    let mut crossings = 0;
    for &(ts, x) in &trace {
        if !(w.started() && w.epoch_of(ts) > w.cur_epoch()) {
            w.ingest_at(ts, x);
            continue;
        }
        let fold = w.fold();
        let want: Vec<(&str, &str, u64, u64)> = queries
            .iter()
            .map(|&(name, label)| {
                let value = fold.estimate_labeled(label).expect("registered").value;
                (name, label, w.cur_epoch(), value.to_bits())
            })
            .collect();
        w.ingest_at(ts, x);
        let alerts = w.take_alerts();
        let got: Vec<(&str, &str, u64, u64)> = alerts
            .iter()
            .map(|a| {
                (
                    a.query.as_str(),
                    a.label.as_str(),
                    a.epoch,
                    a.value.to_bits(),
                )
            })
            .collect();
        assert_eq!(got, want, "crossing out of epoch {}", want[0].2);
        crossings += 1;
    }
    assert_eq!(crossings, 6, "five epoch steps and one jump");
    assert_eq!(w.bucket_epochs(), vec![20]);
}

/// A tiny local generator for the restore test: zipf items, used via
/// the same `sampled_trace` helper.
struct TimedStreamless;
impl StreamGen for TimedStreamless {
    fn universe(&self) -> u64 {
        3_000
    }
    fn emit(&self, n: u64, seed: u64, f: &mut dyn FnMut(u64)) {
        ZipfStream::new(3_000, 1.1).emit(n, seed, f)
    }
}

#[test]
fn event_time_trace_drives_windows_through_timed_stream() {
    // The event-time hook end to end: a TimedStream netflow trace with
    // mean gap 3 ticks, sampled at the window's rate, windows of 5
    // epochs — counters and clock line up with the trace's final tick.
    let p = 0.5;
    let timed = TimedStream::new(NetFlowStream::new(1 << 12, 1.3, 2_000), 3.0);
    let trace = timed.generate(20_000, 11);
    let mut sampler = BernoulliSampler::new(p, 12);
    let mut w = WindowedMonitor::new(prototype(p), WindowConfig::new(5, 2_000));
    let mut survivors = 0u64;
    for &(ts, x) in &trace {
        if sampler.keep() {
            w.ingest_at(ts, x);
            survivors += 1;
        }
    }
    let last_ts = trace.last().expect("nonempty").0;
    assert_eq!(w.cur_epoch(), last_ts / 2_000);
    assert_eq!(w.total_ingested(), survivors);
    assert!(w.estimate(Statistic::F0).expect("registered").value > 0.0);
}

#[test]
fn continuous_queries_flag_a_planted_dispersion_anomaly() {
    // Calm zipf epochs, then two scan epochs of fresh addresses each —
    // F0 jumps an order of magnitude; threshold + delta queries must
    // fire in the scan epochs and stay silent before them.
    let p = 1.0;
    let mut w = WindowedMonitor::new(prototype(p), WindowConfig::new(1, SPAN));
    w.register_query(QuerySpec::threshold("f0_high", "F0", 400.0, true));
    w.register_query(QuerySpec::delta_vs_prev("f0_jump", "F0", 1.0));

    let calm = ZipfStream::new(64, 1.5); // few distinct destinations
    for epoch in 0..8u64 {
        let items: Vec<u64> = if epoch == 5 || epoch == 6 {
            (0..SPAN).map(|i| 1_000_000 + epoch * SPAN + i).collect()
        } else {
            calm.generate(SPAN, 100 + epoch)
        };
        for (i, &x) in items.iter().enumerate() {
            w.ingest_at(epoch * SPAN + i as u64, x);
        }
    }
    w.advance_to(8); // close the final epoch so its queries run
    let alerts = w.take_alerts();
    let fired: Vec<u64> = alerts.iter().map(|a| a.epoch).collect();
    assert!(
        fired.iter().all(|&e| (5..=7).contains(&e)),
        "alerts outside the anomaly: {fired:?}"
    );
    assert!(
        alerts.iter().any(|a| a.query == "f0_high" && a.epoch == 5),
        "threshold must fire in the first scan epoch: {alerts:?}"
    );
    assert!(
        alerts.iter().any(|a| a.query == "f0_jump"),
        "delta-vs-prev must catch the jump: {alerts:?}"
    );
}

#[test]
fn windowed_snapshot_frames_carry_the_0x06_tag_range() {
    let mut w = WindowedMonitor::new(prototype(0.5), WindowConfig::new(3, SPAN));
    for ts in 0..3 * SPAN {
        if ts % 2 == 0 {
            w.ingest_at(ts, ts % 97);
        }
    }
    let bytes = w.checkpoint().expect("checkpoint");
    let header = bytes[..FRAME_HEADER_BYTES]
        .try_into()
        .expect("frame header");
    let FrameHeader { version, tag, .. } = parse_frame_header(header).expect("frame header");
    assert_eq!(version, subsampled_streams::codec::WIRE_VERSION);
    assert_eq!(tag, WindowedMonitor::WIRE_TAG);
    assert_eq!(tag >> 8, 0x06, "window tags live in the 0x06xx range");
}
