//! Metrics computed from a [`Recorder`], and the result lines.
//!
//! `BENCHMARK.json` is the metric table: it declares every metric's
//! name and unit. The functions here compute values by name, and
//! [`units`] refuses a set of values that does not match the
//! declaration name for name, in order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use sss_bench::stats::quantile;

use crate::workloads::Recorder;

/// `BENCHMARK.json`, compiled in so a build checks itself against the
/// declaration it was built with.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the `section` array
/// (`"end_to_end"` or `"per_layer"`) of `BENCHMARK.json`.
pub fn declared(section: &str) -> Vec<(String, String)> {
    let text = BENCHMARK_JSON;
    let key = format!("\"{section}\"");
    let start = text.find(&key).expect("section present in BENCHMARK.json") + key.len();
    let body = &text[start..];
    let open = body.find('[').expect("section is an array");
    let close = open + body[open..].find(']').expect("array closes");
    body[open..close]
        .split('}')
        .filter_map(|obj| Some((string_field(obj, "name")?, string_field(obj, "unit")?)))
        .collect()
}

/// The string value of `"field": "..."` inside one flat JSON object.
fn string_field(obj: &str, field: &str) -> Option<String> {
    let key = format!("\"{field}\"");
    let rest = &obj[obj.find(&key)? + key.len()..];
    let rest = rest.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    Some(rest[..rest.find('"')?].to_string())
}

/// The declared unit of each value, or the mismatch when `values` do
/// not name exactly the metrics of `section`, in declaration order.
pub fn units(section: &str, values: &[Value]) -> Result<Vec<String>, String> {
    let declared = declared(section);
    let emitted: Vec<&str> = values.iter().map(|v| v.name).collect();
    let names: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
    if emitted != names {
        return Err(format!(
            "{section}: program emits {emitted:?}\n  BENCHMARK.json declares {names:?}"
        ));
    }
    Ok(declared.into_iter().map(|(_, unit)| unit).collect())
}

/// One computed metric.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measurement.
    pub value: f64,
    /// How many samples it summarises.
    pub samples: u64,
}

fn val(name: &'static str, (value, samples): (f64, u64)) -> Value {
    Value {
        name,
        value,
        samples,
    }
}

/// Duration, self-time and work totals of the spans sharing a name.
#[derive(Default)]
struct Agg {
    dur_ms: Vec<f64>,
    dur_ns: u64,
    self_ns: u64,
    work: u64,
}

fn by_name(rec: &Recorder) -> BTreeMap<&'static str, Agg> {
    let mut out: BTreeMap<&'static str, Agg> = BTreeMap::new();
    let spans = rec.tracer.spans();
    for (s, own) in spans.iter().zip(rec.tracer.self_ns()) {
        let a = out.entry(s.name).or_default();
        a.dur_ms.push(s.dur_ns() as f64 / 1e6);
        a.dur_ns += s.dur_ns();
        a.self_ns += own;
        a.work += s.work;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// `q`-quantile of a sample with its size.
fn pct(xs: &[f64], q: f64) -> (f64, u64) {
    (quantile(xs, q), xs.len() as u64)
}

/// A scalar a workload set, 0 when the workload bypasses its layer.
fn counter(rec: &Recorder, name: &str) -> (f64, u64) {
    let v = rec
        .values
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |(_, v)| *v);
    (v, 1)
}

/// The untraced run's metrics.
pub fn end_to_end(rec: &Recorder, peak_rss_mib: f64) -> Vec<Value> {
    let rounds = rec.query_ms.len() as u64;
    vec![
        val(
            "throughput_melem_s",
            (
                ratio(rec.raw_total() as f64 * 1e3, rec.timed_ns as f64),
                rounds,
            ),
        ),
        val("freshness_p50_ms", pct(&rec.freshness_ms, 0.5)),
        val("query_p50_ms", pct(&rec.query_ms, 0.5)),
        val("state_bytes", counter(rec, "state_bytes")),
        val("peak_rss_mib", (peak_rss_mib, 1)),
        val("setup_s", pct(&rec.setup_s, 0.5)),
    ]
}

/// The traced run's metrics. A layer a workload bypasses reads 0.
pub fn per_layer(rec: &Recorder) -> Vec<Value> {
    let spans = by_name(rec);
    let empty = Agg::default();
    let agg = |name: &str| spans.get(name).unwrap_or(&empty);
    let n = |name: &str| agg(name).dur_ms.len() as u64;
    let p50 = |name: &str| (quantile(&agg(name).dur_ms, 0.5), n(name));
    let p95 = |name: &str| (quantile(&agg(name).dur_ms, 0.95), n(name));
    let ns_per_work = |name: &str| {
        let a = agg(name);
        (ratio(a.dur_ns as f64, a.work as f64), n(name))
    };
    let mean_work = |name: &str| (ratio(agg(name).work as f64, n(name) as f64), n(name));
    let mib_s = |name: &str| {
        let a = agg(name);
        let mib = a.work as f64 / (1u64 << 20) as f64;
        (ratio(mib * 1e9, a.dur_ns as f64), n(name))
    };
    let count = |name: &str| counter(rec, name);

    let samples = n("stream.sample");
    let sample = agg("stream.sample");
    let survivors: u64 = ["core.update_batch", "window.ingest", "window.rollover"]
        .iter()
        .map(|s| agg(s).work)
        .sum();
    let slot = |i: usize| {
        let (nanos, items) = rec.slot_delta.get(i).copied().unwrap_or((0, 0));
        (ratio(nanos as f64, items as f64), items)
    };
    let top_level_ns: u64 = rec
        .tracer
        .spans()
        .iter()
        .filter(|s| s.parent == 0 && !s.shadow)
        .map(|s| s.dur_ns())
        .sum();
    let [raw_untraced, raw_traced] = rec.round_raw;
    let [ns_untraced, ns_traced] = rec.round_ns;
    let rate_untraced = ratio(raw_untraced as f64, ns_untraced as f64);
    let rate_traced = ratio(raw_traced as f64, ns_traced as f64);

    vec![
        val(
            "stream.sample_ns_per_raw",
            (ratio(sample.self_ns as f64, sample.work as f64), samples),
        ),
        val("stream.survivors", (survivors as f64, samples)),
        val("core.update_ns_per_item", ns_per_work("core.update_batch")),
        val("core.slot_ns_per_item.f0", slot(0)),
        val("core.slot_ns_per_item.fk2", slot(1)),
        val("core.slot_ns_per_item.entropy", slot(2)),
        val("core.slot_ns_per_item.hh_f1", slot(3)),
        val("core.slot_ns_per_item.hh_f2", slot(4)),
        val("core.checkpoint_ms_p50", p50("core.checkpoint")),
        val("core.checkpoint_bytes", mean_work("core.checkpoint")),
        val("core.merge_probe_ms_p50", p50("core.merge_probe")),
        val("core.report_ms_p50", p50("core.report")),
        val("delta.diff_ms_p50", p50("delta.diff")),
        val("delta.apply_ms_p50", p50("delta.apply")),
        val("delta.bytes_per_push", mean_work("delta.diff")),
        val("codec.restore_ms_p50", p50("codec.restore")),
        val("codec.encode_mib_s", mib_s("core.checkpoint")),
        val("codec.decode_mib_s", mib_s("codec.restore")),
        val("transport.push_wire_ms_p50", p50("transport.push_wire")),
        val("transport.push_wire_ms_p95", p95("transport.push_wire")),
        val("transport.wire_residual_ms_p50", pct(&rec.residual_ms, 0.5)),
        val("transport.merged_ms_p50", p50("transport.merged")),
        val(
            "transport.wire_bytes_per_push",
            count("transport.wire_bytes_per_push"),
        ),
        val(
            "transport.bytes_in_per_push",
            count("transport.bytes_in_per_push"),
        ),
        val("transport.pushes_full", count("transport.pushes_full")),
        val("transport.pushes_delta", count("transport.pushes_delta")),
        val(
            "transport.delta_fallbacks",
            count("transport.delta_fallbacks"),
        ),
        val("transport.retries", count("transport.retries")),
        val("transport.rejected", count("transport.rejected")),
        val("window.ingest_ns_per_item", ns_per_work("window.ingest")),
        val("window.rollover_ms_p50", p50("window.rollover")),
        val("window.estimate_ms_p50", p50("window.estimate")),
        val("window.fold_ms_p50", p50("window.fold")),
        val("window.live_buckets", count("window.live_buckets")),
        val("window.rollovers", count("window.rollovers")),
        val("window.alerts", count("window.alerts")),
        val("pipeline.push_ms_p50", pct(&rec.push_ms, 0.5)),
        val("pipeline.push_ms_p95", pct(&rec.push_ms, 0.95)),
        val("pipeline.freshness_p95_ms", pct(&rec.freshness_ms, 0.95)),
        val("pipeline.query_p95_ms", pct(&rec.query_ms, 0.95)),
        val(
            "trace.stage_sum_ratio",
            (ratio(top_level_ns as f64, ns_traced as f64), samples),
        ),
        val(
            "trace.overhead_ratio",
            (ratio(rate_untraced, rate_traced), 2),
        ),
    ]
}

/// Format a measured number as JSON, with every digit it has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    format!("{v}")
}

/// The result lines: a human-readable table and a detail JSON object
/// (with sample counts, host stamp and checks), then — as the last
/// line — the summary object `{correct, attempted, failed, metrics}`.
/// `units` are the declared units of `values`, from [`units`].
pub fn render(
    workload: &str,
    host_json: &str,
    rec: &Recorder,
    values: &[Value],
    units: &[String],
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== {workload}: {} raw elements in {:.2} s of timed phase ==",
        rec.raw_total(),
        rec.timed_ns as f64 / 1e9
    );
    let _ = writeln!(
        out,
        "{:<34} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for (v, unit) in values.iter().zip(units) {
        let _ = writeln!(
            out,
            "{:<34} {:>16.4} {:<8} {:>8}",
            v.name, v.value, unit, v.samples
        );
    }
    for (what, ok) in &rec.checks {
        let _ = writeln!(out, "check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let metric = |v: &Value, unit: &str, samples: bool| {
        let extra = if samples {
            format!(", \"samples\": {}", v.samples)
        } else {
            String::new()
        };
        format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{unit}\"{extra}}}",
            v.name,
            num(v.value)
        )
    };
    let all = |samples: bool| -> Vec<String> {
        values
            .iter()
            .zip(units)
            .map(|(v, u)| metric(v, u, samples))
            .collect()
    };
    let checks: Vec<String> = rec
        .checks
        .iter()
        .map(|(what, ok)| {
            format!(
                "{{\"check\": \"{}\", \"ok\": {ok}}}",
                what.replace('"', "'")
            )
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"workload\": \"{workload}\", \"host\": {host_json}, \"metrics\": {{{}}}, \"checks\": [{}]}}",
        all(true).join(", "),
        checks.join(", ")
    );
    let _ = writeln!(
        out,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.correct(),
        rec.attempted,
        rec.failed,
        all(false).join(", ")
    );
    out
}
