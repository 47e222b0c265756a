//! The four workloads and the bookkeeping they share.
//!
//! Every workload is a closed loop driven by one generator thread: the
//! next ingest, push or query starts only after the previous call
//! returned, which is how a site blocked on its collector's ack
//! behaves. The collector's accept and handler threads are the
//! program's own.
//!
//! A workload runs a fixed number of rounds derived from `--seconds`,
//! so the same arguments always do the same work and two builds are
//! compared on identical inputs. In a traced run, about half the
//! rounds record spans and the rest do not; comparing the two gives
//! the tracing overhead.

use std::hint::black_box;
use std::time::Instant;

use sss_core::{apply_snapshot_delta, snapshot_delta, Estimate, Monitor, MonitorBuilder};
use sss_obs::MetricId;
use sss_stream::BernoulliSampler;
use sss_transport::{ClientStats, CollectorServer, SiteClient, TransportStats};

use crate::trace::Tracer;

pub mod fleet;
pub mod site;
pub mod window;

/// Sampling probability of every workload.
pub const P: f64 = 0.25;

/// Survivors per `Monitor::update_batch` call.
pub const SURVIVOR_CHUNK: usize = 4096;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Estimator slots of [`prototype`]: f0, fk2, entropy, hh_f1 and hh_f2,
/// in `wire_layout` order.
const SLOTS: u64 = 5;

/// The workload names, in the order a full run executes them.
pub const NAMES: [&str; 4] = [
    "site_ingest",
    "fleet_delta",
    "fleet_full",
    "window_dashboard",
];

/// Workload sizes: `Full` is the benchmark, `Tiny` a seconds-long
/// smoke run of the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Rounds derived from `--seconds`.
    Full {
        /// The requested run length.
        seconds: u64,
    },
    /// Small inputs and a handful of rounds.
    Tiny,
}

/// Rounds that fill about `seconds` of timed phase for a workload
/// calibrated at `per_second` rounds per second.
pub fn rounds_for(seconds: u64, per_second: f64) -> u32 {
    ((seconds as f64 * per_second).round() as u32).max(4)
}

/// The full five-statistic monitor every workload runs.
pub fn prototype() -> Monitor {
    MonitorBuilder::with_seed(P, 7)
        .f0(0.05)
        .fk(2)
        .entropy(2000)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.3, 0.2, 0.05)
        .build()
}

/// A seed for `purpose` (and `index` within it) derived from the run's
/// `--seed`, so stream contents and sampler coins never share a seed.
pub fn derive_seed(seed: u64, purpose: u64, index: u64) -> u64 {
    sss_hash::split_seed(sss_hash::split_seed(seed, purpose), index)
}

/// Seed purposes for [`derive_seed`].
pub mod purpose {
    /// Generated input stream.
    pub const STREAM: u64 = 1;
    /// Bernoulli sampler coins.
    pub const SAMPLER: u64 = 2;
}

/// One report row as `(label, value bits, samples seen, heavy-hitter
/// `(item, estimate bits)` pairs)`.
pub type RowBits = (String, u64, u64, Vec<(u64, u64)>);

/// A report reduced to bits, so two reports compare bitwise.
pub fn report_bits(rows: &[(String, Estimate)]) -> Vec<RowBits> {
    rows.iter()
        .map(|(label, e)| {
            (
                label.clone(),
                e.value.to_bits(),
                e.samples_seen,
                e.report.iter().map(|(x, f)| (*x, f.to_bits())).collect(),
            )
        })
        .collect()
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Everything one workload run measures.
pub struct Recorder {
    /// Spans of the traced rounds.
    pub tracer: Tracer,
    traced_run: bool,
    /// One entry per set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Newest raw batch handed to the sampler → query answer covering
    /// it returned, ms.
    pub freshness_ms: Vec<f64>,
    /// The query call alone, ms.
    pub query_ms: Vec<f64>,
    /// `checkpoint` + `push_wire` per site push, ms.
    pub push_ms: Vec<f64>,
    /// `push_wire` minus the shadow re-runs of the collector's work, ms
    /// (negative when the re-runs cost more than the push did).
    pub residual_ms: Vec<f64>,
    /// Raw elements offered in [untraced, traced] rounds.
    pub round_raw: [u64; 2],
    /// Wall time of [untraced, traced] rounds, ns.
    pub round_ns: [u64; 2],
    /// Wall time of the whole timed phase, ns.
    pub timed_ns: u64,
    timed_start: Option<Instant>,
    slots_at_start: Vec<(u64, u64)>,
    /// Per-slot `(nanos, items)` sampled by the monitor during the
    /// timed phase.
    pub slot_delta: Vec<(u64, u64)>,
    /// Scalar metrics a workload sets directly (state size, counters).
    pub values: Vec<(&'static str, f64)>,
    /// Operations attempted: pushes, queries and correctness checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Correctness checks, `(description, passed)`.
    pub checks: Vec<(String, bool)>,
}

impl Recorder {
    /// A recorder for a traced or untraced run.
    pub fn new(traced_run: bool) -> Self {
        Self {
            tracer: Tracer::new(),
            traced_run,
            setup_s: Vec::new(),
            freshness_ms: Vec::new(),
            query_ms: Vec::new(),
            push_ms: Vec::new(),
            residual_ms: Vec::new(),
            round_raw: [0; 2],
            round_ns: [0; 2],
            timed_ns: 0,
            timed_start: None,
            slots_at_start: Vec::new(),
            slot_delta: Vec::new(),
            values: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: Vec::new(),
        }
    }

    /// Run `setup` [`SETUP_REPS`] times, timing each, and keep the last
    /// result. The previous result is dropped before the next
    /// repetition starts, so at most one set-up is alive at a time.
    pub fn setup<T>(&mut self, mut setup: impl FnMut() -> T) -> T {
        let mut kept: Option<T> = None;
        for _ in 0..SETUP_REPS {
            drop(kept.take());
            let t0 = Instant::now();
            let s = setup();
            self.setup_s.push(t0.elapsed().as_secs_f64());
            kept = Some(s);
        }
        kept.expect("SETUP_REPS >= 1")
    }

    /// Start the timed phase.
    pub fn start_timed(&mut self) {
        self.slots_at_start = slot_counters();
        self.timed_start = Some(Instant::now());
    }

    /// End the timed phase.
    pub fn end_timed(&mut self) {
        let t0 = self.timed_start.expect("start_timed() first");
        self.timed_ns = t0.elapsed().as_nanos() as u64;
        self.slot_delta = slot_counters()
            .iter()
            .zip(&self.slots_at_start)
            .map(|(end, start)| (end.0 - start.0, end.1 - start.1))
            .collect();
    }

    /// Start round `round`. In a traced run, a hash of the round number
    /// picks about half the rounds to record spans; a hash rather than
    /// plain alternation, so periodic work (a window rollover every 4th
    /// round) does not land on one side only.
    pub fn begin_round(&mut self, round: u32) -> Instant {
        let traced = self.traced_run && sss_hash::split_seed(0, u64::from(round)) & 1 == 0;
        self.tracer.set_round(round, traced);
        Instant::now()
    }

    /// Close the round started at `t0`, which offered `raw` elements.
    pub fn end_round(&mut self, t0: Instant, raw: u64) {
        let i = usize::from(self.tracer.active());
        self.round_ns[i] += t0.elapsed().as_nanos() as u64;
        self.round_raw[i] += raw;
    }

    /// Count one operation and whether it succeeded.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Record a correctness check (it also counts as an operation).
    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        let what = what.into();
        if !ok {
            eprintln!("correctness check failed: {what}");
        }
        self.op(ok);
        self.checks.push((what, ok));
    }

    /// Set a scalar metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// No operation failed and every correctness check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Raw elements offered in the timed phase.
    pub fn raw_total(&self) -> u64 {
        self.round_raw[0] + self.round_raw[1]
    }
}

/// `(nanos, items)` of the monitor's sampled per-slot timings, slot
/// order.
fn slot_counters() -> Vec<(u64, u64)> {
    let obs = sss_obs::global();
    (0..SLOTS)
        .map(|slot| {
            (
                obs.labeled_value(MetricId::IngestSlotSampledNanosTotal, slot),
                obs.labeled_value(MetricId::IngestSlotSampledItemsTotal, slot),
            )
        })
        .collect()
}

/// Record the timed phase's delivery counters from the sites' client
/// stats and the collector's stats before and after it. Retries and
/// collector rejections count as failed operations.
pub fn record_transport(
    rec: &mut Recorder,
    before: &[ClientStats],
    after: &[ClientStats],
    server_before: &TransportStats,
    server_after: &TransportStats,
) {
    let sum = |f: fn(&ClientStats) -> u64| -> u64 {
        after.iter().zip(before).map(|(a, b)| f(a) - f(b)).sum()
    };
    let pushed = sum(|s| s.snapshots_pushed);
    let delta = sum(|s| s.snapshots_delta);
    let retries = sum(|s| s.retries);
    let rejected = server_after.rejected_total() - server_before.rejected_total();
    let accepted = server_after.snapshots_accepted - server_before.snapshots_accepted;
    let bytes_in = server_after.bytes_in - server_before.bytes_in;
    let per = |bytes: u64, n: u64| if n == 0 { 0.0 } else { bytes as f64 / n as f64 };
    rec.set("transport.pushes_full", (pushed - delta) as f64);
    rec.set("transport.pushes_delta", delta as f64);
    rec.set(
        "transport.delta_fallbacks",
        sum(|s| s.delta_fallbacks) as f64,
    );
    rec.set("transport.retries", retries as f64);
    rec.set("transport.rejected", rejected as f64);
    rec.set(
        "transport.wire_bytes_per_push",
        per(sum(|s| s.bytes_out), pushed),
    );
    rec.set("transport.bytes_in_per_push", per(bytes_in, accepted));
    rec.attempted += retries + rejected;
    rec.failed += retries + rejected;
}

/// Hand `raw` to the sampler and its survivors to `monitor`, in spans
/// `stream.sample` and `core.update_batch`.
pub fn ingest(
    tracer: &mut Tracer,
    sampler: &mut BernoulliSampler,
    raw: &[u64],
    monitor: &mut Monitor,
) {
    tracer.open("stream.sample");
    sampler.sample_batches(raw, SURVIVOR_CHUNK, |chunk| {
        tracer.open("core.update_batch");
        monitor.update_batch(chunk);
        tracer.close(chunk.len() as u64);
    });
    tracer.close(raw.len() as u64);
}

/// One site push, as [`settle_push`] needs it after the round.
pub struct Push {
    /// The pushed snapshot, kept in a traced run for the shadow re-runs.
    kept: Option<Vec<u8>>,
    push_ns: u64,
    sent_delta: bool,
}

/// Checkpoint `monitor` and push the snapshot through `client`, in
/// spans `core.checkpoint` and `transport.push_wire`.
pub fn checkpoint_and_push(rec: &mut Recorder, monitor: &Monitor, client: &mut SiteClient) -> Push {
    let t0 = Instant::now();
    rec.tracer.open("core.checkpoint");
    let snapshot = monitor.checkpoint().expect("checkpoint");
    rec.tracer.close(snapshot.len() as u64);
    let kept = rec.traced_run.then(|| snapshot.clone());
    let deltas_before = client.stats().snapshots_delta;
    rec.tracer.open("transport.push_wire");
    let pushed = client.push_wire(snapshot);
    let push_ns = rec.tracer.close(0);
    rec.push_ms.push(ms_since(t0));
    rec.op(pushed.is_ok());
    Push {
        kept,
        push_ns,
        sent_delta: client.stats().snapshots_delta > deltas_before,
    }
}

/// The reader's query, `merged()` + `report()`, in spans
/// `transport.merged` and `core.report`; `newest` is when the newest raw
/// batch it covers was handed to the sampler.
pub fn query_merged(rec: &mut Recorder, server: &CollectorServer, newest: Instant) {
    let t0 = Instant::now();
    rec.tracer.open("transport.merged");
    let view = server.merged();
    rec.tracer.close(0);
    rec.tracer.open("core.report");
    let rows = black_box(view.report());
    rec.tracer.close(rows.len() as u64);
    rec.query_ms.push(ms_since(t0));
    rec.freshness_ms.push(ms_since(newest));
    rec.op(!rows.is_empty());
}

/// After the round closed: in a traced round, re-run the collector's
/// work on `push` as shadow spans and record the wire residual. `acked`
/// (the client's diff base, when `diffed`) becomes the pushed snapshot.
pub fn settle_push(
    rec: &mut Recorder,
    proto: &Monitor,
    acked: &mut Vec<u8>,
    diffed: bool,
    push: Push,
) {
    let Some(snapshot) = push.kept else {
        return;
    };
    if rec.tracer.active() {
        let base = diffed.then_some(acked.as_slice());
        let shadow_ns = shadow_accept(&mut rec.tracer, proto, base, &snapshot, push.sent_delta);
        // Signed: shadows re-run after the round, on colder caches, and
        // can cost more than the push itself did.
        rec.residual_ms
            .push((push.push_ns as f64 - shadow_ns as f64) / 1e6);
    }
    *acked = snapshot;
}

/// Re-run what the collector did with one push, as shadow spans: the
/// client's diff against the last acked snapshot (when deltas are on),
/// the collector's delta apply (when the push travelled as a delta),
/// the snapshot decode, and the clone + `try_merge` accept probe.
/// Returns the shadow spans' total ns.
fn shadow_accept(
    tracer: &mut Tracer,
    proto: &Monitor,
    base: Option<&[u8]>,
    snapshot: &[u8],
    sent_delta: bool,
) -> u64 {
    let mut ns = 0;
    if let Some(base) = base {
        let (delta, diff_ns) = tracer.shadow(
            "delta.diff",
            || snapshot_delta(base, snapshot),
            |d| d.len() as u64,
        );
        ns += diff_ns;
        if sent_delta {
            let (_, apply_ns) = tracer.shadow(
                "delta.apply",
                || apply_snapshot_delta(base, &delta),
                |_| snapshot.len() as u64,
            );
            ns += apply_ns;
        }
    }
    let (decoded, restore_ns) = tracer.shadow(
        "codec.restore",
        || Monitor::restore(snapshot),
        |_| snapshot.len() as u64,
    );
    ns += restore_ns;
    if let Ok(decoded) = decoded {
        let (_, probe_ns) = tracer.shadow(
            "core.merge_probe",
            || {
                let mut view = proto.clone();
                view.try_merge(&decoded).is_ok()
            },
            |_| 0,
        );
        ns += probe_ns;
    }
    ns
}
