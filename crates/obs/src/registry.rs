//! The metrics registry: one atomic slot per table entry, lock-free on
//! the write path, internally-consistent snapshots on read.
//!
//! Storage is slot-indexed by [`MetricId`] discriminant: counters and
//! gauges are single `AtomicU64`s (gauges reinterpret the bits as
//! `i64`), histograms are 65 log2 buckets plus a sum. Every recording
//! method is a relaxed atomic RMW guarded by one `enabled` load — the
//! kill-switch `bench_obs` flips to price the instrumentation, and the
//! reason the overhead budget is enforceable rather than aspirational.
//!
//! Snapshot consistency: a histogram's count is *derived* from the sum
//! of its bucket reads, so a snapshot can never show `count` and
//! `buckets` disagreeing, even while writers race. Cross-metric
//! atomicity is explicitly not promised (and not needed for
//! monitoring).
//!
//! Labeled rows (`name{site="3"}`-style) live in a mutexed map of
//! `Arc<AtomicU64>` cells: resolving a handle takes the lock once,
//! after which updates through the `Arc` are lock-free — the pattern
//! the transport uses for its per-site rows.

use crate::events::{EventKind, EventRing, TraceEvent};
use crate::names::{MetricId, MetricKind, ALL_METRICS};
use crate::wire::{EventSnapshot, HistSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 buckets: value 0, then one bucket per bit position.
pub const HIST_BUCKETS: usize = 65;

/// The log2 bucket index of a value: 0 maps to bucket 0, otherwise
/// `64 - leading_zeros` — bucket `i ≥ 1` covers `[2^(i-1), 2^i - 1]`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the top one).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One log2 histogram: 65 atomic buckets plus an atomic sum.
struct Hist {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
}

impl Hist {
    fn new() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    fn snapshot(&self, id: MetricId) -> HistSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c != 0 {
                buckets.push((i as u8, c));
            }
        }
        HistSnapshot {
            name: id.name().to_string(),
            sum: self.sum.load(Ordering::Relaxed),
            buckets,
        }
    }
}

/// The process-wide (or per-collector) metrics registry.
pub struct Registry {
    on: AtomicBool,
    epoch: Instant,
    slots: Vec<AtomicU64>,
    hists: Vec<Hist>,
    /// `MetricId` discriminant → index into `hists` (`usize::MAX` for
    /// non-histogram slots).
    hist_slot: Vec<usize>,
    labeled: Mutex<BTreeMap<(u16, u64), Arc<AtomicU64>>>,
    ring: Mutex<EventRing>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.enabled())
            .field("session_ms", &self.session_ms())
            .finish_non_exhaustive()
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry the layer instrumentation records into.
/// Collectors that want isolation (parallel tests, multi-tenant
/// processes) construct their own [`Registry`] instead.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

impl Registry {
    /// A fresh registry with the default event-ring capacity (256).
    pub fn new() -> Self {
        Self::with_events_capacity(256)
    }

    /// A fresh registry whose event ring holds `cap` events.
    pub fn with_events_capacity(cap: usize) -> Self {
        let mut hist_slot = vec![usize::MAX; MetricId::COUNT];
        let mut hists = Vec::new();
        for (i, id) in ALL_METRICS.iter().enumerate() {
            if id.kind() == MetricKind::Histogram {
                hist_slot[i] = hists.len();
                hists.push(Hist::new());
            }
        }
        Registry {
            on: AtomicBool::new(true),
            epoch: Instant::now(),
            slots: (0..MetricId::COUNT).map(|_| AtomicU64::new(0)).collect(),
            hists,
            hist_slot,
            labeled: Mutex::new(BTreeMap::new()),
            ring: Mutex::new(EventRing::new(cap)),
        }
    }

    /// Whether recording is live. Every write-path method loads this
    /// first and no-ops when false.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// Flip the kill-switch. `bench_obs` prices instrumentation by
    /// running the same workload with this on and off.
    pub fn set_enabled(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Milliseconds since this registry was created — the monotonic
    /// session-relative clock events and `*_last_seen_ms` rows use.
    pub fn session_ms(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_millis()).unwrap_or(u64::MAX)
    }

    // ── write path ───────────────────────────────────────────────

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, id: MetricId, n: u64) {
        if self.enabled() {
            debug_assert_eq!(id.kind(), MetricKind::Counter, "{id:?} is not a counter");
            self.slots[id as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1 to a counter.
    #[inline]
    pub fn inc(&self, id: MetricId) {
        self.add(id, 1);
    }

    /// Add a (possibly negative) delta to a gauge.
    #[inline]
    pub fn gauge_add(&self, id: MetricId, d: i64) {
        if self.enabled() {
            debug_assert_eq!(id.kind(), MetricKind::Gauge, "{id:?} is not a gauge");
            self.slots[id as usize].fetch_add(d as u64, Ordering::Relaxed);
        }
    }

    /// Set a gauge to an absolute value.
    #[inline]
    pub fn gauge_set(&self, id: MetricId, v: i64) {
        if self.enabled() {
            debug_assert_eq!(id.kind(), MetricKind::Gauge, "{id:?} is not a gauge");
            self.slots[id as usize].store(v as u64, Ordering::Relaxed);
        }
    }

    /// Record one value into a histogram.
    #[inline]
    pub fn observe(&self, id: MetricId, v: u64) {
        if self.enabled() {
            debug_assert_eq!(
                id.kind(),
                MetricKind::Histogram,
                "{id:?} is not a histogram"
            );
            self.hists[self.hist_slot[id as usize]].observe(v);
        }
    }

    /// Start a latency measurement iff recording is live — `None`
    /// means the matching [`Registry::observe_since`] is free, so a
    /// disabled registry never pays for `Instant::now()`.
    #[inline]
    pub fn timer(&self) -> Option<Instant> {
        if self.enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Record the nanoseconds since [`Registry::timer`] into a
    /// histogram (no-op when the timer never started).
    #[inline]
    pub fn observe_since(&self, id: MetricId, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.observe(id, ns);
        }
    }

    /// The cell behind `id{label_key=label}`. Resolving takes the map
    /// lock; hot paths hold the `Arc` and update it lock-free. Labeled
    /// cells ignore the kill-switch when written directly — callers
    /// that care route through [`Registry::labeled_add`].
    pub fn labeled_handle(&self, id: MetricId, label: u64) -> Arc<AtomicU64> {
        let mut map = self.labeled.lock().unwrap();
        Arc::clone(map.entry((id as u16, label)).or_default())
    }

    /// Add `n` to a labeled cell (resolves the handle each call — fine
    /// off the hot path, e.g. once per sampled batch).
    pub fn labeled_add(&self, id: MetricId, label: u64, n: u64) {
        if self.enabled() {
            self.labeled_handle(id, label)
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Record a trace event into the ring.
    pub fn event(&self, kind: EventKind, a: u64, b: u64, note: impl Into<String>) {
        if !self.enabled() {
            return;
        }
        let ev = TraceEvent {
            at_ms: self.session_ms(),
            kind,
            a,
            b,
            note: note.into(),
        };
        let dropped = self.ring.lock().unwrap().push(ev);
        if dropped > 0 {
            self.slots[MetricId::ObsEventsDroppedTotal as usize]
                .fetch_add(dropped, Ordering::Relaxed);
        }
    }

    // ── read path ────────────────────────────────────────────────

    /// Current value of a counter slot.
    pub fn value(&self, id: MetricId) -> u64 {
        self.slots[id as usize].load(Ordering::Relaxed)
    }

    /// Current value of a gauge slot.
    pub fn gauge_value(&self, id: MetricId) -> i64 {
        self.slots[id as usize].load(Ordering::Relaxed) as i64
    }

    /// Current value of a labeled cell (0 if never touched).
    pub fn labeled_value(&self, id: MetricId, label: u64) -> u64 {
        let map = self.labeled.lock().unwrap();
        map.get(&(id as u16, label))
            .map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// All `(label, value)` rows of a labeled metric, label-ordered.
    pub fn labeled_rows(&self, id: MetricId) -> Vec<(u64, u64)> {
        let map = self.labeled.lock().unwrap();
        map.range((id as u16, 0)..=(id as u16, u64::MAX))
            .map(|((_, label), c)| (*label, c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Oldest-first copy of the live trace events.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.ring.lock().unwrap().to_vec()
    }

    /// A wire-exportable snapshot of every table metric (zeros
    /// included — a registered metric that has seen nothing still
    /// exports, per Prometheus convention), all labeled rows, and the
    /// live event ring. Taking a snapshot counts itself
    /// (`sss_obs_snapshots_total`) even while disabled, so a collector
    /// with the kill-switch thrown still shows it was scraped.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.slots[MetricId::ObsSnapshotsTotal as usize].fetch_add(1, Ordering::Relaxed);
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        for id in ALL_METRICS {
            match id.kind() {
                MetricKind::Counter => counters.push((id.name().to_string(), self.value(*id))),
                MetricKind::Gauge => gauges.push((id.name().to_string(), self.gauge_value(*id))),
                MetricKind::Histogram => {
                    hists.push(self.hists[self.hist_slot[*id as usize]].snapshot(*id));
                }
            }
        }
        let mut labeled = Vec::new();
        {
            let map = self.labeled.lock().unwrap();
            for ((id_raw, label), cell) in map.iter() {
                let name = ALL_METRICS
                    .get(*id_raw as usize)
                    .map_or("sss_obs_unknown", |m| m.name());
                labeled.push((name.to_string(), *label, cell.load(Ordering::Relaxed)));
            }
        }
        let events = self
            .events()
            .into_iter()
            .map(|e| EventSnapshot {
                at_ms: e.at_ms,
                kind: e.kind.label().to_string(),
                a: e.a,
                b: e.b,
                note: e.note,
            })
            .collect();
        MetricsSnapshot {
            session_ms: self.session_ms(),
            counters,
            gauges,
            labeled,
            hists,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        for i in 0..64 {
            let v = 1u64 << i;
            assert_eq!(bucket_of(v), i + 1, "2^{i}");
            assert!(bucket_upper(bucket_of(v)) >= v);
        }
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn kill_switch_gates_everything() {
        let r = Registry::new();
        r.set_enabled(false);
        r.inc(MetricId::IngestItemsTotal);
        r.observe(MetricId::IngestBatchSize, 7);
        r.gauge_add(MetricId::IngestQueueDepth, 3);
        r.labeled_add(MetricId::TransportSiteBytesInTotal, 1, 10);
        r.event(EventKind::AlertFired, 0, 0, "x");
        assert!(r.timer().is_none());
        let s = r.snapshot();
        // Everything stays zero except the snapshot self-count, which
        // ignores the switch so a scraped-but-disabled registry still
        // shows it was scraped.
        assert!(s
            .counters
            .iter()
            .all(|(n, v)| *v == 0 || n == "sss_obs_snapshots_total"));
        assert_eq!(s.counter("sss_obs_snapshots_total"), Some(1));
        assert!(s.gauges.iter().all(|(_, v)| *v == 0));
        assert!(s.hists.iter().all(|h| h.count() == 0));
        assert!(s.labeled.is_empty() && s.events.is_empty());
    }

    #[test]
    fn gauge_goes_negative() {
        let r = Registry::new();
        r.gauge_add(MetricId::IngestQueueDepth, 2);
        r.gauge_add(MetricId::IngestQueueDepth, -5);
        assert_eq!(r.gauge_value(MetricId::IngestQueueDepth), -3);
    }
}
