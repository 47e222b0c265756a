//! The tumbling-bucket sliding window over the `Monitor` merge algebra.

use std::collections::VecDeque;
use std::fmt;

use sss_codec::{put_len, CodecError, Reader, WireCodec};
use sss_core::{Estimate, MergeError, Monitor, Statistic};
use sss_obs::{EventKind, MetricId};

use crate::query::{Alert, Query, QuerySpec};

/// Shape of a sliding window: how many tumbling buckets stay live, and
/// how many event-time ticks each bucket spans. The window covers the
/// last `buckets × bucket_span` ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Number of live buckets `W` (≥ 1).
    pub buckets: usize,
    /// Event-time ticks per bucket (≥ 1).
    pub bucket_span: u64,
}

/// Upper bound on [`WindowConfig::buckets`]: the bucket count must fit
/// in 32 bits, so snapshot decode can tell a plausible shape from a
/// corrupted one. (Live buckets materialise lazily, so a wide window is
/// cheap until epochs actually see items.)
pub const MAX_WINDOW_BUCKETS: u64 = u32::MAX as u64;

impl WindowConfig {
    /// A window of `buckets` tumbling buckets of `bucket_span` ticks.
    ///
    /// # Panics
    /// If either dimension is zero, or `buckets` exceeds
    /// `MAX_WINDOW_BUCKETS` (`u32::MAX`).
    pub fn new(buckets: usize, bucket_span: u64) -> Self {
        assert!(buckets >= 1, "window needs at least one bucket");
        assert!(
            buckets as u64 <= MAX_WINDOW_BUCKETS,
            "window bucket count must fit in 32 bits"
        );
        assert!(bucket_span >= 1, "bucket span must be at least one tick");
        Self {
            buckets,
            bucket_span,
        }
    }
}

/// Why two windowed monitors refused to merge.
#[derive(Debug)]
pub enum WindowMergeError {
    /// Window shapes (bucket count or span) disagree.
    ConfigMismatch {
        /// Left shape.
        left: WindowConfig,
        /// Right shape.
        right: WindowConfig,
    },
    /// Both sides have started but sit at different epochs — merging
    /// would mix windows covering different time ranges. Align with
    /// [`WindowedMonitor::advance_to`] first.
    ClockMismatch {
        /// Left current epoch.
        left: u64,
        /// Right current epoch.
        right: u64,
    },
    /// A bucket pair (or the prototypes) failed the monitor merge
    /// validation.
    Monitor(MergeError),
}

impl fmt::Display for WindowMergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowMergeError::ConfigMismatch { left, right } => write!(
                f,
                "window shapes disagree: {}x{} vs {}x{}",
                left.buckets, left.bucket_span, right.buckets, right.bucket_span
            ),
            WindowMergeError::ClockMismatch { left, right } => {
                write!(f, "window clocks disagree: epoch {left} vs {right}")
            }
            WindowMergeError::Monitor(e) => write!(f, "bucket merge: {e}"),
        }
    }
}

impl std::error::Error for WindowMergeError {}

impl From<MergeError> for WindowMergeError {
    fn from(e: MergeError) -> Self {
        WindowMergeError::Monitor(e)
    }
}

/// One tumbling bucket: a full sub-`Monitor` covering one epoch.
#[derive(Clone)]
struct Bucket {
    epoch: u64,
    monitor: Monitor,
}

/// Sliding-window statistics: a ring of tumbling buckets, each a full
/// sub-[`Monitor`] forked from a pristine prototype under the
/// seed-splitting contract (`fork_shard(epoch)`: sketch hashes stay
/// epoch-invariant so the merge algebra holds across buckets;
/// shard-local randomness reseeds per epoch).
///
/// Items route by event time: `epoch = ts / bucket_span`. When the
/// first item of a later epoch arrives, the window *rolls*: continuous
/// queries are evaluated on the fold as of the closing epoch, the
/// clock advances, and buckets older than `buckets` epochs retire
/// whole — retirement is `O(1)` bucket drops, never per-item undo.
/// Buckets materialise lazily (an epoch that saw no survivors costs
/// nothing), and items older than the live window are counted in
/// [`WindowedMonitor::late_dropped`] and ignored.
///
/// [`WindowedMonitor::fold`] merges the live buckets (ascending epoch,
/// into a pristine prototype clone) into one `Monitor` answering for
/// exactly the window — deterministic, and bitwise-reproducible for
/// the exact substrates.
#[derive(Clone)]
pub struct WindowedMonitor {
    /// Pristine fold identity and fork source; never ingests.
    prototype: Monitor,
    cfg: WindowConfig,
    /// `false` until the first ingest or explicit advance sets the clock.
    started: bool,
    cur_epoch: u64,
    /// Materialised live buckets, ascending epoch.
    buckets: VecDeque<Bucket>,
    queries: Vec<Query>,
    /// Alerts emitted since the last [`WindowedMonitor::take_alerts`].
    alerts: Vec<Alert>,
    late_dropped: u64,
    retired: u64,
    total_ingested: u64,
}

impl WindowedMonitor {
    /// Wrap a **pristine** monitor configuration into a sliding window.
    ///
    /// # Panics
    /// If `prototype` has already ingested samples (its state would
    /// leak into every bucket fork).
    pub fn new(prototype: Monitor, cfg: WindowConfig) -> Self {
        assert!(
            prototype.samples_seen() == 0,
            "windowed prototype must be pristine (saw {} samples)",
            prototype.samples_seen()
        );
        assert!(cfg.buckets >= 1 && cfg.bucket_span >= 1);
        Self {
            prototype,
            cfg,
            started: false,
            cur_epoch: 0,
            buckets: VecDeque::new(),
            queries: Vec::new(),
            alerts: Vec::new(),
            late_dropped: 0,
            retired: 0,
            total_ingested: 0,
        }
    }

    /// The window shape.
    #[inline]
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    /// The sampling rate the underlying monitors were built for.
    #[inline]
    pub fn p(&self) -> f64 {
        self.prototype.p()
    }

    /// The epoch of the newest (open) bucket. Meaningless before the
    /// first ingest or [`WindowedMonitor::advance_to`].
    #[inline]
    pub fn cur_epoch(&self) -> u64 {
        self.cur_epoch
    }

    /// Has the window seen an item or an explicit clock advance yet?
    #[inline]
    pub fn started(&self) -> bool {
        self.started
    }

    /// Which epoch an event-time tick falls into.
    #[inline]
    pub fn epoch_of(&self, ts: u64) -> u64 {
        ts / self.cfg.bucket_span
    }

    /// Number of materialised live buckets (≤ `cfg.buckets`; epochs
    /// that saw no items never materialise).
    #[inline]
    pub fn live_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Epochs of the materialised live buckets, ascending.
    pub fn bucket_epochs(&self) -> Vec<u64> {
        self.buckets.iter().map(|b| b.epoch).collect()
    }

    /// Items dropped because they were older than the live window.
    #[inline]
    pub fn late_dropped(&self) -> u64 {
        self.late_dropped
    }

    /// Buckets retired so far.
    #[inline]
    pub fn retired_buckets(&self) -> u64 {
        self.retired
    }

    /// Sampled items ingested over the window's whole lifetime
    /// (including long-retired buckets; excludes late drops).
    #[inline]
    pub fn total_ingested(&self) -> u64 {
        self.total_ingested
    }

    /// Sampled items currently inside the window.
    pub fn window_samples(&self) -> u64 {
        self.buckets.iter().map(|b| b.monitor.samples_seen()).sum()
    }

    /// Oldest epoch still inside the window.
    #[inline]
    fn oldest_live_epoch(&self) -> u64 {
        self.cur_epoch.saturating_sub(self.cfg.buckets as u64 - 1)
    }

    /// Register a continuous query, evaluated on every bucket rollover
    /// from now on. Alerts accumulate until drained with
    /// [`WindowedMonitor::take_alerts`].
    ///
    /// # Panics
    /// If the spec's parameters are out of range, its label is not
    /// registered in the prototype, or the name is already taken —
    /// all configuration bugs worth failing fast on.
    pub fn register_query(&mut self, spec: QuerySpec) {
        spec.assert_valid();
        assert!(
            self.prototype.estimate_labeled(&spec.label).is_some(),
            "query '{}' watches unregistered label '{}'",
            spec.name,
            spec.label
        );
        assert!(
            !self.queries.iter().any(|q| q.spec.name == spec.name),
            "query name '{}' already registered",
            spec.name
        );
        self.queries.push(Query::new(spec));
    }

    /// Registered query specs, in registration order.
    pub fn queries(&self) -> Vec<QuerySpec> {
        self.queries.iter().map(|q| q.spec.clone()).collect()
    }

    /// Drain the alerts emitted since the last call.
    pub fn take_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// Alerts currently pending (not yet drained).
    pub fn pending_alerts(&self) -> &[Alert] {
        &self.alerts
    }

    /// Ingest one sampled item observed at event time `ts`.
    pub fn ingest_at(&mut self, ts: u64, x: u64) {
        let epoch = self.epoch_of(ts);
        if !self.route_to(epoch) {
            return;
        }
        self.total_ingested += 1;
        self.bucket_mut(epoch).update(x);
    }

    /// Ingest a batch of sampled items sharing the event time `ts` —
    /// the hot path for feeds that arrive in time-ordered chunks (one
    /// bucket lookup per chunk instead of per item).
    pub fn ingest_batch_at(&mut self, ts: u64, xs: &[u64]) {
        if xs.is_empty() {
            return;
        }
        let epoch = self.epoch_of(ts);
        if !self.route_to(epoch) {
            self.late_dropped += xs.len() as u64 - 1;
            sss_obs::global().add(MetricId::WindowLateDropsTotal, xs.len() as u64 - 1);
            return;
        }
        self.total_ingested += xs.len() as u64;
        self.bucket_mut(epoch).update_batch(xs);
    }

    /// Advance the clock (rolls, evaluates queries, retires) so that
    /// `epoch` is the newest epoch, without ingesting anything — how a
    /// coordinator aligns shards, and how a quiet stream still closes
    /// its windows.
    pub fn advance_to(&mut self, epoch: u64) {
        if !self.started {
            self.started = true;
            self.cur_epoch = epoch;
            return;
        }
        if epoch > self.cur_epoch {
            self.roll_to(epoch);
        }
    }

    /// Roll/start the clock for an arriving item of `epoch`; `false`
    /// means the item is older than the live window (and was counted
    /// as one late drop).
    fn route_to(&mut self, epoch: u64) -> bool {
        self.advance_to(epoch);
        // After the advance `epoch ≤ cur_epoch`, so only an older epoch
        // can fall outside the live window.
        if epoch < self.oldest_live_epoch() {
            self.late_dropped += 1;
            sss_obs::global().inc(MetricId::WindowLateDropsTotal);
            return false;
        }
        true
    }

    /// Advance `cur_epoch` to `target > cur_epoch`, closing one epoch
    /// at a time: queries run on the fold as of each closing epoch,
    /// then buckets that fell out retire. A jump past the whole window
    /// collapses to one evaluation + wholesale retirement, so sparse
    /// timestamps cannot make rolling `O(jump)` expensive.
    fn roll_to(&mut self, target: u64) {
        debug_assert!(self.started && target > self.cur_epoch);
        let obs = sss_obs::global();
        if target - self.cur_epoch >= self.cfg.buckets as u64 {
            // Every live bucket falls out regardless of the epochs in
            // between: evaluate the pre-jump window once, retire it
            // wholesale. Query histories record the gap as a single
            // transition rather than one entry per empty epoch.
            self.eval_queries();
            let retired_now = self.buckets.len() as u64;
            self.retired += retired_now;
            self.buckets.clear();
            self.cur_epoch = target;
            obs.inc(MetricId::WindowRolloversTotal);
            obs.add(MetricId::WindowRetiredBucketsTotal, retired_now);
            obs.event(EventKind::BucketRollover, target, retired_now, "jump");
            return;
        }
        let mut rolls = 0u64;
        let mut retired_now = 0u64;
        while self.cur_epoch < target {
            self.eval_queries();
            self.cur_epoch += 1;
            rolls += 1;
            let oldest = self.oldest_live_epoch();
            while self.buckets.front().is_some_and(|b| b.epoch < oldest) {
                self.buckets.pop_front();
                self.retired += 1;
                retired_now += 1;
            }
        }
        obs.add(MetricId::WindowRolloversTotal, rolls);
        obs.add(MetricId::WindowRetiredBucketsTotal, retired_now);
        obs.event(EventKind::BucketRollover, target, retired_now, "");
    }

    fn eval_queries(&mut self) {
        if self.queries.is_empty() {
            return;
        }
        let fold = self.fold();
        for q in &mut self.queries {
            if let Some(alert) = q.observe(self.cur_epoch, &fold) {
                let obs = sss_obs::global();
                obs.inc(MetricId::WindowAlertsTotal);
                obs.event(EventKind::AlertFired, alert.epoch, 0, alert.query.as_str());
                self.alerts.push(alert);
            }
        }
    }

    /// The live bucket for `epoch`, materialising it on first use.
    fn bucket_mut(&mut self, epoch: u64) -> &mut Monitor {
        debug_assert!(epoch <= self.cur_epoch && epoch >= self.oldest_live_epoch());
        match self.bucket_index(epoch) {
            Ok(i) => &mut self.buckets[i].monitor,
            Err(i) => {
                // fork_shard(epoch): sketch hash seeds stay invariant
                // (bucket merges remain exact), reservoir randomness
                // re-derives per epoch — and the fork is a pure
                // function of (prototype, epoch), so a restored window
                // materialises bitwise-identical buckets.
                let monitor = self.prototype.fork_shard(epoch);
                self.buckets.insert(i, Bucket { epoch, monitor });
                &mut self.buckets[i].monitor
            }
        }
    }

    /// Position of `epoch` in the ascending bucket ring (`Err`: where it
    /// would be inserted).
    fn bucket_index(&self, epoch: u64) -> Result<usize, usize> {
        self.buckets.binary_search_by(|b| b.epoch.cmp(&epoch))
    }

    /// Merge the live buckets into one [`Monitor`] answering for
    /// exactly the current window: a pristine prototype clone folded
    /// with each bucket in ascending epoch order — a deterministic
    /// fold, bitwise-reproducible run to run.
    pub fn fold(&self) -> Monitor {
        let mut acc = self.prototype.clone();
        let buckets: Vec<&Monitor> = self.buckets.iter().map(|b| &b.monitor).collect();
        acc.merge_all(&buckets);
        acc
    }

    /// The windowed estimate for `stat` (`None` if unregistered).
    pub fn estimate(&self, stat: Statistic) -> Option<Estimate> {
        self.fold().estimate(stat)
    }

    /// The windowed estimate under an explicit label.
    pub fn estimate_labeled(&self, label: &str) -> Option<Estimate> {
        self.fold().estimate_labeled(label)
    }

    /// All windowed estimates as `(label, estimate)` rows.
    pub fn report(&self) -> Vec<(String, Estimate)> {
        self.fold().report()
    }

    /// Total resident bytes across prototype and live buckets.
    pub fn space_bytes(&self) -> usize {
        self.prototype.space_bytes()
            + self
                .buckets
                .iter()
                .map(|b| b.monitor.space_bytes())
                .sum::<usize>()
    }

    /// A per-shard windowed monitor for worker `shard` of a sharded
    /// deployment: the prototype forks under `split_seed` (so bucket
    /// sketches across shards stay merge-compatible while shard-local
    /// randomness diverges), the window shape and clock carry over.
    /// Continuous queries do **not** fork — a shard sees only its
    /// slice of the traffic, so query evaluation belongs to the
    /// coordinator's merged window.
    ///
    /// # Panics
    /// If this window has already ingested — forked state would
    /// double-count on the merge back.
    pub fn fork_shard(&self, shard: u64) -> WindowedMonitor {
        assert!(
            self.buckets.is_empty() && self.total_ingested == 0,
            "fork_shard requires an empty window"
        );
        WindowedMonitor {
            prototype: self.prototype.fork_shard(shard),
            cfg: self.cfg,
            started: self.started,
            cur_epoch: self.cur_epoch,
            buckets: VecDeque::new(),
            queries: Vec::new(),
            alerts: Vec::new(),
            late_dropped: 0,
            retired: 0,
            total_ingested: 0,
        }
    }

    /// Merge a shard's window that observed a disjoint slice of the
    /// same timeline: buckets pair up **by epoch** and merge in place;
    /// epochs only one side materialised copy over. Every check
    /// (`Monitor::check_mergeable`, no clones) runs before any mutation,
    /// so an `Err` leaves `self` untouched. Both clocks must agree (align with
    /// [`WindowedMonitor::advance_to`] first) — that is the epoch
    /// contract that keeps coordinator folds bitwise-deterministic:
    /// retirement boundaries come from shared event time, never from
    /// per-shard item counts.
    ///
    /// `other`'s queries and pending alerts are ignored: the query
    /// surface lives on the coordinator.
    pub fn try_merge(&mut self, other: &WindowedMonitor) -> Result<(), WindowMergeError> {
        if self.cfg != other.cfg {
            return Err(WindowMergeError::ConfigMismatch {
                left: self.cfg,
                right: other.cfg,
            });
        }
        if self.started && other.started && self.cur_epoch != other.cur_epoch {
            return Err(WindowMergeError::ClockMismatch {
                left: self.cur_epoch,
                right: other.cur_epoch,
            });
        }
        self.prototype.check_mergeable(&other.prototype)?;
        // Each incoming bucket is checked against what it lands on: its
        // epoch's bucket, or the prototype it is adopted under. The rate
        // tolerance is not transitive, so prototype-to-prototype
        // agreement alone does not prove the pairs.
        for ob in &other.buckets {
            match self.bucket_index(ob.epoch) {
                Ok(i) => self.buckets[i].monitor.check_mergeable(&ob.monitor)?,
                Err(_) => self.prototype.check_mergeable(&ob.monitor)?,
            }
        }
        for ob in &other.buckets {
            match self.bucket_index(ob.epoch) {
                Ok(i) => self.buckets[i].monitor.merge(&ob.monitor),
                Err(i) => self.buckets.insert(i, ob.clone()),
            }
        }
        if !self.started {
            self.started = other.started;
            self.cur_epoch = other.cur_epoch;
        }
        self.late_dropped += other.late_dropped;
        self.retired += other.retired;
        self.total_ingested += other.total_ingested;
        Ok(())
    }

    /// [`WindowedMonitor::try_merge`] that panics on incompatibility.
    pub fn merge(&mut self, other: &WindowedMonitor) {
        if let Err(e) = self.try_merge(other) {
            panic!("windowed merge: {e}");
        }
    }

    /// Serialize the whole window — clock, bucket ring, query registry
    /// with runtime state, pending alerts — as a framed wire snapshot.
    ///
    /// # Errors
    /// [`CodecError::UnknownTag`] if the prototype registers an
    /// estimator outside the decode registry (surfaced now, not at
    /// restore time), exactly like [`Monitor::checkpoint`].
    pub fn checkpoint(&self) -> Result<Vec<u8>, CodecError> {
        // Every bucket is a fork of the prototype, so one registry
        // check covers the whole ring without a throwaway encode.
        self.prototype.validate_restorable()?;
        Ok(self.encode_framed())
    }

    /// Rebuild a window from [`WindowedMonitor::checkpoint`] bytes.
    /// The restored window is observationally identical: same fold,
    /// same pending alerts, and continued ingestion (bucket forks are
    /// pure functions of the prototype) matches the never-serialized
    /// run exactly.
    pub fn restore(bytes: &[u8]) -> Result<WindowedMonitor, CodecError> {
        WindowedMonitor::decode_framed(bytes)
    }
}

fn decode_monitor_section(r: &mut Reader) -> Result<Monitor, CodecError> {
    let len = r.len_prefix(1)?;
    // The section reader inherits the frame's format version so nested
    // monitor payloads decode under the layout the envelope announced.
    let mut section = Reader::with_version(r.take(len)?, r.version());
    let m = Monitor::decode(&mut section)?;
    section.expect_empty()?;
    Ok(m)
}

fn encode_monitor_section(out: &mut Vec<u8>, m: &Monitor) {
    let mut payload = Vec::new();
    m.encode_into(&mut payload);
    put_len(out, payload.len());
    out.extend_from_slice(&payload);
}

impl WireCodec for WindowedMonitor {
    const WIRE_TAG: u16 = 0x0601;

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_len(out, self.cfg.buckets);
        self.cfg.bucket_span.encode_into(out);
        self.started.encode_into(out);
        self.cur_epoch.encode_into(out);
        self.late_dropped.encode_into(out);
        self.retired.encode_into(out);
        self.total_ingested.encode_into(out);
        encode_monitor_section(out, &self.prototype);
        put_len(out, self.buckets.len());
        for b in &self.buckets {
            b.epoch.encode_into(out);
            encode_monitor_section(out, &b.monitor);
        }
        put_len(out, self.queries.len());
        for q in &self.queries {
            q.encode_into(out);
        }
        put_len(out, self.alerts.len());
        for a in &self.alerts {
            a.encode_into(out);
        }
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        // The bucket capacity is a config scalar, not a count of
        // elements present in the payload, so it gets a plain u64 with
        // its own sanity bound — `len_prefix`'s allocation guard would
        // reject any window wider than its snapshot's byte size (e.g. a
        // day of one-tick buckets checkpointed while sparse).
        let cap = r.u64()?;
        let bucket_span = r.u64()?;
        if !(1..=MAX_WINDOW_BUCKETS).contains(&cap) || bucket_span < 1 {
            return Err(CodecError::Invalid {
                what: "window shape must have 1..=2^32-1 buckets and span >= 1",
            });
        }
        let cap = cap as usize;
        let started = r.bool()?;
        let cur_epoch = r.u64()?;
        let late_dropped = r.u64()?;
        let retired = r.u64()?;
        let total_ingested = r.u64()?;
        let prototype = decode_monitor_section(r)?;
        if prototype.samples_seen() != 0 {
            return Err(CodecError::Invalid {
                what: "window prototype must be pristine",
            });
        }
        let count = r.len_prefix(9)?;
        if count > cap {
            return Err(CodecError::Invalid {
                what: "more live buckets than the window holds",
            });
        }
        if !started && count > 0 {
            return Err(CodecError::Invalid {
                what: "unstarted window cannot carry buckets",
            });
        }
        let oldest = cur_epoch.saturating_sub(cap as u64 - 1);
        let mut buckets: VecDeque<Bucket> = VecDeque::with_capacity(count);
        for _ in 0..count {
            let epoch = r.u64()?;
            if epoch > cur_epoch || epoch < oldest {
                return Err(CodecError::Invalid {
                    what: "bucket epoch outside the live window",
                });
            }
            if buckets.back().is_some_and(|b| b.epoch >= epoch) {
                return Err(CodecError::Invalid {
                    what: "bucket epochs must be strictly ascending",
                });
            }
            let monitor = decode_monitor_section(r)?;
            if prototype.check_mergeable(&monitor).is_err() {
                return Err(CodecError::Invalid {
                    what: "window bucket does not merge with the prototype",
                });
            }
            buckets.push_back(Bucket { epoch, monitor });
        }
        let qcount = r.len_prefix(4)?;
        let mut queries: Vec<Query> = Vec::with_capacity(qcount);
        for _ in 0..qcount {
            let q = Query::decode(r)?;
            if prototype.estimate_labeled(&q.spec.label).is_none() {
                return Err(CodecError::Invalid {
                    what: "query watches a label the prototype lacks",
                });
            }
            if queries.iter().any(|other| other.spec.name == q.spec.name) {
                return Err(CodecError::Invalid {
                    what: "duplicate query name",
                });
            }
            queries.push(q);
        }
        let acount = r.len_prefix(4)?;
        let mut alerts = Vec::with_capacity(acount);
        for _ in 0..acount {
            alerts.push(Alert::decode(r)?);
        }
        Ok(WindowedMonitor {
            prototype,
            cfg: WindowConfig {
                buckets: cap,
                bucket_span,
            },
            started,
            cur_epoch,
            buckets,
            queries,
            alerts,
            late_dropped,
            retired,
            total_ingested,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AlertKind;
    use sss_core::MonitorBuilder;

    fn proto(p: f64) -> Monitor {
        MonitorBuilder::with_seed(p, 77)
            .f0(0.05)
            .fk(2)
            .entropy(256)
            .build()
    }

    fn windowed(p: f64, buckets: usize, span: u64) -> WindowedMonitor {
        WindowedMonitor::new(proto(p), WindowConfig::new(buckets, span))
    }

    #[test]
    fn items_route_to_epochs_and_old_buckets_retire() {
        let mut w = windowed(1.0, 3, 10);
        for ts in 0..60u64 {
            w.ingest_at(ts, ts % 7);
        }
        assert_eq!(w.cur_epoch(), 5);
        assert_eq!(w.bucket_epochs(), vec![3, 4, 5]);
        assert_eq!(w.retired_buckets(), 3);
        assert_eq!(w.window_samples(), 30);
        assert_eq!(w.total_ingested(), 60);
    }

    #[test]
    fn late_items_within_window_route_late_beyond_drop() {
        let mut w = windowed(1.0, 3, 10);
        w.ingest_at(59, 1); // epoch 5; window = {3,4,5}
        w.ingest_at(35, 2); // epoch 3: late but live
        assert_eq!(w.bucket_epochs(), vec![3, 5]);
        assert_eq!(w.late_dropped(), 0);
        w.ingest_at(29, 3); // epoch 2: fell out
        assert_eq!(w.late_dropped(), 1);
        assert_eq!(w.window_samples(), 2);
    }

    #[test]
    fn a_jump_past_the_window_retires_everything_at_once() {
        let mut w = windowed(1.0, 4, 1);
        for e in 0..4u64 {
            w.ingest_at(e, e);
        }
        assert_eq!(w.live_buckets(), 4);
        w.ingest_at(1000, 9);
        assert_eq!(w.bucket_epochs(), vec![1000]);
        assert_eq!(w.retired_buckets(), 4);
        let f0 = w.estimate(Statistic::F0).expect("registered").value;
        assert_eq!(f0, 1.0, "only the post-jump item is in the window");
    }

    #[test]
    fn fold_matches_a_fresh_monitor_fed_the_window_items() {
        let mut w = windowed(1.0, 2, 100);
        let items: Vec<u64> = (0..400u64).map(|i| i * i % 257).collect();
        for (i, &x) in items.iter().enumerate() {
            w.ingest_at(i as u64, x);
        }
        // Window covers epochs {2, 3} = items 200..400.
        let mut fresh = proto(1.0);
        fresh.update_batch(&items[200..]);
        let fold = w.fold();
        for stat in [Statistic::F0, Statistic::Fk(2)] {
            let a = fold.estimate(stat).expect("registered").value;
            let b = fresh.estimate(stat).expect("registered").value;
            assert_eq!(a.to_bits(), b.to_bits(), "{stat} exact substrate");
        }
        assert_eq!(fold.samples_seen(), fresh.samples_seen());
    }

    #[test]
    fn empty_window_folds_to_the_prototype() {
        let w = windowed(0.5, 4, 10);
        assert_eq!(w.fold().samples_seen(), 0);
        assert_eq!(w.estimate(Statistic::F0).expect("registered").value, 0.0);
    }

    #[test]
    fn batch_and_item_ingestion_agree_bitwise() {
        let items: Vec<u64> = (0..500u64).map(|i| (i * 31) % 97).collect();
        let mut by_item = windowed(1.0, 3, 50);
        let mut by_batch = windowed(1.0, 3, 50);
        for (i, &x) in items.iter().enumerate() {
            by_item.ingest_at(i as u64, x);
        }
        for (c, chunk) in items.chunks(50).enumerate() {
            by_batch.ingest_batch_at(c as u64 * 50, chunk);
        }
        let (a, b) = (by_item.fold(), by_batch.fold());
        for ((la, ea), (lb, eb)) in a.report().iter().zip(b.report().iter()) {
            assert_eq!(la, lb);
            assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "{la}");
        }
    }

    #[test]
    fn advance_without_items_closes_epochs_and_fires_queries() {
        let mut w = windowed(1.0, 2, 10);
        w.register_query(QuerySpec::threshold("nonzero", "F0", 0.5, true));
        for ts in 0..10u64 {
            w.ingest_at(ts, ts);
        }
        w.advance_to(3);
        let alerts = w.take_alerts();
        // Rollovers at epochs 0 (fold has 10 distinct) and the jump's
        // single evaluation; both see a nonempty window.
        assert!(!alerts.is_empty());
        assert!(alerts.iter().all(|a| a.kind == AlertKind::Threshold));
        assert_eq!(w.cur_epoch(), 3);
        assert_eq!(w.live_buckets(), 0, "quiet epochs retired the data");
    }

    #[test]
    fn shard_forks_align_and_merge_bitwise() {
        let items: Vec<u64> = (0..600u64).map(|i| (i * 13) % 101).collect();
        let base = windowed(1.0, 3, 100);

        // Two shards split the stream round-robin over the same timeline.
        let mut shards = [base.fork_shard(0), base.fork_shard(1)];
        for (i, &x) in items.iter().enumerate() {
            shards[i % 2].ingest_at(i as u64, x);
        }
        let top = shards.iter().map(|s| s.cur_epoch()).max().expect("two");
        for s in &mut shards {
            s.advance_to(top);
        }
        let mut merged = base.clone();
        for s in &shards {
            merged.try_merge(s).expect("epoch-aligned shards merge");
        }

        // The same items through one unsharded window of the same
        // timeline cover the same epochs; exact substrates agree.
        let mut single = base.fork_shard(0);
        for (i, &x) in items.iter().enumerate().filter(|(i, _)| i % 2 == 0) {
            single.ingest_at(i as u64, x);
        }
        let mut single_b = base.fork_shard(1);
        for (i, &x) in items.iter().enumerate().filter(|(i, _)| i % 2 == 1) {
            single_b.ingest_at(i as u64, x);
        }
        single.advance_to(top);
        single_b.advance_to(top);
        let mut merged2 = base.clone();
        merged2.try_merge(&single).expect("merge");
        merged2.try_merge(&single_b).expect("merge");

        for ((la, ea), (lb, eb)) in merged.report().iter().zip(merged2.report().iter()) {
            assert_eq!(la, lb);
            assert_eq!(
                ea.value.to_bits(),
                eb.value.to_bits(),
                "{la}: same shards, same fold order => bitwise"
            );
        }
        // Window = epochs {3, 4, 5} of six: exactly the last 300 items.
        assert_eq!(merged.window_samples(), 300);
    }

    #[test]
    fn merge_refuses_misaligned_clocks_and_shapes() {
        let base = windowed(1.0, 3, 10);
        let mut a = base.fork_shard(0);
        let mut b = base.fork_shard(1);
        a.ingest_at(5, 1); // epoch 0
        b.ingest_at(35, 2); // epoch 3
        let mut acc = base.clone();
        acc.try_merge(&a).expect("first shard adopts the clock");
        match acc.try_merge(&b) {
            Err(WindowMergeError::ClockMismatch { left: 0, right: 3 }) => {}
            other => panic!("expected clock mismatch, got {other:?}"),
        }
        let other_shape = windowed(1.0, 4, 10);
        match acc.try_merge(&other_shape) {
            Err(WindowMergeError::ConfigMismatch { .. }) => {}
            other => panic!("expected config mismatch, got {other:?}"),
        }
    }

    /// A monitor holding one estimator of decode-registry tag `tag`
    /// (0..10), built at rate `p`, sketch seed `seed` and geometry `g`
    /// (0 = base; 1 = different dimensions or parameters).
    fn registry_monitor(tag: usize, p: f64, seed: u64, g: u32) -> Monitor {
        use sss_core::{
            recommended_levelset_config, AdaptiveF2Estimator, NaiveScaledF0, NaiveScaledFk,
            RusuDobraF2, SampledFkEstimator,
        };
        let b = MonitorBuilder::with_seed(p, seed);
        let gf = f64::from(g);
        match tag {
            0 => b.f0(0.05 / (1.0 + 99.0 * gf)),
            1 => b.register("x", SampledFkEstimator::exact(2 + g, p)),
            2 => {
                let mut cfg = recommended_levelset_config(2, 1 << 10, 0.5, 0.3);
                (cfg.levels, cfg.depth, cfg.width, cfg.track) = (6, 3, 32 << g, 32);
                b.fk_sketched_with(2, &cfg)
            }
            3 => b.entropy(64 << g),
            4 => b.f1_heavy_hitters(0.1 + 0.1 * gf, 0.3, 0.1),
            5 => b.f2_heavy_hitters(0.5 + 0.1 * gf, 0.5, 0.1),
            6 => b.register("x", RusuDobraF2::new(p, 3, 16 << g, seed)),
            7 => b.register("x", NaiveScaledFk::new(2 + g, p)),
            8 => b.register("x", NaiveScaledF0::new(p, seed)),
            _ => b.register("x", AdaptiveF2Estimator::new(p)),
        }
        .build()
    }

    /// The merge contract over every decode-registry tag × {same, rate,
    /// seed, geometry}: `check_mergeable` and `Monitor::try_merge` agree
    /// on live and decoded input, `WindowedMonitor::try_merge` and window
    /// decode follow the same verdict, nothing panics, and an `Err`
    /// leaves the target's bytes unchanged.
    #[test]
    fn merge_contract_battery_over_every_registry_tag() {
        let cfg = WindowConfig::new(2, 10);
        let xs: Vec<u64> = (0..600u64).map(|i| i * i % 97).collect();
        let (xa, xb) = xs.split_at(300);
        for tag in 0..10 {
            for (p, seed, g) in [(0.5, 1, 0), (0.25, 1, 0), (0.5, 2, 0), (0.5, 1, 1)] {
                let case = format!("tag {tag} × (p {p}, seed {seed}, geometry {g})");
                let mut a = registry_monitor(tag, 0.5, 1, 0);
                a.update_batch(xa);
                let mut b = registry_monitor(tag, p, seed, g);
                b.update_batch(xb);
                let verdict = a.check_mergeable(&b);
                if (p, seed, g) == (0.5, 1, 0) {
                    assert_eq!(verdict, Ok(()), "{case}: identical configs merge");
                }
                let decoded =
                    Monitor::restore(&b.checkpoint().expect("checkpoint")).expect("restore");
                assert_eq!(a.check_mergeable(&decoded), verdict, "{case}: decoded");
                for other in [&b, &decoded] {
                    let before = a.checkpoint().expect("checkpoint");
                    let mut target = a.clone();
                    assert_eq!(target.try_merge(other), verdict, "{case}");
                    if verdict.is_err() {
                        assert_eq!(target.checkpoint().expect("checkpoint"), before, "{case}");
                    }
                }

                let mut wa = WindowedMonitor::new(registry_monitor(tag, 0.5, 1, 0), cfg);
                wa.ingest_batch_at(0, xa);
                let mut wb = WindowedMonitor::new(registry_monitor(tag, p, seed, g), cfg);
                wb.ingest_batch_at(0, xb);
                let before = wa.checkpoint().expect("checkpoint");
                let mut target = wa.clone();
                let merged = target.try_merge(&wb);
                assert_eq!(merged.is_err(), verdict.is_err(), "{case}: window merge");
                if merged.is_err() {
                    assert_eq!(target.checkpoint().expect("checkpoint"), before, "{case}");
                }

                // A window whose bucket is `b` under `a`'s prototype
                // decodes exactly when the two merge.
                let mut spliced = wa.clone();
                spliced.buckets[0].monitor = b.clone();
                let restored = WindowedMonitor::restore(&spliced.checkpoint().expect("checkpoint"));
                match (&restored, &verdict) {
                    (Ok(_), Ok(())) => {}
                    (Err(CodecError::Invalid { .. }), Err(_)) => {}
                    _ => panic!("{case}: decode {:?} vs verdict {verdict:?}", restored.err()),
                }
            }
        }
    }

    #[test]
    fn wire_round_trip_is_byte_identical() {
        let mut w = windowed(0.5, 3, 20);
        w.register_query(QuerySpec::delta_vs_prev("d", "F0", 0.5));
        let mut sampler = sss_stream::BernoulliSampler::new(0.5, 3);
        for ts in 0..200u64 {
            if sampler.keep() {
                w.ingest_at(ts, ts % 31);
            }
        }
        let bytes = w.checkpoint().expect("checkpoint");
        let back = WindowedMonitor::restore(&bytes).expect("restore");
        assert_eq!(back.checkpoint().expect("re-checkpoint"), bytes);
        assert_eq!(back.cur_epoch(), w.cur_epoch());
        assert_eq!(back.bucket_epochs(), w.bucket_epochs());
        assert_eq!(back.queries(), w.queries());
    }

    #[test]
    fn wide_sparse_window_checkpoint_restores() {
        // Regression: the bucket capacity is a config scalar, so a
        // window far wider than its snapshot's byte size (a day of
        // one-tick buckets, one of them live) must still restore.
        let mut w = windowed(1.0, 86_400, 1);
        w.ingest_at(3, 7);
        let bytes = w.checkpoint().expect("checkpoint");
        let back = WindowedMonitor::restore(&bytes).expect("wide window restores");
        assert_eq!(back.checkpoint().expect("re-checkpoint"), bytes);
        assert_eq!(back.config(), w.config());
        assert_eq!(back.bucket_epochs(), w.bucket_epochs());
    }

    #[test]
    fn long_change_point_history_survives_restore() {
        // Regression: a change-point history larger than the bytes that
        // happen to follow it in the snapshot is still a valid config.
        let mut w = windowed(1.0, 4, 10);
        w.register_query(QuerySpec::change_point("cp", "F0", 50, 3.0));
        let bytes = w.checkpoint().expect("checkpoint");
        let back = WindowedMonitor::restore(&bytes).expect("fresh long-history query restores");
        assert_eq!(back.queries(), w.queries());
    }

    #[test]
    fn corrupt_snapshots_are_rejected_with_typed_errors() {
        let mut w = windowed(1.0, 2, 10);
        for ts in 0..40u64 {
            w.ingest_at(ts, ts);
        }
        let bytes = w.checkpoint().expect("checkpoint");
        // Truncation anywhere inside the payload must error, never panic.
        for cut in [bytes.len() - 1, bytes.len() / 2, 25] {
            assert!(WindowedMonitor::restore(&bytes[..cut]).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "pristine")]
    fn ingested_prototype_is_rejected() {
        let mut m = proto(1.0);
        m.update(3);
        let _ = WindowedMonitor::new(m, WindowConfig::new(2, 10));
    }

    #[test]
    #[should_panic(expected = "unregistered label")]
    fn query_on_unknown_label_is_rejected() {
        let mut w = windowed(1.0, 2, 10);
        w.register_query(QuerySpec::threshold("t", "no_such", 1.0, true));
    }
}
