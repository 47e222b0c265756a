//! Sliding-window and time-decayed statistics over sub-sampled streams.
//!
//! Everything the [`sss_core::Monitor`] computes is whole-stream; the
//! production questions (telemetry, NIDS, netflow) are windowed —
//! "entropy over the last five minutes", "did the heavy-hitter set
//! shift this hour". This crate answers them **without new estimator
//! math**: the stream is partitioned into tumbling event-time buckets,
//! each bucket is a full sub-`Monitor` forked under the seed-splitting
//! contract, whole buckets retire as the window slides, and a query
//! folds the live buckets through the existing merge algebra.
//!
//! * [`WindowedMonitor`] — a ring of up to `W` tumbling buckets, each
//!   spanning `bucket_span` event-time ticks. Ingestion routes items by
//!   timestamp (`epoch = ts / bucket_span`), rollovers retire the
//!   bucket that fell out, and [`WindowedMonitor::fold`] merges the
//!   live buckets into one `Monitor` answering for exactly the window.
//!   Exact substrates (bottom-k `F_0`, collision-counting `F_k`,
//!   CountMin) merge losslessly, so the fold over the last `W` buckets
//!   is *bitwise-identical* to a fresh monitor fed only those items.
//! * [`DecayedMonitor`] — the same bucket ring with exponential time
//!   decay applied at query time: bucket at age `a` epochs weighs
//!   `2^(-a/half_life)`. No per-item cost; decay is a query-side
//!   weighting, and the answer is flagged
//!   [`sss_core::Guarantee::Heuristic`].
//! * [`QuerySpec`]/[`Alert`] — a continuous-query surface: threshold,
//!   delta-vs-previous-window and change-point queries registered
//!   against estimator labels, evaluated once per bucket rollover,
//!   emitting typed alerts drained via
//!   [`WindowedMonitor::take_alerts`].
//! * Per-site windows compose: [`WindowedMonitor::fork_shard`] forks a
//!   window under `split_seed`, every fork retires buckets on the same
//!   global epoch boundaries (epochs come from event time, never from
//!   per-site counts), and [`WindowedMonitor::try_merge`] folds
//!   clock-aligned windows into one answer for the union.
//!
//! All window state implements [`sss_codec::WireCodec`] in the
//! `0x06xx` tag range (bucket ring, clock, query registry, pending
//! alerts), so windows checkpoint/restore and ship over
//! `sss-transport` like every other part of the stack.

#![forbid(unsafe_code)]

mod decayed;
mod query;
mod windowed;

pub use decayed::DecayedMonitor;
pub use query::{Alert, AlertKind, QueryKind, QuerySpec};
pub use windowed::{WindowConfig, WindowMergeError, WindowedMonitor};
