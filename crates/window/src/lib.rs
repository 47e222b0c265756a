//! Sliding-window statistics over sub-sampled streams.
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
//!   bucket that fell out, and [`WindowedMonitor::fold`] returns the
//!   whole-window monitor: the live buckets merged into one `Monitor`
//!   answering for exactly the window. Exact substrates (bottom-k
//!   `F_0`, collision-counting `F_k`, CountMin) merge losslessly, so the
//!   fold over the last `W` buckets is *bitwise-identical* to a fresh
//!   monitor fed only those items.
//! * A read folds only the statistic it reads: statistics merge slot by
//!   slot, so [`WindowedMonitor::estimate`] and each rollover's query
//!   evaluation clone and fold just that one slot
//!   ([`sss_core::Monitor::merged_estimate_labeled`]) — the answer
//!   `fold()` would give, bit for bit, with nothing kept between reads.
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
//! * Every live bucket is merge-compatible with the window's prototype
//!   (`Monitor::check_mergeable`): forks are by construction, and a
//!   decoded window rejects any bucket that is not with a typed
//!   `CodecError::Invalid`. Folds and merges therefore never clone a
//!   probe, and never panic on restored state.
//!
//! All window state implements [`sss_codec::WireCodec`] in the
//! `0x06xx` tag range (bucket ring, clock, query registry, pending
//! alerts), so windows checkpoint/restore and ship over
//! `sss-transport` like every other part of the stack.

#![forbid(unsafe_code)]

mod query;
mod windowed;

pub use query::{Alert, AlertKind, QueryKind, QuerySpec};
pub use windowed::{WindowConfig, WindowMergeError, WindowedMonitor};
