//! # Space-efficient estimation of statistics over sub-sampled streams
//!
//! A Rust implementation of McGregor, Pavan, Tirthapura & Woodruff
//! (PODS 2012 / Algorithmica 2016). An original stream `P` is Bernoulli
//! sampled at a known rate `p`; the monitor sees only the sampled stream
//! `L` and must estimate aggregates of `P` in one pass and small space.
//!
//! ## Quickstart: one monitor, one pass, every statistic
//!
//! The paper's five results are unified behind the
//! [`SubsampledEstimator`] trait and driven
//! together by a [`Monitor`]: register the statistics you
//! want, feed the sampled stream once (batched), read typed estimates.
//!
//! ```
//! use subsampled_streams::core::{MonitorBuilder, Statistic};
//! use subsampled_streams::stream::{BernoulliSampler, ExactStats, StreamGen, ZipfStream};
//!
//! // The original stream — which the monitor never sees in full.
//! let p = 0.1;
//! let stream = ZipfStream::new(10_000, 1.2).generate(100_000, 1);
//! let truth = ExactStats::from_stream(stream.iter().copied()).fk(2);
//!
//! // One monitor answering four questions from the same sample.
//! let mut monitor = MonitorBuilder::new(p)
//!     .f0(0.05)                         // Algorithm 2: distinct elements
//!     .fk(2)                            // Algorithm 1: second moment
//!     .entropy(2000)                    // Theorem 5: empirical entropy
//!     .f1_heavy_hitters(0.02, 0.2, 0.05) // Theorem 6: elephants
//!     .build();
//!
//! // Single pass over the Bernoulli sample, batched hot path.
//! let mut sampler = BernoulliSampler::new(p, 99);
//! sampler.sample_batches(&stream, 1024, |chunk| monitor.update_batch(chunk));
//!
//! let f2 = monitor.estimate(Statistic::Fk(2)).unwrap();
//! assert!(f2.mult_error(truth) < 1.1, "F2 within 10% from a 10% sample");
//! assert_eq!(f2.p, p); // every estimate carries its provenance
//! ```
//!
//! Monitors built from the same configuration **merge**: per-site monitors
//! over disjoint traffic combine into one that answers for the union —
//! exactly for the collision/bottom-k/CountMin substrates (linear or
//! set-union merges), within sketch error for the rest. See
//! `examples/distributed_collector.rs`.
//!
//! Monitors (and every sketch and estimator underneath them) also
//! **serialize**: [`codec::WireCodec`] gives each one a versioned binary
//! wire format, so shard snapshots cross process boundaries as bytes
//! ([`Monitor::checkpoint`](core::Monitor::checkpoint) /
//! [`Monitor::restore`](core::Monitor::restore)) — the real distributed
//! deployment, plus crash recovery for long-running monitors.
//!
//! ## Layout
//!
//! This facade re-exports the five workspace crates:
//!
//! * [`codec`] — the dependency-free versioned wire codec
//!   ([`WireCodec`](codec::WireCodec), typed
//!   [`CodecError`](codec::CodecError)s),
//! * [`hash`] — PRNGs and k-wise independent hash families,
//! * [`stream`] — workload generators, samplers (including the batched
//!   [`sample_batches`](stream::BernoulliSampler::sample_batches) feed)
//!   and exact ground truth,
//! * [`sketch`] — the classic streaming substrates (CountMin,
//!   CountSketch, Misra–Gries, AMS, KMV, Indyk–Woodruff level sets,
//!   entropy estimation, and the shared-atomic grid variants), all
//!   batch-capable; the mergeable ones expose a non-mutating
//!   `check_merge` returning a typed [`Mismatch`](sketch::Mismatch),
//! * [`core`] — the paper's estimators behind the unified trait, the
//!   [`Monitor`] pipeline (one mergeability decision,
//!   [`Monitor::check_mergeable`](core::Monitor::check_mergeable)) and its
//!   multi-threaded
//!   [`ConcurrentMonitor`] front end, the
//!   baselines, and the flow-distribution / adaptive-rate extensions,
//! * [`transport`] — the TCP snapshot transport: a
//!   [`CollectorServer`] accepting site
//!   connections and folding their pushed snapshots (per-reason
//!   rejection counters, sequence-number dedup), and a
//!   [`SiteClient`] shipping checkpoints with
//!   bounded-retry exponential-backoff reconnect,
//! * [`window`] — sliding-window statistics: the tumbling-bucket
//!   [`WindowedMonitor`] (each bucket a full
//!   sub-`Monitor`; queries fold live buckets through the merge
//!   algebra), and a continuous-query surface emitting typed
//!   [`Alert`]s on bucket rollover,
//! * [`obs`] — the workspace-wide observability layer: a process-global
//!   metric [`Registry`](obs::Registry) (atomic counters, gauges, log2
//!   histograms) and event tracer every other crate records into,
//!   Prometheus/JSON renders, and a wire-exportable
//!   [`MetricsSnapshot`](obs::MetricsSnapshot) that sites push to the
//!   collector's stats endpoint.

#![forbid(unsafe_code)]

pub use sss_codec as codec;
pub use sss_core as core;
pub use sss_hash as hash;
pub use sss_obs as obs;
pub use sss_sketch as sketch;
pub use sss_stream as stream;
pub use sss_transport as transport;
pub use sss_window as window;

pub use sss_core::{
    ConcurrentConfig, ConcurrentMonitor, Estimate, Guarantee, MergeError, Monitor, MonitorBuilder,
    Statistic, SubsampledEstimator,
};
pub use sss_transport::{
    ClientConfig, CollectorServer, ServerConfig, SiteClient, TransportError, TransportStats,
};
pub use sss_window::{Alert, AlertKind, QueryKind, QuerySpec, WindowConfig, WindowedMonitor};
