//! Experiment harness: trial orchestration, summary statistics and table
//! rendering for the per-theorem reproduction binaries (`src/bin/exp_*`).
//!
//! The paper is a theory paper — its "evaluation" is its theorems. Every
//! binary in this crate regenerates the quantitative content of one claim
//! as a table; `EXPERIMENTS.md` archives the output. All experiments are
//! deterministic: trial `t` of an experiment uses seed `base_seed + t`.

#![forbid(unsafe_code)]

pub mod stats;
pub mod table;
pub mod timing;

/// Schema versions of the committed `BENCH_*.json` trajectory files.
///
/// Every JSON-writing bench stamps `"schema_version"` with its constant
/// here, and the `bench_schema_versions_current` test compares the
/// committed files against these values — so changing a bench's JSON
/// layout without bumping its constant *and* regenerating the committed
/// file (a full, non-`--quick` run) fails CI instead of silently letting
/// the trajectory drift from the binary that claims to produce it.
pub mod schema {
    /// `BENCH_codec.json` (written by `bench_codec`).
    pub const CODEC: u32 = 2;
    /// `BENCH_transport.json` (written by `bench_transport`).
    pub const TRANSPORT: u32 = 2;
    /// `BENCH_window.json` (written by `bench_window`). v3 pins the
    /// windowed/segmented ratio (fresh forked monitor per epoch — the
    /// warm-up-matched control) and demotes the whole-stream ratio to
    /// an informational row. v4 replaces the `query_fold` rows (fold +
    /// estimate) with `query_read` / `ns_per_read`: one
    /// `WindowedMonitor::estimate`, which folds only the slot it reads.
    pub const WINDOW: u32 = 4;
    /// `BENCH_ingest.json` (written by `bench_ingest`).
    pub const INGEST: u32 = 1;
    /// `BENCH_obs.json` (written by `bench_obs`).
    pub const OBS: u32 = 1;
    /// `BENCH_concurrent.json` (written by `bench_concurrent`). v2
    /// renamed the `sharded_*` control columns to `replicated_*`. v3 has
    /// one curve (`ns_per_elem`, `speedup_vs_t1`) and the replicas'
    /// bytes (`replica_sketch_bytes`): the pipeline has one mechanism.
    pub const CONCURRENT: u32 = 3;
}

pub use stats::{mean, quantile, std_dev, Summary};
pub use table::Table;
pub use timing::BenchGroup;

/// Run `trials` deterministic trials and collect one `f64` metric each.
pub fn run_trials<F: FnMut(u64) -> f64>(trials: u64, base_seed: u64, mut f: F) -> Vec<f64> {
    (0..trials).map(|t| f(base_seed + t)).collect()
}

/// Standard experiment header: claim, workload, and knobs.
pub fn print_header(id: &str, claim: &str, workload: &str) {
    println!("\n=== {id} ===");
    println!("claim    : {claim}");
    println!("workload : {workload}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_trials_is_deterministic_and_seeded() {
        let a = run_trials(5, 100, |s| s as f64);
        assert_eq!(a, vec![100.0, 101.0, 102.0, 103.0, 104.0]);
    }
}
