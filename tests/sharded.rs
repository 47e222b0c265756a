//! Cross-shard battery for the replica-and-merge deployment
//! (`ParallelStrategy::Replicated`: worker `i` owns a `fork_shard(i)`
//! replica, the replicas merge ascending on `finish()`). The merged
//! monitor must agree with the single-threaded `Monitor` exactly for
//! exact-merge substrates at `p = 1`, and within the documented
//! tolerance for sketched/statistical ones under real sampling. The
//! checks live in `tests/common/mod.rs`; `tests/concurrent.rs` runs them
//! for the shared-atomic `Auto` strategy.

mod common;

use subsampled_streams::core::ParallelStrategy;

#[test]
fn p_one_exact_substrates_match_single_monitor_exactly() {
    common::p_one_matches_single_monitor(ParallelStrategy::Replicated);
}

#[test]
fn sampled_sharded_estimates_within_documented_tolerance() {
    common::sampled_estimates_within_documented_tolerance(ParallelStrategy::Replicated);
}

#[test]
fn planted_heavies_survive_sharded_merge() {
    common::planted_heavies_survive(ParallelStrategy::Replicated);
}
