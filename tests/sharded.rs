//! Cross-shard battery for the sharded deployment, run sequentially
//! (`run_sharded` in `tests/common/mod.rs`): `N` `fork_shard(i)`
//! monitors, each fed every `N`-th chunk through its own sampler, folded
//! ascending with `merge_all`. The folded monitor must agree with the
//! single-threaded `Monitor` exactly for exact-merge substrates at
//! `p = 1`, and within the documented tolerance for sketched/statistical
//! ones under real sampling. `tests/concurrent.rs` runs the same checks
//! on the threaded `ConcurrentMonitor` and pins it to this reference
//! byte for byte.

mod common;

#[test]
fn p_one_exact_substrates_match_single_monitor_exactly() {
    common::p_one_matches_single_monitor(common::run_sharded);
}

#[test]
fn sampled_sharded_estimates_within_documented_tolerance() {
    common::sampled_estimates_within_documented_tolerance(common::run_sharded);
}

#[test]
fn planted_heavies_survive_sharded_merge() {
    common::planted_heavies_survive(common::run_sharded);
}
