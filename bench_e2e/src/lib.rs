//! End-to-end benchmark of the sub-sampled streaming pipeline.
//!
//! It drives the deployed path — generator → `BernoulliSampler` →
//! `Monitor::update_batch` → `checkpoint` → loopback `SiteClient` push →
//! `CollectorServer` → `merged()` or `WindowedMonitor` → `estimate` —
//! and times every layer from outside, around calls into the public
//! functions of `sss-stream`, `sss-core`, `sss-transport` and
//! `sss-window`. An untraced run gives the end-to-end metrics; a traced
//! run gives the per-layer ones. `README.md` lists the workloads, the
//! metrics and which end-to-end metric each layer metric should move.

pub mod host;
pub mod report;
pub mod trace;
pub mod workloads;

use workloads::{Recorder, Scale};

/// Run workload `name` at `scale`; `None` if no workload has that name.
pub fn run_workload(name: &str, scale: Scale, seed: u64, traced: bool) -> Option<Recorder> {
    let mut rec = Recorder::new(traced);
    match name {
        "site_ingest" => workloads::site::run(scale, seed, &mut rec),
        "fleet_delta" => workloads::fleet::run(scale, seed, true, &mut rec),
        "fleet_full" => workloads::fleet::run(scale, seed, false, &mut rec),
        "window_dashboard" => workloads::window::run(scale, seed, &mut rec),
        _ => return None,
    }
    Some(rec)
}
