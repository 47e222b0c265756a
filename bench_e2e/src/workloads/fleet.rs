//! `fleet_delta` and `fleet_full`: two warmed sites pushing to one
//! collector every round, with a reader querying the merged view.
//!
//! Each round, each site ingests 32,768 raw Zipf elements, then each
//! checkpoints and pushes, then the reader calls `merged().report()`.
//! Ingest is a small share of a round; checkpoint, delta diff and
//! apply, decode, the merge probe and the fold dominate. The two
//! workloads differ only in `ClientConfig::delta_pushes`, so a change to
//! the delta path should move `fleet_delta` alone, while a change to
//! the collector's accept or fold moves both.

use std::time::Instant;

use sss_core::Monitor;
use sss_stream::{BernoulliSampler, StreamGen, ZipfStream};
use sss_transport::{ClientConfig, CollectorServer, ServerConfig, SiteClient};

use super::{
    checkpoint_and_push, derive_seed, ingest, prototype, purpose, query_merged, record_transport,
    report_bits, rounds_for, settle_push, Recorder, Scale, P, SURVIVOR_CHUNK,
};

/// Rounds per second of timed phase on the reference host, by
/// `delta_pushes`.
const ROUNDS_PER_SECOND: [f64; 2] = [21.0, 14.0];

const SITES: u64 = 2;

struct Sizes {
    warm: usize,
    round_raw: usize,
    cycle: usize,
    rounds: u32,
}

impl Sizes {
    fn new(scale: Scale, delta: bool) -> Self {
        match scale {
            Scale::Full { seconds } => Self {
                warm: 1 << 20,
                round_raw: 32_768,
                cycle: 1 << 20,
                rounds: rounds_for(seconds, ROUNDS_PER_SECOND[usize::from(delta)]),
            },
            Scale::Tiny => Self {
                warm: 1 << 14,
                round_raw: 1 << 11,
                cycle: 1 << 14,
                rounds: 10,
            },
        }
    }
}

/// Field order is drop order: the client hangs up before its buffers go.
struct Site {
    client: SiteClient,
    monitor: Monitor,
    sampler: BernoulliSampler,
    stream: Vec<u64>,
    acked: Vec<u8>,
}

/// Sites before the collector, so they hang up before it winds down.
struct Setup {
    sites: Vec<Site>,
    server: CollectorServer,
}

/// Run the workload into `rec`; `delta` selects `fleet_delta`.
pub fn run(scale: Scale, seed: u64, delta: bool, rec: &mut Recorder) {
    let sz = Sizes::new(scale, delta);
    let proto = prototype();
    let mut s = rec.setup(|| {
        let server = CollectorServer::bind("127.0.0.1:0", proto.clone(), ServerConfig::default())
            .expect("bind collector");
        let sites = (1..=SITES)
            .map(|id| {
                let stream = ZipfStream::new(1 << 16, 1.2).generate(
                    (sz.warm + sz.cycle) as u64,
                    derive_seed(seed, purpose::STREAM, id),
                );
                let mut sampler = BernoulliSampler::new(P, derive_seed(seed, purpose::SAMPLER, id));
                let mut monitor = proto.fork_shard(id);
                sampler.sample_batches(&stream[..sz.warm], SURVIVOR_CHUNK, |c| {
                    monitor.update_batch(c)
                });
                let mut cfg = ClientConfig::new(id, format!("site-{id}"));
                cfg.delta_pushes = delta;
                let mut client =
                    SiteClient::connect(server.local_addr(), cfg).expect("connect site");
                let acked = monitor.checkpoint().expect("checkpoint");
                client.push_wire(acked.clone()).expect("first full push");
                Site {
                    client,
                    monitor,
                    sampler,
                    stream,
                    acked,
                }
            })
            .collect();
        Setup { sites, server }
    });

    let clients_before: Vec<_> = s.sites.iter().map(|x| x.client.stats().clone()).collect();
    let server_before = s.server.stats();
    rec.start_timed();
    for round in 0..sz.rounds {
        let t0 = rec.begin_round(round);
        let lo = sz.warm + (round as usize * sz.round_raw) % sz.cycle;
        let mut newest = t0;
        for site in &mut s.sites {
            newest = Instant::now();
            let raw = &site.stream[lo..lo + sz.round_raw];
            ingest(&mut rec.tracer, &mut site.sampler, raw, &mut site.monitor);
        }
        let pushes: Vec<_> = s
            .sites
            .iter_mut()
            .map(|site| checkpoint_and_push(rec, &site.monitor, &mut site.client))
            .collect();
        query_merged(rec, &s.server, newest);
        rec.end_round(t0, (sz.round_raw * s.sites.len()) as u64);
        for (site, push) in s.sites.iter_mut().zip(pushes) {
            settle_push(rec, &proto, &mut site.acked, delta, push);
        }
    }
    rec.end_timed();

    let clients_after: Vec<_> = s.sites.iter().map(|x| x.client.stats().clone()).collect();
    let server_after = s.server.stats();
    record_transport(
        rec,
        &clients_before,
        &clients_after,
        &server_before,
        &server_after,
    );
    let merged = s.server.merged();
    rec.set("state_bytes", merged.space_bytes() as f64);

    let mut in_memory = proto.clone();
    let folded = s
        .sites
        .iter()
        .all(|x| in_memory.try_merge(&x.monitor).is_ok());
    rec.check(
        "collector's merged view is bitwise equal to an in-memory try_merge of the sites",
        folded && report_bits(&merged.report()) == report_bits(&in_memory.report()),
    );
    rec.check("no push was rejected", server_after.rejected_total() == 0);
    let deltas: u64 = clients_after
        .iter()
        .zip(&clients_before)
        .map(|(a, b)| a.snapshots_delta - b.snapshots_delta)
        .sum();
    let want = if delta {
        u64::from(sz.rounds) * SITES
    } else {
        0
    };
    rec.check(
        format!("{deltas} delta pushes, expected {want}"),
        deltas == want,
    );
}
