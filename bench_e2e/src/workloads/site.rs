//! `site_ingest`: one long-lived site over a sampled NetFlow trace.
//!
//! The site replays a packet trace of 2^20 possible flows (a working
//! set larger than the caches) through a Bernoulli sampler into the
//! monitor. Every round of 2^21 packets ends with checkpoint → push to
//! a loopback collector → `merged().report()`. Ingest dominates, so the
//! `stream`, `core`, sketch and hash kernels show here; transport and
//! window changes should not move this workload.

use std::time::Instant;

use sss_core::{Monitor, Statistic};
use sss_stream::{BernoulliSampler, NetFlowStream, StreamGen};
use sss_transport::{ClientConfig, CollectorServer, ServerConfig, SiteClient};

use super::{
    checkpoint_and_push, derive_seed, ingest, prototype, purpose, query_merged, record_transport,
    report_bits, rounds_for, settle_push, Recorder, Scale, P,
};

/// Rounds per second of timed phase on the reference host.
const ROUNDS_PER_SECOND: f64 = 1.8;

struct Sizes {
    trace_len: usize,
    flows: u64,
    round_raw: usize,
    batch_raw: usize,
    rounds: u32,
}

impl Sizes {
    fn new(scale: Scale) -> Self {
        match scale {
            Scale::Full { seconds } => Self {
                trace_len: 1 << 23,
                flows: 1 << 20,
                round_raw: 1 << 21,
                batch_raw: 1 << 16,
                rounds: rounds_for(seconds, ROUNDS_PER_SECOND),
            },
            Scale::Tiny => Self {
                trace_len: 1 << 15,
                flows: 1 << 12,
                round_raw: 1 << 12,
                batch_raw: 1 << 10,
                rounds: 10,
            },
        }
    }
}

/// Field order is drop order: the client hangs up before the collector
/// winds down.
struct Setup {
    client: SiteClient,
    server: CollectorServer,
    site: Monitor,
    trace: Vec<u64>,
    acked: Vec<u8>,
}

/// Run the workload into `rec`.
pub fn run(scale: Scale, seed: u64, rec: &mut Recorder) {
    let sz = Sizes::new(scale);
    let proto = prototype();
    let mut s = rec.setup(|| {
        let trace = NetFlowStream::new(sz.flows, 1.1, 10_000)
            .generate(sz.trace_len as u64, derive_seed(seed, purpose::STREAM, 0));
        let server = CollectorServer::bind("127.0.0.1:0", proto.clone(), ServerConfig::default())
            .expect("bind collector");
        let site = proto.fork_shard(1);
        let mut client = SiteClient::connect(server.local_addr(), ClientConfig::new(1, "site-1"))
            .expect("connect site");
        let acked = site.checkpoint().expect("checkpoint");
        client.push_wire(acked.clone()).expect("first full push");
        Setup {
            client,
            server,
            site,
            trace,
            acked,
        }
    });

    let client_before = s.client.stats().clone();
    let server_before = s.server.stats();
    let mut pass = 0u64;
    let mut sampler = BernoulliSampler::new(P, derive_seed(seed, purpose::SAMPLER, pass));
    let mut pos = 0usize;
    rec.start_timed();
    for round in 0..sz.rounds {
        let t0 = rec.begin_round(round);
        let mut newest = t0;
        let raw = &s.trace[pos..pos + sz.round_raw];
        for batch in raw.chunks(sz.batch_raw) {
            newest = Instant::now();
            ingest(&mut rec.tracer, &mut sampler, batch, &mut s.site);
        }
        pos += sz.round_raw;
        if pos == s.trace.len() {
            pos = 0;
            pass += 1;
            sampler = BernoulliSampler::new(P, derive_seed(seed, purpose::SAMPLER, pass));
        }

        let push = checkpoint_and_push(rec, &s.site, &mut s.client);
        query_merged(rec, &s.server, newest);
        rec.end_round(t0, sz.round_raw as u64);
        settle_push(rec, &proto, &mut s.acked, true, push);
    }
    rec.end_timed();

    record_transport(
        rec,
        &[client_before],
        &[s.client.stats().clone()],
        &server_before,
        &s.server.stats(),
    );
    rec.set("state_bytes", s.site.space_bytes() as f64);

    let live = report_bits(&s.site.report());
    let restored = Monitor::restore(&s.site.checkpoint().expect("checkpoint"))
        .map(|m| report_bits(&m.report()));
    rec.check(
        "restore(checkpoint) reports bitwise the same as the live site",
        restored.as_ref() == Ok(&live),
    );
    rec.check(
        "collector's merged view reports bitwise the same as the live site",
        report_bits(&s.server.merged().report()) == live,
    );
    let offered = (sz.rounds as usize * sz.round_raw).min(s.trace.len());
    let exact = distinct(&s.trace[..offered], sz.flows) as f64;
    let factor = 4.0 / P.sqrt();
    let f0 = s.site.estimate(Statistic::F0).map_or(f64::NAN, |e| e.value);
    rec.check(
        format!("F0 {f0:.0} within Lemma 8's {factor:.1}x of the exact {exact:.0} distinct flows"),
        f0 >= exact / factor && f0 <= exact * factor,
    );
}

/// Exact distinct count of `xs`, all below `universe`.
fn distinct(xs: &[u64], universe: u64) -> u64 {
    let mut seen = vec![0u64; universe.div_ceil(64) as usize];
    for &x in xs {
        seen[(x / 64) as usize] |= 1 << (x % 64);
    }
    seen.iter().map(|w| u64::from(w.count_ones())).sum()
}
