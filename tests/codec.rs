//! Wire-codec battery: seeded round trips for every `WireCodec` impl,
//! continued-ingestion equivalence, wire merges vs in-memory merges, and
//! corruption tests asserting typed `CodecError`s (never panics).
//!
//! The contract under test (ISSUE 3 acceptance criteria): for every
//! estimator and for `Monitor`, `decode(encode(x))` yields bitwise
//! identical `estimate()` and `space_bytes()`; continued ingestion after
//! a restore matches the never-serialized run exactly; collector-side
//! `try_merge` of decoded shard snapshots equals the in-memory merge.

use subsampled_streams::codec::{CodecError, WireCodec, WIRE_VERSION};
use subsampled_streams::core::{
    apply_snapshot_delta, snapshot_delta, AdaptiveF2Estimator, ConcurrentConfig, ConcurrentMonitor,
    Estimate, Monitor, MonitorBuilder, NaiveScaledF0, NaiveScaledFk, RusuDobraF2,
    SampledEntropyEstimator, SampledF0Estimator, SampledF1HeavyHitters, SampledF2HeavyHitters,
    SampledFkEstimator, SubsampledEstimator,
};
use subsampled_streams::hash::{
    FourWiseSign, PairwiseHash, PolyHash, RngCore64, SplitMix64, Xoshiro256pp,
};
use subsampled_streams::sketch::levelset::{LevelSetConfig, LevelSetEstimator};
use subsampled_streams::sketch::{
    AmsF2, CmHeavyHitters, CountMin, CountSketch, CsHeavyHitters, EntropyEstimator, KmvSketch,
    MedianF0, MisraGries, TopKTracker,
};
use subsampled_streams::stream::{BernoulliSampler, StreamGen, ZipfStream};

fn roundtrip<T: WireCodec>(x: &T) -> T {
    T::decode_framed(&x.encode_framed()).expect("framed round trip")
}

fn stream(n: u64, seed: u64) -> Vec<u64> {
    ZipfStream::new(2_000, 1.2).generate(n, seed)
}

/// Round-trip a `SubsampledEstimator`: bitwise-equal typed estimate and
/// space, then continued ingestion (batch + per-item) must track the
/// never-serialized run exactly — including the re-encoded bytes, which
/// pins that *all* behavioral state survived the trip.
fn assert_estimator_roundtrip<E>(mut original: E, more: &[u64])
where
    E: SubsampledEstimator + WireCodec,
{
    let mut restored = roundtrip(&original);
    let (a, b) = (
        SubsampledEstimator::estimate(&original),
        SubsampledEstimator::estimate(&restored),
    );
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "estimate not bitwise equal"
    );
    assert_eq!(a, b, "typed estimate differs");
    assert_eq!(original.space_bytes(), restored.space_bytes());
    assert_eq!(original.samples_seen(), restored.samples_seen());
    assert_eq!(original.p().to_bits(), restored.p().to_bits());

    let (head, tail) = more.split_at(more.len() / 2);
    original.update_batch(head);
    restored.update_batch(head);
    for &x in tail {
        SubsampledEstimator::update(&mut original, x);
        SubsampledEstimator::update(&mut restored, x);
    }
    let (a, b) = (
        SubsampledEstimator::estimate(&original),
        SubsampledEstimator::estimate(&restored),
    );
    assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "continued ingestion diverged"
    );
    assert_eq!(a, b);
    assert_eq!(
        original.encode(),
        restored.encode(),
        "post-restore state diverged from the never-serialized run"
    );
}

#[test]
fn paper_estimators_roundtrip_bitwise_and_continue() {
    let p = 0.3;
    let sampled = BernoulliSampler::new(p, 11).sample_to_vec(&stream(60_000, 1));
    let (feed, more) = sampled.split_at(sampled.len() / 2);

    let mut f0 = SampledF0Estimator::new(p, 0.05, 7);
    f0.update_batch(feed);
    assert_estimator_roundtrip(f0, more);

    let mut fk = SampledFkEstimator::exact(3, p);
    fk.update_batch(feed);
    assert_estimator_roundtrip(fk, more);

    let cfg = LevelSetConfig::for_universe(1 << 14, 128);
    let mut fk_sketched = SampledFkEstimator::sketched(2, p, &cfg, 9);
    fk_sketched.update_batch(feed);
    assert_estimator_roundtrip(fk_sketched, more);

    let mut entropy = SampledEntropyEstimator::new(p, 400, 13);
    entropy.update_batch(feed);
    assert_estimator_roundtrip(entropy, more);

    let mut hh1 = SampledF1HeavyHitters::new(0.05, 0.2, 0.05, p, 15);
    hh1.update_batch(feed);
    assert_estimator_roundtrip(hh1, more);

    let mut hh2 = SampledF2HeavyHitters::new(0.3, 0.2, 0.05, p, 17);
    hh2.update_batch(feed);
    assert_estimator_roundtrip(hh2, more);
}

#[test]
fn baselines_and_adaptive_roundtrip() {
    let p = 0.4;
    let sampled = BernoulliSampler::new(p, 21).sample_to_vec(&stream(40_000, 2));
    let (feed, more) = sampled.split_at(sampled.len() / 2);

    let mut rd = RusuDobraF2::new(p, 5, 32, 23);
    rd.update_batch(feed);
    assert_estimator_roundtrip(rd, more);

    let mut nk = NaiveScaledFk::new(2, p);
    nk.update_batch(feed);
    assert_estimator_roundtrip(nk, more);

    let mut n0 = NaiveScaledF0::new(p, 25);
    n0.update_batch(feed);
    assert_estimator_roundtrip(n0, more);

    let mut ad = AdaptiveF2Estimator::new(p);
    ad.update_batch(feed);
    ad.set_rate(p / 2.0);
    assert_estimator_roundtrip(ad, more);
}

#[test]
fn merged_estimate_after_restore_keeps_merged_provenance() {
    // An estimator that already folded in merged shards must carry the
    // merged weight/samples across the wire.
    let p = 0.5;
    let mut a = SampledEntropyEstimator::new(p, 100, 1);
    let mut b = SampledEntropyEstimator::new(p, 100, 2);
    a.update_batch(&[1, 2, 3, 4, 5, 6, 7, 8]);
    b.update_batch(&[9, 9, 9, 9, 2, 2]);
    SampledEntropyEstimator::merge(&mut a, &b);
    let restored = roundtrip(&a);
    assert_eq!(
        SubsampledEstimator::estimate(&a),
        SubsampledEstimator::estimate(&restored)
    );
    assert_eq!(a.samples_seen(), restored.samples_seen());
}

#[test]
fn hash_primitives_roundtrip_exactly() {
    // PRNGs: the restored generator continues the exact stream.
    let mut sm = SplitMix64::new(99);
    let _ = sm.derive();
    let mut sm2 = roundtrip(&sm);
    for _ in 0..16 {
        assert_eq!(sm.next_u64(), sm2.next_u64());
    }
    let mut xo = Xoshiro256pp::new(5);
    for _ in 0..7 {
        let _ = xo.next_u64();
    }
    let mut xo2 = roundtrip(&xo);
    for _ in 0..32 {
        assert_eq!(xo.next_u64(), xo2.next_u64());
    }

    // Hash families: identical values on a probe set.
    let poly = PolyHash::new(4, 3);
    let poly2 = roundtrip(&poly);
    let pair = PairwiseHash::new(8);
    let pair2 = roundtrip(&pair);
    let sign = FourWiseSign::new(12);
    let sign2 = roundtrip(&sign);
    for x in (0..2048u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) {
        assert_eq!(poly.hash(x), poly2.hash(x));
        assert_eq!(pair.hash(x), pair2.hash(x));
        assert_eq!(pair.level(x), pair2.level(x));
        assert_eq!(sign.sign(x), sign2.sign(x));
    }
}

#[test]
fn sampler_roundtrip_continues_the_same_survival_sequence() {
    let data: Vec<u64> = (0..40_000u64).collect();
    let mut s = BernoulliSampler::new(0.13, 77);
    let _ = s.sample_to_vec(&data[..20_000]);
    let mut s2 = roundtrip(&s);
    assert_eq!(
        s.sample_to_vec(&data[20_000..]),
        s2.sample_to_vec(&data[20_000..]),
        "restored sampler must continue the exact survival sequence"
    );
    assert_eq!(s.seed(), s2.seed());
    assert_eq!(s.p(), s2.p());
}

#[test]
fn sketch_substrates_roundtrip_and_continue() {
    let feed = stream(30_000, 3);
    let (head, tail) = feed.split_at(feed.len() / 2);

    let mut kmv = KmvSketch::new(128, 1);
    kmv.update_batch(head);
    let mut kmv2 = roundtrip(&kmv);
    assert_eq!(kmv.estimate().to_bits(), kmv2.estimate().to_bits());
    kmv.update_batch(tail);
    kmv2.update_batch(tail);
    assert_eq!(kmv.estimate().to_bits(), kmv2.estimate().to_bits());

    let mut med = MedianF0::new(64, 5, 2);
    med.update_batch(head);
    let med2 = roundtrip(&med);
    assert_eq!(med.estimate().to_bits(), med2.estimate().to_bits());
    assert_eq!(med.space_words(), med2.space_words());

    let mut ams = AmsF2::new(5, 16, 3);
    ams.update_batch(head);
    let mut ams2 = roundtrip(&ams);
    assert_eq!(ams.estimate().to_bits(), ams2.estimate().to_bits());
    ams.update(42, -3);
    ams2.update(42, -3);
    assert_eq!(ams.estimate().to_bits(), ams2.estimate().to_bits());
    assert_eq!(ams.total(), ams2.total());

    let mut cm = CountMin::new(4, 64, 4);
    cm.update_batch(head);
    let mut cm2 = roundtrip(&cm);
    for x in 0..500u64 {
        assert_eq!(cm.query(x), cm2.query(x));
    }
    cm.update_batch(tail);
    cm2.update_batch(tail);
    assert_eq!(cm.total(), cm2.total());
    for x in 0..500u64 {
        assert_eq!(cm.query(x), cm2.query(x));
    }

    let mut cs = CountSketch::new(5, 128, 6);
    cs.update_batch(head);
    let mut cs2 = roundtrip(&cs);
    assert_eq!(cs.f2_estimate().to_bits(), cs2.f2_estimate().to_bits());
    cs.update_batch(tail);
    cs2.update_batch(tail);
    assert_eq!(cs.f2_estimate().to_bits(), cs2.f2_estimate().to_bits());
    for x in 0..500u64 {
        assert_eq!(cs.query(x), cs2.query(x));
    }

    let mut mg = MisraGries::new(32);
    mg.update_batch(head);
    let mut mg2 = roundtrip(&mg);
    assert_eq!(mg.items(), mg2.items());
    mg.update_batch(tail);
    mg2.update_batch(tail);
    assert_eq!(mg.items(), mg2.items());
    assert_eq!(mg.n(), mg2.n());

    let mut tk = TopKTracker::new(16);
    for (i, &x) in head.iter().enumerate() {
        tk.offer(x, i as f64);
    }
    let tk2 = roundtrip(&tk);
    assert_eq!(
        tk.candidates().collect::<Vec<_>>(),
        tk2.candidates().collect::<Vec<_>>()
    );

    let cfg = LevelSetConfig::for_universe(1 << 12, 64);
    let mut ls = LevelSetEstimator::new(&cfg, 8);
    ls.update_batch(head);
    let mut ls2 = roundtrip(&ls);
    assert_eq!(
        ls.collision_estimate(2).to_bits(),
        ls2.collision_estimate(2).to_bits()
    );
    ls.update_batch(tail);
    ls2.update_batch(tail);
    assert_eq!(
        ls.collision_estimate(2).to_bits(),
        ls2.collision_estimate(2).to_bits()
    );
    assert_eq!(ls.eta().to_bits(), ls2.eta().to_bits());

    let mut ent = EntropyEstimator::new(300, 9);
    ent.update_batch(head);
    let mut ent2 = roundtrip(&ent);
    assert_eq!(ent.estimate().to_bits(), ent2.estimate().to_bits());
    ent.update_batch(tail);
    ent2.update_batch(tail);
    assert_eq!(
        ent.estimate().to_bits(),
        ent2.estimate().to_bits(),
        "entropy reservoirs (heap + RNG + trackers) must replay identically"
    );
    assert_eq!(ent.leader_share(), ent2.leader_share());

    let mut hh = CmHeavyHitters::new(0.05, 0.01, 0.05, 10);
    hh.update_batch(head);
    let mut hhb = roundtrip(&hh);
    assert_eq!(hh.report(), hhb.report());
    hh.update_batch(tail);
    hhb.update_batch(tail);
    assert_eq!(hh.report(), hhb.report());

    let mut cshh = CsHeavyHitters::new(0.3, 0.1, 0.05, 11);
    cshh.update_batch(head);
    let mut cshh2 = roundtrip(&cshh);
    cshh.update_batch(tail);
    cshh2.update_batch(tail);
    assert_eq!(cshh.report(), cshh2.report());
}

fn full_monitor(p: f64) -> Monitor {
    MonitorBuilder::with_seed(p, 4242)
        .f0(0.05)
        .fk(2)
        .entropy(400)
        .f1_heavy_hitters(0.05, 0.2, 0.05)
        .f2_heavy_hitters(0.3, 0.2, 0.05)
        .register("F2_naive", NaiveScaledFk::new(2, p))
        .register("F0_naive", NaiveScaledF0::new(p, 91))
        .register("F2_rusu_dobra", RusuDobraF2::new(p, 5, 32, 92))
        .register("F2_adaptive", AdaptiveF2Estimator::new(p))
        .build()
}

fn assert_reports_bitwise_equal(a: &Monitor, b: &Monitor) {
    assert_eq!(a.samples_seen(), b.samples_seen());
    assert_eq!(a.space_bytes(), b.space_bytes());
    assert_eq!(a.p().to_bits(), b.p().to_bits());
    let (ra, rb) = (a.report(), b.report());
    assert_eq!(ra.len(), rb.len());
    for ((la, ea), (lb, eb)) in ra.iter().zip(&rb) {
        assert_eq!(la, lb);
        assert_eq!(ea.value.to_bits(), eb.value.to_bits(), "{la} value differs");
        assert_eq!(ea, eb, "{la} estimate differs");
    }
}

#[test]
fn monitor_checkpoint_restore_is_observationally_identical() {
    let p = 0.25;
    let mut monitor = full_monitor(p);
    let sampled = BernoulliSampler::new(p, 51).sample_to_vec(&stream(80_000, 4));
    let (head, tail) = sampled.split_at(sampled.len() / 2);
    monitor.update_batch(head);

    let bytes = monitor.checkpoint().expect("checkpoint");
    let mut restored = Monitor::restore(&bytes).expect("restore");
    assert_reports_bitwise_equal(&monitor, &restored);
    assert_eq!(monitor.wire_layout(), restored.wire_layout());

    // Crash recovery: the restored monitor continues exactly like the
    // process that never died.
    monitor.update_batch(tail);
    restored.update_batch(tail);
    assert_reports_bitwise_equal(&monitor, &restored);
    assert_eq!(
        monitor.checkpoint().expect("a"),
        restored.checkpoint().expect("b"),
        "post-restore checkpoints must be byte-identical"
    );
}

#[test]
fn collector_merge_of_decoded_snapshots_equals_in_memory_merge() {
    let p = 0.2;
    let traffic = stream(90_000, 5);
    let slices: Vec<&[u64]> = traffic.chunks(traffic.len() / 3).collect();

    // Three sites share one builder config; each samples its own slice.
    let mut sites = Vec::new();
    for (s, slice) in slices.iter().enumerate() {
        let mut m = full_monitor(p);
        let mut sampler = BernoulliSampler::new(p, 100 + s as u64);
        sampler.sample_batches(slice, 512, |chunk| m.update_batch(chunk));
        sites.push(m);
    }

    // In-memory collector.
    let mut in_memory = sites[0].clone();
    for other in &sites[1..] {
        in_memory.try_merge(other).expect("in-memory merge");
    }

    // Bytes-over-a-boundary collector: every site ships its snapshot.
    let wires: Vec<Vec<u8>> = sites
        .iter()
        .map(|m| m.checkpoint().expect("site"))
        .collect();
    let mut over_wire = Monitor::restore(&wires[0]).expect("site 0");
    for w in &wires[1..] {
        let site = Monitor::restore(w).expect("site decode");
        over_wire.try_merge(&site).expect("wire merge");
    }

    assert_reports_bitwise_equal(&in_memory, &over_wire);

    // Fold order, decode history and the form each exact frequency map
    // holds do not matter either. Every site is in turn live (its maps
    // count items in a hash map) or restored (its maps keep the sorted
    // wire columns), and all 8 mixes × 6 fold orders answer the same F2
    // and F2_naive bits. Within one order every mix also checkpoints the
    // same bytes: the merged maps hold the same rows whatever their form.
    // `merge_all` — the collector's and the window's fold, which joins
    // the sorted maps of an all-restored fleet in one tree — checkpoints
    // the same bytes as the merges one by one.
    let restored: Vec<Monitor> = wires
        .iter()
        .map(|w| Monitor::restore(w).expect("site decode"))
        .collect();
    let mut folds = Vec::new();
    for order in [
        [0, 1, 2],
        [0, 2, 1],
        [1, 0, 2],
        [1, 2, 0],
        [2, 0, 1],
        [2, 1, 0],
    ] {
        let mut checkpoints = Vec::new();
        for mix in 0..8usize {
            let picked: Vec<&Monitor> = order
                .iter()
                .map(|&i| {
                    if mix >> i & 1 == 1 {
                        &restored[i]
                    } else {
                        &sites[i]
                    }
                })
                .collect();
            let mut view = full_monitor(p);
            for site in &picked {
                view.try_merge(site).expect("fold");
            }
            let mut folded = full_monitor(p);
            folded.merge_all(&picked);
            let bits = |label: &str| view.estimate_labeled(label).expect(label).value.to_bits();
            folds.push((order, mix, bits("F2"), bits("F2_naive")));
            let bytes = view.checkpoint().expect("folded view");
            assert!(
                folded.checkpoint().expect("merge_all view") == bytes,
                "fold order {order:?}: mix {mix:03b} merge_all checkpoints different bytes"
            );
            checkpoints.push(bytes);
        }
        for (mix, bytes) in checkpoints.iter().enumerate() {
            assert!(
                *bytes == checkpoints[0],
                "fold order {order:?}: mix {mix:03b} checkpoints different bytes than all-live"
            );
        }
    }
    assert_eq!(folds.len(), 48);
    for &(order, mix, f2, naive) in &folds {
        assert_eq!(
            (f2, naive),
            (folds[0].2, folds[0].3),
            "fold order {order:?}, restored sites {mix:03b}"
        );
    }
}

#[test]
fn v1_frequency_map_rows_decode_in_any_order() {
    // v1 shipped an exact frequency map as `u64 n ‖ u64 len ‖ (u64 id,
    // u64 count)*`, rows in whatever order the writer's hash map held
    // them. Decode still takes them in any order, and re-encodes them as
    // the v2 bytes of the same rows sorted.
    use subsampled_streams::codec::Reader;

    fn v1_naive_f2(rows: &[(u64, u64)]) -> Vec<u8> {
        let mut payload = 2u32.to_le_bytes().to_vec(); // k
        payload.extend(0.5f64.to_le_bytes()); // p
        let n: u64 = rows.iter().map(|&(_, g)| g).sum();
        payload.extend(n.to_le_bytes());
        payload.extend((rows.len() as u64).to_le_bytes());
        for &(x, g) in rows {
            payload.extend(x.to_le_bytes());
            payload.extend(g.to_le_bytes());
        }
        payload
    }
    fn decode_v1(payload: &[u8]) -> Result<NaiveScaledFk, CodecError> {
        let mut r = Reader::with_version(payload, 1);
        let decoded = NaiveScaledFk::decode(&mut r)?;
        r.expect_empty()?;
        Ok(decoded)
    }

    let shuffled = [(9, 2), (1, 1), (u64::MAX, 3), (4, 1), (2, 5)];
    let mut in_order = shuffled;
    in_order.sort_unstable();
    let mut live = NaiveScaledFk::new(2, 0.5);
    for &(x, g) in &shuffled {
        (0..g).for_each(|_| live.update(x));
    }
    for rows in [&shuffled, &in_order] {
        let decoded = decode_v1(&v1_naive_f2(rows)).expect("v1 rows decode in any order");
        assert_eq!(decoded.encode(), live.encode(), "rows {rows:?}");
        assert_eq!(
            decoded.estimate().value.to_bits(),
            live.estimate().value.to_bits()
        );
    }

    let row_invalid = CodecError::Invalid {
        what: "frequency map row invalid",
    };
    let duplicate_id = [(9, 2), (1, 1), (4, 1), (9, 1)];
    assert_eq!(
        decode_v1(&v1_naive_f2(&duplicate_id)).unwrap_err(),
        row_invalid
    );
    let zero_count = [(9, 2), (1, 0), (4, 1)];
    assert_eq!(
        decode_v1(&v1_naive_f2(&zero_count)).unwrap_err(),
        row_invalid
    );
}

#[test]
fn frequency_map_decode_rejects_a_sample_count_that_disagrees_with_the_map() {
    // Both exact-map estimators ship `varint n ‖ sorted-delta ids ‖
    // varint counts` after their own header. Splice n = 1,000,000 over a
    // map whose counts sum to 6: decode must refuse it, not report a
    // million samples.
    use subsampled_streams::codec::put_varint_u64;
    use subsampled_streams::core::{CollisionOracle, ExactCollisions};

    fn splice_n(payload: &[u8], at: usize) -> Vec<u8> {
        assert_eq!(payload[at], 6, "one-byte varint n at offset {at}");
        let mut bad = payload[..at].to_vec();
        put_varint_u64(&mut bad, 1_000_000);
        bad.extend_from_slice(&payload[at + 1..]);
        bad
    }
    let sample = [1u64, 1, 2, 3, 3, 3];
    let mismatch = CodecError::Invalid {
        what: "frequency map counts do not sum to n",
    };

    let mut naive = NaiveScaledFk::new(2, 0.5);
    naive.update_batch(&sample);
    let payload = naive.encode();
    assert!(NaiveScaledFk::decode_slice(&payload).is_ok());
    // Header: k (u32) ‖ p (f64).
    match NaiveScaledFk::decode_slice(&splice_n(&payload, 12)) {
        Err(e) => assert_eq!(e, mismatch),
        Ok(est) => panic!("decoded with samples_seen = {}", est.samples_seen()),
    }

    let mut exact = ExactCollisions::new(2);
    exact.update_batch(&sample);
    let payload = exact.encode();
    assert!(ExactCollisions::decode_slice(&payload).is_ok());
    // Header: c = [unused, C_1, C_2] as a u64 length and three f64s.
    match ExactCollisions::decode_slice(&splice_n(&payload, 32)) {
        Err(e) => assert_eq!(e, mismatch),
        Ok(o) => panic!("decoded with n = {}", o.n()),
    }
}

#[test]
fn sharded_monitor_wire_collection_matches_in_memory() {
    let p = 0.3;
    let trace = std::sync::Arc::new(stream(60_000, 6));
    let proto = || {
        MonitorBuilder::with_seed(p, 9)
            .f0(0.05)
            .fk(2)
            .entropy(256)
            .build()
    };

    // Each site fans its ingest out over two worker threads.
    let run_site = |sampler_seed: u64| {
        let mut cm = ConcurrentMonitor::launch(&proto(), sampler_seed, ConcurrentConfig::new(2));
        cm.ingest_shared(&trace);
        cm.finish()
    };
    let site_a = run_site(100);
    let site_b = run_site(200);

    let mut in_memory = site_a.clone();
    in_memory.try_merge(&site_b).expect("in-memory");

    let mut over_wire = Monitor::restore(&site_a.checkpoint().expect("a")).expect("a");
    over_wire
        .try_merge(&Monitor::restore(&site_b.checkpoint().expect("b")).expect("b"))
        .expect("wire");

    assert_reports_bitwise_equal(&in_memory, &over_wire);

    // The mid-run snapshot path produces decodable frames too.
    let mut cm = ConcurrentMonitor::launch(&proto(), 300, ConcurrentConfig::new(2));
    cm.ingest_shared(&trace);
    let wire = cm.snapshot().checkpoint().expect("snapshot encode");
    let snap = Monitor::restore(&wire).expect("snapshot decode");
    assert!(snap.p() == p);
    let _ = cm.finish();
}

#[test]
fn corruption_yields_typed_errors_never_panics() {
    let p = 0.5;
    let mut monitor = MonitorBuilder::with_seed(p, 77)
        .f0(0.1)
        .fk(2)
        .entropy(32)
        .f1_heavy_hitters(0.1, 0.2, 0.1)
        .build();
    monitor.update_batch(&BernoulliSampler::new(p, 62).sample_to_vec(&stream(4_000, 8)));
    let bytes = monitor.checkpoint().expect("checkpoint");

    // Every truncation is a typed error, not a panic.
    for cut in 0..bytes.len() {
        match Monitor::restore(&bytes[..cut]) {
            Err(_) => {}
            Ok(_) => panic!("truncated prefix of {cut} bytes decoded successfully"),
        }
    }

    // Flipped version byte.
    let mut b = bytes.clone();
    b[4] ^= 0x02;
    match Monitor::restore(&b) {
        Err(CodecError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, WIRE_VERSION ^ 0x02);
            assert_eq!(supported, WIRE_VERSION);
        }
        Err(other) => panic!("expected UnsupportedVersion, got {other:?}"),
        Ok(_) => panic!("corrupt version byte decoded successfully"),
    }

    // Wrong top-level statistic/type tag.
    let mut b = bytes.clone();
    b[6] ^= 0x01;
    assert!(matches!(
        Monitor::restore(&b),
        Err(CodecError::TagMismatch { .. })
    ));

    // A frame of the wrong type entirely.
    let f0 = SampledF0Estimator::new(p, 0.1, 1);
    assert!(matches!(
        Monitor::restore(&f0.encode_framed()),
        Err(CodecError::TagMismatch { .. })
    ));

    // Bad magic.
    let mut b = bytes.clone();
    b[0] = b'X';
    assert!(matches!(
        Monitor::restore(&b),
        Err(CodecError::BadMagic { .. })
    ));

    // Trailing garbage after a complete frame.
    let mut b = bytes.clone();
    b.push(0);
    assert!(matches!(
        Monitor::restore(&b),
        Err(CodecError::TrailingBytes { .. })
    ));

    // Single-byte flip fuzz: the frame checksum guarantees EVERY flip is
    // rejected with a typed error — and none may panic.
    for i in 0..bytes.len() {
        let mut b = bytes.clone();
        b[i] ^= 0xFF;
        assert!(
            Monitor::restore(&b).is_err(),
            "flip at byte {i} decoded successfully"
        );
    }
}

#[test]
fn v2_packed_payload_corruption_is_typed_even_without_the_envelope() {
    // The frame checksum catches every flip of a *framed* buffer (the
    // fuzz above); this drills the decoders themselves on raw v2
    // payloads, where varint-packed sections must reject malformed
    // encodings with typed errors and never panic or misparse.
    use subsampled_streams::codec::{put_varint_u64, Reader};

    let feed = stream(20_000, 9);
    let mut mg = MisraGries::new(64);
    mg.update_batch(&feed);
    let mut cs = CountSketch::new(5, 256, 6);
    cs.update_batch(&feed);
    let mut kmv = KmvSketch::new(128, 1);
    kmv.update_batch(&feed);

    // Truncation at every byte of every packed payload is typed.
    let payload = mg.encode();
    for cut in 0..payload.len() {
        assert!(MisraGries::decode_slice(&payload[..cut]).is_err());
    }
    let payload = cs.encode();
    for cut in 0..payload.len() {
        assert!(CountSketch::decode_slice(&payload[..cut]).is_err());
    }
    let payload = kmv.encode();
    for cut in 0..payload.len() {
        assert!(KmvSketch::decode_slice(&payload[..cut]).is_err());
    }

    // Every single-byte flip of a raw payload either decodes to *some*
    // valid state or fails typed — never a panic, never an OOM (the
    // allocation guards hold without the envelope's checksum).
    let payload = mg.encode();
    for i in 0..payload.len() {
        let mut b = payload.clone();
        b[i] ^= 0xFF;
        let _ = MisraGries::decode_slice(&b);
    }

    // Overlong varint in a v2 scalar slot (k of MisraGries encoded
    // non-canonically as two bytes).
    let mut bad = vec![0x80 | 64, 0x00]; // k = 64, overlong
    put_varint_u64(&mut bad, 0); // n
    put_varint_u64(&mut bad, 0); // empty item column
    put_varint_u64(&mut bad, 0); // empty count column
    assert!(matches!(
        MisraGries::decode_slice(&bad),
        Err(CodecError::Invalid {
            what: "overlong varint encoding"
        })
    ));

    // Truncated varint (continuation bit set, stream ends).
    assert!(matches!(
        MisraGries::decode_slice(&[0xFF]),
        Err(CodecError::Truncated { .. })
    ));

    // An 11-byte varint (more than 64 bits of payload) in a packed
    // stream is rejected before any allocation.
    let mut r = Reader::new(&[0xFF; 16]);
    assert!(r.varint_u64().is_err());

    // Out-of-range zigzag: a 10-byte varint whose final byte carries
    // more than the single permitted bit overflows u64 — the i64 view
    // can never see it as a value.
    let mut bytes = vec![0xFF; 9];
    bytes.push(0x03);
    let mut r = Reader::new(&bytes);
    assert_eq!(
        r.varint_i64(),
        Err(CodecError::Invalid {
            what: "varint encodes more than 64 bits"
        })
    );
}

/// The conservative-update CountMin is retired, but its flag byte stays
/// on the wire: encode writes `false`, and decode refuses `true`.
#[test]
fn count_min_decode_rejects_the_retired_conservative_flag() {
    let mut cm = CountMin::new(3, 32, 5);
    cm.update_batch(&stream(2_000, 3));
    let mut bytes = cm.encode();
    assert_eq!(bytes.pop(), Some(0), "the flag is the payload's last byte");
    bytes.push(1);
    assert_eq!(
        CountMin::decode_slice(&bytes).unwrap_err(),
        CodecError::Invalid {
            what: "CountMin conservative update is not supported"
        }
    );
}

#[test]
fn delta_checkpoints_roundtrip_and_reject_wrong_bases() {
    let p = 0.3;
    let mut monitor = full_monitor(p);
    let sampled = BernoulliSampler::new(p, 71).sample_to_vec(&stream(60_000, 10));
    let (head, mid, tail) = {
        let (h, rest) = sampled.split_at(sampled.len() / 3);
        let (m, t) = rest.split_at(rest.len() / 2);
        (h, m, t)
    };

    monitor.update_batch(head);
    let base = monitor.checkpoint().expect("base checkpoint");

    monitor.update_batch(mid);
    let full = monitor.checkpoint().expect("full checkpoint");
    let delta = snapshot_delta(&base, &full);
    assert!(
        delta.len() * 2 < full.len(),
        "steady-state delta ({} B) should be well under the full snapshot ({} B)",
        delta.len(),
        full.len()
    );

    // Applying to the right base rebuilds the exact checkpoint bytes,
    // and the restored monitor is observationally identical.
    assert_eq!(apply_snapshot_delta(&base, &delta).expect("apply"), full);
    let mut restored =
        Monitor::restore(&apply_snapshot_delta(&base, &delta).expect("apply")).expect("restore");
    assert_reports_bitwise_equal(&monitor, &restored);
    monitor.update_batch(tail);
    restored.update_batch(tail);
    assert_reports_bitwise_equal(&monitor, &restored);

    // Wrong base: a *different* checkpoint of the same monitor family.
    let mut other = full_monitor(p);
    other.update_batch(mid);
    let wrong_base = other.checkpoint().expect("other checkpoint");
    assert!(matches!(
        apply_snapshot_delta(&wrong_base, &delta),
        Err(CodecError::BadBase { .. })
    ));
    // A corrupted copy of the right base is also BadBase (checksum).
    let mut bent = base.clone();
    bent[base.len() / 2] ^= 0x10;
    assert!(matches!(
        apply_snapshot_delta(&bent, &delta),
        Err(CodecError::BadBase { .. })
    ));

    // Corrupt delta frames: typed errors at every cut and every flip.
    for cut in [0, 1, delta.len() / 2, delta.len() - 1] {
        assert!(apply_snapshot_delta(&base, &delta[..cut]).is_err());
    }
    for i in (0..delta.len()).step_by(7) {
        let mut b = delta.clone();
        b[i] ^= 0xFF;
        assert!(
            apply_snapshot_delta(&base, &b).is_err(),
            "flip at {i} applied"
        );
    }
}

#[test]
fn sentinel_item_u64_max_survives_the_wire() {
    // The entropy reservoir marks empty slots with item == u64::MAX; a
    // stream that legitimately contains that id must still round-trip
    // (regression: slot-side holder inference rejected its own encoding).
    let mut ent = EntropyEstimator::new(64, 3);
    for i in 0..5_000u64 {
        ent.update(if i % 2 == 0 { u64::MAX } else { i % 37 });
    }
    let mut back = roundtrip(&ent);
    assert_eq!(ent.estimate().to_bits(), back.estimate().to_bits());
    for i in 0..2_000u64 {
        ent.update(u64::MAX.wrapping_sub(i % 3));
        back.update(u64::MAX.wrapping_sub(i % 3));
    }
    assert_eq!(ent.estimate().to_bits(), back.estimate().to_bits());

    let p = 0.5;
    let mut monitor = full_monitor(p);
    let feed: Vec<u64> = (0..4_000u64)
        .map(|i| if i % 3 == 0 { u64::MAX } else { i % 101 })
        .collect();
    monitor.update_batch(&feed);
    let restored = Monitor::restore(&monitor.checkpoint().expect("checkpoint")).expect("restore");
    assert_reports_bitwise_equal(&monitor, &restored);
}

#[derive(Clone)]
struct ThirdPartyEstimator {
    p: f64,
    n: u64,
}

impl SubsampledEstimator for ThirdPartyEstimator {
    fn statistic(&self) -> subsampled_streams::core::Statistic {
        subsampled_streams::core::Statistic::F0
    }
    fn update(&mut self, _x: u64) {
        self.n += 1;
    }
    fn merge(&mut self, other: &Self) {
        self.n += other.n;
    }
    fn estimate(&self) -> Estimate {
        Estimate::scalar(
            self.n as f64,
            subsampled_streams::core::Guarantee::Heuristic,
            self.p,
            self.n,
        )
    }
    fn space_bytes(&self) -> usize {
        16
    }
    fn p(&self) -> f64 {
        self.p
    }
    fn samples_seen(&self) -> u64 {
        self.n
    }
}

impl WireCodec for ThirdPartyEstimator {
    const WIRE_TAG: u16 = 0x7F01; // not in the core decode registry

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.p.encode_into(out);
        self.n.encode_into(out);
    }

    fn decode(r: &mut subsampled_streams::codec::Reader) -> Result<Self, CodecError> {
        Ok(ThirdPartyEstimator {
            p: r.rate()?,
            n: r.u64()?,
        })
    }
}

#[test]
fn checkpoint_rejects_unregistered_estimator_tags_up_front() {
    // A register()-ed estimator whose tag the restore registry cannot
    // decode must fail at CHECKPOINT time (while the live state still
    // exists), not at restore time when the process is gone.
    let monitor = MonitorBuilder::with_seed(0.5, 3)
        .f0(0.05)
        .register("third_party", ThirdPartyEstimator { p: 0.5, n: 0 })
        .build();
    assert_eq!(
        monitor.checkpoint().err(),
        Some(CodecError::UnknownTag { found: 0x7F01 })
    );
    // Built-in-only monitors are unaffected.
    assert!(MonitorBuilder::with_seed(0.5, 3)
        .f0(0.05)
        .build()
        .checkpoint()
        .is_ok());
}

#[test]
fn restored_monitor_rejects_incompatible_merges_like_a_live_one() {
    let a = MonitorBuilder::with_seed(0.5, 1).f0(0.05).build();
    let b = MonitorBuilder::with_seed(0.25, 1).f0(0.05).build();
    let mut ra = Monitor::restore(&a.checkpoint().unwrap()).unwrap();
    let rb = Monitor::restore(&b.checkpoint().unwrap()).unwrap();
    assert!(
        ra.try_merge(&rb).is_err(),
        "rate mismatch must survive the wire"
    );
}
