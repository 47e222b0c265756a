//! Per-update throughput of every sketch substrate — the constant behind
//! the paper's `Õ(1)` per-sampled-item processing cost (§1.2) — with the
//! batched (row/copy-major) paths alongside the per-item ones.

use sss_bench::BenchGroup;
use sss_sketch::{AmsF2, CountMin, CountSketch, KmvSketch, MisraGries};
use sss_stream::{StreamGen, ZipfStream};

const N: u64 = 100_000;

fn main() {
    let stream = ZipfStream::new(1 << 16, 1.2).generate(N, 42);
    let mut g = BenchGroup::new("sketch_update", N);

    g.bench("countmin_5x1024", || {
        let mut cm = CountMin::new(5, 1024, 7);
        for &x in &stream {
            cm.update(x, 1);
        }
        cm.total()
    });

    g.bench("countmin_5x1024_batched", || {
        let mut cm = CountMin::new(5, 1024, 7);
        for chunk in stream.chunks(4096) {
            cm.update_batch(chunk);
        }
        cm.total()
    });

    g.bench("countsketch_5x1024", || {
        let mut cs = CountSketch::new(5, 1024, 7);
        for &x in &stream {
            cs.update(x, 1);
        }
        cs.total()
    });

    g.bench("countsketch_5x1024_batched", || {
        let mut cs = CountSketch::new(5, 1024, 7);
        for chunk in stream.chunks(4096) {
            cs.update_batch(chunk);
        }
        cs.total()
    });

    g.bench("misra_gries_256", || {
        let mut mg = MisraGries::new(256);
        for &x in &stream {
            mg.update(x);
        }
        mg.n()
    });

    g.bench("ams_7x64", || {
        let mut ams = AmsF2::new(7, 64, 7);
        for &x in &stream {
            ams.update(x, 1);
        }
        ams.estimate()
    });

    g.bench("ams_7x64_batched", || {
        let mut ams = AmsF2::new(7, 64, 7);
        for chunk in stream.chunks(4096) {
            ams.update_batch(chunk);
        }
        ams.estimate()
    });

    g.bench("kmv_1024", || {
        let mut kmv = KmvSketch::new(1024, 7);
        for &x in &stream {
            kmv.update(x);
        }
        kmv.estimate()
    });
}
