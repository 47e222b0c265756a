//! Batch-vs-scalar equivalence battery: every sketch substrate with an
//! `update_batch`, checked through the shared harness
//! (`sss_sketch::equiv`) — estimates bit-for-bit AND encoded snapshots
//! byte-for-byte, across seeds × chunk sizes.

use sss_hash::{RngCore64, Xoshiro256pp};
use sss_sketch::equiv::assert_batch_equals_scalar;
use sss_sketch::levelset::LevelSetConfig;
use sss_sketch::{
    AmsF2, CmHeavyHitters, CountMin, CountSketch, CsHeavyHitters, EntropyEstimator, KmvSketch,
    LevelSetEstimator, MedianF0, MisraGries,
};

/// Skewed mixture: a few hot items over a long uniform tail — exercises
/// duplicate-heavy paths, counter churn and candidate admission.
fn mixed(seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    (0..12_000)
        .map(|_| {
            if rng.next_bool(0.4) {
                rng.next_below(3)
            } else {
                3 + rng.next_below(4096)
            }
        })
        .collect()
}

/// A stream whose dominant item appears, disappears and returns —
/// exercises the entropy estimator's leader transitions and the
/// Misra–Gries decrement-all path.
fn leadered(seed: u64) -> Vec<u64> {
    let mut rng = Xoshiro256pp::new(seed);
    let mut xs: Vec<u64> = (0..4_000).map(|_| 42).collect();
    for _ in 0..8_000 {
        xs.push(if rng.next_bool(0.6) {
            42
        } else {
            rng.next_below(4096)
        });
    }
    for _ in 0..4_000 {
        xs.push(rng.next_below(64));
    }
    xs
}

/// Frequencies laddered around the `F_2` admission cutoff `α·√F_2`: two
/// items at 0.5×, three at 1× and one at 2× the cutoff over a light tail
/// of near-singletons, shuffled together. Fed to a narrow sketch whose
/// cells collide, this puts many items' skip bound (`max_r s·c_r` against
/// `α·√(min_r Σc²_r)`) right next to the exact decision.
fn cutoff_ladder(alpha: f64) -> impl Fn(u64) -> Vec<u64> {
    const TAIL: u64 = 6_000;
    const RUNGS: [f64; 6] = [0.5, 0.5, 1.0, 1.0, 1.0, 2.0];
    move |seed| {
        let mut rng = Xoshiro256pp::new(seed);
        let mut xs: Vec<u64> = (0..TAIL)
            .map(|_| RUNGS.len() as u64 + rng.next_below(1 << 20))
            .collect();
        // Solve F_2 ≈ TAIL + Σ (m·cutoff)² for the cutoff α·√F_2.
        let rung_sq: f64 = RUNGS.iter().map(|m| m * m).sum();
        let cutoff = alpha * (TAIL as f64 / (1.0 - alpha * alpha * rung_sq)).sqrt();
        for (item, m) in RUNGS.iter().enumerate() {
            let freq = (m * cutoff).round() as usize;
            xs.extend(std::iter::repeat_n(item as u64, freq));
        }
        for i in (1..xs.len()).rev() {
            xs.swap(i, rng.next_below(i as u64 + 1) as usize);
        }
        xs
    }
}

fn pairs_to_f64(v: Vec<(u64, u64)>) -> Vec<f64> {
    v.into_iter()
        .flat_map(|(i, c)| [i as f64, c as f64])
        .collect()
}

#[test]
fn kmv_sketch() {
    assert_batch_equals_scalar(
        "KmvSketch",
        mixed,
        |seed| KmvSketch::new(64, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate()],
    );
}

#[test]
fn median_f0() {
    assert_batch_equals_scalar(
        "MedianF0",
        mixed,
        |seed| MedianF0::new(33, 5, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate()],
    );
}

#[test]
fn count_min_plain() {
    assert_batch_equals_scalar(
        "CountMin",
        mixed,
        |seed| CountMin::new(4, 128, seed),
        |s, x| s.update(x, 1),
        |s, xs| s.update_batch(xs),
        |s| (0..64).map(|x| s.query(x) as f64).collect(),
    );
}

#[test]
fn count_sketch() {
    assert_batch_equals_scalar(
        "CountSketch",
        mixed,
        |seed| CountSketch::new(5, 127, seed),
        |s, x| s.update(x, 1),
        |s, xs| s.update_batch(xs),
        |s| (0..64).map(|x| s.query(x) as f64).collect(),
    );
}

#[test]
fn ams_f2() {
    assert_batch_equals_scalar(
        "AmsF2",
        mixed,
        |seed| AmsF2::new(16, 5, seed),
        |s, x| s.update(x, 1),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate()],
    );
}

#[test]
fn misra_gries() {
    assert_batch_equals_scalar(
        "MisraGries",
        leadered,
        |_seed| MisraGries::new(32),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| pairs_to_f64(s.items()),
    );
}

#[test]
fn level_sets() {
    assert_batch_equals_scalar(
        "LevelSetEstimator",
        mixed,
        |seed| LevelSetEstimator::new(&LevelSetConfig::for_universe(1 << 12, 64), seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| (1..4).map(|ell| s.collision_estimate(ell)).collect(),
    );
}

#[test]
fn entropy_estimator() {
    assert_batch_equals_scalar(
        "EntropyEstimator",
        leadered,
        |seed| EntropyEstimator::new(128, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| vec![s.estimate()],
    );
}

#[test]
fn cm_heavy_hitters() {
    assert_batch_equals_scalar(
        "CmHeavyHitters",
        mixed,
        |seed| CmHeavyHitters::new(0.05, 0.01, 0.05, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| pairs_to_f64(s.report()),
    );
}

#[test]
fn cs_heavy_hitters() {
    assert_batch_equals_scalar(
        "CsHeavyHitters",
        mixed,
        |seed| CsHeavyHitters::new(0.05, 0.01, 0.05, seed),
        |s, x| s.update(x),
        |s, xs| s.update_batch(xs),
        |s| pairs_to_f64(s.report()),
    );
}

#[test]
fn cs_heavy_hitters_at_the_skip_bound_edge() {
    for alpha in [0.05, 0.2] {
        assert_batch_equals_scalar(
            &format!("CsHeavyHitters(cutoff ladder, alpha {alpha})"),
            cutoff_ladder(alpha),
            |seed| CsHeavyHitters::new(alpha, 0.3, 0.3, seed),
            |s, x| s.update(x),
            |s, xs| s.update_batch(xs),
            |s| pairs_to_f64(s.report()),
        );
    }
}
