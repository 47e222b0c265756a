//! From-scratch streaming sketch substrates.
//!
//! Everything the paper's estimators consume as a black box is implemented
//! here, against the hash families of `sss-hash`:
//!
//! | Module | Structure | Role in the paper |
//! |---|---|---|
//! | [`countmin`] | Cormode–Muthukrishnan CountMin | `F_1` heavy hitters on `L` (Thm 6) |
//! | [`countsketch`] | Charikar–Chen–Farach-Colton CountSketch | `F_2` heavy hitters on `L` (Thm 7); frequency recovery inside level sets |
//! | [`misra_gries`] | Misra–Gries frequent items | dominant-element detection for entropy |
//! | [`ams`] | Alon–Matias–Szegedy tug-of-war | `F_2(L)` for the Rusu–Dobra baseline |
//! | [`kmv`] | bottom-k distinct sketch | the `(1/2, δ)` `F_0(L)` estimate of Algorithm 2 |
//! | [`levelset`] | Indyk–Woodruff level sets | `C̃_ℓ(L)` for Algorithm 1 (Thm 2) |
//! | [`entropy`] | CCM suffix-count estimator | multiplicative `H(g)` for Thm 5 |
//! | [`topk`] | candidate tracker and one reporter, [`HeavyHitters<S>`], generic over its [`PointSketch`] | turning CountMin (Thm 6) or CountSketch (Thm 7) into an `O(1/α)`-item reporter |
//!
//! **Merge contract.** Every mergeable sketch has one
//! `check_merge(&self, other) -> Result<(), Mismatch>` covering
//! everything its `merge` needs (dimensions, hash and sign functions,
//! capacities, flags). It mutates nothing, and `merge` panics exactly
//! when it returns `Err`.

#![forbid(unsafe_code)]

pub mod ams;
pub(crate) mod batch;
pub mod countmin;
pub mod countsketch;
pub mod entropy;
pub mod equiv;
pub mod kmv;
pub mod levelset;
pub mod misra_gries;
pub mod topk;

pub use ams::AmsF2;
pub use countmin::CountMin;
pub use countsketch::CountSketch;
pub use entropy::EntropyEstimator;
pub use kmv::{KmvSketch, MedianF0};
pub use levelset::LevelSetEstimator;
pub use misra_gries::MisraGries;
pub use topk::{CmHeavyHitters, CsHeavyHitters, HeavyHitters, PointSketch, TopKTracker};

/// Why two sketches cannot merge: the first configuration field that
/// differs, named with its sketch type (`"CountMin hash functions"`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mismatch {
    /// The sketch type and field that disagree.
    pub what: &'static str,
}

impl Mismatch {
    /// `Ok` when `same`, else a mismatch naming `what`.
    pub fn unless(same: bool, what: &'static str) -> Result<(), Mismatch> {
        if same {
            Ok(())
        } else {
            Err(Mismatch { what })
        }
    }
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "incompatible {}", self.what)
    }
}

impl std::error::Error for Mismatch {}
