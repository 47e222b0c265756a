//! From-scratch streaming sketch substrates.
//!
//! Everything the paper's estimators consume as a black box is implemented
//! here, against the hash families of `sss-hash`:
//!
//! | Module | Structure | Role in the paper |
//! |---|---|---|
//! | [`countmin`] | Cormode–Muthukrishnan CountMin | `F_1` heavy hitters on `L` (Thm 6) |
//! | [`countsketch`] | Charikar–Chen–Farach-Colton CountSketch | `F_2` heavy hitters on `L` (Thm 7); frequency recovery inside level sets |
//! | [`misra_gries`] | Misra–Gries frequent items | alternative HH backend (§6); dominant-element detection for entropy |
//! | [`space_saving`] | Metwally et al. SpaceSaving | engineering alternative HH backend |
//! | [`ams`] | Alon–Matias–Szegedy tug-of-war | `F_2(L)` for the Rusu–Dobra baseline |
//! | [`kmv`] | bottom-k distinct sketch | the `(1/2, δ)` `F_0(L)` estimate of Algorithm 2 |
//! | [`levelset`] | Indyk–Woodruff level sets | `C̃_ℓ(L)` for Algorithm 1 (Thm 2) |
//! | [`entropy`] | CCM suffix-count estimator | multiplicative `H(g)` for Thm 5 |
//! | [`topk`] | candidate heavy-hitter trackers | turning point-query sketches into `O(1/α)`-item reporters |
//! | [`atomic`] | shared-atomic grid variants | lock-free multi-threaded ingestion into one sketch state |

#![forbid(unsafe_code)]

pub mod ams;
pub mod atomic;
pub(crate) mod batch;
pub mod countmin;
pub mod countsketch;
pub mod entropy;
pub mod equiv;
pub mod kmv;
pub mod levelset;
pub mod misra_gries;
pub mod space_saving;
pub mod topk;

pub use ams::AmsF2;
pub use atomic::{
    AtomicAmsF2, AtomicCmHeavyHitters, AtomicCountMin, AtomicCountSketch, AtomicCsHeavyHitters,
    AtomicScratch,
};
pub use countmin::CountMin;
pub use countsketch::CountSketch;
pub use entropy::EntropyEstimator;
pub use kmv::{KmvSketch, MedianF0};
pub use levelset::LevelSetEstimator;
pub use misra_gries::MisraGries;
pub use space_saving::SpaceSaving;
pub use topk::{CmHeavyHitters, CsHeavyHitters, MgHeavyHitters, TopKTracker};
