//! Seedable PRNGs and k-wise independent hash families.
//!
//! Every randomized structure in this workspace draws its randomness from the
//! primitives in this crate so that experiments are deterministic across
//! platforms and runs:
//!
//! * [`SplitMix64`] — seed expander (one `u64` seed → stream of well-mixed
//!   words); used to derive the seeds of every other structure.
//! * [`Xoshiro256pp`] — general-purpose PRNG with 256-bit state, used by
//!   samplers and workload generators.
//! * [`PolyHash`] — k-wise independent polynomial hashing over the Mersenne
//!   prime `2^61 − 1`; the theoretical workhorse behind CountMin rows
//!   (2-wise), AMS/CountSketch sign hashes (4-wise) and Indyk–Woodruff
//!   subsampling levels (2-wise).
//!
//! The crate is `no_std`-friendly in spirit (no I/O, no OS randomness): all
//! seeding is explicit.

#![forbid(unsafe_code)]

pub mod batch;
pub mod map;
pub mod mix;
pub mod poly;
pub mod rng;
pub mod sign;

pub use batch::{reduce_inputs, FieldPowers, LANES};
pub use map::{fp_hash_map, fp_hash_set, FpHashMap, FpHashSet};
pub use mix::{fingerprint64, reduce_range, to_unit_f64};
pub use poly::{PairwiseHash, PolyHash, MERSENNE_PRIME_61};
pub use rng::{split_seed, RngCore64, SplitMix64, Xoshiro256pp};
pub use sign::FourWiseSign;
