//! Four-wise independent `±1` sign hashes for AMS and CountSketch.
//!
//! The second-moment analyses of AMS tug-of-war sketches and CountSketch
//! require `E[s(x)s(y)s(z)s(w)] = 0` for distinct arguments, i.e. 4-wise
//! independence. We derive the sign from one output bit of a degree-3
//! polynomial over `GF(2^61 − 1)`.

use sss_codec::{CodecError, Reader, WireCodec};

use crate::poly::PolyHash;

/// A 4-wise independent function `u64 → {−1, +1}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FourWiseSign {
    poly: PolyHash,
}

impl FourWiseSign {
    /// Draw a random member of the family from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            poly: PolyHash::new(4, seed),
        }
    }

    /// The degree-3 polynomial behind the sign (for the batch kernels in
    /// [`crate::batch`]).
    #[inline]
    pub(crate) fn poly(&self) -> &PolyHash {
        &self.poly
    }

    /// The sign assigned to `x`, as `±1`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        // Parity of a mixed output bit: each bit of the fingerprint of a
        // 4-wise value is 4-wise independent and unbiased.
        if crate::mix::fingerprint64(self.poly.hash(x)) & 1 == 0 {
            1
        } else {
            -1
        }
    }
}

impl WireCodec for FourWiseSign {
    const WIRE_TAG: u16 = 0x0105;
    const MIN_WIRE_BYTES: usize = 8;

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.poly.encode_into(out);
    }

    fn decode(r: &mut Reader) -> Result<Self, CodecError> {
        let poly = PolyHash::decode(r)?;
        if poly.independence() != 4 {
            return Err(CodecError::Invalid {
                what: "FourWiseSign polynomial is not degree 3",
            });
        }
        Ok(FourWiseSign { poly })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signs_are_plus_minus_one_and_deterministic() {
        let s = FourWiseSign::new(5);
        for x in 0..1000u64 {
            let v = s.sign(x);
            assert!(v == 1 || v == -1);
            assert_eq!(v, s.sign(x));
        }
    }

    #[test]
    fn signs_are_unbiased() {
        let s = FourWiseSign::new(6);
        let n = 200_000u64;
        let sum: i64 = (0..n).map(|x| s.sign(x)).sum();
        // For unbiased ±1, |sum| ~ sqrt(n) ≈ 450; allow 5 sigma.
        assert!((sum as f64).abs() < 5.0 * (n as f64).sqrt(), "sum = {sum}");
    }

    #[test]
    fn pair_products_are_unbiased() {
        // 2-wise consequence of 4-wise independence:
        // E[s(x)s(y)] = 0 across random function draws.
        let mut total = 0i64;
        let draws = 2000u64;
        for seed in 0..draws {
            let s = FourWiseSign::new(seed);
            total += s.sign(123) * s.sign(456);
        }
        assert!(
            (total as f64).abs() < 5.0 * (draws as f64).sqrt(),
            "sum of pair products = {total}"
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = FourWiseSign::new(1);
        let b = FourWiseSign::new(2);
        let differs = (0..256u64).any(|x| a.sign(x) != b.sign(x));
        assert!(differs);
    }
}
