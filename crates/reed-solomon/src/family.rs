//! [`CodeFamily`]: a shared cache of same-data-length Reed–Solomon codes
//! at multiple rates.
//!
//! A `dna-storage` pipeline's Reed–Solomon stage is one `CodeFamily`. A
//! uniform plan is a one-rate family; unequal-protection plans (the
//! skew-aware planner) give every reliability class its own parity
//! length while all classes share the data length `M`. Building a [`ReedSolomon`] is not free —
//! the constructor precomputes the generator polynomial, the flattened
//! division-kernel rows, and one Horner table per syndrome root — so a plan
//! with three classes should pay that cost three times, not once per
//! codeword. A `CodeFamily` holds one immutable code per distinct parity
//! length; pipelines `Arc`-share the family and look codes up by rate on
//! the hot path.
//!
//! Every member code runs over the same field and data length, so one
//! [`RsScratch`](crate::RsScratch) serves all of them: the scratch
//! resizes to each decode's dimensions and is rewritten from scratch per
//! call (see `family_codes_share_one_scratch` in the tests).
//!
//! # Examples
//!
//! ```
//! use dna_gf::Field;
//! use dna_reed_solomon::CodeFamily;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // RS(10+e, 10) over GF(256) at three protection levels.
//! let family = CodeFamily::with_rates(Field::gf256(), 10, [4, 8, 16])?;
//! let strong = family.get(16).expect("built rate");
//! assert_eq!(strong.codeword_len(), 26);
//! assert!(family.get(5).is_none()); // only requested rates are built
//! # Ok(())
//! # }
//! ```

use crate::code::ReedSolomon;
use crate::RsError;
use dna_gf::Field;
use std::collections::BTreeMap;

/// A family of systematic Reed–Solomon codes sharing one field and data
/// length, cached by parity length.
#[derive(Debug, Clone)]
pub struct CodeFamily {
    codes: BTreeMap<usize, ReedSolomon>,
}

impl CodeFamily {
    /// A family with one RS(data_len + parity, data_len) code per
    /// distinct parity length in `rates`. Zero rates are ignored (a
    /// zero-parity "code" is no code at all — callers treat it as the
    /// unprotected passthrough).
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParams`] when `data_len` is zero or
    /// leaves no room for even one parity symbol in the field, or when
    /// any rate pushes the codeword past the field's maximum length.
    pub fn with_rates(
        field: Field,
        data_len: usize,
        rates: impl IntoIterator<Item = usize>,
    ) -> Result<CodeFamily, RsError> {
        if data_len == 0 || data_len + 1 > field.group_order() {
            return Err(RsError::InvalidParams {
                data_len,
                parity_len: 1,
                max_len: field.group_order(),
            });
        }
        let mut codes = BTreeMap::new();
        for parity in rates {
            if parity > 0 && !codes.contains_key(&parity) {
                codes.insert(parity, ReedSolomon::new(field.clone(), data_len, parity)?);
            }
        }
        Ok(CodeFamily { codes })
    }

    /// The member with `parity` parity symbols, if that rate was built.
    pub fn get(&self, parity: usize) -> Option<&ReedSolomon> {
        self.codes.get(&parity)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RsScratch;

    #[test]
    fn rejects_degenerate_data_lengths() {
        assert!(matches!(
            CodeFamily::with_rates(Field::gf16(), 0, []),
            Err(RsError::InvalidParams { .. })
        ));
        // data_len 15 leaves no room for parity in GF(16).
        assert!(CodeFamily::with_rates(Field::gf16(), 15, []).is_err());
        assert!(CodeFamily::with_rates(Field::gf16(), 14, []).is_ok());
    }

    #[test]
    fn with_rates_builds_each_distinct_rate() {
        let family = CodeFamily::with_rates(Field::gf16(), 8, [2, 4, 2, 0, 4]).unwrap();
        assert_eq!(family.get(2).unwrap().parity_len(), 2);
        assert_eq!(family.get(4).unwrap().parity_len(), 4);
        assert!(family.get(3).is_none());
        assert!(family.get(0).is_none());
    }

    #[test]
    fn rates_past_the_field_limit_are_rejected() {
        assert!(CodeFamily::with_rates(Field::gf16(), 8, [7]).is_ok()); // 15 = 15
        assert!(CodeFamily::with_rates(Field::gf16(), 8, [8]).is_err()); // 16 > 15
    }

    #[test]
    fn members_match_standalone_codes() {
        let family = CodeFamily::with_rates(Field::gf256(), 12, [4, 8]).unwrap();
        let standalone = ReedSolomon::new(Field::gf256(), 12, 8).unwrap();
        let data: Vec<u16> = (0..12).map(|i| (i * 31 % 256) as u16).collect();
        assert_eq!(
            family.get(8).unwrap().encode(&data).unwrap(),
            standalone.encode(&data).unwrap()
        );
    }

    #[test]
    fn family_codes_share_one_scratch() {
        // One RsScratch serves every rate in the family, in any order,
        // with results identical to fresh-scratch decodes.
        let family = CodeFamily::with_rates(Field::gf256(), 20, [4, 10, 24]).unwrap();
        let data: Vec<u16> = (0..20).map(|i| (i * 7 % 256) as u16).collect();
        let mut shared = RsScratch::new();
        for &parity in &[24usize, 4, 10, 24, 4] {
            let rs = family.get(parity).unwrap();
            let mut cw = rs.encode(&data).unwrap();
            cw[3] ^= 0x41; // one error: correctable at every rate here
            cw[7] ^= 0x17; // second error only when parity ≥ 4 allows it
            let mut fresh_cw = cw.clone();
            let fixed = rs
                .decode_with_scratch(&mut cw, &[], &mut shared)
                .expect("within capacity");
            let fresh = rs
                .decode_with_scratch(&mut fresh_cw, &[], &mut RsScratch::new())
                .expect("within capacity");
            assert_eq!(fixed, fresh, "parity {parity}");
            assert_eq!(cw, fresh_cw, "parity {parity}");
            assert_eq!(&cw[..20], &data[..], "parity {parity}");
        }
    }
}
