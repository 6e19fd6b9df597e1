//! The per-molecule ordering index (paper §2.2).
//!
//! Every molecule carries `log2(M+E)` index bits so chunks can be
//! reassembled; the index **cannot** be protected by the row-wise error
//! correction (the parity molecules themselves need ordering), which is why
//! the paper stores it at the most reliable location — the very front of
//! the strand.

use crate::bits::encode_symbol_into;
use crate::{DnaString, StrandError};

/// Encodes `index` into `width_bits / 2` bases (MSB-first).
///
/// # Errors
///
/// Returns [`StrandError::OddSymbolWidth`] for odd widths and
/// [`StrandError::ValueTooWide`] when `index` needs more than `width_bits`.
///
/// # Examples
///
/// ```
/// use dna_strand::encode_index;
///
/// let bases = encode_index(5, 8)?;
/// assert_eq!(bases.to_string(), "AACC");
/// # Ok::<(), dna_strand::StrandError>(())
/// ```
pub fn encode_index(index: u32, width_bits: u8) -> Result<DnaString, StrandError> {
    let mut out = DnaString::with_capacity(usize::from(width_bits) / 2);
    encode_index_into(index, width_bits, &mut out)?;
    Ok(out)
}

/// [`encode_index`] appending to an existing strand, so molecule assembly
/// pays no per-index allocation. On error nothing is appended.
///
/// # Errors
///
/// Same conditions as [`encode_index`].
pub fn encode_index_into(
    index: u32,
    width_bits: u8,
    out: &mut DnaString,
) -> Result<(), StrandError> {
    if width_bits == 0 || !width_bits.is_multiple_of(2) || width_bits > 32 {
        return Err(StrandError::OddSymbolWidth(width_bits));
    }
    if width_bits < 32 && index >> width_bits != 0 {
        return Err(StrandError::ValueTooWide {
            value: u64::from(index),
            width: width_bits,
        });
    }
    if width_bits <= 16 {
        return encode_symbol_into(index as u16, width_bits, out);
    }
    // Wide indexes: encode the high and low halves separately.
    let high_bits = width_bits - 16;
    encode_symbol_into((index >> 16) as u16, high_bits, out)?;
    encode_symbol_into((index & 0xFFFF) as u16, 16, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Base, PayloadGeometry, TranscoderSpec};

    /// The index decode the pipeline runs: the direct transcoder's.
    fn decode_index(bases: &[Base], index_bits: u8) -> Result<u32, StrandError> {
        let geom = PayloadGeometry {
            index_bits,
            rows: 0,
            symbol_bits: 2,
        };
        TranscoderSpec::Direct.decode_index(bases, geom)
    }

    #[test]
    fn round_trips_common_widths() {
        for width in [2u8, 8, 16, 24, 32] {
            let max: u32 = if width == 32 {
                u32::MAX
            } else {
                (1u32 << width) - 1
            };
            for idx in [0u32, 1, max / 3, max] {
                let bases = encode_index(idx, width).unwrap();
                assert_eq!(bases.len(), usize::from(width) / 2);
                assert_eq!(
                    decode_index(bases.as_slice(), width).unwrap(),
                    idx,
                    "w={width}"
                );
            }
        }
    }

    #[test]
    fn rejects_overflow_and_odd_width() {
        assert!(encode_index(4, 2).is_err());
        assert!(encode_index(1, 5).is_err());
        assert!(decode_index(&[Base::A], 4).is_err());
    }
}
