//! Bit-packing helpers: slicing byte payloads into m-bit Reed–Solomon
//! symbols and back (MSB-first), plus the 2-bit base pack/unpack kernels
//! used by the capsule strand sections (four bases per byte, low bits
//! first). The base kernels work a word at a time — 32 bases per `u64`
//! — and are byte-identical to the one-base-at-a-time loops kept as the
//! oracles in `tests/pack_identity.rs`.

use crate::{Base, DnaString, StrandError};

/// Packs `bytes` into `width`-bit symbols (MSB-first), zero-padding the
/// final symbol. `width` must be in 1..=16.
///
/// # Errors
///
/// Returns [`StrandError::OddSymbolWidth`] when `width` is 0 or > 16 (the
/// error name reflects the dominant DNA use case of even widths; any width
/// in range is accepted here).
///
/// # Examples
///
/// ```
/// use dna_strand::bits::{bytes_to_symbols, symbols_to_bytes};
///
/// let syms = bytes_to_symbols(&[0xAB, 0xCD], 4)?;
/// assert_eq!(syms, vec![0xA, 0xB, 0xC, 0xD]);
/// assert_eq!(symbols_to_bytes(&syms, 4, 2)?, vec![0xAB, 0xCD]);
/// # Ok::<(), dna_strand::StrandError>(())
/// ```
pub fn bytes_to_symbols(bytes: &[u8], width: u8) -> Result<Vec<u16>, StrandError> {
    let mut out = Vec::new();
    bytes_to_symbols_into(bytes, width, &mut out)?;
    Ok(out)
}

/// [`bytes_to_symbols`] into a caller-provided vector (cleared first), so
/// a reused buffer allocates nothing.
///
/// # Errors
///
/// As [`bytes_to_symbols`].
pub fn bytes_to_symbols_into(
    bytes: &[u8],
    width: u8,
    out: &mut Vec<u16>,
) -> Result<(), StrandError> {
    if width == 0 || width > 16 {
        return Err(StrandError::OddSymbolWidth(width));
    }
    out.clear();
    if width == 8 {
        out.extend(bytes.iter().map(|&b| u16::from(b)));
        return Ok(());
    }
    let width = usize::from(width);
    out.reserve((bytes.len() * 8).div_ceil(width));
    let mut acc: u32 = 0;
    let mut acc_bits = 0usize;
    for &b in bytes {
        acc = (acc << 8) | u32::from(b);
        acc_bits += 8;
        while acc_bits >= width {
            acc_bits -= width;
            out.push(((acc >> acc_bits) & ((1 << width) - 1)) as u16);
        }
    }
    if acc_bits > 0 {
        out.push(((acc << (width - acc_bits)) & ((1 << width) - 1)) as u16);
    }
    Ok(())
}

/// Unpacks `width`-bit symbols back into exactly `byte_len` bytes,
/// discarding any zero padding beyond that length.
///
/// # Errors
///
/// Returns [`StrandError::OddSymbolWidth`] for out-of-range widths and
/// [`StrandError::LengthMismatch`] when the symbols cannot cover
/// `byte_len` bytes.
pub fn symbols_to_bytes(
    symbols: &[u16],
    width: u8,
    byte_len: usize,
) -> Result<Vec<u8>, StrandError> {
    if width == 0 || width > 16 {
        return Err(StrandError::OddSymbolWidth(width));
    }
    let width_us = usize::from(width);
    if symbols.len() * width_us < byte_len * 8 {
        return Err(StrandError::LengthMismatch {
            expected: (byte_len * 8).div_ceil(width_us),
            actual: symbols.len(),
        });
    }
    let mut out = Vec::with_capacity(byte_len);
    let mut acc: u32 = 0;
    let mut acc_bits = 0usize;
    'outer: for &s in symbols {
        acc = (acc << width_us) | u32::from(s & ((1u32 << width_us) - 1) as u16);
        acc_bits += width_us;
        while acc_bits >= 8 {
            acc_bits -= 8;
            out.push(((acc >> acc_bits) & 0xFF) as u8);
            if out.len() == byte_len {
                break 'outer;
            }
        }
    }
    Ok(out)
}

/// Number of `width`-bit symbols needed to hold `n_bytes` bytes.
pub fn symbols_needed(n_bytes: usize, width: u8) -> usize {
    (n_bytes * 8).div_ceil(usize::from(width).max(1))
}

/// Reads bit `i` (MSB-first within each byte) of `bytes`.
///
/// # Panics
///
/// Panics when `i / 8` is out of bounds.
pub fn get_bit(bytes: &[u8], i: usize) -> bool {
    (bytes[i / 8] >> (7 - (i % 8))) & 1 == 1
}

/// Sets bit `i` (MSB-first within each byte) of `bytes` to `value`.
///
/// # Panics
///
/// Panics when `i / 8` is out of bounds.
pub fn set_bit(bytes: &mut [u8], i: usize, value: bool) {
    let mask = 1u8 << (7 - (i % 8));
    if value {
        bytes[i / 8] |= mask;
    } else {
        bytes[i / 8] &= !mask;
    }
}

/// Appends one `width`-bit symbol (width even, ≤ 16) as `width / 2`
/// bases, MSB-first — the paper's maximum-density 2-bits-per-base
/// mapping (00 = A, 01 = C, 10 = G, 11 = T, §2.1), and how Reed–Solomon
/// symbols become DNA (see the crate-level example). On error nothing is
/// appended.
///
/// # Errors
///
/// Returns [`StrandError::OddSymbolWidth`] for odd widths and
/// [`StrandError::ValueTooWide`] when the symbol exceeds the width.
pub fn encode_symbol_into(symbol: u16, width: u8, out: &mut DnaString) -> Result<(), StrandError> {
    if !width.is_multiple_of(2) || width == 0 || width > 16 {
        return Err(StrandError::OddSymbolWidth(width));
    }
    if width < 16 && symbol >> width != 0 {
        return Err(StrandError::ValueTooWide {
            value: u64::from(symbol),
            width,
        });
    }
    let mut shift = width;
    while shift >= 2 {
        shift -= 2;
        out.push(Base::from_bits((symbol >> shift) as u8));
    }
    Ok(())
}

/// Decodes `width / 2` bases into one `width`-bit symbol (the inverse of
/// [`encode_symbol_into`]).
///
/// # Errors
///
/// Returns [`StrandError::OddSymbolWidth`] for odd widths and
/// [`StrandError::LengthMismatch`] when `bases` has the wrong length.
pub fn decode_symbol(bases: &[Base], width: u8) -> Result<u16, StrandError> {
    if !width.is_multiple_of(2) || width == 0 || width > 16 {
        return Err(StrandError::OddSymbolWidth(width));
    }
    if bases.len() != usize::from(width) / 2 {
        return Err(StrandError::LengthMismatch {
            expected: usize::from(width) / 2,
            actual: bases.len(),
        });
    }
    let mut sym = 0u16;
    for &b in bases {
        sym = (sym << 2) | u16::from(b.to_bits());
    }
    Ok(sym)
}

/// Packed byte length of `n_bases` 2-bit bases (four per byte).
pub fn packed_base_len(n_bases: usize) -> usize {
    n_bases.div_ceil(4)
}

/// Packs bases four to a byte, low bits first (base `i` occupies bits
/// `2·(i mod 4)` of byte `i / 4`), into a fresh buffer.
pub fn pack_bases(bases: &[Base]) -> Vec<u8> {
    let mut out = vec![0u8; packed_base_len(bases.len())];
    pack_bases_into(bases, &mut out);
    out
}

/// [`pack_bases`] into a caller-provided buffer of exactly
/// [`packed_base_len`] bytes, assembling 32 bases per `u64` store.
///
/// # Panics
///
/// Panics when `out` has the wrong length.
pub fn pack_bases_into(bases: &[Base], out: &mut [u8]) {
    assert_eq!(
        out.len(),
        packed_base_len(bases.len()),
        "pack_bases_into output length mismatch"
    );
    // Word-at-a-time: 32 bases become one u64 (base i at bit 2·i), whose
    // little-endian bytes are exactly the four-per-byte low-bits-first
    // layout.
    let head = bases.len() & !31;
    for (blk, slot) in bases[..head]
        .chunks_exact(32)
        .zip(out[..head / 4].chunks_exact_mut(8))
    {
        let mut word = 0u64;
        for (i, b) in blk.iter().enumerate() {
            word |= u64::from(b.to_bits()) << (2 * i);
        }
        slot.copy_from_slice(&word.to_le_bytes());
    }
    for (blk, slot) in bases[head..].chunks(4).zip(&mut out[head / 4..]) {
        let mut byte = 0u8;
        for (j, b) in blk.iter().enumerate() {
            byte |= b.to_bits() << (2 * j);
        }
        *slot = byte;
    }
}

/// Inverse of [`pack_bases`] for a known base count.
///
/// # Panics
///
/// Panics when `packed` is shorter than [`packed_base_len`] bytes.
pub fn unpack_bases(packed: &[u8], n_bases: usize) -> Vec<Base> {
    let mut out = Vec::with_capacity(n_bases);
    unpack_bases_into(packed, n_bases, &mut out);
    out
}

/// [`unpack_bases`] into a caller-provided vector (cleared first),
/// loading 8 packed bytes per `u64` and emitting 32 bases from register
/// shifts.
///
/// # Panics
///
/// Panics when `packed` is shorter than [`packed_base_len`] bytes.
pub fn unpack_bases_into(packed: &[u8], n_bases: usize, out: &mut Vec<Base>) {
    assert!(
        packed.len() >= packed_base_len(n_bases),
        "unpack_bases input too short"
    );
    out.clear();
    // Fill by slice writes instead of per-base pushes: resize once, then
    // each u64 load fans out into a fixed 32-element window (no length
    // bookkeeping in the inner loop).
    let head = n_bases & !31;
    out.resize(n_bases, Base::A);
    for (blk, dst) in packed[..head / 4]
        .chunks_exact(8)
        .zip(out[..head].chunks_exact_mut(32))
    {
        let word = u64::from_le_bytes(blk.try_into().expect("8-byte chunk"));
        for (i, slot) in dst.iter_mut().enumerate() {
            *slot = Base::from_bits((word >> (2 * i)) as u8);
        }
    }
    for (i, slot) in out.iter_mut().enumerate().skip(head) {
        *slot = Base::from_bits(packed[i / 4] >> ((i % 4) * 2));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn widths_that_divide_eight_round_trip() {
        let bytes: Vec<u8> = (0..=255).collect();
        for width in [1u8, 2, 4, 8, 16] {
            let syms = bytes_to_symbols(&bytes, width).unwrap();
            assert_eq!(syms.len(), symbols_needed(bytes.len(), width));
            let back = symbols_to_bytes(&syms, width, bytes.len()).unwrap();
            assert_eq!(back, bytes, "width={width}");
        }
    }

    #[test]
    fn awkward_widths_round_trip_with_padding() {
        let bytes: Vec<u8> = vec![0xDE, 0xAD, 0xBE, 0xEF, 0x01];
        for width in [3u8, 5, 6, 7, 9, 11, 12, 13, 15] {
            let syms = bytes_to_symbols(&bytes, width).unwrap();
            let back = symbols_to_bytes(&syms, width, bytes.len()).unwrap();
            assert_eq!(back, bytes, "width={width}");
        }
    }

    #[test]
    fn symbols_fit_the_declared_width() {
        let bytes = [0xFFu8; 7];
        for width in [3u8, 5, 10, 13] {
            for &s in bytes_to_symbols(&bytes, width).unwrap().iter() {
                assert!(u32::from(s) < (1u32 << width));
            }
        }
    }

    #[test]
    fn insufficient_symbols_is_an_error() {
        assert!(symbols_to_bytes(&[0xAB], 8, 2).is_err());
    }

    #[test]
    fn symbols_round_trip_at_all_even_widths() {
        for width in [2u8, 4, 6, 8, 10, 12, 14, 16] {
            let max = if width == 16 {
                u16::MAX
            } else {
                (1 << width) - 1
            };
            for sym in [0u16, 1, max / 2, max] {
                let mut bases = DnaString::new();
                encode_symbol_into(sym, width, &mut bases).unwrap();
                assert_eq!(bases.len(), usize::from(width) / 2);
                assert_eq!(
                    decode_symbol(bases.as_slice(), width).unwrap(),
                    sym,
                    "width={width} sym={sym}"
                );
            }
        }
    }

    #[test]
    fn symbol_width_validation() {
        let mut out = DnaString::new();
        assert!(matches!(
            encode_symbol_into(1, 3, &mut out),
            Err(StrandError::OddSymbolWidth(3))
        ));
        assert!(matches!(
            encode_symbol_into(16, 4, &mut out),
            Err(StrandError::ValueTooWide {
                value: 16,
                width: 4
            })
        ));
        assert!(encode_symbol_into(15, 4, &mut out).is_ok());
    }

    #[test]
    fn base_packing_round_trips_across_word_edges() {
        let bases: Vec<Base> = (0..131)
            .map(|i| Base::from_bits((i * 7 + 3) as u8))
            .collect();
        for len in [0usize, 1, 3, 4, 31, 32, 33, 64, 131] {
            let slice = &bases[..len];
            let mut packed = vec![0xAAu8; packed_base_len(len)];
            pack_bases_into(slice, &mut packed);
            assert_eq!(pack_bases(slice), packed, "pack len={len}");
            let mut back = vec![Base::T; 7];
            unpack_bases_into(&packed, len, &mut back);
            assert_eq!(back, slice, "unpack len={len}");
            assert_eq!(unpack_bases(&packed, len), slice);
        }
    }

    #[test]
    fn bit_accessors() {
        let mut buf = vec![0u8; 2];
        set_bit(&mut buf, 0, true);
        set_bit(&mut buf, 15, true);
        assert_eq!(buf, vec![0b1000_0000, 0b0000_0001]);
        assert!(get_bit(&buf, 0));
        assert!(!get_bit(&buf, 1));
        assert!(get_bit(&buf, 15));
        set_bit(&mut buf, 0, false);
        assert!(!get_bit(&buf, 0));
    }
}
