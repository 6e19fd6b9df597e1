//! SSSE3 nibble-table slice kernels for byte-wide fields.
//!
//! A GF(2^m≤8) product by a fixed constant `c` splits over the nibbles of
//! the operand — multiplication is GF(2)-linear, so
//! `c·x = c·(x & 0x0F) ⊕ c·(x & 0xF0)` — which turns the 256-entry product
//! table into two 16-entry LUTs (`lo[n] = c·n`, `hi[n] = c·(n·16)`). Both
//! LUTs fit one `__m128i` each, and `_mm_shuffle_epi8` performs sixteen
//! simultaneous LUT loads, so one register pass multiplies 16 elements:
//! pack 16 `u16` lanes to bytes, shuffle each nibble through its LUT, XOR
//! the halves, and widen back to `u16`.
//!
//! Inputs must be field elements (`< 256`); that is the same contract the
//! scalar byte-table kernels enforce by construction, and the results
//! are bit-for-bit identical to them (see the kernel-identity proptests
//! in `tests/dispatch_identity.rs`).
//!
//! This is the only module in the crate allowed to use `unsafe`: the
//! intrinsics require it, every pointer stays inside caller-provided
//! slices, and callers gate on runtime SSSE3 detection
//! ([`crate::dispatch::kernel`] or `is_x86_feature_detected!`).

#![allow(unsafe_code)]

/// The two 16-entry half-nibble product LUTs for one constant over a
/// byte-wide field: `lo[n] = c·n` and `hi[n] = c·(n << 4)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NibbleTable {
    pub(crate) lo: [u8; 16],
    pub(crate) hi: [u8; 16],
}

impl NibbleTable {
    /// Builds the split LUTs for constant `c` over `field` (width ≤ 8).
    pub(crate) fn build(field: &crate::Field, c: u16) -> NibbleTable {
        debug_assert!(field.width() <= 8);
        let order = field.order() as u16;
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        for n in 0..16u16 {
            // Fields narrower than 8 bits (order ≤ 16) never index the
            // upper entries: valid elements have an empty high nibble.
            if n < order {
                lo[n as usize] = field.mul(c, n) as u8;
            }
            if (n << 4) < order {
                hi[n as usize] = field.mul(c, n << 4) as u8;
            }
        }
        NibbleTable { lo, hi }
    }

    /// The product `c·x` via the split LUTs (scalar form; the SIMD kernels
    /// evaluate the same two loads per lane — tests compare against this).
    #[cfg(test)]
    #[inline]
    pub(crate) fn mul(&self, x: u8) -> u8 {
        self.lo[usize::from(x & 0x0F)] ^ self.hi[usize::from(x >> 4)]
    }
}

/// Whether the SSSE3 kernels can run the whole multiple-of-16 head of a
/// slice of this length (the remainder runs scalar either way).
#[inline]
pub(crate) fn simd_head_len(len: usize) -> usize {
    len & !15
}

/// `xs[i] = c·xs[i]` over the multiple-of-16 prefix of `xs`, 16 lanes per
/// pass. Values must be `< 256`; lanes are packed to bytes with unsigned
/// saturation, so out-of-field values (which would panic the scalar
/// byte-table kernel) are not detected here.
#[cfg(target_arch = "x86_64")]
pub(crate) fn mul_slice_ssse3(nib: &NibbleTable, xs: &mut [u16]) {
    let head = simd_head_len(xs.len());
    debug_assert!(xs[..head].iter().all(|&x| x < 256));
    // SAFETY: the caller dispatched here only after runtime SSSE3
    // detection (`is_x86_feature_detected!("ssse3")`).
    unsafe { mul_slice_ssse3_impl(nib, &mut xs[..head]) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_slice_ssse3_impl(nib: &NibbleTable, xs: &mut [u16]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(xs.len() % 16, 0);
    // SAFETY: `[u8; 16]` is 16 readable bytes; unaligned loads are used
    // throughout. Chunk pointers stay in-bounds: each iteration touches
    // exactly the 16 `u16`s of its `chunks_exact_mut` window.
    unsafe {
        let lo_t = _mm_loadu_si128(nib.lo.as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(nib.hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let zero = _mm_setzero_si128();
        for chunk in xs.chunks_exact_mut(16) {
            let p = chunk.as_mut_ptr() as *mut __m128i;
            let a = _mm_loadu_si128(p);
            let b = _mm_loadu_si128(p.add(1));
            let packed = _mm_packus_epi16(a, b);
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo_t, _mm_and_si128(packed, mask)),
                _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi16(packed, 4), mask)),
            );
            _mm_storeu_si128(p, _mm_unpacklo_epi8(prod, zero));
            _mm_storeu_si128(p.add(1), _mm_unpackhi_epi8(prod, zero));
        }
    }
}

/// `acc[i] ^= c·src[i]` over the multiple-of-16 prefix, 16 lanes per pass.
/// Same element-range contract as [`mul_slice_ssse3`].
#[cfg(target_arch = "x86_64")]
pub(crate) fn mul_add_slice_ssse3(nib: &NibbleTable, acc: &mut [u16], src: &[u16]) {
    debug_assert_eq!(acc.len(), src.len());
    let head = simd_head_len(acc.len());
    debug_assert!(src[..head].iter().all(|&x| x < 256));
    // SAFETY: gated on runtime SSSE3 detection by the caller.
    unsafe { mul_add_slice_ssse3_impl(nib, &mut acc[..head], &src[..head]) }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "ssse3")]
unsafe fn mul_add_slice_ssse3_impl(nib: &NibbleTable, acc: &mut [u16], src: &[u16]) {
    use std::arch::x86_64::*;
    debug_assert_eq!(acc.len(), src.len());
    debug_assert_eq!(acc.len() % 16, 0);
    // SAFETY: as in `mul_slice_ssse3_impl`; the zipped chunk windows keep
    // every pointer inside its slice.
    unsafe {
        let lo_t = _mm_loadu_si128(nib.lo.as_ptr() as *const __m128i);
        let hi_t = _mm_loadu_si128(nib.hi.as_ptr() as *const __m128i);
        let mask = _mm_set1_epi8(0x0F);
        let zero = _mm_setzero_si128();
        for (ac, sc) in acc.chunks_exact_mut(16).zip(src.chunks_exact(16)) {
            let ap = ac.as_mut_ptr() as *mut __m128i;
            let sp = sc.as_ptr() as *const __m128i;
            let a = _mm_loadu_si128(sp);
            let b = _mm_loadu_si128(sp.add(1));
            let packed = _mm_packus_epi16(a, b);
            let prod = _mm_xor_si128(
                _mm_shuffle_epi8(lo_t, _mm_and_si128(packed, mask)),
                _mm_shuffle_epi8(hi_t, _mm_and_si128(_mm_srli_epi16(packed, 4), mask)),
            );
            let acc_lo = _mm_loadu_si128(ap);
            let acc_hi = _mm_loadu_si128(ap.add(1));
            _mm_storeu_si128(ap, _mm_xor_si128(acc_lo, _mm_unpacklo_epi8(prod, zero)));
            _mm_storeu_si128(
                ap.add(1),
                _mm_xor_si128(acc_hi, _mm_unpackhi_epi8(prod, zero)),
            );
        }
    }
}

#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use crate::Field;

    #[test]
    fn nibble_table_matches_full_product() {
        let f = Field::gf256();
        for c in [0u16, 1, 2, 0x1D, 0x53, 0xFF] {
            let nib = NibbleTable::build(&f, c);
            for x in 0..256u16 {
                assert_eq!(u16::from(nib.mul(x as u8)), f.mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn ssse3_kernels_match_scalar_products() {
        if !std::is_x86_feature_detected!("ssse3") {
            return;
        }
        let f = Field::gf256();
        let src: Vec<u16> = (0..256u16).chain(0..64).collect(); // 320 = 20×16
        for c in [0u16, 1, 0x1D, 0xA9, 0xFF] {
            let nib = NibbleTable::build(&f, c);
            let mut xs = src.clone();
            mul_slice_ssse3(&nib, &mut xs);
            for (got, &x) in xs.iter().zip(&src) {
                assert_eq!(*got, f.mul(c, x), "mul_slice c={c} x={x}");
            }
            let mut acc: Vec<u16> = src.iter().rev().copied().collect();
            let snapshot = acc.clone();
            mul_add_slice_ssse3(&nib, &mut acc, &src);
            for ((got, &was), &x) in acc.iter().zip(&snapshot).zip(&src) {
                assert_eq!(*got, was ^ f.mul(c, x), "mul_add_slice c={c} x={x}");
            }
        }
    }
}
