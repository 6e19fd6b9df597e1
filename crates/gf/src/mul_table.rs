//! Per-constant multiplication tables: the branch-free hot-path kernel.
//!
//! [`Field::mul`] costs two table lookups, an add, and two zero-branches
//! per product. Hot loops that multiply *many* elements by the *same*
//! constant — the Reed–Solomon division kernel's generator rows, syndrome
//! roots, Chien rotation steps — can instead precompute the full `c·x`
//! product table once (`2^m` entries) and reduce every product to a single
//! indexed load with no branches. This is the standard trick production RS/fountain
//! pipelines use, and it is what the workspace's zero-allocation decode
//! kernels are built on (see `PERFORMANCE.md` at the repository root).
//!
//! On top of the tables sit two batch kernels:
//!
//! - byte-wide fields carry split low/high-nibble product LUTs next to
//!   the full table, which the SSSE3 slice kernels shuffle 16 lanes at a
//!   time when the CPU has SSSE3 ([`crate::dispatch`]; used by
//!   [`MulTable::mul_slice`] / [`MulTable::mul_add_slice`] and the
//!   per-call-constant [`Field::mul_slice`] / [`Field::mul_add_slice`]);
//! - [`horner_eval_block`] streams a word **once** through a register
//!   block of up to 8 per-root Horner accumulators instead of one pass
//!   per root — the multi-root syndrome kernel.
//!
//! Both are exact field arithmetic and byte-identical to the per-element
//! and per-root loops ([`MulTable::horner_eval`] is the Horner oracle).

use crate::dispatch::{self, Kernel};
use crate::simd::NibbleTable;
use crate::Field;

/// A precomputed `x ↦ c·x` table over GF(2^m) for one fixed constant `c`.
///
/// Construction is `O(2^m)`; every product afterwards is a single table
/// load with no zero-branches. Fields with `m ≤ 8` (notably GF(256), the
/// laptop-scale field) use a dedicated byte-entry table: 256 bytes for
/// GF(256), so a handful of tables stay resident in L1 — plus the two
/// 16-entry nibble LUTs the SIMD slice kernels shuffle through.
///
/// # Examples
///
/// ```
/// use dna_gf::Field;
///
/// let f = Field::gf256();
/// let t = f.mul_table(0x53);
/// assert_eq!(t.mul(0xCA), f.mul(0x53, 0xCA));
/// assert_eq!(t.mul(0), 0);
/// ```
#[derive(Debug, Clone)]
pub struct MulTable {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// `m ≤ 8`: products fit a byte; GF(256) tables are 4 cache lines.
    /// The split nibble LUTs (`lo[n] = c·n`, `hi[n] = c·(n·16)`) feed the
    /// SSSE3 `_mm_shuffle_epi8` slice kernels.
    Byte { full: Box<[u8]>, nib: NibbleTable },
    /// `m > 8`: full-width entries.
    Wide(Box<[u16]>),
}

impl MulTable {
    /// Builds the table for constant `c` over `field`.
    pub(crate) fn build(field: &Field, c: u16) -> MulTable {
        debug_assert!((c as usize) < field.order());
        let order = field.order();
        if field.width() <= 8 {
            let full: Box<[u8]> = (0..order as u16).map(|x| field.mul(c, x) as u8).collect();
            MulTable {
                repr: Repr::Byte {
                    full,
                    nib: NibbleTable::build(field, c),
                },
            }
        } else {
            let table: Box<[u16]> = (0..=(order - 1) as u16).map(|x| field.mul(c, x)).collect();
            MulTable {
                repr: Repr::Wide(table),
            }
        }
    }

    /// Number of entries (the field order `2^m`).
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Byte { full, .. } => full.len(),
            Repr::Wide(t) => t.len(),
        }
    }

    /// Never true: tables always hold `2^m ≥ 4` entries.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The product `c·x`: one indexed load, no branches.
    ///
    /// # Panics
    ///
    /// Panics when `x` is not a field element (index out of bounds).
    #[inline]
    pub fn mul(&self, x: u16) -> u16 {
        match &self.repr {
            Repr::Byte { full, .. } => u16::from(full[x as usize]),
            Repr::Wide(t) => t[x as usize],
        }
    }

    /// One Horner step: `c·acc + next` (add is XOR).
    #[inline]
    pub fn horner_step(&self, acc: u16, next: u16) -> u16 {
        self.mul(acc) ^ next
    }

    /// Evaluates the polynomial whose coefficients are given in
    /// **descending** degree order at this table's constant, by folding
    /// [`MulTable::horner_step`] over `coeffs`. This is the single-root
    /// syndrome kernel; decode paths that need *every* root use
    /// [`horner_eval_block`], which streams `coeffs` once for a whole
    /// block of roots.
    pub fn horner_eval(&self, coeffs: &[u16]) -> u16 {
        match &self.repr {
            Repr::Byte { full, .. } => {
                let mut acc = 0u16;
                for &c in coeffs {
                    acc = u16::from(full[acc as usize]) ^ c;
                }
                acc
            }
            Repr::Wide(t) => {
                let mut acc = 0u16;
                for &c in coeffs {
                    acc = t[acc as usize] ^ c;
                }
                acc
            }
        }
    }

    /// Multiplies every element of `xs` by the constant, in place, via
    /// the kernel selected by [`dispatch::kernel`].
    pub fn mul_slice(&self, xs: &mut [u16]) {
        self.mul_slice_in(dispatch::kernel(), xs);
    }

    /// [`MulTable::mul_slice`] through an explicit kernel — the entry
    /// point kernel-identity tests use to run the scalar loop on an SSSE3
    /// machine. Requesting [`Kernel::Ssse3`] on a CPU without it falls
    /// back to scalar.
    pub fn mul_slice_in(&self, kernel: Kernel, xs: &mut [u16]) {
        match &self.repr {
            Repr::Byte { full, nib } => {
                let mut start = 0usize;
                #[cfg(target_arch = "x86_64")]
                if kernel == Kernel::Ssse3 && std::is_x86_feature_detected!("ssse3") {
                    crate::simd::mul_slice_ssse3(nib, xs);
                    start = crate::simd::simd_head_len(xs.len());
                }
                let _ = (kernel, nib);
                for x in &mut xs[start..] {
                    *x = u16::from(full[*x as usize]);
                }
            }
            Repr::Wide(t) => {
                for x in xs {
                    *x = t[*x as usize];
                }
            }
        }
    }

    /// Fused multiply-accumulate: `acc[i] ^= c·src[i]` for every `i`,
    /// via the kernel selected by [`dispatch::kernel`].
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn mul_add_slice(&self, acc: &mut [u16], src: &[u16]) {
        self.mul_add_slice_in(dispatch::kernel(), acc, src);
    }

    /// [`MulTable::mul_add_slice`] through an explicit kernel (see
    /// [`MulTable::mul_slice_in`]).
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn mul_add_slice_in(&self, kernel: Kernel, acc: &mut [u16], src: &[u16]) {
        assert_eq!(acc.len(), src.len(), "mul_add_slice length mismatch");
        match &self.repr {
            Repr::Byte { full, nib } => {
                let mut start = 0usize;
                #[cfg(target_arch = "x86_64")]
                if kernel == Kernel::Ssse3 && std::is_x86_feature_detected!("ssse3") {
                    crate::simd::mul_add_slice_ssse3(nib, acc, src);
                    start = crate::simd::simd_head_len(acc.len());
                }
                let _ = (kernel, nib);
                for (a, &s) in acc[start..].iter_mut().zip(&src[start..]) {
                    *a ^= u16::from(full[s as usize]);
                }
            }
            Repr::Wide(t) => {
                for (a, &s) in acc.iter_mut().zip(src) {
                    *a ^= t[s as usize];
                }
            }
        }
    }

    /// The full byte product table, when this is a byte-wide table.
    fn byte_table(&self) -> Option<&[u8]> {
        match &self.repr {
            Repr::Byte { full, .. } => Some(full),
            Repr::Wide(_) => None,
        }
    }
}

/// Evaluates the same descending-order polynomial at *every* table's
/// constant — the batched multi-root syndrome kernel. Byte-wide tables
/// stream `coeffs` **once per block of up to 8 roots**, keeping the
/// block's accumulators in registers, which is both one memory pass
/// instead of `E` and an 8-way independent-chain ILP win. Results equal
/// one [`MulTable::horner_eval`] per root — every step is the same exact
/// table load and XOR.
///
/// `out` is cleared and filled with one evaluation per table, in order.
/// Wide (`m > 8`) tables run one [`MulTable::horner_eval`] per root:
/// blocking their 128 KiB tables would thrash L2 instead of helping.
pub fn horner_eval_block(tables: &[MulTable], coeffs: &[u16], out: &mut Vec<u16>) {
    out.clear();
    out.reserve(tables.len());
    if tables.first().is_none_or(|t| t.byte_table().is_none()) {
        out.extend(tables.iter().map(|t| t.horner_eval(coeffs)));
        return;
    }
    let mut rest = tables;
    while rest.len() >= 8 {
        let (blk, r) = rest.split_at(8);
        out.extend_from_slice(&horner_block_byte::<8>(blk, coeffs));
        rest = r;
    }
    if rest.len() >= 4 {
        let (blk, r) = rest.split_at(4);
        out.extend_from_slice(&horner_block_byte::<4>(blk, coeffs));
        rest = r;
    }
    out.extend(rest.iter().map(|t| t.horner_eval(coeffs)));
}

/// One register block of `B` simultaneous byte-table Horner chains: one
/// pass over `coeffs`, `B` independent accumulators. Every table must be
/// byte-wide (the caller guarantees it by checking the first table — a
/// table list always comes from one field).
fn horner_block_byte<const B: usize>(tables: &[MulTable], coeffs: &[u16]) -> [u16; B] {
    debug_assert_eq!(tables.len(), B);
    let mut tabs: [&[u8]; B] = [&[]; B];
    for (slot, t) in tabs.iter_mut().zip(tables) {
        *slot = t.byte_table().expect("blocked Horner requires byte tables");
    }
    let mut acc = [0u16; B];
    for &c in coeffs {
        for j in 0..B {
            acc[j] = u16::from(tabs[j][usize::from(acc[j])]) ^ c;
        }
    }
    acc
}

/// The slice length below which building on-the-fly nibble LUTs for a
/// per-call constant costs more than it saves.
const FIELD_SIMD_MIN_LEN: usize = 32;

impl Field {
    /// Precomputes the `x ↦ c·x` product table for the constant `c` — the
    /// branch-free kernel for loops that multiply many elements by the
    /// same constant. See [`MulTable`].
    ///
    /// # Panics
    ///
    /// Panics in debug builds when `c` is not a field element.
    pub fn mul_table(&self, c: u16) -> MulTable {
        MulTable::build(self, c)
    }

    /// Multiplies every element of `xs` by the scalar `c` in place without
    /// building a full table: `log(c)` is looked up once and each element
    /// costs one exp-load plus a zero-branch. On byte-wide fields, long
    /// slices route through the SSSE3 nibble kernel when the CPU has it
    /// (two 16-entry LUTs are built on the fly — 32 products — then 16
    /// lanes per shuffle pass). Prefer [`Field::mul_table`] when the
    /// constant is reused across many calls.
    pub fn mul_slice(&self, xs: &mut [u16], c: u16) {
        if c == 0 {
            xs.fill(0);
            return;
        }
        if c == 1 {
            return;
        }
        let mut start = 0usize;
        #[cfg(target_arch = "x86_64")]
        if self.width() <= 8
            && xs.len() >= FIELD_SIMD_MIN_LEN
            && dispatch::kernel() == Kernel::Ssse3
        {
            let nib = NibbleTable::build(self, c);
            crate::simd::mul_slice_ssse3(&nib, xs);
            start = crate::simd::simd_head_len(xs.len());
        }
        let logc = self.log(c).expect("c is non-zero") as usize;
        for x in &mut xs[start..] {
            *x = self.mul_exp_log(*x, logc);
        }
    }

    /// Fused multiply-accumulate without a table: `acc[i] ^= c·src[i]`.
    /// The scalar's log is looked up once; zero elements of `src` cost one
    /// branch. Long byte-field slices route through the SSSE3 nibble
    /// kernel when the CPU has it, as in [`Field::mul_slice`]. This is the
    /// kernel for polynomial updates whose constant changes every call
    /// (Berlekamp–Massey, locator products).
    ///
    /// # Panics
    ///
    /// Panics when the slices have different lengths.
    pub fn mul_add_slice(&self, acc: &mut [u16], src: &[u16], c: u16) {
        assert_eq!(acc.len(), src.len(), "mul_add_slice length mismatch");
        if c == 0 {
            return;
        }
        let mut start = 0usize;
        #[cfg(target_arch = "x86_64")]
        if self.width() <= 8
            && acc.len() >= FIELD_SIMD_MIN_LEN
            && dispatch::kernel() == Kernel::Ssse3
        {
            let nib = NibbleTable::build(self, c);
            crate::simd::mul_add_slice_ssse3(&nib, acc, src);
            start = crate::simd::simd_head_len(acc.len());
        }
        let logc = self.log(c).expect("c is non-zero") as usize;
        for (a, &s) in acc[start..].iter_mut().zip(&src[start..]) {
            *a ^= self.mul_exp_log(s, logc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_matches_field_mul_exhaustively_gf16() {
        let f = Field::new(4).unwrap();
        for c in 0..16u16 {
            let t = f.mul_table(c);
            assert_eq!(t.len(), 16);
            assert!(!t.is_empty());
            for x in 0..16u16 {
                assert_eq!(t.mul(x), f.mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn gf256_uses_byte_entries_and_matches() {
        let f = Field::gf256();
        for c in [0u16, 1, 2, 0x53, 0xFF] {
            let t = f.mul_table(c);
            assert_eq!(t.len(), 256);
            for x in 0..256u16 {
                assert_eq!(t.mul(x), f.mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn gf65536_wide_table_matches() {
        let f = Field::gf65536();
        for c in [1u16, 2, 0xBEEF, 0xFFFF] {
            let t = f.mul_table(c);
            assert_eq!(t.len(), 65536);
            for x in [0u16, 1, 2, 0x1234, 0xBEEF, 0xFFFF] {
                assert_eq!(t.mul(x), f.mul(c, x), "c={c} x={x}");
            }
        }
    }

    #[test]
    fn horner_eval_matches_poly_eval() {
        use crate::poly;
        let f = Field::gf256();
        let t = f.mul_table(0x1D);
        // Descending coefficients [3, 7, 1] = 3x² + 7x + 1.
        let desc = [3u16, 7, 1];
        let mut asc = desc.to_vec();
        asc.reverse();
        assert_eq!(t.horner_eval(&desc), poly::eval(&f, &asc, 0x1D));
        assert_eq!(t.horner_eval(&[]), 0);
        assert_eq!(t.horner_step(5, 9), f.add(f.mul(0x1D, 5), 9));
    }

    #[test]
    fn slice_kernels_match_scalar_loops() {
        let f = Field::gf256();
        let src: Vec<u16> = (0..256).collect();
        for c in [0u16, 1, 77, 255] {
            let t = f.mul_table(c);
            let mut xs = src.clone();
            t.mul_slice(&mut xs);
            let expected: Vec<u16> = src.iter().map(|&x| f.mul(c, x)).collect();
            assert_eq!(xs, expected, "table mul_slice c={c}");

            let mut xs = src.clone();
            f.mul_slice(&mut xs, c);
            assert_eq!(xs, expected, "field mul_slice c={c}");

            let mut acc: Vec<u16> = (0..256).rev().collect();
            let mut acc2 = acc.clone();
            let snapshot = acc.clone();
            t.mul_add_slice(&mut acc, &src);
            f.mul_add_slice(&mut acc2, &src, c);
            let expected: Vec<u16> = snapshot
                .iter()
                .zip(&src)
                .map(|(&a, &s)| a ^ f.mul(c, s))
                .collect();
            assert_eq!(acc, expected, "table mul_add_slice c={c}");
            assert_eq!(acc2, expected, "field mul_add_slice c={c}");
        }
    }

    #[test]
    fn forced_kernels_agree_on_awkward_lengths() {
        let f = Field::gf256();
        let t = f.mul_table(0xA7);
        for len in [0usize, 1, 15, 16, 17, 33, 255] {
            let src: Vec<u16> = (0..len).map(|i| (i * 13 % 256) as u16).collect();
            let mut scalar = src.clone();
            let mut dispatched = src.clone();
            t.mul_slice_in(Kernel::Scalar, &mut scalar);
            t.mul_slice_in(dispatch::kernel(), &mut dispatched);
            assert_eq!(scalar, dispatched, "len={len}");
        }
    }

    #[test]
    fn wide_field_slice_kernels_match() {
        let f = Field::gf65536();
        let src: Vec<u16> = (0..64).map(|i| i * 1021 + 3).collect();
        for c in [0u16, 1, 0xBEEF] {
            let t = f.mul_table(c);
            let mut xs = src.clone();
            t.mul_slice(&mut xs);
            for (x, &s) in xs.iter().zip(&src) {
                assert_eq!(*x, f.mul(c, s));
            }
            let mut acc = vec![0xAAAAu16; src.len()];
            t.mul_add_slice(&mut acc, &src);
            for (a, &s) in acc.iter().zip(&src) {
                assert_eq!(*a, 0xAAAA ^ f.mul(c, s));
            }
        }
    }

    #[test]
    fn blocked_horner_matches_per_root_both_fields() {
        for field in [Field::gf256(), Field::gf65536()] {
            let max = field.group_order().min(1000) as u16;
            let tables: Vec<MulTable> = (0..23u16)
                .map(|j| field.mul_table(field.alpha_pow(i64::from(j) + 1)))
                .collect();
            let word: Vec<u16> = (0..255u16).map(|i| i % max).collect();
            let per_root: Vec<u16> = tables.iter().map(|t| t.horner_eval(&word)).collect();
            let mut blocked = Vec::new();
            horner_eval_block(&tables, &word, &mut blocked);
            assert_eq!(blocked, per_root);
        }
    }
}
