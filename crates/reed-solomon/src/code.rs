//! The [`ReedSolomon`] code object: parameters, generator polynomial, and
//! the systematic encoder. Decoding lives in [`crate::decoder`].

use crate::decoder;
use crate::scratch::RsScratch;
use crate::RsError;
use dna_gf::{Field, MulTable};
use std::cell::RefCell;
use std::sync::Arc;

/// A systematic, possibly shortened Reed–Solomon code over GF(2^m).
///
/// The codeword layout is `[data … | parity …]`; `data_len + parity_len`
/// must not exceed the field's maximum codeword length `2^m − 1`. The
/// generator polynomial uses consecutive roots `α^1 … α^E` (fcr = 1).
///
/// # Examples
///
/// ```
/// use dna_gf::Field;
/// use dna_reed_solomon::ReedSolomon;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rs = ReedSolomon::new(Field::gf16(), 11, 4)?; // RS(15, 11) over GF(16)
/// let cw = rs.encode(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])?;
/// assert_eq!(cw.len(), 15);
/// assert!(rs.is_codeword(&cw));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    field: Field,
    data_len: usize,
    parity_len: usize,
    /// Generator polynomial in **descending** degree order; `gen_desc[0] = 1`
    /// is the coefficient of `x^E`.
    gen_desc: Vec<u16>,
    /// Precomputed hot-path kernels, shared across clones.
    tables: Arc<RsTables>,
}

/// The per-code constant-multiplication tables: the encoder LFSR's tap
/// products and one [`MulTable`] per syndrome root `α^1…α^E` (the
/// decoder's Horner kernel). Built once at construction; `Arc`-shared so
/// cloning a code stays cheap.
#[derive(Debug)]
struct RsTables {
    /// Per-generator-coefficient product tables, transposed and flattened
    /// so one feedback value reads one contiguous row:
    /// `gen_flat[coef·E + j] = gen_desc[j+1] · coef`. A whole LFSR step
    /// then touches two cache lines instead of `E` scattered tables.
    gen_flat: Vec<u16>,
    /// `roots[j]` multiplies by `α^{j+1}`.
    roots: Vec<MulTable>,
}

/// A report of what [`ReedSolomon::decode`] corrected.
///
/// Positions that were declared as erasures but turned out to hold the
/// correct symbol contribute to neither counter.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Correction {
    /// Number of corrected symbol errors at positions *not* declared erased.
    pub errors: usize,
    /// Number of erased positions whose symbol actually needed a fix.
    pub erasures: usize,
    /// The corrected positions (both kinds), in ascending order.
    pub positions: Vec<usize>,
}

impl Correction {
    /// Total number of symbols that were modified.
    pub fn corrected_symbols(&self) -> usize {
        self.errors + self.erasures
    }
}

impl ReedSolomon {
    /// Creates an RS code with `data_len` data symbols and `parity_len`
    /// parity symbols per codeword.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParams`] when either length is zero or the
    /// total exceeds `2^m − 1`.
    pub fn new(field: Field, data_len: usize, parity_len: usize) -> Result<Self, RsError> {
        let max_len = field.group_order();
        if data_len == 0 || parity_len == 0 || data_len + parity_len > max_len {
            return Err(RsError::InvalidParams {
                data_len,
                parity_len,
                max_len,
            });
        }
        // g(x) = Π_{j=1..E} (x − α^j), built ascending then reversed.
        let mut gen = vec![1u16]; // ascending: constant term first
        for j in 1..=parity_len {
            let root = field.alpha_pow(j as i64);
            // multiply gen by (x + root): ascending conv with [root, 1]
            let mut next = vec![0u16; gen.len() + 1];
            for (i, &g) in gen.iter().enumerate() {
                next[i] ^= field.mul(g, root);
                next[i + 1] ^= g;
            }
            gen = next;
        }
        gen.reverse(); // descending: x^E coefficient (=1) first
        debug_assert_eq!(gen[0], 1);
        let mut gen_flat = vec![0u16; field.order() * parity_len];
        for coef in 0..field.order() {
            let row = &mut gen_flat[coef * parity_len..][..parity_len];
            for (slot, &g) in row.iter_mut().zip(&gen[1..]) {
                *slot = field.mul(g, coef as u16);
            }
        }
        let tables = RsTables {
            gen_flat,
            roots: (1..=parity_len)
                .map(|j| field.mul_table(field.alpha_pow(j as i64)))
                .collect(),
        };
        Ok(ReedSolomon {
            field,
            data_len,
            parity_len,
            gen_desc: gen,
            tables: Arc::new(tables),
        })
    }

    /// The field this code operates over.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// Number of data symbols per codeword (`M` in the paper's notation).
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Number of parity symbols per codeword (`E` in the paper's notation).
    pub fn parity_len(&self) -> usize {
        self.parity_len
    }

    /// Total codeword length `M + E`.
    pub fn codeword_len(&self) -> usize {
        self.data_len + self.parity_len
    }

    /// The generator polynomial `g(x) = Π_{j=1..E} (x − α^j)` in
    /// **descending** degree order (the leading `x^E` coefficient, always
    /// 1, comes first).
    pub fn generator(&self) -> &[u16] {
        &self.gen_desc
    }

    /// Encodes `data` into a fresh systematic codeword `[data | parity]`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::LengthMismatch`] for wrong input length and
    /// [`RsError::SymbolOutOfRange`] when a symbol exceeds the field.
    pub fn encode(&self, data: &[u16]) -> Result<Vec<u16>, RsError> {
        if data.len() != self.data_len {
            return Err(RsError::LengthMismatch {
                expected: self.data_len,
                actual: data.len(),
            });
        }
        let mut cw = Vec::with_capacity(self.codeword_len());
        cw.extend_from_slice(data);
        cw.resize(self.codeword_len(), 0);
        self.fill_parity(&mut cw)?;
        Ok(cw)
    }

    /// Computes parity in place for a buffer whose first `data_len` symbols
    /// are the data; the trailing `parity_len` symbols are overwritten.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ReedSolomon::encode`].
    pub fn fill_parity(&self, codeword: &mut [u16]) -> Result<(), RsError> {
        if codeword.len() != self.codeword_len() {
            return Err(RsError::LengthMismatch {
                expected: self.codeword_len(),
                actual: codeword.len(),
            });
        }
        let order = self.field.order() as u32;
        if let Some(bad) = codeword[..self.data_len]
            .iter()
            .position(|&s| u32::from(s) >= order)
        {
            return Err(RsError::SymbolOutOfRange {
                index: bad,
                value: codeword[bad],
            });
        }
        let e = self.parity_len;
        // Polynomial long division as an LFSR over the per-coefficient tap
        // products, running directly in the codeword's parity region:
        // parity = data(x)·x^E mod g(x). Each step reads one contiguous
        // `gen_flat` row, shifts the register, and XORs the row in — no
        // allocation, no zero-branches, no per-element table dispatch.
        let (data, rem) = codeword.split_at_mut(self.data_len);
        rem.fill(0);
        let flat = &self.tables.gen_flat;
        for &data_sym in data.iter() {
            let coef = usize::from(data_sym ^ rem[0]);
            let row = &flat[coef * e..][..e];
            rem.copy_within(1.., 0);
            rem[e - 1] = 0;
            for (r, &tap) in rem.iter_mut().zip(row) {
                *r ^= tap;
            }
        }
        Ok(())
    }

    /// Computes the `E` syndromes `S_j = r(α^j)`, `j = 1..=E`, into `out`
    /// via the batched multi-root Horner kernel ([`dna_gf::horner_eval_block`]):
    /// one streaming pass over `received` per register block of up to 8
    /// roots, instead of `E` independent passes. Wide fields (m > 8) run
    /// one pass per root; results are identical either way.
    pub fn syndromes_into(&self, received: &[u16], out: &mut Vec<u16>) {
        dna_gf::horner_eval_block(&self.tables.roots, received, out);
    }

    /// Whether every syndrome of `word` vanishes; exits at the first
    /// block of syndromes (single syndrome on wide fields) with a non-zero
    /// value.
    pub(crate) fn syndromes_vanish(&self, word: &[u16]) -> bool {
        dna_gf::horner_all_zero(&self.tables.roots, word)
    }

    /// Returns `true` when all syndromes of `word` vanish (i.e. `word` is a
    /// valid codeword of this code). Wrong-length input returns `false`.
    pub fn is_codeword(&self, word: &[u16]) -> bool {
        word.len() == self.codeword_len() && self.syndromes_vanish(word)
    }

    /// Corrects `received` in place, treating `erasures` (positions within
    /// the codeword) as known-bad locations.
    ///
    /// On success the buffer holds the corrected codeword and the returned
    /// [`Correction`] describes what changed. On failure the buffer is left
    /// **unmodified** so callers can fall back to best-effort data recovery
    /// (as the paper's graceful-degradation experiments require).
    ///
    /// # Errors
    ///
    /// - [`RsError::LengthMismatch`] / [`RsError::SymbolOutOfRange`] /
    ///   [`RsError::BadErasure`] for malformed input;
    /// - [`RsError::TooManyErasures`] when `erasures.len() > parity_len`;
    /// - [`RsError::TooManyErrors`] when the noise exceeds `2ν + ρ ≤ E`.
    ///
    /// Internally this borrows a per-thread [`RsScratch`], so steady-state
    /// decoding performs no heap allocations beyond the returned
    /// [`Correction`]'s position list; batch callers that want explicit
    /// control use [`ReedSolomon::decode_with_scratch`].
    pub fn decode(&self, received: &mut [u16], erasures: &[usize]) -> Result<Correction, RsError> {
        thread_local! {
            static SCRATCH: RefCell<RsScratch> = RefCell::new(RsScratch::new());
        }
        SCRATCH
            .with(|s| decoder::decode_with_scratch(self, received, erasures, &mut s.borrow_mut()))
    }

    /// [`ReedSolomon::decode`] against a caller-owned [`RsScratch`]: after
    /// the scratch's first use, decoding allocates nothing. Results are
    /// byte-identical to [`ReedSolomon::decode`] regardless of what the
    /// scratch was previously used for.
    ///
    /// # Errors
    ///
    /// See [`ReedSolomon::decode`].
    pub fn decode_with_scratch(
        &self,
        received: &mut [u16],
        erasures: &[usize],
        scratch: &mut RsScratch,
    ) -> Result<Correction, RsError> {
        decoder::decode_with_scratch(self, received, erasures, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_gf::poly;

    fn rs_small() -> ReedSolomon {
        ReedSolomon::new(Field::gf16(), 9, 6).expect("valid params")
    }

    #[test]
    fn rejects_bad_geometry() {
        assert!(matches!(
            ReedSolomon::new(Field::gf16(), 0, 4),
            Err(RsError::InvalidParams { .. })
        ));
        assert!(matches!(
            ReedSolomon::new(Field::gf16(), 12, 4), // 16 > 15
            Err(RsError::InvalidParams { .. })
        ));
        assert!(ReedSolomon::new(Field::gf16(), 11, 4).is_ok());
    }

    #[test]
    fn generator_has_roots_at_consecutive_alpha_powers() {
        let rs = rs_small();
        let f = rs.field().clone();
        let mut gen_asc = rs.gen_desc.clone();
        gen_asc.reverse();
        for j in 1..=rs.parity_len() {
            assert_eq!(
                poly::eval(&f, &gen_asc, f.alpha_pow(j as i64)),
                0,
                "root α^{j}"
            );
        }
        // α^0 = 1 must NOT be a root (fcr = 1).
        assert_ne!(poly::eval(&f, &gen_asc, 1), 0);
    }

    #[test]
    fn encode_is_systematic_and_valid() {
        let rs = rs_small();
        let data = [3u16, 1, 4, 1, 5, 9, 2, 6, 5];
        let cw = rs.encode(&data).unwrap();
        assert_eq!(&cw[..9], &data);
        assert!(rs.is_codeword(&cw));
    }

    #[test]
    fn encode_rejects_bad_inputs() {
        let rs = rs_small();
        assert!(matches!(
            rs.encode(&[1, 2, 3]),
            Err(RsError::LengthMismatch {
                expected: 9,
                actual: 3
            })
        ));
        assert!(matches!(
            rs.encode(&[99, 0, 0, 0, 0, 0, 0, 0, 0]), // 99 ≥ 16
            Err(RsError::SymbolOutOfRange {
                index: 0,
                value: 99
            })
        ));
    }

    #[test]
    fn is_codeword_rejects_corruption_and_wrong_length() {
        let rs = rs_small();
        let mut cw = rs.encode(&[0; 9]).unwrap();
        assert!(rs.is_codeword(&cw));
        cw[4] ^= 1;
        assert!(!rs.is_codeword(&cw));
        assert!(!rs.is_codeword(&cw[..10]));
    }

    #[test]
    fn codeword_of_gf256_code_checks_out() {
        let rs = ReedSolomon::new(Field::gf256(), 200, 55).unwrap();
        let data: Vec<u16> = (0..200).map(|i| (i * 37 % 256) as u16).collect();
        let cw = rs.encode(&data).unwrap();
        assert!(rs.is_codeword(&cw));
        assert_eq!(rs.codeword_len(), 255);
    }
}
