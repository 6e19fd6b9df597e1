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

/// The per-code constant-multiplication tables: the division kernel's
/// generator products and one [`MulTable`] per syndrome root `α^1…α^E`
/// (the Horner pass over a remainder). Built once at construction;
/// `Arc`-shared so cloning a code stays cheap.
#[derive(Debug)]
struct RsTables {
    /// Per-generator-coefficient product tables, transposed and flattened
    /// so one quotient coefficient reads one contiguous row:
    /// `gen_flat[coef·E + j] = gen_desc[j+1] · coef`. A whole division
    /// step then touches two cache lines instead of `E` scattered tables.
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
        // parity = data(x)·x^E mod g(x): divide `[data | 0…0]` in the
        // per-thread scratch and copy the remainder into the parity region.
        let (data, parity) = codeword.split_at_mut(self.data_len);
        with_scratch(|s| {
            s.div.clear();
            s.div.extend_from_slice(data);
            s.div.resize(self.codeword_len(), 0);
            parity.copy_from_slice(self.divide(&mut s.div));
        });
        Ok(())
    }

    /// Synthetic division of `buf(x)` (descending coefficients) by the
    /// monic `g(x)`, in place: step `i` reads the quotient coefficient
    /// `buf[i]` and XORs its contiguous `gen_flat` row into the next `E`
    /// symbols — a slice XOR, which LLVM vectorizes, with no register
    /// shift, no zero-branches and no allocation. Returns the remainder,
    /// the last `min(E, len)` symbols (a word shorter than `E` is its own
    /// remainder). Every symbol must be a field element.
    ///
    /// Steps run in blocks of [`DIVISION_BLOCK`]: the block's quotient
    /// coefficients come first from scalar row entries, then each row is
    /// XORed into the `E` symbols past the block. One step at a time,
    /// every coefficient would wait on the previous step's vector stores.
    fn divide<'b>(&self, buf: &'b mut [u16]) -> &'b [u16] {
        const B: usize = DIVISION_BLOCK;
        let e = self.parity_len;
        let steps = buf.len().saturating_sub(e);
        let flat = &self.tables.gen_flat;
        let row = |q: u16| &flat[usize::from(q) * e..][..e];
        let blocked = if e >= B { steps - steps % B } else { 0 };
        for i in (0..blocked).step_by(B) {
            // Coefficient k takes row j's entry k − j − 1 from each
            // earlier coefficient j of the block.
            let mut q = [0u16; B];
            for k in 0..B {
                q[k] = (0..k).fold(buf[i + k], |v, j| v ^ row(q[j])[k - j - 1]);
            }
            // Row k covers symbols i + k + 1 ..= i + k + E; its entries
            // from B − 1 − k on fall past the block.
            let past = &mut buf[i + B..i + B + e];
            for (k, &qk) in q.iter().enumerate() {
                for (b, &tap) in past.iter_mut().zip(&row(qk)[B - 1 - k..]) {
                    *b ^= tap;
                }
            }
        }
        for i in blocked..steps {
            let tap_row = row(buf[i]);
            for (b, &tap) in buf[i + 1..=i + e].iter_mut().zip(tap_row) {
                *b ^= tap;
            }
        }
        &buf[steps..]
    }

    /// The remainder of `word(x)` divided by `g(x)`, computed in `buf`
    /// (its prior contents are replaced). `word` is a codeword exactly
    /// when the remainder vanishes, and since every root of `g` is a
    /// syndrome root, `S_j = word(α^j) = rem(α^j)`.
    pub(crate) fn remainder<'b>(&self, word: &[u16], buf: &'b mut Vec<u16>) -> &'b [u16] {
        buf.clear();
        buf.extend_from_slice(word);
        self.divide(buf)
    }

    /// The `E` syndromes `S_j = rem(α^j)`, `j = 1..=E`, of a word whose
    /// remainder is `rem`, into `out`: a Horner pass over `E` symbols per
    /// root ([`dna_gf::horner_eval_block`], blocked on byte-wide fields)
    /// instead of over the whole word. Exact, because `g(α^j) = 0`.
    pub(crate) fn remainder_syndromes(&self, rem: &[u16], out: &mut Vec<u16>) {
        dna_gf::horner_eval_block(&self.tables.roots, rem, out);
    }

    /// Computes the `E` syndromes `S_j = r(α^j)`, `j = 1..=E`, into `out`:
    /// `received` is divided by `g(x)` and the syndromes are evaluated on
    /// the `E`-symbol remainder.
    ///
    /// # Panics
    ///
    /// Panics when a symbol of `received` is not a field element.
    pub fn syndromes_into(&self, received: &[u16], out: &mut Vec<u16>) {
        with_scratch(|s| self.remainder_syndromes(self.remainder(received, &mut s.div), out));
    }

    /// Returns `true` when `word` is a valid codeword of this code: its
    /// remainder modulo `g(x)` vanishes, which is exactly when every
    /// syndrome does. Wrong-length input and symbols outside the field
    /// return `false`.
    pub fn is_codeword(&self, word: &[u16]) -> bool {
        let order = self.field.order();
        word.len() == self.codeword_len()
            && word.iter().all(|&s| usize::from(s) < order)
            && with_scratch(|s| self.remainder(word, &mut s.div).iter().all(|&v| v == 0))
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
        with_scratch(|s| decoder::decode_with_scratch(self, received, erasures, s))
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

/// Quotient coefficients per block of [`ReedSolomon::divide`]: on
/// RS(255, 208) over GF(256), four ran ≈ 1.8× faster than one step at a
/// time, and two, three and five were no faster than four. Codes with
/// fewer than four parity symbols divide one step at a time.
const DIVISION_BLOCK: usize = 4;

thread_local! {
    static SCRATCH: RefCell<RsScratch> = RefCell::new(RsScratch::new());
}

/// Runs `f` on this thread's [`RsScratch`]: the division buffer of
/// [`ReedSolomon::fill_parity`], [`ReedSolomon::is_codeword`] and
/// [`ReedSolomon::syndromes_into`], and the whole workspace of
/// [`ReedSolomon::decode`]. None of them calls another while it holds it.
fn with_scratch<R>(f: impl FnOnce(&mut RsScratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

#[cfg(test)]
pub(crate) mod reference {
    //! The kernels the division kernel replaced, kept as its equivalence
    //! oracle: the shift-register LFSR encoder and full-word Horner
    //! syndromes.

    use super::ReedSolomon;

    /// Parity by the LFSR: per data symbol, the feedback selects a
    /// `gen_flat` row, the register shifts one place and the row is
    /// XORed in.
    pub(crate) fn lfsr_parity(rs: &ReedSolomon, data: &[u16]) -> Vec<u16> {
        let e = rs.parity_len();
        let mut rem = vec![0u16; e];
        for &data_sym in data {
            let coef = usize::from(data_sym ^ rem[0]);
            let row = &rs.tables.gen_flat[coef * e..][..e];
            rem.copy_within(1.., 0);
            rem[e - 1] = 0;
            for (r, &tap) in rem.iter_mut().zip(row) {
                *r ^= tap;
            }
        }
        rem
    }

    /// `S_j = word(α^j)` by the blocked Horner kernel over the whole word.
    pub(crate) fn horner_syndromes(rs: &ReedSolomon, word: &[u16]) -> Vec<u16> {
        let mut out = Vec::new();
        dna_gf::horner_eval_block(&rs.tables.roots, word, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_gf::poly;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::OnceLock;

    /// Full-length and shortened codes over GF(16), GF(256) and
    /// GF(65536), built once for every property case.
    fn codes() -> &'static [ReedSolomon] {
        static CODES: OnceLock<Vec<ReedSolomon>> = OnceLock::new();
        CODES.get_or_init(|| {
            [
                (Field::gf16(), 11, 4),
                (Field::gf16(), 3, 6),
                (Field::gf16(), 1, 1),
                (Field::gf256(), 208, 47),
                (Field::gf256(), 12, 8),
                (Field::gf256(), 40, 16),
                (Field::gf256(), 2, 1),
                (Field::gf65536(), 30, 10),
                (Field::gf65536(), 5, 3),
            ]
            .into_iter()
            .map(|(f, m, e)| ReedSolomon::new(f, m, e).unwrap())
            .collect()
        })
    }

    /// A random word of `rs`: a codeword, a codeword with up to `E + 2`
    /// symbols corrupted (some of them also declared erased), or noise.
    fn word(rs: &ReedSolomon, seed: u64) -> (Vec<u16>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let order = rs.field().order();
        let sym = |rng: &mut StdRng| rng.gen_range(0..order) as u16;
        let data: Vec<u16> = (0..rs.data_len()).map(|_| sym(&mut rng)).collect();
        let mut cw = rs.encode(&data).unwrap();
        let mut erasures = Vec::new();
        match rng.gen_range(0..4) {
            0 => {}
            1 | 2 => {
                let n = rng.gen_range(1..=rs.parity_len() + 2);
                for _ in 0..n {
                    let at = rng.gen_range(0..cw.len());
                    cw[at] = sym(&mut rng);
                    if rng.gen_bool(0.5) && !erasures.contains(&at) {
                        erasures.push(at);
                    }
                }
            }
            _ => cw.iter_mut().for_each(|s| *s = sym(&mut rng)),
        }
        (cw, erasures)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        #[test]
        fn division_parity_matches_the_lfsr(seed in any::<u64>(), k in 0usize..9) {
            let rs = &codes()[k];
            let (cw, _) = word(rs, seed);
            let mut filled = cw.clone();
            rs.fill_parity(&mut filled).unwrap();
            prop_assert_eq!(&filled[..rs.data_len()], &cw[..rs.data_len()]);
            prop_assert_eq!(
                &filled[rs.data_len()..],
                &reference::lfsr_parity(rs, &cw[..rs.data_len()])[..]
            );
            prop_assert!(rs.is_codeword(&filled));
        }

        #[test]
        fn remainder_syndromes_match_full_word_horner(seed in any::<u64>(), k in 0usize..9) {
            let rs = &codes()[k];
            let (cw, erasures) = word(rs, seed);
            let want = reference::horner_syndromes(rs, &cw);
            let mut got = Vec::new();
            rs.syndromes_into(&cw, &mut got);
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(rs.is_codeword(&cw), want.iter().all(|&s| s == 0));
            // The decoder's syndrome stage (an erased word is zeroed at
            // its erasures, as the pipeline presents it) agrees too.
            let mut erased = cw.clone();
            for &at in &erasures {
                erased[at] = 0;
            }
            let mut scratch = RsScratch::new();
            let rem = rs.remainder(&erased, &mut scratch.div);
            rs.remainder_syndromes(rem, &mut scratch.synd);
            prop_assert_eq!(&scratch.synd, &reference::horner_syndromes(rs, &erased));
        }
    }

    #[test]
    fn division_handles_words_shorter_and_longer_than_the_code() {
        let rs = ReedSolomon::new(Field::gf256(), 12, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(28);
        for len in [0usize, 1, 7, 8, 9, 20, 21, 40] {
            let w: Vec<u16> = (0..len).map(|_| rng.gen_range(0..256)).collect();
            let mut got = Vec::new();
            rs.syndromes_into(&w, &mut got);
            assert_eq!(got, reference::horner_syndromes(&rs, &w), "len {len}");
        }
    }

    #[test]
    fn is_codeword_rejects_symbols_outside_the_field() {
        let rs = rs_small();
        let mut cw = rs.encode(&[0; 9]).unwrap();
        cw[0] = 16;
        assert!(!rs.is_codeword(&cw));
    }

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
