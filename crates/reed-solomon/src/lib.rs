//! Systematic Reed–Solomon codes over GF(2^m) with errors-and-erasures
//! decoding.
//!
//! This is the error-correction substrate of the DNA storage architecture
//! reproduced by this workspace (Organick et al., as used in *Managing
//! Reliability Bias in DNA Storage*, ISCA '22): data is laid out in a matrix
//! whose rows are Reed–Solomon codewords and whose columns are DNA molecules.
//! A lost molecule appears as one **erasure** in every codeword; insertion/
//! deletion noise surviving consensus appears as **substitution errors**.
//!
//! A codeword with `E` parity symbols corrects `ρ` erasures plus `ν` errors
//! whenever `2ν + ρ ≤ E` — e.g. up to `E` pure erasures or `E/2` pure errors,
//! exactly the capabilities quoted in the paper (§2.2).
//!
//! The decoder follows the classic pipeline: remainder → syndromes →
//! erasure locator → Forney syndromes → Berlekamp–Massey → Chien search →
//! Forney magnitudes, and reports per-codeword correction statistics (used
//! to reproduce the paper's Figure 11). The first stage is the encoder's
//! own kernel: synthetic division by the generator `g(x)`. A zero
//! remainder is a clean codeword and the decode ends there; otherwise the
//! syndromes are evaluated on the `E`-symbol remainder, which has the same
//! values at the roots of `g` as the whole word.
//!
//! The hot path is table-driven and allocation-free at steady state: the
//! division kernel reads one precomputed row of generator products per
//! step, the syndrome roots each own a precomputed [`dna_gf::MulTable`],
//! and every decode intermediate lives in an [`RsScratch`] workspace
//! ([`ReedSolomon::decode`] keeps a per-thread one;
//! [`ReedSolomon::decode_with_scratch`] takes the caller's). Kernel design
//! and measurements are documented in `PERFORMANCE.md` at the repository
//! root.
//!
//! # Examples
//!
//! ```
//! use dna_gf::Field;
//! use dna_reed_solomon::ReedSolomon;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A shortened RS(20, 12) code over GF(256): 8 parity symbols.
//! let rs = ReedSolomon::new(Field::gf256(), 12, 8)?;
//! let data: Vec<u16> = (0..12).collect();
//! let mut cw = rs.encode(&data)?;
//!
//! cw[3] ^= 0x55; // two in-place corruptions
//! cw[17] ^= 0x0F;
//! let fix = rs.decode(&mut cw, &[])?;
//! assert_eq!(fix.errors, 2);
//! assert_eq!(&cw[..12], &data[..]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod code;
mod decoder;
mod family;
mod scratch;

pub use code::{Correction, ReedSolomon};
pub use family::CodeFamily;
pub use scratch::RsScratch;

use std::error::Error;
use std::fmt;

/// Errors produced by Reed–Solomon construction, encoding, and decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum RsError {
    /// Invalid code geometry (zero lengths, or data+parity exceeding 2^m − 1).
    InvalidParams {
        /// Requested number of data symbols.
        data_len: usize,
        /// Requested number of parity symbols.
        parity_len: usize,
        /// Maximum codeword length for the field, 2^m − 1.
        max_len: usize,
    },
    /// The input block has the wrong length for this code.
    LengthMismatch {
        /// Length the code expects.
        expected: usize,
        /// Length the caller provided.
        actual: usize,
    },
    /// A symbol value does not fit in the field.
    SymbolOutOfRange {
        /// Index of the offending symbol.
        index: usize,
        /// The offending value.
        value: u16,
    },
    /// An erasure index is out of bounds or duplicated.
    BadErasure(usize),
    /// More erasures than parity symbols; the codeword is unrecoverable.
    TooManyErasures {
        /// Number of erasures supplied.
        erasures: usize,
        /// Number of parity symbols (the erasure capacity).
        capacity: usize,
    },
    /// The error pattern exceeds the code's correction capability; the
    /// received word was left unmodified.
    TooManyErrors,
}

impl fmt::Display for RsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RsError::InvalidParams {
                data_len,
                parity_len,
                max_len,
            } => write!(
                f,
                "invalid RS parameters: data={data_len} parity={parity_len} exceeds max codeword length {max_len}"
            ),
            RsError::LengthMismatch { expected, actual } => {
                write!(f, "block length mismatch: expected {expected}, got {actual}")
            }
            RsError::SymbolOutOfRange { index, value } => {
                write!(f, "symbol {value} at index {index} does not fit the field")
            }
            RsError::BadErasure(i) => write!(f, "erasure index {i} is out of bounds or duplicated"),
            RsError::TooManyErasures { erasures, capacity } => {
                write!(f, "{erasures} erasures exceed capacity {capacity}")
            }
            RsError::TooManyErrors => write!(f, "error pattern exceeds correction capability"),
        }
    }
}

impl Error for RsError {}
