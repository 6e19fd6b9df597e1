//! DNA strand primitives for the reliability-skew reproduction.
//!
//! This crate provides the vocabulary types shared by the whole workspace:
//! nucleotide [`Base`]s, [`DnaString`] strands, the [`TranscoderSpec`]
//! that lays payload fields out as bases and reads them back (the paper's
//! maximum-density 2-bits-per-base direct mapping plus two
//! constraint-aware layouts), biochemical constraint checks (GC content, homopolymer runs),
//! PCR [`Primer`]s with a constraint-aware generator, and the bit-packing
//! helpers used to slice payloads into Reed–Solomon symbols.
//!
//! # Examples
//!
//! ```
//! use dna_strand::{bits, DnaString};
//!
//! # fn main() -> Result<(), dna_strand::StrandError> {
//! let mut bases = DnaString::new();
//! bits::encode_symbol_into(0b00_01_10_11, 8, &mut bases)?; // one byte → 4 bases
//! assert_eq!(bases.to_string(), "ACGT");
//! assert_eq!(bits::decode_symbol(bases.as_slice(), 8)?, 0b00_01_10_11);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod base;
pub mod bits;
pub mod constraints;
mod index;
mod primer;
mod strand;
pub mod transcode;

pub use base::Base;
pub use index::{encode_index, encode_index_into};
pub use primer::{Primer, PrimerLibrary};
pub use strand::DnaString;
pub use transcode::{PayloadGeometry, TranscoderSpec};

use std::error::Error;
use std::fmt;

/// Errors produced by strand parsing, coding, and primer generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StrandError {
    /// A character that is not one of `A`, `C`, `G`, `T` (case-insensitive).
    InvalidChar(char),
    /// The input length does not fit the requested operation.
    LengthMismatch {
        /// Length the operation expects (or a multiple thereof).
        expected: usize,
        /// Length the caller provided.
        actual: usize,
    },
    /// Symbol widths must be even (each base carries exactly 2 bits).
    OddSymbolWidth(u8),
    /// A value does not fit in the requested bit width.
    ValueTooWide {
        /// The offending value.
        value: u64,
        /// The requested width in bits.
        width: u8,
    },
    /// The primer generator exhausted its attempt budget before finding
    /// enough primers satisfying the constraints.
    PrimerSearchExhausted {
        /// How many primers were found.
        found: usize,
        /// How many were requested.
        requested: usize,
    },
    /// A constraint configuration is self-contradictory or nonsensical
    /// (reversed GC bounds, bounds outside `[0, 1]`, or a zero
    /// homopolymer limit). Produced by
    /// [`constraints::ConstraintSet::try_new`]; the clamping
    /// [`constraints::ConstraintSet::new`] never reports it.
    InvalidConstraint {
        /// Human-readable description of what was wrong.
        reason: &'static str,
    },
}

impl fmt::Display for StrandError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrandError::InvalidChar(c) => write!(f, "invalid DNA base character {c:?}"),
            StrandError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            StrandError::OddSymbolWidth(w) => {
                write!(f, "symbol width {w} is odd; bases carry 2 bits each")
            }
            StrandError::ValueTooWide { value, width } => {
                write!(f, "value {value} does not fit in {width} bits")
            }
            StrandError::PrimerSearchExhausted { found, requested } => {
                write!(f, "primer search found only {found} of {requested} primers")
            }
            StrandError::InvalidConstraint { reason } => {
                write!(f, "invalid constraint configuration: {reason}")
            }
        }
    }
}

impl Error for StrandError {}
