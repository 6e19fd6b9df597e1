//! Galois field arithmetic for DNA storage error correction.
//!
//! This crate implements the finite fields GF(2^m) for 2 ≤ m ≤ 16 together
//! with the polynomial helpers needed by Reed–Solomon coding. The DNA storage
//! architecture of Organick et al. (reproduced by this workspace) uses
//! Reed–Solomon codewords over GF(2^16) with 65535 symbols; the laptop-scale
//! experiment geometry in this reproduction uses GF(2^8). Both are served by
//! the same runtime-parameterized [`Field`].
//!
//! Elements are represented as `u16` regardless of the field width; values
//! must be `< field.order()`.
//!
//! Hot loops should use the table-driven kernels — [`Field::mul_table`] /
//! [`MulTable`] for fixed constants, [`Field::mul_slice`] /
//! [`Field::mul_add_slice`] for per-call constants, [`horner_eval_block`]
//! for multi-root syndromes — instead of scalar [`Field::mul`]; the kernel
//! design is documented in `PERFORMANCE.md` at the repository root. GF(256)
//! slice products run SSSE3 shuffles when the CPU has them and scalar
//! table loops otherwise ([`dispatch`]); both are byte-identical.
//!
//! # Examples
//!
//! ```
//! use dna_gf::Field;
//!
//! # fn main() -> Result<(), dna_gf::GfError> {
//! let f = Field::gf256();
//! let a = 0x53;
//! let b = 0xCA;
//! let p = f.mul(a, b);
//! assert_eq!(f.div(p, b)?, a);
//! assert_eq!(f.add(a, a), 0); // characteristic 2
//! # Ok(())
//! # }
//! ```

// `unsafe` is denied crate-wide and re-allowed in exactly one module:
// `simd`, which wraps `std::arch` intrinsics behind runtime detection.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod dispatch;
mod field;
mod mul_table;
pub mod poly;
mod simd;
mod tables;

pub use field::Field;
pub use mul_table::{horner_eval_block, MulTable};

use std::error::Error;
use std::fmt;

/// Errors produced by field construction and arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GfError {
    /// The requested field width `m` is outside the supported range 2..=16.
    UnsupportedWidth(u8),
    /// The supplied reduction polynomial is not primitive over GF(2),
    /// so α = 2 does not generate the multiplicative group.
    NotPrimitive(u32),
    /// An element is not a member of the field (value ≥ 2^m).
    ElementOutOfRange {
        /// The offending value.
        value: u32,
        /// The field order (2^m).
        order: usize,
    },
    /// Division (or inversion) by zero.
    DivisionByZero,
}

impl fmt::Display for GfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GfError::UnsupportedWidth(m) => {
                write!(f, "unsupported field width m={m}, expected 2..=16")
            }
            GfError::NotPrimitive(p) => {
                write!(f, "reduction polynomial {p:#x} is not primitive over GF(2)")
            }
            GfError::ElementOutOfRange { value, order } => {
                write!(f, "element {value} is outside field of order {order}")
            }
            GfError::DivisionByZero => write!(f, "division by zero in GF(2^m)"),
        }
    }
}

impl Error for GfError {}
