//! The reusable decode workspace: every intermediate buffer a decode
//! needs, owned by the caller so steady-state decoding allocates nothing.

use crate::ReedSolomon;

/// Scratch buffers for [`ReedSolomon::decode_with_scratch`].
///
/// A fresh scratch starts empty; the first decode through it grows every
/// buffer to the code's working set (the *warm-up*), and subsequent
/// decodes of the same code reuse the capacity — zero heap allocations,
/// apart from the `positions` vector of the returned
/// [`Correction`](crate::Correction) when symbols were actually fixed.
///
/// A scratch may be reused freely across codes, fields, and failed
/// decodes: every buffer is rewritten from scratch at the start of each
/// call, so no state — not even from a decode that errored midway — can
/// leak into the next result.
///
/// # Examples
///
/// ```
/// use dna_gf::Field;
/// use dna_reed_solomon::{ReedSolomon, RsScratch};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let rs = ReedSolomon::new(Field::gf256(), 12, 8)?;
/// let mut cw = rs.encode(&(0..12).collect::<Vec<_>>())?;
/// cw[3] ^= 0x55;
/// let mut scratch = RsScratch::new();
/// let fix = rs.decode_with_scratch(&mut cw, &[], &mut scratch)?;
/// assert_eq!(fix.errors, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct RsScratch {
    /// The division buffer: a copy of the word, whose last `E` symbols
    /// end as its remainder modulo `g(x)`.
    pub(crate) div: Vec<u16>,
    /// Syndromes S_1..S_E.
    pub(crate) synd: Vec<u16>,
    /// Erasure-position dedup map, one flag per codeword position.
    pub(crate) seen: Vec<bool>,
    /// Erasure locator Γ(x), ascending.
    pub(crate) gamma: Vec<u16>,
    /// The product Γ(x)·S(x).
    pub(crate) gs: Vec<u16>,
    /// Forney syndromes (coefficients ρ..E−1 of Γ·S).
    pub(crate) forney: Vec<u16>,
    /// Error locator Λ(x) from Berlekamp–Massey.
    pub(crate) lambda: Vec<u16>,
    /// The BM auxiliary polynomial B(x).
    pub(crate) prev: Vec<u16>,
    /// BM update staging buffer.
    pub(crate) tmp: Vec<u16>,
    /// Combined locator Ψ = Λ·Γ.
    pub(crate) psi: Vec<u16>,
    /// Evaluator Ω = S·Ψ mod x^E.
    pub(crate) omega: Vec<u16>,
    /// Chien rotation registers: `chien[j] = Ψ_j · x_i^j` at position `i`.
    pub(crate) chien: Vec<u16>,
    /// Per-register step constants α^j for the Chien rotation.
    pub(crate) alpha_step: Vec<u16>,
    /// Found (position, magnitude) pairs.
    pub(crate) fixes: Vec<(usize, u16)>,
}

impl RsScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> RsScratch {
        RsScratch::default()
    }

    /// Pre-sizes every buffer for `rs` so that not even the first decode
    /// allocates. Optional — decoding warms a cold scratch up by itself.
    pub fn warm_up(&mut self, rs: &ReedSolomon) {
        let e = rs.parity_len();
        let l_cw = rs.codeword_len();
        reserve_to(&mut self.div, l_cw);
        reserve_to(&mut self.synd, e);
        if self.seen.len() < l_cw {
            self.seen.resize(l_cw, false);
        }
        reserve_to(&mut self.gamma, e + 1);
        reserve_to(&mut self.gs, 2 * e + 1);
        reserve_to(&mut self.forney, e);
        reserve_to(&mut self.lambda, 2 * e + 2);
        reserve_to(&mut self.prev, 2 * e + 2);
        reserve_to(&mut self.tmp, 2 * e + 2);
        reserve_to(&mut self.psi, 2 * e + 2);
        reserve_to(&mut self.omega, 3 * e + 2);
        reserve_to(&mut self.chien, e + 1);
        reserve_to(&mut self.alpha_step, e + 1);
        self.fixes.reserve((e + 1).saturating_sub(self.fixes.len()));
    }
}

fn reserve_to(v: &mut Vec<u16>, cap: usize) {
    v.reserve(cap.saturating_sub(v.len()));
}
