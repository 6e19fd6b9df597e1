//! Errors-and-erasures decoding: syndromes, erasure locator, Forney
//! syndromes, Berlekamp–Massey, Chien search, and Forney magnitudes.
//!
//! Conventions: a codeword of length `L` maps position `i` (0 = first data
//! symbol) to the locator `X_i = α^(L−1−i)`, i.e. the codeword is the
//! polynomial `c(x) = Σ c_i · x^(L−1−i)`. Syndromes use consecutive roots
//! `α^1 … α^E` (fcr = 1), which keeps the Forney magnitude formula free of
//! the `X^(1−fcr)` factor.
//!
//! Every intermediate lives in the caller's [`RsScratch`], so steady-state
//! decoding performs no heap allocations (see `PERFORMANCE.md`). The
//! syndrome stage divides the received word by `g(x)` with the encoder's
//! synthetic-division kernel: a zero remainder is a clean codeword and
//! returns at once; otherwise `S_j = rem(α^j)` (exact, as `g(α^j) = 0`),
//! a per-root [`dna_gf::MulTable`] Horner pass over `E` symbols. The Chien
//! search is the incremental coefficient-rotation form with an early exit
//! once all `deg Ψ` roots are found, and the polynomial products reuse
//! scratch buffers via [`poly::mul_into`].

use crate::code::{Correction, ReedSolomon};
use crate::scratch::RsScratch;
use crate::RsError;
use dna_gf::poly;

/// Berlekamp–Massey over the (Forney) syndrome sequence; leaves the error
/// locator Λ(x) in `lambda`, ascending order (Λ[0] = 1), trimmed to its
/// degree. `prev` and `tmp` are staging buffers for B(x) and the
/// pre-update Λ snapshot.
fn berlekamp_massey_into(
    rs: &ReedSolomon,
    synd: &[u16],
    lambda: &mut Vec<u16>,
    prev: &mut Vec<u16>,
    tmp: &mut Vec<u16>,
) {
    let field = rs.field();
    lambda.clear();
    lambda.push(1);
    prev.clear();
    prev.push(1); // B(x)
    let mut l = 0usize; // current LFSR length
    let mut m = 1usize; // steps since last update
    let mut b = 1u16; // discrepancy at last update
    for n in 0..synd.len() {
        let mut delta = synd[n];
        for i in 1..=l.min(lambda.len() - 1) {
            delta ^= field.mul(lambda[i], synd[n - i]);
        }
        if delta == 0 {
            m += 1;
            continue;
        }
        let coef = field
            .div(delta, b)
            .expect("b is a recorded non-zero discrepancy");
        if 2 * l <= n {
            tmp.clear();
            tmp.extend_from_slice(lambda);
            if lambda.len() < prev.len() + m {
                lambda.resize(prev.len() + m, 0);
            }
            // λ(x) -= coef · x^m · B(x)
            field.mul_add_slice(&mut lambda[m..m + prev.len()], prev, coef);
            l = n + 1 - l;
            std::mem::swap(prev, tmp);
            b = delta;
            m = 1;
        } else {
            if lambda.len() < prev.len() + m {
                lambda.resize(prev.len() + m, 0);
            }
            field.mul_add_slice(&mut lambda[m..m + prev.len()], prev, coef);
            m += 1;
        }
    }
    // Trim trailing zeros but keep at least the constant term.
    let deg = poly::degree(lambda).unwrap_or(0);
    lambda.truncate(deg + 1);
}

/// Multiplies `gamma` by `(1 + X·x)` in place (one erasure locator step).
fn gamma_step(rs: &ReedSolomon, gamma: &mut Vec<u16>, x: u16) {
    let field = rs.field();
    gamma.push(0);
    for j in (1..gamma.len()).rev() {
        let carry = field.mul(gamma[j - 1], x);
        gamma[j] ^= carry;
    }
}

pub(crate) fn decode_with_scratch(
    rs: &ReedSolomon,
    received: &mut [u16],
    erasures: &[usize],
    s: &mut RsScratch,
) -> Result<Correction, RsError> {
    let field = rs.field();
    let l_cw = rs.codeword_len();
    let e = rs.parity_len();
    if received.len() != l_cw {
        return Err(RsError::LengthMismatch {
            expected: l_cw,
            actual: received.len(),
        });
    }
    if let Some(bad) = received
        .iter()
        .position(|&s| usize::from(s) >= field.order())
    {
        return Err(RsError::SymbolOutOfRange {
            index: bad,
            value: received[bad],
        });
    }
    s.seen.clear();
    s.seen.resize(l_cw, false);
    for &pos in erasures {
        if pos >= l_cw || s.seen[pos] {
            return Err(RsError::BadErasure(pos));
        }
        s.seen[pos] = true;
    }
    if erasures.len() > e {
        return Err(RsError::TooManyErasures {
            erasures: erasures.len(),
            capacity: e,
        });
    }

    // A zero remainder modulo g(x) is a clean codeword; otherwise the
    // syndromes are the remainder's, evaluated over E symbols instead of L.
    let rem = rs.remainder(received, &mut s.div);
    if rem.iter().all(|&v| v == 0) {
        return Ok(Correction::default());
    }
    rs.remainder_syndromes(rem, &mut s.synd);

    // Erasure locator Γ(x) = Π_k (1 − X_k·x) from position → locator
    // α^(L−1−i), built up one in-place step per erasure.
    s.gamma.clear();
    s.gamma.push(1);
    for &pos in erasures {
        let x = field.alpha_pow((l_cw - 1 - pos) as i64);
        gamma_step(rs, &mut s.gamma, x);
    }

    // Forney syndromes: coefficients ρ..E−1 of Γ(x)·S(x).
    let rho = erasures.len();
    poly::mul_into(field, &s.gamma, &s.synd, &mut s.gs);
    s.forney.clear();
    s.forney
        .extend((rho..e).map(|i| s.gs.get(i).copied().unwrap_or(0)));

    berlekamp_massey_into(rs, &s.forney, &mut s.lambda, &mut s.prev, &mut s.tmp);
    let nu = poly::degree(&s.lambda).unwrap_or(0);
    if 2 * nu + rho > e {
        return Err(RsError::TooManyErrors);
    }

    // Combined locator Ψ = Λ·Γ and evaluator Ω = S·Ψ mod x^E.
    poly::mul_into(field, &s.lambda, &s.gamma, &mut s.psi);
    poly::mul_into(field, &s.synd, &s.psi, &mut s.omega);
    s.omega.truncate(e);
    let psi_deg = poly::degree(&s.psi).unwrap_or(0);

    // Chien search in coefficient-rotation form: register j holds
    // Ψ_j · x_i^j for the current position's evaluation point
    // x_i = X_i^{-1} = α^{−(L−1−i)}; position i is corrupted iff the
    // registers XOR to zero. Stepping i → i+1 multiplies register j by
    // α^j. Once deg Ψ roots are found no further roots can exist, so the
    // scan exits early instead of walking all L positions.
    s.chien.clear();
    s.chien.extend_from_slice(&s.psi[..psi_deg + 1]);
    s.alpha_step.clear();
    s.alpha_step.push(1);
    let x0 = field.alpha_pow(-((l_cw - 1) as i64));
    let mut x0_pow = 1u16;
    for j in 1..=psi_deg {
        x0_pow = field.mul(x0_pow, x0);
        s.chien[j] = field.mul(s.chien[j], x0_pow);
        s.alpha_step.push(field.alpha_pow(j as i64));
    }
    s.fixes.clear();
    for i in 0..l_cw {
        if s.fixes.len() == psi_deg {
            break; // every root found — the locator has no more
        }
        let eval = s.chien[..=psi_deg].iter().fold(0u16, |a, &c| a ^ c);
        if eval == 0 {
            let x_inv = field.alpha_pow(-((l_cw - 1 - i) as i64));
            // Forney magnitude Ω(x)/Ψ'(x). In characteristic 2,
            // x·Ψ'(x) = Σ_{j odd} Ψ_j x^j is the XOR of the odd
            // registers, so the division scales both sides by x.
            let num = s
                .omega
                .iter()
                .rev()
                .fold(0u16, |acc, &c| field.mul(acc, x_inv) ^ c);
            let mut odd = 0u16;
            let mut j = 1;
            while j <= psi_deg {
                odd ^= s.chien[j];
                j += 2;
            }
            let magnitude = field
                .div(field.mul(num, x_inv), odd)
                .map_err(|_| RsError::TooManyErrors)?;
            s.fixes.push((i, magnitude));
        }
        for j in 1..=psi_deg {
            s.chien[j] = field.mul(s.chien[j], s.alpha_step[j]);
        }
    }
    if s.fixes.len() != psi_deg {
        // The locator does not split over the field: uncorrectable pattern.
        return Err(RsError::TooManyErrors);
    }

    // Apply tentatively, verify, and roll back on mis-correction. The
    // verification updates the syndromes incrementally instead of
    // re-scanning the codeword: flipping position i by `mag` changes
    // S_j by mag·X_i^j with X_i = α^(L−1−i) — exact field arithmetic,
    // so the verdict is identical to recomputing from scratch at a
    // fraction of the cost (E products per fix instead of E·L loads).
    for &(i, mag) in &s.fixes {
        received[i] ^= mag;
        let x = field.alpha_pow((l_cw - 1 - i) as i64);
        let mut cur = mag;
        for slot in s.synd.iter_mut() {
            cur = field.mul(cur, x);
            *slot ^= cur;
        }
    }
    if s.synd.iter().any(|&v| v != 0) {
        for &(i, mag) in &s.fixes {
            received[i] ^= mag;
        }
        return Err(RsError::TooManyErrors);
    }

    let mut correction = Correction::default();
    for &(i, mag) in &s.fixes {
        if mag == 0 {
            continue; // an erased position that already held the right symbol
        }
        if s.seen[i] {
            correction.erasures += 1;
        } else {
            correction.errors += 1;
        }
        correction.positions.push(i);
    }
    correction.positions.sort_unstable();
    Ok(correction)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_gf::Field;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn code(data: usize, parity: usize) -> ReedSolomon {
        ReedSolomon::new(Field::gf256(), data, parity).expect("valid params")
    }

    fn sample_data(rng: &mut StdRng, len: usize, order: u16) -> Vec<u16> {
        (0..len).map(|_| rng.gen_range(0..order)).collect()
    }

    #[test]
    fn clean_codeword_decodes_to_no_corrections() {
        let rs = code(20, 10);
        let mut cw = rs.encode(&(0..20).collect::<Vec<_>>()).unwrap();
        let c = rs.decode(&mut cw, &[]).unwrap();
        assert_eq!(c, Correction::default());
    }

    #[test]
    fn corrects_single_error_at_every_position() {
        let rs = ReedSolomon::new(Field::gf16(), 9, 6).unwrap();
        let data = [0u16, 1, 2, 3, 4, 5, 6, 7, 8];
        let clean = rs.encode(&data).unwrap();
        for pos in 0..rs.codeword_len() {
            for mag in [1u16, 7, 15] {
                let mut cw = clean.clone();
                cw[pos] ^= mag;
                let c = rs.decode(&mut cw, &[]).unwrap_or_else(|e| {
                    panic!("pos={pos} mag={mag}: {e}");
                });
                assert_eq!(cw, clean, "pos={pos} mag={mag}");
                assert_eq!(c.errors, 1);
                assert_eq!(c.positions, vec![pos]);
            }
        }
    }

    #[test]
    fn corrects_up_to_half_parity_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        let rs = code(40, 16);
        for trial in 0..50 {
            let data = sample_data(&mut rng, 40, 256);
            let clean = rs.encode(&data).unwrap();
            let mut cw = clean.clone();
            let nerr = rng.gen_range(1..=8);
            let mut positions: Vec<usize> = (0..rs.codeword_len()).collect();
            for k in 0..nerr {
                let j = rng.gen_range(k..positions.len());
                positions.swap(k, j);
                cw[positions[k]] ^= rng.gen_range(1..256) as u16;
            }
            let c = rs.decode(&mut cw, &[]).unwrap_or_else(|e| {
                panic!("trial={trial} nerr={nerr}: {e}");
            });
            assert_eq!(cw, clean);
            assert_eq!(c.errors, nerr);
        }
    }

    #[test]
    fn corrects_full_parity_worth_of_erasures() {
        let mut rng = StdRng::seed_from_u64(8);
        let rs = code(30, 12);
        let data = sample_data(&mut rng, 30, 256);
        let clean = rs.encode(&data).unwrap();
        let mut cw = clean.clone();
        let erased: Vec<usize> = (0..12).map(|k| k * 3).collect();
        for &pos in &erased {
            cw[pos] = 0; // decoder convention: erased symbols read as 0
        }
        let c = rs.decode(&mut cw, &erased).unwrap();
        assert_eq!(cw, clean);
        assert!(c.erasures <= 12 && c.errors == 0);
    }

    #[test]
    fn corrects_mixed_errors_and_erasures_within_capacity() {
        let mut rng = StdRng::seed_from_u64(9);
        let rs = code(40, 16);
        for _ in 0..30 {
            let data = sample_data(&mut rng, 40, 256);
            let clean = rs.encode(&data).unwrap();
            let mut cw = clean.clone();
            // 2ν + ρ ≤ E: pick ν=5, ρ=6 → 16 ≤ 16.
            let mut positions: Vec<usize> = (0..rs.codeword_len()).collect();
            for k in 0..11 {
                let j = rng.gen_range(k..positions.len());
                positions.swap(k, j);
            }
            let erased: Vec<usize> = positions[..6].to_vec();
            for &p in &erased {
                cw[p] = rng.gen_range(0..256) as u16; // garbage, location known
            }
            for &p in &positions[6..11] {
                cw[p] ^= rng.gen_range(1..256) as u16;
            }
            rs.decode(&mut cw, &erased).unwrap();
            assert_eq!(cw, clean);
        }
    }

    #[test]
    fn beyond_capacity_fails_and_leaves_input_unmodified() {
        let mut rng = StdRng::seed_from_u64(10);
        let rs = code(20, 6);
        let data = sample_data(&mut rng, 20, 256);
        let clean = rs.encode(&data).unwrap();
        let mut failures = 0;
        for trial in 0..40 {
            let mut cw = clean.clone();
            // 7 errors > E/2 = 3: must not be silently "corrected" back to clean.
            let mut positions: Vec<usize> = (0..rs.codeword_len()).collect();
            for k in 0..7 {
                let j = rng.gen_range(k..positions.len());
                positions.swap(k, j);
                cw[positions[k]] ^= rng.gen_range(1..256) as u16;
            }
            let snapshot = cw.clone();
            match rs.decode(&mut cw, &[]) {
                Err(RsError::TooManyErrors) => {
                    failures += 1;
                    assert_eq!(cw, snapshot, "trial {trial}: failed decode must not mutate");
                }
                Ok(_) => {
                    // Miscorrection to a *different* valid codeword is allowed
                    // (bounded-distance decoding), but never back to clean.
                    assert!(rs.is_codeword(&cw));
                    assert_ne!(cw, clean, "trial {trial}");
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(
            failures > 25,
            "most over-capacity patterns should be detected, got {failures}/40"
        );
    }

    #[test]
    fn too_many_erasures_is_reported() {
        let rs = code(20, 6);
        let mut cw = rs.encode(&[0; 20]).unwrap();
        let erased: Vec<usize> = (0..7).collect();
        assert!(matches!(
            rs.decode(&mut cw, &erased),
            Err(RsError::TooManyErasures {
                erasures: 7,
                capacity: 6
            })
        ));
    }

    #[test]
    fn duplicate_or_out_of_range_erasures_rejected() {
        let rs = code(20, 6);
        let mut cw = rs.encode(&[0; 20]).unwrap();
        assert!(matches!(
            rs.decode(&mut cw, &[3, 3]),
            Err(RsError::BadErasure(3))
        ));
        assert!(matches!(
            rs.decode(&mut cw, &[26]),
            Err(RsError::BadErasure(26))
        ));
    }

    #[test]
    fn erasure_that_held_correct_symbol_is_not_counted() {
        let rs = code(20, 6);
        let clean = rs.encode(&(0..20).collect::<Vec<_>>()).unwrap();
        let mut cw = clean.clone();
        cw[2] ^= 9; // one real error
                    // Position 5 declared erased but its symbol is actually fine.
        let c = rs.decode(&mut cw, &[5]).unwrap();
        assert_eq!(cw, clean);
        assert_eq!(c.errors, 1);
        assert_eq!(c.erasures, 0);
        assert_eq!(c.positions, vec![2]);
    }

    #[test]
    fn works_over_gf65536() {
        let mut rng = StdRng::seed_from_u64(11);
        let rs = ReedSolomon::new(Field::gf65536(), 50, 14).unwrap();
        let data = sample_data(&mut rng, 50, u16::MAX);
        let clean = rs.encode(&data).unwrap();
        let mut cw = clean.clone();
        for pos in [0usize, 13, 44, 63] {
            cw[pos] ^= 0xBEEF;
        }
        for pos in [20usize, 30, 40] {
            cw[pos] = 0;
        }
        let c = rs.decode(&mut cw, &[20, 30, 40]).unwrap();
        assert_eq!(cw, clean);
        assert_eq!(c.errors, 4);
    }

    #[test]
    fn scratch_reuse_across_codes_and_failures_matches_fresh() {
        // One scratch reused across different geometries, fields, and a
        // failing decode in between; every result must equal a fresh-
        // scratch decode.
        let mut rng = StdRng::seed_from_u64(12);
        let mut shared = RsScratch::new();
        let codes = [
            ReedSolomon::new(Field::gf16(), 9, 6).unwrap(),
            ReedSolomon::new(Field::gf256(), 40, 16).unwrap(),
            ReedSolomon::new(Field::gf65536(), 30, 10).unwrap(),
        ];
        for trial in 0..12 {
            let rs = &codes[trial % codes.len()];
            // Largest non-zero symbol (caps at u16::MAX for GF(65536)).
            let max_sym = (rs.field().order() - 1).min(usize::from(u16::MAX)) as u16;
            let data = sample_data(&mut rng, rs.data_len(), max_sym);
            let clean = rs.encode(&data).unwrap();
            let mut cw = clean.clone();
            for k in 0..rs.parity_len() / 2 {
                cw[(k * 5) % rs.codeword_len()] ^= 1 + (trial as u16 % max_sym);
            }
            let mut fresh_cw = cw.clone();
            let fresh = rs.decode_with_scratch(&mut fresh_cw, &[], &mut RsScratch::new());
            let shared_res = rs.decode_with_scratch(&mut cw, &[], &mut shared);
            assert_eq!(fresh, shared_res, "trial {trial}");
            assert_eq!(fresh_cw, cw, "trial {trial}");
            // Poison the shared scratch with a hopeless decode.
            let mut garbage: Vec<u16> = (0..rs.codeword_len())
                .map(|_| rng.gen_range(0..=max_sym))
                .collect();
            let _ = rs.decode_with_scratch(&mut garbage, &[0, 2], &mut shared);
        }
    }
}
