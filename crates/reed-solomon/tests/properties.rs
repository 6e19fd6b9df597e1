//! Property-based tests: Reed–Solomon round-trips under every noise pattern
//! within the code's correction capability.

use dna_gf::Field;
use dna_reed_solomon::{ReedSolomon, RsError, RsScratch};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Data length of [`wide_code`].
const WIDE_DATA_LEN: usize = 50;

/// One GF(65536) code shared by every property case: its 128 KiB root
/// tables would dominate the run time if each case built them.
fn wide_code() -> &'static ReedSolomon {
    static CODE: OnceLock<ReedSolomon> = OnceLock::new();
    CODE.get_or_init(|| ReedSolomon::new(Field::gf65536(), WIDE_DATA_LEN, 14).unwrap())
}

/// Geometry + payload + a noise plan that respects `2ν + ρ ≤ E`.
#[derive(Debug, Clone)]
struct Scenario {
    data_len: usize,
    parity_len: usize,
    data: Vec<u16>,
    /// (position, xor-mask≠0) pairs for in-place errors, distinct positions.
    errors: Vec<(usize, u16)>,
    /// Distinct erased positions (disjoint from error positions).
    erasures: Vec<usize>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (2usize..40, 2usize..24)
        .prop_flat_map(|(data_len, parity_len)| {
            let cw_len = data_len + parity_len;
            let data = proptest::collection::vec(0u16..256, data_len);
            // Choose ρ ≤ E, then ν ≤ (E−ρ)/2.
            let plan = (0..=parity_len).prop_flat_map(move |rho| {
                let max_nu = (parity_len - rho) / 2;
                (Just(rho), 0..=max_nu)
            });
            (Just(data_len), Just(parity_len), data, plan, Just(cw_len))
        })
        .prop_flat_map(|(data_len, parity_len, data, (rho, nu), cw_len)| {
            // Pick rho+nu distinct positions via a shuffled index vector.
            let positions = Just((0..cw_len).collect::<Vec<usize>>()).prop_shuffle();
            let masks = proptest::collection::vec(1u16..256, nu);
            (
                Just(data_len),
                Just(parity_len),
                Just(data),
                positions,
                masks,
                Just(rho),
            )
        })
        .prop_map(|(data_len, parity_len, data, positions, masks, rho)| {
            let erasures = positions[..rho].to_vec();
            let errors = positions[rho..rho + masks.len()]
                .iter()
                .copied()
                .zip(masks)
                .collect();
            Scenario {
                data_len,
                parity_len,
                data,
                errors,
                erasures,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decodes_any_pattern_within_capacity(s in scenario()) {
        let rs = ReedSolomon::new(Field::gf256(), s.data_len, s.parity_len).unwrap();
        let clean = rs.encode(&s.data).unwrap();
        let mut cw = clean.clone();
        for &(pos, mask) in &s.errors {
            cw[pos] ^= mask;
        }
        for &pos in &s.erasures {
            cw[pos] = 0;
        }
        let c = rs.decode(&mut cw, &s.erasures).unwrap();
        prop_assert_eq!(&cw, &clean);
        prop_assert_eq!(c.errors, s.errors.len());
    }

    #[test]
    fn encode_then_check_always_valid(
        data in proptest::collection::vec(0u16..256, 1..60),
        parity in 1usize..30,
    ) {
        prop_assume!(data.len() + parity <= 255);
        let rs = ReedSolomon::new(Field::gf256(), data.len(), parity).unwrap();
        let cw = rs.encode(&data).unwrap();
        prop_assert!(rs.is_codeword(&cw));
        prop_assert_eq!(&cw[..data.len()], &data[..]);
    }

    #[test]
    fn scratch_decode_is_byte_identical_even_after_poisoning(s in scenario()) {
        let rs = ReedSolomon::new(Field::gf256(), s.data_len, s.parity_len).unwrap();
        let clean = rs.encode(&s.data).unwrap();
        let mut noisy = clean.clone();
        for &(pos, mask) in &s.errors {
            noisy[pos] ^= mask;
        }
        for &pos in &s.erasures {
            noisy[pos] = 0;
        }
        // Reference: the plain API (itself scratch-backed per thread).
        let mut reference_cw = noisy.clone();
        let reference = rs.decode(&mut reference_cw, &s.erasures);
        // Candidate: an explicit scratch poisoned by a failed decode of a
        // hopeless word first — no state may leak into the real decode.
        let mut scratch = RsScratch::new();
        let mut hopeless: Vec<u16> = (0..rs.codeword_len() as u16).map(|i| i.wrapping_mul(37) % 251).collect();
        let _ = rs.decode_with_scratch(&mut hopeless, &[0, 2, 4], &mut scratch);
        let mut scratch_cw = noisy.clone();
        let got = rs.decode_with_scratch(&mut scratch_cw, &s.erasures, &mut scratch);
        prop_assert_eq!(reference, got);
        prop_assert_eq!(reference_cw, scratch_cw);
    }

    #[test]
    fn syndromes_equal_poly_eval_and_decide_is_codeword(
        wide in any::<bool>(),
        data_len in 2usize..40,
        parity_len in 2usize..24,
        symbols in proptest::collection::vec(any::<u16>(), WIDE_DATA_LEN),
        noise in proptest::collection::vec((any::<usize>(), any::<u16>()), 0..4),
    ) {
        let narrow;
        let rs = if wide {
            wide_code()
        } else {
            narrow = ReedSolomon::new(Field::gf256(), data_len, parity_len).unwrap();
            &narrow
        };
        let f = rs.field();
        let data: Vec<u16> = symbols[..rs.data_len()]
            .iter()
            .map(|&x| (usize::from(x) % f.order()) as u16)
            .collect();
        let mut received = rs.encode(&data).unwrap();
        for &(pos, mask) in &noise {
            received[pos % rs.codeword_len()] ^= (usize::from(mask) % f.order()) as u16;
        }
        // Reference: r(x) = Σ received[i]·x^(L−1−i) at α^1 … α^E, by the
        // plain polynomial evaluator over ascending coefficients.
        let ascending: Vec<u16> = received.iter().rev().copied().collect();
        let expected: Vec<u16> = (1..=rs.parity_len() as i64)
            .map(|j| dna_gf::poly::eval(f, &ascending, f.alpha_pow(j)))
            .collect();
        let mut syndromes = Vec::new();
        rs.syndromes_into(&received, &mut syndromes);
        prop_assert_eq!(&syndromes, &expected);
        prop_assert_eq!(rs.is_codeword(&received), expected.iter().all(|&s| s == 0));
        if noise.is_empty() {
            prop_assert!(rs.is_codeword(&received));
        }
    }

    #[test]
    fn failed_decode_never_mutates(
        data in proptest::collection::vec(0u16..256, 8..20),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let rs = ReedSolomon::new(Field::gf256(), data.len(), 4).unwrap();
        let clean = rs.encode(&data).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut cw = clean.clone();
        // Far beyond capacity: corrupt half of the codeword.
        let cw_len = cw.len();
        for i in 0..cw_len / 2 {
            cw[i * 2] ^= rng.gen_range(1..256) as u16;
        }
        let snapshot = cw.clone();
        match rs.decode(&mut cw, &[]) {
            Err(RsError::TooManyErrors) => prop_assert_eq!(cw, snapshot),
            Ok(_) => prop_assert!(rs.is_codeword(&cw)), // bounded-distance miscorrect
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e}"))),
        }
    }
}

/// The GF(65536) equivalent of the byte-identity property, with a plain
/// seeded loop so the (expensive) full-scale field and its tables are
/// built once rather than per proptest case.
#[test]
fn gf65536_scratch_decode_is_byte_identical() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let rs = ReedSolomon::new(Field::gf65536(), 50, 14).unwrap();
    let mut rng = StdRng::seed_from_u64(99);
    let mut scratch = RsScratch::new();
    for trial in 0..40 {
        let data: Vec<u16> = (0..50).map(|_| rng.gen_range(0..=u16::MAX)).collect();
        let clean = rs.encode(&data).unwrap();
        let mut noisy = clean.clone();
        // ρ erasures + ν errors with 2ν + ρ up to (and 25% beyond) E.
        let rho = rng.gen_range(0..=8usize);
        let nu = rng.gen_range(0..=4usize);
        let mut positions: Vec<usize> = (0..rs.codeword_len()).collect();
        for k in 0..rho + nu {
            let j = rng.gen_range(k..positions.len());
            positions.swap(k, j);
        }
        let erasures: Vec<usize> = positions[..rho].to_vec();
        for &p in &erasures {
            noisy[p] = rng.gen_range(0..=u16::MAX);
        }
        for &p in &positions[rho..rho + nu] {
            noisy[p] ^= rng.gen_range(1..=u16::MAX);
        }
        let mut reference_cw = noisy.clone();
        let reference = rs.decode(&mut reference_cw, &erasures);
        let mut scratch_cw = noisy.clone();
        let got = rs.decode_with_scratch(&mut scratch_cw, &erasures, &mut scratch);
        assert_eq!(reference, got, "trial {trial}");
        assert_eq!(reference_cw, scratch_cw, "trial {trial}");
        // Poison the shared scratch before the next trial.
        let mut junk: Vec<u16> = (0..rs.codeword_len())
            .map(|_| rng.gen_range(0..=u16::MAX))
            .collect();
        let _ = rs.decode_with_scratch(&mut junk, &[1, 3, 5], &mut scratch);
    }
}
