//! Kernel-identity properties: the SSSE3 slice kernels must be
//! byte-identical to the scalar loops, and the blocked multi-root Horner
//! kernel to one per-root Horner pass — over random inputs, both fields
//! (byte-wide GF(256) and wide GF(65536)), empty slices,
//! non-multiple-of-16 lengths, and the all-zeros / all-0xFF edges.

use dna_gf::dispatch::Kernel;
use dna_gf::{horner_eval_block, Field, MulTable};
use proptest::prelude::*;

/// A field, a constant in it, and a random element vector whose length
/// sweeps past the 16-lane SIMD boundary (0..=67 covers empty, sub-lane,
/// exact-multiple, and ragged-tail lengths).
fn field_const_elems() -> impl Strategy<Value = (Field, u16, Vec<u16>)> {
    (0u8..2).prop_flat_map(|wide| {
        let f = if wide == 0 {
            Field::gf256()
        } else {
            Field::gf65536()
        };
        let max = (f.order() - 1) as u16;
        let c = 0..=max;
        let xs = proptest::collection::vec(0..=max, 0..=67);
        (Just(f), c, xs)
    })
}

/// Edge-case element vectors: all-zeros and all-0xFF at awkward lengths.
fn edge_vectors() -> impl Strategy<Value = Vec<u16>> {
    (0usize..=40, 0u8..2).prop_map(|(len, which)| vec![if which == 0 { 0u16 } else { 0xFF }; len])
}

proptest! {
    #[test]
    fn mul_slice_identical_across_kernels((f, c, xs) in field_const_elems()) {
        let t = f.mul_table(c);
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        t.mul_slice_in(Kernel::Scalar, &mut scalar);
        t.mul_slice_in(Kernel::Ssse3, &mut simd);
        prop_assert_eq!(&scalar, &simd);
        // The per-call-constant Field form must agree with the table form.
        let mut field_form = xs.clone();
        f.mul_slice(&mut field_form, c);
        prop_assert_eq!(&scalar, &field_form);
        for (&y, &x) in scalar.iter().zip(&xs) {
            prop_assert_eq!(y, f.mul(c, x));
        }
    }

    #[test]
    fn mul_add_slice_identical_across_kernels((f, c, xs) in field_const_elems()) {
        let t = f.mul_table(c);
        let acc0: Vec<u16> = xs.iter().rev().copied().collect();
        let (mut scalar, mut simd, mut field_form) = (acc0.clone(), acc0.clone(), acc0.clone());
        t.mul_add_slice_in(Kernel::Scalar, &mut scalar, &xs);
        t.mul_add_slice_in(Kernel::Ssse3, &mut simd, &xs);
        f.mul_add_slice(&mut field_form, &xs, c);
        prop_assert_eq!(&scalar, &simd);
        prop_assert_eq!(&scalar, &field_form);
        for ((&y, &a), &x) in scalar.iter().zip(&acc0).zip(&xs) {
            prop_assert_eq!(y, a ^ f.mul(c, x));
        }
    }

    #[test]
    fn blocked_syndromes_identical_to_per_root(
        (f, _, word) in field_const_elems(),
        n_roots in 0usize..=19,
    ) {
        let tables: Vec<MulTable> = (1..=n_roots as i64)
            .map(|j| f.mul_table(f.alpha_pow(j)))
            .collect();
        let mut blocked = Vec::new();
        horner_eval_block(&tables, &word, &mut blocked);
        let per_root: Vec<u16> = tables.iter().map(|t| t.horner_eval(&word)).collect();
        prop_assert_eq!(&blocked, &per_root);
    }

    #[test]
    fn edge_vectors_identical_across_kernels(xs in edge_vectors(), c in 0u16..=255) {
        let f = Field::gf256();
        let t = f.mul_table(c);
        let mut scalar = xs.clone();
        let mut simd = xs.clone();
        t.mul_slice_in(Kernel::Scalar, &mut scalar);
        t.mul_slice_in(Kernel::Ssse3, &mut simd);
        prop_assert_eq!(&scalar, &simd);
        let mut acc_s = vec![0u16; xs.len()];
        let mut acc_v = vec![0u16; xs.len()];
        t.mul_add_slice_in(Kernel::Scalar, &mut acc_s, &xs);
        t.mul_add_slice_in(Kernel::Ssse3, &mut acc_v, &xs);
        prop_assert_eq!(&acc_s, &acc_v);
    }
}
