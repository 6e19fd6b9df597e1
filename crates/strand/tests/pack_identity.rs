//! Kernel-identity properties for the 2-bit base pack/unpack kernels:
//! the word-at-a-time kernels must be byte-identical to the
//! one-base-at-a-time oracles below over random strands, including empty
//! inputs, lengths on and off the 32-base word boundary, and uniform
//! all-A / all-T strands.

use dna_strand::bits::{
    pack_bases, pack_bases_into, packed_base_len, unpack_bases, unpack_bases_into,
};
use dna_strand::Base;
use proptest::prelude::*;

/// Oracle: base `i` occupies bits `2·(i mod 4)` of byte `i / 4`, shifted
/// in one base at a time.
fn pack_oracle(bases: &[Base]) -> Vec<u8> {
    let mut out = vec![0u8; packed_base_len(bases.len())];
    for (i, b) in bases.iter().enumerate() {
        out[i / 4] |= b.to_bits() << ((i % 4) * 2);
    }
    out
}

/// Oracle: the inverse of [`pack_oracle`], one base at a time.
fn unpack_oracle(packed: &[u8], n_bases: usize) -> Vec<Base> {
    (0..n_bases)
        .map(|i| Base::from_bits(packed[i / 4] >> ((i % 4) * 2)))
        .collect()
}

fn bases(max_len: usize) -> impl Strategy<Value = Vec<Base>> {
    proptest::collection::vec((0u8..4).prop_map(Base::from_bits), 0..=max_len)
}

proptest! {
    #[test]
    fn pack_matches_the_oracle(bases in bases(200)) {
        let oracle = pack_oracle(&bases);
        let mut word = vec![0xFFu8; packed_base_len(bases.len())];
        pack_bases_into(&bases, &mut word);
        prop_assert_eq!(&oracle, &word);
        prop_assert_eq!(&pack_bases(&bases), &oracle);
    }

    #[test]
    fn unpack_matches_the_oracle_and_round_trips(bases in bases(200)) {
        let packed = pack_bases(&bases);
        let oracle = unpack_oracle(&packed, bases.len());
        let mut word = vec![Base::G; 3];
        unpack_bases_into(&packed, bases.len(), &mut word);
        prop_assert_eq!(&oracle, &word);
        prop_assert_eq!(&oracle, &bases);
        prop_assert_eq!(unpack_bases(&packed, bases.len()), bases);
    }

    #[test]
    fn uniform_strands_round_trip(len in 0usize..150, bits in 0u8..4) {
        let bases = vec![Base::from_bits(bits); len];
        let mut word = vec![0u8; packed_base_len(len)];
        pack_bases_into(&bases, &mut word);
        prop_assert_eq!(&pack_oracle(&bases), &word);
        prop_assert_eq!(unpack_oracle(&word, len), bases.clone());
        prop_assert_eq!(unpack_bases(&word, len), bases);
    }
}
