//! Property tests for the pluggable byte→base transcoders: every
//! [`TranscoderSpec`] must round-trip encode→decode exactly across
//! random geometries (field widths, row counts) and values, and the
//! trellis transcoder's payloads must satisfy the synthesis constraints
//! primers are held to. These run under the CI `DNA_SKEW_THREADS`
//! matrix like every other test.

use dna_strand::constraints::{self, ConstraintSet};
use dna_strand::{DnaString, PayloadGeometry, TranscoderSpec};
use proptest::prelude::*;

/// Valid geometries: even index widths 2..=32, even symbol widths
/// 2..=16, 1..=40 rows.
fn geometry() -> impl Strategy<Value = PayloadGeometry> {
    (1u8..=16, 1usize..=40, 1u8..=8).prop_map(|(ib, rows, sb)| PayloadGeometry {
        index_bits: ib * 2,
        rows,
        symbol_bits: sb * 2,
    })
}

/// A geometry plus an in-range index value and per-row symbol values.
fn payload_case() -> impl Strategy<Value = (PayloadGeometry, u32, Vec<u16>)> {
    geometry().prop_flat_map(|g| {
        let index_max = if g.index_bits >= 32 {
            u32::MAX
        } else {
            (1u32 << g.index_bits) - 1
        };
        let symbol_max = if g.symbol_bits >= 16 {
            u16::MAX
        } else {
            (1u16 << g.symbol_bits) - 1
        };
        (
            Just(g),
            0..=index_max,
            proptest::collection::vec(0..=symbol_max, g.rows),
        )
    })
}

proptest! {
    /// Encode→decode identity for every shipped transcoder, any
    /// geometry, any values: the index and every row symbol come back
    /// exactly, and the payload length matches the fixed-rate promise.
    #[test]
    fn every_transcoder_round_trips((geom, index, symbols) in payload_case()) {
        for spec in TranscoderSpec::ALL {
            let mut strand = DnaString::new();
            spec.encode_payload_into(index, &symbols, geom, &mut strand).unwrap();
            prop_assert_eq!(
                strand.len(),
                spec.payload_bases(geom),
                "{:?} is not fixed-rate",
                spec
            );
            prop_assert_eq!(
                spec.decode_index(strand.as_slice(), geom).unwrap(),
                index,
                "{:?} index",
                spec
            );
            for (r, &s) in symbols.iter().enumerate() {
                prop_assert_eq!(
                    spec.decode_symbol(strand.as_slice(), r, geom).unwrap(),
                    s,
                    "{:?} row {}",
                    spec,
                    r
                );
            }
        }
    }

    /// Trellis payloads at the laptop geometry satisfy the full primer
    /// constraint set — homopolymer runs by construction (each trit
    /// advances the base, so no base repeats), GC via whitening plus the
    /// periodic balance bases — for arbitrary data.
    #[test]
    fn trellis_payloads_satisfy_primer_constraints(
        index in 0u32..=255,
        symbols in proptest::collection::vec(0u16..=255, 30)
    ) {
        let geom = PayloadGeometry { index_bits: 8, rows: 30, symbol_bits: 8 };
        let mut strand = DnaString::new();
        TranscoderSpec::Trellis.encode_payload_into(index, &symbols, geom, &mut strand).unwrap();
        let rules = ConstraintSet::primer_default();
        prop_assert!(
            rules.check(&strand),
            "gc={} run={}",
            constraints::gc_content(&strand),
            constraints::max_homopolymer_run(&strand)
        );
        // The run bound is structural, not statistical: it holds with
        // margin (run ≤ 1 inside the payload).
        prop_assert!(constraints::max_homopolymer_run(&strand) <= 1);
    }
}
