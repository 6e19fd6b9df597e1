//! The packed encoder writes exactly the pool bytes of the per-base one:
//! `encode_chunked_packed` must equal every strand of `encode_chunked`
//! packed with `pack_bases_into`, across every layout and transcoder,
//! uniform and planned protection and no parity at all, with and without
//! primers, payloads of 0, 1, `capacity − 1` and `capacity` bytes plus
//! multi-batch ones, at `DNA_SKEW_THREADS` 1, 2 and 8.
//!
//! This file holds one test on purpose: it sets `DNA_SKEW_THREADS`, which
//! every fan-out in the process reads.

use dna_storage::{CodecParams, Layout, Pipeline, ProtectionPlan};
use dna_strand::{bits, TranscoderSpec};

/// The per-base path: `encode_chunked`, then every strand packed in
/// unit-major, column-major order.
fn per_base(pipeline: &Pipeline, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    for unit in pipeline.encode_chunked(payload).unwrap() {
        for strand in unit.strands() {
            let mut packed = vec![0u8; bits::packed_base_len(strand.len())];
            bits::pack_bases_into(strand.as_slice(), &mut packed);
            out.extend_from_slice(&packed);
        }
    }
    out
}

/// The packed path, checking that every batch holds whole units.
fn packed(pipeline: &Pipeline, payload: &[u8]) -> Vec<u8> {
    let unit_len = pipeline.packed_unit_len();
    let mut out = Vec::new();
    pipeline
        .encode_chunked_packed(payload, |batch| {
            assert!(!batch.is_empty() && batch.len() % unit_len == 0);
            out.extend_from_slice(batch);
            Ok(())
        })
        .unwrap();
    assert_eq!(
        out.len(),
        pipeline.chunked_units(payload.len()) * unit_len,
        "unit count announced up front"
    );
    out
}

/// Every pipeline of the grid for one geometry.
fn pipelines(base: &CodecParams, planned: &[usize]) -> Vec<(String, Pipeline)> {
    let layouts = [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
        Layout::DnaMapper,
    ];
    let mut out = Vec::new();
    for transcoder in TranscoderSpec::ALL {
        for primer_len in [0, 12] {
            let params = base
                .clone()
                .with_transcoder(transcoder)
                .with_primer_len(primer_len);
            for layout in &layouts {
                let build = |plan: Option<ProtectionPlan>| {
                    let builder = Pipeline::builder()
                        .params(params.clone())
                        .layout(layout.clone());
                    match plan {
                        Some(plan) => builder.protection(plan),
                        None => builder,
                    }
                    .build()
                    .unwrap()
                };
                let tag = format!("{transcoder} primers:{primer_len} {}", layout.name());
                out.push((format!("{tag} uniform"), build(None)));
                if !planned.is_empty() && layout.supports_unequal_protection() {
                    let plan = ProtectionPlan::from_parities(planned.to_vec()).unwrap();
                    out.push((format!("{tag} planned"), build(Some(plan))));
                }
            }
        }
    }
    out
}

#[test]
fn packed_output_equals_encode_unit_then_pack() {
    // GF(16): 6 rows of 8 + 4 columns, room for planned rows of up to 7
    // parity. GF(256): 5 rows of 9 + 3 columns. Both again without parity.
    let gf16 = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4).unwrap();
    let gf256 = CodecParams::new(dna_gf::Field::gf256(), 5, 9, 3, 8).unwrap();
    let mut grid = pipelines(&gf16, &[1, 2, 2, 4, 7, 0]);
    grid.extend(pipelines(&gf256, &[3, 1, 2, 5, 4]));
    for params in [
        CodecParams::new(dna_gf::Field::gf16(), 6, 12, 0, 4).unwrap(),
        CodecParams::new(dna_gf::Field::gf256(), 5, 12, 0, 8).unwrap(),
    ] {
        let none: Vec<_> = pipelines(&params, &[])
            .into_iter()
            .map(|(tag, p)| (format!("{tag} parity:0"), p))
            .collect();
        grid.extend(none);
    }
    let mut checked = 0usize;
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        let batch = dna_parallel::max_threads() * 4;
        for (tag, pipeline) in &grid {
            let cap = pipeline.payload_capacity();
            // Multi-unit payloads span one batch boundary and then several.
            for len in [0, 1, cap - 1, cap, cap + 1, (batch + 1) * cap + cap / 2] {
                let payload: Vec<u8> = (0..len)
                    .map(|i| (i as u32).wrapping_mul(0x9E37_79B9).rotate_left(7) as u8)
                    .collect();
                assert_eq!(
                    packed(pipeline, &payload),
                    per_base(pipeline, &payload),
                    "{tag}, {len} bytes, DNA_SKEW_THREADS={threads}"
                );
                checked += 1;
            }
        }
    }
    std::env::remove_var("DNA_SKEW_THREADS");
    assert!(checked > 500, "grid too small: {checked}");
}
