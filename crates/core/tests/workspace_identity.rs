//! Byte-identity of every execution path through `Pipeline::decode`: the
//! same bytes, reports, and corrections must come out of a reused (even
//! poisoned) caller workspace, the per-thread workspace one unit at a
//! time, the parallel batch at any thread count, and the four shorthands
//! (`decode_unit`, `decode_batch`, `decode_pool`, `decode_pool_batch`) —
//! for labeled clusters and unlabeled pools alike, over every supported
//! field, with default options and with forced erasures.

use dna_channel::{
    AnonymousPool, Cluster, CoverageModel, ErrorModel, ReadPool, SimulatedSequencer,
};
use dna_gf::Field;
use dna_storage::{
    CodecParams, DecodeReport, DecodeWorkspace, Layout, Pipeline, RetrieveOptions, UnitReads,
};

type Decoded = Vec<(Vec<u8>, DecodeReport)>;

fn pipelines() -> Vec<(&'static str, Pipeline, f64, usize)> {
    let build = |params: CodecParams, layout: Layout| {
        Pipeline::builder()
            .params(params.with_primer_len(12))
            .layout(layout)
            .build()
            .unwrap()
    };
    vec![
        (
            "tiny-gf16",
            build(CodecParams::tiny().unwrap(), Layout::Baseline),
            0.01,
            4,
        ),
        (
            "gf256-gini",
            build(
                CodecParams::new(Field::gf256(), 8, 40, 10, 8).unwrap(),
                Layout::Gini {
                    excluded_rows: vec![],
                },
            ),
            0.02,
            8,
        ),
        (
            "gf65536-baseline",
            build(
                CodecParams::new(Field::gf65536(), 2, 30, 10, 16).unwrap(),
                Layout::Baseline,
            ),
            0.005,
            6,
        ),
    ]
}

/// Asserts that the one-unit-at-a-time reference decodes `payloads`
/// exactly under `opts`, that every explicit execution path over `units`
/// reproduces it, and that each shorthand result (which runs with the
/// default options) does too.
fn check_paths(
    name: &str,
    pipeline: &Pipeline,
    units: &[UnitReads<'_>],
    payloads: &[Vec<u8>],
    opts: &RetrieveOptions,
    shorthands: &[(&str, Decoded)],
) {
    // Reference: one unit per call on the per-thread workspace.
    let reference: Decoded = units
        .iter()
        .map(|unit| {
            pipeline
                .decode(std::slice::from_ref(unit), opts, None)
                .unwrap()
                .remove(0)
        })
        .collect();
    for (u, (decoded, _)) in reference.iter().enumerate() {
        assert_eq!(decoded, &payloads[u], "{name}: unit {u} decodes exactly");
    }

    // One explicit workspace reused across every unit, poisoned between
    // units by a decode whose codewords all fail.
    let mut ws = DecodeWorkspace::new();
    let hopeless = [UnitReads::Clusters(&[])];
    for (u, unit) in units.iter().enumerate() {
        let got = pipeline
            .decode(std::slice::from_ref(unit), opts, Some(&mut ws))
            .unwrap();
        assert_eq!(
            got[0], reference[u],
            "{name}: unit {u} via reused workspace"
        );
        let poisoned = pipeline.decode(&hopeless, opts, Some(&mut ws)).unwrap();
        assert!(
            poisoned[0].1.failed_codewords() > 0,
            "{name}: poison decode should fail codewords"
        );
    }
    // Every unit serially on the caller's workspace in one call.
    let got = pipeline.decode(units, opts, Some(&mut ws)).unwrap();
    assert_eq!(got, reference, "{name}: serial batch on one workspace");

    // The parallel path at several worker counts (workers only change how
    // units are sliced — and how many workspaces exist).
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        let got = pipeline.decode(units, opts, None).unwrap();
        std::env::remove_var("DNA_SKEW_THREADS");
        assert_eq!(
            got, reference,
            "{name}: parallel batch at {threads} threads"
        );
    }

    for (shorthand, got) in shorthands {
        assert_eq!(got, &reference, "{name}: {shorthand}");
    }
}

#[test]
fn every_decode_path_is_byte_identical() {
    let forced = RetrieveOptions {
        forced_erasures: vec![1, 3],
        ..RetrieveOptions::default()
    };
    for (name, pipeline, p, coverage) in pipelines() {
        let payloads: Vec<Vec<u8>> = (0..5)
            .map(|u| {
                (0..pipeline.payload_capacity())
                    .map(|i| ((i * 31 + u * 7 + 3) % 256) as u8)
                    .collect()
            })
            .collect();
        let units = pipeline.encode_batch(&payloads).unwrap();
        let pools: Vec<ReadPool> = units
            .iter()
            .enumerate()
            .map(|(u, unit)| {
                SimulatedSequencer::new(ErrorModel::uniform(p), CoverageModel::Fixed(coverage))
                    .sequence_unit(0, unit.strands(), 41 + u as u64)
            })
            .collect();

        let per_unit: Vec<Vec<Cluster>> = pools.iter().map(|p| p.clusters().to_vec()).collect();
        let labeled: Vec<UnitReads> = per_unit.iter().map(|c| UnitReads::Clusters(c)).collect();
        let shorthands = [
            (
                "decode_unit",
                per_unit
                    .iter()
                    .map(|c| pipeline.decode_unit(c).unwrap())
                    .collect(),
            ),
            ("decode_batch", pipeline.decode_batch(&per_unit).unwrap()),
        ];
        check_paths(
            &format!("{name}/clusters"),
            &pipeline,
            &labeled,
            &payloads,
            &RetrieveOptions::default(),
            &shorthands,
        );
        check_paths(
            &format!("{name}/clusters/forced"),
            &pipeline,
            &labeled,
            &payloads,
            &forced,
            &[],
        );

        let anonymous: Vec<AnonymousPool> = pools
            .iter()
            .enumerate()
            .map(|(u, pool)| pool.anonymize(90 + u as u64))
            .collect();
        let unlabeled: Vec<UnitReads> = anonymous.iter().map(UnitReads::Pool).collect();
        let shorthands = [
            (
                "decode_pool",
                anonymous
                    .iter()
                    .map(|a| pipeline.decode_pool(a).unwrap())
                    .collect(),
            ),
            (
                "decode_pool_batch",
                pipeline.decode_pool_batch(&anonymous).unwrap(),
            ),
        ];
        check_paths(
            &format!("{name}/pool"),
            &pipeline,
            &unlabeled,
            &payloads,
            &RetrieveOptions::default(),
            &shorthands,
        );
        check_paths(
            &format!("{name}/pool/forced"),
            &pipeline,
            &unlabeled,
            &payloads,
            &forced,
            &[],
        );
    }
}
