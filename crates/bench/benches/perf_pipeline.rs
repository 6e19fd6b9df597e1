//! Criterion benchmarks for the end-to-end pipeline at laptop scale.

use criterion::{criterion_group, criterion_main, Criterion};
use dna_channel::{CoverageModel, ErrorModel, SequencingBackend, SimulatedSequencer};
use dna_storage::{CodecParams, Layout, UnitReads};
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let params = CodecParams::laptop().expect("params");
    let payload: Vec<u8> = (0..params.payload_bytes())
        .map(|i| (i % 256) as u8)
        .collect();
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
        Layout::DnaMapper,
    ] {
        let name = layout.name();
        let pipeline = dna_bench::laptop_pipeline(layout.clone());
        c.bench_function(&format!("encode_unit_{name}"), |b| {
            b.iter(|| black_box(pipeline.encode_unit(&payload).unwrap()))
        });
    }
    let pipeline = dna_bench::laptop_pipeline(Layout::Gini {
        excluded_rows: vec![],
    });
    let unit = pipeline.encode_unit(&payload).expect("encode");
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.03), CoverageModel::Fixed(10))
        .sequence_unit(0, unit.strands(), 5);
    let clusters = pool.clusters().to_vec();
    c.bench_function("decode_unit_cov10_p3pct", |b| {
        b.iter(|| black_box(pipeline.decode_unit(&clusters).unwrap()))
    });

    // Workspace on/off: a reused workspace (the steady state of every
    // batch worker) versus paying the full buffer warm-up on every unit.
    let opts = pipeline.decode_options().clone();
    let unit_reads = [UnitReads::Clusters(&clusters)];
    let mut ws = dna_storage::DecodeWorkspace::new();
    c.bench_function("decode_unit_warm_workspace", |b| {
        b.iter(|| black_box(pipeline.decode(&unit_reads, &opts, Some(&mut ws)).unwrap()))
    });
    c.bench_function("decode_unit_cold_workspace", |b| {
        b.iter(|| {
            let mut fresh = dna_storage::DecodeWorkspace::new();
            black_box(
                pipeline
                    .decode(&unit_reads, &opts, Some(&mut fresh))
                    .unwrap(),
            )
        })
    });

    // The batch API: 8 units encoded/decoded as one parallel batch.
    let payloads: Vec<Vec<u8>> = (0..8)
        .map(|u| payload.iter().map(|&b| b.wrapping_add(u)).collect())
        .collect();
    c.bench_function("encode_batch_8_units", |b| {
        b.iter(|| black_box(pipeline.encode_batch(&payloads).unwrap()))
    });
    let units = pipeline.encode_batch(&payloads).expect("encode batch");
    let pools = pipeline.sequence_batch(
        &dna_channel::SimulatedSequencer::new(ErrorModel::uniform(0.03), CoverageModel::Fixed(10)),
        &units,
        5,
    );
    let per_unit: Vec<Vec<dna_channel::Cluster>> =
        pools.iter().map(|p| p.clusters().to_vec()).collect();
    c.bench_function("decode_batch_8_units_cov10_p3pct", |b| {
        b.iter(|| black_box(pipeline.decode_batch(&per_unit).unwrap()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_pipeline
}
criterion_main!(benches);
