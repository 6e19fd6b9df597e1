//! Integration: the builder API, the batch unit codec, and batch
//! sequencing, through the public facade.

use dna_skew::prelude::*;
use dna_skew::storage::StorageError;

fn tiny(layout: Layout) -> Pipeline {
    Pipeline::builder()
        .params(CodecParams::tiny().unwrap())
        .layout(layout)
        .build()
        .unwrap()
}

fn batch_payloads(pipeline: &Pipeline, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|u| {
            (0..pipeline.payload_capacity())
                .map(|i| (i * 31 + u * 97 + 7) as u8)
                .collect()
        })
        .collect()
}

#[test]
fn builder_validation_errors_surface_through_the_facade() {
    // Bad RS parameters: 25 columns exceed GF(16)'s 15-symbol codewords.
    assert!(matches!(
        CodecParams::new(dna_skew::gf::Field::gf16(), 6, 20, 5, 6),
        Err(StorageError::InvalidParams(_))
    ));
    // Out-of-range excluded row.
    assert!(matches!(
        Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .layout(Layout::Gini {
                excluded_rows: vec![99]
            })
            .build(),
        Err(StorageError::InvalidParams(_))
    ));
    // Zero-length explicit primers.
    let empty = dna_skew::strand::Primer::from_strand(DnaString::new());
    assert!(matches!(
        tiny(Layout::Baseline).with_primers(empty.clone(), empty),
        Err(StorageError::InvalidParams(_))
    ));
    // No geometry at all.
    assert!(matches!(
        Pipeline::builder().build(),
        Err(StorageError::InvalidParams(_))
    ));
}

#[test]
fn batch_round_trip_matches_per_unit_for_all_layouts() {
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
        Layout::DnaMapper,
    ] {
        let pipeline = tiny(layout.clone());
        let payloads = batch_payloads(&pipeline, 6);

        // Encode: the batch must be byte-identical to per-unit calls.
        let batch_units = pipeline.encode_batch(&payloads).unwrap();
        for (u, payload) in payloads.iter().enumerate() {
            assert_eq!(
                batch_units[u],
                pipeline.encode_unit(payload).unwrap(),
                "layout {layout:?} unit {u}"
            );
        }

        // Sequence every unit, then decode as a batch and per unit.
        let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(8));
        let pools = pipeline.sequence_batch(&sequencer, &batch_units, 42);
        assert_eq!(pools.len(), batch_units.len());
        let per_unit_clusters: Vec<Vec<Cluster>> =
            pools.iter().map(|p| p.clusters().to_vec()).collect();
        let decoded_batch = pipeline.decode_batch(&per_unit_clusters).unwrap();
        for (u, (decoded, report)) in decoded_batch.iter().enumerate() {
            let (serial_decoded, serial_report) =
                pipeline.decode_unit(&per_unit_clusters[u]).unwrap();
            assert_eq!(decoded, &serial_decoded, "layout {layout:?} unit {u}");
            assert_eq!(report, &serial_report, "layout {layout:?} unit {u}");
            assert_eq!(decoded, &payloads[u], "layout {layout:?} unit {u}");
            assert!(report.is_error_free(), "layout {layout:?} unit {u}");
        }
    }
}

#[test]
fn batch_results_are_identical_at_any_thread_count() {
    // parallel_map_with slices the same work across explicit thread
    // budgets; the batch API is built on the same primitive.
    let pipeline = tiny(Layout::Gini {
        excluded_rows: vec![],
    });
    let payloads = batch_payloads(&pipeline, 9);
    let reference: Vec<_> = payloads
        .iter()
        .map(|p| pipeline.encode_unit(p).unwrap())
        .collect();
    for threads in [1usize, 2, 3, 8] {
        let got = dna_skew::parallel::parallel_map_with(payloads.len(), threads, |u| {
            pipeline.encode_unit(&payloads[u]).unwrap()
        });
        assert_eq!(got, reference, "threads = {threads}");
    }
}

#[test]
fn batch_sequencing_is_deterministic_and_per_unit_independent() {
    let pipeline = tiny(Layout::Baseline);
    let payloads = batch_payloads(&pipeline, 4);
    let units = pipeline.encode_batch(&payloads).unwrap();
    let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.05), CoverageModel::Fixed(5));
    let a = pipeline.sequence_batch(&sequencer, &units, 7);
    let b = pipeline.sequence_batch(&sequencer, &units, 7);
    let c = pipeline.sequence_batch(&sequencer, &units, 8);
    for u in 0..units.len() {
        assert_eq!(a[u].clusters(), b[u].clusters(), "unit {u}");
        assert_ne!(a[u].clusters(), c[u].clusters(), "unit {u}");
    }
    // Unit 0's single-unit path matches its batch realization.
    let solo = SimulatedSequencer::new(ErrorModel::uniform(0.05), CoverageModel::Fixed(5))
        .sequence_unit(0, units[0].strands(), 7);
    assert_eq!(solo.clusters(), a[0].clusters());
}

#[test]
fn forced_erasures_apply_per_decode_call() {
    // Shorthand decodes run with the default options (no forced
    // erasures); forced erasures go to `Pipeline::decode` per call.
    let pipeline = Pipeline::builder()
        .params(CodecParams::tiny().unwrap())
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..30).map(|i| i * 3).collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(3))
        .sequence_unit(0, unit.strands(), 5);
    let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
    assert_eq!(decoded[..30], payload[..]);
    assert!(report.is_error_free());
    assert_eq!(report.lost_columns, 0, "no erasures by default");

    let forced = RetrieveOptions {
        forced_erasures: vec![10, 11, 12],
        ..RetrieveOptions::default()
    };
    let (decoded, report) = pipeline
        .decode(&[UnitReads::Clusters(pool.clusters())], &forced, None)
        .unwrap()
        .remove(0);
    assert_eq!(decoded[..30], payload[..]);
    assert!(report.is_error_free());
    assert_eq!(report.lost_columns, 3, "forced erasures must apply");
}
