//! Integration: the builder API, the batch unit codec, and pluggable
//! sequencing backends, through the public facade.

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
        let backend = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(8));
        let pools = pipeline.sequence_batch(&backend, &batch_units, 42);
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
    let backend = SimulatedSequencer::new(ErrorModel::uniform(0.05), CoverageModel::Fixed(5));
    let a = pipeline.sequence_batch(&backend, &units, 7);
    let b = pipeline.sequence_batch(&backend, &units, 7);
    let c = pipeline.sequence_batch(&backend, &units, 8);
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
fn trace_replay_round_trips_a_recorded_batch() {
    let pipeline = tiny(Layout::DnaMapper);
    let payloads = batch_payloads(&pipeline, 3);
    let units = pipeline.encode_batch(&payloads).unwrap();

    // Record pools from the simulator, then replay them through the
    // identical decode path — the real-trace scenario.
    let sim = SimulatedSequencer::new(ErrorModel::ngs(0.005), CoverageModel::Fixed(6));
    let recorded = pipeline.sequence_batch(&sim, &units, 11);
    let replay = TraceReplay::new(recorded.clone());
    assert_eq!(replay.name(), "trace-replay");

    // The replay ignores seeds: any seed yields the recorded reads.
    let replayed = pipeline.sequence_batch(&replay, &units, 0xFEED);
    for (u, pool) in replayed.iter().enumerate() {
        assert_eq!(pool.clusters(), recorded[u].clusters(), "unit {u}");
    }
    let clusters: Vec<Vec<Cluster>> = replayed.iter().map(|p| p.clusters().to_vec()).collect();
    for (u, (decoded, report)) in pipeline.decode_batch(&clusters).unwrap().iter().enumerate() {
        assert_eq!(decoded, &payloads[u], "unit {u}");
        assert!(report.is_error_free(), "unit {u}");
    }
}

#[test]
fn trace_replay_from_labeled_reads_supports_external_dumps() {
    // The wetlab-shaped flow: labeled (cluster, read) pairs from an
    // external source become a replayable pool.
    let pipeline = tiny(Layout::Baseline);
    let payload: Vec<u8> = (0..30).collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(7))
        .sequence_unit(0, unit.strands(), 3);
    let labeled = pool.labeled_reads();

    let replay = TraceReplay::from_labeled_reads(labeled, unit.len());
    let replayed = replay.sequence_unit(0, unit.strands(), 0);
    let (decoded, report) = pipeline.decode_unit(replayed.clusters()).unwrap();
    assert_eq!(&decoded[..30], &payload[..]);
    assert!(report.is_error_free());
}

#[test]
fn builder_decode_options_become_the_default() {
    // Forced erasures configured at build time apply to every decode.
    let pipeline = Pipeline::builder()
        .params(CodecParams::tiny().unwrap())
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .decode_options(RetrieveOptions {
            forced_erasures: vec![10, 11, 12],
            ..RetrieveOptions::default()
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
    assert_eq!(
        report.lost_columns, 3,
        "forced erasures must apply by default"
    );
}
