//! Cross-crate integration: full store → sequence → cluster → consensus →
//! decode round-trips under every layout and channel profile.

use dna_skew::prelude::*;

fn laptop_payload(pipeline: &Pipeline) -> Vec<u8> {
    (0..pipeline.payload_capacity())
        .map(|i| (i.wrapping_mul(131) % 256) as u8)
        .collect()
}

#[test]
fn all_layouts_survive_ngs_noise_at_laptop_scale() {
    let params = CodecParams::laptop().unwrap();
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
        Layout::Gini {
            excluded_rows: vec![0, 29],
        },
        Layout::DnaMapper,
    ] {
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout.clone())
            .build()
            .unwrap();
        let payload = laptop_payload(&pipeline);
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = SimulatedSequencer::new(
            ErrorModel::ngs(0.01),
            CoverageModel::Gamma {
                mean: 10.0,
                shape: 6.0,
            },
        )
        .sequence_unit(0, unit.strands(), 13);
        let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(10.0)).unwrap();
        assert_eq!(decoded, payload, "layout {:?}", layout);
        assert!(report.is_error_free(), "layout {:?}", layout);
    }
}

#[test]
fn nanopore_noise_is_recovered_with_sufficient_coverage() {
    let params = CodecParams::laptop().unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .unwrap();
    let payload = laptop_payload(&pipeline);
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::nanopore(0.12), CoverageModel::Fixed(16))
        .sequence_unit(0, unit.strands(), 17);
    let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(16.0)).unwrap();
    assert_eq!(decoded, payload);
    assert!(report.is_error_free());
    // Nanopore noise actually exercises the RS layer.
    assert!(report.total_corrected() > 0);
}

#[test]
fn gini_decodes_at_coverage_where_baseline_fails() {
    // The paper's headline Fig. 12 effect, pinned at one operating point.
    let params = CodecParams::laptop().unwrap();
    let payload: Vec<u8> = (0..6240).map(|i| (i * 7 % 255) as u8).collect();
    let model = ErrorModel::uniform(0.09);
    let mut exact = [true, true];
    for (i, layout) in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
    ]
    .into_iter()
    .enumerate()
    {
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()
            .unwrap();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let mut successes = 0;
        let sequencer = SimulatedSequencer::new(model, CoverageModel::Fixed(10));
        for seed in 0..3u64 {
            let pool = sequencer.sequence_unit(0, unit.strands(), 100 + seed);
            let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(10.0)).unwrap();
            if report.is_error_free() && decoded == payload {
                successes += 1;
            }
        }
        exact[i] = successes == 3;
    }
    assert!(
        !exact[0] && exact[1],
        "at 9% error / coverage 10: baseline all-exact={} gini all-exact={}",
        exact[0],
        exact[1]
    );
}

#[test]
fn real_clustering_agrees_with_perfect_clustering_at_low_noise() {
    // Swap the paper's perfect clustering for the greedy edit-distance
    // clusterer and verify the pipeline still decodes.
    use dna_skew::align::GreedyClusterer;
    use dna_skew::channel::Cluster;

    let params =
        dna_skew::storage::CodecParams::new(dna_skew::gf::Field::gf256(), 12, 40, 10, 8).unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..pipeline.payload_capacity()).map(|i| i as u8).collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(6))
        .sequence_unit(0, unit.strands(), 3);

    // Flatten reads, strip labels, re-cluster from scratch.
    let labeled = pool.labeled_reads();
    let reads: Vec<DnaString> = labeled.iter().map(|(_, r)| r.clone()).collect();
    let result = GreedyClusterer::new(12).cluster(&reads);
    let clusters: Vec<Cluster> = result
        .clusters
        .iter()
        .enumerate()
        .map(|(i, members)| Cluster {
            source: i,
            reads: members.iter().map(|&r| reads[r].clone()).collect(),
        })
        .collect();
    let (decoded, report) = pipeline.decode_unit(&clusters).unwrap();
    assert_eq!(decoded, payload);
    assert!(report.is_error_free());
}

#[test]
fn failure_injection_truncated_and_duplicated_reads() {
    let params = CodecParams::laptop().unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .unwrap();
    let payload = laptop_payload(&pipeline);
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::uniform(0.04), CoverageModel::Fixed(10))
        .sequence_unit(0, unit.strands(), 29);
    let mut clusters = pool.clusters().to_vec();
    // Truncate some reads hard, duplicate others, clear a few clusters.
    for (i, c) in clusters.iter_mut().enumerate() {
        match i % 17 {
            0 => c.reads.truncate(2),
            1 => {
                let dup = c.reads[0].clone();
                c.reads.extend(std::iter::repeat_n(dup, 3));
            }
            2 => {
                let short = c.reads[0].slice(0, 30);
                c.reads.push(short);
            }
            3 => c.reads.clear(),
            _ => {}
        }
    }
    let (decoded, report) = pipeline.decode_unit(&clusters).unwrap();
    assert_eq!(decoded, payload, "erasure capacity must absorb the abuse");
    assert!(report.lost_columns >= 15);
    assert!(report.is_error_free());
}
