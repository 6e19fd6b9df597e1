//! Error-path coverage for `PipelineBuilder` and `Scenario`: every
//! misconfiguration — invalid channel parameters, out-of-range layout
//! knobs, degenerate scenarios — must surface as a descriptive error,
//! never a panic.

use dna_align::GreedyClusterer;
use dna_channel::{
    AnonymousPool, ChannelError, ChannelModel, CoverageModel, ErrorModel, PositionProfile,
    SimulatedSequencer,
};
use dna_storage::{
    min_coverage, CodecParams, DecodeReport, Layout, Pipeline, ProtectionPlan, ProtectionPlanner,
    RecoveryPipeline, RetrieveOptions, Scenario, SkewProfile, StorageError, UnitReads,
};
use std::sync::Arc;

fn tiny() -> CodecParams {
    CodecParams::tiny().expect("tiny params")
}

#[test]
fn invalid_protection_plans_are_descriptive_builder_errors() {
    // tiny() is saturated (10 + 5 = 15 = GF(16) codeword cap), so any
    // codeword asking for more than 5 parity breaks the field limit.
    let err = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Baseline)
        .protection(ProtectionPlan::from_parities(vec![6, 5, 5, 5, 5, 4]).unwrap())
        .build()
        .unwrap_err();
    assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    assert!(err.to_string().contains("caps RS"), "{err}");

    // Budget overruns and wrong codeword counts are typed too.
    let err = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Baseline)
        .protection(ProtectionPlan::uniform(5, 5))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("rows"), "{err}");

    // Non-uniform plans cannot ride on diagonal codewords.
    let params = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4).unwrap();
    let err = Pipeline::builder()
        .params(params.clone())
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .protection(ProtectionPlan::from_parities(vec![2, 2, 3, 4, 6, 7]).unwrap())
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("unequal protection"), "{err}");

    // The auto planner refuses a profile that disagrees with the rows.
    let err = Pipeline::builder()
        .params(params)
        .layout(Layout::Baseline)
        .protection(ProtectionPlanner::new(
            SkewProfile::uniform(5, 0.02).unwrap(),
        ))
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("profile covers 5 rows"), "{err}");
}

#[test]
fn negative_and_overfull_error_rates_are_descriptive_errors() {
    for (s, i, d) in [(-0.1, 0.0, 0.0), (0.0, -0.5, 0.0), (0.5, 0.4, 0.2)] {
        let err = ErrorModel::new(s, i, d).unwrap_err();
        assert!(matches!(err, ChannelError::InvalidRates { .. }), "{err}");
        assert!(err.to_string().contains("invalid IDS rates"), "{err}");
    }
}

#[test]
fn empty_position_table_is_a_descriptive_error() {
    let err = ChannelModel::uniform(ErrorModel::uniform(0.03))
        .with_profile(PositionProfile::Table(vec![]))
        .unwrap_err();
    assert!(matches!(err, ChannelError::InvalidProfile(_)), "{err}");
    assert!(err.to_string().contains("must not be empty"), "{err}");

    let err = PositionProfile::table([1.0, -0.5]).unwrap_err();
    assert!(err.to_string().contains("finite and non-negative"), "{err}");
}

#[test]
fn dropout_of_one_or_more_is_a_descriptive_error() {
    for bad in [1.0, 1.5, -0.01, f64::NAN, f64::INFINITY] {
        let err = ChannelModel::uniform(ErrorModel::uniform(0.03))
            .with_dropout(bad)
            .unwrap_err();
        assert!(matches!(err, ChannelError::InvalidDropout(_)), "{err}");
        assert!(err.to_string().contains("outside [0, 1)"), "{err}");
    }
}

#[test]
fn invalid_pcr_and_burst_knobs_are_descriptive_errors() {
    let base = || ChannelModel::uniform(ErrorModel::uniform(0.03));
    let err = base().with_pcr_bias(-2.0).unwrap_err();
    assert!(err.to_string().contains("PCR bias shape"), "{err}");
    let err = base().with_burst(2.0, 4.0).unwrap_err();
    assert!(err.to_string().contains("burst"), "{err}");
    let err = base().with_burst(0.1, 0.0).unwrap_err();
    assert!(err.to_string().contains("at least 1"), "{err}");
}

#[test]
fn out_of_range_gini_rows_are_descriptive_builder_errors() {
    let err = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Gini {
            excluded_rows: vec![17],
        })
        .build()
        .unwrap_err();
    assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    assert!(err.to_string().contains("out of range"), "{err}");

    let err = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Gini {
            excluded_rows: vec![1, 1],
        })
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("listed twice"), "{err}");

    let err = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Gini {
            excluded_rows: (0..6).collect(),
        })
        .build()
        .unwrap_err();
    assert!(err.to_string().contains("remain interleaved"), "{err}");
}

#[test]
fn zero_trial_scenarios_validate_to_descriptive_errors() {
    let err = Scenario::new(ErrorModel::uniform(0.03))
        .trials(0)
        .validate()
        .unwrap_err();
    assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    assert!(err.to_string().contains("zero trials"), "{err}");

    let err = Scenario::new(ErrorModel::uniform(0.03))
        .coverages([])
        .validate()
        .unwrap_err();
    assert!(err.to_string().contains("empty coverage sweep"), "{err}");

    let err = Scenario::new(ErrorModel::uniform(0.03))
        .coverages([3.0, f64::NAN])
        .validate()
        .unwrap_err();
    assert!(err.to_string().contains("finite"), "{err}");

    let err = Scenario::new(ErrorModel::uniform(0.03))
        .coverages([-2.0])
        .validate()
        .unwrap_err();
    assert!(err.to_string().contains("non-negative"), "{err}");

    assert!(Scenario::new(ErrorModel::uniform(0.03)).validate().is_ok());
}

#[test]
fn degenerate_scenarios_stay_vacuous_in_the_harnesses() {
    // The experiment harnesses keep their documented measurement
    // semantics — degenerate scenarios return None, they do not panic.
    let pipeline = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..30).collect();
    let zero_trials = Scenario::new(ErrorModel::noiseless()).trials(0);
    assert_eq!(
        min_coverage(&pipeline, &payload, &zero_trials).unwrap(),
        None
    );
    let no_coverages = Scenario::new(ErrorModel::noiseless()).coverages([]);
    assert_eq!(
        min_coverage(&pipeline, &payload, &no_coverages).unwrap(),
        None
    );
}

/// A primer-wrapped tiny pipeline and one sequenced unit for the
/// recovery error paths.
fn recovery_fixture() -> (Pipeline, dna_channel::ReadPool) {
    let pipeline = Pipeline::builder()
        .params(tiny().with_primer_len(15))
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..30u8).map(|i| i.wrapping_mul(13)).collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(3))
        .sequence_unit(0, unit.strands(), 6);
    (pipeline, pool)
}

#[test]
fn empty_anonymous_pool_is_a_typed_error() {
    let (pipeline, _) = recovery_fixture();
    for empty in [
        AnonymousPool::from_reads(Vec::new()),
        dna_channel::ReadPool::empty(15).anonymize(1),
    ] {
        let err = pipeline.decode_pool(&empty).unwrap_err();
        assert!(matches!(err, StorageError::EmptyPool), "{err}");
        assert!(err.to_string().contains("nothing to recover"), "{err}");
    }
}

#[test]
fn reads_too_short_to_carry_an_index_are_all_orphaned() {
    let (pipeline, pool) = recovery_fixture();
    // Each read cut to half its primer: no index survives past it,
    // whatever the resync shift, so every cluster is orphaned.
    let short = AnonymousPool::from_reads(
        pool.anonymize(9)
            .reads()
            .iter()
            .map(|r| dna_strand::DnaString::from_bases(r.as_slice()[..8].to_vec())),
    );
    let err = pipeline.decode_pool(&short).unwrap_err();
    assert!(
        matches!(err, StorageError::AllReadsOrphaned { reads: 45, .. }),
        "{err}"
    );
    assert!(err.to_string().contains("orphaned all 45 reads"), "{err}");
}

#[test]
fn a_pool_decode_without_primers_is_invalid_params() {
    // Primers orient and demultiplex every read: a pool on a primer-less
    // pipeline is a configuration error, whatever the reads.
    let pipeline = Pipeline::builder()
        .params(tiny())
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let unit = pipeline.encode_unit(&[7; 30]).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(3))
        .sequence_unit(0, unit.strands(), 6)
        .anonymize(1);
    for pool in [pool, AnonymousPool::default()] {
        let err = pipeline.decode_pool(&pool).unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
        assert!(err.to_string().contains("with_primer_len"), "{err}");
        let err = pipeline.recover_pool(&pool).unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    }
}

#[test]
fn clusters_claiming_one_column_merge_as_fragments() {
    let (pipeline, pool) = recovery_fixture();
    // A zero clustering threshold splits each cluster's reads whenever
    // anything differs; duplicating one molecule's reads under a shifted
    // seed guarantees two distinct clusters naming the same column.
    let mut doubled: Vec<dna_strand::DnaString> = pool.anonymize(3).reads().to_vec();
    doubled.extend(pool.clusters()[0].reads.iter().cloned());
    doubled.extend(pool.clusters()[0].reads.iter().map(|r| {
        let mut bases = r.as_slice().to_vec();
        bases[20] = bases[20].complement(); // payload-region edit
        dna_strand::DnaString::from_bases(bases)
    }));
    let anon = AnonymousPool::from_reads(doubled);
    let pipeline = Pipeline::builder()
        .params(pipeline.params().clone())
        .layout(Layout::Baseline)
        .recovery(RecoveryPipeline::with_clusterer(Arc::new(
            GreedyClusterer::new(0),
        )))
        .build()
        .unwrap();
    let (decoded, report) = pipeline.decode_pool(&anon).unwrap();
    assert_eq!(decoded.len(), pipeline.payload_capacity());
    assert!(report.recovery.unwrap().duplicate_index_merges > 0);
}

#[test]
fn builder_missing_geometry_remains_descriptive() {
    let err = Pipeline::builder().build().unwrap_err();
    assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    assert!(err.to_string().contains("needs a geometry"), "{err}");
    assert!(err.to_string().contains("set .params"), "{err}");
}

/// Seeded garbage cluster sets through both `UnitReads` arms: sources out
/// of range or `usize::MAX`, empty reads, reads 3× the strand length, and
/// 300-read clusters. A decode may fail with a typed error or flag
/// degradation, but it must never panic and never hand back wrong bytes
/// under a clean report.
#[test]
fn garbage_clusters_never_panic_or_decode_silently_wrong() {
    use dna_channel::Cluster;
    use dna_strand::DnaString;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let (pipeline, _) = recovery_fixture();
    let payload: Vec<u8> = (0..30u8).map(|i| i.wrapping_mul(13)).collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let cols = unit.strands().len();
    let strand_len = unit.strands()[0].len();
    let sequencer = SimulatedSequencer::new(ErrorModel::nanopore(0.08), CoverageModel::Fixed(4));
    let check = |what: &str, result: Result<(Vec<u8>, DecodeReport), StorageError>| {
        if let Ok((decoded, report)) = result {
            assert!(
                decoded[..payload.len()] == payload[..] || report.flags_degradation(),
                "{what}: wrong bytes with a clean report"
            );
        }
    };
    for seed in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut clusters = sequencer
            .sequence_unit(0, unit.strands(), seed)
            .clusters()
            .to_vec();
        for cluster in &mut clusters {
            match rng.gen_range(0..6) {
                0 => cluster.source = cols + rng.gen_range(0..cols),
                1 => cluster.source = usize::MAX,
                _ => {}
            }
            for read in &mut cluster.reads {
                match rng.gen_range(0..8) {
                    0 => *read = DnaString::new(),
                    1 => *read = DnaString::random(3 * strand_len, &mut rng),
                    _ => {}
                }
            }
        }
        let big = rng.gen_range(0..clusters.len());
        let template = unit.strands()[clusters[big].source.min(cols - 1)].clone();
        clusters[big].reads = (0..300)
            .map(|i| match i % 3 {
                0 => template.clone(),
                1 => DnaString::random(strand_len, &mut rng),
                _ => DnaString::new(),
            })
            .collect();
        clusters.push(Cluster {
            source: rng.gen(),
            reads: vec![DnaString::random(strand_len, &mut rng); 2],
        });

        for trust in [false, true] {
            let opts = RetrieveOptions {
                trust_cluster_sources: trust,
                ..RetrieveOptions::default()
            };
            let result = pipeline
                .decode(&[UnitReads::Clusters(&clusters)], &opts, None)
                .map(|mut units| units.remove(0));
            check(&format!("seed {seed} clusters trust={trust}"), result);
        }
        let pool = AnonymousPool::from_reads(clusters.into_iter().flat_map(|c| c.reads));
        let result = pipeline
            .decode(&[UnitReads::Pool(&pool)], &RetrieveOptions::default(), None)
            .map(|mut units| units.remove(0));
        check(&format!("seed {seed} pool"), result);
    }
}
