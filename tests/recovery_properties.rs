//! Property tests for the unlabeled-pool recovery stage: the
//! anonymize → recover → decode path must round-trip byte-identically to
//! the labeled path at zero noise for *any* seed, stay invariant under
//! read-order shuffling and whole-pool reverse complementation, and keep
//! its scores inside [0, 1] under arbitrary noise, on both the routing
//! stage and the clustered demultiplexer `with_clusterer` plugs in. Two
//! quality tests pin index-first routing's decodes: one (release-only)
//! at the benchmark's operating point, one on pools whose molecules drop
//! out.

use dna_skew::prelude::*;
use dna_skew::storage::StorageError;
use proptest::prelude::*;
use std::sync::Arc;

/// Tiny geometry wrapped in 15-base primers: primers give the
/// orientation stage its anchor, exactly as in real retrieval systems.
fn params() -> CodecParams {
    CodecParams::tiny()
        .expect("tiny params")
        .with_primer_len(15)
}

/// The primer-wrapped tiny pipeline recovery is specified against, with
/// recovery stage `recovery`.
fn pipeline(recovery: RecoveryPipeline) -> Pipeline {
    Pipeline::builder()
        .params(params())
        .recovery(recovery)
        .build()
        .expect("tiny pipeline")
}

fn payload_from_seed(seed: u64, len: usize) -> Vec<u8> {
    // A cheap splitmix-style byte stream: payload content varies freely
    // with the seed, which is what makes the round-trip property bite
    // (constant payloads would make every strand near-identical).
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// Greedy clustering feeding the clustered demultiplexer, at a quarter
/// of the payload region between the primers.
fn greedy() -> RecoveryPipeline {
    let p = params();
    let threshold = ((p.strand_bases() - 2 * p.primer_len()) / 4).max(3);
    RecoveryPipeline::with_clusterer(Arc::new(GreedyClusterer::new(threshold)))
}

/// Either recovery stage: index-first routing or [`greedy`].
fn recoveries() -> impl Strategy<Value = RecoveryPipeline> {
    (0usize..2).prop_map(|pick| {
        if pick == 0 {
            RecoveryPipeline::anchored(None)
        } else {
            greedy()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The acceptance property: at zero noise, decoding an anonymized
    /// pool (any anonymization seed, either stage) is byte-identical to
    /// decoding the labeled pool.
    #[test]
    fn zero_noise_anonymized_decode_is_byte_identical_to_labeled(
        seed in any::<u64>(),
        anon_seed in any::<u64>(),
        coverage in 1usize..6,
        recovery in recoveries(),
    ) {
        let pipeline = pipeline(recovery);
        let payload = payload_from_seed(seed, pipeline.payload_capacity());
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(coverage))
            .sequence_unit(0, unit.strands(), seed);
        let (labeled, _) = pipeline.decode_unit(pool.clusters()).expect("labeled decode");
        let (recovered, report) = pipeline
            .decode_pool(&pool.anonymize(anon_seed))
            .expect("recovered decode");
        prop_assert_eq!(&labeled, &recovered);
        prop_assert_eq!(&recovered, &payload);
        let recovery = report.recovery.expect("pool decode carries recovery stats");
        prop_assert_eq!(recovery.misassigned_reads, 0);
        prop_assert_eq!(recovery.purity(), Some(1.0));
    }

    /// Recovery is insensitive to the order reads arrive in: reshuffling
    /// an anonymous pool never changes the decoded bytes at zero noise.
    #[test]
    fn recovered_decode_is_invariant_under_read_order_shuffles(
        seed in any::<u64>(),
        shuffle_seed in any::<u64>(),
        recovery in recoveries(),
    ) {
        let pipeline = pipeline(recovery);
        let payload = payload_from_seed(seed ^ 0xFACE, pipeline.payload_capacity());
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(3))
            .sequence_unit(0, unit.strands(), seed)
            .anonymize(seed);
        let (a, _) = pipeline.decode_pool(&pool).expect("decode");
        let (b, _) = pipeline
            .decode_pool(&pool.reshuffled(shuffle_seed))
            .expect("decode shuffled");
        prop_assert_eq!(a, b);
    }

    /// Orientation recovery is an involution: reverse-complementing
    /// every read of the pool changes nothing about the decoded bytes.
    #[test]
    fn orientation_recovery_is_an_involution_on_reverse_complemented_pools(
        seed in any::<u64>(),
        recovery in recoveries(),
    ) {
        let pipeline = pipeline(recovery);
        let payload = payload_from_seed(seed ^ 0xBEEF, pipeline.payload_capacity());
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let anon = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(3))
            .sequence_unit(0, unit.strands(), seed)
            .anonymize(seed ^ 1);
        let flipped = AnonymousPool::from_reads(
            anon.reads().iter().map(|r| r.reverse_complement()),
        );
        let (a, _) = pipeline.decode_pool(&anon).expect("decode");
        let (b, _) = pipeline.decode_pool(&flipped).expect("decode flipped");
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(&a, &payload);
    }

    /// Under arbitrary noise the recovery scores stay inside [0, 1] and
    /// the structural tallies stay consistent with each other.
    #[test]
    fn recovery_scores_are_bounded_and_consistent(
        seed in any::<u64>(),
        noise in 0.0..0.12f64,
        coverage in 1usize..8,
        recovery in recoveries(),
    ) {
        let pipeline = pipeline(recovery);
        let payload = payload_from_seed(seed ^ 0x5EED, pipeline.payload_capacity());
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let anon = SimulatedSequencer::new(ErrorModel::uniform(noise), CoverageModel::Fixed(coverage))
            .sequence_unit(0, unit.strands(), seed)
            .anonymize(seed ^ 2);
        match pipeline.decode_pool(&anon) {
            Ok((_, report)) => {
                let r = report.recovery.expect("recovery stats present");
                prop_assert_eq!(r.total_reads, anon.len());
                for s in [r.purity(), r.completeness()].into_iter().flatten() {
                    prop_assert!((0.0..=1.0).contains(&s), "score {s}");
                }
                prop_assert!(r.orphaned_reads <= r.total_reads);
                prop_assert!(r.misassigned_reads <= r.assigned_reads());
                prop_assert_eq!(
                    r.coverage_histogram.iter().sum::<usize>(),
                    r.assigned_reads()
                );
                prop_assert!(r.assigned_columns <= pipeline.params().cols());
            }
            // Degenerate corners (every molecule lost at coverage ~0, or
            // noise heavy enough to orphan everything) are typed errors,
            // not panics.
            Err(StorageError::EmptyPool) | Err(StorageError::AllReadsOrphaned { .. }) => {}
            Err(other) => return Err(TestCaseError::fail(format!("unexpected error {other}"))),
        }
    }
}

/// Routing quality at the `recover-unlabeled` operating point: laptop
/// geometry with 16-base primers, the Gini layout, `nanopore_decay(0.05)`
/// at a fixed 8 reads per molecule, 4 seeds × 8 units. Index-first
/// routing must decode every unit exactly: no failed codeword, and never
/// wrong bytes behind a clean report. Release-only (a debug build takes
/// minutes).
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn routing_quality_is_exact_at_coverage_8() {
    let pipeline = Pipeline::builder()
        .params(
            CodecParams::laptop()
                .expect("laptop params")
                .with_primer_len(16),
        )
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .expect("laptop pipeline");
    let sequencer = SimulatedSequencer::with_channel(
        ChannelModel::nanopore_decay(0.05),
        CoverageModel::Fixed(8),
    );
    let (mut exact, mut failed, mut silent) = (0, 0, 0);
    for seed in 1..=4u64 {
        let payloads: Vec<Vec<u8>> = (0..8)
            .map(|u| payload_from_seed(seed * 8 + u, pipeline.payload_capacity()))
            .collect();
        let units = pipeline.encode_batch(&payloads).expect("encode");
        let pools: Vec<AnonymousPool> = pipeline
            .sequence_batch(&sequencer, &units, seed)
            .iter()
            .enumerate()
            .map(|(u, pool)| AnonymousPool::from_clusters(pool.clusters(), seed ^ (u as u64 + 1)))
            .collect();
        for ((bytes, report), want) in pipeline
            .decode_pool_batch(&pools)
            .expect("every unit recovers")
            .into_iter()
            .zip(&payloads)
        {
            failed += report.failed_codewords();
            exact += usize::from(&bytes == want);
            silent += usize::from(&bytes != want && !report.flags_degradation());
        }
    }
    assert_eq!((exact, failed, silent), (32, 0, 0));
}

/// Failed codewords and silent units (wrong bytes behind a clean
/// report) of `pipeline` on the recovery conformance cell's
/// `dropout:0.03` channel (5% of molecules lost) at coverage `cov`, over
/// scenario seeds `0xDECAF + s` for `s` in `seeds`.
fn dropout_outcome(pipeline: &Pipeline, cov: f64, seeds: std::ops::Range<u64>) -> (usize, usize) {
    let payload = payload_from_seed(0xD209, 3 * pipeline.payload_capacity());
    let units = pipeline.encode_chunked(&payload).expect("encode");
    let (mut failed, mut silent) = (0, 0);
    for seed in seeds {
        let scenario = Scenario::with_channel(ChannelModel::dropout_prone(0.03, 0.05))
            .single_coverage(cov)
            .seed(0xDECAF + seed)
            .unlabeled();
        let pools: Vec<AnonymousPool> = pipeline
            .sequence_batch(&scenario.backend(), &units, scenario.seed)
            .iter()
            .enumerate()
            .map(|(u, p)| {
                AnonymousPool::from_clusters(
                    &p.at_coverage(cov),
                    dna_skew::channel::unit_seed(scenario.anonymize_seed(0), u),
                )
            })
            .collect();
        let decoded = pipeline
            .decode_pool_batch(&pools)
            .expect("every unit recovers");
        for ((bytes, report), want) in decoded
            .into_iter()
            .zip(payload.chunks(pipeline.payload_capacity()))
        {
            failed += report.failed_codewords();
            silent += usize::from(bytes != want && !report.flags_degradation());
        }
    }
    (failed, silent)
}

/// Routing on pools whose molecules drop out (3 tiny units wrapped in
/// 15-base primers) at 10 and 12 reads per molecule. A dropped
/// molecule's column must stay an erasure even when a neighbour's
/// misread index names it. On the 20 seeds the dropped-molecule check
/// was tuned on, every codeword decodes; on 80 held-out seeds routing
/// fails no more codewords than greedy clustering through the clustered
/// demultiplexer does on the same pools. Neither ever returns wrong
/// bytes behind a clean report.
#[test]
fn routing_quality_survives_dropped_molecules() {
    let routing = pipeline(RecoveryPipeline::anchored(None));
    let clustering = pipeline(greedy());
    for cov in [10.0, 12.0] {
        assert_eq!(dropout_outcome(&routing, cov, 0..20), (0, 0), "cov {cov}");
        let (routed, routed_silent) = dropout_outcome(&routing, cov, 20..100);
        let (clustered, clustered_silent) = dropout_outcome(&clustering, cov, 20..100);
        assert_eq!((routed_silent, clustered_silent), (0, 0), "cov {cov}");
        assert!(
            routed <= clustered,
            "cov {cov}: routing failed {routed} codewords, greedy {clustered}"
        );
    }
}
