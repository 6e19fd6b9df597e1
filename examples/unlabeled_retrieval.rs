//! Unlabeled-pool retrieval: the realistic front half of a DNA storage
//! pipeline. The sequencer returns an anonymous soup — no labels, random
//! orientation, shuffled order — and retrieval must recover each read's
//! orientation against the primers and route it by its decoded ordering
//! index (checking each column's reads against one another) before the
//! usual consensus + RS decode can run.
//!
//! ```text
//! cargo run --release --example unlabeled_retrieval
//! ```

use dna_skew::align::AnchorOrienter;
use dna_skew::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Primer-wrapped strands: the primers are the orientation anchor
    // (and the random-access key) every real retrieval system leans on.
    let params = CodecParams::laptop()?.with_primer_len(16);
    let pipeline = Pipeline::builder()
        .params(params.clone())
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()?;
    let payload: Vec<u8> = (0..pipeline.payload_capacity())
        .map(|i| (i as u32).wrapping_mul(167) as u8)
        .collect();
    let unit = pipeline.encode_unit(&payload)?;

    println!(
        "molecules: {}, strand length: {} bases",
        unit.len(),
        params.strand_bases()
    );
    for (name, channel) in [
        (
            "uniform 3%",
            ChannelModel::uniform(ErrorModel::uniform(0.03)),
        ),
        ("nanopore-decay 5%", ChannelModel::nanopore_decay(0.05)),
    ] {
        let scenario = Scenario::with_channel(channel)
            .single_coverage(12.0)
            .seed(7)
            .unlabeled();
        let pool = scenario
            .backend()
            .sequence_unit(0, unit.strands(), scenario.seed);

        // The labeled (oracle) arm: the paper's perfect clustering.
        let (oracle, _) = pipeline.decode_unit(&pool.at_coverage(12.0))?;

        // The realistic arm: strip labels, randomize orientation,
        // shuffle — then recover everything.
        let anon =
            AnonymousPool::from_clusters(&pool.at_coverage(12.0), scenario.anonymize_seed(0));
        let (recovered, report) = pipeline.decode_pool(&anon)?;
        let recovery = report.recovery.expect("pool decodes carry recovery stats");
        println!("\n{name}: {} anonymous reads", anon.len());
        println!("  oracle   : exact={}", oracle == payload);
        println!(
            "  recovered: exact={} (groups={}, purity={:.3}, orphaned={}, re-routed={}, flipped={})",
            recovered == payload,
            recovery.clusters_found,
            recovery.purity().unwrap_or(f64::NAN),
            recovery.orphaned_reads,
            recovery.duplicate_index_merges,
            recovery.flipped_reads,
        );
    }

    // The pieces compose individually, too: here the orientation-aware
    // consensus entry rebuilds one molecule from a hand-mixed cluster.
    let mut rng_reads = SimulatedSequencer::new(ErrorModel::uniform(0.02), CoverageModel::Fixed(6))
        .sequence_unit(0, unit.strands(), 99)
        .clusters()[0]
        .reads
        .clone();
    let flips: Vec<bool> = (0..rng_reads.len()).map(|i| i % 2 == 1).collect();
    for (read, &flip) in rng_reads.iter_mut().zip(&flips) {
        if flip {
            *read = read.reverse_complement();
        }
    }
    let consensus =
        BmaTwoWay::default().reconstruct_oriented(&rng_reads, &flips, params.strand_bases());
    println!(
        "\norientation-aware consensus rebuilt molecule 0: {} bases, matches synthesis: {}",
        consensus.len(),
        consensus == unit.strands()[0]
    );

    // And the orienter itself is reusable outside the pipeline:
    let orienter = AnchorOrienter::new(rng_reads[0].slice(0, 16));
    let (orientation, _) = orienter.orient(&rng_reads[0].reverse_complement());
    println!(
        "orienter sees a flipped read as flipped: {}",
        orientation.is_flipped()
    );
    Ok(())
}
