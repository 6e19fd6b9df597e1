//! Ablation: oracle-labeled vs recovered decode, across channel presets.
//!
//! The paper's methodology hands the decoder perfectly clustered reads
//! (§6.1.2). This ablation removes that oracle: the same pools are
//! anonymized (labels dropped, orientation randomized, order shuffled)
//! and must pass through the orient → route → validate recovery stage
//! before decoding. The gap between the two arms *is* the price of
//! realistic retrieval — misrouted and dropped reads layered on top of
//! the channel's errors — and shrinks as coverage grows.

use dna_bench::{patterned_payload, FigureOutput, Scale};
use dna_channel::{AnonymousPool, ChannelModel, ErrorModel};
use dna_storage::{CodecParams, Layout, Pipeline, RecoveryReport, Scenario};

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(2, 8, 30);
    let coverages: &[f64] = match scale {
        Scale::Smoke => &[10.0],
        _ => &[6.0, 10.0, 14.0],
    };
    // Primer-wrapped laptop geometry: the primers are the orientation
    // anchor every unlabeled-retrieval system relies on.
    let params = CodecParams::laptop()
        .expect("laptop params")
        .with_primer_len(16);
    let pipeline = Pipeline::builder()
        .params(params.clone())
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .expect("laptop pipeline");
    let payload = patterned_payload(params.payload_bytes(), 251);
    let unit = pipeline.encode_unit(&payload).expect("encode");
    let channels: [(&str, ChannelModel); 5] = [
        ("uniform", ChannelModel::uniform(ErrorModel::uniform(0.04))),
        ("nanopore-decay", ChannelModel::nanopore_decay(0.05)),
        ("pcr-skewed", ChannelModel::pcr_skewed(0.04)),
        ("dropout", ChannelModel::dropout_prone(0.04, 0.03)),
        ("bursty", ChannelModel::bursty(0.04)),
    ];
    eprintln!("ablation_recovery: trials={trials}, coverages {coverages:?}");

    let mut fig = FigureOutput::new(
        "ablation_recovery",
        &[
            "channel",
            "coverage",
            "oracle_decode_rate",
            "recovered_decode_rate",
            "purity",
            "completeness",
            "orphaned_fraction",
        ],
    );
    for (name, channel) in &channels {
        eprintln!("  channel {name}…");
        for &cov in coverages {
            let scenario = Scenario::with_channel(channel.clone())
                .single_coverage(cov)
                .trials(trials)
                .seed(23)
                .unlabeled();
            scenario.validate().expect("static scenario is valid");
            let (mut oracle_ok, mut recovered_ok) = (0usize, 0usize);
            let mut recovery = RecoveryReport::default();
            for t in 0..trials {
                let pool =
                    scenario
                        .backend()
                        .sequence_unit(0, unit.strands(), scenario.trial_seed(t));
                let clusters = pool.at_coverage(cov);
                let (oracle, _) = pipeline.decode_unit(&clusters).expect("oracle decode");
                oracle_ok += usize::from(oracle == payload);
                let anon = AnonymousPool::from_clusters(&clusters, scenario.anonymize_seed(t));
                // A fully orphaned pool is a failed retrieval, not a
                // crash: the miss is counted and the loop moves on.
                if let Ok((recovered, report)) = pipeline.decode_pool(&anon) {
                    recovered_ok += usize::from(recovered == payload);
                    recovery.merge_from(&report.recovery.expect("recovery stats"));
                }
            }
            fig.row(&[
                name.to_string(),
                format!("{cov}"),
                format!("{:.3}", oracle_ok as f64 / trials as f64),
                format!("{:.3}", recovered_ok as f64 / trials as f64),
                format!("{:.4}", recovery.purity().unwrap_or(f64::NAN)),
                format!("{:.4}", recovery.completeness().unwrap_or(f64::NAN)),
                format!(
                    "{:.4}",
                    if recovery.total_reads == 0 {
                        f64::NAN
                    } else {
                        recovery.orphaned_reads as f64 / recovery.total_reads as f64
                    }
                ),
            ]);
        }
    }
    fig.finish();
    println!(
        "\n(oracle = the paper's perfect clustering; recovered = anonymize → orient → \
         route → validate → decode, the anchored stage)"
    );
}
