//! Figure 16: the zero-metadata position ranking vs the brute-force
//! oracle ranking vs baseline order, on a single image stored **without
//! error correction** and retrieved at falling coverage.
//!
//! Expected shape: position ranking tracks the oracle closely; both
//! degrade far more gracefully than the baseline order.

use dna_bench::{FigureOutput, Scale};
use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_gf::Field;
use dna_media::rank::{BitRanker, OracleRanker, PositionRanker};
use dna_media::{GrayImage, JpegLikeCodec};
use dna_storage::{CodecParams, Layout, Pipeline, RetrieveOptions, UnitReads};
use dna_strand::bits::{get_bit, set_bit};

/// Permutes file bits into priority order (stream[q] = file[order[q]]).
fn permute(file: &[u8], order: &[usize]) -> Vec<u8> {
    let mut out = vec![0u8; file.len()];
    for (q, &src) in order.iter().enumerate() {
        set_bit(&mut out, q, get_bit(file, src));
    }
    out
}

/// Inverse permutation.
fn unpermute(stream: &[u8], order: &[usize]) -> Vec<u8> {
    let mut out = vec![0u8; stream.len()];
    for (q, &dst) in order.iter().enumerate() {
        set_bit(&mut out, dst, get_bit(stream, q));
    }
    out
}

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(2, 6, 30);
    let oracle_stride = scale.pick(512, 192, 16);
    // This operating point (2–3 KB file at q80) sits where the baseline
    // order collapses while priority mappings hold — the regime Fig. 16
    // plots; paper scale grows the image and the oracle resolution.
    let codec = JpegLikeCodec::new(80).expect("quality");
    let image = GrayImage::synthetic_photo(
        scale.pick(96, 96, 320) as u32,
        scale.pick(80, 80, 240) as u32,
        16,
    );
    let file = codec.encode(&image).expect("encode");
    eprintln!(
        "fig16: {} byte file, no ECC, oracle stride {oracle_stride}, trials={trials}",
        file.len()
    );

    // No-ECC geometry with the paper's 664-base strands (164 8-bit symbols
    // + 16-bit index): long molecules give the steep mid-strand bathtub the
    // priority classes rely on.
    let rows = 164usize;
    let cols = file.len().div_ceil(rows).max(2);
    let params = CodecParams::new(Field::gf256(), rows, cols, 0, 16).expect("params");

    let rankings: Vec<(&str, Option<Vec<usize>>)> = vec![
        ("baseline", None), // no reordering, baseline layout
        ("position", Some(PositionRanker.rank(&file))),
        (
            "oracle",
            Some(OracleRanker::new(codec, image.clone(), oracle_stride).rank(&file)),
        ),
    ];
    // With no error correction at all, the channel must sit where coverage
    // 20 reconstructs near-perfectly and coverage 5 is catastrophic, as in
    // the paper's plot range. Coverage is fixed per cluster: without ECC
    // there is nothing to absorb whole-molecule weakness, so cluster-size
    // variance would only blur the ranking comparison this figure makes.
    let coverages: Vec<f64> = (5..=20).rev().map(f64::from).collect();
    let model = ErrorModel::uniform(0.025);

    let mut series: Vec<Vec<f64>> = Vec::new();
    for (name, order) in &rankings {
        eprintln!("  {name}…");
        let layout = if order.is_some() {
            Layout::DnaMapper
        } else {
            Layout::Baseline
        };
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()
            .expect("pipeline");
        let payload = match order {
            Some(o) => permute(&file, o),
            None => file.clone(),
        };
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let mut losses = vec![0.0f64; coverages.len()];
        let sequencer = SimulatedSequencer::new(model, CoverageModel::Fixed(20));
        for t in 0..trials {
            let pool = sequencer.sequence_unit(0, unit.strands(), 1600 + t as u64);
            // Perfect clustering ⇒ cluster identity is known (paper
            // §6.1.2); with no parity to absorb index-corruption column
            // losses, the ranking comparison uses it directly.
            let opts = RetrieveOptions {
                trust_cluster_sources: true,
                ..RetrieveOptions::default()
            };
            for (i, &cov) in coverages.iter().enumerate() {
                let (decoded, _) = pipeline
                    .decode(&[UnitReads::Clusters(&pool.at_coverage(cov))], &opts, None)
                    .expect("decode")
                    .remove(0);
                let bytes = match order {
                    Some(o) => unpermute(&decoded[..file.len()], o),
                    None => decoded[..file.len()].to_vec(),
                };
                let got = codec.decode_with_expected(&bytes, image.width(), image.height());
                losses[i] += image.psnr(&got).min(60.0);
            }
        }
        series.push(losses.into_iter().map(|s| s / trials as f64).collect());
    }

    let mut fig = FigureOutput::new(
        "fig16_ranking_oracle",
        &["coverage", "baseline_psnr", "position_psnr", "oracle_psnr"],
    );
    for (i, &cov) in coverages.iter().enumerate() {
        fig.row_f64(&[cov, series[0][i], series[1][i], series[2][i]]);
    }
    fig.finish();
    println!("\nsummary (PSNR in dB; higher is better):");
    println!(
        "  at coverage {}: baseline {:.1}, position {:.1}, oracle {:.1}",
        coverages[coverages.len() / 2] as u32,
        series[0][coverages.len() / 2],
        series[1][coverages.len() / 2],
        series[2][coverages.len() / 2]
    );
    println!("(paper: position heuristic ≈ oracle, both well above baseline order)");
}
