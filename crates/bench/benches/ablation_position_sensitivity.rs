//! Ablation: DnaMapper's benefit exists **because** entropy-coded formats
//! are position-sensitive.
//!
//! With restart markers enabled, the codec's bit-damage cost becomes
//! nearly position-independent — and the gap between priority mapping and
//! baseline mapping should shrink accordingly. This isolates the paper's
//! §5.3 premise (damage decays with file position) as the mechanism behind
//! Fig. 14/16, rather than any generic property of the mapping.

use dna_bench::{FigureOutput, Scale};
use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_gf::Field;
use dna_media::{GrayImage, JpegLikeCodec};
use dna_storage::{CodecParams, Layout, Pipeline};

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(3, 8, 30);
    let image = GrayImage::synthetic_photo(160, 120, 18);
    let rows = 164usize;
    let model = ErrorModel::uniform(0.025);
    let coverages = [14.0f64, 11.0, 8.0];
    eprintln!("ablation_position_sensitivity: trials={trials}");

    let mut fig = FigureOutput::new(
        "ablation_position_sensitivity",
        &[
            "coverage",
            "plain_baseline",
            "plain_priority",
            "marked_baseline",
            "marked_priority",
        ],
    );
    let mut table = vec![vec![0.0f64; 4]; coverages.len()];
    for (m, markers) in [(0usize, None), (1, Some(4u8))].iter() {
        let codec = JpegLikeCodec::new(60)
            .expect("quality")
            .with_restart_interval(*markers);
        let file = codec.encode(&image).expect("encode");
        let cols = file.len().div_ceil(rows).max(2);
        let params = CodecParams::new(Field::gf256(), rows, cols, 0, 16).expect("params");
        for (l, layout) in [Layout::Baseline, Layout::DnaMapper]
            .into_iter()
            .enumerate()
        {
            let pipeline = Pipeline::builder()
                .params(params.clone())
                .layout(layout)
                .build()
                .expect("pipeline");
            let unit = pipeline.encode_unit(&file).expect("encode");
            for (i, &cov) in coverages.iter().enumerate() {
                let mut psnr = 0.0;
                for t in 0..trials {
                    let pool = SimulatedSequencer::new(model, CoverageModel::Fixed(cov as usize))
                        .sequence_unit(0, unit.strands(), 1800 + t as u64);
                    let (decoded, _) = pipeline
                        .decode_unit(&pool.at_coverage(cov))
                        .expect("decode");
                    let got = codec.decode_with_expected(
                        &decoded[..file.len()],
                        image.width(),
                        image.height(),
                    );
                    psnr += image.psnr(&got).min(60.0);
                }
                table[i][m * 2 + l] = psnr / trials as f64;
            }
        }
    }
    for (i, &cov) in coverages.iter().enumerate() {
        fig.row_f64(&[cov, table[i][0], table[i][1], table[i][2], table[i][3]]);
    }
    fig.finish();
    println!("\nsummary (PSNR dB):");
    for (i, &cov) in coverages.iter().enumerate() {
        let plain_gap = table[i][1] - table[i][0];
        let marked_gap = table[i][3] - table[i][2];
        println!(
            "  coverage {cov}: priority-over-baseline gap = {plain_gap:+.1} dB without markers, {marked_gap:+.1} dB with markers"
        );
    }
    println!("(expected: the gap shrinks when damage is position-independent)");
}
