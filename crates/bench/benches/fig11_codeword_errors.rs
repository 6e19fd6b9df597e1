//! Figure 11: errors detected and corrected per codeword, baseline vs
//! Gini, at 9% error rate and sequencing coverage 20.
//!
//! Expected shape: the baseline's per-codeword counts form a bell peaking
//! at the middle rows; Gini's are flat; the areas under both curves are
//! (nearly) the same — Gini redistributes errors, it does not remove them.

use dna_bench::{laptop_pipeline, patterned_payload, FigureOutput, Scale};
use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_storage::{CodecParams, Layout};

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(1, 5, 50);
    let params = CodecParams::laptop().expect("laptop params");
    let payload = patterned_payload(params.payload_bytes(), 256);
    let model = ErrorModel::uniform(0.09);
    let coverage = 20usize;
    eprintln!(
        "fig11: p=9% coverage={coverage} trials={trials}, {} codewords",
        params.rows()
    );

    let mut series: Vec<Vec<f64>> = Vec::new();
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
    ] {
        let pipeline = laptop_pipeline(layout);
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let mut sums = vec![0usize; params.rows()];
        for t in 0..trials {
            let pool = SimulatedSequencer::new(model, CoverageModel::Fixed(coverage))
                .sequence_unit(0, unit.strands(), 1100 + t as u64);
            let (_, report) = pipeline
                .decode_unit(&pool.at_coverage(coverage as f64))
                .expect("decode");
            for (k, c) in report.corrected_per_codeword().iter().enumerate() {
                sums[k] += c;
            }
        }
        series.push(sums.iter().map(|&s| s as f64 / trials as f64).collect());
    }

    let mut fig = FigureOutput::new(
        "fig11_codeword_errors",
        &["codeword", "baseline_corrected", "gini_corrected"],
    );
    #[allow(clippy::needless_range_loop)]
    for k in 0..params.rows() {
        fig.row_f64(&[k as f64, series[0][k], series[1][k]]);
    }
    fig.finish();

    let area: Vec<f64> = series.iter().map(|s| s.iter().sum()).collect();
    let peak: Vec<f64> = series
        .iter()
        .map(|s| s.iter().copied().fold(0.0, f64::max))
        .collect();
    println!("\nsummary:");
    println!(
        "  baseline: peak {:.0} (codeword {}), total {:.0}",
        peak[0],
        series[0].iter().position(|&v| v == peak[0]).unwrap_or(0),
        area[0]
    );
    println!("  gini:     peak {:.0}, total {:.0}", peak[1], area[1]);
    println!(
        "  area ratio {:.3} (paper: equal areas), baseline peak/mean {:.2} vs gini {:.2}",
        area[0] / area[1],
        peak[0] / (area[0] / series[0].len() as f64),
        peak[1] / (area[1] / series[1].len() as f64)
    );
}
