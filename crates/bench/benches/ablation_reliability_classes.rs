//! Ablation: Gini's reliability classes (paper Fig. 8b).
//!
//! Excluding the first and last rows from the interleaving keeps them as
//! dedicated high-reliability row-codewords while the rest are de-biased.
//! This measures the corrected-error distribution and the end-to-end
//! min-coverage cost of that hybrid against full Gini and the baseline.

use dna_bench::{laptop_pipeline, patterned_payload, FigureOutput, Scale};
use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_storage::{min_coverage, CodecParams, Layout, Scenario};

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(2, 5, 20);
    let params = CodecParams::laptop().expect("params");
    let payload = patterned_payload(params.payload_bytes(), 253);
    let model = ErrorModel::uniform(0.09);
    let last = params.rows() - 1;
    let layouts = [
        ("baseline", Layout::Baseline),
        (
            "gini_full",
            Layout::Gini {
                excluded_rows: vec![],
            },
        ),
        (
            "gini_classes",
            Layout::Gini {
                excluded_rows: vec![0, last],
            },
        ),
    ];
    eprintln!("ablation_reliability_classes: trials={trials}");

    // Per-codeword corrected errors at coverage 20 (Fig. 11 style).
    let mut fig = FigureOutput::new(
        "ablation_reliability_classes",
        &["codeword", "baseline", "gini_full", "gini_classes"],
    );
    let mut series = Vec::new();
    for (_, layout) in &layouts {
        let pipeline = laptop_pipeline(layout.clone());
        let unit = pipeline.encode_unit(&payload).expect("encode");
        let mut sums = vec![0usize; params.rows()];
        let sequencer = SimulatedSequencer::new(model, CoverageModel::Fixed(20));
        for t in 0..trials {
            let pool = sequencer.sequence_unit(0, unit.strands(), 1900 + t as u64);
            let (_, report) = pipeline
                .decode_unit(&pool.at_coverage(20.0))
                .expect("decode");
            for (k, c) in report.corrected_per_codeword().iter().enumerate() {
                sums[k] += c;
            }
        }
        series.push(
            sums.iter()
                .map(|&s| s as f64 / trials as f64)
                .collect::<Vec<_>>(),
        );
    }
    #[allow(clippy::needless_range_loop)]
    for k in 0..params.rows() {
        fig.row_f64(&[k as f64, series[0][k], series[1][k], series[2][k]]);
    }
    fig.finish();

    // The excluded rows should see almost no errors under gini_classes.
    println!("\ncorrected errors in rows 0 and {last} (the reserved class):");
    for (i, (name, _)) in layouts.iter().enumerate() {
        println!(
            "  {name:>13}: row0 {:.1}, row{last} {:.1}, peak {:.1}",
            series[i][0],
            series[i][last],
            series[i].iter().copied().fold(0.0, f64::max)
        );
    }

    // End-to-end cost.
    let scenario = Scenario::new(model)
        .coverage_range(2, 45)
        .trials(trials)
        .seed(19);
    println!("\nmin coverage for error-free decode at p=9%:");
    for (name, layout) in &layouts {
        let pipeline = laptop_pipeline(layout.clone());
        let cov = min_coverage(&pipeline, &payload, &scenario)
            .expect("experiment")
            .map(|c| c.to_string())
            .unwrap_or_else(|| "n/a".into());
        println!("  {name:>13}: {cov}");
    }
    println!("(classes trade a little of Gini's saving for two guaranteed-strong rows)");
}
