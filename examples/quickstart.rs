//! Quickstart: store a payload in simulated DNA under all three data
//! organizations, sequence it through a noisy channel, and read it back —
//! all through the fluent `PipelineBuilder` API.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dna_skew::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Laptop-scale geometry: GF(2^8), 255 molecules of 124 bases each,
    // 18.4% redundancy — the paper's §6.1.1 ratios at 1/256 size.
    let params = CodecParams::laptop()?;
    println!(
        "unit: {} molecules × {} bases, payload {} bytes, redundancy {:.1}%",
        params.cols(),
        params.strand_bases(),
        params.payload_bytes(),
        params.redundancy() * 100.0
    );

    let mut payload = Vec::new();
    while payload.len() < params.payload_bytes() {
        payload.extend_from_slice(b"Some parts of DNA molecules are more reliable than others. ");
    }
    payload.truncate(params.payload_bytes());

    // One Scenario describes the channel operating point for every run: a
    // 6% error rate, uniformly split between insertions, deletions and
    // substitutions, at mean coverage 12 with Gamma-distributed cluster
    // sizes — a mid-range nanopore-like operating point.
    let scenario = Scenario::new(ErrorModel::uniform(0.06))
        .single_coverage(12.0)
        .seed(2024);
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
        Layout::DnaMapper,
    ] {
        let name = layout.name();
        // Every pipeline is built through the validated builder; swap any
        // knob (consensus, primers, geometry overrides) without new
        // constructors.
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()?;
        let unit = pipeline.encode_unit(&payload)?;
        let pool = scenario
            .backend()
            .sequence_unit(0, unit.strands(), scenario.seed);
        let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(12.0))?;
        let exact = decoded == payload;
        println!(
            "{name:>10}: exact={exact}  corrected symbols={:<5} failed codewords={} lost molecules={}",
            report.total_corrected(),
            report.failed_codewords(),
            report.lost_columns,
        );
    }
    println!("\nAll three organizations store the same bytes at zero storage overhead;");
    println!("they differ only in how codewords and priorities map onto molecules.");
    Ok(())
}
