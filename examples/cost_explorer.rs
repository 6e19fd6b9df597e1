//! Reading/writing cost exploration: how much sequencing coverage (read
//! cost) and redundancy (write cost) Gini saves over the baseline —
//! miniatures of the paper's Figs. 12 and 13.
//!
//! ```text
//! cargo run --release --example cost_explorer
//! ```

use dna_skew::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A reduced geometry keeps this example snappy; the bench targets
    // (crates/bench) run the full laptop-scale sweeps. 23 parity
    // molecules of 123 is 18.7% redundancy.
    let params = CodecParams::new(dna_skew::gf::Field::gf256(), 16, 100, 23, 8)?;
    let builder = || Pipeline::builder().params(params.clone());
    let payload: Vec<u8> = (0..params.payload_bytes())
        .map(|i| (i % 253) as u8)
        .collect();
    let scenario = |model| {
        Scenario::new(model)
            .coverage_range(2, 30)
            .trials(5)
            .seed(11)
    };

    println!("== Minimum coverage for error-free decoding (lower is cheaper) ==");
    println!(
        "{:>10} {:>10} {:>8} {:>9}",
        "error rate", "baseline", "gini", "saving"
    );
    for p in [0.03, 0.06, 0.09] {
        let s = scenario(ErrorModel::uniform(p));
        let base = min_coverage(&builder().layout(Layout::Baseline).build()?, &payload, &s)?;
        let gini = min_coverage(
            &builder()
                .layout(Layout::Gini {
                    excluded_rows: vec![],
                })
                .build()?,
            &payload,
            &s,
        )?;
        match (base, gini) {
            (Some(b), Some(g)) => println!(
                "{:>9.0}% {b:>10} {g:>8} {:>8.0}%",
                p * 100.0,
                (1.0 - g / b) * 100.0
            ),
            _ => println!("{:>9.0}% {:>10} {:>8}", p * 100.0, "n/a", "n/a"),
        }
    }

    println!("\n== Gini: trading redundancy for coverage at a fixed 9% error rate ==");
    println!("(erasing parity molecules lowers the effective redundancy, Fig. 13)");
    println!(
        "{:>12} {:>12} {:>14}",
        "redundancy", "min cover", "parity erased"
    );
    let gini = builder()
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()?;
    let s = scenario(ErrorModel::uniform(0.09));
    for erased in [0usize, 4, 8, 12] {
        let retrieve = RetrieveOptions {
            forced_erasures: (params.data_cols()..params.data_cols() + erased).collect(),
            ..RetrieveOptions::default()
        };
        let effective = (params.parity_cols() - erased) as f64 / params.cols() as f64;
        match min_coverage_with(&gini, &payload, &s, &retrieve)? {
            Some(cov) => println!("{:>11.1}% {cov:>12} {erased:>14}", effective * 100.0),
            None => println!("{:>11.1}% {:>12} {erased:>14}", effective * 100.0, "n/a"),
        }
    }
    println!("\nGini spends redundancy where the baseline wastes it: every codeword");
    println!("sees the same error mass, so none needs worst-case provisioning.");
    Ok(())
}
