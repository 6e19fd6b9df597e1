//! Ablation: why unequal error correction cannot replace Gini (paper §4.1,
//! Fig. 7).
//!
//! Unequal EC provisions each row's redundancy for the skew profile
//! measured at *provisioning time*. But the skew's magnitude moves with
//! coverage (Fig. 5: going from N=5 to N=6 halves the peak), and coverage
//! is never fixed — so a profile tuned at one coverage mis-provisions at
//! another. This harness: (1) measures per-row symbol error counts at a
//! provisioning coverage, (2) splits the same total redundancy across rows
//! proportionally to that profile, and (3) deploys at other coverages,
//! counting rows whose errors exceed their provisioned correction
//! capacity. Gini (uniform rows over a flattened error distribution) is
//! the control.

use dna_bench::{laptop_pipeline, patterned_payload, FigureOutput, Scale};
use dna_channel::{CoverageModel, ErrorModel, ReadPool, SimulatedSequencer};
use dna_consensus::{BmaTwoWay, TraceReconstructor};
use dna_storage::{CodecParams, Layout};
use dna_strand::DnaString;

/// Per-row symbol-error counts of one sequencing trial (ground truth from
/// perfect clustering; the index region is ignored). Symbols are read
/// through the unit's transcoder, as the decoder reads them.
fn row_errors(
    strands: &[DnaString],
    pool: &ReadPool,
    coverage: f64,
    params: &CodecParams,
) -> Vec<usize> {
    let (transcoder, geom) = (params.transcoder(), params.payload_geometry());
    let consensus = BmaTwoWay::default();
    let mut errs = vec![0usize; params.rows()];
    for cluster in pool.at_coverage(coverage) {
        let truth = &strands[cluster.source];
        if cluster.reads.is_empty() {
            // a lost molecule is an error in every row
            for e in errs.iter_mut() {
                *e += 1;
            }
            continue;
        }
        let got = consensus.reconstruct(&cluster.reads, truth.len());
        for (r, err) in errs.iter_mut().enumerate() {
            let a = transcoder
                .decode_symbol(truth.as_slice(), r, geom)
                .expect("truth symbol");
            let b = transcoder
                .decode_symbol(got.as_slice(), r, geom)
                .expect("consensus symbol");
            if a != b {
                *err += 1;
            }
        }
    }
    errs
}

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(2, 6, 30);
    let params = CodecParams::laptop().expect("params");
    let rows = params.rows();
    let total_parity = rows * params.parity_cols(); // global redundancy budget
    let model = ErrorModel::uniform(0.09);
    let provision_cov = 20.0f64;
    let deploy_covs = [20.0f64, 16.0, 13.0, 11.0];
    eprintln!("ablation_unequal_ec: provision at coverage {provision_cov}, trials={trials}");

    // Any layout works for strand generation; errors depend on position,
    // not content.
    let pipeline = laptop_pipeline(Layout::Baseline);
    let payload = patterned_payload(params.payload_bytes(), 251);
    let unit = pipeline.encode_unit(&payload).expect("encode");

    // 1. Provisioning profile.
    let mut profile = vec![0usize; rows];
    for t in 0..trials {
        let pool = SimulatedSequencer::new(
            model,
            CoverageModel::Gamma {
                mean: provision_cov,
                shape: 6.0,
            },
        )
        .sequence_unit(0, unit.strands(), 2500 + t as u64);
        for (r, e) in row_errors(unit.strands(), &pool, provision_cov, &params)
            .into_iter()
            .enumerate()
        {
            profile[r] += e;
        }
    }
    // 2. Proportional parity allocation (≥2 per row, same total).
    let sum: usize = profile.iter().sum::<usize>().max(1);
    let mut alloc: Vec<usize> = profile
        .iter()
        .map(|&e| (e * total_parity / sum).max(2))
        .collect();
    // Fix rounding drift against the budget.
    let mut drift = alloc.iter().sum::<usize>() as i64 - total_parity as i64;
    let mut k = 0usize;
    while drift != 0 {
        let i = k % rows;
        if drift > 0 && alloc[i] > 2 {
            alloc[i] -= 1;
            drift -= 1;
        } else if drift < 0 {
            alloc[i] += 1;
            drift += 1;
        }
        k += 1;
    }
    eprintln!(
        "  provisioned parity per row: min {:?} max {:?}",
        alloc.iter().min(),
        alloc.iter().max()
    );

    // 3. Deploy: count rows whose error count exceeds the correction
    //    capacity (E_r/2 for unequal EC; E/2 uniform for baseline/Gini —
    //    Gini's errors are spread evenly, so compare against the flattened
    //    per-codeword share).
    let uniform_cap = params.parity_cols() / 2;
    let mut fig = FigureOutput::new(
        "ablation_unequal_ec",
        &[
            "coverage",
            "uniform_failed_rows",
            "unequal_failed_rows",
            "gini_failed_rows",
        ],
    );
    for &cov in &deploy_covs {
        let mut failed = [0usize; 3];
        for t in 0..trials {
            let pool = SimulatedSequencer::new(
                model,
                CoverageModel::Gamma {
                    mean: cov,
                    shape: 6.0,
                },
            )
            .sequence_unit(0, unit.strands(), 3500 + t as u64);
            let errs = row_errors(unit.strands(), &pool, cov, &params);
            let total_errs: usize = errs.iter().sum();
            // uniform rows: each row corrects uniform_cap
            failed[0] += errs.iter().filter(|&&e| e > uniform_cap).count();
            // unequal EC: row r corrects alloc[r]/2
            failed[1] += errs
                .iter()
                .zip(alloc.iter())
                .filter(|(&e, &a)| e > a / 2)
                .count();
            // Gini: errors spread evenly over rows codewords
            let per_cw = total_errs.div_ceil(rows);
            failed[2] += if per_cw > uniform_cap { rows } else { 0 };
        }
        fig.row_f64(&[
            cov,
            failed[0] as f64 / trials as f64,
            failed[1] as f64 / trials as f64,
            failed[2] as f64 / trials as f64,
        ]);
        println!(
            "coverage {cov}: failed rows/trial — uniform {:.1}, unequal-EC {:.1}, gini {:.1}",
            failed[0] as f64 / trials as f64,
            failed[1] as f64 / trials as f64,
            failed[2] as f64 / trials as f64
        );
    }
    fig.finish();
    println!("\n(expected: unequal EC ≈ perfect at its provisioning coverage, but");
    println!("mis-provisioned as deployment coverage drifts; Gini needs no profile)");
}
