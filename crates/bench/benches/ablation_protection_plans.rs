//! Ablation: skew-profiled unequal protection vs uniform protection at
//! **equal density** — the closed loop the planner exists for:
//! channel → measured per-row skew → protection plan → higher decode
//! rate at identical synthesis cost.
//!
//! Both arms run the same geometry — GF(256), 30 rows, 160 data + 24
//! parity molecules — so every trial synthesizes the same number of
//! bases. The uniform arm gives all 30 row-codewords 24 parity symbols.
//! The planned arm first *provisions*: it decodes a few uniform trials
//! at a comfortable coverage and feeds the per-row corrected-error
//! histograms ([`DecodeReport::row_errors`]) into an empirical
//! [`SkewProfile`]; the [`ProtectionPlanner`] then redistributes the
//! same `30 × 24` parity-cell budget toward the hot 3' rows of the
//! `nanopore_decay` channel (with a parity floor so quiet rows keep a
//! safety margin). Expected shape: at marginal coverages the uniform
//! arm's hottest rows overflow their capacity first, so the planned arm
//! wins on exact-decode rate.

use dna_bench::{patterned_payload, FigureOutput, Scale};
use dna_channel::ChannelModel;
use dna_storage::{
    CodecParams, DecodeReport, Layout, Pipeline, ProtectionPlanner, Scenario, SkewProfile,
};

/// The headroom geometry: 160 + 24 = 184 ≤ 255 columns leaves each
/// codeword up to 95 parity symbols of field-length headroom (the
/// paper's laptop geometry is saturated at 208 + 47 = 255 and cannot
/// host a non-uniform plan).
fn headroom_params() -> CodecParams {
    CodecParams::new(dna_gf::Field::gf256(), 30, 160, 24, 8).expect("headroom params")
}

fn run_trials(
    pipeline: &Pipeline,
    payload: &[u8],
    scenario: &Scenario,
    coverage: f64,
) -> (f64, f64, Vec<DecodeReport>) {
    let unit = pipeline.encode_unit(payload).expect("encode");
    let backend = scenario.backend();
    let mut exact = 0usize;
    let mut failed_codewords = 0usize;
    let mut reports = Vec::with_capacity(scenario.trials);
    for t in 0..scenario.trials {
        let pool = backend.sequence_unit(0, unit.strands(), scenario.trial_seed(t));
        let clusters = pool.at_coverage(coverage);
        let (decoded, report) = pipeline.decode_unit(&clusters).expect("decode");
        if report.is_error_free() && decoded[..payload.len()] == payload[..] {
            exact += 1;
        }
        failed_codewords += report.failed_codewords();
        reports.push(report);
    }
    (
        exact as f64 / scenario.trials as f64,
        failed_codewords as f64 / scenario.trials as f64,
        reports,
    )
}

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(10, 30, 100);
    let provision_trials = scale.pick(4, 8, 20);
    let provision_cov = 20.0;
    let coverages: &[f64] = &[9.0, 10.0, 11.0, 13.0];
    let params = headroom_params();
    let payload = patterned_payload(params.payload_bytes(), 251);
    let channel = ChannelModel::nanopore_decay(0.05);
    eprintln!(
        "ablation_protection_plans: trials={trials}, provision {provision_trials} trials \
         at coverage {provision_cov}, equal density 30×24 parity cells"
    );

    let uniform = Pipeline::builder()
        .params(params.clone())
        .layout(Layout::Baseline)
        .build()
        .expect("uniform pipeline");

    // Provision: measure the per-row skew empirically through the
    // uniform pipeline (no oracle access to the simulator's noise).
    let provision = Scenario::with_channel(channel.clone())
        .single_coverage(provision_cov)
        .trials(provision_trials)
        .seed(4242);
    let (_, _, reports) = run_trials(&uniform, &payload, &provision, provision_cov);
    let profile =
        SkewProfile::from_reports(reports.iter(), params.cols()).expect("provisioning profile");
    eprintln!(
        "  measured skew: row0 {:.4} … row29 {:.4} (mean {:.4})",
        profile.rate(0),
        profile.rate(29),
        profile.mean_rate()
    );

    // Plan with a half-width parity floor: quiet rows keep 12 symbols of
    // slack against what the provisioning run could not see.
    let planned = Pipeline::builder()
        .params(params.clone())
        .layout(Layout::Baseline)
        .protection(ProtectionPlanner::new(profile).min_parity(params.parity_cols() / 2))
        .build()
        .expect("planned pipeline");
    let plan = planned.protection_plan().clone();
    assert!(
        plan.total_parity() <= params.rows() * params.parity_cols(),
        "planner exceeded the density budget"
    );
    eprintln!("  plan: {}", plan.summary());

    let mut fig = FigureOutput::new(
        "ablation_protection_plans",
        &[
            "coverage",
            "uniform_exact_rate",
            "planned_exact_rate",
            "uniform_failed_cw",
            "planned_failed_cw",
        ],
    );
    for &cov in coverages {
        let scenario = Scenario::with_channel(channel.clone())
            .single_coverage(cov)
            .trials(trials)
            .seed(29);
        scenario.validate().expect("static scenario is valid");
        let (u_rate, u_failed, _) = run_trials(&uniform, &payload, &scenario, cov);
        let (p_rate, p_failed, _) = run_trials(&planned, &payload, &scenario, cov);
        fig.row_f64(&[cov, u_rate, p_rate, u_failed, p_failed]);
        println!(
            "coverage {cov}: exact-decode rate uniform {u_rate:.2} vs planned {p_rate:.2} \
             (failed codewords/trial {u_failed:.2} vs {p_failed:.2})"
        );
    }
    fig.finish();
    println!("\n(equal synthesis cost; the planned arm should dominate at marginal coverage)");
}
