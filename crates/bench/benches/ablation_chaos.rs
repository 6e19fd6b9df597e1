//! Ablation: the chaos campaign — adversarial fault injection scored
//! into four-way verdicts, plus the measure→plan→deploy closed loop
//! under chaos.
//!
//! Part 1 runs every built-in preset (sustained dropout, index-region
//! bursts, cross-pool contamination, truncation + chimeras,
//! near-duplicate payloads, torn appends, capsule-header and strand bit
//! rot, sidecar damage) and prints the scenario × verdict table. The
//! hard assertion is the campaign's reason to exist: **zero**
//! [`Verdict::SilentCorruption`](dna_chaos::Verdict) — wrong bytes
//! with no error signal — anywhere in the suite.
//!
//! Part 2 closes the loop: the same chaos (2% molecule dropout + 10%
//! truncated reads over a decaying nanopore channel) is first *measured*
//! through a uniformly protected pipeline, the per-row damage
//! histograms feed [`SkewProfile::from_reports`], and the resulting
//! unequal-protection plan — same 30 × 24 parity-cell budget, same
//! synthesis cost — is *deployed* against the identical chaos. The
//! planned arm must beat uniform on exact-decode rate.
//!
//! [`SkewProfile::from_reports`]: dna_storage::SkewProfile::from_reports

use dna_bench::{FigureOutput, Scale};
use dna_channel::ChannelModel;
use dna_chaos::{
    builtin_presets, closed_loop, run_campaign, CampaignConfig, ChaosScenario, FaultPlan,
    PayloadKind, PoolFault, ScenarioKind,
};
use dna_storage::CodecParams;

/// The headroom geometry (160 + 24 ≤ 255) that can host a non-uniform
/// plan; the saturated laptop geometry (208 + 47 = 255) cannot.
fn headroom_params() -> CodecParams {
    CodecParams::new(dna_gf::Field::gf256(), 30, 160, 24, 8).expect("headroom params")
}

/// The chaos the closed loop provisions against and deploys under.
fn loop_scenario(coverage: f64) -> ChaosScenario {
    ChaosScenario {
        name: "chaos-loop".to_string(),
        kind: ScenarioKind::Pool {
            plan: FaultPlan::new()
                .with(PoolFault::Dropout { rate: 0.02 })
                .with(PoolFault::TruncateReads {
                    fraction: 0.1,
                    keep_min: 0.85,
                    keep_max: 0.97,
                }),
            channel: ChannelModel::nanopore_decay(0.05),
            coverage,
            unlabeled: false,
            payload: PayloadKind::Patterned,
        },
    }
}

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(6, 25, 100);
    eprintln!("ablation_chaos: {trials} trials/scenario (DNA_REPRO_SCALE also accepts wetlab)");

    // Part 1: the built-in campaign at the tiny conformance geometry.
    let config = CampaignConfig::quick(42, trials).expect("tiny geometry");
    let presets = builtin_presets();
    let report = run_campaign(&presets, &config).expect("campaign runs");
    print!("{}", report.to_table());
    let mut fig = FigureOutput::new(
        "ablation_chaos",
        &["scenario", "exact", "degraded", "loud", "silent"],
    );
    for s in &report.scenarios {
        fig.row(&[
            s.name.clone(),
            s.tally.exact.to_string(),
            s.tally.degraded.to_string(),
            s.tally.loud.to_string(),
            s.tally.silent.to_string(),
        ]);
    }
    fig.finish();
    assert_eq!(
        report.silent_corruptions(),
        0,
        "silent corruption in the built-in suite: wrong bytes with no error signal"
    );
    println!(
        "zero silent corruption across {} trials\n",
        report.totals().total()
    );

    // Part 2: measure → plan → deploy under the same chaos, equal density.
    let loop_trials = scale.pick(10, 30, 100);
    let provision_trials = scale.pick(6, 12, 30);
    let loop_config = CampaignConfig {
        seed: 29,
        trials: loop_trials,
        params: headroom_params(),
        scratch: std::env::temp_dir().join("ablation-chaos-loop"),
    };
    let coverage = 14.0;
    let outcome = closed_loop(
        &loop_scenario(coverage),
        &loop_config,
        provision_trials,
        loop_config.params.parity_cols() / 2,
    )
    .expect("closed loop runs");
    println!(
        "closed loop at coverage {coverage}: exact decode uniform {}/{} vs planned {}/{}",
        outcome.uniform_exact, outcome.trials, outcome.planned_exact, outcome.trials
    );
    println!("  plan from chaos histograms: {}", outcome.plan_summary);
    assert!(
        outcome.planned_exact > outcome.uniform_exact,
        "chaos-provisioned plan must beat uniform at equal density \
         (uniform {}/{} vs planned {}/{})",
        outcome.uniform_exact,
        outcome.trials,
        outcome.planned_exact,
        outcome.trials
    );
    println!("(equal synthesis cost; the chaos-measured plan dominates under the same chaos)");
}
