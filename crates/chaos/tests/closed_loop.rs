//! The measure→plan→deploy loop under chaos, at reduced scale: chaos
//! trial histograms → [`SkewProfile::from_reports`] → planner →
//! redeployed against the identical chaos — and the planned arm must
//! beat uniform on exact decodes at equal parity density.
//!
//! [`SkewProfile::from_reports`]: dna_storage::SkewProfile::from_reports

use dna_channel::ChannelModel;
use dna_chaos::{
    closed_loop, run_campaign, CampaignConfig, ChaosScenario, FaultPlan, PayloadKind, PoolFault,
    ScenarioKind,
};
use dna_storage::{CodecParams, SkewProfile};

/// 160 + 24 ≤ 255: parity headroom for a non-uniform plan (the laptop
/// geometry is field-saturated at 208 + 47 = 255).
fn headroom_params() -> CodecParams {
    CodecParams::new(dna_gf::Field::gf256(), 30, 160, 24, 8).expect("headroom params")
}

fn loop_scenario() -> ChaosScenario {
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
            coverage: 14.0,
            unlabeled: false,
            payload: PayloadKind::Patterned,
        },
    }
}

#[test]
fn chaos_measured_plan_beats_uniform_at_equal_density() {
    let config = CampaignConfig {
        seed: 42,
        trials: 12,
        params: headroom_params(),
        scratch: std::env::temp_dir().join("dna-chaos-loop-test"),
    };
    let outcome = closed_loop(&loop_scenario(), &config, 6, 12).expect("closed loop runs");
    assert!(
        outcome.planned_exact > outcome.uniform_exact,
        "chaos-provisioned protection must beat uniform under the same chaos \
         (uniform {}/{} vs planned {}/{})",
        outcome.uniform_exact,
        outcome.trials,
        outcome.planned_exact,
        outcome.trials
    );
}

/// The campaign's failure histograms are usable planner input directly:
/// `ChaosReport::decode_reports` → `SkewProfile::from_reports` yields a
/// profile whose hottest rows are the decay channel's 3' tail.
#[test]
fn campaign_histograms_feed_skew_profiles() {
    let config = CampaignConfig {
        seed: 7,
        trials: 6,
        params: headroom_params(),
        scratch: std::env::temp_dir().join("dna-chaos-profile-test"),
    };
    let report = run_campaign(&[loop_scenario()], &config).expect("campaign runs");
    assert!(
        report.scenarios[0].row_errors.iter().sum::<usize>() > 0,
        "chaos trials must produce row-error histograms"
    );
    let profile = SkewProfile::from_reports(report.decode_reports(), config.params.cols())
        .expect("histograms make a profile");
    let rows = config.params.rows();
    let head: f64 = (0..rows / 3).map(|r| profile.rate(r)).sum();
    let tail: f64 = (2 * rows / 3..rows).map(|r| profile.rate(r)).sum();
    assert!(
        tail > head,
        "decay-channel chaos must profile hotter at the 3' tail (head {head:.5} vs tail {tail:.5})"
    );
}
