//! Scenario descriptors, the built-in preset suite, the deterministic
//! campaign runner, and the measure→plan→deploy closed loop.
//!
//! A campaign is a list of [`ChaosScenario`]s, each run for `trials`
//! independent trials against a hidden ground-truth payload. Trials are
//! fanned out over [`dna_parallel::parallel_map`], and every random
//! draw derives from the campaign seed through splitmix64 streams, so
//! the same seed produces the identical [`ChaosReport`] at any thread
//! count — the property the conformance golden cell pins.

use crate::byte_fault::{apply_byte_fault, ByteFault};
use crate::fault::{splitmix64, FaultContext, FaultPlan, PoolFault};
use crate::verdict::{score_bytes, score_decode, Verdict, VerdictTally};
use dna_channel::{AnonymousPool, ChannelModel, ErrorModel};
use dna_object::{ObjectStore, StoreConfig};
use dna_storage::{
    CodecParams, DecodeReport, Layout, Pipeline, ProtectionPlanner, RetrieveOptions, Scenario,
    SkewProfile, StorageError, UnitReads,
};
use std::path::PathBuf;

/// Ground-truth payload family for a pool scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// `i % 251` bytes — distinct columns, the benign default.
    Patterned,
    /// A constant byte — every molecule is a near-duplicate of every
    /// other, distinguishable only by its ordering index. Adversarial
    /// for any recovery that groups reads by content rather than index.
    Constant,
}

impl PayloadKind {
    fn build(self, bytes: usize) -> Vec<u8> {
        match self {
            PayloadKind::Patterned => (0..bytes).map(|i| (i % 251) as u8).collect(),
            PayloadKind::Constant => vec![0x5A; bytes],
        }
    }
}

/// What one scenario subjects the system to.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioKind {
    /// Channel + pool-layer faults against the encode → sequence →
    /// (recover) → decode path.
    Pool {
        /// Pool-layer faults, applied after sequencing.
        plan: FaultPlan,
        /// The sequencing channel under the faults.
        channel: ChannelModel,
        /// Mean reads per molecule.
        coverage: f64,
        /// Shuffle/flip into an [`AnonymousPool`] and decode through
        /// the pipeline's recovery stage (index-first routing,
        /// [`RecoveryPipeline::anchored`](dna_storage::RecoveryPipeline::anchored)).
        unlabeled: bool,
        /// Ground-truth payload family.
        payload: PayloadKind,
    },
    /// A byte-level fault against the object store's on-disk state
    /// (create → put → fault → reopen → fetch).
    Object {
        /// The fault to inject between close and reopen.
        fault: ByteFault,
    },
}

/// One named adversarial scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosScenario {
    /// Stable name (keys the per-scenario seed stream and the report).
    pub name: String,
    /// What the scenario does.
    pub kind: ScenarioKind,
}

/// Campaign-wide knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed; the entire [`ChaosReport`] is a function of it.
    pub seed: u64,
    /// Trials per scenario.
    pub trials: usize,
    /// Codec geometry for pool scenarios (unlabeled ones need a primer
    /// length, see [`CodecParams::with_primer_len`]).
    pub params: CodecParams,
    /// Scratch root for object-store trials (one subdirectory per
    /// trial, removed afterwards).
    pub scratch: PathBuf,
}

impl CampaignConfig {
    /// A quick campaign at the tiny GF(16) geometry wrapped in 15-base
    /// primers — the conformance and smoke-test operating point, and the
    /// geometry of the recovery conformance cell. Unlabeled pool
    /// scenarios need the primers: they orient and demultiplex every
    /// read.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when `trials` is zero: a
    /// campaign that runs nothing cannot pass the silent-corruption gate.
    pub fn quick(seed: u64, trials: usize) -> Result<CampaignConfig, StorageError> {
        if trials == 0 {
            return Err(StorageError::InvalidParams(
                "chaos campaign has zero trials: nothing would be checked (trials must be ≥ 1)"
                    .into(),
            ));
        }
        Ok(CampaignConfig {
            seed,
            trials,
            params: CodecParams::tiny()?.with_primer_len(15),
            scratch: std::env::temp_dir()
                .join(format!("dna-chaos-{}-{seed:08x}", std::process::id())),
        })
    }
}

/// The outcome of one scenario's trials.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// Verdict counts across trials.
    pub tally: VerdictTally,
    /// Per-row corrected-symbol histogram summed over every trial that
    /// produced a [`DecodeReport`] — the scenario's failure histogram
    /// and [`SkewProfile::from_reports`] raw material.
    pub row_errors: Vec<usize>,
    /// Every trial's decode report (pool scenarios only).
    pub reports: Vec<DecodeReport>,
}

impl ScenarioOutcome {
    /// `"<name> exact=… degraded=… loud=… silent=…"` — the line format
    /// pinned by the conformance goldens.
    pub fn summary(&self) -> String {
        format!("{} {}", self.name, self.tally.summary())
    }
}

/// A full campaign's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// Per-scenario outcomes, in scenario order.
    pub scenarios: Vec<ScenarioOutcome>,
}

impl ChaosReport {
    /// Verdict counts summed over every scenario.
    pub fn totals(&self) -> VerdictTally {
        let mut t = VerdictTally::default();
        for s in &self.scenarios {
            t.merge_from(&s.tally);
        }
        t
    }

    /// Total [`Verdict::SilentCorruption`] trials — the number the
    /// campaign exists to drive (and keep) at zero.
    pub fn silent_corruptions(&self) -> usize {
        self.totals().silent
    }

    /// One summary line per scenario (the golden-cell payload).
    pub fn summary_lines(&self) -> Vec<String> {
        self.scenarios
            .iter()
            .map(ScenarioOutcome::summary)
            .collect()
    }

    /// Every decode report across every pool scenario, in order —
    /// feed directly to [`SkewProfile::from_reports`].
    pub fn decode_reports(&self) -> impl Iterator<Item = &DecodeReport> + '_ {
        self.scenarios.iter().flat_map(|s| s.reports.iter())
    }

    /// An aligned scenario × verdict table for human consumption.
    pub fn to_table(&self) -> String {
        let name_w = self
            .scenarios
            .iter()
            .map(|s| s.name.len())
            .chain(["scenario".len(), "TOTAL".len()])
            .max()
            .unwrap_or(8);
        let mut out = format!(
            "{:name_w$}  {:>6} {:>9} {:>6} {:>7}\n",
            "scenario", "exact", "degraded", "loud", "silent"
        );
        for s in &self.scenarios {
            let t = &s.tally;
            out.push_str(&format!(
                "{:name_w$}  {:>6} {:>9} {:>6} {:>7}\n",
                s.name, t.exact, t.degraded, t.loud, t.silent
            ));
        }
        let t = self.totals();
        out.push_str(&format!(
            "{:name_w$}  {:>6} {:>9} {:>6} {:>7}\n",
            "TOTAL", t.exact, t.degraded, t.loud, t.silent
        ));
        out
    }
}

/// FNV-1a of a scenario name: the stable per-scenario seed salt.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The built-in preset suite: the five pool-layer adversaries and five
/// object-store byte-fault regimes the acceptance bar ("zero silent
/// corruption at default settings") is measured over.
pub fn builtin_presets() -> Vec<ChaosScenario> {
    let pool = |name: &str,
                plan: FaultPlan,
                channel: ChannelModel,
                coverage: f64,
                unlabeled: bool,
                payload: PayloadKind| ChaosScenario {
        name: name.to_string(),
        kind: ScenarioKind::Pool {
            plan,
            channel,
            coverage,
            unlabeled,
            payload,
        },
    };
    let object = |name: &str, fault: ByteFault| ChaosScenario {
        name: name.to_string(),
        kind: ScenarioKind::Object { fault },
    };
    vec![
        pool(
            "dropout-sustained",
            FaultPlan::new().with(PoolFault::Dropout { rate: 0.45 }),
            ChannelModel::uniform(ErrorModel::uniform(0.01)),
            10.0,
            false,
            PayloadKind::Patterned,
        ),
        pool(
            "index-burst",
            FaultPlan::new().with(PoolFault::IndexBurst {
                rate: 0.6,
                burst: 3,
            }),
            ChannelModel::uniform(ErrorModel::uniform(0.02)),
            8.0,
            true,
            PayloadKind::Patterned,
        ),
        pool(
            "contamination",
            FaultPlan::new().with(PoolFault::Contamination { fraction: 0.35 }),
            ChannelModel::uniform(ErrorModel::uniform(0.02)),
            8.0,
            true,
            PayloadKind::Patterned,
        ),
        pool(
            "truncate-chimera",
            FaultPlan::new()
                .with(PoolFault::TruncateReads {
                    fraction: 0.35,
                    keep_min: 0.4,
                    keep_max: 0.85,
                })
                .with(PoolFault::Chimera { fraction: 0.25 }),
            ChannelModel::uniform(ErrorModel::uniform(0.02)),
            9.0,
            true,
            PayloadKind::Patterned,
        ),
        pool(
            "near-duplicate",
            FaultPlan::new(),
            ChannelModel::uniform(ErrorModel::uniform(0.03)),
            8.0,
            true,
            PayloadKind::Constant,
        ),
        object(
            "torn-append",
            ByteFault::TornAppend {
                keep_min: 0.35,
                keep_max: 0.95,
            },
        ),
        object("header-flip", ByteFault::FlipCapsuleHeaderByte),
        object("strand-flip", ByteFault::FlipStrandByte),
        object("sidecar-corrupt", ByteFault::CorruptSidecar),
        object(
            "sidecar-torn",
            ByteFault::TruncateSidecar {
                keep_min: 0.2,
                keep_max: 0.8,
            },
        ),
    ]
}

/// Runs every scenario through a Baseline pipeline at
/// `config.params` and aggregates the verdicts.
///
/// # Errors
///
/// Encode failures, invalid geometry, and object-trial infrastructure
/// failures (scratch-directory I/O). Decode/fetch failures are *not*
/// errors — they are verdicts.
pub fn run_campaign(
    scenarios: &[ChaosScenario],
    config: &CampaignConfig,
) -> Result<ChaosReport, StorageError> {
    let pipeline = Pipeline::builder()
        .params(config.params.clone())
        .layout(Layout::Baseline)
        .build()?;
    let mut outcomes = Vec::with_capacity(scenarios.len());
    for scenario in scenarios {
        outcomes.push(run_scenario(&pipeline, scenario, config)?);
    }
    Ok(ChaosReport {
        seed: config.seed,
        scenarios: outcomes,
    })
}

/// Runs one scenario's trials through an explicit pipeline (the hook
/// the closed loop uses to compare uniform vs planned protection under
/// identical chaos).
///
/// # Errors
///
/// See [`run_campaign`].
pub fn run_scenario(
    pipeline: &Pipeline,
    scenario: &ChaosScenario,
    config: &CampaignConfig,
) -> Result<ScenarioOutcome, StorageError> {
    let scenario_seed = splitmix64(config.seed ^ fnv64(scenario.name.as_bytes()));
    let per_trial: Vec<(Verdict, Option<DecodeReport>)> = match &scenario.kind {
        ScenarioKind::Pool {
            plan,
            channel,
            coverage,
            unlabeled,
            payload,
        } => {
            let payload = payload.build(pipeline.payload_capacity());
            let unit = pipeline.encode_unit(&payload)?;
            // A decoy unit from a different payload supplies the
            // foreign reads contamination faults draw from.
            let needs_foreign = plan
                .faults()
                .iter()
                .any(|f| matches!(f, PoolFault::Contamination { .. }));
            let foreign_reads = if needs_foreign {
                let decoy_payload: Vec<u8> = (0..pipeline.payload_capacity())
                    .map(|i| ((i * 7 + 13) % 249) as u8)
                    .collect();
                let decoy_unit = pipeline.encode_unit(&decoy_payload)?;
                let decoy_scenario = Scenario::with_channel(channel.clone())
                    .single_coverage(*coverage)
                    .seed(splitmix64(scenario_seed ^ 0xF0E1));
                let decoy_pool = decoy_scenario.backend().sequence_unit(
                    1,
                    decoy_unit.strands(),
                    splitmix64(scenario_seed ^ 0xF0E1),
                );
                decoy_pool
                    .at_coverage(*coverage)
                    .into_iter()
                    .flat_map(|c| c.reads)
                    .collect()
            } else {
                Vec::new()
            };
            let params = pipeline.params();
            let (index_start, index_len) =
                params.transcoder().field_span(0, params.payload_geometry());
            let ctx = FaultContext {
                index_region: params.primer_len() + index_start + index_len + 2,
                foreign_reads,
            };
            dna_parallel::parallel_map(config.trials, |t| {
                let ts = splitmix64(
                    scenario_seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                );
                let backend = Scenario::with_channel(channel.clone())
                    .single_coverage(*coverage)
                    .seed(ts)
                    .backend();
                let pool = backend.sequence_unit(0, unit.strands(), ts);
                let mut clusters = pool.at_coverage(*coverage);
                plan.apply(&mut clusters, &ctx, splitmix64(ts ^ 0xFA17));
                let anon;
                let reads = if *unlabeled {
                    anon = AnonymousPool::from_clusters(&clusters, splitmix64(ts ^ 0x0A17));
                    UnitReads::Pool(&anon)
                } else {
                    UnitReads::Clusters(&clusters)
                };
                let outcome = pipeline
                    .decode(&[reads], &RetrieveOptions::default(), None)
                    .map(|mut decoded| decoded.remove(0));
                let verdict = score_decode(&payload, &outcome);
                (verdict, outcome.ok().map(|(_, report)| report))
            })
        }
        ScenarioKind::Object { fault } => {
            std::fs::create_dir_all(&config.scratch)?;
            let slug: String = scenario
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
                .collect();
            let results: Vec<Result<Verdict, StorageError>> =
                dna_parallel::parallel_map(config.trials, |t| {
                    let ts = splitmix64(
                        scenario_seed.wrapping_add((t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    );
                    let dir = config.scratch.join(format!("{slug}-t{t}"));
                    if dir.exists() {
                        std::fs::remove_dir_all(&dir)?;
                    }
                    let verdict = run_object_trial(&dir, fault, ts);
                    let _ = std::fs::remove_dir_all(&dir);
                    verdict
                });
            results
                .into_iter()
                .map(|r| r.map(|v| (v, None)))
                .collect::<Result<Vec<_>, _>>()?
        }
    };

    let mut tally = VerdictTally::default();
    let mut row_errors: Vec<usize> = Vec::new();
    let mut reports = Vec::new();
    for (verdict, report) in per_trial {
        tally.record(verdict);
        if let Some(report) = report {
            if row_errors.len() < report.row_errors.len() {
                row_errors.resize(report.row_errors.len(), 0);
            }
            for (slot, &count) in row_errors.iter_mut().zip(report.row_errors.iter()) {
                *slot += count;
            }
            reports.push(report);
        }
    }
    Ok(ScenarioOutcome {
        name: scenario.name.clone(),
        tally,
        row_errors,
        reports,
    })
}

/// One object-store trial: create → put → fault → reopen → fetch,
/// scored against the stored payload. A typed failure at open falls
/// back to [`ObjectStore::rebuild_manifest`]; bytes recovered after
/// that reported incident score [`Verdict::DegradedReported`].
fn run_object_trial(
    dir: &std::path::Path,
    fault: &ByteFault,
    trial_seed: u64,
) -> Result<Verdict, StorageError> {
    let config = StoreConfig::tiny()?.with_pool_seed(splitmix64(trial_seed ^ 0x5EED));
    let mut store = ObjectStore::create(dir, config)?;
    let bytes = store.capsule_capacity() * 2 + store.capsule_capacity() / 3;
    let payload: Vec<u8> = (0..bytes)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(trial_seed) as u8)
        .collect();
    let id = store.put_bytes("chaos", &payload)?;
    drop(store);

    apply_byte_fault(dir, fault, trial_seed)?;

    let verdict = match ObjectStore::open(dir) {
        Ok(store) => score_bytes(&payload, &store.get(id), false),
        Err(_typed) => match ObjectStore::rebuild_manifest(dir) {
            Ok((store, _report)) => score_bytes(&payload, &store.get(id), true),
            Err(_typed_again) => Verdict::FailedLoud,
        },
    };
    Ok(verdict)
}

/// The measure→plan→deploy closed loop under one pool scenario: the
/// uniform pipeline provisions (its chaos-trial [`DecodeReport`]s feed
/// [`SkewProfile::from_reports`]), the [`ProtectionPlanner`]
/// redistributes the same parity budget, and both arms then face the
/// identical chaos channel.
#[derive(Debug, Clone)]
pub struct ClosedLoopOutcome {
    /// Exact-decode trials for the uniform arm.
    pub uniform_exact: usize,
    /// Exact-decode trials for the planned arm.
    pub planned_exact: usize,
    /// Trials per arm.
    pub trials: usize,
    /// The plan the chaos histograms produced.
    pub plan_summary: String,
}

/// Runs the closed loop for a pool scenario at `config.params` (which
/// must leave parity headroom — a field-saturated geometry cannot host
/// a non-uniform plan).
///
/// # Errors
///
/// See [`run_campaign`]; additionally planner/profile construction
/// errors when the provisioning run produced no usable histograms.
pub fn closed_loop(
    scenario: &ChaosScenario,
    config: &CampaignConfig,
    provision_trials: usize,
    min_parity: usize,
) -> Result<ClosedLoopOutcome, StorageError> {
    if !matches!(scenario.kind, ScenarioKind::Pool { .. }) {
        return Err(StorageError::InvalidParams(
            "closed_loop needs a pool scenario (object faults carry no row histograms)".into(),
        ));
    }
    let uniform = Pipeline::builder()
        .params(config.params.clone())
        .layout(Layout::Baseline)
        .build()?;
    // Provision: measure the per-row damage empirically, through the
    // uniform pipeline, under the same chaos the deployment will face
    // (no oracle access to the fault plan) — but at 1.5× the deployment
    // coverage, so the histograms record *where* the damage lands
    // rather than the noise floor of outright decode collapse.
    let mut provision_scenario = scenario.clone();
    if let ScenarioKind::Pool { coverage, .. } = &mut provision_scenario.kind {
        *coverage *= 1.5;
    }
    let provision_config = CampaignConfig {
        seed: splitmix64(config.seed ^ 0x9D0F_15E0),
        trials: provision_trials,
        ..config.clone()
    };
    let provisioned = run_scenario(&uniform, &provision_scenario, &provision_config)?;
    let profile = SkewProfile::from_reports(provisioned.reports.iter(), config.params.cols())?;
    let planned = Pipeline::builder()
        .params(config.params.clone())
        .layout(Layout::Baseline)
        .protection(ProtectionPlanner::new(profile).min_parity(min_parity))
        .build()?;
    let plan_summary = planned.protection_plan().summary();

    let uniform_outcome = run_scenario(&uniform, scenario, config)?;
    let planned_outcome = run_scenario(&planned, scenario, config)?;
    Ok(ClosedLoopOutcome {
        uniform_exact: uniform_outcome.tally.exact,
        planned_exact: planned_outcome.tally.exact,
        trials: config.trials,
        plan_summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_campaign_of_zero_trials_is_rejected() {
        assert!(matches!(
            CampaignConfig::quick(1, 0),
            Err(StorageError::InvalidParams(_))
        ));
        assert_eq!(CampaignConfig::quick(1, 1).unwrap().trials, 1);
    }
}
