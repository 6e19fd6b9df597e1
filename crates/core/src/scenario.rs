//! The [`Scenario`] descriptor: one shared vocabulary for "run the
//! pipeline under these channel conditions".
//!
//! Every experiment in the paper is the same loop — pick an error model,
//! a coverage model, a sweep of coverages, a trial count, and a seed —
//! yet each bench target, example, and CLI subcommand used to re-wire
//! that glue by hand. A `Scenario` names the whole operating point once
//! and hands out the derived pieces: the pool-generation coverage model,
//! per-trial seeds, and a ready-made [`SimulatedSequencer`].

use crate::StorageError;
pub use dna_channel::MAX_COVERAGE;
use dna_channel::{ChannelModel, CoverageModel, ErrorModel, SimulatedSequencer};

/// The default Gamma shape used across the paper's experiments (§6.1.2).
pub const GAMMA_SHAPE: f64 = 6.0;

/// One channel operating point: channel model + coverage draw + sweep +
/// trials + seed.
///
/// # Examples
///
/// ```
/// use dna_storage::Scenario;
/// use dna_channel::{ChannelModel, ErrorModel};
///
/// let scenario = Scenario::new(ErrorModel::uniform(0.06))
///     .coverage_range(2, 30)
///     .trials(5)
///     .seed(11);
/// assert_eq!(scenario.max_coverage(), 30.0);
/// assert_ne!(scenario.trial_seed(0), scenario.trial_seed(1));
///
/// // Richer channels slot into the same operating point:
/// let nanopore = Scenario::with_channel(ChannelModel::nanopore_decay(0.08))
///     .single_coverage(16.0);
/// assert!(!nanopore.channel.is_uniform());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The channel model: base IDS rates plus position- and strand-level
    /// skew (profile, dropout, PCR bias, bursts).
    pub channel: ChannelModel,
    /// The sweep's mean coverages. Pools are generated at the maximum and
    /// progressively drawn down (paper §6.1.2).
    pub coverages: Vec<f64>,
    /// Draw cluster sizes from a Gamma distribution (the realistic mode);
    /// `false` uses fixed per-cluster coverage.
    pub gamma: bool,
    /// Independent noise realizations per measured point.
    pub trials: usize,
    /// Base RNG seed; trial `t` derives its own stream via
    /// [`Scenario::trial_seed`].
    pub seed: u64,
    /// Run retrieval from *unlabeled* pools: reads are anonymized
    /// (labels dropped, orientation randomized, order shuffled — see
    /// [`dna_channel::AnonymousPool`]) and must be recovered by
    /// clustering + demultiplexing before decode, instead of the paper's
    /// perfect-clustering methodology.
    pub unlabeled: bool,
}

impl Scenario {
    /// A flat-channel scenario with the paper's defaults: coverages 3–30,
    /// Gamma cluster sizes, 5 trials, seed 1.
    pub fn new(model: ErrorModel) -> Scenario {
        Scenario::with_channel(ChannelModel::uniform(model))
    }

    /// A scenario running an arbitrary [`ChannelModel`], with the same
    /// sweep/trial/seed defaults as [`Scenario::new`].
    pub fn with_channel(channel: ChannelModel) -> Scenario {
        Scenario {
            channel,
            coverages: (3..=30).map(f64::from).collect(),
            gamma: true,
            trials: 5,
            seed: 1,
            unlabeled: false,
        }
    }

    /// Replaces the channel model, keeping the sweep, trials, and seed.
    pub fn channel_model(mut self, channel: ChannelModel) -> Scenario {
        self.channel = channel;
        self
    }

    /// Replaces the coverage sweep. The caller's order is preserved —
    /// quality sweeps report points in it; [`min_coverage`] scans
    /// candidates ascending regardless.
    ///
    /// [`min_coverage`]: crate::min_coverage
    pub fn coverages(mut self, coverages: impl IntoIterator<Item = f64>) -> Scenario {
        self.coverages = coverages.into_iter().collect();
        self
    }

    /// Sweeps the integer coverages `lo..=hi`.
    pub fn coverage_range(self, lo: u32, hi: u32) -> Scenario {
        self.coverages((lo..=hi).map(f64::from))
    }

    /// Measures a single coverage point.
    pub fn single_coverage(self, coverage: f64) -> Scenario {
        self.coverages([coverage])
    }

    /// Sets the trial count.
    pub fn trials(mut self, trials: usize) -> Scenario {
        self.trials = trials;
        self
    }

    /// Sets the base seed.
    pub fn seed(mut self, seed: u64) -> Scenario {
        self.seed = seed;
        self
    }

    /// Uses fixed per-cluster coverage instead of Gamma draws.
    pub fn fixed_coverage(mut self) -> Scenario {
        self.gamma = false;
        self
    }

    /// Uses Gamma-distributed cluster sizes (the default).
    pub fn gamma_coverage(mut self) -> Scenario {
        self.gamma = true;
        self
    }

    /// Switches retrieval to unlabeled pools (anonymize → recover →
    /// decode) instead of the paper's perfect clustering. Consumed by
    /// the experiment harnesses ([`min_coverage`](crate::min_coverage),
    /// [`quality_sweep`](crate::quality_sweep)) and the CLI's
    /// `simulate --unlabeled`; custom loops read the flag and drive
    /// [`Pipeline::decode_pool`](crate::Pipeline::decode_pool) with
    /// seeds from [`Scenario::anonymize_seed`].
    pub fn unlabeled(mut self) -> Scenario {
        self.unlabeled = true;
        self
    }

    /// The anonymization seed of trial `t`: derived from (but distinct
    /// from) the trial's channel seed, so shuffling/orientation draws
    /// never overlap the noise draws.
    pub fn anonymize_seed(&self, t: usize) -> u64 {
        self.trial_seed(t) ^ 0xA11F_1E1D_5EED_5EED
    }

    /// The largest coverage in the sweep — even when below 1.0 — or 1.0
    /// for an empty sweep.
    pub fn max_coverage(&self) -> f64 {
        if self.coverages.is_empty() {
            1.0
        } else {
            self.coverages
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        }
    }

    /// The coverage model pools are generated with: the sweep maximum as
    /// the mean, Gamma-distributed or fixed per [`Scenario::gamma`].
    pub fn pool_coverage(&self) -> CoverageModel {
        if self.gamma {
            CoverageModel::Gamma {
                mean: self.max_coverage(),
                shape: GAMMA_SHAPE,
            }
        } else {
            CoverageModel::Fixed(self.max_coverage().round() as usize)
        }
    }

    /// The base per-base error rates of the channel.
    pub fn model(&self) -> &ErrorModel {
        self.channel.base()
    }

    /// The simulated sequencer for this operating point.
    pub fn backend(&self) -> SimulatedSequencer {
        SimulatedSequencer::with_channel(self.channel.clone(), self.pool_coverage())
    }

    /// Checks that the scenario can actually measure something: at least
    /// one trial, a non-empty coverage sweep, and coverages in
    /// `0..=`[`MAX_COVERAGE`] (a zero coverage loses every molecule). The
    /// experiment harnesses treat degenerate scenarios as
    /// vacuous (they return `None`/empty); strict callers — the CLI, the
    /// conformance suite — call this first to get a descriptive error
    /// instead.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), StorageError> {
        if self.trials == 0 {
            return Err(StorageError::InvalidParams(
                "scenario has zero trials: nothing would be measured (set .trials(n) with n ≥ 1)"
                    .into(),
            ));
        }
        if self.coverages.is_empty() {
            return Err(StorageError::InvalidParams(
                "scenario has an empty coverage sweep: set .coverages(..) or .coverage_range(..)"
                    .into(),
            ));
        }
        if let Some(&bad) = self.coverages.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(StorageError::InvalidParams(format!(
                "coverage {bad} must be finite and non-negative"
            )));
        }
        if let Some(&bad) = self.coverages.iter().find(|&&c| c > MAX_COVERAGE) {
            return Err(StorageError::InvalidParams(format!(
                "coverage {bad} exceeds the maximum of {MAX_COVERAGE}"
            )));
        }
        Ok(())
    }

    /// The seed of trial `t`. Trial 0 keeps the base seed. This is the
    /// derivation `min_coverage` has always used; `quality_sweep`, the
    /// archive codec, and the CLI each had their own ad-hoc scheme before
    /// the `Scenario` refactor, so their noise realizations differ from
    /// pre-refactor runs at the same seed.
    pub fn trial_seed(&self, t: usize) -> u64 {
        self.seed ^ ((t as u64) << 17)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_methodology() {
        let s = Scenario::new(ErrorModel::uniform(0.09));
        assert_eq!(s.coverages.len(), 28);
        assert!(s.gamma);
        assert_eq!(s.trials, 5);
        assert_eq!(s.max_coverage(), 30.0);
        assert_eq!(
            s.pool_coverage(),
            CoverageModel::Gamma {
                mean: 30.0,
                shape: GAMMA_SHAPE
            }
        );
    }

    #[test]
    fn coverages_preserve_caller_order() {
        let s = Scenario::new(ErrorModel::noiseless()).coverages([9.0, 3.0, 6.0]);
        assert_eq!(s.coverages, vec![9.0, 3.0, 6.0]);
        assert_eq!(s.max_coverage(), 9.0);
    }

    #[test]
    fn fixed_mode_rounds_the_max() {
        let s = Scenario::new(ErrorModel::noiseless())
            .single_coverage(7.4)
            .fixed_coverage();
        assert_eq!(s.pool_coverage(), CoverageModel::Fixed(7));
    }

    #[test]
    fn sub_unit_coverages_are_not_floored() {
        let s = Scenario::new(ErrorModel::noiseless()).single_coverage(0.5);
        assert_eq!(s.max_coverage(), 0.5);
        assert_eq!(
            s.pool_coverage(),
            CoverageModel::Gamma {
                mean: 0.5,
                shape: GAMMA_SHAPE
            }
        );
    }

    #[test]
    fn unlabeled_mode_is_off_by_default_and_derives_its_own_seeds() {
        let s = Scenario::new(ErrorModel::uniform(0.05));
        assert!(!s.unlabeled);
        let s = s.unlabeled();
        assert!(s.unlabeled);
        for t in 0..4 {
            assert_ne!(s.anonymize_seed(t), s.trial_seed(t), "trial {t}");
        }
        assert_ne!(s.anonymize_seed(0), s.anonymize_seed(1));
    }

    #[test]
    fn trial_seeds_are_distinct_and_stable() {
        let s = Scenario::new(ErrorModel::noiseless()).seed(5);
        assert_eq!(s.trial_seed(0), 5);
        let seeds: Vec<u64> = (0..8).map(|t| s.trial_seed(t)).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len());
    }

    #[test]
    fn coverage_above_the_cap_is_rejected() {
        let ok = Scenario::new(ErrorModel::noiseless()).single_coverage(MAX_COVERAGE);
        assert!(ok.validate().is_ok());
        for bad in [MAX_COVERAGE * 2.0, 1e30] {
            let s = Scenario::new(ErrorModel::noiseless()).single_coverage(bad);
            assert!(
                matches!(s.validate(), Err(StorageError::InvalidParams(_))),
                "{bad}"
            );
        }
    }

    #[test]
    fn backend_reflects_the_operating_point() {
        let s = Scenario::new(ErrorModel::uniform(0.06)).coverage_range(2, 12);
        let b = s.backend();
        assert_eq!(b.model(), &ErrorModel::uniform(0.06));
        assert_eq!(b.coverage().mean(), 12.0);
    }
}
