//! Sequencing coverage models.

use crate::ChannelError;
use rand::Rng;
use rand_distr::{Distribution, Gamma};

/// The largest mean coverage a validated scenario accepts
/// (`dna_storage::Scenario::validate`). The paper sweeps coverages up to
/// 45; a pool is generated at the sweep maximum, so a coverage far
/// beyond this would allocate reads without bound. Pool generation caps
/// every molecule's reads at a fixed multiple of it
/// ([`ReadPool::generate`](crate::ReadPool::generate)).
pub const MAX_COVERAGE: f64 = 5000.0;

/// How many noisy reads each original molecule receives.
///
/// The paper emphasizes (§4.1) that "coverage is never fixed across all
/// clusters. Instead, coverage follows the Gamma distribution, with a
/// significant variation in size across individual clusters" — which is why
/// unequal error correction cannot be provisioned statically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoverageModel {
    /// Every cluster receives exactly this many reads.
    Fixed(usize),
    /// Cluster sizes are Gamma-distributed (rounded to the nearest count;
    /// zero-read clusters model lost molecules, i.e. erasures).
    Gamma {
        /// Mean coverage (= shape × scale).
        mean: f64,
        /// Shape parameter k; larger k concentrates sizes around the mean.
        shape: f64,
    },
}

impl CoverageModel {
    /// A Gamma coverage model with this crate's default shape (k = 6),
    /// giving the broad cluster-size spread reported for real pipelines.
    ///
    /// # Errors
    ///
    /// Returns [`ChannelError::InvalidCoverage`] for non-positive or
    /// non-finite means.
    pub fn gamma_with_mean(mean: f64) -> Result<CoverageModel, ChannelError> {
        if !mean.is_finite() || mean <= 0.0 {
            return Err(ChannelError::InvalidCoverage(mean));
        }
        Ok(CoverageModel::Gamma { mean, shape: 6.0 })
    }

    /// The mean coverage of the model.
    pub fn mean(&self) -> f64 {
        match *self {
            CoverageModel::Fixed(n) => n as f64,
            CoverageModel::Gamma { mean, .. } => mean,
        }
    }

    /// Samples a cluster size. A `Gamma` model with mean 0 is the point
    /// mass at zero: every molecule is lost, as under `Fixed(0)`.
    ///
    /// # Panics
    ///
    /// Panics if a `Gamma` variant was constructed manually with a
    /// negative `mean` or a non-positive `shape`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        match *self {
            CoverageModel::Fixed(n) => n,
            CoverageModel::Gamma { mean: 0.0, .. } => 0,
            CoverageModel::Gamma { mean, shape } => {
                let scale = mean / shape;
                let gamma = Gamma::new(shape, scale).expect("validated Gamma parameters");
                gamma.sample(rng).round().max(0.0) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fixed_is_constant() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = CoverageModel::Fixed(7);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), 7);
        }
        assert_eq!(m.mean(), 7.0);
    }

    #[test]
    fn gamma_matches_requested_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = CoverageModel::gamma_with_mean(10.0).unwrap();
        let n = 20_000;
        let total: usize = (0..n).map(|_| m.sample(&mut rng)).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 0.2, "sampled mean {mean}");
    }

    #[test]
    fn gamma_shows_meaningful_spread_including_small_clusters() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = CoverageModel::gamma_with_mean(5.0).unwrap();
        let samples: Vec<usize> = (0..5000).map(|_| m.sample(&mut rng)).collect();
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        assert!(min <= 2, "min sample {min}");
        assert!(max >= 10, "max sample {max}");
    }

    #[test]
    fn zero_mean_gamma_loses_every_molecule() {
        let mut rng = StdRng::seed_from_u64(4);
        let m = CoverageModel::Gamma {
            mean: 0.0,
            shape: 6.0,
        };
        assert!((0..100).all(|_| m.sample(&mut rng) == 0));
    }

    #[test]
    fn invalid_means_rejected() {
        assert!(CoverageModel::gamma_with_mean(0.0).is_err());
        assert!(CoverageModel::gamma_with_mean(-3.0).is_err());
        assert!(CoverageModel::gamma_with_mean(f64::INFINITY).is_err());
    }
}
