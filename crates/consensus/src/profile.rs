//! Positional-error profiling: measures the reliability skew.
//!
//! These harnesses regenerate the paper's skew curves: run many
//! independent trials of (random original → noisy reads → reconstruction)
//! and record, for every position, how often the reconstructed base
//! disagrees with the original. Trials fan out across threads; results are
//! deterministic in the seed regardless of thread count because every
//! trial derives its own RNG stream.

use crate::{ConstrainedMedian, TieBreak, TraceReconstructor};
use dna_channel::{ChannelModel, ErrorModel};
use dna_strand::DnaString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A measured per-position error profile.
#[derive(Debug, Clone, PartialEq)]
pub struct SkewProfile {
    /// `per_position[i]` = probability that position `i` was reconstructed
    /// incorrectly.
    pub per_position: Vec<f64>,
    /// Number of trials aggregated.
    pub trials: usize,
}

impl SkewProfile {
    /// The mean error probability across positions.
    pub fn mean(&self) -> f64 {
        if self.per_position.is_empty() {
            return 0.0;
        }
        self.per_position.iter().sum::<f64>() / self.per_position.len() as f64
    }

    /// The peak (worst-position) error probability.
    pub fn peak(&self) -> f64 {
        self.per_position.iter().copied().fold(0.0, f64::max)
    }

    /// Index of the worst position.
    pub fn peak_position(&self) -> usize {
        self.per_position
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Ratio of the middle-third mean to the outer-thirds mean — a scalar
    /// skew measure (1.0 ≈ flat, ≫1 = mid-strand peak).
    pub fn middle_to_ends_ratio(&self) -> f64 {
        let l = self.per_position.len();
        if l < 3 {
            return 1.0;
        }
        let third = l / 3;
        let middle: f64 =
            self.per_position[third..l - third].iter().sum::<f64>() / (l - 2 * third) as f64;
        let ends: f64 = (self.per_position[..third].iter().sum::<f64>()
            + self.per_position[l - third..].iter().sum::<f64>())
            / (2 * third) as f64;
        if ends == 0.0 {
            if middle == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            middle / ends
        }
    }
}

/// Derives an independent RNG for trial `t` of stream `seed`.
fn trial_rng(seed: u64, t: u64) -> StdRng {
    let mut z = seed ^ t.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z = (z ^ (z >> 32)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    z ^= z >> 32;
    StdRng::seed_from_u64(z)
}

/// Fans `trials` out across threads via [`dna_parallel::parallel_fold`],
/// accumulating per-position disagreement counts.
fn fan_out<F>(l: usize, trials: usize, per_trial: F) -> SkewProfile
where
    F: Fn(u64, &mut Vec<u64>) + Sync,
{
    let totals = dna_parallel::parallel_fold(
        trials,
        || vec![0u64; l],
        |counts, t| per_trial(t as u64, counts),
        |totals, counts| {
            for (t, c) in totals.iter_mut().zip(counts) {
                *t += c;
            }
        },
    );
    SkewProfile {
        per_position: totals
            .into_iter()
            .map(|c| c as f64 / trials.max(1) as f64)
            .collect(),
        trials,
    }
}

/// Measures the per-position error probability of `algo` on length-`l`
/// DNA strands read `n` times through `model` noise (paper Figs. 3–5).
pub fn dna_skew_profile<A>(
    algo: &A,
    l: usize,
    n: usize,
    model: ErrorModel,
    trials: usize,
    seed: u64,
) -> SkewProfile
where
    A: TraceReconstructor + Sync,
{
    let channel = ChannelModel::uniform(model);
    fan_out(l, trials, |t, counts| {
        let mut rng = trial_rng(seed, t);
        let original = DnaString::random(l, &mut rng);
        let reads = channel.transmit_many(&original, n, &mut rng);
        let got = algo.reconstruct(&reads, l);
        for i in 0..l {
            if got[i] != original[i] {
                counts[i] += 1;
            }
        }
    })
}

/// Measures the per-position error probability of the **optimal**
/// constrained median with adversarial tie-breaking on binary strings
/// (paper Fig. 6: L = 20, p = 20%, N ∈ {2, 4, 8, 16}).
pub fn binary_median_skew_profile(
    l: usize,
    n: usize,
    model: ErrorModel,
    trials: usize,
    seed: u64,
    node_budget: usize,
) -> SkewProfile {
    fan_out(l, trials, |t, counts| {
        let mut rng = trial_rng(seed, t);
        let original: Vec<u8> = (0..l).map(|_| rng.gen_range(0..2)).collect();
        let reads: Vec<Vec<u8>> = (0..n)
            .map(|_| crate::distort_symbols(&original, 2, &model, &mut rng))
            .collect();
        let out = ConstrainedMedian::new(2, l)
            .with_node_budget(node_budget)
            .reconstruct(&reads, TieBreak::AdversarialMiddle(&original));
        for i in 0..l {
            if out.median[i] != original[i] {
                counts[i] += 1;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BmaOneWay, BmaTwoWay};

    #[test]
    fn profile_is_deterministic_in_seed() {
        let algo = BmaTwoWay::default();
        let a = dna_skew_profile(&algo, 60, 4, ErrorModel::uniform(0.08), 40, 5);
        let b = dna_skew_profile(&algo, 60, 4, ErrorModel::uniform(0.08), 40, 5);
        let c = dna_skew_profile(&algo, 60, 4, ErrorModel::uniform(0.08), 40, 6);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn one_way_profile_rises_two_way_peaks() {
        let p = ErrorModel::uniform(0.06);
        let one = dna_skew_profile(&BmaOneWay::default(), 120, 5, p, 250, 1);
        let two = dna_skew_profile(&BmaTwoWay::default(), 120, 5, p, 250, 1);
        // One-way: last-quarter error ≫ first-quarter error.
        let q = 30;
        let head: f64 = one.per_position[..q].iter().sum();
        let tail: f64 = one.per_position[120 - q..].iter().sum();
        assert!(tail > head * 2.0, "one-way head {head} tail {tail}");
        // Two-way: the peak sits in the middle half, and is roughly half
        // of the one-way end peak.
        let peak_pos = two.peak_position();
        assert!((30..90).contains(&peak_pos), "two-way peak at {peak_pos}");
        assert!(two.middle_to_ends_ratio() > 1.5);
        assert!(two.peak() < one.peak());
    }

    #[test]
    fn substitution_only_noise_shows_no_skew_for_iterative() {
        // Paper Fig. 5, brown vs orange lines (both measured on the
        // state-of-the-art iterative reconstructor): at the SAME 10% total
        // error rate, substitution-only noise is easy and flat, while the
        // uniform mix (indels present) shows a strong mid-strand peak.
        let algo = crate::IterativeReconstructor::default();
        let subs = dna_skew_profile(&algo, 100, 5, ErrorModel::substitutions_only(0.10), 150, 2);
        let mixed = dna_skew_profile(&algo, 100, 5, ErrorModel::uniform(0.10), 150, 2);
        // ~0.4% is the majority-vote floor at N=5, p=10%; "flat ≈ 0" in the
        // paper's plot scale means staying within a few times that floor.
        assert!(subs.mean() < 0.015, "subs mean {}", subs.mean());
        assert!(
            mixed.peak() > 5.0 * subs.peak().max(1e-3),
            "mixed peak {} vs subs peak {}",
            mixed.peak(),
            subs.peak()
        );
        assert!(mixed.middle_to_ends_ratio() > 1.5);
    }

    #[test]
    fn optimal_median_still_shows_skew() {
        // Scaled-down Fig. 6: binary, L = 12, p = 20%, N = 4.
        let prof = binary_median_skew_profile(12, 4, ErrorModel::uniform(0.20), 120, 3, 2_000_000);
        assert_eq!(prof.per_position.len(), 12);
        assert!(
            prof.middle_to_ends_ratio() > 1.2,
            "ratio {} profile {:?}",
            prof.middle_to_ends_ratio(),
            prof.per_position
        );
    }

    #[test]
    fn skew_profile_statistics() {
        let prof = SkewProfile {
            per_position: vec![0.1, 0.4, 0.1],
            trials: 10,
        };
        assert!((prof.mean() - 0.2).abs() < 1e-12);
        assert_eq!(prof.peak_position(), 1);
        assert!((prof.peak() - 0.4).abs() < 1e-12);
        assert!((prof.middle_to_ends_ratio() - 4.0).abs() < 1e-12);
    }
}
