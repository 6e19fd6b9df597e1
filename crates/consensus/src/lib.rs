//! Trace reconstruction (consensus finding) over noisy DNA reads — the
//! algorithmic step whose position-dependent accuracy *is* the reliability
//! skew studied by *Managing Reliability Bias in DNA Storage* (ISCA '22).
//!
//! After clustering, each cluster holds `N` noisy copies of an unknown
//! strand of length `L`; the decoder must find the most likely original.
//! With insertions and deletions present, aligning characters to their
//! original positions forces sequential guesses, and wrong guesses
//! propagate — so reconstruction accuracy *decays with position*:
//!
//! - [`BmaOneWay`]: the left-to-right majority-with-lookahead procedure of
//!   paper §3.1 (error grows monotonically with position — Fig. 3);
//! - [`BmaTwoWay`]: runs it from both ends and keeps each half from its
//!   better side (error peaks in the middle — Fig. 4). This is the
//!   consensus used by the state-of-the-art storage pipeline the paper
//!   builds on;
//! - [`IterativeReconstructor`]: a stronger realign-and-vote algorithm in
//!   the spirit of Sabary et al. (Fig. 5: the skew persists);
//! - [`ConstrainedMedian`]: *exact* constrained edit-distance median by
//!   branch-and-bound with an adversarial tie-break (Fig. 6: the skew is
//!   fundamental, not an algorithm artifact);
//! - [`profile`]: harnesses measuring per-position error probability.
//!
//! # Examples
//!
//! ```
//! use dna_channel::{ErrorModel, ChannelModel};
//! use dna_consensus::{BmaTwoWay, TraceReconstructor};
//! use dna_strand::DnaString;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let original = DnaString::random(120, &mut rng);
//! let channel = ChannelModel::uniform(ErrorModel::uniform(0.03));
//! let reads = channel.transmit_many(&original, 8, &mut rng);
//! let consensus = BmaTwoWay::default().reconstruct(&reads, original.len());
//! let mismatches = consensus.hamming_distance(&original).unwrap();
//! assert!(mismatches <= 6, "got {mismatches} mismatches");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bma;
mod iterative;
mod median;
pub mod profile;

pub use bma::{BmaOneWay, BmaTwoWay};
pub use iterative::IterativeReconstructor;
pub use median::{distort_symbols, ConstrainedMedian, MedianOutcome, TieBreak};

use dna_strand::DnaString;

/// A trace-reconstruction algorithm: estimates the original strand of known
/// length `target_len` from noisy reads.
///
/// Implementations must return a strand of exactly `target_len` bases and
/// must tolerate empty or short read sets (returning a best-effort guess);
/// the storage pipeline treats entirely missing clusters as erasures
/// *before* consensus, but robustness here keeps failure injection simple.
pub trait TraceReconstructor {
    /// Estimates the original strand.
    fn reconstruct(&self, reads: &[DnaString], target_len: usize) -> DnaString;

    /// Orientation-aware entry: reads flagged in `flips` are
    /// reverse-complemented back to the forward orientation before
    /// reconstruction — the shape handed over by unlabeled-pool recovery,
    /// where the orienter knows per read which physical strand the
    /// sequencer returned. `flips` shorter than `reads` treats the
    /// missing entries as forward.
    fn reconstruct_oriented(
        &self,
        reads: &[DnaString],
        flips: &[bool],
        target_len: usize,
    ) -> DnaString {
        if !flips.iter().any(|&f| f) {
            return self.reconstruct(reads, target_len);
        }
        let oriented: Vec<DnaString> = reads
            .iter()
            .enumerate()
            .map(|(i, r)| {
                if flips.get(i).copied().unwrap_or(false) {
                    r.reverse_complement()
                } else {
                    r.clone()
                }
            })
            .collect();
        self.reconstruct(&oriented, target_len)
    }

    /// A short human-readable name for reports and figures.
    fn name(&self) -> &'static str {
        "unnamed"
    }
}

#[cfg(test)]
mod trait_tests {
    use super::*;
    use dna_channel::{ChannelModel, ErrorModel};
    use rand::SeedableRng;

    #[test]
    fn oriented_reconstruction_matches_pre_flipped_reads() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(12);
        let original = DnaString::random(80, &mut rng);
        let channel = ChannelModel::uniform(ErrorModel::uniform(0.02));
        let reads = channel.transmit_many(&original, 6, &mut rng);
        // Flip half the reads, then ask the oriented entry to undo it.
        let flips: Vec<bool> = (0..reads.len()).map(|i| i % 2 == 0).collect();
        let mixed: Vec<DnaString> = reads
            .iter()
            .zip(&flips)
            .map(|(r, &f)| if f { r.reverse_complement() } else { r.clone() })
            .collect();
        let algo = BmaTwoWay::default();
        assert_eq!(
            algo.reconstruct_oriented(&mixed, &flips, original.len()),
            algo.reconstruct(&reads, original.len()),
        );
        // An all-forward flip mask is exactly the plain entry.
        assert_eq!(
            algo.reconstruct_oriented(&reads, &[], original.len()),
            algo.reconstruct(&reads, original.len()),
        );
    }
}
