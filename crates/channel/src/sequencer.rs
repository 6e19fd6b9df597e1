//! The simulated sequencer: the one source of reads for encoded units.
//!
//! The pipeline's retrieval side only needs *a pool of reads per encoded
//! unit*. [`SimulatedSequencer`] produces it with the paper's
//! methodology: a [`ChannelModel`] at a fixed or Gamma-distributed
//! coverage (§4.1). Recorded pools — sequencer dumps, wetlab traces —
//! need no sequencer at all: their clusters go straight to the decoder.
//!
//! The sequencer takes the unit index plus a seed on every call, so batch
//! pipelines can fan units out across threads while staying
//! deterministic.

use crate::{ChannelModel, CoverageModel, ErrorModel, ReadPool};
use dna_strand::DnaString;

/// Mixes the unit index into a seed so every unit of a batch gets an
/// independent, reproducible noise stream (the same splitmix64 derivation
/// as the per-strand streams in [`ReadPool`]). Unit 0 keeps the raw seed,
/// so single-unit workloads see the same realization whether or not they
/// go through a batch.
pub fn unit_seed(seed: u64, unit_index: usize) -> u64 {
    if unit_index == 0 {
        return seed;
    }
    crate::pool::splitmix_stream_seed(seed, unit_index as u64)
}

/// The simulated sequencer: IDS noise — optionally position-dependent,
/// with strand dropout, PCR bias, and bursts — at a configured coverage
/// model.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedSequencer {
    channel: ChannelModel,
    coverage: CoverageModel,
}

impl SimulatedSequencer {
    /// A simulator with flat per-base rates — the paper's original
    /// methodology, and the [`ChannelModel::uniform`] special case of
    /// [`SimulatedSequencer::with_channel`].
    pub fn new(model: ErrorModel, coverage: CoverageModel) -> SimulatedSequencer {
        SimulatedSequencer::with_channel(ChannelModel::uniform(model), coverage)
    }

    /// A simulator running an arbitrary [`ChannelModel`].
    pub fn with_channel(channel: ChannelModel, coverage: CoverageModel) -> SimulatedSequencer {
        SimulatedSequencer { channel, coverage }
    }

    /// The base error model (per-base rates before position scaling).
    pub fn model(&self) -> &ErrorModel {
        self.channel.base()
    }

    /// The full channel model.
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// The coverage model.
    pub fn coverage(&self) -> &CoverageModel {
        &self.coverage
    }

    /// Produces the read pool for one unit.
    ///
    /// `unit_index` identifies the unit within a batch (0 for single-unit
    /// workloads); `strands` are the unit's molecules in column order;
    /// `seed` selects the noise realization. The pool is deterministic in
    /// `(unit_index, strands, seed)` and holds one cluster per strand, in
    /// strand order.
    pub fn sequence_unit(&self, unit_index: usize, strands: &[DnaString], seed: u64) -> ReadPool {
        ReadPool::generate(
            strands,
            &self.channel,
            self.coverage,
            unit_seed(seed, unit_index),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn strands(n: usize, len: usize) -> Vec<DnaString> {
        let mut rng = StdRng::seed_from_u64(77);
        (0..n).map(|_| DnaString::random(len, &mut rng)).collect()
    }

    #[test]
    fn simulated_sequencer_matches_direct_pool_generation() {
        let s = strands(12, 60);
        let model = ErrorModel::uniform(0.05);
        let coverage = CoverageModel::Fixed(4);
        let sequencer = SimulatedSequencer::new(model, coverage);
        let via_sequencer = sequencer.sequence_unit(0, &s, 9);
        let direct =
            ReadPool::generate(&s, &ChannelModel::uniform(model), coverage, unit_seed(9, 0));
        assert_eq!(via_sequencer.clusters(), direct.clusters());
    }

    #[test]
    fn simulated_sequencer_units_are_independent_but_deterministic() {
        let s = strands(6, 40);
        let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.08), CoverageModel::Fixed(3));
        let a0 = sequencer.sequence_unit(0, &s, 5);
        let a0_again = sequencer.sequence_unit(0, &s, 5);
        let a1 = sequencer.sequence_unit(1, &s, 5);
        assert_eq!(a0.clusters(), a0_again.clusters());
        assert_ne!(a0.clusters(), a1.clusters());
    }
}
