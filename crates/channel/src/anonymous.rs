//! Unlabeled read pools: the realistic front half of retrieval.
//!
//! A real sequencer run does not hand back reads grouped by source
//! molecule — it returns an anonymous soup: reads from every strand
//! interleaved in arbitrary order, roughly half of them reverse
//! complemented (the sequencer reads whichever physical strand it
//! catches). [`AnonymousPool`] models exactly that: a flat, shuffled,
//! orientation-randomized list of reads with **no labels the decoder may
//! use**.
//!
//! For simulation studies the pool optionally carries hidden provenance
//! ([`ReadOrigin`]: true source strand + whether the read was flipped).
//! Recovery pipelines must never consult it to *recover* — it exists so
//! the recovery outcome can be *scored* (cluster purity, completeness,
//! misassigned reads) against ground truth. Pools rebuilt from external
//! traces ([`AnonymousPool::from_reads`]) have no provenance and score
//! structurally only.

use crate::pool::splitmix_stream_seed;
use crate::{Cluster, ReadPool};
use dna_strand::DnaString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth provenance of one anonymized read (simulation only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOrigin {
    /// Index of the source strand within the encoded unit.
    pub source: usize,
    /// Whether the anonymizer delivered the read reverse-complemented.
    pub flipped: bool,
}

/// A shuffled, unlabeled, orientation-randomized pool of reads — what a
/// sequencer actually returns before any clustering or demultiplexing.
///
/// # Examples
///
/// ```
/// use dna_channel::{AnonymousPool, CoverageModel, ErrorModel, ChannelModel, ReadPool};
/// use dna_strand::DnaString;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let strands: Vec<DnaString> = (0..6).map(|_| DnaString::random(40, &mut rng)).collect();
/// let pool = ReadPool::generate(
///     &strands,
///     &ChannelModel::uniform(ErrorModel::uniform(0.02)),
///     CoverageModel::Fixed(4),
///     9,
/// );
/// let anon = pool.anonymize(17);
/// assert_eq!(anon.len(), 24);                 // same reads, no structure
/// assert!(anon.provenance().is_some());       // hidden truth, for scoring
///
/// // Replayed external traces carry no truth at all:
/// let replay = AnonymousPool::from_reads(anon.reads().to_vec());
/// assert!(replay.provenance().is_none());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AnonymousPool {
    reads: Vec<DnaString>,
    truth: Option<Vec<ReadOrigin>>,
}

impl AnonymousPool {
    /// Anonymizes labeled clusters: every read is reverse-complemented
    /// with probability ½ and the whole pool is shuffled by a seeded
    /// Fisher–Yates permutation. Deterministic in `(clusters, seed)`;
    /// hidden provenance is retained for scoring.
    pub fn from_clusters(clusters: &[Cluster], seed: u64) -> AnonymousPool {
        let mut rng = StdRng::seed_from_u64(splitmix_stream_seed(seed, 0xA11F_1E1D));
        let mut reads = Vec::new();
        let mut truth = Vec::new();
        for cluster in clusters {
            for read in &cluster.reads {
                let flipped = rng.gen::<bool>();
                reads.push(if flipped {
                    read.reverse_complement()
                } else {
                    read.clone()
                });
                truth.push(ReadOrigin {
                    source: cluster.source,
                    flipped,
                });
            }
        }
        // Fisher–Yates over reads and truth in lockstep.
        for i in (1..reads.len()).rev() {
            let j = rng.gen_range(0..=i);
            reads.swap(i, j);
            truth.swap(i, j);
        }
        AnonymousPool {
            reads,
            truth: Some(truth),
        }
    }

    /// An anonymous pool from raw reads — the trace-replay path for
    /// sequencer dumps whose provenance is genuinely unknown. No ground
    /// truth is attached, so truth-based recovery scores are unavailable.
    pub fn from_reads(reads: impl IntoIterator<Item = DnaString>) -> AnonymousPool {
        AnonymousPool {
            reads: reads.into_iter().collect(),
            truth: None,
        }
    }

    /// Number of reads in the pool.
    pub fn len(&self) -> usize {
        self.reads.len()
    }

    /// Whether the pool holds no reads.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty()
    }

    /// The reads, in their (shuffled) pool order.
    pub fn reads(&self) -> &[DnaString] {
        &self.reads
    }

    /// Hidden ground-truth provenance, parallel to [`AnonymousPool::reads`]
    /// — present only for pools anonymized from labeled simulations.
    /// Recovery implementations must not consult this; it exists to score
    /// their output.
    pub fn provenance(&self) -> Option<&[ReadOrigin]> {
        self.truth.as_deref()
    }

    /// A copy of the pool re-shuffled under a different seed (orientation
    /// flips are kept as they are) — handy for order-invariance tests.
    pub fn reshuffled(&self, seed: u64) -> AnonymousPool {
        let mut rng = StdRng::seed_from_u64(splitmix_stream_seed(seed, 0x5117_FFED));
        let mut out = self.clone();
        for i in (1..out.reads.len()).rev() {
            let j = rng.gen_range(0..=i);
            out.reads.swap(i, j);
            if let Some(truth) = out.truth.as_mut() {
                truth.swap(i, j);
            }
        }
        out
    }
}

impl ReadPool {
    /// Anonymizes the full pool (see [`AnonymousPool::from_clusters`]):
    /// labels dropped, orientation randomized, order shuffled —
    /// deterministically in `seed`. To anonymize a lower-coverage draw,
    /// pass `self.at_coverage(..)` to [`AnonymousPool::from_clusters`]
    /// directly.
    pub fn anonymize(&self, seed: u64) -> AnonymousPool {
        AnonymousPool::from_clusters(self.clusters(), seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ChannelModel, CoverageModel, ErrorModel};

    fn pool(n: usize, cov: usize, seed: u64) -> ReadPool {
        let mut rng = StdRng::seed_from_u64(3);
        let strands: Vec<DnaString> = (0..n).map(|_| DnaString::random(40, &mut rng)).collect();
        ReadPool::generate(
            &strands,
            &ChannelModel::uniform(ErrorModel::uniform(0.03)),
            CoverageModel::Fixed(cov),
            seed,
        )
    }

    #[test]
    fn anonymize_preserves_the_read_multiset() {
        let pool = pool(8, 5, 1);
        let anon = pool.anonymize(2);
        assert_eq!(anon.len(), 40);
        let truth = anon.provenance().expect("simulated pools carry truth");
        assert_eq!(truth.len(), anon.len());
        // Undo the recorded flips: the multiset of reads must match the
        // labeled pool's exactly.
        let mut restored: Vec<String> = anon
            .reads()
            .iter()
            .zip(truth)
            .map(|(r, o)| {
                if o.flipped {
                    r.reverse_complement().to_string()
                } else {
                    r.to_string()
                }
            })
            .collect();
        let mut original: Vec<String> = pool
            .clusters()
            .iter()
            .flat_map(|c| c.reads.iter().map(|r| r.to_string()))
            .collect();
        restored.sort();
        original.sort();
        assert_eq!(restored, original);
    }

    #[test]
    fn anonymize_is_deterministic_in_the_seed_and_actually_shuffles() {
        let pool = pool(10, 6, 4);
        let a = pool.anonymize(7);
        let b = pool.anonymize(7);
        let c = pool.anonymize(8);
        assert_eq!(a, b);
        assert_ne!(a.reads(), c.reads());
        // Labels are genuinely gone from the public surface: reads in
        // pool order no longer group by source.
        let truth = a.provenance().unwrap();
        let sources: Vec<usize> = truth.iter().map(|o| o.source).collect();
        let mut sorted = sources.clone();
        sorted.sort_unstable();
        assert_ne!(sources, sorted, "shuffle left reads in source order");
        // And roughly half the reads were flipped.
        let flips = truth.iter().filter(|o| o.flipped).count();
        assert!(
            (10..=50).contains(&flips),
            "{flips}/60 reads flipped — orientation not randomized?"
        );
    }

    #[test]
    fn from_reads_has_no_truth() {
        let anon = AnonymousPool::from_reads(vec!["ACGT".parse().unwrap()]);
        assert_eq!(anon.len(), 1);
        assert!(anon.provenance().is_none());
        assert!(AnonymousPool::from_reads(Vec::new()).is_empty());
    }

    #[test]
    fn reshuffling_permutes_reads_and_truth_in_lockstep() {
        let anon = pool(6, 6, 9).anonymize(1);
        let shuffled = anon.reshuffled(99);
        assert_ne!(anon.reads(), shuffled.reads());
        let pair = |p: &AnonymousPool| {
            let mut v: Vec<(String, usize, bool)> = p
                .reads()
                .iter()
                .zip(p.provenance().unwrap())
                .map(|(r, o)| (r.to_string(), o.source, o.flipped))
                .collect();
            v.sort();
            v
        };
        assert_eq!(pair(&anon), pair(&shuffled));
    }

    #[test]
    fn empty_clusters_anonymize_to_an_empty_pool() {
        let anon = AnonymousPool::from_clusters(&[], 3);
        assert!(anon.is_empty());
        assert_eq!(anon.provenance().map(<[_]>::len), Some(0));
        assert!(ReadPool::empty(4).anonymize(1).is_empty());
    }
}
