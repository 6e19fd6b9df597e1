//! Read pools with progressive coverage draws.
//!
//! The paper's retrieval methodology (§6.1.2): "we vary the coverage by
//! generating a large pool of noisy strands for each DNA string. We start
//! at a low coverage, and progressively add more strands from the pool."
//! [`ReadPool`] implements exactly that: generate once at a maximum mean
//! coverage, then take nested prefixes for every lower coverage point, so
//! higher-coverage experiments strictly extend lower-coverage ones.

use crate::{ChannelModel, CoverageModel, MAX_COVERAGE};
use dna_strand::DnaString;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The noisy reads attributed to one source strand (perfect clustering, as
/// in the paper's methodology; an empty cluster is a lost molecule).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cluster {
    /// Index of the source strand within the encoded unit.
    pub source: usize,
    /// The noisy reads of that strand.
    pub reads: Vec<DnaString>,
}

impl Cluster {
    /// Number of reads in the cluster.
    pub fn coverage(&self) -> usize {
        self.reads.len()
    }

    /// Whether the molecule was lost entirely (an erasure for every
    /// codeword crossing it).
    pub fn is_lost(&self) -> bool {
        self.reads.is_empty()
    }
}

/// A pre-generated pool of noisy reads per strand, supporting nested
/// lower-coverage draws.
#[derive(Debug, Clone)]
pub struct ReadPool {
    max_mean: f64,
    /// Full cluster (at `max_mean`) per strand.
    full: Vec<Cluster>,
}

/// The most reads one molecule receives in a generated pool: ten times
/// [`MAX_COVERAGE`]. No validated coverage comes near it (a Gamma draw at
/// the maximum mean, times a PCR multiplier of mean 1, exceeds it with
/// negligible probability); it keeps a hand-built coverage model such as
/// `CoverageModel::Fixed(usize::MAX)` from asking for more reads than
/// memory can address.
const MAX_READS_PER_MOLECULE: usize = 10 * MAX_COVERAGE as usize;

/// Mixes a stream index into a seed (splitmix64 finalizer) — the one
/// derivation behind both per-strand streams (here) and per-unit streams
/// ([`crate::unit_seed`]).
pub(crate) fn splitmix_stream_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mixes a per-strand stream index into the pool seed so every strand gets
/// an independent, reproducible RNG stream.
fn substream_seed(seed: u64, index: u64) -> u64 {
    splitmix_stream_seed(seed, index)
}

impl ReadPool {
    /// Generates the pool: per strand, a dropout draw (the molecule may
    /// vanish entirely), a coverage draw (interpreted at its mean = the
    /// maximum coverage the pool will support), an optional PCR
    /// amplification multiplier on the cluster size, and then that many
    /// reads through [`ChannelModel::transmit`].
    ///
    /// Draws that a disabled knob would make are **skipped entirely**, so
    /// a [`ChannelModel::uniform`] model consumes exactly the flat
    /// channel's RNG stream for any `(seed, model, coverage)`.
    ///
    /// Each molecule's read count, after the PCR multiplier, is capped at
    /// ten times [`MAX_COVERAGE`], so even a coverage model built by hand
    /// with an unbounded size (`CoverageModel::Fixed(usize::MAX)`, a huge
    /// Gamma mean) generates a bounded pool instead of overflowing the
    /// read vector's capacity.
    pub fn generate(
        strands: &[DnaString],
        model: &ChannelModel,
        coverage: CoverageModel,
        seed: u64,
    ) -> ReadPool {
        let full = strands
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut rng = StdRng::seed_from_u64(substream_seed(seed, i as u64));
                if model.dropout() > 0.0 && rng.gen::<f64>() < model.dropout() {
                    return Cluster {
                        source: i,
                        reads: Vec::new(),
                    };
                }
                let mut n = coverage.sample(&mut rng);
                if let Some(pcr) = model.pcr() {
                    n = ((n as f64) * pcr.sample(&mut rng)).round() as usize;
                }
                let n = n.min(MAX_READS_PER_MOLECULE);
                Cluster {
                    source: i,
                    reads: (0..n).map(|_| model.transmit(s, &mut rng)).collect(),
                }
            })
            .collect();
        ReadPool {
            max_mean: coverage.mean(),
            full,
        }
    }

    /// A pool in which every one of `n_strands` molecules was lost (no
    /// reads at all) — the degenerate trace.
    pub fn empty(n_strands: usize) -> ReadPool {
        ReadPool {
            max_mean: 0.0,
            full: (0..n_strands)
                .map(|i| Cluster {
                    source: i,
                    reads: Vec::new(),
                })
                .collect(),
        }
    }

    /// A noiseless coverage-1 pool: strand `i` becomes cluster `i`'s
    /// single read. This is the shape of perfectly demultiplexed storage
    /// (a strand list on disk, a capsule record in an object pool) fed
    /// back through the standard decode path.
    pub fn from_strands(strands: impl IntoIterator<Item = DnaString>) -> ReadPool {
        let full: Vec<Cluster> = strands
            .into_iter()
            .enumerate()
            .map(|(i, s)| Cluster {
                source: i,
                reads: vec![s],
            })
            .collect();
        ReadPool {
            max_mean: if full.is_empty() { 0.0 } else { 1.0 },
            full,
        }
    }

    /// The maximum mean coverage this pool was generated with.
    pub fn max_mean(&self) -> f64 {
        self.max_mean
    }

    /// Number of clusters (source strands).
    pub fn len(&self) -> usize {
        self.full.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.full.is_empty()
    }

    /// The full clusters at maximum coverage.
    pub fn clusters(&self) -> &[Cluster] {
        &self.full
    }

    /// Draws the pool down to `mean` coverage: each cluster keeps the first
    /// `round(n · mean / max_mean)` of its reads. Draws are nested — a
    /// higher `mean` is a superset of a lower one — so coverage sweeps
    /// reuse the same noise realizations, as in the paper.
    ///
    /// Values of `mean` above the pool's maximum are clamped to it.
    pub fn at_coverage(&self, mean: f64) -> Vec<Cluster> {
        let frac = if self.max_mean > 0.0 {
            (mean / self.max_mean).clamp(0.0, 1.0)
        } else {
            0.0
        };
        self.full
            .iter()
            .map(|c| {
                let keep = ((c.reads.len() as f64) * frac).round() as usize;
                Cluster {
                    source: c.source,
                    reads: c.reads[..keep.min(c.reads.len())].to_vec(),
                }
            })
            .collect()
    }

    /// All reads of all clusters interleaved with their source labels —
    /// e.g. to exercise a *real* clustering algorithm instead of the
    /// perfect clustering used by the paper's methodology.
    pub fn labeled_reads(&self) -> Vec<(usize, DnaString)> {
        self.full
            .iter()
            .flat_map(|c| c.reads.iter().map(|r| (c.source, r.clone())))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorModel;

    fn make_pool(n_strands: usize, mean: f64) -> ReadPool {
        let mut rng = StdRng::seed_from_u64(11);
        let strands: Vec<DnaString> = (0..n_strands)
            .map(|_| DnaString::random(60, &mut rng))
            .collect();
        let channel = ChannelModel::uniform(ErrorModel::uniform(0.05));
        ReadPool::generate(
            &strands,
            &channel,
            CoverageModel::gamma_with_mean(mean).unwrap(),
            7,
        )
    }

    #[test]
    fn unbounded_coverage_models_generate_capped_clusters() {
        // Both used to ask `Vec` for ~usize::MAX reads and panic with a
        // capacity overflow.
        let strand: DnaString = "ACGTACGT".parse().unwrap();
        for coverage in [
            CoverageModel::Fixed(usize::MAX),
            CoverageModel::Gamma {
                mean: 1e300,
                shape: 6.0,
            },
        ] {
            let pool = ReadPool::generate(
                std::slice::from_ref(&strand),
                &ChannelModel::uniform(ErrorModel::noiseless()),
                coverage,
                3,
            );
            assert_eq!(pool.clusters()[0].coverage(), MAX_READS_PER_MOLECULE);
        }
    }

    #[test]
    fn pool_has_one_cluster_per_strand() {
        let pool = make_pool(40, 12.0);
        assert_eq!(pool.len(), 40);
        for (i, c) in pool.clusters().iter().enumerate() {
            assert_eq!(c.source, i);
        }
    }

    #[test]
    fn draws_are_nested_and_monotone() {
        let pool = make_pool(60, 20.0);
        let low = pool.at_coverage(5.0);
        let mid = pool.at_coverage(12.0);
        let high = pool.at_coverage(20.0);
        for i in 0..pool.len() {
            assert!(low[i].coverage() <= mid[i].coverage());
            assert!(mid[i].coverage() <= high[i].coverage());
            // Nested prefixes: low reads are a prefix of mid reads.
            assert_eq!(low[i].reads[..], mid[i].reads[..low[i].coverage()]);
        }
        let mean_low: f64 =
            low.iter().map(Cluster::coverage).sum::<usize>() as f64 / low.len() as f64;
        assert!((mean_low - 5.0).abs() < 1.5, "mean at 5.0 draw: {mean_low}");
    }

    #[test]
    fn zero_coverage_draw_loses_everything() {
        let pool = make_pool(10, 8.0);
        let none = pool.at_coverage(0.0);
        assert!(none.iter().all(Cluster::is_lost));
    }

    #[test]
    fn overdraw_clamps_to_pool_max() {
        let pool = make_pool(10, 8.0);
        let a = pool.at_coverage(8.0);
        let b = pool.at_coverage(100.0);
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let mut rng = StdRng::seed_from_u64(5);
        let strands: Vec<DnaString> = (0..5).map(|_| DnaString::random(50, &mut rng)).collect();
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.08));
        let cov = CoverageModel::Fixed(6);
        let p1 = ReadPool::generate(&strands, &ch, cov, 99);
        let p2 = ReadPool::generate(&strands, &ch, cov, 99);
        let p3 = ReadPool::generate(&strands, &ch, cov, 100);
        assert_eq!(p1.clusters(), p2.clusters());
        assert_ne!(p1.clusters(), p3.clusters());
    }

    #[test]
    fn labeled_reads_cover_all_clusters() {
        let pool = make_pool(12, 6.0);
        let labeled = pool.labeled_reads();
        let total: usize = pool.clusters().iter().map(Cluster::coverage).sum();
        assert_eq!(labeled.len(), total);
    }
}
