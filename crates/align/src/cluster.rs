//! Clustering of sequencing reads by edit-distance similarity.
//!
//! The paper's methodology assumes perfect clustering (reads are tagged by
//! their source strand, §6.1.2); this module provides the *real* mechanism
//! for the unlabeled-pool retrieval path and for failure-injection tests.
//! Algorithms are pluggable behind [`ReadClusterer`]:
//!
//! - [`GreedyClusterer`]: a single-pass greedy clusterer in the spirit of
//!   Rashtchian et al. (NeurIPS'17), comparing each read against every
//!   cluster representative with a bounded edit distance — simple and
//!   accurate, O(reads × clusters);
//! - [`AnchoredClusterer`]: the index-anchor fast path — reads are binned
//!   by a short anchor substring (in a storage pipeline, the region
//!   holding the ordering index) and only candidates sharing an anchor
//!   (exactly, or up to one substitution) pay the bounded edit-distance
//!   comparison. Reads whose anchor was disturbed beyond that fall out
//!   into fresh clusters; a downstream index-vote demultiplexer merges
//!   such fragments back together.

use crate::BasePattern;
use dna_strand::DnaString;
use std::collections::HashMap;

/// The output of clustering: for each cluster, the indices of its member
/// reads (in input order).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ClusterResult {
    /// `clusters[c]` lists the read indices assigned to cluster `c`.
    pub clusters: Vec<Vec<usize>>,
}

impl ClusterResult {
    /// Number of clusters found.
    pub fn len(&self) -> usize {
        self.clusters.len()
    }

    /// Whether no clusters were produced.
    pub fn is_empty(&self) -> bool {
        self.clusters.is_empty()
    }

    /// Total reads across all clusters.
    pub fn member_count(&self) -> usize {
        self.clusters.iter().map(Vec::len).sum()
    }

    /// The cluster index of each read (inverse mapping). The length is
    /// derived from the members themselves (one slot past the highest
    /// read index seen), so a stale caller-side read count can no longer
    /// silently truncate or zero-fill the table; positions not claimed by
    /// any cluster hold `usize::MAX`.
    pub fn assignments(&self) -> Vec<usize> {
        let n_reads = self
            .clusters
            .iter()
            .flat_map(|members| members.iter().copied())
            .max()
            .map_or(0, |max| max + 1);
        let mut out = vec![usize::MAX; n_reads];
        for (c, members) in self.clusters.iter().enumerate() {
            for &r in members {
                out[r] = c;
            }
        }
        out
    }
}

/// A read-clustering algorithm: groups an unlabeled pool of reads into
/// clusters of (putative) copies of one molecule.
///
/// Implementations must be deterministic in the input: the same reads in
/// the same order must produce the same clusters. They should tolerate
/// empty input (returning an empty result).
pub trait ReadClusterer {
    /// A short name for reports and figures.
    fn name(&self) -> &'static str;

    /// Clusters `reads`; every read index appears in exactly one cluster.
    fn cluster(&self, reads: &[DnaString]) -> ClusterResult;
}

/// Greedy single-linkage-to-representative clustering.
///
/// Reads within edit distance `threshold` of a cluster's representative
/// (its first read) join that cluster; otherwise they seed a new one.
///
/// # Examples
///
/// ```
/// use dna_align::GreedyClusterer;
/// use dna_strand::DnaString;
///
/// let reads: Vec<DnaString> = ["ACGTACGT", "ACGAACGT", "TTTTGGGG", "TTTTGGG"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// let result = GreedyClusterer::new(3).cluster(&reads);
/// assert_eq!(result.len(), 2);
/// assert_eq!(result.clusters[0], vec![0, 1]);
/// assert_eq!(result.clusters[1], vec![2, 3]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GreedyClusterer {
    threshold: usize,
}

impl GreedyClusterer {
    /// Creates a clusterer joining reads within `threshold` edit distance
    /// of a cluster representative.
    pub fn new(threshold: usize) -> GreedyClusterer {
        GreedyClusterer { threshold }
    }

    /// The distance threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// Clusters `reads`; O(reads × clusters × bounded-distance). Each
    /// representative is compiled once, when it opens its cluster, and
    /// one scratch buffer is reused across every pairwise comparison.
    pub fn cluster(&self, reads: &[DnaString]) -> ClusterResult {
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut representatives: Vec<BasePattern> = Vec::new();
        let mut state = Vec::new();
        for (i, read) in reads.iter().enumerate() {
            let found = representatives.iter().position(|rep| {
                rep.distance_bounded(read.as_slice(), self.threshold, &mut state)
                    .is_some()
            });
            match found {
                Some(c) => clusters[c].push(i),
                None => {
                    clusters.push(vec![i]);
                    representatives.push(BasePattern::new(read.as_slice()));
                }
            }
        }
        ClusterResult { clusters }
    }
}

impl ReadClusterer for GreedyClusterer {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn cluster(&self, reads: &[DnaString]) -> ClusterResult {
        GreedyClusterer::cluster(self, reads)
    }
}

/// Maximum anchor length [`AnchoredClusterer`] accepts: the anchor is
/// packed 2 bits per base into one `u64` key alongside its length.
pub const MAX_ANCHOR_LEN: usize = 24;

/// Anchor-binned greedy clustering: the fast path for large pools.
///
/// Each read is keyed by a short **anchor** — the `anchor_len` bases
/// starting at `anchor_offset` (for storage strands: just past the
/// primer, the region holding the ordering index, which differs between
/// molecules and sits at the reliable front of the strand). A read is
/// compared (bounded edit distance, as in [`GreedyClusterer`]) only
/// against representatives whose anchor matches its own exactly or up to
/// one substitution, so the quadratic representative scan collapses to a
/// handful of hash probes per read.
///
/// Reads whose anchor was corrupted beyond one substitution (or shifted
/// by an indel) open fresh clusters instead of joining their true one —
/// fragmentation the demultiplexing stage downstream repairs by merging
/// clusters that vote for the same index.
///
/// # Examples
///
/// ```
/// use dna_align::{AnchoredClusterer, ReadClusterer};
/// use dna_strand::DnaString;
///
/// let reads: Vec<DnaString> = ["ACGTACGTTT", "ACGTACGTTA", "TTTTGGGGCC"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// let result = AnchoredClusterer::new(3).cluster(&reads);
/// assert_eq!(result.len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnchoredClusterer {
    threshold: usize,
    anchor_offset: usize,
    anchor_len: usize,
}

impl AnchoredClusterer {
    /// A clusterer with the default anchor: the first 8 bases of each
    /// read.
    pub fn new(threshold: usize) -> AnchoredClusterer {
        AnchoredClusterer {
            threshold,
            anchor_offset: 0,
            anchor_len: 8,
        }
    }

    /// Places the anchor at `offset` with `len` bases (clamped to
    /// [`MAX_ANCHOR_LEN`]) — e.g. past a primer, over the index region.
    pub fn with_anchor(mut self, offset: usize, len: usize) -> AnchoredClusterer {
        self.anchor_offset = offset;
        self.anchor_len = len.clamp(1, MAX_ANCHOR_LEN);
        self
    }

    /// The distance threshold.
    pub fn threshold(&self) -> usize {
        self.threshold
    }

    /// The `(offset, len)` of the anchor window.
    pub fn anchor(&self) -> (usize, usize) {
        (self.anchor_offset, self.anchor_len)
    }

    /// Packs the anchor window of `read` into a hash key: 2 bits per
    /// base, with the (possibly clamped) window length mixed into the
    /// high bits so truncated reads never collide with full anchors.
    fn anchor_key(&self, read: &DnaString) -> u64 {
        let bases = read.as_slice();
        let start = self.anchor_offset.min(bases.len());
        let end = self
            .anchor_offset
            .saturating_add(self.anchor_len)
            .min(bases.len());
        let window = &bases[start..end];
        let mut key = 0u64;
        for &b in window {
            key = (key << 2) | u64::from(b.to_bits());
        }
        key | ((window.len() as u64) << 48)
    }

    /// All keys one substitution away from `key` (same window length).
    fn key_variants(key: u64) -> impl Iterator<Item = u64> {
        let len = (key >> 48) as usize;
        (0..len).flat_map(move |pos| {
            (1..4u64).map(move |delta| {
                let shift = 2 * pos;
                let base = (key >> shift) & 0b11;
                (key & !(0b11 << shift)) | (((base + delta) & 0b11) << shift)
            })
        })
    }
}

impl ReadClusterer for AnchoredClusterer {
    fn name(&self) -> &'static str {
        "anchored"
    }

    fn cluster(&self, reads: &[DnaString]) -> ClusterResult {
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut representatives: Vec<BasePattern> = Vec::new();
        // Anchor key → clusters whose representative carries that anchor,
        // in discovery order (kept deterministic: candidate lists are
        // plain Vecs; the map is only ever probed by key).
        let mut bins: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut state = Vec::new();
        let mut candidates: Vec<usize> = Vec::new();
        for (i, read) in reads.iter().enumerate() {
            let key = self.anchor_key(read);
            candidates.clear();
            if let Some(bin) = bins.get(&key) {
                candidates.extend_from_slice(bin);
            }
            for variant in Self::key_variants(key) {
                if let Some(bin) = bins.get(&variant) {
                    candidates.extend_from_slice(bin);
                }
            }
            // Probe order follows cluster discovery order, matching the
            // greedy clusterer's first-match rule.
            candidates.sort_unstable();
            let found = candidates.iter().copied().find(|&c| {
                representatives[c]
                    .distance_bounded(read.as_slice(), self.threshold, &mut state)
                    .is_some()
            });
            match found {
                Some(c) => clusters[c].push(i),
                None => {
                    let c = clusters.len();
                    clusters.push(vec![i]);
                    representatives.push(BasePattern::new(read.as_slice()));
                    bins.entry(key).or_default().push(c);
                }
            }
        }
        ClusterResult { clusters }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Applies `k` random single-base substitutions.
    fn perturb(s: &DnaString, k: usize, rng: &mut StdRng) -> DnaString {
        use dna_strand::Base;
        let mut bases = s.as_slice().to_vec();
        for _ in 0..k {
            let i = rng.gen_range(0..bases.len());
            bases[i] = Base::from_bits(rng.gen());
        }
        DnaString::from_bases(bases)
    }

    fn planted_reads(
        n_centers: usize,
        per_center: usize,
        noise: usize,
        seed: u64,
    ) -> (Vec<DnaString>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let centers: Vec<DnaString> = (0..n_centers)
            .map(|_| DnaString::random(60, &mut rng))
            .collect();
        let mut reads = Vec::new();
        let mut truth = Vec::new();
        for (c, center) in centers.iter().enumerate() {
            for _ in 0..per_center {
                reads.push(perturb(center, noise, &mut rng));
                truth.push(c);
            }
        }
        (reads, truth)
    }

    fn assert_partition_matches(reads: &[DnaString], truth: &[usize], result: &ClusterResult) {
        let assign = result.assignments();
        assert_eq!(assign.len(), reads.len());
        for i in 0..reads.len() {
            for j in 0..reads.len() {
                assert_eq!(
                    truth[i] == truth[j],
                    assign[i] == assign[j],
                    "reads {i} and {j} mis-clustered"
                );
            }
        }
    }

    /// Copies `s` with each base substituted, duplicated-with-an-insert
    /// or deleted with probability `rate`, so lengths drift.
    fn mutate(s: &DnaString, rate: f64, rng: &mut StdRng) -> DnaString {
        use dna_strand::Base;
        let mut out = Vec::with_capacity(s.len() + 8);
        for &b in s.as_slice() {
            if !rng.gen_bool(rate) {
                out.push(b);
                continue;
            }
            match rng.gen_range(0..3) {
                0 => out.push(Base::from_bits(rng.gen())),
                1 => out.extend([b, Base::from_bits(rng.gen())]),
                _ => {}
            }
        }
        DnaString::from_bases(out)
    }

    /// Reference clustering on the textbook bounded distance: each read
    /// joins the first earlier cluster (in discovery order) whose
    /// representative `eligible` admits and lies within `threshold`.
    fn oracle_cluster(
        reads: &[DnaString],
        threshold: usize,
        eligible: impl Fn(&DnaString, &DnaString) -> bool,
    ) -> ClusterResult {
        let mut clusters: Vec<Vec<usize>> = Vec::new();
        let mut reps: Vec<&DnaString> = Vec::new();
        for (i, read) in reads.iter().enumerate() {
            let found = reps.iter().position(|rep| {
                eligible(rep, read)
                    && crate::edit_distance_bounded(rep.as_slice(), read.as_slice(), threshold)
                        .is_some()
            });
            match found {
                Some(c) => clusters[c].push(i),
                None => {
                    clusters.push(vec![i]);
                    reps.push(read);
                }
            }
        }
        ClusterResult { clusters }
    }

    #[test]
    fn compiled_representatives_cluster_like_the_reference_distance() {
        let mut rng = StdRng::seed_from_u64(2024);
        for _ in 0..4 {
            // Lengths straddle the 64- and 128-base word edges.
            let centers: Vec<DnaString> = (0..8)
                .map(|_| {
                    let len = rng.gen_range(50..170);
                    DnaString::random(len, &mut rng)
                })
                .collect();
            let reads: Vec<DnaString> = (0..6)
                .flat_map(|_| centers.iter())
                .map(|c| mutate(c, 0.08, &mut rng))
                .collect();
            for threshold in [0, 4, 12, 40] {
                assert_eq!(
                    GreedyClusterer::new(threshold).cluster(&reads),
                    oracle_cluster(&reads, threshold, |_, _| true),
                    "greedy, threshold {threshold}"
                );
                let anchored = AnchoredClusterer::new(threshold).with_anchor(3, 6);
                let near = |rep: &DnaString, read: &DnaString| {
                    let (rep, read) = (anchored.anchor_key(rep), anchored.anchor_key(read));
                    rep == read || AnchoredClusterer::key_variants(rep).any(|v| v == read)
                };
                assert_eq!(
                    anchored.cluster(&reads),
                    oracle_cluster(&reads, threshold, near),
                    "anchored, threshold {threshold}"
                );
            }
        }
    }

    #[test]
    fn an_anchor_near_usize_max_saturates_instead_of_overflowing() {
        // `anchor_offset + anchor_len` used to overflow: a panic in
        // debug, and in release a wrapped end before the start. Past
        // every read, the window is empty, so all representatives are
        // candidates, exactly as in greedy clustering.
        let (reads, _) = planted_reads(4, 3, 1, 5);
        let far = AnchoredClusterer::new(8).with_anchor(usize::MAX - 3, 8);
        assert_eq!(far.cluster(&reads), GreedyClusterer::new(8).cluster(&reads));
    }

    #[test]
    fn recovers_planted_clusters() {
        let (reads, truth) = planted_reads(8, 5, 2, 99);
        // Random 60-mers are ~far apart; threshold 8 separates cleanly.
        let result = GreedyClusterer::new(8).cluster(&reads);
        assert_eq!(result.len(), 8);
        assert_partition_matches(&reads, &truth, &result);
    }

    #[test]
    fn anchored_recovers_noiseless_planted_clusters() {
        let (reads, truth) = planted_reads(10, 4, 0, 41);
        let result = AnchoredClusterer::new(6).cluster(&reads);
        assert_eq!(result.len(), 10);
        assert_partition_matches(&reads, &truth, &result);
    }

    #[test]
    fn anchored_tolerates_one_anchor_substitution() {
        // A read whose anchor differs from its cluster's by one base must
        // still find the cluster through the variant probes.
        let mut rng = StdRng::seed_from_u64(7);
        let center = DnaString::random(50, &mut rng);
        let mut noisy = center.as_slice().to_vec();
        noisy[3] = noisy[3].complement(); // inside the default 8-base anchor
        let reads = vec![center.clone(), DnaString::from_bases(noisy)];
        let result = AnchoredClusterer::new(4).cluster(&reads);
        assert_eq!(result.len(), 1);
        assert_eq!(result.clusters[0], vec![0, 1]);
    }

    #[test]
    fn anchored_fragments_rather_than_merges_on_heavy_anchor_damage() {
        // Two anchor substitutions defeat the probes: the read opens a
        // new cluster (fragmentation) instead of being absorbed wrongly.
        let mut rng = StdRng::seed_from_u64(8);
        let center = DnaString::random(50, &mut rng);
        let mut noisy = center.as_slice().to_vec();
        noisy[1] = noisy[1].complement();
        noisy[5] = noisy[5].complement();
        let reads = vec![center.clone(), DnaString::from_bases(noisy)];
        let result = AnchoredClusterer::new(4).cluster(&reads);
        assert_eq!(result.len(), 2);
    }

    #[test]
    fn anchored_window_clamps_to_short_reads() {
        let reads: Vec<DnaString> = ["ACG", "ACG", "ACGTACGTACGT"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let clusterer = AnchoredClusterer::new(0).with_anchor(0, 8);
        let result = clusterer.cluster(&reads);
        assert_eq!(result.len(), 2);
        assert_eq!(result.clusters[0], vec![0, 1]);
    }

    #[test]
    fn singleton_inputs() {
        let result = GreedyClusterer::new(3).cluster(&[]);
        assert!(result.is_empty());
        assert!(ReadClusterer::cluster(&AnchoredClusterer::new(3), &[]).is_empty());
        let one = vec!["ACGT".parse().unwrap()];
        let result = GreedyClusterer::new(3).cluster(&one);
        assert_eq!(result.len(), 1);
        assert_eq!(result.clusters[0], vec![0]);
    }

    #[test]
    fn zero_threshold_groups_only_identical_reads() {
        let reads: Vec<DnaString> = ["ACGT", "ACGT", "ACGA"]
            .iter()
            .map(|s| s.parse().unwrap())
            .collect();
        let result = GreedyClusterer::new(0).cluster(&reads);
        assert_eq!(result.len(), 2);
        assert_eq!(result.clusters[0], vec![0, 1]);
    }

    #[test]
    fn assignments_length_is_derived_from_members() {
        // Regression: `assignments` used to take the read count from the
        // caller and silently truncate (or zero-fill) on a mismatch —
        // and panicked outright when the caller undercounted. The length
        // now comes from the members themselves.
        let result = GreedyClusterer::new(0).cluster(&[
            "ACGT".parse().unwrap(),
            "ACGT".parse().unwrap(),
            "TTTT".parse().unwrap(),
        ]);
        let assign = result.assignments();
        assert_eq!(assign, vec![0, 0, 1]);

        // A hand-built sparse result keeps unclaimed slots visible
        // instead of inventing assignments for them.
        let sparse = ClusterResult {
            clusters: vec![vec![0], vec![4]],
        };
        assert_eq!(
            sparse.assignments(),
            vec![0, usize::MAX, usize::MAX, usize::MAX, 1]
        );
        assert_eq!(sparse.member_count(), 2);
        assert!(ClusterResult::default().assignments().is_empty());
    }

    #[test]
    fn clusterers_are_deterministic() {
        let (reads, _) = planted_reads(6, 5, 2, 123);
        for clusterer in [
            &GreedyClusterer::new(8) as &dyn ReadClusterer,
            &AnchoredClusterer::new(8),
        ] {
            let a = clusterer.cluster(&reads);
            let b = clusterer.cluster(&reads);
            assert_eq!(a, b, "{}", clusterer.name());
        }
    }
}
