//! Unlabeled-pool recovery: cluster → orient → demultiplex.
//!
//! Every decode path in the paper's methodology consumes *perfectly
//! clustered* reads — each read pre-attributed to its source molecule
//! (§6.1.2). Real retrieval starts one step earlier, with an anonymous
//! soup of reads ([`AnonymousPool`]): shuffled, unlabeled, and roughly
//! half reverse-complemented. [`RecoveryPipeline`] reconstructs the
//! labeled structure the decoder needs:
//!
//! 1. **Orient** — each read is flipped to the synthesized strand's
//!    orientation by scoring both ends against the left PCR primer
//!    ([`dna_align::AnchorOrienter`]). Primers are mandatory: every read
//!    of a random-access pool carries them, and they are the only anchor
//!    that tells a strand from its reverse complement;
//! 2. **Cluster** — a pluggable [`ReadClusterer`] groups putative copies
//!    of one molecule: the exhaustive [`GreedyClusterer`] or the
//!    index-anchor-binned [`AnchoredClusterer`] fast path;
//! 3. **Demultiplex** — each read decodes the ordering index just past
//!    the primer (re-synchronized against the primer's actual end) and
//!    is routed to the column it names; the cluster only pools evidence
//!    for reads whose index is unreadable. Groups landing on the same
//!    column are merged (they are fragments of one molecule), and
//!    clusters with no readable index are orphaned.
//!
//! Steps 2 and 3 read the index through the unit's
//! [`TranscoderSpec`]: its field-0
//! [`field_span`](TranscoderSpec::field_span) sizes the clusterer's
//! anchor window, and its
//! [`decode_index`](TranscoderSpec::decode_index) decodes every vote, so
//! unlabeled pools recover under any layout the decoder reads.
//!
//! The outcome is the `Vec<Cluster>` shape the existing decode path has
//! always consumed, plus a [`RecoveryReport`] scoring the reconstruction
//! (cluster purity, completeness, misassigned/orphaned reads, and the
//! per-column coverage histogram) that travels inside
//! [`DecodeReport`](crate::DecodeReport).

use crate::params::CodecParams;
use crate::StorageError;
use dna_align::{AnchorOrienter, AnchoredClusterer, BasePattern, GreedyClusterer, ReadClusterer};
use dna_channel::{AnonymousPool, Cluster};
use dna_strand::{DnaString, PayloadGeometry, Primer, TranscoderSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Modal-group strength at which a lone divergent index decode inside a
/// cluster is treated as decode noise and folded back into the modal
/// group rather than assigned to its own column.
const MODAL_FOLD_MIN: usize = 4;

/// How the recovered clusters are scored and shaped — the measurable
/// outcome of the cluster → orient → demux stage.
///
/// All tallies are integer counts so reports stay `Eq`-comparable and
/// mergeable; the ratio views ([`RecoveryReport::purity`],
/// [`RecoveryReport::completeness`]) are derived on demand. Truth-based
/// scores (purity, completeness, misassignment) are only available when
/// the pool carried hidden provenance (simulated pools); replayed traces
/// score structurally (orphans, merges, coverage) only.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Reads in the anonymous pool.
    pub total_reads: usize,
    /// Assigned reads whose delivered orientation was flipped back to
    /// forward.
    pub flipped_reads: usize,
    /// Clusters the clusterer produced (before demux merging).
    pub clusters_found: usize,
    /// Clusters that could not be assigned to any unit column (no read
    /// carried a readable in-range index).
    pub orphaned_clusters: usize,
    /// Reads inside orphaned clusters (they take no part in decoding).
    pub orphaned_reads: usize,
    /// Distinct unit columns that received at least one cluster.
    pub assigned_columns: usize,
    /// Clusters merged into a column that another cluster had already
    /// claimed — fragment repair (or, rarely, a genuine collision).
    pub duplicate_index_merges: usize,
    /// Truth-scored: reads placed in a column other than their true
    /// source strand. Zero when no provenance was available.
    pub misassigned_reads: usize,
    /// Truth-scored purity numerator: per recovered cluster, the reads
    /// of its modal true source, summed over assigned clusters.
    pub purity_num: usize,
    /// Purity denominator: reads across all assigned clusters.
    pub purity_den: usize,
    /// Truth-scored completeness numerator: per true source, the largest
    /// number of its reads found together in one cluster.
    pub completeness_num: usize,
    /// Completeness denominator: all reads with known provenance.
    pub completeness_den: usize,
    /// Reads assigned per unit column (length = unit columns).
    pub coverage_histogram: Vec<usize>,
}

impl RecoveryReport {
    /// Weighted cluster purity ∈ [0, 1]: the fraction of assigned reads
    /// agreeing with their cluster's modal source. `None` when the pool
    /// carried no ground truth (or nothing was assigned).
    pub fn purity(&self) -> Option<f64> {
        (self.purity_den > 0).then(|| self.purity_num as f64 / self.purity_den as f64)
    }

    /// Completeness ∈ [0, 1]: averaged over source strands, the fraction
    /// of each strand's reads that ended up together in its best single
    /// cluster. `None` without ground truth.
    pub fn completeness(&self) -> Option<f64> {
        (self.completeness_den > 0)
            .then(|| self.completeness_num as f64 / self.completeness_den as f64)
    }

    /// Reads that made it into assigned clusters.
    pub fn assigned_reads(&self) -> usize {
        self.total_reads - self.orphaned_reads
    }

    /// Folds `other` into `self`: counts are summed, histograms added
    /// element-wise (they must cover the same columns — units of one
    /// pipeline always do).
    ///
    /// # Panics
    ///
    /// Panics when both reports carry coverage histograms of different
    /// lengths.
    pub fn merge_from(&mut self, other: &RecoveryReport) {
        self.total_reads += other.total_reads;
        self.flipped_reads += other.flipped_reads;
        self.clusters_found += other.clusters_found;
        self.orphaned_clusters += other.orphaned_clusters;
        self.orphaned_reads += other.orphaned_reads;
        self.assigned_columns += other.assigned_columns;
        self.duplicate_index_merges += other.duplicate_index_merges;
        self.misassigned_reads += other.misassigned_reads;
        self.purity_num += other.purity_num;
        self.purity_den += other.purity_den;
        self.completeness_num += other.completeness_num;
        self.completeness_den += other.completeness_den;
        if self.coverage_histogram.is_empty() {
            self.coverage_histogram = other.coverage_histogram.clone();
        } else if !other.coverage_histogram.is_empty() {
            assert_eq!(
                self.coverage_histogram.len(),
                other.coverage_histogram.len(),
                "coverage histogram length mismatch"
            );
            for (slot, &c) in self
                .coverage_histogram
                .iter_mut()
                .zip(&other.coverage_histogram)
            {
                *slot += c;
            }
        }
    }

    /// A one-line human-readable summary for logs and the CLI.
    pub fn summary(&self) -> String {
        let score = |v: Option<f64>| v.map_or("n/a".to_string(), |p| format!("{p:.4}"));
        format!(
            "reads={} flipped={} clusters={} assigned_columns={} orphaned={} merges={} \
             misassigned={} purity={} completeness={}",
            self.total_reads,
            self.flipped_reads,
            self.clusters_found,
            self.assigned_columns,
            self.orphaned_reads,
            self.duplicate_index_merges,
            self.misassigned_reads,
            score(self.purity()),
            score(self.completeness()),
        )
    }
}

/// Which clustering algorithm the recovery stage runs.
#[derive(Clone)]
enum ClustererSpec {
    /// Exhaustive greedy comparison against every representative.
    Greedy { threshold: Option<usize> },
    /// Index-anchor binning before the bounded comparison.
    Anchored { threshold: Option<usize> },
    /// A caller-provided algorithm.
    Custom(Arc<dyn ReadClusterer + Send + Sync>),
}

/// The cluster → orient → demux stage preceding decode on unlabeled
/// pools. Configure it on the builder
/// ([`PipelineBuilder::recovery`](crate::PipelineBuilder::recovery)) or
/// per call in [`RetrieveOptions::recovery`](crate::RetrieveOptions::recovery).
///
/// # Examples
///
/// ```
/// use dna_storage::{CodecParams, Pipeline, RecoveryPipeline};
/// use dna_channel::{CoverageModel, ErrorModel, SequencingBackend, SimulatedSequencer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pipeline = Pipeline::builder()
///     .params(CodecParams::tiny()?.with_primer_len(12))
///     .recovery(RecoveryPipeline::anchored(None))
///     .build()?;
/// // A varied payload: strands must differ for clustering to separate
/// // them (constant fills make every molecule near-identical).
/// let payload: Vec<u8> = (0..pipeline.payload_capacity())
///     .map(|i| (i * 37 + 11) as u8)
///     .collect();
/// let unit = pipeline.encode_unit(&payload)?;
/// let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.01), CoverageModel::Fixed(8));
/// let pool = sequencer.sequence_unit(0, unit.strands(), 3).anonymize(7);
/// let (decoded, report) = pipeline.decode_pool(&pool)?;
/// assert_eq!(decoded, payload);
/// let recovery = report.recovery.expect("pool decodes carry recovery stats");
/// assert_eq!(recovery.total_reads, pool.len());
/// assert!(recovery.purity().expect("simulated pools are truth-scored") > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct RecoveryPipeline {
    spec: ClustererSpec,
}

impl std::fmt::Debug for RecoveryPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecoveryPipeline")
            .field("clusterer", &self.clusterer_name())
            .finish()
    }
}

impl Default for RecoveryPipeline {
    /// Greedy clustering at the geometry-derived threshold.
    fn default() -> RecoveryPipeline {
        RecoveryPipeline::greedy(None)
    }
}

impl RecoveryPipeline {
    /// Greedy clustering; `threshold: None` derives the edit-distance
    /// threshold from the geometry (a quarter of the payload region).
    pub fn greedy(threshold: Option<usize>) -> RecoveryPipeline {
        RecoveryPipeline {
            spec: ClustererSpec::Greedy { threshold },
        }
    }

    /// Anchor-binned clustering (the fast path); `threshold: None`
    /// derives the threshold from the geometry. The anchor window is
    /// always geometry-derived: it starts past the left primer and
    /// covers the index region plus a few payload bases.
    pub fn anchored(threshold: Option<usize>) -> RecoveryPipeline {
        RecoveryPipeline {
            spec: ClustererSpec::Anchored { threshold },
        }
    }

    /// A caller-provided clustering algorithm.
    pub fn with_clusterer(clusterer: Arc<dyn ReadClusterer + Send + Sync>) -> RecoveryPipeline {
        RecoveryPipeline {
            spec: ClustererSpec::Custom(clusterer),
        }
    }

    /// The short name of the configured clusterer.
    pub fn clusterer_name(&self) -> &str {
        match &self.spec {
            ClustererSpec::Greedy { .. } => "greedy",
            ClustererSpec::Anchored { .. } => "anchored",
            ClustererSpec::Custom(c) => c.name(),
        }
    }

    /// The geometry-derived clustering threshold: a quarter of the
    /// payload region (index + data bases, primers excluded — primers
    /// are shared by every strand so they contribute nothing to
    /// inter-strand separation), floored at 3.
    fn derived_threshold(params: &CodecParams) -> usize {
        let payload_region = params.strand_bases() - 2 * params.primer_len();
        (payload_region / 4).max(3)
    }

    /// Runs orient → cluster → demux on `pool` for a unit with geometry
    /// `params`, whose strands start with `left_primer`. Returns the
    /// labeled clusters (`source` = recovered unit column, reads flipped
    /// to the synthesized orientation) ready for the trusted decode path,
    /// plus the [`RecoveryReport`].
    ///
    /// # Errors
    ///
    /// - [`StorageError::EmptyPool`] when the pool has no reads;
    /// - [`StorageError::AllReadsOrphaned`] when no read carried a
    ///   readable in-range index.
    pub fn recover(
        &self,
        params: &CodecParams,
        left_primer: &Primer,
        pool: &AnonymousPool,
    ) -> Result<(Vec<Cluster>, RecoveryReport), StorageError> {
        if pool.is_empty() {
            return Err(StorageError::EmptyPool);
        }
        let mut report = RecoveryReport {
            total_reads: pool.len(),
            coverage_histogram: vec![0; params.cols()],
            ..RecoveryReport::default()
        };

        // 1. Orientation recovery: flip every read to the synthesized
        // strand's orientation. The orienter compiles the primer once;
        // demux reuses it.
        let orienter = AnchorOrienter::new(left_primer.strand().clone());
        let mut oriented: Vec<DnaString> = Vec::with_capacity(pool.len());
        let mut read_flips: Vec<bool> = Vec::with_capacity(pool.len());
        let mut row = Vec::new();
        for read in pool.reads() {
            let (o, canonical) = orienter.orient_with(read, &mut row);
            read_flips.push(o.is_flipped());
            oriented.push(canonical);
        }

        // 2. Clustering over the co-oriented reads.
        let threshold = match &self.spec {
            ClustererSpec::Greedy { threshold } | ClustererSpec::Anchored { threshold } => {
                threshold.unwrap_or_else(|| Self::derived_threshold(params))
            }
            ClustererSpec::Custom(_) => 0,
        };
        let clusters = match &self.spec {
            ClustererSpec::Greedy { .. } => GreedyClusterer::new(threshold).cluster(&oriented),
            ClustererSpec::Anchored { .. } => {
                let anchor_len = IndexField::new(params).bases + 6;
                AnchoredClusterer::new(threshold)
                    .with_anchor(params.primer_len(), anchor_len)
                    .cluster(&oriented)
            }
            ClustererSpec::Custom(c) => c.cluster(&oriented),
        };
        report.clusters_found = clusters.len();

        // 3. Demultiplex. The ordering index just past the primer — not
        // cluster identity — is what names a molecule, so demux is
        // fundamentally *per read*: each read is routed to the column
        // its decoded index names, and the cluster only pools evidence
        // (reads whose index region was destroyed follow their cluster's
        // modal group, and singleton disagreements inside a
        // well-supported cluster are folded back as decode noise). This
        // also keeps molecules apart that clustering cannot separate —
        // strands with identical payloads differ only in their index.
        // The index offset is re-synchronized against the primer: an
        // indel inside it shifts the whole strand, and a fixed offset
        // would then decode a random column.
        let cols = params.cols();
        let offset = params.primer_len();
        let index = IndexField::new(params);
        let primer = orienter.pattern();
        // Per column: its reads, in merge order.
        let mut columns: Vec<Vec<usize>> = vec![Vec::new(); cols];
        let mut sync_state: Vec<usize> = Vec::new();
        let mut prefix_scores: Vec<usize> = Vec::new();
        for members in &clusters.clusters {
            // Group the cluster's reads by their decoded index
            // (BTreeMap: deterministic ascending-column order).
            let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            let mut unreadable: Vec<usize> = Vec::new();
            for &r in members {
                let idx = synced_forward_index(
                    &oriented[r],
                    primer,
                    offset,
                    &index,
                    &mut sync_state,
                    &mut prefix_scores,
                )
                .map(|idx| idx as usize)
                .filter(|&idx| idx < cols);
                match idx {
                    Some(idx) => groups.entry(idx).or_default().push(r),
                    None => unreadable.push(r),
                }
            }
            if groups.is_empty() {
                report.orphaned_clusters += 1;
                report.orphaned_reads += members.len();
                continue;
            }
            // Modal group: the largest, ties toward the smaller column.
            // Unreadable reads follow it; so does a singleton
            // disagreement when the modal group is strong (a lone
            // divergent decode inside a well-supported cluster is noise,
            // while same-sized groups are genuinely different molecules
            // clustering could not separate).
            let modal = groups
                .iter()
                .map(|(&idx, group)| (group.len(), std::cmp::Reverse(idx)))
                .max()
                .map(|(_, std::cmp::Reverse(idx))| idx)
                .expect("groups is non-empty");
            let modal_len = groups[&modal].len();
            let fold =
                |idx: usize, len: usize| idx != modal && len == 1 && modal_len >= MODAL_FOLD_MIN;
            let mut modal_members: Vec<usize> = Vec::new();
            for (&idx, group) in &groups {
                if idx == modal || fold(idx, group.len()) {
                    modal_members.extend_from_slice(group);
                }
            }
            modal_members.extend_from_slice(&unreadable);
            claim(&mut columns, &mut report, modal, &modal_members);
            for (&idx, group) in &groups {
                if idx != modal && !fold(idx, group.len()) {
                    claim(&mut columns, &mut report, idx, group);
                }
            }
        }
        if columns.iter().all(Vec::is_empty) {
            return Err(StorageError::AllReadsOrphaned {
                reads: pool.len(),
                clusters: clusters.len(),
            });
        }

        // 4. Materialize the labeled clusters and score the outcome.
        let truth = pool.provenance();
        report.completeness_den = truth.map_or(0, <[_]>::len);
        // Per true source: total reads and the best single cluster. The
        // "best cluster" scan reuses the clusterer output (pre-merge),
        // which is the granularity completeness is defined on.
        if let Some(truth) = truth {
            let n_sources = truth.iter().map(|o| o.source + 1).max().unwrap_or(0);
            let mut best = vec![0usize; n_sources];
            let mut per_source = vec![0usize; n_sources];
            for members in &clusters.clusters {
                per_source.iter_mut().for_each(|c| *c = 0);
                for &r in members {
                    per_source[truth[r].source] += 1;
                }
                for (s, &c) in per_source.iter().enumerate() {
                    best[s] = best[s].max(c);
                }
                // Purity counts only clusters that survived to a column;
                // recompute membership below instead of here.
            }
            report.completeness_num = best.iter().sum();
        }
        let mut recovered = Vec::new();
        let mut modal =
            vec![0usize; truth.map_or(0, |t| t.iter().map(|o| o.source + 1).max().unwrap_or(0))];
        for (column, members) in columns.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            report.assigned_columns += 1;
            report.coverage_histogram[column] = members.len();
            report.flipped_reads += members.iter().filter(|&&r| read_flips[r]).count();
            let reads = members.iter().map(|&r| oriented[r].clone()).collect();
            if let Some(truth) = truth {
                report.purity_den += members.len();
                modal.iter_mut().for_each(|c| *c = 0);
                for &r in members {
                    let source = truth[r].source;
                    modal[source] += 1;
                    if source != column {
                        report.misassigned_reads += 1;
                    }
                }
                report.purity_num += modal.iter().max().copied().unwrap_or(0);
            }
            recovered.push(Cluster {
                source: column,
                reads,
            });
        }
        Ok((recovered, report))
    }
}

/// Appends `members` to `column`, counting a merge when another group
/// already claimed it (fragment repair, or rarely a genuine collision).
fn claim(
    columns: &mut [Vec<usize>],
    report: &mut RecoveryReport,
    column: usize,
    members: &[usize],
) {
    if !columns[column].is_empty() {
        report.duplicate_index_merges += 1;
    }
    columns[column].extend_from_slice(members);
}

/// [`IndexField::forward`] with the offset re-synchronized against the known
/// primer: the index starts wherever the primer *actually* ends in this
/// read, which an indel inside the primer region shifts by a base or
/// two. Each candidate end is scored by the edit distance between the
/// primer and the read prefix of that length — all five from one
/// [`BasePattern::prefix_distances`] scan — with a distance past
/// `max(primer length, 1)` scored as the primer length. Ties keep the
/// earlier candidate (the unshifted offset first), so a clean read
/// decodes at exactly the nominal offset. `state` and `scores` are
/// scratch for the kernel and the per-prefix distances.
fn synced_forward_index(
    read: &DnaString,
    primer: &BasePattern,
    offset: usize,
    index: &IndexField,
    state: &mut Vec<usize>,
    scores: &mut Vec<usize>,
) -> Option<u32> {
    let bases = read.as_slice();
    let end = offset.saturating_add(2).min(bases.len());
    primer.prefix_distances(&bases[..end], state, scores);
    let cap = primer.len().max(1);
    let mut best = (usize::MAX, offset);
    for delta in SYNC_SHIFTS {
        let Some(end) = offset.checked_add_signed(delta) else {
            continue;
        };
        // `scores[end]` exists exactly when the read is long enough.
        let Some(&d) = scores.get(end) else {
            continue;
        };
        let d = if d <= cap { d } else { primer.len() };
        if d < best.0 {
            best = (d, end);
        }
    }
    index.forward(read, best.1)
}

/// The primer-end shifts [`synced_forward_index`] tries, in tie-break
/// order.
const SYNC_SHIFTS: [isize; 5] = [0, -1, 1, -2, 2];

/// Where a read carries its ordering index and how to decode it: the
/// unit's transcoder and geometry, plus the length of the index window
/// (field 0's span end, which sizes the anchored clusterer's window),
/// all fixed per unit so the per-read decodes allocate nothing.
struct IndexField {
    transcoder: TranscoderSpec,
    geom: PayloadGeometry,
    /// Payload bases up to and including the index field's last base.
    bases: usize,
}

impl IndexField {
    fn new(params: &CodecParams) -> IndexField {
        let transcoder = params.transcoder();
        let geom = params.payload_geometry();
        let (start, len) = transcoder.field_span(0, geom);
        IndexField {
            transcoder,
            geom,
            bases: start + len,
        }
    }

    /// The index decoded from the read as delivered, with the payload
    /// starting `offset` bases in, or `None` for reads too short to
    /// carry one.
    fn forward(&self, read: &DnaString, offset: usize) -> Option<u32> {
        let payload = read.as_slice().get(offset..)?;
        self.transcoder.decode_index(payload, self.geom).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_strand::{encode_index, Base};

    fn params() -> CodecParams {
        CodecParams::tiny().unwrap()
    }

    /// A synthetic "strand": index + patterned payload, no primers.
    fn strand(idx: u32, fill: &str) -> DnaString {
        let mut s = encode_index(idx, 4).unwrap();
        s.extend(fill.parse::<DnaString>().unwrap().iter().copied());
        s
    }

    #[test]
    fn the_index_decodes_at_the_payload_offset() {
        let index = IndexField::new(&params());
        for idx in [0u32, 3, 9, 14] {
            let s = strand(idx, "ACGTACGTACGT");
            assert_eq!(index.forward(&s, 0), Some(idx));
            let mut padded: DnaString = "GGG".parse().unwrap();
            padded.extend(s.iter().copied());
            assert_eq!(index.forward(&padded, 3), Some(idx));
        }
    }

    #[test]
    fn votes_read_the_index_through_every_transcoder() {
        // A 16-bit index puts a gc-padded pad base inside the index
        // field, and the trellis spreads it over 12 bases: a direct
        // 2-bit read of either decodes the wrong column.
        let geometries = [
            params(),
            CodecParams::new(dna_gf::Field::gf256(), 30, 160, 24, 16).unwrap(),
        ];
        for base in geometries {
            for spec in TranscoderSpec::ALL {
                let params = base.clone().with_transcoder(spec);
                let geom = params.payload_geometry();
                let index = IndexField::new(&params);
                let symbols: Vec<u16> = (0..geom.rows as u16).map(|r| r * 7 % 16).collect();
                for idx in [0u32, 1, 9, (params.cols() - 1) as u32] {
                    let mut s: DnaString = "GGG".parse().unwrap();
                    spec.encode_payload_into(idx, &symbols, geom, &mut s)
                        .unwrap();
                    assert_eq!(index.forward(&s, 3), Some(idx), "{spec} idx {idx}");
                }
            }
        }
    }

    /// The five-call resync the one-pass form replaced: one bounded
    /// comparison per candidate primer end.
    fn synced_forward_index_oracle(
        read: &DnaString,
        primer: &[Base],
        offset: usize,
        index: &IndexField,
    ) -> Option<u32> {
        let mut best = (usize::MAX, offset);
        for delta in SYNC_SHIFTS {
            let Some(end) = offset.checked_add_signed(delta) else {
                continue;
            };
            if end > read.len() {
                continue;
            }
            let d = dna_align::edit_distance_bounded(
                primer,
                &read.as_slice()[..end],
                primer.len().max(1),
            )
            .unwrap_or(primer.len());
            if d < best.0 {
                best = (d, end);
            }
        }
        index.forward(read, best.1)
    }

    #[test]
    fn one_pass_resync_matches_the_five_call_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
        let mut state = Vec::new();
        let mut scores = Vec::new();
        let mut checked = 0;
        let index = IndexField::new(&params());
        for primer_len in [0usize, 1, 2, 5, 12, 16, 20] {
            let primer = DnaString::random(primer_len, &mut rng);
            let pattern = BasePattern::new(primer.as_slice());
            for _ in 0..200 {
                // 0–2 indels or substitutions inside the primer, then an
                // index and a payload of any length (reads shorter than
                // `offset + 2` included).
                let mut read = primer.as_slice().to_vec();
                for _ in 0..rng.gen_range(0..=2) {
                    let at = rng.gen_range(0..=read.len());
                    match rng.gen_range(0..3) {
                        0 => read.insert(at, Base::from_bits(rng.gen())),
                        _ if at < read.len() => {
                            if rng.gen_bool(0.5) {
                                read.remove(at);
                            } else {
                                read[at] = Base::from_bits(rng.gen());
                            }
                        }
                        _ => {}
                    }
                }
                let tail = rng.gen_range(0..12);
                read.extend(DnaString::random(tail, &mut rng).iter().copied());
                let read = DnaString::from_bases(read);
                for offset in [primer_len, primer_len.saturating_sub(1), primer_len + 1] {
                    assert_eq!(
                        synced_forward_index(
                            &read,
                            &pattern,
                            offset,
                            &index,
                            &mut state,
                            &mut scores
                        ),
                        synced_forward_index_oracle(&read, primer.as_slice(), offset, &index),
                        "primer {primer} read {read} offset {offset}"
                    );
                    checked += usize::from(read.len() < offset + 2);
                }
            }
        }
        assert!(checked > 100, "too few short reads: {checked}");
    }

    #[test]
    fn short_reads_do_not_vote() {
        let s: DnaString = "A".parse().unwrap();
        let index = IndexField::new(&params());
        assert_eq!(index.forward(&s, 0), None);
    }

    /// The left primer of the primered tiny geometry the recovery tests
    /// run at.
    fn left() -> Primer {
        Primer::from_strand("ACGGTCAACGTT".parse().unwrap())
    }

    fn primered() -> CodecParams {
        params().with_primer_len(12)
    }

    /// A primer-wrapped synthetic strand.
    fn wrapped(idx: u32, fill: &str) -> DnaString {
        let mut s = left().strand().clone();
        s.extend(strand(idx, fill).iter().copied());
        s
    }

    #[test]
    fn recovery_on_a_clean_primered_pool_assigns_every_column() {
        // Four primer-wrapped strands, three identical reads each, mixed
        // orientations and shuffled order — the well-supported retrieval
        // shape (primers give the orienter its anchor).
        let right: Primer = Primer::from_strand("TGCCAGGTTCAA".parse().unwrap());
        let fills = [
            "AAAACCCCGGGG",
            "TTTTGGGGAAAA",
            "CCGGTTAAGCTA",
            "GATCGATCGATC",
        ];
        let mut clusters = Vec::new();
        for (i, fill) in fills.iter().enumerate() {
            let mut s = wrapped(i as u32, fill);
            s.extend(right.strand().iter().copied());
            clusters.push(Cluster {
                source: i,
                reads: vec![s; 3],
            });
        }
        let pool = AnonymousPool::from_clusters(&clusters, 11);
        let (recovered, report) = RecoveryPipeline::default()
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(recovered.len(), 4);
        for c in &recovered {
            assert_eq!(c.reads.len(), 3, "column {}", c.source);
        }
        assert_eq!(report.total_reads, 12);
        assert_eq!(report.orphaned_reads, 0);
        assert_eq!(report.misassigned_reads, 0);
        assert_eq!(report.purity(), Some(1.0));
        assert_eq!(report.completeness(), Some(1.0));
        assert_eq!(report.coverage_histogram.iter().sum::<usize>(), 12);
    }

    #[test]
    fn empty_pools_are_a_typed_error() {
        let err = RecoveryPipeline::default()
            .recover(&primered(), &left(), &AnonymousPool::default())
            .unwrap_err();
        assert!(matches!(err, StorageError::EmptyPool), "{err}");
    }

    #[test]
    fn reads_too_short_to_carry_an_index_orphan_everything_to_a_typed_error() {
        // The primer alone: no index past it, whatever the resync shift.
        let clusters = vec![Cluster {
            source: 0,
            reads: vec![left().strand().clone(); 2],
        }];
        let pool = AnonymousPool::from_clusters(&clusters, 1);
        let err = RecoveryPipeline::default()
            .recover(&primered(), &left(), &pool)
            .unwrap_err();
        assert!(
            matches!(err, StorageError::AllReadsOrphaned { reads: 2, .. }),
            "{err}"
        );
    }

    #[test]
    fn clusters_naming_one_column_merge_as_fragments() {
        // Two far-apart clusters carrying the same index land in one
        // column, counted as a merge.
        let clusters = vec![
            Cluster {
                source: 0,
                reads: vec![wrapped(2, "AAAAAAAAAAAA"); 2],
            },
            Cluster {
                source: 1,
                reads: vec![wrapped(2, "GGGGGGGGGGGG"); 2],
            },
        ];
        let pool = AnonymousPool::from_clusters(&clusters, 5);
        let (recovered, report) = RecoveryPipeline::greedy(Some(2))
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].source, 2);
        assert_eq!(recovered[0].reads.len(), 4);
        assert_eq!(report.duplicate_index_merges, 1);
    }

    #[test]
    fn reports_merge_counts_and_histograms() {
        let mut a = RecoveryReport {
            total_reads: 10,
            purity_num: 9,
            purity_den: 10,
            coverage_histogram: vec![2, 3],
            ..RecoveryReport::default()
        };
        let b = RecoveryReport {
            total_reads: 6,
            orphaned_reads: 1,
            purity_num: 5,
            purity_den: 5,
            coverage_histogram: vec![1, 0],
            ..RecoveryReport::default()
        };
        a.merge_from(&b);
        assert_eq!(a.total_reads, 16);
        assert_eq!(a.assigned_reads(), 15);
        assert_eq!(a.purity(), Some(14.0 / 15.0));
        assert_eq!(a.coverage_histogram, vec![3, 3]);
        assert!(a.summary().contains("reads=16"));
        // No-truth reports stay unscored.
        assert_eq!(RecoveryReport::default().purity(), None);
        assert_eq!(RecoveryReport::default().completeness(), None);
    }
}
