//! Unlabeled-pool recovery: orient → route → validate.
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
//!    that tells a strand from its reverse complement. The chosen end's
//!    scan leaves the primer's distance to every prefix of the canonical
//!    strand behind, and no later stage scans the primer again;
//! 2. **Route** — the ordering index sits just past the primer, in the
//!    strand's most reliable region, so it names a read's molecule
//!    without any similarity search. The orientation scan's prefix
//!    distances re-synchronize the index offset against the primer's
//!    actual end and also give the decoder's primer verdict, so routed
//!    columns skip the decoder's own primer prefilter. The read then
//!    goes to the column its decoded index names; reads that fail the
//!    primer check or carry no readable in-range index are orphaned;
//! 3. **Validate** — each column groups its reads greedily with one
//!    compiled comparison over a window of bases past the index
//!    (`min(32, remaining payload)` bases; a read joins a group within a
//!    quarter of the window) and keeps the largest group. An outlier
//!    moves to the column of a single-edit neighbour of its index (one
//!    substitution, or one lost or gained base, decoded through the
//!    transcoder) when that column's group matches it; otherwise it stays
//!    when within 2/5 of the window of its own column's group, and is
//!    orphaned when not (a foreign read, or one misrouted beyond repair).
//!
//!    A column whose group is far smaller than the unit's median column
//!    (a quarter of it or less) and matches the larger group of a column
//!    one index edit away holds misrouted copies of that neighbour: its
//!    molecule dropped out. Its reads are re-routed or orphaned, and the
//!    column stays an erasure rather than decoding a wrong molecule. A
//!    real low-coverage column whose content equals such a neighbour's
//!    (padding, repetitive payloads) looks the same and is erased too.
//!
//! That is [`RecoveryPipeline::anchored`], the built-in stage.
//! [`RecoveryPipeline::with_clusterer`] runs a caller's [`ReadClusterer`]
//! in place of routing: each read goes to the column its index names,
//! and the cluster only pools evidence for reads whose index is
//! unreadable. Groups landing on the same column are merged (they are
//! fragments of one molecule), and clusters with no readable index are
//! orphaned.
//!
//! Both read the index through the unit's [`TranscoderSpec`]: its
//! field-0 [`field_span`](TranscoderSpec::field_span) says where the
//! index ends and the validation window starts, and its
//! [`decode_index`](TranscoderSpec::decode_index) decodes every read's
//! index, so unlabeled pools recover under any layout the decoder reads.
//!
//! The outcome is the `Vec<Cluster>` shape the existing decode path has
//! always consumed, plus a [`RecoveryReport`] scoring the reconstruction
//! (cluster purity, completeness, misassigned/orphaned reads, and the
//! per-column coverage histogram) that travels inside
//! [`DecodeReport`](crate::DecodeReport).

use crate::params::CodecParams;
use crate::pipeline::primer_check;
use crate::StorageError;
use dna_align::{AnchorOrienter, BasePattern, ReadClusterer};
use dna_channel::{AnonymousPool, Cluster};
use dna_strand::{Base, DnaString, PayloadGeometry, Primer, TranscoderSpec};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Modal-group strength at which a lone divergent index decode inside a
/// cluster is treated as decode noise and folded back into the modal
/// group rather than assigned to its own column.
const MODAL_FOLD_MIN: usize = 4;

/// The longest validation window routing compares, in bases past the
/// index.
const WINDOW_MAX: usize = 32;

/// How the recovered clusters are scored and shaped — the measurable
/// outcome of the recovery stage.
///
/// All tallies are integer counts so reports stay `Eq`-comparable and
/// mergeable; the ratio views ([`RecoveryReport::purity`],
/// [`RecoveryReport::completeness`]) are derived on demand. Truth-based
/// scores (purity, completeness, misassignment) are only available when
/// the pool carried hidden provenance (simulated pools); replayed traces
/// score structurally (orphans, merges, coverage) only.
///
/// Under routing ([`RecoveryPipeline::anchored`]) a "cluster" is a
/// validation group, and the structural tallies count per read; the
/// field docs say what routing and a caller's clusterer
/// ([`RecoveryPipeline::with_clusterer`]) each count.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Reads in the anonymous pool.
    pub total_reads: usize,
    /// Assigned reads whose delivered orientation was flipped back to
    /// forward.
    pub flipped_reads: usize,
    /// Routing: validation groups, summed over columns. A caller's
    /// clusterer: the clusters it produced (before demux merging).
    pub clusters_found: usize,
    /// Routing orphans reads, not clusters, and leaves this at zero. A
    /// caller's clusterer: clusters that could not be assigned to any
    /// unit column (no read carried a readable in-range index).
    pub orphaned_clusters: usize,
    /// Reads that take no part in decoding. Routing: reads that failed
    /// the primer check, carried no readable in-range index, or matched
    /// no column's group (foreign reads, and misrouted reads of a dropped
    /// molecule that match no neighbour). A caller's clusterer: the reads
    /// inside orphaned clusters.
    pub orphaned_reads: usize,
    /// Distinct unit columns that received at least one read.
    pub assigned_columns: usize,
    /// Routing: outlier reads re-routed to the column of a single-edit
    /// neighbour of their index. A caller's clusterer: clusters merged
    /// into a column that another cluster had already claimed — fragment
    /// repair (or, rarely, a genuine collision).
    pub duplicate_index_merges: usize,
    /// Truth-scored: reads placed in a column other than their true
    /// source strand. Zero when no provenance was available.
    pub misassigned_reads: usize,
    /// Truth-scored purity numerator: per recovered column, the reads
    /// of its modal true source, summed over assigned columns.
    pub purity_num: usize,
    /// Purity denominator: reads across all assigned columns.
    pub purity_den: usize,
    /// Truth-scored completeness numerator: per true source, the largest
    /// number of its reads found together in one recovered column,
    /// summed over sources.
    pub completeness_num: usize,
    /// Completeness denominator: all reads with known provenance.
    pub completeness_den: usize,
    /// Reads assigned per unit column (length = unit columns).
    pub coverage_histogram: Vec<usize>,
}

impl RecoveryReport {
    /// Weighted cluster purity ∈ [0, 1]: the fraction of assigned reads
    /// agreeing with their column's modal source. `None` when the pool
    /// carried no ground truth (or nothing was assigned).
    pub fn purity(&self) -> Option<f64> {
        (self.purity_den > 0).then(|| self.purity_num as f64 / self.purity_den as f64)
    }

    /// Read-weighted completeness ∈ [0, 1]: Σ over source strands of the
    /// reads in each strand's best single column, divided by all reads
    /// with known provenance. `None` without ground truth.
    pub fn completeness(&self) -> Option<f64> {
        (self.completeness_den > 0)
            .then(|| self.completeness_num as f64 / self.completeness_den as f64)
    }

    /// Reads that made it into assigned columns.
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

/// Which recovery algorithm the stage runs.
#[derive(Clone)]
enum ClustererSpec {
    /// Index-first routing and per-column validation; no clusterer.
    Anchored { threshold: Option<usize> },
    /// A caller-provided clusterer, then per-read demux.
    Custom(Arc<dyn ReadClusterer + Send + Sync>),
}

/// The recovery stage preceding decode on unlabeled pools. Pipelines run
/// [`RecoveryPipeline::anchored`] unless the builder sets another
/// ([`PipelineBuilder::recovery`](crate::PipelineBuilder::recovery)).
///
/// # Examples
///
/// ```
/// use dna_storage::{CodecParams, Pipeline};
/// use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pipeline = Pipeline::builder()
///     .params(CodecParams::tiny()?.with_primer_len(12))
///     .build()?;
/// // A varied payload: strands must differ for validation to tell a
/// // misrouted read from its column's own copies.
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

impl RecoveryPipeline {
    /// Index-first routing, with no clusterer: the stage every pipeline
    /// runs unless its builder sets another. The
    /// orientation scan of each read's primer end re-synchronizes the
    /// index offset and gives the decoder's primer verdict; the read then
    /// goes to the column its decoded index names. Each column groups its
    /// reads over a window of `min(32, remaining payload)` bases past the
    /// index and keeps the largest group. An outlier moves to a column
    /// named by a single-edit neighbour of its index whose group it
    /// matches, stays when within 2/5 of the window of its own group, and
    /// is orphaned otherwise. A column at most a quarter the size of the
    /// unit's median column whose group matches a larger neighbour's
    /// holds misrouted reads of that neighbour; its reads are handled as
    /// outliers, and it stays an erasure.
    ///
    /// `threshold` bounds the window comparison: the edit distance at
    /// which a read joins a group. `None` takes a quarter of the window.
    /// The window itself is always geometry-derived.
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
            ClustererSpec::Anchored { .. } => "anchored",
            ClustererSpec::Custom(c) => c.name(),
        }
    }

    /// Whether every read this stage assigns already passed the
    /// decoder's primer check (routing applies it while it routes), so
    /// the decoder need not scan the primer again.
    pub(crate) fn checks_primers(&self) -> bool {
        matches!(self.spec, ClustererSpec::Anchored { .. })
    }

    /// Runs the recovery stage on `pool` for a unit with geometry
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
        // strand's orientation. The orienter's primer scan of the chosen
        // end also gives the read's primer verdict and resynced primer
        // end, which routing and demux read instead of scanning again.
        let orienter = AnchorOrienter::new(left_primer.strand().clone());
        let mut oriented: Vec<DnaString> = Vec::with_capacity(pool.len());
        let mut read_flips: Vec<bool> = Vec::with_capacity(pool.len());
        let mut scans: Vec<PrimerScan> = Vec::with_capacity(pool.len());
        let mut row = Vec::new();
        for read in pool.reads() {
            let (o, canonical) = orienter.orient_with(read, &mut row);
            scans.push(scan_primer(
                &row,
                read.len(),
                left_primer.len(),
                params.primer_len(),
            ));
            read_flips.push(o.is_flipped());
            oriented.push(canonical);
        }

        // 2. Assign reads to columns.
        let columns = match &self.spec {
            ClustererSpec::Anchored { threshold } => {
                route(params, &oriented, &scans, *threshold, &mut report)
            }
            ClustererSpec::Custom(c) => {
                let clusters = c.cluster(&oriented).clusters;
                demux_clusters(params, &oriented, &scans, &clusters, &mut report)
            }
        };
        if columns.iter().all(Vec::is_empty) {
            return Err(StorageError::AllReadsOrphaned {
                reads: pool.len(),
                clusters: report.clusters_found,
            });
        }

        // 3. Materialize the labeled clusters and score the outcome. Each
        // read sits in at most one column, so it is moved, not copied.
        let truth = pool.provenance();
        report.completeness_den = truth.map_or(0, <[_]>::len);
        let mut recovered = Vec::new();
        // Per true source: its reads in this column, and the most of them
        // any one column holds.
        let n_sources = truth.map_or(0, |t| t.iter().map(|o| o.source + 1).max().unwrap_or(0));
        let mut per_source = vec![0usize; n_sources];
        let mut best = vec![0usize; n_sources];
        for (column, members) in columns.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            report.assigned_columns += 1;
            report.coverage_histogram[column] = members.len();
            report.flipped_reads += members.iter().filter(|&&r| read_flips[r]).count();
            let reads = members
                .iter()
                .map(|&r| std::mem::take(&mut oriented[r]))
                .collect();
            if let Some(truth) = truth {
                report.purity_den += members.len();
                per_source.fill(0);
                for &r in members {
                    let source = truth[r].source;
                    per_source[source] += 1;
                    if source != column {
                        report.misassigned_reads += 1;
                    }
                }
                report.purity_num += per_source.iter().max().copied().unwrap_or(0);
                for (b, &c) in best.iter_mut().zip(&per_source) {
                    *b = (*b).max(c);
                }
            }
            recovered.push(Cluster {
                source: column,
                reads,
            });
        }
        report.completeness_num = best.iter().sum();
        Ok((recovered, report))
    }
}

/// Index-first routing: each read goes to the column its decoded index
/// names, and each column is then validated against a window of bases
/// past the index (see the module docs). `scans[r]` is read `r`'s
/// primer scan. Returns the read ids of every column (its largest group
/// in pool order, then the outliers it gained or kept; empty when its
/// molecule dropped out and only a neighbour's misrouted reads named
/// it) and tallies groups, re-routes and orphans into `report`.
/// `threshold` overrides the join bound (a quarter of the window).
fn route(
    params: &CodecParams,
    oriented: &[DnaString],
    scans: &[PrimerScan],
    threshold: Option<usize>,
    report: &mut RecoveryReport,
) -> Vec<Vec<usize>> {
    let cols = params.cols();
    let index = IndexField::new(params);
    let window = WINDOW_MAX.min(params.strand_payload_bases().saturating_sub(index.bases));
    let join = threshold.unwrap_or(window / 4);
    let keep = (2 * window / 5).max(join);
    let mut state = Vec::new();

    // Route. `windows[r]` is where read `r`'s validation window starts.
    let mut columns: Vec<Vec<usize>> = vec![Vec::new(); cols];
    let mut windows = vec![0usize; oriented.len()];
    for (r, (read, scan)) in oriented.iter().zip(scans).enumerate() {
        let idx = scan
            .primed
            .then(|| index.forward(read, scan.end))
            .flatten()
            .map(|idx| idx as usize)
            .filter(|&idx| idx < cols);
        match idx {
            Some(idx) => {
                windows[r] = scan.end + index.bases;
                columns[idx].push(r);
            }
            None => report.orphaned_reads += 1,
        }
    }
    let window_of = |r: usize| {
        let bases = oriented[r].as_slice();
        let start = windows[r].min(bases.len());
        &bases[start..(start + window).min(bases.len())]
    };

    // Validate: group each column greedily against each group's first
    // read; the largest group (ties to the earliest) stays, and its first
    // read represents the column. `reps[c]` is column `c`'s
    // representative and the size of its group.
    let mut reps: Vec<Option<(BasePattern, usize)>> = vec![None; cols];
    let mut outliers: Vec<(usize, usize)> = Vec::new();
    let mut groups: Vec<(BasePattern, Vec<usize>)> = Vec::new();
    for (c, members) in columns.iter_mut().enumerate() {
        if members.is_empty() {
            continue;
        }
        groups.clear();
        for &r in members.iter() {
            let w = window_of(r);
            match groups
                .iter_mut()
                .find(|(rep, _)| rep.distance_bounded(w, join, &mut state).is_some())
            {
                Some((_, group)) => group.push(r),
                None => groups.push((BasePattern::new(w), vec![r])),
            }
        }
        report.clusters_found += groups.len();
        let main = (0..groups.len())
            .max_by_key(|&g| (groups[g].1.len(), std::cmp::Reverse(g)))
            .expect("a non-empty column has a group");
        let (rep, kept) = groups.swap_remove(main);
        for (_, group) in groups.drain(..) {
            outliers.extend(group.into_iter().map(|r| (c, r)));
        }
        reps[c] = Some((rep, kept.len()));
        *members = kept;
    }

    // The first column other than `c`, named by a single-edit neighbour
    // of read `r`'s index, whose group holds more than `floor` reads and
    // matches `r`.
    let (mut field, mut tried, mut scratch) =
        (Vec::with_capacity(index.bases + 1), Vec::new(), Vec::new());
    let mut neighbour =
        |r: usize, c: usize, floor: usize, reps: &[Option<(BasePattern, usize)>]| {
            let w = window_of(r);
            let payload = &oriented[r].as_slice()[windows[r] - index.bases..];
            let mut target = None;
            tried.clear();
            edit_neighbours(payload, index.bases, &mut field, |candidate| {
                let Some(n) = index.decode(candidate).map(|n| n as usize) else {
                    return false;
                };
                if n == c || n >= cols || tried.contains(&n) {
                    return false;
                }
                tried.push(n);
                let matches = reps[n].as_ref().is_some_and(|(rep, size)| {
                    *size > floor && rep.distance_bounded(w, join, &mut scratch).is_some()
                });
                if matches {
                    target = Some(n);
                }
                matches
            });
            target
        };

    // Dropped molecules: a column whose group is far smaller than the
    // unit's median, and matches the larger group of a column its index
    // is one edit from, holds misrouted copies of that neighbour. Its
    // reads become outliers, and the column stays an erasure.
    let mut sizes: Vec<usize> = reps.iter().flatten().map(|&(_, size)| size).collect();
    sizes.sort_unstable();
    let median = sizes.get(sizes.len() / 2).copied().unwrap_or(0);
    let misrouted: Vec<usize> = (0..cols)
        .filter(|&c| {
            reps[c].as_ref().is_some_and(|&(_, size)| {
                4 * size <= median && neighbour(columns[c][0], c, size, &reps).is_some()
            })
        })
        .collect();
    for c in misrouted {
        reps[c] = None;
        outliers.extend(columns[c].drain(..).map(|r| (c, r)));
    }

    // Outliers: re-route to the first single-edit neighbour of the index
    // whose group matches, else keep within `keep` of the own column's
    // group, else orphan.
    for (c, r) in outliers {
        if let Some(n) = neighbour(r, c, 0, &reps) {
            columns[n].push(r);
            report.duplicate_index_merges += 1;
        } else if reps[c].as_ref().is_some_and(|(own, _)| {
            own.distance_bounded(window_of(r), keep, &mut state)
                .is_some()
        }) {
            columns[c].push(r);
        } else {
            report.orphaned_reads += 1;
        }
    }
    columns
}

/// Calls `visit` with the index fields one edit away from the `len`
/// bases at the front of `payload` until it returns `true`: first each
/// single substitution, then each base the read may have lost (one
/// inserted back at every position of its first `len - 1` bases), then
/// each base it may have gained (one dropped from its first `len + 1`).
/// Fields the payload is too short for are skipped; some fields repeat.
/// `field` is scratch.
fn edit_neighbours(
    payload: &[Base],
    len: usize,
    field: &mut Vec<Base>,
    mut visit: impl FnMut(&[Base]) -> bool,
) {
    if let Some(read) = payload.get(..len) {
        field.clear();
        field.extend_from_slice(read);
        for i in 0..len {
            for b in Base::ALL.into_iter().filter(|&b| b != read[i]) {
                field[i] = b;
                if visit(field) {
                    return;
                }
            }
            field[i] = read[i];
        }
    }
    if let Some(read) = len.checked_sub(1).and_then(|short| payload.get(..short)) {
        for i in 0..len {
            for b in Base::ALL {
                field.clear();
                field.extend_from_slice(&read[..i]);
                field.push(b);
                field.extend_from_slice(&read[i..]);
                if visit(field) {
                    return;
                }
            }
        }
    }
    if let Some(read) = payload.get(..len + 1) {
        for i in 0..=len {
            field.clear();
            field.extend_from_slice(&read[..i]);
            field.extend_from_slice(&read[i + 1..]);
            if visit(field) {
                return;
            }
        }
    }
}

/// A caller's clusterer's demultiplex: each cluster's reads are routed to
/// the column their index names, the cluster pooling evidence for reads
/// whose index is unreadable. `scans[r]` is read `r`'s primer scan.
/// Returns the read ids of every column.
fn demux_clusters(
    params: &CodecParams,
    oriented: &[DnaString],
    scans: &[PrimerScan],
    clusters: &[Vec<usize>],
    report: &mut RecoveryReport,
) -> Vec<Vec<usize>> {
    report.clusters_found = clusters.len();
    // The ordering index just past the primer — not cluster identity —
    // is what names a molecule, so demux is fundamentally *per read*:
    // each read is routed to the column its decoded index names, and the
    // cluster only pools evidence (reads whose index region was destroyed
    // follow their cluster's modal group, and singleton disagreements
    // inside a well-supported cluster are folded back as decode noise).
    // This also keeps molecules apart that clustering cannot separate —
    // strands with identical payloads differ only in their index. The
    // index offset is re-synchronized against the primer: an indel inside
    // it shifts the whole strand, and a fixed offset would then decode a
    // random column.
    let cols = params.cols();
    let index = IndexField::new(params);
    // Per column: its reads, in merge order.
    let mut columns: Vec<Vec<usize>> = vec![Vec::new(); cols];
    for members in clusters {
        // Group the cluster's reads by their decoded index (BTreeMap:
        // deterministic ascending-column order).
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        let mut unreadable: Vec<usize> = Vec::new();
        for &r in members {
            let idx = index
                .forward(&oriented[r], scans[r].end)
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
        // Unreadable reads follow it; so does a singleton disagreement
        // when the modal group is strong (a lone divergent decode inside
        // a well-supported cluster is noise, while same-sized groups are
        // genuinely different molecules clustering could not separate).
        let modal = groups
            .iter()
            .map(|(&idx, group)| (group.len(), std::cmp::Reverse(idx)))
            .max()
            .map(|(_, std::cmp::Reverse(idx))| idx)
            .expect("groups is non-empty");
        let modal_len = groups[&modal].len();
        let fold = |idx: usize, len: usize| idx != modal && len == 1 && modal_len >= MODAL_FOLD_MIN;
        let mut modal_members: Vec<usize> = Vec::new();
        for (&idx, group) in &groups {
            if idx == modal || fold(idx, group.len()) {
                modal_members.extend_from_slice(group);
            }
        }
        modal_members.extend_from_slice(&unreadable);
        claim(&mut columns, report, modal, &modal_members);
        for (&idx, group) in &groups {
            if idx != modal && !fold(idx, group.len()) {
                claim(&mut columns, report, idx, group);
            }
        }
    }
    columns
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

/// What one primer scan of a read yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrimerScan {
    /// The decoder's primer verdict ([`primer_check`]): the read begins
    /// with something close to the primer.
    primed: bool,
    /// Where the primer actually ends, i.e. where the payload starts.
    end: usize,
}

/// A read's primer verdict and re-synchronized primer end, read off the
/// primer's prefix distances `scores[j] = D(primer, read[..j])` that
/// orientation left behind ([`AnchorOrienter::orient_with`]); `p` is the
/// primer's length. The index starts wherever the primer *actually* ends
/// in this read, which an indel inside the primer region shifts by a
/// base or two. Each candidate end around the nominal `offset` is scored
/// by its prefix distance, with a distance past `max(p, 1)` scored as
/// `p`. Ties keep the earlier candidate (the unshifted offset first), so
/// a clean read decodes at exactly the nominal offset; a read too short
/// for any candidate keeps `offset`.
///
/// `scores` must reach every candidate and the verdict prefix, or the
/// end of the `read_len`-base read; the orienter's default window,
/// `p + max(p/5, 2)` bases, covers both `offset + 2` (for `offset = p`)
/// and the verdict's `p + slack/2`.
fn scan_primer(scores: &[usize], read_len: usize, p: usize, offset: usize) -> PrimerScan {
    let (prefix_len, bound) = primer_check(p);
    debug_assert!(
        scores.len() > offset.saturating_add(2).max(prefix_len).min(read_len),
        "the primer scores miss a resync candidate or the verdict prefix"
    );
    let cap = p.max(1);
    let mut best = (usize::MAX, offset);
    for delta in SYNC_SHIFTS {
        let Some(end) = offset.checked_add_signed(delta) else {
            continue;
        };
        // `scores[end]` exists exactly when the read is long enough.
        let Some(&d) = scores.get(end) else {
            continue;
        };
        let d = if d <= cap { d } else { p };
        if d < best.0 {
            best = (d, end);
        }
    }
    PrimerScan {
        primed: scores[prefix_len.min(read_len)] <= bound,
        end: best.1,
    }
}

/// The primer-end shifts [`scan_primer`] tries, in tie-break order.
const SYNC_SHIFTS: [isize; 5] = [0, -1, 1, -2, 2];

/// Where a read carries its ordering index and how to decode it: the
/// unit's transcoder and geometry, plus the length of the index field
/// (field 0's span end, where the validation window starts), all fixed
/// per unit so the per-read decodes allocate nothing.
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
        self.decode(read.as_slice().get(offset..)?)
    }

    /// The index decoded from a payload prefix (at least the index
    /// field's bases).
    fn decode(&self, payload: &[Base]) -> Option<u32> {
        self.transcoder.decode_index(payload, self.geom).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_align::GreedyClusterer;
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
    fn synced_index_oracle(
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

    /// The one-scan form [`scan_primer`] replaced: its own
    /// `prefix_distances` scan of the read's front, then the same
    /// verdict and resync.
    fn scan_primer_oracle(
        read: &DnaString,
        primer: &BasePattern,
        offset: usize,
        state: &mut Vec<usize>,
        scores: &mut Vec<usize>,
    ) -> PrimerScan {
        let bases = read.as_slice();
        let p = primer.len();
        let (prefix_len, bound) = primer_check(p);
        let end = offset.saturating_add(2).max(prefix_len).min(bases.len());
        primer.prefix_distances(&bases[..end], state, scores);
        let cap = p.max(1);
        let mut best = (usize::MAX, offset);
        for delta in SYNC_SHIFTS {
            let Some(end) = offset.checked_add_signed(delta) else {
                continue;
            };
            let Some(&d) = scores.get(end) else {
                continue;
            };
            let d = if d <= cap { d } else { p };
            if d < best.0 {
                best = (d, end);
            }
        }
        PrimerScan {
            primed: scores[prefix_len.min(bases.len())] <= bound,
            end: best.1,
        }
    }

    /// The primer scan of `read` from its own prefix distances.
    fn scanned(read: &DnaString, primer: &BasePattern, offset: usize) -> PrimerScan {
        let (mut state, mut scores) = (Vec::new(), Vec::new());
        primer.prefix_distances(read.as_slice(), &mut state, &mut scores);
        scan_primer(&scores, read.len(), primer.len(), offset)
    }

    #[test]
    fn one_pass_resync_matches_the_five_call_oracle() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(18);
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
                        index.forward(&read, scanned(&read, &pattern, offset).end),
                        synced_index_oracle(&read, primer.as_slice(), offset, &index),
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

    /// The right primer of the synthetic strands.
    fn right() -> Primer {
        Primer::from_strand("TGCCAGGTTCAA".parse().unwrap())
    }

    /// A read of the synthetic strand `idx`/`fill`, wrapped in both
    /// primers.
    fn read_of(idx: u32, fill: &str) -> DnaString {
        let mut s = wrapped(idx, fill);
        s.extend(right().strand().iter().copied());
        s
    }

    /// `copies` reads per `(source, index, fill, copies)` entry,
    /// anonymized; `source` is the reads' true column.
    fn pool_of(strands: &[(usize, u32, &str, usize)], seed: u64) -> AnonymousPool {
        let clusters: Vec<Cluster> = strands
            .iter()
            .map(|&(source, idx, fill, copies)| Cluster {
                source,
                reads: vec![read_of(idx, fill); copies],
            })
            .collect();
        AnonymousPool::from_clusters(&clusters, seed)
    }

    fn column_sizes(recovered: &[Cluster]) -> Vec<(usize, usize)> {
        recovered
            .iter()
            .map(|c| (c.source, c.reads.len()))
            .collect()
    }

    #[test]
    fn recovery_on_a_clean_primered_pool_assigns_every_column() {
        // Four primer-wrapped strands, three identical reads each, mixed
        // orientations and shuffled order — the well-supported retrieval
        // shape (primers give the orienter its anchor).
        let pool = pool_of(
            &[
                (0, 0, "AAAACCCCGGGG", 3),
                (1, 1, "TTTTGGGGAAAA", 3),
                (2, 2, "CCGGTTAAGCTA", 3),
                (3, 3, "GATCGATCGATC", 3),
            ],
            11,
        );
        for stage in [
            RecoveryPipeline::anchored(None),
            RecoveryPipeline::with_clusterer(Arc::new(GreedyClusterer::new(4))),
        ] {
            let (recovered, report) = stage.recover(&primered(), &left(), &pool).unwrap();
            let name = stage.clusterer_name();
            assert_eq!(
                column_sizes(&recovered),
                [(0, 3), (1, 3), (2, 3), (3, 3)],
                "{name}"
            );
            assert_eq!(report.total_reads, 12);
            assert_eq!(report.orphaned_reads, 0, "{name}");
            assert_eq!(report.misassigned_reads, 0, "{name}");
            assert_eq!(report.purity(), Some(1.0), "{name}");
            assert_eq!(report.completeness(), Some(1.0), "{name}");
            assert_eq!(report.coverage_histogram.iter().sum::<usize>(), 12);
        }
    }

    #[test]
    fn routing_reroutes_a_read_whose_index_took_one_substitution() {
        // Index 5 is `CC`; one substitution makes it `GC`, index 9. The
        // misread copy lands in column 9, whose reads disagree with it
        // past the index, and its neighbour `CC` names column 5, whose
        // group it matches.
        let pool = pool_of(
            &[
                (5, 5, "AAAACCCCGGGG", 3),
                (9, 9, "TTGGAATTCCGA", 3),
                (5, 9, "AAAACCCCGGGG", 1),
            ],
            3,
        );
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(column_sizes(&recovered), [(5, 4), (9, 3)]);
        assert_eq!(report.duplicate_index_merges, 1);
        assert_eq!(report.misassigned_reads, 0);
        assert_eq!(report.orphaned_reads, 0);
        // Column 9 held two groups before the re-route.
        assert_eq!(report.clusters_found, 3);
    }

    #[test]
    fn routing_keeps_a_dropped_molecules_column_empty() {
        // Molecule 9 has no reads. One read of molecule 5 (index `CC`)
        // took a substitution to `GC`, index 9, and is column 9's only
        // read. Column 9 is far smaller than the median column and matches
        // column 5, one index edit away, so it stays an erasure and the
        // read goes back to column 5. Column 13 is as small, but its one
        // read is its own molecule's, matching no neighbour: it stays.
        let pool = pool_of(
            &[
                (0, 0, "TTGGAATTCCGA", 8),
                (1, 1, "CCAATTGGCCAA", 8),
                (2, 2, "GATTACAGGCAT", 8),
                (3, 3, "ACGTTGCAACGT", 8),
                (5, 5, "AAAACCCCGGGG", 8),
                (5, 9, "AAAACCCCGGGG", 1),
                (13, 13, "CACACACACACA", 1),
            ],
            9,
        );
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(
            column_sizes(&recovered),
            [(0, 8), (1, 8), (2, 8), (3, 8), (5, 9), (13, 1)]
        );
        assert_eq!(report.coverage_histogram[9], 0);
        assert_eq!(report.duplicate_index_merges, 1);
        assert_eq!(report.misassigned_reads, 0);
        assert_eq!(report.orphaned_reads, 0);
    }

    #[test]
    fn routing_erases_a_small_column_identical_to_its_neighbour() {
        // The same shape, but column 9's one read is molecule 9's own,
        // and molecule 9 carries molecule 5's fill (repetitive or padded
        // payloads make such twins). Reads cannot tell this column from
        // a dropped one, so it is erased too and its read joins column 5:
        // a correct column becomes an erasure, never an error.
        let pool = pool_of(
            &[
                (0, 0, "TTGGAATTCCGA", 8),
                (1, 1, "CCAATTGGCCAA", 8),
                (2, 2, "GATTACAGGCAT", 8),
                (3, 3, "ACGTTGCAACGT", 8),
                (5, 5, "AAAACCCCGGGG", 8),
                (9, 9, "AAAACCCCGGGG", 1),
            ],
            9,
        );
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(
            column_sizes(&recovered),
            [(0, 8), (1, 8), (2, 8), (3, 8), (5, 9)]
        );
        assert_eq!(report.duplicate_index_merges, 1);
        assert_eq!(report.misassigned_reads, 1);
    }

    #[test]
    fn routing_reroutes_reads_whose_index_lost_or_gained_a_base() {
        // Index 1 is `AC`. Losing its `A` leaves `CG` (the fill's first
        // base moves up), index 6; a `T` gained before it leaves `TA`,
        // index 12. No substitution turns either back into `AC`; putting
        // one base back, or dropping one, does.
        let (fill, other, third) = ("GATTACAGGCAT", "TTGGAATTCCGA", "CCAATTGGCCAA");
        let at = left().strand().len();
        let mut lost = read_of(1, fill).as_slice().to_vec();
        lost.remove(at);
        let mut gained = read_of(1, fill).as_slice().to_vec();
        gained.insert(at, Base::T);
        let clusters = [
            Cluster {
                source: 1,
                reads: vec![
                    read_of(1, fill),
                    DnaString::from_bases(lost),
                    read_of(1, fill),
                    DnaString::from_bases(gained),
                    read_of(1, fill),
                ],
            },
            Cluster {
                source: 6,
                reads: vec![read_of(6, other); 3],
            },
            Cluster {
                source: 12,
                reads: vec![read_of(12, third); 3],
            },
        ];
        let pool = AnonymousPool::from_clusters(&clusters, 6);
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(column_sizes(&recovered), [(1, 5), (6, 3), (12, 3)]);
        assert_eq!(report.duplicate_index_merges, 2);
        assert_eq!(report.misassigned_reads, 0);
    }

    #[test]
    fn routing_orphans_a_foreign_read_that_carries_a_valid_index() {
        // A decoy-unit read names column 9 but shares nothing past the
        // index with column 9's copies or any neighbour's: it is dropped
        // as orphaned, not assigned.
        let pool = pool_of(
            &[
                (5, 5, "AAAACCCCGGGG", 3),
                (9, 9, "TTGGAATTCCGA", 3),
                (14, 9, "CACACACACACA", 1),
            ],
            4,
        );
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(column_sizes(&recovered), [(5, 3), (9, 3)]);
        assert_eq!(report.orphaned_reads, 1);
        assert_eq!(report.duplicate_index_merges, 0);
        assert_eq!(report.assigned_reads(), 6);
    }

    #[test]
    fn routing_orphans_reads_that_fail_the_primer_check() {
        // Routed columns skip the decoder's primer prefilter, so routing
        // must drop a read whose primer is gone, whatever follows it.
        let fill = "AAAACCCCGGGG";
        let mut unprimed = read_of(5, fill).as_slice().to_vec();
        unprimed[..6].fill(Base::T);
        let mut reads = vec![read_of(5, fill); 3];
        reads.push(DnaString::from_bases(unprimed));
        let primer = BasePattern::new(left().strand().as_slice());
        let scans: Vec<_> = reads.iter().map(|r| scanned(r, &primer, 12)).collect();
        let mut report = RecoveryReport::default();
        let columns = route(&primered(), &reads, &scans, None, &mut report);
        assert_eq!(columns[5], [0, 1, 2]);
        assert_eq!(report.orphaned_reads, 1);
    }

    #[test]
    fn routing_keeps_identical_payloads_with_different_indexes_apart() {
        // The chaos `near-duplicate` shape: strands identical past the
        // index. Only the index tells them apart, and routing reads it
        // per read, so every molecule keeps its own column.
        let fill = "ACGTTGCAACGT";
        let strands: Vec<_> = (0..6).map(|i| (i, i as u32, fill, 3)).collect();
        let pool = pool_of(&strands, 8);
        let (recovered, report) = RecoveryPipeline::anchored(None)
            .recover(&primered(), &left(), &pool)
            .unwrap();
        assert_eq!(
            column_sizes(&recovered),
            (0..6).map(|c| (c, 3)).collect::<Vec<_>>()
        );
        assert_eq!(report.misassigned_reads, 0);
        assert_eq!(report.clusters_found, 6);
    }

    #[test]
    fn the_routing_primer_verdict_is_the_decoders_prefilter() {
        use crate::pipeline::primed_reads;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(22);
        let (mut state, mut out) = (Vec::new(), Vec::new());
        let mut verdicts = [0usize; 2];
        for p in 1..=40usize {
            let primer = DnaString::random(p, &mut rng);
            let pattern = BasePattern::new(primer.as_slice());
            // Up to a few edits past the check's bound, so verdicts on
            // both sides of it come up.
            let most = crate::pipeline::primer_check(p).1 + 2;
            for _ in 0..150 {
                // A quarter of the reads start with an unrelated prefix;
                // the rest carry the primer with 0–2 edits, or with up to
                // `most`. Then a tail of any length (reads shorter than
                // the primer included).
                let mut read = if rng.gen_bool(0.25) {
                    DnaString::random(p, &mut rng).as_slice().to_vec()
                } else {
                    primer.as_slice().to_vec()
                };
                let edits = if rng.gen_bool(0.5) { 2 } else { most };
                for _ in 0..rng.gen_range(0..=edits) {
                    let at = rng.gen_range(0..=read.len());
                    match rng.gen_range(0..3) {
                        0 => read.insert(at, Base::from_bits(rng.gen())),
                        1 if at < read.len() => {
                            read.remove(at);
                        }
                        _ if at < read.len() => read[at] = Base::from_bits(rng.gen()),
                        _ => {}
                    }
                }
                if rng.gen_bool(0.1) {
                    read.truncate(rng.gen_range(0..=read.len()));
                } else {
                    let tail = rng.gen_range(0..12);
                    read.extend(DnaString::random(tail, &mut rng).iter().copied());
                }
                let read = DnaString::from_bases(read);
                let routed = scanned(&read, &pattern, p).primed;
                let cluster = Cluster {
                    source: 0,
                    reads: vec![read.clone()],
                };
                let decoded =
                    !primed_reads(primer.as_slice(), &pattern, &cluster, &mut out, &mut state)
                        .is_empty();
                assert_eq!(routed, decoded, "primer {primer} read {read}");
                verdicts[usize::from(routed)] += 1;
            }
        }
        assert!(verdicts.iter().all(|&n| n > 200), "verdicts {verdicts:?}");
    }

    /// How the orienter decided before it kept its prefix distances: one
    /// bounded score of each end's `p + max(p/5, 2)`-base window, a
    /// distance past `max(p, 1)` scored `p`, ties to the lexicographically
    /// smaller canonical strand.
    fn two_score_orientation(primer: &DnaString, read: &DnaString) -> (bool, DnaString) {
        let p = primer.len();
        let window = (p + (p / 5).max(2)).min(read.len());
        let score = |prefix: &[Base]| {
            dna_align::edit_distance_bounded(primer.as_slice(), prefix, p.max(1)).unwrap_or(p)
        };
        let rc = read.reverse_complement();
        let (forward, reverse) = (
            score(&read.as_slice()[..window]),
            score(&rc.as_slice()[..window]),
        );
        if forward < reverse || (forward == reverse && read.as_slice() <= rc.as_slice()) {
            (false, read.clone())
        } else {
            (true, rc)
        }
    }

    #[test]
    fn the_orienters_distances_give_the_scanned_primer_verdict_and_end() {
        use crate::pipeline::primed_reads;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(24);
        let (mut row, mut state, mut scores, mut out) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let (mut verdicts, mut flips, mut short) = ([0usize; 2], [0usize; 2], 0);
        for p in 1..=40usize {
            let primer = DnaString::random(p, &mut rng);
            let pattern = BasePattern::new(primer.as_slice());
            let orienter = AnchorOrienter::new(primer.clone());
            let window = p + (p / 5).max(2);
            let mut reads = vec![DnaString::new()];
            for _ in 0..60 {
                // The primer with 0–2 edits (a fifth of the reads start
                // with an unrelated prefix instead), then a tail of any
                // length, reads shorter than the window included.
                let mut read = if rng.gen_bool(0.2) {
                    DnaString::random(p, &mut rng).as_slice().to_vec()
                } else {
                    primer.as_slice().to_vec()
                };
                for _ in 0..rng.gen_range(0..=2) {
                    let at = rng.gen_range(0..=read.len());
                    match rng.gen_range(0..3) {
                        0 => read.insert(at, Base::from_bits(rng.gen())),
                        1 if at < read.len() => {
                            read.remove(at);
                        }
                        _ if at < read.len() => read[at] = Base::from_bits(rng.gen()),
                        _ => {}
                    }
                }
                if rng.gen_bool(0.15) {
                    read.truncate(rng.gen_range(0..=read.len()));
                } else {
                    let tail = rng.gen_range(0..30);
                    read.extend(DnaString::random(tail, &mut rng).iter().copied());
                }
                let read = DnaString::from_bases(read);
                reads.push(read.reverse_complement());
                reads.push(read);
            }
            for read in &reads {
                let (o, canonical) = orienter.orient_with(read, &mut row);
                let (flipped, want) = two_score_orientation(&primer, read);
                assert_eq!(
                    (o.is_flipped(), &canonical),
                    (flipped, &want),
                    "primer {primer} read {read}"
                );
                let scan = scan_primer(&row, read.len(), p, p);
                assert_eq!(
                    scan,
                    scan_primer_oracle(&canonical, &pattern, p, &mut state, &mut scores),
                    "primer {primer} read {read}"
                );
                let cluster = Cluster {
                    source: 0,
                    reads: vec![canonical],
                };
                let decoded =
                    !primed_reads(primer.as_slice(), &pattern, &cluster, &mut out, &mut state)
                        .is_empty();
                assert_eq!(scan.primed, decoded, "primer {primer} read {read}");
                verdicts[usize::from(scan.primed)] += 1;
                flips[usize::from(flipped)] += 1;
                short += usize::from(read.len() < window);
            }
        }
        assert!(verdicts.iter().all(|&n| n > 200), "verdicts {verdicts:?}");
        assert!(flips.iter().all(|&n| n > 1000), "flips {flips:?}");
        assert!(short > 500, "too few short reads: {short}");
    }

    #[test]
    fn empty_pools_are_a_typed_error() {
        let err = RecoveryPipeline::anchored(None)
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
        let err = RecoveryPipeline::anchored(None)
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
        let (recovered, report) =
            RecoveryPipeline::with_clusterer(Arc::new(GreedyClusterer::new(2)))
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
