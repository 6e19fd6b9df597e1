//! The end-to-end pipeline: payload → matrix → strands → simulated
//! sequencer → clusters → consensus → Reed–Solomon → payload, for single
//! units and deterministic parallel batches.

use crate::builder::PipelineBuilder;
use crate::layout::Layout;
use crate::matrix::SymbolMatrix;
use crate::params::CodecParams;
use crate::plan::ProtectionPlan;
use crate::recovery::{RecoveryPipeline, RecoveryReport};
use crate::report::{CodewordReport, DecodeReport};
use crate::workspace::DecodeWorkspace;
use crate::StorageError;
use dna_align::BasePattern;
use dna_channel::{AnonymousPool, Cluster, ReadPool, SimulatedSequencer};
use dna_consensus::TraceReconstructor;
use dna_reed_solomon::{CodeFamily, RsError};
use dna_strand::{bits, Base, DnaString, Primer, TranscoderSpec};
use std::cell::RefCell;
use std::sync::Arc;

/// One encoded unit: the synthesized molecules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EncodedUnit {
    strands: Vec<DnaString>,
}

impl EncodedUnit {
    /// The molecules, in column order (index `c` holds column `c`).
    pub fn strands(&self) -> &[DnaString] {
        &self.strands
    }

    /// Number of molecules.
    pub fn len(&self) -> usize {
        self.strands.len()
    }

    /// Whether the unit is empty.
    pub fn is_empty(&self) -> bool {
        self.strands.is_empty()
    }

    /// Total bases synthesized (the paper's synthesis-cost proxy).
    pub fn total_bases(&self) -> usize {
        self.strands.iter().map(DnaString::len).sum()
    }
}

/// One unit's reads, as handed to [`Pipeline::decode`].
#[derive(Debug, Clone, Copy)]
pub enum UnitReads<'a> {
    /// Labeled clusters, one per molecule: perfect clustering, a trace
    /// replay, or the output of [`Pipeline::recover_pool`].
    Clusters(&'a [Cluster]),
    /// An unlabeled, orientation-randomized pool of primer-wrapped
    /// strands (the pipeline must have a primer length). The pipeline's
    /// recovery stage (orient → route → validate) runs first; placement
    /// then trusts the recovered labels, because routing already decoded
    /// each index, and the report carries the outcome in
    /// [`DecodeReport::recovery`].
    Pool(&'a AnonymousPool),
}

/// Decode-time options.
#[derive(Debug, Clone, Default)]
pub struct RetrieveOptions {
    /// Columns to erase regardless of reads — the paper's Fig. 13 knob for
    /// reducing *effective redundancy* in a controlled way.
    pub forced_erasures: Vec<usize>,
    /// Place columns by [`Cluster::source`] instead of parsing the strand
    /// index. Legitimate under the paper's perfect-clustering methodology
    /// (§6.1.2), where cluster identity is known by construction; used by
    /// the no-ECC ranking study, which has no parity to absorb
    /// index-corruption column losses.
    pub trust_cluster_sources: bool,
}

impl RetrieveOptions {
    /// The options for decoding clusters that recovery already labeled
    /// ([`Pipeline::recover_pool`]'s output): placement trusts the
    /// recovered cluster labels — recovery already decoded each read's
    /// ordering index — while the caller's forced erasures still apply. [`UnitReads::Pool`] inputs get this placement
    /// automatically.
    pub fn recovered(forced_erasures: Vec<usize>) -> RetrieveOptions {
        RetrieveOptions {
            forced_erasures,
            trust_cluster_sources: true,
        }
    }
}

/// The storage pipeline: encodes payload units into molecules and decodes
/// clustered reads back, one unit at a time or in parallel batches.
#[derive(Clone)]
pub struct Pipeline {
    params: CodecParams,
    layout: Layout,
    plan: ProtectionPlan,
    /// One code per distinct plan rate (a uniform plan is a one-rate
    /// family); `None` when `parity_cols == 0` and no error correction
    /// runs.
    rs: Option<Arc<CodeFamily>>,
    consensus: Arc<dyn TraceReconstructor + Send + Sync>,
    primers: Option<(Primer, Primer)>,
    /// The stage every [`UnitReads::Pool`] runs before decoding.
    recovery: RecoveryPipeline,
    /// Every codeword's cell list, precomputed once from the layout (and
    /// plan) so the per-unit hot paths never re-derive (or re-allocate)
    /// them.
    cw_positions: Arc<Vec<Vec<(usize, usize)>>>,
    /// The payload placement table: entry `p` is the flat
    /// ([`SymbolMatrix::offset`]) cell that [`Layout::place`] assigns
    /// payload symbol `p`. Encode scatters through it and the decode
    /// unmap gathers through it, so neither divides per symbol.
    data_cells: Arc<[u32]>,
}

/// Units each worker encodes per batch of
/// [`Pipeline::encode_chunked_packed`]: enough to amortize the batch's
/// thread start-up, few enough that a batch stays a fraction of a
/// laptop capsule.
const UNITS_PER_WORKER: usize = 4;

/// Per-worker encode scratch, reused across units: the symbol matrix,
/// the payload's symbols, one codeword and one strand. After its first
/// unit the packed encoder allocates nothing.
#[derive(Debug, Default)]
struct EncodeScratch {
    matrix: SymbolMatrix,
    symbols: Vec<u16>,
    codeword: Vec<u16>,
    strand: DnaString,
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("params", &self.params)
            .field("layout", &self.layout.name())
            .field("plan", &self.plan.summary())
            .field("consensus", &self.consensus.name())
            .finish()
    }
}

impl Pipeline {
    /// Starts a fluent, validated [`PipelineBuilder`] — the primary
    /// construction path.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::new()
    }

    /// Assembles a pipeline from parts validated by the builder.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        params: CodecParams,
        layout: Layout,
        plan: ProtectionPlan,
        rs: Option<Arc<CodeFamily>>,
        cw_positions: Vec<Vec<(usize, usize)>>,
        consensus: Arc<dyn TraceReconstructor + Send + Sync>,
        primers: Option<(Primer, Primer)>,
        recovery: RecoveryPipeline,
    ) -> Pipeline {
        let (rows, data_cols) = (params.rows(), params.data_cols());
        let data_cells = (0..rows * data_cols)
            .map(|p| {
                let (r, c) = layout.place(p, rows, data_cols);
                u32::try_from(SymbolMatrix::offset(rows, r, c)).expect("matrix cells fit in u32")
            })
            .collect();
        Pipeline {
            params,
            layout,
            plan,
            rs,
            consensus,
            primers,
            recovery,
            cw_positions: Arc::new(cw_positions),
            data_cells,
        }
    }

    /// The payload transcoder in effect ([`CodecParams::transcoder`]).
    pub fn transcoder(&self) -> TranscoderSpec {
        self.params.transcoder()
    }

    /// The unit geometry.
    pub fn params(&self) -> &CodecParams {
        &self.params
    }

    /// The layout in use.
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The protection plan in effect: uniform at
    /// [`CodecParams::parity_cols`] unless the builder was given a plan
    /// or planner.
    pub fn protection_plan(&self) -> &ProtectionPlan {
        &self.plan
    }

    /// The precomputed cell list of every codeword, in codeword order —
    /// data cells first, then that codeword's parity cells (whose count
    /// follows the protection plan).
    pub fn codeword_positions(&self) -> &[Vec<(usize, usize)>] {
        &self.cw_positions
    }

    /// Bytes of payload one unit holds.
    pub fn payload_capacity(&self) -> usize {
        self.params.payload_bytes()
    }

    /// The primer pair flanking every strand, when primers are enabled.
    pub fn primers(&self) -> Option<(&Primer, &Primer)> {
        self.primers.as_ref().map(|(l, r)| (l, r))
    }

    /// Returns a pipeline identical to this one but flanking strands with
    /// the given primer pair — the one path for explicit primers (the
    /// builder draws a deterministic pair whenever the geometry has a
    /// primer length). The object store re-keys per capsule this way:
    /// every capsule owns its own PCR address while sharing one codec
    /// geometry. Cheap: the RS bank, codeword cells, and consensus engine
    /// are shared behind `Arc`s.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when either primer is empty
    /// or its length differs from [`CodecParams::primer_len`].
    pub fn with_primers(mut self, left: Primer, right: Primer) -> Result<Pipeline, StorageError> {
        let expect = self.params.primer_len();
        if left.is_empty() || right.is_empty() {
            return Err(StorageError::InvalidParams(
                "explicit primers must be non-empty".into(),
            ));
        }
        if left.len() != expect || right.len() != expect {
            return Err(StorageError::InvalidParams(format!(
                "primer lengths {}/{} do not match params.primer_len() = {expect}",
                left.len(),
                right.len()
            )));
        }
        self.primers = Some((left, right));
        Ok(self)
    }

    /// Encodes `payload` (at most [`Pipeline::payload_capacity`] bytes;
    /// shorter payloads are zero-padded) into one unit of molecules.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::PayloadTooLarge`] when the payload exceeds
    /// the unit capacity.
    pub fn encode_unit(&self, payload: &[u8]) -> Result<EncodedUnit, StorageError> {
        thread_local! {
            static SCRATCH: RefCell<EncodeScratch> = RefCell::new(EncodeScratch::default());
        }
        SCRATCH.with(|scratch| {
            let scratch = &mut *scratch.borrow_mut();
            self.fill_matrix(payload, scratch)?;
            let strands = (0..self.params.cols())
                .map(|c| {
                    let mut strand = DnaString::with_capacity(self.params.strand_bases());
                    self.emit_strand(scratch.matrix.column_slice(c), c, &mut strand)?;
                    Ok(strand)
                })
                .collect::<Result<_, StorageError>>()?;
            Ok(EncodedUnit { strands })
        })
    }

    /// Bytes of one unit's packed strands: every column's strand packed
    /// four bases to a byte ([`bits::pack_bases_into`]), in column order.
    pub fn packed_unit_len(&self) -> usize {
        self.params.cols() * bits::packed_base_len(self.params.strand_bases())
    }

    /// The encoder core behind both outputs: scatters `payload`'s symbols
    /// into `scratch.matrix` through the placement table, then writes
    /// every codeword's Reed–Solomon parity. Cells past a short payload
    /// stay zero, exactly as if it had been zero-padded to capacity.
    fn fill_matrix(&self, payload: &[u8], scratch: &mut EncodeScratch) -> Result<(), StorageError> {
        let capacity = self.payload_capacity();
        if payload.len() > capacity {
            return Err(StorageError::PayloadTooLarge {
                offered: payload.len(),
                capacity,
            });
        }
        let EncodeScratch {
            matrix,
            symbols,
            codeword,
            ..
        } = scratch;
        let rows = self.params.rows();
        matrix.reset(rows, self.params.cols());
        bits::bytes_to_symbols_into(payload, self.params.symbol_bits(), symbols)?;
        let cells = matrix.cells_mut();
        for (&at, &sym) in self.data_cells.iter().zip(symbols.iter()) {
            cells[at as usize] = sym;
        }
        if let Some(family) = &self.rs {
            let m_cols = self.params.data_cols();
            // One codeword buffer reused across all codewords (sized for
            // the longest rate in the plan); parity is written in place
            // by each code's division kernel. Zero-parity codewords are
            // unprotected and skipped.
            codeword.clear();
            codeword.resize(m_cols + self.plan.max_parity(), 0);
            for (k, pos) in self.cw_positions.iter().enumerate() {
                let Some(rs) = family.get(self.plan.parity_of(k)) else {
                    continue;
                };
                let cw = &mut codeword[..rs.codeword_len()];
                debug_assert_eq!(cw.len(), pos.len());
                for (slot, &(r, c)) in cw[..m_cols].iter_mut().zip(&pos[..m_cols]) {
                    *slot = cells[SymbolMatrix::offset(rows, r, c)];
                }
                rs.fill_parity(cw)?;
                for (&sym, &(r, c)) in cw[m_cols..].iter().zip(&pos[m_cols..]) {
                    cells[SymbolMatrix::offset(rows, r, c)] = sym;
                }
            }
        }
        Ok(())
    }

    /// Appends column `c`'s strand to `out`: [primer]
    /// transcoded(index | column symbols) [primer]. The transcoder
    /// appends in place, so a reused `out` allocates nothing.
    fn emit_strand(
        &self,
        column: &[u16],
        c: usize,
        out: &mut DnaString,
    ) -> Result<(), StorageError> {
        if let Some((left, _)) = &self.primers {
            out.extend(left.strand().iter().copied());
        }
        self.transcoder().encode_payload_into(
            c as u32,
            column,
            self.params.payload_geometry(),
            out,
        )?;
        if let Some((_, right)) = &self.primers {
            out.extend(right.strand().iter().copied());
        }
        Ok(())
    }

    /// Encodes one unit straight into `out` ([`Pipeline::packed_unit_len`]
    /// bytes): each column's strand is emitted into the scratch strand and
    /// packed into its slice of `out`.
    fn encode_packed_into(
        &self,
        payload: &[u8],
        out: &mut [u8],
        scratch: &mut EncodeScratch,
    ) -> Result<(), StorageError> {
        self.fill_matrix(payload, scratch)?;
        let EncodeScratch { matrix, strand, .. } = scratch;
        let per_strand = bits::packed_base_len(self.params.strand_bases());
        for (c, packed) in out.chunks_exact_mut(per_strand).enumerate() {
            strand.clear();
            self.emit_strand(matrix.column_slice(c), c, strand)?;
            debug_assert_eq!(strand.len(), self.params.strand_bases());
            bits::pack_bases_into(strand.as_slice(), packed);
        }
        Ok(())
    }

    /// Encodes many payload units in parallel across scoped threads.
    ///
    /// Results are byte-identical to calling [`Pipeline::encode_unit`] on
    /// each payload in order, at any thread count (`DNA_SKEW_THREADS`
    /// caps the fan-out).
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) per-unit error, as the serial
    /// loop would.
    pub fn encode_batch<P: AsRef<[u8]> + Sync>(
        &self,
        payloads: &[P],
    ) -> Result<Vec<EncodedUnit>, StorageError> {
        dna_parallel::parallel_map(payloads.len(), |u| self.encode_unit(payloads[u].as_ref()))
            .into_iter()
            .collect()
    }

    /// Splits one oversized payload into unit-capacity chunks (the last
    /// chunk zero-padded) and encodes them as a batch.
    ///
    /// # Errors
    ///
    /// Propagates per-unit encoding errors.
    pub fn encode_chunked(&self, payload: &[u8]) -> Result<Vec<EncodedUnit>, StorageError> {
        let chunks: Vec<&[u8]> = (0..self.chunked_units(payload.len()))
            .map(|u| self.chunk(payload, u))
            .collect();
        self.encode_batch(&chunks)
    }

    /// Units [`Pipeline::encode_chunked`] splits a `len`-byte payload
    /// into: at least one, so an empty payload still encodes one unit.
    pub fn chunked_units(&self, len: usize) -> usize {
        len.div_ceil(self.payload_capacity().max(1)).max(1)
    }

    /// Unit `u`'s chunk of `payload`: empty past the end.
    fn chunk<'a>(&self, payload: &'a [u8], u: usize) -> &'a [u8] {
        let cap = self.payload_capacity().max(1);
        payload
            .get(u * cap..payload.len().min((u + 1) * cap))
            .unwrap_or_default()
    }

    /// [`Pipeline::encode_chunked`] straight into packed pool bytes,
    /// streamed: units are encoded in parallel batches, one scratch per
    /// worker (`DNA_SKEW_THREADS` caps the fan-out), and each batch's
    /// packed units ([`Pipeline::packed_unit_len`] bytes each, in unit
    /// order) are handed to `sink` in order. The bytes `sink` sees equal
    /// every strand of `encode_chunked(payload)` packed with
    /// [`bits::pack_bases_into`], at any thread count, while only one
    /// batch is ever held.
    ///
    /// # Errors
    ///
    /// Propagates per-unit encoding errors and the first error `sink`
    /// returns.
    pub fn encode_chunked_packed(
        &self,
        payload: &[u8],
        mut sink: impl FnMut(&[u8]) -> Result<(), StorageError>,
    ) -> Result<(), StorageError> {
        let units = self.chunked_units(payload.len());
        let unit_len = self.packed_unit_len();
        let batch = (dna_parallel::max_threads() * UNITS_PER_WORKER).min(units);
        let mut buf = vec![0u8; batch * unit_len];
        for first in (0..units).step_by(batch) {
            let packed = &mut buf[..batch.min(units - first) * unit_len];
            let mut slots: Vec<&mut [u8]> = packed.chunks_mut(unit_len).collect();
            dna_parallel::parallel_map_slots_init(
                &mut slots,
                EncodeScratch::default,
                |s, i, out| self.encode_packed_into(self.chunk(payload, first + i), out, s),
            )
            .into_iter()
            .collect::<Result<(), _>>()?;
            sink(packed)?;
        }
        Ok(())
    }

    /// Produces read pools for a whole batch of units through
    /// `sequencer`, fanning units out across scoped threads.
    /// Deterministic in the seed regardless of thread count: unit `u`
    /// always sees [`dna_channel::unit_seed`]`(seed, u)`.
    pub fn sequence_batch(
        &self,
        sequencer: &SimulatedSequencer,
        units: &[EncodedUnit],
        seed: u64,
    ) -> Vec<ReadPool> {
        dna_parallel::parallel_map(units.len(), |u| {
            sequencer.sequence_unit(u, &units[u].strands, seed)
        })
    }

    /// Decodes units of reads back into payloads: the one decode entry
    /// point, which every shorthand below calls.
    ///
    /// Each unit runs consensus, index/symbol decode, one Reed–Solomon
    /// decode per codeword, and the layout unmap; [`UnitReads::Pool`]
    /// units run the pipeline's recovery stage first. Execution follows from the input:
    /// with `Some(ws)` every unit decodes serially on the caller's
    /// workspace (after its first use, the workspace-managed stages
    /// allocate nothing); with `None`, a single unit borrows a per-thread
    /// workspace and several units fan out across scoped threads with one
    /// workspace per worker. Results are byte-identical across the three
    /// at any thread count (`DNA_SKEW_THREADS` caps the fan-out), in
    /// input order.
    ///
    /// # Errors
    ///
    /// Returns the first (lowest-index) unit's [`StorageError`]: a
    /// substrate failure, a recovery error (see
    /// [`RecoveryPipeline::recover`]), or [`StorageError::InvalidParams`]
    /// for a [`UnitReads::Pool`] on a pipeline without primers. Codeword
    /// decode failures are *not* errors — they are recorded in the report
    /// and the affected symbols pass through uncorrected (graceful
    /// degradation).
    pub fn decode(
        &self,
        units: &[UnitReads<'_>],
        opts: &RetrieveOptions,
        ws: Option<&mut DecodeWorkspace>,
    ) -> Result<Vec<(Vec<u8>, DecodeReport)>, StorageError> {
        thread_local! {
            static WORKSPACE: RefCell<DecodeWorkspace> = RefCell::new(DecodeWorkspace::new());
        }
        match (ws, units) {
            (Some(ws), _) => units
                .iter()
                .map(|&unit| self.decode_one(unit, opts, ws))
                .collect(),
            (None, &[unit]) => {
                WORKSPACE.with(|ws| Ok(vec![self.decode_one(unit, opts, &mut ws.borrow_mut())?]))
            }
            (None, _) => {
                dna_parallel::parallel_map_init(units.len(), DecodeWorkspace::new, |ws, u| {
                    self.decode_one(units[u], opts, ws)
                })
                .into_iter()
                .collect()
            }
        }
    }

    /// [`Pipeline::decode`] of one cluster set with the default
    /// [`RetrieveOptions`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::decode`].
    pub fn decode_unit(
        &self,
        clusters: &[Cluster],
    ) -> Result<(Vec<u8>, DecodeReport), StorageError> {
        let unit = [UnitReads::Clusters(clusters)];
        Ok(self
            .decode(&unit, &RetrieveOptions::default(), None)?
            .remove(0))
    }

    /// [`Pipeline::decode`] of many cluster sets, in parallel, with the
    /// default [`RetrieveOptions`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::decode`].
    pub fn decode_batch(
        &self,
        per_unit_clusters: &[Vec<Cluster>],
    ) -> Result<Vec<(Vec<u8>, DecodeReport)>, StorageError> {
        let units: Vec<_> = per_unit_clusters
            .iter()
            .map(|c| UnitReads::Clusters(c))
            .collect();
        self.decode(&units, &RetrieveOptions::default(), None)
    }

    /// [`Pipeline::decode`] of one unlabeled pool with the default
    /// [`RetrieveOptions`]. On a zero-noise pool this is byte-identical
    /// to the labeled decode path; under noise, clustering and
    /// orientation errors add a new skew axis on top of the channel's,
    /// which is exactly what the recovery conformance suite and the
    /// `ablation_recovery` bench measure.
    ///
    /// # Errors
    ///
    /// See [`Pipeline::decode`].
    pub fn decode_pool(
        &self,
        pool: &AnonymousPool,
    ) -> Result<(Vec<u8>, DecodeReport), StorageError> {
        let unit = [UnitReads::Pool(pool)];
        Ok(self
            .decode(&unit, &RetrieveOptions::default(), None)?
            .remove(0))
    }

    /// [`Pipeline::decode`] of many unlabeled pools, in parallel, with the
    /// default [`RetrieveOptions`].
    ///
    /// # Errors
    ///
    /// See [`Pipeline::decode`].
    pub fn decode_pool_batch(
        &self,
        pools: &[AnonymousPool],
    ) -> Result<Vec<(Vec<u8>, DecodeReport)>, StorageError> {
        let units: Vec<_> = pools.iter().map(UnitReads::Pool).collect();
        self.decode(&units, &RetrieveOptions::default(), None)
    }

    /// Reconstructs labeled clusters from an unlabeled pool — the
    /// front half of retrieval — without decoding, returning the
    /// clusters alongside the [`RecoveryReport`]. Runs the pipeline's
    /// [`RecoveryPipeline`]; decode the result with
    /// [`RetrieveOptions::recovered`] placement.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] when the pipeline has no primers;
    /// otherwise see [`RecoveryPipeline::recover`].
    pub fn recover_pool(
        &self,
        pool: &AnonymousPool,
    ) -> Result<(Vec<Cluster>, RecoveryReport), StorageError> {
        self.recovery
            .recover(&self.params, self.left_primer()?, pool)
    }

    /// The left primer, which orients and routes every pool read.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] when the pipeline has no primers.
    fn left_primer(&self) -> Result<&Primer, StorageError> {
        match &self.primers {
            Some((left, _)) => Ok(left),
            None => Err(StorageError::InvalidParams(
                "unlabeled pools need primer-wrapped strands to orient and demultiplex \
                 reads: build the pipeline with CodecParams::with_primer_len"
                    .into(),
            )),
        }
    }

    /// Decodes one unit on `ws`, recovering it first when it is a pool.
    fn decode_one(
        &self,
        unit: UnitReads<'_>,
        opts: &RetrieveOptions,
        ws: &mut DecodeWorkspace,
    ) -> Result<(Vec<u8>, DecodeReport), StorageError> {
        match unit {
            UnitReads::Clusters(clusters) => self.decode_clusters(
                clusters,
                opts.trust_cluster_sources,
                true,
                &opts.forced_erasures,
                ws,
            ),
            UnitReads::Pool(pool) => {
                let (clusters, recovery) = self.recover_pool(pool)?;
                // Routing already applied the primer check to every read
                // it assigned; a caller's clusterer did not.
                let (payload, mut report) = self.decode_clusters(
                    &clusters,
                    true,
                    !self.recovery.checks_primers(),
                    &opts.forced_erasures,
                    ws,
                )?;
                report.recovery = Some(recovery);
                Ok((payload, report))
            }
        }
    }

    /// Decodes labeled clusters on `ws`. With `check_primers`, reads that
    /// do not begin with the left primer are left out of consensus.
    fn decode_clusters(
        &self,
        clusters: &[Cluster],
        trust_cluster_sources: bool,
        check_primers: bool,
        forced_erasures: &[usize],
        ws: &mut DecodeWorkspace,
    ) -> Result<(Vec<u8>, DecodeReport), StorageError> {
        let cols = self.params.cols();
        let rows = self.params.rows();
        let m = self.params.symbol_bits();
        let geom = self.params.payload_geometry();
        let transcoder = self.params.transcoder();
        // Split the workspace into disjoint buffers and rebuild each from
        // scratch; nothing from a previous decode can leak through.
        let DecodeWorkspace {
            matrix,
            present,
            erased,
            received,
            erasures,
            symbols,
            rs: rs_scratch,
            filtered,
            dp_row,
        } = ws;
        matrix.reset(rows, cols);
        present.clear();
        present.resize(cols, false);
        let mut report = DecodeReport::default();
        let primer = self
            .primers
            .as_ref()
            .filter(|_| check_primers)
            .map(|(left, _)| {
                let bases = left.strand().as_slice();
                (bases, BasePattern::new(bases))
            });

        for cluster in clusters {
            let reads = match &primer {
                Some((bases, pattern)) => primed_reads(bases, pattern, cluster, filtered, dp_row),
                None => &cluster.reads,
            };
            if reads.is_empty() {
                continue;
            }
            let full = self
                .consensus
                .reconstruct(reads, self.params.strand_bases());
            // Trim primers (their content is known; only the payload
            // matters). Sub-slices of the consensus strand stand in for
            // the old per-region copies.
            let p = self.params.primer_len();
            let strand = &full.as_slice()[p..full.len() - p];
            // Range-check in `usize`: a replayed label past `u32::MAX`
            // must count as invalid, not wrap onto a real column.
            let idx = if trust_cluster_sources {
                cluster.source
            } else {
                transcoder.decode_index(strand, geom)? as usize
            };
            if idx >= cols {
                report.invalid_indexes += 1;
                continue;
            }
            if present[idx] {
                report.index_conflicts += 1;
                continue;
            }
            for (r, slot) in matrix.column_mut(idx).iter_mut().enumerate() {
                *slot = transcoder.decode_symbol(strand, r, geom)?;
            }
            present[idx] = true;
        }
        for &c in forced_erasures {
            if c < cols && present[c] {
                present[c] = false;
                matrix.zero_column(c);
            }
        }
        erased.clear();
        erased.extend(present.iter().map(|&p| !p));
        report.lost_columns = erased.iter().filter(|&&e| e).count();

        if let Some(family) = &self.rs {
            report.codewords.reserve(self.cw_positions.len());
            report.row_errors = vec![0; rows];
            report.row_erasures = vec![0; rows];
            for (k, pos) in self.cw_positions.iter().enumerate() {
                erasures.clear();
                erasures.extend(
                    pos.iter()
                        .enumerate()
                        .filter(|(_, &(_, c))| erased[c])
                        .map(|(i, _)| i),
                );
                let declared = erasures.len();
                for &i in erasures.iter() {
                    report.row_erasures[pos[i].0] += 1;
                }
                let Some(rs) = family.get(self.plan.parity_of(k)) else {
                    // Zero-parity codeword: passes through unprotected,
                    // but its lost cells still count as declared
                    // erasures (they are data the unit cannot recover).
                    report.codewords.push(CodewordReport {
                        declared_erasures: declared,
                        ..CodewordReport::default()
                    });
                    continue;
                };
                received.clear();
                received.extend(pos.iter().map(|&(r, c)| matrix.get(r, c)));
                match rs.decode_with_scratch(received, erasures, rs_scratch) {
                    Ok(correction) => {
                        // The decoder changes exactly the symbols it lists,
                        // so only those go back; a clean word writes none.
                        // The empirical skew feed: corrected symbol
                        // *errors* per row (fixed erasures are column
                        // losses, not row skew).
                        for &i in &correction.positions {
                            let (r, c) = pos[i];
                            matrix.set(r, c, received[i]);
                            if erasures.binary_search(&i).is_err() {
                                report.row_errors[r] += 1;
                            }
                        }
                        report.codewords.push(CodewordReport {
                            corrected_errors: correction.errors,
                            corrected_erasures: correction.erasures,
                            declared_erasures: declared,
                            failed: false,
                        });
                    }
                    Err(RsError::TooManyErrors) | Err(RsError::TooManyErasures { .. }) => {
                        report.codewords.push(CodewordReport {
                            declared_erasures: declared,
                            failed: true,
                            ..CodewordReport::default()
                        });
                    }
                    Err(e) => return Err(e.into()),
                }
            }
        } else {
            report
                .codewords
                .extend((0..rows).map(|_| CodewordReport::default()));
        }

        // Unmap the (best-effort corrected) data region.
        let cells = matrix.cells();
        symbols.clear();
        symbols.extend(self.data_cells.iter().map(|&at| cells[at as usize]));
        let payload = bits::symbols_to_bytes(symbols, m, self.payload_capacity())?;
        Ok((payload, report))
    }
}

/// The primer check for a `p`-base primer, as `(prefix, bound)`: a read
/// passes when the primer is within `bound` edits of its first `prefix`
/// bases. The slack (`p / 5`, at least 2) absorbs indels near the start.
pub(crate) fn primer_check(p: usize) -> (usize, usize) {
    let slack = (p / 5).max(2);
    (p + slack / 2, slack + slack / 2)
}

/// The reads of `cluster` that pass the primer check — each must begin
/// with something close to the left `primer`, whose compiled form is
/// `pattern`. When every read passes (the common case) that is the
/// cluster's own slice, and nothing is copied; otherwise the passing reads
/// are cloned into `out`. Routing recovery derives this same verdict from
/// its own primer scan, so its columns skip this pass.
///
/// A read that starts with the exact primer passes without a scan: its
/// prefix is the primer plus `q − p ≤ slack / 2` more bases, so the
/// distance is `q − p`, within the bound.
pub(crate) fn primed_reads<'a>(
    primer: &[Base],
    pattern: &BasePattern,
    cluster: &'a Cluster,
    out: &'a mut Vec<DnaString>,
    state: &mut Vec<usize>,
) -> &'a [DnaString] {
    let (prefix_len, bound) = primer_check(primer.len());
    let mut passes = |read: &DnaString| {
        let prefix = &read.as_slice()[..prefix_len.min(read.len())];
        prefix.starts_with(primer) || pattern.distance_bounded(prefix, bound, state).is_some()
    };
    let Some(first_fail) = cluster.reads.iter().position(|read| !passes(read)) else {
        return &cluster.reads;
    };
    out.clear();
    out.extend_from_slice(&cluster.reads[..first_fail]);
    out.extend(
        cluster.reads[first_fail + 1..]
            .iter()
            .filter(|read| passes(read))
            .cloned(),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};

    fn build(params: CodecParams, layout: Layout) -> Pipeline {
        Pipeline::builder()
            .params(params)
            .layout(layout)
            .build()
            .unwrap()
    }

    fn simulate(
        unit: &EncodedUnit,
        model: ErrorModel,
        coverage: CoverageModel,
        seed: u64,
    ) -> ReadPool {
        SimulatedSequencer::new(model, coverage).sequence_unit(0, unit.strands(), seed)
    }

    fn roundtrip(
        layout: Layout,
        p: f64,
        coverage: usize,
        seed: u64,
    ) -> (Vec<u8>, Vec<u8>, DecodeReport) {
        let params = CodecParams::tiny().unwrap();
        let pipeline = build(params, layout);
        let payload: Vec<u8> = (0..pipeline.payload_capacity())
            .map(|i| (i * 31 + 7) as u8)
            .collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(
            &unit,
            ErrorModel::uniform(p),
            CoverageModel::Fixed(coverage),
            seed,
        );
        let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        (payload, decoded, report)
    }

    #[test]
    fn noiseless_round_trip_all_layouts() {
        for layout in [
            Layout::Baseline,
            Layout::Gini {
                excluded_rows: vec![],
            },
            Layout::Gini {
                excluded_rows: vec![0, 5],
            },
            Layout::DnaMapper,
        ] {
            let (original, decoded, report) = roundtrip(layout.clone(), 0.0, 1, 1);
            assert_eq!(original, decoded, "layout {:?}", layout);
            assert!(report.is_error_free());
            assert_eq!(report.total_corrected(), 0);
        }
    }

    #[test]
    fn noisy_round_trip_corrects_errors() {
        for layout in [
            Layout::Baseline,
            Layout::Gini {
                excluded_rows: vec![],
            },
            Layout::DnaMapper,
        ] {
            let (original, decoded, report) = roundtrip(layout.clone(), 0.02, 10, 2);
            assert_eq!(original, decoded, "layout {:?}", layout);
            assert!(report.is_error_free());
        }
    }

    #[test]
    fn strand_geometry_matches_params() {
        let params = CodecParams::tiny().unwrap();
        let pipeline = build(params.clone(), Layout::Baseline);
        let unit = pipeline.encode_unit(&[1, 2, 3]).unwrap();
        assert_eq!(unit.len(), params.cols());
        assert!(unit
            .strands()
            .iter()
            .all(|s| s.len() == params.strand_bases()));
        assert_eq!(unit.total_bases(), params.cols() * params.strand_bases());
    }

    #[test]
    fn oversized_payload_is_rejected() {
        let pipeline = build(CodecParams::tiny().unwrap(), Layout::Baseline);
        let too_big = vec![0u8; pipeline.payload_capacity() + 1];
        assert!(matches!(
            pipeline.encode_unit(&too_big),
            Err(StorageError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn lost_molecules_become_erasures_and_are_recovered() {
        let params = CodecParams::tiny().unwrap(); // E = 5
        for layout in [
            Layout::Baseline,
            Layout::Gini {
                excluded_rows: vec![],
            },
        ] {
            let pipeline = build(params.clone(), layout.clone());
            let payload: Vec<u8> = (0..30).collect();
            let unit = pipeline.encode_unit(&payload).unwrap();
            let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(3), 3);
            let mut clusters = pool.clusters().to_vec();
            // Lose 5 molecules = E erasures per codeword: still decodable.
            for c in [0usize, 3, 7, 11, 14] {
                clusters[c].reads.clear();
            }
            let (decoded, report) = pipeline.decode_unit(&clusters).unwrap();
            assert_eq!(decoded[..30], payload[..], "layout {:?}", layout);
            assert!(report.is_error_free());
            assert_eq!(report.lost_columns, 5);
        }
    }

    #[test]
    fn six_lost_molecules_exceed_capacity() {
        let params = CodecParams::tiny().unwrap(); // E = 5
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..30).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(3), 4);
        let mut clusters = pool.clusters().to_vec();
        for cluster in clusters.iter_mut().take(6) {
            cluster.reads.clear();
        }
        let (_, report) = pipeline.decode_unit(&clusters).unwrap();
        assert!(!report.is_error_free());
        assert_eq!(report.failed_codewords(), 6); // every row codeword fails
    }

    #[test]
    fn forced_erasures_reduce_effective_redundancy() {
        // The Fig. 13 mechanism: erasing parity molecules on purpose.
        let params = CodecParams::tiny().unwrap();
        let pipeline = build(
            params.clone(),
            Layout::Gini {
                excluded_rows: vec![],
            },
        );
        let payload: Vec<u8> = (0..30).map(|i| i * 3).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(3), 5);
        let opts = RetrieveOptions {
            forced_erasures: vec![10, 11, 12], // 3 of the 5 parity molecules
            ..RetrieveOptions::default()
        };
        let (decoded, report) = pipeline
            .decode(&[UnitReads::Clusters(pool.clusters())], &opts, None)
            .unwrap()
            .remove(0);
        assert_eq!(decoded[..30], payload[..]);
        assert!(report.is_error_free());
        assert_eq!(report.lost_columns, 3);
    }

    #[test]
    fn no_ecc_mode_round_trips_noiselessly() {
        let params = CodecParams::new(dna_gf::Field::gf16(), 6, 12, 0, 4).unwrap();
        let pipeline = build(params, Layout::DnaMapper);
        let payload: Vec<u8> = (0..36).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(2), 6);
        let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        assert_eq!(decoded[..36], payload[..]);
        assert_eq!(report.codewords.len(), 6);
    }

    #[test]
    fn primer_wrapped_strands_round_trip() {
        let params = CodecParams::tiny().unwrap().with_primer_len(15);
        let pipeline = build(params.clone(), Layout::Baseline);
        let payload: Vec<u8> = (100..130).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        assert!(unit
            .strands()
            .iter()
            .all(|s| s.len() == params.strand_bases()));
        let pool = simulate(&unit, ErrorModel::ngs(0.003), CoverageModel::Fixed(6), 7);
        let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        assert_eq!(decoded[..30], payload[..]);
        assert!(report.is_error_free());
    }

    #[test]
    fn zero_length_or_mismatched_primers_are_rejected() {
        use rand::{rngs::StdRng, SeedableRng};
        let tiny = || build(CodecParams::tiny().unwrap(), Layout::Baseline);
        let empty = Primer::from_strand(DnaString::new());
        let err = tiny().with_primers(empty.clone(), empty).unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");

        // Non-empty primers that disagree with primer_len are also invalid.
        let primed = || {
            build(
                CodecParams::tiny().unwrap().with_primer_len(15),
                Layout::Baseline,
            )
        };
        let mut rng = StdRng::seed_from_u64(1);
        let p10 = Primer::from_strand(DnaString::random(10, &mut rng));
        let err = primed().with_primers(p10.clone(), p10).unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");

        // Matching lengths are accepted and flank every strand.
        let p15 = Primer::from_strand(DnaString::random(15, &mut rng));
        let keyed = primed().with_primers(p15.clone(), p15.clone()).unwrap();
        assert_eq!(keyed.primers(), Some((&p15, &p15)));
    }

    #[test]
    fn trusted_cluster_sources_bypass_index_corruption() {
        // Corrupt every strand's index region after consensus would read
        // it: simulate by shuffling cluster.source labels vs reads —
        // trust_cluster_sources must place columns by label.
        let params = CodecParams::tiny().unwrap();
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..30).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(1), 9);
        let mut clusters = pool.clusters().to_vec();
        // Swap the READS of clusters 0 and 1 while keeping source labels:
        // index parsing would place them wrongly-swapped columns, while
        // trusted sources place them under their (now wrong) labels.
        let tmp = clusters[0].reads.clone();
        clusters[0].reads = clusters[1].reads.clone();
        clusters[1].reads = tmp;
        let opts = RetrieveOptions {
            trust_cluster_sources: true,
            ..RetrieveOptions::default()
        };
        let (decoded, report) = pipeline
            .decode(&[UnitReads::Clusters(&clusters)], &opts, None)
            .unwrap()
            .remove(0);
        // Columns 0/1 hold each other's data: the RS layer sees 2 errors
        // per codeword — within capacity (E=5 corrects 2), so the decode
        // still succeeds, proving placement came from the labels.
        assert_eq!(decoded[..30], payload[..]);
        assert!(report.is_error_free());
        assert!(report.total_corrected() > 0);

        // A replayed label of 2^32 + 3 is an invalid index, not column 3
        // after truncation: the column becomes one more erasure.
        if let Ok(label) = usize::try_from((1u64 << 32) + 3) {
            clusters[3].source = label;
            let (decoded, report) = pipeline
                .decode(&[UnitReads::Clusters(&clusters)], &opts, None)
                .unwrap()
                .remove(0);
            assert_eq!(report.invalid_indexes, 1);
            assert_eq!(report.lost_columns, 1);
            assert_eq!(decoded[..30], payload[..]);
        }
    }

    #[test]
    fn anonymized_zero_noise_pool_decodes_byte_identically_to_labeled_path() {
        let params = CodecParams::tiny().unwrap().with_primer_len(15);
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..30u8)
            .map(|i| i.wrapping_mul(41).wrapping_add(3))
            .collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(4), 8);
        let (labeled, _) = pipeline.decode_unit(pool.clusters()).unwrap();
        let (recovered, report) = pipeline.decode_pool(&pool.anonymize(21)).unwrap();
        assert_eq!(labeled, recovered);
        assert_eq!(recovered[..30], payload[..]);
        let recovery = report.recovery.expect("pool decode carries recovery stats");
        assert_eq!(recovery.purity(), Some(1.0));
        assert_eq!(recovery.completeness(), Some(1.0));
        assert_eq!(recovery.misassigned_reads, 0);
        assert_eq!(recovery.orphaned_reads, 0);
        assert_eq!(recovery.assigned_columns, 15);
    }

    fn headroom_params() -> CodecParams {
        // GF(16), 6 rows, 8 + 4 columns: codewords may grow to 7 parity.
        CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4).unwrap()
    }

    #[test]
    fn uniform_plan_is_byte_identical_to_default_pipeline() {
        use crate::plan::ProtectionPlan;
        let params = headroom_params();
        let implicit = build(params.clone(), Layout::Baseline);
        let explicit = Pipeline::builder()
            .params(params.clone())
            .layout(Layout::Baseline)
            .protection(ProtectionPlan::uniform(params.rows(), params.parity_cols()))
            .build()
            .unwrap();
        let payload: Vec<u8> = (0..24).map(|i| i * 11).collect();
        let unit_a = implicit.encode_unit(&payload).unwrap();
        let unit_b = explicit.encode_unit(&payload).unwrap();
        assert_eq!(unit_a, unit_b);
        let pool = simulate(
            &unit_a,
            ErrorModel::uniform(0.04),
            CoverageModel::Fixed(8),
            3,
        );
        let a = implicit.decode_unit(pool.clusters()).unwrap();
        let b = explicit.decode_unit(pool.clusters()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn planned_protection_round_trips_and_reports_classes() {
        use crate::plan::ProtectionPlan;
        let params = headroom_params();
        // Hot tail: rows 4–5 get 7 parity each, quiet rows keep 1.
        let plan = ProtectionPlan::from_parities(vec![1, 2, 2, 4, 7, 7]).unwrap();
        for layout in [Layout::Baseline, Layout::DnaMapper] {
            let pipeline = Pipeline::builder()
                .params(params.clone())
                .layout(layout.clone())
                .protection(plan.clone())
                .build()
                .unwrap();
            assert_eq!(pipeline.protection_plan(), &plan);
            let payload: Vec<u8> = (0..24u8).map(|i| i.wrapping_mul(29)).collect();
            let unit = pipeline.encode_unit(&payload).unwrap();
            assert_eq!(unit.len(), params.cols());

            // Noiseless round trip.
            let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(1), 5);
            let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
            assert_eq!(decoded[..24], payload[..], "layout {layout:?}");
            assert!(report.is_error_free());
            assert_eq!(report.codewords.len(), 6);

            // Noisy round trip within the strong rows' capacity.
            let pool = simulate(
                &unit,
                ErrorModel::uniform(0.015),
                CoverageModel::Fixed(10),
                6,
            );
            let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
            assert_eq!(decoded[..24], payload[..], "noisy, layout {layout:?}");
            let classes = report.per_class(&plan);
            assert_eq!(classes.len(), 4);
            assert_eq!(classes[0].parity, 7);
        }
    }

    #[test]
    fn planned_parity_region_erasures_are_absorbed() {
        use crate::plan::ProtectionPlan;
        let params = headroom_params();
        let plan = ProtectionPlan::from_parities(vec![2, 2, 4, 4, 6, 6]).unwrap();
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(Layout::Baseline)
            .protection(plan)
            .build()
            .unwrap();
        let payload: Vec<u8> = (0..24).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(3), 7);
        let mut clusters = pool.clusters().to_vec();
        // Lose one data molecule: every codeword sees exactly one data
        // erasure, within even the weakest class's capacity.
        clusters[3].reads.clear();
        let (decoded, report) = pipeline.decode_unit(&clusters).unwrap();
        assert_eq!(decoded[..24], payload[..]);
        assert!(report.is_error_free());
        assert_eq!(report.lost_columns, 1);
        assert_eq!(report.row_erasures.iter().sum::<usize>(), 6);
    }

    #[test]
    fn zero_parity_codewords_still_report_their_erasures() {
        use crate::plan::ProtectionPlan;
        let params = headroom_params();
        // Row 0 is deliberately unprotected; the remaining budget covers
        // the other rows.
        let plan = ProtectionPlan::from_parities(vec![0, 4, 4, 4, 6, 6]).unwrap();
        let pipeline = Pipeline::builder()
            .params(params)
            .layout(Layout::Baseline)
            .protection(plan)
            .build()
            .unwrap();
        let payload: Vec<u8> = (0..24).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::noiseless(), CoverageModel::Fixed(2), 11);
        let mut clusters = pool.clusters().to_vec();
        clusters[2].reads.clear(); // lose one data molecule
        let (_, report) = pipeline.decode_unit(&clusters).unwrap();
        // Every codeword — the unprotected one included — declares the
        // lost cell, so the per-row erasure histogram covers all 6 rows.
        assert_eq!(report.codewords[0].declared_erasures, 1);
        assert_eq!(report.row_erasures.iter().sum::<usize>(), 6);
        assert!(report.row_erasures.iter().all(|&e| e == 1));
    }

    #[test]
    fn non_uniform_plans_require_row_codeword_layouts() {
        use crate::plan::ProtectionPlan;
        let err = Pipeline::builder()
            .params(headroom_params())
            .layout(Layout::Gini {
                excluded_rows: vec![],
            })
            .protection(ProtectionPlan::from_parities(vec![1, 2, 2, 4, 7, 8]).unwrap())
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn row_histograms_track_corrections_and_erasures() {
        let params = headroom_params();
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..24).map(|i| i * 3).collect();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = simulate(&unit, ErrorModel::uniform(0.03), CoverageModel::Fixed(6), 9);
        let (_, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        assert_eq!(report.row_errors.len(), 6);
        assert_eq!(report.row_erasures.len(), 6);
        // Row-codeword layout: row r's histogram matches codeword r's
        // error count exactly.
        for (k, cw) in report.codewords.iter().enumerate() {
            if !cw.failed {
                assert_eq!(report.row_errors[k], cw.corrected_errors, "row {k}");
                assert_eq!(report.row_erasures[k], cw.declared_erasures, "row {k}");
            }
        }
    }

    #[test]
    fn gini_flattens_per_codeword_error_distribution() {
        // The defining Fig. 11 property at unit-test scale: the max/mean
        // ratio of corrected symbols per codeword is much larger for the
        // baseline than for Gini. Aggregated over a few noise
        // realizations so the single-trial extremum noise averages out.
        let params = CodecParams::new(dna_gf::Field::gf256(), 16, 100, 24, 8).unwrap();
        let payload: Vec<u8> = (0..params.payload_bytes())
            .map(|i| (i % 251) as u8)
            .collect();
        let mut ratios = Vec::new();
        for layout in [
            Layout::Baseline,
            Layout::Gini {
                excluded_rows: vec![],
            },
        ] {
            let pipeline = build(params.clone(), layout);
            let unit = pipeline.encode_unit(&payload).unwrap();
            let mut per_cw = vec![0usize; params.rows()];
            for seed in 0..4u64 {
                let pool = simulate(
                    &unit,
                    ErrorModel::uniform(0.09),
                    CoverageModel::Fixed(14),
                    8 + seed,
                );
                let (_, report) = pipeline.decode_unit(pool.clusters()).unwrap();
                for (k, c) in report.corrected_per_codeword().iter().enumerate() {
                    per_cw[k] += c;
                }
            }
            let max = *per_cw.iter().max().unwrap() as f64;
            let mean = per_cw.iter().sum::<usize>() as f64 / per_cw.len() as f64;
            assert!(mean > 0.0, "no errors corrected — noise too low to measure");
            ratios.push(max / mean);
        }
        assert!(
            ratios[0] > 1.5 * ratios[1],
            "baseline peak/mean {} vs gini {}",
            ratios[0],
            ratios[1]
        );
    }

    #[test]
    fn the_exact_primer_shortcut_keeps_the_scanned_verdict() {
        // A read that starts with the exact primer skips the distance
        // scan; every verdict must equal the scan's alone. Reads shorter
        // than the primer, exactly the primer, exactly the checked prefix,
        // longer, and the primer with one or more edits.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(28);
        let (mut state, mut out) = (Vec::new(), Vec::new());
        let (mut shortcut, mut verdicts) = (0usize, [0usize; 2]);
        for p in 1..=40usize {
            let primer = DnaString::random(p, &mut rng);
            let pattern = BasePattern::new(primer.as_slice());
            let (prefix_len, bound) = primer_check(p);
            let mut reads: Vec<Vec<Base>> = [0, p / 2, p - 1, p, prefix_len, prefix_len + 5]
                .into_iter()
                .map(|len| {
                    let mut read = primer.as_slice()[..len.min(p)].to_vec();
                    read.extend(DnaString::random(len.saturating_sub(p), &mut rng).iter());
                    read
                })
                .collect();
            for edits in [1, 1, 2, bound, bound + 1] {
                let mut read = primer.as_slice().to_vec();
                for _ in 0..edits {
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
                read.extend(DnaString::random(rng.gen_range(0..8), &mut rng).iter());
                reads.push(read);
            }
            for read in reads {
                let read = DnaString::from_bases(read);
                let prefix = &read.as_slice()[..prefix_len.min(read.len())];
                let scanned = pattern
                    .distance_bounded(prefix, bound, &mut state)
                    .is_some();
                let cluster = Cluster {
                    source: 0,
                    reads: vec![read.clone()],
                };
                let checked =
                    !primed_reads(primer.as_slice(), &pattern, &cluster, &mut out, &mut state)
                        .is_empty();
                assert_eq!(checked, scanned, "primer {primer} read {read}");
                shortcut += usize::from(read.as_slice().starts_with(primer.as_slice()));
                verdicts[usize::from(scanned)] += 1;
            }
        }
        assert!(shortcut >= 120, "too few exact primers: {shortcut}");
        assert!(verdicts.iter().all(|&n| n > 60), "verdicts {verdicts:?}");
    }
}
