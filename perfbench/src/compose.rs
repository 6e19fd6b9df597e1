//! The traced decode composition: `Pipeline::decode_unit` re-driven step
//! by step through the public functions each stage calls, with a span
//! around every layer. The fidelity check holds it to the real call's
//! output byte for byte, so the split always describes the code that the
//! untraced run measures.

use crate::trace::span;
use crate::util::{ratio, Metrics};
use dna_align::edit_distance_bounded_with;
use dna_channel::Cluster;
use dna_consensus::{BmaTwoWay, TraceReconstructor};
use dna_reed_solomon::{ReedSolomon, RsError, RsScratch};
use dna_storage::{Pipeline, StorageError};
use dna_strand::{bits, DnaString};
use std::collections::BTreeMap;

/// Work counts accumulated by the traced composition.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub clusters: u64,
    pub reads: u64,
    pub codewords: u64,
    pub corrected_symbols: u64,
    pub failed_codewords: u64,
    pub clean_codewords: u64,
}

impl Counts {
    /// Sets the decode-layer metrics every decoding workload reports, per
    /// traced round: the composition's span self times and its counts.
    pub fn report(&self, m: &mut Metrics, selfs: &BTreeMap<&str, f64>, rounds: usize) {
        let per = |v: f64| v / rounds as f64;
        for (metric, span) in [
            ("consensus.busy_ms", "consensus.busy"),
            ("strand.decode_ms", "strand.decode"),
            ("rs.decode_ms", "rs.decode"),
            ("storage.unmap_ms", "storage.unmap"),
            ("storage.assemble_ms", "storage.assemble"),
            ("align.prefilter_ms", "align.prefilter"),
        ] {
            m.set(metric, per(selfs.get(span).copied().unwrap_or(0.0)), "ms");
        }
        m.set("consensus.clusters", per(self.clusters as f64), "count");
        m.set("consensus.reads", per(self.reads as f64), "count");
        m.set("rs.codewords", per(self.codewords as f64), "count");
        m.set(
            "rs.corrected_symbols",
            per(self.corrected_symbols as f64),
            "count",
        );
        m.set(
            "rs.failed_codewords",
            per(self.failed_codewords as f64),
            "count",
        );
        m.set(
            "rs.clean_codeword_ratio",
            ratio(self.clean_codewords as f64, self.codewords as f64),
            "ratio",
        );
    }
}

/// The engines a pipeline uses internally, rebuilt from public parts:
/// the default two-way BMA consensus and the uniform RS code.
pub struct Decoder {
    consensus: BmaTwoWay,
    rs: ReedSolomon,
    scratch: RsScratch,
}

impl Decoder {
    pub fn for_pipeline(p: &Pipeline) -> Decoder {
        let params = p.params();
        let rs = ReedSolomon::new(
            params.field().clone(),
            params.data_cols(),
            params.parity_cols(),
        )
        .expect("pipeline geometry is a valid RS code");
        assert!(
            p.protection_plan()
                .parities()
                .iter()
                .all(|&e| e == rs.parity_len()),
            "the traced composition models uniform protection only"
        );
        Decoder {
            consensus: BmaTwoWay::default(),
            rs,
            scratch: RsScratch::new(),
        }
    }

    /// Decodes one unit the way `Pipeline::decode_unit_with` does, with
    /// spans `align.prefilter`, `consensus.busy`, `strand.decode`,
    /// `rs.decode` and `storage.unmap` inside `storage.assemble`. Returns the payload and whether
    /// the decode flagged degradation (`DecodeReport::flags_degradation`).
    pub fn decode_unit(
        &mut self,
        p: &Pipeline,
        clusters: &[Cluster],
        trust_sources: bool,
        counts: &mut Counts,
    ) -> Result<(Vec<u8>, bool), StorageError> {
        span("storage.assemble", || {
            self.decode_unit_spans(p, clusters, trust_sources, counts)
        })
    }

    /// The body of [`Decoder::decode_unit`]; what no inner span covers is
    /// the storage layer's own bookkeeping (matrix and erasure lists).
    fn decode_unit_spans(
        &mut self,
        p: &Pipeline,
        clusters: &[Cluster],
        trust_sources: bool,
        counts: &mut Counts,
    ) -> Result<(Vec<u8>, bool), StorageError> {
        let params = p.params();
        let (rows, cols, data_cols) = (params.rows(), params.cols(), params.data_cols());
        let geom = params.payload_geometry();
        let primer_len = params.primer_len();
        let transcoder = p.transcoder();
        let mut matrix = vec![0u16; rows * cols];
        let mut present = vec![false; cols];
        let mut degraded = false;
        let mut filtered: Vec<DnaString> = Vec::new();
        let mut dp_row: Vec<usize> = Vec::new();

        for cluster in clusters {
            let reads: &[DnaString] = match p.primers() {
                Some((left, _)) => {
                    span("align.prefilter", || {
                        filtered.clear();
                        let plen = left.len();
                        let slack = (plen / 5).max(2);
                        for read in &cluster.reads {
                            let prefix = &read.as_slice()[..(plen + slack / 2).min(read.len())];
                            if edit_distance_bounded_with(
                                left.strand().as_slice(),
                                prefix,
                                slack + slack / 2,
                                &mut dp_row,
                            )
                            .is_some()
                            {
                                filtered.push(read.clone());
                            }
                        }
                    });
                    &filtered
                }
                None => &cluster.reads,
            };
            if reads.is_empty() {
                continue;
            }
            counts.clusters += 1;
            counts.reads += reads.len() as u64;
            let full = span("consensus.busy", || {
                self.consensus.reconstruct(reads, params.strand_bases())
            });
            span("strand.decode", || -> Result<(), StorageError> {
                let strand = &full.as_slice()[primer_len..full.len() - primer_len];
                let idx = if trust_sources {
                    cluster.source
                } else {
                    transcoder.decode_index(strand, geom)? as usize
                };
                if idx >= cols || present[idx] {
                    degraded = true;
                    return Ok(());
                }
                for r in 0..rows {
                    matrix[r * cols + idx] = transcoder.decode_symbol(strand, r, geom)?;
                }
                present[idx] = true;
                Ok(())
            })?;
        }
        if present.iter().any(|&p| !p) {
            degraded = true;
        }

        let (rs, scratch) = (&self.rs, &mut self.scratch);
        span("rs.decode", || -> Result<(), StorageError> {
            let mut erasures: Vec<usize> = Vec::new();
            let mut received: Vec<u16> = Vec::new();
            for pos in p.codeword_positions() {
                erasures.clear();
                erasures.extend(
                    pos.iter()
                        .enumerate()
                        .filter(|(_, &(_, c))| !present[c])
                        .map(|(i, _)| i),
                );
                received.clear();
                received.extend(pos.iter().map(|&(r, c)| matrix[r * cols + c]));
                counts.codewords += 1;
                match rs.decode_with_scratch(&mut received, &erasures, scratch) {
                    Ok(correction) => {
                        for (&(r, c), &sym) in pos.iter().zip(received.iter()) {
                            matrix[r * cols + c] = sym;
                        }
                        let fixed = correction.corrected_symbols() as u64;
                        counts.corrected_symbols += fixed;
                        if fixed == 0 {
                            counts.clean_codewords += 1;
                        }
                    }
                    Err(RsError::TooManyErrors) | Err(RsError::TooManyErasures { .. }) => {
                        counts.failed_codewords += 1;
                        degraded = true;
                    }
                    Err(e) => return Err(e.into()),
                }
            }
            Ok(())
        })?;

        let payload = span("storage.unmap", || {
            let layout = p.layout();
            let symbols: Vec<u16> = (0..rows * data_cols)
                .map(|q| {
                    let (r, c) = layout.place(q, rows, data_cols);
                    matrix[r * cols + c]
                })
                .collect();
            bits::symbols_to_bytes(&symbols, params.symbol_bits(), p.payload_capacity())
        })?;
        Ok((payload, degraded))
    }
}
