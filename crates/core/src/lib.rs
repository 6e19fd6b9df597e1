//! The DNA storage pipeline of *Managing Reliability Bias in DNA Storage*
//! (ISCA '22), with both of the paper's contributions integrated:
//!
//! - **Gini**: Reed–Solomon codewords striped *diagonally* across the
//!   (rows × molecules) encoding matrix, so the position-correlated errors
//!   of trace reconstruction are shared nearly equally by every codeword —
//!   de-biasing the medium at zero storage overhead (§4.2);
//! - **DnaMapper**: application-aware placement that stores data ranked by
//!   reliability *need* into storage rows ranked by reliability — ends of
//!   molecules first, middle last — for graceful degradation and
//!   approximate storage (§5).
//!
//! The crate builds the full architecture around them (§2.2): payloads are
//! sliced into GF(2^m) symbols, laid out in a matrix whose columns are DNA
//! molecules and whose codewords carry `E` parity symbols each, prefixed
//! with an unprotected ordering index, optionally wrapped in PCR primers,
//! sequenced through an IDS channel at Gamma-distributed coverage,
//! clustered, reconstructed by two-sided consensus, and decoded with
//! errors-and-erasures Reed–Solomon.
//!
//! # Examples
//!
//! ```
//! use dna_storage::{CodecParams, Layout, Pipeline};
//! use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipeline = Pipeline::builder()
//!     .params(CodecParams::tiny()?) // GF(16) geometry for fast tests
//!     .layout(Layout::Gini { excluded_rows: vec![] })
//!     .build()?;
//! let payload = vec![0xAB; pipeline.payload_capacity()];
//!
//! let unit = pipeline.encode_unit(&payload)?;
//! let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.03), CoverageModel::Fixed(8));
//! let pool = sequencer.sequence_unit(0, unit.strands(), 7);
//! let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(8.0))?;
//! assert_eq!(decoded, payload);
//! assert!(report.is_error_free());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod archive;
mod builder;
mod experiment;
mod layout;
mod matrix;
mod params;
mod pipeline;
mod plan;
mod recovery;
mod report;
mod scenario;
mod skew;
mod workspace;

pub use archive::{Archive, ArchiveCodec, FileEntry, RankingPolicy};
pub use builder::PipelineBuilder;
pub use experiment::{min_coverage, min_coverage_with, quality_sweep, QualityPoint};
pub use layout::Layout;
pub use matrix::SymbolMatrix;
pub use params::CodecParams;
pub use pipeline::{EncodedUnit, Pipeline, RetrieveOptions, UnitReads};
pub use plan::{PlannerWarning, Protection, ProtectionClass, ProtectionPlan, ProtectionPlanner};
pub use recovery::{RecoveryPipeline, RecoveryReport};
pub use report::{ClassReport, CodewordReport, DecodeReport};
pub use scenario::{Scenario, GAMMA_SHAPE, MAX_COVERAGE};
pub use skew::SkewProfile;
pub use workspace::DecodeWorkspace;

use std::error::Error;
use std::fmt;

/// Errors produced by the storage pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum StorageError {
    /// Invalid codec geometry.
    InvalidParams(String),
    /// Payload too large for the unit (or archive too large for the units).
    PayloadTooLarge {
        /// Bytes offered.
        offered: usize,
        /// Bytes the unit(s) can hold.
        capacity: usize,
    },
    /// An underlying substrate error (field, RS, strand, media).
    Substrate(String),
    /// The archive directory could not be reconstructed, so files cannot
    /// be split apart (catastrophic loss).
    DirectoryUnreadable,
    /// An anonymous pool with no reads at all was handed to recovery —
    /// there is nothing to orient, route, or decode.
    EmptyPool,
    /// Unlabeled-pool recovery orphaned every read: no read carried the
    /// primer and a readable in-range index past it (reads too short, or
    /// primer or index regions destroyed).
    AllReadsOrphaned {
        /// Reads in the pool.
        reads: usize,
        /// Routing: validation groups, zero when no read was routed. A
        /// caller's clusterer: the clusters it produced.
        clusters: usize,
    },
    /// An object pool has no manifest — neither the sidecar file nor a
    /// recoverable super-capsule. Callers can fall back to
    /// `ObjectStore::rebuild_manifest`, which scans every capsule header
    /// in the pool and reconstructs the index from scratch.
    ManifestMissing,
    /// A manifest was found but failed validation (truncated file, CRC
    /// mismatch, unparseable line, unsupported version). The pool data may
    /// still be intact: `ObjectStore::rebuild_manifest` re-derives the
    /// manifest from the capsules themselves.
    ManifestCorrupt {
        /// What failed to validate.
        reason: String,
    },
    /// `fetch`/`delete` named an object the manifest does not list, or one
    /// that has been tombstoned.
    ObjectNotFound {
        /// The requested object id.
        id: u64,
        /// Whether the object existed but was deleted (tombstoned).
        tombstoned: bool,
    },
    /// The capsule pool file ends in the middle of a record — a torn
    /// append or an external truncation. Every record before `offset`
    /// is intact; everything from `offset` on is unreadable.
    PoolTruncated {
        /// Byte offset of the record that overruns the end of the file.
        offset: u64,
        /// What was being read when the file ran out.
        reason: String,
    },
    /// An underlying I/O error (message only: `std::io::Error` is neither
    /// `Clone` nor `PartialEq`, which this enum guarantees).
    Io(String),
    /// A pool header names a transcoder this build no longer ships (see
    /// [`TranscoderSpec::retired_name`](dna_strand::TranscoderSpec::retired_name)).
    RetiredTranscoder {
        /// The header's transcoder wire id.
        id: u8,
        /// The retired transcoder's name.
        name: &'static str,
    },
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::InvalidParams(msg) => write!(f, "invalid parameters: {msg}"),
            StorageError::PayloadTooLarge { offered, capacity } => {
                write!(f, "payload of {offered} bytes exceeds capacity {capacity}")
            }
            StorageError::Substrate(msg) => write!(f, "substrate error: {msg}"),
            StorageError::DirectoryUnreadable => write!(f, "archive directory unreadable"),
            StorageError::EmptyPool => {
                write!(f, "anonymous pool is empty: nothing to recover")
            }
            StorageError::AllReadsOrphaned { reads, clusters } => write!(
                f,
                "recovery orphaned all {reads} reads across {clusters} clusters: \
                 no read carried a readable index"
            ),
            StorageError::ManifestMissing => write!(
                f,
                "no manifest: sidecar file absent and no super-capsule recovered \
                 (run rebuild_manifest to scan the pool)"
            ),
            StorageError::ManifestCorrupt { reason } => {
                write!(f, "manifest corrupt: {reason}")
            }
            StorageError::ObjectNotFound { id, tombstoned } => {
                if *tombstoned {
                    write!(f, "object {id} was deleted (tombstoned)")
                } else {
                    write!(f, "object {id} not found in manifest")
                }
            }
            StorageError::PoolTruncated { offset, reason } => write!(
                f,
                "pool truncated: record at byte {offset} overruns the end of the file ({reason})"
            ),
            StorageError::Io(msg) => write!(f, "i/o error: {msg}"),
            StorageError::RetiredTranscoder { id, name } => write!(
                f,
                "retired transcoder ({name}, wire id {id}): this pool needs a release that still ships it"
            ),
        }
    }
}

impl Error for StorageError {}

impl From<dna_reed_solomon::RsError> for StorageError {
    fn from(e: dna_reed_solomon::RsError) -> Self {
        StorageError::Substrate(e.to_string())
    }
}

impl From<dna_gf::GfError> for StorageError {
    fn from(e: dna_gf::GfError) -> Self {
        StorageError::Substrate(e.to_string())
    }
}

impl From<dna_strand::StrandError> for StorageError {
    fn from(e: dna_strand::StrandError) -> Self {
        StorageError::Substrate(e.to_string())
    }
}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}

impl From<dna_media::MediaError> for StorageError {
    fn from(e: dna_media::MediaError) -> Self {
        StorageError::Substrate(e.to_string())
    }
}
