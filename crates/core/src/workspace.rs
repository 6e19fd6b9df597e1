//! The per-worker decode workspace: every buffer a unit decode needs,
//! owned by the caller (or a worker thread) and reused across units.

use crate::matrix::SymbolMatrix;
use dna_reed_solomon::RsScratch;
use dna_strand::DnaString;

/// Reusable scratch for [`Pipeline::decode`]: pass one to decode on it,
/// or pass `None` and the pipeline uses a per-thread workspace (one
/// unit) or one per worker thread (several units).
///
/// A fresh workspace starts empty and grows to the pipeline's working set
/// on first use; after that, the workspace-managed decode stages — column
/// assembly, erasure maps, received-codeword scratch, and the whole
/// Reed–Solomon decode (via the embedded [`RsScratch`]) — allocate
/// nothing. Results are byte-identical to the workspace-free API no matter
/// what the workspace was previously used for: every buffer is rewritten
/// at the start of each call, so state cannot leak between units, threads,
/// or pipelines.
///
/// [`Pipeline::decode`]: crate::Pipeline::decode
#[derive(Debug, Clone, Default)]
pub struct DecodeWorkspace {
    /// The unit's symbol matrix, rebuilt each decode.
    pub(crate) matrix: SymbolMatrix,
    /// Which columns produced a consensus strand this decode.
    pub(crate) present: Vec<bool>,
    /// Which columns count as erased (absent or forced).
    pub(crate) erased: Vec<bool>,
    /// One codeword's received symbols.
    pub(crate) received: Vec<u16>,
    /// One codeword's erasure positions.
    pub(crate) erasures: Vec<usize>,
    /// Unmapping scratch for the data region.
    pub(crate) symbols: Vec<u16>,
    /// Reed–Solomon decode scratch.
    pub(crate) rs: RsScratch,
    /// Primer-filtered reads (only used when some read of a cluster fails
    /// the primer check).
    pub(crate) filtered: Vec<DnaString>,
    /// Scratch for the primer-check bounded edit distance.
    pub(crate) dp_row: Vec<usize>,
}

impl DecodeWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> DecodeWorkspace {
        DecodeWorkspace::default()
    }
}

impl SymbolMatrix {
    /// Default-constructible empty matrix for workspace reuse.
    pub(crate) fn empty() -> SymbolMatrix {
        SymbolMatrix::zeros(0, 0)
    }
}

impl Default for SymbolMatrix {
    fn default() -> Self {
        SymbolMatrix::empty()
    }
}
