//! The pluggable layout engine: [`UnitLayout`] unifies the two contracts
//! a data organization must satisfy — the payload→cell **position
//! bijection** (where each payload symbol lands in the unit matrix) and
//! the **parity-placement contract** (which cells form each Reed–Solomon
//! codeword).
//!
//! The three paper layouts ship as built-ins ([`BaselineLayout`],
//! [`GiniLayout`], [`PriorityLayout`]); anything else plugs in by
//! implementing the trait and passing it to
//! [`PipelineBuilder::layout`](crate::PipelineBuilder::layout). The
//! [`Layout`](crate::Layout) enum is the named spec of the built-ins
//! (what the CLI parses and the pool header records); each variant maps
//! onto one of these engines.
//!
//! # Examples
//!
//! A custom layout only has to honour the two contracts (bijection +
//! partition); everything downstream — encode, decode, planning,
//! reports — works unchanged:
//!
//! ```
//! use dna_storage::{CodecParams, Pipeline, UnitLayout};
//!
//! /// Row codewords with the data written bottom-up instead of top-down.
//! #[derive(Debug)]
//! struct FlippedLayout;
//!
//! impl UnitLayout for FlippedLayout {
//!     fn name(&self) -> &str {
//!         "flipped"
//!     }
//!     fn place(&self, p: usize, rows: usize, _data_cols: usize) -> (usize, usize) {
//!         (rows - 1 - p % rows, p / rows)
//!     }
//!     fn codeword_positions(
//!         &self,
//!         k: usize,
//!         _rows: usize,
//!         data_cols: usize,
//!         parity_cols: usize,
//!     ) -> Vec<(usize, usize)> {
//!         (0..data_cols + parity_cols).map(|c| (k, c)).collect()
//!     }
//! }
//!
//! # fn main() -> Result<(), dna_storage::StorageError> {
//! let pipeline = Pipeline::builder()
//!     .params(CodecParams::tiny()?)
//!     .layout(FlippedLayout)
//!     .build()?;
//! assert_eq!(pipeline.layout().name(), "flipped");
//! let unit = pipeline.encode_unit(b"upside down")?;
//! assert_eq!(unit.len(), 15);
//! # Ok(())
//! # }
//! ```

use crate::geometry::{CodewordGeometry, DiagonalGeometry, RowGeometry};
use crate::mapper::{BaselineMapper, DataMapper, PriorityMapper};
use crate::params::CodecParams;
use crate::StorageError;
use std::fmt;
use std::sync::Arc;

/// A unit's data organization: one object answering both "where does the
/// `p`-th payload symbol live?" and "which cells form codeword `k`?".
///
/// Contracts (checked by the property suite for every engine the
/// workspace ships):
///
/// - [`place`](UnitLayout::place) is a bijection from payload stream
///   positions `0..rows·data_cols` onto the data region
///   `(0..rows) × (0..data_cols)`;
/// - the [`codeword_positions`](UnitLayout::codeword_positions) lists
///   partition all `rows × (data_cols + parity_cols)` cells, each list
///   holding exactly `data_cols` data cells followed by `parity_cols`
///   parity cells.
///
/// Engines whose codewords are whole rows may additionally opt into
/// unequal protection (per-codeword parity lengths) by returning `true`
/// from [`supports_unequal_protection`](Self::supports_unequal_protection);
/// the planner then keeps their data cells and re-places parity across
/// the parity region (see [`ProtectionPlan`](crate::ProtectionPlan)).
pub trait UnitLayout: fmt::Debug + Send + Sync {
    /// A short name for figures, reports, and CLI output.
    fn name(&self) -> &str;

    /// Checks the engine against a concrete geometry, returning a typed
    /// [`StorageError::InvalidParams`] instead of panicking downstream.
    /// The builder calls this before anything else touches the engine.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] describing the mismatch.
    fn validate(&self, params: &CodecParams) -> Result<(), StorageError> {
        let _ = params;
        Ok(())
    }

    /// Cell of the `p`-th payload symbol, as `(row, col)` with
    /// `col < data_cols`.
    fn place(&self, p: usize, rows: usize, data_cols: usize) -> (usize, usize);

    /// Number of codewords (always `rows` in this architecture).
    fn codeword_count(&self, rows: usize) -> usize {
        rows
    }

    /// The cells of codeword `k`: `data_cols` data cells followed by
    /// `parity_cols` parity cells.
    fn codeword_positions(
        &self,
        k: usize,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<(usize, usize)>;

    /// Every codeword's cell list at once — what the builder and planner
    /// actually consume. The default delegates per codeword; engines
    /// with expensive shared state (e.g. [`GiniLayout`]'s diagonal
    /// geometry) override it to construct that state once.
    fn codeword_positions_all(
        &self,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        (0..self.codeword_count(rows))
            .map(|k| self.codeword_positions(k, rows, data_cols, parity_cols))
            .collect()
    }

    /// Whether a non-uniform [`ProtectionPlan`](crate::ProtectionPlan)
    /// may be threaded through this engine. Only meaningful for layouts
    /// whose codeword `k`'s data cells all live in row `k`; the default
    /// is `false`.
    fn supports_unequal_protection(&self) -> bool {
        false
    }
}

/// Conversion into a shared [`UnitLayout`] engine, accepted by
/// [`PipelineBuilder::layout`](crate::PipelineBuilder::layout): any
/// concrete engine, an already-shared `Arc<dyn UnitLayout>`, or a
/// [`Layout`](crate::Layout) spec naming a built-in.
pub trait IntoUnitLayout {
    /// The shared engine.
    fn into_unit_layout(self) -> Arc<dyn UnitLayout>;
}

impl<L: UnitLayout + 'static> IntoUnitLayout for L {
    fn into_unit_layout(self) -> Arc<dyn UnitLayout> {
        Arc::new(self)
    }
}

impl IntoUnitLayout for Arc<dyn UnitLayout> {
    fn into_unit_layout(self) -> Arc<dyn UnitLayout> {
        self
    }
}

/// Paper Fig. 1: row codewords, column-major data placement
/// (skew-oblivious).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaselineLayout;

impl UnitLayout for BaselineLayout {
    fn name(&self) -> &str {
        "baseline"
    }

    fn place(&self, p: usize, rows: usize, data_cols: usize) -> (usize, usize) {
        BaselineMapper.place(p, rows, data_cols)
    }

    fn codeword_positions(
        &self,
        k: usize,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<(usize, usize)> {
        RowGeometry::new(rows, data_cols, parity_cols).codeword_positions(k)
    }

    fn supports_unequal_protection(&self) -> bool {
        true
    }
}

/// Paper Fig. 8: Gini's diagonal codeword interleaving, with optional
/// excluded rows kept as dedicated row-codewords (Fig. 8b).
///
/// Excluded rows are validated — duplicates, out-of-range rows, and
/// excluding everything are typed [`StorageError::InvalidParams`]s at
/// [`UnitLayout::validate`] time, never silent misplacement.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GiniLayout {
    excluded_rows: Vec<usize>,
}

impl GiniLayout {
    /// The fully interleaved Gini layout (no reliability-class rows).
    pub fn new() -> GiniLayout {
        GiniLayout::default()
    }

    /// A Gini layout keeping `excluded_rows` as plain row-codewords.
    /// Validation happens against a concrete geometry in
    /// [`UnitLayout::validate`].
    pub fn with_excluded_rows(excluded_rows: impl Into<Vec<usize>>) -> GiniLayout {
        GiniLayout {
            excluded_rows: excluded_rows.into(),
        }
    }

    /// The rows kept outside the diagonal interleaving.
    pub fn excluded_rows(&self) -> &[usize] {
        &self.excluded_rows
    }
}

impl UnitLayout for GiniLayout {
    fn name(&self) -> &str {
        "gini"
    }

    fn validate(&self, params: &CodecParams) -> Result<(), StorageError> {
        let rows = params.rows();
        let mut seen = vec![false; rows];
        for &r in &self.excluded_rows {
            if r >= rows {
                return Err(StorageError::InvalidParams(format!(
                    "excluded row {r} out of range for {rows} rows"
                )));
            }
            if std::mem::replace(&mut seen[r], true) {
                return Err(StorageError::InvalidParams(format!(
                    "excluded row {r} listed twice"
                )));
            }
        }
        if self.excluded_rows.len() >= rows {
            return Err(StorageError::InvalidParams(
                "at least one row must remain interleaved".into(),
            ));
        }
        Ok(())
    }

    fn place(&self, p: usize, rows: usize, data_cols: usize) -> (usize, usize) {
        BaselineMapper.place(p, rows, data_cols)
    }

    fn codeword_positions(
        &self,
        k: usize,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<(usize, usize)> {
        DiagonalGeometry::new(rows, data_cols, parity_cols, &self.excluded_rows)
            .codeword_positions(k)
    }

    fn codeword_positions_all(
        &self,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        // One geometry (row sort + included-row filter) for all rows,
        // not one per codeword.
        let geometry = DiagonalGeometry::new(rows, data_cols, parity_cols, &self.excluded_rows);
        (0..rows).map(|k| geometry.codeword_positions(k)).collect()
    }
}

/// Paper Fig. 9: DnaMapper's priority zig-zag data mapping over row
/// codewords (parity is computed after mapping and never remapped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PriorityLayout;

impl UnitLayout for PriorityLayout {
    fn name(&self) -> &str {
        "dnamapper"
    }

    fn place(&self, p: usize, rows: usize, data_cols: usize) -> (usize, usize) {
        PriorityMapper.place(p, rows, data_cols)
    }

    fn codeword_positions(
        &self,
        k: usize,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<(usize, usize)> {
        RowGeometry::new(rows, data_cols, parity_cols).codeword_positions(k)
    }

    fn supports_unequal_protection(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::CodewordGeometry;
    use std::collections::HashSet;

    fn engines() -> Vec<Arc<dyn UnitLayout>> {
        vec![
            Arc::new(BaselineLayout),
            Arc::new(GiniLayout::new()),
            Arc::new(GiniLayout::with_excluded_rows([0, 5])),
            Arc::new(PriorityLayout),
        ]
    }

    #[test]
    fn builtin_engines_place_bijectively() {
        for engine in engines() {
            for (rows, cols) in [(6usize, 10usize), (5, 7), (1, 4)] {
                let cells: HashSet<(usize, usize)> = (0..rows * cols)
                    .map(|p| engine.place(p, rows, cols))
                    .collect();
                assert_eq!(
                    cells.len(),
                    rows * cols,
                    "{} not a bijection",
                    engine.name()
                );
                assert!(cells.iter().all(|&(r, c)| r < rows && c < cols));
            }
        }
    }

    #[test]
    fn builtin_engines_partition_all_cells() {
        for engine in engines() {
            let (rows, m, e) = (6usize, 10usize, 5usize);
            let all = engine.codeword_positions_all(rows, m, e);
            assert_eq!(all.len(), engine.codeword_count(rows));
            let mut seen = HashSet::new();
            for (k, all_pos) in all.iter().enumerate() {
                let pos = engine.codeword_positions(k, rows, m, e);
                assert_eq!(&pos, all_pos, "{} batch/per-k mismatch", engine.name());
                assert_eq!(pos.len(), m + e, "{} codeword {k}", engine.name());
                for (i, &(r, c)) in pos.iter().enumerate() {
                    assert!(r < rows && c < m + e);
                    assert_eq!(i < m, c < m, "{} region split", engine.name());
                    assert!(seen.insert((r, c)), "{} cell claimed twice", engine.name());
                }
            }
            assert_eq!(seen.len(), rows * (m + e), "{}", engine.name());
            seen.clear();
        }
    }

    #[test]
    fn builtins_match_their_legacy_parts() {
        let (rows, m, e) = (6usize, 10usize, 5usize);
        assert_eq!(
            BaselineLayout.codeword_positions(2, rows, m, e),
            RowGeometry::new(rows, m, e).codeword_positions(2)
        );
        assert_eq!(
            GiniLayout::with_excluded_rows([1]).codeword_positions(3, rows, m, e),
            DiagonalGeometry::new(rows, m, e, &[1]).codeword_positions(3)
        );
        assert_eq!(
            PriorityLayout.place(7, rows, m),
            PriorityMapper.place(7, rows, m)
        );
        assert_eq!(
            BaselineLayout.place(7, rows, m),
            BaselineMapper.place(7, rows, m)
        );
    }

    #[test]
    fn gini_validation_rejects_bad_rows_with_typed_errors() {
        let params = CodecParams::tiny().unwrap();
        for bad in [
            GiniLayout::with_excluded_rows([6]),
            GiniLayout::with_excluded_rows([2, 2]),
            GiniLayout::with_excluded_rows((0..6).collect::<Vec<_>>()),
        ] {
            let err = bad.validate(&params).unwrap_err();
            assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
        }
        assert!(GiniLayout::with_excluded_rows([0, 5])
            .validate(&params)
            .is_ok());
        assert!(GiniLayout::new().validate(&params).is_ok());
    }

    #[test]
    fn unequal_protection_support_matches_codeword_shape() {
        assert!(BaselineLayout.supports_unequal_protection());
        assert!(PriorityLayout.supports_unequal_protection());
        assert!(!GiniLayout::new().supports_unequal_protection());
    }
}
