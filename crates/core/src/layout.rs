//! The paper's three data organizations as one closed type: [`Layout`].
//!
//! A layout answers two questions about a unit's matrix: where the
//! `p`-th payload symbol lives ([`Layout::place`], a bijection onto the
//! data region), and which cells form each Reed–Solomon codeword (a
//! partition of every cell, data cells first). The set is closed because
//! the object store's pool header records the layout as one of three
//! wire ids; a layout the header cannot name could never be read back.
//!
//! - **Baseline** (paper Fig. 1): codeword `k` is row `k`, and payload
//!   fills molecules one by one (column-major), so the unreliable middle
//!   rows concentrate mid-strand errors in a few codewords.
//! - **Gini** (paper Fig. 8): codewords stripe *diagonally*, wrapping to
//!   the next column at the bottom edge, so every codeword samples every
//!   row nearly equally and still touches each column at most once (a
//!   lost molecule costs every codeword exactly one symbol). Excluded
//!   rows stay row codewords (Fig. 8b reliability classes).
//! - **DnaMapper** (paper Fig. 9): row codewords, with the
//!   priority-sorted payload sent to the most reliable rows first —
//!   alternating between the two ends of the molecule and converging on
//!   the unreliable middle.
//!
//! # Examples
//!
//! ```
//! use dna_storage::{CodecParams, Layout, Pipeline};
//!
//! # fn main() -> Result<(), dna_storage::StorageError> {
//! let pipeline = Pipeline::builder()
//!     .params(CodecParams::tiny()?)
//!     .layout(Layout::DnaMapper)
//!     .build()?;
//! let (rows, data_cols) = (6, 10);
//! // The most important symbols land in the last row (the strand's
//! // reliable end); the next group sits right after the index (row 0).
//! assert_eq!(pipeline.layout().place(0, rows, data_cols), (5, 0));
//! assert_eq!(pipeline.layout().place(data_cols, rows, data_cols), (0, 0));
//! // DnaMapper keeps row codewords: codeword 2 is row 2, parity included.
//! assert!(pipeline.codeword_positions()[2].iter().all(|&(r, _)| r == 2));
//! # Ok(())
//! # }
//! ```

use crate::params::CodecParams;
use crate::StorageError;

/// Which of the paper's data organizations a unit uses: a plain value
/// the CLI parses, the object store's pool header records, and
/// experiment harnesses compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Layout {
    /// Paper Fig. 1: row codewords, column-major data (skew-oblivious).
    Baseline,
    /// Paper Fig. 8: diagonal codeword interleaving. `excluded_rows` may
    /// reserve rows as dedicated reliability classes (Fig. 8b); they are
    /// validated when the pipeline is built — out-of-range rows,
    /// duplicates, and excluding every row are typed
    /// [`StorageError::InvalidParams`]s.
    Gini {
        /// Rows kept as row-codewords outside the interleaving.
        excluded_rows: Vec<usize>,
    },
    /// Paper Fig. 9: priority zig-zag data mapping over row codewords
    /// (parity is computed after mapping and never remapped).
    DnaMapper,
}

impl Layout {
    /// A short name for figures, reports, and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            Layout::Baseline => "baseline",
            Layout::Gini { .. } => "gini",
            Layout::DnaMapper => "dnamapper",
        }
    }

    /// Cell of the `p`-th payload symbol, as `(row, col)` with
    /// `col < data_cols`: a bijection from `0..rows·data_cols` onto the
    /// data region.
    ///
    /// # Panics
    ///
    /// Panics under [`Layout::DnaMapper`] when `p` lies past the data
    /// region.
    pub fn place(&self, p: usize, rows: usize, data_cols: usize) -> (usize, usize) {
        match self {
            Layout::Baseline | Layout::Gini { .. } => (p % rows, p / rows),
            Layout::DnaMapper => (priority_row(p / data_cols, rows), p % data_cols),
        }
    }

    /// Whether a non-uniform [`ProtectionPlan`](crate::ProtectionPlan)
    /// may run on this layout: true for the row-codeword layouts, whose
    /// codeword `k` keeps all its data cells in row `k`.
    pub fn supports_unequal_protection(&self) -> bool {
        !matches!(self, Layout::Gini { .. })
    }

    /// Checks the layout against a concrete geometry, so a bad Gini row
    /// list is a typed error at build time instead of a misplaced cell.
    pub(crate) fn validate(&self, params: &CodecParams) -> Result<(), StorageError> {
        let Layout::Gini { excluded_rows } = self else {
            return Ok(());
        };
        let rows = params.rows();
        let mut seen = vec![false; rows];
        for &r in excluded_rows {
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
        if excluded_rows.len() >= rows {
            return Err(StorageError::InvalidParams(
                "at least one row must remain interleaved".into(),
            ));
        }
        Ok(())
    }

    /// Every codeword's cells, in codeword order (one codeword per row):
    /// `data_cols` data cells followed by `parity_cols` parity cells.
    /// The lists partition all `rows × (data_cols + parity_cols)` cells,
    /// and no codeword touches a column twice. Call only on a
    /// [`validate`](Self::validate)d layout.
    pub(crate) fn codeword_positions(
        &self,
        rows: usize,
        data_cols: usize,
        parity_cols: usize,
    ) -> Vec<Vec<(usize, usize)>> {
        match self {
            Layout::Gini { excluded_rows } => {
                diagonal_codewords(rows, data_cols, parity_cols, excluded_rows)
            }
            Layout::Baseline | Layout::DnaMapper => (0..rows)
                .map(|k| row_codeword(k, data_cols + parity_cols))
                .collect(),
        }
    }
}

/// Row `k` as one codeword across all `cols` columns.
fn row_codeword(k: usize, cols: usize) -> Vec<(usize, usize)> {
    (0..cols).map(|c| (k, c)).collect()
}

/// The row holding DnaMapper priority group `g` of `rows` (paper Fig. 9).
/// The index lives at the very front of the strand, before row 0, so the
/// reliability order is: last row, first row, second-to-last, second, …
/// middle last. Even groups descend from the bottom, odd groups ascend
/// from the top.
fn priority_row(g: usize, rows: usize) -> usize {
    assert!(g < rows, "priority group out of range");
    if g.is_multiple_of(2) {
        rows - 1 - g / 2
    } else {
        (g - 1) / 2
    }
}

/// Gini's codewords (paper Fig. 8): rows in `excluded_rows` stay row
/// codewords (Fig. 8b), while the remaining `S'` rows are covered by one
/// continuous diagonal walk.
///
/// The walk visits data cells `(t mod S', (t + cycle) mod M)` — one row
/// down and one column right per symbol, continuing "from the next
/// column" on wraparound (paper §4.2). When `gcd(S', M) = d > 1` the
/// walk closes after `lcm(S', M)` steps, so each of the `d` cycles
/// offsets the column by one; the cycles partition cells by
/// `(col − row) mod d`, making the walk a bijection onto the included
/// data region. Parity for diagonal codeword `k` sits at
/// `(row (k + e) mod S', parity column e)`, so parity columns also meet
/// each codeword exactly once.
fn diagonal_codewords(
    rows: usize,
    m: usize,
    parity_cols: usize,
    excluded_rows: &[usize],
) -> Vec<Vec<(usize, usize)>> {
    let included: Vec<usize> = (0..rows).filter(|r| !excluded_rows.contains(r)).collect();
    let s = included.len();
    let l = s / gcd(s, m) * m; // lcm(S', M)
    let mut rank = 0;
    let mut codewords = Vec::with_capacity(rows);
    for k in 0..rows {
        if excluded_rows.contains(&k) {
            codewords.push(row_codeword(k, m + parity_cols));
            continue;
        }
        let start = rank * m;
        let mut cells: Vec<(usize, usize)> = (start..start + m)
            .map(|t| (included[t % s], (t + t / l) % m))
            .collect();
        cells.extend((0..parity_cols).map(|e| (included[(rank + e) % s], m + e)));
        codewords.push(cells);
        rank += 1;
    }
    codewords
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pipeline;

    #[test]
    fn priority_rows_follow_figure_9() {
        // 6 rows: group order bottom, top, 2nd-bottom, 2nd-top, …
        let order: Vec<usize> = (0..6).map(|g| priority_row(g, 6)).collect();
        assert_eq!(order, vec![5, 0, 4, 1, 3, 2]);
        // Odd row count: the middle row is last.
        let order5: Vec<usize> = (0..5).map(|g| priority_row(g, 5)).collect();
        assert_eq!(order5, vec![4, 0, 3, 1, 2]);
    }

    #[test]
    fn highest_priority_symbols_land_in_last_row() {
        // Paper: "We therefore strip 2M most important data bits across M
        // molecules, placing them in … the last base of each molecule."
        let (rows, cols) = (6, 10);
        for p in 0..cols {
            assert_eq!(Layout::DnaMapper.place(p, rows, cols), (rows - 1, p));
        }
        // The next group sits right after the index (row 0).
        assert_eq!(Layout::DnaMapper.place(cols, rows, cols).0, 0);
    }

    #[test]
    fn baseline_is_column_major() {
        let cells: Vec<(usize, usize)> = (0..6).map(|p| Layout::Baseline.place(p, 3, 2)).collect();
        assert_eq!(cells, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn excluded_rows_stay_whole_row_codewords() {
        // Fig. 8b: first and last rows excluded, the rest interleaved.
        let layout = Layout::Gini {
            excluded_rows: vec![5, 0],
        };
        let codewords = layout.codeword_positions(6, 10, 5);
        for k in [0usize, 5] {
            assert_eq!(codewords[k], row_codeword(k, 15));
        }
        for cells in &codewords[1..5] {
            assert!(cells.iter().all(|&(r, _)| r != 0 && r != 5));
        }
    }

    #[test]
    fn diagonal_codewords_spread_evenly_across_rows() {
        // Every diagonal codeword samples every row equally often (the
        // de-biasing property).
        let gini = Layout::Gini {
            excluded_rows: vec![],
        };
        for cells in gini.codeword_positions(5, 50, 10) {
            let mut per_row = [0usize; 5];
            for &(r, _) in &cells[..50] {
                per_row[r] += 1;
            }
            assert_eq!(per_row, [10; 5]);
        }
    }

    #[test]
    fn gini_validation_is_a_typed_builder_error() {
        let build = |excluded_rows: Vec<usize>| {
            Pipeline::builder()
                .params(CodecParams::tiny().unwrap())
                .layout(Layout::Gini { excluded_rows })
                .build()
        };
        for (excluded_rows, message) in [
            (vec![6], "excluded row 6 out of range for 6 rows"),
            (vec![2, 2], "excluded row 2 listed twice"),
            ((0..6).collect(), "at least one row must remain interleaved"),
        ] {
            let err = build(excluded_rows).unwrap_err();
            assert_eq!(err, StorageError::InvalidParams(message.into()));
        }
        assert!(build(vec![0, 5]).is_ok());
        assert!(build(vec![]).is_ok());
    }

    #[test]
    fn unequal_protection_support_matches_codeword_shape() {
        assert!(Layout::Baseline.supports_unequal_protection());
        assert!(Layout::DnaMapper.supports_unequal_protection());
        assert!(!Layout::Gini {
            excluded_rows: vec![]
        }
        .supports_unequal_protection());
    }
}
