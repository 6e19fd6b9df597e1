//! The unit's symbol matrix: columns are molecules, rows are per-molecule
//! symbol positions.

/// A dense `rows × cols` matrix of GF(2^m) symbols (stored as `u16`),
/// column-major: each molecule's symbols are contiguous, so a strand is
/// emitted from (and read back into) one slice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SymbolMatrix {
    rows: usize,
    cols: usize,
    data: Vec<u16>,
}

impl SymbolMatrix {
    /// An all-zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> SymbolMatrix {
        SymbolMatrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Number of rows (symbols per molecule).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (molecules).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Reads the symbol at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u16 {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[col * self.rows + row]
    }

    /// Writes the symbol at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u16) {
        assert!(
            row < self.rows && col < self.cols,
            "matrix index out of bounds"
        );
        self.data[col * self.rows + row] = value;
    }

    /// The flat index of cell `(row, col)` in [`SymbolMatrix::cells`] of
    /// a matrix with `rows` rows.
    #[inline]
    pub(crate) fn offset(rows: usize, row: usize, col: usize) -> usize {
        col * rows + row
    }

    /// Every cell, column-major (see [`SymbolMatrix::offset`]).
    #[inline]
    pub(crate) fn cells(&self) -> &[u16] {
        &self.data
    }

    /// Every cell, mutably, column-major.
    #[inline]
    pub(crate) fn cells_mut(&mut self) -> &mut [u16] {
        &mut self.data
    }

    /// Reshapes to `rows × cols` and zeroes every cell, reusing the
    /// existing storage when it is large enough — the workspace-reset
    /// primitive for decode scratch reuse.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.clear();
        self.data.resize(rows * cols, 0);
    }

    /// Zeroes every cell of column `col`.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of bounds.
    pub fn zero_column(&mut self, col: usize) {
        self.column_mut(col).fill(0);
    }

    /// The symbols of column `col`, top to bottom, in place.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of bounds.
    #[inline]
    pub(crate) fn column_slice(&self, col: usize) -> &[u16] {
        assert!(col < self.cols, "matrix index out of bounds");
        &self.data[col * self.rows..(col + 1) * self.rows]
    }

    /// [`SymbolMatrix::column_slice`], mutably.
    ///
    /// # Panics
    ///
    /// Panics when `col` is out of bounds.
    #[inline]
    pub(crate) fn column_mut(&mut self, col: usize) -> &mut [u16] {
        assert!(col < self.cols, "matrix index out of bounds");
        &mut self.data[col * self.rows..(col + 1) * self.rows]
    }

    /// The symbols of column `col`, top to bottom (the molecule payload).
    pub fn column(&self, col: usize) -> Vec<u16> {
        self.column_slice(col).to_vec()
    }

    /// Overwrites column `col` from a slice of `rows` symbols.
    ///
    /// # Panics
    ///
    /// Panics when `symbols.len() != rows` or `col` is out of bounds.
    pub fn set_column(&mut self, col: usize, symbols: &[u16]) {
        assert_eq!(symbols.len(), self.rows, "column length mismatch");
        self.column_mut(col).copy_from_slice(symbols);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_set_round_trip() {
        let mut m = SymbolMatrix::zeros(3, 4);
        m.set(2, 3, 99);
        m.set(0, 0, 1);
        assert_eq!(m.get(2, 3), 99);
        assert_eq!(m.get(0, 0), 1);
        assert_eq!(m.get(1, 1), 0);
    }

    #[test]
    fn column_accessors() {
        let mut m = SymbolMatrix::zeros(3, 2);
        m.set_column(1, &[7, 8, 9]);
        assert_eq!(m.column(1), vec![7, 8, 9]);
        assert_eq!(m.column(0), vec![0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        SymbolMatrix::zeros(2, 2).get(2, 0);
    }
}
