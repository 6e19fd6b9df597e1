//! Unit-cost Levenshtein distance.

/// Bits per word of the bit-parallel kernel.
const WORD: usize = usize::BITS as usize;

/// The edit (Levenshtein) distance between `a` and `b`: the minimum number
/// of insertions, deletions, and substitutions converting one into the
/// other. Runs in O(|a|·|b|) time and O(min(|a|,|b|)) space.
///
/// # Examples
///
/// ```
/// use dna_align::edit_distance;
///
/// assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
/// assert_eq!(edit_distance(b"", b"abc"), 3);
/// ```
pub fn edit_distance<T: Eq>(a: &[T], b: &[T]) -> usize {
    // Keep the shorter sequence as the DP row.
    let (a, b) = if a.len() < b.len() { (b, a) } else { (a, b) };
    let n = b.len();
    if n == 0 {
        return a.len();
    }
    let mut row: Vec<usize> = (0..=n).collect();
    for (i, ai) in a.iter().enumerate() {
        let mut prev_diag = row[0];
        row[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            let val = (prev_diag + cost).min(row[j] + 1).min(row[j + 1] + 1);
            prev_diag = row[j + 1];
            row[j + 1] = val;
        }
    }
    row[n]
}

/// Edit distance with an early-exit `bound`: returns `Some(d)` when
/// `d ≤ bound`, `None` otherwise. Any `bound` is accepted, `usize::MAX`
/// included.
///
/// Runs Myers' bit-parallel algorithm in Hyyrö's block form, with the
/// shorter input as the pattern: ⌈min(|a|,|b|)/64⌉·max(|a|,|b|) word
/// operations, which is what makes clustering large read pools
/// affordable. The scan stops early once the distance provably exceeds
/// `bound`.
///
/// # Examples
///
/// ```
/// use dna_align::edit_distance_bounded;
///
/// assert_eq!(edit_distance_bounded(b"ACGTACGT", b"ACGAACGT", 2), Some(1));
/// assert_eq!(edit_distance_bounded(b"AAAAAAAA", b"TTTTTTTT", 3), None);
/// ```
pub fn edit_distance_bounded<T: Eq>(a: &[T], b: &[T], bound: usize) -> Option<usize> {
    edit_distance_bounded_with(a, b, bound, &mut Vec::new())
}

/// [`edit_distance_bounded`] against a caller-owned scratch buffer, so hot
/// comparison loops — read clustering, orientation, primer filtering —
/// stop paying allocations per call.
///
/// `row` holds the kernel's bit masks: the vertical delta vectors, an
/// all-zero record for symbols the shorter input lacks, then one record
/// per symbol class of the shorter input (its first position and its
/// match mask). With `n = min(|a|,|b|)`, `w = ⌈n/64⌉` and `k` classes
/// (at most 4 for DNA), once `row`'s capacity covers
/// `2w + (k + 1)(w + 1)` words the comparison allocates nothing. The
/// buffer's prior contents are ignored and overwritten.
///
/// # Examples
///
/// ```
/// use dna_align::{edit_distance_bounded, edit_distance_bounded_with};
///
/// let mut row = Vec::new();
/// for (a, b) in [(b"ACGT", b"ACGA"), (b"AAAA", b"AAAA")] {
///     assert_eq!(
///         edit_distance_bounded_with(a, b, 2, &mut row),
///         edit_distance_bounded(a, b, 2),
///     );
/// }
/// ```
pub fn edit_distance_bounded_with<T: Eq>(
    a: &[T],
    b: &[T],
    bound: usize,
    row: &mut Vec<usize>,
) -> Option<usize> {
    let (pat, txt) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (n, m) = (pat.len(), txt.len());
    if m - n > bound {
        return None;
    }
    if n == 0 {
        return Some(m);
    }
    let words = n.div_ceil(WORD);
    let stride = words + 1;
    // row = [pv | mv | the all-zero record | one record per class: its
    // first pattern position, then its match mask].
    row.clear();
    row.resize(2 * words + stride, 0);
    let mut k = 0;
    for (i, s) in pat.iter().enumerate() {
        let mut class = class_of(pat, &row[2 * words..], stride, k, s);
        if class == 0 {
            k += 1;
            class = k;
            row.resize(row.len() + stride, 0);
            row[2 * words + class * stride] = i;
        }
        row[2 * words + class * stride + 1 + i / WORD] |= 1 << (i % WORD);
    }
    let (state, records) = row.split_at_mut(2 * words);
    let (pv, mv) = state.split_at_mut(words);
    // Column 0: D[i][0] = i, so every vertical delta is +1.
    pv.fill(!0);
    let last_row = 1 << ((n - 1) % WORD);
    let mut score = n;
    for (j, s) in txt.iter().enumerate() {
        let class = class_of(pat, records, stride, k, s);
        let eq = &records[class * stride + 1..(class + 1) * stride];
        // Myers' step per 64-row block, with Hyyrö's carry of the
        // horizontal delta `hin` from block to block. The top row
        // D[0][j] = j rises by one every column.
        let mut hin: isize = 1;
        for (blk, (&eq, (pv, mv))) in eq.iter().zip(pv.iter_mut().zip(mv.iter_mut())).enumerate() {
            let high = if blk + 1 == words {
                last_row
            } else {
                1 << (WORD - 1)
            };
            let xv = eq | *mv;
            let eq = eq | usize::from(hin < 0);
            let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
            let ph = *mv | !(xh | *pv);
            let mh = *pv & xh;
            let hout = isize::from(ph & high != 0) - isize::from(mh & high != 0);
            let ph = (ph << 1) | usize::from(hin > 0);
            let mh = (mh << 1) | usize::from(hin < 0);
            *pv = mh | !(xv | ph);
            *mv = ph & xv;
            hin = hout;
        }
        score = score.wrapping_add_signed(hin);
        // Exact early exit: distances never decrease along a diagonal, so
        // the cell on this column's diagonal through (n, m) is a lower
        // bound on the final distance. Every 8th column keeps the
        // popcounts off the per-column cost.
        let col = j + 1;
        if col % 8 == 0
            && col < m
            && col >= m - n
            && diagonal_cell(pv, mv, col, col - (m - n)) > bound
        {
            return None;
        }
    }
    (score <= bound).then_some(score)
}

/// The class of symbol `s`: the index of the record among the first `k`
/// whose pattern position holds `s`, or 0 (the all-zero record) when none
/// does. Branch-free, since text symbols arrive in no predictable order.
fn class_of<T: Eq>(pat: &[T], records: &[usize], stride: usize, k: usize, s: &T) -> usize {
    (1..k + 1)
        .map(|c| c * usize::from(pat[records[c * stride]] == *s))
        .sum()
}

/// D[i][col] read off the vertical delta vectors: the top row's `col`
/// plus the +1 and −1 deltas of rows 1..=i.
fn diagonal_cell(pv: &[usize], mv: &[usize], col: usize, i: usize) -> usize {
    let (full, rem) = (i / WORD, i % WORD);
    let mut up = 0;
    let mut down = 0;
    for (p, m) in pv[..full].iter().zip(&mv[..full]) {
        up += p.count_ones() as usize;
        down += m.count_ones() as usize;
    }
    if rem > 0 {
        let mask = (1 << rem) - 1;
        up += (pv[full] & mask).count_ones() as usize;
        down += (mv[full] & mask).count_ones() as usize;
    }
    col + up - down
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_examples() {
        assert_eq!(edit_distance(b"kitten", b"sitting"), 3);
        assert_eq!(edit_distance(b"flaw", b"lawn"), 2);
        assert_eq!(edit_distance(b"", b""), 0);
        assert_eq!(edit_distance(b"a", b""), 1);
        assert_eq!(edit_distance(b"abc", b"abc"), 0);
    }

    #[test]
    fn single_edits() {
        assert_eq!(edit_distance(b"ACGT", b"AGGT"), 1); // sub
        assert_eq!(edit_distance(b"ACGT", b"ACGGT"), 1); // ins
        assert_eq!(edit_distance(b"ACGT", b"AGT"), 1); // del
    }

    #[test]
    fn symmetric() {
        let pairs: [(&[u8], &[u8]); 3] =
            [(b"ACCGT", b"AGT"), (b"", b"TTT"), (b"GATTACA", b"GCATGCU")];
        for (a, b) in pairs {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
        }
    }

    #[test]
    fn bounded_agrees_with_full_when_within_bound() {
        let strings: [&[u8]; 5] = [
            b"ACGTACGTAC",
            b"ACGTACGT",
            b"ACTTACGTAC",
            b"TTTTTTTTTT",
            b"",
        ];
        for a in strings {
            for b in strings {
                let full = edit_distance(a, b);
                for bound in 0..=12 {
                    let bd = edit_distance_bounded(a, b, bound);
                    if full <= bound {
                        assert_eq!(bd, Some(full), "a={a:?} b={b:?} bound={bound}");
                    } else {
                        assert_eq!(bd, None, "a={a:?} b={b:?} bound={bound}");
                    }
                }
            }
        }
    }

    #[test]
    fn works_on_non_byte_symbols() {
        let a = [1u16, 2, 3, 4];
        let b = [1u16, 3, 4];
        assert_eq!(edit_distance(&a, &b), 1);
        assert_eq!(edit_distance_bounded(&a, &b, 1), Some(1));
    }

    #[test]
    fn unbounded_bound_does_not_overflow() {
        assert_eq!(edit_distance_bounded(b"ACGT", b"AGT", usize::MAX), Some(1));
    }

    #[test]
    fn a_large_enough_buffer_is_reused_without_growing() {
        let a: Vec<u8> = (0..200).map(|i| (i % 4) as u8).collect();
        let mut row = Vec::with_capacity(2 * 4 + 5 * (4 + 1));
        let before = row.as_ptr();
        assert_eq!(
            edit_distance_bounded_with(&a, &a[1..], 5, &mut row),
            Some(1)
        );
        assert_eq!(row.as_ptr(), before);
    }
}
