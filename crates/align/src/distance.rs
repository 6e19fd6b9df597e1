//! Unit-cost Levenshtein distance.

use dna_strand::Base;

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
/// affordable. A pattern of at most 64 symbols keeps its one block in
/// registers. The scan stops early once the distance provably exceeds
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
/// comparison loops stop paying allocations per call.
///
/// The shorter input becomes the pattern: its symbol classes are compiled
/// into match masks in `row`, then the text is scanned by the same kernel
/// [`BasePattern`] runs. DNA callers that compare one pattern against
/// many texts should compile it once as a [`BasePattern`] instead.
///
/// `row` holds the vertical delta vectors, each class's first pattern
/// position, an all-zero mask row for symbols the pattern lacks, then one
/// mask row per class. With `n = min(|a|,|b|)`, `w = ⌈n/64⌉` and `k`
/// classes (at most 4 for DNA), once `row`'s capacity covers
/// `2w + k + (k + 1)w` words the comparison allocates nothing. The
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
    if txt.len() - pat.len() > bound {
        return None;
    }
    let words = pat.len().div_ceil(WORD);
    row.clear();
    row.resize(2 * words, 0);
    for (i, s) in pat.iter().enumerate() {
        if !row[2 * words..].iter().any(|&first| pat[first] == *s) {
            row.push(i);
        }
    }
    let k = row.len() - 2 * words;
    row.resize(row.len() + (k + 1) * words, 0);
    let (state, records) = row.split_at_mut(2 * words);
    let (firsts, masks) = records.split_at_mut(k);
    // Branch-free: text symbols arrive in no predictable order.
    let row_of = |s: &T| -> usize {
        firsts
            .iter()
            .enumerate()
            .map(|(c, &first)| (c + 1) * usize::from(pat[first] == *s))
            .sum()
    };
    for (i, s) in pat.iter().enumerate() {
        masks[row_of(s) * words + i / WORD] |= 1 << (i % WORD);
    }
    scan(masks, pat.len(), txt.iter(), row_of, state, bound, |_| {})
}

/// A DNA pattern compiled once for many comparisons: four match-mask rows
/// of ⌈len/64⌉ words, indexed by [`Base::to_bits`]. Comparing it against
/// a text costs one bit-parallel scan of the text, with no per-call mask
/// build and no per-symbol class search — the form primers, anchors and
/// cluster representatives take in the retrieval path.
///
/// # Examples
///
/// ```
/// use dna_align::{edit_distance, BasePattern};
/// use dna_strand::DnaString;
///
/// let primer: DnaString = "ACGTTGCA".parse()?;
/// let read: DnaString = "ACGTGCAGG".parse()?;
/// let pattern = BasePattern::new(primer.as_slice());
/// let mut state = Vec::new();
/// assert_eq!(pattern.distance_bounded(read.as_slice(), 3, &mut state), Some(3));
/// assert_eq!(pattern.distance_bounded(read.as_slice(), 2, &mut state), None);
///
/// // Every prefix of the read at once: out[j] = D(primer, read[..j]).
/// let mut out = Vec::new();
/// pattern.prefix_distances(read.as_slice(), &mut state, &mut out);
/// assert_eq!(out[7], edit_distance(primer.as_slice(), &read.as_slice()[..7]));
/// # Ok::<(), dna_strand::StrandError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasePattern {
    len: usize,
    /// Row `b` (words `b·w .. (b+1)·w`) has bit `i` set where the pattern
    /// holds the base whose 2-bit code is `b`.
    masks: Vec<usize>,
}

impl BasePattern {
    /// Compiles `pattern` into its match masks.
    pub fn new(pattern: &[Base]) -> BasePattern {
        let words = pattern.len().div_ceil(WORD);
        let mut masks = vec![0; 4 * words];
        for (i, &b) in pattern.iter().enumerate() {
            masks[usize::from(b.to_bits()) * words + i / WORD] |= 1 << (i % WORD);
        }
        BasePattern {
            len: pattern.len(),
            masks,
        }
    }

    /// The pattern length in bases.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the pattern is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The edit distance between the pattern and `text` when it is at
    /// most `bound`, else `None` — exactly [`edit_distance_bounded`]'s
    /// answer, whichever of the two is longer. `state` is scratch for the
    /// delta vectors (2 words per 64 pattern bases); its prior contents
    /// are ignored.
    pub fn distance_bounded(
        &self,
        text: &[Base],
        bound: usize,
        state: &mut Vec<usize>,
    ) -> Option<usize> {
        state.resize(self.state_words(), 0);
        self.scan_bases(text.iter().copied(), bound, state, |_| {})
    }

    /// Fills `out` with `out[j] = D(pattern, text[..j])` for every
    /// `j` in `0..=text.len()`, from one scan of `text`. `out`'s prior
    /// contents are replaced; `state` is as in
    /// [`BasePattern::distance_bounded`].
    pub fn prefix_distances(&self, text: &[Base], state: &mut Vec<usize>, out: &mut Vec<usize>) {
        out.clear();
        out.push(self.len);
        state.resize(self.state_words(), 0);
        self.scan_bases(text.iter().copied(), usize::MAX, state, |d| out.push(d));
    }

    /// The scratch words [`BasePattern::scan_bases`] needs: the delta
    /// vectors, 2 words per 64 pattern bases.
    pub(crate) fn state_words(&self) -> usize {
        2 * self.len.div_ceil(WORD)
    }

    /// The kernel over any exact-length run of bases, so callers can
    /// score a transformed window (a complemented tail) without copying
    /// it. `state` holds at least [`BasePattern::state_words`] words.
    pub(crate) fn scan_bases(
        &self,
        text: impl ExactSizeIterator<Item = Base>,
        bound: usize,
        state: &mut [usize],
        column: impl FnMut(usize),
    ) -> Option<usize> {
        let row_of = |b: Base| usize::from(b.to_bits());
        scan(&self.masks, self.len, text, row_of, state, bound, column)
    }
}

/// Myers' bit-parallel edit distance in Hyyrö's block form, the one scan
/// under every bounded comparison. The `n`-symbol pattern is given as
/// match-mask rows of `w = ⌈n/64⌉` words in `masks`; `row_of` maps a text
/// symbol to its row. `state` (2w words, contents ignored) holds the
/// vertical delta vectors. `column` sees D(pattern, text[..j]) for each
/// `j ≥ 1` in turn. Returns the distance when it is at most `bound`,
/// stopping early once it provably exceeds `bound`. Patterns of at most
/// 64 symbols (every primer, anchor and validation window) take
/// [`scan_word`].
fn scan<S>(
    masks: &[usize],
    n: usize,
    text: impl ExactSizeIterator<Item = S>,
    row_of: impl Fn(S) -> usize,
    state: &mut [usize],
    bound: usize,
    mut column: impl FnMut(usize),
) -> Option<usize> {
    let m = text.len();
    if n.abs_diff(m) > bound {
        return None;
    }
    if n == 0 {
        (1..=m).for_each(column);
        return Some(m);
    }
    if n <= WORD {
        return scan_word(masks, n, text, row_of, bound, column);
    }
    let words = n.div_ceil(WORD);
    let (pv, mv) = state[..2 * words].split_at_mut(words);
    // Column 0: D[i][0] = i, so every vertical delta is +1.
    pv.fill(!0);
    mv.fill(0);
    let last_row = 1 << ((n - 1) % WORD);
    // D never exceeds max(n, m), so a bound at or past it never exits.
    let probe = bound < n.max(m);
    let mut score = n;
    for (j, s) in text.enumerate() {
        let eq = &masks[row_of(s) * words..][..words];
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
        column(score);
        // Exact early exit: distances never decrease along a diagonal, so
        // the cell on this column's diagonal through (n, m) — row
        // col + n − m, when that row exists — is a lower bound on the
        // final distance. Every 8th column keeps the popcounts off the
        // per-column cost.
        let col = j + 1;
        if probe && col % 8 == 0 && col < m {
            if let Some(i) = (col + n).checked_sub(m) {
                if diagonal_cell(pv, mv, col, i) > bound {
                    return None;
                }
            }
        }
    }
    (score <= bound).then_some(score)
}

/// [`scan`] for a pattern of 1..=64 symbols: one mask word per row, the
/// delta vectors in registers, no block loop and no carry between
/// blocks. Same answers, same `column` calls and the same diagonal early
/// exit; `state` goes unused.
fn scan_word<S>(
    masks: &[usize],
    n: usize,
    text: impl ExactSizeIterator<Item = S>,
    row_of: impl Fn(S) -> usize,
    bound: usize,
    mut column: impl FnMut(usize),
) -> Option<usize> {
    let m = text.len();
    let last_row = 1 << (n - 1);
    let probe = bound < n.max(m);
    let (mut pv, mut mv) = (!0usize, 0usize);
    let mut score = n;
    for (j, s) in text.enumerate() {
        let eq = masks[row_of(s)];
        // Myers' step with the top row's horizontal delta of +1.
        let xv = eq | mv;
        let xh = ((eq & pv).wrapping_add(pv) ^ pv) | eq;
        let ph = mv | !(xh | pv);
        let mh = pv & xh;
        score = score + usize::from(ph & last_row != 0) - usize::from(mh & last_row != 0);
        let ph = (ph << 1) | 1;
        let mh = mh << 1;
        pv = mh | !(xv | ph);
        mv = ph & xv;
        column(score);
        let col = j + 1;
        if probe && col % 8 == 0 && col < m {
            if let Some(i) = (col + n).checked_sub(m) {
                if diagonal_cell(&[pv], &[mv], col, i) > bound {
                    return None;
                }
            }
        }
    }
    (score <= bound).then_some(score)
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
