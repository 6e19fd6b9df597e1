//! Read orientation recovery.
//!
//! Sequencers read double-stranded DNA from either end: roughly half the
//! reads of an unlabeled pool arrive as the reverse complement of the
//! synthesized strand. Before clustering or consensus can work, every
//! read must be mapped back to a common orientation.
//!
//! [`AnchorOrienter`] scores the read's prefix against a known anchor
//! sequence (in practice the left PCR primer) in both orientations and
//! keeps the better fit — the primer-based orientation detection used by
//! real retrieval pipelines (Yazdi et al., *A Rewritable, Random-Access
//! DNA-Based Storage System*). It is an *involution on pools*: orienting a
//! read and orienting its reverse complement produce the same canonical
//! strand, which is what makes recovery insensitive to how the sequencer
//! happened to flip each molecule.

use crate::BasePattern;
use dna_strand::{Base, DnaString};

/// Which physical orientation a read was decided to be in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOrientation {
    /// The read already runs 5'→3' along the synthesized strand.
    Forward,
    /// The read is the reverse complement of the synthesized strand.
    ReverseComplement,
}

impl ReadOrientation {
    /// Whether the read must be reverse-complemented to reach the
    /// canonical orientation.
    pub fn is_flipped(self) -> bool {
        matches!(self, ReadOrientation::ReverseComplement)
    }
}

/// Primer-anchored orientation detection: a forward read begins with
/// (something close to) the anchor; a reverse-complemented read ends with
/// the anchor's reverse complement, so *its* reverse complement begins
/// with the anchor again.
///
/// # Examples
///
/// ```
/// use dna_align::{AnchorOrienter, ReadOrientation};
/// use dna_strand::DnaString;
///
/// let anchor: DnaString = "ACGTTGCA".parse()?;
/// let orienter = AnchorOrienter::new(anchor.clone());
/// let payload: DnaString = "GGGGCCCCGGGG".parse()?;
/// let strand = DnaString::concat([&anchor, &payload]);
///
/// let (o, _) = orienter.orient(&strand);
/// assert_eq!(o, ReadOrientation::Forward);
/// let (o, canonical) = orienter.orient(&strand.reverse_complement());
/// assert_eq!(o, ReadOrientation::ReverseComplement);
/// assert_eq!(canonical, strand); // flipped back to forward
/// # Ok::<(), dna_strand::StrandError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnchorOrienter {
    anchor: DnaString,
    /// The anchor compiled once for every read's two comparisons.
    pattern: BasePattern,
    slack: usize,
}

impl AnchorOrienter {
    /// An orienter scoring against `anchor` with the default indel slack
    /// (a fifth of the anchor length, at least 2 extra bases of prefix).
    pub fn new(anchor: DnaString) -> AnchorOrienter {
        let slack = (anchor.len() / 5).max(2);
        let pattern = BasePattern::new(anchor.as_slice());
        AnchorOrienter {
            anchor,
            pattern,
            slack,
        }
    }

    /// Overrides the indel slack: how many extra prefix bases beyond the
    /// anchor length are compared, absorbing insertions near the start.
    pub fn with_slack(mut self, slack: usize) -> AnchorOrienter {
        self.slack = slack;
        self
    }

    /// The anchor sequence.
    pub fn anchor(&self) -> &DnaString {
        &self.anchor
    }

    /// Fills `out` with the anchor's distance to every prefix of
    /// `prefix`: `out[j] = D(anchor, prefix[..j])`. `out` has one more
    /// slot than `prefix` has bases.
    fn prefix_distances(
        &self,
        prefix: impl ExactSizeIterator<Item = Base>,
        state: &mut [usize],
        out: &mut [usize],
    ) {
        out[0] = self.anchor.len();
        let mut j = 0;
        self.pattern.scan_bases(prefix, usize::MAX, state, |d| {
            j += 1;
            out[j] = d;
        });
    }

    /// A prefix distance as an orientation score: a distance past
    /// `max(anchor length, 1)` scores the anchor length, which is what an
    /// empty prefix scores.
    fn score(&self, d: usize) -> usize {
        let len = self.anchor.len();
        if d <= len.max(1) {
            d
        } else {
            len
        }
    }

    /// Decides `read`'s orientation and returns it with the canonical
    /// (forward-mapped) strand. See [`AnchorOrienter::orient_with`] for
    /// the allocation-free scoring buffer variant.
    pub fn orient(&self, read: &DnaString) -> (ReadOrientation, DnaString) {
        self.orient_with(read, &mut Vec::new())
    }

    /// [`AnchorOrienter::orient`] against a caller-owned buffer. The
    /// reverse orientation is scored straight off the complemented,
    /// back-to-front tail of the read (never a flipped copy), so
    /// pool-scale orientation loops allocate only the canonical strand
    /// itself — which for reads decided `Forward` is just a clone of the
    /// input.
    ///
    /// Each orientation is scored by the anchor's distance to the first
    /// `anchor + slack` bases of that orientation (fewer for a shorter
    /// read). On return `row` holds the chosen canonical strand's prefix
    /// distances over that window: `row[j] = D(anchor, canonical[..j])`
    /// for every `j` up to the window's length, so callers that need the
    /// anchor's end or fit read them here instead of scanning again.
    /// `row`'s prior contents are ignored.
    ///
    /// Ties (both orientations equally close to the anchor) are broken by
    /// comparing the two candidate canonical strands lexicographically —
    /// a content-only rule, which is what makes orientation an involution:
    /// `orient(read)` and `orient(read.reverse_complement())` always
    /// yield the same canonical strand.
    pub fn orient_with(
        &self,
        read: &DnaString,
        row: &mut Vec<usize>,
    ) -> (ReadOrientation, DnaString) {
        let bases = read.as_slice();
        // Anchor length plus slack, saturating: a huge slack means the
        // whole read.
        let window = self
            .anchor
            .len()
            .saturating_add(self.slack)
            .min(bases.len());
        // `row`: the forward prefix distances, the reverse ones, then the
        // kernel's scratch.
        let span = window + 1;
        row.clear();
        row.resize(2 * span + self.pattern.state_words(), 0);
        let (forward, rest) = row.split_at_mut(span);
        let (reverse, state) = rest.split_at_mut(span);
        self.prefix_distances(bases[..window].iter().copied(), state, forward);
        // The reverse complement's prefix is the complemented,
        // back-to-front tail of the read.
        let tail = bases[bases.len() - window..].iter().rev();
        self.prefix_distances(tail.map(|b| b.complement()), state, reverse);
        let forward_score = self.score(forward[window]);
        let reverse_score = self.score(reverse[window]);
        let orientation = match forward_score.cmp(&reverse_score) {
            std::cmp::Ordering::Less => ReadOrientation::Forward,
            std::cmp::Ordering::Greater => ReadOrientation::ReverseComplement,
            // Lexicographic read-vs-reverse-complement comparison,
            // element by element (no materialized flip).
            std::cmp::Ordering::Equal => {
                let rc_at = |i: usize| bases[bases.len() - 1 - i].complement();
                match (0..bases.len())
                    .map(|i| bases[i].cmp(&rc_at(i)))
                    .find(|o| o.is_ne())
                {
                    Some(std::cmp::Ordering::Greater) => ReadOrientation::ReverseComplement,
                    _ => ReadOrientation::Forward,
                }
            }
        };
        let canonical = match orientation {
            ReadOrientation::Forward => read.clone(),
            ReadOrientation::ReverseComplement => {
                row.copy_within(span..2 * span, 0);
                read.reverse_complement()
            }
        };
        row.truncate(span);
        (orientation, canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_strand(len: usize, seed: u64) -> DnaString {
        let mut rng = StdRng::seed_from_u64(seed);
        DnaString::random(len, &mut rng)
    }

    #[test]
    fn anchored_orientation_recovers_flipped_reads() {
        let anchor = random_strand(15, 1);
        let orienter = AnchorOrienter::new(anchor.clone());
        for seed in 2..20u64 {
            let payload = random_strand(40, seed);
            let strand = DnaString::concat([&anchor, &payload]);
            let (o, c) = orienter.orient(&strand);
            assert_eq!(o, ReadOrientation::Forward, "seed {seed}");
            assert_eq!(c, strand);
            let (o, c) = orienter.orient(&strand.reverse_complement());
            assert_eq!(o, ReadOrientation::ReverseComplement, "seed {seed}");
            assert_eq!(c, strand);
        }
    }

    #[test]
    fn orientation_is_an_involution_even_on_anchorless_reads() {
        // Reads with no trace of the anchor still canonicalize to one
        // side, whichever way they arrive.
        let orienter = AnchorOrienter::new(random_strand(12, 3));
        for seed in 0..30u64 {
            let read = random_strand(35, 100 + seed);
            let (_, a) = orienter.orient(&read);
            let (_, b) = orienter.orient(&read.reverse_complement());
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn a_huge_slack_saturates_to_the_whole_read() {
        // `anchor.len() + slack` used to overflow: a panic in debug, and
        // in release a wrapped window shorter than the anchor.
        let anchor = random_strand(12, 9);
        let read = DnaString::concat([&anchor, &random_strand(30, 10)]);
        let whole = AnchorOrienter::new(anchor.clone()).with_slack(read.len());
        let huge = AnchorOrienter::new(anchor).with_slack(usize::MAX);
        for r in [read.clone(), read.reverse_complement()] {
            assert_eq!(huge.orient(&r), whole.orient(&r));
        }
    }

    #[test]
    fn the_row_holds_the_canonical_strands_prefix_distances() {
        let anchor = random_strand(15, 4);
        let orienter = AnchorOrienter::new(anchor.clone());
        let pattern = BasePattern::new(anchor.as_slice());
        let (mut row, mut state, mut want) = (Vec::new(), Vec::new(), Vec::new());
        for seed in 0..20u64 {
            let payload = random_strand(seed as usize, 40 + seed);
            let strand = DnaString::concat([&anchor, &payload]);
            let read = random_strand(seed as usize + 2, 60 + seed);
            for r in [
                strand.clone(),
                strand.reverse_complement(),
                read.clone(),
                read.reverse_complement(),
            ] {
                let (_, canonical) = orienter.orient_with(&r, &mut row);
                let window = (anchor.len() + 3).min(r.len());
                pattern.prefix_distances(&canonical.as_slice()[..window], &mut state, &mut want);
                assert_eq!(row, want, "seed {seed} read {r}");
            }
        }
    }

    #[test]
    fn empty_read_orients_without_panicking() {
        let orienter = AnchorOrienter::new(random_strand(10, 5));
        let (o, c) = orienter.orient(&DnaString::new());
        assert_eq!(o, ReadOrientation::Forward);
        assert!(c.is_empty());
    }
}
