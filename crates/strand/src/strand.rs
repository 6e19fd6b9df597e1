//! Owned DNA strands.

use crate::Base;
use crate::StrandError;
use rand::Rng;
use std::fmt;
use std::ops::Index;
use std::str::FromStr;

/// An owned DNA strand: a sequence of [`Base`]s.
///
/// This is the unit that gets "synthesized" into the simulated channel and
/// read back as noisy copies. It intentionally does **not** deref to a
/// slice; use [`DnaString::as_slice`] for algorithmic code.
///
/// # Examples
///
/// ```
/// use dna_strand::DnaString;
///
/// let s: DnaString = "ACGTAC".parse()?;
/// assert_eq!(s.len(), 6);
/// assert_eq!(s.to_string(), "ACGTAC");
/// assert_eq!(s.reversed().to_string(), "CATGCA");
/// # Ok::<(), dna_strand::StrandError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct DnaString {
    bases: Vec<Base>,
}

impl DnaString {
    /// Creates an empty strand.
    pub fn new() -> DnaString {
        DnaString { bases: Vec::new() }
    }

    /// Creates an empty strand with room for `capacity` bases.
    pub fn with_capacity(capacity: usize) -> DnaString {
        DnaString {
            bases: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing base vector.
    pub fn from_bases(bases: Vec<Base>) -> DnaString {
        DnaString { bases }
    }

    /// A uniformly random strand of the given length.
    pub fn random<R: Rng + ?Sized>(len: usize, rng: &mut R) -> DnaString {
        DnaString {
            bases: (0..len).map(|_| Base::from_bits(rng.gen())).collect(),
        }
    }

    /// Number of bases.
    pub fn len(&self) -> usize {
        self.bases.len()
    }

    /// Whether the strand has no bases.
    pub fn is_empty(&self) -> bool {
        self.bases.is_empty()
    }

    /// The bases as a slice.
    pub fn as_slice(&self) -> &[Base] {
        &self.bases
    }

    /// Consumes the strand, returning the underlying base vector.
    pub fn into_bases(self) -> Vec<Base> {
        self.bases
    }

    /// Removes every base, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.bases.clear();
    }

    /// Appends one base.
    pub fn push(&mut self, base: Base) {
        self.bases.push(base);
    }

    /// Iterates over the bases.
    pub fn iter(&self) -> std::slice::Iter<'_, Base> {
        self.bases.iter()
    }

    /// The strand read back-to-front (used by two-sided consensus).
    pub fn reversed(&self) -> DnaString {
        DnaString {
            bases: self.bases.iter().rev().copied().collect(),
        }
    }

    /// The reverse complement, as produced by sequencing the opposite
    /// physical strand.
    pub fn reverse_complement(&self) -> DnaString {
        DnaString {
            bases: self.bases.iter().rev().map(|b| b.complement()).collect(),
        }
    }

    /// Concatenates several strands (e.g. primer + index + payload + primer).
    pub fn concat<'a, I: IntoIterator<Item = &'a DnaString>>(parts: I) -> DnaString {
        let mut out = DnaString::new();
        for p in parts {
            out.bases.extend_from_slice(&p.bases);
        }
        out
    }

    /// A sub-strand covering `range` (clamped to the strand length).
    pub fn slice(&self, start: usize, end: usize) -> DnaString {
        let end = end.min(self.bases.len());
        let start = start.min(end);
        DnaString {
            bases: self.bases[start..end].to_vec(),
        }
    }

    /// Number of positions where `self` and `other` differ; requires equal
    /// lengths.
    ///
    /// # Errors
    ///
    /// Returns [`StrandError::LengthMismatch`] when the lengths differ.
    pub fn hamming_distance(&self, other: &DnaString) -> Result<usize, StrandError> {
        if self.len() != other.len() {
            return Err(StrandError::LengthMismatch {
                expected: self.len(),
                actual: other.len(),
            });
        }
        Ok(self
            .bases
            .iter()
            .zip(other.bases.iter())
            .filter(|(a, b)| a != b)
            .count())
    }
}

impl Index<usize> for DnaString {
    type Output = Base;

    fn index(&self, i: usize) -> &Base {
        &self.bases[i]
    }
}

impl fmt::Display for DnaString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bases {
            write!(f, "{}", b.to_char())?;
        }
        Ok(())
    }
}

impl FromStr for DnaString {
    type Err = StrandError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        s.chars().map(Base::from_char).collect()
    }
}

impl FromIterator<Base> for DnaString {
    fn from_iter<I: IntoIterator<Item = Base>>(iter: I) -> Self {
        DnaString {
            bases: iter.into_iter().collect(),
        }
    }
}

impl Extend<Base> for DnaString {
    fn extend<I: IntoIterator<Item = Base>>(&mut self, iter: I) {
        self.bases.extend(iter);
    }
}

impl<'a> IntoIterator for &'a DnaString {
    type Item = &'a Base;
    type IntoIter = std::slice::Iter<'a, Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.iter()
    }
}

impl IntoIterator for DnaString {
    type Item = Base;
    type IntoIter = std::vec::IntoIter<Base>;

    fn into_iter(self) -> Self::IntoIter {
        self.bases.into_iter()
    }
}

impl From<Vec<Base>> for DnaString {
    fn from(bases: Vec<Base>) -> Self {
        DnaString { bases }
    }
}

impl AsRef<[Base]> for DnaString {
    fn as_ref(&self) -> &[Base] {
        &self.bases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parse_and_display_round_trip() {
        let s: DnaString = "ACGTacgt".parse().unwrap();
        assert_eq!(s.to_string(), "ACGTACGT");
        assert!("ACXT".parse::<DnaString>().is_err());
    }

    #[test]
    fn random_strand_has_requested_length_and_all_bases_eventually() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = DnaString::random(4000, &mut rng);
        assert_eq!(s.len(), 4000);
        for b in Base::ALL {
            assert!(s.iter().any(|&x| x == b), "missing {b}");
        }
    }

    #[test]
    fn reverse_complement_is_involution() {
        let s: DnaString = "AACGTTGCA".parse().unwrap();
        assert_eq!(s.reverse_complement().reverse_complement(), s);
        assert_eq!(s.reversed().reversed(), s);
    }

    #[test]
    fn concat_and_slice() {
        let a: DnaString = "ACG".parse().unwrap();
        let b: DnaString = "TT".parse().unwrap();
        let c = DnaString::concat([&a, &b]);
        assert_eq!(c.to_string(), "ACGTT");
        assert_eq!(c.slice(1, 4).to_string(), "CGT");
        assert_eq!(c.slice(3, 99).to_string(), "TT");
        assert_eq!(c.slice(7, 9).len(), 0);
    }

    #[test]
    fn hamming_distance_counts_mismatches() {
        let a: DnaString = "ACGT".parse().unwrap();
        let b: DnaString = "ACCA".parse().unwrap();
        assert_eq!(a.hamming_distance(&b).unwrap(), 2);
        assert!(a.hamming_distance(&"ACG".parse().unwrap()).is_err());
    }

    #[test]
    fn collects_from_iterator() {
        let s: DnaString = [Base::A, Base::T].into_iter().collect();
        assert_eq!(s.to_string(), "AT");
        let mut t = s.clone();
        t.extend([Base::G]);
        assert_eq!(t.to_string(), "ATG");
    }
}
