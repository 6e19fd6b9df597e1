//! Bitwise-majority alignment with lookahead: the paper's §3.1 consensus.

use crate::TraceReconstructor;
use dna_strand::{Base, DnaString};
use std::cell::RefCell;
use std::ops::Range;

/// The one-way (left-to-right) majority-with-lookahead reconstruction.
///
/// At each output position the active reads vote with their current
/// character; disagreeing reads are *repaired* under the most plausible
/// hypothesis — substitution, deletion, or insertion — chosen by comparing
/// a small lookahead window against the estimated upcoming consensus, and
/// their cursors adjusted accordingly. A wrong hypothesis misaligns the
/// read for subsequent votes, which is exactly how error accumulates
/// toward the far end of the strand (paper Fig. 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BmaOneWay {
    lookahead: usize,
}

impl BmaOneWay {
    /// Creates the reconstructor with a lookahead window of `lookahead`
    /// characters (the paper's worked example uses 2).
    pub fn new(lookahead: usize) -> BmaOneWay {
        BmaOneWay {
            lookahead: lookahead.max(1),
        }
    }

    /// The lookahead window length.
    pub fn lookahead(&self) -> usize {
        self.lookahead
    }
}

impl Default for BmaOneWay {
    fn default() -> Self {
        BmaOneWay::new(2)
    }
}

/// The arena byte past the end of every read: no base, so it votes for
/// nothing, matches no window byte, and marks its read exhausted.
const EXHAUSTED: u8 = 4;
/// The window byte of a depth no agreeing read reached: no arena byte.
const NO_VOTE: u8 = 7;
/// The low and the high bit of every byte lane of a word.
const LOW: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = LOW << 7;

/// Flags (high bit) every nonzero byte lane of `x`, exact for lanes below
/// `0x80` as XORs of arena and window bytes are: `+ 0x7F` carries no further.
fn nonzero_lanes(x: u64) -> u64 {
    (x + 0x7F * LOW) & HIGH
}

/// Flags every lane of an arena word holding [`EXHAUSTED`] (bit 2 set).
fn exhausted_lanes(word: u64) -> u64 {
    (word << 5) & HIGH
}

/// The number of byte lanes in which `a` equals `b`.
fn matches(a: u64, b: u64) -> usize {
    (((!nonzero_lanes(a ^ b) & HIGH) >> 7).wrapping_mul(LOW) >> 56) as usize
}

/// The 8 arena bytes from `at` as one word: byte lane `j` is column `at + j`.
fn load(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("an 8-byte slice"))
}

/// The reads set in a bitmask of 64-read blocks.
fn set_bits(mask: &[u64]) -> impl Iterator<Item = usize> + '_ {
    mask.iter().enumerate().flat_map(|(block, &bits)| {
        let mut rest = bits;
        std::iter::from_fn(move || {
            let k = 64 * block + rest.trailing_zeros() as usize;
            (rest != 0).then(|| (rest &= rest - 1, k).1)
        })
    })
}

/// Byte lane `lane` summed over per-block counts, each below 256, so no
/// lane wraps at any read count.
fn lane_total(blocks: &[u64], lane: usize) -> usize {
    blocks
        .iter()
        .fold(0, |sum, b| sum + usize::from((b >> (8 * lane)) as u8))
}

/// The plurality of `byte(k)` over reads `0..n`, ties toward the smallest
/// base, or [`NO_VOTE`] when nothing counts ([`EXHAUSTED`] never does).
/// A 64-read block tallies in one register, a byte lane per base.
fn plurality(n: usize, byte: impl Fn(usize) -> u64) -> u8 {
    let mut tally = [0; 4];
    for block in (0..n).step_by(64) {
        let lanes = (block..n.min(block + 64)).fold(0, |l, k| l + (1 << (8 * (byte(k) & 7))));
        for (b, t) in tally.iter_mut().enumerate() {
            *t += lane_total(&[lanes], b);
        }
    }
    let best = |best: (u8, usize), b: (u8, usize)| if b.1 > best.1 { b } else { best };
    (0u8..).zip(tally).fold((NO_VOTE, 0), best).0
}

/// The scan's scratch, one per thread and reused across calls.
#[derive(Debug, Default)]
struct Arena {
    /// Every read in scan order, each followed by [`EXHAUSTED`] padding,
    /// and the span of each read's bytes not yet consumed.
    bytes: Vec<u8>,
    cursors: Vec<Range<usize>>,
    /// Each read's word at its cursor, and the `stride − 1` after it.
    heads: Vec<u64>,
    ahead: Vec<u64>,
    /// Per 64-read block: the active reads that differ from the lead (or
    /// the vote), and per byte lane the reads that differ from it or end.
    outliers: Vec<u64>,
    unclean: Vec<u64>,
    /// The estimated upcoming window, depth `d` in byte lane `d`.
    window: Vec<u64>,
}

thread_local! {
    static ARENA: RefCell<Arena> = RefCell::new(Arena::default());
}

impl BmaOneWay {
    /// One scan over `target_len` positions, left-to-right when `forward`.
    /// Position `t` depends only on positions `≤ t`, so a shorter scan is
    /// exactly a prefix of a longer one — how the two-way pass halves its
    /// work. Reads are copied into the arena in scan order (reversed for
    /// the backward scan) and padded with [`EXHAUSTED`], so no step needs a
    /// length check. A step loads every read's next 8 bytes as one word
    /// and compares it with the lead's: the lanes where every active read
    /// agrees form a run of unanimous columns, emitted at once. A
    /// zero-length run is a disagreement column, served from the same words.
    ///
    /// One read is its own consensus: every column is unanimous until it
    /// runs out, so the scan is the read's first `target_len` bases in
    /// scan order, padded with `A` as the kernel pads, without the arena.
    fn scan(&self, reads: &[DnaString], target_len: usize, forward: bool) -> DnaString {
        if let [read] = reads {
            let bases = read.as_slice();
            let take = target_len.min(bases.len());
            let mut out = DnaString::with_capacity(target_len);
            if forward {
                out.extend(bases[..take].iter().copied());
            } else {
                out.extend(bases[bases.len() - take..].iter().rev().copied());
            }
            out.extend((take..target_len).map(|_| Base::A));
            return out;
        }
        ARENA.with(|arena| self.scan_in(&mut arena.borrow_mut(), reads, target_len, forward))
    }

    fn scan_in(&self, a: &mut Arena, reads: &[DnaString], len: usize, fwd: bool) -> DnaString {
        let w = self.lookahead;
        // A disagreement column looks up to `w + 1` bytes past a cursor,
        // `stride` words; as many words of padding keep every load inside
        // the read's own bytes. One leading pad byte keeps every cursor
        // above 0, so a read can step back before the pending advance.
        let stride = (w + 2).div_ceil(8);
        a.bytes.resize(1, EXHAUSTED);
        a.cursors.clear();
        for read in reads {
            let start = a.bytes.len();
            a.bytes.extend(read.iter().map(|&b| b as u8));
            let end = a.bytes.len();
            if !fwd {
                a.bytes[start..end].reverse();
            }
            a.bytes.resize(end + 8 * stride, EXHAUSTED);
            a.cursors.push(start..end);
        }
        a.heads.resize(reads.len(), 0);
        a.ahead.resize(reads.len() * (stride - 1), 0);
        a.window.resize(stride, 0);
        a.outliers.resize(reads.len().div_ceil(64), 0);
        a.unclean.resize(reads.len().div_ceil(64), 0);
        let (bytes, cursors, heads) = (&a.bytes[..], &mut a.cursors[..], &mut a.heads[..]);
        let (outliers, unclean) = (&mut a.outliers[..], &mut a.unclean[..]);
        let (ahead, window) = (&mut a.ahead[..], &mut a.window[..]);

        let mut out = DnaString::with_capacity(len);
        // Columns every read still has to advance past, capped at its end:
        // the last run, or the one disagreement column.
        let mut step = 0;
        while out.len() < len {
            // 1. The lead is the first read not yet exhausted. With none
            // left, pad deterministically.
            let Some(lead) = cursors
                .iter()
                .map(|c| load(bytes, (c.start + step).min(c.end)))
                .find(|&word| word as u8 != EXHAUSTED)
            else {
                out.extend((out.len()..len).map(|_| Base::A));
                break;
            };
            // 2. One pass advances every read, caches its word, flags where
            // it differs from the lead, marks the outliers and counts the
            // unclean lanes. The run of unanimous columns ends at the first
            // lane where an active read differs or the lead runs out.
            let mut breaks = exhausted_lanes(lead);
            let blocks = cursors.chunks_mut(64).zip(heads.chunks_mut(64));
            for (block, (chunk, slots)) in blocks.enumerate() {
                let (mut differ, mut counts) = (0u64, 0u64);
                for (j, (c, slot)) in (0..).zip(chunk.iter_mut().zip(slots)) {
                    c.start = (c.start + step).min(c.end);
                    let word = load(bytes, c.start);
                    *slot = word;
                    let dead = exhausted_lanes(word);
                    let diff = nonzero_lanes(word ^ lead) & !dead;
                    breaks |= diff;
                    differ |= (diff & 0x80).rotate_left(j);
                    counts += (diff | dead) >> 7;
                }
                outliers[block] = differ.rotate_right(7);
                unclean[block] = counts;
            }
            let run = ((breaks.trailing_zeros() / 8) as usize).min(len - out.len());
            if run > 0 {
                out.extend((0..run).map(|j| Base::from_bits((lead >> (8 * j)) as u8)));
                step = run;
                continue;
            }

            // 3. A disagreement column. The plurality vote is the lead's
            // byte whenever the reads equal to it outnumber the other
            // active ones; otherwise count, and mark the outliers again.
            let differing: usize = outliers.iter().map(|m| m.count_ones() as usize).sum();
            let agreeing = reads.len() - lane_total(unclean, 0);
            let mut consensus = lead as u8;
            if agreeing <= differing {
                consensus = plurality(reads.len(), |k| heads[k]);
                for (bits, slots) in outliers.iter_mut().zip(heads.chunks(64)) {
                    *bits = (0..).zip(slots).fold(0, |bits, (j, &word)| {
                        let byte = word as u8;
                        bits | u64::from(byte != consensus && byte != EXHAUSTED) << j
                    });
                }
            }
            if stride > 1 {
                for (c, slots) in cursors.iter().zip(ahead.chunks_exact_mut(stride - 1)) {
                    for (i, slot) in (1..).zip(slots) {
                        *slot = load(bytes, c.start + 8 * i);
                    }
                }
            }
            let (heads, ahead) = (&*heads, &*ahead);
            let word = |k: usize, i: usize| match i {
                0 => heads[k],
                _ => ahead[k * (stride - 1) + i - 1],
            };

            // 4. Estimate the upcoming window from the reads equal to the
            // vote. If it is the lead's byte, the unclean counts less the
            // outliers' and exhausted reads' bound the others at each lane;
            // where the lead's byte outnumbers them, it wins. Else tally.
            let lead_votes = consensus == lead as u8;
            if lead_votes {
                for k in set_bits(outliers) {
                    unclean[k / 64] -=
                        (nonzero_lanes(heads[k] ^ lead) | exhausted_lanes(heads[k])) >> 7;
                }
                for counts in unclean.iter_mut() {
                    *counts -= (*counts & 0xFF) * LOW;
                }
            }
            for (i, slot) in window.iter_mut().enumerate() {
                *slot = (0..8).fold(0, |bytes, lane| {
                    let (d, at) = (8 * i + lane, 8 * i + lane + 1);
                    let estimate = if d >= w {
                        NO_VOTE
                    } else if lead_votes && at < 8 && agreeing > 2 * lane_total(unclean, at) {
                        (lead >> (8 * at)) as u8
                    } else {
                        plurality(reads.len(), |k| match heads[k] as u8 == consensus {
                            true => word(k, at / 8) >> (8 * (at % 8)),
                            false => u64::from(EXHAUSTED),
                        })
                    };
                    bytes | u64::from(estimate) << (8 * lane)
                });
            }

            // 5. Every read advances one column with the next step. Repair
            // each outlier against that: a hypothesis scores the window
            // bytes the read matches once its repair shifts it by `offset`.
            for k in set_bits(outliers) {
                let score = |offset: usize| -> usize {
                    (0..stride)
                        .map(|i| {
                            let next = if i + 1 < stride { word(k, i + 1) } else { 0 };
                            let pair = u128::from(next) << 64 | u128::from(word(k, i));
                            matches((pair >> (8 * offset)) as u64, window[i])
                        })
                        .sum()
                };
                let (current, next) = (heads[k] as u8, (heads[k] >> 8) as u8);
                // substitution: wrong char here, rest aligned → skip 1
                let sub = score(1);
                // deletion: the true char vanished, so the *current* char must
                // already be the upcoming one (gate); the rest aligns at 0
                let del = score(0) * usize::from(current == window[0] as u8);
                // insertion: spurious char here, so the *next* char must be
                // the current consensus char (gate); the rest aligns at 2
                let ins = (score(2) + 1) * usize::from(next == consensus);
                // Ties favor the simplest explanation: substitution (the
                // step itself), then deletion (step back), then insertion
                // (skip one more). The gates keep pure substitution noise
                // from misaligning reads as indels (paper Fig. 5).
                let (back, on) = (sub < del && del >= ins, sub < ins && del < ins);
                cursors[k].start = cursors[k].start + usize::from(on) - usize::from(back);
            }
            out.push(Base::from_bits(consensus));
            step = 1;
        }
        out
    }
}

impl TraceReconstructor for BmaOneWay {
    fn reconstruct(&self, reads: &[DnaString], target_len: usize) -> DnaString {
        self.scan(reads, target_len, true)
    }

    fn name(&self) -> &'static str {
        "bma-one-way"
    }
}

/// The two-sided reconstruction of paper §3.1/Fig. 2f: run the one-way
/// procedure from the left on the reads and from the right on the reversed
/// reads, then keep the left half of the forward estimate and the right
/// half of the backward estimate — "the best of both worlds". Error then
/// peaks in the middle (Fig. 4), which is the skew shape all the storage
/// experiments build on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BmaTwoWay {
    inner: BmaOneWay,
}

impl BmaTwoWay {
    /// Creates the two-sided reconstructor with the given lookahead.
    pub fn new(lookahead: usize) -> BmaTwoWay {
        BmaTwoWay {
            inner: BmaOneWay::new(lookahead),
        }
    }

    /// The underlying one-way procedure.
    pub fn one_way(&self) -> &BmaOneWay {
        &self.inner
    }
}

impl TraceReconstructor for BmaTwoWay {
    fn reconstruct(&self, reads: &[DnaString], target_len: usize) -> DnaString {
        // Each direction contributes only its own half, and a scan's prefix
        // is independent of how far it continues, so each scan stops at its
        // half. The backward estimate comes in scan (reversed) order.
        let split = target_len.div_ceil(2);
        let mut out = self.inner.scan(reads, split, true);
        let backward = self.inner.scan(reads, target_len - split, false);
        out.extend(backward.into_bases().into_iter().rev());
        out
    }

    fn name(&self) -> &'static str {
        "bma-two-way"
    }
}

#[cfg(test)]
mod reference {
    //! The per-column scan the word-at-a-time kernel replaced, kept as its
    //! equivalence oracle: at every output position, a vote, a window
    //! estimate and a repair pass over the reads, with explicit bounds.

    use dna_strand::{Base, DnaString};

    /// Plurality with ties toward the smallest base; `None` when empty.
    fn plurality(tally: [usize; 4]) -> Option<Base> {
        let mut best: Option<Base> = None;
        let mut best_count = 0usize;
        for b in Base::ALL {
            if tally[b as usize] > best_count {
                best = Some(b);
                best_count = tally[b as usize];
            }
        }
        best
    }

    /// The one-way scan, left-to-right over `reads`.
    pub(super) fn one_way(reads: &[DnaString], target_len: usize, w: usize) -> DnaString {
        let mut cursors = vec![0usize; reads.len()];
        let mut out = DnaString::with_capacity(target_len);
        while out.len() < target_len {
            // 1. Current-character vote among active reads; with none
            // active the vote is empty and pads with A.
            let mut counts = [0usize; 4];
            for (r, &c) in reads.iter().zip(&cursors) {
                if c < r.len() {
                    counts[r[c] as usize] += 1;
                }
            }
            let consensus = plurality(counts).unwrap_or(Base::A);

            // 2. Estimate the upcoming window from reads that agree now.
            let window: Vec<Option<Base>> = (0..w)
                .map(|d| {
                    let mut tally = [0usize; 4];
                    for (r, &c) in reads.iter().zip(&cursors) {
                        if c + d + 1 < r.len() && r[c] == consensus {
                            tally[r[c + d + 1] as usize] += 1;
                        }
                    }
                    plurality(tally)
                })
                .collect();

            // 3. Advance agreeing reads; diagnose and repair outliers.
            for (r, cursor) in reads.iter().zip(cursors.iter_mut()) {
                if *cursor >= r.len() {
                    continue;
                }
                if r[*cursor] == consensus {
                    *cursor += 1;
                    continue;
                }
                let score = |offset: usize| -> usize {
                    let mut s = 0usize;
                    for (d, expected) in window.iter().enumerate() {
                        let pos = *cursor + offset + d;
                        if pos < r.len() && Some(r[pos]) == *expected {
                            s += 1;
                        }
                    }
                    s
                };
                let sub_score = score(1);
                let del_gate = matches!(window.first(), Some(&Some(m)) if r[*cursor] == m);
                let del_score = if del_gate { score(0) } else { 0 };
                let ins_gate = *cursor + 1 < r.len() && r[*cursor + 1] == consensus;
                let ins_score = if ins_gate { score(2) + 1 } else { 0 };
                if sub_score >= del_score && sub_score >= ins_score {
                    *cursor += 1;
                } else if del_score >= ins_score {
                    // stay
                } else {
                    *cursor = (*cursor + 2).min(r.len());
                }
            }
            out.push(consensus);
        }
        out
    }

    /// The two-way procedure: full scans from both ends, left half of the
    /// forward estimate, right half of the backward one.
    pub(super) fn two_way(reads: &[DnaString], target_len: usize, w: usize) -> DnaString {
        let split = target_len.div_ceil(2);
        let forward = one_way(reads, target_len, w);
        let reversed: Vec<DnaString> = reads.iter().map(DnaString::reversed).collect();
        let backward = one_way(&reversed, target_len, w);
        (0..target_len)
            .map(|i| {
                if i < split {
                    forward[i]
                } else {
                    backward[target_len - 1 - i]
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_channel::{ChannelModel, ErrorModel};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A read set for the equivalence properties, drawn from `seed`: a
    /// strand of 0..300 bases through a substitution-only or an
    /// indel-heavy channel at 0–35%, some reads emptied or replaced by
    /// reads 3× the strand, and a target equal to, shorter or longer than
    /// the strand.
    fn case(seed: u64, n: usize) -> (Vec<DnaString>, usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let len = rng.gen_range(0..300);
        let p = rng.gen_range(0.0..0.35);
        let model = if rng.gen_bool(0.5) {
            ErrorModel::substitutions_only(p)
        } else {
            ErrorModel::new(p / 10.0, 0.45 * p, 0.45 * p).unwrap()
        };
        let original = DnaString::random(len, &mut rng);
        let mut reads = ChannelModel::uniform(model).transmit_many(&original, n, &mut rng);
        for read in &mut reads {
            match rng.gen_range(0..16) {
                0 => *read = DnaString::new(),
                1 => *read = DnaString::random(3 * len, &mut rng),
                _ => {}
            }
        }
        let target = match rng.gen_range(0..3) {
            0 => len,
            1 => rng.gen_range(0..=len),
            _ => len + rng.gen_range(1..100usize),
        };
        (reads, target)
    }

    /// Read counts at the edges of the kernel's 64-read bitmask words.
    const READ_COUNTS: [usize; 9] = [0, 1, 2, 63, 64, 65, 255, 256, 257];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn one_way_kernel_matches_the_reference(
            seed in any::<u64>(),
            n in 0usize..READ_COUNTS.len(),
            lookahead in 1usize..=8,
        ) {
            let (reads, target) = case(seed, READ_COUNTS[n]);
            prop_assert_eq!(
                BmaOneWay::new(lookahead).reconstruct(&reads, target),
                reference::one_way(&reads, target, lookahead)
            );
        }

        #[test]
        fn two_way_kernel_matches_the_reference(
            seed in any::<u64>(),
            n in 0usize..READ_COUNTS.len(),
            lookahead in 1usize..=8,
        ) {
            let (reads, target) = case(seed, READ_COUNTS[n]);
            prop_assert_eq!(
                BmaTwoWay::new(lookahead).reconstruct(&reads, target),
                reference::two_way(&reads, target, lookahead)
            );
        }
    }

    #[test]
    fn kernel_matches_the_reference_at_every_read_count_and_lookahead() {
        // Every pairing once, plus windows spanning three words.
        for (i, &n) in READ_COUNTS.iter().enumerate() {
            for lookahead in (1..=8).chain([15, 22]) {
                let (reads, target) = case(1000 * i as u64 + lookahead as u64, n);
                assert_eq!(
                    BmaTwoWay::new(lookahead).reconstruct(&reads, target),
                    reference::two_way(&reads, target, lookahead),
                    "n={n} lookahead={lookahead}"
                );
            }
        }
    }

    #[test]
    fn one_read_scans_match_the_reference() {
        // The one-read copy against the reference scan: an empty read,
        // and targets shorter than, equal to and longer than the read.
        let mut rng = StdRng::seed_from_u64(28);
        for len in [0usize, 1, 7, 8, 9, 63, 124] {
            let reads = [DnaString::random(len, &mut rng)];
            for target in [0, len / 2, len.saturating_sub(1), len, len + 1, len + 9] {
                for lookahead in [1, 2, 9] {
                    assert_eq!(
                        BmaOneWay::new(lookahead).reconstruct(&reads, target),
                        reference::one_way(&reads, target, lookahead),
                        "len={len} target={target} lookahead={lookahead}"
                    );
                    assert_eq!(
                        BmaTwoWay::new(lookahead).reconstruct(&reads, target),
                        reference::two_way(&reads, target, lookahead),
                        "len={len} target={target} lookahead={lookahead}"
                    );
                }
            }
        }
    }

    #[test]
    fn substitution_only_noise_is_fixed_by_majority() {
        let mut rng = StdRng::seed_from_u64(1);
        let original = DnaString::random(150, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::substitutions_only(0.10));
        let reads = ch.transmit_many(&original, 7, &mut rng);
        for algo in [BmaOneWay::default().name(), BmaTwoWay::default().name()] {
            let got = match algo {
                "bma-one-way" => BmaOneWay::default().reconstruct(&reads, original.len()),
                _ => BmaTwoWay::default().reconstruct(&reads, original.len()),
            };
            assert_eq!(got, original, "{algo} failed on substitution-only noise");
        }
    }

    #[test]
    fn clean_reads_reconstruct_exactly() {
        let mut rng = StdRng::seed_from_u64(2);
        let original = DnaString::random(80, &mut rng);
        let reads = vec![original.clone(); 3];
        assert_eq!(BmaOneWay::default().reconstruct(&reads, 80), original);
        assert_eq!(BmaTwoWay::default().reconstruct(&reads, 80), original);
    }

    #[test]
    fn paper_worked_example_recovers_original() {
        // Figure 2b of the paper: five noisy copies of ACGTACGTACGT.
        let original: DnaString = "ACGTACGTACGT".parse().unwrap();
        let reads: Vec<DnaString> = [
            "TCGTACGTACGT",   // substitution at position 0
            "AGTACGTACG",     // deletion of C (and a trailing deletion)
            "ACGTGACGTACGT",  // insertion of G
            "ACGTATGTACGT",   // substitution
            "ACAGTACAGTACGT", // two insertions of A
        ]
        .iter()
        .map(|s| s.parse().unwrap())
        .collect();
        let got = BmaTwoWay::default().reconstruct(&reads, original.len());
        assert_eq!(got, original);
    }

    #[test]
    fn output_always_has_target_length() {
        let mut rng = StdRng::seed_from_u64(3);
        let original = DnaString::random(60, &mut rng);
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.3));
        for n in [1usize, 2, 5] {
            let reads = ch.transmit_many(&original, n, &mut rng);
            for len in [1usize, 59, 60, 61, 80] {
                assert_eq!(BmaOneWay::default().reconstruct(&reads, len).len(), len);
                assert_eq!(BmaTwoWay::default().reconstruct(&reads, len).len(), len);
            }
        }
    }

    #[test]
    fn empty_read_set_pads_deterministically() {
        let got = BmaTwoWay::default().reconstruct(&[], 10);
        assert_eq!(got.len(), 10);
        assert!(got.iter().all(|&b| b == Base::A));
    }

    #[test]
    fn one_way_error_grows_with_position() {
        // The defining property of the skew (Fig. 3): the far end of the
        // strand is reconstructed worse than the near end.
        let mut rng = StdRng::seed_from_u64(4);
        let l = 200;
        let trials = 150;
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.05));
        let algo = BmaOneWay::default();
        let mut first_half_err = 0usize;
        let mut second_half_err = 0usize;
        for _ in 0..trials {
            let original = DnaString::random(l, &mut rng);
            let reads = ch.transmit_many(&original, 5, &mut rng);
            let got = algo.reconstruct(&reads, l);
            for i in 0..l {
                if got[i] != original[i] {
                    if i < l / 2 {
                        first_half_err += 1;
                    } else {
                        second_half_err += 1;
                    }
                }
            }
        }
        assert!(
            second_half_err > first_half_err * 2,
            "first half {first_half_err}, second half {second_half_err}"
        );
    }

    #[test]
    fn two_way_peaks_in_the_middle() {
        // Fig. 4: with the two-sided procedure, the middle third is worse
        // than both outer thirds.
        let mut rng = StdRng::seed_from_u64(5);
        let l = 150;
        let trials = 200;
        let ch = ChannelModel::uniform(ErrorModel::uniform(0.06));
        let algo = BmaTwoWay::default();
        let mut errs = [0usize; 3];
        for _ in 0..trials {
            let original = DnaString::random(l, &mut rng);
            let reads = ch.transmit_many(&original, 5, &mut rng);
            let got = algo.reconstruct(&reads, l);
            for i in 0..l {
                if got[i] != original[i] {
                    errs[i * 3 / l] += 1;
                }
            }
        }
        assert!(errs[1] > errs[0], "middle {} vs left {}", errs[1], errs[0]);
        assert!(errs[1] > errs[2], "middle {} vs right {}", errs[1], errs[2]);
    }
}
