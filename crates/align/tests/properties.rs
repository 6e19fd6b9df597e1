//! Property tests: edit distance is a metric; the bounded bit-parallel
//! kernel, generic and compiled (`BasePattern`), agrees with the
//! reference DP across word boundaries and on its one-word path
//! (patterns of at most 64 symbols); alignment distance equals edit
//! distance; orientation recovery is an involution; clusterers are
//! deterministic and order-stable.

use dna_align::{
    align, edit_distance, edit_distance_bounded, edit_distance_bounded_with, AnchorOrienter,
    AnchoredClusterer, BasePattern, GreedyClusterer, ReadClusterer,
};
use dna_strand::{Base, DnaString};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn dna_seq() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..4, 0..40)
}

/// Lengths at and around the 64-bit word edges.
const BOUNDARIES: [usize; 6] = [63, 64, 65, 127, 128, 129];

/// `len` random symbols below `alphabet`.
fn draw(rng: &mut StdRng, len: usize, alphabet: u8) -> Vec<u8> {
    (0..len).map(|_| rng.gen_range(0..alphabet)).collect()
}

/// A copy of `a` with 0–20% substitutions, insertions and deletions.
fn mutated(a: &[u8], rng: &mut StdRng, alphabet: u8) -> Vec<u8> {
    let rate = rng.gen_range(0.0..0.2);
    let mut b = Vec::new();
    for &s in a {
        if !rng.gen_bool(rate) {
            b.push(s);
            continue;
        }
        match rng.gen_range(0..3) {
            0 => b.push(rng.gen_range(0..alphabet)),
            1 => b.extend([s, rng.gen_range(0..alphabet)]),
            _ => {}
        }
    }
    b
}

/// A pair for the bounded kernel over `alphabet` symbols. `a` has 0..300
/// symbols (1–5 words), half the time right at a word boundary; `b` is
/// either an independent draw or a copy of `a` with 0–20% substitutions,
/// insertions and deletions.
fn kernel_pair(seed: u64, alphabet: u8) -> (Vec<u8>, Vec<u8>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let len = |rng: &mut StdRng| {
        if rng.gen_bool(0.5) {
            BOUNDARIES[rng.gen_range(0..BOUNDARIES.len())]
        } else {
            rng.gen_range(0..300)
        }
    };
    let n = len(&mut rng);
    let a = draw(&mut rng, n, alphabet);
    let b = if rng.gen_bool(0.5) {
        let n = len(&mut rng);
        draw(&mut rng, n, alphabet)
    } else {
        mutated(&a, &mut rng, alphabet)
    };
    (a, b)
}

fn bases(v: &[u8]) -> Vec<Base> {
    v.iter().map(|&b| Base::from_bits(b)).collect()
}

/// Texts over `alphabet` symbols for one pattern `p`: `p` itself, a
/// mutated prefix and a mutated extension of `p` (so texts both shorter
/// and longer than the pattern occur), and an independent draw.
fn pattern_texts(p: &[u8], rng: &mut StdRng, alphabet: u8) -> [Vec<u8>; 4] {
    let cut = rng.gen_range(0..=p.len());
    let shorter = mutated(&p[..cut], rng, alphabet);
    let extra = rng.gen_range(1..30);
    let mut longer = p.to_vec();
    longer.extend(draw(rng, extra, alphabet));
    let longer = mutated(&longer, rng, alphabet);
    let n = rng.gen_range(0..p.len() + 30);
    [p.to_vec(), shorter, longer, draw(rng, n, alphabet)]
}

/// A pattern length on the kernel's one-word path: mostly 15–33 (the
/// primers, orientation anchors and validation windows recovery
/// compares), else the word edge 63/64/65 (65 takes the two-word path),
/// else anything in 1..=64.
fn one_word_len(rng: &mut StdRng) -> usize {
    match rng.gen_range(0..10) {
        0..=5 => rng.gen_range(15..=33),
        6 | 7 => [63, 64, 65][rng.gen_range(0..3usize)],
        _ => rng.gen_range(1..=64),
    }
}

/// Checks the kernel against the reference DP in both argument orders at
/// `bound`, right at and just below the true distance, and with no bound,
/// through a buffer holding stale contents.
fn check_kernel<T: Eq + std::fmt::Debug>(
    a: &[T],
    b: &[T],
    bound: usize,
) -> Result<(), TestCaseError> {
    let full = edit_distance(a, b);
    let mut row = vec![usize::MAX; 7];
    for bound in [bound, full, full.saturating_sub(1), usize::MAX] {
        let want = (full <= bound).then_some(full);
        prop_assert_eq!(
            edit_distance_bounded_with(a, b, bound, &mut row),
            want,
            "a={:?} b={:?} bound={}",
            a,
            b,
            bound
        );
        prop_assert_eq!(
            edit_distance_bounded_with(b, a, bound, &mut row),
            want,
            "a={:?} b={:?} bound={}",
            b,
            a,
            bound
        );
    }
    Ok(())
}

fn dna_string(len: std::ops::Range<usize>) -> impl Strategy<Value = DnaString> {
    proptest::collection::vec(0u8..4, len)
        .prop_map(|v| DnaString::from_bases(v.into_iter().map(Base::from_bits).collect()))
}

proptest! {
    #[test]
    fn identity_of_indiscernibles(a in dna_seq()) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
    }

    #[test]
    fn symmetry(a in dna_seq(), b in dna_seq()) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn triangle_inequality(a in dna_seq(), b in dna_seq(), c in dna_seq()) {
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "d(a,c)={ac} > d(a,b)+d(b,c)={}", ab + bc);
    }

    #[test]
    fn bounded_by_length_difference_and_max_len(a in dna_seq(), b in dna_seq()) {
        let d = edit_distance(&a, &b);
        let diff = a.len().abs_diff(b.len());
        prop_assert!(d >= diff);
        prop_assert!(d <= a.len().max(b.len()));
    }

    #[test]
    fn bounded_kernel_matches_reference_on_bases(seed in any::<u64>(), bound in 0usize..=80) {
        let (a, b) = kernel_pair(seed, 4);
        check_kernel(&bases(&a), &bases(&b), bound)?;
    }

    /// One compiled pattern, reused across texts shorter and longer than
    /// it through a state left over from the previous comparison (and
    /// stale garbage at first), answers exactly as the generic kernel,
    /// at bounds 0, exact − 1, exact, exact + 1 and `usize::MAX`.
    #[test]
    fn compiled_pattern_matches_the_generic_kernel(seed in any::<u64>(), bound in 0usize..=80) {
        let (p, _) = kernel_pair(seed, 4);
        let pattern = BasePattern::new(&bases(&p));
        prop_assert_eq!(pattern.len(), p.len());
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
        let mut state = vec![usize::MAX; 9];
        for t in pattern_texts(&p, &mut rng, 4) {
            let exact = edit_distance(&p, &t);
            for bound in [0, bound, exact.saturating_sub(1), exact, exact + 1, usize::MAX] {
                let want = (exact <= bound).then_some(exact);
                prop_assert_eq!(
                    pattern.distance_bounded(&bases(&t), bound, &mut state),
                    want,
                    "p={:?} t={:?} bound={}",
                    p,
                    t,
                    bound
                );
                prop_assert_eq!(edit_distance_bounded(&bases(&p), &bases(&t), bound), want);
            }
        }
    }

    #[test]
    fn bounded_kernel_matches_reference_on_wide_alphabets(
        seed in any::<u64>(),
        alphabet in 1u8..=20,
        bound in 0usize..=80,
    ) {
        let (a, b) = kernel_pair(seed, alphabet);
        check_kernel(&a, &b, bound)?;
    }

    #[test]
    fn alignment_distance_equals_edit_distance(a in dna_seq(), b in dna_seq()) {
        prop_assert_eq!(align(&a, &b).distance, edit_distance(&a, &b));
    }

    #[test]
    fn single_substitution_costs_one(a in proptest::collection::vec(0u8..4, 1..40), idx in any::<prop::sample::Index>()) {
        let i = idx.index(a.len());
        let mut b = a.clone();
        b[i] = (b[i] + 1) % 4;
        prop_assert_eq!(edit_distance(&a, &b), 1);
    }

    /// Orientation recovery is an involution: a read and its reverse
    /// complement always orient to the same strand, whether or not the
    /// read carries the anchor.
    #[test]
    fn orientation_is_an_involution(
        read in dna_string(0..50),
        anchor in dna_string(6..18),
    ) {
        let orienter = AnchorOrienter::new(anchor);
        let (_, a) = orienter.orient(&read);
        let (_, b) = orienter.orient(&read.reverse_complement());
        prop_assert_eq!(a, b);
    }

    /// An anchored read is always recognized as forward and mapped back
    /// when it arrives flipped.
    #[test]
    fn anchored_reads_orient_forward(
        anchor in dna_string(10..18),
        payload in dna_string(20..50),
    ) {
        let strand = DnaString::concat([&anchor, &payload]);
        let orienter = AnchorOrienter::new(anchor);
        let (o, c) = orienter.orient(&strand);
        prop_assert!(!o.is_flipped());
        prop_assert_eq!(&c, &strand);
        let (o, c) = orienter.orient(&strand.reverse_complement());
        prop_assert!(o.is_flipped());
        prop_assert_eq!(&c, &strand);
    }

    /// Clusterers are deterministic, produce a partition of the input,
    /// and — at threshold 0, where cluster membership is pure content
    /// equality — group reads identically no matter the input order.
    #[test]
    fn clusterers_partition_deterministically_and_order_stably(
        distinct in proptest::collection::vec(
            proptest::collection::vec(0u8..4, 12..20), 1..5),
        copies in 1usize..4,
        order in Just((0..16usize).collect::<Vec<_>>()).prop_shuffle(),
    ) {
        let uniques: Vec<DnaString> = distinct
            .iter()
            .map(|v| DnaString::from_bases(v.iter().map(|&b| Base::from_bits(b)).collect()))
            .collect();
        let mut reads: Vec<DnaString> = Vec::new();
        for u in &uniques {
            for _ in 0..copies {
                reads.push(u.clone());
            }
        }
        let shuffled: Vec<DnaString> = order
            .iter()
            .filter(|&&i| i < reads.len())
            .map(|&i| reads[i].clone())
            .chain(reads.iter().skip(16).cloned())
            .collect();
        for clusterer in [
            &GreedyClusterer::new(0) as &dyn ReadClusterer,
            &AnchoredClusterer::new(0),
        ] {
            let a = clusterer.cluster(&reads);
            prop_assert_eq!(&a, &clusterer.cluster(&reads), "{} not deterministic", clusterer.name());
            // Partition: every read index exactly once.
            let mut seen: Vec<usize> = a.clusters.iter().flatten().copied().collect();
            seen.sort_unstable();
            prop_assert_eq!(seen, (0..reads.len()).collect::<Vec<_>>());
            // Order stability at threshold 0: the content→cluster map is
            // the same under any input order (cluster ids may differ).
            let b = clusterer.cluster(&shuffled);
            let key = |result: &dna_align::ClusterResult, input: &[DnaString]| {
                let mut groups: Vec<Vec<String>> = result
                    .clusters
                    .iter()
                    .map(|members| {
                        let mut g: Vec<String> =
                            members.iter().map(|&r| input[r].to_string()).collect();
                        g.sort();
                        g
                    })
                    .collect();
                groups.sort();
                groups
            };
            prop_assert_eq!(key(&a, &reads), key(&b, &shuffled), "{} order-sensitive", clusterer.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `prefix_distances` scores every prefix of the text in one scan:
    /// `out[j]` is the reference distance to `text[..j]`, for patterns
    /// at the word edges and texts from empty to two words past them.
    #[test]
    fn prefix_distances_match_the_reference_on_every_prefix(
        seed in any::<u64>(),
        edge in any::<bool>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = if edge {
            BOUNDARIES[rng.gen_range(0..BOUNDARIES.len())]
        } else {
            rng.gen_range(0..40)
        };
        let p = draw(&mut rng, n, 4);
        let pattern = BasePattern::new(&bases(&p));
        let mut state = vec![usize::MAX; 5];
        let mut out = vec![7; 3];
        for t in pattern_texts(&p, &mut rng, 4) {
            pattern.prefix_distances(&bases(&t), &mut state, &mut out);
            let want: Vec<usize> = (0..=t.len()).map(|j| edit_distance(&p, &t[..j])).collect();
            prop_assert_eq!(&out, &want, "p={:?} t={:?}", p, t);
        }
    }
}

proptest! {
    /// The one-word path answers as the reference DP: the compiled
    /// pattern's bounded distance and every-prefix scan, and the generic
    /// kernel over alphabets of 1–20 classes in both argument orders, at
    /// bounds 0, exact − 1, exact, exact + 1 and `usize::MAX`.
    #[test]
    fn one_word_kernel_matches_the_reference(seed in any::<u64>(), alphabet in 1u8..=20) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = one_word_len(&mut rng);
        let p = draw(&mut rng, n, 4);
        let pattern = BasePattern::new(&bases(&p));
        let (mut state, mut out) = (vec![usize::MAX; 3], vec![9; 2]);
        for t in pattern_texts(&p, &mut rng, 4) {
            let exact = edit_distance(&p, &t);
            for bound in [0, exact.saturating_sub(1), exact, exact + 1, usize::MAX] {
                let want = (exact <= bound).then_some(exact);
                prop_assert_eq!(
                    pattern.distance_bounded(&bases(&t), bound, &mut state),
                    want,
                    "p={:?} t={:?} bound={}",
                    p,
                    t,
                    bound
                );
            }
            pattern.prefix_distances(&bases(&t), &mut state, &mut out);
            let want: Vec<usize> = (0..=t.len()).map(|j| edit_distance(&p, &t[..j])).collect();
            prop_assert_eq!(&out, &want, "p={:?} t={:?}", p, t);
        }
        let a = draw(&mut rng, n, alphabet);
        let mut row = vec![usize::MAX; 5];
        for b in pattern_texts(&a, &mut rng, alphabet) {
            let exact = edit_distance(&a, &b);
            for bound in [0, exact.saturating_sub(1), exact, exact + 1, usize::MAX] {
                let want = (exact <= bound).then_some(exact);
                prop_assert_eq!(
                    edit_distance_bounded_with(&a, &b, bound, &mut row),
                    want,
                    "a={:?} b={:?} bound={}",
                    a,
                    b,
                    bound
                );
                prop_assert_eq!(edit_distance_bounded_with(&b, &a, bound, &mut row), want);
            }
        }
    }
}

#[test]
fn prefix_distances_of_empty_patterns_and_texts() {
    let mut state = Vec::new();
    let mut out = Vec::new();
    let acgt = bases(&[0, 1, 2, 3]);
    BasePattern::new(&[]).prefix_distances(&acgt, &mut state, &mut out);
    assert_eq!(out, [0, 1, 2, 3, 4]);
    BasePattern::new(&acgt).prefix_distances(&[], &mut state, &mut out);
    assert_eq!(out, [4]);
    BasePattern::new(&[]).prefix_distances(&[], &mut state, &mut out);
    assert_eq!(out, [0]);
    assert!(BasePattern::new(&[]).is_empty());
    assert_eq!(
        BasePattern::new(&[]).distance_bounded(&acgt, 4, &mut state),
        Some(4)
    );
    assert_eq!(
        BasePattern::new(&[]).distance_bounded(&acgt, 3, &mut state),
        None
    );
    assert_eq!(
        BasePattern::new(&acgt).distance_bounded(&[], 4, &mut state),
        Some(4)
    );
}
