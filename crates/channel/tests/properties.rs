//! Property tests for the channel-model subsystem: rate clamping,
//! profile invariants, seed determinism, and — the backward-compatibility
//! contract — read streams pinned by hash, so no change to the channel or
//! the pool generator can silently move a seed's reads.

use dna_channel::{ChannelModel, Cluster, CoverageModel, ErrorModel, PositionProfile, ReadPool};
use dna_strand::DnaString;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Valid base-rate triples: each in [0, 1/3], so the total stays ≤ 1.
fn error_model() -> impl Strategy<Value = ErrorModel> {
    (0.0..0.33f64, 0.0..0.33f64, 0.0..0.33f64)
        .prop_map(|(s, i, d)| ErrorModel::new(s, i, d).expect("rates in range"))
}

fn profile() -> impl Strategy<Value = PositionProfile> {
    (
        0usize..3,
        0.0..8.0f64,
        0.0..8.0f64,
        proptest::collection::vec(0.0..8.0f64, 1..20),
    )
        .prop_map(|(pick, a, b, t)| match pick {
            0 => PositionProfile::Uniform,
            1 => PositionProfile::linear(a, b).expect("valid linear"),
            _ => PositionProfile::table(t).expect("valid table"),
        })
}

/// FNV-1a 64-bit over `bytes`, continuing from `h`.
fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Hashes a read's length and its bases, so a base moving between reads
/// changes the hash.
fn hash_read(h: &mut u64, read: &DnaString) {
    fnv(h, &(read.len() as u64).to_le_bytes());
    let bits: Vec<u8> = read.iter().map(|b| b.to_bits()).collect();
    fnv(h, &bits);
}

/// Hashes every cluster's source label, read count and reads, in order.
fn hash_pool(clusters: &[Cluster]) -> u64 {
    let mut h = FNV_OFFSET;
    for c in clusters {
        fnv(&mut h, &(c.source as u64).to_le_bytes());
        fnv(&mut h, &(c.reads.len() as u64).to_le_bytes());
        for read in &c.reads {
            hash_read(&mut h, read);
        }
    }
    h
}

/// The backward-compatibility contract: the reads a seed produces are
/// pinned by hash. The uniform hashes were captured through both the
/// retired flat-channel type and `ChannelModel::uniform` and agreed; the
/// skewed presets were captured through `ChannelModel`. A changed hash
/// means every seeded experiment moved.
#[test]
fn read_streams_match_their_pinned_hashes() {
    let mut rng = StdRng::seed_from_u64(0xD1A);
    let strands: Vec<DnaString> = (0..12).map(|_| DnaString::random(120, &mut rng)).collect();
    let fixed = CoverageModel::Fixed(8);
    let gamma = CoverageModel::gamma_with_mean(10.0).expect("valid mean");
    let cases: [(&str, ChannelModel, CoverageModel, u64, u64); 8] = [
        (
            "uniform fixed",
            ChannelModel::uniform(ErrorModel::uniform(0.06)),
            fixed,
            11,
            0x2975_6c80_278a_68a0,
        ),
        (
            "uniform gamma",
            ChannelModel::uniform(ErrorModel::uniform(0.06)),
            gamma,
            12,
            0x8000_2c18_b974_24da,
        ),
        (
            "nanopore_decay fixed",
            ChannelModel::nanopore_decay(0.08),
            fixed,
            13,
            0x3f2a_1d59_1e5b_7bc4,
        ),
        (
            "nanopore_decay gamma",
            ChannelModel::nanopore_decay(0.08),
            gamma,
            14,
            0x1e6e_f700_bb91_711b,
        ),
        (
            "pcr_skewed fixed",
            ChannelModel::pcr_skewed(0.06),
            fixed,
            15,
            0x104e_4dd0_7778_35ce,
        ),
        (
            "pcr_skewed gamma",
            ChannelModel::pcr_skewed(0.06),
            gamma,
            16,
            0xb0dd_b736_709d_4a3b,
        ),
        (
            "dropout fixed",
            ChannelModel::dropout_prone(0.06, 0.2),
            fixed,
            17,
            0x4eec_3af0_5934_3a2a,
        ),
        (
            "dropout gamma",
            ChannelModel::dropout_prone(0.06, 0.2),
            gamma,
            18,
            0xaab3_ab74_e4c7_a22c,
        ),
    ];
    for (name, model, coverage, seed, pinned) in cases {
        let pool = ReadPool::generate(&strands, &model, coverage, seed);
        assert_eq!(hash_pool(pool.clusters()), pinned, "{name} seed {seed}");
    }

    let reads = ChannelModel::uniform(ErrorModel::uniform(0.06)).transmit_many(
        &strands[0],
        16,
        &mut StdRng::seed_from_u64(21),
    );
    let mut h = FNV_OFFSET;
    for read in &reads {
        hash_read(&mut h, read);
    }
    assert_eq!(h, 0xadf1_f768_cca7_91d9, "transmit_many seed 21");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100))]

    /// Effective rates are clamped into [0, 1] with total ≤ 1 at every
    /// position, for any profile multiplier.
    #[test]
    fn effective_rates_are_clamped(
        model in error_model(),
        profile in profile(),
        len in 1usize..200,
    ) {
        let channel = ChannelModel::uniform(model).with_profile(profile).expect("valid");
        for pos in 0..len {
            let (s, i, d) = channel.rates_at(pos, len);
            for r in [s, i, d] {
                prop_assert!((0.0..=1.0).contains(&r), "rate {r} at pos {pos}");
            }
            prop_assert!(s + i + d <= 1.0 + 1e-12, "total {} at pos {pos}", s + i + d);
        }
    }

    /// Linear profiles are monotone between their endpoints, and every
    /// multiplier stays inside the endpoint interval.
    #[test]
    fn linear_profiles_are_monotone(
        start in 0.0..5.0f64,
        end in 0.0..5.0f64,
        len in 2usize..150,
    ) {
        let p = PositionProfile::linear(start, end).expect("valid");
        let (lo, hi) = (start.min(end), start.max(end));
        let mut prev = p.multiplier(0, len);
        prop_assert_eq!(prev, start);
        for pos in 1..len {
            let m = p.multiplier(pos, len);
            if end >= start {
                prop_assert!(m >= prev - 1e-12, "not non-decreasing at {pos}");
            } else {
                prop_assert!(m <= prev + 1e-12, "not non-increasing at {pos}");
            }
            prop_assert!((lo - 1e-12..=hi + 1e-12).contains(&m));
            prev = m;
        }
        prop_assert!((prev - end).abs() < 1e-9, "last multiplier {prev} vs end {end}");
    }

    /// Table profiles answer exactly their entries and extend the last one.
    #[test]
    fn table_profiles_answer_their_entries(
        table in proptest::collection::vec(0.0..8.0f64, 1..24),
    ) {
        let p = PositionProfile::table(table.clone()).expect("valid");
        let len = table.len() + 10;
        for (pos, &want) in table.iter().enumerate() {
            prop_assert_eq!(p.multiplier(pos, len), want);
        }
        for pos in table.len()..len {
            prop_assert_eq!(p.multiplier(pos, len), *table.last().expect("non-empty"));
        }
    }

    /// Pool generation under any channel model is deterministic in the
    /// seed — dropout, PCR bias, and bursts included.
    #[test]
    fn skewed_pools_are_deterministic_in_the_seed(
        seed in any::<u64>(),
        model in error_model(),
        dropout in 0.0..0.9f64,
        pcr_shape in 0.5..8.0f64,
        burst_rate in 0.0..1.0f64,
    ) {
        let channel = ChannelModel::uniform(model)
            .with_profile(PositionProfile::linear(0.5, 1.5).expect("valid"))
            .expect("valid")
            .with_dropout(dropout)
            .expect("valid")
            .with_pcr_bias(pcr_shape)
            .expect("valid")
            .with_burst(burst_rate, 4.0)
            .expect("valid");
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5A5A);
        let strands: Vec<DnaString> = (0..6).map(|_| DnaString::random(50, &mut rng)).collect();
        let cov = CoverageModel::Fixed(5);
        let a = ReadPool::generate(&strands, &channel, cov, seed);
        let b = ReadPool::generate(&strands, &channel, cov, seed);
        prop_assert_eq!(a.clusters(), b.clusters());
        // A different seed gives a different realization — except when
        // the channel is nearly noise-free (nothing random can differ) or
        // dropout killed every molecule in both runs (both pools are the
        // same all-lost degenerate).
        if model.total_rate() > 0.01 {
            let c = ReadPool::generate(&strands, &channel, cov, seed.wrapping_add(1));
            let all_lost = |p: &ReadPool| p.clusters().iter().all(|cl| cl.is_lost());
            if !(all_lost(&a) && all_lost(&c)) {
                prop_assert_ne!(a.clusters(), c.clusters());
            }
        }
    }

    /// Dropout loses roughly the configured fraction of molecules.
    #[test]
    fn dropout_rate_is_respected(drop in 0.1..0.9f64) {
        let channel = ChannelModel::uniform(ErrorModel::noiseless())
            .with_dropout(drop)
            .expect("valid");
        let mut rng = StdRng::seed_from_u64(3);
        let strands: Vec<DnaString> = (0..400).map(|_| DnaString::random(30, &mut rng)).collect();
        let pool = ReadPool::generate(&strands, &channel, CoverageModel::Fixed(2), 17);
        let lost = pool.clusters().iter().filter(|c| c.is_lost()).count();
        let frac = lost as f64 / strands.len() as f64;
        prop_assert!((frac - drop).abs() < 0.12, "dropout {drop}, observed {frac}");
    }
}
