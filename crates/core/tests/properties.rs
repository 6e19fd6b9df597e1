//! Property tests for the storage core: every layout's cell maps
//! (codeword partition and payload placement), zero-noise pipeline
//! round-trips for arbitrary payloads and layouts (planned protection
//! included), and planner determinism under the density budget.

use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};
use dna_storage::{CodecParams, Layout, Pipeline, ProtectionPlan, ProtectionPlanner, SkewProfile};
use proptest::prelude::*;
use std::collections::HashSet;

/// Every layout variant, with a random excluded-row subset for Gini
/// (kept unsorted when `reverse`, at least one row left interleaved).
fn any_layout(rows: usize, pick: usize, exclude_mask: u16, reverse: bool) -> Layout {
    match pick {
        0 => Layout::Baseline,
        1 => {
            let mut excluded_rows: Vec<usize> =
                (0..rows).filter(|r| exclude_mask & (1 << r) != 0).collect();
            if excluded_rows.len() == rows {
                excluded_rows.pop();
            }
            if reverse {
                excluded_rows.reverse();
            }
            Layout::Gini { excluded_rows }
        }
        _ => Layout::DnaMapper,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn every_layout_partitions_cells_and_places_bijectively(
        (rows, m, e) in (1usize..12, 1usize..20, 1usize..8),
        pick in 0usize..3,
        exclude_mask in any::<u16>(),
        reverse in any::<bool>(),
    ) {
        let layout = any_layout(rows, pick, exclude_mask, reverse);
        let params = CodecParams::new(dna_gf::Field::gf256(), rows, m, e, 8).unwrap();
        let pipeline = Pipeline::builder()
            .params(params)
            .layout(layout.clone())
            .build()
            .unwrap();

        // The codewords partition every cell: one per row, data cells
        // first, and no codeword touches a column twice.
        let cols = m + e;
        let codewords = pipeline.codeword_positions();
        prop_assert_eq!(codewords.len(), rows);
        let mut seen = HashSet::new();
        for (k, cells) in codewords.iter().enumerate() {
            prop_assert_eq!(cells.len(), cols);
            let col_set: HashSet<usize> = cells.iter().map(|&(_, c)| c).collect();
            prop_assert_eq!(col_set.len(), cols, "{:?} codeword {} repeats a column", layout, k);
            for (i, &(r, c)) in cells.iter().enumerate() {
                prop_assert!(r < rows && c < cols);
                prop_assert_eq!(i < m, c < m, "{:?} codeword {} data/parity split", layout, k);
                prop_assert!(seen.insert((r, c)), "{:?} cell ({}, {}) claimed twice", layout, r, c);
            }
        }
        prop_assert_eq!(seen.len(), rows * cols);

        // `place` is a bijection onto the data region.
        let placed: HashSet<(usize, usize)> = (0..rows * m)
            .map(|p| pipeline.layout().place(p, rows, m))
            .collect();
        prop_assert_eq!(placed.len(), rows * m, "{:?} placement is not a bijection", layout);
        prop_assert!(placed.iter().all(|&(r, c)| r < rows && c < m));
    }

    #[test]
    fn zero_noise_round_trip_any_payload(
        payload in proptest::collection::vec(any::<u8>(), 0..30),
        layout_pick in 0usize..4,
        coverage in 1usize..4,
    ) {
        let layout = match layout_pick {
            0 => Layout::Baseline,
            1 => Layout::Gini { excluded_rows: vec![] },
            2 => Layout::Gini { excluded_rows: vec![0, 5] },
            _ => Layout::DnaMapper,
        };
        let pipeline = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .layout(layout)
            .build()
            .unwrap();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(coverage))
            .sequence_unit(0, unit.strands(), 42);
        let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        prop_assert!(report.is_error_free());
        prop_assert_eq!(&decoded[..payload.len()], &payload[..]);
        prop_assert!(decoded[payload.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn planner_is_deterministic_and_respects_the_budget(
        raw_rates in proptest::collection::vec(0.0f64..0.25, 6),
        erasure_rate in 0.0f64..0.2,
        min_parity in 0usize..3,
    ) {
        // GF(16), 6 rows, 8 + 4 columns: budget 24, per-codeword cap 7.
        let params = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4).unwrap();
        let profile = SkewProfile::from_rates(raw_rates).unwrap();
        let planner = ProtectionPlanner::new(profile)
            .erasure_rate(erasure_rate)
            .unwrap()
            .min_parity(min_parity);
        let plan = planner.plan(&params, &Layout::Baseline).unwrap();
        prop_assert!(plan.total_parity() <= 24, "budget: {:?}", plan.parities());
        prop_assert!(plan.max_parity() <= 7, "field cap: {:?}", plan.parities());
        prop_assert_eq!(plan.codewords(), 6);
        // Same inputs, same plan — nothing in the planner is randomized.
        let again = planner.plan(&params, &Layout::Baseline).unwrap();
        prop_assert_eq!(plan, again);
    }

    #[test]
    fn planned_pipelines_round_trip_at_zero_noise(
        payload in proptest::collection::vec(any::<u8>(), 0..24),
        spends in proptest::collection::vec(0usize..8, 6),
        dnamapper in any::<bool>(),
        coverage in 1usize..4,
    ) {
        // Clamp the random spends to the density budget (24) and field
        // cap (7) so the plan is always valid.
        let mut budget = 24usize;
        let parities: Vec<usize> = spends
            .into_iter()
            .map(|e| {
                let e = e.min(7).min(budget);
                budget -= e;
                e
            })
            .collect();
        let plan = ProtectionPlan::from_parities(parities).unwrap();
        let params = CodecParams::new(dna_gf::Field::gf16(), 6, 8, 4, 4).unwrap();
        let pipeline = Pipeline::builder()
            .params(params)
            .layout(if dnamapper { Layout::DnaMapper } else { Layout::Baseline })
            .protection(plan)
            .build()
            .unwrap();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(coverage))
            .sequence_unit(0, unit.strands(), 7);
        let (decoded, report) = pipeline.decode_unit(pool.clusters()).unwrap();
        prop_assert!(report.is_error_free());
        prop_assert_eq!(&decoded[..payload.len()], &payload[..]);
        prop_assert!(decoded[payload.len()..].iter().all(|&b| b == 0));
    }

    #[test]
    fn substitution_noise_within_rs_capacity_round_trips(
        seed in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 30),
    ) {
        // Tiny geometry: E = 5 parity ⇒ 2 symbol errors per codeword are
        // always correctable. Low substitution noise at coverage 7 stays
        // far below that.
        let pipeline = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .layout(Layout::Gini { excluded_rows: vec![] })
            .build()
            .unwrap();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let pool =
            SimulatedSequencer::new(ErrorModel::substitutions_only(0.02), CoverageModel::Fixed(7))
                .sequence_unit(0, unit.strands(), seed);
        let (decoded, _) = pipeline.decode_unit(pool.clusters()).unwrap();
        prop_assert_eq!(&decoded[..], &payload[..]);
    }
}
