//! Property tests for the storage core: geometry partitions, mapper and
//! layout-engine bijectivity, zero-noise pipeline round-trips for
//! arbitrary payloads and layouts (planned protection included), and
//! planner determinism under the density budget.

use dna_channel::{CoverageModel, ErrorModel, SequencingBackend, SimulatedSequencer};
use dna_storage::{
    BaselineLayout, BaselineMapper, CodecParams, CodewordGeometry, DataMapper, DiagonalGeometry,
    GiniLayout, Layout, Pipeline, PriorityLayout, PriorityMapper, ProtectionPlan,
    ProtectionPlanner, RowGeometry, SkewProfile, UnitLayout,
};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

fn geometry_shape() -> impl Strategy<Value = (usize, usize, usize)> {
    // rows 1..12, data cols 1..20, parity 0..8 with rows ≤ something sane.
    (1usize..12, 1usize..20, 0usize..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn row_geometry_partitions_cells((rows, m, e) in geometry_shape()) {
        let geom = RowGeometry::new(rows, m, e);
        check_partition(&geom, rows, m, e)?;
    }

    #[test]
    fn diagonal_geometry_partitions_cells(
        (rows, m, e) in geometry_shape(),
        exclude_mask in any::<u16>(),
    ) {
        // Derive an excluded-row subset from the mask, keeping ≥ 1 included.
        let excluded: Vec<usize> = (0..rows)
            .filter(|r| exclude_mask & (1 << r) != 0)
            .collect();
        prop_assume!(excluded.len() < rows);
        let geom = DiagonalGeometry::new(rows, m, e, &excluded);
        check_partition(&geom, rows, m, e)?;
    }

    #[test]
    fn mappers_are_bijections((rows, m, _) in geometry_shape()) {
        for mapper in [&BaselineMapper as &dyn DataMapper, &PriorityMapper] {
            let cells: HashSet<(usize, usize)> =
                mapper.placement(rows, m).into_iter().collect();
            prop_assert_eq!(cells.len(), rows * m);
        }
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
    fn unit_layouts_place_bijectively((rows, m, _) in geometry_shape()) {
        let engines: Vec<Arc<dyn UnitLayout>> = vec![
            Arc::new(BaselineLayout),
            Arc::new(GiniLayout::new()),
            Arc::new(PriorityLayout),
        ];
        for engine in engines {
            let cells: HashSet<(usize, usize)> = (0..rows * m)
                .map(|p| engine.place(p, rows, m))
                .collect();
            prop_assert_eq!(cells.len(), rows * m, "{} not a bijection", engine.name());
            for &(r, c) in &cells {
                prop_assert!(r < rows && c < m);
            }
        }
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
        let plan = planner.plan(&params, &BaselineLayout).unwrap();
        prop_assert!(plan.total_parity() <= 24, "budget: {:?}", plan.parities());
        prop_assert!(plan.max_parity() <= 7, "field cap: {:?}", plan.parities());
        prop_assert_eq!(plan.codewords(), 6);
        // Same inputs, same plan — nothing in the planner is randomized.
        let again = planner.plan(&params, &BaselineLayout).unwrap();
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

fn check_partition(
    geom: &dyn CodewordGeometry,
    rows: usize,
    data_cols: usize,
    parity_cols: usize,
) -> Result<(), TestCaseError> {
    let cols = data_cols + parity_cols;
    let mut seen = HashSet::new();
    for k in 0..geom.codeword_count() {
        let pos = geom.codeword_positions(k);
        prop_assert_eq!(pos.len(), cols);
        let col_set: HashSet<usize> = pos.iter().map(|&(_, c)| c).collect();
        prop_assert_eq!(col_set.len(), cols, "codeword {} repeats a column", k);
        for (i, &(r, c)) in pos.iter().enumerate() {
            prop_assert!(r < rows && c < cols);
            prop_assert_eq!(i < data_cols, c < data_cols);
            prop_assert!(seen.insert((r, c)), "cell ({}, {}) claimed twice", r, c);
        }
    }
    prop_assert_eq!(seen.len(), rows * cols);
    Ok(())
}
