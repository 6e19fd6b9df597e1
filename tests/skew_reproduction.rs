//! Integration: the reliability-skew phenomena that motivate the paper,
//! measured through the public API end to end.

use dna_skew::consensus::profile::dna_skew_profile;
use dna_skew::prelude::*;
use dna_skew::storage::CodecParams;

#[test]
fn skew_appears_in_all_reconstruction_algorithms() {
    // Fig. 3/4/5 in one: one-way rises, two-way and iterative peak mid.
    let model = ErrorModel::uniform(0.08);
    let l = 124; // a laptop-scale strand length

    let one = dna_skew_profile(&BmaOneWay::default(), l, 5, model, 300, 42);
    let last_quarter: f64 = one.per_position[3 * l / 4..].iter().sum();
    let first_quarter: f64 = one.per_position[..l / 4].iter().sum();
    assert!(last_quarter > 2.0 * first_quarter);

    for (name, prof) in [
        (
            "two-way",
            dna_skew_profile(&BmaTwoWay::default(), l, 5, model, 300, 42),
        ),
        (
            "iterative",
            dna_skew_profile(&IterativeReconstructor::default(), l, 5, model, 300, 42),
        ),
    ] {
        let peak = prof.peak_position();
        assert!(
            (l / 4..3 * l / 4).contains(&peak),
            "{name}: peak at {peak} of {l}"
        );
        assert!(prof.middle_to_ends_ratio() > 1.5, "{name}");
    }
}

#[test]
fn per_codeword_errors_peak_in_middle_rows_for_baseline_only() {
    // Fig. 11 through the full pipeline: baseline concentrates corrected
    // errors in middle rows; Gini spreads them evenly; total error mass is
    // comparable (the curve flattens, the area stays).
    let params = CodecParams::laptop().unwrap();
    let payload: Vec<u8> = (0..6240).map(|i| (i % 256) as u8).collect();
    let mut series = Vec::new();
    for layout in [
        Layout::Baseline,
        Layout::Gini {
            excluded_rows: vec![],
        },
    ] {
        let pipeline = Pipeline::builder()
            .params(params.clone())
            .layout(layout)
            .build()
            .unwrap();
        let unit = pipeline.encode_unit(&payload).unwrap();
        let mut per_cw = vec![0usize; params.rows()];
        for seed in 0..3u64 {
            let pool = SimulatedSequencer::new(ErrorModel::uniform(0.09), CoverageModel::Fixed(20))
                .sequence_unit(0, unit.strands(), 900 + seed);
            let (_, report) = pipeline.decode_unit(&pool.at_coverage(20.0)).unwrap();
            assert!(report.is_error_free());
            for (k, c) in report.corrected_per_codeword().iter().enumerate() {
                per_cw[k] += c;
            }
        }
        series.push(per_cw);
    }
    let (baseline, gini) = (&series[0], &series[1]);
    let rows = baseline.len();
    // Baseline: middle third ≫ outer thirds.
    let mid: usize = baseline[rows / 3..2 * rows / 3].iter().sum();
    let ends: usize =
        baseline[..rows / 3].iter().sum::<usize>() + baseline[2 * rows / 3..].iter().sum::<usize>();
    assert!(
        mid * 2 > ends * 3,
        "baseline mid {mid} vs ends {ends} (expected strong mid concentration)"
    );
    // Gini: flat — max within 2x of mean.
    let gmax = *gini.iter().max().unwrap() as f64;
    let gmean = gini.iter().sum::<usize>() as f64 / rows as f64;
    assert!(gmax < 2.0 * gmean, "gini max {gmax} vs mean {gmean}");
    // Equal areas within 25%.
    let (b_total, g_total): (usize, usize) = (baseline.iter().sum(), gini.iter().sum());
    let ratio = b_total as f64 / g_total as f64;
    assert!((0.75..1.33).contains(&ratio), "area ratio {ratio}");
}

#[test]
fn index_is_stored_at_the_most_reliable_location() {
    // The ordering index cannot be ECC-protected (paper §2.2), so the
    // pipeline banks on its position at the strand front. Verify the
    // decode loses far fewer indexes than it would if the index lived
    // mid-strand: invalid/conflicting indexes should be rare even at
    // nanopore noise.
    let params = CodecParams::laptop().unwrap();
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let payload = vec![0x5Au8; 6240];
    let unit = pipeline.encode_unit(&payload).unwrap();
    let pool = SimulatedSequencer::new(ErrorModel::nanopore(0.12), CoverageModel::Fixed(12))
        .sequence_unit(0, unit.strands(), 31);
    let (_, report) = pipeline.decode_unit(&pool.at_coverage(12.0)).unwrap();
    let troubled = report.invalid_indexes + report.index_conflicts + report.lost_columns;
    assert!(
        troubled <= 255 / 10,
        "too many index casualties at 12% noise: {troubled}"
    );
}
