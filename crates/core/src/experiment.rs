//! Experiment harnesses: minimum-coverage search and quality sweeps.
//!
//! These implement the paper's two measurement loops: "minimum sequencing
//! coverage required for error-free decoding" (Figs. 12–13) and image
//! quality loss versus coverage (Figs. 14, 16), both averaged over
//! repeated trials with independent noise realizations (§6.1.2 uses 50
//! trials per point; the trial count comes from the [`Scenario`]). Trials
//! run in parallel through [`dna_parallel`]; results are deterministic in
//! the seed regardless of thread count.

use crate::archive::{Archive, ArchiveCodec};
use crate::pipeline::{Pipeline, RetrieveOptions, UnitReads};
use crate::scenario::Scenario;
use crate::StorageError;
use dna_channel::{unit_seed, AnonymousPool, Cluster};
use dna_parallel::parallel_map;

/// Runs the unlabeled-retrieval front half for one coverage draw:
/// anonymize the clusters under a stream-derived seed, then recover
/// labeled clusters through the pipeline's [`RecoveryPipeline`]
/// (`crate::RecoveryPipeline`). `Ok(None)` means the draw was
/// unrecoverable (empty pool / every read orphaned) — a failed
/// measurement point, not a harness error.
fn recover_draw(
    pipeline: &Pipeline,
    clusters: &[Cluster],
    anonymize_seed: u64,
) -> Result<Option<Vec<Cluster>>, StorageError> {
    let anon = AnonymousPool::from_clusters(clusters, anonymize_seed);
    match pipeline.recover_pool(&anon) {
        Ok((recovered, _)) => Ok(Some(recovered)),
        Err(StorageError::EmptyPool) | Err(StorageError::AllReadsOrphaned { .. }) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Finds the smallest coverage in `scenario.coverages` at which **every**
/// trial decodes the payload exactly — the paper's minimum-coverage
/// metric. `None` when even the largest candidate fails.
///
/// Each trial draws one read pool at the maximum candidate coverage and
/// re-decodes progressively larger draws of it, exactly as the paper's
/// methodology prescribes; a trial's success is assumed monotone in
/// coverage (decoding is retried at ascending coverages until it first
/// succeeds).
///
/// # Errors
///
/// Propagates substrate failures ([`StorageError`]); decode failures are
/// part of the measurement, not errors.
pub fn min_coverage(
    pipeline: &Pipeline,
    payload: &[u8],
    scenario: &Scenario,
) -> Result<Option<f64>, StorageError> {
    min_coverage_with(pipeline, payload, scenario, &RetrieveOptions::default())
}

/// [`min_coverage`] with explicit decode options (e.g. the forced
/// erasures of the Fig. 13 effective-redundancy sweep).
///
/// When the scenario is [unlabeled](Scenario::unlabeled), every coverage
/// draw runs the full realistic front half first — anonymize (labels
/// dropped, orientation randomized, order shuffled), then
/// orient → demultiplex through the pipeline's recovery stage — so
/// the measured minimum coverage includes the recovery tax. Draws whose
/// recovery orphans everything count as failures at that coverage.
///
/// # Errors
///
/// See [`min_coverage`].
pub fn min_coverage_with(
    pipeline: &Pipeline,
    payload: &[u8],
    scenario: &Scenario,
    retrieve: &RetrieveOptions,
) -> Result<Option<f64>, StorageError> {
    if scenario.coverages.is_empty() || scenario.trials == 0 {
        return Ok(None);
    }
    // Candidates are scanned ascending whatever order the sweep lists.
    let mut candidates = scenario.coverages.clone();
    candidates.sort_unstable_by(f64::total_cmp);
    let unit = pipeline.encode_unit(payload)?;
    let mut expected = payload.to_vec();
    expected.resize(pipeline.payload_capacity(), 0);
    let backend = scenario.backend();
    let recovered_retrieve = RetrieveOptions::recovered(retrieve.forced_erasures.clone());

    // Per trial: the index of the first succeeding coverage (or None).
    let candidates = &candidates;
    let firsts = parallel_map(
        scenario.trials,
        |t| -> Result<Option<usize>, StorageError> {
            let pool = backend.sequence_unit(0, unit.strands(), scenario.trial_seed(t));
            for (i, &cov) in candidates.iter().enumerate() {
                let mut clusters = pool.at_coverage(cov);
                let retrieve = if scenario.unlabeled {
                    let seed = unit_seed(scenario.anonymize_seed(t), i);
                    match recover_draw(pipeline, &clusters, seed)? {
                        Some(recovered) => clusters = recovered,
                        None => continue, // unrecoverable at this coverage
                    }
                    &recovered_retrieve
                } else {
                    retrieve
                };
                let (decoded, report) = pipeline
                    .decode(&[UnitReads::Clusters(&clusters)], retrieve, None)?
                    .remove(0);
                if report.is_error_free() && decoded == expected {
                    return Ok(Some(i));
                }
            }
            Ok(None)
        },
    );
    let mut worst = 0usize;
    for first in firsts {
        match first? {
            Some(i) => worst = worst.max(i),
            None => return Ok(None),
        }
    }
    Ok(Some(candidates[worst]))
}

/// One point of a quality-versus-coverage sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityPoint {
    /// Mean sequencing coverage of the point.
    pub coverage: f64,
    /// Mean loss (dB) across trials, as computed by the caller's `eval`.
    pub mean_loss_db: f64,
    /// Trials in which the archive could not be reconstructed at all.
    pub failed_decodes: usize,
}

/// Sweeps `scenario.coverages` for an archive and reports the mean
/// quality loss per point (paper Figs. 14/16). `eval(original, decoded)`
/// returns the loss in dB; `decoded` is `None` when the directory was
/// unrecoverable (catastrophic loss — eval decides the penalty).
///
/// When the scenario is [unlabeled](Scenario::unlabeled), every unit's
/// coverage draw is anonymized and recovered (orient → demultiplex)
/// before the archive decode, so the sweep measures the realistic
/// retrieval path; a unit whose recovery orphans everything contributes
/// all-lost clusters (graceful degradation, as with lost molecules).
///
/// # Errors
///
/// Propagates substrate failures.
pub fn quality_sweep<F>(
    codec: &ArchiveCodec,
    archive: &Archive,
    scenario: &Scenario,
    eval: F,
) -> Result<Vec<QualityPoint>, StorageError>
where
    F: Fn(&Archive, Option<&Archive>) -> f64 + Sync,
{
    let units = codec.encode(archive)?;
    let backend = scenario.backend();
    let labeled_retrieve = RetrieveOptions::default();
    let recovered_retrieve = RetrieveOptions::recovered(Vec::new());
    let per_trial = parallel_map(
        scenario.trials,
        |t| -> Result<Vec<(f64, bool)>, StorageError> {
            let pools = codec
                .pipeline()
                .sequence_batch(&backend, &units, scenario.trial_seed(t));
            let mut out = Vec::with_capacity(scenario.coverages.len());
            for (i, &cov) in scenario.coverages.iter().enumerate() {
                let mut clusters: Vec<Vec<Cluster>> =
                    pools.iter().map(|p| p.at_coverage(cov)).collect();
                let retrieve = if scenario.unlabeled {
                    for (u, unit_clusters) in clusters.iter_mut().enumerate() {
                        let seed = unit_seed(unit_seed(scenario.anonymize_seed(t), u), i);
                        *unit_clusters = recover_draw(codec.pipeline(), unit_clusters, seed)?
                            .unwrap_or_default();
                    }
                    &recovered_retrieve
                } else {
                    &labeled_retrieve
                };
                match codec.decode(&clusters, retrieve) {
                    Ok((decoded, _)) => out.push((eval(archive, Some(&decoded)), false)),
                    Err(StorageError::DirectoryUnreadable) => {
                        out.push((eval(archive, None), true));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(out)
        },
    );
    let mut points: Vec<QualityPoint> = scenario
        .coverages
        .iter()
        .map(|&coverage| QualityPoint {
            coverage,
            mean_loss_db: 0.0,
            failed_decodes: 0,
        })
        .collect();
    let mut ok_trials = 0usize;
    for trial in per_trial {
        let trial = trial?;
        ok_trials += 1;
        for (point, (loss, failed)) in points.iter_mut().zip(trial) {
            point.mean_loss_db += loss;
            point.failed_decodes += usize::from(failed);
        }
    }
    for point in &mut points {
        point.mean_loss_db /= ok_trials.max(1) as f64;
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::archive::{FileEntry, RankingPolicy};
    use crate::layout::Layout;
    use crate::params::CodecParams;
    use dna_channel::ErrorModel;

    fn build(params: CodecParams, layout: Layout) -> Pipeline {
        Pipeline::builder()
            .params(params)
            .layout(layout)
            .build()
            .unwrap()
    }

    #[test]
    fn min_coverage_is_one_for_noiseless_channel() {
        let pipeline = build(CodecParams::tiny().unwrap(), Layout::Baseline);
        let payload: Vec<u8> = (0..30).collect();
        let scenario = Scenario::new(ErrorModel::noiseless())
            .coverages([1.0, 2.0, 3.0])
            .trials(3)
            .seed(5)
            .fixed_coverage();
        let got = min_coverage(&pipeline, &payload, &scenario).unwrap();
        assert_eq!(got, Some(1.0));
    }

    #[test]
    fn min_coverage_none_when_noise_overwhelms() {
        let pipeline = build(CodecParams::tiny().unwrap(), Layout::Baseline);
        let payload: Vec<u8> = (0..30).collect();
        let scenario = Scenario::new(ErrorModel::uniform(0.30))
            .coverages([2.0, 3.0])
            .trials(2)
            .seed(6)
            .fixed_coverage();
        let got = min_coverage(&pipeline, &payload, &scenario).unwrap();
        assert_eq!(got, None);
    }

    #[test]
    fn min_coverage_empty_scenario_yields_none() {
        let pipeline = build(CodecParams::tiny().unwrap(), Layout::Baseline);
        let payload: Vec<u8> = (0..30).collect();
        let no_coverages = Scenario::new(ErrorModel::noiseless()).coverages([]);
        assert_eq!(
            min_coverage(&pipeline, &payload, &no_coverages).unwrap(),
            None
        );
        let no_trials = Scenario::new(ErrorModel::noiseless()).trials(0);
        assert_eq!(min_coverage(&pipeline, &payload, &no_trials).unwrap(), None);
    }

    #[test]
    fn min_coverage_rises_with_error_rate() {
        let pipeline = build(
            CodecParams::tiny().unwrap(),
            Layout::Gini {
                excluded_rows: vec![],
            },
        );
        let payload: Vec<u8> = (0..30).map(|i| i * 7).collect();
        let scenario = |model| {
            Scenario::new(model)
                .coverage_range(1, 25)
                .trials(4)
                .seed(7)
                .fixed_coverage()
        };
        let low = min_coverage(&pipeline, &payload, &scenario(ErrorModel::uniform(0.02)))
            .unwrap()
            .expect("low noise decodable");
        let high = min_coverage(&pipeline, &payload, &scenario(ErrorModel::uniform(0.10)))
            .unwrap()
            .expect("high noise decodable");
        assert!(high > low, "high-noise coverage {high} vs low-noise {low}");
    }

    #[test]
    fn unlabeled_min_coverage_is_consumed_and_exact_at_zero_noise() {
        let params = CodecParams::tiny().unwrap().with_primer_len(15);
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..30).map(|i| i * 5).collect();
        let scenario = Scenario::new(ErrorModel::noiseless())
            .coverages([1.0, 2.0, 3.0])
            .trials(3)
            .seed(5)
            .fixed_coverage()
            .unlabeled();
        let got = min_coverage(&pipeline, &payload, &scenario).unwrap();
        assert_eq!(got, Some(1.0));
    }

    #[test]
    fn unlabeled_min_coverage_pays_at_least_the_labeled_coverage() {
        let params = CodecParams::tiny().unwrap().with_primer_len(15);
        let pipeline = build(params, Layout::Baseline);
        let payload: Vec<u8> = (0..30u8).map(|i| i.wrapping_mul(11)).collect();
        let scenario = Scenario::new(ErrorModel::uniform(0.05))
            .coverage_range(1, 25)
            .trials(3)
            .seed(9)
            .fixed_coverage();
        let labeled = min_coverage(&pipeline, &payload, &scenario)
            .unwrap()
            .expect("labeled decodable");
        let unlabeled = min_coverage(&pipeline, &payload, &scenario.clone().unlabeled())
            .unwrap()
            .expect("unlabeled decodable");
        assert!(
            unlabeled >= labeled,
            "recovery cannot beat the oracle: unlabeled {unlabeled} vs labeled {labeled}"
        );
    }

    #[test]
    fn unlabeled_quality_sweep_improves_with_coverage() {
        let params = CodecParams::tiny().unwrap().with_primer_len(15);
        let pipeline = build(params, Layout::Baseline);
        let codec = ArchiveCodec::new(pipeline, RankingPolicy::Sequential);
        let archive = Archive::new(vec![FileEntry::new("f", (0..60u8).collect())]).unwrap();
        let scenario = Scenario::new(ErrorModel::uniform(0.04))
            .coverages([2.0, 14.0])
            .trials(3)
            .seed(4)
            .unlabeled();
        let points = quality_sweep(
            &codec,
            &archive,
            &scenario,
            |original, decoded| match decoded {
                Some(d) => {
                    let orig = &original.files()[0].bytes;
                    let got = d.file("f").map(|f| f.bytes.as_slice()).unwrap_or(&[]);
                    orig.iter()
                        .zip(got.iter().chain(std::iter::repeat(&0)))
                        .filter(|(a, b)| a != b)
                        .count() as f64
                }
                None => original.files()[0].bytes.len() as f64,
            },
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].mean_loss_db <= points[0].mean_loss_db,
            "unlabeled loss at cov 14 ({}) should not exceed loss at cov 2 ({})",
            points[1].mean_loss_db,
            points[0].mean_loss_db
        );
    }

    #[test]
    fn quality_sweep_improves_with_coverage() {
        let pipeline = build(CodecParams::tiny().unwrap(), Layout::DnaMapper);
        let codec = ArchiveCodec::new(pipeline, RankingPolicy::PositionPriority);
        let archive = Archive::new(vec![FileEntry::new("f", (0..60u8).collect())]).unwrap();
        let scenario = Scenario::new(ErrorModel::uniform(0.08))
            .coverages([2.0, 12.0])
            .trials(4)
            .seed(8);
        let points = quality_sweep(
            &codec,
            &archive,
            &scenario,
            |original, decoded| match decoded {
                Some(d) => {
                    let orig = &original.files()[0].bytes;
                    let got = d.file("f").map(|f| f.bytes.as_slice()).unwrap_or(&[]);
                    let wrong = orig
                        .iter()
                        .zip(got.iter().chain(std::iter::repeat(&0)))
                        .filter(|(a, b)| a != b)
                        .count();
                    wrong as f64
                }
                None => original.files()[0].bytes.len() as f64,
            },
        )
        .unwrap();
        assert_eq!(points.len(), 2);
        assert!(
            points[1].mean_loss_db <= points[0].mean_loss_db,
            "loss at cov 12 ({}) should not exceed loss at cov 2 ({})",
            points[1].mean_loss_db,
            points[0].mean_loss_db
        );
    }
}
