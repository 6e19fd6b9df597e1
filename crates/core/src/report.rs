//! Decode reports: what the error-correction layer saw and fixed.

use crate::plan::ProtectionPlan;
use crate::recovery::RecoveryReport;

/// Per-codeword decode outcome (regenerates the paper's Fig. 11).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CodewordReport {
    /// Symbol errors corrected at non-erased positions.
    pub corrected_errors: usize,
    /// Erased positions whose symbols needed fixing.
    pub corrected_erasures: usize,
    /// Erasures declared for this codeword (lost molecules).
    pub declared_erasures: usize,
    /// True when the codeword could not be decoded (left uncorrected).
    pub failed: bool,
}

impl CodewordReport {
    /// Errors detected **and corrected** in this codeword — the quantity
    /// the paper plots per codeword in Fig. 11.
    pub fn corrected_symbols(&self) -> usize {
        self.corrected_errors + self.corrected_erasures
    }
}

/// Erasure/correction totals of one reliability class of a
/// [`ProtectionPlan`] (codewords sharing a parity length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Parity symbols per codeword in this class.
    pub parity: usize,
    /// Codewords in the class.
    pub codewords: usize,
    /// Corrected symbols summed across the class.
    pub corrected: usize,
    /// Declared erasures summed across the class.
    pub declared_erasures: usize,
    /// Failed codewords in the class.
    pub failed: usize,
}

/// The outcome of decoding one unit (or, after
/// [`DecodeReport::merge_from`], several units).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DecodeReport {
    /// One report per codeword, in codeword order.
    pub codewords: Vec<CodewordReport>,
    /// Columns with no surviving reads (erasures for every codeword).
    pub lost_columns: usize,
    /// Consensus strands whose decoded index collided with another strand.
    pub index_conflicts: usize,
    /// Consensus strands whose decoded index was out of range.
    pub invalid_indexes: usize,
    /// Per-row corrected-symbol histogram: `row_errors[r]` counts the
    /// corrections applied to cells of matrix row `r` — the empirical
    /// [`SkewProfile`](crate::SkewProfile)'s raw material. Empty when
    /// the unit ran without error correction.
    pub row_errors: Vec<usize>,
    /// Per-row declared-erasure histogram: `row_erasures[r]` counts the
    /// erased codeword cells that sat in matrix row `r`.
    pub row_erasures: Vec<usize>,
    /// The recovery stage's outcome, present when the unit was
    /// decoded from an unlabeled pool
    /// ([`Pipeline::decode_pool`](crate::Pipeline::decode_pool)) instead
    /// of pre-attributed clusters.
    pub recovery: Option<RecoveryReport>,
}

impl DecodeReport {
    /// True when every codeword decoded (no failures). Note this does not
    /// by itself guarantee payload equality — a mis-set index can corrupt
    /// symbols in ways the RS layer silently absorbs as "corrections".
    pub fn is_error_free(&self) -> bool {
        !self.codewords.iter().any(|c| c.failed)
    }

    /// True when the report carries a decode-level damage signal: failed
    /// codewords, lost columns, or index conflicts / out-of-range
    /// indexes. This is the "did the pipeline tell the caller its data
    /// was damaged or missing" predicate that chaos-campaign verdicts
    /// are scored against: wrong payload bytes with
    /// `flags_degradation() == false` is a silent corruption.
    ///
    /// Recovery-stage statistics (orphaned reads, duplicate merges) are
    /// deliberately *not* counted — they occur routinely on noisy pools
    /// that still decode exactly, so treating them as a degradation
    /// report would let genuinely silent wrong-bytes outcomes hide
    /// behind them.
    pub fn flags_degradation(&self) -> bool {
        !self.is_error_free()
            || self.lost_columns > 0
            || self.index_conflicts > 0
            || self.invalid_indexes > 0
    }

    /// Number of failed codewords.
    pub fn failed_codewords(&self) -> usize {
        self.codewords.iter().filter(|c| c.failed).count()
    }

    /// Total corrected symbols across codewords.
    pub fn total_corrected(&self) -> usize {
        self.codewords
            .iter()
            .map(CodewordReport::corrected_symbols)
            .sum()
    }

    /// Per-codeword corrected-symbol counts (the Fig. 11 series).
    pub fn corrected_per_codeword(&self) -> Vec<usize> {
        self.codewords
            .iter()
            .map(CodewordReport::corrected_symbols)
            .collect()
    }

    /// Folds `other` into `self`: codeword reports are appended, the
    /// scalar counters and per-row histograms are summed (histograms
    /// must cover the same rows — units of one pipeline always do).
    ///
    /// # Panics
    ///
    /// Panics when both reports carry per-row histograms of different
    /// lengths.
    pub fn merge_from(&mut self, other: &DecodeReport) {
        self.codewords.extend(other.codewords.iter().cloned());
        self.lost_columns += other.lost_columns;
        self.index_conflicts += other.index_conflicts;
        self.invalid_indexes += other.invalid_indexes;
        for (ours, theirs) in [
            (&mut self.row_errors, &other.row_errors),
            (&mut self.row_erasures, &other.row_erasures),
        ] {
            if ours.is_empty() {
                *ours = theirs.clone();
            } else if !theirs.is_empty() {
                assert_eq!(ours.len(), theirs.len(), "row histogram length mismatch");
                for (slot, &c) in ours.iter_mut().zip(theirs) {
                    *slot += c;
                }
            }
        }
        if let Some(theirs) = &other.recovery {
            match &mut self.recovery {
                Some(ours) => ours.merge_from(theirs),
                None => self.recovery = Some(theirs.clone()),
            }
        }
    }

    /// Groups the per-codeword outcomes by the plan's reliability
    /// classes, strongest class first — the per-class erasure/correction
    /// view of an unequal-protection run. A merged multi-unit report
    /// (codeword count a whole multiple of the plan's) repeats the plan
    /// per unit.
    ///
    /// # Panics
    ///
    /// Panics when the report's codeword count is not a multiple of the
    /// plan's.
    pub fn per_class(&self, plan: &ProtectionPlan) -> Vec<ClassReport> {
        assert!(
            !self.codewords.is_empty() && self.codewords.len().is_multiple_of(plan.codewords()),
            "plan covers {} codewords; report has {}",
            plan.codewords(),
            self.codewords.len()
        );
        plan.classes()
            .into_iter()
            .map(|class| {
                let members = self
                    .codewords
                    .iter()
                    .enumerate()
                    .filter(|(k, _)| class.codewords.contains(&(k % plan.codewords())))
                    .map(|(_, c)| c);
                ClassReport {
                    parity: class.parity,
                    codewords: members.clone().count(),
                    corrected: members.clone().map(CodewordReport::corrected_symbols).sum(),
                    declared_erasures: members.clone().map(|c| c.declared_erasures).sum(),
                    failed: members.filter(|c| c.failed).count(),
                }
            })
            .collect()
    }

    /// The per-row histograms as a TSV table (`row`, `corrected_errors`,
    /// `declared_erasures` columns) — the CLI's `--tsv` output and the
    /// hand-off format for external skew analysis.
    pub fn to_tsv(&self) -> String {
        let rows = self.row_errors.len().max(self.row_erasures.len());
        let mut out = String::from("row\tcorrected_errors\tdeclared_erasures\n");
        for r in 0..rows {
            out.push_str(&format!(
                "{r}\t{}\t{}\n",
                self.row_errors.get(r).copied().unwrap_or(0),
                self.row_erasures.get(r).copied().unwrap_or(0)
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates() {
        let report = DecodeReport {
            codewords: vec![
                CodewordReport {
                    corrected_errors: 3,
                    corrected_erasures: 1,
                    declared_erasures: 2,
                    failed: false,
                },
                CodewordReport {
                    failed: true,
                    ..CodewordReport::default()
                },
            ],
            lost_columns: 2,
            index_conflicts: 0,
            invalid_indexes: 1,
            ..DecodeReport::default()
        };
        assert!(!report.is_error_free());
        assert_eq!(report.failed_codewords(), 1);
        assert_eq!(report.total_corrected(), 4);
        assert_eq!(report.corrected_per_codeword(), vec![4, 0]);
    }

    #[test]
    fn merge_sums_scalars_and_histograms() {
        let mut a = DecodeReport {
            codewords: vec![CodewordReport::default()],
            lost_columns: 1,
            row_errors: vec![1, 0, 2],
            row_erasures: vec![0, 1, 1],
            ..DecodeReport::default()
        };
        let b = DecodeReport {
            codewords: vec![CodewordReport::default(), CodewordReport::default()],
            lost_columns: 2,
            invalid_indexes: 3,
            row_errors: vec![0, 5, 1],
            row_erasures: vec![2, 0, 0],
            ..DecodeReport::default()
        };
        a.merge_from(&b);
        assert_eq!(a.codewords.len(), 3);
        assert_eq!(a.lost_columns, 3);
        assert_eq!(a.invalid_indexes, 3);
        assert_eq!(a.row_errors, vec![1, 5, 3]);
        assert_eq!(a.row_erasures, vec![2, 1, 1]);
    }

    #[test]
    fn merge_folds_recovery_reports() {
        let recovery = |reads: usize| RecoveryReport {
            total_reads: reads,
            orphaned_reads: 1,
            coverage_histogram: vec![reads, 0],
            ..RecoveryReport::default()
        };
        // None + Some adopts; Some + Some folds.
        let mut a = DecodeReport::default();
        let b = DecodeReport {
            recovery: Some(recovery(10)),
            ..DecodeReport::default()
        };
        a.merge_from(&b);
        assert_eq!(a.recovery.as_ref().unwrap().total_reads, 10);
        a.merge_from(&DecodeReport {
            recovery: Some(recovery(5)),
            ..DecodeReport::default()
        });
        let merged = a.recovery.unwrap();
        assert_eq!(merged.total_reads, 15);
        assert_eq!(merged.orphaned_reads, 2);
        assert_eq!(merged.coverage_histogram, vec![15, 0]);
    }

    #[test]
    fn tsv_lists_one_line_per_row() {
        let report = DecodeReport {
            row_errors: vec![4, 0],
            row_erasures: vec![1, 2],
            ..DecodeReport::default()
        };
        let tsv = report.to_tsv();
        let lines: Vec<&str> = tsv.lines().collect();
        assert_eq!(lines[0], "row\tcorrected_errors\tdeclared_erasures");
        assert_eq!(lines[1], "0\t4\t1");
        assert_eq!(lines[2], "1\t0\t2");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn per_class_groups_by_plan() {
        let plan = ProtectionPlan::from_parities(vec![2, 6, 2, 6]).unwrap();
        let report = DecodeReport {
            codewords: vec![
                CodewordReport {
                    corrected_errors: 1,
                    ..CodewordReport::default()
                },
                CodewordReport {
                    corrected_errors: 4,
                    declared_erasures: 2,
                    ..CodewordReport::default()
                },
                CodewordReport {
                    failed: true,
                    ..CodewordReport::default()
                },
                CodewordReport {
                    corrected_erasures: 3,
                    declared_erasures: 3,
                    ..CodewordReport::default()
                },
            ],
            ..DecodeReport::default()
        };
        let classes = report.per_class(&plan);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].parity, 6);
        assert_eq!(classes[0].codewords, 2);
        assert_eq!(classes[0].corrected, 7);
        assert_eq!(classes[0].declared_erasures, 5);
        assert_eq!(classes[0].failed, 0);
        assert_eq!(classes[1].parity, 2);
        assert_eq!(classes[1].corrected, 1);
        assert_eq!(classes[1].failed, 1);
    }
}
