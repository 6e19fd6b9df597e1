//! `dna-chaos`: adversarial fault injection for the DNA storage stack,
//! scored against hidden ground truth.
//!
//! The crate drives the whole system — encode → channel → pool →
//! recovery → decode, and the on-disk object store — through
//! composable adversarial scenarios, then classifies every trial into
//! a four-way verdict:
//!
//! * [`Verdict::Exact`] — correct bytes, no incident;
//! * [`Verdict::DegradedReported`] — wrong or repaired bytes, but the
//!   system *said so* (a flagged [`DecodeReport`](dna_storage::DecodeReport)
//!   or a typed error followed by explicit recovery);
//! * [`Verdict::FailedLoud`] — no bytes, typed
//!   [`StorageError`](dna_storage::StorageError);
//! * [`Verdict::SilentCorruption`] — wrong bytes with a clean bill of
//!   health. The campaign exists to hunt this verdict; the built-in
//!   presets must produce **zero** of it at default settings.
//!
//! Two fault layers compose:
//!
//! * **Pool faults** ([`FaultPlan`] of [`PoolFault`]s) transform the
//!   clustered read pool between the sequencer and the decoder:
//!   sustained dropout, index-region burst deletions, cross-pool
//!   contamination, truncated reads, chimeric reads.
//! * **Byte faults** ([`ByteFault`], applied by [`apply_byte_fault`],
//!   which edits the file's bytes and atomically replaces it) damage the
//!   object store's files on disk: torn appends, flipped capsule header
//!   or strand bytes, corrupted or truncated manifest sidecars.
//!
//! Campaign outcomes close the measure→plan→deploy loop: per-scenario
//! row-error histograms ([`ScenarioOutcome::row_errors`], or the raw
//! reports via [`ChaosReport::decode_reports`]) feed
//! [`SkewProfile::from_reports`](dna_storage::SkewProfile::from_reports),
//! and the resulting [`ProtectionPlanner`](dna_storage::ProtectionPlanner)
//! plan provisions parity against the *observed* chaos —
//! [`closed_loop`] runs both arms under identical faults and reports
//! the exact-decode rates side by side.
//!
//! ```
//! use dna_chaos::{builtin_presets, run_campaign, CampaignConfig};
//!
//! let config = CampaignConfig::quick(7, 2).unwrap();
//! let presets = builtin_presets();
//! let report = run_campaign(&presets[..1], &config).unwrap();
//! assert_eq!(report.scenarios[0].tally.total(), 2);
//! assert_eq!(report.silent_corruptions(), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod byte_fault;
mod campaign;
mod fault;
mod verdict;

pub use byte_fault::{apply_byte_fault, ByteFault};
pub use campaign::{
    builtin_presets, closed_loop, run_campaign, run_scenario, CampaignConfig, ChaosReport,
    ChaosScenario, ClosedLoopOutcome, PayloadKind, ScenarioKind, ScenarioOutcome,
};
pub use fault::{FaultContext, FaultPlan, PoolFault};
pub use verdict::{score_bytes, score_decode, Verdict, VerdictTally};
