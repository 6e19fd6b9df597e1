//! The fluent [`PipelineBuilder`]: one validated construction path for
//! every pipeline in the workspace.
//!
//! The paper's evaluation is a single pipeline run many ways — three
//! layouts, several consensus algorithms, dozens of channel scenarios.
//! The builder makes each variation one knob instead of another
//! constructor: geometry (a whole [`CodecParams`]), layout, protection
//! policy, consensus algorithm, and recovery stage, all validated
//! together at [`PipelineBuilder::build`]. Explicit primers
//! re-key a built pipeline through [`Pipeline::with_primers`].
//!
//! # Examples
//!
//! ```
//! use dna_storage::{CodecParams, Layout, Pipeline};
//!
//! # fn main() -> Result<(), dna_storage::StorageError> {
//! // A laptop-scale Gini pipeline with two reliability-class rows.
//! let pipeline = Pipeline::builder()
//!     .params(CodecParams::laptop()?)
//!     .layout(Layout::Gini { excluded_rows: vec![0, 29] })
//!     .build()?;
//! assert_eq!(pipeline.layout().name(), "gini");
//!
//! // A different redundancy is a different geometry: drop to 10 parity
//! // molecules (validated by `CodecParams::new`).
//! let laptop = CodecParams::laptop()?;
//! let lean = Pipeline::builder()
//!     .params(CodecParams::new(
//!         laptop.field().clone(),
//!         laptop.rows(),
//!         laptop.data_cols(),
//!         10,
//!         laptop.index_bits(),
//!     )?)
//!     .build()?;
//! assert_eq!(lean.params().parity_cols(), 10);
//! # Ok(())
//! # }
//! ```

use crate::layout::Layout;
use crate::params::CodecParams;
use crate::pipeline::Pipeline;
use crate::plan::{planned_positions, Protection, ProtectionPlan};
use crate::recovery::RecoveryPipeline;
use crate::StorageError;
use dna_consensus::{BmaTwoWay, TraceReconstructor};
use dna_reed_solomon::CodeFamily;
use dna_strand::PrimerLibrary;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The seed for deterministic primer generation. Changing it changes
/// every generated primer pair, and so every primer-wrapped encoding.
const PRIMER_SEED: u64 = 0xD2A7_2022;

/// Fluent, validated construction of [`Pipeline`]s.
///
/// Obtain one with [`Pipeline::builder`]. Every knob has a sensible
/// default except the geometry, which [`params`](Self::params) sets.
/// All validation happens in [`build`](Self::build).
#[derive(Clone)]
pub struct PipelineBuilder {
    params: Option<CodecParams>,
    layout: Layout,
    protection: Protection,
    consensus: Option<Arc<dyn TraceReconstructor + Send + Sync>>,
    recovery: RecoveryPipeline,
}

impl std::fmt::Debug for PipelineBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineBuilder")
            .field("params", &self.params)
            .field("layout", &self.layout.name())
            .field("protection", &self.protection)
            .field(
                "consensus",
                &self
                    .consensus
                    .as_ref()
                    .map_or("two-way BMA (default)", |c| c.name()),
            )
            .finish_non_exhaustive()
    }
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            params: None,
            layout: Layout::Baseline,
            protection: Protection::Uniform,
            consensus: None,
            recovery: RecoveryPipeline::anchored(None),
        }
    }
}

impl PipelineBuilder {
    /// A builder with all defaults (baseline layout, two-way BMA
    /// consensus, no geometry yet).
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Sets the unit geometry — the only way to give the builder one. A
    /// different parity width, primer length or transcoder is a
    /// different [`CodecParams`] (see [`CodecParams::new`],
    /// [`CodecParams::with_primer_len`], [`CodecParams::with_transcoder`]).
    pub fn params(mut self, params: CodecParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Selects the data organization (default [`Layout::Baseline`]).
    pub fn layout(mut self, layout: Layout) -> Self {
        self.layout = layout;
        self
    }

    /// Selects the protection policy: an explicit
    /// [`ProtectionPlan`], a [`ProtectionPlanner`](crate::ProtectionPlanner)
    /// (run against the resolved geometry and layout at build), or a
    /// [`SkewProfile`](crate::SkewProfile) (planned with default knobs).
    /// The default is [`Protection::Uniform`] — today's equal-rate
    /// behavior, byte for byte.
    pub fn protection(mut self, protection: impl Into<Protection>) -> Self {
        self.protection = protection.into();
        self
    }

    /// Replaces the consensus algorithm (default: two-way BMA, the
    /// paper's choice, §6.1.2).
    pub fn consensus(mut self, consensus: Arc<dyn TraceReconstructor + Send + Sync>) -> Self {
        self.consensus = Some(consensus);
        self
    }

    /// Sets the recovery stage every unlabeled pool runs before decoding
    /// ([`Pipeline::decode_pool`](crate::Pipeline::decode_pool) and
    /// friends). The default is index-first routing,
    /// [`RecoveryPipeline::anchored`]`(None)`.
    pub fn recovery(mut self, recovery: RecoveryPipeline) -> Self {
        self.recovery = recovery;
        self
    }

    /// Validates every knob and assembles the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the geometry is
    /// missing, when the layout or protection plan does not fit it, or
    /// when `Gini` excluded rows are out of range, duplicated, or leave
    /// no row interleaved.
    pub fn build(self) -> Result<Pipeline, StorageError> {
        let params = self.params.ok_or_else(|| {
            StorageError::InvalidParams("builder needs a geometry: set .params(..)".into())
        })?;

        // A bad Gini row list must be a typed error here, not a
        // misplaced cell downstream.
        self.layout.validate(&params)?;

        let (rows, m, e) = (params.rows(), params.data_cols(), params.parity_cols());

        // Resolve the protection policy into a concrete, validated plan.
        let plan = match self.protection {
            Protection::Uniform => ProtectionPlan::uniform(rows, e),
            Protection::Plan(plan) => {
                plan.validate_for(&params)?;
                plan
            }
            Protection::Auto(planner) => {
                let plan = planner.plan(&params, &self.layout)?;
                plan.validate_for(&params)?;
                plan
            }
        };
        let uniform = plan.is_uniform_at(e);
        if !uniform && !self.layout.supports_unequal_protection() {
            return Err(StorageError::InvalidParams(format!(
                "layout {:?} does not support unequal protection plans",
                self.layout.name()
            )));
        }

        // One code per distinct plan rate. `parity_cols == 0` means no
        // code at all (and never reaches `CodeFamily`'s data-length
        // check). The uniform-at-parity_cols plan keeps the layout's own
        // parity placement — byte-identical to every pre-plan release;
        // anything else places parity by plan.
        let (rs, cw_positions) = if e == 0 {
            (None, Vec::new())
        } else {
            let family = CodeFamily::with_rates(params.field().clone(), m, plan.distinct_rates())?;
            let positions = if uniform {
                self.layout.codeword_positions(rows, m, e)
            } else {
                planned_positions(&self.layout, rows, m, e, &plan)
            };
            (Some(Arc::new(family)), positions)
        };

        let primers = if params.primer_len() > 0 {
            let mut rng = StdRng::seed_from_u64(PRIMER_SEED);
            let lib =
                PrimerLibrary::generate(2, params.primer_len(), params.primer_len() / 3, &mut rng)?;
            Some((lib.primers()[0].clone(), lib.primers()[1].clone()))
        } else {
            None
        };

        Ok(Pipeline::from_parts(
            params,
            self.layout,
            plan,
            rs,
            cw_positions,
            self.consensus
                .unwrap_or_else(|| Arc::new(BmaTwoWay::default())),
            primers,
            self.recovery,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_consensus::IterativeReconstructor;
    use dna_gf::Field;

    #[test]
    fn missing_geometry_is_rejected() {
        let err = Pipeline::builder().build().unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
        assert!(err.to_string().contains("set .params"), "{err}");
    }

    #[test]
    fn bad_rs_parameters_are_rejected_by_the_geometry() {
        // 20 + 5 = 25 columns exceed GF(16)'s 15-symbol codewords.
        let err = CodecParams::new(Field::gf16(), 6, 20, 5, 6).unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn consensus_choice_is_applied() {
        let p = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .consensus(Arc::new(IterativeReconstructor::default()))
            .build()
            .unwrap();
        assert!(format!("{p:?}").contains("iterative"), "{p:?}");
    }
}
