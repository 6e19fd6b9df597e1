//! The fluent [`PipelineBuilder`]: one validated construction path for
//! every pipeline in the workspace.
//!
//! The paper's evaluation is a single pipeline run many ways — three
//! layouts, several consensus algorithms, dozens of channel scenarios.
//! The builder makes each variation one knob instead of another
//! constructor: geometry (either a whole [`CodecParams`] or individual
//! overrides), layout, consensus algorithm, primers, and default decode
//! options, all validated together at [`PipelineBuilder::build`].
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
//! // Geometry overrides re-derive the codec parameters (validated at
//! // build): drop the redundancy to 10 parity molecules.
//! let lean = Pipeline::builder()
//!     .params(CodecParams::laptop()?)
//!     .parity_cols(10)
//!     .build()?;
//! assert_eq!(lean.params().parity_cols(), 10);
//! # Ok(())
//! # }
//! ```

use crate::layout::{BaselineLayout, IntoUnitLayout, UnitLayout};
use crate::params::CodecParams;
use crate::pipeline::{Pipeline, RetrieveOptions};
use crate::plan::{planned_positions, Protection, ProtectionPlan};
use crate::recovery::RecoveryPipeline;
use crate::StorageError;
use dna_consensus::{BmaTwoWay, TraceReconstructor};
use dna_gf::Field;
use dna_reed_solomon::CodeFamily;
use dna_strand::{Primer, PrimerLibrary, TranscoderSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// The default seed for deterministic primer generation (kept from the
/// original constructor so existing encodings remain readable).
const DEFAULT_PRIMER_SEED: u64 = 0xD2A7_2022;

/// Fluent, validated construction of [`Pipeline`]s.
///
/// Obtain one with [`Pipeline::builder`]. Every knob has a sensible
/// default except the geometry: set either [`params`](Self::params) or
/// the individual geometry fields ([`field`](Self::field),
/// [`rows`](Self::rows), [`data_cols`](Self::data_cols), …). All
/// validation happens in [`build`](Self::build).
#[derive(Clone)]
pub struct PipelineBuilder {
    params: Option<CodecParams>,
    field: Option<Field>,
    rows: Option<usize>,
    data_cols: Option<usize>,
    parity_cols: Option<usize>,
    index_bits: Option<u8>,
    primer_len: Option<usize>,
    transcoder: Option<TranscoderSpec>,
    layout: Arc<dyn UnitLayout>,
    protection: Protection,
    consensus: Option<Arc<dyn TraceReconstructor + Send + Sync>>,
    primers: Option<(Primer, Primer)>,
    primer_seed: u64,
    decode_options: RetrieveOptions,
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
            .field("explicit_primers", &self.primers.is_some())
            .finish_non_exhaustive()
    }
}

impl Default for PipelineBuilder {
    fn default() -> Self {
        PipelineBuilder {
            params: None,
            field: None,
            rows: None,
            data_cols: None,
            parity_cols: None,
            index_bits: None,
            primer_len: None,
            transcoder: None,
            layout: Arc::new(BaselineLayout),
            protection: Protection::Uniform,
            consensus: None,
            primers: None,
            primer_seed: DEFAULT_PRIMER_SEED,
            decode_options: RetrieveOptions::default(),
        }
    }
}

impl PipelineBuilder {
    /// A builder with all defaults (baseline layout, two-way BMA
    /// consensus, no geometry yet).
    pub fn new() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Starts from a complete geometry. Individual overrides below still
    /// apply on top.
    pub fn params(mut self, params: CodecParams) -> Self {
        self.params = Some(params);
        self
    }

    /// Overrides the Galois field.
    pub fn field(mut self, field: Field) -> Self {
        self.field = Some(field);
        self
    }

    /// Overrides the row count (symbols per molecule).
    pub fn rows(mut self, rows: usize) -> Self {
        self.rows = Some(rows);
        self
    }

    /// Overrides the data-column count (data molecules, M).
    pub fn data_cols(mut self, data_cols: usize) -> Self {
        self.data_cols = Some(data_cols);
        self
    }

    /// Overrides the parity-column count (redundancy molecules, E; 0
    /// disables error correction).
    pub fn parity_cols(mut self, parity_cols: usize) -> Self {
        self.parity_cols = Some(parity_cols);
        self
    }

    /// Overrides the per-molecule ordering index width, in bits.
    pub fn index_bits(mut self, index_bits: u8) -> Self {
        self.index_bits = Some(index_bits);
        self
    }

    /// Overrides the primer length per side, in bases (0 = no primers).
    pub fn primer_len(mut self, primer_len: usize) -> Self {
        self.primer_len = Some(primer_len);
        self
    }

    /// Overrides the payload transcoder (byte → base layout; default
    /// [`TranscoderSpec::Direct`], the paper's 2-bits-per-base mapping).
    pub fn transcoder(mut self, transcoder: TranscoderSpec) -> Self {
        self.transcoder = Some(transcoder);
        self
    }

    /// Selects the data organization: a [`UnitLayout`] engine (built-in
    /// or custom implementation), or the legacy
    /// [`Layout`](crate::Layout) enum shim.
    pub fn layout(mut self, layout: impl IntoUnitLayout) -> Self {
        self.layout = layout.into_unit_layout();
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

    /// Uses an explicit primer pair instead of deterministic generation.
    /// Both primers must match the geometry's primer length.
    pub fn primers(mut self, left: Primer, right: Primer) -> Self {
        self.primers = Some((left, right));
        self
    }

    /// Seed for deterministic primer generation (when no explicit primers
    /// are given and the geometry has a positive primer length).
    pub fn primer_seed(mut self, seed: u64) -> Self {
        self.primer_seed = seed;
        self
    }

    /// Configures the unlabeled-pool recovery stage: the default
    /// options' [`RetrieveOptions::recovery`], which pool decodes
    /// ([`Pipeline::decode_pool`](crate::Pipeline::decode_pool) and
    /// friends) run. Pipelines without one fall back to
    /// [`RecoveryPipeline::default`] on demand.
    pub fn recovery(mut self, recovery: RecoveryPipeline) -> Self {
        self.decode_options.recovery = Some(recovery);
        self
    }

    /// Default [`RetrieveOptions`] applied by the shorthand decode entry
    /// points ([`Pipeline::decode_unit`](crate::Pipeline::decode_unit)
    /// and friends); [`Pipeline::decode`](crate::Pipeline::decode) takes
    /// its options per call. A stage set with [`recovery`](Self::recovery)
    /// is kept unless `options` names its own.
    pub fn decode_options(mut self, options: RetrieveOptions) -> Self {
        let recovery = options.recovery.or(self.decode_options.recovery);
        self.decode_options = RetrieveOptions {
            recovery,
            ..options
        };
        self
    }

    /// Resolves the final [`CodecParams`] from the base params and any
    /// individual overrides.
    fn resolve_params(&self) -> Result<CodecParams, StorageError> {
        let has_override = self.field.is_some()
            || self.rows.is_some()
            || self.data_cols.is_some()
            || self.parity_cols.is_some()
            || self.index_bits.is_some();
        let base = match (&self.params, has_override) {
            (Some(p), false) => p.clone(),
            (base, true) => {
                let pick_usize = |over: Option<usize>, from: Option<usize>, what: &str| {
                    over.or(from).ok_or_else(|| {
                        StorageError::InvalidParams(format!(
                            "builder needs {what}: set .params(..) or .{what}(..)"
                        ))
                    })
                };
                let field = self
                    .field
                    .clone()
                    .or_else(|| base.as_ref().map(|p| p.field().clone()))
                    .ok_or_else(|| {
                        StorageError::InvalidParams(
                            "builder needs a field: set .params(..) or .field(..)".into(),
                        )
                    })?;
                CodecParams::new(
                    field,
                    pick_usize(self.rows, base.as_ref().map(CodecParams::rows), "rows")?,
                    pick_usize(
                        self.data_cols,
                        base.as_ref().map(CodecParams::data_cols),
                        "data_cols",
                    )?,
                    self.parity_cols
                        .or_else(|| base.as_ref().map(CodecParams::parity_cols))
                        .unwrap_or(0),
                    self.index_bits
                        .or_else(|| base.as_ref().map(CodecParams::index_bits))
                        .ok_or_else(|| {
                            StorageError::InvalidParams(
                                "builder needs index_bits: set .params(..) or .index_bits(..)"
                                    .into(),
                            )
                        })?,
                )?
                .with_primer_len(base.as_ref().map_or(0, CodecParams::primer_len))
                .with_transcoder(
                    base.as_ref()
                        .map_or(TranscoderSpec::Direct, CodecParams::transcoder),
                )
            }
            (None, false) => {
                return Err(StorageError::InvalidParams(
                    "builder needs a geometry: set .params(..) or the individual fields".into(),
                ))
            }
        };
        let base = match self.primer_len {
            Some(len) => base.with_primer_len(len),
            None => base,
        };
        Ok(match self.transcoder {
            Some(spec) => base.with_transcoder(spec),
            None => base,
        })
    }

    /// Validates every knob and assembles the pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] when the geometry is
    /// missing or inconsistent (including Reed–Solomon parameters the
    /// field cannot support), when `Gini` excluded rows are out of range,
    /// duplicated, or leave no row interleaved, or when explicit primers
    /// are empty or disagree with the geometry's primer length.
    pub fn build(self) -> Result<Pipeline, StorageError> {
        let params = self.resolve_params()?;

        // Layout validation (misconfigured engines must be typed errors
        // here, not panics downstream).
        self.layout.validate(&params)?;

        let (rows, m, e) = (params.rows(), params.data_cols(), params.parity_cols());
        // The whole architecture (plans, reports, histograms) indexes
        // codewords 0..rows; an engine that disagrees would panic deep
        // inside encode/decode instead of erroring here.
        if self.layout.codeword_count(rows) != rows {
            return Err(StorageError::InvalidParams(format!(
                "layout {:?} declares {} codewords; this architecture requires one per row ({rows})",
                self.layout.name(),
                self.layout.codeword_count(rows)
            )));
        }

        // Resolve the protection policy into a concrete, validated plan.
        let plan = match self.protection {
            Protection::Uniform => ProtectionPlan::uniform(rows, e),
            Protection::Plan(plan) => {
                plan.validate_for(&params)?;
                plan
            }
            Protection::Auto(planner) => {
                let plan = planner.plan(&params, self.layout.as_ref())?;
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
                self.layout.codeword_positions_all(rows, m, e)
            } else {
                planned_positions(self.layout.as_ref(), rows, m, e, &plan)
            };
            (Some(Arc::new(family)), positions)
        };

        let primers = match self.primers {
            Some((left, right)) => {
                if left.is_empty() || right.is_empty() {
                    return Err(StorageError::InvalidParams(
                        "explicit primers must not be zero-length".into(),
                    ));
                }
                if left.len() != params.primer_len() || right.len() != params.primer_len() {
                    return Err(StorageError::InvalidParams(format!(
                        "primer lengths {}/{} disagree with the geometry's primer_len {}",
                        left.len(),
                        right.len(),
                        params.primer_len()
                    )));
                }
                Some((left, right))
            }
            None if params.primer_len() > 0 => {
                let mut rng = StdRng::seed_from_u64(self.primer_seed);
                let lib = PrimerLibrary::generate(
                    2,
                    params.primer_len(),
                    params.primer_len() / 3,
                    &mut rng,
                )?;
                Some((lib.primers()[0].clone(), lib.primers()[1].clone()))
            }
            None => None,
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
            self.decode_options,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Layout;
    use dna_consensus::IterativeReconstructor;
    use dna_strand::DnaString;

    #[test]
    fn builder_matches_legacy_constructor() {
        let params = CodecParams::tiny().unwrap();
        let a = Pipeline::builder()
            .params(params.clone())
            .layout(Layout::Gini {
                excluded_rows: vec![1],
            })
            .build()
            .unwrap();
        let b = Pipeline::new(
            params,
            Layout::Gini {
                excluded_rows: vec![1],
            },
        )
        .unwrap();
        let payload: Vec<u8> = (0..30).collect();
        assert_eq!(
            a.encode_unit(&payload).unwrap(),
            b.encode_unit(&payload).unwrap()
        );
    }

    #[test]
    fn geometry_overrides_rebuild_params() {
        let p = Pipeline::builder()
            .field(Field::gf16())
            .rows(6)
            .data_cols(10)
            .parity_cols(5)
            .index_bits(4)
            .build()
            .unwrap();
        assert_eq!(p.params(), &CodecParams::tiny().unwrap());

        let widened = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .parity_cols(3)
            .build()
            .unwrap();
        assert_eq!(widened.params().parity_cols(), 3);
        assert_eq!(widened.params().data_cols(), 10);
    }

    #[test]
    fn transcoder_survives_override_rebuild() {
        // Geometry overrides rebuild CodecParams from scratch; the
        // transcoder must be re-applied like primer_len, not silently
        // reset to Direct.
        let p = Pipeline::builder()
            .params(
                CodecParams::tiny()
                    .unwrap()
                    .with_transcoder(TranscoderSpec::Trellis),
            )
            .parity_cols(3)
            .build()
            .unwrap();
        assert_eq!(p.params().transcoder(), TranscoderSpec::Trellis);

        let q = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .transcoder(TranscoderSpec::GcPadded)
            .build()
            .unwrap();
        assert_eq!(q.params().transcoder(), TranscoderSpec::GcPadded);
    }

    #[test]
    fn missing_geometry_is_rejected() {
        assert!(matches!(
            Pipeline::builder().build(),
            Err(StorageError::InvalidParams(_))
        ));
        // Partial overrides without a base are rejected too.
        assert!(Pipeline::builder().rows(6).build().is_err());
    }

    #[test]
    fn bad_rs_parameters_are_rejected_at_build() {
        // 20 + 5 = 25 columns exceed GF(16)'s 15-symbol codewords.
        let err = Pipeline::builder()
            .field(Field::gf16())
            .rows(6)
            .data_cols(20)
            .parity_cols(5)
            .index_bits(6)
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");
    }

    #[test]
    fn out_of_range_excluded_rows_are_rejected() {
        let base = || Pipeline::builder().params(CodecParams::tiny().unwrap());
        assert!(base()
            .layout(Layout::Gini {
                excluded_rows: vec![6]
            })
            .build()
            .is_err());
        assert!(base()
            .layout(Layout::Gini {
                excluded_rows: vec![2, 2]
            })
            .build()
            .is_err());
        assert!(base()
            .layout(Layout::Gini {
                excluded_rows: (0..6).collect()
            })
            .build()
            .is_err());
        assert!(base()
            .layout(Layout::Gini {
                excluded_rows: vec![0, 5]
            })
            .build()
            .is_ok());
    }

    #[test]
    fn zero_length_or_mismatched_primers_are_rejected() {
        let empty = Primer::from_strand(DnaString::new());
        let err = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .primers(empty.clone(), empty)
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");

        // Non-empty primers that disagree with primer_len are also invalid.
        let mut rng = StdRng::seed_from_u64(1);
        let p10 = Primer::from_strand(DnaString::random(10, &mut rng));
        let err = Pipeline::builder()
            .params(CodecParams::tiny().unwrap().with_primer_len(15))
            .primers(p10.clone(), p10.clone())
            .build()
            .unwrap_err();
        assert!(matches!(err, StorageError::InvalidParams(_)), "{err}");

        // Matching lengths are accepted.
        let p15 = Primer::from_strand(DnaString::random(15, &mut rng));
        assert!(Pipeline::builder()
            .params(CodecParams::tiny().unwrap().with_primer_len(15))
            .primers(p15.clone(), p15)
            .build()
            .is_ok());
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
