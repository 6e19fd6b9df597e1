//! `dna-skew`: a reproduction of *Managing Reliability Bias in DNA
//! Storage* (Lin, Tabatabaee, Pote, Jevdjic — ISCA '22).
//!
//! This facade crate re-exports the whole workspace:
//!
//! | Crate | Provides |
//! |---|---|
//! | [`gf`] | GF(2^m) arithmetic and polynomial helpers |
//! | [`reed_solomon`] | errors-and-erasures Reed–Solomon codes |
//! | [`strand`] | bases, strands, codecs, primers, indexes |
//! | [`align`] | edit distance, alignment, read clustering |
//! | [`channel`] | IDS noise, error profiles, Gamma coverage, read pools, the simulated sequencer |
//! | [`consensus`] | trace reconstruction and skew profiling |
//! | [`media`] | images, the JPEG-like codec, PSNR, bit ranking |
//! | [`crypto`] | ChaCha20 for end-to-end encrypted archives |
//! | [`parallel`] | deterministic scoped-thread fan-out |
//! | [`storage`] | the pipeline: Baseline / **Gini** / **DnaMapper** |
//! | [`object`] | streaming object store: survival capsules, manifest, primer-addressed fetch |
//! | [`chaos`] | adversarial fault injection, four-way verdicts, the silent-corruption hunt |
//! | [`server`] | service mode: bounded queue, pooled decode workers, fetch coalescing, loopback TCP |
//!
//! # Quick start
//!
//! Build a pipeline with the fluent builder, store a payload with Gini's
//! diagonal codeword interleaving, sequence it at 3% error and coverage
//! 8, and read it back:
//!
//! ```
//! use dna_skew::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipeline = Pipeline::builder()
//!     .params(CodecParams::tiny()?)
//!     .layout(Layout::Gini { excluded_rows: vec![] })
//!     .build()?;
//! let payload = b"molecule ends are reliable".to_vec();
//! let unit = pipeline.encode_unit(&payload)?;
//! let sequencer = SimulatedSequencer::new(ErrorModel::uniform(0.03), CoverageModel::Fixed(8));
//! let pool = sequencer.sequence_unit(0, unit.strands(), 1);
//! let (decoded, report) = pipeline.decode_unit(&pool.at_coverage(8.0))?;
//! assert_eq!(&decoded[..payload.len()], &payload[..]);
//! assert!(report.is_error_free());
//! # Ok(())
//! # }
//! ```
//!
//! Read generation lives in the channel layer: the
//! [`SimulatedSequencer`](channel::SimulatedSequencer) above is the one
//! read source. A recorded pool (a wetlab trace, a sequencer dump, or a
//! pool captured from an earlier simulation) needs no sequencer — decode
//! a recorded pool with `decode_unit(pool.clusters())`:
//!
//! ```
//! use dna_skew::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipeline = Pipeline::builder().params(CodecParams::tiny()?).build()?;
//! let unit = pipeline.encode_unit(b"recorded")?;
//! // Record a pool once (here: simulated), then decode it later.
//! let sequencer = SimulatedSequencer::new(ErrorModel::ngs(0.003), CoverageModel::Fixed(6));
//! let pool = sequencer.sequence_unit(0, unit.strands(), 7);
//! let (decoded, _) = pipeline.decode_unit(pool.clusters())?;
//! assert_eq!(&decoded[..8], b"recorded");
//! # Ok(())
//! # }
//! ```
//!
//! Batches of units encode and decode in parallel (deterministically —
//! results are byte-identical at any thread count), and experiment
//! harnesses share one [`Scenario`](storage::Scenario) descriptor:
//!
//! ```
//! use dna_skew::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pipeline = Pipeline::builder().params(CodecParams::tiny()?).build()?;
//! let payloads: Vec<Vec<u8>> = (0..4u8).map(|u| vec![u; 30]).collect();
//! let units = pipeline.encode_batch(&payloads)?;
//!
//! let scenario = Scenario::new(ErrorModel::uniform(0.02))
//!     .single_coverage(8.0)
//!     .seed(42);
//! let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
//! let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.clusters().to_vec()).collect();
//! for (u, (decoded, report)) in pipeline.decode_batch(&clusters)?.iter().enumerate() {
//!     assert_eq!(decoded[..30], payloads[u][..], "unit {u}");
//!     assert!(report.is_error_free());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dna_align as align;
pub use dna_channel as channel;
pub use dna_chaos as chaos;
pub use dna_consensus as consensus;
pub use dna_crypto as crypto;
pub use dna_gf as gf;
pub use dna_media as media;
pub use dna_object as object;
pub use dna_parallel as parallel;
pub use dna_reed_solomon as reed_solomon;
pub use dna_server as server;
pub use dna_storage as storage;
pub use dna_strand as strand;

/// The most commonly used types, for one-line imports.
pub mod prelude {
    pub use dna_align::{AnchoredClusterer, GreedyClusterer, ReadClusterer};
    pub use dna_channel::{
        AnonymousPool, BurstModel, ChannelModel, Cluster, CoverageModel, ErrorModel, PcrBias,
        PositionProfile, ReadPool, SimulatedSequencer,
    };
    pub use dna_chaos::{
        builtin_presets, run_campaign, ByteFault, CampaignConfig, ChaosReport, ChaosScenario,
        FaultPlan, PoolFault, Verdict, VerdictTally,
    };
    pub use dna_consensus::{
        BmaOneWay, BmaTwoWay, ConstrainedMedian, IterativeReconstructor, TraceReconstructor,
    };
    pub use dna_media::{GrayImage, JpegLikeCodec};
    pub use dna_object::{FetchOptions, FetchReport, Manifest, ObjectStore, StoreConfig};
    pub use dna_server::{serve_tcp, LocalClient, ServeConfig, Server};
    pub use dna_storage::{
        min_coverage, min_coverage_with, quality_sweep, Archive, ArchiveCodec, CodecParams,
        DecodeReport, FileEntry, Layout, Pipeline, PipelineBuilder, ProtectionPlan,
        ProtectionPlanner, RankingPolicy, RecoveryPipeline, RecoveryReport, RetrieveOptions,
        Scenario, SkewProfile, UnitReads,
    };
    pub use dna_strand::{Base, DnaString};
}
