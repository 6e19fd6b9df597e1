//! Library backing the `dnastore` command-line tool: encode files into
//! DNA strand lists, decode them back, and run end-to-end channel
//! simulations — all through the reliability-skew-aware pipeline.
//!
//! The strand list format is deliberately simple (one `ACGT…` strand per
//! line, `#`-prefixed comments carrying the geometry header), so encoded
//! payloads can be inspected, subsetted, or piped through external tools.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dna_channel::{unit_seed, AnonymousPool, ChannelModel, ErrorModel, ReadPool};
use dna_object::{LayoutKind, ObjectStore, StoreConfig};
use dna_storage::{
    CodecParams, DecodeReport, Pipeline, PlannerWarning, ProtectionPlan, ProtectionPlanner,
    RetrieveOptions, Scenario, SkewProfile, StorageError, UnitReads,
};
use dna_strand::{DnaString, TranscoderSpec};
use std::fmt;

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub enum CliError {
    /// Unknown flag, missing value, or malformed argument.
    Usage(String),
    /// Pipeline-level failure.
    Storage(StorageError),
    /// Malformed strand file.
    Parse(String),
    /// I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(msg) => write!(f, "usage error: {msg}"),
            CliError::Storage(e) => write!(f, "storage error: {e}"),
            CliError::Parse(msg) => write!(f, "parse error: {msg}"),
            CliError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<StorageError> for CliError {
    fn from(e: StorageError) -> Self {
        CliError::Storage(e)
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::Io(e)
    }
}

/// A parsed error-model choice, e.g. `uniform:0.06`, `ngs:0.01`,
/// `nanopore:0.12`, `subs:0.1`, `indels:0.1` — the flat channels
/// [`parse_channel_model`] accepts beside its presets.
fn parse_error_model(s: &str) -> Result<ErrorModel, CliError> {
    let (kind, rate) = s
        .split_once(':')
        .ok_or_else(|| CliError::Usage(format!("error model {s:?} must be kind:rate")))?;
    let p: f64 = rate
        .parse()
        .map_err(|_| CliError::Usage(format!("bad error rate {rate:?}")))?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::Usage(format!("error rate {p} outside [0, 1]")));
    }
    Ok(match kind {
        "uniform" => ErrorModel::uniform(p),
        "ngs" => ErrorModel::ngs(p),
        "nanopore" => ErrorModel::nanopore(p),
        "subs" => ErrorModel::substitutions_only(p),
        "indels" => ErrorModel::indels_only(p),
        "enzymatic" => ErrorModel::enzymatic(p),
        other => {
            return Err(CliError::Usage(format!(
                "unknown error model {other:?} (uniform|ngs|nanopore|subs|indels|enzymatic)"
            )))
        }
    })
}

/// A parsed channel-model preset: `preset` or `preset:rate`, where
/// `preset` is one of
///
/// - `uniform` — flat rates (the paper's methodology; default rate 6%);
/// - `nanopore-decay` — indel-heavy rates decaying along the read
///   (default 8%);
/// - `pcr-skewed` — flat rates + heavy per-strand amplification bias
///   (default 6%);
/// - `dropout` — flat 6% rates; the suffix sets the **whole-strand
///   dropout probability** (default 5%), the knob the preset is named
///   after;
/// - `bursty` — flat rates + contiguous indel bursts (default 6%);
/// - `constraint-stressed` — nanopore rates plus content-dependent
///   multipliers: homopolymer runs past 3 and GC-extreme windows see
///   elevated IDS rates, so constraint-violating strands pay for it at
///   the channel (default 8%).
///
/// Any base error-model `kind:rate` (`uniform`, `ngs`, `nanopore`,
/// `subs`, `indels` or `enzymatic`, e.g. `ngs:0.01`) is also accepted
/// and runs as a flat channel.
pub fn parse_channel_model(s: &str) -> Result<ChannelModel, CliError> {
    let (kind, rate) = match s.split_once(':') {
        Some((k, r)) => (k, Some(r)),
        None => (s, None),
    };
    let parse_rate = |default: f64| -> Result<f64, CliError> {
        let Some(r) = rate else {
            return Ok(default);
        };
        let p: f64 = r
            .parse()
            .map_err(|_| CliError::Usage(format!("bad channel rate {r:?}")))?;
        if !(0.0..=1.0).contains(&p) {
            return Err(CliError::Usage(format!("channel rate {p} outside [0, 1]")));
        }
        Ok(p)
    };
    // Base error-model kinds parse_error_model understands; their own
    // errors (bad rate, missing rate) propagate untouched so the user is
    // not told a valid kind is unknown.
    const BASE_KINDS: [&str; 6] = ["uniform", "ngs", "nanopore", "subs", "indels", "enzymatic"];
    match kind {
        "uniform" => Ok(ChannelModel::uniform(ErrorModel::uniform(parse_rate(
            0.06,
        )?))),
        "nanopore-decay" => Ok(ChannelModel::nanopore_decay(parse_rate(0.08)?)),
        "pcr-skewed" => Ok(ChannelModel::pcr_skewed(parse_rate(0.06)?)),
        "dropout" => ChannelModel::uniform(ErrorModel::uniform(0.06))
            .with_dropout(parse_rate(0.05)?)
            .map_err(|e| CliError::Usage(e.to_string())),
        "bursty" => Ok(ChannelModel::bursty(parse_rate(0.06)?)),
        "constraint-stressed" => Ok(ChannelModel::constraint_stressed(parse_rate(0.08)?)),
        _ if BASE_KINDS.contains(&kind) => parse_error_model(s).map(ChannelModel::uniform),
        _ => Err(CliError::Usage(format!(
            "unknown channel model {s:?} (uniform|nanopore-decay|pcr-skewed|dropout|bursty|\
             constraint-stressed, or an error model kind:rate)"
        ))),
    }
}

/// Parses `--transcoder direct|gc-padded|trellis`.
pub fn parse_transcoder(s: &str) -> Result<TranscoderSpec, CliError> {
    TranscoderSpec::parse(s).ok_or_else(|| {
        let names: Vec<&str> = TranscoderSpec::ALL.iter().map(|t| t.name()).collect();
        CliError::Usage(format!(
            "unknown transcoder {s:?} (expected {})",
            names.join("|")
        ))
    })
}

/// Parses `--layout baseline|gini|dnamapper` (Gini without excluded
/// rows: the strand-list and pool headers record only the kind).
pub fn parse_layout(s: &str) -> Result<LayoutKind, CliError> {
    match s {
        "baseline" => Ok(LayoutKind::Baseline),
        "gini" => Ok(LayoutKind::Gini),
        "dnamapper" => Ok(LayoutKind::DnaMapper),
        other => Err(CliError::Usage(format!(
            "unknown layout {other:?} (expected baseline|gini|dnamapper)"
        ))),
    }
}

/// The protection policy selected on the command line (`--plan`).
#[derive(Debug, Clone, PartialEq)]
pub enum PlanChoice {
    /// Every codeword at the geometry's parity width (the default).
    Uniform,
    /// Plan from the channel's analytic skew profile at the simulated
    /// coverage, with the channel's dropout as the erasure assumption.
    Auto,
    /// An explicit plan loaded from a file (see [`parse_plan_file`]).
    Plan(ProtectionPlan),
}

/// Parses `--plan auto|uniform|file:<path>`; the `file:` variant reads
/// and parses the plan file immediately.
pub fn parse_plan_arg(s: &str) -> Result<PlanChoice, CliError> {
    match s {
        "uniform" => Ok(PlanChoice::Uniform),
        "auto" => Ok(PlanChoice::Auto),
        other => match other.strip_prefix("file:") {
            Some(path) => {
                let text = std::fs::read_to_string(path)?;
                Ok(PlanChoice::Plan(parse_plan_file(&text)?))
            }
            None => Err(CliError::Usage(format!(
                "unknown plan {other:?} (expected auto|uniform|file:<path>)"
            ))),
        },
    }
}

/// Parses a plan file: whitespace-separated per-codeword parity counts,
/// `#` comments ignored.
pub fn parse_plan_file(text: &str) -> Result<ProtectionPlan, CliError> {
    let mut parities = Vec::new();
    for line in text.lines() {
        let line = line.split('#').next().unwrap_or("");
        for token in line.split_whitespace() {
            let parity: usize = token
                .parse()
                .map_err(|_| CliError::Parse(format!("bad parity count {token:?}")))?;
            parities.push(parity);
        }
    }
    ProtectionPlan::from_parities(parities)
        .map_err(|e| CliError::Parse(format!("invalid plan file: {e}")))
}

/// The laptop-scale pipeline every CLI subcommand uses, built through the
/// validated builder path.
fn laptop_pipeline(layout: LayoutKind) -> Result<Pipeline, CliError> {
    Ok(Pipeline::builder()
        .params(CodecParams::laptop()?)
        .layout(layout.to_layout())
        .build()?)
}

/// A laptop-scale pipeline with an optional parity-width override and a
/// protection policy. `--parity` below the default 47 leaves field-length
/// headroom, which is what lets `--plan auto` move parity between rows;
/// at the default 47 the laptop geometry is field-saturated and `auto`
/// falls back to the uniform plan with a [`PlannerWarning`].
fn planned_pipeline(
    layout: LayoutKind,
    parity_cols: Option<usize>,
    plan: &PlanChoice,
    channel: &ChannelModel,
    coverage: f64,
    transcoder: TranscoderSpec,
) -> Result<(Pipeline, Vec<PlannerWarning>), CliError> {
    let params = match parity_cols {
        Some(e) => {
            let base = CodecParams::laptop()?;
            CodecParams::new(
                base.field().clone(),
                base.rows(),
                base.data_cols(),
                e,
                base.index_bits(),
            )?
        }
        None => CodecParams::laptop()?,
    }
    .with_transcoder(transcoder);
    let builder = Pipeline::builder()
        .params(params.clone())
        .layout(layout.to_layout());
    let (builder, warnings) = match plan {
        PlanChoice::Uniform => (builder, Vec::new()),
        PlanChoice::Plan(plan) => (builder.protection(plan.clone()), Vec::new()),
        PlanChoice::Auto => {
            let profile = SkewProfile::analytic(channel, &params).attenuated(coverage);
            let planner = ProtectionPlanner::new(profile)
                .erasure_rate(channel.dropout())
                .map_err(CliError::Storage)?;
            // Plan eagerly (rather than letting the builder resolve the
            // planner) so non-fatal conditions reach the user.
            let (plan, warnings) = planner
                .plan_with_warnings(&params, &layout.to_layout())
                .map_err(CliError::Storage)?;
            (builder.protection(plan), warnings)
        }
    };
    Ok((builder.build()?, warnings))
}

/// Splits a payload across as many units as needed and encodes them as
/// one parallel batch.
fn encode_units(pipeline: &Pipeline, payload: &[u8]) -> Result<Vec<Vec<DnaString>>, CliError> {
    Ok(pipeline
        .encode_chunked(payload)?
        .into_iter()
        .map(|unit| unit.strands().to_vec())
        .collect())
}

/// Serializes units into the strand-list text format.
pub fn to_strand_list(layout: LayoutKind, payload_len: usize, units: &[Vec<DnaString>]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# dnastore v1 layout={layout:?} bytes={payload_len} units={}\n",
        units.len()
    ));
    for (u, strands) in units.iter().enumerate() {
        out.push_str(&format!("# unit {u}\n"));
        for s in strands {
            out.push_str(&s.to_string());
            out.push('\n');
        }
    }
    out
}

/// Parses the strand-list text format back into header + units.
pub fn from_strand_list(text: &str) -> Result<(LayoutKind, usize, Vec<Vec<DnaString>>), CliError> {
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| CliError::Parse("empty strand file".into()))?;
    if !header.starts_with("# dnastore v1 ") {
        return Err(CliError::Parse("missing dnastore v1 header".into()));
    }
    let mut layout = LayoutKind::Baseline;
    let mut payload_len = 0usize;
    for field in header
        .trim_start_matches("# dnastore v1 ")
        .split_whitespace()
    {
        if let Some(v) = field.strip_prefix("layout=") {
            layout = match v {
                "Baseline" => LayoutKind::Baseline,
                "Gini" => LayoutKind::Gini,
                "DnaMapper" => LayoutKind::DnaMapper,
                other => return Err(CliError::Parse(format!("bad layout {other:?}"))),
            };
        } else if let Some(v) = field.strip_prefix("bytes=") {
            payload_len = v
                .parse()
                .map_err(|_| CliError::Parse(format!("bad byte count {v:?}")))?;
        }
    }
    let mut units: Vec<Vec<DnaString>> = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with("# unit") {
            units.push(Vec::new());
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let strand: DnaString = line
            .parse()
            .map_err(|e| CliError::Parse(format!("bad strand line: {e}")))?;
        if units.is_empty() {
            units.push(Vec::new());
        }
        units
            .last_mut()
            .expect("at least one unit after push")
            .push(strand);
    }
    if units.is_empty() {
        return Err(CliError::Parse("no strands in file".into()));
    }
    Ok((layout, payload_len, units))
}

/// `encode`: file bytes → strand list.
pub fn encode(payload: &[u8], layout: LayoutKind) -> Result<String, CliError> {
    let pipeline = laptop_pipeline(layout)?;
    let units = encode_units(&pipeline, payload)?;
    Ok(to_strand_list(layout, payload.len(), &units))
}

/// `decode`: strand list (perfect molecules, coverage 1) → file bytes.
/// Each listed strand is treated as one error-free read of its molecule;
/// units decode as one parallel batch.
pub fn decode(text: &str) -> Result<(Vec<u8>, Vec<DecodeReport>), CliError> {
    let (layout, payload_len, units) = from_strand_list(text)?;
    let pipeline = laptop_pipeline(layout)?;
    let capacity = units.len().saturating_mul(pipeline.payload_capacity());
    if payload_len > capacity {
        return Err(CliError::Parse(format!(
            "header claims {payload_len} bytes but {} unit(s) hold at most {capacity}",
            units.len()
        )));
    }
    let pools: Vec<ReadPool> = units.into_iter().map(ReadPool::from_strands).collect();
    let reads: Vec<UnitReads> = pools
        .iter()
        .map(|pool| UnitReads::Clusters(pool.clusters()))
        .collect();
    let mut payload = Vec::with_capacity(payload_len);
    let mut reports = Vec::with_capacity(reads.len());
    for (bytes, report) in pipeline.decode(&reads, &RetrieveOptions::default(), None)? {
        payload.extend_from_slice(&bytes);
        reports.push(report);
    }
    payload.truncate(payload_len);
    Ok((payload, reports))
}

/// Summary of a `simulate` run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationOutcome {
    /// Whether every byte round-tripped exactly.
    pub exact: bool,
    /// Fraction of payload bytes recovered correctly.
    pub byte_accuracy: f64,
    /// Total corrected symbols across all units.
    pub corrected: usize,
    /// Total failed codewords across all units.
    pub failed_codewords: usize,
    /// Total molecules lost (no surviving reads).
    pub lost_molecules: usize,
}

/// Everything a planned simulation produced: the outcome, the plan the
/// pipeline actually ran, and the merged decode report (per-row
/// histograms included — the CLI's `--tsv` output).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulationRun {
    /// The round-trip outcome.
    pub outcome: SimulationOutcome,
    /// The protection plan in effect (uniform unless `--plan` said
    /// otherwise).
    pub plan: ProtectionPlan,
    /// All unit reports folded into one ([`DecodeReport::merge_from`]).
    pub report: DecodeReport,
    /// Non-fatal conditions the planner worked around (e.g. a
    /// field-saturated geometry forcing the uniform fallback).
    pub warnings: Vec<PlannerWarning>,
}

/// `simulate`: full encode → channel → decode round trip over the batch
/// pipeline under a [`ChannelModel`] (position profiles, dropout, PCR
/// bias, bursts — the `--channel` presets), with a protection policy,
/// optional parity width, and a byte→base transcoder (`--plan` /
/// `--parity` / `--transcoder`).
#[allow(clippy::too_many_arguments)]
pub fn simulate_planned(
    payload: &[u8],
    layout: LayoutKind,
    channel: ChannelModel,
    coverage: f64,
    seed: u64,
    plan: &PlanChoice,
    parity_cols: Option<usize>,
    transcoder: TranscoderSpec,
) -> Result<SimulationRun, CliError> {
    let scenario = Scenario::with_channel(channel.clone())
        .single_coverage(coverage)
        .seed(seed);
    scenario.validate()?;
    let (pipeline, warnings) =
        planned_pipeline(layout, parity_cols, plan, &channel, coverage, transcoder)?;
    let units = pipeline.encode_chunked(payload)?;
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let per_unit_clusters: Vec<Vec<dna_channel::Cluster>> =
        pools.iter().map(|p| p.at_coverage(coverage)).collect();
    let mut decoded = Vec::with_capacity(payload.len());
    let mut merged = DecodeReport::default();
    let cap = pipeline.payload_capacity();
    for (u, (bytes, report)) in pipeline
        .decode_batch(&per_unit_clusters)?
        .into_iter()
        .enumerate()
    {
        let lo = (u * cap).min(payload.len());
        let hi = ((u + 1) * cap).min(payload.len());
        decoded.extend_from_slice(&bytes[..hi - lo]);
        merged.merge_from(&report);
    }
    Ok(scored_run(&pipeline, payload, &decoded, merged, warnings))
}

/// `simulate --unlabeled`: [`simulate_planned`]'s round trip (uniform
/// plan) over *unlabeled* pools: reads are anonymized (labels dropped,
/// orientation randomized, order shuffled) after sequencing, and the
/// pipeline must orient and route them back (its recovery stage,
/// [`RecoveryPipeline::anchored`](dna_storage::RecoveryPipeline::anchored))
/// before decoding, reading each index
/// through `transcoder`. A
/// unit whose pool cannot be recovered at all decodes as the labeled
/// path decodes a unit with no reads, so both report the same failed
/// codewords and lost molecules.
///
/// Strands are wrapped in 16-base primers — the orientation anchor every
/// real unlabeled-retrieval system relies on — so the encoded form
/// differs from the labeled `simulate` run at the same settings. The
/// returned [`SimulationRun::report`] carries the merged
/// [`RecoveryReport`](dna_storage::RecoveryReport) in its `recovery`
/// field.
pub fn simulate_unlabeled(
    payload: &[u8],
    layout: LayoutKind,
    channel: ChannelModel,
    coverage: f64,
    seed: u64,
    transcoder: TranscoderSpec,
) -> Result<SimulationRun, CliError> {
    let params = CodecParams::laptop()?
        .with_primer_len(16)
        .with_transcoder(transcoder);
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(layout.to_layout())
        .build()?;
    let scenario = Scenario::with_channel(channel)
        .single_coverage(coverage)
        .seed(seed)
        .unlabeled();
    scenario.validate()?;
    let units = pipeline.encode_chunked(payload)?;
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let anonymous: Vec<AnonymousPool> = pools
        .iter()
        .enumerate()
        .map(|(u, p)| {
            AnonymousPool::from_clusters(
                &p.at_coverage(coverage),
                unit_seed(scenario.anonymize_seed(0), u),
            )
        })
        .collect();
    let mut decoded = Vec::with_capacity(payload.len());
    let mut merged = DecodeReport::default();
    let cap = pipeline.payload_capacity();
    for (u, anon) in anonymous.iter().enumerate() {
        let lo = (u * cap).min(payload.len());
        let hi = ((u + 1) * cap).min(payload.len());
        let (bytes, report) = match pipeline.decode_pool(anon) {
            Ok(decoded) => decoded,
            // A unit whose pool could not be recovered at all is a
            // failed retrieval, not a crash — exactly the
            // marginal-coverage regime the flag measures. Decoding it
            // from no reads loses every molecule and fails every
            // codeword, as the labeled path reports the same loss.
            Err(StorageError::EmptyPool) | Err(StorageError::AllReadsOrphaned { .. }) => {
                pipeline.decode_unit(&[])?
            }
            Err(e) => return Err(e.into()),
        };
        decoded.extend_from_slice(&bytes[..hi - lo]);
        merged.merge_from(&report);
    }
    Ok(scored_run(&pipeline, payload, &decoded, merged, Vec::new()))
}

/// Scores a simulation's decoded bytes against the original payload and
/// packages them with the merged report and the plan `pipeline` ran.
fn scored_run(
    pipeline: &Pipeline,
    payload: &[u8],
    decoded: &[u8],
    report: DecodeReport,
    warnings: Vec<PlannerWarning>,
) -> SimulationRun {
    let matches = payload.iter().zip(decoded).filter(|(a, b)| a == b).count();
    SimulationRun {
        outcome: SimulationOutcome {
            exact: decoded == payload,
            byte_accuracy: if payload.is_empty() {
                1.0
            } else {
                matches as f64 / payload.len() as f64
            },
            corrected: report.total_corrected(),
            failed_codewords: report.failed_codewords(),
            lost_molecules: report.lost_columns,
        },
        plan: pipeline.protection_plan().clone(),
        report,
        warnings,
    }
}

/// Opens the object store at `dir` for `pack`, creating a laptop-scale
/// pool on first use.
pub fn open_or_create_store(dir: &str) -> Result<ObjectStore, CliError> {
    open_or_create_store_with(dir, TranscoderSpec::Direct)
}

/// [`open_or_create_store`] with a byte→base transcoder for pool
/// creation (`pack --transcoder`). An *existing* pool keeps the
/// transcoder recorded in its header: asking for a different one is a
/// usage error rather than a silent mismatch.
pub fn open_or_create_store_with(
    dir: &str,
    transcoder: TranscoderSpec,
) -> Result<ObjectStore, CliError> {
    if std::path::Path::new(dir)
        .join(dna_object::POOL_FILE)
        .exists()
    {
        let store = ObjectStore::open(dir)?;
        let recorded = store.header().transcoder;
        if recorded != transcoder && transcoder != TranscoderSpec::Direct {
            return Err(CliError::Usage(format!(
                "pool at {dir} was written with the {} transcoder; --transcoder {} \
                 cannot apply to an existing pool",
                recorded.name(),
                transcoder.name()
            )));
        }
        Ok(store)
    } else {
        let mut config = StoreConfig::laptop()?;
        config.params = config.params.with_transcoder(transcoder);
        Ok(ObjectStore::create(dir, config)?)
    }
}

/// Resolves a `fetch` target: a numeric object id, or a live object name.
pub fn resolve_object(store: &ObjectStore, target: &str) -> Result<u64, CliError> {
    if let Ok(id) = target.parse::<u64>() {
        return Ok(id);
    }
    store
        .object_id(target)
        .ok_or_else(|| CliError::Usage(format!("no live object named {target:?}")))
}

/// The file `fetch` writes when no `--output` is given: the object's
/// stored name, accepted only when it is one plain file name in the
/// working directory. Names come from the pool — any `PUT` client, or a
/// crafted pool or sidecar — so `..`, absolute paths and anything with a
/// separator are refused rather than followed.
pub fn default_output_name(name: &str) -> Result<&str, CliError> {
    let mut components = std::path::Path::new(name).components();
    match (components.next(), components.next()) {
        (Some(std::path::Component::Normal(_)), None) => Ok(name),
        _ => Err(CliError::Usage(format!(
            "object name {name:?} is not a plain file name; pass --output <file>"
        ))),
    }
}

/// `pack`: streams each file into the store under its base name,
/// returning `(id, name, bytes)` per file.
pub fn pack_files(
    dir: &str,
    paths: &[String],
    transcoder: TranscoderSpec,
) -> Result<Vec<(u64, String, u64)>, CliError> {
    let mut store = open_or_create_store_with(dir, transcoder)?;
    let mut packed = Vec::with_capacity(paths.len());
    for path in paths {
        let name = std::path::Path::new(path)
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| CliError::Usage(format!("cannot derive an object name from {path:?}")))?
            .to_string();
        let mut file = std::io::BufReader::new(std::fs::File::open(path)?);
        let id = store.put(&name, &mut file)?;
        let bytes = store
            .manifest()
            .object(id)
            .map(|o| o.bytes)
            .unwrap_or_default();
        packed.push((id, name, bytes));
    }
    Ok(packed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let payload: Vec<u8> = (0..9000u32).map(|i| (i * 31 % 256) as u8).collect();
        for layout in [
            LayoutKind::Baseline,
            LayoutKind::Gini,
            LayoutKind::DnaMapper,
        ] {
            let text = encode(&payload, layout).unwrap();
            assert!(text.starts_with("# dnastore v1"));
            let (decoded, reports) = decode(&text).unwrap();
            assert_eq!(decoded, payload, "{layout:?}");
            assert!(reports.iter().all(DecodeReport::is_error_free));
            assert_eq!(reports.len(), 2, "9000 bytes need two laptop units");
        }
    }

    #[test]
    fn strand_list_format_is_stable_and_parseable() {
        let payload = b"format stability".to_vec();
        let text = encode(&payload, LayoutKind::Gini).unwrap();
        let (layout, len, units) = from_strand_list(&text).unwrap();
        assert_eq!(layout, LayoutKind::Gini);
        assert_eq!(len, payload.len());
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].len(), 255);
        assert!(units[0].iter().all(|s| s.len() == 124));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(from_strand_list("").is_err());
        assert!(from_strand_list("not a header\nACGT\n").is_err());
        assert!(from_strand_list("# dnastore v1 layout=Baseline bytes=4\nACXT\n").is_err());
    }

    #[test]
    fn decode_rejects_a_byte_count_the_units_cannot_hold() {
        let text = encode(b"short", LayoutKind::Gini).unwrap();
        let with_bytes = |bytes: &str| text.replacen("bytes=5 ", &format!("bytes={bytes} "), 1);
        // One laptop unit holds 6240 bytes: exactly full still decodes
        // (zero padding), while a larger claim — or one that overflows an
        // allocation — is a parse error, not a panic or a short file.
        let (full, _) = decode(&with_bytes("6240")).unwrap();
        assert_eq!(full.len(), 6240);
        for bytes in ["6241", "100000", "18446744073709551615"] {
            let err = decode(&with_bytes(bytes)).unwrap_err();
            assert!(matches!(err, CliError::Parse(_)), "bytes={bytes}: {err}");
            assert!(err.to_string().contains("hold at most 6240"), "{err}");
        }
    }

    #[test]
    fn layout_parsing() {
        assert_eq!(parse_layout("baseline").unwrap(), LayoutKind::Baseline);
        assert_eq!(parse_layout("gini").unwrap(), LayoutKind::Gini);
        assert_eq!(parse_layout("dnamapper").unwrap(), LayoutKind::DnaMapper);
        assert!(matches!(parse_layout("Gini"), Err(CliError::Usage(_))));
    }

    #[test]
    fn error_model_parsing() {
        assert!(parse_error_model("uniform:0.06").is_ok());
        assert!(parse_error_model("nanopore:0.12").is_ok());
        assert!(parse_error_model("subs:1.5").is_err());
        assert!(parse_error_model("uniform").is_err());
        assert!(parse_error_model("martian:0.1").is_err());
        let m = parse_error_model("indels:0.1").unwrap();
        assert_eq!(m.indel_fraction(), 1.0);
    }

    #[test]
    fn channel_model_parsing() {
        let nano = parse_channel_model("nanopore-decay:0.12").unwrap();
        assert!(!nano.profile().is_uniform());
        assert!((nano.base().total_rate() - 0.12).abs() < 1e-9);
        assert!(parse_channel_model("pcr-skewed").unwrap().pcr().is_some());
        // The dropout suffix sets the strand-loss probability itself.
        assert_eq!(parse_channel_model("dropout:0.04").unwrap().dropout(), 0.04);
        assert_eq!(parse_channel_model("dropout").unwrap().dropout(), 0.05);
        let err = parse_channel_model("dropout:1.0").unwrap_err();
        assert!(err.to_string().contains("outside [0, 1)"), "{err}");
        assert!(parse_channel_model("bursty").unwrap().burst().is_some());
        assert!(parse_channel_model("uniform:0.06").unwrap().is_uniform());
        // Plain error-model kinds still parse, as flat channels — and
        // their own errors surface, not "unknown channel model".
        assert!(parse_channel_model("ngs:0.01").unwrap().is_uniform());
        let err = parse_channel_model("ngs:5").unwrap_err();
        assert!(err.to_string().contains("outside [0, 1]"), "{err}");
        assert!(parse_channel_model("nanopore-decay:1.5").is_err());
        let err = parse_channel_model("martian").unwrap_err();
        assert!(err.to_string().contains("unknown channel model"), "{err}");
        assert!(parse_channel_model("martian:0.1").is_err());
        let stressed = parse_channel_model("constraint-stressed").unwrap();
        assert!(stressed.constraint_stress().is_some());
        assert!((stressed.base().total_rate() - 0.08).abs() < 1e-9);
    }

    #[test]
    fn transcoder_parsing() {
        assert_eq!(parse_transcoder("direct").unwrap(), TranscoderSpec::Direct);
        assert_eq!(
            parse_transcoder("gc-padded").unwrap(),
            TranscoderSpec::GcPadded
        );
        assert_eq!(
            parse_transcoder("trellis").unwrap(),
            TranscoderSpec::Trellis
        );
        let err = parse_transcoder("base5").unwrap_err();
        assert!(err.to_string().contains("unknown transcoder"), "{err}");
        // The retired rotation code is no longer selectable.
        let err = parse_transcoder("rotation").unwrap_err();
        assert!(err.to_string().contains("unknown transcoder"), "{err}");
    }

    #[test]
    fn every_transcoder_simulates_end_to_end() {
        let payload: Vec<u8> = (0..2000u32).map(|i| (i * 29 % 256) as u8).collect();
        for spec in TranscoderSpec::ALL {
            let run = simulate_planned(
                &payload,
                LayoutKind::Gini,
                parse_channel_model("uniform:0.03").unwrap(),
                14.0,
                9,
                &PlanChoice::Uniform,
                None,
                spec,
            )
            .unwrap();
            assert!(run.outcome.exact, "{spec:?}: {:?}", run.outcome);
        }
    }

    #[test]
    fn packed_pool_records_its_transcoder() {
        let dir = std::env::temp_dir().join(format!(
            "dnastore-cli-transcoded-pack-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("doc.bin");
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 11 % 256) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let store_dir = dir.join("pool");
        let packed = pack_files(
            store_dir.to_str().unwrap(),
            &[input.to_str().unwrap().to_string()],
            TranscoderSpec::Trellis,
        )
        .unwrap();
        let id = packed[0].0;

        // The pool header carries the transcoder; a plain reopen decodes.
        let store = ObjectStore::open(&store_dir).unwrap();
        assert_eq!(store.header().transcoder, TranscoderSpec::Trellis);
        assert_eq!(store.header().version, 2);
        assert_eq!(store.get(id).unwrap(), payload);
        drop(store);

        // Asking an existing pool for a different non-direct transcoder
        // is a loud usage error, not a silent mismatch.
        let err = open_or_create_store_with(store_dir.to_str().unwrap(), TranscoderSpec::GcPadded)
            .unwrap_err();
        assert!(err.to_string().contains("cannot apply"), "{err}");
        // The direct default means "whatever the pool says" on reopen.
        let store =
            open_or_create_store_with(store_dir.to_str().unwrap(), TranscoderSpec::Direct).unwrap();
        assert_eq!(store.header().transcoder, TranscoderSpec::Trellis);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn channel_presets_simulate_end_to_end() {
        let payload: Vec<u8> = (0..2000u32).map(|i| (i * 13 % 256) as u8).collect();
        for preset in ["nanopore-decay:0.06", "pcr-skewed:0.03", "dropout:0.03"] {
            let channel = parse_channel_model(preset).unwrap();
            let outcome = simulate_planned(
                &payload,
                LayoutKind::Gini,
                channel,
                20.0,
                11,
                &PlanChoice::Uniform,
                None,
                TranscoderSpec::Direct,
            )
            .unwrap()
            .outcome;
            assert!(
                outcome.byte_accuracy > 0.95,
                "{preset}: accuracy {outcome:?}"
            );
        }
    }

    #[test]
    fn unlabeled_simulation_recovers_and_reports() {
        let payload: Vec<u8> = (0..2000u32).map(|i| (i * 29 % 256) as u8).collect();
        let channel = parse_channel_model("uniform:0.02").unwrap();
        let run = simulate_unlabeled(
            &payload,
            LayoutKind::Gini,
            channel,
            10.0,
            19,
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(
            run.outcome.byte_accuracy > 0.98,
            "unlabeled recovery collapsed: {:?}",
            run.outcome
        );
        let recovery = run.report.recovery.expect("unlabeled runs report recovery");
        assert!(recovery.total_reads > 1000);
        // This payload repeats with period 128 columns, so half the
        // molecules have an identical-payload twin differing only in
        // the 4-base index — only routing's per-read index decode tells
        // them apart. Purity survives, if not unscathed.
        assert!(recovery.purity().expect("simulated pools are truth-scored") > 0.85);
        assert_eq!(
            recovery.coverage_histogram.iter().sum::<usize>(),
            recovery.assigned_reads()
        );
    }

    #[test]
    fn unlabeled_simulation_decodes_every_transcoder_exactly() {
        // The demultiplexer reads each index through the transcoder that
        // wrote it; a direct 2-bit read of a trellis index names the
        // wrong column for almost every read.
        let payload: Vec<u8> = (0..1500u32).map(|i| (i * 29 % 256) as u8).collect();
        for spec in TranscoderSpec::ALL {
            let run = simulate_unlabeled(
                &payload,
                LayoutKind::Gini,
                parse_channel_model("uniform:0.01").unwrap(),
                10.0,
                5,
                spec,
            )
            .unwrap();
            assert!(run.outcome.exact, "{spec}: {:?}", run.outcome);
            assert_eq!(run.outcome.failed_codewords, 0, "{spec}");
        }
    }

    #[test]
    fn unlabeled_simulation_degrades_gracefully_when_nothing_survives() {
        // dropout 0.999 starves the pool outright: an unrecoverable unit
        // (EmptyPool / AllReadsOrphaned) must count as a failed
        // retrieval — zero recovered bytes, all molecules lost — not
        // abort the run with an error.
        let payload: Vec<u8> = (0..100u32).map(|i| i as u8).collect();
        let channel = parse_channel_model("dropout:0.999").unwrap();
        let run = simulate_unlabeled(
            &payload,
            LayoutKind::Baseline,
            channel,
            4.0,
            0,
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(!run.outcome.exact);
        assert!(run.outcome.byte_accuracy < 0.1, "{:?}", run.outcome);
        assert_eq!(run.outcome.lost_molecules, 255);
    }

    #[test]
    fn plan_files_parse_with_comments_and_reject_garbage() {
        let plan = parse_plan_file("# hot tail\n10 10 12\n14 # inline\n").unwrap();
        assert_eq!(plan.parities(), &[10, 10, 12, 14]);
        assert!(parse_plan_file("").is_err());
        assert!(parse_plan_file("# only comments\n").is_err());
        assert!(parse_plan_file("3 x 5").is_err());
        assert!(parse_plan_file("3 -2").is_err());
    }

    #[test]
    fn plan_args_parse() {
        assert_eq!(parse_plan_arg("uniform").unwrap(), PlanChoice::Uniform);
        assert_eq!(parse_plan_arg("auto").unwrap(), PlanChoice::Auto);
        assert!(parse_plan_arg("martian").is_err());
        assert!(parse_plan_arg("file:/nonexistent/plan.txt").is_err());
    }

    #[test]
    fn auto_plan_simulates_and_reports_classes() {
        let payload: Vec<u8> = (0..3000u32).map(|i| (i * 17 % 256) as u8).collect();
        let channel = parse_channel_model("nanopore-decay:0.06").unwrap();
        // Parity 32 leaves 255 − 208 − 32 = 15 symbols of headroom per
        // codeword for the planner to reallocate.
        let run = simulate_planned(
            &payload,
            LayoutKind::Baseline,
            channel,
            16.0,
            13,
            &PlanChoice::Auto,
            Some(32),
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(!run.plan.is_uniform(), "skewed channel must skew the plan");
        assert!(
            run.warnings.is_empty(),
            "headroom plan warns: {:?}",
            run.warnings
        );
        assert!(run.plan.total_parity() <= 30 * 32, "density budget");
        assert!(run.plan.max_parity() <= 47, "field cap");
        // Per-row histograms exist and the TSV helper lists every row.
        assert_eq!(run.report.row_errors.len(), 30);
        assert_eq!(run.report.to_tsv().lines().count(), 31);
        assert!(!run.report.per_class(&run.plan).is_empty());

        // The uniform run at the same density decodes through the legacy
        // path and reports a single class.
        let uniform = simulate_planned(
            &payload,
            LayoutKind::Baseline,
            parse_channel_model("nanopore-decay:0.06").unwrap(),
            16.0,
            13,
            &PlanChoice::Uniform,
            Some(32),
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(uniform.plan.is_uniform_at(32));
    }

    #[test]
    fn auto_plan_on_saturated_geometry_falls_back_to_uniform_with_warning() {
        // Default laptop geometry: 208 data + 47 parity = 255 fills
        // GF(256) exactly — zero headroom. Before the fix, `--plan auto`
        // here silently produced a plan with nothing to reallocate; now
        // it must fall back to uniform and say so.
        let payload: Vec<u8> = (0..600u32).map(|i| (i * 19 % 256) as u8).collect();
        let run = simulate_planned(
            &payload,
            LayoutKind::Baseline,
            parse_channel_model("nanopore-decay:0.06").unwrap(),
            16.0,
            13,
            &PlanChoice::Auto,
            None, // default parity 47: saturated
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(run.plan.is_uniform_at(47), "{:?}", run.plan);
        assert_eq!(
            run.warnings,
            vec![PlannerWarning::SaturatedGeometry {
                group_order: 255,
                data_cols: 208,
                parity_cols: 47,
            }]
        );
        assert!(run.warnings[0].to_string().contains("field-saturated"));

        // The fallback is uniform, which every layout supports — so a
        // saturated `auto` on Gini succeeds instead of erroring out.
        let gini = simulate_planned(
            &payload,
            LayoutKind::Gini,
            parse_channel_model("nanopore-decay:0.06").unwrap(),
            16.0,
            13,
            &PlanChoice::Auto,
            None,
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert!(gini.plan.is_uniform_at(47));
        assert_eq!(gini.warnings.len(), 1);
    }

    #[test]
    fn auto_plan_on_gini_is_a_clean_error() {
        let err = simulate_planned(
            &[1, 2, 3],
            LayoutKind::Gini,
            parse_channel_model("nanopore-decay:0.06").unwrap(),
            12.0,
            1,
            &PlanChoice::Auto,
            Some(32),
            TranscoderSpec::Direct,
        )
        .unwrap_err();
        assert!(err.to_string().contains("unequal protection"), "{err}");
    }

    #[test]
    fn pack_and_fetch_round_trip_through_the_store() {
        let dir = std::env::temp_dir().join(format!("dnastore-cli-pack-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let input = dir.join("hello.bin");
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7 % 256) as u8).collect();
        std::fs::write(&input, &payload).unwrap();

        let store_dir = dir.join("pool");
        let packed = pack_files(
            store_dir.to_str().unwrap(),
            &[input.to_str().unwrap().to_string()],
            TranscoderSpec::Direct,
        )
        .unwrap();
        assert_eq!(packed.len(), 1);
        let (id, name, bytes) = &packed[0];
        assert_eq!(name, "hello.bin");
        assert_eq!(*bytes, payload.len() as u64);

        let store = ObjectStore::open(&store_dir).unwrap();
        assert_eq!(resolve_object(&store, &id.to_string()).unwrap(), *id);
        assert_eq!(resolve_object(&store, "hello.bin").unwrap(), *id);
        assert!(resolve_object(&store, "missing").is_err());
        assert_eq!(store.get(*id).unwrap(), payload);

        // Packing into the same directory appends to the existing pool.
        let again = pack_files(
            store_dir.to_str().unwrap(),
            &[input.to_str().unwrap().to_string()],
            TranscoderSpec::Direct,
        );
        assert!(again.is_err(), "duplicate live name is rejected");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_default_output_is_one_plain_file_name() {
        assert_eq!(default_output_name("a.bin").unwrap(), "a.bin");
        for name in ["../x", "/tmp/x", "a/b", "..", ".", ""] {
            let err = default_output_name(name).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{name:?}: {err}");
            assert!(err.to_string().contains("--output"), "{name:?}: {err}");
        }
    }

    #[test]
    fn simulation_reports_sane_outcomes() {
        let payload: Vec<u8> = (0..4000u32).map(|i| (i % 256) as u8).collect();
        let run = |model, coverage| {
            simulate_planned(
                &payload,
                LayoutKind::Gini,
                ChannelModel::uniform(model),
                coverage,
                7,
                &PlanChoice::Uniform,
                None,
                TranscoderSpec::Direct,
            )
            .unwrap()
            .outcome
        };
        let clean = run(ErrorModel::noiseless(), 3.0);
        assert!(clean.exact);
        assert_eq!(clean.byte_accuracy, 1.0);
        let noisy = run(ErrorModel::uniform(0.06), 14.0);
        assert!(
            noisy.exact,
            "gini at 6%/coverage 14 should decode: {noisy:?}"
        );
        assert!(noisy.corrected > 0);
    }

    #[test]
    fn zero_coverage_loses_everything_and_absurd_coverage_is_rejected() {
        let payload: Vec<u8> = (0..600u32).map(|i| (i % 256) as u8).collect();
        let channel = || ChannelModel::uniform(ErrorModel::uniform(0.05));
        let labeled = |coverage| {
            simulate_planned(
                &payload,
                LayoutKind::Gini,
                channel(),
                coverage,
                3,
                &PlanChoice::Uniform,
                None,
                TranscoderSpec::Direct,
            )
        };
        let unlabeled = |coverage| {
            simulate_unlabeled(
                &payload,
                LayoutKind::Gini,
                channel(),
                coverage,
                3,
                TranscoderSpec::Direct,
            )
        };
        let (labeled_run, unlabeled_run) = (labeled(0.0).unwrap(), unlabeled(0.0).unwrap());
        for run in [&labeled_run, &unlabeled_run] {
            assert!(!run.outcome.exact);
            assert!(run.outcome.byte_accuracy < 0.1, "{:?}", run.outcome);
        }
        // Both arms report a total loss the same way: every molecule
        // lost and every codeword failed.
        assert!(labeled_run.outcome.failed_codewords > 0);
        assert_eq!(
            unlabeled_run.outcome.failed_codewords,
            labeled_run.outcome.failed_codewords
        );
        assert_eq!(
            unlabeled_run.outcome.lost_molecules,
            labeled_run.outcome.lost_molecules
        );
        for err in [labeled(1e30).unwrap_err(), unlabeled(1e30).unwrap_err()] {
            assert!(
                matches!(err, CliError::Storage(StorageError::InvalidParams(_))),
                "{err}"
            );
        }
    }
}
