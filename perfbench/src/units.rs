//! `decode-noisy` and `recover-unlabeled`: the paper's retrieval path on
//! laptop geometry (GF(256), 30 rows, 208+47 molecules, 6240 B/unit,
//! Gini layout, direct transcoder) through a nanopore channel whose error
//! rate rises along the strand, at fixed coverage 10.
//!
//! `decode-noisy` decodes labeled clusters with `Pipeline::decode_batch`:
//! consensus does most of the work, and object, crypto and clustering
//! are bypassed. `recover-unlabeled` adds 16-base primers, anonymizes
//! every pool (reads shuffled, half reverse-complemented) and decodes
//! with `Pipeline::decode_pool_batch` under anchored recovery, so
//! clustering does most of the work.

use crate::compose::{Counts, Decoder};
use crate::trace::{self, span};
use crate::util::{
    self, maybe_inject, median, ms, quantile, ratio, secs, silent, Metrics, Rng, Tally,
};
use crate::Ctx;
use dna_align::{AnchorOrienter, AnchoredClusterer, ClusterResult, ReadClusterer};
use dna_channel::{AnonymousPool, ChannelModel, Cluster, CoverageModel, SimulatedSequencer};
use dna_reed_solomon::ReedSolomon;
use dna_storage::{CodecParams, EncodedUnit, Layout, Pipeline, RecoveryPipeline};
use dna_strand::{bits, DnaString};
use std::sync::Arc;
use std::time::Instant;

/// Labeled units per `decode-noisy` batch (one `decode_batch` call).
const DECODE_UNITS: usize = 32;
/// Unlabeled units in the `recover-unlabeled` set.
const RECOVER_UNITS: usize = 8;
/// Units per `decode_pool_batch` call: one per core of a 2-vCPU box, so
/// each call is one latency sample.
const RECOVER_BATCH: usize = 2;
const COVERAGE: usize = 10;
const ERROR_RATE: f64 = 0.05;
const PRIMER_LEN: usize = 16;
const SETUPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    DecodeNoisy,
    RecoverUnlabeled,
}

struct Inputs {
    pipeline: Pipeline,
    payloads: Vec<Vec<u8>>,
    units: Vec<EncodedUnit>,
    clusters: Vec<Vec<Cluster>>,
    pools: Vec<AnonymousPool>,
    sequence_ms: f64,
}

fn pipeline(kind: Kind) -> Pipeline {
    let params = CodecParams::laptop().expect("laptop geometry");
    let builder = Pipeline::builder().layout(Layout::Gini {
        excluded_rows: vec![],
    });
    match kind {
        Kind::DecodeNoisy => builder.params(params),
        Kind::RecoverUnlabeled => builder
            .params(params.with_primer_len(PRIMER_LEN))
            .recovery(RecoveryPipeline::anchored(None)),
    }
    .build()
    .expect("valid pipeline")
}

/// Generates payloads, encodes them, and simulates the channel. The
/// program receives only these generated inputs.
fn setup(kind: Kind, seed: u64) -> Inputs {
    let pipeline = pipeline(kind);
    let n = match kind {
        Kind::DecodeNoisy => DECODE_UNITS,
        Kind::RecoverUnlabeled => RECOVER_UNITS,
    };
    let mut rng = Rng::new(seed);
    let payloads: Vec<Vec<u8>> = (0..n)
        .map(|_| rng.bytes(pipeline.payload_capacity()))
        .collect();
    let units = pipeline.encode_batch(&payloads).expect("encode");
    let sequencer = SimulatedSequencer::with_channel(
        ChannelModel::nanopore_decay(ERROR_RATE),
        CoverageModel::Fixed(COVERAGE),
    );
    let start = Instant::now();
    let read_pools = pipeline.sequence_batch(&sequencer, &units, seed);
    let sequence_ms = ms(start);
    let clusters: Vec<Vec<Cluster>> = read_pools.iter().map(|p| p.clusters().to_vec()).collect();
    let pools = match kind {
        Kind::DecodeNoisy => Vec::new(),
        Kind::RecoverUnlabeled => clusters
            .iter()
            .enumerate()
            .map(|(u, c)| AnonymousPool::from_clusters(c, seed ^ (u as u64 + 1)))
            .collect(),
    };
    Inputs {
        pipeline,
        payloads,
        units,
        clusters,
        pools,
        sequence_ms,
    }
}

/// The correctness gate for one decoded unit: exact bytes pass, damage
/// the report flags is a loud failure, anything else aborts the run.
fn gate(tally: &mut Tally, got: &[u8], want: &[u8], flagged: bool, what: &str) -> bool {
    let exact = got == want;
    if !exact && !flagged {
        silent(what);
    }
    tally.record(exact);
    exact
}

pub fn run(kind: Kind, ctx: &Ctx) -> (Metrics, Tally) {
    let (inputs, setup_s) = util::repeated_setup(SETUPS, || setup(kind, ctx.seed), drop);
    let mut m = Metrics::default();
    let payload_bytes = inputs.pipeline.payload_capacity() as f64;
    let bases: usize = inputs.units.iter().map(EncodedUnit::total_bases).sum();
    let tally = if ctx.trace {
        traced(kind, &inputs, ctx, &mut m)
    } else {
        untraced(kind, &inputs, ctx, &mut m, payload_bytes)
    };
    m.set("setup_s", setup_s, "s");
    m.set(
        "bases_per_byte",
        bases as f64 / (payload_bytes * inputs.units.len() as f64),
        "bases/B",
    );
    (m, tally)
}

fn untraced(kind: Kind, inputs: &Inputs, ctx: &Ctx, m: &mut Metrics, unit_bytes: f64) -> Tally {
    let p = &inputs.pipeline;
    let mut tally = Tally::default();
    // Rates are taken from median call times, so a burst of contention
    // from outside the benchmark moves them less than a mean would.
    let mut read_rates: Vec<f64> = Vec::new();
    let mut write_rates: Vec<f64> = Vec::new();
    let mut latencies: Vec<f64> = Vec::new();
    // One sample of each path per batch: encode its payloads, then decode
    // its reads.
    let batches: Vec<std::ops::Range<usize>> = match kind {
        Kind::DecodeNoisy => std::iter::once(0..inputs.clusters.len()).collect(),
        Kind::RecoverUnlabeled => (0..inputs.pools.len())
            .step_by(RECOVER_BATCH)
            .map(|i| i..(i + RECOVER_BATCH).min(inputs.pools.len()))
            .collect(),
    };
    let start = Instant::now();
    while secs(start) < ctx.seconds {
        for range in batches.iter().cloned() {
            // Write path: the same payloads must encode to the same strands.
            let t = Instant::now();
            let encoded = p
                .encode_batch(&inputs.payloads[range.clone()])
                .expect("encode");
            write_rates.push(unit_bytes * encoded.len() as f64 / secs(t));
            for (got, want) in encoded.iter().zip(&inputs.units[range.clone()]) {
                if got != want {
                    silent("encode_batch produced different strands for the same payload");
                }
                tally.record(true);
            }
            // Read path.
            let t = Instant::now();
            let decoded = match kind {
                Kind::DecodeNoisy => p.decode_batch(&inputs.clusters[range.clone()]),
                Kind::RecoverUnlabeled => p.decode_pool_batch(&inputs.pools[range.clone()]),
            };
            let dt = secs(t);
            latencies.push(dt * 1e3);
            let decoded = decoded.unwrap_or_else(|e| util::fail(&format!("decode error: {e}")));
            let mut exact_bytes = 0.0;
            for (u, (mut payload, report)) in range.zip(decoded) {
                maybe_inject(&mut payload, ctx.inject);
                let what = format!("unit {u} decoded to wrong bytes with a clean report");
                if gate(
                    &mut tally,
                    &payload,
                    &inputs.payloads[u],
                    report.flags_degradation(),
                    &what,
                ) {
                    exact_bytes += unit_bytes;
                }
            }
            read_rates.push(exact_bytes / dt);
        }
    }
    eprintln!(
        "perfbench: {} read-latency samples (one per decode batch call)",
        latencies.len()
    );
    m.set("read_mb_s", median(&read_rates) / 1e6, "MB/s");
    m.set("write_mb_s", median(&write_rates) / 1e6, "MB/s");
    m.set("read_p50_ms", quantile(&latencies, 0.5), "ms");
    m.set("read_p90_ms", quantile(&latencies, 0.9), "ms");
    tally
}

/// Times the anchored clusterer inside `RecoveryPipeline::recover` as
/// span `align.cluster`. Configured exactly like the built-in anchored
/// stage, which the fidelity check confirms byte for byte.
struct TimedClusterer(AnchoredClusterer);

impl ReadClusterer for TimedClusterer {
    fn name(&self) -> &'static str {
        "anchored"
    }

    fn cluster(&self, reads: &[DnaString]) -> ClusterResult {
        span("align.cluster", || self.0.cluster(reads))
    }
}

/// `RecoveryPipeline::anchored(None)` with its clusterer behind a span:
/// the geometry-derived threshold (a quarter of the primer-free strand,
/// at least 3) and anchor (index bits / 2 + 6 bases past the primer).
fn timed_recovery(params: &CodecParams) -> RecoveryPipeline {
    let threshold = ((params.strand_bases() - 2 * params.primer_len()) / 4).max(3);
    let anchor_len = usize::from(params.index_bits()) / 2 + 6;
    let inner = AnchoredClusterer::new(threshold).with_anchor(params.primer_len(), anchor_len);
    RecoveryPipeline::with_clusterer(Arc::new(TimedClusterer(inner)))
}

/// RS parity computation over `units` unit-sized payloads, timed alone:
/// the `rs.encode` share that `Pipeline::encode_unit` spends inside its
/// one public call. LFSR cost does not depend on the symbol values.
pub fn rs_encode_probe_ms(p: &Pipeline, units: usize) -> f64 {
    let params = p.params();
    let rs = ReedSolomon::new(
        params.field().clone(),
        params.data_cols(),
        params.parity_cols(),
    )
    .expect("valid RS code");
    let filler = vec![0x5Au8; p.payload_capacity()];
    let symbols = bits::bytes_to_symbols(&filler, params.symbol_bits()).expect("symbols");
    let mut cw = vec![0u16; rs.codeword_len()];
    let start = Instant::now();
    for _ in 0..units {
        for row in symbols.chunks(params.data_cols()) {
            cw[..row.len()].copy_from_slice(row);
            rs.fill_parity(std::hint::black_box(&mut cw))
                .expect("parity");
        }
    }
    ms(start)
}

fn traced(kind: Kind, inputs: &Inputs, ctx: &Ctx, m: &mut Metrics) -> Tally {
    let p = &inputs.pipeline;
    let traced_pipeline = match kind {
        Kind::DecodeNoisy => p.clone(),
        Kind::RecoverUnlabeled => Pipeline::builder()
            .params(p.params().clone())
            .layout(Layout::Gini {
                excluded_rows: vec![],
            })
            .recovery(timed_recovery(p.params()))
            .build()
            .expect("valid pipeline"),
    };
    let mut decoder = Decoder::for_pipeline(p);
    let mut counts = Counts::default();
    let mut tally = Tally::default();
    let (mut serial_ms, mut batch_ms, mut orient_ms, mut rs_encode_ms) = (0.0, 0.0, 0.0, 0.0);
    let (mut orphaned, mut total_reads) = (0usize, 0usize);
    let mut rounds = 0usize;
    trace::enable(true);
    let start = Instant::now();
    while rounds == 0 || secs(start) < ctx.seconds {
        rounds += 1;
        let n = inputs.payloads.len();
        // Serial, so the RS probe (also serial) can be taken out of it.
        span("root.encode", || {
            span("storage.encode", || {
                for payload in &inputs.payloads {
                    p.encode_unit(payload).expect("encode");
                }
            })
        });
        rs_encode_ms += rs_encode_probe_ms(p, n);
        // Batch wall time versus the serial sum: the parallel speed-up.
        trace::enable(false);
        let t = Instant::now();
        match kind {
            Kind::DecodeNoisy => drop(p.decode_batch(&inputs.clusters).expect("decode")),
            Kind::RecoverUnlabeled => drop(p.decode_pool_batch(&inputs.pools).expect("decode")),
        }
        batch_ms += ms(t);
        trace::enable(true);
        for u in 0..n {
            trace::set_request(u as u64);
            let t = Instant::now();
            let (want, report) = match kind {
                Kind::DecodeNoisy => p.decode_unit(&inputs.clusters[u]),
                Kind::RecoverUnlabeled => p.decode_pool(&inputs.pools[u]),
            }
            .unwrap_or_else(|e| util::fail(&format!("decode error: {e}")));
            serial_ms += ms(t);
            let (mut got, flagged) = span("root.decode_unit", || match kind {
                Kind::DecodeNoisy => {
                    decoder.decode_unit(p, &inputs.clusters[u], false, &mut counts)
                }
                Kind::RecoverUnlabeled => {
                    let (clusters, rec) = span("storage.recover", || {
                        traced_pipeline.recover_pool(&inputs.pools[u])
                    })?;
                    orphaned += rec.orphaned_reads;
                    total_reads += rec.total_reads;
                    decoder.decode_unit(p, &clusters, true, &mut counts)
                }
            })
            .unwrap_or_else(|e| util::fail(&format!("traced decode error: {e}")));
            maybe_inject(&mut got, ctx.inject);
            if got != want || flagged != report.flags_degradation() {
                util::fail(&format!(
                    "fidelity: traced composition of unit {u} differs from the untraced decode"
                ));
            }
            gate(
                &mut tally,
                &got,
                &inputs.payloads[u],
                flagged,
                &format!("unit {u} decoded to wrong bytes with a clean report"),
            );
        }
        if kind == Kind::RecoverUnlabeled {
            // Orientation runs inside `recover` with no public seam, so it
            // is timed as a separate pass over the same reads and taken
            // out of the recover span's self time (the rest is demux).
            let primer = p.primers().expect("primers").0.strand().clone();
            let orienter = AnchorOrienter::new(primer);
            let mut row = Vec::new();
            let t = Instant::now();
            for pool in &inputs.pools {
                for read in pool.reads() {
                    std::hint::black_box(orienter.orient_with(read, &mut row));
                }
            }
            orient_ms += ms(t);
        }
    }
    trace::enable(false);
    let spans = trace::take();
    crate::write_spans(ctx, &spans);
    let unattributed = trace::check_attribution(&spans, crate::ATTRIBUTION_BOUND);
    let selfs = trace::self_ms(&spans);
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let per = |v: f64| v / rounds as f64;
    let traced_ms = trace::total_ms(&spans, "root.decode_unit");
    let encode_ms = trace::total_ms(&spans, "storage.encode");
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_ms - serial_ms) / serial_ms,
        "%",
    );
    m.set("trace.unattributed_pct", unattributed, "%");
    counts.report(m, &selfs, rounds);
    m.set("rs.encode_ms", per(rs_encode_ms), "ms");
    m.set(
        "storage.encode_ms",
        per((encode_ms - rs_encode_ms).max(0.0)),
        "ms",
    );
    m.set("parallel.speedup", serial_ms / batch_ms, "x");
    m.set("align.cluster_ms", per(get("align.cluster")), "ms");
    m.set("align.orient_ms", per(orient_ms), "ms");
    m.set(
        "storage.demux_ms",
        per((get("storage.recover") - orient_ms).max(0.0)),
        "ms",
    );
    m.set(
        "align.orphaned_ratio",
        ratio(orphaned as f64, total_reads as f64),
        "ratio",
    );
    m.set("channel.sequence_ms", inputs.sequence_ms, "ms");
    tally
}
