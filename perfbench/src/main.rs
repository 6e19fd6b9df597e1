//! The repository benchmark. Runs one seeded workload against the public
//! APIs of `dna-storage`, `dna-object` and `dna-server`, checks every
//! delivered byte against the generated input, and prints one JSON
//! object as its last line of output:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` re-drives the same inputs through the crates' public
//! functions with spans around each layer and reports the per-layer
//! split. `--inject-wrong-byte` corrupts delivered bytes on purpose so
//! the self-test can prove the correctness gate trips.

mod compose;
mod serve;
mod store;
mod trace;
mod units;
mod util;

use std::path::PathBuf;
use util::fail;

/// Largest share of traced end-to-end time that no layer span may
/// explain before the traced run fails.
pub const ATTRIBUTION_BOUND: f64 = 0.10;

/// End-to-end metrics (`--trace 0`), as named in `BENCHMARK.json`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_mb_s", "MB/s"),
    ("write_mb_s", "MB/s"),
    ("read_p50_ms", "ms"),
    ("read_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("bases_per_byte", "bases/B"),
];

/// Per-layer metrics (`--trace 1`), as named in `BENCHMARK.json`. A layer
/// a workload bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("consensus.busy_ms", "ms"),
    ("consensus.clusters", "count"),
    ("consensus.reads", "count"),
    ("strand.decode_ms", "ms"),
    ("rs.decode_ms", "ms"),
    ("rs.codewords", "count"),
    ("rs.corrected_symbols", "count"),
    ("rs.failed_codewords", "count"),
    ("rs.clean_codeword_ratio", "ratio"),
    ("rs.encode_ms", "ms"),
    ("storage.encode_ms", "ms"),
    ("storage.unmap_ms", "ms"),
    ("storage.assemble_ms", "ms"),
    ("storage.demux_ms", "ms"),
    ("parallel.speedup", "x"),
    ("align.prefilter_ms", "ms"),
    ("align.cluster_ms", "ms"),
    ("align.orient_ms", "ms"),
    ("align.orphaned_ratio", "ratio"),
    ("object.pool_read_ms", "ms"),
    ("object.crc_reject_ratio", "ratio"),
    ("object.damaged_exact_ratio", "ratio"),
    ("object.pool_write_ms", "ms"),
    ("object.commit_ms", "ms"),
    ("object.compress_ms", "ms"),
    ("object.decompress_ms", "ms"),
    ("object.compress_ratio", "x"),
    ("crypto.keystream_ms", "ms"),
    ("server.service_ms", "ms"),
    ("server.protocol_ms", "ms"),
    ("server.queue_wait_ms", "ms"),
    ("server.coalesced_ratio", "ratio"),
    ("channel.sequence_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.unattributed_pct", "%"),
];

const WORKLOADS: &[&str] = &[
    "decode-noisy",
    "recover-unlabeled",
    "store-rw",
    "serve-mixed",
];

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: bool,
    pub work_dir: PathBuf,
    workload: String,
}

/// Appends `spans` to this run's span file in the work directory.
pub fn write_spans(ctx: &Ctx, spans: &[trace::Span]) {
    let path = ctx
        .work_dir
        .join(format!("trace-{}-{}.tsv", ctx.workload, ctx.seed));
    trace::append_tsv(&path, spans).unwrap_or_else(|e| fail(&format!("write spans: {e}")));
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
         --work-dir <dir> [--inject-wrong-byte]",
        WORKLOADS.join("|")
    );
    std::process::exit(64);
}

fn parse_args() -> Ctx {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut work_dir) =
        (None, None, None, None, None);
    let mut inject = false;
    while let Some(flag) = args.next() {
        if flag == "--inject-wrong-byte" {
            inject = true;
            continue;
        }
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = Some(value == "1"),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => usage(),
        }
    }
    let workload = workload
        .filter(|w| WORKLOADS.contains(&w.as_str()))
        .unwrap_or_else(|| usage());
    Ctx {
        seed: seed.unwrap_or_else(|| usage()),
        seconds: seconds.unwrap_or_else(|| usage()),
        trace: trace.unwrap_or_else(|| usage()),
        inject,
        work_dir: work_dir.unwrap_or_else(|| usage()),
        workload,
    }
}

fn main() {
    let ctx = parse_args();
    std::fs::create_dir_all(&ctx.work_dir).unwrap_or_else(|e| fail(&format!("work dir: {e}")));
    let (mut m, tally) = match ctx.workload.as_str() {
        "decode-noisy" => units::run(units::Kind::DecodeNoisy, &ctx),
        "recover-unlabeled" => units::run(units::Kind::RecoverUnlabeled, &ctx),
        "store-rw" => store::run(&ctx),
        "serve-mixed" => serve::run(&ctx),
        _ => usage(),
    };
    m.set("peak_rss_mb", util::peak_rss_mb(), "MiB");
    let wanted = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for &(name, unit) in wanted {
        let value = match m.values.get(name) {
            Some(&(v, u)) if u == unit => v,
            Some(&(_, u)) => fail(&format!(
                "metric {name} measured in {u}, declared in {unit}"
            )),
            None if ctx.trace => 0.0,
            None => fail(&format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            fail(&format!("metric {name} is not a finite number"));
        }
        eprintln!("perfbench: {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        fields.join(", ")
    );
}
