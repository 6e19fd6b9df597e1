//! `dnastore` — encode files into simulated DNA, decode strand lists back,
//! and run end-to-end channel simulations.
//!
//! ```text
//! dnastore encode   --input report.pdf --layout gini --output report.dna
//! dnastore decode   --input report.dna --output report.pdf
//! dnastore simulate --input report.pdf --layout dnamapper \
//!                   --channel nanopore:0.12 --coverage 18 --seed 7
//! ```

use dna_object::{LayoutKind, ObjectStore};
use dna_server::{serve_tcp, ServeConfig, Server};
use dna_skew_cli::{
    decode, default_output_name, encode, open_or_create_store, pack_files, parse_channel_model,
    parse_layout, parse_plan_arg, parse_transcoder, resolve_object, simulate_planned,
    simulate_unlabeled, CliError, PlanChoice,
};
use dna_strand::TranscoderSpec;
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
dnastore — DNA storage pipeline from 'Managing Reliability Bias in DNA Storage' (ISCA '22)

USAGE:
  dnastore encode   --input <file> [--layout baseline|gini|dnamapper] --output <strands>
  dnastore decode   --input <strands> --output <file>
  dnastore simulate --input <file> [--layout …] [--channel preset[:rate]]
                    [--coverage N] [--seed N] [--plan auto|uniform|file:<path>]
                    [--parity E] [--tsv <path>]
                    [--transcoder direct|gc-padded|trellis]
                    [--unlabeled]
  dnastore pack     <file>... --out <pool-dir> [--transcoder …]
  dnastore fetch    <object-id|name> --store <pool-dir> [--output <file>]
  dnastore ls       --store <pool-dir>
  dnastore serve    --store <pool-dir> [--addr 127.0.0.1:7070] [--workers 1..=256]
                    [--queue N]
  dnastore chaos    [--seed N] [--trials N] [--scenario <substring>]

channel presets:   uniform (default, rate 0.06), nanopore-decay, pcr-skewed,
                   dropout, bursty, constraint-stressed (position-,
                   strand-, and content-aware models; rate optional), or a
                   flat error model kind:rate with kind one of uniform,
                   ngs, nanopore, subs, indels, enzymatic (rate in [0,1])
transcoders:       direct (2 bits/base, default), gc-padded (GC-balancing
                   pad bases), trellis (base-3, homopolymer-free) — the
                   byte->base mapping strands are written with; pack
                   records it in the pool header.
protection plans:  uniform (default), auto (skew-profiled unequal protection),
                   file:<path> (one parity count per row codeword).
                   --parity overrides the per-row parity width (default 47);
                   values below 47 leave the headroom auto plans reallocate.
--tsv writes the per-row corrected-error/erasure histograms of the run.
--unlabeled anonymizes the sequencer output (no labels, random orientation,
            shuffled order); retrieval orients each read by its primer,
            routes it to the column its decoded index names (read through
            the --transcoder layout), and checks each column's reads
            against one another before decoding. Strands are
            primer-wrapped.

pack streams files into a capsule-pool object store (created on first use:
     laptop geometry, 16-base per-capsule primers); fetch streams one object
     back out by id or name, touching only that object's capsules; ls lists
     the manifest.

serve runs a long-lived service over one store: a bounded work queue in
     front of N decode workers (one warm decode workspace and one OS
     thread each; default 4, at most 256), speaking
     the line/length-prefixed protocol (PING, LS, STATS, FETCH, RFETCH,
     PUT, DEL, QUIT) on loopback TCP. Concurrent fetches of the same
     object coalesce into one shared decode.

chaos runs the built-in adversarial fault-injection campaign (sustained
     dropout, index bursts, contamination, truncation + chimeras,
     near-duplicates, torn appends, header/strand bit rot, sidecar damage)
     and prints the scenario x verdict table. Every trial scores
     exact | degraded | loud | silent against hidden ground truth; any
     silent verdict (wrong bytes, no error) makes the command fail.
     --scenario filters presets by name substring.
";

/// The most decode workers `serve` starts, each an OS thread: a larger
/// `--workers` is a usage error rather than a spawn loop that runs the
/// machine out of threads.
const MAX_SERVE_WORKERS: usize = 256;

/// Flags that take no value (presence alone switches them on).
const BOOL_FLAGS: [&str; 1] = ["unlabeled"];

/// Splits arguments into `--flag value` pairs and bare positionals (the
/// `pack`/`fetch` operands; other commands reject positionals).
fn parse_flags(args: &[String]) -> Result<(HashMap<String, String>, Vec<String>), CliError> {
    let mut flags = HashMap::new();
    let mut positionals = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            positionals.push(args[i].clone());
            i += 1;
            continue;
        };
        if BOOL_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| CliError::Usage(format!("--{key} needs a value")))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok((flags, positionals))
}

/// Rejects any flag `command` does not read: a misspelt or retired flag
/// is a usage error, never a silently ignored setting. Unknown commands
/// pass through to their own error.
fn check_flags(command: &str, flags: &HashMap<String, String>) -> Result<(), CliError> {
    let known: &[&str] = match command {
        "encode" => &["input", "layout", "output"],
        "decode" => &["input", "output"],
        "simulate" => &[
            "input",
            "layout",
            "channel",
            "coverage",
            "seed",
            "plan",
            "parity",
            "tsv",
            "transcoder",
            "unlabeled",
        ],
        "pack" => &["out", "transcoder"],
        "fetch" => &["store", "output"],
        "ls" => &["store"],
        "serve" => &["store", "addr", "workers", "queue"],
        "chaos" => &["seed", "trials", "scenario"],
        _ => return Ok(()),
    };
    match flags.keys().filter(|k| !known.contains(&k.as_str())).min() {
        Some(flag) => Err(CliError::Usage(format!("{command} does not take --{flag}"))),
        None => Ok(()),
    }
}

fn required<'a>(flags: &'a HashMap<String, String>, key: &str) -> Result<&'a str, CliError> {
    flags
        .get(key)
        .map(String::as_str)
        .ok_or_else(|| CliError::Usage(format!("missing --{key}")))
}

fn numeric<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, CliError> {
    flags.get(key).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| CliError::Usage(format!("bad --{key} {v:?}")))
    })
}

/// `serve`'s `--workers`: 4 when absent, else 1..=[`MAX_SERVE_WORKERS`].
fn serve_workers(flags: &HashMap<String, String>) -> Result<usize, CliError> {
    let workers: usize = numeric(flags, "workers", 4)?;
    if (1..=MAX_SERVE_WORKERS).contains(&workers) {
        Ok(workers)
    } else {
        Err(CliError::Usage(format!(
            "--workers {workers} is out of range 1..={MAX_SERVE_WORKERS}"
        )))
    }
}

fn run() -> Result<(), CliError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return Err(CliError::Usage("no command given".into()));
    };
    let (flags, positionals) = parse_flags(&args[1..])?;
    check_flags(command, &flags)?;
    if !positionals.is_empty() && !matches!(command.as_str(), "pack" | "fetch") {
        return Err(CliError::Usage(format!(
            "unexpected argument {:?} (only pack/fetch take positionals)",
            positionals[0]
        )));
    }
    let layout = flags
        .get("layout")
        .map(|s| parse_layout(s))
        .transpose()?
        .unwrap_or(LayoutKind::Gini);
    let transcoder = flags
        .get("transcoder")
        .map(|s| parse_transcoder(s))
        .transpose()?
        .unwrap_or(TranscoderSpec::Direct);
    match command.as_str() {
        "encode" => {
            let input = std::fs::read(required(&flags, "input")?)?;
            let text = encode(&input, layout)?;
            let out = required(&flags, "output")?;
            std::fs::write(out, &text)?;
            let strands = text.lines().filter(|l| !l.starts_with('#')).count();
            println!(
                "encoded {} bytes into {strands} strands ({layout:?}) -> {out}",
                input.len()
            );
        }
        "decode" => {
            let text = std::fs::read_to_string(required(&flags, "input")?)?;
            let (payload, reports) = decode(&text)?;
            let out = required(&flags, "output")?;
            std::fs::write(out, &payload)?;
            let failed: usize = reports.iter().map(|r| r.failed_codewords()).sum();
            println!(
                "decoded {} bytes across {} unit(s), {failed} failed codewords -> {out}",
                payload.len(),
                reports.len()
            );
        }
        "simulate" => {
            let input = std::fs::read(required(&flags, "input")?)?;
            let channel = parse_channel_model(flags.get("channel").map_or("uniform", |v| v))?;
            let coverage: f64 = numeric(&flags, "coverage", 12.0)?;
            let seed: u64 = numeric(&flags, "seed", 0)?;
            let plan = flags
                .get("plan")
                .map_or(Ok(PlanChoice::Uniform), |v| parse_plan_arg(v))?;
            let parity: Option<usize> = flags
                .get("parity")
                .map(|v| {
                    v.parse()
                        .map_err(|_| CliError::Usage(format!("bad parity width {v:?}")))
                })
                .transpose()?;
            let unlabeled = flags.contains_key("unlabeled");
            if unlabeled && (parity.is_some() || flags.contains_key("plan")) {
                return Err(CliError::Usage(
                    "--unlabeled does not combine with --plan/--parity yet".into(),
                ));
            }
            let base_rate = channel.base().total_rate();
            let run = if unlabeled {
                simulate_unlabeled(&input, layout, channel, coverage, seed, transcoder)?
            } else {
                simulate_planned(
                    &input, layout, channel, coverage, seed, &plan, parity, transcoder,
                )?
            };
            for warning in &run.warnings {
                eprintln!("dnastore: warning: {warning}");
            }
            let outcome = &run.outcome;
            println!(
                "layout {layout:?} | transcoder {} | base errors {:.2}% | coverage {coverage} \
                 | plan {}{}",
                transcoder.name(),
                base_rate * 100.0,
                run.plan.summary(),
                if unlabeled { " | unlabeled" } else { "" }
            );
            if let Some(recovery) = &run.report.recovery {
                println!("  recovery {}", recovery.summary());
            }
            println!(
                "exact={} byte-accuracy={:.4} corrected={} failed-codewords={} lost-molecules={}",
                outcome.exact,
                outcome.byte_accuracy,
                outcome.corrected,
                outcome.failed_codewords,
                outcome.lost_molecules
            );
            if !run.plan.is_uniform() {
                for class in run.report.per_class(&run.plan) {
                    println!(
                        "  class parity={} codewords={} corrected={} erasures={} failed={}",
                        class.parity,
                        class.codewords,
                        class.corrected,
                        class.declared_erasures,
                        class.failed
                    );
                }
            }
            if let Some(path) = flags.get("tsv") {
                std::fs::write(path, run.report.to_tsv())?;
                println!("wrote per-row histograms -> {path}");
            }
        }
        "pack" => {
            let out = required(&flags, "out")?;
            if positionals.is_empty() {
                return Err(CliError::Usage("pack needs at least one <file>".into()));
            }
            for (id, name, bytes) in pack_files(out, &positionals, transcoder)? {
                println!("packed {name} -> object {id} ({bytes} bytes) in {out}");
            }
        }
        "fetch" => {
            let dir = required(&flags, "store")?;
            let Some(target) = positionals.first() else {
                return Err(CliError::Usage("fetch needs an <object-id|name>".into()));
            };
            let store = ObjectStore::open(dir)?;
            let id = resolve_object(&store, target)?;
            let out_path = match flags.get("output") {
                Some(p) => p.clone(),
                None => {
                    let object = store.manifest().object(id).ok_or(
                        dna_storage::StorageError::ObjectNotFound {
                            id,
                            tombstoned: false,
                        },
                    )?;
                    default_output_name(&object.name)?.to_string()
                }
            };
            let mut file = std::io::BufWriter::new(std::fs::File::create(&out_path)?);
            let report = store.fetch(id, &mut file)?;
            println!(
                "fetched object {id} -> {out_path}: {} bytes from {} capsule(s), \
                 {} unit(s), {} reads",
                report.bytes, report.capsules, report.units, report.reads
            );
        }
        "ls" => {
            let dir = required(&flags, "store")?;
            let store = ObjectStore::open(dir)?;
            println!("# id\tbytes\tcapsules\tstate\tname");
            for o in store.list() {
                println!(
                    "{}\t{}\t{}..{}\t{}\t{}",
                    o.id,
                    o.bytes,
                    o.capsules.start,
                    o.capsules.end,
                    if o.tombstone { "tombstone" } else { "live" },
                    o.name
                );
            }
        }
        "serve" => {
            let dir = required(&flags, "store")?;
            let addr = flags.get("addr").map_or("127.0.0.1:7070", String::as_str);
            let workers = serve_workers(&flags)?;
            let queue: usize = numeric(&flags, "queue", 64)?;
            let store = open_or_create_store(dir)?;
            let server = Server::start(
                store,
                &ServeConfig {
                    workers,
                    queue_depth: queue,
                },
            );
            let handle = serve_tcp(&server, addr)?;
            println!(
                "serving {dir} on {} with {workers} worker(s), queue depth {queue} (ctrl-c to stop)",
                handle.addr()
            );
            loop {
                std::thread::park();
            }
        }
        "chaos" => {
            let seed: u64 = numeric(&flags, "seed", 42)?;
            let trials: usize = numeric(&flags, "trials", 25)?;
            let mut scenarios = dna_chaos::builtin_presets();
            if let Some(filter) = flags.get("scenario") {
                scenarios.retain(|s| s.name.contains(filter.as_str()));
                if scenarios.is_empty() {
                    return Err(CliError::Usage(format!(
                        "no built-in scenario matches {filter:?}"
                    )));
                }
            }
            let config = dna_chaos::CampaignConfig::quick(seed, trials)?;
            let report = dna_chaos::run_campaign(&scenarios, &config)?;
            print!("{}", report.to_table());
            let silent = report.silent_corruptions();
            if silent > 0 {
                return Err(CliError::Usage(format!(
                    "{silent} silent corruption(s): wrong bytes with no error signal"
                )));
            }
            println!(
                "no silent corruption across {} trial(s)",
                report.totals().total()
            );
        }
        "help" | "--help" | "-h" => println!("{USAGE}"),
        other => {
            eprintln!("{USAGE}");
            return Err(CliError::Usage(format!("unknown command {other:?}")));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dnastore: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_a_command_does_not_read_are_usage_errors() {
        let flags = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
            parse_flags(&args).unwrap().0
        };
        let ok = flags(&["--input", "f", "--channel", "ngs:0.01", "--unlabeled"]);
        assert!(check_flags("simulate", &ok).is_ok());
        // A retired or misspelt flag used to be dropped silently, so the
        // run went ahead at the default setting.
        let err =
            check_flags("simulate", &flags(&["--input", "f", "--error", "ngs:0.01"])).unwrap_err();
        assert!(
            err.to_string().contains("simulate does not take --error"),
            "{err}"
        );
        // Routing is the only recovery stage; the retired stage selector
        // is an unknown flag, not a silently ignored one.
        let err = check_flags(
            "simulate",
            &flags(&["--input", "f", "--unlabeled", "--clusterer", "greedy"]),
        )
        .unwrap_err();
        assert!(matches!(err, CliError::Usage(_)), "{err}");
        assert!(
            err.to_string()
                .contains("simulate does not take --clusterer"),
            "{err}"
        );
        assert!(check_flags("ls", &flags(&["--store", "d", "--layout", "gini"])).is_err());
        assert!(check_flags("no-such-command", &flags(&["--x", "1"])).is_ok());
    }

    #[test]
    fn serve_workers_are_capped_and_nonzero() {
        // Only the flag check runs here: no store, server or thread.
        let workers = |value: &str| {
            let flags = HashMap::from([("workers".to_string(), value.to_string())]);
            serve_workers(&flags)
        };
        assert_eq!(serve_workers(&HashMap::new()).unwrap(), 4);
        assert_eq!(workers("1").unwrap(), 1);
        assert_eq!(workers("256").unwrap(), MAX_SERVE_WORKERS);
        for bad in ["0", "257", "1000000000", &usize::MAX.to_string(), "-1", "x"] {
            let err = workers(bad).unwrap_err();
            assert!(matches!(err, CliError::Usage(_)), "{bad}: {err}");
        }
        assert!(workers("0").unwrap_err().to_string().contains("1..=256"));
        assert!(USAGE.contains(&format!("--workers 1..={MAX_SERVE_WORKERS}")));
        assert!(USAGE.contains(&format!("at most {MAX_SERVE_WORKERS}")));
    }
}
