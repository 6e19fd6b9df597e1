//! Ablation: what does biological-constraint compliance cost, and what
//! does it buy back once the channel punishes violations?
//!
//! Each [`TranscoderSpec`] trades information density (bits per payload
//! base) against synthesis-constraint compliance (fraction of encoded
//! strands passing [`ConstraintSet::primer_default`]). This ablation
//! measures both, then runs every transcoder through two channel
//! presets at identical coverage:
//!
//! - `nanopore-decay` — position-dependent noise that is blind to
//!   constraint violations. Expected: all transcoders decode exactly;
//!   compliance costs nothing but bases.
//! - `constraint-stressed` — the same base channel with error rates
//!   multiplied wherever a strand carries a long homopolymer run or
//!   sits outside the GC band. Expected: the unconstrained direct
//!   layout degrades while compliant layouts keep their noise streams
//!   byte-identical to the nanopore run.
//!
//! [`TranscoderSpec`]: dna_strand::TranscoderSpec
//! [`ConstraintSet::primer_default`]: dna_strand::constraints::ConstraintSet::primer_default

use dna_bench::{patterned_payload, FigureOutput, Scale};
use dna_channel::{ChannelModel, Cluster};
use dna_storage::{CodecParams, Layout, Pipeline, Scenario};
use dna_strand::constraints::ConstraintSet;
use dna_strand::TranscoderSpec;

/// One transcoder's static numbers plus its per-preset exact-decode rate.
struct TranscoderRun {
    spec: TranscoderSpec,
    density: f64,
    compliance: f64,
    /// Exact-decode rate per preset, in `presets()` order.
    exact: Vec<f64>,
}

fn presets(rate: f64) -> [(&'static str, ChannelModel); 2] {
    [
        ("nanopore-decay", ChannelModel::nanopore_decay(rate)),
        (
            "constraint-stressed",
            ChannelModel::constraint_stressed(rate),
        ),
    ]
}

fn main() {
    let scale = Scale::from_env();
    let trials = scale.pick(2, 8, 40);
    // Coverage 16 is the discriminating operating point at laptop scale:
    // enough reads that direct decodes exactly under nanopore-decay, low
    // enough that the constraint-stressed multipliers push it over the
    // Reed–Solomon budget. (Rotation's 1 bit/base strands are ~2× longer
    // and need ~2× this coverage — visible in its rows; override via
    // DNA_ABLATION_COVERAGE to explore.)
    let coverage = std::env::var("DNA_ABLATION_COVERAGE")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(16.0);
    let rate = 0.06;
    let params = CodecParams::laptop().expect("laptop params");
    let geom = params.payload_geometry();
    let payload = patterned_payload(params.payload_bytes(), 251);
    let payload_bits =
        u32::from(geom.index_bits) as f64 + geom.rows as f64 * f64::from(geom.symbol_bits);
    let rules = ConstraintSet::primer_default();
    eprintln!("ablation_transcoder: trials={trials}, coverage={coverage}, base rate {rate}");

    let mut fig = FigureOutput::new(
        "ablation_transcoder",
        &[
            "transcoder",
            "preset",
            "density_bits_per_base",
            "compliance_pct",
            "exact_decode_pct",
        ],
    );
    let mut runs = Vec::new();
    for spec in TranscoderSpec::ALL {
        let pipeline = Pipeline::builder()
            .params(params.clone().with_transcoder(spec))
            .layout(Layout::Baseline)
            .build()
            .expect("laptop pipeline");
        let units = pipeline.encode_chunked(&payload).expect("encode");
        let strands: Vec<_> = units.iter().flat_map(|u| u.strands()).collect();
        let compliant = strands.iter().filter(|s| rules.check(s)).count();
        let compliance = compliant as f64 / strands.len() as f64;
        let density = payload_bits / spec.payload_bases(geom) as f64;

        let mut exact = Vec::new();
        for (name, channel) in presets(rate) {
            let scenario = Scenario::with_channel(channel)
                .single_coverage(coverage)
                .trials(trials)
                .seed(23);
            scenario.validate().expect("static scenario is valid");
            let backend = scenario.backend();
            let mut ok = 0usize;
            for t in 0..trials {
                let pools = pipeline.sequence_batch(&backend, &units, scenario.trial_seed(t));
                let clusters: Vec<Vec<Cluster>> =
                    pools.iter().map(|p| p.at_coverage(coverage)).collect();
                let mut decoded = Vec::new();
                for (bytes, _) in pipeline.decode_batch(&clusters).expect("decode") {
                    decoded.extend_from_slice(&bytes);
                }
                if decoded == payload {
                    ok += 1;
                }
            }
            let rate_ok = ok as f64 / trials as f64;
            fig.row(&[
                spec.name().to_string(),
                name.to_string(),
                format!("{density:.3}"),
                format!("{:.1}", compliance * 100.0),
                format!("{:.1}", rate_ok * 100.0),
            ]);
            println!(
                "{:<10} {:<19} density {density:.3} b/base, compliance {:>5.1}%, exact {:>5.1}%",
                spec.name(),
                name,
                compliance * 100.0,
                rate_ok * 100.0
            );
            exact.push(rate_ok);
        }
        runs.push(TranscoderRun {
            spec,
            density,
            compliance,
            exact,
        });
    }
    fig.finish();

    // Acceptance verdicts — printed, not asserted, so a noisy smoke run
    // never turns a bench into a flake; the pinned numbers live in
    // README.md and the conformance goldens.
    let by = |s: TranscoderSpec| runs.iter().find(|r| r.spec == s).expect("ran every spec");
    let direct = by(TranscoderSpec::Direct);
    let trellis = by(TranscoderSpec::Trellis);
    let nanopore_gap = (direct.exact[0] - trellis.exact[0]).abs();
    let compliant_worst_stressed = runs
        .iter()
        .filter(|r| r.compliance >= 1.0)
        .map(|r| r.exact[1])
        .fold(f64::INFINITY, f64::min);
    println!(
        "\ntrellis: compliance {:.1}% (target 100), exact-decode gap vs direct under \
         nanopore-decay {:.1} pp (target ≤ 2), at {:.2}× direct's base cost",
        trellis.compliance * 100.0,
        nanopore_gap * 100.0,
        direct.density / trellis.density
    );
    println!(
        "constraint-stressed channel: direct exact {:.1}% vs worst compliant {:.1}% \
         at identical coverage {coverage}",
        direct.exact[1] * 100.0,
        compliant_worst_stressed * 100.0
    );
}
