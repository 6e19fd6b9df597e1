//! The scenario conformance suite: a deterministic matrix of
//! {channel preset × layout × coverage} encode → sequence → decode runs
//! with pinned seeds, asserted against golden summary reports.
//!
//! Each cell's summary pins the FNV-1a hash of the decoded bytes plus the
//! erasure/correction/failure counts of the decode reports. The goldens
//! serve two contracts:
//!
//! 1. **Seed stability** — the uniform cells (and the pool hashes below)
//!    were captured from the release *before* the channel-model subsystem
//!    landed. They must never change: old seeds keep producing
//!    byte-identical pools and decodes through the uniform path.
//! 2. **Thread independence** — the whole matrix is recomputed under
//!    `DNA_SKEW_THREADS` ∈ {1, 2, 8} and must be identical. CI
//!    additionally runs the full test suite under 1 and 8 threads.
//!
//! Regenerating goldens after an *intentional* channel change:
//! `DNA_SKEW_BLESS=1 cargo test --test scenario_conformance -- --nocapture`
//! prints the computed lines; paste them over `GOLDEN_MATRIX`. Never
//! regenerate the `uniform` cells or the pool hashes — those are the
//! backward-compatibility contract.

use dna_skew::channel as dna_channel;
use dna_skew::prelude::*;
use dna_skew::storage::Scenario;
use dna_skew::strand::TranscoderSpec;
use std::sync::Mutex;

/// Serializes every test in this binary: the thread-invariance test
/// mutates `DNA_SKEW_THREADS` with `std::env::set_var`, and concurrent
/// setenv/getenv is undefined behavior on glibc, so nothing else may be
/// reading the environment (every `parallel_map` does) while it runs.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// FNV-1a 64-bit, the suite's stable content fingerprint.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes a pool's full structure: cluster sources, read boundaries, and
/// every base.
fn pool_hash(pool: &ReadPool) -> u64 {
    let mut bytes = Vec::new();
    for c in pool.clusters() {
        bytes.push(0xFE);
        bytes.extend_from_slice(&(c.source as u64).to_le_bytes());
        for r in &c.reads {
            bytes.push(0xFD);
            for &b in r.iter() {
                bytes.push(b.to_bits());
            }
        }
    }
    fnv64(&bytes)
}

/// The channel presets of the matrix. The `uniform` row is the pre-PR
/// behavior; its goldens are frozen.
fn presets() -> Vec<(&'static str, ChannelModel)> {
    vec![
        (
            "uniform:0.04",
            ChannelModel::uniform(ErrorModel::uniform(0.04)),
        ),
        ("nanopore-decay:0.06", ChannelModel::nanopore_decay(0.06)),
        ("pcr-skewed:0.04", ChannelModel::pcr_skewed(0.04)),
        ("dropout:0.04", ChannelModel::dropout_prone(0.04, 0.05)),
        ("bursty:0.04", ChannelModel::bursty(0.04)),
    ]
}

fn layouts() -> Vec<(&'static str, Layout)> {
    vec![
        ("baseline", Layout::Baseline),
        (
            "gini",
            Layout::Gini {
                excluded_rows: vec![],
            },
        ),
    ]
}

const COVERAGES: [f64; 2] = [6.0, 12.0];
const MATRIX_SEED: u64 = 0xC0FFEE;

/// 90 bytes = 3 tiny units, so the batch (parallel) paths are exercised.
fn matrix_payload() -> Vec<u8> {
    (0..90u32)
        .map(|i| (i.wrapping_mul(131) % 256) as u8)
        .collect()
}

/// Runs one cell of the matrix through the batch pipeline and summarizes
/// it: decoded-bytes hash + erasure/correction/failure totals.
fn cell_summary(
    preset: &str,
    channel: &ChannelModel,
    lname: &str,
    layout: &Layout,
    cov: f64,
) -> String {
    let pipeline = Pipeline::builder()
        .params(CodecParams::tiny().expect("tiny params"))
        .layout(layout.clone())
        .build()
        .expect("tiny pipeline");
    let scenario = Scenario::with_channel(channel.clone())
        .single_coverage(cov)
        .seed(MATRIX_SEED);
    scenario.validate().expect("matrix scenarios are valid");
    let units = pipeline.encode_chunked(&matrix_payload()).expect("encode");
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.at_coverage(cov)).collect();
    let mut decoded = Vec::new();
    let (mut lost, mut corrected, mut failed) = (0usize, 0usize, 0usize);
    for (bytes, report) in pipeline.decode_batch(&clusters).expect("decode") {
        decoded.extend_from_slice(&bytes);
        lost += report.lost_columns;
        corrected += report.total_corrected();
        failed += report.failed_codewords();
    }
    format!(
        "preset={preset} layout={lname} cov={cov} hash={:#018x} lost={lost} corrected={corrected} failed={failed}",
        fnv64(&decoded)
    )
}

/// The planned-protection cell: a non-uniform [`ProtectionPlan`] on a
/// headroom geometry (GF(16), 6 rows, 8 + 4 columns — `tiny()` is
/// field-saturated and cannot host one), exercising the multi-rate
/// encode/decode path under the same pinned-seed contract as the rest of
/// the matrix.
fn planned_cell_summary() -> String {
    use dna_skew::storage::ProtectionPlan;
    let params = CodecParams::new(dna_skew::gf::Field::gf16(), 6, 8, 4, 4).expect("headroom");
    // Hot-tail plan at exactly the 6 × 4 density budget.
    let plan = ProtectionPlan::from_parities(vec![2, 2, 3, 4, 6, 7]).expect("plan");
    let pipeline = Pipeline::builder()
        .params(params)
        .layout(Layout::Baseline)
        .protection(plan)
        .build()
        .expect("planned pipeline");
    let channel = ChannelModel::nanopore_decay(0.06);
    let cov = 8.0;
    let scenario = Scenario::with_channel(channel)
        .single_coverage(cov)
        .seed(MATRIX_SEED);
    scenario.validate().expect("planned scenario is valid");
    let units = pipeline.encode_chunked(&matrix_payload()).expect("encode");
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.at_coverage(cov)).collect();
    let mut decoded = Vec::new();
    let (mut lost, mut corrected, mut failed) = (0usize, 0usize, 0usize);
    for (bytes, report) in pipeline.decode_batch(&clusters).expect("decode") {
        decoded.extend_from_slice(&bytes);
        lost += report.lost_columns;
        corrected += report.total_corrected();
        failed += report.failed_codewords();
    }
    format!(
        "preset=nanopore-decay:0.06 layout=baseline+plan[2,2,3,4,6,7] cov={cov} hash={:#018x} lost={lost} corrected={corrected} failed={failed}",
        fnv64(&decoded)
    )
}

fn compute_matrix() -> Vec<String> {
    let mut out = Vec::new();
    for (preset, channel) in presets() {
        for (lname, layout) in layouts() {
            for cov in COVERAGES {
                out.push(cell_summary(preset, &channel, lname, &layout, cov));
            }
        }
    }
    out.push(planned_cell_summary());
    out
}

/// One transcoded cell: the tiny pipeline re-based onto a non-direct
/// [`TranscoderSpec`], run through the same pinned-seed encode →
/// sequence → decode loop. Constraint-respecting transcoders must keep
/// decoding deterministically whatever the strand layout.
fn transcoded_cell_summary(spec: TranscoderSpec, preset: &str, channel: &ChannelModel) -> String {
    let cov = 8.0;
    let pipeline = Pipeline::builder()
        .params(
            CodecParams::tiny()
                .expect("tiny params")
                .with_transcoder(spec),
        )
        .layout(Layout::Baseline)
        .build()
        .expect("transcoded tiny pipeline");
    let scenario = Scenario::with_channel(channel.clone())
        .single_coverage(cov)
        .seed(MATRIX_SEED);
    scenario.validate().expect("matrix scenarios are valid");
    let units = pipeline.encode_chunked(&matrix_payload()).expect("encode");
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.at_coverage(cov)).collect();
    let mut decoded = Vec::new();
    let (mut lost, mut corrected, mut failed) = (0usize, 0usize, 0usize);
    for (bytes, report) in pipeline.decode_batch(&clusters).expect("decode") {
        decoded.extend_from_slice(&bytes);
        lost += report.lost_columns;
        corrected += report.total_corrected();
        failed += report.failed_codewords();
    }
    format!(
        "transcoder={} preset={preset} cov={cov} hash={:#018x} lost={lost} corrected={corrected} failed={failed}",
        spec.name(),
        fnv64(&decoded)
    )
}

fn compute_transcoded_matrix() -> Vec<String> {
    let mut out = Vec::new();
    for spec in [TranscoderSpec::GcPadded, TranscoderSpec::Trellis] {
        for (preset, channel) in [
            ("nanopore-decay:0.06", ChannelModel::nanopore_decay(0.06)),
            (
                "constraint-stressed:0.06",
                ChannelModel::constraint_stressed(0.06),
            ),
        ] {
            out.push(transcoded_cell_summary(spec, preset, &channel));
        }
    }
    out
}

/// Golden transcoded-cell summaries at `MATRIX_SEED`. Regenerate after
/// an *intentional* transcoder layout change with `DNA_SKEW_BLESS=1`
/// like the main matrix — an unintentional diff means a transcoder's
/// base layout (and so every pool written with it) drifted.
const TRANSCODED_GOLDEN: [&str; 4] = [
    "transcoder=gc-padded preset=nanopore-decay:0.06 cov=8 hash=0x7441d7e2f2760db4 lost=0 corrected=4 failed=0",
    "transcoder=gc-padded preset=constraint-stressed:0.06 cov=8 hash=0x7441d7e2f2760db4 lost=0 corrected=5 failed=0",
    "transcoder=trellis preset=nanopore-decay:0.06 cov=8 hash=0x7441d7e2f2760db4 lost=1 corrected=7 failed=0",
    "transcoder=trellis preset=constraint-stressed:0.06 cov=8 hash=0x7441d7e2f2760db4 lost=1 corrected=13 failed=0",
];

/// Golden summaries. The four `preset=uniform` lines were captured from
/// the pre-channel-model release and freeze the uniform path's exact
/// behavior; the remaining lines pin the new presets going forward. The
/// final `+plan[…]` line pins the unequal-protection (multi-rate
/// Reed–Solomon) decode path.
const GOLDEN_MATRIX: [&str; 21] = [
    "preset=uniform:0.04 layout=baseline cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=3 failed=0",
    "preset=uniform:0.04 layout=baseline cov=12 hash=0x7441d7e2f2760db4 lost=1 corrected=6 failed=0",
    "preset=uniform:0.04 layout=gini cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=3 failed=0",
    "preset=uniform:0.04 layout=gini cov=12 hash=0x7441d7e2f2760db4 lost=1 corrected=6 failed=0",
    "preset=nanopore-decay:0.06 layout=baseline cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=6 failed=0",
    "preset=nanopore-decay:0.06 layout=baseline cov=12 hash=0x7441d7e2f2760db4 lost=0 corrected=6 failed=0",
    "preset=nanopore-decay:0.06 layout=gini cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=6 failed=0",
    "preset=nanopore-decay:0.06 layout=gini cov=12 hash=0x7441d7e2f2760db4 lost=0 corrected=6 failed=0",
    "preset=pcr-skewed:0.04 layout=baseline cov=6 hash=0x83db1b14f43e984d lost=6 corrected=12 failed=6",
    "preset=pcr-skewed:0.04 layout=baseline cov=12 hash=0x7441d7e2f2760db4 lost=2 corrected=13 failed=0",
    "preset=pcr-skewed:0.04 layout=gini cov=6 hash=0x38ec970fe822120b lost=6 corrected=28 failed=2",
    "preset=pcr-skewed:0.04 layout=gini cov=12 hash=0x7441d7e2f2760db4 lost=1 corrected=9 failed=0",
    "preset=dropout:0.04 layout=baseline cov=6 hash=0x7441d7e2f2760db4 lost=4 corrected=23 failed=0",
    "preset=dropout:0.04 layout=baseline cov=12 hash=0x7441d7e2f2760db4 lost=4 corrected=23 failed=0",
    "preset=dropout:0.04 layout=gini cov=6 hash=0x7441d7e2f2760db4 lost=4 corrected=25 failed=0",
    "preset=dropout:0.04 layout=gini cov=12 hash=0x7441d7e2f2760db4 lost=4 corrected=23 failed=0",
    "preset=bursty:0.04 layout=baseline cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=9 failed=0",
    "preset=bursty:0.04 layout=baseline cov=12 hash=0x7441d7e2f2760db4 lost=0 corrected=2 failed=0",
    "preset=bursty:0.04 layout=gini cov=6 hash=0x7441d7e2f2760db4 lost=0 corrected=7 failed=0",
    "preset=bursty:0.04 layout=gini cov=12 hash=0x7441d7e2f2760db4 lost=0 corrected=2 failed=0",
    "preset=nanopore-decay:0.06 layout=baseline+plan[2,2,3,4,6,7] cov=8 hash=0x56a12209d5564514 lost=0 corrected=8 failed=0",
];

/// The unlabeled-retrieval conformance matrix: 3 channel presets ×
/// 2 coverages, decoded through the full anonymize → orient → route →
/// validate → decode path on a primer-wrapped tiny pipeline. Each cell
/// pins the decoded-bytes hash plus the recovery tallies (purity as an
/// exact ratio, orphaned reads, re-routes, misassigned reads, failed
/// codewords). Purity alone cannot see a misrouted read that is the only
/// content of its column; the misassigned count does.
fn recovery_presets() -> Vec<(&'static str, ChannelModel)> {
    vec![
        (
            "uniform:0.03",
            ChannelModel::uniform(ErrorModel::uniform(0.03)),
        ),
        ("nanopore-decay:0.05", ChannelModel::nanopore_decay(0.05)),
        ("dropout:0.03", ChannelModel::dropout_prone(0.03, 0.05)),
    ]
}

const RECOVERY_SEED: u64 = 0xDECAF;

fn recovery_cell_summary(preset: &str, channel: &ChannelModel, cov: f64) -> String {
    let pipeline = Pipeline::builder()
        .params(
            CodecParams::tiny()
                .expect("tiny params")
                .with_primer_len(15),
        )
        .build()
        .expect("primered tiny pipeline");
    let scenario = Scenario::with_channel(channel.clone())
        .single_coverage(cov)
        .seed(RECOVERY_SEED)
        .unlabeled();
    scenario.validate().expect("matrix scenarios are valid");
    let units = pipeline.encode_chunked(&matrix_payload()).expect("encode");
    let pools = pipeline.sequence_batch(&scenario.backend(), &units, scenario.seed);
    let anonymous: Vec<AnonymousPool> = pools
        .iter()
        .enumerate()
        .map(|(u, p)| {
            AnonymousPool::from_clusters(
                &p.at_coverage(cov),
                dna_channel::unit_seed(scenario.anonymize_seed(0), u),
            )
        })
        .collect();
    let mut decoded = Vec::new();
    let mut merged = RecoveryReport::default();
    let mut failed = 0usize;
    for (bytes, report) in pipeline.decode_pool_batch(&anonymous).expect("decode") {
        decoded.extend_from_slice(&bytes);
        failed += report.failed_codewords();
        merged.merge_from(&report.recovery.expect("recovery stats present"));
    }
    format!(
        "preset={preset} cov={cov} hash={:#018x} purity={}/{} orphans={} merges={} \
         misassigned={} failed={failed}",
        fnv64(&decoded),
        merged.purity_num,
        merged.purity_den,
        merged.orphaned_reads,
        merged.duplicate_index_merges,
        merged.misassigned_reads,
    )
}

fn compute_recovery_matrix() -> Vec<String> {
    let mut out = Vec::new();
    for (preset, channel) in recovery_presets() {
        for cov in COVERAGES {
            out.push(recovery_cell_summary(preset, &channel, cov));
        }
    }
    out
}

/// Golden recovery summaries, pinned at `RECOVERY_SEED`. Regenerate
/// after an intentional recovery/clustering change with
/// `DNA_SKEW_BLESS=1` exactly like the main matrix.
const RECOVERY_GOLDEN_MATRIX: [&str; 6] = [
    "preset=uniform:0.03 cov=6 hash=0x7441d7e2f2760db4 purity=264/264 orphans=9 merges=13 misassigned=0 failed=0",
    "preset=uniform:0.03 cov=12 hash=0x7441d7e2f2760db4 purity=527/527 orphans=18 merges=33 misassigned=0 failed=0",
    "preset=nanopore-decay:0.05 cov=6 hash=0x1b49329442452804 purity=256/256 orphans=17 merges=23 misassigned=0 failed=2",
    "preset=nanopore-decay:0.05 cov=12 hash=0x7441d7e2f2760db4 purity=513/514 orphans=31 merges=53 misassigned=1 failed=0",
    "preset=dropout:0.03 cov=6 hash=0x3f1106c666a64705 purity=242/242 orphans=6 merges=13 misassigned=0 failed=4",
    "preset=dropout:0.03 cov=12 hash=0x7441d7e2f2760db4 purity=480/480 orphans=18 merges=23 misassigned=0 failed=0",
];

/// The object-store conformance cell: a deterministic store lifecycle
/// (create → put ×2 → delete → fetch) whose persisted manifest hash,
/// capsule tallies, and fetch receipt are pinned. The manifest text is
/// deterministic — capsule offsets derive from fixed record geometry and
/// primer pairs from the pool seed — so its FNV-1a hash is a stable
/// fingerprint of the entire on-disk format. A format change that is NOT
/// intentional shows up here first.
fn object_store_cell_summary() -> String {
    use dna_skew::object::{ObjectStore, StoreConfig};
    let dir = std::env::temp_dir().join(format!(
        "dna-skew-conformance-objstore-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store =
        ObjectStore::create(&dir, StoreConfig::tiny().expect("tiny config")).expect("create");
    let alpha: Vec<u8> = (0..200u32)
        .map(|i| (i.wrapping_mul(131) % 256) as u8)
        .collect();
    let beta = vec![0u8; 300]; // zero-heavy: exercises the compressed path
    let a = store.put_bytes("alpha.bin", &alpha).expect("put alpha");
    let b = store.put_bytes("beta.bin", &beta).expect("put beta");
    store.delete(b).expect("delete beta");
    let mut fetched = Vec::new();
    let report = store.fetch(a, &mut fetched).expect("fetch alpha");
    assert_eq!(fetched, alpha, "object store round trip");
    let manifest = store.manifest();
    let summary = format!(
        "objects={} capsules={} manifest_hash={:#018x} fetch_capsules={} fetch_units={} fetch_reads={}",
        manifest.objects().len(),
        manifest.capsules().len(),
        manifest.hash(),
        report.capsules,
        report.units,
        report.reads,
    );
    let _ = std::fs::remove_dir_all(&dir);
    summary
}

/// Golden object-store summary. Regenerate after an *intentional* pool /
/// manifest format change with `DNA_SKEW_BLESS=1` like the other tables —
/// an unintentional diff here means the on-disk format drifted.
const OBJECT_GOLDEN: [&str; 1] = [
    "objects=2 capsules=7 manifest_hash=0xdfdb066fbf6496b9 fetch_capsules=3 fetch_units=7 fetch_reads=105",
];

/// The serve-mode conformance cell: an in-process server (4 decode
/// workers, bounded queue) over a tiny store, driven by a deterministic
/// mixed workload. Phase A seeds three objects sequentially; phase B
/// runs three *concurrent* clients, each with a fixed read-only trace;
/// phase C mutates and lists sequentially. Each client's concatenated
/// wire-encoded response stream is hashed — read-only concurrency means
/// every interleaving must produce byte-identical per-client streams,
/// whatever the worker count, thread count, or coalescing pattern.
fn serve_cell_summary() -> String {
    use dna_skew::object::{ObjectStore, StoreConfig};
    use dna_skew::server::protocol::{write_response, Request, Response};
    use dna_skew::server::{ServeConfig, Server};

    fn stream_hash(responses: &[Response]) -> u64 {
        let mut bytes = Vec::new();
        for response in responses {
            write_response(&mut bytes, response).expect("in-memory write");
        }
        fnv64(&bytes)
    }
    fn fetch(target: &str, recover: bool) -> Request {
        Request::Fetch {
            target: target.into(),
            recover,
        }
    }

    let dir =
        std::env::temp_dir().join(format!("dna-skew-conformance-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store =
        ObjectStore::create(&dir, StoreConfig::tiny().expect("tiny config")).expect("create");
    let server = Server::start(
        store,
        &ServeConfig {
            workers: 4,
            queue_depth: 16,
        },
    );
    let client = server.client();

    // Phase A: sequential puts — object ids are deterministic.
    let alpha: Vec<u8> = (0..200u32)
        .map(|i| (i.wrapping_mul(131) % 256) as u8)
        .collect();
    let beta = vec![0u8; 300]; // zero-heavy: exercises the compressed path
    let gamma: Vec<u8> = (0..150u32)
        .map(|i| (i.wrapping_mul(17) % 256) as u8)
        .collect();
    let puts = vec![
        client.put("alpha.bin", alpha),
        client.put("beta.bin", beta),
        client.put("gamma.bin", gamma),
    ];
    let seed_hash = stream_hash(&puts);

    // Phase B: concurrent clients, read-only fixed traces (direct
    // fetches, recovery fetches, listings, a miss).
    let traces: [Vec<Request>; 3] = [
        vec![
            fetch("alpha.bin", false),
            fetch("beta.bin", false),
            fetch("alpha.bin", true),
            Request::Ls,
        ],
        vec![
            fetch("beta.bin", false),
            fetch("gamma.bin", true),
            fetch("alpha.bin", false),
            fetch("alpha.bin", false),
        ],
        vec![
            fetch("gamma.bin", false),
            fetch("missing.bin", false),
            Request::Ls,
            fetch("beta.bin", true),
        ],
    ];
    let clients: Vec<_> = traces
        .into_iter()
        .map(|trace| {
            let client = server.client();
            std::thread::spawn(move || {
                let responses: Vec<_> = trace.into_iter().map(|r| client.call(r)).collect();
                stream_hash(&responses)
            })
        })
        .collect();
    let hashes: Vec<u64> = clients
        .into_iter()
        .map(|c| c.join().expect("serve client"))
        .collect();

    // Phase C: sequential mutation, then the post-state listing.
    let post = vec![
        client.del("gamma.bin"),
        client.fetch("gamma.bin", false),
        client.ls(),
    ];
    let post_hash = stream_hash(&post);

    drop(client);
    server.shutdown().expect("sole owner at shutdown");
    let _ = std::fs::remove_dir_all(&dir);
    format!(
        "serve seed={seed_hash:#018x} c0={:#018x} c1={:#018x} c2={:#018x} post={post_hash:#018x}",
        hashes[0], hashes[1], hashes[2],
    )
}

/// Golden serve-mode summary. Regenerate after an *intentional* wire or
/// store format change with `DNA_SKEW_BLESS=1`. A diff here without a
/// format change means serve-mode responses depend on scheduling — the
/// exact nondeterminism the worker/coalescing design must exclude.
const SERVE_GOLDEN: [&str; 1] = [
    "serve seed=0x3ee2939e38c27133 c0=0x69f3be19bc75f2ea c1=0x541c146eb91ac811 c2=0xaf16fb5fb53ace93 post=0x9d99a35056686f89",
];

/// The chaos-campaign conformance cell: every built-in adversarial
/// preset (pool faults and object-store byte faults) at a pinned seed
/// and a reduced trial count. Each line pins one scenario's four-way
/// verdict tally — exact / degraded / loud / silent. Two contracts:
///
/// 1. The whole campaign is deterministic in its seed (and, via the
///    invariance test below, in the thread count).
/// 2. The `silent=0` suffix on every line IS the silent-corruption
///    detector: any future change that lets wrong bytes through with a
///    clean bill of health flips a golden here before it ships.
fn compute_chaos_summary() -> Vec<String> {
    use dna_skew::chaos::{builtin_presets, run_campaign, CampaignConfig};
    let mut config = CampaignConfig::quick(CHAOS_SEED, 4).expect("tiny geometry");
    config.scratch =
        std::env::temp_dir().join(format!("dna-skew-conformance-chaos-{}", std::process::id()));
    let report = run_campaign(&builtin_presets(), &config).expect("campaign runs");
    let _ = std::fs::remove_dir_all(&config.scratch);
    assert_eq!(
        report.silent_corruptions(),
        0,
        "silent corruption in the conformance campaign"
    );
    report.summary_lines()
}

const CHAOS_SEED: u64 = 0xC4A05;

/// Golden chaos verdicts at `CHAOS_SEED`, 4 trials/scenario. Regenerate
/// after an *intentional* fault-model or decoder change with
/// `DNA_SKEW_BLESS=1`; a `silent` count above zero must never be
/// blessed — it is the defect the campaign exists to catch.
const CHAOS_GOLDEN: [&str; 10] = [
    "dropout-sustained exact=2 degraded=2 loud=0 silent=0",
    "index-burst exact=0 degraded=4 loud=0 silent=0",
    "contamination exact=3 degraded=1 loud=0 silent=0",
    "truncate-chimera exact=0 degraded=4 loud=0 silent=0",
    "near-duplicate exact=4 degraded=0 loud=0 silent=0",
    "torn-append exact=4 degraded=0 loud=0 silent=0",
    "header-flip exact=0 degraded=0 loud=4 silent=0",
    "strand-flip exact=0 degraded=0 loud=4 silent=0",
    "sidecar-corrupt exact=0 degraded=4 loud=0 silent=0",
    "sidecar-torn exact=0 degraded=4 loud=0 silent=0",
];

fn assert_matches(matrix: &[String], golden: &[&str], context: &str) {
    if std::env::var("DNA_SKEW_BLESS").is_ok() {
        for line in matrix {
            println!("    \"{line}\",");
        }
        return;
    }
    assert_eq!(matrix.len(), golden.len(), "{context}: matrix size");
    for (got, want) in matrix.iter().zip(golden.iter()) {
        assert_eq!(got, want, "{context}");
    }
}

fn assert_matches_golden(matrix: &[String], context: &str) {
    assert_matches(matrix, &GOLDEN_MATRIX, context);
}

#[test]
fn conformance_matrix_matches_golden_reports() {
    let _guard = env_guard();
    assert_matches_golden(&compute_matrix(), "default thread count");
}

#[test]
fn transcoded_matrix_matches_golden_reports() {
    let _guard = env_guard();
    assert_matches(
        &compute_transcoded_matrix(),
        &TRANSCODED_GOLDEN,
        "transcoded, default thread count",
    );
}

#[test]
fn transcoded_matrix_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches(
            &compute_transcoded_matrix(),
            &TRANSCODED_GOLDEN,
            &format!("transcoded, DNA_SKEW_THREADS={threads}"),
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

#[test]
fn conformance_matrix_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches_golden(&compute_matrix(), &format!("DNA_SKEW_THREADS={threads}"));
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

#[test]
fn object_store_matches_golden_report() {
    let _guard = env_guard();
    assert_matches(
        &[object_store_cell_summary()],
        &OBJECT_GOLDEN,
        "object store, default thread count",
    );
}

#[test]
fn object_store_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches(
            &[object_store_cell_summary()],
            &OBJECT_GOLDEN,
            &format!("object store, DNA_SKEW_THREADS={threads}"),
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

#[test]
fn chaos_campaign_matches_golden_verdicts() {
    let _guard = env_guard();
    assert_matches(
        &compute_chaos_summary(),
        &CHAOS_GOLDEN,
        "chaos, default thread count",
    );
}

#[test]
fn chaos_campaign_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches(
            &compute_chaos_summary(),
            &CHAOS_GOLDEN,
            &format!("chaos, DNA_SKEW_THREADS={threads}"),
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

#[test]
fn serve_mode_matches_golden_report() {
    let _guard = env_guard();
    assert_matches(
        &[serve_cell_summary()],
        &SERVE_GOLDEN,
        "serve, default thread count",
    );
}

#[test]
fn serve_mode_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches(
            &[serve_cell_summary()],
            &SERVE_GOLDEN,
            &format!("serve, DNA_SKEW_THREADS={threads}"),
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

#[test]
fn recovery_matrix_matches_golden_reports() {
    let _guard = env_guard();
    assert_matches(
        &compute_recovery_matrix(),
        &RECOVERY_GOLDEN_MATRIX,
        "default thread count",
    );
}

#[test]
fn recovery_matrix_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_matches(
            &compute_recovery_matrix(),
            &RECOVERY_GOLDEN_MATRIX,
            &format!("recovery, DNA_SKEW_THREADS={threads}"),
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

/// The layout conformance table: every built-in layout's cell maps at
/// three geometries. Encode and decode share a layout, so a round trip
/// cannot see a moved cell, yet every pool written before the move would
/// stop decoding. Each line hashes the codeword cell lists, the payload
/// placement of every data position, and the strands of one patterned
/// unit. Regenerate only after an *intentional* pool-format change with
/// `DNA_SKEW_BLESS=1`.
fn compute_layout_tables() -> Vec<String> {
    let geometries = [
        ("tiny", CodecParams::tiny().unwrap()),
        ("laptop", CodecParams::laptop().unwrap()),
        (
            "gf256-30x160+24",
            CodecParams::new(dna_skew::gf::Field::gf256(), 30, 160, 24, 8).unwrap(),
        ),
    ];
    let mut out = Vec::new();
    for (gname, params) in geometries {
        let (rows, data_cols) = (params.rows(), params.data_cols());
        let last = rows - 1;
        let layouts = [
            Layout::Baseline,
            Layout::Gini {
                excluded_rows: vec![],
            },
            Layout::Gini {
                excluded_rows: vec![0, last],
            },
            Layout::Gini {
                excluded_rows: vec![last, 1],
            },
            Layout::DnaMapper,
        ];
        for layout in layouts {
            let pipeline = Pipeline::builder()
                .params(params.clone())
                .layout(layout.clone())
                .build()
                .unwrap();
            let mut cells = Vec::new();
            for codeword in pipeline.codeword_positions() {
                cells.push(0xFE);
                for &(r, c) in codeword {
                    cells.extend_from_slice(&(r as u32).to_le_bytes());
                    cells.extend_from_slice(&(c as u32).to_le_bytes());
                }
            }
            let mut place = Vec::new();
            for p in 0..rows * data_cols {
                let (r, c) = pipeline.layout().place(p, rows, data_cols);
                place.extend_from_slice(&(r as u32).to_le_bytes());
                place.extend_from_slice(&(c as u32).to_le_bytes());
            }
            let payload: Vec<u8> = (0..pipeline.payload_capacity())
                .map(|i| (i.wrapping_mul(151) % 256) as u8)
                .collect();
            let unit = pipeline.encode_unit(&payload).unwrap();
            let mut strands = Vec::new();
            for strand in unit.strands() {
                strands.push(0xFD);
                strands.extend(strand.iter().map(|b| b.to_bits()));
            }
            let lname = match &layout {
                Layout::Gini { excluded_rows } => format!("gini{excluded_rows:?}"),
                other => other.name().to_string(),
            };
            out.push(format!(
                "geometry={gname} layout={lname} cells={:#018x} place={:#018x} strands={:#018x}",
                fnv64(&cells),
                fnv64(&place),
                fnv64(&strands),
            ));
        }
    }
    out
}

/// Golden layout tables, generated before the layout engines were
/// folded into `Layout`; they must never change without a pool-format
/// version bump.
const LAYOUT_TABLES_GOLDEN: [&str; 15] = [
    "geometry=tiny layout=baseline cells=0xcf4ab799d4e16c16 place=0xe99a2b46bee1fb65 strands=0xb036f1e59a847d7f",
    "geometry=tiny layout=gini[] cells=0xfefa4da4e07c7dd4 place=0xe99a2b46bee1fb65 strands=0xf729e8488bfaf81e",
    "geometry=tiny layout=gini[0, 5] cells=0x8c29552aee6ce862 place=0xe99a2b46bee1fb65 strands=0x334105951a146c0f",
    "geometry=tiny layout=gini[5, 1] cells=0x49f21ad1b7b703e4 place=0xe99a2b46bee1fb65 strands=0x059d1ca534e5cd3d",
    "geometry=tiny layout=dnamapper cells=0xcf4ab799d4e16c16 place=0xc96c8d23e53b1445 strands=0x85d59133c4aac5c1",
    "geometry=laptop layout=baseline cells=0xf345eae4bd2209d6 place=0xdba5bfe960b1c025 strands=0xd741b75d7745aefb",
    "geometry=laptop layout=gini[] cells=0xe063f82b2d6cafe8 place=0xdba5bfe960b1c025 strands=0x11533d38e8c5a323",
    "geometry=laptop layout=gini[0, 29] cells=0xe8a9d02aa8233b72 place=0xdba5bfe960b1c025 strands=0x813e4e8a4a058276",
    "geometry=laptop layout=gini[29, 1] cells=0xb757354e52dae04c place=0xdba5bfe960b1c025 strands=0xb6ad0bc8880e2d3a",
    "geometry=laptop layout=dnamapper cells=0xf345eae4bd2209d6 place=0xd6aeaa9037cdad25 strands=0xc2882b077ca157e5",
    "geometry=gf256-30x160+24 layout=baseline cells=0xf66947fb88e01b1d place=0x0001a411c93e8d25 strands=0xf0aa8c020e37f24e",
    "geometry=gf256-30x160+24 layout=gini[] cells=0xff642a8c5f499f3d place=0x0001a411c93e8d25 strands=0x04aeb3355d92c303",
    "geometry=gf256-30x160+24 layout=gini[0, 29] cells=0x0677204cec8f78dd place=0x0001a411c93e8d25 strands=0x5f5b4ad44be0c192",
    "geometry=gf256-30x160+24 layout=gini[29, 1] cells=0x7beb7a8a99b7089f place=0x0001a411c93e8d25 strands=0xfbb18de3dcbcdac0",
    "geometry=gf256-30x160+24 layout=dnamapper cells=0xf66947fb88e01b1d place=0xa88c7744711ddc25 strands=0xffe97afd9048f847",
];

#[test]
fn layout_tables_match_golden_cell_maps() {
    let _guard = env_guard();
    assert_matches(
        &compute_layout_tables(),
        &LAYOUT_TABLES_GOLDEN,
        "layout tables",
    );
}

/// The transcoder conformance table: every [`TranscoderSpec`]'s payload
/// length, field spans, encoded bases and noisy decodes at three
/// geometries. The third has a 16-bit index, so gc-padded places a pad
/// base inside the index field. `TRANSCODED_GOLDEN` hashes only decoded
/// payloads, which a layout that moves bases in step on both sides
/// leaves intact; this table pins the bases themselves. Regenerate only
/// after an *intentional* pool-format change with `DNA_SKEW_BLESS=1`.
fn compute_transcoder_tables() -> Vec<String> {
    let geometries = [
        ("tiny", CodecParams::tiny().unwrap()),
        ("laptop", CodecParams::laptop().unwrap()),
        (
            "gf256-30x160+24/16",
            CodecParams::new(dna_skew::gf::Field::gf256(), 30, 160, 24, 16).unwrap(),
        ),
    ];
    let mut out = Vec::new();
    for (gname, params) in geometries {
        let geom = params.payload_geometry();
        let index_mask = (1u64 << geom.index_bits) as u32 - 1;
        let symbol_mask = ((1u32 << geom.symbol_bits) - 1) as u16;
        for spec in TranscoderSpec::ALL {
            let mut spans = Vec::new();
            for field in 0..geom.fields() {
                let (start, len) = spec.field_span(field, geom);
                spans.extend_from_slice(&(start as u32).to_le_bytes());
                spans.extend_from_slice(&(len as u32).to_le_bytes());
            }
            let (mut encoded, mut decoded) = (Vec::new(), Vec::new());
            for k in 0..8u32 {
                let index = k.wrapping_mul(0x9E37_79B9) & index_mask;
                let symbols: Vec<u16> = (0..geom.rows as u32)
                    .map(|r| (k.wrapping_mul(31) + r.wrapping_mul(151)) as u16 & symbol_mask)
                    .collect();
                let mut payload = DnaString::new();
                spec.encode_payload_into(index, &symbols, geom, &mut payload)
                    .unwrap();
                encoded.push(0xFD);
                encoded.extend(payload.iter().map(|b| b.to_bits()));
                // One substituted base per payload, walking the strand,
                // pins how decode reads a noisy field too.
                let mut noisy: Vec<Base> = payload.as_slice().to_vec();
                let at = (k as usize * 7) % noisy.len();
                noisy[at] = Base::ALL[(usize::from(noisy[at].to_bits()) + 1) % 4];
                decoded.extend_from_slice(&spec.decode_index(&noisy, geom).unwrap().to_le_bytes());
                for r in 0..geom.rows {
                    let sym = spec.decode_symbol(&noisy, r, geom).unwrap();
                    decoded.extend_from_slice(&sym.to_le_bytes());
                }
            }
            out.push(format!(
                "geometry={gname} transcoder={} payload_bases={} index_span={:?} spans={:#018x} encoded={:#018x} decoded={:#018x}",
                spec.name(),
                spec.payload_bases(geom),
                spec.field_span(0, geom),
                fnv64(&spans),
                fnv64(&encoded),
                fnv64(&decoded),
            ));
        }
    }
    out
}

/// Golden transcoder tables, generated before `StrandTranscoder` was
/// folded into `TranscoderSpec`; they must never change without a
/// pool-format version bump.
const TRANSCODER_TABLES_GOLDEN: [&str; 9] = [
    "geometry=tiny transcoder=direct payload_bases=14 index_span=(0, 2) spans=0x3ed2d50094b7e069 encoded=0x0a1ccb2d11ed127f decoded=0xfc39d146b56391dd",
    "geometry=tiny transcoder=gc-padded payload_bases=18 index_span=(0, 2) spans=0xe70049ca082aac2e encoded=0xf508a4807921a82b decoded=0x6de132ab79df9e3a",
    "geometry=tiny transcoder=trellis payload_bases=23 index_span=(0, 3) spans=0x67bd20c55c1345f0 encoded=0x77f6b255e1d389c7 decoded=0x438a96cf80cbd9c4",
    "geometry=laptop transcoder=direct payload_bases=124 index_span=(0, 4) spans=0x50aa12d72dee32bd encoded=0x2c6b7b0dec9c84a2 decoded=0xc814ffe05590e45f",
    "geometry=laptop transcoder=gc-padded payload_bases=155 index_span=(0, 4) spans=0x1d858f09f2d57a9a encoded=0x9069ea9391bb92ea decoded=0x8c2a89aafac1a894",
    "geometry=laptop transcoder=trellis payload_bases=209 index_span=(0, 6) spans=0x679f4e2c4471855a encoded=0xaf0062a858f70d61 decoded=0x6293d53cf35b1b12",
    "geometry=gf256-30x160+24/16 transcoder=direct payload_bases=128 index_span=(0, 8) spans=0x50bfcb1e52fded89 encoded=0xdfec4362f6aa6dd7 decoded=0x9630ce8ab89e662c",
    "geometry=gf256-30x160+24/16 transcoder=gc-padded payload_bases=160 index_span=(0, 9) spans=0x1b0a6b5793752359 encoded=0x85521792bfcf57d1 decoded=0x04f2eb5c358cf053",
    "geometry=gf256-30x160+24/16 transcoder=trellis payload_bases=214 index_span=(0, 12) spans=0x47fe274f2d948322 encoded=0xadcd0c5af99d2cff decoded=0x9afa32379f02944e",
];

#[test]
fn transcoder_tables_match_golden_encodings() {
    let _guard = env_guard();
    assert_matches(
        &compute_transcoder_tables(),
        &TRANSCODER_TABLES_GOLDEN,
        "transcoder tables",
    );
}

/// The uniform-preset pool fingerprints, captured from the pre-channel-
/// model release: `SimulatedSequencer::new` (and the whole
/// `ChannelModel::uniform` path) must reproduce these pools byte-for-byte
/// for old seeds, under both fixed and Gamma coverage.
#[test]
fn uniform_pools_are_byte_identical_to_pre_channel_release() {
    let _guard = env_guard();
    let pipeline = Pipeline::builder()
        .params(CodecParams::tiny().unwrap())
        .layout(Layout::Baseline)
        .build()
        .unwrap();
    let payload: Vec<u8> = (0..30u8)
        .map(|i| i.wrapping_mul(37).wrapping_add(11))
        .collect();
    let unit = pipeline.encode_unit(&payload).unwrap();
    let golden: [(u64, f64, usize, u64, u64); 3] = [
        (1, 0.05, 4, 0xe1a3a5aab06db97a, 0xa97409cb4be96881),
        (42, 0.09, 8, 0x494fe3200abfa53b, 0x3d66dc5dfc93bc8b),
        (0xBEEF, 0.02, 6, 0xd303b7a9914464fd, 0x4461e57048468653),
    ];
    for (seed, p, cov, fixed_hash, gamma_hash) in golden {
        let gamma = CoverageModel::Gamma {
            mean: cov as f64,
            shape: 6.0,
        };
        for (coverage, want) in [(CoverageModel::Fixed(cov), fixed_hash), (gamma, gamma_hash)] {
            // The flat-model constructor and the explicit channel-model
            // route must both reproduce the literal hashes.
            let routes = [
                (
                    "new",
                    SimulatedSequencer::new(ErrorModel::uniform(p), coverage),
                ),
                (
                    "with_channel",
                    SimulatedSequencer::with_channel(
                        ChannelModel::uniform(ErrorModel::uniform(p)),
                        coverage,
                    ),
                ),
            ];
            for (route, sequencer) in routes {
                let pool = sequencer.sequence_unit(0, unit.strands(), seed);
                assert_eq!(
                    pool_hash(&pool),
                    want,
                    "{route} pool drifted at seed={seed} p={p} coverage={coverage:?}"
                );
            }
        }
    }
}
