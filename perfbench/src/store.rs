//! `store-rw`: archival ingest beside retrieval on `StoreConfig::laptop()`
//! with a ChaCha20 key and compression on. Each round puts a seeded set
//! of objects (4 KiB–1 MiB; half with zero runs, half random) into a
//! fresh store, then fetches every one in seeded order. Strands are
//! coverage-1 and clean, so consensus does little while RS, pool I/O,
//! crypto, compression and the manifest fsync do much.
//!
//! The traced run also flips one strand-section byte in a seeded 1-in-8
//! subset after the clean fetches and fetches those objects again. Today
//! that fails loudly (`object.crc_reject_ratio`,
//! `object.damaged_exact_ratio`); the timed run leaves it out so that no
//! operation there fails.

use crate::compose::{Counts, Decoder};
use crate::trace::{self, span};
use crate::units::rs_encode_probe_ms;
use crate::util::{
    self, fail, maybe_inject, median, ms, quantile, ratio, secs, silent, Metrics, Rng, Tally,
};
use crate::Ctx;
use dna_channel::ReadPool;
use dna_crypto::ChaCha20;
use dna_object::capsule::{
    capsule_primers, packed_strand_len, read_strands, write_strands, CapsuleHeader,
    FLAG_COMPRESSED, FLAG_ENCRYPTED, FLAG_MANIFEST, MANIFEST_OBJECT_ID,
};
use dna_object::{compress, FetchOptions, ObjectStore, StoreConfig, POOL_FILE};
use dna_storage::{DecodeWorkspace, Pipeline, StorageError};
use dna_strand::{DnaString, Primer};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Objects per round: sizes climb geometrically from 4 KiB to 1 MiB, so
/// every seed stores the same ≈ 3 MiB. An odd count puts the latency
/// median and 90th percentile inside one object's samples rather than on
/// the gap between two sizes.
const OBJECTS: usize = 15;
const SMALLEST: usize = 4 * 1024;
const LARGEST: usize = 1024 * 1024;
const DAMAGED_ONE_IN: usize = 8;
const SETUPS: usize = 15;

pub struct Object {
    pub name: String,
    pub bytes: Vec<u8>,
}

/// A seeded object of `len` bytes: random, or with every other 256-byte
/// run zeroed. The run pattern is fixed so that the stored (compressed)
/// size, and with it the work per object, is the same for every seed.
pub fn object(rng: &mut Rng, name: String, len: usize, zero_runs: bool) -> Object {
    let mut bytes = rng.bytes(len);
    if zero_runs {
        for run in bytes.chunks_mut(256).step_by(2) {
            run.fill(0);
        }
    }
    Object { name, bytes }
}

struct Inputs {
    config: StoreConfig,
    key: [u8; 32],
    objects: Vec<Object>,
}

fn setup(seed: u64) -> Inputs {
    let mut rng = Rng::new(seed);
    let mut key = [0u8; 32];
    key.copy_from_slice(&rng.bytes(32));
    let config = StoreConfig::laptop()
        .expect("laptop store")
        .with_key(key)
        .with_compression(true);
    let step = (LARGEST as f64 / SMALLEST as f64).powf(1.0 / (OBJECTS - 1) as f64);
    let mut objects: Vec<Object> = (0..OBJECTS)
        .map(|i| {
            let len = (SMALLEST as f64 * step.powi(i as i32)).round() as usize;
            object(&mut rng, format!("obj-{i}"), len, i % 2 == 0)
        })
        .collect();
    rng.shuffle(&mut objects);
    Inputs {
        config,
        key,
        objects,
    }
}

fn fresh_dir(ctx: &Ctx, name: &str) -> PathBuf {
    let dir = ctx.work_dir.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear store dir");
    }
    dir
}

fn put_all(
    store: &mut ObjectStore,
    objects: &[Object],
    mut each: impl FnMut(usize, f64),
) -> Vec<u64> {
    objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let t = Instant::now();
            let id = store
                .put_bytes(&o.name, &o.bytes)
                .unwrap_or_else(|e| fail(&format!("put {}: {e}", o.name)));
            each(i, ms(t));
            id
        })
        .collect()
}

/// DNA bases stored per user byte, over the data capsules.
fn bases_per_byte(store: &ObjectStore) -> f64 {
    let h = store.header();
    let strand_bases = h.params().expect("params").strand_bases();
    let bases: u64 = store
        .manifest()
        .capsules()
        .iter()
        .map(|c| u64::from(c.units) * (h.cols() * strand_bases) as u64)
        .sum();
    let bytes: u64 = store.list().iter().map(|o| o.bytes).sum();
    bases as f64 / bytes as f64
}

pub fn run(ctx: &Ctx) -> (Metrics, Tally) {
    let (inputs, setup_s) = util::repeated_setup(SETUPS, || setup(ctx.seed), drop);
    let mut m = Metrics::default();
    let tally = if ctx.trace {
        traced(&inputs, ctx, &mut m)
    } else {
        untraced(&inputs, ctx, &mut m)
    };
    m.set("setup_s", setup_s, "s");
    (m, tally)
}

fn untraced(inputs: &Inputs, ctx: &Ctx, m: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(ctx.seed ^ 0xF37C);
    // Per-round rates, reported as medians over rounds.
    let (mut read_rates, mut write_rates) = (Vec::new(), Vec::new());
    let mut latencies = Vec::new();
    let mut density = 0.0;
    let start = Instant::now();
    let mut round = 0;
    while round == 0 || secs(start) < ctx.seconds {
        let dir = fresh_dir(ctx, "store-rw");
        let mut store = ObjectStore::create(&dir, inputs.config.clone())
            .unwrap_or_else(|e| fail(&format!("create store: {e}")));
        let (mut write_s, mut write_bytes, mut read_s, mut read_bytes) = (0.0, 0.0, 0.0, 0.0);
        let ids = put_all(&mut store, &inputs.objects, |i, dt| {
            write_s += dt / 1e3;
            write_bytes += inputs.objects[i].bytes.len() as f64;
            tally.record(true);
        });
        write_rates.push(write_bytes / write_s);
        if round == 0 {
            density = bases_per_byte(&store);
        }
        let mut order: Vec<usize> = (0..ids.len()).collect();
        rng.shuffle(&mut order);
        let mut out = Vec::new();
        for i in order {
            out.clear();
            let t = Instant::now();
            let result = store.fetch(ids[i], &mut out);
            let dt = secs(t);
            read_s += dt;
            latencies.push(dt * 1e3);
            maybe_inject(&mut out, ctx.inject);
            let ok = result.is_ok();
            if ok && out != inputs.objects[i].bytes {
                silent(&format!(
                    "fetch of {} returned wrong bytes",
                    inputs.objects[i].name
                ));
            }
            tally.record(ok);
            if ok {
                read_bytes += out.len() as f64;
            }
        }
        read_rates.push(read_bytes / read_s);
        drop(store);
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        round += 1;
    }
    eprintln!(
        "perfbench: {} read-latency samples (one per object fetch), {round} rounds",
        latencies.len()
    );
    m.set("read_mb_s", median(&read_rates) / 1e6, "MB/s");
    m.set("write_mb_s", median(&write_rates) / 1e6, "MB/s");
    m.set("read_p50_ms", quantile(&latencies, 0.5), "ms");
    m.set("read_p90_ms", quantile(&latencies, 0.9), "ms");
    m.set("bases_per_byte", density, "bases/B");
    tally
}

/// The per-capsule keystream nonce of object `id` (object id, then
/// `caps`), as the store derives it.
fn object_nonce(id: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&id.to_le_bytes());
    nonce[8..].copy_from_slice(b"caps");
    nonce
}

fn keystream(key: &[u8; 32], id: u64, capsule: usize, capacity: usize, data: &mut [u8]) {
    span("crypto.keystream", || {
        let mut cipher = ChaCha20::new(key, &object_nonce(id));
        cipher.seek_block((capsule * capacity.div_ceil(64)) as u32);
        cipher.apply_keystream(data);
    });
}

fn primer(text: &str) -> Primer {
    let strand: DnaString = text.parse().expect("manifest primers parse");
    Primer::from_strand(strand)
}

/// Stats the traced store composition gathers beyond the spans.
#[derive(Default)]
pub struct StoreStats {
    plain_bytes: u64,
    stored_bytes: u64,
    encoded_units: usize,
    capsule_reads: u64,
    crc_rejects: u64,
}

/// Encodes `stored` under the given primers and appends the capsule
/// record (header, strands, CRC trailer) to `record`.
fn encode_record(
    base: &Pipeline,
    header: CapsuleHeader,
    stored: &[u8],
    record: &mut Vec<u8>,
    stats: &mut StoreStats,
) -> Result<(), StorageError> {
    let pipeline = base
        .clone()
        .with_primers(header.left.clone(), header.right.clone())?;
    // Serial, so the RS probe (also serial) can be taken out of it; the
    // store's `encode_chunked` is byte-identical at any thread count.
    let units = span("storage.encode", || {
        let capacity = pipeline.payload_capacity();
        let chunks: Vec<&[u8]> = if stored.is_empty() {
            vec![&[]]
        } else {
            stored.chunks(capacity).collect()
        };
        chunks
            .into_iter()
            .map(|c| pipeline.encode_unit(c))
            .collect::<Result<Vec<_>, _>>()
    })?;
    stats.encoded_units += units.len();
    let strands: Vec<Vec<DnaString>> = units.iter().map(|u| u.strands().to_vec()).collect();
    span("object.pool_write", || -> Result<(), StorageError> {
        let header = CapsuleHeader {
            units: units.len() as u32,
            ..header
        };
        header.write_to(record)?;
        write_strands(record, &strands, base.params().strand_bases())?;
        Ok(())
    })
}

/// `ObjectStore::put` of object `id` re-driven through public parts:
/// compress → encrypt → encode → capsule records, then the manifest
/// super-capsule and sidecar commit. Returns the record bytes, which must
/// equal what the real put appended to the pool.
#[allow(clippy::too_many_arguments)]
pub fn shadow_put(
    store: &ObjectStore,
    base: &Pipeline,
    key: &[u8; 32],
    id: u64,
    bytes: &[u8],
    shadow: &mut File,
    shadow_dir: &Path,
    stats: &mut StoreStats,
) -> Result<Vec<u8>, StorageError> {
    let manifest = store.manifest();
    let entry = manifest.object(id).expect("object just put");
    let capacity = store.capsule_capacity();
    let mut record = Vec::new();
    for (k, seq) in entry.capsules.clone().enumerate() {
        let ce = manifest.capsule(seq).expect("capsule in manifest");
        let plain = &bytes[k * capacity..((k + 1) * capacity).min(bytes.len())];
        let packed = span("object.compress", || compress::compress(plain));
        if packed.is_some() != (ce.flags & FLAG_COMPRESSED != 0) {
            fail("fidelity: compression choice differs from the stored capsule");
        }
        let mut stored = packed.unwrap_or_else(|| plain.to_vec());
        stats.plain_bytes += plain.len() as u64;
        stats.stored_bytes += stored.len() as u64;
        if ce.flags & FLAG_ENCRYPTED != 0 {
            keystream(key, id, k, capacity, &mut stored);
        }
        let header = CapsuleHeader {
            seq,
            object_id: id,
            flags: ce.flags,
            name: entry.name.clone(),
            units: 0,
            plain_len: plain.len() as u64,
            stored_len: stored.len() as u64,
            left: primer(&ce.left),
            right: primer(&ce.right),
        };
        encode_record(base, header, &stored, &mut record, stats)?;
    }
    // The commit: a manifest super-capsule, then the fsynced sidecar.
    let seq = manifest.next_seq - 1;
    let text = manifest.to_text();
    let (left, right) = capsule_primers(
        manifest.pool_seed,
        seq,
        usize::from(store.header().primer_len),
    )?;
    let header = CapsuleHeader {
        seq,
        object_id: MANIFEST_OBJECT_ID,
        flags: FLAG_MANIFEST,
        name: String::new(),
        units: 0,
        plain_len: text.len() as u64,
        stored_len: text.len() as u64,
        left,
        right,
    };
    encode_record(base, header, text.as_bytes(), &mut record, stats)?;
    span("object.pool_write", || shadow.write_all(&record))?;
    span("object.commit", || {
        manifest.commit_sidecar(shadow_dir, "MANIFEST")
    })?;
    Ok(record)
}

/// `ObjectStore::fetch` of object `id` re-driven through public parts:
/// pool read (header + `read_strands`, CRC-checked), exact primer
/// prefilter, the traced unit decode, keystream and decompression.
fn traced_fetch(
    store: &ObjectStore,
    base: &Pipeline,
    decoder: &mut Decoder,
    key: &[u8; 32],
    id: u64,
    counts: &mut Counts,
    stats: &mut StoreStats,
) -> Result<Vec<u8>, StorageError> {
    let manifest = store.manifest();
    let entry = manifest.object(id).expect("object in manifest");
    let h = store.header();
    let (cols, primer_len) = (h.cols(), usize::from(h.primer_len));
    let strand_bases = base.params().strand_bases();
    let capacity = store.capsule_capacity();
    let mut file = span("object.pool_read", || {
        File::open(store.dir().join(POOL_FILE)).map(BufReader::new)
    })?;
    let mut out = Vec::new();
    for (k, seq) in entry.capsules.clone().enumerate() {
        let ce = manifest.capsule(seq).expect("capsule in manifest");
        stats.capsule_reads += 1;
        let read = span("object.pool_read", || {
            file.seek(SeekFrom::Start(ce.offset))?;
            let cap = CapsuleHeader::read_from(&mut file, primer_len)?;
            let units = read_strands(&mut file, cap.units, cols, strand_bases)?;
            Ok::<_, StorageError>((cap, units))
        });
        let (cap, units) = match read {
            Ok(v) => v,
            Err(e) => {
                if e.to_string().contains("CRC mismatch") {
                    stats.crc_rejects += 1;
                }
                return Err(e);
            }
        };
        let pipeline = base
            .clone()
            .with_primers(cap.left.clone(), cap.right.clone())?;
        let (left, right) = (cap.left.strand().as_slice(), cap.right.strand().as_slice());
        let filtered: Vec<Vec<DnaString>> = span("align.prefilter", || {
            units
                .into_iter()
                .map(|unit| {
                    unit.into_iter()
                        .filter(|s| {
                            s.len() >= 2 * primer_len
                                && s.as_slice()[..primer_len] == *left
                                && s.as_slice()[s.len() - primer_len..] == *right
                        })
                        .collect()
                })
                .collect()
        });
        let mut stored = span("storage.assemble", || -> Result<Vec<u8>, StorageError> {
            let mut stored = Vec::with_capacity(cap.stored_len as usize);
            for unit in filtered {
                let clusters = ReadPool::from_strands(unit).clusters().to_vec();
                let (payload, _) = decoder.decode_unit(&pipeline, &clusters, false, counts)?;
                stored.extend_from_slice(&payload);
            }
            Ok(stored)
        })?;
        stored.truncate(cap.stored_len as usize);
        if cap.flags & FLAG_ENCRYPTED != 0 {
            keystream(key, id, k, capacity, &mut stored);
        }
        let plain = if cap.flags & FLAG_COMPRESSED != 0 {
            span("object.decompress", || {
                compress::decompress(&stored, cap.plain_len as usize)
            })
            .map_err(StorageError::Substrate)?
        } else {
            stored
        };
        out.extend_from_slice(&plain);
    }
    Ok(out)
}

/// The bytes appended to the pool file at `path` past offset `before`.
pub fn appended_since(path: &Path, before: u64) -> Vec<u8> {
    let mut appended = Vec::new();
    let mut pool = File::open(path).expect("open pool");
    pool.seek(SeekFrom::Start(before)).expect("seek pool");
    pool.read_to_end(&mut appended).expect("read pool");
    appended
}

/// Flips one seeded byte inside the strand section of the object's
/// first capsule.
fn damage(store: &ObjectStore, id: u64, rng: &mut Rng) {
    let manifest = store.manifest();
    let entry = manifest.object(id).expect("object in manifest");
    let ce = manifest.capsule(entry.capsules.start).expect("capsule");
    let h = store.header();
    let strand_bases = h.params().expect("params").strand_bases();
    let path = store.dir().join(POOL_FILE);
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("open pool");
    file.seek(SeekFrom::Start(ce.offset)).expect("seek");
    let cap = CapsuleHeader::read_from(&mut file, usize::from(h.primer_len)).expect("header");
    let strands_at = file.stream_position().expect("position");
    let section = cap.units as usize * h.cols() * packed_strand_len(strand_bases);
    let at = strands_at + rng.below(section) as u64;
    let mut byte = [0u8; 1];
    file.seek(SeekFrom::Start(at)).expect("seek");
    file.read_exact(&mut byte).expect("read");
    byte[0] ^= 0x10;
    file.seek(SeekFrom::Start(at)).expect("seek");
    file.write_all(&byte).expect("write");
    file.sync_all().expect("sync");
}

fn traced(inputs: &Inputs, ctx: &Ctx, m: &mut Metrics) -> Tally {
    let mut tally = Tally::default();
    let mut rng = Rng::new(ctx.seed ^ 0xF37C);
    let mut counts = Counts::default();
    let mut stats = StoreStats::default();
    let (mut serial_fetch_ms, mut parallel_fetch_ms, mut rs_encode_ms) = (0.0, 0.0, 0.0);
    let (mut damaged, mut damaged_exact) = (0u64, 0u64);
    let mut rounds = 0usize;
    let start = Instant::now();
    while rounds == 0 || secs(start) < ctx.seconds {
        rounds += 1;
        let dir = fresh_dir(ctx, "store-rw");
        let shadow_dir = fresh_dir(ctx, "store-rw-shadow");
        std::fs::create_dir_all(&shadow_dir).expect("shadow dir");
        let mut shadow = File::create(shadow_dir.join(POOL_FILE)).expect("shadow pool");
        let mut store = ObjectStore::create(&dir, inputs.config.clone())
            .unwrap_or_else(|e| fail(&format!("create store: {e}")));
        let base = Pipeline::builder()
            .params(store.header().params().expect("params"))
            .layout(store.header().layout.to_layout())
            .build()
            .expect("pipeline");
        let mut decoder = Decoder::for_pipeline(&base);
        let pool_path = store.dir().join(POOL_FILE);
        let mut ids = Vec::new();
        for o in &inputs.objects {
            let before = std::fs::metadata(&pool_path).expect("pool").len();
            let id = store
                .put_bytes(&o.name, &o.bytes)
                .unwrap_or_else(|e| fail(&format!("put {}: {e}", o.name)));
            tally.record(true);
            trace::enable(true);
            let units_before = stats.encoded_units;
            let record = span("root.put", || {
                shadow_put(
                    &store,
                    &base,
                    &inputs.key,
                    id,
                    &o.bytes,
                    &mut shadow,
                    &shadow_dir,
                    &mut stats,
                )
            })
            .unwrap_or_else(|e| fail(&format!("shadow put: {e}")));
            trace::enable(false);
            rs_encode_ms += rs_encode_probe_ms(&base, stats.encoded_units - units_before);
            if appended_since(&pool_path, before) != record {
                fail(&format!(
                    "fidelity: shadow put of {} wrote different pool bytes",
                    o.name
                ));
            }
            ids.push(id);
        }
        let mut order: Vec<usize> = (0..ids.len()).collect();
        rng.shuffle(&mut order);
        let mut ws = DecodeWorkspace::new();
        let mut fetch_and_compare = |i: usize, counts: &mut Counts, stats: &mut StoreStats| {
            let (id, want) = (ids[i], &inputs.objects[i].bytes);
            let mut real = Vec::new();
            let t = Instant::now();
            let real_result =
                store.fetch_with_workspace(id, &mut real, &FetchOptions::default(), &mut ws);
            serial_fetch_ms += ms(t);
            let t = Instant::now();
            let parallel = store.get(id);
            parallel_fetch_ms += ms(t);
            trace::set_request(id);
            trace::enable(true);
            let traced = span("root.fetch", || {
                traced_fetch(&store, &base, &mut decoder, &inputs.key, id, counts, stats)
            });
            trace::enable(false);
            let agree = match (&real_result, &traced, &parallel) {
                (Ok(_), Ok(t), Ok(p)) => *t == real && *p == real,
                (Err(_), Err(_), Err(_)) => true,
                _ => false,
            };
            if !agree {
                fail(&format!(
                    "fidelity: traced fetch of object {id} differs from ObjectStore::fetch"
                ));
            }
            let mut got = real;
            maybe_inject(&mut got, ctx.inject);
            let ok = real_result.is_ok();
            if ok && got != *want {
                silent(&format!("fetch of object {id} returned wrong bytes"));
            }
            ok
        };
        for &i in &order {
            let ok = fetch_and_compare(i, &mut counts, &mut stats);
            tally.record(ok);
        }
        let damaged_set: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&i| i % DAMAGED_ONE_IN == 0)
            .collect();
        for &i in &damaged_set {
            damage(&store, ids[i], &mut rng);
        }
        for &i in &damaged_set {
            damaged += 1;
            if fetch_and_compare(i, &mut counts, &mut stats) {
                damaged_exact += 1;
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).expect("remove store dir");
        std::fs::remove_dir_all(&shadow_dir).expect("remove shadow dir");
    }
    let spans = trace::take();
    crate::write_spans(ctx, &spans);
    let unattributed = trace::check_attribution(&spans, crate::ATTRIBUTION_BOUND);
    let selfs = trace::self_ms(&spans);
    let get = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let per = |v: f64| v / rounds as f64;
    let traced_fetch_ms = trace::total_ms(&spans, "root.fetch");
    m.set(
        "trace.overhead_pct",
        100.0 * (traced_fetch_ms - serial_fetch_ms) / serial_fetch_ms,
        "%",
    );
    m.set("trace.unattributed_pct", unattributed, "%");
    counts.report(m, &selfs, rounds);
    m.set("rs.encode_ms", per(rs_encode_ms), "ms");
    m.set(
        "storage.encode_ms",
        per((get("storage.encode") - rs_encode_ms).max(0.0)),
        "ms",
    );
    m.set(
        "parallel.speedup",
        ratio(serial_fetch_ms, parallel_fetch_ms),
        "x",
    );
    m.set("object.pool_read_ms", per(get("object.pool_read")), "ms");
    m.set("object.pool_write_ms", per(get("object.pool_write")), "ms");
    m.set("object.commit_ms", per(get("object.commit")), "ms");
    m.set("object.compress_ms", per(get("object.compress")), "ms");
    m.set("object.decompress_ms", per(get("object.decompress")), "ms");
    m.set(
        "object.compress_ratio",
        ratio(stats.plain_bytes as f64, stats.stored_bytes as f64),
        "x",
    );
    m.set(
        "object.crc_reject_ratio",
        ratio(stats.crc_rejects as f64, stats.capsule_reads as f64),
        "ratio",
    );
    m.set(
        "object.damaged_exact_ratio",
        ratio(damaged_exact as f64, damaged as f64),
        "ratio",
    );
    m.set("crypto.keystream_ms", per(get("crypto.keystream")), "ms");
    tally
}
