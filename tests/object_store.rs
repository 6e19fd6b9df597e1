//! Property and error-path suite for the streaming object store.
//!
//! The core property: the capsule-streaming path (`ObjectStore::put` →
//! `fetch`) is byte-identical to the in-memory [`ArchiveCodec`] path for
//! the same payload, across seeds, payload sizes, chunking boundaries,
//! encryption, and `DNA_SKEW_THREADS` ∈ {1, 2, 8}. Error paths are typed:
//! truncated manifests surface [`StorageError::ManifestCorrupt`], lost
//! manifests [`StorageError::ManifestMissing`] (with
//! [`ObjectStore::rebuild_manifest`] as the documented fallback),
//! tombstoned fetches [`StorageError::ObjectNotFound`], and mid-stream
//! reader/writer failures [`StorageError::Io`] without corrupting the
//! store.

use dna_skew::object::{MANIFEST_FILE, POOL_FILE};
use dna_skew::prelude::*;
use dna_skew::storage::StorageError;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Serializes tests that mutate `DNA_SKEW_THREADS` (setenv during
/// concurrent getenv is UB on glibc; every `parallel_map` reads it).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn env_guard() -> std::sync::MutexGuard<'static, ()> {
    ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

static DIR_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A unique scratch directory per call: proptest cases within one test
/// run concurrently-ish and must never share a pool.
fn tmp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "dna-skew-objtest-{}-{tag}-{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ))
}

fn payload_from_seed(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed ^ 0x9E37_79B9_7F4A_7C15;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        })
        .collect()
}

/// The in-memory reference path: the same payload through [`ArchiveCodec`]
/// (encode to units, decode from perfect coverage-1 clusters).
fn archive_round_trip(payload: &[u8], cipher: Option<([u8; 32], [u8; 12])>) -> Vec<u8> {
    let pipeline = Pipeline::builder()
        .params(CodecParams::tiny().expect("tiny params"))
        .layout(Layout::Gini {
            excluded_rows: vec![],
        })
        .build()
        .expect("tiny pipeline");
    let mut codec = ArchiveCodec::new(pipeline, RankingPolicy::Sequential);
    if let Some((key, nonce)) = cipher {
        codec = codec.with_cipher(key, nonce);
    }
    let archive = Archive::new(vec![FileEntry::new("payload", payload.to_vec())])
        .expect("single-file archive");
    let units = codec.encode(&archive).expect("archive encode");
    let clusters: Vec<Vec<Cluster>> = units
        .iter()
        .map(|u| {
            ReadPool::from_strands(u.strands().iter().cloned())
                .clusters()
                .to_vec()
        })
        .collect();
    let (decoded, _) = codec
        .decode(&clusters, &RetrieveOptions::default())
        .expect("archive decode");
    decoded
        .file("payload")
        .expect("payload entry")
        .bytes
        .clone()
}

/// The streaming path: the same payload through an [`ObjectStore`].
fn store_round_trip(payload: &[u8], key: Option<[u8; 32]>) -> (Vec<u8>, u64) {
    let dir = tmp_dir("prop");
    let mut config = StoreConfig::tiny().expect("tiny config");
    if let Some(k) = key {
        config = config.with_key(k);
    }
    let mut store = dna_skew::object::ObjectStore::create(&dir, config).expect("create");
    let id = store
        .put("payload", &mut std::io::Cursor::new(payload))
        .expect("put");
    let mut out = Vec::new();
    store.fetch(id, &mut out).expect("fetch");
    let hash = store.manifest().hash();
    let _ = std::fs::remove_dir_all(&dir);
    (out, hash)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Streaming put → fetch returns exactly the bytes the in-memory
    /// ArchiveCodec path returns (both equal the original payload), for
    /// any seed and any size across capsule boundaries (tiny capsules
    /// hold 90 bytes; 0..=400 spans zero to five capsules).
    #[test]
    fn streaming_store_matches_in_memory_archive(
        seed in any::<u64>(),
        len in 0usize..400,
    ) {
        let payload = payload_from_seed(seed, len);
        let from_archive = archive_round_trip(&payload, None);
        let (from_store, _) = store_round_trip(&payload, None);
        prop_assert_eq!(&from_archive, &payload);
        prop_assert_eq!(&from_store, &payload);
        prop_assert_eq!(from_store, from_archive);
    }

    /// The same equivalence under encryption: the store's per-capsule
    /// `seek_block` discipline and the archive's single-stream cipher both
    /// recover the plaintext.
    #[test]
    fn encrypted_streaming_matches_encrypted_archive(
        seed in any::<u64>(),
        len in 1usize..300,
    ) {
        let payload = payload_from_seed(seed, len);
        let key = {
            let mut k = [0u8; 32];
            for (i, b) in k.iter_mut().enumerate() {
                b.clone_from(&(seed.to_le_bytes()[i % 8].wrapping_add(i as u8)));
            }
            k
        };
        let from_archive = archive_round_trip(&payload, Some((key, [9u8; 12])));
        let (from_store, _) = store_round_trip(&payload, Some(key));
        prop_assert_eq!(&from_archive, &payload);
        prop_assert_eq!(from_store, from_archive);
    }

    /// Reopening from disk (sidecar manifest) and recovering from the
    /// super-capsule (sidecar deleted) both fetch identical bytes.
    #[test]
    fn reopen_and_super_capsule_recovery_are_identical(
        seed in any::<u64>(),
        len in 1usize..250,
    ) {
        let payload = payload_from_seed(seed, len);
        let dir = tmp_dir("reopen");
        let mut store =
            dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
                .expect("create");
        let id = store.put_bytes("payload", &payload).expect("put");
        drop(store);
        let reopened = dna_skew::object::ObjectStore::open(&dir).expect("reopen");
        prop_assert_eq!(reopened.get(id).expect("sidecar fetch"), payload.clone());
        let sidecar_hash = reopened.manifest().hash();
        drop(reopened);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop sidecar");
        let recovered = dna_skew::object::ObjectStore::open(&dir).expect("super-capsule open");
        prop_assert_eq!(recovered.manifest().hash(), sidecar_hash);
        prop_assert_eq!(recovered.get(id).expect("recovered fetch"), payload);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One deterministic store lifecycle (two puts, one delete, one fetch),
/// returning the manifest hash and the fetched bytes — the unit the
/// thread-invariance matrix below pins.
fn lifecycle_fingerprint() -> (u64, Vec<u8>) {
    let dir = tmp_dir("threads");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let alpha = payload_from_seed(0xA1FA, 333);
    let beta = payload_from_seed(0xBE7A, 120);
    let a = store.put_bytes("alpha", &alpha).expect("put alpha");
    let b = store.put_bytes("beta", &beta).expect("put beta");
    store.delete(b).expect("delete beta");
    let fetched = store.get(a).expect("fetch alpha");
    assert_eq!(fetched, alpha);
    let hash = store.manifest().hash();
    let _ = std::fs::remove_dir_all(&dir);
    (hash, fetched)
}

/// The whole put → commit → fetch lifecycle is thread-count invariant:
/// encode and decode fan out over `DNA_SKEW_THREADS`, and the persisted
/// manifest (hash included) must not depend on it.
#[test]
fn store_lifecycle_is_thread_count_invariant() {
    let _guard = env_guard();
    let original = std::env::var("DNA_SKEW_THREADS").ok();
    let reference = lifecycle_fingerprint();
    for threads in ["1", "2", "8"] {
        std::env::set_var("DNA_SKEW_THREADS", threads);
        assert_eq!(
            lifecycle_fingerprint(),
            reference,
            "DNA_SKEW_THREADS={threads}"
        );
    }
    match original {
        Some(v) => std::env::set_var("DNA_SKEW_THREADS", v),
        None => std::env::remove_var("DNA_SKEW_THREADS"),
    }
}

/// The recovery-path fetch (capsule-scoped cluster → orient → demux →
/// decode) returns the same bytes as the direct fetch under every
/// transcoder, with and without compression: the demux reads each index
/// through the layout the pool was written with.
#[test]
fn recovery_fetch_is_byte_identical_to_direct_fetch() {
    for spec in dna_skew::strand::TranscoderSpec::ALL {
        for compress in [true, false] {
            let dir = tmp_dir("recovery");
            let mut config = StoreConfig::tiny()
                .expect("config")
                .with_compression(compress);
            config.params = config.params.with_transcoder(spec);
            let mut store = ObjectStore::create(&dir, config).expect("create");
            let payload = payload_from_seed(7, 270);
            let id = store.put_bytes("payload", &payload).expect("put");
            let mut direct = Vec::new();
            store.fetch(id, &mut direct).expect("direct");
            let mut recovered = Vec::new();
            store
                .fetch_with(
                    id,
                    &mut recovered,
                    &dna_skew::object::FetchOptions { via_recovery: true },
                )
                .unwrap_or_else(|e| panic!("{spec} compress={compress}: {e}"));
            assert_eq!(direct, payload, "{spec} compress={compress}");
            assert_eq!(recovered, payload, "{spec} compress={compress}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A capsule whose strands pass the CRC-64 yet cannot be decoded — more
/// than parity/2 damaged columns per unit, with the trailer rewritten to
/// match — fails the fetch instead of returning uncorrected bytes.
#[test]
fn undecodable_capsule_fails_the_fetch() {
    use dna_skew::object::capsule::{packed_strand_len, CapsuleHeader};
    use dna_skew::object::checksum::crc64;

    let dir = tmp_dir("failed-codeword");
    let config = StoreConfig::tiny().expect("config").with_compression(false);
    let mut store = ObjectStore::create(&dir, config).expect("create");
    let payload = payload_from_seed(5, 200);
    let id = store.put_bytes("payload", &payload).expect("put");
    let params = store.header().params().expect("params");
    let (primer_len, strand_bases, cols) =
        (params.primer_len(), params.strand_bases(), params.cols());
    let (index_start, index_len) = params.transcoder().field_span(0, params.payload_geometry());
    let seq = store.manifest().object(id).expect("object").capsules.start;
    let offset = store.manifest().capsule(seq).expect("capsule").offset as usize;
    drop(store);

    let path = dir.join(POOL_FILE);
    let mut pool = std::fs::read(&path).expect("read pool");
    let mut cursor = &pool[offset..];
    let cap = CapsuleHeader::read_from(&mut cursor, primer_len).expect("capsule header");
    let strands_at = pool.len() - cursor.len();
    let packed_len = packed_strand_len(strand_bases);
    let section = cap.units as usize * cols * packed_len;
    // Every symbol base of the first parity/2 + 1 columns of each unit
    // is replaced; primers and index stay intact, so each strand still
    // lands in its own column.
    let damaged_cols = (cols - params.data_cols()) / 2 + 1;
    for unit in 0..cap.units as usize {
        for col in 0..damaged_cols {
            let strand = strands_at + (unit * cols + col) * packed_len;
            for base in primer_len + index_start + index_len..strand_bases - primer_len {
                pool[strand + base / 4] ^= 0b11 << (2 * (base % 4));
            }
        }
    }
    let crc = crc64(&pool[strands_at..strands_at + section]);
    pool[strands_at + section..strands_at + section + 8].copy_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &pool).expect("write pool");

    let store = ObjectStore::open(&dir).expect("open");
    let mut out = Vec::new();
    let fetched = store.fetch(id, &mut out);
    assert!(
        matches!(fetched, Err(StorageError::Substrate(ref reason)) if reason.contains("failed codeword")),
        "{fetched:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_sidecar_manifest_is_manifest_corrupt() {
    let dir = tmp_dir("truncated");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    store.put_bytes("payload", &[1, 2, 3]).expect("put");
    drop(store);
    // Cut the sidecar mid-body: the CRC line is gone.
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("read");
    let cut: String = text.lines().take(4).collect::<Vec<_>>().join("\n");
    std::fs::write(dir.join(MANIFEST_FILE), cut).expect("truncate");
    assert!(matches!(
        dna_skew::object::ObjectStore::open(&dir),
        Err(StorageError::ManifestCorrupt { .. })
    ));
    // The documented fallback rebuilds from capsule headers alone.
    std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop sidecar");
    let (rebuilt, report) = dna_skew::object::ObjectStore::rebuild_manifest(&dir).expect("rebuild");
    assert_eq!(report.objects, 1);
    let id = rebuilt.object_id("payload").expect("rebuilt name index");
    assert_eq!(rebuilt.get(id).expect("fetch after rebuild"), vec![1, 2, 3]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_pool_directory_is_typed_missing() {
    let dir = tmp_dir("missing");
    // No pool at all → plain Io (nothing to open)…
    assert!(matches!(
        dna_skew::object::ObjectStore::open(&dir),
        Err(StorageError::Io(_))
    ));
    // …while a pool whose super-capsules are gone and whose sidecar was
    // lost is the typed ManifestMissing (covered in depth in the crate
    // tests); here: header-only pool file.
    std::fs::create_dir_all(&dir).expect("mkdir");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    store.put_bytes("payload", &[9; 40]).expect("put");
    drop(store);
    std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop sidecar");
    // Keep only the pool header: every capsule (data and manifest) gone.
    let raw = std::fs::read(dir.join(POOL_FILE)).expect("read pool");
    std::fs::write(dir.join(POOL_FILE), &raw[..46]).expect("truncate pool");
    assert!(matches!(
        dna_skew::object::ObjectStore::open(&dir),
        Err(StorageError::ManifestMissing)
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_pool_is_typed_pool_truncated() {
    let dir = tmp_dir("torn-pool");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let id = store
        .put_bytes("payload", &payload_from_seed(3, 200))
        .expect("put");
    drop(store);
    // Locate the last data capsule via the sidecar, then chop the pool a
    // few bytes into that record — a torn append / external truncation.
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE)).expect("sidecar");
    let last = Manifest::from_text(&text)
        .expect("sidecar parses")
        .capsules()
        .last()
        .expect("data capsule")
        .offset;
    let raw = std::fs::read(dir.join(POOL_FILE)).expect("pool");
    std::fs::write(dir.join(POOL_FILE), &raw[..last as usize + 10]).expect("chop");

    // Sidecar intact: the store opens (metadata is fine), but fetching
    // the damaged object is the typed truncation — never a short or
    // garbage payload — stamped with the torn record's offset.
    let store = dna_skew::object::ObjectStore::open(&dir).expect("open via sidecar");
    match store.get(id) {
        Err(StorageError::PoolTruncated { offset, .. }) => assert_eq!(offset, last),
        other => panic!("expected PoolTruncated from fetch, got {other:?}"),
    }
    drop(store);
    // Sidecar gone: super-capsule recovery and the explicit rebuild both
    // scan the pool and hit the same typed wall at the same offset.
    std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop sidecar");
    match dna_skew::object::ObjectStore::open(&dir) {
        Err(StorageError::PoolTruncated { offset, .. }) => assert_eq!(offset, last),
        other => panic!("expected PoolTruncated from open, got {other:?}"),
    }
    match dna_skew::object::ObjectStore::rebuild_manifest(&dir) {
        Err(StorageError::PoolTruncated { offset, .. }) => assert_eq!(offset, last),
        other => panic!("expected PoolTruncated from rebuild, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tombstone_survives_manifest_rebuild() {
    let dir = tmp_dir("tombstone-rebuild");
    let kept_payload = payload_from_seed(11, 150);
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let doomed = store
        .put_bytes("doomed", &payload_from_seed(7, 120))
        .expect("put doomed");
    let kept = store.put_bytes("kept", &kept_payload).expect("put kept");
    store.delete(doomed).expect("delete");
    drop(store);

    // Rebuild from capsule headers alone: the tombstone capsule must be
    // replayed — the deleted object stays deleted, its bytes are not
    // resurrected, and the survivor is untouched.
    std::fs::remove_file(dir.join(MANIFEST_FILE)).expect("drop sidecar");
    let (rebuilt, report) = dna_skew::object::ObjectStore::rebuild_manifest(&dir).expect("rebuild");
    assert_eq!(report.tombstones, 1);
    assert_eq!(report.objects, 1, "only the live object is recovered live");
    match rebuilt.get(doomed) {
        Err(StorageError::ObjectNotFound { id, tombstoned }) => {
            assert_eq!(id, doomed);
            assert!(tombstoned, "rebuild must keep the tombstone, not resurrect");
        }
        other => panic!("expected tombstoned ObjectNotFound, got {other:?}"),
    }
    assert_eq!(rebuilt.get(kept).expect("kept survives"), kept_payload);
    drop(rebuilt);

    // The rebuilt sidecar persists the tombstone across a plain reopen.
    let reopened = dna_skew::object::ObjectStore::open(&dir).expect("reopen");
    assert!(matches!(
        reopened.get(doomed),
        Err(StorageError::ObjectNotFound {
            tombstoned: true,
            ..
        })
    ));
    assert_eq!(
        reopened.get(kept).expect("kept still fetches"),
        kept_payload
    );
    let tombstoned: Vec<&str> = reopened
        .list()
        .iter()
        .filter(|o| o.tombstone)
        .map(|o| o.name.as_str())
        .collect();
    assert_eq!(tombstoned, ["doomed"]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tombstoned_fetch_is_typed() {
    let dir = tmp_dir("tombstone");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let id = store.put_bytes("doomed", &[5; 60]).expect("put");
    store.delete(id).expect("delete");
    match store.get(id) {
        Err(StorageError::ObjectNotFound {
            id: got,
            tombstoned,
        }) => {
            assert_eq!(got, id);
            assert!(tombstoned);
        }
        other => panic!("expected tombstoned ObjectNotFound, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A reader that fails with an I/O error after yielding some bytes.
struct FailingReader {
    yielded: usize,
    fail_after: usize,
}

impl Read for FailingReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.yielded >= self.fail_after {
            return Err(std::io::Error::other("synthetic mid-stream read failure"));
        }
        let n = buf.len().min(self.fail_after - self.yielded);
        buf[..n].fill(0xAB);
        self.yielded += n;
        Ok(n)
    }
}

/// A writer that fails after accepting some bytes.
struct FailingWriter {
    accepted: usize,
    fail_after: usize,
}

impl Write for FailingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.accepted + buf.len() > self.fail_after {
            return Err(std::io::Error::other("synthetic mid-stream write failure"));
        }
        self.accepted += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn mid_stream_reader_failure_leaves_the_store_consistent() {
    let dir = tmp_dir("failread");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    // Fails partway into the second capsule (tiny capsules hold 90 B).
    let err = store
        .put(
            "broken",
            &mut FailingReader {
                yielded: 0,
                fail_after: 130,
            },
        )
        .expect_err("put must propagate the reader failure");
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    // The manifest never registered the object…
    assert!(store.object_id("broken").is_none());
    assert!(store.manifest().objects().is_empty());
    // …and the store still accepts and serves new objects.
    let payload = payload_from_seed(3, 200);
    let id = store.put_bytes("good", &payload).expect("subsequent put");
    assert_eq!(store.get(id).expect("fetch"), payload);
    // A reopened store (fresh scan of the same files) agrees.
    drop(store);
    let reopened = dna_skew::object::ObjectStore::open(&dir).expect("reopen");
    assert_eq!(reopened.get(id).expect("fetch after reopen"), payload);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mid_stream_writer_failure_is_io_and_retryable() {
    let dir = tmp_dir("failwrite");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let payload = payload_from_seed(11, 250);
    let id = store.put_bytes("payload", &payload).expect("put");
    let err = store
        .fetch(
            id,
            &mut FailingWriter {
                accepted: 0,
                fail_after: 100,
            },
        )
        .expect_err("fetch must propagate the writer failure");
    assert!(matches!(err, StorageError::Io(_)), "{err:?}");
    // The store is read-only during fetch: retrying with a good writer
    // succeeds.
    let mut out = Vec::new();
    store.fetch(id, &mut out).expect("retry");
    assert_eq!(out, payload);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fetch_cost_scales_with_object_not_pool() {
    let dir = tmp_dir("scaling");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let small = payload_from_seed(1, 60);
    let small_id = store.put_bytes("small", &small).expect("put small");
    // Grow the pool well past the small object.
    for i in 0..6 {
        store
            .put_bytes(&format!("filler-{i}"), &payload_from_seed(100 + i, 350))
            .expect("put filler");
    }
    let mut out = Vec::new();
    let report = store.fetch(small_id, &mut out).expect("fetch small");
    assert_eq!(out, small);
    assert_eq!(
        report.capsules, 1,
        "a one-capsule object reads one capsule no matter how big the pool is"
    );
    assert_eq!(report.units, 2, "60 bytes = two 30-byte tiny units");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded damage to the pool file or the sidecar manifest — one flipped
/// byte at a random offset, or a truncation at a random length — never
/// panics `open` or `fetch`, and every fetch that succeeds returns the
/// stored bytes.
#[test]
fn mutated_pool_or_sidecar_never_panics_or_fetches_wrong_bytes() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    let dir = tmp_dir("mutation-base");
    let mut store =
        dna_skew::object::ObjectStore::create(&dir, StoreConfig::tiny().expect("config"))
            .expect("create");
    let stored: Vec<(u64, Vec<u8>)> = [
        ("alpha", payload_from_seed(1, 200)),
        ("beta", payload_from_seed(2, 70)),
    ]
    .into_iter()
    .map(|(name, data)| (store.put_bytes(name, &data).expect("put"), data))
    .collect();
    drop(store);
    let pool = std::fs::read(dir.join(POOL_FILE)).expect("read pool");
    let sidecar = std::fs::read(dir.join(MANIFEST_FILE)).expect("read sidecar");
    let _ = std::fs::remove_dir_all(&dir);

    let case_dir = tmp_dir("mutation-case");
    for seed in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (mut damaged_pool, mut damaged_sidecar) = (pool.clone(), sidecar.clone());
        let (file, bytes) = if seed % 2 == 0 {
            ("pool", &mut damaged_pool)
        } else {
            ("sidecar", &mut damaged_sidecar)
        };
        let at = rng.gen_range(0..bytes.len());
        let mutation = if rng.gen_bool(0.5) {
            bytes[at] ^= rng.gen_range(1..=255u8);
            format!("{file} byte {at} flipped")
        } else {
            bytes.truncate(at);
            format!("{file} truncated to {at} bytes")
        };
        let _ = std::fs::remove_dir_all(&case_dir);
        std::fs::create_dir_all(&case_dir).expect("mkdir");
        std::fs::write(case_dir.join(POOL_FILE), &damaged_pool).expect("write pool");
        std::fs::write(case_dir.join(MANIFEST_FILE), &damaged_sidecar).expect("write sidecar");

        // The ids of live objects whose fetch succeeded with wrong bytes.
        let wrong = std::panic::catch_unwind(|| {
            let store = match dna_skew::object::ObjectStore::open(&case_dir) {
                Ok(store) => store,
                Err(e) => {
                    // A damaged sidecar is a typed manifest error, never
                    // an I/O error a caller might retry.
                    assert!(
                        file == "pool" || matches!(e, StorageError::ManifestCorrupt { .. }),
                        "{e}"
                    );
                    return Vec::new();
                }
            };
            store
                .list()
                .iter()
                .filter(|o| !o.tombstone)
                .filter(|o| {
                    let mut out = Vec::new();
                    store.fetch(o.id, &mut out).is_ok()
                        && !stored.iter().any(|(id, data)| *id == o.id && *data == out)
                })
                .map(|o| o.id)
                .collect()
        });
        match wrong {
            Ok(wrong) => assert!(
                wrong.is_empty(),
                "seed {seed} ({mutation}): objects {wrong:?} fetched wrong bytes"
            ),
            Err(_) => panic!("seed {seed} ({mutation}) panicked or mistyped an error"),
        }
    }
    let _ = std::fs::remove_dir_all(&case_dir);
}
