//! [`ObjectStore`]: put/fetch/list/delete over a capsule pool.
//!
//! The store streams: `put` reads any [`std::io::Read`] one capsule's
//! worth of payload at a time (compress → encrypt → EC-encode → append),
//! and `fetch` walks only the target object's capsule records (primer
//! check → decode → decrypt → decompress → [`std::io::Write`]), so peak
//! memory is a few capsule buffers regardless of object or pool size.
//!
//! Every mutation commits the manifest twice: the `MANIFEST` sidecar file
//! (fast open) and a reserved super-capsule appended to `pool.dna`
//! (durable: the pool carries its own index). `open` prefers the sidecar,
//! falls back to the newest super-capsule, and returns
//! [`StorageError::ManifestMissing`] when neither exists —
//! [`ObjectStore::rebuild_manifest`] is the last-resort full scan.

use crate::capsule::{
    capsule_primers, capsule_primers_attempt, scan_capsules, CapsuleHeader, LayoutKind, PoolHeader,
    FLAG_COMPRESSED, FLAG_ENCRYPTED, FLAG_MANIFEST, FLAG_TOMBSTONE, MANIFEST_OBJECT_ID,
    MAX_NAME_LEN,
};
use crate::checksum::fnv64;
use crate::compress;
use crate::manifest::{CapsuleEntry, Manifest, ObjectEntry};
use dna_channel::{AnonymousPool, ReadPool};
use dna_crypto::ChaCha20;
use dna_storage::{CodecParams, DecodeWorkspace, Layout, Pipeline, StorageError, UnitReads};
use dna_strand::constraints::ConstraintSet;
use dna_strand::{DnaString, Primer, TranscoderSpec};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Pool file name inside the store directory.
pub const POOL_FILE: &str = "pool.dna";
/// Manifest sidecar file name.
pub const MANIFEST_FILE: &str = "MANIFEST";

/// Default pool seed (primer derivation), matching the pipeline's default
/// primer seed lineage.
pub const DEFAULT_POOL_SEED: u64 = 0xD2A7_2022;

/// Store creation parameters.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Unit geometry (must have `primer_len() > 0`: primers are the
    /// address space).
    pub params: CodecParams,
    /// Layout (Gini without excluded rows; recorded in the pool header).
    pub layout: Layout,
    /// Encoding units per data capsule: the random-access granularity.
    pub units_per_capsule: u32,
    /// Seed deriving every capsule's primer pair.
    pub pool_seed: u64,
    /// Whether to try zero-RLE compression per capsule.
    pub compress: bool,
    /// Optional ChaCha20 key: capsules are encrypted after compression.
    pub key: Option<[u8; 32]>,
}

impl StoreConfig {
    /// Laptop-scale store: GF(2^8) units, 16-base primers, 16 units
    /// (≈ 99.8 KB payload) per capsule, Gini layout.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError::InvalidParams`] (never in practice).
    pub fn laptop() -> Result<StoreConfig, StorageError> {
        Ok(StoreConfig {
            params: CodecParams::laptop()?.with_primer_len(16),
            layout: Layout::Gini {
                excluded_rows: vec![],
            },
            units_per_capsule: 16,
            pool_seed: DEFAULT_POOL_SEED,
            compress: true,
            key: None,
        })
    }

    /// Test-scale store: GF(2^4) tiny units, 12-base primers, 3 units
    /// (90 B payload) per capsule.
    ///
    /// # Errors
    ///
    /// Propagates [`StorageError::InvalidParams`] (never in practice).
    pub fn tiny() -> Result<StoreConfig, StorageError> {
        Ok(StoreConfig {
            params: CodecParams::tiny()?.with_primer_len(12),
            layout: Layout::Gini {
                excluded_rows: vec![],
            },
            units_per_capsule: 3,
            pool_seed: DEFAULT_POOL_SEED,
            compress: true,
            key: None,
        })
    }

    /// Enables encryption under `key`.
    pub fn with_key(mut self, key: [u8; 32]) -> StoreConfig {
        self.key = Some(key);
        self
    }

    /// Sets per-capsule compression.
    pub fn with_compression(mut self, on: bool) -> StoreConfig {
        self.compress = on;
        self
    }

    /// Sets the capsule size in units.
    pub fn with_units_per_capsule(mut self, units: u32) -> StoreConfig {
        self.units_per_capsule = units;
        self
    }

    /// Sets the primer-derivation seed.
    pub fn with_pool_seed(mut self, seed: u64) -> StoreConfig {
        self.pool_seed = seed;
        self
    }
}

/// How `fetch` turns capsule records back into payload.
#[derive(Debug, Clone, Default)]
pub struct FetchOptions {
    /// Route each unit's reads through the unlabeled-pool recovery
    /// pipeline ([`AnonymousPool`] → cluster → orient → demux → decode)
    /// instead of the direct coverage-1 decode. Slower, but exercises the
    /// capsule-scoped recovery path a real (noisy, unordered) pool needs.
    pub via_recovery: bool,
}

/// What one `fetch` touched — the receipt proving per-object retrieval
/// cost scales with the object, not the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FetchReport {
    /// Capsule records read.
    pub capsules: usize,
    /// Encoding units decoded.
    pub units: usize,
    /// Reads (strands) fed to the decoder.
    pub reads: usize,
    /// Reads dropped by the primer prefilter.
    pub prefilter_dropped: usize,
    /// Payload bytes written out.
    pub bytes: u64,
}

/// What a full-pool scan-and-rebuild recovered.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RebuildReport {
    /// Live objects recovered.
    pub objects: usize,
    /// Data capsules indexed.
    pub capsules: usize,
    /// Manifest super-capsules seen (and skipped).
    pub super_capsules: usize,
    /// Tombstones applied.
    pub tombstones: usize,
}

/// Redraw budget for the cross-capsule primer-collision loop: with
/// collisions at the ~10⁻⁴ scale per issued pair, exhausting this means
/// the pool seed is degenerate, not unlucky.
const MAX_PRIMER_DRAW_ATTEMPTS: u32 = 64;

/// Minimum Hamming distance enforced between any two *issued* payload
/// primer pairs (left↔left, right↔right, and crosswise). A quarter of
/// the primer length keeps the prefilter window — an exact primer-length
/// prefix/suffix match — unambiguous even under a few read errors.
pub fn cross_primer_min_distance(primer_len: usize) -> usize {
    (primer_len / 4).max(1)
}

/// Whether two primer pairs fall inside each other's prefilter window:
/// any of the four left/right combinations closer than `min_distance`.
fn primer_pairs_collide(a: &(Primer, Primer), b: &(Primer, Primer), min_distance: usize) -> bool {
    let close = |x: &Primer, y: &Primer| {
        x.strand()
            .hamming_distance(y.strand())
            .map(|d| d < min_distance)
            .unwrap_or(false) // different lengths never collide
    };
    close(&a.0, &b.0) || close(&a.1, &b.1) || close(&a.0, &b.1) || close(&a.1, &b.0)
}

/// A streaming, primer-addressed object store over a capsule pool.
#[derive(Debug)]
pub struct ObjectStore {
    dir: PathBuf,
    header: PoolHeader,
    base: Pipeline,
    manifest: Manifest,
    key: Option<[u8; 32]>,
    /// Every payload-capsule primer pair this pool has issued, rebuilt
    /// from the manifest on open: `put` checks new draws against all of
    /// them and redraws on a prefilter-window collision. (Manifest and
    /// tombstone capsules are located by flags/offset, never by primer
    /// selection, so they are not tracked.)
    issued_pairs: Vec<(Primer, Primer)>,
}

impl ObjectStore {
    /// Creates a fresh store in `dir` (created if absent; fails if a pool
    /// already exists there).
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] for unusable configs (no primers,
    /// zero-unit capsules, existing pool); [`StorageError::Io`] on
    /// filesystem failures.
    pub fn create(dir: impl AsRef<Path>, config: StoreConfig) -> Result<ObjectStore, StorageError> {
        let dir = dir.as_ref().to_path_buf();
        if config.params.primer_len() == 0 {
            return Err(StorageError::InvalidParams(
                "object stores require primer_len > 0 (primers are the address space)".into(),
            ));
        }
        if config.units_per_capsule == 0 {
            return Err(StorageError::InvalidParams(
                "units_per_capsule must be at least 1".into(),
            ));
        }
        let layout_kind = LayoutKind::from_layout(&config.layout)?;
        std::fs::create_dir_all(&dir)?;
        let pool_path = dir.join(POOL_FILE);
        if pool_path.exists() {
            return Err(StorageError::InvalidParams(format!(
                "a pool already exists at {}",
                pool_path.display()
            )));
        }
        let transcoder = config.params.transcoder();
        let header = PoolHeader {
            // Direct pools keep the version-1 byte layout so files stay
            // identical to pre-transcoder tooling; anything else needs the
            // version-2 transcoder byte.
            version: if transcoder == TranscoderSpec::Direct {
                1
            } else {
                2
            },
            field_width: config.params.field().width(),
            layout: layout_kind,
            rows: config.params.rows() as u16,
            data_cols: config.params.data_cols() as u16,
            parity_cols: config.params.parity_cols() as u16,
            index_bits: config.params.index_bits(),
            transcoder,
            primer_len: config.params.primer_len() as u16,
            units_per_capsule: config.units_per_capsule,
            pool_seed: config.pool_seed,
            key_fingerprint: config.key.map(|k| fnv64(&k)).unwrap_or(0),
        };
        let base = Pipeline::builder()
            .params(config.params.clone())
            .layout(config.layout.clone())
            .build()?;
        let mut file = BufWriter::new(File::create(&pool_path)?);
        header.write_to(&mut file)?;
        file.flush()?;
        drop(file);
        let plan = plan_summary(&base);
        let mut store = ObjectStore {
            dir,
            header,
            base,
            manifest: Manifest::new(config.pool_seed, plan),
            key: config.key,
            issued_pairs: Vec::new(),
        };
        // Compression is a per-store choice but not a decode-relevant one
        // (the capsule flag decides decoding), so it rides in the plan
        // string rather than the binary header.
        if !config.compress {
            store.manifest.plan.push_str(" compress:off");
        }
        store.commit()?;
        Ok(store)
    }

    fn compress_enabled(&self) -> bool {
        !self.manifest.plan.ends_with("compress:off")
    }

    /// Opens an unencrypted (or encrypted-but-browse-only) store.
    ///
    /// # Errors
    ///
    /// [`StorageError::ManifestMissing`] when neither the sidecar nor a
    /// super-capsule yields a manifest; [`StorageError::ManifestCorrupt`]
    /// when one exists but fails validation;
    /// [`StorageError::PoolTruncated`] when the sidecar is absent and
    /// `pool.dna` ends mid-record (the super-capsule scan cannot finish).
    pub fn open(dir: impl AsRef<Path>) -> Result<ObjectStore, StorageError> {
        Self::open_inner(dir.as_ref(), None)
    }

    /// Opens a store whose capsules were encrypted under `key`.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::open`], plus [`StorageError::InvalidParams`] when
    /// the key does not match the pool's key fingerprint.
    pub fn open_with_key(
        dir: impl AsRef<Path>,
        key: [u8; 32],
    ) -> Result<ObjectStore, StorageError> {
        Self::open_inner(dir.as_ref(), Some(key))
    }

    fn open_inner(dir: &Path, key: Option<[u8; 32]>) -> Result<ObjectStore, StorageError> {
        let dir = dir.to_path_buf();
        let pool_path = dir.join(POOL_FILE);
        let mut file = BufReader::new(File::open(&pool_path)?);
        let header = PoolHeader::read_from(&mut file)?;
        if let Some(k) = &key {
            if header.key_fingerprint != fnv64(k) {
                return Err(StorageError::InvalidParams(
                    "key fingerprint mismatch: wrong key for this pool".into(),
                ));
            }
        }
        let params = header.params()?;
        let base = Pipeline::builder()
            .params(params)
            .layout(header.layout.to_layout())
            .build()?;
        let manifest_path = dir.join(MANIFEST_FILE);
        let manifest = if manifest_path.exists() {
            let text = String::from_utf8(std::fs::read(&manifest_path)?).map_err(|_| {
                StorageError::ManifestCorrupt {
                    reason: "sidecar manifest is not UTF-8".into(),
                }
            })?;
            Manifest::from_text(&text)?
        } else {
            Self::recover_manifest(&mut file, &header, &base)?
        };
        let issued_pairs = issued_pairs_from_manifest(&manifest)?;
        Ok(ObjectStore {
            dir,
            header,
            base,
            manifest,
            key,
            issued_pairs,
        })
    }

    /// Decodes the newest manifest super-capsule out of the pool.
    fn recover_manifest(
        file: &mut (impl Read + Seek),
        header: &PoolHeader,
        base: &Pipeline,
    ) -> Result<Manifest, StorageError> {
        let strand_bases = base.params().strand_bases();
        let records = scan_capsules(file, header, strand_bases)?;
        let newest = records
            .iter()
            .rev()
            .find(|(_, cap)| cap.flags & FLAG_MANIFEST != 0)
            .cloned();
        let Some((offset, cap)) = newest else {
            return Err(StorageError::ManifestMissing);
        };
        let (stored, _, _) = decode_capsule_at(file, header, base, offset, &cap)?;
        let text = String::from_utf8(stored).map_err(|_| StorageError::ManifestCorrupt {
            reason: "super-capsule payload is not UTF-8".into(),
        })?;
        Manifest::from_text(&text)
    }

    /// Full-pool scan-and-rebuild: reconstructs the manifest from capsule
    /// headers alone (the fallback for [`StorageError::ManifestMissing`] /
    /// [`StorageError::ManifestCorrupt`]), persists it, and returns the
    /// opened store plus a report of what was recovered.
    ///
    /// # Errors
    ///
    /// [`StorageError::PoolTruncated`] when `pool.dna` ends mid-record
    /// (torn append or external chop — the scan cannot continue past
    /// it); [`StorageError::ManifestCorrupt`] when a capsule header is
    /// structurally invalid; I/O errors as [`StorageError::Io`].
    pub fn rebuild_manifest(
        dir: impl AsRef<Path>,
    ) -> Result<(ObjectStore, RebuildReport), StorageError> {
        let dir = dir.as_ref().to_path_buf();
        let pool_path = dir.join(POOL_FILE);
        let mut file = BufReader::new(File::open(&pool_path)?);
        let header = PoolHeader::read_from(&mut file)?;
        let params = header.params()?;
        let base = Pipeline::builder()
            .params(params)
            .layout(header.layout.to_layout())
            .build()?;
        let strand_bases = base.params().strand_bases();
        let records = scan_capsules(&mut file, &header, strand_bases)?;
        drop(file);

        let mut manifest = Manifest::new(header.pool_seed, plan_summary(&base));
        let mut report = RebuildReport::default();
        let mut max_seq = 0u32;
        let mut tombstones: Vec<u64> = Vec::new();
        // Objects' capsules are contiguous (one `put` appends them all),
        // so group runs of equal object_id in file order.
        let mut open_object: Option<(ObjectEntry, Vec<CapsuleEntry>)> = None;
        for (offset, cap) in &records {
            max_seq = max_seq.max(cap.seq);
            if cap.flags & FLAG_MANIFEST != 0 {
                report.super_capsules += 1;
                continue;
            }
            if cap.flags & FLAG_TOMBSTONE != 0 {
                tombstones.push(cap.object_id);
                continue;
            }
            let same_object = open_object
                .as_ref()
                .is_some_and(|(o, _)| o.id == cap.object_id);
            if !same_object {
                if let Some((entry, caps)) = open_object.take() {
                    manifest.push_object(entry, caps);
                }
                open_object = Some((
                    ObjectEntry {
                        id: cap.object_id,
                        name: cap.name.clone(),
                        bytes: 0,
                        capsules: cap.seq..cap.seq,
                        tombstone: false,
                    },
                    Vec::new(),
                ));
            }
            let (entry, caps) = open_object.as_mut().expect("just opened");
            entry.bytes += cap.plain_len;
            entry.capsules.end = cap.seq + 1;
            caps.push(CapsuleEntry {
                seq: cap.seq,
                object_id: cap.object_id,
                units: cap.units,
                plain_len: cap.plain_len,
                stored_len: cap.stored_len,
                flags: cap.flags,
                offset: *offset,
                left: cap.left.strand().to_string(),
                right: cap.right.strand().to_string(),
            });
        }
        if let Some((entry, caps)) = open_object.take() {
            manifest.push_object(entry, caps);
        }
        for id in tombstones {
            if manifest.tombstone(id) {
                report.tombstones += 1;
            }
        }
        report.objects = manifest.objects().iter().filter(|o| !o.tombstone).count();
        report.capsules = manifest.capsules().len();
        manifest.next_id = manifest.objects().iter().map(|o| o.id).max().unwrap_or(0) + 1;
        manifest.next_seq = if records.is_empty() { 0 } else { max_seq + 1 };
        let issued_pairs = issued_pairs_from_manifest(&manifest)?;
        let mut store = ObjectStore {
            dir,
            header,
            base,
            manifest,
            key: None,
            issued_pairs,
        };
        store.commit()?;
        Ok((store, report))
    }

    /// Supplies the encryption key after a key-less [`ObjectStore::open`]
    /// or rebuild.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] when the key does not match the
    /// pool's fingerprint.
    pub fn with_key(mut self, key: [u8; 32]) -> Result<ObjectStore, StorageError> {
        if self.header.key_fingerprint != fnv64(&key) {
            return Err(StorageError::InvalidParams(
                "key fingerprint mismatch: wrong key for this pool".into(),
            ));
        }
        self.key = Some(key);
        Ok(self)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The pool header (geometry, seeds, fingerprint).
    pub fn header(&self) -> &PoolHeader {
        &self.header
    }

    /// The current manifest.
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// The objects in the store, `put` order, tombstones included.
    pub fn list(&self) -> &[ObjectEntry] {
        self.manifest.objects()
    }

    /// The id of the live object named `name`.
    pub fn object_id(&self, name: &str) -> Option<u64> {
        self.manifest.object_by_name(name).map(|o| o.id)
    }

    /// Payload bytes one capsule can carry.
    pub fn capsule_capacity(&self) -> usize {
        self.header.units_per_capsule as usize * self.base.payload_capacity()
    }

    /// The payload-capsule primer pairs this pool has issued, in seq
    /// order (the collision-avoidance working set).
    pub fn issued_primer_pairs(&self) -> &[(Primer, Primer)] {
        &self.issued_pairs
    }

    /// Draws capsule `seq`'s primer pair, redrawing (salted attempts)
    /// until the pair clears every issued pair's prefilter window *and*
    /// both primers are junction-safe (neither edge run is long enough
    /// that one matching payload base would breach the homopolymer cap
    /// of the assembled strand), then records it as issued. The chosen
    /// pair is persisted in the capsule header and manifest, so this loop
    /// never reruns on the read path — old pools decode with whatever
    /// primers they recorded.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] when
    /// [`MAX_PRIMER_DRAW_ATTEMPTS`] redraws cannot clear the pool (a
    /// degenerate pool seed), or the underlying primer search exhausts.
    fn draw_capsule_primers(&mut self, seq: u32) -> Result<(Primer, Primer), StorageError> {
        let len = self.base.params().primer_len();
        let min_distance = cross_primer_min_distance(len);
        let rules = ConstraintSet::primer_default();
        for attempt in 0..MAX_PRIMER_DRAW_ATTEMPTS {
            let pair = capsule_primers_attempt(self.header.pool_seed, seq, len, attempt)?;
            if rules.junction_safe(pair.0.strand())
                && rules.junction_safe(pair.1.strand())
                && self
                    .issued_pairs
                    .iter()
                    .all(|issued| !primer_pairs_collide(issued, &pair, min_distance))
            {
                self.issued_pairs.push(pair.clone());
                return Ok(pair);
            }
        }
        Err(StorageError::InvalidParams(format!(
            "capsule {seq}: no primer pair clears the pool's {} issued pairs after \
             {MAX_PRIMER_DRAW_ATTEMPTS} redraws (degenerate pool seed?)",
            self.issued_pairs.len()
        )))
    }

    /// Streams `reader` into the pool as a new object named `name`,
    /// returning its id. Peak memory is one capsule buffer plus the
    /// encoded strands of one capsule, independent of object size.
    ///
    /// # Errors
    ///
    /// [`StorageError::InvalidParams`] for bad names (empty, whitespace,
    /// too long, or duplicating a live object); [`StorageError::Io`] when
    /// `reader` or the pool file fails mid-stream (the manifest is not
    /// updated, but partially appended capsules remain in the pool file —
    /// harmless, as nothing references them, though `rebuild_manifest`
    /// will surface them).
    pub fn put(&mut self, name: &str, reader: &mut dyn Read) -> Result<u64, StorageError> {
        if name.is_empty() || name.len() > MAX_NAME_LEN || name.chars().any(char::is_whitespace) {
            return Err(StorageError::InvalidParams(format!(
                "object names must be 1..={MAX_NAME_LEN} bytes with no whitespace, got {name:?}"
            )));
        }
        if self.manifest.object_by_name(name).is_some() {
            return Err(StorageError::InvalidParams(format!(
                "an object named {name:?} already exists"
            )));
        }
        let id = self.manifest.next_id;
        let first_seq = self.manifest.next_seq;
        let capacity = self.capsule_capacity();
        let stride = keystream_stride_blocks(capacity);
        let pool_path = self.dir.join(POOL_FILE);
        let mut offset = std::fs::metadata(&pool_path)?.len();
        let mut file = BufWriter::new(OpenOptions::new().append(true).open(&pool_path)?);
        let mut buf = vec![0u8; capacity];
        let mut capsules: Vec<CapsuleEntry> = Vec::new();
        let mut total_bytes = 0u64;
        let mut seq = first_seq;
        loop {
            let n = read_full(reader, &mut buf)?;
            if n == 0 && !capsules.is_empty() {
                break;
            }
            let plain = &buf[..n];
            let mut flags = 0u16;
            let mut stored = if self.compress_enabled() {
                match compress::compress(plain) {
                    Some(packed) => {
                        flags |= FLAG_COMPRESSED;
                        packed
                    }
                    None => plain.to_vec(),
                }
            } else {
                plain.to_vec()
            };
            if let Some(key) = &self.key {
                flags |= FLAG_ENCRYPTED;
                let mut cipher = ChaCha20::new(key, &object_nonce(id));
                cipher.seek_block((seq - first_seq) * stride);
                cipher.apply_keystream(&mut stored);
            }
            let (left, right) = self.draw_capsule_primers(seq)?;
            let written = self.append_capsule(
                &mut file,
                CapsuleHeader {
                    seq,
                    object_id: id,
                    flags,
                    name: name.to_string(),
                    units: 0, // filled by append_capsule from the encode
                    plain_len: n as u64,
                    stored_len: stored.len() as u64,
                    left,
                    right,
                },
                &stored,
            )?;
            capsules.push(written.entry_at(offset));
            offset += written.bytes;
            total_bytes += n as u64;
            seq += 1;
            if n < capacity {
                break;
            }
        }
        file.flush()?;
        drop(file);
        self.manifest.next_id = id + 1;
        self.manifest.next_seq = seq;
        self.manifest.push_object(
            ObjectEntry {
                id,
                name: name.to_string(),
                bytes: total_bytes,
                capsules: first_seq..seq,
                tombstone: false,
            },
            capsules,
        );
        self.commit()?;
        Ok(id)
    }

    /// Convenience: stores an in-memory byte slice.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::put`].
    pub fn put_bytes(&mut self, name: &str, bytes: &[u8]) -> Result<u64, StorageError> {
        self.put(name, &mut std::io::Cursor::new(bytes))
    }

    /// Encodes `stored` into a capsule record appended at the writer's
    /// position. Returns the record's manifest entry ingredients.
    fn append_capsule<W: Write>(
        &self,
        w: &mut W,
        mut header: CapsuleHeader,
        stored: &[u8],
    ) -> Result<AppendedCapsule, StorageError> {
        let pipeline = self
            .base
            .clone()
            .with_primers(header.left.clone(), header.right.clone())?;
        let encoded = pipeline.encode_chunked(stored)?;
        let units: Vec<Vec<DnaString>> = encoded.iter().map(|u| u.strands().to_vec()).collect();
        header.units = units.len() as u32;
        let strand_bases = self.base.params().strand_bases();
        let mut bytes = header.write_to(w)?;
        bytes += crate::capsule::write_strands(w, &units, strand_bases)?;
        Ok(AppendedCapsule { header, bytes })
    }

    /// Fetches object `id`, streaming its payload into `writer`.
    ///
    /// # Errors
    ///
    /// [`StorageError::ObjectNotFound`] for unknown or tombstoned ids;
    /// [`StorageError::ManifestCorrupt`] when the manifest and pool
    /// disagree; [`StorageError::Io`] when `writer` fails mid-stream.
    pub fn fetch(&self, id: u64, writer: &mut dyn Write) -> Result<FetchReport, StorageError> {
        self.fetch_with(id, writer, &FetchOptions::default())
    }

    /// [`ObjectStore::fetch`] with explicit [`FetchOptions`].
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::fetch`].
    pub fn fetch_with(
        &self,
        id: u64,
        writer: &mut dyn Write,
        options: &FetchOptions,
    ) -> Result<FetchReport, StorageError> {
        self.fetch_inner(id, writer, options, None)
    }

    /// [`ObjectStore::fetch_with`] decoding through a caller-owned
    /// [`DecodeWorkspace`]: units decode serially in the calling thread
    /// against the warm workspace instead of fanning out across scoped
    /// threads with per-thread scratch. This is the serve-worker path —
    /// request-level parallelism outside, exactly one resident workspace
    /// per worker inside. Byte-identical to [`ObjectStore::fetch_with`].
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::fetch`].
    pub fn fetch_with_workspace(
        &self,
        id: u64,
        writer: &mut dyn Write,
        options: &FetchOptions,
        workspace: &mut DecodeWorkspace,
    ) -> Result<FetchReport, StorageError> {
        self.fetch_inner(id, writer, options, Some(workspace))
    }

    fn fetch_inner(
        &self,
        id: u64,
        writer: &mut dyn Write,
        options: &FetchOptions,
        mut workspace: Option<&mut DecodeWorkspace>,
    ) -> Result<FetchReport, StorageError> {
        let entry = self
            .manifest
            .object(id)
            .ok_or(StorageError::ObjectNotFound {
                id,
                tombstoned: false,
            })?;
        if entry.tombstone {
            return Err(StorageError::ObjectNotFound {
                id,
                tombstoned: true,
            });
        }
        let capacity = self.capsule_capacity();
        let stride = keystream_stride_blocks(capacity);
        let mut file = BufReader::new(File::open(self.dir.join(POOL_FILE))?);
        let mut report = FetchReport::default();
        for (k, seq) in entry.capsules.clone().enumerate() {
            let centry =
                self.manifest
                    .capsule(seq)
                    .ok_or_else(|| StorageError::ManifestCorrupt {
                        reason: format!("object {id} references missing capsule {seq}"),
                    })?;
            // Reads past the end of a torn pool surface as PoolTruncated
            // with a placeholder offset; stamp in where this record starts.
            let stamp_offset = |e: StorageError| match e {
                StorageError::PoolTruncated { offset: 0, reason } => StorageError::PoolTruncated {
                    offset: centry.offset,
                    reason,
                },
                other => other,
            };
            let cap = read_capsule_header_at(&mut file, &self.header, centry.offset)
                .map_err(stamp_offset)?;
            if cap.seq != seq || cap.object_id != id {
                return Err(StorageError::ManifestCorrupt {
                    reason: format!(
                        "capsule at offset {} is seq={} object={}, manifest expected seq={seq} object={id}",
                        centry.offset, cap.seq, cap.object_id
                    ),
                });
            }
            let (mut stored, reads, dropped) = decode_capsule_body(
                &mut file,
                &self.header,
                &self.base,
                &cap,
                options.via_recovery,
                workspace.as_deref_mut(),
            )
            .map_err(stamp_offset)?;
            if cap.flags & FLAG_ENCRYPTED != 0 {
                let Some(key) = &self.key else {
                    return Err(StorageError::InvalidParams(
                        "capsule is encrypted: open the store with its key".into(),
                    ));
                };
                let mut cipher = ChaCha20::new(key, &object_nonce(id));
                cipher.seek_block(k as u32 * stride);
                cipher.apply_keystream(&mut stored);
            }
            let plain = if cap.flags & FLAG_COMPRESSED != 0 {
                compress::decompress(&stored, cap.plain_len as usize).map_err(|reason| {
                    StorageError::Substrate(format!("capsule {seq} decompression failed: {reason}"))
                })?
            } else {
                if stored.len() as u64 != cap.plain_len {
                    return Err(StorageError::Substrate(format!(
                        "capsule {seq} stored {} bytes but claims {} plain bytes",
                        stored.len(),
                        cap.plain_len
                    )));
                }
                stored
            };
            writer.write_all(&plain)?;
            report.capsules += 1;
            report.units += cap.units as usize;
            report.reads += reads;
            report.prefilter_dropped += dropped;
            report.bytes += plain.len() as u64;
        }
        writer.flush()?;
        Ok(report)
    }

    /// Convenience: fetches object `id` into a fresh buffer.
    ///
    /// # Errors
    ///
    /// As [`ObjectStore::fetch`].
    pub fn get(&self, id: u64) -> Result<Vec<u8>, StorageError> {
        let mut out = Vec::new();
        self.fetch(id, &mut out)?;
        Ok(out)
    }

    /// Tombstones object `id`: appends a tombstone capsule (so a rebuilt
    /// manifest also sees the deletion) and commits. The payload capsules
    /// remain in the pool — DNA is append-only — but are unreachable
    /// through the API.
    ///
    /// # Errors
    ///
    /// [`StorageError::ObjectNotFound`] for unknown or already-deleted
    /// ids.
    pub fn delete(&mut self, id: u64) -> Result<(), StorageError> {
        let live = self.manifest.object(id).is_some_and(|o| !o.tombstone);
        if !live {
            return Err(StorageError::ObjectNotFound {
                id,
                tombstoned: self.manifest.object(id).is_some(),
            });
        }
        let seq = self.manifest.next_seq;
        let (left, right) =
            capsule_primers(self.header.pool_seed, seq, self.base.params().primer_len())?;
        let pool_path = self.dir.join(POOL_FILE);
        let mut file = BufWriter::new(OpenOptions::new().append(true).open(&pool_path)?);
        let header = CapsuleHeader {
            seq,
            object_id: id,
            flags: FLAG_TOMBSTONE,
            name: String::new(),
            units: 0,
            plain_len: 0,
            stored_len: 0,
            left,
            right,
        };
        header.write_to(&mut file)?;
        crate::capsule::write_strands(&mut file, &[], self.base.params().strand_bases())?;
        file.flush()?;
        drop(file);
        self.manifest.next_seq = seq + 1;
        self.manifest.tombstone(id);
        self.commit()
    }

    /// Persists the manifest: super-capsule appended to the pool, then
    /// the sidecar file via [`Manifest::commit_sidecar`] (write-to-temp,
    /// fsync, atomic rename, directory fsync).
    fn commit(&mut self) -> Result<(), StorageError> {
        let seq = self.manifest.next_seq;
        self.manifest.next_seq = seq + 1;
        let text = self.manifest.to_text();
        let (left, right) =
            capsule_primers(self.header.pool_seed, seq, self.base.params().primer_len())?;
        let pool_path = self.dir.join(POOL_FILE);
        let mut file = BufWriter::new(OpenOptions::new().append(true).open(&pool_path)?);
        self.append_capsule(
            &mut file,
            CapsuleHeader {
                seq,
                object_id: MANIFEST_OBJECT_ID,
                flags: FLAG_MANIFEST,
                name: String::new(),
                units: 0,
                plain_len: text.len() as u64,
                stored_len: text.len() as u64,
                left,
                right,
            },
            text.as_bytes(),
        )?;
        file.flush()?;
        drop(file);
        self.manifest.commit_sidecar(&self.dir, MANIFEST_FILE)
    }
}

struct AppendedCapsule {
    header: CapsuleHeader,
    bytes: u64,
}

impl AppendedCapsule {
    fn entry_at(&self, offset: u64) -> CapsuleEntry {
        CapsuleEntry {
            seq: self.header.seq,
            object_id: self.header.object_id,
            units: self.header.units,
            plain_len: self.header.plain_len,
            stored_len: self.header.stored_len,
            flags: self.header.flags,
            offset,
            left: self.header.left.strand().to_string(),
            right: self.header.right.strand().to_string(),
        }
    }
}

/// The ChaCha20 nonce for an object's capsule stream: the object id plus a
/// fixed tag. Each capsule then owns a disjoint keystream segment — see
/// [`keystream_stride_blocks`] — addressed with `ChaCha20::seek_block`, so
/// any single capsule decrypts without the keystream before it.
fn object_nonce(id: u64) -> [u8; 12] {
    let mut nonce = [0u8; 12];
    nonce[..8].copy_from_slice(&id.to_le_bytes());
    nonce[8..].copy_from_slice(b"caps");
    nonce
}

/// Keystream blocks reserved per capsule: the capsule payload capacity
/// rounded up to the 64-byte ChaCha20 block. Capsule `k` of an object
/// seeks to block `k * stride`.
fn keystream_stride_blocks(capsule_capacity: usize) -> u32 {
    capsule_capacity.div_ceil(64) as u32
}

/// Rebuilds the issued-primer working set from a manifest: every payload
/// capsule's recorded pair, in seq order. Tombstone and manifest capsules
/// never enter the manifest's capsule list, so the set is exactly the
/// primer-addressable pool.
fn issued_pairs_from_manifest(manifest: &Manifest) -> Result<Vec<(Primer, Primer)>, StorageError> {
    let mut pairs = Vec::with_capacity(manifest.capsules().len());
    for entry in manifest.capsules() {
        let parse = |text: &str, side: &str| -> Result<Primer, StorageError> {
            let strand: DnaString = text.parse().map_err(|e| StorageError::ManifestCorrupt {
                reason: format!("capsule {} has an unparsable {side} primer: {e}", entry.seq),
            })?;
            Ok(Primer::from_strand(strand))
        };
        pairs.push((parse(&entry.left, "left")?, parse(&entry.right, "right")?));
    }
    Ok(pairs)
}

fn plan_summary(pipeline: &Pipeline) -> String {
    let parities = pipeline.protection_plan().parities();
    let min = parities.iter().min().copied().unwrap_or(0);
    let max = parities.iter().max().copied().unwrap_or(0);
    format!("parity:{min}..{max}")
}

fn read_full(r: &mut dyn Read, buf: &mut [u8]) -> std::io::Result<usize> {
    let mut at = 0usize;
    while at < buf.len() {
        let n = r.read(&mut buf[at..])?;
        if n == 0 {
            break;
        }
        at += n;
    }
    Ok(at)
}

fn read_capsule_header_at(
    file: &mut (impl Read + Seek),
    header: &PoolHeader,
    offset: u64,
) -> Result<CapsuleHeader, StorageError> {
    file.seek(SeekFrom::Start(offset))?;
    CapsuleHeader::read_from(file, usize::from(header.primer_len))
}

/// Reads + decodes one capsule's payload given its header has just been
/// read (the reader sits at the strand section). Returns the stored bytes
/// (still compressed/encrypted as flagged) plus read accounting.
fn decode_capsule_body(
    file: &mut (impl Read + Seek),
    header: &PoolHeader,
    base: &Pipeline,
    cap: &CapsuleHeader,
    via_recovery: bool,
    workspace: Option<&mut DecodeWorkspace>,
) -> Result<(Vec<u8>, usize, usize), StorageError> {
    let strand_bases = base.params().strand_bases();
    let units = crate::capsule::read_strands(file, cap.units, header.cols(), strand_bases)?;
    let pipeline = base
        .clone()
        .with_primers(cap.left.clone(), cap.right.clone())?;
    let primer_len = usize::from(header.primer_len);
    let mut reads = 0usize;
    let mut dropped = 0usize;
    // Primer prefilter: only strands carrying this capsule's primer pair
    // may enter the decoder (the in-silico analogue of PCR selection).
    let filtered: Vec<Vec<DnaString>> = units
        .into_iter()
        .map(|unit| {
            let before = unit.len();
            let kept: Vec<DnaString> = unit
                .into_iter()
                .filter(|s| strand_has_primers(s, &cap.left, &cap.right, primer_len))
                .collect();
            dropped += before - kept.len();
            reads += kept.len();
            kept
        })
        .collect();
    // Recovery fetches send each unit's reads through the full unlabeled-
    // pool pipeline (cluster → orient → demux → decode); direct fetches
    // place the clean coverage-1 strands as clusters. A caller workspace
    // (one per serve worker) decodes serially on it; without one, units
    // fan out across threads.
    let anonymous: Vec<AnonymousPool>;
    let labeled: Vec<ReadPool>;
    let units: Vec<UnitReads> = if via_recovery {
        anonymous = filtered
            .into_iter()
            .map(AnonymousPool::from_reads)
            .collect();
        anonymous.iter().map(UnitReads::Pool).collect()
    } else {
        labeled = filtered.into_iter().map(ReadPool::from_strands).collect();
        labeled
            .iter()
            .map(|pool| UnitReads::Clusters(pool.clusters()))
            .collect()
    };
    let mut stored = Vec::with_capacity(cap.stored_len as usize);
    for (payload, _report) in pipeline.decode(&units, pipeline.decode_options(), workspace)? {
        stored.extend_from_slice(&payload);
    }
    stored.truncate(cap.stored_len as usize);
    if (stored.len() as u64) < cap.stored_len {
        return Err(StorageError::Substrate(format!(
            "capsule {} decoded {} bytes, expected {}",
            cap.seq,
            stored.len(),
            cap.stored_len
        )));
    }
    Ok((stored, reads, dropped))
}

/// Reads + decodes a whole capsule record at `offset` (header included).
fn decode_capsule_at(
    file: &mut (impl Read + Seek),
    header: &PoolHeader,
    base: &Pipeline,
    offset: u64,
    cap: &CapsuleHeader,
) -> Result<(Vec<u8>, usize, usize), StorageError> {
    let reread = read_capsule_header_at(file, header, offset)?;
    if &reread != cap {
        return Err(StorageError::ManifestCorrupt {
            reason: "capsule header changed between scan and decode".into(),
        });
    }
    decode_capsule_body(file, header, base, cap, false, None)
}

fn strand_has_primers(s: &DnaString, left: &Primer, right: &Primer, primer_len: usize) -> bool {
    if s.len() < 2 * primer_len {
        return false;
    }
    s.as_slice()[..primer_len] == *left.strand().as_slice()
        && s.as_slice()[s.len() - primer_len..] == *right.strand().as_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capsule::strand_section_len;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("dna-object-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payload(bytes: usize) -> Vec<u8> {
        (0..bytes).map(|i| (i * 31 % 251) as u8).collect()
    }

    #[test]
    fn put_get_round_trip_multi_capsule() {
        let dir = tmp_dir("roundtrip");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        // 90 B per capsule at tiny scale: 250 B spans 3 capsules.
        let data = payload(250);
        let id = store.put_bytes("alpha", &data).unwrap();
        assert_eq!(id, 1);
        let entry = store.manifest().object(id).unwrap();
        assert_eq!(entry.capsules.len(), 3);
        assert_eq!(store.get(id).unwrap(), data);
        // Reopen from disk: sidecar manifest path.
        drop(store);
        let store = ObjectStore::open(&dir).unwrap();
        assert_eq!(store.get(id).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_reports_touch_only_the_object() {
        let dir = tmp_dir("report");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let small = payload(40);
        let big = payload(500);
        let small_id = store.put_bytes("small", &small).unwrap();
        let big_id = store.put_bytes("big", &big).unwrap();
        let mut sink = Vec::new();
        let small_report = store.fetch(small_id, &mut sink).unwrap();
        assert_eq!(small_report.capsules, 1);
        sink.clear();
        let big_report = store.fetch(big_id, &mut sink).unwrap();
        assert_eq!(big_report.capsules, 6, "500 B / 90 B per capsule");
        assert!(small_report.reads < big_report.reads);
        assert_eq!(small_report.prefilter_dropped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Pool seed whose raw (attempt-0) primer derivation collides across
    /// capsules: at 12-base primers, seqs 1 and 35 draw pairs inside the
    /// prefilter window of 3. Found with `scan_for_colliding_seed` below;
    /// re-pinned after junction screening changed primer generation
    /// (previously seed 0 / seqs 29 & 38).
    const COLLIDING_POOL_SEED: u64 = 10;
    const COLLIDING_SEQS: (u32, u32) = (1, 35);

    #[test]
    #[ignore = "seed scanner, run by hand to re-pin COLLIDING_POOL_SEED"]
    fn scan_for_colliding_seed() {
        let len = 12usize;
        let min_d = cross_primer_min_distance(len);
        for seed in 0u64..500 {
            let pairs: Vec<_> = (1..=40u32)
                .map(|seq| capsule_primers(seed, seq, len).unwrap())
                .collect();
            for i in 0..pairs.len() {
                for j in i + 1..pairs.len() {
                    if primer_pairs_collide(&pairs[i], &pairs[j], min_d) {
                        println!("seed {seed}: seqs {} and {} collide", i + 1, j + 1);
                        return;
                    }
                }
            }
        }
        panic!("no colliding seed in range");
    }

    #[test]
    fn put_redraws_on_cross_capsule_primer_collision() {
        let len = 12usize;
        let min_d = cross_primer_min_distance(len);
        // The raw derivation really does collide at this seed today —
        // this is the bug the store's redraw loop exists to absorb.
        let a = capsule_primers(COLLIDING_POOL_SEED, COLLIDING_SEQS.0, len).unwrap();
        let b = capsule_primers(COLLIDING_POOL_SEED, COLLIDING_SEQS.1, len).unwrap();
        assert!(
            primer_pairs_collide(&a, &b, min_d),
            "seed no longer forces a collision; re-pin COLLIDING_POOL_SEED"
        );

        // One object spanning both colliding seqs as payload capsules
        // (create commits seq 0, so payload runs 1..=38 at 90 B each).
        let dir = tmp_dir("primer-collision");
        let config = StoreConfig::tiny()
            .unwrap()
            .with_pool_seed(COLLIDING_POOL_SEED);
        let mut store = ObjectStore::create(&dir, config).unwrap();
        let data = payload(38 * 90);
        let id = store.put_bytes("wide", &data).unwrap();
        assert_eq!(store.manifest().object(id).unwrap().capsules.clone(), 1..39);

        // Every issued pair (as persisted in the manifest — what fetch
        // and the prefilter actually use) clears every other's window.
        // On the pre-redraw store this fails at (29, 38).
        let issued = issued_pairs_from_manifest(store.manifest()).unwrap();
        for i in 0..issued.len() {
            for j in i + 1..issued.len() {
                assert!(
                    !primer_pairs_collide(&issued[i], &issued[j], min_d),
                    "issued pairs for capsules {} and {} collide",
                    i + 1,
                    j + 1
                );
            }
        }
        // The collision was dodged by redrawing, not by luck: capsule
        // 38's recorded pair differs from its raw attempt-0 draw.
        let redrawn = &issued[(COLLIDING_SEQS.1 - 1) as usize];
        assert_ne!(
            redrawn, &b,
            "capsule {} kept its colliding draw",
            COLLIDING_SEQS.1
        );

        // The redraw is invisible to readers (headers carry the pair).
        assert_eq!(store.get(id).unwrap(), data);
        drop(store);
        let reopened = ObjectStore::open(&dir).unwrap();
        assert_eq!(reopened.get(id).unwrap(), data);
        // Reopen rebuilds the working set from the manifest, so later
        // puts keep honoring pairs issued before the restart.
        assert_eq!(reopened.issued_primer_pairs().len(), 38);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fetch_with_workspace_matches_plain_fetch() {
        let dir = tmp_dir("ws-fetch");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let data = payload(250);
        let id = store.put_bytes("alpha", &data).unwrap();
        let mut ws = DecodeWorkspace::new();
        for options in [FetchOptions::default(), FetchOptions { via_recovery: true }] {
            let mut plain = Vec::new();
            let plain_report = store.fetch_with(id, &mut plain, &options).unwrap();
            let mut pooled = Vec::new();
            let pooled_report = store
                .fetch_with_workspace(id, &mut pooled, &options, &mut ws)
                .unwrap();
            assert_eq!(plain, data);
            assert_eq!(pooled, plain, "via_recovery={}", options.via_recovery);
            assert_eq!(pooled_report, plain_report);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovery_fetch_matches_direct_fetch() {
        let dir = tmp_dir("viarecovery");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let data = payload(200);
        let id = store.put_bytes("alpha", &data).unwrap();
        let mut direct = Vec::new();
        store.fetch(id, &mut direct).unwrap();
        let mut recovered = Vec::new();
        store
            .fetch_with(id, &mut recovered, &FetchOptions { via_recovery: true })
            .unwrap();
        assert_eq!(direct, data);
        assert_eq!(recovered, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encrypted_store_requires_key() {
        let dir = tmp_dir("crypt");
        let key = [7u8; 32];
        let mut store =
            ObjectStore::create(&dir, StoreConfig::tiny().unwrap().with_key(key)).unwrap();
        let data = payload(120);
        let id = store.put_bytes("secret", &data).unwrap();
        drop(store);
        // Key-less open can browse but not decrypt.
        let blind = ObjectStore::open(&dir).unwrap();
        assert_eq!(blind.list().len(), 1);
        assert!(matches!(blind.get(id), Err(StorageError::InvalidParams(_))));
        // Wrong key is rejected at open.
        assert!(ObjectStore::open_with_key(&dir, [8u8; 32]).is_err());
        let store = ObjectStore::open_with_key(&dir, key).unwrap();
        assert_eq!(store.get(id).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn delete_tombstones_and_fetch_fails_typed() {
        let dir = tmp_dir("tombstone");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let id = store.put_bytes("doomed", &payload(50)).unwrap();
        store.delete(id).unwrap();
        assert!(matches!(
            store.get(id),
            Err(StorageError::ObjectNotFound {
                tombstoned: true,
                ..
            })
        ));
        assert!(matches!(
            store.delete(id),
            Err(StorageError::ObjectNotFound { .. })
        ));
        assert!(store.object_id("doomed").is_none());
        // Unknown ids are typed too.
        assert!(matches!(
            store.get(99),
            Err(StorageError::ObjectNotFound {
                tombstoned: false,
                ..
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_recovers_from_super_capsule() {
        let dir = tmp_dir("supercapsule");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let data = payload(150);
        let id = store.put_bytes("alpha", &data).unwrap();
        let sidecar_manifest = store.manifest().clone();
        drop(store);
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        let store = ObjectStore::open(&dir).unwrap();
        assert_eq!(*store.manifest(), sidecar_manifest);
        assert_eq!(store.get(id).unwrap(), data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_manifest_is_typed_and_rebuildable() {
        let dir = tmp_dir("rebuild");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let a = store.put_bytes("alpha", &payload(150)).unwrap();
        let b = store.put_bytes("beta", &payload(40)).unwrap();
        store.delete(b).unwrap();
        let pool_len_with_manifest = std::fs::metadata(dir.join(POOL_FILE)).unwrap().len();
        drop(store);
        // Truncate the pool right after the last data/tombstone capsule,
        // cutting off every super-capsule, and drop the sidecar: neither
        // manifest source remains.
        std::fs::remove_file(dir.join(MANIFEST_FILE)).unwrap();
        truncate_trailing_super_capsules(&dir);
        assert!(pool_len_with_manifest > std::fs::metadata(dir.join(POOL_FILE)).unwrap().len());
        assert!(matches!(
            ObjectStore::open(&dir),
            Err(StorageError::ManifestMissing)
        ));
        let (store, report) = ObjectStore::rebuild_manifest(&dir).unwrap();
        assert_eq!(report.objects, 1);
        assert_eq!(report.tombstones, 1);
        assert_eq!(store.get(a).unwrap(), payload(150));
        assert!(matches!(
            store.get(b),
            Err(StorageError::ObjectNotFound {
                tombstoned: true,
                ..
            })
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Rewrites the pool keeping only non-manifest capsules.
    fn truncate_trailing_super_capsules(dir: &Path) {
        let path = dir.join(POOL_FILE);
        let mut file = BufReader::new(File::open(&path).unwrap());
        let header = PoolHeader::read_from(&mut file).unwrap();
        let params = header.params().unwrap();
        let strand_bases = params.strand_bases();
        let records = scan_capsules(&mut file, &header, strand_bases).unwrap();
        let mut raw = std::fs::read(&path).unwrap();
        let keep_end = records
            .iter()
            .filter(|(_, c)| c.flags & FLAG_MANIFEST == 0)
            .map(|(off, _c)| {
                // offset + header + strands
                let mut f = BufReader::new(File::open(&path).unwrap());
                f.seek(SeekFrom::Start(*off)).unwrap();
                let h = CapsuleHeader::read_from(&mut f, usize::from(header.primer_len)).unwrap();
                f.stream_position().unwrap()
                    + strand_section_len(h.units, header.cols(), strand_bases)
            })
            .max()
            .unwrap_or(PoolHeader::LEN);
        raw.truncate(keep_end as usize);
        // But interior super-capsules (from intermediate commits) remain;
        // rewrite the file without any manifest capsule at all.
        let mut out: Vec<u8> = raw[..PoolHeader::LEN as usize].to_vec();
        let mut f = BufReader::new(std::io::Cursor::new(raw.clone()));
        f.seek(SeekFrom::Start(PoolHeader::LEN)).unwrap();
        loop {
            let at = f.stream_position().unwrap();
            if at >= raw.len() as u64 {
                break;
            }
            let h = match CapsuleHeader::read_from(&mut f, usize::from(header.primer_len)) {
                Ok(h) => h,
                Err(_) => break,
            };
            let body = strand_section_len(h.units, header.cols(), strand_bases);
            let end = f.stream_position().unwrap() + body;
            if h.flags & FLAG_MANIFEST == 0 {
                out.extend_from_slice(&raw[at as usize..end as usize]);
            }
            f.seek(SeekFrom::Start(end)).unwrap();
        }
        std::fs::write(&path, out).unwrap();
    }

    #[test]
    fn zero_byte_objects_round_trip() {
        let dir = tmp_dir("empty");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        let id = store.put_bytes("empty", &[]).unwrap();
        assert_eq!(store.get(id).unwrap(), Vec::<u8>::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_names_are_rejected() {
        let dir = tmp_dir("names");
        let mut store = ObjectStore::create(&dir, StoreConfig::tiny().unwrap()).unwrap();
        assert!(store.put_bytes("", &[1]).is_err());
        assert!(store.put_bytes("has space", &[1]).is_err());
        store.put_bytes("dup", &[1]).unwrap();
        assert!(store.put_bytes("dup", &[2]).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
