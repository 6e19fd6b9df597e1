//! The versioned, persisted manifest: `object_id → capsule ranges →
//! primer pairs → protection plan`.
//!
//! The manifest is deliberately a deterministic *text* format: it diffs,
//! it greps, and its FNV-1a hash is stable enough to pin in the golden
//! conformance tables. It lives twice — as the `MANIFEST` sidecar file
//! next to `pool.dna` (the fast path) and serialized into a reserved
//! **super-capsule** inside the pool itself (the durable path: losing the
//! sidecar costs one capsule decode, not the pool). A trailing
//! `# end crc=` line authenticates the body; any parse failure or CRC
//! mismatch surfaces as [`StorageError::ManifestCorrupt`], with
//! `ObjectStore::rebuild_manifest` as the documented full-scan fallback.

use crate::checksum::fnv64;
use dna_storage::StorageError;
use std::fmt::Write as _;
use std::ops::Range;

fn corrupt(reason: impl Into<String>) -> StorageError {
    StorageError::ManifestCorrupt {
        reason: reason.into(),
    }
}

/// One stored object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectEntry {
    /// Object id (1-based; 0 is reserved for the manifest itself).
    pub id: u64,
    /// Object name (unique per store at `put` time).
    pub name: String,
    /// Payload bytes.
    pub bytes: u64,
    /// The contiguous capsule sequence range holding the payload.
    pub capsules: Range<u32>,
    /// Whether the object has been deleted.
    pub tombstone: bool,
}

/// One data capsule's manifest line: where it lives and how to address it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapsuleEntry {
    /// Pool-wide capsule sequence number.
    pub seq: u32,
    /// Owning object id.
    pub object_id: u64,
    /// Encoding units in the capsule.
    pub units: u32,
    /// Payload bytes before compression.
    pub plain_len: u64,
    /// Bytes encoded (post-compression).
    pub stored_len: u64,
    /// Capsule flag bits (`FLAG_*`).
    pub flags: u16,
    /// Byte offset of the capsule record in `pool.dna`.
    pub offset: u64,
    /// Left primer sequence (the PCR address, as bases).
    pub left: String,
    /// Right primer sequence.
    pub right: String,
}

/// The store index: objects, their capsules, and the allocation cursor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Seed that derives capsule primer pairs.
    pub pool_seed: u64,
    /// Next object id to allocate.
    pub next_id: u64,
    /// Next capsule sequence number to allocate (super-capsules included).
    pub next_seq: u32,
    /// Human-readable protection plan summary (e.g. `parity:47..47`).
    pub plan: String,
    objects: Vec<ObjectEntry>,
    capsules: Vec<CapsuleEntry>,
}

impl Manifest {
    /// An empty manifest for a fresh pool.
    pub fn new(pool_seed: u64, plan: String) -> Manifest {
        Manifest {
            pool_seed,
            next_id: 1,
            next_seq: 0,
            plan,
            objects: Vec::new(),
            capsules: Vec::new(),
        }
    }

    /// The objects, in `put` order (tombstoned objects included).
    pub fn objects(&self) -> &[ObjectEntry] {
        &self.objects
    }

    /// The data capsules, in append order.
    pub fn capsules(&self) -> &[CapsuleEntry] {
        &self.capsules
    }

    /// Looks an object up by id.
    pub fn object(&self, id: u64) -> Option<&ObjectEntry> {
        self.objects.iter().find(|o| o.id == id)
    }

    /// Looks a live (non-tombstoned) object up by name.
    pub fn object_by_name(&self, name: &str) -> Option<&ObjectEntry> {
        self.objects.iter().find(|o| o.name == name && !o.tombstone)
    }

    /// The capsule entry for sequence number `seq`.
    pub fn capsule(&self, seq: u32) -> Option<&CapsuleEntry> {
        self.capsules.iter().find(|c| c.seq == seq)
    }

    /// Registers a new object and its capsules.
    pub fn push_object(&mut self, entry: ObjectEntry, capsules: Vec<CapsuleEntry>) {
        self.objects.push(entry);
        self.capsules.extend(capsules);
    }

    /// Marks `id` tombstoned. Returns whether the object existed live.
    pub fn tombstone(&mut self, id: u64) -> bool {
        match self.objects.iter_mut().find(|o| o.id == id && !o.tombstone) {
            Some(o) => {
                o.tombstone = true;
                true
            }
            None => false,
        }
    }

    /// Serializes to the deterministic v1 text format, CRC line included.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# dnaobj manifest v1\n");
        let _ = writeln!(out, "pool_seed={}", self.pool_seed);
        let _ = writeln!(out, "next_id={}", self.next_id);
        let _ = writeln!(out, "next_seq={}", self.next_seq);
        let _ = writeln!(out, "plan={}", self.plan);
        let _ = writeln!(out, "objects={}", self.objects.len());
        let _ = writeln!(out, "capsules={}", self.capsules.len());
        for o in &self.objects {
            let _ = writeln!(
                out,
                "object id={} bytes={} capsules={}..{} tombstone={} name={}",
                o.id,
                o.bytes,
                o.capsules.start,
                o.capsules.end,
                u8::from(o.tombstone),
                o.name
            );
        }
        for c in &self.capsules {
            let _ = writeln!(
                out,
                "capsule seq={} object={} units={} plain={} stored={} flags={} offset={} left={} right={}",
                c.seq, c.object_id, c.units, c.plain_len, c.stored_len, c.flags, c.offset, c.left, c.right
            );
        }
        let crc = fnv64(out.as_bytes());
        let _ = writeln!(out, "# end crc={crc:016x}");
        out
    }

    /// The manifest fingerprint: FNV-1a of the full serialized text. This
    /// is the value pinned in the golden conformance tables.
    pub fn hash(&self) -> u64 {
        fnv64(self.to_text().as_bytes())
    }

    /// Crash-consistently persists the serialized manifest as the
    /// `dir/file_name` sidecar: write to `<file_name>.tmp`, fsync the
    /// data, rename atomically into place, then fsync the directory so
    /// the rename itself is durable. A torn write can therefore never
    /// leave a half-written sidecar shadowing a healthy in-pool
    /// super-capsule — readers observe either the previous complete
    /// sidecar or the new complete one, never a prefix.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] on any filesystem failure (the `.tmp` file
    /// may remain; it is overwritten by the next commit).
    pub fn commit_sidecar(
        &self,
        dir: &std::path::Path,
        file_name: &str,
    ) -> Result<(), StorageError> {
        write_sidecar(dir, file_name, &self.to_text())
    }

    /// Parses and validates the v1 text format.
    ///
    /// # Errors
    ///
    /// [`StorageError::ManifestCorrupt`] on any structural problem: bad
    /// header, truncated body, count mismatch, unparseable line, or CRC
    /// mismatch.
    pub fn from_text(text: &str) -> Result<Manifest, StorageError> {
        let mut lines = text.lines();
        if lines.next() != Some("# dnaobj manifest v1") {
            return Err(corrupt("missing or unsupported manifest version line"));
        }
        let crc_line = text
            .lines()
            .last()
            .ok_or_else(|| corrupt("empty manifest"))?;
        let crc_hex = crc_line
            .strip_prefix("# end crc=")
            .ok_or_else(|| corrupt("missing trailing CRC line (truncated manifest)"))?;
        let stored_crc =
            u64::from_str_radix(crc_hex, 16).map_err(|_| corrupt("unparseable CRC line"))?;
        let body_len = text.len() - crc_line.len() - 1;
        let computed = fnv64(&text.as_bytes()[..body_len]);
        if computed != stored_crc {
            return Err(corrupt(format!(
                "CRC mismatch: manifest says {stored_crc:016x}, body hashes to {computed:016x}"
            )));
        }
        let pool_seed = parse_kv(lines.next(), "pool_seed")?;
        let next_id = parse_kv(lines.next(), "next_id")?;
        let next_seq = parse_kv::<u32>(lines.next(), "next_seq")?;
        let plan_line = lines.next().ok_or_else(|| corrupt("missing plan line"))?;
        let plan = plan_line
            .strip_prefix("plan=")
            .ok_or_else(|| corrupt("missing plan line"))?
            .to_string();
        let n_objects = parse_kv::<usize>(lines.next(), "objects")?;
        let n_capsules = parse_kv::<usize>(lines.next(), "capsules")?;
        let mut objects = Vec::with_capacity(n_objects);
        let mut capsules = Vec::with_capacity(n_capsules);
        for _ in 0..n_objects {
            let line = lines
                .next()
                .ok_or_else(|| corrupt("manifest truncated inside object list"))?;
            objects.push(parse_object_line(line)?);
        }
        for _ in 0..n_capsules {
            let line = lines
                .next()
                .ok_or_else(|| corrupt("manifest truncated inside capsule list"))?;
            capsules.push(parse_capsule_line(line)?);
        }
        match lines.next() {
            Some(l) if l == crc_line => {}
            _ => return Err(corrupt("unexpected trailing content before CRC line")),
        }
        Ok(Manifest {
            pool_seed,
            next_id,
            next_seq,
            plan,
            objects,
            capsules,
        })
    }
}

fn parse_kv<T: std::str::FromStr>(line: Option<&str>, key: &str) -> Result<T, StorageError> {
    let line = line.ok_or_else(|| corrupt(format!("missing {key} line")))?;
    let value = line
        .strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| corrupt(format!("expected `{key}=`, got `{line}`")))?;
    value
        .parse()
        .map_err(|_| corrupt(format!("unparseable {key} value `{value}`")))
}

/// Splits `key=value` fields off a line of space-separated pairs. The
/// final `name=` field consumes the rest of the line (names may not
/// contain spaces, enforced at `put`, but this keeps parsing unambiguous).
fn field<'a>(
    parts: &mut std::str::SplitWhitespace<'a>,
    key: &str,
) -> Result<&'a str, StorageError> {
    let part = parts
        .next()
        .ok_or_else(|| corrupt(format!("missing field {key}")))?;
    part.strip_prefix(key)
        .and_then(|rest| rest.strip_prefix('='))
        .ok_or_else(|| corrupt(format!("expected field `{key}=`, got `{part}`")))
}

fn parse_object_line(line: &str) -> Result<ObjectEntry, StorageError> {
    let rest = line
        .strip_prefix("object ")
        .ok_or_else(|| corrupt(format!("expected object line, got `{line}`")))?;
    let mut parts = rest.split_whitespace();
    let id = parse_field(field(&mut parts, "id")?, "id")?;
    let bytes = parse_field(field(&mut parts, "bytes")?, "bytes")?;
    let range = field(&mut parts, "capsules")?;
    let (start, end) = range
        .split_once("..")
        .ok_or_else(|| corrupt(format!("bad capsule range `{range}`")))?;
    let capsules = parse_field::<u32>(start, "capsule range start")?
        ..parse_field::<u32>(end, "capsule range end")?;
    let tombstone = parse_field::<u8>(field(&mut parts, "tombstone")?, "tombstone")? != 0;
    let name = field(&mut parts, "name")?.to_string();
    Ok(ObjectEntry {
        id,
        name,
        bytes,
        capsules,
        tombstone,
    })
}

fn parse_capsule_line(line: &str) -> Result<CapsuleEntry, StorageError> {
    let rest = line
        .strip_prefix("capsule ")
        .ok_or_else(|| corrupt(format!("expected capsule line, got `{line}`")))?;
    let mut parts = rest.split_whitespace();
    Ok(CapsuleEntry {
        seq: parse_field(field(&mut parts, "seq")?, "seq")?,
        object_id: parse_field(field(&mut parts, "object")?, "object")?,
        units: parse_field(field(&mut parts, "units")?, "units")?,
        plain_len: parse_field(field(&mut parts, "plain")?, "plain")?,
        stored_len: parse_field(field(&mut parts, "stored")?, "stored")?,
        flags: parse_field(field(&mut parts, "flags")?, "flags")?,
        offset: parse_field(field(&mut parts, "offset")?, "offset")?,
        left: field(&mut parts, "left")?.to_string(),
        right: field(&mut parts, "right")?.to_string(),
    })
}

fn parse_field<T: std::str::FromStr>(value: &str, key: &str) -> Result<T, StorageError> {
    value
        .parse()
        .map_err(|_| corrupt(format!("unparseable {key} value `{value}`")))
}

/// [`Manifest::commit_sidecar`] for a manifest already rendered as
/// `text` (its [`Manifest::to_text`]), so a commit that also stores the
/// text in the pool renders it once.
pub(crate) fn write_sidecar(
    dir: &std::path::Path,
    file_name: &str,
    text: &str,
) -> Result<(), StorageError> {
    use std::io::Write as _;
    let tmp = dir.join(format!("{file_name}.tmp"));
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(text.as_bytes())?;
    f.sync_all()?;
    drop(f);
    std::fs::rename(&tmp, dir.join(file_name))?;
    // Make the rename durable too. Directories cannot be fsynced on
    // every platform; where they cannot, the rename is still atomic
    // and this is a no-op rather than an error.
    if let Ok(d) = std::fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        let mut m = Manifest::new(99, "parity:5..5".into());
        m.push_object(
            ObjectEntry {
                id: 1,
                name: "alpha.bin".into(),
                bytes: 1234,
                capsules: 0..2,
                tombstone: false,
            },
            vec![
                CapsuleEntry {
                    seq: 0,
                    object_id: 1,
                    units: 3,
                    plain_len: 90,
                    stored_len: 90,
                    flags: 0,
                    offset: 46,
                    left: "ACGTACGTACGT".into(),
                    right: "TGCATGCATGCA".into(),
                },
                CapsuleEntry {
                    seq: 1,
                    object_id: 1,
                    units: 1,
                    plain_len: 10,
                    stored_len: 10,
                    flags: 2,
                    offset: 500,
                    left: "ACGTACGTACGT".into(),
                    right: "TGCATGCATGCA".into(),
                },
            ],
        );
        m.next_id = 2;
        m.next_seq = 2;
        m
    }

    #[test]
    fn text_round_trips() {
        let m = sample();
        let text = m.to_text();
        let back = Manifest::from_text(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.hash(), m.hash());
    }

    #[test]
    fn truncated_manifest_is_corrupt() {
        let text = sample().to_text();
        // Drop the CRC line entirely.
        let cut = text.lines().take(5).collect::<Vec<_>>().join("\n");
        assert!(matches!(
            Manifest::from_text(&cut),
            Err(StorageError::ManifestCorrupt { .. })
        ));
        // Flip a byte in the body: CRC catches it.
        let tampered = text.replace("bytes=1234", "bytes=1235");
        assert!(matches!(
            Manifest::from_text(&tampered),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn tombstone_marks_once() {
        let mut m = sample();
        assert!(m.tombstone(1));
        assert!(!m.tombstone(1), "already tombstoned");
        assert!(!m.tombstone(7), "unknown id");
        assert!(m.object(1).unwrap().tombstone);
        assert!(m.object_by_name("alpha.bin").is_none());
    }

    #[test]
    fn hash_is_content_sensitive() {
        let a = sample();
        let mut b = sample();
        b.tombstone(1);
        assert_ne!(a.hash(), b.hash());
    }
}
