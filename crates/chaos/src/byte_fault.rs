//! Byte-level fault injection for the object store.
//!
//! [`apply_byte_fault`] damages a store directory's files in place: it
//! reads the target file, truncates it or XORs one byte in memory, writes
//! the result to a temp file, syncs it and atomically renames it back,
//! producing exactly the on-disk states a crashed append, a bit-rotted
//! sector, or an external chop would leave behind.

use crate::fault::splitmix64;
use dna_object::capsule::{packed_strand_len, CapsuleHeader, PoolHeader};
use dna_object::{Manifest, MANIFEST_FILE, POOL_FILE};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;

/// One byte-level fault against a store directory's on-disk state.
#[derive(Debug, Clone, PartialEq)]
pub enum ByteFault {
    /// A torn append: `pool.dna` keeps only a `keep_min..keep_max`
    /// fraction of its bytes (always at least the pool header, always
    /// strictly short of the full file) — the crash landed mid-record.
    TornAppend {
        /// Smallest kept fraction of the file.
        keep_min: f64,
        /// Largest kept fraction of the file.
        keep_max: f64,
    },
    /// One byte inside the *last data capsule's* header is flipped
    /// (bit rot over the record's self-describing metadata).
    FlipCapsuleHeaderByte,
    /// One byte inside the last data capsule's packed-strand section is
    /// flipped (bit rot over payload strands).
    FlipStrandByte,
    /// One byte in the middle of the `MANIFEST` sidecar is flipped.
    CorruptSidecar,
    /// The `MANIFEST` sidecar is chopped to a `keep_min..keep_max`
    /// fraction of its length (a torn sidecar write without the
    /// tmp+rename discipline).
    TruncateSidecar {
        /// Smallest kept fraction.
        keep_min: f64,
        /// Largest kept fraction.
        keep_max: f64,
    },
    /// The `MANIFEST` sidecar is deleted outright (the store must fall
    /// back to the in-pool super-capsule).
    DeleteSidecar,
}

/// Applies `fault` to the store at `dir`, deterministically in `seed`.
///
/// # Errors
///
/// Propagates filesystem errors from reading, rewriting, or renaming
/// the target file, and sidecar- or header-parse failures while locating
/// the last capsule (as `io::ErrorKind::InvalidData`).
pub fn apply_byte_fault(dir: &Path, fault: &ByteFault, seed: u64) -> io::Result<()> {
    let mut rng = StdRng::seed_from_u64(splitmix64(seed ^ 0xB17E_FAB7));
    let pool = dir.join(POOL_FILE);
    let sidecar = dir.join(MANIFEST_FILE);
    match fault {
        ByteFault::TornAppend { keep_min, keep_max } => rewrite(&pool, |bytes| {
            let len = bytes.len() as u64;
            let frac = rng.gen_range(*keep_min..*keep_max);
            let cut = ((len as f64) * frac) as u64;
            bytes.truncate(cut.clamp(PoolHeader::LEN, len.saturating_sub(1)) as usize);
            Ok(())
        }),
        ByteFault::FlipCapsuleHeaderByte => rewrite(&pool, |bytes| {
            let (offset, header_len, _) = last_capsule_extent(dir, bytes)?;
            let at = offset + rng.gen_range(0..header_len);
            flip_byte(bytes, at, &mut rng);
            Ok(())
        }),
        ByteFault::FlipStrandByte => rewrite(&pool, |bytes| {
            let (offset, header_len, strand_bytes) = last_capsule_extent(dir, bytes)?;
            let at = offset + header_len + rng.gen_range(0..strand_bytes.max(1));
            flip_byte(bytes, at, &mut rng);
            Ok(())
        }),
        ByteFault::CorruptSidecar => rewrite(&sidecar, |bytes| {
            let len = (bytes.len() as u64).max(4);
            let at = rng.gen_range(len / 4..(3 * len) / 4);
            flip_byte(bytes, at, &mut rng);
            Ok(())
        }),
        ByteFault::TruncateSidecar { keep_min, keep_max } => rewrite(&sidecar, |bytes| {
            let len = bytes.len() as u64;
            let frac = rng.gen_range(*keep_min..*keep_max);
            let keep = (((len as f64) * frac) as u64).clamp(1, len.saturating_sub(1));
            bytes.truncate(keep as usize);
            Ok(())
        }),
        ByteFault::DeleteSidecar => std::fs::remove_file(&sidecar),
    }
}

/// XORs a random nonzero mask into the byte at `at`; an offset past the
/// end of the file flips nothing.
fn flip_byte(bytes: &mut [u8], at: u64, rng: &mut StdRng) {
    let mask = rng.gen_range(1u8..=255);
    if let Some(b) = usize::try_from(at).ok().and_then(|at| bytes.get_mut(at)) {
        *b ^= mask;
    }
}

/// Locates the last *data* capsule in the pool via the sidecar:
/// `(record offset, header byte length, strand-section payload bytes)`.
/// The header length is however many bytes [`CapsuleHeader::read_from`]
/// consumes at the record offset, so only the object crate knows the
/// record format.
fn last_capsule_extent(dir: &Path, pool: &[u8]) -> io::Result<(u64, u64, u64)> {
    let invalid = |m: String| io::Error::new(io::ErrorKind::InvalidData, m);
    let text = std::fs::read_to_string(dir.join(MANIFEST_FILE))?;
    let manifest =
        Manifest::from_text(&text).map_err(|e| invalid(format!("sidecar unreadable: {e}")))?;
    let entry = manifest
        .capsules()
        .last()
        .ok_or_else(|| invalid("pool has no data capsules to corrupt".into()))?;
    let header = PoolHeader::read_from(&mut &pool[..])
        .map_err(|e| invalid(format!("pool header unreadable: {e}")))?;
    let params = header
        .params()
        .map_err(|e| invalid(format!("pool params invalid: {e}")))?;
    let record = usize::try_from(entry.offset)
        .ok()
        .and_then(|at| pool.get(at..))
        .ok_or_else(|| invalid(format!("capsule {} lies past the pool's end", entry.seq)))?;
    let mut rest = record;
    CapsuleHeader::read_from(&mut rest, usize::from(header.primer_len))
        .map_err(|e| invalid(format!("capsule {} header unreadable: {e}", entry.seq)))?;
    let header_len = (record.len() - rest.len()) as u64;
    let strand_bytes = u64::from(entry.units)
        * header.cols() as u64
        * packed_strand_len(params.strand_bases()) as u64;
    Ok((entry.offset, header_len, strand_bytes))
}

/// Reads `path`, lets `edit` damage its bytes, and atomically replaces
/// the file with the result (temp file, `sync_all`, rename).
fn rewrite(path: &Path, edit: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> io::Result<()> {
    let mut bytes = std::fs::read(path)?;
    edit(&mut bytes)?;
    let tmp = path.with_extension("chaos.tmp");
    let mut dst = File::create(&tmp)?;
    dst.write_all(&bytes)?;
    dst.sync_all()?;
    drop(dst);
    std::fs::rename(&tmp, path)
}
