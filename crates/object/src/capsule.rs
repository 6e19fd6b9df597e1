//! The on-disk pool format: a header describing the codec geometry
//! followed by self-describing, CRC-guarded **capsule** records.
//!
//! A capsule is the unit of survival and of random access: a fixed span of
//! encoding units that shares one PCR primer pair (its address), one
//! optional compress→encrypt layer, and one CRC'd trailer. Every record is
//! fully self-describing — object id, flags, name, unit count, payload
//! lengths, and the primer pair are all in the header — so a pool whose
//! manifest is lost can be scanned capsule-by-capsule and the manifest
//! rebuilt (`ObjectStore::rebuild_manifest`).
//!
//! Strand bases are packed four to a byte (2 bits per base, A=00 C=01
//! G=10 T=11), unit-major then column-major, at fixed record sizes derived
//! from the pool geometry; unit boundaries are therefore structural and
//! need no in-band markers.

use crate::checksum::{crc32, crc64, crc64_extend};
use dna_storage::{CodecParams, Layout, StorageError};
use dna_strand::{Base, DnaString, Primer, PrimerLibrary, TranscoderSpec};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io::{Read, Seek, SeekFrom, Write};

/// Pool file magic.
pub const POOL_MAGIC: &[u8; 8] = b"DNAPOOL1";
/// Capsule record magic.
pub const CAPSULE_MAGIC: &[u8; 4] = b"CAP1";
/// Capsule trailer magic.
pub const TRAILER_MAGIC: &[u8; 4] = b"1PAC";

/// Capsule payload is ChaCha20-encrypted.
pub const FLAG_ENCRYPTED: u16 = 1 << 0;
/// Capsule payload is zero-RLE compressed.
pub const FLAG_COMPRESSED: u16 = 1 << 1;
/// Capsule holds a serialized manifest (the reserved super-capsule).
pub const FLAG_MANIFEST: u16 = 1 << 2;
/// Capsule is a tombstone marking its object id deleted.
pub const FLAG_TOMBSTONE: u16 = 1 << 3;

/// The object id reserved for manifest super-capsules.
pub const MANIFEST_OBJECT_ID: u64 = 0;

/// Longest accepted object name, bounded by the capsule header's length
/// byte.
pub const MAX_NAME_LEN: usize = 255;

fn corrupt(reason: impl Into<String>) -> StorageError {
    StorageError::ManifestCorrupt {
        reason: reason.into(),
    }
}

/// Which [`Layout`] the pool was written with, as its wire id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LayoutKind {
    /// Row codewords, column-major data.
    Baseline,
    /// Diagonal codeword interleaving (no excluded rows).
    Gini,
    /// Priority zig-zag data mapping.
    DnaMapper,
}

impl LayoutKind {
    fn to_u8(self) -> u8 {
        match self {
            LayoutKind::Baseline => 0,
            LayoutKind::Gini => 1,
            LayoutKind::DnaMapper => 2,
        }
    }

    fn from_u8(v: u8) -> Result<LayoutKind, StorageError> {
        match v {
            0 => Ok(LayoutKind::Baseline),
            1 => Ok(LayoutKind::Gini),
            2 => Ok(LayoutKind::DnaMapper),
            other => Err(corrupt(format!("unknown layout kind {other}"))),
        }
    }

    /// The [`Layout`] this kind denotes.
    pub fn to_layout(self) -> Layout {
        match self {
            LayoutKind::Baseline => Layout::Baseline,
            LayoutKind::Gini => Layout::Gini {
                excluded_rows: vec![],
            },
            LayoutKind::DnaMapper => Layout::DnaMapper,
        }
    }

    /// The kind of a built-in [`Layout`]; Gini layouts with excluded rows
    /// are rejected (the pool header cannot carry the row list).
    pub fn from_layout(layout: &Layout) -> Result<LayoutKind, StorageError> {
        match layout {
            Layout::Baseline => Ok(LayoutKind::Baseline),
            Layout::Gini { excluded_rows } if excluded_rows.is_empty() => Ok(LayoutKind::Gini),
            Layout::Gini { .. } => Err(StorageError::InvalidParams(
                "object pools do not support Gini excluded rows".into(),
            )),
            Layout::DnaMapper => Ok(LayoutKind::DnaMapper),
        }
    }
}

/// The pool file header: everything needed to rebuild the codec and walk
/// the capsule records.
///
/// Version 1 pools predate the pluggable transcoder and always use the
/// direct 2-bit layout (the byte at offset 19 was a zero pad). Version 2
/// records the [`TranscoderSpec`] id in that byte; writers emit version 1
/// for direct pools so their files stay byte-identical to old tooling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolHeader {
    /// Format version (1 = direct-only, 2 = carries a transcoder id).
    pub version: u16,
    /// Symbol width of the GF field (4, 8, or 16 bits).
    pub field_width: u8,
    /// Layout.
    pub layout: LayoutKind,
    /// Matrix rows.
    pub rows: u16,
    /// Data columns per unit.
    pub data_cols: u16,
    /// Parity columns per unit.
    pub parity_cols: u16,
    /// Index width in bits.
    pub index_bits: u8,
    /// Byte→base transcoder the pool's strands were written with.
    pub transcoder: TranscoderSpec,
    /// Primer length in bases (> 0: primers are the address space).
    pub primer_len: u16,
    /// Data units per capsule (super-capsules may exceed this).
    pub units_per_capsule: u32,
    /// Seed that derives every capsule's primer pair.
    pub pool_seed: u64,
    /// FNV-1a of the encryption key, 0 when the pool is plaintext.
    pub key_fingerprint: u64,
}

impl PoolHeader {
    /// Serializes the header (magic through CRC).
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<(), StorageError> {
        let mut buf = Vec::with_capacity(46);
        buf.extend_from_slice(POOL_MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf.push(self.field_width);
        buf.push(self.layout.to_u8());
        buf.extend_from_slice(&self.rows.to_le_bytes());
        buf.extend_from_slice(&self.data_cols.to_le_bytes());
        buf.extend_from_slice(&self.parity_cols.to_le_bytes());
        buf.push(self.index_bits);
        buf.push(self.transcoder.id());
        buf.extend_from_slice(&self.primer_len.to_le_bytes());
        buf.extend_from_slice(&self.units_per_capsule.to_le_bytes());
        buf.extend_from_slice(&self.pool_seed.to_le_bytes());
        buf.extend_from_slice(&self.key_fingerprint.to_le_bytes());
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        w.write_all(&buf)?;
        Ok(())
    }

    /// Reads and validates a pool header.
    pub fn read_from<R: Read>(r: &mut R) -> Result<PoolHeader, StorageError> {
        let mut buf = [0u8; 46];
        r.read_exact(&mut buf)
            .map_err(|e| corrupt(format!("pool header unreadable: {e}")))?;
        if &buf[..8] != POOL_MAGIC {
            return Err(corrupt("bad pool magic"));
        }
        let stored_crc = u32::from_le_bytes(buf[42..46].try_into().unwrap());
        if crc32(&buf[..42]) != stored_crc {
            return Err(corrupt("pool header CRC mismatch"));
        }
        let version = u16::from_le_bytes(buf[8..10].try_into().unwrap());
        if version != 1 && version != 2 {
            return Err(corrupt(format!("unsupported pool version {version}")));
        }
        // Version 1 pools wrote a zero pad at offset 19 and always use the
        // direct layout; version 2 records the transcoder id there.
        let transcoder = if version == 1 {
            if buf[19] != 0 {
                return Err(corrupt(format!(
                    "version 1 pool with nonzero pad byte {}",
                    buf[19]
                )));
            }
            TranscoderSpec::Direct
        } else {
            let id = buf[19];
            TranscoderSpec::from_id(id).ok_or_else(|| {
                TranscoderSpec::retired_name(id).map_or_else(
                    || corrupt(format!("unknown transcoder id {id}")),
                    |name| StorageError::RetiredTranscoder { id, name },
                )
            })?
        };
        Ok(PoolHeader {
            version,
            field_width: buf[10],
            layout: LayoutKind::from_u8(buf[11])?,
            rows: u16::from_le_bytes(buf[12..14].try_into().unwrap()),
            data_cols: u16::from_le_bytes(buf[14..16].try_into().unwrap()),
            parity_cols: u16::from_le_bytes(buf[16..18].try_into().unwrap()),
            index_bits: buf[18],
            transcoder,
            primer_len: u16::from_le_bytes(buf[20..22].try_into().unwrap()),
            units_per_capsule: u32::from_le_bytes(buf[22..26].try_into().unwrap()),
            pool_seed: u64::from_le_bytes(buf[26..34].try_into().unwrap()),
            key_fingerprint: u64::from_le_bytes(buf[34..42].try_into().unwrap()),
        })
    }

    /// Serialized header length in bytes.
    pub const LEN: u64 = 46;

    /// Reconstructs the codec geometry this pool was written with.
    pub fn params(&self) -> Result<CodecParams, StorageError> {
        let field = match self.field_width {
            4 => dna_gf::Field::gf16(),
            8 => dna_gf::Field::gf256(),
            16 => dna_gf::Field::gf65536(),
            w => {
                return Err(corrupt(format!("unsupported field width {w}")));
            }
        };
        Ok(CodecParams::new(
            field,
            usize::from(self.rows),
            usize::from(self.data_cols),
            usize::from(self.parity_cols),
            self.index_bits,
        )?
        .with_primer_len(usize::from(self.primer_len))
        .with_transcoder(self.transcoder))
    }

    /// Total columns (molecules) per unit.
    pub fn cols(&self) -> usize {
        usize::from(self.data_cols) + usize::from(self.parity_cols)
    }
}

/// One capsule record header, fully self-describing for manifest rebuild.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapsuleHeader {
    /// Pool-wide capsule sequence number (primer derivation input).
    pub seq: u32,
    /// Owning object (0 = manifest super-capsule).
    pub object_id: u64,
    /// `FLAG_*` bits.
    pub flags: u16,
    /// Object name (carried on every data capsule so rebuild recovers it).
    pub name: String,
    /// Encoding units in this capsule.
    pub units: u32,
    /// Payload bytes before compression.
    pub plain_len: u64,
    /// Bytes actually encoded (after compression, before unit padding).
    pub stored_len: u64,
    /// Left (5') primer — the capsule's forward PCR address.
    pub left: Primer,
    /// Right (3') primer.
    pub right: Primer,
}

impl CapsuleHeader {
    fn serialize(&self) -> Result<Vec<u8>, StorageError> {
        if self.name.len() > MAX_NAME_LEN {
            return Err(StorageError::InvalidParams(format!(
                "object name longer than {MAX_NAME_LEN} bytes"
            )));
        }
        let mut buf = Vec::with_capacity(64 + self.name.len());
        buf.extend_from_slice(CAPSULE_MAGIC);
        buf.extend_from_slice(&1u16.to_le_bytes()); // record version
        buf.extend_from_slice(&self.seq.to_le_bytes());
        buf.extend_from_slice(&self.object_id.to_le_bytes());
        buf.extend_from_slice(&self.flags.to_le_bytes());
        buf.push(self.name.len() as u8);
        buf.extend_from_slice(self.name.as_bytes());
        buf.extend_from_slice(&self.units.to_le_bytes());
        buf.extend_from_slice(&self.plain_len.to_le_bytes());
        buf.extend_from_slice(&self.stored_len.to_le_bytes());
        buf.extend_from_slice(&pack_bases(self.left.strand().as_slice()));
        buf.extend_from_slice(&pack_bases(self.right.strand().as_slice()));
        let crc = crc32(&buf);
        buf.extend_from_slice(&crc.to_le_bytes());
        Ok(buf)
    }

    /// Writes the header, returning the bytes written.
    pub fn write_to<W: Write>(&self, w: &mut W) -> Result<u64, StorageError> {
        let buf = self.serialize()?;
        w.write_all(&buf)?;
        Ok(buf.len() as u64)
    }

    /// Reads and validates a capsule header. `primer_len` comes from the
    /// pool header (primers are stored packed at that length).
    pub fn read_from<R: Read>(r: &mut R, primer_len: usize) -> Result<CapsuleHeader, StorageError> {
        // Fixed prefix through name_len.
        let mut head = [0u8; 21];
        r.read_exact(&mut head)
            .map_err(|e| eof_is_truncation(e, "capsule header fixed prefix"))?;
        if &head[..4] != CAPSULE_MAGIC {
            return Err(corrupt("bad capsule magic"));
        }
        let record_version = u16::from_le_bytes(head[4..6].try_into().unwrap());
        if record_version != 1 {
            return Err(corrupt(format!(
                "unsupported capsule record version {record_version}"
            )));
        }
        let name_len = usize::from(head[20]);
        let packed_primer = primer_len.div_ceil(4);
        let mut rest = vec![0u8; name_len + 4 + 8 + 8 + 2 * packed_primer + 4];
        r.read_exact(&mut rest)
            .map_err(|e| eof_is_truncation(e, "capsule header tail"))?;
        let mut all = head.to_vec();
        all.extend_from_slice(&rest);
        let crc_at = all.len() - 4;
        let stored_crc = u32::from_le_bytes(all[crc_at..].try_into().unwrap());
        if crc32(&all[..crc_at]) != stored_crc {
            return Err(corrupt("capsule header CRC mismatch"));
        }
        let name = String::from_utf8(rest[..name_len].to_vec())
            .map_err(|_| corrupt("capsule name is not UTF-8"))?;
        let mut at = name_len;
        let units = u32::from_le_bytes(rest[at..at + 4].try_into().unwrap());
        at += 4;
        let plain_len = u64::from_le_bytes(rest[at..at + 8].try_into().unwrap());
        at += 8;
        let stored_len = u64::from_le_bytes(rest[at..at + 8].try_into().unwrap());
        at += 8;
        let left = Primer::from_strand(unpack_bases(&rest[at..at + packed_primer], primer_len));
        at += packed_primer;
        let right = Primer::from_strand(unpack_bases(&rest[at..at + packed_primer], primer_len));
        Ok(CapsuleHeader {
            seq: u32::from_le_bytes(head[6..10].try_into().unwrap()),
            object_id: u64::from_le_bytes(head[10..18].try_into().unwrap()),
            flags: u16::from_le_bytes(head[18..20].try_into().unwrap()),
            name,
            units,
            plain_len,
            stored_len,
            left,
            right,
        })
    }
}

/// Packed length of one strand of `bases` bases.
pub fn packed_strand_len(bases: usize) -> usize {
    dna_strand::bits::packed_base_len(bases)
}

/// Packs bases four to a byte, low bits first, via the dispatched
/// word-at-a-time kernel in [`dna_strand::bits`].
pub fn pack_bases(bases: &[Base]) -> Vec<u8> {
    dna_strand::bits::pack_bases(bases)
}

/// Inverse of [`pack_bases`] for a known base count.
pub fn unpack_bases(packed: &[u8], bases: usize) -> DnaString {
    DnaString::from_bases(dna_strand::bits::unpack_bases(packed, bases))
}

/// Byte length of a capsule's strand+trailer section.
pub fn strand_section_len(units: u32, cols: usize, strand_bases: usize) -> u64 {
    u64::from(units) * cols as u64 * packed_strand_len(strand_bases) as u64 + 8 + 4
}

/// A strand section being streamed out: packed strand bytes go to the
/// writer with the CRC-64 carried along, and [`StrandSection::finish`]
/// appends the trailer (CRC-64, trailer magic). Both section writers —
/// [`write_strands`] and the store's packed encoder — append through it.
pub struct StrandSection<'w, W: Write> {
    w: &'w mut W,
    crc: u64,
    written: u64,
}

impl<'w, W: Write> StrandSection<'w, W> {
    /// Starts a section at the writer's position.
    pub fn new(w: &'w mut W) -> StrandSection<'w, W> {
        StrandSection {
            w,
            crc: 0,
            written: 0,
        }
    }

    /// Appends packed strand bytes (unit-major, column-major).
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when the writer fails.
    pub fn write_packed(&mut self, packed: &[u8]) -> Result<(), StorageError> {
        self.crc = crc64_extend(self.crc, packed);
        self.w.write_all(packed)?;
        self.written += packed.len() as u64;
        Ok(())
    }

    /// Writes the trailer and returns the section's length in bytes.
    ///
    /// # Errors
    ///
    /// [`StorageError::Io`] when the writer fails.
    pub fn finish(self) -> Result<u64, StorageError> {
        self.w.write_all(&self.crc.to_le_bytes())?;
        self.w.write_all(TRAILER_MAGIC)?;
        Ok(self.written + 12)
    }
}

/// Writes the strand section (packed strands, CRC-64 trailer, trailer
/// magic) for a capsule whose strands are given unit-major, column-major.
/// Every strand must be exactly `strand_bases` long. Each strand is packed
/// into one reused buffer and appended through a [`StrandSection`].
pub fn write_strands<W: Write, U: AsRef<[DnaString]>>(
    w: &mut W,
    units: &[U],
    strand_bases: usize,
) -> Result<u64, StorageError> {
    let mut packed = vec![0u8; packed_strand_len(strand_bases)];
    let mut section = StrandSection::new(w);
    for strand in units.iter().flat_map(AsRef::as_ref) {
        if strand.len() != strand_bases {
            return Err(StorageError::InvalidParams(format!(
                "strand length {} != expected {strand_bases}",
                strand.len()
            )));
        }
        dna_strand::bits::pack_bases_into(strand.as_slice(), &mut packed);
        section.write_packed(&packed)?;
    }
    section.finish()
}

/// Reads a capsule's strand section back as per-unit strand lists,
/// verifying the CRC-64 trailer.
pub fn read_strands<R: Read>(
    r: &mut R,
    units: u32,
    cols: usize,
    strand_bases: usize,
) -> Result<Vec<Vec<DnaString>>, StorageError> {
    let packed_len = packed_strand_len(strand_bases);
    let mut raw = vec![0u8; units as usize * cols * packed_len];
    r.read_exact(&mut raw)
        .map_err(|e| eof_is_truncation(e, "capsule strand section"))?;
    let mut trailer = [0u8; 12];
    r.read_exact(&mut trailer)
        .map_err(|e| eof_is_truncation(e, "capsule CRC trailer"))?;
    let stored_crc = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    if &trailer[8..] != TRAILER_MAGIC {
        return Err(corrupt("bad capsule trailer magic"));
    }
    if crc64(&raw) != stored_crc {
        return Err(StorageError::Substrate(
            "capsule strand CRC mismatch (torn or corrupted record)".into(),
        ));
    }
    let mut out = Vec::with_capacity(units as usize);
    let mut at = 0usize;
    for _ in 0..units {
        let mut unit = Vec::with_capacity(cols);
        for _ in 0..cols {
            unit.push(unpack_bases(&raw[at..at + packed_len], strand_bases));
            at += packed_len;
        }
        out.push(unit);
    }
    Ok(out)
}

/// Maps an end-of-file mid-read to [`StorageError::PoolTruncated`] (a
/// torn append or external chop — the record simply is not all there)
/// and every other I/O failure to [`StorageError::ManifestCorrupt`].
/// The truncation offset is filled in by callers that know where the
/// record started ([`scan_capsules`], the store's fetch path).
fn eof_is_truncation(e: std::io::Error, what: &str) -> StorageError {
    if e.kind() == std::io::ErrorKind::UnexpectedEof {
        StorageError::PoolTruncated {
            offset: 0,
            reason: format!("{what} ends at end of file"),
        }
    } else {
        corrupt(format!("{what} unreadable: {e}"))
    }
}

/// Walks the whole pool file, returning `(offset, header)` for every
/// capsule record without reading strand bytes (headers only; strand
/// sections are seeked over). This is the scan that powers manifest
/// recovery and rebuild.
///
/// # Errors
///
/// [`StorageError::PoolTruncated`] (carrying the torn record's byte
/// offset) when the file ends mid-record;
/// [`StorageError::ManifestCorrupt`] when a header is structurally
/// invalid (bad magic, CRC mismatch, unsupported version).
pub fn scan_capsules<R: Read + Seek>(
    r: &mut R,
    header: &PoolHeader,
    strand_bases: usize,
) -> Result<Vec<(u64, CapsuleHeader)>, StorageError> {
    let end = r.seek(SeekFrom::End(0))?;
    let mut at = r.seek(SeekFrom::Start(PoolHeader::LEN))?;
    let mut out = Vec::new();
    while at < end {
        let cap = match CapsuleHeader::read_from(r, usize::from(header.primer_len)) {
            Ok(cap) => cap,
            Err(StorageError::PoolTruncated { reason, .. }) => {
                return Err(StorageError::PoolTruncated { offset: at, reason });
            }
            Err(e) => return Err(e),
        };
        let body = strand_section_len(cap.units, header.cols(), strand_bases);
        let next = r.seek(SeekFrom::Current(body as i64))?;
        if next > end {
            return Err(StorageError::PoolTruncated {
                offset: at,
                reason: format!(
                    "capsule seq {} needs {body} strand-section bytes but the file ends first",
                    cap.seq
                ),
            });
        }
        out.push((at, cap));
        at = next;
    }
    Ok(out)
}

/// Derives capsule `seq`'s primer pair from the pool seed: a fresh seeded
/// search satisfying [`dna_strand::constraints::ConstraintSet::primer_default`] with
/// pairwise distance within the pair. Deterministic given
/// `(pool_seed, seq, len)`; this raw draw carries **no** pairwise-distance
/// guarantee *across* capsules (a global library search is quadratic in
/// pool size). [`ObjectStore::put`](crate::ObjectStore::put) therefore
/// tracks every issued pair and redraws via
/// [`capsule_primers_attempt`] on a cross-capsule collision.
pub fn capsule_primers(
    pool_seed: u64,
    seq: u32,
    len: usize,
) -> Result<(Primer, Primer), StorageError> {
    capsule_primers_attempt(pool_seed, seq, len, 0)
}

/// [`capsule_primers`] with a redraw counter: attempt 0 reproduces the
/// original derivation bit-for-bit (so existing pools re-derive the same
/// pairs), while attempt `k > 0` salts the seed for the store's
/// collision-avoidance redraw loop. The chosen pair is persisted in the
/// capsule header and manifest, so readers never re-run this search.
pub fn capsule_primers_attempt(
    pool_seed: u64,
    seq: u32,
    len: usize,
    attempt: u32,
) -> Result<(Primer, Primer), StorageError> {
    let salt = u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let mut rng = StdRng::seed_from_u64(splitmix64(
        pool_seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(u64::from(seq) + 1) ^ salt,
    ));
    let min_distance = (len / 3).max(1);
    let lib = PrimerLibrary::generate(2, len, min_distance, &mut rng)?;
    Ok((lib.primers()[0].clone(), lib.primers()[1].clone()))
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> PoolHeader {
        PoolHeader {
            version: 1,
            field_width: 4,
            layout: LayoutKind::Gini,
            rows: 6,
            data_cols: 10,
            parity_cols: 5,
            index_bits: 4,
            transcoder: TranscoderSpec::Direct,
            primer_len: 12,
            units_per_capsule: 3,
            pool_seed: 99,
            key_fingerprint: 0,
        }
    }

    #[test]
    fn pool_header_round_trips() {
        let h = sample_header();
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(buf.len() as u64, PoolHeader::LEN);
        let back = PoolHeader::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, h);
        let params = back.params().unwrap();
        assert_eq!(params.rows(), 6);
        assert_eq!(params.primer_len(), 12);
        assert_eq!(params.transcoder(), TranscoderSpec::Direct);
    }

    #[test]
    fn v2_header_round_trips_transcoder() {
        let mut h = sample_header();
        h.version = 2;
        h.transcoder = TranscoderSpec::Trellis;
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        assert_eq!(buf[19], TranscoderSpec::Trellis.id());
        let back = PoolHeader::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.params().unwrap().transcoder(), TranscoderSpec::Trellis);
    }

    #[test]
    fn legacy_v1_header_decodes_as_direct_and_rejects_nonzero_pad() {
        // A pre-transcoder pool: version 1, zero pad byte at offset 19.
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        assert_eq!(buf[19], 0, "direct pools keep the historical zero pad");
        let back = PoolHeader::read_from(&mut buf.as_slice()).unwrap();
        assert_eq!(back.transcoder, TranscoderSpec::Direct);

        // A v1 header with a nonzero pad byte is corrupt, not a transcoder.
        buf[19] = TranscoderSpec::Trellis.id();
        let crc = crc32(&buf[..42]);
        buf[42..46].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            PoolHeader::read_from(&mut buf.as_slice()),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    /// A valid v2 pool header whose transcoder byte is `id`.
    fn v2_header_with_transcoder_id(id: u8) -> Vec<u8> {
        let mut h = sample_header();
        h.version = 2;
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        buf[19] = id;
        let crc = crc32(&buf[..42]);
        buf[42..46].copy_from_slice(&crc.to_le_bytes());
        buf
    }

    #[test]
    fn v2_header_rejects_unknown_transcoder_id() {
        let buf = v2_header_with_transcoder_id(200);
        assert!(matches!(
            PoolHeader::read_from(&mut buf.as_slice()),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn v2_header_rejects_retired_rotation_id_with_typed_error() {
        let buf = v2_header_with_transcoder_id(3);
        let err = PoolHeader::read_from(&mut buf.as_slice()).unwrap_err();
        assert_eq!(
            err,
            StorageError::RetiredTranscoder {
                id: 3,
                name: "rotation"
            }
        );
        assert!(
            err.to_string().contains("retired transcoder (rotation"),
            "{err}"
        );
    }

    #[test]
    fn pool_header_rejects_corruption() {
        let mut buf = Vec::new();
        sample_header().write_to(&mut buf).unwrap();
        buf[12] ^= 1;
        assert!(matches!(
            PoolHeader::read_from(&mut buf.as_slice()),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn base_packing_round_trips() {
        let s: DnaString = "ACGTTGCAACG".parse().unwrap();
        let packed = pack_bases(s.as_slice());
        assert_eq!(packed.len(), 3);
        assert_eq!(unpack_bases(&packed, s.len()), s);
    }

    #[test]
    fn capsule_header_round_trips() {
        let (left, right) = capsule_primers(7, 3, 12).unwrap();
        let h = CapsuleHeader {
            seq: 3,
            object_id: 42,
            flags: FLAG_COMPRESSED,
            name: "photo.jpg".into(),
            units: 2,
            plain_len: 12345,
            stored_len: 999,
            left,
            right,
        };
        let mut buf = Vec::new();
        h.write_to(&mut buf).unwrap();
        let back = CapsuleHeader::read_from(&mut buf.as_slice(), 12).unwrap();
        assert_eq!(back, h);
        // Flip a name byte: CRC must catch it.
        let mut bad = buf.clone();
        bad[25] ^= 0x40;
        assert!(matches!(
            CapsuleHeader::read_from(&mut bad.as_slice(), 12),
            Err(StorageError::ManifestCorrupt { .. })
        ));
    }

    #[test]
    fn capsule_primers_are_deterministic_and_distinct() {
        let (l1, r1) = capsule_primers(5, 0, 16).unwrap();
        let (l2, r2) = capsule_primers(5, 0, 16).unwrap();
        assert_eq!(l1, l2);
        assert_eq!(r1, r2);
        let (l3, _) = capsule_primers(5, 1, 16).unwrap();
        assert_ne!(l1, l3, "different capsules draw different primers");
        assert!(l1.strand().hamming_distance(r1.strand()).unwrap() >= 5);
    }

    #[test]
    fn write_strands_and_the_packed_encoder_write_the_same_section() {
        // One capsule of 2.5 units under its own primers, through both
        // section writers: per-base strands packed by `write_strands`, and
        // the packed encoder streamed through a `StrandSection`.
        let params = CodecParams::tiny().unwrap().with_primer_len(12);
        let (left, right) = capsule_primers(7, 3, 12).unwrap();
        let pipeline = dna_storage::Pipeline::builder()
            .params(params.clone())
            .build()
            .unwrap()
            .with_primers(left, right)
            .unwrap();
        let stored: Vec<u8> = (0..75u32).map(|i| (i * 89 + 5) as u8).collect();
        let units = pipeline.encode_chunked(&stored).unwrap();
        let strands: Vec<&[DnaString]> = units.iter().map(|u| u.strands()).collect();
        let mut per_base = Vec::new();
        let per_base_len = write_strands(&mut per_base, &strands, params.strand_bases()).unwrap();
        let mut packed = Vec::new();
        let mut section = StrandSection::new(&mut packed);
        pipeline
            .encode_chunked_packed(&stored, |bytes| section.write_packed(bytes))
            .unwrap();
        assert_eq!(section.finish().unwrap(), per_base_len);
        assert_eq!(packed, per_base);
        assert_eq!(
            per_base_len,
            strand_section_len(3, params.cols(), params.strand_bases())
        );
    }

    #[test]
    fn strand_sections_round_trip_and_detect_corruption() {
        let bases = 8;
        let units: Vec<Vec<DnaString>> = (0..2)
            .map(|u| {
                (0..3)
                    .map(|c| {
                        (0..bases)
                            .map(|i| Base::from_bits((u + c + i) as u8))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let mut buf = Vec::new();
        let written = write_strands(&mut buf, &units, bases).unwrap();
        assert_eq!(written, strand_section_len(2, 3, bases));
        let back = read_strands(&mut buf.as_slice(), 2, 3, bases).unwrap();
        assert_eq!(back, units);
        let mut bad = buf.clone();
        bad[1] ^= 1;
        assert!(read_strands(&mut bad.as_slice(), 2, 3, bases).is_err());
    }
}
