//! Multi-file archives with an embedded directory, optional end-to-end
//! encryption, and priority-ordered storage across units.
//!
//! This mirrors the paper's evaluation setup (§6.1): a group of encrypted
//! images of different sizes is packed into the encoding unit(s) together
//! with "an additional file containing the names and sizes of all files
//! [which] acts as a directory, which in case of DnaMapper was given the
//! highest priority". Priority ordering uses the paper's fairest
//! multi-file heuristic: every file receives a share of each reliability
//! class proportional to its size (§6.1.1), implemented by
//! [`dna_media::rank::merge_rankings`] over per-file position rankings —
//! rankings that are content-agnostic, so encryption does not interfere.

use crate::pipeline::{EncodedUnit, Pipeline, RetrieveOptions, UnitReads};
use crate::report::DecodeReport;
use crate::StorageError;
use dna_channel::Cluster;
use dna_crypto::ChaCha20;
use dna_media::rank::merge_rankings;
use dna_strand::bits::{get_bit, set_bit};

/// One named file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// File name (stored truncated/padded to 8 bytes).
    pub name: String,
    /// File contents.
    pub bytes: Vec<u8>,
}

impl FileEntry {
    /// Creates a file entry.
    pub fn new(name: impl Into<String>, bytes: Vec<u8>) -> FileEntry {
        FileEntry {
            name: name.into(),
            bytes,
        }
    }
}

/// A set of files stored together in one encoding run.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Archive {
    files: Vec<FileEntry>,
}

/// Fixed-size directory entry: 8 name bytes + 4 size bytes.
const DIR_ENTRY: usize = 12;
/// Maximum number of files (one length byte).
const MAX_FILES: usize = 255;

impl Archive {
    /// Creates an archive from files.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::InvalidParams`] for an empty archive or one
    /// with more than 255 files.
    pub fn new(files: Vec<FileEntry>) -> Result<Archive, StorageError> {
        if files.is_empty() || files.len() > MAX_FILES {
            return Err(StorageError::InvalidParams(format!(
                "archives hold 1..=255 files, got {}",
                files.len()
            )));
        }
        Ok(Archive { files })
    }

    /// The files, in archive order.
    pub fn files(&self) -> &[FileEntry] {
        &self.files
    }

    /// Looks a file up by name.
    pub fn file(&self, name: &str) -> Option<&FileEntry> {
        self.files.iter().find(|f| f.name == name)
    }

    /// Total content bytes (excluding the directory).
    pub fn content_bytes(&self) -> usize {
        self.files.iter().map(|f| f.bytes.len()).sum()
    }

    /// Serialized directory: `[n][8-byte name, u32 size]*`.
    fn directory_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(1 + self.files.len() * DIR_ENTRY);
        out.push(self.files.len() as u8);
        for f in &self.files {
            let mut name = [0u8; 8];
            for (i, b) in f.name.as_bytes().iter().take(8).enumerate() {
                name[i] = *b;
            }
            out.extend_from_slice(&name);
            out.extend_from_slice(&(f.bytes.len() as u32).to_be_bytes());
        }
        out
    }
}

/// How archive bits are ordered before hitting the data mapper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankingPolicy {
    /// Directory then files back-to-back (for the baseline and Gini
    /// layouts, which are data-order-oblivious).
    Sequential,
    /// Directory first (highest priority), then all files' bits merged so
    /// each file gets a proportional share of every reliability class —
    /// feed this to a [`Layout::DnaMapper`](crate::Layout) pipeline.
    PositionPriority,
}

/// Encodes/decodes archives through a [`Pipeline`], spreading data over as
/// many units as needed.
#[derive(Debug, Clone)]
pub struct ArchiveCodec {
    pipeline: Pipeline,
    policy: RankingPolicy,
    cipher: Option<([u8; 32], [u8; 12])>,
}

impl ArchiveCodec {
    /// Creates an archive codec over `pipeline` with the given ordering
    /// policy.
    pub fn new(pipeline: Pipeline, policy: RankingPolicy) -> ArchiveCodec {
        ArchiveCodec {
            pipeline,
            policy,
            cipher: None,
        }
    }

    /// Enables end-to-end encryption of file contents under an explicit
    /// ChaCha20 key and nonce (the directory stays readable: it is the
    /// decode bootstrap). This is the preferred keying API; the per-capsule
    /// object store derives one nonce per capsule from the same key.
    pub fn with_cipher(mut self, key: [u8; 32], nonce: [u8; 12]) -> ArchiveCodec {
        self.cipher = Some((key, nonce));
        self
    }

    /// Enables encryption keyed from a single seed.
    ///
    /// Legacy shim, kept so archives written by earlier releases stay
    /// readable: it maps `seed` through [`dna_crypto::seed_material`] and
    /// calls [`ArchiveCodec::with_cipher`] — the keystream is regression-
    /// pinned to be bit-identical to the historical seed-only path. New
    /// code should pass a real key and nonce to `with_cipher`.
    pub fn with_encryption(self, seed: u64) -> ArchiveCodec {
        let (key, nonce) = dna_crypto::seed_material(seed);
        self.with_cipher(key, nonce)
    }

    /// The underlying pipeline.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// Units needed for `archive`.
    pub fn unit_count(&self, archive: &Archive) -> usize {
        let total = archive.directory_bytes().len() + archive.content_bytes();
        total.div_ceil(self.pipeline.payload_capacity()).max(1)
    }

    /// Builds the global (possibly priority-ordered) bit stream.
    fn global_stream(&self, archive: &Archive) -> Vec<u8> {
        let dir = archive.directory_bytes();
        let mut contents: Vec<u8> = Vec::with_capacity(archive.content_bytes());
        for f in &archive.files {
            contents.extend_from_slice(&f.bytes);
        }
        if let Some((key, nonce)) = &self.cipher {
            ChaCha20::new(key, nonce).apply_keystream(&mut contents);
        }
        match self.policy {
            RankingPolicy::Sequential => {
                let mut out = dir;
                out.extend_from_slice(&contents);
                out
            }
            RankingPolicy::PositionPriority => {
                // Directory bits first, then the proportional merge of the
                // files' position rankings.
                let sizes: Vec<usize> = archive.files.iter().map(|f| f.bytes.len()).collect();
                let order = merged_bit_order(&sizes);
                let mut out = vec![0u8; dir.len() + contents.len()];
                let dir_bits = dir.len() * 8;
                for b in 0..dir_bits {
                    set_bit(&mut out, b, get_bit(&dir, b));
                }
                // Offsets of each file within the concatenated contents.
                let offsets = file_offsets(&sizes);
                for (q, &(f, bit)) in order.iter().enumerate() {
                    let src = offsets[f] * 8 + bit;
                    set_bit(&mut out, dir_bits + q, get_bit(&contents, src));
                }
                out
            }
        }
    }

    /// Inverse of [`ArchiveCodec::global_stream`] given the decoded stream.
    fn parse_stream(&self, stream: &[u8]) -> Result<Archive, StorageError> {
        if stream.is_empty() {
            return Err(StorageError::DirectoryUnreadable);
        }
        let n_files = stream[0] as usize;
        let dir_len = 1 + n_files * DIR_ENTRY;
        if n_files == 0 || dir_len > stream.len() {
            return Err(StorageError::DirectoryUnreadable);
        }
        let mut names = Vec::with_capacity(n_files);
        let mut sizes = Vec::with_capacity(n_files);
        for i in 0..n_files {
            let e = 1 + i * DIR_ENTRY;
            let name_bytes: Vec<u8> = stream[e..e + 8]
                .iter()
                .copied()
                .take_while(|&b| b != 0)
                .collect();
            names.push(String::from_utf8_lossy(&name_bytes).into_owned());
            let size =
                u32::from_be_bytes([stream[e + 8], stream[e + 9], stream[e + 10], stream[e + 11]])
                    as usize;
            sizes.push(size);
        }
        let total: usize = sizes.iter().sum();
        if dir_len + total > stream.len() {
            return Err(StorageError::DirectoryUnreadable);
        }
        let mut contents = vec![0u8; total];
        match self.policy {
            RankingPolicy::Sequential => {
                contents.copy_from_slice(&stream[dir_len..dir_len + total]);
            }
            RankingPolicy::PositionPriority => {
                let order = merged_bit_order(&sizes);
                let offsets = file_offsets(&sizes);
                let dir_bits = dir_len * 8;
                for (q, &(f, bit)) in order.iter().enumerate() {
                    let dst = offsets[f] * 8 + bit;
                    set_bit(&mut contents, dst, get_bit(stream, dir_bits + q));
                }
            }
        }
        if let Some((key, nonce)) = &self.cipher {
            ChaCha20::new(key, nonce).apply_keystream(&mut contents);
        }
        let offsets = file_offsets(&sizes);
        let files = names
            .into_iter()
            .zip(sizes.iter())
            .enumerate()
            .map(|(i, (name, &size))| FileEntry {
                name,
                bytes: contents[offsets[i]..offsets[i] + size].to_vec(),
            })
            .collect();
        Archive::new(files)
    }

    /// Scatters the global stream into per-unit payloads. Sequential
    /// policy splits byte-wise; priority policy interleaves reliability
    /// classes across units so the global class `g` spans class `g` of
    /// every unit.
    fn split_units(&self, stream: &[u8], n_units: usize) -> Vec<Vec<u8>> {
        let cap = self.pipeline.payload_capacity();
        match self.policy {
            RankingPolicy::Sequential => (0..n_units)
                .map(|u| {
                    let lo = (u * cap).min(stream.len());
                    let hi = ((u + 1) * cap).min(stream.len());
                    let mut payload = stream[lo..hi].to_vec();
                    payload.resize(cap, 0);
                    payload
                })
                .collect(),
            RankingPolicy::PositionPriority => {
                let params = self.pipeline.params();
                let class_bits = params.data_cols() * usize::from(params.symbol_bits());
                let rows = params.rows();
                let mut payloads = vec![vec![0u8; cap]; n_units];
                let total_bits = stream.len() * 8;
                let global_class_bits = class_bits * n_units;
                for q in 0..total_bits.min(rows * global_class_bits) {
                    let g = q / global_class_bits;
                    let r = q % global_class_bits;
                    let u = r / class_bits;
                    let off = r % class_bits;
                    set_bit(&mut payloads[u], g * class_bits + off, get_bit(stream, q));
                }
                payloads
            }
        }
    }

    /// Inverse of [`ArchiveCodec::split_units`].
    fn join_units(&self, payloads: &[Vec<u8>]) -> Vec<u8> {
        let cap = self.pipeline.payload_capacity();
        match self.policy {
            RankingPolicy::Sequential => payloads.concat(),
            RankingPolicy::PositionPriority => {
                let params = self.pipeline.params();
                let class_bits = params.data_cols() * usize::from(params.symbol_bits());
                let rows = params.rows();
                let n_units = payloads.len();
                let global_class_bits = class_bits * n_units;
                let mut stream = vec![0u8; cap * n_units];
                for q in 0..rows * global_class_bits {
                    let g = q / global_class_bits;
                    let r = q % global_class_bits;
                    let u = r / class_bits;
                    let off = r % class_bits;
                    set_bit(&mut stream, q, get_bit(&payloads[u], g * class_bits + off));
                }
                stream
            }
        }
    }

    /// Encodes the archive into one unit per [`ArchiveCodec::unit_count`],
    /// fanning units out across threads via
    /// [`Pipeline::encode_batch`].
    ///
    /// # Errors
    ///
    /// Propagates pipeline encoding errors.
    pub fn encode(&self, archive: &Archive) -> Result<Vec<EncodedUnit>, StorageError> {
        let stream = self.global_stream(archive);
        let n_units = self.unit_count(archive);
        self.pipeline
            .encode_batch(&self.split_units(&stream, n_units))
    }

    /// Decodes the archive from per-unit cluster sets via
    /// [`Pipeline::decode`], in parallel.
    ///
    /// # Errors
    ///
    /// Returns [`StorageError::DirectoryUnreadable`] when the directory
    /// cannot be reconstructed; per-codeword failures degrade file
    /// contents instead of failing the call.
    pub fn decode(
        &self,
        per_unit_clusters: &[Vec<Cluster>],
        opts: &RetrieveOptions,
    ) -> Result<(Archive, Vec<DecodeReport>), StorageError> {
        let units: Vec<_> = per_unit_clusters
            .iter()
            .map(|c| UnitReads::Clusters(c))
            .collect();
        let decoded = self.pipeline.decode(&units, opts, None)?;
        let (payloads, reports): (Vec<Vec<u8>>, Vec<DecodeReport>) = decoded.into_iter().unzip();
        let stream = self.join_units(&payloads);
        let archive = self.parse_stream(&stream)?;
        Ok((archive, reports))
    }
}

/// Byte offset of each file within the concatenated contents.
fn file_offsets(sizes: &[usize]) -> Vec<usize> {
    let mut offsets = Vec::with_capacity(sizes.len());
    let mut acc = 0usize;
    for &s in sizes {
        offsets.push(acc);
        acc += s;
    }
    offsets
}

/// The proportional merge of per-file position rankings, at bit level.
fn merged_bit_order(sizes: &[usize]) -> Vec<(usize, usize)> {
    let rankings: Vec<Vec<usize>> = sizes.iter().map(|&s| (0..s * 8).collect()).collect();
    merge_rankings(&rankings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::Layout;
    use crate::params::CodecParams;
    use dna_channel::{CoverageModel, ErrorModel, SimulatedSequencer};

    fn sample_archive() -> Archive {
        Archive::new(vec![
            FileEntry::new("alpha", (0..23u8).collect()),
            FileEntry::new("beta", (100..180u8).collect()),
            FileEntry::new("gamma", vec![0xEE; 11]),
        ])
        .unwrap()
    }

    fn codec(policy: RankingPolicy, layout: Layout) -> ArchiveCodec {
        let pipeline = Pipeline::builder()
            .params(CodecParams::tiny().unwrap())
            .layout(layout)
            .build()
            .unwrap();
        ArchiveCodec::new(pipeline, policy)
    }

    fn noiseless_roundtrip(codec: &ArchiveCodec, archive: &Archive) -> Archive {
        let units = codec.encode(archive).unwrap();
        let backend = SimulatedSequencer::new(ErrorModel::noiseless(), CoverageModel::Fixed(2));
        let pools = codec.pipeline().sequence_batch(&backend, &units, 9);
        let clusters: Vec<Vec<Cluster>> = pools.iter().map(|p| p.clusters().to_vec()).collect();
        let (decoded, reports) = codec
            .decode(&clusters, &RetrieveOptions::default())
            .unwrap();
        assert!(reports.iter().all(DecodeReport::is_error_free));
        decoded
    }

    #[test]
    fn sequential_round_trip_spans_units() {
        let archive = sample_archive();
        let codec = codec(RankingPolicy::Sequential, Layout::Baseline);
        assert!(codec.unit_count(&archive) > 1, "test should span units");
        let decoded = noiseless_roundtrip(&codec, &archive);
        assert_eq!(decoded, archive);
    }

    #[test]
    fn priority_round_trip_spans_units() {
        let archive = sample_archive();
        let codec = codec(RankingPolicy::PositionPriority, Layout::DnaMapper);
        let decoded = noiseless_roundtrip(&codec, &archive);
        assert_eq!(decoded, archive);
    }

    #[test]
    fn encrypted_round_trip() {
        let archive = sample_archive();
        let codec = codec(RankingPolicy::PositionPriority, Layout::DnaMapper).with_encryption(42);
        let decoded = noiseless_roundtrip(&codec, &archive);
        assert_eq!(decoded, archive);
        // The stored stream must not contain the plaintext.
        let stream = codec.global_stream(&archive);
        let plain: Vec<u8> = (100..180u8).collect();
        let window_found = stream.windows(plain.len()).any(|w| w == plain);
        assert!(!window_found, "plaintext leaked into the stored stream");
    }

    #[test]
    fn seed_shim_matches_explicit_cipher_stream() {
        // The deprecated with_encryption(seed) shim must produce the exact
        // ciphertext stream of with_cipher(seed_material(seed)) — old
        // archives stay decodable through the new keying API.
        let archive = sample_archive();
        let shim = codec(RankingPolicy::Sequential, Layout::Baseline).with_encryption(42);
        let (key, nonce) = dna_crypto::seed_material(42);
        let explicit = codec(RankingPolicy::Sequential, Layout::Baseline).with_cipher(key, nonce);
        assert_eq!(
            shim.global_stream(&archive),
            explicit.global_stream(&archive)
        );
        // And a shim-encrypted stream decodes through the explicit codec.
        let decoded = noiseless_roundtrip(&explicit, &archive);
        assert_eq!(decoded, archive);
    }

    #[test]
    fn directory_failure_is_detected() {
        let codec = codec(RankingPolicy::Sequential, Layout::Baseline);
        // A stream claiming 200 files but too short for their directory.
        let stream = vec![200u8; 10];
        assert!(matches!(
            codec.parse_stream(&stream),
            Err(StorageError::DirectoryUnreadable)
        ));
        assert!(matches!(
            codec.parse_stream(&[]),
            Err(StorageError::DirectoryUnreadable)
        ));
    }

    #[test]
    fn priority_stream_places_directory_first() {
        let archive = sample_archive();
        let codec = codec(RankingPolicy::PositionPriority, Layout::DnaMapper);
        let stream = codec.global_stream(&archive);
        let dir = archive.directory_bytes();
        assert_eq!(&stream[..dir.len()], &dir[..]);
    }

    #[test]
    fn proportional_share_across_classes() {
        // In the merged region right after the directory, the large file
        // should appear ~(its size / total) of the time.
        let archive = Archive::new(vec![
            FileEntry::new("small", vec![1; 16]),
            FileEntry::new("large", vec![2; 48]),
        ])
        .unwrap();
        let sizes = vec![16usize, 48];
        let order = merged_bit_order(&sizes);
        let prefix = &order[..order.len() / 4];
        let large = prefix.iter().filter(|(f, _)| *f == 1).count();
        let expected = prefix.len() * 48 / 64;
        assert!(
            large.abs_diff(expected) <= prefix.len() / 8,
            "large-file share {large} of {} (expected ≈{expected})",
            prefix.len()
        );
        drop(archive);
    }

    #[test]
    fn archive_validation() {
        assert!(Archive::new(vec![]).is_err());
        let too_many = (0..256)
            .map(|i| FileEntry::new(format!("f{i}"), vec![0]))
            .collect();
        assert!(Archive::new(too_many).is_err());
    }
}
