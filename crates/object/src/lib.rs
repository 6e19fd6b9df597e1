//! Streaming object store over the DNA pipeline.
//!
//! This crate turns the unit-at-a-time codec in `dna-storage` into an
//! *object store*: a pool file holding many named objects, each chunked
//! into independent, self-describing **survival capsules** — a fixed span
//! of encoding units sharing one PCR primer pair (the capsule's address),
//! an optional compress→encrypt layer, and CRC-guarded framing. Because
//! capsules are independent, both directions stream in constant memory:
//! [`ObjectStore::put`] reads any [`std::io::Read`] one capsule at a time,
//! and [`ObjectStore::fetch`] writes any [`std::io::Write`] the same way —
//! multi-gigabyte objects encode and decode at a bounded peak RSS.
//!
//! Random access is primer-addressed, mirroring PCR enrichment in wet
//! protocols: the persisted [`Manifest`] maps `object_id → capsule
//! ranges → primer pairs`, `fetch(object_id)` touches only the target
//! object's capsules, and each capsule's reads pass a primer prefilter
//! before decode. The manifest itself lives twice — as a sidecar file and
//! as a reserved super-capsule *inside the pool* — with
//! [`ObjectStore::rebuild_manifest`] as the full-scan fallback when both
//! are lost ([`StorageError::ManifestMissing`] /
//! [`StorageError::ManifestCorrupt`]).
//!
//! [`StorageError::ManifestMissing`]: dna_storage::StorageError::ManifestMissing
//! [`StorageError::ManifestCorrupt`]: dna_storage::StorageError::ManifestCorrupt
//!
//! ```
//! use dna_object::{ObjectStore, StoreConfig};
//!
//! let dir = std::env::temp_dir().join(format!("dnaobj-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = ObjectStore::create(&dir, StoreConfig::tiny()?)?;
//! let id = store.put_bytes("greeting", b"hello, helix")?;
//!
//! // Random access: only this object's capsules are read and decoded.
//! let mut out = Vec::new();
//! let report = store.fetch(id, &mut out)?;
//! assert_eq!(out, b"hello, helix");
//! assert_eq!(report.capsules, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok::<(), dna_storage::StorageError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod capsule;
pub mod checksum;
pub mod compress;
pub mod manifest;
pub mod store;

pub use capsule::{CapsuleHeader, LayoutKind, PoolHeader};
pub use manifest::{CapsuleEntry, Manifest, ObjectEntry};
pub use store::{
    cross_primer_min_distance, FetchOptions, FetchPlan, FetchReport, ObjectStore, RebuildReport,
    StoreConfig, MANIFEST_FILE, POOL_FILE,
};
