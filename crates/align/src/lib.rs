//! Sequence alignment substrate for DNA storage decoding.
//!
//! DNA storage pipelines lean on **edit distance** everywhere: reads are
//! clustered by edit-distance similarity, consensus algorithms align noisy
//! copies, and the theoretical object behind trace reconstruction is the
//! (constrained) edit-distance median. This crate provides the shared
//! machinery: unit-cost Levenshtein distance (full, and bounded with a
//! bit-parallel kernel), global alignment with traceback, pluggable read
//! clusterers (greedy and anchor-binned), and primer-anchored read
//! orientation recovery.
//!
//! All distance/alignment functions are generic over the symbol type, so
//! they serve both DNA ([`dna_strand::Base`]) and the binary alphabet the
//! paper uses for its optimal-reconstruction study (Fig. 6). A DNA
//! pattern compared against many texts — a primer, an orientation
//! anchor, a cluster representative — is compiled once into a
//! [`BasePattern`], whose match masks are indexed by the base's 2-bit
//! code; it also scores every prefix of a text in one scan.
//!
//! # Examples
//!
//! ```
//! use dna_align::edit_distance;
//!
//! assert_eq!(edit_distance(b"ACGT", b"AGT"), 1);  // one deletion
//! assert_eq!(edit_distance(b"ACGT", b"ACGT"), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alignment;
mod cluster;
mod distance;
mod orient;

pub use alignment::{align, AlignOp, Alignment};
pub use cluster::{
    AnchoredClusterer, ClusterResult, GreedyClusterer, ReadClusterer, MAX_ANCHOR_LEN,
};
pub use distance::{edit_distance, edit_distance_bounded, edit_distance_bounded_with, BasePattern};
pub use orient::{AnchorOrienter, ReadOrientation};
