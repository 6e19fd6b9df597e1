//! Simulation of the DNA read/write channel.
//!
//! Synthesis, storage, and sequencing distort strands with insertions,
//! deletions, and substitutions (IDS noise), and each original molecule is
//! observed as a *cluster* of noisy reads whose size — the sequencing
//! coverage — follows a Gamma distribution (paper §4.1, §6.1.2). This crate
//! provides:
//!
//! - [`ErrorModel`]: per-base IDS rates, with presets matching the paper's
//!   experiments (uniform thirds, substitution-only, indel-only) and the
//!   technology mixes discussed in §8 (NGS ≈ 25–30% indels, nanopore ≥ 60%
//!   indels, enzymatic synthesis ≫ indels);
//! - [`ChannelModel`]: the one IDS channel — the per-position
//!   distortion process of §3 ([`ChannelModel::uniform`]) with composable
//!   reliability skew on top of the base rates: a [`PositionProfile`]
//!   modulating rates along the strand, whole-strand dropout, per-strand
//!   PCR amplification bias ([`PcrBias`]), and burst indel events
//!   ([`BurstModel`]);
//! - [`CoverageModel`]: fixed or Gamma-distributed cluster sizes;
//! - [`ReadPool`]: a pre-generated pool of noisy reads per strand that can
//!   be *progressively* drawn down to simulate lower coverage, exactly as
//!   the paper's methodology describes (§6.1.2);
//! - [`AnonymousPool`]: the same reads with the labels stripped, the
//!   orientation randomized, and the order shuffled — the realistic
//!   unlabeled soup a recovery pipeline must orient and demultiplex
//!   before decoding;
//! - [`SimulatedSequencer`]: the one read source — a channel model at a
//!   coverage model, producing one [`ReadPool`] per encoded unit with a
//!   per-unit seed ([`unit_seed`]). A recorded pool needs no sequencer:
//!   its clusters decode directly.
//!
//! # Examples
//!
//! ```
//! use dna_channel::{ChannelModel, ErrorModel};
//! use dna_strand::DnaString;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let strand = DnaString::random(200, &mut rng);
//! let channel = ChannelModel::uniform(ErrorModel::uniform(0.05));
//! let read = channel.transmit(&strand, &mut rng);
//! // ~5% of 200 positions disturbed; the read is a noisy variant.
//! assert!(read.len() > 150 && read.len() < 250);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anonymous;
mod coverage;
mod error_model;
mod model;
mod pool;
mod sequencer;

pub use anonymous::{AnonymousPool, ReadOrigin};
pub use coverage::{CoverageModel, MAX_COVERAGE};
pub use error_model::ErrorModel;
pub use model::{BurstModel, ChannelModel, ConstraintStress, PcrBias, PositionProfile};
pub use pool::{Cluster, ReadPool};
pub use sequencer::{unit_seed, SimulatedSequencer};

use std::error::Error;
use std::fmt;

/// Errors produced when configuring the channel simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChannelError {
    /// Error rates must be non-negative and sum to at most 1.
    InvalidRates {
        /// Substitution rate.
        sub: f64,
        /// Insertion rate.
        ins: f64,
        /// Deletion rate.
        del: f64,
    },
    /// Coverage parameters must be positive and finite.
    InvalidCoverage(f64),
    /// A position profile with a negative/non-finite multiplier or an
    /// empty per-position table.
    InvalidProfile(String),
    /// Strand dropout probability must lie in `[0, 1)`.
    InvalidDropout(f64),
    /// PCR bias shape must be positive and finite.
    InvalidPcr(f64),
    /// Burst rate must lie in `[0, 1]` and the mean length must be ≥ 1.
    InvalidBurst {
        /// Per-read burst probability.
        rate: f64,
        /// Mean burst length in bases.
        mean_len: f64,
    },
}

impl fmt::Display for ChannelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChannelError::InvalidRates { sub, ins, del } => {
                write!(f, "invalid IDS rates sub={sub} ins={ins} del={del}")
            }
            ChannelError::InvalidCoverage(c) => write!(f, "invalid coverage parameter {c}"),
            ChannelError::InvalidProfile(msg) => write!(f, "invalid position profile: {msg}"),
            ChannelError::InvalidDropout(d) => {
                write!(f, "dropout probability {d} outside [0, 1)")
            }
            ChannelError::InvalidPcr(s) => {
                write!(f, "PCR bias shape {s} must be positive and finite")
            }
            ChannelError::InvalidBurst { rate, mean_len } => write!(
                f,
                "invalid burst model: rate {rate} must lie in [0, 1] and mean length \
                 {mean_len} must be at least 1"
            ),
        }
    }
}

impl Error for ChannelError {}
